"""Public surface: every exported name resolves, and the README examples run."""

import contextlib
import dataclasses
import importlib
import importlib.util
import io
import pkgutil
import re
import shlex
import sys
from pathlib import Path

import pytest

import rfho
from rfho.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

MODULES = ["rfho", *(f"rfho.{m.name}" for m in pkgutil.iter_modules(rfho.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_readme_example_runs_and_prints_its_comments():
    [block] = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    comments = [line.split("# ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    assert len(printed) == len(comments)
    for got, comment in zip(printed, comments):
        # a comment that shows a value must match the output, to its "..." if it ends in one
        if comment.endswith("..."):
            assert got.startswith(comment[:-3])
        elif comment[0] in "0123456789([-":
            assert got == comment


def test_readme_command_lines_exit_zero():
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    lines = [
        line for block in re.findall(r"```sh\n(.*?)```", section, re.S)
        for line in block.splitlines() if line.startswith("rfho ")
    ]
    assert len(lines) >= 10
    for line in lines:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(shlex.split(line)[1:]) == 0, line


def test_benchmark_facing_names_resolve():
    # perfbench/tracer.py wraps rfho functions and methods found by name, and
    # perfbench/ops.py and selftest.py call a few directly: a name they need
    # that goes missing fails here rather than in a traced benchmark run
    import rfho.cli  # noqa: F401  (loads every module the tracer looks up)
    import rfho.hermite
    import rfho.spectral

    spec = importlib.util.spec_from_file_location("rfho_bench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    modules = [m for name, m in sys.modules.items() if name == "rfho" or name.startswith("rfho.")]
    classes = {v for m in modules for v in vars(m).values()
               if isinstance(v, type) and v.__module__.startswith("rfho.")}
    before = [(owner, dict(vars(owner))) for owner in [*modules, *classes]]

    def changed():
        return [(owner, key) for owner, saved in before
                for key, value in saved.items() if vars(owner).get(key) is not value]

    t = tracer.Tracer()
    try:
        t.install()
        replaced = changed()
    finally:
        t.uninstall()
    assert len(replaced) >= len(tracer.SPANS)
    assert changed() == []

    for fn in (rfho.hermite.rf_hermite, rfho.hermite.rodrigues, rfho.spectral.local_eigenvalue):
        assert callable(fn)
    # the benchmark's self-test corrupts a result with dataclasses.replace(lam, den=...)
    assert "den" in {f.name for f in dataclasses.fields(rfho.spectral.LocalEigenvalue)}
