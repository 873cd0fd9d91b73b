"""Public surface: every exported name resolves, and the README examples run."""

import contextlib
import importlib
import io
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import rfho
from rfho.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

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
