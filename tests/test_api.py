"""Public surface: every exported name resolves, and the README example runs."""

import contextlib
import importlib
import io
import pkgutil
import re
from pathlib import Path

import pytest

import rfho

MODULES = ["rfho", *(f"rfho.{m.name}" for m in pkgutil.iter_modules(rfho.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_readme_example_runs_and_prints_its_comments():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    [block] = re.findall(r"```python\n(.*?)```", readme, re.S)
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
