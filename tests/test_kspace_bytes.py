"""The bytes of every k-space CLI output, pinned as one digest per command.

About 1,440 in-process calls: ``state`` and ``eigenvalue`` (at four skews)
for seven levels at eight indices on five grids, and ``nongauss`` in k at
the same indices and grids. The grids reach the origin (negative powers of
|k|, and the pole of the odd eigenvalues), an underflowed ground state and
overflow at |k| = 1e200. x space is left out; ``test_transform.py`` holds
its values to the moment series and to the same bits on every grid.

Run as a script to print the digests, e.g. to compare two checkouts::

    PYTHONPATH=src python tests/test_kspace_bytes.py
"""

import contextlib
import hashlib
import io
import itertools

import pytest

from rfho.cli import main

LEVELS = (0, 1, 2, 3, 4, 7, 12)
INDICES = ("1/5", "1/2", "2/3", "1", "5/4", "3/2", "7/4", "2")
GRIDS = ("-1:1:3", "-1e200:1e200:3", "-50:50:3", "1e155:2e155:2", "-2:2:9")
THETAS = ("0", "1", "1/3", "5/2")


def commands() -> dict[str, list[list[str]]]:
    """The argv lists of each command, keyed by the command's label."""
    per_level = list(itertools.product(LEVELS, INDICES, GRIDS))
    out = {
        "state": [
            ["state", "--n", str(n), "--alpha", a, f"--grid={g}"] for n, a, g in per_level
        ]
    }
    for theta in THETAS:
        out[f"eigenvalue --theta={theta}"] = [
            ["eigenvalue", "--n", str(n), "--alpha", a, f"--theta={theta}", f"--grid={g}"]
            for n, a, g in per_level
        ]
    out["nongauss"] = [
        ["nongauss", "--alpha", a, f"--grid={g}"] for a, g in itertools.product(INDICES, GRIDS)
    ]
    return out


def digest(argvs: list[list[str]]) -> str:
    """sha256 over the argv, exit code, stdout and stderr of each call in turn."""
    h = hashlib.sha256()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        for part in (" ".join(argv), str(code), out.getvalue(), err.getvalue()):
            h.update(part.encode())
            h.update(b"\0")
    return h.hexdigest()


# pinned before the origin rule moved into one FixedKExpr.eval loop and
# the no "-0" rule into the CLI writer (Python 3.11, x86-64); a change in
# any byte of these outputs must be deliberate and logged
PINNED = {
    "state":
        "66daa8c81e3a8262e3e45421668e379adc48041510a4a12c1c4f6a297715ba41",
    "eigenvalue --theta=0":
        "05fd381720a38e061fa5e6b8c36c3341c1fb8ad7386edfc1a4061c87df8bd32c",
    "eigenvalue --theta=1":
        "3718543c37742d7d98a90b69f0d486edd26165244bf2debf793bb95b144597c0",
    "eigenvalue --theta=1/3":
        "49f90be90bafa68e1349bd684f9cc4e8d33d6ebace9a766d14e60a6cb340299a",
    "eigenvalue --theta=5/2":
        "7f85eb51e20d2efede2144a04e9f0a08c0722b687bb23681e40ccf3cad15af85",
    "nongauss":
        "ff6bcc85c252b43bd01941925726852f077a9ddb4c6b2109fda69c42ea1bb153",
}


def test_every_command_is_pinned():
    assert sorted(commands()) == sorted(PINNED)
    assert sum(map(len, commands().values())) == 1440


@pytest.mark.parametrize("label", sorted(PINNED))
def test_pinned_kspace_bytes(label):
    assert digest(commands()[label]) == PINNED[label]


if __name__ == "__main__":
    for label, argvs in commands().items():
        print(f"{digest(argvs)}  {label}")
