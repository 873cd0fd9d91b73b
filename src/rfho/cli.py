"""Command line front end: polynomial tables, state and eigenvalue samples,
remainder-operator dumps, non-Gaussianity curves, and the verification suite.

Exit codes: 0 success, 1 computation or verification failure, 2 usage error
or an --out path that cannot be written.
Rationals are passed as "p/q" strings so exactness survives the boundary.
``_write`` is the one format path of all six subcommands and the one writer
to --out or stdout; the grid commands reach it through ``_write_grid``.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from .hermite import rf_hermite
from .operators import (
    fourier_remainder,
    remainder_forward_closed,
    remainder_reverted_closed,
    scaled_remainder,
)
from .spectral import Grid, excited_state, sample_local_eigenvalue, sample_regular
from .transform import QuadratureError, inverse_fourier, nongaussianity_k, nongaussianity_x
from .validation import run_all

#: largest --n any subcommand accepts
MAX_N = 20
#: largest --grid count any subcommand accepts
MAX_POINTS = 1_000_000


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"expected a rational like 3/2, got {text!r}") from exc


def _grid(text: str) -> list[float]:
    """The points of ``min:max:count``: lo + step*i, step = (hi - lo)/(count - 1)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected min:max:count, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected min:max:count, got {text!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise argparse.ArgumentTypeError("grid ends must be finite")
    if not 2 <= count <= MAX_POINTS:
        raise argparse.ArgumentTypeError(f"grid count must lie in 2..{MAX_POINTS}")
    if not lo < hi:
        raise argparse.ArgumentTypeError("grid min must be below max")
    if not math.isfinite(hi - lo):
        raise argparse.ArgumentTypeError("grid span max - min overflows")
    step = (hi - lo) / (count - 1)
    points = [lo + step * i for i in range(count)]
    if not all(p < q for p, q in zip(points, points[1:])):
        raise argparse.ArgumentTypeError("grid points are not strictly increasing in floating point")
    return points


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _write(args: argparse.Namespace, obj, lines) -> None:
    """Write ``obj`` as indented JSON under --format json, else the text ``lines``.

    The bytes go to the --out path when one is given, else to stdout.
    """
    text = (json.dumps(obj, indent=2) if args.format == "json" else "\n".join(lines)) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _write_grid(args: argparse.Namespace, grid: Grid) -> int:
    """Write a sample as columns (JSON) or as rows under ``<axis>,re,im`` (CSV); exit code 0."""
    obj = {
        "axis": grid.axis_label,
        "points": list(grid.points),
        "re": [v.real for v in grid.values],
        "im": [v.imag for v in grid.values],
    }
    rows = (f"{_fmt(p)},{_fmt(v.real)},{_fmt(v.imag)}" for p, v in zip(grid.points, grid.values))
    _write(args, obj, itertools.chain((f"{grid.axis_label},re,im",), rows))
    return 0


def _csv_row(n: int, term: dict) -> str:
    cells = (";".join(v) if isinstance(v, list) else str(v) for v in term.values())
    return ",".join((str(n), *cells))


# ---------------------------------------------------------------------------
# subcommands

def cmd_hermite(args: argparse.Namespace) -> int:
    exprs = [rf_hermite(m).expr for m in range(args.n + 1)]
    if args.alpha is not None:
        exprs = [e.at_alpha(args.alpha) for e in exprs]
    members = [{"n": m, "terms": e.to_json_obj()} for m, e in enumerate(exprs)]
    # one row per term, the term's JSON keys as columns; H_0 = 1 has one term
    header = ",".join(("n", *members[0]["terms"][0]))
    rows = (_csv_row(row["n"], t) for row in members for t in row["terms"])
    _write(args, members, itertools.chain((header,), rows))
    return 0


def cmd_state(args: argparse.Namespace) -> int:
    state = excited_state(args.n, args.alpha)
    if args.space == "x":
        return _write_grid(args, inverse_fourier(state, args.grid))
    return _write_grid(args, sample_regular(state.eval, args.grid))


def cmd_eigenvalue(args: argparse.Namespace) -> int:
    return _write_grid(args, sample_local_eigenvalue(args.n, args.alpha, args.theta, args.grid))


def cmd_nongauss(args: argparse.Namespace) -> int:
    sample = nongaussianity_x if args.space == "x" else nongaussianity_k
    return _write_grid(args, sample(args.alpha, args.grid))


def cmd_factorize(args: argparse.Namespace) -> int:
    d, g = args.delta, args.gamma
    if args.space == "k":
        fr = fourier_remainder(g, d, int(args.theta))
        obj = {
            "gamma": str(g),
            "delta": str(d),
            "theta": int(args.theta),
            "c0": {"re": fr.c0.re.to_json_obj(), "im": fr.c0.im.to_json_obj()},
            "c1": {"re": fr.c1.re.to_json_obj(), "im": fr.c1.im.to_json_obj()},
        }
        lines = [
            f"multiplier c0: ({fr.c0.re}) + i*({fr.c0.im})",
            f"derivative multiplier c1: ({fr.c1.re}) + i*({fr.c1.im})",
        ]
    else:
        fwd = remainder_forward_closed(g, d)
        rev = remainder_reverted_closed(d, g)
        lines = [f"forward remainder: {fwd}", f"reverted remainder: {rev}"]
        obj = {"forward": fwd.to_json_obj(), "reverted": rev.to_json_obj()}
        if d == g:
            scaled = scaled_remainder(d)
            lines.append(f"scaled remainder: {scaled}")
            obj["scaled"] = scaled.to_json_obj()
    _write(args, obj, lines)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    results = run_all()
    lines = (
        f"{'INFO' if r.kind == 'info' else ('PASS' if r.passed else 'FAIL')} {r.name}: {r.detail}"
        for r in results
    )
    _write(args, [dataclasses.asdict(r) for r in results], lines)
    return 1 if any(r.kind == "primary" and not r.passed for r in results) else 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rfho",
        description="Fractional oscillator toolkit: exact Hermite-type tables, "
        "spectral samples, factorization remainders, and verification.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser, *, grid: bool = True) -> None:
        if grid:
            sp.add_argument("--grid", type=_grid, default="-5:5:501",
                            metavar="MIN:MAX:COUNT")
        sp.add_argument("--out", default=None, help="write output to this path")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")

    sp = sub.add_parser("hermite", help="emit the exact polynomial table")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--alpha", type=_rational, default=None)
    common(sp, grid=False)
    sp.set_defaults(func=cmd_hermite, format="json")

    sp = sub.add_parser("state", help="sample a stationary state on a grid")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--alpha", type=_rational, required=True)
    sp.add_argument("--space", choices=("k", "x"), default="k")
    common(sp)
    sp.set_defaults(func=cmd_state)

    sp = sub.add_parser("eigenvalue", help="sample a local eigenvalue on a k grid")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--alpha", type=_rational, required=True)
    sp.add_argument("--theta", type=_rational, default=Fraction(0))
    common(sp)
    sp.set_defaults(func=cmd_eigenvalue)

    sp = sub.add_parser("nongauss", help="sample the non-Gaussianity measure")
    sp.add_argument("--alpha", type=_rational, required=True)
    sp.add_argument("--space", choices=("k", "x"), default="k")
    common(sp)
    sp.set_defaults(func=cmd_nongauss)

    sp = sub.add_parser("factorize", help="print factorization remainder operators")
    sp.add_argument("--delta", type=_rational, required=True)
    sp.add_argument("--gamma", type=_rational, required=True)
    sp.add_argument("--space", choices=("x", "k"), default="x")
    sp.add_argument("--theta", type=_rational, default=Fraction(0))
    common(sp, grid=False)
    sp.set_defaults(func=cmd_factorize)

    sp = sub.add_parser("validate", help="run the full verification suite")
    common(sp, grid=False)
    sp.set_defaults(func=cmd_validate)

    return p


def _mend_grid_argv(argv: list[str]) -> list[str]:
    # argparse reads "-1:1:3" as a flag; splice the pair into --grid=... form
    out, i = [], 0
    while i < len(argv):
        if argv[i] == "--grid" and i + 1 < len(argv) and ":" in argv[i + 1]:
            out.append(f"--grid={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def _domain_error(args: argparse.Namespace) -> str | None:
    alpha, n = getattr(args, "alpha", None), getattr(args, "n", None)
    if alpha is not None and not 0 < alpha <= 2:
        return "--alpha must lie in (0, 2]"
    if n is not None and not 0 <= n <= MAX_N:
        return f"--n must lie in 0..{MAX_N}"
    if args.command == "factorize":
        if args.delta <= 0 or args.gamma <= 0:
            return "orders must be positive"
        if args.space == "k" and args.theta.denominator != 1:
            return "k-space remainders need integer --theta"
        if args.space == "x" and args.theta != 0:
            return "--theta applies to k-space remainders only; add --space k"
    return None


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(_mend_grid_argv(argv))
    problem = _domain_error(args)
    if problem is not None:
        print(f"rfho {args.command}: {problem}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except QuadratureError as exc:
        print(f"rfho {args.command}: {exc}", file=sys.stderr)
    except OverflowError:
        print(f"rfho {args.command}: numeric overflow; use a narrower grid", file=sys.stderr)
    except OSError as exc:
        if args.out is None:
            raise
        print(f"rfho {args.command}: cannot write {args.out}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
    return 1


if __name__ == "__main__":
    sys.exit(main())
