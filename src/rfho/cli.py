"""Command line front end: polynomial tables, state and eigenvalue samples,
remainder-operator dumps, non-Gaussianity curves, and the verification suite.

Exit codes: 0 success, 1 computation or verification failure, 2 usage error
or an --out path that cannot be written.
Rationals are passed as "p/q" strings so exactness survives the boundary.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from .hermite import rf_hermite
from .kterms import FixedKExpr
from .operators import (
    fourier_remainder,
    remainder_forward_closed,
    remainder_reverted_closed,
    scaled_remainder,
)
from .spectral import excited_state, sample_local_eigenvalue, sample_regular
from .transform import (
    Grid,
    QuadratureError,
    inverse_fourier,
    nongaussianity_k,
    nongaussianity_x,
)
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


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _grid_csv(grid: Grid) -> str:
    lines = [f"{grid.axis_label},re,im"]
    for p, v in zip(grid.points, grid.values):
        lines.append(f"{_fmt(p)},{_fmt(v.real)},{_fmt(v.imag)}")
    return "\n".join(lines) + "\n"


def _grid_json(grid: Grid) -> str:
    obj = {
        "axis": grid.axis_label,
        "points": list(grid.points),
        "re": [v.real for v in grid.values],
        "im": [v.imag for v in grid.values],
    }
    return json.dumps(obj, indent=2) + "\n"


def _emit_grid(grid: Grid, args: argparse.Namespace) -> None:
    text = _grid_json(grid) if args.format == "json" else _grid_csv(grid)
    _emit(text, args.out)


def _fixed_terms_obj(expr: FixedKExpr) -> list[dict]:
    return [
        {"coeff": str(t.coeff), "sgn": t.sgn_parity, "exponent": str(t.exponent)}
        for t in expr.terms
    ]


# ---------------------------------------------------------------------------
# subcommands

def cmd_hermite(args: argparse.Namespace) -> int:
    members = []
    for m in range(args.n + 1):
        expr = rf_hermite(m).expr
        if args.alpha is None:
            members.append({"n": m, "terms": expr.to_json_obj()})
        else:
            members.append({"n": m, "terms": _fixed_terms_obj(expr.at_alpha(args.alpha))})
    if args.format == "csv":
        if args.alpha is None:
            lines = ["n,coeff,sgn,j,m"]
            for row in members:
                for t in row["terms"]:
                    coeff = ";".join(t["coeff"])
                    lines.append(f"{row['n']},{coeff},{t['sgn']},{t['j']},{t['m']}")
        else:
            lines = ["n,coeff,sgn,exponent"]
            for row in members:
                for t in row["terms"]:
                    lines.append(f"{row['n']},{t['coeff']},{t['sgn']},{t['exponent']}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(json.dumps(members, indent=2) + "\n", args.out)
    return 0


def cmd_state(args: argparse.Namespace) -> int:
    state = excited_state(args.n, args.alpha)
    if args.space == "x":
        grid = inverse_fourier(state, args.grid)
    else:
        pts, vals = sample_regular(state.eval, args.grid)
        grid = Grid("k", tuple(pts), tuple(vals))
    _emit_grid(grid, args)
    return 0


def cmd_eigenvalue(args: argparse.Namespace) -> int:
    pts, vals = sample_local_eigenvalue(args.n, args.alpha, args.theta, args.grid)
    _emit_grid(Grid("k", tuple(pts), tuple(vals)), args)
    return 0


def cmd_nongauss(args: argparse.Namespace) -> int:
    if args.space == "x":
        grid = nongaussianity_x(args.alpha, args.grid)
    else:
        grid = nongaussianity_k(args.alpha, args.grid)
    _emit_grid(grid, args)
    return 0


def cmd_factorize(args: argparse.Namespace) -> int:
    d, g = args.delta, args.gamma
    if args.space == "k":
        fr = fourier_remainder(g, d, int(args.theta))
        if args.format == "json":
            obj = {
                "gamma": str(g),
                "delta": str(d),
                "theta": int(args.theta),
                "c0": {"re": _fixed_terms_obj(fr.c0.re), "im": _fixed_terms_obj(fr.c0.im)},
                "c1": {"re": _fixed_terms_obj(fr.c1.re), "im": _fixed_terms_obj(fr.c1.im)},
            }
            _emit(json.dumps(obj, indent=2) + "\n", args.out)
        else:
            text = (
                f"multiplier c0: ({fr.c0.re}) + i*({fr.c0.im})\n"
                f"derivative multiplier c1: ({fr.c1.re}) + i*({fr.c1.im})\n"
            )
            _emit(text, args.out)
        return 0
    fwd = remainder_forward_closed(g, d)
    rev = remainder_reverted_closed(d, g)
    lines = [f"forward remainder: {fwd}", f"reverted remainder: {rev}"]
    obj = {"forward": fwd.to_json_obj(), "reverted": rev.to_json_obj()}
    if d == g:
        scaled = scaled_remainder(d)
        lines.append(f"scaled remainder: {scaled}")
        obj["scaled"] = scaled.to_json_obj()
    if args.format == "json":
        _emit(json.dumps(obj, indent=2) + "\n", args.out)
    else:
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    results = run_all()
    failed = any(r.kind == "primary" and not r.passed for r in results)
    if args.format == "json":
        obj = [
            {"name": r.name, "kind": r.kind, "passed": r.passed, "detail": r.detail}
            for r in results
        ]
        _emit(json.dumps(obj, indent=2) + "\n", args.out)
    else:
        lines = []
        for r in results:
            tag = "INFO" if r.kind == "info" else ("PASS" if r.passed else "FAIL")
            lines.append(f"{tag} {r.name}: {r.detail}")
        _emit("\n".join(lines) + "\n", args.out)
    return 1 if failed else 0


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
    sp.add_argument("--out", default=None)
    sp.add_argument("--format", choices=("csv", "json"), default="json")
    sp.set_defaults(func=cmd_hermite)

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
