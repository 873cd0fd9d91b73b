"""Seeded operation lists for the four workloads.

Each workload is a sequence of rounds.  A round is a balanced block: the
cost-setting properties of its operations (subcommand, n, index, grid-size
stratum) form the same multiset for every seed (exact-cold's proof sizes
step with the round number), so the throughput and latency percentiles of
a run do not depend on the seed.  Within that block the seed draws the
order, the exact grid counts and ranges, theta, the output format and the
rows the oracle samples.  The program receives only the resulting argv or
call arguments.

Operations are plain JSON-ready dicts so they can be handed to a fresh
interpreter unchanged.
"""

from __future__ import annotations

import itertools
import math
import random

#: stability indices, spanning (0, 2] with three values below 1
ALPHAS = ("1/5", "1/2", "2/3", "1", "5/4", "3/2", "7/4", "2")
#: skew parameters for `rfho eigenvalue`, integers and non-integers
THETAS = ("0", "1", "-1", "1/2", "-1/3", "2/3", "3/2")
#: integer skews for the exact builds
INT_THETAS = ("0", "1", "-1", "2", "3")
#: fractional orders for `rfho factorize`
ORDERS = ("1/3", "1/2", "1", "4/3", "3/2", "2", "5/2")

WORKLOADS = ("kspace-sweep", "xspace-transform", "exact-cold", "validate")

#: complete rounds a run always makes: enough operations for a tail
#: percentile with ten beyond it and for steady medians on a host whose
#: speed swings
MIN_ROUNDS = {"kspace-sweep": 2, "xspace-transform": 2, "exact-cold": 3, "validate": 10}
#: pace.py kernel that each workload's operation times are scaled by
PACE_KERNEL = {"kspace-sweep": "interpreter", "xspace-transform": "numpy",
               "exact-cold": "interpreter", "validate": "interpreter"}


def _grid(rng: random.Random, count: int, reach: float, low: float) -> dict:
    """A grid of ``count`` points inside [-reach, reach].

    Half the odd-sized grids are symmetric with a dyadic step, which puts
    k = 0 (or x = 0) exactly on a grid point; the others have independent
    ends.
    """
    if count % 2 and rng.random() < 0.5:
        half = (count - 1) // 2
        step = 2.0 ** -math.ceil(math.log2(half / reach))
        return {"lo": repr(-half * step), "hi": repr(half * step), "count": count}
    lo = -round(rng.uniform(low, reach), 3)
    hi = round(rng.uniform(low, reach), 3)
    return {"lo": repr(lo), "hi": repr(hi), "count": count}


def _jitter(rng: random.Random, count: int, lo: int, hi: int, spread: int) -> int:
    return min(hi, max(lo, count + rng.randint(-spread, spread)))


def _kspace_round(rng: random.Random, index: int) -> list[dict]:
    # each (subcommand, n) has its own grid-size stratum, taken from a fixed
    # permutation of the 13 levels, so a round's cost is the same for every seed
    levels = [501 + 125 * i for i in range(13)]
    ops = []
    for n in range(13):
        ops.append({
            "kind": "state_k", "n": n, "alpha": ALPHAS[n % 8],
            "grid": _grid(rng, _jitter(rng, levels[5 * n % 13], 501, 2001, 25), 8.0, 2.0),
        })
        ops.append({
            "kind": "eigenvalue", "n": n, "alpha": ALPHAS[(n + 4) % 8],
            "theta": rng.choice(THETAS),
            "grid": _grid(rng, _jitter(rng, levels[(5 * n + 6) % 13], 501, 2001, 25), 8.0, 2.0),
        })
    for i in range(4):
        ops.append({
            "kind": "nongauss_k", "alpha": ALPHAS[2 * i + 1],
            "grid": _grid(rng, _jitter(rng, levels[3 * i + 2], 501, 2001, 25), 8.0, 2.0),
        })
    return ops


def _xspace_round(rng: random.Random, index: int) -> list[dict]:
    # a Latin assignment: each kind meets all eight grid-size strata once
    levels = [61 + round((4001 - 61) * j / 7) for j in range(8)]
    kinds = [("state_x", n) for n in range(4)] + [("nongauss_x", None)]
    ops = []
    for k, (kind, n) in enumerate(kinds):
        for j, alpha in enumerate(ALPHAS):
            level = levels[(j + 3 * k) % 8]
            # the top stratum stays exact: it sets the run's peak memory
            count = level if level == 4001 else _jitter(rng, level, 61, 4001, 20)
            op = {"kind": kind, "alpha": alpha, "grid": _grid(rng, count, 40.0, 5.0)}
            if n is not None:
                op["n"] = n
            ops.append(op)
    return ops


def _exact_round(rng: random.Random, index: int) -> list[dict]:
    # eight proof sizes step with the round number through 8..39, so a run's
    # sizes spread evenly instead of repeating a few values
    ops = [{"kind": "proof", "n": 8 + 4 * i + (index + i) % 4} for i in range(8)]
    ops.append({"kind": "proof", "n": 40})
    for n, symbolic, fmt in ((5, True, "csv"), (10, False, "json"), (15, True, "json"), (20, False, "csv")):
        ops.append({
            "kind": "hermite_table", "n": n, "format": fmt,
            "alpha": None if symbolic else rng.choice(ALPHAS),
        })
    for n in (3, 7, 11):
        ops.append({
            "kind": "local_eigenvalue", "n": n,
            "alpha": rng.choice(ALPHAS), "theta": rng.choice(INT_THETAS),
        })
    for kind in ("factorize_x", "factorize_k"):
        order = rng.choice(ORDERS)
        delta, gamma = rng.sample(ORDERS, 2)
        for d, g in ((order, order), (delta, gamma)):
            op = {"kind": kind, "delta": d, "gamma": g}
            if kind == "factorize_k":
                op["theta"] = rng.choice(INT_THETAS)
            ops.append(op)
    return ops


def _validate_round(rng: random.Random, index: int) -> list[dict]:
    return [{"kind": "validate"}]


_ROUNDS = {
    "kspace-sweep": _kspace_round,
    "xspace-transform": _xspace_round,
    "exact-cold": _exact_round,
    "validate": _validate_round,
}


def rounds(workload: str, seed: int):
    """Endless generator of shuffled rounds; the same seed gives the same rounds."""
    rng = random.Random(f"{workload}:{seed}")
    make = _ROUNDS[workload]
    for index in itertools.count():
        ops = make(rng, index)
        for op in ops:
            if op["kind"] in ("state_k", "eigenvalue", "nongauss_k", "state_x", "nongauss_x", "validate"):
                op.setdefault("format", rng.choice(("csv", "json")))
            op["check_seed"] = rng.getrandbits(32)
        rng.shuffle(ops)
        yield ops
