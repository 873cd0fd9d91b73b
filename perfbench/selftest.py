#!/usr/bin/env python3
"""Self-tests of the benchmark: python3 perfbench/selftest.py (from the repository root).

1. The same seed gives the same operation list; another seed a different one.
2. A deliberately perturbed output fails its oracle, for every operation kind.
3. The traced self times of an operation sum to no more than its wall time.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import sys
import time
from fractions import Fraction

import child

sys.path.insert(0, str(child.SRC))

import mix  # noqa: E402
import ops  # noqa: E402
import tracer  # noqa: E402

GRID_K = {"lo": "-2.5", "hi": "3.0", "count": 6}
GRID_X = {"lo": "-6.0", "hi": "6.0", "count": 5}

#: one small operation of every kind
SAMPLES = [
    {"kind": "state_k", "n": 5, "alpha": "2/3", "grid": GRID_K, "format": "csv"},
    {"kind": "state_k", "n": 4, "alpha": "2", "grid": GRID_K, "format": "json"},
    {"kind": "eigenvalue", "n": 6, "alpha": "3/2", "theta": "-1/3", "grid": GRID_K, "format": "json"},
    {"kind": "eigenvalue", "n": 3, "alpha": "2", "theta": "1/2", "grid": GRID_K, "format": "csv"},
    {"kind": "nongauss_k", "alpha": "1/2", "grid": GRID_K, "format": "csv"},
    {"kind": "state_x", "n": 3, "alpha": "5/4", "grid": GRID_X, "format": "csv"},
    {"kind": "nongauss_x", "alpha": "1", "grid": GRID_X, "format": "json"},
    {"kind": "proof", "n": 9},
    {"kind": "hermite_table", "n": 6, "alpha": None, "format": "csv"},
    {"kind": "hermite_table", "n": 6, "alpha": "3/2", "format": "json"},
    {"kind": "local_eigenvalue", "n": 4, "alpha": "2/3", "theta": "1"},
    {"kind": "factorize_x", "delta": "3/2", "gamma": "3/2"},
    {"kind": "factorize_k", "delta": "1", "gamma": "4/3", "theta": "-1"},
    {"kind": "validate", "format": "csv"},
]
for i, sample in enumerate(SAMPLES):
    sample["check_seed"] = i


def _scale_numbers(text: str, factor: float) -> str:
    """Multiply every value column of a CSV grid (or JSON ``re``) by ``factor``."""
    if text.startswith("{"):
        obj = json.loads(text)
        obj["re"] = [v * factor for v in obj["re"]]
        return json.dumps(obj)
    lines = text.splitlines()
    rows = [",".join([p, repr(float(re) * factor), repr(float(im) * factor)])
            for p, re, im in (line.split(",") for line in lines[1:])]
    return "\n".join(lines[:1] + rows) + "\n"


def perturb(op: dict, out: ops.Outcome) -> ops.Outcome:
    kind = op["kind"]
    if kind in ("state_k", "eigenvalue", "nongauss_k", "state_x", "nongauss_x"):
        return dataclasses.replace(out, stdout=_scale_numbers(out.stdout, 1 + 1e-6))
    if kind == "proof":
        return dataclasses.replace(out, result=False)
    if kind == "local_eigenvalue":
        lam = out.result
        return dataclasses.replace(out, result=dataclasses.replace(lam, den=lam.den.scale(2)))
    if kind == "hermite_table":
        if op["format"] == "json":
            table = json.loads(out.stdout)
            table[-1]["terms"][0]["coeff"] = "1" if op["alpha"] else ["1"]
            return dataclasses.replace(out, stdout=json.dumps(table))
        lines = out.stdout.splitlines()
        fields = lines[-1].split(",")
        fields[1] = fields[1] + "1"
        return dataclasses.replace(out, stdout="\n".join(lines[:-1] + [",".join(fields)]) + "\n")
    if kind in ("factorize_x", "factorize_k"):
        obj = json.loads(out.stdout)
        words = obj["forward"] if kind == "factorize_x" else obj["c1"]["re"] or obj["c1"]["im"]
        words[0]["coeff"] = str(2 * Fraction(words[0]["coeff"]) + 1)
        return dataclasses.replace(out, stdout=json.dumps(obj))
    if kind == "validate":
        return dataclasses.replace(out, stdout=out.stdout.replace("PASS", "FAIL", 1))
    raise ValueError(kind)


def test_seed_gives_same_ops() -> None:
    def first(workload: str, seed: int) -> list:
        return list(itertools.islice(mix.rounds(workload, seed), 4))

    for workload in mix.WORKLOADS:
        assert first(workload, 11) == first(workload, 11), workload
        assert first(workload, 11) != first(workload, 12), workload


def test_perturbed_output_fails() -> None:
    for op in SAMPLES:
        out = ops.execute(op)
        assert ops.check(op, out) == "", (op, ops.check(op, out))
        assert ops.check(op, perturb(op, out)) != "", op


def test_self_time_within_wall() -> None:
    trace = tracer.Tracer()
    trace.install()
    walls = []
    try:
        for i, op in enumerate(SAMPLES):
            trace.op_id = i
            start = time.perf_counter()
            ops.execute(op)
            walls.append(time.perf_counter() - start)
    finally:
        trace.uninstall()
    totals = tracer.op_self_totals(trace.spans)
    for i, wall in enumerate(walls):
        assert 0 < totals.get(i, 0.0) <= wall, (SAMPLES[i]["kind"], totals.get(i), wall)


def main() -> int:
    failed = 0
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            try:
                test()
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
            else:
                print(f"PASS {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
