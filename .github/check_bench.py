"""Check the seed-1 benchmark records of all four workloads.

    python3 .github/check_bench.py --trace 0

reads ``perfbench/out/<workload>-seed1-trace<t>.json``, as
``perfbench/run.py --seed 1`` writes them, and exits 1 unless each record
has ``correct`` true and no failed operation.  With --trace 0 the metric
names must also be BENCHMARK.json's ``end_to_end`` names, in order.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("exact-cold", "kspace-sweep", "validate", "xspace-transform")


def problems(record: dict, names: list[str] | None) -> list[str]:
    found = []
    if record["correct"] is not True:
        found.append("correct is not true")
    if record["failed"] or record["failures"]:
        found.append(f"{record['failed']} failed operations: {record['failures']}")
    if names is not None and list(record["metrics"]) != names:
        found.append(f"metric names {list(record['metrics'])}, expected {names}")
    return found


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    names = None
    if args.trace == 0:
        names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    ok = True
    for workload in WORKLOADS:
        record = json.loads((OUT / f"{workload}-seed1-trace{args.trace}.json").read_text())
        found = problems(record, names)
        print(workload, "FAILED: " + "; ".join(found) if found else "ok", record["metrics"] if names else "")
        ok = ok and not found
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
