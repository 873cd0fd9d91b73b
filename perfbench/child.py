"""One fresh interpreter: time ``import rfho``, then optionally one operation.

Invoked by run.py as ``python3 perfbench/child.py '<json request>'``; the
request holds "mode" ("setup" or "op"), "op", "op_id", "trace" and
"warmup".  The last stdout line is a JSON record of what was measured,
with times already scaled to the reference pace (see pace.py).
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from pathlib import Path

import pace

SRC = Path(__file__).resolve().parent.parent / "src"

#: CLI calls that fill rfho's caches (the Hermite family to n = 12 and the
#: quadrature nodes) before an in-process workload starts timing
WARMUP = (
    ["hermite", "--n", "12"],
    ["state", "--n", "0", "--alpha", "1", "--space", "x", "--grid=0:1:2"],
)


def timed_setup(warmup: bool) -> float:
    """Seconds to import rfho and its CLI, plus the warm-up calls if asked."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import rfho.cli
    if warmup:
        import io
        from contextlib import redirect_stdout
        for args in WARMUP:
            with redirect_stdout(io.StringIO()):
                rfho.cli.main(list(args))
    return time.perf_counter() - start


def main() -> int:
    request = json.loads(sys.argv[1])
    setup_s = timed_setup(request.get("warmup", False))
    gc.collect()
    before = pace.settled()
    record = {"setup_s": setup_s * pace.REFERENCE_S / before}
    if request["mode"] == "op":
        import ops
        import tracer

        op = request["op"]
        trace = tracer.Tracer() if request.get("trace") else None
        if trace:
            trace.install()
            trace.op_id = request["op_id"]
        start = time.perf_counter()
        outcome = ops.execute(op)
        elapsed = time.perf_counter() - start
        record["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if trace:
            trace.uninstall()
            record["trace"] = trace.export()
        record["scale"] = pace.scale(before, pace.pace())
        record["op_s"] = elapsed * record["scale"]
        record["error"] = ops.check(op, outcome)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
