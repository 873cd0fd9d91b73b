"""Spans around rfho's public functions, installed from outside the package.

A span is (name, start, end, parent index, operation id), kept in memory
and written out once the run ends.  A function bound into other modules
by ``from .x import y`` is replaced in every rfho module that holds it;
methods are replaced on their class.  Self time is a span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict

#: the 14 entries of rfho.validation.run_all, in its order
CRITERIA = (
    "crit_ladder_rodrigues", "crit_classical_reduction", "crit_printed_family",
    "crit_eigenvalues", "crit_kernel", "crit_factorization", "crit_gaussian_identity",
    "crit_calibration", "crit_closed_form_alpha1", "crit_closed_form_alpha32",
    "crit_parity_reality", "crit_nongaussianity", "info_hermite4", "info_theta_term",
)

_REMAINDERS = (
    "fourier_remainder", "remainder_forward_closed", "remainder_reverted_closed",
    "scaled_remainder", "compose_factorization", "reverted_factorization",
)

#: (module, function or Class.method, span name)
SPANS = (
    ("rfho.cli", "main", "cli"),
    ("rfho.kterms", "KExpr.at_alpha", "kterms.at_alpha"),
    ("rfho.kterms", "FixedKExpr.eval", "kterms.fixed_eval"),
    ("rfho.kterms", "KExpr.__mul__", "kterms.mul"),
    ("rfho.kterms", "KExpr.differentiate", "kterms.differentiate"),
    ("rfho.spectral", "KState.eval", "spectral.point_eval"),
    ("rfho.spectral", "LocalEigenvalue.eval", "spectral.point_eval"),
    ("rfho.spectral", "local_eigenvalue", "spectral.local_eigenvalue"),
    ("rfho.hermite", "rf_hermite", "hermite.rf_hermite"),
    ("rfho.hermite", "rodrigues", "hermite.rodrigues"),
    *(("rfho.operators", name, "operators.remainder") for name in _REMAINDERS),
    ("rfho.transform", "inverse_fourier", "transform.inverse_fourier"),
    ("rfho.hyper", "pfq_mp", "hyper.pfq_mp"),
    ("rfho.hyper", "eval_closed_form", "hyper.eval_closed_form"),
    *(("rfho.validation", name, f"validation.{name}") for name in CRITERIA),
)

#: span names whose calls and self time are reported per operation
LAYER_SPANS = (
    "kterms.at_alpha", "kterms.fixed_eval", "spectral.point_eval",
    "spectral.local_eigenvalue", "hermite.rf_hermite", "hermite.rodrigues",
    "kterms.mul", "kterms.differentiate", "operators.remainder",
    "transform.inverse_fourier", "hyper.pfq_mp", "hyper.eval_closed_form",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op_id = -1
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording

    def _span(self, name: str, fn, before=None, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if after is not None:
                    after(None, exc)
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id)
            if after is not None:
                after(result, None)
            return result

        return traced

    def _count_terms(self, result, exc) -> None:
        if exc is None:
            self.counts["hermite.terms_built"] += len(result.expr.terms)

    def _count_points(self, args, kwargs) -> None:
        xs = args[1] if len(args) > 1 else kwargs["xs"]
        self.counts["transform.x_points"] += len(xs)

    def _count_rejects(self, result, exc) -> None:
        if isinstance(exc, sys.modules["rfho.transform"].QuadratureError):
            self.counts["transform.rejected"] += 1

    # -- installation

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "rfho" or name.startswith("rfho.")]
        hooks = {
            "hermite.rodrigues": (None, self._count_terms),
            "transform.inverse_fourier": (self._count_points, self._count_rejects),
        }
        for modname, attr, name in SPANS:
            before, after = hooks.get(name, (None, None))
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                self._replace([owner], owner.__dict__[attr], self._span(name, owner.__dict__[attr], before, after))
            else:
                orig = getattr(owner, attr)
                self._replace(modules, orig, self._span(name, orig, before, after))
        # each ladder step is one exact build; counted without a span so its
        # work stays in rf_hermite's self time
        orig = sys.modules["rfho.hermite"].ladder_next

        def ladder_next(h):
            result = orig(h)
            self._count_terms(result, None)
            return result

        self._replace(modules, orig, ladder_next)

    def _replace(self, owners, orig, new) -> None:
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is orig:
                    setattr(owner, key, new)
                    self._undo.append((owner, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    # -- results

    def export(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def self_times(spans) -> list[float]:
    child = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (name, start, end, parent, op) in enumerate(spans)]


def merge(parts: list[dict]) -> dict:
    """Concatenate exported traces (one per child process), re-basing parent indices."""
    spans, counts = [], defaultdict(float)
    for part in parts:
        base = len(spans)
        spans.extend(
            (name, start, end, parent + base if parent >= 0 else -1, op)
            for name, start, end, parent, op in part["spans"]
        )
        for key, value in part["counts"].items():
            counts[key] += value
    return {"spans": spans, "counts": dict(counts)}


def layer_metrics(trace: dict, scales: list[float]) -> dict[str, tuple[float, str]]:
    """Per-operation calls and self seconds of each layer, plus the counters.

    ``scales[i]`` turns operation i's seconds into reference-pace seconds.
    """
    spans, ops = trace["spans"], len(scales)
    calls, self_s, total = defaultdict(int), defaultdict(float), defaultdict(float)
    for (name, start, end, parent, op), own in zip(spans, self_times(spans)):
        calls[name] += 1
        self_s[name] += own * scales[op]
        total[name] += (end - start) * scales[op]
    out = {}
    for name in LAYER_SPANS:
        out[f"{name}.calls"] = (calls[name] / ops, "calls/op")
        out[f"{name}.self_s"] = (self_s[name] / ops, "s/op")
    counts = trace["counts"]
    points = counts.get("transform.x_points", 0.0)
    out["hermite.terms_built"] = (counts.get("hermite.terms_built", 0.0) / ops, "terms/op")
    out["transform.x_points"] = (points / ops, "points/op")
    out["transform.us_per_x_point"] = (
        total["transform.inverse_fourier"] / points * 1e6 if points else 0.0, "us")
    out["transform.rejected"] = (counts.get("transform.rejected", 0.0) / ops, "calls/op")
    out["cli.self_s"] = (self_s["cli"] / ops, "s/op")
    for name in CRITERIA:
        out[f"validation.{name}.s"] = (total[f"validation.{name}"] / ops, "s/op")
    return out


def op_self_totals(spans) -> dict[int, float]:
    """Sum of the self times of each operation's spans."""
    out: dict[int, float] = defaultdict(float)
    for (name, start, end, parent, op), s in zip(spans, self_times(spans)):
        out[op] += s
    return dict(out)


def write_spans(path, spans) -> None:
    with gzip.open(path, "wt") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
