"""In-memory span recorder and the per-layer metrics derived from its spans.

Spans are recorded from outside the program: `Recorder.wrap` replaces a
function where its caller looks it up (for example `sigaug.evaluate.train`),
so the library itself carries no tracing code. Each span holds its name,
start, end, parent id, the rise in the process's peak RSS while it was open,
and counts derived from the wrapped call's arguments and return value.
"""

from __future__ import annotations

import resource
import time
from contextlib import contextmanager
from statistics import median


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


class Recorder:
    """Single-threaded span stack; spans are dicts kept in opening order."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sp = {"id": len(self.spans), "name": name,
              "parent": self._stack[-1] if self._stack else None,
              "start": None, "end": None, "rss_rise_mb": 0.0, "counts": {}}
        self.spans.append(sp)
        self._stack.append(sp["id"])
        rss0 = _maxrss_mb()
        sp["start"] = time.perf_counter()
        try:
            yield sp
        finally:
            sp["end"] = time.perf_counter()
            sp["rss_rise_mb"] = _maxrss_mb() - rss0
            self._stack.pop()

    def wrap(self, name: str, fn, counts=None):
        """`fn` recorded as span `name`; `counts(args, kwargs, result)` returns
        a dict of counts stored on the span."""

        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
            if counts is not None:
                sp["counts"] = counts(args, kwargs, result)
            return result

        return traced

    def all_closed(self) -> bool:
        return not self._stack and all(s["end"] is not None for s in self.spans)


def self_times(spans) -> dict:
    """Span id -> duration minus the part of its interval its children cover."""
    children: dict = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
            lo, hi = max(c["start"], cursor), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced pass (names as in BENCHMARK.json)."""
    selft = self_times(spans)

    def of(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum(s["end"] - s["start"] for s in of(name))

    def count(name, key):
        return sum(s["counts"].get(key, 0) for s in of(name))

    def rss(name):
        return sum(s["rss_rise_mb"] for s in of(name))

    trains = of("sgnn.train")
    epochs = count("sgnn.train", "epochs")
    log_entries = count("augment.augment", "log_entries")
    kept = count("augment.augment", "kept")
    # an undefined utility (no cycle through the pair) is logged as a keep
    undefined = count("balance.pair_utility", "undefined")
    return {
        "graph.load_s": total("graph.load"),
        "graph.split_s": total("graph.split_edges"),
        "graph.split_calls": len(of("graph.split_edges")),
        "sgnn.train_s": total("sgnn.train"),
        "sgnn.epochs": epochs,
        "sgnn.epoch_s": total("sgnn.train") / epochs if epochs else 0.0,
        "sgnn.rss_rise_mb": rss("sgnn.train"),
        "sgnn.base_train_calls": sum(1 for s in trains if s["counts"].get("base")),
        "sgnn.retrain_calls": sum(1 for s in trains if not s["counts"].get("base")),
        "augment.augment_s": total("augment.augment"),
        "augment.edge_probabilities_s": total("augment.edge_probabilities"),
        "augment.perturb_step_s": total("augment.perturb_step"),
        "augment.rounds": len(of("augment.perturb_step")),
        "augment.select_s": sum(selft[s["id"]] for s in of("augment.perturb_step")),
        "augment.fuse_s": total("augment.fuse"),
        "augment.log_entries": log_entries,
        "augment.kept": kept,
        "augment.kept_share": kept / log_entries if log_entries else 0.0,
        "augment.thresholds_unmet": count("augment.augment", "thresholds_unmet"),
        "augment.rss_rise_mb": rss("augment.augment"),
        "augment.prob_matrix_mb": count("augment.edge_probabilities", "computed_mb"),
        "balance.pair_utility_s": total("balance.pair_utility"),
        "balance.pair_utility_calls": len(of("balance.pair_utility")),
        "balance.gate_keep": count("augment.augment", "keep") - undefined,
        "balance.gate_discard": count("augment.augment", "discard"),
        "balance.gate_undefined": undefined,
        "evaluate.predict_s": total("evaluate.predict_test_edges"),
        "evaluate.score_s": total("evaluate.auc") + total("evaluate.classification_metrics"),
        "evaluate.self_s": sum(selft[s["id"]] for s in of("bench.pass")),
    }


LAYER_UNITS = {name: unit for unit, names in (
    ("s", ("graph.load_s", "graph.split_s", "sgnn.train_s", "sgnn.epoch_s",
           "augment.augment_s", "augment.edge_probabilities_s", "augment.perturb_step_s",
           "augment.select_s", "augment.fuse_s", "balance.pair_utility_s",
           "evaluate.predict_s", "evaluate.score_s", "evaluate.self_s",
           "tracing_overhead_s")),
    ("count", ("graph.split_calls", "sgnn.epochs", "sgnn.base_train_calls",
               "sgnn.retrain_calls", "augment.rounds", "augment.log_entries",
               "augment.kept", "augment.thresholds_unmet", "balance.pair_utility_calls",
               "balance.gate_keep", "balance.gate_discard", "balance.gate_undefined")),
    ("MB", ("sgnn.rss_rise_mb", "augment.rss_rise_mb", "augment.prob_matrix_mb")),
    ("share", ("augment.kept_share",)),
) for name in names}

# counts must repeat exactly across the passes of one workload and seed
EXACT_COUNTS = tuple(k for k, unit in LAYER_UNITS.items() if unit == "count")


def combine(per_pass: list[dict]) -> dict:
    """Median of each metric over passes."""
    return {k: median(p[k] for p in per_pass) for k in per_pass[0]}


def per_span_cost(calls: int = 20000) -> float:
    """Seconds one wrapped call adds over a bare call, measured on a no-op."""

    def noop():
        return None

    traced = Recorder().wrap("noop", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        traced()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls
