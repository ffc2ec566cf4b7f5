"""Spans around the calls into each smallfdr layer, recorded from outside.

The tracer replaces the public names that each caller module looks up
(``smallfdr.cli.load_pvalues_csv``, ``smallfdr.simulate.lfdr_estimates``,
...) with wrappers that record a span per call: id, parent id, name, start
and end.  Nothing under ``src/`` is edited and no private name is touched.
Spans stay in memory and are written out once, after the traced phase.

``layer_metrics`` turns a span file into per-layer numbers.  Every ``_s``
metric is self time: a span's duration minus the time its direct children
cover.  A span that never fires contributes 0 calls and 0 seconds.
"""

from __future__ import annotations

import csv
import importlib
import itertools
import time
from collections import defaultdict

# Short estimator names for the kind strings smallfdr uses.
KIND_SHORT = {"mle": "mle", "corrected_median": "corrected", "posterior_mean": "mean"}
ESTIMATORS = ("mle", "corrected", "mean")


def _estimate_span(args, kwargs) -> str:
    """Span name for lfdr_estimates(pvals, kind, ...), by estimator kind."""
    kind = kwargs["kind"] if "kind" in kwargs else args[1]
    return f"lfdr.estimate.{KIND_SHORT.get(kind, kind)}"


# (module, attribute, span name or function of (args, kwargs) giving it).
# ``PValueSet.from_pairs`` is a classmethod on smallfdr.lfdr.PValueSet.
TARGETS = (
    ("smallfdr.cli", "main", "cli"),
    ("smallfdr.cli", "load_pvalues_csv", "ingest.load"),
    ("smallfdr.cli", "load_abundance_csv", "ingest.load"),
    ("smallfdr.cli", "shift_log_transform", "ingest.shift_log"),
    ("smallfdr.cli", "two_sample_t_pvalues", "ingest.ttest"),
    ("smallfdr.ingest", "student_t_sf", "distributions.t_sf"),
    ("smallfdr.lfdr.PValueSet", "from_pairs", "lfdr.rank"),
    ("smallfdr.cli", "lfdr_estimates", _estimate_span),
    ("smallfdr.simulate", "lfdr_estimates", _estimate_span),
    ("smallfdr.cli", "bh_lfdr_link", "lfdr.bh"),
    ("smallfdr.nfdr", "inverse_significance", "confidence.inverse"),
    ("smallfdr.lfdr", "mle_nfdr", "nfdr.mle"),
    ("smallfdr.lfdr", "mean_nfdr", "nfdr.mean"),
    ("smallfdr.simulate", "mle_nfdr", "nfdr.mle"),
    ("smallfdr.simulate", "corrected_nfdr", "nfdr.corrected"),
    ("smallfdr.simulate", "mean_nfdr", "nfdr.mean"),
    ("smallfdr.simulate", "generate_dataset", "simulate.generate"),
    ("smallfdr.cli", "run_grid", "simulate.grid"),
    ("smallfdr.cli", "exact_small_n_coverage", "simulate.coverage"),
)


def _resolve(path: str):
    """Import ``a.b.c`` or ``a.b.Class`` and return the object."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(path)


class Tracer:
    """Records nested spans for the calls in TARGETS while installed."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.rows_in = 0
        self.ranks_estimated = 0
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, func, name):
        tracer = self

        def traced(*args, **kwargs):
            span_id = next(tracer._ids)
            parent = tracer._stack[-1] if tracer._stack else -1
            label = name(args, kwargs) if callable(name) else name
            tracer._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((span_id, parent, label, start, end))
            if label == "ingest.load":  # a PValueSet or an AbundanceMatrix
                rows = result.ids if hasattr(result, "ids") else result.features
                tracer.rows_in += len(rows)
            elif label.startswith("lfdr.estimate."):
                tracer.ranks_estimated += len(args[0].ids) // 2
            return result

        traced.__wrapped__ = func
        return traced

    def install(self) -> None:
        for owner_path, attr, name in TARGETS:
            owner = _resolve(owner_path)
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name))
            else:
                wrapped = self._wrap(raw, name)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["id", "parent", "name", "start", "end"])
            writer.writerows(self.spans)

    def counts(self) -> dict[str, int]:
        return {"rows_in": self.rows_in, "ranks_estimated": self.ranks_estimated}


def _percentile_ms(samples: list[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return 1000.0 * ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(span_path: str, counts: dict[str, int], iterations: int) -> dict[str, float]:
    """Per-layer self times and counts, averaged over traced iterations."""
    with open(span_path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        next(reader)
        spans = [(int(sid), int(parent), name, float(start), float(end))
                 for sid, parent, name, start, end in reader]
    child_time = defaultdict(float)
    for _, parent, _, start, end in spans:
        child_time[parent] += end - start
    self_s = defaultdict(float)
    calls = defaultdict(int)
    durations = defaultdict(list)
    for sid, _, name, start, end in spans:
        self_s[name] += end - start - child_time[sid]
        calls[name] += 1
        durations[name].append(end - start)

    def per_iter(value: float) -> float:
        return value / iterations

    m = {
        "cli.self_s": per_iter(self_s["cli"]),
        "ingest.load_s": per_iter(self_s["ingest.load"]),
        "ingest.rows_in": per_iter(counts["rows_in"]),
        "ingest.shift_log_s": per_iter(self_s["ingest.shift_log"]),
        "ingest.ttest_s": per_iter(self_s["ingest.ttest"]),
        "distributions.t_sf_s": per_iter(self_s["distributions.t_sf"]),
        "distributions.t_sf_calls": per_iter(calls["distributions.t_sf"]),
        "lfdr.rank_s": per_iter(self_s["lfdr.rank"]),
        "lfdr.rank_calls": per_iter(calls["lfdr.rank"]),
        "lfdr.estimate_calls": per_iter(sum(calls[f"lfdr.estimate.{k}"] for k in ESTIMATORS)),
        "lfdr.ranks_estimated": per_iter(counts["ranks_estimated"]),
        "lfdr.bh_s": per_iter(self_s["lfdr.bh"]),
        "confidence.inverse_s": per_iter(self_s["confidence.inverse"]),
        "confidence.inverse_calls": per_iter(calls["confidence.inverse"]),
        "nfdr.calls": per_iter(sum(calls[f"nfdr.{k}"] for k in ESTIMATORS)),
        "simulate.generate_s": per_iter(self_s["simulate.generate"]),
        "simulate.generate_calls": per_iter(calls["simulate.generate"]),
        "simulate.self_s": per_iter(self_s["simulate.grid"]),
        "simulate.coverage_s": per_iter(self_s["simulate.coverage"]),
        "trace.spans": per_iter(len(spans)),
    }
    for k in ESTIMATORS:
        m[f"lfdr.estimate_s.{k}"] = per_iter(self_s[f"lfdr.estimate.{k}"])
        m[f"lfdr.estimate_p50_ms.{k}"] = _percentile_ms(durations[f"lfdr.estimate.{k}"], 0.50)
        m[f"lfdr.estimate_p99_ms.{k}"] = _percentile_ms(durations[f"lfdr.estimate.{k}"], 0.99)
        m[f"nfdr.{k}_s"] = per_iter(self_s[f"nfdr.{k}"])
    # No public name wraps the vectorised solve, so its time is derived from
    # the whole-call durations of the corrected and plug-in estimates.
    m["confidence.solve_s.derived"] = per_iter(
        sum(durations["lfdr.estimate.corrected"]) - sum(durations["lfdr.estimate.mle"])
    )
    return m
