"""In-memory span tracer for the prs layers, installed from outside the package.

The tracer replaces the module attributes that ``prs.evaluation`` and
``prs.pipeline`` look up at call time (plus ``TrainedModel.predict`` and
the package-level entry points the benchmark itself calls) with wrappers
that record one span per call: name, wall-clock start and end, the
thread's CPU time at both ends, parent span, thread and repetition id. No file of the package is edited; ``uninstall`` puts every
original back.

A repetition span opens at each ``stratified_split`` call and closes at
the end of the last span of that repetition. Counters that need the
arguments or the result of a call (fit diagnostics, clamped soil rows,
growth days) are kept as references on the span and read only when the
trace is summarised, so that the timed spans do not pay for them.
"""

from __future__ import annotations

import functools
import json
import math
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

# Spans that run inside one repetition of run_experiment. On the thread
# pool they have no enclosing span of their own thread, and on the
# serial path their enclosing span is run_experiment; in both cases
# their parent is the thread's current repetition.
_REP_MEMBERS = {
    "feature_prep.fit_prep",
    "pipeline.prs_features",
    "evaluation.assemble_variant",
    "feature_prep.column_bounds",
    "feature_prep.apply_bounds",
    "classifiers.fit",
    "classifiers.predict",
    "evaluation.confusion_counts",
}
_EXPERIMENT = "evaluation.run_experiment"
_NEEDS_INFO = {
    "pipeline.extract_base_matrix",
    "pipeline.prs_features",
    "classifiers.fit",
    "classifiers.predict",
    "soil.build_discrete_soil",
    "growth.grow",
}
_SPLIT = "evaluation.stratified_split"
REP = "evaluation.rep"
CALL = "bench.call"

# Layer of each span name, for the per-layer self-time shares.
LAYERS = (
    "dataset",
    "base_features",
    "spectral",
    "feature_prep",
    "pipeline",
    "soil",
    "growth",
    "classifiers",
    "evaluation",
)


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Records spans of every wrapped call; one tracer per traced run."""

    def __init__(self, prs):
        self.prs = prs
        # [name, start, end, parent, thread, rep, info, cpu_start, cpu_end];
        # wall times from perf_counter, busy times from the thread's CPU clock
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads: dict[int, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._experiment: int | None = None
        self._call: int | None = None
        self._reps = 0

    # -- recording ---------------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.rep = None
            with self._lock:
                local.thread = self._threads.setdefault(
                    threading.get_ident(), len(self._threads)
                )
        return local

    def _open(self, name: str) -> tuple[int, object]:
        local = self._state()
        top = local.stack[-1] if local.stack else None
        if top is not None and self.spans[top][0] != _EXPERIMENT:
            parent = top
        elif name in _REP_MEMBERS and local.rep is not None:
            parent = local.rep
        elif top is not None:
            parent = top
        else:
            parent = self._experiment if self._experiment is not None else self._call
        start = time.perf_counter()
        cpu = time.thread_time()
        with self._lock:
            if name == _SPLIT:
                # a new repetition starts with its split
                local.rep = len(self.spans)
                self.spans.append(
                    [REP, start, start, parent, local.thread, self._reps, None, cpu, cpu]
                )
                self._reps += 1
                parent = local.rep
            sid = len(self.spans)
            self.spans.append(
                [name, start, 0.0, parent, local.thread, local.rep, None, cpu, 0.0]
            )
        local.stack.append(sid)
        if name == _EXPERIMENT:
            self._experiment = sid
        return sid, local

    def _close(self, sid: int, local) -> None:
        span = self.spans[sid]
        span[8] = time.thread_time()
        span[2] = time.perf_counter()
        local.stack.pop()
        if sid == self._experiment:
            self._experiment = None
            local.rep = None

    def wrap(self, name, fn, info=None):
        """Wrap fn so that each call records a span.

        ``info(args, kwargs, result)`` returns the references kept on the
        span for the summary; it runs after the span has closed.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, local = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, local)
            if info is not None:
                self.spans[sid][6] = info(args, kwargs, result)
            return result

        return traced

    def call(self, fn):
        """Run fn() under the root span of one workload call."""
        sid, local = self._open(CALL)
        self._call = sid
        try:
            return fn()
        finally:
            self._close(sid, local)
            self._call = None

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, name, info=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, info))

    def install(self) -> None:
        prs = self.prs
        ev = prs.evaluation
        pl = prs.pipeline
        self._patch(prs, "load_dataset", "dataset.load_dataset")
        self._patch(prs, "run_experiment", _EXPERIMENT)
        self._patch(prs, "build_feature_table", "evaluation.build_feature_table")
        self._patch(prs, "correlation_matrix", "evaluation.correlation_matrix")
        self._patch(ev, "stratified_split", _SPLIT)
        self._patch(ev, "assemble_variant", "evaluation.assemble_variant")
        self._patch(ev, "confusion_counts", "evaluation.confusion_counts")
        self._patch(ev, "anova_oneway", "evaluation.anova_oneway")
        self._patch(ev, "extract_base_matrix", "pipeline.extract_base_matrix", _segments_of_arg)
        self._patch(ev, "extract_spectral_matrix", "pipeline.extract_spectral_matrix")
        self._patch(ev, "fit_prep", "feature_prep.fit_prep")
        self._patch(ev, "prs_features", "pipeline.prs_features", _rows_of_arg)
        self._patch(ev, "column_bounds", "feature_prep.column_bounds")
        self._patch(ev, "apply_bounds", "feature_prep.apply_bounds")
        self._patch(ev, "train", "classifiers.fit", _fit_info)
        self._patch(pl, "rank_features", "feature_prep.rank_features")
        self._patch(pl, "build_discrete_soil", "soil.build_discrete_soil", _soil_info)
        self._patch(pl, "convolve_soil", "soil.convolve_soil")
        self._patch(pl, "grow", "growth.grow", _days_of_result)
        self._patch(pl, "extract_prs", "growth.extract_prs")
        self._patch(pl, "compute_base_features", "base_features.compute_base_features")
        self._patch(pl, "compute_spectral", "spectral.compute_spectral")
        self._patch(
            prs.classifiers.TrainedModel, "predict", "classifiers.predict", _predict_info
        )

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        """Write every span as one JSON line: wall start/end, busy (CPU)
        seconds, parent, thread and repetition."""
        timings = span_timings(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, span in enumerate(self.spans):
                t = timings[sid]
                record = {
                    "id": sid,
                    "name": t.key,
                    "start": span[1],
                    "end": span[1] + t.wall,
                    "busy": t.busy,
                    "parent": span[3],
                    "thread": span[4],
                    "rep": span[5],
                }
                fh.write(json.dumps(record) + "\n")


# -- counters kept on spans ------------------------------------------------


def _segments_of_arg(args, kwargs, result):
    return {"segments": len(args[0].segments)}


def _rows_of_arg(args, kwargs, result):
    return {"rows": int(np.asarray(args[0]).shape[0])}


def _fit_info(args, kwargs, result):
    spec, x, y = args[:3]
    return {"kind": spec.kind, "spec": spec, "x": x, "y": y, "model": result}


def _predict_info(args, kwargs, result):
    return {"kind": args[0].spec.kind}


def _soil_info(args, kwargs, result):
    return {"row": args[0], "bounds": args[1]}


def _days_of_result(args, kwargs, result):
    return {"days": len(result.day_log)}


def _ridge_escalations(spec, x, y, used_eps) -> int:
    """Covariance matrices whose ridge had to grow beyond its first value."""
    x = np.asarray(x, dtype=np.float64)
    labels = np.array([str(v) for v in np.asarray(y).ravel()])
    classes = sorted(set(labels.tolist()))
    centered = [x[labels == c] - x[labels == c].mean(axis=0) for c in classes]
    m, f = x.shape
    if spec.kind == "LDA":
        traces = [sum(float(np.sum(c * c)) for c in centered) / max(m - 2, 1)]
        used_eps = used_eps[:1]  # one pooled matrix, reported twice
    else:
        traces = [float(np.sum(c * c)) / max(len(c) - 1, 1) for c in centered]
    count = 0
    for trace, used in zip(traces, used_eps):
        first = spec.ridge if spec.ridge is not None else 1e-6 * trace / f
        if used > max(first, 0.0) * (1.0 + 1e-9):
            count += 1
    return count


# -- summary ---------------------------------------------------------------


@dataclass
class SpanTiming:
    """Derived times of one span, in seconds.

    wall/busy are inclusive; self_wall is the span's duration minus the
    part of it that its child spans cover (on any thread), self_busy its
    CPU time minus that of its children on the same thread. A rep span
    ends with its last child, and so does its CPU clock.
    """

    key: str
    wall: float
    busy: float
    self_wall: float = 0.0
    self_busy: float = 0.0


def span_timings(spans) -> list[SpanTiming]:
    last = {}  # rep span -> (end, cpu_end) of its last child, same thread
    for span in spans:
        parent = span[3]
        if parent is not None and spans[parent][0] == REP:
            if span[2] > last.get(parent, (float("-inf"), 0.0))[0]:
                last[parent] = (span[2], span[8])
    out = []
    for sid, (name, start, end, _, _, _, info, cpu0, cpu1) in enumerate(spans):
        key = name
        if name in ("classifiers.fit", "classifiers.predict") and info is not None:
            key = f"classifiers.{info['kind']}.{name.rsplit('.', 1)[1]}"
        if name == REP:
            end, cpu1 = last.get(sid, (start, cpu0))
        out.append(SpanTiming(key, end - start, cpu1 - cpu0))
    intervals = defaultdict(list)
    child_busy = defaultdict(float)
    for sid, span in enumerate(spans):
        parent = span[3]
        if parent is None:
            continue
        intervals[parent].append((span[1], span[1] + out[sid].wall))
        if spans[parent][4] == span[4]:
            child_busy[parent] += out[sid].busy
    for sid, t in enumerate(out):
        start = spans[sid][1]
        t.self_wall = t.wall - _union_length(intervals.get(sid, ()), start, start + t.wall)
        t.self_busy = t.busy - child_busy.get(sid, 0.0)
    return out


def _union_length(intervals, lo: float, hi: float) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples above it."""
    if n <= 10:
        return 0
    return int(math.floor(100.0 * (n - 10) / n))


def summarise(spans, walls: list[float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as {name: (value, unit)}.

    Layer times are busy (CPU) seconds, so that on the thread pool a
    layer is not charged for time it spent waiting for the interpreter
    lock; ``trace.wait_s`` is that waiting. Times and counts are means
    per traced workload call; ``walls`` holds the wall time of each.
    """
    n_calls = max(len(walls), 1)
    timings = span_timings(spans)
    busy: dict[str, float] = defaultdict(float)
    cnt: dict[str, int] = defaultdict(int)
    layer_self: dict[str, float] = defaultdict(float)
    rep_times: list[float] = []
    lr_iters, lr_capped = [], 0
    svm_sweeps, svm_updates, svm_capped, kkt = [], [], 0, 0.0
    ridge = {"LDA": 0, "QDA": 0}
    clamped = soils = 0
    days = []
    rows = segments = 0
    self_wall = wait = 0.0
    for span, t in zip(spans, timings):
        name, info = span[0], span[6]
        self_wall += t.self_wall
        wait += t.self_wall - t.self_busy
        layer_self[_layer(name)] += t.self_busy
        if info is None and name in _NEEDS_INFO:
            continue  # the call raised; its failure is counted by the run
        busy[t.key] += t.busy
        cnt[t.key] += 1
        if name in (_EXPERIMENT, "evaluation.build_feature_table", REP):
            busy["evaluation.self"] += t.self_busy
        if name.startswith("pipeline."):
            busy["pipeline.self"] += t.self_busy
        if name == REP:
            rep_times.append(t.wall)
        elif name == "pipeline.prs_features":
            rows += info["rows"]
        elif name == "pipeline.extract_base_matrix":
            segments += info["segments"]
        elif name == "soil.build_discrete_soil":
            soils += 1
            row = np.asarray(info["row"], dtype=np.float64).ravel()
            bounds = np.asarray(info["bounds"], dtype=np.float64)
            clamped += bool(np.any(row < bounds[:, 0]) or np.any(row > bounds[:, 1]))
        elif name == "growth.grow":
            days.append(info["days"])
        elif name == "classifiers.fit":
            diag = info["model"].diagnostics
            spec = info["spec"]
            if spec.kind == "LR":
                lr_iters.append(diag["n_iter"])
                lr_capped += diag["n_iter"] >= spec.max_iter
            elif spec.kind == "SVM_POLY":
                svm_sweeps.append(diag["n_sweeps"])
                svm_updates.append(diag["n_updates"])
                svm_capped += diag["n_sweeps"] >= spec.max_sweeps
                kkt = max(kkt, diag["kkt_residual"])
            else:
                ridge[spec.kind] += _ridge_escalations(
                    spec, info["x"], info["y"], diag["ridge"]
                )

    def per_call(*keys) -> float:
        return sum(busy.get(k, 0.0) for k in keys) / n_calls

    def ratio(num, den) -> float:
        return num / den if den else 0.0

    out: dict[str, tuple[float, str]] = {}
    for kind in ("LR", "LDA", "QDA", "SVM_POLY"):
        out[f"classifiers.{kind}.fit_s"] = (per_call(f"classifiers.{kind}.fit"), "s")
        out[f"classifiers.{kind}.fits"] = (cnt.get(f"classifiers.{kind}.fit", 0) / n_calls, "count")
        out[f"classifiers.{kind}.predict_s"] = (per_call(f"classifiers.{kind}.predict"), "s")
    out["classifiers.LR.iters_mean"] = (_mean(lr_iters), "count")
    out["classifiers.LR.capped_ratio"] = (ratio(lr_capped, len(lr_iters)), "ratio")
    out["classifiers.SVM_POLY.sweeps_mean"] = (_mean(svm_sweeps), "count")
    out["classifiers.SVM_POLY.updates_mean"] = (_mean(svm_updates), "count")
    out["classifiers.SVM_POLY.capped_ratio"] = (ratio(svm_capped, len(svm_sweeps)), "ratio")
    out["classifiers.SVM_POLY.kkt_max"] = (kkt, "margin")
    out["classifiers.LDA.ridge_escalations"] = (ridge["LDA"] / n_calls, "count")
    out["classifiers.QDA.ridge_escalations"] = (ridge["QDA"] / n_calls, "count")

    out["pipeline.prs_features_s"] = (per_call("pipeline.prs_features"), "s")
    out["pipeline.prs_rows"] = (rows / n_calls, "count")
    out["pipeline.us_per_row"] = (1e6 * ratio(busy.get("pipeline.prs_features", 0.0), rows), "us")
    out["pipeline.self_s"] = (per_call("pipeline.self"), "s")
    out["soil.build_s"] = (per_call("soil.build_discrete_soil"), "s")
    out["soil.convolve_s"] = (per_call("soil.convolve_soil"), "s")
    out["soil.clamped_ratio"] = (ratio(clamped, soils), "ratio")
    out["growth.grow_s"] = (per_call("growth.grow"), "s")
    out["growth.hull_s"] = (per_call("growth.extract_prs"), "s")
    out["growth.days_mean"] = (_mean(days), "count")

    out["feature_prep.fit_prep_s"] = (per_call("feature_prep.fit_prep"), "s")
    out["feature_prep.fit_prep_calls"] = (cnt.get("feature_prep.fit_prep", 0) / n_calls, "count")
    out["feature_prep.rank_s"] = (per_call("feature_prep.rank_features"), "s")
    out["feature_prep.scale_s"] = (per_call("feature_prep.column_bounds", "feature_prep.apply_bounds"), "s")

    out["dataset.load_s"] = (per_call("dataset.load_dataset"), "s")
    out["dataset.segments"] = (segments / n_calls, "count")
    for layer, key in (
        ("base_features", "base_features.compute_base_features"),
        ("spectral", "spectral.compute_spectral"),
    ):
        out[f"{layer}.busy_s"] = (per_call(key), "s")
        out[f"{layer}.us_per_segment"] = (1e6 * ratio(busy.get(key, 0.0), cnt.get(key, 0)), "us")

    out["evaluation.split_s"] = (per_call(_SPLIT), "s")
    out["evaluation.assemble_s"] = (per_call("evaluation.assemble_variant"), "s")
    out["evaluation.confusion_s"] = (per_call("evaluation.confusion_counts"), "s")
    out["evaluation.anova_s"] = (per_call("evaluation.anova_oneway"), "s")
    out["evaluation.correlation_s"] = (per_call("evaluation.correlation_matrix"), "s")
    out["evaluation.self_s"] = (per_call("evaluation.self"), "s")
    pct = tail_percentile(len(rep_times))
    out["evaluation.reps"] = (len(rep_times), "count")
    out["evaluation.rep_s_p50"] = (_quantile(rep_times, 0.5), "s")
    out["evaluation.rep_s_tail"] = (_quantile(rep_times, pct / 100.0), "s")
    out["evaluation.rep_s_tail_pct"] = (pct, "pct")

    total_self = sum(layer_self.values())
    for layer in LAYERS:
        out[f"{layer}.self_share"] = (ratio(layer_self.get(layer, 0.0), total_self), "ratio")
    out["trace.spans"] = (len(spans) / n_calls, "count")
    out["trace.wait_s"] = (wait / n_calls, "s")
    out["trace.self_sum_ratio"] = (ratio(self_wall, sum(walls)), "ratio")
    return out


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _quantile(values, q: float) -> float:
    return float(np.quantile(values, q)) if len(values) else 0.0
