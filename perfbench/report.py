"""Turn timed ops, spans and registry readings into the benchmark's metrics.

End-to-end metrics come from an untraced run; per-layer metrics from the
spans of a traced run (see ``tracer.py``).  Per-op figures weight each op
kind's mean by the workload's mix, so they do not depend on how many ops
of each kind happened to fit into the run.

Self time of a span is its duration minus the part of that interval its
child spans cover (children on other threads included, overlaps counted
once).  ``layers.unaccounted_ms`` is the self time of the op root: time
inside the op that no traced layer covers.

``query_ms_ref.mean``/``.p90`` are the host-adjusted latencies (see
``calibration.py``): the raw mean or 90th percentile scaled by
``REFERENCE_MS`` over the calibration loop's mean or 90th percentile in the
same run.

The reports hold every metric; which of them go into the result line, with
what unit and bound, is ``BENCHMARK.json``'s to say.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from benchmarks.common import percentile

from perfbench.calibration import REFERENCE_MS
from perfbench.tracer import Span
from perfbench.workloads import Op

#: Span name -> self-time metric (ms per op).
SELF_TIME_METRICS = {
    "sql.parse": "sql.parse.ms",
    "rlang.extract": "rlang.extract.ms",
    "rewrite.admit": "rewrite.admit.ms",
    "rewrite.rewrite": "rewrite.rewrite.ms",
    "fragment.fragment": "fragment.fragment.ms",
    "runtime.dag_build": "runtime.dag_build.ms",
    "runtime.union": "runtime.union.ms",
    "runtime.scheduler": "runtime.scheduler.ms",
    "runtime.task": "runtime.task.ms",
    "session.queue_wait": "session.queue_wait.ms",
    "engine.query": "engine.query.ms",
    "engine.partial": "engine.partial.ms",
    "engine.combine": "engine.combine.ms",
    "engine.finalize": "engine.finalize.ms",
    "wire.encode": "wire.encode.ms",
    "wire.decode": "wire.decode.ms",
    "wire.state_encode": "wire.state_encode.ms",
    "wire.state_decode": "wire.state_decode.ms",
    "network.ship": "network.ship.ms",
    "network.append": "network.append.ms",
    "anonymize": "anonymize.ms",
    "standing.append": "standing.append.ms",
}

#: Span name -> call-count metric (calls per op).
CALL_METRICS = {
    "sql.parse": "sql.parse.calls",
    "engine.query": "engine.query.calls",
    "network.ship": "network.ship.calls",
}

#: Every per-layer metric a traced run prints, with its unit.
PER_LAYER_UNITS: Dict[str, str] = {
    **{name: "ms" for name in SELF_TIME_METRICS.values()},
    **{name: "count" for name in CALL_METRICS.values()},
    "sql.parse_cache.hit_ratio": "ratio",
    "runtime.tasks.count": "count",
    "runtime.scheduler.wall_ms": "ms",
    "runtime.scheduler.busy_ms": "ms",
    "runtime.scheduler.overlap": "ratio",
    "runtime.queue_wait_ms.p90": "ms",
    "session.queue_wait_ms.p90": "ms",
    "engine.vectorized.share": "ratio",
    "engine.vectorized.bails": "count",
    "wire.bytes": "B",
    "anonymize.kept_ratio": "ratio",
    "standing.groups_refinalized": "count",
    "standing.subscriber_refreshes": "count",
    "loadgen.lag_ms.p90": "ms",
    "trace.overhead": "ratio",
    "layers.unaccounted_ms": "ms",
}

#: Registry readings taken around the measured window.
REGISTRY_KEYS = (
    "sql.parse_cache.hits",
    "sql.parse_cache.misses",
    "engine.vectorized.flat",
    "engine.vectorized.grouped",
    "engine.vectorized.partial",
    "engine.executor.selects",
    "engine.executor.partial_aggregations",
    "standing.groups_refinalized",
    "standing.subscriber_refreshes",
)


def registry_reading() -> Dict[str, float]:
    """The registry values the per-layer metrics difference."""
    from repro.obs.metrics import registry

    snapshot = registry.snapshot()
    reading = {key: float(snapshot.get(key, 0) or 0) for key in REGISTRY_KEYS}
    reading["engine.vectorized.bails"] = float(
        sum(
            value
            for key, value in snapshot.items()
            if key.startswith("engine.vectorized.bails.")
        )
    )
    return reading


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _p(samples: Sequence[float], q: float) -> float:
    return percentile(list(samples), q) if samples else 0.0


def weighted(per_kind: Dict[str, List[float]], mix: Dict[str, float]) -> float:
    """Mix-weighted mean of per-kind means (kinds without samples dropped)."""
    present = {kind: weight for kind, weight in mix.items() if per_kind.get(kind)}
    total = sum(present.values())
    if not total:
        return 0.0
    return sum(
        weight * statistics.fmean(per_kind[kind]) for kind, weight in present.items()
    ) / total


def _by_kind(ops: Iterable[Op], value) -> Dict[str, List[float]]:
    out: Dict[str, List[float]] = defaultdict(list)
    for op in ops:
        out[op.kind].append(value(op))
    return out


def end_to_end(
    ops: List[Op],
    mix: Dict[str, float],
    setup_samples: List[float],
    setup_calibration: List[float],
    peak_rss_mb: float,
    extra: Dict[str, Tuple[float, str]],
    calibration: List[float],
    closed_loop: bool,
) -> Tuple[Dict[str, Tuple[float, str]], Dict[str, int]]:
    """End-to-end metrics (value, unit) and the sample count behind each.

    ``calibration`` holds the run's calibration-loop times in seconds.  A
    closed loop paused for them, so they are not part of its window.
    ``setup_calibration`` holds one loop time per set-up, taken right
    before it: ``setup_s`` is the median of the set-up times each scaled by
    ``REFERENCE_MS`` over its own loop time, since a set-up is too short
    for a run-wide statistic of the loop to match the host's speed.
    """
    queries = [op for op in ops if op.is_query]
    refreshes = [op for op in ops if not op.is_query]
    query_ms = [_ms(op.latency) for op in queries]
    calibration_ms = [_ms(seconds) for seconds in calibration]
    window = max(op.end for op in ops) - min(op.due for op in ops)
    if closed_loop:
        window -= sum(calibration)
    query_mix = {kind: weight for kind, weight in mix.items() if kind != "refresh"}
    good = [op for op in queries if op.ok]
    metrics: Dict[str, Tuple[float, str]] = {
        "setup_s": (
            statistics.median(
                seconds * REFERENCE_MS / _ms(loop)
                for seconds, loop in zip(setup_samples, setup_calibration)
            ),
            "s",
        ),
        "setup_raw_s": (statistics.median(setup_samples), "s"),
        "query_ms.p50": (_p(query_ms, 0.5), "ms"),
        "query_ms.p90": (_p(query_ms, 0.9), "ms"),
        "query_ms.mean": (statistics.fmean(query_ms), "ms"),
        "calibration_ms.mean": (statistics.fmean(calibration_ms), "ms"),
        "calibration_ms.p90": (_p(calibration_ms, 0.9), "ms"),
        "query_ms_ref.mean": (
            statistics.fmean(query_ms) * REFERENCE_MS / statistics.fmean(calibration_ms),
            "ms",
        ),
        "query_ms_ref.p90": (
            _p(query_ms, 0.9) * REFERENCE_MS / _p(calibration_ms, 0.9), "ms"
        ),
        "queries_per_s": (len(queries) / window, "1/s"),
        "rows_to_cloud": (weighted(_by_kind(good, lambda o: o.rows_to_cloud), query_mix), "rows/query"),
        "bytes_to_cloud": (weighted(_by_kind(good, lambda o: o.bytes_to_cloud), query_mix), "B/query"),
        "bytes_shipped": (weighted(_by_kind(good, lambda o: o.bytes_shipped), query_mix), "B/query"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "error_rate": (sum(not op.ok for op in ops) / len(ops), "fraction"),
    }
    samples = {
        "setup_s": len(setup_samples),
        "setup_raw_s": len(setup_samples),
        "query_ms.p50": len(query_ms),
        "query_ms.p90": len(query_ms),
        "query_ms.mean": len(query_ms),
        "calibration_ms.mean": len(calibration_ms),
        "calibration_ms.p90": len(calibration_ms),
        "query_ms_ref.mean": len(query_ms),
        "query_ms_ref.p90": len(query_ms),
        "queries_per_s": len(queries),
    }
    if refreshes:
        refresh_ms = [_ms(op.latency) for op in refreshes]
        metrics["refresh_ms.p50"] = (_p(refresh_ms, 0.5), "ms")
        metrics["refresh_ms.p90"] = (_p(refresh_ms, 0.9), "ms")
        samples["refresh_ms.p50"] = samples["refresh_ms.p90"] = len(refresh_ms)
    metrics.update(extra)
    return metrics, samples


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> self time in seconds."""
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out: Dict[int, float] = {}
    for span in spans:
        intervals = sorted(
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(span.span_id, ())
        )
        covered = 0.0
        reach = span.start
        for start, end in intervals:
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out[span.span_id] = span.duration - covered
    return out


def per_layer(
    ops: List[Op],
    spans: List[Span],
    mix: Dict[str, float],
    before: Dict[str, float],
    after: Dict[str, float],
) -> Tuple[Dict[str, Tuple[float, str]], Dict[str, Any]]:
    """Per-layer metrics (value, unit) plus the reconciliation ledger."""
    roots = {span.op: span for span in spans if span.parent is None}
    kind_of = {op_id: root.name[len("op."):] for op_id, root in roots.items()}
    self_of = self_times(spans)

    # Per traced op: summed self time / calls / attributes per layer.
    per_op: Dict[int, Dict[str, float]] = {op_id: defaultdict(float) for op_id in roots}
    task_waits: List[float] = []
    session_waits: List[float] = []
    rows_in = rows_out = 0
    for span in spans:
        values = per_op.get(span.op)
        if values is None:
            continue
        if span.parent is None:
            values["layers.unaccounted_ms"] += _ms(self_of[span.span_id])
            continue
        metric = SELF_TIME_METRICS[span.name]
        values[metric] += _ms(self_of[span.span_id])
        if span.name in CALL_METRICS:
            values[CALL_METRICS[span.name]] += 1
        attrs = span.attrs
        if span.name in ("wire.encode", "wire.state_encode"):
            values["wire.bytes"] += attrs["bytes"]
        elif span.name == "runtime.scheduler":
            values["runtime.tasks.count"] += attrs["tasks"]
            values["runtime.scheduler.wall_ms"] += _ms(span.duration)
            values["runtime.scheduler.busy_ms"] += _ms(attrs["busy"])
            task_waits.extend(attrs["waits"])
        elif span.name == "session.queue_wait":
            session_waits.append(span.duration)
        elif span.name == "anonymize":
            rows_in += attrs["rows_in"]
            rows_out += attrs["rows_out"]

    summed_keys = (
        list(SELF_TIME_METRICS.values())
        + list(CALL_METRICS.values())
        + [
            "wire.bytes",
            "runtime.tasks.count",
            "runtime.scheduler.wall_ms",
            "runtime.scheduler.busy_ms",
            "layers.unaccounted_ms",
        ]
    )
    means: Dict[str, float] = {}
    for key in summed_keys:
        per_kind: Dict[str, List[float]] = defaultdict(list)
        for op_id, values in per_op.items():
            per_kind[kind_of[op_id]].append(values.get(key, 0.0))
        means[key] = weighted(per_kind, mix)

    timed = len(ops)
    refreshes = sum(not op.is_query for op in ops)
    delta = {key: after[key] - before[key] for key in after}
    vectorized = (
        delta["engine.vectorized.flat"]
        + delta["engine.vectorized.grouped"]
        + delta["engine.vectorized.partial"]
    )
    executions = delta["engine.executor.selects"] + delta["engine.executor.partial_aggregations"]
    traced_wall = weighted(_by_kind((op for op in ops if op.traced), lambda o: o.wall), mix)
    plain_wall = weighted(_by_kind((op for op in ops if not op.traced), lambda o: o.wall), mix)
    lags = [_ms(op.start - op.due) for op in ops if op.due != op.start]

    values: Dict[str, float] = dict(means)
    values.update(
        {
            "sql.parse_cache.hit_ratio": _ratio(
                delta["sql.parse_cache.hits"],
                delta["sql.parse_cache.hits"] + delta["sql.parse_cache.misses"],
            ),
            "runtime.scheduler.overlap": _ratio(
                means["runtime.scheduler.busy_ms"], means["runtime.scheduler.wall_ms"]
            ),
            "runtime.queue_wait_ms.p90": _ms(_p(task_waits, 0.9)),
            "session.queue_wait_ms.p90": _ms(_p(session_waits, 0.9)),
            "engine.vectorized.share": _ratio(vectorized, executions),
            "engine.vectorized.bails": _ratio(delta["engine.vectorized.bails"], timed),
            "anonymize.kept_ratio": _ratio(rows_out, rows_in),
            "standing.groups_refinalized": _ratio(delta["standing.groups_refinalized"], refreshes),
            "standing.subscriber_refreshes": _ratio(
                delta["standing.subscriber_refreshes"], refreshes
            ),
            "loadgen.lag_ms.p90": _p(lags, 0.9),
            "trace.overhead": _ratio(traced_wall, plain_wall) - 1.0 if plain_wall else 0.0,
        }
    )
    metrics = {name: (values[name], PER_LAYER_UNITS[name]) for name in PER_LAYER_UNITS}

    op_wall_ms = _ms(traced_wall)
    layer_sum = sum(means[name] for name in SELF_TIME_METRICS.values())
    ledger = {
        "traced_ops": len(roots),
        "untraced_ops": sum(not op.traced for op in ops),
        "spans": len(spans),
        "op_wall_ms": op_wall_ms,
        "layer_self_ms": layer_sum,
        "unaccounted_ms": means["layers.unaccounted_ms"],
        "reconciled": _ratio(layer_sum + means["layers.unaccounted_ms"], op_wall_ms),
        "task_wait_samples": len(task_waits),
        "session_wait_samples": len(session_waits),
        "lag_samples": len(lags),
    }
    return metrics, ledger
