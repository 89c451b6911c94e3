"""Checks on the benchmark itself: its wrappers fire, its ledger adds up.

Run from the repository root (not collected by the repository's own test
suite, since the workloads take a while)::

    python3 -m pytest -q perfbench/selftest.py

The workloads run in-process for a few seconds each; reports are shared
between tests through a module-level cache.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import Any, Dict, Tuple

import pytest

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import report, tracer  # noqa: E402
from perfbench.calibration import REFERENCE_MS  # noqa: E402
from perfbench.run import run_workload  # noqa: E402

SECONDS = 2.0

#: Per-layer metrics that must be non-zero on the workload named: the layer
#: is on that workload's path, so a wrapper that records nothing (say, one
#: placed on a defining module instead of the caller's binding) shows here.
ASSIGNED = {
    "paper_chain": [
        "sql.parse.ms", "sql.parse.calls", "rlang.extract.ms",
        "rewrite.admit.ms", "rewrite.rewrite.ms", "fragment.fragment.ms",
        "engine.query.ms", "engine.query.calls",
        "wire.encode.ms", "wire.decode.ms", "wire.bytes",
        "network.ship.ms", "network.ship.calls",
        "anonymize.ms", "anonymize.kept_ratio", "layers.unaccounted_ms",
    ],
    "tree_sessions": [
        "sql.parse.ms", "sql.parse.calls", "sql.parse_cache.hit_ratio",
        "rewrite.admit.ms", "rewrite.rewrite.ms", "fragment.fragment.ms",
        "runtime.dag_build.ms", "runtime.union.ms", "runtime.tasks.count",
        "runtime.scheduler.wall_ms", "runtime.scheduler.busy_ms",
        "runtime.scheduler.overlap", "runtime.queue_wait_ms.p90",
        "session.queue_wait_ms.p90", "engine.query.ms", "engine.partial.ms",
        "engine.vectorized.share", "anonymize.ms", "anonymize.kept_ratio",
    ],
    "standing_ingest": [
        "engine.partial.ms", "engine.combine.ms", "engine.finalize.ms",
        "wire.state_encode.ms", "wire.state_decode.ms",
        "network.append.ms", "standing.append.ms",
        "standing.groups_refinalized", "standing.subscriber_refreshes",
        "runtime.scheduler.wall_ms", "loadgen.lag_ms.p90",
    ],
}

_REPORTS: Dict[Tuple[str, int, bool], Dict[str, Any]] = {}


def _report(workload: str, seed: int = 1, trace: bool = True) -> Dict[str, Any]:
    key = (workload, seed, trace)
    if key not in _REPORTS:
        _REPORTS[key] = run_workload(workload, seed, SECONDS, trace)
    return _REPORTS[key]


def _value(full: Dict[str, Any], section: str, name: str) -> float:
    return full[section][name]["value"]


def test_result_line_times_are_never_a_constant_zero():
    # The result line's per-layer times must move on every workload; a
    # layer some workload never enters reads 0 ms there on every run.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    times = [m["name"] for m in spec["per_layer"] if m["unit"] == "ms"]
    for workload in ASSIGNED:
        full = _report(workload)
        zero = [name for name in times if _value(full, "per_layer", name) == 0]
        assert not zero, f"{workload}: {zero} read 0 ms"


@pytest.mark.parametrize("workload", sorted(ASSIGNED))
def test_assigned_layers_are_recorded(workload):
    full = _report(workload)
    assert full["failed"] == 0
    assert set(full["per_layer"]) == set(report.PER_LAYER_UNITS)
    zero = [name for name in ASSIGNED[workload] if _value(full, "per_layer", name) == 0]
    assert not zero, f"{workload}: no spans or counts recorded for {zero}"
    assert math.isfinite(_value(full, "per_layer", "trace.overhead"))


@pytest.mark.parametrize("workload", sorted(ASSIGNED))
def test_host_adjusted_latency_scales_the_raw_one(workload):
    # Every workload times the calibration loop during its run, and the
    # adjusted latency is the raw one at the reference loop time.
    full = _report(workload, trace=False)
    assert full["samples"]["calibration_ms.mean"] >= 2
    for stat in ("mean", "p90"):
        raw = _value(full, "end_to_end", f"query_ms.{stat}")
        loop = _value(full, "end_to_end", f"calibration_ms.{stat}")
        adjusted = _value(full, "end_to_end", f"query_ms_ref.{stat}")
        assert adjusted == pytest.approx(raw * REFERENCE_MS / loop)
    assert _value(full, "end_to_end", "setup_s") > 0


def test_paper_chain_self_times_reconcile_with_op_wall():
    ledger = _report("paper_chain")["ledger"]
    assert ledger["traced_ops"] >= 2 and ledger["untraced_ops"] >= 2
    assert abs(ledger["reconciled"] - 1.0) <= 0.05, ledger


def test_paper_chain_never_enters_the_runtime():
    full = _report("paper_chain")
    for name in ("runtime.scheduler.wall_ms", "runtime.dag_build.ms", "standing.append.ms"):
        assert _value(full, "per_layer", name) == 0


def test_untraced_run_executes_unwrapped_code():
    traced = _report("paper_chain")
    assert traced["context"]["instrumented_sites"] == len(tracer.Instrumentation.sites())
    untraced = _report("paper_chain", trace=False)
    assert untraced["context"]["instrumented_sites"] == 0
    assert "per_layer" not in untraced
    # Removing the instrumentation restored every original binding.
    assert tracer.wrapped_sites() == 0
    import repro.processor.paradise as paradise
    import repro.sql.parser as parser

    assert paradise.parse is parser.parse


def test_counts_repeat_exactly_at_a_fixed_seed():
    first = _report("paper_chain")
    second = run_workload("paper_chain", 1, SECONDS, True)
    for name in ("rows_to_cloud", "bytes_to_cloud", "bytes_shipped"):
        assert _value(first, "end_to_end", name) == _value(second, "end_to_end", name)
    for name in ("sql.parse.calls", "engine.query.calls", "network.ship.calls", "wire.bytes"):
        assert _value(first, "per_layer", name) == _value(second, "per_layer", name)
    standing = [run_workload("standing_ingest", 1, SECONDS, False) for _ in range(2)]
    assert standing[0]["attempted"] == standing[1]["attempted"]
    assert _value(standing[0], "end_to_end", "state_bytes") == _value(
        standing[1], "end_to_end", "state_bytes"
    )


def test_a_second_seed_runs_clean():
    full = _report("paper_chain", seed=2, trace=False)
    assert full["failed"] == 0 and full["attempted"] >= 2
