"""Witness tests: an engine setting reaches every route that runs engine work.

``ParadiseProcessor(vectorized=False)`` and ``ParadiseProcessor(optimizer=False)``
build an :class:`~repro.engine.config.EngineConfig` that must hold on every
engine call the processor causes — on the caller's thread
(``execution="serial"``), on scheduler worker threads (``"parallel"``), in
worker processes (``workers="processes"``) and in standing refreshes
(:meth:`StandingQueryRuntime.append`).  The witnesses are the process-wide
counters of the paths the ablation turns off:

* ``vectorized=False`` — the ``engine.vectorized.{flat,grouped,partial}``
  probes must stay 0;
* ``optimizer=False`` — every ``optimizer_stats`` counter must stay 0.

The GROUP BY also runs under the default config on every route, where the
same counters must fire, so a zero is a real witness and not a route that
never scans.  Every result must be byte-identical (wire encoding) to the
serial interpreted oracle.

Counters bumped in spawned workers are invisible to this process, so the
process route runs the real :class:`~repro.runtime.procs.ProcessDispatcher`
over an inline pool: every engine operation is framed with ``encode_job``
and run by ``execute_job`` in this process, which checks that the worker
side honours the job's config byte.
"""

from __future__ import annotations

from concurrent.futures import Future

import pytest

from tests.conftest import PAPER_SQL, make_sensor_relation
from tests.test_runtime import build_tree_processor

import repro.runtime.procs as procs
from repro.engine.config import EngineConfig
from repro.engine.stats import optimizer_stats
from repro.engine.vectorized import stats
from repro.engine.wire import pack_relation, pack_state_relation
from repro.runtime import StandingQueryRuntime

pytestmark = pytest.mark.concurrency

ROWS = 3000

#: A decomposable GROUP BY with two reorderable conjuncts, so both
#: witnesses fire under the default config on every route.
GROUP_BY_SQL = (
    "SELECT x, y, COUNT(*) AS n, MAX(z) AS hi FROM d "
    "WHERE z < 1.9 AND x <> 3.5 GROUP BY x, y"
)

WORKLOADS = {
    "group_by": (GROUP_BY_SQL, {"apply_rewriting": False, "anonymize": False}),
    "figure2": (PAPER_SQL, {}),
}

#: Ablation name -> processor keywords that turn it on.
ABLATIONS = {"vectorized": {"vectorized": False}, "optimizer": {"optimizer": False}}

ROUTES = ("serial", "threads", "processes")


def _witness(ablation: str) -> int:
    if ablation == "vectorized":
        return stats.flat + stats.grouped + stats.partial
    return sum(optimizer_stats.snapshot().values())


def _reset_witnesses() -> None:
    stats.reset()
    optimizer_stats.reset()


class _InlinePool:
    """Stands in for the spawned pool: runs each job in this process."""

    def submit(self, fn, payload):
        future: Future = Future()
        future.set_result(fn(payload))
        return future


@pytest.fixture
def inline_pool(monkeypatch):
    monkeypatch.setattr(procs, "_shared_pool", lambda workers: _InlinePool())


def _processor(route: str, **engine):
    if route == "processes":
        engine.update(workers="processes", process_workers=1)
    return build_tree_processor(
        rows=ROWS, n_sensors=4, sensors_per_appliance=2, **engine
    )


def _run(route: str, workload: str, **engine):
    sql, options = WORKLOADS[workload]
    execution = "serial" if route == "serial" else "parallel"
    return _processor(route, **engine).process(
        sql, "ActionFilter", execution=execution, **options
    )


def _oracle(workload: str):
    return _run("serial", workload, engine_mode="interpreted")


def _assert_byte_identical(result, oracle) -> None:
    assert result.result.schema.names == oracle.result.schema.names
    assert pack_relation(result.result) == pack_relation(oracle.result)


def test_processor_keywords_build_one_frozen_config():
    config = EngineConfig()
    assert (config.mode, config.vectorized, config.optimizer) == (
        "compiled",
        True,
        True,
    )
    with pytest.raises(AttributeError):
        config.optimizer = False  # type: ignore[misc]
    processor = _processor("serial", engine_mode="interpreted", vectorized=False)
    assert processor.config == EngineConfig("interpreted", False, True)


@pytest.mark.usefixtures("inline_pool")
@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("ablation", sorted(ABLATIONS))
def test_ablation_reaches_every_route(ablation, workload, route):
    oracle = _oracle(workload)
    _reset_witnesses()
    result = _run(route, workload, **ABLATIONS[ablation])
    assert _witness(ablation) == 0, (ablation, workload, route)
    _assert_byte_identical(result, oracle)


@pytest.mark.usefixtures("inline_pool")
@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("ablation", sorted(ABLATIONS))
def test_default_config_fires_the_witnesses(ablation, route):
    """The zeros above are meaningful: the same route counts by default."""
    oracle = _oracle("group_by")
    _reset_witnesses()
    result = _run(route, "group_by")
    assert _witness(ablation) > 0, (ablation, route)
    _assert_byte_identical(result, oracle)


def _standing(**engine):
    runtime = StandingQueryRuntime(_processor("serial", **engine))
    return runtime, runtime.register(GROUP_BY_SQL)


@pytest.mark.parametrize("ablation", [None, *sorted(ABLATIONS)])
def test_standing_refresh_honours_config(ablation):
    runtime, handle = _standing(**ABLATIONS.get(ablation, {}))
    oracle_runtime, oracle_handle = _standing(engine_mode="interpreted")
    delta = make_sensor_relation(200, seed=5)
    _reset_witnesses()
    runtime.append("sensor_1", delta)
    if ablation is None:
        assert _witness("vectorized") > 0 and _witness("optimizer") > 0
    else:
        assert _witness(ablation) == 0, ablation
    oracle_runtime.append("sensor_1", delta)
    expected = oracle_runtime.reexecute(oracle_handle)
    assert handle.result().schema.names == expected.schema.names
    assert pack_state_relation(handle.result()) == pack_state_relation(expected)
