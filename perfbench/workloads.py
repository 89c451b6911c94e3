"""The benchmark's three workloads.

Each workload builds its system from a seed, computes the expected result
of every timed op before timing starts (the oracle), warms the caches, and
then drives the program's public entry points with the cost model off
(``cost_model=None``):

* ``paper_chain`` — closed loop, one client, ``ParadiseProcessor.process``
  (Figure 2 SQL) alternating with ``process_r`` (Section 4.2 R use case)
  on the default chain, serial execution, 30k rows.
* ``tree_sessions`` — closed loop, two clients through
  ``SessionFrontEnd.submit`` on an 8-sensor tree, parallel execution, 3k
  rows; three decomposable GROUP BY shapes plus the Figure 2 SQL.
* ``standing_ingest`` — open loop, one generator thread, 16-sensor tree,
  10k base rows, 64 standing queries; 64-row deltas through
  ``StandingQueryRuntime.append`` and one-shot parallel GROUP BY reads of
  the growing table, each at a fixed rate.

A workload's ``run`` returns one :class:`Op` per timed op and times the
host-speed calibration loop (``calibration.py``) between ops: before each
op in ``paper_chain``, in pauses of ``tree_sessions`` with no query in
flight, and in the open loop's idle time.  With a tracer,
every second op of each kind (every second cycle in the open loop) runs
inside a traced op span and the others run untraced, so one traced run
yields both the per-layer spans and the tracing overhead.
"""

from __future__ import annotations

import math
import queue
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from benchmarks.bench_standing import standing_queries
from benchmarks.common import PAPER_R_CODE, PAPER_SQL, synthetic_sensor_relation
from repro.engine.wire import pack_relation, pack_state_relation
from repro.fragment.topology import Topology
from repro.obs.metrics import registry
from repro.policy.presets import figure4_policy
from repro.processor.paradise import ParadiseProcessor
from repro.runtime.session import SessionFrontEnd
from repro.runtime.standing import StandingQueryRuntime
from repro.sensors.scenario import INTEGRATED_SCHEMA

from perfbench.calibration import Calibration
from perfbench.tracer import Tracer

_now = time.perf_counter

MODULE = "ActionFilter"

#: Decomposable GROUP BY shapes over the policy-allowed keys ``x``/``y``.
GROUP_BY_SQL = {
    "groupby_x": "SELECT x, COUNT(*) AS n, AVG(z) AS az FROM d GROUP BY x",
    "groupby_y": "SELECT y, SUM(z) AS sz, MIN(z) AS lo FROM d GROUP BY y",
    "groupby_xy": "SELECT x, y, COUNT(*) AS n, MAX(z) AS hi FROM d GROUP BY x, y",
}


@dataclass
class Op:
    """One timed op: when it was due, when it ran, and what it returned."""

    kind: str
    due: float
    start: float
    end: float
    traced: bool
    ok: bool
    is_query: bool = True
    rows_to_cloud: int = 0
    bytes_to_cloud: int = 0
    bytes_shipped: int = 0

    @property
    def latency(self) -> float:
        """Seconds from due (closed loop: from submit) to completion."""
        return self.end - self.due

    @property
    def wall(self) -> float:
        """Seconds the op itself ran (excludes any wait before it started)."""
        return self.end - self.start


def _processor(topology: Topology, **kwargs: Any) -> ParadiseProcessor:
    return ParadiseProcessor(
        figure4_policy(),
        topology=topology,
        schema=INTEGRATED_SCHEMA,
        cost_model=None,
        **kwargs,
    )


def _query_op(kind: str, due: float, start: float, end: float, traced: bool,
              result: Any, expected: bytes) -> Op:
    if result is None:
        return Op(kind, due, start, end, traced, ok=False)
    return Op(
        kind=kind,
        due=due,
        start=start,
        end=end,
        traced=traced,
        ok=pack_relation(result.result) == expected,
        rows_to_cloud=result.rows_leaving_apartment,
        bytes_to_cloud=result.bytes_leaving_apartment,
        bytes_shipped=result.transfers.total_bytes,
    )


def _timed(tracer: Optional[Tracer], kind: str, traced: bool, call: Callable[[], Any]):
    """Run one op, inside a traced op span when ``traced``.

    Returns ``(start, end, result)``; ``result`` is None when the op raised
    (the traceback goes to stderr and the op counts as failed).
    """
    start = _now()
    try:
        with tracer.op(kind) if traced else nullcontext():
            result = call()
    except Exception:
        traceback.print_exc()
        result = None
    return start, _now(), result


class _Alternator:
    """Every second op of each kind is traced (none without a tracer)."""

    def __init__(self, tracer: Optional[Tracer]) -> None:
        self.tracer = tracer
        self._counts: Dict[str, int] = {}

    def next(self, kind: str) -> bool:
        count = self._counts.get(kind, 0)
        self._counts[kind] = count + 1
        return self.tracer is not None and count % 2 == 1

    def covered(self, kinds) -> bool:
        """Every kind ran traced and untraced at least once."""
        return self.tracer is None or all(self._counts.get(k, 0) >= 2 for k in kinds)


class Workload:
    """Shared shape: ``build`` (timed as set-up), ``prepare``, ``run``."""

    name = ""
    why = ""
    loop = ""
    #: Op kind -> share of the workload's ops; per-op metrics weight each
    #: kind's mean by it, so they do not depend on how many ops fit a run.
    mix: Dict[str, float] = {}

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.calibration = Calibration()

    def build(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Compute the oracle and run the warm-up ops (untimed)."""
        raise NotImplementedError

    def run(self, seconds: float, tracer: Optional[Tracer]) -> List[Op]:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def extra_metrics(self) -> Dict[str, Tuple[float, str]]:
        return {}

    def describe(self) -> Dict[str, Any]:
        return {"loop": self.loop, "why": self.why, "mix": self.mix}


class PaperChain(Workload):
    name = "paper_chain"
    why = (
        "the paper's own Figure 2 pipeline on the default chain; exercises "
        "the window kernel, ship and the wire codec, never the scheduler, "
        "DAG or standing code"
    )
    loop = "closed"
    rows = 30_000
    mix = {"fig2_sql": 0.5, "r_use_case": 0.5}

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        self.relation = synthetic_sensor_relation(self.rows, seed=seed)

    def build(self) -> None:
        processor = _processor(Topology.default_chain(), execution="serial")
        processor.load_data(self.relation)
        self.processor = processor

    def _call(self, processor: ParadiseProcessor, kind: str) -> Any:
        if kind == "fig2_sql":
            return processor.process(PAPER_SQL, MODULE)
        return processor.process_r(PAPER_R_CODE, MODULE)

    def prepare(self) -> None:
        oracle = _processor(Topology.default_chain(), engine_mode="interpreted")
        oracle.load_data(self.relation)
        self.expected = {
            kind: pack_relation(self._call(oracle, kind).result) for kind in self.mix
        }
        for kind in self.mix:
            if pack_relation(self._call(self.processor, kind).result) != self.expected[kind]:
                raise RuntimeError(f"{self.name}: warm-up {kind} differs from the oracle")

    def _one(self, kind: str, traced: bool, tracer: Optional[Tracer]) -> Op:
        start, end, result = _timed(
            tracer, kind, traced, lambda: self._call(self.processor, kind)
        )
        return _query_op(kind, start, start, end, traced, result, self.expected[kind])

    def run(self, seconds: float, tracer: Optional[Tracer]) -> List[Op]:
        # Whole cycles only, so every kind has the same op count and the
        # per-op counts repeat exactly at a fixed seed.
        alternator = _Alternator(tracer)
        ops: List[Op] = []
        deadline = _now() + seconds
        while True:
            for kind in self.mix:
                self.calibration.sample()
                ops.append(self._one(kind, alternator.next(kind), tracer))
            if _now() >= deadline and alternator.covered(self.mix):
                return ops

    def describe(self) -> Dict[str, Any]:
        return {
            **super().describe(),
            "clients": 1,
            "topology": "Topology.default_chain()",
            "execution": "serial",
            "rows": self.rows,
        }


class TreeSessions(Workload):
    name = "tree_sessions"
    why = (
        "many small parallel queries through the session front end; fixed "
        "per-query costs dominate: planning, DAG build, dispatch, slot "
        "contention, partial aggregation"
    )
    loop = "closed"
    rows = 3_000
    clients = 2
    kinds = ("groupby_x", "groupby_y", "groupby_xy", "fig2_sql")
    mix = dict.fromkeys(kinds, 1 / len(kinds))
    #: Every ``segment_s`` the clients stop submitting, the queries in
    #: flight finish, and the calibration loop runs ``samples_per_pause``
    #: times alone: run beside the session and scheduler threads, it would
    #: measure their contention for the interpreter lock.
    segment_s = 1.0
    samples_per_pause = 3

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        self.relation = synthetic_sensor_relation(self.rows, seed=seed)
        self.frontend: Optional[SessionFrontEnd] = None

    @staticmethod
    def _topology() -> Topology:
        return Topology.smart_home_tree(n_sensors=8, sensors_per_appliance=4)

    @staticmethod
    def _sql(kind: str) -> str:
        return PAPER_SQL if kind == "fig2_sql" else GROUP_BY_SQL[kind]

    def build(self) -> None:
        self.close()
        processor = _processor(self._topology(), execution="parallel")
        processor.load_data(self.relation)
        self.processor = processor
        self.frontend = SessionFrontEnd(processor, max_concurrent=self.clients)

    def close(self) -> None:
        if self.frontend is not None:
            self.frontend.close()
            self.frontend = None

    def prepare(self) -> None:
        oracle = _processor(self._topology(), engine_mode="interpreted", execution="serial")
        oracle.load_data(self.relation)
        self.expected = {
            kind: pack_relation(oracle.process(self._sql(kind), MODULE).result)
            for kind in self.kinds
        }
        for _ in range(2):
            for kind in self.kinds:
                result = self.frontend.submit(self._sql(kind), MODULE).result()
                if pack_relation(result.result) != self.expected[kind]:
                    raise RuntimeError(f"{self.name}: warm-up {kind} differs from the oracle")

    def run(self, seconds: float, tracer: Optional[Tracer]) -> List[Op]:
        alternator = _Alternator(tracer)
        next_kind = [client * 2 for client in range(self.clients)]
        # A done-callback stamps the end time on the worker thread and
        # hands the future over; ``Future.set_result`` wakes ``wait()``
        # before it runs the callbacks, so waiting on the futures could
        # see a future whose end time is not stamped yet.
        finished: "queue.Queue[Tuple[Any, float]]" = queue.Queue()
        in_flight: Dict[Any, Tuple[int, str, float, bool, Any]] = {}

        def submit(client: int) -> None:
            kind = self.kinds[next_kind[client] % len(self.kinds)]
            next_kind[client] += 1
            traced = alternator.next(kind)
            span = tracer.new_op(kind) if traced else None
            if tracer is not None:
                tracer.note_submit(span)
            start = _now()
            future = self.frontend.submit(self._sql(kind), MODULE)
            in_flight[future] = (client, kind, start, traced, span)
            future.add_done_callback(lambda f: finished.put((f, _now())))

        ops: List[Op] = []
        deadline = _now() + seconds
        while True:
            segment_end = min(_now() + self.segment_s, deadline)
            for client in range(self.clients):
                submit(client)
            while in_flight:
                future, end = finished.get()
                client, kind, start, traced, span = in_flight.pop(future)
                if span is not None:
                    tracer.end_op(span, end)
                try:
                    result = future.result()
                except Exception:
                    traceback.print_exc()
                    result = None
                ops.append(_query_op(kind, start, start, end, traced, result, self.expected[kind]))
                if _now() < segment_end:
                    submit(client)
            for _ in range(self.samples_per_pause):
                self.calibration.sample()
            if _now() >= deadline and alternator.covered(self.kinds):
                return ops

    def describe(self) -> Dict[str, Any]:
        return {
            **super().describe(),
            "clients": self.clients,
            "topology": "Topology.smart_home_tree(n_sensors=8, sensors_per_appliance=4)",
            "execution": "parallel via SessionFrontEnd(max_concurrent=2)",
            "rows": self.rows,
        }


class StandingIngest(Workload):
    name = "standing_ingest"
    why = (
        "the write path: delta appends refresh 64 standing queries while "
        "one-shot parallel GROUP BY reads scan the growing partitions"
    )
    loop = "open"
    base_rows = 10_000
    delta_rows = 64
    n_queries = 64
    #: One cycle of the fixed schedule, as (offset s, op): three reads (one
    #: of each shape) and two deltas per 1.05 s, so reads run at 2.9/s and
    #: deltas at 1.9/s, and a 35 s run holds 102 reads.  On a 2-core host
    #: a read takes about 125 ms and a refresh about 55 ms, so the
    #: generator is busy under half the time.  Slots are in proportion to
    #: those times (270 ms per read, 120 ms per refresh), so every op has
    #: 2.1 times its service time: a host running at half speed for a
    #: while slows the ops without queueing them behind each other.
    cycle_s = 1.05
    pattern = (
        (0.00, "refresh"), (0.12, "read"), (0.39, "read"),
        (0.66, "refresh"), (0.78, "read"),
    )
    #: Every ``check_every``-th refresh compares one standing handle
    #: (rotating over all of them) against ``StandingQueryRuntime.reexecute``.
    check_every = 2
    warmup_deltas = 4
    #: The calibration loop runs after an op only when the next op is due
    #: at least this many seconds later, so it never delays an op.
    calibration_slack_s = 0.03
    read_kinds = tuple(GROUP_BY_SQL)
    mix = {"refresh": 2 / 5, **dict.fromkeys(read_kinds, 3 / 5 / len(read_kinds))}

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        self.relation = synthetic_sensor_relation(self.base_rows, seed=seed)
        #: (offset seconds, cycle, kind, index) in due order; ``index``
        #: counts deltas and reads separately.
        self.schedule: List[Tuple[float, int, str, int]] = []
        deltas = reads = 0
        for cycle in range(max(2, math.ceil(seconds / self.cycle_s))):
            for offset, op in self.pattern:
                at = cycle * self.cycle_s + offset
                if op == "refresh":
                    self.schedule.append((at, cycle, "refresh", deltas))
                    deltas += 1
                else:
                    kind = self.read_kinds[reads % len(self.read_kinds)]
                    self.schedule.append((at, cycle, kind, reads))
                    reads += 1
        feed = synthetic_sensor_relation(
            (self.warmup_deltas + deltas) * self.delta_rows, seed=seed + 1
        )
        self.deltas = [
            feed.slice_rows(i * self.delta_rows, (i + 1) * self.delta_rows, name="d")
            for i in range(self.warmup_deltas + deltas)
        ]

    @staticmethod
    def _topology() -> Topology:
        return Topology.smart_home_tree(n_sensors=16, sensors_per_appliance=4)

    def _standing(self, processor: ParadiseProcessor) -> Tuple[StandingQueryRuntime, list]:
        runtime = StandingQueryRuntime(processor)
        handles = [runtime.register(sql) for sql in standing_queries(self.n_queries)]
        return runtime, handles

    def build(self) -> None:
        processor = _processor(self._topology(), execution="parallel")
        processor.load_data(self.relation)
        self.processor = processor
        self.runtime, self.handles = self._standing(processor)
        self.holders = processor.network.partition_holders("d")

    def _leaf(self, delta_index: int) -> str:
        return self.holders[delta_index % len(self.holders)]

    def prepare(self) -> None:
        # The oracle replays the same deltas, through the network's append
        # primitive, on two serial processors: one on the same tree, whose
        # standing runtime re-executes a handle from scratch at every
        # ``check_every``-th refresh, and one holding all of ``d`` in one
        # partition on the default chain, which answers the reads (a
        # result does not depend on where the rows live, and one partition
        # ships no leaf data, which halves the oracle's read time).
        oracle = _processor(self._topology(), execution="serial")
        oracle.load_data(self.relation)
        oracle_runtime, oracle_handles = self._standing(oracle)
        reader = _processor(Topology.default_chain(), execution="serial")
        reader.load_data(self.relation)
        (reader_leaf,) = reader.network.partition_holders("d")

        def replay(delta_index: int) -> None:
            delta = self.deltas[delta_index]
            oracle.network.append_to_partition(self._leaf(delta_index), "d", delta)
            reader.network.append_to_partition(reader_leaf, "d", delta)

        for i in range(self.warmup_deltas):
            replay(i)
        self.expected_reads: Dict[int, bytes] = {}
        self.expected_states: Dict[int, Tuple[int, bytes]] = {}
        for _, _, kind, index in self.schedule:
            if kind == "refresh":
                replay(self.warmup_deltas + index)
                if index % self.check_every == 0:
                    handle = (index // self.check_every) % len(oracle_handles)
                    self.expected_states[index] = (
                        handle,
                        pack_state_relation(oracle_runtime.reexecute(oracle_handles[handle])),
                    )
            else:
                self.expected_reads[index] = pack_relation(
                    reader.process(GROUP_BY_SQL[kind], MODULE).result
                )
        # Warm-up: the first deltas (replayed by the oracle above) and one
        # read of each shape, checked against a serial run of the live data.
        for i in range(self.warmup_deltas):
            self.runtime.append(self._leaf(i), self.deltas[i])
        for kind in self.read_kinds:
            sql = GROUP_BY_SQL[kind]
            parallel = self.processor.process(sql, MODULE).result
            serial = self.processor.process(sql, MODULE, execution="serial").result
            if pack_relation(parallel) != pack_relation(serial):
                raise RuntimeError(f"{self.name}: warm-up {kind} differs from the oracle")

    def _refresh(self, index: int, due: float, traced: bool, tracer: Optional[Tracer]) -> Op:
        delta_index = self.warmup_deltas + index
        start, end, epoch = _timed(
            tracer, "refresh", traced,
            lambda: self.runtime.append(self._leaf(delta_index), self.deltas[delta_index]),
        )
        ok = epoch is not None
        if ok and index in self.expected_states:
            handle, expected = self.expected_states[index]
            ok = pack_state_relation(self.handles[handle].result()) == expected
        return Op("refresh", due, start, end, traced, ok, is_query=False)

    def _read(self, kind: str, index: int, due: float, traced: bool,
              tracer: Optional[Tracer]) -> Op:
        start, end, result = _timed(
            tracer, kind, traced, lambda: self.processor.process(GROUP_BY_SQL[kind], MODULE)
        )
        return _query_op(kind, due, start, end, traced, result, self.expected_reads[index])

    def run(self, seconds: float, tracer: Optional[Tracer]) -> List[Op]:
        # The schedule was sized from ``seconds`` when the inputs were made.
        # Whole cycles are traced (every second one), so traced and untraced
        # ops of a kind run at the same point of the cycle.
        ops: List[Op] = []
        self.calibration.sample()
        origin = _now() + 0.01
        for position, (offset, cycle, kind, index) in enumerate(self.schedule):
            due = origin + offset
            delay = due - _now()
            if delay > 0:
                time.sleep(delay)
            traced = tracer is not None and cycle % 2 == 1
            if kind == "refresh":
                ops.append(self._refresh(index, due, traced, tracer))
            else:
                ops.append(self._read(kind, index, due, traced, tracer))
            if position + 1 < len(self.schedule):
                next_due = origin + self.schedule[position + 1][0]
                if next_due - _now() >= self.calibration_slack_s:
                    self.calibration.sample()
        return ops

    def extra_metrics(self) -> Dict[str, Tuple[float, str]]:
        return {"state_bytes": (float(registry.value("standing.state_bytes")), "B")}

    def describe(self) -> Dict[str, Any]:
        return {
            **super().describe(),
            "rates_per_s": {
                op: sum(kind == op for _, kind in self.pattern) / self.cycle_s
                for op in ("refresh", "read")
            },
            "topology": "Topology.smart_home_tree(n_sensors=16, sensors_per_appliance=4)",
            "execution": "parallel reads; StandingQueryRuntime.append refreshes",
            "base_rows": self.base_rows,
            "delta_rows": self.delta_rows,
            "standing_queries": self.n_queries,
            "standing_trees": self.runtime.tree_count,
            "scheduled_ops": len(self.schedule),
        }


WORKLOADS = {cls.name: cls for cls in (PaperChain, TreeSessions, StandingIngest)}
