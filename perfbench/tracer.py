"""Outside-in span tracing for the benchmark's traced run.

The benchmark never turns on the program's own profiler (``profile=True``
costs 24-28% and rebuilds column statistics on every intermediate).
Instead :class:`Instrumentation` replaces the public functions of each
layer *at the binding the caller uses* with a thin wrapper that records a
span: name, start, end, parent span and op id.  A wrapper placed on the
defining module would record nothing for callers that imported the name
(``from repro.sql.parser import parse`` in ``repro.processor.paradise``),
so every by-name import is patched where it lives, and everything is put
back when the instrumentation is removed.

Spans are kept in memory (:attr:`Tracer.spans`) and written out once, when
the run ends.  A wrapper records only inside a traced op: with no op on the
calling thread's span stack it calls straight through, so untraced ops of
a traced run pay one thread-local lookup per call.  Work that crosses a
thread is re-parented explicitly: scheduler tasks find their
``Scheduler.run`` span through the run's ``ExecutionContext``, and a
session worker finds the op that submitted its query through the submit
time the front end hands it.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

_now = time.perf_counter

#: Attribute set on every wrapper, so a binding can be checked for it.
WRAPPED_MARK = "__perfbench_wrapped__"


class Span:
    """One timed call: ``[start, end]`` on ``perf_counter``'s clock."""

    __slots__ = ("span_id", "name", "start", "end", "parent", "op", "attrs")

    def __init__(self, span_id: int, name: str, parent: Optional[int], op: int) -> None:
        self.span_id = span_id
        self.name = name
        self.parent = parent
        self.op = op
        self.start = 0.0
        self.end = 0.0
        self.attrs: Dict[str, Any] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.span_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            "attrs": self.attrs,
        }


class Tracer:
    """In-memory span store plus the per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        # id(ExecutionContext) -> the Scheduler.run span driving it.
        self._runs: Dict[int, Span] = {}
        # Submit start times (ascending) and the op (or None) behind each.
        self._submit_times: List[float] = []
        self._submit_ops: List[Optional[Span]] = []

    # -- span stack ------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def new_op(self, kind: str) -> Span:
        """Open the root span of one op (not pushed on any stack)."""
        span_id = next(self._ids)
        span = Span(span_id, "op." + kind, None, span_id)
        span.start = _now()
        return span

    def end_op(self, span: Span, end: Optional[float] = None) -> None:
        span.end = _now() if end is None else end
        self.spans.append(span)

    @contextmanager
    def adopt(self, span: Optional[Span]) -> Iterator[None]:
        """Make ``span`` the parent of spans opened on this thread."""
        if span is None:
            yield
            return
        stack = self._stack()
        stack.append(span)
        try:
            yield
        finally:
            stack.pop()

    @contextmanager
    def op(self, kind: str) -> Iterator[Span]:
        """Trace one op that runs on the calling thread."""
        span = self.new_op(kind)
        with self.adopt(span):
            try:
                yield span
            finally:
                self.end_op(span)

    def child(self, name: str, parent: Span, start: float, end: float) -> Span:
        """Record an already-finished span (a wait measured after the fact)."""
        span = Span(next(self._ids), name, parent.span_id, parent.op)
        span.start, span.end = start, end
        self.spans.append(span)
        return span

    # -- wrappers --------------------------------------------------------
    def _open(self, name: str, parent: Span) -> Span:
        span = Span(next(self._ids), name, parent.span_id, parent.op)
        self._stack().append(span)
        span.start = _now()
        return span

    def _close(self, span: Span) -> None:
        span.end = _now()
        self._stack().pop()
        self.spans.append(span)

    def wrap(
        self,
        name: str,
        fn: Callable,
        annotate: Optional[Callable[[Span, tuple, Any], None]] = None,
    ) -> Callable:
        """A wrapper recording ``fn``'s calls as ``name`` spans."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.current()
            if parent is None:
                return fn(*args, **kwargs)
            span = self._open(name, parent)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if annotate is not None:
                annotate(span, args, result)
            return result

        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    def wrap_scheduler_run(self, fn: Callable) -> Callable:
        """``Scheduler.run``: publishes its span for the run's task threads."""

        @functools.wraps(fn)
        def wrapper(scheduler, dag, context, *args, **kwargs):
            parent = self.current()
            if parent is None:
                return fn(scheduler, dag, context, *args, **kwargs)
            span = self._open("runtime.scheduler", parent)
            self._runs[id(context)] = span
            try:
                report = fn(scheduler, dag, context, *args, **kwargs)
            finally:
                self._runs.pop(id(context), None)
                self._close(span)
            _annotate_dag_run(span, dag, report)
            return report

        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    def wrap_task_execute(self, fn: Callable) -> Callable:
        """``Task.execute`` on a scheduler thread, parented to its run."""
        inner = self.wrap("runtime.task", fn)

        @functools.wraps(fn)
        def wrapper(task, context, *args, **kwargs):
            run_span = self._runs.get(id(context))
            if run_span is None:
                return fn(task, context, *args, **kwargs)
            with self.adopt(run_span):
                return inner(task, context, *args, **kwargs)

        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    def note_submit(self, op: Optional[Span]) -> None:
        """Call right before each ``SessionFrontEnd.submit`` (one submitter)."""
        self._submit_times.append(_now())
        self._submit_ops.append(op)

    def wrap_session_run(self, fn: Callable) -> Callable:
        """``SessionFrontEnd._run`` on a session worker thread.

        The front end stamps each submission with ``perf_counter()`` taken
        inside ``submit``.  The benchmark submits from one thread and notes
        the time right before each call, so the latest noted time at or
        before the stamp identifies the submitting op exactly.  The span
        from the stamp to the worker picking the query up is the session
        queue wait.
        """
        times, ops = self._submit_times, self._submit_ops

        @functools.wraps(fn)
        def wrapper(frontend, query, module_id, options, submitted_at):
            index = bisect.bisect_right(times, submitted_at) - 1
            op = ops[index] if index >= 0 else None
            if op is None:
                return fn(frontend, query, module_id, options, submitted_at)
            self.child("session.queue_wait", op, submitted_at, _now())
            with self.adopt(op):
                return fn(frontend, query, module_id, options, submitted_at)

        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper


def _annotate_dag_run(span: Span, dag: Any, report: Any) -> None:
    """Task count, busy time and per-task waits of one ``Scheduler.run``.

    A task's wait is its start minus the moment its last dependency
    finished (the run's start for tasks without dependencies), both from
    the returned ``DagRunReport`` — dispatch latency plus node-slot wait.
    """
    by_id = dag.by_id()
    finished = {timing.task_id: timing.finished for timing in report.timings}
    waits = []
    for timing in report.timings:
        ready = max(
            (finished[dep] for dep in by_id[timing.task_id].deps if dep in finished),
            default=0.0,
        )
        waits.append(max(0.0, timing.started - ready))
    span.attrs["tasks"] = len(dag.tasks)
    span.attrs["busy"] = report.busy_seconds
    span.attrs["waits"] = waits


def _annotate_encode(span: Span, args: tuple, payload: Any) -> None:
    span.attrs["bytes"] = len(payload)


def _annotate_decode(span: Span, args: tuple, relation: Any) -> None:
    span.attrs["bytes"] = len(args[0])


def _annotate_anonymize(span: Span, args: tuple, outcome: Any) -> None:
    span.attrs["rows_in"] = len(args[1])
    span.attrs["rows_out"] = len(outcome.relation)


_ANNOTATE = {
    "wire.encode": _annotate_encode,
    "wire.state_encode": _annotate_encode,
    "wire.decode": _annotate_decode,
    "wire.state_decode": _annotate_decode,
    "anonymize": _annotate_anonymize,
}


class Instrumentation:
    """Patches every traced binding on :meth:`install`, restores on :meth:`remove`.

    Each site is ``(owner, attribute, span name)``; ``owner`` is a module
    for by-name imports and a class for methods.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: List[Tuple[Any, str, Any]] = []

    @staticmethod
    def sites() -> List[Tuple[Any, str, str]]:
        import repro.processor.network as network
        import repro.processor.paradise as paradise
        import repro.runtime.dag as dag
        import repro.runtime.standing as standing
        from repro.anonymize.anonymizer import Anonymizer
        from repro.engine.database import Database
        from repro.fragment.fragmenter import VerticalFragmenter
        from repro.rewrite.analyzer import PolicyAnalyzer
        from repro.rewrite.rewriter import QueryRewriter
        from repro.runtime.scheduler import Scheduler
        from repro.runtime.session import SessionFrontEnd

        sites = [
            (paradise, "parse", "sql.parse"),
            (paradise, "extract_sql_from_r", "rlang.extract"),
            (PolicyAnalyzer, "admit", "rewrite.admit"),
            (QueryRewriter, "rewrite", "rewrite.rewrite"),
            (VerticalFragmenter, "fragment", "fragment.fragment"),
            (paradise, "build_execution_dag", "runtime.dag_build"),
            (paradise, "union_partials", "runtime.union"),
            (dag, "union_partials", "runtime.union"),
            (standing, "union_partials", "runtime.union"),
            (Scheduler, "run", "runtime.scheduler"),
            (SessionFrontEnd, "_run", "session.queue_wait"),
            (Database, "query", "engine.query"),
            (Database, "partial_aggregate", "engine.partial"),
            (Database, "combine_partials", "engine.combine"),
            (Database, "finalize_partials", "engine.finalize"),
            (network, "pack_relation", "wire.encode"),
            (network, "unpack_relation", "wire.decode"),
            (standing, "pack_state_relation", "wire.state_encode"),
            (standing, "unpack_state_relation", "wire.state_decode"),
            (network.NetworkSimulator, "ship", "network.ship"),
            (network.NetworkSimulator, "append_to_partition", "network.append"),
            (Anonymizer, "anonymize", "anonymize"),
            (standing.StandingQueryRuntime, "append", "standing.append"),
        ]
        for task_class in _task_classes(dag.Task):
            sites.append((task_class, "execute", "runtime.task"))
        return sites

    def _wrapper_for(self, name: str, fn: Callable) -> Callable:
        tracer = self.tracer
        if name == "runtime.scheduler":
            return tracer.wrap_scheduler_run(fn)
        if name == "runtime.task":
            return tracer.wrap_task_execute(fn)
        if name == "session.queue_wait":
            return tracer.wrap_session_run(fn)
        return tracer.wrap(name, fn, annotate=_ANNOTATE.get(name))

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("instrumentation is already installed")
        for owner, attr, name in self.sites():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapper_for(name, original))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Instrumentation":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.remove()


def _task_classes(base: type) -> List[type]:
    """Every subclass of ``base`` that defines its own ``execute``."""
    found: List[type] = []
    pending = list(base.__subclasses__())
    while pending:
        cls = pending.pop()
        if "execute" in cls.__dict__:
            found.append(cls)
        pending.extend(cls.__subclasses__())
    return sorted(found, key=lambda cls: cls.__name__)


def wrapped_sites() -> int:
    """How many traced bindings currently hold a benchmark wrapper."""
    return sum(
        1
        for owner, attr, _ in Instrumentation.sites()
        if getattr(owner.__dict__.get(attr), WRAPPED_MARK, False)
    )
