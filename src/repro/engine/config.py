"""The engine configuration: one immutable value passed to every engine call.

An :class:`EngineConfig` names the three independently settable engine
choices of a query run — the execution path, the vectorized columnar scans
and the statistics-driven optimizer.  It is passed *by value*: the
processor builds one, and every engine call it causes (on the caller's
thread, a scheduler worker thread, a spawned worker process or a standing
refresh) receives that value as an argument.  Nothing reads it from thread
or process state, so a setting cannot silently fail to reach a worker.

Every choice only changes how a result is computed, never the result:
the differential suites compare each configuration against
``EngineConfig(mode="interpreted")``, the reference oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Execution paths, in wire-code order (see :mod:`repro.runtime.procs`).
ENGINE_MODES = ("compiled", "interpreted")


@dataclass(frozen=True)
class EngineConfig:
    """The engine settings of one query run.

    ``mode``: ``"compiled"`` (closures, hash joins, single-pass GROUP BY)
    or ``"interpreted"`` (the per-row tree-walk oracle).
    ``vectorized``: columnar scan/aggregate fast paths on the compiled
    path (:mod:`repro.engine.vectorized`); ``False`` is the row-at-a-time
    ablation.
    ``optimizer``: statistics-driven plan choices — conjunct order, join
    build side and nested-loop joins, widened vectorized predicates;
    ``False`` restores the purely syntactic choices.
    """

    mode: str = "compiled"
    vectorized: bool = True
    optimizer: bool = True

    def __post_init__(self) -> None:
        if self.mode not in ENGINE_MODES:
            raise ValueError(
                f"Unknown execution mode: {self.mode!r} "
                f"(expected one of {ENGINE_MODES})"
            )


#: The default configuration: compiled, vectorized, optimizer on.
DEFAULT_CONFIG = EngineConfig()
