"""Experiment CO — statistics-driven cost-based optimization.

Measures the three plan choices the optimizer makes from maintained column
statistics, each against the ``optimizer=False`` ablation (today's purely
syntactic choices).  Results are differential-checked in-loop: every
workload must return byte-identical relations with the optimizer on and
off — the optimizer moves work, never answers.

* **skewed_conjuncts** — a WHERE clause written worst-first: an expensive
  unselective LIKE, an unselective range, and a highly selective equality
  last.  Selectivity-ordered scanning evaluates the equality first, so the
  expensive conjuncts see a fraction of the rows.
* **build_side_join** — a small relation joined against a large one.  The
  syntactic plan always hashes the right (large) side; the cost-based plan
  builds over the smaller estimated side and probes with the big one.
* **adaptive_groupby** — a high-cardinality GROUP BY through the parallel
  runtime: the adaptive placement rule estimates state bytes per leaf from
  distinct-key stats and observed packed state sizes instead of the fixed
  0.75 distinct-share ratio.

``python benchmarks/bench_optimizer.py`` runs standalone;
``benchmarks/run_all.py`` embeds the result as the ``optimizer`` section
of ``BENCH_engine.json``.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
for entry in (str(REPO_ROOT / "src"), str(REPO_ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.engine.database import Database  # noqa: E402
from repro.engine.config import EngineConfig  # noqa: E402
from repro.engine.stats import optimizer_stats  # noqa: E402

#: The optimizer arm and the purely syntactic ablation arm.
OPTIMIZED = EngineConfig(optimizer=True)
ABLATED = EngineConfig(optimizer=False)


def _median_seconds(fn, repeats: int) -> float:
    fn()  # warmup: parse/compile/plan caches
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def build_filter_database(rows: int, seed: int = 0) -> Database:
    """Readings with a very selective device id and noisy text labels."""
    rng = random.Random(seed)
    data = [
        {
            "id": index,
            "device": rng.randint(1, 1000),
            "value": round(rng.uniform(0.0, 100.0), 3),
            "label": rng.choice(["walk", "sit", "stand", "present", "away"]),
        }
        for index in range(rows)
    ]
    database = Database(name="bench_optimizer")
    database.load_rows("d", data)
    return database


def build_join_database(small: int, large: int, seed: int = 0) -> Database:
    rng = random.Random(seed)
    database = Database(name="bench_optimizer_join")
    database.load_rows(
        "s",
        [{"device": index, "label": f"dev{index}"} for index in range(small)],
    )
    database.load_rows(
        "d",
        [
            {
                "id": index,
                "device": rng.randint(0, small - 1),
                "value": round(rng.uniform(0.0, 100.0), 3),
            }
            for index in range(large)
        ],
    )
    return database


#: Conjuncts deliberately written worst-first: the planner must reorder.
SKEWED_SQL = (
    "SELECT id, value FROM d "
    "WHERE label LIKE '%a%' AND value >= 0.0 AND device = 7"
)

JOIN_SQL = (
    "SELECT s.label, d.value FROM s JOIN d ON s.device = d.device "
    "WHERE d.value > 99.5"
)

GROUPBY_SQL = "SELECT person_id, t, COUNT(*) AS n FROM d GROUP BY person_id, t"


def _differential(database: Database, sql: str) -> bool:
    optimized = database.query(sql, OPTIMIZED)
    ablated = database.query(sql, ABLATED)
    return (
        optimized.schema.names == ablated.schema.names
        and optimized.to_dicts() == ablated.to_dicts()
    )


def measure_skewed_conjuncts(rows: int, repeats: int = 3) -> Dict[str, Any]:
    database = build_filter_database(rows)
    identical = _differential(database, SKEWED_SQL)
    before = optimizer_stats.conjunct_reorders
    on_median = _median_seconds(lambda: database.query(SKEWED_SQL, OPTIMIZED), repeats)
    reorders = optimizer_stats.conjunct_reorders - before
    off_median = _median_seconds(lambda: database.query(SKEWED_SQL, ABLATED), repeats)
    return {
        "sql": SKEWED_SQL,
        "rows": rows,
        "identical_to_ablation": identical,
        "conjunct_reorders": reorders,
        "median_s": {"optimizer": round(on_median, 6), "ablation": round(off_median, 6)},
        "speedup_median": round(off_median / on_median, 3) if on_median else None,
    }


def measure_build_side_join(small: int, large: int, repeats: int = 3) -> Dict[str, Any]:
    database = build_join_database(small, large)
    identical = _differential(database, JOIN_SQL)
    before = optimizer_stats.build_side_flips
    on_median = _median_seconds(lambda: database.query(JOIN_SQL, OPTIMIZED), repeats)
    flips = optimizer_stats.build_side_flips - before
    off_median = _median_seconds(lambda: database.query(JOIN_SQL, ABLATED), repeats)
    return {
        "sql": JOIN_SQL,
        "small_rows": small,
        "large_rows": large,
        "identical_to_ablation": identical,
        "build_side_flips": flips,
        "flipped_to_left_build": flips > 0,
        "median_s": {"optimizer": round(on_median, 6), "ablation": round(off_median, 6)},
        "speedup_median": round(off_median / on_median, 3) if on_median else None,
    }


def measure_adaptive_groupby(rows: int, repeats: int = 3) -> Dict[str, Any]:
    """High-cardinality GROUP BY through the parallel runtime."""
    from benchmarks.common import build_processor
    from repro.fragment.topology import Topology

    results: Dict[bool, Any] = {}
    medians: Dict[bool, float] = {}
    decisions: Dict[str, int] = {}
    for enabled in (True, False):
        # A real sensor tree: partial aggregation needs partitioned leaves
        # for the placement decision to exist at all.
        processor = build_processor(
            rows,
            execution="parallel",
            optimizer=enabled,
            topology=Topology.smart_home_tree(n_sensors=8, sensors_per_appliance=4),
        )
        before = (
            optimizer_stats.adaptive_partial,
            optimizer_stats.adaptive_fallback,
        )

        def run() -> None:
            results[enabled] = processor.process(
                GROUPBY_SQL, "ActionFilter", apply_rewriting=False, anonymize=False
            ).result

        medians[enabled] = _median_seconds(run, repeats)
        if enabled:
            decisions = {
                "adaptive_partial": optimizer_stats.adaptive_partial - before[0],
                "adaptive_fallback": optimizer_stats.adaptive_fallback - before[1],
            }
    identical = (
        results[True].schema.names == results[False].schema.names
        and results[True].to_dicts() == results[False].to_dicts()
    )
    return {
        "sql": GROUPBY_SQL,
        "rows": rows,
        "identical_to_ablation": identical,
        "decisions": decisions,
        "median_s": {
            "optimizer": round(medians[True], 6),
            "ablation": round(medians[False], 6),
        },
        "speedup_median": round(medians[False] / medians[True], 3)
        if medians[True]
        else None,
    }


def run_optimizer(rows: int = 100_000, repeats: int = 3) -> Dict[str, Any]:
    """The ``optimizer`` section of ``BENCH_engine.json``."""
    section: Dict[str, Any] = {
        "baseline_note": "ablation = EngineConfig(optimizer=False): purely syntactic "
        "plan choices (written conjunct order, right-side hash build, fixed "
        "0.75 partial-aggregation ratio); every workload is differential-"
        "checked against it in-loop",
        "skewed_conjuncts": measure_skewed_conjuncts(rows, repeats=repeats),
        "build_side_join": measure_build_side_join(
            200, max(rows // 2, 1000), repeats=repeats
        ),
        "adaptive_groupby": measure_adaptive_groupby(
            min(rows // 10, 10_000), repeats=repeats
        ),
    }
    for name in ("skewed_conjuncts", "build_side_join", "adaptive_groupby"):
        workload = section[name]
        print(
            f"optimizer {name}: ablation "
            f"{workload['median_s']['ablation'] * 1e3:8.2f}ms -> optimized "
            f"{workload['median_s']['optimizer'] * 1e3:8.2f}ms "
            f"({workload['speedup_median']:.2f}x, "
            f"identical={workload['identical_to_ablation']})"
        )
    return section


# ---------------------------------------------------------------------------
# pytest entry points (tiny smoke in the quick suite; full size is opt-in)
# ---------------------------------------------------------------------------


@pytest.mark.optimizer
def test_optimizer_bench_smoke():
    """Quick-suite smoke: decisions fire and ablation results match."""
    skewed = measure_skewed_conjuncts(rows=20_000, repeats=1)
    assert skewed["identical_to_ablation"]
    assert skewed["conjunct_reorders"] >= 1
    join = measure_build_side_join(100, 5_000, repeats=1)
    assert join["identical_to_ablation"]
    assert join["flipped_to_left_build"]


@pytest.mark.optimizer
@pytest.mark.slow
def test_optimizer_bench_full_size():
    """The acceptance bar: ≥1.3x on the skewed-conjunct workload and a
    correct build-side flip on the asymmetric join."""
    section = run_optimizer(rows=100_000, repeats=3)
    skewed = section["skewed_conjuncts"]
    assert skewed["identical_to_ablation"]
    assert skewed["speedup_median"] >= 1.3, skewed["speedup_median"]
    join = section["build_side_join"]
    assert join["identical_to_ablation"]
    assert join["flipped_to_left_build"]
    grouped = section["adaptive_groupby"]
    assert grouped["identical_to_ablation"]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=100_000)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    rows = 20_000 if args.quick else args.rows
    section = run_optimizer(rows, repeats=args.repeats)
    if args.out is not None:
        args.out.write_text(json.dumps(section, indent=2) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
