"""Experiment CS — columnar storage: vectorized scans vs the row-dict path.

Microbenchmarks the three scan shapes the columnar refactor targets, each
over the same synthetic readings table:

* **projection** — ``SELECT value, device FROM d``: output columns are
  sliced straight from the input arrays (no per-row work at all).
* **filter** — simple WHERE conjuncts evaluated column-wise into an index
  selection, then gathered.
* **aggregate** — a single-pass GROUP BY whose accumulators consume column
  slices in bulk (``add_many``) instead of per-row tuples.

The baseline is the same compiled engine with the vectorized paths
disabled (``EngineConfig(vectorized=False)``) — i.e. the pre-columnar behaviour
of building one scope dict per row and calling compiled closures per
expression.  The interpreted oracle runs once per workload to confirm all
three paths return byte-identical relations.

``python benchmarks/bench_columnar.py`` runs the full-size variant
standalone; ``benchmarks/run_all.py`` embeds both row counts as the
``columnar`` section of ``BENCH_engine.json``.  The pytest smoke below is
quick-suite sized; the full-size speedup assertion is marked ``slow``.
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

from repro.engine.config import EngineConfig  # noqa: E402
from repro.engine.database import Database  # noqa: E402
from repro.engine.vectorized import stats  # noqa: E402

#: The row-at-a-time baseline and the interpreted oracle.
ROW_PATH = EngineConfig(vectorized=False)
ORACLE = EngineConfig(mode="interpreted")

#: The three scan shapes; names become keys of the ``columnar`` section.
WORKLOADS: Dict[str, str] = {
    "projection": "SELECT value, device FROM d",
    "filter": "SELECT value, t FROM d WHERE value > 50 AND device = 3",
    "aggregate": (
        "SELECT device, COUNT(*) AS n, AVG(value) AS av, SUM(value) AS sv, "
        "MIN(value) AS mn, MAX(value) AS mx FROM d GROUP BY device"
    ),
}


def build_database(rows: int, seed: int = 0) -> Database:
    """A database holding ``rows`` synthetic device readings."""
    rng = random.Random(seed)
    data = [
        {
            "id": index,
            "device": rng.randint(1, 8),
            "value": round(rng.uniform(0.0, 100.0), 3),
            "flag": rng.random() > 0.1,
            "t": round(index * 0.05, 3),
        }
        for index in range(rows)
    ]
    database = Database(name="bench_columnar")
    database.load_rows("d", data)
    return database


def _median_seconds(fn, repeats: int) -> float:
    fn()  # warmup: parse/compile/plan caches
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def measure_columnar(rows: int, repeats: int = 3, seed: int = 0) -> Dict[str, Any]:
    """Time vectorized vs row-dict scans; oracle-check every workload."""
    database = build_database(rows, seed=seed)
    entry: Dict[str, Any] = {"rows": rows, "repeats": repeats, "workloads": {}}
    for name, sql in WORKLOADS.items():
        stats.reset()
        vectorized_result = database.query(sql)
        hits = stats.total
        row_path_result = database.query(sql, ROW_PATH)
        oracle_result = database.query(sql, ORACLE)
        identical = (
            vectorized_result.schema.names == oracle_result.schema.names
            and vectorized_result.to_dicts()
            == row_path_result.to_dicts()
            == oracle_result.to_dicts()
        )

        vectorized_median = _median_seconds(lambda: database.query(sql), repeats)

        row_path_median = _median_seconds(lambda: database.query(sql, ROW_PATH), repeats)
        workload = {
            "sql": sql,
            "identical_to_oracle": identical,
            "vectorized_hits": hits,
            "median_s": {
                "vectorized": round(vectorized_median, 6),
                "row_dict": round(row_path_median, 6),
            },
            "speedup_median": round(row_path_median / vectorized_median, 3)
            if vectorized_median
            else None,
            "rows_per_s_vectorized": round(rows / vectorized_median)
            if vectorized_median
            else None,
        }
        entry["workloads"][name] = workload
        print(
            f"columnar {name} ({rows} rows): row-dict "
            f"{row_path_median * 1e3:8.2f}ms -> vectorized "
            f"{vectorized_median * 1e3:8.2f}ms "
            f"({workload['speedup_median']:.2f}x, identical={identical})"
        )
    return entry


def run_columnar(row_counts: List[int], repeats: int = 3) -> Dict[str, Any]:
    """The ``columnar`` section of ``BENCH_engine.json``."""
    return {
        "baseline_note": "row_dict = same compiled engine with vectorized "
        "scans disabled (per-row scope dicts + per-expression closures, the "
        "pre-columnar behaviour); the interpreted oracle verifies identical "
        "relations on every workload",
        "sizes": [measure_columnar(rows, repeats=repeats) for rows in row_counts],
    }


# ---------------------------------------------------------------------------
# pytest entry points (tiny smoke in the quick suite; full size is opt-in)
# ---------------------------------------------------------------------------


def test_columnar_scan_smoke():
    """Quick-suite smoke: paths engage and results match the oracle."""
    entry = measure_columnar(rows=10_000, repeats=1)
    for name, workload in entry["workloads"].items():
        assert workload["identical_to_oracle"], name
        assert workload["vectorized_hits"] > 0, name


@pytest.mark.slow
def test_columnar_scan_full_size():
    """The acceptance bar: ≥1.5x on projection and aggregate scans."""
    entry = measure_columnar(rows=100_000, repeats=3)
    for name in ("projection", "aggregate"):
        workload = entry["workloads"][name]
        assert workload["identical_to_oracle"], name
        assert workload["speedup_median"] >= 1.5, (name, workload["speedup_median"])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, nargs="*", default=[10_000, 100_000])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    row_counts = [10_000] if args.quick else args.rows
    section = run_columnar(row_counts, repeats=args.repeats)
    if args.out is not None:
        args.out.write_text(json.dumps(section, indent=2) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
