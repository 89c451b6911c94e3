"""Golden execution DAGs: every placement decision, pinned task by task.

For a grid of topologies × queries × builder switches, the execution DAG's
``(order, task_id, kind, node, deps, signature)`` tuples must match the
recorded ``golden_dags.json`` exactly.  Task ids are what the chaos tests
address, signatures are what checkpoints restore by, and kinds are what
profiles group by, so a refactor of the builder must leave every one of
them unchanged.

Regenerate the file (only for an intended placement change) with::

    PYTHONPATH=src python -m tests.test_dag_golden
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

import pytest

from benchmarks.common import PAPER_SQL, synthetic_sensor_relation

from repro.fragment.topology import Topology
from repro.policy.presets import figure4_policy
from repro.processor.paradise import ParadiseProcessor
from repro.runtime.dag import build_execution_dag
from repro.sensors.scenario import INTEGRATED_SCHEMA
from repro.sql.parser import parse

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_dags.json")

MODULE = "ActionFilter"

TOPOLOGIES = {
    "chain": Topology.default_chain,
    "tree4": lambda: Topology.smart_home_tree(n_sensors=4, sensors_per_appliance=4),
    "tree8": lambda: Topology.smart_home_tree(n_sensors=8, sensors_per_appliance=4),
    "tree16": lambda: Topology.smart_home_tree(n_sensors=16, sensors_per_appliance=4),
}

QUERIES = {
    "groupby_x": "SELECT x, COUNT(*) AS n, AVG(z) AS az FROM d GROUP BY x",
    "groupby_y": "SELECT y, SUM(z) AS sz, MIN(z) AS lo FROM d GROUP BY y",
    "groupby_xy": "SELECT x, y, COUNT(*) AS n, MAX(z) AS hi FROM d GROUP BY x, y",
    "fig2": PAPER_SQL,
    "filtered_groupby": "SELECT x, COUNT(*) AS n, AVG(z) AS az FROM d WHERE z < 2 GROUP BY x",
    "groupby_t": "SELECT t, COUNT(*) AS n FROM d GROUP BY t",
    "groupby_xt": "SELECT x, t, COUNT(*) AS n FROM d GROUP BY x, t",
    "median": "SELECT x, MEDIAN(z) AS mz FROM d GROUP BY x",
    "order_by": "SELECT x, y, z FROM d WHERE z < 1.5 ORDER BY t LIMIT 50",
    "union_all": "SELECT x FROM d WHERE z < 1 UNION ALL SELECT x FROM d WHERE z > 3",
}


def _processor(topology: str) -> ParadiseProcessor:
    processor = ParadiseProcessor(
        figure4_policy(), topology=TOPOLOGIES[topology](), schema=INTEGRATED_SCHEMA
    )
    processor.load_data(synthetic_sensor_relation(3000))
    return processor


def _cell_key(topology: str, query: str, rewrite: bool, partial: bool, namespace) -> str:
    return f"{topology}|{query}|rewrite={rewrite}|partial={partial}|ns={namespace}"


def dag_grid(topologies=tuple(TOPOLOGIES)) -> Dict[str, Optional[List[list]]]:
    """Build every grid cell's DAG and flatten it to task tuples.

    A cell whose query the policy rejects records ``None``.
    """
    grid: Dict[str, Optional[List[list]]] = {}
    for topology in topologies:
        processor = _processor(topology)
        for query_name, sql in QUERIES.items():
            for rewrite in (False, True):
                query = parse(sql)
                if rewrite:
                    rewritten = processor.rewriter.rewrite(query, MODULE)
                    query = rewritten.query if rewritten.compliant else None
                plan = processor.fragmenter.fragment(query) if query is not None else None
                for partial in (True, False):
                    for namespace in (None, "s1"):
                        key = _cell_key(topology, query_name, rewrite, partial, namespace)
                        if plan is None:
                            grid[key] = None
                            continue
                        dag = build_execution_dag(
                            plan,
                            processor.topology,
                            processor.network,
                            namespace=namespace,
                            partial_aggregation=partial,
                        )
                        grid[key] = [
                            [t.order, t.task_id, t.kind, t.node, list(t.deps), t.signature]
                            for t in dag.tasks
                        ]
    return grid


def _load_golden() -> Dict[str, Optional[List[list]]]:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def test_golden_grid_covers_every_task_kind():
    golden = _load_golden()
    kinds = {task[2] for cell in golden.values() if cell for task in cell}
    assert kinds == {
        "fragment", "scan", "merge", "partial", "combine", "finalize_agg",
        "anonymize", "finalize",
    }


@pytest.mark.parametrize("topology", list(TOPOLOGIES))
def test_execution_dags_match_golden(topology):
    golden = _load_golden()
    built = dag_grid((topology,))
    expected = {key: cell for key, cell in golden.items() if key.startswith(topology + "|")}
    assert set(built) == set(expected)
    mismatched = [key for key in built if built[key] != expected[key]]
    assert not mismatched, f"{len(mismatched)} DAG(s) differ, first: {mismatched[0]}"


if __name__ == "__main__":
    grid = dag_grid()
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        handle.write("{\n")
        handle.write(
            ",\n".join(
                f"{json.dumps(key)}: {json.dumps(cell, separators=(',', ':'))}"
                for key, cell in grid.items()
            )
        )
        handle.write("\n}\n")
    cells = [cell for cell in grid.values() if cell is not None]
    print(f"{len(cells)} DAGs, {sum(len(cell) for cell in cells)} tasks -> {GOLDEN_PATH}")
