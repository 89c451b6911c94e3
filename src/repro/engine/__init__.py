"""In-memory relational engine executing the :mod:`repro.sql` AST.

The engine plays the role of the per-node database systems of the paper's
vertical architecture (cloud / PC / appliance / sensor).  Each simulated node
owns a :class:`~repro.engine.database.Database` instance; the PArADISE
processor runs the query fragments produced by the fragmenter against these
databases and ships the intermediate relations between nodes.

Public surface:

* :class:`~repro.engine.types.DataType` and
  :class:`~repro.engine.schema.Schema` describe relation shapes,
* :class:`~repro.engine.table.Relation` is the (immutable-by-convention)
  result/row container,
* :class:`~repro.engine.database.Database` offers ``create_table``,
  ``insert_rows`` and ``query(sql)``,
* :class:`~repro.engine.executor.QueryExecutor` evaluates a parsed query
  against a catalog of relations,
* :class:`~repro.engine.config.EngineConfig` is the engine configuration
  (path, vectorized scans, optimizer) passed by value to every engine call.
"""

from repro.engine.errors import EngineError, ExecutionError, SchemaError
from repro.engine.types import DataType, infer_type
from repro.engine.schema import ColumnDef, Schema
from repro.engine.table import Relation
from repro.engine.database import Database
from repro.engine.config import EngineConfig
from repro.engine.executor import QueryExecutor

__all__ = [
    "EngineError",
    "ExecutionError",
    "SchemaError",
    "DataType",
    "infer_type",
    "ColumnDef",
    "Schema",
    "Relation",
    "Database",
    "QueryExecutor",
    "EngineConfig",
]
