"""repro — keyword community search over relational database graphs.

A faithful, from-scratch reproduction of

    Lu Qin, Jeffrey Xu Yu, Lijun Chang, Yufei Tao.
    "Querying Communities in Relational Databases", ICDE 2009.

Quick start::

    from repro import CommunitySearch
    from repro.datasets import figure4_graph

    dbg = figure4_graph()
    search = CommunitySearch(dbg)
    search.build_index(radius=8)
    for community in search.top_k(["a", "b", "c"], k=5, rmax=8):
        print(community.describe(dbg))

Layout:

* :mod:`repro.core` — the paper's algorithms (PDall, PDk, BU/TD
  baselines, projection, naive reference) and the community model;
* :mod:`repro.engine` — the execution layer: query specs, the
  algorithm registry, the LRU projection cache, and per-stage
  instrumentation contexts;
* :mod:`repro.graph` — weighted digraph substrate with bounded
  multi-source Dijkstra;
* :mod:`repro.rdb` — the relational engine and graph materialization;
* :mod:`repro.text` — tokenizer and the two inverted indexes;
* :mod:`repro.snapshot` — the immutable snapshot artifact:
  content-addressed graph+index bundles, an atomically-published
  store, and the hot-reload path the service serves from;
* :mod:`repro.datasets` — synthetic DBLP / IMDB and the paper's toy
  examples;
* :mod:`repro.bench` — the benchmark harness regenerating every figure
  and table of the paper's evaluation (``python -m repro.bench``).
"""

from repro.core.comm_all import all_communities, enumerate_all
from repro.core.comm_k import TopKStream, top_k
from repro.core.community import Community, Core
from repro.core.getcommunity import get_community
from repro.core.projection import ProjectionResult, project
from repro.core.search import CommunitySearch
from repro.engine import (
    AlgorithmRegistry,
    AlgorithmSpec,
    ProjectionCache,
    QueryContext,
    QueryEngine,
    QuerySpec,
)
from repro.exceptions import (
    EdgeError,
    GraphError,
    IntegrityError,
    NodeNotFoundError,
    QueryError,
    ReproError,
    SchemaError,
)
from repro.graph.database_graph import DatabaseGraph
from repro.graph.digraph import DiGraph
from repro.rdb.database import Database
from repro.rdb.graph_builder import build_database_graph
from repro.rdb.schema import Column, ForeignKey, TableSchema
from repro.text.inverted_index import CommunityIndex
from repro.text.tokenizer import Tokenizer, tokenize

__version__ = "1.0.0"

__all__ = [
    "AlgorithmRegistry",
    "AlgorithmSpec",
    "Column",
    "Community",
    "CommunityIndex",
    "CommunitySearch",
    "Core",
    "Database",
    "DatabaseGraph",
    "DiGraph",
    "EdgeError",
    "ForeignKey",
    "GraphError",
    "IntegrityError",
    "NodeNotFoundError",
    "ProjectionCache",
    "ProjectionResult",
    "QueryContext",
    "QueryEngine",
    "QueryError",
    "QuerySpec",
    "ReproError",
    "SchemaError",
    "TableSchema",
    "TopKStream",
    "Tokenizer",
    "all_communities",
    "build_database_graph",
    "enumerate_all",
    "get_community",
    "project",
    "tokenize",
    "top_k",
    "__version__",
]
