"""The query suite: Ray Data pipelines with exact DuckDB oracles.

Each ``q_*`` function takes ``sf_dir`` (a data dir holding region,
nation, customer, supplier, part, orders, lineitem, events, documents
and embeddings tables) and returns a Dataset, DataFrame or Arrow
table. A query is declared once, next to its oracle, with
``@query(name, oracle=SQL)``: ``QUERIES[name]`` is the function and
``ORACLES[name]`` the SQL DuckDB runs over the same tables (views of
the same names). Column names match exactly and floats are rounded the
same way on both sides. A query without an oracle says why where it is
declared.

The queries live in one module per domain: ``relational``, ``events``,
``text``, ``dedup``, ``similarity``, ``patterns``, ``graph`` and
``formats``. They read their inputs with ``sources.io.table``.
"""

from __future__ import annotations

from typing import Any, Callable

QUERIES: dict[str, Callable[..., Any]] = {}
ORACLES: dict[str, str] = {}


def query(name: str, oracle: str | None = None):
    """Register the decorated function as ``QUERIES[name]`` and, when
    given, ``oracle`` as ``ORACLES[name]``; a name is declared once."""

    def add(fn):
        if name in QUERIES:
            raise ValueError(f"query {name!r} is already registered")
        QUERIES[name] = fn
        if oracle is not None:
            ORACLES[name] = oracle
        return fn

    return add


from . import relational, events, text, dedup  # noqa: E402,F401
from . import similarity, patterns, graph, formats  # noqa: E402,F401
from .graph import ORACLE_KG_TRIPLES  # noqa: E402,F401
