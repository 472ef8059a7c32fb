"""pipelines/queries: the one query registry. ``@query`` refuses a name
declared twice, the registry holds every query and oracle, and every
query the bench times is registered."""

import importlib.util
import pathlib

import pytest

from odinson_ray.pipelines.queries import ORACLES, QUERIES, query

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_query_rejects_a_duplicate_name():
    name = "probe_registered_once"

    @query(name, oracle="SELECT 1 AS x")
    def q_probe(sf_dir):
        return None

    try:
        assert QUERIES[name] is q_probe and ORACLES[name] == "SELECT 1 AS x"
        with pytest.raises(ValueError, match=name):
            @query(name)
            def q_probe_again(sf_dir):
                return None
        assert QUERIES[name] is q_probe
    finally:
        QUERIES.pop(name, None)
        ORACLES.pop(name, None)


def test_registry_holds_every_query_and_oracle():
    assert len(QUERIES) == 281
    assert len(ORACLES) == 266
    assert ORACLES.keys() <= QUERIES.keys()


def test_bench_queries_are_registered():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert bench.BENCH_QUERIES
    assert [n for n in bench.BENCH_QUERIES if n not in QUERIES] == []
