"""Empty-input guards for the session-8 operators (an empty corpus
yields empty results, not crashes)."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def empty_docs(tmp_path_factory):
    d = tmp_path_factory.mktemp("empty_docs_r4u")
    pq.write_table(pa.table({
        "doc_id": pa.array([], pa.int64()),
        "text": pa.array([], pa.string()),
        "lang": pa.array([], pa.string()),
        "source": pa.array([], pa.string()),
        "n_chars": pa.array([], pa.int64())}), str(d / "documents.parquet"))
    return str(d)


def test_dsir_select_empty(ray_session, empty_docs):
    from odinson_ray.pipelines.queries.text import q_dsir_select

    assert q_dsir_select(empty_docs).take_all() == []


def test_dedup_delta_empty(ray_session, empty_docs):
    from odinson_ray.pipelines.queries.dedup import q_dedup_delta

    assert q_dedup_delta(empty_docs).take_all() == []


def test_vocab_hapax_empty(ray_session, empty_docs):
    from odinson_ray.pipelines.queries.text import q_vocab_hapax

    assert q_vocab_hapax(empty_docs).take_all() == []


def test_coref_antecedents_empty(ray_session, empty_docs):
    from odinson_ray.pipelines.queries.text import q_coref_antecedents

    assert q_coref_antecedents(empty_docs).take_all() == []


def test_k_anonymity_empty(ray_session, empty_docs):
    from odinson_ray.pipelines.queries.text import q_k_anonymity_risk

    assert q_k_anonymity_risk(empty_docs).take_all() == []


def test_kg_bgp_query_empty(ray_session, empty_docs):
    from odinson_ray.pipelines.queries.graph import q_kg_bgp_query

    assert q_kg_bgp_query(empty_docs).take_all() == []
