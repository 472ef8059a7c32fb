"""Empty-input guards for the continuation-session operators (the
degenerate-input discipline: an empty corpus yields empty results, not
crashes)."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def empty_sf(tmp_path_factory):
    d = tmp_path_factory.mktemp("empty_sf")
    pq.write_table(pa.table({
        "doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string()),
        "lang": pa.array([], pa.string()), "source": pa.array([], pa.string()),
        "n_chars": pa.array([], pa.int64())}), str(d / "documents.parquet"))
    pq.write_table(pa.table({
        "event_id": pa.array([], pa.int64()),
        "ts": pa.array([], pa.timestamp("us")),
        "user_id": pa.array([], pa.int64()),
        "event_type": pa.array([], pa.string()),
        "value": pa.array([], pa.float64()),
        "props": pa.array([], pa.string())}), str(d / "events.parquet"))
    pq.write_table(pa.table({
        "o_orderkey": pa.array([], pa.int64()),
        "o_custkey": pa.array([], pa.int64()),
        "o_orderstatus": pa.array([], pa.string()),
        "o_totalprice": pa.array([], pa.float64()),
        "o_orderdate": pa.array([], pa.timestamp("us")),
        "o_orderpriority": pa.array([], pa.string())}),
        str(d / "orders.parquet"))
    pq.write_table(pa.table({
        "vec_id": pa.array([], pa.int64()),
        "embedding": pa.array([], pa.list_(pa.float32())),
        "label": pa.array([], pa.int32())}), str(d / "embeddings.parquet"))
    return str(d)


@pytest.mark.parametrize("qname", [
    "q_merge_upsert", "q_scd2_intervals", "q_skipgram_pairs",
    "q_equidepth_histogram", "q_late_events", "q_user_active_time",
    "q_source_token_share", "q_funnel_window", "q_window_join_counts",
    "q_collocations_llr", "q_pca_topcomp", "q_mg_heavy_hitters",
    "q_corpus_shuffle_head",
])
def test_empty_corpus_yields_empty(empty_sf, qname):
    from odinson_ray.pipelines.queries import QUERIES

    import pandas as pd

    r = QUERIES[qname.removeprefix("q_")](empty_sf)
    if isinstance(r, pd.DataFrame):
        n = len(r)
    elif isinstance(r, pa.Table):
        n = r.num_rows
    else:
        n = r.count()
    if qname == "q_funnel_window":
        assert n <= 1  # a single zero-count row is acceptable
    else:
        assert n == 0


def test_zorder_empty_source(empty_sf, monkeypatch, tmp_path):
    monkeypatch.setenv("ODINSON_RAY_ANN_CACHE", str(tmp_path / "cache"))
    import odinson_ray.stages.layout as layout

    monkeypatch.setattr(layout, "_CACHE_ROOT", str(tmp_path / "cache"))
    from odinson_ray.pipelines.queries.formats import q_zorder_range_agg

    r = q_zorder_range_agg(empty_sf)
    df = r.to_pandas() if hasattr(r, "to_pandas") else r
    assert int(df["n"].iloc[0]) == 0 and int(df["cents"].iloc[0]) == 0
