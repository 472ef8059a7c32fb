"""Session-5 batch B: TPC-H Q13/Q7/Q17/Q12/Q22 classes, JSON props
extraction, hive-partitioned pruned reads — empty-input guards plus the
semantics the oracle gate can't see (zero-order customers at sf0.01,
actual file pruning)."""

import json
import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _rows(r):
    if isinstance(r, pd.DataFrame):
        return len(r)
    if isinstance(r, pa.Table):
        return r.num_rows
    return r.count()


@pytest.fixture(scope="module")
def empty_sf(tmp_path_factory):
    d = tmp_path_factory.mktemp("empty_sf9")
    pq.write_table(pa.table({
        "l_orderkey": pa.array([], pa.int64()),
        "l_partkey": pa.array([], pa.int64()),
        "l_suppkey": pa.array([], pa.int64()),
        "l_quantity": pa.array([], pa.float64()),
        "l_extendedprice": pa.array([], pa.float64()),
        "l_discount": pa.array([], pa.float64()),
        "l_shipdate": pa.array([], pa.timestamp("us"))}),
        str(d / "lineitem.parquet"))
    pq.write_table(pa.table({
        "o_orderkey": pa.array([], pa.int64()),
        "o_custkey": pa.array([], pa.int64()),
        "o_orderdate": pa.array([], pa.timestamp("us")),
        "o_orderpriority": pa.array([], pa.string())}),
        str(d / "orders.parquet"))
    pq.write_table(pa.table({
        "c_custkey": pa.array([], pa.int64()),
        "c_nationkey": pa.array([], pa.int32()),
        "c_acctbal": pa.array([], pa.float64())}),
        str(d / "customer.parquet"))
    pq.write_table(pa.table({
        "s_suppkey": pa.array([], pa.int64()),
        "s_nationkey": pa.array([], pa.int32())}),
        str(d / "supplier.parquet"))
    pq.write_table(pa.table({
        "n_nationkey": pa.array([], pa.int32()),
        "n_name": pa.array([], pa.string())}), str(d / "nation.parquet"))
    pq.write_table(pa.table({
        "event_id": pa.array([], pa.int64()),
        "ts": pa.array([], pa.timestamp("us")),
        "user_id": pa.array([], pa.int64()),
        "event_type": pa.array([], pa.string()),
        "value": pa.array([], pa.float64()),
        "props": pa.array([], pa.string())}), str(d / "events.parquet"))
    pq.write_table(pa.table({
        "doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string()),
        "lang": pa.array([], pa.string()), "source": pa.array([], pa.string()),
        "n_chars": pa.array([], pa.int64())}), str(d / "documents.parquet"))
    return str(d)


@pytest.mark.parametrize("qname,n", [
    ("q_tpch_q13", 0), ("q_nation_trade", 0),
    ("q_small_qty_revenue", 1),        # scalar aggregate: one zero row
    ("q_late_shipments", 0), ("q_idle_rich_customers", 0),
    ("q_json_props_stats", 0), ("q_hive_pruned_agg", 0),
])
def test_empty_inputs(empty_sf, qname, n):
    from odinson_ray.pipelines.queries import QUERIES

    got = QUERIES[qname.removeprefix("q_")](empty_sf)
    assert _rows(got) == n
    if qname == "q_small_qty_revenue":
        assert got["rev_cents"].tolist() == [0]


def test_q13_counts_zero_order_customers(tmp_path):
    """sf0.01 has no order-less customer, so the oracle gate never
    exercises the zero-fill arm of the left-outer join."""
    from odinson_ray.pipelines.queries.relational import q_tpch_q13

    pq.write_table(pa.table({
        "c_custkey": pa.array([1, 2, 3, 4], pa.int64())}),
        str(tmp_path / "customer.parquet"))
    pq.write_table(pa.table({
        "o_custkey": pa.array([1, 1, 1, 2], pa.int64())}),
        str(tmp_path / "orders.parquet"))
    got = (q_tpch_q13(str(tmp_path)).to_pandas()
           .sort_values("c_count").reset_index(drop=True))
    assert got["c_count"].tolist() == [0, 1, 3]
    assert got["custdist"].tolist() == [2, 1, 1]


def test_hive_scan_prunes_files(tmp_path):
    """The pruned scan must open ONLY the requested partition's files
    (manifest says so) and still be exact; missing values scan zero."""
    import duckdb

    from odinson_ray.stages.layout import hive_layout, hive_scan

    langs = ["en", "fr", "de"] * 40
    src = str(tmp_path / "documents.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(range(120), pa.int64()),
        "text": pa.array(["x"] * 120, pa.string()),
        "lang": pa.array(langs, pa.string()),
        "source": pa.array([f"s{i % 3}" for i in range(120)], pa.string()),
        "n_chars": pa.array([i * 7 for i in range(120)], pa.int64()),
    }), src)
    root = hive_layout(src, "lang", ["doc_id", "source", "n_chars"])
    meta = json.load(open(os.path.join(root, "_meta.json")))
    assert set(meta["parts"]) == {"en", "fr", "de"}
    en_files = meta["parts"]["en"]
    all_files = [f for fl in meta["parts"].values() for f in fl]
    assert 0 < len(en_files) < len(all_files)
    assert all(f.startswith("lang=en/") for f in en_files)

    got = (hive_scan(root, "en").to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    want = duckdb.sql(
        f"SELECT doc_id, source, n_chars, lang FROM read_parquet('{src}') "
        "WHERE lang = 'en' ORDER BY doc_id").df()
    pd.testing.assert_frame_equal(
        got[["doc_id", "source", "n_chars", "lang"]],
        want[["doc_id", "source", "n_chars", "lang"]])
    assert hive_scan(root, "zz").count() == 0


def test_hive_layout_cache_hit(tmp_path):
    """Same source stats -> same root, no rebuild (the _SUCCESS gate)."""
    from odinson_ray.stages.layout import hive_layout

    src = str(tmp_path / "documents.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "lang": pa.array(["en", "fr"], pa.string()),
        "source": pa.array(["a", "b"], pa.string()),
        "n_chars": pa.array([3, 4], pa.int64())}), src)
    r1 = hive_layout(src, "lang", ["doc_id", "source", "n_chars"])
    stamp = os.stat(os.path.join(r1, "_meta.json")).st_mtime_ns
    r2 = hive_layout(src, "lang", ["doc_id", "source", "n_chars"])
    assert r1 == r2
    assert os.stat(os.path.join(r2, "_meta.json")).st_mtime_ns == stamp
