"""Session-5 batch A: caption-pair mining, readability, Q18/Q14-class
aggregates, CEP conversions — semantics pins + empty-input guards
(the oracle gate covers exactness; these pin the edge behavior)."""

import numpy as np
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
    d = tmp_path_factory.mktemp("empty_sf8")
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
        "l_orderkey": pa.array([], pa.int64()),
        "l_partkey": pa.array([], pa.int64()),
        "l_quantity": pa.array([], pa.float64()),
        "l_extendedprice": pa.array([], pa.float64()),
        "l_discount": pa.array([], pa.float64()),
        "l_shipdate": pa.array([], pa.timestamp("us"))}),
        str(d / "lineitem.parquet"))
    pq.write_table(pa.table({
        "o_orderkey": pa.array([], pa.int64()),
        "o_custkey": pa.array([], pa.int64()),
        "o_orderdate": pa.array([], pa.timestamp("us")),
        "o_totalprice": pa.array([], pa.float64())}),
        str(d / "orders.parquet"))
    pq.write_table(pa.table({
        "c_custkey": pa.array([], pa.int64()),
        "c_name": pa.array([], pa.string())}), str(d / "customer.parquet"))
    pq.write_table(pa.table({
        "p_partkey": pa.array([], pa.int64()),
        "p_type": pa.array([], pa.string())}), str(d / "part.parquet"))
    return str(d)


@pytest.mark.parametrize("qname", [
    "q_media_caption_pairs", "q_doc_readability", "q_tpch_q18",
    "q_promo_share", "q_cep_conversions",
])
def test_empty_inputs(empty_sf, qname):
    from odinson_ray.pipelines.queries import QUERIES

    assert _rows(QUERIES[qname.removeprefix("q_")](empty_sf)) == 0


def test_cep_reset_semantics(tmp_path):
    """view->purchase with reset: each view streak converts at most one
    purchase; purchases with no view since the previous purchase do NOT
    count; ts ties break by event_id."""
    from odinson_ray.pipelines.queries.events import q_cep_conversions

    t0 = 1_600_000_000_000_000
    rows = [
        # user 1: v p p v p  -> purchases 1 and 3 convert
        (1, 1, t0 + 1, "view"), (2, 1, t0 + 2, "purchase"),
        (3, 1, t0 + 3, "purchase"), (4, 1, t0 + 4, "view"),
        (5, 1, t0 + 5, "purchase"),
        # user 2: purchases only -> no row
        (6, 2, t0 + 1, "purchase"), (7, 2, t0 + 2, "purchase"),
        # user 3: ts TIE — view(event_id 8) before purchase(event_id 9)
        # at the same timestamp counts (event_id breaks the tie)
        (8, 3, t0 + 1, "view"), (9, 3, t0 + 1, "purchase"),
        # user 4: p then v (view after the last purchase) -> no row
        (10, 4, t0 + 1, "purchase"), (11, 4, t0 + 2, "view"),
        # noise event types are ignored
        (12, 1, t0 + 0, "click"),
    ]
    pq.write_table(pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "user_id": pa.array([r[1] for r in rows], pa.int64()),
        "ts": pa.array([r[2] for r in rows], pa.timestamp("us")),
        "event_type": pa.array([r[3] for r in rows], pa.string()),
        "value": pa.array([0.0] * len(rows), pa.float64()),
        "props": pa.array([""] * len(rows), pa.string()),
    }), str(tmp_path / "events.parquet"))
    got = (q_cep_conversions(str(tmp_path)).to_pandas()
           .sort_values("user_id").reset_index(drop=True))
    assert got["user_id"].tolist() == [1, 3]
    assert got["n_conversions"].tolist() == [2, 1]


def test_caption_pairs_scan_crosses_media_spans(tmp_path):
    """doc_id=0 has image AND audio with ONE sentence: the audio span's
    nearest preceding text must skip over the image span; the image's
    following caption is empty (no later text span)."""
    from odinson_ray.pipelines.queries.formats import q_media_caption_pairs

    sent = " ".join(f"w{i}" for i in range(10))       # one 10-token sentence
    long = " ".join(f"t{i}" for i in range(30))       # two sentences
    pq.write_table(pa.table({
        "doc_id": pa.array([0, 5], pa.int64()),       # 0%5=0%11=0; 5%5=0
        "text": pa.array([sent, long], pa.string()),
        "lang": pa.array(["en", "en"], pa.string()),
        "source": pa.array(["s", "s"], pa.string()),
        "n_chars": pa.array([len(sent), len(long)], pa.int64()),
    }), str(tmp_path / "documents.parquet"))
    got = (q_media_caption_pairs(str(tmp_path)).to_pandas()
           .sort_values(["doc_id", "media_ref"]).reset_index(drop=True))
    by_ref = {r.media_ref: r for r in got.itertuples()}
    img0 = by_ref["media://img/0"]
    assert img0.caption_before == sent and img0.caption_after == ""
    aud0 = by_ref["media://aud/0"]
    assert aud0.caption_before == sent and aud0.caption_after == ""
    img5 = by_ref["media://img/5"]
    toks = long.split(" ")
    assert img5.caption_before == " ".join(toks[:20])
    assert img5.caption_after == " ".join(toks[20:])
    assert len(got) == 3
