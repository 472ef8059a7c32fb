"""Final-session batch (queries7): sorted-neighborhood blocking, band
join, data-quality gate — the distributed mechanics each one relies on."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


def _local_snm_pairs(sf_dir, window=3):
    t = pq.read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "text"]).to_pandas()
    t["k"] = t["text"].str[:7]
    t = t.sort_values(["k", "doc_id"]).reset_index(drop=True)
    ids = t["doc_id"].to_numpy()
    pairs = set()
    for j in range(len(ids)):
        for i in range(max(0, j - window + 1), j):
            pairs.add((int(ids[i]), int(ids[j])))
    return pairs


def test_snm_pairs_match_bruteforce(ray_session):
    from odinson_ray.pipelines.queries.dedup import q_sorted_neighborhood_pairs

    got = {(r["doc_a"], r["doc_b"])
           for r in q_sorted_neighborhood_pairs(SF).take_all()}
    assert got == _local_snm_pairs(SF)


def test_snm_chunk_boundary_exact(ray_session):
    """Tiny chunks force MANY cross-chunk windows: the boundary
    replication (last window-1 ranks forwarded) must reproduce the
    brute-force pair set exactly — no lost or duplicated boundary
    pair."""
    from odinson_ray.pipelines.queries.dedup import q_sorted_neighborhood_pairs

    got_rows = q_sorted_neighborhood_pairs(SF, window=3, chunk=7).take_all()
    got = [(r["doc_a"], r["doc_b"]) for r in got_rows]
    assert len(got) == len(set(got)), "duplicated pair across chunks"
    assert set(got) == _local_snm_pairs(SF, window=3)


def test_band_join_matches_bruteforce(ray_session):
    # sf0.01: the band is non-trivially populated (24 nations match);
    # sf0.001 would vacuously pass with zero pairs
    from odinson_ray.pipelines.queries.relational import q_band_join_acctbal

    sf = "/root/testdata/sf0.01"
    sup = pq.read_table(f"{sf}/supplier.parquet").to_pandas()
    cust = pq.read_table(f"{sf}/customer.parquet").to_pandas()
    m = sup.merge(cust, left_on="s_nationkey", right_on="c_nationkey")
    m = m[(m.s_acctbal - m.c_acctbal).abs() <= 100.0]
    expect = m.groupby("s_nationkey").size().to_dict()

    got = {r["nationkey"]: r["n_pairs"]
           for r in q_band_join_acctbal(sf).take_all()}
    assert len(got) > 0
    assert got == {int(k): int(v) for k, v in expect.items()}


def test_band_join_boundary_bucket(ray_session, tmp_path):
    """Pairs exactly delta apart straddle a bucket boundary — the 3-way
    replication must still find them exactly once."""
    from odinson_ray.pipelines.queries.relational import q_band_join_acctbal

    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(pa.table({
        "s_nationkey": pa.array([1, 1], pa.int64()),
        "s_acctbal": pa.array([100.0, 350.0], pa.float64()),
        "s_suppkey": pa.array([1, 2], pa.int64()),
        "s_name": pa.array(["a", "b"])}), d / "supplier.parquet")
    pq.write_table(pa.table({
        "c_nationkey": pa.array([1, 1, 1, 2], pa.int64()),
        # 200.0 is EXACTLY delta from 100.0 (inclusive bound, next
        # bucket); 450.0001 is just outside delta of 350
        "c_acctbal": pa.array([200.0, 250.0, 450.0001, 100.0],
                              pa.float64()),
        "c_custkey": pa.array([1, 2, 3, 4], pa.int64()),
        "c_name": pa.array(["w", "x", "y", "z"]),
        "c_mktsegment": pa.array(["s"] * 4)}), d / "customer.parquet")
    got = {r["nationkey"]: r["n_pairs"]
           for r in q_band_join_acctbal(str(d)).take_all()}
    # pairs: (100,200) dist 100 inclusive; (350,250) dist 100;
    # (350,450.0001) excluded; (100,100@nation2) cross-nation excluded
    assert got == {1: 2}


def test_dq_checks_flags_synthetic_violations(ray_session, tmp_path):
    from odinson_ray.pipelines.queries.relational import q_dq_checks

    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(pa.table({
        "o_orderkey": pa.array([1, 2, 2, 3], pa.int64()),   # dup pk: 1
        "o_custkey": pa.array([10, 99, 10, None], pa.int64()),
        "o_orderstatus": pa.array(["O"] * 4),
        "o_totalprice": pa.array([1.0] * 4, pa.float64()),
        "o_orderpriority": pa.array(["1-URGENT"] * 4)}),
        d / "orders.parquet")
    pq.write_table(pa.table({
        "c_custkey": pa.array([10], pa.int64()),
        "c_name": pa.array(["c"]),
        "c_nationkey": pa.array([1], pa.int64()),
        "c_acctbal": pa.array([0.0], pa.float64()),
        "c_mktsegment": pa.array(["s"])}), d / "customer.parquet")
    pq.write_table(pa.table({
        "l_orderkey": pa.array([1, 7, 7], pa.int64()),      # 2 orphans
        "l_quantity": pa.array([5.0, -1.0, 0.0], pa.float64()),
        "l_extendedprice": pa.array([1.0] * 3, pa.float64())}),
        d / "lineitem.parquet")

    df = q_dq_checks(str(d)).set_index("check_name")["violations"]
    assert df["lineitem_orphan_orderkey"] == 2
    # custkey 99 is orphan; the NULL custkey row is counted by the
    # null check, not the FK check (SQL NOT EXISTS keeps it though —
    # both engines agree because NULL = c_custkey is never true)
    assert df["orders_orphan_custkey"] == 2
    assert df["orders_duplicate_pk"] == 1
    assert df["lineitem_nonpositive_qty"] == 2
    assert df["orders_null_custkey"] == 1


def test_dq_checks_clean_testdata(ray_session):
    from odinson_ray.pipelines.queries.relational import q_dq_checks

    df = q_dq_checks(SF)
    assert list(df.columns) == ["check_name", "violations"]
    assert (df["violations"] >= 0).all()


def test_temporal_triples_window_sane(ray_session):
    from odinson_ray.pipelines.queries.graph import q_kg_temporal_triples

    df = q_kg_temporal_triples(SF).to_pandas()
    assert len(df) > 0
    assert (df["first_seen"] <= df["last_seen"]).all()
    assert (df["n_docs"] >= 1).all()
    # window width bounded by the synthetic day domain
    assert (df["last_seen"] - df["first_seen"]).dt.days.max() <= 364


def test_surface_variants_counts(ray_session):
    from odinson_ray.pipelines.queries.graph import q_kg_surface_variants

    df = q_kg_surface_variants(SF).to_pandas()
    assert (df["n_surfaces"] >= 1).all()
    assert (df["n_mentions"] >= df["n_surfaces"]).all()


def test_surface_variants_merges_plurals(ray_session, tmp_path):
    """The testdata vocabulary has no plural forms, so engineer a corpus
    where 'table' and 'tables' both appear as SVO subjects: the
    canonicalizer must merge them under one entity with n_surfaces=2."""
    from odinson_ray.pipelines.queries.graph import q_kg_surface_variants

    d = tmp_path / "sf"
    d.mkdir()
    # SVO shape: trigger at sentence-local position l%5==0, subject at
    # l+1, object at l+2 (20-token sentences)
    sent = ("scan tables row x x scan table row x x "
            "scan tables row x x scan table row x x").split()
    text = " ".join(sent)
    pq.write_table(pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "text": pa.array([text, text]),
        "lang": pa.array(["en", "en"]),
        "source": pa.array(["t", "t"]),
        "n_chars": pa.array([len(text)] * 2, pa.int64())}),
        d / "documents.parquet")
    df = q_kg_surface_variants(str(d)).to_pandas().set_index("entity")
    assert df.loc["ent:table", "n_surfaces"] == 2
    assert df.loc["ent:table", "example_surface"] == "table"


def test_fd_violations_synthetic(ray_session, tmp_path):
    from odinson_ray.pipelines.queries.relational import q_fd_violations

    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(pa.table({
        "o_orderkey": pa.array([1, 2, 3, 4], pa.int64()),
        "o_custkey": pa.array([10, 10, 20, 30], pa.int64()),
        # custkey 10 maps to TWO priorities -> 1 of 3 LHS violating
        "o_orderpriority": pa.array(["1-URGENT", "2-HIGH",
                                     "2-HIGH", "2-HIGH"]),
        # status 'O' maps to both priorities; 'F' to one
        "o_orderstatus": pa.array(["O", "O", "F", "F"]),
        "o_totalprice": pa.array([1.0] * 4, pa.float64())}),
        d / "orders.parquet")
    df = q_fd_violations(str(d)).set_index("fd_name")
    assert df.loc["custkey_determines_priority", "lhs_total"] == 3
    assert df.loc["custkey_determines_priority", "lhs_violating"] == 1
    assert df.loc["status_determines_priority", "lhs_total"] == 2
    assert df.loc["status_determines_priority", "lhs_violating"] == 1
    # priority -> status: 1-URGENT->{O}, 2-HIGH->{O,F} -> 1 violating
    assert df.loc["priority_determines_status", "lhs_violating"] == 1


def test_pred_cooccurrence_bounds(ray_session):
    from odinson_ray.pipelines.queries.graph import q_kg_pred_cooccurrence

    df = q_kg_pred_cooccurrence(SF).to_pandas()
    assert (df["pred_a"] < df["pred_b"]).all(), "pairs must be ordered"
    assert (df["n_docs"] >= 1).all()
    preds = {"scan", "join", "sort", "merge", "filter", "group"}
    assert set(df["pred_a"]) <= preds and set(df["pred_b"]) <= preds


def test_triple_confidence_consistency(ray_session):
    from odinson_ray.pipelines.queries.graph import q_kg_triple_confidence

    df = q_kg_triple_confidence(SF).to_pandas()
    assert len(df) > 0
    assert (df["n_sources"] >= 1).all()
    assert (df["n_sources"] <= df["n_docs"]).all()
    assert (df["confidence"] == df["n_docs"] * df["n_sources"]).all()


def test_event_throttle_first_per_window(ray_session):
    from odinson_ray.pipelines.queries.events import q_event_throttle

    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["user_id", "event_id", "ts"]).to_pandas()
    tu = ev["ts"].astype("datetime64[us]").astype("int64")
    ev = ev.assign(tu=tu, ws=tu - tu % 300_000_000)
    first = (ev.sort_values(["tu", "event_id"])
             .groupby(["user_id", "ws"]).first().reset_index())
    expect = {(int(r.user_id), int(r.ws)): int(r.event_id)
              for r in first.itertuples()}

    got_df = q_event_throttle(SF).to_pandas()
    got = {(int(r.user_id),
            int(pd.Timestamp(r.window_start).value // 1000)):
           int(r.first_event_id) for r in got_df.itertuples()}
    assert got == expect


def test_curation_funnel_monotone_and_consistent(ray_session):
    from odinson_ray.pipelines.queries.text import q_curation_funnel

    df = q_curation_funnel(SF).set_index("stage")["docs_remaining"]
    assert df["total"] >= df["exact_dedup"] >= df["quality"] \
        >= df["decontaminated"]
    assert df["decontaminated"] > 0


def test_entity_timeline_consistency(ray_session):
    from odinson_ray.pipelines.queries.graph import q_kg_entity_timeline

    df = q_kg_entity_timeline(SF).to_pandas()
    assert len(df) > 0
    assert (df["first_seen"] <= df["last_seen"]).all()
    assert (df["n_active_days"] <= df["n_docs"]).all()
    assert (df["n_active_days"] >= 1).all()


def test_er_funnel_merges_typos(ray_session, tmp_path):
    """Engineered corpus: 'table'/'tables' collapse at the canon stage,
    'tabel' (transposition, distance 2) only at the edit-distance merge
    — the funnel must show each stage doing its own work."""
    from odinson_ray.pipelines.queries.graph import q_er_funnel

    d = tmp_path / "sf"
    d.mkdir()
    sent = ("scan table row x x scan tables row x x "
            "scan tabel row x x scan window row x x").split()
    text = " ".join(sent)
    pq.write_table(pa.table({
        "doc_id": pa.array([0], pa.int64()),
        "text": pa.array([text]),
        "lang": pa.array(["en"]),
        "source": pa.array(["t"]),
        "n_chars": pa.array([len(text)], pa.int64())}),
        d / "documents.parquet")
    df = q_er_funnel(str(d)).set_index("stage")["n"]
    # surfaces: table, tables, tabel, window, row (object) = 5
    assert df["surfaces"] == 5
    # canon: table(+tables), tabel, window, row = 4
    assert df["canon_groups"] == 4
    # ent:tabel and ent:table are distance 2 -> merged
    assert df["match_edges"] >= 1
    assert df["merged_clusters"] < df["canon_groups"]


def test_levenshtein_matches_duckdb(ray_session):
    import duckdb

    from odinson_ray.pipelines.queries.graph import _levenshtein

    con = duckdb.connect()
    cases = [("table", "tabel"), ("scan", "scans"), ("", "abc"),
             ("kitten", "sitting"), ("ent:x", "ent:x"), ("ab", "ba")]
    for a, b in cases:
        want = con.sql(f"SELECT levenshtein('{a}', '{b}')").fetchone()[0]
        assert _levenshtein(a, b) == want, (a, b)


def test_shortest_cost_triangle_inequality(ray_session):
    from odinson_ray.pipelines.queries.graph import q_kg_shortest_cost

    df = q_kg_shortest_cost(SF).to_pandas()
    assert (df["cost"] >= 0).all()
    assert (df["cost"] == 0).sum() == 1  # exactly the seed
    # every reachable node within 4 hops costs at most 4 * max edge w
    assert df["cost"].max() <= 4 * 1001


def test_postings_layout_cached_and_exact(ray_session):
    import os

    from odinson_ray.pipelines.queries.patterns import (
        _postings_layout, q_postings_layout_query)

    root1 = _postings_layout(SF)
    meta = os.path.join(root1, "_meta.json")
    stamp = os.stat(meta).st_mtime_ns
    root2 = _postings_layout(SF)
    assert root2 == root1
    assert os.stat(meta).st_mtime_ns == stamp, \
        "second build must reuse the published layout, not rewrite it"

    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id", "text"]).to_pandas()
    for token in ("scan", "join"):
        expect = set()
        for r in docs.itertuples():
            for i, tk in enumerate(r.text.split(" ")):
                if tk == token:
                    expect.add((int(r.doc_id), i // 20, i % 20))
        got = {(r["doc_id"], r["sent_id"], r["pos"])
               for r in q_postings_layout_query(SF, token=token).take_all()}
        assert got == expect


def test_indexed_phrase_matches_bruteforce(ray_session):
    from odinson_ray.pipelines.queries.patterns import q_indexed_phrase_query

    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id", "text"]).to_pandas()
    for phrase in (("scan", "join"), ("fast", "table", "value")):
        expect = set()
        for r in docs.itertuples():
            tks = r.text.split(" ")
            for i in range(len(tks) - len(phrase) + 1):
                s0, sk = i // 20, (i + len(phrase) - 1) // 20
                if s0 == sk and tuple(tks[i:i + len(phrase)]) == phrase:
                    expect.add((int(r.doc_id), s0, i % 20))
        got = {(r["doc_id"], r["sent_id"], r["start"]) for r in
               q_indexed_phrase_query(SF, phrase=phrase).take_all()}
        assert got == expect, phrase


def test_merge_layouts_guards_and_links(ray_session, tmp_path):
    """merge_layouts must refuse mismatched layouts and must hard-link
    (same inode), not copy."""
    import json
    import os

    import ray.data as rd_mod

    from odinson_ray.stages.layout import bucket_layout_ds, merge_layouts

    t1 = pa.table({"k": pa.array(["a", "b", "c"]),
                   "v": pa.array([1, 2, 3], pa.int64())})
    t2 = pa.table({"k": pa.array(["d", "e"]),
                   "v": pa.array([4, 5], pa.int64())})
    ra = bucket_layout_ds(rd_mod.from_arrow(t1), key="k", n_buckets=4,
                          tag="mergetest-a-v3")
    rb = bucket_layout_ds(rd_mod.from_arrow(t2), key="k", n_buckets=4,
                          tag="mergetest-b-v3")
    rc = bucket_layout_ds(rd_mod.from_arrow(t2), key="k", n_buckets=8,
                          tag="mergetest-c-v3")

    with pytest.raises(ValueError):
        merge_layouts(ra, rc)  # bucket-count mismatch

    merged = merge_layouts(ra, rb)
    with open(os.path.join(merged, "_meta.json")) as fh:
        m = json.load(fh)
    rows = []
    for files in m["buckets"].values():
        for rel in files:
            p = os.path.join(merged, rel)
            assert os.stat(p).st_nlink >= 2, "must hard-link, not copy"
            rows.extend(pq.read_table(p).to_pylist())
    assert sorted((r["k"], r["v"]) for r in rows) == \
        [("a", 1), ("b", 2), ("c", 3), ("d", 4), ("e", 5)]


def test_indexed_regex_vocab_cache_and_bruteforce(ray_session):
    import os

    from odinson_ray.pipelines.queries.patterns import (_postings_layout,
                                                        _term_dictionary,
                                                        q_indexed_regex_query)

    root = _postings_layout(SF)
    vocab = _term_dictionary(root)
    assert os.path.exists(os.path.join(root, "_vocab.parquet"))
    assert _term_dictionary(root) == vocab  # second read hits the cache

    import re

    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id", "text"]).to_pandas()
    rx = re.compile(r"sca.*|j[a-z]in")
    expect = set()
    for r in docs.itertuples():
        for i, tk in enumerate(r.text.split(" ")):
            if rx.fullmatch(tk):
                expect.add((tk, int(r.doc_id), i // 20, i % 20))
    got = {(r["token"], r["doc_id"], r["sent_id"], r["pos"])
           for r in q_indexed_regex_query(SF).take_all()}
    assert got == expect
