"""Session-6 batch H: TPC-H Q21/Q2/Q15 classes, ORC roundtrip, naive
Bayes, multi-source harmonic centrality — semantic pins on hand-built
inputs (the sf0.01 DuckDB oracles cover the full-scale equivalence)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module", autouse=True)
def _ray(ray_session):
    yield


def _ts(s):
    return pd.Timestamp(s)


def test_waiting_suppliers_sole_late_on_multi_supplier_f_orders(tmp_path):
    """Qualifies only when the order is status F, has >1 distinct
    supplier, and EXACTLY ONE distinct supplier shipped late — the
    Q21 EXISTS/NOT-EXISTS pair. Duplicate late lines from the same
    supplier count once (distinct semantics)."""
    from odinson_ray.pipelines.queries.relational import q_waiting_suppliers

    pq.write_table(pa.table({
        "o_orderkey": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "o_orderdate": pa.array([_ts("2020-01-01")] * 5,
                                pa.timestamp("us")),
        "o_orderstatus": pa.array(["F", "F", "F", "O", "F"], pa.string()),
    }), str(tmp_path / "orders.parquet"))
    rows = [
        (1, 1, "2020-06-01"),  # late           } order 1: supp {1,2},
        (1, 1, "2020-07-01"),  # late dup supp  }  only 1 late -> supp 1
        (1, 2, "2020-01-15"),  # on time        }
        (2, 1, "2020-06-01"),  # single-supplier order -> excluded
        (3, 1, "2020-06-01"),  # both late -> excluded
        (3, 2, "2020-06-01"),
        (4, 1, "2020-06-01"),  # status O -> excluded
        (4, 2, "2020-01-15"),
        (5, 2, "2020-01-15"),  # order 5: only supp 3 late -> supp 3
        (5, 3, "2020-06-01"),
    ]
    pq.write_table(pa.table({
        "l_orderkey": pa.array([r[0] for r in rows], pa.int64()),
        "l_suppkey": pa.array([r[1] for r in rows], pa.int64()),
        "l_shipdate": pa.array([_ts(r[2]) for r in rows],
                               pa.timestamp("us")),
    }), str(tmp_path / "lineitem.parquet"))

    got = q_waiting_suppliers(str(tmp_path)).to_pandas()
    assert list(zip(got["l_suppkey"], got["numwait"])) == [(1, 1), (3, 1)]


def test_cheapest_supplier_argmin_with_suppkey_tiebreak(tmp_path):
    from odinson_ray.pipelines.queries.relational import q_cheapest_supplier

    rows = [  # (part, supp, ext, qty) -> unit micro
        (1, 5, 20.0, 10.0),   # 2.0
        (1, 3, 4.0, 2.0),     # 2.0 (tie, smaller supp — but 7 is cheaper)
        (1, 7, 3.0, 2.0),     # 1.5 -> winner
        (2, 9, 7.0, 2.0),     # 3.5
        (3, 6, 4.0, 2.0),     # 2.0 } exact tie at part 3:
        (3, 4, 4.0, 2.0),     # 2.0 }  smaller suppkey 4 wins
    ]
    pq.write_table(pa.table({
        "l_partkey": pa.array([r[0] for r in rows], pa.int64()),
        "l_suppkey": pa.array([r[1] for r in rows], pa.int64()),
        "l_extendedprice": pa.array([r[2] for r in rows], pa.float64()),
        "l_quantity": pa.array([r[3] for r in rows], pa.float64()),
    }), str(tmp_path / "lineitem.parquet"))

    got = (q_cheapest_supplier(str(tmp_path)).to_pandas()
           .sort_values("l_partkey").reset_index(drop=True))
    assert list(zip(got["l_partkey"], got["l_suppkey"],
                    got["unit_micro"])) == [
        (1, 7, 1_500_000), (2, 9, 3_500_000), (3, 4, 2_000_000)]


def test_top_supplier_revenue_window_and_max_ties(tmp_path):
    """Out-of-window rows are pruned; ALL suppliers tied at the max are
    returned (Q15 returns every supplier matching the max view row)."""
    from odinson_ray.pipelines.queries.relational import q_top_supplier_revenue

    rows = [  # (supp, ext, disc, shipdate)
        (1, 100.0, 0.0, "1996-02-01"),
        (2, 50.0, 0.0, "1996-02-10"),
        (2, 50.0, 0.0, "1996-03-01"),
        (3, 999.0, 0.0, "1997-01-01"),  # outside the window
    ]
    pq.write_table(pa.table({
        "l_suppkey": pa.array([r[0] for r in rows], pa.int64()),
        "l_extendedprice": pa.array([r[1] for r in rows], pa.float64()),
        "l_discount": pa.array([r[2] for r in rows], pa.float64()),
        "l_shipdate": pa.array([_ts(r[3]) for r in rows],
                               pa.timestamp("us")),
    }), str(tmp_path / "lineitem.parquet"))

    got = q_top_supplier_revenue(str(tmp_path)).to_pandas()
    assert list(zip(got["l_suppkey"], got["total_cents"])) == [
        (1, 10_000), (2, 10_000)]


def test_orc_roundtrip_matches_direct_agg(tmp_path):
    from odinson_ray.pipelines.queries.formats import q_orc_roundtrip_agg

    langs = ["en", "en", "de", "fr", "de", "en"]
    texts = ["a b", "ccc", "dd", "e", "ff ff", "ggg g"]
    pq.write_table(pa.table({
        "doc_id": pa.array(range(6), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(langs, pa.string()),
        "source": pa.array(["s"] * 6, pa.string()),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    }), str(tmp_path / "documents.parquet"))

    got = (q_orc_roundtrip_agg(str(tmp_path)).to_pandas()
           .sort_values("lang").reset_index(drop=True))
    want = (pd.DataFrame({"lang": langs,
                          "n_chars": [len(t) for t in texts]})
            .groupby("lang").agg(n=("lang", "size"),
                                 total_chars=("n_chars", "sum"))
            .reset_index())
    assert list(got["lang"]) == list(want["lang"])
    assert list(got["n"]) == list(want["n"])
    assert list(got["total_chars"]) == list(want["total_chars"])


def test_nb_lang_confusion_separable_corpus_is_diagonal(tmp_path):
    """Disjoint vocabularies per language -> the self-classification
    confusion matrix is exactly diagonal."""
    from odinson_ray.pipelines.queries.text import q_nb_lang_confusion

    docs = [("en", "the cat"), ("en", "the dog"), ("en", "the cow"),
            ("de", "der hund"), ("de", "der baum")]
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(docs)), pa.int64()),
        "text": pa.array([t for _, t in docs], pa.string()),
        "lang": pa.array([l for l, _ in docs], pa.string()),
        "source": pa.array(["s"] * len(docs), pa.string()),
        "n_chars": pa.array([len(t) for _, t in docs], pa.int64()),
    }), str(tmp_path / "documents.parquet"))

    got = (q_nb_lang_confusion(str(tmp_path)).to_pandas()
           .sort_values(["lang", "lang_pred"]).reset_index(drop=True))
    assert list(zip(got["lang"], got["lang_pred"], got["n"])) == [
        ("de", "de", 2), ("en", "en", 3)]


def test_kg_harmonic_multi_source_min_distances(tmp_path, monkeypatch):
    """Hand-built graph: seeds are the top-3 out-degree vertices; each
    reachable vertex accumulates 1000000 // min-distance per seed; a
    vertex reachable from no seed is absent; level-0 self rows
    contribute nothing."""
    import ray.data as rd

    import odinson_ray.pipelines.kg as kg_mod
    from odinson_ray.pipelines.queries.graph import q_kg_harmonic

    edges = [("S1", "A"), ("S1", "B"), ("S1", "C"), ("S1", "S2"),
             ("S2", "A"), ("S2", "E"), ("S2", "F"),
             ("S3", "G"), ("S3", "H"),
             ("A", "P"), ("P", "Q"), ("G", "P"),
             ("X", "Y")]
    trip = pa.table({
        "subj_canon": [s for s, _ in edges],
        "obj_canon": [o for _, o in edges],
    })
    monkeypatch.setattr(kg_mod, "triples_dataset",
                        lambda sf_dir: rd.from_arrow(trip))
    got = (q_kg_harmonic(str(tmp_path)).to_pandas()
           .set_index("entity")["h_micro"].to_dict())
    assert got == {
        "A": 2_000_000, "B": 1_000_000, "C": 1_000_000,
        "S2": 1_000_000, "E": 1_500_000, "F": 1_500_000,
        "P": 1_500_000, "Q": 999_999, "G": 1_000_000, "H": 1_000_000,
    }


def test_kg_stress_paths_diamond_with_tail(tmp_path, monkeypatch):
    """Diamond S->{A,B}->C->D: sigma(C)=2, g(C)=1 (only D continues),
    g(A)=g(B)=2 (C then D), so A/B/C each carry 2 through-paths and the
    sink D carries 0; the disconnected component is absent."""
    import ray.data as rd

    import odinson_ray.pipelines.kg as kg_mod
    from odinson_ray.pipelines.queries.graph import q_kg_stress_paths

    edges = [("S", "A"), ("S", "B"), ("A", "C"), ("B", "C"),
             ("C", "D"), ("X", "Y")]
    trip = pa.table({
        "subj_canon": [s for s, _ in edges],
        "obj_canon": [o for _, o in edges],
    })
    monkeypatch.setattr(kg_mod, "triples_dataset",
                        lambda sf_dir: rd.from_arrow(trip))
    got = (q_kg_stress_paths(str(tmp_path), n_seeds=1).to_pandas()
           .set_index("entity")["through_paths"].to_dict())
    assert got == {"A": 2, "B": 2, "C": 2, "D": 0}


def _brute_seq3(df):
    out = {}
    for _, g in df.sort_values(["user_id", "ts", "event_id"]).groupby(
            "user_id"):
        t = list(g["event_type"])
        for i in range(len(t) - 2):
            out[(t[i], t[i + 1], t[i + 2])] = out.get(
                (t[i], t[i + 1], t[i + 2]), 0) + 1
    return out


def test_seq3_patterns_boundary_and_gap_paths(tmp_path):
    """Tiny bucket width forces triples to span 2 and 3 buckets, and one
    bucket holds >4 events to exercise the gap-sentinel payload; result
    must equal the brute-force sliding window over the full stream."""
    from odinson_ray.pipelines.queries.events import q_seq3_patterns

    rows = []
    eid = 0
    # user 1: 7 events in one bucket (gap path), then 1 + 1 + 2 events
    # in later buckets (cross-bucket triples incl. a 3-bucket span)
    for k, (ts_s, et) in enumerate([
            (0, "a"), (1, "b"), (2, "c"), (3, "d"), (4, "e"),
            (5, "a"), (6, "b"),          # bucket 0 (7 events)
            (10, "c"),                   # bucket 1 (1 event)
            (20, "d"),                   # bucket 2 (1 event)
            (30, "e"), (31, "a")]):      # bucket 3 (2 events)
        rows.append((eid, ts_s, 1, et)); eid += 1
    # user 2: exactly 3 events split 2|1 across buckets
    for ts_s, et in [(0, "x"), (1, "y"), (10, "z")]:
        rows.append((eid, ts_s, 2, et)); eid += 1

    df = pd.DataFrame({
        "event_id": [r[0] for r in rows],
        "ts": [pd.Timestamp("2020-01-01") + pd.Timedelta(seconds=r[1])
               for r in rows],
        "user_id": [r[2] for r in rows],
        "event_type": [r[3] for r in rows],
    })
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "events.parquet"))

    got = (q_seq3_patterns(str(tmp_path), bucket_s=10).to_pandas())
    got_d = {(r.t1, r.t2, r.t3): r.n for r in got.itertuples()}
    assert got_d == _brute_seq3(df)


def test_value_cume_dist_matches_pandas(tmp_path):
    from odinson_ray.pipelines.queries.events import q_value_cume_dist

    vals = [1.0, 2.0, 2.0, 3.0, 1.0, 5.0]
    types = ["A", "A", "A", "A", "B", "B"]
    pq.write_table(pa.table({
        "event_id": pa.array(range(6), pa.int64()),
        "event_type": pa.array(types, pa.string()),
        "value": pa.array(vals, pa.float64()),
    }), str(tmp_path / "events.parquet"))

    got = (q_value_cume_dist(str(tmp_path)).to_pandas()
           .sort_values("event_id").reset_index(drop=True))
    # A: [1,2,2,3] -> cd(1)=.25, cd(2)=.75, cd(3)=1; B: [1,5] -> .5, 1
    assert list(got["cd"]) == [0.25, 0.75, 0.75, 1.0, 0.5, 1.0]


def test_market_share_snowflake(tmp_path):
    """Hand-built Q8 snowflake: only region-ASIA customers' orders count;
    the target nation's supplier carries 100 of the 400 revenue ->
    share 0.25; the out-of-region order is excluded entirely."""
    from odinson_ray.pipelines.queries.relational import q_market_share

    pq.write_table(pa.table({
        "r_regionkey": pa.array([0, 1], pa.int64()),
        "r_name": pa.array(["ASIA", "EUROPE"], pa.string()),
    }), str(tmp_path / "region.parquet"))
    pq.write_table(pa.table({
        "n_nationkey": pa.array([0, 1, 2], pa.int64()),
        "n_name": pa.array(["NATION_2", "NATION_X", "NATION_Y"],
                           pa.string()),
        "n_regionkey": pa.array([0, 0, 1], pa.int64()),
    }), str(tmp_path / "nation.parquet"))
    pq.write_table(pa.table({
        "c_custkey": pa.array([1, 2], pa.int64()),
        "c_nationkey": pa.array([0, 2], pa.int64()),
    }), str(tmp_path / "customer.parquet"))
    pq.write_table(pa.table({
        "s_suppkey": pa.array([1, 2], pa.int64()),
        "s_nationkey": pa.array([0, 1], pa.int64()),
    }), str(tmp_path / "supplier.parquet"))
    pq.write_table(pa.table({
        "o_orderkey": pa.array([10, 20], pa.int64()),
        "o_custkey": pa.array([1, 2], pa.int64()),
        "o_orderdate": pa.array([_ts("1995-05-01"), _ts("1995-06-01")],
                                pa.timestamp("us")),
    }), str(tmp_path / "orders.parquet"))
    pq.write_table(pa.table({
        "l_orderkey": pa.array([10, 10, 20], pa.int64()),
        "l_suppkey": pa.array([1, 2, 1], pa.int64()),
        "l_extendedprice": pa.array([100.0, 300.0, 999.0], pa.float64()),
        "l_discount": pa.array([0.0, 0.0, 0.0], pa.float64()),
    }), str(tmp_path / "lineitem.parquet"))

    got = q_market_share(str(tmp_path)).to_pandas()
    assert list(zip(got["o_year"], got["mkt_share"])) == [(1995, 0.25)]


def test_seq3_patterns_property_random_streams(tmp_path):
    """Randomized pin: any mix of users, duplicate timestamps and bucket
    widths must reproduce the brute-force sliding-window counts."""
    rng = np.random.default_rng(77)
    from odinson_ray.pipelines.queries.events import q_seq3_patterns

    n = 400
    df = pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "ts": [pd.Timestamp("2020-01-01")
               + pd.Timedelta(seconds=int(s))
               for s in rng.integers(0, 120, n)],
        "user_id": rng.integers(1, 6, n).astype(np.int64),
        "event_type": rng.choice(list("abc"), n),
    })
    sub = tmp_path / "prop"
    sub.mkdir()
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(sub / "events.parquet"))
    got = q_seq3_patterns(str(sub), bucket_s=13).to_pandas()
    got_d = {(r.t1, r.t2, r.t3): r.n for r in got.itertuples()}
    assert got_d == _brute_seq3(df)


def test_bloom_layout_skips_files_and_stays_exact(tmp_path, monkeypatch):
    """Shuffled high-cardinality keys across 16 shards: probing 2 keys
    must open only the shards whose bloom matches (far fewer than 16)
    and return exactly the probed rows; a never-inserted probe opens
    nothing extra beyond false positives."""
    import odinson_ray.stages.layout as L

    monkeypatch.setattr(L, "_CACHE_ROOT", str(tmp_path / "cache"))
    rng = np.random.default_rng(5)
    n = 4000
    ids = rng.permutation(n).astype(np.int64)  # unclustered
    pq.write_table(pa.table({
        "event_id": pa.array(ids, pa.int64()),
        "event_type": pa.array(["t"] * n, pa.string()),
        "value": pa.array(np.round(rng.uniform(0, 9, n), 2), pa.float64()),
    }), str(tmp_path / "events.parquet"))

    root = L.bloom_layout(str(tmp_path / "events.parquet"), "event_id",
                          ["event_id", "event_type", "value"])
    ds, n_read, n_total = L.bloom_scan(root, [7, 3999])
    assert n_total == 16
    assert 1 <= n_read <= 6  # 2 true shards + a few false positives max
    got = ds.to_pandas()
    hit = got[got["event_id"].isin([7, 3999])]
    assert sorted(hit["event_id"]) == [7, 3999]

    ds2, n_read2, _ = L.bloom_scan(root, [10 ** 9])  # absent key
    assert ds2 is None or n_read2 <= 2  # at most bloom false positives


def test_mmr_rerank_diversifies_vs_pure_relevance(tmp_path):
    """vec2 is nearly identical to vec1, vec3 is diverse: at lam=0.5 the
    third MMR pick must be the diverse vec3, while lam=1.0 degrades to
    pure relevance order (0, 1, 2)."""
    from odinson_ray.pipelines.queries.similarity import q_mmr_rerank

    vecs = {
        0: [1.0, 0.0],            # the query row itself (sim 1 -> rank 1)
        1: [0.9, 0.436],          # top non-query candidate
        2: [0.895, 0.446],        # near-duplicate of 1
        3: [0.85, -0.527],        # diverse
    }
    pq.write_table(pa.table({
        "vec_id": pa.array(sorted(vecs), pa.int64()),
        "embedding": pa.array([vecs[i] for i in sorted(vecs)],
                              pa.list_(pa.float64())),
        "label": pa.array([0] * 4, pa.int32()),
    }), str(tmp_path / "embeddings.parquet"))

    got = q_mmr_rerank(str(tmp_path), pool=4, k=3, lam=0.5).to_pandas()
    assert list(got["vec_id"]) == [0, 1, 3]

    pure = q_mmr_rerank(str(tmp_path), pool=4, k=3, lam=1.0).to_pandas()
    assert list(pure["vec_id"]) == [0, 1, 2]


def test_top_orders_with_ties_returns_all_tied_rows(tmp_path):
    """k=2 over values with a 3-way tie at the 2nd rank -> 4 rows (RANK
    <= k semantics), not 2."""
    from odinson_ray.pipelines.queries.relational import q_top_orders_with_ties

    pq.write_table(pa.table({
        "o_orderkey": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "o_totalprice": pa.array([9.0, 7.0, 7.0, 7.0, 1.0], pa.float64()),
    }), str(tmp_path / "orders.parquet"))
    got = q_top_orders_with_ties(str(tmp_path), k=2).to_pandas()
    assert list(zip(got["o_orderkey"], got["o_totalprice"])) == [
        (1, 9.0), (2, 7.0), (3, 7.0), (4, 7.0)]


def test_missing_days_detects_calendar_gaps(tmp_path):
    """Type A active on days 1 and 3 (day 2 missing); type B active on
    all three days -> exactly one gap cell."""
    from odinson_ray.pipelines.queries.events import q_missing_days

    rows = [("A", "2020-01-01"), ("A", "2020-01-03"),
            ("B", "2020-01-01"), ("B", "2020-01-02"), ("B", "2020-01-03")]
    pq.write_table(pa.table({
        "event_id": pa.array(range(len(rows)), pa.int64()),
        "ts": pa.array([_ts(d) for _, d in rows], pa.timestamp("us")),
        "event_type": pa.array([t for t, _ in rows], pa.string()),
    }), str(tmp_path / "events.parquet"))
    got = q_missing_days(str(tmp_path)).to_pandas()
    assert list(zip(got["event_type"], got["missing_day"])) == [
        ("A", pd.Timestamp("2020-01-02"))]


def test_nb_min_count_prunes_model_to_priors(tmp_path):
    """min_count above every token count empties the broadcast matrix:
    every doc scores priors + n_tok * per-lang default, which favors the
    lang with the LARGER token total's smaller denominator — here 'en'
    for every doc (hand-computed). The driver held zero vocab rows."""
    from odinson_ray.pipelines.queries.text import (_nb_model,
                                                    q_nb_lang_confusion)

    docs = [("en", "the cat"), ("en", "the dog"), ("en", "the cow"),
            ("de", "der hund baum wald")]
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(docs)), pa.int64()),
        "text": pa.array([t for _, t in docs], pa.string()),
        "lang": pa.array([l for l, _ in docs], pa.string()),
        "source": pa.array(["s"] * len(docs), pa.string()),
        "n_chars": pa.array([len(t) for _, t in docs], pa.int64()),
    }), str(tmp_path / "documents.parquet"))

    langs, vocab, model, defaults, priors = _nb_model(
        str(tmp_path), min_count=100)
    assert len(vocab) == 0 and model.shape == (0, 2)
    # smoothing constants still reflect the FULL distribution
    # (V=8 distinct toks; totals en=6, de=4)
    import math
    assert defaults[langs.index("en")] == math.floor(1e6 * math.log(1 / 14))
    assert defaults[langs.index("de")] == math.floor(1e6 * math.log(1 / 12))

    got = (q_nb_lang_confusion(str(tmp_path), min_count=100).to_pandas()
           .sort_values(["lang", "lang_pred"]).reset_index(drop=True))
    # en doc (2 toks): en = ln(.75)+2ln(1/14) > de = ln(.25)+2ln(1/12)
    # de doc (4 toks): en = ln(.75)+4ln(1/14) > de = ln(.25)+4ln(1/12)
    assert list(zip(got["lang"], got["lang_pred"], got["n"])) == [
        ("de", "en", 1), ("en", "en", 3)]


def test_graph_sweeps_with_forced_spill_match_default(tmp_path, monkeypatch):
    """checkpoint_dir routes every round pin through parquet; results
    must equal the object-store path exactly."""
    import ray.data as rd

    import odinson_ray.pipelines.kg as kg_mod
    from odinson_ray.pipelines.queries.graph import (q_kg_harmonic,
                                                     q_kg_stress_paths)

    edges = [("S", "A"), ("S", "B"), ("A", "C"), ("B", "C"),
             ("C", "D"), ("X", "Y")]
    trip = pa.table({
        "subj_canon": [s for s, _ in edges],
        "obj_canon": [o for _, o in edges],
    })
    monkeypatch.setattr(kg_mod, "triples_dataset",
                        lambda sf_dir: rd.from_arrow(trip))

    base_s = (q_kg_stress_paths(str(tmp_path), n_seeds=1).to_pandas()
              .set_index("entity")["through_paths"].to_dict())
    spill_s = (q_kg_stress_paths(str(tmp_path), n_seeds=1,
                                 checkpoint_dir=str(tmp_path / "ck1"))
               .to_pandas().set_index("entity")["through_paths"].to_dict())
    assert base_s == spill_s

    base_h = (q_kg_harmonic(str(tmp_path), n_seeds=1).to_pandas()
              .set_index("entity")["h_micro"].to_dict())
    spill_h = (q_kg_harmonic(str(tmp_path), n_seeds=1,
                             checkpoint_dir=str(tmp_path / "ck2"))
               .to_pandas().set_index("entity")["h_micro"].to_dict())
    assert base_h == spill_h
    import os
    assert os.path.isdir(tmp_path / "ck1" / "sig_1")  # spill actually ran


def test_ab_test_metrics_matches_hand_computation(tmp_path):
    """Two users per variant with hand-picked values: means and the
    Welch t-statistic must equal the closed-form numbers."""
    import hashlib

    from odinson_ray.pipelines.queries.events import q_ab_test_metrics

    def variant(uid):
        return int(hashlib.md5(str(uid).encode()).hexdigest()[:8], 16) & 1

    a_users = [u for u in range(40) if variant(u) == 0][:2]
    b_users = [u for u in range(40) if variant(u) == 1][:2]
    rows = [(a_users[0], 10.0), (a_users[1], 20.0),
            (b_users[0], 30.0), (b_users[1], 50.0)]
    pq.write_table(pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "event_type": pa.array(["x"] * 4, pa.string()),
        "value": pa.array([r[1] for r in rows], pa.float64()),
    }), str(tmp_path / "events.parquet"))

    got = q_ab_test_metrics(str(tmp_path)).to_pandas()
    assert list(got["event_type"]) == ["x"]
    r = got.iloc[0]
    assert (r["n_a"], r["n_b"]) == (2, 2)
    assert (r["mean_a"], r["mean_b"]) == (15.0, 40.0)
    # welch: v0=50, v1=200 (cents^2 scaled: 500000, 2000000);
    # t = (1500-4000)/sqrt(250000+1000000) = -2500/1118.03... = -2.236068
    assert r["t_stat"] == pytest.approx(-2.236068, abs=1e-6)


def test_kg_sp_tree_min_parent_diamond(tmp_path, monkeypatch):
    """Diamond S->{A,B}->C: C's parent is the lexicographically smaller
    predecessor A; D chains through C; the seed row itself is absent."""
    import ray.data as rd

    import odinson_ray.pipelines.kg as kg_mod
    from odinson_ray.pipelines.queries.graph import q_kg_sp_tree

    edges = [("S", "A"), ("S", "B"), ("A", "C"), ("B", "C"), ("C", "D")]
    trip = pa.table({
        "subj_canon": [s for s, _ in edges],
        "obj_canon": [o for _, o in edges],
    })
    monkeypatch.setattr(kg_mod, "triples_dataset",
                        lambda sf_dir: rd.from_arrow(trip))
    got = q_kg_sp_tree(str(tmp_path)).to_pandas()
    assert list(zip(got["entity"], got["level"], got["parent"])) == [
        ("A", 1, "S"), ("B", 1, "S"), ("C", 2, "A"), ("D", 3, "C")]


def test_revenue_pareto_crossing_exactness(tmp_path):
    """Hand case: spends 50, 30, 15, 5 (total 100); 80% is crossed by
    the THIRD customer inclusive (50+30=80 < 80? no: 80*5=400 >= 400 ->
    the SECOND customer crosses exactly at 80%)."""
    from odinson_ray.pipelines.queries.relational import q_revenue_pareto

    pq.write_table(pa.table({
        "o_custkey": pa.array([1, 2, 3, 4], pa.int64()),
        "o_totalprice": pa.array([0.50, 0.30, 0.15, 0.05], pa.float64()),
    }), str(tmp_path / "orders.parquet"))
    got = q_revenue_pareto(str(tmp_path)).to_pandas()
    assert list(zip(got["n_customers"], got["covered_cents"],
                    got["total_cents"], got["share"])) == [(2, 80, 100, 0.8)]


def test_gini_extremes(tmp_path):
    """Perfect equality -> gini 0; extreme concentration -> near
    (n-1)/n. Checked against the closed-form rank formula."""
    from odinson_ray.pipelines.queries.relational import q_gini_value

    pq.write_table(pa.table({
        "o_custkey": pa.array([1, 2, 3, 4], pa.int64()),
        "o_totalprice": pa.array([5.0] * 4, pa.float64()),
    }), str(tmp_path / "orders.parquet"))
    eq = q_gini_value(str(tmp_path)).to_pandas()
    assert eq.iloc[0]["gini"] == 0.0

    sub = tmp_path / "skew"
    sub.mkdir()
    pq.write_table(pa.table({
        "o_custkey": pa.array([1, 2, 3, 4], pa.int64()),
        "o_totalprice": pa.array([0.01, 0.01, 0.01, 99.97], pa.float64()),
    }), str(sub / "orders.parquet"))
    sk = q_gini_value(str(sub)).to_pandas()
    # exact: ws = 1+2+3+4*9997 = 39994, sx=10000, n=4
    want = round(2 * 39994 / (4 * 10000) - 5 / 4, 6)
    assert sk.iloc[0]["gini"] == want


def test_waiting_suppliers_property_random(tmp_path):
    """Randomized Q21 pin: brute-force pandas evaluation of the
    EXISTS/NOT-EXISTS semantics over random orders/lineitems must match
    exactly (including distinct-supplier multiplicity cases)."""
    rng = np.random.default_rng(11)
    from odinson_ray.pipelines.queries.relational import q_waiting_suppliers

    n_orders, n_lines = 60, 400
    status = rng.choice(["F", "O"], n_orders, p=[0.7, 0.3])
    pq.write_table(pa.table({
        "o_orderkey": pa.array(range(n_orders), pa.int64()),
        "o_orderdate": pa.array([_ts("2020-01-01")] * n_orders,
                                pa.timestamp("us")),
        "o_orderstatus": pa.array(status, pa.string()),
    }), str(tmp_path / "orders.parquet"))
    ok = rng.integers(0, n_orders, n_lines)
    sk = rng.integers(1, 8, n_lines)
    late = rng.random(n_lines) < 0.4
    ship = [
        _ts("2020-06-01") if is_late else _ts("2020-01-10")
        for is_late in late]
    pq.write_table(pa.table({
        "l_orderkey": pa.array(ok, pa.int64()),
        "l_suppkey": pa.array(sk, pa.int64()),
        "l_shipdate": pa.array(ship, pa.timestamp("us")),
    }), str(tmp_path / "lineitem.parquet"))

    df = pd.DataFrame({"ok": ok, "sk": sk, "late": late,
                       "st": status[ok]})
    df = df[df["st"] == "F"]
    want = {}
    for o, g in df.groupby("ok"):
        n_supp = g["sk"].nunique()
        late_supps = g.loc[g["late"], "sk"].unique()
        if n_supp > 1 and len(late_supps) == 1:
            s = int(late_supps[0])
            want[s] = want.get(s, 0) + 1
    want_sorted = sorted(want.items(), key=lambda kv: (-kv[1], kv[0]))[:10]

    got = q_waiting_suppliers(str(tmp_path)).to_pandas()
    assert list(zip(got["l_suppkey"], got["numwait"])) == want_sorted


def test_top_orders_with_ties_property_random(tmp_path):
    """Randomized WITH TIES pin vs pandas RANK()<=k."""
    rng = np.random.default_rng(23)
    from odinson_ray.pipelines.queries.relational import q_top_orders_with_ties

    n = 500
    price = np.round(rng.integers(1, 40, n) * 1.0, 2)  # many ties
    pq.write_table(pa.table({
        "o_orderkey": pa.array(range(n), pa.int64()),
        "o_totalprice": pa.array(price, pa.float64()),
    }), str(tmp_path / "orders.parquet"))

    df = pd.DataFrame({"k": range(n), "p": price})
    df["r"] = df["p"].rank(method="min", ascending=False)
    want = (df[df["r"] <= 10].sort_values(["p", "k"],
                                          ascending=[False, True]))
    got = q_top_orders_with_ties(str(tmp_path), k=10).to_pandas()
    assert list(got["o_orderkey"]) == list(want["k"])
    assert list(got["o_totalprice"]) == list(want["p"])


def test_lorenz_deciles_hand_case(tmp_path):
    """Ten customers spending 1..10 cents: decile d covers
    sum(1..d)/55 of revenue."""
    from odinson_ray.pipelines.queries.relational import q_lorenz_deciles

    pq.write_table(pa.table({
        "o_custkey": pa.array(range(1, 11), pa.int64()),
        "o_totalprice": pa.array([i / 100 for i in range(1, 11)],
                                 pa.float64()),
    }), str(tmp_path / "orders.parquet"))
    got = q_lorenz_deciles(str(tmp_path)).to_pandas()
    want = [(d, d * (d + 1) // 2, round(d * (d + 1) / 2 / 55, 6))
            for d in range(1, 11)]
    assert list(zip(got["decile"], got["cum_cents"], got["share"])) == want
