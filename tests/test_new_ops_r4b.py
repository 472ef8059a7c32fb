"""Round-4 batch-2 operators: line dedup, deterministic group sampling,
Bloom semi join."""

import hashlib

import numpy as np
import pandas as pd
import pytest


@pytest.fixture(scope="module", autouse=True)
def _ray(ray_session):
    yield


def _local_line_dedup(docs: pd.DataFrame, width: int = 10) -> dict[int, str]:
    seen = set()
    out = {}
    for _, r in docs.sort_values("doc_id").iterrows():
        toks = r.text.split(" ")
        kept = []
        for i in range(0, len(toks), width):
            line = " ".join(toks[i:i + width])
            if line not in seen:
                seen.add(line)
                kept.append(line)
        if kept:
            out[r.doc_id] = " ".join(kept)
    return out


def test_line_dedup_matches_local(sf_dir):
    from odinson_ray.pipelines.queries.dedup import q_line_dedup

    got = q_line_dedup(sf_dir).to_pandas()
    docs = pd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    want = _local_line_dedup(docs)
    assert dict(zip(got.doc_id, got.text)) == want


def test_line_dedup_boilerplate_kept_once(tmp_path):
    """The same 10-token line planted in 5 docs survives only in the
    lowest doc_id; unique tails survive everywhere."""
    boiler = " ".join(f"b{i}" for i in range(10))
    rows = [{"doc_id": d, "text": boiler + f" tail{d}"} for d in (3, 1, 9, 4, 7)]
    pd.DataFrame(rows).to_parquet(tmp_path / "documents.parquet")

    from odinson_ray.pipelines.queries.dedup import q_line_dedup

    got = dict(zip(*(lambda df: (df.doc_id, df.text))(
        q_line_dedup(str(tmp_path)).to_pandas())))
    assert got[1] == boiler + " tail1"
    for d in (3, 4, 7, 9):
        assert got[d] == f"tail{d}"


def test_group_sample_k_deterministic_bottom_k(sf_dir):
    from odinson_ray.pipelines.queries.events import q_group_sample_k

    got = q_group_sample_k(sf_dir).to_pandas()
    ev = pd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "event_type"])
    ev["h"] = [hashlib.md5(str(i).encode()).hexdigest() for i in ev.event_id]
    want = set()
    for et, g in ev.groupby("event_type"):
        want |= set((et, i) for i in
                    g.sort_values(["h", "event_id"]).event_id.head(5))
    assert set(zip(got.event_type, got.event_id)) == want
    # a second run returns the identical sample (no RNG state anywhere)
    again = q_group_sample_k(sf_dir).to_pandas()
    assert set(zip(again.event_type, again.event_id)) == want


def test_bloom_semi_join_exact_despite_false_positives(sf_dir):
    from odinson_ray.pipelines.queries.relational import q_bloom_semi_join

    got = q_bloom_semi_join(sf_dir).to_pandas()
    cust = pd.read_parquet(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey", "c_acctbal"])
    keys = set(cust.loc[cust.c_acctbal > 9000.0, "c_custkey"])
    orders = pd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_custkey"])
    want = orders[orders.o_custkey.isin(keys)]
    assert set(zip(got.o_orderkey, got.o_custkey)) == \
        set(zip(want.o_orderkey, want.o_custkey))


def test_bloom_bitmap_has_no_false_negatives():
    from odinson_ray.pipelines.queries.relational import (_BLOOM_BITS,
                                                          _bloom_positions)

    rng = np.random.default_rng(7)
    members = rng.integers(0, 1 << 40, size=2000)
    bits = np.zeros(_BLOOM_BITS, dtype=bool)
    bits[_bloom_positions(members).ravel()] = True
    assert bits[_bloom_positions(members)].all(axis=1).all()
    # false-positive rate on non-members stays small at this load factor
    probes = rng.integers(1 << 41, 1 << 42, size=20000)
    fp = bits[_bloom_positions(probes)].all(axis=1).mean()
    assert fp < 0.02, fp


def test_cms_heavy_hitters_one_sided_error(sf_dir):
    from collections import Counter

    from odinson_ray.pipelines.queries.text import q_cms_token_counts

    got = q_cms_token_counts(sf_dir).to_pandas()
    docs = pd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    exact = Counter()
    for t in docs.text:
        exact.update(t.split(" "))
    n_total = sum(exact.values())
    assert len(got) == 20
    for tok, est in zip(got.token, got.est_n):
        # CMS never under-counts; over-count bounded by ~e/w * N per row,
        # min over 4 rows makes the slack generous here
        assert est >= exact[tok]
        assert est - exact[tok] <= max(3, 0.01 * n_total), (tok, est, exact[tok])
    # every true global heavy hitter appears among the returned tokens
    true_top = [t for t, _ in exact.most_common(10)]
    assert set(true_top) <= set(got.token)


def test_value_percent_rank_matches_pandas(sf_dir):
    from odinson_ray.pipelines.queries.events import q_value_percent_rank

    got = q_value_percent_rank(sf_dir).to_pandas()
    ev = pd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "event_type", "value"])
    ev["prk"] = ev.groupby("event_type")["value"].rank(method="min")
    n = ev.groupby("event_type")["value"].transform("size")
    ev["prk"] = ((ev.prk - 1) / (n - 1).clip(lower=1)).round(6)
    m = got.set_index("event_id").prk
    assert len(got) == len(ev)
    assert (ev.set_index("event_id").prk - m).abs().max() <= 1e-9


def test_star_join_revenue_exact_cents(sf_dir):
    from odinson_ray.pipelines.queries.relational import q_star_join_revenue

    got = q_star_join_revenue(sf_dir).to_pandas()
    orders = pd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_custkey", "o_totalprice"])
    cust = pd.read_parquet(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey", "c_nationkey"])
    nation = pd.read_parquet(f"{sf_dir}/nation.parquet",
                             columns=["n_nationkey", "n_regionkey"])
    region = pd.read_parquet(f"{sf_dir}/region.parquet")
    j = (orders.merge(cust, left_on="o_custkey", right_on="c_custkey")
         .merge(nation, left_on="c_nationkey", right_on="n_nationkey")
         .merge(region, left_on="n_regionkey", right_on="r_regionkey"))
    j["cents"] = (j.o_totalprice * 100).round().astype("int64")
    want = (j.groupby("r_name").cents.sum() / 100.0).round(2)
    assert dict(zip(got.r_name, got.revenue)) == want.to_dict()


def test_profile_columns_matches_pandas(sf_dir):
    from odinson_ray.pipelines.queries.relational import q_profile_columns

    got = q_profile_columns(sf_dir).to_pandas().set_index("col_name")
    li = pd.read_parquet(f"{sf_dir}/lineitem.parquet")
    for c in ["l_quantity", "l_extendedprice", "l_discount", "l_tax"]:
        assert got.loc[c, "n"] == len(li)
        assert got.loc[c, "n_null"] == li[c].isna().sum()
        assert got.loc[c, "n_distinct"] == li[c].nunique()
        assert got.loc[c, "min_v"] == round(li[c].min(), 6)
        assert got.loc[c, "max_v"] == round(li[c].max(), 6)


def test_winsorize_values_matches_pandas(sf_dir):
    import math

    from odinson_ray.pipelines.queries.events import q_winsorize_values

    got = q_winsorize_values(sf_dir).to_pandas().set_index("event_id").w_value
    ev = pd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "event_type", "value"])

    def disc(v, q):
        s = sorted(v)
        return s[max(0, math.ceil(q * len(s)) - 1)]

    want = {}
    for et, g in ev.groupby("event_type"):
        lo, hi = disc(g.value, 0.05), disc(g.value, 0.95)
        for i, v in zip(g.event_id, g.value):
            want[i] = round(min(max(v, lo), hi), 6)
    assert len(got) == len(want)
    assert all(got[i] == want[i] for i in want)


def test_pq_topk_recall_vs_brute_force(sf_dir):
    from odinson_ray.pipelines.queries.similarity import (_query_vec,
                                                          q_ann_pq_topk)
    from odinson_ray.stages.ann import brute_force_topk

    got = q_ann_pq_topk(sf_dir).to_pandas()
    exact = brute_force_topk(sf_dir, _query_vec(sf_dir), k=10).to_pandas()
    assert len(got) == 10
    recall = len(set(got.vec_id) & set(exact.vec_id)) / 10
    assert recall >= 0.7, recall
    # rerank means returned scores are exact cosine: every overlapping id
    # carries the same score as the brute-force baseline
    merged = got.merge(exact, on="vec_id", suffixes=("_pq", "_bf"))
    assert (merged.score_pq - merged.score_bf).abs().max() <= 1e-9


def test_pq_codebooks_reseed_an_empty_cell_from_the_farthest_point():
    """Duplicate seed centroids leave cells empty: each takes the sample
    point farthest from its nearest centroid, so the outlier gets a cell."""
    import numpy as np

    from odinson_ray.stages.ann import _train_codebooks

    sample = np.zeros((40, 4))
    sample[17] = [10.0, -10.0, 5.0, 5.0]
    books = _train_codebooks(sample, m=2, codes=4)
    assert books.shape == (2, 4, 2) and np.isfinite(books).all()
    for j in range(2):
        outlier = sample[17, 2 * j:2 * j + 2]
        assert np.isclose(((books[j] - outlier) ** 2).sum(axis=1).min(), 0.0)
        assert np.isclose(((books[j]) ** 2).sum(axis=1).min(), 0.0)


def test_pq_layout_deterministic_and_cached(sf_dir):
    from odinson_ray.stages.ann import build_pq_layout

    a = build_pq_layout(sf_dir)
    b = build_pq_layout(sf_dir)
    assert a == b
    import json
    import os

    with open(os.path.join(a, "_meta.json")) as fh:
        meta = json.load(fh)
    assert meta["m"] == 8 and meta["codes"] == 16
