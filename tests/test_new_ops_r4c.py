"""Round-4 batch-3 operators: distributed enumeration (row_number /
NTILE), sufficient-stats correlation, fixed-width histogram."""

import numpy as np
import pandas as pd
import pytest


@pytest.fixture(scope="module", autouse=True)
def _ray(ray_session):
    yield


def test_global_row_number_matches_pandas(sf_dir):
    from odinson_ray.pipelines.queries.relational import q_global_row_number

    got = q_global_row_number(sf_dir).to_pandas()
    orders = pd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_totalprice"])
    want = orders.sort_values(["o_totalprice", "o_orderkey"],
                              ascending=[False, True])
    want["rn"] = np.arange(1, len(want) + 1)
    merged = got.merge(want[["o_orderkey", "rn"]], on="o_orderkey",
                       suffixes=("", "_want"))
    assert len(merged) == len(orders)
    assert (merged.rn == merged.rn_want).all()


def test_global_row_number_ties_break_on_key(tmp_path):
    """Equal prices collapse into one bucket; enumeration must still be a
    permutation ordered by the orderkey tie-break."""
    pd.DataFrame({"o_orderkey": [5, 1, 9, 3],
                  "o_totalprice": [10.0, 10.0, 10.0, 10.0]}).to_parquet(
        tmp_path / "orders.parquet")

    from odinson_ray.pipelines.queries.relational import q_global_row_number

    got = q_global_row_number(str(tmp_path)).to_pandas().sort_values("rn")
    assert got.o_orderkey.tolist() == [1, 3, 5, 9]
    assert got.rn.tolist() == [1, 2, 3, 4]


def test_ntile_uneven_split(tmp_path):
    """n=10, k=4 -> NTILE sizes 3,3,2,2 with contiguous rn ranges."""
    pd.DataFrame({"o_orderkey": range(10),
                  "o_totalprice": np.linspace(100.0, 10.0, 10)}).to_parquet(
        tmp_path / "orders.parquet")

    from odinson_ray.pipelines.queries.relational import q_ntile_orders

    got = q_ntile_orders(str(tmp_path)).to_pandas().sort_values("tile")
    assert got.n_orders.tolist() == [3, 3, 2, 2]
    assert got.min_rn.tolist() == [1, 4, 7, 9]
    assert got.max_rn.tolist() == [3, 6, 8, 10]


def test_corr_matches_numpy(sf_dir):
    from odinson_ray.pipelines.queries.relational import q_corr_lineitem

    got = q_corr_lineitem(sf_dir).to_pandas()
    li = pd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_quantity", "l_extendedprice"])
    for _, r in got.iterrows():
        g = li[li.l_returnflag == r.l_returnflag]
        want = np.corrcoef(g.l_quantity, g.l_extendedprice)[0, 1]
        assert abs(r.corr_qty_price - want) < 1e-5
        assert r.n == len(g)


def test_histogram_counts_and_coverage(sf_dir):
    from odinson_ray.pipelines.queries.events import q_value_histogram

    got = q_value_histogram(sf_dir).to_pandas()
    ev = pd.read_parquet(f"{sf_dir}/events.parquet", columns=["value"])
    assert got.n.sum() == len(ev)
    assert got.bin.between(0, 19).all()
    lo, hi = ev.value.min(), ev.value.max()
    b = np.minimum(np.floor((ev.value.to_numpy() - lo) * 20.0
                            / (hi - lo)).astype(np.int64), 19)
    want = pd.Series(b).value_counts().sort_index()
    have = got.set_index("bin").n.sort_index()
    assert have.to_dict() == want.to_dict()


def test_moving_avg_matches_pandas(sf_dir):
    from odinson_ray.pipelines.queries.events import q_moving_avg

    got = q_moving_avg(sf_dir).to_pandas()
    ev = pd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts", "event_id", "value"])
    ev = ev.sort_values(["user_id", "ts", "event_id"])
    want = (ev.groupby("user_id").value
            .rolling(3, min_periods=1).mean().reset_index(drop=True))
    ev["want"] = want.to_numpy()
    merged = got.merge(ev[["event_id", "want"]], on="event_id")
    assert len(merged) == len(ev)
    assert np.allclose(merged.mavg3, merged.want, atol=1e-5)


def test_moving_avg_frame_shorter_at_group_start(tmp_path):
    """First two rows of a partition average over 1 and 2 rows."""
    pd.DataFrame({
        "user_id": [1, 1, 1, 1],
        "ts": pd.to_datetime(["2024-01-01", "2024-01-02",
                              "2024-01-03", "2024-01-04"]),
        "event_id": [10, 11, 12, 13],
        "value": [2.0, 4.0, 6.0, 8.0],
    }).to_parquet(tmp_path / "events.parquet")

    from odinson_ray.pipelines.queries.events import q_moving_avg

    got = q_moving_avg(str(tmp_path)).to_pandas().sort_values("event_id")
    assert got.mavg3.tolist() == [2.0, 3.0, 4.0, 6.0]


def test_token_entropy_extremes(tmp_path):
    """All-same tokens -> 0 nats; all-distinct -> ln(n)."""
    pd.DataFrame({
        "doc_id": [1, 2],
        "text": ["x x x x", "a b c d"],
    }).to_parquet(tmp_path / "documents.parquet")

    from odinson_ray.pipelines.queries.text import q_token_entropy

    got = q_token_entropy(str(tmp_path)).to_pandas().set_index("doc_id")
    assert got.loc[1].entropy == 0.0
    assert abs(got.loc[2].entropy - np.log(4)) < 1e-6
    assert got.n_tokens.tolist() == [4, 4]


def test_adamic_adar_star_graph():
    """Hub h with leaves l0..l4: every leaf pair scores 1/ln(5); with the
    center cap below 5 the hub is excluded and nothing pairs."""
    import ray
    import pyarrow as pa
    from odinson_ray.stages.graph import adamic_adar_pairs

    edges = ray.data.from_arrow(pa.table({
        "lo": ["h"] * 5, "hi": [f"l{i}" for i in range(5)]}))
    got = adamic_adar_pairs(edges).to_pandas()
    assert len(got) == 10  # C(5,2) leaf pairs
    assert np.allclose(got.aa, 1.0 / np.log(5))
    assert set(got.n1) | set(got.n2) == {f"l{i}" for i in range(5)}

    edges = ray.data.from_arrow(pa.table({
        "lo": ["h"] * 5, "hi": [f"l{i}" for i in range(5)]}))
    capped = adamic_adar_pairs(edges, max_center_degree=4).to_pandas()
    assert len(capped) == 0


def test_prefix_jaccard_complete_vs_bruteforce(sf_dir):
    """Prefix filtering must lose no pair: compare against the full
    quadratic token-jaccard join at the same threshold."""
    from itertools import combinations

    from odinson_ray.stages.dedup import prefix_jaccard_pairs, token_jaccard

    got = prefix_jaccard_pairs(sf_dir, threshold=0.95).to_pandas()
    docs = pd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    texts = dict(zip(docs.doc_id, docs.text))
    want = {
        (a, b)
        for a, b in combinations(sorted(texts), 2)
        if round(token_jaccard(texts[a], texts[b]), 6) >= 0.95
    }
    assert set(zip(got.a_id, got.b_id)) == want


def test_prefix_jaccard_planted_pair(tmp_path):
    base = " ".join(f"w{i}" for i in range(20))
    pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": [base, base + " extra", "q r s t u v w x y z"],
    }).to_parquet(tmp_path / "documents.parquet")

    from odinson_ray.stages.dedup import prefix_jaccard_pairs

    got = prefix_jaccard_pairs(str(tmp_path), threshold=0.9).to_pandas()
    assert set(zip(got.a_id, got.b_id)) == {(1, 2)}
    assert abs(got.j.iloc[0] - 20 / 21) < 1e-6


def test_user_top_type_matches_pandas(sf_dir):
    from odinson_ray.pipelines.queries.events import q_user_top_type

    got = q_user_top_type(sf_dir).to_pandas()
    ev = pd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "event_type"])
    counts = (ev.groupby(["user_id", "event_type"]).size()
              .rename("n").reset_index()
              .sort_values(["user_id", "n", "event_type"],
                           ascending=[True, False, True]))
    want = counts.groupby("user_id").first().reset_index()
    merged = got.merge(want, on="user_id", suffixes=("", "_want"))
    assert len(merged) == ev.user_id.nunique()
    assert (merged.event_type == merged.event_type_want).all()
    assert (merged.n == merged.n_want).all()


def test_neardup_keep_best_invariants(sf_dir):
    from odinson_ray.pipelines.queries.dedup import q_neardup_keep_best

    got = q_neardup_keep_best(sf_dir).to_pandas()
    docs = pd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "n_chars"])
    # every document is accounted for in exactly one cluster
    assert got.group_size.sum() == len(docs)
    # each representative belongs to its own cluster id space and is a
    # real doc; singleton clusters keep themselves
    assert set(got.kept_doc_id) <= set(docs.doc_id)
    singles = got[got.group_size == 1]
    assert (singles.kept_doc_id == singles.group_id).all()


def test_approx_quantiles_rank_error(sf_dir):
    """Sketch estimates must land within ~1.5% rank error of exact."""
    import ray
    from odinson_ray.stages.sketch import approx_quantiles
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["value"])
    est = approx_quantiles(ds, "value", qs=(0.5, 0.9, 0.99))
    v = np.sort(pd.read_parquet(f"{sf_dir}/events.parquet",
                                columns=["value"]).value.to_numpy())
    n = len(v)
    for q in (0.5, 0.9, 0.99):
        rank = np.searchsorted(v, est[f"p{int(q * 100)}"]) / n
        assert abs(rank - q) < 0.015, (q, rank)


def test_approx_quantiles_exact_when_small():
    """Fewer points than the summary size -> exact quantiles."""
    import ray
    from odinson_ray.stages.sketch import approx_quantiles

    vals = np.arange(100, dtype=np.float64)
    ds = ray.data.from_arrow(
        __import__("pyarrow").table({"x": vals}))
    est = approx_quantiles(ds, "x", qs=(0.5, 0.9))
    # quantile_disc semantics: sorted[ceil(q*n) - 1]
    assert est["p50"] == 49.0
    assert est["p90"] == 89.0


def test_token_budget_prefix_semantics(sf_dir):
    from odinson_ray.pipelines.queries.text import q_token_budget

    got = q_token_budget(sf_dir).to_pandas()
    docs = pd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "source", "text"])
    docs["n_tok"] = docs.text.str.split(" ").str.len()
    docs = docs.sort_values(["source", "doc_id"])
    docs["cum"] = docs.groupby("source").n_tok.cumsum()
    want = docs[docs.cum <= 3000]
    merged = got.merge(want, on="doc_id")
    assert len(merged) == len(want)
    assert (merged.cum_tokens == merged.cum).all()
    # budget is an actual prefix: within each source the kept doc_ids are
    # a prefix of the source's sorted doc_id list
    for src, g in want.groupby("source"):
        kept = set(got[got.source == src].doc_id)
        assert kept == set(g.doc_id)


def test_bucketed_join_matches_pandas(sf_dir):
    from odinson_ray.pipelines.queries.formats import q_bucketed_join_revenue

    got = q_bucketed_join_revenue(sf_dir).to_pandas()
    orders = pd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_custkey", "o_totalprice"])
    cust = pd.read_parquet(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey", "c_name"])
    j = orders.merge(cust, left_on="o_custkey", right_on="c_custkey")
    want = j.groupby(["o_custkey", "c_name"]).agg(
        n_orders=("o_totalprice", "size"),
        total=("o_totalprice", "sum")).reset_index()
    merged = got.merge(want, left_on="custkey", right_on="o_custkey")
    assert len(merged) == len(want) == len(got)
    assert (merged.n_orders_x == merged.n_orders_y).all()
    assert np.allclose(merged.total_ct, np.floor(merged.total * 100 + 0.5))


def test_bucket_layout_idempotent_and_consistent(sf_dir):
    """Same corpus -> same layout dir, reused; bucket assignment is a
    pure function of the key (both tables agree bucket-by-bucket)."""
    import json
    import os

    from odinson_ray.stages.layout import bucket_layout

    r1 = bucket_layout(f"{sf_dir}/customer.parquet", "custkey",
                       {"c_custkey": "custkey", "c_name": "c_name"})
    r2 = bucket_layout(f"{sf_dir}/customer.parquet", "custkey",
                       {"c_custkey": "custkey", "c_name": "c_name"})
    assert r1 == r2 and os.path.exists(os.path.join(r1, "_SUCCESS"))
    with open(os.path.join(r1, "_meta.json")) as fh:
        meta = json.load(fh)
    assert meta["n_buckets"] == 32
    # every customer row landed in the bucket its key hashes to
    import pyarrow.parquet as pq
    from odinson_ray.stages.layout import _bucket_ids
    import pyarrow as pa

    for b, files in list(meta["buckets"].items())[:5]:
        t = pq.read_table(os.path.join(r1, files[0]))
        calc = _bucket_ids(t["custkey"], 32)
        assert (calc == int(b)).all()


def _local_kcore(edges, k):
    """Reference fixpoint peel on a python edge list."""
    cur = set(edges)
    while True:
        deg = {}
        for a, b in cur:
            deg[a] = deg.get(a, 0) + 1
            deg[b] = deg.get(b, 0) + 1
        low = {v for v, d in deg.items() if d < k}
        if not low:
            return cur
        cur = {(a, b) for a, b in cur if a not in low and b not in low}


def test_kcore_fixpoint_matches_local():
    """Chain a-b-c-d-e plus triangle x-y-z: the 2-core is exactly the
    triangle; fixpoint mode must peel the whole chain (3 rounds)."""
    import ray
    import pyarrow as pa
    from odinson_ray.stages.graph import kcore_edges

    raw = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"),
           ("x", "y"), ("y", "z"), ("x", "z")]
    edges = ray.data.from_arrow(pa.table({
        "lo": [e[0] for e in raw], "hi": [e[1] for e in raw]}))
    got = kcore_edges(edges, k=2).to_pandas()
    assert set(zip(got.lo, got.hi)) == _local_kcore(raw, 2)
    assert set(zip(got.lo, got.hi)) == {("x", "y"), ("y", "z"), ("x", "z")}


def test_kcore_bounded_rounds_partial_peel():
    """rounds=1 peels only the current leaves; the chain's interior
    survives one round even though the fixpoint removes it."""
    import ray
    import pyarrow as pa
    from odinson_ray.stages.graph import kcore_edges

    raw = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")]
    edges = ray.data.from_arrow(pa.table({
        "lo": [e[0] for e in raw], "hi": [e[1] for e in raw]}))
    got = kcore_edges(edges, k=2, rounds=1).to_pandas()
    assert set(zip(got.lo, got.hi)) == {("b", "c"), ("c", "d")}


def test_global_row_number_skewed_keys(tmp_path):
    """Sampled boundaries keep the enumeration exact on a heavy-tailed
    sort key (the fixed-width variant piled ~all rows into one bucket)."""
    rng = np.random.RandomState(7)
    prices = np.exp(rng.randn(5000) * 2.0) * 100.0
    pd.DataFrame({"o_orderkey": np.arange(5000),
                  "o_totalprice": prices}).to_parquet(
        tmp_path / "orders.parquet")

    from odinson_ray.pipelines.queries.relational import q_global_row_number

    got = q_global_row_number(str(tmp_path)).to_pandas()
    want = (pd.DataFrame({"o_orderkey": np.arange(5000),
                          "o_totalprice": prices})
            .sort_values(["o_totalprice", "o_orderkey"],
                         ascending=[False, True]))
    want["rn"] = np.arange(1, 5001)
    merged = got.merge(want[["o_orderkey", "rn"]], on="o_orderkey",
                       suffixes=("", "_want"))
    assert (merged.rn == merged.rn_want).all()


def test_quantile_boundaries_balanced_on_skew():
    """The sketch's boundaries split a lognormal stream into ~equal-mass
    buckets — the property the enumeration's balance relies on."""
    import ray
    import pyarrow as pa
    from odinson_ray.stages.sketch import approx_quantile_values

    rng = np.random.RandomState(11)
    v = np.exp(rng.randn(20000) * 2.0)
    ds = ray.data.from_arrow(pa.table({"x": v}))
    bounds = approx_quantile_values(ds, "x", np.arange(1, 16) / 16)
    counts = np.bincount(np.searchsorted(bounds, v), minlength=16)
    assert counts.max() < 3 * len(v) / 16, counts


def test_regress_matches_numpy(sf_dir):
    from odinson_ray.pipelines.queries.relational import q_regress_lineitem

    got = q_regress_lineitem(sf_dir).to_pandas()
    li = pd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_quantity", "l_extendedprice"])
    for _, r in got.iterrows():
        g = li[li.l_returnflag == r.l_returnflag]
        slope, intercept = np.polyfit(g.l_quantity, g.l_extendedprice, 1)
        assert abs(r.slope - slope) < 1e-4
        assert abs(r.intercept - intercept) < 1e-2
        assert 0.0 <= r.r2 <= 1.0


def test_user_ewma_matches_pandas(sf_dir):
    from odinson_ray.pipelines.queries.events import q_user_ewma

    got = q_user_ewma(sf_dir).to_pandas().set_index("user_id")
    ev = pd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts", "event_id", "value"])
    ev = ev.sort_values(["user_id", "ts", "event_id"])
    want = (ev.groupby("user_id").value
            .apply(lambda s: s.ewm(alpha=0.3, adjust=False).mean().iloc[-1]))
    assert len(got) == len(want)
    assert np.allclose(got.ewma, want.loc[got.index].round(6), atol=1e-6)


def test_media_resize_semantics(sf_dir):
    from odinson_ray.pipelines.queries.formats import q_media_resize

    got = q_media_resize(sf_dir).to_pandas()
    assert len(got) > 0
    # fit-in-box, never upscaled
    assert (got.out_width <= 256).all() and (got.out_height <= 256).all()
    # payload is the documented stub: md5 of ref:dims
    import hashlib

    r = got.iloc[0]
    want = hashlib.md5(
        f"{r.media_ref}:{r.out_width}x{r.out_height}".encode()).hexdigest()
    assert r.payload_hex == want
