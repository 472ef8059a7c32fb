"""stages/shuffle.hash_join: the groupby-based distributed join that
replaces Ray's native hash join (which crashes on empty shuffle
partitions). Exercised indirectly by dedup/canon; pinned directly here."""

import pandas as pd
import pyarrow as pa


def _ds(df):
    import ray.data as rd

    return rd.from_pandas(df)


def test_inner_join_basic(ray_session):
    from odinson_ray.stages.shuffle import hash_join

    left = _ds(pd.DataFrame({"k": [1, 2, 2, 3], "l": ["a", "b", "c", "d"]}))
    right = _ds(pd.DataFrame({"rk": [2, 2, 3, 4], "r": ["x", "y", "z", "w"]}))
    out = hash_join(left, right, on="k", right_on="rk").to_pandas()
    got = sorted(map(tuple, out[["k", "l", "r"]].itertuples(index=False)))
    assert got == [(2, "b", "x"), (2, "b", "y"), (2, "c", "x"), (2, "c", "y"),
                   (3, "d", "z")]


def test_left_outer_and_suffix(ray_session):
    from odinson_ray.stages.shuffle import hash_join

    left = _ds(pd.DataFrame({"k": [1, 2], "v": ["l1", "l2"]}))
    right = _ds(pd.DataFrame({"k": [2, 9], "v": ["r2", "r9"]}))
    out = hash_join(left, right, on="k", how="left_outer").to_pandas()
    assert set(out.columns) == {"k", "v", "v_r"}
    rows = {r.k: (r.v, r.v_r) for r in out.itertuples()}
    assert rows[1] == ("l1", None)
    assert rows[2] == ("l2", "r2")
    assert 9 not in rows


def test_empty_sides(ray_session):
    from odinson_ray.stages.shuffle import hash_join

    schema = pa.schema([("k", pa.int64()), ("v", pa.string())])
    left = _ds(pd.DataFrame({"k": pd.Series([], dtype="int64"),
                             "v": pd.Series([], dtype="object")}))
    right = _ds(pd.DataFrame({"k": [1], "v": ["r"]}))
    out = hash_join(left, right, on="k",
                    left_schema=schema, right_schema=schema)
    assert out.count() == 0
    out2 = hash_join(right, left, on="k", how="left_outer",
                     left_schema=schema, right_schema=schema).to_pandas()
    assert len(out2) == 1 and out2.iloc[0].v == "r" and out2.iloc[0].v_r is None


def test_key_type_cast(ray_session):
    from odinson_ray.stages.shuffle import hash_join

    left = _ds(pd.DataFrame({"k": pd.Series([1, 2], dtype="int64"), "l": ["a", "b"]}))
    right = _ds(pd.DataFrame({"k": pd.Series([2, 3], dtype="int32"), "r": ["x", "y"]}))
    out = hash_join(left, right, on="k").to_pandas()
    assert list(map(tuple, out[["k", "l", "r"]].itertuples(index=False))) == [(2, "b", "x")]


def test_global_topk_exact_with_ties(ray_session):
    """Per-batch pruning is exact: equals a full sort, across many small
    blocks and with duplicate sort values (tiebreaker column)."""
    import numpy as np

    from odinson_ray.stages.shuffle import global_topk

    rng = np.random.default_rng(3)
    df = pd.DataFrame({"score": rng.integers(0, 50, 500), "id": np.arange(500)})
    ds = _ds(df).repartition(20)
    got = global_topk(ds, ["score", "id"], [True, False], 7).to_pandas()
    want = df.sort_values(["score", "id"], ascending=[False, True]).head(7)
    assert got[["score", "id"]].values.tolist() == want[["score", "id"]].values.tolist()


def test_grouped_topk_hot_key(ray_session):
    """A hot key spanning many batches still yields its exact global
    top-k, and every group emits at most k rows."""
    import numpy as np

    from odinson_ray.stages.shuffle import grouped_topk

    rng = np.random.default_rng(4)
    key = np.where(rng.random(2000) < 0.6, 0, rng.integers(1, 30, 2000))
    df = pd.DataFrame({"k": key.astype("int64"),
                       "score": rng.integers(0, 1000, 2000),
                       "id": np.arange(2000)})
    ds = _ds(df).repartition(16)
    got = (grouped_topk(ds, "k", ["score", "id"], [True, False], 3)
           .to_pandas().sort_values(["k", "score", "id"], ascending=[True, False, True])
           .reset_index(drop=True))
    want = (df.sort_values(["score", "id"], ascending=[False, True])
            .groupby("k").head(3)
            .sort_values(["k", "score", "id"], ascending=[True, False, True])
            .reset_index(drop=True))
    pd.testing.assert_frame_equal(got[["k", "score", "id"]], want[["k", "score", "id"]])


def test_semi_and_anti_join(ray_session):
    from odinson_ray.stages.shuffle import hash_join

    left = _ds(pd.DataFrame({"k": [1, 2, 3, None], "l": ["a", "b", "c", "d"]}))
    right = _ds(pd.DataFrame({"k": [2.0, 2.0, 4.0, None], "r": ["x", "y", "z", "w"]}))
    semi = hash_join(left, right, on="k", how="semi").to_pandas()
    # each matching left row ONCE (no cross product), left cols only
    assert list(semi.columns) == ["k", "l"]
    assert sorted(semi.l) == ["b"]
    anti = hash_join(left, right, on="k", how="anti").to_pandas()
    # NOT EXISTS: null-key left rows never match -> emitted
    assert sorted(anti.l) == ["a", "c", "d"]


def test_full_outer_join(ray_session):
    """FULL OUTER: matched rows cross-product; unmatched LEFT rows carry
    null right columns, unmatched RIGHT rows null left columns; null-key
    rows from both sides are emitted unmatched (SQL semantics)."""
    from odinson_ray.stages.shuffle import hash_join

    left = _ds(pd.DataFrame({"k": [1, 2, 2, 3, None], "l": ["a", "b", "c", "d", "e"]}))
    right = _ds(pd.DataFrame({"k": [2.0, 4.0, None], "r": ["x", "z", "w"]}))
    got = hash_join(left, right, on="k", how="full_outer").to_pandas()
    # matched: (b,x), (c,x); left-unmatched: a, d, e; right-unmatched: z, w
    assert len(got) == 7
    matched = got[got.l.notna() & got.r.notna()]
    assert sorted(zip(matched.l, matched.r)) == [("b", "x"), ("c", "x")]
    left_only = got[got.r.isna() & got.l.notna()]
    assert sorted(left_only.l) == ["a", "d", "e"]
    right_only = got[got.l.isna()]
    assert sorted(right_only.r) == ["w", "z"]
    # key carries COALESCE(l.k, r.k): right-only rows keep their own key
    assert sorted(right_only.k.fillna(-1)) == [-1.0, 4.0]


def test_hash_join_hot_key_chunked_emission(ray_session, monkeypatch):
    """Past HOT_CHUNK_ROWS the hot key's cross product is emitted in
    chunked sub-tables; output rows/values are identical to the one-shot
    path (VERDICT r03 #9)."""
    import warnings

    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from odinson_ray.stages import shuffle
    from odinson_ray.stages.shuffle import hash_join

    left = rd.from_arrow(pa.table({
        "k": pa.array(["hot"] * 300 + ["cold"], pa.string()),
        "lv": pa.array(list(range(300)) + [999], pa.int64()),
    }))
    right = rd.from_arrow(pa.table({
        "k": pa.array(["hot"] * 400 + ["cold"], pa.string()),
        "rv": pa.array(list(range(400)) + [888], pa.int64()),
    }))
    ls = pa.schema([("k", pa.string()), ("lv", pa.int64())])
    rs = pa.schema([("k", pa.string()), ("rv", pa.int64())])
    with warnings.catch_warnings(), monkeypatch.context() as m:
        warnings.simplefilter("ignore", RuntimeWarning)
        m.setattr(shuffle, "HOT_CHUNK_ROWS", 10_000)
        chunked = hash_join(left, right, on="k", left_schema=ls,
                            right_schema=rs).to_pandas()
    oneshot = hash_join(left, right, on="k", left_schema=ls,
                        right_schema=rs).to_pandas()
    key = ["k", "lv", "rv"]
    import pandas as pd
    pd.testing.assert_frame_equal(
        chunked.sort_values(key).reset_index(drop=True),
        oneshot.sort_values(key).reset_index(drop=True),
    )
    assert len(chunked) == 300 * 400 + 1


def test_group_filter_both_paths(ray_session):
    """group_filter drops whole key groups BEFORE the cross product is
    built (called with int64 arrays of group sizes), with and without a
    merge_post. Groups passing the filter are joined unchanged."""
    import pyarrow as pa
    import ray.data as rd

    from odinson_ray.stages.shuffle import hash_join

    left = rd.from_arrow(pa.table({
        "k": pa.array(["hub"] * 5 + ["ok", "ok"], pa.string()),
        "lv": pa.array([0, 1, 2, 3, 4, 10, 11], pa.int64()),
    }))
    right = rd.from_arrow(pa.table({
        "k": pa.array(["hub"] * 5 + ["ok"], pa.string()),
        "rv": pa.array([0, 1, 2, 3, 4, 20], pa.int64()),
    }))
    ls = pa.schema([("k", pa.string()), ("lv", pa.int64())])
    rs = pa.schema([("k", pa.string()), ("rv", pa.int64())])
    flt = lambda nl, nr: (nl <= 3) & (nr <= 3)  # noqa: E731

    coarse = hash_join(left, right, on="k", left_schema=ls,
                       right_schema=rs, group_filter=flt).to_pandas()
    perkey = hash_join(left, right, on="k", left_schema=ls,
                       right_schema=rs, group_filter=flt,
                       merge_post=lambda t: t).to_pandas()
    for got in (coarse, perkey):
        assert set(got.k) == {"ok"}  # hub (5x5) filtered out entirely
        assert sorted(zip(got.lv, got.rv)) == [(10, 20), (11, 20)]


def test_merge_post_and_group_filter_one_partition(ray_session, monkeypatch):
    """At COARSE_PARTS=1 every key shares one partition: merge_post runs
    once over all keys' joined rows, also when nothing matched, and
    group_filter still drops only the failing key groups."""
    import pyarrow as pa
    import ray.data as rd

    from odinson_ray.stages import shuffle
    from odinson_ray.stages.shuffle import hash_join, partial_aggregate

    monkeypatch.setattr(shuffle, "COARSE_PARTS", 1)
    left = rd.from_arrow(pa.table({
        "k": pa.array(["hub"] * 5 + ["ok", "ok", "solo", None], pa.string()),
        "lv": pa.array([0, 1, 2, 3, 4, 10, 11, 30, 40], pa.int64()),
    }))
    right = rd.from_arrow(pa.table({
        "k": pa.array(["hub"] * 5 + ["ok", "two", "two", None], pa.string()),
        "rv": pa.array([0, 1, 2, 3, 4, 20, 21, 22, 50], pa.int64()),
    }))
    ls = pa.schema([("k", pa.string()), ("lv", pa.int64())])
    rs = pa.schema([("k", pa.string()), ("rv", pa.int64())])
    flt = lambda nl, nr: (nl <= 3) & (nr <= 3)  # noqa: E731

    def per_key(t: pa.Table) -> pa.Table:
        # one row per key (and one batch row count) proves the call saw
        # every key of the partition at once
        agg = partial_aggregate(t, ["k"], [("n", None, "count_all"),
                                           ("s", "rv", "sum")])
        return agg.append_column(
            "calls", pa.array([t.num_rows] * agg.num_rows, pa.int64()))

    got = hash_join(left, right, on="k", left_schema=ls, right_schema=rs,
                    group_filter=flt, merge_post=per_key).to_pandas()
    assert sorted(zip(got.k, got.n, got.s)) == [("ok", 2, 40)]
    assert set(got.calls) == {2}
    full = hash_join(left, right, on="k", left_schema=ls, right_schema=rs,
                     merge_post=per_key).to_pandas()
    assert sorted(zip(full.k, full.n, full.s)) == [("hub", 25, 50),
                                                   ("ok", 2, 40)]
    assert set(full.calls) == {27}  # one call over both keys' rows
    # nothing matches: merge_post still runs, so its schema is the output's
    none = hash_join(left, right, on="k", left_schema=ls, right_schema=rs,
                     group_filter=lambda nl, nr: nl < 0, merge_post=per_key)
    assert none.count() == 0
    assert none.schema().names == ["k", "n", "s", "calls"]


def test_int_keys_colocate_when_a_batch_holds_nulls(ray_session):
    """An integer key hashes to the same partition whether or not its
    batch also holds null keys (a null makes Arrow's numpy view float)."""
    import pyarrow as pa
    import ray.data as rd

    from odinson_ray.stages.shuffle import hash_join

    keys = list(range(40))
    left = rd.from_arrow(pa.table({
        "k": pa.array(keys + [None], pa.int64()),
        "lv": pa.array(range(41), pa.int64())}))
    right = rd.from_arrow(pa.table({
        "k": pa.array(keys, pa.int64()),
        "rv": pa.array(range(40), pa.int64())}))
    got = hash_join(left, right, on="k").to_pandas()
    assert sorted(zip(got.k, got.lv, got.rv)) == [(k, k, k) for k in keys]
