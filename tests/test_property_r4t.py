"""Randomized brute-force pins for three decompositions whose bucket /
composite-key plans had only hand-built or oracle coverage:
``overlap_pairs_per_key`` (exactly-once pair attribution across bucket
replicas, closed-interval boundary ties), ``q_daily_ffill`` (LOCF over
the composite-key grid join), and ``q_value_cume_dist`` (distinct-value
histogram rank machinery)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module", autouse=True)
def _ray(ray_session):
    yield


_DAY_US = 86_400 * 1_000_000


def test_overlap_pairs_randomized_vs_bruteforce():
    """300 random day-granular order dates over 60 days, 6 customers
    (one hot): per-key overlapping-pair counts must equal the O(n²)
    enumeration. Day granularity forces exact 7-day boundary ties,
    which the CLOSED-interval semantics must count."""
    import ray

    from odinson_ray.pipelines.queries.relational import overlap_pairs_per_key

    rng = np.random.default_rng(11)
    n = 300
    keys = np.where(rng.random(n) < 0.5, 0,
                    rng.integers(1, 6, n)).astype(np.int64)
    days = rng.integers(0, 60, n)
    base_us = 1_700_000_000_000_000
    start_us = base_us + days * _DAY_US
    width_us = 7 * _DAY_US

    ds = ray.data.from_arrow(pa.table({
        "k": pa.array(keys, pa.int64()),
        "ident": pa.array(np.arange(n), pa.int64()),
        "s": pa.array(start_us, pa.timestamp("us")),
    }))
    got = {r["key"]: r["n_pairs"]
           for r in overlap_pairs_per_key(
               ds, key="k", ident="ident", start="s",
               width_us=width_us).take_all()}

    for u in np.unique(keys):
        s = start_us[keys == u]
        iu, ju = np.triu_indices(len(s), k=1)
        # closed [s, s+W] intervals overlap iff |sa - sb| <= W
        expect = int(np.count_nonzero(
            np.abs(s[iu] - s[ju]) <= width_us))
        assert got.get(u, 0) == expect, u


def test_daily_ffill_randomized_vs_pandas(tmp_path):
    """5 users, random multi-event days with gaps: the distributed
    grid + LOCF must equal pandas' resample('D').last().ffill() over
    the per-day last value (ts desc, event_id desc)."""
    from odinson_ray.pipelines.queries.events import q_daily_ffill

    rng = np.random.default_rng(13)
    n = 400
    users = rng.integers(0, 5, n).astype(np.int64)
    offs = rng.integers(0, 20 * 86_400, n) * 1_000_000
    base_us = 1_700_000_000_000_000
    vals = np.round(rng.random(n) * 100, 2)
    pq.write_table(pa.table({
        "event_id": pa.array(np.arange(n), pa.int64()),
        "ts": pa.array(base_us + offs, pa.timestamp("us")),
        "user_id": pa.array(users, pa.int64()),
        "value": pa.array(vals, pa.float64()),
    }), str(tmp_path / "events.parquet"))

    got = q_daily_ffill(str(tmp_path)).to_pandas()
    got = got.sort_values(["user_id", "day_us"]).reset_index(drop=True)

    df = pd.DataFrame({"event_id": np.arange(n), "ts_us": base_us + offs,
                       "user_id": users, "value": vals})
    df["day"] = df["ts_us"] // _DAY_US
    last = (df.sort_values(["ts_us", "event_id"])
            .groupby(["user_id", "day"]).tail(1))
    expect_rows = []
    for u, grp in last.groupby("user_id"):
        by_day = grp.set_index("day")["value"]
        grid = pd.RangeIndex(by_day.index.min(), by_day.index.max() + 1)
        filled = by_day.reindex(grid).ffill()
        for d, v in filled.items():
            expect_rows.append((u, d * _DAY_US, v))
    expect = pd.DataFrame(expect_rows,
                          columns=["user_id", "day_us", "ffill_value"])
    expect = expect.sort_values(["user_id", "day_us"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[["user_id", "day_us", "ffill_value"]], expect,
        check_dtype=False)


def test_value_cume_dist_randomized_vs_numpy(tmp_path):
    """Random 2dp values over 3 types: cume_dist per event must equal
    (# values <= v within its type) / n_type, rounded to 6dp."""
    from odinson_ray.pipelines.queries.events import q_value_cume_dist

    rng = np.random.default_rng(17)
    n = 500
    types = np.array(["a", "b", "c"])[rng.integers(0, 3, n)]
    # coarse 1dp grid so duplicate values (ties) are guaranteed
    vals = np.round(rng.integers(0, 50, n) / 10.0, 2)
    pq.write_table(pa.table({
        "event_id": pa.array(np.arange(n), pa.int64()),
        "event_type": pa.array(types, pa.string()),
        "value": pa.array(vals, pa.float64()),
    }), str(tmp_path / "events.parquet"))

    got = {r["event_id"]: r["cd"]
           for r in q_value_cume_dist(str(tmp_path)).take_all()}
    assert len(got) == n
    for ty in "abc":
        mask = types == ty
        v = vals[mask]
        ids = np.arange(n)[mask]
        for i, x in zip(ids, v):
            expect = round(float(np.count_nonzero(v <= x)) / len(v), 6)
            assert got[i] == pytest.approx(expect, abs=1e-9), (ty, i)
