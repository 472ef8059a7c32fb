"""Batch q: HLL set algebra, interval-union active time edge cases,
schema-evolution reads."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray


def test_hll_overlap_accuracy(tmp_path):
    from odinson_ray.stages.sketch import hll_overlap

    rng = np.random.default_rng(5)
    # A: users 0..5999; B: users 3000..8999 -> |inter|=3000 |union|=9000
    a_users = np.arange(6000)
    b_users = np.arange(3000, 9000)
    df = pd.DataFrame({
        "event_type": ["click"] * len(a_users) + ["purchase"] * len(b_users),
        "user_id": np.concatenate([a_users, b_users]),
    })
    df = df.sample(frac=1.0, random_state=1).reset_index(drop=True)
    ds = ray.data.from_pandas(df).repartition(8)
    out = hll_overlap(ds, "event_type", "user_id",
                      "click", "purchase").to_pandas()
    r = out.iloc[0]
    assert abs(r.est_a - 6000) / 6000 < 0.05
    assert abs(r.est_b - 6000) / 6000 < 0.05
    assert abs(r.est_union - 9000) / 9000 < 0.05
    # inclusion-exclusion compounds error: generous but bounded
    assert abs(r.est_inter - 3000) / 3000 < 0.15
    assert abs(r.jaccard - 3000 / 9000) < 0.05


def test_hll_overlap_missing_group():
    from odinson_ray.stages.sketch import hll_overlap

    ds = ray.data.from_arrow(pa.table({
        "event_type": ["click"] * 10,
        "user_id": list(range(10))}))
    out = hll_overlap(ds, "event_type", "user_id",
                      "click", "purchase").to_pandas()
    r = out.iloc[0]
    assert r.est_b == 0
    assert r.est_inter == 0


def test_user_active_time_bursts(tmp_path):
    from odinson_ray.pipelines.queries.events import q_user_active_time

    # user 1: burst of 3 events 10 s apart (union ≈ 320 s, not 900);
    # user 2: two events 10 min apart (two disjoint windows = 600 s)
    ts = pd.to_datetime([
        "2024-01-01 00:00:00", "2024-01-01 00:00:10",
        "2024-01-01 00:00:20",
        "2024-01-01 01:00:00", "2024-01-01 01:10:00"])
    df = pd.DataFrame({
        "event_id": [1, 2, 3, 4, 5],
        "user_id": [1, 1, 1, 2, 2],
        "event_type": ["x"] * 5,
        "value": [0.0] * 5,
        "ts": ts,
        "props": ["{}"] * 5,
    })
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "events.parquet"))
    out = q_user_active_time(str(tmp_path)).to_pandas()
    got = dict(zip(out.user_id, out.active_us))
    assert got[1] == (10 + 10 + 300) * 1_000_000
    assert got[2] == (300 + 300) * 1_000_000


def test_read_parquet_evolved(tmp_path):
    from odinson_ray.sources.io import read_parquet_evolved

    p1 = str(tmp_path / "v1.parquet")
    p2 = str(tmp_path / "v2.parquet")
    pq.write_table(pa.table({"a": [1, 2], "b": ["x", "y"]}), p1)
    # v2 added column c and dropped b
    pq.write_table(pa.table({"a": [3], "c": [9.5]}), p2)

    ds = read_parquet_evolved([p1, p2])
    df = ds.to_pandas().sort_values("a").reset_index(drop=True)
    assert list(df.columns) == ["a", "b", "c"]
    assert df.a.tolist() == [1, 2, 3]
    assert df.b.tolist()[:2] == ["x", "y"] and pd.isna(df.b.iloc[2])
    assert pd.isna(df.c.iloc[0]) and df.c.iloc[2] == 9.5

    # explicit target schema: project + cast
    tgt = pa.schema([("a", pa.int32()), ("c", pa.float64())])
    df2 = read_parquet_evolved([p1, p2], target_schema=tgt).to_pandas()
    assert list(df2.columns) == ["a", "c"]
