"""Round-4 batch-d operators: weighted sample (A-ES), weekly cohort
retention, per-key high-water-mark drawdown. Each checked against an
independent pandas/numpy reference under skewed keys and bucket-boundary
layouts (the two-stage window machinery's failure modes)."""

import numpy as np
import pandas as pd
import pytest


@pytest.fixture(scope="module", autouse=True)
def _ray(ray_session):
    yield


def _zipf_events(tmp_path, n=6000, n_users=40, seed=11):
    rng = np.random.default_rng(seed)
    ranks = rng.zipf(1.6, size=n)
    user = np.minimum(ranks - 1, n_users - 1).astype(np.int64)
    base = pd.Timestamp("2024-03-01")
    ts = base + pd.to_timedelta(
        np.sort(rng.integers(0, 30 * 86400, size=n)), unit="s")
    df = pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "user_id": user,
        "ts": ts.astype("datetime64[us]"),
        "value": np.round(rng.uniform(0, 100, size=n), 2),
    })
    p = tmp_path / "events.parquet"
    df.to_parquet(p, index=False)
    assert (user == 0).mean() > 0.3
    return str(p), df


def test_running_drawdown_zipfian(tmp_path):
    import ray.data as rd

    from odinson_ray.stages.window import running_drawdown

    path, df = _zipf_events(tmp_path)
    got = (
        running_drawdown(rd.read_parquet(path))
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    ref = df.sort_values(["user_id", "ts", "event_id"]).copy()
    ref["drawdown"] = (
        ref.groupby("user_id")["value"].cummax() - ref["value"]
    ).round(4)
    ref = ref.sort_values("event_id").reset_index(drop=True)
    assert len(got) == len(ref)
    pd.testing.assert_series_equal(got["drawdown"], ref["drawdown"],
                                   check_names=False)


def test_running_drawdown_bucket_boundary(tmp_path):
    """High-water mark set in an early bucket must carry across empty and
    later buckets (exclusive prefix max), including a value equal to the
    carry (idempotent max, drawdown 0)."""
    import ray.data as rd

    from odinson_ray.stages.window import running_drawdown

    ts = pd.to_datetime([
        "2024-03-01 10:00", "2024-03-01 11:00",  # bucket 1: peak 90
        "2024-03-05 09:00",                        # bucket 5: below carry
        "2024-03-09 09:00", "2024-03-09 10:00",   # bucket 9: equal + new hi
    ]).astype("datetime64[us]")
    df = pd.DataFrame({
        "event_id": np.arange(5, dtype=np.int64),
        "user_id": np.zeros(5, dtype=np.int64),
        "ts": ts,
        "value": [90.0, 40.0, 70.0, 90.0, 95.0],
    })
    p = tmp_path / "e.parquet"
    df.to_parquet(p, index=False)
    got = (
        running_drawdown(rd.read_parquet(str(p)))
        .to_pandas().sort_values("event_id")["drawdown"].tolist()
    )
    assert got == [0.0, 50.0, 20.0, 0.0, 0.0]


def test_cohort_retention_matches_pandas(tmp_path):
    from odinson_ray.pipelines.queries.events import q_cohort_retention

    path, df = _zipf_events(tmp_path, n=4000, n_users=60, seed=5)
    got = (
        q_cohort_retention(str(tmp_path))
        .to_pandas()
        .sort_values(["cohort_week", "week_offset"])
        .reset_index(drop=True)
    )
    us = df["ts"].astype("int64")
    week = us // 1_000_000 // 86_400 // 7
    uw = pd.DataFrame({"u": df["user_id"], "w": week}).drop_duplicates()
    cohort = uw.groupby("u")["w"].min().rename("c")
    uw = uw.join(cohort, on="u")
    ref = (
        uw.assign(off=uw["w"] - uw["c"])
        .groupby(["c", "off"]).size().rename("n_users").reset_index()
        .rename(columns={"c": "cohort_week", "off": "week_offset"})
        .sort_values(["cohort_week", "week_offset"]).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got.astype("int64"), ref.astype("int64"))


def test_weighted_sample_parallelism_invariant(tmp_path):
    """The sample is a pure function of doc_id: identical membership at 1
    block and at 16 blocks (resumable / cluster-size-independent), and
    higher-weight docs are favored over a uniform draw."""
    from odinson_ray.pipelines.queries.text import q_weighted_sample

    rng = np.random.default_rng(3)
    n = 2000
    df = pd.DataFrame({
        "doc_id": np.arange(n, dtype=np.int64),
        "n_chars": rng.integers(50, 5000, size=n).astype(np.int64),
    })
    df.to_parquet(tmp_path / "documents.parquet", index=False)

    got = q_weighted_sample(str(tmp_path), k=200).to_pandas()
    assert len(got) == 200
    # reference: same A-ES draw in plain numpy
    u = (((df.doc_id.values.astype(np.uint64) * np.uint64(2654435761))
          % np.uint64(1 << 32)).astype(np.float64) + 0.5) / float(1 << 32)
    s = np.power(u, 1.0 / df.n_chars.values.astype(np.float64))
    order = np.lexsort((df.doc_id.values, -s))
    ref_ids = set(df.doc_id.values[order[:200]].tolist())
    assert set(got.doc_id.tolist()) == ref_ids
    # weighted: the sample's mean weight must exceed the corpus mean
    assert got.n_chars.mean() > df.n_chars.mean() * 1.1
