"""Round-4 batch-f operators: windowed exact distinct, bounded-domain
dense rank, ratio-to-report, grouped geometric mean, props extraction,
as-of attribution. Independent pandas references on synthetic inputs
hitting cross-batch distinctness, rank ties, and as-of boundaries."""

import numpy as np
import pandas as pd
import pytest


@pytest.fixture(scope="module", autouse=True)
def _ray(ray_session):
    yield


def _write_events(tmp_path, df):
    df = df.copy()
    df["ts"] = pd.to_datetime(df["ts"]).astype("datetime64[us]")
    df.to_parquet(tmp_path / "events.parquet", index=False)
    return df


def test_window_distinct_users_cross_batch(tmp_path):
    """A user appearing in the same (day, type) cell in many separate
    files must count once; the same user in two days counts per day."""
    from odinson_ray.pipelines.queries.events import q_window_distinct_users

    d = tmp_path / "events.parquet"
    d.mkdir()
    for i in range(4):
        df = pd.DataFrame({
            "ts": pd.to_datetime(
                ["2024-01-01 05:00", "2024-01-01 07:00", "2024-01-02 05:00"]
            ).astype("datetime64[us]"),
            "event_type": ["click", "click", "click"],
            "user_id": np.array([1, 2, 1], dtype=np.int64),
        })
        df.to_parquet(d / f"p{i}.parquet", index=False)
    got = (q_window_distinct_users(str(tmp_path)).to_pandas()
           .sort_values("day").reset_index(drop=True))
    assert list(got["n_users"]) == [2, 1]


def test_dense_rank_dates_gaps_and_ties(tmp_path):
    from odinson_ray.pipelines.queries.relational import q_dense_rank_dates

    df = pd.DataFrame({
        "o_orderkey": np.arange(6, dtype=np.int64),
        "o_orderdate": pd.to_datetime(
            ["2024-03-05", "2024-01-01", "2024-03-05",
             "2024-01-01", "2024-02-01", "2024-12-31"]
        ).astype("datetime64[us]"),
    })
    df.to_parquet(tmp_path / "orders.parquet", index=False)
    got = (q_dense_rank_dates(str(tmp_path)).to_pandas()
           .sort_values("o_orderkey").reset_index(drop=True))
    assert list(got["date_rank"]) == [3, 1, 3, 1, 2, 4]


def test_geo_mean_matches_numpy(tmp_path):
    from odinson_ray.pipelines.queries.events import q_geo_mean_value

    rng = np.random.default_rng(5)
    df = _write_events(tmp_path, pd.DataFrame({
        "ts": pd.Timestamp("2024-01-01"),
        "event_type": rng.choice(["a", "b"], 1000),
        "value": np.round(rng.uniform(0.01, 300, 1000), 2),
    }))
    got = q_geo_mean_value(str(tmp_path)).set_index("event_type")
    for t, g in df.groupby("event_type"):
        want = float(np.exp(np.log(g["value"]).mean()))
        assert abs(got.loc[t, "geo_mean"] - want) < 1e-5


def test_props_stats_extraction(tmp_path):
    from odinson_ray.pipelines.queries.events import q_props_stats

    df = _write_events(tmp_path, pd.DataFrame({
        "ts": pd.Timestamp("2024-01-01"),
        "event_type": ["x", "x", "y"],
        "props": ['{"k": 7}', '{"k": 11}', '{"k": 0}'],
    }))
    got = q_props_stats(str(tmp_path)).set_index("event_type")
    assert int(got.loc["x", "k_sum"]) == 18
    assert int(got.loc["x", "k_max"]) == 11
    assert got.loc["x", "k_avg"] == 9.0
    assert int(got.loc["y", "n"]) == 1


def test_attribution_asof_boundary(tmp_path):
    """An order placed exactly at the event ts IS eligible (<=); a later
    order is not; the event's value lands on the matched order's
    priority."""
    from odinson_ray.pipelines.queries.events import q_attribution_value

    ts = pd.Timestamp("2024-06-01 12:00:00")
    _write_events(tmp_path, pd.DataFrame({
        "event_id": np.array([100, 200], dtype=np.int64),
        "user_id": np.array([1, 2], dtype=np.int64),
        "ts": [ts, ts],
        "value": [10.0, 5.0],
    }))
    orders = pd.DataFrame({
        "o_orderkey": np.array([1, 2, 3], dtype=np.int64),
        "o_custkey": np.array([1, 1, 2], dtype=np.int64),
        "o_orderdate": pd.to_datetime(
            [ts, ts + pd.Timedelta(hours=1), ts - pd.Timedelta(days=40)]
        ).astype("datetime64[us]"),
        "o_orderpriority": ["1-URGENT", "2-HIGH", "3-MEDIUM"],
        "o_totalprice": [1.0, 2.0, 3.0],
    })
    orders.to_parquet(tmp_path / "orders.parquet", index=False)
    got = q_attribution_value(str(tmp_path)).set_index("o_orderpriority")
    # user 1's event matches order 1 (same instant), NOT the later order 2;
    # user 2's event matches order 3 across a bucket boundary (40 days)
    assert int(got.loc["1-URGENT", "value_cents"]) == 1000
    assert int(got.loc["3-MEDIUM", "value_cents"]) == 500
    assert "2-HIGH" not in got.index


def test_revenue_share_sums_to_one(tmp_path):
    from odinson_ray.pipelines.queries.relational import q_revenue_share

    rng = np.random.default_rng(9)
    pd.DataFrame({
        "o_orderpriority": rng.choice(["1-URGENT", "2-HIGH", "3-MEDIUM"], 300),
        "o_totalprice": np.round(rng.uniform(10, 1000, 300), 2),
    }).to_parquet(tmp_path / "orders.parquet", index=False)
    got = q_revenue_share(str(tmp_path))
    assert abs(got["share"].sum() - 1.0) < 1e-5
    assert (got["revenue_cents"] > 0).all()
