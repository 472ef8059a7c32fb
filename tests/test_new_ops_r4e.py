"""Round-4 batch-e operators: skyline (Pareto frontier), unpivot
partial-sum fold, changelog compaction (latest-per-key), snapshot diff.
Each checked against an independent pandas/numpy reference on synthetic
data built to hit the tie/boundary semantics the oracles can't isolate."""

import numpy as np
import pandas as pd
import pytest


@pytest.fixture(scope="module", autouse=True)
def _ray(ray_session):
    yield


def _orders(tmp_path, rows):
    df = pd.DataFrame(rows, columns=["o_orderkey", "o_orderdate", "o_totalprice"])
    df["o_orderkey"] = df["o_orderkey"].astype(np.int64)
    df["o_orderdate"] = pd.to_datetime(df["o_orderdate"]).astype("datetime64[us]")
    p = tmp_path / "orders.parquet"
    df.to_parquet(p, index=False)
    return df


def test_skyline_tie_semantics(tmp_path):
    """Equal (date, price) duplicates are BOTH on the skyline (neither
    strictly dominates); an equal price at an earlier date dominates a
    later one; a same-date lower price is dominated."""
    from odinson_ray.pipelines.queries.relational import q_skyline_orders

    _orders(tmp_path, [
        (1, "2024-01-01", 10.00),   # skyline
        (2, "2024-01-01", 10.00),   # duplicate of 1 -> also skyline
        (3, "2024-01-01", 9.00),    # same date, lower price -> dominated
        (4, "2024-01-02", 10.00),   # equal price, later date -> dominated by 1
        (5, "2024-01-02", 12.00),   # higher price -> skyline
        (6, "2024-01-03", 11.00),   # dominated by 5
    ])
    got = q_skyline_orders(str(tmp_path)).to_pandas()
    assert sorted(got["o_orderkey"]) == [1, 2, 5]


def test_skyline_matches_bruteforce(tmp_path):
    from odinson_ray.pipelines.queries.relational import q_skyline_orders

    rng = np.random.default_rng(7)
    n = 400
    df = _orders(tmp_path, [
        (i, pd.Timestamp("2024-01-01") + pd.Timedelta(days=int(d)),
         round(float(p), 2))
        for i, (d, p) in enumerate(zip(rng.integers(0, 40, n),
                                       rng.uniform(1, 100, n)))
    ])
    cents = np.floor(df["o_totalprice"].to_numpy() * 100 + 0.5).astype(np.int64)
    dates = df["o_orderdate"].to_numpy()
    keep = []
    for i in range(n):
        dom = ((dates <= dates[i]) & (cents >= cents[i])
               & ((dates < dates[i]) | (cents > cents[i])))
        if not dom.any():
            keep.append(i)
    got = q_skyline_orders(str(tmp_path)).to_pandas()
    assert sorted(got["o_orderkey"]) == sorted(df["o_orderkey"].iloc[keep])


def test_latest_events_tiebreak_across_blocks(tmp_path):
    """Two rows of one key share the max ts in DIFFERENT input files
    (hence different batches): the event_id tie-break must hold through
    the per-batch combiner and the reducer."""
    import ray.data as rd

    from odinson_ray.pipelines.queries.events import q_latest_events

    ts = pd.Timestamp("2024-05-01")
    a = pd.DataFrame({
        "event_id": np.array([1, 2], dtype=np.int64),
        "user_id": np.array([7, 8], dtype=np.int64),
        "ts": pd.Series([ts, ts]).astype("datetime64[us]"),
        "event_type": ["click", "view"],
    })
    b = pd.DataFrame({
        "event_id": np.array([9, 3], dtype=np.int64),
        "user_id": np.array([7, 8], dtype=np.int64),
        "ts": pd.Series([ts, ts - pd.Timedelta(hours=1)]).astype("datetime64[us]"),
        "event_type": ["buy", "view"],
    })
    d = tmp_path / "events.parquet"
    d.mkdir()
    a.to_parquet(d / "a.parquet", index=False)
    b.to_parquet(d / "b.parquet", index=False)
    got = (q_latest_events(str(tmp_path)).to_pandas()
           .sort_values("user_id").reset_index(drop=True))
    assert list(got["user_id"]) == [7, 8]
    assert list(got["event_id"]) == [9, 2]  # ts tie -> higher event_id wins
    assert list(got["event_type"]) == ["buy", "view"]


def test_snapshot_diff_classes(tmp_path):
    from odinson_ray.pipelines.queries.relational import q_snapshot_diff

    # keys chosen to hit each class: 97 removed, 11/22 repriced (changed),
    # 101 -> both an add (-101) and unchanged itself, 5 untouched
    _orders(tmp_path, [
        (97, "2024-01-01", 50.0),
        (11, "2024-01-01", 10.0),
        (22, "2024-01-01", 20.0),
        (101, "2024-01-01", 30.0),
        (5, "2024-01-01", 40.0),
    ])
    got = q_snapshot_diff(str(tmp_path)).to_pandas()
    by = dict(zip(got["o_orderkey"], got["change"]))
    assert by == {97: "removed", 11: "changed", 22: "changed", -101: "added"}


def test_unpivot_measure_totals(tmp_path):
    from odinson_ray.pipelines.queries.relational import q_unpivot_measures

    rng = np.random.default_rng(3)
    n = 500
    df = pd.DataFrame({
        "l_quantity": np.round(rng.uniform(1, 50, n), 2),
        "l_extendedprice": np.round(rng.uniform(100, 9000, n), 2),
        "l_discount": np.round(rng.uniform(0, 0.1, n), 2),
        "l_tax": np.round(rng.uniform(0, 0.08, n), 2),
    })
    df.to_parquet(tmp_path / "lineitem.parquet", index=False)
    got = q_unpivot_measures(str(tmp_path)).set_index("measure")
    assert (got["n"] == n).all()
    for m in df.columns:
        want = int(np.floor(df[m].sum() * 100 + 0.5))
        assert abs(int(got.loc[m, "total_cents"]) - want) <= 1
