"""Round-4 batch-j operators: market-basket pairs (coarse-partition
segmented pairing) and per-user ordered string_agg of top-3 types."""

import numpy as np
import pandas as pd
import pytest


@pytest.fixture(scope="module", autouse=True)
def _ray(ray_session):
    yield


def _events(tmp_path, rows):
    df = pd.DataFrame(rows, columns=["user_id", "ts", "event_type"])
    df["user_id"] = df["user_id"].astype(np.int64)
    df["ts"] = pd.to_datetime(df["ts"]).astype("datetime64[us]")
    df.to_parquet(tmp_path / "events.parquet", index=False)
    return df


def test_basket_pairs_distinct_within_basket(tmp_path):
    """Duplicate (user, day, type) rows collapse before pairing; pairs
    are per-basket and ordered (ta < tb); different days of the same
    user are different baskets."""
    from odinson_ray.pipelines.queries.events import q_basket_pairs

    _events(tmp_path, [
        (1, "2024-01-01 08:00", "view"),
        (1, "2024-01-01 09:00", "view"),     # dup within basket -> once
        (1, "2024-01-01 10:00", "click"),
        (1, "2024-01-02 10:00", "click"),    # next day, alone -> no pair
        (2, "2024-01-01 11:00", "click"),
        (2, "2024-01-01 12:00", "view"),
        (2, "2024-01-01 13:00", "purchase"),
    ])
    got = (q_basket_pairs(str(tmp_path)).to_pandas()
           .set_index(["ta", "tb"])["n"].to_dict())
    assert got == {("click", "view"): 2,
                   ("click", "purchase"): 1,
                   ("purchase", "view"): 1}


def test_basket_pairs_matches_bruteforce(tmp_path):
    from odinson_ray.pipelines.queries.events import q_basket_pairs

    rng = np.random.default_rng(31)
    n = 3000
    df = _events(tmp_path, [
        (int(rng.integers(0, 25)),
         pd.Timestamp("2024-01-01") + pd.Timedelta(hours=int(h)),
         str(t))
        for h, t in zip(rng.integers(0, 24 * 10, n),
                        rng.choice(["a", "b", "c", "d"], n))
    ])
    df["day"] = df["ts"].dt.floor("D")
    du = df[["user_id", "day", "event_type"]].drop_duplicates()
    ref = (du.merge(du, on=["user_id", "day"])
           .query("event_type_x < event_type_y")
           .groupby(["event_type_x", "event_type_y"]).size())
    got = (q_basket_pairs(str(tmp_path)).to_pandas()
           .set_index(["ta", "tb"])["n"].sort_index())
    assert got.to_dict() == ref.to_dict()


def test_user_top3_ordering_and_truncation(tmp_path):
    from odinson_ray.pipelines.queries.events import q_user_top3_types

    rows = []
    # user 1: a x3, b x2, c x2, d x1 -> "a,b,c" (tie b/c -> asc)
    for t, k in [("a", 3), ("b", 2), ("c", 2), ("d", 1)]:
        rows += [(1, "2024-01-01", t)] * k
    # user 2: single type
    rows += [(2, "2024-01-01", "z")]
    _events(tmp_path, rows)
    got = (q_user_top3_types(str(tmp_path)).to_pandas()
           .set_index("user_id")["top_types"].to_dict())
    assert got == {1: "a,b,c", 2: "z"}
