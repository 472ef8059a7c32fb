"""Round-4 batch-i operators: rolling 7-day distinct (interval
expansion) and windowed top-k (trending tokens). References built by
hand so window-edge and tie semantics are pinned independently of the
SQL oracle."""

import numpy as np
import pandas as pd
import pytest


@pytest.fixture(scope="module", autouse=True)
def _ray(ray_session):
    yield


def test_rolling_distinct_window_edges(tmp_path):
    """User active on day 0 counts in windows 0..6 and NOT in window 7;
    a user active on days 0 and 3 counts once in the overlapping
    windows 3..6."""
    from odinson_ray.pipelines.queries.events import q_rolling_distinct_users

    base = pd.Timestamp("2024-01-01")
    df = pd.DataFrame({
        "ts": pd.Series([base, base + pd.Timedelta(days=3),
                         base + pd.Timedelta(days=7)]).astype("datetime64[us]"),
        "user_id": np.array([1, 1, 2], dtype=np.int64),
    })
    df.to_parquet(tmp_path / "events.parquet", index=False)
    got = (q_rolling_distinct_users(str(tmp_path)).to_pandas()
           .set_index("day")["n7"].to_dict())
    # day 0..2: only user1's day-0 activity; 3..6: user1 (once, despite
    # two active days); 7..9: user1 (day-3 activity) + user2; 10..13: u2
    for k in range(0, 3):
        assert got[base + pd.Timedelta(days=k)] == 1
    for k in range(3, 7):
        assert got[base + pd.Timedelta(days=k)] == 1
    for k in range(7, 10):
        assert got[base + pd.Timedelta(days=k)] == 2
    for k in range(10, 14):
        assert got[base + pd.Timedelta(days=k)] == 1
    assert base + pd.Timedelta(days=14) not in got


def test_trending_tokens_ties_and_k(tmp_path):
    from odinson_ray.pipelines.queries.text import q_trending_tokens

    # doc_id 0 and 7 land on day 0; "b" and "c" tie at 2 -> token-asc
    df = pd.DataFrame({
        "doc_id": np.array([0, 7], dtype=np.int64),
        "text": ["a a a b c", "b c d"],
    })
    df.to_parquet(tmp_path / "documents.parquet", index=False)
    got = (q_trending_tokens(str(tmp_path)).to_pandas()
           .sort_values(["day", "n", "token"],
                        ascending=[True, False, True]).reset_index(drop=True))
    assert list(got["token"]) == ["a", "b", "c"]
    assert list(got["n"]) == [3, 2, 2]
