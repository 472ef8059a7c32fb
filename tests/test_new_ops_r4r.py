"""Batch r: windowed funnel and CMS join-size estimation."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray


def test_funnel_window_boundaries(tmp_path):
    from odinson_ray.pipelines.queries4 import q_funnel_window

    base = pd.Timestamp("2024-01-01 00:00:00")
    rows = [
        # u1: purchase exactly at +24h -> inclusive edge, converts
        (1, 1, "view", base),
        (2, 1, "purchase", base + pd.Timedelta(hours=24)),
        # u2: purchase 1 us past the window -> no
        (3, 2, "view", base),
        (4, 2, "purchase", base + pd.Timedelta(hours=24, microseconds=1)),
        # u3: purchase BEFORE first view -> no (strictly after required)
        (5, 3, "purchase", base),
        (6, 3, "view", base + pd.Timedelta(hours=1)),
        # u4: second view is in-window of nothing; purchase within 24h of
        # FIRST view -> converts
        (7, 4, "view", base),
        (8, 4, "view", base + pd.Timedelta(days=9)),
        (9, 4, "purchase", base + pd.Timedelta(hours=5)),
        # u5: purchase at exactly first-view time -> strictly-after, no
        (10, 5, "view", base),
        (11, 5, "purchase", base),
    ]
    df = pd.DataFrame(rows, columns=["event_id", "user_id",
                                     "event_type", "ts"])
    df["value"] = 0.0
    df["props"] = "{}"
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "events.parquet"))
    out = q_funnel_window(str(tmp_path)).to_pandas()
    assert out.n_users.iloc[0] == 2  # u1 and u4


def test_cms_join_size_bound():
    from odinson_ray.stages.sketch import cms_join_size

    rng = np.random.default_rng(9)
    lk = rng.integers(0, 500, 20_000)
    rk = rng.integers(0, 500, 8_000)
    left = ray.data.from_arrow(pa.table({"k": pa.array(lk, pa.int64())}))
    right = ray.data.from_arrow(pa.table({"j": pa.array(rk, pa.int64())}))
    est = cms_join_size(left, right, "k", "j")

    exact = (pd.Series(lk).value_counts()
             .mul(pd.Series(rk).value_counts(), fill_value=0).sum())
    assert est["n_left"] == 20_000 and est["n_right"] == 8_000
    # one-sided: never underestimates
    assert est["est_join_rows"] >= exact
    # overestimate bounded: expected excess <= |L||R|/w per row, min of 4
    w = 1 << 12
    assert est["est_join_rows"] - exact <= 4 * 20_000 * 8_000 / w


def test_tpch_q3_gate_paths_identical(monkeypatch):
    import pandas as pd

    from odinson_ray.pipelines.queries4 import q_tpch_q3

    sf = "/root/testdata/sf0.001"
    a = q_tpch_q3(sf).to_pandas()
    from odinson_ray.stages import shuffle

    monkeypatch.setattr(shuffle, "BROADCAST_BYTES", -1)  # force semi join
    b = q_tpch_q3(sf).to_pandas()
    a = a.sort_values(list(a.columns)).reset_index(drop=True)
    b = b.sort_values(list(b.columns)).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_window_join_piecewise_sorted_ts(tmp_path, monkeypatch):
    # two users whose time ranges interleave: a global searchsorted over
    # the concatenated (piecewise-sorted) ts array would corrupt window
    # ends — this pins the per-run correctness
    import pandas as pd
    import pyarrow.parquet as pq2

    from odinson_ray.pipelines.queries4 import q_window_join_counts

    base = pd.Timestamp("2024-01-01")
    rows = [
        # user 2 (sorts after user 1) has EARLIER timestamps
        (1, 1, "a", base + pd.Timedelta(hours=10)),
        (2, 1, "b", base + pd.Timedelta(hours=10, minutes=30)),
        (3, 1, "b", base + pd.Timedelta(hours=12)),   # outside 1h window
        (4, 2, "a", base),
        (5, 2, "b", base + pd.Timedelta(minutes=59)),
        (6, 2, "b", base + pd.Timedelta(minutes=61)), # outside
    ]
    df = pd.DataFrame(rows, columns=["event_id", "user_id",
                                     "event_type", "ts"])
    df["value"] = 0.0
    df["props"] = "{}"
    pq2.write_table(pa.Table.from_pandas(df, preserve_index=False),
                    str(tmp_path / "events.parquet"))
    from odinson_ray.stages import shuffle

    monkeypatch.setattr(shuffle, "COARSE_PARTS", 1)
    out = q_window_join_counts(str(tmp_path)).to_pandas()
    got = {(r.ta, r.tb): r.n for r in out.itertuples()}
    assert got == {("a", "b"): 2, ("b", "b"): 1}
    # ("b","b"): u2's rows 5,6 are 2min apart -> in-window pair
