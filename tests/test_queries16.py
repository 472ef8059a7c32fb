"""Session-7 batch: Q19 bracket revenue, Q4 EXISTS-per-order counts,
interval-union coverage, per-user KL divergence — semantic pins on
hand-built inputs plus a randomized brute-force pin for the coverage
sweep (the sf0.01 DuckDB oracles cover full-scale equivalence)."""

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module", autouse=True)
def _ray(ray_session):
    yield


def _ts(s):
    return pd.Timestamp(s)


def test_bracket_revenue_disjunction_and_cents(tmp_path):
    """Only lines inside SOME bracket count; revenue is exact floor
    cents of ext*(1-disc)."""
    from odinson_ray.pipelines.queries.relational import q_bracket_revenue

    pq.write_table(pa.table({
        "p_partkey": pa.array([1, 2, 3, 4], pa.int64()),
        "p_brand": pa.array(["Brand#4", "Brand#19", "Brand#4", "Brand#7"],
                            pa.string()),
        "p_size": pa.array([10, 20, 40, 10], pa.int64()),
    }), str(tmp_path / "part.parquet"))
    pq.write_table(pa.table({
        # (part, qty, ext, disc)
        "l_partkey": pa.array([1, 1, 2, 3, 4], pa.int64()),
        "l_quantity": pa.array([5.0, 30.0, 15.0, 5.0, 5.0], pa.float64()),
        "l_extendedprice": pa.array([100.10, 100.0, 200.0, 300.0, 400.0],
                                    pa.float64()),
        "l_discount": pa.array([0.05, 0.0, 0.1, 0.0, 0.0], pa.float64()),
    }), str(tmp_path / "lineitem.parquet"))
    # line 1: Brand#4 size 10 qty 5 -> bracket 1 hit (95.095 -> 9509)
    # line 2: qty 30 outside bracket-1 qty range -> miss
    # line 3: Brand#19 size 20 qty 15 -> bracket 2 hit (180.0 -> 18000)
    # line 4: Brand#4 size 40 -> size outside bracket 1 -> miss
    # line 5: Brand#7 not a bracket brand -> miss
    got = q_bracket_revenue(str(tmp_path)).to_pandas()
    assert got["n_lines"].tolist() == [2]
    assert got["revenue_cents"].tolist() == [9509 + 18000]


def test_late_order_priority_exists_semantics(tmp_path):
    """An order counts ONCE however many late lines it has; orders with
    only on-time lines and priorities with no late orders drop out."""
    from odinson_ray.pipelines.queries.relational import q_late_order_priority

    pq.write_table(pa.table({
        "o_orderkey": pa.array([1, 2, 3], pa.int64()),
        "o_orderdate": pa.array([_ts("2020-01-01")] * 3, pa.timestamp("us")),
        "o_orderpriority": pa.array(["1-URGENT", "1-URGENT", "5-LOW"],
                                    pa.string()),
    }), str(tmp_path / "orders.parquet"))
    pq.write_table(pa.table({
        "l_orderkey": pa.array([1, 1, 1, 2, 3], pa.int64()),
        "l_shipdate": pa.array([_ts("2020-06-01"), _ts("2020-07-01"),
                                _ts("2020-01-10"), _ts("2020-01-15"),
                                _ts("2020-02-20")], pa.timestamp("us")),
    }), str(tmp_path / "lineitem.parquet"))
    # order 1: two late lines -> counts once under 1-URGENT
    # order 2: on time -> drops; order 3: 50 days < 60 -> drops
    got = q_late_order_priority(str(tmp_path)).to_pandas()
    assert list(zip(got["o_orderpriority"], got["order_count"])) == [
        ("1-URGENT", 1)]


def test_user_coverage_overlap_once_and_bucket_crossing(tmp_path):
    """Overlapping intervals count once; an interval crossing the
    coarse bucket boundary is split exactly (clip is lossless)."""
    from odinson_ray.pipelines.queries.events import q_user_coverage

    base = _ts("2024-01-01 00:00:00")
    rows = [
        # user 1: [0,300) and [100,400) -> union [0,400) = 400 s
        (1, base),
        (1, base + pd.Timedelta(seconds=100)),
        # user 2: one interval crossing the hour boundary:
        # [3500, 3800) over buckets [0,3600) + [3600,7200) -> 300 s
        (2, base + pd.Timedelta(seconds=3500)),
        # user 3: disjoint [0,300) and [1000,1300) -> 600 s
        (3, base),
        (3, base + pd.Timedelta(seconds=1000)),
    ]
    pq.write_table(pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
    }), str(tmp_path / "events.parquet"))
    got = q_user_coverage(str(tmp_path)).to_pandas()
    assert list(zip(got["user_id"], got["covered_us"])) == [
        (1, 400_000_000), (2, 300_000_000), (3, 600_000_000)]


def test_interval_coverage_randomized_vs_bruteforce():
    """500 random events over 6 hours, 5 users (one hot), vs a
    driver-side brute-force union of intervals."""
    import ray

    from odinson_ray.stages.window import interval_coverage

    rng = np.random.default_rng(7)
    n = 500
    users = np.where(rng.random(n) < 0.6, 0,
                     rng.integers(1, 5, n)).astype(np.int64)
    offs_us = rng.integers(0, 6 * 3600 * 1_000_000, n)
    base_us = 1_700_000_000_000_000
    ts = pa.array(base_us + offs_us, pa.timestamp("us"))
    ds = ray.data.from_arrow(pa.table({"user_id": pa.array(users), "ts": ts}))
    got = {r["user_id"]: r["covered_us"]
           for r in interval_coverage(ds, width_s=300).take_all()}

    width = 300 * 1_000_000
    for u in np.unique(users):
        ivs = sorted((base_us + int(o), base_us + int(o) + width)
                     for o in offs_us[users == u])
        covered, cur_s, cur_e = 0, None, None
        for s, e in ivs:
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        covered += cur_e - cur_s
        assert got[u] == covered, u


def test_user_type_kl_zero_for_global_mix_and_brute_force(tmp_path):
    """A user whose mix equals the global mix scores ~0 (floor can dip
    a term to -1 µ-unit); every user matches the brute-force formula."""
    from odinson_ray.pipelines.queries.events import q_user_type_kl

    base = _ts("2024-01-01")
    # global mix: a:6, b:3 ; user 1 mirrors it (a:4, b:2),
    # user 2 is skewed (a:2, b:1 -> also mirrors!) -> make user 2 all-b
    rows = [(1, "a")] * 4 + [(1, "b")] * 2 + [(2, "a")] * 2 + [(2, "b")]
    users = [r[0] for r in rows]
    types = [r[1] for r in rows]
    pq.write_table(pa.table({
        "user_id": pa.array(users, pa.int64()),
        "ts": pa.array([base] * len(rows), pa.timestamp("us")),
        "event_type": pa.array(types, pa.string()),
    }), str(tmp_path / "events.parquet"))
    got = {r["user_id"]: r["kl_micro"]
           for r in q_user_type_kl(str(tmp_path)).take_all()}

    from collections import Counter

    g = Counter(types)
    n_total = len(rows)
    for u in {1, 2}:
        cu = Counter(t for uu, t in rows if uu == u)
        n = sum(cu.values())
        expect = sum(
            math.floor(math.log((c * n_total) / (n * g[t]))
                       * c * 1_000_000.0 / n)
            for t, c in cu.items())
        assert got[u] == expect, u
    # both users mirror the global mix here -> every term's true value
    # is 0, floor keeps it at 0 or -1 per term
    assert -2 <= got[1] <= 0 and -2 <= got[2] <= 0
