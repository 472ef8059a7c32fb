"""Stream-shaped queries over the ``events`` table (user_id, ts,
event_type, value, props).

Sessionization, tumbling/sliding/rolling windows, as-of and interval
joins, funnels and CEP patterns, per-user top-k, quantiles, sketches
and the other time-ordered per-key sweeps (most run one
``stages.shuffle.coarse_groups`` exchange keyed by user or type).
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from odinson_ray.sources.io import table
from odinson_ray.stages.shuffle import (coarse_groups, combine_aggregate,
                                        hash_join, partial_aggregate)

from . import query


ORACLE_EVENTS_BY_TYPE = """
SELECT event_type, count(*) AS n, round(sum(value), 2) AS total_value
FROM events GROUP BY event_type
"""


@query("events_by_type", oracle=ORACLE_EVENTS_BY_TYPE)
def q_events_by_type(sf_dir: str):
    from ray.data.aggregate import Count, Sum

    out = (
        table(sf_dir, "events", columns=["event_type", "value"])
        .groupby("event_type")
        .aggregate(Count(alias_name="n"), Sum("value", alias_name="total_value"))
        .to_pandas()
    )
    out["total_value"] = out["total_value"].round(2)
    return out


ORACLE_SESSIONIZE = """
SELECT user_id, count(*) AS n_sessions FROM (
  SELECT user_id,
         CASE WHEN prev_ts IS NULL OR epoch(ts - prev_ts) > 1800 THEN 1 ELSE 0 END AS is_new
  FROM (SELECT user_id, ts,
               lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS prev_ts
        FROM events) t
) WHERE is_new = 1 GROUP BY user_id
"""


@query("sessionize", oracle=ORACLE_SESSIONIZE)
def q_sessionize(sf_dir: str):
    """Session counts per user with a 30-minute inactivity gap — the
    skew-safe two-stage (key, time-bucket) decomposition from
    stages/window.py, so one hot user cannot pin a whole task."""
    from ...stages.window import sessionize

    return sessionize(
        table(sf_dir, "events", columns=["user_id", "ts", "event_id"]),
        key="user_id", ts="ts", gap_s=1800,
    )


ORACLE_RUNNING_TOTAL = """
SELECT event_id, user_id,
       round(sum(value) OVER (PARTITION BY user_id ORDER BY ts, event_id
                              ROWS UNBOUNDED PRECEDING), 4) AS running_value
FROM events
"""


@query("running_total", oracle=ORACLE_RUNNING_TOTAL)
def q_running_total(sf_dir: str):
    """Per-user running sum ordered by (ts, event_id) — skew-safe
    two-stage windowed aggregate (stages/window.py): within-bucket seeded
    cumsums + per-key prefix-summed bucket offsets, so no task ever holds
    more than one time bucket of one key."""
    from ...stages.window import running_total

    return running_total(
        table(sf_dir, "events",
              columns=["user_id", "ts", "event_id", "value"]),
        key="user_id", ts="ts", order="event_id", value="value",
        out="running_value", ndigits=4,
    )


ORACLE_TUMBLING_WINDOW = """
SELECT user_id, date_trunc('hour', ts) AS window_start,
       count(*) AS n, round(sum(value), 2) AS total_value
FROM events GROUP BY user_id, date_trunc('hour', ts)
"""


@query("tumbling_window", oracle=ORACLE_TUMBLING_WINDOW)
def q_tumbling_window(sf_dir: str):
    """Tumbling 1-hour windows per user over the event stream."""
    from ray.data.aggregate import Count, Sum

    def add_window(t: pa.Table) -> pa.Table:
        win = pc.floor_temporal(t["ts"], unit="hour")
        return pa.Table.from_pydict(
            {"user_id": t["user_id"], "window_start": win, "value": t["value"]}
        )

    out = (
        table(sf_dir, "events", columns=["user_id", "ts", "value"])
        .map_batches(add_window, batch_format="pyarrow")
        .groupby(["user_id", "window_start"])
        .aggregate(Count(alias_name="n"), Sum("value", alias_name="total_value"))
        .to_pandas()
    )
    out["total_value"] = out["total_value"].round(2)
    return out


ORACLE_WINDOW_VALUE_SALTED = """
SELECT date_trunc('hour', ts) AS window_start, round(sum(value), 2) AS total_value
FROM events GROUP BY date_trunc('hour', ts)
"""


@query("window_value_salted", oracle=ORACLE_WINDOW_VALUE_SALTED)
def q_window_value_salted(sf_dir: str):
    """Total value per 1-hour tumbling window across ALL users — the
    window key is genuinely hot (every user's events land in the same
    handful of hourly keys), so this routes through salted_aggregate:
    stage 1 spreads each window over 8 sub-keys, stage 2 merges <= 8
    partials per window (VERDICT r02 "What's wrong" #7)."""
    from ...stages.shuffle import salted_aggregate

    def add_window(t: pa.Table) -> pa.Table:
        win = pc.floor_temporal(t["ts"], unit="hour")
        return pa.Table.from_pydict({"window_start": win, "value": t["value"]})

    ds = table(sf_dir, "events", columns=["ts", "value"]).map_batches(
        add_window, batch_format="pyarrow"
    )
    out = salted_aggregate(ds, "window_start", "value", salt=8).to_pandas()
    out["total_value"] = out.pop("total").round(2)
    return out


ORACLE_DISTINCT_USERS_PER_TYPE = """
SELECT event_type, count(DISTINCT user_id) AS n_users
FROM events GROUP BY event_type
"""


@query("distinct_users_per_type", oracle=ORACLE_DISTINCT_USERS_PER_TYPE)
def q_distinct_users_per_type(sf_dir: str):
    """count(distinct key) per group via distinct-pairs combiner then a
    small groupby (two-stage exact distinct count)."""
    from ray.data.aggregate import Count

    def distinct_pairs(t: pa.Table) -> pa.Table:
        df = t.to_pandas().drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    pairs = (
        table(sf_dir, "events", columns=["event_type", "user_id"])
        .map_batches(distinct_pairs, batch_format="pyarrow")
        .groupby(["event_type", "user_id"])
        .aggregate(Count(alias_name="_n"))
    )
    return (
        pairs.map_batches(lambda t: t.select(["event_type"]), batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(Count(alias_name="n_users"))
    )


ORACLE_ASOF_JOIN = """
SELECT event_id, user_id, o_orderkey AS last_orderkey FROM (
  SELECT e.event_id, e.user_id, o.o_orderkey,
         row_number() OVER (PARTITION BY e.event_id
                            ORDER BY o.o_orderdate DESC, o.o_orderkey DESC) AS rn
  FROM events e JOIN orders o
    ON o.o_custkey = e.user_id AND o.o_orderdate <= e.ts
) WHERE rn = 1
"""


@query("asof_join", oracle=ORACLE_ASOF_JOIN)
def q_asof_join(sf_dir: str):
    """As-of join: each event matched to the latest order of the same
    customer placed at or before the event time.

    Skew-safe two-stage (key, time-bucket) decomposition + vectorized
    per-bucket searchsorted — stages/window.asof_join_latest (VERDICT
    r03 #4 closed; previously a single-stage groupby(user_id) put a hot
    user's entire event+order history in one task with a per-event
    Python loop). Week buckets: o_orderdate is day-granular and spans
    years, so day buckets would make per-bucket groups needlessly tiny."""
    from odinson_ray.stages.window import asof_join_latest

    orders = table(
        sf_dir, "orders", columns=["o_custkey", "o_orderkey", "o_orderdate"]
    ).map_batches(
        lambda t: pa.table({
            "user_id": pc.cast(t["o_custkey"], pa.int64()),
            "ts": pc.cast(t["o_orderdate"], pa.timestamp("us")),
            "id": pc.cast(t["o_orderkey"], pa.int64()),
        }),
        batch_format="pyarrow")
    events = table(
        sf_dir, "events", columns=["event_id", "user_id", "ts"]
    ).map_batches(
        lambda t: pa.table({
            "event_id": pc.cast(t["event_id"], pa.int64()),
            "user_id": pc.cast(t["user_id"], pa.int64()),
            "ts": pc.cast(t["ts"], pa.timestamp("us")),
        }),
        batch_format="pyarrow")
    return asof_join_latest(events, orders, key="user_id", ts="ts",
                            ev_id="event_id", ord_id="id",
                            out="last_orderkey", bucket_s=30 * 86400)


ORACLE_SLIDING_WINDOW = """
SELECT event_type, window_start, count(*) AS n, round(sum(value), 2) AS total_value
FROM (
  SELECT event_type, value,
         date_trunc('hour', ts) - k * INTERVAL 1 HOUR AS window_start
  FROM events, unnest([0, 1]) AS t(k)
)
GROUP BY event_type, window_start
"""


@query("sliding_window", oracle=ORACLE_SLIDING_WINDOW)
def q_sliding_window(sf_dir: str):
    """Sliding 2-hour windows hopping hourly per event type: each event
    expands to its two covering windows inside map_batches (vectorized),
    then one groupby — the flat-map + aggregate shape for hop < width."""
    from ray.data.aggregate import Count, Sum

    def expand(t: pa.Table) -> pa.Table:
        base = pc.floor_temporal(t["ts"], unit="hour")
        hour = pa.scalar(3600_000_000, pa.duration("us"))
        parts = []
        for k in (0, 1):
            win = base if k == 0 else pc.subtract(base, hour)
            parts.append(pa.table({
                "event_type": t["event_type"],
                "window_start": win.cast(pa.timestamp("us")),
                "value": t["value"],
            }))
        return pa.concat_tables(parts)

    out = (
        table(sf_dir, "events", columns=["event_type", "ts", "value"])
        .map_batches(expand, batch_format="pyarrow")
        .groupby(["event_type", "window_start"])
        .aggregate(Count(alias_name="n"), Sum("value", alias_name="total_value"))
        .to_pandas()
    )
    out["total_value"] = out["total_value"].round(2)
    return out


# ================================================================= range join


ORACLE_RANGE_JOIN_CLICKS = """
WITH err AS (SELECT event_id, ts FROM events WHERE event_type = 'error'),
     clk AS (SELECT ts FROM events WHERE event_type = 'click')
SELECT e.event_id, CAST(count(c.ts) AS BIGINT) AS n_clicks_5m
FROM err e LEFT JOIN clk c
  ON c.ts > e.ts - INTERVAL 5 MINUTE AND c.ts <= e.ts
GROUP BY e.event_id
"""


@query("range_join_clicks", oracle=ORACLE_RANGE_JOIN_CLICKS)
def q_range_join_clicks(sf_dir: str):
    """Bucketed RANGE JOIN (a non-equi join Ray Data lacks natively): for
    each 'error' event, the number of 'click' events in the preceding 5
    minutes (exclusive lower bound, inclusive upper).

    Partitioning assumption (documented per the custom-operator rule):
    bucket width == the window Δ. Each error lives in exactly ONE bucket;
    each click replicates to its own and the NEXT bucket (factor 2 — the
    standard range-join bucketing), so every qualifying (error, click)
    pair co-locates exactly once, in the error's bucket. One shuffle, no
    all-pairs blowup; within a group the count is two vectorized
    searchsorted calls against the sorted click timestamps."""
    DELTA_US = 5 * 60 * 1_000_000

    def prep(t: pa.Table) -> pa.Table:
        ts = t["ts"].cast(pa.timestamp("us")).cast(pa.int64())
        base = pa.table({
            "ts": ts,
            "event_id": t["event_id"],
            "event_type": t["event_type"],
        })
        errs = base.filter(pc.equal(base["event_type"], "error"))
        clks = base.filter(pc.equal(base["event_type"], "click"))
        e_bkt = pc.divide(errs["ts"], DELTA_US)
        c_bkt = pc.divide(clks["ts"], DELTA_US)
        null_ids = pa.nulls(len(clks), pa.int64())
        out = [
            pa.table({"bucket": e_bkt, "role": pa.array(["e"] * len(errs)),
                      "event_id": errs["event_id"], "ts": errs["ts"]}),
            pa.table({"bucket": c_bkt, "role": pa.array(["c"] * len(clks)),
                      "event_id": null_ids, "ts": clks["ts"]}),
            pa.table({"bucket": pc.add(c_bkt, 1),
                      "role": pa.array(["c"] * len(clks)),
                      "event_id": null_ids, "ts": clks["ts"]}),
        ]
        return pa.concat_tables(out)

    def count_group(g: pa.Table) -> pa.Table:
        errs = g.filter(pc.equal(g["role"], "e"))
        if len(errs) == 0:
            return pa.table({"event_id": pa.array([], pa.int64()),
                             "n_clicks_5m": pa.array([], pa.int64())})
        clks = g.filter(pc.equal(g["role"], "c"))
        cs = np.sort(np.asarray(clks["ts"].to_pylist(), dtype=np.int64))
        ets = np.asarray(errs["ts"].to_pylist(), dtype=np.int64)
        lo = np.searchsorted(cs, ets - DELTA_US, side="right")
        hi = np.searchsorted(cs, ets, side="right")
        return pa.table({
            "event_id": pa.array(np.asarray(errs["event_id"].to_pylist(),
                                            dtype=np.int64)),
            "n_clicks_5m": pa.array((hi - lo).astype(np.int64)),
        })

    return (
        table(sf_dir, "events",
              columns=["event_id", "ts", "event_type"])
        .map_batches(prep, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(count_group, batch_format="pyarrow")
    )


# ============================================================== full-outer join


ORACLE_USER_STATS_FULL_OUTER = """
WITH l AS (
  SELECT user_id, CAST(count(*) AS BIGINT) AS n_events
  FROM events WHERE user_id % 3 != 0 GROUP BY user_id
),
r AS (
  SELECT user_id, round(sum(value), 6) AS total_value
  FROM events WHERE user_id % 2 = 0 GROUP BY user_id
)
SELECT COALESCE(l.user_id, r.user_id) AS user_id,
       COALESCE(l.n_events, 0) AS n_events,
       COALESCE(r.total_value, -1.0) AS total_value
FROM l FULL OUTER JOIN r ON l.user_id = r.user_id
"""


@query("user_stats_full_outer", oracle=ORACLE_USER_STATS_FULL_OUTER)
def q_user_stats_full_outer(sf_dir: str):
    """FULL OUTER hash join of two aggregated sides with guaranteed
    unmatched rows on BOTH sides (left: users with id % 3 != 0 and their
    event counts; right: users with id % 2 == 0 and their summed value).
    Nulls from the unmatched sides are coalesced to sentinel values so the
    comparison is dtype-stable (n_events -> 0, total_value -> -1)."""
    from ray.data.aggregate import Count, Sum

    from odinson_ray.stages.shuffle import hash_join

    ev = table(sf_dir, "events", columns=["user_id", "value"])
    left = (
        ev.map_batches(
            lambda t: t.filter(pc.not_equal(
                pc.subtract(t["user_id"],
                            pc.multiply(pc.divide(t["user_id"], 3), 3)), 0)),
            batch_format="pyarrow",
        )
        .groupby("user_id")
        .aggregate(Count(alias_name="n_events"))
    )
    right = (
        ev.map_batches(
            lambda t: t.filter(pc.equal(
                pc.subtract(t["user_id"],
                            pc.multiply(pc.divide(t["user_id"], 2), 2)), 0)),
            batch_format="pyarrow",
        )
        .groupby("user_id")
        .aggregate(Sum("value", alias_name="_sv"))
        .map_batches(
            lambda t: pa.table({
                "user_id": t["user_id"],
                "total_value": pc.round(t["_sv"], 6),
            }),
            batch_format="pyarrow",
        )
    )
    joined = hash_join(
        left, right, on="user_id", how="full_outer",
        left_schema=pa.schema([("user_id", pa.int64()), ("n_events", pa.int64())]),
        right_schema=pa.schema([("user_id", pa.int64()), ("total_value", pa.float64())]),
    )

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": t["user_id"],
            "n_events": pc.fill_null(t["n_events"], 0),
            "total_value": pc.fill_null(t["total_value"], -1.0),
        })

    return joined.map_batches(finish, batch_format="pyarrow")


# ======================================================================= pivot
_EVENT_TYPES = ("click", "error", "purchase", "signup", "view")


ORACLE_EVENTS_PIVOT = """
SELECT user_id,
       CAST(count(*) FILTER (WHERE event_type = 'click') AS BIGINT) AS n_click,
       CAST(count(*) FILTER (WHERE event_type = 'error') AS BIGINT) AS n_error,
       CAST(count(*) FILTER (WHERE event_type = 'purchase') AS BIGINT) AS n_purchase,
       CAST(count(*) FILTER (WHERE event_type = 'signup') AS BIGINT) AS n_signup,
       CAST(count(*) FILTER (WHERE event_type = 'view') AS BIGINT) AS n_view
FROM events GROUP BY user_id
"""


@query("events_pivot", oracle=ORACLE_EVENTS_PIVOT)
def q_events_pivot(sf_dir: str):
    """PIVOT: per-user event counts spread into one column per event type.
    Combiner discipline: each batch emits one row per user with per-type
    partial counts (a pandas crosstab), the groupby sums the fixed column
    set — the shuffle moves one row per (user, batch), never raw events."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        df = t.select(["user_id", "event_type"]).to_pandas()
        ct = pd.crosstab(df["user_id"], df["event_type"])
        for et in _EVENT_TYPES:
            if et not in ct.columns:
                ct[et] = 0
        ct = ct[list(_EVENT_TYPES)].reset_index()
        ct.columns = ["user_id"] + [f"n_{et}" for et in _EVENT_TYPES]
        return pa.Table.from_pandas(
            ct.astype("int64"), preserve_index=False
        ).replace_schema_metadata(None)

    aggs = [Sum(f"n_{et}", alias_name=f"n_{et}") for et in _EVENT_TYPES]
    return (
        table(sf_dir, "events", columns=["user_id", "event_type"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(*aggs)
    )


# ===================================== exact per-group quantiles (discrete)


ORACLE_VALUE_QUANTILES = """
SELECT event_type, quantile_disc(value, 0.5) AS p50,
       quantile_disc(value, 0.9) AS p90
FROM events GROUP BY event_type
"""


@query("value_quantiles", oracle=ORACLE_VALUE_QUANTILES)
def q_value_quantiles(sf_dir: str):
    """Exact discrete quantiles (p50/p90 of value per event_type):
    quantile_disc semantics — sorted[ceil(q*n)-1] — pick an actual
    element, so no float interpolation can diverge between engines.

    Scale shape (r4 — replaced a one-group-per-key map_groups that held a
    key's RAW rows): per-batch (key, value, count) combiner -> groupby
    over DISTINCT (key, value) rows -> per-key selection from cumulative
    counts. A key's reducer input is bounded by its distinct-value count
    (the column is 2dp-quantized here; at true continuous cardinality
    this degrades to the raw shape and an approximate sketch is the
    right tool instead)."""
    import math

    hist = combine_aggregate(
        table(sf_dir, "events", columns=["event_type", "value"]),
        ["event_type", "value"], [("c", None, "count_all")])

    def quantiles(g: pa.Table) -> pa.Table:
        o = pc.sort_indices(g["value"])
        v = g["value"].take(o).to_numpy(zero_copy_only=False)
        c = np.cumsum(g["c"].take(o).to_numpy(zero_copy_only=False))
        n = int(c[-1])
        pick = lambda q: float(v[np.searchsorted(c, max(1, math.ceil(q * n)))])
        return pa.table({
            "event_type": pa.array([g["event_type"][0].as_py()], pa.string()),
            "p50": pa.array([pick(0.5)], pa.float64()),
            "p90": pa.array([pick(0.9)], pa.float64()),
        })

    return hist.groupby("event_type").map_groups(quantiles, batch_format="pyarrow")


# ===================================== ordered collect / string_agg


ORACLE_USER_EVENT_HISTORY = """
SELECT user_id,
       string_agg(CAST(event_id AS VARCHAR), ',' ORDER BY ts, event_id) AS history
FROM events GROUP BY user_id
"""


@query("user_event_history", oracle=ORACLE_USER_EVENT_HISTORY)
def q_user_event_history(sf_dir: str):
    """Per-user ordered event history (collect_list/string_agg class):
    event ids concatenated in (ts, event_id) order. One coarse exchange
    on user (tiny-group rule, r4 sweep): one pandas run-grouped join per
    partition — per-user map_groups would dispatch one task per user."""

    def history_partition(g: pa.Table) -> pa.Table:
        u = g["user_id"].to_numpy(zero_copy_only=False)
        ev = pc.cast(g["event_id"], pa.string()).to_pandas()
        joined = ev.groupby(u, sort=True).agg(",".join)
        return pa.table({
            "user_id": pa.array(joined.index.to_numpy(), pa.int64()),
            "history": pa.array(joined.to_numpy(), pa.string()),
        })

    return coarse_groups(
        table(sf_dir, "events",
              columns=["user_id", "ts", "event_id"]),
        ["user_id"], history_partition, ["ts", "event_id"])


# ===================================== lead/lag window (per-event gap)


ORACLE_EVENT_GAPS = """
SELECT event_id, user_id,
       COALESCE(CAST(epoch_us(ts - lag(ts) OVER w) AS BIGINT), -1) AS gap_us
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
"""


@query("event_gaps", oracle=ORACLE_EVENT_GAPS)
def q_event_gaps(sf_dir: str):
    """LAG window class: per event, microseconds since the user's
    previous event ((ts, event_id) order; first event = -1). One coarse
    exchange on user (tiny-group rule): one vectorized diff with a reset
    mask at user changes — per-user map_groups would pay ~2 ms dispatch
    per user."""

    def gaps_partition(g: pa.Table) -> pa.Table:
        n = g.num_rows
        u = g["user_id"].to_numpy(zero_copy_only=False)
        ts = g["ts"].cast(pa.timestamp("us")).cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        gap = np.empty(n, dtype=np.int64)
        gap[0] = -1
        gap[1:] = np.where(u[1:] == u[:-1], ts[1:] - ts[:-1], -1)
        return pa.table({
            "event_id": g["event_id"],
            "user_id": g["user_id"],
            "gap_us": pa.array(gap, pa.int64()),
        })

    return coarse_groups(
        table(sf_dir, "events",
              columns=["user_id", "ts", "event_id"]),
        ["user_id"], gaps_partition, ["ts", "event_id"])


# ===================================== event-type affinity (PMI)


ORACLE_EVENT_TYPE_PMI = """
WITH p AS (
  SELECT user_id, event_type, count(*) AS c_ut FROM events
  GROUP BY user_id, event_type HAVING count(*) >= 5
),
u AS (SELECT user_id, count(*) AS c_u FROM events GROUP BY user_id),
t AS (SELECT event_type, count(*) AS c_t FROM events GROUP BY event_type),
n AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM events)
SELECT p.user_id, p.event_type,
       round(ln(n.n * p.c_ut / (u.c_u * t.c_t)), 6) AS pmi
FROM p JOIN u USING (user_id) JOIN t USING (event_type) CROSS JOIN n
"""


@query("event_type_pmi", oracle=ORACLE_EVENT_TYPE_PMI)
def q_event_type_pmi(sf_dir: str, min_pair: int = 5):
    """PMI between users and event types: ln(N * c_ut / (c_u * c_t)) for
    (user, type) pairs with count >= min_pair, rounded to 6dp. Three
    combiner-first aggregates (pair, user, type marginals) + two
    distributed hash joins attach the marginals — association mining
    shaped exactly like the co-occurrence scoring a KG linker uses."""
    from odinson_ray.stages.shuffle import hash_join

    ev = table(sf_dir, "events",
               columns=["user_id", "event_type"])

    pairs = combine_aggregate(ev, ["user_id", "event_type"],
                              [("c_ut", None, "count_all")])
    pairs = pairs.map_batches(
        lambda t: t.filter(pc.greater_equal(t["c_ut"], min_pair)),
        batch_format="pyarrow")

    users = combine_aggregate(ev, "user_id", [("c_u", None, "count_all")])
    types = combine_aggregate(ev, "event_type", [("c_t", None, "count_all")])
    n_events = ev.count()

    i64, s = pa.int64(), pa.string()
    j1 = hash_join(
        pairs, users, on="user_id",
        left_schema=pa.schema([("user_id", i64), ("event_type", s), ("c_ut", i64)]),
        right_schema=pa.schema([("user_id", i64), ("c_u", i64)]))
    j2 = hash_join(
        j1, types, on="event_type",
        left_schema=pa.schema([("user_id", i64), ("event_type", s),
                               ("c_ut", i64), ("c_u", i64)]),
        right_schema=pa.schema([("event_type", s), ("c_t", i64)]))

    def pmi(t: pa.Table) -> pa.Table:
        c_ut = t["c_ut"].to_numpy(zero_copy_only=False).astype(np.float64)
        c_u = t["c_u"].to_numpy(zero_copy_only=False).astype(np.float64)
        c_t = t["c_t"].to_numpy(zero_copy_only=False).astype(np.float64)
        v = np.round(np.log(float(n_events) * c_ut / (c_u * c_t)), 6)
        return pa.table({"user_id": t["user_id"], "event_type": t["event_type"],
                         "pmi": pa.array(v, pa.float64())})

    return j2.map_batches(pmi, batch_format="pyarrow")


# ===================================== per-group z-score normalization


ORACLE_VALUE_ZSCORE = """
SELECT event_id,
       round((value - avg(value) OVER (PARTITION BY event_type))
             / stddev_pop(value) OVER (PARTITION BY event_type), 4) AS z
FROM events
"""


@query("value_zscore", oracle=ORACLE_VALUE_ZSCORE)
def q_value_zscore(sf_dir: str):
    """Per-event z-score of value within its event_type (population
    stddev), rounded to 4dp. Combiner computes per-batch (sum, sumsq,
    count) per group — three numbers per (group, batch) — the small
    groupby merges them into mean/std, and the per-event normalize is a
    broadcast-join of the tiny group-stats table inside map_batches
    (groups are event TYPES: bounded cardinality, so broadcast is the
    right side)."""
    import ray

    from odinson_ray.stages.link import get_broadcast

    ev = table(sf_dir, "events",
               columns=["event_id", "event_type", "value"])

    def moments(t: pa.Table) -> pa.Table:
        v = t["value"]
        return pa.table({
            "event_type": t["event_type"],
            "_s": v,
            "_s2": pc.multiply(v, v),
        })

    stats = {}
    for r in (
        combine_aggregate(ev.map_batches(moments, batch_format="pyarrow"),
                          "event_type",
                          [("s", "_s", "sum"), ("s2", "_s2", "sum"),
                           ("n", None, "count_all")])
        .take_all()  # one row per event TYPE (bounded small)
    ):
        mean = r["s"] / r["n"]
        var = max(r["s2"] / r["n"] - mean * mean, 0.0)
        stats[r["event_type"]] = (mean, float(np.sqrt(var)))
    ref = ray.put(stats)

    def zscore(t: pa.Table) -> pa.Table:
        st = get_broadcast(ref)
        types = t["event_type"].to_pylist()
        v = t["value"].to_numpy(zero_copy_only=False)
        mean = np.array([st[x][0] for x in types])
        std = np.array([st[x][1] for x in types])
        z = np.round((v - mean) / std, 4)
        return pa.table({"event_id": t["event_id"],
                         "z": pa.array(z, pa.float64())})

    return ev.map_batches(zscore, batch_format="pyarrow")


# ===================================== HLL approximate distinct (sketch)
@query("approx_users_per_type")
def q_approx_users_per_type(sf_dir: str):
    """Approximate distinct users per event type via a mergeable
    HyperLogLog sketch (stages/sketch.py, p=12 -> ~1.6% rse). No SQL
    oracle (approximate by design — the exact twin is
    distinct_users_per_type); accuracy pinned by pytest against the
    exact counts."""
    from odinson_ray.stages.sketch import hll_distinct

    ev = table(sf_dir, "events",
               columns=["event_type", "user_id"])
    return hll_distinct(ev, group="event_type", value="user_id",
                        out="approx_users")


# ===================================== event transition matrix (Markov counts)


ORACLE_EVENT_TRANSITIONS = """
WITH s AS (
  SELECT user_id, event_type,
         lead(event_type) OVER (PARTITION BY user_id
                                ORDER BY ts, event_id) AS next_type
  FROM events
)
SELECT event_type AS from_type, next_type AS to_type,
       CAST(count(*) AS BIGINT) AS n
FROM s WHERE next_type IS NOT NULL
GROUP BY from_type, to_type
"""


@query("event_transitions", oracle=ORACLE_EVENT_TRANSITIONS)
def q_event_transitions(sf_dir: str):
    """(from_type, to_type, n) transition counts over each user's
    (ts, event_id)-ordered stream — skew-safe two-stage decomposition
    (stages/window.event_transitions): within-bucket pairs + one boundary
    row per (user, bucket); no task ever holds more than one bucket of
    one user. Week buckets (A/B at sf0.1: 1d 8.1 s, 7d 3.4 s, identical
    output — daily buckets made most groups 1-2 rows, pure task
    overhead)."""
    from odinson_ray.stages.window import event_transitions

    ev = table(sf_dir, "events",
               columns=["user_id", "ts", "event_id", "event_type"])
    return event_transitions(ev, bucket_s=7 * 86400)


# ===================================== funnel (A strictly before B)


ORACLE_FUNNEL_USERS = """
WITH s AS (
  SELECT user_id,
         min(CASE WHEN event_type = 'view' THEN ts END) AS first_a,
         max(CASE WHEN event_type = 'purchase' THEN ts END) AS last_b
  FROM events GROUP BY user_id
)
SELECT CAST(count(*) AS BIGINT) AS n_users
FROM s WHERE first_a IS NOT NULL AND last_b IS NOT NULL AND first_a < last_b
"""


@query("funnel_users", oracle=ORACLE_FUNNEL_USERS)
def q_funnel_users(sf_dir: str, a: str = "view", b: str = "purchase"):
    """Number of users with at least one '{a}' event strictly before a
    '{b}' event (min ts(a) < max ts(b)): per-batch min/max combiner per
    user, one groupby, one filtered count — three numbers per (user,
    batch) cross the shuffle, never events."""
    ev = table(sf_dir, "events",
               columns=["user_id", "ts", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        tsv = pc.cast(pc.cast(t["ts"], pa.timestamp("us")), pa.int64())
        return pa.table({
            "user_id": t["user_id"],
            "_a": pc.if_else(pc.equal(t["event_type"], a), tsv,
                             pa.nulls(len(t), pa.int64())),
            "_b": pc.if_else(pc.equal(t["event_type"], b), tsv,
                             pa.nulls(len(t), pa.int64())),
        })

    stats = combine_aggregate(ev.map_batches(partial, batch_format="pyarrow"),
                              "user_id",
                              [("first_a", "_a", "min"),
                               ("last_b", "_b", "max")])
    hits = stats.map_batches(
        lambda t: t.filter(pc.and_kleene(
            pc.and_kleene(pc.is_valid(t["first_a"]), pc.is_valid(t["last_b"])),
            pc.less(t["first_a"], t["last_b"]))),
        batch_format="pyarrow")
    return pd.DataFrame({"n_users": [int(hits.count())]})


# ===================================== deterministic per-group sample


ORACLE_GROUP_SAMPLE_K = """
SELECT event_type, event_id FROM (
  SELECT event_type, event_id,
         row_number() OVER (PARTITION BY event_type
                            ORDER BY md5(CAST(event_id AS VARCHAR)), event_id) AS rn
  FROM events) WHERE rn <= 5
"""


@query("group_sample_k", oracle=ORACLE_GROUP_SAMPLE_K)
def q_group_sample_k(sf_dir: str):
    """Uniform k-per-group sample WITHOUT an RNG: keep the k events whose
    md5(event_id) hex digest sorts smallest within each event_type
    (bottom-k-by-hash == reservoir sampling made deterministic — same
    sample at any parallelism, any retry, any shard order; mergeable:
    bottom-k of a union is the bottom-k of per-part bottom-ks). Runs on
    grouped_topk's per-batch combiner, so the shuffle moves <= k rows per
    key per batch."""
    from odinson_ray.stages.shuffle import grouped_topk

    events = table(sf_dir, "events",
                   columns=["event_id", "event_type"])

    def with_hash(t: pa.Table) -> pa.Table:
        import hashlib

        ids = t["event_id"].to_numpy(zero_copy_only=False)
        h = [hashlib.md5(str(i).encode()).hexdigest() for i in ids]
        return t.append_column("h", pa.array(h, pa.string()))

    sampled = grouped_topk(
        events.map_batches(with_hash, batch_format="pyarrow"),
        by="event_type", cols=["h", "event_id"],
        descending=[False, False], k=5)
    return sampled.select_columns(["event_type", "event_id"])


# ===================================== distributed exact percent_rank


ORACLE_VALUE_PERCENT_RANK = """
SELECT event_id, event_type, value,
       round(percent_rank() OVER (PARTITION BY event_type ORDER BY value), 6) AS prk
FROM events
"""


def _value_rank(sf_dir: str, col: str, rank_of):
    """Every event with ``col`` = ``rank_of(smaller, equal, n)`` of its
    value within its event_type, rounded to 6 places — exact, WITHOUT a
    per-key sort of the raw rows. The distinct-value histogram (value is
    2dp-quantized, so per-key distinct count is bounded — value_quantiles
    documents the same precondition) gives per value the counts of
    smaller and equal values; the per-value rank table then joins BACK to
    the event stream on a composite (event_type, value) key — a
    distributed hash_join, never a broadcast of the value dictionary."""
    events = table(sf_dir, "events",
                   columns=["event_id", "event_type", "value"])

    hist = combine_aggregate(events, ["event_type", "value"],
                             [("c", None, "count_all")])

    def ranks(g: pa.Table) -> pa.Table:
        o = pc.sort_indices(g["value"])
        v = g["value"].take(o)
        c = g["c"].take(o).to_numpy(zero_copy_only=False)
        cume = np.cumsum(c)
        r = np.round(rank_of(cume - c, c, int(cume[-1])), 6)
        key = pc.binary_join_element_wise(
            g["event_type"].take(o).cast(pa.string()),
            pc.cast(v, pa.string()), "|")
        return pa.table({"_ck": key, col: pa.array(r, pa.float64())})

    rank_table = hist.groupby("event_type").map_groups(
        ranks, batch_format="pyarrow")

    def with_key(t: pa.Table) -> pa.Table:
        key = pc.binary_join_element_wise(
            t["event_type"].cast(pa.string()),
            pc.cast(t["value"], pa.string()), "|")
        return t.append_column("_ck", key)

    joined = hash_join(
        events.map_batches(with_key, batch_format="pyarrow"),
        rank_table, on="_ck",
        left_schema=pa.schema([("event_id", pa.int64()),
                               ("event_type", pa.string()),
                               ("value", pa.float64()),
                               ("_ck", pa.string())]),
        right_schema=pa.schema([("_ck", pa.string()),
                                (col, pa.float64())]))
    return joined.select_columns(["event_id", "event_type", "value", col])


@query("value_percent_rank", oracle=ORACLE_VALUE_PERCENT_RANK)
def q_value_percent_rank(sf_dir: str):
    """PERCENT_RANK() OVER (PARTITION BY event_type ORDER BY value) for
    every event: (#smaller) / (n - 1) per (type, value), by
    :func:`_value_rank`."""
    return _value_rank(sf_dir, "prk",
                       lambda smaller, equal, n: smaller / max(n - 1, 1))


# ===================================== per-group winsorization


ORACLE_WINSORIZE_VALUES = """
WITH q AS (
  SELECT event_type, quantile_disc(value, 0.05) AS lo,
         quantile_disc(value, 0.95) AS hi
  FROM events GROUP BY event_type
)
SELECT event_id, round(least(greatest(value, lo), hi), 6) AS w_value
FROM events JOIN q USING (event_type)
"""


@query("winsorize_values", oracle=ORACLE_WINSORIZE_VALUES)
def q_winsorize_values(sf_dir: str):
    """Per-group outlier clipping (winsorize at [p05, p95], quantile_disc
    semantics) — the robust-stats cousin of value_zscore. Thresholds come
    from the distinct-value histogram (one bounded groupby), broadcast as
    a per-group pair, applied in one vectorized map over the stream."""
    import math

    import ray

    from odinson_ray.stages.link import get_broadcast

    events = table(sf_dir, "events",
                   columns=["event_id", "event_type", "value"])

    hist = combine_aggregate(events, ["event_type", "value"],
                             [("c", None, "count_all")])

    def bounds(g: pa.Table) -> pa.Table:
        o = pc.sort_indices(g["value"])
        v = g["value"].take(o).to_numpy(zero_copy_only=False)
        c = np.cumsum(g["c"].take(o).to_numpy(zero_copy_only=False))
        n = int(c[-1])
        pick = lambda q: float(v[np.searchsorted(c, max(1, math.ceil(q * n)))])
        return pa.table({
            "event_type": pa.array([g["event_type"][0].as_py()], pa.string()),
            "lo": pa.array([pick(0.05)], pa.float64()),
            "hi": pa.array([pick(0.95)], pa.float64()),
        })

    limits = {r["event_type"]: (r["lo"], r["hi"]) for r in
              hist.groupby("event_type").map_groups(
                  bounds, batch_format="pyarrow").take_all()}
    ref = ray.put(limits)

    def clip(t: pa.Table) -> pa.Table:
        lut = get_broadcast(ref)
        et = t["event_type"].to_pylist()
        lo = pa.array([lut[e][0] for e in et], pa.float64())
        hi = pa.array([lut[e][1] for e in et], pa.float64())
        w = pc.min_element_wise(pc.max_element_wise(t["value"], lo), hi)
        return pa.table({"event_id": t["event_id"],
                         "w_value": pc.round(w, 6)})

    return events.map_batches(clip, batch_format="pyarrow")


# ===================================== fixed-width histogram


ORACLE_VALUE_HISTOGRAM = """
WITH mm AS (SELECT min(value) AS lo, max(value) AS hi FROM events)
SELECT LEAST(CAST(FLOOR((value - lo) * 20.0 / (hi - lo)) AS BIGINT), 19) AS bin,
       count(*) AS n,
       CAST(FLOOR(sum(value) * 100 + 0.5) AS BIGINT) AS total_ct
FROM events, mm GROUP BY 1
"""


@query("value_histogram", oracle=ORACLE_VALUE_HISTOGRAM)
def q_value_histogram(sf_dir: str, bins: int = 20):
    """Equi-width histogram of events.value: pass 1 is a column-pruned
    O(1)-to-driver range scan, pass 2 a per-batch bincount combiner so
    the global groupby moves <= bins rows per batch. Bin ids use the
    exact expression the oracle uses — (v - lo) * bins / (hi - lo),
    floored, clamped to bins-1 — so IEEE doubles agree bit-for-bit."""
    from ray.data.aggregate import Max, Min, Sum

    ds = table(sf_dir, "events", columns=["value"])
    mm = ds.aggregate(Min("value"), Max("value"))
    lo, hi = float(mm["min(value)"]), float(mm["max(value)"])
    span = (hi - lo) or 1.0

    def partial(t: pa.Table) -> pa.Table:
        v = t["value"].to_numpy(zero_copy_only=False)
        b = np.minimum(np.floor((v - lo) * float(bins) / span).astype(np.int64),
                       bins - 1)
        n = np.bincount(b, minlength=bins)
        s = np.bincount(b, weights=v, minlength=bins)
        nz = np.nonzero(n)[0]
        return pa.table({"bin": pa.array(nz, pa.int64()),
                         "pn": pa.array(n[nz], pa.int64()),
                         "ps": pa.array(s[nz], pa.float64())})

    out = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby("bin")
           .aggregate(Sum("pn", alias_name="n"), Sum("ps", alias_name="total")))

    def fin(t: pa.Table) -> pa.Table:
        # integer cents (same ulp-robust floor as ntile_orders)
        s = t["total"].to_numpy(zero_copy_only=False)
        ct = np.floor(s * 100.0 + 0.5).astype(np.int64)
        return t.set_column(t.schema.get_field_index("total"),
                            "total_ct", pa.array(ct, pa.int64()))

    return out.map_batches(fin, batch_format="pyarrow")


# ===================================== ROWS-frame moving average


ORACLE_MOVING_AVG = """
SELECT event_id,
       round(avg(value) OVER (PARTITION BY user_id ORDER BY ts, event_id
                              ROWS BETWEEN 2 PRECEDING AND CURRENT ROW),
             6) AS mavg3
FROM events
"""


@query("moving_avg", oracle=ORACLE_MOVING_AVG)
def q_moving_avg(sf_dir: str, frame: int = 3):
    """Per-user moving average over the last ``frame`` events (SQL ROWS
    BETWEEN 2 PRECEDING AND CURRENT ROW) — the ROWS-frame cousin of
    event_gaps' LAG. Per-group sliding sums via one cumsum + shifted
    difference (no Python loop). One coarse exchange on user (tiny-group
    rule, r4 sweep): the frame clamp folds the per-user reset in as
    max(i-frame+1, run_start)."""

    def mavg_partition(g: pa.Table) -> pa.Table:
        n = g.num_rows
        u = g["user_id"].to_numpy(zero_copy_only=False)
        v = g["value"].to_numpy(zero_copy_only=False)
        i = np.arange(n)
        # first row index of each user run, broadcast to every row
        new_run = np.empty(n, dtype=bool)
        new_run[0] = True
        new_run[1:] = u[1:] != u[:-1]
        run_start = np.maximum.accumulate(np.where(new_run, i, 0))
        c = np.concatenate(([0.0], np.cumsum(v)))
        lo = np.maximum(i - (frame - 1), run_start)
        s = c[i + 1] - c[lo]
        k = i - lo + 1
        return pa.table({
            "event_id": g["event_id"],
            "mavg3": pa.array(np.round(s / k, 6), pa.float64()),
        })

    return coarse_groups(
        table(sf_dir, "events",
              columns=["user_id", "ts", "event_id", "value"]),
        ["user_id"], mavg_partition, ["ts", "event_id"])


# ===================================== per-group mode (argmax of counts)


ORACLE_USER_TOP_TYPE = """
SELECT user_id, event_type, n FROM (
  SELECT user_id, event_type, count(*) AS n,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY count(*) DESC, event_type) AS rk
  FROM events GROUP BY user_id, event_type
) WHERE rk = 1
"""


@query("user_top_type", oracle=ORACLE_USER_TOP_TYPE)
def q_user_top_type(sf_dir: str):
    """MODE per group: each user's most frequent event_type (ties ->
    lexicographically smallest). Two-stage: per-batch (user, type)
    count combiner -> groupby Sum (the only all-to-all moves per-batch
    distinct key pairs) -> grouped_topk k=1, whose per-batch prune keeps
    one row per user before the final shuffle."""
    from odinson_ray.stages.shuffle import grouped_topk

    counts = combine_aggregate(
        table(sf_dir, "events",
              columns=["user_id", "event_type"]),
        ["user_id", "event_type"], [("n", None, "count_all")])
    return grouped_topk(counts, by="user_id",
                        cols=["n", "event_type"], descending=[True, False],
                        k=1)


# ===================================== approximate quantile sketch
@query("approx_value_quantiles")
def q_approx_value_quantiles(sf_dir: str):
    """Mergeable quantile sketch over events.value
    (stages/sketch.approx_quantiles): per-batch weighted compaction +
    tree merge, root reads O(fanin * summary) points. Approximate BY
    DESIGN -> no SQL oracle; the pytest pins rank error against the
    exact quantiles. The exact cousin (discrete columns) is
    value_quantiles."""
    from odinson_ray.stages.sketch import approx_quantiles

    ds = table(sf_dir, "events", columns=["value"])
    est = approx_quantiles(ds, "value", qs=(0.5, 0.9, 0.99))
    return pd.DataFrame([est])


# ===================================== time-decayed aggregate


ORACLE_DECAYED_VALUE = """
SELECT event_type, count(*) AS n,
       round(sum(value * exp(-(ln(2.0) / 7.0) *
             ((epoch_us(TIMESTAMP '2024-02-01') - epoch_us(ts))
              / 86400000000.0))), 4) AS decayed_sum
FROM events GROUP BY event_type
"""


@query("decayed_value", oracle=ORACLE_DECAYED_VALUE)
def q_decayed_value(sf_dir: str):
    """Exponentially time-decayed sum per event_type (half-life 7 days,
    reference 2024-02-01): the streaming-popularity primitive. A decayed
    sum with a FIXED reference is just a weighted sum, so it map-side
    combines like any other aggregate — per-batch exp + partial sums,
    one tiny shuffle. Age and weight are computed with the identical
    IEEE expression the oracle uses; the rounded output magnitudes keep
    double ulp far below the gate's tolerance."""
    ref_us = pd.Timestamp("2024-02-01").value // 1000  # epoch micros
    lam = np.log(2.0) / 7.0  # per-day decay, 7-day half-life

    def partial(t: pa.Table) -> pa.Table:
        ts = t["ts"].cast(pa.timestamp("us")).cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        age_days = (ref_us - ts) / 86400000000.0
        w = t["value"].to_numpy(zero_copy_only=False) * np.exp(-lam * age_days)
        return pa.table({"event_type": t["event_type"],
                         "w": pa.array(w, pa.float64())})

    agg = combine_aggregate(
        table(sf_dir, "events",
              columns=["event_type", "ts", "value"])
        .map_batches(partial, batch_format="pyarrow"),
        "event_type", [("n", None, "count_all"), ("dsum", "w", "sum")])

    def fin(t: pa.Table) -> pa.Table:
        return t.set_column(t.schema.get_field_index("dsum"), "decayed_sum",
                            pc.round(t["dsum"], 4))

    return agg.map_batches(fin, batch_format="pyarrow")


# ===================================== per-key EWMA (recursive smoothing)
@query("user_ewma")
def q_user_ewma(sf_dir: str, alpha: float = 0.3):
    """Per-user exponentially weighted moving average of value over
    (ts, event_id) order, reporting each user's final smoothed level —
    the classic online-feature recurrence s_t = a*v_t + (1-a)*s_{t-1}.
    Inherently sequential per key; one coarse exchange on user
    (tiny-group rule, r4 sweep), then pandas' grouped C ewm kernel over
    the whole partition (per-user reset is native to groupby().ewm()) —
    no Python loop, no per-user dispatch. RECURSIVE -> no SQL oracle
    (DuckDB has no ewm); the pytest checks against pandas
    groupby().ewm() directly."""

    def ewma_partition(g: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "u": g["user_id"].to_numpy(zero_copy_only=False),
            "v": g["value"].to_numpy(zero_copy_only=False),
        })
        gb = df.groupby("u", sort=True)
        sm = gb["v"].ewm(alpha=alpha, adjust=False).mean()
        # rows are user-sorted, so each group's last smoothed value sits
        # at the run end; tail(1) preserves group order
        last = sm.groupby(level=0).tail(1).to_numpy()
        users = np.asarray(sorted(gb.groups), dtype=np.int64)
        n = gb.size().to_numpy()
        return pa.table({
            "user_id": pa.array(users, pa.int64()),
            "n": pa.array(n.astype(np.int64), pa.int64()),
            "ewma": pa.array(np.round(last, 6), pa.float64()),
        })

    return coarse_groups(
        table(sf_dir, "events",
              columns=["user_id", "ts", "event_id", "value"]),
        ["user_id"], ewma_partition, ["ts", "event_id"])


# ===================================== weekly cohort retention


ORACLE_COHORT_RETENTION = """
WITH uw AS (
  SELECT DISTINCT user_id,
         epoch_us(ts) // 1000000 // 86400 // 7 AS week
  FROM events
),
c AS (SELECT user_id, MIN(week) AS cohort_week FROM uw GROUP BY user_id)
SELECT c.cohort_week, uw.week - c.cohort_week AS week_offset,
       COUNT(*) AS n_users
FROM uw JOIN c USING (user_id)
GROUP BY 1, 2
"""


@query("cohort_retention", oracle=ORACLE_COHORT_RETENTION)
def q_cohort_retention(sf_dir: str):
    """Weekly cohort retention over the event stream: users are cohorted
    by their first active week; each (cohort_week, week_offset) cell
    counts the distinct users of that cohort active offset weeks later —
    the standard growth/retention matrix.

    Shape (tiny-group rule): per-batch (user, week) dedup packed into one
    int64, ONE coarse exchange on user (all rows of a user co-located,
    so per-partition counts are exact distinct counts and disjoint
    across partitions), segmented numpy resolve (global
    (user, week) dedup, per-user min via run boundaries, LOCAL
    (cohort, offset) cells), then a small global groupby sum over cells.
    The wide stream is shuffled once; the second shuffle moves only
    per-partition cells. Packing bound: week index < 2^20 (year ~21800),
    collision-free for user_id < 2^43."""
    W = 1 << 20

    def proj(t: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(t["ts"], pa.timestamp("us")),
                     pa.int64()).to_numpy(zero_copy_only=False)
        week = us // 1_000_000 // 86_400 // 7
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        comp = np.unique(uid * W + week)
        return pa.table({"_u": pa.array(comp // W, pa.int64()),
                         "_c": pa.array(comp, pa.int64())})

    def resolve(g: pa.Table) -> pa.Table:
        comp = np.unique(g["_c"].to_numpy(zero_copy_only=False))
        uid, week = comp // W, comp % W
        starts = np.concatenate(
            ([0], np.flatnonzero(uid[1:] != uid[:-1]) + 1))
        lens = np.diff(np.append(starts, len(uid)))
        cohort = np.repeat(week[starts], lens)  # runs sorted -> min first
        cell = cohort * W + (week - cohort)
        uc, counts = np.unique(cell, return_counts=True)
        return pa.table({
            "cohort_week": pa.array(uc // W, pa.int64()),
            "week_offset": pa.array(uc % W, pa.int64()),
            "_n": pa.array(counts.astype(np.int64), pa.int64()),
        })

    cells = (
        coarse_groups(table(sf_dir, "events",
                            columns=["user_id", "ts"])
                      .map_batches(proj, batch_format="pyarrow"),
                      ["_u"], resolve)
        .groupby(["cohort_week", "week_offset"])
        .sum("_n")
    )
    return cells.map_batches(
        lambda t: pa.table({"cohort_week": t["cohort_week"],
                            "week_offset": t["week_offset"],
                            "n_users": t["sum(_n)"]}),
        batch_format="pyarrow")


# ===================================== per-key high-water-mark drawdown


ORACLE_VALUE_DRAWDOWN = """
SELECT event_id, user_id,
       round(MAX(value) OVER (PARTITION BY user_id ORDER BY ts, event_id
                              ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
             - value, 4) AS drawdown
FROM events
"""


@query("value_drawdown", oracle=ORACLE_VALUE_DRAWDOWN)
def q_value_drawdown(sf_dir: str):
    """Per-user running high-water mark of value (ordered by ts,
    event_id) minus the current value — the peak-to-current drawdown
    used in monitoring/fraud features. Skew-safe prefix-MAX two-stage
    decomposition (stages/window.running_drawdown): bucket maxima merge
    exactly because max is associative and idempotent; the exclusive
    prefix-max carry joins back on the fine (key, bucket) key and the
    within-bucket cummax runs in the join reducer."""
    from odinson_ray.stages.window import running_drawdown

    ds = table(sf_dir, "events",
               columns=["event_id", "user_id", "ts", "value"])
    return running_drawdown(ds)


# ===================================== changelog compaction (latest per key)


ORACLE_LATEST_EVENTS = """
SELECT user_id, event_id, ts, event_type FROM (
  SELECT user_id, event_id, ts, event_type,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY ts DESC, event_id DESC) AS rn
  FROM events
) WHERE rn = 1
"""


@query("latest_events", oracle=ORACLE_LATEST_EVENTS)
def q_latest_events(sf_dir: str):
    """Upsert/changelog compaction: the latest event row per user
    (ts desc, event_id desc tie-break) — grouped_topk k=1, whose
    per-batch combiner keeps one row per key per batch, so the shuffle
    moves <= num_batches rows per key no matter how hot the key."""
    from odinson_ray.stages.shuffle import grouped_topk

    ds = table(sf_dir, "events",
               columns=["event_id", "user_id", "ts", "event_type"])
    out = grouped_topk(ds, by="user_id", cols=["ts", "event_id"],
                       descending=[True, True], k=1)
    return out.map_batches(
        lambda t: t.select(["user_id", "event_id", "ts", "event_type"]),
        batch_format="pyarrow")


# ===================================== tumbling-window distinct users


ORACLE_WINDOW_DISTINCT_USERS = """
SELECT date_trunc('day', ts) AS day, event_type,
       count(DISTINCT user_id) AS n_users
FROM events GROUP BY 1, 2
"""


@query("window_distinct_users", oracle=ORACLE_WINDOW_DISTINCT_USERS)
def q_window_distinct_users(sf_dir: str):
    """Exact count(distinct user) per (day, event_type): per-batch
    distinct-triples combiner, one groupby over the (day, type, user)
    triple space, then a per-batch count fold — the same two-stage exact
    distinct as distinct_users_per_type with the window key added, so
    the shuffle moves distinct triples (bounded by users x days x types),
    not event rows."""
    day_us = 86400 * 1_000_000

    def triples(t: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(t["ts"], pa.timestamp("us")), pa.int64())
        day = pc.multiply(pc.floor(pc.divide(us, day_us)), day_us)
        return pa.table({
            "day": pc.cast(pc.cast(day, pa.int64()), pa.timestamp("us")),
            "event_type": t["event_type"],
            "user_id": t["user_id"],
        })

    distinct = combine_aggregate(
        table(sf_dir, "events",
              columns=["ts", "event_type", "user_id"])
        .map_batches(triples, batch_format="pyarrow"),
        ["day", "event_type", "user_id"], [])
    return combine_aggregate(distinct, ["day", "event_type"],
                             [("n_users", None, "count_all")])


# ===================================== geometric mean per group


ORACLE_GEO_MEAN_VALUE = """
SELECT event_type, round(exp(avg(ln(value))), 6) AS geo_mean
FROM events GROUP BY event_type
"""


@query("geo_mean_value", oracle=ORACLE_GEO_MEAN_VALUE)
def q_geo_mean_value(sf_dir: str):
    """Grouped geometric mean via the log-sum decomposition: exp(avg(ln x))
    — a plain (sum, count) combiner in log space; two doubles per
    (batch, key) cross the shuffle."""

    def partial(t: pa.Table) -> pa.Table:
        return pa.table({"event_type": t["event_type"],
                         "_ln": pc.ln(t["value"])})

    out = (
        combine_aggregate(
            table(sf_dir, "events",
                  columns=["event_type", "value"])
            .map_batches(partial, batch_format="pyarrow"),
            "event_type", [("_s", "_ln", "sum"), ("_n", None, "count_all")])
        .to_pandas()
    )
    out["geo_mean"] = np.round(np.exp(out["_s"] / out["_n"]), 6)
    return out[["event_type", "geo_mean"]]


# ===================================== semi-structured props extraction


ORACLE_PROPS_STATS = """
SELECT event_type,
       sum(CAST(regexp_extract(props, '"k": (\\d+)', 1) AS BIGINT)) AS k_sum,
       max(CAST(regexp_extract(props, '"k": (\\d+)', 1) AS BIGINT)) AS k_max,
       round(avg(CAST(regexp_extract(props, '"k": (\\d+)', 1) AS BIGINT)), 6)
         AS k_avg,
       count(*) AS n
FROM events GROUP BY event_type
"""


@query("props_stats", oracle=ORACLE_PROPS_STATS)
def q_props_stats(sf_dir: str):
    """JSON-ish field extraction from the props column with Arrow's RE2
    extract (no Python-level JSON parse per row), folded into a grouped
    (sum, count, max) combiner."""

    def partial(t: pa.Table) -> pa.Table:
        st = pc.extract_regex(t["props"], r'"k": (?P<k>\d+)')
        k = pc.cast(pc.struct_field(st, "k"), pa.int64())
        return pa.table({"event_type": t["event_type"], "_k": k})

    out = (
        combine_aggregate(
            table(sf_dir, "events",
                  columns=["event_type", "props"])
            .map_batches(partial, batch_format="pyarrow"),
            "event_type",
            [("k_sum", "_k", "sum"), ("k_max", "_k", "max"),
             ("n", None, "count_all")])
        .to_pandas()
    )
    out["k_avg"] = (out["k_sum"] / out["n"]).round(6)
    return out[["event_type", "k_sum", "k_max", "k_avg", "n"]]


# ===================================== as-of attribution pipeline


ORACLE_ATTRIBUTION_VALUE = """
WITH att AS (
  SELECT event_id, value, o_orderkey FROM (
    SELECT e.event_id, e.value, o.o_orderkey,
           row_number() OVER (PARTITION BY e.event_id
                              ORDER BY o.o_orderdate DESC, o.o_orderkey DESC)
             AS rn
    FROM events e JOIN orders o
      ON o.o_custkey = e.user_id AND o.o_orderdate <= e.ts
  ) WHERE rn = 1
)
SELECT o.o_orderpriority,
       CAST(FLOOR(sum(att.value) * 100 + 0.5) AS BIGINT) AS value_cents,
       count(*) AS n_events
FROM att JOIN orders o ON o.o_orderkey = att.o_orderkey
GROUP BY o.o_orderpriority
"""


@query("attribution_value", oracle=ORACLE_ATTRIBUTION_VALUE)
def q_attribution_value(sf_dir: str):
    """Attribution composition: each event's value is attributed to the
    user's latest order at-or-before the event (the skew-safe as-of
    join), the attributed order's priority is pulled in with ONE
    distributed hash join, and value rolls up per priority. as-of +
    enrichment join + grouped fold — three shuffles total, each on a
    single key."""
    from odinson_ray.stages.shuffle import hash_join
    from odinson_ray.stages.window import asof_join_latest

    # decorate-join: the 5-value priority rides the as-of order id's low
    # 3 bits (id = o_orderkey*8 + digit), so the priority "join" costs
    # nothing — o_orderkey ordering is preserved, so the as-of tie-break
    # (larger id wins) is unchanged
    PRIOS = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]

    def enc_orders(t: pa.Table) -> pa.Table:
        digit = pc.cast(pc.utf8_slice_codeunits(t["o_orderpriority"], 0, 1),
                        pa.int64())
        oid = pc.add(pc.multiply(pc.cast(t["o_orderkey"], pa.int64()),
                                 pa.scalar(8, pa.int64())), digit)
        return pa.table({
            "user_id": pc.cast(t["o_custkey"], pa.int64()),
            "ts": pc.cast(t["o_orderdate"], pa.timestamp("us")),
            "id": oid,
        })

    orders = table(
        sf_dir, "orders",
        columns=["o_custkey", "o_orderkey", "o_orderdate", "o_orderpriority"]
    ).map_batches(enc_orders, batch_format="pyarrow")
    events = table(
        sf_dir, "events", columns=["event_id", "user_id", "ts", "value"])
    att = asof_join_latest(
        events.map_batches(lambda t: t.select(["event_id", "user_id", "ts"]),
                           batch_format="pyarrow"),
        orders, key="user_id", ts="ts", ev_id="event_id", ord_id="id",
        out="attr_orderkey", bucket_s=30 * 86400)
    # pin before the next shuffle: the as-of plan already stacks two
    # sorts; fusing two more all-to-alls into ONE streaming plan measured
    # >2x the stepwise wall at sf0.1 (barriers starve each other)
    att = att.materialize()
    att = hash_join(
        att,
        events.map_batches(lambda t: t.select(["event_id", "value"]),
                           batch_format="pyarrow"),
        on="event_id")

    def partial(t: pa.Table) -> pa.Table:
        digit = pc.bit_wise_and(t["attr_orderkey"], pa.scalar(7, pa.int64()))
        prio = pc.take(pa.array([None] + PRIOS, pa.string()),
                       pc.cast(digit, pa.int32()))
        return pa.table({"o_orderpriority": prio, "value": t["value"]})

    out = (
        combine_aggregate(att.map_batches(partial, batch_format="pyarrow"),
                          "o_orderpriority",
                          [("_s", "value", "sum"),
                           ("n_events", None, "count_all")])
        .to_pandas()
    )
    out["value_cents"] = np.floor(out["_s"] * 100 + 0.5).astype(np.int64)
    return out[["o_orderpriority", "value_cents", "n_events"]]


# ===================================== grouped median absolute deviation


ORACLE_VALUE_MAD = """
WITH med AS (
  SELECT event_type, quantile_disc(value, 0.5) AS m
  FROM events GROUP BY event_type
)
SELECT e.event_type, quantile_disc(abs(e.value - med.m), 0.5) AS mad
FROM events e JOIN med USING (event_type)
GROUP BY e.event_type
"""


@query("value_mad", oracle=ORACLE_VALUE_MAD)
def q_value_mad(sf_dir: str):
    """Per-group median absolute deviation — the two-pass broadcast
    pattern: pass 1 computes the exact per-group discrete median from a
    distinct-value histogram (value_quantiles machinery), the tiny
    {group: median} map is broadcast once, and pass 2 histograms the
    absolute deviations the same way. Both passes move distinct
    (group, value) rows, never raw rows; medians are actual elements
    (quantile_disc semantics) so doubles compare bit-exactly."""
    import math

    import ray

    def disc_median(g: pa.Table, out_col: str) -> pa.Table:
        o = pc.sort_indices(g["value"])
        v = g["value"].take(o).to_numpy(zero_copy_only=False)
        c = np.cumsum(g["c"].take(o).to_numpy(zero_copy_only=False))
        n = int(c[-1])
        m = float(v[np.searchsorted(c, max(1, math.ceil(0.5 * n)))])
        return pa.table({"event_type": pa.array([g["event_type"][0].as_py()]),
                         out_col: pa.array([m], pa.float64())})

    ds = table(sf_dir, "events",
               columns=["event_type", "value"])
    med = (
        combine_aggregate(ds, ["event_type", "value"],
                          [("c", None, "count_all")])
        .groupby("event_type")
        .map_groups(lambda g: disc_median(g, "m"), batch_format="pyarrow")
        .to_pandas()
    )
    ref = ray.put(dict(zip(med["event_type"], med["m"])))

    def dev_project(t: pa.Table) -> pa.Table:
        meds = ray.get(ref)
        keys = t["event_type"].to_numpy(zero_copy_only=False)
        m = np.fromiter((meds[k] for k in keys), dtype=np.float64,
                        count=len(keys))
        dev = np.abs(t["value"].to_numpy(zero_copy_only=False) - m)
        return pa.table({"event_type": t["event_type"],
                      "value": pa.array(dev, pa.float64())})

    return (
        combine_aggregate(ds.map_batches(dev_project, batch_format="pyarrow"),
                          ["event_type", "value"], [("c", None, "count_all")])
        .groupby("event_type")
        .map_groups(lambda g: disc_median(g, "mad"), batch_format="pyarrow")
    )


# ===================================== sliding-window distinct (7-day)


ORACLE_ROLLING_DISTINCT_USERS = """
WITH du AS (
  SELECT DISTINCT date_trunc('day', ts) AS day, user_id FROM events
)
SELECT du.day + g.i * INTERVAL 1 DAY AS day,
       count(DISTINCT du.user_id) AS n7
FROM du, generate_series(0, 6) AS g(i)
GROUP BY 1
"""


@query("rolling_distinct_users", oracle=ORACLE_ROLLING_DISTINCT_USERS)
def q_rolling_distinct_users(sf_dir: str):
    """Rolling 7-day distinct users per day via interval expansion: the
    distinct (day, user) pair set (bounded by users x active days, one
    groupby) fans each pair out to the <=7 windows it contributes to,
    dedups again, and folds to a per-window count. Overlapping windows
    never rescan events — the expansion factor is the window length, and
    it applies to the DISTINCT pair set, not the raw stream."""
    day_us = 86400 * 1_000_000

    def pairs(t: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(t["ts"], pa.timestamp("us")), pa.int64())
        day = pc.multiply(pc.floor(pc.divide(us, day_us)), day_us)
        return pa.table({"day": pc.cast(day, pa.int64()),
                         "user_id": t["user_id"]})

    def expand(t: pa.Table) -> pa.Table:
        d = t["day"].to_numpy(zero_copy_only=False)
        u = t["user_id"].to_numpy(zero_copy_only=False)
        k = np.arange(7, dtype=np.int64) * day_us
        wday = (d[:, None] + k[None, :]).ravel()
        return pa.table({"wday": pa.array(wday, pa.int64()),
                         "user_id": pa.array(np.repeat(u, 7), pa.int64())})

    days = combine_aggregate(
        table(sf_dir, "events", columns=["ts", "user_id"])
        .map_batches(pairs, batch_format="pyarrow"), ["day", "user_id"], [])
    weeks = combine_aggregate(days.map_batches(expand, batch_format="pyarrow"),
                              ["wday", "user_id"], [])
    out = combine_aggregate(weeks, "wday", [("n7", None, "count_all")])
    return out.map_batches(
        lambda t: pa.table({"day": pc.cast(t["wday"], pa.timestamp("us")),
                            "n7": t["sum(n7)"] if "sum(n7)" in t.column_names
                            else t["n7"]}),
        batch_format="pyarrow")


# ===================================== market-basket pairs (user, day)


ORACLE_BASKET_PAIRS = """
WITH du AS (
  SELECT DISTINCT user_id, date_trunc('day', ts) AS day, event_type
  FROM events
)
SELECT a.event_type AS ta, b.event_type AS tb, count(*) AS n
FROM du a JOIN du b
  ON a.user_id = b.user_id AND a.day = b.day
 AND a.event_type < b.event_type
GROUP BY 1, 2
"""


@query("basket_pairs", oracle=ORACLE_BASKET_PAIRS)
def q_basket_pairs(sf_dir: str):
    """Co-occurrence counts of event-type pairs within a (user, day)
    basket. Baskets are ~5 rows — per-basket map_groups would pay the
    tiny-group dispatch tax (one task per ~5-row group) — so baskets are
    co-located with ONE coarse exchange on (user, day) and paired with
    segmented numpy per partition: run boundaries, per-run
    upper-triangle index arithmetic. Pair counts then fold through a
    small groupby."""
    from ray.data.aggregate import Sum

    day_us = 86400 * 1_000_000

    def distinct_triples(t: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(t["ts"], pa.timestamp("us")), pa.int64())
        day = pc.cast(pc.floor(pc.divide(us, day_us)), pa.int64())
        return pa.table({"user_id": t["user_id"], "day": day,
                         "event_type": t["event_type"]})

    def pair_partition(g: pa.Table) -> pa.Table:
        u = g["user_id"].to_numpy(zero_copy_only=False)
        d = g["day"].to_numpy(zero_copy_only=False)
        ty = np.asarray(g["event_type"].to_pylist(), dtype=object)
        starts = np.concatenate(
            ([0], np.flatnonzero((u[1:] != u[:-1]) | (d[1:] != d[:-1])) + 1,
             [len(u)]))
        lens = np.diff(starts)
        # per-run upper-triangle pairs via index arithmetic (no per-run loop
        # over pairs; runs are capped at the distinct-type count)
        a_idx, b_idx = [], []
        for s, L in zip(starts[:-1], lens):
            if L < 2:
                continue
            iu, ju = np.triu_indices(L, k=1)
            a_idx.append(s + iu)
            b_idx.append(s + ju)
        if not a_idx:
            return pa.table({"ta": pa.array([], pa.string()),
                             "tb": pa.array([], pa.string()),
                             "_n": pa.array([], pa.int64())})
        a = np.concatenate(a_idx)
        b = np.concatenate(b_idx)
        base = pa.table({"ta": pa.array(ty[a].tolist(), pa.string()),
                         "tb": pa.array(ty[b].tolist(), pa.string())})
        return partial_aggregate(base, ["ta", "tb"],
                                 [("_n", None, "count_all")])

    baskets = combine_aggregate(
        table(sf_dir, "events",
              columns=["user_id", "ts", "event_type"])
        .map_batches(distinct_triples, batch_format="pyarrow"),
        ["user_id", "day", "event_type"], [])
    return (
        coarse_groups(baskets, ["user_id", "day"], pair_partition,
                      ["event_type"])
        .groupby(["ta", "tb"])
        .aggregate(Sum("_n", alias_name="n"))
    )


# ===================================== ordered string aggregation


ORACLE_USER_TOP3_TYPES = """
WITH cnt AS (
  SELECT user_id, event_type, count(*) AS n
  FROM events GROUP BY user_id, event_type
), ranked AS (
  SELECT user_id, event_type, n,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY n DESC, event_type ASC) AS rn
  FROM cnt
)
SELECT user_id,
       string_agg(event_type, ',' ORDER BY n DESC, event_type ASC)
         AS top_types
FROM ranked WHERE rn <= 3
GROUP BY user_id
"""


@query("user_top3_types", oracle=ORACLE_USER_TOP3_TYPES)
def q_user_top3_types(sf_dir: str):
    """Per-user ordered string_agg of the top-3 event types by count
    (count DESC, type ASC). Counts come from the distinct-pairs
    combiner; grouped_topk bounds each user to 3 rows; the concat runs
    segmented-numpy inside one coarse exchange (3-row groups are the
    tiny-group case, never one task each)."""
    from odinson_ray.stages.shuffle import grouped_topk

    per_type = combine_aggregate(
        table(sf_dir, "events",
              columns=["user_id", "event_type"]),
        ["user_id", "event_type"], [("n", None, "count_all")])
    top3 = grouped_topk(per_type, by="user_id", cols=["n", "event_type"],
                        descending=[True, False], k=3)

    def concat_partition(g: pa.Table) -> pa.Table:
        u = g["user_id"].to_numpy(zero_copy_only=False)
        ty = np.asarray(g["event_type"].to_pylist(), dtype=object)
        starts = np.concatenate(
            ([0], np.flatnonzero(u[1:] != u[:-1]) + 1, [len(u)]))
        users, tops = [], []
        for s, e in zip(starts[:-1], starts[1:]):
            users.append(int(u[s]))
            tops.append(",".join(ty[s:e]))
        return pa.table({"user_id": pa.array(users, pa.int64()),
                         "top_types": pa.array(tops, pa.string())})

    return coarse_groups(top3, ["user_id"], concat_partition,
                         [("n", "descending"), "event_type"])


# ===================================== interpolated (continuous) quantiles


ORACLE_VALUE_QUANTILES_CONT = """
SELECT event_type,
       round(quantile_cont(value, 0.25), 4) AS p25,
       round(quantile_cont(value, 0.50), 4) AS p50,
       round(quantile_cont(value, 0.75), 4) AS p75
FROM events GROUP BY event_type
"""


@query("value_quantiles_cont", oracle=ORACLE_VALUE_QUANTILES_CONT)
def q_value_quantiles_cont(sf_dir: str):
    """Interpolated quantiles (quantile_cont semantics: rank h = q*(n-1),
    result = v[floor(h)] + (v[floor(h)+1] - v[floor(h)]) * frac) of value
    per event_type. Same scale shape as value_quantiles: per-batch
    (key, value, count) combiner -> distinct-value histogram -> per-key
    selection from cumulative counts; two adjacent order statistics per
    quantile come from one searchsorted each."""

    hist = combine_aggregate(
        table(sf_dir, "events",
              columns=["event_type", "value"]),
        ["event_type", "value"], [("c", None, "count_all")])

    def quantiles(g: pa.Table) -> pa.Table:
        o = pc.sort_indices(g["value"])
        v = g["value"].take(o).to_numpy(zero_copy_only=False)
        c = np.cumsum(g["c"].take(o).to_numpy(zero_copy_only=False))
        n = int(c[-1])

        def pick(q: float) -> float:
            h = q * (n - 1)
            lo = int(np.floor(h))
            frac = h - lo
            a = float(v[np.searchsorted(c, lo + 1)])
            if frac == 0.0:
                return a
            b = float(v[np.searchsorted(c, lo + 2)])
            return a + (b - a) * frac

        return pa.table({
            "event_type": pa.array([g["event_type"][0].as_py()], pa.string()),
            "p25": pa.array([round(pick(0.25), 4)], pa.float64()),
            "p50": pa.array([round(pick(0.5), 4)], pa.float64()),
            "p75": pa.array([round(pick(0.75), 4)], pa.float64()),
        })

    return hist.groupby("event_type").map_groups(quantiles,
                                                 batch_format="pyarrow")


# ===================================== global high-water-mark detection
def record_high_counts(ds, order: str, value: str, group: str,
                       bucket_width: int = 4096,
                       mode: str = "record", lateness: float = 0.0):
    """Rows whose ``value`` strictly exceeds every earlier row's value in
    global ``order`` — the sequential-dependency class (running max over
    the WHOLE stream, not per key). Two-stage decomposition: per-bucket
    maxima (one map-side-combined groupby over order-buckets), ONE task
    turns the #buckets-sized maxima table into exclusive prefix-max
    carries, carries union back into the bucket-partitioned stream as
    sentinel rows, and each bucket evaluates its rows vectorized
    (np.maximum.accumulate seeded by the carry). No task ever holds more
    than one bucket; the carry pass holds #buckets rows = n/bucket_width
    (size it so that fits one task — at 10^12 rows, width 10^6 leaves
    10^6 carry rows).

    Returns (group, n_records) counts of record-setting rows per group.
    """
    from ray.data.aggregate import Sum

    NEG = float("-inf")

    def add_bucket(t: pa.Table) -> pa.Table:
        o = t[order].to_numpy(zero_copy_only=False)
        b = (o // bucket_width).astype(np.int64)
        return pa.table({
            "bkt": pa.array(b, pa.int64()),
            "o": pa.array(o, pa.int64()),
            "x": pc.cast(t[value], pa.float64()),
            "g": t[group],
        })

    rows = ds.map_batches(add_bucket, batch_format="pyarrow").materialize()

    bmax = combine_aggregate(rows, "bkt", [("m", "x", "max")])

    def carries(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        o = pc.sort_indices(t["bkt"])
        b = t["bkt"].take(o).to_numpy(zero_copy_only=False)
        m = t["m"].take(o).to_numpy(zero_copy_only=False).copy()
        carry = np.empty(len(m), dtype=np.float64)
        if len(m):
            carry[0] = NEG
            carry[1:] = np.maximum.accumulate(m[:-1])
        # sentinel rows: order -inf-like (min int) so they sort first
        return pa.table({
            "bkt": pa.array(b, pa.int64()),
            "o": pa.array(np.full(len(b), np.iinfo(np.int64).min), pa.int64()),
            "x": pa.array(carry, pa.float64()),
            "g": pa.array([None] * len(b), pa.string()),
        })

    const = bmax.map_batches(
        lambda t: t.append_column("_g", pa.array(np.zeros(t.num_rows,
                                                          np.int64))),
        batch_format="pyarrow")
    carry_rows = (const.groupby("_g")
                  .map_groups(lambda t: carries(t.drop_columns(["_g"])),
                              batch_format="pyarrow"))

    def eval_partition(t: pa.Table) -> pa.Table:
        b = t["bkt"].to_numpy(zero_copy_only=False)
        x = t["x"].to_numpy(zero_copy_only=False)
        g = t["g"]
        n = len(b)
        starts = np.concatenate(([0], np.flatnonzero(b[1:] != b[:-1]) + 1))
        # each bucket segment leads with its carry row (o = int64 min,
        # x = exclusive prefix max over earlier buckets, -inf for the
        # first). prior-max for row i = cummax of x over the segment up
        # to i-1 — the carry folds the cross-bucket history in. Few
        # segments per partition, so the per-segment loop is cheap; the
        # accumulate inside is vectorized.
        prev = np.empty(n, dtype=np.float64)
        seg_bounds = np.append(starts, n)
        for i in range(len(starts)):
            s, e = seg_bounds[i], seg_bounds[i + 1]
            cm = np.maximum.accumulate(x[s:e])
            prev[s] = -np.inf  # the carry row itself (dropped below)
            prev[s + 1:e] = cm[:e - s - 1]
        # carry rows have g == null -> excluded by is_valid
        if mode == "late":
            # watermark semantics: row i is LATE when it arrives after
            # the running max has advanced more than `lateness` past it
            # (prev == -inf on the stream head: never late)
            is_rec = (x < prev - lateness) & np.asarray(pc.is_valid(g))
        else:
            is_rec = (x > prev) & np.asarray(pc.is_valid(g))
        kept = pa.table({"g": g.filter(pa.array(is_rec))})
        return partial_aggregate(kept, ["g"], [("pn", None, "count_all")])

    return (coarse_groups([rows, carry_rows], ["bkt"], eval_partition, ["o"])
            .groupby("g").aggregate(Sum("pn", alias_name="n_records")))


ORACLE_RECORD_HIGHS = """
SELECT event_type, CAST(count(*) AS BIGINT) AS n_records FROM (
  SELECT event_type, value,
         max(value) OVER (ORDER BY event_id
                          ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
           AS wm
  FROM events) t
WHERE wm IS NULL OR value > wm
GROUP BY event_type
"""


@query("record_highs", oracle=ORACLE_RECORD_HIGHS)
def q_record_highs(sf_dir: str):
    """Count of record-setting events (value strictly above the global
    running max over all earlier event_ids) per event_type."""
    ds = table(sf_dir, "events",
               columns=["event_id", "value", "event_type"])
    out = record_high_counts(ds, order="event_id", value="value",
                             group="event_type")
    return out.map_batches(
        lambda t: pa.table({"event_type": t["g"],
                            "n_records": t["n_records"]}),
        batch_format="pyarrow")


# ===================================== per-key time-weighted average


ORACLE_TWAP_VALUE = """
WITH x AS (
  SELECT user_id, value,
         epoch_us(lead(ts) OVER (PARTITION BY user_id
                                 ORDER BY ts, event_id) - ts) AS dt
  FROM events
)
SELECT user_id, round(sum(value * dt) / sum(dt), 6) AS twap
FROM x WHERE dt IS NOT NULL
GROUP BY user_id
"""


@query("twap_value", oracle=ORACLE_TWAP_VALUE)
def q_twap_value(sf_dir: str):
    """Time-weighted average of value per user (each value weighted by
    the duration until the user's next event; the last event carries no
    weight) — the LEAD window class, one coarse exchange on user
    (tiny-group rule): per-user num/den via np.add.reduceat, boundary
    contributions masked to zero. A user whose events all share one
    instant has zero total weight and is emitted with a NULL twap
    (DuckDB's 0/0)."""

    def twap_partition(g: pa.Table) -> pa.Table:
        n = g.num_rows
        u = g["user_id"].to_numpy(zero_copy_only=False)
        ts = g["ts"].cast(pa.timestamp("us")).cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        v = g["value"].to_numpy(zero_copy_only=False)
        same = np.zeros(n, dtype=bool)
        same[:-1] = u[1:] == u[:-1]  # row i pairs with its successor
        dt = np.zeros(n, dtype=np.float64)
        dt[:-1] = (ts[1:] - ts[:-1]).astype(np.float64)
        dt[~same] = 0.0
        starts = np.concatenate(([0], np.flatnonzero(u[1:] != u[:-1]) + 1))
        num = np.add.reduceat(v * dt, starts)
        den = np.add.reduceat(dt, starts)
        # users with >= 2 events keep a row; zero total weight -> NULL
        keep = np.append(starts[1:], n) - starts > 1
        users = u[starts][keep]
        num, den = num[keep], den[keep]
        twap = [round(a / b, 6) if b > 0 else None
                for a, b in zip(num, den)]
        return pa.table({
            "user_id": pa.array(users, pa.int64()),
            "twap": pa.array(twap, pa.float64()),
        })

    return coarse_groups(
        table(sf_dir, "events",
              columns=["user_id", "ts", "event_id", "value"]),
        ["user_id"], twap_partition, ["ts", "event_id"])


ORACLE_SESSION_SPANS = """
WITH x AS (
  SELECT user_id, ts,
         CASE WHEN lag(ts) OVER w IS NULL
                   OR epoch(ts - lag(ts) OVER w) > 1800
              THEN 1 ELSE 0 END AS is_new
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts)
),
s AS (
  SELECT user_id, ts,
         sum(is_new) OVER (PARTITION BY user_id ORDER BY ts
                           ROWS UNBOUNDED PRECEDING) AS sid
  FROM x
)
SELECT user_id,
       CAST(epoch_us(min(ts)) AS BIGINT) AS session_start_us,
       CAST(epoch_us(max(ts)) AS BIGINT) AS session_end_us,
       CAST(count(*) AS BIGINT) AS n_events
FROM s GROUP BY user_id, sid
"""


@query("session_spans", oracle=ORACLE_SESSION_SPANS)
def q_session_spans(sf_dir: str):
    """Full session records (start, end, n_events) per user at a 30-min
    gap — stages/window.session_spans' two-stage fragment merge."""
    from odinson_ray.stages.window import session_spans

    return session_spans(
        table(sf_dir, "events",
              columns=["user_id", "ts"]),
        key="user_id", ts="ts", gap_s=1800)


# ===================================== daily resample + forward fill
_DAY_US2 = 86_400 * 1_000_000


_FF_SHIFT = 1 << 22  # composite (user, day-index) int64 key


ORACLE_DAILY_FFILL = """
WITH last AS (
  SELECT user_id, day, value FROM (
    SELECT user_id, date_trunc('day', ts) AS day, value,
           row_number() OVER (PARTITION BY user_id, date_trunc('day', ts)
                              ORDER BY ts DESC, event_id DESC) AS rn
    FROM events) WHERE rn = 1
),
bounds AS (SELECT user_id, min(day) AS d0, max(day) AS d1
           FROM last GROUP BY user_id),
grid AS (
  SELECT user_id, unnest(generate_series(d0, d1, INTERVAL 1 DAY)) AS day
  FROM bounds
),
filled AS (
  SELECT g.user_id, g.day,
         last_value(l.value IGNORE NULLS)
           OVER (PARTITION BY g.user_id ORDER BY g.day
                 ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS v
  FROM grid g LEFT JOIN last l
    ON l.user_id = g.user_id AND l.day = g.day
)
SELECT user_id, CAST(epoch_us(day) AS BIGINT) AS day_us,
       v AS ffill_value
FROM filled
"""


@query("daily_ffill", oracle=ORACLE_DAILY_FFILL)
def q_daily_ffill(sf_dir: str):
    """Time-series resampling: each user's value on a DAILY grid from
    their first to their last active day, forward-filling days with no
    events from the most recent prior day (feature-pipeline gap fill).

    Shape: (1) per-(user, day) LAST value via grouped_topk k=1 on a
    composite int64 key (<=1 row per key per batch crosses the shuffle);
    (2) per-user [d0, d1] bounds from a min/max combiner; (3) the grid
    expands bounds rows by days-active (bounded by time range, never by
    event count); (4) grid LEFT JOIN daily-last on the composite key;
    (5) forward fill runs segmented-vectorized inside one coarse
    exchange on user — the first day of every user has an observation
    by construction, so a global maximum.accumulate over last-valid
    indices cannot leak across users."""
    from ray.data.aggregate import Max, Min

    from odinson_ray.stages.shuffle import grouped_topk, hash_join

    def keyed(t: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(t["ts"], pa.timestamp("us")), pa.int64())
        day = pc.cast(pc.divide(us, _DAY_US2), pa.int64())
        k = pc.add(pc.multiply(t["user_id"], _FF_SHIFT), day)
        return pa.table({"k": k, "user_id": t["user_id"], "day": day,
                         "ts_us": us, "event_id": t["event_id"],
                         "value": t["value"]})

    ev = (table(sf_dir, "events",
                columns=["user_id", "ts", "event_id", "value"])
          .map_batches(keyed, batch_format="pyarrow"))

    daily = grouped_topk(ev, by="k", cols=["ts_us", "event_id"],
                         descending=[True, True], k=1).materialize()

    bounds = (daily.groupby("user_id")
              .aggregate(Min("day", alias_name="d0"),
                         Max("day", alias_name="d1")))

    def grid(t: pa.Table) -> pa.Table:
        u = t["user_id"].to_numpy(zero_copy_only=False)
        d0 = t["d0"].to_numpy(zero_copy_only=False)
        d1 = t["d1"].to_numpy(zero_copy_only=False)
        reps = (d1 - d0 + 1).astype(np.int64)
        idx = np.repeat(np.arange(len(u)), reps)
        off = np.arange(len(idx)) - np.repeat(np.cumsum(reps) - reps, reps)
        day = d0[idx] + off
        uu = u[idx]
        return pa.table({
            "k": pa.array(uu * _FF_SHIFT + day, pa.int64()),
            "user_id": pa.array(uu, pa.int64()),
            "day": pa.array(day, pa.int64()),
        })

    g = bounds.map_batches(grid, batch_format="pyarrow")
    joined = hash_join(
        g,
        daily.map_batches(lambda t: t.select(["k", "value"]),
                          batch_format="pyarrow"),
        on="k", how="left_outer",
        left_schema=pa.schema([("k", pa.int64()), ("user_id", pa.int64()),
                               ("day", pa.int64())]),
        right_schema=pa.schema([("k", pa.int64()),
                                ("value", pa.float64())]))

    def ffill(t: pa.Table) -> pa.Table:
        v = t["value"].to_numpy(zero_copy_only=False)
        valid = np.asarray(pc.is_valid(t["value"]))
        idx = np.where(valid, np.arange(len(v)), -1)
        np.maximum.accumulate(idx, out=idx)
        filled = v[idx]
        return pa.table({
            "user_id": t["user_id"],
            "day_us": pa.array(
                t["day"].to_numpy(zero_copy_only=False) * _DAY_US2,
                pa.int64()),
            "ffill_value": pa.array(filled, pa.float64()),
        })

    return coarse_groups(joined, ["user_id"], ffill, ["day"])


# ===================================== distribution drift (PSI)
_PSI_SPLIT_US = 1_705_363_200_000_000  # 2024-01-16T00:00:00Z


_PSI_BINS = 10


_PSI_WIDTH = 50.0  # value range [0, 500)


ORACLE_VALUE_DRIFT_PSI = """
WITH binned AS (
  SELECT event_type,
         CASE WHEN ts < TIMESTAMP '2024-01-16 00:00:00'
              THEN 'ref' ELSE 'cur' END AS period,
         least(greatest(CAST(floor(value / 50.0) AS BIGINT), 0), 9) AS bin
  FROM events
),
c AS (
  SELECT event_type, period, bin, count(*) AS c
  FROM binned GROUP BY 1, 2, 3
),
grid AS (
  SELECT DISTINCT b.event_type, p.period, g.bin
  FROM (SELECT DISTINCT event_type FROM binned) b,
       (SELECT unnest(['ref', 'cur']) AS period) p,
       (SELECT unnest(generate_series(0, 9)) AS bin) g
),
sm AS (
  SELECT g.event_type, g.period, g.bin,
         COALESCE(c.c, 0) + 1.0 AS c
  FROM grid g LEFT JOIN c
    ON c.event_type = g.event_type AND c.period = g.period
   AND c.bin = g.bin
),
norm AS (
  SELECT event_type, period, bin,
         c / sum(c) OVER (PARTITION BY event_type, period) AS p
  FROM sm
)
SELECT r.event_type,
       round(sum((q.p - r.p) * ln(q.p / r.p)), 6) AS psi
FROM norm r JOIN norm q
  ON q.event_type = r.event_type AND q.bin = r.bin
WHERE r.period = 'ref' AND q.period = 'cur'
GROUP BY r.event_type
"""


@query("value_drift_psi", oracle=ORACLE_VALUE_DRIFT_PSI)
def q_value_drift_psi(sf_dir: str):
    """Population Stability Index per event_type between the reference
    period (first half of January) and the current period — the standard
    training-serving drift monitor. One pass: per-batch (type, period,
    bin) count combiner -> one groupby -> per-type vectorized PSI with
    +1 Laplace smoothing (defined even when a bin empties). Bins are
    FIXED-width over the column's documented range, so no quantile pass
    and no driver artifact."""

    def partial(t: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(t["ts"], pa.timestamp("us")), pa.int64())
        period = pc.if_else(pc.less(us, pa.scalar(_PSI_SPLIT_US)),
                            pa.scalar("ref"), pa.scalar("cur"))
        v = t["value"].to_numpy(zero_copy_only=False)
        b = np.clip((v / _PSI_WIDTH).astype(np.int64), 0, _PSI_BINS - 1)
        return pa.table({"event_type": t["event_type"], "period": period,
                         "bin": pa.array(b, pa.int64())})

    counts = combine_aggregate(
        table(sf_dir, "events",
              columns=["event_type", "ts", "value"])
        .map_batches(partial, batch_format="pyarrow"),
        ["event_type", "period", "bin"], [("c", None, "count_all")])

    def psi(g: pa.Table) -> pa.Table:
        per = np.asarray(g["period"].to_pylist(), dtype=object)
        b = g["bin"].to_numpy(zero_copy_only=False)
        c = g["c"].to_numpy(zero_copy_only=False)
        ref = np.ones(_PSI_BINS, dtype=np.float64)  # +1 smoothing
        cur = np.ones(_PSI_BINS, dtype=np.float64)
        ref[b[per == "ref"]] += c[per == "ref"]
        cur[b[per == "cur"]] += c[per == "cur"]
        p = ref / ref.sum()
        q = cur / cur.sum()
        val = float(np.sum((q - p) * np.log(q / p)))
        return pa.table({
            "event_type": pa.array([g["event_type"][0].as_py()],
                                   pa.string()),
            "psi": pa.array([round(val, 6)], pa.float64()),
        })

    return counts.groupby("event_type").map_groups(psi,
                                                   batch_format="pyarrow")


# ===================================== equi-depth histogram


ORACLE_EQUIDEPTH_HISTOGRAM = """
WITH q AS (
  SELECT quantile_disc(value, 0.125) AS q1, quantile_disc(value, 0.25) AS q2,
         quantile_disc(value, 0.375) AS q3, quantile_disc(value, 0.5) AS q4,
         quantile_disc(value, 0.625) AS q5, quantile_disc(value, 0.75) AS q6,
         quantile_disc(value, 0.875) AS q7
  FROM events
)
SELECT CAST(value > q1 AS INT) + CAST(value > q2 AS INT)
     + CAST(value > q3 AS INT) + CAST(value > q4 AS INT)
     + CAST(value > q5 AS INT) + CAST(value > q6 AS INT)
     + CAST(value > q7 AS INT) AS bucket,
       CAST(count(*) AS BIGINT) AS n
FROM events, q GROUP BY bucket
"""


@query("equidepth_histogram", oracle=ORACLE_EQUIDEPTH_HISTOGRAM)
def q_equidepth_histogram(sf_dir: str, buckets: int = 8):
    """Equi-depth histogram of events.value: boundaries are exact
    quantile_disc order statistics from the distinct-value histogram
    (the value_quantiles machinery — the shuffle carries distinct
    (value, count) rows, never raw rows), then a second vectorized pass
    buckets every row against the 7 broadcast boundary floats. The
    equal-WIDTH twin is value_histogram; equi-depth is what query
    optimizers and drift monitors actually store."""
    import math

    src = table(sf_dir, "events", columns=["value"])

    hist = combine_aggregate(src, "value", [("c", None, "count_all")])

    def boundaries(g: pa.Table) -> pa.Table:
        o = pc.sort_indices(g["value"])
        v = g["value"].take(o).to_numpy(zero_copy_only=False)
        c = np.cumsum(g["c"].take(o).to_numpy(zero_copy_only=False))
        n = int(c[-1])
        qs = [float(v[np.searchsorted(c, max(1, math.ceil(q * n)))])
              for q in (i / buckets for i in range(1, buckets))]
        return pa.table({"q": pa.array(qs, pa.float64())})

    const = hist.map_batches(
        lambda t: t.append_column("_g", pa.array(
            np.zeros(t.num_rows, np.int64))),
        batch_format="pyarrow")
    bounds = (const.groupby("_g")
              .map_groups(lambda t: boundaries(t.drop_columns(["_g"])),
                          batch_format="pyarrow"))
    qs = sorted(r["q"] for r in bounds.take_all())  # buckets-1 floats
    q_arr = np.array(qs, dtype=np.float64)

    def bucket_project(t: pa.Table) -> pa.Table:
        v = t["value"].to_numpy(zero_copy_only=False)
        # searchsorted-left = count of boundaries strictly below v,
        # exactly SQL's Σ CAST(value > q_j AS INT) (ties → lower bucket)
        b = np.searchsorted(q_arr, v, side="left")
        return pa.table({"bucket": pa.array(b, pa.int64())})

    return combine_aggregate(
        src.map_batches(bucket_project, batch_format="pyarrow"),
        "bucket", [("n", None, "count_all")])


# ===================================== watermark late-data detection


ORACLE_LATE_EVENTS = """
WITH jit AS (
  SELECT event_type, event_id,
         ts - to_microseconds(((event_id % 1000003) * 99991) % 7200
                              * 1000000) AS et
  FROM events
)
SELECT event_type, CAST(count(*) AS BIGINT) AS n_late FROM (
  SELECT event_type, et,
         max(et) OVER (ORDER BY event_id
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
           AS wm
  FROM jit) t
WHERE wm IS NOT NULL AND et < wm - INTERVAL 1 HOUR
GROUP BY event_type
"""


@query("late_events", oracle=ORACLE_LATE_EVENTS)
def q_late_events(sf_dir: str, lateness_h: int = 1):
    """Streaming late-data accounting: an event is LATE when, at its
    ARRIVAL position (event_id order), the running max event-time
    (the watermark source) has already advanced more than ``lateness_h``
    hours past its timestamp — exactly what a streaming engine counts
    before dropping/side-outputting a late record. Rides the
    record_highs two-stage machinery (per-bucket maxima → one
    #buckets-sized exclusive-prefix-max task → carries re-enter the
    bucketed stream), so no global sort and no task holds more than one
    bucket. Returns late counts per event_type.

    The synthetic events table is perfectly time-ordered, so arrival
    disorder is SIMULATED with a deterministic integer-hash jitter of
    up to 2 h subtracted from each event time — pure int64 arithmetic
    reproduced verbatim in the SQL oracle (no md5 loop needed)."""

    ds = table(sf_dir, "events",
               columns=["event_id", "ts", "event_type"])

    def project(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        jit_s = ((eid % 1_000_003) * 99_991) % 7200
        ts = t["ts"].cast(pa.timestamp("us")).cast(
            pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({
            "event_id": t["event_id"],
            "ts_us": pa.array(ts - jit_s * 1_000_000, pa.int64()),
            "event_type": t["event_type"],
        })

    out = record_high_counts(
        ds.map_batches(project, batch_format="pyarrow"),
        order="event_id", value="ts_us", group="event_type",
        mode="late", lateness=lateness_h * 3_600_000_000.0)
    return out.map_batches(
        lambda t: pa.table({"event_type": t["g"],
                            "n_late": t["n_records"]}),
        batch_format="pyarrow")


# ===================================== interval-union active time


ORACLE_USER_ACTIVE_TIME = """
WITH g AS (
  SELECT user_id, ts, lead(ts) OVER w AS nxt
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
)
SELECT user_id,
       CAST(sum(CASE WHEN nxt IS NULL THEN 300000000
                     ELSE least(epoch_us(nxt - ts), 300000000) END)
            AS BIGINT) AS active_us
FROM g GROUP BY user_id
"""


@query("user_active_time", oracle=ORACLE_USER_ACTIVE_TIME)
def q_user_active_time(sf_dir: str, window_s: int = 300):
    """Per-user ACTIVE TIME: the measure of the union of [ts, ts+300 s)
    intervals over the user's events — the engagement metric that,
    unlike a raw count, doesn't double-count bursts. With a fixed
    interval length the union has the closed form Σ min(Δi, L) + L over
    consecutive gaps, so it rides the segmented LAG shape (one coarse
    exchange on user, vectorized diff with reset masks — a user's rows
    are co-located, so the per-user sum is complete within its
    partition)."""
    L = window_s * 1_000_000

    def active_partition(g: pa.Table) -> pa.Table:
        n = g.num_rows
        u = g["user_id"].to_numpy(zero_copy_only=False)
        ts = g["ts"].cast(pa.timestamp("us")).cast(pa.int64()).to_numpy(
            zero_copy_only=False)  # normalize any source unit to us
        # per-row contribution: min(next_ts - ts, L) within a user run,
        # L on each run's last row
        contrib = np.full(n, L, dtype=np.int64)
        same = u[1:] == u[:-1]
        contrib[:-1] = np.where(same, np.minimum(ts[1:] - ts[:-1], L), L)
        starts = np.concatenate(([0], np.flatnonzero(~same) + 1))
        sums = np.add.reduceat(contrib, starts)
        return pa.table({
            "user_id": pa.array(u[starts], pa.int64()),
            "active_us": pa.array(sums, pa.int64()),
        })

    return coarse_groups(
        table(sf_dir, "events",
              columns=["user_id", "ts", "event_id"]),
        ["user_id"], active_partition, ["ts", "event_id"])


# ===================================== conversion-window funnel


ORACLE_FUNNEL_WINDOW = """
WITH fa AS (
  SELECT user_id, min(ts) AS ts_a FROM events
  WHERE event_type = 'view' GROUP BY user_id
)
SELECT CAST(count(DISTINCT e.user_id) AS BIGINT) AS n_users
FROM events e JOIN fa ON fa.user_id = e.user_id
WHERE e.event_type = 'purchase'
  AND e.ts > fa.ts_a AND e.ts <= fa.ts_a + INTERVAL 24 HOUR
"""


@query("funnel_window", oracle=ORACLE_FUNNEL_WINDOW)
def q_funnel_window(sf_dir: str, a: str = "view", b: str = "purchase",
                    window_h: int = 24):
    """Users who convert WITHIN A WINDOW: a '{b}' event in
    (first_{a}, first_{a} + window]. Unlike funnel_users' min/max
    combiner (order only), window membership needs the user's events
    together — ONE coarse exchange on user, then per partition segmented
    numpy: first-A per user run via masked minimum.reduceat, B-in-window
    via one vectorized mask, per-run any() via reduceat. No per-user
    task, no event leaves its partition."""
    from ray.data.aggregate import Sum

    W = window_h * 3_600_000_000

    def converted_partition(g: pa.Table) -> pa.Table:
        n = g.num_rows
        u = g["user_id"].to_numpy(zero_copy_only=False)
        ts = g["ts"].cast(pa.timestamp("us")).cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        is_a = np.asarray(pc.equal(g["event_type"], a))
        starts = np.concatenate(
            ([0], np.flatnonzero(u[1:] != u[:-1]) + 1))
        seg_id = np.repeat(np.arange(len(starts)),
                           np.diff(np.append(starts, n)))
        BIG = np.iinfo(np.int64).max
        ts_a = np.where(is_a, ts, BIG)
        first_a = np.minimum.reduceat(ts_a, starts)
        fa_row = first_a[seg_id]
        hit = (~is_a) & (fa_row != BIG) & (ts > fa_row) & (ts <= fa_row + W)
        n_conv = int(np.add.reduceat(hit, starts).astype(bool).sum())
        return pa.table({"pn": pa.array([n_conv], pa.int64())})

    out = coarse_groups(
        table(sf_dir, "events",
              columns=["user_id", "ts", "event_type"])
        .map_batches(
            lambda t: t.filter(pc.is_in(t["event_type"], pa.array([a, b]))),
            batch_format="pyarrow"),
        ["user_id"], converted_partition, ["ts"])
    return (out.map_batches(
        lambda t: t.append_column("_g", pa.array([0] * t.num_rows,
                                                 pa.int64())),
        batch_format="pyarrow")
        .groupby("_g").aggregate(Sum("pn", alias_name="n_users"))
        .map_batches(lambda t: t.drop_columns(["_g"]),
                     batch_format="pyarrow"))


# ===================================== stream-stream windowed self-join


ORACLE_WINDOW_JOIN_COUNTS = """
SELECT a.event_type AS ta, b.event_type AS tb,
       CAST(count(*) AS BIGINT) AS n
FROM events a JOIN events b
  ON a.user_id = b.user_id
 AND (b.ts > a.ts OR (b.ts = a.ts AND b.event_id > a.event_id))
 AND b.ts <= a.ts + INTERVAL 1 HOUR
GROUP BY a.event_type, b.event_type
"""


@query("window_join_counts", oracle=ORACLE_WINDOW_JOIN_COUNTS)
def q_window_join_counts(sf_dir: str, window_h: int = 1):
    """Stream-stream windowed join: for every ordered pair of events of
    the same user with ts_b ∈ (ts_a, ts_a + 1 h] ((ts, event_id) order —
    ties counted once, deterministically), the (type_a, type_b)
    co-occurrence counts. The symmetric cousin of the as-of join: ONE
    coarse exchange on user, per-row window ends from ONE vectorized
    searchsorted, pair explosion via run-position index arithmetic
    (bounded by per-user activity within the window — the quantity the
    join is ABOUT), per-batch type-pair count combiner. No per-user
    task; no event row leaves its partition."""
    from ray.data.aggregate import Sum

    W = window_h * 3_600_000_000

    def pairs_partition(g: pa.Table) -> pa.Table:
        n = g.num_rows
        empty = pa.table({"ta": pa.array([], pa.string()),
                          "tb": pa.array([], pa.string()),
                          "pn": pa.array([], pa.int64())})
        u = g["user_id"].to_numpy(zero_copy_only=False)
        ts = g["ts"].cast(pa.timestamp("us")).cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        starts = np.concatenate(([0], np.flatnonzero(u[1:] != u[:-1]) + 1))
        seg_ends = np.append(starts[1:], n)
        # per-row window end within the user run: first index with
        # ts > ts_i + W. ts is only PIECEWISE sorted (it resets at every
        # user boundary), so searchsorted must run per run — vectorized
        # within each run, one tiny call per user in the partition (the
        # record_highs per-segment pattern; a global searchsorted over
        # non-monotonic data would silently drop pairs)
        ends = np.empty(n, dtype=np.int64)
        for s, e in zip(starts, seg_ends):
            ends[s:e] = s + np.searchsorted(ts[s:e], ts[s:e] + W,
                                            side="right")
        lens = ends - np.arange(n) - 1  # pairs start at i+1
        lens = np.maximum(lens, 0)
        total = int(lens.sum())
        if total == 0:
            return empty
        a_idx = np.repeat(np.arange(n), lens)
        off = np.arange(total) - np.repeat(
            np.concatenate(([0], np.cumsum(lens)[:-1])), lens)
        b_idx = a_idx + 1 + off
        types = g["event_type"]
        tab = pa.table({"ta": types.take(pa.array(a_idx)),
                        "tb": types.take(pa.array(b_idx))})
        return partial_aggregate(tab, ["ta", "tb"],
                                 [("pn", None, "count_all")])

    return (coarse_groups(
                table(sf_dir, "events",
                      columns=["user_id", "ts", "event_id",
                               "event_type"]),
                ["user_id"], pairs_partition, ["ts", "event_id"])
            .groupby(["ta", "tb"]).aggregate(Sum("pn", alias_name="n")))


# ===================================== CMS join-size estimation
@query("cms_join_size")  # no oracle BY DESIGN
def q_cms_join_size(sf_dir: str):
    """Estimated |orders ⋈ events| on user key via CountMin inner
    product — the optimizer's broadcast-vs-shuffle decision input,
    computed without moving a single key (two 128-KiB sketch streams).
    Approximate BY DESIGN (one-sided: never underestimates); pytest
    pins the bound against the exact join size."""
    import pandas as pd

    from odinson_ray.stages.sketch import cms_join_size

    orders = table(sf_dir, "orders",
                   columns=["o_custkey"])
    events = table(sf_dir, "events",
                   columns=["user_id"])
    r = cms_join_size(orders, events, "o_custkey", "user_id")
    return pd.DataFrame([r])


# ===================================== HLL set algebra (user overlap)
@query("approx_user_overlap")  # no oracle BY DESIGN
def q_approx_user_overlap(sf_dir: str):
    """Approximate overlap of the 'click' and 'purchase' user sets by
    HyperLogLog set algebra (union = elementwise register max, exact
    over sketches; intersection by inclusion-exclusion). The audience-
    overlap question at 100 TB without shuffling a single user id —
    only 4-KiB register blobs move. Approximate BY DESIGN (error
    compounds through inclusion-exclusion); tests pin tolerance vs the
    exact overlap."""
    from odinson_ray.stages.sketch import hll_overlap

    ds = table(sf_dir, "events",
               columns=["event_type", "user_id"])
    return hll_overlap(ds, "event_type", "user_id", "click", "purchase")


# ===================================== first-event-per-window throttle


ORACLE_EVENT_THROTTLE = """
WITH b AS (
  SELECT user_id, event_id, epoch_us(ts) AS tu,
         epoch_us(ts) - (epoch_us(ts) % 300000000) AS ws
  FROM events
),
r AS (
  SELECT *, ROW_NUMBER() OVER (PARTITION BY user_id, ws
                               ORDER BY tu, event_id) AS rn
  FROM b
)
SELECT user_id, make_timestamp(ws) AS window_start,
       event_id AS first_event_id
FROM r WHERE rn = 1
"""


@query("event_throttle", oracle=ORACLE_EVENT_THROTTLE)
def q_event_throttle(sf_dir: str, window_us: int = 300_000_000):
    """Rate-limit dedup: keep only the FIRST event per (user, 5-minute
    tumbling window) — the throttling/debounce primitive of alerting
    and notification pipelines. Argmin is made associative by packing
    (ts, event_id) into one fixed-width sortable string, so a plain
    per-batch combiner + global Min groupby replaces any per-key sort;
    ties break on event_id exactly as the oracle's ROW_NUMBER order."""
    ds = table(sf_dir, "events",
               columns=["user_id", "event_id", "ts"])

    def partial(t: pa.Table) -> pa.Table:
        tu = t["ts"].cast(pa.timestamp("us")).cast(pa.int64())
        ws = pc.multiply(pc.divide(tu, window_us),
                         pa.scalar(window_us, pa.int64()))
        # zero-padded us timestamp (20) + event id (12): lexicographic
        # order == (ts, event_id) order for non-negative values
        # both fields padded to 20 digits — int64 is at most 19 digits,
        # so lexicographic order == (ts, event_id) numeric order for ALL
        # non-negative int64 values (no silent truncation possible)
        packed = pc.binary_join_element_wise(
            pc.utf8_lpad(pc.cast(tu, pa.string()), 20, "0"),
            pc.utf8_lpad(pc.cast(t["event_id"], pa.string()), 20, "0"),
            "")
        return pa.table({"user_id": t["user_id"], "ws": ws, "pk": packed})

    agg = combine_aggregate(ds.map_batches(partial, batch_format="pyarrow"),
                            ["user_id", "ws"], [("m", "pk", "min")])

    def finish(t: pa.Table) -> pa.Table:
        eid = pc.cast(pc.utf8_slice_codeunits(t["m"], 20, 40), pa.int64())
        return pa.table({
            "user_id": t["user_id"],
            "window_start": t["ws"].cast(pa.timestamp("us")),
            "first_event_id": eid})

    return agg.map_batches(finish, batch_format="pyarrow")


# ===================================== CEP: view->purchase conversions


ORACLE_CEP_CONVERSIONS = """
WITH e AS (
  SELECT user_id, event_type,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY ts, event_id) AS rn
  FROM events WHERE event_type IN ('view', 'purchase')
),
p AS (
  SELECT user_id, rn,
         lag(rn, 1, 0) OVER (PARTITION BY user_id ORDER BY rn) AS prev_rn
  FROM e WHERE event_type = 'purchase'
)
SELECT p.user_id, CAST(count(*) AS BIGINT) AS n_conversions
FROM p
WHERE EXISTS (SELECT 1 FROM e v
              WHERE v.user_id = p.user_id AND v.event_type = 'view'
                AND v.rn > p.prev_rn AND v.rn < p.rn)
GROUP BY p.user_id
"""


@query("cep_conversions", oracle=ORACLE_CEP_CONVERSIONS)
def q_cep_conversions(sf_dir: str):
    """Complex-event-processing rule with reset semantics: count, per
    user, purchases preceded by at least one view SINCE THE PREVIOUS
    PURCHASE (each view streak converts at most once). Needs each
    user's ordered event sequence — ONE coarse exchange on user, then
    per partition segmented cumulative-count arithmetic (no per-user
    task, no regex engine, no Python loop)."""

    def conv_partition(g: pa.Table) -> pa.Table:
        n = g.num_rows
        empty = pa.table({"user_id": pa.array([], pa.int64()),
                          "n_conversions": pa.array([], pa.int64())})
        u = g["user_id"].to_numpy(zero_copy_only=False)
        is_view = np.asarray(pc.equal(g["event_type"], "view"))
        starts = np.concatenate(([0], np.flatnonzero(u[1:] != u[:-1]) + 1))
        run_of = np.repeat(np.arange(len(starts)),
                           np.diff(np.append(starts, n)))
        vc = np.cumsum(is_view)                      # views at <= i
        vbefore = np.concatenate(([0], vc[:-1]))     # views at < i
        p_idx = np.flatnonzero(~is_view)
        if len(p_idx) == 0:
            return empty
        prev_p = np.concatenate(([-1], p_idx[:-1]))
        same_run = (prev_p >= 0) & (run_of[np.maximum(prev_p, 0)]
                                    == run_of[p_idx])
        run_start = starts[run_of[p_idx]]
        base = np.where(same_run, vc[np.maximum(prev_p, 0)],
                        vbefore[run_start])
        converted = vbefore[p_idx] > base
        # per-user conversion counts over this partition's runs
        pu = u[p_idx][converted]
        if len(pu) == 0:
            return empty
        uniq, cnt = np.unique(pu, return_counts=True)
        return pa.table({"user_id": pa.array(uniq, pa.int64()),
                         "n_conversions": pa.array(cnt, pa.int64())})

    return coarse_groups(
        table(sf_dir, "events",
              columns=["user_id", "ts", "event_id", "event_type"])
        .map_batches(lambda t: t.filter(pc.is_in(
            t["event_type"], pa.array(["view", "purchase"]))),
            batch_format="pyarrow"),
        ["user_id"], conv_partition, ["ts", "event_id"])


# ===================================== JSON field extraction over props


ORACLE_JSON_PROPS = """
WITH e AS (SELECT event_type,
                  CAST(json_extract_string(props, '$.k') AS BIGINT) AS k
           FROM events)
SELECT event_type, CAST(count(k) AS BIGINT) AS n,
       CAST(sum(k) AS BIGINT) AS sum_k, CAST(max(k) AS BIGINT) AS max_k,
       round(sum(k) / CAST(count(k) AS DOUBLE), 6) AS avg_k
FROM e GROUP BY event_type
"""


@query("json_props_stats", oracle=ORACLE_JSON_PROPS)
def q_json_props_stats(sf_dir: str):
    """Semi-structured extraction: pull the integer ``k`` out of the
    JSON ``props`` column with ONE vectorized RE2 scan
    (pc.extract_regex — no per-row json.loads), then per-event-type
    sum/count/max via the usual combiner. Rows whose props lack ``k``
    drop out as nulls on both sides."""

    def extract_project(t: pa.Table) -> pa.Table:
        ex = pc.extract_regex(t["props"], r'"k"\s*:\s*(?P<k>-?\d+)')
        k = pc.cast(pc.struct_field(ex, "k"), pa.int64())
        return pa.table({"event_type": t["event_type"], "k": k})

    agg = combine_aggregate(
        table(sf_dir, "events",
              columns=["event_type", "props"])
        .map_batches(extract_project, batch_format="pyarrow"),
        "event_type",
        [("sum_k", "k", "sum"), ("n", "k", "count"), ("max_k", "k", "max")])

    def finish(t: pa.Table) -> pa.Table:
        avg = pc.round(pc.divide(pc.cast(t["sum_k"], pa.float64()),
                                 pc.cast(t["n"], pa.float64())), ndigits=6)
        return pa.table({"event_type": t["event_type"], "n": t["n"],
                         "sum_k": t["sum_k"], "max_k": t["max_k"],
                         "avg_k": avg})

    return agg.map_batches(finish, batch_format="pyarrow")


# ===================================== 3-step funnel progression


ORACLE_FUNNEL3 = """
WITH e AS (
  SELECT user_id, event_type,
         lpad(CAST(epoch_us(ts) AS VARCHAR), 20, '0') ||
         lpad(CAST(event_id AS VARCHAR), 20, '0') AS pk
  FROM events WHERE event_type IN ('view', 'click', 'purchase')
),
f1 AS (SELECT user_id, min(pk) AS p1 FROM e
       WHERE event_type = 'view' GROUP BY user_id),
f2 AS (SELECT e.user_id, min(pk) AS p2 FROM e JOIN f1 USING (user_id)
       WHERE event_type = 'click' AND pk > p1 GROUP BY e.user_id),
f3 AS (SELECT e.user_id, min(pk) AS p3 FROM e JOIN f2 USING (user_id)
       WHERE event_type = 'purchase' AND pk > p2 GROUP BY e.user_id)
SELECT f1.user_id,
       CAST(1 + CASE WHEN f2.user_id IS NULL THEN 0 ELSE 1 END
              + CASE WHEN f3.user_id IS NULL THEN 0 ELSE 1 END
            AS BIGINT) AS steps
FROM f1 LEFT JOIN f2 ON f1.user_id = f2.user_id
        LEFT JOIN f3 ON f1.user_id = f3.user_id
"""


@query("funnel3_users", oracle=ORACLE_FUNNEL3)
def q_funnel3_users(sf_dir: str):
    """Per-user funnel depth over view -> click -> purchase with strict
    sequential semantics (the click must follow the FIRST view, the
    purchase must follow THAT click; ties break by event_id). One
    coarse exchange on user; inside each partition three masked
    ``np.minimum.reduceat`` sweeps compute every user's first-view /
    first-click-after / first-purchase-after positions at once — no
    per-user task, no iteration over steps x users."""
    kinds = pa.array(["view", "click", "purchase"])

    def funnel_partition(g: pa.Table) -> pa.Table:
        n = g.num_rows
        u = g["user_id"].to_numpy(zero_copy_only=False)
        et = g["event_type"].to_numpy(zero_copy_only=False)
        starts = np.concatenate(([0], np.flatnonzero(u[1:] != u[:-1]) + 1))
        run_of = np.repeat(np.arange(len(starts)),
                           np.diff(np.append(starts, n)))
        INF = n  # sentinel: "no such position"
        pos = np.arange(n, dtype=np.int64)
        fv = np.minimum.reduceat(np.where(et == "view", pos, INF), starts)
        fc = np.minimum.reduceat(
            np.where((et == "click") & (pos > fv[run_of]), pos, INF),
            starts)
        fp = np.minimum.reduceat(
            np.where((et == "purchase") & (pos > fc[run_of]), pos, INF),
            starts)
        has_view = fv < INF
        steps = (1 + (fc < INF).astype(np.int64)
                 + (fp < INF).astype(np.int64))[has_view]
        return pa.table({
            "user_id": pa.array(u[starts[has_view]], pa.int64()),
            "steps": pa.array(steps, pa.int64())})

    return coarse_groups(
        table(sf_dir, "events",
              columns=["user_id", "ts", "event_id", "event_type"])
        .map_batches(lambda t: t.filter(pc.is_in(t["event_type"], kinds)),
                     batch_format="pyarrow"),
        ["user_id"], funnel_partition, ["ts", "event_id"])


# ===================================== differentially private counts


ORACLE_DP_COUNTS = """
WITH c AS (SELECT event_type, CAST(count(*) AS BIGINT) AS n
           FROM events GROUP BY event_type),
u AS (SELECT event_type, n,
             CAST(('0x' || substring(md5(event_type), 1, 15)) AS UBIGINT)
               / 1152921504606846976.0 AS uu
      FROM c)
SELECT event_type, n,
       round(n + CASE WHEN uu = 0.5 THEN 0.0
                      ELSE -sign(uu - 0.5) * ln(1 - 2 * abs(uu - 0.5))
                 END, 6) AS noisy_n
FROM u
"""


@query("dp_event_counts", oracle=ORACLE_DP_COUNTS)
def q_dp_event_counts(sf_dir: str, epsilon: float = 1.0):
    """Per-event-type counts with Laplace(1/epsilon) noise — the DP
    release shape — made oracle-checkable by drawing the noise from a
    SEEDED uniform (top 60 bits of md5(key), inverse-CDF transform)
    reproduced verbatim in the SQL. A real deployment swaps the seeded
    uniform for a secure RNG; everything else (sensitivity-1 count,
    inverse-CDF Laplace) is the mechanism as published."""

    agg = combine_aggregate(
        table(sf_dir, "events",
              columns=["event_type"]),
        "event_type", [("n", "event_type", "count")])

    b = 1.0 / epsilon

    def noisy(t: pa.Table) -> pa.Table:
        # bounded-domain final table (one row per event type): the
        # per-row md5 here is metadata-sized work
        out = []
        for et in t["event_type"].to_pylist():
            u = int(hashlib.md5(et.encode()).hexdigest()[:15], 16) / 2.0**60
            up = u - 0.5
            out.append(0.0 if up == 0 else
                       -b * math.copysign(1.0, up) * math.log(1 - 2 * abs(up)))
        noise = pa.array(out, pa.float64())
        noisy_n = pc.round(pc.add(pc.cast(t["n"], pa.float64()), noise),
                           ndigits=6)
        return pa.table({"event_type": t["event_type"], "n": t["n"],
                         "noisy_n": noisy_n})

    return agg.map_batches(noisy, batch_format="pyarrow")


# ===================================== rolling p90 (ROWS frame quantile)


ORACLE_ROLLING_P90 = """
SELECT event_id, user_id,
       round(CAST(quantile_cont(value, 0.9) OVER (
           PARTITION BY user_id ORDER BY ts, event_id
           ROWS BETWEEN 4 PRECEDING AND CURRENT ROW) AS DOUBLE), 6) AS p90
FROM events
"""


@query("rolling_p90_value", oracle=ORACLE_ROLLING_P90)
def q_rolling_p90_value(sf_dir: str, frame: int = 5, q: float = 0.9):
    """Per event: the q-quantile of the trailing ``frame`` values within
    the user's (ts, event_id) order — the frame-holding window aggregate
    (unlike moving_avg, a quantile can't be cumsum-decomposed; the frame
    itself must be materialized). One coarse exchange on user; inside
    each partition every row's frame comes from a single (n x frame)
    sliding-window view with run boundaries masked to NaN — no per-user
    task, no per-row loop. Frame memory is n x frame per partition,
    bounded by the partition size, independent of key skew."""

    def roll_partition(g: pa.Table) -> pa.Table:
        n = g.num_rows
        u = g["user_id"].to_numpy(zero_copy_only=False)
        v = g["value"].to_numpy(zero_copy_only=False).astype(np.float64)
        starts = np.concatenate(([0], np.flatnonzero(u[1:] != u[:-1]) + 1))
        run_of = np.repeat(np.arange(len(starts)),
                           np.diff(np.append(starts, n)))
        pos_in_run = np.arange(n) - starts[run_of]
        # W[i] = v[i-frame+1 .. i] (NaN-padded before the array start)
        W = np.lib.stride_tricks.sliding_window_view(
            np.concatenate([np.full(frame - 1, np.nan), v]), frame).copy()
        k = np.minimum(pos_in_run + 1, frame)          # valid frame sizes
        cols = np.arange(frame)
        W[cols[None, :] < (frame - k)[:, None]] = np.nan  # mask run crossings
        W.sort(axis=1)                                  # NaNs sort last
        # linear interpolation at rank q*(k-1), vectorized over rows
        pos = q * (k - 1)
        lo = np.floor(pos).astype(np.int64)
        hi = np.ceil(pos).astype(np.int64)
        rows = np.arange(n)
        frac = pos - lo
        p90 = W[rows, lo] * (1 - frac) + W[rows, hi] * frac
        return pa.table({
            "event_id": g["event_id"],
            "user_id": g["user_id"],
            "p90": pc.round(pa.array(p90, pa.float64()), ndigits=6,
                            round_mode="half_towards_infinity")})

    return coarse_groups(
        table(sf_dir, "events",
              columns=["event_id", "user_id", "ts", "value"]),
        ["user_id"], roll_partition, ["ts", "event_id"])


# ===================================== deterministic Poisson bootstrap

# P(Poisson(1) <= k) for k = 0..5; weights above 5 clamp to 6. The SAME
# literal thresholds appear in the SQL so both sides walk one ladder.
_POIS_CDF = (0.36787944117144233, 0.7357588823428847, 0.9196986029286058,
             0.9810118431238462, 0.9963401531726563, 0.9994058151824183)


ORACLE_BOOTSTRAP = """
WITH r AS (SELECT unnest(range(4)) AS replicate),
w AS (
  SELECT r.replicate, e.value,
         CAST(('0x' || substring(md5(e.event_id || '-' || r.replicate),
                                 1, 15)) AS UBIGINT)
           / 1152921504606846976.0 AS u
  FROM events e CROSS JOIN r
),
k AS (
  SELECT replicate, value,
         CASE WHEN u < 0.36787944117144233 THEN 0
              WHEN u < 0.7357588823428847 THEN 1
              WHEN u < 0.9196986029286058 THEN 2
              WHEN u < 0.9810118431238462 THEN 3
              WHEN u < 0.9963401531726563 THEN 4
              WHEN u < 0.9994058151824183 THEN 5
              ELSE 6 END AS wgt
  FROM w
)
SELECT replicate, CAST(sum(wgt) AS BIGINT) AS n_resampled,
       round(sum(wgt * value) / sum(wgt), 6) AS boot_mean
FROM k GROUP BY replicate
"""


@query("bootstrap_means", oracle=ORACLE_BOOTSTRAP)
def q_bootstrap_means(sf_dir: str, replicates: int = 4):
    """Poisson(1) bootstrap of the mean event value, per replicate —
    the resampling-without-reshuffling pattern: each row's weight in
    replicate r is a PURE FUNCTION of (event_id, r) (md5-seeded uniform
    through the Poisson CDF ladder), so replicas need no data movement,
    survive retries at any parallelism, and the whole bootstrap is one
    weighted-sum combiner per replicate. The md5-per-(row, replicate)
    is the repo's standard SQL-mirrorable seed (kg_negative_samples,
    doc_split_counts); swap for a vectorized hash when SQL parity isn't
    needed."""
    from ray.data.aggregate import Sum

    cdf = np.array(_POIS_CDF)

    def partial(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_pylist()
        val = t["value"].to_numpy(zero_copy_only=False)
        out_sw, out_swv = [], []
        for r in range(replicates):
            u = np.array([int(hashlib.md5(f"{e}-{r}".encode())
                              .hexdigest()[:15], 16) / 2.0**60
                          for e in eid])
            w = np.searchsorted(cdf, u, side="right")  # Poisson(1) draw
            out_sw.append(w.sum())
            out_swv.append((w * val).sum())
        return pa.table({
            "replicate": pa.array(np.arange(replicates), pa.int64()),
            "pw": pa.array([float(x) for x in out_sw], pa.float64()),
            "pwv": pa.array(out_swv, pa.float64()),
        })

    agg = (table(sf_dir, "events",
                 columns=["event_id", "value"])
           .map_batches(partial, batch_format="pyarrow")
           .groupby("replicate")
           .aggregate(Sum("pw", alias_name="w"),
                      Sum("pwv", alias_name="wv")))

    def finish(t: pa.Table) -> pa.Table:
        mean = pc.round(pc.divide(t["wv"], t["w"]), ndigits=6,
                        round_mode="half_towards_infinity")
        return pa.table({"replicate": t["replicate"],
                         "n_resampled": pc.cast(t["w"], pa.int64()),
                         "boot_mean": mean})

    return agg.map_batches(finish, batch_format="pyarrow")


# ===================================== length-3 sequential pattern mining


ORACLE_SEQ3_PATTERNS = """
WITH w AS (
  SELECT event_type AS t1,
         LEAD(event_type, 1) OVER win AS t2,
         LEAD(event_type, 2) OVER win AS t3
  FROM events
  WINDOW win AS (PARTITION BY user_id ORDER BY ts, event_id)
)
SELECT t1, t2, t3, CAST(COUNT(*) AS BIGINT) AS n
FROM w WHERE t2 IS NOT NULL AND t3 IS NOT NULL
GROUP BY t1, t2, t3
"""


@query("seq3_patterns", oracle=ORACLE_SEQ3_PATTERNS)
def q_seq3_patterns(sf_dir: str, bucket_s: int = 86400):
    """Contiguous length-3 event-type sequences per user (sequential
    pattern mining's fixed-length core; generalizes event_transitions'
    bigrams): counts of (a, b, c) over each user's (ts, event_id)-sorted
    stream.

    Skew-safe two-stage under the SEGMENTED tiny-group rule (the
    asof/sessionize lesson: never one task per (user, bucket)): stage 1
    is a coarse exchange on (user, day-bucket) whose segment arithmetic
    counts every within-bucket triple and emits ONE boundary row per
    segment whose payload is the bucket's first two + last two event
    types (count<=4 buckets carry everything — reconstructible from
    first2+last2; bigger buckets insert a gap sentinel). Stage 2 is a
    coarse exchange of the boundary rows on user that rebuilds each
    user's reduced stream in bucket order, counting ONLY windows that
    span a bucket change — every triple of the true stream is counted
    exactly once. No task ever holds more than one coarse partition's
    rows, and group dispatch never scales with user count."""
    from odinson_ray.stages.window import _with_bucket

    GAP = "\x00"
    SEP = "\x1f"

    def seg_partials(g: pa.Table) -> pa.Table:
        u = g["user_id"].to_numpy(zero_copy_only=False)
        b = g["_bucket"].to_numpy(zero_copy_only=False)
        t = np.asarray(g["event_type"].to_pylist(), dtype=object)
        n = len(t)
        change = np.concatenate(
            [[True], (u[1:] != u[:-1]) | (b[1:] != b[:-1])])
        seg = np.cumsum(change) - 1
        starts = np.flatnonzero(change)
        lens = np.diff(np.append(starts, n))

        cols = {"_kind": [], "user_id": [], "_bucket": [],
                "_a": [], "_b": [], "_c": [], "_n": []}
        if n >= 3:
            ok = seg[:-2] == seg[2:]  # window stays inside one segment
            if ok.any():
                trip = pa.table({
                    "_a": pa.array(t[:-2][ok].tolist(), pa.string()),
                    "_b": pa.array(t[1:-1][ok].tolist(), pa.string()),
                    "_c": pa.array(t[2:][ok].tolist(), pa.string()),
                })
                agg = partial_aggregate(trip, ["_a", "_b", "_c"],
                                        [("_n", None, "count_all")])
                m = agg.num_rows
                cols["_kind"].extend([0] * m)
                cols["user_id"].extend([0] * m)
                cols["_bucket"].extend([0] * m)
                cols["_a"].extend(agg["_a"].to_pylist())
                cols["_b"].extend(agg["_b"].to_pylist())
                cols["_c"].extend(agg["_c"].to_pylist())
                cols["_n"].extend(int(x) for x in agg["_n"].to_pylist())
        for st, ln in zip(starts, lens):  # one boundary row per segment
            sl = t[st:st + ln]
            payload = (SEP.join(sl.tolist()) if ln <= 4 else
                       SEP.join([sl[0], sl[1], GAP, sl[-2], sl[-1]]))
            cols["_kind"].append(1)
            cols["user_id"].append(int(u[st]))
            cols["_bucket"].append(int(b[st]))
            cols["_a"].append(payload)
            cols["_b"].append("")
            cols["_c"].append("")
            cols["_n"].append(0)
        return pa.table({
            "_kind": pa.array(cols["_kind"], pa.int8()),
            "user_id": pa.array(cols["user_id"], pa.int64()),
            "_bucket": pa.array(cols["_bucket"], pa.int64()),
            "_a": pa.array(cols["_a"], pa.string()),
            "_b": pa.array(cols["_b"], pa.string()),
            "_c": pa.array(cols["_c"], pa.string()),
            "_n": pa.array(cols["_n"], pa.int64()),
        })

    stage1 = coarse_groups(
        table(sf_dir, "events",
              columns=["event_id", "ts", "user_id", "event_type"])
        .map_batches(lambda t: _with_bucket(t, "ts", bucket_s),
                     batch_format="pyarrow"),
        ["user_id", "_bucket"], seg_partials, ["ts", "event_id"]
    ).materialize()

    within = stage1.map_batches(
        lambda t: t.filter(pc.equal(t["_kind"], 0))
        .select(["_a", "_b", "_c", "_n"]),
        batch_format="pyarrow")

    def seg_merge(g: pa.Table) -> pa.Table:
        u = g["user_id"].to_numpy(zero_copy_only=False)
        payloads = np.asarray(g["_a"].to_pylist(), dtype=object)
        a_l, b_l, c_l = [], [], []
        i = 0
        while i < len(u):
            j = i
            while j < len(u) and u[j] == u[i]:
                j += 1
            stream, buckets = [], []
            for bi in range(i, j):
                for ev in payloads[bi].split(SEP):
                    stream.append(ev)
                    buckets.append(bi)
            for k in range(len(stream) - 2):
                w = stream[k:k + 3]
                if GAP in w:
                    continue
                if buckets[k] != buckets[k + 2]:  # spans a bucket change
                    a_l.append(w[0]); b_l.append(w[1]); c_l.append(w[2])
            i = j
        if not a_l:
            return pa.table({"_a": pa.array([], pa.string()),
                             "_b": pa.array([], pa.string()),
                             "_c": pa.array([], pa.string()),
                             "_n": pa.array([], pa.int64())})
        trip = pa.table({"_a": pa.array(a_l, pa.string()),
                         "_b": pa.array(b_l, pa.string()),
                         "_c": pa.array(c_l, pa.string())})
        return partial_aggregate(trip, ["_a", "_b", "_c"],
                                 [("_n", None, "count_all")])

    across = coarse_groups(
        stage1.map_batches(lambda t: t.filter(pc.equal(t["_kind"], 1)),
                           batch_format="pyarrow"),
        ["user_id"], seg_merge, ["_bucket"])

    return (combine_aggregate(within.union(across), ["_a", "_b", "_c"],
                              [("n", "_n", "sum")])
            .map_batches(lambda t: pa.table({
                "t1": t["_a"], "t2": t["_b"], "t3": t["_c"], "n": t["n"]}),
                batch_format="pyarrow"))


# ===================================== CUME_DIST window function


ORACLE_VALUE_CUME_DIST = """
SELECT event_id, event_type, value,
       round(cume_dist() OVER (PARTITION BY event_type ORDER BY value),
             6) AS cd
FROM events
"""


@query("value_cume_dist", oracle=ORACLE_VALUE_CUME_DIST)
def q_value_cume_dist(sf_dir: str):
    """CUME_DIST() OVER (PARTITION BY event_type ORDER BY value) for
    every event: the value_percent_rank machinery with the inclusive
    numerator, (#smaller + #equal) / n per (type, value)."""
    return _value_rank(sf_dir, "cd",
                       lambda smaller, equal, n: (smaller + equal) / n)


# ===================================== calendar gap detection (backfill)


ORACLE_MISSING_DAYS = """
WITH d AS (
  SELECT DISTINCT event_type,
         CAST(date_trunc('day', ts) AS TIMESTAMP) AS day
  FROM events
),
lim AS (SELECT MIN(day) AS lo, MAX(day) AS hi FROM d),
grid AS (
  SELECT t.event_type, g.day
  FROM (SELECT DISTINCT event_type FROM events) t,
       (SELECT unnest(generate_series(lim.lo, lim.hi, INTERVAL 1 DAY))
          AS day FROM lim) g
)
SELECT g.event_type, g.day AS missing_day
FROM grid g ANTI JOIN d ON d.event_type = g.event_type AND d.day = g.day
ORDER BY g.event_type, missing_day
"""


@query("missing_days", oracle=ORACLE_MISSING_DAYS)
def q_missing_days(sf_dir: str):
    """Backfill planner: (event_type, day) cells inside the corpus'
    [min day, max day] span with ZERO events — the calendar anti-join
    every ingestion pipeline runs before a backfill. The observed cell
    set is a combiner groupby (bounded by types x active days, never
    event count); the expected grid is types x span days — CALENDAR-
    bounded (decades are ~10^4 rows), built once and anti-joined
    distributed against the observed cells."""
    import ray.data as rdn

    day_us = 86_400 * 1_000_000

    def day_cells(t: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(t["ts"], pa.timestamp("us")), pa.int64())
        day = pc.multiply(pc.floor(pc.divide(us, day_us)), day_us)
        return pa.table({"event_type": t["event_type"],
                         "day": pc.cast(day, pa.int64())})

    observed = combine_aggregate(
        table(sf_dir, "events",
              columns=["ts", "event_type"])
        .map_batches(day_cells, batch_format="pyarrow"),
        ["event_type", "day"], []).materialize()

    lo = observed.min("day")
    hi = observed.max("day")
    types = sorted(set(
        x for b in observed.iter_batches(batch_format="pyarrow")
        for x in b["event_type"].to_pylist()))
    days = np.arange(lo, hi + day_us, day_us, dtype=np.int64)
    grid = pa.table({
        "event_type": pa.array(np.repeat(types, len(days)).tolist(),
                               pa.string()),
        "day": pa.array(np.tile(days, len(types)), pa.int64()),
    })

    def pack(t: pa.Table) -> pa.Table:
        k = pc.binary_join_element_wise(
            t["event_type"], pc.cast(t["day"], pa.string()), "|")
        return t.append_column("_k", k)

    missing = hash_join(
        rdn.from_arrow(grid).map_batches(pack, batch_format="pyarrow"),
        observed.map_batches(lambda t: pack(t).select(["_k"]),
                             batch_format="pyarrow"),
        on="_k", how="anti")

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": t["event_type"],
            "missing_day": pc.cast(t["day"], pa.timestamp("us")),
        })

    missing = missing.map_batches(finish, batch_format="pyarrow"
                                  ).materialize()
    if missing.count() == 0:
        # a fully-covered calendar is the healthy case; an empty Ray
        # Dataset loses its schema even through from_arrow, so return
        # the schema-pinned Arrow table directly (a legal result type)
        return pa.table({
            "event_type": pa.array([], pa.string()),
            "missing_day": pa.array([], pa.timestamp("us"))})
    return missing.sort(["event_type", "missing_day"])


# ===================================== A/B experiment metrics


ORACLE_AB_TEST_METRICS = """
WITH v AS (
  SELECT event_type,
         CAST(('0x' || substr(md5(CAST(user_id AS VARCHAR)), 1, 8))
              AS UBIGINT) % 2 AS variant,
         CAST(FLOOR(value * 100) AS BIGINT) AS cents
  FROM events
),
agg AS (
  SELECT event_type, variant,
         CAST(COUNT(*) AS BIGINT) AS n,
         CAST(SUM(cents) AS BIGINT) AS s,
         CAST(SUM(cents * cents) AS BIGINT) AS ss
  FROM v GROUP BY event_type, variant
),
w AS (
  SELECT a.event_type,
         a.n AS n_a, b.n AS n_b,
         a.s / (a.n * 1.0) AS m0, b.s / (b.n * 1.0) AS m1,
         (a.ss - a.s * 1.0 * a.s / a.n) / (a.n - 1.0) AS v0,
         (b.ss - b.s * 1.0 * b.s / b.n) / (b.n - 1.0) AS v1
  FROM agg a JOIN agg b ON a.event_type = b.event_type
  WHERE a.variant = 0 AND b.variant = 1
)
SELECT event_type, n_a, n_b,
       round(m0 / 100.0, 6) AS mean_a,
       round(m1 / 100.0, 6) AS mean_b,
       round((m0 - m1) / sqrt(v0 / n_a + v1 / n_b), 6) AS t_stat
FROM w ORDER BY event_type
"""


@query("ab_test_metrics", oracle=ORACLE_AB_TEST_METRICS)
def q_ab_test_metrics(sf_dir: str):
    """Experiment readout: users are assigned to variant A/B by a pure
    hash of user_id (parallelism/retry-invariant, the domain_mix
    discipline), and per event_type the two variants' value means and
    the Welch t-statistic are computed from INTEGER sufficient
    statistics (values quantized to cents; n, sum, sum-of-squares are
    int64 sums — order-independent), so the final floats are the same
    IEEE expressions the oracle evaluates on the same integers.

    One pass, one map-side combiner, one (event_type)-sized groupby —
    the classic six-sufficient-stats shape (corr/regress family)."""

    def partial(t: pa.Table) -> pa.Table:
        import hashlib

        u = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        # md5 of the decimal string: process-stable, seedless, and the
        # exact expression the oracle evaluates (repo md5 idiom)
        variant = np.array(
            [int(hashlib.md5(str(x).encode()).hexdigest()[:8], 16) & 1
             for x in u], dtype=np.int64)
        cents = np.floor(
            t["value"].to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        return pa.table({
            "event_type": t["event_type"],
            "variant": pa.array(variant, pa.int64()),
            "n": pa.array(np.ones(len(u), np.int64)),
            "s": pa.array(cents, pa.int64()),
            "ss": pa.array(cents * cents, pa.int64()),
        })

    agg = combine_aggregate(
        table(sf_dir, "events",
              columns=["user_id", "event_type", "value"])
        .map_batches(partial, batch_format="pyarrow"),
        ["event_type", "variant"],
        [("n", "n", "sum"), ("s", "s", "sum"), ("ss", "ss", "sum")])

    def welch(t: pa.Table) -> pa.Table:
        import pandas as pd

        df = t.to_pandas()
        out = []
        for et, g in df.groupby("event_type", sort=True):
            g = g.set_index("variant")
            if 0 not in g.index or 1 not in g.index:
                continue
            n0, s0, ss0 = (float(g.loc[0, c]) for c in ("n", "s", "ss"))
            n1, s1, ss1 = (float(g.loc[1, c]) for c in ("n", "s", "ss"))
            m0, m1 = s0 / n0, s1 / n1
            v0 = (ss0 - s0 * s0 / n0) / (n0 - 1.0)
            v1 = (ss1 - s1 * s1 / n1) / (n1 - 1.0)
            tstat = (m0 - m1) / (v0 / n0 + v1 / n1) ** 0.5
            out.append((et, int(n0), int(n1), round(m0 / 100.0, 6),
                        round(m1 / 100.0, 6), round(tstat, 6)))
        return pa.table({
            "event_type": pa.array([r[0] for r in out], pa.string()),
            "n_a": pa.array([r[1] for r in out], pa.int64()),
            "n_b": pa.array([r[2] for r in out], pa.int64()),
            "mean_a": pa.array([r[3] for r in out], pa.float64()),
            "mean_b": pa.array([r[4] for r in out], pa.float64()),
            "t_stat": pa.array([r[5] for r in out], pa.float64()),
        })

    return (agg.repartition(1)
            .map_batches(welch, batch_format="pyarrow").sort("event_type"))


# ============================ per-user KL divergence from the global mix


ORACLE_USER_TYPE_KL = """
WITH u AS (
  SELECT user_id, event_type, CAST(COUNT(*) AS BIGINT) AS c
  FROM events GROUP BY user_id, event_type
),
g AS (SELECT event_type, CAST(SUM(c) AS BIGINT) AS gc FROM u
      GROUP BY event_type),
nt AS (SELECT CAST(SUM(gc) AS BIGINT) AS n FROM g),
un AS (SELECT user_id, CAST(SUM(c) AS BIGINT) AS n FROM u
       GROUP BY user_id),
terms AS (
  SELECT u.user_id,
         CAST(FLOOR(ln((u.c * nt.n) * 1.0 / (un.n * g.gc))
                    * u.c * 1000000.0 / un.n) AS BIGINT) AS tm
  FROM u
  JOIN un ON un.user_id = u.user_id
  JOIN g ON g.event_type = u.event_type
  CROSS JOIN nt
)
SELECT user_id, CAST(SUM(tm) AS BIGINT) AS kl_micro
FROM terms GROUP BY user_id ORDER BY user_id
"""


@query("user_type_kl", oracle=ORACLE_USER_TYPE_KL)
def q_user_type_kl(sf_dir: str):
    """Per-user KL divergence of the user's event-type distribution
    from the GLOBAL type distribution — the behavioral-divergence
    score a domain-mixing / anomaly triage step ranks users by (the
    Q22 scalar-subquery slot was dropped: the testdata gives every
    customer at least one order, and ``idle_rich_customers`` already
    covers that plan class).

    Each (user, type) term c/n * ln((c*N)/(n*g)) is quantized to int64
    MICRO-units with ``math.log`` (libm — the same function DuckDB's
    ``ln()`` calls; numpy's SIMD log can differ by 1 ulp, the
    nb_lang_confusion precedent), making every user's score an
    order-independent integer sum and the oracle hash-exact.

    Shape: global type counts are a bounded-domain combiner groupby
    pulled as a driver broadcast (|event types| rows); per-(user, type)
    counts are one combiner groupby; the per-user roll-up follows the
    tiny-group rule — one coarse exchange on user, segmented
    ``np.add.reduceat`` — never a per-user map_groups."""
    import math

    ev = table(sf_dir, "events",
               columns=["user_id", "event_type"])

    ut = combine_aggregate(ev, ["user_id", "event_type"],
                           [("c", None, "count_all")]).materialize()

    # global type counts: bounded domain — safe to pull to the driver
    g_rows = combine_aggregate(ut, "event_type", [("g", "c", "sum")]).take_all()
    types = sorted(r["event_type"] for r in g_rows)
    g_by_type = {r["event_type"]: r["g"] for r in g_rows}
    g_arr = np.array([g_by_type[t] for t in types], dtype=np.int64)
    n_total = int(g_arr.sum())

    def kl_partition(grp: pa.Table) -> pa.Table:
        u = grp["user_id"].to_numpy(zero_copy_only=False)
        c = grp["c"].to_numpy(zero_copy_only=False)
        ti = np.searchsorted(types, np.asarray(
            grp["event_type"].to_pylist(), dtype=object))
        new = np.ones(len(u), dtype=bool)
        new[1:] = u[1:] != u[:-1]
        first = np.flatnonzero(new)
        n_user = np.add.reduceat(c, first)  # per-user event total
        n_rep = np.repeat(n_user, np.diff(np.append(first, len(u))))
        g = g_arr[ti]
        # FLOOR(ln((c*N)/(n*g)) * c * 1e6 / n): math.log per term is the
        # oracle-exactness trade (see docstring); everything else numpy
        ratio = (c * n_total).astype(np.float64) / (n_rep * g).astype(
            np.float64)
        logs = np.fromiter((math.log(x) for x in ratio),
                           dtype=np.float64, count=len(ratio))
        term = np.floor(logs * c * 1_000_000.0 / n_rep).astype(np.int64)
        kl = np.add.reduceat(term, first)
        return pa.table({
            "user_id": pa.array(u[first], pa.int64()),
            "kl_micro": pa.array(kl, pa.int64()),
        })

    return coarse_groups(ut, ["user_id"], kl_partition).sort("user_id")


# ===================================== interval-union coverage


ORACLE_USER_COVERAGE = """
WITH iv AS (
  SELECT user_id, epoch_us(ts) AS s, epoch_us(ts) + 300000000 AS e
  FROM events
),
w AS (
  SELECT user_id, s, e,
         MAX(e) OVER (PARTITION BY user_id ORDER BY s, e
                      ROWS BETWEEN UNBOUNDED PRECEDING
                      AND 1 PRECEDING) AS pm
  FROM iv
)
SELECT user_id,
       CAST(SUM(CASE WHEN pm IS NULL OR pm < s THEN e - s
                     WHEN pm < e THEN e - pm
                     ELSE 0 END) AS BIGINT) AS covered_us
FROM w GROUP BY user_id ORDER BY user_id
"""


@query("user_coverage", oracle=ORACLE_USER_COVERAGE)
def q_user_coverage(sf_dir: str, width_s: int = 300):
    """Per-user total covered microseconds of the union of
    ``[ts, ts + 300 s)`` event intervals (overlaps counted once) — see
    ``stages/window.interval_coverage`` for the clipped-bucket sweep.
    All arithmetic is integer microseconds, so the oracle's
    window-function formulation is hash-exact."""
    from odinson_ray.stages.window import interval_coverage

    return interval_coverage(
        table(sf_dir, "events",
              columns=["user_id", "ts"]),
        key="user_id", ts="ts", width_s=width_s,
    ).sort("user_id")


_ATTR_LOOKBACK_US = 86_400_000_000  # 24 h in timestamp[us] units


_ATTR_CONV_TYPE = "purchase"


ORACLE_ATTRIBUTION = """
WITH e AS (SELECT event_id, user_id, ts, event_type FROM events),
conv AS (SELECT * FROM e WHERE event_type = 'purchase'),
cand AS (
  SELECT c.event_id, c.user_id, f.event_id AS f_id, f.ts AS f_ts,
         f.event_type AS f_type
  FROM conv c JOIN e f ON f.user_id = c.user_id
   AND f.ts <= c.ts AND f.ts >= c.ts - INTERVAL 24 HOURS
),
best AS (
  SELECT event_id, user_id, f_id, f_type,
         row_number() OVER (PARTITION BY event_id
                            ORDER BY f_ts, f_id) AS rn
  FROM cand
)
SELECT event_id, user_id, f_id AS first_event_id, f_type AS first_type
FROM best WHERE rn = 1
"""


@query("attribution_first_touch", oracle=ORACLE_ATTRIBUTION)
def q_attribution_first_touch(sf_dir: str):
    """First-touch attribution: each purchase event attributes to the
    EARLIEST same-user event (ties: smallest event_id) with
    ts in [purchase_ts - 24 h, purchase_ts]. An isolated purchase
    attributes to itself (it is inside its own window).

    Shape: the (key, bucket) two-stage discipline (stages/window.py):
    bucket = floor(ts / lookback); every event is replicated to
    (b, b + 1), so a conversion in bucket c sees every candidate of its
    window inside ONE (user, c) group; conversions are processed only
    in their OWN bucket's group (the replica copy never re-emits).
    One coarse exchange on user; per partition one np.searchsorted per
    conversion run. Group size is bounded by events-per-user-per-2-
    lookbacks, independent of corpus length."""

    ds = table(sf_dir, "events",
               columns=["event_id", "user_id", "ts", "event_type"])

    def replicate(t: pa.Table) -> pa.Table:
        # normalize to us first: int64-casting a timestamp keeps the
        # SOURCE unit, and ns-unit inputs would shrink the window 1000x
        ts = t["ts"].cast(pa.timestamp("us")).cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        b = ts // _ATTR_LOOKBACK_US
        idx = np.repeat(np.arange(len(ts)), 2)
        grp = np.empty(2 * len(ts), dtype=np.int64)
        grp[0::2] = b
        grp[1::2] = b + 1
        out = t.take(pa.array(idx))
        out = out.append_column("_grp", pa.array(grp, pa.int64()))
        return out.append_column("_own", pa.array(np.repeat(b, 2) == grp,
                                                  pa.bool_()))

    def resolve_partition(g: pa.Table) -> pa.Table:
        empty = pa.table({
            "event_id": pa.array([], pa.int64()),
            "user_id": pa.array([], pa.int64()),
            "first_event_id": pa.array([], pa.int64()),
            "first_type": pa.array([], pa.string()),
        })
        u = g["user_id"].to_numpy(zero_copy_only=False)
        grp = g["_grp"].to_numpy(zero_copy_only=False)
        ts = g["ts"].cast(pa.timestamp("us")).cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        eid = g["event_id"].to_numpy(zero_copy_only=False)
        own = g["_own"].to_numpy(zero_copy_only=False)
        typ = np.asarray(g["event_type"].to_pylist(), dtype=object)
        n = len(u)
        newseg = np.ones(n, dtype=bool)
        newseg[1:] = (u[1:] != u[:-1]) | (grp[1:] != grp[:-1])
        starts = np.flatnonzero(newseg)
        bounds = np.append(starts, n)
        out_e, out_u, out_f, out_t = [], [], [], []
        for s_, e_ in zip(bounds[:-1], bounds[1:]):
            seg_ts = ts[s_:e_]
            conv = np.flatnonzero((typ[s_:e_] == _ATTR_CONV_TYPE) & own[s_:e_])
            if len(conv) == 0:
                continue
            lo = np.searchsorted(seg_ts, seg_ts[conv] - _ATTR_LOOKBACK_US,
                                 side="left")
            out_e.append(eid[s_:e_][conv])
            out_u.append(u[s_:e_][conv])
            out_f.append(eid[s_:e_][lo])
            out_t.append(typ[s_:e_][lo])
        if not out_e:
            return empty
        return pa.table({
            "event_id": pa.array(np.concatenate(out_e), pa.int64()),
            "user_id": pa.array(np.concatenate(out_u), pa.int64()),
            "first_event_id": pa.array(np.concatenate(out_f), pa.int64()),
            "first_type": pa.array(np.concatenate(out_t).tolist(), pa.string()),
        })

    return coarse_groups(ds.map_batches(replicate, batch_format="pyarrow"),
                         ["user_id"], resolve_partition,
                         ["_grp", "ts", "event_id"])
