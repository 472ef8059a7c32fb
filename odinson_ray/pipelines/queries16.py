"""Round-4 session-7 batch: the last expressible TPC-H classes the
inventory lacked (Q19 disjunctive bracket predicates, Q4
EXISTS-per-order priority counts — Q9/Q11/Q16/Q20 need the partsupp
table the testdata does not ship; the Q22 scalar-subquery class is
already ``idle_rich_customers``), an interval-union coverage operator
(``stages/window.interval_coverage``, the classic
union-of-intervals-length primitive), and per-user KL divergence from
the global event-type mix.

Registered by ``pipelines/queries.py``; each ``q_*`` takes ``sf_dir``;
oracle column names match exactly. Money comparisons are quantized to
int64 cents with the SAME double expression FLOOR(x * 100) on both
sides, and KL terms to int64 micro-units via libm ``math.log``, so
every sum is order-independent and hash-exact.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from odinson_ray.stages.shuffle import (
    broadcast_or_join, coarse_groups, combine_aggregate, hash_join,
    partial_aggregate)

_DAY_US = 86_400 * 1_000_000


def _rd():
    from ..sources.io import clean_rd

    return clean_rd


# ===================================== TPC-H Q19 class: bracket revenue

#: (brand, size_lo, size_hi, qty_lo, qty_hi) — three disjunctive
#: brackets over the testdata's Brand#N / size 1-50 / qty 1-50 domains
_BRACKETS = (
    ("Brand#4", 1, 15, 1, 20),
    ("Brand#19", 10, 30, 10, 30),
    ("Brand#2", 20, 50, 20, 40),
)


def q_bracket_revenue(sf_dir: str):
    """TPC-H Q19 class: revenue over lineitem x part restricted by a
    DISJUNCTION of (brand, size-range, quantity-range) brackets.

    Shape: the part side is filtered to the union of bracket brands AT
    THE READ (three columns, dimension-sized) and attached through
    ``broadcast_or_join`` — broadcast at bench scale, distributed
    hash join past the broadcast size; the bracket disjunction is one vectorized
    boolean expression per batch; a per-batch (n, cents) combiner means
    the driver sees one row per block, never lineitems."""
    rd = _rd()
    brands = sorted({b[0] for b in _BRACKETS})

    part = rd.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand", "p_size"]
    ).map_batches(
        lambda t: t.filter(pc.is_in(t["p_brand"],
                                    value_set=pa.array(brands))),
        batch_format="pyarrow",
    )
    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_quantity", "l_extendedprice", "l_discount"],
    )
    joined = broadcast_or_join(
        li, part, on="l_partkey", right_on="p_partkey",
        left_schema=pa.schema([
            ("l_partkey", pa.int64()), ("l_quantity", pa.float64()),
            ("l_extendedprice", pa.float64()), ("l_discount", pa.float64()),
        ]),
        right_schema=pa.schema([
            ("p_partkey", pa.int64()), ("p_brand", pa.string()),
            ("p_size", pa.int64()),
        ]))

    def partial(t: pa.Table) -> pa.Table:
        brand = np.asarray(t["p_brand"].to_pylist(), dtype=object)
        size = t["p_size"].to_numpy(zero_copy_only=False)
        qty = t["l_quantity"].to_numpy(zero_copy_only=False)
        keep = np.zeros(t.num_rows, dtype=bool)
        for b, slo, shi, qlo, qhi in _BRACKETS:
            keep |= ((brand == b) & (size >= slo) & (size <= shi)
                     & (qty >= qlo) & (qty <= qhi))
        ext = t["l_extendedprice"].to_numpy(zero_copy_only=False)[keep]
        disc = t["l_discount"].to_numpy(zero_copy_only=False)[keep]
        cents = np.floor(ext * (1 - disc) * 100.0).astype(np.int64)
        return pa.table({"n": pa.array([int(keep.sum())], pa.int64()),
                         "c": pa.array([int(cents.sum())], pa.int64())})

    rows = joined.map_batches(partial, batch_format="pyarrow").take_all()
    n = sum(r["n"] for r in rows)
    c = sum(r["c"] for r in rows)
    return pa.table({"n_lines": pa.array([n], pa.int64()),
                     "revenue_cents": pa.array([c], pa.int64())})


ORACLE_BRACKET_REVENUE = """
SELECT CAST(COUNT(*) AS BIGINT) AS n_lines,
       CAST(COALESCE(SUM(CAST(FLOOR(l_extendedprice * (1 - l_discount)
                                    * 100) AS BIGINT)), 0) AS BIGINT)
         AS revenue_cents
FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
WHERE (p.p_brand = 'Brand#4' AND p.p_size BETWEEN 1 AND 15
       AND l.l_quantity BETWEEN 1 AND 20)
   OR (p.p_brand = 'Brand#19' AND p.p_size BETWEEN 10 AND 30
       AND l.l_quantity BETWEEN 10 AND 30)
   OR (p.p_brand = 'Brand#2' AND p.p_size BETWEEN 20 AND 50
       AND l.l_quantity BETWEEN 20 AND 40)
"""


# ============================ per-user KL divergence from the global mix

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

    rd = _rd()

    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
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


# ============================== TPC-H Q4 class: late-order priority counts

def q_late_order_priority(sf_dir: str, late_days: int = 60):
    """TPC-H Q4 class: per order priority, the number of DISTINCT
    orders with at least one line shipped more than ``late_days`` after
    the order date — EXISTS-per-order semantics, vs ``late_shipments``'
    per-LINE rates.

    Shape: one corpus x corpus hash join on orderkey whose
    ``merge_post`` computes the per-order ANY(late) flag entirely
    inside the key partition (all of an order's lines are co-located by
    the join key) and emits per-PRIORITY partial counts — the trailing
    groupby sees a handful of rows per partition, and the priority
    domain is bounded (5 values)."""
    from ray.data.aggregate import Sum

    rd = _rd()
    late_us = late_days * _DAY_US

    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_orderkey", "l_shipdate"])
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"])

    def per_order(g: pa.Table) -> pa.Table:
        ship = pc.cast(g["l_shipdate"].cast(pa.timestamp("us")), pa.int64())
        od = pc.cast(g["o_orderdate"].cast(pa.timestamp("us")), pa.int64())
        late = pc.cast(pc.greater(ship, pc.add(od, late_us)), pa.int8())
        per = partial_aggregate(
            pa.table({"o": g["l_orderkey"], "late": late,
                      "prio": g["o_orderpriority"]}),
            ["o"],
            [("late_any", "late", "max"), ("o_orderpriority", "prio", "max")])
        hit = per.filter(pc.equal(per["late_any"], 1))
        return partial_aggregate(hit.select(["o_orderpriority"]),
                                 ["o_orderpriority"],
                                 [("pc", None, "count_all")])

    partials = hash_join(
        li, orders, on="l_orderkey", right_on="o_orderkey",
        left_schema=pa.schema([("l_orderkey", pa.int64()),
                               ("l_shipdate", pa.timestamp("us"))]),
        right_schema=pa.schema([("o_orderkey", pa.int64()),
                                ("o_orderdate", pa.timestamp("us")),
                                ("o_orderpriority", pa.string())]),
        merge_post=per_order)
    return (partials.groupby("o_orderpriority")
            .aggregate(Sum("pc", alias_name="order_count"))
            .sort("o_orderpriority"))


ORACLE_LATE_ORDER_PRIORITY = """
SELECT o_orderpriority, CAST(COUNT(*) AS BIGINT) AS order_count
FROM orders o
WHERE EXISTS (
  SELECT 1 FROM lineitem l
  WHERE l.l_orderkey = o.o_orderkey
    AND l.l_shipdate > o.o_orderdate + INTERVAL 60 DAY
)
GROUP BY o_orderpriority ORDER BY o_orderpriority
"""


# ===================================== interval-union coverage

def q_user_coverage(sf_dir: str, width_s: int = 300):
    """Per-user total covered microseconds of the union of
    ``[ts, ts + 300 s)`` event intervals (overlaps counted once) — see
    ``stages/window.interval_coverage`` for the clipped-bucket sweep.
    All arithmetic is integer microseconds, so the oracle's
    window-function formulation is hash-exact."""
    from odinson_ray.stages.window import interval_coverage

    rd = _rd()
    return interval_coverage(
        rd.read_parquet(f"{sf_dir}/events.parquet",
                        columns=["user_id", "ts"]),
        key="user_id", ts="ts", width_s=width_s,
    ).sort("user_id")


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


def register(queries: dict, oracles: dict) -> None:
    queries["bracket_revenue"] = q_bracket_revenue
    oracles["bracket_revenue"] = ORACLE_BRACKET_REVENUE
    queries["user_type_kl"] = q_user_type_kl
    oracles["user_type_kl"] = ORACLE_USER_TYPE_KL
    queries["late_order_priority"] = q_late_order_priority
    oracles["late_order_priority"] = ORACLE_LATE_ORDER_PRIORITY
    queries["user_coverage"] = q_user_coverage
    oracles["user_coverage"] = ORACLE_USER_COVERAGE
