"""Round-4 session-5 batch B: the remaining TPC-H query classes the
inventory lacked (Q13 outer-join count distribution, Q7 two-dimension
nation trade, Q17 correlated-average filter, Q12 late-shipment split,
Q22 scalar-subquery + anti join), vectorized JSON field extraction over
``events.props``, and a hive value-partitioned layout with
manifest-pruned reads (``stages/layout.hive_layout``).

Registered by ``pipelines/queries.py`` like queries2-8; each ``q_*``
takes ``sf_dir``; oracle column names match exactly. Money is integer
cents (floor(x*100+0.5)) computed identically on both sides; float
boundary comparisons are transformed to integer/exact-double forms
(5*qty*cnt < sum_qty; cents*n > total_cents) so no division ever
decides a filter.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from odinson_ray.stages.shuffle import (
    combine_aggregate, hash_join, partial_aggregate)

_US_PER_DAY = 86_400_000_000


def _rd():
    from ..sources.io import clean_rd

    return clean_rd


def _cents(col) -> pa.ChunkedArray:
    return pc.cast(pc.floor(pc.add(pc.multiply(col, 100.0), 0.5)),
                   pa.int64())


# ===================================== TPC-H Q13: order-count distribution

def q_tpch_q13(sf_dir: str):
    """Distribution of per-customer order counts INCLUDING zero-order
    customers: map-side per-custkey count combiner -> one left-outer
    hash join onto customer (zero-fill) -> second combiner over the
    count value. Both groupbys see pre-collapsed rows only."""
    rd = _rd()

    counts = combine_aggregate(
        rd.read_parquet(f"{sf_dir}/orders.parquet",
                        columns=["o_custkey"]),
        "o_custkey", [("cnt", "o_custkey", "count")])

    cust = rd.read_parquet(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey"])
    joined = hash_join(
        cust, counts, on="c_custkey", right_on="o_custkey",
        how="left_outer",
        left_schema=pa.schema([("c_custkey", pa.int64())]),
        right_schema=pa.schema([("o_custkey", pa.int64()),
                                ("cnt", pa.int64())]))

    def hist_project(t: pa.Table) -> pa.Table:
        c = pc.fill_null(pc.cast(t["cnt"], pa.int64()), 0)
        return pa.table({"c_count": c})

    return combine_aggregate(
        joined.map_batches(hist_project, batch_format="pyarrow"),
        "c_count", [("custdist", "c_count", "count")])


ORACLE_TPCH_Q13 = """
SELECT c_count, CAST(count(*) AS BIGINT) AS custdist
FROM (SELECT c_custkey, CAST(count(o_orderkey) AS BIGINT) AS c_count
      FROM customer LEFT JOIN orders ON c_custkey = o_custkey
      GROUP BY c_custkey) t
GROUP BY c_count
"""


# ===================================== TPC-H Q7-class: nation trade volume

def q_nation_trade(sf_dir: str):
    """Revenue between (supplier nation, customer nation, ship year),
    cross-nation only. Scale shape: the customer dimension is NOT
    broadcast (it scales with the corpus) — orders pick up the customer
    nation via one distributed hash join; lineitem collapses through a
    map-side (orderkey, supp_nation, year) combiner with the supplier
    nation from the broadcast supplier->nation map (the one genuinely
    dim-sized lookup, as in q_revenue_by_nation); the big join keys on
    orderkey; a 3-key combiner finishes. Both joins are
    ``broadcast_or_join`` (zero-shuffle while the right side fits the
    broadcast size, hash join when it doesn't).
    """
    import pandas as pd
    import ray

    from odinson_ray.stages.link import get_broadcast
    from odinson_ray.stages.shuffle import broadcast_or_join

    rd = _rd()
    supp = pd.read_parquet(f"{sf_dir}/supplier.parquet",
                           columns=["s_suppkey", "s_nationkey"])
    nation = pd.read_parquet(f"{sf_dir}/nation.parquet",
                             columns=["n_nationkey", "n_name"])
    n2name = dict(zip(nation.n_nationkey, nation.n_name))
    s2name = ray.put({k: n2name[v] for k, v in
                      zip(supp.s_suppkey, supp.s_nationkey)})
    names_ref = ray.put(n2name)

    orders_cn = broadcast_or_join(
        rd.read_parquet(f"{sf_dir}/orders.parquet",
                        columns=["o_orderkey", "o_custkey"]),
        rd.read_parquet(f"{sf_dir}/customer.parquet",
                        columns=["c_custkey", "c_nationkey"]),
        on="o_custkey", right_on="c_custkey",
        left_schema=pa.schema([("o_orderkey", pa.int64()),
                               ("o_custkey", pa.int64())]),
        right_schema=pa.schema([("c_custkey", pa.int64()),
                                ("c_nationkey", pa.int32())]))

    def li_partial(t: pa.Table) -> pa.Table:
        lk = get_broadcast(s2name)
        keys = t["l_suppkey"].to_numpy(zero_copy_only=False)
        year = pc.cast(pc.year(t["l_shipdate"].cast(pa.timestamp("us"))),
                       pa.int64())
        cents = _cents(pc.multiply(
            t["l_extendedprice"],
            pc.subtract(pa.scalar(1.0), t["l_discount"])))
        base = pa.table({
            "l_orderkey": t["l_orderkey"],
            "supp_nation": pa.array([lk[k] for k in keys], pa.string()),
            "l_year": year, "cents": cents})
        return partial_aggregate(base, ["l_orderkey", "supp_nation", "l_year"],
                                 [("pc_", "cents", "sum")])

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_shipdate",
                 "l_extendedprice", "l_discount"]).map_batches(
        li_partial, batch_format="pyarrow")

    joined = broadcast_or_join(
        li, orders_cn, on="l_orderkey", right_on="o_orderkey",
        left_schema=pa.schema([("l_orderkey", pa.int64()),
                               ("supp_nation", pa.string()),
                               ("l_year", pa.int64()),
                               ("pc_", pa.int64())]),
        right_schema=pa.schema([("o_orderkey", pa.int64()),
                                ("c_nationkey", pa.int32())]))

    def finish_project(t: pa.Table) -> pa.Table:
        lk = get_broadcast(names_ref)
        ck = t["c_nationkey"].to_numpy(zero_copy_only=False)
        cust = pa.array([lk[k] for k in ck], pa.string())
        t = pa.table({"supp_nation": t["supp_nation"], "cust_nation": cust,
                      "l_year": t["l_year"], "pc_": t["pc_"]})
        t = t.filter(pc.invert(pc.equal(t["supp_nation"],
                                        t["cust_nation"])))
        return t

    return combine_aggregate(
        joined.map_batches(finish_project, batch_format="pyarrow"),
        ["supp_nation", "cust_nation", "l_year"],
        [("revenue_cents", "pc_", "sum")])


ORACLE_NATION_TRADE = """
SELECT ns.n_name AS supp_nation, nc.n_name AS cust_nation,
       CAST(year(l_shipdate) AS BIGINT) AS l_year,
       CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5)
                     AS BIGINT)) AS BIGINT) AS revenue_cents
FROM lineitem
JOIN orders   ON o_orderkey = l_orderkey
JOIN customer ON c_custkey = o_custkey
JOIN supplier ON s_suppkey = l_suppkey
JOIN nation ns ON ns.n_nationkey = s_nationkey
JOIN nation nc ON nc.n_nationkey = c_nationkey
WHERE ns.n_name <> nc.n_name
GROUP BY 1, 2, 3
"""


# ===================================== TPC-H Q17-class: small-quantity revenue

def q_small_qty_revenue(sf_dir: str):
    """Revenue from lineitems whose quantity is below 20% of their
    part's average (the correlated-scalar-subquery class): per-part
    (sum, count) sufficient stats via a combiner, one distributed hash
    join back onto lineitem, and a division-free exact comparison
    5*qty*cnt < sum_qty (quantities are integral, counts small — both
    sides exact in doubles; the SQL applies the SAME transform, so no
    float division ever decides membership)."""
    import pandas as pd
    from ray.data.aggregate import Sum

    rd = _rd()

    def stats_project(t: pa.Table) -> pa.Table:
        return pa.table({"l_partkey": t["l_partkey"], "q": t["l_quantity"]})

    stats = combine_aggregate(
        rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                        columns=["l_partkey", "l_quantity"])
        .map_batches(stats_project, batch_format="pyarrow"),
        "l_partkey", [("sq", "q", "sum"), ("cnt", "q", "count")])

    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_partkey", "l_quantity",
                                  "l_extendedprice"])
    joined = hash_join(
        li, stats, on="l_partkey",
        left_schema=pa.schema([("l_partkey", pa.int64()),
                               ("l_quantity", pa.float64()),
                               ("l_extendedprice", pa.float64())]),
        right_schema=pa.schema([("l_partkey", pa.int64()),
                                ("sq", pa.float64()),
                                ("cnt", pa.int64())]))

    def partial_sum(t: pa.Table) -> pa.Table:
        keep = pc.less(
            pc.multiply(pc.multiply(t["l_quantity"], 5.0),
                        pc.cast(t["cnt"], pa.float64())), t["sq"])
        cents = _cents(t.filter(keep)["l_extendedprice"])
        s = pc.sum(cents).as_py() or 0
        return pa.table({"pc_": pa.array([s], pa.int64())})

    agg = joined.map_batches(partial_sum, batch_format="pyarrow").aggregate(
        Sum("pc_", alias_name="rev_cents"))
    return pd.DataFrame({"rev_cents": [int(agg["rev_cents"] or 0)]})


ORACLE_SMALL_QTY_REVENUE = """
SELECT CAST(coalesce(sum(CAST(floor(l.l_extendedprice * 100 + 0.5)
                               AS BIGINT)), 0) AS BIGINT) AS rev_cents
FROM lineitem l
JOIN (SELECT l_partkey, sum(l_quantity) AS sq, count(*) AS cnt
      FROM lineitem GROUP BY l_partkey) a
  ON l.l_partkey = a.l_partkey
WHERE 5 * l.l_quantity * a.cnt < a.sq
"""


# ===================================== TPC-H Q12-class: late shipments

def q_late_shipments(sf_dir: str, late_days: int = 60):
    """Per order priority: lines shipped more than ``late_days`` after
    the order date vs total lines. One distributed hash join (lineitem
    x orders on orderkey — both sides corpus-sized, neither broadcast)
    then a map-side (priority, late, total) combiner; the comparison is
    integer microseconds, unit-normalized through timestamp[us]."""
    rd = _rd()

    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_orderkey", "l_shipdate"])
    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_orderdate",
                                      "o_orderpriority"])
    joined = hash_join(
        li, orders, on="l_orderkey", right_on="o_orderkey",
        left_schema=pa.schema([("l_orderkey", pa.int64()),
                               ("l_shipdate", pa.timestamp("us"))]),
        right_schema=pa.schema([("o_orderkey", pa.int64()),
                                ("o_orderdate", pa.timestamp("us")),
                                ("o_orderpriority", pa.string())]))

    def late_project(t: pa.Table) -> pa.Table:
        ship = pc.cast(t["l_shipdate"].cast(pa.timestamp("us")), pa.int64())
        od = pc.cast(t["o_orderdate"].cast(pa.timestamp("us")), pa.int64())
        late = pc.cast(pc.greater(pc.subtract(ship, od),
                                  late_days * _US_PER_DAY), pa.int64())
        return pa.table({"o_orderpriority": t["o_orderpriority"],
                         "late": late})

    return combine_aggregate(
        joined.map_batches(late_project, batch_format="pyarrow"),
        "o_orderpriority",
        [("n_late", "late", "sum"), ("n_lines", "late", "count")])


ORACLE_LATE_SHIPMENTS = """
SELECT o_orderpriority,
       CAST(sum(CASE WHEN l_shipdate > o_orderdate + INTERVAL 60 DAY
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_late,
       CAST(count(*) AS BIGINT) AS n_lines
FROM orders JOIN lineitem ON l_orderkey = o_orderkey
GROUP BY o_orderpriority
"""


# ===================================== TPC-H Q22-class: idle rich customers

def q_idle_rich_customers(sf_dir: str):
    """Customers with above-average positive balance and NO urgent
    orders, counted per nation (the scalar-subquery + anti-join class).
    The global average is two driver scalars (sum of cents, count) from
    a one-row-per-batch combiner; the membership test is the integer
    form cents*n > total_cents (no division); the NOT EXISTS is a
    distributed anti hash join against the filtered orders side."""
    from ray.data.aggregate import Sum

    rd = _rd()

    def bal_partial(t: pa.Table) -> pa.Table:
        pos = t.filter(pc.greater(t["c_acctbal"], 0.0))
        cents = _cents(pos["c_acctbal"])
        return pa.table({"s": pa.array([pc.sum(cents).as_py() or 0],
                                       pa.int64()),
                         "n": pa.array([len(cents)], pa.int64())})

    cust_path = f"{sf_dir}/customer.parquet"
    g = (rd.read_parquet(cust_path, columns=["c_acctbal"])
         .map_batches(bal_partial, batch_format="pyarrow")
         .aggregate(Sum("s", alias_name="s"), Sum("n", alias_name="n")))
    total, n_pos = int(g["s"] or 0), int(g["n"] or 0)

    def rich(t: pa.Table) -> pa.Table:
        cents = _cents(t["c_acctbal"])
        keep = pc.greater(pc.multiply(cents, n_pos), total)
        t = t.append_column("bal_cents", cents).filter(keep)
        return t.select(["c_custkey", "c_nationkey", "bal_cents"])

    cust = rd.read_parquet(
        cust_path, columns=["c_custkey", "c_nationkey", "c_acctbal"]
    ).map_batches(rich, batch_format="pyarrow")

    urgent = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderpriority"]).map_batches(
        lambda t: t.filter(
            pc.equal(t["o_orderpriority"], "1-URGENT")).select(
            ["o_custkey"]),
        batch_format="pyarrow")

    idle = hash_join(
        cust, urgent, on="c_custkey", right_on="o_custkey", how="anti",
        left_schema=pa.schema([("c_custkey", pa.int64()),
                               ("c_nationkey", pa.int32()),
                               ("bal_cents", pa.int64())]),
        right_schema=pa.schema([("o_custkey", pa.int64())]))

    def nat_project(t: pa.Table) -> pa.Table:
        return pa.table({"c_nationkey": pc.cast(t["c_nationkey"], pa.int64()),
                         "bal_cents": t["bal_cents"]})

    return combine_aggregate(
        idle.map_batches(nat_project, batch_format="pyarrow"),
        "c_nationkey",
        [("n_cust", "bal_cents", "count"), ("bal_cents", "bal_cents", "sum")])


ORACLE_IDLE_RICH = """
WITH a AS (SELECT sum(CAST(floor(c_acctbal * 100 + 0.5) AS BIGINT)) AS s,
                  count(*) AS n
           FROM customer WHERE c_acctbal > 0)
SELECT CAST(c_nationkey AS BIGINT) AS c_nationkey,
       CAST(count(*) AS BIGINT) AS n_cust,
       CAST(sum(CAST(floor(c_acctbal * 100 + 0.5) AS BIGINT)) AS BIGINT)
         AS bal_cents
FROM customer, a
WHERE CAST(floor(c_acctbal * 100 + 0.5) AS BIGINT) * a.n > a.s
  AND NOT EXISTS (SELECT 1 FROM orders
                  WHERE o_custkey = c_custkey
                    AND o_orderpriority = '1-URGENT')
GROUP BY c_nationkey
"""


# ===================================== JSON field extraction over props

def q_json_props_stats(sf_dir: str):
    """Semi-structured extraction: pull the integer ``k`` out of the
    JSON ``props`` column with ONE vectorized RE2 scan
    (pc.extract_regex — no per-row json.loads), then per-event-type
    sum/count/max via the usual combiner. Rows whose props lack ``k``
    drop out as nulls on both sides."""
    rd = _rd()

    def extract_project(t: pa.Table) -> pa.Table:
        ex = pc.extract_regex(t["props"], r'"k"\s*:\s*(?P<k>-?\d+)')
        k = pc.cast(pc.struct_field(ex, "k"), pa.int64())
        return pa.table({"event_type": t["event_type"], "k": k})

    agg = combine_aggregate(
        rd.read_parquet(f"{sf_dir}/events.parquet",
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


ORACLE_JSON_PROPS = """
WITH e AS (SELECT event_type,
                  CAST(json_extract_string(props, '$.k') AS BIGINT) AS k
           FROM events)
SELECT event_type, CAST(count(k) AS BIGINT) AS n,
       CAST(sum(k) AS BIGINT) AS sum_k, CAST(max(k) AS BIGINT) AS max_k,
       round(sum(k) / CAST(count(k) AS DOUBLE), 6) AS avg_k
FROM e GROUP BY event_type
"""


# ===================================== hive-partitioned pruned aggregate

def q_hive_pruned_agg(sf_dir: str, lang: str = "en"):
    """Build (once, stat-keyed cache) a hive lang-partitioned layout of
    the documents table, then answer a single-language aggregate by
    reading ONLY that partition's files via the manifest — the
    partition-pruning identity every lake engine relies on. The scan is
    a Dataset; the pytest asserts the file set actually shrank."""
    from odinson_ray.stages.layout import hive_layout, hive_scan

    root = hive_layout(f"{sf_dir}/documents.parquet", "lang",
                       ["doc_id", "source", "n_chars"])

    return combine_aggregate(hive_scan(root, lang), "source",
                             [("n_docs", "n_chars", "count"),
                              ("chars", "n_chars", "sum")])


ORACLE_HIVE_PRUNED = """
SELECT source, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(n_chars) AS BIGINT) AS chars
FROM documents WHERE lang = 'en' GROUP BY source
"""


def register(queries: dict, oracles: dict) -> None:
    queries["tpch_q13"] = q_tpch_q13
    oracles["tpch_q13"] = ORACLE_TPCH_Q13
    queries["nation_trade"] = q_nation_trade
    oracles["nation_trade"] = ORACLE_NATION_TRADE
    queries["small_qty_revenue"] = q_small_qty_revenue
    oracles["small_qty_revenue"] = ORACLE_SMALL_QTY_REVENUE
    queries["late_shipments"] = q_late_shipments
    oracles["late_shipments"] = ORACLE_LATE_SHIPMENTS
    queries["idle_rich_customers"] = q_idle_rich_customers
    oracles["idle_rich_customers"] = ORACLE_IDLE_RICH
    queries["json_props_stats"] = q_json_props_stats
    oracles["json_props_stats"] = ORACLE_JSON_PROPS
    queries["hive_pruned_agg"] = q_hive_pruned_agg
    oracles["hive_pruned_agg"] = ORACLE_HIVE_PRUNED
