"""Relational queries over the TPC-H-shaped tables: region, nation,
customer, supplier, part, orders and lineitem.

Aggregates, joins (broadcast or shuffled through
``stages.shuffle.broadcast_or_join``), semi/anti joins, window and
ranking functions over a global order, rollups and cubes, and the
TPC-H Q3/Q13/Q18-class reports. Each query is declared once with
``@query`` next to its DuckDB oracle.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from odinson_ray.sources.io import read_table, table, table_path
from odinson_ray.stages.shuffle import (broadcast_or_join, coarse_groups,
                                        combine_aggregate, global_topk,
                                        grouped_topk, hash_join,
                                        partial_aggregate)

from . import query
from .graph import SEP


ORACLE_LINEITEM_AGG = """
SELECT l_returnflag, l_linestatus,
       round(sum(l_quantity), 2) AS sum_qty,
       round(sum(l_extendedprice), 2) AS sum_base_price,
       round(sum(l_extendedprice * (1 - l_discount)), 2) AS sum_disc_price,
       round(avg(l_quantity), 6) AS avg_qty,
       count(*) AS n
FROM lineitem
GROUP BY l_returnflag, l_linestatus
"""


@query("lineitem_agg", oracle=ORACLE_LINEITEM_AGG)
def q_lineitem_agg(sf_dir: str):
    """TPC-H Q1-style aggregate with a per-batch computed column.

    Map-side combine: Ray's groupby().aggregate() sort-shuffles EVERY
    row; the per-batch Arrow groupby collapses each batch to <= |keys|
    partial rows first (Mean decomposes into Sum+Count), so the global
    exchange moves ~6 rows per batch instead of the whole table."""

    ds = table(
        sf_dir, "lineitem",
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )
    keys = ["l_returnflag", "l_linestatus"]

    def partial(t: pa.Table) -> pa.Table:
        disc = pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return pa.table({
            "l_returnflag": t["l_returnflag"],
            "l_linestatus": t["l_linestatus"],
            "q": t["l_quantity"],
            "p": t["l_extendedprice"],
            "d": disc,
        })

    out = (
        combine_aggregate(ds.map_batches(partial, batch_format="pyarrow"),
                          keys,
                          [("sum_qty", "q", "sum"),
                           ("sum_base_price", "p", "sum"),
                           ("sum_disc_price", "d", "sum"),
                           ("n", None, "count_all")])
        .to_pandas()
    )
    out["avg_qty"] = (out["sum_qty"] / out["n"]).round(6)
    for col in ("sum_base_price", "sum_disc_price"):
        out[col] = out[col].round(2)
    out["sum_qty"] = out["sum_qty"].round(2)
    return out[["l_returnflag", "l_linestatus", "sum_qty", "sum_base_price",
                "sum_disc_price", "avg_qty", "n"]]


ORACLE_TOP_ORDERS = """
SELECT o_orderkey, o_totalprice, c_name
FROM orders JOIN customer ON o_custkey = c_custkey
WHERE c_mktsegment = 'BUILDING'
ORDER BY o_totalprice DESC, o_orderkey
LIMIT 10
"""


@query("top_orders", oracle=ORACLE_TOP_ORDERS)
def q_top_orders(sf_dir: str):
    """Broadcast join orders->customer + deterministic top-k.

    The build side is FILTERED as a Dataset before collection (only
    BUILDING customers ever reach the driver — at a 100x dimension the
    collected side stays proportional to the selected segment, VERDICT
    r02 "What's wrong" #6), and the top-10 prunes per batch before the
    distributed sort (global_topk), so the sort input is <= 10 rows per
    batch rather than the whole orders table."""
    import ray

    cust_ds = table(
        sf_dir, "customer", columns=["c_custkey", "c_name", "c_mktsegment"]
    ).map_batches(
        lambda t: t.filter(pc.equal(t["c_mktsegment"], "BUILDING")),
        batch_format="pyarrow",
    )
    cust = cust_ds.to_pandas()  # small: post-filter dimension rows only
    lookup = ray.put(dict(zip(cust.c_custkey, cust.c_name)))

    from odinson_ray.stages.link import get_broadcast
    from odinson_ray.stages.shuffle import global_topk

    def join_batch(t: pa.Table) -> pa.Table:
        names = get_broadcast(lookup)
        keys = t["o_custkey"].to_numpy(zero_copy_only=False)
        cname = [names.get(k) for k in keys]
        mask = [c is not None for c in cname]
        t = t.append_column("c_name", pa.array(cname, pa.string()))
        return t.filter(pa.array(mask))

    ds = table(
        sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_totalprice"]
    ).map_batches(join_batch, batch_format="pyarrow")
    out = global_topk(ds, ["o_totalprice", "o_orderkey"], [True, False], 10).to_pandas()
    return out[["o_orderkey", "o_totalprice", "c_name"]]


ORACLE_REVENUE_BY_NATION = """
SELECT n_name, round(sum(l_extendedprice * (1 - l_discount)), 2) AS revenue
FROM lineitem JOIN supplier ON l_suppkey = s_suppkey
              JOIN nation ON s_nationkey = n_nationkey
GROUP BY n_name
"""


def _dim_map(sf_dir: str, name: str, key: str, value: str) -> dict:
    """{key: value} over a fixed-size dimension table (nation, region)."""
    return {r[key]: r[value]
            for r in table(sf_dir, name, columns=[key, value]).take_all()}


def _with_supp_nation(sf_dir: str, li):
    """``li`` (with ``l_suppkey``) plus each supplier's ``s_nationkey``:
    the supplier table grows with scale, so it is a size-gated join, not
    a driver dict."""
    return broadcast_or_join(
        li, table(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"]),
        on="l_suppkey", right_on="s_suppkey",
        right_schema=pa.schema([("s_suppkey", pa.int64()),
                                ("s_nationkey", pa.int32())]))


@query("revenue_by_nation", oracle=ORACLE_REVENUE_BY_NATION)
def q_revenue_by_nation(sf_dir: str):
    """lineitem -> supplier (size-gated join) -> grouped sum per nation
    key, named from the nation dimension after the aggregate."""
    def project(t: pa.Table) -> pa.Table:
        rev = pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return pa.table({"s_nationkey": t["s_nationkey"], "revenue": rev})

    li = table(sf_dir, "lineitem",
               columns=["l_suppkey", "l_extendedprice", "l_discount"])
    out = combine_aggregate(
        _with_supp_nation(sf_dir, li).map_batches(project, batch_format="pyarrow"),
        "s_nationkey", [("revenue", "revenue", "sum")]).to_pandas()
    names = _dim_map(sf_dir, "nation", "n_nationkey", "n_name")
    out = (out.assign(n_name=out["s_nationkey"].map(names))
           .groupby("n_name", as_index=False)["revenue"].sum())
    out["revenue"] = out["revenue"].round(2)
    return out


ORACLE_DISTINCT_FLAGS = """
SELECT l_returnflag, l_linestatus, count(*) AS n
FROM lineitem GROUP BY l_returnflag, l_linestatus
"""


@query("distinct_flags", oracle=ORACLE_DISTINCT_FLAGS)
def q_distinct_flags(sf_dir: str):
    ds = table(sf_dir, "lineitem", columns=["l_returnflag", "l_linestatus"])
    from ray.data.aggregate import Count

    return ds.groupby(["l_returnflag", "l_linestatus"]).aggregate(Count(alias_name="n"))


ORACLE_UNION_NATION_KEYS = """
SELECT DISTINCT nationkey FROM (
  SELECT c_nationkey AS nationkey FROM customer
  UNION ALL
  SELECT s_nationkey AS nationkey FROM supplier
)
"""


@query("union_nation_keys", oracle=ORACLE_UNION_NATION_KEYS)
def q_union_nation_keys(sf_dir: str):
    c = table(sf_dir, "customer", columns=["c_nationkey"]).map_batches(
        lambda t: t.rename_columns(["nationkey"]), batch_format="pyarrow"
    )
    s = table(sf_dir, "supplier", columns=["s_nationkey"]).map_batches(
        lambda t: t.rename_columns(["nationkey"]), batch_format="pyarrow"
    )
    u = c.union(s)
    return pd.DataFrame({"nationkey": sorted(u.unique("nationkey"))})


ORACLE_FILTER_REVENUE = """
SELECT l_orderkey, l_linenumber,
       floor(l_extendedprice * (1 - l_discount) * 100 + 0.5) / 100 AS revenue
FROM lineitem WHERE l_discount < 0.03
"""


@query("filter_revenue", oracle=ORACLE_FILTER_REVENUE)
def q_filter_revenue(sf_dir: str):
    """Row-filtered projection with a computed column (streaming, no agg)."""

    def f(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less(t["l_discount"], pa.scalar(0.03)))
        raw = pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"]))
        # floor(x*100+0.5)/100 on float64: bit-identical to the SQL oracle
        rev = pc.divide(pc.floor(pc.add(pc.multiply(raw, pa.scalar(100.0)), pa.scalar(0.5))), pa.scalar(100.0))
        return pa.Table.from_pydict(
            {
                "l_orderkey": t["l_orderkey"],
                "l_linenumber": t["l_linenumber"],
                "revenue": rev,
            }
        )

    return table(
        sf_dir, "lineitem",
        columns=["l_orderkey", "l_linenumber", "l_extendedprice", "l_discount"],
    ).map_batches(f, batch_format="pyarrow")


ORACLE_TOPK_PER_GROUP = """
SELECT o_custkey, o_orderkey, o_totalprice
FROM orders
QUALIFY row_number() OVER (PARTITION BY o_custkey
                           ORDER BY o_totalprice DESC, o_orderkey) <= 2
"""


@query("topk_per_group", oracle=ORACLE_TOPK_PER_GROUP)
def q_topk_per_group(sf_dir: str):
    """Top-2 orders per customer by total price (per-group top-k), with a
    per-batch combiner: each batch keeps <= 2 rows per customer before
    the shuffle, so a hot customer contributes at most 2 x num_batches
    rows to its reducer (never its full order history)."""
    from odinson_ray.stages.shuffle import grouped_topk

    ds = table(sf_dir, "orders",
               columns=["o_custkey", "o_orderkey", "o_totalprice"])
    out = grouped_topk(ds, "o_custkey", ["o_totalprice", "o_orderkey"],
                       [True, False], 2)
    return out.map_batches(
        lambda t: t.select(["o_custkey", "o_orderkey", "o_totalprice"]),
        batch_format="pyarrow",
    )


ORACLE_CUSTOMERS_NO_ORDERS = """
SELECT c_custkey, c_name FROM customer
WHERE NOT EXISTS (SELECT 1 FROM orders
                  WHERE o_custkey = c_custkey AND o_totalprice > 300000)
"""


@query("customers_no_orders", oracle=ORACLE_CUSTOMERS_NO_ORDERS)
def q_customers_no_orders(sf_dir: str):
    """Customers with no order above 300k — distributed ANTI join
    (stages/shuffle.hash_join how='anti': left rows whose key group has
    no right rows; NOT EXISTS semantics). The right side is filtered and
    projected to its key column only before the shuffle."""
    from odinson_ray.stages.shuffle import hash_join

    cust = table(sf_dir, "customer",
                 columns=["c_custkey", "c_name"])
    big = table(
        sf_dir, "orders", columns=["o_custkey", "o_totalprice"]
    ).map_batches(
        lambda t: t.filter(pc.greater(t["o_totalprice"], 300000.0)).select(["o_custkey"]),
        batch_format="pyarrow",
    )
    return hash_join(
        cust, big, on="c_custkey", right_on="o_custkey", how="anti",
        left_schema=pa.schema([("c_custkey", pa.int64()), ("c_name", pa.string())]),
        right_schema=pa.schema([("o_custkey", pa.int64())]),
    )


ORACLE_CUSTOMERS_WITH_ORDERS = """
SELECT c_custkey, c_name FROM customer
WHERE EXISTS (SELECT 1 FROM orders WHERE o_custkey = c_custkey)
"""


@query("customers_with_orders", oracle=ORACLE_CUSTOMERS_WITH_ORDERS)
def q_customers_with_orders(sf_dir: str):
    """Customers with >= 1 order — distributed SEMI join (each left row
    emitted once, no cross product, left columns only)."""
    from odinson_ray.stages.shuffle import hash_join

    cust = table(sf_dir, "customer",
                 columns=["c_custkey", "c_name"])
    orders = table(sf_dir, "orders", columns=["o_custkey"])
    return hash_join(
        cust, orders, on="c_custkey", right_on="o_custkey", how="semi",
        left_schema=pa.schema([("c_custkey", pa.int64()), ("c_name", pa.string())]),
        right_schema=pa.schema([("o_custkey", pa.int64())]),
    )


# ============================================== rollup (grouping sets)


ORACLE_ROLLUP_LINEITEM = """
SELECT COALESCE(l_returnflag, '__ALL__') AS l_returnflag,
       COALESCE(l_linestatus, '__ALL__') AS l_linestatus,
       round(sum(l_quantity), 2) AS sum_qty
FROM lineitem GROUP BY ROLLUP (l_returnflag, l_linestatus)
"""


@query("rollup_lineitem", oracle=ORACLE_ROLLUP_LINEITEM)
def q_rollup_lineitem(sf_dir: str):
    """GROUP BY ROLLUP (l_returnflag, l_linestatus) on sum(l_quantity):
    every grouping level is pre-aggregated INSIDE each batch (the
    combiner emits <= |flag x status| + |flag| + 1 rows per batch), so
    one global groupby serves all three levels — no per-level pass over
    the data, no extra shuffle. Rolled-up keys use the '__ALL__'
    sentinel (Ray groupby keys stay non-null)."""
    from ray.data.aggregate import Sum

    ALL = "__ALL__"

    def partial(t: pa.Table) -> pa.Table:
        base = pa.table({
            "l_returnflag": t["l_returnflag"],
            "l_linestatus": t["l_linestatus"],
            "q": t["l_quantity"],
        })
        lvl2 = partial_aggregate(base, ["l_returnflag", "l_linestatus"],
                                 [("partial_q", "q", "sum")])
        lvl1 = partial_aggregate(base, ["l_returnflag"],
                                 [("partial_q", "q", "sum")])
        n1 = lvl1.num_rows
        lvl1 = lvl1.add_column(1, "l_linestatus",
                               pa.array([ALL] * n1, pa.string()))
        lvl0 = pa.table({
            "l_returnflag": pa.array([ALL], pa.string()),
            "l_linestatus": pa.array([ALL], pa.string()),
            "partial_q": pa.array([pc.sum(base["q"]).as_py() or 0.0],
                                  pa.float64()),
        })
        return pa.concat_tables([lvl2, lvl1, lvl0], promote_options="default")

    agg = (
        table(sf_dir, "lineitem",
              columns=["l_returnflag", "l_linestatus", "l_quantity"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(Sum("partial_q", alias_name="sum_qty"))
    )
    return agg.map_batches(
        lambda t: t.set_column(t.column_names.index("sum_qty"), "sum_qty",
                               pc.round(t["sum_qty"], 2)),
        batch_format="pyarrow",
    )


# ===================================== Bloom-filter semi join
_BLOOM_BITS = 1 << 17  # 16 KiB bitmap, fixed regardless of key count


_BLOOM_K = 4


def _bloom_positions(keys: np.ndarray) -> np.ndarray:
    """(n, k) bit positions via double hashing of splitmix64."""
    from odinson_ray.stages.sketch import _splitmix64

    k64 = keys.astype(np.uint64)
    h1 = _splitmix64(k64)
    h2 = _splitmix64(k64 ^ np.uint64(0xDEADBEEFCAFEF00D)) | np.uint64(1)
    i = np.arange(_BLOOM_K, dtype=np.uint64)
    return ((h1[:, None] + i[None, :] * h2[:, None])
            % np.uint64(_BLOOM_BITS)).astype(np.int64)


ORACLE_BLOOM_SEMI_JOIN = """
SELECT o_orderkey, o_custkey FROM orders
WHERE o_custkey IN (SELECT c_custkey FROM customer WHERE c_acctbal > 9000.0)
"""


@query("bloom_semi_join", oracle=ORACLE_BLOOM_SEMI_JOIN)
def q_bloom_semi_join(sf_dir: str):
    """orders SEMI JOIN high-balance customers via a broadcast Bloom
    filter + exact verify — the shuffle-free semi-join shape for a big
    probe side vs a selective build side. The build side never ships its
    keys to the driver: each build batch emits one FIXED-SIZE (16 KiB)
    bitmap row, the driver ORs those tiny blobs and ray.puts the result
    (driver memory is #blocks x 16 KiB, independent of key count). The
    probe is a vectorized bit test inside map_batches that drops the vast
    majority of rows BEFORE the only shuffle: the exact semi hash_join
    that removes Bloom false positives, so the result is exact, not
    approximate."""
    import ray

    from odinson_ray.stages.link import get_broadcast
    from odinson_ray.stages.shuffle import hash_join

    cust = table(sf_dir, "customer",
                 columns=["c_custkey", "c_acctbal"]) \
        .filter(expr="c_acctbal > 9000.0") \
        .select_columns(["c_custkey"])

    def build(t: pa.Table) -> pa.Table:
        bits = np.zeros(_BLOOM_BITS, dtype=bool)
        keys = t["c_custkey"].to_numpy(zero_copy_only=False)
        if len(keys):
            bits[_bloom_positions(keys).ravel()] = True
        return pa.table({"bits": pa.array([np.packbits(bits).tobytes()],
                                          pa.binary())})

    partials = cust.map_batches(build, batch_format="pyarrow").take_all()
    bitmap = np.zeros(_BLOOM_BITS // 8, dtype=np.uint8)
    for row in partials:
        bitmap |= np.frombuffer(row["bits"], dtype=np.uint8)
    ref = ray.put(np.unpackbits(bitmap).astype(bool))

    orders = table(sf_dir, "orders",
                   columns=["o_orderkey", "o_custkey"])

    def probe(t: pa.Table) -> pa.Table:
        bits = get_broadcast(ref)
        keys = t["o_custkey"].to_numpy(zero_copy_only=False)
        if not len(keys):
            return t
        hit = bits[_bloom_positions(keys)].all(axis=1)
        return t.filter(pa.array(hit))

    candidates = orders.map_batches(probe, batch_format="pyarrow")
    out = hash_join(
        candidates, cust, on="o_custkey", right_on="c_custkey", how="semi",
        left_schema=pa.schema([("o_orderkey", pa.int64()),
                               ("o_custkey", pa.int64())]),
        right_schema=pa.schema([("c_custkey", pa.int64())]))
    return out.select_columns(["o_orderkey", "o_custkey"])


# ===================================== star join (pre-agg + broadcast dims)


ORACLE_STAR_JOIN_REVENUE = """
SELECT r_name,
       round(sum(CAST(round(o_totalprice * 100) AS BIGINT)) / 100.0, 2) AS revenue
FROM orders
JOIN customer ON o_custkey = c_custkey
JOIN nation ON c_nationkey = n_nationkey
JOIN region ON n_regionkey = r_regionkey
GROUP BY r_name
"""


@query("star_join_revenue", oracle=ORACLE_STAR_JOIN_REVENUE)
def q_star_join_revenue(sf_dir: str):
    """Revenue by REGION over the orders->customer->nation->region star —
    the two star-schema scale patterns composed: (1) orders PRE-AGGREGATE
    to (custkey, partial revenue) inside each batch BEFORE the fact-fact
    join, so the join shuffles one row per customer per batch instead of
    one per order; (2) the nation/region dimension chain is a broadcast
    dict (ray.put once, read per actor) — dimension tables never shuffle.
    One hash_join + one tiny final groupby."""
    import ray

    from odinson_ray.stages.link import get_broadcast
    from odinson_ray.stages.shuffle import hash_join

    rname = _dim_map(sf_dir, "region", "r_regionkey", "r_name")
    nat_to_region = {int(n): rname[r] for n, r in
                     _dim_map(sf_dir, "nation", "n_nationkey", "n_regionkey").items()}
    dims = ray.put(nat_to_region)

    def order_project(t: pa.Table) -> pa.Table:
        # money sums in exact integer cents: float partial sums of ~1e9
        # totals differ by summation order at the ULP, which breaks
        # hash-exact comparison; int64 cents are associative
        cents = pc.cast(pc.round(pc.multiply(t["o_totalprice"], 100.0)),
                        pa.int64())
        return pa.table({"o_custkey": t["o_custkey"], "cents": cents})

    pre = combine_aggregate(
        table(sf_dir, "orders",
              columns=["o_custkey", "o_totalprice"])
        .map_batches(order_project, batch_format="pyarrow"),
        "o_custkey", [("rev", "cents", "sum")])

    cust = table(sf_dir, "customer",
                 columns=["c_custkey", "c_nationkey"])
    joined = hash_join(
        pre, cust, on="o_custkey", right_on="c_custkey",
        left_schema=pa.schema([("o_custkey", pa.int64()),
                               ("rev", pa.int64())]),
        right_schema=pa.schema([("c_custkey", pa.int64()),
                                ("c_nationkey", pa.int64())]))

    def by_region(t: pa.Table) -> pa.Table:
        lut = get_broadcast(dims)
        nk = t["c_nationkey"].to_numpy(zero_copy_only=False)
        return pa.table({
            "r_name": pa.array([lut[int(k)] for k in nk], pa.string()),
            "rev": t["rev"],
        })

    agg = combine_aggregate(
        joined.map_batches(by_region, batch_format="pyarrow"),
        "r_name", [("revenue", "rev", "sum")])
    return agg.map_batches(
        lambda t: t.set_column(
            t.column_names.index("revenue"), "revenue",
            pc.round(pc.divide(pc.cast(t["revenue"], pa.float64()), 100.0), 2)),
        batch_format="pyarrow")


# ===================================== column profiling


ORACLE_PROFILE_COLUMNS = """
SELECT 'l_quantity' AS col_name, count(*) AS n,
       count(*) - count(l_quantity) AS n_null,
       count(DISTINCT l_quantity) AS n_distinct,
       round(min(l_quantity), 6) AS min_v, round(max(l_quantity), 6) AS max_v
FROM lineitem
UNION ALL
SELECT 'l_extendedprice', count(*), count(*) - count(l_extendedprice),
       count(DISTINCT l_extendedprice),
       round(min(l_extendedprice), 6), round(max(l_extendedprice), 6)
FROM lineitem
UNION ALL
SELECT 'l_discount', count(*), count(*) - count(l_discount),
       count(DISTINCT l_discount),
       round(min(l_discount), 6), round(max(l_discount), 6)
FROM lineitem
UNION ALL
SELECT 'l_tax', count(*), count(*) - count(l_tax),
       count(DISTINCT l_tax),
       round(min(l_tax), 6), round(max(l_tax), 6)
FROM lineitem
"""


@query("profile_columns", oracle=ORACLE_PROFILE_COLUMNS)
def q_profile_columns(sf_dir: str):
    """Per-column data profile (count / nulls / exact distinct / min /
    max) over lineitem's numeric measures — the schema-validation pass a
    100-TB ingest runs first. Counts come from a per-batch combiner;
    distinct/min/max run over DISTINCT (column, value) rows (2dp-
    quantized measures, the value_quantiles precondition), so the
    shuffle is bounded by distinct values, never row count. Only
    #columns rows ever reach the driver."""
    from ray.data.aggregate import Max, Min, Sum

    COLS = ["l_quantity", "l_extendedprice", "l_discount", "l_tax"]
    li = table(sf_dir, "lineitem", columns=COLS)

    def count_partial(t: pa.Table) -> pa.Table:
        names, n, n_null = [], [], []
        for c in COLS:
            names.append(c)
            n.append(len(t))
            n_null.append(t[c].null_count)
        return pa.table({"col_name": pa.array(names, pa.string()),
                         "pn": pa.array(n, pa.int64()),
                         "pnull": pa.array(n_null, pa.int64())})

    counts = (li.map_batches(count_partial, batch_format="pyarrow")
              .groupby("col_name")
              .aggregate(Sum("pn", alias_name="n"),
                         Sum("pnull", alias_name="n_null"))
              ).take_all()

    def distinct_partial(t: pa.Table) -> pa.Table:
        parts = []
        for c in COLS:
            v = pc.unique(pc.drop_null(t[c].combine_chunks()))
            parts.append(pa.table({
                "col_name": pa.array([c] * len(v), pa.string()),
                "value": v.cast(pa.float64()),
            }))
        return pa.concat_tables(parts)

    from ray.data.aggregate import Count

    stats = (li.map_batches(distinct_partial, batch_format="pyarrow")
             .groupby(["col_name", "value"])
             .aggregate(Count(alias_name="_dup"))
             .groupby("col_name")
             .aggregate(Min("value", alias_name="min_v"),
                        Max("value", alias_name="max_v"),
                        Count(alias_name="n_distinct"))
             ).take_all()

    by_col = {r["col_name"]: dict(r) for r in counts}
    for r in stats:
        by_col[r["col_name"]].update(r)
    rows = [by_col[c] for c in COLS]
    return pa.table({
        "col_name": pa.array([r["col_name"] for r in rows], pa.string()),
        "n": pa.array([r["n"] for r in rows], pa.int64()),
        "n_null": pa.array([r["n_null"] for r in rows], pa.int64()),
        "n_distinct": pa.array([r["n_distinct"] for r in rows], pa.int64()),
        "min_v": pa.array([round(r["min_v"], 6) for r in rows], pa.float64()),
        "max_v": pa.array([round(r["max_v"], 6) for r in rows], pa.float64()),
    })


# ===================================== distributed enumeration (row_number)
def _enumerated_orders(sf_dir: str, n_buckets: int = 256):
    """Order-preserving global enumeration (zipWithIndex over a total
    order) WITHOUT a global sort landing on the driver: rn for
    (o_totalprice DESC, o_orderkey ASC).

    Scale shape: (1) one column-pruned pass computes SAMPLED range
    boundaries via the mergeable quantile sketch
    (stages/sketch.approx_quantile_values) — buckets stay ~n/n_buckets
    rows at ANY key distribution, where the fixed-width variant this
    replaced degenerated on skew; boundary accuracy only affects
    BALANCE, never correctness, because the bucket map is monotone and
    tie-consistent (equal keys share a bucket); (2) a per-batch bincount
    combiner reduces to an n_buckets-row table whose prefix sums give
    each bucket's global offset (O(n_buckets) on the driver —
    parallelism-sized, not data-sized); (3) one groupby(bucket) shuffle
    sorts WITHIN each bucket and adds the broadcast offset. Equivalent
    to a range-partitioned sort (what ds.sort does internally) but the
    enumeration needs no second pass because offsets are known before
    the shuffle."""
    import ray
    from ray.data.aggregate import Sum

    from odinson_ray.stages.link import get_broadcast
    from odinson_ray.stages.sketch import approx_quantile_values

    orders = table(sf_dir, "orders",
                   columns=["o_orderkey", "o_totalprice"])
    boundaries = np.unique(approx_quantile_values(
        orders, "o_totalprice", np.arange(1, n_buckets) / n_buckets))

    def bucket_of(v: np.ndarray) -> np.ndarray:
        return np.searchsorted(boundaries, v, side="left")

    def count_partial(t: pa.Table) -> pa.Table:
        b = bucket_of(t["o_totalprice"].to_numpy(zero_copy_only=False))
        cnt = np.bincount(b, minlength=n_buckets)
        nz = np.nonzero(cnt)[0]
        return pa.table({"bucket": pa.array(nz, pa.int64()),
                         "partial_n": pa.array(cnt[nz], pa.int64())})

    counts = {r["bucket"]: r["n"] for r in
              orders.map_batches(count_partial, batch_format="pyarrow")
              .groupby("bucket").aggregate(Sum("partial_n", alias_name="n"))
              .take_all()}
    # descending price order => buckets consumed from high id to low id
    offsets, acc = {}, 0
    for b in range(n_buckets - 1, -1, -1):
        offsets[b] = acc
        acc += counts.get(b, 0)
    ref = ray.put(offsets)

    def tag(t: pa.Table) -> pa.Table:
        b = bucket_of(t["o_totalprice"].to_numpy(zero_copy_only=False))
        return t.append_column("bucket", pa.array(b, pa.int64()))

    def enumerate_bucket(g: pa.Table) -> pa.Table:
        off = get_broadcast(ref)[g["bucket"][0].as_py()]
        price = g["o_totalprice"].to_numpy(zero_copy_only=False)
        key = g["o_orderkey"].to_numpy(zero_copy_only=False)
        o = np.lexsort((key, -price))
        rn = np.empty(len(o), dtype=np.int64)
        rn[o] = off + 1 + np.arange(len(o))
        return pa.table({"o_orderkey": g["o_orderkey"],
                         "o_totalprice": g["o_totalprice"],
                         "rn": pa.array(rn, pa.int64())})

    total = acc
    ds = (orders.map_batches(tag, batch_format="pyarrow")
          .groupby("bucket").map_groups(enumerate_bucket, batch_format="pyarrow"))
    return ds, total


ORACLE_GLOBAL_ROW_NUMBER = """
SELECT o_orderkey,
       ROW_NUMBER() OVER (ORDER BY o_totalprice DESC, o_orderkey) AS rn
FROM orders
"""


@query("global_row_number", oracle=ORACLE_GLOBAL_ROW_NUMBER)
def q_global_row_number(sf_dir: str):
    """ROW_NUMBER() over a global total order, distributed (see
    _enumerated_orders for the offset-before-shuffle shape)."""
    ds, _ = _enumerated_orders(sf_dir)
    return ds.select_columns(["o_orderkey", "rn"])


# ===================================== NTILE equi-depth bucketing


ORACLE_NTILE_ORDERS = """
WITH ranked AS (
  SELECT o_totalprice,
         ROW_NUMBER() OVER (ORDER BY o_totalprice DESC, o_orderkey) AS rn,
         NTILE(4) OVER (ORDER BY o_totalprice DESC, o_orderkey) AS tile
  FROM orders
)
SELECT tile, count(*) AS n_orders,
       CAST(FLOOR(sum(o_totalprice) * 100 + 0.5) AS BIGINT) AS sum_price_ct,
       min(rn) AS min_rn, max(rn) AS max_rn
FROM ranked GROUP BY tile
"""


@query("ntile_orders", oracle=ORACLE_NTILE_ORDERS)
def q_ntile_orders(sf_dir: str, tiles: int = 4):
    """NTILE(4) over the same total order, then a per-tile rollup.
    SQL NTILE gives the first (n mod k) tiles one extra row; that is a
    pure function of rn and n, applied vectorized after the distributed
    enumeration — no extra shuffle beyond _enumerated_orders' one."""
    from ray.data.aggregate import Count, Max, Min, Sum

    ds, n = _enumerated_orders(sf_dir)
    q, r = divmod(n, tiles)

    def tile_of(t: pa.Table) -> pa.Table:
        rn = t["rn"].to_numpy(zero_copy_only=False)
        big = r * (q + 1)  # rows living in the (q+1)-sized tiles
        tile = np.where(rn <= big,
                        (rn - 1) // (q + 1) + 1 if q + 1 else 1,
                        r + (rn - big - 1) // max(q, 1) + 1)
        return pa.table({"tile": pa.array(tile, pa.int64()),
                         "o_totalprice": t["o_totalprice"],
                         "rn": t["rn"]})

    out = (ds.map_batches(tile_of, batch_format="pyarrow")
           .groupby("tile")
           .aggregate(Count(alias_name="n_orders"),
                      Sum("o_totalprice", alias_name="sum_price"),
                      Min("rn", alias_name="min_rn"),
                      Max("rn", alias_name="max_rn")))

    def fin(t: pa.Table) -> pa.Table:
        # integer cents via floor(x*100 + 0.5): a ~1e9 sum rounded to 2dp
        # still sits on a double whose ulp (>1e-7) exceeds the gate's
        # absolute 1e-9 tolerance; both sides computing the identical
        # floor expression lands on the same int regardless of ulp drift
        s = t["sum_price"].to_numpy(zero_copy_only=False)
        ct = np.floor(s * 100.0 + 0.5).astype(np.int64)
        return t.set_column(t.schema.get_field_index("sum_price"),
                            "sum_price_ct", pa.array(ct, pa.int64()))

    return out.map_batches(fin, batch_format="pyarrow")


# ===================================== distributed Pearson correlation


ORACLE_CORR_LINEITEM = """
SELECT l_returnflag, count(*) AS n,
       round(corr(l_quantity, l_extendedprice), 6) AS corr_qty_price
FROM lineitem GROUP BY l_returnflag
"""


@query("corr_lineitem", oracle=ORACLE_CORR_LINEITEM)
def q_corr_lineitem(sf_dir: str):
    """Per-group Pearson correlation of quantity vs extendedprice via
    map-side sufficient statistics: each batch collapses to one
    (n, sx, sy, sxx, syy, sxy) row per key, the global groupby sums
    six numbers per key, and corr falls out algebraically — one tiny
    shuffle, nothing data-sized anywhere. (n-1) cancels in the ratio,
    so sample corr == this formula exactly."""
    ds = table(sf_dir, "lineitem",
               columns=["l_returnflag", "l_quantity", "l_extendedprice"])

    def partial(t: pa.Table) -> pa.Table:
        x, y = t["l_quantity"], t["l_extendedprice"]
        return pa.table({
            "l_returnflag": t["l_returnflag"],
            "x": x, "y": y,
            "xx": pc.multiply(x, x), "yy": pc.multiply(y, y),
            "xy": pc.multiply(x, y),
        })

    agg = combine_aggregate(ds.map_batches(partial, batch_format="pyarrow"),
                            "l_returnflag",
                            [("n", None, "count_all"), ("sx", "x", "sum"),
                             ("sy", "y", "sum"), ("sxx", "xx", "sum"),
                             ("syy", "yy", "sum"), ("sxy", "xy", "sum")])

    def fin(t: pa.Table) -> pa.Table:
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        sx = t["sx"].to_numpy(zero_copy_only=False)
        sy = t["sy"].to_numpy(zero_copy_only=False)
        cov = t["sxy"].to_numpy(zero_copy_only=False) - sx * sy / n
        vx = t["sxx"].to_numpy(zero_copy_only=False) - sx * sx / n
        vy = t["syy"].to_numpy(zero_copy_only=False) - sy * sy / n
        corr = cov / np.sqrt(vx * vy)
        return pa.table({"l_returnflag": t["l_returnflag"],
                         "n": t["n"],
                         "corr_qty_price": pa.array(np.round(corr, 6),
                                                    pa.float64())})

    return agg.map_batches(fin, batch_format="pyarrow")


# ===================================== grouped linear regression


ORACLE_REGRESS_LINEITEM = """
SELECT l_returnflag,
       round(regr_slope(l_extendedprice, l_quantity), 6) AS slope,
       round(regr_intercept(l_extendedprice, l_quantity), 4) AS intercept,
       round(regr_r2(l_extendedprice, l_quantity), 6) AS r2
FROM lineitem GROUP BY l_returnflag
"""


@query("regress_lineitem", oracle=ORACLE_REGRESS_LINEITEM)
def q_regress_lineitem(sf_dir: str):
    """Per-group OLS of extendedprice on quantity (slope / intercept /
    R^2) from the SAME six sufficient statistics as corr_lineitem — the
    map-side-combine family covers every closed-form regression
    aggregate for free; only six numbers per key ever shuffle."""
    ds = table(sf_dir, "lineitem",
               columns=["l_returnflag", "l_quantity", "l_extendedprice"])

    def partial(t: pa.Table) -> pa.Table:
        x, y = t["l_quantity"], t["l_extendedprice"]
        return pa.table({
            "l_returnflag": t["l_returnflag"],
            "x": x, "y": y,
            "xx": pc.multiply(x, x), "yy": pc.multiply(y, y),
            "xy": pc.multiply(x, y),
        })

    agg = combine_aggregate(ds.map_batches(partial, batch_format="pyarrow"),
                            "l_returnflag",
                            [("n", None, "count_all"), ("sx", "x", "sum"),
                             ("sy", "y", "sum"), ("sxx", "xx", "sum"),
                             ("syy", "yy", "sum"), ("sxy", "xy", "sum")])

    def fin(t: pa.Table) -> pa.Table:
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        sx = t["sx"].to_numpy(zero_copy_only=False)
        sy = t["sy"].to_numpy(zero_copy_only=False)
        sxx = t["sxx"].to_numpy(zero_copy_only=False)
        syy = t["syy"].to_numpy(zero_copy_only=False)
        sxy = t["sxy"].to_numpy(zero_copy_only=False)
        cov = sxy - sx * sy / n
        vx = sxx - sx * sx / n
        vy = syy - sy * sy / n
        slope = cov / vx
        intercept = sy / n - slope * (sx / n)
        r2 = (cov * cov) / (vx * vy)
        return pa.table({
            "l_returnflag": t["l_returnflag"],
            "slope": pa.array(np.round(slope, 6), pa.float64()),
            "intercept": pa.array(np.round(intercept, 4), pa.float64()),
            "r2": pa.array(np.round(r2, 6), pa.float64()),
        })

    return agg.map_batches(fin, batch_format="pyarrow")


# ===================================== skyline (Pareto frontier) over orders


ORACLE_SKYLINE_ORDERS = """
WITH o AS (
  SELECT o_orderkey, o_orderdate,
         CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT) AS cents
  FROM orders
)
SELECT o_orderkey, o_orderdate, cents FROM o r
WHERE NOT EXISTS (
  SELECT 1 FROM o s
  WHERE s.o_orderdate <= r.o_orderdate AND s.cents >= r.cents
    AND (s.o_orderdate < r.o_orderdate OR s.cents > r.cents)
)
"""


@query("skyline_orders", oracle=ORACLE_SKYLINE_ORDERS)
def q_skyline_orders(sf_dir: str):
    """2-D skyline: orders not dominated by any other order (a dominator
    has an earlier-or-equal date AND a greater-or-equal price, strictly
    better in at least one dimension).

    Scale shape: the per-date MAX is a plain combiner + small groupby
    (the date domain is bounded — ~2.4k values per decade — regardless
    of row count), the exclusive prefix-cummax over sorted dates runs on
    that tiny table, and the surviving (date, max_cents) pairs are
    broadcast once (ray.put) into a second streaming pass that filters
    full rows. Two passes over the input, zero all-to-all on row data.
    Prices compare as integer cents (floor(x*100+0.5)) so both sides
    agree bit-exactly."""
    import ray

    cols = ["o_orderkey", "o_orderdate", "o_totalprice"]

    def with_cents(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.floor(pc.add(pc.multiply(t["o_totalprice"], 100.0), 0.5)),
                        pa.int64())
        return pa.table({"o_orderkey": t["o_orderkey"],
                         "o_orderdate": t["o_orderdate"],
                         "cents": cents})

    per_date = (
        combine_aggregate(
            table(sf_dir, "orders", columns=cols)
            .map_batches(with_cents, batch_format="pyarrow"),
            "o_orderdate", [("max_cents", "cents", "max")])
        .to_pandas()
        .sort_values("o_orderdate")
        .reset_index(drop=True)
    )
    m = per_date["max_cents"].to_numpy()
    prefix = np.concatenate([[np.iinfo(np.int64).min],
                             np.maximum.accumulate(m)[:-1]])
    keep = m > prefix
    # keys normalized to int64 epoch-us: datetime64 hashes are unit-
    # sensitive (a [ns] driver-side key never matches a [us] batch key)
    survivors = {
        int(d): int(c)
        for d, c in zip(per_date["o_orderdate"][keep]
                        .astype("datetime64[us]").astype(np.int64).to_numpy(),
                        per_date["max_cents"][keep].to_numpy())
    }
    ref = ray.put(survivors)

    def pick(t: pa.Table) -> pa.Table:
        sv = ray.get(ref)
        t = with_cents(t)
        dates = t["o_orderdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        cents = t["cents"].to_numpy(zero_copy_only=False)
        want = np.fromiter(
            (sv.get(int(d), -1) == c for d, c in zip(dates, cents)),
            dtype=bool, count=len(cents))
        return t.filter(pa.array(want))

    return table(sf_dir, "orders", columns=cols).map_batches(
        pick, batch_format="pyarrow")


# ===================================== unpivot (melt) lineitem measures


ORACLE_UNPIVOT_MEASURES = """
SELECT 'l_quantity' AS measure,
       CAST(FLOOR(sum(l_quantity) * 100 + 0.5) AS BIGINT) AS total_cents,
       count(*) AS n FROM lineitem
UNION ALL
SELECT 'l_extendedprice',
       CAST(FLOOR(sum(l_extendedprice) * 100 + 0.5) AS BIGINT), count(*)
FROM lineitem
UNION ALL
SELECT 'l_discount',
       CAST(FLOOR(sum(l_discount) * 100 + 0.5) AS BIGINT), count(*)
FROM lineitem
UNION ALL
SELECT 'l_tax',
       CAST(FLOOR(sum(l_tax) * 100 + 0.5) AS BIGINT), count(*)
FROM lineitem
"""


@query("unpivot_measures", oracle=ORACLE_UNPIVOT_MEASURES)
def q_unpivot_measures(sf_dir: str):
    """Wide-to-long unpivot of the four lineitem measures folded directly
    into a per-batch partial sum — the long table (4x rows) never
    materializes; the global exchange moves 4 rows per batch."""
    from ray.data.aggregate import Sum

    measures = ["l_quantity", "l_extendedprice", "l_discount", "l_tax"]

    def partial(t: pa.Table) -> pa.Table:
        names, sums, ns = [], [], []
        for m in measures:
            names.append(m)
            sums.append(pc.sum(t[m]).as_py() or 0.0)
            ns.append(t.num_rows)
        return pa.table({"measure": names,
                         "_s": pa.array(sums, pa.float64()),
                         "_n": pa.array(ns, pa.int64())})

    out = (
        table(sf_dir, "lineitem", columns=measures)
        .map_batches(partial, batch_format="pyarrow")
        .groupby("measure")
        .aggregate(Sum("_s", alias_name="_s"), Sum("_n", alias_name="n"))
        .to_pandas()
    )
    out["total_cents"] = np.floor(out["_s"] * 100 + 0.5).astype(np.int64)
    return out[["measure", "total_cents", "n"]]


# ===================================== snapshot diff (table change capture)


ORACLE_SNAPSHOT_DIFF = """
WITH a AS (
  SELECT o_orderkey AS k,
         CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT) AS c
  FROM orders
), b AS (
  SELECT o_orderkey AS k,
         CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT)
           + CASE WHEN o_orderkey % 11 = 0 THEN 100 ELSE 0 END AS c
  FROM orders WHERE o_orderkey % 97 <> 0
  UNION ALL
  SELECT -o_orderkey, 99 FROM orders WHERE o_orderkey % 101 = 0
)
SELECT COALESCE(a.k, b.k) AS o_orderkey,
       CASE WHEN a.k IS NULL THEN 'added'
            WHEN b.k IS NULL THEN 'removed'
            ELSE 'changed' END AS change
FROM a FULL OUTER JOIN b ON a.k = b.k
WHERE a.k IS NULL OR b.k IS NULL OR a.c <> b.c
"""


@query("snapshot_diff", oracle=ORACLE_SNAPSHOT_DIFF)
def q_snapshot_diff(sf_dir: str):
    """Diff of two table snapshots -> (key, added|removed|changed).

    Snapshot B is derived deterministically from orders (keys % 97
    deleted, % 11 repriced +1.00, % 101 mirrored in as adds with a
    sentinel price) so the oracle can build the identical pair. Both
    snapshots stream through ONE pass that emits presence/price partial
    rows; a single groupby(key) sums the four partials and classifies —
    the only all-to-all is the unavoidable key exchange, and per-row
    integer cents avoid float-sum-order ambiguity entirely."""
    from ray.data.aggregate import Sum

    def partials(t: pa.Table) -> pa.Table:
        k = t["o_orderkey"].to_numpy(zero_copy_only=False)
        cents = np.floor(t["o_totalprice"].to_numpy(zero_copy_only=False)
                         * 100 + 0.5).astype(np.int64)
        zeros = np.zeros(len(k), dtype=np.int64)
        ones = np.ones(len(k), dtype=np.int64)
        a = {"k": k, "a_n": ones, "a_c": cents, "b_n": zeros, "b_c": zeros}
        keep = k % 97 != 0
        b_c = cents + np.where(k % 11 == 0, 100, 0)
        b = {"k": k[keep], "a_n": zeros[keep], "a_c": zeros[keep],
             "b_n": ones[keep], "b_c": b_c[keep]}
        addm = k % 101 == 0
        add = {"k": -k[addm], "a_n": zeros[addm], "a_c": zeros[addm],
               "b_n": ones[addm], "b_c": np.full(int(addm.sum()), 99, np.int64)}
        return pa.table({c: np.concatenate([a[c], b[c], add[c]])
                         for c in ("k", "a_n", "a_c", "b_n", "b_c")})

    def classify(t: pa.Table) -> pa.Table:
        a_n = t["a_n"].to_numpy(zero_copy_only=False)
        b_n = t["b_n"].to_numpy(zero_copy_only=False)
        a_c = t["a_c"].to_numpy(zero_copy_only=False)
        b_c = t["b_c"].to_numpy(zero_copy_only=False)
        change = np.where(a_n == 0, "added",
                          np.where(b_n == 0, "removed", "changed"))
        keep = (a_n == 0) | (b_n == 0) | (a_c != b_c)
        return pa.table({"o_orderkey": t["k"], "change": pa.array(change)}
                        ).filter(pa.array(keep))

    return (
        table(sf_dir, "orders",
              columns=["o_orderkey", "o_totalprice"])
        .map_batches(partials, batch_format="pyarrow")
        .groupby("k")
        .aggregate(Sum("a_n", alias_name="a_n"), Sum("a_c", alias_name="a_c"),
                   Sum("b_n", alias_name="b_n"), Sum("b_c", alias_name="b_c"))
        .map_batches(classify, batch_format="pyarrow")
    )


# ===================================== dense rank over a bounded domain


ORACLE_DENSE_RANK_DATES = """
SELECT o_orderkey,
       DENSE_RANK() OVER (ORDER BY o_orderdate) AS date_rank
FROM orders
"""


@query("dense_rank_dates", oracle=ORACLE_DENSE_RANK_DATES)
def q_dense_rank_dates(sf_dir: str):
    """DENSE_RANK over o_orderdate for every order: the rank domain is
    the distinct-date set (bounded — ~365/year — regardless of row
    count), so ranks are computed once from a per-batch distinct
    combiner + small groupby, broadcast via ray.put, and applied in a
    second streaming pass. No row-level sort or enumeration shuffle —
    dense_rank over a bounded key domain never needs one."""
    import ray

    dates = (
        combine_aggregate(
            table(sf_dir, "orders", columns=["o_orderdate"]),
            "o_orderdate", [])
        .to_pandas()["o_orderdate"]
        .astype("datetime64[us]")
        .astype(np.int64)
        .sort_values()
        .to_numpy()
    )
    rank_of = {int(d): i + 1 for i, d in enumerate(dates)}
    ref = ray.put(rank_of)

    def apply_rank(t: pa.Table) -> pa.Table:
        ranks = ray.get(ref)
        d = pc.cast(pc.cast(t["o_orderdate"], pa.timestamp("us")),
                    pa.int64()).to_numpy(zero_copy_only=False)
        r = np.fromiter((ranks[int(x)] for x in d), dtype=np.int64,
                        count=len(d))
        return pa.table({"o_orderkey": t["o_orderkey"],
                         "date_rank": pa.array(r, pa.int64())})

    return table(
        sf_dir, "orders", columns=["o_orderkey", "o_orderdate"]
    ).map_batches(apply_rank, batch_format="pyarrow")


# ===================================== ratio-to-report (share of total)


ORACLE_REVENUE_SHARE = """
SELECT o_orderpriority,
       CAST(FLOOR(sum(o_totalprice) * 100 + 0.5) AS BIGINT) AS revenue_cents,
       round(sum(o_totalprice) / sum(sum(o_totalprice)) OVER (), 6) AS share
FROM orders GROUP BY o_orderpriority
"""


@query("revenue_share", oracle=ORACLE_REVENUE_SHARE)
def q_revenue_share(sf_dir: str):
    """Per-priority share of total revenue: one combined aggregate pass
    (the group domain is 5 values), then the normalize runs driver-side
    on the 5-row result — the total is derived from the same partials
    rather than a second scan."""

    out = (
        combine_aggregate(
            table(sf_dir, "orders",
                  columns=["o_orderpriority", "o_totalprice"]),
            "o_orderpriority", [("_s", "o_totalprice", "sum")])
        .to_pandas()
    )
    out["revenue_cents"] = np.floor(out["_s"] * 100 + 0.5).astype(np.int64)
    out["share"] = (out["_s"] / out["_s"].sum()).round(6)
    return out[["o_orderpriority", "revenue_cents", "share"]]


# ===================================== EXCEPT via presence flags


ORACLE_URGENT_NOT_LOW_CUSTS = """
SELECT DISTINCT o_custkey FROM orders WHERE o_orderpriority = '1-URGENT'
EXCEPT
SELECT DISTINCT o_custkey FROM orders WHERE o_orderpriority = '5-LOW'
"""


@query("urgent_not_low_custs", oracle=ORACLE_URGENT_NOT_LOW_CUSTS)
def q_urgent_not_low_custs(sf_dir: str):
    """Set difference (customers with an URGENT order EXCEPT customers
    with a LOW one) without running two pipelines: per-batch per-key
    presence flags, one groupby(key).max over the flag pair, filter.
    One shuffle whose rows are bounded by distinct keys per batch."""

    def flags(t: pa.Table) -> pa.Table:
        return pa.table({
            "o_custkey": t["o_custkey"],
            "_u": pc.cast(pc.equal(t["o_orderpriority"], "1-URGENT"), pa.int8()),
            "_l": pc.cast(pc.equal(t["o_orderpriority"], "5-LOW"), pa.int8()),
        })

    return (
        combine_aggregate(
            table(sf_dir, "orders",
                  columns=["o_custkey", "o_orderpriority"])
            .map_batches(flags, batch_format="pyarrow"),
            "o_custkey", [("_a", "_u", "max"), ("_b", "_l", "max")])
        .map_batches(
            lambda t: t.filter(pc.and_(pc.equal(t["_a"], 1),
                                       pc.equal(t["_b"], 0))).select(["o_custkey"]),
            batch_format="pyarrow")
    )


# ===================================== interval-interval overlap self-join
_DAY_US = 86_400 * 1_000_000


_WIN_US = 7 * _DAY_US


def overlap_pairs_per_key(ds, key: str, ident: str, start: str,
                          width_us: int):
    """Count overlapping interval pairs per key, where each row's
    interval is the CLOSED [start, start + width_us]. The classic
    bucketed interval join: every interval is replicated to the
    width-sized time buckets it spans (fixed-width windows span <= 2),
    pairs form only within a (key, bucket) group, and each overlapping
    pair is counted EXACTLY ONCE by attributing it to the bucket
    containing max(start_a, start_b) (a point both intervals contain iff
    they overlap). Pairing runs segmented-numpy inside one coarse
    exchange on key — the per-(key,bucket) group never becomes a task —
    and a group's size is bounded by the key's activity within one
    window width, not its lifetime row count."""
    from ray.data.aggregate import Sum

    def expand(t: pa.Table) -> pa.Table:
        s = pc.cast(pc.cast(t[start], pa.timestamp("us")), pa.int64())
        s = s.to_numpy(zero_copy_only=False)
        k = t[key].to_numpy(zero_copy_only=False)
        i = t[ident].to_numpy(zero_copy_only=False)
        b0 = s // width_us
        b1 = (s + width_us) // width_us
        reps = (b1 - b0 + 1).astype(np.int64)  # <= 2 for fixed width
        idx = np.repeat(np.arange(len(s)), reps)
        off = np.arange(len(idx)) - np.repeat(np.cumsum(reps) - reps, reps)
        bkt = b0[idx] + off
        return pa.table({
            "key": pa.array(k[idx], pa.int64()),
            "ident": pa.array(i[idx], pa.int64()),
            "s": pa.array(s[idx], pa.int64()),
            "bkt": pa.array(bkt, pa.int64()),
        })

    def pair_partition(g: pa.Table) -> pa.Table:
        k = g["key"].to_numpy(zero_copy_only=False)
        b = g["bkt"].to_numpy(zero_copy_only=False)
        s = g["s"].to_numpy(zero_copy_only=False)
        n = len(k)
        brk = (k[1:] != k[:-1]) | (b[1:] != b[:-1])
        starts = np.concatenate(([0], np.flatnonzero(brk) + 1, [n]))
        keys_out, cnt_out = [], []
        for lo, hi in zip(starts[:-1], starts[1:]):
            m = hi - lo
            if m < 2:
                continue
            iu, ju = np.triu_indices(m, k=1)
            sa, sb = s[lo + iu], s[lo + ju]
            mx = np.maximum(sa, sb)
            # overlap of closed [s, s+W]: max(s) <= min(s) + W
            ok = (mx <= np.minimum(sa, sb) + width_us) & (mx // width_us == b[lo])
            c = int(np.count_nonzero(ok))
            if c:
                keys_out.append(int(k[lo]))
                cnt_out.append(c)
        return pa.table({"key": pa.array(keys_out, pa.int64()),
                         "pn": pa.array(cnt_out, pa.int64())})

    return (
        coarse_groups(ds.map_batches(expand, batch_format="pyarrow"),
                      ["key"], pair_partition, ["bkt", "ident"])
        .groupby("key").aggregate(Sum("pn", alias_name="n_pairs"))
    )


ORACLE_ORDER_WINDOW_OVERLAPS = """
WITH w AS (
  SELECT o_custkey, o_orderkey, o_orderdate AS s,
         o_orderdate + INTERVAL 7 DAY AS e
  FROM orders
)
SELECT a.o_custkey AS custkey, CAST(count(*) AS BIGINT) AS n_pairs
FROM w a JOIN w b
  ON a.o_custkey = b.o_custkey AND a.o_orderkey < b.o_orderkey
 AND a.s <= b.e AND b.s <= a.e
GROUP BY 1
"""


@query("order_window_overlaps", oracle=ORACLE_ORDER_WINDOW_OVERLAPS)
def q_order_window_overlaps(sf_dir: str):
    """Per-customer count of overlapping 7-day order-window pairs —
    the interval-interval overlap self-join (dedup shipments whose
    fulfillment windows collide)."""
    ds = table(sf_dir, "orders",
               columns=["o_custkey", "o_orderkey", "o_orderdate"])
    out = overlap_pairs_per_key(ds, key="o_custkey", ident="o_orderkey",
                                start="o_orderdate", width_us=_WIN_US)
    return out.map_batches(
        lambda t: pa.table({"custkey": t["key"], "n_pairs": t["n_pairs"]}),
        batch_format="pyarrow")


# ===================================== CDC MERGE (upsert/delete apply)


ORACLE_MERGE_UPSERT = """
WITH chg AS (
  SELECT o_orderkey AS ck, 'U' AS op,
         floor(o_totalprice * 1.1 * 100 + 0.5) / 100 AS new_price,
         CAST(NULL AS VARCHAR) AS new_priority
  FROM orders WHERE o_orderkey % 10 = 0
  UNION ALL
  SELECT o_orderkey, 'D', NULL, NULL FROM orders WHERE o_orderkey % 10 = 1
  UNION ALL
  SELECT o_orderkey + 100000000, 'I', o_totalprice, o_orderpriority
  FROM orders WHERE o_orderkey % 10 = 2
),
merged AS (
  SELECT CASE WHEN c.op = 'I' THEN c.new_priority
              ELSE o.o_orderpriority END AS priority,
         CASE WHEN c.op IN ('U', 'I') THEN c.new_price
              ELSE o.o_totalprice END AS price
  FROM orders o FULL OUTER JOIN chg c ON c.ck = o.o_orderkey
  WHERE c.op IS NULL OR c.op != 'D'
)
SELECT priority, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(CAST(floor(price * 100 + 0.5) AS BIGINT)) AS BIGINT) AS cents
FROM merged GROUP BY priority
"""


@query("merge_upsert", oracle=ORACLE_MERGE_UPSERT)
def q_merge_upsert(sf_dir: str):
    """MERGE INTO: apply a changeset (updates / deletes / inserts) to a
    snapshot with ONE distributed full-outer hash join — the CDC-apply
    primitive every incremental lakehouse pipeline runs. The changeset
    here is a pure function of the snapshot (deterministic at any
    parallelism): keys ≡0 (mod 10) get a 10% price update, ≡1 are
    deleted, ≡2 spawn an insert under key+10^8. Neither side ever
    lands on the driver; the merge decision is a vectorized CASE over
    the joined batch. Output is the post-merge per-priority rowcount +
    price total (integer cents so the oracle compares bit-exactly)."""
    from odinson_ray.stages.shuffle import hash_join

    snap = table(
        sf_dir, "orders",
        columns=["o_orderkey", "o_orderpriority", "o_totalprice"])

    def changes(t: pa.Table) -> pa.Table:
        k = t["o_orderkey"].to_numpy(zero_copy_only=False)
        price = t["o_totalprice"].to_numpy(zero_copy_only=False)
        pri = t["o_orderpriority"]
        m = k % 10
        upd, dele, ins = m == 0, m == 1, m == 2
        # floor(x*100+0.5)/100: the repo's bit-exact 2dp idiom
        new_price = np.floor(price * 1.1 * 100.0 + 0.5) / 100.0
        ck = np.concatenate([k[upd], k[dele], k[ins] + 100_000_000])
        op = np.concatenate([np.full(upd.sum(), "U"),
                             np.full(dele.sum(), "D"),
                             np.full(ins.sum(), "I")])
        np_ = np.concatenate([new_price[upd],
                              np.full(dele.sum(), np.nan),
                              price[ins]])
        npri = pa.concat_arrays([
            pa.nulls(int(upd.sum()), pa.string()),
            pa.nulls(int(dele.sum()), pa.string()),
            pri.filter(pa.array(ins)).combine_chunks(),
        ])
        return pa.table({
            "ck": pa.array(ck, pa.int64()),
            "op": pa.array(op, pa.string()),
            "new_price": pa.array(np_, pa.float64()),
            "new_priority": npri,
        })

    chg = snap.map_batches(changes, batch_format="pyarrow")

    snap_schema = pa.schema([("o_orderkey", pa.int64()),
                             ("o_orderpriority", pa.string()),
                             ("o_totalprice", pa.float64())])
    chg_schema = pa.schema([("ck", pa.int64()), ("op", pa.string()),
                            ("new_price", pa.float64()),
                            ("new_priority", pa.string())])
    merged = hash_join(snap, chg, on="o_orderkey", right_on="ck",
                       how="full_outer", left_schema=snap_schema,
                       right_schema=chg_schema)

    def apply_merge(t: pa.Table) -> pa.Table:
        op = t["op"]
        is_u = pc.equal(op, "U")
        is_d = pc.equal(op, "D")
        is_i = pc.equal(op, "I")
        keep = pc.or_kleene(pc.is_null(op), pc.invert(is_d))
        price = pc.if_else(pc.fill_null(pc.or_(is_u, is_i), False),
                           t["new_price"], t["o_totalprice"])
        pri = pc.if_else(pc.fill_null(is_i, False),
                         t["new_priority"], t["o_orderpriority"])
        out = pa.table({"priority": pri, "price": price}).filter(keep)
        cents = pc.cast(pc.floor(pc.add(pc.multiply(
            out["price"], pa.scalar(100.0)), pa.scalar(0.5))), pa.int64())
        return pa.table({"priority": out["priority"], "cents": cents})

    return combine_aggregate(
        merged.map_batches(apply_merge, batch_format="pyarrow"),
        "priority", [("n", None, "count_all"), ("cents", "cents", "sum")])


# ===================================== SCD2 dimension build


ORACLE_SCD2_INTERVALS = """
WITH h AS (
  SELECT o_custkey, o_orderpriority AS p, o_orderdate AS d, o_orderkey AS k,
         CASE WHEN lag(o_orderpriority) OVER w IS DISTINCT FROM
                   o_orderpriority THEN 1 ELSE 0 END AS chg
  FROM orders
  WINDOW w AS (PARTITION BY o_custkey ORDER BY o_orderdate, o_orderkey)
),
r AS (
  SELECT *, sum(chg) OVER (PARTITION BY o_custkey ORDER BY d, k
                           ROWS UNBOUNDED PRECEDING) AS run
  FROM h
),
g AS (
  SELECT o_custkey, min(p) AS priority, min(d) AS valid_from,
         CAST(count(*) AS BIGINT) AS n_orders, run
  FROM r GROUP BY o_custkey, run
)
SELECT o_custkey, priority, valid_from,
       lead(valid_from) OVER (PARTITION BY o_custkey ORDER BY run)
         AS valid_to,
       n_orders
FROM g
"""


@query("scd2_intervals", oracle=ORACLE_SCD2_INTERVALS)
def q_scd2_intervals(sf_dir: str):
    """Slowly-changing-dimension (type 2) build: collapse each customer's
    order-priority history into validity intervals [valid_from, valid_to)
    — one interval per run of consecutive equal priorities in
    (o_orderdate, o_orderkey) order, valid_to = next run's start (NULL
    for the current record). The gaps-and-islands op every dimension
    pipeline needs.

    Scale shape (tiny-group rule): ONE coarse exchange on custkey, then
    every key run in a partition resolves with one pass of segmented
    numpy; no per-key task ever forms. A key's whole history must fit
    the partition — dimension-table semantics (bounded updates per
    entity), NOT the unbounded-event-stream case (that class uses the
    (key, bucket) carry decomposition, stages/window.py)."""
    ds = table(
        sf_dir, "orders",
        columns=["o_custkey", "o_orderdate", "o_orderkey",
                 "o_orderpriority"])

    def resolve(g: pa.Table) -> pa.Table:
        c = g["o_custkey"].to_numpy(zero_copy_only=False)
        d = g["o_orderdate"].cast(pa.timestamp("us")).cast(
            pa.int64()).to_numpy(zero_copy_only=False)  # unit-normalized
        p = g["o_orderpriority"].to_numpy(zero_copy_only=False)
        n = len(c)
        new_key = np.empty(n, dtype=bool)
        new_key[0] = True
        new_key[1:] = c[1:] != c[:-1]
        new_run = new_key | np.concatenate(([True], p[1:] != p[:-1]))
        starts = np.flatnonzero(new_run)
        run_n = np.diff(np.append(starts, n))
        run_cust = c[starts]
        run_from = d[starts]
        # valid_to = next run's valid_from when same customer, else NULL
        nxt = np.empty(len(starts), dtype=np.int64)
        same = np.empty(len(starts), dtype=bool)
        nxt[:-1] = run_from[1:]
        nxt[-1] = 0
        same[:-1] = run_cust[1:] == run_cust[:-1]
        same[-1] = False
        vt = pa.array(np.where(same, nxt, 0).astype(np.int64),
                      pa.int64()).cast(pa.timestamp("us"))
        return pa.table({
            "o_custkey": pa.array(run_cust, pa.int64()),
            "priority": pa.array(p[starts], pa.string()),
            "valid_from": pa.array(run_from, pa.int64()).cast(
                pa.timestamp("us")),
            "valid_to": vt,
            "_same": pa.array(same),
            "n_orders": pa.array(run_n, pa.int64()),
        })

    out = coarse_groups(ds, ["o_custkey"], resolve,
                        ["o_orderdate", "o_orderkey"])

    def null_open(t: pa.Table) -> pa.Table:
        vt = pc.if_else(t["_same"], t["valid_to"],
                        pa.nulls(t.num_rows, pa.timestamp("us")))
        return pa.table({
            "o_custkey": t["o_custkey"], "priority": t["priority"],
            "valid_from": t["valid_from"], "valid_to": vt,
            "n_orders": t["n_orders"]})

    return out.map_batches(null_open, batch_format="pyarrow")


# ===================================== TPC-H Q3 shape (3-way join top-k)


ORACLE_TPCH_Q3 = """
SELECT o_orderkey, o_orderdate,
       CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5)
                     AS BIGINT)) AS BIGINT) AS rev_cents
FROM customer
JOIN orders ON o_custkey = c_custkey
JOIN lineitem ON l_orderkey = o_orderkey
WHERE c_mktsegment = 'BUILDING'
  AND o_orderdate < TIMESTAMP '1995-03-15'
  AND l_shipdate > TIMESTAMP '1995-03-15'
GROUP BY o_orderkey, o_orderdate
ORDER BY rev_cents DESC, o_orderkey LIMIT 10
"""


@query("tpch_q3", oracle=ORACLE_TPCH_Q3)
def q_tpch_q3(sf_dir: str):
    """Shipping-priority revenue: customer ⋈ orders ⋈ lineitem with
    selective date predicates, grouped revenue, global top-10. The
    canonical star-join: orders semi-join the market-segment customers
    through ``broadcast_or_join`` (a broadcast key probe while the
    segment fits under the broadcast size, a semi hash join past it),
    the orders×lineitem join is the big shuffle, revenue combines
    map-side per (orderkey, orderdate) before the global groupby, and
    the top-k is the pruned global_topk. Revenue in integer cents for
    bit-exact comparison."""
    from odinson_ray.stages.shuffle import (
        broadcast_or_join, global_topk, hash_join)

    CUT = np.datetime64("1995-03-15T00:00:00", "us").astype(np.int64)

    cust = table(
        sf_dir, "customer",
        columns=["c_custkey", "c_mktsegment"]).map_batches(
        lambda t: t.filter(pc.equal(t["c_mktsegment"], "BUILDING")).select(
            ["c_custkey"]),
        batch_format="pyarrow")

    def orders_filter(t: pa.Table) -> pa.Table:
        d = t["o_orderdate"].cast(pa.timestamp("us")).cast(
            pa.int64()).to_numpy(zero_copy_only=False)
        return t.filter(pa.array(d < CUT))

    orders = table(
        sf_dir, "orders",
        columns=["o_orderkey", "o_custkey", "o_orderdate"]).map_batches(
        orders_filter, batch_format="pyarrow")

    orders = broadcast_or_join(
        orders, cust, on="o_custkey", right_on="c_custkey", how="semi",
        left_schema=pa.schema([("o_orderkey", pa.int64()),
                               ("o_custkey", pa.int64()),
                               ("o_orderdate", pa.timestamp("us"))]),
        right_schema=pa.schema([("c_custkey", pa.int64())]))

    def li_filter(t: pa.Table) -> pa.Table:
        d = t["l_shipdate"].cast(pa.timestamp("us")).cast(
            pa.int64()).to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(d > CUT))
        cents = pc.cast(pc.floor(pc.add(pc.multiply(pc.multiply(
            t["l_extendedprice"],
            pc.subtract(pa.scalar(1.0), t["l_discount"])),
            pa.scalar(100.0)), pa.scalar(0.5))), pa.int64())
        return pa.table({"l_orderkey": t["l_orderkey"], "cents": cents})

    li = table(
        sf_dir, "lineitem",
        columns=["l_orderkey", "l_extendedprice", "l_discount",
                 "l_shipdate"]).map_batches(li_filter,
                                            batch_format="pyarrow")

    joined = hash_join(
        orders, li, on="o_orderkey", right_on="l_orderkey",
        left_schema=pa.schema([("o_orderkey", pa.int64()),
                               ("o_orderdate", pa.timestamp("us"))]),
        right_schema=pa.schema([("l_orderkey", pa.int64()),
                                ("cents", pa.int64())]))

    rev = combine_aggregate(joined, ["o_orderkey", "o_orderdate"],
                            [("rev_cents", "cents", "sum")])
    return global_topk(rev, ["rev_cents", "o_orderkey"],
                       [True, False], 10)


# ===================================== data-quality gate


ORACLE_DQ_CHECKS = """
SELECT * FROM (
  SELECT 'lineitem_orphan_orderkey' AS check_name,
         CAST((SELECT count(*) FROM lineitem l
               WHERE NOT EXISTS (SELECT 1 FROM orders o
                                 WHERE o.o_orderkey = l.l_orderkey))
              AS BIGINT) AS violations
  UNION ALL
  SELECT 'orders_orphan_custkey',
         CAST((SELECT count(*) FROM orders o
               WHERE NOT EXISTS (SELECT 1 FROM customer c
                                 WHERE c.c_custkey = o.o_custkey))
              AS BIGINT)
  UNION ALL
  SELECT 'orders_duplicate_pk',
         CAST((SELECT coalesce(sum(n - 1), 0) FROM
               (SELECT count(*) AS n FROM orders GROUP BY o_orderkey))
              AS BIGINT)
  UNION ALL
  SELECT 'lineitem_nonpositive_qty',
         CAST((SELECT count(*) FROM lineitem WHERE l_quantity <= 0)
              AS BIGINT)
  UNION ALL
  SELECT 'orders_null_custkey',
         CAST((SELECT count(*) FROM orders WHERE o_custkey IS NULL)
              AS BIGINT)
)
"""


@query("dq_checks", oracle=ORACLE_DQ_CHECKS)
def q_dq_checks(sf_dir: str):
    """Constraint-violation audit over the warehouse tables — the
    data-quality gate a pipeline runs BEFORE training consumption
    (expectations-style): referential integrity in both directions
    (distributed anti joins — neither key set lands on the driver),
    primary-key duplication, and two value-domain checks. Output is the
    long-format (check_name, violations) report; only one scalar per
    check ever reaches the driver."""
    import pandas as pd

    from odinson_ray.stages.shuffle import hash_join

    i64 = pa.int64()
    f64 = pa.float64()
    # each base table feeds several sequential checks: pin once so the
    # five driver-blocking jobs do not rescan the parquet (orders 4x,
    # lineitem 2x otherwise)
    li = table(sf_dir, "lineitem",
               columns=["l_orderkey", "l_quantity"]).materialize()
    orders = table(
        sf_dir, "orders",
        columns=["o_orderkey", "o_custkey"]).materialize()
    cust = table(sf_dir, "customer",
                 columns=["c_custkey"])

    okeys = orders.map_batches(
        lambda t: partial_aggregate(t.select(["o_orderkey"]), ["o_orderkey"],
                                    []),
        batch_format="pyarrow")
    li_orphans = hash_join(
        li, okeys, on="l_orderkey", right_on="o_orderkey", how="anti",
        left_schema=pa.schema([("l_orderkey", i64), ("l_quantity", f64)]),
        right_schema=pa.schema([("o_orderkey", i64)])).count()

    ckeys = cust.map_batches(
        lambda t: partial_aggregate(t, ["c_custkey"], []),
        batch_format="pyarrow")
    ord_orphans = hash_join(
        orders, ckeys, on="o_custkey", right_on="c_custkey", how="anti",
        left_schema=pa.schema([("o_orderkey", i64), ("o_custkey", i64)]),
        right_schema=pa.schema([("c_custkey", i64)])).count()

    per_key = combine_aggregate(orders, "o_orderkey",
                                [("n", None, "count_all")])
    dup_pk = per_key.map_batches(
        lambda t: pa.table({"extra": pc.subtract(t["n"],
                                                 pa.scalar(1, i64))}),
        batch_format="pyarrow").sum("extra") or 0

    neg_qty = li.map_batches(
        lambda t: pa.table({"c": pa.array([int(pc.sum(pc.cast(
            pc.less_equal(t["l_quantity"], 0.0), i64)).as_py() or 0)],
            i64)}),
        batch_format="pyarrow").sum("c") or 0

    null_ckey = orders.map_batches(
        lambda t: pa.table({"c": pa.array([t["o_custkey"].null_count],
                                          i64)}),
        batch_format="pyarrow").sum("c") or 0

    return pd.DataFrame({
        "check_name": ["lineitem_orphan_orderkey", "orders_orphan_custkey",
                       "orders_duplicate_pk", "lineitem_nonpositive_qty",
                       "orders_null_custkey"],
        "violations": np.array([li_orphans, ord_orphans, dup_pk,
                                neg_qty, null_ckey], dtype=np.int64),
    })


# ===================================== distributed band join


ORACLE_BAND_JOIN = """
SELECT s_nationkey AS nationkey, CAST(count(*) AS BIGINT) AS n_pairs
FROM supplier JOIN customer
  ON c_nationkey = s_nationkey
 AND abs(s_acctbal - c_acctbal) <= 100.0
GROUP BY 1
"""


@query("band_join_acctbal", oracle=ORACLE_BAND_JOIN)
def q_band_join_acctbal(sf_dir: str, delta: float = 100.0):
    """Band join: supplier x customer in the SAME nation whose account
    balances differ by at most ``delta`` — the |a - b| <= d non-equi
    join SQL engines plan as an interval join. Distributed exactly by
    bucket blocking: bucket = floor(acctbal / delta); a pair within
    delta always sits within ONE bucket step, so the small side is
    replicated to buckets {b-1, b, b+1} and ONE equi hash join on
    (nation, bucket) + an exact residual filter finds every pair
    exactly once (the probe side keeps its single native bucket).
    Output: per-nation pair counts."""
    from odinson_ray.stages.shuffle import hash_join

    sup = table(sf_dir, "supplier",
                columns=["s_nationkey", "s_acctbal"])
    cust = table(sf_dir, "customer",
                 columns=["c_nationkey", "c_acctbal"])

    def _key(nk: pa.Array, b: np.ndarray) -> pa.Array:
        return pc.binary_join_element_wise(
            pc.cast(nk, pa.string()),
            pc.cast(pa.array(b, pa.int64()), pa.string()), SEP)

    def rep3(t: pa.Table) -> pa.Table:
        v = t["s_acctbal"].to_numpy(zero_copy_only=False)
        b = np.floor(v / delta).astype(np.int64)
        base = pa.table({"nk": t["s_nationkey"],
                         "s_acctbal": t["s_acctbal"]})
        out = pa.concat_tables([base, base, base]).combine_chunks()
        bb = np.concatenate([b - 1, b, b + 1])
        return pa.table({"jk": _key(out["nk"].combine_chunks(), bb),
                         "s_acctbal": out["s_acctbal"],
                         "s_nationkey": out["nk"]})

    def native(t: pa.Table) -> pa.Table:
        v = t["c_acctbal"].to_numpy(zero_copy_only=False)
        b = np.floor(v / delta).astype(np.int64)
        return pa.table({
            "jk": _key(t["c_nationkey"].combine_chunks(), b),
            "c_acctbal": t["c_acctbal"]})

    joined = hash_join(
        cust.map_batches(native, batch_format="pyarrow"),
        sup.map_batches(rep3, batch_format="pyarrow"),
        on="jk",
        left_schema=pa.schema([("jk", pa.string()),
                               ("c_acctbal", pa.float64())]),
        right_schema=pa.schema([("jk", pa.string()),
                                ("s_acctbal", pa.float64()),
                                ("s_nationkey", pa.int64())]))

    def residual(t: pa.Table) -> pa.Table:
        kept = t.filter(pc.less_equal(
            pc.abs(pc.subtract(t["c_acctbal"], t["s_acctbal"])), delta))
        return kept.select(["s_nationkey"]).rename_columns(["nationkey"])

    return combine_aggregate(joined.map_batches(residual, batch_format="pyarrow"),
                             "nationkey", [("n_pairs", None, "count_all")])


# ===================================== functional-dependency profiling
_FD_CANDIDATES = [
    ("custkey_determines_priority", "o_custkey", "o_orderpriority"),
    ("status_determines_priority", "o_orderstatus", "o_orderpriority"),
    ("priority_determines_status", "o_orderpriority", "o_orderstatus"),
]


ORACLE_FD_VIOLATIONS = """
SELECT * FROM (
  SELECT 'custkey_determines_priority' AS fd_name,
         CAST(count(*) AS BIGINT) AS lhs_total,
         CAST(sum(CASE WHEN nb > 1 THEN 1 ELSE 0 END) AS BIGINT)
             AS lhs_violating
  FROM (SELECT o_custkey, count(DISTINCT o_orderpriority) AS nb
        FROM orders GROUP BY 1)
  UNION ALL
  SELECT 'status_determines_priority',
         CAST(count(*) AS BIGINT),
         CAST(sum(CASE WHEN nb > 1 THEN 1 ELSE 0 END) AS BIGINT)
  FROM (SELECT o_orderstatus, count(DISTINCT o_orderpriority) AS nb
        FROM orders GROUP BY 1)
  UNION ALL
  SELECT 'priority_determines_status',
         CAST(count(*) AS BIGINT),
         CAST(sum(CASE WHEN nb > 1 THEN 1 ELSE 0 END) AS BIGINT)
  FROM (SELECT o_orderpriority, count(DISTINCT o_orderstatus) AS nb
        FROM orders GROUP BY 1)
)
"""


@query("fd_violations", oracle=ORACLE_FD_VIOLATIONS)
def q_fd_violations(sf_dir: str):
    """Functional-dependency profiling over orders: for each candidate
    A -> B, how many distinct A-values exist and how many map to MORE
    than one B (FD violations) — the schema-discovery pass data-quality
    tooling runs before declaring constraints. Per FD: one distinct
    (A, B) combiner groupby, then a per-A count — both
    vocabulary-bounded; two scalars per FD reach the driver."""
    import pandas as pd

    cols = sorted({c for _, a, b in _FD_CANDIDATES for c in (a, b)})
    base = table(sf_dir, "orders",
                 columns=cols).materialize()  # one scan, 3 FDs
    rows = []
    for name, a_col, b_col in _FD_CANDIDATES:
        ab = combine_aggregate(base, [a_col, b_col], [])
        lhs = ab.map_batches(
            lambda t, a=a_col: t.select([a]).rename_columns(["k"]),
            batch_format="pyarrow")
        counts = combine_aggregate(lhs, "k", [("nb", None, "count_all")]
                                   ).materialize()
        total = counts.count()
        violating = counts.map_batches(
            lambda t: t.filter(pc.greater(t["nb"], 1)),
            batch_format="pyarrow").count()
        rows.append((name, total, violating))

    return pd.DataFrame({
        "fd_name": [r[0] for r in rows],
        "lhs_total": np.array([r[1] for r in rows], dtype=np.int64),
        "lhs_violating": np.array([r[2] for r in rows], dtype=np.int64),
    })


# ===================================== TPC-H Q18: large-volume customers


ORACLE_TPCH_Q18 = """
SELECT c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice,
       CAST(floor(sum(l_quantity) + 0.5) AS BIGINT) AS sum_qty
FROM customer
JOIN orders ON o_custkey = c_custkey
JOIN lineitem ON l_orderkey = o_orderkey
GROUP BY c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice
HAVING sum(l_quantity) > 300
ORDER BY o_totalprice DESC, o_orderkey LIMIT 10
"""


@query("tpch_q18", oracle=ORACLE_TPCH_Q18)
def q_tpch_q18(sf_dir: str, threshold: float = 300.0):
    """Customers whose single orders exceed a quantity threshold: the
    filtered groupby (map-side qty combiner per l_orderkey, then the
    small HAVING survivor set) drives two distributed hash joins back
    onto orders and customer; pruned global top-10 by o_totalprice.
    The survivor set stays a Dataset — never collected on the driver."""
    from odinson_ray.stages.shuffle import global_topk, hash_join

    qty = combine_aggregate(
        table(sf_dir, "lineitem",
              columns=["l_orderkey", "l_quantity"]),
        "l_orderkey", [("sq", "l_quantity", "sum")]
    ).map_batches(lambda t: t.filter(pc.greater(t["sq"], threshold)),
                  batch_format="pyarrow")

    orders = table(
        sf_dir, "orders",
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"])
    j1 = hash_join(
        orders, qty, on="o_orderkey", right_on="l_orderkey",
        left_schema=pa.schema([("o_orderkey", pa.int64()),
                               ("o_custkey", pa.int64()),
                               ("o_orderdate", pa.timestamp("us")),
                               ("o_totalprice", pa.float64())]),
        right_schema=pa.schema([("l_orderkey", pa.int64()),
                                ("sq", pa.float64())]))
    cust = table(sf_dir, "customer",
                 columns=["c_custkey", "c_name"])
    j2 = hash_join(
        j1, cust, on="o_custkey", right_on="c_custkey",
        left_schema=pa.schema([("o_orderkey", pa.int64()),
                               ("o_custkey", pa.int64()),
                               ("o_orderdate", pa.timestamp("us")),
                               ("o_totalprice", pa.float64()),
                               ("sq", pa.float64())]),
        right_schema=pa.schema([("c_custkey", pa.int64()),
                                ("c_name", pa.string())]))

    def finish(t: pa.Table) -> pa.Table:
        sum_qty = pc.cast(pc.floor(pc.add(t["sq"], 0.5)), pa.int64())
        return pa.table({
            "c_name": t["c_name"],
            "c_custkey": t["o_custkey"],
            "o_orderkey": t["o_orderkey"],
            "o_orderdate": t["o_orderdate"],
            "o_totalprice": t["o_totalprice"],
            "sum_qty": sum_qty,
        })

    out = j2.map_batches(finish, batch_format="pyarrow")
    return global_topk(out, ["o_totalprice", "o_orderkey"],
                       [True, False], 10)


# ===================================== TPC-H Q14-class: promo revenue share


ORACLE_PROMO_SHARE = """
WITH li AS (
  SELECT CAST(year(l_shipdate) * 100 + month(l_shipdate) AS BIGINT) AS ym,
         CAST(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5)
              AS BIGINT) AS cents,
         CASE WHEN p_type = 'ECONOMY' THEN 1 ELSE 0 END AS is_promo
  FROM lineitem JOIN part ON p_partkey = l_partkey
)
SELECT ym,
       CAST(sum(cents * is_promo) AS BIGINT) AS promo_cents,
       CAST(sum(cents) AS BIGINT) AS total_cents,
       round(100.0 * sum(cents * is_promo) / sum(cents), 6)
         AS promo_share
FROM li GROUP BY ym
"""


@query("promo_share", oracle=ORACLE_PROMO_SHARE)
def q_promo_share(sf_dir: str, promo_type: str = "ECONOMY"):
    """Monthly promo revenue share. Scale shape: lineitem first
    collapses through a map-side (partkey, month) revenue combiner —
    the join input is bounded by |part| x |months|, not |lineitem| —
    then ONE distributed hash join attaches the part-type flag and a
    month combiner finishes. Integer-cents revenue for bit-exactness."""
    from odinson_ray.stages.shuffle import hash_join

    def li_project(t: pa.Table) -> pa.Table:
        d = t["l_shipdate"].cast(pa.timestamp("us"))
        ym = pc.add(pc.multiply(pc.cast(pc.year(d), pa.int64()), 100),
                    pc.cast(pc.month(d), pa.int64()))
        cents = pc.cast(pc.floor(pc.add(pc.multiply(pc.multiply(
            t["l_extendedprice"],
            pc.subtract(pa.scalar(1.0), t["l_discount"])),
            pa.scalar(100.0)), pa.scalar(0.5))), pa.int64())
        return pa.table({"l_partkey": t["l_partkey"], "ym": ym,
                         "cents": cents})

    li = combine_aggregate(
        table(sf_dir, "lineitem",
              columns=["l_partkey", "l_shipdate",
                       "l_extendedprice", "l_discount"])
        .map_batches(li_project, batch_format="pyarrow"),
        ["l_partkey", "ym"], [("cents", "cents", "sum")])

    def part_flag(t: pa.Table) -> pa.Table:
        return pa.table({
            "p_partkey": t["p_partkey"],
            "is_promo": pc.cast(pc.equal(t["p_type"], promo_type),
                                pa.int64()),
        })

    part = table(sf_dir, "part",
                 columns=["p_partkey", "p_type"]).map_batches(
        part_flag, batch_format="pyarrow")

    joined = hash_join(
        li, part, on="l_partkey", right_on="p_partkey",
        left_schema=pa.schema([("l_partkey", pa.int64()),
                               ("ym", pa.int64()),
                               ("cents", pa.int64())]),
        right_schema=pa.schema([("p_partkey", pa.int64()),
                                ("is_promo", pa.int64())]))

    def month_project(t: pa.Table) -> pa.Table:
        promo = pc.multiply(t["cents"], t["is_promo"])
        return pa.table({"ym": t["ym"], "p": promo, "a": t["cents"]})

    agg = combine_aggregate(
        joined.map_batches(month_project, batch_format="pyarrow"),
        "ym", [("promo_cents", "p", "sum"), ("total_cents", "a", "sum")])

    def finish(t: pa.Table) -> pa.Table:
        share = pc.round(pc.divide(
            pc.multiply(pc.cast(t["promo_cents"], pa.float64()), 100.0),
            pc.cast(t["total_cents"], pa.float64())), ndigits=6)
        return pa.table({"ym": t["ym"],
                         "promo_cents": t["promo_cents"],
                         "total_cents": t["total_cents"],
                         "promo_share": share})

    return agg.map_batches(finish, batch_format="pyarrow")


_US_PER_DAY = 86_400_000_000


def _cents(col) -> pa.ChunkedArray:
    return pc.cast(pc.floor(pc.add(pc.multiply(col, 100.0), 0.5)),
                   pa.int64())


# ===================================== TPC-H Q13: order-count distribution


ORACLE_TPCH_Q13 = """
SELECT c_count, CAST(count(*) AS BIGINT) AS custdist
FROM (SELECT c_custkey, CAST(count(o_orderkey) AS BIGINT) AS c_count
      FROM customer LEFT JOIN orders ON c_custkey = o_custkey
      GROUP BY c_custkey) t
GROUP BY c_count
"""


@query("tpch_q13", oracle=ORACLE_TPCH_Q13)
def q_tpch_q13(sf_dir: str):
    """Distribution of per-customer order counts INCLUDING zero-order
    customers: map-side per-custkey count combiner -> one left-outer
    hash join onto customer (zero-fill) -> second combiner over the
    count value. Both groupbys see pre-collapsed rows only."""

    counts = combine_aggregate(
        table(sf_dir, "orders",
              columns=["o_custkey"]),
        "o_custkey", [("cnt", "o_custkey", "count")])

    cust = table(sf_dir, "customer",
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


# ===================================== TPC-H Q7-class: nation trade volume


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


@query("nation_trade", oracle=ORACLE_NATION_TRADE)
def q_nation_trade(sf_dir: str):
    """Revenue between (supplier nation, customer nation, ship year),
    cross-nation only. Scale shape: neither the customer nor the
    supplier dimension is a driver dict (both scale with the corpus) —
    orders pick up the customer nation and lineitem the supplier nation
    through ``broadcast_or_join`` (zero-shuffle while the right side fits
    the broadcast size, hash join when it doesn't); lineitem collapses
    through a map-side (orderkey, supp nation, year) combiner; the big
    join keys on orderkey; a 3-key combiner finishes. Only the fixed-size
    nation names are a broadcast dict.
    """
    import ray

    from odinson_ray.stages.link import get_broadcast

    names_ref = ray.put(_dim_map(sf_dir, "nation", "n_nationkey", "n_name"))

    orders_cn = broadcast_or_join(
        table(sf_dir, "orders",
              columns=["o_orderkey", "o_custkey"]),
        table(sf_dir, "customer",
              columns=["c_custkey", "c_nationkey"]),
        on="o_custkey", right_on="c_custkey",
        left_schema=pa.schema([("o_orderkey", pa.int64()),
                               ("o_custkey", pa.int64())]),
        right_schema=pa.schema([("c_custkey", pa.int64()),
                                ("c_nationkey", pa.int32())]))

    def li_partial(t: pa.Table) -> pa.Table:
        year = pc.cast(pc.year(t["l_shipdate"].cast(pa.timestamp("us"))),
                       pa.int64())
        cents = _cents(pc.multiply(
            t["l_extendedprice"],
            pc.subtract(pa.scalar(1.0), t["l_discount"])))
        base = pa.table({
            "l_orderkey": t["l_orderkey"],
            "s_nationkey": t["s_nationkey"],
            "l_year": year, "cents": cents})
        return partial_aggregate(base, ["l_orderkey", "s_nationkey", "l_year"],
                                 [("pc_", "cents", "sum")])

    li = _with_supp_nation(sf_dir, table(
        sf_dir, "lineitem",
        columns=["l_orderkey", "l_suppkey", "l_shipdate",
                 "l_extendedprice", "l_discount"])).map_batches(
        li_partial, batch_format="pyarrow")

    joined = broadcast_or_join(
        li, orders_cn, on="l_orderkey", right_on="o_orderkey",
        left_schema=pa.schema([("l_orderkey", pa.int64()),
                               ("s_nationkey", pa.int32()),
                               ("l_year", pa.int64()),
                               ("pc_", pa.int64())]),
        right_schema=pa.schema([("o_orderkey", pa.int64()),
                                ("c_nationkey", pa.int32())]))

    def finish_project(t: pa.Table) -> pa.Table:
        lk = get_broadcast(names_ref)

        def named(col):
            return pa.array([lk[k] for k in t[col].to_numpy(zero_copy_only=False)],
                            pa.string())

        t = pa.table({"supp_nation": named("s_nationkey"),
                      "cust_nation": named("c_nationkey"),
                      "l_year": t["l_year"], "pc_": t["pc_"]})
        return t.filter(pc.invert(pc.equal(t["supp_nation"],
                                           t["cust_nation"])))

    return combine_aggregate(
        joined.map_batches(finish_project, batch_format="pyarrow"),
        ["supp_nation", "cust_nation", "l_year"],
        [("revenue_cents", "pc_", "sum")])


# ===================================== TPC-H Q17-class: small-quantity revenue


ORACLE_SMALL_QTY_REVENUE = """
SELECT CAST(coalesce(sum(CAST(floor(l.l_extendedprice * 100 + 0.5)
                               AS BIGINT)), 0) AS BIGINT) AS rev_cents
FROM lineitem l
JOIN (SELECT l_partkey, sum(l_quantity) AS sq, count(*) AS cnt
      FROM lineitem GROUP BY l_partkey) a
  ON l.l_partkey = a.l_partkey
WHERE 5 * l.l_quantity * a.cnt < a.sq
"""


@query("small_qty_revenue", oracle=ORACLE_SMALL_QTY_REVENUE)
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

    def stats_project(t: pa.Table) -> pa.Table:
        return pa.table({"l_partkey": t["l_partkey"], "q": t["l_quantity"]})

    stats = combine_aggregate(
        table(sf_dir, "lineitem",
              columns=["l_partkey", "l_quantity"])
        .map_batches(stats_project, batch_format="pyarrow"),
        "l_partkey", [("sq", "q", "sum"), ("cnt", "q", "count")])

    li = table(sf_dir, "lineitem",
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


# ===================================== TPC-H Q12-class: late shipments


ORACLE_LATE_SHIPMENTS = """
SELECT o_orderpriority,
       CAST(sum(CASE WHEN l_shipdate > o_orderdate + INTERVAL 60 DAY
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_late,
       CAST(count(*) AS BIGINT) AS n_lines
FROM orders JOIN lineitem ON l_orderkey = o_orderkey
GROUP BY o_orderpriority
"""


@query("late_shipments", oracle=ORACLE_LATE_SHIPMENTS)
def q_late_shipments(sf_dir: str, late_days: int = 60):
    """Per order priority: lines shipped more than ``late_days`` after
    the order date vs total lines. One distributed hash join (lineitem
    x orders on orderkey — both sides corpus-sized, neither broadcast)
    then a map-side (priority, late, total) combiner; the comparison is
    integer microseconds, unit-normalized through timestamp[us]."""

    li = table(sf_dir, "lineitem",
               columns=["l_orderkey", "l_shipdate"])
    orders = table(sf_dir, "orders",
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


# ===================================== TPC-H Q22-class: idle rich customers


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


@query("idle_rich_customers", oracle=ORACLE_IDLE_RICH)
def q_idle_rich_customers(sf_dir: str):
    """Customers with above-average positive balance and NO urgent
    orders, counted per nation (the scalar-subquery + anti-join class).
    The global average is two driver scalars (sum of cents, count) from
    a one-row-per-batch combiner; the membership test is the integer
    form cents*n > total_cents (no division); the NOT EXISTS is a
    distributed anti hash join against the filtered orders side."""
    from ray.data.aggregate import Sum

    def bal_partial(t: pa.Table) -> pa.Table:
        pos = t.filter(pc.greater(t["c_acctbal"], 0.0))
        cents = _cents(pos["c_acctbal"])
        return pa.table({"s": pa.array([pc.sum(cents).as_py() or 0],
                                       pa.int64()),
                         "n": pa.array([len(cents)], pa.int64())})

    cust_path = f"{sf_dir}/customer.parquet"
    g = (read_table(cust_path, columns=["c_acctbal"])
         .map_batches(bal_partial, batch_format="pyarrow")
         .aggregate(Sum("s", alias_name="s"), Sum("n", alias_name="n")))
    total, n_pos = int(g["s"] or 0), int(g["n"] or 0)

    def rich(t: pa.Table) -> pa.Table:
        cents = _cents(t["c_acctbal"])
        keep = pc.greater(pc.multiply(cents, n_pos), total)
        t = t.append_column("bal_cents", cents).filter(keep)
        return t.select(["c_custkey", "c_nationkey", "bal_cents"])

    cust = read_table(
        cust_path, columns=["c_custkey", "c_nationkey", "c_acctbal"]
    ).map_batches(rich, batch_format="pyarrow")

    urgent = table(
        sf_dir, "orders",
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


# ===================================== TPC-H Q10-class: returned revenue


ORACLE_RETURNED_REVENUE = """
SELECT c_custkey, c_name,
       CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5)
                     AS BIGINT)) AS BIGINT) AS revenue_cents
FROM customer JOIN orders ON c_custkey = o_custkey
              JOIN lineitem ON l_orderkey = o_orderkey
WHERE l_returnflag = 'R'
GROUP BY c_custkey, c_name
ORDER BY revenue_cents DESC, c_custkey LIMIT 20
"""


@query("returned_revenue_topk", oracle=ORACLE_RETURNED_REVENUE)
def q_returned_revenue_topk(sf_dir: str, k: int = 20):
    """Top customers by revenue from RETURNED lineitems: the returned
    rows collapse through a map-side per-orderkey cents combiner before
    either join (the join input is bounded by |orders with returns|,
    not |lineitem|), then orderkey->custkey and custkey->name joins run
    through ``broadcast_or_join`` (dimension-sized -> zero-shuffle
    broadcast; corpus-sized -> distributed hash join), and the top-k is
    the pruned global selection."""

    def li_partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["l_returnflag"], "R"))
        cents = _cents(pc.multiply(
            t["l_extendedprice"],
            pc.subtract(pa.scalar(1.0), t["l_discount"])))
        b = pa.table({"l_orderkey": t["l_orderkey"], "cents": cents})
        return partial_aggregate(b, ["l_orderkey"], [("pc_", "cents", "sum")])

    li = (table(sf_dir, "lineitem",
                columns=["l_orderkey", "l_returnflag",
                         "l_extendedprice", "l_discount"])
          .map_batches(li_partial, batch_format="pyarrow"))

    orders = table(sf_dir, "orders",
                   columns=["o_orderkey", "o_custkey"])
    j1 = broadcast_or_join(
        li, orders, on="l_orderkey", right_on="o_orderkey",
        left_schema=pa.schema([("l_orderkey", pa.int64()),
                               ("pc_", pa.int64())]),
        right_schema=pa.schema([("o_orderkey", pa.int64()),
                                ("o_custkey", pa.int64())]))

    per_cust = combine_aggregate(j1, "o_custkey",
                                 [("revenue_cents", "pc_", "sum")])

    cust = table(sf_dir, "customer",
                 columns=["c_custkey", "c_name"])
    j2 = broadcast_or_join(
        per_cust, cust, on="o_custkey", right_on="c_custkey",
        left_schema=pa.schema([("o_custkey", pa.int64()),
                               ("revenue_cents", pa.int64())]),
        right_schema=pa.schema([("c_custkey", pa.int64()),
                                ("c_name", pa.string())]))

    out = j2.map_batches(
        lambda t: pa.table({"c_custkey": t["o_custkey"],
                            "c_name": t["c_name"],
                            "revenue_cents": t["revenue_cents"]}),
        batch_format="pyarrow")
    return global_topk(out, ["revenue_cents", "c_custkey"],
                       [True, False], k)


def _customer_spend(sf_dir: str):
    """Materialized (o_custkey, spend): each customer's order total in
    int64 cents, map-side combined."""

    def cents(t: pa.Table) -> pa.Table:
        c = np.floor(t["o_totalprice"].to_numpy(zero_copy_only=False) * 100.0)
        return pa.table({"o_custkey": t["o_custkey"],
                         "c": pa.array(c.astype(np.int64), pa.int64())})

    return combine_aggregate(
        table(sf_dir, "orders",
              columns=["o_custkey", "o_totalprice"])
        .map_batches(cents, batch_format="pyarrow"),
        "o_custkey", [("spend", "c", "sum")]).materialize()


# ===================================== TPC-H Q21 class: waiting suppliers


ORACLE_WAITING_SUPPLIERS = """
WITH j AS (
  SELECT l.l_orderkey, l.l_suppkey,
         CASE WHEN l.l_shipdate > o.o_orderdate + INTERVAL 60 DAY
              THEN 1 ELSE 0 END AS late
  FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
  WHERE o.o_orderstatus = 'F'
),
per_order AS (
  SELECT l_orderkey,
         COUNT(DISTINCT l_suppkey) AS n_supp,
         COUNT(DISTINCT CASE WHEN late = 1 THEN l_suppkey END) AS n_late,
         MAX(CASE WHEN late = 1 THEN l_suppkey END) AS late_supp
  FROM j GROUP BY l_orderkey
)
SELECT late_supp AS l_suppkey, CAST(COUNT(*) AS BIGINT) AS numwait
FROM per_order WHERE n_supp > 1 AND n_late = 1
GROUP BY late_supp ORDER BY numwait DESC, l_suppkey ASC LIMIT 10
"""


@query("waiting_suppliers", oracle=ORACLE_WAITING_SUPPLIERS)
def q_waiting_suppliers(sf_dir: str, late_days: int = 60, k: int = 10):
    """Suppliers who were the SOLE late shipper on a multi-supplier
    finished order (TPC-H Q21's EXISTS / NOT-EXISTS pair, re-expressed
    as one per-order aggregate): late = shipped more than ``late_days``
    after the order date.

    Distributed shape: one corpus x corpus hash join on orderkey (orders
    pre-filtered to status 'F' and pruned to two columns at the read);
    the per-order EXISTS/NOT-EXISTS logic runs INSIDE the join's
    ``merge_post`` — every lineitem of an order is already co-located in
    its key partition, so distinct-supplier / distinct-late-supplier
    counts per order never shuffle again, and the partition emits only
    per-supplier partial wait counts. Final stage is a supplier-sized
    groupby + top-k. No driver materialization anywhere."""
    from ray.data.aggregate import Sum

    li = table(sf_dir, "lineitem",
               columns=["l_orderkey", "l_suppkey", "l_shipdate"])
    orders = table(
        sf_dir, "orders",
        columns=["o_orderkey", "o_orderdate", "o_orderstatus"],
    ).map_batches(
        lambda t: t.filter(pc.equal(t["o_orderstatus"], "F"))
        .select(["o_orderkey", "o_orderdate"]),
        batch_format="pyarrow",
    )
    late_us = late_days * _DAY_US

    def per_order(g: pa.Table) -> pa.Table:
        ship = pc.cast(g["l_shipdate"].cast(pa.timestamp("us")), pa.int64())
        od = pc.cast(g["o_orderdate"].cast(pa.timestamp("us")), pa.int64())
        late = pc.cast(pc.greater(ship, pc.add(od, late_us)), pa.int8())
        # distinct (order, supplier) pairs with their any-late flag,
        # then ONE per-order groupby: n_supp = pair count, n_late =
        # sum(any_late), late_supp = max(supp where late) via a
        # null-masked column (max skips nulls) — no per-partition join
        pairs = partial_aggregate(g.append_column("late", late),
                                  ["l_orderkey", "l_suppkey"],
                                  [("late_any", "late", "max")])
        supp_if_late = pc.if_else(
            pc.equal(pairs["late_any"], 1), pairs["l_suppkey"],
            pa.scalar(None, pa.int64()))
        pairs = pairs.append_column("supp_if_late", supp_if_late)
        per = partial_aggregate(pairs, ["l_orderkey"],
                                [("n_supp", "l_suppkey", "count"),
                                 ("n_late", "late_any", "sum"),
                                 ("late_supp", "supp_if_late", "max")])
        qual = per.filter(pc.and_(pc.greater(per["n_supp"], 1),
                                  pc.equal(per["n_late"], 1)))
        if qual.num_rows == 0:
            return pa.table({"l_suppkey": pa.array([], pa.int64()),
                             "pw": pa.array([], pa.int64())})
        return partial_aggregate(
            pa.table({"l_suppkey": qual["late_supp"].cast(pa.int64())}),
            ["l_suppkey"], [("pw", None, "count_all")])

    partials = hash_join(
        li, orders, on="l_orderkey", right_on="o_orderkey",
        left_schema=pa.schema([("l_orderkey", pa.int64()),
                               ("l_suppkey", pa.int64()),
                               ("l_shipdate", pa.timestamp("us"))]),
        right_schema=pa.schema([("o_orderkey", pa.int64()),
                                ("o_orderdate", pa.timestamp("us"))]),
        merge_post=per_order)
    agg = partials.groupby("l_suppkey").aggregate(
        Sum("pw", alias_name="numwait"))
    return global_topk(agg, ["numwait", "l_suppkey"], [True, False], k)


# ===================================== TPC-H Q2 class: min-cost supplier


ORACLE_CHEAPEST_SUPPLIER = """
WITH u AS (
  SELECT l_partkey, l_suppkey,
         CAST(FLOOR(l_extendedprice / l_quantity * 1000000) AS BIGINT)
           AS unit_micro
  FROM lineitem
),
r AS (
  SELECT *, ROW_NUMBER() OVER (
    PARTITION BY l_partkey ORDER BY unit_micro, l_suppkey) AS rn
  FROM u
)
SELECT l_partkey, l_suppkey, unit_micro FROM r WHERE rn = 1
"""


@query("cheapest_supplier", oracle=ORACLE_CHEAPEST_SUPPLIER)
def q_cheapest_supplier(sf_dir: str):
    """Per part, the supplier offering the lowest observed unit price
    (TPC-H Q2's correlated MIN subquery re-expressed as a per-group
    argmin): unit price is quantized to int64 micro-units with the SAME
    double expression FLOOR(ext/qty*1e6) the oracle uses, so comparisons
    are exact; ties break to the smallest suppkey.

    Shape: one pruned lineitem scan -> per-batch rank-1 combiner ->
    coarse-partition resolve (``grouped_topk`` k=1) — the shuffle moves
    at most one row per (part, batch), never raw lineitems."""

    def unitize(t: pa.Table) -> pa.Table:
        ext = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        qty = t["l_quantity"].to_numpy(zero_copy_only=False)
        um = np.floor(ext / qty * 1_000_000.0).astype(np.int64)
        return pa.table({
            "l_partkey": t["l_partkey"],
            "l_suppkey": t["l_suppkey"],
            "unit_micro": pa.array(um, pa.int64()),
        })

    ds = table(
        sf_dir, "lineitem",
        columns=["l_partkey", "l_suppkey", "l_extendedprice", "l_quantity"],
    ).map_batches(unitize, batch_format="pyarrow")
    return grouped_topk(ds, by="l_partkey",
                        cols=["unit_micro", "l_suppkey"],
                        descending=[False, False], k=1)


# ===================================== TPC-H Q15 class: top supplier(s)


ORACLE_TOP_SUPPLIER_REVENUE = """
WITH r AS (
  SELECT l_suppkey,
         SUM(CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100)
                  AS BIGINT)) AS total_cents
  FROM lineitem
  WHERE l_shipdate >= TIMESTAMP '1996-01-01'
    AND l_shipdate <  TIMESTAMP '1996-04-01'
  GROUP BY l_suppkey
)
SELECT l_suppkey, CAST(total_cents AS BIGINT) AS total_cents
FROM r WHERE total_cents = (SELECT MAX(total_cents) FROM r)
ORDER BY l_suppkey
"""


@query("top_supplier_revenue", oracle=ORACLE_TOP_SUPPLIER_REVENUE)
def q_top_supplier_revenue(sf_dir: str):
    """Supplier(s) with the maximum revenue in 1996Q1 (TPC-H Q15's view +
    HAVING = (SELECT MAX ...)): revenue is summed in int64 cents
    (FLOOR(ext*(1-disc)*100), same double expression as the oracle) so
    the distributed sum is order-independent and the =max filter exact.

    Shape: predicate + column pruning at the read, map-side per-supplier
    combiner, one supplier-sized groupby (materialized — it is bounded
    by the supplier catalog, not the corpus), one scalar max, one
    filter. The only driver value is the max scalar."""
    lo = np.datetime64("1996-01-01", "us").astype(np.int64)
    hi = np.datetime64("1996-04-01", "us").astype(np.int64)

    def partial(t: pa.Table) -> pa.Table:
        ship = pc.cast(t["l_shipdate"].cast(pa.timestamp("us")), pa.int64())
        keep = pc.and_(pc.greater_equal(ship, lo), pc.less(ship, hi))
        t = t.filter(keep)
        ext = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = t["l_discount"].to_numpy(zero_copy_only=False)
        cents = np.floor(ext * (1.0 - disc) * 100.0).astype(np.int64)
        return pa.table({"l_suppkey": t["l_suppkey"],
                         "c": pa.array(cents, pa.int64())})

    agg = combine_aggregate(
        table(sf_dir, "lineitem",
              columns=["l_suppkey", "l_extendedprice",
                       "l_discount", "l_shipdate"])
        .map_batches(partial, batch_format="pyarrow"),
        "l_suppkey", [("total_cents", "c", "sum")]).materialize()
    best = agg.max("total_cents")
    return agg.map_batches(
        lambda t: t.filter(pc.equal(t["total_cents"], best)),
        batch_format="pyarrow").sort("l_suppkey")


# ===================================== TPC-H Q8 class: market share


ORACLE_MARKET_SHARE = """
WITH rc AS (
  SELECT c_custkey FROM customer
  JOIN nation ON c_nationkey = n_nationkey
  JOIN region ON n_regionkey = r_regionkey
  WHERE r_name = 'ASIA'
),
o AS (
  SELECT o_orderkey, CAST(EXTRACT(year FROM o_orderdate) AS BIGINT)
           AS o_year
  FROM orders JOIN rc ON o_custkey = rc.c_custkey
),
l AS (
  SELECT o.o_year,
         CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100) AS BIGINT)
           AS cents,
         CASE WHEN n_name = 'NATION_2' THEN 1 ELSE 0 END AS is_t
  FROM lineitem
  JOIN o ON l_orderkey = o.o_orderkey
  JOIN supplier ON l_suppkey = s_suppkey
  JOIN nation ON s_nationkey = n_nationkey
)
SELECT o_year,
       round(SUM(CASE WHEN is_t = 1 THEN cents ELSE 0 END)::DOUBLE
             / SUM(cents)::DOUBLE, 6) AS mkt_share
FROM l GROUP BY o_year ORDER BY o_year
"""


@query("market_share", oracle=ORACLE_MARKET_SHARE)
def q_market_share(sf_dir: str, region: str = "ASIA",
                   target_nation: str = "NATION_2"):
    """Per order-year market share of ``target_nation``'s suppliers
    within orders placed by customers of ``region`` (TPC-H Q8's
    snowflake: lineitem ⋈ orders ⋈ customer ⋈ nation ⋈ region on the
    demand side, lineitem ⋈ supplier ⋈ nation on the supply side).

    Distributed shape: nation/region/supplier are CATALOG-sized —
    nation+region fold to a nationkey set, supplier to a target-supplier
    key set, each broadcast once via ray.put. customer and orders are
    corpus-sized: customer is filtered to the region IN PLACE
    (broadcast set lookup, no shuffle) and joined into orders through
    ``broadcast_or_join`` (zero-shuffle while the region customer set
    fits the broadcast size, distributed hash join when it is
    corpus-sized); lineitem joins the surviving (orderkey, year) pairs
    the same way, and a per-batch combiner immediately folds to (year,
    total_cents, target_cents) partials — the year groupby input is
    batch-count sized. Revenue is int64 cents (FLOOR, same expression
    as the oracle); the share is one division per output row."""
    import ray
    from ray.data.aggregate import Sum

    from odinson_ray.stages.link import get_broadcast

    def read_small(name, cols):
        ds = table(sf_dir, name, columns=cols)
        return pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow")))

    nat = read_small("nation", ["n_nationkey", "n_name", "n_regionkey"])
    reg = read_small("region", ["r_regionkey", "r_name"])
    region_keys = {rk for rk, rn in zip(reg["r_regionkey"].to_pylist(),
                                        reg["r_name"].to_pylist())
                   if rn == region}
    region_nations = {nk for nk, rk in zip(nat["n_nationkey"].to_pylist(),
                                           nat["n_regionkey"].to_pylist())
                      if rk in region_keys}
    target_nk = {nk for nk, nn in zip(nat["n_nationkey"].to_pylist(),
                                      nat["n_name"].to_pylist())
                 if nn == target_nation}
    sup = read_small("supplier", ["s_suppkey", "s_nationkey"])
    target_supps = np.sort(np.asarray(
        [sk for sk, nk in zip(sup["s_suppkey"].to_pylist(),
                              sup["s_nationkey"].to_pylist())
         if nk in target_nk], dtype=np.int64))
    nations_ref = ray.put(np.sort(np.asarray(list(region_nations),
                                             dtype=np.int64)))
    supps_ref = ray.put(target_supps)

    def region_custs(t: pa.Table) -> pa.Table:
        nk = get_broadcast(nations_ref)
        c = t["c_nationkey"].to_numpy(zero_copy_only=False)
        keep = np.isin(c, nk)
        return pa.table({"c_custkey": t["c_custkey"].filter(pa.array(keep))})

    custs = table(sf_dir, "customer",
                  columns=["c_custkey", "c_nationkey"]
                            ).map_batches(region_custs,
                                          batch_format="pyarrow")

    def order_year(g: pa.Table) -> pa.Table:
        yr = pc.year(g["o_orderdate"].cast(pa.timestamp("us"))).cast(
            pa.int64())
        return pa.table({"o_orderkey": g["o_orderkey"], "o_year": yr})

    from odinson_ray.stages.shuffle import broadcast_or_join

    orders = broadcast_or_join(
        table(sf_dir, "orders",
              columns=["o_orderkey", "o_custkey", "o_orderdate"]),
        custs, on="o_custkey", right_on="c_custkey",
        left_schema=pa.schema([("o_orderkey", pa.int64()),
                               ("o_custkey", pa.int64()),
                               ("o_orderdate", pa.timestamp("us"))]),
        right_schema=pa.schema([("c_custkey", pa.int64())]),
    ).map_batches(order_year, batch_format="pyarrow")

    def year_partial(g: pa.Table) -> pa.Table:
        supps = get_broadcast(supps_ref)
        ext = g["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = g["l_discount"].to_numpy(zero_copy_only=False)
        cents = np.floor(ext * (1.0 - disc) * 100.0).astype(np.int64)
        sk = g["l_suppkey"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(supps, sk)
        pos = np.minimum(pos, max(len(supps) - 1, 0))
        is_t = (supps[pos] == sk) if len(supps) else np.zeros(len(sk), bool)
        base = pa.table({
            "o_year": g["o_year"],
            "c": pa.array(cents, pa.int64()),
            "tc": pa.array(np.where(is_t, cents, 0), pa.int64()),
        })
        return partial_aggregate(base, ["o_year"],
                                 [("pc", "c", "sum"), ("ptc", "tc", "sum")])

    partials = broadcast_or_join(
        table(sf_dir, "lineitem",
              columns=["l_orderkey", "l_suppkey",
                       "l_extendedprice", "l_discount"]),
        orders, on="l_orderkey", right_on="o_orderkey",
        left_schema=pa.schema([("l_orderkey", pa.int64()),
                               ("l_suppkey", pa.int64()),
                               ("l_extendedprice", pa.float64()),
                               ("l_discount", pa.float64())]),
        right_schema=pa.schema([("o_orderkey", pa.int64()),
                                ("o_year", pa.int64())]),
    ).map_batches(year_partial, batch_format="pyarrow")

    agg = partials.groupby("o_year").aggregate(
        Sum("pc", alias_name="total"), Sum("ptc", alias_name="tgt"))

    def finish(t: pa.Table) -> pa.Table:
        tot = t["total"].to_numpy(zero_copy_only=False).astype(np.float64)
        tgt = t["tgt"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({
            "o_year": t["o_year"],
            "mkt_share": pa.array(np.round(tgt / tot, 6), pa.float64()),
        })

    return agg.map_batches(finish, batch_format="pyarrow").sort("o_year")


# ===================================== top-k WITH TIES semantics


ORACLE_TOP_ORDERS_WITH_TIES = """
SELECT o_orderkey, o_totalprice FROM (
  SELECT o_orderkey, o_totalprice,
         RANK() OVER (ORDER BY o_totalprice DESC) AS r
  FROM orders
) WHERE r <= 10
ORDER BY o_totalprice DESC, o_orderkey
"""


@query("top_orders_with_ties", oracle=ORACLE_TOP_ORDERS_WITH_TIES)
def q_top_orders_with_ties(sf_dir: str, k: int = 10):
    """FETCH FIRST k ROWS WITH TIES over orders by total price (RANK()
    <= k semantics: every row tying the k-th value is returned). Two
    pruned passes: a per-batch rank<=k combiner feeds a k-row global
    top-k whose LAST row is the threshold value (rank<=k ⟺ value >=
    the k-th row's value in duplicate-counting desc order); the second
    pass is a stateless filter at that scalar. Only the threshold
    crosses the driver."""

    def rank_prune(t: pa.Table) -> pa.Table:
        if t.schema.metadata:
            t = t.replace_schema_metadata(None)
        if t.num_rows <= k:
            return t
        idx = pc.sort_indices(t, sort_keys=[("o_totalprice", "descending")])
        t = t.take(idx)
        v = t["o_totalprice"].to_numpy(zero_copy_only=False)
        return t.filter(pa.array(v >= v[k - 1]))

    orders = table(sf_dir, "orders",
                   columns=["o_orderkey", "o_totalprice"])
    pruned = orders.map_batches(rank_prune, batch_format="pyarrow")
    kth = global_topk(pruned, ["o_totalprice", "o_orderkey"],
                      [True, False], k)
    rows = pa.concat_tables(
        list(kth.iter_batches(batch_format="pyarrow")))
    thresh = rows["o_totalprice"].to_numpy(zero_copy_only=False).min()
    return pruned.map_batches(
        lambda t: t.filter(pc.greater_equal(t["o_totalprice"], thresh)),
        batch_format="pyarrow").sort(
        ["o_totalprice", "o_orderkey"], descending=[True, False])


# ===================================== Pareto concentration (80/20)


ORACLE_REVENUE_PARETO = """
WITH s AS (
  SELECT o_custkey,
         SUM(CAST(FLOOR(o_totalprice * 100) AS BIGINT)) AS spend
  FROM orders GROUP BY o_custkey
),
t AS (SELECT CAST(SUM(spend) AS BIGINT) AS total FROM s),
r AS (
  SELECT o_custkey, spend,
         SUM(spend) OVER (ORDER BY spend DESC, o_custkey) AS cum,
         ROW_NUMBER() OVER (ORDER BY spend DESC, o_custkey) AS rn
  FROM s
)
SELECT CAST(rn AS BIGINT) AS n_customers,
       CAST(cum AS BIGINT) AS covered_cents,
       t.total AS total_cents,
       round(cum * 1.0 / t.total, 6) AS share
FROM r, t WHERE cum * 5 >= t.total * 4 AND (cum - spend) * 5 < t.total * 4
"""


@query("revenue_pareto", oracle=ORACLE_REVENUE_PARETO)
def q_revenue_pareto(sf_dir: str, n_buckets: int = 256):
    """The Pareto question: how many top customers cover 80% of total
    order revenue? Customers are enumerated globally by (spend DESC,
    custkey ASC) with the weighted-prefix machinery (length_batches'
    shape: sketch boundaries -> per-bucket spend sums -> driver prefix
    of n_buckets offsets -> one groupby pass), and the 80% crossing is
    an ALL-INTEGER test (cum*5 >= total*4 on int64 cents) evaluated
    inside each bucket — exactly one row survives globally. The driver
    holds n_buckets offsets and the one-row answer."""
    import ray
    from ray.data.aggregate import Sum

    from odinson_ray.stages.link import get_broadcast
    from odinson_ray.stages.sketch import approx_quantile_values

    spend = _customer_spend(sf_dir)
    total = int(spend.sum("spend"))

    boundaries = np.unique(approx_quantile_values(
        spend, "spend", np.arange(1, n_buckets) / n_buckets))

    def bucket_of(v: np.ndarray) -> np.ndarray:
        return np.searchsorted(boundaries, v, side="left")

    def partials(t: pa.Table) -> pa.Table:
        v = t["spend"].to_numpy(zero_copy_only=False)
        b = bucket_of(v)
        s = np.bincount(b, weights=v, minlength=len(boundaries) + 1
                        ).astype(np.int64)
        n = np.bincount(b, minlength=len(boundaries) + 1)
        nz = np.nonzero(n)[0]
        return pa.table({"bucket": pa.array(nz, pa.int64()),
                         "ps": pa.array(s[nz], pa.int64()),
                         "pn": pa.array(n[nz].astype(np.int64))})

    rows = (spend.map_batches(partials, batch_format="pyarrow")
            .groupby("bucket").aggregate(Sum("ps", alias_name="s"),
                                         Sum("pn", alias_name="n"))
            ).take_all()
    sums = {r["bucket"]: (r["s"], r["n"]) for r in rows}
    # descending spend order => consume buckets from high id to low id
    offsets, acc_s, acc_n = {}, 0, 0
    for b in range(len(boundaries), -1, -1):
        offsets[b] = (acc_s, acc_n)
        s_b, n_b = sums.get(b, (0, 0))
        acc_s += s_b
        acc_n += n_b
    ref = ray.put(offsets)

    def tag(t: pa.Table) -> pa.Table:
        b = bucket_of(t["spend"].to_numpy(zero_copy_only=False))
        return t.append_column("bucket", pa.array(b, pa.int64()))

    def crossing(g: pa.Table) -> pa.Table:
        off_s, off_n = get_broadcast(ref)[g["bucket"][0].as_py()]
        v = g["spend"].to_numpy(zero_copy_only=False)
        k = g["o_custkey"].to_numpy(zero_copy_only=False)
        o = np.lexsort((k, -v))
        cum = off_s + np.cumsum(v[o])
        excl = cum - v[o]
        hit = (cum * 5 >= total * 4) & (excl * 5 < total * 4)
        if not hit.any():
            return pa.table({"n_customers": pa.array([], pa.int64()),
                             "covered_cents": pa.array([], pa.int64()),
                             "total_cents": pa.array([], pa.int64()),
                             "share": pa.array([], pa.float64())})
        i = int(np.flatnonzero(hit)[0])
        rn = off_n + i + 1
        cov = int(cum[i])
        return pa.table({
            "n_customers": pa.array([rn], pa.int64()),
            "covered_cents": pa.array([cov], pa.int64()),
            "total_cents": pa.array([total], pa.int64()),
            "share": pa.array([round(cov / total, 6)], pa.float64()),
        })

    return (spend.map_batches(tag, batch_format="pyarrow")
            .groupby("bucket").map_groups(crossing, batch_format="pyarrow"))


# ===================================== Gini coefficient (inequality)


ORACLE_GINI_VALUE = """
WITH s AS (
  SELECT o_custkey,
         SUM(CAST(FLOOR(o_totalprice * 100) AS BIGINT)) AS spend
  FROM orders GROUP BY o_custkey
),
r AS (
  SELECT spend,
         ROW_NUMBER() OVER (ORDER BY spend, o_custkey) AS rn
  FROM s
),
agg AS (
  SELECT COUNT(*) AS n, SUM(spend) AS tot, SUM(rn * spend) AS ws FROM r
)
SELECT CAST(n AS BIGINT) AS n_customers,
       round((2.0 * ws) / (n * tot) - (n + 1.0) / n, 6) AS gini
FROM agg
"""


@query("gini_value", oracle=ORACLE_GINI_VALUE)
def q_gini_value(sf_dir: str, n_buckets: int = 256):
    """Gini coefficient of customer spend: G = 2*sum(rank_i * x_i) /
    (n * sum(x)) - (n + 1)/n over the ascending (spend, custkey) total
    order. The rank-weighted sum reuses the weighted-prefix enumeration
    (sketch buckets -> driver offsets); each bucket's partial splits as
    off_n * sum(x_local) + sum(local_rank * x_local) — the second term
    is a safe int64 numpy sum (local ranks are bucket-bounded), the
    first multiplies PYTHON ints, and partials travel as decimal
    strings so 128-bit magnitudes survive Arrow. Every arithmetic step
    before the final division is exact integer math; the oracle's
    HUGEINT path computes the identical values."""
    import ray
    from ray.data.aggregate import Sum

    from odinson_ray.stages.link import get_broadcast
    from odinson_ray.stages.sketch import approx_quantile_values

    spend = _customer_spend(sf_dir)

    boundaries = np.unique(approx_quantile_values(
        spend, "spend", np.arange(1, n_buckets) / n_buckets))

    def bucket_of(v: np.ndarray) -> np.ndarray:
        return np.searchsorted(boundaries, v, side="left")

    def count_partial(t: pa.Table) -> pa.Table:
        v = t["spend"].to_numpy(zero_copy_only=False)
        b = bucket_of(v)
        n = np.bincount(b, minlength=len(boundaries) + 1)
        nz = np.nonzero(n)[0]
        return pa.table({"bucket": pa.array(nz, pa.int64()),
                         "pn": pa.array(n[nz].astype(np.int64))})

    counts = {r["bucket"]: r["n"] for r in
              spend.map_batches(count_partial, batch_format="pyarrow")
              .groupby("bucket").aggregate(Sum("pn", alias_name="n"))
              .take_all()}
    offsets, acc = {}, 0
    for b in range(len(boundaries) + 1):  # ascending spend order
        offsets[b] = acc
        acc += counts.get(b, 0)
    n_total = acc
    ref = ray.put(offsets)

    def tag(t: pa.Table) -> pa.Table:
        b = bucket_of(t["spend"].to_numpy(zero_copy_only=False))
        return t.append_column("bucket", pa.array(b, pa.int64()))

    def ws_partial(g: pa.Table) -> pa.Table:
        off = get_broadcast(ref)[g["bucket"][0].as_py()]
        v = g["spend"].to_numpy(zero_copy_only=False)
        k = g["o_custkey"].to_numpy(zero_copy_only=False)
        o = np.lexsort((k, v))
        local = int(np.sum((np.arange(len(o)) + 1) * v[o]))
        total = int(v.sum())
        ws = off * total + local  # python int: 128-bit safe
        return pa.table({
            "ws": pa.array([str(ws)], pa.string()),
            "sx": pa.array([str(total)], pa.string()),
        })

    parts = (spend.map_batches(tag, batch_format="pyarrow")
             .groupby("bucket")
             .map_groups(ws_partial, batch_format="pyarrow")).take_all()
    ws = sum(int(r["ws"]) for r in parts)
    sx = sum(int(r["sx"]) for r in parts)
    gini = round((2.0 * ws) / (n_total * sx) - (n_total + 1.0) / n_total, 6)
    return pa.table({
        "n_customers": pa.array([n_total], pa.int64()),
        "gini": pa.array([gini], pa.float64()),
    })


# ===================================== Benford first-digit audit


ORACLE_VALUE_BENFORD = """
WITH c AS (
  SELECT CAST(FLOOR(o_totalprice * 100) AS BIGINT) AS cents
  FROM orders
  WHERE CAST(FLOOR(o_totalprice * 100) AS BIGINT) > 0
),
d AS (
  SELECT CAST(substr(CAST(cents AS VARCHAR), 1, 1) AS BIGINT) AS digit
  FROM c
),
t AS (SELECT COUNT(*) AS total FROM d)
SELECT digit, CAST(COUNT(*) AS BIGINT) AS n,
       round(COUNT(*) * 1.0 / t.total, 6) AS share
FROM d, t GROUP BY digit, t.total ORDER BY digit
"""


@query("value_benford", oracle=ORACLE_VALUE_BENFORD)
def q_value_benford(sf_dir: str):
    """Benford's-law audit of order totals: first-digit distribution of
    the int64 cent amounts (digit taken from the INTEGER's decimal
    string, so both sides see the identical digit — no float log10
    anywhere), with each digit's observed share. The whole operator is
    one per-batch bincount combiner + a 9-row groupby."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        cents = np.floor(
            t["o_totalprice"].to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        cents = cents[cents > 0]
        # first decimal digit via magnitude bucketing (pure integer)
        mags = np.ones_like(cents)
        c = cents.copy()
        while (c >= 10).any():
            big = c >= 10
            c[big] //= 10
        counts = np.bincount(c, minlength=10)[1:]
        return pa.table({
            "digit": pa.array(np.arange(1, 10), pa.int64()),
            "pn": pa.array(counts.astype(np.int64)),
        })

    agg = (
        table(sf_dir, "orders",
              columns=["o_totalprice"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("digit").aggregate(Sum("pn", alias_name="n"))
    ).materialize()
    total = int(agg.sum("n"))

    def finish(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t["n"], 0))  # SQL omits absent digits
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({
            "digit": t["digit"].cast(pa.int64()),
            "n": t["n"].cast(pa.int64()),
            "share": pa.array(np.round(n / total, 6), pa.float64()),
        })

    return agg.map_batches(finish, batch_format="pyarrow").sort("digit")


# ===================================== Lorenz curve decile points


ORACLE_LORENZ_DECILES = """
WITH s AS (
  SELECT o_custkey,
         SUM(CAST(FLOOR(o_totalprice * 100) AS BIGINT)) AS spend
  FROM orders GROUP BY o_custkey
),
t AS (SELECT CAST(SUM(spend) AS BIGINT) AS total,
             COUNT(*) AS n FROM s),
r AS (
  SELECT spend,
         SUM(spend) OVER (ORDER BY spend, o_custkey) AS cum,
         ROW_NUMBER() OVER (ORDER BY spend, o_custkey) AS rn
  FROM s
)
SELECT CAST(d.d AS BIGINT) AS decile,
       CAST(r.cum AS BIGINT) AS cum_cents,
       round(r.cum * 1.0 / t.total, 6) AS share
FROM (SELECT unnest(range(1, 11)) AS d) d
JOIN t ON TRUE
JOIN r ON r.rn = d.d * t.n // 10
ORDER BY decile
"""


@query("lorenz_deciles", oracle=ORACLE_LORENZ_DECILES)
def q_lorenz_deciles(sf_dir: str, n_buckets: int = 256):
    """Lorenz curve of customer spend at decile grain: for each decile
    d of customers (ascending spend order), the cumulative share of
    total revenue held by the bottom d/10 — the curve the Gini
    coefficient integrates. Same weighted-prefix machinery as
    revenue_pareto/gini_value; each bucket emits the cumulative cents
    at every decile BOUNDARY row it contains (row index == k*n//10, an
    integer test), so exactly 10 rows survive globally and floats never
    pick a row."""
    import ray
    from ray.data.aggregate import Sum

    from odinson_ray.stages.link import get_broadcast
    from odinson_ray.stages.sketch import approx_quantile_values

    spend = _customer_spend(sf_dir)
    total = int(spend.sum("spend"))

    boundaries = np.unique(approx_quantile_values(
        spend, "spend", np.arange(1, n_buckets) / n_buckets))

    def bucket_of(v: np.ndarray) -> np.ndarray:
        return np.searchsorted(boundaries, v, side="left")

    def partials(t: pa.Table) -> pa.Table:
        v = t["spend"].to_numpy(zero_copy_only=False)
        b = bucket_of(v)
        s = np.bincount(b, weights=v, minlength=len(boundaries) + 1
                        ).astype(np.int64)
        n = np.bincount(b, minlength=len(boundaries) + 1)
        nz = np.nonzero(n)[0]
        return pa.table({"bucket": pa.array(nz, pa.int64()),
                         "ps": pa.array(s[nz], pa.int64()),
                         "pn": pa.array(n[nz].astype(np.int64))})

    rows = (spend.map_batches(partials, batch_format="pyarrow")
            .groupby("bucket").aggregate(Sum("ps", alias_name="s"),
                                         Sum("pn", alias_name="n"))
            ).take_all()
    sums = {r["bucket"]: (r["s"], r["n"]) for r in rows}
    offsets, acc_s, acc_n = {}, 0, 0
    for b in range(len(boundaries) + 1):  # ascending spend order
        offsets[b] = (acc_s, acc_n)
        s_b, n_b = sums.get(b, (0, 0))
        acc_s += s_b
        acc_n += n_b
    n_total = acc_n
    ref = ray.put(offsets)

    def tag(t: pa.Table) -> pa.Table:
        b = bucket_of(t["spend"].to_numpy(zero_copy_only=False))
        return t.append_column("bucket", pa.array(b, pa.int64()))

    def decile_rows(g: pa.Table) -> pa.Table:
        off_s, off_n = get_broadcast(ref)[g["bucket"][0].as_py()]
        v = g["spend"].to_numpy(zero_copy_only=False)
        k = g["o_custkey"].to_numpy(zero_copy_only=False)
        o = np.lexsort((k, v))
        rn = off_n + 1 + np.arange(len(o))
        cum = off_s + np.cumsum(v[o])
        dec, cums = [], []
        for d in range(1, 11):
            boundary = d * n_total // 10
            hit = np.flatnonzero(rn == boundary)
            if len(hit):
                dec.append(d)
                cums.append(int(cum[hit[0]]))
        return pa.table({
            "decile": pa.array(dec, pa.int64()),
            "cum_cents": pa.array(cums, pa.int64()),
            "share": pa.array(
                [round(c / total, 6) for c in cums], pa.float64()),
        })

    return (spend.map_batches(tag, batch_format="pyarrow")
            .groupby("bucket").map_groups(decile_rows,
                                          batch_format="pyarrow")
            .sort("decile"))


# ===================================== TPC-H Q19 class: bracket revenue

#: (brand, size_lo, size_hi, qty_lo, qty_hi) — three disjunctive
#: brackets over the testdata's Brand#N / size 1-50 / qty 1-50 domains
_BRACKETS = (
    ("Brand#4", 1, 15, 1, 20),
    ("Brand#19", 10, 30, 10, 30),
    ("Brand#2", 20, 50, 20, 40),
)


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


@query("bracket_revenue", oracle=ORACLE_BRACKET_REVENUE)
def q_bracket_revenue(sf_dir: str):
    """TPC-H Q19 class: revenue over lineitem x part restricted by a
    DISJUNCTION of (brand, size-range, quantity-range) brackets.

    Shape: the part side is filtered to the union of bracket brands AT
    THE READ (three columns, dimension-sized) and attached through
    ``broadcast_or_join`` — broadcast at bench scale, distributed
    hash join past the broadcast size; the bracket disjunction is one vectorized
    boolean expression per batch; a per-batch (n, cents) combiner means
    the driver sees one row per block, never lineitems."""
    brands = sorted({b[0] for b in _BRACKETS})

    part = table(
        sf_dir, "part", columns=["p_partkey", "p_brand", "p_size"]
    ).map_batches(
        lambda t: t.filter(pc.is_in(t["p_brand"],
                                    value_set=pa.array(brands))),
        batch_format="pyarrow",
    )
    li = table(
        sf_dir, "lineitem",
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


# ============================== TPC-H Q4 class: late-order priority counts


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


@query("late_order_priority", oracle=ORACLE_LATE_ORDER_PRIORITY)
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

    late_us = late_days * _DAY_US

    li = table(sf_dir, "lineitem",
               columns=["l_orderkey", "l_shipdate"])
    orders = table(
        sf_dir, "orders",
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


ORACLE_CUBE_LINEITEM = """
SELECT coalesce(l_returnflag, 'ALL') AS l_returnflag,
       coalesce(l_linestatus, 'ALL') AS l_linestatus,
       sum(l_quantity) AS sum_qty
FROM lineitem
GROUP BY CUBE (l_returnflag, l_linestatus)
ORDER BY 1, 2
"""


@query("cube_lineitem", oracle=ORACLE_CUBE_LINEITEM)
def q_cube_lineitem(sf_dir: str):
    """GROUP BY CUBE(l_returnflag, l_linestatus) over sum(l_quantity):
    the distributed work is ONE base-cell aggregate (map-side combined
    by the per-batch Arrow groupby inside Ray's sort aggregate); the
    3 rollup grouping sets are derived from the base cells, which are
    bounded by the dimension domain (|flags| x |statuses| = 6 here) —
    the standard low-cardinality CUBE plan. Rolled-up dimensions carry
    the literal 'ALL' (both sides coalesce, avoiding NULL-equality
    ambiguity in the compare)."""

    ds = table(sf_dir, "lineitem",
               columns=["l_returnflag", "l_linestatus", "l_quantity"])
    keys = ["l_returnflag", "l_linestatus"]

    base = combine_aggregate(ds, keys, [("sum_qty", "l_quantity", "sum")])
    # bounded materialization: one row per (flag, status) cell — the
    # dimension domain, never the table
    cells = base.take_all()
    rows = {}
    for c in cells:
        for f, st in ((c["l_returnflag"], c["l_linestatus"]),
                      (c["l_returnflag"], "ALL"),
                      ("ALL", c["l_linestatus"]),
                      ("ALL", "ALL")):
            rows[(f, st)] = rows.get((f, st), 0.0) + c["sum_qty"]
    out = sorted(rows.items())
    return pa.table({
        "l_returnflag": pa.array([k[0] for k, _ in out], pa.string()),
        "l_linestatus": pa.array([k[1] for k, _ in out], pa.string()),
        "sum_qty": pa.array([v for _, v in out], pa.float64()),
    })


ORACLE_SUPPLIER_PART_COUNTS = """
SELECT p.p_brand, CAST(p.p_size AS BIGINT) AS p_size,
       CAST(count(DISTINCT l.l_suppkey) AS BIGINT) AS supplier_cnt
FROM (SELECT DISTINCT l_partkey, l_suppkey FROM lineitem) l
JOIN part p ON p.p_partkey = l.l_partkey
WHERE p.p_brand <> 'Brand#13'
  AND l.l_suppkey NOT IN (SELECT s_suppkey FROM supplier WHERE s_acctbal < 0)
GROUP BY 1, 2
"""


@query("supplier_part_counts", oracle=ORACLE_SUPPLIER_PART_COUNTS)
def q_supplier_part_counts(sf_dir: str):
    """TPC-H Q16 class: DISTINCT supplier count per (p_brand, p_size)
    over the lineitem part-supplier links, excluding one brand and the
    complaint-list suppliers (here: negative account balance — the
    NOT IN side).

    Shape: the links anti-join the bad suppliers and then join the kept
    parts, both through ``broadcast_or_join`` (dimension-bounded right
    sides: each is broadcast once and every fact batch resolves its
    links by ``searchsorted``, no shuffle of the fact table); two
    map-side combines (the distinct (brand, size, supplier) rows, then
    their per-cell count) finish."""

    # one block per dimension read: a split read costs a task per block
    bad = read_table(
        table_path(sf_dir, "supplier"), columns=["s_suppkey", "s_acctbal"],
        override_num_blocks=1,
    ).map_batches(lambda t: t.filter(pc.less(t["s_acctbal"], 0))
                  .select(["s_suppkey"]), batch_format="pyarrow")
    parts = read_table(
        table_path(sf_dir, "part"), columns=["p_partkey", "p_brand", "p_size"],
        override_num_blocks=1,
    ).map_batches(lambda t: t.filter(pc.not_equal(t["p_brand"], "Brand#13")),
                  batch_format="pyarrow")
    links = table(sf_dir, "lineitem",
                  columns=["l_partkey", "l_suppkey"])
    link_schema = pa.schema([("l_partkey", pa.int64()),
                             ("l_suppkey", pa.int64())])
    kept = broadcast_or_join(
        links, bad, on="l_suppkey", right_on="s_suppkey", how="anti",
        left_schema=link_schema,
        right_schema=pa.schema([("s_suppkey", pa.int64())]))
    cells = broadcast_or_join(
        kept, parts, on="l_partkey", right_on="p_partkey",
        left_schema=link_schema,
        right_schema=pa.schema([("p_partkey", pa.int64()),
                                ("p_brand", pa.string()),
                                ("p_size", pa.int64())]))
    distinct = combine_aggregate(cells, ["p_brand", "p_size", "l_suppkey"], [])
    return combine_aggregate(distinct, ["p_brand", "p_size"],
                             [("supplier_cnt", None, "count_all")])
