"""Round-4 session-5 batch C: TPC-H Q10-class returned-item revenue,
3-step funnel progression (segmented, one shuffle), differentially
private counts with a seeded-Laplace mechanism mirrored exactly in SQL,
and an Arrow IPC source/sink roundtrip (``sources/io.write_ipc_layout``
/ ``read_ipc``).

Registered by ``pipelines/queries.py``; each ``q_*`` takes ``sf_dir``;
oracle column names match exactly.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from odinson_ray.stages.shuffle import (
    broadcast_or_join, combine_aggregate, global_topk, partial_aggregate)


def _rd():
    from ..sources.io import clean_rd

    return clean_rd


def _cents(col) -> pa.ChunkedArray:
    return pc.cast(pc.floor(pc.add(pc.multiply(col, 100.0), 0.5)),
                   pa.int64())


# ===================================== TPC-H Q10-class: returned revenue

def q_returned_revenue_topk(sf_dir: str, k: int = 20):
    """Top customers by revenue from RETURNED lineitems: the returned
    rows collapse through a map-side per-orderkey cents combiner before
    either join (the join input is bounded by |orders with returns|,
    not |lineitem|), then orderkey->custkey and custkey->name joins run
    through ``broadcast_or_join`` (dimension-sized -> zero-shuffle
    broadcast; corpus-sized -> distributed hash join), and the top-k is
    the pruned global selection."""
    rd = _rd()

    def li_partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["l_returnflag"], "R"))
        cents = _cents(pc.multiply(
            t["l_extendedprice"],
            pc.subtract(pa.scalar(1.0), t["l_discount"])))
        b = pa.table({"l_orderkey": t["l_orderkey"], "cents": cents})
        return partial_aggregate(b, ["l_orderkey"], [("pc_", "cents", "sum")])

    li = (rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                          columns=["l_orderkey", "l_returnflag",
                                   "l_extendedprice", "l_discount"])
          .map_batches(li_partial, batch_format="pyarrow"))

    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_custkey"])
    j1 = broadcast_or_join(
        li, orders, on="l_orderkey", right_on="o_orderkey",
        left_schema=pa.schema([("l_orderkey", pa.int64()),
                               ("pc_", pa.int64())]),
        right_schema=pa.schema([("o_orderkey", pa.int64()),
                                ("o_custkey", pa.int64())]))

    per_cust = combine_aggregate(j1, "o_custkey",
                                 [("revenue_cents", "pc_", "sum")])

    cust = rd.read_parquet(f"{sf_dir}/customer.parquet",
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


# ===================================== 3-step funnel progression

def q_funnel3_users(sf_dir: str, parts: int = 512):
    """Per-user funnel depth over view -> click -> purchase with strict
    sequential semantics (the click must follow the FIRST view, the
    purchase must follow THAT click; ties break by event_id). One
    coarse hash(user) shuffle; inside each partition a single sort and
    three masked ``np.minimum.reduceat`` sweeps compute every user's
    first-view / first-click-after / first-purchase-after positions at
    once — no per-user task, no iteration over steps x users."""
    from odinson_ray.stages.sketch import _splitmix64

    rd = _rd()
    kinds = pa.array(["view", "click", "purchase"])

    def add_part(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_in(t["event_type"], kinds))
        u = t["user_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        p = (_splitmix64(u) % np.uint64(parts)).astype(np.int64)
        return t.append_column("_p", pa.array(p, pa.int64()))

    def funnel_partition(g: pa.Table) -> pa.Table:
        g = g.drop_columns(["_p"]).combine_chunks()
        idx = pc.sort_indices(g, sort_keys=[("user_id", "ascending"),
                                            ("ts", "ascending"),
                                            ("event_id", "ascending")])
        g = g.take(idx)
        n = g.num_rows
        empty = pa.table({"user_id": pa.array([], pa.int64()),
                          "steps": pa.array([], pa.int64())})
        if n == 0:
            return empty
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

    return (rd.read_parquet(f"{sf_dir}/events.parquet",
                            columns=["user_id", "ts", "event_id",
                                     "event_type"])
            .map_batches(add_part, batch_format="pyarrow")
            .groupby("_p")
            .map_groups(funnel_partition, batch_format="pyarrow"))


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


# ===================================== differentially private counts

def q_dp_event_counts(sf_dir: str, epsilon: float = 1.0):
    """Per-event-type counts with Laplace(1/epsilon) noise — the DP
    release shape — made oracle-checkable by drawing the noise from a
    SEEDED uniform (top 60 bits of md5(key), inverse-CDF transform)
    reproduced verbatim in the SQL. A real deployment swaps the seeded
    uniform for a secure RNG; everything else (sensitivity-1 count,
    inverse-CDF Laplace) is the mechanism as published."""
    rd = _rd()

    agg = combine_aggregate(
        rd.read_parquet(f"{sf_dir}/events.parquet",
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


# ===================================== Arrow IPC roundtrip

def q_ipc_roundtrip_agg(sf_dir: str):
    """Write the documents table as an Arrow IPC layout (one Feather v2
    file per block, manifest, stat-keyed cache), read it back through
    the IPC source, and aggregate — exactness of the per-lang counts
    and sums IS the roundtrip fidelity check."""
    from ..sources.io import read_ipc, write_ipc_layout

    root = write_ipc_layout(f"{sf_dir}/documents.parquet",
                            ["doc_id", "lang", "n_chars"])

    return combine_aggregate(read_ipc(root), "lang",
                             [("n_docs", "n_chars", "count"),
                              ("chars", "n_chars", "sum")])


ORACLE_IPC_ROUNDTRIP = """
SELECT lang, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(n_chars) AS BIGINT) AS chars
FROM documents GROUP BY lang
"""


def register(queries: dict, oracles: dict) -> None:
    queries["returned_revenue_topk"] = q_returned_revenue_topk
    oracles["returned_revenue_topk"] = ORACLE_RETURNED_REVENUE
    queries["funnel3_users"] = q_funnel3_users
    oracles["funnel3_users"] = ORACLE_FUNNEL3
    queries["dp_event_counts"] = q_dp_event_counts
    oracles["dp_event_counts"] = ORACLE_DP_COUNTS
    queries["ipc_roundtrip_agg"] = q_ipc_roundtrip_agg
    oracles["ipc_roundtrip_agg"] = ORACLE_IPC_ROUNDTRIP
