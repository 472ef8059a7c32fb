"""Round-4 continuation batch: lakehouse maintenance ops (CDC merge,
SCD2 dimension build), classic multi-way join analytics (TPC-H Q3
shape), link-analysis (HITS), DeepWalk-style random walks, word2vec
skip-gram pair generation, equi-depth histograms.

Registered by ``pipelines/queries.py`` like queries2/queries3.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from odinson_ray.stages.shuffle import combine_aggregate, partial_aggregate


def _rd():
    from ..sources.io import clean_rd

    return clean_rd


# ===================================== CDC MERGE (upsert/delete apply)

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

    rd = _rd()
    snap = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
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


# ===================================== SCD2 dimension build

def q_scd2_intervals(sf_dir: str, parts: int = 256):
    """Slowly-changing-dimension (type 2) build: collapse each customer's
    order-priority history into validity intervals [valid_from, valid_to)
    — one interval per run of consecutive equal priorities in
    (o_orderdate, o_orderkey) order, valid_to = next run's start (NULL
    for the current record). The gaps-and-islands op every dimension
    pipeline needs.

    Scale shape (tiny-group rule): ONE shuffle on hash(custkey) % parts,
    then every key run in a partition resolves from a single sort +
    segmented numpy; no per-key task ever forms. A key's whole history
    must fit the partition — dimension-table semantics (bounded updates
    per entity), NOT the unbounded-event-stream case (that class uses
    the (key, bucket) carry decomposition, stages/window.py)."""
    from odinson_ray.stages.sketch import _splitmix64

    rd = _rd()
    ds = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderdate", "o_orderkey",
                 "o_orderpriority"])

    def add_part(t: pa.Table) -> pa.Table:
        h = _splitmix64(
            t["o_custkey"].to_numpy(zero_copy_only=False).astype(np.uint64))
        p = (h % np.uint64(parts)).astype(np.int64)
        return t.append_column("_p", pa.array(p, pa.int64()))

    def resolve(g: pa.Table) -> pa.Table:
        g = g.drop_columns(["_p"]).combine_chunks()
        o = pc.sort_indices(g, sort_keys=[("o_custkey", "ascending"),
                                          ("o_orderdate", "ascending"),
                                          ("o_orderkey", "ascending")])
        g = g.take(o)
        c = g["o_custkey"].to_numpy(zero_copy_only=False)
        d = g["o_orderdate"].cast(pa.timestamp("us")).cast(
            pa.int64()).to_numpy(zero_copy_only=False)  # unit-normalized
        p = g["o_orderpriority"].to_numpy(zero_copy_only=False)
        n = len(c)
        if n == 0:  # schema must match the live branch (incl. _same)
            return pa.table({
                "o_custkey": pa.array([], pa.int64()),
                "priority": pa.array([], pa.string()),
                "valid_from": pa.array([], pa.timestamp("us")),
                "valid_to": pa.array([], pa.timestamp("us")),
                "_same": pa.array([], pa.bool_()),
                "n_orders": pa.array([], pa.int64()),
            })
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
        if len(starts):
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

    out = (ds.map_batches(add_part, batch_format="pyarrow")
           .groupby("_p").map_groups(resolve, batch_format="pyarrow"))

    def null_open(t: pa.Table) -> pa.Table:
        vt = pc.if_else(t["_same"], t["valid_to"],
                        pa.nulls(t.num_rows, pa.timestamp("us")))
        return pa.table({
            "o_custkey": t["o_custkey"], "priority": t["priority"],
            "valid_from": t["valid_from"], "valid_to": vt,
            "n_orders": t["n_orders"]})

    return out.map_batches(null_open, batch_format="pyarrow")


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


# ===================================== TPC-H Q3 shape (3-way join top-k)

def q_tpch_q3(sf_dir: str):
    """Shipping-priority revenue: customer ⋈ orders ⋈ lineitem with
    selective date predicates, grouped revenue, global top-10. The
    canonical star-join: the customer market-segment filter reduces
    through the repo's ADAPTIVE broadcast-vs-shuffle gate (count the
    filtered side first — a metadata aggregate; ≤ gate → ray.put the
    sorted key array once and semi-filter orders with a vectorized
    searchsorted, zero shuffle; above it → distributed semi hash join —
    a web-scale segment is NOT driver-small, the same discipline as the
    MinHash verify and tf-idf vocab gates), the orders×lineitem join is
    the big shuffle, revenue combines map-side per (orderkey, orderdate)
    before the global groupby, and the top-k is the pruned global_topk.
    Revenue in integer cents for bit-exact comparison."""
    import ray

    from odinson_ray.stages.shuffle import global_topk, hash_join

    rd = _rd()
    CUT = np.datetime64("1995-03-15T00:00:00", "us").astype(np.int64)
    BROADCAST_GATE = int(
        __import__("os").environ.get("TPCH_Q3_BROADCAST_GATE", "5000000"))

    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_mktsegment"]).map_batches(
        lambda t: t.filter(pc.equal(t["c_mktsegment"], "BUILDING")).select(
            ["c_custkey"]),
        batch_format="pyarrow").materialize()  # counted, then consumed

    def orders_filter(t: pa.Table) -> pa.Table:
        d = t["o_orderdate"].cast(pa.timestamp("us")).cast(
            pa.int64()).to_numpy(zero_copy_only=False)
        return t.filter(pa.array(d < CUT))

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"]).map_batches(
        orders_filter, batch_format="pyarrow")

    if cust.count() <= BROADCAST_GATE:
        keys = np.sort(np.concatenate(
            [b["c_custkey"].to_numpy(zero_copy_only=False)
             for b in cust.iter_batches(batch_format="pyarrow",
                                        batch_size=65536)] or
            [np.array([], dtype=np.int64)]))
        keys_ref = ray.put(keys)

        def semi_filter(t: pa.Table) -> pa.Table:
            k = ray.get(keys_ref)
            ck = t["o_custkey"].to_numpy(zero_copy_only=False)
            if len(k) == 0:  # empty segment: nothing survives the semi
                hit = np.zeros(len(ck), dtype=bool)
            else:
                pos = np.searchsorted(k, ck)
                hit = (pos < len(k)) & (k[np.minimum(pos, len(k) - 1)] == ck)
            return t.filter(pa.array(hit)).select(
                ["o_orderkey", "o_orderdate"])

        orders = orders.map_batches(semi_filter, batch_format="pyarrow")
    else:
        orders = hash_join(
            orders, cust, on="o_custkey", right_on="c_custkey", how="semi",
            left_schema=pa.schema([("o_orderkey", pa.int64()),
                                   ("o_custkey", pa.int64()),
                                   ("o_orderdate", pa.timestamp("us"))]),
            right_schema=pa.schema([("c_custkey", pa.int64())]),
        ).select_columns(["o_orderkey", "o_orderdate"])

    def li_filter(t: pa.Table) -> pa.Table:
        d = t["l_shipdate"].cast(pa.timestamp("us")).cast(
            pa.int64()).to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(d > CUT))
        cents = pc.cast(pc.floor(pc.add(pc.multiply(pc.multiply(
            t["l_extendedprice"],
            pc.subtract(pa.scalar(1.0), t["l_discount"])),
            pa.scalar(100.0)), pa.scalar(0.5))), pa.int64())
        return pa.table({"l_orderkey": t["l_orderkey"], "cents": cents})

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
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


# ---------------------------------- shared directed-KG helpers

def _kg_directed_edges(sf_dir: str):
    """Distinct DIRECTED (src, dst) edges of the canonical triple graph,
    materialized — the shared front end of kg_hits/kg_ppr/kg_scc_seed
    (the directed twin of queries2._kg_edges)."""
    from .kg import triples_dataset

    def to_edges(t: pa.Table) -> pa.Table:
        return pa.table({"src": t["subj_canon"], "dst": t["obj_canon"]})

    return combine_aggregate(
        triples_dataset(sf_dir)
        .map_batches(to_edges, batch_format="pyarrow"),
        ["src", "dst"], []).materialize()


def _kg_seed(edges) -> str:
    """Deterministic seed entity: max out-degree, ties lexicographic —
    the ONE seed rule shared by kg_bfs_levels/kg_ppr/kg_scc_seed (and
    mirrored by their oracles' ORDER BY d DESC, src LIMIT 1)."""
    from ray.data.aggregate import Count

    from odinson_ray.stages.shuffle import global_topk

    deg = edges.groupby("src").aggregate(Count(alias_name="d"))
    return global_topk(deg, ["d", "src"], [True, False], 1) \
        .to_pandas()["src"].iloc[0]


def _kg_vertices(edges):
    """Distinct endpoint set (column v) of a (src, dst) edge Dataset."""

    def endpoints(t: pa.Table) -> pa.Table:
        v = pa.concat_arrays([t["src"].combine_chunks(),
                              t["dst"].combine_chunks()])
        return pa.table({"v": v})

    return combine_aggregate(
        edges.map_batches(endpoints, batch_format="pyarrow"),
        "v", []).materialize()


# ===================================== HITS link analysis

def q_kg_hits(sf_dir: str, iters: int = 2):
    """HITS hubs & authorities over the DIRECTED canonical triple graph
    (subj → obj), ``iters`` synchronized iterations with L1
    normalization: auth(v) = Σ hub(u) over in-edges, hub(v) = Σ auth(w)
    over out-edges, each vector divided by its sum. Same execution
    discipline as q_pagerank_entities: edges/scores stay Datasets, each
    propagation is one hash_join + a map-side-combined groupby; the only
    driver values are the normalization scalars (one float per step).
    Scores rounded to 6dp (normalized ratios of double sums — the gnn/
    pagerank comparison idiom)."""
    from odinson_ray.stages.shuffle import hash_join

    str_t, f64 = pa.string(), pa.float64()

    edges = _kg_directed_edges(sf_dir).map_batches(
        lambda t: pa.table({"s": t["src"], "o": t["dst"]}).filter(
            pc.not_equal(t["src"], t["dst"])),
        batch_format="pyarrow").materialize()  # consumed 2x/iter
    e_schema = pa.schema([("s", str_t), ("o", str_t)])

    nodes = _kg_vertices(edges.map_batches(
        lambda t: pa.table({"src": t["s"], "dst": t["o"]}),
        batch_format="pyarrow"))
    x_schema = pa.schema([("v", str_t), ("x", f64)])

    def normalize(raw):
        raw = raw.materialize()
        total = raw.sum("x")  # driver scalar: the L1 norm
        full = hash_join(nodes, raw, on="v", how="left_outer",
                         left_schema=pa.schema([("v", str_t)]),
                         right_schema=x_schema, right_suffix="_r")
        return full.map_batches(
            lambda t, tot=total: pa.table({
                "v": t["v"],
                "x": pc.divide(pc.fill_null(t["x"], 0.0),
                               pa.scalar(float(tot)))}),
            batch_format="pyarrow").materialize()

    def propagate(feature, join_on, group_to):
        # Σ feature over neighbors: edge ⋈ feature on one endpoint,
        # combiner-sum keyed by the other
        j = hash_join(edges, feature, on=join_on, right_on="v",
                      left_schema=e_schema, right_schema=x_schema)

        def partial(t: pa.Table) -> pa.Table:
            return pa.table({"v": t[group_to], "x": t["x"]})

        return combine_aggregate(
            j.map_batches(partial, batch_format="pyarrow"),
            "v", [("x", "x", "sum")])

    hub = nodes.map_batches(
        lambda t: t.append_column("x", pa.array([1.0] * t.num_rows, f64)),
        batch_format="pyarrow")
    auth = None
    for _ in range(iters):
        auth = normalize(propagate(hub, join_on="s", group_to="o"))
        hub = normalize(propagate(auth, join_on="o", group_to="s"))

    out = hash_join(auth, hub, on="v",
                    left_schema=x_schema, right_schema=x_schema)
    return out.map_batches(
        lambda t: pa.table({"entity": t["v"],
                            "auth": pc.round(t["x"], 6),
                            "hub": pc.round(t["x_r"], 6)}),
        batch_format="pyarrow")


def _hits_oracle(body: str) -> str:
    return f"""
WITH trip AS ({body}),
e AS (SELECT DISTINCT subj_canon AS s, obj_canon AS o FROM trip
      WHERE subj_canon != obj_canon),
v AS (SELECT s AS v FROM e UNION SELECT o FROM e),
a1r AS (SELECT o AS v, CAST(count(*) AS DOUBLE) AS x FROM e GROUP BY o),
a1 AS (SELECT v.v, coalesce(a1r.x, 0) / (SELECT sum(x) FROM a1r) AS x
       FROM v LEFT JOIN a1r USING (v)),
h1r AS (SELECT e.s AS v, sum(a1.x) AS x FROM e JOIN a1 ON a1.v = e.o
        GROUP BY e.s),
h1 AS (SELECT v.v, coalesce(h1r.x, 0) / (SELECT sum(x) FROM h1r) AS x
       FROM v LEFT JOIN h1r USING (v)),
a2r AS (SELECT e.o AS v, sum(h1.x) AS x FROM e JOIN h1 ON h1.v = e.s
        GROUP BY e.o),
a2 AS (SELECT v.v, coalesce(a2r.x, 0) / (SELECT sum(x) FROM a2r) AS x
       FROM v LEFT JOIN a2r USING (v)),
h2r AS (SELECT e.s AS v, sum(a2.x) AS x FROM e JOIN a2 ON a2.v = e.o
        GROUP BY e.s),
h2 AS (SELECT v.v, coalesce(h2r.x, 0) / (SELECT sum(x) FROM h2r) AS x
       FROM v LEFT JOIN h2r USING (v))
SELECT a2.v AS entity, round(a2.x, 6) AS auth, round(h2.x, 6) AS hub
FROM a2 JOIN h2 ON h2.v = a2.v
"""


# ===================================== DeepWalk-style random walks

def q_kg_random_walks(sf_dir: str, steps: int = 3):
    """One deterministic random walk of length ``steps`` from every
    entity of the (undirected) canonical KG — the DeepWalk/node2vec
    corpus-generation step that feeds graph-embedding training. The
    "random" choice at (cur, step) is argmin over neighbors of
    md5(cur|step|neighbor): reproducible at any parallelism/retry AND
    reproducible by the SQL oracle (the repo's md5-shared-with-oracle
    trade, as in kg_negative_samples — md5 is per-row Python here;
    corpus-scale walks would swap a vectorized splitmix on dictionary
    codes and drop the SQL oracle). Each step is one hash_join
    (frontier ⋈ adjacency) + a grouped_topk(k=1) argmin — no per-key
    task, no driver state."""
    import hashlib

    from odinson_ray.stages.shuffle import grouped_topk, hash_join

    from .queries2 import _kg_edges

    str_t = pa.string()

    def both(t: pa.Table) -> pa.Table:
        return pa.table({
            "a": pa.concat_arrays([t["lo"].combine_chunks(),
                                   t["hi"].combine_chunks()]),
            "b": pa.concat_arrays([t["hi"].combine_chunks(),
                                   t["lo"].combine_chunks()]),
        })

    adj = _kg_edges(sf_dir).map_batches(
        both, batch_format="pyarrow").materialize()  # consumed per step
    adj_schema = pa.schema([("a", str_t), ("b", str_t)])

    def verts(t: pa.Table) -> pa.Table:
        return pa.table({"start": t["a"]})

    frontier = combine_aggregate(
        adj.map_batches(verts, batch_format="pyarrow"),
        "start", [])
    frontier = frontier.map_batches(
        lambda t: t.append_column("cur", t["start"]),
        batch_format="pyarrow")
    walk_cols: list[str] = []

    for step in range(1, steps + 1):
        f_schema = pa.schema([("start", str_t)]
                             + [(c, str_t) for c in walk_cols]
                             + [("cur", str_t)])
        cand = hash_join(frontier, adj, on="cur", right_on="a",
                         left_schema=f_schema, right_schema=adj_schema)

        def score(t: pa.Table, s=step) -> pa.Table:
            cur = t["cur"].to_pylist()
            nbr = t["b"].to_pylist()
            key = [hashlib.md5(f"{c}|{s}|{n}".encode()).hexdigest()
                   for c, n in zip(cur, nbr)]
            return t.append_column("_k", pa.array(key, str_t))

        picked = grouped_topk(cand.map_batches(score,
                                               batch_format="pyarrow"),
                              by="start", cols=["_k", "b"],
                              descending=[False, False], k=1)
        col = f"v{step}"
        walk_cols.append(col)

        def advance(t: pa.Table, col=col, keep=list(walk_cols[:-1])) \
                -> pa.Table:
            cols = {"start": t["start"]}
            for c in keep:
                cols[c] = t[c]
            cols[col] = t["b"]
            cols["cur"] = t["b"]
            return pa.table(cols)

        frontier = picked.map_batches(advance, batch_format="pyarrow")

    return frontier.map_batches(
        lambda t: t.drop_columns(["cur"]), batch_format="pyarrow")


def _walks_oracle(body: str) -> str:
    return f"""
WITH trip AS ({body}),
e0 AS (SELECT DISTINCT least(subj_canon, obj_canon) AS lo,
              greatest(subj_canon, obj_canon) AS hi
       FROM trip WHERE subj_canon != obj_canon),
adj AS (SELECT lo AS a, hi AS b FROM e0 UNION ALL SELECT hi, lo FROM e0),
v AS (SELECT DISTINCT a AS v FROM adj),
s1 AS (SELECT v.v AS start, adj.b,
       row_number() OVER (PARTITION BY v.v
         ORDER BY md5(adj.a || '|1|' || adj.b), adj.b) AS rn
       FROM v JOIN adj ON adj.a = v.v),
w1 AS (SELECT start, b AS v1 FROM s1 WHERE rn = 1),
s2 AS (SELECT w1.start, w1.v1, adj.b,
       row_number() OVER (PARTITION BY w1.start
         ORDER BY md5(adj.a || '|2|' || adj.b), adj.b) AS rn
       FROM w1 JOIN adj ON adj.a = w1.v1),
w2 AS (SELECT start, v1, b AS v2 FROM s2 WHERE rn = 1),
s3 AS (SELECT w2.start, w2.v1, w2.v2, adj.b,
       row_number() OVER (PARTITION BY w2.start
         ORDER BY md5(adj.a || '|3|' || adj.b), adj.b) AS rn
       FROM w2 JOIN adj ON adj.a = w2.v2)
SELECT start, v1, v2, b AS v3 FROM s3 WHERE rn = 1
"""


# ===================================== word2vec skip-gram pairs

def q_skipgram_pairs(sf_dir: str, window: int = 2, k: int = 50):
    """Skip-gram (center, context) pair counts with |offset| ≤ window,
    top-k by count — the word2vec/GloVe co-occurrence extraction pass.
    Fully vectorized: each batch splits to a flat token array + doc run
    index, pairs at each offset are two aligned slices (no per-token
    loop), counts combine per batch before ONE global groupby, and the
    top-k is the pruned global_topk. The shuffle carries distinct
    (center, context) partials, never positional pairs."""
    from ray.data.aggregate import Sum

    from odinson_ray.stages.shuffle import global_topk

    rd = _rd()

    def pair_partial(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t["text"], " ").combine_chunks()
        flat = toks.values
        counts = np.diff(toks.offsets.to_numpy(zero_copy_only=False))
        doc_idx = np.repeat(np.arange(len(counts)), counts)
        n = len(doc_idx)
        centers, contexts = [], []
        for d in range(1, window + 1):
            if n <= d:
                continue
            same = doc_idx[:-d] == doc_idx[d:]
            idx = np.flatnonzero(same)
            lo = flat.take(pa.array(idx))
            hi = flat.take(pa.array(idx + d))
            centers.extend([lo, hi])
            contexts.extend([hi, lo])
        if not centers:
            return pa.table({"center": pa.array([], pa.string()),
                             "context": pa.array([], pa.string()),
                             "pn": pa.array([], pa.int64())})
        tab = pa.table({
            "center": pa.concat_arrays([a.combine_chunks()
                                        if isinstance(a, pa.ChunkedArray)
                                        else a for a in centers]),
            "context": pa.concat_arrays([a.combine_chunks()
                                         if isinstance(a, pa.ChunkedArray)
                                         else a for a in contexts]),
        })
        return partial_aggregate(tab, ["center", "context"],
                                 [("pn", None, "count_all")])

    counts = (rd.read_parquet(f"{sf_dir}/documents.parquet",
                              columns=["text"])
              .map_batches(pair_partial, batch_format="pyarrow")
              .groupby(["center", "context"])
              .aggregate(Sum("pn", alias_name="n")))
    return global_topk(counts, ["n", "center", "context"],
                       [True, False, False], k)


ORACLE_SKIPGRAM_PAIRS = """
WITH tok AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok,
         unnest(generate_series(1, len(string_split(text, ' ')))) AS p
  FROM documents
)
SELECT a.tok AS center, b.tok AS context, CAST(count(*) AS BIGINT) AS n
FROM tok a JOIN tok b
  ON a.doc_id = b.doc_id AND b.p != a.p AND abs(b.p - a.p) <= 2
GROUP BY a.tok, b.tok
ORDER BY n DESC, center, context LIMIT 50
"""


# ===================================== equi-depth histogram

def q_equidepth_histogram(sf_dir: str, buckets: int = 8):
    """Equi-depth histogram of events.value: boundaries are exact
    quantile_disc order statistics from the distinct-value histogram
    (the value_quantiles machinery — the shuffle carries distinct
    (value, count) rows, never raw rows), then a second vectorized pass
    buckets every row against the 7 broadcast boundary floats. The
    equal-WIDTH twin is value_histogram; equi-depth is what query
    optimizers and drift monitors actually store."""
    import math

    rd = _rd()
    src = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["value"])

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


# ===================================== z-order clustered 2-D skipping

def q_zorder_range_agg(sf_dir: str):
    """Rectangle-predicate aggregate (customer-key range x order-date
    range) over a Z-ORDER-clustered layout of orders: the scan opens
    only the files whose 2-D zone box intersects the predicate (a 1-D
    sort can skip on one dimension only; the Morton curve skips on
    both), then applies the exact residual filter and a map-side-
    combined count/sum. Build pays one distributed sort, amortized
    across every later rectangle scan — the OPTIMIZE ZORDER pattern."""
    from ray.data.aggregate import Sum

    from odinson_ray.stages.layout import zorder_layout, zorder_scan

    X_LO, X_HI = 100, 400
    Y_LO = np.datetime64("1995-01-01T00:00:00", "us").astype(np.int64)
    Y_HI = np.datetime64("1996-01-01T00:00:00", "us").astype(np.int64)

    root = zorder_layout(
        f"{sf_dir}/orders.parquet", "o_custkey", "o_orderdate",
        ["o_custkey", "o_orderdate", "o_totalprice"], n_shards=32)
    ds, n_read, n_total = zorder_scan(root, X_LO, X_HI, int(Y_LO),
                                      int(Y_HI))
    if ds is None:
        return pa.table({"n": pa.array([0], pa.int64()),
                         "cents": pa.array([0], pa.int64())})

    def residual(t: pa.Table) -> pa.Table:
        ck = t["o_custkey"].to_numpy(zero_copy_only=False)
        d = t["o_orderdate"].cast(pa.timestamp("us")).cast(
            pa.int64()).to_numpy(zero_copy_only=False)
        keep = (ck >= X_LO) & (ck < X_HI) & (d >= Y_LO) & (d < Y_HI)
        t = t.filter(pa.array(keep))
        cents = pc.cast(pc.floor(pc.add(pc.multiply(
            t["o_totalprice"], pa.scalar(100.0)), pa.scalar(0.5))),
            pa.int64())
        return pa.table({
            "_g": pa.array([0] * 1, pa.int64()),
            "pn": pa.array([t.num_rows], pa.int64()),
            "pc_": pa.array([int(pc.sum(cents).as_py() or 0)], pa.int64()),
        })

    agg = (ds.map_batches(residual, batch_format="pyarrow")
           .groupby("_g").aggregate(Sum("pn", alias_name="n"),
                                    Sum("pc_", alias_name="cents")))
    return agg.map_batches(lambda t: t.drop_columns(["_g"]),
                           batch_format="pyarrow")


ORACLE_ZORDER_RANGE_AGG = """
SELECT CAST(count(*) AS BIGINT) AS n,
       CAST(sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT))
            AS BIGINT) AS cents
FROM orders
WHERE o_custkey >= 100 AND o_custkey < 400
  AND o_orderdate >= TIMESTAMP '1995-01-01'
  AND o_orderdate < TIMESTAMP '1996-01-01'
"""


# ===================================== watermark late-data detection

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
    from .queries3 import record_high_counts

    rd = _rd()
    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
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


# ===================================== neighborhood-Jaccard similarity

def q_node_similarity(sf_dir: str):
    """Node-similarity (neighborhood Jaccard) over the canonical KG:
    J(n1,n2) = |N∩| / (deg1 + deg2 − |N∩|) for pairs with ≥1 common
    neighbor — the entity-resolution / link-prediction score graph
    databases ship as nodeSimilarity. Wedge self-join through the
    center with the Adamic-Adar hub cap (mirrored in the oracle), two
    degree joins for the denominator."""
    from odinson_ray.stages.graph import jaccard_pairs

    from .queries2 import _kg_edges

    return jaccard_pairs(_kg_edges(sf_dir), max_center_degree=1000)


def _node_sim_oracle(body: str) -> str:
    return f"""
WITH trip AS ({body}),
e0 AS (SELECT DISTINCT least(subj_canon, obj_canon) AS lo,
              greatest(subj_canon, obj_canon) AS hi
       FROM trip WHERE subj_canon != obj_canon),
adj AS (SELECT lo AS v, hi AS n FROM e0 UNION ALL SELECT hi, lo FROM e0),
deg AS (SELECT v, CAST(count(*) AS BIGINT) AS d FROM adj GROUP BY v),
centers AS (SELECT adj.v, adj.n FROM adj JOIN deg USING (v)
            WHERE d >= 2 AND d <= 1000),
pairs AS (SELECT a.n AS n1, b.n AS n2, CAST(count(*) AS BIGINT) AS common
          FROM centers a JOIN centers b ON a.v = b.v AND a.n < b.n
          GROUP BY a.n, b.n)
SELECT n1, n2, common,
       round(CAST(common AS DOUBLE) / (d1.d + d2.d - common), 6) AS jaccard
FROM pairs JOIN deg d1 ON d1.v = n1 JOIN deg d2 ON d2.v = n2
"""


# ===================================== interval-union active time

def q_user_active_time(sf_dir: str, window_s: int = 300, parts: int = 512):
    """Per-user ACTIVE TIME: the measure of the union of [ts, ts+300 s)
    intervals over the user's events — the engagement metric that,
    unlike a raw count, doesn't double-count bursts. With a fixed
    interval length the union has the closed form Σ min(Δi, L) + L over
    consecutive gaps, so it rides the segmented LAG shape (one coarse
    hash(user) shuffle, one sort per partition, vectorized diff with
    reset masks — a user's rows are co-located by the hash, so the
    per-user sum is complete within its partition)."""
    from odinson_ray.stages.sketch import _splitmix64

    rd = _rd()
    L = window_s * 1_000_000

    def add_part(t: pa.Table) -> pa.Table:
        u = t["user_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        p = (_splitmix64(u) % np.uint64(parts)).astype(np.int64)
        return t.append_column("_p", pa.array(p, pa.int64()))

    def active_partition(g: pa.Table) -> pa.Table:
        g = g.combine_chunks()
        idx = pc.sort_indices(g, sort_keys=[("user_id", "ascending"),
                                            ("ts", "ascending"),
                                            ("event_id", "ascending")])
        g = g.take(idx)
        n = g.num_rows
        if n == 0:
            return pa.table({"user_id": pa.array([], pa.int64()),
                             "active_us": pa.array([], pa.int64())})
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

    return (
        rd.read_parquet(f"{sf_dir}/events.parquet",
                        columns=["user_id", "ts", "event_id"])
        .map_batches(add_part, batch_format="pyarrow")
        .groupby("_p")
        .map_groups(lambda g: active_partition(g.drop_columns(["_p"])),
                    batch_format="pyarrow")
    )


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


# ===================================== training-mix diversity report

def q_source_token_share(sf_dir: str):
    """Per-source token share of the corpus plus its entropy
    contribution — the diversity report a training-mix pipeline reads
    before setting sampling weights (domain_mix's measurement twin).
    One map-side-combined groupby(source) over per-batch token counts;
    the share/entropy math runs on the #sources-sized result."""
    rd = _rd()

    def partial(t: pa.Table) -> pa.Table:
        n_tok = pc.list_value_length(pc.split_pattern(t["text"], " "))
        return pa.table({"source": t["source"],
                      "n": pc.cast(n_tok, pa.int64())})

    counts = combine_aggregate(
        rd.read_parquet(f"{sf_dir}/documents.parquet",
                        columns=["source", "text"])
        .map_batches(partial, batch_format="pyarrow"),
        "source", [("n_tokens", "n", "sum")]).materialize()
    total = int(counts.sum("n_tokens") or 0)  # None on an empty corpus

    def report(t: pa.Table) -> pa.Table:
        n = t["n_tokens"].to_numpy(zero_copy_only=False).astype(np.float64)
        share = n / float(total)
        ent = np.where(share > 0, -share * np.log2(share), 0.0)
        return pa.table({
            "source": t["source"],
            "n_tokens": t["n_tokens"],
            "share": pc.round(pa.array(share, pa.float64()), 6),
            "entropy_bits": pc.round(pa.array(ent, pa.float64()), 6),
        })

    return counts.map_batches(report, batch_format="pyarrow")


ORACLE_SOURCE_TOKEN_SHARE = """
WITH c AS (
  SELECT source, CAST(sum(len(string_split(text, ' '))) AS BIGINT)
           AS n_tokens
  FROM documents GROUP BY source
),
tot AS (SELECT CAST(sum(n_tokens) AS DOUBLE) AS N FROM c)
SELECT source, n_tokens,
       round(n_tokens / N, 6) AS share,
       round(CASE WHEN n_tokens > 0
             THEN -(n_tokens / N) * log2(n_tokens / N) ELSE 0 END, 6)
         AS entropy_bits
FROM c, tot
"""


# ===================================== conversion-window funnel

def q_funnel_window(sf_dir: str, a: str = "view", b: str = "purchase",
                    window_h: int = 24, parts: int = 512):
    """Users who convert WITHIN A WINDOW: a '{b}' event in
    (first_{a}, first_{a} + window]. Unlike funnel_users' min/max
    combiner (order only), window membership needs the user's events
    together — ONE coarse hash(user) shuffle, then per partition a
    single sort + segmented numpy: first-A per user run via masked
    minimum.reduceat, B-in-window via one vectorized mask, per-run any()
    via reduceat. No per-user task, no event leaves its partition."""
    from ray.data.aggregate import Sum

    from odinson_ray.stages.sketch import _splitmix64

    rd = _rd()
    W = window_h * 3_600_000_000

    def add_part(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_in(t["event_type"], pa.array([a, b])))
        u = t["user_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        p = (_splitmix64(u) % np.uint64(parts)).astype(np.int64)
        return t.append_column("_p", pa.array(p, pa.int64()))

    def converted_partition(g: pa.Table) -> pa.Table:
        g = g.drop_columns(["_p"]).combine_chunks()
        idx = pc.sort_indices(g, sort_keys=[("user_id", "ascending"),
                                            ("ts", "ascending")])
        g = g.take(idx)
        n = g.num_rows
        if n == 0:
            return pa.table({"pn": pa.array([0], pa.int64())})
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

    out = (rd.read_parquet(f"{sf_dir}/events.parquet",
                           columns=["user_id", "ts", "event_type"])
           .map_batches(add_part, batch_format="pyarrow")
           .groupby("_p")
           .map_groups(converted_partition, batch_format="pyarrow"))
    return (out.map_batches(
        lambda t: t.append_column("_g", pa.array([0] * t.num_rows,
                                                 pa.int64())),
        batch_format="pyarrow")
        .groupby("_g").aggregate(Sum("pn", alias_name="n_users"))
        .map_batches(lambda t: t.drop_columns(["_g"]),
                     batch_format="pyarrow"))


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


# ===================================== stream-stream windowed self-join

def q_window_join_counts(sf_dir: str, window_h: int = 1, parts: int = 512):
    """Stream-stream windowed join: for every ordered pair of events of
    the same user with ts_b ∈ (ts_a, ts_a + 1 h] ((ts, event_id) order —
    ties counted once, deterministically), the (type_a, type_b)
    co-occurrence counts. The symmetric cousin of the as-of join: ONE
    coarse hash(user) shuffle, per-partition sort, per-row window ends
    from ONE vectorized searchsorted, pair explosion via run-position
    index arithmetic (bounded by per-user activity within the window —
    the quantity the join is ABOUT), per-batch type-pair count combiner.
    No per-user task; no event row leaves its partition."""
    from ray.data.aggregate import Sum

    from odinson_ray.stages.sketch import _splitmix64

    rd = _rd()
    W = window_h * 3_600_000_000

    def add_part(t: pa.Table) -> pa.Table:
        u = t["user_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        p = (_splitmix64(u) % np.uint64(parts)).astype(np.int64)
        return t.append_column("_p", pa.array(p, pa.int64()))

    def pairs_partition(g: pa.Table) -> pa.Table:
        g = g.drop_columns(["_p"]).combine_chunks()
        idx = pc.sort_indices(g, sort_keys=[("user_id", "ascending"),
                                            ("ts", "ascending"),
                                            ("event_id", "ascending")])
        g = g.take(idx)
        n = g.num_rows
        empty = pa.table({"ta": pa.array([], pa.string()),
                          "tb": pa.array([], pa.string()),
                          "pn": pa.array([], pa.int64())})
        if n == 0:
            return empty
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

    return (rd.read_parquet(f"{sf_dir}/events.parquet",
                            columns=["user_id", "ts", "event_id",
                                     "event_type"])
            .map_batches(add_part, batch_format="pyarrow")
            .groupby("_p")
            .map_groups(pairs_partition, batch_format="pyarrow")
            .groupby(["ta", "tb"]).aggregate(Sum("pn", alias_name="n")))


ORACLE_WINDOW_JOIN_COUNTS = """
SELECT a.event_type AS ta, b.event_type AS tb,
       CAST(count(*) AS BIGINT) AS n
FROM events a JOIN events b
  ON a.user_id = b.user_id
 AND (b.ts > a.ts OR (b.ts = a.ts AND b.event_id > a.event_id))
 AND b.ts <= a.ts + INTERVAL 1 HOUR
GROUP BY a.event_type, b.event_type
"""


# ===================================== CMS join-size estimation

def q_cms_join_size(sf_dir: str):
    """Estimated |orders ⋈ events| on user key via CountMin inner
    product — the optimizer's broadcast-vs-shuffle decision input,
    computed without moving a single key (two 128-KiB sketch streams).
    Approximate BY DESIGN (one-sided: never underestimates); pytest
    pins the bound against the exact join size."""
    import pandas as pd

    from odinson_ray.stages.sketch import cms_join_size

    rd = _rd()
    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_custkey"])
    events = rd.read_parquet(f"{sf_dir}/events.parquet",
                             columns=["user_id"])
    r = cms_join_size(orders, events, "o_custkey", "user_id")
    return pd.DataFrame([r])


# ===================================== HLL set algebra (user overlap)

def q_approx_user_overlap(sf_dir: str):
    """Approximate overlap of the 'click' and 'purchase' user sets by
    HyperLogLog set algebra (union = elementwise register max, exact
    over sketches; intersection by inclusion-exclusion). The audience-
    overlap question at 100 TB without shuffling a single user id —
    only 4-KiB register blobs move. Approximate BY DESIGN (error
    compounds through inclusion-exclusion); tests pin tolerance vs the
    exact overlap."""
    from odinson_ray.stages.sketch import hll_overlap

    rd = _rd()
    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "user_id"])
    return hll_overlap(ds, "event_type", "user_id", "click", "purchase")


# ===================================== per-edge triangle support

def q_kg_edge_support(sf_dir: str):
    """Per-edge triangle support |N(lo) ∩ N(hi)| over the canonical KG —
    the quantity k-truss peeling and community-pruning pipelines
    consume. Delegates to :func:`odinson_ray.stages.graph.edge_support`
    (degree-oriented O(m^1.5) wedge enumeration, closing semi-join,
    per-batch combiner, one Sum groupby, left join back onto the edge
    list so triangle-free edges report 0)."""
    from odinson_ray.stages.graph import edge_support

    from .queries2 import _kg_edges

    return edge_support(_kg_edges(sf_dir))


def _edge_support_oracle(body: str) -> str:
    return f"""
WITH trip AS ({body}),
e0 AS (SELECT DISTINCT least(subj_canon, obj_canon) AS lo,
              greatest(subj_canon, obj_canon) AS hi
       FROM trip WHERE subj_canon != obj_canon),
adj AS (SELECT lo AS a, hi AS b FROM e0 UNION ALL SELECT hi, lo FROM e0),
sup AS (
  SELECT e.lo, e.hi, CAST(count(*) AS BIGINT) AS s
  FROM e0 e
  JOIN adj x ON x.a = e.lo
  JOIN adj y ON y.a = e.hi AND y.b = x.b
  GROUP BY e.lo, e.hi
)
SELECT e0.lo, e0.hi, coalesce(sup.s, 0) AS support
FROM e0 LEFT JOIN sup ON sup.lo = e0.lo AND sup.hi = e0.hi
"""


# ===================================== log-likelihood collocations

def q_collocations_llr(sf_dir: str, min_count: int = 5):
    """Dunning log-likelihood-ratio collocation scores for every bigram
    with count ≥ ``min_count`` — the classic corpus-linguistics
    significance test (stronger than raw PMI on rare pairs). All four
    contingency cells come from THREE count aggregates (bigram, left-
    marginal, right-marginal — each map-side combined); the LLR itself
    is two hash joins + one vectorized xlogx evaluation. Selection is
    by the INTEGER count threshold, never by the float score, so the
    result set is engine-independent; scores round to 6dp."""
    from ray.data.aggregate import Sum

    from odinson_ray.stages.shuffle import hash_join

    rd = _rd()
    str_t, f64 = pa.string(), pa.float64()

    def bigram_partial(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t["text"], " ").combine_chunks()
        flat = toks.values
        counts = np.diff(toks.offsets.to_numpy(zero_copy_only=False))
        doc_idx = np.repeat(np.arange(len(counts)), counts)
        n = len(doc_idx)
        if n < 2:
            return pa.table({"w1": pa.array([], str_t),
                             "w2": pa.array([], str_t),
                             "pn": pa.array([], pa.int64())})
        same = doc_idx[:-1] == doc_idx[1:]
        idx = np.flatnonzero(same)
        tab = pa.table({"w1": flat.take(pa.array(idx)),
                        "w2": flat.take(pa.array(idx + 1))})
        return partial_aggregate(tab, ["w1", "w2"],
                                 [("pn", None, "count_all")])

    bigrams = (rd.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["text"])
               .map_batches(bigram_partial, batch_format="pyarrow")
               .groupby(["w1", "w2"])
               .aggregate(Sum("pn", alias_name="k11"))).materialize()

    def left_marg(t: pa.Table) -> pa.Table:
        return pa.table({"w": t["w1"], "c": t["k11"]})

    def right_marg(t: pa.Table) -> pa.Table:
        return pa.table({"w": t["w2"], "c": t["k11"]})

    n1 = combine_aggregate(
        bigrams.map_batches(left_marg, batch_format="pyarrow"),
        "w", [("n1", "c", "sum")])
    n2 = combine_aggregate(
        bigrams.map_batches(right_marg, batch_format="pyarrow"),
        "w", [("n2", "c", "sum")])
    n_total = int(bigrams.sum("k11") or 0)  # driver scalar; None if empty

    freq = bigrams.map_batches(
        lambda t: t.filter(pc.greater_equal(t["k11"], min_count)),
        batch_format="pyarrow")
    j1 = hash_join(freq, n1, on="w1", right_on="w",
                   left_schema=pa.schema([("w1", str_t), ("w2", str_t),
                                          ("k11", pa.int64())]),
                   right_schema=pa.schema([("w", str_t),
                                           ("n1", pa.int64())]))
    j2 = hash_join(j1, n2, on="w2", right_on="w",
                   left_schema=pa.schema([("w1", str_t), ("w2", str_t),
                                          ("k11", pa.int64()),
                                          ("n1", pa.int64())]),
                   right_schema=pa.schema([("w", str_t),
                                           ("n2", pa.int64())]))

    def llr(t: pa.Table) -> pa.Table:
        k11 = t["k11"].to_numpy(zero_copy_only=False).astype(np.float64)
        r1 = t["n1"].to_numpy(zero_copy_only=False).astype(np.float64)
        c1 = t["n2"].to_numpy(zero_copy_only=False).astype(np.float64)
        N = float(n_total)
        k12 = r1 - k11
        k21 = c1 - k11
        k22 = N - r1 - c1 + k11

        def s(x):
            return np.where(x > 0, x * np.log(np.maximum(x, 1.0)), 0.0)

        ll = 2.0 * (s(k11) + s(k12) + s(k21) + s(k22)
                    - s(r1) - s(N - r1) - s(c1) - s(N - c1) + s(N))
        return pa.table({
            "w1": t["w1"], "w2": t["w2"], "n": t["k11"],
            "llr": pc.round(pa.array(ll, f64), 6)})

    return j2.map_batches(llr, batch_format="pyarrow")


ORACLE_COLLOCATIONS_LLR = """
WITH tok AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok,
         unnest(generate_series(1, len(string_split(text, ' ')))) AS p
  FROM documents
),
big AS (
  SELECT a.tok AS w1, b.tok AS w2, CAST(count(*) AS BIGINT) AS k11
  FROM tok a JOIN tok b ON a.doc_id = b.doc_id AND b.p = a.p + 1
  GROUP BY a.tok, b.tok
),
m1 AS (SELECT w1 AS w, sum(k11) AS n1 FROM big GROUP BY w1),
m2 AS (SELECT w2 AS w, sum(k11) AS n2 FROM big GROUP BY w2),
tot AS (SELECT CAST(sum(k11) AS DOUBLE) AS N FROM big)
SELECT w1, w2, k11 AS n,
  round(2 * (
    (CASE WHEN k11 > 0 THEN k11 * ln(k11) ELSE 0 END)
  + (CASE WHEN n1 - k11 > 0 THEN (n1 - k11) * ln(n1 - k11) ELSE 0 END)
  + (CASE WHEN n2 - k11 > 0 THEN (n2 - k11) * ln(n2 - k11) ELSE 0 END)
  + (CASE WHEN N - n1 - n2 + k11 > 0
     THEN (N - n1 - n2 + k11) * ln(N - n1 - n2 + k11) ELSE 0 END)
  - n1 * ln(n1) - (N - n1) * ln(N - n1)
  - n2 * ln(n2) - (N - n2) * ln(N - n2)
  + N * ln(N)), 6) AS llr
FROM big JOIN m1 ON m1.w = w1 JOIN m2 ON m2.w = w2, tot
WHERE k11 >= 5
"""


# ===================================== distributed PCA (top component)

def q_pca_topcomp(sf_dir: str):
    """Top principal component of the embedding column: the covariance
    comes from the same fixed-size sufficient-statistics reduce as
    embedding_cov (vectors NEVER shuffle; each batch contributes one
    (n, Σx, ΣxxT) row, salted tree merge), then the d×d eigenproblem —
    metadata-sized at any corpus size — solves on the driver. Sign
    normalized (first nonzero loading positive). Iterative linear
    algebra: no SQL oracle BY DESIGN; the pytest checks the loading
    vector against exact numpy PCA of the full table."""
    import hashlib as _hl

    import pandas as pd

    rd = _rd()

    def partial(t: pa.Table) -> pa.Table:
        x = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
        if x.size == 0:  # empty block: contribute nothing
            return pa.table({
                "_g": pa.array([], pa.int32()),
                "n": pa.array([], pa.int64()),
                "s": pa.array([], pa.list_(pa.float64())),
                "ss": pa.array([], pa.list_(pa.float64())),
            })
        s = x.sum(axis=0)
        ss = np.einsum("ni,nj->ij", x, x)
        salt = int.from_bytes(_hl.md5(s.tobytes()).digest()[:4],
                              "little") % 64
        return pa.table({
            "_g": pa.array([salt], pa.int32()),
            "n": pa.array([x.shape[0]], pa.int64()),
            "s": pa.array([s.tolist()], pa.list_(pa.float64())),
            "ss": pa.array([ss.ravel().tolist()], pa.list_(pa.float64())),
        })

    def merge(g: pa.Table) -> pa.Table:
        n = int(pc.sum(g["n"]).as_py())
        s = np.asarray(g["s"].to_pylist(), dtype=np.float64).sum(axis=0)
        ss = np.asarray(g["ss"].to_pylist(), dtype=np.float64).sum(axis=0)
        return pa.table({
            "n": pa.array([n], pa.int64()),
            "s": pa.array([s.tolist()], pa.list_(pa.float64())),
            "ss": pa.array([ss.tolist()], pa.list_(pa.float64())),
        })

    parts = (rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                             columns=["embedding"])
             .map_batches(partial, batch_format="pyarrow")
             .groupby("_g").map_groups(
                 lambda t: merge(t.drop_columns(["_g"])),
                 batch_format="pyarrow")
             .to_pandas())
    if len(parts) == 0:  # empty corpus: no components to report
        return pd.DataFrame({"dim": pd.Series([], dtype="int64"),
                             "loading": pd.Series([], dtype="float64"),
                             "eigenvalue": pd.Series([], dtype="float64")})
    n = int(parts["n"].sum())
    s = np.asarray(parts["s"].tolist(), dtype=np.float64).sum(axis=0)
    ss = np.asarray(parts["ss"].tolist(), dtype=np.float64).sum(axis=0)
    d = s.shape[0]
    mean = s / n
    cov = ss.reshape(d, d) / n - np.outer(mean, mean)
    w, v = np.linalg.eigh(cov)
    top = v[:, -1]
    nz = np.flatnonzero(np.abs(top) > 1e-12)
    if len(nz) and top[nz[0]] < 0:
        top = -top
    return pd.DataFrame({
        "dim": np.arange(1, d + 1, dtype=np.int64),
        "loading": np.round(top, 6),
        "eigenvalue": np.round(np.full(d, w[-1]), 6),
    })


# ===================================== personalized PageRank

def q_kg_ppr(sf_dir: str, iters: int = 2, damping: float = 0.85):
    """Personalized PageRank from a deterministic seed (the max-out-
    degree entity, ties lexicographically — the kg_bfs_levels seed):
    r_{t+1}(v) = (1−d)·1[v=seed] + d·Σ_{u→v} r_t(u)/outdeg(u). The
    entity-relevance ranking a KG serves per query entity. Same Dataset
    discipline as global PageRank (one hash join + map-side-combined
    groupby per iteration; edges+degrees pinned once); the restart
    vector is one indicator row, not a driver artifact. Bounded
    iterations ⇒ unrolled SQL oracle."""
    from ray.data.aggregate import Count

    from odinson_ray.stages.shuffle import hash_join

    str_t, f64 = pa.string(), pa.float64()

    edges = _kg_directed_edges(sf_dir)
    deg = edges.groupby("src").aggregate(Count(alias_name="d"))
    seed_v = _kg_seed(edges)
    nodes = _kg_vertices(edges)

    e_schema = pa.schema([("src", str_t), ("dst", str_t)])
    d_schema = pa.schema([("src", str_t), ("d", pa.int64())])
    edges_d = hash_join(edges, deg, on="src",
                        left_schema=e_schema,
                        right_schema=d_schema).materialize()
    ed_schema = pa.schema([("src", str_t), ("dst", str_t),
                           ("d", pa.int64())])
    r_schema = pa.schema([("v", str_t), ("r", f64)])

    def seed_rank(t: pa.Table, w: float) -> pa.Array:
        return pc.if_else(pc.equal(t["v"], seed_v),
                          pa.scalar(w), pa.scalar(0.0))

    ranks = nodes.map_batches(
        lambda t: pa.table({"v": t["v"], "r": seed_rank(t, 1.0)}),
        batch_format="pyarrow")
    for _ in range(iters):
        contrib = hash_join(edges_d, ranks, on="src", right_on="v",
                            left_schema=ed_schema, right_schema=r_schema)

        def partial(t: pa.Table) -> pa.Table:
            c = pc.divide(t["r"], pc.cast(t["d"], f64))
            return pa.table({"dst": t["dst"], "c": c})

        sums = combine_aggregate(
            contrib.map_batches(partial, batch_format="pyarrow"),
            "dst", [("c", "c", "sum")])
        joined = hash_join(nodes, sums, on="v", right_on="dst",
                           how="left_outer",
                           left_schema=pa.schema([("v", str_t)]),
                           right_schema=pa.schema([("dst", str_t),
                                                   ("c", f64)]))
        ranks = joined.map_batches(
            lambda t: pa.table({
                "v": t["v"],
                "r": pc.add(seed_rank(t, 1.0 - damping),
                            pc.multiply(pa.scalar(damping),
                                        pc.fill_null(t["c"], 0.0)))}),
            batch_format="pyarrow")
    return ranks.map_batches(
        lambda t: pa.table({"entity": t["v"],
                            "ppr": pc.round(t["r"], 6)}),
        batch_format="pyarrow")


def _ppr_oracle(body: str, damping: float = 0.85) -> str:
    d = damping
    return f"""
WITH trip AS ({body}),
edges AS (SELECT DISTINCT subj_canon AS src, obj_canon AS dst FROM trip),
deg AS (SELECT src, count(*) AS d FROM edges GROUP BY src),
seed AS (SELECT src AS v FROM deg ORDER BY d DESC, src LIMIT 1),
v AS (SELECT src AS v FROM edges UNION SELECT dst FROM edges),
r0 AS (SELECT v.v, CASE WHEN v.v = (SELECT v FROM seed)
                        THEN 1.0 ELSE 0.0 END AS r FROM v),
s1 AS (SELECT e.dst AS v, sum(r0.r / deg.d) AS c
       FROM edges e JOIN r0 ON r0.v = e.src JOIN deg ON deg.src = e.src
       GROUP BY e.dst),
r1 AS (SELECT v.v,
       CASE WHEN v.v = (SELECT v FROM seed) THEN {1 - d} ELSE 0 END
       + {d} * coalesce(s1.c, 0) AS r
       FROM v LEFT JOIN s1 ON s1.v = v.v),
s2 AS (SELECT e.dst AS v, sum(r1.r / deg.d) AS c
       FROM edges e JOIN r1 ON r1.v = e.src JOIN deg ON deg.src = e.src
       GROUP BY e.dst),
r2 AS (SELECT v.v,
       CASE WHEN v.v = (SELECT v FROM seed) THEN {1 - d} ELSE 0 END
       + {d} * coalesce(s2.c, 0) AS r
       FROM v LEFT JOIN s2 ON s2.v = v.v)
SELECT v AS entity, round(r, 6) AS ppr FROM r2
"""


# ===================================== SCC of the seed entity

def q_kg_scc_seed(sf_dir: str, max_rounds: int = 50):
    """The strongly-connected component containing the seed entity
    (max-out-degree, ties lexicographic — the kg_bfs_levels seed):
    forward-reachable ∩ backward-reachable, each a BFS FIXPOINT
    (frontier joins until empty, `max_rounds` runaway guard — the
    label_propagation discipline). The forward-backward step is the
    building block of distributed SCC (Fleischer-Hendrickson-Pinar);
    full SCC decomposition recurses on the partition remainder. Oracle:
    two recursive CTEs (DuckDB's UNION-distinct recursion terminates on
    cycles) intersected."""
    from odinson_ray.stages.graph import reach_fixpoint
    from odinson_ray.stages.shuffle import hash_join

    str_t = pa.string()

    edges = _kg_directed_edges(sf_dir)
    seed_v = _kg_seed(edges)

    def reach(direction: str):
        return reach_fixpoint(edges, seed_v, direction,
                              max_rounds=max_rounds)

    fw, bw = reach("fw"), reach("bw")
    scc = hash_join(fw, bw, on="v", how="semi",
                    left_schema=pa.schema([("v", str_t)]),
                    right_schema=pa.schema([("v", str_t)]))
    return scc.map_batches(lambda t: pa.table({"entity": t["v"]}),
                           batch_format="pyarrow")


def _scc_oracle(body: str) -> str:
    return f"""
WITH RECURSIVE trip AS ({body}),
edges AS (SELECT DISTINCT subj_canon AS src, obj_canon AS dst FROM trip),
deg AS (SELECT src, count(*) AS d FROM edges GROUP BY src),
seed AS (SELECT src AS v FROM deg ORDER BY d DESC, src LIMIT 1),
fw(v) AS (
  SELECT v FROM seed
  UNION
  SELECT e.dst FROM fw JOIN edges e ON e.src = fw.v
),
bw(v) AS (
  SELECT v FROM seed
  UNION
  SELECT e.src FROM bw JOIN edges e ON e.dst = bw.v
)
SELECT fw.v AS entity FROM fw JOIN bw ON bw.v = fw.v
"""


# ===================================== deterministic corpus shuffle

def q_corpus_shuffle_head(sf_dir: str, k: int = 100):
    """Deterministic global training-order shuffle: every doc gets a
    pure-function position key (md5 of its id — retry/parallelism-
    invariant AND SQL-reproducible, the repo's md5-shared trade) and the
    corpus is consumed in key order. The epoch-shuffling step of every
    training-data pipeline, without a random_shuffle whose order would
    differ per run. Output here: the first k docs of the shuffled order
    (the pruned global_topk — a full epoch consumer would iterate the
    sorted Dataset)."""
    import hashlib

    from odinson_ray.stages.shuffle import global_topk

    rd = _rd()

    def key(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        ks = [hashlib.md5(str(i).encode()).hexdigest() for i in ids]
        return pa.table({"doc_id": t["doc_id"],
                         "shuffle_key": pa.array(ks, pa.string())})

    keyed = (rd.read_parquet(f"{sf_dir}/documents.parquet",
                             columns=["doc_id"])
             .map_batches(key, batch_format="pyarrow"))
    return global_topk(keyed, ["shuffle_key", "doc_id"],
                       [False, False], k)


ORACLE_CORPUS_SHUFFLE_HEAD = """
SELECT doc_id, md5(CAST(doc_id AS VARCHAR)) AS shuffle_key
FROM documents
ORDER BY shuffle_key, doc_id LIMIT 100
"""


# ===================================== Misra-Gries heavy hitters

def q_mg_heavy_hitters(sf_dir: str):
    """Deterministic bounded-memory corpus heavy hitters (Misra-Gries,
    k=64) over document tokens. Approximate BY DESIGN — no SQL oracle
    (DuckDB has no MG); tests/test_sketch_mg.py pins the classic
    deterministic bound (est ≤ true, true − est ≤ n/(k+1), every token
    above n/(k+1) present) against exact counts."""
    from odinson_ray.stages.sketch import mg_heavy_hitters

    rd = _rd()
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    return mg_heavy_hitters(ds, "text", k=64)




# ===================================== k-truss (iterative edge peeling)

def q_kg_ktruss(sf_dir: str, k: int = 4):
    """4-truss of the canonical KG: the maximal subgraph where every
    edge closes >= k-2 = 2 triangles WITHIN the subgraph. Iterative
    peeling over :func:`odinson_ray.stages.graph.k_truss` — each round
    recomputes degree-oriented edge support over the survivors and
    drops the weak edges; converges when a pass peels nothing. The
    cohesive-core extraction step of community detection / KG cleanup
    at scale (cheaper and more parallel than clique finding). Output is
    the surviving edge list."""
    from odinson_ray.stages.graph import k_truss

    from .queries2 import _kg_edges

    return k_truss(_kg_edges(sf_dir), k=k)


def _ktruss_oracle(body: str, k: int = 4, rounds: int = 12) -> str:
    """Unrolled peeling in plain SQL: rounds are idempotent after the
    fixpoint, so ``rounds`` only needs to be >= the rounds the graph
    actually takes (pytest pins convergence <= rounds at sf0.01)."""
    parts = [f"""
WITH trip AS ({body}),
e_0 AS MATERIALIZED (SELECT DISTINCT least(subj_canon, obj_canon) AS lo,
               greatest(subj_canon, obj_canon) AS hi
        FROM trip WHERE subj_canon != obj_canon)"""]
    for i in range(rounds):
        parts.append(f""",
adj_{i} AS MATERIALIZED (SELECT lo AS a, hi AS b FROM e_{i}
            UNION ALL SELECT hi, lo FROM e_{i}),
sup_{i} AS MATERIALIZED (SELECT e.lo, e.hi, count(*) AS s
            FROM e_{i} e
            JOIN adj_{i} x ON x.a = e.lo
            JOIN adj_{i} y ON y.a = e.hi AND y.b = x.b
            GROUP BY e.lo, e.hi),
e_{i + 1} AS MATERIALIZED (SELECT e.lo, e.hi FROM e_{i} e
              JOIN sup_{i} s ON s.lo = e.lo AND s.hi = e.hi
              WHERE s.s >= {k - 2})""")
    parts.append(f"\nSELECT lo, hi FROM e_{rounds}")
    return "".join(parts)


def register(QUERIES: dict, ORACLES: dict, kg_body: str) -> None:
    QUERIES["mg_heavy_hitters"] = q_mg_heavy_hitters  # no oracle BY DESIGN
    QUERIES["late_events"] = q_late_events
    ORACLES["late_events"] = ORACLE_LATE_EVENTS
    QUERIES["node_similarity"] = q_node_similarity
    ORACLES["node_similarity"] = _node_sim_oracle(kg_body)
    QUERIES["kg_edge_support"] = q_kg_edge_support
    ORACLES["kg_edge_support"] = _edge_support_oracle(kg_body)
    QUERIES["kg_ktruss"] = q_kg_ktruss
    ORACLES["kg_ktruss"] = _ktruss_oracle(kg_body)
    QUERIES["collocations_llr"] = q_collocations_llr
    ORACLES["collocations_llr"] = ORACLE_COLLOCATIONS_LLR
    QUERIES["pca_topcomp"] = q_pca_topcomp  # no oracle BY DESIGN
    QUERIES["user_active_time"] = q_user_active_time
    ORACLES["user_active_time"] = ORACLE_USER_ACTIVE_TIME
    QUERIES["source_token_share"] = q_source_token_share
    ORACLES["source_token_share"] = ORACLE_SOURCE_TOKEN_SHARE
    QUERIES["approx_user_overlap"] = q_approx_user_overlap  # no oracle BY DESIGN
    QUERIES["funnel_window"] = q_funnel_window
    ORACLES["funnel_window"] = ORACLE_FUNNEL_WINDOW
    QUERIES["cms_join_size"] = q_cms_join_size  # no oracle BY DESIGN
    QUERIES["window_join_counts"] = q_window_join_counts
    ORACLES["window_join_counts"] = ORACLE_WINDOW_JOIN_COUNTS
    QUERIES["kg_ppr"] = q_kg_ppr
    ORACLES["kg_ppr"] = _ppr_oracle(kg_body)
    QUERIES["corpus_shuffle_head"] = q_corpus_shuffle_head
    ORACLES["corpus_shuffle_head"] = ORACLE_CORPUS_SHUFFLE_HEAD
    QUERIES["kg_scc_seed"] = q_kg_scc_seed
    ORACLES["kg_scc_seed"] = _scc_oracle(kg_body)
    QUERIES["merge_upsert"] = q_merge_upsert
    ORACLES["merge_upsert"] = ORACLE_MERGE_UPSERT
    QUERIES["scd2_intervals"] = q_scd2_intervals
    ORACLES["scd2_intervals"] = ORACLE_SCD2_INTERVALS
    QUERIES["tpch_q3"] = q_tpch_q3
    ORACLES["tpch_q3"] = ORACLE_TPCH_Q3
    QUERIES["kg_hits"] = q_kg_hits
    ORACLES["kg_hits"] = _hits_oracle(kg_body)
    QUERIES["kg_random_walks"] = q_kg_random_walks
    ORACLES["kg_random_walks"] = _walks_oracle(kg_body)
    QUERIES["skipgram_pairs"] = q_skipgram_pairs
    ORACLES["skipgram_pairs"] = ORACLE_SKIPGRAM_PAIRS
    QUERIES["equidepth_histogram"] = q_equidepth_histogram
    ORACLES["equidepth_histogram"] = ORACLE_EQUIDEPTH_HISTOGRAM
    QUERIES["zorder_range_agg"] = q_zorder_range_agg
    ORACLES["zorder_range_agg"] = ORACLE_ZORDER_RANGE_AGG
