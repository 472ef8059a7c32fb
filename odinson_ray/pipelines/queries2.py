"""Round-4 batch-k queries: graph communities / per-vertex clustering,
interval-interval overlap join, interpolated quantiles.

Registered into the main QUERIES/ORACLES registries by
``pipelines/queries.py`` (which passes its own dicts plus the shared
KG-triples CTE body, avoiding a circular import). Same contract as
queries.py: each ``q_*`` takes ``sf_dir``; oracle column names match
exactly.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from odinson_ray.stages.shuffle import combine_aggregate


def _rd():
    from ..sources.io import clean_rd

    return clean_rd


def _kg_edges(sf_dir: str):
    """Distinct undirected (lo, hi) edges of the canonical triple graph —
    the shared front end of the kg_* graph queries."""
    from .kg import triples_dataset

    def to_undirected(t: pa.Table) -> pa.Table:
        lo = pc.min_element_wise(t["subj_canon"], t["obj_canon"])
        hi = pc.max_element_wise(t["subj_canon"], t["obj_canon"])
        e = pa.table({"lo": lo, "hi": hi})
        e = e.filter(pc.not_equal(e["lo"], e["hi"]))
        return e

    return combine_aggregate(
        triples_dataset(sf_dir)
        .map_batches(to_undirected, batch_format="pyarrow"),
        ["lo", "hi"], [])


# ===================================== label-propagation communities

def q_kg_label_prop(sf_dir: str, rounds: int = 3,
                    checkpoint_dir: str | None = None):
    """Community detection by synchronous label propagation over the KG
    graph (3 bounded rounds, most-frequent neighbor label, ties to the
    smallest — stages/graph.py). The reference exposes entity
    neighborhoods via graph traversals (core/.../digraph/DirectedGraph.scala);
    community labels are the aggregate twin of that adjacency structure.
    ``checkpoint_dir`` spills the per-round pins to parquet (the same
    option connected_components/pagerank have)."""
    from odinson_ray.stages.graph import label_propagation

    pin = None
    if checkpoint_dir is not None:
        import os
        import shutil

        from ..sources.io import clean_rd

        def pin(lazy_ds, name):
            path = os.path.join(checkpoint_dir, name)
            shutil.rmtree(path, ignore_errors=True)
            os.makedirs(path, exist_ok=True)
            lazy_ds.write_parquet(path)
            return clean_rd.read_parquet(path)

    labels = label_propagation(_kg_edges(sf_dir), rounds=rounds, pin=pin)
    return labels.map_batches(
        lambda t: pa.table({"entity": t["v"], "community": t["lab"]}),
        batch_format="pyarrow")


def _label_prop_oracle(body: str, rounds: int = 3) -> str:
    head = f"""
WITH trip AS ({body}),
e0 AS (
  SELECT DISTINCT least(subj_canon, obj_canon) AS lo,
                  greatest(subj_canon, obj_canon) AS hi
  FROM trip WHERE subj_canon != obj_canon
),
edges AS (SELECT lo AS a, hi AS b FROM e0 UNION ALL SELECT hi, lo FROM e0),
lab0 AS (SELECT DISTINCT a AS v, a AS lab FROM edges)"""
    prev = "lab0"
    sql = head
    for r in range(1, rounds + 1):
        sql += f""",
c{r} AS (SELECT e.a, l.lab, count(*) AS c
         FROM edges e JOIN {prev} l ON l.v = e.b GROUP BY e.a, l.lab),
lab{r} AS (SELECT a AS v, lab FROM (
  SELECT a, lab, row_number() OVER (PARTITION BY a
                                    ORDER BY c DESC, lab ASC) AS rn
  FROM c{r}) WHERE rn = 1)"""
        prev = f"lab{r}"
    return sql + f"""
SELECT v AS entity, lab AS community FROM {prev}"""


# ===================================== per-vertex clustering coefficient

def q_kg_local_clustering(sf_dir: str):
    """Local clustering coefficient per entity: cc(v) = 2 * tri(v) /
    (deg(v) * (deg(v) - 1)) for deg >= 2, else 0. Per-vertex triangle
    counts ride the degree-oriented O(m^1.5) wedge enumeration
    (stages/graph.py triangles_per_vertex); zero-triangle vertices come
    from a left-outer join onto the degree table."""
    from odinson_ray.stages.graph import triangles_per_vertex, vertex_degrees
    from odinson_ray.stages.shuffle import hash_join

    edges = _kg_edges(sf_dir).materialize()  # consumed by degrees AND wedges
    degs = vertex_degrees(edges)
    tri = triangles_per_vertex(edges)

    joined = hash_join(
        degs, tri, on="v",
        how="left_outer",
        left_schema=pa.schema([("v", pa.string()), ("deg", pa.int64())]),
        right_schema=pa.schema([("v", pa.string()), ("n_tri", pa.int64())]))

    def finish(t: pa.Table) -> pa.Table:
        n_tri = pc.fill_null(t["n_tri"], 0)
        deg = t["deg"].to_numpy(zero_copy_only=False).astype(np.float64)
        nt = n_tri.to_numpy(zero_copy_only=False).astype(np.float64)
        denom = deg * (deg - 1.0)
        cc = np.where(deg >= 2.0, 2.0 * nt / np.where(denom == 0, 1.0, denom), 0.0)
        return pa.table({
            "entity": t["v"],
            "n_tri": pc.cast(n_tri, pa.int64()),
            "deg": t["deg"],
            "cc": pc.round(pa.array(cc, pa.float64()), 6),
        })

    return joined.map_batches(finish, batch_format="pyarrow")


def _local_clustering_oracle(body: str) -> str:
    return f"""
WITH trip AS ({body}),
dedges AS (
  SELECT DISTINCT least(subj_canon, obj_canon) AS lo,
                  greatest(subj_canon, obj_canon) AS hi
  FROM trip WHERE subj_canon != obj_canon
),
tri AS (
  SELECT ab.lo AS a, ab.hi AS b, bc.hi AS c
  FROM dedges ab JOIN dedges bc ON bc.lo = ab.hi
                 JOIN dedges ac ON ac.lo = ab.lo AND ac.hi = bc.hi
),
tv AS (
  SELECT v, count(*) AS n_tri FROM (
    SELECT a AS v FROM tri UNION ALL SELECT b FROM tri UNION ALL SELECT c FROM tri
  ) GROUP BY v
),
deg AS (
  SELECT v, count(*) AS deg FROM (
    SELECT lo AS v FROM dedges UNION ALL SELECT hi FROM dedges
  ) GROUP BY v
)
SELECT deg.v AS entity,
       CAST(COALESCE(tv.n_tri, 0) AS BIGINT) AS n_tri,
       CAST(deg.deg AS BIGINT) AS deg,
       round(CASE WHEN deg.deg >= 2
                  THEN 2.0 * COALESCE(tv.n_tri, 0) / (deg.deg * (deg.deg - 1))
                  ELSE 0.0 END, 6) AS cc
FROM deg LEFT JOIN tv ON tv.v = deg.v
"""


# ===================================== interval-interval overlap self-join

_DAY_US = 86_400 * 1_000_000
_WIN_US = 7 * _DAY_US


def overlap_pairs_per_key(ds, key: str, ident: str, start: str,
                          width_us: int, parts: int = 256):
    """Count overlapping interval pairs per key, where each row's
    interval is the CLOSED [start, start + width_us]. The classic
    bucketed interval join: every interval is replicated to the
    width-sized time buckets it spans (fixed-width windows span <= 2),
    pairs form only within a (key, bucket) group, and each overlapping
    pair is counted EXACTLY ONCE by attributing it to the bucket
    containing max(start_a, start_b) (a point both intervals contain iff
    they overlap). Pairing runs segmented-numpy inside coarse hash
    partitions — the per-(key,bucket) group never becomes a task — and a
    group's size is bounded by the key's activity within one window
    width, not its lifetime row count."""
    from ray.data.aggregate import Sum

    from odinson_ray.stages.sketch import _splitmix64

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
        kk = k[idx].astype(np.uint64)
        part = (_splitmix64(kk) % np.uint64(parts)).astype(np.int64)
        return pa.table({
            "key": pa.array(k[idx], pa.int64()),
            "ident": pa.array(i[idx], pa.int64()),
            "s": pa.array(s[idx], pa.int64()),
            "bkt": pa.array(bkt, pa.int64()),
            "_p": pa.array(part, pa.int64()),
        })

    def pair_partition(g: pa.Table) -> pa.Table:
        g = g.combine_chunks()
        order = pc.sort_indices(g, sort_keys=[("key", "ascending"),
                                              ("bkt", "ascending"),
                                              ("ident", "ascending")])
        g = g.take(order)
        k = g["key"].to_numpy(zero_copy_only=False)
        b = g["bkt"].to_numpy(zero_copy_only=False)
        s = g["s"].to_numpy(zero_copy_only=False)
        n = len(k)
        if n == 0:
            return pa.table({"key": pa.array([], pa.int64()),
                             "pn": pa.array([], pa.int64())})
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
        ds.map_batches(expand, batch_format="pyarrow")
        .groupby("_p")
        .map_groups(pair_partition, batch_format="pyarrow")
        .groupby("key").aggregate(Sum("pn", alias_name="n_pairs"))
    )


def q_order_window_overlaps(sf_dir: str):
    """Per-customer count of overlapping 7-day order-window pairs —
    the interval-interval overlap self-join (dedup shipments whose
    fulfillment windows collide)."""
    rd = _rd()
    ds = rd.read_parquet(f"{sf_dir}/orders.parquet",
                         columns=["o_custkey", "o_orderkey", "o_orderdate"])
    out = overlap_pairs_per_key(ds, key="o_custkey", ident="o_orderkey",
                                start="o_orderdate", width_us=_WIN_US)
    return out.map_batches(
        lambda t: pa.table({"custkey": t["key"], "n_pairs": t["n_pairs"]}),
        batch_format="pyarrow")


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


# ===================================== interpolated (continuous) quantiles

def q_value_quantiles_cont(sf_dir: str):
    """Interpolated quantiles (quantile_cont semantics: rank h = q*(n-1),
    result = v[floor(h)] + (v[floor(h)+1] - v[floor(h)]) * frac) of value
    per event_type. Same scale shape as value_quantiles: per-batch
    (key, value, count) combiner -> distinct-value histogram -> per-key
    selection from cumulative counts; two adjacent order statistics per
    quantile come from one searchsorted each."""
    rd = _rd()

    hist = combine_aggregate(
        rd.read_parquet(f"{sf_dir}/events.parquet",
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


ORACLE_VALUE_QUANTILES_CONT = """
SELECT event_type,
       round(quantile_cont(value, 0.25), 4) AS p25,
       round(quantile_cont(value, 0.50), 4) AS p50,
       round(quantile_cont(value, 0.75), 4) AS p75
FROM events GROUP BY event_type
"""


def register(queries: dict, oracles: dict, kg_body: str) -> None:
    queries["kg_label_prop"] = q_kg_label_prop
    oracles["kg_label_prop"] = _label_prop_oracle(kg_body, 3)
    queries["kg_local_clustering"] = q_kg_local_clustering
    oracles["kg_local_clustering"] = _local_clustering_oracle(kg_body)
    queries["order_window_overlaps"] = q_order_window_overlaps
    oracles["order_window_overlaps"] = ORACLE_ORDER_WINDOW_OVERLAPS
    queries["value_quantiles_cont"] = q_value_quantiles_cont
    oracles["value_quantiles_cont"] = ORACLE_VALUE_QUANTILES_CONT
