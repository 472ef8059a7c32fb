"""Round-4 final-session batch: temporal KG scoping, canonicalization
audit (surface-form variants), degree-distribution diagnostics, a
data-quality gate (referential integrity / constraint violations), a
distributed band join, and sorted-neighborhood blocking pairs.

Registered by ``pipelines/queries.py`` like queries2-6; each ``q_*``
takes ``sf_dir``; oracle column names match exactly.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from odinson_ray.stages.shuffle import combine_aggregate, partial_aggregate

SEP = "\x1f"


def _rd():
    from ..sources.io import clean_rd

    return clean_rd


# ===================================== temporal triple scoping

_EPOCH_2020 = 18262  # date32 day count for 2020-01-01


def _doc_day(doc_id_col):
    """Synthetic doc day: int(doc_id[4:]) % 365 — the ONE place the
    scheme lives (mirrored verbatim by the `did % 365` in the oracles)."""
    did = pc.cast(pc.utf8_slice_codeunits(doc_id_col, 4, 99), pa.int64())
    return pc.subtract(did, pc.multiply(pc.divide(did, 365), 365))


def _day_to_ts(day_col):
    """day offset (int64) -> timestamp[us] at DATE '2020-01-01' + day."""
    return (pc.cast(pc.add(day_col, _EPOCH_2020), pa.int32())
            .cast(pa.date32()).cast(pa.timestamp("us")))



def q_kg_temporal_triples(sf_dir: str):
    """Temporal scoping of canonical triples: the observation window
    (first_seen, last_seen) and distinct-document support per triple,
    from a deterministic per-document date (doc day = did % 365 over a
    2020 base — the testdata carries no date column, so the date is a
    pure function of doc_id computed identically by the oracle).
    Temporal KGs ship exactly this validity metadata next to each edge
    (reference parity: Odinson mentions carry docId provenance,
    core/src/main/scala/ai/lum/odinson/Mention.scala — this is its
    date-resolved aggregate twin).

    Shape: doc-granular triples (kg_provenance's front end), one global
    distinct on (triple, doc), then a per-batch min/max/count combiner
    so the final groupby sees one row per (triple, batch) — shuffle
    volume is triple-vocabulary-bounded, never corpus-bounded."""
    from odinson_ray.stages.canon import canonicalize_dataset
    from odinson_ray.stages.triples import mentions_to_triples

    from .kg import mentions_dataset

    mentions = mentions_dataset(sf_dir).map_batches(
        lambda t: t.filter(pc.equal(t["label"], "SVO")),
        batch_format="pyarrow")
    trips, _roots = canonicalize_dataset(
        mentions.map_batches(mentions_to_triples, batch_format="pyarrow"))

    def keyed_distinct(t: pa.Table) -> pa.Table:
        tk = pc.binary_join_element_wise(
            t["subj_canon"], t["pred"], t["obj_canon"], SEP)
        return pa.table({"tk": tk, "doc_id": t["doc_id"]})

    td = combine_aggregate(
        trips.map_batches(keyed_distinct, batch_format="pyarrow"),
        ["tk", "doc_id"], [])

    def window_project(t: pa.Table) -> pa.Table:
        return pa.table({"tk": t["tk"], "day": _doc_day(t["doc_id"])})

    agg = combine_aggregate(
        td.map_batches(window_project, batch_format="pyarrow"),
        "tk",
        [("d0", "day", "min"), ("d1", "day", "max"),
         ("n_docs", None, "count_all")])

    def finish(t: pa.Table) -> pa.Table:
        flat = pc.list_flatten(
            pc.split_pattern(t["tk"], SEP)).combine_chunks()
        n = len(t)
        idx = np.arange(n, dtype=np.int64) * 3
        return pa.table({
            "subj_canon": flat.take(pa.array(idx)),
            "pred": flat.take(pa.array(idx + 1)),
            "obj_canon": flat.take(pa.array(idx + 2)),
            "first_seen": _day_to_ts(t["d0"]),
            "last_seen": _day_to_ts(t["d1"]),
            "n_docs": t["n_docs"]})

    return agg.map_batches(finish, batch_format="pyarrow")


def _temporal_oracle(doc_body: str) -> str:
    return f"""
WITH dt AS ({doc_body})
SELECT subj_canon, pred, obj_canon,
       DATE '2020-01-01' + CAST(min(did % 365) AS INT) AS first_seen,
       DATE '2020-01-01' + CAST(max(did % 365) AS INT) AS last_seen,
       CAST(count(*) AS BIGINT) AS n_docs
FROM dt GROUP BY 1, 2, 3
"""


# ===================================== canonicalization audit

def q_kg_surface_variants(sf_dir: str):
    """Per canonical entity: how many distinct surface forms merged into
    it, total endpoint mentions, and the lexicographically-first surface
    as an example — the audit a canonicalization stage ships so a human
    can spot over-merging (reference parity: the norm-synonym field in
    Odinson's index, extra/.../IndexWriter.scala; this is its inverse
    view, canon -> surfaces).

    Shape: endpoint (canon, surface, n) pairs off the aggregated triple
    stream, per-batch combiner, one (canon, surface) groupby, then a
    per-canon combiner + groupby — both shuffles vocabulary-bounded."""
    from .kg import triples_dataset

    trips = triples_dataset(sf_dir)

    def endpoint_project(t: pa.Table) -> pa.Table:
        ent = pa.chunked_array([t["subj_canon"].combine_chunks(),
                                t["obj_canon"].combine_chunks()])
        surf = pa.chunked_array([t["subj"].combine_chunks(),
                                 t["obj"].combine_chunks()])
        n = pa.chunked_array([t["n"].combine_chunks(),
                              t["n"].combine_chunks()])
        return pa.table({"entity": ent, "surf": surf, "n": n})

    ps = combine_aggregate(
        trips.map_batches(endpoint_project, batch_format="pyarrow"),
        ["entity", "surf"], [("sn", "n", "sum")])

    return combine_aggregate(ps, "entity",
                             [("n_surfaces", None, "count_all"),
                              ("n_mentions", "sn", "sum"),
                              ("example_surface", "surf", "min")])


def _surface_variants_oracle(body: str) -> str:
    return f"""
WITH trip AS ({body}),
pairs AS (
  SELECT subj_canon AS entity, subj AS surf, n FROM trip
  UNION ALL
  SELECT obj_canon, obj, n FROM trip
),
ps AS (
  SELECT entity, surf, CAST(sum(n) AS BIGINT) AS sn
  FROM pairs GROUP BY 1, 2
)
SELECT entity, CAST(count(*) AS BIGINT) AS n_surfaces,
       CAST(sum(sn) AS BIGINT) AS n_mentions,
       min(surf) AS example_surface
FROM ps GROUP BY 1
"""


# ===================================== degree distribution diagnostics

def q_kg_degree_distribution(sf_dir: str):
    """Log2-binned degree histogram of the KG — the one-page power-law
    diagnostic (straight-ish line on the log-log histogram) a graph
    pipeline prints before choosing skew strategies. Rides
    vertex_degrees' combiner; the histogram itself is <= 64 rows.
    floor(log2(deg)) over int64 degrees is exact in IEEE double on both
    engines (the boundary cases are exact powers of two, where log2 is
    exact)."""
    from odinson_ray.stages.graph import vertex_degrees

    from .queries2 import _kg_edges

    degs = vertex_degrees(_kg_edges(sf_dir))

    def bucket_project(t: pa.Table) -> pa.Table:
        d = t["deg"].to_numpy(zero_copy_only=False).astype(np.float64)
        b = np.floor(np.log2(d)).astype(np.int64)
        return pa.table({"deg_bucket": pa.array(b)})

    return combine_aggregate(
        degs.map_batches(bucket_project, batch_format="pyarrow"),
        "deg_bucket", [("n_vertices", None, "count_all")])


def _degree_dist_oracle(body: str) -> str:
    return f"""
WITH trip AS ({body}),
e0 AS (SELECT DISTINCT least(subj_canon, obj_canon) AS lo,
              greatest(subj_canon, obj_canon) AS hi
       FROM trip WHERE subj_canon != obj_canon),
deg AS (
  SELECT v, CAST(count(*) AS BIGINT) AS deg FROM (
    SELECT lo AS v FROM e0 UNION ALL SELECT hi FROM e0
  ) GROUP BY v
)
SELECT CAST(floor(log2(deg)) AS BIGINT) AS deg_bucket,
       CAST(count(*) AS BIGINT) AS n_vertices
FROM deg GROUP BY 1
"""


# ===================================== data-quality gate

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

    rd = _rd()
    i64 = pa.int64()
    f64 = pa.float64()
    # each base table feeds several sequential checks: pin once so the
    # five driver-blocking jobs do not rescan the parquet (orders 4x,
    # lineitem 2x otherwise)
    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_orderkey", "l_quantity"]).materialize()
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey"]).materialize()
    cust = rd.read_parquet(f"{sf_dir}/customer.parquet",
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


# ===================================== distributed band join

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

    rd = _rd()
    sup = rd.read_parquet(f"{sf_dir}/supplier.parquet",
                          columns=["s_nationkey", "s_acctbal"])
    cust = rd.read_parquet(f"{sf_dir}/customer.parquet",
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


ORACLE_BAND_JOIN = """
SELECT s_nationkey AS nationkey, CAST(count(*) AS BIGINT) AS n_pairs
FROM supplier JOIN customer
  ON c_nationkey = s_nationkey
 AND abs(s_acctbal - c_acctbal) <= 100.0
GROUP BY 1
"""


# ===================================== sorted-neighborhood blocking

def q_sorted_neighborhood_pairs(sf_dir: str, window: int = 3,
                                n_buckets: int = 64,
                                chunk: int = 4096):
    """Sorted-neighborhood record-linkage blocking over documents: order
    by the first-7-chars blocking key (doc_id tie-break) and emit every
    candidate pair within ``window`` ranks. Delegates to the generic
    :func:`odinson_ray.stages.blocking.snm_pairs` (offsets-before-shuffle
    dense rank over an int64 prefix surrogate; coarse rank chunks with
    window-1 boundary replicas; vectorized searchsorted+repeat pairing —
    see the module docstring for the scale shape)."""
    from odinson_ray.stages.blocking import snm_pairs

    rd = _rd()
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    pairs = snm_pairs(docs, key_col="text", id_col="doc_id",
                      window=window, n_buckets=n_buckets, chunk=chunk)
    return pairs.map_batches(
        lambda t: t.rename_columns(["doc_a", "doc_b"]),
        batch_format="pyarrow")


ORACLE_SORTED_NEIGHBORHOOD = """
WITH r AS (
  SELECT doc_id,
         ROW_NUMBER() OVER (ORDER BY substr(text, 1, 7), doc_id) AS rn
  FROM documents
)
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
FROM r a JOIN r b ON b.rn > a.rn AND b.rn - a.rn < 3
"""




# ===================================== component-size histogram

def q_kg_component_sizes(sf_dir: str):
    """Connected-component size histogram of the KG — (size,
    n_components), the fragmentation diagnostic a KG build prints to
    detect a shattered graph (many tiny components) or an
    over-canonicalized one (one giant blob). Rides the pointer-jumping
    connected_components (stages/canon.py); both downstream groupbys
    are combiner-fed and component-vocabulary-bounded."""
    from odinson_ray.stages.canon import connected_components

    from .queries2 import _kg_edges

    edges = _kg_edges(sf_dir).map_batches(
        lambda t: t.rename_columns(["a", "b"]), batch_format="pyarrow")
    cc = connected_components(edges)

    sizes = combine_aggregate(cc, "root", [("size", None, "count_all")])

    return combine_aggregate(sizes, "size",
                             [("n_components", None, "count_all")])


def _component_sizes_oracle(body: str) -> str:
    return f"""
WITH RECURSIVE trip AS ({body}),
e0 AS (SELECT DISTINCT least(subj_canon, obj_canon) AS lo,
              greatest(subj_canon, obj_canon) AS hi
       FROM trip WHERE subj_canon != obj_canon),
adj AS (SELECT lo AS u, hi AS v FROM e0 UNION SELECT hi, lo FROM e0),
reach(u, v) AS (
  SELECT u, v FROM adj
  UNION
  SELECT r.u, a.v FROM reach r JOIN adj a ON r.v = a.u
),
comp AS (
  SELECT u AS node, least(u, min(v)) AS root FROM reach GROUP BY u
),
sizes AS (
  SELECT root, CAST(count(*) AS BIGINT) AS size FROM comp GROUP BY root
)
SELECT size, CAST(count(*) AS BIGINT) AS n_components
FROM sizes GROUP BY size
"""


# ===================================== maximal independent set

def q_kg_mis(sf_dir: str):
    """Deterministic Luby maximal independent set over the KG — the
    classic symmetry-breaking primitive behind distributed coloring /
    scheduling (and a conflict-free seed set for parallel KG curation:
    no two selected entities share an edge). md5 priorities make every
    round reproducible at any parallelism AND SQL-checkable; the oracle
    unrolls 8 rounds (idempotent past convergence — rounds after the
    active set empties select nothing)."""
    from odinson_ray.stages.graph import maximal_independent_set

    from .queries2 import _kg_edges

    return maximal_independent_set(_kg_edges(sf_dir))


def _mis_oracle(body: str, rounds: int = 8) -> str:
    parts = [f"""
WITH trip AS ({body}),
ee AS MATERIALIZED (SELECT DISTINCT least(subj_canon, obj_canon) AS lo,
              greatest(subj_canon, obj_canon) AS hi
       FROM trip WHERE subj_canon != obj_canon),
e_0 AS MATERIALIZED (SELECT lo AS a, hi AS b FROM ee
                     UNION ALL SELECT hi, lo FROM ee),
v_0 AS MATERIALIZED (SELECT DISTINCT a AS v FROM e_0)"""]
    for i in range(rounds):
        parts.append(f""",
mn_{i} AS MATERIALIZED (SELECT a, min(md5(b)) AS mn
                        FROM e_{i} GROUP BY a),
s_{i} AS MATERIALIZED (
  SELECT v FROM v_{i} LEFT JOIN mn_{i} ON mn_{i}.a = v_{i}.v
  WHERE mn IS NULL OR md5(v) < mn),
r_{i} AS MATERIALIZED (
  SELECT v FROM s_{i}
  UNION
  SELECT e.b FROM e_{i} e JOIN s_{i} s ON e.a = s.v),
v_{i + 1} AS MATERIALIZED (
  SELECT v FROM v_{i} EXCEPT SELECT v FROM r_{i}),
e_{i + 1} AS MATERIALIZED (
  SELECT e.a, e.b FROM e_{i} e
  JOIN v_{i + 1} x ON e.a = x.v
  JOIN v_{i + 1} y ON e.b = y.v)""")
    union = "\nUNION ALL\n".join(f"SELECT v FROM s_{i}"
                                   for i in range(rounds))
    parts.append(f"\nSELECT v FROM ({union})")
    return "".join(parts)




# ===================================== triple confidence scoring

def q_kg_triple_confidence(sf_dir: str):
    """Source-diversity-weighted triple confidence: a triple asserted by
    many documents from many DIFFERENT sources outranks one repeated by
    a single crawler — the knowledge-fusion scoring step after
    extraction (Dong et al.-style support x diversity, integer-exact so
    the oracle compares bit-for-bit): confidence = n_docs * n_sources.

    Shape: distinct (triple, doc) stream joined DISTRIBUTED to the
    documents table on the numeric doc id (corpus-keyed hash join — the
    doc->source map is corpus-sized, so no broadcast); n_docs and
    n_sources come from two combiner-fed aggregates merged by one
    vocabulary-bounded join."""
    from odinson_ray.stages.canon import canonicalize_dataset
    from odinson_ray.stages.shuffle import hash_join
    from odinson_ray.stages.triples import mentions_to_triples

    from .kg import mentions_dataset

    rd = _rd()
    mentions = mentions_dataset(sf_dir).map_batches(
        lambda t: t.filter(pc.equal(t["label"], "SVO")),
        batch_format="pyarrow")
    trips, _roots = canonicalize_dataset(
        mentions.map_batches(mentions_to_triples, batch_format="pyarrow"))

    def keyed_distinct(t: pa.Table) -> pa.Table:
        tk = pc.binary_join_element_wise(
            t["subj_canon"], t["pred"], t["obj_canon"], SEP)
        did = pc.cast(pc.utf8_slice_codeunits(t["doc_id"], 4, 99),
                      pa.int64())
        return pa.table({"tk": tk, "did": did})

    td = combine_aggregate(
        trips.map_batches(keyed_distinct, batch_format="pyarrow"),
        ["tk", "did"], []).materialize()

    ndocs = combine_aggregate(td, "tk", [("n_docs", None, "count_all")])

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "source"])
    joined = hash_join(
        td, docs, on="did", right_on="doc_id",
        left_schema=pa.schema([("tk", pa.string()), ("did", pa.int64())]),
        right_schema=pa.schema([("doc_id", pa.int64()),
                                ("source", pa.string())]))

    tsrc = combine_aggregate(joined, ["tk", "source"], [])

    nsrc = combine_aggregate(tsrc, "tk", [("n_sources", None, "count_all")])

    both = hash_join(
        ndocs, nsrc, on="tk",
        left_schema=pa.schema([("tk", pa.string()),
                               ("n_docs", pa.int64())]),
        right_schema=pa.schema([("tk", pa.string()),
                                ("n_sources", pa.int64())]))

    def finish(t: pa.Table) -> pa.Table:
        flat = pc.list_flatten(
            pc.split_pattern(t["tk"], SEP)).combine_chunks()
        idx = np.arange(len(t), dtype=np.int64) * 3
        return pa.table({
            "subj_canon": flat.take(pa.array(idx)),
            "pred": flat.take(pa.array(idx + 1)),
            "obj_canon": flat.take(pa.array(idx + 2)),
            "n_docs": t["n_docs"],
            "n_sources": t["n_sources"],
            "confidence": pc.multiply(t["n_docs"], t["n_sources"])})

    return both.map_batches(finish, batch_format="pyarrow")


def _triple_confidence_oracle(doc_body: str) -> str:
    return f"""
WITH dt AS ({doc_body}),
j AS (SELECT dt.subj_canon, dt.pred, dt.obj_canon, d.source
      FROM dt JOIN documents d ON d.doc_id = dt.did),
a AS (SELECT subj_canon, pred, obj_canon,
             CAST(count(*) AS BIGINT) AS n_docs
      FROM dt GROUP BY 1, 2, 3),
b AS (SELECT subj_canon, pred, obj_canon,
             CAST(count(DISTINCT source) AS BIGINT) AS n_sources
      FROM j GROUP BY 1, 2, 3)
SELECT a.subj_canon, a.pred, a.obj_canon, a.n_docs, b.n_sources,
       a.n_docs * b.n_sources AS confidence
FROM a JOIN b USING (subj_canon, pred, obj_canon)
"""


# ===================================== functional-dependency profiling

_FD_CANDIDATES = [
    ("custkey_determines_priority", "o_custkey", "o_orderpriority"),
    ("status_determines_priority", "o_orderstatus", "o_orderpriority"),
    ("priority_determines_status", "o_orderpriority", "o_orderstatus"),
]


def q_fd_violations(sf_dir: str):
    """Functional-dependency profiling over orders: for each candidate
    A -> B, how many distinct A-values exist and how many map to MORE
    than one B (FD violations) — the schema-discovery pass data-quality
    tooling runs before declaring constraints. Per FD: one distinct
    (A, B) combiner groupby, then a per-A count — both
    vocabulary-bounded; two scalars per FD reach the driver."""
    import pandas as pd

    rd = _rd()
    cols = sorted({c for _, a, b in _FD_CANDIDATES for c in (a, b)})
    base = rd.read_parquet(f"{sf_dir}/orders.parquet",
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


# ===================================== predicate co-occurrence

def q_kg_pred_cooccurrence(sf_dir: str):
    """Predicate co-occurrence graph: unordered predicate pairs asserted
    within the SAME document, with document counts — the relation-level
    analog of entity PMI (schema induction: predicates that co-occur
    often are candidates for composition rules). Distinct (doc, pred)
    rows shuffle ONCE on a coarse doc-hash; per-partition pairing is
    segmented index arithmetic over doc runs (pair count per doc is
    C(#preds, 2) <= C(6, 2) — bounded by the predicate vocabulary)."""
    from ray.data.aggregate import Sum

    from odinson_ray.stages.canon import canonicalize_dataset
    from odinson_ray.stages.sketch import _splitmix64
    from odinson_ray.stages.triples import mentions_to_triples

    from .kg import mentions_dataset

    PARTS = 256
    mentions = mentions_dataset(sf_dir).map_batches(
        lambda t: t.filter(pc.equal(t["label"], "SVO")),
        batch_format="pyarrow")
    trips, _roots = canonicalize_dataset(
        mentions.map_batches(mentions_to_triples, batch_format="pyarrow"))

    dp = combine_aggregate(trips, ["doc_id", "pred"], [])

    def add_part(t: pa.Table) -> pa.Table:
        import hashlib

        d = t["doc_id"].combine_chunks()
        uniq = pc.unique(d)
        hv = np.array([int(hashlib.md5(v.encode()).hexdigest()[:12], 16)
                       for v in uniq.to_pylist()], dtype=np.uint64)
        p = pa.array((hv % PARTS).astype(np.int64), pa.int64())
        idx = pc.index_in(d, value_set=uniq)
        return t.append_column("_p", p.take(idx))

    def pair_partition(g: pa.Table) -> pa.Table:
        g = g.combine_chunks()
        o = pc.sort_indices(g, sort_keys=[("doc_id", "ascending"),
                                          ("pred", "ascending")])
        g = g.take(o)
        d = g["doc_id"].to_numpy(zero_copy_only=False)
        p = g["pred"].to_numpy(zero_copy_only=False)
        n = len(d)
        if n == 0:
            return pa.table({"pred_a": pa.array([], pa.string()),
                             "pred_b": pa.array([], pa.string()),
                             "pn": pa.array([], pa.int64())})
        starts = np.concatenate(([0], np.flatnonzero(d[1:] != d[:-1]) + 1))
        lens = np.diff(np.append(starts, n))
        # per-run all pairs (i < j): vectorized via per-run repeat
        reps = np.repeat(lens - 1, lens) - (
            np.arange(n) - np.repeat(starts, lens))
        reps = np.maximum(reps, 0)
        total = int(reps.sum())
        if total == 0:
            return pa.table({"pred_a": pa.array([], pa.string()),
                             "pred_b": pa.array([], pa.string()),
                             "pn": pa.array([], pa.int64())})
        i_idx = np.repeat(np.arange(n), reps)
        off = np.repeat(np.cumsum(reps) - reps, reps)
        j_idx = i_idx + 1 + (np.arange(total) - off)
        tab = pa.table({"pred_a": pa.array(p[i_idx], pa.string()),
                        "pred_b": pa.array(p[j_idx], pa.string())})
        return partial_aggregate(tab, ["pred_a", "pred_b"],
                                 [("pn", None, "count_all")])

    return (dp.map_batches(add_part, batch_format="pyarrow")
            .groupby("_p").map_groups(pair_partition,
                                      batch_format="pyarrow")
            .groupby(["pred_a", "pred_b"])
            .aggregate(Sum("pn", alias_name="n_docs")))


def _pred_cooc_oracle(doc_body: str) -> str:
    return f"""
WITH dt AS ({doc_body}),
dp AS (SELECT DISTINCT doc_id, pred FROM dt)
SELECT a.pred AS pred_a, b.pred AS pred_b,
       CAST(count(*) AS BIGINT) AS n_docs
FROM dp a JOIN dp b ON a.doc_id = b.doc_id AND a.pred < b.pred
GROUP BY 1, 2
"""




# ===================================== first-event-per-window throttle

def q_event_throttle(sf_dir: str, window_us: int = 300_000_000):
    """Rate-limit dedup: keep only the FIRST event per (user, 5-minute
    tumbling window) — the throttling/debounce primitive of alerting
    and notification pipelines. Argmin is made associative by packing
    (ts, event_id) into one fixed-width sortable string, so a plain
    per-batch combiner + global Min groupby replaces any per-key sort;
    ties break on event_id exactly as the oracle's ROW_NUMBER order."""
    rd = _rd()
    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
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


# ===================================== entity temporal profile

def q_kg_entity_timeline(sf_dir: str):
    """Per-entity temporal profile: first/last observation date, distinct
    supporting documents, and distinct active days — the entity-grain
    twin of kg_temporal_triples (the dashboard row a KG ships per node).
    Endpoint union → distinct (entity, doc) → combiner min/max/count;
    active days from a second distinct (entity, day) aggregate; ONE
    vocabulary-bounded join merges the two."""
    from odinson_ray.stages.canon import canonicalize_dataset
    from odinson_ray.stages.shuffle import hash_join
    from odinson_ray.stages.triples import mentions_to_triples

    from .kg import mentions_dataset

    mentions = mentions_dataset(sf_dir).map_batches(
        lambda t: t.filter(pc.equal(t["label"], "SVO")),
        batch_format="pyarrow")
    trips, _roots = canonicalize_dataset(
        mentions.map_batches(mentions_to_triples, batch_format="pyarrow"))

    def ent_doc(t: pa.Table) -> pa.Table:
        ent = pa.chunked_array([t["subj_canon"].combine_chunks(),
                                t["obj_canon"].combine_chunks()])
        doc = pa.chunked_array([t["doc_id"].combine_chunks(),
                                t["doc_id"].combine_chunks()])
        return pa.table({"entity": ent, "doc_id": doc})

    ed = combine_aggregate(trips.map_batches(ent_doc, batch_format="pyarrow"),
                           ["entity", "doc_id"], []).materialize()

    def win_project(t: pa.Table) -> pa.Table:
        return pa.table({"entity": t["entity"],
                         "day": _doc_day(t["doc_id"])})

    win = combine_aggregate(
        ed.map_batches(win_project, batch_format="pyarrow"),
        "entity",
        [("d0", "day", "min"), ("d1", "day", "max"),
         ("n_docs", None, "count_all")])

    def day_distinct(t: pa.Table) -> pa.Table:
        return pa.table({"entity": t["entity"],
                         "day": _doc_day(t["doc_id"])})

    days = combine_aggregate(
        combine_aggregate(ed.map_batches(day_distinct, batch_format="pyarrow"),
                          ["entity", "day"], []),
        "entity", [("n_active_days", None, "count_all")])

    both = hash_join(
        win, days, on="entity",
        left_schema=pa.schema([("entity", pa.string()),
                               ("d0", pa.int64()), ("d1", pa.int64()),
                               ("n_docs", pa.int64())]),
        right_schema=pa.schema([("entity", pa.string()),
                                ("n_active_days", pa.int64())]))

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "entity": t["entity"],
            "first_seen": _day_to_ts(t["d0"]),
            "last_seen": _day_to_ts(t["d1"]),
            "n_docs": t["n_docs"],
            "n_active_days": t["n_active_days"]})

    return both.map_batches(finish, batch_format="pyarrow")


def _entity_timeline_oracle(doc_body: str) -> str:
    return f"""
WITH dt AS ({doc_body}),
ed AS (
  SELECT DISTINCT entity, did FROM (
    SELECT subj_canon AS entity, did FROM dt
    UNION ALL
    SELECT obj_canon, did FROM dt
  )
),
win AS (
  SELECT entity,
         DATE '2020-01-01' + CAST(min(did % 365) AS INT) AS first_seen,
         DATE '2020-01-01' + CAST(max(did % 365) AS INT) AS last_seen,
         CAST(count(*) AS BIGINT) AS n_docs
  FROM ed GROUP BY entity
),
days AS (
  SELECT entity, CAST(count(*) AS BIGINT) AS n_active_days
  FROM (SELECT DISTINCT entity, did % 365 FROM ed) GROUP BY entity
)
SELECT win.entity, win.first_seen, win.last_seen, win.n_docs,
       days.n_active_days
FROM win JOIN days USING (entity)
"""




# ===================================== end-to-end curation funnel

def q_curation_funnel(sf_dir: str, contam_min_shared: int = 5):
    """The composed curation pipeline as ONE report: documents surviving
    each stage of exact-dedup -> quality-filter -> decontamination (the
    funnel chart every training-data run publishes). Reuses the exact
    kernels of the standalone stages (same md5 fingerprints, same Gopher
    rule masks, same broadcast eval-gram set), so each row equals the
    corresponding standalone query's survivor count; the funnel adds the
    STAGE COMPOSITION — survivors flow dataset-to-dataset via semi/anti
    joins, and only the four stage counts reach the driver."""
    import pandas as pd

    from odinson_ray.stages.curate import decontaminate
    from odinson_ray.stages.shuffle import hash_join
    from odinson_ray.stages.text import (content_fingerprints,
                                         gopher_quality_mask)

    rd = _rd()
    i64 = pa.int64()
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    s0 = docs.count()

    # stage 1: exact dedup — first doc per md5(text) (q_dedup_exact's
    # pure-aggregate decomposition)
    def keyed_project(t: pa.Table) -> pa.Table:
        return pa.table({"fp": content_fingerprints(t["text"]),
                         "doc_id": t["doc_id"]})

    keep1 = combine_aggregate(
        docs.map_batches(keyed_project, batch_format="pyarrow"),
        "fp", [("doc_id", "doc_id", "min")]).drop_columns(["fp"]).materialize()
    s1 = keep1.count()

    surv1 = hash_join(
        docs, keep1, on="doc_id", how="semi",
        left_schema=pa.schema([("doc_id", i64), ("text", pa.string())]),
        right_schema=pa.schema([("doc_id", i64)]))

    # stage 2: Gopher quality rules — the SHARED mask (stages/text.py)
    def quality_keep(t: pa.Table) -> pa.Table:
        return t.filter(gopher_quality_mask(t)).select(["doc_id"])

    surv2 = surv1.map_batches(quality_keep,
                              batch_format="pyarrow").materialize()
    s2 = surv2.count()

    # stage 3: decontamination — drop the eval slice itself and any doc
    # sharing >= contam_min_shared distinct 3-grams with it
    contaminated = decontaminate(sf_dir, n=3, eval_mod=97).map_batches(
        lambda t: t.filter(pc.greater_equal(
            t["n_shared"], contam_min_shared)).select(["doc_id"]),
        batch_format="pyarrow")
    non_eval = surv2.map_batches(
        lambda t: t.filter(pc.not_equal(
            pc.subtract(t["doc_id"], pc.multiply(
                pc.divide(t["doc_id"], 97), pa.scalar(97, i64))),
            pa.scalar(0, i64))),
        batch_format="pyarrow")
    surv3 = hash_join(
        non_eval, contaminated, on="doc_id", how="anti",
        left_schema=pa.schema([("doc_id", i64)]),
        right_schema=pa.schema([("doc_id", i64)]))
    s3 = surv3.count()

    return pd.DataFrame({
        "stage": ["total", "exact_dedup", "quality", "decontaminated"],
        "docs_remaining": np.array([s0, s1, s2, s3], dtype=np.int64),
    })


ORACLE_CURATION_FUNNEL = """
WITH d1 AS (
  SELECT min(doc_id) AS doc_id FROM documents GROUP BY md5(text)
),
m AS (
  SELECT d.doc_id, len(string_split(d.text, ' ')) AS n_tokens,
         length(d.text) AS chars,
         length(d.text) -
         length(regexp_replace(d.text, '[^a-z0-9 ]', '', 'g')) AS sym
  FROM documents d JOIN d1 USING (doc_id)
),
q AS (
  SELECT doc_id FROM m
  WHERE n_tokens BETWEEN 20 AND 90
    AND (chars - (n_tokens - 1)) * 1.0 / n_tokens BETWEEN 4 AND 12
    AND sym * 1.0 / chars < 0.1 AND chars > 0
),
toks AS (SELECT doc_id, string_split(text, ' ') AS t FROM documents),
grams AS (
  SELECT doc_id, array_to_string(list_slice(t, i, i+2), ' ') AS g
  FROM (SELECT doc_id, t, unnest(generate_series(1, len(t) - 2)) AS i
        FROM toks)
),
ev AS (SELECT DISTINCT g FROM grams WHERE doc_id % 97 = 0),
cont AS (
  SELECT g.doc_id FROM grams g JOIN ev e USING (g)
  WHERE g.doc_id % 97 <> 0
  GROUP BY g.doc_id HAVING count(DISTINCT g.g) >= 5
),
s3 AS (
  SELECT doc_id FROM q
  WHERE doc_id % 97 <> 0
    AND doc_id NOT IN (SELECT doc_id FROM cont)
)
SELECT * FROM (
  SELECT 'total' AS stage,
         CAST((SELECT count(*) FROM documents) AS BIGINT)
             AS docs_remaining
  UNION ALL
  SELECT 'exact_dedup', CAST((SELECT count(*) FROM d1) AS BIGINT)
  UNION ALL
  SELECT 'quality', CAST((SELECT count(*) FROM q) AS BIGINT)
  UNION ALL
  SELECT 'decontaminated', CAST((SELECT count(*) FROM s3) AS BIGINT)
)
"""




# ===================================== corpus statistics

def q_corpus_stats(sf_dir: str):
    """One-row corpus statistics: documents, sentences, tokens, distinct
    vocabulary — the `numDocs` display the reference's shell prints on
    connect (extra/.../Shell.scala:111) plus the token/vocab totals its
    docs report for benchmark corpora (docs/index.md). Two combiner-fed
    passes: scalar sums per batch, and a per-batch-distinct vocabulary
    groupby whose shuffle is vocabulary-bounded."""
    import pandas as pd
    from ray.data.aggregate import Count

    rd = _rd()
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["text"]).materialize()

    def sums(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t["text"], " ")
        n = pc.list_value_length(toks).cast(pa.int64())
        n_np = n.to_numpy(zero_copy_only=False)
        sents = int(np.ceil(n_np / 20.0).sum())
        return pa.table({"d": pa.array([len(t)], pa.int64()),
                         "s": pa.array([sents], pa.int64()),
                         "k": pa.array([int(n_np.sum())], pa.int64())})

    # one row per batch — pin it so the three sums run over the tiny
    # combined table instead of re-running tokenization per sum
    tot = docs.map_batches(sums, batch_format="pyarrow").materialize()
    n_docs = tot.sum("d") or 0
    n_sents = tot.sum("s") or 0
    n_toks = tot.sum("k") or 0

    def vocab_partial(t: pa.Table) -> pa.Table:
        toks = pc.list_flatten(pc.split_pattern(t["text"], " "))
        return pa.table({"tok": pc.unique(toks)})

    vocab = (docs.map_batches(vocab_partial, batch_format="pyarrow")
             .groupby("tok").aggregate(Count(alias_name="_c"))).count()

    return pd.DataFrame({
        "n_docs": np.array([n_docs], dtype=np.int64),
        "n_sentences": np.array([n_sents], dtype=np.int64),
        "n_tokens": np.array([n_toks], dtype=np.int64),
        "vocab_size": np.array([vocab], dtype=np.int64),
    })


ORACLE_CORPUS_STATS = """
WITH t AS (SELECT doc_id, string_split(text, ' ') AS tk FROM documents)
SELECT CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(CAST(ceil(len(tk) / 20.0) AS BIGINT)) AS BIGINT)
           AS n_sentences,
       CAST(sum(len(tk)) AS BIGINT) AS n_tokens,
       CAST((SELECT count(DISTINCT tok)
             FROM (SELECT unnest(tk) AS tok FROM t)) AS BIGINT)
           AS vocab_size
FROM t
"""




# ===================================== entity-resolution funnel

def _levenshtein(a: str, b: str) -> int:
    """Standard unit-cost edit distance (Wagner-Fischer) — matches
    DuckDB's levenshtein(), which the oracle uses."""
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[-1] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def q_er_funnel(sf_dir: str, window: int = 3, max_dist: int = 2):
    """Entity resolution as ONE funnel report: distinct surface forms ->
    canonical groups (the plural-strip normalizer) -> sorted-neighborhood
    candidate pairs -> edit-distance-verified match edges -> merged
    clusters (connected components) — the classic blocking/matching/
    clustering ER pipeline (Fellegi-Sunter shape) with every stage
    distributed: SNM rides stages/blocking.snm_pairs, verification is a
    per-batch kernel over the candidate stream, clustering is the
    pointer-jumping CC. Five scalars reach the driver."""
    import pandas as pd

    from odinson_ray.stages.blocking import snm_pairs
    from odinson_ray.stages.canon import connected_components

    from .kg import triples_dataset

    trips = triples_dataset(sf_dir).materialize()

    def distinct_col(ds, cols_pairs):
        def part(t: pa.Table) -> pa.Table:
            vals = pa.chunked_array(
                [t[c].combine_chunks() for c in cols_pairs])
            return pa.table({"v": vals})
        return combine_aggregate(ds.map_batches(part, batch_format="pyarrow"),
                                 "v", [])

    surfaces = distinct_col(trips, ["subj", "obj"])
    n_surfaces = surfaces.count()

    ents = distinct_col(trips, ["subj_canon", "obj_canon"]).materialize()
    n_groups = ents.count()

    cand = snm_pairs(ents, key_col="v", id_col="v",
                     window=window).materialize()
    n_cand = cand.count()

    def verify(t: pa.Table) -> pa.Table:
        av, bv = t["a"].to_pylist(), t["b"].to_pylist()
        keep = [(_levenshtein(x, y) <= max_dist) for x, y in zip(av, bv)]
        return t.filter(pa.array(keep, pa.bool_()))

    edges = cand.map_batches(verify, batch_format="pyarrow").materialize()
    n_edges = edges.count()

    merged = n_groups
    if n_edges:
        cc = connected_components(edges).materialize()
        n_nodes = cc.count()
        n_comp = combine_aggregate(cc, "root", []).count()
        merged = n_groups - n_nodes + n_comp

    return pd.DataFrame({
        "stage": ["surfaces", "canon_groups", "candidate_pairs",
                  "match_edges", "merged_clusters"],
        "n": np.array([n_surfaces, n_groups, n_cand, n_edges, merged],
                      dtype=np.int64),
    })


def _er_funnel_oracle(body: str, window: int = 3,
                      max_dist: int = 2) -> str:
    return f"""
WITH RECURSIVE trip AS ({body}),
surf AS (SELECT DISTINCT v FROM (
  SELECT subj AS v FROM trip UNION ALL SELECT obj FROM trip)),
ents AS (SELECT DISTINCT v FROM (
  SELECT subj_canon AS v FROM trip
  UNION ALL SELECT obj_canon FROM trip)),
rk AS (SELECT v, ROW_NUMBER() OVER (ORDER BY v) AS rn FROM ents),
cand AS (
  SELECT a.v AS va, b.v AS vb FROM rk a
  JOIN rk b ON b.rn > a.rn AND b.rn - a.rn < {window}),
edges AS (SELECT va, vb FROM cand WHERE levenshtein(va, vb) <= {max_dist}),
adj AS (SELECT va AS u, vb AS w FROM edges
        UNION SELECT vb, va FROM edges),
reach(u, w) AS (
  SELECT u, w FROM adj
  UNION
  SELECT r.u, a.w FROM reach r JOIN adj a ON r.w = a.u),
comp AS (SELECT u AS node, least(u, min(w)) AS root
         FROM reach GROUP BY u),
nstats AS (
  SELECT CAST(count(*) AS BIGINT) AS n_nodes,
         CAST(count(DISTINCT root) AS BIGINT) AS n_comp FROM comp)
SELECT * FROM (
  SELECT 'surfaces' AS stage,
         CAST((SELECT count(*) FROM surf) AS BIGINT) AS n
  UNION ALL
  SELECT 'canon_groups', CAST((SELECT count(*) FROM ents) AS BIGINT)
  UNION ALL
  SELECT 'candidate_pairs', CAST((SELECT count(*) FROM cand) AS BIGINT)
  UNION ALL
  SELECT 'match_edges', CAST((SELECT count(*) FROM edges) AS BIGINT)
  UNION ALL
  SELECT 'merged_clusters',
         CAST((SELECT count(*) FROM ents) AS BIGINT)
         - (SELECT n_nodes FROM nstats) + (SELECT n_comp FROM nstats)
)
"""




# ===================================== bounded weighted shortest path

def q_kg_shortest_cost(sf_dir: str, hops: int = 4):
    """Support-weighted shortest path from the canonical seed entity,
    bounded to ``hops`` relaxation rounds: edge cost = 1 + 1000 //
    total_support (well-attested edges are cheap), d(v) = min over
    <=hops-hop paths — the Bellman-Ford relax decomposition, each round
    one hash join (frontier x weighted edges) + a min-combine groupby.
    Distances stay Datasets; only loop control reaches the driver.
    Bounded rounds keep the oracle an unrolled exact twin (shared seed
    rule: max out-degree, ties lexicographic)."""
    import ray.data as rd_mod
    from ray.data.aggregate import Min

    from odinson_ray.stages.shuffle import hash_join

    from .kg import triples_dataset
    from .queries4 import _kg_seed

    S = pa.string()
    I = pa.int64()

    trips = triples_dataset(sf_dir).materialize()

    def to_wedges(t: pa.Table) -> pa.Table:
        return pa.table({"src": t["subj_canon"], "dst": t["obj_canon"],
                         "n": t["n"]})

    wedges = combine_aggregate(
        trips.map_batches(to_wedges, batch_format="pyarrow"),
        ["src", "dst"], [("sn", "n", "sum")]
    ).map_batches(
        lambda t: pa.table({
            "src": t["src"], "dst": t["dst"],
            "w": pc.add(pc.divide(pa.scalar(1000, I), t["sn"]),
                        pa.scalar(1, I))}),
        batch_format="pyarrow").materialize()

    # wedges IS the distinct directed edge set — reuse it for the seed
    # rule instead of re-running the matcher through _kg_directed_edges
    seed = _kg_seed(wedges)
    dist = rd_mod.from_arrow(pa.table({
        "entity": pa.array([seed], S), "cost": pa.array([0], I)}))

    for _ in range(hops):
        relaxed = hash_join(
            dist, wedges, on="entity", right_on="src",
            left_schema=pa.schema([("entity", S), ("cost", I)]),
            right_schema=pa.schema([("src", S), ("dst", S), ("w", I)]))
        cand = relaxed.map_batches(
            lambda t: pa.table({"entity": t["dst"],
                                "cost": pc.add(t["cost"], t["w"])}),
            batch_format="pyarrow")
        dist = (dist.union(cand)
                .groupby("entity").aggregate(Min("cost", alias_name="cost"))
                ).materialize()
    return dist


def _shortest_cost_oracle(body: str, hops: int = 4) -> str:
    parts = [f"""
WITH trip AS ({body}),
we AS MATERIALIZED (
  SELECT subj_canon AS src, obj_canon AS dst,
         CAST(1 + 1000 // sum(n) AS BIGINT) AS w
  FROM trip GROUP BY 1, 2),
deg AS (SELECT src, count(*) AS d
        FROM (SELECT DISTINCT src, dst FROM we) GROUP BY src),
seed AS (SELECT src FROM deg ORDER BY d DESC, src LIMIT 1),
d_0 AS MATERIALIZED (
  SELECT src AS entity, CAST(0 AS BIGINT) AS cost FROM seed)"""]
    for i in range(hops):
        parts.append(f""",
d_{i + 1} AS MATERIALIZED (
  SELECT entity, min(cost) AS cost FROM (
    SELECT entity, cost FROM d_{i}
    UNION ALL
    SELECT we.dst, d_{i}.cost + we.w FROM d_{i}
    JOIN we ON we.src = d_{i}.entity
  ) GROUP BY entity)""")
    parts.append(f"\nSELECT entity, cost FROM d_{hops}")
    return "".join(parts)




# ===================================== postings layout + index query

def _positions_batch(t: pa.Table) -> pa.Table:
    """documents batch -> positional postings rows (tok, doc_id,
    sent_id, pos) under the 20-token sentence model."""
    toks = pc.split_pattern(t["text"].combine_chunks(), " ")
    flat = pc.list_flatten(toks)
    lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
    did = t["doc_id"].to_numpy(zero_copy_only=False)
    p = (np.concatenate([np.arange(n, dtype=np.int64) for n in lens])
         if len(lens) else np.array([], dtype=np.int64))
    return pa.table({
        "tok": flat,
        "doc_id": pa.array(np.repeat(did, lens), pa.int64()),
        "sent_id": pa.array(p // 20, pa.int64()),
        "pos": pa.array(p % 20, pa.int64()),
    })


def _postings_layout(sf_dir: str, n_buckets: int = 64) -> str:
    """Materialize the positional index as a hash(token)-bucketed
    parquet layout (tok, doc_id, sent_id, pos) — the Lucene-index
    analog as a LAYOUT (reference identity: OdinsonIndexWriter,
    core/.../lucene/index/OdinsonIndexWriter.scala). Pay the
    partitioned write once; each token query then opens exactly ONE
    bucket. Cache identity includes the source parquet's stat, so a
    regenerated corpus rebuilds (never silently reuses)."""
    import os

    from odinson_ray.stages.layout import bucket_layout_ds

    rd = _rd()
    path = f"{sf_dir}/documents.parquet"
    st = os.stat(path)
    tag = f"postings:{path}:{st.st_mtime_ns}:{st.st_size}"
    ds = rd.read_parquet(path, columns=["doc_id", "text"]).map_batches(
        _positions_batch, batch_format="pyarrow")
    return bucket_layout_ds(ds, key="tok", n_buckets=n_buckets, tag=tag)


def q_postings_layout_query(sf_dir: str, token: str = "scan",
                            n_buckets: int = 64):
    """Query the prebuilt positional index layout for one token: resolve
    the token's hash bucket from the manifest and read THAT bucket only
    — the query-over-prebuilt-index discipline behind the reference's
    published 2.8 s / 134M-sentence number (docs/index.md:51). Returns
    every (doc_id, sent_id, pos) occurrence."""
    root = _postings_layout(sf_dir, n_buckets)
    return _bucket_token_query(root, token, n_buckets)


def _bucket_token_query(root: str, token: str, n_buckets: int):
    """Resolve the token's bucket from the manifest and read THAT
    bucket's files as a DISTRIBUTED parquet read (a bucket is 1/64 of
    the whole index — it must never become one driver-resident block),
    then filter to the posting list."""
    import json
    import os

    import ray.data as rd_mod

    from odinson_ray.stages.layout import _bucket_ids

    with open(os.path.join(root, "_meta.json")) as fh:
        manifest = json.load(fh)
    bucket = int(_bucket_ids(
        pa.chunked_array([pa.array([token], pa.string())]), n_buckets)[0])
    files = [os.path.join(root, f)
             for f in manifest["buckets"].get(str(bucket), [])]
    if not files:
        return rd_mod.from_arrow(pa.table({
            "doc_id": pa.array([], pa.int64()),
            "sent_id": pa.array([], pa.int64()),
            "pos": pa.array([], pa.int64())}))
    rd = _rd()
    return rd.read_parquet(files).map_batches(
        lambda t: t.filter(pc.equal(t["tok"], token)).select(
            ["doc_id", "sent_id", "pos"]),
        batch_format="pyarrow")


ORACLE_POSTINGS_QUERY = """
WITH toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok,
         unnest(generate_series(1, len(string_split(text, ' ')))) AS p
  FROM documents
)
SELECT doc_id, CAST((p - 1) // 20 AS BIGINT) AS sent_id,
       CAST((p - 1) % 20 AS BIGINT) AS pos
FROM toks WHERE tok = 'scan'
"""




# ===================================== indexed phrase query

def q_indexed_phrase_query(sf_dir: str, phrase=("scan", "join"),
                           n_buckets: int = 64):
    """Execute a surface phrase query FROM THE INDEX: read one postings
    bucket per distinct phrase token and intersect positions ((doc,
    sent) equal, positions consecutive) — exactly how Lucene's
    PhraseQuery / the reference's OdinsonQuery concat executes surface
    patterns over positional postings (core/.../lucene/search/
    OdinsonConcatQuery), vs the full-document rescan every non-indexed
    engine pays. I/O is the posting lists of the phrase's tokens, not
    the corpus; the intersection is a DISTRIBUTED semi-join chain on
    the shifted (doc, sent, start) key — a stopword's posting list
    shuffles, it never lands on the driver."""
    import json
    import os

    from odinson_ray.stages.layout import _bucket_ids
    from odinson_ray.stages.shuffle import hash_join

    root = _postings_layout(sf_dir, n_buckets)
    with open(os.path.join(root, "_meta.json")) as fh:
        manifest = json.load(fh)
    rd = _rd()
    S, I = pa.string(), pa.int64()

    def postings_ds(tk: str, shift: int):
        b = int(_bucket_ids(pa.chunked_array(
            [pa.array([tk], S)]), n_buckets)[0])
        files = [os.path.join(root, f)
                 for f in manifest["buckets"].get(str(b), [])]

        def project(t: pa.Table) -> pa.Table:
            t = t.filter(pc.equal(t["tok"], tk))
            start = pc.subtract(t["pos"], shift)
            jk = pc.binary_join_element_wise(
                pc.cast(t["doc_id"], S), pc.cast(t["sent_id"], S),
                pc.cast(start, S), SEP)
            return pa.table({"jk": jk, "doc_id": t["doc_id"],
                             "sent_id": t["sent_id"], "start": start})

        if not files:
            import ray.data as rd_mod

            return rd_mod.from_arrow(pa.table({
                "jk": pa.array([], S), "doc_id": pa.array([], I),
                "sent_id": pa.array([], I), "start": pa.array([], I)}))
        return rd.read_parquet(files).map_batches(
            project, batch_format="pyarrow")

    toks = list(phrase)
    # read + filter each DISTINCT token's bucket once; repeated tokens
    # (stopwords — the most expensive lists) reuse the pinned postings
    cache: dict = {}

    def tok_postings(tk: str):
        if tk not in cache:
            cache[tk] = postings_ds(tk, 0).materialize()
        return cache[tk]

    def shifted_keys(tk: str, shift: int):
        def rekey(t: pa.Table) -> pa.Table:
            return pa.table({"jk": pc.binary_join_element_wise(
                pc.cast(t["doc_id"], S), pc.cast(t["sent_id"], S),
                pc.cast(pc.subtract(t["start"], shift), S), SEP)})
        return tok_postings(tk).map_batches(rekey, batch_format="pyarrow")

    cur = tok_postings(toks[0])
    full = pa.schema([("jk", S), ("doc_id", I), ("sent_id", I),
                      ("start", I)])
    key_only = pa.schema([("jk", S)])
    for i, tk in enumerate(toks[1:], 1):
        cur = hash_join(
            cur, shifted_keys(tk, i),
            on="jk", how="semi",
            left_schema=full, right_schema=key_only)

    n = len(toks)
    return cur.map_batches(
        lambda t: pa.table({"doc_id": t["doc_id"],
                            "sent_id": t["sent_id"],
                            "start": t["start"],
                            "end": pc.add(t["start"], n)}),
        batch_format="pyarrow")


ORACLE_INDEXED_PHRASE = """
WITH toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok,
         unnest(generate_series(1, len(string_split(text, ' ')))) AS p
  FROM documents
),
pos AS (
  SELECT doc_id, tok, p, (p - 1) // 20 AS sent_id, (p - 1) % 20 AS l
  FROM toks
)
SELECT a.doc_id, CAST(a.sent_id AS BIGINT) AS sent_id,
       CAST(a.l AS BIGINT) AS start, CAST(a.l + 2 AS BIGINT) AS "end"
FROM pos a JOIN pos b
  ON b.doc_id = a.doc_id AND b.sent_id = a.sent_id AND b.l = a.l + 1
WHERE a.tok = 'scan' AND b.tok = 'join'
"""




# ===================================== incremental index append

def q_postings_append_query(sf_dir: str, token: str = "scan",
                            n_buckets: int = 64):
    """Incremental index maintenance, end to end: build the postings
    layout for the BASE corpus half (even doc ids), build a separate
    DELTA layout for the other half, merge them with
    :func:`odinson_ray.stages.layout.merge_layouts` (hard-linked files,
    manifest union — the delta pays only its own write), then answer
    the same single-bucket token query. The oracle is the FULL-corpus
    postings SQL: merged base+delta must be indistinguishable from a
    from-scratch build."""
    import os

    from odinson_ray.stages.layout import bucket_layout_ds, merge_layouts

    rd = _rd()
    path = f"{sf_dir}/documents.parquet"
    st = os.stat(path)
    base_sig = f"{path}:{st.st_mtime_ns}:{st.st_size}"

    def half(parity: int):
        def f(t: pa.Table) -> pa.Table:
            keep = pc.equal(
                pc.subtract(t["doc_id"], pc.multiply(
                    pc.divide(t["doc_id"], 2),
                    pa.scalar(2, pa.int64()))),
                pa.scalar(parity, pa.int64()))
            return t.filter(keep)
        return (rd.read_parquet(path, columns=["doc_id", "text"])
                .map_batches(f, batch_format="pyarrow")
                .map_batches(_positions_batch, batch_format="pyarrow"))

    base = bucket_layout_ds(half(0), key="tok", n_buckets=n_buckets,
                            tag=f"postings-base:{base_sig}")
    delta = bucket_layout_ds(half(1), key="tok", n_buckets=n_buckets,
                             tag=f"postings-delta:{base_sig}")
    root = merge_layouts(base, delta)
    return _bucket_token_query(root, token, n_buckets)




# ===================================== regex token query (term dict)

def _term_dictionary(root: str) -> list:
    """The layout's term dictionary (sorted distinct tokens) — derived
    once with a distributed distinct and cached ATOMICALLY next to the
    layout (Lucene keeps exactly this artifact beside the postings; it
    is vocabulary-sized, the one thing safe to hold whole)."""
    import os

    import pyarrow.parquet as pq

    vocab_path = os.path.join(root, "_vocab.parquet")
    if os.path.exists(vocab_path):
        return pq.read_table(vocab_path)["tok"].to_pylist()
    rd = _rd()
    import json

    with open(os.path.join(root, "_meta.json")) as fh:
        manifest = json.load(fh)
    files = [os.path.join(root, f)
             for fl in manifest["buckets"].values() for f in fl]
    vocab = combine_aggregate(rd.read_parquet(files), "tok", []
                              ).to_pandas()["tok"].sort_values()
    tmp = vocab_path + ".tmp"
    pq.write_table(pa.table({"tok": pa.array(vocab, pa.string())}), tmp)
    os.replace(tmp, vocab_path)
    return vocab.tolist()


def q_indexed_regex_query(sf_dir: str, pattern: str = "sca.*|j[a-z]in",
                          n_buckets: int = 64):
    """Regex token query FROM THE INDEX, the Lucene way: evaluate the
    pattern against the TERM DICTIONARY (vocabulary-sized), expand to
    the matching tokens, then read only those tokens' buckets — the
    automaton-vs-term-dictionary execution of the reference's regex
    token constraints (core/.../QueryCompiler regexp path), never a
    corpus scan. Pattern dialect is the repo's Lucene-regex evaluator
    (lang/lucene_regex.py), full-match semantics like the oracle's
    regexp_full_match."""
    import json
    import os

    import ray.data as rd_mod

    from odinson_ray.lang.lucene_regex import compile_lucene
    from odinson_ray.stages.layout import _bucket_ids

    root = _postings_layout(sf_dir, n_buckets)
    matcher = compile_lucene(pattern)
    matching = [tk for tk in _term_dictionary(root)
                if matcher.fullmatch(tk)]
    if not matching:
        return rd_mod.from_arrow(pa.table({
            "token": pa.array([], pa.string()),
            "doc_id": pa.array([], pa.int64()),
            "sent_id": pa.array([], pa.int64()),
            "pos": pa.array([], pa.int64())}))

    with open(os.path.join(root, "_meta.json")) as fh:
        manifest = json.load(fh)
    buckets = sorted({int(b) for b in _bucket_ids(pa.chunked_array(
        [pa.array(matching, pa.string())]), n_buckets)})
    files = [os.path.join(root, f)
             for b in buckets for f in manifest["buckets"].get(str(b), [])]
    want = pa.array(matching, pa.string())
    rd = _rd()
    def select_matches(t: pa.Table) -> pa.Table:
        kept = t.filter(pc.is_in(t["tok"], value_set=want))
        return pa.table({"token": kept["tok"], "doc_id": kept["doc_id"],
                         "sent_id": kept["sent_id"], "pos": kept["pos"]})

    return rd.read_parquet(files).map_batches(select_matches,
                                              batch_format="pyarrow")


ORACLE_INDEXED_REGEX = """
WITH toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok,
         unnest(generate_series(1, len(string_split(text, ' ')))) AS p
  FROM documents
)
SELECT tok AS token, doc_id,
       CAST((p - 1) // 20 AS BIGINT) AS sent_id,
       CAST((p - 1) % 20 AS BIGINT) AS pos
FROM toks WHERE regexp_full_match(tok, 'sca.*|j[a-z]in')
"""


def register(QUERIES: dict, ORACLES: dict, kg_body: str,
             doc_body: str) -> None:
    QUERIES["kg_temporal_triples"] = q_kg_temporal_triples
    ORACLES["kg_temporal_triples"] = _temporal_oracle(doc_body)
    QUERIES["kg_surface_variants"] = q_kg_surface_variants
    ORACLES["kg_surface_variants"] = _surface_variants_oracle(kg_body)
    QUERIES["kg_degree_distribution"] = q_kg_degree_distribution
    ORACLES["kg_degree_distribution"] = _degree_dist_oracle(kg_body)
    QUERIES["dq_checks"] = q_dq_checks
    ORACLES["dq_checks"] = ORACLE_DQ_CHECKS
    QUERIES["band_join_acctbal"] = q_band_join_acctbal
    ORACLES["band_join_acctbal"] = ORACLE_BAND_JOIN
    QUERIES["sorted_neighborhood_pairs"] = q_sorted_neighborhood_pairs
    ORACLES["sorted_neighborhood_pairs"] = ORACLE_SORTED_NEIGHBORHOOD
    QUERIES["kg_component_sizes"] = q_kg_component_sizes
    ORACLES["kg_component_sizes"] = _component_sizes_oracle(kg_body)
    QUERIES["kg_mis"] = q_kg_mis
    ORACLES["kg_mis"] = _mis_oracle(kg_body)
    QUERIES["kg_triple_confidence"] = q_kg_triple_confidence
    ORACLES["kg_triple_confidence"] = _triple_confidence_oracle(doc_body)
    QUERIES["fd_violations"] = q_fd_violations
    ORACLES["fd_violations"] = ORACLE_FD_VIOLATIONS
    QUERIES["kg_pred_cooccurrence"] = q_kg_pred_cooccurrence
    ORACLES["kg_pred_cooccurrence"] = _pred_cooc_oracle(doc_body)
    QUERIES["event_throttle"] = q_event_throttle
    ORACLES["event_throttle"] = ORACLE_EVENT_THROTTLE
    QUERIES["kg_entity_timeline"] = q_kg_entity_timeline
    ORACLES["kg_entity_timeline"] = _entity_timeline_oracle(doc_body)
    QUERIES["curation_funnel"] = q_curation_funnel
    ORACLES["curation_funnel"] = ORACLE_CURATION_FUNNEL
    QUERIES["corpus_stats"] = q_corpus_stats
    ORACLES["corpus_stats"] = ORACLE_CORPUS_STATS
    QUERIES["er_funnel"] = q_er_funnel
    ORACLES["er_funnel"] = _er_funnel_oracle(kg_body)
    QUERIES["kg_shortest_cost"] = q_kg_shortest_cost
    ORACLES["kg_shortest_cost"] = _shortest_cost_oracle(kg_body)
    QUERIES["postings_layout_query"] = q_postings_layout_query
    ORACLES["postings_layout_query"] = ORACLE_POSTINGS_QUERY
    QUERIES["indexed_phrase_query"] = q_indexed_phrase_query
    ORACLES["indexed_phrase_query"] = ORACLE_INDEXED_PHRASE
    QUERIES["postings_append_query"] = q_postings_append_query
    ORACLES["postings_append_query"] = ORACLE_POSTINGS_QUERY
    QUERIES["indexed_regex_query"] = q_indexed_regex_query
    ORACLES["indexed_regex_query"] = ORACLE_INDEXED_REGEX
