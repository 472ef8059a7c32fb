"""Knowledge-graph construction and graph analytics.

``q_kg_triples`` is the flagship pipeline (pipelines/kg.py); the other
queries build on its canonical triples: degrees, PageRank, triangles,
k-core/k-truss, components and SCCs, label propagation, random walks,
shortest paths, link prediction, rule mining, provenance and temporal
triples. ``ORACLE_KG_TRIPLES``, ``_KG_TRIPLES_BODY`` and
``_KG_DOC_TRIPLES_BODY`` are the SQL every graph oracle starts from.

The graph front end makes each decision once:

- ``_kg_edges`` / ``_kg_directed_edges``: the distinct undirected
  (lo, hi) or directed (src, dst) edge list, lazy (a query that reads it
  more than once pins it);
- ``_kg_vertices``: the distinct vertex set of a directed edge list;
- ``_kg_seeds``: the ``n`` seed entities, top out-degree with ties to the
  smallest id (the oracles' ``ORDER BY d DESC, src LIMIT n``);
- ``stages.graph.symmetric_adjacency``, ``stages.graph._iter_partitions``
  and ``sources.io.pin``: both directions of an undirected edge, the
  shuffle width of a driver-iterative loop and a round's pin.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from odinson_ray.sources.io import pin, table
from odinson_ray.stages.shuffle import (coarse_groups, combine_aggregate,
                                        global_topk, hash_join,
                                        partial_aggregate)

from . import query


_CANON_SQL = (
    "CASE WHEN len({c}) > 3 AND {c} LIKE '%s' AND {c} NOT LIKE '%ss' "
    "THEN substr({c}, 1, len({c}) - 1) ELSE {c} END"
)


ORACLE_KG_TRIPLES = f"""
WITH toks AS (
  SELECT printf('doc-%06d', doc_id) AS doc_id, doc_id AS did,
         unnest(string_split(text, ' ')) AS tok,
         unnest(generate_series(1, len(string_split(text, ' ')))) AS p
  FROM documents
),
postoks AS (
  SELECT doc_id, did, tok, p,
         CAST(((p - 1) // 20) AS INT) AS sent_id,
         CAST(((p - 1) % 20) AS INT) AS l
  FROM toks
)
, raw AS (
  SELECT b.tok AS subj, a.tok AS pred, c.tok AS obj
  FROM postoks a JOIN postoks b ON b.did = a.did AND b.p = a.p + 1
                 JOIN postoks c ON c.did = a.did AND c.p = a.p + 2
  WHERE a.l % 5 = 0 AND a.tok IN ('scan', 'join', 'sort', 'merge', 'filter', 'group')
)
SELECT 'ent:' || {_CANON_SQL.format(c='subj')} AS subj_canon,
       pred,
       'ent:' || {_CANON_SQL.format(c='obj')} AS obj_canon,
       subj, obj, count(*) AS n
FROM raw GROUP BY 1, 2, 3, 4, 5
"""


@query("kg_triples", oracle=ORACLE_KG_TRIPLES)
def q_kg_triples(sf_dir: str):
    """Flagship: aggregated canonical triples."""
    from ..kg import triples_dataset

    return triples_dataset(sf_dir)


_KG_TRIPLES_BODY = ORACLE_KG_TRIPLES.strip().rstrip(";")


# ===================================== graph front end


def _directed(t: pa.Table) -> pa.Table:
    """(src, dst) = (subj_canon, obj_canon) of each triple."""
    return pa.table({"src": t["subj_canon"], "dst": t["obj_canon"]})


def _undirected(t: pa.Table, carry=()) -> pa.Table:
    """(lo, hi) = the ordered endpoints of each triple, plus its
    ``carry`` columns; self-loops dropped."""
    lo = pc.min_element_wise(t["subj_canon"], t["obj_canon"])
    hi = pc.max_element_wise(t["subj_canon"], t["obj_canon"])
    e = pa.table({"lo": lo, "hi": hi, **{c: t[c] for c in carry}})
    return e.filter(pc.not_equal(e["lo"], e["hi"]))


def _kg_edges(sf_dir: str):
    """Distinct undirected (lo, hi) edges of the canonical triple graph,
    lazy."""
    from ..kg import triples_dataset

    return combine_aggregate(
        triples_dataset(sf_dir).map_batches(_undirected, batch_format="pyarrow"),
        ["lo", "hi"], [])


def _kg_directed_edges(sf_dir: str):
    """Distinct directed (src, dst) edges of the canonical triple graph,
    lazy."""
    from ..kg import triples_dataset

    return combine_aggregate(
        triples_dataset(sf_dir).map_batches(_directed, batch_format="pyarrow"),
        ["src", "dst"], [])


def _endpoints(t: pa.Table) -> pa.Table:
    """(v): every edge's src, then every edge's dst."""
    return pa.table({"v": pa.concat_arrays([t["src"].combine_chunks(),
                                            t["dst"].combine_chunks()])})


def _kg_vertices(edges):
    """Distinct endpoint set (column v) of a (src, dst) edge Dataset,
    materialized."""
    return combine_aggregate(
        edges.map_batches(_endpoints, batch_format="pyarrow"),
        "v", []).materialize()


def _kg_seeds(edges, n: int = 1) -> list:
    """The ``n`` seed entities of a (src, dst) edge Dataset: top
    out-degree, ties to the smallest id (the oracles' ``ORDER BY d DESC,
    src LIMIT n``), in that order."""
    from ray.data.aggregate import Count

    deg = edges.groupby("src").aggregate(Count(alias_name="d"))
    return [r["src"] for r in
            global_topk(deg, ["d", "src"], [True, False], n).take_all()]


ORACLE_KG_ENTITY_DEGREES = f"""
WITH trip AS ({_KG_TRIPLES_BODY})
SELECT entity, CAST(SUM(out_n) AS BIGINT) AS out_n,
       CAST(SUM(in_n) AS BIGINT) AS in_n
FROM (
  SELECT subj_canon AS entity, n AS out_n, 0 AS in_n FROM trip
  UNION ALL
  SELECT obj_canon AS entity, 0 AS out_n, n AS in_n FROM trip
)
GROUP BY entity
"""


@query("kg_entity_degrees", oracle=ORACLE_KG_ENTITY_DEGREES)
def q_kg_entity_degrees(sf_dir: str):
    """Graph-materialize analytics over the flagship triple table: per
    canonical entity, weighted out-degree (as subject) and in-degree (as
    object). Combiner discipline: the triple table is already aggregated;
    the degree expansion emits two rows per triple and one groupby sums."""
    from ray.data.aggregate import Sum

    from ..kg import triples_dataset

    ds = triples_dataset(sf_dir)

    def expand(t: pa.Table) -> pa.Table:
        zeros = pa.array(np.zeros(len(t), dtype=np.int64))
        a = pa.table({"entity": t["subj_canon"], "out_n": t["n"], "in_n": zeros})
        b = pa.table({"entity": t["obj_canon"], "out_n": zeros, "in_n": t["n"]})
        return pa.concat_tables([a, b])

    return (
        ds.map_batches(expand, batch_format="pyarrow")
        .groupby("entity")
        .aggregate(Sum("out_n", alias_name="out_n"), Sum("in_n", alias_name="in_n"))
    )


# ===================================== PageRank over the KG (iterative)


def _pagerank_oracle(iters: int = 3) -> str:
    head = f"""
WITH trip AS ({_KG_TRIPLES_BODY}),
edges AS (SELECT DISTINCT subj_canon AS src, obj_canon AS dst FROM trip),
nodes AS (SELECT src AS v FROM edges UNION SELECT dst FROM edges),
nn AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM nodes),
deg AS (SELECT src, CAST(count(*) AS DOUBLE) AS d FROM edges GROUP BY src),
r0 AS (SELECT v, 1.0 / (SELECT n FROM nn) AS r FROM nodes)"""
    body = ""
    prev = "r0"
    for i in range(1, iters + 1):
        body += f""",
s{i} AS (SELECT e.dst AS v, sum({prev}.r / deg.d) AS c
         FROM edges e JOIN {prev} ON {prev}.v = e.src
                      JOIN deg ON deg.src = e.src
         GROUP BY e.dst),
r{i} AS (SELECT nodes.v,
                0.15 / (SELECT n FROM nn) + 0.85 * COALESCE(s{i}.c, 0) AS r
         FROM nodes LEFT JOIN s{i} ON s{i}.v = nodes.v)"""
        prev = f"r{i}"
    return head + body + f"""
SELECT v AS entity, round(r, 6) AS rank FROM {prev}"""


ORACLE_PAGERANK_ENTITIES = _pagerank_oracle(3)


@query("pagerank_entities", oracle=ORACLE_PAGERANK_ENTITIES)
def q_pagerank_entities(sf_dir: str, iters: int = 3, damping: float = 0.85,
                        checkpoint_dir: str | None = None):
    """PageRank power iteration over the canonical triple graph (no
    dangling-mass redistribution; rank(v) = (1-d)/N + d * sum over
    in-edges of rank(u)/outdeg(u), synchronized updates).

    Scale shape: ranks and edges stay Datasets end to end — each
    iteration is one hash_join (edge src x rank) + a map-side-combined
    groupby(dst) + one left-outer join back onto the node set. Nothing
    node- or edge-sized ever lands on the driver; N is a count().

    ``checkpoint_dir`` (VERDICT r03 #7): when set, the per-run pins
    (edges, degree-joined edges, and each iteration's ranks) spill to
    partitioned parquet instead of living in the object store — the same
    option connected_components has — so graphs near object-store
    capacity trade memory residency for re-read bandwidth, and a killed
    run can restart from the last written iteration."""
    from ray.data.aggregate import Count

    # consumed K+2 times below
    edges = pin(_kg_directed_edges(sf_dir), "edges", checkpoint_dir)
    deg = edges.groupby("src").aggregate(Count(alias_name="d"))
    nodes = _kg_vertices(edges)
    n_nodes = nodes.count()
    base = (1.0 - damping) / n_nodes

    str_t, f64 = pa.string(), pa.float64()
    edge_schema = pa.schema([("src", str_t), ("dst", str_t)])
    deg_schema = pa.schema([("src", str_t), ("d", pa.int64())])
    rank_schema = pa.schema([("v", str_t), ("r", f64)])
    edges_d = hash_join(edges, deg, on="src",
                        left_schema=edge_schema, right_schema=deg_schema)
    # (src, dst, d): reused every iteration
    edges_d = pin(edges_d, "edges_d", checkpoint_dir)
    ed_schema = pa.schema([("src", str_t), ("dst", str_t), ("d", pa.int64())])

    r0 = 1.0 / n_nodes
    ranks = nodes.map_batches(
        lambda t, r0=r0: t.append_column("r", pa.array([r0] * len(t), f64)),
        batch_format="pyarrow",
    )
    for it in range(iters):
        contrib = hash_join(edges_d, ranks, on="src", right_on="v",
                            left_schema=ed_schema, right_schema=rank_schema)

        def project_c(t: pa.Table) -> pa.Table:
            c = pc.divide(t["r"], pc.cast(t["d"], f64))
            return pa.table({"dst": t["dst"], "c": c})

        sums = combine_aggregate(
            contrib.map_batches(project_c, batch_format="pyarrow"),
            "dst", [("c", "c", "sum")])
        joined = hash_join(nodes, sums, on="v", right_on="dst", how="left_outer",
                           left_schema=pa.schema([("v", str_t)]),
                           right_schema=pa.schema([("dst", str_t), ("c", f64)]))

        def new_rank(t: pa.Table) -> pa.Table:
            c = pc.fill_null(t["c"], 0.0)
            r = pc.add(pa.scalar(base), pc.multiply(pa.scalar(damping), c))
            return pa.table({"v": t["v"], "r": r})

        ranks = joined.map_batches(new_rank, batch_format="pyarrow")
        if checkpoint_dir is not None:
            ranks = pin(ranks, f"ranks_{it}", checkpoint_dir)
    return ranks.map_batches(
        lambda t: pa.table({"entity": t["v"], "rank": pc.round(t["r"], 6)}),
        batch_format="pyarrow",
    )


# ===================================== triangle counting (graph self-join)


ORACLE_KG_TRIANGLES = f"""
WITH trip AS ({{body}}),
dedges AS (
  SELECT DISTINCT least(subj_canon, obj_canon) AS lo,
                  greatest(subj_canon, obj_canon) AS hi
  FROM trip WHERE subj_canon != obj_canon
)
SELECT CAST(count(*) AS BIGINT) AS n_triangles
FROM dedges ab JOIN dedges bc ON bc.lo = ab.hi
               JOIN dedges ac ON ac.lo = ab.lo AND ac.hi = bc.hi
""".format(body=_KG_TRIPLES_BODY)


@query("kg_triangles", oracle=ORACLE_KG_TRIANGLES)
def q_kg_triangles(sf_dir: str):
    """Triangle count over the undirected canonical triple graph: edges
    canonicalized to (lo, hi) with lo < hi, then degree-oriented wedge
    enumeration (stages/graph.py) — each edge directed low-rank ->
    high-rank by (degree, id), wedges enumerated over OUT-neighbors only,
    so a degree-d hub costs O(sqrt(m)) amortized out-degree instead of
    d^2 wedge rows in one join group."""
    import pandas as _pd

    from odinson_ray.stages.graph import triangle_count

    return _pd.DataFrame({"n_triangles": [triangle_count(_kg_edges(sf_dir))]})


# ===================================== Adamic-Adar link prediction


ORACLE_ADAMIC_ADAR = """
WITH trip AS ({body}),
dedges AS (
  SELECT DISTINCT least(subj_canon, obj_canon) AS lo,
                  greatest(subj_canon, obj_canon) AS hi
  FROM trip WHERE subj_canon != obj_canon
),
adj AS (
  SELECT lo AS v, hi AS n FROM dedges
  UNION ALL SELECT hi, lo FROM dedges
),
deg AS (SELECT v, count(*) AS d FROM adj GROUP BY v),
wadj AS (
  SELECT adj.v, adj.n, 1.0 / ln(d) AS w
  FROM adj JOIN deg USING (v) WHERE d BETWEEN 2 AND 1000
)
SELECT a.n AS n1, b.n AS n2, round(sum(a.w), 6) AS aa
FROM wadj a JOIN wadj b ON a.v = b.v AND a.n < b.n
GROUP BY 1, 2
ORDER BY aa DESC, n1, n2 LIMIT 10
""".format(body=_KG_TRIPLES_BODY)


@query("adamic_adar", oracle=ORACLE_ADAMIC_ADAR)
def q_adamic_adar(sf_dir: str, k: int = 10):
    """Top-k Adamic–Adar link-prediction scores over the undirected
    canonical triple graph (stages/graph.adamic_adar_pairs): pairs
    sharing common neighbors, scored sum(1/ln(deg(z))). Deterministic
    top-k via (aa DESC, n1, n2). Centers above the degree cap are
    excluded on BOTH sides (mirrored in the oracle's HAVING clause) —
    the standard guard against hub pair-matrix blowup."""
    from odinson_ray.stages.graph import adamic_adar_pairs

    # PIN before fan-out: adamic_adar_pairs consumes edges on both sides
    # of its self-join; left lazy, the plan would run the finishing merge
    # once per side. Entity-pair scale, so cheap.
    aa = adamic_adar_pairs(_kg_edges(sf_dir).materialize())

    def rounded(t: pa.Table) -> pa.Table:
        return t.set_column(t.schema.get_field_index("aa"), "aa",
                            pc.round(t["aa"], 6))

    return global_topk(aa.map_batches(rounded, batch_format="pyarrow"),
                       ["aa", "n1", "n2"], [True, False, False], k)


# ===================================== k-core decomposition


ORACLE_KG_KCORE = """
WITH trip AS ({body}),
e0 AS (
  SELECT DISTINCT least(subj_canon, obj_canon) AS lo,
                  greatest(subj_canon, obj_canon) AS hi
  FROM trip WHERE subj_canon != obj_canon
),
d0 AS (SELECT v, count(*) AS d FROM
       (SELECT lo AS v FROM e0 UNION ALL SELECT hi FROM e0) GROUP BY v),
l0 AS (SELECT v FROM d0 WHERE d < 2),
e1 AS (SELECT * FROM e0 WHERE lo NOT IN (SELECT v FROM l0)
                          AND hi NOT IN (SELECT v FROM l0)),
d1 AS (SELECT v, count(*) AS d FROM
       (SELECT lo AS v FROM e1 UNION ALL SELECT hi FROM e1) GROUP BY v),
l1 AS (SELECT v FROM d1 WHERE d < 2),
e2 AS (SELECT * FROM e1 WHERE lo NOT IN (SELECT v FROM l1)
                          AND hi NOT IN (SELECT v FROM l1)),
d2 AS (SELECT v, count(*) AS d FROM
       (SELECT lo AS v FROM e2 UNION ALL SELECT hi FROM e2) GROUP BY v),
l2 AS (SELECT v FROM d2 WHERE d < 2),
e3 AS (SELECT * FROM e2 WHERE lo NOT IN (SELECT v FROM l2)
                          AND hi NOT IN (SELECT v FROM l2))
SELECT v, count(*) AS deg FROM
  (SELECT lo AS v FROM e3 UNION ALL SELECT hi FROM e3) GROUP BY v
""".format(body=_KG_TRIPLES_BODY)


@query("kg_kcore", oracle=ORACLE_KG_KCORE)
def q_kg_kcore(sf_dir: str, k: int = 2, rounds: int = 3):
    """Vertices of the KG graph surviving ``rounds`` peels of k-core
    decomposition (stages/graph.kcore_edges, bounded mode — the SQL
    oracle unrolls the same three peels; the fixpoint mode is
    pytest-verified against a local peel). Output: surviving vertices
    with their in-subgraph degree."""
    from odinson_ray.stages.graph import kcore_edges, vertex_degrees

    # pinned: consumed once per peel round
    edges = _kg_edges(sf_dir).materialize()
    core = kcore_edges(edges, k=k, rounds=rounds)
    return vertex_degrees(core)


# ===================================== BFS levels over the KG graph


def _bfs_oracle(rounds: int = 3) -> str:
    return f"""
WITH RECURSIVE trip AS ({_KG_TRIPLES_BODY}),
edges AS (SELECT DISTINCT subj_canon AS src, obj_canon AS dst FROM trip),
deg AS (SELECT src, count(*) AS d FROM edges GROUP BY src),
seed AS (SELECT src FROM deg ORDER BY d DESC, src LIMIT 1),
bfs(v, lvl) AS (
  SELECT src, 0 FROM seed
  UNION ALL
  SELECT e.dst, b.lvl + 1 FROM bfs b JOIN edges e ON e.src = b.v
  WHERE b.lvl < {rounds}
)
SELECT v AS entity, CAST(MIN(lvl) AS BIGINT) AS level FROM bfs GROUP BY v
"""


ORACLE_KG_BFS_LEVELS = _bfs_oracle(3)


@query("kg_bfs_levels", oracle=ORACLE_KG_BFS_LEVELS)
def q_kg_bfs_levels(sf_dir: str, rounds: int = 3):
    """Multi-source-free BFS: levels 0..3 from a deterministic seed (the
    max-out-degree entity, ties to the lexicographically smallest) over
    the canonical triple graph. Each round is one distributed hash join
    (frontier x edges) + an anti join against the visited set — the
    textbook frontier-expansion decomposition; frontiers and the visited
    set stay Datasets (pinned per round: each is consumed by the next
    join AND the union, the fan-out rule). Rounds are bounded, so the
    oracle unrolls as a depth-capped recursive CTE."""
    edges = _kg_directed_edges(sf_dir).materialize()
    seed_v = _kg_seeds(edges)[0]

    import ray.data as rdn

    visited = rdn.from_arrow(pa.table({
        "entity": pa.array([seed_v], pa.string()),
        "level": pa.array([0], pa.int64()),
    })).materialize()
    frontier = visited

    for r in range(1, rounds + 1):
        nxt = hash_join(
            frontier.map_batches(lambda t: t.select(["entity"]),
                                 batch_format="pyarrow"),
            edges, on="entity", right_on="src")

        def distinct_dst(t: pa.Table) -> pa.Table:
            return pa.table({"entity": t["dst"]})

        nxt = combine_aggregate(
            nxt.map_batches(distinct_dst, batch_format="pyarrow"),
            "entity", [])
        new = hash_join(nxt, visited, on="entity", how="anti",
                        right_on="entity")
        lvl = r
        new = new.map_batches(
            lambda t, lvl=lvl: t.append_column(
                "level", pa.array(np.full(t.num_rows, lvl), pa.int64())),
            batch_format="pyarrow").materialize()
        if new.count() == 0:
            # frontier exhausted before the round cap: an empty Dataset
            # loses its schema, and a further join would both crash and
            # be pointless
            break
        visited = visited.union(new).materialize()
        frontier = new

    return visited


# ===================================== triple provenance (audit layer)


ORACLE_KG_PROVENANCE = f"""
WITH toks AS (
  SELECT printf('doc-%06d', doc_id) AS doc_id, doc_id AS did,
         unnest(string_split(text, ' ')) AS tok,
         unnest(generate_series(1, len(string_split(text, ' ')))) AS p
  FROM documents
),
postoks AS (
  SELECT doc_id, did, tok, p, CAST(((p - 1) % 20) AS INT) AS l
  FROM toks
),
raw AS (
  SELECT a.doc_id, b.tok AS subj, a.tok AS pred, c.tok AS obj
  FROM postoks a JOIN postoks b ON b.did = a.did AND b.p = a.p + 1
                 JOIN postoks c ON c.did = a.did AND c.p = a.p + 2
  WHERE a.l % 5 = 0
    AND a.tok IN ('scan', 'join', 'sort', 'merge', 'filter', 'group')
),
canon AS (
  SELECT DISTINCT doc_id,
         'ent:' || {_CANON_SQL.format(c='subj')} AS subj_canon,
         pred,
         'ent:' || {_CANON_SQL.format(c='obj')} AS obj_canon
  FROM raw
),
agg AS (
  SELECT subj_canon, pred, obj_canon, CAST(count(*) AS BIGINT) AS n_docs
  FROM canon GROUP BY 1, 2, 3
),
ranked AS (
  SELECT *, row_number() OVER (PARTITION BY subj_canon, pred, obj_canon
                               ORDER BY doc_id) AS rn
  FROM canon
),
posts AS (
  SELECT subj_canon, pred, obj_canon,
         string_agg(doc_id, ',' ORDER BY doc_id) AS docs
  FROM ranked WHERE rn <= 5 GROUP BY 1, 2, 3
)
SELECT agg.subj_canon, agg.pred, agg.obj_canon, agg.n_docs, posts.docs
FROM agg JOIN posts USING (subj_canon, pred, obj_canon)
"""


@query("kg_provenance", oracle=ORACLE_KG_PROVENANCE)
def q_kg_provenance(sf_dir: str, k_docs: int = 5):
    """Provenance for every canonical triple: how many distinct documents
    support it and the first 5 supporting doc ids — the audit layer a KG
    construction pipeline ships alongside the graph (reference parity:
    Odinson mentions carry their docId/sentenceId provenance,
    core/src/main/scala/ai/lum/odinson/Mention.scala). Shape: doc-granular
    triples (``triples_dataset(aggregate=False)``), per-batch distinct
    (triple, doc) combiner, one count groupby, grouped_topk k=5 +
    segmented concat for the doc list (the inverted_postings shape — a
    boilerplate triple's full doc set never lands in one task)."""
    from odinson_ray.stages.shuffle import grouped_topk, hash_join

    from ..kg import triples_dataset

    SEP = "\x1f"

    trips = triples_dataset(sf_dir, aggregate=False)

    def keyed_distinct(t: pa.Table) -> pa.Table:
        tk = pc.binary_join_element_wise(
            t["subj_canon"], t["pred"], t["obj_canon"], SEP)
        return pa.table({"tk": tk, "doc_id": t["doc_id"]})

    td = combine_aggregate(
        trips.map_batches(keyed_distinct, batch_format="pyarrow"),
        ["tk", "doc_id"], []).materialize()

    ndocs = combine_aggregate(td, "tk", [("n_docs", None, "count_all")])

    top = grouped_topk(td, by="tk", cols=["doc_id"], descending=[False],
                       k=k_docs)

    def concat_partition(g: pa.Table) -> pa.Table:
        tk = np.asarray(g["tk"].to_pylist(), dtype=object)
        d = np.asarray(g["doc_id"].to_pylist(), dtype=object)
        starts = np.concatenate(
            ([0], np.flatnonzero(tk[1:] != tk[:-1]) + 1, [len(tk)]))
        keys, docs = [], []
        for s, e in zip(starts[:-1], starts[1:]):
            keys.append(tk[s])
            docs.append(",".join(d[s:e]))
        return pa.table({"tk": pa.array(keys, pa.string()),
                         "docs": pa.array(docs, pa.string())})

    posts = coarse_groups(top, ["tk"], concat_partition, ["doc_id"])

    joined = hash_join(
        ndocs, posts, on="tk",
        left_schema=pa.schema([("tk", pa.string()), ("n_docs", pa.int64())]),
        right_schema=pa.schema([("tk", pa.string()), ("docs", pa.string())]))

    def finish(t: pa.Table) -> pa.Table:
        parts = pc.split_pattern(t["tk"].combine_chunks(), SEP)
        return pa.table({
            "subj_canon": pc.list_element(parts, 0),
            "pred": pc.list_element(parts, 1),
            "obj_canon": pc.list_element(parts, 2),
            "n_docs": t["n_docs"],
            "docs": t["docs"],
        })

    return joined.map_batches(finish, batch_format="pyarrow")


# doc-granular canonical triples (doc_id + numeric did kept) — the
# provenance/temporal front end; nested WITH is legal as a CTE body
_KG_DOC_TRIPLES_BODY = f"""
WITH toks7 AS (
  SELECT printf('doc-%06d', doc_id) AS doc_id, doc_id AS did,
         unnest(string_split(text, ' ')) AS tok,
         unnest(generate_series(1, len(string_split(text, ' ')))) AS p
  FROM documents
),
postoks7 AS (
  SELECT doc_id, did, tok, p, CAST(((p - 1) % 20) AS INT) AS l
  FROM toks7
),
raw7 AS (
  SELECT a.doc_id, a.did, b.tok AS subj, a.tok AS pred, c.tok AS obj
  FROM postoks7 a JOIN postoks7 b ON b.did = a.did AND b.p = a.p + 1
                  JOIN postoks7 c ON c.did = a.did AND c.p = a.p + 2
  WHERE a.l % 5 = 0
    AND a.tok IN ('scan', 'join', 'sort', 'merge', 'filter', 'group')
)
SELECT DISTINCT doc_id, did,
       'ent:' || {_CANON_SQL.format(c='subj')} AS subj_canon,
       pred,
       'ent:' || {_CANON_SQL.format(c='obj')} AS obj_canon
FROM raw7
"""


# ===================================== label-propagation communities


def _label_prop_oracle(rounds: int = 3) -> str:
    head = f"""
WITH trip AS ({_KG_TRIPLES_BODY}),
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


ORACLE_KG_LABEL_PROP = _label_prop_oracle(3)


@query("kg_label_prop", oracle=ORACLE_KG_LABEL_PROP)
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

    labels = label_propagation(_kg_edges(sf_dir), rounds=rounds,
                               checkpoint_dir=checkpoint_dir)
    return labels.map_batches(
        lambda t: pa.table({"entity": t["v"], "community": t["lab"]}),
        batch_format="pyarrow")


# ===================================== per-vertex clustering coefficient


ORACLE_KG_LOCAL_CLUSTERING = f"""
WITH trip AS ({_KG_TRIPLES_BODY}),
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


@query("kg_local_clustering", oracle=ORACLE_KG_LOCAL_CLUSTERING)
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


# ===================================== 2-hop GNN neighborhood aggregation


ORACLE_GNN_NEIGHBOR_AGG = f"""
WITH trip AS ({_KG_TRIPLES_BODY}),
e0 AS (
  SELECT DISTINCT least(subj_canon, obj_canon) AS lo,
                  greatest(subj_canon, obj_canon) AS hi
  FROM trip WHERE subj_canon != obj_canon
),
edges AS (SELECT lo AS a, hi AS b FROM e0 UNION ALL SELECT hi, lo FROM e0),
deg AS (SELECT a AS v, CAST(count(*) AS DOUBLE) AS h FROM edges GROUP BY a),
h1 AS (SELECT e.a AS v, avg(d.h) AS h FROM edges e JOIN deg d ON d.v = e.b
       GROUP BY e.a),
h2 AS (SELECT e.a AS v, avg(h1.h) AS h FROM edges e JOIN h1 ON h1.v = e.b
       GROUP BY e.a)
SELECT h1.v AS entity, round(h1.h, 6) AS h1, round(h2.h, 6) AS h2
FROM h1 JOIN h2 ON h2.v = h1.v
"""


@query("gnn_neighbor_agg", oracle=ORACLE_GNN_NEIGHBOR_AGG)
def q_gnn_neighbor_agg(sf_dir: str):
    """GraphSAGE-style mean aggregation over the KG graph, 2 hops:
    x0(v) = deg(v); h1(v) = mean of x0 over v's neighbors; h2(v) = mean
    of h1 over v's neighbors. The per-layer shape every GNN training
    pipeline needs at scale: one hash join (directed edge x feature) +
    one map-side-combined mean per hop — features stay Datasets, the
    feature of a hub is never materialized per-edge on the driver."""
    from odinson_ray.stages.graph import symmetric_adjacency
    from odinson_ray.stages.shuffle import hash_join

    str_t, f64 = pa.string(), pa.float64()

    # consumed 3x below
    bedges = symmetric_adjacency(_kg_edges(sf_dir), "a", "b").materialize()
    bd_schema = pa.schema([("a", str_t), ("b", str_t)])

    def deg_project(t: pa.Table) -> pa.Table:
        return pa.table({"v": t["a"]})

    feat = combine_aggregate(
        bedges.map_batches(deg_project, batch_format="pyarrow"),
        "v", [("d", None, "count_all")])
    feat = feat.map_batches(
        lambda t: pa.table({"v": t["v"], "h": pc.cast(t["d"], f64)}),
        batch_format="pyarrow")

    def mean_hop(feature_ds, name):
        f_schema = pa.schema([("v", str_t), ("h", f64)])
        joined = hash_join(bedges, feature_ds, on="b", right_on="v",
                           left_schema=bd_schema, right_schema=f_schema)

        def partial(t: pa.Table) -> pa.Table:
            return pa.table({"v": t["a"], "h": t["h"]})

        sums = combine_aggregate(
            joined.map_batches(partial, batch_format="pyarrow"),
            "v", [("s", "h", "sum"), ("c", "h", "count")])
        return sums.map_batches(
            lambda t: pa.table({
                "v": t["v"],
                "h": pc.divide(t["s"], pc.cast(t["c"], f64))}),
            batch_format="pyarrow").materialize()

    h1 = mean_hop(feat, "h1")
    h2 = mean_hop(h1, "h2")

    from odinson_ray.stages.shuffle import hash_join as hj

    out = hj(h1, h2, on="v",
             left_schema=pa.schema([("v", str_t), ("h", f64)]),
             right_schema=pa.schema([("v", str_t), ("h", f64)]))
    return out.map_batches(
        lambda t: pa.table({"entity": t["v"],
                            "h1": pc.round(t["h"], 6),
                            "h2": pc.round(t["h_r"], 6)}),
        batch_format="pyarrow")


# ===================================== KG-embedding negative sampling
_NEG_ATTEMPTS = 4


_NEG_KEEP = 2


ORACLE_KG_NEGATIVE_SAMPLES = f"""
WITH trip AS ({_KG_TRIPLES_BODY}),
pos AS (SELECT DISTINCT subj_canon AS s, pred AS r, obj_canon AS o FROM trip),
ents AS (
  SELECT DISTINCT e FROM (
    SELECT subj_canon AS e FROM trip UNION SELECT obj_canon FROM trip)
),
reps AS (
  SELECT CAST(('0x' || substr(md5(e), 1, 8)) AS UBIGINT)
           % (SELECT count(*) FROM ents) AS b,
         min(e) AS cand
  FROM ents GROUP BY 1
),
att AS (
  SELECT s, r, o, i,
         CAST(('0x' || substr(md5(s || '|' || r || '|' || o || '|'
                                  || CAST(i AS VARCHAR)), 1, 8))
              AS UBIGINT) % (SELECT count(*) FROM ents) AS b
  FROM pos CROSS JOIN (SELECT unnest([0, 1, 2, 3]) AS i)
),
cand AS (
  SELECT a.s, a.r, a.o, a.i, rep.cand AS neg
  FROM att a JOIN reps rep ON rep.b = a.b
  WHERE rep.cand <> a.o AND rep.cand <> a.s
    AND NOT EXISTS (SELECT 1 FROM pos p
                    WHERE p.s = a.s AND p.r = a.r AND p.o = rep.cand)
),
ranked AS (
  SELECT *, row_number() OVER (PARTITION BY s, r, o ORDER BY i) AS rn
  FROM cand
)
SELECT s AS subj_canon, r AS pred, o AS obj_canon, neg AS neg_obj,
       CAST(i AS BIGINT) AS attempt
FROM ranked WHERE rn <= {_NEG_KEEP}
"""


@query("kg_negative_samples", oracle=ORACLE_KG_NEGATIVE_SAMPLES)
def q_kg_negative_samples(sf_dir: str):
    """Deterministic negative sampling for KG-embedding training: for
    every positive triple (s, r, o), up to 2 corrupted objects drawn by
    md5-bucket lookup and verified NOT to be real triples.

    The classic scheme needs a uniform pick from the entity catalog,
    which would require a global enumeration (a sort at catalog scale);
    instead each entity hashes into one of 64k buckets and the pick is
    the bucket's min entity — a pure hash-join plan (attempt rows join
    the bucket-representative table; slight non-uniformity documented),
    reproducible at any parallelism. Validity = an anti join against the
    positive set keyed on the corrupted triple; the first 2 valid
    attempts per positive survive via grouped_topk.

    On the per-row md5 loop in ``attempts``: md5 is the one hash BOTH
    sides of the correctness gate can compute (hashlib here, md5() in
    the DuckDB oracle) — the same trade the fingerprint/doc-split ops
    make. A production run without the oracle constraint would switch
    the attempt hash to the vectorized _splitmix64 over integer triple
    ids (one line; the plan shape — two hash joins + one anti join —
    is unchanged)."""
    import hashlib

    from odinson_ray.stages.shuffle import grouped_topk, hash_join

    from ..kg import triples_dataset

    str_t = pa.string()

    def to_pos(t: pa.Table) -> pa.Table:
        return pa.table({"s": t["subj_canon"], "r": t["pred"],
                         "o": t["obj_canon"]})

    pos = combine_aggregate(  # materialized: attempts + anti side
        triples_dataset(sf_dir).map_batches(to_pos, batch_format="pyarrow"),
        ["s", "r", "o"], []).materialize()

    def to_ents(t: pa.Table) -> pa.Table:
        e = pa.concat_arrays([t["s"].combine_chunks(),
                              t["o"].combine_chunks()])
        return pa.table({"e": e})

    ents = combine_aggregate(pos.map_batches(to_ents, batch_format="pyarrow"),
                             "e", []).materialize()
    # modulus = |entity catalog| (a driver SCALAR, not data): hit rate
    # ~1-1/e at any scale; 64k-bucket fixed moduli miss almost every
    # attempt when the catalog is small
    n_buckets = max(1, ents.count())

    def rep_project(t: pa.Table) -> pa.Table:
        b = [int(hashlib.md5(e.encode()).hexdigest()[:8], 16) % n_buckets
             for e in t["e"].to_pylist()]
        return pa.table({"b": pa.array(b, pa.int64()), "cand": t["e"]})

    reps = combine_aggregate(
        ents.map_batches(rep_project, batch_format="pyarrow"),
        "b", [("cand", "cand", "min")])

    def attempts(t: pa.Table) -> pa.Table:
        s = t["s"].to_pylist()
        r = t["r"].to_pylist()
        o = t["o"].to_pylist()
        n = len(s)
        m = _NEG_ATTEMPTS
        ss, rr, oo, ii, bb = [], [], [], [], []
        for j in range(n):
            for i in range(m):
                h = hashlib.md5(
                    f"{s[j]}|{r[j]}|{o[j]}|{i}".encode()).hexdigest()
                ss.append(s[j]); rr.append(r[j]); oo.append(o[j])
                ii.append(i)
                bb.append(int(h[:8], 16) % n_buckets)
        return pa.table({"s": pa.array(ss, str_t), "r": pa.array(rr, str_t),
                         "o": pa.array(oo, str_t),
                         "i": pa.array(ii, pa.int64()),
                         "b": pa.array(bb, pa.int64())})

    att = pos.map_batches(attempts, batch_format="pyarrow")
    att_schema = pa.schema([("s", str_t), ("r", str_t), ("o", str_t),
                            ("i", pa.int64()), ("b", pa.int64())])
    rep_schema = pa.schema([("b", pa.int64()), ("cand", str_t)])
    cand = hash_join(att, reps, on="b",
                     left_schema=att_schema, right_schema=rep_schema)

    SEP = "\x1f"

    def keyed(t: pa.Table) -> pa.Table:
        t = t.filter(pc.and_(pc.not_equal(t["cand"], t["o"]),
                             pc.not_equal(t["cand"], t["s"])))
        k = pc.binary_join_element_wise(t["s"], t["r"], t["cand"], SEP)
        return pa.table({"k": k, "s": t["s"], "r": t["r"], "o": t["o"],
                         "i": t["i"], "cand": t["cand"]})

    def pos_keyed(t: pa.Table) -> pa.Table:
        return pa.table({"k": pc.binary_join_element_wise(
            t["s"], t["r"], t["o"], SEP)})

    valid = hash_join(
        cand.map_batches(keyed, batch_format="pyarrow"),
        pos.map_batches(pos_keyed, batch_format="pyarrow"),
        on="k", how="anti",
        left_schema=pa.schema([("k", str_t), ("s", str_t), ("r", str_t),
                               ("o", str_t), ("i", pa.int64()),
                               ("cand", str_t)]),
        right_schema=pa.schema([("k", str_t)]))

    def tkey(t: pa.Table) -> pa.Table:
        return t.append_column(
            "tk", pc.binary_join_element_wise(t["s"], t["r"], t["o"], SEP))

    top = grouped_topk(valid.map_batches(tkey, batch_format="pyarrow"),
                       by="tk", cols=["i"], descending=[False],
                       k=_NEG_KEEP)
    return top.map_batches(
        lambda t: pa.table({"subj_canon": t["s"], "pred": t["r"],
                            "obj_canon": t["o"], "neg_obj": t["cand"],
                            "attempt": t["i"]}),
        batch_format="pyarrow")


# ===================================== PMI-weighted KG edges


ORACLE_KG_PMI_EDGES = f"""
WITH trip AS ({_KG_TRIPLES_BODY}),
tt AS (SELECT least(subj_canon, obj_canon) AS lo,
              greatest(subj_canon, obj_canon) AS hi, n
       FROM trip WHERE subj_canon != obj_canon),
pairs AS (SELECT lo, hi, CAST(sum(n) AS BIGINT) AS c_ab
          FROM tt GROUP BY lo, hi),
marg AS (SELECT v, CAST(sum(n) AS BIGINT) AS c_v FROM (
  SELECT lo AS v, n FROM tt UNION ALL SELECT hi, n FROM tt) GROUP BY v),
tot AS (SELECT CAST(sum(n) * 2 AS DOUBLE) AS n FROM tt)
SELECT p.lo, p.hi, p.c_ab,
       round(ln(p.c_ab * (SELECT n FROM tot) / (ml.c_v * mh.c_v)), 6)
         AS pmi
FROM pairs p JOIN marg ml ON ml.v = p.lo
             JOIN marg mh ON mh.v = p.hi
"""


@query("kg_pmi_edges", oracle=ORACLE_KG_PMI_EDGES)
def q_kg_pmi_edges(sf_dir: str):
    """Pointwise mutual information weighting of the undirected KG
    co-occurrence graph: c_ab = triple-count mass on the pair, c_a =
    mass touching the entity, N = total mass; pmi = ln(c_ab * N /
    (c_a * c_b)). The edge-weighting step between raw triple extraction
    and graph analytics (its output is what pagerank/communities SHOULD
    run on at web scale, where raw counts overweight stopword-like
    entities). Shape: one pair aggregate, one exploded marginal
    aggregate, two hash joins; N is a driver scalar."""
    from odinson_ray.stages.shuffle import hash_join

    from ..kg import triples_dataset

    trips = triples_dataset(sf_dir).materialize()  # pairs + marginals + N

    pairs = combine_aggregate(
        trips.map_batches(_undirected, fn_kwargs={"carry": ("n",)},
                          batch_format="pyarrow"),
        ["lo", "hi"], [("c_ab", "n", "sum")])

    def to_marginals(t: pa.Table) -> pa.Table:
        t = t.filter(pc.not_equal(t["subj_canon"], t["obj_canon"]))
        v = pa.concat_arrays([t["subj_canon"].combine_chunks(),
                              t["obj_canon"].combine_chunks()])
        n = pa.concat_arrays([pc.cast(t["n"], pa.int64()).combine_chunks()] * 2)
        return pa.table({"v": v, "n": n})

    marg = combine_aggregate(
        trips.map_batches(to_marginals, batch_format="pyarrow"),
        "v", [("c_v", "n", "sum")]).materialize()
    total = int(marg.sum("c_v") or 0)

    str_t, i64 = pa.string(), pa.int64()
    j1 = hash_join(pairs, marg, on="lo", right_on="v",
                   left_schema=pa.schema([("lo", str_t), ("hi", str_t),
                                          ("c_ab", i64)]),
                   right_schema=pa.schema([("v", str_t), ("c_v", i64)]))
    j1 = j1.map_batches(
        lambda t: pa.table({"lo": t["lo"], "hi": t["hi"], "c_ab": t["c_ab"],
                            "c_lo": t["c_v"]}),
        batch_format="pyarrow")
    j2 = hash_join(j1, marg, on="hi", right_on="v",
                   left_schema=pa.schema([("lo", str_t), ("hi", str_t),
                                          ("c_ab", i64), ("c_lo", i64)]),
                   right_schema=pa.schema([("v", str_t), ("c_v", i64)]))

    def finish(t: pa.Table) -> pa.Table:
        c_ab = t["c_ab"].to_numpy(zero_copy_only=False).astype(np.float64)
        c_lo = t["c_lo"].to_numpy(zero_copy_only=False).astype(np.float64)
        c_hi = t["c_v"].to_numpy(zero_copy_only=False).astype(np.float64)
        pmi = np.round(np.log(c_ab * float(total) / (c_lo * c_hi)), 6)
        return pa.table({"lo": t["lo"], "hi": t["hi"],
                         "c_ab": t["c_ab"],
                         "pmi": pa.array(pmi, pa.float64())})

    return j2.map_batches(finish, batch_format="pyarrow")


# ===================================== KG adjacency store (materialize)


ORACLE_KG_ADJACENCY_TOPDEG = f"""
WITH trip AS ({_KG_TRIPLES_BODY}),
d AS (SELECT DISTINCT subj_canon, pred, obj_canon FROM trip),
deg AS (SELECT subj_canon AS entity, CAST(count(*) AS BIGINT)
          AS out_degree
        FROM d GROUP BY subj_canon)
SELECT entity, out_degree FROM deg
ORDER BY out_degree DESC, entity ASC LIMIT 10
"""


@query("kg_adjacency_topdeg", oracle=ORACLE_KG_ADJACENCY_TOPDEG)
def q_kg_adjacency_topdeg(sf_dir: str, k: int = 10):
    """The north rule's 'graph materialize' clause end to end: extract
    triples, write them ONCE as a subj_canon-bucketed parquet adjacency
    store (stages/layout.bucket_layout_ds — manifest, atomic publish),
    then compute per-entity out-degree (distinct (pred, obj)) with ZERO
    runtime shuffle — one task per bucket, keys complete within their
    bucket — and return the top-10 entities (degree DESC, entity ASC)."""
    import os

    from odinson_ray.stages.layout import bucket_layout_ds, bucketed_aggregate
    from odinson_ray.stages.shuffle import global_topk

    from ..kg import triples_dataset

    src = f"{sf_dir}/documents.parquet"
    st = os.stat(src)
    tag = f"kgadj:{os.path.abspath(src)}:{st.st_size}:{st.st_mtime_ns}"
    trips = triples_dataset(sf_dir).map_batches(
        lambda t: t.select(["subj_canon", "pred", "obj_canon"]),
        batch_format="pyarrow")
    root = bucket_layout_ds(trips, key="subj_canon", n_buckets=16, tag=tag)

    schema = pa.schema([("subj_canon", pa.string()), ("pred", pa.string()),
                        ("obj_canon", pa.string())])

    def degree(t: pa.Table) -> pa.Table:
        d = partial_aggregate(t, ["subj_canon", "pred", "obj_canon"], [])
        return partial_aggregate(d, ["subj_canon"],
                                 [("out_degree", None, "count_all")]
                                 ).rename_columns(["entity", "out_degree"])

    degs = bucketed_aggregate(root, schema, degree)
    return global_topk(degs, ["out_degree", "entity"], [True, False], k)


# ===================================== KG -> QA instruction pairs


ORACLE_KG_QA_PAIRS = f"""
WITH negs AS ({ORACLE_KG_NEGATIVE_SAMPLES.strip()}),
trip AS ({_KG_TRIPLES_BODY}),
pos AS (SELECT DISTINCT subj_canon AS s, pred AS r, obj_canon AS o
        FROM trip),
ranked AS (
  SELECT subj_canon, pred, obj_canon, neg_obj,
         row_number() OVER (PARTITION BY subj_canon, pred, obj_canon
                            ORDER BY attempt) AS rn
  FROM negs
),
wide AS (
  SELECT subj_canon, pred, obj_canon,
         COALESCE(max(CASE WHEN rn = 1 THEN neg_obj END), '') AS d1,
         COALESCE(max(CASE WHEN rn = 2 THEN neg_obj END), '') AS d2
  FROM ranked GROUP BY 1, 2, 3
)
SELECT 'what does ' || p.s || ' ' || p.r || ' ?' AS question,
       p.o AS answer,
       COALESCE(w.d1, '') AS distractor1,
       COALESCE(w.d2, '') AS distractor2
FROM pos p LEFT JOIN wide w
  ON w.subj_canon = p.s AND w.pred = p.r AND w.obj_canon = p.o
"""


@query("kg_qa_pairs", oracle=ORACLE_KG_QA_PAIRS)
def q_kg_qa_pairs(sf_dir: str):
    """Instruction-tuning pair synthesis from the graph: one templated
    question per canonical triple, the true object as the answer, and
    up to two HARD distractors from the deterministic negative sampler
    (q_kg_negative_samples) — the KG-to-training-data composition a
    QA-data pipeline runs after construction. One extra hash join over
    the negative-sample stream; everything upstream is shared."""
    from ray.data.aggregate import Min

    from odinson_ray.stages.shuffle import hash_join

    from ..kg import triples_dataset

    SEP = "\x1f"
    str_t = pa.string()

    def to_pos(t: pa.Table) -> pa.Table:
        return pa.table({"s": t["subj_canon"], "r": t["pred"],
                         "o": t["obj_canon"]})

    pos = combine_aggregate(
        triples_dataset(sf_dir).map_batches(to_pos, batch_format="pyarrow"),
        ["s", "r", "o"], [])

    negs = q_kg_negative_samples(sf_dir)

    def neg_wide_partial(t: pa.Table) -> pa.Table:
        # key the <=2-row-per-triple negative stream, packing attempt
        # before neg_obj so attempt order is lexicographic (attempts are
        # the single digits 1/2 by construction); the pivot is then PURE
        # aggregates — Min = first-attempt row, Max = last — instead of
        # one map_groups task per triple (tiny-group rule, r4 sweep)
        tk = pc.binary_join_element_wise(
            t["subj_canon"], t["pred"], t["obj_canon"], SEP)
        packed = pc.binary_join_element_wise(
            pc.cast(t["attempt"], str_t), t["neg_obj"], SEP)
        return pa.table({"tk": tk, "packed": packed})

    keyed = negs.map_batches(neg_wide_partial, batch_format="pyarrow")

    from ray.data.aggregate import Max as RMax

    def unpack_wide(t: pa.Table) -> pa.Table:
        first = pc.replace_substring_regex(t["_min"], r"^\d+\x1f", "")
        last = pc.replace_substring_regex(t["_max"], r"^\d+\x1f", "")
        # a single-attempt triple pivots to (d1, ""); min==max marks it
        d2 = pc.if_else(pc.equal(t["_min"], t["_max"]),
                        pa.array([""] * t.num_rows, str_t), last)
        return pa.table({"tk": t["tk"], "d1": first, "d2": d2})

    wide = (keyed.groupby("tk")
            .aggregate(Min("packed", alias_name="_min"),
                       RMax("packed", alias_name="_max"))
            .map_batches(unpack_wide, batch_format="pyarrow"))

    def keyed_pos(t: pa.Table) -> pa.Table:
        return pa.table({
            "tk": pc.binary_join_element_wise(t["s"], t["r"], t["o"], SEP),
            "s": t["s"], "r": t["r"], "o": t["o"],
        })

    joined = hash_join(
        pos.map_batches(keyed_pos, batch_format="pyarrow"), wide,
        on="tk", how="left_outer",
        left_schema=pa.schema([("tk", str_t), ("s", str_t), ("r", str_t),
                               ("o", str_t)]),
        right_schema=pa.schema([("tk", str_t), ("d1", str_t),
                                ("d2", str_t)]))

    def finish(t: pa.Table) -> pa.Table:
        q = pc.binary_join_element_wise(
            pa.array(["what does"] * t.num_rows, str_t),
            t["s"], t["r"], pa.array(["?"] * t.num_rows, str_t), " ")
        return pa.table({
            "question": q,
            "answer": t["o"],
            "distractor1": pc.fill_null(t["d1"], ""),
            "distractor2": pc.fill_null(t["d2"], ""),
        })

    return joined.map_batches(finish, batch_format="pyarrow")


# ===================================== HITS link analysis


ORACLE_KG_HITS = f"""
WITH trip AS ({_KG_TRIPLES_BODY}),
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


@query("kg_hits", oracle=ORACLE_KG_HITS)
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

    edges = _kg_directed_edges(sf_dir).materialize().map_batches(
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


# ===================================== DeepWalk-style random walks


ORACLE_KG_RANDOM_WALKS = f"""
WITH trip AS ({_KG_TRIPLES_BODY}),
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


@query("kg_random_walks", oracle=ORACLE_KG_RANDOM_WALKS)
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

    from odinson_ray.stages.graph import symmetric_adjacency
    from odinson_ray.stages.shuffle import grouped_topk, hash_join

    str_t = pa.string()

    # consumed per step
    adj = symmetric_adjacency(_kg_edges(sf_dir), "a", "b").materialize()
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


# ===================================== neighborhood-Jaccard similarity


ORACLE_NODE_SIMILARITY = f"""
WITH trip AS ({_KG_TRIPLES_BODY}),
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


@query("node_similarity", oracle=ORACLE_NODE_SIMILARITY)
def q_node_similarity(sf_dir: str):
    """Node-similarity (neighborhood Jaccard) over the canonical KG:
    J(n1,n2) = |N∩| / (deg1 + deg2 − |N∩|) for pairs with ≥1 common
    neighbor — the entity-resolution / link-prediction score graph
    databases ship as nodeSimilarity. Wedge self-join through the
    center with the Adamic-Adar hub cap (mirrored in the oracle), two
    degree joins for the denominator."""
    from odinson_ray.stages.graph import jaccard_pairs

    return jaccard_pairs(_kg_edges(sf_dir), max_center_degree=1000)


# ===================================== per-edge triangle support


ORACLE_KG_EDGE_SUPPORT = f"""
WITH trip AS ({_KG_TRIPLES_BODY}),
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


@query("kg_edge_support", oracle=ORACLE_KG_EDGE_SUPPORT)
def q_kg_edge_support(sf_dir: str):
    """Per-edge triangle support |N(lo) ∩ N(hi)| over the canonical KG —
    the quantity k-truss peeling and community-pruning pipelines
    consume. Delegates to :func:`odinson_ray.stages.graph.edge_support`
    (degree-oriented O(m^1.5) wedge enumeration, closing semi-join,
    per-batch combiner, one Sum groupby, left join back onto the edge
    list so triangle-free edges report 0)."""
    from odinson_ray.stages.graph import edge_support

    return edge_support(_kg_edges(sf_dir))


# ===================================== personalized PageRank


def _ppr_oracle(damping: float = 0.85) -> str:
    d = damping
    return f"""
WITH trip AS ({_KG_TRIPLES_BODY}),
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


ORACLE_KG_PPR = _ppr_oracle()


@query("kg_ppr", oracle=ORACLE_KG_PPR)
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

    edges = _kg_directed_edges(sf_dir).materialize()
    deg = edges.groupby("src").aggregate(Count(alias_name="d"))
    seed_v = _kg_seeds(edges)[0]
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


# ===================================== SCC of the seed entity


ORACLE_KG_SCC_SEED = f"""
WITH RECURSIVE trip AS ({_KG_TRIPLES_BODY}),
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


@query("kg_scc_seed", oracle=ORACLE_KG_SCC_SEED)
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

    edges = _kg_directed_edges(sf_dir).materialize()
    seed_v = _kg_seeds(edges)[0]

    def reach(direction: str):
        return reach_fixpoint(edges, seed_v, direction,
                              max_rounds=max_rounds)

    fw, bw = reach("fw"), reach("bw")
    scc = hash_join(fw, bw, on="v", how="semi",
                    left_schema=pa.schema([("v", str_t)]),
                    right_schema=pa.schema([("v", str_t)]))
    return scc.map_batches(lambda t: pa.table({"entity": t["v"]}),
                           batch_format="pyarrow")


# ===================================== k-truss (iterative edge peeling)


def _ktruss_oracle(k: int = 4, rounds: int = 12) -> str:
    """Unrolled peeling in plain SQL: rounds are idempotent after the
    fixpoint, so ``rounds`` only needs to be >= the rounds the graph
    actually takes (pytest pins convergence <= rounds at sf0.01)."""
    parts = [f"""
WITH trip AS ({_KG_TRIPLES_BODY}),
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


ORACLE_KG_KTRUSS = _ktruss_oracle()


@query("kg_ktruss", oracle=ORACLE_KG_KTRUSS)
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

    return k_truss(_kg_edges(sf_dir), k=k)


_SEP = "\x1f"


_STR = pa.string()


_I64 = pa.int64()


def _kg_distinct_spo(sf_dir: str):
    """Distinct (pred, s, o) rows of the canonical triple graph,
    materialized — the shared front end of this batch (the predicate-
    labelled twin of _kg_directed_edges)."""
    from ..kg import triples_dataset

    def proj(t: pa.Table) -> pa.Table:
        return pa.table({"pred": t["pred"], "s": t["subj_canon"],
                         "o": t["obj_canon"]})

    return combine_aggregate(
        triples_dataset(sf_dir)
        .map_batches(proj, batch_format="pyarrow"),
        ["pred", "s", "o"], []).materialize()


# ===================================== functional-predicate mining


ORACLE_KG_FUNCTIONAL_PREDS = f"""
WITH trip AS ({_KG_TRIPLES_BODY}),
d AS (SELECT DISTINCT pred, subj_canon AS s, obj_canon AS o FROM trip),
per_subj AS (SELECT pred, s, count(*) AS n_obj FROM d GROUP BY 1, 2)
SELECT pred, CAST(count(*) AS BIGINT) AS n_subjects,
       CAST(sum(CASE WHEN n_obj > 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_multi,
       round(sum(CASE WHEN n_obj > 1 THEN 1 ELSE 0 END) * 1.0 / count(*), 6)
         AS multi_rate
FROM per_subj GROUP BY pred
"""


@query("kg_functional_preds", oracle=ORACLE_KG_FUNCTIONAL_PREDS)
def q_kg_functional_preds(sf_dir: str):
    """Cardinality-constraint mining: for every predicate, how many
    subjects have it, how many of those have MORE than one object, and
    the multi-object rate — (near-)zero rates identify functional
    predicates, the constraints a KG completion/validation stage
    enforces. Pure aggregate ladder (distinct -> per-(pred,subj) object
    count -> per-pred sums), every level map-side combined; nothing
    touches the driver."""
    from ray.data.aggregate import Count, Sum

    spo = _kg_distinct_spo(sf_dir)
    per_subj = spo.groupby(["pred", "s"]).aggregate(Count(alias_name="n_obj"))

    def flag(t: pa.Table) -> pa.Table:
        return pa.table({
            "pred": t["pred"],
            "_one": pa.array(np.ones(t.num_rows, dtype=np.int64)),
            "_multi": pc.cast(pc.greater(t["n_obj"], 1), _I64),
        })

    agg = (per_subj.map_batches(flag, batch_format="pyarrow")
           .groupby("pred")
           .aggregate(Sum("_one", alias_name="n_subjects"),
                      Sum("_multi", alias_name="n_multi")))

    def rate(t: pa.Table) -> pa.Table:
        ns = t["n_subjects"].to_numpy(zero_copy_only=False).astype(np.float64)
        nm = t["n_multi"].to_numpy(zero_copy_only=False).astype(np.float64)
        return t.append_column(
            "multi_rate", pa.array(np.round(nm / ns, 6), pa.float64()))

    return agg.map_batches(rate, batch_format="pyarrow")


# ===================================== inverse-relation discovery


ORACLE_KG_INVERSE_CANDIDATES = f"""
WITH trip AS ({_KG_TRIPLES_BODY}),
d AS (SELECT DISTINCT pred, subj_canon AS s, obj_canon AS o FROM trip),
m AS (
  SELECT a.pred AS r1, b.pred AS r2, count(*) AS support
  FROM d a JOIN d b ON a.s = b.o AND a.o = b.s
  GROUP BY 1, 2
),
np AS (SELECT pred, count(*) AS n1 FROM d GROUP BY pred)
SELECT r1, r2, CAST(support AS BIGINT) AS support,
       round(support * 1.0 / n1, 6) AS confidence
FROM m JOIN np ON np.pred = m.r1
"""


@query("kg_inverse_candidates", oracle=ORACLE_KG_INVERSE_CANDIDATES)
def q_kg_inverse_candidates(sf_dir: str):
    """Inverse/symmetric relation discovery: for every ordered predicate
    pair (r1, r2), the number of entity pairs (a, b) with r1(a, b) AND
    r2(b, a), plus confidence = support / |r1 pairs| — high-confidence
    rows are inverse-of candidates (r1 == r2 marks symmetric
    predicates). One distributed hash join on the REVERSED entity-pair
    key; per-group partials combine before the final (r1, r2) groupby."""
    from ray.data.aggregate import Count, Sum

    from odinson_ray.stages.shuffle import hash_join

    spo = _kg_distinct_spo(sf_dir)

    def fwd_key(t: pa.Table) -> pa.Table:
        return pa.table({
            "k": pc.binary_join_element_wise(t["s"], t["o"], _SEP),
            "pred": t["pred"],
        })

    def rev_key(t: pa.Table) -> pa.Table:
        return pa.table({
            "k": pc.binary_join_element_wise(t["o"], t["s"], _SEP),
            "pred": t["pred"],
        })

    fwd = spo.map_batches(fwd_key, batch_format="pyarrow")
    rev = spo.map_batches(rev_key, batch_format="pyarrow")
    kp = pa.schema([("k", _STR), ("pred", _STR)])

    def pair_counts(g: pa.Table) -> pa.Table:
        # one join group = one entity pair; count (r1, r2) combinations
        return partial_aggregate(
            g.select(["pred", "pred_r"]).rename_columns(["r1", "r2"]),
            ["r1", "r2"], [("pn", None, "count_all")])

    matched = hash_join(fwd, rev, on="k", left_schema=kp,
                        right_schema=kp, right_suffix="_r",
                        merge_post=pair_counts)
    support = matched.groupby(["r1", "r2"]).aggregate(
        Sum("pn", alias_name="support"))

    n_pairs = spo.groupby("pred").aggregate(Count(alias_name="n1"))
    sup_schema = pa.schema([("r1", _STR), ("r2", _STR), ("support", _I64)])
    np_schema = pa.schema([("pred", _STR), ("n1", _I64)])

    def conf(t: pa.Table) -> pa.Table:
        s = t["support"].to_numpy(zero_copy_only=False).astype(np.float64)
        n = t["n1"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({
            "r1": t["r1"], "r2": t["r2"], "support": t["support"],
            "confidence": pa.array(np.round(s / n, 6), pa.float64()),
        })

    return hash_join(support, n_pairs, on="r1", right_on="pred",
                     left_schema=sup_schema, right_schema=np_schema,
                     merge_post=conf)


# ===================================== 2-hop path-pattern induction
_PATH_MID_CAP = 1000


ORACLE_KG_PATH_PATTERNS = f"""
WITH trip AS ({_KG_TRIPLES_BODY}),
d AS (SELECT DISTINCT pred, subj_canon AS s, obj_canon AS o FROM trip),
ind AS (SELECT o AS m, count(*) AS indeg FROM d GROUP BY 1),
outd AS (SELECT s AS m, count(*) AS outdeg FROM d GROUP BY 1),
ok AS (SELECT m FROM ind JOIN outd USING (m)
       WHERE indeg <= {_PATH_MID_CAP} AND outdeg <= {_PATH_MID_CAP})
SELECT a.pred AS r1, b.pred AS r2, CAST(count(*) AS BIGINT) AS n_paths
FROM d a JOIN ok ON ok.m = a.o JOIN d b ON b.s = a.o
GROUP BY 1, 2
"""


@query("kg_path_patterns", oracle=ORACLE_KG_PATH_PATTERNS)
def q_kg_path_patterns(sf_dir: str):
    """2-hop relation-path schema induction: counts of paths
    a -r1-> m -r2-> c per predicate pair (r1, r2) — the composition
    statistics a KG materializes before mining longer rules. Middles whose in-
    OR out-degree exceeds _PATH_MID_CAP (1000) are excluded (the hub bound:
    one middle contributes indeg x outdeg paths, so an uncapped hub is
    the deg^2 wedge problem degree-oriented triangles solve; the cap is
    enforced INSIDE the join reducer where both group sizes are already
    known, and the oracle applies the identical filter). Per-group
    output is the (r1-count x r2-count) OUTER PRODUCT of per-predicate
    tallies — path counts without materializing the path cross
    product."""
    from ray.data.aggregate import Sum

    from odinson_ray.stages.shuffle import hash_join

    spo = _kg_distinct_spo(sf_dir)

    def as_in(t: pa.Table) -> pa.Table:   # edges arriving AT the middle
        return pa.table({"m": t["o"], "pred": t["pred"]})

    def as_out(t: pa.Table) -> pa.Table:  # edges leaving the middle
        return pa.table({"m": t["s"], "pred": t["pred"]})

    inc = spo.map_batches(as_in, batch_format="pyarrow")
    out = spo.map_batches(as_out, batch_format="pyarrow")
    mp = pa.schema([("m", _STR), ("pred", _STR)])

    def cross_counts(g: pa.Table) -> pa.Table:
        # joined rows pair one in-edge (pred) with one out-edge (pred_r)
        return partial_aggregate(
            g.select(["pred", "pred_r"]).rename_columns(["r1", "r2"]),
            ["r1", "r2"], [("pn", None, "count_all")])

    def guard(n_in, n_out):
        # degree cap decided before the cross product is built
        # (hash_join calls this with int64 arrays of group sizes)
        return (n_in <= _PATH_MID_CAP) & (n_out <= _PATH_MID_CAP)

    matched = hash_join(inc, out, on="m", left_schema=mp, right_schema=mp,
                        right_suffix="_r", merge_post=cross_counts,
                        group_filter=guard)
    return matched.groupby(["r1", "r2"]).aggregate(
        Sum("pn", alias_name="n_paths"))


# ===================================== AMIE-lite implication mining


ORACLE_KG_RULE_IMPLICATIONS = f"""
WITH trip AS ({_KG_TRIPLES_BODY}),
d AS (SELECT DISTINCT pred, subj_canon AS s, obj_canon AS o FROM trip),
m AS (
  SELECT a.pred AS r1, b.pred AS r2, count(*) AS support
  FROM d a JOIN d b ON a.s = b.s AND a.o = b.o AND a.pred != b.pred
  GROUP BY 1, 2
),
np AS (SELECT pred, count(*) AS n1 FROM d GROUP BY pred)
SELECT r1, r2, CAST(support AS BIGINT) AS support,
       round(support * 1.0 / n1, 6) AS confidence
FROM m JOIN np ON np.pred = m.r1
"""


@query("kg_rule_implications", oracle=ORACLE_KG_RULE_IMPLICATIONS)
def q_kg_rule_implications(sf_dir: str):
    """Single-atom rule mining (AMIE-lite): for ordered predicate pairs
    r1 != r2, support = |entity pairs (x, y) with BOTH r1(x, y) and
    r2(x, y)| and confidence = support / |r1 pairs| — the Horn-rule seed
    r1(x,y) => r2(x,y). The entity-pair co-grouping is one coarse
    exchange on the pair (tiny-group rule): per-run predicate-pair
    enumeration (runs are the predicate sets of one entity pair — tiny
    by construction), never one task per entity pair."""
    from ray.data.aggregate import Count, Sum

    from odinson_ray.stages.shuffle import hash_join

    spo = _kg_distinct_spo(sf_dir)

    def keyed(t: pa.Table) -> pa.Table:
        return pa.table({"k": pc.binary_join_element_wise(t["s"], t["o"], _SEP),
                         "pred": t["pred"]})

    def pairs_partition(g: pa.Table) -> pa.Table:
        empty = pa.table({"r1": pa.array([], _STR), "r2": pa.array([], _STR),
                          "pn": pa.array([], _I64)})
        ks = np.asarray(g["k"].to_pylist(), dtype=object)
        ps = np.asarray(g["pred"].to_pylist(), dtype=object)
        newk = np.ones(len(ks), dtype=bool)
        newk[1:] = ks[1:] != ks[:-1]
        bounds = np.append(np.flatnonzero(newk), len(ks))
        a: list = []
        b: list = []
        for i in range(len(bounds) - 1):
            run = ps[bounds[i]:bounds[i + 1]]
            if len(run) < 2:
                continue
            for x_i in range(len(run)):
                for y_i in range(len(run)):
                    if x_i != y_i:
                        a.append(run[x_i])
                        b.append(run[y_i])
        if not a:
            return empty
        t = pa.table({"r1": pa.array(a, _STR), "r2": pa.array(b, _STR)})
        return partial_aggregate(t, ["r1", "r2"], [("pn", None, "count_all")])

    support = (coarse_groups(spo.map_batches(keyed, batch_format="pyarrow"),
                             ["k"], pairs_partition, ["pred"])
               .groupby(["r1", "r2"]).aggregate(Sum("pn", alias_name="support")))

    n_pairs = spo.groupby("pred").aggregate(Count(alias_name="n1"))
    sup_schema = pa.schema([("r1", _STR), ("r2", _STR), ("support", _I64)])
    np_schema = pa.schema([("pred", _STR), ("n1", _I64)])

    def conf(t: pa.Table) -> pa.Table:
        s = t["support"].to_numpy(zero_copy_only=False).astype(np.float64)
        n = t["n1"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({
            "r1": t["r1"], "r2": t["r2"], "support": t["support"],
            "confidence": pa.array(np.round(s / n, 6), pa.float64()),
        })

    return hash_join(support, n_pairs, on="r1", right_on="pred",
                     left_schema=sup_schema, right_schema=np_schema,
                     merge_post=conf)


# ===================================== transitive-relation discovery
_TRANS_MID_CAP = 1000


ORACLE_KG_TRANSITIVE_PREDS = f"""
WITH trip AS ({_KG_TRIPLES_BODY}),
d AS (SELECT DISTINCT pred, subj_canon AS s, obj_canon AS o FROM trip),
ind AS (SELECT pred, o AS m, count(*) AS c FROM d GROUP BY 1, 2),
outd AS (SELECT pred, s AS m, count(*) AS c FROM d GROUP BY 1, 2),
ok AS (SELECT pred, m FROM ind JOIN outd USING (pred, m)
       WHERE ind.c <= {_TRANS_MID_CAP} AND outd.c <= {_TRANS_MID_CAP}),
two_hop AS (
  SELECT DISTINCT a.pred, a.s AS x, b.o AS z
  FROM d a JOIN ok ON ok.pred = a.pred AND ok.m = a.o
           JOIN d b ON b.pred = a.pred AND b.s = a.o
),
closed AS (
  SELECT t.pred, count(*) AS c FROM two_hop t
  JOIN d ON d.pred = t.pred AND d.s = t.x AND d.o = t.z
  GROUP BY 1
),
tot AS (SELECT pred, count(*) AS n FROM two_hop GROUP BY 1)
SELECT tot.pred, CAST(n AS BIGINT) AS n_two_hop,
       CAST(COALESCE(c, 0) AS BIGINT) AS n_closed,
       round(COALESCE(c, 0) * 1.0 / n, 6) AS transitivity
FROM tot LEFT JOIN closed ON closed.pred = tot.pred
"""


@query("kg_transitive_preds", oracle=ORACLE_KG_TRANSITIVE_PREDS)
def q_kg_transitive_preds(sf_dir: str):
    """Transitive-relation discovery: per predicate r, the number of
    DISTINCT 2-hop pairs (x, z) with r(x, y) ∧ r(y, z) for some y, how
    many of those are closed by a direct r(x, z) edge, and the closure
    rate — near-1 rates identify transitive predicates (the axioms a KG
    completion stage can then materialize). Middles whose within-
    predicate in- OR out-degree exceeds the cap are excluded (the same
    hub bound as kg_path_patterns, enforced by ``hash_join``'s
    group_filter BEFORE the per-middle cross product exists; mirrored in
    the oracle). Distinct-pair dedup happens twice: locally inside the
    join reducer (bounds emitted rows), then one global groupby."""
    from ray.data.aggregate import Count

    from odinson_ray.stages.shuffle import hash_join

    spo = _kg_distinct_spo(sf_dir)

    def as_in(t: pa.Table) -> pa.Table:   # r-edges arriving AT the middle
        return pa.table({
            "k": pc.binary_join_element_wise(t["pred"], t["o"], _SEP),
            "pred": t["pred"], "x": t["s"],
        })

    def as_out(t: pa.Table) -> pa.Table:  # r-edges leaving the middle
        return pa.table({
            "k": pc.binary_join_element_wise(t["pred"], t["s"], _SEP),
            "z": t["o"],
        })

    inc = spo.map_batches(as_in, batch_format="pyarrow")
    out = spo.map_batches(as_out, batch_format="pyarrow")
    lsch = pa.schema([("k", _STR), ("pred", _STR), ("x", _STR)])
    rsch = pa.schema([("k", _STR), ("z", _STR)])

    def local_pairs(g: pa.Table) -> pa.Table:
        # one group = one (pred, middle): dedup (pred, x, z) locally
        return partial_aggregate(g.select(["pred", "x", "z"]),
                                 ["pred", "x", "z"], [])

    def guard(n_in, n_out):
        return (n_in <= _TRANS_MID_CAP) & (n_out <= _TRANS_MID_CAP)

    two_hop = (hash_join(inc, out, on="k", left_schema=lsch,
                         right_schema=rsch, merge_post=local_pairs,
                         group_filter=guard)
               .groupby(["pred", "x", "z"]).aggregate(Count(alias_name="_c"))
               .drop_columns(["_c"])).materialize()

    n_pairs = two_hop.groupby("pred").aggregate(Count(alias_name="n_two_hop"))

    def pair_key(t: pa.Table) -> pa.Table:
        return pa.table({
            "k": pc.binary_join_element_wise(t["pred"], t["x"], t["z"], _SEP),
            "pred": t["pred"],
        })

    def edge_key(t: pa.Table) -> pa.Table:
        return pa.table({
            "k": pc.binary_join_element_wise(t["pred"], t["s"], t["o"], _SEP),
        })

    closed = (hash_join(
        two_hop.map_batches(pair_key, batch_format="pyarrow"),
        spo.map_batches(edge_key, batch_format="pyarrow"),
        on="k", how="semi",
        left_schema=pa.schema([("k", _STR), ("pred", _STR)]),
        right_schema=pa.schema([("k", _STR)]))
        .groupby("pred").aggregate(Count(alias_name="n_closed")))

    def fin(t: pa.Table) -> pa.Table:
        nc = t["n_closed"].to_numpy(zero_copy_only=False)
        nc = np.where(np.isnan(nc.astype(np.float64)), 0.0,
                      nc.astype(np.float64))
        nt = t["n_two_hop"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({
            "pred": t["pred"],
            "n_two_hop": t["n_two_hop"],
            "n_closed": pa.array(nc.astype(np.int64), _I64),
            "transitivity": pa.array(np.round(nc / nt, 6), pa.float64()),
        })

    from odinson_ray.stages.shuffle import hash_join as hj

    return hj(n_pairs, closed, on="pred", how="left_outer",
              left_schema=pa.schema([("pred", _STR), ("n_two_hop", _I64)]),
              right_schema=pa.schema([("pred", _STR), ("n_closed", _I64)]),
              merge_post=fin)


# ===================================== composition-rule mining
_COMP_MID_CAP = 1000


ORACLE_KG_COMPOSITION_RULES = f"""
WITH trip AS ({_KG_TRIPLES_BODY}),
d AS (SELECT DISTINCT pred, subj_canon AS s, obj_canon AS o FROM trip),
ind AS (SELECT o AS m, count(*) AS indeg FROM d GROUP BY 1),
outd AS (SELECT s AS m, count(*) AS outdeg FROM d GROUP BY 1),
ok AS (SELECT m FROM ind JOIN outd USING (m)
       WHERE indeg <= {_COMP_MID_CAP} AND outdeg <= {_COMP_MID_CAP}),
bodyp AS (
  SELECT DISTINCT a.pred AS r1, b.pred AS r2, a.s AS x, b.o AS z
  FROM d a JOIN ok ON ok.m = a.o JOIN d b ON b.s = a.o
),
nb AS (SELECT r1, r2, count(*) AS n_body FROM bodyp GROUP BY 1, 2),
sup AS (
  SELECT r1, r2, h.pred AS r3, count(*) AS support
  FROM bodyp JOIN d h ON h.s = bodyp.x AND h.o = bodyp.z
  GROUP BY 1, 2, 3
)
SELECT sup.r1, sup.r2, r3, CAST(support AS BIGINT) AS support,
       round(support * 1.0 / n_body, 6) AS confidence
FROM sup JOIN nb ON nb.r1 = sup.r1 AND nb.r2 = sup.r2
"""


@query("kg_composition_rules", oracle=ORACLE_KG_COMPOSITION_RULES)
def q_kg_composition_rules(sf_dir: str):
    """AMIE path-rule mining: for predicate triples (r1, r2, r3),
    support = |distinct entity pairs (x, z) with a body path
    r1(x, y) ∧ r2(y, z) AND a head edge r3(x, z)|, confidence =
    support / |distinct body pairs of (r1, r2)|. Three shuffles total:
    the capped middle join (body paths, locally deduped per middle),
    the global body-pair distinct, and the head join on the (x, z)
    pair key with per-group (r1, r2, r3) partials combined inside the
    reducer. The middle cap bounds the per-middle cross product
    (indeg × outdeg ≤ cap²) and is mirrored in the oracle."""
    from ray.data.aggregate import Count, Sum

    from odinson_ray.stages.shuffle import hash_join

    spo = _kg_distinct_spo(sf_dir)

    def as_in(t: pa.Table) -> pa.Table:
        return pa.table({"m": t["o"], "r1": t["pred"], "x": t["s"]})

    def as_out(t: pa.Table) -> pa.Table:
        return pa.table({"m": t["s"], "r2": t["pred"], "z": t["o"]})

    inc = spo.map_batches(as_in, batch_format="pyarrow")
    out = spo.map_batches(as_out, batch_format="pyarrow")
    lsch = pa.schema([("m", _STR), ("r1", _STR), ("x", _STR)])
    rsch = pa.schema([("m", _STR), ("r2", _STR), ("z", _STR)])

    def local_body(g: pa.Table) -> pa.Table:
        return partial_aggregate(g.select(["r1", "r2", "x", "z"]),
                                 ["r1", "r2", "x", "z"], [])

    def guard(n_in, n_out):
        return (n_in <= _COMP_MID_CAP) & (n_out <= _COMP_MID_CAP)

    body = (hash_join(inc, out, on="m", left_schema=lsch, right_schema=rsch,
                      merge_post=local_body, group_filter=guard)
            .groupby(["r1", "r2", "x", "z"])
            .aggregate(Count(alias_name="_c")).drop_columns(["_c"])
            ).materialize()

    n_body = body.groupby(["r1", "r2"]).aggregate(
        Count(alias_name="n_body"))

    def body_key(t: pa.Table) -> pa.Table:
        return pa.table({
            "k": pc.binary_join_element_wise(t["x"], t["z"], _SEP),
            "r1": t["r1"], "r2": t["r2"],
        })

    def head_key(t: pa.Table) -> pa.Table:
        return pa.table({
            "k": pc.binary_join_element_wise(t["s"], t["o"], _SEP),
            "r3": t["pred"],
        })

    def rule_partials(g: pa.Table) -> pa.Table:
        # one group = one (x, z) pair; combos are the per-pair rule hits
        return partial_aggregate(g.select(["r1", "r2", "r3"]),
                                 ["r1", "r2", "r3"],
                                 [("pn", None, "count_all")])

    support = (hash_join(
        body.map_batches(body_key, batch_format="pyarrow"),
        spo.map_batches(head_key, batch_format="pyarrow"),
        on="k",
        left_schema=pa.schema([("k", _STR), ("r1", _STR), ("r2", _STR)]),
        right_schema=pa.schema([("k", _STR), ("r3", _STR)]),
        merge_post=rule_partials)
        .groupby(["r1", "r2", "r3"]).aggregate(Sum("pn", alias_name="support")))

    def sup_key(t: pa.Table) -> pa.Table:
        return pa.table({
            "kk": pc.binary_join_element_wise(t["r1"], t["r2"], _SEP),
            "r1": t["r1"], "r2": t["r2"], "r3": t["r3"],
            "support": t["support"],
        })

    def nb_key(t: pa.Table) -> pa.Table:
        return pa.table({
            "kk": pc.binary_join_element_wise(t["r1"], t["r2"], _SEP),
            "n_body": t["n_body"],
        })

    def conf(t: pa.Table) -> pa.Table:
        s = t["support"].to_numpy(zero_copy_only=False).astype(np.float64)
        n = t["n_body"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({
            "r1": t["r1"], "r2": t["r2"], "r3": t["r3"],
            "support": t["support"],
            "confidence": pa.array(np.round(s / n, 6), pa.float64()),
        })

    return hash_join(
        support.map_batches(sup_key, batch_format="pyarrow"),
        n_body.map_batches(nb_key, batch_format="pyarrow"),
        on="kk",
        left_schema=pa.schema([("kk", _STR), ("r1", _STR), ("r2", _STR),
                               ("r3", _STR), ("support", _I64)]),
        right_schema=pa.schema([("kk", _STR), ("n_body", _I64)]),
        merge_post=conf)


# ===================================== truth discovery by weighted vote
def _weighted_spo(sf_dir: str):
    """(pred, s, o, w) with w = total extraction weight (sum of the
    aggregated triple counts across surface-form variants) — the vote
    mass behind each candidate fact. Map-side combined."""
    from ..kg import triples_dataset

    def project(t: pa.Table) -> pa.Table:
        return pa.table({"pred": t["pred"], "s": t["subj_canon"],
                         "o": t["obj_canon"], "n": t["n"]})

    return combine_aggregate(
        triples_dataset(sf_dir)
        .map_batches(project, batch_format="pyarrow"),
        ["pred", "s", "o"], [("w", "n", "sum")])


ORACLE_KG_MAJORITY_OBJECT = f"""
WITH trip AS ({_KG_TRIPLES_BODY}),
w AS (SELECT pred, subj_canon AS s, obj_canon AS o, SUM(n) AS w
      FROM trip GROUP BY 1, 2, 3),
r AS (SELECT pred, s, o, w,
             row_number() OVER (PARTITION BY pred, s
                                ORDER BY w DESC, o) AS rn,
             SUM(w) OVER (PARTITION BY pred, s) AS wt,
             COUNT(*) OVER (PARTITION BY pred, s) AS no
      FROM w)
SELECT pred, s, o AS top_obj, CAST(w AS BIGINT) AS w_top,
       CAST(wt AS BIGINT) AS w_total, CAST(no AS BIGINT) AS n_objs,
       round(w * 1.0 / wt, 6) AS agreement
FROM r WHERE rn = 1
"""


@query("kg_majority_object", oracle=ORACLE_KG_MAJORITY_OBJECT)
def q_kg_majority_object(sf_dir: str):
    """Truth discovery / knowledge fusion: per (predicate, subject) the
    MAJORITY object by extraction weight (ties broken by smallest object
    string — deterministic), with agreement = winner weight / total
    weight and the number of competing objects. This is the conflict-
    resolution vote a KG fusion stage runs before asserting a canonical
    fact. EXECUTION SHAPE (tiny-group rule): one coarse exchange on
    (pred, s), every key run resolved in ONE segmented first/reduceat
    sweep — never one task per (pred, s)."""
    keyed_rows = _weighted_spo(sf_dir)

    def keyed(t: pa.Table) -> pa.Table:
        k = pc.binary_join_element_wise(t["pred"], t["s"], _SEP)
        return pa.table({
            "k": k, "pred": t["pred"], "s": t["s"], "o": t["o"], "w": t["w"],
        })

    def resolve(g: pa.Table) -> pa.Table:
        ks = np.asarray(g["k"].to_pylist(), dtype=object)
        w = g["w"].to_numpy(zero_copy_only=False).astype(np.int64)
        new = np.ones(len(ks), dtype=bool)
        new[1:] = ks[1:] != ks[:-1]
        starts = np.flatnonzero(new)
        lens = np.diff(np.append(starts, len(ks)))
        wtot = np.add.reduceat(w, starts)
        first = pa.array(starts, pa.int64())
        wtop = w[starts]
        return pa.table({
            "pred": g["pred"].take(first),
            "s": g["s"].take(first),
            "top_obj": g["o"].take(first),
            "w_top": pa.array(wtop, _I64),
            "w_total": pa.array(wtot, _I64),
            "n_objs": pa.array(lens.astype(np.int64), _I64),
            "agreement": pa.array(
                np.round(wtop.astype(np.float64) / wtot, 6), pa.float64()),
        })

    return coarse_groups(keyed_rows.map_batches(keyed, batch_format="pyarrow"),
                         ["k"], resolve, [("w", "descending"), "o"])


# ===================================== per-subject entity profiles


ORACLE_KG_ENTITY_PROFILES = f"""
WITH trip AS ({_KG_TRIPLES_BODY}),
w AS (SELECT pred, subj_canon AS s, obj_canon AS o, SUM(n) AS w
      FROM trip GROUP BY 1, 2, 3),
pp AS (SELECT s, pred, SUM(w) AS pw FROM w GROUP BY 1, 2),
r AS (SELECT s, pred, pw,
             row_number() OVER (PARTITION BY s ORDER BY pw DESC, pred) AS rn,
             SUM(pw) OVER (PARTITION BY s) AS wt,
             COUNT(*) OVER (PARTITION BY s) AS np
      FROM pp),
no AS (SELECT s, count(DISTINCT o) AS n_objs FROM w GROUP BY 1)
SELECT r.s, pred AS top_pred, CAST(wt AS BIGINT) AS out_w,
       CAST(np AS BIGINT) AS n_preds,
       round(pw * 1.0 / wt, 6) AS top_share,
       CAST(n_objs AS BIGINT) AS n_objs
FROM r JOIN no ON no.s = r.s WHERE rn = 1
"""


@query("kg_entity_profiles", oracle=ORACLE_KG_ENTITY_PROFILES)
def q_kg_entity_profiles(sf_dir: str):
    """Per-subject entity profile: total outgoing extraction weight,
    distinct predicates, distinct objects, and the DOMINANT outgoing
    predicate (by summed weight, ties lexical) with its weight share —
    the fan-out summary an entity-resolution or schema-inspection pass
    reads. Two aggregate ladders (per-(s, pred) and per-(s, o), both
    map-side combined via _weighted_spo's partials) + one segmented
    argmax sweep + one distributed join."""
    from ray.data.aggregate import Count, Sum

    from odinson_ray.stages.shuffle import hash_join

    wspo = _weighted_spo(sf_dir).materialize()

    per_pred = (wspo.map_batches(
        lambda t: pa.table({"s": t["s"], "pred": t["pred"], "w": t["w"]}),
        batch_format="pyarrow")
        .groupby(["s", "pred"]).aggregate(Sum("w", alias_name="pw")))

    def resolve(g: pa.Table) -> pa.Table:
        ks = np.asarray(g["s"].to_pylist(), dtype=object)
        w = g["pw"].to_numpy(zero_copy_only=False).astype(np.int64)
        new = np.ones(len(ks), dtype=bool)
        new[1:] = ks[1:] != ks[:-1]
        starts = np.flatnonzero(new)
        lens = np.diff(np.append(starts, len(ks)))
        wtot = np.add.reduceat(w, starts)
        first = pa.array(starts, pa.int64())
        return pa.table({
            "s": g["s"].take(first),
            "top_pred": g["pred"].take(first),
            "out_w": pa.array(wtot, _I64),
            "n_preds": pa.array(lens.astype(np.int64), _I64),
            "top_share": pa.array(
                np.round(w[starts].astype(np.float64) / wtot, 6),
                pa.float64()),
        })

    prof = coarse_groups(per_pred, ["s"], resolve,
                         [("pw", "descending"), "pred"])

    n_objs = (combine_aggregate(wspo, ["s", "o"], [])
              .groupby("s").aggregate(Count(alias_name="n_objs")))

    return hash_join(
        prof, n_objs, on="s",
        left_schema=pa.schema([("s", _STR), ("top_pred", _STR),
                               ("out_w", _I64), ("n_preds", _I64),
                               ("top_share", pa.float64())]),
        right_schema=pa.schema([("s", _STR), ("n_objs", _I64)]))


SEP = "\x1f"


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


ORACLE_KG_TEMPORAL_TRIPLES = f"""
WITH dt AS ({_KG_DOC_TRIPLES_BODY})
SELECT subj_canon, pred, obj_canon,
       DATE '2020-01-01' + CAST(min(did % 365) AS INT) AS first_seen,
       DATE '2020-01-01' + CAST(max(did % 365) AS INT) AS last_seen,
       CAST(count(*) AS BIGINT) AS n_docs
FROM dt GROUP BY 1, 2, 3
"""


@query("kg_temporal_triples", oracle=ORACLE_KG_TEMPORAL_TRIPLES)
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

    from ..kg import triples_dataset

    trips = triples_dataset(sf_dir, aggregate=False)

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


# ===================================== canonicalization audit


ORACLE_KG_SURFACE_VARIANTS = f"""
WITH trip AS ({_KG_TRIPLES_BODY}),
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


@query("kg_surface_variants", oracle=ORACLE_KG_SURFACE_VARIANTS)
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
    from ..kg import triples_dataset

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


# ===================================== degree distribution diagnostics


ORACLE_KG_DEGREE_DISTRIBUTION = f"""
WITH trip AS ({_KG_TRIPLES_BODY}),
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


@query("kg_degree_distribution", oracle=ORACLE_KG_DEGREE_DISTRIBUTION)
def q_kg_degree_distribution(sf_dir: str):
    """Log2-binned degree histogram of the KG — the one-page power-law
    diagnostic (straight-ish line on the log-log histogram) a graph
    pipeline prints before choosing skew strategies. Rides
    vertex_degrees' combiner; the histogram itself is <= 64 rows.
    floor(log2(deg)) over int64 degrees is exact in IEEE double on both
    engines (the boundary cases are exact powers of two, where log2 is
    exact)."""
    from odinson_ray.stages.graph import vertex_degrees

    degs = vertex_degrees(_kg_edges(sf_dir))

    def bucket_project(t: pa.Table) -> pa.Table:
        d = t["deg"].to_numpy(zero_copy_only=False).astype(np.float64)
        b = np.floor(np.log2(d)).astype(np.int64)
        return pa.table({"deg_bucket": pa.array(b)})

    return combine_aggregate(
        degs.map_batches(bucket_project, batch_format="pyarrow"),
        "deg_bucket", [("n_vertices", None, "count_all")])


# ===================================== component-size histogram


ORACLE_KG_COMPONENT_SIZES = f"""
WITH RECURSIVE trip AS ({_KG_TRIPLES_BODY}),
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


@query("kg_component_sizes", oracle=ORACLE_KG_COMPONENT_SIZES)
def q_kg_component_sizes(sf_dir: str):
    """Connected-component size histogram of the KG — (size,
    n_components), the fragmentation diagnostic a KG build prints to
    detect a shattered graph (many tiny components) or an
    over-canonicalized one (one giant blob). Rides the pointer-jumping
    connected_components (stages/canon.py); both downstream groupbys
    are combiner-fed and component-vocabulary-bounded."""
    from odinson_ray.stages.canon import connected_components

    edges = _kg_edges(sf_dir).map_batches(
        lambda t: t.rename_columns(["a", "b"]), batch_format="pyarrow")
    cc = connected_components(edges)

    sizes = combine_aggregate(cc, "root", [("size", None, "count_all")])

    return combine_aggregate(sizes, "size",
                             [("n_components", None, "count_all")])


# ===================================== maximal independent set


def _mis_oracle(rounds: int = 8) -> str:
    parts = [f"""
WITH trip AS ({_KG_TRIPLES_BODY}),
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


ORACLE_KG_MIS = _mis_oracle()


@query("kg_mis", oracle=ORACLE_KG_MIS)
def q_kg_mis(sf_dir: str):
    """Deterministic Luby maximal independent set over the KG — the
    classic symmetry-breaking primitive behind distributed coloring /
    scheduling (and a conflict-free seed set for parallel KG curation:
    no two selected entities share an edge). md5 priorities make every
    round reproducible at any parallelism AND SQL-checkable; the oracle
    unrolls 8 rounds (idempotent past convergence — rounds after the
    active set empties select nothing)."""
    from odinson_ray.stages.graph import maximal_independent_set

    return maximal_independent_set(_kg_edges(sf_dir))


# ===================================== triple confidence scoring


ORACLE_KG_TRIPLE_CONFIDENCE = f"""
WITH dt AS ({_KG_DOC_TRIPLES_BODY}),
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


@query("kg_triple_confidence", oracle=ORACLE_KG_TRIPLE_CONFIDENCE)
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
    from odinson_ray.stages.shuffle import hash_join

    from ..kg import triples_dataset

    trips = triples_dataset(sf_dir, aggregate=False)

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

    docs = table(sf_dir, "documents",
                 columns=["doc_id", "source"])
    joined = hash_join(
        td, docs, on="did", right_on="doc_id",
        left_schema=pa.schema([("tk", pa.string()), ("did", pa.int64())]),
        right_schema=pa.schema([("doc_id", pa.int64()),
                                ("source", pa.string())]))

    tsrc = combine_aggregate(joined, ["tk", "source"], [])

    nsrc = combine_aggregate(tsrc, "tk", [("n_sources", None, "count_all")])

    support = hash_join(
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

    return support.map_batches(finish, batch_format="pyarrow")


# ===================================== predicate co-occurrence


ORACLE_KG_PRED_COOCCURRENCE = f"""
WITH dt AS ({_KG_DOC_TRIPLES_BODY}),
dp AS (SELECT DISTINCT doc_id, pred FROM dt)
SELECT a.pred AS pred_a, b.pred AS pred_b,
       CAST(count(*) AS BIGINT) AS n_docs
FROM dp a JOIN dp b ON a.doc_id = b.doc_id AND a.pred < b.pred
GROUP BY 1, 2
"""


@query("kg_pred_cooccurrence", oracle=ORACLE_KG_PRED_COOCCURRENCE)
def q_kg_pred_cooccurrence(sf_dir: str):
    """Predicate co-occurrence graph: unordered predicate pairs asserted
    within the SAME document, with document counts — the relation-level
    analog of entity PMI (schema induction: predicates that co-occur
    often are candidates for composition rules). Distinct (doc, pred)
    rows go through ONE coarse exchange on doc; per-partition pairing is
    segmented index arithmetic over doc runs (pair count per doc is
    C(#preds, 2) <= C(6, 2) — bounded by the predicate vocabulary)."""
    from ray.data.aggregate import Sum

    from ..kg import triples_dataset

    trips = triples_dataset(sf_dir, aggregate=False)

    dp = combine_aggregate(trips, ["doc_id", "pred"], [])

    def pair_partition(g: pa.Table) -> pa.Table:
        d = g["doc_id"].to_numpy(zero_copy_only=False)
        p = g["pred"].to_numpy(zero_copy_only=False)
        n = len(d)
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

    return (coarse_groups(dp, ["doc_id"], pair_partition, ["pred"])
            .groupby(["pred_a", "pred_b"])
            .aggregate(Sum("pn", alias_name="n_docs")))


# ===================================== entity temporal profile


ORACLE_KG_ENTITY_TIMELINE = f"""
WITH dt AS ({_KG_DOC_TRIPLES_BODY}),
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


@query("kg_entity_timeline", oracle=ORACLE_KG_ENTITY_TIMELINE)
def q_kg_entity_timeline(sf_dir: str):
    """Per-entity temporal profile: first/last observation date, distinct
    supporting documents, and distinct active days — the entity-grain
    twin of kg_temporal_triples (the dashboard row a KG ships per node).
    Endpoint union → distinct (entity, doc) → combiner min/max/count;
    active days from a second distinct (entity, day) aggregate; ONE
    vocabulary-bounded join merges the two."""
    from odinson_ray.stages.shuffle import hash_join

    from ..kg import triples_dataset

    trips = triples_dataset(sf_dir, aggregate=False)

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

    spans = hash_join(
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

    return spans.map_batches(finish, batch_format="pyarrow")


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


def _er_funnel_oracle(window: int = 3, max_dist: int = 2) -> str:
    return f"""
WITH RECURSIVE trip AS ({_KG_TRIPLES_BODY}),
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


ORACLE_ER_FUNNEL = _er_funnel_oracle()


@query("er_funnel", oracle=ORACLE_ER_FUNNEL)
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

    from ..kg import triples_dataset

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


# ===================================== bounded weighted shortest path


def _shortest_cost_oracle(hops: int = 4) -> str:
    parts = [f"""
WITH trip AS ({_KG_TRIPLES_BODY}),
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


ORACLE_KG_SHORTEST_COST = _shortest_cost_oracle()


@query("kg_shortest_cost", oracle=ORACLE_KG_SHORTEST_COST)
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

    from ..kg import triples_dataset

    S = pa.string()
    I = pa.int64()

    trips = triples_dataset(sf_dir).materialize()

    def to_wedges(t: pa.Table) -> pa.Table:
        return _directed(t).append_column("n", t["n"])

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
    seed = _kg_seeds(wedges)[0]
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


# ===================================== multi-source harmonic centrality


def _harmonic_oracle(n_seeds: int = 3, rounds: int = 3) -> str:
    return f"""
WITH RECURSIVE trip AS ({_KG_TRIPLES_BODY}),
edges AS (SELECT DISTINCT subj_canon AS src, obj_canon AS dst FROM trip),
deg AS (SELECT src, count(*) AS d FROM edges GROUP BY src),
seeds AS (SELECT src FROM deg ORDER BY d DESC, src LIMIT {n_seeds}),
bfs(s, v, lvl) AS (
  SELECT src, src, 0 FROM seeds
  UNION ALL
  SELECT b.s, e.dst, b.lvl + 1 FROM bfs b JOIN edges e ON e.src = b.v
  WHERE b.lvl < {rounds}
),
dist AS (SELECT s, v, MIN(lvl) AS d FROM bfs GROUP BY s, v)
SELECT v AS entity, CAST(SUM(1000000 // d) AS BIGINT) AS h_micro
FROM dist WHERE d > 0 GROUP BY v
"""


ORACLE_KG_HARMONIC = _harmonic_oracle()


@query("kg_harmonic", oracle=ORACLE_KG_HARMONIC)
def q_kg_harmonic(sf_dir: str, n_seeds: int = 3, rounds: int = 3,
                  checkpoint_dir: "str | None" = None):
    """Harmonic centrality contribution from the ``n_seeds``
    highest-out-degree entities: h(v) = sum over seeds s of 1/d(s, v)
    (d <= ``rounds``), in exact integer micro-units (1000000 // d).
    The sampled-seeds formulation is the standard scale approximation
    (full harmonic is all-pairs); seeds are deterministic (degree desc,
    id asc).

    Shape: multi-source BFS — the frontier Dataset carries (seed,
    entity) pairs, each round is one hash join frontier x edges plus an
    anti join against the visited set on a packed (seed, entity) key.
    Everything stays a Dataset; per-round materialize pins only the
    (new) frontier, never the edge list twice."""
    from ray.data.aggregate import Sum

    import ray.data as rdn

    from odinson_ray.stages.graph import _iter_partitions

    edges = _kg_directed_edges(sf_dir).materialize()
    parts = _iter_partitions(edges.count())
    seed_vals = _kg_seeds(edges, n_seeds)

    SEP = "\x1f"

    def pack(t: pa.Table) -> pa.Table:
        k = pc.binary_join_element_wise(t["seed"], t["entity"], SEP)
        return t.append_column("_k", k)

    visited = rdn.from_arrow(pa.table({
        "seed": pa.array(seed_vals, pa.string()),
        "entity": pa.array(seed_vals, pa.string()),
        "level": pa.array([0] * len(seed_vals), pa.int64()),
    })).materialize()
    frontier = visited

    for r in range(1, rounds + 1):
        nxt = hash_join(
            frontier.map_batches(lambda t: t.select(["seed", "entity"]),
                                 batch_format="pyarrow"),
            edges, on="entity", right_on="src", partitions=parts)

        def distinct_pair(t: pa.Table) -> pa.Table:
            return pa.table({"seed": t["seed"], "entity": t["dst"]})

        nxt = combine_aggregate(
            nxt.map_batches(distinct_pair, batch_format="pyarrow"),
            ["seed", "entity"], []).map_batches(pack, batch_format="pyarrow")
        vis_k = visited.map_batches(
            lambda t: pack(t).select(["_k"]), batch_format="pyarrow")
        new = hash_join(nxt, vis_k, on="_k", how="anti",
                        partitions=parts)
        lvl = r
        new = new.map_batches(
            lambda t, lvl=lvl: pa.table({
                "seed": t["seed"], "entity": t["entity"],
                "level": pa.array(np.full(t.num_rows, lvl), pa.int64()),
            }),
            batch_format="pyarrow")
        new = pin(new, f"frontier_{r}", checkpoint_dir)
        if new.count() == 0:
            break
        visited = pin(visited.union(new), f"visited_{r}", checkpoint_dir)
        frontier = new

    def contrib(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t["level"], 0))
        lv = t["level"].to_numpy(zero_copy_only=False)
        return pa.table({
            "entity": t["entity"],
            "h": pa.array(1_000_000 // lv, pa.int64()),
        })

    return (visited.map_batches(contrib, batch_format="pyarrow")
            .groupby("entity").aggregate(Sum("h", alias_name="h_micro")))


# ===================================== stress centrality (path-through)
def _pack_pair(t: pa.Table, a: str = "seed", b: str = "entity",
               out: str = "_k") -> pa.Table:
    k = pc.binary_join_element_wise(t[a], t[b], "\x1f")
    return t.append_column(out, k)


def _stress_oracle(n_seeds: int = 3) -> str:
    """Unrolled 3-level Brandes forward/backward over the min-distance
    DAG; every aggregate is an integer count."""
    return f"""
WITH RECURSIVE trip AS ({_KG_TRIPLES_BODY}),
edges AS (SELECT DISTINCT subj_canon AS src, obj_canon AS dst FROM trip),
deg AS (SELECT src, count(*) AS d FROM edges GROUP BY src),
seeds AS (SELECT src FROM deg ORDER BY d DESC, src LIMIT {n_seeds}),
bfs(s, v, lvl) AS (
  SELECT src, src, 0 FROM seeds
  UNION ALL
  SELECT b.s, e.dst, b.lvl + 1 FROM bfs b JOIN edges e ON e.src = b.v
  WHERE b.lvl < 3
),
dist AS (SELECT s, v, MIN(lvl) AS d FROM bfs GROUP BY s, v),
sig0 AS (SELECT s, v, 1 AS sig FROM dist WHERE d = 0),
sig1 AS (
  SELECT d1.s, d1.v, SUM(sig0.sig) AS sig
  FROM sig0 JOIN edges e ON e.src = sig0.v
  JOIN dist d1 ON d1.s = sig0.s AND d1.v = e.dst AND d1.d = 1
  GROUP BY d1.s, d1.v),
sig2 AS (
  SELECT d2.s, d2.v, SUM(sig1.sig) AS sig
  FROM sig1 JOIN edges e ON e.src = sig1.v
  JOIN dist d2 ON d2.s = sig1.s AND d2.v = e.dst AND d2.d = 2
  GROUP BY d2.s, d2.v),
sig3 AS (
  SELECT d3.s, d3.v, SUM(sig2.sig) AS sig
  FROM sig2 JOIN edges e ON e.src = sig2.v
  JOIN dist d3 ON d3.s = sig2.s AND d3.v = e.dst AND d3.d = 3
  GROUP BY d3.s, d3.v),
g3 AS (SELECT s, v, 0 AS g FROM dist WHERE d = 3),
g2 AS (
  SELECT d2.s, d2.v,
         COALESCE(SUM(CASE WHEN g3.v IS NULL THEN NULL
                           ELSE 1 + g3.g END), 0) AS g
  FROM dist d2
  LEFT JOIN edges e ON e.src = d2.v
  LEFT JOIN g3 ON g3.s = d2.s AND g3.v = e.dst
  WHERE d2.d = 2 GROUP BY d2.s, d2.v),
g1 AS (
  SELECT d1.s, d1.v,
         COALESCE(SUM(CASE WHEN g2.v IS NULL THEN NULL
                           ELSE 1 + g2.g END), 0) AS g
  FROM dist d1
  LEFT JOIN edges e ON e.src = d1.v
  LEFT JOIN g2 ON g2.s = d1.s AND g2.v = e.dst
  WHERE d1.d = 1 GROUP BY d1.s, d1.v),
sig AS (SELECT * FROM sig1 UNION ALL SELECT * FROM sig2
        UNION ALL SELECT * FROM sig3),
g AS (SELECT * FROM g1 UNION ALL SELECT * FROM g2
      UNION ALL SELECT * FROM g3)
SELECT sig.v AS entity,
       CAST(SUM(sig.sig * g.g) AS BIGINT) AS through_paths
FROM sig JOIN g ON g.s = sig.s AND g.v = sig.v
GROUP BY sig.v
"""


ORACLE_KG_STRESS_PATHS = _stress_oracle()


@query("kg_stress_paths", oracle=ORACLE_KG_STRESS_PATHS)
def q_kg_stress_paths(sf_dir: str, n_seeds: int = 3, rounds: int = 3,
                      checkpoint_dir: "str | None" = None):
    """Stress-centrality contribution from the ``n_seeds`` top-out-degree
    entities: for each vertex v, the NUMBER of shortest paths from a
    seed that pass THROUGH v (Brandes' sigma forward sweep + the
    reverse continuation count g(v) = sum over shortest-path-DAG
    successors w of (1 + g(w)); through(v) = sigma(v) * g(v)). Unlike
    betweenness' fractional pair-dependencies, every quantity here is
    an INTEGER, so the distributed sums are order-independent and the
    DuckDB oracle hash-exact. Horizon = ``rounds`` (the sampled-seed +
    bounded-radius formulation is the standard scale approximation).

    Shape: one BFS whose frontier CARRIES sigma (the per-round
    anti-join against the visited set is what restricts sigma to
    shortest-path-DAG edges), then one reverse sweep per level — each
    round is hash joins + a (seed, vertex) groupby-sum; everything
    stays a Dataset, only per-round frontiers are pinned."""
    from ray.data.aggregate import Sum

    import ray.data as rdn

    from odinson_ray.stages.graph import _iter_partitions

    edges = _kg_directed_edges(sf_dir).materialize()
    parts = _iter_partitions(edges.count())
    seed_vals = _kg_seeds(edges, n_seeds)

    lvl0 = rdn.from_arrow(pa.table({
        "seed": pa.array(seed_vals, pa.string()),
        "entity": pa.array(seed_vals, pa.string()),
        "sig": pa.array([1] * len(seed_vals), pa.int64()),
    })).materialize()
    sig_levels = [lvl0]          # sig_levels[r]: (seed, entity, sig)
    visited = lvl0.map_batches(
        lambda t: _pack_pair(t).select(["_k"]), batch_format="pyarrow"
    ).materialize()

    for r in range(1, rounds + 1):
        expanded = hash_join(
            sig_levels[r - 1].map_batches(
                lambda t: t.select(["seed", "entity", "sig"]),
                batch_format="pyarrow"),
            edges, on="entity", right_on="src", partitions=parts)

        def sum_project(t: pa.Table) -> pa.Table:
            return pa.table({"seed": t["seed"], "entity": t["dst"],
                             "sig": t["sig"]})

        sums = combine_aggregate(
            expanded.map_batches(sum_project, batch_format="pyarrow"),
            ["seed", "entity"], [("sig", "sig", "sum")]
        ).map_batches(_pack_pair, batch_format="pyarrow")
        new = pin(hash_join(sums, visited, on="_k", how="anti",
                            partitions=parts).map_batches(
            lambda t: t.select(["seed", "entity", "sig"]),
            batch_format="pyarrow"), f"sig_{r}", checkpoint_dir)
        if new.count() == 0:
            break
        sig_levels.append(new)
        visited = pin(visited.union(new.map_batches(
            lambda t: _pack_pair(t).select(["_k"]),
            batch_format="pyarrow")), f"svisited_{r}", checkpoint_dir)

    deepest = len(sig_levels) - 1
    # reverse continuation counts g[r]; deepest level has no in-horizon
    # successors by construction
    g_levels = {deepest: pin(sig_levels[deepest].map_batches(
        lambda t: pa.table({
            "seed": t["seed"], "entity": t["entity"],
            "g": pa.array(np.zeros(t.num_rows, np.int64), pa.int64()),
        }), batch_format="pyarrow"), f"g_{deepest}", checkpoint_dir)}
    for r in range(deepest - 1, -1, -1):
        cand = hash_join(
            sig_levels[r].map_batches(
                lambda t: t.select(["seed", "entity"]),
                batch_format="pyarrow"),
            edges, on="entity", right_on="src", partitions=parts)
        # keep only DAG edges: dst must live at level r+1 for this seed
        cand = cand.map_batches(
            lambda t: _pack_pair(t, "seed", "dst"), batch_format="pyarrow")
        g_next = g_levels[r + 1].map_batches(
            lambda t: _pack_pair(t).select(["_k", "g"]),
            batch_format="pyarrow")
        contrib = hash_join(cand, g_next, on="_k", partitions=parts)

        def g_project(t: pa.Table) -> pa.Table:
            return pa.table({
                "seed": t["seed"], "entity": t["entity"],
                "c": pc.add(t["g"], 1).cast(pa.int64()),
            })

        gr = combine_aggregate(
            contrib.map_batches(g_project, batch_format="pyarrow"),
            ["seed", "entity"], [("g", "c", "sum")]
        ).map_batches(_pack_pair, batch_format="pyarrow")
        # vertices at level r with no DAG successor: g = 0
        zeros = hash_join(
            sig_levels[r].map_batches(_pack_pair, batch_format="pyarrow"),
            gr.map_batches(lambda t: t.select(["_k"]),
                           batch_format="pyarrow"),
            on="_k", how="anti", partitions=parts).map_batches(
            lambda t: pa.table({
                "seed": t["seed"], "entity": t["entity"],
                "g": pa.array(np.zeros(t.num_rows, np.int64), pa.int64()),
            }), batch_format="pyarrow")
        g_levels[r] = pin(gr.map_batches(
            lambda t: t.select(["seed", "entity", "g"]),
            batch_format="pyarrow").union(zeros), f"g_{r}", checkpoint_dir)

    # through(v) = sum over seeds of sig * g, interior vertices only
    out_parts = []
    for r in range(1, deepest + 1):
        sig_k = sig_levels[r].map_batches(
            lambda t: _pack_pair(t).select(["_k", "sig"]),
            batch_format="pyarrow")
        g_k = g_levels[r].map_batches(
            lambda t: _pack_pair(t).select(["_k", "g", "entity"]),
            batch_format="pyarrow")
        out_parts.append(hash_join(g_k, sig_k, on="_k",
                                   partitions=parts).map_batches(
            lambda t: pa.table({
                "entity": t["entity"],
                "tp": pc.multiply(t["sig"], t["g"]).cast(pa.int64()),
            }), batch_format="pyarrow"))
    if not out_parts:
        return rdn.from_arrow(pa.table({
            "entity": pa.array([], pa.string()),
            "through_paths": pa.array([], pa.int64())}))
    out = out_parts[0]
    for p in out_parts[1:]:
        out = out.union(p)
    return out.groupby("entity").aggregate(
        Sum("tp", alias_name="through_paths"))


# ===================================== shortest-path tree (reconstruction)


def _sp_tree_oracle(rounds: int = 3) -> str:
    return f"""
WITH RECURSIVE trip AS ({_KG_TRIPLES_BODY}),
edges AS (SELECT DISTINCT subj_canon AS src, obj_canon AS dst FROM trip),
deg AS (SELECT src, count(*) AS d FROM edges GROUP BY src),
seed AS (SELECT src FROM deg ORDER BY d DESC, src LIMIT 1),
bfs(v, lvl) AS (
  SELECT src, 0 FROM seed
  UNION ALL
  SELECT e.dst, b.lvl + 1 FROM bfs b JOIN edges e ON e.src = b.v
  WHERE b.lvl < {rounds}
),
dist AS (SELECT v, MIN(lvl) AS d FROM bfs GROUP BY v)
SELECT d2.v AS entity, CAST(d2.d AS BIGINT) AS level,
       MIN(e.src) AS parent
FROM dist d2
JOIN edges e ON e.dst = d2.v
JOIN dist d1 ON d1.v = e.src AND d1.d = d2.d - 1
WHERE d2.d > 0
GROUP BY d2.v, d2.d
ORDER BY level, entity
"""


ORACLE_KG_SP_TREE = _sp_tree_oracle()


@query("kg_sp_tree", oracle=ORACLE_KG_SP_TREE)
def q_kg_sp_tree(sf_dir: str, rounds: int = 3):
    """The BFS shortest-path TREE from the top-out-degree seed: for
    every entity within ``rounds``, its min level plus the
    lexicographically smallest predecessor on a shortest path —
    the parent-pointer table that makes path reconstruction a
    ≤``rounds``-step walk (the provenance answer to "WHY is this
    entity connected to the seed"). Deterministic: min level via the
    visited anti-join, min parent via a groupby Min.

    Shape: the kg_bfs frontier expansion, plus one parent resolution
    per level — a frontier x edges hash join semi-filtered to the next
    level, folded by a (dst -> min src) groupby. Integer/string only."""
    from ray.data.aggregate import Min

    import ray.data as rdn

    from odinson_ray.stages.graph import _iter_partitions

    edges = _kg_directed_edges(sf_dir).materialize()
    parts = _iter_partitions(edges.count())
    seed = _kg_seeds(edges)[0]

    level_ds = {0: rdn.from_arrow(pa.table({
        "entity": pa.array([seed], pa.string())})).materialize()}
    visited = level_ds[0].materialize()
    tree_parts = []
    for r in range(1, rounds + 1):
        exp = hash_join(level_ds[r - 1], edges, on="entity",
                        right_on="src", partitions=parts)

        nxt = combine_aggregate(
            exp.map_batches(lambda t: pa.table({"entity": t["dst"]}),
                            batch_format="pyarrow"), "entity", [])
        new = hash_join(nxt, visited, on="entity", how="anti",
                        partitions=parts).materialize()
        if new.count() == 0:
            break
        # parent = min predecessor at level r-1 among edges into the
        # NEW frontier
        preds = hash_join(
            exp.map_batches(lambda t: pa.table(
                {"entity": t["dst"], "parent": t["entity"]}),
                batch_format="pyarrow"),
            new, on="entity", how="semi", partitions=parts)
        lvl = r
        tree_parts.append(
            preds.groupby("entity").aggregate(Min("parent",
                                                  alias_name="parent"))
            .map_batches(lambda t, lvl=lvl: pa.table({
                "entity": t["entity"],
                "level": pa.array(np.full(t.num_rows, lvl), pa.int64()),
                "parent": t["parent"],
            }), batch_format="pyarrow"))
        level_ds[r] = new
        visited = visited.union(new).materialize()

    if not tree_parts:
        return pa.table({"entity": pa.array([], pa.string()),
                         "level": pa.array([], pa.int64()),
                         "parent": pa.array([], pa.string())})
    out = tree_parts[0]
    for p in tree_parts[1:]:
        out = out.union(p)
    return out.sort(["level", "entity"])


# ===================================== KG refresh delta report


ORACLE_KG_DELTA_REPORT = f"""
WITH toks AS (
  SELECT doc_id AS did,
         unnest(string_split(text, ' ')) AS tok,
         unnest(generate_series(1, len(string_split(text, ' ')))) AS p
  FROM documents
),
postoks AS (
  SELECT did, tok, p, CAST(((p - 1) % 20) AS INT) AS l
  FROM toks
),
raw AS (
  SELECT a.did % 2 AS half, b.tok AS subj, a.tok AS pred, c.tok AS obj
  FROM postoks a JOIN postoks b ON b.did = a.did AND b.p = a.p + 1
                 JOIN postoks c ON c.did = a.did AND c.p = a.p + 2
  WHERE a.l % 5 = 0
    AND a.tok IN ('scan', 'join', 'sort', 'merge', 'filter', 'group')
),
canon AS (
  SELECT half,
         'ent:' || {_CANON_SQL.format(c='subj')} AS subj_canon,
         pred,
         'ent:' || {_CANON_SQL.format(c='obj')} AS obj_canon
  FROM raw
),
agg AS (
  SELECT subj_canon, pred, obj_canon,
         CAST(SUM(CASE WHEN half = 0 THEN 1 ELSE 0 END) AS BIGINT)
           AS n_old,
         CAST(SUM(CASE WHEN half = 1 THEN 1 ELSE 0 END) AS BIGINT)
           AS n_new
  FROM canon GROUP BY 1, 2, 3
)
SELECT subj_canon, pred, obj_canon, n_old, n_new,
       CASE WHEN n_old = 0 THEN 'added'
            WHEN n_new = 0 THEN 'removed'
            ELSE 'changed' END AS status
FROM agg WHERE n_old <> n_new
ORDER BY subj_canon, pred, obj_canon
"""


@query("kg_delta_report", oracle=ORACLE_KG_DELTA_REPORT)
def q_kg_delta_report(sf_dir: str):
    """The KG-lifecycle question: what changed between two corpus
    snapshots? Documents are split into OLD/NEW halves (doc parity — a
    pure function, the incremental-checkpoint fixture convention) and
    every canonical triple is classified added / removed / changed by
    its per-half support counts; stable triples are excluded.

    Shape: ONE pass over the doc-granular triples — a per-batch
    (triple-key, n_old, n_new) combiner, one triple groupby, a
    vectorized classify. Support counts are integers; nothing float
    ever decides a status."""

    from ..kg import triples_dataset

    SEP = "\x1f"

    trips = triples_dataset(sf_dir, aggregate=False)

    def partial(t: pa.Table) -> pa.Table:
        did = pc.cast(pc.utf8_slice_codeunits(t["doc_id"], 4, 99),
                      pa.int64())
        is_new = pc.equal(pc.bit_wise_and(did, 1), 1)
        tk = pc.binary_join_element_wise(
            t["subj_canon"], t["pred"], t["obj_canon"], SEP)
        return pa.table({
            "tk": tk,
            "o": pc.cast(pc.invert(is_new), pa.int64()),
            "n": pc.cast(is_new, pa.int64()),
        })

    agg = combine_aggregate(trips.map_batches(partial, batch_format="pyarrow"),
                            "tk",
                            [("n_old", "o", "sum"), ("n_new", "n", "sum")])

    def classify(t: pa.Table) -> pa.Table:
        t = t.filter(pc.not_equal(t["n_old"], t["n_new"]))
        parts = pc.split_pattern(t["tk"], SEP)
        status = pc.if_else(
            pc.equal(t["n_old"], 0), "added",
            pc.if_else(pc.equal(t["n_new"], 0), "removed", "changed"))
        return pa.table({
            "subj_canon": pc.list_element(parts, 0),
            "pred": pc.list_element(parts, 1),
            "obj_canon": pc.list_element(parts, 2),
            "n_old": t["n_old"].cast(pa.int64()),
            "n_new": t["n_new"].cast(pa.int64()),
            "status": status,
        })

    return (agg.map_batches(classify, batch_format="pyarrow")
            .sort(["subj_canon", "pred", "obj_canon"]))


# ===================================== edge reciprocity


ORACLE_KG_RECIPROCITY = f"""
WITH trip AS ({_KG_TRIPLES_BODY}),
edges AS (SELECT DISTINCT subj_canon AS src, obj_canon AS dst FROM trip),
r AS (
  SELECT COUNT(*) AS n_recip FROM edges e
  WHERE EXISTS (SELECT 1 FROM edges b
                WHERE b.src = e.dst AND b.dst = e.src)
),
t AS (SELECT COUNT(*) AS n_edges FROM edges)
SELECT CAST(t.n_edges AS BIGINT) AS n_edges,
       CAST(r.n_recip AS BIGINT) AS n_reciprocal,
       round(r.n_recip * 1.0 / t.n_edges, 6) AS reciprocity
FROM t, r
"""


@query("kg_reciprocity", oracle=ORACLE_KG_RECIPROCITY)
def q_kg_reciprocity(sf_dir: str):
    """Reciprocity of the KG edge set: the fraction of distinct directed
    edges (u, v) whose reverse (v, u) also exists — a one-line health
    metric for relation directionality. One distributed semi join of
    the edge set against its own packed reverse keys; counts are
    integers, the ratio is one division."""
    edges = _kg_directed_edges(sf_dir).materialize()
    n_edges = edges.count()

    SEP = "\x1f"

    def fwd_key(t: pa.Table) -> pa.Table:
        return pa.table({"_k": pc.binary_join_element_wise(
            t["src"], t["dst"], SEP)})

    def rev_key(t: pa.Table) -> pa.Table:
        return pa.table({"_k": pc.binary_join_element_wise(
            t["dst"], t["src"], SEP)})

    recip = hash_join(
        edges.map_batches(fwd_key, batch_format="pyarrow"),
        edges.map_batches(rev_key, batch_format="pyarrow"),
        on="_k", how="semi")
    n_recip = recip.count()
    return pa.table({
        "n_edges": pa.array([n_edges], pa.int64()),
        "n_reciprocal": pa.array([n_recip], pa.int64()),
        "reciprocity": pa.array([round(n_recip / n_edges, 6)]
                                if n_edges else [0.0], pa.float64()),
    })


# ===================================== degree assortativity


ORACLE_KG_ASSORTATIVITY = f"""
WITH trip AS ({_KG_TRIPLES_BODY}),
edges AS (SELECT DISTINCT subj_canon AS src, obj_canon AS dst FROM trip),
deg AS (
  SELECT entity, CAST(COUNT(*) AS BIGINT) AS d FROM (
    SELECT src AS entity FROM edges
    UNION ALL SELECT dst AS entity FROM edges
  ) GROUP BY entity
),
j AS (
  SELECT ds.d AS dx, dd.d AS dy
  FROM edges e JOIN deg ds ON ds.entity = e.src
               JOIN deg dd ON dd.entity = e.dst
),
agg AS (
  SELECT COUNT(*) AS n, SUM(dx) AS sx, SUM(dy) AS sy,
         SUM(dx * dx) AS sxx, SUM(dy * dy) AS syy,
         SUM(dx * dy) AS sxy
  FROM j
)
SELECT CAST(n AS BIGINT) AS n_edges,
       round((n * sxy - sx * sy) /
             (sqrt(n * sxx - sx * sx) * sqrt(n * syy - sy * sy)), 6)
         AS assortativity
FROM agg
"""


@query("kg_assortativity", oracle=ORACLE_KG_ASSORTATIVITY)
def q_kg_assortativity(sf_dir: str):
    """Degree assortativity of the KG: the Pearson correlation between
    the TOTAL degrees of the two endpoints across distinct directed
    edges — do hubs link to hubs? All six sufficient statistics are
    int64 sums of integer degrees (bounded at the bench scales; a
    10^12-edge deployment would carry them as the gini-style decimal
    strings), and the final expression is the identical IEEE formula
    the oracle evaluates, so the result is hash-exact.

    Shape: one degree groupby (union of endpoint mentions), two
    ``broadcast_or_join`` calls to attach deg(src)/deg(dst) to each edge, one
    sufficient-stats combiner."""
    from odinson_ray.stages.shuffle import broadcast_or_join

    edges = _kg_directed_edges(sf_dir).materialize()
    deg = combine_aggregate(
        edges.map_batches(_endpoints, batch_format="pyarrow"),
        "v", [("d", None, "count_all")]).materialize()

    s_schema = pa.schema([("src", pa.string()), ("dst", pa.string())])
    d_schema = pa.schema([("v", pa.string()), ("d", pa.int64())])
    with_src = broadcast_or_join(
        edges, deg, on="src", right_on="v",
        left_schema=s_schema, right_schema=d_schema)
    with_both = broadcast_or_join(
        with_src.map_batches(
            lambda t: pa.table({"dst": t["dst"], "dx": t["d"]}),
            batch_format="pyarrow"),
        deg, on="dst", right_on="v",
        left_schema=pa.schema([("dst", pa.string()), ("dx", pa.int64())]),
        right_schema=d_schema)

    def stats(t: pa.Table) -> pa.Table:
        x = t["dx"].to_numpy(zero_copy_only=False).astype(np.int64)
        y = t["d"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "n": pa.array([len(x)], pa.int64()),
            "sx": pa.array([int(x.sum())], pa.int64()),
            "sy": pa.array([int(y.sum())], pa.int64()),
            "sxx": pa.array([int((x * x).sum())], pa.int64()),
            "syy": pa.array([int((y * y).sum())], pa.int64()),
            "sxy": pa.array([int((x * y).sum())], pa.int64()),
        })

    parts = with_both.map_batches(stats, batch_format="pyarrow").take_all()
    n = sum(r["n"] for r in parts)
    sx = sum(r["sx"] for r in parts)
    sy = sum(r["sy"] for r in parts)
    sxx = sum(r["sxx"] for r in parts)
    syy = sum(r["syy"] for r in parts)
    sxy = sum(r["sxy"] for r in parts)
    num = n * sxy - sx * sy
    den = ((n * sxx - sx * sx) ** 0.5) * ((n * syy - sy * sy) ** 0.5)
    r = round(num / den, 6) if den else 0.0
    return pa.table({
        "n_edges": pa.array([n], pa.int64()),
        "assortativity": pa.array([r], pa.float64()),
    })


# ======================= conjunctive BGP star query over the triple KG
_BGP_P1 = "scan"


_BGP_P2 = "join"


ORACLE_KG_BGP_QUERY = f"""
WITH trip AS ({_KG_TRIPLES_BODY}),
spo AS (SELECT DISTINCT pred, subj_canon AS s, obj_canon AS o FROM trip),
a AS (SELECT s, COUNT(*) AS n, MIN(o) AS w FROM spo
      WHERE pred = '{_BGP_P1}' GROUP BY s),
b AS (SELECT s, COUNT(*) AS n, MIN(o) AS w FROM spo
      WHERE pred = '{_BGP_P2}' GROUP BY s)
SELECT a.s AS subj,
       CAST(a.n AS BIGINT) AS n_p1, CAST(b.n AS BIGINT) AS n_p2,
       CAST(a.n * b.n AS BIGINT) AS n_bindings,
       a.w AS w_p1, b.w AS w_p2
FROM a JOIN b ON a.s = b.s
ORDER BY subj
"""


@query("kg_bgp_query", oracle=ORACLE_KG_BGP_QUERY)
def q_kg_bgp_query(sf_dir: str):
    """Answer the star BGP ``?x scan ?y . ?x join ?z``
    (_BGP_P1/_BGP_P2): every subject with at least one edge of EACH
    predicate, its per-arm match counts, the total binding count
    n_scan x n_join, and the lexicographically first witness object
    per arm.

    Shape: the shared distinct-(pred, s, o) front end is filtered to
    the two pattern predicates at the batch level; a per-batch combiner
    collapses to one (s, n_p1, n_p2, w_p1, w_p2) partial row per
    subject per batch; ONE groupby(s) (Sum/Sum/Min/Min) finishes — no
    join, no binding materialization, nothing per-subject beyond the
    aggregate row."""

    spo = _kg_distinct_spo(sf_dir)

    def project(t: pa.Table) -> pa.Table:
        if t.schema.metadata:
            t = t.replace_schema_metadata(None)
        t = t.filter(pc.is_in(t["pred"],
                              value_set=pa.array([_BGP_P1, _BGP_P2])))
        is1 = pc.equal(t["pred"], _BGP_P1)
        one = pa.scalar(1, pa.int64())
        zero = pa.scalar(0, pa.int64())
        return pa.table({
            "s": t["s"],
            "n_p1": pc.if_else(is1, one, zero),
            "n_p2": pc.if_else(is1, zero, one),
            "w_p1": pc.if_else(is1, t["o"], pa.scalar(None, pa.string())),
            "w_p2": pc.if_else(is1, pa.scalar(None, pa.string()), t["o"]),
        })

    agg = combine_aggregate(spo.map_batches(project, batch_format="pyarrow"),
                            "s",
                            [("n_p1", "n_p1", "sum"), ("n_p2", "n_p2", "sum"),
                             ("w_p1", "w_p1", "min"), ("w_p2", "w_p2", "min")])

    def finish(t: pa.Table) -> pa.Table:
        if t.schema.metadata:
            t = t.replace_schema_metadata(None)
        n1 = pc.cast(t["n_p1"], pa.int64())
        n2 = pc.cast(t["n_p2"], pa.int64())
        t = pa.table({
            "subj": t["s"], "n_p1": n1, "n_p2": n2,
            "n_bindings": pc.multiply(n1, n2),
            "w_p1": t["w_p1"], "w_p2": t["w_p2"],
        })
        return t.filter(pc.and_(pc.greater(t["n_p1"], 0),
                                pc.greater(t["n_p2"], 0)))

    return agg.map_batches(finish, batch_format="pyarrow").sort("subj")


_REACH_MAX_ROUNDS = 20


ORACLE_KG_REACH_COUNTS = f"""
WITH RECURSIVE trip AS ({_KG_TRIPLES_BODY}),
edges AS (SELECT DISTINCT subj_canon AS src, obj_canon AS dst FROM trip),
reach(src, v) AS (
  SELECT src, dst FROM edges
  UNION
  SELECT r.src, e.dst FROM reach r JOIN edges e ON e.src = r.v
)
SELECT src AS entity, count(*) AS n_reach FROM reach GROUP BY src
"""


@query("kg_reach_counts", oracle=ORACLE_KG_REACH_COUNTS)
def q_kg_reach_counts(sf_dir: str):
    """Per-entity reachability-set size (transitive closure row counts)
    over the canonical directed triple graph, via PATH DOUBLING:
    R <- distinct(R ∪ R∘E) iterated to fixpoint — O(log diameter) hash
    joins, each shuffling only the current closure relation. Intended
    for the bounded relation subgraphs a KG actually closes over
    (ontology/subclass arms); the closure itself can be O(n^2) rows on
    a dense graph, which is output size, not algorithm shape. A node
    reaches itself only through a real cycle (paths of length >= 1),
    matching the recursive-CTE oracle."""
    from ray.data.aggregate import Count

    from odinson_ray.stages.graph import transitive_closure

    R = transitive_closure(_kg_directed_edges(sf_dir).materialize(),
                           max_rounds=_REACH_MAX_ROUNDS)
    counts = R.groupby("src").aggregate(Count(alias_name="n_reach"))
    return counts.map_batches(
        lambda t: pa.table({"entity": t["src"], "n_reach": t["n_reach"]}),
        batch_format="pyarrow")


ORACLE_KG_BOWTIE = f"""
WITH RECURSIVE trip AS ({_KG_TRIPLES_BODY}),
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
),
ents AS (SELECT DISTINCT v FROM
  (SELECT src AS v FROM edges UNION ALL SELECT dst AS v FROM edges))
SELECT v AS entity,
       CASE WHEN v IN (SELECT v FROM fw) AND v IN (SELECT v FROM bw)
              THEN 'SCC'
            WHEN v IN (SELECT v FROM bw) THEN 'IN'
            WHEN v IN (SELECT v FROM fw) THEN 'OUT'
            ELSE 'OTHER' END AS part
FROM ents
"""


@query("kg_bowtie", oracle=ORACLE_KG_BOWTIE)
def q_kg_bowtie(sf_dir: str, max_rounds: int = 50):
    """Bow-tie decomposition of the canonical triple graph around the
    seed entity's strongly-connected component (Broder et al. 2000's
    web-graph anatomy): SCC = forward ∩ backward reach of the seed
    (max-out-degree, ties lexicographic — the shared kg seed rule),
    IN = backward-only (reaches the SCC), OUT = forward-only (reached
    from it), OTHER = the rest. Shape: two BFS fixpoints
    (stages/graph.reach_fixpoint, the Fleischer-Hendrickson-Pinar
    building block shared with kg_scc_seed) + semi/anti hash joins —
    nothing beyond vertex sets ever materializes."""
    from odinson_ray.stages.graph import bowtie_parts

    edges = _kg_directed_edges(sf_dir).materialize()
    return bowtie_parts(edges, _kg_seeds(edges)[0], max_rounds=max_rounds)


ORACLE_KG_SCC = f"""
WITH RECURSIVE trip AS ({_KG_TRIPLES_BODY}),
edges AS (SELECT DISTINCT subj_canon AS src, obj_canon AS dst FROM trip),
reach(src, v) AS (
  SELECT src, dst FROM edges
  UNION
  SELECT r.src, e.dst FROM reach r JOIN edges e ON e.src = r.v
),
ents AS (SELECT DISTINCT v FROM
  (SELECT src AS v FROM edges UNION ALL SELECT dst AS v FROM edges)),
mutual AS (
  SELECT a.src AS u, a.v AS w
  FROM reach a JOIN reach b ON a.src = b.v AND a.v = b.src
),
cand AS (
  SELECT v, v AS m FROM ents
  UNION ALL
  SELECT u AS v, w AS m FROM mutual
)
SELECT v AS entity, min(m) AS scc_id FROM cand GROUP BY v
"""


@query("kg_scc", oracle=ORACLE_KG_SCC)
def q_kg_scc(sf_dir: str):
    """FULL strongly-connected-component decomposition of the canonical
    triple graph (every entity -> the lexicographically smallest member
    of its SCC) via FW-BW-Trim (stages/graph.scc_decomposition: trim
    peels degree-deficient singleton SCCs, pivot rounds compute
    forward ∩ backward reach). Completes kg_scc_seed (one component) to
    the whole decomposition. Oracle: mutual-reachability pairs from the
    recursive transitive closure, min over each vertex's mutual set."""
    from odinson_ray.stages.graph import scc_decomposition

    return scc_decomposition(_kg_directed_edges(sf_dir).materialize())
