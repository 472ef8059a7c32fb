"""Round-5 batch 1.

- ``dup_passage_coverage``: per document, the token positions covered
  by 8-token spans that also occur in ANOTHER document (Lee et al.
  2022's substring-dedup step quantified per doc; the pairing side is
  ``shared_passages``). Only docs with >= 1 shared span appear.
- ``kg_reach_counts``: per-entity transitive-closure size over the
  canonical triple graph via PATH DOUBLING (log-diameter hash joins).
- ``cube_lineitem``: GROUP BY CUBE(returnflag, linestatus) — grouping
  sets derived from the distributed base cells.
- ``attribution_first_touch``: marketing-style first-touch attribution
  of purchase events within a 24 h lookback, (user, time-bucket)
  two-stage.

Registered by ``pipelines/queries.py``; each ``q_*`` takes ``sf_dir``;
oracle column names match exactly.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from odinson_ray.stages.shuffle import broadcast_or_join, combine_aggregate

_WINDOW = 8


def q_dup_passage_coverage(sf_dir: str):
    """Per-doc duplicated-passage coverage at window=8 (_WINDOW): docs
    owning a span shared with another doc, with covered-token count and
    fraction. Two single-key shuffles (window hash, then doc_id), both
    resolved by segmented coarse-partition kernels; a k-hot boilerplate
    window contributes k rows (linear), so no hot-window cap is
    needed on this path."""
    from odinson_ray.stages.dedup import dup_passage_coverage

    return dup_passage_coverage(sf_dir, window=_WINDOW)


ORACLE_DUP_PASSAGE_COVERAGE = """
WITH toks AS (SELECT doc_id, string_split(text, ' ') AS t FROM documents),
wins AS (
  SELECT doc_id, len(t) AS n, s, array_to_string(t[s:s+7], ' ') AS w
  FROM (SELECT doc_id, t, unnest(generate_series(1, len(t) - 7)) AS s
        FROM toks)
),
shared AS (SELECT w FROM wins GROUP BY w HAVING count(DISTINCT doc_id) >= 2),
flagged AS (SELECT doc_id, n, s FROM wins WHERE w IN (SELECT w FROM shared)),
cov AS (
  SELECT doc_id, any_value(n) AS n_tokens, count(DISTINCT p) AS dup_tokens
  FROM (SELECT doc_id, n, unnest(generate_series(s, s + 7)) AS p FROM flagged)
  GROUP BY doc_id
)
SELECT doc_id, n_tokens, dup_tokens,
       round(dup_tokens * 1.0 / n_tokens, 6) AS dup_frac
FROM cov
"""


_REACH_MAX_ROUNDS = 20


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

    from .queries4 import _kg_directed_edges

    R = transitive_closure(_kg_directed_edges(sf_dir),
                           max_rounds=_REACH_MAX_ROUNDS)
    counts = R.groupby("src").aggregate(Count(alias_name="n_reach"))
    return counts.map_batches(
        lambda t: pa.table({"entity": t["src"], "n_reach": t["n_reach"]}),
        batch_format="pyarrow")


def q_cube_lineitem(sf_dir: str):
    """GROUP BY CUBE(l_returnflag, l_linestatus) over sum(l_quantity):
    the distributed work is ONE base-cell aggregate (map-side combined
    by the per-batch Arrow groupby inside Ray's sort aggregate); the
    3 rollup grouping sets are derived from the base cells, which are
    bounded by the dimension domain (|flags| x |statuses| = 6 here) —
    the standard low-cardinality CUBE plan. Rolled-up dimensions carry
    the literal 'ALL' (both sides coalesce, avoiding NULL-equality
    ambiguity in the compare)."""
    from ..sources.io import clean_rd as rd

    ds = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
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


_ATTR_LOOKBACK_US = 86_400_000_000  # 24 h in timestamp[us] units
_ATTR_CONV_TYPE = "purchase"


def q_attribution_first_touch(sf_dir: str, parts: int = 256):
    """First-touch attribution: each purchase event attributes to the
    EARLIEST same-user event (ties: smallest event_id) with
    ts in [purchase_ts - 24 h, purchase_ts]. An isolated purchase
    attributes to itself (it is inside its own window).

    Shape: the (key, bucket) two-stage discipline (stages/window.py):
    bucket = floor(ts / lookback); every event is replicated to
    (b, b + 1), so a conversion in bucket c sees every candidate of its
    window inside ONE (user, c) group; conversions are processed only
    in their OWN bucket's group (the replica copy never re-emits).
    One hash(user) shuffle; per-partition segmented sort + one
    np.searchsorted per conversion run. Group size is bounded by
    events-per-user-per-2-lookbacks, independent of corpus length."""
    from ..sources.io import clean_rd as rd
    from odinson_ray.stages.sketch import _splitmix64

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
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
        out = out.append_column("_own", pa.array(np.repeat(b, 2) == grp,
                                                 pa.bool_()))
        u = out["user_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        p = (_splitmix64(u) % np.uint64(parts)).astype(np.int64)
        return out.append_column("_p", pa.array(p, pa.int64()))

    def resolve_partition(g: pa.Table) -> pa.Table:
        g = g.combine_chunks()
        empty = pa.table({
            "event_id": pa.array([], pa.int64()),
            "user_id": pa.array([], pa.int64()),
            "first_event_id": pa.array([], pa.int64()),
            "first_type": pa.array([], pa.string()),
        })
        if g.num_rows == 0:
            return empty
        o = pc.sort_indices(g, sort_keys=[("user_id", "ascending"),
                                          ("_grp", "ascending"),
                                          ("ts", "ascending"),
                                          ("event_id", "ascending")])
        g = g.take(o)
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

    return (ds.map_batches(replicate, batch_format="pyarrow")
            .groupby("_p")
            .map_groups(lambda g: resolve_partition(g.drop_columns(["_p"])),
                        batch_format="pyarrow"))


ORACLE_CUBE_LINEITEM = """
SELECT coalesce(l_returnflag, 'ALL') AS l_returnflag,
       coalesce(l_linestatus, 'ALL') AS l_linestatus,
       sum(l_quantity) AS sum_qty
FROM lineitem
GROUP BY CUBE (l_returnflag, l_linestatus)
ORDER BY 1, 2
"""

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

    from .queries4 import _kg_directed_edges, _kg_seed

    edges = _kg_directed_edges(sf_dir)
    return bowtie_parts(edges, _kg_seed(edges), max_rounds=max_rounds)


def _bowtie_oracle(body: str) -> str:
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


def q_kg_scc(sf_dir: str):
    """FULL strongly-connected-component decomposition of the canonical
    triple graph (every entity -> the lexicographically smallest member
    of its SCC) via FW-BW-Trim (stages/graph.scc_decomposition: trim
    peels degree-deficient singleton SCCs, pivot rounds compute
    forward ∩ backward reach). Completes kg_scc_seed (one component) to
    the whole decomposition. Oracle: mutual-reachability pairs from the
    recursive transitive closure, min over each vertex's mutual set."""
    from odinson_ray.stages.graph import scc_decomposition

    from .queries4 import _kg_directed_edges

    return scc_decomposition(_kg_directed_edges(sf_dir))


def _scc_full_oracle(body: str) -> str:
    return f"""
WITH RECURSIVE trip AS ({body}),
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


def q_compression_quality(sf_dir: str):
    """Per-document zlib compression ratio — the compressibility quality
    signal pre-training curation pipelines use to flag boilerplate /
    repetitive text (highly compressible => low information density).
    Zero shuffle: one map_batches; per-row zlib over utf-8 bytes is the
    feature extraction (bounded per row), everything around it columnar.
    No SQL oracle (DuckDB has no zlib) — pinned by a recompute twin
    pytest; rows-only driver check."""
    import zlib

    from ..sources.io import clean_rd as rd

    def f(t: pa.Table) -> pa.Table:
        texts = t["text"].to_pylist()
        raw = [len(x.encode("utf-8")) if x else 0 for x in texts]
        comp = [len(zlib.compress(x.encode("utf-8"), 6)) if x else 0
                for x in texts]
        ratio = [round(c / r, 6) if r else 0.0 for c, r in zip(comp, raw)]
        return pa.table({
            "doc_id": t["doc_id"],
            "raw_len": pa.array(raw, pa.int64()),
            "comp_len": pa.array(comp, pa.int64()),
            "comp_ratio": pa.array(ratio, pa.float64()),
        })

    return (rd.read_parquet(f"{sf_dir}/documents.parquet",
                            columns=["doc_id", "text"])
            .map_batches(f, batch_format="pyarrow"))


def _reach_oracle(body: str) -> str:
    return f"""
WITH RECURSIVE trip AS ({body}),
edges AS (SELECT DISTINCT subj_canon AS src, obj_canon AS dst FROM trip),
reach(src, v) AS (
  SELECT src, dst FROM edges
  UNION
  SELECT r.src, e.dst FROM reach r JOIN edges e ON e.src = r.v
)
SELECT src AS entity, count(*) AS n_reach FROM reach GROUP BY src
"""


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
    from ..sources.io import clean_rd as rd

    # one block per dimension read: a split read costs a task per block
    bad = rd.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_acctbal"],
        override_num_blocks=1,
    ).map_batches(lambda t: t.filter(pc.less(t["s_acctbal"], 0))
                  .select(["s_suppkey"]), batch_format="pyarrow")
    parts = rd.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand", "p_size"],
        override_num_blocks=1,
    ).map_batches(lambda t: t.filter(pc.not_equal(t["p_brand"], "Brand#13")),
                  batch_format="pyarrow")
    links = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
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


ORACLE_SUPPLIER_PART_COUNTS = """
SELECT p.p_brand, CAST(p.p_size AS BIGINT) AS p_size,
       CAST(count(DISTINCT l.l_suppkey) AS BIGINT) AS supplier_cnt
FROM (SELECT DISTINCT l_partkey, l_suppkey FROM lineitem) l
JOIN part p ON p.p_partkey = l.l_partkey
WHERE p.p_brand <> 'Brand#13'
  AND l.l_suppkey NOT IN (SELECT s_suppkey FROM supplier WHERE s_acctbal < 0)
GROUP BY 1, 2
"""


def register(queries: dict, oracles: dict, kg_triples_body: str) -> None:
    queries["dup_passage_coverage"] = q_dup_passage_coverage
    oracles["dup_passage_coverage"] = ORACLE_DUP_PASSAGE_COVERAGE
    queries["kg_reach_counts"] = q_kg_reach_counts
    oracles["kg_reach_counts"] = _reach_oracle(kg_triples_body)
    queries["cube_lineitem"] = q_cube_lineitem
    oracles["cube_lineitem"] = ORACLE_CUBE_LINEITEM
    queries["attribution_first_touch"] = q_attribution_first_touch
    oracles["attribution_first_touch"] = ORACLE_ATTRIBUTION
    queries["kg_bowtie"] = q_kg_bowtie
    oracles["kg_bowtie"] = _bowtie_oracle(kg_triples_body)
    queries["kg_scc"] = q_kg_scc
    oracles["kg_scc"] = _scc_full_oracle(kg_triples_body)
    queries["supplier_part_counts"] = q_supplier_part_counts
    oracles["supplier_part_counts"] = ORACLE_SUPPLIER_PART_COUNTS
    queries["compression_quality"] = q_compression_quality
    # no oracle for compression_quality BY DESIGN (no zlib in SQL);
    # pinned by the recompute-twin pytest
