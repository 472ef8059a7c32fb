"""Round-4 session-8 batch 2: the query-serving side of the KG and a
per-source lexical-diversity report.

- ``kg_bgp_query``: conjunctive basic-graph-pattern answering — the
  SPARQL-BGP star query ``?x scan ?y . ?x join ?z`` over the canonical
  triple graph. Bindings are COUNTED per subject (n_scan x n_join, the
  path_patterns outer-product discipline) with one MIN-object witness
  per arm instead of materializing the per-subject binding cross
  product — the deg^2 trap a naive BGP join walks into on hub subjects.
- ``vocab_hapax``: per-source token occurrences, distinct types, hapax
  count (types seen exactly once within the source) and type/token
  ratio in basis points — the lexical-diversity corpus-health row a
  data card reports per slice (Heaps'-law numerator; complements the
  GLOBAL vocab of corpus_stats and doc_frequency).

Registered by ``pipelines/queries.py``; each ``q_*`` takes ``sf_dir``;
oracle column names match exactly.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from odinson_ray.stages.shuffle import combine_aggregate


def _rd():
    from ..sources.io import clean_rd

    return clean_rd


# ======================= conjunctive BGP star query over the triple KG

_BGP_P1 = "scan"
_BGP_P2 = "join"


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
    from .queries5 import _kg_distinct_spo

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


def _oracle_kg_bgp(kg_body: str) -> str:
    return f"""
WITH trip AS ({kg_body}),
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


# ========================= per-source lexical diversity (types / hapax)

def q_vocab_hapax(sf_dir: str):
    """Per-source lexical-diversity report: token occurrences, distinct
    types, hapax count (types with within-source frequency exactly 1)
    and the type/token ratio in basis points (integer-exact:
    floor(types * 10000 / tokens)).

    Shape: per-batch (source, token) count combiner -> ONE global
    groupby over (source, token) -> per-(source, token) rows fold into
    per-source sums via a second combiner groupby (|sources| groups,
    bounded). The driver sees |sources| rows; the vocabulary never
    leaves the cluster."""
    rd = _rd()

    def tok_project(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t["text"], " ")
        flat = pc.list_flatten(toks)
        src = pc.take(t["source"].combine_chunks(),
                      pc.list_parent_indices(toks))

        return pa.table({"source": src, "tok": flat})

    per_tok = combine_aggregate(
        rd.read_parquet(f"{sf_dir}/documents.parquet",
                        columns=["source", "text"])
        .map_batches(tok_project, batch_format="pyarrow"),
        ["source", "tok"], [("c", None, "count_all")])

    def src_project(t: pa.Table) -> pa.Table:
        if t.schema.metadata:
            t = t.replace_schema_metadata(None)
        c = pc.cast(t["c"], pa.int64())
        return pa.table({
            "source": t["source"],
            "n_tokens": c,
            "n_types": pa.array(np.ones(len(t), np.int64)),
            "n_hapax": pc.cast(pc.equal(c, 1), pa.int64()),
        })

    agg = combine_aggregate(
        per_tok.map_batches(src_project, batch_format="pyarrow"),
        "source",
        [("n_tokens", "n_tokens", "sum"), ("n_types", "n_types", "sum"),
         ("n_hapax", "n_hapax", "sum")])

    def finish(t: pa.Table) -> pa.Table:
        if t.schema.metadata:
            t = t.replace_schema_metadata(None)
        ntok = pc.cast(t["n_tokens"], pa.int64())
        ntyp = pc.cast(t["n_types"], pa.int64())
        ttr = pc.divide(pc.multiply(ntyp, pa.scalar(10000, pa.int64())),
                        ntok)
        return pa.table({
            "source": t["source"], "n_tokens": ntok, "n_types": ntyp,
            "n_hapax": pc.cast(t["n_hapax"], pa.int64()),
            "ttr_bp": ttr,
        })

    return agg.map_batches(finish, batch_format="pyarrow").sort("source")


ORACLE_VOCAB_HAPAX = """
WITH occ AS (
  SELECT source, tok FROM (
    SELECT source, string_split(text, ' ') AS ws FROM documents
  ), UNNEST(ws) AS u(tok)
),
per_tok AS (
  SELECT source, tok, COUNT(*) AS c FROM occ GROUP BY source, tok
)
SELECT source,
       CAST(SUM(c) AS BIGINT) AS n_tokens,
       CAST(COUNT(*) AS BIGINT) AS n_types,
       CAST(COUNT(*) FILTER (WHERE c = 1) AS BIGINT) AS n_hapax,
       CAST(COUNT(*) * 10000 // SUM(c) AS BIGINT) AS ttr_bp
FROM per_tok
GROUP BY source
ORDER BY source
"""


def register(queries: dict, oracles: dict, kg_body: str) -> None:
    queries["kg_bgp_query"] = q_kg_bgp_query
    oracles["kg_bgp_query"] = _oracle_kg_bgp(kg_body)
    queries["vocab_hapax"] = q_vocab_hapax
    oracles["vocab_hapax"] = ORACLE_VOCAB_HAPAX
