"""Round-4 session-4 batch: KG schema-induction and quality operators —
the analysis layer a KG-construction pipeline runs AFTER extraction to
validate and enrich its output schema (reference parallel: the rule
cascades in `/root/reference/core` produce typed mentions, but schema
quality checks are left to the consumer; here they are first-class
distributed operators):

- kg_functional_preds — cardinality-constraint mining (which predicates
  are functional, i.e. one object per subject).
- kg_inverse_candidates — inverse/symmetric relation discovery via the
  reversed-entity-pair join.
- kg_path_patterns — 2-hop relation-path schema induction with a
  middle-degree cap (the hub bound, same discipline as degree-oriented
  triangles).
- kg_rule_implications — AMIE-lite single-atom implication mining
  r1(x,y) => r2(x,y) with support and confidence.
- ngram_novelty — per-document 5-gram novelty rate (share of the doc's
  distinct 5-grams that are corpus-unique), the dedup-adjacent quality
  signal.

Registered by ``pipelines/queries.py`` like queries2/3/4.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from odinson_ray.stages.shuffle import (coarse_groups, combine_aggregate,
                                       partial_aggregate)

_SEP = "\x1f"
_STR = pa.string()
_I64 = pa.int64()


def _rd():
    from ..sources.io import clean_rd

    return clean_rd


def _kg_distinct_spo(sf_dir: str):
    """Distinct (pred, s, o) rows of the canonical triple graph,
    materialized — the shared front end of this batch (the predicate-
    labelled twin of queries4._kg_directed_edges)."""
    from .kg import triples_dataset

    def proj(t: pa.Table) -> pa.Table:
        return pa.table({"pred": t["pred"], "s": t["subj_canon"],
                         "o": t["obj_canon"]})

    return combine_aggregate(
        triples_dataset(sf_dir)
        .map_batches(proj, batch_format="pyarrow"),
        ["pred", "s", "o"], []).materialize()


# ===================================== functional-predicate mining

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


def _functional_oracle(body: str) -> str:
    return f"""
WITH trip AS ({body}),
d AS (SELECT DISTINCT pred, subj_canon AS s, obj_canon AS o FROM trip),
per_subj AS (SELECT pred, s, count(*) AS n_obj FROM d GROUP BY 1, 2)
SELECT pred, CAST(count(*) AS BIGINT) AS n_subjects,
       CAST(sum(CASE WHEN n_obj > 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_multi,
       round(sum(CASE WHEN n_obj > 1 THEN 1 ELSE 0 END) * 1.0 / count(*), 6)
         AS multi_rate
FROM per_subj GROUP BY pred
"""


# ===================================== inverse-relation discovery

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


def _inverse_oracle(body: str) -> str:
    return f"""
WITH trip AS ({body}),
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


# ===================================== 2-hop path-pattern induction

_PATH_MID_CAP = 1000


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


def _path_patterns_oracle(body: str) -> str:
    return f"""
WITH trip AS ({body}),
d AS (SELECT DISTINCT pred, subj_canon AS s, obj_canon AS o FROM trip),
ind AS (SELECT o AS m, count(*) AS indeg FROM d GROUP BY 1),
outd AS (SELECT s AS m, count(*) AS outdeg FROM d GROUP BY 1),
ok AS (SELECT m FROM ind JOIN outd USING (m)
       WHERE indeg <= {_PATH_MID_CAP} AND outdeg <= {_PATH_MID_CAP})
SELECT a.pred AS r1, b.pred AS r2, CAST(count(*) AS BIGINT) AS n_paths
FROM d a JOIN ok ON ok.m = a.o JOIN d b ON b.s = a.o
GROUP BY 1, 2
"""


# ===================================== AMIE-lite implication mining

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


def _implications_oracle(body: str) -> str:
    return f"""
WITH trip AS ({body}),
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


# ===================================== per-document n-gram novelty

def q_ngram_novelty(sf_dir: str, n: int = 5):
    """Per-document 5-gram novelty: the share of a doc's DISTINCT
    5-grams whose corpus document frequency is 1 (i.e. appear in no
    other document) — high novelty = original text, low = boilerplate
    (docs with < 5 tokens drop out). Same fully-distributed two-sided
    shape as doc_perplexity: per-doc distinct gram rows hash-join the
    gram-df Dataset (itself a map-side-combined aggregate), per-group
    partials reduce inside the join, one groupby(doc_id) finishes.
    The gram vocabulary never touches the driver."""
    from ray.data.aggregate import Sum

    from odinson_ray.stages.shuffle import hash_join

    rd = _rd()
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])

    def gram_rows(t: pa.Table) -> pa.Table:
        """Distinct (doc_id, gram) rows per batch — grams built from
        sliced flat token arrays, one binary_join kernel call."""
        toks = pc.split_pattern(t["text"], " ")
        flat = pc.list_flatten(toks).combine_chunks()
        rows = pc.list_parent_indices(toks).combine_chunks()
        ln = len(flat)
        if ln < n:
            return pa.table({"doc_id": pa.array([], _I64),
                             "g": pa.array([], _STR)})
        parts = [flat.slice(i, ln - n + 1) for i in range(n)]
        same = pc.equal(rows.slice(0, ln - n + 1), rows.slice(n - 1, ln - n + 1))
        grams = pc.binary_join_element_wise(*parts, " ")
        ids = t["doc_id"].combine_chunks().cast(_I64).take(
            rows.slice(0, ln - n + 1))
        pairs = pa.table({"doc_id": ids, "g": grams}).filter(same)
        return partial_aggregate(pairs, ["doc_id", "g"], [])

    grams = docs.map_batches(gram_rows, batch_format="pyarrow")
    # distinct across batches (a doc never spans batches, but the same
    # gram+doc row could appear twice only if a doc spanned batches —
    # it cannot; batch-local distinct is global distinct per doc)
    df = combine_aggregate(grams, "g", [("df", None, "count_all")])

    def score_group(g: pa.Table) -> pa.Table:
        dfv = g["df"].to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": g["doc_id"],
            "_u": pa.array((dfv == 1).astype(np.int64), _I64),
            "_n": pa.array(np.ones(len(dfv), dtype=np.int64), _I64),
        })

    joined = hash_join(
        grams, df, on="g",
        left_schema=pa.schema([("doc_id", _I64), ("g", _STR)]),
        right_schema=pa.schema([("g", _STR), ("df", _I64)]),
        merge_post=score_group)

    agg = joined.groupby("doc_id").aggregate(
        Sum("_u", alias_name="n_unique"), Sum("_n", alias_name="n_grams"))

    def fin(t: pa.Table) -> pa.Table:
        u = t["n_unique"].to_numpy(zero_copy_only=False).astype(np.float64)
        m = t["n_grams"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({
            "doc_id": t["doc_id"],
            "novelty": pa.array(np.round(u / m, 6), pa.float64()),
        })

    return agg.map_batches(fin, batch_format="pyarrow")


ORACLE_NGRAM_NOVELTY = """
WITH toks AS (SELECT doc_id, string_split(text, ' ') AS t FROM documents),
grams AS (
  SELECT DISTINCT doc_id, array_to_string(t[i : i + 4], ' ') AS g
  FROM toks, UNNEST(generate_series(1, len(t) - 4)) AS u(i)
),
df AS (SELECT g, count(*) AS df FROM grams GROUP BY g)
SELECT doc_id,
       round(sum(CASE WHEN df = 1 THEN 1 ELSE 0 END) * 1.0 / count(*), 6)
         AS novelty
FROM grams JOIN df USING (g)
GROUP BY doc_id
"""


def register(QUERIES: dict, ORACLES: dict, kg_body: str) -> None:
    QUERIES["kg_functional_preds"] = q_kg_functional_preds
    ORACLES["kg_functional_preds"] = _functional_oracle(kg_body)
    QUERIES["kg_inverse_candidates"] = q_kg_inverse_candidates
    ORACLES["kg_inverse_candidates"] = _inverse_oracle(kg_body)
    QUERIES["kg_path_patterns"] = q_kg_path_patterns
    ORACLES["kg_path_patterns"] = _path_patterns_oracle(kg_body)
    QUERIES["kg_rule_implications"] = q_kg_rule_implications
    ORACLES["kg_rule_implications"] = _implications_oracle(kg_body)
    QUERIES["ngram_novelty"] = q_ngram_novelty
    ORACLES["ngram_novelty"] = ORACLE_NGRAM_NOVELTY
