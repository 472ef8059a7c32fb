"""Round-4 session-4 batch 2: KG refinement operators — the rule-mining
and truth-discovery layer over the extracted triple graph (reference
parallel: `/root/reference/core`'s cascades emit typed mentions; what a
KG-construction pipeline does NEXT — validating relation semantics and
fusing conflicting facts — is built here as first-class distributed
operators):

- kg_transitive_preds — transitive-relation discovery: for each
  predicate r, how often r(x,y) ∧ r(y,z) implies r(x,z).
- kg_composition_rules — AMIE path rules r1(x,y) ∧ r2(y,z) ⇒ r3(x,z)
  with support and confidence.
- kg_majority_object — truth discovery / knowledge fusion: per
  (predicate, subject), the majority object by extraction weight with
  agreement share (conflict resolution by weighted vote).
- kg_entity_profiles — per-subject profile: total outgoing weight,
  distinct predicates/objects, dominant predicate and its share.

Registered by ``pipelines/queries.py`` like queries2/3/4/5.
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


def _spo(sf_dir: str):
    from .queries5 import _kg_distinct_spo

    return _kg_distinct_spo(sf_dir)


# ===================================== transitive-relation discovery

_TRANS_MID_CAP = 1000


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

    spo = _spo(sf_dir)

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


def _transitive_oracle(body: str) -> str:
    return f"""
WITH trip AS ({body}),
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


# ===================================== composition-rule mining

_COMP_MID_CAP = 1000


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

    spo = _spo(sf_dir)

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


def _composition_oracle(body: str) -> str:
    return f"""
WITH trip AS ({body}),
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


# ===================================== truth discovery by weighted vote

def _weighted_spo(sf_dir: str):
    """(pred, s, o, w) with w = total extraction weight (sum of the
    aggregated triple counts across surface-form variants) — the vote
    mass behind each candidate fact. Map-side combined."""
    from .kg import triples_dataset

    def project(t: pa.Table) -> pa.Table:
        return pa.table({"pred": t["pred"], "s": t["subj_canon"],
                         "o": t["obj_canon"], "n": t["n"]})

    return combine_aggregate(
        triples_dataset(sf_dir)
        .map_batches(project, batch_format="pyarrow"),
        ["pred", "s", "o"], [("w", "n", "sum")])


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


def _majority_oracle(body: str) -> str:
    return f"""
WITH trip AS ({body}),
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


# ===================================== per-subject entity profiles

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


def _profiles_oracle(body: str) -> str:
    return f"""
WITH trip AS ({body}),
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


def register(QUERIES: dict, ORACLES: dict, kg_body: str) -> None:
    QUERIES["kg_transitive_preds"] = q_kg_transitive_preds
    ORACLES["kg_transitive_preds"] = _transitive_oracle(kg_body)
    QUERIES["kg_composition_rules"] = q_kg_composition_rules
    ORACLES["kg_composition_rules"] = _composition_oracle(kg_body)
    QUERIES["kg_majority_object"] = q_kg_majority_object
    ORACLES["kg_majority_object"] = _majority_oracle(kg_body)
    QUERIES["kg_entity_profiles"] = q_kg_entity_profiles
    ORACLES["kg_entity_profiles"] = _profiles_oracle(kg_body)
