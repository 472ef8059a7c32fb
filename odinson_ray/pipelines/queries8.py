"""Round-4 session-5 batch A: multimodal caption-pair mining over the
interleaved spans (the image-text training-pair extractor), document
readability scoring, TPC-H Q18/Q14-class star aggregates, and a
CEP-style conversion detector (view -> purchase with reset).

Registered by ``pipelines/queries.py`` like queries2-7; each ``q_*``
takes ``sf_dir``; oracle column names match exactly.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from odinson_ray.stages.shuffle import combine_aggregate


def _rd():
    from ..sources.io import clean_rd

    return clean_rd


# ===================================== image/audio caption pairs
#
# The core multimodal-training-data op over the interleaved shape
# (BASELINE.json input_hint): for every media span, the nearest
# preceding and following TEXT spans in the same document become its
# caption candidates. Entirely batch-local (a document's spans live in
# ONE list value) — zero shuffle at any scale.

def q_media_caption_pairs(sf_dir: str):
    """(media span, caption_before, caption_after) rows from the
    interleaved documents; vectorized prev/next-text-span scan over the
    flattened spans column (no per-row Python over spans)."""
    from odinson_ray.sources.interleaved import read_interleaved

    def pairs(t: pa.Table) -> pa.Table:
        spans = t["spans"]
        flat = pc.list_flatten(spans).combine_chunks()
        parents = pc.list_parent_indices(spans).to_numpy(
            zero_copy_only=False)
        n = len(flat)
        if n == 0:
            return pa.table({
                "doc_id": pa.array([], pa.string()),
                "media_ref": pa.array([], pa.string()),
                "kind": pa.array([], pa.string()),
                "caption_before": pa.array([], pa.string()),
                "caption_after": pa.array([], pa.string()),
            })
        kind = flat.field("kind")
        is_text = np.asarray(pc.equal(kind, "text"))
        idx = np.arange(n, dtype=np.int64)
        # nearest preceding text-span index (cross-parent hits are
        # invalidated below; list order == offset order by construction)
        prev = np.maximum.accumulate(np.where(is_text, idx, -1))
        # nearest following text-span index via the reversed scan
        # (reversed position m maps to original n-1-m, so the running
        # max of reversed text positions is the MIN following original)
        acc = np.maximum.accumulate(
            np.where(is_text[::-1], idx, -1))[::-1]
        nxt = np.where(acc >= 0, n - 1 - acc, -1)
        media = np.flatnonzero(~is_text)
        texts = flat.field("text").to_numpy(zero_copy_only=False)
        p = prev[media]
        f = nxt[media]
        p_ok = (p >= 0) & (parents[np.maximum(p, 0)] == parents[media])
        f_ok = (f >= 0) & (parents[np.minimum(f, n - 1)] == parents[media])
        before = np.where(p_ok, texts[np.maximum(p, 0)], "")
        after = np.where(f_ok, texts[np.minimum(f, n - 1)], "")
        doc_ids = pc.take(t["doc_id"], pa.array(parents[media]))
        return pa.table({
            "doc_id": doc_ids,
            "media_ref": flat.field("media_ref").take(pa.array(media)),
            "kind": kind.take(pa.array(media)),
            "caption_before": pa.array(before, pa.string()),
            "caption_after": pa.array(after, pa.string()),
        })

    return read_interleaved(sf_dir).map_batches(pairs,
                                                batch_format="pyarrow")


# image sits after sentence 0 (doc_id%5==0); audio is appended last
# (doc_id%11==0) — re-derived from documents.text exactly like
# ORACLE_SPANS_ROUNDTRIP does.
ORACLE_MEDIA_CAPTIONS = """
WITH s AS (
  SELECT doc_id, string_split(text, ' ') AS t,
         len(string_split(text, ' ')) AS nt,
         CAST(ceil(len(string_split(text, ' ')) / 20.0) AS INT) AS ns
  FROM documents
)
SELECT printf('doc-%06d', doc_id) AS doc_id,
       'media://img/' || doc_id AS media_ref, 'image' AS kind,
       array_to_string(t[1:least(20, nt)], ' ') AS caption_before,
       CASE WHEN nt > 20
            THEN array_to_string(t[21:least(40, nt)], ' ')
            ELSE '' END AS caption_after
FROM s WHERE doc_id % 5 = 0
UNION ALL
SELECT printf('doc-%06d', doc_id) AS doc_id,
       'media://aud/' || doc_id AS media_ref, 'audio' AS kind,
       array_to_string(t[(20 * (ns - 1) + 1):nt], ' ') AS caption_before,
       '' AS caption_after
FROM s WHERE doc_id % 11 = 0
"""


# ===================================== readability scoring

def q_doc_readability(sf_dir: str):
    """Flesch-reading-ease-style score per document, fully vectorized:
    words from the single-space token count, sentences from the 20-token
    sentence rule, syllables approximated by maximal vowel runs (one RE2
    scan). A quality-scoring signal the curation tier filters on."""
    rd = _rd()

    def score(t: pa.Table) -> pa.Table:
        words = pc.add(pc.count_substring(t["text"], " "), 1)
        words = pc.cast(words, pa.int64())
        sents = pc.cast(
            pc.divide(pc.add(words, 19), pa.scalar(20, pa.int64())),
            pa.int64())
        syll = pc.cast(
            pc.count_substring_regex(t["text"], "[aeiou]+"), pa.int64())
        wf = pc.cast(words, pa.float64())
        flesch = pc.round(
            pc.subtract(
                pc.subtract(pa.scalar(206.835),
                            pc.multiply(pa.scalar(1.015),
                                        pc.divide(wf, pc.cast(
                                            sents, pa.float64())))),
                pc.multiply(pa.scalar(84.6),
                            pc.divide(pc.cast(syll, pa.float64()), wf))),
            ndigits=4, round_mode="half_towards_infinity")
        return pa.table({
            "doc_id": t["doc_id"],
            "n_words": words,
            "n_syll": syll,
            "flesch": flesch,
        })

    return rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"]).map_batches(
        score, batch_format="pyarrow")


ORACLE_DOC_READABILITY = """
WITH b AS (
  SELECT doc_id,
         CAST(len(string_split(text, ' ')) AS BIGINT) AS n_words,
         CAST(len(regexp_extract_all(text, '[aeiou]+')) AS BIGINT)
           AS n_syll
  FROM documents
)
SELECT doc_id, n_words, n_syll,
       round(206.835 - 1.015 * (n_words / ceil(n_words / 20.0))
                     - 84.6 * (n_syll / CAST(n_words AS DOUBLE)), 4)
         AS flesch
FROM b
"""


# ===================================== TPC-H Q18: large-volume customers

def q_tpch_q18(sf_dir: str, threshold: float = 300.0):
    """Customers whose single orders exceed a quantity threshold: the
    filtered groupby (map-side qty combiner per l_orderkey, then the
    small HAVING survivor set) drives two distributed hash joins back
    onto orders and customer; pruned global top-10 by o_totalprice.
    The survivor set stays a Dataset — never collected on the driver."""
    from odinson_ray.stages.shuffle import global_topk, hash_join

    rd = _rd()

    qty = combine_aggregate(
        rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                        columns=["l_orderkey", "l_quantity"]),
        "l_orderkey", [("sq", "l_quantity", "sum")]
    ).map_batches(lambda t: t.filter(pc.greater(t["sq"], threshold)),
                  batch_format="pyarrow")

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"])
    j1 = hash_join(
        orders, qty, on="o_orderkey", right_on="l_orderkey",
        left_schema=pa.schema([("o_orderkey", pa.int64()),
                               ("o_custkey", pa.int64()),
                               ("o_orderdate", pa.timestamp("us")),
                               ("o_totalprice", pa.float64())]),
        right_schema=pa.schema([("l_orderkey", pa.int64()),
                                ("sq", pa.float64())]))
    cust = rd.read_parquet(f"{sf_dir}/customer.parquet",
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


# ===================================== TPC-H Q14-class: promo revenue share

def q_promo_share(sf_dir: str, promo_type: str = "ECONOMY"):
    """Monthly promo revenue share. Scale shape: lineitem first
    collapses through a map-side (partkey, month) revenue combiner —
    the join input is bounded by |part| x |months|, not |lineitem| —
    then ONE distributed hash join attaches the part-type flag and a
    month combiner finishes. Integer-cents revenue for bit-exactness."""
    from odinson_ray.stages.shuffle import hash_join

    rd = _rd()

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
        rd.read_parquet(f"{sf_dir}/lineitem.parquet",
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

    part = rd.read_parquet(f"{sf_dir}/part.parquet",
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


# ===================================== CEP: view->purchase conversions

def q_cep_conversions(sf_dir: str, parts: int = 512):
    """Complex-event-processing rule with reset semantics: count, per
    user, purchases preceded by at least one view SINCE THE PREVIOUS
    PURCHASE (each view streak converts at most once). Needs each
    user's ordered event sequence — ONE coarse hash(user) shuffle, then
    per partition a single sort + segmented cumulative-count arithmetic
    (no per-user task, no regex engine, no Python loop)."""
    from odinson_ray.stages.sketch import _splitmix64

    rd = _rd()

    def add_part(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_in(t["event_type"],
                              pa.array(["view", "purchase"])))
        u = t["user_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        p = (_splitmix64(u) % np.uint64(parts)).astype(np.int64)
        return t.append_column("_p", pa.array(p, pa.int64()))

    def conv_partition(g: pa.Table) -> pa.Table:
        g = g.drop_columns(["_p"]).combine_chunks()
        idx = pc.sort_indices(g, sort_keys=[("user_id", "ascending"),
                                            ("ts", "ascending"),
                                            ("event_id", "ascending")])
        g = g.take(idx)
        n = g.num_rows
        empty = pa.table({"user_id": pa.array([], pa.int64()),
                          "n_conversions": pa.array([], pa.int64())})
        if n == 0:
            return empty
        u = g["user_id"].to_numpy(zero_copy_only=False)
        is_view = np.asarray(pc.equal(g["event_type"], "view"))
        starts = np.concatenate(([0], np.flatnonzero(u[1:] != u[:-1]) + 1))
        run_of = np.repeat(np.arange(len(starts)),
                           np.diff(np.append(starts, n)))
        vc = np.cumsum(is_view)                      # views at <= i
        vbefore = np.concatenate(([0], vc[:-1]))     # views at < i
        p_idx = np.flatnonzero(~is_view)
        if len(p_idx) == 0:
            return empty
        prev_p = np.concatenate(([-1], p_idx[:-1]))
        same_run = (prev_p >= 0) & (run_of[np.maximum(prev_p, 0)]
                                    == run_of[p_idx])
        run_start = starts[run_of[p_idx]]
        base = np.where(same_run, vc[np.maximum(prev_p, 0)],
                        vbefore[run_start])
        converted = vbefore[p_idx] > base
        # per-user conversion counts over this partition's runs
        pu = u[p_idx][converted]
        if len(pu) == 0:
            return empty
        uniq, cnt = np.unique(pu, return_counts=True)
        return pa.table({"user_id": pa.array(uniq, pa.int64()),
                         "n_conversions": pa.array(cnt, pa.int64())})

    return (rd.read_parquet(f"{sf_dir}/events.parquet",
                            columns=["user_id", "ts", "event_id",
                                     "event_type"])
            .map_batches(add_part, batch_format="pyarrow")
            .groupby("_p")
            .map_groups(conv_partition, batch_format="pyarrow"))


ORACLE_CEP_CONVERSIONS = """
WITH e AS (
  SELECT user_id, event_type,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY ts, event_id) AS rn
  FROM events WHERE event_type IN ('view', 'purchase')
),
p AS (
  SELECT user_id, rn,
         lag(rn, 1, 0) OVER (PARTITION BY user_id ORDER BY rn) AS prev_rn
  FROM e WHERE event_type = 'purchase'
)
SELECT p.user_id, CAST(count(*) AS BIGINT) AS n_conversions
FROM p
WHERE EXISTS (SELECT 1 FROM e v
              WHERE v.user_id = p.user_id AND v.event_type = 'view'
                AND v.rn > p.prev_rn AND v.rn < p.rn)
GROUP BY p.user_id
"""


def register(queries: dict, oracles: dict) -> None:
    queries["media_caption_pairs"] = q_media_caption_pairs
    oracles["media_caption_pairs"] = ORACLE_MEDIA_CAPTIONS
    queries["doc_readability"] = q_doc_readability
    oracles["doc_readability"] = ORACLE_DOC_READABILITY
    queries["tpch_q18"] = q_tpch_q18
    oracles["tpch_q18"] = ORACLE_TPCH_Q18
    queries["promo_share"] = q_promo_share
    oracles["promo_share"] = ORACLE_PROMO_SHARE
    queries["cep_conversions"] = q_cep_conversions
    oracles["cep_conversions"] = ORACLE_CEP_CONVERSIONS
