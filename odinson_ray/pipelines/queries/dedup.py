"""Deduplication and decontamination over the ``documents`` table.

Exact and near-duplicate detection (MinHash/LSH, SimHash, n-gram
Jaccard, prefix filtering, sorted neighbourhood), duplicate groups
and keep-best selection, shared-passage coverage, benchmark
decontamination and incremental (delta) dedup.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from odinson_ray.sources.io import table
from odinson_ray.stages.shuffle import coarse_groups, combine_aggregate

from . import query


ORACLE_DEDUP_EXACT = """
SELECT md5(text) AS fp, min(doc_id) AS doc_id, count(*) AS n_copies
FROM documents GROUP BY md5(text)
"""


@query("dedup_exact", oracle=ORACLE_DEDUP_EXACT)
def q_dedup_exact(sf_dir: str):
    """Exact dedup: first doc per distinct content hash. Pure-aggregate
    decomposition (r4 continuation — the per-fp ``map_groups`` this
    replaced dispatched ONE TASK PER DISTINCT DOCUMENT, the tiny-group
    pathology at its worst): a per-batch (fp, min doc, count) combiner,
    then one groupby with Min/Sum aggregates — no group task ever
    forms."""

    def keyed_project(t: pa.Table) -> pa.Table:
        from odinson_ray.stages.text import content_fingerprints

        return pa.table({"fp": content_fingerprints(t["text"]),
                         "doc_id": t["doc_id"]})

    return combine_aggregate(
        table(sf_dir, "documents",
              columns=["doc_id", "text"])
        .map_batches(keyed_project, batch_format="pyarrow"),
        "fp", [("doc_id", "doc_id", "min"), ("n_copies", None, "count_all")])


ORACLE_MINHASH_NEARDUP = """
WITH sh AS (
  SELECT doc_id, list_distinct(list_transform(generate_series(1, greatest(len(t) - 2, 1)),
         i -> t[i] || CASE WHEN t[i+1] IS NULL THEN '' ELSE ' ' || t[i+1] END
                   || CASE WHEN t[i+2] IS NULL THEN '' ELSE ' ' || t[i+2] END)) AS shingles
  FROM (SELECT doc_id, string_split(text, ' ') AS t FROM documents)
)
SELECT a.doc_id AS a_id, b.doc_id AS b_id,
       round(len(list_intersect(a.shingles, b.shingles)) * 1.0 /
             len(list_distinct(list_concat(a.shingles, b.shingles))), 6) AS j
FROM sh a JOIN sh b ON a.doc_id < b.doc_id
WHERE len(list_intersect(a.shingles, b.shingles)) * 1.0 /
      len(list_distinct(list_concat(a.shingles, b.shingles))) >= 0.9
"""


@query("minhash_neardup", oracle=ORACLE_MINHASH_NEARDUP)
def q_minhash_neardup(sf_dir: str):
    """MinHash+LSH near-dup pairs, exact-jaccard verified at >= 0.9.
    The banding parameters make a miss at j>=0.9 practically impossible,
    so the oracle is the exact all-pairs jaccard >= 0.9 set."""
    from odinson_ray.stages.dedup import minhash_lsh_pairs

    return minhash_lsh_pairs(sf_dir, threshold=0.9)


ORACLE_NGRAM_JACCARD = """
WITH sh AS (
  SELECT doc_id, source,
         list_distinct(list_transform(generate_series(1, greatest(len(t) - 2, 1)),
         i -> t[i] || CASE WHEN t[i+1] IS NULL THEN '' ELSE ' ' || t[i+1] END
                   || CASE WHEN t[i+2] IS NULL THEN '' ELSE ' ' || t[i+2] END)) AS shingles
  FROM (SELECT doc_id, source, string_split(text, ' ') AS t FROM documents)
)
SELECT a.doc_id AS a_id, b.doc_id AS b_id,
       round(len(list_intersect(a.shingles, b.shingles)) * 1.0 /
             len(list_distinct(list_concat(a.shingles, b.shingles))), 6) AS j
FROM sh a JOIN sh b ON a.source = b.source AND a.doc_id < b.doc_id
WHERE len(list_intersect(a.shingles, b.shingles)) * 1.0 /
      len(list_distinct(list_concat(a.shingles, b.shingles))) >= 0.3
"""


@query("ngram_jaccard", oracle=ORACLE_NGRAM_JACCARD)
def q_ngram_jaccard(sf_dir: str):
    """Exact 3-gram jaccard pairs within source blocks at >= 0.3."""
    from odinson_ray.stages.dedup import ngram_jaccard_pairs

    return ngram_jaccard_pairs(sf_dir, threshold=0.3, block_col="source")


ORACLE_SIMHASH_NEARDUP = """
WITH toks AS (
  SELECT doc_id, tok, count(*) AS cnt
  FROM (SELECT doc_id, unnest(string_split(text, ' ')) AS tok
        FROM documents WHERE text IS NOT NULL AND text <> '')
  GROUP BY doc_id, tok
),
bits AS (
  SELECT t.doc_id, i.i,
         SUM(t.cnt * (CASE WHEN (md5_number_upper(t.tok) >> (8*(i.i//8) + 7 - (i.i%8))) & 1 = 1
                           THEN 1 ELSE -1 END)) AS acc
  FROM toks t CROSS JOIN (SELECT unnest(generate_series(0,63)) AS i) i
  GROUP BY t.doc_id, i.i
),
sig AS (
  SELECT doc_id, CAST(SUM(CASE WHEN acc > 0 THEN (1::HUGEINT << i) ELSE 0 END) AS UBIGINT) AS h
  FROM bits GROUP BY doc_id
),
allsig AS (
  SELECT d.doc_id, COALESCE(s.h, 0) AS h
  FROM documents d LEFT JOIN sig s ON d.doc_id = s.doc_id
)
SELECT a.doc_id AS a_id, b.doc_id AS b_id,
       CAST(bit_count(xor(a.h, b.h)) AS BIGINT) AS hamming
FROM allsig a JOIN allsig b ON a.doc_id < b.doc_id
WHERE bit_count(xor(a.h, b.h)) <= 6
"""


@query("simhash_neardup", oracle=ORACLE_SIMHASH_NEARDUP)
def q_simhash_neardup(sf_dir: str):
    """SimHash near-dup pairs (Hamming <= 6), fully distributed (block-row
    groupby + pairwise verify + Min-dedup). The oracle re-derives the exact
    64-bit simhash in SQL (DuckDB md5_number_upper == the little-endian
    first 8 digest bytes the Python side uses) and cross-joins on
    bit_count(xor) <= 6 — exact because 8x8-bit blocking has perfect
    recall for Hamming <= 7."""
    from odinson_ray.stages.dedup import simhash_pairs

    return simhash_pairs(sf_dir, max_hamming=6)


ORACLE_NEARDUP_GROUPS = """
WITH RECURSIVE sh AS (
  SELECT doc_id, list_distinct(list_transform(generate_series(1, greatest(len(t) - 2, 1)),
         i -> t[i] || CASE WHEN t[i+1] IS NULL THEN '' ELSE ' ' || t[i+1] END
                   || CASE WHEN t[i+2] IS NULL THEN '' ELSE ' ' || t[i+2] END)) AS shingles
  FROM (SELECT doc_id, string_split(text, ' ') AS t FROM documents)
),
pairs AS (
  SELECT a.doc_id AS a_id, b.doc_id AS b_id
  FROM sh a JOIN sh b ON a.doc_id < b.doc_id
  WHERE len(list_intersect(a.shingles, b.shingles)) * 1.0 /
        len(list_distinct(list_concat(a.shingles, b.shingles))) >= 0.9
),
edges AS (
  SELECT a_id AS u, b_id AS v FROM pairs
  UNION
  SELECT b_id AS u, a_id AS v FROM pairs
),
reach(u, v) AS (
  SELECT u, v FROM edges
  UNION
  SELECT r.u, e.v FROM reach r JOIN edges e ON r.v = e.u
),
comp AS (
  SELECT u AS doc_id, least(u, min(v)) AS grp FROM reach GROUP BY u
)
SELECT d.doc_id, CAST(COALESCE(c.grp, d.doc_id) AS BIGINT) AS group_id
FROM documents d LEFT JOIN comp c ON d.doc_id = c.doc_id
"""


@query("neardup_groups", oracle=ORACLE_NEARDUP_GROUPS)
def q_neardup_groups(sf_dir: str):
    """Near-dup grouping: MinHash pairs -> distributed connected
    components -> (doc_id, group_id = min doc_id of the cluster); the
    keep-one-per-cluster dedup primitive. Oracle: transitive closure via
    recursive CTE over the exact-jaccard pair set."""
    from odinson_ray.stages.dedup import neardup_groups

    return neardup_groups(sf_dir, threshold=0.9)


ORACLE_DECONTAMINATE = """
WITH toks AS (SELECT doc_id, string_split(text, ' ') AS t FROM documents),
grams AS (
  SELECT doc_id, array_to_string(list_slice(t, i, i+2), ' ') AS g
  FROM (SELECT doc_id, t, unnest(generate_series(1, len(t) - 2)) AS i FROM toks)
),
ev AS (SELECT DISTINCT g FROM grams WHERE doc_id % 97 = 0)
SELECT g.doc_id, count(DISTINCT g.g) AS n_shared
FROM grams g JOIN ev e USING (g)
WHERE g.doc_id % 97 <> 0
GROUP BY g.doc_id
"""


@query("decontaminate", oracle=ORACLE_DECONTAMINATE)
def q_decontaminate(sf_dir: str):
    """Benchmark decontamination: flag training docs sharing a token
    3-gram with the held-out eval slice (doc_id % 97 == 0). Eval gram set
    broadcasts (benchmark-sized by construction); the corpus streams
    through one zero-shuffle map_batches. See stages/curate.py."""
    from odinson_ray.stages.curate import decontaminate

    return decontaminate(sf_dir, n=3, eval_mod=97)


ORACLE_SEMDEDUP = """
WITH emb AS (SELECT vec_id, embedding::DOUBLE[] AS e FROM embeddings),
c0 AS (SELECT vec_id AS cluster, e AS c FROM emb WHERE vec_id < 8),
a1 AS (
  SELECT vec_id, cluster FROM (
    SELECT emb.vec_id, c0.cluster,
           row_number() OVER (PARTITION BY emb.vec_id
                              ORDER BY list_distance(emb.e, c0.c), c0.cluster) AS rn
    FROM emb CROSS JOIN c0
  ) WHERE rn = 1
),
means AS (
  SELECT cluster, i, avg(v) AS m FROM (
    SELECT a1.cluster, unnest(emb.e) AS v,
           unnest(generate_series(1, len(emb.e))) AS i
    FROM a1 JOIN emb USING (vec_id)
  ) GROUP BY cluster, i
),
c1 AS (SELECT cluster, list(m ORDER BY i) AS c FROM means GROUP BY cluster),
a2 AS (
  SELECT vec_id, cluster FROM (
    SELECT emb.vec_id, c1.cluster,
           row_number() OVER (PARTITION BY emb.vec_id
                              ORDER BY list_distance(emb.e, c1.c), c1.cluster) AS rn
    FROM emb CROSS JOIN c1
  ) WHERE rn = 1
)
SELECT a.vec_id, a.cluster
FROM a2 a JOIN emb ea USING (vec_id)
WHERE NOT EXISTS (
  SELECT 1 FROM a2 b JOIN emb eb ON b.vec_id = eb.vec_id
  WHERE b.cluster = a.cluster AND b.vec_id < a.vec_id
    AND list_cosine_similarity(ea.e, eb.e) >= 0.3
)
"""


@query("semdedup", oracle=ORACLE_SEMDEDUP)
def q_semdedup(sf_dir: str):
    """SemDeDup-style semantic dedup: k-means clusters (k=8, 1 Lloyd
    refinement, shared with kmeans_clusters) + within-cluster cosine
    prune at tau=0.3; returns kept (vec_id, cluster). The oracle unrolls
    both k-means rounds in SQL then applies the same NOT EXISTS prune."""
    from odinson_ray.stages.curate import semdedup

    return semdedup(sf_dir, k=8, refinements=1, tau=0.3)


# ===================================== exact shared-passage detection


ORACLE_SHARED_PASSAGES = """
WITH toks AS (SELECT doc_id, string_split(text, ' ') AS ts FROM documents),
win AS (
  SELECT DISTINCT doc_id, md5(array_to_string(ts[i:i+7], ' ')) AS w
  FROM toks, UNNEST(range(1, len(ts) - 7 + 2)) AS t(i)
  WHERE len(ts) >= 8
)
SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b
FROM win a JOIN win b ON a.w = b.w AND a.doc_id < b.doc_id
"""


@query("shared_passages", oracle=ORACLE_SHARED_PASSAGES)
def q_shared_passages(sf_dir: str):
    from ...stages.dedup import shared_passage_pairs

    return shared_passage_pairs(sf_dir, window=8)


# ===================================== fuzzy decontamination (MinHash)


ORACLE_FUZZY_DECONTAMINATE = """
WITH sh AS (
  SELECT doc_id, list_distinct(list_transform(generate_series(1, greatest(len(t) - 2, 1)),
         i -> t[i] || CASE WHEN t[i+1] IS NULL THEN '' ELSE ' ' || t[i+1] END
                   || CASE WHEN t[i+2] IS NULL THEN '' ELSE ' ' || t[i+2] END)) AS shingles
  FROM (SELECT doc_id, string_split(text, ' ') AS t FROM documents)
)
SELECT a.doc_id, b.doc_id AS eval_id,
       round(len(list_intersect(a.shingles, b.shingles)) * 1.0 /
             len(list_distinct(list_concat(a.shingles, b.shingles))), 6) AS j
FROM sh a JOIN sh b ON b.doc_id % 10 = 0 AND a.doc_id % 10 != 0
WHERE len(list_intersect(a.shingles, b.shingles)) * 1.0 /
      len(list_distinct(list_concat(a.shingles, b.shingles))) >= 0.9
"""


@query("fuzzy_decontaminate", oracle=ORACLE_FUZZY_DECONTAMINATE)
def q_fuzzy_decontaminate(sf_dir: str):
    """Training docs near-duplicating an eval doc (LSH candidates +
    exact-jaccard >= 0.9 verify; eval set = doc_id % 10 == 0, broadcast
    once). stages/curate.fuzzy_decontaminate."""
    from odinson_ray.stages.curate import fuzzy_decontaminate

    return fuzzy_decontaminate(sf_dir, threshold=0.9, eval_mod=10)


# ===================================== C4-style exact line-level dedup


ORACLE_LINE_DEDUP = """
WITH toks AS (SELECT doc_id, string_split(text, ' ') AS t FROM documents),
lines AS (
  SELECT doc_id,
         unnest(generate_series(0, CAST(ceil(len(t)/10.0) AS INT) - 1)) AS line_no,
         unnest(list_transform(generate_series(0, CAST(ceil(len(t)/10.0) AS INT) - 1),
                i -> array_to_string(t[i*10+1 : i*10+10], ' '))) AS line
  FROM toks
),
kept AS (
  SELECT doc_id, line_no, line,
         row_number() OVER (PARTITION BY line ORDER BY doc_id, line_no) AS rn
  FROM lines
)
SELECT doc_id, string_agg(line, ' ' ORDER BY line_no) AS text
FROM kept WHERE rn = 1 GROUP BY doc_id
"""


@query("line_dedup", oracle=ORACLE_LINE_DEDUP)
def q_line_dedup(sf_dir: str):
    """Exact line-level deduplication (C4 / RefinedWeb-style: keep only
    the globally FIRST occurrence of every duplicated line, reassemble
    each document from its surviving lines). The corpus has no newlines,
    so a "line" is each consecutive 10-token segment — the operator is
    delimiter-agnostic; swap the segmentation for a newline split on
    real corpora. Reference analogue: corpus-level text hygiene ahead of
    indexing (the reference's extra/.../AnnotateText.scala prepares docs
    wholesale; line hygiene is the LLM-curation extension).

    Shape: one flat-map (doc -> line rows), ONE groupby(line) that keeps
    the (doc_id, line_no)-min occurrence per distinct line (hot
    boilerplate lines are k rows in, 1 row out — linear, never
    quadratic), one groupby(doc_id) reassembly. Two shuffles total, both
    over line-granular rows; nothing touches the driver.
    """
    LINE_TOKS = 10

    docs = table(sf_dir, "documents",
                 columns=["doc_id", "text"])

    def to_lines(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t["text"], " ")
        flat = pc.list_flatten(toks).to_pandas()
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        parent = np.repeat(np.arange(len(t)), lens)
        starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
        pos = np.arange(len(flat)) - np.repeat(starts, lens)
        line_no = pos // LINE_TOKS
        gid = parent.astype(np.int64) * (1 << 20) + line_no
        # one ' '.join per LINE (<= LINE_TOKS strings each), not per token
        joined = pd.Series(flat).groupby(gid, sort=True).agg(" ".join)
        g = joined.index.to_numpy()
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": pa.array(ids[g >> 20], pa.int64()),
            "line_no": pa.array((g & ((1 << 20) - 1)).astype(np.int64)),
            "line": pa.array(joined.to_numpy(), pa.string()),
        })

    # keep-first per distinct line is argmin over (doc_id, line_no): a
    # PURE aggregate on one packed order key (tiny-group rule, r4 sweep —
    # one group per distinct line would dispatch one task per line).
    # LN_CAP bounds lines/doc at 4M (40M space-split tokens); doc_id must
    # stay under 2^41 for the pack to fit int64.
    LN_CAP = 1 << 22
    from ray.data.aggregate import Min

    def pack(t: pa.Table) -> pa.Table:
        d = t["doc_id"].to_numpy(zero_copy_only=False)
        ln = t["line_no"].to_numpy(zero_copy_only=False)
        if len(ln) and int(ln.max()) >= LN_CAP:
            raise ValueError("line_no exceeds LN_CAP pack bound")
        return pa.table({"line": t["line"],
                         "okey": pa.array(d * LN_CAP + ln, pa.int64())})

    def unpack(t: pa.Table) -> pa.Table:
        ok = t["okey"].to_numpy(zero_copy_only=False)
        return pa.table({"doc_id": pa.array(ok // LN_CAP, pa.int64()),
                         "line_no": pa.array(ok % LN_CAP, pa.int64()),
                         "line": t["line"]})

    def reassemble_partition(g: pa.Table) -> pa.Table:
        d = g["doc_id"].to_numpy(zero_copy_only=False)
        joined = g["line"].to_pandas().groupby(d, sort=True).agg(" ".join)
        return pa.table({
            "doc_id": pa.array(joined.index.to_numpy(), pa.int64()),
            "text": pa.array(joined.to_numpy(), pa.string()),
        })

    lines = docs.map_batches(to_lines, batch_format="pyarrow")
    kept = (lines.map_batches(pack, batch_format="pyarrow")
            .groupby("line").aggregate(Min("okey", alias_name="okey"))
            .map_batches(unpack, batch_format="pyarrow"))
    return coarse_groups(kept, ["doc_id"], reassemble_partition,
                         ["line_no"])


# ===================================== prefix-filtered similarity join


ORACLE_PREFIX_JACCARD = """
WITH toks AS (
  SELECT DISTINCT doc_id, unnest(string_split(text, ' ')) AS tok FROM documents
), sizes AS (SELECT doc_id, count(*) AS n FROM toks GROUP BY doc_id),
inter AS (
  SELECT a.doc_id AS a_id, b.doc_id AS b_id, count(*) AS o
  FROM toks a JOIN toks b USING (tok) WHERE a.doc_id < b.doc_id
  GROUP BY 1, 2
)
SELECT a_id, b_id, round(o * 1.0 / (sa.n + sb.n - o), 6) AS j
FROM inter JOIN sizes sa ON sa.doc_id = a_id
           JOIN sizes sb ON sb.doc_id = b_id
WHERE round(o * 1.0 / (sa.n + sb.n - o), 6) >= 0.95
"""


@query("prefix_jaccard", oracle=ORACLE_PREFIX_JACCARD)
def q_prefix_jaccard(sf_dir: str):
    """Exact all-pairs token-Jaccard join (>= 0.95) via prefix filtering
    (AllPairs/PPJoin family, stages/dedup.prefix_jaccard_pairs): docs
    emit only their globally-rarest-token prefixes, candidates bucket on
    those, the in-bucket length filter prunes, and the shared adaptive
    verify computes exact scores. EXACT (the complete >= t pair set),
    unlike MinHash-LSH's probabilistic recall — the oracle is the full
    quadratic join."""
    from odinson_ray.stages.dedup import prefix_jaccard_pairs

    return prefix_jaccard_pairs(sf_dir, threshold=0.95)


# ===================================== near-dup cluster representative


ORACLE_NEARDUP_KEEP_BEST = """
WITH nd AS ({body}),
sized AS (
  SELECT nd.group_id, d.doc_id, d.n_chars
  FROM nd JOIN documents d ON d.doc_id = nd.doc_id
)
SELECT group_id, doc_id AS kept_doc_id, group_size FROM (
  SELECT group_id, doc_id, n_chars,
         row_number() OVER (PARTITION BY group_id
                            ORDER BY n_chars DESC, doc_id) AS rk,
         count(*) OVER (PARTITION BY group_id) AS group_size
  FROM sized
) WHERE rk = 1
""".format(body=ORACLE_NEARDUP_GROUPS.strip().rstrip(";"))


@query("neardup_keep_best", oracle=ORACLE_NEARDUP_KEEP_BEST)
def q_neardup_keep_best(sf_dir: str):
    """The dedup pipeline's END STEP: within each near-dup cluster
    (MinHash pairs -> connected components, stages/dedup.neardup_groups)
    keep ONE representative — the longest document, doc_id tie-break —
    and report the cluster size. Composition: the group assignment is
    joined to doc lengths (one hash join), then a per-batch best-row
    combiner feeds a groupby whose reducer sees at most one row per
    group per batch, never the cluster's raw rows."""
    from odinson_ray.stages.dedup import neardup_groups
    from odinson_ray.stages.shuffle import hash_join

    groups = neardup_groups(sf_dir, threshold=0.9)
    lens = table(sf_dir, "documents",
                 columns=["doc_id", "n_chars"])
    joined = hash_join(
        groups, lens, on="doc_id",
        left_schema=pa.schema([("doc_id", pa.int64()),
                               ("group_id", pa.int64())]),
        right_schema=pa.schema([("doc_id", pa.int64()),
                                ("n_chars", pa.int64())]))

    def best_partial(t: pa.Table) -> pa.Table:
        idx = pc.sort_indices(t, sort_keys=[
            ("group_id", "ascending"), ("n_chars", "descending"),
            ("doc_id", "ascending")])
        t = t.take(idx)
        g = t["group_id"].to_numpy(zero_copy_only=False)
        first = np.concatenate(([True], g[1:] != g[:-1]))
        runs = np.diff(np.append(np.flatnonzero(first), len(g)))
        kept = t.filter(pa.array(first))
        return pa.table({
            "group_id": kept["group_id"],
            "kept_doc_id": kept["doc_id"],
            "kept_n_chars": kept["n_chars"],
            "partial_n": pa.array(runs, pa.int64()),
        })

    # final per-group argmax + size over one coarse exchange on group
    # (tiny-group rule, r4 sweep — one group per cluster would dispatch
    # one task per cluster): run-first pick and reduceat size sum
    def best_final_partition(g: pa.Table) -> pa.Table:
        gid = g["group_id"].to_numpy(zero_copy_only=False)
        first = np.concatenate(([True], gid[1:] != gid[:-1]))
        starts = np.flatnonzero(first)
        sizes = np.add.reduceat(
            g["partial_n"].to_numpy(zero_copy_only=False), starts)
        top = g.filter(pa.array(first))
        return pa.table({
            "group_id": top["group_id"],
            "kept_doc_id": top["kept_doc_id"],
            "group_size": pa.array(sizes.astype(np.int64), pa.int64()),
        })

    return coarse_groups(
        joined.map_batches(best_partial, batch_format="pyarrow"),
        ["group_id"], best_final_partition,
        [("kept_n_chars", "descending"), "kept_doc_id"])


# ===================================== sorted-neighborhood blocking


ORACLE_SORTED_NEIGHBORHOOD = """
WITH r AS (
  SELECT doc_id,
         ROW_NUMBER() OVER (ORDER BY substr(text, 1, 7), doc_id) AS rn
  FROM documents
)
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
FROM r a JOIN r b ON b.rn > a.rn AND b.rn - a.rn < 3
"""


@query("sorted_neighborhood_pairs", oracle=ORACLE_SORTED_NEIGHBORHOOD)
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

    docs = table(sf_dir, "documents",
                 columns=["doc_id", "text"])
    pairs = snm_pairs(docs, key_col="text", id_col="doc_id",
                      window=window, n_buckets=n_buckets, chunk=chunk)
    return pairs.map_batches(
        lambda t: t.rename_columns(["doc_a", "doc_b"]),
        batch_format="pyarrow")


# ===================================== per-source duplication report


ORACLE_SOURCE_DUP_RATE = """
SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(COUNT(DISTINCT md5(text)) AS BIGINT) AS n_unique,
       round(1 - COUNT(DISTINCT md5(text)) * 1.0 / COUNT(*), 6)
         AS dup_rate
FROM documents GROUP BY source ORDER BY source
"""


@query("source_dup_rate", oracle=ORACLE_SOURCE_DUP_RATE)
def q_source_dup_rate(sf_dir: str):
    """The curation dashboard's per-source duplication rate: documents,
    distinct contents (shared md5 kernel — content_fingerprints, so this
    can never drift from dedup_exact), and dup_rate per source. One
    (source, fp) groupby whose per-group count feeds a source-sized
    rollup: n_docs = sum(n), n_unique = row count."""
    from ray.data.aggregate import Count, Sum

    from odinson_ray.stages.text import content_fingerprints

    def fp_project(t: pa.Table) -> pa.Table:
        return pa.table({"source": t["source"],
                         "fp": content_fingerprints(t["text"])})

    per_fp = combine_aggregate(
        table(sf_dir, "documents",
              columns=["source", "text"])
        .map_batches(fp_project, batch_format="pyarrow"),
        ["source", "fp"], [("n", None, "count_all")])
    agg = per_fp.groupby("source").aggregate(
        Sum("n", alias_name="n_docs"), Count(alias_name="n_unique"))

    def finish(t: pa.Table) -> pa.Table:
        nd = t["n_docs"].to_numpy(zero_copy_only=False).astype(np.float64)
        nu = t["n_unique"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({
            "source": t["source"],
            "n_docs": t["n_docs"].cast(pa.int64()),
            "n_unique": t["n_unique"].cast(pa.int64()),
            "dup_rate": pa.array(np.round(1.0 - nu / nd, 6), pa.float64()),
        })

    return agg.map_batches(finish, batch_format="pyarrow").sort("source")


# ===================== incremental cross-corpus exact dedup (delta shard)

#: the "new crawl" slice of the corpus; everything else is the base.
_DELTA_SOURCES = ("src3", "src7", "src12")


ORACLE_DEDUP_DELTA = """
WITH delta AS (
  SELECT doc_id, source, md5(text) AS h FROM documents
  WHERE source IN ('src3', 'src7', 'src12')
),
base AS (
  SELECT DISTINCT md5(text) AS h FROM documents
  WHERE source NOT IN ('src3', 'src7', 'src12')
),
surv AS (
  SELECT d.doc_id, d.source, d.h
  FROM delta d LEFT JOIN base b USING (h)
  WHERE b.h IS NULL
),
keep AS (SELECT h, MIN(doc_id) AS m FROM surv GROUP BY h)
SELECT s.doc_id, s.source, s.h
FROM surv s JOIN keep k ON s.h = k.h AND s.doc_id = k.m
ORDER BY s.doc_id
"""


@query("dedup_delta", oracle=ORACLE_DEDUP_DELTA)
def q_dedup_delta(sf_dir: str):
    """Incremental exact dedup of a delta shard against the base corpus:
    keep delta documents whose md5(text) fingerprint (the shared
    ``content_fingerprints`` kernel — same identity as q_dedup_exact)
    appears nowhere in the base, one representative (min doc_id) per
    duplicate group within the delta.

    Shape: both sides are per-batch fingerprinted (base projected to
    the hash column only, per-batch-deduped before the shuffle); ONE
    distributed anti join drops the already-seen delta docs (hash_join
    tolerates duplicate right rows); the within-delta representative is
    a pure Min aggregate over a zero-padded ``doc_id|source`` packing
    (the event_throttle precedent) — no per-hash map_groups, no second
    join."""
    from ray.data.aggregate import Min

    from odinson_ray.stages.shuffle import hash_join
    from odinson_ray.stages.text import content_fingerprints

    docs = table(sf_dir, "documents",
                 columns=["doc_id", "source", "text"])
    delta_set = pa.array(list(_DELTA_SOURCES))

    def delta_fp(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_in(t["source"], value_set=delta_set))
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        # the zero-padded packing's lexicographic-min == numeric-min
        # invariant (and the fixed 20-char unpack slice) requires
        # non-negative doc ids — fail loudly, not wrongly (ADVICE r04)
        if len(ids) and ids.min() < 0:
            raise ValueError("dedup_delta: negative doc_id breaks the "
                             "zero-padded Min-representative packing")
        src = t["source"].to_pylist()
        return pa.table({
            "h": content_fingerprints(t["text"]),
            "packed": pa.array(
                [f"{int(i):020d}|{s}" for i, s in zip(ids, src)],
                pa.string()),
        })

    def base_fp(t: pa.Table) -> pa.Table:
        t = t.filter(pc.invert(
            pc.is_in(t["source"], value_set=delta_set)))
        h = content_fingerprints(t["text"])
        # batch-local distinct: shrinks the shuffle; the anti join
        # tolerates duplicate right rows across batches.
        return pa.table({"h": pc.unique(h)})

    delta = docs.map_batches(delta_fp, batch_format="pyarrow")
    base = docs.map_batches(base_fp, batch_format="pyarrow")
    surv = hash_join(
        delta, base, on="h", how="anti",
        left_schema=pa.schema([("h", pa.string()),
                               ("packed", pa.string())]),
        right_schema=pa.schema([("h", pa.string())]))

    keep = surv.groupby("h").aggregate(Min("packed"))

    def unpack(t: pa.Table) -> pa.Table:
        if t.schema.metadata:
            t = t.replace_schema_metadata(None)
        packed = t["min(packed)"]
        return pa.table({
            "doc_id": pc.cast(pc.utf8_slice_codeunits(packed, 0, 20),
                              pa.int64()),
            "source": pc.utf8_slice_codeunits(packed, 21, 2**30),
            "h": t["h"],
        })

    return keep.map_batches(unpack, batch_format="pyarrow").sort("doc_id")


# ============================ cross-corpus NEAR-dup dedup (delta shard)
_ND_THRESHOLD = 0.95


ORACLE_NEARDUP_DELTA = """
WITH toks AS (
  SELECT DISTINCT doc_id, unnest(string_split(text, ' ')) AS tok
  FROM documents
),
sizes AS (SELECT doc_id, count(*) AS n FROM toks GROUP BY doc_id),
inter AS (
  SELECT a.doc_id AS a_id, b.doc_id AS b_id, count(*) AS o
  FROM toks a JOIN toks b USING (tok) WHERE a.doc_id < b.doc_id
  GROUP BY 1, 2
),
pairs AS (
  SELECT a_id, b_id
  FROM inter JOIN sizes sa ON sa.doc_id = a_id
             JOIN sizes sb ON sb.doc_id = b_id
  WHERE round(o * 1.0 / (sa.n + sb.n - o), 6) >= 0.95
),
delta AS (
  SELECT doc_id, source FROM documents
  WHERE source IN ('src3', 'src7', 'src12')
),
dropped AS (
  SELECT b_id AS doc_id FROM pairs
  WHERE b_id IN (SELECT doc_id FROM delta)
  UNION
  SELECT a_id FROM pairs
  WHERE a_id IN (SELECT doc_id FROM delta)
    AND b_id NOT IN (SELECT doc_id FROM delta)
)
SELECT d.doc_id, d.source
FROM delta d LEFT JOIN dropped x USING (doc_id)
WHERE x.doc_id IS NULL
ORDER BY d.doc_id
"""


@query("neardup_delta", oracle=ORACLE_NEARDUP_DELTA)
def q_neardup_delta(sf_dir: str):
    """Near-duplicate incremental dedup — dedup_delta's fuzzy sibling
    and the shape a recurring-crawl pipeline actually runs: drop a
    delta-shard document when its token-Jaccard similarity to ANY
    base-corpus document reaches 0.95 (_ND_THRESHOLD), or to ANY
    lower-id delta document (non-recursive, not survivor-dependent: the
    partner drops it even if that partner was itself dropped — one
    EXISTS per side, not keep-first chain semantics and not a
    connected-components pass; SCALE.md documents the choice).

    Shape: the exact >= 0.95 pair set comes from the AllPairs prefix
    filter (stages/dedup.prefix_jaccard_pairs — candidate prefixes on
    globally rarest tokens, adaptive exact verify); two
    ``broadcast_or_join`` calls attach is-delta flags to the pair
    endpoints (pairs are near-dups, orders of magnitude fewer than
    documents); the drop rule is one vectorized expression per pair
    batch emitting dropped ids; survivors come from ONE distributed
    anti join (duplicate right rows tolerated, so no global distinct).
    Every stage is corpus-partitioned; nothing corpus-sized touches the
    driver."""
    from odinson_ray.stages.dedup import prefix_jaccard_pairs

    pairs = prefix_jaccard_pairs(sf_dir, threshold=_ND_THRESHOLD)
    return _delta_survivors(sf_dir, pairs)


def _delta_survivors(sf_dir: str, pairs):
    """Shared tail of the near-dup delta dedups: attach is-delta flags
    to the (a_id, b_id, j) pair endpoints, apply the oriented drop rule,
    anti-join survivors. Pairs are near-dup-scale by construction, so
    both flag joins ride ``broadcast_or_join``."""
    from odinson_ray.stages.shuffle import broadcast_or_join, hash_join

    delta_set = pa.array(list(_DELTA_SOURCES))

    def flags(name):
        def f(t: pa.Table) -> pa.Table:
            return pa.table({
                "doc_id": t["doc_id"],
                name: pc.cast(pc.is_in(t["source"], value_set=delta_set),
                              pa.int8()),
            })
        return f

    docs = table(sf_dir, "documents",
                 columns=["doc_id", "source"])
    fa = docs.map_batches(flags("a_dlt"), batch_format="pyarrow")
    fb = docs.map_batches(flags("b_dlt"), batch_format="pyarrow")
    pair_schema = pa.schema([("a_id", pa.int64()), ("b_id", pa.int64()),
                             ("j", pa.float64())])
    p1 = broadcast_or_join(
        pairs, fa, on="a_id", right_on="doc_id", left_schema=pair_schema,
        right_schema=pa.schema([("doc_id", pa.int64()),
                                ("a_dlt", pa.int8())]))
    p2 = broadcast_or_join(
        p1, fb, on="b_id", right_on="doc_id",
        left_schema=pair_schema.append(pa.field("a_dlt", pa.int8())),
        right_schema=pa.schema([("doc_id", pa.int64()),
                                ("b_dlt", pa.int8())]))

    def dropped_ids(t: pa.Table) -> pa.Table:
        if t.schema.metadata:
            t = t.replace_schema_metadata(None)
        a = t["a_id"].to_numpy(zero_copy_only=False)
        b = t["b_id"].to_numpy(zero_copy_only=False)
        ad = t["a_dlt"].to_numpy(zero_copy_only=False).astype(bool)
        bd = t["b_dlt"].to_numpy(zero_copy_only=False).astype(bool)
        # pairs are oriented a_id < b_id:
        #   b in delta  -> b drops (its partner a is base OR an earlier
        #                  delta doc — both kill it)
        #   a in delta and b in base -> a drops (base similarity)
        out = np.concatenate([b[bd], a[ad & ~bd]])
        return pa.table({"doc_id": pa.array(np.unique(out), pa.int64())})

    dropped = p2.map_batches(dropped_ids, batch_format="pyarrow")
    delta_docs = docs.map_batches(
        lambda t: t.filter(pc.is_in(t["source"], value_set=delta_set)),
        batch_format="pyarrow")
    return hash_join(
        delta_docs, dropped, on="doc_id", how="anti",
        left_schema=pa.schema([("doc_id", pa.int64()),
                               ("source", pa.string())]),
        right_schema=pa.schema([("doc_id", pa.int64())]),
    ).sort("doc_id")


_ND_BANDED_THRESHOLD = 0.9


ORACLE_NEARDUP_DELTA_BANDED = """
WITH sh AS (
  SELECT doc_id, list_distinct(list_transform(generate_series(1, greatest(len(t) - 2, 1)),
         i -> t[i] || CASE WHEN t[i+1] IS NULL THEN '' ELSE ' ' || t[i+1] END
                   || CASE WHEN t[i+2] IS NULL THEN '' ELSE ' ' || t[i+2] END)) AS shingles
  FROM (SELECT doc_id, string_split(text, ' ') AS t FROM documents)
),
pairs AS (
  SELECT a.doc_id AS a_id, b.doc_id AS b_id
  FROM sh a JOIN sh b ON a.doc_id < b.doc_id
  WHERE round(len(list_intersect(a.shingles, b.shingles)) * 1.0 /
        len(list_distinct(list_concat(a.shingles, b.shingles))), 6) >= 0.9
),
delta AS (
  SELECT doc_id, source FROM documents
  WHERE source IN ('src3', 'src7', 'src12')
),
dropped AS (
  SELECT b_id AS doc_id FROM pairs
  WHERE b_id IN (SELECT doc_id FROM delta)
  UNION
  SELECT a_id FROM pairs
  WHERE a_id IN (SELECT doc_id FROM delta)
    AND b_id NOT IN (SELECT doc_id FROM delta)
)
SELECT d.doc_id, d.source
FROM delta d LEFT JOIN dropped x USING (doc_id)
WHERE x.doc_id IS NULL
ORDER BY d.doc_id
"""


@query("neardup_delta_banded", oracle=ORACLE_NEARDUP_DELTA_BANDED)
def q_neardup_delta_banded(sf_dir: str):
    """The BENCHMARKABLE configuration of near-dup delta dedup: shingle
    (3-gram) Jaccard at >= 0.9 with MinHash-LSH banded candidate
    generation + exact verify (stages/dedup.minhash_lsh_pairs), then the
    same delta drop rule as q_neardup_delta.

    Why a second configuration: the exact token-set variant
    (q_neardup_delta, >= 0.95) is the oracle-pinned semantics, but on
    the synthetic corpus's 31-token vocabulary its TRUE pair set is
    quadratic in the corpus — timing it measures pair output, not the
    operator (bench.py's old exclusion note). Shingle similarity at the
    banded threshold has a bounded true-pair set on any corpus a
    recurring-crawl pipeline would feed it, so THIS is the
    configuration a user runs and the one the bench times."""
    from odinson_ray.stages.dedup import minhash_lsh_pairs

    pairs = minhash_lsh_pairs(sf_dir, threshold=_ND_BANDED_THRESHOLD)
    return _delta_survivors(sf_dir, pairs)


_WINDOW = 8


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


@query("dup_passage_coverage", oracle=ORACLE_DUP_PASSAGE_COVERAGE)
def q_dup_passage_coverage(sf_dir: str):
    """Per-doc duplicated-passage coverage at window=8 (_WINDOW): docs
    owning a span shared with another doc, with covered-token count and
    fraction. Two single-key shuffles (window hash, then doc_id), both
    resolved by segmented coarse-partition kernels; a k-hot boilerplate
    window contributes k rows (linear), so no hot-window cap is
    needed on this path."""
    from odinson_ray.stages.dedup import dup_passage_coverage

    return dup_passage_coverage(sf_dir, window=_WINDOW)
