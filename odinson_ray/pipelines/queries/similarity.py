"""Similarity search over the ``embeddings`` table (and one string
similarity join over part names).

Exact and approximate top-k (LSH, IVF, PQ), k-NN joins, k-means,
embedding statistics (norms, centroids, covariance, PCA), hard
negatives and MMR re-ranking.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from odinson_ray.sources.io import table
from odinson_ray.stages.shuffle import (coarse_groups, combine_aggregate,
                                        global_topk)

from . import query


def _query_vec(sf_dir: str) -> np.ndarray:
    """The ``vec_id == 0`` row's embedding: a pushdown-filtered read of
    that one column, not the whole table."""
    import pyarrow.dataset as pads

    emb = pads.dataset(f"{sf_dir}/embeddings.parquet").to_table(
        columns=["embedding"], filter=pads.field("vec_id") == 0)["embedding"]
    return np.asarray(emb[0].as_py(), dtype=np.float64)


ORACLE_ANN_TOPK = """
SELECT e.vec_id,
       round(list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), CAST(q.embedding AS DOUBLE[])), 6) AS score
FROM embeddings e, (SELECT embedding FROM embeddings WHERE vec_id = 0) q
ORDER BY score DESC, e.vec_id
LIMIT 10
"""


@query("ann_topk", oracle=ORACLE_ANN_TOPK)
def q_ann_topk(sf_dir: str):
    """Brute-force cosine top-10 vs a broadcast query vector (the ANN
    baseline: numpy matmul per batch against the broadcast query)."""
    import ray

    qv = _query_vec(sf_dir)
    qref = ray.put(qv / np.linalg.norm(qv))

    from odinson_ray.stages.link import get_broadcast

    def score(t: pa.Table) -> pa.Table:
        q = get_broadcast(qref)
        mat = np.array(t["embedding"].to_pylist(), dtype=np.float64)
        norms = np.linalg.norm(mat, axis=1)
        cos = (mat @ q) / np.where(norms == 0, 1.0, norms)
        return pa.Table.from_pydict(
            {"vec_id": t["vec_id"], "score": pa.array(np.round(cos, 6), pa.float64())}
        )

    ds = table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    from odinson_ray.stages.shuffle import global_topk

    return global_topk(
        ds.map_batches(score, batch_format="pyarrow"),
        ["score", "vec_id"], [True, False], 10,
    )


ORACLE_EMBEDDING_NEARDUP = """
SELECT a.vec_id AS a_id, b.vec_id AS b_id, a.label AS label
FROM embeddings a JOIN embeddings b
  ON a.label = b.label AND a.vec_id < b.vec_id
WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]), CAST(b.embedding AS DOUBLE[])) >= 0.4
"""


@query("embedding_neardup", oracle=ORACLE_EMBEDDING_NEARDUP)
def q_embedding_neardup(sf_dir: str):
    """Near-duplicate pairs by cosine >= 0.4 within label blocks.

    Exact (hash-exact oracle) but skew-bounded: rows are hashed into
    per-label chunks and every chunk pair is one bounded task
    (``blocked_cosine_pairs``, stages/ann.py) — a hot label distributes
    over its chunk pairs instead of becoming one unbounded matmul."""
    from odinson_ray.stages.ann import blocked_cosine_pairs

    ds = table(sf_dir, "embeddings",
               columns=["vec_id", "label", "embedding"])
    pairs = blocked_cosine_pairs(ds, key_col="label", id_col="vec_id",
                                 vec_col="embedding", threshold=0.4)
    return pairs.map_batches(
        lambda t: t.set_column(t.column_names.index("label"), "label",
                               pc.cast(t["label"], pa.int64())),
        batch_format="pyarrow",
    )


@query("ann_lsh_topk")
def q_ann_lsh_topk(sf_dir: str):
    """LSH-bucketed approximate top-k (scale path): reads only the probe
    partitions of the persisted bucket-partitioned parquet layout, so
    query cost is independent of corpus size. No SQL oracle — rows-only
    driver check; recall vs brute force asserted in pytest."""
    from odinson_ray.stages.ann import lsh_topk

    return lsh_topk(sf_dir, _query_vec(sf_dir), k=10)


@query("ann_ivf_topk")
def q_ann_ivf_topk(sf_dir: str):
    """IVF-bucketed approximate top-k: lists are Voronoi cells of
    distributed-k-means centroids (stages/ann.py build_ivf_layout);
    queries probe only the nprobe nearest lists. No SQL oracle —
    rows-only driver check; recall vs brute force asserted in pytest."""
    from odinson_ray.stages.ann import ivf_topk

    return ivf_topk(sf_dir, _query_vec(sf_dir), k=10)


ORACLE_KMEANS_CLUSTERS = """
WITH emb AS (
  SELECT vec_id, embedding::DOUBLE[] AS e FROM embeddings
),
c0 AS (
  SELECT vec_id AS cluster, e AS c FROM emb WHERE vec_id < 8
),
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
    SELECT a1.cluster,
           unnest(emb.e) AS v,
           unnest(generate_series(1, len(emb.e))) AS i
    FROM a1 JOIN emb USING (vec_id)
  ) GROUP BY cluster, i
),
c1 AS (
  SELECT cluster, list(m ORDER BY i) AS c FROM means GROUP BY cluster
)
SELECT vec_id, cluster FROM (
  SELECT emb.vec_id, c1.cluster,
         row_number() OVER (PARTITION BY emb.vec_id
                            ORDER BY list_distance(emb.e, c1.c), c1.cluster) AS rn
  FROM emb CROSS JOIN c1
) WHERE rn = 1
"""


@query("kmeans_clusters", oracle=ORACLE_KMEANS_CLUSTERS)
def q_kmeans_clusters(sf_dir: str):
    """Distributed Lloyd k-means over embeddings (k=8, one refinement):
    broadcast centroids, vectorized per-batch assignment, k-sized partial
    sums — the oracle unrolls the same two assignment rounds in SQL."""
    from odinson_ray.stages.sample import kmeans_assign

    return kmeans_assign(sf_dir, k=8, refinements=1)


# ================================================================== k-NN join


ORACLE_KNN_JOIN = """
WITH q AS (
  SELECT vec_id AS query_id, CAST(embedding AS DOUBLE[]) AS qe
  FROM embeddings WHERE vec_id < 5
),
s AS (
  SELECT q.query_id, e.vec_id,
         round(list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), q.qe), 6) AS score
  FROM embeddings e, q
),
r AS (
  SELECT *, row_number() OVER (PARTITION BY query_id ORDER BY score DESC, vec_id) AS rn
  FROM s
)
SELECT query_id, vec_id, score FROM r WHERE rn <= 5
"""


@query("knn_join", oracle=ORACLE_KNN_JOIN)
def q_knn_join(sf_dir: str):
    """Batched k-NN JOIN: for each of the 5 query embeddings (vec_id < 5),
    the top-5 corpus neighbors by cosine. The query matrix is the small
    side: filtered AS A DATASET, collected (5 rows), broadcast once; each
    batch computes one matmul against all queries and keeps its per-query
    top-5 BEFORE the shuffle (exact: rounded-score desc + vec_id asc is a
    total order), so the final per-query groupby sorts <= 5 x num_batches
    rows. Ranking uses the ROUNDED score on both sides (tie-safe vs the
    SQL row_number oracle)."""
    import ray

    K = 5

    qdf = (
        table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
        .map_batches(lambda t: t.filter(pc.less(t["vec_id"], 5)),
                     batch_format="pyarrow")
        .to_pandas()
        .sort_values("vec_id")
    )
    Q = np.array([np.asarray(v, dtype=np.float64) for v in qdf.embedding])
    Q = Q / np.linalg.norm(Q, axis=1, keepdims=True)
    qids = qdf.vec_id.to_numpy(dtype=np.int64)
    qref = ray.put((qids, Q))

    from odinson_ray.stages.link import get_broadcast

    def score(t: pa.Table) -> pa.Table:
        qids_, Q_ = get_broadcast(qref)
        mat = np.array(t["embedding"].to_pylist(), dtype=np.float64)
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        S = np.round((mat / np.where(norms == 0, 1.0, norms)) @ Q_.T, 6)
        vids = np.asarray(t["vec_id"].to_pylist(), dtype=np.int64)
        out_q, out_v, out_s = [], [], []
        for j, qid in enumerate(qids_):
            order = np.lexsort((vids, -S[:, j]))[:K]
            out_q.extend([qid] * len(order))
            out_v.extend(vids[order])
            out_s.extend(S[order, j])
        return pa.table({
            "query_id": pa.array(np.asarray(out_q, dtype=np.int64)),
            "vec_id": pa.array(np.asarray(out_v, dtype=np.int64)),
            "score": pa.array(np.asarray(out_s, dtype=np.float64)),
        })

    def final_topk(g: pa.Table) -> pa.Table:
        vids = np.asarray(g["vec_id"].to_pylist(), dtype=np.int64)
        scores = np.asarray(g["score"].to_pylist(), dtype=np.float64)
        order = np.lexsort((vids, -scores))[:K]
        return pa.table({
            "query_id": pc.take(g["query_id"], pa.array(order)),
            "vec_id": pa.array(vids[order]),
            "score": pa.array(scores[order]),
        })

    return (
        table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
        .map_batches(score, batch_format="pyarrow")
        .groupby("query_id")
        .map_groups(final_topk, batch_format="pyarrow")
    )


# ===================================== fuzzy string join (edit distance <= 1)
def _lev_le1(a: str, b: str) -> bool:
    """Exact edit-distance<=1 test (cheap two-pointer; verify step only)."""
    if a == b:
        return True
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return False
    if la > lb:
        a, b, la, lb = b, a, lb, la
    i = j = diff = 0
    while i < la and j < lb:
        if a[i] == b[j]:
            i += 1
            j += 1
            continue
        diff += 1
        if diff > 1:
            return False
        if la == lb:
            i += 1
        j += 1
    return True


ORACLE_FUZZY_WORD_PAIRS = """
WITH v AS (
  SELECT DISTINCT w FROM (
    SELECT unnest(string_split(p_name, ' ')) AS w FROM part)
)
SELECT a.w AS a, b.w AS b
FROM v a JOIN v b ON a.w < b.w AND levenshtein(a.w, b.w) <= 1
"""


@query("fuzzy_word_pairs", oracle=ORACLE_FUZZY_WORD_PAIRS)
def q_fuzzy_word_pairs(sf_dir: str):
    """Fuzzy self-join of the part-name vocabulary at edit distance <= 1,
    SymSpell-shaped: each word blocks on itself plus every
    single-character deletion (exact recall for d<=1 — a substitution
    shares a deletion key, an insertion's longer word deletes down to
    the shorter), fingerprint-blocked candidates pair inside one coarse
    exchange on the key (tiny-group rule, r4 sweep — one group per
    fingerprint would dispatch one task per vocabulary variant), and an
    exact verify filters. The shuffle key is the deletion fingerprint —
    the full vocabulary never cross-products."""
    from ray.data.aggregate import Count

    def vocab(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t["p_name"], " ")
        return pa.table({"w": pc.list_flatten(toks)})

    words = combine_aggregate(
        table(sf_dir, "part", columns=["p_name"])
        .map_batches(vocab, batch_format="pyarrow"),
        "w", [])

    def expand(t: pa.Table) -> pa.Table:
        keys: list = []
        ws: list = []
        for w in t["w"].to_pylist():
            keys.append(w)
            ws.append(w)
            for i in range(len(w)):
                keys.append(w[:i] + w[i + 1:])
                ws.append(w)
        return pa.table({"k": pa.array(keys, pa.string()),
                         "w": pa.array(ws, pa.string())})

    def pairs_partition(g: pa.Table) -> pa.Table:
        nrow = g.num_rows
        ks = np.asarray(g["k"].to_pylist(), dtype=object)
        ws = np.asarray(g["w"].to_pylist(), dtype=object)
        # drop (k, w) duplicates, find fingerprint runs
        newr = np.ones(nrow, dtype=bool)
        newr[1:] = (ks[1:] != ks[:-1]) | (ws[1:] != ws[:-1])
        ks, ws = ks[newr], ws[newr]
        newk = np.ones(len(ks), dtype=bool)
        newk[1:] = ks[1:] != ks[:-1]
        bounds = np.append(np.flatnonzero(newk), len(ks))
        a: list = []
        b: list = []
        for i in range(len(bounds) - 1):
            s_, e_ = bounds[i], bounds[i + 1]
            run = ws[s_:e_]
            for x_i in range(len(run)):
                x = run[x_i]
                for y in run[x_i + 1:]:
                    if _lev_le1(x, y):
                        a.append(x)
                        b.append(y)
        return pa.table({"a": pa.array(a, pa.string()),
                         "b": pa.array(b, pa.string())})

    cand = coarse_groups(words.map_batches(expand, batch_format="pyarrow"),
                         ["k"], pairs_partition, ["w"])
    # a pair can collide under several deletion keys: dedup
    return (
        cand.groupby(["a", "b"]).aggregate(Count(alias_name="_c"))
        .drop_columns(["_c"])
    )


# ===================================== embedding norms (vector kernel)


ORACLE_EMBEDDING_NORM_TOPK = """
SELECT vec_id,
       round(sqrt(list_sum(list_transform(embedding,
                  x -> CAST(x AS DOUBLE) * CAST(x AS DOUBLE)))), 6) AS norm
FROM embeddings
ORDER BY norm DESC, vec_id ASC LIMIT 10
"""


@query("embedding_norm_topk", oracle=ORACLE_EMBEDDING_NORM_TOPK)
def q_embedding_norm_topk(sf_dir: str, k: int = 10):
    """Top-k embedding vectors by L2 norm (round 6, vec_id asc tie-break):
    per-batch zero-copy reshape of the fixed-width list column into an
    (n, d) numpy matrix, one vectorized norm, then the pruned global
    top-k."""
    from odinson_ray.stages.shuffle import global_topk

    def norms(t: pa.Table) -> pa.Table:
        col = t["embedding"].combine_chunks()
        flat = pc.list_flatten(col).to_numpy(zero_copy_only=False)
        mat = flat.reshape(len(t), -1)
        return pa.table({
            "vec_id": t["vec_id"],
            "norm": pa.array(np.round(np.sqrt((mat * mat).sum(axis=1)), 6),
                             pa.float64()),
        })

    ds = table(sf_dir, "embeddings",
               columns=["vec_id", "embedding"])
    return global_topk(ds.map_batches(norms, batch_format="pyarrow"),
                       ["norm", "vec_id"], [True, False], k)


# ===================================== per-label embedding centroids


ORACLE_EMBEDDING_CENTROIDS = """
WITH flat AS (
  SELECT label, unnest(embedding) AS v,
         generate_subscripts(embedding, 1) AS dim
  FROM embeddings
)
SELECT CAST(label AS INTEGER) AS label, CAST(dim AS INTEGER) AS dim,
       round(avg(CAST(v AS DOUBLE)), 6) AS centroid
FROM flat GROUP BY label, dim
"""


@query("embedding_centroids", oracle=ORACLE_EMBEDDING_CENTROIDS)
def q_embedding_centroids(sf_dir: str):
    """Per-label per-dimension centroid of the embedding column in long
    format (label, dim, centroid round 6): per-batch (n, d) matrix
    reshape + one np.add.at per label -> (label, dim, psum, pn) partial
    rows (|labels| x d per batch), one groupby finishes the mean. The
    vector column itself never shuffles."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        col = t["embedding"].combine_chunks()
        flat = pc.list_flatten(col).to_numpy(zero_copy_only=False).astype(np.float64)
        mat = flat.reshape(len(t), -1)
        d = mat.shape[1]
        labels = t["label"].to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(labels, return_inverse=True)
        sums = np.zeros((len(uniq), d))
        np.add.at(sums, inv, mat)
        counts = np.bincount(inv, minlength=len(uniq))
        return pa.table({
            "label": pa.array(np.repeat(uniq, d), pa.int32()),
            "dim": pa.array(np.tile(np.arange(1, d + 1), len(uniq)), pa.int32()),
            "_s": pa.array(sums.ravel(), pa.float64()),
            "_n": pa.array(np.repeat(counts, d).astype(np.int64)),
        })

    sums = (
        table(sf_dir, "embeddings",
              columns=["embedding", "label"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["label", "dim"])
        .aggregate(Sum("_s", alias_name="s"), Sum("_n", alias_name="n"))
    )
    return sums.map_batches(
        lambda t: pa.table({
            "label": t["label"],
            "dim": t["dim"],
            "centroid": pa.array(
                np.round(t["s"].to_numpy(zero_copy_only=False)
                         / t["n"].to_numpy(zero_copy_only=False), 6),
                pa.float64()),
        }),
        batch_format="pyarrow")


# ===================================== PQ ANN (compressed scan + rerank)
@query("ann_pq_topk")
def q_ann_pq_topk(sf_dir: str):
    """Approximate cosine top-10 via product quantization: 8-byte/vector
    ADC code scan + exact rerank of a 100-candidate shortlist
    (stages/ann.pq_topk). Approximate BY DESIGN -> no SQL oracle; the
    pytest pins recall@10 against the brute-force baseline. Scores are
    EXACT cosine (rerank), so overlapping rows hash-match ann_topk's."""
    from odinson_ray.stages.ann import pq_topk

    return pq_topk(sf_dir, _query_vec(sf_dir), k=10)


# ===================================== distributed covariance matrix


ORACLE_EMBEDDING_COV = """
WITH e AS (
  SELECT vec_id, unnest(embedding) AS v,
         generate_subscripts(embedding, 1) AS idx
  FROM embeddings
)
SELECT a.idx AS i, b.idx AS j, round(covar_pop(a.v, b.v), 8) AS cov
FROM e a JOIN e b ON a.vec_id = b.vec_id AND a.idx <= b.idx
GROUP BY a.idx, b.idx
"""


@query("embedding_cov", oracle=ORACLE_EMBEDDING_COV)
def q_embedding_cov(sf_dir: str):
    """Full d x d covariance matrix of the embedding column from
    sufficient statistics: each batch contributes ONE partial row
    (n, sum-vector, sum-of-outer-products matrix) computed with a single
    einsum — vectors never shuffle, and the reduce tree merges
    fixed-size (d^2 + d + 1)-float rows (two levels: content-salted
    groupby, then a <=64-row driver fold), so the reduce cost is
    independent of corpus size. Output is the upper triangle in long
    (i, j, cov) form, 1-based to match SQL generate_subscripts."""
    import hashlib as _hl

    def partial(t: pa.Table) -> pa.Table:
        x = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
        n = x.shape[0]
        s = x.sum(axis=0)
        ss = np.einsum("ni,nj->ij", x, x)
        salt = int.from_bytes(_hl.md5(s.tobytes()).digest()[:4], "little") % 64
        return pa.table({
            "_g": pa.array([salt], pa.int32()),
            "n": pa.array([n], pa.int64()),
            "s": pa.array([s.tolist()], pa.list_(pa.float64())),
            "ss": pa.array([ss.ravel().tolist()], pa.list_(pa.float64())),
        })

    def merge(g: pa.Table) -> pa.Table:
        n = int(pc.sum(g["n"]).as_py())
        s = np.asarray(g["s"].to_pylist(), dtype=np.float64).sum(axis=0)
        ss = np.asarray(g["ss"].to_pylist(), dtype=np.float64).sum(axis=0)
        return pa.table({
            "_g": pa.array([0], pa.int32()),
            "n": pa.array([n], pa.int64()),
            "s": pa.array([s.tolist()], pa.list_(pa.float64())),
            "ss": pa.array([ss.tolist()], pa.list_(pa.float64())),
        })

    parts = (
        table(sf_dir, "embeddings", columns=["embedding"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("_g")
        .map_groups(merge, batch_format="pyarrow")
        .to_pandas()
    )
    n = int(parts["n"].sum())
    s = np.asarray(parts["s"].tolist(), dtype=np.float64).sum(axis=0)
    ss = np.asarray(parts["ss"].tolist(), dtype=np.float64).sum(axis=0)
    d = s.shape[0]
    mean = s / n
    cov = ss.reshape(d, d) / n - np.outer(mean, mean)
    iu, ju = np.triu_indices(d)
    return pd.DataFrame({
        "i": (iu + 1).astype(np.int64),
        "j": (ju + 1).astype(np.int64),
        "cov": np.round(cov[iu, ju], 8),
    })


# ===================================== contrastive hard-negative mining


ORACLE_HARD_NEGATIVES = """
WITH anchors AS (
  SELECT vec_id AS anchor_id, label AS alabel, embedding AS aemb
  FROM embeddings WHERE vec_id < 10
),
scored AS (
  SELECT a.anchor_id, e.vec_id AS neg_id,
         round(list_cosine_similarity(CAST(e.embedding AS DOUBLE[]),
                                      CAST(a.aemb AS DOUBLE[])), 6) AS score
  FROM anchors a JOIN embeddings e ON e.label <> a.alabel
),
ranked AS (
  SELECT *, row_number() OVER (PARTITION BY anchor_id
                               ORDER BY score DESC, neg_id) AS rn
  FROM scored
)
SELECT anchor_id, neg_id, score FROM ranked WHERE rn <= 3
"""


@query("hard_negatives", oracle=ORACLE_HARD_NEGATIVES)
def q_hard_negatives(sf_dir: str, n_anchors: int = 10, k: int = 3):
    """Hard-negative mining for contrastive training: for each anchor
    (vec_id < 10), the top-3 most-similar corpus vectors with a
    DIFFERENT label — the examples a contrastive loss learns most from.
    Same broadcast-queries + per-batch-matmul + per-batch top-k prune
    shape as knn_join, plus the label-inequality mask applied inside the
    batch kernel (no post-hoc filter that could break top-k exactness)."""
    import ray

    from odinson_ray.stages.link import get_broadcast

    qdf = (
        table(sf_dir, "embeddings",
              columns=["vec_id", "embedding", "label"])
        .map_batches(lambda t: t.filter(pc.less(t["vec_id"], n_anchors)),
                     batch_format="pyarrow")
        .to_pandas()
        .sort_values("vec_id")
    )
    Q = np.array([np.asarray(v, dtype=np.float64) for v in qdf.embedding])
    Q = Q / np.linalg.norm(Q, axis=1, keepdims=True)
    qids = qdf.vec_id.to_numpy(dtype=np.int64)
    qlabels = qdf.label.to_numpy(dtype=np.int64)
    qref = ray.put((qids, qlabels, Q))

    def score(t: pa.Table) -> pa.Table:
        qids_, qlabels_, Q_ = get_broadcast(qref)
        mat = np.array(t["embedding"].to_pylist(), dtype=np.float64)
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        S = np.round((mat / np.where(norms == 0, 1.0, norms)) @ Q_.T, 6)
        vids = np.asarray(t["vec_id"].to_pylist(), dtype=np.int64)
        labels = np.asarray(t["label"].to_pylist(), dtype=np.int64)
        out_q, out_v, out_s = [], [], []
        for j, qid in enumerate(qids_):
            ok = labels != qlabels_[j]
            if not ok.any():
                continue
            cand_v, cand_s = vids[ok], S[ok, j]
            order = np.lexsort((cand_v, -cand_s))[:k]
            out_q.extend([qid] * len(order))
            out_v.extend(cand_v[order])
            out_s.extend(cand_s[order])
        return pa.table({
            "anchor_id": pa.array(np.asarray(out_q, dtype=np.int64)),
            "neg_id": pa.array(np.asarray(out_v, dtype=np.int64)),
            "score": pa.array(np.asarray(out_s, dtype=np.float64)),
        })

    # final per-anchor top-k via grouped_topk: per-batch combiner + coarse
    # segmented selection (tiny-group rule, r4 sweep — one group per
    # anchor would dispatch one task per vector)
    from odinson_ray.stages.shuffle import grouped_topk

    scored = table(
        sf_dir, "embeddings",
        columns=["vec_id", "embedding", "label"],
    ).map_batches(score, batch_format="pyarrow")
    return grouped_topk(scored, by="anchor_id",
                        cols=["score", "neg_id"],
                        descending=[True, False], k=k)


# ===================================== distributed PCA (top component)
@query("pca_topcomp")  # no oracle BY DESIGN
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

    parts = (table(sf_dir, "embeddings",
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


# ===================================== MMR diversified re-ranking (RAG)


def _mmr_oracle(pool: int = 50, k: int = 5, lam: float = 0.7) -> str:
    """Unrolled greedy: p1 = relevance argmax; each later step keeps the
    running max-similarity-to-selected (GREATEST fold) and re-argmaxes
    the MMR expression. Same 6dp rounding as the Ray side."""
    steps = []
    prev_r = "cand_r0"
    sel = ["SELECT 1 AS rank, vec_id, s FROM p1"]
    head = f"""
WITH q AS (SELECT CAST(embedding AS DOUBLE[]) AS v FROM embeddings
           WHERE vec_id = 0),
cand AS (
  SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v,
         round(list_cosine_similarity(CAST(embedding AS DOUBLE[]), q.v),
               6) AS s
  FROM embeddings, q
  ORDER BY s DESC, vec_id LIMIT {pool}
),
p1 AS (SELECT vec_id, v, s FROM cand ORDER BY s DESC, vec_id LIMIT 1),
cand_r0 AS (
  SELECT c.vec_id, c.v, c.s,
         round(list_cosine_similarity(c.v, p1.v), 6) AS m
  FROM cand c, p1 WHERE c.vec_id != p1.vec_id
)"""
    for i in range(2, k + 1):
        steps.append(f"""
p{i} AS (SELECT vec_id, v, s FROM {prev_r}
       ORDER BY {lam}*s - {1.0 - lam}*m DESC, vec_id LIMIT 1)""")
        sel.append(f"SELECT {i} AS rank, vec_id, s FROM p{i}")
        if i < k:
            steps.append(f"""
cand_r{i - 1} AS (
  SELECT r.vec_id, r.v, r.s,
         GREATEST(r.m, round(list_cosine_similarity(r.v, p{i}.v), 6)) AS m
  FROM {prev_r} r, p{i} WHERE r.vec_id != p{i}.vec_id
)""")
            prev_r = f"cand_r{i - 1}"
    return (head + "," + ",".join(steps)
            + "\nSELECT CAST(rank AS BIGINT) AS rank, vec_id, s FROM ("
            + " UNION ALL ".join(sel) + ") ORDER BY rank")


ORACLE_MMR_RERANK = _mmr_oracle()


@query("mmr_rerank", oracle=ORACLE_MMR_RERANK)
def q_mmr_rerank(sf_dir: str, pool: int = 50, k: int = 5,
                 lam: float = 0.7):
    """Maximal Marginal Relevance re-ranking — the RAG retrieval step
    after ANN: fetch a ``pool``-sized cosine top-k DISTRIBUTED (per-batch
    matmul + prune, the ann_topk machinery, embeddings carried through
    the sort), then greedily select ``k`` results maximizing
    lam*sim(q,d) - (1-lam)*max sim(d, selected).

    The greedy stage is inherently sequential and runs on the driver
    over the POOL ONLY (<= ``pool`` rows — k-bounded like every other
    final selection here; the corpus-sized work is all in the
    distributed candidate stage). All similarities are rounded to 6dp
    BEFORE the greedy arithmetic, the exact values the oracle's
    list_cosine_similarity produces, so the argmax sequence (ties ->
    smaller vec_id) is reproducible bit-for-bit."""
    import ray
    import ray.data as rdn

    from odinson_ray.stages.link import get_broadcast

    qv = _query_vec(sf_dir)
    qref = ray.put(qv / np.linalg.norm(qv))

    def score(t: pa.Table) -> pa.Table:
        q = get_broadcast(qref)
        mat = np.array(t["embedding"].to_pylist(), dtype=np.float64)
        if mat.size == 0:
            return pa.table({"vec_id": pa.array([], pa.int64()),
                             "s": pa.array([], pa.float64()),
                             "embedding": t["embedding"]})
        norms = np.linalg.norm(mat, axis=1)
        cos = (mat @ q) / np.where(norms == 0, 1.0, norms)
        return pa.table({"vec_id": t["vec_id"],
                         "s": pa.array(np.round(cos, 6), pa.float64()),
                         "embedding": t["embedding"]})

    cands = global_topk(
        table(sf_dir, "embeddings",
              columns=["vec_id", "embedding"])
        .map_batches(score, batch_format="pyarrow"),
        ["s", "vec_id"], [True, False], pool)
    tbl = pa.concat_tables(list(cands.iter_batches(batch_format="pyarrow")))

    ids = tbl["vec_id"].to_numpy(zero_copy_only=False)
    sq = tbl["s"].to_numpy(zero_copy_only=False)
    mat = np.array(tbl["embedding"].to_pylist(), dtype=np.float64)
    norms = np.linalg.norm(mat, axis=1)
    unit = mat / np.where(norms == 0, 1.0, norms)[:, None]
    pair = np.round(unit @ unit.T, 6)  # pool x pool, 6dp like the oracle

    n = len(ids)
    selected: list[int] = []
    remaining = np.ones(n, dtype=bool)
    for _ in range(min(k, n)):
        if not selected:
            mmr = lam * sq.copy()
        else:
            div = pair[:, selected].max(axis=1)
            mmr = lam * sq - (1.0 - lam) * div
        mmr = np.where(remaining, mmr, -np.inf)
        pick = np.lexsort((ids, -mmr))[0]
        selected.append(int(pick))
        remaining[pick] = False

    return rdn.from_arrow(pa.table({
        "rank": pa.array(range(1, len(selected) + 1), pa.int64()),
        "vec_id": pa.array(ids[selected], pa.int64()),
        "s": pa.array(sq[selected], pa.float64()),
    }))
