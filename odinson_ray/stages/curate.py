"""Training-data curation operators beyond dedup: benchmark
decontamination, semantic dedup (SemDeDup-style), repetition signals
(Gopher-style), and fixed-window sequence chunking.

All four follow the same scale discipline as the rest of the repo:
per-batch vectorized maps for the embarrassingly-parallel parts, ONE
small broadcast (`ray.put` once, resolved once per worker) where a
shared lookup is needed, and a bounded `groupby` only where semantics
require co-location (semdedup's within-cluster pass).

- ``decontaminate``: drop/flag training docs sharing token n-grams with a
  held-out evaluation set. The eval side is small BY CONSTRUCTION (a
  benchmark suite, not a corpus slice, in production), so its distinct
  n-gram set broadcasts; the corpus streams through one map_batches with
  zero shuffle. This is the standard pre-training decontamination step
  (GPT-3 appendix C / Gopher A.2-style n-gram overlap).
- ``semdedup``: k-means-cluster the embedding table (reusing
  stages/sample.kmeans_centroids), then prune within each cluster any
  vector whose cosine similarity to a lower-id kept candidate exceeds
  ``tau`` (SemDeDup, Abbas et al. 2023: semantic dedup = cheap global
  clustering + exact pairwise only inside clusters). The all-pairs work
  is bounded per cluster; at real scale ``k`` grows with the corpus so
  clusters stay task-sized (same trade documented for the blocked
  Jaccard dedup in stages/dedup.py).
- ``repetition_signals``: per-doc duplicate-token fraction and
  top-bigram fraction (Gopher's repetition filters, token-count flavor).
  Fully vectorized: one factorize + grouped counts per batch, no Python
  per-row loop.
- ``pack_chunks``: split each doc's token stream into fixed-width
  windows with a stride (training-sequence preparation). Pure
  per-batch numpy index arithmetic; no shuffle.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


# ------------------------------------------------------------- decontaminate

def _doc_ngrams(tokens: list, n: int) -> set:
    return {" ".join(tokens[i : i + n]) for i in range(len(tokens) - n + 1)}


def eval_ngram_set(docs, n: int = 5, eval_mod: int = 97) -> frozenset:
    """Distinct token n-grams of the evaluation slice (doc_id % eval_mod
    == 0 — the sandbox stand-in for 'the benchmark suite'). Per-batch
    dedup happens in the workers; only distinct grams per batch reach the
    driver, and the final set is benchmark-sized, not corpus-sized."""

    def grams_batch(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        keep = ids % eval_mod == 0
        out: set = set()
        for text in t.filter(pa.array(keep))["text"].to_pylist():
            out |= _doc_ngrams(text.split(" "), n)
        return pa.table({"g": pa.array(sorted(out), pa.string())})

    grams: set = set()
    for batch in docs.map_batches(grams_batch, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        grams.update(batch["g"].to_pylist())
    return frozenset(grams)


def decontaminate(sf_dir: str, n: int = 5, eval_mod: int = 97):
    """Flag training docs contaminated by the eval set: returns
    (doc_id, n_shared) for every NON-eval doc sharing >= 1 distinct
    token n-gram with any eval doc.

    One corpus read builds the (small) eval gram set, a second streams
    the corpus through a single zero-shuffle map_batches against the
    broadcast set. The per-doc gram/set intersection is a Python loop
    over tokens — unavoidable for set membership, same shape as the
    reference's shingling — but everything around it is columnar.
    """
    import ray
    from ..sources.io import table

    from .link import get_broadcast

    docs = table(sf_dir, "documents", columns=["doc_id", "text"])
    ref = ray.put(eval_ngram_set(docs, n, eval_mod))

    def flag(t: pa.Table) -> pa.Table:
        grams = get_broadcast(ref)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        texts = t["text"].to_pylist()
        out_ids, out_hits = [], []
        for did, text in zip(ids, texts):
            if did % eval_mod == 0:
                continue
            hits = len(_doc_ngrams(text.split(" "), n) & grams)
            if hits:
                out_ids.append(int(did))
                out_hits.append(hits)
        return pa.table(
            {
                "doc_id": pa.array(out_ids, pa.int64()),
                "n_shared": pa.array(out_hits, pa.int64()),
            }
        )

    return docs.map_batches(flag, batch_format="pyarrow")


# ------------------------------------------------------------------ semdedup

TARGET_CLUSTER_ROWS = 4096  # semdedup auto-k aims for ~this many rows/cluster


def clusters_for_rows(n_rows: int, target: int = TARGET_CLUSTER_ROWS,
                      floor: int = 8) -> int:
    """Corpus-proportional cluster count: ceil(rows / target cluster
    size), floored at the test-scale default — the `ann.planes_for_rows`
    policy applied to k-means, so per-cluster all-pairs work stays
    roughly constant as the corpus grows (a 10^9-row corpus gets ~244k
    clusters, not 8 corpus/8-sized ones)."""
    import math

    if n_rows <= 0:
        return floor
    return max(floor, math.ceil(n_rows / target))


def semdedup(sf_dir: str, k: Optional[int] = None, refinements: int = 1,
             tau: float = 0.4, max_cluster_rows: int = 8 * TARGET_CLUSTER_ROWS,
             target_cluster_rows: int = TARGET_CLUSTER_ROWS):
    """SemDeDup-style semantic dedup over the embeddings table: returns
    the KEPT rows (vec_id, cluster).

    A vector is dropped when a lower-id vector IN THE SAME CLUSTER has
    cosine similarity >= tau to it (lower id = kept representative;
    deterministic, matches the SQL oracle's NOT EXISTS formulation —
    note the dropped set is defined against ALL lower-id cluster
    members, not only kept ones, which is SemDeDup's one-shot variant
    and keeps the semantics order-independent).

    Scale shape: the only wide op is the cluster groupby; the all-pairs
    cosine runs vectorized inside each cluster's task. ``k=None``
    (default) derives k from the corpus row count via
    ``clusters_for_rows`` so clusters stay task-sized; the pinned
    ``k=8`` path remains for the SQL oracle, whose seed set is
    hardwired. ``max_cluster_rows`` is the skew backstop: k-means can
    still emit a pathological giant cluster, and an O(n^2) prune on it
    would stall the stage — rows past the cap (in vec_id order) are
    KEPT unexamined (fail-open: dedup never silently drops data it
    didn't compare) and the overflow is counted and logged per group,
    the `shared_passage_pairs(max_window_docs)` pattern.
    """
    import ray
    from ..sources.io import table

    from .link import get_broadcast
    from .sample import _argmin_sqdist, _embedding_matrix, kmeans_centroids

    ds = table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    if k is None:
        k = clusters_for_rows(ds.count(), target=target_cluster_rows)

    centroids, cluster_ids = kmeans_centroids(sf_dir, k, refinements)
    ref = ray.put((np.asarray(centroids), list(cluster_ids)))

    def assign(t: pa.Table) -> pa.Table:
        C, ids = get_broadcast(ref)
        emb = _embedding_matrix(t)
        a = _argmin_sqdist(emb, C)
        return t.append_column("cluster", pa.array([ids[i] for i in a], pa.int64()))

    def prune(g: pd.DataFrame) -> pd.DataFrame:
        ids = g["vec_id"].to_numpy()
        order = np.argsort(ids)
        ids = ids[order]
        overflow = max(0, len(ids) - max_cluster_rows)
        if overflow:
            import logging

            logging.getLogger(__name__).warning(
                "semdedup: cluster %s has %d rows (> cap %d); keeping %d "
                "rows unexamined (fail-open)",
                g["cluster"].iloc[0], len(ids), max_cluster_rows, overflow)
        head = ids[:max_cluster_rows]
        mat = np.array([np.asarray(v, dtype=np.float64)
                        for v in g["embedding"]])[order][:max_cluster_rows]
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        mat = mat / np.where(norms == 0, 1.0, norms)
        # drop row j if any i<j has sim >= tau (ids sorted ascending;
        # the dropped set is defined vs ALL lower ids, so column tiles
        # are independent). Tiled: a full cap x cap float64 sim matrix
        # at the 32k default cap would be ~8.6 GB in one task — tiles
        # bound peak memory at cap x tile (~268 MB at 1024)
        m = len(head)
        dup = np.zeros(m, dtype=bool)
        TILE = 1024
        for j0 in range(1, m, TILE):
            j1 = min(j0 + TILE, m)
            sim_t = mat[:j1] @ mat[j0:j1].T  # rows i < j1, cols j0..j1
            hits = sim_t >= tau
            # mask i >= j within the tile
            rows = np.arange(j1)[:, None]
            cols = np.arange(j0, j1)[None, :]
            hits &= rows < cols
            dup[j0:j1] = hits.any(axis=0)
        kept = np.concatenate([head[~dup], ids[max_cluster_rows:]])
        return pd.DataFrame(
            {
                "vec_id": kept.astype("int64"),
                "cluster": np.full(len(kept), int(g["cluster"].iloc[0]), dtype="int64"),
            }
        )

    return (
        ds.map_batches(assign, batch_format="pyarrow")
        .groupby("cluster")
        .map_groups(prune, batch_format="pandas")
    )


# -------------------------------------------------------- repetition_signals

def repetition_batch(t: pa.Table) -> pa.Table:
    """Vectorized Gopher-style repetition metrics for one batch:
    duplicate-token fraction (1 - distinct/total) and top-bigram
    fraction (2 * max bigram count / n_tokens; 0 for single-token docs).
    One np.unique factorize + two grouped counts — no per-row loop."""
    toks = pc.split_pattern(t["text"].combine_chunks(), " ")
    flat = pc.list_flatten(toks).to_numpy(zero_copy_only=False)
    par = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
    n = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
    _, inv = np.unique(flat, return_inverse=True)

    df = pd.DataFrame({"par": par, "code": inv})
    n_distinct = df.groupby("par")["code"].nunique()
    nd = np.zeros(len(t), dtype=np.int64)
    nd[n_distinct.index.to_numpy()] = n_distinct.to_numpy()

    mask = par[1:] == par[:-1] if len(par) > 1 else np.zeros(0, dtype=bool)
    big = pd.DataFrame(
        {"par": par[:-1][mask], "a": inv[:-1][mask], "b": inv[1:][mask]}
    )
    top = np.zeros(len(t), dtype=np.int64)
    if len(big):
        counts = big.groupby(["par", "a", "b"]).size().groupby("par").max()
        top[counts.index.to_numpy()] = counts.to_numpy()

    safe_n = np.where(n == 0, 1, n).astype(np.float64)
    return pa.table(
        {
            "doc_id": t["doc_id"],
            "n_tokens": pa.array(n, pa.int64()),
            "dup_tok_frac": pa.array(
                np.round(1.0 - nd / safe_n, 6), pa.float64()
            ),
            "top_bigram_frac": pa.array(
                np.round(2.0 * top / safe_n, 6), pa.float64()
            ),
        }
    )


def repetition_signals(sf_dir: str):
    from ..sources.io import table

    return table(
        sf_dir, "documents", columns=["doc_id", "text"]
    ).map_batches(repetition_batch, batch_format="pyarrow")


# ------------------------------------------------------------- pack_chunks

def pack_chunks_batch(t: pa.Table, width: int = 32, stride: int = 24) -> pa.Table:
    """Fixed-window token chunking: each doc yields windows starting at
    0, stride, 2*stride, ... while the start is inside the doc; the last
    window may be short. Pure index arithmetic over the flattened token
    array — one np.repeat/arange per batch, no per-doc loop."""
    toks = pc.split_pattern(t["text"].combine_chunks(), " ")
    flat = pc.list_flatten(toks)
    n = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
    offsets = np.concatenate([[0], np.cumsum(n)[:-1]])
    counts = (np.maximum(n - 1, 0) // stride) + 1
    doc_rep = np.repeat(np.arange(len(t)), counts)
    cum = np.concatenate([[0], np.cumsum(counts)[:-1]])
    chunk_id = np.arange(counts.sum()) - np.repeat(cum, counts)
    starts = chunk_id * stride
    lens = np.minimum(width, n[doc_rep] - starts)
    heads = flat.take(pa.array(offsets[doc_rep] + starts, pa.int64()))
    ids = t["doc_id"].combine_chunks().take(pa.array(doc_rep, pa.int64()))
    return pa.table(
        {
            "doc_id": ids,
            "chunk_id": pa.array(chunk_id, pa.int64()),
            "n_tokens": pa.array(lens, pa.int64()),
            "head": heads,
        }
    )


def pack_chunks(sf_dir: str, width: int = 32, stride: int = 24):
    from ..sources.io import table

    return table(
        sf_dir, "documents", columns=["doc_id", "text"]
    ).map_batches(
        lambda t: pack_chunks_batch(t, width, stride), batch_format="pyarrow"
    )


def fuzzy_decontaminate(sf_dir: str, threshold: float = 0.9,
                        eval_mod: int = 10):
    """MinHash-LSH fuzzy decontamination: training docs near-duplicating
    an eval doc (exact 3-shingle jaccard >= threshold after LSH candidate
    generation). Returns (doc_id, eval_id, j) pairs; eval docs are those
    with doc_id % eval_mod == 0 (stand-in for a real benchmark list).

    Scale shape: eval sets are FIXED-SIZE benchmarks, so the eval side's
    band table + texts broadcast once (ray.put) and the corpus streams
    through a single zero-shuffle map_batches — the exact-substring
    ``decontaminate`` twin's shape, with LSH banding instead of n-gram
    membership. Banding (b=32, r=4) misses a j>=0.9 pair with
    probability ~(1-0.9^4)^32 ~ 5e-15, so the output equals the exact
    pair set for oracle purposes (same argument as minhash_neardup)."""
    import hashlib

    import ray

    from ..sources.io import table
    from .link import get_broadcast
    from ..stages.dedup import N_BANDS, ROWS_PER_BAND, _batch_signatures, jaccard

    docs = table(sf_dir, "documents", columns=["doc_id", "text"])

    def _is_eval_mask(t: pa.Table) -> np.ndarray:
        return t["doc_id"].to_numpy(zero_copy_only=False) % eval_mod == 0

    # eval side: small by construction — collect band table + texts
    ev = docs.map_batches(
        lambda t: t.filter(pa.array(_is_eval_mask(t))), batch_format="pyarrow")
    bands: dict = {}
    texts: dict = {}
    for b in ev.iter_batches(batch_format="pyarrow"):
        ids = b["doc_id"].to_pylist()
        txts = b["text"].to_pylist()
        sigs = _batch_signatures(txts)
        for did, txt, sig in zip(ids, txts, sigs):
            texts[int(did)] = txt
            for band in range(N_BANDS):
                h = hashlib.md5(
                    sig[band * ROWS_PER_BAND:(band + 1) * ROWS_PER_BAND].tobytes()
                ).hexdigest()
                bands.setdefault((band, h), []).append(int(did))
    ref = ray.put((bands, texts))

    def flag(t: pa.Table) -> pa.Table:
        ev_bands, ev_texts = get_broadcast(ref)
        t = t.filter(pa.array(~_is_eval_mask(t)))
        ids = t["doc_id"].to_pylist()
        txts = t["text"].to_pylist()
        sigs = _batch_signatures(txts)
        out_id, out_ev, out_j = [], [], []
        for did, txt, sig in zip(ids, txts, sigs):
            cands = set()
            for band in range(N_BANDS):
                h = hashlib.md5(
                    sig[band * ROWS_PER_BAND:(band + 1) * ROWS_PER_BAND].tobytes()
                ).hexdigest()
                cands.update(ev_bands.get((band, h), ()))
            for ev_id in sorted(cands):
                j = round(jaccard(txt, ev_texts[ev_id]), 6)
                if j >= threshold:
                    out_id.append(int(did))
                    out_ev.append(ev_id)
                    out_j.append(j)
        return pa.table({"doc_id": pa.array(out_id, pa.int64()),
                         "eval_id": pa.array(out_ev, pa.int64()),
                         "j": pa.array(out_j, pa.float64())})

    return docs.map_batches(flag, batch_format="pyarrow")
