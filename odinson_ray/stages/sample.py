"""Deterministic sampling + distributed k-means for training-data curation.

- ``stratified_sample``: hash-based per-stratum sampling — the standard
  web-scale pattern (no global shuffle, no RNG state; membership is a pure
  function of the key, so the sample is reproducible and resumable across
  reruns and cluster sizes). Multiplicative (Knuth) hashing keeps the SQL
  oracle exactly expressible.
- ``kmeans_assign``: Lloyd iterations over an embedding column. Centroids
  are k-sized (broadcast via ray.put); assignment + per-cluster partial
  sums run vectorized inside map_batches; only (k x num_batches) partial
  rows ever reach the driver — the corpus streams, iterations scale to any
  table size. Deterministic: init = embeddings of the k smallest vec_ids,
  ties broken toward the lower cluster id.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
import pandas as pd
import pyarrow as pa

KNUTH = 2654435761  # multiplicative hash constant
MOD = 1 << 32


def _bucket(ids: np.ndarray) -> np.ndarray:
    return (ids.astype(np.uint64) * KNUTH) % MOD % 10


def stratified_sample(sf_dir: str, rates: Optional[Dict[str, int]] = None,
                      default_tenths: int = 2):
    """Per-language deterministic sample of documents: keep a row when
    hash(doc_id) lands in the stratum's first ``tenths`` buckets of 10.
    ``rates`` maps lang -> tenths kept (e.g. {"en": 5} keeps ~50% of en)."""
    from ..sources.io import table

    rates = rates or {"en": 5}

    def keep(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        b = _bucket(ids)
        langs = t["lang"].to_pylist()
        thresholds = np.array(
            [rates.get(lang, default_tenths) for lang in langs], dtype=np.uint64
        )
        return t.filter(pa.array(b < thresholds))

    return (
        table(sf_dir, "documents",
              columns=["doc_id", "lang", "text"])
        .map_batches(keep, batch_format="pyarrow")
    )


def _embedding_matrix(t: pa.Table) -> np.ndarray:
    import pyarrow.compute as pc

    flat = pc.list_flatten(t["embedding"]).to_numpy(zero_copy_only=False)
    return flat.reshape(len(t), -1).astype(np.float64)


def _argmin_sqdist(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Nearest-centroid assignment via the expanded form
    -2 x.C^T + |c|^2 (the |x|^2 term is constant per row and dropped):
    O(n*k) working memory instead of the O(n*k*dim) broadcast-expansion
    kernel, which is what makes corpus-proportional k
    (curate.clusters_for_rows) feasible. First minimum = lowest cluster
    id. NOTE: the expanded form rounds differently from the naive
    sum((x-c)^2) kernel, so an assignment can flip only when two
    centroid distances agree to within fp cancellation error — below
    any meaningful cluster separation (oracle-verified on the test
    corpora)."""
    d = -2.0 * (X @ C.T) + (C * C).sum(axis=1)[None, :]
    return d.argmin(axis=1)


def kmeans_centroids(sf_dir: str, k: int = 8, refinements: int = 1):
    """Distributed Lloyd training only: returns (centroids, cluster_ids)
    after ``refinements`` rounds (see kmeans_assign for the per-round
    shape). Shared by kmeans_assign and the IVF ANN layout (stages/ann)."""
    import pyarrow.dataset as pads
    import ray
    from ..sources.io import table

    from .link import get_broadcast

    # init: k seed rows only (pushdown filter, not a full read)
    seed = pads.dataset(f"{sf_dir}/embeddings.parquet").to_table(
        columns=["vec_id", "embedding"], filter=pads.field("vec_id") < k
    ).sort_by("vec_id")
    centroids = _embedding_matrix(seed)
    cluster_ids = list(range(len(seed)))

    ds = table(sf_dir, "embeddings",
               columns=["vec_id", "embedding"])

    for _ in range(refinements):
        ref = ray.put((np.asarray(centroids), list(cluster_ids)))

        def partials(t: pa.Table) -> pa.Table:
            C, ids = get_broadcast(ref)
            emb = _embedding_matrix(t)
            a = _argmin_sqdist(emb, C)  # first minimum = lowest cluster id
            counts = np.bincount(a, minlength=len(ids))
            sums = np.zeros((len(ids), emb.shape[1]), dtype=np.float64)
            np.add.at(sums, a, emb)
            nz = np.flatnonzero(counts)
            rows_c = [ids[ci] for ci in nz]
            rows_n = counts[nz].tolist()
            rows_s = [sums[ci].tolist() for ci in nz]
            return pa.table({
                "cluster": pa.array(rows_c, pa.int64()),
                "n": pa.array(rows_n, pa.int64()),
                "s": pa.array(rows_s, pa.list_(pa.float64())),
            })

        # k-sized partial rows per batch; merging them on the driver is
        # O(k * num_batches), independent of corpus size
        pdf = ds.map_batches(partials, batch_format="pyarrow").to_pandas()
        new_centroids: List[np.ndarray] = []
        new_ids: List[int] = []
        for cid, g in pdf.groupby("cluster"):
            total = np.sum(np.stack([np.asarray(v) for v in g["s"]]), axis=0)
            new_ids.append(int(cid))
            new_centroids.append(total / g["n"].sum())
        order = np.argsort(new_ids)
        cluster_ids = [new_ids[i] for i in order]
        centroids = np.stack([new_centroids[i] for i in order])

    return np.asarray(centroids), list(cluster_ids)


def kmeans_assign(sf_dir: str, k: int = 8, refinements: int = 1):
    """Distributed Lloyd k-means over the embeddings table; returns a
    Dataset (vec_id, cluster) of the final assignment.

    init: centroids = embeddings of vec_id 0..k-1. Each refinement:
    vectorized argmin assignment per batch + per-cluster partial
    (sum, count) rows; the driver merges only k-sized partials and
    broadcasts the new centroids. Clusters that lose all members are
    dropped (mirrors the SQL oracle exactly). Ties break toward the
    lower cluster id."""
    import ray
    from ..sources.io import table

    from .link import get_broadcast

    centroids, cluster_ids = kmeans_centroids(sf_dir, k, refinements)

    ds = table(sf_dir, "embeddings",
               columns=["vec_id", "embedding"])

    ref = ray.put((np.asarray(centroids), list(cluster_ids)))

    def assign(t: pa.Table) -> pa.Table:
        C, ids = get_broadcast(ref)
        emb = _embedding_matrix(t)
        a = _argmin_sqdist(emb, C)
        return pa.table({
            "vec_id": t["vec_id"],
            "cluster": pa.array([ids[i] for i in a], pa.int64()),
        })

    return ds.map_batches(assign, batch_format="pyarrow")


def domain_mix(sf_dir: str, weights_tenths: Optional[Dict[str, int]] = None,
               default_tenths: int = 10):
    """Deterministic domain mixing with up/down-sampling: each document is
    emitted ``w // 10`` times plus once more when hash(doc_id) lands below
    ``w % 10`` of 10, where ``w`` is the source's weight in tenths
    (25 = 2.5x upsample, 3 = keep ~30%, 10 = pass through). Output rows
    carry a ``copy`` index so repeats are distinguishable downstream.

    Membership and multiplicity are pure functions of (doc_id, source) —
    no RNG state, no shuffle, identical under retries and at any
    parallelism, which is what a 100-TB mixing job needs for resumability."""
    from ..sources.io import table

    weights_tenths = weights_tenths or {"src0": 25, "src1": 3}

    def mix(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        b = _bucket(ids)
        tw = np.array([weights_tenths.get(s, default_tenths)
                       for s in t["source"].to_pylist()], dtype=np.int64)
        nc = tw // 10 + (b < (tw % 10).astype(np.uint64))
        idx = np.repeat(np.arange(len(ids)), nc)
        copy = np.arange(len(idx)) - np.repeat(np.cumsum(nc) - nc, nc)
        return pa.table({
            "doc_id": pa.array(ids[idx], pa.int64()),
            "source": pa.array(np.asarray(t["source"].to_pylist(), dtype=object)[idx].tolist(), pa.string()),
            "copy": pa.array(copy, pa.int64()),
        })

    return (
        table(sf_dir, "documents", columns=["doc_id", "source"])
        .map_batches(mix, batch_format="pyarrow")
    )
