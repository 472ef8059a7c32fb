"""Sorted-neighborhood blocking over arbitrary keyed Datasets.

The record-linkage complement to hash blocking: order rows by a string
blocking key, pair everything within ``window`` ranks. Distributed
exactly with NO tiny groups:

1. the dense global rank comes from the offsets-before-shuffle
   enumeration (sampled boundaries over an int64 big-endian pack of the
   key's 7-char ASCII prefix — byte order equals lexicographic order,
   so numeric range partitioning IS string range partitioning; ranks
   within a bucket sort by (key7, id), equivalent to ORDER BY key, id
   whenever key7 is a prefix of key);
2. pairing shuffles once on COARSE rank chunks (``chunk`` rows each,
   the segmented discipline of asof_join/running_total) with only the
   last ``window - 1`` rows of each chunk replicated across the
   boundary; per-chunk pair lists come from one vectorized searchsorted
   + repeat — no per-pair or per-group Python.

Used by queries7.q_sorted_neighborhood_pairs (documents) and
queries7.q_er_funnel (entity resolution).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _prefix_surrogate(col) -> np.ndarray:
    """int64 big-endian pack of the first 7 BYTES of each key —
    byte-true for arbitrary UTF-8 (UTF-8 byte order equals codepoint
    order), zero-padded for shorter keys. Numeric order == byte-wise
    prefix order; for ASCII keys that is also the SQL substr(key, 1, 7)
    order the oracles use."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    offs = np.frombuffer(arr.buffers()[1], dtype=np.int32)[
        arr.offset:arr.offset + len(arr) + 1].astype(np.int64)
    raw = np.frombuffer(arr.buffers()[2], dtype=np.uint8)
    lens = np.minimum(np.diff(offs), 7)
    if raw.size == 0:  # every key in the batch is the empty string
        return np.zeros(len(arr), dtype=np.int64)
    idx = offs[:-1, None] + np.arange(7)
    mask = np.arange(7) < lens[:, None]
    vals = np.where(mask, raw[np.minimum(idx, len(raw) - 1)], 0)
    return (vals.astype(np.int64)
            @ (256 ** np.arange(6, -1, -1)).astype(np.int64))


def snm_pairs(ds, key_col: str, id_col: str, window: int = 3,
              n_buckets: int = 64, chunk: int = 4096):
    """All (id_a, id_b) pairs whose global ranks under
    ORDER BY (key-prefix, id) differ by less than ``window``.
    Returns a Dataset with columns (a, b) of the id column's type,
    a ranked strictly before b."""
    import ray
    from ray.data.aggregate import Sum

    from .link import get_broadcast
    from .sketch import approx_quantile_values

    if chunk < window - 1:
        raise ValueError(
            f"chunk ({chunk}) must be >= window - 1 ({window - 1}): "
            "boundary replication reaches exactly one chunk forward")

    def add_surrogate(t: pa.Table) -> pa.Table:
        return pa.table({
            "id": t[id_col],
            "k7": pa.array(_prefix_surrogate(t[key_col]), pa.int64())})

    keyed = ds.map_batches(add_surrogate,
                           batch_format="pyarrow").materialize()

    boundaries = np.unique(approx_quantile_values(
        keyed, "k7", np.arange(1, n_buckets) / n_buckets))

    def bucket_of(v: np.ndarray) -> np.ndarray:
        return np.searchsorted(boundaries, v, side="left")

    def count_partial(t: pa.Table) -> pa.Table:
        b = bucket_of(t["k7"].to_numpy(zero_copy_only=False))
        cnt = np.bincount(b, minlength=n_buckets)
        nz = np.nonzero(cnt)[0]
        return pa.table({"bucket": pa.array(nz, pa.int64()),
                         "pn": pa.array(cnt[nz], pa.int64())})

    counts = {r["bucket"]: r["n"] for r in
              keyed.map_batches(count_partial, batch_format="pyarrow")
              .groupby("bucket").aggregate(Sum("pn", alias_name="n"))
              .take_all()}
    offsets, acc = {}, 0
    for b in range(n_buckets):
        offsets[b] = acc
        acc += counts.get(b, 0)
    ref = ray.put(offsets)

    def tag(t: pa.Table) -> pa.Table:
        b = bucket_of(t["k7"].to_numpy(zero_copy_only=False))
        return t.append_column("bucket", pa.array(b, pa.int64()))

    def enumerate_bucket(g: pa.Table) -> pa.Table:
        off = get_broadcast(ref)[g["bucket"][0].as_py()]
        k = g["k7"].to_numpy(zero_copy_only=False)
        d = g["id"].to_numpy(zero_copy_only=False)
        o = np.lexsort((d, k))
        rn = np.empty(len(o), dtype=np.int64)
        rn[o] = off + 1 + np.arange(len(o))
        return pa.table({"id": g["id"], "rn": pa.array(rn, pa.int64())})

    ranked = (keyed.map_batches(tag, batch_format="pyarrow")
              .groupby("bucket")
              .map_groups(enumerate_bucket, batch_format="pyarrow"))

    w = window

    def to_chunks(t: pa.Table) -> pa.Table:
        rn = t["rn"].to_numpy(zero_copy_only=False)
        c = rn // chunk
        rep = rn % chunk >= chunk - (w - 1)
        rep_idx = np.flatnonzero(rep)
        ids = t["id"].combine_chunks()
        return pa.table({
            "c": pa.array(np.concatenate([c, c[rep] + 1]), pa.int64()),
            "rn": pa.array(np.concatenate([rn, rn[rep]]), pa.int64()),
            "id": pa.concat_arrays([ids, ids.take(pa.array(rep_idx))]),
        })

    def pair_chunk(g: pa.Table) -> pa.Table:
        cval = g["c"][0].as_py()
        rn = g["rn"].to_numpy(zero_copy_only=False)
        o = np.argsort(rn, kind="stable")
        rn = rn[o]
        ids = g["id"].combine_chunks().take(pa.array(o))
        native = rn // chunk == cval  # replicas own no pairs
        idx_j = np.flatnonzero(native)
        starts = np.searchsorted(rn, rn[idx_j] - (w - 1), side="left")
        reps = idx_j - starts
        total = int(reps.sum())
        if total == 0:
            empty = ids.take(pa.array([], pa.int64()))
            return pa.table({"a": empty, "b": empty})
        off = np.repeat(np.cumsum(reps) - reps, reps)
        i_idx = np.repeat(starts, reps) + (np.arange(total) - off)
        j_idx = np.repeat(idx_j, reps)
        return pa.table({"a": ids.take(pa.array(i_idx)),
                         "b": ids.take(pa.array(j_idx))})

    return (ranked.map_batches(to_chunks, batch_format="pyarrow")
            .groupby("c").map_groups(pair_chunk, batch_format="pyarrow"))
