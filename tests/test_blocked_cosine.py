"""blocked_cosine_pairs: exactness + bounded per-group input under skew.

The embedding near-dup join is exact (hash-exact oracle) so its scale
lever is bounding each task, not LSH pruning — these tests pin that a
single hot label is split into chunk-pair groups no larger than
2 * chunk_rows and that the union of bounded groups still reproduces the
brute-force pair set exactly.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest


def _corpus(n_hot=600, n_cold=40, dim=16, seed=7):
    rng = np.random.RandomState(seed)
    vecs = rng.normal(size=(n_hot + n_cold, dim))
    labels = np.concatenate([np.zeros(n_hot, np.int32),
                             np.ones(n_cold, np.int32)])
    ids = np.arange(n_hot + n_cold, dtype=np.int64)
    return pa.table({
        "vec_id": ids,
        "label": pa.array(labels, pa.int32()),
        "embedding": pa.array([v.astype(np.float32).tolist() for v in vecs],
                              pa.list_(pa.float32())),
    })


def _brute_pairs(t: pa.Table, threshold: float):
    ids = t["vec_id"].to_numpy()
    labels = t["label"].to_numpy(zero_copy_only=False)
    mat = np.array(t["embedding"].to_pylist(), dtype=np.float64)
    mat /= np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-300)
    out = set()
    for lab in np.unique(labels):
        m = labels == lab
        sid, sub = ids[m], mat[m]
        sim = sub @ sub.T
        ii, jj = np.where(np.triu(sim >= threshold, k=1))
        for a, b in zip(sid[ii], sid[jj]):
            out.add((min(a, b), max(a, b), int(lab)))
    return out


@pytest.mark.usefixtures("ray_session")
def test_blocked_pairs_exact_under_chunking(monkeypatch):
    import ray.data as rdata

    from odinson_ray.stages import shuffle
    from odinson_ray.stages.ann import blocked_cosine_pairs

    monkeypatch.setattr(shuffle, "COARSE_PARTS", 16)
    t = _corpus()
    # chunk_rows=64 forces the hot label into ceil(600/64)=10 chunks ->
    # 55 chunk-pair groups; threshold low enough that pairs cross chunks
    got = blocked_cosine_pairs(rdata.from_arrow(t), threshold=0.25,
                               chunk_rows=64).take_all()
    got_set = {(min(r["a_id"], r["b_id"]), max(r["a_id"], r["b_id"]),
                int(r["label"])) for r in got}
    assert len(got) == len(got_set)  # each pair emitted exactly once
    assert got_set == _brute_pairs(t, 0.25)
    assert got_set  # non-degenerate: the threshold selects real pairs


@pytest.mark.usefixtures("ray_session")
def test_blocked_pairs_group_input_bounded_on_hot_label(monkeypatch):
    """The expanded dataset's (label, _lo, _hi) groups — the kernel's
    per-segment input — never exceed 2 * chunk_rows, however hot the
    label."""
    import ray.data as rdata

    from odinson_ray.stages import shuffle
    from odinson_ray.stages.ann import blocked_cosine_pairs

    monkeypatch.setattr(shuffle, "COARSE_PARTS", 16)
    t = _corpus(n_hot=600, n_cold=0)
    chunk_rows = 64
    ds = rdata.from_arrow(t)
    pairs = blocked_cosine_pairs(ds, threshold=0.25,
                                 chunk_rows=chunk_rows)
    pairs.take_all()  # executes end-to-end; exactness pinned above

    # verify the boundedness invariant of the expansion with the same
    # hash and chunk count the stage uses: hash-balanced chunks
    # concentrate at n_key / n_chunks <= chunk_rows, so each chunk-PAIR
    # group's kernel input (|chunk_lo| + |chunk_hi|) stays O(chunk_rows)
    # regardless of label size
    from odinson_ray.stages.sketch import _splitmix64

    n_chunks = -(-600 // chunk_rows)
    ids = t["vec_id"].to_numpy().astype(np.int64)
    GOLD = np.uint64(0x9E3779B97F4A7C15)
    c = (_splitmix64(ids.astype(np.uint64) * GOLD)
         % np.uint64(n_chunks)).astype(np.int64)
    sizes = np.bincount(c, minlength=n_chunks)
    assert n_chunks >= 9  # the hot label really was split
    assert sizes.max() <= 2 * chunk_rows  # no chunk beyond hash spread
    assert sizes.max() < 600  # no chunk holds the entire hot label
