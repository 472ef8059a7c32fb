"""Skew-aware shuffle utilities.

Zipfian-hot keys (frequent entities) make a naive groupby shuffle lopsided:
one reducer receives the head key's entire stream. Two complementary
mitigations, both used by the KG pipeline:

1. ``partial-aggregate before shuffle``: :func:`partial_aggregate`
   collapses each batch to one row per distinct key, bounding any key's
   fan-in to the number of batches, and :func:`combine_aggregate` merges
   the partials with one groupby. Best when the aggregate is algebraic
   (count/sum/min/max). It is the package's only per-batch Arrow groupby.
2. ``salted_aggregate`` (here): an explicit salt column splits each key
   into ``salt`` sub-keys; stage 1 aggregates (key, salt) — spreading a hot
   key over ``salt`` reducers — and stage 2 merges the per-salt partials
   with a groupby that is at most ``salt`` rows per key. Use when values
   (not just counts) must flow through the shuffle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def as_arrow_schema(s) -> pa.Schema:
    """Normalize Ray's Schema wrapper / PandasBlockSchema / pa.Schema into
    a plain pyarrow schema (object-dtype pandas columns become string)."""
    if isinstance(s, pa.Schema):
        return s
    if hasattr(s, "base_schema"):
        s = s.base_schema
    if isinstance(s, pa.Schema):
        return s
    fields = []
    for n, t in zip(s.names, s.types):
        if isinstance(t, pa.DataType):
            fields.append(pa.field(n, t))
        else:
            try:
                fields.append(pa.field(n, pa.from_numpy_dtype(t)))
            except Exception:
                fields.append(pa.field(n, pa.string()))
    return pa.schema(fields)


def _partition_ids(col: pa.ChunkedArray, partitions: int) -> pa.Array:
    """Deterministic vectorized partition id for a join-key column.

    Any deterministic pure function of the key value works (it only
    decides co-location, never output values): splitmix64 for integer
    keys, pandas' C siphash (fixed default key, stable across processes)
    for strings/objects. Null keys land in partition 0 and are handled
    as the dedicated null segment by the merge.
    """
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    vals = arr.to_numpy(zero_copy_only=False)
    if np.issubdtype(vals.dtype, np.integer):
        from .sketch import _splitmix64

        h = _splitmix64(vals.astype(np.uint64))
    else:
        import pandas as pd

        h = pd.util.hash_array(
            np.asarray(arr.to_pandas(), dtype=object), categorize=False)
    p = (h % np.uint64(partitions)).astype(np.int64)
    null_mask = ~np.asarray(pc.is_valid(arr))
    if null_mask.any():
        p[null_mask] = 0
    return pa.array(p, pa.int64())


def _seg_arange(seg_starts: np.ndarray, seg_lens: np.ndarray) -> np.ndarray:
    """Concatenated aranges: [s0..s0+l0) ++ [s1..s1+l1) ++ ..., fully
    vectorized (no per-segment Python)."""
    total = int(seg_lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    rep = np.repeat(np.arange(len(seg_starts)), seg_lens)
    out_starts = np.concatenate(([0], np.cumsum(seg_lens)[:-1]))
    offs = np.arange(total) - np.repeat(out_starts, seg_lens)
    return seg_starts[rep] + offs


def hash_join(left, right, on: str, right_on: str | None = None,
              how: str = "inner", right_suffix: str = "_r",
              left_schema: pa.Schema | None = None,
              right_schema: pa.Schema | None = None,
              merge_post=None, hot_chunk_rows: int = 10_000_000,
              partitions: int = 512, group_filter=None,
              merge_post_coarse: bool = False):
    """Distributed single-key hash join built on ``groupby().map_groups()``.

    Why not ``Dataset.join``: Ray 2.49's hash-shuffle join (a) crashes
    when a shuffle partition receives no shard on one side (the empty
    ``ArrowBlockBuilder`` yields a ZERO-COLUMN block that fails the acero
    join and poisons downstream operators) — routine for sparse sides —
    and (b) reserves whole-CPU aggregator actors up front, which
    deadlocks chained joins on small clusters. This implementation keeps
    the same discipline (each side is key-shuffled exactly once, the
    merge runs per key partition, nothing touches the driver) but uses
    the sort-based groupby shuffle, which handles empty partitions.

    Both sides are projected to one common schema (other side's columns
    null-filled WITH EXPLICIT ARROW TYPES, so schemas unify across
    blocks), unioned, shuffled once by key, and cross-producted per key
    group. ``how`` is "inner", "left_outer", "full_outer", "semi" or
    "anti" — full_outer additionally emits unmatched RIGHT rows with
    null left columns (the key column carries COALESCE(l.key, r.key)
    semantics; null-key rows from BOTH sides are emitted unmatched, as
    in SQL); semi
    emits each left row with >= 1 right match ONCE (left columns only,
    no cross product), anti emits left rows with NO right match
    (NOT EXISTS semantics: null-key left rows never match, so anti
    emits them). Right payload columns that collide with left names get
    ``right_suffix``.

    ``merge_post``: optional fn(pa.Table) -> pa.Table applied to each
    key group's joined rows INSIDE the join reducer. Per-group
    postprocessing (e.g. an ordered cumsum seeded by a joined offset)
    would otherwise need its own groupby on the same key — a whole extra
    all-to-all shuffle for rows that are already co-located here.

    EXECUTION SHAPE (r4, tiny-group rule): without ``merge_post`` the
    shuffle key is ``hash(key) % partitions`` — COARSE partitions, not
    per-key groups — and each partition's merge is one Arrow sort + one
    dictionary_encode + segmented numpy index arithmetic for EVERY key
    run at once. Per-key ``map_groups`` pays ~2 ms of dispatch +
    Arrow-call overhead per group; join keys are mostly high-cardinality
    (doc ids, entity keys), so at web scale that overhead IS the join
    cost (the same fix took asof_join's resolve 43.7 s -> 1.2 s).
    ``merge_post`` callers keep the per-key path by default: their
    contract is a single-key table (seeded cumsums, per-center ranks).
    Callers whose postprocess is itself key-grouped (it re-groups by the
    join key internally) can pass ``merge_post_coarse=True`` to run it
    once per coarse partition instead — per-key dispatch disappears
    from the plan (r5: late_order_priority 6.3 s -> coarse).

    ``group_filter``: optional size predicate fn(n_left, n_right) -> bool
    evaluated per key group BEFORE its cross product is built; failing
    groups emit nothing (inner-only). Must be numpy-elementwise-safe
    (called with int64 arrays on the coarse path) — e.g.
    ``lambda nl, nr: (nl <= cap) & (nr <= cap)``. This is where degree
    caps belong: both group sizes are known here for free, so a hub
    bound costs no extra pass (kg_path_patterns' middle-degree cap).
    """
    assert how in ("inner", "left_outer", "full_outer", "semi", "anti"), how
    assert group_filter is None or how == "inner", \
        "group_filter is inner-join-only"
    right_on = right_on or on
    # pass schemas explicitly when known: Dataset.schema() on a lazy
    # pipeline with a wide op executes it once just to sample the schema
    ls = as_arrow_schema(left_schema if left_schema is not None else left.schema())
    rs = as_arrow_schema(right_schema if right_schema is not None else right.schema())
    ltypes = dict(zip(ls.names, ls.types))
    rtypes = dict(zip(rs.names, rs.types))
    ktype = ltypes[on]
    lpay = [c for c in ls.names if c != on]
    rpay = [c for c in rs.names if c != right_on]
    rout = {c: (c + right_suffix if c in ls.names else c) for c in rpay}

    coarse = merge_post is None or merge_post_coarse

    def proj_left(t: pa.Table) -> pa.Table:
        n = len(t)
        k = t[on].combine_chunks().cast(ktype)
        data = {"_k": k, "_side": pa.array(np.zeros(n, dtype=np.int8))}
        if coarse:
            data["_p"] = _partition_ids(k, partitions)
        for c in lpay:
            data["_l_" + c] = t[c].combine_chunks().cast(ltypes[c])
        for c in rpay:
            data["_r_" + c] = pa.nulls(n, rtypes[c])
        return pa.Table.from_pydict(data)

    def proj_right(t: pa.Table) -> pa.Table:
        n = len(t)
        k = t[right_on].combine_chunks().cast(ktype)
        data = {"_k": k, "_side": pa.array(np.ones(n, dtype=np.int8))}
        if coarse:
            data["_p"] = _partition_ids(k, partitions)
        for c in lpay:
            data["_l_" + c] = pa.nulls(n, ltypes[c])
        for c in rpay:
            data["_r_" + c] = t[c].combine_chunks().cast(rtypes[c])
        return pa.Table.from_pydict(data)

    def merge(g: pa.Table) -> pa.Table:
        """Vectorized per-key merge: build left/right index arrays for the
        cross product and gather with Arrow ``take`` — no per-row Python.

        SQL semantics for NULL keys: NULL never equals NULL, so the
        null-key group produces no matches (inner) / unmatched left rows
        (left_outer).

        Memory bound: one hot key with n x m matching rows builds its full
        n*m-row output table in a single task (same bound as any hash
        join's per-key output); a warning fires past 10M rows so skew is
        visible rather than silent.
        """
        g = g.combine_chunks()
        side = g["_side"].to_numpy(zero_copy_only=False)
        li = np.flatnonzero(side == 0)
        ri = np.flatnonzero(side == 1)
        null_key = bool(g.num_rows) and not g["_k"][0].is_valid
        if null_key and how != "full_outer":
            ri = ri[:0]  # NULL keys never match
        if (group_filter is not None and li.size and ri.size
                and not bool(group_filter(li.size, ri.size))):
            ri = ri[:0]  # filtered group: no matches (inner -> empty)
        if how in ("semi", "anti"):
            lidx = li if bool(ri.size) == (how == "semi") else li[:0]
            out = {on: g["_k"].take(lidx)}
            for c in lpay:
                out[c] = g["_l_" + c].take(lidx)
            joined = pa.Table.from_pydict(out)
            if merge_post is not None and joined.num_rows:
                joined = merge_post(joined)
            return joined
        if how == "full_outer" and (li.size == 0 or ri.size == 0 or null_key):
            # no matches in this group: the projected union already holds
            # nulls for the other side's columns on every row, so emitting
            # both sides unmatched is a plain take of all rows
            lidx = ridx = np.concatenate([li, ri])
        elif li.size == 0 or ri.size == 0:
            if how == "inner" or li.size == 0:
                lidx = li[:0]
            else:  # left_outer, no right match: _r_* cols of left rows
                lidx = li  # are already null by construction
            ridx = lidx
        else:
            if li.size * ri.size > hot_chunk_rows:
                # HOT-KEY MITIGATION (VERDICT r03 #9): the cross product is
                # inherent to the join output, but building it in one shot
                # needs two n*m int64 index arrays PLUS one contiguous
                # n*m-row table. Emit chunked instead: slice the left index
                # into <= hot_chunk_rows/m pieces and take per piece — peak
                # extra memory is one chunk's indices, and the output table
                # holds chunked (non-contiguous) columns downstream ops
                # stream over.
                import warnings

                warnings.warn(
                    f"hash_join: hot key expands to {li.size}x{ri.size} rows "
                    "in one task; emitting in chunked sub-tables "
                    "(consider pre-aggregating or salting upstream)",
                    RuntimeWarning,
                )
                per = max(1, hot_chunk_rows // max(ri.size, 1))
                pieces = []
                for s in range(0, li.size, per):
                    lch = li[s:s + per]
                    lidx = np.repeat(lch, ri.size)
                    ridx = np.tile(ri, lch.size)
                    out = {on: g["_k"].take(lidx)}
                    for c in lpay:
                        out[c] = g["_l_" + c].take(lidx)
                    for c in rpay:
                        out[rout[c]] = g["_r_" + c].take(ridx)
                    pieces.append(pa.Table.from_pydict(out))
                joined = pa.concat_tables(pieces)
                if merge_post is not None and joined.num_rows:
                    joined = merge_post(joined)
                return joined
            lidx = np.repeat(li, ri.size)
            ridx = np.tile(ri, li.size)
        out = {on: g["_k"].take(lidx)}
        for c in lpay:
            out[c] = g["_l_" + c].take(lidx)
        for c in rpay:
            out[rout[c]] = g["_r_" + c].take(ridx)
        joined = pa.Table.from_pydict(out)
        if merge_post is not None and joined.num_rows:
            joined = merge_post(joined)
        return joined

    def _emit(g: pa.Table, lidx: np.ndarray, ridx: np.ndarray) -> pa.Table:
        out = {on: g["_k"].take(lidx)}
        for c in lpay:
            out[c] = g["_l_" + c].take(lidx)
        for c in rpay:
            out[rout[c]] = g["_r_" + c].take(ridx)
        return pa.Table.from_pydict(out)

    def merge_partition(g: pa.Table) -> pa.Table:
        """Segmented merge of a COARSE hash partition: every key run in
        the partition resolved from one sort + one dictionary_encode +
        numpy index arithmetic — no per-key Arrow calls or dispatch.

        Null-key rows land in one trailing segment (code -1) and follow
        SQL semantics exactly as the per-key path did: never matched;
        emitted unmatched by left_outer/full_outer/anti.
        """
        g = g.combine_chunks()
        n = g.num_rows
        # key runs contiguous, left rows before right rows within a run,
        # nulls at the end (Arrow sort default null_placement)
        g = g.take(pc.sort_indices(
            g, sort_keys=[("_k", "ascending"), ("_side", "ascending")]))
        enc = pc.dictionary_encode(g["_k"].combine_chunks())
        codes = enc.indices.to_numpy(zero_copy_only=False)
        if codes.dtype.kind == "f":  # nulls present -> float with nan
            codes = np.where(np.isnan(codes), -1, codes)
        codes = codes.astype(np.int64)
        side = g["_side"].to_numpy(zero_copy_only=False)
        starts = np.concatenate(
            ([0], np.flatnonzero(codes[1:] != codes[:-1]) + 1))
        lens = np.diff(np.append(starts, n))
        lcnt = np.add.reduceat((side == 0).astype(np.int64), starts)
        rcnt = lens - lcnt
        isnull = codes[starts] == -1

        if how in ("semi", "anti"):
            sel = (~isnull & (rcnt > 0)) if how == "semi" else \
                ((rcnt == 0) | isnull)
            lidx = _seg_arange(starts[sel], lcnt[sel])
            out = {on: g["_k"].take(lidx)}
            for c in lpay:
                out[c] = g["_l_" + c].take(lidx)
            return pa.Table.from_pydict(out)

        matched = ~isnull & (lcnt > 0) & (rcnt > 0)
        if group_filter is not None:
            matched &= np.asarray(group_filter(lcnt, rcnt), dtype=bool)
        ls, lc, rc = starts[matched], lcnt[matched], rcnt[matched]
        rstart, out_n = ls + lc, lc * rc
        pieces = []
        hot = out_n > hot_chunk_rows
        if hot.any():
            import warnings

            for i in np.flatnonzero(hot):
                warnings.warn(
                    f"hash_join: hot key expands to {lc[i]}x{rc[i]} rows "
                    "in one task; emitting in chunked sub-tables "
                    "(consider pre-aggregating or salting upstream)",
                    RuntimeWarning,
                )
                li = np.arange(ls[i], ls[i] + lc[i])
                ri = np.arange(rstart[i], rstart[i] + rc[i])
                per = max(1, hot_chunk_rows // max(int(rc[i]), 1))
                for s in range(0, int(lc[i]), per):
                    lch = li[s:s + per]
                    pieces.append(_emit(g, np.repeat(lch, ri.size),
                                        np.tile(ri, lch.size)))
            ls, lc = ls[~hot], lc[~hot]
            rstart, rc, out_n = rstart[~hot], rc[~hot], out_n[~hot]
        # cross product of every remaining matched run at once:
        # output row j of run i maps to left ls[i] + j // rc[i],
        # right rstart[i] + j % rc[i]
        if len(ls):
            rep = np.repeat(np.arange(len(ls)), out_n)
            ostarts = np.concatenate(([0], np.cumsum(out_n)[:-1]))
            j = np.arange(int(out_n.sum())) - np.repeat(ostarts, out_n)
            lidx = ls[rep] + j // rc[rep]
            ridx = rstart[rep] + j % rc[rep]
        else:
            lidx = ridx = np.empty(0, dtype=np.int64)
        if how == "left_outer":
            extra = _seg_arange(starts[(rcnt == 0) | isnull],
                                lcnt[(rcnt == 0) | isnull])
            lidx = np.concatenate([lidx, extra])
            ridx = np.concatenate([ridx, extra])  # _r_* are null there
        elif how == "full_outer":
            sel = (lcnt == 0) | (rcnt == 0) | isnull
            extra = _seg_arange(starts[sel], lens[sel])
            lidx = np.concatenate([lidx, extra])
            ridx = np.concatenate([ridx, extra])
        pieces.append(_emit(g, lidx, ridx))
        return pa.concat_tables(pieces) if len(pieces) > 1 else pieces[0]

    both = left.map_batches(proj_left, batch_format="pyarrow").union(
        right.map_batches(proj_right, batch_format="pyarrow")
    )
    if coarse:
        if merge_post is not None:
            # merge_post_coarse contract: the fn receives one COARSE
            # partition's joined rows (MANY keys) and must be
            # multi-key-safe (e.g. it groups by the join key itself).
            # This keeps per-key postprocessing off the per-group
            # dispatch path (the tiny-group rule) for callers whose
            # postprocess is itself an aggregation.
            def merge_partition_post(g: pa.Table) -> pa.Table:
                # merge_post runs on EMPTY joined tables too: a partition
                # whose keys all fail to match still emits a block, and
                # skipping the callback there would leak the pre-post
                # schema into the dataset (schema unification / downstream
                # aggregates then fail when every partition is empty).
                # merge_post_coarse callers must therefore be empty-safe.
                return merge_post(merge_partition(g))

            return both.groupby("_p").map_groups(
                merge_partition_post, batch_format="pyarrow")
        return both.groupby("_p").map_groups(
            merge_partition, batch_format="pyarrow")
    return both.groupby("_k").map_groups(merge, batch_format="pyarrow")


def _sort_keys(cols, descending):
    return [(c, "descending" if d else "ascending") for c, d in zip(cols, descending)]


def global_topk(ds, cols, descending, k: int):
    """Distributed top-k: each batch keeps its own top-k first, so the
    final sort sees at most k x num_batches rows instead of the whole
    dataset. Global top-k rows are a subset of the union of per-batch
    top-k rows, so this is exact. Stable per-batch sort keeps
    deterministic tie behavior when ``cols`` includes a tiebreaker."""

    def prune(t: pa.Table) -> pa.Table:
        if t.schema.metadata:
            t = t.replace_schema_metadata(None)  # keep schemas hashable
        if t.num_rows <= k:
            return t
        idx = pc.sort_indices(t, sort_keys=_sort_keys(cols, descending))
        return t.take(idx[:k])

    pruned = ds.map_batches(prune, batch_format="pyarrow")
    return pruned.sort(cols, descending=descending).limit(k)


def grouped_topk(ds, by: str, cols, descending, k: int, schema=None,
                 partitions: int = 512):
    """Per-group top-k with a per-batch combiner: each batch keeps at most
    k rows per key (exact for the same subset reason as global_topk), so
    the shuffle moves <= k x num_batches rows per key and no hot key can
    pin a reducer with its full row set.

    EXECUTION SHAPE (tiny-group rule): the final selection shuffles on
    ``hash(by) % partitions`` — COARSE partitions, not per-key groups —
    and every key run in a partition is resolved by ONE sort + the same
    segmented rank arithmetic as the combiner. The per-key ``map_groups``
    this replaced paid ~2 ms dispatch per group, which dominates once
    key counts reach millions (the asof/sessionize lesson)."""

    def _rank_filter(t: pa.Table) -> pa.Table:
        if t.schema.metadata:
            t = t.replace_schema_metadata(None)  # keep schemas hashable
        if t.num_rows == 0:
            return t
        idx = pc.sort_indices(
            t, sort_keys=[(by, "ascending")] + _sort_keys(cols, descending))
        t = t.take(idx)
        keys = t[by].to_numpy(zero_copy_only=False)
        starts = np.concatenate([[0], np.flatnonzero(keys[1:] != keys[:-1]) + 1])
        rank = np.arange(len(keys)) - np.repeat(starts, np.diff(np.append(starts, len(keys))))
        return t.filter(pa.array(rank < k))

    def add_part(t: pa.Table) -> pa.Table:
        from .sketch import _splitmix64

        col = t[by]
        if pa.types.is_integer(col.type):
            h = col.to_numpy(zero_copy_only=False).astype(np.uint64)
        else:
            import zlib

            h = np.array([zlib.crc32(str(x).encode())
                          for x in col.to_pylist()], dtype=np.uint64)
        p = (_splitmix64(h) % np.uint64(partitions)).astype(np.int64)
        return t.append_column("_gtp", pa.array(p, pa.int64()))

    def resolve(g: pa.Table) -> pa.Table:
        return _rank_filter(g.drop_columns(["_gtp"]))

    pruned = ds.map_batches(_rank_filter, batch_format="pyarrow")
    return (pruned.map_batches(add_part, batch_format="pyarrow")
            .groupby("_gtp")
            .map_groups(resolve, batch_format="pyarrow"))


def add_salt(batch: pa.Table, key: str, salt: int) -> pa.Table:
    """Salt that varies WITHIN a key so a hot key spreads over ``salt``
    reducers: position of the row within its key's run in this batch
    (occurrence index), mod ``salt``. Deterministic given the batch
    contents (stable across retries of the same block), and rows of one
    key in one batch cycle through all ``salt`` sub-keys. Vectorized:
    stable argsort groups equal keys while preserving batch order, so
    rank-within-run == occurrence index."""
    n = batch.num_rows
    if n == 0:
        return batch.append_column("_salt", pa.array([], pa.int32()))
    _, inv = np.unique(
        batch[key].to_numpy(zero_copy_only=False), return_inverse=True)
    order = np.argsort(inv, kind="stable")
    sorted_inv = inv[order]
    starts = np.concatenate([[0], np.flatnonzero(sorted_inv[1:] != sorted_inv[:-1]) + 1])
    run_pos = np.arange(n) - np.repeat(starts, np.diff(np.append(starts, n)))
    occ = np.empty(n, dtype=np.int64)
    occ[order] = run_pos
    return batch.append_column("_salt", pa.array((occ % salt).astype(np.int32)))


def salted_aggregate(ds, key: str, value: str, salt: int = 8, agg: str = "sum"):
    """Two-stage salted aggregation: groupby (key, _salt) then merge.

    Returns a Dataset with columns (key, <value agg alias 'total'>).
    """
    from ray.data.aggregate import Count, Sum

    salted = ds.map_batches(lambda b: add_salt(b, key, salt), batch_format="pyarrow")
    if agg == "count":
        stage1 = salted.groupby([key, "_salt"]).aggregate(Count(alias_name="_partial"))
    else:
        stage1 = salted.groupby([key, "_salt"]).aggregate(Sum(value, alias_name="_partial"))
    # stage 2 shuffles at most `salt` rows per key
    return stage1.groupby(key).aggregate(Sum("_partial", alias_name="total"))


_MERGE_OPS = {"sum": "sum", "count": "sum", "count_all": "sum",
              "min": "min", "max": "max"}

#: combine_aggregate finishes in one task at or below this many merged
#: partial rows (the batch one merge task already takes above it)
SINGLE_TASK_ROWS = 1 << 20


def partial_aggregate(t: pa.Table, keys, aggs) -> pa.Table:
    """Collapse one Arrow batch to one row per distinct ``keys`` value.

    ``aggs`` is a list of ``(out, column, op)`` with ``op`` one of
    ``sum``, ``count`` (non-null values), ``count_all`` (rows; ``column``
    is None), ``min`` or ``max``; the result has the key columns followed
    by one column named ``out`` per aggregate. An empty ``aggs`` gives
    the distinct keys. The only ``pa.TableGroupBy`` in the package: pyarrow
    (16.x) emits group keys first, then aggregate columns — an undocumented
    order the positional rename relies on, so the assertion makes a future
    Arrow reorder fail loudly instead of silently mislabeling columns."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    spec = [([] if col is None else col, op) for _, col, op in aggs]
    used = dict.fromkeys(keys + [c for _, c, _ in aggs if c is not None])
    agg = pa.TableGroupBy(t.select(list(used)), keys).aggregate(spec)
    assert agg.column_names[: len(keys)] == keys, (agg.column_names, keys)
    return agg.rename_columns(keys + [out for out, _, _ in aggs])


def combine_aggregate(ds, keys, aggs):
    """Map-side combine, then a finish chosen from the observed size.

    Each batch goes through :func:`partial_aggregate`, and the partials
    merge by op (``sum``/``count``/``count_all`` by summing, ``min`` and
    ``max`` by themselves) into columns named ``out``; an empty ``aggs``
    gives the distinct keys. A 64Ki-row bundling merge streams with the
    producers; its output is then materialized and counted, so this call
    EXECUTES ``ds``. At most :data:`SINGLE_TASK_ROWS` rows finish in one
    task (merged, then sorted by ``keys``, the order a groupby emits);
    above it, a 1Mi-row merge feeds the sort-based
    ``groupby().aggregate``."""
    import ray.data.aggregate as ra

    keys = [keys] if isinstance(keys, str) else list(keys)
    merged = [(out, out, _MERGE_OPS[op]) for out, _, op in aggs]

    def part(t: pa.Table) -> pa.Table:
        return partial_aggregate(t, keys, aggs)

    def merge(t: pa.Table) -> pa.Table:
        return partial_aggregate(t, keys, merged)

    def finish(t: pa.Table) -> pa.Table:
        return merge(t).sort_by([(k, "ascending") for k in keys])

    # num_cpus=0.5 keeps the merge a separate operator (Ray Data fuses
    # only map stages with equal remote args): the producers keep their
    # per-block tasks while one merge task bundles many of their outputs
    parts = (ds.map_batches(part, batch_format="pyarrow")
             .map_batches(merge, batch_format="pyarrow", batch_size=64 * 1024,
                          num_cpus=0.5)
             .materialize())
    n = parts.count()
    if n <= SINGLE_TASK_ROWS:  # one batch of all n rows: one task
        return parts.map_batches(finish, batch_format="pyarrow",
                                 batch_size=max(n, 1))
    # 1Mi-row bundles hand the groupby (a sort-sample-partition barrier) a
    # handful of blocks; 0.55 differs from 0.5 so the two merges stay apart
    groups = parts.map_batches(merge, batch_format="pyarrow", batch_size=1 << 20,
                               num_cpus=0.55).groupby(keys)
    if not aggs:
        return groups.aggregate(ra.Count(alias_name="__n")).drop_columns(["__n"])
    return groups.aggregate(*[getattr(ra, op.capitalize())(out, alias_name=out)
                              for out, _, op in merged])


#: the one size rule of :func:`broadcast_or_join`: a right side whose
#: materialized blocks hold at most this many bytes is collected once and
#: broadcast; a larger one is shuffled. Read at call time (tests force the
#: shuffle path by setting it to -1).
BROADCAST_BYTES = 64 << 20


def broadcastable(ds) -> bool:
    """True when the materialized Dataset ``ds`` fits under
    ``BROADCAST_BYTES`` (block metadata; nothing executes)."""
    return (ds.size_bytes() or 0) <= BROADCAST_BYTES


def broadcast_or_join(left, right, on: str, right_on: str | None = None,
                      how: str = "inner", right_suffix: str = "_r",
                      left_schema: pa.Schema | None = None,
                      right_schema: pa.Schema | None = None):
    """Single-key join that picks broadcast or shuffle from the measured
    size of its right side. ``right`` is materialized once; when the key
    is an integer and :func:`broadcastable` holds, it is collected,
    key-sorted and ``ray.put`` once, and the join is a zero-shuffle
    ``map_batches`` over the left that resolves each key with one hash
    lookup of the distinct right keys. Otherwise it is the distributed
    :func:`hash_join`.

    ``how`` is "inner", "semi" or "anti", with :func:`hash_join`'s
    semantics on both paths: null keys never match (anti keeps null-key
    left rows), semi and anti emit left columns only, and right payload
    columns that collide with left names get ``right_suffix``."""
    import pandas as pd
    import ray

    from .link import get_broadcast

    assert how in ("inner", "semi", "anti"), how
    right_on = right_on or on
    r = right.materialize()
    ls = as_arrow_schema(left_schema if left_schema is not None
                         else left.schema())
    rs = as_arrow_schema(right_schema if right_schema is not None
                         else r.schema())
    ltypes = dict(zip(ls.names, ls.types))
    ktype = ltypes[on]
    if not (pa.types.is_integer(ktype) and broadcastable(r)):
        return hash_join(left, r, on=on, right_on=right_on, how=how,
                         right_suffix=right_suffix, left_schema=ls,
                         right_schema=rs)

    rtypes = dict(zip(rs.names, rs.types))
    lpay = [c for c in ls.names if c != on]
    rpay = [c for c in rs.names if c != right_on] if how == "inner" else []
    rout = {c: (c + right_suffix if c in ltypes else c) for c in rpay}
    tables = [t for t in ray.get(r.to_arrow_refs()) if t.num_rows]
    rt = (pa.concat_tables(tables, promote_options="permissive")
          if tables else rs.empty_table())
    rt = rt.filter(pc.is_valid(rt[right_on]))
    keys = rt[right_on].cast(ktype).to_numpy()
    order = np.argsort(keys, kind="stable")
    # distinct keys with their first row and run length in key order, plus
    # an empty run at index -1: a left key's position in ``index`` (-1 when
    # absent) gives its matching right rows. The index's hash table is
    # built on its first lookup and kept with the worker's broadcast cache.
    uniq, starts, counts = np.unique(keys[order], return_index=True,
                                     return_counts=True)
    order = pa.array(order, pa.int64())
    side_ref = ray.put((pd.Index(uniq), np.append(starts, 0),
                        np.append(counts, 0),
                        {c: rt[c].cast(rtypes[c]).take(order) for c in rpay}))

    def bjoin(t: pa.Table) -> pa.Table:
        index, starts, counts, rcols = get_broadcast(side_ref)
        k = t[on].combine_chunks().cast(ktype)
        u = index.get_indexer(pc.fill_null(k, 0).to_numpy(zero_copy_only=False))
        if k.null_count:  # null never matches
            u[~pc.is_valid(k).to_numpy(zero_copy_only=False)] = -1
        if how == "inner":
            cnt = counts[u]
            offs = np.concatenate(([0], np.cumsum(cnt)))
            lidx = np.repeat(np.arange(len(u)), cnt)
            ridx = pa.array(np.repeat(starts[u], cnt)
                            + (np.arange(offs[-1]) - np.repeat(offs[:-1], cnt)),
                            pa.int64())
        else:
            lidx = np.flatnonzero((u >= 0) == (how == "semi"))
        lidx = pa.array(lidx, pa.int64())
        out = {on: k.take(lidx)}
        for c in lpay:
            out[c] = t[c].combine_chunks().cast(ltypes[c]).take(lidx)
        for c in rpay:
            out[rout[c]] = rcols[c].take(ridx)
        return pa.Table.from_pydict(out)

    return left.map_batches(bjoin, batch_format="pyarrow")
