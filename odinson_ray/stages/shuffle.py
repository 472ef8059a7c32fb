"""Skew-aware shuffle utilities.

Zipfian-hot keys (frequent entities) make a naive groupby shuffle lopsided:
one reducer receives the head key's entire stream, and high-cardinality
keys make per-key groups pay their dispatch cost millions of times. The
mechanisms here, used by every pipeline:

1. ``partial-aggregate before shuffle``: :func:`partial_aggregate`
   collapses each batch to one row per distinct key, bounding any key's
   fan-in to the number of batches, and :func:`combine_aggregate` merges
   the partials with one groupby. Best when the aggregate is algebraic
   (count/sum/min/max). It is the package's only per-batch Arrow groupby.
2. ``coarse exchange``: :func:`coarse_groups` shuffles rows on
   ``hash(keys) % COARSE_PARTS`` and hands each partition, sorted by key,
   to one function that sweeps all its key runs at once. It is the
   package's only hand-made partition column; :func:`hash_join` and
   :func:`grouped_topk` are built on it.
3. ``broadcast or shuffle``: :func:`broadcast_or_join` broadcasts a right
   side under ``BROADCAST_BYTES`` and hash-joins a larger one.
4. ``salted_aggregate``: an explicit salt column splits each key
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


#: the one partition count of :func:`coarse_groups` (and the default of
#: :func:`hash_join`). Read on the driver when each is called, so setting
#: it to 1 puts every key in one partition.
COARSE_PARTS = 512

_PART = "__part"
_GOLD = np.uint64(0x9E3779B97F4A7C15)


def _partition_ids(t: pa.Table, keys, parts: int) -> pa.Array:
    """Deterministic vectorized partition id of each row's ``keys``.

    Any deterministic pure function of the key values works (it only
    decides co-location, never output values): splitmix64 for integer
    columns, pandas' C siphash (fixed default key, stable across
    processes) for the rest, mixed across columns. A row with a null key
    lands in partition 0."""
    import pandas as pd

    from .sketch import _splitmix64

    h = np.zeros(t.num_rows, dtype=np.uint64)
    null = np.zeros(t.num_rows, dtype=bool)
    for i, k in enumerate(keys):
        arr = t[k].combine_chunks()
        if arr.null_count:
            null |= ~np.asarray(pc.is_valid(arr))
        if pa.types.is_integer(arr.type):
            hk = _splitmix64(pc.fill_null(arr, 0).to_numpy(
                zero_copy_only=False).astype(np.uint64))
        else:
            hk = pd.util.hash_array(arr.to_numpy(zero_copy_only=False),
                                    categorize=False)
        h = hk if i == 0 else _splitmix64(h * _GOLD + hk)
    p = (h % np.uint64(parts)).astype(np.int64)
    p[null] = 0
    return pa.array(p, pa.int64())


def coarse_groups(ds, keys, fn, order=()):
    """The coarse-partition exchange: ``fn`` resolves many keys at once.

    Each row is tagged with ``hash(keys) % COARSE_PARTS`` and the tag is
    the only shuffle key (the sort-based shuffle ``groupby().map_groups()``
    runs, so no partition spans two blocks). ``fn`` is called once per
    shuffled block, on one ``pa.Table`` holding one or more whole
    partitions sorted by ``(*keys, *order)`` (nulls last), tag dropped,
    so it sweeps the key runs with one pass of numpy. An entry of
    ``order`` is a column (ascending) or a ``(column, "descending")``
    pair. ``ds`` may be a list of Datasets, each tagged by its own last
    map stage and then unioned.

    Why not one call per key, or per partition: ``map_groups`` pays a
    fixed dispatch and Arrow-call cost per group (~2 ms), and join,
    window and bucket keys are mostly high-cardinality, so at scale that
    cost IS the operator (the tiny-group rule of SCALE.md); one call per
    block is the floor. ``fn`` must be multi-key-safe; a hot key still
    lands whole in one block."""
    return _exchange(ds, keys, fn, order, COARSE_PARTS)


def _exchange(ds, keys, fn, order, parts: int):
    keys = [keys] if isinstance(keys, str) else list(keys)
    sort_keys = [c if isinstance(c, tuple) else (c, "ascending")
                 for c in (*keys, *order)]

    def tag(t: pa.Table) -> pa.Table:
        return t.append_column(_PART, _partition_ids(t, keys, parts))

    def resolve(g: pa.Table):
        if g.num_rows:
            g = g.drop_columns([_PART])
            yield fn(g.take(pc.sort_indices(g, sort_keys=sort_keys))
                     .combine_chunks())

    parts_ds = [d.map_batches(tag, batch_format="pyarrow")
                for d in (ds if isinstance(ds, (list, tuple)) else [ds])]
    tagged = parts_ds[0].union(*parts_ds[1:]) if len(parts_ds) > 1 \
        else parts_ds[0]
    # the shuffle of map_groups, with one call per block instead of one
    # per tag value
    return tagged.sort(_PART).map_batches(resolve, batch_size=None,
                                          batch_format="pyarrow")


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


#: past this many output rows, one key's cross product in
#: :func:`hash_join` is emitted in chunked sub-tables (read at call time)
HOT_CHUNK_ROWS = 10_000_000


def hash_join(left, right, on: str, right_on: str | None = None,
              how: str = "inner", right_suffix: str = "_r",
              left_schema: pa.Schema | None = None,
              right_schema: pa.Schema | None = None,
              merge_post=None, partitions: int | None = None,
              group_filter=None):
    """Distributed single-key hash join over the coarse exchange.

    Why not ``Dataset.join``: Ray 2.49's hash-shuffle join (a) crashes
    when a shuffle partition receives no shard on one side (the empty
    ``ArrowBlockBuilder`` yields a ZERO-COLUMN block that fails the acero
    join and poisons downstream operators) — routine for sparse sides —
    and (b) reserves whole-CPU aggregator actors up front, which
    deadlocks chained joins on small clusters. This implementation keeps
    the same discipline (each side is key-shuffled exactly once, nothing
    touches the driver) but uses the sort-based groupby shuffle, which
    handles empty partitions.

    Both sides are projected to one common schema (other side's columns
    null-filled WITH EXPLICIT ARROW TYPES, so schemas unify across
    blocks), tagged, unioned and shuffled once on ``hash(key) %
    partitions`` (``COARSE_PARTS`` unless given: the driver-iterative
    graph loops size it from their edge counts). Each shuffled block's
    merge is one dictionary_encode plus segmented numpy index arithmetic
    for EVERY key run at once (the :func:`coarse_groups` shape). ``how`` is
    "inner", "left_outer", "full_outer", "semi" or "anti" — full_outer
    additionally emits unmatched RIGHT rows with null left columns (the
    key column carries COALESCE(l.key, r.key) semantics; null-key rows
    from BOTH sides are emitted unmatched, as in SQL); semi emits each
    left row with >= 1 right match ONCE (left columns only, no cross
    product), anti emits left rows with NO right match (NOT EXISTS
    semantics: null-key left rows never match, so anti emits them).
    Right payload columns that collide with left names get
    ``right_suffix``.

    ``merge_post``: optional fn(pa.Table) -> pa.Table applied to each
    shuffled block's joined rows INSIDE the join reducer, once per block
    and also when nothing in it matched (so the dataset's schema is the
    post-processed one). It sees many keys at once and may see an empty
    table: key-grouped postprocessing (e.g. a seeded cumsum, a per-key
    rank) groups by the join key itself, and that costs no extra
    shuffle because the rows are already co-located here.

    ``group_filter``: optional size predicate fn(n_left, n_right) -> bool
    array, evaluated on the per-key group sizes (int64 arrays) BEFORE
    the cross product is built; failing groups emit nothing (inner-only).
    E.g. ``lambda nl, nr: (nl <= cap) & (nr <= cap)``. This is where
    degree caps belong: both group sizes are known here for free, so a
    hub bound costs no extra pass (kg_path_patterns' middle-degree cap).
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
    hot_rows = HOT_CHUNK_ROWS

    def proj_left(t: pa.Table) -> pa.Table:
        n = len(t)
        data = {"_k": t[on].combine_chunks().cast(ktype),
                "_side": pa.array(np.zeros(n, dtype=np.int8))}
        for c in lpay:
            data["_l_" + c] = t[c].combine_chunks().cast(ltypes[c])
        for c in rpay:
            data["_r_" + c] = pa.nulls(n, rtypes[c])
        return pa.Table.from_pydict(data)

    def proj_right(t: pa.Table) -> pa.Table:
        n = len(t)
        data = {"_k": t[right_on].combine_chunks().cast(ktype),
                "_side": pa.array(np.ones(n, dtype=np.int8))}
        for c in lpay:
            data["_l_" + c] = pa.nulls(n, ltypes[c])
        for c in rpay:
            data["_r_" + c] = t[c].combine_chunks().cast(rtypes[c])
        return pa.Table.from_pydict(data)

    def _emit(g: pa.Table, lidx: np.ndarray, ridx: np.ndarray) -> pa.Table:
        out = {on: g["_k"].take(lidx)}
        for c in lpay:
            out[c] = g["_l_" + c].take(lidx)
        for c in rpay:
            out[rout[c]] = g["_r_" + c].take(ridx)
        return pa.Table.from_pydict(out)

    def merge(g: pa.Table) -> pa.Table:
        """Segmented merge of one partition, sorted by (key, side): key
        runs contiguous, left rows before right rows within a run, nulls
        in one trailing segment (code -1). SQL semantics for null keys:
        never matched; emitted unmatched by left_outer/full_outer/anti.

        Memory bound: one hot key with n x m matching rows builds its
        n*m output rows in this task (the bound of any hash join);
        past ``HOT_CHUNK_ROWS`` a warning fires and the key is emitted
        in chunked sub-tables, so peak extra memory is one chunk's
        indices."""
        n = g.num_rows
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
        hot = out_n > hot_rows
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
                per = max(1, hot_rows // max(int(rc[i]), 1))
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

    fn = merge if merge_post is None else (lambda g: merge_post(merge(g)))
    return _exchange([left.map_batches(proj_left, batch_format="pyarrow"),
                      right.map_batches(proj_right, batch_format="pyarrow")],
                     ["_k"], fn, ["_side"],
                     COARSE_PARTS if partitions is None else partitions)


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


def grouped_topk(ds, by: str, cols, descending, k: int, schema=None):
    """Per-group top-k with a per-batch combiner: each batch keeps at most
    k rows per key (exact for the same subset reason as global_topk), so
    the shuffle moves <= k x num_batches rows per key and no hot key can
    pin a reducer with its full row set. The final selection is one
    :func:`coarse_groups` exchange: every key run in a partition is
    resolved by the same segmented rank arithmetic as the combiner."""
    order = [(c, "descending" if d else "ascending")
             for c, d in zip(cols, descending)]

    def _rank(t: pa.Table) -> pa.Table:
        keys = t[by].to_numpy(zero_copy_only=False)
        starts = np.concatenate([[0], np.flatnonzero(keys[1:] != keys[:-1]) + 1])
        rank = np.arange(len(keys)) - np.repeat(starts, np.diff(np.append(starts, len(keys))))
        return t.filter(pa.array(rank < k))

    def _rank_filter(t: pa.Table) -> pa.Table:
        if t.schema.metadata:
            t = t.replace_schema_metadata(None)  # keep schemas hashable
        if t.num_rows == 0:
            return t
        return _rank(t.take(pc.sort_indices(
            t, sort_keys=[(by, "ascending")] + order)))

    pruned = ds.map_batches(_rank_filter, batch_format="pyarrow")
    return coarse_groups(pruned, [by], _rank, order)


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
