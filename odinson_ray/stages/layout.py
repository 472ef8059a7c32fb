"""Hash-bucketed table layouts and shuffle-free co-located joins.

The Hive/Iceberg bucketing idea, Ray-Data-native: pay ONE shuffle at
layout-build time to write a table as parquet partitioned by
hash(key) % n_buckets (with a manifest, atomic publish, and corpus-
version keying — the same discipline as the ANN layouts in stages/ann),
then every later join or per-key aggregate on that key runs with ZERO
runtime shuffle: bucket i of table A joins bucket i of table B inside
one task that reads exactly those files. At 100 TB the build is a
one-time corpus-parallel job amortized across every downstream join;
the per-bucket join tasks are embarrassingly parallel and their memory
is bounded by the largest bucket (hash buckets are balanced unless the
KEY ITSELF is hot, in which case no co-location scheme helps).

Layout roots default to node-local /tmp — single-node only; multi-node
clusters must set ODINSON_RAY_ANN_CACHE to shared storage, enforced
structurally by ann._require_shared_root (same guard, same env var: one
knob for every disk layout this engine builds).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .ann import _atomic_publish, _require_shared_root

_CACHE_ROOT = os.environ.get(
    "ODINSON_RAY_ANN_CACHE",
    os.path.join(tempfile.gettempdir(), "odinson_ray_buckets"),
)


def _bucket_ids(col: pa.ChunkedArray, n_buckets: int) -> np.ndarray:
    """Deterministic bucket assignment; identical for any table keyed on
    the same column type, independent of partitioning/retries."""
    from .sketch import _splitmix64

    if pa.types.is_integer(col.type):
        h = _splitmix64(col.to_numpy(zero_copy_only=False).astype(np.uint64))
        return (h % np.uint64(n_buckets)).astype(np.int64)
    return np.fromiter(
        (int.from_bytes(hashlib.md5(str(v).encode()).digest()[:8], "little")
         % n_buckets for v in col.to_pylist()),
        dtype=np.int64, count=len(col))


def _layout_dir(src: str, key: str, n_buckets: int, cols: str) -> str:
    st = os.stat(src)
    tag = hashlib.md5(
        f"{os.path.abspath(src)}:{st.st_size}:{st.st_mtime_ns}:{key}:"
        f"{n_buckets}:{cols}:v1".encode()).hexdigest()[:16]
    return os.path.join(_CACHE_ROOT, tag)


def bucket_layout(src_parquet: str, key: str, columns,
                  n_buckets: int = 32) -> str:
    """Write ``src_parquet`` (projected to ``columns``) partitioned by
    hash(key) % n_buckets, with a _meta.json manifest (bucket -> file
    list) so readers never list directories. Idempotent per corpus
    version; write-to-temp + atomic rename (crash-safe, race-safe).

    ``columns``: list of source columns, or {src: out} dict to rename at
    write time (joins need the SAME key name on both layouts — bucket on
    the post-rename ``key``)."""
    from ..sources.io import read_table

    rename = dict(columns) if isinstance(columns, dict) else {
        c: c for c in columns}
    out = _layout_dir(src_parquet, key, n_buckets,
                      ",".join(f"{k}>{v}" for k, v in sorted(rename.items())))
    if os.path.exists(os.path.join(out, "_SUCCESS")):
        return out
    _require_shared_root()
    os.makedirs(_CACHE_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=os.path.basename(out) + ".tmp.",
                           dir=_CACHE_ROOT)

    def tag(t: pa.Table) -> pa.Table:
        t = t.rename_columns([rename[c] for c in t.column_names])
        return t.append_column(
            "_bucket", pa.array(_bucket_ids(t[key], n_buckets), pa.int64()))

    (read_table(src_parquet, columns=list(rename))
     .map_batches(tag, batch_format="pyarrow")
     .write_parquet(tmp, partition_cols=["_bucket"]))
    buckets = {}
    for d in sorted(os.listdir(tmp)):
        if not d.startswith("_bucket="):
            continue
        bdir = os.path.join(tmp, d)
        files = sorted(f for f in os.listdir(bdir) if f.endswith(".parquet"))
        buckets[d.split("=", 1)[1]] = [f"{d}/{f}" for f in files]
    with open(os.path.join(tmp, "_meta.json"), "w") as fh:
        json.dump({"key": key, "n_buckets": n_buckets, "buckets": buckets}, fh)
    return _atomic_publish(tmp, out)


def bucket_layout_ds(ds, key: str, n_buckets: int, tag: str) -> str:
    """bucket_layout for a DATASET source (e.g. the extracted triple
    stream): same hash(key) % n_buckets partitioned-parquet layout,
    manifest and atomic publish, but cache identity comes from the
    caller-supplied ``tag`` (corpus version) instead of a source file's
    stat — Datasets have no mtime. This is the 'graph materialize' step
    of the north rule: pay the one shuffle-free partitioned write, then
    every downstream per-entity aggregate or join runs one task per
    bucket with zero runtime shuffle."""
    out = os.path.join(_CACHE_ROOT, hashlib.md5(
        f"ds:{tag}:{key}:{n_buckets}:v1".encode()).hexdigest()[:16])
    if os.path.exists(os.path.join(out, "_SUCCESS")):
        return out
    _require_shared_root()
    os.makedirs(_CACHE_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=os.path.basename(out) + ".tmp.",
                           dir=_CACHE_ROOT)

    def tag_batch(t: pa.Table) -> pa.Table:
        return t.append_column(
            "_bucket", pa.array(_bucket_ids(t[key], n_buckets), pa.int64()))

    ds.map_batches(tag_batch, batch_format="pyarrow").write_parquet(
        tmp, partition_cols=["_bucket"])
    buckets = {}
    for d in sorted(os.listdir(tmp)):
        if not d.startswith("_bucket="):
            continue
        bdir = os.path.join(tmp, d)
        files = sorted(f for f in os.listdir(bdir) if f.endswith(".parquet"))
        buckets[d.split("=", 1)[1]] = [f"{d}/{f}" for f in files]
    with open(os.path.join(tmp, "_meta.json"), "w") as fh:
        json.dump({"key": key, "n_buckets": n_buckets, "buckets": buckets},
                  fh)
    return _atomic_publish(tmp, out)


def bucketed_aggregate(root: str, schema: pa.Schema, agg_fn):
    """Per-bucket aggregate over a bucketed layout with ZERO runtime
    shuffle: one task per bucket reads exactly that bucket's files and
    applies ``agg_fn`` (keys are entirely within one bucket, so per-key
    grouping inside the task is exact and complete)."""
    import ray

    with open(os.path.join(root, "_meta.json")) as fh:
        meta = json.load(fh)
    n = meta["n_buckets"]

    def run_bucket(batch: pa.Table) -> pa.Table:
        outs = []
        for b in batch["b"].to_pylist():
            t = _read_bucket(root, meta, b, schema)
            if t.num_rows:
                outs.append(agg_fn(t))
        if outs:
            return pa.concat_tables(outs)
        # empty bucket: an empty table with the AGGREGATE's schema (None
        # is rejected by map_batches; a zero-column table poisons unions)
        return agg_fn(schema.empty_table())

    ids = ray.data.from_arrow(pa.table({"b": pa.array(range(n), pa.int64())}))
    return ids.map_batches(run_bucket, batch_format="pyarrow", batch_size=1)


def zonemap_layout(src_parquet: str, ts_col: str, columns,
                   n_shards: int = 16) -> str:
    """Write a table as n_shards parquet files in NATURAL ORDER with a
    per-file (min, max) zone map on ``ts_col`` in the manifest — the
    Iceberg/ORC data-skipping idea. No shuffle at build time (unlike
    bucket_layout): zone maps exploit whatever clustering the data
    already has (event streams arrive roughly time-ordered), and a range
    scan then opens only the files whose [min, max] intersects the
    predicate. Stats come from the parquet FOOTERS, not a data scan.
    Idempotent per corpus version; atomic publish."""
    import pyarrow.parquet as pq

    from ..sources.io import read_table

    out = _layout_dir(src_parquet, ts_col, n_shards,
                      "zonemap:" + ",".join(sorted(columns)))
    if os.path.exists(os.path.join(out, "_SUCCESS")):
        return out
    _require_shared_root()
    os.makedirs(_CACHE_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=os.path.basename(out) + ".tmp.",
                           dir=_CACHE_ROOT)
    (read_table(src_parquet, columns=list(columns))
     .repartition(n_shards)
     .write_parquet(tmp))
    files = []
    for f in sorted(os.listdir(tmp)):
        if not f.endswith(".parquet"):
            continue
        md = pq.ParquetFile(os.path.join(tmp, f)).metadata
        idx = md.schema.to_arrow_schema().get_field_index(ts_col)
        mins, maxs = [], []
        for rg in range(md.num_row_groups):
            st = md.row_group(rg).column(idx).statistics
            if st is None or not st.has_min_max:
                mins, maxs = [], []
                break
            mins.append(st.min)
            maxs.append(st.max)
        if not mins:  # footer stats missing: fall back to a column scan
            col = pq.read_table(os.path.join(tmp, f), columns=[ts_col])
            mins = [pa.compute.min(col[ts_col]).as_py()]
            maxs = [pa.compute.max(col[ts_col]).as_py()]

        def _us(v):
            if hasattr(v, "timestamp"):
                from datetime import timezone

                if v.tzinfo is None:  # parquet stats are UTC-naive
                    v = v.replace(tzinfo=timezone.utc)
                return int(v.timestamp() * 1_000_000)
            return int(v)

        files.append({"file": f, "min_us": min(_us(v) for v in mins),
                      "max_us": max(_us(v) for v in maxs)})
    with open(os.path.join(tmp, "_meta.json"), "w") as fh:
        json.dump({"ts_col": ts_col, "files": files}, fh)
    return _atomic_publish(tmp, out)


def zonemap_scan(root: str, lo_us: int, hi_us: int):
    """Dataset over only the files whose zone map intersects
    [lo_us, hi_us) — the caller applies the exact residual filter (zone
    maps are a superset guarantee). Returns (dataset_or_None,
    n_files_read, n_files_total); None when every file is skipped."""
    from ..sources.io import read_table

    with open(os.path.join(root, "_meta.json")) as fh:
        meta = json.load(fh)
    keep = [f["file"] for f in meta["files"]
            if f["min_us"] < hi_us and f["max_us"] >= lo_us]
    total = len(meta["files"])
    if not keep:
        return None, 0, total
    ds = read_table([os.path.join(root, f) for f in keep])
    return ds, len(keep), total


def _read_bucket(root: str, manifest: dict, bucket: int,
                 schema: pa.Schema) -> pa.Table:
    import pyarrow.parquet as pq

    files = manifest["buckets"].get(str(bucket), [])
    if not files:
        return schema.empty_table()
    tabs = [pq.read_table(os.path.join(root, f)) for f in files]
    t = pa.concat_tables(tabs)
    return t.select(schema.names)


def bucketed_join(root_a: str, root_b: str, key: str,
                  schema_a: pa.Schema, schema_b: pa.Schema,
                  post=None):
    """Co-located inner join of two layouts bucketed on the SAME key and
    bucket count: one task per bucket reads exactly that bucket's files
    from both roots and joins locally (pyarrow acero) — zero runtime
    shuffle. ``post`` optionally post-processes each bucket's joined
    table IN the same task (e.g. a per-key aggregate: keys are entirely
    within one bucket, so grouping there is exact), which is the whole
    point of bucketing — join + aggregate without any all-to-all."""
    import ray

    with open(os.path.join(root_a, "_meta.json")) as fh:
        meta_a = json.load(fh)
    with open(os.path.join(root_b, "_meta.json")) as fh:
        meta_b = json.load(fh)
    assert meta_a["key"] == meta_b["key"] == key, (meta_a, meta_b, key)
    assert meta_a["n_buckets"] == meta_b["n_buckets"], "bucket counts differ"
    n = meta_a["n_buckets"]

    def join_bucket(batch: pa.Table) -> pa.Table:
        outs = []
        for b in batch["b"].to_pylist():
            ta = _read_bucket(root_a, meta_a, b, schema_a)
            tb = _read_bucket(root_b, meta_b, b, schema_b)
            j = ta.join(tb, keys=key, join_type="inner")
            outs.append(post(j) if post is not None else j)
        return pa.concat_tables(outs) if outs else None

    ids = ray.data.from_arrow(pa.table({"b": pa.array(range(n), pa.int64())}))
    # one bucket per task: per-task memory is one bucket pair, and all
    # n_buckets tasks run independently
    return ids.map_batches(join_bucket, batch_format="pyarrow", batch_size=1)


# ============================================================== z-order

def _spread16(v: np.ndarray) -> np.ndarray:
    """Interleave-ready bit spread: 16-bit values -> even bit positions
    of a 32-bit word (classic Morton-code magic masks), vectorized."""
    v = v.astype(np.uint64) & np.uint64(0xFFFF)
    v = (v | (v << np.uint64(8))) & np.uint64(0x00FF00FF)
    v = (v | (v << np.uint64(4))) & np.uint64(0x0F0F0F0F)
    v = (v | (v << np.uint64(2))) & np.uint64(0x33333333)
    v = (v | (v << np.uint64(1))) & np.uint64(0x55555555)
    return v


def _col_i64(t: pa.Table, col: str) -> np.ndarray:
    c = t[col]
    if pa.types.is_timestamp(c.type):
        # normalize to MICROSECONDS regardless of source unit, so scan
        # bounds and manifest boxes always compare in the same unit
        c = c.cast(pa.timestamp("us")).cast(pa.int64())
    return c.to_numpy(zero_copy_only=False).astype(np.int64)


def zorder_layout(src_parquet: str, col_x: str, col_y: str, columns,
                  n_shards: int = 32) -> str:
    """Write a table CLUSTERED BY the Morton (z-order) interleave of two
    columns, with a per-file 2-D zone map (min/max of BOTH columns) in
    the manifest — the Delta/Iceberg OPTIMIZE ZORDER idea. A 1-D sort
    gives perfect skipping on one column and none on the other; the
    z-curve gives ~sqrt skipping on each, so rectangle predicates
    (key range x time range) open only the files whose 2-D box
    intersects. Build cost is ONE global sort on the 32-bit z key
    (Ray's distributed sort — the same all-to-all any clustering pays);
    timestamps are cast to int64 us. Values are normalized to a 16-bit
    grid from global min/max (one metadata-sized aggregate); ties in
    the grid are harmless (they only cost skipping precision, never
    correctness — scans apply the exact residual filter).
    Idempotent per corpus version; atomic publish."""
    import pyarrow.parquet as pq
    from ray.data.aggregate import Max, Min

    from ..sources.io import read_table

    out = _layout_dir(src_parquet, f"{col_x}|{col_y}", n_shards,
                      "zorder:" + ",".join(sorted(columns)))
    if os.path.exists(os.path.join(out, "_SUCCESS")):
        return out
    _require_shared_root()
    os.makedirs(_CACHE_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=os.path.basename(out) + ".tmp.",
                           dir=_CACHE_ROOT)

    ds = read_table(src_parquet, columns=list(columns))
    stats = ds.map_batches(
        lambda t: pa.table({"x": pa.array(_col_i64(t, col_x)),
                            "y": pa.array(_col_i64(t, col_y))}),
        batch_format="pyarrow").aggregate(
        Min("x"), Max("x"), Min("y"), Max("y"))
    x0, x1 = stats["min(x)"], stats["max(x)"]
    y0, y1 = stats["min(y)"], stats["max(y)"]
    if x0 is None or y0 is None:  # empty source: publish an empty layout
        with open(os.path.join(tmp, "_meta.json"), "w") as fh:
            json.dump({"col_x": col_x, "col_y": col_y, "files": []}, fh)
        return _atomic_publish(tmp, out)
    xs = max(x1 - x0, 1)
    ys = max(y1 - y0, 1)

    def add_z(t: pa.Table) -> pa.Table:
        x = _col_i64(t, col_x)
        y = _col_i64(t, col_y)
        xi = ((x - x0).astype(np.float64) * 65535.0 / xs).astype(np.uint64)
        yi = ((y - y0).astype(np.float64) * 65535.0 / ys).astype(np.uint64)
        z = _spread16(xi) | (_spread16(yi) << np.uint64(1))
        return t.append_column("_z", pa.array(z.astype(np.int64)))

    (ds.map_batches(add_z, batch_format="pyarrow")
     .sort("_z")
     .map_batches(lambda t: t.drop_columns(["_z"]),
                  batch_format="pyarrow")
     .repartition(n_shards)
     .write_parquet(tmp))

    files = []
    for f in sorted(os.listdir(tmp)):
        if not f.endswith(".parquet"):
            continue
        tab = pq.read_table(os.path.join(tmp, f), columns=[col_x, col_y])
        if tab.num_rows == 0:
            continue
        fx = _col_i64(tab, col_x)
        fy = _col_i64(tab, col_y)
        files.append({"file": f,
                      "x_min": int(fx.min()), "x_max": int(fx.max()),
                      "y_min": int(fy.min()), "y_max": int(fy.max())})
    with open(os.path.join(tmp, "_meta.json"), "w") as fh:
        json.dump({"col_x": col_x, "col_y": col_y, "files": files}, fh)
    return _atomic_publish(tmp, out)


def zorder_scan(root: str, x_lo: int, x_hi: int, y_lo: int, y_hi: int):
    """Dataset over only the files whose 2-D zone box intersects the
    half-open rectangle [x_lo, x_hi) x [y_lo, y_hi). The caller applies
    the exact residual filter. Returns (dataset_or_None, n_read,
    n_total)."""
    from ..sources.io import read_table

    with open(os.path.join(root, "_meta.json")) as fh:
        meta = json.load(fh)
    keep = [f["file"] for f in meta["files"]
            if f["x_min"] < x_hi and f["x_max"] >= x_lo
            and f["y_min"] < y_hi and f["y_max"] >= y_lo]
    total = len(meta["files"])
    if not keep:
        return None, 0, total
    ds = read_table([os.path.join(root, f) for f in keep])
    return ds, len(keep), total


# ============================================================ compaction

def compact_layout(root: str) -> str:
    """Small-file compaction of a bucketed layout: rewrite every bucket
    with >1 file into ONE file (one task per bucket — compaction
    parallelism is bucket parallelism), publish as a NEW layout root
    with a fresh manifest; the old root stays valid for in-flight
    readers (the Iceberg rewrite-manifest discipline). Buckets already
    in one file are hard-linked, not rewritten. Idempotent: compacting
    an already-compact layout returns a new root with identical
    content."""
    import ray

    with open(os.path.join(root, "_meta.json")) as fh:
        meta = json.load(fh)
    _require_shared_root()
    out = os.path.join(
        _CACHE_ROOT,
        hashlib.md5(f"compact:{os.path.abspath(root)}:v1".encode())
        .hexdigest()[:16])
    if os.path.exists(os.path.join(out, "_SUCCESS")):
        return out
    tmp = tempfile.mkdtemp(prefix=os.path.basename(out) + ".tmp.",
                           dir=_CACHE_ROOT)

    def compact_bucket(batch: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        done = []
        for b in batch["b"].to_pylist():
            files = meta["buckets"].get(str(b), [])
            if not files:
                done.append((b, 0, ""))
                continue
            bdir = os.path.join(tmp, f"_bucket={b}")
            os.makedirs(bdir, exist_ok=True)
            rel = f"_bucket={b}/part-0.parquet"
            if len(files) == 1:
                os.link(os.path.join(root, files[0]),
                        os.path.join(tmp, rel))
            else:
                t = pa.concat_tables(
                    [pq.read_table(os.path.join(root, f)) for f in files])
                pq.write_table(t, os.path.join(tmp, rel))
            done.append((b, len(files), rel))
        return pa.table({
            "b": pa.array([d[0] for d in done], pa.int64()),
            "n_in": pa.array([d[1] for d in done], pa.int64()),
            "rel": pa.array([d[2] for d in done], pa.string()),
        })

    n = meta["n_buckets"]
    ids = ray.data.from_arrow(pa.table({"b": pa.array(range(n), pa.int64())}))
    rows = ids.map_batches(compact_bucket, batch_format="pyarrow",
                           batch_size=1).take_all()  # n_buckets rows
    buckets = {str(r["b"]): [r["rel"]] for r in rows if r["n_in"]}
    with open(os.path.join(tmp, "_meta.json"), "w") as fh:
        json.dump({"key": meta["key"], "n_buckets": n, "buckets": buckets},
                  fh)
    return _atomic_publish(tmp, out)


def merge_layouts(root_a: str, root_b: str) -> str:
    """Incremental layout maintenance: merge two bucketed layouts that
    share (key, n_buckets) into a NEW root whose per-bucket file lists
    are the union — data files are HARD-LINKED, never copied or
    rewritten, so appending a delta corpus to a published index costs
    only the delta's own partitioned write plus metadata. Old roots
    stay valid for in-flight readers (the compact_layout discipline);
    readers of the merged root see base + delta atomically."""
    with open(os.path.join(root_a, "_meta.json")) as fh:
        ma = json.load(fh)
    with open(os.path.join(root_b, "_meta.json")) as fh:
        mb = json.load(fh)
    if (ma["key"], ma["n_buckets"]) != (mb["key"], mb["n_buckets"]):
        raise ValueError(
            f"layout mismatch: {ma['key']}/{ma['n_buckets']} vs "
            f"{mb['key']}/{mb['n_buckets']}")
    na = os.path.basename(os.path.normpath(root_a))
    nb = os.path.basename(os.path.normpath(root_b))
    if na == nb:
        raise ValueError(f"cannot merge a layout with itself: {root_a}")
    out = os.path.join(_CACHE_ROOT, hashlib.md5(
        f"merge:{na}:{nb}:v1".encode()).hexdigest()[:16])
    if os.path.exists(os.path.join(out, "_SUCCESS")):
        return out
    _require_shared_root()
    os.makedirs(_CACHE_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=os.path.basename(out) + ".tmp.",
                           dir=_CACHE_ROOT)
    buckets: dict = {}
    for src_tag, (root, m) in (("a", (root_a, ma)), ("b", (root_b, mb))):
        for b, files in m["buckets"].items():
            for rel in files:
                d, fname = os.path.split(rel)
                os.makedirs(os.path.join(tmp, d), exist_ok=True)
                new_rel = f"{d}/{src_tag}_{fname}"
                os.link(os.path.join(root, rel),
                        os.path.join(tmp, new_rel))
                buckets.setdefault(b, []).append(new_rel)
    with open(os.path.join(tmp, "_meta.json"), "w") as fh:
        json.dump({"key": ma["key"], "n_buckets": ma["n_buckets"],
                   "buckets": buckets}, fh)
    return _atomic_publish(tmp, out)


def hive_layout(src_parquet: str, part_col: str, columns) -> str:
    """Write ``src_parquet`` (projected to ``columns``) as a hive-style
    VALUE-partitioned layout (``part_col=<value>/`` directories — the
    Hive/Iceberg identity-partitioning counterpart to the hash buckets
    above), with a ``_meta.json`` manifest mapping each partition value
    to its file list so readers never list directories. Idempotent per
    corpus version; atomic publish. The reference's per-corpus index
    directories (extra/.../IndexDocuments.scala) are the analogous
    pay-once layout.

    Partition values are written verbatim into directory names — keep
    ``part_col`` to identifier-ish strings (langs, sources, dates); a
    value needing URL-escaping would round-trip through Ray's writer
    encoding and is rejected here rather than silently re-encoded."""
    from ..sources.io import read_table

    cols = sorted(set(columns) | {part_col})
    out = _layout_dir(src_parquet, part_col, 0, ",".join(cols) + ":hive")
    if os.path.exists(os.path.join(out, "_SUCCESS")):
        return out
    _require_shared_root()
    os.makedirs(_CACHE_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=os.path.basename(out) + ".tmp.",
                           dir=_CACHE_ROOT)
    (read_table(src_parquet, columns=cols)
     .write_parquet(tmp, partition_cols=[part_col]))
    parts: dict = {}
    prefix = f"{part_col}="
    for d in sorted(os.listdir(tmp)):
        if not d.startswith(prefix):
            continue
        val = d[len(prefix):]
        if f"{part_col}={val}" != d or "%" in val:
            raise ValueError(
                f"partition value not identifier-safe: {d!r}")
        pdir = os.path.join(tmp, d)
        files = sorted(f for f in os.listdir(pdir) if f.endswith(".parquet"))
        parts[val] = [f"{d}/{f}" for f in files]
    with open(os.path.join(tmp, "_meta.json"), "w") as fh:
        json.dump({"part_col": part_col, "parts": parts}, fh)
    return _atomic_publish(tmp, out)


def hive_scan(root: str, value: str):
    """Partition-pruned read: open ONLY the files of ``value``'s
    partition (the manifest is the prune — no directory listing, no
    footer reads for other partitions) and restore the partition column
    the hive writer factored out into the directory name. Returns a
    Dataset; empty partition -> an empty Dataset."""
    import ray.data

    from ..sources.io import read_table

    with open(os.path.join(root, "_meta.json")) as fh:
        meta = json.load(fh)
    part_col = meta["part_col"]
    files = meta["parts"].get(str(value), [])
    if not files:
        return ray.data.from_arrow(
            pa.table({part_col: pa.array([], pa.string())}))

    def restore(t: pa.Table) -> pa.Table:
        # Ray's parquet reader usually re-infers the hive column from the
        # path; restore it only when inference didn't (and normalize the
        # inferred type to plain string either way).
        if part_col in t.column_names:
            i = t.column_names.index(part_col)
            return t.set_column(i, part_col,
                                pc.cast(t[part_col], pa.string()))
        return t.append_column(
            part_col, pa.array([str(value)] * t.num_rows, pa.string()))

    return (read_table([os.path.join(root, f) for f in files])
            .map_batches(restore, batch_format="pyarrow"))


# ===================================== bloom-filter file skipping

def _bloom_hashes(keys: "np.ndarray", m_bits: int, k: int) -> "np.ndarray":
    """k double-hashed bit positions per key (h1 + i*h2 mod m), from two
    independent splitmix64 streams — deterministic, vectorized."""
    from .sketch import _splitmix64

    u = keys.astype(np.uint64)
    h1 = _splitmix64(u)
    h2 = _splitmix64(u ^ np.uint64(0x9E3779B97F4A7C15)) | np.uint64(1)
    i = np.arange(k, dtype=np.uint64)[:, None]
    return ((h1[None, :] + i * h2[None, :]) % np.uint64(m_bits))


def bloom_layout(src_parquet: str, key_col: str, columns,
                 n_shards: int = 16, bits_per_key: int = 16,
                 k_hashes: int = 4) -> str:
    """Write a table as ``n_shards`` parquet files in natural order with
    a per-file BLOOM FILTER on ``key_col`` in the manifest — the
    point-lookup complement of ``zonemap_layout`` (zone maps skip by
    range on clustered columns; blooms skip by membership on
    high-cardinality keys regardless of ordering). Build cost is one
    key-column scan per file; the filter is a base16 bitset in
    _meta.json. Idempotent per corpus version; atomic publish."""
    import pyarrow.parquet as pq

    from ..sources.io import read_table

    out = _layout_dir(src_parquet, key_col, n_shards,
                      f"bloom{bits_per_key}x{k_hashes}:"
                      + ",".join(sorted(columns)))
    if os.path.exists(os.path.join(out, "_SUCCESS")):
        return out
    _require_shared_root()
    os.makedirs(_CACHE_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=os.path.basename(out) + ".tmp.",
                           dir=_CACHE_ROOT)
    (read_table(src_parquet, columns=list(columns))
     .repartition(n_shards)
     .write_parquet(tmp))

    import ray

    @ray.remote
    def _file_bloom(path: str, fname: str) -> dict:
        # one task per shard: the key-column scan and bit fold run where
        # the data is — the driver only ever sees the finished bitsets
        # (KBs each), never a key column
        import pyarrow.parquet as pq2

        col = pq2.read_table(path, columns=[key_col])
        keys = col[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        n = max(len(np.unique(keys)), 1)
        m_bits = 1 << int(np.ceil(np.log2(max(n * bits_per_key, 64))))
        bits = np.zeros(m_bits // 8, dtype=np.uint8)
        pos = _bloom_hashes(keys, m_bits, k_hashes).ravel()
        np.bitwise_or.at(bits, (pos // 8).astype(np.int64),
                         (1 << (pos % 8)).astype(np.uint8))
        return {"file": fname, "m_bits": int(m_bits),
                "bloom": bits.tobytes().hex()}

    names = [f for f in sorted(os.listdir(tmp)) if f.endswith(".parquet")]
    files = ray.get([_file_bloom.remote(os.path.join(tmp, f), f)
                     for f in names])
    with open(os.path.join(tmp, "_meta.json"), "w") as fh:
        json.dump({"key_col": key_col, "k_hashes": k_hashes,
                   "files": files}, fh)
    return _atomic_publish(tmp, out)


def bloom_scan(root: str, probe_keys):
    """Dataset over only the files whose bloom filter matches AT LEAST
    ONE probe key (a superset guarantee — the caller applies the exact
    residual filter). Returns (dataset_or_None, n_files_read,
    n_files_total). The manifest is KBs per file; probing is driver-side
    bit arithmetic, no file I/O for skipped shards."""
    from ..sources.io import read_table

    with open(os.path.join(root, "_meta.json")) as fh:
        meta = json.load(fh)
    k = meta["k_hashes"]
    probes = np.asarray(list(probe_keys), dtype=np.int64)
    keep = []
    for entry in meta["files"]:
        bits = np.frombuffer(bytes.fromhex(entry["bloom"]), dtype=np.uint8)
        pos = _bloom_hashes(probes, entry["m_bits"], k)  # (k, n_probes)
        hit = (bits[(pos // 8).astype(np.int64)]
               >> (pos % 8).astype(np.uint8)) & 1
        if bool(hit.all(axis=0).any()):  # some probe has all k bits set
            keep.append(entry["file"])
    total = len(meta["files"])
    if not keep:
        return None, 0, total
    ds = read_table([os.path.join(root, f) for f in keep])
    return ds, len(keep), total
