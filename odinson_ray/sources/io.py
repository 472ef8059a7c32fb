"""Format-dispatching table IO: parquet everywhere, Lance when present.

``BASELINE.json``'s input_hint names a Lance table, but the build
sandbox has no ``lance``/``pylance`` library, so every dataset in this
repo is parquet (VERDICT r02 missing #3). This module makes the swap
structural instead of a docstring promise: readers/writers dispatch on
the path's extension, the Lance branch is import-gated with an
actionable error, and ``documents_path`` prefers ``documents.lance``
over ``documents.parquet`` when both exist — so dropping Lance files
into a data dir on a machine with the library activates the Lance path
with no code change.

Ray Data has native ``read_lance``/``write_lance`` (ray.data.read_lance
wraps lance.dataset fragments into Ray blocks), so the Lance branch is
the same streaming-read shape as parquet: column-pruned scans feeding
``map_batches``, one block per fragment.
"""

from __future__ import annotations

import os

_LANCE_HELP = (
    "is a Lance table, but the 'lance' library is not installed in this "
    "environment; install pylance (pip install pylance) or convert the "
    "table to parquet"
)


def _strip_meta(t):
    """Drop schema metadata (pandas-written parquet carries a b'pandas'
    key that makes pa.Schema UNHASHABLE — "Failed to hash the schemas" —
    so every Ray Data schema dedup falls to the slow unify path). O(1)
    metadata-only op; Ray fuses it into the read tasks."""
    return t.replace_schema_metadata(None) if t.schema.metadata else t


def _clean_schema_of(path, columns):
    """Metadata-free (and column-projected) schema of a parquet path —
    a file, a list of files, or a directory of part files. None when it
    can't be determined cheaply."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    p = path[0] if isinstance(path, (list, tuple)) and path else path
    if not isinstance(p, str):
        return None
    try:
        if os.path.isdir(p):
            parts = sorted(
                f for f in os.listdir(p) if f.endswith(".parquet"))
            if not parts:
                return None
            p = os.path.join(p, parts[0])
        full = pq.read_schema(p).remove_metadata()
        if columns is None:
            return full
        return pa.schema([full.field(c) for c in columns])
    except Exception:
        return None


def read_parquet_clean(path, columns=None, **kwargs):
    """ray.data.read_parquet with schema metadata stripped AT THE READ.
    pandas-written parquet carries a b'pandas' metadata key that makes
    pa.Schema unhashable, so every downstream schema dedup falls to the
    slow unify path and logs "Failed to hash the schemas". Passing an
    explicit stripped schema makes the read tasks themselves emit clean
    blocks (a post-read map_batches strip is too late — the warning
    fires when the read outputs are batched). Falls back to the
    map_batches strip when the schema can't be pre-read (exotic paths,
    filesystems)."""
    import ray.data as rd

    if "schema" not in kwargs:
        schema = _clean_schema_of(path, columns)
        if schema is not None:
            return rd.read_parquet(path, columns=columns, schema=schema,
                                   **kwargs)
    return rd.read_parquet(path, columns=columns, **kwargs).map_batches(
        _strip_meta, batch_format="pyarrow")


class _CleanRD:
    """Drop-in stand-in for the ``ray.data`` module that routes
    ``read_parquet`` through :func:`read_parquet_clean` and proxies
    everything else — lets call sites keep the ``rd.`` idiom."""

    read_parquet = staticmethod(read_parquet_clean)

    def __getattr__(self, name):
        import ray.data as rd

        return getattr(rd, name)


clean_rd = _CleanRD()


def read_table(path: str, columns=None, override_num_blocks=None):
    """Dataset from a parquet or Lance path (extension-dispatched)."""
    import ray.data as rd

    kwargs = {}
    if override_num_blocks is not None:
        kwargs["override_num_blocks"] = override_num_blocks
    if path.endswith(".lance"):
        try:
            import lance  # noqa: F401
        except ImportError as e:
            raise ImportError(f"{path} {_LANCE_HELP}") from e
        return rd.read_lance(path, columns=columns, **kwargs).map_batches(
            _strip_meta, batch_format="pyarrow")
    return read_parquet_clean(path, columns=columns, **kwargs)


def write_table(ds, path: str, **kwargs):
    """Write a Dataset to a parquet dir or Lance table (by extension)."""
    if path.endswith(".lance"):
        try:
            import lance  # noqa: F401
        except ImportError as e:
            raise ImportError(f"{path} {_LANCE_HELP}") from e
        return ds.write_lance(path, **kwargs)
    return ds.write_parquet(path, **kwargs)


def documents_path(sf_dir: str) -> str:
    """The documents table of a data dir: prefer Lance when present."""
    lance_path = os.path.join(sf_dir, "documents.lance")
    if os.path.exists(lance_path):
        return lance_path
    return os.path.join(sf_dir, "documents.parquet")


def read_parquet_evolved(paths, target_schema=None, columns=None):
    """Read parquet files whose schemas EVOLVED over time (columns added
    or dropped between writes — routine for any long-lived ingest) into
    one Dataset with a single unified schema: missing columns are
    null-filled WITH THE TARGET TYPE, extra columns are dropped, and
    column order is normalized. ``target_schema`` defaults to the union
    of all footer schemas (first-seen type wins; footers only, no data
    scan). Plain ``read_parquet`` fails the block unification instead.
    """
    import pyarrow as pa
    import pyarrow.parquet as pq

    if isinstance(paths, str):
        paths = [paths]
    if target_schema is None:
        fields: dict[str, pa.Field] = {}
        for p in paths:
            for f in pq.read_schema(p):
                fields.setdefault(f.name, f)
        target_schema = pa.schema(list(fields.values()))
    if columns is not None:
        target_schema = pa.schema([target_schema.field(c) for c in columns])

    def conform(t: pa.Table) -> pa.Table:
        cols = []
        for f in target_schema:
            if f.name in t.column_names:
                cols.append(t[f.name].cast(f.type))
            else:
                cols.append(pa.nulls(t.num_rows, f.type))
        return pa.table(dict(zip(target_schema.names, cols)))

    # one read per schema-compatible file; conform per batch (cheap:
    # null columns are lazily allocated, casts are usually no-ops).
    # Project each read to the columns the file actually has ∩ the
    # target — column pruning at the I/O layer, the point of parquet
    datasets = []
    for p in paths:
        have = set(pq.read_schema(p).names)
        cols = [c for c in target_schema.names if c in have]
        datasets.append(
            read_parquet_clean(p, columns=cols or None).map_batches(
                conform, batch_format="pyarrow"))
    out = datasets[0]
    for d in datasets[1:]:
        out = out.union(d)
    return out


def write_ipc_layout(src_parquet: str, columns) -> str:
    """Arrow IPC (Feather v2) sink: write ``src_parquet`` (projected) as
    one IPC file per block under a stat-keyed cache root with a
    ``_meta.json`` manifest — the same pay-once layout discipline as the
    parquet bucket layouts (stages/layout), for the interchange format
    Arrow-native consumers (Polars, DataFusion, Arrow Flight) mmap
    zero-copy. Idempotent per corpus version; atomic publish."""
    import json
    import os
    import tempfile
    import uuid

    import pyarrow as pa

    from ..stages.ann import _atomic_publish, _require_shared_root
    from ..stages.layout import _CACHE_ROOT, _layout_dir

    cols = sorted(columns)
    out = _layout_dir(src_parquet, "", 0, ",".join(cols) + ":ipc")
    if os.path.exists(os.path.join(out, "_SUCCESS")):
        return out
    _require_shared_root()
    os.makedirs(_CACHE_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=os.path.basename(out) + ".tmp.",
                           dir=_CACHE_ROOT)

    def write_block(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"file": pa.array([], pa.string()),
                             "rows": pa.array([], pa.int64())})
        name = f"part-{uuid.uuid4().hex}.arrow"
        with pa.OSFile(os.path.join(tmp, name), "wb") as f:
            with pa.ipc.new_file(f, t.schema) as w:
                w.write_table(t)
        return pa.table({"file": pa.array([name], pa.string()),
                         "rows": pa.array([t.num_rows], pa.int64())})

    schema = _clean_schema_of(src_parquet, cols)
    written = (clean_rd.read_parquet(src_parquet, columns=cols)
               .map_batches(write_block, batch_format="pyarrow")
               .to_pandas())
    # an all-empty source yields zero summary batches -> no columns
    files = (sorted(written["file"].tolist())
             if "file" in written.columns else [])
    n_rows = int(written["rows"].sum()) if "rows" in written.columns else 0
    with open(os.path.join(tmp, "_meta.json"), "w") as fh:
        json.dump({"files": files,
                   "rows": n_rows,
                   "schema_hex": bytes((schema if schema is not None
                                        else pa.schema([])).serialize()
                                       ).hex()}, fh)
    return _atomic_publish(tmp, out)


def read_ipc(root: str):
    """Arrow IPC source: a Dataset over an IPC layout's manifest. Files
    are read whole in parallel tasks (``read_binary_files``) and decoded
    with the zero-copy IPC reader inside each task — file granularity is
    block granularity, exactly like the parquet reads. Empty layout ->
    empty Dataset."""
    import json
    import os

    import pyarrow as pa
    import ray.data

    with open(os.path.join(root, "_meta.json")) as fh:
        meta = json.load(fh)
    if not meta["files"]:
        schema = pa.ipc.read_schema(
            pa.BufferReader(bytes.fromhex(meta["schema_hex"])))
        return ray.data.from_arrow(schema.empty_table())

    def decode(t: pa.Table) -> pa.Table:
        tables = [pa.ipc.open_file(pa.BufferReader(b.as_py())).read_all()
                  for b in t["bytes"]]
        return _strip_meta(pa.concat_tables(tables))

    files = [os.path.join(root, f) for f in meta["files"]]
    return (ray.data.read_binary_files(files)
            .map_batches(decode, batch_format="pyarrow"))


def document_read_columns(path: str):
    """Pruned read columns for the documents table: the four the
    deterministic annotation derives from plus caller-supplied metadata
    columns present in the parquet footer (pruning them silently
    dropped a corpus's metadata from the matcher before round 5).
    ``None`` (read every column) for a path whose schema is not sniffed
    here, e.g. a Lance table, so its metadata columns are never pruned.
    Shared by the flagship read (pipelines/kg) and the shard runners
    (state/checkpoint) so the two sniffs cannot drift."""
    if not path.endswith(".parquet"):
        return None
    import pyarrow.parquet as pq

    present = set(pq.read_schema(path).names)
    return ["doc_id", "text", "lang", "source"] + [
        c for c in ("metadata", "metadata_json") if c in present]
