"""File formats, physical layouts and media.

Round trips through JSONL, CSV, ORC, Arrow IPC and span files; bucketed,
zone-map, Z-order, Hive-partitioned and Bloom-filtered layouts that
prune reads; and the media queries (manifests, image features,
resizing, perceptual hashes, video frames, caption pairs).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from odinson_ray.sources.io import table
from odinson_ray.stages.shuffle import combine_aggregate, partial_aggregate

from . import query


ORACLE_SPANS_ROUNDTRIP = """
WITH base AS (
  SELECT doc_id, string_split(text, ' ') AS t,
         CAST(ceil(len(string_split(text, ' ')) / 20.0) AS INT) AS n_sent
  FROM documents
),
sent_idx AS (
  SELECT doc_id, t, n_sent, unnest(generate_series(1, n_sent)) AS i FROM base
),
text_spans AS (
  SELECT printf('doc-%06d', doc_id) AS doc_id,
         CAST(i - 1 + (CASE WHEN doc_id % 5 = 0 AND i > 1 THEN 1 ELSE 0 END) AS INT) AS "offset",
         'text' AS kind,
         array_to_string(t[(20 * (i - 1) + 1):(20 * i)], ' ') AS text,
         '' AS media_ref
  FROM sent_idx
),
image_spans AS (
  SELECT printf('doc-%06d', doc_id) AS doc_id, CAST(1 AS INT) AS "offset",
         'image' AS kind, '' AS text, 'media://img/' || doc_id AS media_ref
  FROM base WHERE doc_id % 5 = 0
),
audio_spans AS (
  SELECT printf('doc-%06d', doc_id) AS doc_id,
         CAST(n_sent + (CASE WHEN doc_id % 5 = 0 THEN 1 ELSE 0 END) AS INT) AS "offset",
         'audio' AS kind, '' AS text, 'media://aud/' || doc_id AS media_ref
  FROM base WHERE doc_id % 11 = 0
)
SELECT * FROM text_spans
UNION ALL SELECT * FROM image_spans
UNION ALL SELECT * FROM audio_spans
"""


@query("spans_roundtrip", oracle=ORACLE_SPANS_ROUNDTRIP)
def q_spans_roundtrip(sf_dir: str):
    """The per-row span-sequence invariant, surfaced as a query: the
    interleaved table exploded to (doc_id, offset, kind, text, media_ref);
    the oracle re-derives the exact interleaving from documents."""
    from odinson_ray.sources.interleaved import read_interleaved

    def explode(t: pa.Table) -> pa.Table:
        spans = t["spans"]
        flat = pc.list_flatten(spans).combine_chunks()
        parents = pc.list_parent_indices(spans)
        doc_ids = pc.take(t["doc_id"], parents)
        return pa.Table.from_pydict(
            {
                "doc_id": doc_ids,
                "offset": flat.field("offset"),
                "kind": flat.field("kind"),
                "text": flat.field("text"),
                "media_ref": flat.field("media_ref"),
            }
        )

    return read_interleaved(sf_dir).map_batches(explode, batch_format="pyarrow")


ORACLE_MEDIA_MANIFEST = """
SELECT printf('doc-%06d', doc_id) AS doc_id, 'image' AS kind,
       'media://img/' || doc_id AS media_ref
FROM documents WHERE doc_id % 5 = 0
UNION ALL
SELECT printf('doc-%06d', doc_id) AS doc_id, 'audio' AS kind,
       'media://aud/' || doc_id AS media_ref
FROM documents WHERE doc_id % 11 = 0
"""


@query("media_manifest", oracle=ORACLE_MEDIA_MANIFEST)
def q_media_manifest(sf_dir: str):
    """Media spans only (multimodal passthrough manifest)."""
    from odinson_ray.sources.interleaved import read_interleaved

    def explode_media(t: pa.Table) -> pa.Table:
        spans = t["spans"]
        flat = pc.list_flatten(spans).combine_chunks()
        parents = pc.list_parent_indices(spans)
        doc_ids = pc.take(t["doc_id"], parents)
        tbl = pa.Table.from_pydict(
            {
                "doc_id": doc_ids,
                "kind": flat.field("kind"),
                "media_ref": flat.field("media_ref"),
            }
        )
        return tbl.filter(pc.not_equal(tbl["kind"], "text"))

    return read_interleaved(sf_dir).map_batches(explode_media, batch_format="pyarrow")


ORACLE_MEDIA_FEATURES = """
WITH media AS (
  SELECT printf('doc-%06d', doc_id) AS doc_id,
         'media://img/' || doc_id AS media_ref, 'image' AS kind
  FROM documents WHERE doc_id % 5 = 0
  UNION ALL
  SELECT printf('doc-%06d', doc_id), 'media://aud/' || doc_id, 'audio'
  FROM documents WHERE doc_id % 11 = 0
),
scored AS (
  SELECT *, list_sum(list_transform(string_split(media_ref, ''), x -> ascii(x))) AS n
  FROM media
)
SELECT doc_id, media_ref, kind,
       CAST(CASE WHEN kind = 'image' THEN 64 + (n % 64) * 16 ELSE 0 END AS INT) AS width,
       CAST(CASE WHEN kind = 'image' THEN 64 + (n % 48) * 16 ELSE 0 END AS INT) AS height,
       CAST(CASE WHEN kind = 'image' THEN 0 ELSE 1 + n % 300 END AS DOUBLE) AS duration_s
FROM scored
"""


@query("media_features", oracle=ORACLE_MEDIA_FEATURES)
def q_media_features(sf_dir: str):
    """Media decode stub features via the actor-pool stage; the oracle
    re-derives the deterministic stub formula."""
    from odinson_ray.stages.media import media_features

    return media_features(sf_dir)


ORACLE_VIDEO_FRAMES = """
WITH vids AS (
  SELECT printf('doc-%06d', doc_id) AS doc_id,
         'media://vid/' || doc_id AS media_ref
  FROM documents WHERE doc_id % 7 = 0
),
scored AS (
  SELECT *, list_sum(list_transform(string_split(media_ref, ''), x -> ascii(x))) AS n
  FROM vids
),
framed AS (
  SELECT doc_id, media_ref,
         least(8, CAST(floor(1 + n % 300) AS INT)) AS n_frames
  FROM scored
)
SELECT doc_id, media_ref,
       CAST(i - 1 AS INT) AS frame_idx,
       round((i - 1) * 1.0, 6) AS t_s
FROM framed, unnest(generate_series(1, n_frames)) AS t(i)
"""


@query("video_frames", oracle=ORACLE_VIDEO_FRAMES)
def q_video_frames(sf_dir: str):
    """Video frame sampling (multimodal stub): deterministic manifest ->
    actor-pool frame expansion (1 fps, max 8 frames); the oracle re-derives
    the stub duration formula and unrolls the frame series in SQL."""
    from odinson_ray.stages.media import video_frames

    return video_frames(sf_dir)


# no ORACLES entry: approximate result, rows-only driver check by design

# ===================================== media near-dup groups (pHash stub)


ORACLE_MEDIA_PHASH_GROUPS = """
WITH media AS (
  SELECT 'image' AS kind, 'media://img/' || doc_id AS media_ref, doc_id
  FROM documents WHERE doc_id % 5 = 0
  UNION ALL
  SELECT 'audio' AS kind, 'media://aud/' || doc_id AS media_ref, doc_id
  FROM documents WHERE doc_id % 11 = 0
),
hashed AS (
  SELECT kind, media_ref,
         substr(md5(kind || ':' || CAST(doc_id % 97 AS VARCHAR)), 1, 16) AS phash
  FROM media
)
SELECT kind, phash, CAST(count(*) AS BIGINT) AS n_assets,
       min(media_ref) AS canonical_ref
FROM hashed GROUP BY kind, phash HAVING count(*) >= 2
"""


@query("media_phash_groups", oracle=ORACLE_MEDIA_PHASH_GROUPS)
def q_media_phash_groups(sf_dir: str):
    """Media near-duplicate groups: perceptual-hash each media span
    (actor pool; the hash itself is an honestly-STUBBED deterministic
    fake — no codecs in this environment — with the real pHash slotting
    into the same actor), then group by (kind, phash) keeping groups
    with >= 2 assets: (kind, phash, n_assets, canonical_ref = min ref).
    The shuffle key is the 16-char hash, never payload bytes."""
    from ray.data.aggregate import Count, Min

    from odinson_ray.sources.interleaved import read_interleaved
    from odinson_ray.stages.media import MediaPerceptualHasher

    def explode_media(t: pa.Table) -> pa.Table:
        spans = t["spans"].combine_chunks()
        flat = pc.list_flatten(spans)
        parents = pc.list_parent_indices(spans)
        ids = t["doc_id"].combine_chunks().take(parents)
        out = pa.table({
            "doc_id": ids,
            "kind": flat.field("kind"),
            "media_ref": flat.field("media_ref"),
        })
        return out.filter(pc.not_equal(out["kind"], "text"))

    manifest = read_interleaved(sf_dir).map_batches(
        explode_media, batch_format="pyarrow")
    hashed = manifest.map_batches(
        MediaPerceptualHasher, concurrency=2, batch_format="pyarrow")
    groups = (
        hashed.groupby(["kind", "phash"])
        .aggregate(Count(alias_name="n_assets"),
                   Min("media_ref", alias_name="canonical_ref"))
    )
    return groups.map_batches(
        lambda t: t.filter(pc.greater_equal(t["n_assets"], 2)),
        batch_format="pyarrow")


# ===================================== bucketed layout co-located join


ORACLE_BUCKETED_JOIN_REVENUE = """
SELECT c_custkey AS custkey, c_name, count(*) AS n_orders,
       CAST(FLOOR(sum(o_totalprice) * 100 + 0.5) AS BIGINT) AS total_ct
FROM orders JOIN customer ON o_custkey = c_custkey
GROUP BY 1, 2
"""


@query("bucketed_join_revenue", oracle=ORACLE_BUCKETED_JOIN_REVENUE)
def q_bucketed_join_revenue(sf_dir: str):
    """Hive-style bucketing (stages/layout.py): orders and customer are
    each written ONCE as parquet partitioned by hash(custkey) % 32 (the
    build's single shuffle, amortized across every later join on that
    key), then the join AND the per-customer aggregate run inside one
    task per bucket with ZERO runtime shuffle — keys are co-located by
    construction, so grouping within a bucket is globally exact."""
    from odinson_ray.stages.layout import bucket_layout, bucketed_join

    root_o = bucket_layout(
        f"{sf_dir}/orders.parquet", "custkey",
        {"o_custkey": "custkey", "o_totalprice": "o_totalprice"})
    root_c = bucket_layout(
        f"{sf_dir}/customer.parquet", "custkey",
        {"c_custkey": "custkey", "c_name": "c_name"})

    def per_bucket_agg(j: pa.Table) -> pa.Table:
        g = partial_aggregate(j, ["custkey", "c_name"],
                              [("n_orders", None, "count_all"),
                               ("_sum", "o_totalprice", "sum")])
        s = g["_sum"].to_numpy(zero_copy_only=False)
        ct = np.floor(s * 100.0 + 0.5).astype(np.int64)
        return pa.table({
            "custkey": g["custkey"], "c_name": g["c_name"],
            "n_orders": g["n_orders"],
            "total_ct": pa.array(ct, pa.int64()),
        })

    return bucketed_join(
        root_o, root_c, "custkey",
        schema_a=pa.schema([("custkey", pa.int64()),
                            ("o_totalprice", pa.float64())]),
        schema_b=pa.schema([("custkey", pa.int64()),
                            ("c_name", pa.string())]),
        post=per_bucket_agg)


# ===================================== media resize (multimodal stub)


ORACLE_MEDIA_RESIZE = """
WITH media AS (
  SELECT printf('doc-%06d', doc_id) AS doc_id,
         'media://img/' || doc_id AS media_ref
  FROM documents WHERE doc_id % 5 = 0
),
feat AS (
  SELECT *, list_sum(list_transform(string_split(media_ref, ''),
                                    x -> ascii(x))) AS n
  FROM media
),
dims AS (
  SELECT doc_id, media_ref,
         CAST(64 + (n % 64) * 16 AS INT) AS w,
         CAST(64 + (n % 48) * 16 AS INT) AS h
  FROM feat
),
sized AS (
  SELECT *, LEAST(256.0 / w, 256.0 / h, 1.0) AS s FROM dims
),
outs AS (
  SELECT doc_id, media_ref,
         GREATEST(1, CAST(FLOOR(w * s) AS INT)) AS out_width,
         GREATEST(1, CAST(FLOOR(h * s) AS INT)) AS out_height
  FROM sized
)
SELECT doc_id, media_ref, out_width, out_height,
       md5(media_ref || ':' || out_width || 'x' || out_height) AS payload_hex
FROM outs
"""


@query("media_resize", oracle=ORACLE_MEDIA_RESIZE)
def q_media_resize(sf_dir: str):
    """Fit-in-256 image resize over the media span table
    (stages/media.MediaResizer): aspect-preserving dimension math +
    binary payload output through a small-batch actor pool. The byte
    transform is the documented deterministic stub (md5 of ref:dims), so
    the oracle recomputes payload hex exactly; a real resizer swaps one
    method."""
    from odinson_ray.stages.media import media_resize

    def proj(t: pa.Table) -> pa.Table:
        hexes = [p.hex() for p in t["payload"].to_pylist()]
        return pa.table({
            "doc_id": t["doc_id"], "media_ref": t["media_ref"],
            "out_width": t["out_width"], "out_height": t["out_height"],
            "payload_hex": pa.array(hexes, pa.string()),
        })

    return media_resize(sf_dir).map_batches(proj, batch_format="pyarrow")


# ===================================== JSONL source/sink round trip


ORACLE_JSONL_ROUNDTRIP_LANGS = """
SELECT lang, sum(n_chars) AS sum_chars, count(*) AS n
FROM documents GROUP BY lang
"""


@query("jsonl_roundtrip_langs", oracle=ORACLE_JSONL_ROUNDTRIP_LANGS)
def q_jsonl_roundtrip_langs(sf_dir: str):
    """JSONL sink + source path: stream documents out as partitioned
    JSONL (one file per block — Ray's write_json), read them back with
    the JSONL reader, and aggregate. Exercises the non-parquet IO path
    end-to-end; the aggregate proves no rows were lost or mangled in
    serialization."""
    import tempfile

    import ray.data as rd_native

    out_dir = tempfile.mkdtemp(prefix="odinson_jsonl_", dir="/tmp")
    (table(sf_dir, "documents",
           columns=["doc_id", "lang", "n_chars"])
     .write_json(out_dir))

    return combine_aggregate(rd_native.read_json(out_dir), "lang",
                             [("sum_chars", "n_chars", "sum"),
                              ("n", None, "count_all")])


# ===================================== CSV source/sink roundtrip


ORACLE_CSV_ROUNDTRIP = """
SELECT event_type, CAST(count(*) AS BIGINT) AS n,
       round(sum(value), 2) AS total
FROM events GROUP BY event_type
"""


@query("csv_roundtrip", oracle=ORACLE_CSV_ROUNDTRIP)
def q_csv_roundtrip(sf_dir: str):
    """Source/sink parity for CSV: project events to (event_type, value),
    write sharded CSV under /tmp, read it back with ray.data.read_csv,
    aggregate. Exercises the non-parquet IO path end to end; 2dp values
    roundtrip text exactly."""
    import os
    import tempfile

    import ray.data as rdn

    out_dir = tempfile.mkdtemp(prefix="csv_rt_", dir="/tmp")
    (table(sf_dir, "events",
           columns=["event_type", "value"])
     .write_csv(out_dir))

    ds = rdn.read_csv(out_dir)

    agg = combine_aggregate(ds, "event_type",
                            [("s", "value", "sum"), ("n", None, "count_all")])

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": t["event_type"],
            "n": t["n"],
            "total": pc.round(t["s"], 2),
        })

    res = agg.map_batches(finish, batch_format="pyarrow")
    return res


# ===================================== zone-map data skipping
_ZM_LO_US = 1_704_844_800_000_000  # 2024-01-10T00:00:00Z


_ZM_HI_US = 1_705_104_000_000_000  # 2024-01-13T00:00:00Z


ORACLE_ZONEMAP_RANGE_AGG = """
SELECT event_type, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS BIGINT)
         AS total_ct
FROM events
WHERE ts >= TIMESTAMP '2024-01-10 00:00:00'
  AND ts <  TIMESTAMP '2024-01-13 00:00:00'
GROUP BY event_type
"""


@query("zonemap_range_agg", oracle=ORACLE_ZONEMAP_RANGE_AGG)
def q_zonemap_range_agg(sf_dir: str):
    """Range aggregate over a zone-mapped layout: events are laid out
    once in natural (roughly time-sorted) order with per-file min/max
    footers in the manifest (stages/layout.zonemap_layout); the 3-day
    range scan opens ONLY intersecting files, then applies the exact
    residual filter. Per-type count + integer-cent value totals."""
    from odinson_ray.stages.layout import zonemap_layout, zonemap_scan

    root = zonemap_layout(f"{sf_dir}/events.parquet", "ts",
                          ["ts", "event_type", "value"])
    ds, _n_read, _n_total = zonemap_scan(root, _ZM_LO_US, _ZM_HI_US)
    if ds is None:
        return pa.table({"event_type": pa.array([], pa.string()),
                         "n": pa.array([], pa.int64()),
                         "total_ct": pa.array([], pa.int64())})

    def residual(t: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(t["ts"], pa.timestamp("us")), pa.int64())
        t = t.filter(pc.and_(pc.greater_equal(us, pa.scalar(_ZM_LO_US)),
                             pc.less(us, pa.scalar(_ZM_HI_US))))
        cents = np.floor(
            t["value"].to_numpy(zero_copy_only=False) * 100 + 0.5
        ).astype(np.int64)
        return pa.table({"event_type": t["event_type"],
                         "ct": pa.array(cents, pa.int64())})

    return combine_aggregate(ds.map_batches(residual, batch_format="pyarrow"),
                             "event_type",
                             [("n", None, "count_all"),
                              ("total_ct", "ct", "sum")])


# ===================================== z-order clustered 2-D skipping


ORACLE_ZORDER_RANGE_AGG = """
SELECT CAST(count(*) AS BIGINT) AS n,
       CAST(sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT))
            AS BIGINT) AS cents
FROM orders
WHERE o_custkey >= 100 AND o_custkey < 400
  AND o_orderdate >= TIMESTAMP '1995-01-01'
  AND o_orderdate < TIMESTAMP '1996-01-01'
"""


@query("zorder_range_agg", oracle=ORACLE_ZORDER_RANGE_AGG)
def q_zorder_range_agg(sf_dir: str):
    """Rectangle-predicate aggregate (customer-key range x order-date
    range) over a Z-ORDER-clustered layout of orders: the scan opens
    only the files whose 2-D zone box intersects the predicate (a 1-D
    sort can skip on one dimension only; the Morton curve skips on
    both), then applies the exact residual filter and a map-side-
    combined count/sum. Build pays one distributed sort, amortized
    across every later rectangle scan — the OPTIMIZE ZORDER pattern."""
    from ray.data.aggregate import Sum

    from odinson_ray.stages.layout import zorder_layout, zorder_scan

    X_LO, X_HI = 100, 400
    Y_LO = np.datetime64("1995-01-01T00:00:00", "us").astype(np.int64)
    Y_HI = np.datetime64("1996-01-01T00:00:00", "us").astype(np.int64)

    root = zorder_layout(
        f"{sf_dir}/orders.parquet", "o_custkey", "o_orderdate",
        ["o_custkey", "o_orderdate", "o_totalprice"], n_shards=32)
    ds, n_read, n_total = zorder_scan(root, X_LO, X_HI, int(Y_LO),
                                      int(Y_HI))
    if ds is None:
        return pa.table({"n": pa.array([0], pa.int64()),
                         "cents": pa.array([0], pa.int64())})

    def residual(t: pa.Table) -> pa.Table:
        ck = t["o_custkey"].to_numpy(zero_copy_only=False)
        d = t["o_orderdate"].cast(pa.timestamp("us")).cast(
            pa.int64()).to_numpy(zero_copy_only=False)
        keep = (ck >= X_LO) & (ck < X_HI) & (d >= Y_LO) & (d < Y_HI)
        t = t.filter(pa.array(keep))
        cents = pc.cast(pc.floor(pc.add(pc.multiply(
            t["o_totalprice"], pa.scalar(100.0)), pa.scalar(0.5))),
            pa.int64())
        return pa.table({
            "_g": pa.array([0] * 1, pa.int64()),
            "pn": pa.array([t.num_rows], pa.int64()),
            "pc_": pa.array([int(pc.sum(cents).as_py() or 0)], pa.int64()),
        })

    agg = (ds.map_batches(residual, batch_format="pyarrow")
           .groupby("_g").aggregate(Sum("pn", alias_name="n"),
                                    Sum("pc_", alias_name="cents")))
    return agg.map_batches(lambda t: t.drop_columns(["_g"]),
                           batch_format="pyarrow")


# ===================================== image/audio caption pairs
#
# The core multimodal-training-data op over the interleaved shape
# (BASELINE.json input_hint): for every media span, the nearest
# preceding and following TEXT spans in the same document become its
# caption candidates. Entirely batch-local (a document's spans live in
# ONE list value) — zero shuffle at any scale.


# image sits after sentence 0 (doc_id%5==0); audio is appended last
# (doc_id%11==0) — re-derived from documents.text exactly like
# ORACLE_SPANS_ROUNDTRIP does.
ORACLE_MEDIA_CAPTIONS = """
WITH s AS (
  SELECT doc_id, string_split(text, ' ') AS t,
         len(string_split(text, ' ')) AS nt,
         CAST(ceil(len(string_split(text, ' ')) / 20.0) AS INT) AS ns
  FROM documents
)
SELECT printf('doc-%06d', doc_id) AS doc_id,
       'media://img/' || doc_id AS media_ref, 'image' AS kind,
       array_to_string(t[1:least(20, nt)], ' ') AS caption_before,
       CASE WHEN nt > 20
            THEN array_to_string(t[21:least(40, nt)], ' ')
            ELSE '' END AS caption_after
FROM s WHERE doc_id % 5 = 0
UNION ALL
SELECT printf('doc-%06d', doc_id) AS doc_id,
       'media://aud/' || doc_id AS media_ref, 'audio' AS kind,
       array_to_string(t[(20 * (ns - 1) + 1):nt], ' ') AS caption_before,
       '' AS caption_after
FROM s WHERE doc_id % 11 = 0
"""


@query("media_caption_pairs", oracle=ORACLE_MEDIA_CAPTIONS)
def q_media_caption_pairs(sf_dir: str):
    """(media span, caption_before, caption_after) rows from the
    interleaved documents; vectorized prev/next-text-span scan over the
    flattened spans column (no per-row Python over spans)."""
    from odinson_ray.sources.interleaved import read_interleaved

    def pairs(t: pa.Table) -> pa.Table:
        spans = t["spans"]
        flat = pc.list_flatten(spans).combine_chunks()
        parents = pc.list_parent_indices(spans).to_numpy(
            zero_copy_only=False)
        n = len(flat)
        if n == 0:
            return pa.table({
                "doc_id": pa.array([], pa.string()),
                "media_ref": pa.array([], pa.string()),
                "kind": pa.array([], pa.string()),
                "caption_before": pa.array([], pa.string()),
                "caption_after": pa.array([], pa.string()),
            })
        kind = flat.field("kind")
        is_text = np.asarray(pc.equal(kind, "text"))
        idx = np.arange(n, dtype=np.int64)
        # nearest preceding text-span index (cross-parent hits are
        # invalidated below; list order == offset order by construction)
        prev = np.maximum.accumulate(np.where(is_text, idx, -1))
        # nearest following text-span index via the reversed scan
        # (reversed position m maps to original n-1-m, so the running
        # max of reversed text positions is the MIN following original)
        acc = np.maximum.accumulate(
            np.where(is_text[::-1], idx, -1))[::-1]
        nxt = np.where(acc >= 0, n - 1 - acc, -1)
        media = np.flatnonzero(~is_text)
        texts = flat.field("text").to_numpy(zero_copy_only=False)
        p = prev[media]
        f = nxt[media]
        p_ok = (p >= 0) & (parents[np.maximum(p, 0)] == parents[media])
        f_ok = (f >= 0) & (parents[np.minimum(f, n - 1)] == parents[media])
        before = np.where(p_ok, texts[np.maximum(p, 0)], "")
        after = np.where(f_ok, texts[np.minimum(f, n - 1)], "")
        doc_ids = pc.take(t["doc_id"], pa.array(parents[media]))
        return pa.table({
            "doc_id": doc_ids,
            "media_ref": flat.field("media_ref").take(pa.array(media)),
            "kind": kind.take(pa.array(media)),
            "caption_before": pa.array(before, pa.string()),
            "caption_after": pa.array(after, pa.string()),
        })

    return read_interleaved(sf_dir).map_batches(pairs,
                                                batch_format="pyarrow")


# ===================================== hive-partitioned pruned aggregate


ORACLE_HIVE_PRUNED = """
SELECT source, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(n_chars) AS BIGINT) AS chars
FROM documents WHERE lang = 'en' GROUP BY source
"""


@query("hive_pruned_agg", oracle=ORACLE_HIVE_PRUNED)
def q_hive_pruned_agg(sf_dir: str, lang: str = "en"):
    """Build (once, stat-keyed cache) a hive lang-partitioned layout of
    the documents table, then answer a single-language aggregate by
    reading ONLY that partition's files via the manifest — the
    partition-pruning identity every lake engine relies on. The scan is
    a Dataset; the pytest asserts the file set actually shrank."""
    from odinson_ray.stages.layout import hive_layout, hive_scan

    root = hive_layout(f"{sf_dir}/documents.parquet", "lang",
                       ["doc_id", "source", "n_chars"])

    return combine_aggregate(hive_scan(root, lang), "source",
                             [("n_docs", "n_chars", "count"),
                              ("chars", "n_chars", "sum")])


# ===================================== Arrow IPC roundtrip


ORACLE_IPC_ROUNDTRIP = """
SELECT lang, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(n_chars) AS BIGINT) AS chars
FROM documents GROUP BY lang
"""


@query("ipc_roundtrip_agg", oracle=ORACLE_IPC_ROUNDTRIP)
def q_ipc_roundtrip_agg(sf_dir: str):
    """Write the documents table as an Arrow IPC layout (one Feather v2
    file per block, manifest, stat-keyed cache), read it back through
    the IPC source, and aggregate — exactness of the per-lang counts
    and sums IS the roundtrip fidelity check."""
    from ...sources.io import read_ipc, write_ipc_layout

    root = write_ipc_layout(f"{sf_dir}/documents.parquet",
                            ["doc_id", "lang", "n_chars"])

    return combine_aggregate(read_ipc(root), "lang",
                             [("n_docs", "n_chars", "count"),
                              ("chars", "n_chars", "sum")])


# ===================================== ORC source/sink roundtrip


ORACLE_ORC_ROUNDTRIP = """
SELECT lang, CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(n_chars) AS BIGINT) AS total_chars
FROM documents GROUP BY lang
"""


@query("orc_roundtrip_agg", oracle=ORACLE_ORC_ROUNDTRIP)
def q_orc_roundtrip_agg(sf_dir: str):
    """Source/sink parity for ORC: project documents to (lang, n_chars),
    write sharded .orc files (one per block, pyarrow.orc — Ray Data has
    no native ORC writer), read them back DISTRIBUTED via
    ``read_binary_files`` + a per-file pyarrow.orc decode inside
    ``map_batches`` (each task decodes only its own files; nothing
    round-trips through the driver), and aggregate per-lang counts and
    total characters. The decode emits per-batch partials directly, so
    decoded rows never re-shuffle raw."""
    import os
    import tempfile
    import uuid

    import ray.data as rdn
    from pyarrow import orc as paorc
    from ray.data.aggregate import Sum

    out_dir = tempfile.mkdtemp(prefix="orc_rt_", dir="/tmp")

    def write_block(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"path": pa.array([], pa.string()),
                             "rows": pa.array([], pa.int64())})
        path = os.path.join(out_dir, f"part-{uuid.uuid4().hex}.orc")
        paorc.write_table(
            t.select(["lang", "n_chars"]).replace_schema_metadata(None),
            path)
        return pa.table({"path": pa.array([path], pa.string()),
                         "rows": pa.array([t.num_rows], pa.int64())})

    (table(sf_dir, "documents",
           columns=["lang", "n_chars"])
     .map_batches(write_block, batch_format="pyarrow")).materialize()

    def decode_partial(t: pa.Table) -> pa.Table:
        parts = []
        for buf in t["bytes"].to_pylist():
            tbl = paorc.ORCFile(pa.BufferReader(buf)).read()
            parts.append(tbl)
        if not parts:
            return pa.table({"lang": pa.array([], pa.string()),
                             "pn": pa.array([], pa.int64()),
                             "pchars": pa.array([], pa.int64())})
        whole = pa.concat_tables(parts)
        whole = pa.table({
            "lang": whole["lang"],
            "n_chars": whole["n_chars"].cast(pa.int64()),
        })
        return partial_aggregate(whole, ["lang"],
                                 [("pn", None, "count_all"),
                                  ("pchars", "n_chars", "sum")])

    agg = (rdn.read_binary_files(out_dir)
           .map_batches(decode_partial, batch_format="pyarrow")
           .groupby("lang")
           .aggregate(Sum("pn", alias_name="n"),
                      Sum("pchars", alias_name="total_chars")))
    return agg


# ===================================== bloom-filter data skipping
_BLOOM_PROBES = (17, 4242, 9001)


ORACLE_BLOOM_PRUNED = """
SELECT event_id, event_type, value FROM events
WHERE event_id IN (17, 4242, 9001) ORDER BY event_id
"""


@query("bloom_pruned_agg", oracle=ORACLE_BLOOM_PRUNED)
def q_bloom_pruned_agg(sf_dir: str):
    """Point lookups through the bloom-filter layout: the events table
    is laid out as 16 natural-order shards with a per-file bloom on
    event_id (stages/layout.bloom_layout); probing 3 event_ids opens
    ONLY the shards whose filter matches (typically 3 of 16 — the
    manifest is driver-side bit arithmetic, skipped shards cost zero
    I/O), then the exact residual filter runs inside the read tasks.
    The zonemap layout covers clustered range predicates; this covers
    unclustered high-cardinality membership — together they are the
    Iceberg/ORC data-skipping pair."""
    import ray.data as rdn

    from odinson_ray.stages.layout import bloom_layout, bloom_scan

    root = bloom_layout(f"{sf_dir}/events.parquet", "event_id",
                        ["event_id", "event_type", "value"])
    probes = np.asarray(_BLOOM_PROBES, dtype=np.int64)
    ds, n_read, n_total = bloom_scan(root, probes)
    if ds is None:
        return rdn.from_arrow(pa.table({
            "event_id": pa.array([], pa.int64()),
            "event_type": pa.array([], pa.string()),
            "value": pa.array([], pa.float64())}))

    def residual(t: pa.Table) -> pa.Table:
        keep = np.isin(t["event_id"].to_numpy(zero_copy_only=False), probes)
        return t.filter(pa.array(keep)).select(
            ["event_id", "event_type", "value"])

    return ds.map_batches(residual, batch_format="pyarrow").sort("event_id")
