"""Multimodal stages: media spans as opaque payloads + typed metadata.

The Ray-side plumbing (schema, actor signature, batch sizing, output
layout) is real; the DECODE step is a clearly-marked STUB because no
image/audio libraries exist in this environment. A production deployment
replaces ``_decode_stub`` with the real decoder (PIL/ffmpeg/torchaudio)
inside the same actor — nothing else changes.

Batch-size guidance: media payload stages should run with SMALL batch
sizes (rows carry large binary blobs) and an actor pool sized to the
decode cost; the deterministic stub keeps the plumbing testable.
"""

from __future__ import annotations

from typing import Dict, List

import pyarrow as pa
import pyarrow.compute as pc

MEDIA_FEATURES_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("media_ref", pa.string()),
        ("kind", pa.string()),
        ("width", pa.int32()),
        ("height", pa.int32()),
        ("duration_s", pa.float64()),
    ]
)


def _decode_stub(kind: str, media_ref: str, payload: bytes = b"") -> Dict:
    """STUB decode: deterministic fake features derived from the reference
    string. Replace with a real decoder; raise for unknown kinds like the
    real one would."""
    if kind not in ("image", "audio", "video"):
        raise NotImplementedError(f"no decoder for media kind '{kind}'")
    n = sum(media_ref.encode())
    if kind == "image":
        return {"width": 64 + (n % 64) * 16, "height": 64 + (n % 48) * 16, "duration_s": 0.0}
    return {"width": 0, "height": 0, "duration_s": float(1 + n % 300)}


class MediaFeatureExtractor:
    """Actor-pool stage: interleaved docs -> one row per media span with
    decoded features. A real model/decoder loads once here in __init__."""

    def __init__(self):
        self.decode = _decode_stub  # real decoder goes here

    def __call__(self, batch: pa.Table) -> pa.Table:
        out: Dict[str, List] = {k: [] for k in
                                ("doc_id", "media_ref", "kind", "width", "height", "duration_s")}
        for doc_id, spans in zip(batch["doc_id"].to_pylist(), batch["spans"].to_pylist()):
            for sp in spans:
                if sp["kind"] == "text":
                    continue
                feats = self.decode(sp["kind"], sp["media_ref"])
                out["doc_id"].append(doc_id)
                out["media_ref"].append(sp["media_ref"])
                out["kind"].append(sp["kind"])
                out["width"].append(feats["width"])
                out["height"].append(feats["height"])
                out["duration_s"].append(feats["duration_s"])
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(out["doc_id"], pa.string()),
                "media_ref": pa.array(out["media_ref"], pa.string()),
                "kind": pa.array(out["kind"], pa.string()),
                "width": pa.array(out["width"], pa.int32()),
                "height": pa.array(out["height"], pa.int32()),
                "duration_s": pa.array(out["duration_s"], pa.float64()),
            }
        )


def media_features(sf_dir: str, concurrency: int = 2, batch_size: int = 64):
    """interleaved docs -> media feature table (actor pool, small batches)."""
    from ..sources.interleaved import read_interleaved

    return read_interleaved(sf_dir).map_batches(
        MediaFeatureExtractor,
        batch_format="pyarrow",
        concurrency=concurrency,
        batch_size=batch_size,
        num_cpus=1,
    )


# ------------------------------------------------------------ frame sampling

FRAME_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("media_ref", pa.string()),
        ("frame_idx", pa.int32()),
        ("t_s", pa.float64()),
    ]
)


class FrameSampler:
    """Actor-pool stage: video rows -> one row PER SAMPLED FRAME (uniform
    1/``fps`` stride, capped at ``max_frames``). The decode that would
    yield pixel payloads is the same clearly-marked stub (duration comes
    from ``_decode_stub``); the flat-map expansion, frame schema, and
    deterministic timestamps are the real plumbing a video pipeline needs.
    A real implementation replaces the stub with ffmpeg seek+decode inside
    this same actor."""

    def __init__(self, fps: float = 1.0, max_frames: int = 8):
        self.fps = fps
        self.max_frames = max_frames
        self.decode = _decode_stub

    def __call__(self, batch: pa.Table) -> pa.Table:
        out: Dict[str, List] = {k: [] for k in ("doc_id", "media_ref", "frame_idx", "t_s")}
        for doc_id, ref in zip(batch["doc_id"].to_pylist(), batch["media_ref"].to_pylist()):
            duration = self.decode("video", ref)["duration_s"]
            n_frames = min(self.max_frames, int(duration * self.fps))
            for i in range(n_frames):
                out["doc_id"].append(doc_id)
                out["media_ref"].append(ref)
                out["frame_idx"].append(i)
                out["t_s"].append(round(i / self.fps, 6))
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(out["doc_id"], pa.string()),
                "media_ref": pa.array(out["media_ref"], pa.string()),
                "frame_idx": pa.array(out["frame_idx"], pa.int32()),
                "t_s": pa.array(out["t_s"], pa.float64()),
            }
        )


def video_frames(sf_dir: str, fps: float = 1.0, max_frames: int = 8,
                 concurrency: int = 2, batch_size: int = 64):
    """Deterministic video manifest (doc_id % 7 == 0 -> media://vid/<id>)
    -> frame-sample rows via the actor pool. Small batches: real video
    rows carry large payloads."""
    from ..sources.io import table

    def manifest(t: pa.Table) -> pa.Table:
        ids = [int(v) for v in t["doc_id"].to_pylist()]
        keep = [i for i in ids if i % 7 == 0]
        return pa.table({
            "doc_id": pa.array([f"doc-{i:06d}" for i in keep], pa.string()),
            "media_ref": pa.array([f"media://vid/{i}" for i in keep], pa.string()),
        })

    ds = table(sf_dir, "documents", columns=["doc_id"]).map_batches(
        manifest, batch_format="pyarrow"
    )
    return ds.map_batches(
        FrameSampler,
        fn_constructor_kwargs={"fps": fps, "max_frames": max_frames},
        batch_format="pyarrow",
        concurrency=concurrency,
        batch_size=batch_size,
        num_cpus=1,
    )


def _phash_stub(kind: str, media_ref: str) -> str:
    """STUB perceptual hash: deterministic fake that buckets media into
    collision groups (kind + a mod-97 residue of the trailing id digits),
    emulating what a real pHash does to near-identical assets. Replace
    with a real perceptual hasher (pHash/aHash over decoded pixels /
    chromaprint over audio) inside the same actor — plumbing unchanged."""
    import hashlib

    digits = "".join(c for c in media_ref if c.isdigit()) or "0"
    return hashlib.md5(f"{kind}:{int(digits) % 97}".encode()).hexdigest()[:16]


class MediaPerceptualHasher:
    """Actor-pool stage: media manifest rows -> (media_ref, kind, phash).
    A real decoder+hasher loads once here in __init__."""

    def __init__(self):
        self.phash = _phash_stub  # real perceptual hasher goes here

    def __call__(self, batch: pa.Table) -> pa.Table:
        kinds = batch["kind"].to_pylist()
        refs = batch["media_ref"].to_pylist()
        return pa.table({
            "media_ref": pa.array(refs, pa.string()),
            "kind": pa.array(kinds, pa.string()),
            "phash": pa.array([self.phash(k, r) for k, r in zip(kinds, refs)],
                              pa.string()),
        })


# ------------------------------------------------------------ resize stage

RESIZE_TARGET = 256

RESIZED_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("media_ref", pa.string()),
        ("out_width", pa.int32()),
        ("out_height", pa.int32()),
        ("payload", pa.binary()),
    ]
)


class MediaResizer:
    """Actor-pool stage: image feature rows -> fit-in-box resized
    payloads (aspect preserved, never upscaled). The byte TRANSFORM is a
    deterministic stub (md5 of ref:dims — no image libs here); the
    dimension math, actor signature, small-batch plumbing and binary
    output column are the real deployment shape. A real resizer replaces
    ``_fake_bytes`` with the decoded+scaled encode inside the same
    actor."""

    def __init__(self, target: int = RESIZE_TARGET):
        import hashlib

        self.target = target
        self._md5 = hashlib.md5

    def _fake_bytes(self, ref: str, w: int, h: int) -> bytes:
        return self._md5(f"{ref}:{w}x{h}".encode()).digest()

    def __call__(self, batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.equal(batch["kind"], "image"))
        w = batch["width"].to_pylist()
        h = batch["height"].to_pylist()
        refs = batch["media_ref"].to_pylist()
        t = float(self.target)
        ow, oh, payload = [], [], []
        for wi, hi, r in zip(w, h, refs):
            s = min(t / wi, t / hi, 1.0)
            a, b = max(1, int(wi * s)), max(1, int(hi * s))
            ow.append(a)
            oh.append(b)
            payload.append(self._fake_bytes(r, a, b))
        return pa.table({
            "doc_id": batch["doc_id"],
            "media_ref": batch["media_ref"],
            "out_width": pa.array(ow, pa.int32()),
            "out_height": pa.array(oh, pa.int32()),
            "payload": pa.array(payload, pa.binary()),
        })


def media_resize(sf_dir: str, concurrency: int = 2, batch_size: int = 64):
    """media feature rows -> resized image payloads (actor pool, small
    batches: output rows carry binary blobs).

    TWO actor pools run in this plan (feature extraction + resize), so
    the single-pool clamp is not enough: both pools TOGETHER must leave
    >= 1 CPU of headroom or the streaming executor deadlocks (hit at the
    4-CPU test session: 2 + 2 actors = every CPU). Split the budget."""
    try:
        import ray

        cpus = int(ray.cluster_resources().get("CPU", 0)) if (
            ray.is_initialized()) else 0
    except Exception:
        cpus = 0
    per = max(1, min(concurrency, (cpus - 1) // 2)) if cpus else concurrency
    return media_features(sf_dir, concurrency=per,
                          batch_size=batch_size).map_batches(
        MediaResizer,
        batch_format="pyarrow",
        concurrency=per,
        batch_size=batch_size,
        num_cpus=1,
    )
