"""Resumable execution: per-shard checkpointed pipeline runs.

The 100 TB layout (SURVEY §4 "checkpoint / resume"): input is processed in
shards (fragment ranges); each shard's output is written to its own
parquet directory via write-to-temp + atomic rename, and a manifest
records completed shards with lineage metrics (rows in/out, wall ms,
match counts). A resumed run anti-joins the manifest against the shard
list and only computes what is missing. No output is ever half-visible.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from typing import Callable, Dict, List, Optional


class CheckpointManifest:
    """Append-only JSONL manifest; the LATEST record per shard wins, so an
    updated shard is a new record with a new ``version`` and a deleted
    shard is a record with ``retracted: true`` (the manifest analogue of
    the reference's incremental delete/update of document blocks,
    lucene/index/IncrementalOdinsonIndex.scala:104-121)."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.path = os.path.join(out_dir, "_manifest.jsonl")
        os.makedirs(out_dir, exist_ok=True)

    def _records(self) -> List[dict]:
        recs: List[dict] = []
        if os.path.exists(self.path):
            with open(self.path) as f:
                for i, line in enumerate(f):
                    if line.strip():
                        rec = json.loads(line)
                        rec.setdefault("seq", i)  # legacy manifests
                        recs.append(rec)
        return recs

    def completed(self, as_of_seq: Optional[int] = None) -> Dict[str, dict]:
        """Latest-wins replay; ``as_of_seq`` stops the replay at that
        manifest sequence number — TIME TRAVEL over the append-only log
        (every record carries its ``seq``; retired shard outputs are
        archived, not deleted, so any historical snapshot stays
        readable)."""
        done: Dict[str, dict] = {}
        for rec in self._records():
            if as_of_seq is not None and rec["seq"] > as_of_seq:
                break
            if rec.get("retracted"):
                done.pop(rec["shard"], None)
            else:
                done[rec["shard"]] = rec
        return done

    def last_seq(self) -> int:
        recs = self._records()
        return recs[-1]["seq"] if recs else -1

    def record(self, shard: str, **metrics) -> int:
        seq = len(self._records())
        rec = {"shard": shard, "seq": seq, **metrics}
        with open(self.path, "a") as f:
            f.write(json.dumps(rec) + "\n")
        return seq

    def resolve_dirs(self, as_of_seq: Optional[int] = None) -> List[str]:
        """Shard data directories for the snapshot at ``as_of_seq``
        (default: latest). A version that is still live resolves to its
        ``shard=NAME`` directory; a retired version resolves to its
        archive directory ``_archive/shard=NAME/v<creation seq>``."""
        snap = self.completed(as_of_seq)
        latest = self.completed()
        dirs = []
        for shard, rec in sorted(snap.items()):
            live = latest.get(shard)
            if live is not None and live["seq"] == rec["seq"]:
                dirs.append(os.path.join(self.out_dir, f"shard={shard}"))
            else:
                dirs.append(self.archive_dir(shard, rec["seq"]))
        return dirs

    def archive_dir(self, shard: str, creation_seq: int) -> str:
        # SIBLING directory, not a subdirectory: the live out_dir keeps
        # its original contract (a naive recursive parquet read of it
        # sees exactly the current snapshot, never historical bytes)
        return os.path.join(self.out_dir.rstrip("/") + ".archive",
                            f"shard={shard}", f"v{creation_seq}")


def read_snapshot(out_dir: str, as_of_seq: Optional[int] = None):
    """Dataset over a checkpoint store's snapshot (latest by default,
    any historical manifest seq otherwise) — the time-travel read a
    reproducible training-data pipeline needs: the exact bytes a past
    run trained on stay addressable after appends, updates and deletes."""
    from ..sources.io import read_table

    dirs = CheckpointManifest(out_dir).resolve_dirs(as_of_seq)
    files = [os.path.join(d, f)
             for d in dirs for f in sorted(os.listdir(d))
             if f.endswith(".parquet")]
    if not files:
        return None
    return read_table(files)


def run_sharded(
    shards: List[str],
    run_shard: Callable[[str, str], dict],
    out_dir: str,
    versions: Optional[Dict[str, str]] = None,
    retract_missing: bool = False,
) -> Dict[str, dict]:
    """Run ``run_shard(shard, shard_out_dir) -> metrics`` for every shard
    that is new OR whose ``versions[shard]`` differs from the manifest's
    recorded version (update = retract + recompute, atomically replacing
    the shard's output directory). With ``retract_missing``, manifest
    shards absent from ``shards`` have their outputs deleted and are
    marked retracted. Output directories appear atomically.

    Returns the full manifest (completed shards -> lineage metrics)."""
    manifest = CheckpointManifest(out_dir)
    done = manifest.completed()
    versions = versions or {}
    def _retire(shard: str, prev_rec: dict) -> None:
        # retired versions ARCHIVE (time travel), never delete: the dir
        # moves under _archive keyed by the version's creation seq
        src = os.path.join(out_dir, f"shard={shard}")
        if not os.path.exists(src):
            return
        dst = manifest.archive_dir(shard, prev_rec["seq"])
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        shutil.rmtree(dst, ignore_errors=True)
        os.replace(src, dst)

    if retract_missing:
        live = set(shards)
        for shard in list(done):
            if shard not in live:
                _retire(shard, done[shard])
                manifest.record(shard, retracted=True)
                done.pop(shard)
    for shard in shards:
        prev = done.get(shard)
        ver = versions.get(shard)
        if prev is not None and prev.get("version") == ver:
            continue
        final_dir = os.path.join(out_dir, f"shard={shard}")
        tmp_dir = os.path.join(out_dir, f"_tmp_shard={shard}")
        if os.path.exists(tmp_dir):
            shutil.rmtree(tmp_dir)
        if os.path.exists(final_dir):
            if prev is not None:
                _retire(shard, prev)  # changed-version update: archive
            else:
                # uncommitted leftovers from a crash: never recorded, so
                # nothing historical to preserve
                shutil.rmtree(final_dir)
        t0 = time.time()
        metrics = run_shard(shard, tmp_dir) or {}
        os.replace(tmp_dir, final_dir)
        metrics.update({"wall_ms": int((time.time() - t0) * 1000)})
        if ver is not None:
            metrics["version"] = ver
        seq = manifest.record(shard, **metrics)
        done[shard] = {"shard": shard, "seq": seq, **metrics}
    return manifest.completed()


def _doc_columns(sf_dir: str) -> list:
    """Shard-runner read columns — delegates to the single shared sniff
    (sources/io.document_read_columns) so this and the flagship read
    cannot drift."""
    from ..sources.io import document_read_columns, table_path

    return document_read_columns(table_path(sf_dir, "documents"))


def _count_error_triples(shard_out: str) -> int:
    """Count reserved error triples in a written shard: a predicate
    filter over the pred column only (statistics/dictionary pushdown;
    never re-reads the payload columns)."""
    import pyarrow.dataset as pads

    from ..stages.triples import ERROR_SURFACE

    return pads.dataset(shard_out).count_rows(
        filter=pads.field("pred") == ERROR_SURFACE)


def kg_run_sharded(sf_dir: str, out_dir: str, num_shards: int = 4,
                   rules_yaml: Optional[str] = None,
                   concurrency: Optional[int] = None) -> Dict[str, dict]:
    """Checkpointed flagship run: the sorted ``doc_id`` column cut into
    ``num_shards`` doc_id ranges of about equal document count, named
    "0", "1", ...; each shard runs the full KG pipeline and writes its
    triples partition (:func:`kg_run_fragments`). With more shards than
    documents, some ranges hold no document."""
    import numpy as np
    import pyarrow.parquet as pq

    ids = np.sort(pq.read_table(f"{sf_dir}/documents.parquet",
                                columns=["doc_id"])["doc_id"].drop_null().to_numpy())
    end = int(ids[-1]) + 1 if len(ids) else 0
    bounds = [int(ids[c]) if c < len(ids) else end
              for c in (round(i * len(ids) / num_shards) for i in range(num_shards + 1))]
    return kg_run_fragments(
        sf_dir, out_dir,
        [(str(i), bounds[i], bounds[i + 1]) for i in range(num_shards)],
        rules_yaml, concurrency)


def fragment_content_version(sf_dir: str, lo: int, hi: int) -> str:
    """Content fingerprint of a doc_id-range fragment (md5 over doc_id+text
    in doc_id order). Used to DETECT in-place fragment updates; at real
    scale prefer the storage layer's fragment version ids (e.g. Lance
    fragment metadata) over re-reading content."""
    import hashlib

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    t = t.filter(pc.and_(pc.greater_equal(t["doc_id"], lo), pc.less(t["doc_id"], hi)))
    t = t.sort_by("doc_id")
    h = hashlib.md5()
    for d, x in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        h.update(str(d).encode())
        h.update(b"\x00")
        h.update((x or "").encode())
        h.update(b"\x01")
    return h.hexdigest()


def kg_run_fragments(sf_dir: str, out_dir: str, fragments, rules_yaml: Optional[str] = None,
                     concurrency: Optional[int] = None,
                     retract_missing: bool = False) -> Dict[str, dict]:
    """Incremental-refresh analogue (the reference's IncrementalOdinsonIndex
    append/update/delete path, IncrementalOdinsonIndex.scala:104-121):
    ``fragments`` is a list of (name, lo_doc_id, hi_doc_id) or
    (name, lo, hi, version) input fragments.

    - APPEND: re-running with new fragments computes only the delta.
    - UPDATE: a fragment whose ``version`` changed (pass
      fragment_content_version or a storage-layer fragment id) is
      recomputed and its output replaced atomically.
    - DELETE: with ``retract_missing``, fragments dropped from the list
      have their outputs removed and are marked retracted."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq
    from ..sources.io import table

    from ..pipelines.kg import FLAGSHIP_RULES
    from ..stages.match import GrammarMatcher, match_batches
    from ..stages.triples import svo_or_error_triples

    rules = rules_yaml or FLAGSHIP_RULES
    frags = [f if len(f) == 4 else (*f, None) for f in fragments]
    bounds = {name: (lo, hi) for name, lo, hi, _ in frags}
    versions = {name: v for name, _, _, v in frags if v is not None}

    def run_shard(shard: str, shard_out: str) -> dict:
        lo, hi = bounds[shard]
        docs = table(sf_dir, "documents",
                     columns=_doc_columns(sf_dir))
        docs = docs.map_batches(
            # replace_schema_metadata: the source parquet's b'pandas'
            # metadata makes pa.Schema unhashable and defeats Ray Data's
            # schema dedup downstream ("Failed to hash the schemas")
            lambda t: t.filter(
                pc.and_(pc.greater_equal(t["doc_id"], lo), pc.less(t["doc_id"], hi))
            ).replace_schema_metadata(None),
            batch_format="pyarrow",
        )
        # interleaving runs INSIDE the matcher tasks (raw-table input):
        # the standalone build_interleaved stage both shipped the nested
        # spans column through the object store AND dropped any
        # caller-supplied metadata columns before the matcher saw them
        mentions = match_batches(docs, GrammarMatcher, rules,
                                 concurrency=concurrency)
        triples = mentions.map_batches(svo_or_error_triples,
                                       batch_format="pyarrow")
        triples.write_parquet(shard_out)
        os.makedirs(shard_out, exist_ok=True)  # an empty stream writes no directory
        n_rows = sum(
            pq.read_metadata(os.path.join(shard_out, f)).num_rows
            for f in os.listdir(shard_out) if f.endswith(".parquet")
        )
        n_err = _count_error_triples(shard_out) if n_rows else 0
        doc_id = pads.field("doc_id")
        n_docs = pads.dataset(f"{sf_dir}/documents.parquet").count_rows(
            filter=(doc_id >= lo) & (doc_id < hi))
        # lineage carries the failure stream per shard (ADVICE r04 last
        # mile): a resumed 100-TB run can audit errors without re-reading
        return {"docs": n_docs, "triples": n_rows - n_err, "errors": n_err}

    return run_sharded([name for name, _, _, _ in frags], run_shard, out_dir,
                       versions=versions, retract_missing=retract_missing)
