"""Odinson Document-JSON source: the reference's interchange format.

Reads the reference's serialized ``Document`` JSON
(``core/src/main/scala/ai/lum/odinson/OdinsonDocument.scala:13-219``):

    {"id": ..., "metadata": [Field...], "sentences":
        [{"numTokens": N, "fields": [Field...]}, ...]}

with the six Field variants tagged by upickle ``$type``
(``ai.lum.odinson.{Tokens,Graph,String,Date,Number,Nested}Field``), plus
``MetadataWrapper`` companion files
(``OdinsonDocument.scala:208-219`` / the AddMetadataToDocuments app,
``extra/.../AddMetadataToDocuments.scala``).

Output rows carry the engine's native pre-annotated shape, so an existing
annotated Odinson corpus flows through the SAME matcher/link/canonicalize
pipeline as the synthetic tables:

- ``doc_id``:     Document.id
- ``spans``:      interleaved span list (one ``text`` span per sentence,
                  text = raw tokens joined) — satisfies the per-row
                  span-sequence invariant
- ``sentences``:  list<SENTENCE_TYPE> (raw/word/lemma/tag/chunk/entity +
                  dependency graph), missing layers null
- ``metadata_json``: the document's metadata Field array, verbatim JSON —
                  full fidelity (incl. NestedField); parsed into the
                  metadata-query dict per batch at match time

Reading is a Ray Data pipeline end to end: ``read_binary_files`` over the
corpus (one Document per file, optionally ``.jsonl`` with one Document per
line) -> ``map_batches`` parse. Nothing is parsed driver-side.
"""

from __future__ import annotations

import datetime
import json
from typing import Dict, List, Optional, Tuple

import pyarrow as pa

from ..stages.annotate import SENTENCE_TYPE
from .interleaved import SPAN_TYPE

# sentence layers the engine indexes (reference TokensField names)
_LAYERS = ("raw", "word", "lemma", "tag", "chunk", "entity")

DOC_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("spans", pa.list_(SPAN_TYPE)),
        ("sentences", pa.list_(SENTENCE_TYPE)),
        ("metadata_json", pa.string()),
    ]
)


def _field_kind(f: Dict) -> str:
    """'ai.lum.odinson.TokensField' -> 'TokensField' (tolerates bare names)."""
    return str(f.get("$type", "")).rsplit(".", 1)[-1]


def parse_sentence(sent: Dict) -> Dict:
    """Sentence JSON -> SENTENCE_TYPE-compatible dict (missing layers None)."""
    out: Dict = {k: None for k in _LAYERS}
    out["graph"] = None
    for f in sent.get("fields", []):
        kind = _field_kind(f)
        name = f.get("name")
        if kind == "TokensField" and name in _LAYERS:
            out[name] = list(f.get("tokens", []))
        elif kind == "GraphField":
            # reference default graph name is "dependencies"
            edges = [
                {"src": int(e[0]), "dst": int(e[1]), "label": str(e[2])}
                for e in f.get("edges", [])
            ]
            out["graph"] = {"edges": edges, "roots": [int(r) for r in f.get("roots", [])]}
    return out


def fields_to_metadata(fields: List[Dict]) -> Dict:
    """Metadata Field array -> the metadata-query dict conventions
    (lang/metadata.py): str | float | datetime.date | list[str] tokenized
    text | list[dict] nested entries (NestedField: one dict per entry,
    multiple same-named fields accumulate — the block-join 'any entry
    matches' semantics)."""
    md: Dict = {}
    last_kind: Dict[str, str] = {}  # kind of the last field written per name
    for f in fields or []:
        kind = _field_kind(f)
        name = f.get("name")
        if name is None:
            continue
        if kind == "TokensField":
            md[name] = list(f.get("tokens", []))
        elif kind == "StringField":
            md[name] = f.get("string")
        elif kind == "DateField":
            md[name] = datetime.date.fromisoformat(f["date"])
        elif kind == "NumberField":
            md[name] = float(f["value"])
        elif kind == "NestedField":
            # duplicates are legal (addMetadata appends); nested entries
            # accumulate in a list of dicts. If a NON-nested field of the
            # same name came first, the nested entries start a fresh list
            # (and a later non-nested field overwrites it) — last-kind-wins,
            # never a crash. The kind is TRACKED, not sniffed from the
            # accumulated value: an empty TokensField must also reset to a
            # fresh nested list (ADVICE r02).
            if last_kind.get(name) != "NestedField":
                md[name] = []
            md[name].append(fields_to_metadata(f.get("fields", [])))
        else:
            continue
        last_kind[name] = kind
    return md


def parse_document(obj: Dict) -> Dict:
    """Document JSON object -> output row dict."""
    sentences = [parse_sentence(s) for s in obj.get("sentences", [])]
    spans = []
    for i, s in enumerate(sentences):
        toks = s.get("raw") or s.get("word") or []
        spans.append({"kind": "text", "text": " ".join(toks), "media_ref": "", "offset": i})
    return {
        "doc_id": str(obj.get("id", "")),
        "spans": spans,
        "sentences": sentences,
        "metadata_json": json.dumps(obj.get("metadata", []), separators=(",", ":")),
    }


def _iter_docs(payload: bytes):
    # gzip-compressed corpora are first-class in the reference
    # (extra/.../utils/GzipUtils.scala; IndexDocuments reads .json.gz):
    # sniff the magic bytes so .json and .json.gz mix freely
    if payload[:2] == b"\x1f\x8b":
        import gzip

        payload = gzip.decompress(payload)
    text = payload.decode("utf-8").strip()
    if not text:
        return
    if text.startswith("{"):
        try:
            yield json.loads(text)  # one Document per file
            return
        except json.JSONDecodeError:
            pass  # fall through: JSON-lines
    for line in text.splitlines():
        line = line.strip()
        if line:
            yield json.loads(line)


def parse_files_batch(batch: pa.Table) -> pa.Table:
    rows = []
    for payload in batch["bytes"].to_pylist():
        for obj in _iter_docs(payload):
            rows.append(parse_document(obj))
    return pa.Table.from_pylist(rows, schema=DOC_SCHEMA)


def read_odinson_json(paths, **read_kwargs):
    """Directory / file list of Odinson Document JSON (.json, .jsonl
    or gzip-compressed .json.gz, one Document per file or per line) ->
    pre-annotated docs Dataset.

    Feed the result straight to ``stages.match.match_batches`` (the matcher
    uses the stored ``sentences`` layers; no re-annotation) — the
    IndexDocuments ingestion analogue, minus the global Lucene build."""
    import ray.data as rd

    ds = rd.read_binary_files(paths, **read_kwargs)
    return ds.map_batches(parse_files_batch, batch_format="pyarrow")


def read_metadata_wrappers(paths) -> Dict[str, List[Dict]]:
    """MetadataWrapper companion files ({"docId":..., "fields":[...]}) ->
    {doc_id: fields}. Wrapper sets are KB-sized (small side): loaded once,
    broadcast via ray.put by add_metadata_from_wrappers."""
    import glob
    import os

    out: Dict[str, List[Dict]] = {}
    if isinstance(paths, str):
        if os.path.isdir(paths):
            paths = sorted(glob.glob(os.path.join(paths, "*.json")))
        else:
            paths = [paths]
    for p in paths:
        with open(p, "rb") as fh:
            for obj in _iter_docs(fh.read()):
                out[str(obj["docId"])] = obj.get("fields", [])
    return out


def add_metadata_from_wrappers(docs_ds, wrappers: Dict[str, List[Dict]],
                               append: bool = True):
    """AddMetadataToDocuments analogue (broadcast join): merge wrapper
    fields into each row's ``metadata_json``. ``append=True`` keeps
    existing fields and appends (Document.addMetadata semantics,
    OdinsonDocument.scala:21-34); ``append=False`` replaces."""
    import ray

    from ..stages.link import get_broadcast

    ref = ray.put(wrappers)

    def merge(batch: pa.Table) -> pa.Table:
        lookup = get_broadcast(ref)
        cur = batch["metadata_json"].to_pylist()
        out = []
        for doc_id, mj in zip(batch["doc_id"].to_pylist(), cur):
            extra = lookup.get(doc_id)
            if extra is None:
                out.append(mj)
            elif append:
                out.append(json.dumps((json.loads(mj) if mj else []) + list(extra),
                                      separators=(",", ":")))
            else:
                out.append(json.dumps(list(extra), separators=(",", ":")))
        idx = batch.column_names.index("metadata_json")
        return batch.set_column(idx, "metadata_json", pa.array(out, pa.string()))

    return docs_ds.map_batches(merge, batch_format="pyarrow")
