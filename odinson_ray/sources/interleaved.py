"""Interleaved text+media document table (the engine's authoritative input
shape, per BASELINE.json input_hint):

    doc_id: string
    spans:  list<struct<kind:string, text:string, media_ref:string, offset:int32>>

Built deterministically from the driver's ``documents.parquet``
(doc_id:int64, text, lang, source) so DuckDB oracles can re-derive every
downstream structure. Generation rules (all pure functions of the row):

- text is split into sentences of SENT_TOKENS whitespace tokens each
- one ``image`` span is inserted after the first text span when
  ``doc_id % 5 == 0`` (media_ref "media://img/<id>")
- one ``audio`` span is appended when ``doc_id % 11 == 0``
  (media_ref "media://aud/<id>")
- offset is the ordinal position within the document

Everything is vectorized per batch; this module is used via
``ray.data.read_parquet(...).map_batches(build_interleaved, batch_format="pyarrow")``.
"""

from __future__ import annotations

import pyarrow as pa

SENT_TOKENS = 20  # tokens per synthetic sentence

SPAN_TYPE = pa.struct(
    [
        ("kind", pa.string()),
        ("text", pa.string()),
        ("media_ref", pa.string()),
        ("offset", pa.int32()),
    ]
)

INTERLEAVED_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("lang", pa.string()),
        ("source", pa.string()),
        ("pub_date", pa.date32()),
        ("citations", pa.float64()),
        ("spans", pa.list_(SPAN_TYPE)),
    ]
)

# deterministic per-doc metadata (DateField/NumberField analogues;
# FIXTURES.md §2): pub_date = 2020-01-01 + (doc_id % 1000) days,
# citations = (doc_id * 7) % 100
_EPOCH_2020 = 18262  # days from 1970-01-01 to 2020-01-01


def pub_date_days(doc_id: int) -> int:
    return _EPOCH_2020 + (doc_id % 1000)


def citations_of(doc_id: int) -> float:
    return float((doc_id * 7) % 100)


def doc_id_str(doc_id: int) -> str:
    return f"doc-{doc_id:06d}"


def split_sentences(text: str, sent_tokens: int = SENT_TOKENS):
    toks = text.split(" ") if text else []
    return [
        " ".join(toks[i : i + sent_tokens]) for i in range(0, len(toks), sent_tokens)
    ]


def spans_for_doc(doc_id: int, text: str):
    """Deterministic interleaving of text sentences + media spans."""
    spans = []
    sents = split_sentences(text)
    for idx, s in enumerate(sents):
        spans.append({"kind": "text", "text": s, "media_ref": ""})
        if idx == 0 and doc_id % 5 == 0:
            spans.append({"kind": "image", "text": "", "media_ref": f"media://img/{doc_id}"})
    if doc_id % 11 == 0:
        spans.append({"kind": "audio", "text": "", "media_ref": f"media://aud/{doc_id}"})
    for off, sp in enumerate(spans):
        sp["offset"] = off
    return spans


def build_interleaved(batch: pa.Table) -> pa.Table:
    """documents.parquet batch -> interleaved docs batch."""
    ids = batch["doc_id"].to_pylist()
    texts = batch["text"].to_pylist()
    langs = batch["lang"].to_pylist() if "lang" in batch.column_names else [""] * len(ids)
    sources = batch["source"].to_pylist() if "source" in batch.column_names else [""] * len(ids)
    out_ids = [doc_id_str(i) for i in ids]
    out_spans = [spans_for_doc(i, t) for i, t in zip(ids, texts)]
    return pa.Table.from_pydict(
        {
            "doc_id": pa.array(out_ids, pa.string()),
            "lang": pa.array(langs, pa.string()),
            "source": pa.array(sources, pa.string()),
            "pub_date": pa.array([pub_date_days(i) for i in ids], pa.date32()),
            "citations": pa.array([citations_of(i) for i in ids], pa.float64()),
            "spans": pa.array(out_spans, pa.list_(SPAN_TYPE)),
        }
    )


def read_interleaved(sf_dir: str, columns=None):
    """documents table -> interleaved Dataset (column-pruned read).
    Reads documents.lance when present, else documents.parquet
    (sources/io.py format dispatch)."""
    from .io import table

    ds = table(sf_dir, "documents",
               columns=["doc_id", "text", "lang", "source"])
    return ds.map_batches(build_interleaved, batch_format="pyarrow")


def add_metadata(docs_ds, metadata_by_doc_id, fields):
    """Broadcast metadata join (the AddMetadataToDocuments analogue,
    extra/.../AddMetadataToDocuments.scala): metadata dict keyed by doc_id
    is ray.put once; each batch gains a ``metadata`` struct column with the
    given (flat) fields."""
    import ray

    from ..stages.link import get_broadcast

    ref = metadata_by_doc_id if isinstance(metadata_by_doc_id, ray.ObjectRef) else ray.put(metadata_by_doc_id)
    struct_type = pa.struct([(name, typ) for name, typ in fields])

    def join(batch: pa.Table) -> pa.Table:
        lookup = get_broadcast(ref)
        rows = []
        for doc_id in batch["doc_id"].to_pylist():
            md = lookup.get(doc_id, {})
            rows.append({name: md.get(name) for name, _ in fields})
        return batch.append_column("metadata", pa.array(rows, struct_type))

    return docs_ds.map_batches(join, batch_format="pyarrow")


def prepare_corpus(sf_dir: str, out_dir: str, num_blocks: int = 16) -> None:
    """Persist the annotated corpus as a reusable parquet table (the
    'index build' analogue of IndexDocuments: annotation dominates, so at
    scale it is computed once and re-queried many times; here that means
    parquet with the ``sentences`` column materialized)."""
    from ..stages.annotate import annotate_batch

    ds = read_interleaved(sf_dir)
    ds.map_batches(annotate_batch, batch_format="pyarrow").write_parquet(out_dir)


def read_prepared(out_dir: str):
    """Read a prepared (pre-annotated) corpus; the matcher will use the
    stored sentences column instead of annotating inline."""
    from .io import read_table

    return read_table(out_dir)
