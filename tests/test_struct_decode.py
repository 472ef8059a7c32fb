"""Arrow-native batch decode of the pre-annotated ``sentences`` column.

``stages.match.decode_sentences`` turns a batch's ``sentences`` column
into BatchVocab-backed SentenceIndexes; documents outside its clean subset
fall back to ``sentence_index_from_struct`` one struct at a time. The
property test pins the two paths to the same mention rows; the guard tests
pin the fast path to the inputs the engine itself produces, so a silent
fallback cannot hide a slowdown.
"""

from __future__ import annotations

from unittest import mock

import pyarrow as pa
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import odinson_ray.stages.match as match
from odinson_ray.stages.annotate import SENTENCE_TYPE
from odinson_ray.stages.match import GrammarMatcher

LAYERS = ("raw", "word", "lemma", "tag", "chunk", "entity")

#: tokens covering sanitize merges (whitespace-only, empty, control
#: chars) and NFKC variants (ligature, full width, combining accent)
TOKENS = ["a", "the", "cat", "Cat", "ate", "fish", "\ufb01sh", "\u00e9", "e\u0301",
          "\uff21", "NN", "O", " ", "\t", "", "x\x01y", "\x00"]
#: values per layer: the tag / chunk / entity values the grammar reads
POOLS = {"raw": TOKENS, "word": TOKENS, "lemma": TOKENS,
         "tag": ["DT", "NN", "NNS", "VB", "JJ", " "],
         "chunk": ["B-NP", "I-NP", "O", "\t"], "entity": ["B-X", "O", ""]}
#: edge labels, with a full-width NFKC variant of nsubj
LABELS = ["nsubj", "\uff4e\uff53\uff55\uff42\uff4a", "dobj", "conj", "amod"]

RULES = r"""
rules:
  - name: np
    label: NP
    type: basic
    priority: "1"
    pattern: "[tag=DT]? [tag=/N.*/]+"
  - name: chunk
    label: Chunk
    type: basic
    priority: "1"
    pattern: "[chunk=B-NP] [chunk=I-NP]* | [entity=B-X]+"
  - name: lex
    label: Lex
    type: basic
    priority: "1"
    pattern: "fish | [word=cat] | [lemma=/[a-zé]+/] | [raw=/[^a-z]+/] | [word=cat~]"
  - name: ev
    label: Ev
    type: event
    priority: "2"
    pattern: |
      trigger = [tag=/[VJ].*/]
      subject:^Actor = >nsubj []
      object = >dobj []
  - name: edges
    label: Edge
    type: basic
    priority: "2"
    pattern: "[incoming=nsubj] | [outgoing=/c.*/]"
  - name: hop
    label: Hop
    type: basic
    priority: "2"
    pattern: "@Lex >conj{1,2} []"
  - name: chain
    label: Chain
    type: basic
    priority: "3"
    pattern: "@Actor <nsubj [] >dobj @NP"
"""

PUSHDOWN_RULES = """
metadataFilters: "citations > 1"
rules:
  - name: np
    label: NP
    type: basic
    pattern: "[tag=/N.*/]+"
  - name: sv
    label: SV
    type: event
    pattern: |
      trigger = [tag=VB]
      subject = >nsubj []
"""

MATCHERS = [
    GrammarMatcher(RULES, verbosity=v, use_state=u)
    for v in GrammarMatcher.VERBOSITY for u in (True, False)
] + [GrammarMatcher(PUSHDOWN_RULES)]

#: a damage that puts one document outside the batch decode's clean subset
POISONS = ("null_token", "null_label", "null_src", "null_root", "null_struct",
           "null_raw", "ragged")


def _no_decode(col, keep=None):
    """Every document takes the per-struct path."""
    return [None] * len(col)


@st.composite
def sentences(draw, modes):
    n = draw(st.integers(0, 6))
    s = {}
    for name in LAYERS:
        mode = modes[name]
        if mode == "absent" or (mode == "some" and draw(st.booleans())):
            s[name] = None
        else:
            s[name] = draw(st.lists(st.sampled_from(POOLS[name]), min_size=n, max_size=n))
    if draw(st.integers(0, 5)) == 0:
        s["graph"] = None
    else:
        ends = st.integers(-1, n)  # out-of-range endpoints are dropped
        edges = draw(st.lists(st.fixed_dictionaries(
            {"src": ends, "dst": ends, "label": st.sampled_from(LABELS)}), max_size=12))
        if n >= 3 and s["tag"] is not None and draw(st.booleans()):
            # a subject-verb-object core, so events and state reads fire
            s["tag"][:3] = ["NN", "VB", "NN"]
            edges += [{"src": 1, "dst": 0, "label": "nsubj"},
                      {"src": 1, "dst": 2, "label": "dobj"}]
        roots = draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=2))
        s["graph"] = {"edges": edges, "roots": roots}
    return s


def _poison(s, kind):
    n = len(s["raw"])
    if kind == "null_token":
        s["raw"] = s["raw"] + [None]
        for name in LAYERS[1:]:
            if s[name] is not None:
                s[name] = s[name] + ["a"]
    elif kind == "null_struct":
        return None
    elif kind == "null_raw":
        s["raw"] = None
        s["tag"] = ["NN"] * n
    elif kind == "ragged":
        s["raw"] = s["raw"] + ["cat"]
        s["tag"] = ["NN"] * n
    else:
        edge = {"src": 0, "dst": 0, "label": "nsubj"}
        if kind == "null_label":
            edge["label"] = None
        elif kind == "null_src":
            edge["src"] = None
        graph = s["graph"] or {"edges": [], "roots": []}
        s["graph"] = {"edges": graph["edges"] + [edge],
                      "roots": graph["roots"] + ([None] if kind == "null_root" else [])}
    return s


@st.composite
def batches(draw):
    """A ``sentences`` batch plus, per document, whether it lies in the
    clean subset."""
    modes = {"raw": "present"}
    for name in LAYERS[1:]:
        modes[name] = draw(st.sampled_from(["absent", "some", "present"]))
    docs, clean = [], []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["null", "empty", "sents", "sents", "sents"]))
        if kind == "null":
            docs.append(None)
            clean.append(True)
            continue
        sents = [] if kind == "empty" else draw(
            st.lists(sentences(modes), min_size=1, max_size=3))
        poison = draw(st.sampled_from((None,) * 6 + POISONS))
        if poison and sents:
            i = draw(st.integers(0, len(sents) - 1))
            sents[i] = _poison(sents[i], poison)
        docs.append(sents)
        clean.append(not (poison and sents))
    n = len(docs)
    table = pa.table({
        "doc_id": [f"d{i}" for i in range(n)],
        "sentences": pa.array(docs, pa.list_(SENTENCE_TYPE)),
        "citations": draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)),
    })
    return table, clean


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(batches())
def test_batch_decode_equals_per_struct_path(case):
    table, clean = case
    decoded = match.decode_sentences(table["sentences"])
    assert [d is not None for d in decoded] == clean
    assert all(s.vocab is not None for d in decoded if d for s in d)
    for matcher in MATCHERS:
        got = matcher(table)
        with mock.patch.object(match, "decode_sentences", _no_decode):
            want = matcher(table)
        assert got.equals(want), (matcher.verbosity, matcher.use_state)


def _table(docs):
    return pa.table({
        "doc_id": [f"d{i}" for i in range(len(docs))],
        "sentences": pa.array(docs, pa.list_(SENTENCE_TYPE)),
    })


def _sent(raw):
    return {"raw": raw, "tag": ["NN"] * len(raw), "graph": {"edges": [], "roots": []}}


def test_null_sentences_cell_is_a_document_without_sentences():
    out = GrammarMatcher(RULES)(_table([None, [_sent(["cat"])]]))
    assert out["doc_id"].to_pylist() and set(out["doc_id"].to_pylist()) == {"d1"}
    assert GrammarMatcher.ERROR_LABEL not in out["label"].to_pylist()


def test_column_the_batch_decode_cannot_read_falls_back_per_document(caplog):
    table = pa.table({"doc_id": ["d0", "d1"], "sentences": pa.nulls(2)})
    out = GrammarMatcher(RULES)(table)
    assert out.num_rows == 0
    assert "decoding document by document" in caplog.text


def test_null_token_fails_only_its_document():
    bad = _sent(["cat", None])
    out = GrammarMatcher(RULES)(_table([[_sent(["cat"])], [bad], [_sent(["fish"])]]))
    errors = out.filter(pa.compute.equal(out["label"], GrammarMatcher.ERROR_LABEL))
    assert errors["doc_id"].to_pylist() == ["d1"]
    # the same failure the per-struct path has always reported
    assert errors["found_by"].to_pylist() == [
        "AttributeError: 'NoneType' object has no attribute 'strip'"]
    assert {"d0", "d2"} <= set(out["doc_id"].to_pylist())


def test_null_raw_layer_is_one_error_row_not_a_task_crash():
    docs = [[_sent(["cat"])], [{"raw": None, "tag": ["NN", "NN"], "graph": None}]]
    out = GrammarMatcher(RULES)(_table(docs))
    rows = [r for r in out.to_pylist() if r["doc_id"] == "d1"]
    assert len(rows) == 1 and rows[0]["label"] == GrammarMatcher.ERROR_LABEL
    assert rows[0]["found_by"] == "ValueError: sentence has a null raw layer"
    assert any(r["doc_id"] == "d0" for r in out.to_pylist())
    with pytest.raises(ValueError):
        GrammarMatcher(RULES, on_error="raise")(_table(docs))


def test_graphs_are_shared_only_when_every_graph_array_matches():
    def sent(label="nsubj", src=1, roots=(1,), n=3):
        raw = ["the", "cat", "ate"][:n]
        return {"raw": raw, "tag": ["DT", "NN", "VB"][:n], "graph": {
            "edges": [{"src": src, "dst": 0, "label": label}], "roots": list(roots)}}

    variants = [sent(), sent(label="dobj"), sent(src=2), sent(roots=(2,)), sent(n=2)]
    table = _table([[sent()]] + [[v] for v in variants])
    graphs = [d[0].graph for d in match.decode_sentences(table["sentences"])]
    assert graphs[0] is graphs[1]
    assert len({id(g) for g in graphs[1:]}) == len(variants)
    matcher = GrammarMatcher(RULES)
    with mock.patch.object(match, "decode_sentences", _no_decode):
        assert matcher(table).equals(GrammarMatcher(RULES)(table))


# ------------------------------------------------------------ fast-path guard

def _assert_all_fast(table, rules=RULES):
    """Every document decodes in the batch path, each sentence through the
    batch form of sentence_index_from_struct, with the same rows as the
    per-struct path."""
    decoded = match.decode_sentences(table["sentences"])
    assert all(d is not None for d in decoded)
    assert all(s.vocab is not None for d in decoded for s in d)
    real = match.sentence_index_from_struct
    calls = []

    def spy(s, **batch):
        calls.append(batch.get("vocab"))
        return real(s, **batch)

    matcher = GrammarMatcher(rules)
    with mock.patch.object(match, "sentence_index_from_struct", spy):
        got = matcher(table)
    assert calls and all(v is not None for v in calls)
    assert len(calls) == sum(len(d) for d in decoded)
    with mock.patch.object(match, "decode_sentences", _no_decode):
        assert got.equals(matcher(table))
    return got


def test_fast_path_on_annotate_batch_output(sf_dir):
    import pyarrow.parquet as pq

    from odinson_ray.sources.interleaved import build_interleaved
    from odinson_ray.stages.annotate import annotate_batch

    docs = pq.read_table(f"{sf_dir}/documents.parquet").slice(0, 64)
    got = _assert_all_fast(annotate_batch(build_interleaved(docs)))
    assert got.num_rows > 0


def test_fast_path_on_parsed_example_docs():
    from odinson_ray.sources.example_docs import DOCS
    from odinson_ray.sources.odinson_json import DOC_SCHEMA, parse_document
    from tests.test_odinson_json import doc_json_from_fixture

    rows = [parse_document(doc_json_from_fixture(k)) for k in DOCS]
    # tp-pies carries no chunk/entity layers: null layers in the batch
    assert any(s["chunk"] is None for r in rows for s in r["sentences"])
    table = pa.Table.from_pylist(rows, schema=DOC_SCHEMA)
    rules = """
rules:
  - name: np
    label: NP
    type: basic
    pattern: "[tag=DT]? [tag=/J.*/]* [tag=/N.*/]+"
  - name: eat
    label: Consumption
    type: event
    pattern: |
      trigger = [lemma=eat]
      subject = >nsubj []
      object = >dobj []
"""
    got = _assert_all_fast(table, rules)
    assert "Consumption" in got["label"].to_pylist()
