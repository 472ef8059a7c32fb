"""Parity: the batch-vectorized annotate+match path (BatchVocab-backed
SentenceIndex, batch-level lazy inverted index, wildcard-dst traversal fast
path) must produce EXACTLY the mentions of the per-row reference path
(annotate_tokens_fast + dict-postings SentenceIndex).

The grammar below deliberately exercises every lookup kind the batch index
serves: plain-field term, default-field (norm synonym) term, whole-token
regex, fuzzy, negation, conjunction, repetition, lookaround, graph
traversal, and an event with promoted args.
"""

import random

import pyarrow as pa
import pytest

from odinson_ray.core.engine import DocumentEngine
from odinson_ray.core.sentence import AnnotatedDocument, SentenceIndex
from odinson_ray.lang.rules import RuleReader
from odinson_ray.stages.annotate import annotate_texts_vectorized, annotate_tokens_fast

GRAMMAR = """
rules:
  - {name: r-term,   label: Verb,  type: basic, priority: "1", pattern: "[tag=VB]"}
  - {name: r-norm,   label: Norm,  type: basic, priority: "1", pattern: "spark"}
  - {name: r-regex,  label: Rex,   type: basic, priority: "1", pattern: "[lemma=/s.*/]"}
  - {name: r-fuzzy,  label: Fuzz,  type: basic, priority: "1", pattern: "[word=spork~]"}
  - {name: r-neg,    label: Neg,   type: basic, priority: "1", pattern: "[tag=VB & !entity=B-TECH]"}
  - {name: r-rep,    label: Rep,   type: basic, priority: "1", pattern: "[entity=B-TECH]+"}
  - {name: r-look,   label: Look,  type: basic, priority: "1", pattern: "(?<=[tag=DT]) [tag=NN]"}
  - {name: r-trav,   label: Trav,  type: basic, priority: "1", pattern: "[tag=VB] >nsubj []"}
  - name: r-event
    label: SVO
    type: event
    priority: "2"
    pattern: |
      trigger = [tag=VB]
      subject: ^Arg = >nsubj []
      object: ^Arg? = >dobj [lemma=/.*a.*/]
"""

VOCAB = ["spark", "scan", "join", "sort", "merge", "filter", "group", "fast",
         "slow", "small", "big", "the", "a", "table", "stream", "spork",
         "Data", "naïve", "CAFÉ", "line", "row"]


def _mention_rows(doc_id, sents, extractors):
    doc = AnnotatedDocument(doc_id, sents, {})
    rows = []
    for m in DocumentEngine(doc).extract_mentions(extractors):
        caps = tuple(
            (c.name, c.label, c.captured.start, c.captured.end)
            for c in m.match.named_captures
        )
        rows.append((m.sent_idx, m.label, m.found_by, m.start, m.end, caps))
    return rows


@pytest.mark.parametrize("seed", [0, 7])
def test_vectorized_path_matches_reference_path(seed):
    rng = random.Random(seed)
    texts_per_doc = []
    for _ in range(40):
        n_sents = rng.randint(0, 4)
        texts = []
        for _ in range(n_sents):
            n = rng.randint(0, 18)
            texts.append(" ".join(rng.choice(VOCAB) for _ in range(n)))
        texts_per_doc.append(texts)

    extractors = RuleReader().compile_rule_string(GRAMMAR)

    flat_texts = [t for ts in texts_per_doc for t in ts]
    vec_sents = annotate_texts_vectorized(flat_texts)
    cur = 0
    got, expect = [], []
    for d, ts in enumerate(texts_per_doc):
        vsents = vec_sents[cur : cur + len(ts)]
        cur += len(ts)
        rsents = []
        for t in ts:
            toks = t.split(" ") if t else []
            fields, edges, roots = annotate_tokens_fast(toks)
            rsents.append(SentenceIndex(fields, edges, roots, take_ownership=True))
        got.extend(_mention_rows(f"d{d}", vsents, extractors))
        expect.extend(_mention_rows(f"d{d}", rsents, extractors))
    assert got == expect
    assert any(r[1] == "SVO" for r in expect)  # the corpus exercised events
    assert any(r[1] == "Fuzz" for r in expect)


def test_vectorized_lazy_fields_materialize():
    sents = annotate_texts_vectorized(["the spark scan a table", ""])
    s = sents[0]
    # derived layers materialize on demand and match the per-row annotator
    fields, _, _ = annotate_tokens_fast("the spark scan a table".split(" "))
    assert s.all_fields() == fields
    assert sents[1].tokens() == []
    assert sents[1].length == 0


@pytest.mark.parametrize("texts", [
    ["the spark scan a table", "", "a  b", "naïve CAFÉ Spark spark",
     "ctl\x01 tab\tx \x7f Data", "Data data DATA"],
    ["", "", ""],  # every sentence empty
    [],
])
def test_vectorized_layers_equal_per_sentence_annotation(texts):
    sents = annotate_texts_vectorized(texts)
    assert len(sents) == len(texts)
    for text, s in zip(texts, sents):
        fields, _, _ = annotate_tokens_fast(text.split(" ") if text else [])
        assert s.all_fields() == fields
