"""The compiled token-sequence kernel against the interpreter.

``Compiler.compile`` turns a concatenation of single-token clauses
(``[tag=DT]? [tag=JJ]* [tag=NN]+``) into a TokenSequenceQuery: one regex
scan per sentence over per-vocabulary token class bytes that builds only
the matches the selector keeps. Its interpreted tree (``.interp``, run on
a sentence without a vocabulary) is the oracle here, compared match tree
by match tree with the selector on and off, on every kind of sentence the
engine builds: annotated text, decoded ``sentences`` batches, a
CorpusIndex and plain vocabulary-less sentences. The engine-level test
pins whole cascades to the same grammar with the kernel compiled out. The
guard tests pin which rules compile and the selector's fixed point the
kernel's output relies on.
"""

from __future__ import annotations

import importlib.util
import os

import pyarrow as pa
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import odinson_ray.core.matcher as matcher
import odinson_ray.core.selector as selector
from odinson_ray.core import matches as M
from odinson_ray.core.engine import DocumentEngine
from odinson_ray.core.matcher import Compiler, Ctx, TokenSequenceQuery
from odinson_ray.core.selector import select_matches
from odinson_ray.core.sentence import AnnotatedDocument, CorpusIndex, SentenceIndex
from odinson_ray.core.serialize import match_to_json, mention_to_json
from odinson_ray.lang.rules import RuleReader
from odinson_ray.pipelines.kg import FLAGSHIP_RULES
from odinson_ray.stages.annotate import (
    SENTENCE_TYPE,
    _graph_struct,
    annotate_texts_vectorized,
    annotate_tokens_fast,
    group_edges,
)
from odinson_ray.stages.match import GrammarMatcher, decode_sentences
from tests.test_struct_decode import batches

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
compiler = Compiler()

#: surface words: the annotator's determiners, adjectives, verbs and tech
#: word, plus case and NFKC variants (ligature, full width)
WORDS = ["the", "a", "fast", "big", "join", "sort", "spark", "table", "key",
         "cat", "Cat", "fish", "\ufb01sh", "\uff21", "A"]
TAGS = ["DT", "JJ", "NN", "VB"]
ENTITIES = ["B-TECH", "O"]

ATOMS = ["[tag=DT]", "[tag=JJ]", "[tag=NN]", "[tag=VB]", "[entity=B-TECH]",
         "[word=cat]", "fish", "[raw=A]", "[lemma=/[a-f].*/]", "[word=tabel~]",
         "[tag=NN & !word=cat]", "[]"]
QUANTIFIERS = ["", "", "?", "??", "*", "*?", "+", "+?", "{2}", "{1,2}", "{1,2}?",
               "{0,2}", "{0,2}?", "{2,}", "{2,}?"]
#: shapes next to the compiled subset that must stay interpreted: an
#: OrQuery atom, merged wildcards, an all-optional pattern, an edge field
NEAR_MISSES = ["[tag=DT | tag=JJ] [tag=NN]+", "[]{2} [tag=NN]", "[tag=DT]? [tag=JJ]*",
               "[incoming=nsubj] [tag=NN]+"]


@st.composite
def patterns(draw):
    if draw(st.integers(0, 5)) == 0:
        return draw(st.sampled_from(NEAR_MISSES))
    clauses = draw(st.lists(st.tuples(st.sampled_from(ATOMS), st.sampled_from(QUANTIFIERS)),
                            min_size=1, max_size=4))
    return " ".join(a + q for a, q in clauses)


@st.composite
def sentence_layers(draw):
    words = draw(st.lists(st.sampled_from(WORDS), max_size=10))
    n = len(words)
    return {"raw": words, "word": words, "lemma": [w.lower() for w in words],
            "tag": draw(st.lists(st.sampled_from(TAGS), min_size=n, max_size=n)),
            "entity": draw(st.lists(st.sampled_from(ENTITIES), min_size=n, max_size=n))}


def js(ms):
    return [match_to_json(m) for m in ms]


def plain_sentence(layers):
    """A vocabulary-less sentence with the annotator's dependency graph."""
    n = len(layers["raw"])
    return SentenceIndex({k: list(v) for k, v in layers.items()}, group_edges(n), [0][:n])


def check(q, oracle, sent):
    """``q`` on ``sent`` equals the interpreted tree on ``oracle``, a
    vocabulary-less sentence with the same layers and graph."""
    interp = q.interp if isinstance(q, TokenSequenceQuery) else q
    for select in (True, False):
        want = js(select_matches(interp.matches(Ctx(oracle, 0, None, select)), not select))
        got = q.matches(Ctx(sent, 0, None, select))
        assert js(select_matches(got, not select)) == want
        if select and isinstance(q, TokenSequenceQuery) and sent.vocab is not None:
            assert js(got) == want  # the kernel builds the kept matches only


def decoded_sentences(layer_sets):
    struct = [dict(layers, chunk=None, graph=_graph_struct(len(layers["raw"])))
              for layers in layer_sets]
    return decode_sentences(pa.array([struct], pa.list_(SENTENCE_TYPE)))[0]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(st.lists(sentence_layers(), min_size=1, max_size=5),
       st.lists(patterns(), min_size=1, max_size=3))
def test_kernel_equals_interpreter_on_every_sentence_source(layer_sets, pats):
    plain = [plain_sentence(layers) for layers in layer_sets]
    indexed = CorpusIndex([AnnotatedDocument("d", plain)]).sentences
    decoded = decoded_sentences(layer_sets)
    assert all(s.vocab is not None for s in indexed + decoded)
    annotated = annotate_texts_vectorized([" ".join(layers["raw"]) for layers in layer_sets])
    annotated_plain = [SentenceIndex(*annotate_tokens_fast(list(layers["raw"])))
                       for layers in layer_sets]
    sources = [(plain, plain), (plain, indexed), (plain, decoded),
               (annotated_plain, annotated)]
    for pattern in pats:
        q = compiler.compile(pattern)
        for oracles, sents in sources:
            for oracle, sent in zip(oracles, sents):
                check(q, oracle, sent)


@pytest.mark.parametrize("pattern", NEAR_MISSES + [
    "(?<=[tag=DT]) [tag=NN]+", "[tag=NN]+ (?=[tag=VB])", "@NP [tag=VB]+",
    "[tag=NN]+ >nsubj []", "(?<x>[tag=NN]+) [tag=VB]", "[tag=NN]", "[tag=NN]?",
    "([tag=NN]+)?? [tag=VB]", "([tag=NN]?)+ [tag=VB]",
    " ".join(f"[word=w{i}]" for i in range(9))])
def test_shapes_outside_the_subset_stay_interpreted(pattern):
    assert not isinstance(compiler.compile(pattern), TokenSequenceQuery)


def test_event_rules_stay_interpreted():
    q = compiler.compile_event_query("trigger = [tag=VB]+\nsubject = >nsubj []")
    assert not isinstance(q, TokenSequenceQuery)


def _prepared_grammar():
    spec = importlib.util.spec_from_file_location(
        "perfbench_worker", os.path.join(REPO, "perfbench", "worker.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PREPARED_GRAMMAR


def test_benchmark_rules_compile_to_the_kernel():
    flagship = {e.name: e.query for e in RuleReader().compile_rule_string(FLAGSHIP_RULES)}
    assert type(flagship["tech-entity"]).__name__ == "TokenSequenceQuery"
    assert type(flagship["svo"]).__name__ == "EventQueryNode"
    prepared = {e.name: type(e.query).__name__
                for e in RuleReader().compile_rule_string(_prepared_grammar())}
    assert prepared == {"tech-entity": "TokenSequenceQuery", "np": "TokenSequenceQuery",
                        "svo": "EventQueryNode", "tech-context": "OrQuery",
                        "conj-chain": "GraphTraversalQueryNode"}
    # the flagship svo runs the single-hop event kernel; the prepared svo
    # (a promoted argument, an @NP destination) stays interpreted
    assert flagship["svo"].hops is not None
    assert {e.name: e.query.hops is None for e in RuleReader().compile_rule_string(
        _prepared_grammar()) if e.name == "svo"} == {"svo": True}


# ------------------------------------------------------------ whole cascades

GRAMMAR = r"""
rules:
  - name: np
    label: NP
    type: basic
    priority: "1"
    pattern: "[tag=DT]? [tag=JJ]* [tag=/N.*/]+"
  - name: ent
    label: Ent
    type: basic
    priority: "1"
    pattern: "[entity=B-X]+? [chunk=I-NP]*"
  - name: np-verb
    label: NPV
    type: basic
    priority: "2"
    pattern: "@NP [tag=VB]+ [tag=DT]??"
  - name: after-np
    label: After
    type: basic
    priority: "2"
    pattern: "(?<=@NP) [tag=VB] [tag=/N.*/]{1,2}?"
  - name: ev
    label: Ev
    type: event
    priority: "3"
    pattern: |
      trigger = [tag=VB]
      subject = >nsubj @NP
"""


def _interpreted(monkeypatch, build):
    """``build()`` with the kernel compiled out of every rule."""
    with monkeypatch.context() as m:
        m.setattr(matcher, "token_sequence", lambda q: None)
        return build()


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large,
                                 HealthCheck.function_scoped_fixture])
@given(batches())
def test_cascades_equal_the_interpreted_grammar(monkeypatch, case):
    table, _ = case
    for use_state in (True, False):
        def build(u=use_state):
            return GrammarMatcher(GRAMMAR, verbosity="all", use_state=u)
        got = build()(table)
        want = _interpreted(monkeypatch, build)(table)
        assert got.equals(want)
    extractors = RuleReader().compile_rule_string(GRAMMAR)
    plain = _interpreted(monkeypatch, lambda: RuleReader().compile_rule_string(GRAMMAR))
    assert type(extractors[0].query) is TokenSequenceQuery
    for i, sents in enumerate(decode_sentences(table["sentences"])):
        if not sents:
            continue  # a null, empty or poison document
        doc = AnnotatedDocument(f"d{i}", sents)
        for disable in (True, False):
            for run in (DocumentEngine.extract_mentions, DocumentEngine.extract_no_state):
                got = run(DocumentEngine(doc), extractors, disable_match_selector=disable)
                want = run(DocumentEngine(doc), plain, disable_match_selector=disable)
                assert ([mention_to_json(m) for m in got]
                        == [mention_to_json(m) for m in want])


# ------------------------------------------------------------ selector fixed point

def _tree(draw, s, e):
    """A random match tree over [s, e)."""
    leaf = M.NGramMatch(s, e)
    kind = draw(st.sampled_from(["ngram", "concat", "rep", "opt", "or", "named", "state"]))
    if kind == "concat" and e > s:
        return M.ConcatMatch([M.NGramMatch(s, s + 1), M.NGramMatch(s + 1, e)])
    if kind == "rep" and e > s:
        return M.RepetitionMatch([M.NGramMatch(k, k + 1) for k in range(s, e)],
                                 draw(st.booleans()))
    if kind == "opt":
        return M.OptionalMatch(leaf, draw(st.booleans()))
    if kind == "or":
        return M.OrMatch(leaf, draw(st.integers(0, 2)))
    if kind == "named":
        return M.NamedMatch(leaf, "x", None)
    if kind == "state":
        return M.StateMatch(s, e, [])
    return leaf


@st.composite
def disjoint_matches(draw):
    out, pos = [], 0
    for _ in range(draw(st.integers(0, 6))):
        s = pos + draw(st.integers(0, 2))
        e = s + draw(st.integers(0, 3))
        out.append(_tree(draw, s, e))
        pos = max(e, s + 1)
    return out


@settings(max_examples=200, deadline=None)
@given(disjoint_matches(), st.booleans())
def test_disjoint_lists_are_a_fixed_point_of_selection(ms, disable):
    assert select_matches(ms, disable) == ms
    # the same holds for the scorer loop itself, without the fast path
    saved = selector._plain_disjoint
    selector._plain_disjoint = lambda candidates: False
    try:
        assert js(select_matches(ms, disable)) == js(ms)
    finally:
        selector._plain_disjoint = saved


def test_identity_normalization_reads_the_field_ids():
    clean = CorpusIndex([AnnotatedDocument("d", [SentenceIndex(
        {"raw": ["the", "fast", "cat"], "tag": ["DT", "JJ", "NN"]})])])
    v = clean.groups[0][0]
    assert v._mapped_flat("nfkc", "tag") is v.fields["tag"]
    assert [m.start for m in compiler.compile("[tag=NN]").matches(
        Ctx(clean.sentences[0], 0))] == [2]
    # an NFKC-changing token takes the mapped path and still matches
    sent = SentenceIndex({"raw": ["\ufb01sh", "Cat", "\uff21"],
                          "tag": ["NN", "NN", "\uff2e\uff2e"]})
    mixed = CorpusIndex([AnnotatedDocument("d", [sent])])
    v = mixed.groups[0][0]
    assert v._mapped_flat("nfkc", "tag") is not v.fields["tag"]
    for pattern, want in [("[tag=NN]+", [(0, 3)]), ("fish", [(0, 1)]),
                          ("[raw=A]", [(2, 3)]), ("cat [tag=NN]", [(1, 3)])]:
        q = compiler.compile(pattern)
        got = [(m.start, m.end) for m in select_matches(q.matches(Ctx(mixed.sentences[0], 0)))]
        assert got == want, pattern
        assert got == [(m.start, m.end) for m in select_matches(q.matches(Ctx(sent, 0)))]


def test_aggressive_identity_is_checked_over_the_norm_layers_only():
    """``norm`` reads raw and word only: upper-case tags in the same batch
    vocabulary do not force the per-batch gather of the raw ids."""
    clean = CorpusIndex([AnnotatedDocument("d", [SentenceIndex(
        {"raw": ["the", "fast", "cat"], "tag": ["DT", "JJ", "NN"]})])])
    v = clean.groups[0][0]
    assert v._mapped_flat("agg", "raw") is v.fields["raw"]
    assert [m.start for m in compiler.compile("[norm=cat]").matches(
        Ctx(clean.sentences[0], 0))] == [2]


def test_norm_queries_match_the_postings_path_on_mixed_case():
    sents = [
        SentenceIndex({"raw": ["The", "FAST", "cat", "dt"], "word": ["the", "fast", "Cat", "DT"],
                       "tag": ["DT", "JJ", "NN", "NN"], "lemma": ["the", "fast", "cat", "dt"]}),
        SentenceIndex({"raw": ["nn", "Caf\u00e9", "CAT", "the"], "word": ["NN", "cafe", "cat", "the"],
                       "tag": ["NN", "NN", "NN", "DT"], "lemma": ["nn", "cafe", "cat", "the"]}),
        SentenceIndex({"raw": ["a", "fast", "cat"], "word": ["a", "fast", "cat"],
                       "tag": ["DT", "JJ", "NN"], "lemma": ["a", "fast", "cat"]}),
    ]
    # lower-case raw and word, with other layers holding upper-case tags
    # and the lower-case forms of those tags: the identity path
    lower = [sents[2], SentenceIndex({"raw": ["the", "cat", "dt"], "word": ["the", "cat", "dt"],
                                      "tag": ["DT", "NN", "NN"], "lemma": ["dt", "nn", "dt"]})]
    for group, identity in ((sents, False), (lower, True)):
        corpus = CorpusIndex([AnnotatedDocument("d", group)])
        v = corpus.groups[0][0]
        assert (v._mapped_flat("agg", "raw") is v.fields["raw"]) is identity
        for pattern in ("cat", "[norm=the] [norm=fast]", "[norm=dt]", "[norm=nn]", "[norm=cafe]",
                        "[norm=/c.*/]", "[norm=/.*a.*/]", "[norm=/[dn]./]", "[norm=DT]",
                        "[norm=the] [tag=JJ]? [norm=/c.*/]"):
            q = compiler.compile(pattern)
            for i, sent in enumerate(group):
                got = [(m.start, m.end)
                       for m in select_matches(q.matches(Ctx(corpus.sentences[i], i)))]
                want = [(m.start, m.end) for m in select_matches(q.matches(Ctx(sent, i)))]
                assert got == want, (pattern, identity, i)
