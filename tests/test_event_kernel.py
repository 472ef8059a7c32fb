"""The compiled single-hop event kernel against the interpreter.

An event rule whose trigger is a single-token atom and whose arguments
are each one ``>label``/``<label``/``>/regex/``/``>>``/``<<`` hop to
``[]`` or an atom (``trigger = [tag=VB]``, ``subject = >nsubj []``) is
answered by ``EventQueryNode``'s kernel branch, which returns the
packaged events select_matches would make of the interpreter's sketches.
The oracle is the same rule with ``matcher.single_hop_event`` compiled
out, compared match tree by match tree with the selector on and off on
every kind of sentence the engine builds: annotated text, decoded
``sentences`` batches, a CorpusIndex and plain vocabulary-less
sentences. The cascade test pins whole grammars, with state and trigger
overlaps each on and off, to the compiled-out grammar.
"""

from __future__ import annotations

from unittest import mock

import pyarrow as pa
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import odinson_ray.core.matcher as matcher
from odinson_ray.core import matches as M
from odinson_ray.core.engine import DocumentEngine, Mention
from odinson_ray.core.matcher import Compiler, Ctx
from odinson_ray.core.selector import select_matches
from odinson_ray.core.sentence import AnnotatedDocument, CorpusIndex, SentenceIndex
from odinson_ray.core.serialize import match_to_json, mention_to_json
from odinson_ray.lang.rules import RuleReader
from odinson_ray.stages.annotate import SENTENCE_TYPE, annotate_texts_vectorized
from odinson_ray.stages.match import GrammarMatcher, decode_sentences
from tests.test_struct_decode import batches

compiler = Compiler()

WORDS = ["the", "a", "cat", "Cat", "fish", "ﬁsh", "join", "sort", "spark", "table"]
TAGS = ["DT", "JJ", "NN", "VB"]
#: edge labels, with a full-width NFKC variant of nsubj
LABELS = ["nsubj", "ｎｓｕｂｊ", "dobj", "amod"]

TRIGGERS = ["[tag=VB]", "[tag=NN]", "[]", "[word=cat]", "fish", "[lemma=/[a-f].*/]",
            "[word=tabel~]", "[tag=NN & !word=cat]"]
HOPS = [">nsubj", "<nsubj", ">dobj", "<amod", ">/n.*/", "</(dobj|amod)/", ">>", "<<"]
DESTS = ["[]", "[]", "[tag=NN]", "[word=cat]", "[tag=NN & !word=cat]", "[lemma=/[a-f].*/]"]
QUANTS = ["", "", "?", "+", "*", "{2}", "{1,2}", "{0,2}", "{2,}", "{0,1}"]
#: argument shapes next to the compiled subset that must stay interpreted:
#: multi-hop, quantified and optional hops, a label union, state and
#: state-or-wildcard destinations, a multi-token destination
NEAR_MISS_ARGS = [">nsubj >dobj []", ">nsubj{1,2} []", ">nsubj? []", "(>nsubj | >dobj) []",
                  ">nsubj @NP", ">nsubj (@NP | [])", ">dobj [tag=NN]+", ">nsubj [tag=NN | tag=VB]"]
NEAR_MISS_TRIGGERS = ["[tag=VB] | [tag=NN]", "[incoming=nsubj]", "@NP", "[tag=VB]+"]


@st.composite
def event_rules(draw):
    """(pattern, argument names to rename after compiling, in shape)."""
    n = draw(st.integers(1, 3))
    args = [(draw(st.sampled_from(QUANTS)), draw(st.sampled_from(HOPS)),
             draw(st.sampled_from(DESTS))) for _ in range(n)]
    trigger = draw(st.sampled_from(TRIGGERS))
    in_shape = True
    kind = draw(st.integers(0, 7))
    if kind == 0:
        args[0] = ("", *draw(st.sampled_from(NEAR_MISS_ARGS)).split(" ", 1))
        in_shape = False
    elif kind == 1:
        trigger = draw(st.sampled_from(NEAR_MISS_TRIGGERS))
        in_shape = False
    lines = [f"trigger = {trigger}"]
    lines += [f"a{i}{q} = {hop} {dest}" for i, (q, hop, dest) in enumerate(args)]
    same_name = n > 1 and draw(st.booleans())
    return "\n".join(lines), same_name, in_shape


@st.composite
def sentences(draw):
    """Token layers and edges with self-loops, duplicate edges and
    parallel edges of different labels."""
    n = draw(st.integers(0, 8))
    words = draw(st.lists(st.sampled_from(WORDS), min_size=n, max_size=n))
    layers = {"raw": words, "word": words, "lemma": [w.lower() for w in words],
              "tag": draw(st.lists(st.sampled_from(TAGS), min_size=n, max_size=n))}
    edges = []
    if n:
        node = st.integers(0, n - 1)
        edges = draw(st.lists(st.tuples(node, node, st.sampled_from(LABELS)), max_size=14))
        edges += edges[:draw(st.integers(0, 2))]  # duplicates
        if draw(st.booleans()):
            v = draw(node)
            edges += [(v, v, "nsubj"), (v, v, "dobj")]  # self-loops
    return layers, edges


def compile_pair(pattern, same_name):
    """(kernel rule, the same rule with the kernel compiled out)."""
    kernel = compiler.compile_event_query(pattern)
    with interpreted():
        interp = compiler.compile_event_query(pattern)
    if same_name:
        # two arguments of one name: the parser rejects them, the engine does not
        for q in (kernel, interp):
            args = q.required + q.optional
            args[-1].name = args[0].name
        kernel = matcher.EventQueryNode(kernel.trigger, kernel.required, kernel.optional)
        with interpreted():
            interp = matcher.EventQueryNode(interp.trigger, interp.required, interp.optional)
    assert interp.hops is None
    return kernel, interp


def interpreted():
    """Compile with the single-hop kernel compiled out."""
    return mock.patch.object(matcher, "single_hop_event", lambda *args: None)


def js(ms):
    return [match_to_json(m) for m in ms]


def check(kernel, interp, sent):
    for select in (True, False):
        want = js(select_matches(interp.matches(Ctx(sent, 0, None, select)), not select))
        got = kernel.matches(Ctx(sent, 0, None, select))
        if kernel.hops is not None:
            assert js(got) == want  # the kernel returns the packaged events
        assert js(select_matches(got, not select)) == want


def decoded_sentences(cases):
    struct = [{"raw": layers["raw"], "word": layers["word"], "lemma": layers["lemma"],
               "tag": layers["tag"], "chunk": None, "entity": None,
               "graph": {"edges": [{"src": s, "dst": d, "label": lab} for s, d, lab in edges],
                         "roots": [0] if layers["raw"] else []}}
              for layers, edges in cases]
    return decode_sentences(pa.array([struct], pa.list_(SENTENCE_TYPE)))[0]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(st.lists(sentences(), min_size=1, max_size=4), st.lists(event_rules(), min_size=1, max_size=3))
def test_kernel_equals_interpreter_on_every_sentence_source(cases, rules):
    plain = [SentenceIndex(dict(layers), edges, [0][:len(layers["raw"])])
             for layers, edges in cases]
    indexed = CorpusIndex([AnnotatedDocument("d", plain)]).sentences
    decoded = decoded_sentences(cases)
    assert all(s.vocab is not None for s in indexed + decoded)
    annotated = annotate_texts_vectorized([" ".join(layers["raw"]) for layers, _ in cases])
    for pattern, same_name, in_shape in rules:
        kernel, interp = compile_pair(pattern, same_name)
        assert (kernel.hops is not None) == in_shape, pattern
        for sent in plain + indexed + decoded + annotated:
            check(kernel, interp, sent)


@pytest.mark.parametrize("pattern", [
    f"trigger = [tag=VB]\nsubject = {arg}" for arg in NEAR_MISS_ARGS] + [
    f"trigger = {t}\nsubject = >nsubj []" for t in NEAR_MISS_TRIGGERS] + [
    "trigger = [tag=VB]\nsubject:Actor = >nsubj []",
    "trigger = [tag=VB]\nsubject:^Actor = >nsubj []",
    "trigger = [tag=VB]\nsubject = >nsubj []\nobject = >dobj @NP"])
def test_shapes_outside_the_kernel_stay_interpreted(pattern):
    assert compiler.compile_event_query(pattern).hops is None


def test_every_argument_quantifier_compiles():
    for q in QUANTS:
        assert compiler.compile_event_query(f"trigger = [tag=VB]\na{q} = >nsubj []").hops


def test_kernel_events_pass_selection_unchanged():
    sent = SentenceIndex({"raw": ["cat", "ate", "fish", "cat"], "tag": ["NN", "VB", "NN", "NN"]},
                         [(1, 0, "nsubj"), (1, 2, "dobj"), (1, 3, "dobj")], [1])
    q = compiler.compile_event_query("trigger = [tag=VB]\nsubject = >nsubj []\nobject = >dobj []")
    events = q.matches(Ctx(sent, 0))
    assert [type(m) for m in events] == [M.EventMatch, M.EventMatch]
    for disable in (True, False):
        assert select_matches(events, disable) is events


# ------------------------------------------------------------ trigger overlaps

def _event(trigger, spans, mn=1, mx=1):
    meta = [M.ArgumentMetadata("x", mn, mx, False)]
    caps = [M.NamedCapture("x", None, M.NGramMatch(s, e)) for s, e in spans]
    return M.EventMatch(M.NGramMatch(*trigger), caps, meta)


def test_remove_trigger_overlaps_returns_self_when_nothing_overlaps():
    ev = _event((1, 2), [(0, 1), (2, 3)], 1, None)
    assert ev.remove_trigger_overlaps() is ev
    # a self-loop argument (on the trigger token) is dropped ...
    kept = _event((1, 2), [(0, 1), (1, 2)], 1, None).remove_trigger_overlaps()
    assert [(c.captured.start, c.captured.end) for c in kept.named_captures] == [(0, 1)]
    # ... and an event left below its argument's min is removed
    assert _event((1, 2), [(1, 2)]).remove_trigger_overlaps() is None


def test_filter_trigger_overlaps_keeps_the_mention():
    ev = _event((1, 2), [(0, 1)])
    m = Mention(ev, "E", 0, "r", "d")
    engine = DocumentEngine(AnnotatedDocument("d", []))
    assert engine._filter_trigger_overlaps([m], allow=False)[0] is m
    looped = Mention(_event((1, 2), [(0, 1), (1, 2)], 1, None), "E", 0, "r", "d")
    out = engine._filter_trigger_overlaps([looped], allow=False)[0]
    assert out is not looped and len(out.match.named_captures) == 1


# ------------------------------------------------------------ whole cascades

GRAMMAR = r"""
rules:
  - name: np
    label: NP
    type: basic
    priority: "1"
    pattern: "[tag=DT]? [tag=JJ]* [tag=/N.*/]+"
  - name: svo
    label: SVO
    type: event
    priority: "1"
    pattern: |
      trigger = [tag=VB]
      subject = >nsubj []
      object = >dobj []
  - name: loose
    label: Loose
    type: event
    priority: "2"
    pattern: |
      trigger = []
      near+ = >> []
      back? = << [tag=/N.*/]
  - name: mods
    label: Mods
    type: event
    priority: "2"
    pattern: |
      trigger = [tag=/N.*/]
      mod{0,2} = >/(amod|conj)/ []
      head* = </n.*/ [tag=VB]
  - name: typed
    label: Typed
    type: event
    priority: "2"
    pattern: |
      trigger = [tag=VB]
      subject:^Actor = >nsubj []
      object = >dobj @NP
  - name: after-svo
    label: After
    type: basic
    priority: "3"
    pattern: "(?<=@SVO) [] | @Actor"
"""


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(batches())
def test_cascades_equal_the_interpreted_grammar(case):
    table, _ = case
    for use_state in (True, False):
        for overlaps in (True, False):
            def build(u=use_state, a=overlaps):
                return GrammarMatcher(GRAMMAR, verbosity="all", use_state=u,
                                      allow_trigger_overlaps=a)
            got = build()(table)
            with interpreted():
                want = build()(table)
            assert got.equals(want)
    extractors = RuleReader().compile_rule_string(GRAMMAR)
    with interpreted():
        plain = RuleReader().compile_rule_string(GRAMMAR)
    assert [e.query.hops is not None for e in extractors[1:5]] == [True, True, True, False]
    for i, sents in enumerate(decode_sentences(table["sentences"])):
        if not sents:
            continue  # a null, empty or poison document
        doc = AnnotatedDocument(f"d{i}", sents)
        for disable in (True, False):
            for overlaps in (True, False):
                for run in (DocumentEngine.extract_mentions, DocumentEngine.extract_no_state):
                    got = run(DocumentEngine(doc), extractors, overlaps, disable)
                    want = run(DocumentEngine(doc), plain, overlaps, disable)
                    assert ([mention_to_json(m) for m in got]
                            == [mention_to_json(m) for m in want])

