"""``StateMatch.from_match`` returns a StateMatch it is given as is, and
promotion and state reads produce the same mentions as with a fresh
copy made at every step (the promotion and state pin corpora)."""

import json
from unittest import mock

from hypothesis import given, settings

from odinson_ray.api import OdinsonEngine
from odinson_ray.core.matches import NamedCapture, NGramMatch, StateMatch
from odinson_ray.core.sentence import AnnotatedDocument, SentenceIndex
from odinson_ray.core.serialize import match_to_json

from . import test_property_promotion as promotion
from . import test_property_state as state
from .test_property_traversal import render_trav


def _copying_from_match(m):
    caps = [NamedCapture(c.name, c.label, _copying_from_match(c.captured))
            for c in m.named_captures]
    return StateMatch(m.start, m.end, caps)


def test_from_match_returns_a_state_match_as_is():
    inner = StateMatch(1, 2, [])
    sm = StateMatch(0, 3, [NamedCapture("a", "A", inner)])
    assert StateMatch.from_match(sm) is sm
    copied = StateMatch.from_match(NGramMatch(0, 3))
    assert isinstance(copied, StateMatch) and (copied.start, copied.end) == (0, 3)


def _mentions(words, edges, rules):
    sent = SentenceIndex({"raw": words, "word": words},
                         [tuple(e) for e in edges], [0])
    engine = OdinsonEngine([AnnotatedDocument("d", [sent])])
    mentions = engine.extract_mentions(engine.compile_rule_string(rules))
    return [json.dumps([m.label, m.sent_idx, m.found_by,
                        match_to_json(m.match)], sort_keys=True)
            for m in mentions]


def _same_as_copying(words, edges, rules):
    got = _mentions(words, edges, rules)
    with mock.patch.object(StateMatch, "from_match",
                           staticmethod(_copying_from_match)):
        want = _mentions(words, edges, rules)
    assert got == want, rules


@settings(max_examples=100, deadline=None)
@given(promotion.cases())
def test_promotion_mentions_unchanged(case):
    words, edges, trig, argw, trav = case
    rules = promotion.RULES_TMPL.format(
        trig=trig, trav=render_trav(trav),
        tok="[]" if argw is None else f"[word={argw}]")
    _same_as_copying(words, edges, rules)


@settings(max_examples=100, deadline=None)
@given(state.cases())
def test_state_read_mentions_unchanged(case):
    words, edges, seed_word, other, trav, seed_is_src = case
    if seed_is_src:
        pattern = f"@Seed {render_trav(trav)} [word={other}]"
    else:
        pattern = f"[word={other}] {render_trav(trav)} @Seed"
    _same_as_copying(words, edges,
                     state.RULES_TMPL.format(seed=seed_word, pattern=pattern))
