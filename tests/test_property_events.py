"""Property test: event patterns (trigger + argument captures with
quantifiers) agree with a brute-force packaging model on random graphs.

Builds on the relation-image walker of test_property_traversal for the
argument traversals. With single-token triggers and argument patterns,
the reference's packaging rules (selector.py:150-175, mirroring
EventSketch packaging) are directly computable:

  - default arg (min=max=1): one event per candidate destination
  - ``?``  (0,1): one event per candidate, or an argless event if none
  - ``+``  (1,inf): ONE event carrying ALL candidates (none if empty)
  - ``{2}``: one event per 2-subset of the candidates

Multiple arguments combine as the cartesian product of their packages.
``disable_match_selector=True`` exposes every packaged event (the
scorer's overlap-skip is pinned separately by the conformance corpus
and TestEvents parity)."""

from itertools import combinations, product
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import odinson_ray.core.matcher as matcher
from odinson_ray.core.matcher import Compiler, Ctx
from odinson_ray.core.selector import select_matches
from odinson_ray.core.sentence import SentenceIndex

from .test_property_traversal import (LABELS, WORDS, image, render_trav,
                                      trav_exprs)

compiler = Compiler()

ARG_QUANTS = [("", 1, 1), ("?", 0, 1), ("+", 1, None), ("{2}", 2, 2)]


@st.composite
def event_cases(draw):
    n = draw(st.integers(4, 7))
    words = [draw(st.sampled_from(WORDS)) for _ in range(n)]
    m = draw(st.integers(1, 2 * n))
    edges = sorted({(draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)),
                     draw(st.sampled_from(LABELS))) for _ in range(m)})
    trig = draw(st.sampled_from(WORDS))
    n_args = draw(st.integers(1, 2))
    args = [(f"a{i}", draw(trav_exprs()),
             draw(st.sampled_from(WORDS + [None])),
             draw(st.sampled_from(ARG_QUANTS)))
            for i in range(n_args)]
    return words, edges, trig, args


def render_event(trig, args) -> str:
    lines = [f"trigger = [word={trig}]"]
    for name, trav, w, (q, _, _) in args:
        tok = "[]" if w is None else f"[word={w}]"
        lines.append(f"{name}{q} = {render_trav(trav)} {tok}")
    return "\n".join(lines)


def brute_events(words, edges, trig, args):
    out_adj, in_adj = {}, {}
    for h, t, l in edges:
        out_adj.setdefault(h, []).append((t, l))
        in_adj.setdefault(t, []).append((h, l))
    events = []
    for t in (i for i, w in enumerate(words) if w == trig):
        per_arg = []
        for name, trav, w, (_, lo, hi) in args:
            dsts = sorted(image({t}, trav, out_adj, in_adj))
            if w is not None:
                dsts = [d for d in dsts if words[d] == w]
            if hi is not None and lo == hi:
                pkgs = [list(c) for c in combinations(dsts, lo)]
            elif hi is not None:  # (0,1)
                if len(dsts) > hi:
                    pkgs = [list(c) for c in combinations(dsts, hi)]
                elif len(dsts) < lo:
                    pkgs = []
                else:
                    pkgs = [dsts]
            else:  # (1, inf)
                pkgs = [] if len(dsts) < lo else [dsts]
            per_arg.append([(name, pkg) for pkg in pkgs])
        for combo in product(*per_arg):
            caps = tuple(sorted((name, d, d + 1)
                                for name, pkg in combo for d in pkg))
            events.append((t, t + 1, caps))
    return sorted(events)


def _events(q, sent):
    return sorted(
        (m.trigger.start, m.trigger.end,
         tuple(sorted((c.name, c.captured.start, c.captured.end)
                      for c in m.named_captures)))
        for m in select_matches(q.matches(Ctx(sent, 0, None)),
                                disable_match_selector=True))


@settings(max_examples=200, deadline=None)
@given(event_cases())
def test_events_match_bruteforce(case):
    words, edges, trig, args = case
    sent = SentenceIndex({"raw": words, "word": words},
                         [tuple(e) for e in edges], [0])
    pattern = render_event(trig, args)
    q = compiler.compile_event_query(pattern)
    got = _events(q, sent)
    assert got == brute_events(words, edges, trig, args), pattern
    # the same model holds with the single-hop event kernel compiled out
    with mock.patch.object(matcher, "single_hop_event", lambda *a: None):
        interp = compiler.compile_event_query(pattern)
    assert interp.hops is None
    assert _events(interp, sent) == brute_events(words, edges, trig, args), pattern
