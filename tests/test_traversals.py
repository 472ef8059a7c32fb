"""Graph-traversal semantics vs the reference's TestTraversals expectations
(core/src/test/scala/ai/lum/odinson/traversals/TestTraversals.scala)."""

import pytest

from odinson_ray.core.matcher import Compiler, Ctx
from odinson_ray.core.selector import select_matches
from odinson_ray.core.sentence import SentenceIndex
from odinson_ray.sources.example_docs import DOCS

compiler = Compiler()


def run(key: str, pattern: str):
    d = DOCS[key]
    s = d["sentences"][0]
    sent = SentenceIndex(s["fields"], s["edges"], s["roots"])
    q = compiler.compile(pattern)
    selected = select_matches(q.matches(Ctx(sent, 0, None)))
    toks = sent.tokens()
    return [" ".join(toks[m.start : m.end]) for m in selected]


def test_conj_and_fanout():
    assert run("alien-species", "[word=cats] >conj_and [tag=/N.*/]") == ["horses", "cattle"]


def test_parenthesized_traversal():
    assert run("alien-species", "[word=cats] (>conj_and [tag=/N.*/])") == ["horses", "cattle"]


@pytest.mark.parametrize(
    "quant,expected",
    [
        ("?", ["animals", "hedgehogs", "coypu", "yyymals"]),
        ("{1}", ["hedgehogs", "coypu", "yyymals"]),
        ("{2}", ["deer", "zzzmals"]),
        ("{1,2}", ["hedgehogs", "coypu", "yyymals", "deer", "zzzmals"]),
        ("+", ["hedgehogs", "coypu", "yyymals", "deer", "zzzmals"]),
        ("*", ["animals", "hedgehogs", "coypu", "yyymals", "deer", "zzzmals"]),
    ],
)
def test_quantified_hop_groups(quant, expected):
    got = run("hedgehogs-coypy-2", f"[word=animals] (>nmod_such_as []){quant}")
    assert got == expected


@pytest.mark.parametrize(
    "pattern,expected",
    [
        ("John <nsubj >nmod_with []", ["chopsticks"]),
        ("John <nsubj >nmod_with (?^ [])", ["chopsticks"]),
        ("John <nsubj >nmod_with (?^ [] >conj [])", ["chopsticks and a spoon"]),
        ("John <nsubj >nmod_with (?^ [] (>conj [])?)", ["chopsticks", "chopsticks and a spoon"]),
    ],
)
def test_expand(pattern, expected):
    assert run("chopsticks-spoon", pattern) == expected


def test_incoming_outgoing_wildcards():
    # "ate" governs Becky via nsubj: << from Becky reaches ate
    assert run("becky-gummy-bears", "Becky << []") == ["ate"]
    assert run("becky-gummy-bears", "ate >> []")  # non-empty fan-out


def test_traversal_prefilter_memo_not_keyed_by_address():
    """Regression: the per-sentence start-set memo must key on the step
    OBJECT, not id() — a freed query object's reused address returned a
    stale (empty) start set and silently dropped matches on a persistent
    engine issuing several ad-hoc traversal queries."""
    import gc

    from odinson_ray.api import OdinsonEngine
    from odinson_ray.core.sentence import AnnotatedDocument, SentenceIndex

    doc = AnnotatedDocument("d", [SentenceIndex(
        {"raw": ["x", "y"], "word": ["x", "y"]}, [(0, 1, "nsubj")], [0])])
    engine = OdinsonEngine([doc])
    for _ in range(20):
        # a query with a never-matching traversal memoizes an EMPTY start set
        assert engine.query("[word=x] >dobj []") == []
        gc.collect()
        got = [(m.start, m.end) for m in engine.query("[word=x] >nsubj []")]
        assert got == [(1, 2)], got


def test_trav_starts_memo_does_not_pin_queries():
    """The per-sentence traversal memo holds WEAK refs to compiled step
    objects: a persistent engine running many ad-hoc queries must not grow
    each sentence's memo unboundedly (ADVICE r02)."""
    import gc

    d = DOCS["alien-species"]
    s = d["sentences"][0]
    sent = SentenceIndex(s["fields"], s["edges"], s["roots"])
    for _ in range(3):
        q = compiler.compile("[word=cats] >conj_and [tag=/N.*/]")
        selected = select_matches(q.matches(Ctx(sent, 0, None)))
        assert selected
        del q, selected
    gc.collect()
    assert len(sent._trav_starts) == 0


@pytest.mark.parametrize(
    "pattern,expected",
    [
        ("[word=a] (>x [])*", [(0, 1, ()), (1, 2, ())]),
        ("[word=a] (>x [])+", [(0, 1, ()), (1, 2, ())]),
        ("[word=a] (>x (?<y> []))*", [(0, 1, ()), (1, 2, (1,))]),
        ("[word=a] (>x (?<y> []))+", [(0, 1, (1, 0)), (1, 2, (1,))]),
    ],
)
def test_unbounded_hop_group_on_cycle(pattern, expected):
    """A two-token cycle a >x b >x a: the unbounded group terminates once
    its frontier repeats and yields each reachable token."""
    selected = select_matches(compiler.compile(pattern).matches(Ctx(cycle(), 0, None)))
    assert spans_and_captures(selected) == expected


def cycle():
    return SentenceIndex({"raw": ["a", "b"], "word": ["a", "b"]},
                         [(0, 1, "x"), (1, 0, "x")], [0])


def spans_and_captures(matches):
    return [(m.start, m.end, tuple(c.captured.start for c in m.named_captures))
            for m in matches]


@pytest.mark.parametrize(
    "pattern,expected",
    [
        ("[word=a] (>x []){1,5}", [(0, 1, ())] * 2 + [(1, 2, ())] * 3),
        ("[word=a] (>x (?<y> [])){1,5}",
         [(0, 1, (1, 0)), (0, 1, (1, 0, 1, 0)), (1, 2, (1,)), (1, 2, (1, 0, 1)),
          (1, 2, (1, 0, 1, 0, 1))]),
    ],
)
def test_bounded_hop_group_on_cycle_runs_to_max(pattern, expected):
    """A bounded group whose max exceeds the sentence length keeps every
    match of every step on a cycle: no early stop, no dedup."""
    assert spans_and_captures(compiler.compile(pattern).matches(Ctx(cycle(), 0, None))) == expected


def test_unbounded_event_argument_on_cycle_keeps_each_trigger():
    """Two trigger matches with one span (the clauses of ``|``) each keep
    the arguments an unbounded hop group finds from them."""
    q = compiler.compile_event_query("trigger = [word=a] | a\nthing: ^T = (>x [])+")
    sketches = q.matches(Ctx(cycle(), 0, None))
    assert [sorted((s.name, a.start, a.end) for s, a in e.arg_sketches)
            for e in sketches] == [[("thing", 0, 1), ("thing", 1, 2)]] * 2
