"""The engine-wide corpus index behind ``OdinsonEngine.query``.

``query`` visits only the sentences the index cannot rule out and reads
terms through one engine-wide vocabulary. The property test pins it to
an oracle kept here: the plain per-sentence loop over the caller's
(vocabulary-free) sentences, compared match tree by match tree and page
by page. The guard tests pin the index to the inputs the benchmark
builds, so a silent fallback to visiting every sentence cannot hide, and
bound the per-query memo of a long-lived engine.
"""

from __future__ import annotations

import random
from functools import partial

import pyarrow as pa
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import odinson_ray.api as api
from odinson_ray.api import OdinsonEngine
from odinson_ray.core import matches as M
from odinson_ray.core.engine import Mention
from odinson_ray.core.matcher import Ctx
from odinson_ray.core.selector import select_matches
from odinson_ray.core.sentence import AnnotatedDocument, SentenceIndex

# ------------------------------------------------------------------ oracle


def oracle_query(engine, pattern, n=None, after=None):
    """Every sentence of the corpus, in order, through the per-sentence
    matcher (the loop ``query`` ran before the corpus index)."""
    q = engine.mk_query(pattern)
    cursor_sent = cursor_span = None
    if after is not None:
        if isinstance(after, Mention):
            cursor_sent = (after.doc_id, after.sent_idx)
            cursor_span = (after.start, after.end)
        else:
            cursor_sent = tuple(after)
    skipping = cursor_sent is not None
    out = []
    for doc in engine.docs:
        for sent_idx, sent in enumerate(doc.sentences):
            in_cursor_sent = skipping and (doc.doc_id, sent_idx) == cursor_sent
            if skipping and not in_cursor_sent:
                continue
            past_cursor = not in_cursor_sent or cursor_span is None
            if in_cursor_sent:
                skipping = False
                if cursor_span is None:
                    continue
            for m in select_matches(q.matches(Ctx(sent, sent_idx, None))):
                if not past_cursor:
                    if (m.start, m.end) == cursor_span:
                        past_cursor = True
                    continue
                out.append(Mention(m, None, sent_idx, "<query>", doc.doc_id))
                if n is not None and len(out) >= n:
                    return out
    return out


def tree(m):
    """A match as nested tuples: type, span, capture names and labels,
    OrMatch clause ids and greediness."""
    kind = type(m).__name__
    if isinstance(m, M.OrMatch):
        return (kind, m.clause_id, tree(m.sub_match))
    if isinstance(m, M.NamedMatch):
        return (kind, m.name, m.label, tree(m.sub_match))
    if isinstance(m, M.OptionalMatch):
        return (kind, m.is_greedy, tree(m.sub_match))
    if isinstance(m, (M.ConcatMatch, M.RepetitionMatch)):
        return (kind, getattr(m, "is_greedy", None), tuple(tree(s) for s in m.sub_matches))
    if isinstance(m, M.GraphTraversalMatch):
        return (kind, tree(m.src_match), tree(m.dst_match))
    return (kind, m.start, m.end)


def rows(mentions):
    return [(m.doc_id, m.sent_idx, m.label, m.found_by, tree(m.match)) for m in mentions]


# ------------------------------------------------------------------ corpora

#: ASCII, NFKC variants (ligature, full width, combining accent) and
#: non-ASCII tokens, upper and lower case (the norm field folds them)
TOKENS = ["a", "the", "cat", "Cat", "ate", "fish", "\ufb01sh", "\u00e9", "e\u0301",
          "\uff43\uff41\uff54", "NN", "dog", "\u00fcber"]
TAGS = ["DT", "NN", "VB", "JJ"]
LABELS = ["nsubj", "dobj", "conj", "amod"]


@st.composite
def sentences(draw):
    n = draw(st.integers(0, 6))

    def layer(pool):
        # same length as raw, ragged, or missing
        shape = draw(st.sampled_from(["same", "same", "same", "ragged", "missing"]))
        if shape == "missing":
            return None
        k = n if shape == "same" else draw(st.integers(0, 7).filter(lambda k: k != n))
        return draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k))

    fields = {"raw": draw(st.lists(st.sampled_from(TOKENS), min_size=n, max_size=n))}
    if draw(st.integers(0, 9)) == 0:
        del fields["raw"]  # no display layer: never indexed
    for name, pool in (("word", TOKENS), ("lemma", TOKENS), ("tag", TAGS)):
        toks = layer(pool)
        if toks is not None:
            fields[name] = toks
    if not fields:
        fields["raw"] = []
    length = len(fields.get("raw") or next(iter(fields.values())))
    edges = []
    if length:
        edges = draw(st.lists(st.tuples(st.integers(0, length - 1), st.integers(0, length - 1),
                                        st.sampled_from(LABELS)), max_size=8))
    return SentenceIndex(fields, edges, [0] if length else [])


@st.composite
def corpora(draw):
    n_docs = draw(st.integers(1, 4))
    return [AnnotatedDocument(f"d{i}", draw(st.lists(sentences(), min_size=1, max_size=3)))
            for i in range(n_docs)]


# ------------------------------------------------------------------ patterns

FIELDS = ["word", "raw", "lemma", "tag", "norm"]
REGEXES = ["c.*", "[a-z]+", ".*\u00e9.*", "N.*", "f.*h"]


def _term(field):
    pool = TAGS if field == "tag" else TOKENS[:6] + ["\u00e9", "fi"]
    return st.sampled_from(pool).map(lambda t: f'{field}="{t}"')


constraint_leaf = st.one_of(
    st.sampled_from(FIELDS).flatmap(_term),
    st.tuples(st.sampled_from(FIELDS), st.sampled_from(REGEXES)).map(lambda p: f"{p[0]}=/{p[1]}/"),
    st.sampled_from(["word=cat~", "lemma=fish~", "norm=dog~"]),
    st.sampled_from(["incoming=nsubj", "outgoing=dobj", "incoming=/c.*/"]),
)
constraint = st.recursive(
    constraint_leaf,
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda p: f"({p[0]} & {p[1]})"),
        st.tuples(inner, inner).map(lambda p: f"({p[0]} | {p[1]})"),
        inner.map(lambda c: f"!({c})"),
    ),
    max_leaves=4,
)
token = st.one_of(
    constraint.map(lambda c: f"[{c}]"),
    st.just("[]"),
    st.sampled_from(["cat", "fish", "the"]),  # the default norm field
)
QUANTIFIERS = ["", "", "?", "*", "+", "{1,2}", "??", "*?", "+?", "{1,2}?"]
HOPS = [">nsubj", "<dobj", ">>", "<<", ">conj{1,2}", ">/d.*/", ">nsubj <dobj",
        "(>nsubj | <amod)", ">amod?"]


@st.composite
def patterns(draw):
    def unit():
        kind = draw(st.sampled_from(["tok", "tok", "tok", "ahead", "behind", "nahead",
                                     "nbehind", "named"]))
        t = draw(token) + draw(st.sampled_from(QUANTIFIERS))
        if kind == "ahead":
            return f"(?= {draw(token)})"
        if kind == "behind":
            return f"(?<= {draw(token)})"
        if kind == "nahead":
            return f"(?! {draw(token)})"
        if kind == "nbehind":
            return f"(?<! {draw(token)})"
        if kind == "named":
            return f"(?<x> {t})"
        return t

    seq = " ".join(unit() for _ in range(draw(st.integers(1, 3))))
    shape = draw(st.sampled_from(["seq", "seq", "or", "hop", "hop"]))
    if shape == "or":
        return f"{seq} | {' '.join(unit() for _ in range(draw(st.integers(1, 2))))}"
    if shape == "hop":
        steps = []
        for _ in range(draw(st.integers(1, 2))):
            dst = draw(token)
            if draw(st.booleans()):
                dst = f"(?<y> {dst})"
            step = f"{draw(st.sampled_from(HOPS))} {dst}"
            if draw(st.booleans()):  # a quantified traversal group
                step = f"({step}){draw(st.sampled_from(['?', '*', '+', '{1,2}', '{0,}']))}"
            steps.append(step)
        return f"{draw(token)} {' '.join(steps)}"
    return seq


# ------------------------------------------------------------------ tests


def _walk(query, pattern, k, cursor_kind):
    """Concatenated pages of ``k`` mentions, resuming after each page's
    last mention (or its sentence)."""
    pages, after = [], None
    for _ in range(200):
        page = query(pattern, n=k, after=after)
        pages.append(rows(page))
        if not page:
            break
        last = page[-1]
        after = last if cursor_kind == "mention" else (last.doc_id, last.sent_idx)
    return pages


def _walked(full, k, cursor_kind):
    """The concatenated walk ``full`` allows: all of it under a mention
    cursor; under a sentence cursor each page resumes at the sentence
    after its last mention's, dropping the rest of that sentence."""
    out, i = [], 0
    while i < len(full):
        page = full[i:i + k]
        out.extend(page)
        i += len(page)
        while cursor_kind == "sentence" and i < len(full) and full[i][:2] == page[-1][:2]:
            i += 1
    return out


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(docs=corpora(), pats=st.lists(patterns(), min_size=1, max_size=3),
       k=st.integers(1, 4), cursor_kind=st.sampled_from(["mention", "sentence"]))
def test_indexed_query_equals_per_sentence_oracle(docs, pats, k, cursor_kind):
    engine = OdinsonEngine(docs)
    # a second engine over the same SentenceIndex objects, in another order
    other = OdinsonEngine(docs[::-1])
    for pattern in pats:
        for e in (engine, other, engine):
            full = rows(e.query(pattern))
            assert full == rows(oracle_query(e, pattern)), pattern
            pages = _walk(e.query, pattern, k, cursor_kind)
            assert pages == _walk(partial(oracle_query, e), pattern, k, cursor_kind), pattern
            assert [r for page in pages for r in page] == _walked(full, k, cursor_kind), pattern
    # the caller's sentences carry no vocabulary: the engines own theirs
    assert all(s.vocab is None for d in docs for s in d.sentences)


def test_two_engines_share_sentences():
    e1 = OdinsonEngine.from_fixture("becky-gummy-bears")
    e2 = OdinsonEngine.from_fixture("alien-species")
    both = OdinsonEngine(e1.docs + e2.docs)
    for pattern in ("[lemma=eat]", "[tag=/N.*/ & !word=bears]", "[] >nsubj []", "[lemma=be]"):
        for e in (e1, e2, both, e1):
            assert rows(e.query(pattern)) == rows(oracle_query(e, pattern)), pattern


def test_query_n_zero_and_negative():
    engine = OdinsonEngine.from_text("d", "the cat sat on the mat")
    assert engine.query("the", n=0) == []
    assert len(engine.query("the", n=1)) == 1
    assert len(engine.query("the")) == 2
    with pytest.raises(ValueError):
        engine.query("the", n=-1)


def test_query_skips_sentences_over_the_token_cap():
    """A sentence longer than MAX_TOKENS_PER_SENTENCE is not searched,
    whether the corpus index holds its layers or not: query, after=
    pagination and extraction agree on the 100-token sentence alone."""
    long_clean = SentenceIndex({"raw": ["cat"] * 150})
    fits = SentenceIndex({"raw": ["cat"] * 100})
    long_ragged = SentenceIndex({"raw": ["cat"] * 150, "tag": ["NN"] * 3})
    engine = OdinsonEngine([AnnotatedDocument("d", [long_clean, fits, long_ragged])])
    want = [("d", 1, i) for i in range(100)]

    def spans(mentions):
        return [(m.doc_id, m.sent_idx, m.start) for m in mentions]

    assert spans(engine.query("cat")) == want
    pages, after = [], None
    while True:
        page = engine.query("cat", n=40, after=after)
        if not page:
            break
        pages.append(page)
        after = page[-1]
    assert [len(p) for p in pages] == [40, 40, 20]
    assert spans(m for p in pages for m in p) == want
    assert spans(engine.query("cat", after=("d", 0))) == want
    assert engine.query("cat", after=("d", 1)) == []
    rules = engine.compile_rule_string(
        "rules:\n  - {name: c, label: Cat, type: basic, pattern: cat}")
    assert sorted(spans(engine.extract_mentions(rules))) == want


def test_select_matches_plain_ngram_fast_path():
    """Plain disjoint n-grams come back unchanged; the same spans through
    the general path (a subclass the fast path does not take) agree."""

    class Slow(M.NGramMatch):
        __slots__ = ()

    for spans in ([(0, 1), (2, 4), (4, 4), (5, 6)], [(0, 2), (1, 3)], [(1, 1), (1, 2)],
                  [(0, 0), (0, 1), (3, 5)], [(1, 1), (1, 1)], []):
        fast = [M.NGramMatch(s, e) for s, e in spans]
        got = select_matches(fast)
        want = select_matches([Slow(s, e) for s, e in spans])
        assert [(m.start, m.end) for m in got] == [(m.start, m.end) for m in want]


def test_index_does_not_load_or_write_lazy_layers():
    """A vocabulary-backed input sentence (lazy derived layers) is read
    from its vocabulary without materializing the layers into it."""
    from odinson_ray.stages.annotate import annotate_texts_vectorized

    sents = annotate_texts_vectorized(["the fast spark scan", "a big join", ""])
    before = [(s.vocab, s.slot, sorted(s.fields)) for s in sents]
    engine = OdinsonEngine([AnnotatedDocument("d", sents)])
    assert not engine.index.unindexed.any()
    assert [(s.vocab, s.slot, sorted(s.fields)) for s in sents] == before
    for pattern in ("[tag=NN & !word=spark]", "[lemma=/s.*/]", "fast spark"):
        assert rows(engine.query(pattern)) == rows(oracle_query(engine, pattern))


def test_from_layers_interns_each_string_once():
    """One id per distinct string across every layer: uniques that repeat
    a string (two control tokens sanitized alike) share it, a word layer
    equal to raw shares raw's id array, and empty layers build."""
    import numpy as np

    from odinson_ray.common.normalize import sanitize_token
    from odinson_ray.core.sentence import BatchVocab

    raw_u = [sanitize_token(t) for t in ("\x01", "cat", "\x02")]
    codes = np.array([0, 1, 2, 1], np.int32)
    v = BatchVocab.from_layers({"raw": (codes, raw_u), "word": (codes, ["dog", "cat", "dog"]),
                                "tag": (np.zeros(4, np.int32), ["NN"])},
                               np.array([0, 2, 4]))
    assert raw_u[0] == raw_u[2] and sorted(v.terms) == sorted({*raw_u, "dog", "NN"})
    assert v.fields["raw"].tolist() == [0, 1, 0, 1]
    assert [v.tokens("word", k) for k in (0, 1)] == [["dog", "cat"], ["dog", "cat"]]
    assert v.tokens("raw", 1) == [raw_u[0], "cat"]
    same = BatchVocab.from_layers({"raw": (codes, raw_u), "word": (codes.copy(), list(raw_u))},
                                  np.array([0, 4]))
    assert same.fields["word"] is same.fields["raw"]
    empty = BatchVocab.from_layers({"raw": (np.zeros(0, np.int32), []),
                                    "tag": (np.zeros(0, np.int32), [])}, np.array([0, 0]))
    assert len(empty.terms) == 0 and empty.tokens("tag", 0) == []
    assert empty.term_mask("raw", "cat") is None


def test_unencodable_token_leaves_sentence_unindexed():
    """A lone surrogate cannot enter the vocabulary's Arrow encode, and
    bytes, None or a number make no Arrow string layer: the sentences of
    its layer set stay outside the index and are still matched."""
    docs = [AnnotatedDocument("d", [SentenceIndex({"raw": ["the", "cat\ud800"]}),
                                    SentenceIndex({"raw": ["the", "cat"]})])]
    engine = OdinsonEngine(docs)
    assert engine.index.unindexed.tolist() == [True, True]
    for pattern in ("the", "[raw=/cat.*/]"):
        assert rows(engine.query(pattern)) == rows(oracle_query(engine, pattern))
    for odd in (b"cat", None, 7):
        sents = [SentenceIndex({"raw": ["the", "cat"], "tag": ["DT", tag]},
                               take_ownership=True) for tag in (odd, "NN")]
        engine = OdinsonEngine([AnnotatedDocument("d", sents)])
        assert engine.index.unindexed.tolist() == [True, True], odd
        for pattern in ("the", "[raw=/cat.*/]"):
            assert rows(engine.query(pattern)) == rows(oracle_query(engine, pattern))


# ------------------------------------------------------------------ guards


def _benchmark_style_engine():
    """Documents decoded one struct at a time from the pre-annotated
    ``sentences`` column, as the query benchmark builds its engine."""
    from odinson_ray.sources.interleaved import build_interleaved
    from odinson_ray.stages.annotate import annotate_batch
    from odinson_ray.stages.match import sentence_index_from_struct

    rng = random.Random(7)
    words = ["vector", "column", "customer", "table", "scan", "spark", "value", "data",
             "join", "big", "key", "slow", "stream", "row", "line", "group", "filter",
             "window", "merge", "a", "batch", "small", "agg", "hash", "query", "the"]
    texts = [" ".join(rng.choice(words) for _ in range(rng.randint(10, 100)))
             for _ in range(40)]
    table = pa.table({"doc_id": pa.array(range(40), pa.int64()), "text": texts,
                      "lang": ["en"] * 40, "source": ["s"] * 40})
    prepared = annotate_batch(build_interleaved(table))
    docs = [AnnotatedDocument(d, [sentence_index_from_struct(s) for s in ss], {})
            for d, ss in zip(prepared["doc_id"].to_pylist(),
                             prepared["sentences"].to_pylist())]
    return OdinsonEngine.in_memory(docs)


def test_benchmark_engine_is_index_backed(monkeypatch):
    engine = _benchmark_style_engine()
    n_sents = sum(len(d.sentences) for d in engine.docs)
    assert n_sents > 40
    assert not engine.index.unindexed.any()
    assert all(s.vocab is not None for s in engine.index.sentences)
    visited = []

    class CountingCtx(Ctx):
        def __init__(self, sent, sent_idx, *args):
            visited.append(sent_idx)
            super().__init__(sent, sent_idx, *args)

    first, second = engine.docs[0].sentences[0].tokens()[:2]
    bigram = f"[word={first}] [word={second}]"
    monkeypatch.setattr(api, "Ctx", CountingCtx)
    got = engine.query(bigram)
    assert got
    assert len(visited) < n_sents
    monkeypatch.undo()
    assert rows(got) == rows(oracle_query(engine, bigram))


def test_regex_queries_do_not_grow_engine_memos():
    engine = _benchmark_style_engine()
    engine.query("[word=/s.*/]")

    def sizes():
        return [(len(v._query_memo), len(v._postings)) for v, _ in engine.index.groups]

    before = sizes()
    for i in range(300):
        engine.query(f"[word=/{chr(97 + i % 26)}.{{0,{i // 26}}}/]")
    assert sizes() == before


def test_term_masks_computed_once_per_query(monkeypatch):
    """``sentence_mask`` and the token-sequence scan read one memoized
    flat mask per term leaf: each term's mask is built once per query
    and vocabulary."""
    from odinson_ray.core.matcher import TokenSequenceQuery
    from odinson_ray.core.sentence import BatchVocab

    engine = _benchmark_style_engine()
    pattern = "[word=the] [word=big]+"
    assert isinstance(engine.mk_query(pattern), TokenSequenceQuery)
    calls = []
    term_mask = BatchVocab.term_mask

    def counting(self, field, term):
        calls.append((id(self), field, term))
        return term_mask(self, field, term)

    monkeypatch.setattr(BatchVocab, "term_mask", counting)
    got = engine.query(pattern)
    monkeypatch.undo()
    assert got
    assert calls and len(calls) == len(set(calls))
    assert rows(got) == rows(oracle_query(engine, pattern))
