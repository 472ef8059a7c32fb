"""Compiled query tree + per-sentence execution.

This is the Ray-side analogue of the reference's OdinsonQuery tree and Spans
automata, executed per sentence inside map_batches. Each compiled node
implements ``matches(ctx) -> list[Match]`` returning ALL candidate matches
sorted by (start, end) — match disambiguation happens afterwards in
selector.select_matches, exactly like OdinsonScorer + MatchSelector.

Two shapes are compiled, each behind a per-rule check, with the
interpreter as the fallback that is always correct:

- :class:`TokenSequenceQuery` (:func:`token_sequence`): a concatenation
  of single-token clauses, which returns only the matches the selector
  would keep when the caller selects (``Ctx.select``);
- the single-hop event kernel inside :class:`EventQueryNode`
  (:func:`single_hop_event`): an atom trigger whose arguments are each
  one ``>label``/``<label``/``>/regex/``/``>>``/``<<`` hop to ``[]`` or
  an atom, any quantifier, which returns the packaged events. Multi-hop
  or quantified hops, label unions, ``@Label`` (typed, promoted)
  destinations, ``|`` triggers and edge-field atoms stay interpreted.

Compiler ported from reference: compiler/QueryCompiler.scala (including the
wildcard-merging / distinct-clauses simplifications, which matter for
MatchSelector tie-breaking). Span semantics ported from the individual
lucene/search/*Query.scala automata (cited per node).
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..common.normalize import normalize_unicode, normalize_unicode_aggressively
from ..lang import ast
from ..lang.lucene_regex import compile_lucene
from ..lang.parser import INT_MAX, QueryParser
from . import traversal as trav
from .matches import (
    ConcatMatch,
    EventSketch,
    GraphTraversalMatch,
    Match,
    NamedMatch,
    NGramMatch,
    OptionalMatch,
    OrMatch,
    RepetitionMatch,
    StateMatch,
    argument_metadata,
    sort_key,
)
from .selector import package_event
from .sentence import ALL_TOKEN_FIELDS, DEFAULT_TOKEN_FIELD, EDGE_FIELDS, BatchVocab, SentenceIndex


class Ctx:
    """Execution context for one sentence: the sentence index plus a view of
    the per-document mention state (for @Label StateQuery reads).
    ``select`` says that the caller keeps only what select_matches selects,
    so a node may return just those matches (:class:`TokenSequenceQuery`)."""

    __slots__ = ("sent", "sent_idx", "state", "select")

    def __init__(self, sent: SentenceIndex, sent_idx: int, state=None, select: bool = True):
        self.sent = sent
        self.sent_idx = sent_idx
        self.state = state
        self.select = select


# ===================================================================== queries

class Query:
    def matches(self, ctx: Ctx) -> List[Match]:
        raise NotImplementedError


class FailQuery(Query):
    def matches(self, ctx):
        return []

    def token_mask(self, v: BatchVocab) -> np.ndarray:
        return _no_positions(v)

    def token_positions(self, sent: SentenceIndex) -> set:
        return set()


class TermQuery(Query):
    """Positional term lookup (SpanTermQuery analogue)."""

    def __init__(self, field: str, term: str):
        self.field = field
        self.term = term

    def matches(self, ctx):
        return [NGramMatch(i, i + 1) for i in ctx.sent.positions_for_term(self.field, self.term)]

    def token_mask(self, v: BatchVocab) -> np.ndarray:
        return _memo_mask(self, v, lambda: v.term_mask(self.field, self.term))

    def token_positions(self, sent: SentenceIndex) -> set:
        return set(sent.positions_for_term(self.field, self.term))


class PredicateTermQuery(Query):
    """Positions whose normalized term satisfies ``self._pred``; the
    predicate runs once per vocabulary over unique terms (memo keyed by
    the compiled query object), not once per sentence."""

    field: str

    def matches(self, ctx):
        positions = ctx.sent.positions_matching(self.field, self, self._pred)
        return [NGramMatch(i, i + 1) for i in positions]

    def token_mask(self, v: BatchVocab) -> np.ndarray:
        return _memo_mask(self, v, lambda: v.pred_mask(self.field, self, self._pred))

    def token_positions(self, sent: SentenceIndex) -> set:
        return set(sent.positions_matching(self.field, self, self._pred))


class RegexTermQuery(PredicateTermQuery):
    """Whole-token regex over the term dictionary (RegexpQuery analogue;
    Lucene regexes are implicitly anchored -> re.fullmatch). The pattern
    dialect is Lucene RegExp, translated (or rejected, never silently
    diverging) by lang/lucene_regex — so `\\d` is the literal d, and
    `~ & @ # <n-m>` carry their Lucene automaton meanings
    (QueryCompiler.scala:429-432)."""

    def __init__(self, field: str, pattern: str):
        self.field = field
        self.regex = compile_lucene(pattern)
        self._pred = lambda term, _m=self.regex.fullmatch: _m(term) is not None


def _edit_distance_le2(a: str, b: str) -> bool:
    """Damerau-Levenshtein distance <= 2 (Lucene FuzzyQuery default)."""
    if abs(len(a) - len(b)) > 2:
        return False
    prev2: Optional[List[int]] = None
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i] + [0] * len(b)
        for j, cb in enumerate(b, 1):
            cost = 0 if ca == cb else 1
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost)
            if i > 1 and j > 1 and ca == b[j - 2] and a[i - 2] == cb:
                cur[j] = min(cur[j], prev2[j - 2] + cost)
        if min(cur) > 2:
            return False
        prev2, prev = prev, cur
    return prev[-1] <= 2


class FuzzyTermQuery(PredicateTermQuery):
    def __init__(self, field: str, term: str):
        self.field = field
        self.term = term
        self._pred = lambda t, _q=term: _edit_distance_le2(t, _q)


class AllNGramsQuery(Query):
    """All n-grams of length n; n=0 -> zero-width at every position
    (reference: AllNGramsQuery.scala)."""

    def __init__(self, n: int):
        self.n = n

    def matches(self, ctx):
        length = ctx.sent.length
        return [NGramMatch(i, i + self.n) for i in range(length - self.n + 1)]

    # as a token-set leaf, n is 1 (the ``[]`` wildcard)
    def token_mask(self, v: BatchVocab) -> np.ndarray:
        return np.ones(int(v.offsets[-1]), bool)

    def token_positions(self, sent: SentenceIndex) -> set:
        return set(range(sent.length))


class DocStartQuery(Query):
    def matches(self, ctx):
        return [NGramMatch(0, 0)]


class DocEndQuery(Query):
    def matches(self, ctx):
        n = ctx.sent.length
        return [NGramMatch(n, n)]


class OrQuery(Query):
    """Ordered alternation; wraps each clause match in OrMatch(clause_id)
    (reference: OdinOrQuery.scala:91-273)."""

    def __init__(self, clauses: List[Query]):
        self.clauses = clauses

    def matches(self, ctx):
        out = []
        for i, clause in enumerate(self.clauses):
            out.extend(OrMatch(m, i) for m in clause.matches(ctx))
        out.sort(key=sort_key)
        return out


def _no_positions(v: BatchVocab) -> np.ndarray:
    return np.zeros(int(v.offsets[-1]), bool)


def _memo_mask(q: Query, v: BatchVocab, compute) -> np.ndarray:
    """A leaf's flat token mask, computed once per compiled query and
    vocabulary (``sentence_mask`` and the token-sequence scan both ask)."""
    memo = v.query_memo(q)
    mask = memo.get("mask")
    if mask is None:
        m = compute()
        mask = memo["mask"] = m if m is not None else _no_positions(v)
    return mask


class TokenAnd:
    """Token-set conjunction: positions every clause holds
    (reference: OdinTermAndQuery.scala)."""

    def __init__(self, clauses: list):
        self.clauses = clauses

    def token_mask(self, v: BatchVocab) -> np.ndarray:
        mask = self.clauses[0].token_mask(v)
        for c in self.clauses[1:]:
            mask = mask & c.token_mask(v)
        return mask

    def token_positions(self, sent: SentenceIndex) -> set:
        return set.intersection(*(c.token_positions(sent) for c in self.clauses))


class TokenOr:
    """Token-set disjunction under ``&`` or ``!``, where OrMatch clause ids
    are never read."""

    def __init__(self, clauses: list):
        self.clauses = clauses

    def token_mask(self, v: BatchVocab) -> np.ndarray:
        mask = self.clauses[0].token_mask(v)
        for c in self.clauses[1:]:
            mask = mask | c.token_mask(v)
        return mask

    def token_positions(self, sent: SentenceIndex) -> set:
        return set().union(*(c.token_positions(sent) for c in self.clauses))


class TokenNot:
    """Token-set complement within the sentence (the reference's
    OdinNotQuery over all unigrams)."""

    def __init__(self, clause):
        self.clause = clause

    def token_mask(self, v: BatchVocab) -> np.ndarray:
        return ~self.clause.token_mask(v)

    def token_positions(self, sent: SentenceIndex) -> set:
        return set(range(sent.length)) - self.clause.token_positions(sent)


def _token_expr(q):
    """A compiled single-token constraint as a token-set expression."""
    if isinstance(q, TokenSetQuery):
        return q.expr
    if isinstance(q, OrQuery):
        return TokenOr([_token_expr(c) for c in q.clauses])
    return q  # a leaf: term, regex, fuzzy, `[]` or FailQuery


def _token_leaves(expr):
    if isinstance(expr, (TokenAnd, TokenOr)):
        for c in expr.clauses:
            yield from _token_leaves(c)
    elif isinstance(expr, TokenNot):
        yield from _token_leaves(expr.clause)
    else:
        yield expr


class TokenSetQuery(Query):
    """Single-token constraint algebra as one node: terms, regexes, fuzzy
    terms and ``[]`` combined by ``&``, ``!`` and (under those) ``|``.
    On a vocabulary-backed sentence the whole expression is one flat bool
    mask per query and vocabulary, split per sentence once; elsewhere the
    same algebra runs over the sentence's positions. Leaves over the edge
    fields (``incoming``/``outgoing``), which no vocabulary holds, always
    take the per-sentence path."""

    def __init__(self, expr):
        self.expr = expr
        self.on_vocab = all(getattr(leaf, "field", None) not in EDGE_FIELDS
                            for leaf in _token_leaves(expr))

    def token_mask(self, v: BatchVocab) -> np.ndarray:
        memo = v.query_memo(self)
        mask = memo.get("mask")
        if mask is None:
            mask = memo["mask"] = self.expr.token_mask(v)
        return mask

    def matches(self, ctx):
        sent = ctx.sent
        v = sent.vocab
        if v is not None and self.on_vocab:
            memo = v.query_memo(self)
            per_sent = memo.get("split")
            if per_sent is None:
                per_sent = memo["split"] = v.split(self.token_mask(v))
            positions = per_sent.get(sent.slot, ())
        else:
            positions = sorted(self.expr.token_positions(sent))
        return [NGramMatch(i, i + 1) for i in positions]


class NotQuery(Query):
    """include spans minus exclude spans by span equality
    (reference: OdinNotQuery.scala); compiled for negative lookarounds."""

    def __init__(self, include: Query, exclude: Query):
        self.include = include
        self.exclude = exclude

    def matches(self, ctx):
        excluded = {(m.start, m.end) for m in self.exclude.matches(ctx)}
        return [m for m in self.include.matches(ctx) if (m.start, m.end) not in excluded]


class ConcatQuery(Query):
    """Concatenation via end==start join over all sub-match combinations
    (reference: OdinConcatQuery.scala:134-229)."""

    def __init__(self, clauses: List[Query]):
        self.clauses = clauses

    def matches(self, ctx):
        # partial chains: list of (subs, end)
        first = self.clauses[0].matches(ctx)
        chains = [([m], m.end) for m in first]
        for clause in self.clauses[1:]:
            if not chains:
                return []
            nxt = clause.matches(ctx)
            by_start: Dict[int, List[Match]] = {}
            for m in nxt:
                by_start.setdefault(m.start, []).append(m)
            new_chains = []
            for subs, end in chains:
                for m in by_start.get(end, ()):
                    new_chains.append((subs + [m], m.end))
            chains = new_chains
        out = [ConcatMatch(subs) for subs, _ in chains]
        out.sort(key=sort_key)
        return out


class RepetitionQuery(Query):
    """Stretch enumeration over the sorted sub-match array; chains must be
    contiguous in the array, exactly as the reference
    (OdinRepetitionQuery.scala getNextStretch, :139-162)."""

    def __init__(self, query: Query, mn: int, mx: int, is_greedy: bool):
        assert mn > 0 and mn <= mx
        self.query = query
        self.min = mn
        self.max = mx
        self.is_greedy = is_greedy

    def matches(self, ctx):
        ms = self.query.matches(ctx)
        out = []
        n = len(ms)
        start_index = 0
        num_reps = 0
        while start_index < n:
            if num_reps == 0:
                num_reps = 1
            elif start_index + num_reps < n and ms[start_index + num_reps - 1].end == ms[start_index + num_reps].start:
                num_reps += 1
            else:
                start_index += 1
                num_reps = 0
                continue
            if num_reps > self.max or start_index + num_reps > n:
                start_index += 1
                num_reps = 0
            elif num_reps >= self.min:
                out.append(RepetitionMatch(ms[start_index : start_index + num_reps], self.is_greedy))
        out.sort(key=sort_key)
        return out


class OptionalQuery(Query):
    """Sub-matches unioned with zero-width matches at every position, each
    wrapped in OptionalMatch (reference: OdinsonOptionalQuery.scala)."""

    def __init__(self, query: Query, is_greedy: bool):
        self.query = query
        self.is_greedy = is_greedy

    def matches(self, ctx):
        out = [OptionalMatch(m, self.is_greedy) for m in self.query.matches(ctx)]
        out.extend(
            OptionalMatch(NGramMatch(i, i), self.is_greedy) for i in range(ctx.sent.length + 1)
        )
        out.sort(key=sort_key)
        return out


class NamedCaptureQuery(Query):
    def __init__(self, query: Query, name: str, label: Optional[str]):
        self.query = query
        self.name = name
        self.label = label

    def matches(self, ctx):
        return [NamedMatch(m, self.name, self.label) for m in self.query.matches(ctx)]


class LookaheadQuery(Query):
    """Zero-width at each distinct sub-match start (reference: LookaheadQuery.scala)."""

    def __init__(self, query: Query):
        self.query = query

    def matches(self, ctx):
        starts = sorted({m.start for m in self.query.matches(ctx)})
        return [NGramMatch(s, s) for s in starts]


class LookbehindQuery(Query):
    """Zero-width at each distinct sub-match end (reference: LookbehindQuery.scala)."""

    def __init__(self, query: Query):
        self.query = query

    def matches(self, ctx):
        ends = sorted({m.end for m in self.query.matches(ctx)})
        return [NGramMatch(e, e) for e in ends]


class SpanContainingQuery(Query):
    """Keep big matches that contain at least one little match
    (reference: spans/OdinsonSpanContainingQuery.scala:80-136)."""

    def __init__(self, big: Query, little: Query):
        self.big = big
        self.little = little

    def matches(self, ctx):
        littles = [(m.start, m.end) for m in self.little.matches(ctx)]
        out = []
        for m in self.big.matches(ctx):
            if any(ls >= m.start and le <= m.end for ls, le in littles):
                out.append(m)
        return out


class ExpandQuery(Query):
    """Flatten graph-traversal matches: per src, union hull of src+dsts
    (reference: ExpandQuery.scala mkMatches, :125-145)."""

    def __init__(self, query: Query):
        self.query = query

    def matches(self, ctx):
        all_matches = self.query.matches(ctx)
        graph_matches = [m for m in all_matches if isinstance(m, GraphTraversalMatch)]
        other = [m for m in all_matches if not isinstance(m, GraphTraversalMatch)]
        if not graph_matches:
            return other
        groups: Dict[int, Tuple[Match, List[Match]]] = {}
        for m in graph_matches:
            key = id(m.src_match)
            if key not in groups:
                groups[key] = (m.src_match, [])
            groups[key][1].append(m)
        expanded = []
        for src, ms in groups.values():
            group = [src] + ms
            start = min(g.start for g in group)
            end = max(g.end for g in group)
            expanded.append(NGramMatch(start, end))
        out = expanded + other
        out.sort(key=sort_key)
        return out


class StateQueryNode(Query):
    """@Label: read previously-extracted mentions from the per-document state
    (reference: StateQuery.scala:58-141)."""

    def __init__(self, label: str):
        self.label = label

    def matches(self, ctx):
        if ctx.state is None:
            return []
        mentions = ctx.state.get_mentions(ctx.sent_idx, self.label)
        return [
            StateMatch(m.match.start, m.match.end, list(m.match.named_captures))
            for m in mentions
        ]


# ------------------------------------------------------------ full traversals

def _label_positions(sent, field: str, matcher) -> set:
    """Token positions having an edge in ``field`` whose label satisfies
    ``matcher`` (uses the derived incoming/outgoing positional postings)."""
    postings = sent.postings(field)
    if isinstance(matcher, trav.ExactLabelMatcher):
        return set(postings.get(matcher.string, ()))
    out: set = set()
    for label, positions in postings.items():
        if matcher.matches(label):
            out.update(positions)
    return out


def _start_tokens(traversal, sent):
    """Endpoint pre-filter (reference: QueryCompiler.scala:544-615 wraps
    traversal src/dst queries with incoming/outgoing term constraints).
    Returns the set of token positions that can possibly BEGIN this
    traversal, or None when the traversal places no constraint (zero-hop
    constructs). Pure pruning: a src match with no capable token can never
    yield a traversal result."""
    if isinstance(traversal, trav.Outgoing):
        return _label_positions(sent, "outgoing", traversal.matcher)
    if isinstance(traversal, trav.Incoming):
        return _label_positions(sent, "incoming", traversal.matcher)
    if isinstance(traversal, trav.OutgoingWildcard):
        return {i for i in range(sent.length) if sent.graph.outgoing[i]}
    if isinstance(traversal, trav.IncomingWildcard):
        return {i for i in range(sent.length) if sent.graph.incoming[i]}
    if isinstance(traversal, trav.FailTraversal):
        return set()
    if isinstance(traversal, trav.Concatenation):
        for t in traversal.traversals:
            s = _start_tokens(t, sent)
            if s is not None:
                return s
            if not isinstance(t, trav.NoTraversal):
                return None  # position may move (Optional/Kleene): stop
        return None
    if isinstance(traversal, trav.Union):
        subs = [_start_tokens(t, sent) for t in traversal.traversals]
        if not subs or any(s is None for s in subs):
            return None
        return set().union(*subs)
    return None  # NoTraversal / Optional / KleeneStar allow zero hops


class SingleStepFullTraversal:
    """(reference: SingleStepFullTraversalQuery.scala:76-161)"""

    def __init__(self, traversal: trav.GraphTraversal, surface: Query):
        self.traversal = traversal
        self.surface = surface

    def match_full_traversal(self, ctx, src_matches: List[Match]) -> List[Match]:
        # endpoint pre-filter: drop src matches whose tokens cannot start
        # this traversal BEFORE evaluating the dst surface query (the
        # reference's main traversal pruning; identical match set).
        # Memoized per sentence, keyed by the step OBJECT (a strong ref:
        # id()-keying returned stale sets when CPython reused a freed
        # query object's address — observed wrong results on a persistent
        # engine issuing several ad-hoc traversal queries).
        memo = ctx.sent._trav_starts
        if self in memo:
            starts = memo[self]
        else:
            starts = memo[self] = _start_tokens(self.traversal, ctx.sent)
        if starts is not None:
            src_matches = [
                m for m in src_matches
                if (m.start in starts if m.end == m.start + 1
                    else any(t in starts for t in range(m.start, m.end)))
            ]
            if not src_matches:
                return []
        graph = ctx.sent.graph
        surface = self.surface
        if type(surface) is AllNGramsQuery and surface.n == 1:
            # wildcard dst (`>edge []`, the common event-argument shape):
            # every landing token IS its own unigram match — skip building
            # the n dst matches and the token->match inverted index. The
            # shared per-token NGramMatch preserves the general path's
            # object identity (two srcs landing on one token share the dm).
            length = ctx.sent.length
            cache: Dict[int, NGramMatch] = {}
            out = []
            for src in src_matches:
                dst_tokens = self.traversal.traverse_from(graph, range(src.start, src.end))
                for t in dst_tokens:
                    if 0 <= t < length:
                        dm = cache.get(t)
                        if dm is None:
                            dm = cache[t] = NGramMatch(t, t + 1)
                        out.append(GraphTraversalMatch(src, dm))
            return out
        dst_matches = surface.matches(ctx)
        if not dst_matches:
            return []
        # inverted index: token -> matches containing it (sparse: only
        # tokens covered by some dst match get an entry)
        inv: Dict[int, List[Match]] = {}
        length = ctx.sent.length
        for m in dst_matches:
            for j in range(m.start, min(m.end, length)):
                lst = inv.get(j)
                if lst is None:
                    inv[j] = [m]
                else:
                    lst.append(m)
        out = []
        for src in src_matches:
            dst_tokens = self.traversal.traverse_from(graph, range(src.start, src.end))
            seen = dict()
            for t in dst_tokens:
                ms = inv.get(t)
                if ms is not None:
                    for dm in ms:
                        seen[id(dm)] = dm
            out.extend(GraphTraversalMatch(src, dm) for dm in seen.values())
        return out


class ConcatFullTraversal:
    """(reference: ConcatFullTraversalQuery.scala:85-122)"""

    def __init__(self, steps):
        self.steps = list(steps)

    def match_full_traversal(self, ctx, src_matches):
        current = src_matches
        for step in self.steps:
            current = step.match_full_traversal(ctx, current)
            if not current:
                return []
        return current


class RepetitionFullTraversal:
    """(reference: RepetitionFullTraversalQuery.scala:94-124)"""

    def __init__(self, mn: int, mx: int, step):
        self.min = mn
        self.max = mx
        self.step = step

    def match_full_traversal(self, ctx, src_matches):
        current = list(src_matches)
        i = 0
        while i < self.min and current:
            i += 1
            current = self.step.match_full_traversal(ctx, current)
        if not current:
            return []
        results = dict((id(m), m) for m in current)
        # an unbounded group: on an acyclic graph the frontier empties
        # within n steps; past that only a cycle (or a step that can stay
        # put) keeps it alive. A frontier whose path keys repeat an
        # earlier one's repeats forever, so it adds nothing new: stop, one
        # match per key. A bounded group runs to its max, as it always did
        cycle_check_after = ctx.sent.length if self.max == INT_MAX else INT_MAX
        seen = set()
        while i < self.max and current:
            i += 1
            current = self.step.match_full_traversal(ctx, current)
            for m in current:
                results.setdefault(id(m), m)
            if i > cycle_check_after:
                frontier = frozenset(map(_path_key, current))
                if frontier in seen:
                    unique = {}
                    for m in results.values():
                        unique.setdefault(_path_key(m), m)
                    return list(unique.values())
                seen.add(frontier)
        return list(results.values())


class GraphTraversalQueryNode(Query):
    """src >edge dst (reference: GraphTraversalQuery.scala:107-168)."""

    def __init__(self, src: Query, full_traversal):
        self.src = src
        self.full_traversal = full_traversal

    def matches(self, ctx):
        src_matches = self.src.matches(ctx)
        if not src_matches:
            return []
        out = self.full_traversal.match_full_traversal(ctx, src_matches)
        out.sort(key=sort_key)
        return out


# ------------------------------------------------------------ events

class ArgSpec:
    """Compiled argument (reference ArgumentQuery/ArgumentSpans,
    OdinsonEventQuery.scala:17-92)."""

    __slots__ = ("name", "label", "min", "max", "promote", "full_traversal")

    def __init__(self, name, label, mn, mx, promote, full_traversal):
        self.name = name
        self.label = label
        self.min = mn
        self.max = mx
        self.promote = promote
        self.full_traversal = full_traversal


def _get_start_of_path(m: Match) -> Match:
    while isinstance(m, GraphTraversalMatch):
        m = m.src_match
    return m


def _path_key(m: Match) -> tuple:
    """What a traversal step's future depends on: the path's origin match
    (by identity: events group arguments by origin object), its current
    span and the set of its captures."""
    return (id(_get_start_of_path(m)), m.start, m.end,
            frozenset((c.name, c.label, c.captured.start, c.captured.end)
                      for c in m.named_captures))


class EventQueryNode(Query):
    """Trigger + required/optional argument traversals; emits EventSketch
    candidates (reference: OdinsonEventQuery.scala matchEvents, :289-345).

    When :func:`single_hop_event` accepts the rule (``hops`` is set), the
    single-hop kernel answers instead: it returns the packaged EventMatch
    list that select_matches makes of the sketches, the same with
    selection on or off (one single-token trigger per start)."""

    def __init__(self, trigger: Query, required: List[ArgSpec], optional: List[ArgSpec]):
        self.trigger = trigger
        self.required = required
        self.optional = optional
        self.hops = single_hop_event(trigger, required, optional)
        # (outgoing, label) of each required hop over one exact label
        self._exact_required = [(outgoing, exact) for _, outgoing, exact, _, _
                                in (self.hops or ())[:len(required)] if exact is not None]
        # the metadata of an event where every argument has landings
        self._all_metadata = argument_metadata(required + optional)

    def _match_argument(self, ctx, src_matches, arg: ArgSpec):
        """trigger -> [(spec, match)] grouped by path origin."""
        if not src_matches:
            return {}
        ms = arg.full_traversal.match_full_traversal(ctx, src_matches)
        grouped: Dict[int, Tuple[Match, List[Tuple[ArgSpec, Match]]]] = {}
        for m in ms:
            origin = _get_start_of_path(m)
            key = id(origin)
            if key not in grouped:
                grouped[key] = (origin, [])
            grouped[key][1].append((arg, m))
        return grouped

    def matches(self, ctx):
        if self.hops is not None:
            return self._single_hop_events(ctx)
        trigger_matches = self.trigger.matches(ctx)
        sketches: Dict[int, Tuple[Match, List[Tuple[ArgSpec, Match]]]] = {}
        if self.required:
            sketches = self._match_argument(ctx, trigger_matches, self.required[0])
            for arg in self.required[1:]:
                candidates = [t for t, _ in sketches.values()]
                arg_matches = self._match_argument(ctx, candidates, arg)
                new_sketches = {}
                for key, (t, ms) in arg_matches.items():
                    new_sketches[key] = (t, sketches[key][1] + ms)
                sketches = new_sketches
            if not sketches:
                return []
        if not sketches:
            for t in trigger_matches:
                sketches[id(t)] = (t, [])
        for arg in self.optional:
            candidates = [t for t, _ in sketches.values()]
            arg_matches = self._match_argument(ctx, candidates, arg)
            for key, (t, ms) in sketches.items():
                extra = arg_matches.get(key)
                if extra is not None:
                    sketches[key] = (t, ms + extra[1])
        out = [EventSketch(t, ms) for t, ms in sketches.values()]
        out.sort(key=sort_key)
        return out

    def _single_hop_events(self, ctx):
        """The kernel: per trigger token, each argument's landings are the
        distinct in-sentence destinations of its matching edges where the
        destination atom holds; a trigger missing a required argument
        yields nothing, the rest are packaged as select_matches would."""
        sent = ctx.sent
        starts = None  # tokens with an edge of every exact required label
        for outgoing, label in self._exact_required:
            positions = sent.postings("outgoing" if outgoing else "incoming").get(label)
            if not positions:
                return []
            starts = set(positions) if starts is None else starts.intersection(positions)
        triggers = self.trigger.matches(ctx)
        if starts is not None:
            triggers = [t for t in triggers if t.start in starts]
        graph, length = sent.graph, sent.length
        n_required = len(self.required)
        holds: Dict[int, set] = {}  # hop -> positions where its destination atom holds
        dsts: Dict[int, NGramMatch] = {}
        out = []
        for t in triggers:
            args = []
            for i, (spec, outgoing, exact, regex, dest) in enumerate(self.hops):
                landings = []
                for d, label in (graph.outgoing if outgoing else graph.incoming)[t.start]:
                    if exact is not None:
                        if label != exact:
                            continue
                    elif regex is not None and not regex.matches(label):
                        continue
                    if d in landings or not 0 <= d < length:
                        continue
                    if dest is not None:
                        ok = holds.get(i)
                        if ok is None:
                            ok = holds[i] = {m.start for m in dest.matches(ctx)}
                        if d not in ok:
                            continue
                    landings.append(d)
                if landings:
                    ms = []
                    for d in landings:
                        dm = dsts.get(d)
                        if dm is None:
                            dm = dsts[d] = NGramMatch(d, d + 1)
                        ms.append(GraphTraversalMatch(t, dm))
                    args.append((spec, ms))
                elif i < n_required:
                    break
            else:
                meta = (self._all_metadata if len(args) == len(self.hops)
                        else argument_metadata(spec for spec, _ in args))
                out.extend(package_event(t, args, meta))
        return out


def single_hop_event(trigger: Query, required: List[ArgSpec], optional: List[ArgSpec]):
    """The argument hops of an event the single-hop kernel answers, or
    None. The shape: an atom trigger (see :func:`_is_atom`) and arguments,
    any quantifier, that are one ``>label``, ``<label``, ``>/regex/``,
    ``>>`` or ``<<`` hop to ``[]`` or an atom. Multi-hop or quantified
    hops, label unions, ``@Label`` destinations and ``|`` triggers stay
    interpreted. Per argument: (spec, outgoing, exact label or None,
    regex label matcher or None, destination atom or None for ``[]``)."""
    if not _is_atom(trigger):
        return None
    hops = []
    for spec in required + optional:
        full = spec.full_traversal
        if type(full) is not SingleStepFullTraversal or not _is_atom(full.surface):
            return None
        g = full.traversal
        if type(g) in (trav.Outgoing, trav.Incoming):
            exact = g.matcher.string if type(g.matcher) is trav.ExactLabelMatcher else None
            regex = None if exact is not None else g.matcher
        elif type(g) in (trav.OutgoingWildcard, trav.IncomingWildcard):
            exact = regex = None
        else:
            return None
        outgoing = type(g) in (trav.Outgoing, trav.OutgoingWildcard)
        dest = None if type(full.surface) is AllNGramsQuery else full.surface
        hops.append((spec, outgoing, exact, regex, dest))
    return hops


# ============================================================ token sequences

def _is_atom(q: Query) -> bool:
    """A single-token constraint whose positions a vocabulary mask holds
    exactly: a term, regex or fuzzy leaf off the edge fields, an on-vocab
    token set, or ``[]``. (An OrQuery is not one: its OrMatch clause ids
    take part in selection.)"""
    if isinstance(q, (TermQuery, PredicateTermQuery)):
        return q.field not in EDGE_FIELDS
    if isinstance(q, TokenSetQuery):
        return q.on_vocab
    return type(q) is AllNGramsQuery and q.n == 1


def _clause_shape(q: Query):
    """(atom, min, max, greedy, sub-match builder) of a token-sequence
    clause, or None. The builder turns the clause's span into the match
    tree the interpreted clause emits for it."""
    if _is_atom(q):
        return q, 1, 1, True, NGramMatch
    if isinstance(q, RepetitionQuery) and _is_atom(q.query):
        g = q.is_greedy
        return q.query, q.min, q.max, g, lambda s, e: RepetitionMatch(
            [NGramMatch(k, k + 1) for k in range(s, e)], g)
    if isinstance(q, OptionalQuery):
        g, inner = q.is_greedy, q.query
        if _is_atom(inner):
            return inner, 0, 1, g, lambda s, e: OptionalMatch(NGramMatch(s, e), g)
        if (isinstance(inner, RepetitionQuery) and inner.min == 1
                and inner.is_greedy == g and _is_atom(inner.query)):
            return inner.query, 0, inner.max, g, lambda s, e: OptionalMatch(
                RepetitionMatch([NGramMatch(k, k + 1) for k in range(s, e)], g)
                if e > s else NGramMatch(s, s), g)
    return None


#: a token's class byte holds one bit per distinct atom
MAX_SEQUENCE_ATOMS = 8


def token_sequence(q: Query) -> Optional["TokenSequenceQuery"]:
    """``q`` as a TokenSequenceQuery when it is a concatenation (or a
    single clause) of atoms, each bare, optional, repeated or an optional
    repetition, that cannot match empty, is not a bare atom and has at
    most :data:`MAX_SEQUENCE_ATOMS` distinct atoms; None otherwise."""
    clauses = q.clauses if isinstance(q, ConcatQuery) else [q]
    if len(clauses) == 1 and _is_atom(q):
        return None  # already plain unigrams
    shapes = [_clause_shape(c) for c in clauses]
    if any(s is None for s in shapes) or all(s[1] == 0 for s in shapes):
        return None
    atoms: List[Query] = []
    bit_of: Dict[tuple, int] = {}
    parts = []
    for atom, mn, mx, greedy, build in shapes:
        bit = bit_of.setdefault(_query_signature(atom), len(atoms))
        if bit == len(atoms):
            atoms.append(atom)
        parts.append((bit, mn, mx, greedy, build))
    if len(atoms) > MAX_SEQUENCE_ATOMS:
        return None
    return TokenSequenceQuery(q, atoms, parts)


def _clause_regex(bit: int, mn: int, mx: int, greedy: bool) -> bytes:
    cls = b"[" + b"".join(b"\\x%02x" % c for c in range(256) if c >> bit & 1) + b"]"
    if (mn, mx) == (1, 1):
        quant = b""
    elif (mn, mx) == (0, 1):
        quant = b"?"
    elif mx == INT_MAX:
        quant = b"{%d,}" % mn
    else:
        quant = b"{%d,%d}" % (mn, mx)
    if quant and not greedy:
        quant += b"?"
    return b"(" + cls + quant + b")"


class TokenSequenceQuery(Query):
    """A compiled sequence of single-token clauses
    (``[tag=DT]? [tag=JJ]* [tag=NN]+``) run as one regex scan per sentence
    over per-vocabulary token class bytes: bit i of a token's byte says
    atom i holds there, and each clause is one capturing group.

    With selection on, the scan yields exactly the matches select_matches
    would keep of the interpreted candidates (OdinsonScorer.scala:56-76):
    the search finds the leftmost start; at a start, MatchSelector's
    clause-by-clause greedy-longer/lazy-shorter comparison is a
    lexicographic order on clause lengths, the order in which the
    backtracking regex tries them; and the next search begins at the
    match's end, as the scorer skips later starts that overlap it. Each
    kept match gets the derivation tree the interpreter builds for it.

    ``interp``, the interpreted tree, answers when selection is off, on a
    sentence without a vocabulary and for sentence masks."""

    def __init__(self, interp: Query, atoms: List[Query], parts):
        # parts: per clause, (atom bit, min, max, greedy, sub-match builder)
        self.interp = interp
        self.atoms = atoms
        self._required = {bit for bit, mn, _, _, _ in parts if mn >= 1}
        self._builders = [build for *_, build in parts]
        self._concat = isinstance(interp, ConcatQuery)
        self._rx = re.compile(b"".join(_clause_regex(*p[:4]) for p in parts))

    def _scan_state(self, v: BatchVocab):
        """(class bytes, sentence offsets, per-sentence "holds every
        required atom") of one vocabulary, built once."""
        masks = [a.token_mask(v) for a in self.atoms]
        codes = np.zeros(int(v.offsets[-1]), np.uint8)
        for bit, mask in enumerate(masks):
            codes[mask] |= np.uint8(1 << bit)
        ok = _all_of(v.sentences_with(masks[bit]) for bit in self._required)
        return codes.tobytes(), v.offsets.tolist(), ok.tolist()

    def matches(self, ctx):
        sent = ctx.sent
        v = sent.vocab
        if v is None or not ctx.select:
            return self.interp.matches(ctx)
        memo = v.query_memo(self)
        state = memo.get("scan")
        if state is None:
            state = memo["scan"] = self._scan_state(v)
        codes, offsets, ok = state
        slot = sent.slot
        if not ok[slot]:
            return []
        base = pos = offsets[slot]
        end = offsets[slot + 1]
        search, builders, concat = self._rx.search, self._builders, self._concat
        out = []
        while True:
            m = search(codes, pos, end)
            if m is None:
                return out
            subs = [build(s - base, e - base) for build, (s, e) in zip(builders, m.regs[1:])]
            out.append(ConcatMatch(subs) if concat else subs[0])
            pos = m.end()


# ===================================================================== pruning

def _all_of(masks) -> Optional[np.ndarray]:
    out = None
    for m in masks:
        if m is not None:
            out = m if out is None else out & m
    return out


def _traversal_mask(full, v: BatchVocab) -> Optional[np.ndarray]:
    """Sentences where a full traversal can land: every required hop
    needs a dst surface match."""
    if isinstance(full, SingleStepFullTraversal):
        return sentence_mask(full.surface, v)
    if isinstance(full, ConcatFullTraversal):
        return _all_of(_traversal_mask(step, v) for step in full.steps)
    if isinstance(full, RepetitionFullTraversal) and full.min >= 1:
        return _traversal_mask(full.step, v)
    return None


def sentence_mask(q: Query, v: BatchVocab) -> Optional[np.ndarray]:
    """Required-clause analysis: a bool mask over ``v``'s sentences that
    holds every sentence where ``q`` can match, or None for every sentence
    (the role of Lucene's postings conjunction in the reference's search,
    OdinsonScorer.scala:27-76). Conservative: concatenation, filters,
    traversals, events and repetitions (min >= 1) need all their required
    clauses, ``|`` any clause, and lookarounds, captures and expansion
    their inner pattern; everything else (optional, wildcards, negative
    lookarounds, ``@Label``, sentence start/end, the edge fields) may
    match in any sentence. Computed from flat hit arrays only."""
    if isinstance(q, (TermQuery, PredicateTermQuery)):
        return None if q.field in EDGE_FIELDS else v.sentences_with(q.token_mask(v))
    if isinstance(q, TokenSequenceQuery):
        return sentence_mask(q.interp, v)
    if isinstance(q, TokenSetQuery):
        return v.sentences_with(q.token_mask(v)) if q.on_vocab else None
    if isinstance(q, FailQuery):
        return np.zeros(v.num_sents, bool)
    if isinstance(q, OrQuery):
        masks = [sentence_mask(c, v) for c in q.clauses]
        if any(m is None for m in masks):
            return None
        out = masks[0]
        for m in masks[1:]:
            out = out | m
        return out
    if isinstance(q, ConcatQuery):
        return _all_of(sentence_mask(c, v) for c in q.clauses)
    if isinstance(q, (RepetitionQuery, NamedCaptureQuery, LookaheadQuery,
                      LookbehindQuery, ExpandQuery)):
        return sentence_mask(q.query, v)
    if isinstance(q, NotQuery):
        return sentence_mask(q.include, v)
    if isinstance(q, SpanContainingQuery):
        return _all_of((sentence_mask(q.big, v), sentence_mask(q.little, v)))
    if isinstance(q, GraphTraversalQueryNode):
        return _all_of((sentence_mask(q.src, v), _traversal_mask(q.full_traversal, v)))
    if isinstance(q, EventQueryNode):
        return _all_of([sentence_mask(q.trigger, v)]
                       + [_traversal_mask(a.full_traversal, v) for a in q.required])
    return None


# ===================================================================== compiler

class Compiler:
    """AST -> compiled Query tree (reference: QueryCompiler.scala)."""

    def __init__(
        self,
        all_token_fields=ALL_TOKEN_FIELDS,
        default_token_field=DEFAULT_TOKEN_FIELD,
        aggressive_normalization_to_default_field=True,
    ):
        self.all_token_fields = list(all_token_fields)
        self.default_token_field = default_token_field
        self.aggressive = aggressive_normalization_to_default_field
        self.parser = QueryParser(self.all_token_fields, self.default_token_field)

    # entry points (reference: QueryCompiler.scala:31-45)
    def compile(self, pattern: str) -> Query:
        tree = self.parser.parse_basic_query(pattern)
        q = self.mk_query(tree)
        if q is None:
            return FailQuery()
        return token_sequence(q) or q

    def compile_event_query(self, pattern: str) -> Query:
        tree = self.parser.parse_event_query(pattern)
        q = self.mk_query(tree)
        return q if q is not None else FailQuery()

    # ------------------------------------------------------------ helpers

    def _norm_term(self, field: str, value: str) -> str:
        if self.aggressive and field == self.default_token_field:
            return normalize_unicode_aggressively(value)
        return normalize_unicode(value)

    # ------------------------------------------------------------ patterns

    def mk_query(self, node) -> Optional[Query]:
        if isinstance(node, ast.FilterPattern):
            q = self.mk_query(node.main)
            c = self.mk_query(node.filter)
            if q is None or c is None:
                return None
            return SpanContainingQuery(q, c)

        if isinstance(node, ast.AssertionPattern):
            return self._mk_assertion(node.assertion)

        if isinstance(node, ast.ConstraintPattern):
            return self.mk_constraint_query(node.constraint)

        if isinstance(node, ast.EventPattern):
            return self._mk_event(node)

        if isinstance(node, ast.DisjunctivePattern):
            clauses = _distinct_queries([self.mk_query(p) for p in node.patterns])
            if not clauses:
                return None
            if len(clauses) == 1:
                return clauses[0]
            return OrQuery(clauses)

        if isinstance(node, ast.ConcatenatedPattern):
            clauses = [q for q in (self.mk_query(p) for p in node.patterns) if q is not None]
            if not clauses:
                return None
            if len(clauses) == 1:
                return clauses[0]
            # merge consecutive wildcards / flatten nested concats
            # (reference: QueryCompiler.scala:159-197)
            new_clauses: List[Query] = []
            for c in reversed(clauses):
                if isinstance(c, AllNGramsQuery) and new_clauses and isinstance(new_clauses[0], AllNGramsQuery):
                    new_clauses[0] = AllNGramsQuery(c.n + new_clauses[0].n)
                elif isinstance(c, ConcatQuery):
                    inner = list(c.clauses)
                    if (
                        new_clauses
                        and isinstance(inner[-1], AllNGramsQuery)
                        and isinstance(new_clauses[0], AllNGramsQuery)
                    ):
                        merged = AllNGramsQuery(inner[-1].n + new_clauses[0].n)
                        new_clauses = inner[:-1] + [merged] + new_clauses[1:]
                    else:
                        new_clauses = inner + new_clauses
                else:
                    new_clauses.insert(0, c)
            if len(new_clauses) == 1:
                return new_clauses[0]
            return ConcatQuery(new_clauses)

        if isinstance(node, ast.NamedCapturePattern):
            q = self.mk_query(node.pattern)
            return None if q is None else NamedCaptureQuery(q, node.name, node.label)

        if isinstance(node, ast.MentionPattern):
            return StateQueryNode(node.label)

        if isinstance(node, ast.ExpandPattern):
            q = self.mk_query(node.pattern)
            return None if q is None else ExpandQuery(q)

        if isinstance(node, ast.GraphTraversalPattern):
            full = self.mk_full_traversal(node.full_traversal)
            if full is None:
                return None
            src = self.mk_query(node.src)
            if src is None:
                return None
            return GraphTraversalQueryNode(src, full)

        if isinstance(node, (ast.GreedyRepetitionPattern, ast.LazyRepetitionPattern)):
            return self._mk_repetition(node)

        raise ValueError(f"cannot compile {node!r}")

    def _mk_repetition(self, node) -> Optional[Query]:
        # reference: QueryCompiler.scala:238-343
        greedy = isinstance(node, ast.GreedyRepetitionPattern)
        mn, mx = node.min, node.max
        if (mn, mx) == (0, 0):
            return AllNGramsQuery(0)
        q = self.mk_query(node.pattern)
        if q is None:
            return None
        if isinstance(q, AllNGramsQuery) and q.n == 0:
            return q
        if (mn, mx) == (1, 1):
            return q
        if (mn, mx) == (0, 1):
            return OptionalQuery(q, greedy)
        if mn == 0 and mx is None:
            return OptionalQuery(RepetitionQuery(q, 1, INT_MAX, greedy), greedy)
        if mx is None:
            return RepetitionQuery(q, mn, INT_MAX, greedy)
        if mn == mx:
            if isinstance(q, AllNGramsQuery):
                return AllNGramsQuery(q.n * mn)
            return RepetitionQuery(q, mn, mx, greedy)
        # min < max, bounded
        if isinstance(q, AllNGramsQuery):
            rng = range(mx, mn - 1, -1) if greedy else range(mn, mx + 1)
            return OrQuery([AllNGramsQuery(i * q.n) for i in rng])
        if mn == 0:
            return OptionalQuery(RepetitionQuery(q, 1, mx, greedy), greedy)
        return RepetitionQuery(q, mn, mx, greedy)

    def _mk_assertion(self, assertion) -> Optional[Query]:
        if isinstance(assertion, ast.SentenceStartAssertion):
            return DocStartQuery()
        if isinstance(assertion, ast.SentenceEndAssertion):
            return DocEndQuery()
        if isinstance(assertion, ast.PositiveLookaheadAssertion):
            q = self.mk_query(assertion.pattern)
            return None if q is None else LookaheadQuery(q)
        if isinstance(assertion, ast.PositiveLookbehindAssertion):
            q = self.mk_query(assertion.pattern)
            return None if q is None else LookbehindQuery(q)
        if isinstance(assertion, ast.NegativeLookaheadAssertion):
            q = self.mk_query(assertion.pattern)
            return None if q is None else NotQuery(AllNGramsQuery(0), LookaheadQuery(q))
        if isinstance(assertion, ast.NegativeLookbehindAssertion):
            q = self.mk_query(assertion.pattern)
            return None if q is None else NotQuery(AllNGramsQuery(0), LookbehindQuery(q))
        raise ValueError(f"unknown assertion {assertion!r}")

    def _mk_event(self, node: ast.EventPattern) -> Optional[Query]:
        trigger = self.mk_query(node.trigger)
        if trigger is None:
            return None
        required = [a for a in node.arguments if a.min > 0]
        optional = [a for a in node.arguments if a.min == 0]
        req_specs = [self._mk_arg(a) for a in required]
        opt_specs = [self._mk_arg(a) for a in optional]
        if any(s is None for s in req_specs) or any(s is None for s in opt_specs):
            return None
        return EventQueryNode(trigger, req_specs, opt_specs)

    def _mk_arg(self, arg: ast.ArgumentPattern) -> Optional[ArgSpec]:
        full = self.mk_full_traversal(arg.full_traversal)
        if full is None:
            return None
        return ArgSpec(arg.name, arg.label, arg.min, arg.max, arg.promote, full)

    # ------------------------------------------------------------ traversals

    def mk_full_traversal(self, node):
        # reference: QueryCompiler.scala:347-380 (its start/end-constraint
        # optimizations are index pre-filters with no effect on the
        # emitted match set; here the same pruning is the endpoint
        # pre-filter in SingleStepFullTraversal and, over a CorpusIndex,
        # the required-hop masks of sentence_mask)
        if isinstance(node, ast.SingleStepFullTraversalPattern):
            surface = self.mk_query(node.surface)
            if surface is None:
                return None
            gt = self.mk_graph_traversal(node.traversal)
            return SingleStepFullTraversal(gt, surface)
        if isinstance(node, ast.RepeatFullTraversalPattern):
            inner = self.mk_full_traversal(node.full_traversal)
            if inner is None:
                return None
            return RepetitionFullTraversal(node.min, node.max, inner)
        if isinstance(node, ast.ConcatFullTraversalPattern):
            steps = [self.mk_full_traversal(c) for c in node.clauses]
            if any(s is None for s in steps):
                return None
            return ConcatFullTraversal(steps)
        raise ValueError(f"unknown full traversal {node!r}")

    def mk_graph_traversal(self, node) -> trav.GraphTraversal:
        # reference: QueryCompiler.scala:475-531 (with No/Fail folding)
        if isinstance(node, ast.NoTraversal):
            return trav.NoTraversal()
        if isinstance(node, ast.IncomingWildcard):
            return trav.IncomingWildcard()
        if isinstance(node, ast.OutgoingWildcard):
            return trav.OutgoingWildcard()
        if isinstance(node, ast.IncomingTraversal):
            return trav.Incoming(self._mk_label_matcher(node.matcher))
        if isinstance(node, ast.OutgoingTraversal):
            return trav.Outgoing(self._mk_label_matcher(node.matcher))
        if isinstance(node, ast.DisjunctiveTraversal):
            gts = _distinct_traversals([self.mk_graph_traversal(t) for t in node.traversals])
            has_no = any(isinstance(g, trav.NoTraversal) for g in gts)
            rest = [g for g in gts if not isinstance(g, (trav.NoTraversal, trav.FailTraversal))]
            if has_no:
                if not rest:
                    return trav.NoTraversal()
                if len(rest) == 1:
                    return trav.Optional(rest[0])
                return trav.Optional(trav.Union(rest))
            if not rest:
                return trav.FailTraversal()
            if len(rest) == 1:
                return rest[0]
            return trav.Union(rest)
        if isinstance(node, ast.ConcatenatedTraversal):
            gts = [
                g
                for g in (self.mk_graph_traversal(t) for t in node.traversals)
                if not isinstance(g, trav.NoTraversal)
            ]
            if not gts:
                return trav.NoTraversal()
            if any(isinstance(g, trav.FailTraversal) for g in gts):
                return trav.FailTraversal()
            if len(gts) == 1:
                return gts[0]
            return trav.Concatenation(gts)
        if isinstance(node, ast.OptionalTraversal):
            gt = self.mk_graph_traversal(node.traversal)
            if isinstance(gt, (trav.NoTraversal, trav.FailTraversal)):
                return trav.NoTraversal()
            return trav.Optional(gt)
        if isinstance(node, ast.KleeneStarTraversal):
            gt = self.mk_graph_traversal(node.traversal)
            if isinstance(gt, (trav.NoTraversal, trav.FailTraversal)):
                return trav.NoTraversal()
            return trav.KleeneStar(gt)
        raise ValueError(f"unknown traversal {node!r}")

    def _mk_label_matcher(self, m):
        if isinstance(m, ast.RegexMatcher):
            return trav.RegexLabelMatcher(m.pattern)
        return trav.ExactLabelMatcher(m.string)

    # ------------------------------------------------------------ constraints

    def mk_constraint_query(self, node) -> Query:
        # reference: QueryCompiler.scala:423-467
        if isinstance(node, ast.FieldConstraint):
            if isinstance(node.matcher, ast.StringMatcher):
                return TermQuery(node.name, self._norm_term(node.name, node.matcher.string))
            return RegexTermQuery(node.name, self._norm_term(node.name, node.matcher.pattern))
        if isinstance(node, ast.FuzzyConstraint):
            return FuzzyTermQuery(node.name, self._norm_term(node.name, node.matcher.string))
        if isinstance(node, ast.DisjunctiveConstraint):
            clauses = _distinct_queries([self.mk_constraint_query(c) for c in node.constraints])
            if len(clauses) == 1:
                return clauses[0]
            return OrQuery(clauses)
        if isinstance(node, ast.ConjunctiveConstraint):
            clauses = _distinct_queries([self.mk_constraint_query(c) for c in node.constraints])
            if len(clauses) == 1:
                return clauses[0]
            return TokenSetQuery(TokenAnd([_token_expr(c) for c in clauses]))
        if isinstance(node, ast.NegatedConstraint):
            inner = node.constraint
            if isinstance(inner, ast.NegatedConstraint):
                return self.mk_constraint_query(inner.constraint)
            if isinstance(inner, ast.Wildcard):
                return FailQuery()
            return TokenSetQuery(TokenNot(_token_expr(self.mk_constraint_query(inner))))
        if isinstance(node, ast.Wildcard):
            return AllNGramsQuery(1)
        raise ValueError(f"unknown constraint {node!r}")


def _query_signature(q: Query):
    """Structural signature used for compile-time clause dedup (the
    reference relies on case-class equality; QueryCompiler.scala:149,440)."""
    if isinstance(q, TermQuery):
        return ("term", q.field, q.term)
    if isinstance(q, RegexTermQuery):
        return ("regex", q.field, q.regex.pattern)
    if isinstance(q, FuzzyTermQuery):
        return ("fuzzy", q.field, q.term)
    if isinstance(q, AllNGramsQuery):
        return ("ngrams", q.n)
    if isinstance(q, OrQuery):
        return ("or",) + tuple(_query_signature(c) for c in q.clauses)
    if isinstance(q, TokenSetQuery):
        return ("tokens", _query_signature(q.expr))
    if isinstance(q, TokenAnd):
        return ("and",) + tuple(_query_signature(c) for c in q.clauses)
    if isinstance(q, TokenOr):
        return ("or",) + tuple(_query_signature(c) for c in q.clauses)
    if isinstance(q, TokenNot):
        return ("not", _query_signature(q.clause))
    if isinstance(q, NotQuery):
        return ("not", _query_signature(q.include), _query_signature(q.exclude))
    if isinstance(q, ConcatQuery):
        return ("concat",) + tuple(_query_signature(c) for c in q.clauses)
    if isinstance(q, RepetitionQuery):
        return ("rep", _query_signature(q.query), q.min, q.max, q.is_greedy)
    if isinstance(q, OptionalQuery):
        return ("opt", _query_signature(q.query), q.is_greedy)
    if isinstance(q, NamedCaptureQuery):
        return ("named", _query_signature(q.query), q.name, q.label)
    if isinstance(q, StateQueryNode):
        return ("state", q.label)
    return ("id", id(q))


def _distinct_queries(qs):
    out, seen = [], set()
    for q in qs:
        if q is None:
            continue
        sig = _query_signature(q)
        if sig not in seen:
            seen.add(sig)
            out.append(q)
    return out


def _traversal_signature(g):
    if isinstance(g, trav.NoTraversal):
        return ("no",)
    if isinstance(g, trav.FailTraversal):
        return ("fail",)
    if isinstance(g, trav.IncomingWildcard):
        return ("inw",)
    if isinstance(g, trav.OutgoingWildcard):
        return ("outw",)
    if isinstance(g, trav.Incoming):
        m = g.matcher
        return ("in", m.string if isinstance(m, trav.ExactLabelMatcher) else m.regex.pattern)
    if isinstance(g, trav.Outgoing):
        m = g.matcher
        return ("out", m.string if isinstance(m, trav.ExactLabelMatcher) else m.regex.pattern)
    if isinstance(g, trav.Concatenation):
        return ("cat",) + tuple(_traversal_signature(t) for t in g.traversals)
    if isinstance(g, trav.Union):
        return ("union",) + tuple(_traversal_signature(t) for t in g.traversals)
    if isinstance(g, trav.Optional):
        return ("optional", _traversal_signature(g.traversal))
    if isinstance(g, trav.KleeneStar):
        return ("star", _traversal_signature(g.traversal))
    return ("id", id(g))


def _distinct_traversals(gs):
    out, seen = [], set()
    for g in gs:
        sig = _traversal_signature(g)
        if sig not in seen:
            seen.add(sig)
            out.append(g)
    return out
