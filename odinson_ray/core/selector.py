"""Match disambiguation + event packaging.

Verbatim port of the reference's MatchSelector (greedy/lazy preference,
leftmost-OR-clause preference, recursive tie-breaking, identical-span
left-preference) and of the OdinsonScorer candidate-consumption loop
(group same-start candidates, select, skip overlapping later matches).

Reference: lucene/search/MatchSelector.scala, lucene/search/OdinsonScorer.scala:56-76.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Dict, List, Tuple

from .matches import (
    ArgumentMetadata,
    ConcatMatch,
    EventMatch,
    EventSketch,
    GraphTraversalMatch,
    Match,
    NamedCapture,
    NamedMatch,
    NGramMatch,
    OptionalMatch,
    OrMatch,
    RepetitionMatch,
    StateMatch,
)


def pick_matches(matches: List[Match]) -> List[Match]:
    """MatchSelector.pickMatches (reference :13-22): foldRight pairwise
    selection, then package event sketches.

    Identical-span derivations are deduped up front, keeping the highest-
    priority one per span (clause order, then greedy-longer/lazy-shorter,
    recursively — the structural _traverse comparison itself). The
    reference reaches an equal-span end state via pickMatchFromPair
    returning lhs, but folding duplicate derivations interleaved with
    other spans makes the outcome depend on heap tie order (the pairwise
    preference is not transitive across derivations); choosing the best
    derivation per span first makes selection deterministic and
    consistent with regex-backtracking priority on the ambiguous cases."""
    if len(matches) > 1:
        best: Dict[tuple, Match] = {}
        order = []
        for m in matches:
            key = (m.start, m.end)
            cur = best.get(key)
            if cur is None:
                best[key] = m
                order.append(key)
            else:
                # structural priority: does m beat the current holder?
                if _traverse(cur, m, [cur], [m]) == [m]:
                    best[key] = m
        matches = [best[k] for k in order]
    selected: List[Match] = []
    for m in reversed(matches):
        if selected:
            selected = _pick_match_from_pair(m, selected[0]) + selected[1:]
        else:
            selected = [m]
    out: List[Match] = []
    for m in selected:
        if isinstance(m, EventSketch):
            out.extend(package_events(m))
        else:
            out.append(m)
    return out


def _pick_match_from_pair(lhs: Match, rhs: Match) -> List[Match]:
    # reference :24-105
    if lhs.start == rhs.start:
        if lhs.end == rhs.end:
            return [lhs]
        return _traverse(lhs, rhs, [lhs], [rhs])
    if lhs.intersects(rhs):
        return [lhs]
    return [lhs, rhs]


def _traverse(lhs: Match, rhs: Match, left: List[Match], right: List[Match]) -> List[Match]:
    while True:
        if left and right:
            l0, r0 = left[0], right[0]
            if isinstance(l0, OrMatch) and isinstance(r0, OrMatch):
                if l0.clause_id < r0.clause_id:
                    return [lhs]
                if l0.clause_id > r0.clause_id:
                    return [rhs]
                left = [l0.sub_match] + left[1:]
                right = [r0.sub_match] + right[1:]
                continue
            if isinstance(l0, OptionalMatch) and isinstance(r0, OptionalMatch):
                if l0.is_greedy and r0.is_greedy:
                    if l0.length > r0.length:
                        return [lhs]
                    if l0.length < r0.length:
                        return [rhs]
                    left = [l0.sub_match] + left[1:]
                    right = [r0.sub_match] + right[1:]
                    continue
                elif r0.is_lazy:  # NOTE reference checks r twice (:45)
                    if l0.length < r0.length:
                        return [lhs]
                    if l0.length > r0.length:
                        return [rhs]
                    left = [l0.sub_match] + left[1:]
                    right = [r0.sub_match] + right[1:]
                    continue
                else:
                    return [lhs, rhs]
            if isinstance(l0, RepetitionMatch) and isinstance(r0, RepetitionMatch):
                if l0.is_greedy and r0.is_greedy:
                    if l0.length > r0.length:
                        return [lhs]
                    if l0.length < r0.length:
                        return [rhs]
                    left = list(l0.sub_matches) + left[1:]
                    right = list(r0.sub_matches) + right[1:]
                    continue
                elif l0.is_lazy and r0.is_lazy:
                    if l0.length < r0.length:
                        return [lhs]
                    if l0.length > r0.length:
                        return [rhs]
                    left = list(l0.sub_matches) + left[1:]
                    right = list(r0.sub_matches) + right[1:]
                    continue
                else:
                    return [lhs, rhs]
            left = _expand_first(left)
            right = _expand_first(right)
            continue
        if not left and not right:
            return [lhs, rhs]
        # mismatched depth: can't decide (reference would throw)
        return [lhs, rhs]


def _expand_first(ms: List[Match]) -> List[Match]:
    # reference :107-129
    if not ms:
        return []
    head, tail = ms[0], ms[1:]
    if isinstance(head, NGramMatch):
        return tail
    if isinstance(head, EventSketch):
        return [head.trigger] + tail
    if isinstance(head, EventMatch):
        return [head.trigger] + tail  # reference leaves this unimplemented
    if isinstance(head, OrMatch):
        return [head.sub_match] + tail
    if isinstance(head, NamedMatch):
        return [head.sub_match] + tail
    if isinstance(head, OptionalMatch):
        return [head.sub_match] + tail
    if isinstance(head, ConcatMatch):
        return list(head.sub_matches) + tail
    if isinstance(head, RepetitionMatch):
        return list(head.sub_matches) + tail
    if isinstance(head, GraphTraversalMatch):
        return [head.src_match, head.dst_match] + tail
    if isinstance(head, StateMatch):
        if not head.named_captures:
            return tail
        return [NGramMatch(head.start, head.end)] + tail
    return tail


# ------------------------------------------------------------ event packaging

def package_events(sketch: EventSketch) -> List[EventMatch]:
    # reference :131-148: group the sketch's matches by argument spec
    grouped: Dict[int, Tuple[object, List[Match]]] = {}
    for spec, m in sketch.arg_sketches:
        key = id(spec)
        if key not in grouped:
            grouped[key] = (spec, [])
        grouped[key][1].append(m)
    args = []
    for spec, all_matches in grouped.values():
        matches: List[Match] = []
        for g in _group_matches(all_matches):
            matches.extend(pick_matches(g))
        args.append((spec, matches))
    return package_event(sketch.trigger, args, sketch.argument_metadata)


def package_event(trigger: Match, args: List[Tuple[object, List[Match]]],
                  meta: List[ArgumentMetadata]) -> List[EventMatch]:
    """The events of one trigger whose arguments ``(spec, matches)``, in
    spec order, each hold at least one match, and whose metadata is
    ``meta``: every argument packaged by its quantifier, combined by
    cartesian product (reference :131-175)."""
    packaged = [_package_argument(spec, ms) for spec, ms in args]
    return [EventMatch(trigger, [cap for pkg in combo for cap in pkg], meta)
            for combo in product(*packaged)]


def _package_argument(spec, matches: List[Match]) -> List[List[NamedCapture]]:
    # reference :150-175
    mn, mx = spec.min, spec.max
    caps = [NamedCapture(spec.name, spec.label, m) for m in matches]
    if mn == mx == 1:
        return [[cap] for cap in caps]
    if mx is not None and mn == mx:
        return [list(c) for c in combinations(caps, mn)]
    if len(caps) < mn:
        return []
    if mx is not None and len(caps) > mx:
        return [list(c) for c in combinations(caps, mx)]
    return [caps]


def _group_matches(matches: List[Match]) -> List[List[Match]]:
    # bucket by interval intersection with the bucket head (reference :177-198)
    buckets: List[List[Match]] = []
    for m in matches:
        placed = False
        for b in buckets:
            if m.intersects(b[0]):
                b.append(m)
                placed = True
                break
        if not placed:
            buckets.append([m])
    return buckets


# ------------------------------------------------------------ scorer loop

def _plain_disjoint(candidates: List[Match]) -> bool:
    """No event sketches, strictly increasing and non-overlapping spans:
    each match is its own same-start group, picks itself and skips
    nothing, so the list is a fixed point of the scorer loop with the
    selector on or off (a TokenSequenceQuery's output has this shape).
    Stops at the first element that breaks the shape."""
    prev_start = prev_end = -1
    for m in candidates:
        if m.start <= prev_start or m.start < prev_end or type(m) is EventSketch:
            return False
        prev_start, prev_end = m.start, m.end
    return True


def select_matches(candidates: List[Match], disable_match_selector: bool = False) -> List[Match]:
    """Consume candidates (sorted by start,end): group same-start, pick, skip
    overlapping later starts (reference: OdinsonScorer.scala:56-76).
    Only packaging makes an EventMatch, so a list that starts with one
    is already selected (the single-hop event kernel's output)."""
    if not candidates or type(candidates[0]) is EventMatch or _plain_disjoint(candidates):
        return candidates
    if disable_match_selector:
        out: List[Match] = []
        for m in candidates:
            if isinstance(m, EventSketch):
                out.extend(package_events(m))
            else:
                out.append(m)
        return out
    out = []
    i, n = 0, len(candidates)
    while i < n:
        start = candidates[i].start
        j = i
        group = []
        while j < n and candidates[j].start == start:
            group.append(candidates[j])
            j += 1
        final = pick_matches(group)
        out.extend(final)
        if final:
            last_end = final[-1].end
            while j < n and candidates[j].start < last_end:
                j += 1
        i = j
    return out
