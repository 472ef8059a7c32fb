"""Match-tree objects mirroring the reference's derivation-tree model.

Reference: core/src/main/scala/ai/lum/odinson/OdinsonMatch.scala. Token
intervals are [start, end). Identity (not structural equality) is used for
grouping, as in the reference (match classes don't override equals).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple


class NamedCapture:
    __slots__ = ("name", "label", "captured")

    def __init__(self, name: str, label: Optional[str], captured: "Match"):
        self.name = name
        self.label = label
        self.captured = captured

    def __repr__(self):
        return f"NamedCapture({self.name},{self.label},{self.captured!r})"


class Match:
    __slots__ = ()
    start: int
    end: int

    @property
    def length(self) -> int:
        return self.end - self.start

    def intersects(self, other: "Match") -> bool:
        return self.start < other.end and other.start < self.end

    @property
    def named_captures(self) -> List[NamedCapture]:
        return []

    def __repr__(self):
        return f"{type(self).__name__}({self.start},{self.end})"


class NGramMatch(Match):
    __slots__ = ("start", "end")

    def __init__(self, start: int, end: int):
        self.start = start
        self.end = end


class StateMatch(Match):
    """A match read back from the state (reference: OdinsonMatch.scala:26-52)."""

    __slots__ = ("start", "end", "_captures")

    def __init__(self, start: int, end: int, captures: List[NamedCapture]):
        self.start = start
        self.end = end
        self._captures = captures

    @property
    def named_captures(self) -> List[NamedCapture]:
        return self._captures

    @staticmethod
    def from_match(m: Match) -> "StateMatch":
        if isinstance(m, StateMatch):
            return m  # never mutated, so a copy would only cost time
        caps = [
            NamedCapture(c.name, c.label, StateMatch.from_match(c.captured))
            for c in m.named_captures
        ]
        return StateMatch(m.start, m.end, caps)


class ConcatMatch(Match):
    __slots__ = ("sub_matches", "start", "end")

    def __init__(self, sub_matches: Sequence[Match]):
        self.sub_matches = list(sub_matches)
        self.start = self.sub_matches[0].start
        self.end = self.sub_matches[-1].end

    @property
    def named_captures(self):
        return [c for m in self.sub_matches for c in m.named_captures]


class RepetitionMatch(Match):
    __slots__ = ("sub_matches", "is_greedy", "start", "end")

    def __init__(self, sub_matches: Sequence[Match], is_greedy: bool):
        self.sub_matches = list(sub_matches)
        self.is_greedy = is_greedy
        self.start = self.sub_matches[0].start
        self.end = self.sub_matches[-1].end

    @property
    def is_lazy(self):
        return not self.is_greedy

    @property
    def named_captures(self):
        return [c for m in self.sub_matches for c in m.named_captures]


class OptionalMatch(Match):
    __slots__ = ("sub_match", "is_greedy", "start", "end")

    def __init__(self, sub_match: Match, is_greedy: bool):
        self.sub_match = sub_match
        self.is_greedy = is_greedy
        self.start = sub_match.start
        self.end = sub_match.end

    @property
    def is_lazy(self):
        return not self.is_greedy

    @property
    def named_captures(self):
        return self.sub_match.named_captures


class OrMatch(Match):
    __slots__ = ("sub_match", "clause_id", "start", "end")

    def __init__(self, sub_match: Match, clause_id: int):
        self.sub_match = sub_match
        self.clause_id = clause_id
        self.start = sub_match.start
        self.end = sub_match.end

    @property
    def named_captures(self):
        return self.sub_match.named_captures


class NamedMatch(Match):
    __slots__ = ("sub_match", "name", "label", "start", "end")

    def __init__(self, sub_match: Match, name: str, label: Optional[str]):
        self.sub_match = sub_match
        self.name = name
        self.label = label
        self.start = sub_match.start
        self.end = sub_match.end

    @property
    def named_captures(self):
        # a NamedMatch prepends itself to its sub-captures
        # (reference: OdinsonMatch.scala:201-207)
        return [NamedCapture(self.name, self.label, self.sub_match)] + self.sub_match.named_captures


class GraphTraversalMatch(Match):
    __slots__ = ("src_match", "dst_match", "start", "end")

    def __init__(self, src_match: Match, dst_match: Match):
        self.src_match = src_match
        self.dst_match = dst_match
        self.start = dst_match.start
        self.end = dst_match.end

    @property
    def named_captures(self):
        return self.src_match.named_captures + self.dst_match.named_captures


class ArgumentMetadata:
    __slots__ = ("name", "min", "max", "promote")

    def __init__(self, name: str, mn: int, mx: Optional[int], promote: bool):
        self.name = name
        self.min = mn
        self.max = mx
        self.promote = promote

    def _key(self):
        return (self.name, self.min, self.max, self.promote)

    def __eq__(self, other):
        return isinstance(other, ArgumentMetadata) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class EventMatch(Match):
    __slots__ = ("trigger", "_captures", "argument_metadata", "start", "end")

    def __init__(self, trigger: Match, captures: List[NamedCapture], metadata: List[ArgumentMetadata]):
        self.trigger = trigger
        self._captures = captures
        self.argument_metadata = metadata
        self.start = trigger.start
        self.end = trigger.end

    @property
    def named_captures(self):
        return self._captures

    def remove_trigger_overlaps(self) -> Optional["EventMatch"]:
        """Drop args overlapping the trigger; None if a required arg count
        falls below min (reference: OdinsonMatch.scala:72-83). ``self``
        itself when no arg overlaps."""
        ts, te = self.trigger.start, self.trigger.end
        captures = [c for c in self._captures
                    if not (c.captured.start < te and ts < c.captured.end)]
        if len(captures) == len(self._captures):
            return self
        counts: dict = {}
        for c in captures:
            counts[c.name] = counts.get(c.name, 0) + 1
        for meta in self.argument_metadata:
            if counts.get(meta.name, 0) < meta.min:
                return None
        return EventMatch(self.trigger, captures, self.argument_metadata)


class EventSketch(Match):
    """Partial event (trigger + flat arg matches) awaiting packaging
    (reference: OdinsonMatch.scala:92-109)."""

    __slots__ = ("trigger", "arg_sketches", "start", "end")

    def __init__(self, trigger: Match, arg_sketches: List[Tuple[object, Match]]):
        self.trigger = trigger
        self.arg_sketches = arg_sketches  # list of (ArgSpec, Match)
        self.start = trigger.start
        self.end = trigger.end

    @property
    def named_captures(self):
        return []

    @property
    def argument_metadata(self) -> List[ArgumentMetadata]:
        return argument_metadata(spec for spec, _ in self.arg_sketches)


def argument_metadata(specs) -> List[ArgumentMetadata]:
    """The distinct argument metadata of ``specs``, in first-seen order."""
    seen = {}
    for spec in specs:
        key = (spec.name, spec.min, spec.max, spec.promote)
        if key not in seen:
            seen[key] = ArgumentMetadata(*key)
    return list(seen.values())


def sort_key(m: Match):
    return (m.start, m.end)
