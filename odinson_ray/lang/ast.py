"""AST for the Odinson pattern language.

Node inventory mirrors the reference's compiler AST
(reference: core/src/main/scala/ai/lum/odinson/compiler/Ast.scala) so that the
compiler (odinson_ray.core.matcher) can apply the same simplifications.
All nodes are frozen dataclasses with tuple fields so they are hashable —
the compiler deduplicates OR/AND clauses the same way the reference does
(QueryCompiler.scala:149,440,447).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

INF = None  # max=None means unbounded


# ---------------------------------------------------------------- matchers

@dataclass(frozen=True)
class StringMatcher:
    string: str


@dataclass(frozen=True)
class RegexMatcher:
    pattern: str


# ---------------------------------------------------------------- constraints

@dataclass(frozen=True)
class Wildcard:
    pass


@dataclass(frozen=True)
class FieldConstraint:
    name: str
    matcher: object  # StringMatcher | RegexMatcher


@dataclass(frozen=True)
class FuzzyConstraint:
    name: str
    matcher: StringMatcher


@dataclass(frozen=True)
class NegatedConstraint:
    constraint: object


@dataclass(frozen=True)
class ConjunctiveConstraint:
    constraints: Tuple[object, ...]


@dataclass(frozen=True)
class DisjunctiveConstraint:
    constraints: Tuple[object, ...]


# ---------------------------------------------------------------- assertions

@dataclass(frozen=True)
class SentenceStartAssertion:
    pass


@dataclass(frozen=True)
class SentenceEndAssertion:
    pass


@dataclass(frozen=True)
class PositiveLookaheadAssertion:
    pattern: object


@dataclass(frozen=True)
class NegativeLookaheadAssertion:
    pattern: object


@dataclass(frozen=True)
class PositiveLookbehindAssertion:
    pattern: object


@dataclass(frozen=True)
class NegativeLookbehindAssertion:
    pattern: object


# ---------------------------------------------------------------- patterns

@dataclass(frozen=True)
class AssertionPattern:
    assertion: object


@dataclass(frozen=True)
class ConstraintPattern:
    constraint: object


@dataclass(frozen=True)
class DisjunctivePattern:
    patterns: Tuple[object, ...]


@dataclass(frozen=True)
class ConcatenatedPattern:
    patterns: Tuple[object, ...]


@dataclass(frozen=True)
class NamedCapturePattern:
    name: str
    label: Optional[str]
    pattern: object


@dataclass(frozen=True)
class MentionPattern:
    arg_name: Optional[str]
    label: str


@dataclass(frozen=True)
class GraphTraversalPattern:
    src: object
    full_traversal: object


@dataclass(frozen=True)
class LazyRepetitionPattern:
    pattern: object
    min: int
    max: Optional[int]


@dataclass(frozen=True)
class GreedyRepetitionPattern:
    pattern: object
    min: int
    max: Optional[int]


@dataclass(frozen=True)
class FilterPattern:
    main: object
    filter: object


@dataclass(frozen=True)
class ExpandPattern:
    pattern: object


@dataclass(frozen=True)
class ArgumentPattern:
    name: str
    label: Optional[str]
    full_traversal: object
    min: int
    max: Optional[int]
    promote: bool


@dataclass(frozen=True)
class EventPattern:
    trigger: object
    arguments: Tuple[ArgumentPattern, ...]

    def __post_init__(self):
        names = [a.name for a in self.arguments]
        if len(set(names)) < len(names):
            raise OdinsonParseError(
                "There are multiple arguments with the same name in EventPattern."
            )


# ---------------------------------------------------------------- full traversal

@dataclass(frozen=True)
class SingleStepFullTraversalPattern:
    traversal: object
    surface: object

    @property
    def is_required(self) -> bool:
        return True

    def add_mention_filter_to_terminals(self, mention: MentionPattern, allow_promotion: bool):
        # reference: compiler/Ast.scala:87-100
        if allow_promotion:
            new_pattern = DisjunctivePattern((FilterPattern(mention, self.surface), self.surface))
        else:
            new_pattern = FilterPattern(mention, self.surface)
        return SingleStepFullTraversalPattern(self.traversal, new_pattern)


@dataclass(frozen=True)
class ConcatFullTraversalPattern:
    clauses: Tuple[object, ...]

    @property
    def is_required(self) -> bool:
        return True

    def add_mention_filter_to_terminals(self, mention: MentionPattern, allow_promotion: bool):
        # walk backwards adding filters until something required is found
        # (reference: compiler/Ast.scala:108-130)
        remaining = list(self.clauses)[::-1]
        results = []
        while remaining:
            head = remaining.pop(0)
            f = head.add_mention_filter_to_terminals(mention, allow_promotion)
            if head.is_required:
                results = results + [f] + remaining
                remaining = []
            else:
                results.append(f)
        return ConcatFullTraversalPattern(tuple(results[::-1]))


#: a repetition's max when it has none (the reference's Int.MaxValue)
INT_MAX = 2**31 - 1


@dataclass(frozen=True)
class RepeatFullTraversalPattern:
    min: int
    max: int  # always bounded in the parser (INT_MAX for open)
    full_traversal: object

    @property
    def is_required(self) -> bool:
        return self.min > 0

    def add_mention_filter_to_terminals(self, mention: MentionPattern, allow_promotion: bool):
        # reference: compiler/Ast.scala:141-176
        mn, mx = self.min, self.max
        # peeling the last step off an open repetition leaves it open
        rest = mx if mx == INT_MAX else mx - 1
        if (mn, mx) == (0, 0):
            raise OdinsonParseError("invalid repetition {0,0} in argument traversal")
        if (mn, mx) == (0, 1):
            step = self.full_traversal.add_mention_filter_to_terminals(mention, allow_promotion)
            return RepeatFullTraversalPattern(0, 1, step)
        if mn == 0:
            new_rep = RepeatFullTraversalPattern(0, rest, self.full_traversal)
            last_step = self.full_traversal.add_mention_filter_to_terminals(mention, allow_promotion)
            pattern = ConcatFullTraversalPattern((new_rep, last_step))
            return RepeatFullTraversalPattern(0, 1, pattern)
        if (mn, mx) == (1, 1):
            return self.full_traversal.add_mention_filter_to_terminals(mention, allow_promotion)
        new_rep = RepeatFullTraversalPattern(mn - 1, rest, self.full_traversal)
        last_step = self.full_traversal.add_mention_filter_to_terminals(mention, allow_promotion)
        return ConcatFullTraversalPattern((new_rep, last_step))


# ---------------------------------------------------------------- traversals

@dataclass(frozen=True)
class NoTraversal:
    pass


@dataclass(frozen=True)
class OutgoingWildcard:
    pass


@dataclass(frozen=True)
class IncomingWildcard:
    pass


@dataclass(frozen=True)
class IncomingTraversal:
    matcher: object


@dataclass(frozen=True)
class OutgoingTraversal:
    matcher: object


@dataclass(frozen=True)
class ConcatenatedTraversal:
    traversals: Tuple[object, ...]


@dataclass(frozen=True)
class DisjunctiveTraversal:
    traversals: Tuple[object, ...]


@dataclass(frozen=True)
class OptionalTraversal:
    traversal: object


@dataclass(frozen=True)
class KleeneStarTraversal:
    traversal: object


class OdinsonParseError(Exception):
    pass
