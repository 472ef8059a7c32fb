"""Recursive-descent parser for the Odinson pattern language.

Grammar ported from the reference's PEG grammar
(reference: core/src/main/scala/ai/lum/odinson/compiler/QueryParser.scala and
compiler/Literals.scala). Whitespace handling follows fastparse's
ScriptWhitespace: whitespace and ``#`` line comments are skipped between
tokens; literals (identifiers, quoted strings, regexes) are parsed without
internal whitespace skipping.

Entry points:
    parse_basic_query(s)  -> ast.Pattern
    parse_event_query(s)  -> ast.EventPattern
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from . import ast
from .ast import INT_MAX, OdinsonParseError


class _Fail(Exception):
    """internal backtracking signal"""


def _is_ident_start(c: str) -> bool:
    return c.isalpha() or c == "_"


def _is_ident_part(c: str) -> bool:
    return c.isalnum() or c == "_"


def unescape_java(s: str) -> str:
    out = []
    i = 0
    n = len(s)
    while i < n:
        c = s[i]
        if c == "\\" and i + 1 < n:
            nxt = s[i + 1]
            if nxt == "u" and i + 5 < n:
                out.append(chr(int(s[i + 2 : i + 6], 16)))
                i += 6
                continue
            mapping = {"b": "\b", "t": "\t", "n": "\n", "f": "\f", "r": "\r", "0": "\0"}
            out.append(mapping.get(nxt, nxt))
            i += 2
        else:
            out.append(c)
            i += 1
    return "".join(out)


class QueryParser:
    """One instance per (all_token_fields, default_token_field) config."""

    def __init__(self, all_token_fields, default_token_field):
        self.all_token_fields = list(all_token_fields)
        self.default_token_field = default_token_field
        self.s = ""
        self.pos = 0

    # ------------------------------------------------------------ plumbing

    def _ws(self):
        s, n = self.s, len(self.s)
        i = self.pos
        while i < n:
            c = s[i]
            if c in " \t\r\n":
                i += 1
            elif c == "#":  # line comment
                while i < n and s[i] != "\n":
                    i += 1
            else:
                break
        self.pos = i

    def _lit(self, lit: str) -> None:
        """Match a literal token, skipping leading whitespace."""
        self._ws()
        if self.s.startswith(lit, self.pos):
            self.pos += len(lit)
        else:
            raise _Fail(lit)

    def _peek_lit(self, lit: str) -> bool:
        self._ws()
        return self.s.startswith(lit, self.pos)

    def _try(self, fn, *args):
        saved = self.pos
        try:
            return fn(*args)
        except _Fail:
            self.pos = saved
            return None

    def _first(self, *fns):
        for fn in fns:
            saved = self.pos
            try:
                return fn()
            except _Fail:
                self.pos = saved
        raise _Fail("no alternative matched")

    def _rep1(self, fn) -> list:
        out = [fn()]
        while True:
            saved = self.pos
            try:
                out.append(fn())
            except _Fail:
                self.pos = saved
                break
        return out

    def _rep1_sep(self, fn, sep: str) -> list:
        out = [fn()]
        while True:
            saved = self.pos
            try:
                self._lit(sep)
                out.append(fn())
            except _Fail:
                self.pos = saved
                break
        return out

    def _end(self):
        self._ws()
        if self.pos != len(self.s):
            raise OdinsonParseError(
                f"could not parse pattern at position {self.pos}: {self.s[self.pos:self.pos+30]!r}"
            )

    # ------------------------------------------------------------ literals
    # (no whitespace skipping inside; callers skip leading ws)

    def _identifier(self) -> str:
        self._ws()
        s, i = self.s, self.pos
        if i >= len(s) or not _is_ident_start(s[i]):
            raise _Fail("identifier")
        j = i + 1
        while j < len(s) and _is_ident_part(s[j]):
            j += 1
        self.pos = j
        return s[i:j]

    def _extended_identifier(self) -> str:
        self._ws()
        s, i = self.s, self.pos
        if i >= len(s) or not _is_ident_start(s[i]):
            raise _Fail("extended identifier")
        j = i + 1
        while j < len(s) and (_is_ident_part(s[j]) or s[j] in ":-"):
            j += 1
        self.pos = j
        return s[i:j]

    def _quoted_string(self) -> str:
        self._ws()
        s, i = self.s, self.pos
        if i >= len(s) or s[i] not in "'\"":
            raise _Fail("quoted string")
        quote = s[i]
        j = i + 1
        while j < len(s):
            if s[j] == "\\" and j + 1 < len(s):
                j += 2
            elif s[j] == quote:
                self.pos = j + 1
                return unescape_java(s[i + 1 : j])
            else:
                j += 1
        raise _Fail("unterminated string")

    def _string(self) -> str:
        return self._first(self._identifier, self._quoted_string)

    def _extended_string(self) -> str:
        return self._first(self._extended_identifier, self._quoted_string)

    def _regex(self) -> str:
        self._ws()
        s, i = self.s, self.pos
        if i >= len(s) or s[i] != "/":
            raise _Fail("regex")
        j = i + 1
        while j < len(s):
            if s[j] == "\\" and j + 1 < len(s):
                j += 2
            elif s[j] == "/":
                self.pos = j + 1
                # unescape forward slashes only; regex engine handles the rest
                return s[i + 1 : j].replace("\\/", "/")
            else:
                j += 1
        raise _Fail("unterminated regex")

    def _unsigned_int(self) -> int:
        self._ws()
        s, i = self.s, self.pos
        j = i
        while j < len(s) and s[j].isdigit():
            j += 1
        if j == i:
            raise _Fail("unsigned int")
        self.pos = j
        return int(s[i:j])

    # ------------------------------------------------------------ entry points

    def parse_basic_query(self, query: str):
        self.s = query.strip()
        self.pos = 0
        pat = self._graph_traversal_pattern()
        self._end()
        return pat

    def parse_event_query(self, query: str) -> ast.EventPattern:
        self.s = query.strip()
        self.pos = 0
        self._lit("trigger")
        self._lit("=")
        trigger = self._surface_pattern()
        arguments = self._rep1(self._argument_pattern)
        self._end()
        return ast.EventPattern(trigger, tuple(arguments))

    # ------------------------------------------------------------ event arguments
    # reference: QueryParser.scala:26-173

    def _argument_pattern(self) -> ast.ArgumentPattern:
        return self._first(
            self._existing_arg_with_full_traversal,
            self._existing_arg_without_full_traversal,
            self._promoted_arg_with_full_traversal,
            self._promoted_arg_without_full_traversal,
            self._untyped_arg_with_full_traversal,
            self._untyped_arg_without_full_traversal,
        )

    @staticmethod
    def _quant_min_max(quant) -> Tuple[int, Optional[int]]:
        if quant is not None and isinstance(quant, GreedyQuantifier):
            return quant.min, quant.max
        return 1, 1

    def _arg_head(self, promoted: bool):
        """name [":" ["^"] label] quant? "=" — shared prefix of argument rules."""
        name = self._identifier()
        self._lit(":")
        if promoted:
            self._lit("^")
        label = self._identifier()
        quant = self._try(self._quantifier, False)
        self._lit("=")
        return name, label, quant

    def _existing_arg_with_full_traversal(self) -> ast.ArgumentPattern:
        name, label, quant = self._arg_head(promoted=False)
        trav_surf = self._full_traversal_surface()
        last = self._try(self._disjunctive_traversal)
        mention = ast.MentionPattern(None, label)
        if last is not None:
            last_step = ast.SingleStepFullTraversalPattern(last, mention)
            full = ast.ConcatFullTraversalPattern((trav_surf, last_step))
        else:
            full = trav_surf.add_mention_filter_to_terminals(mention, allow_promotion=False)
        mn, mx = self._quant_min_max(quant)
        return ast.ArgumentPattern(name, label, full, mn, mx, promote=False)

    def _existing_arg_without_full_traversal(self) -> ast.ArgumentPattern:
        name, label, quant = self._arg_head(promoted=False)
        last = self._disjunctive_traversal()
        mention = ast.MentionPattern(None, label)
        full = ast.SingleStepFullTraversalPattern(last, mention)
        mn, mx = self._quant_min_max(quant)
        return ast.ArgumentPattern(name, label, full, mn, mx, promote=False)

    def _promoted_arg_with_full_traversal(self) -> ast.ArgumentPattern:
        name, label, quant = self._arg_head(promoted=True)
        trav_surf = self._full_traversal_surface()
        last = self._try(self._disjunctive_traversal)
        mention = ast.MentionPattern(None, label)
        if last is not None:
            wildcard = ast.ConstraintPattern(ast.Wildcard())
            mention_or_wildcard = ast.DisjunctivePattern((mention, wildcard))
            last_step = ast.SingleStepFullTraversalPattern(last, mention_or_wildcard)
            full = ast.ConcatFullTraversalPattern((trav_surf, last_step))
        else:
            full = trav_surf.add_mention_filter_to_terminals(mention, allow_promotion=True)
        mn, mx = self._quant_min_max(quant)
        return ast.ArgumentPattern(name, label, full, mn, mx, promote=True)

    def _promoted_arg_without_full_traversal(self) -> ast.ArgumentPattern:
        name, label, quant = self._arg_head(promoted=True)
        last = self._disjunctive_traversal()
        mention = ast.MentionPattern(None, label)
        wildcard = ast.ConstraintPattern(ast.Wildcard())
        mention_or_wildcard = ast.DisjunctivePattern((mention, wildcard))
        full = ast.SingleStepFullTraversalPattern(last, mention_or_wildcard)
        mn, mx = self._quant_min_max(quant)
        return ast.ArgumentPattern(name, label, full, mn, mx, promote=True)

    def _untyped_arg_with_full_traversal(self) -> ast.ArgumentPattern:
        name = self._identifier()
        quant = self._try(self._quantifier, False)
        self._lit("=")
        trav_surf = self._full_traversal_surface()
        last = self._try(self._disjunctive_traversal)
        if last is None:
            full = trav_surf
        else:
            wildcard = ast.ConstraintPattern(ast.Wildcard())
            last_step = ast.SingleStepFullTraversalPattern(last, wildcard)
            full = ast.ConcatFullTraversalPattern((trav_surf, last_step))
        mn, mx = self._quant_min_max(quant)
        return ast.ArgumentPattern(name, None, full, mn, mx, promote=True)

    def _untyped_arg_without_full_traversal(self) -> ast.ArgumentPattern:
        name = self._identifier()
        quant = self._try(self._quantifier, False)
        self._lit("=")
        last = self._disjunctive_traversal()
        wildcard = ast.ConstraintPattern(ast.Wildcard())
        full = ast.SingleStepFullTraversalPattern(last, wildcard)
        mn, mx = self._quant_min_max(quant)
        return ast.ArgumentPattern(name, None, full, mn, mx, promote=True)

    # ------------------------------------------------------------ graph traversal surface

    def _graph_traversal_pattern(self):
        src = self._surface_pattern()
        traversal = self._try(self._full_traversal_surface)
        if traversal is None:
            return src
        return ast.GraphTraversalPattern(src, traversal)

    def _full_traversal_surface(self):
        steps = self._rep1(self._atomic_traversal_surface)
        if len(steps) == 1:
            return steps[0]
        return ast.ConcatFullTraversalPattern(tuple(steps))

    def _atomic_traversal_surface(self):
        return self._first(self._single_traversal_surface, self._repeated_traversal_surface)

    def _single_traversal_surface(self):
        tr = self._disjunctive_traversal()
        surf = self._surface_pattern()
        return ast.SingleStepFullTraversalPattern(tr, surf)

    def _repeated_traversal_surface(self):
        self._lit("(")
        t = self._full_traversal_surface()
        self._lit(")")
        quant = self._try(self._quantifier, False)
        if quant is None:
            return t
        if isinstance(quant, GreedyQuantifier):
            mx = quant.max if quant.max is not None else INT_MAX
            return ast.RepeatFullTraversalPattern(quant.min, mx, t)
        raise _Fail("lazy quantifier not allowed on traversal group")

    # ------------------------------------------------------------ surface patterns

    def _surface_pattern(self):
        return self._disjunctive_pattern()

    def _disjunctive_pattern(self):
        pats = self._rep1_sep(self._concatenated_pattern, "|")
        if len(pats) == 1:
            return pats[0]
        return ast.DisjunctivePattern(tuple(pats))

    def _concatenated_pattern(self):
        pats = self._rep1(self._quantified_pattern)
        if len(pats) == 1:
            return pats[0]
        return ast.ConcatenatedPattern(tuple(pats))

    def _quantified_pattern(self):
        pat = self._atomic_pattern()
        quant = self._try(self._quantifier, True)
        if quant is None:
            return pat
        if isinstance(quant, GreedyQuantifier):
            return ast.GreedyRepetitionPattern(pat, quant.min, quant.max)
        return ast.LazyRepetitionPattern(pat, quant.min, quant.max)

    def _atomic_pattern(self):
        return self._first(
            self._constraint_pattern,
            self._mention_pattern,
            self._paren_pattern,
            self._expand_pattern,
            self._named_capture_pattern,
            self._assertion_pattern,
        )

    def _paren_pattern(self):
        self._lit("(")
        pat = self._disjunctive_pattern()
        self._lit(")")
        return pat

    def _mention_pattern(self):
        self._lit("@")
        label = self._string()
        return ast.MentionPattern(None, label)

    def _named_capture_pattern(self):
        self._lit("(?<")
        name = self._identifier()
        label = None
        if self._peek_lit(":"):
            self._lit(":")
            label = self._identifier()
        self._lit(">")
        pat = self._disjunctive_pattern()
        self._lit(")")
        return ast.NamedCapturePattern(name, label, pat)

    def _expand_pattern(self):
        self._lit("(?^")
        pat = self._graph_traversal_pattern()
        self._lit(")")
        return ast.ExpandPattern(pat)

    def _constraint_pattern(self):
        return ast.ConstraintPattern(self._token_constraint())

    def _assertion_pattern(self):
        return ast.AssertionPattern(
            self._first(self._sentence_start, self._sentence_end, self._lookaround)
        )

    def _sentence_start(self):
        self._lit("<s>")
        return ast.SentenceStartAssertion()

    def _sentence_end(self):
        self._lit("</s>")
        return ast.SentenceEndAssertion()

    def _lookaround(self):
        self._ws()
        for prefix, cls in (
            ("(?<=", ast.PositiveLookbehindAssertion),
            ("(?<!", ast.NegativeLookbehindAssertion),
            ("(?=", ast.PositiveLookaheadAssertion),
            ("(?!", ast.NegativeLookaheadAssertion),
        ):
            if self.s.startswith(prefix, self.pos):
                self.pos += len(prefix)
                pat = self._disjunctive_pattern()
                self._lit(")")
                return cls(pat)
        raise _Fail("lookaround")

    # ------------------------------------------------------------ quantifiers

    def _quantifier(self, include_lazy: bool):
        return self._first(
            lambda: self._quant_operator(include_lazy),
            lambda: self._range(include_lazy),
            self._repetition,
        )

    def _quant_operator(self, include_lazy: bool):
        self._ws()
        s, i = self.s, self.pos
        if include_lazy:
            for op in ("??", "*?", "+?", "?", "*", "+"):
                if s.startswith(op, i):
                    self.pos = i + len(op)
                    lazy = op.endswith("?") and len(op) == 2
                    base = op[0]
                    mn, mx = {"?": (0, 1), "*": (0, None), "+": (1, None)}[base]
                    return (LazyQuantifier if lazy else GreedyQuantifier)(mn, mx)
        else:
            for op in ("?", "*", "+"):
                if s.startswith(op, i):
                    self.pos = i + 1
                    mn, mx = {"?": (0, 1), "*": (0, None), "+": (1, None)}[op]
                    return GreedyQuantifier(mn, mx)
        raise _Fail("quant operator")

    def _range(self, include_lazy: bool):
        self._lit("{")
        mn = self._try(self._unsigned_int)
        self._lit(",")
        mx = self._try(self._unsigned_int)
        self._ws()
        lazy = False
        if self.s.startswith("}?", self.pos) and include_lazy:
            self.pos += 2
            lazy = True
        elif self.s.startswith("}", self.pos):
            self.pos += 1
        else:
            raise _Fail("range")
        if mn is not None and mx is not None and mn > mx:
            raise _Fail("min > max")
        mn = 0 if mn is None else mn
        return (LazyQuantifier if lazy else GreedyQuantifier)(mn, mx)

    def _repetition(self):
        self._lit("{")
        n = self._unsigned_int()
        self._lit("}")
        return GreedyQuantifier(n, n)

    # ------------------------------------------------------------ graph traversals

    def _disjunctive_traversal(self):
        ts = self._rep1_sep(self._concatenated_traversal, "|")
        if len(ts) == 1:
            return ts[0]
        return ast.DisjunctiveTraversal(tuple(ts))

    def _concatenated_traversal(self):
        ts = self._rep1(self._quantified_traversal)
        if len(ts) == 1:
            return ts[0]
        return ast.ConcatenatedTraversal(tuple(ts))

    def _quantified_traversal(self):
        # reference: QueryParser.scala:395-418
        t = self._atomic_traversal()
        quant = self._try(self._quantifier, False)
        if quant is None:
            return t
        mn, mx = quant.min, quant.max
        if (mn, mx) == (1, 1):
            return t
        if (mn, mx) == (0, 0):
            return ast.NoTraversal()
        if (mn, mx) == (0, 1):
            return ast.OptionalTraversal(t)
        if (mn, mx) == (0, None):
            return ast.KleeneStarTraversal(t)
        if mx is None:
            clauses = tuple([t] * mn + [ast.KleeneStarTraversal(t)])
            return ast.ConcatenatedTraversal(clauses)
        if mn == mx:
            return ast.ConcatenatedTraversal(tuple([t] * mn))
        required = [t] * mn
        optional = [ast.OptionalTraversal(t)] * (mx - mn)
        return ast.ConcatenatedTraversal(tuple(required + optional))

    def _atomic_traversal(self):
        return self._first(self._single_step_traversal, self._paren_traversal)

    def _paren_traversal(self):
        self._lit("(")
        t = self._disjunctive_traversal()
        self._lit(")")
        return t

    def _single_step_traversal(self):
        self._ws()
        s, i = self.s, self.pos
        if s.startswith("<<", i):
            self.pos = i + 2
            return ast.IncomingWildcard()
        if s.startswith(">>", i):
            self.pos = i + 2
            return ast.OutgoingWildcard()
        if s.startswith("<", i):
            self.pos = i + 1
            return ast.IncomingTraversal(self._any_matcher())
        if s.startswith(">", i):
            self.pos = i + 1
            return ast.OutgoingTraversal(self._any_matcher())
        raise _Fail("traversal")

    # ------------------------------------------------------------ token constraints

    def _token_constraint(self):
        return self._first(self._explicit_constraint, self._default_field_constraint)

    def _default_field_constraint(self):
        return self._first(
            self._default_field_regex_constraint, self._default_field_string_constraint
        )

    def _default_field_regex_constraint(self):
        regex = self._regex()
        return ast.FieldConstraint(self.default_token_field, ast.RegexMatcher(regex))

    def _default_field_string_constraint(self):
        string = self._string()
        # negative lookahead: not followed by ":" or quantifier? "=", else it
        # is an argument name (reference: QueryParser.scala:458-467)
        saved = self.pos
        self._ws()
        if self.s.startswith(":", self.pos):
            self.pos = saved
            raise _Fail("argument name, not constraint")
        self._try(self._quantifier, False)
        self._ws()
        if self.s.startswith("=", self.pos):
            self.pos = saved
            raise _Fail("argument name, not constraint")
        self.pos = saved
        # optional fuzzy marker
        fuzzy = False
        self._ws()
        if self.s.startswith("~", self.pos):
            self.pos += 1
            fuzzy = True
        matcher = ast.StringMatcher(string)
        if fuzzy:
            return ast.FuzzyConstraint(self.default_token_field, matcher)
        return ast.FieldConstraint(self.default_token_field, matcher)

    def _explicit_constraint(self):
        self._lit("[")
        saved = self.pos
        try:
            constraint = self._disjunctive_constraint()
        except _Fail:
            self.pos = saved
            constraint = None
        self._lit("]")
        if constraint is None:
            return ast.Wildcard()
        return constraint

    def _disjunctive_constraint(self):
        cs = self._rep1_sep(self._conjunctive_constraint, "|")
        if len(cs) == 1:
            return cs[0]
        return ast.DisjunctiveConstraint(tuple(cs))

    def _conjunctive_constraint(self):
        cs = self._rep1_sep(self._negated_constraint, "&")
        if len(cs) == 1:
            return cs[0]
        return ast.ConjunctiveConstraint(tuple(cs))

    def _negated_constraint(self):
        self._ws()
        negated = False
        if self.s.startswith("!", self.pos):
            self.pos += 1
            negated = True
        c = self._atomic_constraint()
        if negated:
            return ast.NegatedConstraint(c)
        return c

    def _atomic_constraint(self):
        return self._first(self._field_constraint, self._paren_constraint)

    def _paren_constraint(self):
        self._lit("(")
        c = self._disjunctive_constraint()
        self._lit(")")
        return c

    def _field_constraint(self):
        return self._first(self._regex_field_constraint, self._string_field_constraint)

    def _field_name(self) -> str:
        ident = self._identifier()
        if ident not in self.all_token_fields:
            raise _Fail(f"unknown field {ident}")
        return ident

    def _eq_or_neq(self) -> str:
        self._ws()
        if self.s.startswith("!=", self.pos):
            self.pos += 2
            return "!="
        if self.s.startswith("=", self.pos):
            self.pos += 1
            return "="
        raise _Fail("= or !=")

    def _regex_field_constraint(self):
        name = self._field_name()
        op = self._eq_or_neq()
        regex = self._regex()
        c = ast.FieldConstraint(name, ast.RegexMatcher(regex))
        return ast.NegatedConstraint(c) if op == "!=" else c

    def _string_field_constraint(self):
        name = self._field_name()
        op = self._eq_or_neq()
        string = self._extended_string()
        self._ws()
        fuzzy = False
        if self.s.startswith("~", self.pos):
            self.pos += 1
            fuzzy = True
        matcher = ast.StringMatcher(string)
        if fuzzy:
            c = ast.FuzzyConstraint(name, matcher)
        else:
            c = ast.FieldConstraint(name, matcher)
        return ast.NegatedConstraint(c) if op == "!=" else c

    def _any_matcher(self):
        # no leading whitespace: the label follows the < or > immediately in
        # spirit, but the reference allows ws here too (ScriptWhitespace)
        saved = self.pos
        try:
            return ast.StringMatcher(self._extended_string())
        except _Fail:
            self.pos = saved
        return ast.RegexMatcher(self._regex())


class GreedyQuantifier:
    __slots__ = ("min", "max")

    def __init__(self, mn: int, mx: Optional[int]):
        self.min = mn
        self.max = mx


class LazyQuantifier:
    __slots__ = ("min", "max")

    def __init__(self, mn: int, mx: Optional[int]):
        self.min = mn
        self.max = mx
