"""Per-document extraction engine: grammar cascade with priorities + state.

This replaces the reference's ExtractorEngine.extractMentions loop
(reference: ExtractorEngine.scala:441-563). The key observation (SURVEY §3.1)
is that cross-rule state reads are keyed strictly by (doc, sentence, label),
so the entire cascade runs inside the map_batches UDF per document with an
in-memory state — no distributed state is needed.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Optional, Tuple

from ..lang.metadata import compile_filter
from .matches import EventMatch, Match, NamedCapture, StateMatch
from .matcher import Compiler, Ctx, Query
from .selector import select_matches
from .sentence import MAX_TOKENS_PER_SENTENCE, AnnotatedDocument, SentenceIndex

# safety cap on cascade epochs beyond min-iterations: the reference loops
# while any epoch yields mentions, which can diverge for unbounded
# priorities; we bound it (the state dedup makes later epochs no-ops anyway)
MAX_EXTRA_EPOCHS = 32


# ---------------------------------------------------------------- priorities
# reference: lucene/search/Priority.scala

class Priority:
    _exact = re.compile(r"^(\d+)$")
    _interval = re.compile(r"^(\d+)\s*-\s*(\d+)$")
    _lower = re.compile(r"^(\d+)\s*\+$")
    _sparse = re.compile(r"^\[\s*(\d+(?:\s*,\s*\d+)*)\s*\]$")

    def __init__(self, kind: str, a=0, b=0, values=None):
        self.kind = kind
        self.a = a
        self.b = b
        self.values = values or set()

    @staticmethod
    def parse(s: str) -> "Priority":
        s = str(s).strip()
        m = Priority._exact.match(s)
        if m:
            return Priority("exact", int(m.group(1)))
        m = Priority._interval.match(s)
        if m:
            return Priority("interval", int(m.group(1)), int(m.group(2)))
        m = Priority._lower.match(s)
        if m:
            return Priority("lower", int(m.group(1)))
        m = Priority._sparse.match(s)
        if m:
            return Priority("sparse", values={int(x) for x in m.group(1).split(",")})
        raise ValueError(f"invalid priority '{s}'")

    def matches(self, i: int) -> bool:
        if self.kind == "exact":
            return i == self.a
        if self.kind == "interval":
            return self.a <= i <= self.b
        if self.kind == "lower":
            return i >= self.a
        return i in self.values

    @property
    def min_iterations(self) -> int:
        if self.kind == "exact":
            return self.a
        if self.kind == "interval":
            return self.b
        if self.kind == "lower":
            return self.a
        return max(self.values)


class Extractor:
    """A compiled rule (reference: RuleReader.scala:43-48)."""

    __slots__ = ("name", "label", "priority", "query", "metadata_filter")

    def __init__(self, name: str, label: Optional[str], priority: Priority, query: Query,
                 metadata_filter: Optional[str] = None):
        self.name = name
        self.label = label
        self.priority = priority
        self.query = query
        self.metadata_filter = metadata_filter


# ---------------------------------------------------------------- mentions

class Mention:
    __slots__ = ("match", "label", "sent_idx", "found_by", "doc_id")

    def __init__(self, match: Match, label: Optional[str], sent_idx: int, found_by: str, doc_id: str):
        self.match = match
        self.label = label
        self.sent_idx = sent_idx
        self.found_by = found_by
        self.doc_id = doc_id

    @property
    def start(self) -> int:
        return self.match.start

    @property
    def end(self) -> int:
        return self.match.end

    def arguments(self) -> Dict[str, List["Mention"]]:
        """Group named captures by name (reference: Mention.mkArguments)."""
        args: Dict[str, List[Mention]] = {}
        for cap in self.match.named_captures:
            args.setdefault(cap.name, []).append(
                Mention(cap.captured, cap.label, self.sent_idx, self.found_by, self.doc_id)
            )
        return args

    def _dedup_key(self) -> Tuple[int, int]:
        caps = self.match.named_captures
        min_cap_start = min((c.captured.start for c in caps), default=self.match.start)
        return (self.match.start, min_cap_start)


class MemoryState:
    """Per-document mention state keyed (sent_idx, label); mentions are kept
    sorted and deduped by (start, min-capture-start), mirroring the
    reference's MemoryState SortedSet semantics (MemoryState.scala:122-145)."""

    def __init__(self):
        self._buckets: Dict[Tuple[int, str], Dict[Tuple[int, int], Mention]] = {}

    def add_mentions(self, mentions: Iterable[Mention]) -> None:
        for m in mentions:
            key = (m.sent_idx, m.label or "")
            bucket = self._buckets.setdefault(key, {})
            dk = m._dedup_key()
            if dk not in bucket:
                bucket[dk] = m

    def get_mentions(self, sent_idx: int, label: str) -> List[Mention]:
        bucket = self._buckets.get((sent_idx, label), {})
        return [bucket[k] for k in sorted(bucket)]

    def all_mentions(self) -> List[Mention]:
        out = []
        for key in sorted(self._buckets):
            bucket = self._buckets[key]
            out.extend(bucket[k] for k in sorted(bucket))
        return out


# ---------------------------------------------------------------- engine

class DocumentEngine:
    """Runs a compiled grammar cascade over one annotated document."""

    def __init__(self, doc: AnnotatedDocument):
        self.doc = doc

    def _passes_metadata(self, extractor: Extractor) -> bool:
        if not extractor.metadata_filter:
            return True
        return compile_filter(extractor.metadata_filter)(self.doc.metadata)

    def _extract_one(self, extractor: Extractor, state, disable_match_selector: bool) -> List[Mention]:
        if not self._passes_metadata(extractor):
            return []
        out = []
        for sent_idx, sent in enumerate(self.doc.sentences):
            if sent.length > MAX_TOKENS_PER_SENTENCE:
                continue  # reference skips long sentences at index time
            ctx = Ctx(sent, sent_idx, state, not disable_match_selector)
            candidates = extractor.query.matches(ctx)
            for m in select_matches(candidates, disable_match_selector):
                out.append(Mention(m, extractor.label, sent_idx, extractor.name, self.doc.doc_id))
        return out

    def _filter_trigger_overlaps(self, mentions: List[Mention], allow: bool) -> List[Mention]:
        if allow:
            return mentions
        out = []
        for m in mentions:
            if isinstance(m.match, EventMatch):
                kept = m.match.remove_trigger_overlaps()
                if kept is None:
                    continue
                out.append(m if kept is m.match
                           else Mention(kept, m.label, m.sent_idx, m.found_by, m.doc_id))
            else:
                out.append(m)
        return out

    def _process_and_promote(self, mentions: List[Mention], using_state: bool) -> List[Mention]:
        # reference: ExtractorEngine.scala:488-563
        results: List[Mention] = []
        for m in mentions:
            if isinstance(m.match, EventMatch):
                promote_names = {meta.name for meta in m.match.argument_metadata if meta.promote}
                new_caps: List[NamedCapture] = []
                for cap in m.match.named_captures:
                    if cap.name in promote_names and not isinstance(cap.captured, StateMatch):
                        promoted_match = StateMatch.from_match(cap.captured) if using_state else cap.captured
                        new_caps.append(NamedCapture(cap.name, cap.label, promoted_match))
                        results.append(
                            Mention(promoted_match, cap.label, m.sent_idx, m.found_by, m.doc_id)
                        )
                    else:
                        new_caps.append(cap)
                if using_state:
                    ev = EventMatch(m.match.trigger, new_caps, m.match.argument_metadata)
                    results.append(
                        Mention(StateMatch.from_match(ev), m.label, m.sent_idx, m.found_by, m.doc_id)
                    )
                else:
                    results.append(m)
            else:
                if using_state:
                    results.append(
                        Mention(StateMatch.from_match(m.match), m.label, m.sent_idx, m.found_by, m.doc_id)
                    )
                else:
                    results.append(m)
        return results

    def extract_no_state(
        self,
        extractors: List[Extractor],
        allow_trigger_overlaps: bool = False,
        disable_match_selector: bool = False,
    ) -> List[Mention]:
        """Single pass, priorities ignored (reference: ExtractorEngine.scala:394-412)."""
        state = MemoryState()  # may still be read by @Label; stays empty
        mentions = []
        for e in extractors:
            mentions.extend(self._extract_one(e, state, disable_match_selector))
        filtered = self._filter_trigger_overlaps(mentions, allow_trigger_overlaps)
        return self._process_and_promote(filtered, using_state=False)

    def extract_mentions(
        self,
        extractors: List[Extractor],
        allow_trigger_overlaps: bool = False,
        disable_match_selector: bool = False,
    ) -> List[Mention]:
        """Full cascade with priorities + state
        (reference: ExtractorEngine.scala:441-479)."""
        if not extractors:
            return []
        state = MemoryState()
        min_iterations = max(e.priority.min_iterations for e in extractors)
        epoch = 1
        while True:
            mentions = []
            for e in extractors:
                if e.priority.matches(epoch):
                    mentions.extend(self._extract_one(e, state, disable_match_selector))
            epoch += 1
            if mentions:
                filtered = self._filter_trigger_overlaps(mentions, allow_trigger_overlaps)
                processed = self._process_and_promote(filtered, using_state=True)
                state.add_mentions(processed)
            elif epoch > min_iterations:
                break
            if epoch > min_iterations + MAX_EXTRA_EPOCHS:
                if mentions:
                    # divergence guard tripped while rules were still
                    # producing: the reference would keep iterating, so
                    # make the truncation observable instead of silent
                    import warnings

                    warnings.warn(
                        f"extract_mentions: epoch cap hit at epoch {epoch} "
                        f"(min_iterations={min_iterations} + {MAX_EXTRA_EPOCHS}) "
                        "while rules were still matching; cascade truncated",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                break
        return state.all_mentions()
