"""Programmatic API facade — the analogue of the reference's
ExtractorEngine surface (ExtractorEngine.scala:267-345,374-479):

    engine = OdinsonEngine.in_memory(docs)            # fixture/unit-test path
    extractors = engine.compile_rule_string(yaml)
    mentions = engine.extract_mentions(extractors)    # cascade w/ state
    spans = engine.query("[lemma=eat] >dobj []")      # ad-hoc pattern

    # corpus scale: the same grammar as a Ray Data stage
    mentions_ds = OdinsonEngine.extract_dataset(docs_ds, yaml, concurrency=8)
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .common.collector import collector_paused
from .core.engine import DocumentEngine, Extractor, Mention
from .core.matcher import Compiler, Ctx, sentence_mask
from .core.selector import select_matches
from .core.sentence import AnnotatedDocument, CorpusIndex, SentenceIndex
from .lang.rules import RuleReader


class OdinsonEngine:
    """In-memory engine over a list of annotated documents, indexed once
    at construction (:class:`~odinson_ray.core.sentence.CorpusIndex`: one
    engine-wide term dictionary and flat postings), so that ``query``
    visits only the sentences that hold a pattern's required terms. The
    documents are read, never written: several engines may share them."""

    @collector_paused
    def __init__(self, docs: Sequence[AnnotatedDocument]):
        self.docs = list(docs)
        self.compiler = Compiler()
        self.rule_reader = RuleReader(self.compiler)
        self.index = CorpusIndex(self.docs)
        self.doc_by_id: Dict[str, AnnotatedDocument] = {}
        for doc in self.docs:
            self.doc_by_id.setdefault(doc.doc_id, doc)  # duplicate ids: the first

    # ------------------------------------------------------------ constructors

    @staticmethod
    def in_memory(docs: Sequence[AnnotatedDocument]) -> "OdinsonEngine":
        return OdinsonEngine(docs)

    @staticmethod
    def from_text(doc_id: str, text: str) -> "OdinsonEngine":
        """Bare-text engine: whitespace tokens, raw field only (the
        reference's mkExtractorEngineFromText test path)."""
        sent = SentenceIndex({"raw": text.split(" ")})
        return OdinsonEngine([AnnotatedDocument(doc_id, [sent])])

    @staticmethod
    def from_fixture(key: str) -> "OdinsonEngine":
        from .sources.example_docs import DOCS

        d = DOCS[key]
        sents = [SentenceIndex(s["fields"], s["edges"], s["roots"]) for s in d["sentences"]]
        return OdinsonEngine([AnnotatedDocument(key, sents)])

    # ------------------------------------------------------------ compiling

    def compile_rule_string(self, rules: str, variables: Optional[Dict[str, str]] = None,
                            metadata_filter: Optional[str] = None) -> List[Extractor]:
        return self.rule_reader.compile_rule_string(rules, variables, metadata_filter)

    def compile_rule_file(self, path: str, variables: Optional[Dict[str, str]] = None,
                          metadata_filter: Optional[str] = None) -> List[Extractor]:
        return self.rule_reader.compile_rule_file(path, variables, metadata_filter)

    def mk_query(self, pattern: str):
        return self.compiler.compile(pattern)

    def mk_event_query(self, pattern: str):
        return self.compiler.compile_event_query(pattern)

    # ------------------------------------------------------------ extraction

    @collector_paused
    def extract_mentions(self, extractors: List[Extractor],
                         allow_trigger_overlaps: bool = False,
                         disable_match_selector: bool = False) -> List[Mention]:
        out = []
        for doc in self.docs:
            out.extend(
                DocumentEngine(doc).extract_mentions(
                    extractors, allow_trigger_overlaps, disable_match_selector
                )
            )
        return out

    @collector_paused
    def extract_no_state(self, extractors: List[Extractor],
                         allow_trigger_overlaps: bool = False,
                         disable_match_selector: bool = False) -> List[Mention]:
        out = []
        for doc in self.docs:
            out.extend(
                DocumentEngine(doc).extract_no_state(
                    extractors, allow_trigger_overlaps, disable_match_selector
                )
            )
        return out

    @collector_paused
    def query(self, pattern: str, n: Optional[int] = None,
              disable_match_selector: bool = False,
              after=None) -> List[Mention]:
        """Ad-hoc pattern over all documents; returns up to n mentions in
        (doc, sentence, start) order (the Shell / query(q, n) path).

        ``after`` resumes pagination (the reference's searchAfter,
        ExtractorEngine.scala:138-219): pass the LAST Mention of the
        previous page and results continue right after it —
        ``engine.query(p, n, after=page[-1])`` walks the whole corpus n
        mentions at a time, losslessly. (The cursor here is
        mention-granular, strictly finer than Lucene's doc-granular
        searchAfter, so a page may split a sentence without dropping its
        tail.) A bare ``(doc_id, sent_idx)`` tuple resumes from the NEXT
        sentence (the reference's doc-granular behavior). ``n=0`` returns
        no mentions; a negative ``n`` raises ValueError.

        Only candidate sentences are visited: the corpus index masks out
        every sentence that lacks one of the pattern's required terms
        (:func:`~odinson_ray.core.matcher.sentence_mask`)."""
        if n is not None and n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        q = self.mk_query(pattern)
        if n == 0:
            return []
        index = self.index
        start, cursor_span = 0, None
        if after is not None:
            if isinstance(after, Mention):
                cursor = (after.doc_id, after.sent_idx)
                cursor_span = (after.start, after.end)
            else:
                cursor = tuple(after)
            if cursor not in index.keys:
                return []  # the cursor's sentence is not in this corpus
            start = index.keys.index(cursor)
            if cursor_span is None:
                start += 1  # doc-granular cursor: resume NEXT sentence
        out: List[Mention] = []
        for slot in index.candidates(lambda v: sentence_mask(q, v), start):
            doc_id, sent_idx = index.keys[slot]
            ctx = Ctx(index.sentences[slot], sent_idx, None, not disable_match_selector)
            matches = select_matches(q.matches(ctx), disable_match_selector)
            if cursor_span is not None and slot == start:
                # the cursor's sentence: resume right after the cursor span
                spans = [(m.start, m.end) for m in matches]
                matches = matches[spans.index(cursor_span) + 1:] if cursor_span in spans else []
            for m in matches:
                out.append(Mention(m, None, sent_idx, "<query>", doc_id))
                if n is not None and len(out) >= n:
                    return out
        return out

    def mention_text(self, m: Mention) -> str:
        toks = self.doc_by_id[m.doc_id].sentences[m.sent_idx].tokens()
        return " ".join(toks[m.start : m.end])

    # verbosity tiers (reference: DataGatherer.scala:53-110 VerboseLevels)
    MINIMAL = "minimal"
    DISPLAY = "display"
    ALL = "all"

    def mention_fields(self, m: Mention, level: str = DISPLAY) -> Dict[str, List[str]]:
        """Stored token layers for a mention span at the given verbosity:
        minimal -> {}, display -> just the display field (raw),
        all -> every stored token field."""
        if level == self.MINIMAL:
            return {}
        sent = self.doc_by_id[m.doc_id].sentences[m.sent_idx]
        fl = sent.fields if level == self.DISPLAY else sent.all_fields()
        names = ["raw"] if level == self.DISPLAY else sorted(fl)
        return {name: list(fl[name][m.start : m.end])
                for name in names if name in fl}

    # ------------------------------------------------------------ dataset scale

    @staticmethod
    def extract_dataset(docs_ds, rules_yaml: str, variables=None,
                        concurrency: Optional[int] = None,
                        batch_size: int = 256):
        """The same grammar as a Ray Data matcher stage over an
        interleaved-docs Dataset (with or without a sentences column).
        Uncapped by default, so the stage fuses with the next per-batch
        stage (stages.match.match_batches)."""
        from .stages.match import GrammarMatcher, match_batches

        return match_batches(docs_ds, GrammarMatcher, rules_yaml, variables,
                             concurrency=concurrency, batch_size=batch_size)


def explain(pattern: str, event: bool = False) -> str:
    """Render a pattern's compiled AST as an indented tree — the query-
    debugging affordance of the reference's compiler (QueryCompiler
    exposes its compiled Lucene query via toString; here the parse tree
    itself is the executable plan, so we print that). Generic over the
    frozen-dataclass AST: node name, scalar fields inline, child
    patterns indented."""
    import dataclasses

    from .core.matcher import ALL_TOKEN_FIELDS, DEFAULT_TOKEN_FIELD
    from .lang.parser import QueryParser

    parser = QueryParser(ALL_TOKEN_FIELDS, DEFAULT_TOKEN_FIELD)
    node = (parser.parse_event_query(pattern) if event
            else parser.parse_basic_query(pattern))

    def render(n, indent: int) -> list:
        pad = "  " * indent
        if dataclasses.is_dataclass(n) and not isinstance(n, type):
            scalars, children = [], []
            for f in dataclasses.fields(n):
                v = getattr(n, f.name)
                if dataclasses.is_dataclass(v) and not isinstance(v, type):
                    children.append((f.name, [v]))
                elif isinstance(v, tuple) and any(
                        dataclasses.is_dataclass(x) for x in v):
                    children.append((f.name, list(v)))
                else:
                    scalars.append(f"{f.name}={v!r}")
            lines = [f"{pad}{type(n).__name__}"
                     + (f" ({', '.join(scalars)})" if scalars else "")]
            for name, kids in children:
                lines.append(f"{pad}  .{name}:")
                for k in kids:
                    lines.extend(render(k, indent + 2))
            return lines
        return [f"{pad}{n!r}"]

    return "\n".join(render(node, 0))
