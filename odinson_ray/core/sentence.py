"""Per-sentence in-memory inverted structures.

This is the Ray-side replacement for the reference's Lucene sentence doc:
per-field token arrays + per-field postings (term -> positions), plus the
dependency digraph (reference concepts: OdinsonIndexWriter.mkSentenceDoc,
NormalizedTokenStream for the synonym-merged ``norm`` field
(core/.../lucene/analysis/NormalizedTokenStream.scala:24-63), and the
BinaryDocValues dependency graph).

Every BatchVocab comes from :meth:`BatchVocab.from_layers`: one per
annotated batch (``stages.annotate``), one per decoded group of a
``sentences`` column (``stages.match``) and, for an in-memory engine, one
per distinct layer set of its corpus (:class:`CorpusIndex`), over which a
query's candidate sentences are found before any sentence is visited. A
vocabulary-backed sentence reads a token layer it does not hold from its
vocabulary (:meth:`BatchVocab.tokens`) on first use.
"""

from __future__ import annotations

import copy
import weakref
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..common.normalize import (
    normalize_unicode,
    normalize_unicode_aggressively,
    sanitize_token,
)
from .traversal import DirectedGraph

# the default annotation layers (reference: reference.conf:44-72).
# incoming/outgoing are derived positional fields: the labels of a token's
# incident dependency edges indexed at that token's position
# (reference: OdinsonIndexWriter.scala:191-196, DependencyTokenStream.scala)
TOKEN_FIELDS = ("raw", "word", "lemma", "tag", "chunk", "entity")
NORM_FIELD = "norm"
DEFAULT_TOKEN_FIELD = NORM_FIELD
EDGE_FIELDS = ("incoming", "outgoing")
ALL_TOKEN_FIELDS = TOKEN_FIELDS + (NORM_FIELD,) + EDGE_FIELDS
MAX_TOKENS_PER_SENTENCE = 100  # reference.conf:112


_EMPTY_POSITIONS: List[int] = []


class BatchVocab:
    """Shared term dictionary + lazy inverted index over a set of
    sentences: one batch (the per-batch analogue of the reference's
    term-dictionary reuse in OdinsonIndexWriter.scala:174-184 and its
    Lucene postings, VERDICT r02 item 1) or a whole engine corpus
    (:class:`CorpusIndex`).

    Construction interns every distinct surface/derived token once and
    keeps each token field as ONE flat id array over all sentences (plus
    sentence offsets). A (field, term) or (field, predicate) lookup is one
    vectorized pass over the flat array; its positions are split per
    sentence once and every per-sentence lookup is then a dict get.
    Normalization (NFKC for plain fields, aggressive casefold for the
    ``norm`` raw+word synonym field) is applied once per unique term,
    never per position.

    Memory is bounded by the token count, however many queries run: term
    postings are memoized only for terms in the dictionary, and all
    per-query state (predicate masks, token-set results) lives in
    :meth:`query_memo`, whose entries die with the compiled query."""

    __slots__ = (
        "terms", "fields", "offsets", "num_sents", "_bounds", "_flat_tokens",
        "_nfkc_map", "_nfkc_tid", "_nfkc_terms",
        "_agg_map", "_agg_tid", "_agg_terms",
        "_mapped", "_postings", "_sent_of", "_query_memo",
    )

    def __init__(self, terms: np.ndarray, fields: Dict[str, np.ndarray], offsets: np.ndarray):
        # terms: unique term strings (np object array); id = index.
        # fields: field -> flat int32 term-id array over all sentences.
        # offsets: int64[num_sents+1] sentence boundaries in the flat arrays.
        self.terms = terms
        self.fields = fields
        self.offsets = offsets
        self.num_sents = len(offsets) - 1
        self._bounds: List[int] = offsets.tolist()
        self._flat_tokens: Dict[str, List[str]] = {}
        self._nfkc_map: Optional[np.ndarray] = None
        self._nfkc_tid: Optional[Dict[str, int]] = None
        self._nfkc_terms: Optional[np.ndarray] = None
        self._agg_map: Optional[np.ndarray] = None
        self._agg_tid: Optional[Dict[str, int]] = None
        self._agg_terms: Optional[np.ndarray] = None
        self._mapped: Dict = {}    # field -> normalized-id flat array
        self._postings: Dict = {}  # (field, term) -> {slot: positions}
        self._sent_of: Optional[np.ndarray] = None
        self._query_memo = weakref.WeakKeyDictionary()

    @classmethod
    def from_layers(cls, layers: Dict[str, Tuple[np.ndarray, Sequence[str]]],
                    offsets: np.ndarray) -> "BatchVocab":
        """The vocabulary of the sentences bounded by ``offsets`` whose
        layer ``name`` holds the flat tokens ``uniques[codes]``, for
        ``layers[name] == (codes, uniques)``; ``uniques`` may repeat a
        string, and layers may share one ``uniques`` list. One hash encode
        over the distinct lists gives each distinct string one term id, in
        first-seen order."""
        starts: Dict[int, int] = {}  # id(uniques) -> its offset in the encode
        parts = []
        for _, uniques in layers.values():
            if id(uniques) not in starts:
                starts[id(uniques)] = sum(map(len, parts))
                parts.append(np.asarray(uniques, dtype=object))
        enc = pc.dictionary_encode(pa.array(np.concatenate(parts), pa.string()))
        tid = enc.indices.to_numpy(zero_copy_only=False)
        ids: Dict[str, np.ndarray] = {}
        for name, (codes, uniques) in layers.items():
            remap = tid[starts[id(uniques)]:][:len(uniques)]
            # distinct uniques in first-seen order: the codes are the ids
            ids[name] = (codes if np.array_equal(remap, np.arange(len(remap)))
                         else remap.take(codes))
        if "word" in ids and np.array_equal(ids["word"], ids["raw"]):
            ids["word"] = ids["raw"]  # one array: the norm field reads raw once
        return cls(enc.dictionary.to_numpy(zero_copy_only=False), ids, offsets)

    def tokens(self, field: str, slot: int) -> List[str]:
        """Sentence ``slot``'s ``field`` tokens: the first read of a field
        gathers its strings over every sentence once."""
        flat = self._flat_tokens.get(field)
        if flat is None:
            flat = self._flat_tokens[field] = self.terms[self.fields[field]].tolist()
        return flat[self._bounds[slot]:self._bounds[slot + 1]]

    # ------------------------------------------------- normalized views

    def _ensure_nfkc(self):
        if self._nfkc_tid is None:
            self._nfkc_map, self._nfkc_terms, self._nfkc_tid = self._normal_forms(
                [t if t.isascii() else normalize_unicode(t) for t in self.terms])

    def _ensure_agg(self):
        if self._agg_tid is None:
            # ``norm`` reads only raw and word: the other layers' terms
            # (tags, entity labels) keep their own form, so a batch whose
            # words are already normal needs no gather
            used = np.zeros(len(self.terms), bool)
            for name in ("raw", "word"):
                if name in self.fields:
                    used[self.fields[name]] = True
            self._agg_map, self._agg_terms, self._agg_tid = self._normal_forms(
                [normalize_unicode_aggressively(t) if u else t
                 for t, u in zip(self.terms, used.tolist())])

    def _normal_forms(self, forms: list):
        """(term id -> normalized id, normalized terms, normalized term ->
        id) for the terms' normal ``forms``. When every term is its own
        form the ids map to themselves and the map is None: the terms are
        already unique, so no re-unique and no gather is needed."""
        if all(f == t for f, t in zip(forms, self.terms)):
            return None, self.terms, {t: i for i, t in enumerate(self.terms)}
        uniq, inv = np.unique(np.array(forms, dtype=object), return_inverse=True)
        return inv.astype(np.int32), uniq, {t: i for i, t in enumerate(uniq)}

    def _mapped_flat(self, kind: str, field: str) -> np.ndarray:
        """Flat normalized-id array for a field (one gather per batch; the
        field's own ids when normalization is the identity)."""
        key = (kind, field)
        m = self._mapped.get(key)
        if m is None:
            if kind == "nfkc":
                self._ensure_nfkc()
                id_map = self._nfkc_map
            else:
                self._ensure_agg()
                id_map = self._agg_map
            base = self.fields[field]
            m = self._mapped[key] = base if id_map is None else id_map[base]
        return m

    def _normalized(self, field: str):
        """(normalized term -> id, normalized terms) for ``field``: the
        aggressive forms for ``norm``, NFKC forms otherwise."""
        if field == NORM_FIELD:
            self._ensure_agg()
            return self._agg_tid, self._agg_terms
        self._ensure_nfkc()
        return self._nfkc_tid, self._nfkc_terms

    def _over_field(self, field: str, hit_of: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """``hit_of`` applied to ``field``'s flat normalized ids; for
        ``norm``, the OR over raw and (when it differs) word."""
        if field != NORM_FIELD:
            return hit_of(self._mapped_flat("nfkc", field))
        hit = hit_of(self._mapped_flat("agg", "raw"))
        word = self.fields.get("word")
        if word is not None and word is not self.fields["raw"]:
            hit = hit | hit_of(self._mapped_flat("agg", "word"))
        return hit

    # ------------------------------------------------- flat masks

    def query_memo(self, key) -> dict:
        """Scratch dict of one compiled query on this vocabulary, weakly
        keyed by the query object: it dies with the query, so a long-lived
        vocabulary does not grow with the number of queries issued."""
        memo = self._query_memo.get(key)
        if memo is None:
            memo = self._query_memo[key] = {}
        return memo

    def term_mask(self, field: str, term: str) -> Optional[np.ndarray]:
        """Flat bool mask of the positions whose ``field`` token is
        ``term``; None when no position can hold it."""
        if field != NORM_FIELD and field not in self.fields:
            return None
        t = self._normalized(field)[0].get(term)
        return None if t is None else self._over_field(field, lambda ids: ids == t)

    def pred_mask(self, field: str, key, pred: Callable[[str], bool]) -> Optional[np.ndarray]:
        """Flat bool mask of the positions whose normalized ``field`` token
        satisfies ``pred``: the predicate runs once per unique term,
        memoized under the query object ``key``."""
        if field != NORM_FIELD and field not in self.fields:
            return None
        memo = self.query_memo(key)
        on_terms = memo.get(("terms", field))
        if on_terms is None:
            uniq = self._normalized(field)[1]
            on_terms = memo[("terms", field)] = np.fromiter(
                (pred(t) for t in uniq), dtype=bool, count=len(uniq))
        return self._over_field(field, on_terms.__getitem__)

    def _sentence_of(self) -> np.ndarray:
        """Flat position -> sentence slot."""
        if self._sent_of is None:
            self._sent_of = np.repeat(np.arange(self.num_sents, dtype=np.int32),
                                      np.diff(self.offsets))
        return self._sent_of

    def sentences_with(self, mask: Optional[np.ndarray]) -> np.ndarray:
        """Per-sentence bool: does the sentence hold a position of ``mask``."""
        out = np.zeros(self.num_sents, bool)
        if mask is not None:
            out[self._sentence_of()[mask]] = True
        return out

    def split(self, mask: Optional[np.ndarray]) -> Dict[int, List[int]]:
        """Flat bool mask -> {slot: sorted local positions}, only for the
        sentences that hold a position."""
        hits = np.flatnonzero(mask) if mask is not None else ()
        if not len(hits):
            return {}
        sent = self._sentence_of()[hits]
        local = (hits - self.offsets[sent]).tolist()
        cut = np.flatnonzero(sent[1:] != sent[:-1]) + 1
        bounds = [0] + cut.tolist() + [len(local)]
        slots = sent[bounds[:-1]].tolist()
        return {s: local[a:b] for s, a, b in zip(slots, bounds, bounds[1:])}

    # ------------------------------------------------- per-sentence postings

    def term_positions(self, field: str, term: str, slot: int) -> List[int]:
        key = (field, term)
        res = self._postings.get(key)
        if res is None:
            mask = self.term_mask(field, term)
            if mask is None:
                return _EMPTY_POSITIONS  # not memoized: a miss costs one dict get
            res = self._postings[key] = self.split(mask)
        return res.get(slot, _EMPTY_POSITIONS)

    def pred_positions(self, field: str, key, pred: Callable[[str], bool], slot: int) -> List[int]:
        """Predicate (regex/fuzzy) postings, memoized under ``key``."""
        memo = self.query_memo(key)
        res = memo.get(("split", field))
        if res is None:
            res = memo[("split", field)] = self.split(self.pred_mask(field, key, pred))
        return res.get(slot, _EMPTY_POSITIONS)


class SharedGraphContext:
    """Graph-derived per-sentence state shared across sentences whose
    dependency graph is IDENTICAL (the deterministic annotator's graph is a
    pure function of sentence length): the DirectedGraph itself, its derived
    incoming/outgoing label postings, and the traversal endpoint-prefilter
    memo. Sharing is only valid when the provider guarantees graph equality."""

    __slots__ = ("graph", "edge_postings", "trav_starts")

    def __init__(self, graph: DirectedGraph):
        self.graph = graph
        self.edge_postings: Dict[str, Dict[str, List[int]]] = {}
        self.trav_starts = weakref.WeakKeyDictionary()

    def __reduce__(self):
        # memos rebuild on use; a weak-keyed one cannot be pickled, and
        # stages.annotate's context cache ships with a by-value package
        return SharedGraphContext, (self.graph,)


class SentenceIndex:
    """Inverted positional structures for one sentence."""

    __slots__ = ("length", "fields", "graph", "_postings", "_trav_starts",
                 "vocab", "slot", "_shared")

    def __init__(
        self,
        fields: Dict[str, Sequence[str]],
        graph_edges: Sequence[Tuple[int, int, str]] = (),
        graph_roots: Sequence[int] = (),
        prenormalized_labels: bool = False,
        take_ownership: bool = False,
        shared: Optional[SharedGraphContext] = None,
        vocab: Optional[BatchVocab] = None,
        slot: int = -1,
    ):
        # `raw` is required (displayField); other layers optional
        self.length = len(fields.get("raw") or next(iter(fields.values())))
        if take_ownership:
            # caller guarantees fresh, sanitized lists: no defensive copy
            self.fields = fields
        else:
            self.fields = {
                k: [sanitize_token(t) for t in v] for k, v in fields.items() if v is not None
            }
        self._shared = shared
        if shared is not None:
            self.graph = shared.graph
            self._trav_starts = shared.trav_starts
        else:
            self.graph = DirectedGraph(
                graph_edges, graph_roots, self.length, prenormalized=prenormalized_labels
            )
            # per-sentence memo for traversal endpoint pre-filter sets, keyed
            # by the compiled step OBJECT. Weak keys: on a persistent engine
            # each ad-hoc query()'s step objects would otherwise be pinned by
            # every sentence's memo forever — O(queries x sentences) growth
            # (ADVICE r02). Entries die with the query's compiled objects.
            self._trav_starts = weakref.WeakKeyDictionary()
        self._postings: Dict[str, Dict[str, List[int]]] = {}
        # optional batch-vocab backing: term/predicate lookups resolve
        # against the batch-level lazy inverted index at this slot, and a
        # token layer of the vocabulary missing from ``fields`` is read
        # from it only when something reads the strings
        self.vocab = vocab
        self.slot = slot

    # ------------------------------------------------------------ postings

    def postings(self, field: str) -> Dict[str, List[int]]:
        """term -> sorted positions for a token field. The ``norm`` field is
        the synonym merge of aggressively-normalized raw+word at the same
        positions (NormalizedTokenStream.scala:24-34)."""
        p = self._postings.get(field)
        if p is not None:
            return p
        if field in EDGE_FIELDS and self._shared is not None:
            p = self._shared.edge_postings.get(field)
            if p is not None:
                self._postings[field] = p
                return p
        p = {}
        if field in EDGE_FIELDS:
            adj = self.graph.incoming if field == "incoming" else self.graph.outgoing
            for i in range(self.length):
                edges_i = adj[i]
                if not edges_i:
                    continue
                if len(edges_i) == 1:
                    label = edges_i[0][1]
                    lst = p.get(label)
                    if lst is None:
                        p[label] = [i]
                    else:
                        lst.append(i)
                    continue
                seen = set()
                for _, label in edges_i:
                    if label not in seen:
                        seen.add(label)
                        lst = p.get(label)
                        if lst is None:
                            p[label] = [i]
                        else:
                            lst.append(i)
        elif field == NORM_FIELD:
            raw = self._field("raw") or []
            word = self._field("word")
            if word is None:
                word = raw
            for i in range(self.length):
                forms = {normalize_unicode_aggressively(raw[i] if i < len(raw) else "")}
                if i < len(word):
                    forms.add(normalize_unicode_aggressively(word[i]))
                for f in forms:
                    p.setdefault(f, []).append(i)
        else:
            toks = self._field(field)
            if toks is not None:
                get = p.get
                for i, t in enumerate(toks):
                    # NFKC is the identity on ASCII: skip the call
                    key = t if t.isascii() else normalize_unicode(t)
                    lst = get(key)
                    if lst is None:
                        p[key] = [i]
                    else:
                        lst.append(i)
        self._postings[field] = p
        if field in EDGE_FIELDS and self._shared is not None:
            self._shared.edge_postings[field] = p
        return p

    def positions_for_term(self, field: str, term: str) -> List[int]:
        v = self.vocab
        if v is not None and (field in v.fields or field == NORM_FIELD):
            return v.term_positions(field, term, self.slot)
        return self.postings(field).get(term, [])

    def positions_matching(self, field: str, key, pred) -> List[int]:
        """Sorted positions whose term (NFKC-normalized; agg-normalized
        synonym pair for ``norm``) satisfies ``pred``. On a vocab-backed
        sentence the predicate runs once per vocabulary over unique terms
        (memoized weakly under ``key``, which must be the compiled query
        object); otherwise it scans this sentence's postings dict."""
        v = self.vocab
        if v is not None and (field in v.fields or field == NORM_FIELD):
            return v.pred_positions(field, key, pred, self.slot)
        positions: List[int] = []
        for term, pos in self.postings(field).items():
            if pred(term):
                positions.extend(pos)
        positions.sort()
        return positions

    def terms(self, field: str):
        return self.postings(field).keys()

    def _field(self, field: str) -> Optional[List[str]]:
        v = self.fields.get(field)
        if v is None and self.vocab is not None and field in self.vocab.fields:
            v = self.fields[field] = self.vocab.tokens(field, self.slot)
        return v

    def all_fields(self) -> Dict[str, List[str]]:
        """fields dict with every layer of the vocabulary materialized (for
        verbosity='all' output paths that iterate all stored layers)."""
        if self.vocab is not None:
            for name in self.vocab.fields:
                self._field(name)
        return self.fields

    def tokens(self, field: str = "raw") -> List[str]:
        return self._field(field) or []

    def backed_by(self, vocab: BatchVocab, slot: int,
                  fields: Dict[str, Sequence[str]]) -> "SentenceIndex":
        """A copy whose term lookups resolve against ``vocab`` at ``slot``,
        with every token layer in ``fields``. It shares this sentence's
        token lists, graph and graph-derived memos (pure functions of the
        graph); this sentence is left unchanged."""
        view = copy.copy(self)
        view.fields = fields
        view._postings = {}
        view.vocab, view.slot = vocab, slot
        return view


class AnnotatedDocument:
    """A document = id + sentences (+ metadata), the unit processed by the
    per-document cascade (reference: OdinsonDocument.scala:13-17)."""

    __slots__ = ("doc_id", "sentences", "metadata")

    def __init__(self, doc_id: str, sentences: List[SentenceIndex], metadata: Optional[dict] = None):
        self.doc_id = doc_id
        self.sentences = sentences
        self.metadata = metadata or {}


class CorpusIndex:
    """Engine-wide index over a fixed list of documents (the in-memory
    analogue of the reference's Lucene index, built once per corpus):
    every sentence's token layers are interned once, one BatchVocab per
    distinct set of layers, so a query's term and regex lookups are
    vectorized passes over flat id arrays and its candidate sentences a
    bool mask computed before any sentence is visited.

    Sentences outside the clean subset keep their own per-sentence
    postings and are always visited: a missing ``raw`` layer, a layer
    whose length differs from the sentence's, a null or non-string token,
    or a stored layer named like a derived field (``norm``, ``incoming``,
    ``outgoing``). The caller's SentenceIndex objects are never written:
    an indexed sentence is served by an engine-owned copy
    (:meth:`SentenceIndex.backed_by`)."""

    def __init__(self, docs: Sequence["AnnotatedDocument"]):
        #: per corpus slot, in (document, sentence) order
        self.keys: List[Tuple[str, int]] = []
        self.sentences: List[SentenceIndex] = []
        groups: Dict[Tuple[str, ...], List[Tuple[int, Dict[str, Sequence[str]]]]] = {}
        for doc in docs:
            for i, sent in enumerate(doc.sentences):
                slot = len(self.sentences)
                self.keys.append((doc.doc_id, i))
                self.sentences.append(sent)
                layers = _index_layers(sent)
                if layers is not None:
                    groups.setdefault(tuple(sorted(layers)), []).append((slot, layers))
        self.unindexed = np.ones(len(self.sentences), bool)
        #: (vocabulary, the corpus slots it backs, in vocabulary slot order)
        self.groups: List[Tuple[BatchVocab, np.ndarray]] = []
        for names, members in groups.items():
            vocab = _group_vocab(names, [layers for _, layers in members])
            if vocab is None:
                continue
            slots = np.array([slot for slot, _ in members], dtype=np.int64)
            self.unindexed[slots] = False
            self.groups.append((vocab, slots))
            for k, (slot, layers) in enumerate(members):
                self.sentences[slot] = self.sentences[slot].backed_by(vocab, k, layers)

    def candidates(self, mask_of: Callable[[BatchVocab], Optional[np.ndarray]],
                   start: int = 0) -> List[int]:
        """Corpus slots from ``start`` on that may hold a match, in order:
        ``mask_of(vocab)`` is a per-vocabulary-slot bool mask, or None for
        every sentence; unindexed sentences are always candidates."""
        keep = self.unindexed.copy()
        for vocab, slots in self.groups:
            mask = mask_of(vocab)
            keep[slots if mask is None else slots[mask]] = True
        return (np.flatnonzero(keep[start:]) + start).tolist()


#: stored layers that would shadow a derived field's postings
_DERIVED_FIELDS = frozenset(EDGE_FIELDS + (NORM_FIELD,))


def _index_layers(sent: SentenceIndex) -> Optional[Dict[str, Sequence[str]]]:
    """A sentence's token layers (those it has not read yet come from its
    vocabulary, never cached into it), or None when it is outside
    CorpusIndex's clean subset."""
    layers = sent.fields
    missing = () if sent.vocab is None else sent.vocab.fields.keys() - layers.keys()
    if missing:
        layers = dict(layers)
        for name in missing:
            layers[name] = sent.vocab.tokens(name, sent.slot)
    if "raw" not in layers or not _DERIVED_FIELDS.isdisjoint(layers):
        return None
    for toks in layers.values():
        if toks is None or len(toks) != sent.length:
            return None
    return layers


def _group_vocab(names: Sequence[str], members: List[Dict[str, Sequence[str]]]
                 ) -> Optional[BatchVocab]:
    """One BatchVocab over sentences carrying the same layers; None when a
    token is not a string or not encodable text (a lone surrogate): the
    sentences stay unindexed."""
    offsets = np.zeros(len(members) + 1, np.int64)
    np.cumsum([len(m["raw"]) for m in members], out=offsets[1:])
    tid: Dict[str, int] = {}
    try:
        codes = {name: np.fromiter((tid.setdefault(t, len(tid)) for m in members for t in m[name]),
                                   np.int32, int(offsets[-1]))
                 for name in names}
    except TypeError:  # an unhashable token
        return None
    uniques = list(tid)
    if not all(isinstance(t, str) for t in uniques):
        return None
    try:
        return BatchVocab.from_layers({name: (c, uniques) for name, c in codes.items()}, offsets)
    except UnicodeEncodeError:
        return None
