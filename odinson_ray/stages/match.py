"""GrammarMatcher: the grammar cascade as a Ray Data actor-pool stage.

The whole compiled grammar is ONE dataset operator:

    mentions = docs.map_batches(
        GrammarMatcher.with_rules(yaml_str),
        batch_format="pyarrow", concurrency=N, batch_size=B)

The grammar is compiled once per actor in ``__init__`` (the reference
compiles once per engine: RuleReader.compileRuleStream); per batch the
actor builds per-document inverted structures and runs the per-document
cascade (priorities + state confined to the document, SURVEY §3.1 — no
distributed state, no shuffle).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..common.normalize import normalize_unicode, sanitize_token
from ..core.engine import DocumentEngine
from ..core.sentence import (
    TOKEN_FIELDS,
    AnnotatedDocument,
    BatchVocab,
    SentenceIndex,
    SharedGraphContext,
)
from ..core.traversal import DirectedGraph
from ..lang.rules import RuleReader
from ..sources.interleaved import build_interleaved
from ..sources.odinson_json import fields_to_metadata
from .annotate import annotate_texts_vectorized, annotate_tokens_fast

ARG_TYPE = pa.struct(
    [
        ("name", pa.string()),
        ("label", pa.string()),
        ("start", pa.int32()),
        ("end", pa.int32()),
        ("text", pa.string()),
    ]
)

FIELDS_TYPE = pa.struct([("name", pa.string()), ("tokens", pa.list_(pa.string()))])

EMPTY_ARGS: List[Dict] = []  # shared, never mutated (pa.array only reads)

MENTIONS_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("sent_id", pa.int32()),
        ("label", pa.string()),
        ("found_by", pa.string()),
        ("start", pa.int32()),
        ("end", pa.int32()),
        ("text", pa.string()),
        ("args", pa.list_(ARG_TYPE)),
    ]
)


def sentence_index_from_struct(s: Dict, *, vocab: Optional[BatchVocab] = None,
                               slot: int = -1,
                               shared: Optional[SharedGraphContext] = None,
                               field_loader=None,
                               lazy_layers: Tuple[str, ...] = ()) -> SentenceIndex:
    """One ``sentences`` struct -> SentenceIndex.

    Single-dict form: ``s`` is the struct as Python (layers, ``graph``);
    tokens are sanitized and edge labels normalized here. Batch form
    (``vocab`` given, from :func:`decode_sentences`): ``s`` holds only the
    sanitized ``raw`` tokens, the graph comes from ``shared`` and the
    other layers load lazily through ``field_loader``. A struct whose
    ``raw`` (display) layer is null raises ValueError."""
    if vocab is not None:
        return SentenceIndex(s, take_ownership=True, shared=shared, vocab=vocab,
                             slot=slot, field_loader=field_loader,
                             lazy_layers=lazy_layers)
    if s.get("raw") is None:
        raise ValueError("sentence has a null raw layer")
    graph = s.get("graph") or {}
    edges = [(e["src"], e["dst"], e["label"]) for e in (graph.get("edges") or [])]
    roots = graph.get("roots") or []
    fields = {k: s[k] for k in TOKEN_FIELDS if s.get(k) is not None}
    return SentenceIndex(fields, edges, roots)


def _lengths(lists) -> np.ndarray:
    """Per-slot list lengths, 0 for a null slot."""
    return pc.list_value_length(lists).fill_null(0).to_numpy(zero_copy_only=False)


def _mark_null_values(bad: np.ndarray, values, lens: np.ndarray):
    """Flag the slots (``lens`` per slot) that hold a null value."""
    if values.null_count:
        owner = np.repeat(np.arange(len(lens)), lens)
        bad[owner[values.is_null().to_numpy(zero_copy_only=False)]] = True


class _Graphs:
    """The dependency graphs of one batch's ``sentences``: flat edge and
    root arrays plus one SharedGraphContext per distinct
    ``(n, src, dst, label, roots)``, built on first use. Edge labels are
    normalized once per unique label."""

    def __init__(self, sents, names, bad: np.ndarray):
        self.src = self.dst = self.lbl = self.roots = np.zeros(0, np.int64)
        self.labels: List[str] = []
        e_lens = r_lens = np.zeros(len(sents), np.int64)
        graph = pc.struct_field(sents, "graph") if "graph" in names else None
        gnames = {f.name for f in graph.type} if graph is not None else ()
        if "edges" in gnames:
            edges = pc.struct_field(graph, "edges")
            e_lens = _lengths(edges)
            flat = pc.list_flatten(edges)
            src, dst, lbl = (pc.struct_field(flat, k) for k in ("src", "dst", "label"))
            for c in (src, dst, lbl):
                _mark_null_values(bad, c, e_lens)
            self.src = pc.fill_null(src, 0).to_numpy(zero_copy_only=False)
            self.dst = pc.fill_null(dst, 0).to_numpy(zero_copy_only=False)
            enc = pc.dictionary_encode(pc.fill_null(lbl, ""))
            self.lbl = enc.indices.to_numpy(zero_copy_only=False)
            self.labels = [normalize_unicode(t) for t in enc.dictionary.to_pylist()]
        if "roots" in gnames:
            roots = pc.struct_field(graph, "roots")
            r_lens = _lengths(roots)
            flat = pc.list_flatten(roots)
            _mark_null_values(bad, flat, r_lens)
            self.roots = pc.fill_null(flat, 0).to_numpy(zero_copy_only=False)
        self.e_off = np.concatenate(([0], np.cumsum(e_lens))).tolist()
        self.r_off = np.concatenate(([0], np.cumsum(r_lens))).tolist()
        self.shared: Dict[tuple, SharedGraphContext] = {}

    def context(self, j: int, n: int) -> SharedGraphContext:
        """The shared graph context of flat sentence ``j`` (``n`` tokens)."""
        e0, e1 = self.e_off[j], self.e_off[j + 1]
        r0, r1 = self.r_off[j], self.r_off[j + 1]
        src, dst, lbl = self.src[e0:e1], self.dst[e0:e1], self.lbl[e0:e1]
        roots = self.roots[r0:r1]
        key = (n, src.tobytes(), dst.tobytes(), lbl.tobytes(), roots.tobytes())
        ctx = self.shared.get(key)
        if ctx is None:
            labels = self.labels
            edges = list(zip(src.tolist(), dst.tolist(), [labels[i] for i in lbl.tolist()]))
            ctx = self.shared[key] = SharedGraphContext(
                DirectedGraph(edges, roots.tolist(), n, prenormalized=True))
        return ctx


def _decode_group(layers: Dict[str, tuple], sel: np.ndarray, n_sents: int,
                  raw_lens: np.ndarray, graphs: _Graphs, out: list):
    """Decode the flat sentences ``sel`` (all with the same present
    ``layers``) into ``out``, backed by one BatchVocab: each layer is
    dictionary-encoded, sanitized once per unique term and re-uniqued into
    one sorted term list."""
    whole = len(sel) == n_sents
    idx = None if whole else pa.array(sel)
    dicts, codes = {}, {}
    for name, (lists, values) in layers.items():
        enc = pc.dictionary_encode(values if whole else pc.list_flatten(lists.take(idx)))
        codes[name] = enc.indices.to_numpy(zero_copy_only=False)
        dicts[name] = np.array([sanitize_token(t) for t in enc.dictionary.to_pylist()],
                               dtype=object)
    terms = np.unique(np.concatenate(list(dicts.values())))
    ids = {name: np.searchsorted(terms, dicts[name]).astype(np.int32)[codes[name]]
           for name in layers}
    if "word" in ids and np.array_equal(ids["word"], ids["raw"]):
        ids["word"] = ids["raw"]  # one array: the norm field reads raw once
    offsets = np.concatenate(([0], np.cumsum(raw_lens[sel])))
    vocab = BatchVocab(terms, ids, offsets)
    off = offsets.tolist()
    raw = terms[ids["raw"]].tolist()
    lazy = tuple(name for name in layers if name != "raw")
    flat_cache: Dict[str, list] = {}

    def field_loader(slot: int, field: str):
        flat = flat_cache.get(field)
        if flat is None:
            flat = flat_cache[field] = terms[ids[field]].tolist()
        return flat[off[slot]:off[slot + 1]]

    for slot, j in enumerate(sel.tolist()):
        a, b = off[slot], off[slot + 1]
        out[j] = sentence_index_from_struct(
            {"raw": raw[a:b]}, vocab=vocab, slot=slot,
            shared=graphs.context(j, b - a),
            field_loader=field_loader, lazy_layers=lazy)


def decode_sentences(col, keep: Optional[List[bool]] = None
                     ) -> List[Optional[List[SentenceIndex]]]:
    """Arrow-native batch decode of a ``sentences`` list<struct> column:
    one list of BatchVocab-backed SentenceIndexes per document, ``[]`` for
    a null cell or a document ``keep`` rejects, and ``None`` for a
    document outside the clean subset, which the caller decodes struct by
    struct with :func:`sentence_index_from_struct` (the always-correct
    path). Outside the clean subset: a null sentence, token, edge label,
    edge endpoint or root, a null ``raw`` layer, a layer whose length
    differs from ``raw``. A layer null in every sentence is absent;
    sentences are grouped by the set of layers they carry, one vocabulary
    per group. Sentences with identical graphs share one
    SharedGraphContext."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n_docs = len(col)
    per_doc = _lengths(col)
    sent_doc = np.repeat(np.arange(n_docs), per_doc)
    sents = pc.list_flatten(col)
    n_sents = len(sents)
    names = {f.name for f in sents.type}
    bad = ~sents.is_valid().to_numpy(zero_copy_only=False)
    layers: Dict[str, tuple] = {}
    present: Dict[str, np.ndarray] = {}
    raw_lens = np.zeros(n_sents, np.int64)
    for name in TOKEN_FIELDS:  # raw first: the other layers' lengths must match it
        if name not in names:
            continue
        lists = pc.struct_field(sents, name)
        valid = lists.is_valid().to_numpy(zero_copy_only=False)
        if not valid.any():
            continue  # null in every sentence: the layer is absent
        lens = _lengths(lists)
        if name == "raw":
            raw_lens = lens
        values = pc.list_flatten(lists)
        _mark_null_values(bad, values, lens)
        bad |= valid & (lens != raw_lens)
        layers[name], present[name] = (lists, values), valid
    bad |= ~present.get("raw", np.zeros(n_sents, bool))
    graphs = _Graphs(sents, names, bad)
    doc_bad = np.zeros(n_docs, bool)
    doc_bad[sent_doc[bad]] = True
    use = ~doc_bad[sent_doc]
    kept = np.ones(n_docs, bool) if keep is None else np.asarray(keep, bool)
    use &= kept[sent_doc]
    out: List[Optional[SentenceIndex]] = [None] * n_sents
    sig = np.zeros(n_sents, np.int64)
    for i, valid in enumerate(present.values()):
        sig |= valid.astype(np.int64) << i
    for s in np.unique(sig[use]).tolist():
        group = {name: layers[name] for i, name in enumerate(present) if s >> i & 1}
        _decode_group(group, np.flatnonzero(use & (sig == s)), n_sents, raw_lens,
                      graphs, out)
    doc_off = np.concatenate(([0], np.cumsum(per_doc))).tolist()
    return [[] if not kept[d] else None if doc_bad[d] else out[doc_off[d]:doc_off[d + 1]]
            for d in range(n_docs)]


def clamp_pool(requested: int) -> int:
    """Never let an actor pool reserve every cluster CPU: with per-operator
    resource reservation disabled (__ray_entry__), a pool sized == total
    CPUs starves the stateless read/consume stages and deadlocks the
    streaming executor (observed with jobs/run_pipeline.py at
    --num-cpus 4 --concurrency 4). Always leave >= 1 CPU of headroom."""
    try:
        import ray

        if ray.is_initialized():
            cpus = int(ray.cluster_resources().get("CPU", 0))
            if cpus:
                return max(1, min(requested, cpus - 1))
    except Exception:
        pass
    return max(1, requested)


class GrammarMatcher:
    """Callable class for map_batches: compile grammar once per actor.

    Accepts batches either with a pre-annotated ``sentences`` column or with
    only the ``spans`` column — in the latter case annotation runs inline
    (per actor), avoiding the Arrow round-trip of the nested annotation
    column through the object store. Both paths build batch-vocabulary
    backed sentences: the ``sentences`` column is decoded Arrow-natively
    per batch (:func:`decode_sentences`), so pre-annotated input (Odinson
    Document JSON, ``prepare_corpus`` output, a model-annotator stage)
    costs no more per document than raw text, which must also be
    annotated."""

    #: verbosity tiers (reference: DataGatherer.scala:53-110 VerboseLevels)
    #: minimal -> no mention text at all (cheapest at scale),
    #: display -> mention/arg text from the display field (default),
    #: all -> adds a mention_fields column with every stored token layer
    VERBOSITY = ("minimal", "display", "all")

    #: label carried by poison-row records (reference behavior: per-file
    #: Try + log + continue, extra/.../IndexDocuments.scala:85-98; here the
    #: failure is a QUERYABLE row instead of a log line, so a 100-TB run
    #: can aggregate its error stream like any other output)
    ERROR_LABEL = "__error__"

    def __init__(self, rules_yaml: str, variables: Optional[Dict[str, str]] = None,
                 use_state: bool = True, allow_trigger_overlaps: bool = False,
                 verbosity: str = "display", on_error: str = "skip"):
        assert verbosity in self.VERBOSITY, verbosity
        assert on_error in ("skip", "raise"), on_error
        self.extractors = RuleReader().compile_rule_string(rules_yaml, variables)
        self.use_state = use_state
        self.allow_trigger_overlaps = allow_trigger_overlaps
        self.verbosity = verbosity
        self.on_error = on_error
        #: actor-lifetime count of documents converted to __error__ rows —
        #: a visible counter so on_error='skip' never silently eats a
        #: systematic failure (ADVICE r03: the reference logs each per-file
        #: Try failure before continuing, IndexDocuments.scala:85-98)
        self.error_doc_count = 0
        # metadata-filter PUSHDOWN (compile once per actor): when EVERY
        # extractor carries a metadata filter, a document rejected by all
        # of them can produce no mention — skip its annotation entirely.
        # Annotation dominates per-doc cost (reference docs say the same
        # of their pipeline), so for selective filters (date ranges) this
        # is the "prune at the read" rule applied to compute.
        from ..lang.metadata import compile_filter

        self._filters = [
            compile_filter(e.metadata_filter) if e.metadata_filter else None
            for e in self.extractors
        ]
        self._pushdown = bool(self._filters) and all(
            f is not None for f in self._filters
        )

    def _sentences_from_texts(self, texts: List[str]) -> List[SentenceIndex]:
        # NOTE: annotate_tokens_fast must be imported at module level — a
        # lazy import here would execute inside Ray workers, where the
        # package is only available by-value (no importable module)
        out = []
        for text in texts:
            toks = text.split(" ") if text else []
            fields, edges, roots = annotate_tokens_fast(toks)
            out.append(SentenceIndex(fields, edges, roots,
                                     presanitized=True, prenormalized_labels=True,
                                     take_ownership=True))
        return out

    METADATA_COLUMNS = ("lang", "source", "pub_date", "citations", "metadata",
                        "metadata_json")

    @staticmethod
    def _doc_metadata(md_cols: Dict[str, list], row_idx: int) -> Dict:
        metadata: Dict = {}
        for c, vals in md_cols.items():
            v = vals[row_idx]
            if c == "metadata" and isinstance(v, dict):
                metadata.update(v)
            elif c == "metadata_json":
                # Odinson Document-JSON metadata Field array (incl.
                # NestedField), parsed into the metadata-query dict
                if v:
                    import json as _json

                    metadata.update(fields_to_metadata(_json.loads(v)))
            else:
                metadata[c] = v
        return metadata

    def _keep_mask(self, md_cols: Dict[str, list], n: int):
        """Pushdown mask: False where EVERY extractor's metadata filter
        rejects the doc (no mention possible). Filter/parse errors keep
        the doc — the engine path re-raises them into __error__ rows."""
        if not self._pushdown:
            return None
        keep = []
        for i in range(n):
            try:
                md = self._doc_metadata(md_cols, i)
                keep.append(any(f(md) for f in self._filters))
            except Exception:
                keep.append(True)
        return keep

    def __call__(self, batch: pa.Table) -> pa.Table:
        if "spans" not in batch.column_names and "text" in batch.column_names:
            # raw documents table: interleave INSIDE the actor. A separate
            # map_batches(build_interleaved) stage ships the whole corpus's
            # nested list<struct> spans column through the object store
            # into the pool; fusing it here keeps only the flat raw table
            # on that hop (measured: the r3 scaling droop at 12 actors was
            # this serialization, not compute — the no-Ray control shows
            # zero per-process slowdown at 12 procs). build_interleaved is
            # imported at module level: a lazy import here would execute
            # inside workers, where the package is by-value only.
            # build_interleaved re-derives lang/source/pub_date/citations
            # but knows nothing of caller-supplied metadata columns — carry
            # them across or a raw-table pipeline silently loses them.
            extra = {
                c: batch[c] for c in ("metadata", "metadata_json")
                if c in batch.column_names
            }
            batch = build_interleaved(batch)
            for c, col in extra.items():
                batch = batch.append_column(c, col)
        doc_ids = batch["doc_id"].to_pylist()
        # per-document metadata columns come first: the pushdown mask must
        # exist BEFORE annotation so rejected docs skip it entirely
        md_cols = {}
        for c in self.METADATA_COLUMNS:
            if c in batch.column_names:
                md_cols[c] = batch[c].to_pylist()
        keep = self._keep_mask(md_cols, len(doc_ids))
        # per document: its SentenceIndexes, or None where that document
        # takes the per-document fallback inside the loop (containment
        # stays per document)
        sents_per_doc: Optional[List[Optional[List[SentenceIndex]]]] = None
        sentences_col = spans_texts = None
        if "sentences" in batch.column_names:
            sentences_col = batch["sentences"]
            try:
                sents_per_doc = decode_sentences(sentences_col, keep)
            except Exception as e:  # a column shape the batch decode lacks
                if self.on_error == "raise":
                    raise
                import logging

                logging.getLogger(__name__).warning(
                    "GrammarMatcher: batch decode of sentences failed (%s: %s); "
                    "decoding document by document", type(e).__name__, str(e)[:120])
        else:
            # Arrow-native span unpack (no nested to_pylist dict round-trip):
            # flatten the list<struct> column and read only kind/text as flat
            # arrays; regroup text spans per row via list_parent_indices
            flat = pc.list_flatten(batch["spans"]).combine_chunks()
            parents = pc.list_parent_indices(batch["spans"]).to_numpy(
                zero_copy_only=False
            )
            kinds = flat.field("kind").to_pylist()
            texts = flat.field("text").to_pylist()
            spans_texts: List[List[str]] = [[] for _ in range(len(doc_ids))]
            for p, k, tx in zip(parents, kinds, texts):
                if k == "text":
                    spans_texts[p].append(tx)
            # annotate the WHOLE batch in one vectorized pass (per-unique
            # token derivation + BatchVocab id backing), then slice the
            # flat SentenceIndex list back per document. If the batch-wide
            # pass fails (one poison text), fall back to per-document
            # annotation inside the loop so containment stays per-doc.
            try:
                # pushdown: rejected docs contribute no texts to the
                # vectorized pass — annotation is the dominant per-doc
                # cost, so selective filters skip it wholesale
                flat_sents = annotate_texts_vectorized(
                    [t for r, st in enumerate(spans_texts)
                     if keep is None or keep[r] for t in st]
                )
                sents_per_doc = []
                cur = 0
                for r, st in enumerate(spans_texts):
                    if keep is not None and not keep[r]:
                        sents_per_doc.append([])
                        continue
                    sents_per_doc.append(flat_sents[cur : cur + len(st)])
                    cur += len(st)
            except Exception:
                if self.on_error == "raise":
                    raise
        col_doc: List[str] = []
        col_sent: List[int] = []
        col_label: List[Optional[str]] = []
        col_found: List[str] = []
        col_start: List[int] = []
        col_end: List[int] = []
        col_text: List[Optional[str]] = []
        out_args: List[List[Dict]] = []
        out_fields: List[List[Dict]] = []
        columns = (col_doc, col_sent, col_label, col_found, col_start, col_end,
                   col_text, out_args, out_fields)
        minimal = self.verbosity == "minimal"
        want_fields = self.verbosity == "all"
        for row_idx, doc_id in enumerate(doc_ids):
            if keep is not None and not keep[row_idx]:
                continue  # every extractor's metadata filter rejected it
            mark = len(col_doc)
            try:
                sent_indexes = None if sents_per_doc is None else sents_per_doc[row_idx]
                if sent_indexes is None and spans_texts is not None:
                    # batch-wide annotate failed
                    sent_indexes = self._sentences_from_texts(spans_texts[row_idx])
                elif sent_indexes is None:
                    # outside the batch decode's clean subset; a null cell
                    # is a document with no sentences
                    sent_indexes = [sentence_index_from_struct(s)
                                    for s in sentences_col[row_idx].as_py() or ()]
                metadata = self._doc_metadata(md_cols, row_idx)
                doc = AnnotatedDocument(doc_id, sent_indexes, metadata)
                engine = DocumentEngine(doc)
                if self.use_state:
                    mentions = engine.extract_mentions(
                        self.extractors,
                        allow_trigger_overlaps=self.allow_trigger_overlaps,
                    )
                else:
                    mentions = engine.extract_no_state(
                        self.extractors,
                        allow_trigger_overlaps=self.allow_trigger_overlaps,
                    )
                for m in mentions:
                    sent = sent_indexes[m.sent_idx]
                    toks = sent.tokens()
                    ms, me = m.start, m.end
                    col_doc.append(doc_id)
                    col_sent.append(m.sent_idx)
                    col_label.append(m.label)
                    col_found.append(m.found_by)
                    col_start.append(ms)
                    col_end.append(me)
                    if minimal:
                        col_text.append(None)
                    else:
                        col_text.append(
                            toks[ms] if me == ms + 1 else " ".join(toks[ms:me])
                        )
                    caps = m.match.named_captures
                    if caps:
                        args = []
                        for cap in caps:
                            cs, ce = cap.captured.start, cap.captured.end
                            args.append(
                                {
                                    "name": cap.name,
                                    "label": cap.label,
                                    "start": cs,
                                    "end": ce,
                                    "text": None if minimal else
                                        (toks[cs] if ce == cs + 1 else " ".join(toks[cs:ce])),
                                }
                            )
                        out_args.append(args)
                    else:
                        out_args.append(EMPTY_ARGS)
                    if want_fields:
                        fl = sent.all_fields()
                        out_fields.append(
                            [{"name": name, "tokens": list(fl[name][ms:me])}
                             for name in sorted(fl)]
                        )
            except Exception as e:  # poison row: skip the DOCUMENT, not the task
                if self.on_error == "raise":
                    raise
                for col in columns:  # drop the document's partial rows
                    del col[mark:]
                self.error_doc_count += 1
                import logging

                # one line per failed document: skip-mode must stay LOUD
                # (a systematic matcher regression would otherwise surface
                # as an empty-but-successful run once consumers filter by
                # label). Consumers can also aggregate the __error__ rows.
                logging.getLogger(__name__).warning(
                    "GrammarMatcher: doc %s -> __error__ row (%s: %s) "
                    "[%d error docs on this actor]",
                    doc_id, type(e).__name__, str(e)[:120], self.error_doc_count,
                )
                col_doc.append(doc_id)
                col_sent.append(-1)
                col_label.append(self.ERROR_LABEL)
                col_found.append(f"{type(e).__name__}: {e}"[:200])
                col_start.append(-1)
                col_end.append(-1)
                col_text.append(None)
                out_args.append(EMPTY_ARGS)
                if want_fields:
                    out_fields.append([])
        table = pa.Table.from_pydict(
            {
                "doc_id": pa.array(col_doc, pa.string()),
                "sent_id": pa.array(col_sent, pa.int32()),
                "label": pa.array(col_label, pa.string()),
                "found_by": pa.array(col_found, pa.string()),
                "start": pa.array(col_start, pa.int32()),
                "end": pa.array(col_end, pa.int32()),
                "text": pa.array(col_text, pa.string()),
                "args": pa.array(out_args, pa.list_(ARG_TYPE)),
            }
        )
        if self.verbosity == "all":
            table = table.append_column(
                "mention_fields", pa.array(out_fields, pa.list_(FIELDS_TYPE))
            )
        return table


def match_stage(docs_ds, rules_yaml: str, variables=None, concurrency: int = 4,
                batch_size: int = 256):
    """docs (with sentences column) -> mentions Dataset via an actor pool."""
    import ray.data  # noqa: F401  (ensures ray.data is importable lazily)

    return docs_ds.map_batches(
        GrammarMatcher,
        fn_constructor_args=(rules_yaml, variables),
        batch_format="pyarrow",
        concurrency=clamp_pool(concurrency),
        batch_size=batch_size,
        num_cpus=1,
    )
