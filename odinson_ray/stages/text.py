"""Text-analysis operators: language ID, quality scoring, token counting,
fingerprinting. All vectorized-or-cheap per-batch maps (no shuffles).
"""

from __future__ import annotations

import hashlib
from typing import Dict, List

import pyarrow as pa
import pyarrow.compute as pc

from .shuffle import combine_aggregate, partial_aggregate

# tiny function-word profiles for the n-gram/stopword language heuristic
LANG_PROFILES: Dict[str, frozenset] = {
    "en": frozenset({"the", "a", "of", "and", "to", "in", "is"}),
    "de": frozenset({"der", "die", "das", "und", "ist", "ein"}),
    "fr": frozenset({"le", "la", "les", "et", "est", "un"}),
    "es": frozenset({"el", "la", "los", "y", "es", "un"}),
    "zh": frozenset({"的", "是", "了", "在"}),
}


def predict_lang(text: str) -> str:
    toks = text.split(" ") if text else []
    best, best_score = "en", -1.0
    for lang, profile in sorted(LANG_PROFILES.items()):
        score = sum(t in profile for t in toks)
        if score > best_score:
            best, best_score = lang, score
    return best


def langid_batch(batch: pa.Table) -> pa.Table:
    preds = [predict_lang(t) for t in batch["text"].to_pylist()]
    return pa.Table.from_pydict(
        {"doc_id": batch["doc_id"], "lang_pred": pa.array(preds, pa.string())}
    )


def token_count_batch(batch: pa.Table) -> pa.Table:
    toks = pc.split_pattern(batch["text"], " ")
    return pa.Table.from_pydict(
        {
            "doc_id": batch["doc_id"],
            "n_tokens": pc.cast(pc.list_value_length(toks), pa.int64()),
        }
    )


def fingerprint_batch(batch: pa.Table) -> pa.Table:
    fps = [hashlib.md5(x.encode("utf-8")).hexdigest() for x in batch["text"].to_pylist()]
    return pa.Table.from_pydict(
        {"doc_id": batch["doc_id"], "fp": pa.array(fps, pa.string())}
    )


def rolling_fingerprints(text: str, window: int = 8, base: int = 257,
                         mod: int = (1 << 61) - 1) -> List[int]:
    """Rolling polynomial hash over the token stream (winnowing-style
    document fingerprints)."""
    toks = text.split(" ") if text else []
    hs = [int.from_bytes(hashlib.md5(t.encode()).digest()[:8], "little") % mod for t in toks]
    if len(hs) < window:
        return [sum(h * pow(base, i, mod) for i, h in enumerate(hs)) % mod] if hs else []
    out = []
    power = pow(base, window - 1, mod)
    cur = 0
    for i, h in enumerate(hs):
        cur = (cur * base + h) % mod
        if i >= window:
            cur = (cur - hs[i - window] * pow(base, window, mod)) % mod
        if i >= window - 1:
            out.append(cur)
    return out


def quality_batch(batch: pa.Table, stopwords=("the", "a")) -> pa.Table:
    texts = batch["text"].to_pylist()
    n_tokens, stop_ratio, avg_len = [], [], []
    for txt in texts:
        toks = txt.split(" ") if txt else []
        n = len(toks)
        n_tokens.append(n)
        stop_ratio.append(round(sum(tk in stopwords for tk in toks) / n, 6) if n else 0.0)
        avg_len.append(round(sum(len(tk) for tk in toks) / n, 6) if n else 0.0)
    return pa.Table.from_pydict(
        {
            "doc_id": batch["doc_id"],
            "n_tokens": pa.array(n_tokens, pa.int64()),
            "stop_ratio": pa.array(stop_ratio, pa.float64()),
            "avg_token_len": pa.array(avg_len, pa.float64()),
        }
    )


# PII scrubbing: fully vectorized Arrow RE2 kernels (replace_substring_regex);
# DuckDB's regexp_replace(..., 'g') is also RE2, so the SQL oracle applies
# the IDENTICAL patterns in the identical order — byte-exact outputs.
PII_PATTERNS = (
    (r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "[EMAIL]"),
    (r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b", "[IP]"),
    (r"\b\d{6,}\b", "[NUM]"),
)


def scrub_batch(batch: pa.Table) -> pa.Table:
    col = batch["text"]
    for pattern, repl in PII_PATTERNS:
        col = pc.replace_substring_regex(col, pattern=pattern, replacement=repl)
    changed = pc.not_equal(col, batch["text"])
    return pa.Table.from_pydict(
        {"doc_id": batch["doc_id"], "clean_text": col, "redacted": changed}
    )


def scrub_pii(sf_dir: str):
    """Redact emails / IPv4s / long digit runs from the text column."""
    from ..sources.io import clean_rd as rd

    return rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    ).map_batches(scrub_batch, batch_format="pyarrow")


# ===================================================== corpus term statistics

def df_partial_batch(batch: pa.Table) -> pa.Table:
    """Per-batch document-frequency combiner: one (tok, partial_df) row per
    distinct (document, token) pair in the batch. Documents never span
    batches (one row = one document), so within-batch distinct == per-doc
    distinct, and the global groupby sums partials — the all-to-all moves
    at most |batch vocabulary| rows per batch, never raw token streams.
    Pure Arrow throughout (pandas metadata defeats Ray's schema dedup)."""
    toks = pc.split_pattern(batch["text"], " ")
    pair = pa.table({
        "tok": pc.list_flatten(toks),
        "_row": pc.list_parent_indices(toks),
    })
    return partial_aggregate(partial_aggregate(pair, ["tok", "_row"], []),
                             ["tok"], [("partial_df", None, "count_all")])


def doc_frequency(sf_dir: str, min_df: int = 1):
    """Corpus inverted document-frequency table: tok -> number of docs
    containing it. The scale-canonical combiner pattern (SURVEY §2.5):
    pre-aggregate per batch, shuffle only per-batch vocabulary rows.

    ``min_df`` prunes the long tail INSIDE the distributed aggregate's
    output (a vectorized filter on the aggregated Dataset, never on the
    driver): open-web vocabularies are dominated by df==1 junk tokens
    (URLs, hashes, typos), and pruning them bounds every downstream
    consumer of the vocabulary."""
    from ..sources.io import clean_rd as rd

    ds = combine_aggregate(
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
        .map_batches(df_partial_batch, batch_format="pyarrow"),
        "tok", [("df", "partial_df", "sum")])
    if min_df > 1:
        ds = ds.map_batches(
            lambda t: t.filter(pc.greater_equal(t["df"], min_df)),
            batch_format="pyarrow",
        )
    return ds


def _tf_rows_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, tok, tf) rows for every distinct (document, token) pair in
    the batch. One row = one document, so the batch-local groupby is the
    exact per-document term frequency."""
    toks = pc.split_pattern(batch["text"], " ")
    pair = pa.table({
        "_row": pc.list_parent_indices(toks),
        "tok": pc.list_flatten(toks),
    })
    tf = partial_aggregate(pair, ["_row", "tok"], [("tf", None, "count_all")])
    ids = batch["doc_id"].combine_chunks().cast(pa.int64())
    return pa.table({
        "doc_id": ids.take(tf["_row"]),
        "tok": tf["tok"].combine_chunks().cast(pa.string()),
        "tf": tf["tf"].combine_chunks().cast(pa.int64()),
    })


def _pick_top(t: pa.Table, key: str = "doc_id") -> pa.Table:
    """Per-key argmax over (score desc, top_term asc) — the tf-idf
    comparator. Exact under partial/final composition: max of per-batch
    maxima under a total order is the global maximum."""
    import numpy as np

    if t.num_rows == 0:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "top_term": pa.array([], pa.string()),
                         "score": pa.array([], pa.float64())})
    keys = t[key].to_numpy(zero_copy_only=False)
    terms = np.asarray(t["top_term"].to_pylist(), dtype=object)
    scores = t["score"].to_numpy(zero_copy_only=False)
    order = np.lexsort((terms, -scores, keys))
    first = np.concatenate([[0], np.flatnonzero(keys[order][1:] != keys[order][:-1]) + 1])
    pick = order[first]
    return pa.table({
        "doc_id": pa.array(keys[pick], pa.int64()),
        "top_term": pa.array(terms[pick].tolist(), pa.string()),
        "score": pa.array(scores[pick], pa.float64()),
    })


def tfidf_top_term(sf_dir: str, min_df: int = 1,
                   broadcast_vocab_limit: int = 1_000_000):
    """Per-document top tf-idf term (score = tf * ln(N/df), rounded to 6dp;
    ties broken by lexicographically smallest term; documents whose every
    term was min-df-pruned are dropped).

    ADAPTIVE two-pass (VERDICT r03 #1): the df table is aggregated
    distributed (optionally min-df-pruned there — the pruning never runs
    on the driver), then its size is counted. At or under
    ``broadcast_vocab_limit`` rows the vocabulary is broadcast once via
    ``ray.put`` and scoring is a single zero-shuffle ``map_batches`` —
    the driver holds only the gated vocabulary, by construction. Above
    the gate (open-web corpora where even the pruned vocabulary is too
    big to broadcast), nothing vocabulary-sized ever touches the driver:
    per-doc (tok, tf) rows hash-join the df Dataset on ``tok``, each
    join group's rows reduce to per-batch per-doc argmax partials, and a
    final doc_id groupby picks the winner — same comparator both stages,
    so the result is identical to the broadcast path."""
    import numpy as np
    import ray
    from ..sources.io import clean_rd as rd

    from .link import get_broadcast

    df_ds = doc_frequency(sf_dir, min_df=min_df).materialize()
    vocab_n = df_ds.count()
    n_docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"]).count()
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    if vocab_n <= broadcast_vocab_limit:
        vocab, dfs = [], []
        for b in df_ds.iter_batches(batch_format="pyarrow"):
            vocab.extend(b["tok"].to_pylist())
            dfs.extend(b["df"].to_pylist())
        order = np.argsort(np.asarray(vocab, dtype=object))
        vocab_arr = np.asarray(vocab, dtype=object)[order]
        idf = np.log(float(n_docs) / np.asarray(dfs, dtype=np.float64)[order])
        ref = ray.put((vocab_arr, idf))

        def score(batch: pa.Table) -> pa.Table:
            vocab_a, idf_a = get_broadcast(ref)
            tf = _tf_rows_batch(batch)
            terms = np.asarray(tf["tok"].to_pylist(), dtype=object)
            pos = np.searchsorted(vocab_a, terms)
            pos = np.minimum(pos, max(len(vocab_a) - 1, 0))
            known = vocab_a[pos] == terms if len(vocab_a) else np.zeros(len(terms), bool)
            counts = tf["tf"].to_numpy(zero_copy_only=False)
            scored = pa.table({
                "doc_id": tf["doc_id"],
                "top_term": tf["tok"],
                "score": pa.array(np.round(counts * idf_a[pos], 6), pa.float64()),
            }).filter(pa.array(known))
            return _pick_top(scored) if scored.num_rows else scored

        return docs.map_batches(score, batch_format="pyarrow")

    # join path: vocabulary never leaves the cluster
    from .shuffle import hash_join

    tf_ds = docs.map_batches(_tf_rows_batch, batch_format="pyarrow")
    tf_schema = pa.schema([("doc_id", pa.int64()), ("tok", pa.string()),
                           ("tf", pa.int64())])
    df_schema = pa.schema([("tok", pa.string()), ("df", pa.int64())])
    n_f = float(n_docs)

    def score_group(g: pa.Table) -> pa.Table:
        counts = g["tf"].to_numpy(zero_copy_only=False).astype(np.float64)
        dfv = g["df"].to_numpy(zero_copy_only=False).astype(np.float64)
        # same op order as the broadcast path / oracle: ln(N / df)
        scored = pa.table({
            "doc_id": g["doc_id"],
            "top_term": g["tok"],
            "score": pa.array(np.round(counts * np.log(n_f / dfv), 6),
                              pa.float64()),
        })
        return _pick_top(scored)  # per-join-group partial argmax

    joined = hash_join(tf_ds, df_ds, on="tok", how="inner",
                       left_schema=tf_schema, right_schema=df_schema,
                       merge_post=score_group, merge_post_coarse=True)
    # final per-doc argmax via grouped_topk k=1 — segmented coarse
    # partitions, never one task per document (the map_groups this
    # replaced dispatched corpus-many tiny groups)
    from .shuffle import grouped_topk

    return grouped_topk(joined, by="doc_id",
                        cols=["score", "top_term"],
                        descending=[True, False], k=1)


def content_fingerprints(text_col) -> "pa.Array":
    """md5 hex fingerprint per document text — THE content identity used
    by exact dedup (q_dedup_exact) and the curation funnel; one
    definition so the two can never diverge."""
    import hashlib

    import pyarrow as pa

    if hasattr(text_col, "to_pylist"):
        texts = text_col.to_pylist()
    else:
        texts = list(text_col)
    return pa.array([hashlib.md5(x.encode("utf-8")).hexdigest()
                     for x in texts], pa.string())


def gopher_quality_mask(t) -> "pa.Array":
    """The Gopher-style rule mask of q_quality_filter (20<=n_tokens<=90,
    4<=mean token length<=12, symbol ratio < 0.1, chars > 0) — shared by
    the standalone filter and the curation funnel so a threshold tweak
    changes both (their oracles mirror the same constants)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    i64 = pa.int64()
    toks = pc.split_pattern(t["text"], " ")
    n = pc.list_value_length(toks).cast(i64)
    chars = pc.utf8_length(t["text"]).cast(i64)
    sym = pc.count_substring_regex(t["text"], "[^a-z0-9 ]").cast(i64)
    nf = n.cast(pa.float64())
    mean_len = pc.divide(
        pc.subtract(chars, pc.subtract(n, pa.scalar(1, i64)))
        .cast(pa.float64()), nf)
    sym_ratio = pc.divide(sym.cast(pa.float64()), chars.cast(pa.float64()))
    return pc.and_(
        pc.and_(
            pc.and_(pc.greater_equal(n, 20), pc.less_equal(n, 90)),
            pc.and_(pc.greater_equal(mean_len, 4.0),
                    pc.less_equal(mean_len, 12.0))),
        pc.and_(pc.less(sym_ratio, 0.1), pc.greater(chars, 0)))
