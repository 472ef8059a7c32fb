"""Distributed BPE tokenizer fitting (top-k merge discovery).

Classic byte-pair-encoding training (Sennrich et al. 2016, public
algorithm) decomposed the way it actually scales: the CORPUS-sized pass
is a single word-frequency aggregation (map-side combined groupby); every
merge iteration after that runs over the VOCABULARY Dataset (distinct
word -> count), which is orders of magnitude smaller than the corpus and
never touches the driver. Per iteration:

  1. per-batch: explode each distinct word's current symbol sequence into
     adjacent symbol pairs weighted by the word's corpus count, combine
     within the batch (vectorized groupby);
  2. one global groupby-sum + global_topk(1) picks the best pair
     (count DESC, then (left, right) ASC — deterministic tie-break);
  3. map_batches rewrites each word's symbol sequence with the merge
     applied greedily left-to-right (the standard BPE application order).

The driver only ever holds the k winning merges (k rows). The in-word
merge application is a per-word loop — bounded by vocabulary size and
symbol-sequence length, NOT corpus size, which is the standard BPE
training trade (the corpus-sized work is all in step 0's groupby).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .shuffle import combine_aggregate, partial_aggregate

_SEP = "\x1f"


def word_frequencies(docs, text_col: str = "text"):
    """Corpus pass: distinct word -> count Dataset (whitespace tokens)."""

    def project(t: pa.Table) -> pa.Table:
        toks = pc.list_flatten(pc.split_pattern_regex(t[text_col], r"\s+"))
        toks = toks.filter(pc.not_equal(toks, ""))
        return pa.table({"word": toks})

    return combine_aggregate(docs.map_batches(project, batch_format="pyarrow"),
                             "word", [("n", None, "count_all")])


def _pairs_batch(t: pa.Table) -> pa.Table:
    """Adjacent symbol pairs of each word's current sequence, weighted by
    word count, combined within the batch. Vectorized over the flattened
    symbol stream: split once, pair via shifted views, mask out the
    last symbol of each word."""
    syms = pc.split_pattern(t["syms"].combine_chunks(), _SEP)
    flat = pc.list_flatten(syms)
    lens = pc.list_value_length(syms).to_numpy(zero_copy_only=False)
    n = t["n"].to_numpy(zero_copy_only=False)
    if len(flat) == 0:
        return pa.table({"left": pa.array([], pa.string()),
                         "right": pa.array([], pa.string()),
                         "pn": pa.array([], pa.int64())})
    ends = np.cumsum(lens) - 1  # last symbol index of each word
    mask = np.ones(len(flat), dtype=bool)
    mask[ends] = False  # a pair starts at every index but word-finals
    left = flat.filter(pa.array(mask))
    right_idx = np.flatnonzero(mask) + 1
    right = flat.take(pa.array(right_idx, pa.int64()))
    w = np.repeat(n, np.maximum(lens - 1, 0))
    base = pa.table({"left": left, "right": right,
                     "w": pa.array(w, pa.int64())})
    return partial_aggregate(base, ["left", "right"], [("pn", "w", "sum")])


def _apply_merge(t: pa.Table, left: str, right: str) -> pa.Table:
    """Greedy left-to-right merge of (left, right) -> left+right in each
    word's symbol sequence. Vocabulary-sized loop (see module doc)."""
    out = []
    for s in t["syms"].to_pylist():
        syms = s.split(_SEP)
        merged = []
        i = 0
        while i < len(syms):
            if (i + 1 < len(syms) and syms[i] == left
                    and syms[i + 1] == right):
                merged.append(left + right)
                i += 2
            else:
                merged.append(syms[i])
                i += 1
        out.append(_SEP.join(merged))
    return pa.table({"syms": pa.array(out, pa.string()),
                     "n": t["n"]})


def bpe_top_merges(docs, k: int = 5, text_col: str = "text"):
    """The first ``k`` BPE merges learned from the corpus. Returns a
    small pyarrow Table (rank, left, right, n) — k rows on the driver,
    everything else stays distributed."""
    merges, _ = bpe_fit(docs, k, text_col)
    return merges


def bpe_fit(docs, k: int = 5, text_col: str = "text"):
    """Fit ``k`` merges and ALSO return the post-merge vocabulary
    Dataset (syms, n) — each distinct word's encoded symbol sequence
    with its corpus count. Encoding the corpus then never re-touches
    the corpus: every occurrence of a word shares its vocab row."""
    from ray.data.aggregate import Sum

    from .shuffle import global_topk

    def to_symbols(t: pa.Table) -> pa.Table:
        # initial sequence = the word's characters (vocab-sized loop)
        return pa.table({
            "syms": pa.array([_SEP.join(w) for w in t["word"].to_pylist()],
                             pa.string()),
            "n": t["n"],
        })

    vocab = word_frequencies(docs, text_col).map_batches(
        to_symbols, batch_format="pyarrow").materialize()

    ranks, lefts, rights, counts = [], [], [], []
    for r in range(1, k + 1):
        pair_counts = (vocab.map_batches(_pairs_batch, batch_format="pyarrow")
                       .groupby(["left", "right"])
                       .aggregate(Sum("pn", alias_name="n")))
        top = global_topk(pair_counts, ["n", "left", "right"],
                          [True, False, False], 1).take_all()
        if not top:
            break
        best = top[0]
        lf, rt = best["left"], best["right"]
        ranks.append(r)
        lefts.append(lf)
        rights.append(rt)
        counts.append(int(best["n"]))
        vocab = vocab.map_batches(
            lambda t, lf=lf, rt=rt: _apply_merge(t, lf, rt),
            batch_format="pyarrow").materialize()

    merges = pa.table({
        "rank": pa.array(ranks, pa.int64()),
        "left": pa.array(lefts, pa.string()),
        "right": pa.array(rights, pa.string()),
        "n": pa.array(counts, pa.int64()),
    })
    return merges, vocab


def bpe_encode_token_counts(docs, k: int = 5, text_col: str = "text",
                            topk: int = 20):
    """Corpus token counts AFTER encoding with ``k`` fitted merges —
    the tokenizer-application step, done at VOCABULARY grain: the
    fitted vocab Dataset already holds every distinct word's encoded
    symbol sequence, so the corpus-wide token histogram is one explode
    (symbols weighted by word count) + one groupby over vocab-sized
    data. The corpus is read exactly once (by the fit's word-frequency
    pass); encoding adds zero corpus-sized work. Returns the global
    top-``topk`` (count DESC, token ASC) as a Dataset."""
    from ray.data.aggregate import Sum

    from .shuffle import global_topk

    _, vocab = bpe_fit(docs, k, text_col)

    def explode(t: pa.Table) -> pa.Table:
        syms = pc.split_pattern(t["syms"].combine_chunks(), _SEP)
        flat = pc.list_flatten(syms)
        lens = pc.list_value_length(syms).to_numpy(zero_copy_only=False)
        n = t["n"].to_numpy(zero_copy_only=False)
        if len(flat) == 0:
            return pa.table({"token": pa.array([], pa.string()),
                             "pn": pa.array([], pa.int64())})
        w = np.repeat(n, lens)
        return partial_aggregate(
            pa.table({"token": flat, "w": pa.array(w, pa.int64())}),
            ["token"], [("pn", "w", "sum")])

    counts = (vocab.map_batches(explode, batch_format="pyarrow")
              .groupby("token").aggregate(Sum("pn", alias_name="n")))
    return global_topk(counts, ["n", "token"], [True, False], topk)
