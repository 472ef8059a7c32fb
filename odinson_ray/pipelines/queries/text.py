"""Text analysis and corpus curation over the ``documents`` table.

Token and n-gram statistics, language identification, quality
signals and filters, PII scrubbing, sampling, tokenizer training (BPE)
and encoding, packing and chunking for training, retrieval scores
(TF-IDF, BM25) and the curation funnels built from them.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from odinson_ray.sources.io import read_table, table
from odinson_ray.stages.shuffle import (coarse_groups, combine_aggregate,
                                        partial_aggregate)

from . import query
from .graph import _I64, _STR


STOPWORDS = ("the", "a")


ORACLE_TOKEN_COUNT = """
SELECT doc_id, len(string_split(text, ' ')) AS n_tokens FROM documents
"""


@query("token_count", oracle=ORACLE_TOKEN_COUNT)
def q_token_count(sf_dir: str):

    def f(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t["text"], " ")
        return pa.Table.from_pydict(
            {"doc_id": t["doc_id"], "n_tokens": pc.list_value_length(toks)}
        )

    return table(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        f, batch_format="pyarrow"
    )


ORACLE_QUALITY_SCORE = """
SELECT doc_id,
       len(toks) AS n_tokens,
       round(len(list_filter(toks, x -> x IN ('the', 'a'))) * 1.0 / len(toks), 6) AS stop_ratio,
       round(list_sum(list_transform(toks, x -> len(x))) * 1.0 / len(toks), 6) AS avg_token_len
FROM (SELECT doc_id, string_split(text, ' ') AS toks FROM documents)
"""


@query("quality_score", oracle=ORACLE_QUALITY_SCORE)
def q_quality_score(sf_dir: str):
    """Quality scoring: token count, stopword ratio, mean token length."""

    def f(t: pa.Table) -> pa.Table:
        texts = t["text"].to_pylist()
        n_tokens, stop_ratio, avg_len = [], [], []
        for txt in texts:
            toks = txt.split(" ") if txt else []
            n = len(toks)
            n_tokens.append(n)
            stop_ratio.append(round(sum(tk in STOPWORDS for tk in toks) / n, 6) if n else 0.0)
            avg_len.append(round(sum(len(tk) for tk in toks) / n, 6) if n else 0.0)
        return pa.Table.from_pydict(
            {
                "doc_id": t["doc_id"],
                "n_tokens": pa.array(n_tokens, pa.int64()),
                "stop_ratio": pa.array(stop_ratio, pa.float64()),
                "avg_token_len": pa.array(avg_len, pa.float64()),
            }
        )

    return table(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        f, batch_format="pyarrow"
    )


ORACLE_LANG_COUNTS = "SELECT lang, count(*) AS n FROM documents GROUP BY lang"


@query("lang_counts", oracle=ORACLE_LANG_COUNTS)
def q_lang_counts(sf_dir: str):
    from ray.data.aggregate import Count

    return (
        table(sf_dir, "documents", columns=["lang"])
        .groupby("lang")
        .aggregate(Count(alias_name="n"))
    )


ORACLE_FINGERPRINT = "SELECT doc_id, md5(text) AS fp FROM documents"


@query("fingerprint", oracle=ORACLE_FINGERPRINT)
def q_fingerprint(sf_dir: str):
    """Content fingerprinting (md5 of the exact text)."""

    def f(t: pa.Table) -> pa.Table:
        fps = [hashlib.md5(x.encode("utf-8")).hexdigest() for x in t["text"].to_pylist()]
        return pa.Table.from_pydict({"doc_id": t["doc_id"], "fp": pa.array(fps, pa.string())})

    return table(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        f, batch_format="pyarrow"
    )


ORACLE_LANGID = """
SELECT doc_id,
       CASE WHEN len(list_filter(string_split(text, ' '),
                                 x -> x IN ('the', 'a', 'of', 'and', 'to', 'in', 'is'))) > 0
            THEN 'en' ELSE 'de' END AS lang_pred
FROM documents
"""


@query("langid", oracle=ORACLE_LANGID)
def q_langid(sf_dir: str):
    """Heuristic language ID by function-word profiles. Over this corpus
    the decision reduces to: any en function word -> 'en', else the first
    profile in sorted order ('de') — which is what the oracle encodes."""

    from odinson_ray.stages.text import langid_batch

    return table(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        langid_batch, batch_format="pyarrow"
    )


ORACLE_STRATIFIED_SAMPLE = """
SELECT doc_id, lang, text
FROM documents
WHERE (doc_id * 2654435761) % 4294967296 % 10
      < CASE WHEN lang = 'en' THEN 5 ELSE 2 END
"""


@query("stratified_sample", oracle=ORACLE_STRATIFIED_SAMPLE)
def q_stratified_sample(sf_dir: str):
    """Deterministic hash-based per-language sampling (no RNG, no shuffle:
    membership is a pure function of doc_id, so the sample is reproducible
    and resumable at any cluster size)."""
    from odinson_ray.stages.sample import stratified_sample

    return stratified_sample(sf_dir, rates={"en": 5}, default_tenths=2)


ORACLE_SCRUB_PII = r"""
SELECT doc_id,
       regexp_replace(
         regexp_replace(
           regexp_replace(text,
             '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}', '[EMAIL]', 'g'),
           '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b', '[IP]', 'g'),
         '\b\d{6,}\b', '[NUM]', 'g') AS clean_text,
       regexp_replace(
         regexp_replace(
           regexp_replace(text,
             '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}', '[EMAIL]', 'g'),
           '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b', '[IP]', 'g'),
         '\b\d{6,}\b', '[NUM]', 'g') <> text AS redacted
FROM documents
"""


@query("scrub_pii", oracle=ORACLE_SCRUB_PII)
def q_scrub_pii(sf_dir: str):
    """PII redaction via Arrow RE2 kernels; oracle applies the identical
    patterns with DuckDB's RE2 regexp_replace."""
    from odinson_ray.stages.text import scrub_pii

    return scrub_pii(sf_dir)


# ============================================================ quality filtering


ORACLE_QUALITY_FILTER = """
WITH m AS (
  SELECT doc_id, len(string_split(text, ' ')) AS n_tokens,
         length(text) AS chars,
         length(text) - length(regexp_replace(text, '[^a-z0-9 ]', '', 'g')) AS sym
  FROM documents
)
SELECT doc_id, n_tokens,
       round((chars - (n_tokens - 1)) * 1.0 / n_tokens, 6) AS mean_tok_len,
       round(sym * 1.0 / chars, 6) AS symbol_ratio
FROM m
WHERE n_tokens BETWEEN 20 AND 90
  AND (chars - (n_tokens - 1)) * 1.0 / n_tokens BETWEEN 4 AND 12
  AND sym * 1.0 / chars < 0.1 AND chars > 0
"""


@query("quality_filter", oracle=ORACLE_QUALITY_FILTER)
def q_quality_filter(sf_dir: str):
    """Gopher-style rule-based document filter: keep docs with
    20 <= n_tokens <= 90, 4 <= mean token length <= 12 and a
    symbol-character ratio < 0.1 (bounds chosen to genuinely split the
    synthetic corpus; ~20% of docs fail); returns the kept docs with their
    metrics. Pure vectorized Arrow kernels (RE2 char class == DuckDB's)."""

    def f(t: pa.Table) -> pa.Table:
        from odinson_ray.stages.text import gopher_quality_mask

        toks = pc.split_pattern(t["text"], " ")
        n = pc.list_value_length(toks).cast(pa.int64())
        chars = pc.utf8_length(t["text"]).cast(pa.int64())
        sym = pc.count_substring_regex(t["text"], "[^a-z0-9 ]").cast(pa.int64())
        nf = n.cast(pa.float64())
        mean_len = pc.divide(
            pc.subtract(chars, pc.subtract(n, pa.scalar(1, pa.int64()))).cast(pa.float64()),
            nf,
        )
        sym_ratio = pc.divide(sym.cast(pa.float64()), chars.cast(pa.float64()))
        keep = gopher_quality_mask(t)  # the SHARED rule mask (funnel twin)
        out = pa.table({
            "doc_id": t["doc_id"],
            "n_tokens": n,
            "mean_tok_len": pc.round(mean_len, 6),
            "symbol_ratio": pc.round(sym_ratio, 6),
        })
        return out.filter(keep)

    return table(
        sf_dir, "documents", columns=["doc_id", "text"]
    ).map_batches(f, batch_format="pyarrow")


# =============================================================== n-gram counts


ORACLE_TOP_BIGRAMS = """
WITH toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok,
         unnest(generate_series(1, len(string_split(text, ' ')))) AS p
  FROM documents
)
SELECT a.tok || ' ' || b.tok AS bigram, CAST(count(*) AS BIGINT) AS n
FROM toks a JOIN toks b ON b.doc_id = a.doc_id AND b.p = a.p + 1
GROUP BY 1 ORDER BY n DESC, bigram LIMIT 50
"""


@query("top_bigrams", oracle=ORACLE_TOP_BIGRAMS)
def q_top_bigrams(sf_dir: str):
    """Corpus-wide bigram counts, top 50 by (count desc, bigram asc).
    Combiner discipline: per-batch value_counts shrink the shuffle to one
    row per distinct bigram per batch; global_topk prunes per batch before
    the final distributed sort."""
    from ray.data.aggregate import Sum

    from odinson_ray.stages.shuffle import global_topk

    def partial(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t["text"], " ")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = np.asarray(toks.flatten(), dtype=object)
        lens = np.asarray(pc.list_value_length(toks), dtype=np.int64)
        empty = pa.table({
            "bigram": pa.array([], pa.string()),
            "partial_n": pa.array([], pa.int64()),
        })
        if len(flat) == 0:
            return empty
        ends = np.cumsum(lens)
        mask = np.ones(len(flat), dtype=bool)
        mask[ends - 1] = False  # a doc's last token starts no bigram
        li = np.flatnonzero(mask)
        if len(li) == 0:
            return empty
        big = np.frompyfunc(lambda a, b: a + " " + b, 2, 1)(flat[li], flat[li + 1])
        vc = pd.Series(big).value_counts()
        return pa.table({
            "bigram": pa.array(vc.index.to_numpy(dtype=object), pa.string()),
            "partial_n": pa.array(vc.to_numpy(dtype=np.int64)),
        })

    counts = (
        table(sf_dir, "documents", columns=["text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("bigram")
        .aggregate(Sum("partial_n", alias_name="n"))
    )
    return global_topk(counts, ["n", "bigram"], [True, False], 50)


ORACLE_REPETITION_SIGNALS = """
WITH toks AS (SELECT doc_id, string_split(text, ' ') AS t FROM documents),
flat AS (SELECT doc_id, unnest(t) AS tok,
         unnest(generate_series(1, len(t))) AS p, len(t) AS n FROM toks),
dist AS (SELECT doc_id, count(DISTINCT tok) AS nd, any_value(n) AS n
         FROM flat GROUP BY doc_id),
big AS (SELECT a.doc_id, a.tok || ' ' || b.tok AS bg
        FROM flat a JOIN flat b ON a.doc_id = b.doc_id AND b.p = a.p + 1),
bgtop AS (SELECT doc_id, max(c) AS mc FROM
            (SELECT doc_id, bg, count(*) AS c FROM big GROUP BY doc_id, bg)
          GROUP BY doc_id)
SELECT d.doc_id, d.n AS n_tokens,
       round(1.0 - d.nd / d.n, 6) AS dup_tok_frac,
       round(2.0 * coalesce(b.mc, 0) / d.n, 6) AS top_bigram_frac
FROM dist d LEFT JOIN bgtop b USING (doc_id)
"""


@query("repetition_signals", oracle=ORACLE_REPETITION_SIGNALS)
def q_repetition_signals(sf_dir: str):
    """Gopher-style repetition metrics per doc: duplicate-token fraction
    and top-bigram fraction, fully vectorized per batch (no shuffle)."""
    from odinson_ray.stages.curate import repetition_signals

    return repetition_signals(sf_dir)


ORACLE_PACK_CHUNKS = """
WITH toks AS (SELECT doc_id, string_split(text, ' ') AS t FROM documents)
SELECT doc_id, CAST((s - 1) / 24 AS BIGINT) AS chunk_id,
       CAST(least(32, len(t) - s + 1) AS BIGINT) AS n_tokens,
       t[s] AS head
FROM (SELECT doc_id, t, unnest(generate_series(1, len(t), 24)) AS s FROM toks)
"""


@query("pack_chunks", oracle=ORACLE_PACK_CHUNKS)
def q_pack_chunks(sf_dir: str):
    """Training-sequence preparation: fixed 32-token windows at stride 24
    over each doc's token stream (pure per-batch index arithmetic)."""
    from odinson_ray.stages.curate import pack_chunks

    return pack_chunks(sf_dir, width=32, stride=24)


# ===================================== corpus term statistics / domain mixing


ORACLE_DOC_FREQUENCY = """
SELECT tok, count(DISTINCT doc_id) AS df
FROM (SELECT doc_id, unnest(string_split(text, ' ')) AS tok FROM documents)
GROUP BY tok
"""


@query("doc_frequency", oracle=ORACLE_DOC_FREQUENCY)
def q_doc_frequency(sf_dir: str):
    from ...stages.text import doc_frequency

    return doc_frequency(sf_dir)


ORACLE_TFIDF_TOP_TERM = """
WITH toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok FROM documents
),
tf AS (
  SELECT doc_id, tok, CAST(count(*) AS BIGINT) AS tf FROM toks GROUP BY doc_id, tok
),
df AS (
  SELECT tok, count(DISTINCT doc_id) AS df FROM toks GROUP BY tok
),
scored AS (
  SELECT doc_id, tok,
         round(tf * ln(CAST((SELECT count(*) FROM documents) AS DOUBLE) / df), 6) AS score
  FROM tf JOIN df USING (tok)
)
SELECT doc_id, tok AS top_term, score
FROM scored
QUALIFY row_number() OVER (PARTITION BY doc_id ORDER BY score DESC, tok) = 1
"""


@query("tfidf_top_term", oracle=ORACLE_TFIDF_TOP_TERM)
def q_tfidf_top_term(sf_dir: str):
    from ...stages.text import tfidf_top_term

    return tfidf_top_term(sf_dir)


ORACLE_DOMAIN_MIX = """
WITH w AS (
  SELECT doc_id, source,
         CASE WHEN source = 'src0' THEN 25
              WHEN source = 'src1' THEN 3
              ELSE 10 END AS tw,
         (doc_id * 2654435761) % 4294967296 % 10 AS b
  FROM documents
)
SELECT doc_id, source,
       unnest(range(0, tw // 10 + CASE WHEN b < tw % 10 THEN 1 ELSE 0 END)) AS copy
FROM w
"""


@query("domain_mix", oracle=ORACLE_DOMAIN_MIX)
def q_domain_mix(sf_dir: str):
    from ...stages.sample import domain_mix

    return domain_mix(sf_dir)


# ===================================== BM25 retrieval top-k
BM25_QUERY = ("scan", "window", "merge")


_BM25_K1, _BM25_B = 1.2, 0.75


ORACLE_BM25_TOPK = """
WITH toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok FROM documents
),
dl AS (SELECT doc_id, count(*) AS len FROM toks GROUP BY doc_id),
stats AS (SELECT count(*) AS n, avg(len) AS avg_len FROM dl),
q(tok) AS (VALUES ('scan'), ('window'), ('merge')),
df AS (
  SELECT tok, count(DISTINCT doc_id) AS df FROM toks
  WHERE tok IN (SELECT tok FROM q) GROUP BY tok
),
tf AS (
  SELECT doc_id, tok, CAST(count(*) AS DOUBLE) AS tf FROM toks
  WHERE tok IN (SELECT tok FROM q) GROUP BY doc_id, tok
),
scored AS (
  SELECT tf.doc_id,
         sum(ln((stats.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
             * (tf.tf * 2.2)
             / (tf.tf + 1.2 * (0.25 + 0.75 * dl.len / stats.avg_len))) AS s
  FROM tf JOIN df USING (tok) JOIN dl USING (doc_id) CROSS JOIN stats
  GROUP BY tf.doc_id
)
SELECT doc_id, round(s, 6) AS score FROM scored
WHERE round(s, 6) > 0
ORDER BY score DESC, doc_id ASC LIMIT 10
"""


@query("bm25_topk", oracle=ORACLE_BM25_TOPK)
def q_bm25_topk(sf_dir: str, k: int = 10):
    """BM25 top-k documents for a fixed term query (Okapi BM25,
    idf = ln((N - df + 0.5)/(df + 0.5) + 1), k1=1.2, b=0.75; score
    rounded to 6dp, doc_id ascending tie-break).

    Distributed shape: the df aggregation is FILTERED TO THE QUERY TERMS
    inside the per-batch combiner (per-batch rows <= |query|), so the
    driver broadcast is |query|-sized regardless of corpus vocabulary;
    avg doc length comes from one Sum/Count aggregate; scoring is one
    vectorized map over the document stream feeding global_topk (per-
    batch prune, the final sort sees <= k x batches rows)."""
    import ray
    from ray.data.aggregate import Sum

    from odinson_ray.stages.link import get_broadcast
    from odinson_ray.stages.shuffle import global_topk
    from odinson_ray.stages.text import df_partial_batch

    terms = sorted(BM25_QUERY)
    term_set = pa.array(terms, pa.string())

    def df_query_terms(t: pa.Table) -> pa.Table:
        part = df_partial_batch(t)
        return part.filter(pc.is_in(part["tok"], value_set=term_set))

    docs = table(sf_dir, "documents",
                 columns=["doc_id", "text"])
    dfs = {r["tok"]: r["df"] for r in (
        docs.map_batches(df_query_terms, batch_format="pyarrow")
        .groupby("tok").aggregate(Sum("partial_df", alias_name="df"))
        .take_all()  # <= |query| rows by construction
    )}

    def len_partial(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t["text"], " ")
        n = pc.sum(pc.list_value_length(toks)).as_py() or 0
        return pa.table({"_n_tok": pa.array([n], pa.int64()),
                         "_n_doc": pa.array([len(t)], pa.int64())})

    totals = (
        docs.map_batches(len_partial, batch_format="pyarrow")
        .map_batches(
            lambda t: pa.table({
                "_n_tok": pa.array([pc.sum(t["_n_tok"]).as_py() or 0], pa.int64()),
                "_n_doc": pa.array([pc.sum(t["_n_doc"]).as_py() or 0], pa.int64()),
            }),
            batch_size=1 << 20, batch_format="pyarrow")
        .take_all()
    )
    n_docs = sum(r["_n_doc"] for r in totals)
    avg_len = sum(r["_n_tok"] for r in totals) / n_docs
    idf = {t: float(np.log((n_docs - dfs.get(t, 0) + 0.5)
                           / (dfs.get(t, 0) + 0.5) + 1.0)) for t in terms}
    ref = ray.put((terms, idf, avg_len))

    def score(batch: pa.Table) -> pa.Table:
        q_terms, q_idf, avg = get_broadcast(ref)
        toks = pc.split_pattern(batch["text"], " ")
        dl = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.float64)
        norm = _BM25_K1 * (1.0 - _BM25_B + _BM25_B * dl / avg)
        total = np.zeros(len(batch), dtype=np.float64)
        flat = pa.table({"_row": pc.list_parent_indices(toks),
                         "tok": pc.list_flatten(toks)})
        for t in q_terms:
            hit = flat.filter(pc.equal(flat["tok"], t))
            tf = np.zeros(len(batch), dtype=np.float64)
            rows = hit["_row"].to_numpy(zero_copy_only=False)
            np.add.at(tf, rows, 1.0)
            total += q_idf[t] * (tf * (_BM25_K1 + 1.0)) / (tf + norm)
        out = pa.table({
            "doc_id": batch["doc_id"],
            "score": pa.array(np.round(total, 6), pa.float64()),
        })
        return out.filter(pc.greater(out["score"], 0.0))

    scored = docs.map_batches(score, batch_format="pyarrow")
    return global_topk(scored, ["score", "doc_id"], [True, False], k)


# ===================================== deterministic train/val/test split


ORACLE_DOC_SPLIT_COUNTS = """
WITH b AS (
  SELECT CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)) AS UBIGINT)
         % 100 AS bucket
  FROM documents
)
SELECT CASE WHEN bucket < 80 THEN 'train'
            WHEN bucket < 90 THEN 'val' ELSE 'test' END AS split,
       count(*) AS n_docs
FROM b GROUP BY 1
"""


@query("doc_split_counts", oracle=ORACLE_DOC_SPLIT_COUNTS)
def q_doc_split_counts(sf_dir: str):
    """Deterministic hash split (train/val/test 80/10/10): bucket =
    first-8-hex-chars of md5(doc_id as string) mod 100 — a pure function
    of the key, so assignment is reproducible at any parallelism, any
    retry, any shard order (the property a 100-TB split must have; no
    RNG state, no coordination). Returns per-split doc counts."""

    def assign(t: pa.Table) -> pa.Table:
        import hashlib

        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        buckets = np.fromiter(
            (int(hashlib.md5(str(i).encode()).hexdigest()[:8], 16) % 100
             for i in ids), dtype=np.int64, count=len(ids))
        split = np.where(buckets < 80, "train",
                         np.where(buckets < 90, "val", "test"))
        return pa.table({"split": pa.array(split.tolist(), pa.string())})

    return combine_aggregate(
        table(sf_dir, "documents", columns=["doc_id"])
        .map_batches(assign, batch_format="pyarrow"),
        "split", [("n_docs", None, "count_all")])


# ===================================== corpus top-k tokens (heavy hitters)


ORACLE_TOP_TOKENS = """
WITH t AS (SELECT unnest(string_split(text, ' ')) AS tok FROM documents)
SELECT tok, CAST(count(*) AS BIGINT) AS n FROM t
GROUP BY tok ORDER BY n DESC, tok ASC LIMIT 20
"""


@query("top_tokens", oracle=ORACLE_TOP_TOKENS)
def q_top_tokens(sf_dir: str, k: int = 20):
    """Exact corpus-wide top-k tokens by total occurrence count: per-batch
    token-count combiner (one row per distinct token per batch) ->
    groupby sum -> global top-k (count desc, token asc)."""
    from odinson_ray.stages.shuffle import global_topk

    def partial(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t["text"], " ")
        return pa.table({"tok": pc.list_flatten(toks)})

    counts = combine_aggregate(
        table(sf_dir, "documents", columns=["text"])
        .map_batches(partial, batch_format="pyarrow"),
        "tok", [("n", None, "count_all")])
    return global_topk(counts, ["n", "tok"], [True, False], k)


# ===================================== bigram successor model


ORACLE_BIGRAM_NEXT = """
WITH toks AS (
  SELECT doc_id, string_split(text, ' ') AS ts FROM documents WHERE len(string_split(text, ' ')) >= 2
),
bi AS (
  SELECT unnest(ts[1:len(ts)-1]) AS tok, unnest(ts[2:len(ts)]) AS next FROM toks
),
c AS (SELECT tok, next, CAST(count(*) AS BIGINT) AS n FROM bi GROUP BY tok, next)
SELECT tok, next, n FROM c
QUALIFY row_number() OVER (PARTITION BY tok ORDER BY n DESC, next ASC) = 1
"""


@query("bigram_next", oracle=ORACLE_BIGRAM_NEXT)
def q_bigram_next(sf_dir: str):
    """For every token, its most frequent successor (count desc, successor
    asc tie-break) with the bigram count — the unsmoothed argmax of a
    bigram LM's conditional. Per-batch bigram-count combiner -> groupby
    sum over (tok, next) -> per-key argmax via the grouped-topk pattern
    (per-batch prune keeps <= 1 row per tok, so no hot head-word floods
    one reducer)."""
    from odinson_ray.stages.shuffle import grouped_topk

    def partial(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t["text"], " ")
        flat = pc.list_flatten(toks).to_numpy(zero_copy_only=False)
        rows = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        same_doc = rows[1:] == rows[:-1]
        return pa.table({
            "tok": pa.array(flat[:-1][same_doc].tolist(), pa.string()),
            "next": pa.array(flat[1:][same_doc].tolist(), pa.string()),
        })

    counts = combine_aggregate(
        table(sf_dir, "documents", columns=["text"])
        .map_batches(partial, batch_format="pyarrow"),
        ["tok", "next"], [("n", None, "count_all")])
    return grouped_topk(counts, "tok", ["n", "next"], [True, False], 1)


# ===================================== bigram-LM document perplexity


ORACLE_DOC_PERPLEXITY = """
WITH toks AS (
  SELECT doc_id, string_split(text, ' ') AS ts FROM documents
  WHERE len(string_split(text, ' ')) >= 2
),
bi AS (
  SELECT doc_id, unnest(ts[1:len(ts)-1]) AS tok, unnest(ts[2:len(ts)]) AS next
  FROM toks
),
m AS (SELECT tok, next, CAST(count(*) AS DOUBLE) AS c_bg FROM bi GROUP BY tok, next),
h AS (SELECT tok, CAST(count(*) AS DOUBLE) AS c_head FROM bi GROUP BY tok)
SELECT bi.doc_id, round(avg(-ln(m.c_bg / h.c_head)), 6) AS avg_nll
FROM bi JOIN m USING (tok, next) JOIN h USING (tok)
GROUP BY bi.doc_id
"""


@query("doc_perplexity", oracle=ORACLE_DOC_PERPLEXITY)
def q_doc_perplexity(sf_dir: str):
    """Per-document cross-entropy under the corpus's own unsmoothed bigram
    model: mean over a doc's bigram positions of -ln(c(tok,next)/c(tok,*)),
    rounded to 6dp (docs with < 2 tokens drop out).

    Fully distributed, NO model on the driver (the tfidf join-path shape):
    bigram-count partials shuffle on coarse hash(head) partitions (the
    tiny-group rule, r4 sweep — one group per head would dispatch one
    task per vocabulary word); every head's rows land whole in one
    partition, where two in-task Arrow groupbys + one in-task join
    produce (bg, c_bg, c_head) with no cross-partition traffic. Per-doc
    distinct-bigram rows then hash-join the (bg, c_bg, c_head) model
    Dataset on the composite key; per-group (doc_id, sum_nll, n)
    partials come out of the join reducer and one groupby(doc_id)
    finishes the mean. At web scale the bigram model (|V|^2-bounded) is
    exactly the table one must NOT broadcast. A head's group is bounded
    by its distinct-successor count (vocabulary-, not corpus-sized), and
    the per-batch combiner keeps its fan-in to one row per batch."""
    from odinson_ray.stages.shuffle import hash_join

    docs = table(sf_dir, "documents",
                 columns=["doc_id", "text"])

    SEP = "\x1f"

    def _bigram_tbl(t: pa.Table):
        """(row_idx, head, next) arrays as an Arrow table — bigrams never
        cross documents; all string work stays in Arrow kernels."""
        toks = pc.split_pattern(t["text"], " ")
        flat = pc.list_flatten(toks).combine_chunks()
        rows = pc.list_parent_indices(toks).combine_chunks()
        n = len(flat)
        if n < 2:
            return None
        head = flat.slice(0, n - 1)
        nxt = flat.slice(1, n - 1)
        same = pc.equal(rows.slice(0, n - 1), rows.slice(1, n - 1))
        return pa.table({"_row": rows.slice(0, n - 1), "head": head,
                         "next": nxt}).filter(same)

    def model_partial(t: pa.Table) -> pa.Table:
        bi = _bigram_tbl(t)
        if bi is None:
            return pa.table({"head": pa.array([], pa.string()),
                             "next": pa.array([], pa.string()),
                             "partial_n": pa.array([], pa.int64())})
        return partial_aggregate(bi.select(["head", "next"]), ["head", "next"],
                                 [("partial_n", None, "count_all")])

    def model_partition(g: pa.Table) -> pa.Table:
        """One coarse partition of heads -> (bg, c_bg, c_head) rows."""
        agg = partial_aggregate(g, ["head", "next"],
                                [("c_bg", "partial_n", "sum")])
        hd = partial_aggregate(agg, ["head"], [("c_head", "c_bg", "sum")])
        j = agg.join(hd, keys="head").combine_chunks()
        return pa.table({
            "bg": pc.binary_join_element_wise(j["head"].combine_chunks(),
                                              j["next"].combine_chunks(), SEP),
            "c_bg": j["c_bg"],
            "c_head": j["c_head"],
        })

    model_full = coarse_groups(
        docs.map_batches(model_partial, batch_format="pyarrow"),
        ["head"], model_partition)

    def doc_rows(t: pa.Table) -> pa.Table:
        bi = _bigram_tbl(t)
        if bi is None:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "bg": pa.array([], pa.string()),
                             "n_pos": pa.array([], pa.int64())})
        ids = t["doc_id"].combine_chunks().cast(pa.int64()).take(bi["_row"])
        pairs = pa.table({
            "doc_id": ids,
            "bg": pc.binary_join_element_wise(bi["head"].combine_chunks(),
                                              bi["next"].combine_chunks(), SEP),
        })
        return partial_aggregate(pairs, ["doc_id", "bg"],
                                 [("n_pos", None, "count_all")])

    doc_bg = docs.map_batches(doc_rows, batch_format="pyarrow")
    i64, s = pa.int64(), pa.string()

    def score_group(g: pa.Table) -> pa.Table:
        """One bigram's group: every doc row gets the same -ln(c_bg/c_head);
        emit per-doc partial (sum_nll, n) rows."""
        nll = -np.log(g["c_bg"].to_numpy(zero_copy_only=False).astype(np.float64)
                      / g["c_head"].to_numpy(zero_copy_only=False).astype(np.float64))
        n_pos = g["n_pos"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({
            "doc_id": g["doc_id"],
            "_nll": pa.array(nll * n_pos, pa.float64()),
            "_n": pa.array(n_pos, pa.float64()),
        })

    joined = hash_join(
        doc_bg, model_full, on="bg",
        left_schema=pa.schema([("doc_id", i64), ("bg", s), ("n_pos", i64)]),
        right_schema=pa.schema([("bg", s), ("c_bg", i64), ("c_head", i64)]),
        merge_post=score_group)

    sums = combine_aggregate(joined, "doc_id",
                             [("nll", "_nll", "sum"), ("n", "_n", "sum")])
    return sums.map_batches(
        lambda t: pa.table({
            "doc_id": t["doc_id"],
            "avg_nll": pa.array(
                np.round(t["nll"].to_numpy(zero_copy_only=False)
                         / t["n"].to_numpy(zero_copy_only=False), 6),
                pa.float64()),
        }),
        batch_format="pyarrow")


# ===================================== per-source length-percentile filter


ORACLE_PER_SOURCE_LONG_DOCS = """
WITH d AS (
  SELECT doc_id, source, len(string_split(text, ' ')) AS n_tokens
  FROM documents
),
q AS (SELECT source, quantile_disc(n_tokens, 0.9) AS p90 FROM d GROUP BY source)
SELECT d.doc_id, d.source, CAST(d.n_tokens AS BIGINT) AS n_tokens
FROM d JOIN q USING (source) WHERE d.n_tokens > q.p90
"""


@query("per_source_long_docs", oracle=ORACLE_PER_SOURCE_LONG_DOCS)
def q_per_source_long_docs(sf_dir: str):
    """Docs longer than their source's p90 token count (quantile_disc
    semantics: sorted[ceil(0.9 n)-1], strictly greater). The SCALABLE
    exact-quantile shape: per-batch (source, n_tokens, count) combiner ->
    one groupby over DISTINCT (source, length) rows -> per-source
    threshold from cumulative counts (distinct lengths per source is
    bounded, never row count) -> thresholds broadcast -> one filtered
    map over the doc stream. Contrast value_quantiles' one-group-per-key
    form, which holds a key's raw rows."""
    import math

    import ray

    from odinson_ray.stages.link import get_broadcast

    docs = table(sf_dir, "documents",
                 columns=["doc_id", "source", "text"])

    def len_project(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t["text"], " ")
        return pa.table({
            "source": t["source"],
            "n_tokens": pc.cast(pc.list_value_length(toks), pa.int64()),
        })

    hist = combine_aggregate(
        docs.map_batches(len_project, batch_format="pyarrow"),
        ["source", "n_tokens"], [("c", None, "count_all")])

    def threshold(g: pa.Table) -> pa.Table:
        o = pc.sort_indices(g["n_tokens"])
        lens = g["n_tokens"].take(o).to_numpy(zero_copy_only=False)
        counts = g["c"].take(o).to_numpy(zero_copy_only=False)
        n = int(counts.sum())
        rank = max(0, math.ceil(0.9 * n) - 1)
        p90 = int(lens[np.searchsorted(np.cumsum(counts), rank + 1)])
        return pa.table({"source": g["source"].slice(0, 1),
                         "p90": pa.array([p90], pa.int64())})

    thresholds = {r["source"]: r["p90"] for r in
                  hist.groupby("source").map_groups(
                      threshold, batch_format="pyarrow").take_all()}
    ref = ray.put(thresholds)

    def long_docs(t: pa.Table) -> pa.Table:
        th = get_broadcast(ref)
        toks = pc.split_pattern(t["text"], " ")
        n_tok = pc.cast(pc.list_value_length(toks), pa.int64())
        cut = pa.array([th[s] for s in t["source"].to_pylist()], pa.int64())
        out = pa.table({"doc_id": t["doc_id"], "source": t["source"],
                        "n_tokens": n_tok})
        return out.filter(pc.greater(n_tok, cut))

    return docs.map_batches(long_docs, batch_format="pyarrow")


# ===================================== CountMin heavy hitters (approximate)
@query("cms_token_counts")
def q_cms_token_counts(sf_dir: str):
    """Approximate corpus heavy hitters from a 128-KiB linear sketch
    (stages/sketch.cms_token_counts): per-batch CMS partials + local
    candidates, tree-merged; the token stream itself never shuffles
    (contrast exact top_tokens, which groups distinct tokens).
    Approximate BY DESIGN -> no SQL oracle; the pytest pins CMS's
    one-sided error bound against exact counts."""
    from odinson_ray.stages.sketch import cms_token_counts

    docs = table(sf_dir, "documents", columns=["text"])
    return cms_token_counts(docs, top_k=20)


# ===================================== per-document token entropy


ORACLE_TOKEN_ENTROPY = """
WITH cnt AS (
  SELECT doc_id, tok, count(*) AS c
  FROM (SELECT doc_id, unnest(string_split(text, ' ')) AS tok FROM documents)
  GROUP BY doc_id, tok
), tot AS (SELECT doc_id, sum(c) AS n FROM cnt GROUP BY doc_id)
SELECT doc_id, CAST(n AS BIGINT) AS n_tokens,
       round(ln(n) - sum(c * ln(c)) / n, 6) AS entropy
FROM cnt JOIN tot USING (doc_id) GROUP BY doc_id, n
"""


@query("token_entropy", oracle=ORACLE_TOKEN_ENTROPY)
def q_token_entropy(sf_dir: str):
    """Unigram (Shannon) entropy per document in nats — a vocabulary-
    diversity quality signal (low entropy = repetitive/template text).
    Fully vectorized per batch: list-flatten + parent indices, one Arrow
    groupby over (row, token), two bincounts; H = ln(n) - sum(c ln c)/n.
    Embarrassingly parallel — a document never leaves its batch."""

    def ent(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t["text"], " ")
        parent = pc.list_parent_indices(toks)
        tb = pa.table({"p": parent, "tok": pc.list_flatten(toks)})
        g = partial_aggregate(tb, ["p", "tok"], [("c", None, "count_all")])
        p = g["p"].to_numpy(zero_copy_only=False)
        c = g["c"].to_numpy(zero_copy_only=False).astype(np.float64)
        n = np.bincount(p, weights=c, minlength=len(t))
        s = np.bincount(p, weights=c * np.log(c), minlength=len(t))
        with np.errstate(divide="ignore", invalid="ignore"):
            h = np.where(n > 0, np.log(n) - s / np.maximum(n, 1.0), 0.0)
        return pa.table({
            "doc_id": t["doc_id"],
            "n_tokens": pa.array(n.astype(np.int64), pa.int64()),
            "entropy": pa.array(np.round(h, 6), pa.float64()),
        })

    return (
        table(sf_dir, "documents",
              columns=["doc_id", "text"])
        .map_batches(ent, batch_format="pyarrow")
    )


# ===================================== per-source token budget prefix


ORACLE_TOKEN_BUDGET = """
SELECT doc_id, source, CAST(cum AS BIGINT) AS cum_tokens FROM (
  SELECT doc_id, source,
         sum(len(string_split(text, ' ')))
           OVER (PARTITION BY source ORDER BY doc_id) AS cum
  FROM documents
) WHERE cum <= 3000
"""


@query("token_budget", oracle=ORACLE_TOKEN_BUDGET)
def q_token_budget(sf_dir: str, budget: int = 3000):
    """Per-source token-budget curriculum prefix: walk each source's
    docs in doc_id order and keep rows while the cumulative token count
    stays within ``budget`` — the deterministic "take the first N
    tokens per domain" mixing primitive. Rides running_total's skew-safe
    two-stage (key, bucket) cumulative machinery (doc_id recast as a
    fake microsecond timestamp so 1000-doc ranges form the buckets); a
    hot source never lands in one task."""
    from odinson_ray.stages.window import running_total

    def prep(t: pa.Table) -> pa.Table:
        ntok = pc.list_value_length(pc.split_pattern(t["text"], " "))
        return pa.table({
            "doc_id": t["doc_id"],
            "source": t["source"],
            "ts": pc.multiply(t["doc_id"], 1_000_000).cast(pa.timestamp("us")),
            "n_tok": pc.cast(ntok, pa.float64()),
        })

    ds = (table(sf_dir, "documents",
                columns=["doc_id", "source", "text"])
          .map_batches(prep, batch_format="pyarrow"))
    rt = running_total(ds, key="source", ts="ts", order="doc_id",
                       value="n_tok", out="cum", ndigits=0, bucket_s=1000)

    def fin(t: pa.Table) -> pa.Table:
        cum = t["cum"].to_numpy(zero_copy_only=False)
        keep = cum <= budget
        return pa.table({
            "doc_id": t["doc_id"].filter(pa.array(keep)),
            "source": t["source"].filter(pa.array(keep)),
            "cum_tokens": pa.array(cum[keep].astype(np.int64), pa.int64()),
        })

    return rt.map_batches(fin, batch_format="pyarrow")


# ===================================== weighted sample (Efraimidis-Spirakis)


ORACLE_WEIGHTED_SAMPLE = """
WITH scored AS (
  SELECT doc_id, n_chars,
         POW(((doc_id * 2654435761) % 4294967296 + 0.5) / 4294967296.0,
             1.0 / n_chars) AS s
  FROM documents
)
SELECT doc_id, n_chars, CAST(FLOOR(s * 1000000) AS BIGINT) AS skey_e6
FROM scored ORDER BY s DESC, doc_id LIMIT 100
"""


@query("weighted_sample", oracle=ORACLE_WEIGHTED_SAMPLE)
def q_weighted_sample(sf_dir: str, k: int = 100):
    """Deterministic weighted sample without replacement (Efraimidis-
    Spirakis A-ES): every doc draws a hash-uniform u(doc_id) and scores
    skey = u^(1/weight); the global top-k by skey is an exact weighted
    sample — P(doc in sample) follows its weight share, here n_chars.

    Distributed shape: score + per-batch top-k prune inside map_batches,
    then one tiny final sort (global_topk) — no full-data shuffle, no RNG
    state. Membership is a pure function of doc_id (same Knuth-hash
    uniform as stratified_sample), so the sample is reproducible and
    resumable at any parallelism and the SQL oracle expresses the
    identical draw. skey is emitted as floor(skey * 1e6) — an integer —
    so the compared values carry no float-representation hazard."""
    from odinson_ray.stages.shuffle import global_topk

    def score(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        u = (((ids * np.uint64(2654435761)) % np.uint64(1 << 32))
             .astype(np.float64) + 0.5) / float(1 << 32)
        w = t["n_chars"].to_numpy(zero_copy_only=False).astype(np.float64)
        s = np.power(u, 1.0 / w)
        return pa.table({
            "doc_id": t["doc_id"], "n_chars": t["n_chars"],
            "skey_e6": pa.array(np.floor(s * 1e6).astype(np.int64),
                                pa.int64()),
            "_s": pa.array(s, pa.float64()),
        })

    ds = (
        table(sf_dir, "documents",
              columns=["doc_id", "n_chars"])
        .map_batches(score, batch_format="pyarrow")
    )
    top = global_topk(ds, ["_s", "doc_id"], [True, False], k)
    return top.map_batches(
        lambda t: t.select(["doc_id", "n_chars", "skey_e6"]),
        batch_format="pyarrow")


# ===================================== trending tokens per day


ORACLE_TRENDING_TOKENS = """
WITH tok AS (
  SELECT doc_id % 7 AS day, unnest(string_split(text, ' ')) AS token
  FROM documents
), cnt AS (
  SELECT day, token, count(*) AS n FROM tok GROUP BY day, token
)
SELECT day, token, n FROM (
  SELECT day, token, n,
         row_number() OVER (PARTITION BY day
                            ORDER BY n DESC, token ASC) AS rn
  FROM cnt
) WHERE rn <= 3
"""


@query("trending_tokens", oracle=ORACLE_TRENDING_TOKENS)
def q_trending_tokens(sf_dir: str):
    """Windowed top-k: the 3 most frequent tokens per day over documents
    (doc day derived from doc_id so the synthetic corpus gets a stable
    time axis). Per-batch (day, token) count combiner, one groupby for
    exact counts, then grouped_topk per day — ties broken (count DESC,
    token ASC) identically in SQL."""
    from odinson_ray.stages.shuffle import grouped_topk

    def counts(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t["text"], " ")
        day = t["doc_id"].to_numpy(zero_copy_only=False) % 7
        n = pc.list_value_length(toks).cast(pa.int64())
        flat = pc.list_flatten(toks)
        days = pa.array(np.repeat(day, n.to_numpy(zero_copy_only=False)))
        return pa.table({"day": days, "token": flat})

    counts_ds = combine_aggregate(
        table(sf_dir, "documents",
              columns=["doc_id", "text"])
        .map_batches(counts, batch_format="pyarrow"),
        ["day", "token"], [("n", None, "count_all")])
    return grouped_topk(counts_ds, by="day", cols=["n", "token"],
                        descending=[True, False], k=3)


# ===================================== A-Priori frequent pair mining
_AP_ITEM_SUP = 0.75   # fraction of baskets an item must appear in


_AP_PAIR_SUP = 0.62   # fraction of baskets a pair must appear in


ORACLE_APRIORI_PAIRS = r"""
WITH tok AS (
  SELECT DISTINCT doc_id, w FROM (
    SELECT doc_id, unnest(string_split_regex(text, '\s+')) AS w
    FROM documents) WHERE w != ''
),
nd AS (SELECT count(DISTINCT doc_id) AS n FROM tok),
freq AS (
  SELECT w FROM tok GROUP BY w
  HAVING count(*) >= 0.75 * (SELECT n FROM nd)
)
SELECT a.w AS wa, b.w AS wb, CAST(count(*) AS BIGINT) AS n
FROM tok a JOIN tok b ON a.doc_id = b.doc_id AND a.w < b.w
WHERE a.w IN (SELECT w FROM freq) AND b.w IN (SELECT w FROM freq)
GROUP BY 1, 2
HAVING count(*) >= 0.62 * (SELECT n FROM nd)
"""


@query("apriori_pairs", oracle=ORACLE_APRIORI_PAIRS)
def q_apriori_pairs(sf_dir: str):
    """Frequent co-occurring token pairs across documents with A-Priori
    pruning: items (tokens) below the singleton support threshold are
    eliminated BEFORE any pair forms — the frequent-item set is small by
    construction of the threshold (the classic A-Priori argument), so it
    broadcasts via ray.put and the pair-count shuffle only ever carries
    pairs of frequent items. Basket = document (distinct tokens); one
    batch-local distinct (a doc never spans rows), one df groupby, one
    pair-count groupby."""
    import ray
    from ray.data.aggregate import Sum

    docs = table(sf_dir, "documents",
                 columns=["doc_id", "text"])

    def tok_partial(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(t["text"].combine_chunks(), r"\s+")
        flat = pc.list_flatten(toks)
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        did = t["doc_id"].to_numpy(zero_copy_only=False)
        base = pa.table({
            "doc_id": pa.array(np.repeat(did, lens), pa.int64()),
            "w": flat,
        }).filter(pc.not_equal(flat, ""))
        return partial_aggregate(base, ["doc_id", "w"], [])

    tok = docs.map_batches(tok_partial, batch_format="pyarrow").materialize()
    n_docs = docs.count()
    min_item = _AP_ITEM_SUP * n_docs
    min_pair = _AP_PAIR_SUP * n_docs

    freq = (combine_aggregate(tok, "w", [("df", None, "count_all")])
            .map_batches(lambda t: t.filter(
                pc.greater_equal(pc.cast(t["df"], pa.float64()),
                                 pa.scalar(min_item))).select(["w"]),
                batch_format="pyarrow"))
    # small by construction of the support threshold -> broadcast
    freq_words = np.sort(np.array([r["w"] for r in freq.take_all()],
                                  dtype=object))
    freq_ref = ray.put(freq_words)

    def pair_partial(t: pa.Table) -> pa.Table:
        fw = ray.get(freq_ref)
        t = t.combine_chunks()
        o = pc.sort_indices(t, sort_keys=[("doc_id", "ascending"),
                                          ("w", "ascending")])
        t = t.take(o)
        w = np.asarray(t["w"].to_pylist(), dtype=object)
        did = t["doc_id"].to_numpy(zero_copy_only=False)
        keep = np.isin(w, fw)
        w, did = w[keep], did[keep]
        if len(w) == 0:
            return pa.table({"wa": pa.array([], pa.string()),
                             "wb": pa.array([], pa.string()),
                             "pn": pa.array([], pa.int64())})
        starts = np.concatenate(
            ([0], np.flatnonzero(did[1:] != did[:-1]) + 1, [len(did)]))
        ia, ib = [], []
        for s, e in zip(starts[:-1], starts[1:]):
            m = e - s
            if m < 2:
                continue
            iu, ju = np.triu_indices(m, k=1)
            ia.append(s + iu)
            ib.append(s + ju)
        if not ia:
            return pa.table({"wa": pa.array([], pa.string()),
                             "wb": pa.array([], pa.string()),
                             "pn": pa.array([], pa.int64())})
        a = np.concatenate(ia)
        b = np.concatenate(ib)
        base = pa.table({"wa": pa.array(w[a].tolist(), pa.string()),
                         "wb": pa.array(w[b].tolist(), pa.string())})
        return partial_aggregate(base, ["wa", "wb"],
                                 [("pn", None, "count_all")])

    pairs = (tok.map_batches(pair_partial, batch_format="pyarrow")
             .groupby(["wa", "wb"]).aggregate(Sum("pn", alias_name="n")))
    return pairs.map_batches(
        lambda t: t.filter(pc.greater_equal(
            pc.cast(t["n"], pa.float64()), pa.scalar(min_pair))),
        batch_format="pyarrow")


# ===================================== BPE tokenizer fitting (no oracle)
@query("bpe_merges")  # no oracle by design
def q_bpe_merges(sf_dir: str, k: int = 5):
    """First k BPE merges learned from the document corpus
    (stages/bpe.py). Iterative argmax + re-tokenization — not
    SQL-expressible; correctness is pinned by a pytest twin (same
    class as ann_lsh/ann_ivf/cms)."""
    docs = table(sf_dir, "documents", columns=["text"])
    from odinson_ray.stages.bpe import bpe_top_merges

    return bpe_top_merges(docs, k=k)


# ===================================== length-bucketed training batches
_LB_BUDGET = 2048  # tokens per training batch


ORACLE_LENGTH_BATCHES = """
WITH tc AS (
  SELECT doc_id, CAST(len(string_split(text, ' ')) AS BIGINT) AS n_tokens
  FROM documents
),
s AS (
  SELECT doc_id, n_tokens,
         COALESCE(sum(n_tokens) OVER (ORDER BY n_tokens, doc_id
                   ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
           AS pfx
  FROM tc
)
SELECT doc_id, n_tokens, CAST(pfx // 2048 AS BIGINT) AS batch_id FROM s
"""


@query("length_batches", oracle=ORACLE_LENGTH_BATCHES)
def q_length_batches(sf_dir: str, n_buckets: int = 256):
    """Token-budget batch assignment for training: docs ordered globally
    by (n_tokens ASC, doc_id ASC) — length bucketing minimizes padding —
    and batch_id = floor(exclusive_prefix_sum(n_tokens) / budget).

    The global prefix sum reuses _enumerated_orders' shape: sampled
    range boundaries (mergeable quantile sketch), a per-batch bincount
    combiner whose per-bucket TOKEN sums prefix into offsets on the
    driver (O(n_buckets), parallelism-sized), then one groupby(bucket)
    pass sorts within each bucket and adds the broadcast offset. Batch
    ids are globally consistent without any global sort landing
    anywhere."""
    import ray
    from ray.data.aggregate import Sum

    from odinson_ray.stages.link import get_broadcast
    from odinson_ray.stages.sketch import approx_quantile_values

    def tc(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t["text"], " ")
        return pa.table({
            "doc_id": t["doc_id"],
            "n_tokens": pc.cast(pc.list_value_length(toks), pa.int64()),
        })

    docs = (table(sf_dir, "documents",
                  columns=["doc_id", "text"])
            .map_batches(tc, batch_format="pyarrow")).materialize()

    boundaries = np.unique(approx_quantile_values(
        docs, "n_tokens", np.arange(1, n_buckets) / n_buckets))

    def bucket_of(v: np.ndarray) -> np.ndarray:
        return np.searchsorted(boundaries, v, side="left")

    def sum_partial(t: pa.Table) -> pa.Table:
        n = t["n_tokens"].to_numpy(zero_copy_only=False)
        b = bucket_of(n)
        s = np.bincount(b, weights=n, minlength=n_buckets).astype(np.int64)
        nz = np.nonzero(s)[0]
        return pa.table({"bucket": pa.array(nz, pa.int64()),
                         "pt": pa.array(s[nz], pa.int64())})

    sums = {r["bucket"]: r["s"] for r in
            docs.map_batches(sum_partial, batch_format="pyarrow")
            .groupby("bucket").aggregate(Sum("pt", alias_name="s"))
            .take_all()}
    offsets, acc = {}, 0
    for b in range(n_buckets):  # ascending length order
        offsets[b] = acc
        acc += sums.get(b, 0)
    ref = ray.put(offsets)

    def tag(t: pa.Table) -> pa.Table:
        b = bucket_of(t["n_tokens"].to_numpy(zero_copy_only=False))
        return t.append_column("bucket", pa.array(b, pa.int64()))

    def assign(g: pa.Table) -> pa.Table:
        off = get_broadcast(ref)[g["bucket"][0].as_py()]
        n = g["n_tokens"].to_numpy(zero_copy_only=False)
        d = g["doc_id"].to_numpy(zero_copy_only=False)
        o = np.lexsort((d, n))
        pfx = np.empty(len(o), dtype=np.int64)
        cs = np.cumsum(n[o])
        pfx[o] = off + cs - n[o]  # exclusive prefix in global order
        return pa.table({
            "doc_id": g["doc_id"],
            "n_tokens": g["n_tokens"],
            "batch_id": pa.array(pfx // _LB_BUDGET, pa.int64()),
        })

    return (docs.map_batches(tag, batch_format="pyarrow")
            .groupby("bucket").map_groups(assign, batch_format="pyarrow"))


# ===================================== T5-style span corruption
_SC_RATE = 15  # percent of tokens masked


ORACLE_SPAN_CORRUPTION = r"""
WITH toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok,
         unnest(generate_series(1, len(string_split(text, ' ')))) AS p
  FROM documents
),
m AS (
  SELECT doc_id, tok, p,
         CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR) || '|'
                                  || CAST(p AS VARCHAR)), 1, 8))
              AS UBIGINT) % 100 < 15 AS msk
  FROM toks
),
rs AS (
  SELECT *, msk AND NOT COALESCE(
      lag(msk) OVER (PARTITION BY doc_id ORDER BY p), FALSE) AS run_start
  FROM m
),
r AS (
  SELECT *, sum(CASE WHEN run_start THEN 1 ELSE 0 END)
      OVER (PARTITION BY doc_id ORDER BY p
            ROWS UNBOUNDED PRECEDING) - 1 AS sid
  FROM rs
),
inp AS (
  SELECT doc_id,
         string_agg(CASE WHEN NOT msk THEN tok
                         ELSE '<X' || CAST(sid AS VARCHAR) || '>' END,
                    ' ' ORDER BY p) AS input
  FROM r WHERE (NOT msk) OR run_start GROUP BY doc_id
),
tgt AS (
  SELECT doc_id,
         string_agg(CASE WHEN run_start
                         THEN '<X' || CAST(sid AS VARCHAR) || '> ' || tok
                         ELSE tok END,
                    ' ' ORDER BY p) AS target
  FROM r WHERE msk GROUP BY doc_id
)
SELECT i.doc_id, i.input, COALESCE(t.target, '') AS target
FROM inp i LEFT JOIN tgt t ON t.doc_id = i.doc_id
"""


@query("span_corruption", oracle=ORACLE_SPAN_CORRUPTION)
def q_span_corruption(sf_dir: str):
    """Self-supervised span-corruption pair generation (T5/UL2 style):
    deterministically mask ~15% of tokens, collapse each masked RUN to a
    sentinel <Xk> in the input, and emit the masked spans prefixed by
    their sentinels as the target. Pure per-doc map — embarrassingly
    parallel, zero shuffle; reproducible at any parallelism/retry
    because the mask is a pure function of (doc_id, position). The
    per-token md5 is the oracle-shared-hash trade (see
    q_kg_negative_samples); run/sentinel assembly is numpy over the
    mask array."""
    import hashlib

    def corrupt(t: pa.Table) -> pa.Table:
        dids, inputs, targets = [], [], []
        for did, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            toks = txt.split(" ")
            n = len(toks)
            msk = np.fromiter(
                (int(hashlib.md5(f"{did}|{p}".encode()).hexdigest()[:8], 16)
                 % 100 < _SC_RATE for p in range(1, n + 1)),
                dtype=bool, count=n)
            prev = np.concatenate(([False], msk[:-1]))
            run_start = msk & ~prev
            sid = np.cumsum(run_start) - 1  # sentinel id at each position
            inp, tgt = [], []
            for i in range(n):
                if run_start[i]:
                    inp.append(f"<X{sid[i]}>")
                    tgt.append(f"<X{sid[i]}> {toks[i]}")
                elif msk[i]:
                    tgt.append(toks[i])
                else:
                    inp.append(toks[i])
            dids.append(did)
            inputs.append(" ".join(inp))
            targets.append(" ".join(tgt))
        return pa.table({
            "doc_id": pa.array(dids, pa.int64()),
            "input": pa.array(inputs, pa.string()),
            "target": pa.array(targets, pa.string()),
        })

    return (table(sf_dir, "documents",
                  columns=["doc_id", "text"])
            .map_batches(corrupt, batch_format="pyarrow"))


# ===================================== fill-in-the-middle (FIM)


ORACLE_FIM_TRANSFORM = """
WITH d AS (
  SELECT doc_id, string_split(text, ' ') AS ts,
         len(string_split(text, ' ')) AS n
  FROM documents
),
cuts AS (
  SELECT doc_id, ts, n,
         CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR) || '|c1'), 1, 8))
              AS UBIGINT) % (n + 1) AS h1,
         CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR) || '|c2'), 1, 8))
              AS UBIGINT) % (n + 1) AS h2
  FROM d
),
seg AS (
  SELECT doc_id, ts, n,
         least(h1, h2) AS lo, greatest(h1, h2) AS hi
  FROM cuts
)
SELECT doc_id,
       '<PRE> ' || COALESCE(array_to_string(ts[1:lo], ' '), '')
       || ' <SUF> ' || COALESCE(array_to_string(ts[hi + 1:n], ' '), '')
       || ' <MID> ' || COALESCE(array_to_string(ts[lo + 1:hi], ' '), '')
         AS fim
FROM seg
"""


@query("fim_transform", oracle=ORACLE_FIM_TRANSFORM)
def q_fim_transform(sf_dir: str):
    """Fill-in-the-middle training transform (PSM format): two
    deterministic cut points split each doc into prefix/middle/suffix,
    emitted as '<PRE> prefix <SUF> suffix <MID> middle' — the code-LM
    data prep that teaches infilling. Pure per-doc map, zero shuffle,
    cut points a pure function of doc_id (retry/parallelism-invariant;
    md5 is the oracle-shared hash)."""
    import hashlib

    def fim(t: pa.Table) -> pa.Table:
        dids, outs = [], []
        for did, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            toks = txt.split(" ")
            n = len(toks)
            h1 = int(hashlib.md5(f"{did}|c1".encode()).hexdigest()[:8],
                     16) % (n + 1)
            h2 = int(hashlib.md5(f"{did}|c2".encode()).hexdigest()[:8],
                     16) % (n + 1)
            lo, hi = min(h1, h2), max(h1, h2)
            pre = " ".join(toks[:lo])
            mid = " ".join(toks[lo:hi])
            suf = " ".join(toks[hi:])
            dids.append(did)
            outs.append(f"<PRE> {pre} <SUF> {suf} <MID> {mid}")
        return pa.table({"doc_id": pa.array(dids, pa.int64()),
                         "fim": pa.array(outs, pa.string())})

    return (table(sf_dir, "documents",
                  columns=["doc_id", "text"])
            .map_batches(fim, batch_format="pyarrow"))


# ===================================== word2vec skip-gram pairs


ORACLE_SKIPGRAM_PAIRS = """
WITH tok AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok,
         unnest(generate_series(1, len(string_split(text, ' ')))) AS p
  FROM documents
)
SELECT a.tok AS center, b.tok AS context, CAST(count(*) AS BIGINT) AS n
FROM tok a JOIN tok b
  ON a.doc_id = b.doc_id AND b.p != a.p AND abs(b.p - a.p) <= 2
GROUP BY a.tok, b.tok
ORDER BY n DESC, center, context LIMIT 50
"""


@query("skipgram_pairs", oracle=ORACLE_SKIPGRAM_PAIRS)
def q_skipgram_pairs(sf_dir: str, window: int = 2, k: int = 50):
    """Skip-gram (center, context) pair counts with |offset| ≤ window,
    top-k by count — the word2vec/GloVe co-occurrence extraction pass.
    Fully vectorized: each batch splits to a flat token array + doc run
    index, pairs at each offset are two aligned slices (no per-token
    loop), counts combine per batch before ONE global groupby, and the
    top-k is the pruned global_topk. The shuffle carries distinct
    (center, context) partials, never positional pairs."""
    from ray.data.aggregate import Sum

    from odinson_ray.stages.shuffle import global_topk

    def pair_partial(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t["text"], " ").combine_chunks()
        flat = toks.values
        counts = np.diff(toks.offsets.to_numpy(zero_copy_only=False))
        doc_idx = np.repeat(np.arange(len(counts)), counts)
        n = len(doc_idx)
        centers, contexts = [], []
        for d in range(1, window + 1):
            if n <= d:
                continue
            same = doc_idx[:-d] == doc_idx[d:]
            idx = np.flatnonzero(same)
            lo = flat.take(pa.array(idx))
            hi = flat.take(pa.array(idx + d))
            centers.extend([lo, hi])
            contexts.extend([hi, lo])
        if not centers:
            return pa.table({"center": pa.array([], pa.string()),
                             "context": pa.array([], pa.string()),
                             "pn": pa.array([], pa.int64())})
        tab = pa.table({
            "center": pa.concat_arrays([a.combine_chunks()
                                        if isinstance(a, pa.ChunkedArray)
                                        else a for a in centers]),
            "context": pa.concat_arrays([a.combine_chunks()
                                         if isinstance(a, pa.ChunkedArray)
                                         else a for a in contexts]),
        })
        return partial_aggregate(tab, ["center", "context"],
                                 [("pn", None, "count_all")])

    counts = (table(sf_dir, "documents",
                    columns=["text"])
              .map_batches(pair_partial, batch_format="pyarrow")
              .groupby(["center", "context"])
              .aggregate(Sum("pn", alias_name="n")))
    return global_topk(counts, ["n", "center", "context"],
                       [True, False, False], k)


# ===================================== training-mix diversity report


ORACLE_SOURCE_TOKEN_SHARE = """
WITH c AS (
  SELECT source, CAST(sum(len(string_split(text, ' '))) AS BIGINT)
           AS n_tokens
  FROM documents GROUP BY source
),
tot AS (SELECT CAST(sum(n_tokens) AS DOUBLE) AS N FROM c)
SELECT source, n_tokens,
       round(n_tokens / N, 6) AS share,
       round(CASE WHEN n_tokens > 0
             THEN -(n_tokens / N) * log2(n_tokens / N) ELSE 0 END, 6)
         AS entropy_bits
FROM c, tot
"""


@query("source_token_share", oracle=ORACLE_SOURCE_TOKEN_SHARE)
def q_source_token_share(sf_dir: str):
    """Per-source token share of the corpus plus its entropy
    contribution — the diversity report a training-mix pipeline reads
    before setting sampling weights (domain_mix's measurement twin).
    One map-side-combined groupby(source) over per-batch token counts;
    the share/entropy math runs on the #sources-sized result."""

    def partial(t: pa.Table) -> pa.Table:
        n_tok = pc.list_value_length(pc.split_pattern(t["text"], " "))
        return pa.table({"source": t["source"],
                      "n": pc.cast(n_tok, pa.int64())})

    counts = combine_aggregate(
        table(sf_dir, "documents",
              columns=["source", "text"])
        .map_batches(partial, batch_format="pyarrow"),
        "source", [("n_tokens", "n", "sum")]).materialize()
    total = int(counts.sum("n_tokens") or 0)  # None on an empty corpus

    def report(t: pa.Table) -> pa.Table:
        n = t["n_tokens"].to_numpy(zero_copy_only=False).astype(np.float64)
        share = n / float(total)
        ent = np.where(share > 0, -share * np.log2(share), 0.0)
        return pa.table({
            "source": t["source"],
            "n_tokens": t["n_tokens"],
            "share": pc.round(pa.array(share, pa.float64()), 6),
            "entropy_bits": pc.round(pa.array(ent, pa.float64()), 6),
        })

    return counts.map_batches(report, batch_format="pyarrow")


# ===================================== log-likelihood collocations


ORACLE_COLLOCATIONS_LLR = """
WITH tok AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok,
         unnest(generate_series(1, len(string_split(text, ' ')))) AS p
  FROM documents
),
big AS (
  SELECT a.tok AS w1, b.tok AS w2, CAST(count(*) AS BIGINT) AS k11
  FROM tok a JOIN tok b ON a.doc_id = b.doc_id AND b.p = a.p + 1
  GROUP BY a.tok, b.tok
),
m1 AS (SELECT w1 AS w, sum(k11) AS n1 FROM big GROUP BY w1),
m2 AS (SELECT w2 AS w, sum(k11) AS n2 FROM big GROUP BY w2),
tot AS (SELECT CAST(sum(k11) AS DOUBLE) AS N FROM big)
SELECT w1, w2, k11 AS n,
  round(2 * (
    (CASE WHEN k11 > 0 THEN k11 * ln(k11) ELSE 0 END)
  + (CASE WHEN n1 - k11 > 0 THEN (n1 - k11) * ln(n1 - k11) ELSE 0 END)
  + (CASE WHEN n2 - k11 > 0 THEN (n2 - k11) * ln(n2 - k11) ELSE 0 END)
  + (CASE WHEN N - n1 - n2 + k11 > 0
     THEN (N - n1 - n2 + k11) * ln(N - n1 - n2 + k11) ELSE 0 END)
  - n1 * ln(n1) - (N - n1) * ln(N - n1)
  - n2 * ln(n2) - (N - n2) * ln(N - n2)
  + N * ln(N)), 6) AS llr
FROM big JOIN m1 ON m1.w = w1 JOIN m2 ON m2.w = w2, tot
WHERE k11 >= 5
"""


@query("collocations_llr", oracle=ORACLE_COLLOCATIONS_LLR)
def q_collocations_llr(sf_dir: str, min_count: int = 5):
    """Dunning log-likelihood-ratio collocation scores for every bigram
    with count ≥ ``min_count`` — the classic corpus-linguistics
    significance test (stronger than raw PMI on rare pairs). All four
    contingency cells come from THREE count aggregates (bigram, left-
    marginal, right-marginal — each map-side combined); the LLR itself
    is two hash joins + one vectorized xlogx evaluation. Selection is
    by the INTEGER count threshold, never by the float score, so the
    result set is engine-independent; scores round to 6dp."""
    from ray.data.aggregate import Sum

    from odinson_ray.stages.shuffle import hash_join

    str_t, f64 = pa.string(), pa.float64()

    def bigram_partial(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t["text"], " ").combine_chunks()
        flat = toks.values
        counts = np.diff(toks.offsets.to_numpy(zero_copy_only=False))
        doc_idx = np.repeat(np.arange(len(counts)), counts)
        n = len(doc_idx)
        if n < 2:
            return pa.table({"w1": pa.array([], str_t),
                             "w2": pa.array([], str_t),
                             "pn": pa.array([], pa.int64())})
        same = doc_idx[:-1] == doc_idx[1:]
        idx = np.flatnonzero(same)
        tab = pa.table({"w1": flat.take(pa.array(idx)),
                        "w2": flat.take(pa.array(idx + 1))})
        return partial_aggregate(tab, ["w1", "w2"],
                                 [("pn", None, "count_all")])

    bigrams = (table(sf_dir, "documents",
                     columns=["text"])
               .map_batches(bigram_partial, batch_format="pyarrow")
               .groupby(["w1", "w2"])
               .aggregate(Sum("pn", alias_name="k11"))).materialize()

    def left_marg(t: pa.Table) -> pa.Table:
        return pa.table({"w": t["w1"], "c": t["k11"]})

    def right_marg(t: pa.Table) -> pa.Table:
        return pa.table({"w": t["w2"], "c": t["k11"]})

    n1 = combine_aggregate(
        bigrams.map_batches(left_marg, batch_format="pyarrow"),
        "w", [("n1", "c", "sum")])
    n2 = combine_aggregate(
        bigrams.map_batches(right_marg, batch_format="pyarrow"),
        "w", [("n2", "c", "sum")])
    n_total = int(bigrams.sum("k11") or 0)  # driver scalar; None if empty

    freq = bigrams.map_batches(
        lambda t: t.filter(pc.greater_equal(t["k11"], min_count)),
        batch_format="pyarrow")
    j1 = hash_join(freq, n1, on="w1", right_on="w",
                   left_schema=pa.schema([("w1", str_t), ("w2", str_t),
                                          ("k11", pa.int64())]),
                   right_schema=pa.schema([("w", str_t),
                                           ("n1", pa.int64())]))
    j2 = hash_join(j1, n2, on="w2", right_on="w",
                   left_schema=pa.schema([("w1", str_t), ("w2", str_t),
                                          ("k11", pa.int64()),
                                          ("n1", pa.int64())]),
                   right_schema=pa.schema([("w", str_t),
                                           ("n2", pa.int64())]))

    def llr(t: pa.Table) -> pa.Table:
        k11 = t["k11"].to_numpy(zero_copy_only=False).astype(np.float64)
        r1 = t["n1"].to_numpy(zero_copy_only=False).astype(np.float64)
        c1 = t["n2"].to_numpy(zero_copy_only=False).astype(np.float64)
        N = float(n_total)
        k12 = r1 - k11
        k21 = c1 - k11
        k22 = N - r1 - c1 + k11

        def s(x):
            return np.where(x > 0, x * np.log(np.maximum(x, 1.0)), 0.0)

        ll = 2.0 * (s(k11) + s(k12) + s(k21) + s(k22)
                    - s(r1) - s(N - r1) - s(c1) - s(N - c1) + s(N))
        return pa.table({
            "w1": t["w1"], "w2": t["w2"], "n": t["k11"],
            "llr": pc.round(pa.array(ll, f64), 6)})

    return j2.map_batches(llr, batch_format="pyarrow")


# ===================================== deterministic corpus shuffle


ORACLE_CORPUS_SHUFFLE_HEAD = """
SELECT doc_id, md5(CAST(doc_id AS VARCHAR)) AS shuffle_key
FROM documents
ORDER BY shuffle_key, doc_id LIMIT 100
"""


@query("corpus_shuffle_head", oracle=ORACLE_CORPUS_SHUFFLE_HEAD)
def q_corpus_shuffle_head(sf_dir: str, k: int = 100):
    """Deterministic global training-order shuffle: every doc gets a
    pure-function position key (md5 of its id — retry/parallelism-
    invariant AND SQL-reproducible, the repo's md5-shared trade) and the
    corpus is consumed in key order. The epoch-shuffling step of every
    training-data pipeline, without a random_shuffle whose order would
    differ per run. Output here: the first k docs of the shuffled order
    (the pruned global_topk — a full epoch consumer would iterate the
    sorted Dataset)."""
    import hashlib

    from odinson_ray.stages.shuffle import global_topk

    def key(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        ks = [hashlib.md5(str(i).encode()).hexdigest() for i in ids]
        return pa.table({"doc_id": t["doc_id"],
                         "shuffle_key": pa.array(ks, pa.string())})

    keyed = (table(sf_dir, "documents",
                   columns=["doc_id"])
             .map_batches(key, batch_format="pyarrow"))
    return global_topk(keyed, ["shuffle_key", "doc_id"],
                       [False, False], k)


# ===================================== Misra-Gries heavy hitters
@query("mg_heavy_hitters")  # no oracle BY DESIGN
def q_mg_heavy_hitters(sf_dir: str):
    """Deterministic bounded-memory corpus heavy hitters (Misra-Gries,
    k=64) over document tokens. Approximate BY DESIGN — no SQL oracle
    (DuckDB has no MG); tests/test_sketch_mg.py pins the classic
    deterministic bound (est ≤ true, true − est ≤ n/(k+1), every token
    above n/(k+1) present) against exact counts."""
    from odinson_ray.stages.sketch import mg_heavy_hitters

    ds = table(sf_dir, "documents", columns=["text"])
    return mg_heavy_hitters(ds, "text", k=64)


# ===================================== per-document n-gram novelty


ORACLE_NGRAM_NOVELTY = """
WITH toks AS (SELECT doc_id, string_split(text, ' ') AS t FROM documents),
grams AS (
  SELECT DISTINCT doc_id, array_to_string(t[i : i + 4], ' ') AS g
  FROM toks, UNNEST(generate_series(1, len(t) - 4)) AS u(i)
),
df AS (SELECT g, count(*) AS df FROM grams GROUP BY g)
SELECT doc_id,
       round(sum(CASE WHEN df = 1 THEN 1 ELSE 0 END) * 1.0 / count(*), 6)
         AS novelty
FROM grams JOIN df USING (g)
GROUP BY doc_id
"""


@query("ngram_novelty", oracle=ORACLE_NGRAM_NOVELTY)
def q_ngram_novelty(sf_dir: str, n: int = 5):
    """Per-document 5-gram novelty: the share of a doc's DISTINCT
    5-grams whose corpus document frequency is 1 (i.e. appear in no
    other document) — high novelty = original text, low = boilerplate
    (docs with < 5 tokens drop out). Same fully-distributed two-sided
    shape as doc_perplexity: per-doc distinct gram rows hash-join the
    gram-df Dataset (itself a map-side-combined aggregate), per-group
    partials reduce inside the join, one groupby(doc_id) finishes.
    The gram vocabulary never touches the driver."""
    from ray.data.aggregate import Sum

    from odinson_ray.stages.shuffle import hash_join

    docs = table(sf_dir, "documents",
                 columns=["doc_id", "text"])

    def gram_rows(t: pa.Table) -> pa.Table:
        """Distinct (doc_id, gram) rows per batch — grams built from
        sliced flat token arrays, one binary_join kernel call."""
        toks = pc.split_pattern(t["text"], " ")
        flat = pc.list_flatten(toks).combine_chunks()
        rows = pc.list_parent_indices(toks).combine_chunks()
        ln = len(flat)
        if ln < n:
            return pa.table({"doc_id": pa.array([], _I64),
                             "g": pa.array([], _STR)})
        parts = [flat.slice(i, ln - n + 1) for i in range(n)]
        same = pc.equal(rows.slice(0, ln - n + 1), rows.slice(n - 1, ln - n + 1))
        grams = pc.binary_join_element_wise(*parts, " ")
        ids = t["doc_id"].combine_chunks().cast(_I64).take(
            rows.slice(0, ln - n + 1))
        pairs = pa.table({"doc_id": ids, "g": grams}).filter(same)
        return partial_aggregate(pairs, ["doc_id", "g"], [])

    grams = docs.map_batches(gram_rows, batch_format="pyarrow")
    # distinct across batches (a doc never spans batches, but the same
    # gram+doc row could appear twice only if a doc spanned batches —
    # it cannot; batch-local distinct is global distinct per doc)
    df = combine_aggregate(grams, "g", [("df", None, "count_all")])

    def score_group(g: pa.Table) -> pa.Table:
        dfv = g["df"].to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": g["doc_id"],
            "_u": pa.array((dfv == 1).astype(np.int64), _I64),
            "_n": pa.array(np.ones(len(dfv), dtype=np.int64), _I64),
        })

    joined = hash_join(
        grams, df, on="g",
        left_schema=pa.schema([("doc_id", _I64), ("g", _STR)]),
        right_schema=pa.schema([("g", _STR), ("df", _I64)]),
        merge_post=score_group)

    agg = joined.groupby("doc_id").aggregate(
        Sum("_u", alias_name="n_unique"), Sum("_n", alias_name="n_grams"))

    def fin(t: pa.Table) -> pa.Table:
        u = t["n_unique"].to_numpy(zero_copy_only=False).astype(np.float64)
        m = t["n_grams"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({
            "doc_id": t["doc_id"],
            "novelty": pa.array(np.round(u / m, 6), pa.float64()),
        })

    return agg.map_batches(fin, batch_format="pyarrow")


# ===================================== end-to-end curation funnel


ORACLE_CURATION_FUNNEL = """
WITH d1 AS (
  SELECT min(doc_id) AS doc_id FROM documents GROUP BY md5(text)
),
m AS (
  SELECT d.doc_id, len(string_split(d.text, ' ')) AS n_tokens,
         length(d.text) AS chars,
         length(d.text) -
         length(regexp_replace(d.text, '[^a-z0-9 ]', '', 'g')) AS sym
  FROM documents d JOIN d1 USING (doc_id)
),
q AS (
  SELECT doc_id FROM m
  WHERE n_tokens BETWEEN 20 AND 90
    AND (chars - (n_tokens - 1)) * 1.0 / n_tokens BETWEEN 4 AND 12
    AND sym * 1.0 / chars < 0.1 AND chars > 0
),
toks AS (SELECT doc_id, string_split(text, ' ') AS t FROM documents),
grams AS (
  SELECT doc_id, array_to_string(list_slice(t, i, i+2), ' ') AS g
  FROM (SELECT doc_id, t, unnest(generate_series(1, len(t) - 2)) AS i
        FROM toks)
),
ev AS (SELECT DISTINCT g FROM grams WHERE doc_id % 97 = 0),
cont AS (
  SELECT g.doc_id FROM grams g JOIN ev e USING (g)
  WHERE g.doc_id % 97 <> 0
  GROUP BY g.doc_id HAVING count(DISTINCT g.g) >= 5
),
s3 AS (
  SELECT doc_id FROM q
  WHERE doc_id % 97 <> 0
    AND doc_id NOT IN (SELECT doc_id FROM cont)
)
SELECT * FROM (
  SELECT 'total' AS stage,
         CAST((SELECT count(*) FROM documents) AS BIGINT)
             AS docs_remaining
  UNION ALL
  SELECT 'exact_dedup', CAST((SELECT count(*) FROM d1) AS BIGINT)
  UNION ALL
  SELECT 'quality', CAST((SELECT count(*) FROM q) AS BIGINT)
  UNION ALL
  SELECT 'decontaminated', CAST((SELECT count(*) FROM s3) AS BIGINT)
)
"""


@query("curation_funnel", oracle=ORACLE_CURATION_FUNNEL)
def q_curation_funnel(sf_dir: str, contam_min_shared: int = 5):
    """The composed curation pipeline as ONE report: documents surviving
    each stage of exact-dedup -> quality-filter -> decontamination (the
    funnel chart every training-data run publishes). Reuses the exact
    kernels of the standalone stages (same md5 fingerprints, same Gopher
    rule masks, same broadcast eval-gram set), so each row equals the
    corresponding standalone query's survivor count; the funnel adds the
    STAGE COMPOSITION — survivors flow dataset-to-dataset via semi/anti
    joins, and only the four stage counts reach the driver."""
    import pandas as pd

    from odinson_ray.stages.curate import decontaminate
    from odinson_ray.stages.shuffle import hash_join
    from odinson_ray.stages.text import (content_fingerprints,
                                         gopher_quality_mask)

    i64 = pa.int64()
    docs = table(sf_dir, "documents",
                 columns=["doc_id", "text"])
    s0 = docs.count()

    # stage 1: exact dedup — first doc per md5(text) (q_dedup_exact's
    # pure-aggregate decomposition)
    def keyed_project(t: pa.Table) -> pa.Table:
        return pa.table({"fp": content_fingerprints(t["text"]),
                         "doc_id": t["doc_id"]})

    keep1 = combine_aggregate(
        docs.map_batches(keyed_project, batch_format="pyarrow"),
        "fp", [("doc_id", "doc_id", "min")]).drop_columns(["fp"]).materialize()
    s1 = keep1.count()

    surv1 = hash_join(
        docs, keep1, on="doc_id", how="semi",
        left_schema=pa.schema([("doc_id", i64), ("text", pa.string())]),
        right_schema=pa.schema([("doc_id", i64)]))

    # stage 2: Gopher quality rules — the SHARED mask (stages/text.py)
    def quality_keep(t: pa.Table) -> pa.Table:
        return t.filter(gopher_quality_mask(t)).select(["doc_id"])

    surv2 = surv1.map_batches(quality_keep,
                              batch_format="pyarrow").materialize()
    s2 = surv2.count()

    # stage 3: decontamination — drop the eval slice itself and any doc
    # sharing >= contam_min_shared distinct 3-grams with it
    contaminated = decontaminate(sf_dir, n=3, eval_mod=97).map_batches(
        lambda t: t.filter(pc.greater_equal(
            t["n_shared"], contam_min_shared)).select(["doc_id"]),
        batch_format="pyarrow")
    non_eval = surv2.map_batches(
        lambda t: t.filter(pc.not_equal(
            pc.subtract(t["doc_id"], pc.multiply(
                pc.divide(t["doc_id"], 97), pa.scalar(97, i64))),
            pa.scalar(0, i64))),
        batch_format="pyarrow")
    surv3 = hash_join(
        non_eval, contaminated, on="doc_id", how="anti",
        left_schema=pa.schema([("doc_id", i64)]),
        right_schema=pa.schema([("doc_id", i64)]))
    s3 = surv3.count()

    return pd.DataFrame({
        "stage": ["total", "exact_dedup", "quality", "decontaminated"],
        "docs_remaining": np.array([s0, s1, s2, s3], dtype=np.int64),
    })


# ===================================== corpus statistics


ORACLE_CORPUS_STATS = """
WITH t AS (SELECT doc_id, string_split(text, ' ') AS tk FROM documents)
SELECT CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(CAST(ceil(len(tk) / 20.0) AS BIGINT)) AS BIGINT)
           AS n_sentences,
       CAST(sum(len(tk)) AS BIGINT) AS n_tokens,
       CAST((SELECT count(DISTINCT tok)
             FROM (SELECT unnest(tk) AS tok FROM t)) AS BIGINT)
           AS vocab_size
FROM t
"""


@query("corpus_stats", oracle=ORACLE_CORPUS_STATS)
def q_corpus_stats(sf_dir: str):
    """One-row corpus statistics: documents, sentences, tokens, distinct
    vocabulary — the `numDocs` display the reference's shell prints on
    connect (extra/.../Shell.scala:111) plus the token/vocab totals its
    docs report for benchmark corpora (docs/index.md). Two combiner-fed
    passes: scalar sums per batch, and a per-batch-distinct vocabulary
    groupby whose shuffle is vocabulary-bounded."""
    import pandas as pd
    from ray.data.aggregate import Count

    docs = table(sf_dir, "documents",
                 columns=["text"]).materialize()

    def sums(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t["text"], " ")
        n = pc.list_value_length(toks).cast(pa.int64())
        n_np = n.to_numpy(zero_copy_only=False)
        sents = int(np.ceil(n_np / 20.0).sum())
        return pa.table({"d": pa.array([len(t)], pa.int64()),
                         "s": pa.array([sents], pa.int64()),
                         "k": pa.array([int(n_np.sum())], pa.int64())})

    # one row per batch — pin it so the three sums run over the tiny
    # combined table instead of re-running tokenization per sum
    tot = docs.map_batches(sums, batch_format="pyarrow").materialize()
    n_docs = tot.sum("d") or 0
    n_sents = tot.sum("s") or 0
    n_toks = tot.sum("k") or 0

    def vocab_partial(t: pa.Table) -> pa.Table:
        toks = pc.list_flatten(pc.split_pattern(t["text"], " "))
        return pa.table({"tok": pc.unique(toks)})

    vocab = (docs.map_batches(vocab_partial, batch_format="pyarrow")
             .groupby("tok").aggregate(Count(alias_name="_c"))).count()

    return pd.DataFrame({
        "n_docs": np.array([n_docs], dtype=np.int64),
        "n_sentences": np.array([n_sents], dtype=np.int64),
        "n_tokens": np.array([n_toks], dtype=np.int64),
        "vocab_size": np.array([vocab], dtype=np.int64),
    })


# ===================================== readability scoring


ORACLE_DOC_READABILITY = """
WITH b AS (
  SELECT doc_id,
         CAST(len(string_split(text, ' ')) AS BIGINT) AS n_words,
         CAST(len(regexp_extract_all(text, '[aeiou]+')) AS BIGINT)
           AS n_syll
  FROM documents
)
SELECT doc_id, n_words, n_syll,
       round(206.835 - 1.015 * (n_words / ceil(n_words / 20.0))
                     - 84.6 * (n_syll / CAST(n_words AS DOUBLE)), 4)
         AS flesch
FROM b
"""


@query("doc_readability", oracle=ORACLE_DOC_READABILITY)
def q_doc_readability(sf_dir: str):
    """Flesch-reading-ease-style score per document, fully vectorized:
    words from the single-space token count, sentences from the 20-token
    sentence rule, syllables approximated by maximal vowel runs (one RE2
    scan). A quality-scoring signal the curation tier filters on."""

    def score(t: pa.Table) -> pa.Table:
        words = pc.add(pc.count_substring(t["text"], " "), 1)
        words = pc.cast(words, pa.int64())
        sents = pc.cast(
            pc.divide(pc.add(words, 19), pa.scalar(20, pa.int64())),
            pa.int64())
        syll = pc.cast(
            pc.count_substring_regex(t["text"], "[aeiou]+"), pa.int64())
        wf = pc.cast(words, pa.float64())
        flesch = pc.round(
            pc.subtract(
                pc.subtract(pa.scalar(206.835),
                            pc.multiply(pa.scalar(1.015),
                                        pc.divide(wf, pc.cast(
                                            sents, pa.float64())))),
                pc.multiply(pa.scalar(84.6),
                            pc.divide(pc.cast(syll, pa.float64()), wf))),
            ndigits=4, round_mode="half_towards_infinity")
        return pa.table({
            "doc_id": t["doc_id"],
            "n_words": words,
            "n_syll": syll,
            "flesch": flesch,
        })

    return table(sf_dir, "documents",
                 columns=["doc_id", "text"]).map_batches(
        score, batch_format="pyarrow")


def doc_features(t: pa.Table) -> pa.Table:
    """Deterministic per-doc features for the language classifier:
    scaled length, mean word length, vowel density. One pass, all
    Arrow kernels."""
    words = pc.cast(pc.add(pc.count_substring(t["text"], " "), 1),
                    pa.float64())
    chars = pc.cast(pc.utf8_length(t["text"]), pa.float64())
    vowels = pc.cast(pc.count_substring_regex(t["text"], "[aeiouAEIOU]"),
                     pa.float64())
    safe_chars = pc.max_element_wise(chars, 1.0)
    return pa.table({
        "f_len": pc.divide(words, 100.0),
        "f_wlen": pc.divide(pc.subtract(chars, pc.subtract(words, 1.0)),
                            pc.max_element_wise(words, 1.0)),
        "f_vow": pc.divide(vowels, safe_chars),
        "y": pc.cast(pc.equal(t["lang"], "en"), pa.float64()),
    })


@query("logreg_quality")  # no oracle by design
def q_logreg_quality(sf_dir: str, iters: int = 25, lr: float = 0.5):
    """Fit an is-English logistic classifier over the documents table.
    Per iteration one broadcast of the (d+1)-float weight vector and
    one Sum reduce of per-batch gradients — the corpus never leaves the
    cluster, the driver never holds more than d+1 floats. Returns the
    fitted weights plus corpus size and training accuracy as a
    (name, value) report table."""
    from odinson_ray.stages.train import logreg_fit

    feats = table(sf_dir, "documents",
                  columns=["text", "lang"]).map_batches(
        doc_features, batch_format="pyarrow")
    xcols = ["f_len", "f_wlen", "f_vow"]
    w, n, acc = logreg_fit(feats, xcols, "y", iters=iters, lr=lr)
    names = ["intercept"] + [f"w_{c}" for c in xcols] + ["n", "train_acc"]
    vals = list(map(float, w)) + [float(n), acc]
    return pd.DataFrame({"name": names, "value": vals})


@query("bpe_encode")  # no oracle by design
def q_bpe_encode(sf_dir: str, k: int = 5, topk: int = 20):
    """Top tokens of the corpus AFTER encoding with k fitted BPE merges
    (the tokenizer-application step at vocabulary grain — zero
    corpus-sized work beyond the fit's single word-frequency pass)."""
    from odinson_ray.stages.bpe import bpe_encode_token_counts

    docs = table(sf_dir, "documents", columns=["text"])
    return bpe_encode_token_counts(docs, k=k, topk=topk)


# ===================================== mutual-information feature ranking


ORACLE_FEATURE_MI = """
WITH b AS (
  SELECT least(length(text) // 500, 3) AS len_bin,
         least(10 * length(regexp_replace(text, '[^aeiouAEIOU]', '', 'g'))
               // greatest(length(text), 1), 9) AS vow_bin,
         CASE WHEN lang = 'en' THEN 1 ELSE 0 END AS y
  FROM documents
),
u AS (
  SELECT 'len_bin' AS feature, len_bin AS x, y FROM b
  UNION ALL
  SELECT 'vow_bin' AS feature, vow_bin AS x, y FROM b
),
c AS (SELECT feature, x, y, count(*)::DOUBLE AS n FROM u
      GROUP BY feature, x, y),
m AS (SELECT feature, x, y, n,
             sum(n) OVER (PARTITION BY feature, x) AS nx,
             sum(n) OVER (PARTITION BY feature, y) AS ny,
             sum(n) OVER (PARTITION BY feature) AS nn
      FROM c)
SELECT feature, round(sum((n / nn) * ln(n * nn / (nx * ny))), 6) AS mi
FROM m GROUP BY feature
"""


@query("feature_mi", oracle=ORACLE_FEATURE_MI)
def q_feature_mi(sf_dir: str):
    """MI (nats) between each binned document feature and the
    is-English label — the feature-selection step ahead of a quality
    classifier. One corpus pass emits (feature, x, y) count partials
    for BOTH features; one global groupby; the finish computes margins
    and sums inside each feature's group (bounded domain: bins x 2
    rows). Everything float enters only in the final xlogx."""

    def project(t: pa.Table) -> pa.Table:
        chars = pc.cast(pc.utf8_length(t["text"]), pa.int64())
        vowels = pc.cast(
            pc.count_substring_regex(t["text"], "[aeiouAEIOU]"), pa.int64())
        len_bin = pc.min_element_wise(
            pc.divide(chars, pa.scalar(500, pa.int64())),
            pa.scalar(3, pa.int64()))
        # integer vowel-density decile vs word count: 10*vowels//chars
        vow_bin = pc.min_element_wise(
            pc.divide(pc.multiply(vowels, pa.scalar(10, pa.int64())),
                      pc.max_element_wise(chars, pa.scalar(1, pa.int64()))),
            pa.scalar(9, pa.int64()))
        y = pc.cast(pc.equal(t["lang"], "en"), pa.int64())
        return pa.concat_tables([
            pa.table({"feature": pa.array(["len_bin"] * t.num_rows,
                                          pa.string()),
                      "x": len_bin, "y": y}),
            pa.table({"feature": pa.array(["vow_bin"] * t.num_rows,
                                          pa.string()),
                      "x": vow_bin, "y": y}),
        ])

    counts = combine_aggregate(
        table(sf_dir, "documents",
              columns=["text", "lang"])
        .map_batches(project, batch_format="pyarrow"),
        ["feature", "x", "y"], [("n", "x", "count")])

    def mi_group(g: pa.Table) -> pa.Table:
        # bounded domain: <= bins x 2 rows per feature
        feat = g["feature"][0].as_py()
        x = g["x"].to_numpy(zero_copy_only=False)
        y = g["y"].to_numpy(zero_copy_only=False)
        n = g["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        N = n.sum()
        nx = {v: n[x == v].sum() for v in np.unique(x)}
        ny = {v: n[y == v].sum() for v in np.unique(y)}
        mi = 0.0
        for xi, yi, ni in zip(x, y, n):
            mi += (ni / N) * np.log(ni * N / (nx[xi] * ny[yi]))
        return pa.table({
            "feature": pa.array([feat], pa.string()),
            "mi": pc.round(pa.array([mi], pa.float64()), ndigits=6,
                           round_mode="half_towards_infinity")})

    return counts.groupby("feature").map_groups(mi_group,
                                                batch_format="pyarrow")


# ===================================== federated multi-format union


ORACLE_FEDERATED_UNION = """
SELECT lang, CAST(3 * count(*) AS BIGINT) AS n_docs,
       CAST(3 * sum(n_chars) AS BIGINT) AS chars
FROM documents GROUP BY lang
"""


@query("federated_union_counts", oracle=ORACLE_FEDERATED_UNION)
def q_federated_union_counts(sf_dir: str):
    """ONE Dataset over three physical formats of the same table —
    parquet source, the Arrow IPC layout, and a sharded CSV copy —
    unioned lazily and aggregated once (per-lang counts triple the
    base). The format heterogeneity lives entirely in the read layer;
    every downstream stage is format-blind."""
    import json
    import os
    import tempfile

    from ...sources.io import read_ipc, write_ipc_layout
    from ...stages.ann import _atomic_publish
    from ...stages.layout import _CACHE_ROOT, _layout_dir

    src = f"{sf_dir}/documents.parquet"
    cols = ["doc_id", "lang", "n_chars"]

    pq_ds = read_table(src, columns=cols)
    ipc_ds = read_ipc(write_ipc_layout(src, cols))

    csv_root = _layout_dir(src, "", 0, ",".join(cols) + ":csv")
    if not os.path.exists(os.path.join(csv_root, "_SUCCESS")):
        os.makedirs(_CACHE_ROOT, exist_ok=True)
        tmp = tempfile.mkdtemp(prefix=os.path.basename(csv_root) + ".tmp.",
                               dir=_CACHE_ROOT)
        read_table(src, columns=cols).write_csv(tmp)
        files = sorted(f for f in os.listdir(tmp) if f.endswith(".csv"))
        with open(os.path.join(tmp, "_meta.json"), "w") as fh:
            json.dump({"files": files}, fh)
        csv_root = _atomic_publish(tmp, csv_root)
    with open(os.path.join(csv_root, "_meta.json")) as fh:
        csv_files = [os.path.join(csv_root, f)
                     for f in json.load(fh)["files"]]
    import ray.data as rd_mod

    if csv_files:
        csv_ds = rd_mod.read_csv(csv_files).map_batches(
            lambda t: pa.table({
                "doc_id": pc.cast(t["doc_id"], pa.int64()),
                "lang": pc.cast(t["lang"], pa.string()),
                "n_chars": pc.cast(t["n_chars"], pa.int64())}),
            batch_format="pyarrow")
    else:  # empty corpus writes no CSV shards
        csv_ds = rd_mod.from_arrow(pa.schema(
            [("doc_id", pa.int64()), ("lang", pa.string()),
             ("n_chars", pa.int64())]).empty_table())

    union = pq_ds.union(ipc_ds).union(csv_ds)

    return combine_aggregate(union, "lang", [("n_docs", "n_chars", "count"),
                                             ("chars", "n_chars", "sum")])


# ===================================== RAG chunking with overlap


ORACLE_RAG_CHUNKS = """
WITH t AS (
  SELECT doc_id, string_split(text, ' ') AS tk,
         len(string_split(text, ' ')) AS n
  FROM documents
),
c AS (
  SELECT doc_id, tk, n,
         unnest(range((n - 1) // 8 + 1)) AS chunk_id
  FROM t
)
SELECT doc_id, CAST(chunk_id AS BIGINT) AS chunk_id,
       CAST(chunk_id * 8 AS BIGINT) AS start_tok,
       CAST(least(16, n - chunk_id * 8) AS BIGINT) AS n_tok,
       array_to_string(tk[chunk_id * 8 + 1 : least(chunk_id * 8 + 16, n)],
                       ' ') AS chunk
FROM c
"""


@query("rag_chunks", oracle=ORACLE_RAG_CHUNKS)
def q_rag_chunks(sf_dir: str, width: int = 16, stride: int = 8):
    """Overlapping retrieval chunks (the RAG ingestion step): windows of
    ``width`` tokens every ``stride`` positions, last window ragged.
    Fully batch-local: each token row is expanded to its width/stride
    chunk memberships with index arithmetic, then one grouped join per
    CHUNK (line_dedup's assembly trick) — no per-token Python, no
    shuffle; chunk ids/offsets are deterministic for downstream joins
    back to documents or into an embedding stage."""
    import pandas as pd

    assert width % stride == 0, "width must be a multiple of stride"
    memberships = width // stride

    def to_chunks(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t["text"], " ")
        flat = pc.list_flatten(toks).to_pandas()
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        n = len(flat)
        if n == 0:
            return pa.table({
                "doc_id": pa.array([], pa.int64()),
                "chunk_id": pa.array([], pa.int64()),
                "start_tok": pa.array([], pa.int64()),
                "n_tok": pa.array([], pa.int64()),
                "chunk": pa.array([], pa.string())})
        parent = np.repeat(np.arange(len(t)), lens)
        starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
        pos = np.arange(n) - np.repeat(starts, lens)
        gids, toks_rep = [], []
        for m in range(memberships):
            cid = pos // stride - m
            ok = cid >= 0  # (cid*stride < n_tok holds: cid*stride <= pos)
            gids.append((parent[ok].astype(np.int64) << 22) + cid[ok])
            toks_rep.append(flat[ok])
        gid = np.concatenate(gids)
        tok_all = pd.concat(toks_rep, ignore_index=True)
        # sort=True groups by gid; intra-group order follows the input
        # order, which is position order within each membership copy —
        # concat order (m=0 first) never interleaves copies of the SAME
        # chunk because a token belongs to a chunk in exactly one m
        order = np.argsort(gid, kind="stable")
        joined = (tok_all.iloc[order].groupby(gid[order], sort=True)
                  .agg(" ".join))
        g = joined.index.to_numpy()
        sizes = pd.Series(1, index=gid[order]).groupby(level=0).sum()
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        cid = (g & ((1 << 22) - 1)).astype(np.int64)
        return pa.table({
            "doc_id": pa.array(ids[g >> 22], pa.int64()),
            "chunk_id": pa.array(cid, pa.int64()),
            "start_tok": pa.array(cid * stride, pa.int64()),
            "n_tok": pa.array(sizes.to_numpy().astype(np.int64)),
            "chunk": pa.array(joined.to_numpy(), pa.string())})

    return table(sf_dir, "documents",
                 columns=["doc_id", "text"]).map_batches(
        to_chunks, batch_format="pyarrow")


# ===================================== naive-Bayes language classifier
def _nb_model(sf_dir: str, min_count: int = 1):
    """Train the multinomial NB model: per-(lang, tok) counts via the
    map-side combiner + one groupby, then the driver quantizes
    log-likelihoods with ``math.log`` (libm — the SAME function DuckDB's
    ln() calls, so FLOOR(1e6*ln(x)) agrees bit-for-bit; numpy's SIMD log
    can differ by 1 ulp and is deliberately NOT used here).

    The driver never holds more than the PRUNED vocabulary: the
    smoothing constants (V = distinct-token count, per-lang token
    totals) are distributed scalars/lang-bounded pulls computed BEFORE
    the ``min_count`` prune, the prune itself is a vectorized filter on
    the aggregated Dataset (tf-idf's min_df discipline — VERDICT r03
    #1), and only surviving (lang, tok, c) rows cross to the driver.
    Pruned pairs score as unseen (the add-1 default). For open-web
    vocabularies past even the pruned broadcast gate, the scoring join
    would follow tfidf_top_term's hash-join path (stages/text.py:269)."""
    import math

    from ray.data.aggregate import Sum

    def tok_project(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t["text"], " ")
        return pa.table({
            "lang": t["lang"].take(pc.list_parent_indices(toks)),
            "tok": pc.list_flatten(toks),
        })

    counts = combine_aggregate(
        table(sf_dir, "documents",
              columns=["lang", "text"])
        .map_batches(tok_project, batch_format="pyarrow"),
        ["lang", "tok"], [("c", None, "count_all")])
    counts = counts.materialize()
    pri = (
        table(sf_dir, "documents", columns=["lang"])
        .groupby("lang").count()
    )

    # smoothing constants from the FULL distribution, computed
    # distributed (V is a scalar, totals are lang-bounded)
    from ray.data.aggregate import Count
    V = counts.groupby("tok").aggregate(Count(alias_name="_c")).count()
    totals_tbl = pa.concat_tables(list(
        counts.groupby("lang").aggregate(Sum("c", alias_name="t"))
        .iter_batches(batch_format="pyarrow")))
    full_totals = {lg: int(t) for lg, t in
                   zip(totals_tbl["lang"].to_pylist(),
                       totals_tbl["t"].to_pylist())}

    pulled = counts
    if min_count > 1:
        pulled = counts.map_batches(
            lambda t: t.filter(pc.greater_equal(t["c"], min_count)),
            batch_format="pyarrow")
    langs_l, toks_l, cs_l = [], [], []
    for b in pulled.iter_batches(batch_format="pyarrow"):
        langs_l.extend(b["lang"].to_pylist())
        toks_l.extend(b["tok"].to_pylist())
        cs_l.extend(b["c"].to_pylist())
    doc_counts = {}
    for b in pri.iter_batches(batch_format="pyarrow"):
        for lg, n in zip(b["lang"].to_pylist(), b["count()"].to_pylist()):
            doc_counts[lg] = int(n)

    langs = sorted(doc_counts)
    lidx = {lg: i for i, lg in enumerate(langs)}
    vocab = np.array(sorted(set(toks_l)), dtype=object)
    vidx = {tk: i for i, tk in enumerate(vocab)}
    totals = np.array([full_totals.get(lg, 0) for lg in langs],
                      dtype=np.int64)
    cmat = np.zeros((len(vocab), len(langs)), dtype=np.int64)
    for lg, tk, c in zip(langs_l, toks_l, cs_l):
        cmat[vidx[tk], lidx[lg]] = c
    nd = sum(doc_counts.values())
    model = np.empty((len(vocab), len(langs)), dtype=np.int64)
    defaults = np.empty(len(langs), dtype=np.int64)
    priors = np.empty(len(langs), dtype=np.int64)
    for j in range(len(langs)):
        denom = int(totals[j]) + V
        defaults[j] = math.floor(1e6 * math.log(1.0 / denom))
        priors[j] = math.floor(
            1e6 * math.log(doc_counts[langs[j]] / nd))
        # a column holds few distinct counts: one log each, then a gather
        cs, inv = np.unique(cmat[:, j], return_inverse=True)
        logs = [math.floor(1e6 * math.log((int(c) + 1) / denom)) for c in cs]
        model[:, j] = np.array(logs, dtype=np.int64)[inv]
    return langs, vocab, model, defaults, priors


ORACLE_NB_LANG_CONFUSION = """
WITH tok AS (
  SELECT doc_id, lang, unnest(string_split(text, ' ')) AS tok
  FROM documents
),
vv AS (SELECT COUNT(DISTINCT tok) AS v FROM tok),
langs AS (SELECT DISTINCT lang FROM documents),
counts AS (SELECT lang, tok, COUNT(*) AS c FROM tok GROUP BY lang, tok),
totals AS (SELECT lang, COUNT(*) AS t FROM tok GROUP BY lang),
priors AS (SELECT lang, COUNT(*) AS d FROM documents GROUP BY lang),
nd AS (SELECT COUNT(*) AS nd FROM documents),
scored AS (
  SELECT dt.doc_id, l.lang AS cand,
         SUM(CAST(FLOOR(1e6 * ln(
               (COALESCE(c.c, 0) + 1)::DOUBLE / (t.t + vv.v)
             )) AS BIGINT)) AS s
  FROM tok dt
  CROSS JOIN langs l
  JOIN totals t ON t.lang = l.lang
  CROSS JOIN vv
  LEFT JOIN counts c ON c.lang = l.lang AND c.tok = dt.tok
  GROUP BY dt.doc_id, l.lang
),
with_prior AS (
  SELECT s.doc_id, s.cand,
         s.s + CAST(FLOOR(1e6 * ln(p.d::DOUBLE / nd.nd)) AS BIGINT)
           AS score
  FROM scored s JOIN priors p ON p.lang = s.cand CROSS JOIN nd
),
pred AS (
  SELECT doc_id, cand AS lang_pred,
         ROW_NUMBER() OVER (PARTITION BY doc_id
                            ORDER BY score DESC, cand ASC) AS rn
  FROM with_prior
)
SELECT d.lang, p.lang_pred, CAST(COUNT(*) AS BIGINT) AS n
FROM pred p JOIN documents d USING (doc_id)
WHERE p.rn = 1
GROUP BY d.lang, p.lang_pred
"""


@query("nb_lang_confusion", oracle=ORACLE_NB_LANG_CONFUSION)
def q_nb_lang_confusion(sf_dir: str, min_count: int = 1):
    """Train a multinomial naive-Bayes language classifier on the corpus
    and self-classify it, reporting the (lang, lang_pred, n) confusion
    matrix. Scores are int64 micro-log-units (FLOOR(1e6*ln(p)) summed
    over token OCCURRENCES plus the prior), so the distributed sums are
    order-independent and the argmax (ties -> lexicographically first
    lang) is exactly the oracle's ROW_NUMBER pick."""
    import ray

    from odinson_ray.stages.link import get_broadcast

    langs, vocab, model, defaults, priors = _nb_model(sf_dir, min_count)
    ref = ray.put((langs, vocab, model, defaults, priors))

    def classify(t: pa.Table) -> pa.Table:
        langs_b, vocab_b, model_b, def_b, pri_b = get_broadcast(ref)
        L = len(langs_b)
        toks = pc.split_pattern(t["text"], " ")
        flat = np.asarray(pc.list_flatten(toks).to_pylist(), dtype=object)
        parent = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        ndocs = t.num_rows
        scores = np.tile(pri_b, (ndocs, 1))
        if len(flat):
            if len(vocab_b):
                pos = np.searchsorted(vocab_b, flat)
                pos = np.minimum(pos, len(vocab_b) - 1)
                known = vocab_b[pos] == flat
                tok_scores = np.where(known[:, None], model_b[pos],
                                      def_b[None, :])
            else:  # fully pruned model: every token scores the default
                tok_scores = np.broadcast_to(
                    def_b[None, :], (len(flat), L)).copy()
            for j in range(L):
                np.add.at(scores[:, j], parent, tok_scores[:, j])
        pred = np.argmax(scores, axis=1)  # first max = smallest lang
        return pa.table({
            "lang": t["lang"],
            "lang_pred": pa.array([langs_b[p] for p in pred], pa.string()),
        })

    return combine_aggregate(
        table(sf_dir, "documents",
              columns=["lang", "text"])
        .map_batches(classify, batch_format="pyarrow"),
        ["lang", "lang_pred"], [("n", None, "count_all")])


# ===================== DSIR importance resampling (hashed-bigram model)

#: hashed feature buckets. 256 keeps the oracle's bucket CTE enumerable
#: while exercising real collisions; the paper uses 10k — the shape is
#: identical, only this constant (and the driver-side 2 KB table) grows.
_DSIR_B = 256


_DSIR_TARGET = "en"  # target domain: English docs; raw = whole corpus


_DSIR_K = 50


# md5 of the bigram string is the oracle contract (DuckDB recomputes it:
# CAST(('0x' || substr(md5(bg), 1, 8)) AS BIGINT) % B) — hex-prefix
# big-endian, NOT dedup._md5_64's little-endian digest prefix. Bounded
# per-process cache: bigrams repeat heavily across documents.
_BUCKET_CACHE: dict[str, int] = {}


_BUCKET_CACHE_CAP = 1 << 20


def _bucket_of(bg: str) -> int:
    v = _BUCKET_CACHE.get(bg)
    if v is None:
        v = int(hashlib.md5(bg.encode("utf-8")).hexdigest()[:8], 16) % _DSIR_B
        if len(_BUCKET_CACHE) < _BUCKET_CACHE_CAP:
            _BUCKET_CACHE[bg] = v
    return v


def _doc_buckets(text: str) -> np.ndarray:
    """Bucket ids of the document's space-split bigram OCCURRENCES
    (duplicates kept — DSIR counts occurrences, not types)."""
    ws = text.split(" ")
    n = len(ws) - 1
    if n <= 0:
        return np.empty(0, np.int64)
    return np.fromiter(
        (_bucket_of(ws[i] + " " + ws[i + 1]) for i in range(n)),
        np.int64, n)


def dsir_bucket_stats(sf_dir: str):
    """Pass 1: per-bucket bigram-occurrence counts, target vs raw.

    Per-batch combiner emits exactly ``_DSIR_B`` partial rows, then ONE
    bounded-domain groupby (256 groups) — the driver only ever sees the
    256-row result, never token data, at any corpus size."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        ct = np.zeros(_DSIR_B, np.int64)
        cr = np.zeros(_DSIR_B, np.int64)
        langs = t["lang"].to_pylist()
        for text, lang in zip(t["text"].to_pylist(), langs):
            bs = _doc_buckets(text)
            if len(bs) == 0:
                continue
            bc = np.bincount(bs, minlength=_DSIR_B)
            cr += bc
            if lang == _DSIR_TARGET:
                ct += bc
        return pa.table({
            "b": pa.array(np.arange(_DSIR_B, dtype=np.int64)),
            "ct": pa.array(ct), "cr": pa.array(cr),
        })

    agg = (table(sf_dir, "documents",
                 columns=["text", "lang"])
           .map_batches(partial, batch_format="pyarrow")
           .groupby("b").aggregate(Sum("ct"), Sum("cr")))
    rows = agg.take_all()  # exactly _DSIR_B rows, bounded by construction
    ct = np.zeros(_DSIR_B, np.int64)
    cr = np.zeros(_DSIR_B, np.int64)
    for r in rows:
        ct[r["b"]] = r["sum(ct)"]
        cr[r["b"]] = r["sum(cr)"]
    return ct, cr


def dsir_term_table(ct: np.ndarray, cr: np.ndarray) -> np.ndarray:
    """Per-bucket importance term in int64 micro-units:
    floor((ln((ct+1)/(tt+B)) - ln((cr+1)/(tr+B))) * 1e6) — Laplace-
    smoothed log-likelihood ratio of the hashed target vs raw unigram-
    of-bigrams model, the DSIR importance weight per feature count."""
    tt = float(ct.sum())
    tr = float(cr.sum())
    out = np.empty(_DSIR_B, np.int64)
    for b in range(_DSIR_B):
        out[b] = math.floor(
            (math.log((float(ct[b]) + 1.0) / (tt + float(_DSIR_B)))
             - math.log((float(cr[b]) + 1.0) / (tr + float(_DSIR_B))))
            * 1000000.0)
    return out


ORACLE_DSIR_SELECT = """
WITH toks AS (
  SELECT doc_id, lang, string_split(text, ' ') AS ws FROM documents
),
bb AS (
  SELECT doc_id, lang,
         CAST(('0x' || substr(md5(bg), 1, 8)) AS BIGINT) % 256 AS b
  FROM toks,
       UNNEST([ws[i] || ' ' || ws[i + 1]
               FOR i IN generate_series(1, len(ws) - 1)]) AS u(bg)
),
stats AS (
  SELECT b,
         COUNT(*) FILTER (WHERE lang = 'en') AS ct,
         COUNT(*) AS cr
  FROM bb GROUP BY b
),
tot AS (SELECT SUM(ct) AS tt, SUM(cr) AS tr FROM stats),
term AS (
  SELECT b,
         CAST(FLOOR((ln((ct + 1.0) / (tt + 256.0))
                     - ln((cr + 1.0) / (tr + 256.0))) * 1000000.0)
              AS BIGINT) AS tm
  FROM stats, tot
),
w AS (
  SELECT bb.doc_id, CAST(SUM(term.tm) AS BIGINT) AS w_micro
  FROM bb JOIN term USING (b) GROUP BY bb.doc_id
)
SELECT d.doc_id, d.lang, w.w_micro
FROM w JOIN documents d USING (doc_id)
ORDER BY w.w_micro DESC, d.doc_id
LIMIT 50
"""


@query("dsir_select", oracle=ORACLE_DSIR_SELECT)
def q_dsir_select(sf_dir: str):
    """DSIR data selection: top-k (_DSIR_K=50) documents by
    hashed-bigram importance weight toward the _DSIR_TARGET ('en')
    domain.

    Shape: pass 1 is a bounded-domain combiner groupby (_DSIR_B=256
    buckets — the only thing the driver ever holds); the 256-entry
    int64 term table is ``ray.put`` once and read by every scoring
    task; pass 2 scores each doc with one vectorized
    ``tm[buckets].sum()`` and prunes to the batch-local top-k before
    the global sort (global_topk), so the sort input is <= k rows per
    block. Documents with no bigram (< 2 tokens) carry no evidence and
    are excluded on both sides."""
    import ray

    from odinson_ray.stages.link import get_broadcast
    from odinson_ray.stages.shuffle import global_topk

    ct, cr = dsir_bucket_stats(sf_dir)
    tm_ref = ray.put(dsir_term_table(ct, cr))

    def score(t: pa.Table) -> pa.Table:
        tm = get_broadcast(tm_ref)
        doc_ids = t["doc_id"].to_numpy(zero_copy_only=False)
        langs = t["lang"].to_pylist()
        texts = t["text"].to_pylist()
        out_id, out_lang, out_w = [], [], []
        for did, lang, text in zip(doc_ids, langs, texts):
            bs = _doc_buckets(text)
            if len(bs) == 0:
                continue
            out_id.append(int(did))
            out_lang.append(lang)
            out_w.append(int(tm[bs].sum()))
        return pa.table({
            "doc_id": pa.array(out_id, pa.int64()),
            "lang": pa.array(out_lang, pa.string()),
            "w_micro": pa.array(out_w, pa.int64()),
        })

    scored = table(
        sf_dir, "documents", columns=["doc_id", "lang", "text"]
    ).map_batches(score, batch_format="pyarrow")
    return global_topk(scored, ["w_micro", "doc_id"], [True, False], _DSIR_K)


# ========================= per-source lexical diversity (types / hapax)


ORACLE_VOCAB_HAPAX = """
WITH occ AS (
  SELECT source, tok FROM (
    SELECT source, string_split(text, ' ') AS ws FROM documents
  ), UNNEST(ws) AS u(tok)
),
per_tok AS (
  SELECT source, tok, COUNT(*) AS c FROM occ GROUP BY source, tok
)
SELECT source,
       CAST(SUM(c) AS BIGINT) AS n_tokens,
       CAST(COUNT(*) AS BIGINT) AS n_types,
       CAST(COUNT(*) FILTER (WHERE c = 1) AS BIGINT) AS n_hapax,
       CAST(COUNT(*) * 10000 // SUM(c) AS BIGINT) AS ttr_bp
FROM per_tok
GROUP BY source
ORDER BY source
"""


@query("vocab_hapax", oracle=ORACLE_VOCAB_HAPAX)
def q_vocab_hapax(sf_dir: str):
    """Per-source lexical-diversity report: token occurrences, distinct
    types, hapax count (types with within-source frequency exactly 1)
    and the type/token ratio in basis points (integer-exact:
    floor(types * 10000 / tokens)).

    Shape: per-batch (source, token) count combiner -> ONE global
    groupby over (source, token) -> per-(source, token) rows fold into
    per-source sums via a second combiner groupby (|sources| groups,
    bounded). The driver sees |sources| rows; the vocabulary never
    leaves the cluster."""

    def tok_project(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t["text"], " ")
        flat = pc.list_flatten(toks)
        src = pc.take(t["source"].combine_chunks(),
                      pc.list_parent_indices(toks))

        return pa.table({"source": src, "tok": flat})

    per_tok = combine_aggregate(
        table(sf_dir, "documents",
              columns=["source", "text"])
        .map_batches(tok_project, batch_format="pyarrow"),
        ["source", "tok"], [("c", None, "count_all")])

    def src_project(t: pa.Table) -> pa.Table:
        if t.schema.metadata:
            t = t.replace_schema_metadata(None)
        c = pc.cast(t["c"], pa.int64())
        return pa.table({
            "source": t["source"],
            "n_tokens": c,
            "n_types": pa.array(np.ones(len(t), np.int64)),
            "n_hapax": pc.cast(pc.equal(c, 1), pa.int64()),
        })

    agg = combine_aggregate(
        per_tok.map_batches(src_project, batch_format="pyarrow"),
        "source",
        [("n_tokens", "n_tokens", "sum"), ("n_types", "n_types", "sum"),
         ("n_hapax", "n_hapax", "sum")])

    def finish(t: pa.Table) -> pa.Table:
        if t.schema.metadata:
            t = t.replace_schema_metadata(None)
        ntok = pc.cast(t["n_tokens"], pa.int64())
        ntyp = pc.cast(t["n_types"], pa.int64())
        ttr = pc.divide(pc.multiply(ntyp, pa.scalar(10000, pa.int64())),
                        ntok)
        return pa.table({
            "source": t["source"], "n_tokens": ntok, "n_types": ntyp,
            "n_hapax": pc.cast(t["n_hapax"], pa.int64()),
            "ttr_bp": ttr,
        })

    return agg.map_batches(finish, batch_format="pyarrow").sort("source")


# =========================== nearest-prior-antecedent (coref-lite) link
_ANAPHOR = "the"


_ANTECEDENTS = ("customer", "spark", "table")


ORACLE_COREF_ANTECEDENTS = """
WITH toks AS (
  SELECT doc_id, string_split(text, ' ') AS ws FROM documents
),
pos AS (
  SELECT doc_id, ws, i, ws[i] AS tok
  FROM toks, UNNEST([i FOR i IN generate_series(1, len(ws))]) AS u(i)
),
w AS (
  SELECT doc_id, ws, i, tok,
         MAX(CASE WHEN tok IN ('customer', 'spark', 'table')
                  THEN i END)
           OVER (PARTITION BY doc_id ORDER BY i
                 ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
           AS ante_pos
  FROM pos
)
SELECT doc_id, CAST(i AS BIGINT) AS pos,
       CAST(ante_pos AS BIGINT) AS ante_pos,
       ws[ante_pos] AS antecedent
FROM w
WHERE tok = 'the' AND ante_pos IS NOT NULL
ORDER BY doc_id, pos
"""


@query("coref_antecedents", oracle=ORACLE_COREF_ANTECEDENTS)
def q_coref_antecedents(sf_dir: str):
    """Each occurrence of the anaphor token linked to the nearest
    preceding antecedent-set token in the same document (dropped when
    no antecedent precedes it). Positions are 1-based token indices.

    Shape: ZERO shuffle — documents are row-independent, so the whole
    pass is one ``map_batches``: tokens flatten with parent indices,
    an EXCLUSIVE prefix-max over (antecedent ? flat-index : -1) finds
    the latest prior antecedent in one vectorized sweep, and a
    doc-start clamp stops the prefix from leaking across document
    boundaries (a prior doc's antecedent has a smaller flat index than
    the doc start, so the clamp rejects it)."""
    ante_set = set(_ANTECEDENTS)

    ante_arr = pa.array(sorted(ante_set))

    def link(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t["text"], " ")
        flat = pc.list_flatten(toks).combine_chunks()
        parent = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        if len(flat) == 0:
            return pa.table({
                "doc_id": pa.array([], pa.int64()),
                "pos": pa.array([], pa.int64()),
                "ante_pos": pa.array([], pa.int64()),
                "antecedent": pa.array([], pa.string()),
            })
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        starts = np.concatenate(([0], np.cumsum(lens)[:-1]))  # per doc
        doc_ids = t["doc_id"].to_numpy(zero_copy_only=False)

        # Arrow kernels for the string work; numpy only for index math
        is_ante = pc.is_in(flat, value_set=ante_arr).to_numpy(
            zero_copy_only=False)
        idx = np.where(is_ante, np.arange(len(flat)), -1)
        # exclusive prefix max: latest antecedent flat-index strictly
        # before each position
        prev = np.concatenate(([-1], np.maximum.accumulate(idx)[:-1]))

        is_ana = pc.equal(flat, _ANAPHOR).to_numpy(zero_copy_only=False)
        row_start = starts[parent]
        ok = is_ana & (prev >= row_start)  # same-document antecedent
        pos = np.flatnonzero(ok)
        ante = prev[pos]
        return pa.table({
            "doc_id": pa.array(doc_ids[parent[pos]], pa.int64()),
            "pos": pa.array(pos - row_start[pos] + 1, pa.int64()),
            "ante_pos": pa.array(ante - row_start[pos] + 1, pa.int64()),
            "antecedent": flat.take(pa.array(ante, pa.int64())),
        })

    return (table(sf_dir, "documents",
                  columns=["doc_id", "text"])
            .map_batches(link, batch_format="pyarrow")
            .sort(["doc_id", "pos"]))


# ================================== k-anonymity quasi-identifier audit
_KANON_K = 5


_LEN_BUCKET = 50


ORACLE_K_ANONYMITY = """
SELECT lang, source, CAST(n_chars // 50 AS BIGINT) AS len_bucket,
       CAST(COUNT(*) AS BIGINT) AS n
FROM documents
GROUP BY lang, source, len_bucket
HAVING COUNT(*) < 5
ORDER BY lang, source, len_bucket
"""


@query("k_anonymity_risk", oracle=ORACLE_K_ANONYMITY)
def q_k_anonymity_risk(sf_dir: str):
    """Quasi-identifier combinations (lang, source,
    n_chars // 50) with fewer than k=5 documents (_LEN_BUCKET /
    _KANON_K) — the groups a release gate must suppress or generalize.
    Shape: one per-batch count combiner + one bounded-domain groupby
    (|langs| x |sources| x |length buckets| rows); only violating
    combos (plus their counts) reach the driver."""

    def project(t: pa.Table) -> pa.Table:
        return pa.table({
            "lang": t["lang"],
            "source": t["source"],
            "len_bucket": pc.divide(
                pc.cast(t["n_chars"], pa.int64()),
                pa.scalar(_LEN_BUCKET, pa.int64())),
        })

    agg = combine_aggregate(
        table(sf_dir, "documents",
              columns=["lang", "source", "n_chars"])
        .map_batches(project, batch_format="pyarrow"),
        ["lang", "source", "len_bucket"], [("n", None, "count_all")])

    def risky(t: pa.Table) -> pa.Table:
        if t.schema.metadata:
            t = t.replace_schema_metadata(None)
        n = pc.cast(t["n"], pa.int64())
        t = pa.table({"lang": t["lang"], "source": t["source"],
                      "len_bucket": pc.cast(t["len_bucket"], pa.int64()),
                      "n": n})
        return t.filter(pc.less(n, _KANON_K))

    return (agg.map_batches(risky, batch_format="pyarrow")
            .sort(["lang", "source", "len_bucket"]))


@query("compression_quality")  # no oracle by design
def q_compression_quality(sf_dir: str):
    """Per-document zlib compression ratio — the compressibility quality
    signal pre-training curation pipelines use to flag boilerplate /
    repetitive text (highly compressible => low information density).
    Zero shuffle: one map_batches; per-row zlib over utf-8 bytes is the
    feature extraction (bounded per row), everything around it columnar.
    No SQL oracle (DuckDB has no zlib) — pinned by a recompute twin
    pytest; rows-only driver check."""
    import zlib

    def f(t: pa.Table) -> pa.Table:
        texts = t["text"].to_pylist()
        raw = [len(x.encode("utf-8")) if x else 0 for x in texts]
        comp = [len(zlib.compress(x.encode("utf-8"), 6)) if x else 0
                for x in texts]
        ratio = [round(c / r, 6) if r else 0.0 for c, r in zip(comp, raw)]
        return pa.table({
            "doc_id": t["doc_id"],
            "raw_len": pa.array(raw, pa.int64()),
            "comp_len": pa.array(comp, pa.int64()),
            "comp_ratio": pa.array(ratio, pa.float64()),
        })

    return (table(sf_dir, "documents",
                  columns=["doc_id", "text"])
            .map_batches(f, batch_format="pyarrow"))
