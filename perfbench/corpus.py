"""Seeded corpus generators and DuckDB oracles for the benchmark.

Every corpus has the ``documents.parquet`` schema the engine reads
(``doc_id:int64, text, lang, source``). Tokens are lowercase ASCII words
joined by single spaces, the domain on which the canonicalisation SQL of
``pipelines.queries.ORACLE_KG_TRIPLES`` mirrors ``stages.link.canon_key``.

Two vocabularies:

- ``closed``: the 31 words of the reference test data (30 words that the
  deterministic annotator tags, plus ``dup``), drawn uniformly; document
  length is uniform on 10..100 tokens, the length distribution of the
  sf0.1 documents table.
- ``open``: each token is a closed word with probability ``closed_p``,
  otherwise a word of a seeded ``open_words``-word vocabulary drawn with
  Zipf(``zipf_s``) ranks, so entity surfaces have a realistic working set.
"""

from __future__ import annotations

import os
import string

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

CLOSED_WORDS = (
    "vector", "column", "customer", "table", "scan", "spark", "value", "data",
    "join", "big", "key", "slow", "stream", "row", "line", "group", "filter",
    "window", "merge", "a", "batch", "small", "agg", "hash", "query", "the",
    "order", "part", "fast", "sort", "dup",
)
LANGS = ("en", "de", "es", "fr", "zh")
LANG_P = (0.41, 0.14, 0.15, 0.15, 0.15)
MIN_TOKENS, MAX_TOKENS = 10, 100
N_SOURCES = 20


def open_vocabulary(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` distinct lowercase ASCII words (3..9 letters), none of them a
    closed word, in a seeded order (rank 1 first)."""
    letters = np.array(list(string.ascii_lowercase))
    closed = set(CLOSED_WORDS)
    out, seen = [], set()
    while len(out) < n:
        lens = rng.integers(3, 10, size=2 * n)
        chars = letters[rng.integers(0, 26, size=(2 * n, 9))]
        for row, k in zip(chars, lens):
            w = "".join(row[:k])
            if w not in seen and w not in closed:
                seen.add(w)
                out.append(w)
                if len(out) == n:
                    break
    return np.array(out, dtype=object)


def make_documents(seed: int, n_docs: int, vocab: str = "closed",
                   open_words: int = 50_000, zipf_s: float = 1.2,
                   closed_p: float = 0.5) -> tuple:
    """Seeded documents table plus the generator parameters that made it."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(MIN_TOKENS, MAX_TOKENS + 1, size=n_docs)
    total = int(lengths.sum())
    closed = np.array(CLOSED_WORDS, dtype=object)
    toks = closed[rng.integers(0, len(closed), size=total)]
    params = {"seed": seed, "n_docs": n_docs, "vocab": vocab,
              "tokens_per_doc": [MIN_TOKENS, MAX_TOKENS]}
    if vocab == "open":
        words = open_vocabulary(rng, open_words)
        ranks = np.arange(1, open_words + 1, dtype=np.float64)
        p = ranks ** -zipf_s
        p /= p.sum()
        is_open = rng.random(total) >= closed_p
        toks[is_open] = words[rng.choice(open_words, size=int(is_open.sum()), p=p)]
        params.update(open_words=open_words, zipf_s=zipf_s, closed_p=closed_p)
    elif vocab != "closed":
        raise ValueError(f"unknown vocabulary {vocab!r}")
    bounds = np.concatenate(([0], np.cumsum(lengths)))
    texts = [" ".join(toks[bounds[i]:bounds[i + 1]]) for i in range(n_docs)]
    doc_ids = np.arange(n_docs, dtype=np.int64)
    table = pa.table({
        "doc_id": pa.array(doc_ids, pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(rng.choice(LANGS, size=n_docs, p=LANG_P).tolist(), pa.string()),
        "source": pa.array([f"src{i % N_SOURCES}" for i in range(n_docs)], pa.string()),
    })
    return table, params


def write_documents(table: pa.Table, data_dir: str) -> str:
    os.makedirs(data_dir, exist_ok=True)
    path = os.path.join(data_dir, "documents.parquet")
    pq.write_table(table, path)
    return path


def _duckdb(table: pa.Table):
    import duckdb

    con = duckdb.connect()
    con.register("documents", table)
    return con


def oracle_kg_triples(table: pa.Table) -> pa.Table:
    """The repository's own DuckDB oracle for the flagship KG output."""
    from odinson_ray.pipelines.queries import ORACLE_KG_TRIPLES

    con = _duckdb(table)
    try:
        return con.execute(ORACLE_KG_TRIPLES).arrow()
    finally:
        con.close()


def oracle_ngram_counts(table: pa.Table, ngrams) -> dict:
    """Occurrences of each word n-gram (a tuple of words) inside one
    synthetic sentence: ``sources.interleaved`` cuts text into sentences
    of 20 tokens, so an n-gram may not cross a multiple-of-20 boundary."""
    from odinson_ray.sources.interleaved import SENT_TOKENS

    con = _duckdb(table)
    try:
        con.execute(f"""
            CREATE TEMP TABLE toks AS
            SELECT doc_id, unnest(string_split(text, ' ')) AS tok,
                   unnest(generate_series(0, len(string_split(text, ' ')) - 1)) AS p
            FROM documents""")
        out = {}
        for gram in ngrams:
            joins = " ".join(
                f"JOIN toks t{i} ON t{i}.doc_id = t0.doc_id AND t{i}.p = t0.p + {i}"
                for i in range(1, len(gram)))
            where = " AND ".join(f"t{i}.tok = ?" for i in range(len(gram)))
            same_sent = (f" AND t0.p // {SENT_TOKENS} = (t0.p + {len(gram) - 1}) // {SENT_TOKENS}"
                         if len(gram) > 1 else "")
            out[gram] = con.execute(
                f"SELECT count(*) FROM toks t0 {joins} WHERE {where}{same_sent}",
                list(gram)).fetchone()[0]
        return out
    finally:
        con.close()
