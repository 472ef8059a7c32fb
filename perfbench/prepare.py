"""Per-workload inputs, made from the seed before any timed process starts.

Each ``prepare_<workload>`` writes into the run's work directory the
files the worker reads (``spec.json``, corpora, oracles) and returns the
generator parameters recorded in the result. None of this is timed: it
is the benchmark's own corpus generation and reference computation.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import corpus

#: corpus and batch sizes per workload; ``tiny`` is the self-test scale
SIZES = {
    "kg_raw": {"n_docs": 2000, "batch_size": 256},
    "extract_prepared": {"n_docs": 600, "batch_size": 32},
    "query_adhoc": {"n_docs": 1000, "rounds": 40},
    "kg_ray": {"n_docs": 5000, "warm_docs": 512, "batch_size": 256},
}
TINY = {
    "kg_raw": {"n_docs": 300},
    "extract_prepared": {"n_docs": 80},
    "query_adhoc": {"n_docs": 60},
    "kg_ray": {"n_docs": 400, "warm_docs": 64},
}


def _write_spec(work: str, spec: dict):
    with open(os.path.join(work, "spec.json"), "w") as f:
        json.dump(spec, f)


def _interleave_annotate(docs: pa.Table) -> pa.Table:
    """The corpus as ``sources.interleaved.prepare_corpus`` writes it."""
    from odinson_ray.sources.interleaved import build_interleaved
    from odinson_ray.stages.annotate import annotate_batch

    return annotate_batch(build_interleaved(docs))


def prepare_kg_raw(work: str, seed: int, spec: dict) -> dict:
    docs, params = corpus.make_documents(seed, spec["n_docs"], "closed")
    corpus.write_documents(docs, os.path.join(work, "data"))
    pq.write_table(corpus.oracle_kg_triples(docs), os.path.join(work, "oracle.parquet"))
    _write_spec(work, spec)
    return params


def prepare_extract_prepared(work: str, seed: int, spec: dict) -> dict:
    from odinson_ray.stages.match import GrammarMatcher
    from worker import PREPARED_GRAMMAR

    docs, params = corpus.make_documents(seed, spec["n_docs"], "closed")
    pq.write_table(_interleave_annotate(docs), os.path.join(work, "prepared.parquet"))
    # the reference: the same grammar on the raw text (inline annotation)
    matcher = GrammarMatcher(PREPARED_GRAMMAR)
    size = spec["batch_size"]
    reference = pa.concat_tables(
        [matcher(docs.slice(i, size)) for i in range(0, docs.num_rows, size)])
    pq.write_table(reference, os.path.join(work, "reference.parquet"))
    _write_spec(work, spec)
    return params


def prepare_kg_ray(work: str, seed: int, spec: dict) -> dict:
    docs, params = corpus.make_documents(seed, spec["n_docs"], "open")
    corpus.write_documents(docs, os.path.join(work, "data"))
    warm, _ = corpus.make_documents(seed + 1_000_003, spec["warm_docs"], "open")
    corpus.write_documents(warm, os.path.join(work, "warm"))
    pq.write_table(corpus.oracle_kg_triples(docs), os.path.join(work, "oracle.parquet"))
    _write_spec(work, spec)
    return params


# ------------------------------------------------------------ query_adhoc

NOUNS = ("vector", "key", "row", "query")
VERBS = ("scan", "join", "merge", "group")
INITIALS = ("s", "b", "f", "w")
#: template -> its four fills. The set is fixed so that every run sends
#: the same mix of pattern shapes; the seed draws the corpus and the order.
#: Bigrams use two distinct words: a repeated word would make overlapping
#: matches, which the engine does not return and DuckDB would count.
TEMPLATES = {
    "term": [("[word={}]", w) for w in ("spark", "the", "join", "vector")],
    "bigram": [("[word={}] [word={}]", *g) for g in
               (("the", "spark"), ("fast", "table"), ("join", "key"), ("spark", "sort"))],
    "regex": [("[word=/{}.*/]", c) for c in INITIALS],
    "and_not": [("[tag=NN & !word={}]", w) for w in NOUNS],
    "greedy": [("[tag=JJ]+ [word={}]", w) for w in NOUNS],
    "lazy": [("[tag=DT]? [tag=JJ]{{1,2}}? [word={}]", w) for w in NOUNS],
    "lookbehind": [("(?<=[word={}]) [tag=NN]", w) for w in ("the", "fast", "join", "spark")],
    "lookahead": [("[tag=NN] (?=[word={}])", w) for w in VERBS],
    "out": [("[word={}] >nsubj []", w) for w in VERBS],
    "in": [("[word={}] <dobj [tag=VB]", w) for w in NOUNS],
    "wildcard": [("[word={}] >> [word={}]", v, n) for v, n in zip(VERBS, NOUNS)],
    "multi_hop": [("[word={}] >conj [] >dobj [tag=NN]", w) for w in VERBS],
    "in_out": [("[word={}] <nsubj [] >dobj []", w) for w in NOUNS],
    "quantified_hop": [("[word={}] >conj{{1,3}} [tag=VB]", w) for w in VERBS],
    "regex_in": [("[lemma=/{}.*/] <amod []", c) for c in INITIALS],
}
#: DuckDB counts these templates' matches (one n-gram of the fill words)
NGRAM_TEMPLATES = ("term", "bigram")


def prepare_query_adhoc(work: str, seed: int, spec: dict) -> dict:
    docs, params = corpus.make_documents(seed, spec["n_docs"], "closed")
    pq.write_table(_interleave_annotate(docs), os.path.join(work, "prepared.parquet"))
    rng = np.random.default_rng([seed, 1])
    patterns, grams = [], []
    for kind, fills in TEMPLATES.items():
        for fmt, *words in fills:
            # page count of the pagination check: 2..8 pages
            patterns.append({"kind": kind, "pattern": fmt.format(*words),
                             "pages": int(rng.integers(2, 9))})
            grams.append(tuple(words) if kind in NGRAM_TEMPLATES else None)
    counts = corpus.oracle_ngram_counts(docs, {g for g in grams if g})
    for p, g in zip(patterns, grams):
        if g:
            p["expect"] = int(counts[g])
    # each round sends every pattern once, in a seeded order
    rounds = [rng.permutation(len(patterns)).tolist() for _ in range(spec["rounds"])]
    with open(os.path.join(work, "patterns.json"), "w") as f:
        json.dump({"patterns": patterns, "rounds": rounds}, f)
    _write_spec(work, spec)
    params.update(patterns_per_round=len(patterns), templates=list(TEMPLATES))
    return params


PREPARE = {
    "kg_raw": prepare_kg_raw,
    "extract_prepared": prepare_extract_prepared,
    "query_adhoc": prepare_query_adhoc,
    "kg_ray": prepare_kg_ray,
}
