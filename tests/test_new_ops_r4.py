"""Round-4 operators: BM25, hash split, top tokens, bigram successor,
PMI, z-score, HLL sketch."""

import math
from collections import Counter

import numpy as np
import pandas as pd
import pytest


@pytest.fixture(scope="module", autouse=True)
def _ray(ray_session):
    yield


def test_hll_matches_exact_within_tolerance(sf_dir):
    from odinson_ray.pipelines.queries.events import q_approx_users_per_type

    got = q_approx_users_per_type(sf_dir).to_pandas().set_index("event_type")
    ev = pd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "user_id"])
    exact = ev.groupby("event_type")["user_id"].nunique()
    assert set(got.index) == set(exact.index)
    for et, n in exact.items():
        approx = got.loc[et, "approx_users"]
        assert abs(approx - n) <= max(5, 0.05 * n), (et, approx, n)


def test_hll_merge_invariant_to_partitioning(sf_dir):
    """Same estimate no matter how the value stream is batched (register
    max-merge is associative+commutative)."""
    import ray.data as rd

    from odinson_ray.stages.sketch import hll_distinct

    ev = pd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "user_id"])
    a = hll_distinct(rd.from_pandas(ev).repartition(1),
                     "event_type", "user_id").to_pandas()
    b = hll_distinct(rd.from_pandas(ev).repartition(13),
                     "event_type", "user_id").to_pandas()
    pd.testing.assert_frame_equal(
        a.sort_values("event_type").reset_index(drop=True),
        b.sort_values("event_type").reset_index(drop=True))


def test_bm25_scores_match_local(sf_dir):
    from odinson_ray.pipelines.queries.text import BM25_QUERY, q_bm25_topk

    got = q_bm25_topk(sf_dir).to_pandas()
    docs = pd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    toks = [t.split(" ") for t in docs["text"]]
    n = len(docs)
    avg = sum(len(ts) for ts in toks) / n
    df = {q: sum(q in set(ts) for ts in toks) for q in BM25_QUERY}
    rows = []
    for doc_id, ts in zip(docs["doc_id"], toks):
        c = Counter(ts)
        s = 0.0
        for q in BM25_QUERY:
            idf = math.log((n - df[q] + 0.5) / (df[q] + 0.5) + 1.0)
            tf = c[q]
            s += idf * (tf * 2.2) / (tf + 1.2 * (0.25 + 0.75 * len(ts) / avg))
        if round(s, 6) > 0:
            rows.append((doc_id, round(s, 6)))
    want = pd.DataFrame(rows, columns=["doc_id", "score"]).sort_values(
        ["score", "doc_id"], ascending=[False, True]).head(10).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True).astype({"doc_id": "int64"}), want)


def test_doc_split_deterministic_and_complete(sf_dir):
    from odinson_ray.pipelines.queries.text import q_doc_split_counts

    a = q_doc_split_counts(sf_dir).to_pandas().set_index("split")["n_docs"]
    b = q_doc_split_counts(sf_dir).to_pandas().set_index("split")["n_docs"]
    pd.testing.assert_series_equal(a.sort_index(), b.sort_index())
    n = len(pd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"]))
    assert a.sum() == n
    assert 0.7 * n <= a.get("train", 0) <= 0.9 * n


def test_fuzzy_decontaminate_finds_planted_dup(tmp_path):
    """A training doc that is a near-copy of an eval doc (id % 10 == 0)
    is flagged with the right eval id and jaccard; unrelated docs are
    not; eval docs never appear on the training side."""
    base = " ".join(f"w{i}" for i in range(60))
    rows = [
        {"doc_id": 10, "text": base},                       # eval doc
        {"doc_id": 3, "text": base + " tail3"},             # near-copy -> flagged
        {"doc_id": 7, "text": " ".join(f"z{i}" for i in range(60))},  # clean
        {"doc_id": 20, "text": " ".join(f"y{i}" for i in range(60))}, # eval, clean
    ]
    pd.DataFrame(rows).to_parquet(tmp_path / "documents.parquet")

    from odinson_ray.stages.curate import fuzzy_decontaminate

    got = fuzzy_decontaminate(str(tmp_path), threshold=0.9, eval_mod=10).to_pandas()
    assert set(zip(got.doc_id, got.eval_id)) == {(3, 10)}
    assert (got.j >= 0.9).all()


def test_per_source_long_docs_matches_local(sf_dir):
    import math

    from odinson_ray.pipelines.queries.text import q_per_source_long_docs

    got = q_per_source_long_docs(sf_dir).to_pandas()
    docs = pd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "source", "text"])
    docs["n_tokens"] = docs["text"].str.split(" ").str.len()
    want = set()
    for src, g in docs.groupby("source"):
        v = sorted(g["n_tokens"])
        p90 = v[max(0, math.ceil(0.9 * len(v)) - 1)]
        want |= set(g.loc[g["n_tokens"] > p90, "doc_id"])
    assert set(got["doc_id"]) == want
