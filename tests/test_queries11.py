"""Session-5 batch D: distributed logreg + BPE encoding — twin pins
(the no-oracle correctness gate for the two iterative operators)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _write_docs(path, texts, langs):
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(langs, pa.string()),
        "source": pa.array(["s"] * len(texts), pa.string()),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    }), str(path))


def _numpy_logreg(X, y, iters, lr):
    w = np.zeros(X.shape[1])
    for _ in range(iters):
        p = 1.0 / (1.0 + np.exp(-(X @ w)))
        w = w - lr * (X.T @ (p - y)) / len(y)
    return w


def test_logreg_matches_numpy_twin(tmp_path):
    """Same features, same iterations -> same weights (up to float
    summation order across blocks) and EXACT same accuracy."""
    from odinson_ray.pipelines.queries.text import (doc_features,
                                                    q_logreg_quality)

    rng = np.random.RandomState(7)
    texts, langs = [], []
    for i in range(400):
        en = i % 2 == 0
        nw = int(rng.randint(5, 40))
        word = "the" if en else "zzz"
        texts.append(" ".join(word for _ in range(nw)))
        langs.append("en" if en else "zh")
    _write_docs(tmp_path / "documents.parquet", texts, langs)

    got = q_logreg_quality(str(tmp_path), iters=10, lr=0.5)
    rep = dict(zip(got["name"], got["value"]))

    f = doc_features(pa.table({
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(langs, pa.string())}))
    X = np.column_stack([np.ones(len(texts)),
                         f["f_len"].to_numpy(),
                         f["f_wlen"].to_numpy(),
                         f["f_vow"].to_numpy()])
    y = f["y"].to_numpy()
    w = _numpy_logreg(X, y, iters=10, lr=0.5)
    np.testing.assert_allclose(
        [rep["intercept"], rep["w_f_len"], rep["w_f_wlen"], rep["w_f_vow"]],
        w, rtol=1e-9, atol=1e-12)
    acc = float(((X @ w > 0) == (y > 0.5)).mean())
    assert rep["train_acc"] == pytest.approx(acc, abs=1e-12)
    assert rep["n"] == 400
    # 'the' vs 'zzz' is linearly separable on vowel density
    assert rep["train_acc"] == 1.0


def test_logreg_empty_input(tmp_path):
    from odinson_ray.pipelines.queries.text import q_logreg_quality

    _write_docs(tmp_path / "documents.parquet", [], [])
    got = q_logreg_quality(str(tmp_path), iters=2)
    rep = dict(zip(got["name"], got["value"]))
    assert rep["n"] == 0 and np.isnan(rep["train_acc"])


def _python_bpe_counts(texts, k):
    """Reference BPE: fit k merges (count DESC, (l, r) ASC ties) on the
    word vocabulary, encode, histogram the corpus tokens."""
    from collections import Counter

    vocab = Counter()
    for t in texts:
        for w in t.split():
            if w:
                vocab[w] += 1
    words = {w: list(w) for w in vocab}
    for _ in range(k):
        pairs = Counter()
        for w, syms in words.items():
            for a, b in zip(syms, syms[1:]):
                pairs[(a, b)] += vocab[w]
        if not pairs:
            break
        best = min(pairs.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        for w, syms in words.items():
            out, i = [], 0
            while i < len(syms):
                if (i + 1 < len(syms) and syms[i] == best[0]
                        and syms[i + 1] == best[1]):
                    out.append(best[0] + best[1])
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            words[w] = out
    counts = Counter()
    for w, syms in words.items():
        for s in syms:
            counts[s] += vocab[w]
    return counts


def test_bpe_encode_matches_reference(tmp_path):
    from odinson_ray.pipelines.queries.text import q_bpe_encode

    texts = ["the cat the hat", "the cattle rattle", "hat cat chat",
             "that that the the the"] * 3
    _write_docs(tmp_path / "documents.parquet", texts,
                ["en"] * len(texts))
    got = q_bpe_encode(str(tmp_path), k=4, topk=50).to_pandas()
    want = _python_bpe_counts(texts, 4)
    top = sorted(want.items(), key=lambda kv: (-kv[1], kv[0]))[:50]
    assert list(zip(got["token"], got["n"])) == top


def test_bpe_encode_empty(tmp_path):
    from odinson_ray.pipelines.queries.text import q_bpe_encode

    _write_docs(tmp_path / "documents.parquet", [], [])
    assert q_bpe_encode(str(tmp_path)).count() == 0
