"""Session-8 batch 3 (queries19): coref-lite antecedent linking and
k-anonymity audit — randomized brute-force parity, doc-boundary and
batch-split pins."""

from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

SF = "/root/testdata/sf0.001"


def _write_docs(path, texts, langs=None, sources=None):
    n = len(texts)
    pq.write_table(pa.table({
        "doc_id": pa.array(list(range(n)), pa.int64()),
        "lang": pa.array(langs or ["en"] * n),
        "source": pa.array(sources or ["src0"] * n),
        "text": pa.array(texts),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    }), path / "documents.parquet")


def _brute_coref(texts, anaphor, antes):
    out = []
    for doc_id, text in enumerate(texts):
        ws = text.split(" ")
        last = None
        for i, w in enumerate(ws, start=1):
            if w == anaphor and last is not None:
                out.append((doc_id, i, last, ws[last - 1]))
            if w in antes:
                last = i
    return out


def test_coref_randomized_vs_bruteforce(ray_session, tmp_path):
    from odinson_ray.pipelines.queries.text import (_ANAPHOR, _ANTECEDENTS,
                                                    q_coref_antecedents)

    rng = np.random.default_rng(71)
    vocab = list(_ANTECEDENTS) + [_ANAPHOR, "filler", "noise"]
    texts = [" ".join(rng.choice(vocab, int(rng.integers(1, 30))))
             for _ in range(80)]
    # adversarial boundaries: doc ending in an antecedent followed by a
    # doc STARTING with the anaphor (the cross-doc leak the clamp stops)
    texts += ["filler customer", "the filler the", _ANAPHOR, "spark"]
    _write_docs(tmp_path, texts)

    got = [(r["doc_id"], r["pos"], r["ante_pos"], r["antecedent"])
           for r in q_coref_antecedents(str(tmp_path)).take_all()]
    assert got == _brute_coref(texts, _ANAPHOR, set(_ANTECEDENTS))
    assert all(not t.startswith(_ANAPHOR + " ") or
               (d, 1) not in {(g[0], g[1]) for g in got}
               for d, t in enumerate(texts))  # doc-initial anaphor unlinked


def test_coref_batch_independence(ray_session, tmp_path):
    """Links are a pure per-doc function: running each doc as its own
    one-doc corpus yields exactly the whole-corpus rows (no state can
    leak across documents, whatever the batch split)."""
    from odinson_ray.pipelines.queries.text import q_coref_antecedents

    texts = ["customer the the spark the", "the customer the",
             "table the spark the customer"]
    whole_dir = tmp_path / "whole"
    whole_dir.mkdir()
    _write_docs(whole_dir, texts)
    whole = [(r["doc_id"], r["pos"], r["ante_pos"], r["antecedent"])
             for r in q_coref_antecedents(str(whole_dir)).take_all()]
    assert len(whole) > 0

    solo = []
    for i, t in enumerate(texts):
        d = tmp_path / f"solo{i}"
        d.mkdir()
        _write_docs(d, [t])
        solo += [(i, r["pos"], r["ante_pos"], r["antecedent"])
                 for r in q_coref_antecedents(str(d)).take_all()]
    assert whole == solo


def test_neardup_delta_randomized_vs_bruteforce(ray_session, tmp_path):
    """Random docs over a small vocab (token-set near-dups guaranteed at
    every base/delta boundary) vs the O(n^2) jaccard enumeration of the
    keep rule: survive iff no >=t partner in base and no lower-id >=t
    partner in delta."""
    from odinson_ray.pipelines.queries.dedup import _DELTA_SOURCES
    from odinson_ray.pipelines.queries.dedup import (_ND_THRESHOLD,
                                                     q_neardup_delta)

    rng = np.random.default_rng(97)
    vocab = np.array([f"w{i}" for i in range(12)])
    rows = []
    for i in range(120):
        k = int(rng.integers(6, 12))
        toks = vocab[rng.choice(12, size=k, replace=False)]
        rows.append({
            "doc_id": i, "lang": "en",
            "source": str(rng.choice(["src0", "src1", "src3", "src7"])),
            "text": " ".join(toks), "n_chars": 0,
        })
    rows = [dict(r, n_chars=len(r["text"])) for r in rows]
    _write_docs(tmp_path, [r["text"] for r in rows],
                sources=[r["source"] for r in rows])

    sets = {r["doc_id"]: set(r["text"].split(" ")) for r in rows}
    is_delta = {r["doc_id"]: r["source"] in _DELTA_SOURCES for r in rows}

    def jac(a, b):
        return round(len(sets[a] & sets[b]) / len(sets[a] | sets[b]), 6)

    expect = []
    for r in rows:
        d = r["doc_id"]
        if not is_delta[d]:
            continue
        dead = any(
            jac(d, o["doc_id"]) >= _ND_THRESHOLD
            and (not is_delta[o["doc_id"]] or o["doc_id"] < d)
            for o in rows if o["doc_id"] != d)
        if not dead:
            expect.append((d, r["source"]))
    got = [(r["doc_id"], r["source"])
           for r in q_neardup_delta(str(tmp_path)).take_all()]
    assert got == sorted(expect)
    n_delta = sum(1 for r in rows if is_delta[r["doc_id"]])
    assert 0 < len(got) < n_delta  # both drop and keep paths exercised


def test_k_anonymity_randomized_vs_bruteforce(ray_session, tmp_path):
    from odinson_ray.pipelines.queries.text import (_KANON_K, _LEN_BUCKET,
                                                    q_k_anonymity_risk)

    rng = np.random.default_rng(83)
    n = 300
    langs = [str(rng.choice(["en", "de"])) for _ in range(n)]
    sources = [f"src{int(rng.integers(0, 3))}" for _ in range(n)]
    texts = ["x" * int(rng.integers(0, 200)) for _ in range(n)]
    _write_docs(tmp_path, texts, langs, sources)

    c = Counter((l, s, len(t) // _LEN_BUCKET)
                for l, s, t in zip(langs, sources, texts))
    expect = sorted((k + (v,)) for k, v in c.items() if v < _KANON_K)
    got = [(r["lang"], r["source"], r["len_bucket"], r["n"])
           for r in q_k_anonymity_risk(str(tmp_path)).take_all()]
    assert got == expect
    assert any(v >= _KANON_K for v in c.values())  # filter is selective
