"""Corpus term statistics (doc_frequency, tfidf_top_term) and domain_mix."""

import math
from collections import Counter

import pandas as pd


def test_doc_frequency_matches_local(ray_session, sf_dir):
    from odinson_ray.stages.text import doc_frequency

    got = doc_frequency(sf_dir).to_pandas().set_index("tok")["df"].to_dict()
    docs = pd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    want: Counter = Counter()
    for txt in docs["text"]:
        for tok in set(txt.split(" ")):
            want[tok] += 1
    assert got == dict(want)


def test_tfidf_top_term_matches_local(ray_session, sf_dir):
    from odinson_ray.stages.text import tfidf_top_term

    got = tfidf_top_term(sf_dir).to_pandas().set_index("doc_id")
    docs = pd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    df: Counter = Counter()
    for txt in docs["text"]:
        for tok in set(txt.split(" ")):
            df[tok] += 1
    n = len(docs)
    for doc_id, txt in zip(docs["doc_id"], docs["text"]):
        tf = Counter(txt.split(" "))
        scored = sorted(
            ((round(c * math.log(n / df[t]), 6), t) for t, c in tf.items()),
            key=lambda st: (-st[0], st[1]),
        )
        score, term = scored[0]
        assert got.loc[doc_id, "top_term"] == term, doc_id
        assert abs(got.loc[doc_id, "score"] - score) < 1e-9, doc_id


def test_domain_mix_weights_and_determinism(ray_session, sf_dir):
    from odinson_ray.stages.sample import domain_mix

    w = {"src0": 25, "src1": 3}
    a = domain_mix(sf_dir, weights_tenths=w).to_pandas()
    b = domain_mix(sf_dir, weights_tenths=w).to_pandas()
    key = ["doc_id", "copy"]
    pd.testing.assert_frame_equal(
        a.sort_values(key).reset_index(drop=True),
        b.sort_values(key).reset_index(drop=True),
    )
    docs = pd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "source"])
    n0 = (docs.source == "src0").sum()
    n1 = (docs.source == "src1").sum()
    other = len(docs) - n0 - n1
    # src0 ~2.5x, src1 ~0.3x, everything else exactly 1x
    assert (a.source == "src0").sum() >= 2 * n0
    assert (a.source == "src1").sum() <= 0.7 * n1
    assert (~a.source.isin(["src0", "src1"])).sum() == other
    # copy indices are dense 0..n-1 per doc
    per_doc = a.groupby("doc_id")["copy"].agg(["min", "max", "count"])
    assert (per_doc["min"] == 0).all()
    assert (per_doc["max"] == per_doc["count"] - 1).all()


def test_shared_passage_pairs_matches_local(ray_session, sf_dir):
    from odinson_ray.stages.dedup import shared_passage_pairs

    got = shared_passage_pairs(sf_dir, window=8).to_pandas()
    got_pairs = set(zip(got.doc_a, got.doc_b))
    docs = pd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    wins = {}
    for doc_id, txt in zip(docs.doc_id, docs.text):
        toks = txt.split(" ")
        for i in range(len(toks) - 7):
            wins.setdefault(" ".join(toks[i:i + 8]), set()).add(doc_id)
    want = set()
    for ids in wins.values():
        ids = sorted(ids)
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                want.add((a, b))
    assert got_pairs == want


def test_tfidf_join_path_matches_broadcast(ray_session, sf_dir, monkeypatch):
    """A broadcast size of -1 forces the distributed hash-join path; its
    output must be identical to the broadcast path (VERDICT r03 #1)."""
    from odinson_ray.stages import shuffle
    from odinson_ray.stages.text import tfidf_top_term

    bc = tfidf_top_term(sf_dir).to_pandas().sort_values("doc_id").reset_index(drop=True)
    monkeypatch.setattr(shuffle, "BROADCAST_BYTES", -1)
    jn = (
        tfidf_top_term(sf_dir)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(bc[["doc_id", "top_term", "score"]],
                                  jn[["doc_id", "top_term", "score"]])


def test_tfidf_min_df_prunes_tail(ray_session, sf_dir, monkeypatch):
    """min_df prunes rare terms from the vocabulary in BOTH paths; a doc
    whose best unpruned term differs must agree with a local recompute."""
    import math
    from collections import Counter

    from odinson_ray.stages import shuffle
    from odinson_ray.stages.text import doc_frequency, tfidf_top_term

    min_df = 3
    dfs = doc_frequency(sf_dir, min_df=min_df).to_pandas()
    assert (dfs["df"] >= min_df).all()

    got = tfidf_top_term(sf_dir, min_df=min_df).to_pandas().set_index("doc_id")
    monkeypatch.setattr(shuffle, "BROADCAST_BYTES", -1)
    got_join = (
        tfidf_top_term(sf_dir, min_df=min_df)
        .to_pandas().set_index("doc_id").sort_index()
    )
    monkeypatch.undo()
    pd.testing.assert_frame_equal(got.sort_index(), got_join)

    docs = pd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    df: Counter = Counter()
    for txt in docs["text"]:
        for tok in set(txt.split(" ")):
            df[tok] += 1
    n = len(docs)
    checked = 0
    for doc_id, txt in zip(docs["doc_id"], docs["text"]):
        tf = Counter(txt.split(" "))
        scored = sorted(
            ((round(c * math.log(n / df[t]), 6), t)
             for t, c in tf.items() if df[t] >= min_df),
            key=lambda st: (-st[0], st[1]),
        )
        if not scored:
            assert doc_id not in got.index
            continue
        score, term = scored[0]
        assert got.loc[doc_id, "top_term"] == term, doc_id
        assert abs(got.loc[doc_id, "score"] - score) < 1e-9, doc_id
        checked += 1
    assert checked > 0


def test_shared_passage_hot_window_cap(ray_session, tmp_path):
    """A boilerplate window shared by k docs is dropped when k exceeds
    max_window_docs: pair output stays bounded, and docs sharing OTHER
    windows still pair (VERDICT r03 #3)."""
    boiler = " ".join(f"b{i}" for i in range(8))
    rows = []
    # 20 docs sharing only the boilerplate window
    for i in range(20):
        rows.append({"doc_id": i, "text": f"{boiler} unique{i} " + " ".join(
            f"u{i}x{j}" for j in range(8))})
    # 2 docs sharing a legitimate rare window
    rare = " ".join(f"r{j}" for j in range(8))
    rows.append({"doc_id": 100, "text": rare + " tail100"})
    rows.append({"doc_id": 101, "text": rare + " tail101"})
    pd.DataFrame(rows).to_parquet(tmp_path / "documents.parquet")

    from odinson_ray.stages.dedup import shared_passage_pairs

    capped = shared_passage_pairs(str(tmp_path), window=8, max_window_docs=10).to_pandas()
    got = set(zip(capped.doc_a, capped.doc_b))
    assert (100, 101) in got
    # none of the boilerplate-only k^2/2 = 190 pairs survive
    assert all(a >= 100 for a, _ in got), got
    assert len(got) == 1

    uncapped = shared_passage_pairs(str(tmp_path), window=8, max_window_docs=None).to_pandas()
    assert len(uncapped) == 190 + 1
