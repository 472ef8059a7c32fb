"""Session-8 batch (queries17): DSIR importance resampling and
incremental cross-corpus dedup — brute-force parity at sf0.001 plus the
drop paths the (duplicate-free) testdata never exercises."""

import hashlib
import math

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------- DSIR

def _brute_dsir(sf_dir, B=256, target="en", k=50):
    docs = pq.read_table(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "lang", "text"]).to_pylist()

    def buckets(text):
        ws = text.split(" ")
        return [int(hashlib.md5((ws[i] + " " + ws[i + 1]).encode())
                    .hexdigest()[:8], 16) % B
                for i in range(len(ws) - 1)]

    ct = np.zeros(B, np.int64)
    cr = np.zeros(B, np.int64)
    for d in docs:
        for b in buckets(d["text"]):
            cr[b] += 1
            if d["lang"] == target:
                ct[b] += 1
    tt, tr = float(ct.sum()), float(cr.sum())
    tm = [math.floor((math.log((float(ct[b]) + 1.0) / (tt + B))
                      - math.log((float(cr[b]) + 1.0) / (tr + B))) * 1e6)
          for b in range(B)]
    scored = []
    for d in docs:
        bs = buckets(d["text"])
        if not bs:
            continue
        scored.append((d["doc_id"], d["lang"], sum(tm[b] for b in bs)))
    scored.sort(key=lambda r: (-r[2], r[0]))
    return scored[:k]


def test_dsir_select_matches_bruteforce(ray_session):
    from odinson_ray.pipelines.queries.text import q_dsir_select

    got = [(r["doc_id"], r["lang"], r["w_micro"])
           for r in q_dsir_select(SF).take_all()]
    assert got == _brute_dsir(SF)


def test_dsir_target_ranks_above_median(ray_session):
    """The selection must actually prefer the target domain: the top-50
    English share must strictly exceed the corpus English share."""
    from odinson_ray.pipelines.queries.text import q_dsir_select

    rows = q_dsir_select(SF).take_all()
    en_top = sum(1 for r in rows if r["lang"] == "en") / len(rows)
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["lang"]).to_pylist()
    en_all = sum(1 for d in docs if d["lang"] == "en") / len(docs)
    assert en_top > en_all


def test_dsir_short_docs_excluded(ray_session, tmp_path):
    """< 2 tokens -> no bigram evidence -> excluded from the scored set
    on both the Ray and the SQL side."""
    from odinson_ray.pipelines.queries.text import q_dsir_select

    pq.write_table(pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "lang": pa.array(["en", "en", "de"]),
        "source": pa.array(["src0", "src0", "src0"]),
        "text": pa.array(["single", "two tokens here", "zwei worte hier"]),
        "n_chars": pa.array([6, 15, 15], pa.int64()),
    }), tmp_path / "documents.parquet")
    got = q_dsir_select(str(tmp_path)).take_all()
    assert [r["doc_id"] for r in got] == [2, 3]
    assert got[0]["w_micro"] > got[1]["w_micro"]  # en doc scores higher


# ----------------------------------------------------- dedup_delta

def _write_docs(path, rows):
    pq.write_table(pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "source": pa.array([r[1] for r in rows]),
        "text": pa.array([r[2] for r in rows]),
        "lang": pa.array(["en"] * len(rows)),
        "n_chars": pa.array([len(r[2]) for r in rows], pa.int64()),
    }), path / "documents.parquet")


def test_dedup_delta_drops_base_and_within_dups(ray_session, tmp_path):
    # base: src0; delta: src3/src7. doc 10 dups a base text (drop),
    # docs 11+12 dup each other within the delta (keep min id 11),
    # doc 13 is unique (keep).
    _write_docs(tmp_path, [
        (1, "src0", "alpha beta gamma"),
        (2, "src0", "delta epsilon zeta"),
        (10, "src3", "alpha beta gamma"),
        (11, "src7", "eta theta iota"),
        (12, "src3", "eta theta iota"),
        (13, "src7", "kappa lambda mu"),
    ])
    from odinson_ray.pipelines.queries.dedup import q_dedup_delta

    got = [(r["doc_id"], r["source"]) for r in q_dedup_delta(str(tmp_path)).take_all()]
    assert got == [(11, "src7"), (13, "src7")]


def test_dedup_delta_passthrough_on_real_data(ray_session):
    """The testdata has no duplicate texts, so every delta doc survives
    — pins the anti join's no-match path and the packing roundtrip."""
    from odinson_ray.pipelines.queries.dedup import (_DELTA_SOURCES,
                                                     q_dedup_delta)

    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id", "source"]).to_pylist()
    expect = sorted(d["doc_id"] for d in docs
                    if d["source"] in _DELTA_SOURCES)
    got = q_dedup_delta(SF).take_all()
    assert [r["doc_id"] for r in got] == expect
    by_id = {d["doc_id"]: d["source"] for d in docs}
    assert all(r["source"] == by_id[r["doc_id"]] for r in got)
