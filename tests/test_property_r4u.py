"""Randomized brute-force pins for the session-8 operators: DSIR
importance scoring (random multilingual token soup), incremental delta
dedup (random duplicate patterns across base/delta), and the per-source
lexical-diversity report."""

import hashlib
import math
from collections import Counter, defaultdict

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module", autouse=True)
def _ray(ray_session):
    yield


_WORDS = ["alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "theta"]


def _random_docs(rng, n, n_sources=6):
    rows = []
    for i in range(n):
        ln = int(rng.integers(0, 12))  # includes 0- and 1-token docs
        text = " ".join(rng.choice(_WORDS, ln)) if ln else ""
        rows.append({
            "doc_id": i,
            "lang": str(rng.choice(["en", "de", "fr"])),
            "source": f"src{int(rng.integers(0, n_sources))}",
            "text": text,
            "n_chars": len(text),
        })
    return rows


def _write(tmp_path, rows):
    pq.write_table(pa.table({
        "doc_id": pa.array([r["doc_id"] for r in rows], pa.int64()),
        "lang": pa.array([r["lang"] for r in rows]),
        "source": pa.array([r["source"] for r in rows]),
        "text": pa.array([r["text"] for r in rows]),
        "n_chars": pa.array([r["n_chars"] for r in rows], pa.int64()),
    }), tmp_path / "documents.parquet")


def test_dsir_randomized_vs_bruteforce(tmp_path):
    from odinson_ray.pipelines.queries.text import (_DSIR_B, _DSIR_K,
                                                    _DSIR_TARGET,
                                                    q_dsir_select)

    rng = np.random.default_rng(23)
    rows = _random_docs(rng, 120)
    _write(tmp_path, rows)

    def buckets(text):
        ws = text.split(" ")
        return [int(hashlib.md5((ws[i] + " " + ws[i + 1]).encode())
                    .hexdigest()[:8], 16) % _DSIR_B
                for i in range(len(ws) - 1)]

    ct = np.zeros(_DSIR_B, np.int64)
    cr = np.zeros(_DSIR_B, np.int64)
    for r in rows:
        for b in buckets(r["text"]):
            cr[b] += 1
            if r["lang"] == _DSIR_TARGET:
                ct[b] += 1
    tt, tr = float(ct.sum()), float(cr.sum())
    tm = [math.floor((math.log((float(ct[b]) + 1.0) / (tt + _DSIR_B))
                      - math.log((float(cr[b]) + 1.0) / (tr + _DSIR_B)))
                     * 1e6) for b in range(_DSIR_B)]
    expect = sorted(
        ((r["doc_id"], r["lang"], sum(tm[b] for b in bs))
         for r in rows if (bs := buckets(r["text"]))),
        key=lambda x: (-x[2], x[0]))[:_DSIR_K]
    got = [(r["doc_id"], r["lang"], r["w_micro"])
           for r in q_dsir_select(str(tmp_path)).take_all()]
    assert got == expect


def test_dedup_delta_randomized_vs_bruteforce(tmp_path):
    from odinson_ray.pipelines.queries.dedup import (_DELTA_SOURCES,
                                                     q_dedup_delta)

    rng = np.random.default_rng(31)
    # texts drawn from a SMALL pool so cross- and within-corpus
    # duplicates are guaranteed at every boundary
    pool = [" ".join(rng.choice(_WORDS, 3)) for _ in range(12)]
    rows = []
    for i in range(200):
        rows.append({
            "doc_id": i,
            "lang": "en",
            "source": str(rng.choice(["src0", "src1", "src3", "src7",
                                      "src12"])),
            "text": pool[int(rng.integers(0, len(pool)))],
        })
    # delta-only texts (never in base): exercise the kept path, with
    # one within-delta duplicate pair (301/302)
    rows += [
        {"doc_id": 300, "lang": "en", "source": "src3", "text": "only one"},
        {"doc_id": 301, "lang": "en", "source": "src7", "text": "only two"},
        {"doc_id": 302, "lang": "en", "source": "src12", "text": "only two"},
    ]
    rows = [dict(r, n_chars=len(r["text"])) for r in rows]
    _write(tmp_path, rows)

    base_h = {hashlib.md5(r["text"].encode()).hexdigest()
              for r in rows if r["source"] not in _DELTA_SOURCES}
    best = {}
    for r in rows:
        if r["source"] not in _DELTA_SOURCES:
            continue
        h = hashlib.md5(r["text"].encode()).hexdigest()
        if h in base_h:
            continue
        if h not in best or r["doc_id"] < best[h]["doc_id"]:
            best[h] = r
    expect = sorted(((r["doc_id"], r["source"]) for r in best.values()))
    got = [(r["doc_id"], r["source"])
           for r in q_dedup_delta(str(tmp_path)).take_all()]
    assert got == expect
    assert 0 < len(got) < sum(r["source"] in _DELTA_SOURCES for r in rows)


def test_vocab_hapax_randomized_vs_bruteforce(tmp_path):
    from odinson_ray.pipelines.queries.text import q_vocab_hapax

    rng = np.random.default_rng(47)
    rows = [r for r in _random_docs(rng, 150) if r["text"]]
    _write(tmp_path, rows)

    per_src = defaultdict(Counter)
    for r in rows:
        per_src[r["source"]].update(r["text"].split(" "))
    expect = []
    for s in sorted(per_src):
        c = per_src[s]
        ntok, ntyp = sum(c.values()), len(c)
        expect.append((s, ntok, ntyp,
                       sum(1 for v in c.values() if v == 1),
                       ntyp * 10000 // ntok))
    got = [(r["source"], r["n_tokens"], r["n_types"], r["n_hapax"],
            r["ttr_bp"])
           for r in q_vocab_hapax(str(tmp_path)).take_all()]
    assert got == expect


def test_kg_bgp_randomized_vs_bruteforce(tmp_path, monkeypatch):
    """Random (pred, s, o) triple sets — including hub subjects with
    one arm only — against the O(n) dict enumeration. Patches the spo
    front end so the pin exercises arbitrary graphs, not just the
    grammar corpus."""
    import ray.data as rd

    from odinson_ray.pipelines.queries import graph as queries18

    rng = np.random.default_rng(59)
    preds = ["scan", "join", "sort"]
    trips = {(str(rng.choice(preds)), f"e{int(rng.integers(0, 20))}",
              f"e{int(rng.integers(0, 30))}") for _ in range(400)}
    tbl = pa.table({
        "pred": pa.array([t[0] for t in trips]),
        "s": pa.array([t[1] for t in trips]),
        "o": pa.array([t[2] for t in trips]),
    })
    monkeypatch.setattr(
        "odinson_ray.pipelines.queries.graph._kg_distinct_spo",
        lambda sf_dir: rd.from_arrow(tbl).repartition(7))

    arms = {p: defaultdict(set) for p in ("scan", "join")}
    for p, s, o in trips:
        if p in arms:
            arms[p][s].add(o)
    expect = [(s, len(arms["scan"][s]), len(arms["join"][s]),
               len(arms["scan"][s]) * len(arms["join"][s]),
               min(arms["scan"][s]), min(arms["join"][s]))
              for s in sorted(set(arms["scan"]) & set(arms["join"]))]
    got = [(r["subj"], r["n_p1"], r["n_p2"], r["n_bindings"],
            r["w_p1"], r["w_p2"])
           for r in queries18.q_kg_bgp_query(str(tmp_path)).take_all()]
    assert got == expect
