"""Session-8 batch 2 (queries18): BGP star query and per-source
lexical diversity — brute-force parity at sf0.001."""

from collections import Counter, defaultdict

import pyarrow.parquet as pq

SF = "/root/testdata/sf0.001"


def test_kg_bgp_query_matches_bruteforce(ray_session):
    from odinson_ray.pipelines.queries import QUERIES
    from odinson_ray.pipelines.queries.graph import _BGP_P1, _BGP_P2

    trips = QUERIES["kg_triples"](SF).to_pandas()
    arms = {p: defaultdict(set) for p in (_BGP_P1, _BGP_P2)}
    for r in trips.itertuples():
        if r.pred in arms:
            arms[r.pred][r.subj_canon].add(r.obj_canon)
    expect = []
    for s in sorted(set(arms[_BGP_P1]) & set(arms[_BGP_P2])):
        o1, o2 = arms[_BGP_P1][s], arms[_BGP_P2][s]
        expect.append((s, len(o1), len(o2), len(o1) * len(o2),
                       min(o1), min(o2)))
    got = [(r["subj"], r["n_p1"], r["n_p2"], r["n_bindings"],
            r["w_p1"], r["w_p2"])
           for r in QUERIES["kg_bgp_query"](SF).take_all()]
    assert got == expect
    assert all(r[3] == r[1] * r[2] for r in got)  # counted, not built


def test_vocab_hapax_matches_bruteforce(ray_session):
    from odinson_ray.pipelines.queries import QUERIES

    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["source", "text"]).to_pylist()
    per_src = defaultdict(Counter)
    for d in docs:
        per_src[d["source"]].update(d["text"].split(" "))
    expect = []
    for s in sorted(per_src):
        c = per_src[s]
        ntok = sum(c.values())
        ntyp = len(c)
        hap = sum(1 for v in c.values() if v == 1)
        expect.append((s, ntok, ntyp, hap, ntyp * 10000 // ntok))
    got = [(r["source"], r["n_tokens"], r["n_types"], r["n_hapax"],
            r["ttr_bp"])
           for r in QUERIES["vocab_hapax"](SF).take_all()]
    assert got == expect
