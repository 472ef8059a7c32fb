"""Round-4 batch-l operators: GNN neighbor aggregation, global
high-water-mark records, TWAP, CSV roundtrip."""

import numpy as np
import pyarrow as pa
import pytest


def test_record_highs_matches_bruteforce(ray_session):
    """Out-of-order values, ties (ties are NOT records), tiny bucket
    width so carries cross many bucket boundaries."""
    import ray.data as rd

    from odinson_ray.pipelines.queries.events import record_high_counts

    rng = np.random.RandomState(11)
    n = 3000
    order = np.arange(n, dtype=np.int64)
    vals = np.round(rng.rand(n) * 50, 1)  # 1dp -> plenty of exact ties
    grp = np.array(["g%d" % (i % 4) for i in range(n)], dtype=object)

    ds = rd.from_arrow(pa.table({
        "o": pa.array(order, pa.int64()),
        "x": pa.array(vals, pa.float64()),
        "g": pa.array(grp, pa.string()),
    }))
    got = {r["g"]: r["n_records"]
           for r in record_high_counts(ds, order="o", value="x", group="g",
                                       bucket_width=64).take_all()}

    want = {}
    wm = -np.inf
    for i in range(n):
        if vals[i] > wm:
            want[grp[i]] = want.get(grp[i], 0) + 1
            wm = vals[i]
    assert got == want


def test_record_highs_tie_not_record(ray_session):
    import ray.data as rd

    from odinson_ray.pipelines.queries.events import record_high_counts

    ds = rd.from_arrow(pa.table({
        "o": pa.array([0, 1, 2, 3], pa.int64()),
        "x": pa.array([5.0, 5.0, 4.0, 6.0], pa.float64()),
        "g": pa.array(["a", "a", "a", "a"], pa.string()),
    }))
    got = record_high_counts(ds, order="o", value="x", group="g",
                             bucket_width=2).take_all()
    assert got == [{"g": "a", "n_records": 2}]  # rows 0 and 3


def test_gnn_neighbor_agg_small_graph(ray_session, tmp_path):
    """Hand-checkable path graph a-b-c via the raw stage math on a tiny
    documents corpus is overkill; instead check the hop operator's math
    on a synthetic edge set through the same mean_hop decomposition by
    comparing against a local twin over the KG fixture at sf0.001."""
    from odinson_ray.pipelines.queries.graph import _kg_edges
    from odinson_ray.pipelines.queries.graph import q_gnn_neighbor_agg

    edges = [(r["lo"], r["hi"])
             for r in _kg_edges("/root/testdata/sf0.001").take_all()]
    adj = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    x0 = {v: float(len(ns)) for v, ns in adj.items()}
    h1 = {v: sum(x0[u] for u in ns) / len(ns) for v, ns in adj.items()}
    h2 = {v: sum(h1[u] for u in ns) / len(ns) for v, ns in adj.items()}

    got = {r["entity"]: (r["h1"], r["h2"])
           for r in q_gnn_neighbor_agg("/root/testdata/sf0.001").take_all()}
    assert set(got) == set(adj)
    for v in adj:
        assert got[v][0] == pytest.approx(h1[v], abs=1e-6)
        assert got[v][1] == pytest.approx(h2[v], abs=1e-6)


def test_twap_matches_local(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from odinson_ray.pipelines.queries.events import q_twap_value

    rng = np.random.RandomState(5)
    n = 300
    users = rng.randint(1, 6, n)
    ts = np.cumsum(rng.randint(1, 1000, n)).astype("datetime64[us]")
    vals = np.round(rng.rand(n) * 100, 2)
    t = pa.table({
        "user_id": pa.array(users, pa.int64()),
        "ts": pa.array(ts),
        "event_id": pa.array(np.arange(n), pa.int64()),
        "value": pa.array(vals, pa.float64()),
    })
    pq.write_table(t, tmp_path / "events.parquet")

    got = {r["user_id"]: r["twap"]
           for r in q_twap_value(str(tmp_path)).take_all()}
    for u in range(1, 6):
        sel = users == u
        tu = ts[sel].astype(np.int64)
        vu = vals[sel]
        o = np.argsort(tu, kind="stable")
        tu, vu = tu[o], vu[o]
        dt = (tu[1:] - tu[:-1]).astype(np.float64)
        want = round(float(np.dot(vu[:-1], dt) / dt.sum()), 6)
        assert got[u] == pytest.approx(want, abs=1e-6)


def test_csv_roundtrip_counts(ray_session):
    from odinson_ray.pipelines.queries.formats import q_csv_roundtrip

    rows = q_csv_roundtrip("/root/testdata/sf0.001").take_all()
    assert sum(r["n"] for r in rows) > 0
    assert all(isinstance(r["total"], float) for r in rows)
