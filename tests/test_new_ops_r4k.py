"""Round-4 batch-k operators: label propagation, per-vertex triangles /
local clustering, interval-overlap self-join, interpolated quantiles."""

import itertools

import numpy as np
import pyarrow as pa
import pytest


def _edges_ds(pairs):
    import ray.data as rd

    lo = [min(a, b) for a, b in pairs]
    hi = [max(a, b) for a, b in pairs]
    t = pa.table({"lo": pa.array(lo, pa.string()),
                  "hi": pa.array(hi, pa.string())})
    return rd.from_arrow(t)


def _adj(pairs):
    adj = {}
    for a, b in pairs:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return adj


def _local_label_prop(pairs, rounds):
    """Driver-side reference twin: synchronous mode-label propagation,
    ties to the smallest label."""
    adj = _adj(pairs)
    lab = {v: v for v in adj}
    for _ in range(rounds):
        new = {}
        for v, nbrs in adj.items():
            cnt = {}
            for u in nbrs:
                cnt[lab[u]] = cnt.get(lab[u], 0) + 1
            best = sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]
            new[v] = best
        lab = new
    return lab


def _local_tri_per_vertex(pairs):
    adj = _adj(pairs)
    tri = {v: 0 for v in adj}
    for v in adj:
        for a, b in itertools.combinations(sorted(adj[v]), 2):
            if v < a and b in adj[a]:
                for x in (v, a, b):
                    tri[x] += 1
    return tri


GRAPH = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
         ("c", "d"), ("d", "e"), ("e", "f"),
         ("p", "q"), ("q", "r"), ("r", "s"), ("p", "s"),
         # bridge between the clique component and the square
         ("f", "p")]


def test_label_propagation_matches_local(ray_session):
    from odinson_ray.stages.graph import label_propagation

    for rounds in (1, 2, 3):
        got = {r["v"]: r["lab"]
               for r in label_propagation(_edges_ds(GRAPH),
                                          rounds=rounds).take_all()}
        assert got == _local_label_prop(GRAPH, rounds)


def test_label_propagation_two_cliques_converge(ray_session):
    from odinson_ray.stages.graph import label_propagation

    cl1 = list(itertools.combinations(["a", "b", "c", "d"], 2))
    cl2 = list(itertools.combinations(["x", "y", "z", "w"], 2))
    pairs = cl1 + cl2 + [("d", "w")]
    got = {r["v"]: r["lab"]
           for r in label_propagation(_edges_ds(pairs), rounds=3).take_all()}
    assert got == _local_label_prop(pairs, 3)
    # every clique-1 vertex lands on the clique's min label
    assert {got[v] for v in "abc"} == {"a"}


def test_triangles_per_vertex_matches_local(ray_session):
    from odinson_ray.stages.graph import triangles_per_vertex

    got = {r["v"]: r["n_tri"]
           for r in triangles_per_vertex(_edges_ds(GRAPH)).take_all()}
    want = {v: n for v, n in _local_tri_per_vertex(GRAPH).items() if n > 0}
    assert got == want


def test_triangles_per_vertex_star_hub_linear(ray_session):
    """A hub star has ZERO triangles and, degree-oriented, the hub emits
    zero wedges — the O(m^1.5) guarantee that motivated stages/graph.py."""
    from odinson_ray.stages.graph import triangles_per_vertex

    pairs = [("hub", f"leaf{i:04d}") for i in range(500)]
    assert triangles_per_vertex(_edges_ds(pairs)).count() == 0


def test_overlap_pairs_matches_bruteforce(ray_session):
    """Zipfian-hot key + windows straddling bucket boundaries + exact
    boundary touches (closed-interval semantics)."""
    import ray.data as rd

    from odinson_ray.pipelines.queries.relational import overlap_pairs_per_key

    W = 7 * 86_400 * 1_000_000
    rng = np.random.RandomState(7)
    n = 400
    keys = np.where(rng.rand(n) < 0.5, 1, rng.randint(2, 20, n)).astype(np.int64)
    starts = (rng.randint(0, 60, n).astype(np.int64) * (W // 4))  # boundary-rich
    # a pair that touches exactly at s + W == s2
    keys = np.append(keys, [99, 99])
    starts = np.append(starts, [0, W])
    idents = np.arange(len(keys), dtype=np.int64)

    ds = rd.from_arrow(pa.table({
        "k": pa.array(keys, pa.int64()),
        "i": pa.array(idents, pa.int64()),
        "s": pa.array(starts, pa.timestamp("us")),
    }))
    got = {r["key"]: r["n_pairs"]
           for r in overlap_pairs_per_key(ds, key="k", ident="i", start="s",
                                          width_us=W).take_all()}

    want = {}
    for k in np.unique(keys):
        s = starts[keys == k]
        c = 0
        for a, b in itertools.combinations(range(len(s)), 2):
            if max(s[a], s[b]) <= min(s[a], s[b]) + W:
                c += 1
        if c:
            want[int(k)] = c
    assert got == want
    assert want[99] == 1  # the exact-touch pair counted once


def test_quantile_cont_matches_numpy(ray_session, tmp_path):
    """quantile_cont == numpy's linear interpolation on the raw values."""
    import pyarrow.parquet as pq

    from odinson_ray.pipelines.queries.events import q_value_quantiles_cont

    rng = np.random.RandomState(3)
    n = 997
    vals = np.round(rng.rand(n) * 100, 2)
    t = pa.table({
        "event_type": pa.array(["t%d" % (i % 3) for i in range(n)], pa.string()),
        "value": pa.array(vals, pa.float64()),
    })
    pq.write_table(t, tmp_path / "events.parquet")
    got = {r["event_type"]: (r["p25"], r["p50"], r["p75"])
           for r in q_value_quantiles_cont(str(tmp_path)).take_all()}
    for ty in ("t0", "t1", "t2"):
        v = vals[np.array([i % 3 for i in range(n)]) == int(ty[1])]
        want = tuple(round(float(np.percentile(v, p, method="linear")), 4)
                     for p in (25, 50, 75))
        assert got[ty] == want


def test_label_propagation_fixpoint_mode(ray_session):
    """rounds=None runs to the synchronous fixpoint; two cliques with a
    bridge converge to their min labels and stop."""
    import itertools

    from odinson_ray.stages.graph import label_propagation

    cl1 = list(itertools.combinations(["a", "b", "c", "d", "e"], 2))
    cl2 = list(itertools.combinations(["v", "w", "x", "y", "z"], 2))
    got = {r["v"]: r["lab"]
           for r in label_propagation(_edges_ds(cl1 + cl2 + [("e", "v")]),
                                      rounds=None).take_all()}
    assert {got[u] for u in "abcde"} == {"a"}
    assert {got[u] for u in "vwxyz"} == {"v"}


def test_label_propagation_fixpoint_nonconvergence_raises(ray_session):
    """A 2-cycle oscillates under synchronous updates: the fixpoint mode
    must RAISE at max_rounds, never return silently."""
    import pytest as _pytest

    from odinson_ray.stages.graph import label_propagation

    with _pytest.raises(RuntimeError, match="did not converge"):
        label_propagation(_edges_ds([("a", "b")]), rounds=None,
                          max_rounds=5).take_all()


def test_kg_label_prop_spill_identical(ray_session, tmp_path):
    from odinson_ray.pipelines.queries.graph import q_kg_label_prop

    sf = "/root/testdata/sf0.001"
    base = sorted((r["entity"], r["community"])
                  for r in q_kg_label_prop(sf).take_all())
    spilled = sorted((r["entity"], r["community"])
                     for r in q_kg_label_prop(
                         sf, checkpoint_dir=str(tmp_path)).take_all())
    assert base == spilled and base
