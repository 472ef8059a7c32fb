"""Distributed graph primitives over edge Datasets.

Triangle counting uses DEGREE orientation (the classic O(m^1.5) wedge
bound): every undirected edge is directed from its lower-rank endpoint to
its higher-rank endpoint, where rank = (degree, vertex id). Wedges are
then enumerated at each vertex over its OUT-neighbors only — a hub of
degree d that would emit d^2/2 wedges under lexicographic orientation has
out-degree O(sqrt(m)) amortized here, so no join group explodes
(VERDICT r03 #2 / "Next round" #3).

Edge Datasets use the canonical undirected form: columns (lo, hi) string,
lo < hi, distinct, no self-loops.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from .shuffle import combine_aggregate, partial_aggregate

_STR = pa.string()
_EDGE_SCHEMA = pa.schema([("lo", _STR), ("hi", _STR)])


def vertex_degrees(edges):
    """(v, deg) Dataset from an undirected (lo, hi) edge Dataset.
    Map-side combiner: each batch collapses to one row per distinct
    endpoint, so the groupby shuffles at most |batch vocabulary| rows."""

    def project(t: pa.Table) -> pa.Table:
        v = pa.chunked_array(t["lo"].chunks + t["hi"].chunks)
        return pa.table({"v": v})

    return combine_aggregate(
        edges.map_batches(project, batch_format="pyarrow"),
        "v", [("deg", None, "count_all")])


def orient_by_degree(edges, degrees=None):
    """Direct each undirected edge from lower (degree, id) rank to higher.
    Returns a Dataset (src, dst, dd) where dd = deg(dst) — carried so the
    wedge stage can compare out-neighbor ranks without another join.
    Two distributed hash joins attach endpoint degrees; nothing touches
    the driver."""
    from .shuffle import hash_join

    degs = (degrees if degrees is not None else vertex_degrees(edges)).materialize()
    deg_schema = pa.schema([("v", _STR), ("deg", pa.int64())])
    e1 = hash_join(edges, degs, on="lo", right_on="v",
                   left_schema=_EDGE_SCHEMA, right_schema=deg_schema)
    e1 = e1.map_batches(
        lambda t: pa.table({"lo": t["lo"], "hi": t["hi"], "dlo": t["deg"]}),
        batch_format="pyarrow")
    e1_schema = pa.schema([("lo", _STR), ("hi", _STR), ("dlo", pa.int64())])
    e2 = hash_join(e1, degs, on="hi", right_on="v",
                   left_schema=e1_schema, right_schema=deg_schema)

    def orient(t: pa.Table) -> pa.Table:
        # hash_join emits (hi, lo, dlo, deg); lo < hi always holds, so
        # rank(lo) < rank(hi) iff dlo <= dhi (id tie-break folds in)
        lo, hi = t["lo"], t["hi"]
        dlo, dhi = t["dlo"], t["deg"]
        cond = pc.less_equal(dlo, dhi)
        return pa.table({
            "src": pc.if_else(cond, lo, hi),
            "dst": pc.if_else(cond, hi, lo),
            "dd": pc.if_else(cond, dhi, dlo),
        })

    return e2.map_batches(orient, batch_format="pyarrow")


def oriented_wedges(oriented, keep_center: bool = False):
    """Wedge Dataset from an oriented (src, dst, dd) Dataset: all
    out-neighbor pairs of each vertex with rank(b) < rank(c). The rank
    filter runs INSIDE the join reducer (merge_post) so only the kept
    half of each group's pair matrix leaves the task.

    ``keep_center=False`` → columns (b, c); ``keep_center=True`` →
    (k, a, b, c) with k = b+SEP+c ready for the closing semi-join —
    the single source of the degree-then-name tie-break invariant
    (must stay consistent with orient_by_degree's lo<=hi convention)
    for triangle_count, triangles_per_vertex and edge-support callers."""
    from .shuffle import hash_join

    ab = oriented.map_batches(
        lambda t: pa.table({"src": t["src"], "b": t["dst"], "db": t["dd"]}),
        batch_format="pyarrow")
    ac = oriented.map_batches(
        lambda t: pa.table({"src": t["src"], "c": t["dst"], "dc": t["dd"]}),
        batch_format="pyarrow")

    def keep_ranked(t: pa.Table) -> pa.Table:
        mask = pc.or_(
            pc.less(t["db"], t["dc"]),
            pc.and_(pc.equal(t["db"], t["dc"]), pc.less(t["b"], t["c"])))
        t = t.filter(mask)
        if not keep_center:
            return t.select(["b", "c"])
        return pa.table({
            "k": pc.binary_join_element_wise(t["b"], t["c"], "\x1f"),
            "a": t["src"], "b": t["b"], "c": t["c"],
        })

    return hash_join(
        ab, ac, on="src",
        left_schema=pa.schema([("src", _STR), ("b", _STR), ("db", pa.int64())]),
        right_schema=pa.schema([("src", _STR), ("c", _STR), ("dc", pa.int64())]),
        merge_post=keep_ranked)


def triangle_count(edges) -> int:
    """Exact triangle count of an undirected (lo, hi) edge Dataset.

    Degree-orient -> enumerate ranked out-neighbor wedges -> close each
    wedge (b, c) by probing for the oriented edge b->c (rank(b) < rank(c)
    implies the closing edge, if present, is oriented exactly that way),
    so every triangle {x<y<z by rank} is counted once, at x."""
    oriented = orient_by_degree(edges).materialize()  # wedge join x2 + probe
    wedges = oriented_wedges(oriented)

    from .shuffle import hash_join

    def wedge_key(t: pa.Table) -> pa.Table:
        return pa.table({"k": pc.binary_join_element_wise(t["b"], t["c"], "\x1f")})

    def edge_key(t: pa.Table) -> pa.Table:
        return pa.table({"k": pc.binary_join_element_wise(t["src"], t["dst"], "\x1f")})

    closed = hash_join(
        wedges.map_batches(wedge_key, batch_format="pyarrow"),
        oriented.map_batches(edge_key, batch_format="pyarrow"),
        on="k", how="semi",
        left_schema=pa.schema([("k", _STR)]),
        right_schema=pa.schema([("k", _STR)]))
    return int(closed.count())  # per-block row counts, nothing materialized


def triangles_per_vertex(edges):
    """Per-vertex triangle participation counts over an undirected
    (lo, hi) edge Dataset. Returns a Dataset (v, n_tri) covering only
    vertices in >= 1 triangle (left-join onto the degree table for the
    zero rows).

    Same degree-oriented O(m^1.5) wedge bound as ``triangle_count``
    (reference parity target: per-node graph stats the reference exposes
    via its dependency-graph queries), but the wedge CENTER rides along:
    each closed wedge (a, b, c) is one triangle incident to all three
    vertices, so the closing semi-join keeps (a, b, c), explodes to
    three (v) rows, and a map-side-combined groupby sums per vertex.
    Nothing per-vertex ever forms a group — counts are Arrow partials."""
    from .shuffle import hash_join

    oriented = orient_by_degree(edges).materialize()
    wedges = oriented_wedges(oriented, keep_center=True)

    def edge_key(t: pa.Table) -> pa.Table:
        return pa.table({"k": pc.binary_join_element_wise(t["src"], t["dst"], "\x1f")})

    closed = hash_join(
        wedges,
        oriented.map_batches(edge_key, batch_format="pyarrow"),
        on="k", how="semi",
        left_schema=pa.schema([("k", _STR), ("a", _STR), ("b", _STR), ("c", _STR)]),
        right_schema=pa.schema([("k", _STR)]))

    def explode(t: pa.Table) -> pa.Table:
        v = pa.concat_arrays([t[col].combine_chunks()
                              for col in ("a", "b", "c")])
        return pa.table({"v": v})

    return combine_aggregate(
        closed.map_batches(explode, batch_format="pyarrow"),
        "v", [("n_tri", None, "count_all")])


def label_propagation(edges, rounds: int | None = 3, pin=None,
                      max_rounds: int = 100):
    """Synchronous label-propagation community detection over an
    undirected (lo, hi) edge Dataset: every vertex starts with its own
    id as label; each round, every vertex adopts the MOST FREQUENT label
    among its neighbors (ties -> lexicographically smallest label).
    Returns a Dataset (v, lab) after exactly ``rounds`` rounds — bounded
    so a SQL oracle can unroll it.

    Scale shape per round: one distributed hash join (directed edge x
    label), a map-side-combined groupby counting (v, lab) pairs, a
    map-side-combined max-count per v, one join to keep argmax rows and
    a min-label groupby for the tie-break. NO per-vertex map_groups —
    the argmax decomposes into aggregates, so tiny per-vertex groups
    never form (the repo's coarse-partition discipline). ``pin``
    overrides the per-round pin (parquet spill for graphs near
    object-store capacity, as in connected_components/pagerank).

    ``rounds=None`` runs to the synchronous fixpoint (labels unchanged
    between rounds — checked by one anti join, a COUNT on the driver)
    and RAISES if ``max_rounds`` is exhausted, the kcore discipline —
    never a silently-unconverged result."""
    from ray.data.aggregate import Max, Min

    from .shuffle import hash_join

    if pin is None:
        def pin(ds, _name):
            return ds.materialize()

    def both(t: pa.Table) -> pa.Table:
        return pa.table({
            "a": pa.chunked_array(t["lo"].chunks + t["hi"].chunks),
            "b": pa.chunked_array(t["hi"].chunks + t["lo"].chunks),
        })

    bedges = pin(edges.map_batches(both, batch_format="pyarrow"), "bedges")
    bd_schema = pa.schema([("a", _STR), ("b", _STR)])
    lab_schema = pa.schema([("v", _STR), ("lab", _STR)])

    def init_labels(t: pa.Table) -> pa.Table:
        agg = partial_aggregate(pa.table({"v": t["a"]}), ["v"], [])
        return pa.table({"v": agg["v"], "lab": agg["v"]})

    labels = pin(
        bedges.map_batches(init_labels, batch_format="pyarrow")
        .groupby("v").aggregate(Min("lab", alias_name="lab")),
        "labels_0")

    r = 0
    while True:
        r += 1
        if rounds is not None and r > rounds:
            break
        if rounds is None and r > max_rounds:
            raise RuntimeError(
                f"label propagation did not converge within {max_rounds} "
                "rounds")
        joined = hash_join(bedges, labels, on="b", right_on="v",
                           left_schema=bd_schema, right_schema=lab_schema)

        counts = combine_aggregate(joined, ["a", "lab"],
                                   [("c", None, "count_all")])
        counts = pin(counts, f"counts_{r}")  # consumed by maxc AND the join
        maxc = counts.groupby("a").aggregate(Max("c", alias_name="mc"))
        cnt_schema = pa.schema([("a", _STR), ("lab", _STR), ("c", pa.int64())])
        mc_schema = pa.schema([("a", _STR), ("mc", pa.int64())])

        def keep_best(t: pa.Table) -> pa.Table:
            t = t.filter(pc.equal(t["c"], t["mc"]))
            return pa.table({"v": t["a"], "lab": t["lab"]})

        best = hash_join(counts, maxc, on="a",
                         left_schema=cnt_schema, right_schema=mc_schema,
                         ).map_batches(keep_best, batch_format="pyarrow")
        new_labels = pin(
            best.groupby("v").aggregate(Min("lab", alias_name="lab")),
            f"labels_{r}")
        if rounds is None:
            # fixpoint check: any (v, lab) pair not present verbatim in
            # the previous labels means something changed
            def pair_key(t: pa.Table) -> pa.Table:
                return pa.table({"k": pc.binary_join_element_wise(
                    t["v"], t["lab"], "\x1f")})

            changed = hash_join(
                new_labels.map_batches(pair_key, batch_format="pyarrow"),
                labels.map_batches(pair_key, batch_format="pyarrow"),
                on="k", how="anti",
                left_schema=pa.schema([("k", _STR)]),
                right_schema=pa.schema([("k", _STR)]))
            if changed.count() == 0:
                return new_labels
        labels = new_labels
    return labels


def adamic_adar_pairs(edges, max_center_degree: int = 1000):
    """Adamic–Adar link-prediction scores over an undirected (lo, hi)
    edge Dataset: for every non-adjacent-or-adjacent vertex pair sharing
    >= 1 neighbor, aa(n1, n2) = sum over common neighbors z of
    1 / ln(deg(z)). Returns a Dataset (n1, n2, aa) with n1 < n2.

    Shape: one degree aggregate, one hash join to attach the CENTER's
    degree/weight to its adjacency rows, one self-join keyed on the
    center with the rank filter inside the join reducer, one final
    groupby-sum over (n1, n2). AA wedges are intrinsic to the center, so
    unlike triangle counting no orientation can bound hub groups —
    instead centers above ``max_center_degree`` are EXCLUDED (the
    standard AA practice: a hub's 1/ln(deg) contribution is negligible
    while its d^2/2 pair matrix is not; the cap must be mirrored by any
    oracle)."""
    import numpy as np

    from ray.data.aggregate import Sum

    from .shuffle import hash_join

    degs = vertex_degrees(edges)

    def both_directions(t: pa.Table) -> pa.Table:
        return pa.table({
            "v": pa.chunked_array(t["lo"].chunks + t["hi"].chunks),
            "n": pa.chunked_array(t["hi"].chunks + t["lo"].chunks),
        })

    adj = edges.map_batches(both_directions, batch_format="pyarrow")
    adj_schema = pa.schema([("v", _STR), ("n", _STR)])
    deg_schema = pa.schema([("v", _STR), ("deg", pa.int64())])
    with_deg = hash_join(adj, degs, on="v",
                         left_schema=adj_schema, right_schema=deg_schema)

    def weight(t: pa.Table) -> pa.Table:
        d = t["deg"].to_numpy(zero_copy_only=False)
        t = t.filter(pa.array((d >= 2) & (d <= max_center_degree)))
        w = 1.0 / np.log(t["deg"].to_numpy(zero_copy_only=False).astype(np.float64))
        return pa.table({"v": t["v"], "n": t["n"],
                         "w": pa.array(w, pa.float64())})

    # pinned: consumed by both sides of the self-join below
    wadj = with_deg.map_batches(weight, batch_format="pyarrow").materialize()
    left = wadj.map_batches(
        lambda t: pa.table({"v": t["v"], "n1": t["n"], "w": t["w"]}),
        batch_format="pyarrow")
    right = wadj.map_batches(
        lambda t: pa.table({"v": t["v"], "n2": t["n"]}),
        batch_format="pyarrow")

    def keep_ordered(t: pa.Table) -> pa.Table:
        return t.filter(pc.less(t["n1"], t["n2"])).select(["n1", "n2", "w"])

    pairs = hash_join(
        left, right, on="v",
        left_schema=pa.schema([("v", _STR), ("n1", _STR), ("w", pa.float64())]),
        right_schema=pa.schema([("v", _STR), ("n2", _STR)]),
        merge_post=keep_ordered)
    return pairs.groupby(["n1", "n2"]).aggregate(Sum("w", alias_name="aa"))


def kcore_edges(edges, k: int = 2, rounds: int | None = None,
                max_rounds: int = 100):
    """k-core peeling over an undirected (lo, hi) edge Dataset: repeat
    {drop every vertex with degree < k and its edges} until fixpoint
    (``rounds=None``) or for exactly ``rounds`` peels (bounded mode —
    what a SQL oracle can unroll). Returns the surviving edge Dataset.

    Each round is one degree aggregate (map-side combined) plus two anti
    hash-joins removing edges incident to dropped vertices — fully
    distributed; the driver sees only the dropped-vertex COUNT per
    round. Rounds are O(peel depth) (real graphs: tens), the same
    driver-round-loop shape as connected_components; like there, the
    fixpoint mode RAISES if max_rounds is exhausted rather than
    returning a silently-unpeeled graph."""
    from .shuffle import hash_join

    cur = edges.materialize()
    done_rounds = 0
    while rounds is None or done_rounds < rounds:
        degs = vertex_degrees(cur)

        def low_only(t: pa.Table) -> pa.Table:
            return t.filter(pc.less(t["deg"], k)).select(["v"])

        low = degs.map_batches(low_only, batch_format="pyarrow").materialize()
        if low.count() == 0:
            return cur
        e1 = hash_join(cur, low, on="lo", right_on="v", how="anti",
                       left_schema=_EDGE_SCHEMA,
                       right_schema=pa.schema([("v", _STR)]))
        cur = hash_join(e1, low, on="hi", right_on="v", how="anti",
                        left_schema=_EDGE_SCHEMA,
                        right_schema=pa.schema([("v", _STR)])).materialize()
        done_rounds += 1
        if rounds is None and done_rounds >= max_rounds:
            raise RuntimeError(
                f"k-core did not converge within {max_rounds} rounds")
    return cur


def jaccard_pairs(edges, max_center_degree: int = 1000):
    """Neighborhood-Jaccard node similarity over an undirected (lo, hi)
    edge Dataset: for every vertex pair sharing >= 1 common neighbor,
    J(n1, n2) = |N(n1) ∩ N(n2)| / (deg(n1) + deg(n2) - |∩|). The
    unweighted twin of adamic_adar_pairs (same wedge self-join through
    the center, same >= 2 / hub-cap center filter — the cap must be
    mirrored by any oracle), plus two degree joins for the denominator.
    Returns (n1, n2, common, jaccard) with n1 < n2."""
    import numpy as np

    from ray.data.aggregate import Sum

    from .shuffle import hash_join

    degs = vertex_degrees(edges).materialize()  # consumed 3x below

    def both_directions(t: pa.Table) -> pa.Table:
        return pa.table({
            "v": pa.chunked_array(t["lo"].chunks + t["hi"].chunks),
            "n": pa.chunked_array(t["hi"].chunks + t["lo"].chunks),
        })

    adj = edges.map_batches(both_directions, batch_format="pyarrow")
    adj_schema = pa.schema([("v", _STR), ("n", _STR)])
    deg_schema = pa.schema([("v", _STR), ("deg", pa.int64())])
    with_deg = hash_join(adj, degs, on="v",
                         left_schema=adj_schema, right_schema=deg_schema)

    def center_filter(t: pa.Table) -> pa.Table:
        d = t["deg"].to_numpy(zero_copy_only=False)
        t = t.filter(pa.array((d >= 2) & (d <= max_center_degree)))
        return t.select(["v", "n"])

    cadj = with_deg.map_batches(center_filter,
                                batch_format="pyarrow").materialize()
    left = cadj.map_batches(
        lambda t: pa.table({"v": t["v"], "n1": t["n"]}),
        batch_format="pyarrow")
    right = cadj.map_batches(
        lambda t: pa.table({"v": t["v"], "n2": t["n"]}),
        batch_format="pyarrow")

    def keep_ordered(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less(t["n1"], t["n2"])).select(["n1", "n2"])
        return t.append_column("c", pa.array([1] * t.num_rows, pa.int64()))

    pairs = hash_join(
        left, right, on="v",
        left_schema=pa.schema([("v", _STR), ("n1", _STR)]),
        right_schema=pa.schema([("v", _STR), ("n2", _STR)]),
        merge_post=keep_ordered)
    common = pairs.groupby(["n1", "n2"]).aggregate(
        Sum("c", alias_name="common"))

    p_schema = pa.schema([("n1", _STR), ("n2", _STR),
                          ("common", pa.int64())])
    j1 = hash_join(common, degs, on="n1", right_on="v",
                   left_schema=p_schema, right_schema=deg_schema)
    j2 = hash_join(
        j1, degs, on="n2", right_on="v",
        left_schema=pa.schema([("n1", _STR), ("n2", _STR),
                               ("common", pa.int64()),
                               ("deg", pa.int64())]),
        right_schema=deg_schema, right_suffix="_2")

    def score(t: pa.Table) -> pa.Table:
        c = t["common"].to_numpy(zero_copy_only=False).astype(np.float64)
        d1 = t["deg"].to_numpy(zero_copy_only=False)
        d2 = t["deg_2"].to_numpy(zero_copy_only=False)
        j = c / (d1 + d2 - c)
        return pa.table({"n1": t["n1"], "n2": t["n2"],
                         "common": t["common"],
                         "jaccard": pc.round(pa.array(j, pa.float64()), 6)})

    return j2.map_batches(score, batch_format="pyarrow")


def edge_support(edges):
    """Per-edge triangle support |N(lo) ∩ N(hi)| of an undirected
    (lo, hi) edge Dataset — zero-filled, so the output covers EVERY
    input edge. This is kg_edge_support's core, factored out so k-truss
    peeling can recompute support per round over a shrinking edge set.

    Shape: degree-oriented wedge enumeration (O(m^1.5)), closing
    semi-join, explode each closed wedge to its 3 edges with a per-batch
    combiner, one Sum groupby, one left join onto the edge list."""
    from .shuffle import hash_join

    edges = edges.materialize()  # consumed by orientation AND final join
    oriented = orient_by_degree(edges).materialize()
    wedges = oriented_wedges(oriented, keep_center=True)

    closed = hash_join(
        wedges,
        oriented.map_batches(
            lambda t: pa.table({"k": pc.binary_join_element_wise(
                t["src"], t["dst"], "\x1f")}),
            batch_format="pyarrow"),
        on="k", how="semi",
        left_schema=pa.schema([("k", _STR), ("a", _STR), ("b", _STR),
                               ("c", _STR)]),
        right_schema=pa.schema([("k", _STR)]))

    def explode_edges(t: pa.Table) -> pa.Table:
        a, b, c = (t[col].combine_chunks() for col in ("a", "b", "c"))
        pairs = [(pc.min_element_wise(x, y), pc.max_element_wise(x, y))
                 for x, y in ((a, b), (a, c), (b, c))]
        return pa.table({
            "lo": pa.concat_arrays([x.combine_chunks()
                                    if isinstance(x, pa.ChunkedArray) else x
                                    for x, _ in pairs]),
            "hi": pa.concat_arrays([y.combine_chunks()
                                    if isinstance(y, pa.ChunkedArray) else y
                                    for _, y in pairs]),
        })

    support = combine_aggregate(
        closed.map_batches(explode_edges, batch_format="pyarrow"),
        ["lo", "hi"], [("s", None, "count_all")])

    def edge_jk(t: pa.Table) -> pa.Table:
        return t.append_column("jk", pc.binary_join_element_wise(
            t["lo"], t["hi"], "\x1f"))

    joined = hash_join(
        edges.map_batches(edge_jk, batch_format="pyarrow"),
        support.map_batches(
            lambda t: pa.table({"jk": pc.binary_join_element_wise(
                t["lo"], t["hi"], "\x1f"), "s": t["s"]}),
            batch_format="pyarrow"),
        on="jk", how="left_outer",
        left_schema=pa.schema([("lo", _STR), ("hi", _STR), ("jk", _STR)]),
        right_schema=pa.schema([("jk", _STR), ("s", pa.int64())]))
    return joined.map_batches(
        lambda t: pa.table({"lo": t["lo"], "hi": t["hi"],
                            "support": pc.fill_null(t["s"], 0)}),
        batch_format="pyarrow")


def k_truss(edges, k: int, max_rounds: int = 30,
            stats: dict | None = None):
    """k-truss of an undirected (lo, hi) edge Dataset: the maximal
    subgraph in which every edge participates in >= k-2 triangles
    (support computed within the surviving subgraph). Classic peeling
    fixpoint: recompute :func:`edge_support` over the current edge set,
    drop edges below the threshold, repeat until no edge is dropped.

    Each round is a full distributed pass (two shuffles inside
    edge_support); only the scalar edge COUNT ever reaches the driver,
    so the loop itself adds no driver-side materialization. Peeling
    converges in at most O(max support) rounds; ``max_rounds`` is a
    safety valve (a warning is emitted if it trips, never a silent
    wrong answer)."""
    import warnings

    thresh = k - 2
    cur = edges.materialize()  # count() + round-1 support share one run
    n_cur = cur.count()
    rounds = 0
    for _ in range(max_rounds):
        if n_cur == 0:
            break
        sup = edge_support(cur)
        kept = sup.map_batches(
            lambda t: t.filter(pc.greater_equal(t["support"], thresh))
                       .select(["lo", "hi"]),
            batch_format="pyarrow").materialize()
        rounds += 1
        if stats is not None:
            stats["rounds"] = rounds
        n_kept = kept.count()
        if n_kept == n_cur:
            return kept
        cur, n_cur = kept, n_kept
    else:
        warnings.warn(
            f"k_truss: max_rounds={max_rounds} reached before fixpoint")
    return cur


def _md5_column(arr: pa.ChunkedArray | pa.Array) -> pa.Array:
    """md5 hex per string — computed once per UNIQUE value in the batch
    (vocabulary-bounded Python, the kg_random_walks trade: md5 is the
    deterministic, SQL-reproducible priority; a production MIS would use
    a vectorized splitmix over dictionary codes and drop SQL
    checkability)."""
    import hashlib

    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    uniq = pc.unique(arr)
    table = {v: hashlib.md5(v.encode()).hexdigest()
             for v in uniq.to_pylist()}
    idx = pc.index_in(arr, value_set=uniq)
    pri = pa.array([table[v] for v in uniq.to_pylist()], pa.string())
    return pri.take(idx)


def maximal_independent_set(edges, max_rounds: int = 30,
                            stats: dict | None = None):
    """Luby-style deterministic maximal independent set over an
    undirected (lo, hi) edge Dataset. Each round, a vertex joins the MIS
    iff its md5 priority is strictly smaller than every ACTIVE
    neighbor's (isolated active vertices always join); the MIS vertices
    and their neighborhoods leave the active set; repeat until no
    vertex remains. Expected O(log n) rounds; every step is joins +
    combiner groupbys — only the scalar active-vertex count reaches
    the driver. Returns a Dataset with one column ``v``."""
    import warnings

    import ray.data as rd

    from .shuffle import hash_join

    _S = pa.string()

    def both_dirs(t: pa.Table) -> pa.Table:
        a = pa.chunked_array([t["lo"].combine_chunks(),
                              t["hi"].combine_chunks()])
        b = pa.chunked_array([t["hi"].combine_chunks(),
                              t["lo"].combine_chunks()])
        return pa.table({"a": a, "b": b})

    adj = edges.map_batches(both_dirs, batch_format="pyarrow").materialize()

    verts = (combine_aggregate(adj, "a", [])
             .map_batches(lambda t: t.rename_columns(["v"]),
                          batch_format="pyarrow").materialize())

    mis = None
    n_active = verts.count()
    rounds = 0
    for _ in range(max_rounds):
        if n_active == 0:
            return mis if mis is not None else rd.from_arrow(
                pa.table({"v": pa.array([], _S)}))
        # min neighbor priority per vertex (map-side combiner)
        def mn_project(t: pa.Table) -> pa.Table:
            return pa.table({"a": t["a"], "pb": _md5_column(t["b"])})

        minn = combine_aggregate(
            adj.map_batches(mn_project, batch_format="pyarrow"),
            "a", [("mn", "pb", "min")])

        joined = hash_join(
            verts, minn, on="v", right_on="a", how="left_outer",
            left_schema=pa.schema([("v", _S)]),
            right_schema=pa.schema([("a", _S), ("mn", _S)]))

        def select_winners(t: pa.Table) -> pa.Table:
            pv = _md5_column(t["v"])
            win = pc.or_kleene(pc.is_null(t["mn"]), pc.less(pv, t["mn"]))
            return t.filter(pc.fill_null(win, False)).select(["v"])

        rounds += 1
        if stats is not None:
            stats["rounds"] = rounds
        sel = joined.map_batches(select_winners,
                                 batch_format="pyarrow").materialize()
        mis = sel if mis is None else mis.union(sel).materialize()

        # removed = winners + their neighborhoods
        nbrs = hash_join(
            adj, sel, on="a", right_on="v", how="semi",
            left_schema=pa.schema([("a", _S), ("b", _S)]),
            right_schema=pa.schema([("v", _S)])).map_batches(
            lambda t: pa.table({"v": t["b"]}), batch_format="pyarrow")
        # anti join tolerates duplicate right rows — a per-batch dedup
        # combiner shrinks the shuffle; no global groupby needed
        removed = (sel.union(nbrs)
                   .map_batches(lambda t: partial_aggregate(t, ["v"], []),
                                batch_format="pyarrow")
                   ).materialize()

        verts = hash_join(
            verts, removed, on="v", how="anti",
            left_schema=pa.schema([("v", _S)]),
            right_schema=pa.schema([("v", _S)])).materialize()
        n_active = verts.count()
        adj = hash_join(
            hash_join(adj, verts, on="a", right_on="v", how="semi",
                      left_schema=pa.schema([("a", _S), ("b", _S)]),
                      right_schema=pa.schema([("v", _S)])),
            verts, on="b", right_on="v", how="semi",
            left_schema=pa.schema([("a", _S), ("b", _S)]),
            right_schema=pa.schema([("v", _S)])).materialize()
    else:
        warnings.warn(
            f"maximal_independent_set: max_rounds={max_rounds} reached "
            "before the active set emptied")
    return mis


def transitive_closure(edges, max_rounds: int = 20):
    """Distinct directed transitive closure (paths of length >= 1) via
    PATH DOUBLING: R <- distinct(R ∪ R∘E) to fixpoint — O(log diameter)
    hash joins, each shuffling only the current closure relation. The
    closure can be O(n^2) rows on a dense graph (output size, not
    algorithm shape); intended for the bounded relation subgraphs a KG
    closes over (ontology/subclass arms)."""
    import pyarrow as pa
    from ray.data.aggregate import Count

    from .shuffle import hash_join

    str_t = pa.string()

    R = edges.materialize()
    n = R.count()
    parts = _iter_partitions(n)
    for _ in range(max_rounds):
        # TRUE doubling: R_k holds all paths of length <= 2^k, so
        # R ∘ R (not R ∘ E, which adds ONE hop per round) doubles the
        # covered length each round — 20 rounds covers diameter 2^20
        hop = R.map_batches(
            lambda t: pa.table({"mid": t["src"], "nxt": t["dst"]}),
            batch_format="pyarrow")
        grown = hash_join(
            R, hop, on="dst", right_on="mid", partitions=parts,
            left_schema=pa.schema([("src", str_t), ("dst", str_t)]),
            right_schema=pa.schema([("mid", str_t), ("nxt", str_t)]))
        new_pairs = grown.map_batches(
            lambda t: pa.table({"src": t["src"], "dst": t["nxt"]}),
            batch_format="pyarrow")
        # _cap_blocks: union/groupby outputs inherit left+right block
        # counts, which would grow geometrically over doubling rounds
        R = _cap_blocks(R.union(new_pairs)
                        .groupby(["src", "dst"]).aggregate(Count(alias_name="_c"))
                        .drop_columns(["_c"]), parts)
        n2 = R.count()
        if n2 == n:
            return R
        n = n2
    raise RuntimeError(f"closure did not converge in {max_rounds} doublings")


def _cap_blocks(ds, parts: int):
    """Materialize with a block-count cap for DRIVER-ITERATIVE loops:
    union/join outputs carry (left + right) blocks, so an iterated
    fixpoint's block count grows geometrically and per-op dispatch
    (one task per block) comes to dominate wall time (measured: 4 -> 64
    blocks in five semi-joins over an 8-row vertex set). The coalesce
    repartition is shuffle-free."""
    return ds.repartition(parts).materialize()


def _iter_partitions(n_rows: int) -> int:
    """Coarse-partition count for DRIVER-ITERATIVE graph ops (reach
    fixpoints, SCC, bow-tie): each hash_join/groupby materializes one
    block per partition, and every subsequent iteration pays one task
    per block — at 512 partitions a tiny graph's 20-op loop costs
    ~10 s/op in pure dispatch. ~1k rows per partition, clamped to
    [8, 512] (the one-shot join default stays 512)."""
    return int(min(512, max(8, n_rows // 1000)))


def reach_fixpoint(edges, seed_v: str, direction: str, max_rounds: int = 50,
                   partitions: "int | None" = None):
    """BFS reachability fixpoint from one seed over a distinct directed
    (src, dst) edge Dataset: frontier hash-joins the edge relation until
    no fresh vertices appear (`max_rounds` runaway guard — the
    label_propagation discipline). direction "fw" follows src->dst,
    "bw" follows dst->src. Returns the visited vertex Dataset (column
    ``v``, seed included). The forward-backward pair of these is the
    Fleischer-Hendrickson-Pinar building block shared by kg_scc_seed
    and the bow-tie decomposition."""
    import pyarrow as pa
    import ray.data as rdn

    from .shuffle import hash_join

    str_t = pa.string()
    e_schema = pa.schema([("src", str_t), ("dst", str_t)])
    if partitions is None:
        partitions = _iter_partitions(edges.count())
    frontier = rdn.from_arrow(pa.table({
        "v": pa.array([seed_v], str_t)})).materialize()
    visited = frontier
    on, out = (("src", "dst") if direction == "fw" else ("dst", "src"))
    for _ in range(max_rounds):
        nxt = hash_join(
            frontier, edges, on="v", right_on=on,
            left_schema=pa.schema([("v", str_t)]),
            right_schema=e_schema, partitions=partitions)
        nxt = combine_aggregate(
            nxt.map_batches(lambda t, c=out: pa.table({"v": t[c]}),
                            batch_format="pyarrow"), "v", [])
        fresh = _cap_blocks(hash_join(
            nxt, visited, on="v", how="anti",
            left_schema=pa.schema([("v", str_t)]),
            right_schema=pa.schema([("v", str_t)]),
            partitions=partitions), partitions)
        if fresh.count() == 0:
            return visited
        visited = _cap_blocks(visited.union(fresh), partitions)
        frontier = fresh
    raise RuntimeError(
        f"reachability did not converge in {max_rounds} rounds")


def bowtie_parts(edges, seed_v: str, max_rounds: int = 50):
    """Bow-tie decomposition around the seed's SCC (Broder et al. 2000):
    SCC = forward ∩ backward reach of the seed, IN = backward-only,
    OUT = forward-only, OTHER = untouched vertices. Two
    ``reach_fixpoint`` BFS fixpoints + semi/anti hash joins; nothing
    beyond vertex sets ever materializes. Returns (entity, part)."""
    import pyarrow as pa
    from ray.data.aggregate import Count

    from .shuffle import hash_join

    str_t = pa.string()
    v_schema = pa.schema([("v", str_t)])
    parts = _iter_partitions(edges.count())
    fw = reach_fixpoint(edges, seed_v, "fw", max_rounds,
                        partitions=parts).materialize()
    bw = reach_fixpoint(edges, seed_v, "bw", max_rounds,
                        partitions=parts).materialize()

    scc = hash_join(fw, bw, on="v", how="semi", partitions=parts,
                    left_schema=v_schema, right_schema=v_schema).materialize()
    inn = hash_join(bw, scc, on="v", how="anti", partitions=parts,
                    left_schema=v_schema, right_schema=v_schema)
    out = hash_join(fw, scc, on="v", how="anti", partitions=parts,
                    left_schema=v_schema, right_schema=v_schema)

    ents = (edges.map_batches(lambda t: pa.table({"v": t["src"]}),
                              batch_format="pyarrow")
            .union(edges.map_batches(lambda t: pa.table({"v": t["dst"]}),
                                     batch_format="pyarrow"))
            .groupby("v").aggregate(Count(alias_name="_c"))
            .drop_columns(["_c"]))
    touched = fw.union(bw).groupby("v").aggregate(
        Count(alias_name="_c")).drop_columns(["_c"]).materialize()
    other = hash_join(ents, touched, on="v", how="anti", partitions=parts,
                      left_schema=v_schema, right_schema=v_schema)

    def lab(part):
        return lambda t: pa.table({
            "entity": t["v"],
            "part": pa.array([part] * t.num_rows, pa.string()),
        })

    return (scc.map_batches(lab("SCC"), batch_format="pyarrow")
            .union(inn.map_batches(lab("IN"), batch_format="pyarrow"))
            .union(out.map_batches(lab("OUT"), batch_format="pyarrow"))
            .union(other.map_batches(lab("OTHER"), batch_format="pyarrow")))


def _distinct_v(ds):
    import pyarrow as pa
    from ray.data.aggregate import Count

    return (ds.groupby("v").aggregate(Count(alias_name="_c"))
            .drop_columns(["_c"]))


def scc_decomposition(edges, max_pivots: int = 200, max_trim_rounds: int = 50):
    """FULL strongly-connected-component decomposition of a distinct
    directed (src, dst) edge Dataset: returns (entity, scc_id) for every
    vertex, scc_id = the component's lexicographically smallest member.

    FW-BW-Trim (Fleischer-Hendrickson-Pinar + the standard trim step)
    over a WORK QUEUE of independent subproblems:

      TRIM   peels vertices with no in- or no out-edge inside the
             subproblem (each is its own singleton SCC — removes the
             long tail that would otherwise cost one pivot per vertex);
             one fused min/max-side groupby per round.
      PIVOT  the subproblem's lexicographically smallest vertex;
             SCC = forward ∩ backward reach.
      SPLIT  the remainder partitions into FW-only, BW-only and REST —
             every SCC lies entirely within ONE part (the FW-BW
             theorem), so the three parts are INDEPENDENT subproblems
             and are re-enqueued with their induced edge sets.

    The queue is drained sequentially here (single driver); at cluster
    scale each queue item is an independent sub-job and the expected
    depth is O(log n). ``max_pivots`` bounds total pivot rounds across
    all subproblems — a guard against adversarial graphs whose parts
    never shrink, not a semantic limit.
    """
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    from ray.data.aggregate import Min

    from .shuffle import hash_join

    str_t = pa.string()
    v_schema = pa.schema([("v", str_t)])
    e_schema = pa.schema([("src", str_t), ("dst", str_t)])

    def label(part_ds, scc_id: "str | None"):
        """(v) -> (entity, scc_id); scc_id None = each vertex its own."""
        def f(t: pa.Table) -> pa.Table:
            ids = (t["v"] if scc_id is None
                   else pa.array([scc_id] * t.num_rows, str_t))
            return pa.table({"entity": t["v"], "scc_id": ids})

        return part_ds.map_batches(f, batch_format="pyarrow")

    all_v = _distinct_v(
        edges.map_batches(lambda t: pa.table({"v": t["src"]}),
                          batch_format="pyarrow")
        .union(edges.map_batches(lambda t: pa.table({"v": t["dst"]}),
                                 batch_format="pyarrow"))).materialize()
    parts = _iter_partitions(edges.count())
    import ray.data as rdn

    empty_out = rdn.from_arrow(pa.table({
        "entity": pa.array([], str_t), "scc_id": pa.array([], str_t)}))
    out_parts = []

    def induced(e, verts):
        """Edges with BOTH endpoints in ``verts``."""
        return _cap_blocks(hash_join(
            hash_join(e, verts, on="src", right_on="v", how="semi",
                      left_schema=e_schema, right_schema=v_schema,
                      partitions=parts),
            verts, on="dst", right_on="v", how="semi", partitions=parts,
            left_schema=e_schema, right_schema=v_schema), parts)

    def anti_v(a, b):
        return _cap_blocks(hash_join(
            a, b, on="v", how="anti", left_schema=v_schema,
            right_schema=v_schema, partitions=parts), parts)

    def semi_v(a, b):
        return _cap_blocks(hash_join(
            a, b, on="v", how="semi", left_schema=v_schema,
            right_schema=v_schema, partitions=parts), parts)

    def trim(verts, e):
        """Peel degree-deficient singleton SCCs for up to
        ``max_trim_rounds`` rounds; returns the (verts, edges) left
        (possibly empty), which the pivot phase decomposes."""
        from ray.data.aggregate import Max, Min as MinA

        for _ in range(max_trim_rounds):
            sides = (e.map_batches(
                        lambda t: pa.table({
                            "v": t["src"],
                            "b": pa.array(np.ones(t.num_rows, np.int64))}),
                        batch_format="pyarrow")
                     .union(e.map_batches(
                        lambda t: pa.table({
                            "v": t["dst"],
                            "b": pa.array(np.full(t.num_rows, 2, np.int64))}),
                        batch_format="pyarrow")))
            agg = sides.groupby("v").aggregate(MinA("b", alias_name="mn"),
                                               Max("b", alias_name="mx"))
            both = _cap_blocks(agg.map_batches(
                lambda t: t.filter(pc.and_(pc.equal(t["mn"], 1),
                                           pc.equal(t["mx"], 2)))
                .select(["v"]),
                batch_format="pyarrow"), parts)
            singles = anti_v(verts, both)
            if singles.count() == 0:
                return verts, e
            out_parts.append(label(singles, None))
            verts = both  # every surviving edge endpoint is in `both`
            e = induced(e, both)
        return verts, e  # trim is an optimization: the pivot phase finishes

    queue = [(edges.materialize(), all_v)]
    pivots = 0
    while queue:
        e, verts = queue.pop()
        if verts.count() == 0:
            continue
        verts, e = trim(verts, e)
        if verts.count() == 0:
            continue
        if pivots >= max_pivots:
            raise RuntimeError(
                f"scc_decomposition exceeded {max_pivots} pivot rounds — "
                "raise max_pivots, or run the queue items as parallel "
                "sub-jobs for this graph")
        pivots += 1
        pivot = verts.aggregate(Min("v"))["min(v)"]
        fw = reach_fixpoint(e, pivot, "fw", partitions=parts).materialize()
        bw = reach_fixpoint(e, pivot, "bw", partitions=parts).materialize()
        scc = semi_v(fw, bw)
        scc_id = scc.aggregate(Min("v"))["min(v)"]
        out_parts.append(label(scc, scc_id))
        # FW-BW split: every remaining SCC lies entirely inside ONE of
        # fw-only / bw-only / rest, so the three induced subgraphs are
        # independent subproblems
        fw_only = anti_v(fw, scc)
        bw_only = anti_v(bw, scc)
        rest = anti_v(anti_v(verts, fw), bw)
        for part_v in (fw_only, bw_only, rest):
            if part_v.count() > 0:
                queue.append((induced(e, part_v), part_v))

    if not out_parts:
        return empty_out
    return out_parts[0].union(*out_parts[1:]) if len(out_parts) > 1 \
        else out_parts[0]
