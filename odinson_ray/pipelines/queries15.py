"""Round-4 session-6 batch H: TPC-H correlated-subquery classes the
inventory still lacked (Q21 waiting-supplier EXISTS/NOT-EXISTS, Q2
min-cost-per-group join-back, Q15 HAVING-=-global-max), an ORC
source/sink roundtrip (pyarrow.orc over read_binary_files — Ray Data has
no native ORC reader), a trained-and-applied naive-Bayes language
classifier with an integer-quantized log-likelihood so the DuckDB oracle
is hash-exact, and multi-source harmonic centrality over the KG.

Registered by ``pipelines/queries.py``; each ``q_*`` takes ``sf_dir``;
oracle column names match exactly. Money/score comparisons are
quantized to int64 (FLOOR of the same double expression both sides) so
every sum is order-independent and exact.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from odinson_ray.stages.shuffle import (
    combine_aggregate, global_topk, grouped_topk, hash_join, partial_aggregate)

_DAY_US = 86_400 * 1_000_000


def _rd():
    from ..sources.io import clean_rd

    return clean_rd


def _customer_spend(sf_dir: str):
    """Materialized (o_custkey, spend): each customer's order total in
    int64 cents, map-side combined."""

    def cents(t: pa.Table) -> pa.Table:
        c = np.floor(t["o_totalprice"].to_numpy(zero_copy_only=False) * 100.0)
        return pa.table({"o_custkey": t["o_custkey"],
                         "c": pa.array(c.astype(np.int64), pa.int64())})

    return combine_aggregate(
        _rd().read_parquet(f"{sf_dir}/orders.parquet",
                           columns=["o_custkey", "o_totalprice"])
        .map_batches(cents, batch_format="pyarrow"),
        "o_custkey", [("spend", "c", "sum")]).materialize()


# ===================================== TPC-H Q21 class: waiting suppliers

def q_waiting_suppliers(sf_dir: str, late_days: int = 60, k: int = 10):
    """Suppliers who were the SOLE late shipper on a multi-supplier
    finished order (TPC-H Q21's EXISTS / NOT-EXISTS pair, re-expressed
    as one per-order aggregate): late = shipped more than ``late_days``
    after the order date.

    Distributed shape: one corpus x corpus hash join on orderkey (orders
    pre-filtered to status 'F' and pruned to two columns at the read);
    the per-order EXISTS/NOT-EXISTS logic runs INSIDE the join's
    ``merge_post`` — every lineitem of an order is already co-located in
    its key partition, so distinct-supplier / distinct-late-supplier
    counts per order never shuffle again, and the partition emits only
    per-supplier partial wait counts. Final stage is a supplier-sized
    groupby + top-k. No driver materialization anywhere."""
    from ray.data.aggregate import Sum

    rd = _rd()
    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                         columns=["l_orderkey", "l_suppkey", "l_shipdate"])
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderstatus"],
    ).map_batches(
        lambda t: t.filter(pc.equal(t["o_orderstatus"], "F"))
        .select(["o_orderkey", "o_orderdate"]),
        batch_format="pyarrow",
    )
    late_us = late_days * _DAY_US

    def per_order(g: pa.Table) -> pa.Table:
        ship = pc.cast(g["l_shipdate"].cast(pa.timestamp("us")), pa.int64())
        od = pc.cast(g["o_orderdate"].cast(pa.timestamp("us")), pa.int64())
        late = pc.cast(pc.greater(ship, pc.add(od, late_us)), pa.int8())
        # distinct (order, supplier) pairs with their any-late flag,
        # then ONE per-order groupby: n_supp = pair count, n_late =
        # sum(any_late), late_supp = max(supp where late) via a
        # null-masked column (max skips nulls) — no per-partition join
        pairs = partial_aggregate(g.append_column("late", late),
                                  ["l_orderkey", "l_suppkey"],
                                  [("late_any", "late", "max")])
        supp_if_late = pc.if_else(
            pc.equal(pairs["late_any"], 1), pairs["l_suppkey"],
            pa.scalar(None, pa.int64()))
        pairs = pairs.append_column("supp_if_late", supp_if_late)
        per = partial_aggregate(pairs, ["l_orderkey"],
                                [("n_supp", "l_suppkey", "count"),
                                 ("n_late", "late_any", "sum"),
                                 ("late_supp", "supp_if_late", "max")])
        qual = per.filter(pc.and_(pc.greater(per["n_supp"], 1),
                                  pc.equal(per["n_late"], 1)))
        if qual.num_rows == 0:
            return pa.table({"l_suppkey": pa.array([], pa.int64()),
                             "pw": pa.array([], pa.int64())})
        return partial_aggregate(
            pa.table({"l_suppkey": qual["late_supp"].cast(pa.int64())}),
            ["l_suppkey"], [("pw", None, "count_all")])

    partials = hash_join(
        li, orders, on="l_orderkey", right_on="o_orderkey",
        left_schema=pa.schema([("l_orderkey", pa.int64()),
                               ("l_suppkey", pa.int64()),
                               ("l_shipdate", pa.timestamp("us"))]),
        right_schema=pa.schema([("o_orderkey", pa.int64()),
                                ("o_orderdate", pa.timestamp("us"))]),
        merge_post=per_order, merge_post_coarse=True)
    agg = partials.groupby("l_suppkey").aggregate(
        Sum("pw", alias_name="numwait"))
    return global_topk(agg, ["numwait", "l_suppkey"], [True, False], k)


ORACLE_WAITING_SUPPLIERS = """
WITH j AS (
  SELECT l.l_orderkey, l.l_suppkey,
         CASE WHEN l.l_shipdate > o.o_orderdate + INTERVAL 60 DAY
              THEN 1 ELSE 0 END AS late
  FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
  WHERE o.o_orderstatus = 'F'
),
per_order AS (
  SELECT l_orderkey,
         COUNT(DISTINCT l_suppkey) AS n_supp,
         COUNT(DISTINCT CASE WHEN late = 1 THEN l_suppkey END) AS n_late,
         MAX(CASE WHEN late = 1 THEN l_suppkey END) AS late_supp
  FROM j GROUP BY l_orderkey
)
SELECT late_supp AS l_suppkey, CAST(COUNT(*) AS BIGINT) AS numwait
FROM per_order WHERE n_supp > 1 AND n_late = 1
GROUP BY late_supp ORDER BY numwait DESC, l_suppkey ASC LIMIT 10
"""


# ===================================== TPC-H Q2 class: min-cost supplier

def q_cheapest_supplier(sf_dir: str):
    """Per part, the supplier offering the lowest observed unit price
    (TPC-H Q2's correlated MIN subquery re-expressed as a per-group
    argmin): unit price is quantized to int64 micro-units with the SAME
    double expression FLOOR(ext/qty*1e6) the oracle uses, so comparisons
    are exact; ties break to the smallest suppkey.

    Shape: one pruned lineitem scan -> per-batch rank-1 combiner ->
    coarse-partition resolve (``grouped_topk`` k=1) — the shuffle moves
    at most one row per (part, batch), never raw lineitems."""
    rd = _rd()

    def unitize(t: pa.Table) -> pa.Table:
        ext = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        qty = t["l_quantity"].to_numpy(zero_copy_only=False)
        um = np.floor(ext / qty * 1_000_000.0).astype(np.int64)
        return pa.table({
            "l_partkey": t["l_partkey"],
            "l_suppkey": t["l_suppkey"],
            "unit_micro": pa.array(um, pa.int64()),
        })

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey", "l_extendedprice", "l_quantity"],
    ).map_batches(unitize, batch_format="pyarrow")
    return grouped_topk(ds, by="l_partkey",
                        cols=["unit_micro", "l_suppkey"],
                        descending=[False, False], k=1)


ORACLE_CHEAPEST_SUPPLIER = """
WITH u AS (
  SELECT l_partkey, l_suppkey,
         CAST(FLOOR(l_extendedprice / l_quantity * 1000000) AS BIGINT)
           AS unit_micro
  FROM lineitem
),
r AS (
  SELECT *, ROW_NUMBER() OVER (
    PARTITION BY l_partkey ORDER BY unit_micro, l_suppkey) AS rn
  FROM u
)
SELECT l_partkey, l_suppkey, unit_micro FROM r WHERE rn = 1
"""


# ===================================== TPC-H Q15 class: top supplier(s)

def q_top_supplier_revenue(sf_dir: str):
    """Supplier(s) with the maximum revenue in 1996Q1 (TPC-H Q15's view +
    HAVING = (SELECT MAX ...)): revenue is summed in int64 cents
    (FLOOR(ext*(1-disc)*100), same double expression as the oracle) so
    the distributed sum is order-independent and the =max filter exact.

    Shape: predicate + column pruning at the read, map-side per-supplier
    combiner, one supplier-sized groupby (materialized — it is bounded
    by the supplier catalog, not the corpus), one scalar max, one
    filter. The only driver value is the max scalar."""
    rd = _rd()
    lo = np.datetime64("1996-01-01", "us").astype(np.int64)
    hi = np.datetime64("1996-04-01", "us").astype(np.int64)

    def partial(t: pa.Table) -> pa.Table:
        ship = pc.cast(t["l_shipdate"].cast(pa.timestamp("us")), pa.int64())
        keep = pc.and_(pc.greater_equal(ship, lo), pc.less(ship, hi))
        t = t.filter(keep)
        ext = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = t["l_discount"].to_numpy(zero_copy_only=False)
        cents = np.floor(ext * (1.0 - disc) * 100.0).astype(np.int64)
        return pa.table({"l_suppkey": t["l_suppkey"],
                         "c": pa.array(cents, pa.int64())})

    agg = combine_aggregate(
        rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                        columns=["l_suppkey", "l_extendedprice",
                                 "l_discount", "l_shipdate"])
        .map_batches(partial, batch_format="pyarrow"),
        "l_suppkey", [("total_cents", "c", "sum")]).materialize()
    best = agg.max("total_cents")
    return agg.map_batches(
        lambda t: t.filter(pc.equal(t["total_cents"], best)),
        batch_format="pyarrow").sort("l_suppkey")


ORACLE_TOP_SUPPLIER_REVENUE = """
WITH r AS (
  SELECT l_suppkey,
         SUM(CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100)
                  AS BIGINT)) AS total_cents
  FROM lineitem
  WHERE l_shipdate >= TIMESTAMP '1996-01-01'
    AND l_shipdate <  TIMESTAMP '1996-04-01'
  GROUP BY l_suppkey
)
SELECT l_suppkey, CAST(total_cents AS BIGINT) AS total_cents
FROM r WHERE total_cents = (SELECT MAX(total_cents) FROM r)
ORDER BY l_suppkey
"""


# ===================================== ORC source/sink roundtrip

def q_orc_roundtrip_agg(sf_dir: str):
    """Source/sink parity for ORC: project documents to (lang, n_chars),
    write sharded .orc files (one per block, pyarrow.orc — Ray Data has
    no native ORC writer), read them back DISTRIBUTED via
    ``read_binary_files`` + a per-file pyarrow.orc decode inside
    ``map_batches`` (each task decodes only its own files; nothing
    round-trips through the driver), and aggregate per-lang counts and
    total characters. The decode emits per-batch partials directly, so
    decoded rows never re-shuffle raw."""
    import os
    import tempfile
    import uuid

    import ray.data as rdn
    from pyarrow import orc as paorc
    from ray.data.aggregate import Sum

    rd = _rd()
    out_dir = tempfile.mkdtemp(prefix="orc_rt_", dir="/tmp")

    def write_block(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"path": pa.array([], pa.string()),
                             "rows": pa.array([], pa.int64())})
        path = os.path.join(out_dir, f"part-{uuid.uuid4().hex}.orc")
        paorc.write_table(
            t.select(["lang", "n_chars"]).replace_schema_metadata(None),
            path)
        return pa.table({"path": pa.array([path], pa.string()),
                         "rows": pa.array([t.num_rows], pa.int64())})

    (rd.read_parquet(f"{sf_dir}/documents.parquet",
                     columns=["lang", "n_chars"])
     .map_batches(write_block, batch_format="pyarrow")).materialize()

    def decode_partial(t: pa.Table) -> pa.Table:
        parts = []
        for buf in t["bytes"].to_pylist():
            tbl = paorc.ORCFile(pa.BufferReader(buf)).read()
            parts.append(tbl)
        if not parts:
            return pa.table({"lang": pa.array([], pa.string()),
                             "pn": pa.array([], pa.int64()),
                             "pchars": pa.array([], pa.int64())})
        whole = pa.concat_tables(parts)
        whole = pa.table({
            "lang": whole["lang"],
            "n_chars": whole["n_chars"].cast(pa.int64()),
        })
        return partial_aggregate(whole, ["lang"],
                                 [("pn", None, "count_all"),
                                  ("pchars", "n_chars", "sum")])

    agg = (rdn.read_binary_files(out_dir)
           .map_batches(decode_partial, batch_format="pyarrow")
           .groupby("lang")
           .aggregate(Sum("pn", alias_name="n"),
                      Sum("pchars", alias_name="total_chars")))
    return agg


ORACLE_ORC_ROUNDTRIP = """
SELECT lang, CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(n_chars) AS BIGINT) AS total_chars
FROM documents GROUP BY lang
"""


# ===================================== naive-Bayes language classifier

def _nb_model(sf_dir: str, min_count: int = 1):
    """Train the multinomial NB model: per-(lang, tok) counts via the
    map-side combiner + one groupby, then the driver quantizes
    log-likelihoods with ``math.log`` (libm — the SAME function DuckDB's
    ln() calls, so FLOOR(1e6*ln(x)) agrees bit-for-bit; numpy's SIMD log
    can differ by 1 ulp and is deliberately NOT used here).

    The driver never holds more than the PRUNED vocabulary: the
    smoothing constants (V = distinct-token count, per-lang token
    totals) are distributed scalars/lang-bounded pulls computed BEFORE
    the ``min_count`` prune, the prune itself is a vectorized filter on
    the aggregated Dataset (tf-idf's min_df discipline — VERDICT r03
    #1), and only surviving (lang, tok, c) rows cross to the driver.
    Pruned pairs score as unseen (the add-1 default). For open-web
    vocabularies past even the pruned broadcast gate, the scoring join
    would follow tfidf_top_term's hash-join path (stages/text.py:269)."""
    import math

    from ray.data.aggregate import Sum

    rd = _rd()

    def tok_project(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t["text"], " ")
        return pa.table({
            "lang": t["lang"].take(pc.list_parent_indices(toks)),
            "tok": pc.list_flatten(toks),
        })

    counts = combine_aggregate(
        rd.read_parquet(f"{sf_dir}/documents.parquet",
                        columns=["lang", "text"])
        .map_batches(tok_project, batch_format="pyarrow"),
        ["lang", "tok"], [("c", None, "count_all")])
    counts = counts.materialize()
    pri = (
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["lang"])
        .groupby("lang").count()
    )

    # smoothing constants from the FULL distribution, computed
    # distributed (V is a scalar, totals are lang-bounded)
    from ray.data.aggregate import Count
    V = counts.groupby("tok").aggregate(Count(alias_name="_c")).count()
    totals_tbl = pa.concat_tables(list(
        counts.groupby("lang").aggregate(Sum("c", alias_name="t"))
        .iter_batches(batch_format="pyarrow")))
    full_totals = {lg: int(t) for lg, t in
                   zip(totals_tbl["lang"].to_pylist(),
                       totals_tbl["t"].to_pylist())}

    pulled = counts
    if min_count > 1:
        pulled = counts.map_batches(
            lambda t: t.filter(pc.greater_equal(t["c"], min_count)),
            batch_format="pyarrow")
    langs_l, toks_l, cs_l = [], [], []
    for b in pulled.iter_batches(batch_format="pyarrow"):
        langs_l.extend(b["lang"].to_pylist())
        toks_l.extend(b["tok"].to_pylist())
        cs_l.extend(b["c"].to_pylist())
    doc_counts = {}
    for b in pri.iter_batches(batch_format="pyarrow"):
        for lg, n in zip(b["lang"].to_pylist(), b["count()"].to_pylist()):
            doc_counts[lg] = int(n)

    langs = sorted(doc_counts)
    lidx = {lg: i for i, lg in enumerate(langs)}
    vocab = np.array(sorted(set(toks_l)), dtype=object)
    vidx = {tk: i for i, tk in enumerate(vocab)}
    totals = np.array([full_totals.get(lg, 0) for lg in langs],
                      dtype=np.int64)
    cmat = np.zeros((len(vocab), len(langs)), dtype=np.int64)
    for lg, tk, c in zip(langs_l, toks_l, cs_l):
        cmat[vidx[tk], lidx[lg]] = c
    nd = sum(doc_counts.values())
    model = np.empty((len(vocab), len(langs)), dtype=np.int64)
    defaults = np.empty(len(langs), dtype=np.int64)
    priors = np.empty(len(langs), dtype=np.int64)
    for j in range(len(langs)):
        denom = int(totals[j]) + V
        defaults[j] = math.floor(1e6 * math.log(1.0 / denom))
        priors[j] = math.floor(
            1e6 * math.log(doc_counts[langs[j]] / nd))
        for i in range(len(vocab)):
            model[i, j] = math.floor(
                1e6 * math.log((int(cmat[i, j]) + 1) / denom))
    return langs, vocab, model, defaults, priors


def q_nb_lang_confusion(sf_dir: str, min_count: int = 1):
    """Train a multinomial naive-Bayes language classifier on the corpus
    and self-classify it, reporting the (lang, lang_pred, n) confusion
    matrix. Scores are int64 micro-log-units (FLOOR(1e6*ln(p)) summed
    over token OCCURRENCES plus the prior), so the distributed sums are
    order-independent and the argmax (ties -> lexicographically first
    lang) is exactly the oracle's ROW_NUMBER pick."""
    import ray

    from odinson_ray.stages.link import get_broadcast

    rd = _rd()
    langs, vocab, model, defaults, priors = _nb_model(sf_dir, min_count)
    ref = ray.put((langs, vocab, model, defaults, priors))

    def classify(t: pa.Table) -> pa.Table:
        langs_b, vocab_b, model_b, def_b, pri_b = get_broadcast(ref)
        L = len(langs_b)
        toks = pc.split_pattern(t["text"], " ")
        flat = np.asarray(pc.list_flatten(toks).to_pylist(), dtype=object)
        parent = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        ndocs = t.num_rows
        scores = np.tile(pri_b, (ndocs, 1))
        if len(flat):
            if len(vocab_b):
                pos = np.searchsorted(vocab_b, flat)
                pos = np.minimum(pos, len(vocab_b) - 1)
                known = vocab_b[pos] == flat
                tok_scores = np.where(known[:, None], model_b[pos],
                                      def_b[None, :])
            else:  # fully pruned model: every token scores the default
                tok_scores = np.broadcast_to(
                    def_b[None, :], (len(flat), L)).copy()
            for j in range(L):
                np.add.at(scores[:, j], parent, tok_scores[:, j])
        pred = np.argmax(scores, axis=1)  # first max = smallest lang
        return pa.table({
            "lang": t["lang"],
            "lang_pred": pa.array([langs_b[p] for p in pred], pa.string()),
        })

    return combine_aggregate(
        rd.read_parquet(f"{sf_dir}/documents.parquet",
                        columns=["lang", "text"])
        .map_batches(classify, batch_format="pyarrow"),
        ["lang", "lang_pred"], [("n", None, "count_all")])


ORACLE_NB_LANG_CONFUSION = """
WITH tok AS (
  SELECT doc_id, lang, unnest(string_split(text, ' ')) AS tok
  FROM documents
),
vv AS (SELECT COUNT(DISTINCT tok) AS v FROM tok),
langs AS (SELECT DISTINCT lang FROM documents),
counts AS (SELECT lang, tok, COUNT(*) AS c FROM tok GROUP BY lang, tok),
totals AS (SELECT lang, COUNT(*) AS t FROM tok GROUP BY lang),
priors AS (SELECT lang, COUNT(*) AS d FROM documents GROUP BY lang),
nd AS (SELECT COUNT(*) AS nd FROM documents),
scored AS (
  SELECT dt.doc_id, l.lang AS cand,
         SUM(CAST(FLOOR(1e6 * ln(
               (COALESCE(c.c, 0) + 1)::DOUBLE / (t.t + vv.v)
             )) AS BIGINT)) AS s
  FROM tok dt
  CROSS JOIN langs l
  JOIN totals t ON t.lang = l.lang
  CROSS JOIN vv
  LEFT JOIN counts c ON c.lang = l.lang AND c.tok = dt.tok
  GROUP BY dt.doc_id, l.lang
),
with_prior AS (
  SELECT s.doc_id, s.cand,
         s.s + CAST(FLOOR(1e6 * ln(p.d::DOUBLE / nd.nd)) AS BIGINT)
           AS score
  FROM scored s JOIN priors p ON p.lang = s.cand CROSS JOIN nd
),
pred AS (
  SELECT doc_id, cand AS lang_pred,
         ROW_NUMBER() OVER (PARTITION BY doc_id
                            ORDER BY score DESC, cand ASC) AS rn
  FROM with_prior
)
SELECT d.lang, p.lang_pred, CAST(COUNT(*) AS BIGINT) AS n
FROM pred p JOIN documents d USING (doc_id)
WHERE p.rn = 1
GROUP BY d.lang, p.lang_pred
"""


def _iter_pin(checkpoint_dir):
    """Round-pin strategy for the iterative graph sweeps: object-store
    materialize by default, parquet spill when ``checkpoint_dir`` is set
    (the connected_components/PageRank discipline, canon.py:164) —
    bounds object-store residency on long iterations and makes each
    round restartable."""
    import ray.data as rdn

    def pin(lazy_ds, name):
        if checkpoint_dir is None:
            return lazy_ds.materialize()
        import os
        import shutil

        path = os.path.join(checkpoint_dir, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path, exist_ok=True)
        lazy_ds.write_parquet(path)
        return rdn.read_parquet(path)

    return pin


# ===================================== multi-source harmonic centrality

def q_kg_harmonic(sf_dir: str, n_seeds: int = 3, rounds: int = 3,
                  checkpoint_dir: "str | None" = None):
    """Harmonic centrality contribution from the ``n_seeds``
    highest-out-degree entities: h(v) = sum over seeds s of 1/d(s, v)
    (d <= ``rounds``), in exact integer micro-units (1000000 // d).
    The sampled-seeds formulation is the standard scale approximation
    (full harmonic is all-pairs); seeds are deterministic (degree desc,
    id asc).

    Shape: multi-source BFS — the frontier Dataset carries (seed,
    entity) pairs, each round is one hash join frontier x edges plus an
    anti join against the visited set on a packed (seed, entity) key.
    Everything stays a Dataset; per-round materialize pins only the
    (new) frontier, never the edge list twice."""
    from ray.data.aggregate import Count, Sum

    from .kg import triples_dataset

    import ray.data as rdn

    def to_edges(t: pa.Table) -> pa.Table:
        return pa.table({"src": t["subj_canon"], "dst": t["obj_canon"]})

    edges = combine_aggregate(
        triples_dataset(sf_dir)
        .map_batches(to_edges, batch_format="pyarrow"),
        ["src", "dst"], []).materialize()

    pin = _iter_pin(checkpoint_dir)
    # shuffle width scales with the graph: 512-way partitioning is the
    # web-scale default, but on a small graph it is pure dispatch
    # overhead (the oracle-sized run spends its wall in empty partitions)
    parts = int(min(512, max(8, edges.count() // 5_000)))
    deg = edges.groupby("src").aggregate(Count(alias_name="d"))
    seeds = global_topk(deg, ["d", "src"], [True, False], n_seeds)
    seed_tbl = pa.concat_tables(
        [b for b in seeds.iter_batches(batch_format="pyarrow")])
    seed_vals = seed_tbl["src"].to_pylist()

    SEP = "\x1f"

    def pack(t: pa.Table) -> pa.Table:
        k = pc.binary_join_element_wise(t["seed"], t["entity"], SEP)
        return t.append_column("_k", k)

    visited = rdn.from_arrow(pa.table({
        "seed": pa.array(seed_vals, pa.string()),
        "entity": pa.array(seed_vals, pa.string()),
        "level": pa.array([0] * len(seed_vals), pa.int64()),
    })).materialize()
    frontier = visited

    for r in range(1, rounds + 1):
        nxt = hash_join(
            frontier.map_batches(lambda t: t.select(["seed", "entity"]),
                                 batch_format="pyarrow"),
            edges, on="entity", right_on="src", partitions=parts)

        def distinct_pair(t: pa.Table) -> pa.Table:
            return pa.table({"seed": t["seed"], "entity": t["dst"]})

        nxt = combine_aggregate(
            nxt.map_batches(distinct_pair, batch_format="pyarrow"),
            ["seed", "entity"], []).map_batches(pack, batch_format="pyarrow")
        vis_k = visited.map_batches(
            lambda t: pack(t).select(["_k"]), batch_format="pyarrow")
        new = hash_join(nxt, vis_k, on="_k", how="anti",
                        partitions=parts)
        lvl = r
        new = new.map_batches(
            lambda t, lvl=lvl: pa.table({
                "seed": t["seed"], "entity": t["entity"],
                "level": pa.array(np.full(t.num_rows, lvl), pa.int64()),
            }),
            batch_format="pyarrow")
        new = pin(new, f"frontier_{r}")
        if new.count() == 0:
            break
        visited = pin(visited.union(new), f"visited_{r}")
        frontier = new

    def contrib(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t["level"], 0))
        lv = t["level"].to_numpy(zero_copy_only=False)
        return pa.table({
            "entity": t["entity"],
            "h": pa.array(1_000_000 // lv, pa.int64()),
        })

    return (visited.map_batches(contrib, batch_format="pyarrow")
            .groupby("entity").aggregate(Sum("h", alias_name="h_micro")))


def _harmonic_oracle(kg_body: str, n_seeds: int = 3, rounds: int = 3) -> str:
    return f"""
WITH RECURSIVE trip AS ({kg_body}),
edges AS (SELECT DISTINCT subj_canon AS src, obj_canon AS dst FROM trip),
deg AS (SELECT src, count(*) AS d FROM edges GROUP BY src),
seeds AS (SELECT src FROM deg ORDER BY d DESC, src LIMIT {n_seeds}),
bfs(s, v, lvl) AS (
  SELECT src, src, 0 FROM seeds
  UNION ALL
  SELECT b.s, e.dst, b.lvl + 1 FROM bfs b JOIN edges e ON e.src = b.v
  WHERE b.lvl < {rounds}
),
dist AS (SELECT s, v, MIN(lvl) AS d FROM bfs GROUP BY s, v)
SELECT v AS entity, CAST(SUM(1000000 // d) AS BIGINT) AS h_micro
FROM dist WHERE d > 0 GROUP BY v
"""


def register(queries: dict, oracles: dict, kg_body: str) -> None:
    queries["waiting_suppliers"] = q_waiting_suppliers
    oracles["waiting_suppliers"] = ORACLE_WAITING_SUPPLIERS
    queries["cheapest_supplier"] = q_cheapest_supplier
    oracles["cheapest_supplier"] = ORACLE_CHEAPEST_SUPPLIER
    queries["top_supplier_revenue"] = q_top_supplier_revenue
    oracles["top_supplier_revenue"] = ORACLE_TOP_SUPPLIER_REVENUE
    queries["orc_roundtrip_agg"] = q_orc_roundtrip_agg
    oracles["orc_roundtrip_agg"] = ORACLE_ORC_ROUNDTRIP
    queries["nb_lang_confusion"] = q_nb_lang_confusion
    oracles["nb_lang_confusion"] = ORACLE_NB_LANG_CONFUSION
    queries["kg_harmonic"] = q_kg_harmonic
    oracles["kg_harmonic"] = _harmonic_oracle(kg_body)
    queries["kg_stress_paths"] = q_kg_stress_paths
    oracles["kg_stress_paths"] = _stress_oracle(kg_body)
    queries["seq3_patterns"] = q_seq3_patterns
    oracles["seq3_patterns"] = ORACLE_SEQ3_PATTERNS
    queries["value_cume_dist"] = q_value_cume_dist
    oracles["value_cume_dist"] = ORACLE_VALUE_CUME_DIST
    queries["market_share"] = q_market_share
    oracles["market_share"] = ORACLE_MARKET_SHARE
    queries["bloom_pruned_agg"] = q_bloom_pruned_agg
    oracles["bloom_pruned_agg"] = ORACLE_BLOOM_PRUNED
    queries["mmr_rerank"] = q_mmr_rerank
    oracles["mmr_rerank"] = _mmr_oracle()
    queries["top_orders_with_ties"] = q_top_orders_with_ties
    oracles["top_orders_with_ties"] = ORACLE_TOP_ORDERS_WITH_TIES
    queries["missing_days"] = q_missing_days
    oracles["missing_days"] = ORACLE_MISSING_DAYS
    queries["ab_test_metrics"] = q_ab_test_metrics
    oracles["ab_test_metrics"] = ORACLE_AB_TEST_METRICS
    queries["kg_sp_tree"] = q_kg_sp_tree
    oracles["kg_sp_tree"] = _sp_tree_oracle(kg_body)
    queries["revenue_pareto"] = q_revenue_pareto
    oracles["revenue_pareto"] = ORACLE_REVENUE_PARETO
    queries["gini_value"] = q_gini_value
    oracles["gini_value"] = ORACLE_GINI_VALUE
    import odinson_ray.pipelines.queries as _q

    queries["kg_delta_report"] = q_kg_delta_report
    oracles["kg_delta_report"] = _delta_oracle(_q._CANON_SQL)
    queries["source_dup_rate"] = q_source_dup_rate
    oracles["source_dup_rate"] = ORACLE_SOURCE_DUP_RATE
    queries["value_benford"] = q_value_benford
    oracles["value_benford"] = ORACLE_VALUE_BENFORD
    queries["lorenz_deciles"] = q_lorenz_deciles
    oracles["lorenz_deciles"] = ORACLE_LORENZ_DECILES
    queries["kg_reciprocity"] = q_kg_reciprocity
    oracles["kg_reciprocity"] = _reciprocity_oracle(kg_body)
    queries["kg_assortativity"] = q_kg_assortativity
    oracles["kg_assortativity"] = _assortativity_oracle(kg_body)


# ===================================== stress centrality (path-through)

def _pack_pair(t: pa.Table, a: str = "seed", b: str = "entity",
               out: str = "_k") -> pa.Table:
    k = pc.binary_join_element_wise(t[a], t[b], "\x1f")
    return t.append_column(out, k)


def q_kg_stress_paths(sf_dir: str, n_seeds: int = 3, rounds: int = 3,
                      checkpoint_dir: "str | None" = None):
    """Stress-centrality contribution from the ``n_seeds`` top-out-degree
    entities: for each vertex v, the NUMBER of shortest paths from a
    seed that pass THROUGH v (Brandes' sigma forward sweep + the
    reverse continuation count g(v) = sum over shortest-path-DAG
    successors w of (1 + g(w)); through(v) = sigma(v) * g(v)). Unlike
    betweenness' fractional pair-dependencies, every quantity here is
    an INTEGER, so the distributed sums are order-independent and the
    DuckDB oracle hash-exact. Horizon = ``rounds`` (the sampled-seed +
    bounded-radius formulation is the standard scale approximation).

    Shape: one BFS whose frontier CARRIES sigma (the per-round
    anti-join against the visited set is what restricts sigma to
    shortest-path-DAG edges), then one reverse sweep per level — each
    round is hash joins + a (seed, vertex) groupby-sum; everything
    stays a Dataset, only per-round frontiers are pinned."""
    from ray.data.aggregate import Count, Sum

    import ray.data as rdn

    from .kg import triples_dataset

    def to_edges(t: pa.Table) -> pa.Table:
        return pa.table({"src": t["subj_canon"], "dst": t["obj_canon"]})

    edges = combine_aggregate(
        triples_dataset(sf_dir)
        .map_batches(to_edges, batch_format="pyarrow"),
        ["src", "dst"], []).materialize()

    parts = int(min(512, max(8, edges.count() // 5_000)))  # see harmonic
    deg = edges.groupby("src").aggregate(Count(alias_name="d"))
    seeds = global_topk(deg, ["d", "src"], [True, False], n_seeds)
    seed_vals = pa.concat_tables(
        [b for b in seeds.iter_batches(batch_format="pyarrow")]
    )["src"].to_pylist()

    pin = _iter_pin(checkpoint_dir)
    lvl0 = rdn.from_arrow(pa.table({
        "seed": pa.array(seed_vals, pa.string()),
        "entity": pa.array(seed_vals, pa.string()),
        "sig": pa.array([1] * len(seed_vals), pa.int64()),
    })).materialize()
    sig_levels = [lvl0]          # sig_levels[r]: (seed, entity, sig)
    visited = lvl0.map_batches(
        lambda t: _pack_pair(t).select(["_k"]), batch_format="pyarrow"
    ).materialize()

    for r in range(1, rounds + 1):
        expanded = hash_join(
            sig_levels[r - 1].map_batches(
                lambda t: t.select(["seed", "entity", "sig"]),
                batch_format="pyarrow"),
            edges, on="entity", right_on="src", partitions=parts)

        def sum_project(t: pa.Table) -> pa.Table:
            return pa.table({"seed": t["seed"], "entity": t["dst"],
                             "sig": t["sig"]})

        sums = combine_aggregate(
            expanded.map_batches(sum_project, batch_format="pyarrow"),
            ["seed", "entity"], [("sig", "sig", "sum")]
        ).map_batches(_pack_pair, batch_format="pyarrow")
        new = pin(hash_join(sums, visited, on="_k", how="anti",
                            partitions=parts).map_batches(
            lambda t: t.select(["seed", "entity", "sig"]),
            batch_format="pyarrow"), f"sig_{r}")
        if new.count() == 0:
            break
        sig_levels.append(new)
        visited = pin(visited.union(new.map_batches(
            lambda t: _pack_pair(t).select(["_k"]),
            batch_format="pyarrow")), f"svisited_{r}")

    deepest = len(sig_levels) - 1
    # reverse continuation counts g[r]; deepest level has no in-horizon
    # successors by construction
    g_levels = {deepest: pin(sig_levels[deepest].map_batches(
        lambda t: pa.table({
            "seed": t["seed"], "entity": t["entity"],
            "g": pa.array(np.zeros(t.num_rows, np.int64), pa.int64()),
        }), batch_format="pyarrow"), f"g_{deepest}")}
    for r in range(deepest - 1, -1, -1):
        cand = hash_join(
            sig_levels[r].map_batches(
                lambda t: t.select(["seed", "entity"]),
                batch_format="pyarrow"),
            edges, on="entity", right_on="src", partitions=parts)
        # keep only DAG edges: dst must live at level r+1 for this seed
        cand = cand.map_batches(
            lambda t: _pack_pair(t, "seed", "dst"), batch_format="pyarrow")
        g_next = g_levels[r + 1].map_batches(
            lambda t: _pack_pair(t).select(["_k", "g"]),
            batch_format="pyarrow")
        contrib = hash_join(cand, g_next, on="_k", partitions=parts)

        def g_project(t: pa.Table) -> pa.Table:
            return pa.table({
                "seed": t["seed"], "entity": t["entity"],
                "c": pc.add(t["g"], 1).cast(pa.int64()),
            })

        gr = combine_aggregate(
            contrib.map_batches(g_project, batch_format="pyarrow"),
            ["seed", "entity"], [("g", "c", "sum")]
        ).map_batches(_pack_pair, batch_format="pyarrow")
        # vertices at level r with no DAG successor: g = 0
        zeros = hash_join(
            sig_levels[r].map_batches(_pack_pair, batch_format="pyarrow"),
            gr.map_batches(lambda t: t.select(["_k"]),
                           batch_format="pyarrow"),
            on="_k", how="anti", partitions=parts).map_batches(
            lambda t: pa.table({
                "seed": t["seed"], "entity": t["entity"],
                "g": pa.array(np.zeros(t.num_rows, np.int64), pa.int64()),
            }), batch_format="pyarrow")
        g_levels[r] = pin(gr.map_batches(
            lambda t: t.select(["seed", "entity", "g"]),
            batch_format="pyarrow").union(zeros), f"g_{r}")

    # through(v) = sum over seeds of sig * g, interior vertices only
    out_parts = []
    for r in range(1, deepest + 1):
        sig_k = sig_levels[r].map_batches(
            lambda t: _pack_pair(t).select(["_k", "sig"]),
            batch_format="pyarrow")
        g_k = g_levels[r].map_batches(
            lambda t: _pack_pair(t).select(["_k", "g", "entity"]),
            batch_format="pyarrow")
        out_parts.append(hash_join(g_k, sig_k, on="_k",
                                   partitions=parts).map_batches(
            lambda t: pa.table({
                "entity": t["entity"],
                "tp": pc.multiply(t["sig"], t["g"]).cast(pa.int64()),
            }), batch_format="pyarrow"))
    if not out_parts:
        return rdn.from_arrow(pa.table({
            "entity": pa.array([], pa.string()),
            "through_paths": pa.array([], pa.int64())}))
    out = out_parts[0]
    for p in out_parts[1:]:
        out = out.union(p)
    return out.groupby("entity").aggregate(
        Sum("tp", alias_name="through_paths"))


def _stress_oracle(kg_body: str, n_seeds: int = 3) -> str:
    """Unrolled 3-level Brandes forward/backward over the min-distance
    DAG; every aggregate is an integer count."""
    return f"""
WITH RECURSIVE trip AS ({kg_body}),
edges AS (SELECT DISTINCT subj_canon AS src, obj_canon AS dst FROM trip),
deg AS (SELECT src, count(*) AS d FROM edges GROUP BY src),
seeds AS (SELECT src FROM deg ORDER BY d DESC, src LIMIT {n_seeds}),
bfs(s, v, lvl) AS (
  SELECT src, src, 0 FROM seeds
  UNION ALL
  SELECT b.s, e.dst, b.lvl + 1 FROM bfs b JOIN edges e ON e.src = b.v
  WHERE b.lvl < 3
),
dist AS (SELECT s, v, MIN(lvl) AS d FROM bfs GROUP BY s, v),
sig0 AS (SELECT s, v, 1 AS sig FROM dist WHERE d = 0),
sig1 AS (
  SELECT d1.s, d1.v, SUM(sig0.sig) AS sig
  FROM sig0 JOIN edges e ON e.src = sig0.v
  JOIN dist d1 ON d1.s = sig0.s AND d1.v = e.dst AND d1.d = 1
  GROUP BY d1.s, d1.v),
sig2 AS (
  SELECT d2.s, d2.v, SUM(sig1.sig) AS sig
  FROM sig1 JOIN edges e ON e.src = sig1.v
  JOIN dist d2 ON d2.s = sig1.s AND d2.v = e.dst AND d2.d = 2
  GROUP BY d2.s, d2.v),
sig3 AS (
  SELECT d3.s, d3.v, SUM(sig2.sig) AS sig
  FROM sig2 JOIN edges e ON e.src = sig2.v
  JOIN dist d3 ON d3.s = sig2.s AND d3.v = e.dst AND d3.d = 3
  GROUP BY d3.s, d3.v),
g3 AS (SELECT s, v, 0 AS g FROM dist WHERE d = 3),
g2 AS (
  SELECT d2.s, d2.v,
         COALESCE(SUM(CASE WHEN g3.v IS NULL THEN NULL
                           ELSE 1 + g3.g END), 0) AS g
  FROM dist d2
  LEFT JOIN edges e ON e.src = d2.v
  LEFT JOIN g3 ON g3.s = d2.s AND g3.v = e.dst
  WHERE d2.d = 2 GROUP BY d2.s, d2.v),
g1 AS (
  SELECT d1.s, d1.v,
         COALESCE(SUM(CASE WHEN g2.v IS NULL THEN NULL
                           ELSE 1 + g2.g END), 0) AS g
  FROM dist d1
  LEFT JOIN edges e ON e.src = d1.v
  LEFT JOIN g2 ON g2.s = d1.s AND g2.v = e.dst
  WHERE d1.d = 1 GROUP BY d1.s, d1.v),
sig AS (SELECT * FROM sig1 UNION ALL SELECT * FROM sig2
        UNION ALL SELECT * FROM sig3),
g AS (SELECT * FROM g1 UNION ALL SELECT * FROM g2
      UNION ALL SELECT * FROM g3)
SELECT sig.v AS entity,
       CAST(SUM(sig.sig * g.g) AS BIGINT) AS through_paths
FROM sig JOIN g ON g.s = sig.s AND g.v = sig.v
GROUP BY sig.v
"""


# ===================================== length-3 sequential pattern mining

def q_seq3_patterns(sf_dir: str, bucket_s: int = 86400,
                    partitions: int = 256):
    """Contiguous length-3 event-type sequences per user (sequential
    pattern mining's fixed-length core; generalizes event_transitions'
    bigrams): counts of (a, b, c) over each user's (ts, event_id)-sorted
    stream.

    Skew-safe two-stage under the SEGMENTED tiny-group rule (the
    asof/sessionize lesson: never one task per (user, bucket)): stage 1
    shuffles on hash(user, day-bucket) % ``partitions`` — COARSE
    partitions — and one sort + segment arithmetic per partition counts
    every within-bucket triple and emits ONE boundary row per segment
    whose payload is the bucket's first two + last two event types
    (count<=4 buckets carry everything — reconstructible from
    first2+last2; bigger buckets insert a gap sentinel). Stage 2
    shuffles the boundary rows on hash(user) % ``partitions`` and per
    user rebuilds the reduced stream in bucket order, counting ONLY
    windows that span a bucket change — every triple of the true stream
    is counted exactly once. No task ever holds more than one coarse
    partition's rows, and group dispatch never scales with user count."""
    from odinson_ray.stages.sketch import _splitmix64
    from odinson_ray.stages.window import _with_bucket

    rd = _rd()
    GAP = "\x00"
    SEP = "\x1f"

    def add_part(t: pa.Table) -> pa.Table:
        u = t["user_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        b = t["_bucket"].to_numpy(zero_copy_only=False).astype(np.uint64)
        h = _splitmix64(u ^ _splitmix64(b))
        return t.append_column(
            "_p", pa.array((h % np.uint64(partitions)).astype(np.int64)))

    def seg_partials(g: pa.Table) -> pa.Table:
        tsv = pc.cast(pc.cast(g["ts"], pa.timestamp("us")),
                      pa.int64()).to_numpy(zero_copy_only=False)
        ids = pc.cast(g["event_id"], pa.int64()).to_numpy(
            zero_copy_only=False)
        users = g["user_id"].to_numpy(zero_copy_only=False)
        buckets = g["_bucket"].to_numpy(zero_copy_only=False)
        types = np.asarray(g["event_type"].to_pylist(), dtype=object)
        o = np.lexsort((ids, tsv, buckets, users))
        t, u, b = types[o], users[o], buckets[o]
        n = len(t)
        change = np.concatenate(
            [[True], (u[1:] != u[:-1]) | (b[1:] != b[:-1])])
        seg = np.cumsum(change) - 1
        starts = np.flatnonzero(change)
        lens = np.diff(np.append(starts, n))

        cols = {"_kind": [], "user_id": [], "_bucket": [],
                "_a": [], "_b": [], "_c": [], "_n": []}
        if n >= 3:
            ok = seg[:-2] == seg[2:]  # window stays inside one segment
            if ok.any():
                trip = pa.table({
                    "_a": pa.array(t[:-2][ok].tolist(), pa.string()),
                    "_b": pa.array(t[1:-1][ok].tolist(), pa.string()),
                    "_c": pa.array(t[2:][ok].tolist(), pa.string()),
                })
                agg = partial_aggregate(trip, ["_a", "_b", "_c"],
                                        [("_n", None, "count_all")])
                m = agg.num_rows
                cols["_kind"].extend([0] * m)
                cols["user_id"].extend([0] * m)
                cols["_bucket"].extend([0] * m)
                cols["_a"].extend(agg["_a"].to_pylist())
                cols["_b"].extend(agg["_b"].to_pylist())
                cols["_c"].extend(agg["_c"].to_pylist())
                cols["_n"].extend(int(x) for x in agg["_n"].to_pylist())
        for st, ln in zip(starts, lens):  # one boundary row per segment
            sl = t[st:st + ln]
            payload = (SEP.join(sl.tolist()) if ln <= 4 else
                       SEP.join([sl[0], sl[1], GAP, sl[-2], sl[-1]]))
            cols["_kind"].append(1)
            cols["user_id"].append(int(u[st]))
            cols["_bucket"].append(int(b[st]))
            cols["_a"].append(payload)
            cols["_b"].append("")
            cols["_c"].append("")
            cols["_n"].append(0)
        return pa.table({
            "_kind": pa.array(cols["_kind"], pa.int8()),
            "user_id": pa.array(cols["user_id"], pa.int64()),
            "_bucket": pa.array(cols["_bucket"], pa.int64()),
            "_a": pa.array(cols["_a"], pa.string()),
            "_b": pa.array(cols["_b"], pa.string()),
            "_c": pa.array(cols["_c"], pa.string()),
            "_n": pa.array(cols["_n"], pa.int64()),
        })

    stage1 = (
        rd.read_parquet(f"{sf_dir}/events.parquet",
                        columns=["event_id", "ts", "user_id", "event_type"])
        .map_batches(lambda t: add_part(_with_bucket(t, "ts", bucket_s)),
                     batch_format="pyarrow")
        .groupby("_p")
        .map_groups(lambda g: seg_partials(g.drop_columns(["_p"])),
                    batch_format="pyarrow")
    ).materialize()

    within = stage1.map_batches(
        lambda t: t.filter(pc.equal(t["_kind"], 0))
        .select(["_a", "_b", "_c", "_n"]),
        batch_format="pyarrow")

    def add_upart(t: pa.Table) -> pa.Table:
        u = t["user_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        return t.append_column(
            "_p", pa.array((_splitmix64(u) % np.uint64(partitions))
                           .astype(np.int64)))

    def seg_merge(g: pa.Table) -> pa.Table:
        g = g.filter(pc.equal(g["_kind"], 1))
        u = g["user_id"].to_numpy(zero_copy_only=False)
        b = g["_bucket"].to_numpy(zero_copy_only=False)
        payloads = np.asarray(g["_a"].to_pylist(), dtype=object)
        o = np.lexsort((b, u))
        u, payloads = u[o], payloads[o]
        a_l, b_l, c_l = [], [], []
        i = 0
        while i < len(u):
            j = i
            while j < len(u) and u[j] == u[i]:
                j += 1
            stream, buckets = [], []
            for bi in range(i, j):
                for ev in payloads[bi].split(SEP):
                    stream.append(ev)
                    buckets.append(bi)
            for k in range(len(stream) - 2):
                w = stream[k:k + 3]
                if GAP in w:
                    continue
                if buckets[k] != buckets[k + 2]:  # spans a bucket change
                    a_l.append(w[0]); b_l.append(w[1]); c_l.append(w[2])
            i = j
        if not a_l:
            return pa.table({"_a": pa.array([], pa.string()),
                             "_b": pa.array([], pa.string()),
                             "_c": pa.array([], pa.string()),
                             "_n": pa.array([], pa.int64())})
        trip = pa.table({"_a": pa.array(a_l, pa.string()),
                         "_b": pa.array(b_l, pa.string()),
                         "_c": pa.array(c_l, pa.string())})
        return partial_aggregate(trip, ["_a", "_b", "_c"],
                                 [("_n", None, "count_all")])

    across = (stage1.map_batches(add_upart, batch_format="pyarrow")
              .groupby("_p")
              .map_groups(lambda g: seg_merge(g.drop_columns(["_p"])),
                          batch_format="pyarrow"))

    return (combine_aggregate(within.union(across), ["_a", "_b", "_c"],
                              [("n", "_n", "sum")])
            .map_batches(lambda t: pa.table({
                "t1": t["_a"], "t2": t["_b"], "t3": t["_c"], "n": t["n"]}),
                batch_format="pyarrow"))


ORACLE_SEQ3_PATTERNS = """
WITH w AS (
  SELECT event_type AS t1,
         LEAD(event_type, 1) OVER win AS t2,
         LEAD(event_type, 2) OVER win AS t3
  FROM events
  WINDOW win AS (PARTITION BY user_id ORDER BY ts, event_id)
)
SELECT t1, t2, t3, CAST(COUNT(*) AS BIGINT) AS n
FROM w WHERE t2 IS NOT NULL AND t3 IS NOT NULL
GROUP BY t1, t2, t3
"""


# ===================================== CUME_DIST window function

def q_value_cume_dist(sf_dir: str):
    """CUME_DIST() OVER (PARTITION BY event_type ORDER BY value) for
    every event — the value_percent_rank machinery with the inclusive
    numerator: the 2dp-quantized distinct-value histogram yields
    cd(v) = (#smaller + #equal) / n per (type, value), then one
    distributed join back onto the event stream. No per-key sort of raw
    rows, no driver materialization."""
    rd = _rd()
    events = rd.read_parquet(f"{sf_dir}/events.parquet",
                             columns=["event_id", "event_type", "value"])

    hist = combine_aggregate(events, ["event_type", "value"],
                             [("c", None, "count_all")])

    def ranks(g: pa.Table) -> pa.Table:
        o = pc.sort_indices(g["value"])
        v = g["value"].take(o)
        c = g["c"].take(o).to_numpy(zero_copy_only=False)
        n = int(c.sum())
        cume = np.cumsum(c)
        cd = np.round(cume / n, 6)
        key = pc.binary_join_element_wise(
            g["event_type"].take(o).cast(pa.string()),
            pc.cast(v, pa.string()), "|")
        return pa.table({"_ck": key, "cd": pa.array(cd, pa.float64())})

    rank_table = hist.groupby("event_type").map_groups(
        ranks, batch_format="pyarrow")

    def with_key(t: pa.Table) -> pa.Table:
        key = pc.binary_join_element_wise(
            t["event_type"].cast(pa.string()),
            pc.cast(t["value"], pa.string()), "|")
        return t.append_column("_ck", key)

    joined = hash_join(
        events.map_batches(with_key, batch_format="pyarrow"),
        rank_table, on="_ck",
        left_schema=pa.schema([("event_id", pa.int64()),
                               ("event_type", pa.string()),
                               ("value", pa.float64()),
                               ("_ck", pa.string())]),
        right_schema=pa.schema([("_ck", pa.string()),
                                ("cd", pa.float64())]))
    return joined.select_columns(["event_id", "event_type", "value", "cd"])


ORACLE_VALUE_CUME_DIST = """
SELECT event_id, event_type, value,
       round(cume_dist() OVER (PARTITION BY event_type ORDER BY value),
             6) AS cd
FROM events
"""


# ===================================== TPC-H Q8 class: market share

def q_market_share(sf_dir: str, region: str = "ASIA",
                   target_nation: str = "NATION_2"):
    """Per order-year market share of ``target_nation``'s suppliers
    within orders placed by customers of ``region`` (TPC-H Q8's
    snowflake: lineitem ⋈ orders ⋈ customer ⋈ nation ⋈ region on the
    demand side, lineitem ⋈ supplier ⋈ nation on the supply side).

    Distributed shape: nation/region/supplier are CATALOG-sized —
    nation+region fold to a nationkey set, supplier to a target-supplier
    key set, each broadcast once via ray.put. customer and orders are
    corpus-sized: customer is filtered to the region IN PLACE
    (broadcast set lookup, no shuffle) and joined into orders through
    ``broadcast_or_join`` (zero-shuffle while the region customer set
    fits the broadcast size, distributed hash join when it is
    corpus-sized); lineitem joins the surviving (orderkey, year) pairs
    the same way, and a per-batch combiner immediately folds to (year,
    total_cents, target_cents) partials — the year groupby input is
    batch-count sized. Revenue is int64 cents (FLOOR, same expression
    as the oracle); the share is one division per output row."""
    import ray
    from ray.data.aggregate import Sum

    from odinson_ray.stages.link import get_broadcast

    rd = _rd()

    def read_small(name, cols):
        ds = rd.read_parquet(f"{sf_dir}/{name}.parquet", columns=cols)
        return pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow")))

    nat = read_small("nation", ["n_nationkey", "n_name", "n_regionkey"])
    reg = read_small("region", ["r_regionkey", "r_name"])
    region_keys = {rk for rk, rn in zip(reg["r_regionkey"].to_pylist(),
                                        reg["r_name"].to_pylist())
                   if rn == region}
    region_nations = {nk for nk, rk in zip(nat["n_nationkey"].to_pylist(),
                                           nat["n_regionkey"].to_pylist())
                      if rk in region_keys}
    target_nk = {nk for nk, nn in zip(nat["n_nationkey"].to_pylist(),
                                      nat["n_name"].to_pylist())
                 if nn == target_nation}
    sup = read_small("supplier", ["s_suppkey", "s_nationkey"])
    target_supps = np.sort(np.asarray(
        [sk for sk, nk in zip(sup["s_suppkey"].to_pylist(),
                              sup["s_nationkey"].to_pylist())
         if nk in target_nk], dtype=np.int64))
    nations_ref = ray.put(np.sort(np.asarray(list(region_nations),
                                             dtype=np.int64)))
    supps_ref = ray.put(target_supps)

    def region_custs(t: pa.Table) -> pa.Table:
        nk = get_broadcast(nations_ref)
        c = t["c_nationkey"].to_numpy(zero_copy_only=False)
        keep = np.isin(c, nk)
        return pa.table({"c_custkey": t["c_custkey"].filter(pa.array(keep))})

    custs = rd.read_parquet(f"{sf_dir}/customer.parquet",
                            columns=["c_custkey", "c_nationkey"]
                            ).map_batches(region_custs,
                                          batch_format="pyarrow")

    def order_year(g: pa.Table) -> pa.Table:
        yr = pc.year(g["o_orderdate"].cast(pa.timestamp("us"))).cast(
            pa.int64())
        return pa.table({"o_orderkey": g["o_orderkey"], "o_year": yr})

    from odinson_ray.stages.shuffle import broadcast_or_join

    orders = broadcast_or_join(
        rd.read_parquet(f"{sf_dir}/orders.parquet",
                        columns=["o_orderkey", "o_custkey", "o_orderdate"]),
        custs, on="o_custkey", right_on="c_custkey",
        left_schema=pa.schema([("o_orderkey", pa.int64()),
                               ("o_custkey", pa.int64()),
                               ("o_orderdate", pa.timestamp("us"))]),
        right_schema=pa.schema([("c_custkey", pa.int64())]),
    ).map_batches(order_year, batch_format="pyarrow")

    def year_partial(g: pa.Table) -> pa.Table:
        supps = get_broadcast(supps_ref)
        ext = g["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = g["l_discount"].to_numpy(zero_copy_only=False)
        cents = np.floor(ext * (1.0 - disc) * 100.0).astype(np.int64)
        sk = g["l_suppkey"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(supps, sk)
        pos = np.minimum(pos, max(len(supps) - 1, 0))
        is_t = (supps[pos] == sk) if len(supps) else np.zeros(len(sk), bool)
        base = pa.table({
            "o_year": g["o_year"],
            "c": pa.array(cents, pa.int64()),
            "tc": pa.array(np.where(is_t, cents, 0), pa.int64()),
        })
        return partial_aggregate(base, ["o_year"],
                                 [("pc", "c", "sum"), ("ptc", "tc", "sum")])

    partials = broadcast_or_join(
        rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                        columns=["l_orderkey", "l_suppkey",
                                 "l_extendedprice", "l_discount"]),
        orders, on="l_orderkey", right_on="o_orderkey",
        left_schema=pa.schema([("l_orderkey", pa.int64()),
                               ("l_suppkey", pa.int64()),
                               ("l_extendedprice", pa.float64()),
                               ("l_discount", pa.float64())]),
        right_schema=pa.schema([("o_orderkey", pa.int64()),
                                ("o_year", pa.int64())]),
    ).map_batches(year_partial, batch_format="pyarrow")

    agg = partials.groupby("o_year").aggregate(
        Sum("pc", alias_name="total"), Sum("ptc", alias_name="tgt"))

    def finish(t: pa.Table) -> pa.Table:
        tot = t["total"].to_numpy(zero_copy_only=False).astype(np.float64)
        tgt = t["tgt"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({
            "o_year": t["o_year"],
            "mkt_share": pa.array(np.round(tgt / tot, 6), pa.float64()),
        })

    return agg.map_batches(finish, batch_format="pyarrow").sort("o_year")


ORACLE_MARKET_SHARE = """
WITH rc AS (
  SELECT c_custkey FROM customer
  JOIN nation ON c_nationkey = n_nationkey
  JOIN region ON n_regionkey = r_regionkey
  WHERE r_name = 'ASIA'
),
o AS (
  SELECT o_orderkey, CAST(EXTRACT(year FROM o_orderdate) AS BIGINT)
           AS o_year
  FROM orders JOIN rc ON o_custkey = rc.c_custkey
),
l AS (
  SELECT o.o_year,
         CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100) AS BIGINT)
           AS cents,
         CASE WHEN n_name = 'NATION_2' THEN 1 ELSE 0 END AS is_t
  FROM lineitem
  JOIN o ON l_orderkey = o.o_orderkey
  JOIN supplier ON l_suppkey = s_suppkey
  JOIN nation ON s_nationkey = n_nationkey
)
SELECT o_year,
       round(SUM(CASE WHEN is_t = 1 THEN cents ELSE 0 END)::DOUBLE
             / SUM(cents)::DOUBLE, 6) AS mkt_share
FROM l GROUP BY o_year ORDER BY o_year
"""


# ===================================== bloom-filter data skipping

_BLOOM_PROBES = (17, 4242, 9001)


def q_bloom_pruned_agg(sf_dir: str):
    """Point lookups through the bloom-filter layout: the events table
    is laid out as 16 natural-order shards with a per-file bloom on
    event_id (stages/layout.bloom_layout); probing 3 event_ids opens
    ONLY the shards whose filter matches (typically 3 of 16 — the
    manifest is driver-side bit arithmetic, skipped shards cost zero
    I/O), then the exact residual filter runs inside the read tasks.
    The zonemap layout covers clustered range predicates; this covers
    unclustered high-cardinality membership — together they are the
    Iceberg/ORC data-skipping pair."""
    import ray.data as rdn

    from odinson_ray.stages.layout import bloom_layout, bloom_scan

    root = bloom_layout(f"{sf_dir}/events.parquet", "event_id",
                        ["event_id", "event_type", "value"])
    probes = np.asarray(_BLOOM_PROBES, dtype=np.int64)
    ds, n_read, n_total = bloom_scan(root, probes)
    if ds is None:
        return rdn.from_arrow(pa.table({
            "event_id": pa.array([], pa.int64()),
            "event_type": pa.array([], pa.string()),
            "value": pa.array([], pa.float64())}))

    def residual(t: pa.Table) -> pa.Table:
        keep = np.isin(t["event_id"].to_numpy(zero_copy_only=False), probes)
        return t.filter(pa.array(keep)).select(
            ["event_id", "event_type", "value"])

    return ds.map_batches(residual, batch_format="pyarrow").sort("event_id")


ORACLE_BLOOM_PRUNED = """
SELECT event_id, event_type, value FROM events
WHERE event_id IN (17, 4242, 9001) ORDER BY event_id
"""


# ===================================== MMR diversified re-ranking (RAG)

def q_mmr_rerank(sf_dir: str, pool: int = 50, k: int = 5,
                 lam: float = 0.7):
    """Maximal Marginal Relevance re-ranking — the RAG retrieval step
    after ANN: fetch a ``pool``-sized cosine top-k DISTRIBUTED (per-batch
    matmul + prune, the ann_topk machinery, embeddings carried through
    the sort), then greedily select ``k`` results maximizing
    lam*sim(q,d) - (1-lam)*max sim(d, selected).

    The greedy stage is inherently sequential and runs on the driver
    over the POOL ONLY (<= ``pool`` rows — k-bounded like every other
    final selection here; the corpus-sized work is all in the
    distributed candidate stage). All similarities are rounded to 6dp
    BEFORE the greedy arithmetic, the exact values the oracle's
    list_cosine_similarity produces, so the argmax sequence (ties ->
    smaller vec_id) is reproducible bit-for-bit."""
    import ray
    import ray.data as rdn

    from odinson_ray.stages.link import get_broadcast
    from .queries import _query_vec

    rd = _rd()
    qv = _query_vec(sf_dir)
    qref = ray.put(qv / np.linalg.norm(qv))

    def score(t: pa.Table) -> pa.Table:
        q = get_broadcast(qref)
        mat = np.array(t["embedding"].to_pylist(), dtype=np.float64)
        if mat.size == 0:
            return pa.table({"vec_id": pa.array([], pa.int64()),
                             "s": pa.array([], pa.float64()),
                             "embedding": t["embedding"]})
        norms = np.linalg.norm(mat, axis=1)
        cos = (mat @ q) / np.where(norms == 0, 1.0, norms)
        return pa.table({"vec_id": t["vec_id"],
                         "s": pa.array(np.round(cos, 6), pa.float64()),
                         "embedding": t["embedding"]})

    cands = global_topk(
        rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                        columns=["vec_id", "embedding"])
        .map_batches(score, batch_format="pyarrow"),
        ["s", "vec_id"], [True, False], pool)
    tbl = pa.concat_tables(list(cands.iter_batches(batch_format="pyarrow")))

    ids = tbl["vec_id"].to_numpy(zero_copy_only=False)
    sq = tbl["s"].to_numpy(zero_copy_only=False)
    mat = np.array(tbl["embedding"].to_pylist(), dtype=np.float64)
    norms = np.linalg.norm(mat, axis=1)
    unit = mat / np.where(norms == 0, 1.0, norms)[:, None]
    pair = np.round(unit @ unit.T, 6)  # pool x pool, 6dp like the oracle

    n = len(ids)
    selected: list[int] = []
    remaining = np.ones(n, dtype=bool)
    for _ in range(min(k, n)):
        if not selected:
            mmr = lam * sq.copy()
        else:
            div = pair[:, selected].max(axis=1)
            mmr = lam * sq - (1.0 - lam) * div
        mmr = np.where(remaining, mmr, -np.inf)
        pick = np.lexsort((ids, -mmr))[0]
        selected.append(int(pick))
        remaining[pick] = False

    return rdn.from_arrow(pa.table({
        "rank": pa.array(range(1, len(selected) + 1), pa.int64()),
        "vec_id": pa.array(ids[selected], pa.int64()),
        "s": pa.array(sq[selected], pa.float64()),
    }))


def _mmr_oracle(pool: int = 50, k: int = 5, lam: float = 0.7) -> str:
    """Unrolled greedy: p1 = relevance argmax; each later step keeps the
    running max-similarity-to-selected (GREATEST fold) and re-argmaxes
    the MMR expression. Same 6dp rounding as the Ray side."""
    steps = []
    prev_r = "cand_r0"
    sel = ["SELECT 1 AS rank, vec_id, s FROM p1"]
    head = f"""
WITH q AS (SELECT CAST(embedding AS DOUBLE[]) AS v FROM embeddings
           WHERE vec_id = 0),
cand AS (
  SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v,
         round(list_cosine_similarity(CAST(embedding AS DOUBLE[]), q.v),
               6) AS s
  FROM embeddings, q
  ORDER BY s DESC, vec_id LIMIT {pool}
),
p1 AS (SELECT vec_id, v, s FROM cand ORDER BY s DESC, vec_id LIMIT 1),
cand_r0 AS (
  SELECT c.vec_id, c.v, c.s,
         round(list_cosine_similarity(c.v, p1.v), 6) AS m
  FROM cand c, p1 WHERE c.vec_id != p1.vec_id
)"""
    for i in range(2, k + 1):
        steps.append(f"""
p{i} AS (SELECT vec_id, v, s FROM {prev_r}
       ORDER BY {lam}*s - {1.0 - lam}*m DESC, vec_id LIMIT 1)""")
        sel.append(f"SELECT {i} AS rank, vec_id, s FROM p{i}")
        if i < k:
            steps.append(f"""
cand_r{i - 1} AS (
  SELECT r.vec_id, r.v, r.s,
         GREATEST(r.m, round(list_cosine_similarity(r.v, p{i}.v), 6)) AS m
  FROM {prev_r} r, p{i} WHERE r.vec_id != p{i}.vec_id
)""")
            prev_r = f"cand_r{i - 1}"
    return (head + "," + ",".join(steps)
            + "\nSELECT CAST(rank AS BIGINT) AS rank, vec_id, s FROM ("
            + " UNION ALL ".join(sel) + ") ORDER BY rank")


# ===================================== top-k WITH TIES semantics

def q_top_orders_with_ties(sf_dir: str, k: int = 10):
    """FETCH FIRST k ROWS WITH TIES over orders by total price (RANK()
    <= k semantics: every row tying the k-th value is returned). Two
    pruned passes: a per-batch rank<=k combiner feeds a k-row global
    top-k whose LAST row is the threshold value (rank<=k ⟺ value >=
    the k-th row's value in duplicate-counting desc order); the second
    pass is a stateless filter at that scalar. Only the threshold
    crosses the driver."""
    rd = _rd()

    def rank_prune(t: pa.Table) -> pa.Table:
        if t.schema.metadata:
            t = t.replace_schema_metadata(None)
        if t.num_rows <= k:
            return t
        idx = pc.sort_indices(t, sort_keys=[("o_totalprice", "descending")])
        t = t.take(idx)
        v = t["o_totalprice"].to_numpy(zero_copy_only=False)
        return t.filter(pa.array(v >= v[k - 1]))

    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_totalprice"])
    pruned = orders.map_batches(rank_prune, batch_format="pyarrow")
    kth = global_topk(pruned, ["o_totalprice", "o_orderkey"],
                      [True, False], k)
    rows = pa.concat_tables(
        list(kth.iter_batches(batch_format="pyarrow")))
    thresh = rows["o_totalprice"].to_numpy(zero_copy_only=False).min()
    return pruned.map_batches(
        lambda t: t.filter(pc.greater_equal(t["o_totalprice"], thresh)),
        batch_format="pyarrow").sort(
        ["o_totalprice", "o_orderkey"], descending=[True, False])


ORACLE_TOP_ORDERS_WITH_TIES = """
SELECT o_orderkey, o_totalprice FROM (
  SELECT o_orderkey, o_totalprice,
         RANK() OVER (ORDER BY o_totalprice DESC) AS r
  FROM orders
) WHERE r <= 10
ORDER BY o_totalprice DESC, o_orderkey
"""


# ===================================== calendar gap detection (backfill)

def q_missing_days(sf_dir: str):
    """Backfill planner: (event_type, day) cells inside the corpus'
    [min day, max day] span with ZERO events — the calendar anti-join
    every ingestion pipeline runs before a backfill. The observed cell
    set is a combiner groupby (bounded by types x active days, never
    event count); the expected grid is types x span days — CALENDAR-
    bounded (decades are ~10^4 rows), built once and anti-joined
    distributed against the observed cells."""
    import ray.data as rdn

    rd = _rd()
    day_us = 86_400 * 1_000_000

    def day_cells(t: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(t["ts"], pa.timestamp("us")), pa.int64())
        day = pc.multiply(pc.floor(pc.divide(us, day_us)), day_us)
        return pa.table({"event_type": t["event_type"],
                         "day": pc.cast(day, pa.int64())})

    observed = combine_aggregate(
        rd.read_parquet(f"{sf_dir}/events.parquet",
                        columns=["ts", "event_type"])
        .map_batches(day_cells, batch_format="pyarrow"),
        ["event_type", "day"], []).materialize()

    lo = observed.min("day")
    hi = observed.max("day")
    types = sorted(set(
        x for b in observed.iter_batches(batch_format="pyarrow")
        for x in b["event_type"].to_pylist()))
    days = np.arange(lo, hi + day_us, day_us, dtype=np.int64)
    grid = pa.table({
        "event_type": pa.array(np.repeat(types, len(days)).tolist(),
                               pa.string()),
        "day": pa.array(np.tile(days, len(types)), pa.int64()),
    })

    def pack(t: pa.Table) -> pa.Table:
        k = pc.binary_join_element_wise(
            t["event_type"], pc.cast(t["day"], pa.string()), "|")
        return t.append_column("_k", k)

    missing = hash_join(
        rdn.from_arrow(grid).map_batches(pack, batch_format="pyarrow"),
        observed.map_batches(lambda t: pack(t).select(["_k"]),
                             batch_format="pyarrow"),
        on="_k", how="anti")

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": t["event_type"],
            "missing_day": pc.cast(t["day"], pa.timestamp("us")),
        })

    missing = missing.map_batches(finish, batch_format="pyarrow"
                                  ).materialize()
    if missing.count() == 0:
        # a fully-covered calendar is the healthy case; an empty Ray
        # Dataset loses its schema even through from_arrow, so return
        # the schema-pinned Arrow table directly (a legal result type)
        return pa.table({
            "event_type": pa.array([], pa.string()),
            "missing_day": pa.array([], pa.timestamp("us"))})
    return missing.sort(["event_type", "missing_day"])


ORACLE_MISSING_DAYS = """
WITH d AS (
  SELECT DISTINCT event_type,
         CAST(date_trunc('day', ts) AS TIMESTAMP) AS day
  FROM events
),
lim AS (SELECT MIN(day) AS lo, MAX(day) AS hi FROM d),
grid AS (
  SELECT t.event_type, g.day
  FROM (SELECT DISTINCT event_type FROM events) t,
       (SELECT unnest(generate_series(lim.lo, lim.hi, INTERVAL 1 DAY))
          AS day FROM lim) g
)
SELECT g.event_type, g.day AS missing_day
FROM grid g ANTI JOIN d ON d.event_type = g.event_type AND d.day = g.day
ORDER BY g.event_type, missing_day
"""


# ===================================== A/B experiment metrics

def q_ab_test_metrics(sf_dir: str):
    """Experiment readout: users are assigned to variant A/B by a pure
    hash of user_id (parallelism/retry-invariant, the domain_mix
    discipline), and per event_type the two variants' value means and
    the Welch t-statistic are computed from INTEGER sufficient
    statistics (values quantized to cents; n, sum, sum-of-squares are
    int64 sums — order-independent), so the final floats are the same
    IEEE expressions the oracle evaluates on the same integers.

    One pass, one map-side combiner, one (event_type)-sized groupby —
    the classic six-sufficient-stats shape (corr/regress family)."""
    rd = _rd()

    def partial(t: pa.Table) -> pa.Table:
        import hashlib

        u = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        # md5 of the decimal string: process-stable, seedless, and the
        # exact expression the oracle evaluates (repo md5 idiom)
        variant = np.array(
            [int(hashlib.md5(str(x).encode()).hexdigest()[:8], 16) & 1
             for x in u], dtype=np.int64)
        cents = np.floor(
            t["value"].to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        return pa.table({
            "event_type": t["event_type"],
            "variant": pa.array(variant, pa.int64()),
            "n": pa.array(np.ones(len(u), np.int64)),
            "s": pa.array(cents, pa.int64()),
            "ss": pa.array(cents * cents, pa.int64()),
        })

    agg = combine_aggregate(
        rd.read_parquet(f"{sf_dir}/events.parquet",
                        columns=["user_id", "event_type", "value"])
        .map_batches(partial, batch_format="pyarrow"),
        ["event_type", "variant"],
        [("n", "n", "sum"), ("s", "s", "sum"), ("ss", "ss", "sum")])

    def welch(t: pa.Table) -> pa.Table:
        import pandas as pd

        df = t.to_pandas()
        out = []
        for et, g in df.groupby("event_type", sort=True):
            g = g.set_index("variant")
            if 0 not in g.index or 1 not in g.index:
                continue
            n0, s0, ss0 = (float(g.loc[0, c]) for c in ("n", "s", "ss"))
            n1, s1, ss1 = (float(g.loc[1, c]) for c in ("n", "s", "ss"))
            m0, m1 = s0 / n0, s1 / n1
            v0 = (ss0 - s0 * s0 / n0) / (n0 - 1.0)
            v1 = (ss1 - s1 * s1 / n1) / (n1 - 1.0)
            tstat = (m0 - m1) / (v0 / n0 + v1 / n1) ** 0.5
            out.append((et, int(n0), int(n1), round(m0 / 100.0, 6),
                        round(m1 / 100.0, 6), round(tstat, 6)))
        return pa.table({
            "event_type": pa.array([r[0] for r in out], pa.string()),
            "n_a": pa.array([r[1] for r in out], pa.int64()),
            "n_b": pa.array([r[2] for r in out], pa.int64()),
            "mean_a": pa.array([r[3] for r in out], pa.float64()),
            "mean_b": pa.array([r[4] for r in out], pa.float64()),
            "t_stat": pa.array([r[5] for r in out], pa.float64()),
        })

    return (agg.repartition(1)
            .map_batches(welch, batch_format="pyarrow").sort("event_type"))


ORACLE_AB_TEST_METRICS = """
WITH v AS (
  SELECT event_type,
         CAST(('0x' || substr(md5(CAST(user_id AS VARCHAR)), 1, 8))
              AS UBIGINT) % 2 AS variant,
         CAST(FLOOR(value * 100) AS BIGINT) AS cents
  FROM events
),
agg AS (
  SELECT event_type, variant,
         CAST(COUNT(*) AS BIGINT) AS n,
         CAST(SUM(cents) AS BIGINT) AS s,
         CAST(SUM(cents * cents) AS BIGINT) AS ss
  FROM v GROUP BY event_type, variant
),
w AS (
  SELECT a.event_type,
         a.n AS n_a, b.n AS n_b,
         a.s / (a.n * 1.0) AS m0, b.s / (b.n * 1.0) AS m1,
         (a.ss - a.s * 1.0 * a.s / a.n) / (a.n - 1.0) AS v0,
         (b.ss - b.s * 1.0 * b.s / b.n) / (b.n - 1.0) AS v1
  FROM agg a JOIN agg b ON a.event_type = b.event_type
  WHERE a.variant = 0 AND b.variant = 1
)
SELECT event_type, n_a, n_b,
       round(m0 / 100.0, 6) AS mean_a,
       round(m1 / 100.0, 6) AS mean_b,
       round((m0 - m1) / sqrt(v0 / n_a + v1 / n_b), 6) AS t_stat
FROM w ORDER BY event_type
"""


# ===================================== shortest-path tree (reconstruction)

def q_kg_sp_tree(sf_dir: str, rounds: int = 3):
    """The BFS shortest-path TREE from the top-out-degree seed: for
    every entity within ``rounds``, its min level plus the
    lexicographically smallest predecessor on a shortest path —
    the parent-pointer table that makes path reconstruction a
    ≤``rounds``-step walk (the provenance answer to "WHY is this
    entity connected to the seed"). Deterministic: min level via the
    visited anti-join, min parent via a groupby Min.

    Shape: the kg_bfs frontier expansion, plus one parent resolution
    per level — a frontier x edges hash join semi-filtered to the next
    level, folded by a (dst -> min src) groupby. Integer/string only."""
    from ray.data.aggregate import Count, Min

    import ray.data as rdn

    from .kg import triples_dataset

    def to_edges(t: pa.Table) -> pa.Table:
        return pa.table({"src": t["subj_canon"], "dst": t["obj_canon"]})

    edges = combine_aggregate(
        triples_dataset(sf_dir)
        .map_batches(to_edges, batch_format="pyarrow"),
        ["src", "dst"], []).materialize()
    parts = int(min(512, max(8, edges.count() // 5_000)))

    deg = edges.groupby("src").aggregate(Count(alias_name="d"))
    seed = pa.concat_tables(list(
        global_topk(deg, ["d", "src"], [True, False], 1)
        .iter_batches(batch_format="pyarrow")))["src"][0].as_py()

    level_ds = {0: rdn.from_arrow(pa.table({
        "entity": pa.array([seed], pa.string())})).materialize()}
    visited = level_ds[0].materialize()
    tree_parts = []
    for r in range(1, rounds + 1):
        exp = hash_join(level_ds[r - 1], edges, on="entity",
                        right_on="src", partitions=parts)

        nxt = combine_aggregate(
            exp.map_batches(lambda t: pa.table({"entity": t["dst"]}),
                            batch_format="pyarrow"), "entity", [])
        new = hash_join(nxt, visited, on="entity", how="anti",
                        partitions=parts).materialize()
        if new.count() == 0:
            break
        # parent = min predecessor at level r-1 among edges into the
        # NEW frontier
        preds = hash_join(
            exp.map_batches(lambda t: pa.table(
                {"entity": t["dst"], "parent": t["entity"]}),
                batch_format="pyarrow"),
            new, on="entity", how="semi", partitions=parts)
        lvl = r
        tree_parts.append(
            preds.groupby("entity").aggregate(Min("parent",
                                                  alias_name="parent"))
            .map_batches(lambda t, lvl=lvl: pa.table({
                "entity": t["entity"],
                "level": pa.array(np.full(t.num_rows, lvl), pa.int64()),
                "parent": t["parent"],
            }), batch_format="pyarrow"))
        level_ds[r] = new
        visited = visited.union(new).materialize()

    if not tree_parts:
        return pa.table({"entity": pa.array([], pa.string()),
                         "level": pa.array([], pa.int64()),
                         "parent": pa.array([], pa.string())})
    out = tree_parts[0]
    for p in tree_parts[1:]:
        out = out.union(p)
    return out.sort(["level", "entity"])


def _sp_tree_oracle(kg_body: str, rounds: int = 3) -> str:
    return f"""
WITH RECURSIVE trip AS ({kg_body}),
edges AS (SELECT DISTINCT subj_canon AS src, obj_canon AS dst FROM trip),
deg AS (SELECT src, count(*) AS d FROM edges GROUP BY src),
seed AS (SELECT src FROM deg ORDER BY d DESC, src LIMIT 1),
bfs(v, lvl) AS (
  SELECT src, 0 FROM seed
  UNION ALL
  SELECT e.dst, b.lvl + 1 FROM bfs b JOIN edges e ON e.src = b.v
  WHERE b.lvl < {rounds}
),
dist AS (SELECT v, MIN(lvl) AS d FROM bfs GROUP BY v)
SELECT d2.v AS entity, CAST(d2.d AS BIGINT) AS level,
       MIN(e.src) AS parent
FROM dist d2
JOIN edges e ON e.dst = d2.v
JOIN dist d1 ON d1.v = e.src AND d1.d = d2.d - 1
WHERE d2.d > 0
GROUP BY d2.v, d2.d
ORDER BY level, entity
"""


# ===================================== Pareto concentration (80/20)

def q_revenue_pareto(sf_dir: str, n_buckets: int = 256):
    """The Pareto question: how many top customers cover 80% of total
    order revenue? Customers are enumerated globally by (spend DESC,
    custkey ASC) with the weighted-prefix machinery (length_batches'
    shape: sketch boundaries -> per-bucket spend sums -> driver prefix
    of n_buckets offsets -> one groupby pass), and the 80% crossing is
    an ALL-INTEGER test (cum*5 >= total*4 on int64 cents) evaluated
    inside each bucket — exactly one row survives globally. The driver
    holds n_buckets offsets and the one-row answer."""
    import ray
    from ray.data.aggregate import Sum

    from odinson_ray.stages.link import get_broadcast
    from odinson_ray.stages.sketch import approx_quantile_values

    spend = _customer_spend(sf_dir)
    total = int(spend.sum("spend"))

    boundaries = np.unique(approx_quantile_values(
        spend, "spend", np.arange(1, n_buckets) / n_buckets))

    def bucket_of(v: np.ndarray) -> np.ndarray:
        return np.searchsorted(boundaries, v, side="left")

    def partials(t: pa.Table) -> pa.Table:
        v = t["spend"].to_numpy(zero_copy_only=False)
        b = bucket_of(v)
        s = np.bincount(b, weights=v, minlength=len(boundaries) + 1
                        ).astype(np.int64)
        n = np.bincount(b, minlength=len(boundaries) + 1)
        nz = np.nonzero(n)[0]
        return pa.table({"bucket": pa.array(nz, pa.int64()),
                         "ps": pa.array(s[nz], pa.int64()),
                         "pn": pa.array(n[nz].astype(np.int64))})

    rows = (spend.map_batches(partials, batch_format="pyarrow")
            .groupby("bucket").aggregate(Sum("ps", alias_name="s"),
                                         Sum("pn", alias_name="n"))
            ).take_all()
    sums = {r["bucket"]: (r["s"], r["n"]) for r in rows}
    # descending spend order => consume buckets from high id to low id
    offsets, acc_s, acc_n = {}, 0, 0
    for b in range(len(boundaries), -1, -1):
        offsets[b] = (acc_s, acc_n)
        s_b, n_b = sums.get(b, (0, 0))
        acc_s += s_b
        acc_n += n_b
    ref = ray.put(offsets)

    def tag(t: pa.Table) -> pa.Table:
        b = bucket_of(t["spend"].to_numpy(zero_copy_only=False))
        return t.append_column("bucket", pa.array(b, pa.int64()))

    def crossing(g: pa.Table) -> pa.Table:
        off_s, off_n = get_broadcast(ref)[g["bucket"][0].as_py()]
        v = g["spend"].to_numpy(zero_copy_only=False)
        k = g["o_custkey"].to_numpy(zero_copy_only=False)
        o = np.lexsort((k, -v))
        cum = off_s + np.cumsum(v[o])
        excl = cum - v[o]
        hit = (cum * 5 >= total * 4) & (excl * 5 < total * 4)
        if not hit.any():
            return pa.table({"n_customers": pa.array([], pa.int64()),
                             "covered_cents": pa.array([], pa.int64()),
                             "total_cents": pa.array([], pa.int64()),
                             "share": pa.array([], pa.float64())})
        i = int(np.flatnonzero(hit)[0])
        rn = off_n + i + 1
        cov = int(cum[i])
        return pa.table({
            "n_customers": pa.array([rn], pa.int64()),
            "covered_cents": pa.array([cov], pa.int64()),
            "total_cents": pa.array([total], pa.int64()),
            "share": pa.array([round(cov / total, 6)], pa.float64()),
        })

    return (spend.map_batches(tag, batch_format="pyarrow")
            .groupby("bucket").map_groups(crossing, batch_format="pyarrow"))


ORACLE_REVENUE_PARETO = """
WITH s AS (
  SELECT o_custkey,
         SUM(CAST(FLOOR(o_totalprice * 100) AS BIGINT)) AS spend
  FROM orders GROUP BY o_custkey
),
t AS (SELECT CAST(SUM(spend) AS BIGINT) AS total FROM s),
r AS (
  SELECT o_custkey, spend,
         SUM(spend) OVER (ORDER BY spend DESC, o_custkey) AS cum,
         ROW_NUMBER() OVER (ORDER BY spend DESC, o_custkey) AS rn
  FROM s
)
SELECT CAST(rn AS BIGINT) AS n_customers,
       CAST(cum AS BIGINT) AS covered_cents,
       t.total AS total_cents,
       round(cum * 1.0 / t.total, 6) AS share
FROM r, t WHERE cum * 5 >= t.total * 4 AND (cum - spend) * 5 < t.total * 4
"""


# ===================================== Gini coefficient (inequality)

def q_gini_value(sf_dir: str, n_buckets: int = 256):
    """Gini coefficient of customer spend: G = 2*sum(rank_i * x_i) /
    (n * sum(x)) - (n + 1)/n over the ascending (spend, custkey) total
    order. The rank-weighted sum reuses the weighted-prefix enumeration
    (sketch buckets -> driver offsets); each bucket's partial splits as
    off_n * sum(x_local) + sum(local_rank * x_local) — the second term
    is a safe int64 numpy sum (local ranks are bucket-bounded), the
    first multiplies PYTHON ints, and partials travel as decimal
    strings so 128-bit magnitudes survive Arrow. Every arithmetic step
    before the final division is exact integer math; the oracle's
    HUGEINT path computes the identical values."""
    import ray
    from ray.data.aggregate import Sum

    from odinson_ray.stages.link import get_broadcast
    from odinson_ray.stages.sketch import approx_quantile_values

    spend = _customer_spend(sf_dir)

    boundaries = np.unique(approx_quantile_values(
        spend, "spend", np.arange(1, n_buckets) / n_buckets))

    def bucket_of(v: np.ndarray) -> np.ndarray:
        return np.searchsorted(boundaries, v, side="left")

    def count_partial(t: pa.Table) -> pa.Table:
        v = t["spend"].to_numpy(zero_copy_only=False)
        b = bucket_of(v)
        n = np.bincount(b, minlength=len(boundaries) + 1)
        nz = np.nonzero(n)[0]
        return pa.table({"bucket": pa.array(nz, pa.int64()),
                         "pn": pa.array(n[nz].astype(np.int64))})

    counts = {r["bucket"]: r["n"] for r in
              spend.map_batches(count_partial, batch_format="pyarrow")
              .groupby("bucket").aggregate(Sum("pn", alias_name="n"))
              .take_all()}
    offsets, acc = {}, 0
    for b in range(len(boundaries) + 1):  # ascending spend order
        offsets[b] = acc
        acc += counts.get(b, 0)
    n_total = acc
    ref = ray.put(offsets)

    def tag(t: pa.Table) -> pa.Table:
        b = bucket_of(t["spend"].to_numpy(zero_copy_only=False))
        return t.append_column("bucket", pa.array(b, pa.int64()))

    def ws_partial(g: pa.Table) -> pa.Table:
        off = get_broadcast(ref)[g["bucket"][0].as_py()]
        v = g["spend"].to_numpy(zero_copy_only=False)
        k = g["o_custkey"].to_numpy(zero_copy_only=False)
        o = np.lexsort((k, v))
        local = int(np.sum((np.arange(len(o)) + 1) * v[o]))
        total = int(v.sum())
        ws = off * total + local  # python int: 128-bit safe
        return pa.table({
            "ws": pa.array([str(ws)], pa.string()),
            "sx": pa.array([str(total)], pa.string()),
        })

    parts = (spend.map_batches(tag, batch_format="pyarrow")
             .groupby("bucket")
             .map_groups(ws_partial, batch_format="pyarrow")).take_all()
    ws = sum(int(r["ws"]) for r in parts)
    sx = sum(int(r["sx"]) for r in parts)
    gini = round((2.0 * ws) / (n_total * sx) - (n_total + 1.0) / n_total, 6)
    return pa.table({
        "n_customers": pa.array([n_total], pa.int64()),
        "gini": pa.array([gini], pa.float64()),
    })


ORACLE_GINI_VALUE = """
WITH s AS (
  SELECT o_custkey,
         SUM(CAST(FLOOR(o_totalprice * 100) AS BIGINT)) AS spend
  FROM orders GROUP BY o_custkey
),
r AS (
  SELECT spend,
         ROW_NUMBER() OVER (ORDER BY spend, o_custkey) AS rn
  FROM s
),
agg AS (
  SELECT COUNT(*) AS n, SUM(spend) AS tot, SUM(rn * spend) AS ws FROM r
)
SELECT CAST(n AS BIGINT) AS n_customers,
       round((2.0 * ws) / (n * tot) - (n + 1.0) / n, 6) AS gini
FROM agg
"""


# ===================================== KG refresh delta report

def q_kg_delta_report(sf_dir: str):
    """The KG-lifecycle question: what changed between two corpus
    snapshots? Documents are split into OLD/NEW halves (doc parity — a
    pure function, the incremental-checkpoint fixture convention) and
    every canonical triple is classified added / removed / changed by
    its per-half support counts; stable triples are excluded.

    Shape: ONE pass over the doc-granular mention chain — a per-batch
    (triple-key, n_old, n_new) combiner, one triple groupby, a
    vectorized classify. Support counts are integers; nothing float
    ever decides a status."""
    from odinson_ray.stages.canon import canonicalize_dataset
    from odinson_ray.stages.triples import mentions_to_triples

    from .kg import mentions_dataset

    SEP = "\x1f"

    mentions = mentions_dataset(sf_dir).map_batches(
        lambda t: t.filter(pc.equal(t["label"], "SVO")),
        batch_format="pyarrow")
    trips, _roots = canonicalize_dataset(
        mentions.map_batches(mentions_to_triples, batch_format="pyarrow"))

    def partial(t: pa.Table) -> pa.Table:
        did = pc.cast(pc.utf8_slice_codeunits(t["doc_id"], 4, 99),
                      pa.int64())
        is_new = pc.equal(pc.bit_wise_and(did, 1), 1)
        tk = pc.binary_join_element_wise(
            t["subj_canon"], t["pred"], t["obj_canon"], SEP)
        return pa.table({
            "tk": tk,
            "o": pc.cast(pc.invert(is_new), pa.int64()),
            "n": pc.cast(is_new, pa.int64()),
        })

    agg = combine_aggregate(trips.map_batches(partial, batch_format="pyarrow"),
                            "tk",
                            [("n_old", "o", "sum"), ("n_new", "n", "sum")])

    def classify(t: pa.Table) -> pa.Table:
        t = t.filter(pc.not_equal(t["n_old"], t["n_new"]))
        parts = pc.split_pattern(t["tk"], SEP)
        status = pc.if_else(
            pc.equal(t["n_old"], 0), "added",
            pc.if_else(pc.equal(t["n_new"], 0), "removed", "changed"))
        return pa.table({
            "subj_canon": pc.list_element(parts, 0),
            "pred": pc.list_element(parts, 1),
            "obj_canon": pc.list_element(parts, 2),
            "n_old": t["n_old"].cast(pa.int64()),
            "n_new": t["n_new"].cast(pa.int64()),
            "status": status,
        })

    return (agg.map_batches(classify, batch_format="pyarrow")
            .sort(["subj_canon", "pred", "obj_canon"]))


def _delta_oracle(canon_sql: str) -> str:
    return f"""
WITH toks AS (
  SELECT doc_id AS did,
         unnest(string_split(text, ' ')) AS tok,
         unnest(generate_series(1, len(string_split(text, ' ')))) AS p
  FROM documents
),
postoks AS (
  SELECT did, tok, p, CAST(((p - 1) % 20) AS INT) AS l
  FROM toks
),
raw AS (
  SELECT a.did % 2 AS half, b.tok AS subj, a.tok AS pred, c.tok AS obj
  FROM postoks a JOIN postoks b ON b.did = a.did AND b.p = a.p + 1
                 JOIN postoks c ON c.did = a.did AND c.p = a.p + 2
  WHERE a.l % 5 = 0
    AND a.tok IN ('scan', 'join', 'sort', 'merge', 'filter', 'group')
),
canon AS (
  SELECT half,
         'ent:' || {canon_sql.format(c='subj')} AS subj_canon,
         pred,
         'ent:' || {canon_sql.format(c='obj')} AS obj_canon
  FROM raw
),
agg AS (
  SELECT subj_canon, pred, obj_canon,
         CAST(SUM(CASE WHEN half = 0 THEN 1 ELSE 0 END) AS BIGINT)
           AS n_old,
         CAST(SUM(CASE WHEN half = 1 THEN 1 ELSE 0 END) AS BIGINT)
           AS n_new
  FROM canon GROUP BY 1, 2, 3
)
SELECT subj_canon, pred, obj_canon, n_old, n_new,
       CASE WHEN n_old = 0 THEN 'added'
            WHEN n_new = 0 THEN 'removed'
            ELSE 'changed' END AS status
FROM agg WHERE n_old <> n_new
ORDER BY subj_canon, pred, obj_canon
"""


# ===================================== per-source duplication report

def q_source_dup_rate(sf_dir: str):
    """The curation dashboard's per-source duplication rate: documents,
    distinct contents (shared md5 kernel — content_fingerprints, so this
    can never drift from dedup_exact), and dup_rate per source. One
    (source, fp) groupby whose per-group count feeds a source-sized
    rollup: n_docs = sum(n), n_unique = row count."""
    from ray.data.aggregate import Count, Sum

    from odinson_ray.stages.text import content_fingerprints

    rd = _rd()

    def fp_project(t: pa.Table) -> pa.Table:
        return pa.table({"source": t["source"],
                         "fp": content_fingerprints(t["text"])})

    per_fp = combine_aggregate(
        rd.read_parquet(f"{sf_dir}/documents.parquet",
                        columns=["source", "text"])
        .map_batches(fp_project, batch_format="pyarrow"),
        ["source", "fp"], [("n", None, "count_all")])
    agg = per_fp.groupby("source").aggregate(
        Sum("n", alias_name="n_docs"), Count(alias_name="n_unique"))

    def finish(t: pa.Table) -> pa.Table:
        nd = t["n_docs"].to_numpy(zero_copy_only=False).astype(np.float64)
        nu = t["n_unique"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({
            "source": t["source"],
            "n_docs": t["n_docs"].cast(pa.int64()),
            "n_unique": t["n_unique"].cast(pa.int64()),
            "dup_rate": pa.array(np.round(1.0 - nu / nd, 6), pa.float64()),
        })

    return agg.map_batches(finish, batch_format="pyarrow").sort("source")


ORACLE_SOURCE_DUP_RATE = """
SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(COUNT(DISTINCT md5(text)) AS BIGINT) AS n_unique,
       round(1 - COUNT(DISTINCT md5(text)) * 1.0 / COUNT(*), 6)
         AS dup_rate
FROM documents GROUP BY source ORDER BY source
"""


# ===================================== Benford first-digit audit

def q_value_benford(sf_dir: str):
    """Benford's-law audit of order totals: first-digit distribution of
    the int64 cent amounts (digit taken from the INTEGER's decimal
    string, so both sides see the identical digit — no float log10
    anywhere), with each digit's observed share. The whole operator is
    one per-batch bincount combiner + a 9-row groupby."""
    from ray.data.aggregate import Sum

    rd = _rd()

    def partial(t: pa.Table) -> pa.Table:
        cents = np.floor(
            t["o_totalprice"].to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        cents = cents[cents > 0]
        # first decimal digit via magnitude bucketing (pure integer)
        mags = np.ones_like(cents)
        c = cents.copy()
        while (c >= 10).any():
            big = c >= 10
            c[big] //= 10
        counts = np.bincount(c, minlength=10)[1:]
        return pa.table({
            "digit": pa.array(np.arange(1, 10), pa.int64()),
            "pn": pa.array(counts.astype(np.int64)),
        })

    agg = (
        rd.read_parquet(f"{sf_dir}/orders.parquet",
                        columns=["o_totalprice"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("digit").aggregate(Sum("pn", alias_name="n"))
    ).materialize()
    total = int(agg.sum("n"))

    def finish(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t["n"], 0))  # SQL omits absent digits
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({
            "digit": t["digit"].cast(pa.int64()),
            "n": t["n"].cast(pa.int64()),
            "share": pa.array(np.round(n / total, 6), pa.float64()),
        })

    return agg.map_batches(finish, batch_format="pyarrow").sort("digit")


ORACLE_VALUE_BENFORD = """
WITH c AS (
  SELECT CAST(FLOOR(o_totalprice * 100) AS BIGINT) AS cents
  FROM orders
  WHERE CAST(FLOOR(o_totalprice * 100) AS BIGINT) > 0
),
d AS (
  SELECT CAST(substr(CAST(cents AS VARCHAR), 1, 1) AS BIGINT) AS digit
  FROM c
),
t AS (SELECT COUNT(*) AS total FROM d)
SELECT digit, CAST(COUNT(*) AS BIGINT) AS n,
       round(COUNT(*) * 1.0 / t.total, 6) AS share
FROM d, t GROUP BY digit, t.total ORDER BY digit
"""


# ===================================== Lorenz curve decile points

def q_lorenz_deciles(sf_dir: str, n_buckets: int = 256):
    """Lorenz curve of customer spend at decile grain: for each decile
    d of customers (ascending spend order), the cumulative share of
    total revenue held by the bottom d/10 — the curve the Gini
    coefficient integrates. Same weighted-prefix machinery as
    revenue_pareto/gini_value; each bucket emits the cumulative cents
    at every decile BOUNDARY row it contains (row index == k*n//10, an
    integer test), so exactly 10 rows survive globally and floats never
    pick a row."""
    import ray
    from ray.data.aggregate import Sum

    from odinson_ray.stages.link import get_broadcast
    from odinson_ray.stages.sketch import approx_quantile_values

    spend = _customer_spend(sf_dir)
    total = int(spend.sum("spend"))

    boundaries = np.unique(approx_quantile_values(
        spend, "spend", np.arange(1, n_buckets) / n_buckets))

    def bucket_of(v: np.ndarray) -> np.ndarray:
        return np.searchsorted(boundaries, v, side="left")

    def partials(t: pa.Table) -> pa.Table:
        v = t["spend"].to_numpy(zero_copy_only=False)
        b = bucket_of(v)
        s = np.bincount(b, weights=v, minlength=len(boundaries) + 1
                        ).astype(np.int64)
        n = np.bincount(b, minlength=len(boundaries) + 1)
        nz = np.nonzero(n)[0]
        return pa.table({"bucket": pa.array(nz, pa.int64()),
                         "ps": pa.array(s[nz], pa.int64()),
                         "pn": pa.array(n[nz].astype(np.int64))})

    rows = (spend.map_batches(partials, batch_format="pyarrow")
            .groupby("bucket").aggregate(Sum("ps", alias_name="s"),
                                         Sum("pn", alias_name="n"))
            ).take_all()
    sums = {r["bucket"]: (r["s"], r["n"]) for r in rows}
    offsets, acc_s, acc_n = {}, 0, 0
    for b in range(len(boundaries) + 1):  # ascending spend order
        offsets[b] = (acc_s, acc_n)
        s_b, n_b = sums.get(b, (0, 0))
        acc_s += s_b
        acc_n += n_b
    n_total = acc_n
    ref = ray.put(offsets)

    def tag(t: pa.Table) -> pa.Table:
        b = bucket_of(t["spend"].to_numpy(zero_copy_only=False))
        return t.append_column("bucket", pa.array(b, pa.int64()))

    def decile_rows(g: pa.Table) -> pa.Table:
        off_s, off_n = get_broadcast(ref)[g["bucket"][0].as_py()]
        v = g["spend"].to_numpy(zero_copy_only=False)
        k = g["o_custkey"].to_numpy(zero_copy_only=False)
        o = np.lexsort((k, v))
        rn = off_n + 1 + np.arange(len(o))
        cum = off_s + np.cumsum(v[o])
        dec, cums = [], []
        for d in range(1, 11):
            boundary = d * n_total // 10
            hit = np.flatnonzero(rn == boundary)
            if len(hit):
                dec.append(d)
                cums.append(int(cum[hit[0]]))
        return pa.table({
            "decile": pa.array(dec, pa.int64()),
            "cum_cents": pa.array(cums, pa.int64()),
            "share": pa.array(
                [round(c / total, 6) for c in cums], pa.float64()),
        })

    return (spend.map_batches(tag, batch_format="pyarrow")
            .groupby("bucket").map_groups(decile_rows,
                                          batch_format="pyarrow")
            .sort("decile"))


ORACLE_LORENZ_DECILES = """
WITH s AS (
  SELECT o_custkey,
         SUM(CAST(FLOOR(o_totalprice * 100) AS BIGINT)) AS spend
  FROM orders GROUP BY o_custkey
),
t AS (SELECT CAST(SUM(spend) AS BIGINT) AS total,
             COUNT(*) AS n FROM s),
r AS (
  SELECT spend,
         SUM(spend) OVER (ORDER BY spend, o_custkey) AS cum,
         ROW_NUMBER() OVER (ORDER BY spend, o_custkey) AS rn
  FROM s
)
SELECT CAST(d.d AS BIGINT) AS decile,
       CAST(r.cum AS BIGINT) AS cum_cents,
       round(r.cum * 1.0 / t.total, 6) AS share
FROM (SELECT unnest(range(1, 11)) AS d) d
JOIN t ON TRUE
JOIN r ON r.rn = d.d * t.n // 10
ORDER BY decile
"""


# ===================================== edge reciprocity

def q_kg_reciprocity(sf_dir: str):
    """Reciprocity of the KG edge set: the fraction of distinct directed
    edges (u, v) whose reverse (v, u) also exists — a one-line health
    metric for relation directionality. One distributed semi join of
    the edge set against its own packed reverse keys; counts are
    integers, the ratio is one division."""
    from .kg import triples_dataset

    def to_edges(t: pa.Table) -> pa.Table:
        return pa.table({"src": t["subj_canon"], "dst": t["obj_canon"]})

    edges = combine_aggregate(
        triples_dataset(sf_dir)
        .map_batches(to_edges, batch_format="pyarrow"),
        ["src", "dst"], []).materialize()
    n_edges = edges.count()

    SEP = "\x1f"

    def fwd_key(t: pa.Table) -> pa.Table:
        return pa.table({"_k": pc.binary_join_element_wise(
            t["src"], t["dst"], SEP)})

    def rev_key(t: pa.Table) -> pa.Table:
        return pa.table({"_k": pc.binary_join_element_wise(
            t["dst"], t["src"], SEP)})

    recip = hash_join(
        edges.map_batches(fwd_key, batch_format="pyarrow"),
        edges.map_batches(rev_key, batch_format="pyarrow"),
        on="_k", how="semi")
    n_recip = recip.count()
    return pa.table({
        "n_edges": pa.array([n_edges], pa.int64()),
        "n_reciprocal": pa.array([n_recip], pa.int64()),
        "reciprocity": pa.array([round(n_recip / n_edges, 6)]
                                if n_edges else [0.0], pa.float64()),
    })


def _reciprocity_oracle(kg_body: str) -> str:
    return f"""
WITH trip AS ({kg_body}),
edges AS (SELECT DISTINCT subj_canon AS src, obj_canon AS dst FROM trip),
r AS (
  SELECT COUNT(*) AS n_recip FROM edges e
  WHERE EXISTS (SELECT 1 FROM edges b
                WHERE b.src = e.dst AND b.dst = e.src)
),
t AS (SELECT COUNT(*) AS n_edges FROM edges)
SELECT CAST(t.n_edges AS BIGINT) AS n_edges,
       CAST(r.n_recip AS BIGINT) AS n_reciprocal,
       round(r.n_recip * 1.0 / t.n_edges, 6) AS reciprocity
FROM t, r
"""


# ===================================== degree assortativity

def q_kg_assortativity(sf_dir: str):
    """Degree assortativity of the KG: the Pearson correlation between
    the TOTAL degrees of the two endpoints across distinct directed
    edges — do hubs link to hubs? All six sufficient statistics are
    int64 sums of integer degrees (bounded at the bench scales; a
    10^12-edge deployment would carry them as the gini-style decimal
    strings), and the final expression is the identical IEEE formula
    the oracle evaluates, so the result is hash-exact.

    Shape: one degree groupby (union of endpoint mentions), two
    ``broadcast_or_join`` calls to attach deg(src)/deg(dst) to each edge, one
    sufficient-stats combiner."""
    from odinson_ray.stages.shuffle import broadcast_or_join

    from .kg import triples_dataset

    def to_edges(t: pa.Table) -> pa.Table:
        return pa.table({"src": t["subj_canon"], "dst": t["obj_canon"]})

    edges = combine_aggregate(
        triples_dataset(sf_dir)
        .map_batches(to_edges, batch_format="pyarrow"),
        ["src", "dst"], []).materialize()

    def endpoints(t: pa.Table) -> pa.Table:
        ent = pa.concat_arrays([t["src"].combine_chunks().cast(pa.string()),
                                t["dst"].combine_chunks().cast(pa.string())])
        return pa.table({"entity": ent})

    deg = combine_aggregate(
        edges.map_batches(endpoints, batch_format="pyarrow"),
        "entity", [("d", None, "count_all")]).materialize()

    s_schema = pa.schema([("src", pa.string()), ("dst", pa.string())])
    d_schema = pa.schema([("entity", pa.string()), ("d", pa.int64())])
    with_src = broadcast_or_join(
        edges, deg, on="src", right_on="entity",
        left_schema=s_schema, right_schema=d_schema)
    with_both = broadcast_or_join(
        with_src.map_batches(
            lambda t: pa.table({"dst": t["dst"], "dx": t["d"]}),
            batch_format="pyarrow"),
        deg, on="dst", right_on="entity",
        left_schema=pa.schema([("dst", pa.string()), ("dx", pa.int64())]),
        right_schema=d_schema)

    def stats(t: pa.Table) -> pa.Table:
        x = t["dx"].to_numpy(zero_copy_only=False).astype(np.int64)
        y = t["d"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "n": pa.array([len(x)], pa.int64()),
            "sx": pa.array([int(x.sum())], pa.int64()),
            "sy": pa.array([int(y.sum())], pa.int64()),
            "sxx": pa.array([int((x * x).sum())], pa.int64()),
            "syy": pa.array([int((y * y).sum())], pa.int64()),
            "sxy": pa.array([int((x * y).sum())], pa.int64()),
        })

    parts = with_both.map_batches(stats, batch_format="pyarrow").take_all()
    n = sum(r["n"] for r in parts)
    sx = sum(r["sx"] for r in parts)
    sy = sum(r["sy"] for r in parts)
    sxx = sum(r["sxx"] for r in parts)
    syy = sum(r["syy"] for r in parts)
    sxy = sum(r["sxy"] for r in parts)
    num = n * sxy - sx * sy
    den = ((n * sxx - sx * sx) ** 0.5) * ((n * syy - sy * sy) ** 0.5)
    r = round(num / den, 6) if den else 0.0
    return pa.table({
        "n_edges": pa.array([n], pa.int64()),
        "assortativity": pa.array([r], pa.float64()),
    })


def _assortativity_oracle(kg_body: str) -> str:
    return f"""
WITH trip AS ({kg_body}),
edges AS (SELECT DISTINCT subj_canon AS src, obj_canon AS dst FROM trip),
deg AS (
  SELECT entity, CAST(COUNT(*) AS BIGINT) AS d FROM (
    SELECT src AS entity FROM edges
    UNION ALL SELECT dst AS entity FROM edges
  ) GROUP BY entity
),
j AS (
  SELECT ds.d AS dx, dd.d AS dy
  FROM edges e JOIN deg ds ON ds.entity = e.src
               JOIN deg dd ON dd.entity = e.dst
),
agg AS (
  SELECT COUNT(*) AS n, SUM(dx) AS sx, SUM(dy) AS sy,
         SUM(dx * dx) AS sxx, SUM(dy * dy) AS syy,
         SUM(dx * dy) AS sxy
  FROM j
)
SELECT CAST(n AS BIGINT) AS n_edges,
       round((n * sxy - sx * sy) /
             (sqrt(n * sxx - sx * sx) * sqrt(n * syy - sy * sy)), 6)
         AS assortativity
FROM agg
"""
