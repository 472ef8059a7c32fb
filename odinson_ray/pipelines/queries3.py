"""Round-4 batch-l queries: GNN-style neighborhood aggregation, global
high-water-mark detection (sequential-dependency streaming op), per-key
time-weighted average, CSV source/sink roundtrip.

Registered by ``pipelines/queries.py`` like queries2.py.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from odinson_ray.stages.shuffle import (coarse_groups, combine_aggregate,
                                       partial_aggregate)


def _rd():
    from ..sources.io import clean_rd

    return clean_rd


# ===================================== 2-hop GNN neighborhood aggregation

def q_gnn_neighbor_agg(sf_dir: str):
    """GraphSAGE-style mean aggregation over the KG graph, 2 hops:
    x0(v) = deg(v); h1(v) = mean of x0 over v's neighbors; h2(v) = mean
    of h1 over v's neighbors. The per-layer shape every GNN training
    pipeline needs at scale: one hash join (directed edge x feature) +
    one map-side-combined mean per hop — features stay Datasets, the
    feature of a hub is never materialized per-edge on the driver."""
    from odinson_ray.stages.shuffle import hash_join

    from .queries2 import _kg_edges

    str_t, f64 = pa.string(), pa.float64()

    def both(t: pa.Table) -> pa.Table:
        return pa.table({
            "a": pa.concat_arrays([t["lo"].combine_chunks(),
                                   t["hi"].combine_chunks()]),
            "b": pa.concat_arrays([t["hi"].combine_chunks(),
                                   t["lo"].combine_chunks()]),
        })

    bedges = _kg_edges(sf_dir).map_batches(
        both, batch_format="pyarrow").materialize()  # consumed 3x below
    bd_schema = pa.schema([("a", str_t), ("b", str_t)])

    def deg_project(t: pa.Table) -> pa.Table:
        return pa.table({"v": t["a"]})

    feat = combine_aggregate(
        bedges.map_batches(deg_project, batch_format="pyarrow"),
        "v", [("d", None, "count_all")])
    feat = feat.map_batches(
        lambda t: pa.table({"v": t["v"], "h": pc.cast(t["d"], f64)}),
        batch_format="pyarrow")

    def mean_hop(feature_ds, name):
        f_schema = pa.schema([("v", str_t), ("h", f64)])
        joined = hash_join(bedges, feature_ds, on="b", right_on="v",
                           left_schema=bd_schema, right_schema=f_schema)

        def partial(t: pa.Table) -> pa.Table:
            return pa.table({"v": t["a"], "h": t["h"]})

        sums = combine_aggregate(
            joined.map_batches(partial, batch_format="pyarrow"),
            "v", [("s", "h", "sum"), ("c", "h", "count")])
        return sums.map_batches(
            lambda t: pa.table({
                "v": t["v"],
                "h": pc.divide(t["s"], pc.cast(t["c"], f64))}),
            batch_format="pyarrow").materialize()

    h1 = mean_hop(feat, "h1")
    h2 = mean_hop(h1, "h2")

    from odinson_ray.stages.shuffle import hash_join as hj

    out = hj(h1, h2, on="v",
             left_schema=pa.schema([("v", str_t), ("h", f64)]),
             right_schema=pa.schema([("v", str_t), ("h", f64)]))
    return out.map_batches(
        lambda t: pa.table({"entity": t["v"],
                            "h1": pc.round(t["h"], 6),
                            "h2": pc.round(t["h_r"], 6)}),
        batch_format="pyarrow")


def _gnn_oracle(body: str) -> str:
    return f"""
WITH trip AS ({body}),
e0 AS (
  SELECT DISTINCT least(subj_canon, obj_canon) AS lo,
                  greatest(subj_canon, obj_canon) AS hi
  FROM trip WHERE subj_canon != obj_canon
),
edges AS (SELECT lo AS a, hi AS b FROM e0 UNION ALL SELECT hi, lo FROM e0),
deg AS (SELECT a AS v, CAST(count(*) AS DOUBLE) AS h FROM edges GROUP BY a),
h1 AS (SELECT e.a AS v, avg(d.h) AS h FROM edges e JOIN deg d ON d.v = e.b
       GROUP BY e.a),
h2 AS (SELECT e.a AS v, avg(h1.h) AS h FROM edges e JOIN h1 ON h1.v = e.b
       GROUP BY e.a)
SELECT h1.v AS entity, round(h1.h, 6) AS h1, round(h2.h, 6) AS h2
FROM h1 JOIN h2 ON h2.v = h1.v
"""


# ===================================== global high-water-mark detection

def record_high_counts(ds, order: str, value: str, group: str,
                       bucket_width: int = 4096,
                       mode: str = "record", lateness: float = 0.0):
    """Rows whose ``value`` strictly exceeds every earlier row's value in
    global ``order`` — the sequential-dependency class (running max over
    the WHOLE stream, not per key). Two-stage decomposition: per-bucket
    maxima (one map-side-combined groupby over order-buckets), ONE task
    turns the #buckets-sized maxima table into exclusive prefix-max
    carries, carries union back into the bucket-partitioned stream as
    sentinel rows, and each bucket evaluates its rows vectorized
    (np.maximum.accumulate seeded by the carry). No task ever holds more
    than one bucket; the carry pass holds #buckets rows = n/bucket_width
    (size it so that fits one task — at 10^12 rows, width 10^6 leaves
    10^6 carry rows).

    Returns (group, n_records) counts of record-setting rows per group.
    """
    from ray.data.aggregate import Sum

    NEG = float("-inf")

    def add_bucket(t: pa.Table) -> pa.Table:
        o = t[order].to_numpy(zero_copy_only=False)
        b = (o // bucket_width).astype(np.int64)
        return pa.table({
            "bkt": pa.array(b, pa.int64()),
            "o": pa.array(o, pa.int64()),
            "x": pc.cast(t[value], pa.float64()),
            "g": t[group],
        })

    rows = ds.map_batches(add_bucket, batch_format="pyarrow").materialize()

    bmax = combine_aggregate(rows, "bkt", [("m", "x", "max")])

    def carries(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        o = pc.sort_indices(t["bkt"])
        b = t["bkt"].take(o).to_numpy(zero_copy_only=False)
        m = t["m"].take(o).to_numpy(zero_copy_only=False).copy()
        carry = np.empty(len(m), dtype=np.float64)
        if len(m):
            carry[0] = NEG
            carry[1:] = np.maximum.accumulate(m[:-1])
        # sentinel rows: order -inf-like (min int) so they sort first
        return pa.table({
            "bkt": pa.array(b, pa.int64()),
            "o": pa.array(np.full(len(b), np.iinfo(np.int64).min), pa.int64()),
            "x": pa.array(carry, pa.float64()),
            "g": pa.array([None] * len(b), pa.string()),
        })

    const = bmax.map_batches(
        lambda t: t.append_column("_g", pa.array(np.zeros(t.num_rows,
                                                          np.int64))),
        batch_format="pyarrow")
    carry_rows = (const.groupby("_g")
                  .map_groups(lambda t: carries(t.drop_columns(["_g"])),
                              batch_format="pyarrow"))

    def eval_partition(t: pa.Table) -> pa.Table:
        b = t["bkt"].to_numpy(zero_copy_only=False)
        x = t["x"].to_numpy(zero_copy_only=False)
        g = t["g"]
        n = len(b)
        starts = np.concatenate(([0], np.flatnonzero(b[1:] != b[:-1]) + 1))
        # each bucket segment leads with its carry row (o = int64 min,
        # x = exclusive prefix max over earlier buckets, -inf for the
        # first). prior-max for row i = cummax of x over the segment up
        # to i-1 — the carry folds the cross-bucket history in. Few
        # segments per partition, so the per-segment loop is cheap; the
        # accumulate inside is vectorized.
        prev = np.empty(n, dtype=np.float64)
        seg_bounds = np.append(starts, n)
        for i in range(len(starts)):
            s, e = seg_bounds[i], seg_bounds[i + 1]
            cm = np.maximum.accumulate(x[s:e])
            prev[s] = -np.inf  # the carry row itself (dropped below)
            prev[s + 1:e] = cm[:e - s - 1]
        # carry rows have g == null -> excluded by is_valid
        if mode == "late":
            # watermark semantics: row i is LATE when it arrives after
            # the running max has advanced more than `lateness` past it
            # (prev == -inf on the stream head: never late)
            is_rec = (x < prev - lateness) & np.asarray(pc.is_valid(g))
        else:
            is_rec = (x > prev) & np.asarray(pc.is_valid(g))
        kept = pa.table({"g": g.filter(pa.array(is_rec))})
        return partial_aggregate(kept, ["g"], [("pn", None, "count_all")])

    return (coarse_groups([rows, carry_rows], ["bkt"], eval_partition, ["o"])
            .groupby("g").aggregate(Sum("pn", alias_name="n_records")))


def q_record_highs(sf_dir: str):
    """Count of record-setting events (value strictly above the global
    running max over all earlier event_ids) per event_type."""
    rd = _rd()
    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "value", "event_type"])
    out = record_high_counts(ds, order="event_id", value="value",
                             group="event_type")
    return out.map_batches(
        lambda t: pa.table({"event_type": t["g"],
                            "n_records": t["n_records"]}),
        batch_format="pyarrow")


ORACLE_RECORD_HIGHS = """
SELECT event_type, CAST(count(*) AS BIGINT) AS n_records FROM (
  SELECT event_type, value,
         max(value) OVER (ORDER BY event_id
                          ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
           AS wm
  FROM events) t
WHERE wm IS NULL OR value > wm
GROUP BY event_type
"""


# ===================================== per-key time-weighted average

def q_twap_value(sf_dir: str):
    """Time-weighted average of value per user (each value weighted by
    the duration until the user's next event; the last event carries no
    weight) — the LEAD window class, one coarse exchange on user
    (tiny-group rule): per-user num/den via np.add.reduceat, boundary
    contributions masked to zero. A user whose events all share one
    instant has zero total weight and is emitted with a NULL twap
    (DuckDB's 0/0)."""
    rd = _rd()

    def twap_partition(g: pa.Table) -> pa.Table:
        n = g.num_rows
        u = g["user_id"].to_numpy(zero_copy_only=False)
        ts = g["ts"].cast(pa.timestamp("us")).cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        v = g["value"].to_numpy(zero_copy_only=False)
        same = np.zeros(n, dtype=bool)
        same[:-1] = u[1:] == u[:-1]  # row i pairs with its successor
        dt = np.zeros(n, dtype=np.float64)
        dt[:-1] = (ts[1:] - ts[:-1]).astype(np.float64)
        dt[~same] = 0.0
        starts = np.concatenate(([0], np.flatnonzero(u[1:] != u[:-1]) + 1))
        num = np.add.reduceat(v * dt, starts)
        den = np.add.reduceat(dt, starts)
        # users with >= 2 events keep a row; zero total weight -> NULL
        keep = np.append(starts[1:], n) - starts > 1
        users = u[starts][keep]
        num, den = num[keep], den[keep]
        twap = [round(a / b, 6) if b > 0 else None
                for a, b in zip(num, den)]
        return pa.table({
            "user_id": pa.array(users, pa.int64()),
            "twap": pa.array(twap, pa.float64()),
        })

    return coarse_groups(
        rd.read_parquet(f"{sf_dir}/events.parquet",
                        columns=["user_id", "ts", "event_id", "value"]),
        ["user_id"], twap_partition, ["ts", "event_id"])


ORACLE_TWAP_VALUE = """
WITH x AS (
  SELECT user_id, value,
         epoch_us(lead(ts) OVER (PARTITION BY user_id
                                 ORDER BY ts, event_id) - ts) AS dt
  FROM events
)
SELECT user_id, round(sum(value * dt) / sum(dt), 6) AS twap
FROM x WHERE dt IS NOT NULL
GROUP BY user_id
"""


# ===================================== CSV source/sink roundtrip

def q_csv_roundtrip(sf_dir: str):
    """Source/sink parity for CSV: project events to (event_type, value),
    write sharded CSV under /tmp, read it back with ray.data.read_csv,
    aggregate. Exercises the non-parquet IO path end to end; 2dp values
    roundtrip text exactly."""
    import os
    import tempfile

    import ray.data as rdn

    rd = _rd()
    out_dir = tempfile.mkdtemp(prefix="csv_rt_", dir="/tmp")
    (rd.read_parquet(f"{sf_dir}/events.parquet",
                     columns=["event_type", "value"])
     .write_csv(out_dir))

    ds = rdn.read_csv(out_dir)

    agg = combine_aggregate(ds, "event_type",
                            [("s", "value", "sum"), ("n", None, "count_all")])

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": t["event_type"],
            "n": t["n"],
            "total": pc.round(t["s"], 2),
        })

    res = agg.map_batches(finish, batch_format="pyarrow")
    return res


ORACLE_CSV_ROUNDTRIP = """
SELECT event_type, CAST(count(*) AS BIGINT) AS n,
       round(sum(value), 2) AS total
FROM events GROUP BY event_type
"""


def register(queries: dict, oracles: dict, kg_body: str) -> None:
    queries["gnn_neighbor_agg"] = q_gnn_neighbor_agg
    oracles["gnn_neighbor_agg"] = _gnn_oracle(kg_body)
    queries["record_highs"] = q_record_highs
    oracles["record_highs"] = ORACLE_RECORD_HIGHS
    queries["twap_value"] = q_twap_value
    oracles["twap_value"] = ORACLE_TWAP_VALUE
    queries["csv_roundtrip"] = q_csv_roundtrip
    oracles["csv_roundtrip"] = ORACLE_CSV_ROUNDTRIP


# ===================================== A-Priori frequent pair mining

_AP_ITEM_SUP = 0.75   # fraction of baskets an item must appear in
_AP_PAIR_SUP = 0.62   # fraction of baskets a pair must appear in


def q_apriori_pairs(sf_dir: str):
    """Frequent co-occurring token pairs across documents with A-Priori
    pruning: items (tokens) below the singleton support threshold are
    eliminated BEFORE any pair forms — the frequent-item set is small by
    construction of the threshold (the classic A-Priori argument), so it
    broadcasts via ray.put and the pair-count shuffle only ever carries
    pairs of frequent items. Basket = document (distinct tokens); one
    batch-local distinct (a doc never spans rows), one df groupby, one
    pair-count groupby."""
    import ray
    from ray.data.aggregate import Sum

    rd = _rd()
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])

    def tok_partial(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(t["text"].combine_chunks(), r"\s+")
        flat = pc.list_flatten(toks)
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        did = t["doc_id"].to_numpy(zero_copy_only=False)
        base = pa.table({
            "doc_id": pa.array(np.repeat(did, lens), pa.int64()),
            "w": flat,
        }).filter(pc.not_equal(flat, ""))
        return partial_aggregate(base, ["doc_id", "w"], [])

    tok = docs.map_batches(tok_partial, batch_format="pyarrow").materialize()
    n_docs = docs.count()
    min_item = _AP_ITEM_SUP * n_docs
    min_pair = _AP_PAIR_SUP * n_docs

    freq = (combine_aggregate(tok, "w", [("df", None, "count_all")])
            .map_batches(lambda t: t.filter(
                pc.greater_equal(pc.cast(t["df"], pa.float64()),
                                 pa.scalar(min_item))).select(["w"]),
                batch_format="pyarrow"))
    # small by construction of the support threshold -> broadcast
    freq_words = np.sort(np.array([r["w"] for r in freq.take_all()],
                                  dtype=object))
    freq_ref = ray.put(freq_words)

    def pair_partial(t: pa.Table) -> pa.Table:
        fw = ray.get(freq_ref)
        t = t.combine_chunks()
        o = pc.sort_indices(t, sort_keys=[("doc_id", "ascending"),
                                          ("w", "ascending")])
        t = t.take(o)
        w = np.asarray(t["w"].to_pylist(), dtype=object)
        did = t["doc_id"].to_numpy(zero_copy_only=False)
        keep = np.isin(w, fw)
        w, did = w[keep], did[keep]
        if len(w) == 0:
            return pa.table({"wa": pa.array([], pa.string()),
                             "wb": pa.array([], pa.string()),
                             "pn": pa.array([], pa.int64())})
        starts = np.concatenate(
            ([0], np.flatnonzero(did[1:] != did[:-1]) + 1, [len(did)]))
        ia, ib = [], []
        for s, e in zip(starts[:-1], starts[1:]):
            m = e - s
            if m < 2:
                continue
            iu, ju = np.triu_indices(m, k=1)
            ia.append(s + iu)
            ib.append(s + ju)
        if not ia:
            return pa.table({"wa": pa.array([], pa.string()),
                             "wb": pa.array([], pa.string()),
                             "pn": pa.array([], pa.int64())})
        a = np.concatenate(ia)
        b = np.concatenate(ib)
        base = pa.table({"wa": pa.array(w[a].tolist(), pa.string()),
                         "wb": pa.array(w[b].tolist(), pa.string())})
        return partial_aggregate(base, ["wa", "wb"],
                                 [("pn", None, "count_all")])

    pairs = (tok.map_batches(pair_partial, batch_format="pyarrow")
             .groupby(["wa", "wb"]).aggregate(Sum("pn", alias_name="n")))
    return pairs.map_batches(
        lambda t: t.filter(pc.greater_equal(
            pc.cast(t["n"], pa.float64()), pa.scalar(min_pair))),
        batch_format="pyarrow")


ORACLE_APRIORI_PAIRS = r"""
WITH tok AS (
  SELECT DISTINCT doc_id, w FROM (
    SELECT doc_id, unnest(string_split_regex(text, '\s+')) AS w
    FROM documents) WHERE w != ''
),
nd AS (SELECT count(DISTINCT doc_id) AS n FROM tok),
freq AS (
  SELECT w FROM tok GROUP BY w
  HAVING count(*) >= 0.75 * (SELECT n FROM nd)
)
SELECT a.w AS wa, b.w AS wb, CAST(count(*) AS BIGINT) AS n
FROM tok a JOIN tok b ON a.doc_id = b.doc_id AND a.w < b.w
WHERE a.w IN (SELECT w FROM freq) AND b.w IN (SELECT w FROM freq)
GROUP BY 1, 2
HAVING count(*) >= 0.62 * (SELECT n FROM nd)
"""


# ===================================== BPE tokenizer fitting (no oracle)

def q_bpe_merges(sf_dir: str, k: int = 5):
    """First k BPE merges learned from the document corpus
    (stages/bpe.py). Iterative argmax + re-tokenization — not
    SQL-expressible; correctness is pinned by a pytest twin (same
    class as ann_lsh/ann_ivf/cms)."""
    rd = _rd()
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    from odinson_ray.stages.bpe import bpe_top_merges

    return bpe_top_merges(docs, k=k)


def _register_batch_m(queries: dict, oracles: dict) -> None:
    queries["apriori_pairs"] = q_apriori_pairs
    oracles["apriori_pairs"] = ORACLE_APRIORI_PAIRS
    queries["bpe_merges"] = q_bpe_merges  # no oracle by design


# ===================================== session spans (full records)

def q_session_spans(sf_dir: str):
    """Full session records (start, end, n_events) per user at a 30-min
    gap — stages/window.session_spans' two-stage fragment merge."""
    rd = _rd()
    from odinson_ray.stages.window import session_spans

    return session_spans(
        rd.read_parquet(f"{sf_dir}/events.parquet",
                        columns=["user_id", "ts"]),
        key="user_id", ts="ts", gap_s=1800)


ORACLE_SESSION_SPANS = """
WITH x AS (
  SELECT user_id, ts,
         CASE WHEN lag(ts) OVER w IS NULL
                   OR epoch(ts - lag(ts) OVER w) > 1800
              THEN 1 ELSE 0 END AS is_new
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts)
),
s AS (
  SELECT user_id, ts,
         sum(is_new) OVER (PARTITION BY user_id ORDER BY ts
                           ROWS UNBOUNDED PRECEDING) AS sid
  FROM x
)
SELECT user_id,
       CAST(epoch_us(min(ts)) AS BIGINT) AS session_start_us,
       CAST(epoch_us(max(ts)) AS BIGINT) AS session_end_us,
       CAST(count(*) AS BIGINT) AS n_events
FROM s GROUP BY user_id, sid
"""


def _register_batch_n(queries: dict, oracles: dict) -> None:
    queries["session_spans"] = q_session_spans
    oracles["session_spans"] = ORACLE_SESSION_SPANS


# ===================================== KG-embedding negative sampling

_NEG_ATTEMPTS = 4
_NEG_KEEP = 2


def q_kg_negative_samples(sf_dir: str):
    """Deterministic negative sampling for KG-embedding training: for
    every positive triple (s, r, o), up to 2 corrupted objects drawn by
    md5-bucket lookup and verified NOT to be real triples.

    The classic scheme needs a uniform pick from the entity catalog,
    which would require a global enumeration (a sort at catalog scale);
    instead each entity hashes into one of 64k buckets and the pick is
    the bucket's min entity — a pure hash-join plan (attempt rows join
    the bucket-representative table; slight non-uniformity documented),
    reproducible at any parallelism. Validity = an anti join against the
    positive set keyed on the corrupted triple; the first 2 valid
    attempts per positive survive via grouped_topk.

    On the per-row md5 loop in ``attempts``: md5 is the one hash BOTH
    sides of the correctness gate can compute (hashlib here, md5() in
    the DuckDB oracle) — the same trade the fingerprint/doc-split ops
    make. A production run without the oracle constraint would switch
    the attempt hash to the vectorized _splitmix64 over integer triple
    ids (one line; the plan shape — two hash joins + one anti join —
    is unchanged)."""
    import hashlib

    from odinson_ray.stages.shuffle import grouped_topk, hash_join

    from .kg import triples_dataset

    str_t = pa.string()

    def to_pos(t: pa.Table) -> pa.Table:
        return pa.table({"s": t["subj_canon"], "r": t["pred"],
                         "o": t["obj_canon"]})

    pos = combine_aggregate(  # materialized: attempts + anti side
        triples_dataset(sf_dir).map_batches(to_pos, batch_format="pyarrow"),
        ["s", "r", "o"], []).materialize()

    def to_ents(t: pa.Table) -> pa.Table:
        e = pa.concat_arrays([t["s"].combine_chunks(),
                              t["o"].combine_chunks()])
        return pa.table({"e": e})

    ents = combine_aggregate(pos.map_batches(to_ents, batch_format="pyarrow"),
                             "e", []).materialize()
    # modulus = |entity catalog| (a driver SCALAR, not data): hit rate
    # ~1-1/e at any scale; 64k-bucket fixed moduli miss almost every
    # attempt when the catalog is small
    n_buckets = max(1, ents.count())

    def rep_project(t: pa.Table) -> pa.Table:
        b = [int(hashlib.md5(e.encode()).hexdigest()[:8], 16) % n_buckets
             for e in t["e"].to_pylist()]
        return pa.table({"b": pa.array(b, pa.int64()), "cand": t["e"]})

    reps = combine_aggregate(
        ents.map_batches(rep_project, batch_format="pyarrow"),
        "b", [("cand", "cand", "min")])

    def attempts(t: pa.Table) -> pa.Table:
        s = t["s"].to_pylist()
        r = t["r"].to_pylist()
        o = t["o"].to_pylist()
        n = len(s)
        m = _NEG_ATTEMPTS
        ss, rr, oo, ii, bb = [], [], [], [], []
        for j in range(n):
            for i in range(m):
                h = hashlib.md5(
                    f"{s[j]}|{r[j]}|{o[j]}|{i}".encode()).hexdigest()
                ss.append(s[j]); rr.append(r[j]); oo.append(o[j])
                ii.append(i)
                bb.append(int(h[:8], 16) % n_buckets)
        return pa.table({"s": pa.array(ss, str_t), "r": pa.array(rr, str_t),
                         "o": pa.array(oo, str_t),
                         "i": pa.array(ii, pa.int64()),
                         "b": pa.array(bb, pa.int64())})

    att = pos.map_batches(attempts, batch_format="pyarrow")
    att_schema = pa.schema([("s", str_t), ("r", str_t), ("o", str_t),
                            ("i", pa.int64()), ("b", pa.int64())])
    rep_schema = pa.schema([("b", pa.int64()), ("cand", str_t)])
    cand = hash_join(att, reps, on="b",
                     left_schema=att_schema, right_schema=rep_schema)

    SEP = "\x1f"

    def keyed(t: pa.Table) -> pa.Table:
        t = t.filter(pc.and_(pc.not_equal(t["cand"], t["o"]),
                             pc.not_equal(t["cand"], t["s"])))
        k = pc.binary_join_element_wise(t["s"], t["r"], t["cand"], SEP)
        return pa.table({"k": k, "s": t["s"], "r": t["r"], "o": t["o"],
                         "i": t["i"], "cand": t["cand"]})

    def pos_keyed(t: pa.Table) -> pa.Table:
        return pa.table({"k": pc.binary_join_element_wise(
            t["s"], t["r"], t["o"], SEP)})

    valid = hash_join(
        cand.map_batches(keyed, batch_format="pyarrow"),
        pos.map_batches(pos_keyed, batch_format="pyarrow"),
        on="k", how="anti",
        left_schema=pa.schema([("k", str_t), ("s", str_t), ("r", str_t),
                               ("o", str_t), ("i", pa.int64()),
                               ("cand", str_t)]),
        right_schema=pa.schema([("k", str_t)]))

    def tkey(t: pa.Table) -> pa.Table:
        return t.append_column(
            "tk", pc.binary_join_element_wise(t["s"], t["r"], t["o"], SEP))

    top = grouped_topk(valid.map_batches(tkey, batch_format="pyarrow"),
                       by="tk", cols=["i"], descending=[False],
                       k=_NEG_KEEP)
    return top.map_batches(
        lambda t: pa.table({"subj_canon": t["s"], "pred": t["r"],
                            "obj_canon": t["o"], "neg_obj": t["cand"],
                            "attempt": t["i"]}),
        batch_format="pyarrow")


def _neg_samples_oracle(body: str) -> str:
    return f"""
WITH trip AS ({body}),
pos AS (SELECT DISTINCT subj_canon AS s, pred AS r, obj_canon AS o FROM trip),
ents AS (
  SELECT DISTINCT e FROM (
    SELECT subj_canon AS e FROM trip UNION SELECT obj_canon FROM trip)
),
reps AS (
  SELECT CAST(('0x' || substr(md5(e), 1, 8)) AS UBIGINT)
           % (SELECT count(*) FROM ents) AS b,
         min(e) AS cand
  FROM ents GROUP BY 1
),
att AS (
  SELECT s, r, o, i,
         CAST(('0x' || substr(md5(s || '|' || r || '|' || o || '|'
                                  || CAST(i AS VARCHAR)), 1, 8))
              AS UBIGINT) % (SELECT count(*) FROM ents) AS b
  FROM pos CROSS JOIN (SELECT unnest([0, 1, 2, 3]) AS i)
),
cand AS (
  SELECT a.s, a.r, a.o, a.i, rep.cand AS neg
  FROM att a JOIN reps rep ON rep.b = a.b
  WHERE rep.cand <> a.o AND rep.cand <> a.s
    AND NOT EXISTS (SELECT 1 FROM pos p
                    WHERE p.s = a.s AND p.r = a.r AND p.o = rep.cand)
),
ranked AS (
  SELECT *, row_number() OVER (PARTITION BY s, r, o ORDER BY i) AS rn
  FROM cand
)
SELECT s AS subj_canon, r AS pred, o AS obj_canon, neg AS neg_obj,
       CAST(i AS BIGINT) AS attempt
FROM ranked WHERE rn <= {_NEG_KEEP}
"""


def _register_batch_o(queries: dict, oracles: dict, kg_body: str) -> None:
    queries["kg_negative_samples"] = q_kg_negative_samples
    oracles["kg_negative_samples"] = _neg_samples_oracle(kg_body)


# ===================================== contrastive hard-negative mining

def q_hard_negatives(sf_dir: str, n_anchors: int = 10, k: int = 3):
    """Hard-negative mining for contrastive training: for each anchor
    (vec_id < 10), the top-3 most-similar corpus vectors with a
    DIFFERENT label — the examples a contrastive loss learns most from.
    Same broadcast-queries + per-batch-matmul + per-batch top-k prune
    shape as knn_join, plus the label-inequality mask applied inside the
    batch kernel (no post-hoc filter that could break top-k exactness)."""
    import ray

    from odinson_ray.stages.link import get_broadcast

    rd = _rd()

    qdf = (
        rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                        columns=["vec_id", "embedding", "label"])
        .map_batches(lambda t: t.filter(pc.less(t["vec_id"], n_anchors)),
                     batch_format="pyarrow")
        .to_pandas()
        .sort_values("vec_id")
    )
    Q = np.array([np.asarray(v, dtype=np.float64) for v in qdf.embedding])
    Q = Q / np.linalg.norm(Q, axis=1, keepdims=True)
    qids = qdf.vec_id.to_numpy(dtype=np.int64)
    qlabels = qdf.label.to_numpy(dtype=np.int64)
    qref = ray.put((qids, qlabels, Q))

    def score(t: pa.Table) -> pa.Table:
        qids_, qlabels_, Q_ = get_broadcast(qref)
        mat = np.array(t["embedding"].to_pylist(), dtype=np.float64)
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        S = np.round((mat / np.where(norms == 0, 1.0, norms)) @ Q_.T, 6)
        vids = np.asarray(t["vec_id"].to_pylist(), dtype=np.int64)
        labels = np.asarray(t["label"].to_pylist(), dtype=np.int64)
        out_q, out_v, out_s = [], [], []
        for j, qid in enumerate(qids_):
            ok = labels != qlabels_[j]
            if not ok.any():
                continue
            cand_v, cand_s = vids[ok], S[ok, j]
            order = np.lexsort((cand_v, -cand_s))[:k]
            out_q.extend([qid] * len(order))
            out_v.extend(cand_v[order])
            out_s.extend(cand_s[order])
        return pa.table({
            "anchor_id": pa.array(np.asarray(out_q, dtype=np.int64)),
            "neg_id": pa.array(np.asarray(out_v, dtype=np.int64)),
            "score": pa.array(np.asarray(out_s, dtype=np.float64)),
        })

    # final per-anchor top-k via grouped_topk: per-batch combiner + coarse
    # segmented selection (tiny-group rule, r4 sweep — one group per
    # anchor would dispatch one task per vector)
    from odinson_ray.stages.shuffle import grouped_topk

    scored = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding", "label"],
    ).map_batches(score, batch_format="pyarrow")
    return grouped_topk(scored, by="anchor_id",
                        cols=["score", "neg_id"],
                        descending=[True, False], k=k)


ORACLE_HARD_NEGATIVES = """
WITH anchors AS (
  SELECT vec_id AS anchor_id, label AS alabel, embedding AS aemb
  FROM embeddings WHERE vec_id < 10
),
scored AS (
  SELECT a.anchor_id, e.vec_id AS neg_id,
         round(list_cosine_similarity(CAST(e.embedding AS DOUBLE[]),
                                      CAST(a.aemb AS DOUBLE[])), 6) AS score
  FROM anchors a JOIN embeddings e ON e.label <> a.alabel
),
ranked AS (
  SELECT *, row_number() OVER (PARTITION BY anchor_id
                               ORDER BY score DESC, neg_id) AS rn
  FROM scored
)
SELECT anchor_id, neg_id, score FROM ranked WHERE rn <= 3
"""


def _register_batch_p(queries: dict, oracles: dict) -> None:
    queries["hard_negatives"] = q_hard_negatives
    oracles["hard_negatives"] = ORACLE_HARD_NEGATIVES


# ===================================== inverted posting lists

def q_inverted_postings(sf_dir: str, k: int = 10):
    """The index-build as a queryable artifact (the reference's core
    identity is a Lucene postings writer —
    core/src/main/scala/ai/lum/odinson/lucene/index/OdinsonIndexWriter.scala):
    per token, its document frequency and the first 10 doc ids of its
    posting list. grouped_topk bounds every token to k rows before the
    string fold; the fold is one coarse exchange on the token
    (user_top3_types' shape), so a stopword's full posting list never
    lands in one task."""
    from odinson_ray.stages.shuffle import grouped_topk, hash_join

    rd = _rd()

    def tok_partial(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(t["text"].combine_chunks(), r"\s+")
        flat = pc.list_flatten(toks)
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        did = t["doc_id"].to_numpy(zero_copy_only=False)
        base = pa.table({
            "doc_id": pa.array(np.repeat(did, lens), pa.int64()),
            "w": flat,
        }).filter(pc.not_equal(flat, ""))
        return partial_aggregate(base, ["doc_id", "w"], [])

    tok = (rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
           .map_batches(tok_partial, batch_format="pyarrow")).materialize()

    df = combine_aggregate(tok, "w", [("df", None, "count_all")])

    topk = grouped_topk(tok, by="w", cols=["doc_id"], descending=[False],
                        k=k)

    def concat_partition(g: pa.Table) -> pa.Table:
        w = np.asarray(g["w"].to_pylist(), dtype=object)
        d = g["doc_id"].to_numpy(zero_copy_only=False)
        starts = np.concatenate(
            ([0], np.flatnonzero(w[1:] != w[:-1]) + 1, [len(w)]))
        toks, posts = [], []
        for s, e in zip(starts[:-1], starts[1:]):
            toks.append(w[s])
            posts.append(",".join(str(x) for x in d[s:e]))
        return pa.table({"w": pa.array(toks, pa.string()),
                         "postings": pa.array(posts, pa.string())})

    posts = coarse_groups(topk, ["w"], concat_partition, ["doc_id"])

    out = hash_join(df, posts, on="w",
                    left_schema=pa.schema([("w", pa.string()),
                                           ("df", pa.int64())]),
                    right_schema=pa.schema([("w", pa.string()),
                                            ("postings", pa.string())]))
    return out.map_batches(
        lambda t: pa.table({"token": t["w"], "df": t["df"],
                            "postings": t["postings"]}),
        batch_format="pyarrow")


ORACLE_INVERTED_POSTINGS = r"""
WITH tok AS (
  SELECT DISTINCT doc_id, w FROM (
    SELECT doc_id, unnest(string_split_regex(text, '\s+')) AS w
    FROM documents) WHERE w != ''
),
df AS (SELECT w, CAST(count(*) AS BIGINT) AS df FROM tok GROUP BY w),
ranked AS (
  SELECT w, doc_id,
         row_number() OVER (PARTITION BY w ORDER BY doc_id) AS rn
  FROM tok
),
posts AS (
  SELECT w, string_agg(CAST(doc_id AS VARCHAR), ',' ORDER BY doc_id)
           AS postings
  FROM ranked WHERE rn <= 10 GROUP BY w
)
SELECT df.w AS token, df.df, posts.postings
FROM df JOIN posts ON posts.w = df.w
"""


def _register_batch_q(queries: dict, oracles: dict) -> None:
    queries["inverted_postings"] = q_inverted_postings
    oracles["inverted_postings"] = ORACLE_INVERTED_POSTINGS


# ===================================== zone-map data skipping

_ZM_LO_US = 1_704_844_800_000_000  # 2024-01-10T00:00:00Z
_ZM_HI_US = 1_705_104_000_000_000  # 2024-01-13T00:00:00Z


def q_zonemap_range_agg(sf_dir: str):
    """Range aggregate over a zone-mapped layout: events are laid out
    once in natural (roughly time-sorted) order with per-file min/max
    footers in the manifest (stages/layout.zonemap_layout); the 3-day
    range scan opens ONLY intersecting files, then applies the exact
    residual filter. Per-type count + integer-cent value totals."""
    from odinson_ray.stages.layout import zonemap_layout, zonemap_scan

    root = zonemap_layout(f"{sf_dir}/events.parquet", "ts",
                          ["ts", "event_type", "value"])
    ds, _n_read, _n_total = zonemap_scan(root, _ZM_LO_US, _ZM_HI_US)
    if ds is None:
        return pa.table({"event_type": pa.array([], pa.string()),
                         "n": pa.array([], pa.int64()),
                         "total_ct": pa.array([], pa.int64())})

    def residual(t: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(t["ts"], pa.timestamp("us")), pa.int64())
        t = t.filter(pc.and_(pc.greater_equal(us, pa.scalar(_ZM_LO_US)),
                             pc.less(us, pa.scalar(_ZM_HI_US))))
        cents = np.floor(
            t["value"].to_numpy(zero_copy_only=False) * 100 + 0.5
        ).astype(np.int64)
        return pa.table({"event_type": t["event_type"],
                         "ct": pa.array(cents, pa.int64())})

    return combine_aggregate(ds.map_batches(residual, batch_format="pyarrow"),
                             "event_type",
                             [("n", None, "count_all"),
                              ("total_ct", "ct", "sum")])


ORACLE_ZONEMAP_RANGE_AGG = """
SELECT event_type, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS BIGINT)
         AS total_ct
FROM events
WHERE ts >= TIMESTAMP '2024-01-10 00:00:00'
  AND ts <  TIMESTAMP '2024-01-13 00:00:00'
GROUP BY event_type
"""


def _register_batch_r(queries: dict, oracles: dict) -> None:
    queries["zonemap_range_agg"] = q_zonemap_range_agg
    oracles["zonemap_range_agg"] = ORACLE_ZONEMAP_RANGE_AGG


# ===================================== length-bucketed training batches

_LB_BUDGET = 2048  # tokens per training batch


def q_length_batches(sf_dir: str, n_buckets: int = 256):
    """Token-budget batch assignment for training: docs ordered globally
    by (n_tokens ASC, doc_id ASC) — length bucketing minimizes padding —
    and batch_id = floor(exclusive_prefix_sum(n_tokens) / budget).

    The global prefix sum reuses _enumerated_orders' shape: sampled
    range boundaries (mergeable quantile sketch), a per-batch bincount
    combiner whose per-bucket TOKEN sums prefix into offsets on the
    driver (O(n_buckets), parallelism-sized), then one groupby(bucket)
    pass sorts within each bucket and adds the broadcast offset. Batch
    ids are globally consistent without any global sort landing
    anywhere."""
    import ray
    from ray.data.aggregate import Sum

    from odinson_ray.stages.link import get_broadcast
    from odinson_ray.stages.sketch import approx_quantile_values

    rd = _rd()

    def tc(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t["text"], " ")
        return pa.table({
            "doc_id": t["doc_id"],
            "n_tokens": pc.cast(pc.list_value_length(toks), pa.int64()),
        })

    docs = (rd.read_parquet(f"{sf_dir}/documents.parquet",
                            columns=["doc_id", "text"])
            .map_batches(tc, batch_format="pyarrow")).materialize()

    boundaries = np.unique(approx_quantile_values(
        docs, "n_tokens", np.arange(1, n_buckets) / n_buckets))

    def bucket_of(v: np.ndarray) -> np.ndarray:
        return np.searchsorted(boundaries, v, side="left")

    def sum_partial(t: pa.Table) -> pa.Table:
        n = t["n_tokens"].to_numpy(zero_copy_only=False)
        b = bucket_of(n)
        s = np.bincount(b, weights=n, minlength=n_buckets).astype(np.int64)
        nz = np.nonzero(s)[0]
        return pa.table({"bucket": pa.array(nz, pa.int64()),
                         "pt": pa.array(s[nz], pa.int64())})

    sums = {r["bucket"]: r["s"] for r in
            docs.map_batches(sum_partial, batch_format="pyarrow")
            .groupby("bucket").aggregate(Sum("pt", alias_name="s"))
            .take_all()}
    offsets, acc = {}, 0
    for b in range(n_buckets):  # ascending length order
        offsets[b] = acc
        acc += sums.get(b, 0)
    ref = ray.put(offsets)

    def tag(t: pa.Table) -> pa.Table:
        b = bucket_of(t["n_tokens"].to_numpy(zero_copy_only=False))
        return t.append_column("bucket", pa.array(b, pa.int64()))

    def assign(g: pa.Table) -> pa.Table:
        off = get_broadcast(ref)[g["bucket"][0].as_py()]
        n = g["n_tokens"].to_numpy(zero_copy_only=False)
        d = g["doc_id"].to_numpy(zero_copy_only=False)
        o = np.lexsort((d, n))
        pfx = np.empty(len(o), dtype=np.int64)
        cs = np.cumsum(n[o])
        pfx[o] = off + cs - n[o]  # exclusive prefix in global order
        return pa.table({
            "doc_id": g["doc_id"],
            "n_tokens": g["n_tokens"],
            "batch_id": pa.array(pfx // _LB_BUDGET, pa.int64()),
        })

    return (docs.map_batches(tag, batch_format="pyarrow")
            .groupby("bucket").map_groups(assign, batch_format="pyarrow"))


ORACLE_LENGTH_BATCHES = """
WITH tc AS (
  SELECT doc_id, CAST(len(string_split(text, ' ')) AS BIGINT) AS n_tokens
  FROM documents
),
s AS (
  SELECT doc_id, n_tokens,
         COALESCE(sum(n_tokens) OVER (ORDER BY n_tokens, doc_id
                   ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
           AS pfx
  FROM tc
)
SELECT doc_id, n_tokens, CAST(pfx // 2048 AS BIGINT) AS batch_id FROM s
"""


def _register_batch_s(queries: dict, oracles: dict) -> None:
    queries["length_batches"] = q_length_batches
    oracles["length_batches"] = ORACLE_LENGTH_BATCHES


# ===================================== daily resample + forward fill

_DAY_US2 = 86_400 * 1_000_000
_FF_SHIFT = 1 << 22  # composite (user, day-index) int64 key


def q_daily_ffill(sf_dir: str):
    """Time-series resampling: each user's value on a DAILY grid from
    their first to their last active day, forward-filling days with no
    events from the most recent prior day (feature-pipeline gap fill).

    Shape: (1) per-(user, day) LAST value via grouped_topk k=1 on a
    composite int64 key (<=1 row per key per batch crosses the shuffle);
    (2) per-user [d0, d1] bounds from a min/max combiner; (3) the grid
    expands bounds rows by days-active (bounded by time range, never by
    event count); (4) grid LEFT JOIN daily-last on the composite key;
    (5) forward fill runs segmented-vectorized inside one coarse
    exchange on user — the first day of every user has an observation
    by construction, so a global maximum.accumulate over last-valid
    indices cannot leak across users."""
    from ray.data.aggregate import Max, Min

    from odinson_ray.stages.shuffle import grouped_topk, hash_join

    rd = _rd()

    def keyed(t: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(t["ts"], pa.timestamp("us")), pa.int64())
        day = pc.cast(pc.divide(us, _DAY_US2), pa.int64())
        k = pc.add(pc.multiply(t["user_id"], _FF_SHIFT), day)
        return pa.table({"k": k, "user_id": t["user_id"], "day": day,
                         "ts_us": us, "event_id": t["event_id"],
                         "value": t["value"]})

    ev = (rd.read_parquet(f"{sf_dir}/events.parquet",
                          columns=["user_id", "ts", "event_id", "value"])
          .map_batches(keyed, batch_format="pyarrow"))

    daily = grouped_topk(ev, by="k", cols=["ts_us", "event_id"],
                         descending=[True, True], k=1).materialize()

    bounds = (daily.groupby("user_id")
              .aggregate(Min("day", alias_name="d0"),
                         Max("day", alias_name="d1")))

    def grid(t: pa.Table) -> pa.Table:
        u = t["user_id"].to_numpy(zero_copy_only=False)
        d0 = t["d0"].to_numpy(zero_copy_only=False)
        d1 = t["d1"].to_numpy(zero_copy_only=False)
        reps = (d1 - d0 + 1).astype(np.int64)
        idx = np.repeat(np.arange(len(u)), reps)
        off = np.arange(len(idx)) - np.repeat(np.cumsum(reps) - reps, reps)
        day = d0[idx] + off
        uu = u[idx]
        return pa.table({
            "k": pa.array(uu * _FF_SHIFT + day, pa.int64()),
            "user_id": pa.array(uu, pa.int64()),
            "day": pa.array(day, pa.int64()),
        })

    g = bounds.map_batches(grid, batch_format="pyarrow")
    joined = hash_join(
        g,
        daily.map_batches(lambda t: t.select(["k", "value"]),
                          batch_format="pyarrow"),
        on="k", how="left_outer",
        left_schema=pa.schema([("k", pa.int64()), ("user_id", pa.int64()),
                               ("day", pa.int64())]),
        right_schema=pa.schema([("k", pa.int64()),
                                ("value", pa.float64())]))

    def ffill(t: pa.Table) -> pa.Table:
        v = t["value"].to_numpy(zero_copy_only=False)
        valid = np.asarray(pc.is_valid(t["value"]))
        idx = np.where(valid, np.arange(len(v)), -1)
        np.maximum.accumulate(idx, out=idx)
        filled = v[idx]
        return pa.table({
            "user_id": t["user_id"],
            "day_us": pa.array(
                t["day"].to_numpy(zero_copy_only=False) * _DAY_US2,
                pa.int64()),
            "ffill_value": pa.array(filled, pa.float64()),
        })

    return coarse_groups(joined, ["user_id"], ffill, ["day"])


ORACLE_DAILY_FFILL = """
WITH last AS (
  SELECT user_id, day, value FROM (
    SELECT user_id, date_trunc('day', ts) AS day, value,
           row_number() OVER (PARTITION BY user_id, date_trunc('day', ts)
                              ORDER BY ts DESC, event_id DESC) AS rn
    FROM events) WHERE rn = 1
),
bounds AS (SELECT user_id, min(day) AS d0, max(day) AS d1
           FROM last GROUP BY user_id),
grid AS (
  SELECT user_id, unnest(generate_series(d0, d1, INTERVAL 1 DAY)) AS day
  FROM bounds
),
filled AS (
  SELECT g.user_id, g.day,
         last_value(l.value IGNORE NULLS)
           OVER (PARTITION BY g.user_id ORDER BY g.day
                 ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS v
  FROM grid g LEFT JOIN last l
    ON l.user_id = g.user_id AND l.day = g.day
)
SELECT user_id, CAST(epoch_us(day) AS BIGINT) AS day_us,
       v AS ffill_value
FROM filled
"""


def _register_batch_t(queries: dict, oracles: dict) -> None:
    queries["daily_ffill"] = q_daily_ffill
    oracles["daily_ffill"] = ORACLE_DAILY_FFILL


# ===================================== PMI-weighted KG edges

def q_kg_pmi_edges(sf_dir: str):
    """Pointwise mutual information weighting of the undirected KG
    co-occurrence graph: c_ab = triple-count mass on the pair, c_a =
    mass touching the entity, N = total mass; pmi = ln(c_ab * N /
    (c_a * c_b)). The edge-weighting step between raw triple extraction
    and graph analytics (its output is what pagerank/communities SHOULD
    run on at web scale, where raw counts overweight stopword-like
    entities). Shape: one pair aggregate, one exploded marginal
    aggregate, two hash joins; N is a driver scalar."""
    from odinson_ray.stages.shuffle import hash_join

    from .kg import triples_dataset

    trips = triples_dataset(sf_dir).materialize()  # pairs + marginals + N

    def to_pairs(t: pa.Table) -> pa.Table:
        lo = pc.min_element_wise(t["subj_canon"], t["obj_canon"])
        hi = pc.max_element_wise(t["subj_canon"], t["obj_canon"])
        e = pa.table({"lo": lo, "hi": hi, "n": t["n"]})
        e = e.filter(pc.not_equal(e["lo"], e["hi"]))
        return e

    pairs = combine_aggregate(
        trips.map_batches(to_pairs, batch_format="pyarrow"),
        ["lo", "hi"], [("c_ab", "n", "sum")])

    def to_marginals(t: pa.Table) -> pa.Table:
        t = t.filter(pc.not_equal(t["subj_canon"], t["obj_canon"]))
        v = pa.concat_arrays([t["subj_canon"].combine_chunks(),
                              t["obj_canon"].combine_chunks()])
        n = pa.concat_arrays([pc.cast(t["n"], pa.int64()).combine_chunks()] * 2)
        return pa.table({"v": v, "n": n})

    marg = combine_aggregate(
        trips.map_batches(to_marginals, batch_format="pyarrow"),
        "v", [("c_v", "n", "sum")]).materialize()
    total = int(marg.sum("c_v") or 0)

    str_t, i64 = pa.string(), pa.int64()
    j1 = hash_join(pairs, marg, on="lo", right_on="v",
                   left_schema=pa.schema([("lo", str_t), ("hi", str_t),
                                          ("c_ab", i64)]),
                   right_schema=pa.schema([("v", str_t), ("c_v", i64)]))
    j1 = j1.map_batches(
        lambda t: pa.table({"lo": t["lo"], "hi": t["hi"], "c_ab": t["c_ab"],
                            "c_lo": t["c_v"]}),
        batch_format="pyarrow")
    j2 = hash_join(j1, marg, on="hi", right_on="v",
                   left_schema=pa.schema([("lo", str_t), ("hi", str_t),
                                          ("c_ab", i64), ("c_lo", i64)]),
                   right_schema=pa.schema([("v", str_t), ("c_v", i64)]))

    def finish(t: pa.Table) -> pa.Table:
        c_ab = t["c_ab"].to_numpy(zero_copy_only=False).astype(np.float64)
        c_lo = t["c_lo"].to_numpy(zero_copy_only=False).astype(np.float64)
        c_hi = t["c_v"].to_numpy(zero_copy_only=False).astype(np.float64)
        pmi = np.round(np.log(c_ab * float(total) / (c_lo * c_hi)), 6)
        return pa.table({"lo": t["lo"], "hi": t["hi"],
                         "c_ab": t["c_ab"],
                         "pmi": pa.array(pmi, pa.float64())})

    return j2.map_batches(finish, batch_format="pyarrow")


def _pmi_oracle(body: str) -> str:
    return f"""
WITH trip AS ({body}),
tt AS (SELECT least(subj_canon, obj_canon) AS lo,
              greatest(subj_canon, obj_canon) AS hi, n
       FROM trip WHERE subj_canon != obj_canon),
pairs AS (SELECT lo, hi, CAST(sum(n) AS BIGINT) AS c_ab
          FROM tt GROUP BY lo, hi),
marg AS (SELECT v, CAST(sum(n) AS BIGINT) AS c_v FROM (
  SELECT lo AS v, n FROM tt UNION ALL SELECT hi, n FROM tt) GROUP BY v),
tot AS (SELECT CAST(sum(n) * 2 AS DOUBLE) AS n FROM tt)
SELECT p.lo, p.hi, p.c_ab,
       round(ln(p.c_ab * (SELECT n FROM tot) / (ml.c_v * mh.c_v)), 6)
         AS pmi
FROM pairs p JOIN marg ml ON ml.v = p.lo
             JOIN marg mh ON mh.v = p.hi
"""


def _register_batch_u(queries: dict, oracles: dict, kg_body: str) -> None:
    queries["kg_pmi_edges"] = q_kg_pmi_edges
    oracles["kg_pmi_edges"] = _pmi_oracle(kg_body)


# ===================================== KG adjacency store (materialize)

def q_kg_adjacency_topdeg(sf_dir: str, k: int = 10):
    """The north rule's 'graph materialize' clause end to end: extract
    triples, write them ONCE as a subj_canon-bucketed parquet adjacency
    store (stages/layout.bucket_layout_ds — manifest, atomic publish),
    then compute per-entity out-degree (distinct (pred, obj)) with ZERO
    runtime shuffle — one task per bucket, keys complete within their
    bucket — and return the top-10 entities (degree DESC, entity ASC)."""
    import os

    from odinson_ray.stages.layout import bucket_layout_ds, bucketed_aggregate
    from odinson_ray.stages.shuffle import global_topk

    from .kg import triples_dataset

    src = f"{sf_dir}/documents.parquet"
    st = os.stat(src)
    tag = f"kgadj:{os.path.abspath(src)}:{st.st_size}:{st.st_mtime_ns}"
    trips = triples_dataset(sf_dir).map_batches(
        lambda t: t.select(["subj_canon", "pred", "obj_canon"]),
        batch_format="pyarrow")
    root = bucket_layout_ds(trips, key="subj_canon", n_buckets=16, tag=tag)

    schema = pa.schema([("subj_canon", pa.string()), ("pred", pa.string()),
                        ("obj_canon", pa.string())])

    def degree(t: pa.Table) -> pa.Table:
        d = partial_aggregate(t, ["subj_canon", "pred", "obj_canon"], [])
        return partial_aggregate(d, ["subj_canon"],
                                 [("out_degree", None, "count_all")]
                                 ).rename_columns(["entity", "out_degree"])

    degs = bucketed_aggregate(root, schema, degree)
    return global_topk(degs, ["out_degree", "entity"], [True, False], k)


def _adj_oracle(body: str) -> str:
    return f"""
WITH trip AS ({body}),
d AS (SELECT DISTINCT subj_canon, pred, obj_canon FROM trip),
deg AS (SELECT subj_canon AS entity, CAST(count(*) AS BIGINT)
          AS out_degree
        FROM d GROUP BY subj_canon)
SELECT entity, out_degree FROM deg
ORDER BY out_degree DESC, entity ASC LIMIT 10
"""


def _register_batch_v(queries: dict, oracles: dict, kg_body: str) -> None:
    queries["kg_adjacency_topdeg"] = q_kg_adjacency_topdeg
    oracles["kg_adjacency_topdeg"] = _adj_oracle(kg_body)


# ===================================== T5-style span corruption

_SC_RATE = 15  # percent of tokens masked


def q_span_corruption(sf_dir: str):
    """Self-supervised span-corruption pair generation (T5/UL2 style):
    deterministically mask ~15% of tokens, collapse each masked RUN to a
    sentinel <Xk> in the input, and emit the masked spans prefixed by
    their sentinels as the target. Pure per-doc map — embarrassingly
    parallel, zero shuffle; reproducible at any parallelism/retry
    because the mask is a pure function of (doc_id, position). The
    per-token md5 is the oracle-shared-hash trade (see
    q_kg_negative_samples); run/sentinel assembly is numpy over the
    mask array."""
    import hashlib

    rd = _rd()

    def corrupt(t: pa.Table) -> pa.Table:
        dids, inputs, targets = [], [], []
        for did, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            toks = txt.split(" ")
            n = len(toks)
            msk = np.fromiter(
                (int(hashlib.md5(f"{did}|{p}".encode()).hexdigest()[:8], 16)
                 % 100 < _SC_RATE for p in range(1, n + 1)),
                dtype=bool, count=n)
            prev = np.concatenate(([False], msk[:-1]))
            run_start = msk & ~prev
            sid = np.cumsum(run_start) - 1  # sentinel id at each position
            inp, tgt = [], []
            for i in range(n):
                if run_start[i]:
                    inp.append(f"<X{sid[i]}>")
                    tgt.append(f"<X{sid[i]}> {toks[i]}")
                elif msk[i]:
                    tgt.append(toks[i])
                else:
                    inp.append(toks[i])
            dids.append(did)
            inputs.append(" ".join(inp))
            targets.append(" ".join(tgt))
        return pa.table({
            "doc_id": pa.array(dids, pa.int64()),
            "input": pa.array(inputs, pa.string()),
            "target": pa.array(targets, pa.string()),
        })

    return (rd.read_parquet(f"{sf_dir}/documents.parquet",
                            columns=["doc_id", "text"])
            .map_batches(corrupt, batch_format="pyarrow"))


ORACLE_SPAN_CORRUPTION = r"""
WITH toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok,
         unnest(generate_series(1, len(string_split(text, ' ')))) AS p
  FROM documents
),
m AS (
  SELECT doc_id, tok, p,
         CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR) || '|'
                                  || CAST(p AS VARCHAR)), 1, 8))
              AS UBIGINT) % 100 < 15 AS msk
  FROM toks
),
rs AS (
  SELECT *, msk AND NOT COALESCE(
      lag(msk) OVER (PARTITION BY doc_id ORDER BY p), FALSE) AS run_start
  FROM m
),
r AS (
  SELECT *, sum(CASE WHEN run_start THEN 1 ELSE 0 END)
      OVER (PARTITION BY doc_id ORDER BY p
            ROWS UNBOUNDED PRECEDING) - 1 AS sid
  FROM rs
),
inp AS (
  SELECT doc_id,
         string_agg(CASE WHEN NOT msk THEN tok
                         ELSE '<X' || CAST(sid AS VARCHAR) || '>' END,
                    ' ' ORDER BY p) AS input
  FROM r WHERE (NOT msk) OR run_start GROUP BY doc_id
),
tgt AS (
  SELECT doc_id,
         string_agg(CASE WHEN run_start
                         THEN '<X' || CAST(sid AS VARCHAR) || '> ' || tok
                         ELSE tok END,
                    ' ' ORDER BY p) AS target
  FROM r WHERE msk GROUP BY doc_id
)
SELECT i.doc_id, i.input, COALESCE(t.target, '') AS target
FROM inp i LEFT JOIN tgt t ON t.doc_id = i.doc_id
"""


def _register_batch_w(queries: dict, oracles: dict) -> None:
    queries["span_corruption"] = q_span_corruption
    oracles["span_corruption"] = ORACLE_SPAN_CORRUPTION


# ===================================== distribution drift (PSI)

_PSI_SPLIT_US = 1_705_363_200_000_000  # 2024-01-16T00:00:00Z
_PSI_BINS = 10
_PSI_WIDTH = 50.0  # value range [0, 500)


def q_value_drift_psi(sf_dir: str):
    """Population Stability Index per event_type between the reference
    period (first half of January) and the current period — the standard
    training-serving drift monitor. One pass: per-batch (type, period,
    bin) count combiner -> one groupby -> per-type vectorized PSI with
    +1 Laplace smoothing (defined even when a bin empties). Bins are
    FIXED-width over the column's documented range, so no quantile pass
    and no driver artifact."""
    rd = _rd()

    def partial(t: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(t["ts"], pa.timestamp("us")), pa.int64())
        period = pc.if_else(pc.less(us, pa.scalar(_PSI_SPLIT_US)),
                            pa.scalar("ref"), pa.scalar("cur"))
        v = t["value"].to_numpy(zero_copy_only=False)
        b = np.clip((v / _PSI_WIDTH).astype(np.int64), 0, _PSI_BINS - 1)
        return pa.table({"event_type": t["event_type"], "period": period,
                         "bin": pa.array(b, pa.int64())})

    counts = combine_aggregate(
        rd.read_parquet(f"{sf_dir}/events.parquet",
                        columns=["event_type", "ts", "value"])
        .map_batches(partial, batch_format="pyarrow"),
        ["event_type", "period", "bin"], [("c", None, "count_all")])

    def psi(g: pa.Table) -> pa.Table:
        per = np.asarray(g["period"].to_pylist(), dtype=object)
        b = g["bin"].to_numpy(zero_copy_only=False)
        c = g["c"].to_numpy(zero_copy_only=False)
        ref = np.ones(_PSI_BINS, dtype=np.float64)  # +1 smoothing
        cur = np.ones(_PSI_BINS, dtype=np.float64)
        ref[b[per == "ref"]] += c[per == "ref"]
        cur[b[per == "cur"]] += c[per == "cur"]
        p = ref / ref.sum()
        q = cur / cur.sum()
        val = float(np.sum((q - p) * np.log(q / p)))
        return pa.table({
            "event_type": pa.array([g["event_type"][0].as_py()],
                                   pa.string()),
            "psi": pa.array([round(val, 6)], pa.float64()),
        })

    return counts.groupby("event_type").map_groups(psi,
                                                   batch_format="pyarrow")


ORACLE_VALUE_DRIFT_PSI = """
WITH binned AS (
  SELECT event_type,
         CASE WHEN ts < TIMESTAMP '2024-01-16 00:00:00'
              THEN 'ref' ELSE 'cur' END AS period,
         least(greatest(CAST(floor(value / 50.0) AS BIGINT), 0), 9) AS bin
  FROM events
),
c AS (
  SELECT event_type, period, bin, count(*) AS c
  FROM binned GROUP BY 1, 2, 3
),
grid AS (
  SELECT DISTINCT b.event_type, p.period, g.bin
  FROM (SELECT DISTINCT event_type FROM binned) b,
       (SELECT unnest(['ref', 'cur']) AS period) p,
       (SELECT unnest(generate_series(0, 9)) AS bin) g
),
sm AS (
  SELECT g.event_type, g.period, g.bin,
         COALESCE(c.c, 0) + 1.0 AS c
  FROM grid g LEFT JOIN c
    ON c.event_type = g.event_type AND c.period = g.period
   AND c.bin = g.bin
),
norm AS (
  SELECT event_type, period, bin,
         c / sum(c) OVER (PARTITION BY event_type, period) AS p
  FROM sm
)
SELECT r.event_type,
       round(sum((q.p - r.p) * ln(q.p / r.p)), 6) AS psi
FROM norm r JOIN norm q
  ON q.event_type = r.event_type AND q.bin = r.bin
WHERE r.period = 'ref' AND q.period = 'cur'
GROUP BY r.event_type
"""


def _register_batch_x(queries: dict, oracles: dict) -> None:
    queries["value_drift_psi"] = q_value_drift_psi
    oracles["value_drift_psi"] = ORACLE_VALUE_DRIFT_PSI


# ===================================== KG -> QA instruction pairs

def q_kg_qa_pairs(sf_dir: str):
    """Instruction-tuning pair synthesis from the graph: one templated
    question per canonical triple, the true object as the answer, and
    up to two HARD distractors from the deterministic negative sampler
    (q_kg_negative_samples) — the KG-to-training-data composition a
    QA-data pipeline runs after construction. One extra hash join over
    the negative-sample stream; everything upstream is shared."""
    from ray.data.aggregate import Min

    from odinson_ray.stages.shuffle import hash_join

    from .kg import triples_dataset

    SEP = "\x1f"
    str_t = pa.string()

    def to_pos(t: pa.Table) -> pa.Table:
        return pa.table({"s": t["subj_canon"], "r": t["pred"],
                         "o": t["obj_canon"]})

    pos = combine_aggregate(
        triples_dataset(sf_dir).map_batches(to_pos, batch_format="pyarrow"),
        ["s", "r", "o"], [])

    negs = q_kg_negative_samples(sf_dir)

    def neg_wide_partial(t: pa.Table) -> pa.Table:
        # key the <=2-row-per-triple negative stream, packing attempt
        # before neg_obj so attempt order is lexicographic (attempts are
        # the single digits 1/2 by construction); the pivot is then PURE
        # aggregates — Min = first-attempt row, Max = last — instead of
        # one map_groups task per triple (tiny-group rule, r4 sweep)
        tk = pc.binary_join_element_wise(
            t["subj_canon"], t["pred"], t["obj_canon"], SEP)
        packed = pc.binary_join_element_wise(
            pc.cast(t["attempt"], str_t), t["neg_obj"], SEP)
        return pa.table({"tk": tk, "packed": packed})

    keyed = negs.map_batches(neg_wide_partial, batch_format="pyarrow")

    from ray.data.aggregate import Max as RMax

    def unpack_wide(t: pa.Table) -> pa.Table:
        first = pc.replace_substring_regex(t["_min"], r"^\d+\x1f", "")
        last = pc.replace_substring_regex(t["_max"], r"^\d+\x1f", "")
        # a single-attempt triple pivots to (d1, ""); min==max marks it
        d2 = pc.if_else(pc.equal(t["_min"], t["_max"]),
                        pa.array([""] * t.num_rows, str_t), last)
        return pa.table({"tk": t["tk"], "d1": first, "d2": d2})

    wide = (keyed.groupby("tk")
            .aggregate(Min("packed", alias_name="_min"),
                       RMax("packed", alias_name="_max"))
            .map_batches(unpack_wide, batch_format="pyarrow"))

    def keyed_pos(t: pa.Table) -> pa.Table:
        return pa.table({
            "tk": pc.binary_join_element_wise(t["s"], t["r"], t["o"], SEP),
            "s": t["s"], "r": t["r"], "o": t["o"],
        })

    joined = hash_join(
        pos.map_batches(keyed_pos, batch_format="pyarrow"), wide,
        on="tk", how="left_outer",
        left_schema=pa.schema([("tk", str_t), ("s", str_t), ("r", str_t),
                               ("o", str_t)]),
        right_schema=pa.schema([("tk", str_t), ("d1", str_t),
                                ("d2", str_t)]))

    def finish(t: pa.Table) -> pa.Table:
        q = pc.binary_join_element_wise(
            pa.array(["what does"] * t.num_rows, str_t),
            t["s"], t["r"], pa.array(["?"] * t.num_rows, str_t), " ")
        return pa.table({
            "question": q,
            "answer": t["o"],
            "distractor1": pc.fill_null(t["d1"], ""),
            "distractor2": pc.fill_null(t["d2"], ""),
        })

    return joined.map_batches(finish, batch_format="pyarrow")


def _qa_oracle(body: str) -> str:
    neg = _neg_samples_oracle(body).strip()
    return f"""
WITH negs AS ({neg}),
trip AS ({body}),
pos AS (SELECT DISTINCT subj_canon AS s, pred AS r, obj_canon AS o
        FROM trip),
ranked AS (
  SELECT subj_canon, pred, obj_canon, neg_obj,
         row_number() OVER (PARTITION BY subj_canon, pred, obj_canon
                            ORDER BY attempt) AS rn
  FROM negs
),
wide AS (
  SELECT subj_canon, pred, obj_canon,
         COALESCE(max(CASE WHEN rn = 1 THEN neg_obj END), '') AS d1,
         COALESCE(max(CASE WHEN rn = 2 THEN neg_obj END), '') AS d2
  FROM ranked GROUP BY 1, 2, 3
)
SELECT 'what does ' || p.s || ' ' || p.r || ' ?' AS question,
       p.o AS answer,
       COALESCE(w.d1, '') AS distractor1,
       COALESCE(w.d2, '') AS distractor2
FROM pos p LEFT JOIN wide w
  ON w.subj_canon = p.s AND w.pred = p.r AND w.obj_canon = p.o
"""


def _register_batch_y(queries: dict, oracles: dict, kg_body: str) -> None:
    queries["kg_qa_pairs"] = q_kg_qa_pairs
    oracles["kg_qa_pairs"] = _qa_oracle(kg_body)


# ===================================== fill-in-the-middle (FIM)

def q_fim_transform(sf_dir: str):
    """Fill-in-the-middle training transform (PSM format): two
    deterministic cut points split each doc into prefix/middle/suffix,
    emitted as '<PRE> prefix <SUF> suffix <MID> middle' — the code-LM
    data prep that teaches infilling. Pure per-doc map, zero shuffle,
    cut points a pure function of doc_id (retry/parallelism-invariant;
    md5 is the oracle-shared hash)."""
    import hashlib

    rd = _rd()

    def fim(t: pa.Table) -> pa.Table:
        dids, outs = [], []
        for did, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            toks = txt.split(" ")
            n = len(toks)
            h1 = int(hashlib.md5(f"{did}|c1".encode()).hexdigest()[:8],
                     16) % (n + 1)
            h2 = int(hashlib.md5(f"{did}|c2".encode()).hexdigest()[:8],
                     16) % (n + 1)
            lo, hi = min(h1, h2), max(h1, h2)
            pre = " ".join(toks[:lo])
            mid = " ".join(toks[lo:hi])
            suf = " ".join(toks[hi:])
            dids.append(did)
            outs.append(f"<PRE> {pre} <SUF> {suf} <MID> {mid}")
        return pa.table({"doc_id": pa.array(dids, pa.int64()),
                         "fim": pa.array(outs, pa.string())})

    return (rd.read_parquet(f"{sf_dir}/documents.parquet",
                            columns=["doc_id", "text"])
            .map_batches(fim, batch_format="pyarrow"))


ORACLE_FIM_TRANSFORM = """
WITH d AS (
  SELECT doc_id, string_split(text, ' ') AS ts,
         len(string_split(text, ' ')) AS n
  FROM documents
),
cuts AS (
  SELECT doc_id, ts, n,
         CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR) || '|c1'), 1, 8))
              AS UBIGINT) % (n + 1) AS h1,
         CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR) || '|c2'), 1, 8))
              AS UBIGINT) % (n + 1) AS h2
  FROM d
),
seg AS (
  SELECT doc_id, ts, n,
         least(h1, h2) AS lo, greatest(h1, h2) AS hi
  FROM cuts
)
SELECT doc_id,
       '<PRE> ' || COALESCE(array_to_string(ts[1:lo], ' '), '')
       || ' <SUF> ' || COALESCE(array_to_string(ts[hi + 1:n], ' '), '')
       || ' <MID> ' || COALESCE(array_to_string(ts[lo + 1:hi], ' '), '')
         AS fim
FROM seg
"""


def _register_batch_z(queries: dict, oracles: dict) -> None:
    queries["fim_transform"] = q_fim_transform
    oracles["fim_transform"] = ORACLE_FIM_TRANSFORM
