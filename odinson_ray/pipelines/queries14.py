"""Round-4 session-5 batch G: boolean OR/NOT over the postings layout
(completing the BooleanQuery algebra next to batch F's AND), a
deterministic Poisson bootstrap (seeded resampling with the weight
ladder mirrored verbatim in SQL), and a federated multi-format union
(parquet + Arrow IPC + CSV of the same table consumed as ONE Dataset).

Registered by ``pipelines/queries.py``; each ``q_*`` takes ``sf_dir``;
oracle column names match exactly.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from odinson_ray.stages.shuffle import combine_aggregate


def _rd():
    from ..sources.io import clean_rd

    return clean_rd


# ===================================== boolean OR / NOT (SHOULD + MUST_NOT)

def q_indexed_bool_query(sf_dir: str, any_of=("scan", "join"),
                         none_of: str = "filter", n_buckets: int = 64):
    """Sentences containing ANY of ``any_of`` and NOT ``none_of`` — the
    BooleanQuery SHOULD + MUST_NOT execution over the postings layout:
    the OR group is a union of its clauses' bucket reads collapsed to
    distinct (doc, sent); the NOT clause is one distributed anti join
    against its posting list. I/O is the clauses' posting lists only."""
    import json
    import os


    from odinson_ray.pipelines.queries7 import _postings_layout
    from odinson_ray.pipelines.queries13 import _token_postings
    from odinson_ray.stages.shuffle import hash_join

    root = _postings_layout(sf_dir, n_buckets)
    with open(os.path.join(root, "_meta.json")) as fh:
        manifest = json.load(fh)
    S, I = pa.string(), pa.int64()

    parts = [_token_postings(root, manifest, tk, n_buckets)
             for tk in dict.fromkeys(any_of)]
    union = parts[0]
    for p in parts[1:]:
        union = union.union(p)
    hits = combine_aggregate(union, ["jk", "doc_id", "sent_id"], [])

    neg = _token_postings(root, manifest, none_of, n_buckets).map_batches(
        lambda t: t.select(["jk"]), batch_format="pyarrow")
    kept = hash_join(
        hits, neg, on="jk", how="anti",
        left_schema=pa.schema([("jk", S), ("doc_id", I), ("sent_id", I)]),
        right_schema=pa.schema([("jk", S)]))
    return kept.map_batches(lambda t: t.select(["doc_id", "sent_id"]),
                            batch_format="pyarrow")


ORACLE_INDEXED_BOOL = """
WITH toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok,
         unnest(generate_series(1, len(string_split(text, ' ')))) AS p
  FROM documents
),
pos AS (SELECT doc_id, tok, (p - 1) // 20 AS sent_id FROM toks)
SELECT DISTINCT a.doc_id, CAST(a.sent_id AS BIGINT) AS sent_id
FROM pos a
WHERE a.tok IN ('scan', 'join')
  AND NOT EXISTS (SELECT 1 FROM pos b
                  WHERE b.doc_id = a.doc_id AND b.sent_id = a.sent_id
                    AND b.tok = 'filter')
"""


# ===================================== deterministic Poisson bootstrap

# P(Poisson(1) <= k) for k = 0..5; weights above 5 clamp to 6. The SAME
# literal thresholds appear in the SQL so both sides walk one ladder.
_POIS_CDF = (0.36787944117144233, 0.7357588823428847, 0.9196986029286058,
             0.9810118431238462, 0.9963401531726563, 0.9994058151824183)


def q_bootstrap_means(sf_dir: str, replicates: int = 4):
    """Poisson(1) bootstrap of the mean event value, per replicate —
    the resampling-without-reshuffling pattern: each row's weight in
    replicate r is a PURE FUNCTION of (event_id, r) (md5-seeded uniform
    through the Poisson CDF ladder), so replicas need no data movement,
    survive retries at any parallelism, and the whole bootstrap is one
    weighted-sum combiner per replicate. The md5-per-(row, replicate)
    is the repo's standard SQL-mirrorable seed (kg_negative_samples,
    doc_split_counts); swap for a vectorized hash when SQL parity isn't
    needed."""
    from ray.data.aggregate import Sum

    rd = _rd()
    cdf = np.array(_POIS_CDF)

    def partial(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_pylist()
        val = t["value"].to_numpy(zero_copy_only=False)
        out_sw, out_swv = [], []
        for r in range(replicates):
            u = np.array([int(hashlib.md5(f"{e}-{r}".encode())
                              .hexdigest()[:15], 16) / 2.0**60
                          for e in eid])
            w = np.searchsorted(cdf, u, side="right")  # Poisson(1) draw
            out_sw.append(w.sum())
            out_swv.append((w * val).sum())
        return pa.table({
            "replicate": pa.array(np.arange(replicates), pa.int64()),
            "pw": pa.array([float(x) for x in out_sw], pa.float64()),
            "pwv": pa.array(out_swv, pa.float64()),
        })

    agg = (rd.read_parquet(f"{sf_dir}/events.parquet",
                           columns=["event_id", "value"])
           .map_batches(partial, batch_format="pyarrow")
           .groupby("replicate")
           .aggregate(Sum("pw", alias_name="w"),
                      Sum("pwv", alias_name="wv")))

    def finish(t: pa.Table) -> pa.Table:
        mean = pc.round(pc.divide(t["wv"], t["w"]), ndigits=6,
                        round_mode="half_towards_infinity")
        return pa.table({"replicate": t["replicate"],
                         "n_resampled": pc.cast(t["w"], pa.int64()),
                         "boot_mean": mean})

    return agg.map_batches(finish, batch_format="pyarrow")


ORACLE_BOOTSTRAP = """
WITH r AS (SELECT unnest(range(4)) AS replicate),
w AS (
  SELECT r.replicate, e.value,
         CAST(('0x' || substring(md5(e.event_id || '-' || r.replicate),
                                 1, 15)) AS UBIGINT)
           / 1152921504606846976.0 AS u
  FROM events e CROSS JOIN r
),
k AS (
  SELECT replicate, value,
         CASE WHEN u < 0.36787944117144233 THEN 0
              WHEN u < 0.7357588823428847 THEN 1
              WHEN u < 0.9196986029286058 THEN 2
              WHEN u < 0.9810118431238462 THEN 3
              WHEN u < 0.9963401531726563 THEN 4
              WHEN u < 0.9994058151824183 THEN 5
              ELSE 6 END AS wgt
  FROM w
)
SELECT replicate, CAST(sum(wgt) AS BIGINT) AS n_resampled,
       round(sum(wgt * value) / sum(wgt), 6) AS boot_mean
FROM k GROUP BY replicate
"""


# ===================================== federated multi-format union

def q_federated_union_counts(sf_dir: str):
    """ONE Dataset over three physical formats of the same table —
    parquet source, the Arrow IPC layout, and a sharded CSV copy —
    unioned lazily and aggregated once (per-lang counts triple the
    base). The format heterogeneity lives entirely in the read layer;
    every downstream stage is format-blind."""
    import json
    import os
    import tempfile

    from ..sources.io import read_ipc, write_ipc_layout
    from ..stages.ann import _atomic_publish
    from ..stages.layout import _CACHE_ROOT, _layout_dir

    rd = _rd()
    src = f"{sf_dir}/documents.parquet"
    cols = ["doc_id", "lang", "n_chars"]

    pq_ds = rd.read_parquet(src, columns=cols)
    ipc_ds = read_ipc(write_ipc_layout(src, cols))

    csv_root = _layout_dir(src, "", 0, ",".join(cols) + ":csv")
    if not os.path.exists(os.path.join(csv_root, "_SUCCESS")):
        os.makedirs(_CACHE_ROOT, exist_ok=True)
        tmp = tempfile.mkdtemp(prefix=os.path.basename(csv_root) + ".tmp.",
                               dir=_CACHE_ROOT)
        rd.read_parquet(src, columns=cols).write_csv(tmp)
        files = sorted(f for f in os.listdir(tmp) if f.endswith(".csv"))
        with open(os.path.join(tmp, "_meta.json"), "w") as fh:
            json.dump({"files": files}, fh)
        csv_root = _atomic_publish(tmp, csv_root)
    with open(os.path.join(csv_root, "_meta.json")) as fh:
        csv_files = [os.path.join(csv_root, f)
                     for f in json.load(fh)["files"]]
    import ray.data as rd_mod

    if csv_files:
        csv_ds = rd_mod.read_csv(csv_files).map_batches(
            lambda t: pa.table({
                "doc_id": pc.cast(t["doc_id"], pa.int64()),
                "lang": pc.cast(t["lang"], pa.string()),
                "n_chars": pc.cast(t["n_chars"], pa.int64())}),
            batch_format="pyarrow")
    else:  # empty corpus writes no CSV shards
        csv_ds = rd_mod.from_arrow(pa.schema(
            [("doc_id", pa.int64()), ("lang", pa.string()),
             ("n_chars", pa.int64())]).empty_table())

    union = pq_ds.union(ipc_ds).union(csv_ds)

    return combine_aggregate(union, "lang", [("n_docs", "n_chars", "count"),
                                             ("chars", "n_chars", "sum")])


ORACLE_FEDERATED_UNION = """
SELECT lang, CAST(3 * count(*) AS BIGINT) AS n_docs,
       CAST(3 * sum(n_chars) AS BIGINT) AS chars
FROM documents GROUP BY lang
"""


# ===================================== RAG chunking with overlap

def q_rag_chunks(sf_dir: str, width: int = 16, stride: int = 8):
    """Overlapping retrieval chunks (the RAG ingestion step): windows of
    ``width`` tokens every ``stride`` positions, last window ragged.
    Fully batch-local: each token row is expanded to its width/stride
    chunk memberships with index arithmetic, then one grouped join per
    CHUNK (line_dedup's assembly trick) — no per-token Python, no
    shuffle; chunk ids/offsets are deterministic for downstream joins
    back to documents or into an embedding stage."""
    import pandas as pd

    assert width % stride == 0, "width must be a multiple of stride"
    rd = _rd()
    memberships = width // stride

    def to_chunks(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t["text"], " ")
        flat = pc.list_flatten(toks).to_pandas()
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        n = len(flat)
        if n == 0:
            return pa.table({
                "doc_id": pa.array([], pa.int64()),
                "chunk_id": pa.array([], pa.int64()),
                "start_tok": pa.array([], pa.int64()),
                "n_tok": pa.array([], pa.int64()),
                "chunk": pa.array([], pa.string())})
        parent = np.repeat(np.arange(len(t)), lens)
        starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
        pos = np.arange(n) - np.repeat(starts, lens)
        gids, toks_rep = [], []
        for m in range(memberships):
            cid = pos // stride - m
            ok = cid >= 0  # (cid*stride < n_tok holds: cid*stride <= pos)
            gids.append((parent[ok].astype(np.int64) << 22) + cid[ok])
            toks_rep.append(flat[ok])
        gid = np.concatenate(gids)
        tok_all = pd.concat(toks_rep, ignore_index=True)
        # sort=True groups by gid; intra-group order follows the input
        # order, which is position order within each membership copy —
        # concat order (m=0 first) never interleaves copies of the SAME
        # chunk because a token belongs to a chunk in exactly one m
        order = np.argsort(gid, kind="stable")
        joined = (tok_all.iloc[order].groupby(gid[order], sort=True)
                  .agg(" ".join))
        g = joined.index.to_numpy()
        sizes = pd.Series(1, index=gid[order]).groupby(level=0).sum()
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        cid = (g & ((1 << 22) - 1)).astype(np.int64)
        return pa.table({
            "doc_id": pa.array(ids[g >> 22], pa.int64()),
            "chunk_id": pa.array(cid, pa.int64()),
            "start_tok": pa.array(cid * stride, pa.int64()),
            "n_tok": pa.array(sizes.to_numpy().astype(np.int64)),
            "chunk": pa.array(joined.to_numpy(), pa.string())})

    return rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"]).map_batches(
        to_chunks, batch_format="pyarrow")


ORACLE_RAG_CHUNKS = """
WITH t AS (
  SELECT doc_id, string_split(text, ' ') AS tk,
         len(string_split(text, ' ')) AS n
  FROM documents
),
c AS (
  SELECT doc_id, tk, n,
         unnest(range((n - 1) // 8 + 1)) AS chunk_id
  FROM t
)
SELECT doc_id, CAST(chunk_id AS BIGINT) AS chunk_id,
       CAST(chunk_id * 8 AS BIGINT) AS start_tok,
       CAST(least(16, n - chunk_id * 8) AS BIGINT) AS n_tok,
       array_to_string(tk[chunk_id * 8 + 1 : least(chunk_id * 8 + 16, n)],
                       ' ') AS chunk
FROM c
"""


def register(queries: dict, oracles: dict) -> None:
    queries["indexed_bool_query"] = q_indexed_bool_query
    oracles["indexed_bool_query"] = ORACLE_INDEXED_BOOL
    queries["bootstrap_means"] = q_bootstrap_means
    oracles["bootstrap_means"] = ORACLE_BOOTSTRAP
    queries["federated_union_counts"] = q_federated_union_counts
    oracles["federated_union_counts"] = ORACLE_FEDERATED_UNION
    queries["rag_chunks"] = q_rag_chunks
    oracles["rag_chunks"] = ORACLE_RAG_CHUNKS
