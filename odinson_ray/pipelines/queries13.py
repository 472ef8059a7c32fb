"""Round-4 session-5 batch F: the remaining Lucene query classes over
the postings layout — boolean AND (BooleanQuery MUST clauses) and
unordered proximity (SpanNearQuery with slop), completing the indexed
retrieval family next to the token / phrase / regex queries
(queries7). Reference identity: the reference compiles token patterns
to Lucene Boolean/SpanNear queries over its positional index
(core/.../compiler/QueryCompiler.scala); here each clause's I/O is its
posting bucket, never the corpus.

Registered by ``pipelines/queries.py``; each ``q_*`` takes ``sf_dir``;
oracle column names match exactly.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from odinson_ray.stages.shuffle import combine_aggregate

SEP = "\x1f"


def _rd():
    from ..sources.io import clean_rd

    return clean_rd


def _token_postings(root: str, manifest: dict, token: str, n_buckets: int):
    """One token's posting list from its manifest-resolved bucket, keyed
    by the packed (doc, sent) string — a DISTRIBUTED read of 1/n_buckets
    of the index."""
    import os

    import ray.data as rd_mod

    from odinson_ray.stages.layout import _bucket_ids

    S, I = pa.string(), pa.int64()
    b = int(_bucket_ids(pa.chunked_array(
        [pa.array([token], S)]), n_buckets)[0])
    files = [os.path.join(root, f)
             for f in manifest["buckets"].get(str(b), [])]
    if not files:
        return rd_mod.from_arrow(pa.table({
            "jk": pa.array([], S), "doc_id": pa.array([], I),
            "sent_id": pa.array([], I), "pos": pa.array([], I)}))

    def project(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["tok"], token))
        jk = pc.binary_join_element_wise(
            pc.cast(t["doc_id"], S), pc.cast(t["sent_id"], S), SEP)
        return pa.table({"jk": jk, "doc_id": t["doc_id"],
                         "sent_id": t["sent_id"], "pos": t["pos"]})

    return _rd().read_parquet(files).map_batches(project,
                                                 batch_format="pyarrow")


def q_indexed_and_query(sf_dir: str,
                        tokens=("scan", "join", "filter"),
                        n_buckets: int = 64):
    """Sentences containing ALL of ``tokens`` (any positions) — the
    BooleanQuery-MUST execution over the postings layout: one bucket
    read per distinct clause, a distributed semi-join chain on the
    packed (doc, sent) key (the rarest list could drive the chain; here
    clause order is as given), and one final distinct. I/O is the
    clauses' posting lists; the corpus is never re-scanned."""
    import json
    import os


    from odinson_ray.pipelines.queries7 import _postings_layout
    from odinson_ray.stages.shuffle import hash_join

    root = _postings_layout(sf_dir, n_buckets)
    with open(os.path.join(root, "_meta.json")) as fh:
        manifest = json.load(fh)
    S, I = pa.string(), pa.int64()

    toks = list(dict.fromkeys(tokens))  # distinct, order-preserving
    cur = _token_postings(root, manifest, toks[0], n_buckets)
    full = pa.schema([("jk", S), ("doc_id", I), ("sent_id", I),
                      ("pos", I)])
    key_only = pa.schema([("jk", S)])
    for tk in toks[1:]:
        nxt = _token_postings(root, manifest, tk, n_buckets).map_batches(
            lambda t: t.select(["jk"]), batch_format="pyarrow")
        cur = hash_join(cur, nxt, on="jk", how="semi",
                        left_schema=full, right_schema=key_only)

    return combine_aggregate(cur, ["doc_id", "sent_id"], [])


ORACLE_INDEXED_AND = """
WITH toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok,
         unnest(generate_series(1, len(string_split(text, ' ')))) AS p
  FROM documents
)
SELECT doc_id, CAST((p - 1) // 20 AS BIGINT) AS sent_id
FROM toks WHERE tok IN ('scan', 'join', 'filter')
GROUP BY 1, 2
HAVING count(DISTINCT tok) = 3
"""


def q_indexed_near_query(sf_dir: str, tok_a: str = "scan",
                         tok_b: str = "join", slop: int = 5,
                         n_buckets: int = 64):
    """Unordered proximity (SpanNearQuery, inOrder=false): occurrences
    of ``tok_a`` and ``tok_b`` in the same sentence within ``slop``
    positions. Two bucket reads, ONE distributed join on the packed
    (doc, sent) key, vectorized |Δpos| filter inside the join output.
    Per-key groups are bounded by sentence length (<= 20 positions a
    side), so no hub mitigation is needed — documented vs the hub-capped
    graph joins."""
    import json
    import os

    from odinson_ray.pipelines.queries7 import _postings_layout
    from odinson_ray.stages.shuffle import hash_join

    root = _postings_layout(sf_dir, n_buckets)
    with open(os.path.join(root, "_meta.json")) as fh:
        manifest = json.load(fh)
    S, I = pa.string(), pa.int64()

    a = _token_postings(root, manifest, tok_a, n_buckets)
    b = _token_postings(root, manifest, tok_b, n_buckets).map_batches(
        lambda t: t.select(["jk", "pos"]), batch_format="pyarrow")
    joined = hash_join(
        a, b, on="jk",
        left_schema=pa.schema([("jk", S), ("doc_id", I),
                               ("sent_id", I), ("pos", I)]),
        right_schema=pa.schema([("jk", S), ("pos", I)]))

    def near(t: pa.Table) -> pa.Table:
        d = pc.abs(pc.subtract(t["pos"], t["pos_r"]))
        keep = pc.and_(pc.less_equal(d, slop),
                       pc.not_equal(t["pos"], t["pos_r"]))
        t = t.filter(keep)
        return pa.table({"doc_id": t["doc_id"], "sent_id": t["sent_id"],
                         "pos_a": t["pos"], "pos_b": t["pos_r"]})

    return joined.map_batches(near, batch_format="pyarrow")


ORACLE_INDEXED_NEAR = """
WITH toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok,
         unnest(generate_series(1, len(string_split(text, ' ')))) AS p
  FROM documents
),
pos AS (
  SELECT doc_id, tok, (p - 1) // 20 AS sent_id, (p - 1) % 20 AS l
  FROM toks
)
SELECT a.doc_id, CAST(a.sent_id AS BIGINT) AS sent_id,
       CAST(a.l AS BIGINT) AS pos_a, CAST(b.l AS BIGINT) AS pos_b
FROM pos a JOIN pos b
  ON b.doc_id = a.doc_id AND b.sent_id = a.sent_id
WHERE a.tok = 'scan' AND b.tok = 'join'
  AND abs(a.l - b.l) <= 5 AND a.l <> b.l
"""


def register(queries: dict, oracles: dict) -> None:
    queries["indexed_and_query"] = q_indexed_and_query
    oracles["indexed_and_query"] = ORACLE_INDEXED_AND
    queries["indexed_near_query"] = q_indexed_near_query
    oracles["indexed_near_query"] = ORACLE_INDEXED_NEAR
