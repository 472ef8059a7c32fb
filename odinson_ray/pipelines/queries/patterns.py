"""Odinson pattern queries: documents -> interleaved sentences ->
rule matcher.

The rule cascades (bigrams, entity runs, subject-verb-object events
with filters, dates and a two-stage annotator), keyword-in-context,
error containment on poison rows, and the postings-index queries
(phrase, regex, AND/NEAR/boolean). The oracles are exact because the
deterministic annotator's layers are SQL-expressible functions of the
token stream (see stages/annotate.py).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from odinson_ray.sources.io import read_table, table
from odinson_ray.stages.shuffle import (coarse_groups, combine_aggregate,
                                        partial_aggregate)

from . import query
from .graph import SEP


def _mention_rows(sf_dir: str, rules_yaml: str, label: str):
    from ..kg import mentions_dataset

    ds = mentions_dataset(sf_dir, rules_yaml)
    return ds.map_batches(
        lambda t: t.filter(pc.equal(t["label"], label)).select(
            ["doc_id", "sent_id", "start", "end", "text"]
        ),
        batch_format="pyarrow",
    )


BIGRAM_RULES = """
rules:
  - name: bigram
    label: Bigram
    type: basic
    pattern: "[raw=spark] [raw=join]"
"""


ORACLE_ODINSON_BIGRAM = """
WITH toks AS (
  SELECT printf('doc-%06d', doc_id) AS doc_id, doc_id AS did,
         unnest(string_split(text, ' ')) AS tok,
         unnest(generate_series(1, len(string_split(text, ' ')))) AS p
  FROM documents
),
postoks AS (
  SELECT doc_id, did, tok, p,
         CAST(((p - 1) // 20) AS INT) AS sent_id,
         CAST(((p - 1) % 20) AS INT) AS l
  FROM toks
)
SELECT a.doc_id, a.sent_id, a.l AS "start", a.l + 2 AS "end",
       a.tok || ' ' || b.tok AS text
FROM postoks a JOIN postoks b
  ON a.did = b.did AND b.p = a.p + 1 AND b.sent_id = a.sent_id
WHERE a.tok = 'spark' AND b.tok = 'join'
"""


@query("odinson_bigram", oracle=ORACLE_ODINSON_BIGRAM)
def q_odinson_bigram(sf_dir: str):
    """Token-sequence pattern over the interleaved corpus: exact positional
    oracle via a tokens-with-ordinality self-join."""
    return _mention_rows(sf_dir, BIGRAM_RULES, "Bigram")


TECH_RUN_RULES = """
rules:
  - name: tech-entity
    label: Tech
    type: basic
    pattern: "[entity=B-TECH]+"
"""


ORACLE_ODINSON_TECH_RUNS = """
WITH toks AS (
  SELECT printf('doc-%06d', doc_id) AS doc_id, doc_id AS did,
         unnest(string_split(text, ' ')) AS tok,
         unnest(generate_series(1, len(string_split(text, ' ')))) AS p
  FROM documents
),
postoks AS (
  SELECT doc_id, did, tok, p,
         CAST(((p - 1) // 20) AS INT) AS sent_id,
         CAST(((p - 1) % 20) AS INT) AS l
  FROM toks
)
, tech AS (
  SELECT doc_id, sent_id, l,
         l - row_number() OVER (PARTITION BY doc_id, sent_id ORDER BY l) AS island
  FROM postoks WHERE tok = 'spark'
)
SELECT doc_id, sent_id, CAST(min(l) AS INT) AS "start", CAST(max(l) + 1 AS INT) AS "end"
FROM tech GROUP BY doc_id, sent_id, island
"""


@query("odinson_tech_runs", oracle=ORACLE_ODINSON_TECH_RUNS)
def q_odinson_tech_runs(sf_dir: str):
    """Greedy entity-run extraction == maximal islands of B-TECH tokens."""
    ds = _mention_rows(sf_dir, TECH_RUN_RULES, "Tech")
    return ds.map_batches(
        lambda t: t.select(["doc_id", "sent_id", "start", "end"]), batch_format="pyarrow"
    )


SVO_RULES = """
rules:
  - name: svo
    label: SVO
    type: event
    pattern: |
      trigger = [tag=VB]
      subject = >nsubj []
      object = >dobj []
"""


def _svo_project(t: pa.Table) -> pa.Table:
    t = t.filter(pc.equal(t["label"], "SVO"))
    args_col = t["args"].to_pylist()
    subj, obj = [], []
    for args in args_col:
        subj.append(next(a["text"] for a in args if a["name"] == "subject"))
        obj.append(next(a["text"] for a in args if a["name"] == "object"))
    return pa.Table.from_pydict(
        {
            "doc_id": t["doc_id"],
            "sent_id": t["sent_id"],
            "start": t["start"],
            "subj": pa.array(subj, pa.string()),
            "pred": t["text"],
            "obj": pa.array(obj, pa.string()),
        }
    )


ORACLE_ODINSON_SVO = """
WITH toks AS (
  SELECT printf('doc-%06d', doc_id) AS doc_id, doc_id AS did,
         unnest(string_split(text, ' ')) AS tok,
         unnest(generate_series(1, len(string_split(text, ' ')))) AS p
  FROM documents
),
postoks AS (
  SELECT doc_id, did, tok, p,
         CAST(((p - 1) // 20) AS INT) AS sent_id,
         CAST(((p - 1) % 20) AS INT) AS l
  FROM toks
)
SELECT a.doc_id, a.sent_id, a.l AS "start",
       b.tok AS subj, a.tok AS pred, c.tok AS obj
FROM postoks a JOIN postoks b ON b.did = a.did AND b.p = a.p + 1
               JOIN postoks c ON c.did = a.did AND c.p = a.p + 2
WHERE a.l % 5 = 0 AND a.tok IN ('scan', 'join', 'sort', 'merge', 'filter', 'group')
"""


@query("odinson_svo", oracle=ORACLE_ODINSON_SVO)
def q_odinson_svo(sf_dir: str):
    """Event extraction over the deterministic dependency groups: the
    oracle recomputes (head, nsubj-child, dobj-child) by position."""
    from ..kg import mentions_dataset

    ds = mentions_dataset(sf_dir, SVO_RULES)
    return ds.map_batches(_svo_project, batch_format="pyarrow")


@query("odinson_svo_two_stage", oracle=ORACLE_ODINSON_SVO)
def q_odinson_svo_two_stage(sf_dir: str):
    """The two-stage (annotate-pool -> matcher tasks) topology with a
    model-backed annotator stand-in: a large lexicon loads once per
    annotator actor (__init__), the annotated sentences column ships
    through the object store, and the matcher tasks consume it without
    re-annotating. Oracle identical to odinson_svo — the topology change
    must not change one row."""
    import ray

    from odinson_ray.sources.interleaved import read_interleaved
    from odinson_ray.stages.annotate import HeavyLexiconAnnotator, annotate_stage
    from odinson_ray.stages.match import GrammarMatcher, match_batches

    cpus = int(ray.cluster_resources().get("CPU", 4)) if ray.is_initialized() else 4
    pool = max(1, cpus // 4)  # two pools + read/consume headroom
    docs = read_interleaved(sf_dir)
    annotated = annotate_stage(docs, HeavyLexiconAnnotator, concurrency=pool)
    mentions = match_batches(annotated, GrammarMatcher, SVO_RULES, concurrency=pool)
    return mentions.map_batches(_svo_project, batch_format="pyarrow")


ORACLE_ODINSON_SVO_FILTERED = """
WITH toks AS (
  SELECT printf('doc-%06d', doc_id) AS doc_id, doc_id AS did,
         unnest(string_split(text, ' ')) AS tok,
         unnest(generate_series(1, len(string_split(text, ' ')))) AS p
  FROM documents WHERE lang = 'en'
),
postoks AS (
  SELECT doc_id, did, tok, p,
         CAST(((p - 1) // 20) AS INT) AS sent_id,
         CAST(((p - 1) % 20) AS INT) AS l
  FROM toks
)
SELECT a.doc_id, a.sent_id, a.l AS "start",
       b.tok AS subj, a.tok AS pred, c.tok AS obj
FROM postoks a JOIN postoks b ON b.did = a.did AND b.p = a.p + 1
               JOIN postoks c ON c.did = a.did AND c.p = a.p + 2
WHERE a.l % 5 = 0 AND a.tok IN ('scan', 'join', 'sort', 'merge', 'filter', 'group')
"""


@query("odinson_svo_filtered", oracle=ORACLE_ODINSON_SVO_FILTERED)
def q_odinson_svo_filtered(sf_dir: str):
    """SVO events gated by a metadata filter (lang == 'en'): the reference's
    parent-document metadata filtering as a vectorized per-doc predicate."""
    from ..kg import mentions_dataset

    rules = """
metadataFilters: "lang == 'en'"
rules:
  - name: svo
    label: SVO
    type: event
    pattern: |
      trigger = [tag=VB]
      subject = >nsubj []
      object = >dobj []
"""
    ds = mentions_dataset(sf_dir, rules)

    def project(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["label"], "SVO"))
        args_col = t["args"].to_pylist()
        subj, obj = [], []
        for args in args_col:
            subj.append(next(a["text"] for a in args if a["name"] == "subject"))
            obj.append(next(a["text"] for a in args if a["name"] == "object"))
        return pa.Table.from_pydict(
            {
                "doc_id": t["doc_id"],
                "sent_id": t["sent_id"],
                "start": t["start"],
                "subj": pa.array(subj, pa.string()),
                "pred": t["text"],
                "obj": pa.array(obj, pa.string()),
            }
        )

    return ds.map_batches(project, batch_format="pyarrow")


ORACLE_ODINSON_SVO_DATED = """
WITH eligible AS (
  SELECT doc_id, text FROM documents
  WHERE (DATE '2020-01-01' + INTERVAL ((doc_id % 1000)) DAY) >= DATE '2021-01-01'
    AND ((doc_id * 7) % 100) > 20 AND ((doc_id * 7) % 100) <= 90
),
toks AS (
  SELECT printf('doc-%06d', doc_id) AS doc_id, doc_id AS did,
         unnest(string_split(text, ' ')) AS tok,
         unnest(generate_series(1, len(string_split(text, ' ')))) AS p
  FROM eligible
),
postoks AS (
  SELECT doc_id, did, tok, p,
         CAST(((p - 1) // 20) AS INT) AS sent_id,
         CAST(((p - 1) % 20) AS INT) AS l
  FROM toks
)
SELECT a.doc_id, a.sent_id, a.l AS "start", a.tok AS text
FROM postoks a JOIN postoks b ON b.did = a.did AND b.p = a.p + 1
               JOIN postoks c ON c.did = a.did AND c.p = a.p + 2
WHERE a.l % 5 = 0 AND a.tok IN ('scan', 'join', 'sort', 'merge', 'filter', 'group')
"""


@query("odinson_svo_dated", oracle=ORACLE_ODINSON_SVO_DATED)
def q_odinson_svo_dated(sf_dir: str):
    """SVO events gated by date + numeric metadata filters (DateField /
    NumberField semantics: chained comparisons, date() literals)."""
    from ..kg import mentions_dataset

    rules = """
metadataFilters: "pub_date >= date(2021) && 20 < citations <= 90"
rules:
  - name: svo
    label: SVO
    type: event
    pattern: |
      trigger = [tag=VB]
      subject = >nsubj []
      object = >dobj []
"""
    ds = mentions_dataset(sf_dir, rules)

    def project(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["label"], "SVO"))
        return t.select(["doc_id", "sent_id", "start", "text"])

    return ds.map_batches(project, batch_format="pyarrow")


# ===================================== poison-row containment (error stream)


ORACLE_ERROR_STREAM = """
SELECT 'doc-' || lpad(CAST(doc_id AS VARCHAR), 6, '0') AS doc_id,
       '__error__' AS label
FROM documents WHERE doc_id % 97 = 0
"""


@query("error_stream", oracle=ORACLE_ERROR_STREAM)
def q_error_stream(sf_dir: str):
    """Poison-row containment through the REAL distributed path: every doc
    with doc_id %% 97 == 0 gets malformed metadata JSON injected in-stream;
    the matcher (on_error='skip', the default) must convert exactly those
    documents into __error__ rows and keep the task alive (reference
    behavior: per-file Try + continue, IndexDocuments.scala:85-98)."""
    from ...stages.match import GrammarMatcher, match_batches

    def poison(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        bad = pa.array(ids % 97 == 0)
        md = pc.if_else(bad, "{not valid json", None)
        return t.append_column("metadata_json", md.cast(pa.string()))

    rules = "rules:\n  - {name: any, label: Tok, type: basic, pattern: 'the'}\n"
    docs = (table(sf_dir, "documents",
                  columns=["doc_id", "text", "lang", "source"])
            .map_batches(poison, batch_format="pyarrow"))
    mentions = match_batches(docs, GrammarMatcher, rules, concurrency=2)
    return mentions.map_batches(
        lambda t: t.filter(pc.equal(t["label"], GrammarMatcher.ERROR_LABEL))
                   .select(["doc_id", "label"]),
        batch_format="pyarrow",
    )


# ===================================== KWIC concordance (shell highlight)
KWIC_RULES = """
rules:
  - name: kwic
    label: Kwic
    type: basic
    pattern: "scan"
"""


ORACLE_ODINSON_KWIC = """
WITH d AS (
  SELECT printf('doc-%06d', doc_id) AS doc_id,
         string_split(text, ' ') AS ts
  FROM documents
),
pos AS (
  SELECT doc_id, ts, unnest(generate_series(1, len(ts))) AS p FROM d
)
SELECT doc_id, CAST(p AS BIGINT) AS p,
       COALESCE(array_to_string(ts[greatest(1, p - 2):p - 1], ' '), '')
         AS left_ctx,
       ts[p] AS term,
       COALESCE(array_to_string(ts[p + 1:least(len(ts), p + 2)], ' '), '')
         AS right_ctx
FROM pos WHERE ts[p] = 'scan'
"""


@query("odinson_kwic", oracle=ORACLE_ODINSON_KWIC)
def q_odinson_kwic(sf_dir: str):
    """Keyword-in-context concordance for a pattern's matches — the
    queryable twin of the shell's highlight output (shell.py renders the
    same +-2-token window; reference: extra/.../Shell.scala highlights).
    Matches come from the REAL matcher pipeline; contexts come from one
    hash join back to the documents table (mentions deliberately do not
    carry their neighborhood — context attachment is a join, not a wider
    mention row). The per-match window slice is a small Python pass over
    join output, bounded by match count, not corpus size."""
    from odinson_ray.stages.shuffle import hash_join

    m = _mention_rows(sf_dir, KWIC_RULES, "Kwic").map_batches(
        lambda t: pa.table({"doc_id": t["doc_id"], "sent_id": t["sent_id"],
                            "start": t["start"]}),
        batch_format="pyarrow")

    def keyed_docs(t: pa.Table) -> pa.Table:
        ids = [f"doc-{i:06d}" for i in t["doc_id"].to_pylist()]
        return pa.table({"doc_id": pa.array(ids, pa.string()),
                         "text": t["text"]})

    docs = (table(sf_dir, "documents",
                  columns=["doc_id", "text"])
            .map_batches(keyed_docs, batch_format="pyarrow"))

    j = hash_join(
        m, docs, on="doc_id",
        left_schema=pa.schema([("doc_id", pa.string()),
                               ("sent_id", pa.int32()),
                               ("start", pa.int32())]),
        right_schema=pa.schema([("doc_id", pa.string()),
                                ("text", pa.string())]))

    def ctx(t: pa.Table) -> pa.Table:
        sid = t["sent_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        st = t["start"].to_numpy(zero_copy_only=False).astype(np.int64)
        g = sid * 20 + st  # 0-based global token position
        lefts, terms, rights = [], [], []
        for gi, txt in zip(g, t["text"].to_pylist()):
            toks = txt.split(" ")
            lefts.append(" ".join(toks[max(0, gi - 2):gi]))
            terms.append(toks[gi])
            rights.append(" ".join(toks[gi + 1:gi + 3]))
        return pa.table({
            "doc_id": t["doc_id"],
            "p": pa.array(g + 1, pa.int64()),
            "left_ctx": pa.array(lefts, pa.string()),
            "term": pa.array(terms, pa.string()),
            "right_ctx": pa.array(rights, pa.string()),
        })

    return j.map_batches(ctx, batch_format="pyarrow")


# ===================================== inverted posting lists


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


@query("inverted_postings", oracle=ORACLE_INVERTED_POSTINGS)
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

    tok = (table(sf_dir, "documents",
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


# ===================================== postings layout + index query
def _positions_batch(t: pa.Table) -> pa.Table:
    """documents batch -> positional postings rows (tok, doc_id,
    sent_id, pos) under the 20-token sentence model."""
    toks = pc.split_pattern(t["text"].combine_chunks(), " ")
    flat = pc.list_flatten(toks)
    lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
    did = t["doc_id"].to_numpy(zero_copy_only=False)
    p = (np.concatenate([np.arange(n, dtype=np.int64) for n in lens])
         if len(lens) else np.array([], dtype=np.int64))
    return pa.table({
        "tok": flat,
        "doc_id": pa.array(np.repeat(did, lens), pa.int64()),
        "sent_id": pa.array(p // 20, pa.int64()),
        "pos": pa.array(p % 20, pa.int64()),
    })


def _postings_layout(sf_dir: str, n_buckets: int = 64) -> str:
    """Materialize the positional index as a hash(token)-bucketed
    parquet layout (tok, doc_id, sent_id, pos) — the Lucene-index
    analog as a LAYOUT (reference identity: OdinsonIndexWriter,
    core/.../lucene/index/OdinsonIndexWriter.scala). Pay the
    partitioned write once; each token query then opens exactly ONE
    bucket. Cache identity includes the source parquet's stat, so a
    regenerated corpus rebuilds (never silently reuses)."""
    import os

    from odinson_ray.stages.layout import bucket_layout_ds

    path = f"{sf_dir}/documents.parquet"
    st = os.stat(path)
    tag = f"postings:{path}:{st.st_mtime_ns}:{st.st_size}"
    ds = read_table(path, columns=["doc_id", "text"]).map_batches(
        _positions_batch, batch_format="pyarrow")
    return bucket_layout_ds(ds, key="tok", n_buckets=n_buckets, tag=tag)


ORACLE_POSTINGS_QUERY = """
WITH toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok,
         unnest(generate_series(1, len(string_split(text, ' ')))) AS p
  FROM documents
)
SELECT doc_id, CAST((p - 1) // 20 AS BIGINT) AS sent_id,
       CAST((p - 1) % 20 AS BIGINT) AS pos
FROM toks WHERE tok = 'scan'
"""


@query("postings_layout_query", oracle=ORACLE_POSTINGS_QUERY)
def q_postings_layout_query(sf_dir: str, token: str = "scan",
                            n_buckets: int = 64):
    """Query the prebuilt positional index layout for one token: resolve
    the token's hash bucket from the manifest and read THAT bucket only
    — the query-over-prebuilt-index discipline behind the reference's
    published 2.8 s / 134M-sentence number (docs/index.md:51). Returns
    every (doc_id, sent_id, pos) occurrence."""
    root = _postings_layout(sf_dir, n_buckets)
    return _bucket_token_query(root, token, n_buckets)


def _bucket_token_query(root: str, token: str, n_buckets: int):
    """Resolve the token's bucket from the manifest and read THAT
    bucket's files as a DISTRIBUTED parquet read (a bucket is 1/64 of
    the whole index — it must never become one driver-resident block),
    then filter to the posting list."""
    import json
    import os

    import ray.data as rd_mod

    from odinson_ray.stages.layout import _bucket_ids

    with open(os.path.join(root, "_meta.json")) as fh:
        manifest = json.load(fh)
    bucket = int(_bucket_ids(
        pa.chunked_array([pa.array([token], pa.string())]), n_buckets)[0])
    files = [os.path.join(root, f)
             for f in manifest["buckets"].get(str(bucket), [])]
    if not files:
        return rd_mod.from_arrow(pa.table({
            "doc_id": pa.array([], pa.int64()),
            "sent_id": pa.array([], pa.int64()),
            "pos": pa.array([], pa.int64())}))
    return read_table(files).map_batches(
        lambda t: t.filter(pc.equal(t["tok"], token)).select(
            ["doc_id", "sent_id", "pos"]),
        batch_format="pyarrow")


# ===================================== indexed phrase query


ORACLE_INDEXED_PHRASE = """
WITH toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok,
         unnest(generate_series(1, len(string_split(text, ' ')))) AS p
  FROM documents
),
pos AS (
  SELECT doc_id, tok, p, (p - 1) // 20 AS sent_id, (p - 1) % 20 AS l
  FROM toks
)
SELECT a.doc_id, CAST(a.sent_id AS BIGINT) AS sent_id,
       CAST(a.l AS BIGINT) AS start, CAST(a.l + 2 AS BIGINT) AS "end"
FROM pos a JOIN pos b
  ON b.doc_id = a.doc_id AND b.sent_id = a.sent_id AND b.l = a.l + 1
WHERE a.tok = 'scan' AND b.tok = 'join'
"""


@query("indexed_phrase_query", oracle=ORACLE_INDEXED_PHRASE)
def q_indexed_phrase_query(sf_dir: str, phrase=("scan", "join"),
                           n_buckets: int = 64):
    """Execute a surface phrase query FROM THE INDEX: read one postings
    bucket per distinct phrase token and intersect positions ((doc,
    sent) equal, positions consecutive) — exactly how Lucene's
    PhraseQuery / the reference's OdinsonQuery concat executes surface
    patterns over positional postings (core/.../lucene/search/
    OdinsonConcatQuery), vs the full-document rescan every non-indexed
    engine pays. I/O is the posting lists of the phrase's tokens, not
    the corpus; the intersection is a DISTRIBUTED semi-join chain on
    the shifted (doc, sent, start) key — a stopword's posting list
    shuffles, it never lands on the driver."""
    import json
    import os

    from odinson_ray.stages.layout import _bucket_ids
    from odinson_ray.stages.shuffle import hash_join

    root = _postings_layout(sf_dir, n_buckets)
    with open(os.path.join(root, "_meta.json")) as fh:
        manifest = json.load(fh)
    S, I = pa.string(), pa.int64()

    def postings_ds(tk: str, shift: int):
        b = int(_bucket_ids(pa.chunked_array(
            [pa.array([tk], S)]), n_buckets)[0])
        files = [os.path.join(root, f)
                 for f in manifest["buckets"].get(str(b), [])]

        def project(t: pa.Table) -> pa.Table:
            t = t.filter(pc.equal(t["tok"], tk))
            start = pc.subtract(t["pos"], shift)
            jk = pc.binary_join_element_wise(
                pc.cast(t["doc_id"], S), pc.cast(t["sent_id"], S),
                pc.cast(start, S), SEP)
            return pa.table({"jk": jk, "doc_id": t["doc_id"],
                             "sent_id": t["sent_id"], "start": start})

        if not files:
            import ray.data as rd_mod

            return rd_mod.from_arrow(pa.table({
                "jk": pa.array([], S), "doc_id": pa.array([], I),
                "sent_id": pa.array([], I), "start": pa.array([], I)}))
        return read_table(files).map_batches(
            project, batch_format="pyarrow")

    toks = list(phrase)
    # read + filter each DISTINCT token's bucket once; repeated tokens
    # (stopwords — the most expensive lists) reuse the pinned postings
    cache: dict = {}

    def tok_postings(tk: str):
        if tk not in cache:
            cache[tk] = postings_ds(tk, 0).materialize()
        return cache[tk]

    def shifted_keys(tk: str, shift: int):
        def rekey(t: pa.Table) -> pa.Table:
            return pa.table({"jk": pc.binary_join_element_wise(
                pc.cast(t["doc_id"], S), pc.cast(t["sent_id"], S),
                pc.cast(pc.subtract(t["start"], shift), S), SEP)})
        return tok_postings(tk).map_batches(rekey, batch_format="pyarrow")

    cur = tok_postings(toks[0])
    full = pa.schema([("jk", S), ("doc_id", I), ("sent_id", I),
                      ("start", I)])
    key_only = pa.schema([("jk", S)])
    for i, tk in enumerate(toks[1:], 1):
        cur = hash_join(
            cur, shifted_keys(tk, i),
            on="jk", how="semi",
            left_schema=full, right_schema=key_only)

    n = len(toks)
    return cur.map_batches(
        lambda t: pa.table({"doc_id": t["doc_id"],
                            "sent_id": t["sent_id"],
                            "start": t["start"],
                            "end": pc.add(t["start"], n)}),
        batch_format="pyarrow")


# ===================================== incremental index append
@query("postings_append_query", oracle=ORACLE_POSTINGS_QUERY)
def q_postings_append_query(sf_dir: str, token: str = "scan",
                            n_buckets: int = 64):
    """Incremental index maintenance, end to end: build the postings
    layout for the BASE corpus half (even doc ids), build a separate
    DELTA layout for the other half, merge them with
    :func:`odinson_ray.stages.layout.merge_layouts` (hard-linked files,
    manifest union — the delta pays only its own write), then answer
    the same single-bucket token query. The oracle is the FULL-corpus
    postings SQL: merged base+delta must be indistinguishable from a
    from-scratch build."""
    import os

    from odinson_ray.stages.layout import bucket_layout_ds, merge_layouts

    path = f"{sf_dir}/documents.parquet"
    st = os.stat(path)
    base_sig = f"{path}:{st.st_mtime_ns}:{st.st_size}"

    def half(parity: int):
        def f(t: pa.Table) -> pa.Table:
            keep = pc.equal(
                pc.subtract(t["doc_id"], pc.multiply(
                    pc.divide(t["doc_id"], 2),
                    pa.scalar(2, pa.int64()))),
                pa.scalar(parity, pa.int64()))
            return t.filter(keep)
        return (read_table(path, columns=["doc_id", "text"])
                .map_batches(f, batch_format="pyarrow")
                .map_batches(_positions_batch, batch_format="pyarrow"))

    base = bucket_layout_ds(half(0), key="tok", n_buckets=n_buckets,
                            tag=f"postings-base:{base_sig}")
    delta = bucket_layout_ds(half(1), key="tok", n_buckets=n_buckets,
                             tag=f"postings-delta:{base_sig}")
    root = merge_layouts(base, delta)
    return _bucket_token_query(root, token, n_buckets)


# ===================================== regex token query (term dict)
def _term_dictionary(root: str) -> list:
    """The layout's term dictionary (sorted distinct tokens) — derived
    once with a distributed distinct and cached ATOMICALLY next to the
    layout (Lucene keeps exactly this artifact beside the postings; it
    is vocabulary-sized, the one thing safe to hold whole)."""
    import os

    import pyarrow.parquet as pq

    vocab_path = os.path.join(root, "_vocab.parquet")
    if os.path.exists(vocab_path):
        return pq.read_table(vocab_path)["tok"].to_pylist()
    import json

    with open(os.path.join(root, "_meta.json")) as fh:
        manifest = json.load(fh)
    files = [os.path.join(root, f)
             for fl in manifest["buckets"].values() for f in fl]
    vocab = combine_aggregate(read_table(files), "tok", []
                              ).to_pandas()["tok"].sort_values()
    tmp = vocab_path + ".tmp"
    pq.write_table(pa.table({"tok": pa.array(vocab, pa.string())}), tmp)
    os.replace(tmp, vocab_path)
    return vocab.tolist()


ORACLE_INDEXED_REGEX = """
WITH toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok,
         unnest(generate_series(1, len(string_split(text, ' ')))) AS p
  FROM documents
)
SELECT tok AS token, doc_id,
       CAST((p - 1) // 20 AS BIGINT) AS sent_id,
       CAST((p - 1) % 20 AS BIGINT) AS pos
FROM toks WHERE regexp_full_match(tok, 'sca.*|j[a-z]in')
"""


@query("indexed_regex_query", oracle=ORACLE_INDEXED_REGEX)
def q_indexed_regex_query(sf_dir: str, pattern: str = "sca.*|j[a-z]in",
                          n_buckets: int = 64):
    """Regex token query FROM THE INDEX, the Lucene way: evaluate the
    pattern against the TERM DICTIONARY (vocabulary-sized), expand to
    the matching tokens, then read only those tokens' buckets — the
    automaton-vs-term-dictionary execution of the reference's regex
    token constraints (core/.../QueryCompiler regexp path), never a
    corpus scan. Pattern dialect is the repo's Lucene-regex evaluator
    (lang/lucene_regex.py), full-match semantics like the oracle's
    regexp_full_match."""
    import json
    import os

    import ray.data as rd_mod

    from odinson_ray.lang.lucene_regex import compile_lucene
    from odinson_ray.stages.layout import _bucket_ids

    root = _postings_layout(sf_dir, n_buckets)
    matcher = compile_lucene(pattern)
    matching = [tk for tk in _term_dictionary(root)
                if matcher.fullmatch(tk)]
    if not matching:
        return rd_mod.from_arrow(pa.table({
            "token": pa.array([], pa.string()),
            "doc_id": pa.array([], pa.int64()),
            "sent_id": pa.array([], pa.int64()),
            "pos": pa.array([], pa.int64())}))

    with open(os.path.join(root, "_meta.json")) as fh:
        manifest = json.load(fh)
    buckets = sorted({int(b) for b in _bucket_ids(pa.chunked_array(
        [pa.array(matching, pa.string())]), n_buckets)})
    files = [os.path.join(root, f)
             for b in buckets for f in manifest["buckets"].get(str(b), [])]
    want = pa.array(matching, pa.string())
    def select_matches(t: pa.Table) -> pa.Table:
        kept = t.filter(pc.is_in(t["tok"], value_set=want))
        return pa.table({"token": kept["tok"], "doc_id": kept["doc_id"],
                         "sent_id": kept["sent_id"], "pos": kept["pos"]})

    return read_table(files).map_batches(select_matches,
                                         batch_format="pyarrow")


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

    return read_table(files).map_batches(project,
                                         batch_format="pyarrow")


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


@query("indexed_and_query", oracle=ORACLE_INDEXED_AND)
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


@query("indexed_near_query", oracle=ORACLE_INDEXED_NEAR)
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


# ===================================== boolean OR / NOT (SHOULD + MUST_NOT)


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


@query("indexed_bool_query", oracle=ORACLE_INDEXED_BOOL)
def q_indexed_bool_query(sf_dir: str, any_of=("scan", "join"),
                         none_of: str = "filter", n_buckets: int = 64):
    """Sentences containing ANY of ``any_of`` and NOT ``none_of`` — the
    BooleanQuery SHOULD + MUST_NOT execution over the postings layout:
    the OR group is a union of its clauses' bucket reads collapsed to
    distinct (doc, sent); the NOT clause is one distributed anti join
    against its posting list. I/O is the clauses' posting lists only."""
    import json
    import os

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
