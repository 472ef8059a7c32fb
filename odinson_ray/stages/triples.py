"""Graph materialize: event mentions -> (subj, pred, obj) triple table.

North-rule stage. Shuffle discipline (SURVEY §2.5):
- triples are pre-aggregated INSIDE map_batches (one row per distinct
  triple per batch) before anything wide — only partial counts move,
  not raw mentions (combiner pattern)
- ``aggregate_triples`` is one ``combine_aggregate`` over the key
  (subj_canon, pred, obj_canon, subj, obj): the partials are merged in
  large bundles and counted, then finished in one task, or by the
  global groupby when the merged partials exceed one task's batch.
  Zipfian-hot entities are already collapsed per batch, which bounds
  per-key fan-in to #batches, the standard salting-equivalent for
  count aggregation
"""

from __future__ import annotations

from typing import Dict, List

import pyarrow as pa

from .shuffle import combine_aggregate, partial_aggregate


def _triples_slow(args_col, texts, doc_ids, sent_ids) -> pa.Table:
    """Per-row reference path: full subjects x objects cross product."""
    out: Dict[str, List] = {k: [] for k in ("subj", "pred", "obj", "doc_id", "sent_id")}
    for args, pred, doc_id, sent_id in zip(args_col, texts, doc_ids, sent_ids):
        if not args:
            continue
        subjects = [a["text"] for a in args if a["name"] == "subject"]
        objects = [a["text"] for a in args if a["name"] == "object"]
        for s in subjects:
            for o in objects:
                out["subj"].append(s)
                out["pred"].append(pred)
                out["obj"].append(o)
                out["doc_id"].append(doc_id)
                out["sent_id"].append(sent_id)
    return pa.Table.from_pydict(
        {
            "subj": pa.array(out["subj"], pa.string()),
            "pred": pa.array(out["pred"], pa.string()),
            "obj": pa.array(out["obj"], pa.string()),
            "doc_id": pa.array(out["doc_id"], pa.string()),
            "sent_id": pa.array(out["sent_id"], pa.int32()),
        }
    )


def mentions_to_triples(batch: pa.Table) -> pa.Table:
    """Event mentions batch -> raw triples (subj, pred, obj, doc_id, sent_id).

    subject/object argument surfaces become endpoints; the trigger span text
    is the predicate (mention rows carry trigger-span text for events).

    Vectorized: the args list<struct> column is flattened once in Arrow and
    rows with at most one subject and one object (the overwhelmingly common
    event shape) are emitted by pure take/filter kernels; only rows needing
    a genuine cross product fall back to the per-row reference path, whose
    output is appended (row order across the two paths is not significant —
    every consumer aggregates or sorts)."""
    import numpy as np
    import pyarrow.compute as pc

    args_col = batch["args"]
    if isinstance(args_col, pa.ChunkedArray):
        args_col = args_col.combine_chunks()
    n = len(batch)
    if n == 0 or not pa.types.is_list(args_col.type):
        return _triples_slow(
            batch["args"].to_pylist(), batch["text"].to_pylist(),
            batch["doc_id"].to_pylist(), batch["sent_id"].to_pylist(),
        )
    flat = args_col.flatten()  # struct rows of all args, in row order
    name_f = flat.field("name")
    lengths = np.asarray(pc.fill_null(pc.list_value_length(args_col), 0),
                         dtype=np.int64)
    row_of = np.repeat(np.arange(n, dtype=np.int64), lengths)
    subj_pos = np.flatnonzero(
        np.asarray(pc.fill_null(pc.equal(name_f, "subject"), False))
    )
    obj_pos = np.flatnonzero(
        np.asarray(pc.fill_null(pc.equal(name_f, "object"), False))
    )
    cnt_s = np.bincount(row_of[subj_pos], minlength=n)
    cnt_o = np.bincount(row_of[obj_pos], minlength=n)
    multi = (cnt_s > 1) | (cnt_o > 1)
    single = (cnt_s == 1) & (cnt_o == 1) & ~multi
    # flat index of THE subject/object for single rows
    s_idx = np.full(n, -1, dtype=np.int64)
    s_idx[row_of[subj_pos]] = subj_pos  # one writer per single row
    o_idx = np.full(n, -1, dtype=np.int64)
    o_idx[row_of[obj_pos]] = obj_pos
    rows = np.flatnonzero(single)
    arg_texts = flat.field("text")
    fast = pa.table({
        "subj": arg_texts.take(pa.array(s_idx[rows])),
        "pred": pc.take(batch["text"], pa.array(rows)),
        "obj": arg_texts.take(pa.array(o_idx[rows])),
        "doc_id": pc.take(batch["doc_id"], pa.array(rows)),
        "sent_id": pc.take(batch["sent_id"], pa.array(rows)),
    }).cast(pa.schema([
        ("subj", pa.string()), ("pred", pa.string()), ("obj", pa.string()),
        ("doc_id", pa.string()), ("sent_id", pa.int32()),
    ]))
    if not multi.any():
        return fast
    mrows = pa.array(np.flatnonzero(multi))
    slow = _triples_slow(
        args_col.take(mrows).to_pylist(),
        pc.take(batch["text"], mrows).to_pylist(),
        pc.take(batch["doc_id"], mrows).to_pylist(),
        pc.take(batch["sent_id"], mrows).to_pylist(),
    )
    return pa.concat_tables([fast, slow])


ERROR_SURFACE = "__error__"


def error_triples(err_mentions: pa.Table) -> pa.Table:
    """Project __error__ mention rows (poison-doc stand-ins, see
    GrammarMatcher.ERROR_LABEL) into reserved error triples
    (subj = pred = obj = "__error__") so the failure stream flows through
    canonicalize/link/aggregate like any other triple and the flagship's
    AGGREGATED output carries one (ent:__error__, __error__, ...) row
    whose n is the exact count of failed documents — a 100-TB run can
    never silently succeed with a gutted corpus (ADVICE r04 last mile).
    Clean corpora emit no error mentions, so this row simply never
    appears there (and the kg_triples oracle is unaffected)."""
    import pyarrow.compute as pc

    n = err_mentions.num_rows
    const = pa.array([ERROR_SURFACE] * n, pa.string())
    return pa.table({
        "subj": const, "pred": const, "obj": const,
        "doc_id": pc.cast(err_mentions["doc_id"], pa.string()),
        "sent_id": pa.array([-1] * n, pa.int32()),
    })


def svo_or_error_triples(t: pa.Table) -> pa.Table:
    """Shared mention->triple projection for every flagship path: SVO
    events project via ``mentions_to_triples``; __error__ mentions
    (GrammarMatcher.ERROR_LABEL poison-doc stand-ins) become reserved
    error triples so the failure stream stays part of the output."""
    import pyarrow.compute as pc

    out = mentions_to_triples(t.filter(pc.equal(t["label"], "SVO")))
    errs = t.filter(pc.equal(t["label"], ERROR_SURFACE))
    if errs.num_rows:
        out = pa.concat_tables([out, error_triples(errs)])
    return out


def partial_count_triples(batch: pa.Table, keys) -> pa.Table:
    """Per-batch combiner: collapse to one row per distinct key tuple.

    Pure-Arrow groupby: a pandas round-trip here attaches ``b'pandas'``
    schema metadata (an unhashable dict) to every emitted block, which
    knocks Ray Data's schema-dedup onto its slow unify path for the whole
    downstream pipeline ("Failed to hash the schemas" warning)."""
    return partial_aggregate(batch, keys, [("partial_n", None, "count_all")])


def aggregate_triples(triples_ds, keys=("subj_canon", "pred", "obj_canon", "subj", "obj"),
                      pre_counted: bool = False):
    """Triple counts ``n`` per ``keys`` via :func:`combine_aggregate`
    (per-batch partial counts, then one finishing task or, for a large
    output, the global groupby); executes ``triples_ds`` at call time.

    ``pre_counted``: the input already carries per-batch partial counts
    (a ``partial_n`` column, e.g. from the fused pipelines/kg.TripleCounter
    matcher), which are summed instead of counting rows."""
    agg = ("n", "partial_n", "sum") if pre_counted else ("n", None, "count_all")
    return combine_aggregate(triples_ds, keys, [agg])
