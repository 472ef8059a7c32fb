"""Degenerate-input behavior for the round-4 continuation operators:
empty datasets, single rows, single groups. A distributed operator that
crashes on an empty shard crashes in production on the first sparse
partition."""

import numpy as np
import pyarrow as pa
import pytest


def _ds(tbl):
    import ray.data as rd

    return rd.from_arrow(tbl)


def test_session_spans_single_event(ray_session):
    from odinson_ray.stages.window import session_spans

    t = pa.table({
        "user_id": pa.array([7], pa.int64()),
        "ts": pa.array(np.array([12345], np.int64), pa.timestamp("us")),
    })
    got = session_spans(_ds(t), key="user_id", ts="ts").take_all()
    assert got == [{"user_id": 7, "session_start_us": 12345,
                    "session_end_us": 12345, "n_events": 1}]


def test_record_highs_single_row(ray_session):
    from odinson_ray.pipelines.queries.events import record_high_counts

    t = pa.table({"o": pa.array([0], pa.int64()),
                  "x": pa.array([1.5], pa.float64()),
                  "g": pa.array(["a"], pa.string())})
    assert record_high_counts(_ds(t), "o", "x", "g").take_all() == [
        {"g": "a", "n_records": 1}]


def test_overlap_pairs_no_overlaps(ray_session):
    from odinson_ray.pipelines.queries.relational import overlap_pairs_per_key

    W = 1000
    t = pa.table({
        "k": pa.array([1, 1, 2], pa.int64()),
        "i": pa.array([10, 11, 12], pa.int64()),
        # gaps far beyond the width: zero pairs
        "s": pa.array(np.array([0, 10 * W, 5 * W], np.int64),
                      pa.timestamp("us")),
    })
    assert overlap_pairs_per_key(_ds(t), key="k", ident="i", start="s",
                                 width_us=W).take_all() == []


def test_triangles_per_vertex_empty_graph(ray_session):
    import ray.data as rd

    from odinson_ray.stages.graph import triangles_per_vertex

    edges = rd.from_arrow(pa.table({
        "lo": pa.array([], pa.string()), "hi": pa.array([], pa.string())}))
    assert triangles_per_vertex(edges).count() == 0


def test_label_propagation_single_edge_bounded(ray_session):
    from odinson_ray.stages.graph import label_propagation

    import ray.data as rd

    edges = rd.from_arrow(pa.table({"lo": pa.array(["a"], pa.string()),
                                    "hi": pa.array(["b"], pa.string())}))
    # bounded mode is well-defined on an oscillator: after 2 rounds each
    # vertex is back to its own label
    got = {r["v"]: r["lab"]
           for r in label_propagation(edges, rounds=2).take_all()}
    assert got == {"a": "a", "b": "b"}


def test_bpe_empty_corpus(ray_session):
    import ray.data as rd

    from odinson_ray.stages.bpe import bpe_top_merges

    ds = rd.from_arrow(pa.table({"text": pa.array([""], pa.string())}))
    t = bpe_top_merges(ds, k=3)
    assert t.num_rows == 0


def test_twap_single_event_users_dropped(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from odinson_ray.pipelines.queries.events import q_twap_value

    t = pa.table({
        "user_id": pa.array([1, 2, 2], pa.int64()),
        "ts": pa.array(np.array([0, 0, 1_000_000], np.int64),
                       pa.timestamp("us")),
        "event_id": pa.array([0, 1, 2], pa.int64()),
        "value": pa.array([5.0, 2.0, 9.0], pa.float64()),
    })
    pq.write_table(t, tmp_path / "events.parquet")
    got = {r["user_id"]: r["twap"]
           for r in q_twap_value(str(tmp_path)).take_all()}
    assert got == {2: 2.0}  # user 1 has no dt weight; last value unweighted


def test_quantiles_cont_single_value_group(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from odinson_ray.pipelines.queries.events import q_value_quantiles_cont

    t = pa.table({"event_type": pa.array(["x"], pa.string()),
                  "value": pa.array([3.25], pa.float64())})
    pq.write_table(t, tmp_path / "events.parquet")
    got = q_value_quantiles_cont(str(tmp_path)).take_all()
    assert got == [{"event_type": "x", "p25": 3.25, "p50": 3.25,
                    "p75": 3.25}]


def test_checkpoint_time_travel(ray_session, sf_dir, tmp_path):
    """Append -> update -> delete, then read THREE snapshots: the latest
    sees the update and not the deleted shard; the pre-update snapshot
    reads the ARCHIVED original bytes; the pre-delete snapshot still
    sees the deleted shard."""
    from odinson_ray.state.checkpoint import (CheckpointManifest,
                                              fragment_content_version,
                                              kg_run_fragments,
                                              read_snapshot)

    out = str(tmp_path / "kg_tt")
    v0 = fragment_content_version(sf_dir, 0, 30)
    kg_run_fragments(sf_dir, out, [("f0", 0, 30, v0), ("f1", 30, 60, "v1")],
                     concurrency=2)
    m = CheckpointManifest(out)
    seq_initial = m.last_seq()
    rows_initial = read_snapshot(out).count()
    f0_docs_initial = set(
        r["doc_id"] for r in read_snapshot(out).take_all()
        if r["doc_id"] < "doc-000030")

    # UPDATE f0 with a different doc range under a new version tag
    kg_run_fragments(sf_dir, out, [("f0", 0, 15, "v2"), ("f1", 30, 60, "v1")],
                     concurrency=2)
    seq_after_update = m.last_seq()

    # DELETE f1
    kg_run_fragments(sf_dir, out, [("f0", 0, 15, "v2")], concurrency=2,
                     retract_missing=True)

    latest = read_snapshot(out)
    latest_docs = set(r["doc_id"] for r in latest.take_all())
    assert all(d < "doc-000015" for d in latest_docs)  # update applied,
    # f1 gone

    # pre-update snapshot: original f0 (0..30) + f1, from the archive
    snap0 = read_snapshot(out, as_of_seq=seq_initial)
    assert snap0.count() == rows_initial
    snap0_f0 = set(r["doc_id"] for r in snap0.take_all()
                   if r["doc_id"] < "doc-000030")
    assert snap0_f0 == f0_docs_initial

    # pre-delete snapshot: updated f0 + f1 still present
    snap1 = read_snapshot(out, as_of_seq=seq_after_update)
    docs1 = set(r["doc_id"] for r in snap1.take_all())
    assert any(d >= "doc-000030" for d in docs1)  # f1 rows
    assert all(d < "doc-000015" or d >= "doc-000030" for d in docs1)


def test_record_highs_empty_input(ray_session):
    from odinson_ray.pipelines.queries.events import record_high_counts

    t = pa.table({"o": pa.array([], pa.int64()),
                  "x": pa.array([], pa.float64()),
                  "g": pa.array([], pa.string())})
    assert record_high_counts(_ds(t), "o", "x", "g").take_all() == []


def test_session_spans_empty_input(ray_session):
    from odinson_ray.stages.window import session_spans

    t = pa.table({
        "user_id": pa.array([], pa.int64()),
        "ts": pa.array(np.array([], np.int64), pa.timestamp("us")),
    })
    assert session_spans(_ds(t), key="user_id", ts="ts").take_all() == []
