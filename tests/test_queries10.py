"""Session-5 batch C: Q10-class top-k, 3-step funnel, DP counts, Arrow
IPC roundtrip — empty-input guards + the semantics the oracle can't
see (funnel ordering edges, row-level IPC fidelity, noise formula)."""

import math
import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _rows(r):
    if isinstance(r, pd.DataFrame):
        return len(r)
    if isinstance(r, pa.Table):
        return r.num_rows
    return r.count()


def _write_events(path, rows):
    pq.write_table(pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "user_id": pa.array([r[1] for r in rows], pa.int64()),
        "ts": pa.array([r[2] for r in rows], pa.timestamp("us")),
        "event_type": pa.array([r[3] for r in rows], pa.string()),
        "value": pa.array([0.0] * len(rows), pa.float64()),
        "props": pa.array(["{}"] * len(rows), pa.string()),
    }), str(path))


@pytest.fixture(scope="module")
def empty_sf(tmp_path_factory):
    d = tmp_path_factory.mktemp("empty_sf10")
    pq.write_table(pa.table({
        "l_orderkey": pa.array([], pa.int64()),
        "l_returnflag": pa.array([], pa.string()),
        "l_extendedprice": pa.array([], pa.float64()),
        "l_discount": pa.array([], pa.float64())}),
        str(d / "lineitem.parquet"))
    pq.write_table(pa.table({
        "o_orderkey": pa.array([], pa.int64()),
        "o_custkey": pa.array([], pa.int64())}), str(d / "orders.parquet"))
    pq.write_table(pa.table({
        "c_custkey": pa.array([], pa.int64()),
        "c_name": pa.array([], pa.string())}), str(d / "customer.parquet"))
    _write_events(d / "events.parquet", [])
    pq.write_table(pa.table({
        "doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string()),
        "lang": pa.array([], pa.string()), "source": pa.array([], pa.string()),
        "n_chars": pa.array([], pa.int64())}), str(d / "documents.parquet"))
    return str(d)


@pytest.mark.parametrize("qname", [
    "q_returned_revenue_topk", "q_funnel3_users", "q_dp_event_counts",
    "q_ipc_roundtrip_agg",
])
def test_empty_inputs(empty_sf, qname):
    from odinson_ray.pipelines.queries import QUERIES

    assert _rows(QUERIES[qname.removeprefix("q_")](empty_sf)) == 0


def test_funnel3_strict_order(tmp_path):
    """click BEFORE the first view doesn't advance; purchase BEFORE the
    qualifying click doesn't advance; ts ties break by event_id; users
    with no view emit nothing."""
    from odinson_ray.pipelines.queries.events import q_funnel3_users

    t0 = 1_600_000_000_000_000
    rows = [
        # user 1: full funnel in order -> 3
        (1, 1, t0 + 1, "view"), (2, 1, t0 + 2, "click"),
        (3, 1, t0 + 3, "purchase"),
        # user 2: click precedes the only view -> steps 1
        (4, 2, t0 + 1, "click"), (5, 2, t0 + 2, "view"),
        # user 3: purchase between view and click -> steps 2
        (6, 3, t0 + 1, "view"), (7, 3, t0 + 2, "purchase"),
        (8, 3, t0 + 3, "click"),
        # user 4: ts tie — view(eid 9) then click(eid 10) at the same
        # instant counts (event_id order), purchase follows -> 3
        (9, 4, t0 + 1, "view"), (10, 4, t0 + 1, "click"),
        (11, 4, t0 + 2, "purchase"),
        # user 5: purchases only -> no row
        (12, 5, t0 + 1, "purchase"),
        # noise types ignored
        (13, 1, t0 + 0, "signup"),
    ]
    _write_events(tmp_path / "events.parquet", rows)
    got = (q_funnel3_users(str(tmp_path)).to_pandas()
           .sort_values("user_id").reset_index(drop=True))
    assert got["user_id"].tolist() == [1, 2, 3, 4]
    assert got["steps"].tolist() == [3, 1, 2, 3]


def test_dp_noise_formula_and_determinism(tmp_path):
    """noisy_n - n equals the documented inverse-CDF Laplace transform
    of the md5-seeded uniform, and repeated runs agree exactly."""
    import hashlib

    from odinson_ray.pipelines.queries.events import q_dp_event_counts

    rows = [(i, i, 1_600_000_000_000_000 + i, "view") for i in range(7)]
    rows += [(100 + i, i, 1_600_000_100_000_000 + i, "click")
             for i in range(4)]
    _write_events(tmp_path / "events.parquet", rows)
    got = (q_dp_event_counts(str(tmp_path)).to_pandas()
           .sort_values("event_type").reset_index(drop=True))
    for _, r in got.iterrows():
        u = int(hashlib.md5(r.event_type.encode()).hexdigest()[:15],
                16) / 2.0**60
        up = u - 0.5
        want = 0.0 if up == 0 else -math.copysign(1.0, up) * math.log(
            1 - 2 * abs(up))
        assert r.noisy_n == round(r.n + want, 6)
    again = (q_dp_event_counts(str(tmp_path)).to_pandas()
             .sort_values("event_type").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, again)


def test_ipc_roundtrip_row_fidelity(tmp_path):
    """Every row and dtype survives parquet -> IPC files -> Dataset."""
    from odinson_ray.sources.io import read_ipc, write_ipc_layout

    src = str(tmp_path / "documents.parquet")
    want = pa.table({
        "doc_id": pa.array(range(1000), pa.int64()),
        "lang": pa.array([["en", "fr", "zh"][i % 3] for i in range(1000)],
                         pa.string()),
        "n_chars": pa.array([i * 3 for i in range(1000)], pa.int64()),
    })
    pq.write_table(want, src)
    root = write_ipc_layout(src, ["doc_id", "lang", "n_chars"])
    assert os.path.exists(os.path.join(root, "_SUCCESS"))
    got = (read_ipc(root).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want.to_pandas())
    # cache hit: same root, no rebuild
    assert write_ipc_layout(src, ["doc_id", "lang", "n_chars"]) == root


def test_ipc_empty_layout_keeps_schema(tmp_path):
    from odinson_ray.sources.io import read_ipc, write_ipc_layout

    src = str(tmp_path / "documents.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array([], pa.int64()),
        "lang": pa.array([], pa.string()),
        "n_chars": pa.array([], pa.int64())}), src)
    root = write_ipc_layout(src, ["doc_id", "lang", "n_chars"])
    ds = read_ipc(root)
    assert ds.count() == 0
    assert set(ds.schema().names) == {"doc_id", "lang", "n_chars"}
