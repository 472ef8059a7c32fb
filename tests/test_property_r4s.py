"""Property tests (hypothesis): this session's segmented operators vs
O(n²)/driver-side brute-force twins on small random streams."""

import os
import tempfile

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings, strategies as st

from odinson_ray.stages import shuffle


def _events_dir(users, ts_us, types=None):
    d = tempfile.mkdtemp(prefix="prop_sf_")
    n = len(users)
    df = pd.DataFrame({
        "event_id": np.arange(1, n + 1, dtype=np.int64),
        "user_id": np.asarray(users, dtype=np.int64),
        "event_type": types if types is not None else ["x"] * n,
        "value": np.zeros(n),
        "ts": pd.to_datetime(np.asarray(ts_us, dtype=np.int64), unit="us"),
        "props": ["{}"] * n,
    })
    tab = pa.Table.from_pandas(df, preserve_index=False)
    tab = tab.set_column(tab.column_names.index("ts"), "ts",
                         tab["ts"].cast(pa.timestamp("us")))
    pq.write_table(tab, os.path.join(d, "events.parquet"))
    return d


@settings(max_examples=5, deadline=None)
@given(st.data())
def test_user_active_time_property(ray_session, data):
    from odinson_ray.pipelines.queries.events import q_user_active_time

    n = data.draw(st.integers(3, 40))
    users = data.draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    # coarse grid: exact-window-boundary gaps occur often
    ts = data.draw(st.lists(st.integers(0, 30), min_size=n, max_size=n))
    L = 300 * 1_000_000
    ts_us = [t * L for t in ts]

    d = _events_dir(users, ts_us)
    got = dict(zip(*(lambda o: (o.user_id, o.active_us))(
        q_user_active_time(d).to_pandas())))

    exp = {}
    for u in set(users):
        tss = sorted(t for uu, t in zip(users, ts_us) if uu == u)
        total = L
        for a, b in zip(tss, tss[1:]):
            total += min(b - a, L)
        exp[u] = total
    assert got == exp


@settings(max_examples=5, deadline=None)
@given(st.data())
def test_window_join_property(ray_session, data):
    from odinson_ray.pipelines.queries.events import q_window_join_counts

    n = data.draw(st.integers(3, 30))
    users = data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    ts = data.draw(st.lists(st.integers(0, 10), min_size=n, max_size=n))
    types = data.draw(st.lists(st.sampled_from(["a", "b"]),
                               min_size=n, max_size=n))
    H = 3_600_000_000
    ts_us = [t * H for t in ts]  # boundary-exact windows

    d = _events_dir(users, ts_us, types)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(shuffle, "COARSE_PARTS", 4)
        out = q_window_join_counts(d).to_pandas()
    got = {(r.ta, r.tb): r.n for r in out.itertuples()}

    exp = {}
    rows = list(zip(range(1, n + 1), users, types, ts_us))
    for (ia, ua, ta, tsa) in rows:
        for (ib, ub, tb, tsb) in rows:
            if ua != ub:
                continue
            after = tsb > tsa or (tsb == tsa and ib > ia)
            if after and tsb <= tsa + H:
                exp[(ta, tb)] = exp.get((ta, tb), 0) + 1
    assert got == exp


@settings(max_examples=5, deadline=None)
@given(st.data())
def test_scd2_property(ray_session, data):
    from odinson_ray.pipelines.queries.relational import q_scd2_intervals

    n = data.draw(st.integers(2, 30))
    custs = data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    days = data.draw(st.lists(st.integers(0, 20), min_size=n, max_size=n))
    pris = data.draw(st.lists(st.sampled_from(["P1", "P2"]),
                              min_size=n, max_size=n))

    d = tempfile.mkdtemp(prefix="prop_sf_")
    df = pd.DataFrame({
        "o_orderkey": np.arange(1, n + 1, dtype=np.int64),
        "o_custkey": np.asarray(custs, dtype=np.int64),
        "o_orderstatus": ["F"] * n,
        "o_totalprice": np.ones(n),
        "o_orderdate": pd.to_datetime("2024-01-01")
        + pd.to_timedelta(days, unit="D"),
        "o_orderpriority": pris,
    })
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   os.path.join(d, "orders.parquet"))

    with pytest.MonkeyPatch.context() as m:
        m.setattr(shuffle, "COARSE_PARTS", 4)
        out = q_scd2_intervals(d).to_pandas()
    out = out.sort_values(["o_custkey", "valid_from"]).reset_index(drop=True)

    # twin: per cust, sort by (date, key), collapse runs
    exp_rows = []
    for c in sorted(set(custs)):
        sub = df[df.o_custkey == c].sort_values(
            ["o_orderdate", "o_orderkey"])
        runs = []
        for _, r in sub.iterrows():
            if runs and runs[-1][0] == r.o_orderpriority:
                runs[-1][2] += 1
            else:
                runs.append([r.o_orderpriority, r.o_orderdate, 1])
        for i, (p, frm, cnt) in enumerate(runs):
            to = runs[i + 1][1] if i + 1 < len(runs) else pd.NaT
            exp_rows.append((c, p, frm, to, cnt))
    exp = pd.DataFrame(exp_rows, columns=["o_custkey", "priority",
                                          "valid_from", "valid_to",
                                          "n_orders"])
    exp = exp.sort_values(["o_custkey", "valid_from"]).reset_index(drop=True)
    assert len(out) == len(exp)
    for a, b in zip(out.itertuples(), exp.itertuples()):
        assert (a.o_custkey, a.priority, a.n_orders) == \
            (b.o_custkey, b.priority, b.n_orders)
        assert pd.Timestamp(a.valid_from) == pd.Timestamp(b.valid_from)
        assert (pd.isna(a.valid_to) and pd.isna(b.valid_to)) or \
            pd.Timestamp(a.valid_to) == pd.Timestamp(b.valid_to)


@settings(max_examples=5, deadline=None)
@given(st.data())
def test_snm_pairs_property(ray_session, data):
    """stages/blocking.snm_pairs vs brute force over random ASCII keys,
    random window and adversarially tiny chunks (maximal boundary
    crossing). Keys collide on purpose (small alphabet) so ties and
    duplicate prefixes are exercised."""
    import ray.data as rd

    import pyarrow as pa

    from odinson_ray.stages.blocking import snm_pairs

    n = data.draw(st.integers(10, 60))
    keys = data.draw(st.lists(
        st.text(alphabet="abc", min_size=0, max_size=9),
        min_size=n, max_size=n))
    ids = list(range(1000, 1000 + n))
    window = data.draw(st.integers(2, 5))
    chunk = data.draw(st.integers(window - 1, 8))

    ds = rd.from_arrow(pa.table({
        "k": pa.array(keys, pa.string()),
        "i": pa.array(ids, pa.int64())}))
    got = {(r["a"], r["b"]) for r in snm_pairs(
        ds, key_col="k", id_col="i", window=window,
        chunk=chunk, n_buckets=8).take_all()}

    order = sorted(range(n), key=lambda j: (keys[j][:7], ids[j]))
    expect = set()
    for jj in range(n):
        for ii in range(max(0, jj - window + 1), jj):
            expect.add((ids[order[ii]], ids[order[jj]]))
    assert got == expect
