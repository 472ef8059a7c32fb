"""Property tests (hypothesis) for the round-4 sequential operators:
random streams vs driver-side twins. Few examples, small inputs — each
example executes a full Ray pipeline."""

import numpy as np
import pyarrow as pa
from hypothesis import given, settings, strategies as st


def _spans_twin(users, ts_us, gap_us):
    import collections

    by_u = collections.defaultdict(list)
    for u, t in zip(users, ts_us):
        by_u[u].append(t)
    spans = []
    for u, tss in by_u.items():
        tss.sort()
        start = prev = tss[0]
        n = 1
        for t in tss[1:]:
            if t - prev > gap_us:
                spans.append((u, start, prev, n))
                start, n = t, 0
            n += 1
            prev = t
        spans.append((u, start, prev, n))
    return sorted(spans)


@settings(max_examples=6, deadline=None)
@given(st.data())
def test_session_spans_property(ray_session, data):
    import ray.data as rd

    from odinson_ray.stages.window import session_spans

    n = data.draw(st.integers(5, 60))
    users = data.draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    # timestamps on a coarse grid so boundary-exact gaps occur often
    ts = data.draw(st.lists(st.integers(0, 40), min_size=n, max_size=n))
    gap_s = 900
    grid = gap_s * 1_000_000  # steps exactly one gap apart
    ts_us = [t * grid for t in ts]
    # dedupe (user, ts): duplicate instants make n_events ambiguous
    seen, u2, t2 = set(), [], []
    for u, t in zip(users, ts_us):
        if (u, t) not in seen:
            seen.add((u, t))
            u2.append(u)
            t2.append(t)

    ds = rd.from_arrow(pa.table({
        "user_id": pa.array(u2, pa.int64()),
        "ts": pa.array(np.array(t2, np.int64), pa.timestamp("us")),
    }))
    got = sorted(
        (r["user_id"], r["session_start_us"], r["session_end_us"],
         r["n_events"])
        for r in session_spans(ds, key="user_id", ts="ts", gap_s=gap_s,
                               bucket_s=3600).take_all())
    assert got == _spans_twin(u2, t2, gap_s * 1_000_000)


@settings(max_examples=6, deadline=None)
@given(st.data())
def test_record_highs_property(ray_session, data):
    import ray.data as rd

    from odinson_ray.pipelines.queries.events import record_high_counts

    n = data.draw(st.integers(3, 80))
    vals = data.draw(st.lists(
        st.integers(0, 15).map(float), min_size=n, max_size=n))
    grp = data.draw(st.lists(st.sampled_from(["a", "b"]),
                             min_size=n, max_size=n))
    width = data.draw(st.sampled_from([1, 3, 7, 64]))

    ds = rd.from_arrow(pa.table({
        "o": pa.array(range(n), pa.int64()),
        "x": pa.array(vals, pa.float64()),
        "g": pa.array(grp, pa.string()),
    }))
    got = {r["g"]: r["n_records"]
           for r in record_high_counts(ds, order="o", value="x", group="g",
                                       bucket_width=width).take_all()}
    want, wm = {}, -np.inf
    for v, g in zip(vals, grp):
        if v > wm:
            want[g] = want.get(g, 0) + 1
            wm = v
    assert got == want
