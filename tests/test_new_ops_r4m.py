"""Round-4 batch-m operators: A-Priori frequent pairs, BPE merges."""

import collections

import numpy as np
import pyarrow as pa
import pytest


def _local_bpe(texts, k):
    """Reference twin: classic BPE over word frequencies, greedy
    left-to-right merge application, (count DESC, left ASC, right ASC)
    tie-break."""
    wf = collections.Counter()
    for t in texts:
        for w in t.split():
            wf[w] += 1
    vocab = {w: list(w) for w in wf}
    merges = []
    for _ in range(k):
        pc_ = collections.Counter()
        for w, syms in vocab.items():
            for a, b in zip(syms, syms[1:]):
                pc_[(a, b)] += wf[w]
        if not pc_:
            break
        best = sorted(pc_.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        (l, r), n = best
        merges.append((l, r, n))
        for w, syms in vocab.items():
            out, i = [], 0
            while i < len(syms):
                if i + 1 < len(syms) and syms[i] == l and syms[i + 1] == r:
                    out.append(l + r)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            vocab[w] = out
    return merges


def test_bpe_matches_local_twin(ray_session):
    import ray.data as rd

    from odinson_ray.stages.bpe import bpe_top_merges

    texts = [
        "the cat sat on the mat",
        "the cats scatter the mats",
        "a cat and a rat in a hat",
        "that cat is the fastest cat",
        "aaa aaab aab ab",  # overlap-greedy stress: runs of 'a'
    ] * 3
    ds = rd.from_arrow(pa.table({"text": pa.array(texts, pa.string())}))
    got = bpe_top_merges(ds, k=6)
    want = _local_bpe(texts, 6)
    rows = list(zip(got["left"].to_pylist(), got["right"].to_pylist(),
                    got["n"].to_pylist()))
    assert rows == want


def test_bpe_on_documents_runs(ray_session):
    from odinson_ray.pipelines.queries.text import q_bpe_merges

    t = q_bpe_merges("/root/testdata/sf0.001", k=3)
    assert t.num_rows == 3
    assert t["rank"].to_pylist() == [1, 2, 3]
    assert all(n > 0 for n in t["n"].to_pylist())


def test_apriori_prunes_infrequent_items(ray_session, tmp_path):
    """A pair of individually-frequent items below pair support is
    dropped; any pair touching an infrequent item never forms."""
    import pyarrow.parquet as pq

    from odinson_ray.pipelines.queries.text import q_apriori_pairs

    # 20 docs: x,y in all; z in 15 (frequent, pairs with x only 9 times);
    # q in 2 (infrequent item)
    docs = []
    for i in range(20):
        toks = ["x", "y"]
        if i < 15:
            toks.append("z")
        if i < 9:
            toks.append("w")
        if i < 2:
            toks.append("q")
        docs.append(" ".join(toks))
    t = pa.table({"doc_id": pa.array(range(20), pa.int64()),
                  "text": pa.array(docs, pa.string())})
    pq.write_table(t, tmp_path / "documents.parquet")

    rows = {(r["wa"], r["wb"]): r["n"]
            for r in q_apriori_pairs(str(tmp_path)).take_all()}
    # item support 0.75 -> x, y (20), z (15) frequent; w (9), q (2) not.
    # pair support 0.62*20 = 12.4 -> (x,y)=20, (x,z)=(y,z)=15 pass
    assert rows == {("x", "y"): 20, ("x", "z"): 15, ("y", "z"): 15}


def _local_session_spans(users, ts_us, gap_us):
    out = {}
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


def test_session_spans_cross_bucket_chains(ray_session):
    """Sessions chaining across MANY bucket boundaries (events every
    20 min with a 30-min gap and 1-hour buckets), a Zipfian-hot user,
    and exact-gap boundaries (gap == threshold stays one session)."""
    import ray.data as rd

    from odinson_ray.stages.window import session_spans

    H = 3_600 * 1_000_000
    rng = np.random.RandomState(2)
    users, ts = [], []
    # hot user: a 10-hour session of 20-min cadence crossing 10 buckets
    for i in range(31):
        users.append(1)
        ts.append(i * 20 * 60 * 1_000_000)
    # exact-gap pair: 1800s apart exactly -> same session
    users += [2, 2]
    ts += [5 * H, 5 * H + 1800 * 1_000_000]
    # random sparse users
    for _ in range(200):
        users.append(int(rng.randint(3, 10)))
        ts.append(int(rng.randint(0, 40) * 17 * 60 * 1_000_000))
    # dedupe exact (user, ts) collisions from the random block: ties are
    # legal but make the local twin's n_events ambiguous vs distinct rows
    seen = set()
    u2, t2 = [], []
    for u, t in zip(users, ts):
        if (u, t) not in seen:
            seen.add((u, t))
            u2.append(u)
            t2.append(t)

    ds = rd.from_arrow(pa.table({
        "user_id": pa.array(u2, pa.int64()),
        "ts": pa.array(np.array(t2, dtype=np.int64), pa.timestamp("us")),
    }))
    got = sorted((r["user_id"], r["session_start_us"], r["session_end_us"],
                  r["n_events"])
                 for r in session_spans(ds, key="user_id", ts="ts",
                                        gap_s=1800,
                                        bucket_s=3600).take_all())
    assert got == _local_session_spans(u2, t2, 1800 * 1_000_000)
    hot = [g for g in got if g[0] == 1]
    assert len(hot) == 1 and hot[0][3] == 31  # one unbroken session


def test_kg_negative_samples_invariants(ray_session):
    """Negatives are never real triples, never the true object or the
    subject itself, at most 2 per positive, attempts ordered first."""
    from odinson_ray.pipelines.kg import triples_dataset
    from odinson_ray.pipelines.queries.graph import q_kg_negative_samples

    sf = "/root/testdata/sf0.001"
    pos = {(r["subj_canon"], r["pred"], r["obj_canon"])
           for r in triples_dataset(sf).take_all()}
    rows = q_kg_negative_samples(sf).take_all()
    assert rows
    per_triple = {}
    for r in rows:
        t = (r["subj_canon"], r["pred"], r["obj_canon"])
        assert t in pos
        assert (r["subj_canon"], r["pred"], r["neg_obj"]) not in pos
        assert r["neg_obj"] != r["obj_canon"]
        assert r["neg_obj"] != r["subj_canon"]
        per_triple.setdefault(t, []).append(r["attempt"])
    assert all(len(v) <= 2 for v in per_triple.values())


def test_zonemap_skips_files(ray_session, tmp_path, monkeypatch):
    """A narrow range scan over a time-clustered layout opens strictly
    fewer files than the layout holds, and the result is exact."""
    import pyarrow.parquet as pq

    import odinson_ray.stages.layout as layout
    from odinson_ray.stages.layout import zonemap_layout, zonemap_scan

    monkeypatch.setattr(layout, "_CACHE_ROOT", str(tmp_path / "cache"))

    n = 10_000
    ts = (np.arange(n, dtype=np.int64) * 60_000_000)  # one per minute
    t = pa.table({
        "ts": pa.array(ts, pa.timestamp("us")),
        "v": pa.array(np.arange(n, dtype=np.int64)),
    })
    src = tmp_path / "events.parquet"
    pq.write_table(t, src)

    root = zonemap_layout(str(src), "ts", ["ts", "v"], n_shards=8)
    lo, hi = int(ts[2000]), int(ts[3000])
    ds, n_read, n_total = zonemap_scan(root, lo, hi)
    assert 0 < n_read < n_total
    vals = []
    for b in ds.iter_batches(batch_format="pyarrow"):
        us = b["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        keep = (us >= lo) & (us < hi)
        vals.extend(b["v"].to_numpy(zero_copy_only=False)[keep].tolist())
    assert sorted(vals) == list(range(2000, 3000))

    # a range outside the data skips everything
    ds2, n2, _ = zonemap_scan(root, int(ts[-1]) + 10**9,
                              int(ts[-1]) + 2 * 10**9)
    assert ds2 is None and n2 == 0


def test_daily_ffill_gaps(ray_session, tmp_path):
    """Gaps forward-fill from the latest prior day; the last event of a
    day (ts, event_id tie-break) supplies the day's value; single-day
    users emit one row."""
    import pyarrow.parquet as pq

    from odinson_ray.pipelines.queries.events import q_daily_ffill

    D = 86_400 * 1_000_000
    rows = [
        # user 1: day0 two events (later one wins), gap, day3
        (1, 10, 0 * D + 100, 5.0), (1, 11, 0 * D + 200, 7.0),
        (1, 12, 3 * D + 50, 9.0),
        # user 2: single day
        (2, 20, 5 * D, 1.25),
        # user 3: same-ts tie -> higher event_id wins
        (3, 30, 1 * D, 2.0), (3, 31, 1 * D, 3.0),
        (3, 32, 2 * D, 4.0),
    ]
    t = pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "event_id": pa.array([r[1] for r in rows], pa.int64()),
        "ts": pa.array(np.array([r[2] for r in rows], np.int64),
                       pa.timestamp("us")),
        "value": pa.array([r[3] for r in rows], pa.float64()),
    })
    pq.write_table(t, tmp_path / "events.parquet")
    got = sorted((r["user_id"], r["day_us"], r["ffill_value"])
                 for r in q_daily_ffill(str(tmp_path)).take_all())
    assert got == [
        (1, 0 * D, 7.0), (1, 1 * D, 7.0), (1, 2 * D, 7.0), (1, 3 * D, 9.0),
        (2, 5 * D, 1.25),
        (3, 1 * D, 3.0), (3, 2 * D, 4.0),
    ]
