"""Round-5 batch-1 operators: transitive closure, CUBE, first-touch
attribution — semantics pinned on hand-built inputs (the DuckDB oracles
are the driver-side gate)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest


@pytest.mark.usefixtures("ray_session")
def test_transitive_closure_cycle_and_chain():
    import pyarrow as pa
    import ray.data as rdata

    from odinson_ray.stages.graph import transitive_closure

    # chain a->b->c->d plus cycle x<->y
    edges = pa.table({
        "src": pa.array(["a", "b", "c", "x", "y"], pa.string()),
        "dst": pa.array(["b", "c", "d", "y", "x"], pa.string()),
    })
    got = {(r["src"], r["dst"])
           for r in transitive_closure(rdata.from_arrow(edges)).take_all()}
    expect = {("a", "b"), ("a", "c"), ("a", "d"),
              ("b", "c"), ("b", "d"), ("c", "d"),
              ("x", "y"), ("y", "x"),
              ("x", "x"), ("y", "y")}  # self-reach only through the cycle
    assert got == expect


@pytest.mark.usefixtures("ray_session")
def test_cube_totals_consistent(sf_dir):
    from odinson_ray.pipelines.queries.relational import q_cube_lineitem

    out = q_cube_lineitem(sf_dir).to_pandas()
    grand = out.query("l_returnflag == 'ALL' and l_linestatus == 'ALL'")
    assert len(grand) == 1
    base = out.query("l_returnflag != 'ALL' and l_linestatus != 'ALL'")
    assert np.isclose(base.sum_qty.sum(), grand.sum_qty.iloc[0])
    # each 1-dim rollup also sums to the grand total
    for col in ("l_returnflag", "l_linestatus"):
        other = ("l_linestatus" if col == "l_returnflag" else "l_returnflag")
        roll = out[(out[col] != "ALL") & (out[other] == "ALL")]
        assert np.isclose(roll.sum_qty.sum(), grand.sum_qty.iloc[0])


@pytest.mark.usefixtures("ray_session")
def test_attribution_window_and_ties(tmp_path):
    from odinson_ray.pipelines.queries.events import q_attribution_first_touch

    US = 1_000_000
    H = 3600 * US
    rows = [
        # user 1: view at t0, click at t0+1h, purchase at t0+2h
        # -> attributes to the view
        (10, 1, 0 * H, "view"),
        (11, 1, 1 * H, "click"),
        (12, 1, 2 * H, "purchase"),
        # user 2: an event JUST OUTSIDE the 24h window (25h before),
        # then an isolated purchase -> attributes to itself
        (20, 2, 0 * H, "view"),
        (21, 2, 25 * H, "purchase"),
        # user 3: boundary-inclusive — view exactly 24h before purchase
        (30, 3, 0 * H, "view"),
        (31, 3, 24 * H, "purchase"),
        # user 4: two events at the SAME ts -> min event_id wins
        (41, 4, 0 * H, "click"),
        (40, 4, 0 * H, "view"),
        (42, 4, 1 * H, "purchase"),
        # user 5: purchase then later events (never look forward)
        (50, 5, 0 * H, "purchase"),
        (51, 5, 1 * H, "view"),
    ]
    base = pd.Timestamp("2024-01-05").value // 1000  # us epoch
    df = pd.DataFrame(rows, columns=["event_id", "user_id", "off", "event_type"])
    df["ts"] = pd.to_datetime((base + df.off) * 1000)
    df = df.drop(columns=["off"])
    df.to_parquet(f"{tmp_path}/events.parquet", index=False)

    out = (q_attribution_first_touch(str(tmp_path))
           .to_pandas().set_index("event_id").sort_index())
    assert out.loc[12].first_event_id == 10 and out.loc[12].first_type == "view"
    assert out.loc[21].first_event_id == 21  # isolated: itself
    assert out.loc[31].first_event_id == 30  # 24h boundary inclusive
    assert out.loc[42].first_event_id == 40  # same-ts tie: min event_id
    assert out.loc[50].first_event_id == 50  # never attributes forward
    assert set(out.index) == {12, 21, 31, 42, 50}


@pytest.mark.usefixtures("ray_session")
def test_bowtie_all_four_parts():
    """Hand graph exercising every bow-tie class: cycle a<->b (the SCC,
    a is max-out-degree seed), i -> a (IN), b -> o (OUT), and an edge
    u -> w disconnected from the seed component (OTHER)."""
    import pyarrow as pa
    import ray.data as rdata

    from odinson_ray.stages.graph import bowtie_parts

    edges = pa.table({
        "src": pa.array(["a", "b", "i", "b", "a", "u"], pa.string()),
        "dst": pa.array(["b", "a", "a", "o", "o2", "w"], pa.string()),
    })
    got = {r["entity"]: r["part"]
           for r in bowtie_parts(rdata.from_arrow(edges), "a").take_all()}
    assert got == {"a": "SCC", "b": "SCC", "i": "IN",
                   "o": "OUT", "o2": "OUT", "u": "OTHER", "w": "OTHER"}


@pytest.mark.usefixtures("ray_session")
def test_compression_quality_twin(sf_dir):
    """Recompute twin for the no-oracle compressibility signal."""
    import zlib

    from odinson_ray.pipelines.queries.text import q_compression_quality

    out = (q_compression_quality(sf_dir).to_pandas()
           .set_index("doc_id").sort_index())
    docs = pd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"]).set_index("doc_id")
    assert len(out) == len(docs)
    sample = docs.sample(n=min(50, len(docs)), random_state=0)
    for did, row in sample.iterrows():
        b = row.text.encode("utf-8")
        assert out.loc[did, "raw_len"] == len(b)
        assert out.loc[did, "comp_len"] == len(zlib.compress(b, 6))
        assert out.loc[did, "comp_ratio"] == round(
            len(zlib.compress(b, 6)) / len(b), 6)
    # the signal separates: ratios vary across the corpus
    assert out.comp_ratio.nunique() > 10


@pytest.mark.usefixtures("ray_session")
def test_scc_decomposition_hand_graph():
    """Graph with two non-trivial SCCs, a connecting chain, and
    trim-only tails: {a,b,c} cycle, {x,y} cycle, c->x bridge,
    i->a (IN tail), y->o->o2 (OUT chain)."""
    import pyarrow as pa
    import ray.data as rdata

    from odinson_ray.stages.graph import scc_decomposition

    edges = pa.table({
        "src": pa.array(["a", "b", "c", "x", "y", "c", "i", "y", "o"],
                        pa.string()),
        "dst": pa.array(["b", "c", "a", "y", "x", "x", "a", "o", "o2"],
                        pa.string()),
    })
    got = {r["entity"]: r["scc_id"]
           for r in scc_decomposition(rdata.from_arrow(edges)).take_all()}
    assert got == {"a": "a", "b": "a", "c": "a",
                   "x": "x", "y": "x",
                   "i": "i", "o": "o", "o2": "o2"}

    # a chain longer than three trim rounds can peel, plus a 3-cycle:
    # trim hands what is left to the pivot phase instead of raising
    chain = [f"n{i}" for i in range(8)]
    edges = pa.table({
        "src": pa.array(chain[:-1] + ["a", "b", "c"], pa.string()),
        "dst": pa.array(chain[1:] + ["b", "c", "a"], pa.string()),
    })
    got = {r["entity"]: r["scc_id"]
           for r in scc_decomposition(rdata.from_arrow(edges),
                                      max_trim_rounds=3).take_all()}
    assert got == {**{v: v for v in chain}, "a": "a", "b": "a", "c": "a"}


@pytest.mark.usefixtures("ray_session")
def test_scc_decomposition_pivot_guard():
    """A pure 2-cycle chain forces pivot rounds (no trim applies after
    the tails are gone); the decomposition still terminates and labels
    each 2-cycle by its smaller member."""
    import pyarrow as pa
    import ray.data as rdata

    from odinson_ray.stages.graph import scc_decomposition

    srcs, dsts = [], []
    for i in range(2):
        srcs += [f"p{i}a", f"p{i}b"]
        dsts += [f"p{i}b", f"p{i}a"]
    got = {r["entity"]: r["scc_id"]
           for r in scc_decomposition(
               rdata.from_arrow(pa.table({
                   "src": pa.array(srcs, pa.string()),
                   "dst": pa.array(dsts, pa.string()),
               }))).take_all()}
    assert got == {f"p{i}{s}": f"p{i}a" for i in range(2) for s in "ab"}


@pytest.mark.usefixtures("ray_session")
def test_transitive_closure_deep_chain():
    """A 25-edge chain needs true path DOUBLING: +1-hop-per-round would
    exhaust max_rounds=20 (the regression the round-5 review caught)."""
    import pyarrow as pa
    import ray.data as rdata

    from odinson_ray.stages.graph import transitive_closure

    n = 26
    edges = pa.table({
        "src": pa.array([f"v{i:02d}" for i in range(n - 1)], pa.string()),
        "dst": pa.array([f"v{i + 1:02d}" for i in range(n - 1)], pa.string()),
    })
    got = transitive_closure(rdata.from_arrow(edges)).count()
    assert got == n * (n - 1) // 2  # all ordered pairs i < j


@pytest.mark.usefixtures("ray_session")
def test_scc_empty_graph():
    import pyarrow as pa
    import ray.data as rdata

    from odinson_ray.stages.graph import scc_decomposition

    empty = pa.table({"src": pa.array([], pa.string()),
                      "dst": pa.array([], pa.string())})
    out = scc_decomposition(rdata.from_arrow(empty))
    assert out.count() == 0
    assert set(out.schema().names) == {"entity", "scc_id"}
