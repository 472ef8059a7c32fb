"""broadcast_or_join: the broadcast path and the shuffle path give the
same frame. Every case runs twice, once at the default broadcast size and
once with ``shuffle.BROADCAST_BYTES`` at -1, which sends every right side
down the hash-join path."""

import pandas as pd
import pyarrow as pa
import pytest

from odinson_ray.stages import shuffle
from odinson_ray.stages.shuffle import broadcast_or_join

pytestmark = pytest.mark.usefixtures("ray_session")


def _frame(result) -> pd.DataFrame:
    df = result if isinstance(result, pd.DataFrame) else result.to_pandas()
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _both_paths(monkeypatch, run):
    """(default-path frame, forced-shuffle-path frame); asserts they are
    equal, column order included."""
    default = _frame(run())
    monkeypatch.setattr(shuffle, "BROADCAST_BYTES", -1)
    forced = _frame(run())
    monkeypatch.undo()
    pd.testing.assert_frame_equal(default, forced)
    return default


LEFT = pa.table({"k": pa.array([1, 1, 2, 3, None, 5], pa.int64()),
                 "v": pa.array([10, 11, 20, 30, 40, 50], pa.int64())})
# right key 0: a null left key must not match it on the broadcast path
RIGHT = pa.table({"rk": pa.array([1, 1, 2, None, 0], pa.int64()),
                  "v": pa.array([100, 101, 200, 300, 400], pa.int64()),
                  "w": pa.array(["a", "b", "c", "d", "e"], pa.string())})
LS = LEFT.schema
RS = RIGHT.schema


def _join(how, right=RIGHT):
    import ray.data

    return broadcast_or_join(ray.data.from_arrow(LEFT),
                             ray.data.from_arrow(right), on="k",
                             right_on="rk", how=how, left_schema=LS,
                             right_schema=RS)


def test_inner_duplicate_and_null_keys_suffix(monkeypatch):
    """Duplicate keys on both sides cross, null keys never match, and a
    right payload column named like a left one gets the suffix."""
    got = _both_paths(monkeypatch, lambda: _join("inner"))
    assert list(got.columns) == ["k", "v", "v_r", "w"]
    # key 1: two left rows x two right rows; key 2 once; nulls drop
    assert len(got) == 5
    assert sorted(got.k.tolist()) == [1, 1, 1, 1, 2]


def test_semi_keeps_matched_left_rows_once(monkeypatch):
    got = _both_paths(monkeypatch, lambda: _join("semi"))
    assert list(got.columns) == ["k", "v"]
    assert got.v.tolist() == [10, 11, 20]


def test_anti_keeps_unmatched_and_null_key_rows(monkeypatch):
    """NOT EXISTS: a null-key left row has no match, so anti keeps it."""
    got = _both_paths(monkeypatch, lambda: _join("anti"))
    assert list(got.columns) == ["k", "v"]
    assert sorted(got.v.tolist()) == [30, 40, 50]


@pytest.mark.parametrize("how,rows", [("inner", 0), ("semi", 0), ("anti", 6)])
def test_empty_right_side(monkeypatch, how, rows):
    got = _both_paths(monkeypatch, lambda: _join(how, RS.empty_table()))
    assert len(got) == rows


def test_string_key(monkeypatch):
    """Non-integer keys take the hash-join path at any size; the result
    is the same either way."""
    import ray.data

    left = pa.table({"s": ["x", "y", "y", None], "n": [1, 2, 3, 4]})
    right = pa.table({"s": ["y", "z"], "m": [20, 30]})

    def run():
        return broadcast_or_join(ray.data.from_arrow(left),
                                 ray.data.from_arrow(right), on="s")

    got = _both_paths(monkeypatch, run)
    assert got.to_dict("list") == {"s": ["y", "y"], "n": [2, 3],
                                   "m": [20, 20]}


def _nation_trade(sf):
    from odinson_ray.pipelines.queries.relational import q_nation_trade

    return q_nation_trade(sf)


def _tpch_q3(sf):
    from odinson_ray.pipelines.queries.relational import q_tpch_q3

    return q_tpch_q3(sf)


def _minhash_neardup(sf):
    from odinson_ray.stages.dedup import minhash_lsh_pairs

    return minhash_lsh_pairs(sf, threshold=0.9)


def _tfidf_top_term(sf):
    from odinson_ray.stages.text import tfidf_top_term

    return tfidf_top_term(sf)


def _embedding_neardup(sf):
    from odinson_ray.pipelines.queries.similarity import q_embedding_neardup

    return q_embedding_neardup(sf)


def _supplier_part_counts(sf):
    from odinson_ray.pipelines.queries.relational import q_supplier_part_counts

    return q_supplier_part_counts(sf)


@pytest.mark.parametrize("query", [
    _tpch_q3, _minhash_neardup, _tfidf_top_term, _embedding_neardup,
    _supplier_part_counts, _nation_trade], ids=lambda f: f.__name__[1:])
def test_query_paths_identical(monkeypatch, sf_dir, query):
    got = _both_paths(monkeypatch, lambda: query(sf_dir))
    assert len(got)  # non-degenerate at this scale


def test_broadcast_cache_keeps_most_recent(monkeypatch):
    """A worker's broadcast cache is an LRU: reading six distinct refs
    leaves at most four entries, the newest among them."""
    from collections import OrderedDict

    import numpy as np
    import ray

    from odinson_ray.stages import link

    monkeypatch.setattr(link, "_BROADCAST_CACHE", OrderedDict())
    refs = [ray.put(np.full(8, i)) for i in range(6)]
    for ref in refs:
        link.get_broadcast(ref)
    assert len(link._BROADCAST_CACHE) <= 4
    assert refs[-1].hex() in link._BROADCAST_CACHE
    assert link.get_broadcast(refs[-1])[0] == 5
