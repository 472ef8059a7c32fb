"""Session-5 batch F: indexed boolean-AND and proximity queries —
brute-force twins on a controlled corpus (the oracle gate covers the
real tables; these pin bucket routing + dedup + slop edges)."""

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq


def _write_docs(path, texts):
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * len(texts), pa.string()),
        "source": pa.array(["s"] * len(texts), pa.string()),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    }), str(path))


def test_indexed_and_dedup_and_all_clauses(tmp_path):
    """A sentence with repeated clause tokens appears ONCE; a sentence
    missing any clause never appears; matches across sentence
    boundaries don't count."""
    from odinson_ray.pipelines.queries.patterns import q_indexed_and_query

    filler = " ".join(["w"] * 17)
    texts = [
        f"aa bb cc {filler}",          # doc0 sent0: all three -> hit
        f"aa aa bb cc {filler[:-2]}",  # doc1 sent0: dups -> ONE row
        # doc2: aa,bb + 18 fillers fill sentence 0 (pos 0..19); cc lands
        # at pos 20 = sent1 -> miss
        f"aa bb {filler} w cc" + " x" * 19,
        f"aa cc {filler}",             # doc3: no bb -> miss
    ]
    _write_docs(tmp_path / "documents.parquet", texts)
    got = (q_indexed_and_query(str(tmp_path), tokens=("aa", "bb", "cc"))
           .to_pandas().sort_values(["doc_id", "sent_id"])
           .reset_index(drop=True))
    assert list(zip(got["doc_id"], got["sent_id"])) == [(0, 0), (1, 0)]


def test_indexed_near_slop_and_order(tmp_path):
    """Unordered: both (a before b) and (b before a) pairs emit; pairs
    past the slop or across sentences don't."""
    from odinson_ray.pipelines.queries.patterns import q_indexed_near_query

    #        pos: 0  1  2  3  4  5 ...
    texts = ["aa x bb x x aa " + " ".join(["y"] * 4)   # sent0 only
             + " " + "bb " + " ".join(["z"] * 19)]     # bb at sent1 pos0
    _write_docs(tmp_path / "documents.parquet", texts)
    got = (q_indexed_near_query(str(tmp_path), tok_a="aa", tok_b="bb",
                                slop=3)
           .to_pandas().sort_values(["pos_a", "pos_b"])
           .reset_index(drop=True))
    # aa@0 ~ bb@2 (|d|=2), aa@5 ~ bb@2 (|d|=3); sent1's bb pairs with
    # nothing (no aa in sent1)
    assert list(zip(got["pos_a"], got["pos_b"])) == [(0, 2), (5, 2)]
    assert set(got["sent_id"]) == {0}


def test_indexed_and_empty_and_missing_token(tmp_path):
    from odinson_ray.pipelines.queries.patterns import (q_indexed_and_query,
                                                        q_indexed_near_query)

    _write_docs(tmp_path / "documents.parquet", ["aa bb"])
    assert q_indexed_and_query(
        str(tmp_path), tokens=("aa", "zz")).count() == 0
    assert q_indexed_near_query(
        str(tmp_path), tok_a="aa", tok_b="zz").count() == 0
