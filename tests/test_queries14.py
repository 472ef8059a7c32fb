"""Session-5 batch G: boolean OR/NOT, Poisson bootstrap, federated
multi-format union — semantics + determinism pins."""

import numpy as np
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


def test_indexed_bool_or_and_not(tmp_path):
    """ANY-of matches either clause; the NOT clause vetoes the whole
    sentence even when an OR clause also hits; repeats dedup."""
    from odinson_ray.pipelines.queries.patterns import q_indexed_bool_query

    texts = [
        "aa x y",          # aa -> hit
        "bb bb y",         # bb twice -> ONE row
        "aa bb nn",        # nn vetoes
        "z z z",           # no clause -> miss
        "nn q",            # only the NOT token -> miss
    ]
    _write_docs(tmp_path / "documents.parquet", texts)
    got = (q_indexed_bool_query(str(tmp_path), any_of=("aa", "bb"),
                                none_of="nn")
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert list(zip(got["doc_id"], got["sent_id"])) == [(0, 0), (1, 0)]


def test_bootstrap_deterministic_and_weighted(tmp_path):
    """Replicate weights are a pure function of (event_id, replicate):
    two runs agree exactly, and each replicate's mean equals the
    hand-computed weighted mean."""
    import hashlib

    from odinson_ray.pipelines.queries.events import (_POIS_CDF,
                                                      q_bootstrap_means)

    vals = [2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
    pq.write_table(pa.table({
        "event_id": pa.array(range(6), pa.int64()),
        "ts": pa.array([1_600_000_000_000_000 + i for i in range(6)],
                       pa.timestamp("us")),
        "user_id": pa.array([0] * 6, pa.int64()),
        "event_type": pa.array(["view"] * 6, pa.string()),
        "value": pa.array(vals, pa.float64()),
        "props": pa.array(["{}"] * 6, pa.string()),
    }), str(tmp_path / "events.parquet"))
    got = (q_bootstrap_means(str(tmp_path), replicates=3).to_pandas()
           .sort_values("replicate").reset_index(drop=True))
    cdf = np.array(_POIS_CDF)
    for r in range(3):
        u = np.array([int(hashlib.md5(f"{e}-{r}".encode())
                          .hexdigest()[:15], 16) / 2.0**60
                      for e in range(6)])
        w = np.searchsorted(cdf, u, side="right")
        row = got[got.replicate == r].iloc[0]
        assert row.n_resampled == w.sum()
        assert row.boot_mean == round(float((w * np.array(vals)).sum()
                                            / w.sum()), 6)
    again = (q_bootstrap_means(str(tmp_path), replicates=3).to_pandas()
             .sort_values("replicate").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, again)


def test_federated_union_triples_counts(tmp_path):
    from odinson_ray.pipelines.queries.text import q_federated_union_counts

    _write_docs(tmp_path / "documents.parquet",
                ["aaa bbb", "cc", "dddd eee ff"])
    got = q_federated_union_counts(str(tmp_path)).to_pandas()
    assert got["lang"].tolist() == ["en"]
    assert got["n_docs"].tolist() == [9]
    assert got["chars"].tolist() == [3 * sum(
        len(t) for t in ["aaa bbb", "cc", "dddd eee ff"])]


def test_rag_chunks_overlap_and_ragged_tail(tmp_path):
    from odinson_ray.pipelines.queries.text import q_rag_chunks

    toks = [f"t{i}" for i in range(20)]
    _write_docs(tmp_path / "documents.parquet", [" ".join(toks), "solo"])
    got = (q_rag_chunks(str(tmp_path)).to_pandas()
           .sort_values(["doc_id", "chunk_id"]).reset_index(drop=True))
    d0 = got[got.doc_id == 0]
    assert d0["start_tok"].tolist() == [0, 8, 16]
    assert d0["n_tok"].tolist() == [16, 12, 4]
    assert d0["chunk"].tolist() == [" ".join(toks[0:16]),
                                    " ".join(toks[8:20]),
                                    " ".join(toks[16:20])]
    d1 = got[got.doc_id == 1]
    assert d1["chunk"].tolist() == ["solo"] and d1["n_tok"].tolist() == [1]
