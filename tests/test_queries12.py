"""Session-5 batch E: rolling ROWS-frame quantile + MI feature ranking
— frame-boundary semantics and empty-input guards (the oracle gate
covers corpus exactness)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _write_events(path, rows):
    pq.write_table(pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "user_id": pa.array([r[1] for r in rows], pa.int64()),
        "ts": pa.array([r[2] for r in rows], pa.timestamp("us")),
        "event_type": pa.array(["view"] * len(rows), pa.string()),
        "value": pa.array([r[3] for r in rows], pa.float64()),
        "props": pa.array(["{}"] * len(rows), pa.string()),
    }), str(path))


def test_rolling_p90_frame_never_crosses_users(tmp_path):
    """Each user's first rows see only their own short frame — the
    sliding-window mask must cut at run boundaries, including when two
    users are adjacent in the partition sort."""
    from odinson_ray.pipelines.queries.events import q_rolling_p90_value

    t0 = 1_600_000_000_000_000
    rows = ([(i, 1, t0 + i, float(v))
             for i, v in enumerate([1, 5, 2, 9, 3, 7, 4, 6])]
            + [(100 + i, 2, t0 + i, float(v))
               for i, v in enumerate([50, 10])])
    _write_events(tmp_path / "events.parquet", rows)
    got = (q_rolling_p90_value(str(tmp_path)).to_pandas()
           .sort_values("event_id").reset_index(drop=True))
    v1 = np.array([1.0, 5, 2, 9, 3, 7, 4, 6])
    want1 = [round(float(np.quantile(v1[max(0, i - 4):i + 1], 0.9)), 6)
             for i in range(8)]
    assert got[got.user_id == 1]["p90"].tolist() == want1
    # user 2's first row must NOT see user 1's tail
    assert got[got.user_id == 2]["p90"].tolist() == [50.0, 46.0]


def test_rolling_p90_empty(tmp_path):
    from odinson_ray.pipelines.queries.events import q_rolling_p90_value

    _write_events(tmp_path / "events.parquet", [])
    assert q_rolling_p90_value(str(tmp_path)).count() == 0


def test_feature_mi_independent_and_dependent(tmp_path):
    """MI is ~0 for a feature independent of the label and maximal
    (= label entropy) for one that determines it."""
    from odinson_ray.pipelines.queries.text import q_feature_mi

    # en docs: all vowels (vow_bin 9); zh docs: no vowels (vow_bin 0);
    # lengths identical across labels -> len_bin independent of y
    texts, langs = [], []
    for i in range(200):
        en = i % 2 == 0
        texts.append(("aaaa " * 20).strip() if en else ("zzzz " * 20).strip())
        langs.append("en" if en else "zh")
    pq.write_table(pa.table({
        "doc_id": pa.array(range(200), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(langs, pa.string()),
        "source": pa.array(["s"] * 200, pa.string()),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    }), str(tmp_path / "documents.parquet"))
    got = dict(zip(*[q_feature_mi(str(tmp_path)).to_pandas()[c]
                     for c in ("feature", "mi")]))
    assert got["len_bin"] == pytest.approx(0.0, abs=1e-9)
    assert got["vow_bin"] == pytest.approx(float(np.log(2)), abs=1e-6)


def test_feature_mi_empty(tmp_path):
    from odinson_ray.pipelines.queries.text import q_feature_mi

    pq.write_table(pa.table({
        "doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string()),
        "lang": pa.array([], pa.string()), "source": pa.array([], pa.string()),
        "n_chars": pa.array([], pa.int64())}),
        str(tmp_path / "documents.parquet"))
    assert q_feature_mi(str(tmp_path)).count() == 0
