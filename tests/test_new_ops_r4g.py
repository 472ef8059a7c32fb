"""Round-4 batch-g operators: grouped MAD (two-pass broadcast),
presence-flag EXCEPT, JSONL sink+source round trip."""

import numpy as np
import pandas as pd
import pytest


@pytest.fixture(scope="module", autouse=True)
def _ray(ray_session):
    yield


def _disc_median(v):
    """quantile_disc(0.5): sorted[ceil(n/2)-1]."""
    s = np.sort(np.asarray(v, dtype=np.float64))
    import math
    return float(s[max(1, math.ceil(0.5 * len(s))) - 1])


def test_value_mad_matches_reference(tmp_path):
    from odinson_ray.pipelines.queries.events import q_value_mad

    rng = np.random.default_rng(13)
    # odd- and even-sized groups, duplicate values to stress the
    # distinct-value histogram cumulative counts
    df = pd.DataFrame({
        "ts": pd.Timestamp("2024-01-01"),
        "event_type": ["a"] * 301 + ["b"] * 400,
        "value": np.round(np.concatenate([rng.uniform(0, 50, 301),
                                          rng.choice([1.5, 2.5, 9.0], 400)]), 2),
    })
    df["ts"] = df["ts"].astype("datetime64[us]")
    df.to_parquet(tmp_path / "events.parquet", index=False)
    got = q_value_mad(str(tmp_path)).to_pandas().set_index("event_type")
    for t, g in df.groupby("event_type"):
        m = _disc_median(g["value"])
        want = _disc_median(np.abs(g["value"].to_numpy() - m))
        assert got.loc[t, "mad"] == pytest.approx(want, abs=1e-12), t


def test_except_presence_flags(tmp_path):
    from odinson_ray.pipelines.queries.relational import q_urgent_not_low_custs

    df = pd.DataFrame({
        "o_custkey": np.array([1, 1, 2, 3, 3, 4], dtype=np.int64),
        "o_orderpriority": ["1-URGENT", "5-LOW",     # 1: both -> excluded
                            "1-URGENT",              # 2: urgent only -> kept
                            "5-LOW", "5-LOW",        # 3: low only -> excluded
                            "2-HIGH"],               # 4: neither -> excluded
    })
    df.to_parquet(tmp_path / "orders.parquet", index=False)
    got = q_urgent_not_low_custs(str(tmp_path)).to_pandas()
    assert list(got["o_custkey"]) == [2]


def test_jsonl_roundtrip_preserves_rows(tmp_path):
    from odinson_ray.pipelines.queries.formats import q_jsonl_roundtrip_langs

    df = pd.DataFrame({
        "doc_id": np.arange(50, dtype=np.int64),
        "lang": ["en", "de", "fr", "es", "pt"] * 10,
        "n_chars": np.arange(50, dtype=np.int64) * 7,
        "text": ["x"] * 50,
        "source": ["s"] * 50,
    })
    df.to_parquet(tmp_path / "documents.parquet", index=False)
    got = (q_jsonl_roundtrip_langs(str(tmp_path)).to_pandas()
           .set_index("lang"))
    ref = df.groupby("lang")["n_chars"].agg(["sum", "count"])
    for lang in ref.index:
        assert int(got.loc[lang, "sum_chars"]) == int(ref.loc[lang, "sum"])
        assert int(got.loc[lang, "n"]) == int(ref.loc[lang, "count"])
