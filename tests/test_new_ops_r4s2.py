"""Batch s2 (queries5): KG schema-induction + ngram novelty."""

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

SF = "/root/testdata/sf0.001"


def test_functional_preds_consistency(ray_session):
    """n_subjects per pred must equal the distinct (pred, subj) count of
    the shared distinct-spo front end; rates bounded in [0, 1]."""
    from odinson_ray.pipelines.queries.graph import (_kg_distinct_spo,
                                                     q_kg_functional_preds)

    out = q_kg_functional_preds(SF).to_pandas()
    assert len(out) and (out.multi_rate.between(0, 1)).all()
    assert (out.n_multi <= out.n_subjects).all()
    spo = _kg_distinct_spo(SF).to_pandas()
    want = spo.groupby("pred").s.nunique()
    got = out.set_index("pred").n_subjects
    assert got.sort_index().equals(want.sort_index().astype("int64"))


def test_inverse_and_implications_confidence_bounds(ray_session):
    from odinson_ray.pipelines.queries.graph import (q_kg_inverse_candidates,
                                                     q_kg_rule_implications)

    inv = q_kg_inverse_candidates(SF).to_pandas()
    assert len(inv) and (inv.confidence <= 1.0 + 1e-9).all()
    imp = q_kg_rule_implications(SF).to_pandas()
    assert len(imp) and (imp.confidence <= 1.0 + 1e-9).all()
    assert (imp.r1 != imp.r2).all()


def test_path_patterns_nonempty_and_positive(ray_session):
    from odinson_ray.pipelines.queries.graph import q_kg_path_patterns

    out = q_kg_path_patterns(SF).to_pandas()
    assert len(out) and (out.n_paths > 0).all()


def test_ngram_novelty_synthetic(ray_session, tmp_path):
    """Two identical docs -> novelty 0 (every 5-gram shared); a doc with
    fully unique text -> 1; a short doc (<5 tokens) drops out."""
    from odinson_ray.pipelines.queries.text import q_ngram_novelty

    dup = "a b c d e f g h"
    uniq = "q w e r t y u i o p"
    df = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": [dup, dup, uniq, "too short"],
    })
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "documents.parquet"))
    out = q_ngram_novelty(str(tmp_path)).to_pandas().set_index("doc_id")
    assert out.loc[1, "novelty"] == 0.0
    assert out.loc[2, "novelty"] == 0.0
    assert out.loc[3, "novelty"] == 1.0
    assert 4 not in out.index
