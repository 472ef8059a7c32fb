"""Batch s3 (queries6): KG refinement — transitivity, composition
rules, majority-object fusion, entity profiles."""

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


def _spo_df():
    from odinson_ray.pipelines.queries.graph import _kg_distinct_spo

    return _kg_distinct_spo(SF).to_pandas()


def test_transitive_preds_matches_pandas(ray_session):
    """Cap is far above sf0.001 degrees, so an uncapped pandas twin must
    agree exactly."""
    from odinson_ray.pipelines.queries.graph import q_kg_transitive_preds

    out = (q_kg_transitive_preds(SF).to_pandas()
           .sort_values("pred").reset_index(drop=True))
    d = _spo_df()
    rows = []
    for p, g in d.groupby("pred"):
        hop = g.merge(g, left_on="o", right_on="s", suffixes=("_a", "_b"))
        pairs = set(zip(hop.s_a, hop.o_b))
        edges = set(zip(g.s, g.o))
        closed = len(pairs & edges)
        rows.append((p, len(pairs), closed, round(closed / len(pairs), 6)))
    want = (pd.DataFrame(rows, columns=["pred", "n_two_hop", "n_closed",
                                        "transitivity"])
            .sort_values("pred").reset_index(drop=True))
    pd.testing.assert_frame_equal(out, want, check_dtype=False)
    assert out.transitivity.between(0, 1).all()


def test_composition_rules_spot_check(ray_session):
    """Support/confidence bounds plus one exact pandas spot check of a
    single (r1, r2, r3) cell."""
    from odinson_ray.pipelines.queries.graph import q_kg_composition_rules

    out = q_kg_composition_rules(SF).to_pandas()
    assert len(out) and (out.confidence <= 1.0 + 1e-9).all()
    assert (out.support >= 1).all()

    d = _spo_df()
    hop = d.merge(d, left_on="o", right_on="s", suffixes=("_a", "_b"))
    r1, r2, r3 = out.iloc[0][["r1", "r2", "r3"]]
    body = hop[(hop.pred_a == r1) & (hop.pred_b == r2)]
    pairs = set(zip(body.s_a, body.o_b))
    heads = set(zip(d[d.pred == r3].s, d[d.pred == r3].o))
    assert out.iloc[0].support == len(pairs & heads)
    assert abs(out.iloc[0].confidence - round(len(pairs & heads) / len(pairs), 6)) < 1e-9


def test_majority_object_matches_pandas(ray_session):
    from odinson_ray.pipelines.queries.graph import (_weighted_spo,
                                                     q_kg_majority_object)

    out = q_kg_majority_object(SF).to_pandas()
    w = _weighted_spo(SF).to_pandas()
    top = (w.sort_values(["pred", "s", "w", "o"],
                         ascending=[True, True, False, True])
           .groupby(["pred", "s"], as_index=False).first())
    tot = w.groupby(["pred", "s"], as_index=False).agg(
        w_total=("w", "sum"), n_objs=("o", "nunique"))
    want = top.merge(tot, on=["pred", "s"])
    got = out.sort_values(["pred", "s"]).reset_index(drop=True)
    want = want.sort_values(["pred", "s"]).reset_index(drop=True)
    assert (got.top_obj == want.o).all()
    assert (got.w_top == want.w).all()
    assert (got.w_total == want.w_total).all()
    assert (got.n_objs == want.n_objs).all()
    assert np.allclose(got.agreement, (want.w / want.w_total).round(6))


def test_entity_profiles_consistency(ray_session):
    from odinson_ray.pipelines.queries.graph import (_weighted_spo,
                                                     q_kg_entity_profiles)

    out = q_kg_entity_profiles(SF).to_pandas()
    w = _weighted_spo(SF).to_pandas()
    assert len(out) == w.s.nunique()
    assert out.top_share.between(0, 1).all()
    per = w.groupby("s").agg(out_w=("w", "sum"), n_objs=("o", "nunique"),
                             n_preds=("pred", "nunique"))
    got = out.set_index("s").sort_index()
    assert got.out_w.equals(per.out_w.sort_index().astype("int64"))
    assert got.n_objs.equals(per.n_objs.sort_index().astype("int64"))
    assert got.n_preds.equals(per.n_preds.sort_index().astype("int64"))
