"""PageRank with parquet-spilled iteration pins (VERDICT r03 #7)."""

import pandas as pd


def test_pagerank_spill_matches_default(ray_session, sf_dir, tmp_path):
    from odinson_ray.pipelines.queries.graph import q_pagerank_entities

    default = q_pagerank_entities(sf_dir).to_pandas()
    spilled = q_pagerank_entities(sf_dir, checkpoint_dir=str(tmp_path)).to_pandas()
    key = "entity"
    pd.testing.assert_frame_equal(
        default.sort_values(key).reset_index(drop=True),
        spilled.sort_values(key).reset_index(drop=True),
    )
    # the pins actually hit disk
    import os
    names = set(os.listdir(tmp_path))
    assert {"edges", "edges_d", "ranks_0", "ranks_2"} <= names
