"""Round-4 batch-h operators: distributed covariance matrix (sufficient
statistics) and BFS frontier expansion. Covariance checked against
numpy's np.cov on the raw matrix; BFS against a hand-built graph with a
cycle, a diamond (two paths, min level must win) and an unreachable
node."""

import numpy as np
import pandas as pd
import pytest


@pytest.fixture(scope="module", autouse=True)
def _ray(ray_session):
    yield


def test_embedding_cov_matches_numpy(tmp_path):
    from odinson_ray.pipelines.queries.similarity import q_embedding_cov

    rng = np.random.default_rng(21)
    n, d = 700, 8
    x = rng.normal(size=(n, d)) @ rng.normal(size=(d, d))  # correlated dims
    pd.DataFrame({
        "vec_id": np.arange(n, dtype=np.int64),
        "embedding": [row.astype(np.float32).tolist() for row in x],
        "label": np.zeros(n, dtype=np.int32),
    }).to_parquet(tmp_path / "embeddings.parquet", index=False)
    got = q_embedding_cov(str(tmp_path))
    assert len(got) == d * (d + 1) // 2
    want = np.cov(x.astype(np.float32).astype(np.float64), rowvar=False,
                  bias=True)
    for _, r in got.iterrows():
        assert r["cov"] == pytest.approx(
            want[int(r["i"]) - 1, int(r["j"]) - 1], abs=1e-6)


def test_bfs_levels_min_distance(tmp_path, monkeypatch):
    """Seed S has the max out-degree; levels are MIN distance (diamond:
    D reachable at 2 via two paths stays level 2; cycle back to S does
    not re-add S; X unreachable from S is absent)."""
    import pyarrow as pa
    import ray.data as rd

    import odinson_ray.pipelines.queries.graph as Q

    edges = [("S", "A"), ("S", "B"), ("S", "C"),     # S outdeg 3 -> seed
             ("A", "D"), ("B", "D"),                 # diamond to D (level 2)
             ("D", "S"),                             # cycle back to seed
             ("D", "E"),                             # level 3
             ("X", "Y")]                             # disconnected
    trip = pa.table({
        "subj_canon": [s for s, _ in edges],
        "obj_canon": [o for _, o in edges],
    })

    import odinson_ray.pipelines.kg as kg_mod

    monkeypatch.setattr(kg_mod, "triples_dataset",
                        lambda sf_dir: rd.from_arrow(trip))
    got = (Q.q_kg_bfs_levels(str(tmp_path)).to_pandas()
           .set_index("entity")["level"].to_dict())
    assert got == {"S": 0, "A": 1, "B": 1, "C": 1, "D": 2, "E": 3}
