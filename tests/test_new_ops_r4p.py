"""Unit pins for batch p: edge triangle support, LLR collocations,
distributed PCA."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq


def test_pca_matches_exact_numpy(tmp_path):
    from odinson_ray.pipelines.queries.similarity import q_pca_topcomp

    rng = np.random.default_rng(11)
    d, n = 8, 4000
    # anisotropic cloud with a known dominant direction
    base = rng.normal(size=(n, d))
    base[:, 2] *= 6.0
    base += rng.normal(size=d)  # nonzero mean: PCA must center
    df = pd.DataFrame({
        "vec_id": np.arange(n),
        "embedding": [r.astype(np.float32).tolist() for r in base],
        "label": np.zeros(n, dtype=np.int32),
    })
    tab = pa.Table.from_pandas(df, preserve_index=False)
    tab = tab.set_column(1, "embedding",
                         tab["embedding"].cast(pa.list_(pa.float32())))
    pq.write_table(tab, str(tmp_path / "embeddings.parquet"))

    out = q_pca_topcomp(str(tmp_path))
    got = out.sort_values("dim").loading.to_numpy()

    x = np.asarray([np.asarray(v, dtype=np.float64)
                    for v in df.embedding])
    cov = np.cov(x, rowvar=False, bias=True)
    w, v = np.linalg.eigh(cov)
    exp = v[:, -1]
    nz = np.flatnonzero(np.abs(exp) > 1e-12)
    if exp[nz[0]] < 0:
        exp = -exp
    assert np.allclose(got, exp, atol=1e-5)
    assert np.isclose(out.eigenvalue.iloc[0], w[-1], rtol=1e-5)
    # dominant axis is the stretched one
    assert np.argmax(np.abs(got)) == 2


def test_llr_known_contingency(tmp_path):
    from odinson_ray.pipelines.queries.text import q_collocations_llr

    # corpus engineered so ('new','york') has k11=6, and marginals are
    # hand-computable
    texts = (["new york"] * 6 + ["new day"] * 2 + ["old york"] * 1
             + ["old day"] * 3)
    df = pd.DataFrame({
        "doc_id": range(len(texts)), "text": texts,
        "lang": ["en"] * len(texts), "source": ["s"] * len(texts),
        "n_chars": [len(t) for t in texts],
    })
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "documents.parquet"))
    out = q_collocations_llr(str(tmp_path), min_count=5).to_pandas()
    assert set(zip(out.w1, out.w2)) == {("new", "york")}
    k11, n1, c1, N = 6.0, 8.0, 7.0, 12.0
    k12, k21, k22 = n1 - k11, c1 - k11, N - n1 - c1 + k11

    def s(x):
        return x * np.log(x) if x > 0 else 0.0

    exp = 2 * (s(k11) + s(k12) + s(k21) + s(k22)
               - s(n1) - s(N - n1) - s(c1) - s(N - c1) + s(N))
    assert np.isclose(out.llr.iloc[0], round(exp, 6), atol=1e-6)


def test_edge_support_triangle_plus_tail():
    # triangle a-b-c plus pendant edge c-d: triangle edges support=1,
    # pendant 0 — via the stage helpers directly on a synthetic edge set
    import ray

    from odinson_ray.stages.graph import orient_by_degree

    edges = ray.data.from_arrow(pa.table({
        "lo": ["a", "a", "b", "c"],
        "hi": ["b", "c", "c", "d"],
    }))
    # smoke the orientation (the query path is oracle-checked at sf0.01)
    o = orient_by_degree(edges).to_pandas()
    assert len(o) == 4
