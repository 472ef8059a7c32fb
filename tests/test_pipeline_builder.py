"""Composable Pipeline builder (SURVEY §2.10)."""

import pyarrow as pa
import pyarrow.compute as pc


def _sorted(df):
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def test_builder_default_matches_flagship(ray_session, sf_dir):
    from odinson_ray.pipelines.builder import Pipeline
    from odinson_ray.pipelines.kg import triples_dataset

    a = Pipeline(sf_dir).match(concurrency=4).build().to_pandas()
    b = triples_dataset(sf_dir, concurrency=4).to_pandas()
    import pandas as pd

    pd.testing.assert_frame_equal(_sorted(a), _sorted(b))


def test_builder_injectable_transform_and_unaggregated(ray_session, sf_dir):
    from odinson_ray.pipelines.builder import Pipeline

    def drop_short(t: pa.Table) -> pa.Table:
        # keep only mentions that captured arguments (drops basic-rule rows)
        return t.filter(pc.greater(pc.list_value_length(t["args"]), 0))

    ds = (Pipeline(sf_dir)
          .match(concurrency=2)
          .transform(drop_short)
          .triples(aggregate=False)
          .build())
    df = ds.to_pandas()
    assert {"subj", "pred", "obj", "subj_canon", "obj_canon"} <= set(df.columns)
    assert len(df) > 0


def test_builder_two_stage_annotator(ray_session, sf_dir):
    from odinson_ray.pipelines.builder import Pipeline
    from odinson_ray.stages.annotate import DeterministicAnnotator

    # 4-CPU test session: the two actor pools TOGETHER must leave CPU
    # headroom for the read/consume tasks (the clamp_pool deadlock rule)
    ds = (Pipeline(sf_dir)
          .annotator(DeterministicAnnotator, pool=1)
          .match(concurrency=1)
          .build())
    a = ds.to_pandas()
    b = Pipeline(sf_dir).match(concurrency=2).build().to_pandas()
    import pandas as pd

    pd.testing.assert_frame_equal(_sorted(a), _sorted(b))


def test_builder_overcommitted_pools_shrink_not_hang(ray_session, sf_dir):
    import warnings

    from odinson_ray.pipelines.builder import Pipeline
    from odinson_ray.stages.annotate import DeterministicAnnotator

    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        ds = (Pipeline(sf_dir)
              .annotator(DeterministicAnnotator, pool=4)
              .match(concurrency=4)   # 4+4 pools on a 4-CPU session
              .build())
        n = ds.count()
    assert n > 0
    assert any("resized" in str(x.message) for x in w)


def test_builder_passes_rule_variables(ray_session, sf_dir):
    """``rules(yaml, variables)`` reaches the matcher on the fused and the
    staged path: a ``${verb}`` grammar gives the literal grammar's output."""
    import pandas as pd

    from odinson_ray.pipelines.builder import Pipeline

    grammar = """
rules:
  - name: svo
    label: SVO
    type: event
    pattern: |
      trigger = [word=%s]
      subject = >nsubj []
      object = >dobj []
"""
    with_var = Pipeline(sf_dir).rules(grammar % "${verb}", {"verb": "scan"}).match(concurrency=2)
    literal = Pipeline(sf_dir).rules(grammar % "scan").match(concurrency=2)
    a, b = with_var.build().to_pandas(), literal.build().to_pandas()
    assert len(b) > 0
    pd.testing.assert_frame_equal(_sorted(a), _sorted(b))
    cols = ["doc_id", "sent_id", "label", "start", "end", "text"]
    a, b = with_var.mentions().to_pandas()[cols], literal.mentions().to_pandas()[cols]
    assert len(b) > 0
    pd.testing.assert_frame_equal(_sorted(a), _sorted(b))
