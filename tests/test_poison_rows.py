"""Poison-row containment: a failing document yields an __error__ row,
never a failed task (reference: per-file Try + continue,
extra/.../IndexDocuments.scala:85-98)."""

import pyarrow as pa
import pytest

RULES = """
rules:
  - name: eat
    label: Eat
    type: basic
    pattern: "ate"
"""


def _batch(bad_md: str):
    from odinson_ray.sources.interleaved import SPAN_TYPE

    def spans(text):
        return [{"kind": "text", "text": text, "media_ref": "", "offset": 0}]

    return pa.table({
        "doc_id": pa.array(["d1", "d2", "d3"], pa.string()),
        "spans": pa.array(
            [spans("Becky ate bears"), spans("Shadow ate mice"), spans("x y z")],
            pa.list_(SPAN_TYPE),
        ),
        "metadata_json": pa.array([None, bad_md, None], pa.string()),
    })


def test_poison_doc_becomes_error_row():
    from odinson_ray.stages.match import GrammarMatcher

    m = GrammarMatcher(RULES)
    out = m(_batch("{not json"))
    by_label = {}
    for row in out.to_pylist():
        by_label.setdefault(row["label"], []).append(row)
    # d2 fails wholesale (metadata parse precedes extraction): its Eat
    # mention is gone and exactly one error row stands in for the doc
    assert {r["doc_id"] for r in by_label["Eat"]} == {"d1"}
    errs = by_label[GrammarMatcher.ERROR_LABEL]
    assert len(errs) == 1 and errs[0]["doc_id"] == "d2"
    assert "JSONDecodeError" in errs[0]["found_by"]
    assert errs[0]["sent_id"] == -1


def test_poison_doc_raises_when_asked():
    from odinson_ray.stages.match import GrammarMatcher

    m = GrammarMatcher(RULES, on_error="raise")
    with pytest.raises(Exception):
        m(_batch("{not json"))


def test_error_rows_surface_in_fused_flagship_output():
    """Poison docs surface as ONE reserved error-triple key in the fused
    partial counts — the failure stream is part of the output, not only a
    log line (ADVICE r04 last mile)."""
    from odinson_ray.pipelines.kg import FLAGSHIP_RULES, TripleCounter

    out = TripleCounter(FLAGSHIP_RULES)(_batch("{bad"))
    assert "partial_n" in out.column_names  # chain survived the poison doc
    err = out.to_pandas().query("subj_canon == 'ent:__error__'")
    assert len(err) == 1
    row = err.iloc[0]
    assert (row.pred, row.subj, row.obj) == ("__error__", "__error__", "__error__")
    assert row.partial_n == 1  # exactly the one poisoned doc


def test_failed_batch_annotate_annotates_each_document_alone(monkeypatch):
    """When the batch-wide annotate raises, each document is annotated by
    itself: the one whose texts still fail becomes an error row, the
    others keep exactly their batch-path mentions."""
    import odinson_ray.stages.match as match
    from odinson_ray.pipelines.kg import FLAGSHIP_RULES
    from odinson_ray.sources.interleaved import SPAN_TYPE

    texts = ["scan rows cols now go", "the spark join a big table", "poison scan rows cols"]
    batch = pa.table({
        "doc_id": pa.array(["d1", "d2", "d3"], pa.string()),
        "spans": pa.array([[{"kind": "text", "text": t, "media_ref": "", "offset": 0}]
                           for t in texts], pa.list_(SPAN_TYPE)),
    })
    matcher = match.GrammarMatcher(FLAGSHIP_RULES, verbosity="all")
    want = matcher(batch).to_pylist()
    real = match.annotate_texts_vectorized

    def poisoned(sent_texts):
        if any(t.startswith("poison") for t in sent_texts):
            raise ValueError("poison text")
        return real(sent_texts)

    monkeypatch.setattr(match, "annotate_texts_vectorized", poisoned)
    got = matcher(batch).to_pylist()
    errors = [r for r in got if r["label"] == match.GrammarMatcher.ERROR_LABEL]
    assert [(r["doc_id"], r["found_by"]) for r in errors] == [("d3", "ValueError: poison text")]
    clean = [r for r in want if r["doc_id"] != "d3"]
    assert {r["doc_id"] for r in clean} == {"d1", "d2"}
    assert [r for r in got if r["doc_id"] != "d3"] == clean


def _poison_corpus(tmp_path, n_docs=20, n_poison=7):
    import numpy as np
    import pandas as pd

    df = pd.DataFrame({
        "doc_id": np.arange(n_docs, dtype=np.int64),
        # "scan" is VB with nsubj->rows dobj->cols in the deterministic
        # annotation, so every clean doc yields one SVO triple
        "text": ["scan rows cols now go"] * n_docs,
        "lang": ["en"] * n_docs,
        "source": ["src0"] * n_docs,
        # first n_poison docs carry unparseable metadata JSON
        "metadata_json": ["{not json"] * n_poison + [None] * (n_docs - n_poison),
    })
    df.to_parquet(f"{tmp_path}/documents.parquet", index=False)
    return str(tmp_path)


@pytest.mark.usefixtures("ray_session")
def test_flagship_reports_exact_error_count(tmp_path):
    """Poison corpus -> the AGGREGATED flagship output contains the
    reserved error row with n == the exact number of failed docs, on
    BOTH the fused and the unfused chain."""
    from odinson_ray.pipelines.kg import triples_dataset

    sf = _poison_corpus(tmp_path, n_docs=20, n_poison=7)

    fused = triples_dataset(sf).to_pandas()
    err_f = fused.query("subj_canon == 'ent:__error__'")
    assert len(err_f) == 1 and int(err_f.iloc[0].n) == 7

    # checkpoint_dir forces the unfused stage chain
    unfused = triples_dataset(
        sf, checkpoint_dir=f"{tmp_path}/ckpt").to_pandas()
    err_u = unfused.query("subj_canon == 'ent:__error__'")
    assert len(err_u) == 1 and int(err_u.iloc[0].n) == 7

    # fused and unfused agree on the full aggregated output
    cols = ["subj_canon", "pred", "obj_canon", "subj", "obj", "n"]
    a = fused[cols].sort_values(cols).reset_index(drop=True)
    b = unfused[cols].sort_values(cols).reset_index(drop=True)
    assert a.equals(b)


@pytest.mark.usefixtures("ray_session")
def test_clean_corpus_has_no_error_row(tmp_path):
    from odinson_ray.pipelines.kg import triples_dataset

    sf = _poison_corpus(tmp_path, n_docs=10, n_poison=0)
    out = triples_dataset(sf).to_pandas()
    assert out.query("subj_canon == 'ent:__error__'").empty
    assert len(out) > 0


@pytest.mark.usefixtures("ray_session")
def test_sharded_lineage_records_error_counts(tmp_path):
    """The checkpoint manifest's per-shard lineage carries the exact
    failed-doc count, and the written shard parquet contains the
    reserved error triples."""
    from odinson_ray.state.checkpoint import kg_run_sharded

    sf = _poison_corpus(tmp_path, n_docs=20, n_poison=7)
    out = f"{tmp_path}/kg_out"
    manifest = kg_run_sharded(sf, out, num_shards=2, concurrency=2)
    assert sum(rec["errors"] for rec in manifest.values()) == 7
    assert sum(rec["docs"] for rec in manifest.values()) == 20
    # triples metric excludes the error rows
    import pyarrow.dataset as pads

    for shard, rec in manifest.items():
        d = pads.dataset(f"{out}/shard={shard}")
        n_err = d.count_rows(filter=pads.field("pred") == "__error__")
        assert n_err == rec["errors"]
        assert d.count_rows() - n_err == rec["triples"]


def _sorted_triples(df):
    cols = ["subj_canon", "pred", "obj_canon", "subj", "obj", "n"]
    return df[cols].sort_values(cols).reset_index(drop=True)


@pytest.mark.usefixtures("ray_session")
def test_builder_staged_path_reports_exact_error_count(tmp_path):
    """A transform forces the builder off the fused path onto its
    mention stream + ``link_triples``; the failure stream must survive
    that path as it does the fused one."""
    from odinson_ray.pipelines.builder import Pipeline
    from odinson_ray.pipelines.kg import triples_dataset

    sf = _poison_corpus(tmp_path, n_docs=20, n_poison=7)
    staged = (Pipeline(sf).match(concurrency=2)
              .transform(lambda t: t).build().to_pandas())
    err = staged.query("subj_canon == 'ent:__error__'")
    assert len(err) == 1 and int(err.iloc[0].n) == 7
    fused = triples_dataset(sf).to_pandas()
    assert _sorted_triples(staged).equals(_sorted_triples(fused))


@pytest.mark.usefixtures("ray_session")
def test_provenance_reports_error_triple_doc_count(tmp_path):
    from odinson_ray.pipelines.queries.graph import q_kg_provenance

    sf = _poison_corpus(tmp_path, n_docs=20, n_poison=7)
    out = q_kg_provenance(sf).to_pandas()
    err = out.query("subj_canon == 'ent:__error__'")
    assert len(err) == 1
    assert err.iloc[0].pred == "__error__"
    assert int(err.iloc[0].n_docs) == 7
