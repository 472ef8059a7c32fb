"""Ray-level integration: span passthrough invariant, KG pipeline golden
triples, dedup/ANN components, checkpoint resume. Uses the session-scoped
Ray fixture (4 CPUs) and sf0.001."""

import os

import numpy as np
import pandas as pd
import pytest


@pytest.fixture(scope="module", autouse=True)
def _ray(ray_session):
    yield


def test_span_passthrough_invariant(sf_dir):
    """Per-row span-sequence equality: the engine must emit each row's
    spans with identical (kind, text, media_ref) in identical order."""
    import duckdb

    from odinson_ray.sources.interleaved import read_interleaved, spans_for_doc

    got = read_interleaved(sf_dir).limit(50).to_pandas()
    src = duckdb.sql(f"select doc_id, text from '{sf_dir}/documents.parquet'").df()
    expected = {f"doc-{int(r.doc_id):06d}": spans_for_doc(int(r.doc_id), r.text)
                for r in src.itertuples()}
    for row in got.itertuples():
        exp = expected[row.doc_id]
        assert len(row.spans) == len(exp)
        for got_sp, exp_sp in zip(row.spans, exp):
            assert (got_sp["kind"], got_sp["text"], got_sp["media_ref"], got_sp["offset"]) == (
                exp_sp["kind"], exp_sp["text"], exp_sp["media_ref"], exp_sp["offset"])


def test_kg_triples_golden_fixture():
    """Flagship grammar over the reference fixture corpus: triples derived
    from the becky-gummy-bears dependency graph."""
    from odinson_ray.core.engine import DocumentEngine
    from odinson_ray.core.sentence import AnnotatedDocument, SentenceIndex
    from odinson_ray.lang.rules import RuleReader
    from odinson_ray.sources.example_docs import DOCS

    rules = """
rules:
  - name: svo
    label: SVO
    type: event
    pattern: |
      trigger = [lemma=eat]
      subject = >nsubj []
      object = >dobj []
"""
    d = DOCS["becky-gummy-bears"]
    doc = AnnotatedDocument("b", [SentenceIndex(s["fields"], s["edges"], s["roots"])
                                  for s in d["sentences"]])
    mentions = DocumentEngine(doc).extract_mentions(RuleReader().compile_rule_string(rules))
    events = [m for m in mentions if m.label == "SVO"]
    assert len(events) == 1
    args = events[0].arguments()
    toks = doc.sentences[0].tokens()
    subj = " ".join(toks[args["subject"][0].start:args["subject"][0].end])
    obj = " ".join(toks[args["object"][0].start:args["object"][0].end])
    assert (subj, obj) == ("Becky", "bears")


def test_kg_pipeline_counts(sf_dir):
    from odinson_ray.pipelines.kg import triples_dataset

    df = triples_dataset(sf_dir, concurrency=2).to_pandas()
    assert len(df) > 0
    assert set(df.columns) == {"subj_canon", "pred", "obj_canon", "subj", "obj", "n"}
    assert (df.n >= 1).all()
    # canonical ids are normalized forms
    assert df.subj_canon.str.startswith("ent:").all()


def test_minhash_matches_exact_jaccard(sf_dir, monkeypatch):
    from odinson_ray.stages import shuffle
    from odinson_ray.stages.dedup import jaccard, minhash_lsh_pairs

    pairs = minhash_lsh_pairs(sf_dir, threshold=0.9).to_pandas()
    # verify returned pairs really have jaccard >= 0.9 (exact recheck)
    docs = pd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    lookup = dict(zip(docs.doc_id, docs.text))
    for row in pairs.itertuples():
        assert jaccard(lookup[row.a_id], lookup[row.b_id]) >= 0.9
    # and that high-jaccard planted duplicates are found
    exact = []
    ids = list(lookup)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            if jaccard(lookup[a], lookup[b]) >= 0.9:
                exact.append((min(a, b), max(a, b)))
    got = {(min(r.a_id, r.b_id), max(r.a_id, r.b_id)) for r in pairs.itertuples()}
    assert got == set(exact)
    # the distributed hash-join verify path (forced: broadcast size -1)
    # must return the identical pair set
    monkeypatch.setattr(shuffle, "BROADCAST_BYTES", -1)
    joined = minhash_lsh_pairs(sf_dir, threshold=0.9).to_pandas()
    got_j = {(min(r.a_id, r.b_id), max(r.a_id, r.b_id)) for r in joined.itertuples()}
    assert got_j == got


def test_simhash_finds_near_dups(sf_dir):
    from odinson_ray.stages.dedup import simhash_pairs

    pairs = simhash_pairs(sf_dir, max_hamming=6).to_pandas()
    assert {"a_id", "b_id", "hamming"} == set(pairs.columns)
    assert (pairs.hamming <= 6).all()


def test_ann_lsh_recall(sf_dir):
    from odinson_ray.stages.ann import brute_force_topk, lsh_topk

    emb = pd.read_parquet(f"{sf_dir}/embeddings.parquet")
    q = np.asarray(emb[emb.vec_id == 0].iloc[0].embedding, dtype=np.float64)
    exact = set(brute_force_topk(sf_dir, q, k=10).to_pandas().vec_id)
    approx = set(lsh_topk(sf_dir, q, k=10).to_pandas().vec_id)
    # the query's own bucket must contain the query itself
    assert 0 in approx
    assert len(approx) == 10
    # random (structureless) embeddings give chance-level LSH recall;
    # require overlap beyond the guaranteed query vector itself
    assert len(exact & approx) >= 2


def test_ann_lsh_never_lists_layout_dir(sf_dir, monkeypatch):
    """Probe discovery must come from the build-time manifest, never a
    driver-side listdir of the layout (VERDICT r02 item 5): listing the
    published layout is forbidden after the build."""
    import os as _os

    from odinson_ray.stages import ann

    emb = pd.read_parquet(f"{sf_dir}/embeddings.parquet")
    q = np.asarray(emb[emb.vec_id == 0].iloc[0].embedding, dtype=np.float64)
    layout = ann.build_bucket_layout(sf_dir)  # idempotent pre-build
    real_listdir = _os.listdir

    def guarded(path="."):
        if str(path).startswith(layout):
            raise AssertionError(f"listdir on published layout: {path}")
        return real_listdir(path)

    monkeypatch.setattr(_os, "listdir", guarded)
    got = ann.lsh_topk(sf_dir, q, k=10).to_pandas()
    assert len(got) == 10


def test_ann_layout_publish_never_deletes_complete(sf_dir):
    """A complete (_SUCCESS-marked) layout is never rmtree'd by a second
    builder racing in (ADVICE r02): the rebuild must return the existing
    layout with its manifest intact."""
    import json
    import os as _os

    from odinson_ray.stages import ann

    layout = ann.build_bucket_layout(sf_dir)
    marker = _os.path.join(layout, "_probe_marker")
    with open(marker, "w"):
        pass
    again = ann.build_bucket_layout(sf_dir)
    assert again == layout
    assert _os.path.exists(marker), "complete layout was deleted and rebuilt"
    with open(_os.path.join(layout, "_meta.json")) as fh:
        meta = json.load(fh)
    assert meta["buckets"], "manifest missing bucket entries"
    assert sum(b["rows"] for b in meta["buckets"].values()) == len(
        pd.read_parquet(f"{sf_dir}/embeddings.parquet")
    )


def test_checkpoint_resume(sf_dir, tmp_path):
    from odinson_ray.state.checkpoint import kg_run_sharded

    out = str(tmp_path / "kg_out")
    manifest = kg_run_sharded(sf_dir, out, num_shards=3, concurrency=2)
    assert len(manifest) == 3
    shard_dirs = sorted(d for d in os.listdir(out) if d.startswith("shard="))
    assert shard_dirs == ["shard=0", "shard=1", "shard=2"]

    # simulate a lost shard: remove its output and manifest line
    import json
    import shutil

    shutil.rmtree(os.path.join(out, "shard=1"))
    mpath = os.path.join(out, "_manifest.jsonl")
    lines = [l for l in open(mpath) if json.loads(l)["shard"] != "1"]
    open(mpath, "w").writelines(lines)

    before = {d: os.path.getmtime(os.path.join(out, d))
              for d in os.listdir(out) if d.startswith("shard=")}
    manifest2 = kg_run_sharded(sf_dir, out, num_shards=3, concurrency=2)
    assert len(manifest2) == 3
    assert os.path.isdir(os.path.join(out, "shard=1"))
    # untouched shards were not recomputed
    for d, mtime in before.items():
        assert os.path.getmtime(os.path.join(out, d)) == mtime


@pytest.mark.parametrize("num_shards", [2, 30])
def test_sharded_run_covers_sparse_doc_ids(tmp_path, num_shards):
    """Shards are doc_id ranges cut from the sorted doc_id column: with
    doc_ids 100-119 their union is the unsharded raw triple stream, and
    a range that holds no document writes an empty shard."""
    import pyarrow.dataset as pads

    from odinson_ray.pipelines.kg import mentions_dataset
    from odinson_ray.state.checkpoint import kg_run_sharded
    from odinson_ray.stages.triples import svo_or_error_triples

    words = ["scan", "join", "sort", "rows", "cols", "spark", "fast", "data"]
    pd.DataFrame({
        "doc_id": np.arange(100, 120, dtype=np.int64),
        "text": [" ".join(words[(d + k) % 8] for k in range(9)) for d in range(20)],
        "lang": ["en"] * 20, "source": ["src0"] * 20,
    }).to_parquet(tmp_path / "documents.parquet", index=False)
    sf = str(tmp_path)
    out = str(tmp_path / "kg_out")
    manifest = kg_run_sharded(sf, out, num_shards=num_shards, concurrency=2)
    assert len(manifest) == num_shards
    assert sum(rec["docs"] for rec in manifest.values()) == 20
    got = pd.concat([pads.dataset(f"{out}/shard={s}").to_table().to_pandas()
                     for s in manifest], ignore_index=True)
    want = mentions_dataset(sf).map_batches(
        svo_or_error_triples, batch_format="pyarrow").to_pandas()
    cols = sorted(want.columns)
    assert len(want) > 0 and sorted(got.columns) == cols
    assert got[cols].sort_values(cols).reset_index(drop=True).equals(
        want[cols].sort_values(cols).reset_index(drop=True))


def test_media_features_stub(sf_dir):
    from odinson_ray.stages.media import media_features

    df = media_features(sf_dir, concurrency=2).to_pandas()
    assert (df.kind != "text").all()
    assert ((df.kind != "image") | (df.width > 0)).all()
    assert ((df.kind != "audio") | (df.duration_s > 0)).all()


def test_salted_aggregate_equals_direct(sf_dir):
    """Salted two-stage aggregation is exact: equals the direct groupby."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from odinson_ray.stages.shuffle import salted_aggregate

    ds = rd.read_parquet(f"{sf_dir}/lineitem.parquet", columns=["l_returnflag", "l_quantity"])
    salted = (
        salted_aggregate(ds, "l_returnflag", "l_quantity", salt=8)
        .to_pandas().sort_values("l_returnflag").reset_index(drop=True)
    )
    direct = (
        ds.groupby("l_returnflag").aggregate(Sum("l_quantity", alias_name="total"))
        .to_pandas().sort_values("l_returnflag").reset_index(drop=True)
    )
    import pandas as pd

    pd.testing.assert_frame_equal(salted, direct)


def test_incremental_fragment_append(sf_dir, tmp_path):
    """Append-only refresh: a new input fragment is the only thing
    computed on the second run (the IncrementalOdinsonIndex analogue)."""
    import json

    from odinson_ray.state.checkpoint import kg_run_fragments

    out = str(tmp_path / "kg_inc")
    m1 = kg_run_fragments(sf_dir, out, [("f0", 0, 100), ("f1", 100, 200)], concurrency=2)
    assert set(m1) == {"f0", "f1"}
    before = {d: os.path.getmtime(os.path.join(out, d))
              for d in os.listdir(out) if d.startswith("shard=")}

    # a new fragment arrives
    m2 = kg_run_fragments(
        sf_dir, out, [("f0", 0, 100), ("f1", 100, 200), ("f2", 200, 300)], concurrency=2)
    assert set(m2) == {"f0", "f1", "f2"}
    assert os.path.isdir(os.path.join(out, "shard=f2"))
    for d, mtime in before.items():
        assert os.path.getmtime(os.path.join(out, d)) == mtime


def test_incremental_fragment_update_delete(sf_dir, tmp_path):
    """Update/delete refresh (IncrementalOdinsonIndex.scala:104-121 parity):
    one fragment's input rows change in place (detected by content version),
    another fragment is dropped (retract_missing). The re-run recomputes
    ONLY the changed fragment, removes the dropped one, and the surviving
    output matches a from-scratch run over the modified corpus exactly."""
    import shutil as _sh

    import pyarrow.parquet as pq

    from odinson_ray.state.checkpoint import (
        fragment_content_version, kg_run_fragments)

    # editable corpus copy: the update step rewrites documents.parquet
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    _sh.copy(os.path.join(sf_dir, "documents.parquet"), corpus / "documents.parquet")
    corpus = str(corpus)

    def frags(names):
        rng = {"f0": (0, 100), "f1": (100, 200), "f2": (200, 300)}
        return [(n, *rng[n], fragment_content_version(corpus, *rng[n]))
                for n in names]

    out = str(tmp_path / "kg_inc")
    m1 = kg_run_fragments(corpus, out, frags(["f0", "f1", "f2"]), concurrency=2)
    assert set(m1) == {"f0", "f1", "f2"}

    # in-place UPDATE of f1's rows + DELETE of f2
    t = pq.read_table(os.path.join(corpus, "documents.parquet"))
    df = t.to_pandas()
    sel = (df.doc_id >= 100) & (df.doc_id < 200)
    df.loc[sel, "text"] = "Alice Smith founded Acme Corp. " + df.loc[sel, "text"]
    import pyarrow as pa

    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   os.path.join(corpus, "documents.parquet"))

    f0_mtime = os.path.getmtime(os.path.join(out, "shard=f0"))
    m2 = kg_run_fragments(corpus, out, frags(["f0", "f1"]), concurrency=2,
                          retract_missing=True)
    assert set(m2) == {"f0", "f1"}
    assert not os.path.exists(os.path.join(out, "shard=f2"))  # retracted
    # unchanged fragment untouched; changed fragment recomputed
    assert os.path.getmtime(os.path.join(out, "shard=f0")) == f0_mtime

    # surviving output == a from-scratch run over the modified corpus
    scratch = str(tmp_path / "kg_scratch")
    kg_run_fragments(corpus, scratch, frags(["f0", "f1"]), concurrency=2)

    def load(d):
        import ray.data as rd

        return (rd.read_parquet(d, file_extensions=["parquet"]).to_pandas()
                .sort_values(["doc_id", "subj", "pred", "obj"])
                .reset_index(drop=True))

    pd.testing.assert_frame_equal(load(out), load(scratch))


def test_triples_checkpoint_resume(sf_dir, tmp_path):
    """Opt-in flagship checkpoint: same aggregated triples, and a re-run
    with the same checkpoint_dir reads the spilled parquet instead of
    re-running the matcher (the directory's mtime is untouched)."""
    import os

    from odinson_ray.pipelines.kg import triples_dataset

    ckpt = str(tmp_path / "triples_ckpt")
    streamed = triples_dataset(sf_dir, concurrency=2).to_pandas()
    ckpted = triples_dataset(sf_dir, concurrency=2, checkpoint_dir=ckpt).to_pandas()
    key = ["subj_canon", "pred", "obj_canon", "subj", "obj"]
    import pandas as pd

    pd.testing.assert_frame_equal(
        streamed.sort_values(key).reset_index(drop=True),
        ckpted.sort_values(key).reset_index(drop=True),
    )
    assert os.path.isdir(ckpt)
    stamp = os.stat(ckpt).st_mtime_ns
    again = triples_dataset(sf_dir, concurrency=2, checkpoint_dir=ckpt).to_pandas()
    assert os.stat(ckpt).st_mtime_ns == stamp  # resumed, not rewritten
    pd.testing.assert_frame_equal(
        ckpted.sort_values(key).reset_index(drop=True),
        again.sort_values(key).reset_index(drop=True),
    )


def test_ann_ivf_recall(sf_dir):
    """IVF-flat (k-means-bucketed) ANN: query's own vector is always in
    the probed nearest list; recall vs brute force beyond that on random
    embeddings comes from scanning nprobe/n_lists of the corpus."""
    from odinson_ray.stages.ann import brute_force_topk, ivf_topk

    emb = pd.read_parquet(f"{sf_dir}/embeddings.parquet")
    q = np.asarray(emb[emb.vec_id == 0].iloc[0].embedding, dtype=np.float64)
    exact = set(brute_force_topk(sf_dir, q, k=10).to_pandas().vec_id)
    approx = set(ivf_topk(sf_dir, q, k=10).to_pandas().vec_id)
    assert 0 in approx
    assert len(approx) == 10
    assert len(exact & approx) >= 2


def test_ann_ivf_never_lists_layout_dir(sf_dir, monkeypatch):
    """IVF probe discovery resolves from the build-time manifest, like
    LSH: no listdir of the published layout at query time."""
    import os as _os

    from odinson_ray.stages import ann

    emb = pd.read_parquet(f"{sf_dir}/embeddings.parquet")
    q = np.asarray(emb[emb.vec_id == 0].iloc[0].embedding, dtype=np.float64)
    layout = ann.build_ivf_layout(sf_dir)  # idempotent pre-build
    real_listdir = _os.listdir

    def guarded(path="."):
        if str(path).startswith(layout):
            raise AssertionError(f"listdir on published layout: {path}")
        return real_listdir(path)

    monkeypatch.setattr(_os, "listdir", guarded)
    got = ann.ivf_topk(sf_dir, q, k=10).to_pandas()
    assert len(got) == 10
