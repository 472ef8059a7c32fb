"""Flagship pipeline: interleaved docs -> annotate -> match -> link ->
canonicalize -> triples (the full north-rule KG construction chain).

    read_parquet(documents)                      # pruned columnar read
      -> map_batches(build_interleaved)          # input-shape projection
      -> map_batches(DeterministicAnnotator)     # pluggable annotation
      -> map_batches(GrammarMatcher, actor pool) # per-doc cascade, no shuffle
      -> map_batches(mentions_to_triples)        # SVO projection
      -> canonicalize (distinct-vocab shuffle + broadcast back)
      -> map_batches(EntityLinker, broadcast alias table)
      -> partial-count combiner -> groupby.aggregate(Sum)   # only wide op

The default grammar extracts (subject, verb, object) events over the
deterministic annotation layers plus maximal B-TECH entity runs.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from typing import Optional

from ..stages.canon import canonicalize_dataset
from ..stages.link import build_alias_table, make_linker
from ..stages.match import GrammarMatcher
from ..stages.triples import aggregate_triples

FLAGSHIP_RULES = """
rules:
  - name: tech-entity
    label: Tech
    type: basic
    priority: "1"
    pattern: "[entity=B-TECH]+"
  - name: svo
    label: SVO
    type: event
    priority: "2"
    pattern: |
      trigger = [tag=VB]
      subject = >nsubj []
      object = >dobj []
"""


def _read_docs(sf_dir: str, docs_per_block: int):
    """Pruned flagship read of the documents table.

    Columns: the four the deterministic annotation path derives from
    (doc_id/text/lang/source) PLUS any caller-supplied metadata columns
    actually present in the file footer (``metadata``/``metadata_json``
    — GrammarMatcher carries them across build_interleaved, but pruning
    them at the read silently dropped a real corpus's metadata before
    round 5). The sniff reads only the footer; corpora without the
    columns (the testdata) pay nothing.

    Blocks: ~2,500-doc blocks = actor-task granularity. The streaming
    executor's single-threaded driver loop sustains only a few dozen
    actor-task round-trips per second, so fine blocks starve a large
    pool, while Ray's default ~128MB blocks (~300k docs) load-balance
    poorly across it (measured in bench.py). Capped at 64k blocks: past
    that, shard the job itself (state/checkpoint.py fragment runner)
    rather than asking one driver to track the block metadata."""
    from ..sources.io import document_read_columns, documents_path, read_table

    path = documents_path(sf_dir)
    cols = document_read_columns(path)
    nb = None
    if path.endswith(".parquet"):
        import pyarrow.parquet as pq

        rows = pq.read_metadata(path).num_rows
        nb = min(65536, max(1, rows // docs_per_block))
    return read_table(path, columns=cols, override_num_blocks=nb)


def mentions_dataset(sf_dir: str, rules_yaml: str = FLAGSHIP_RULES,
                     concurrency: int = 4, batch_size: int = 256,
                     docs_per_block: int = 5000):
    # annotation AND span interleaving run inline inside the matcher
    # actors (deterministic annotator): neither the nested-annotation nor
    # the nested-spans Arrow column ships through the object store — the
    # pool reads the flat raw documents table. Pre-annotated corpora can
    # insert annotate_batch / build_interleaved stages here instead.
    from ..stages.match import clamp_pool

    docs = _read_docs(sf_dir, docs_per_block)
    return docs.map_batches(
        GrammarMatcher,
        fn_constructor_args=(rules_yaml,),
        batch_format="pyarrow",
        concurrency=clamp_pool(concurrency),
        batch_size=batch_size,
        num_cpus=1,
    )


class TripleCounter(GrammarMatcher):
    """Fused flagship actor: annotate+match -> SVO filter -> triple
    projection -> canonicalize -> link -> per-batch partial counts, all
    inside one actor call.

    Emitting partial-count rows instead of mention rows removes the
    dominant object-store hop (the nested args mention table is ~10-40x
    the partial-count bytes) AND the downstream task dispatch per block —
    the driver's single-threaded scheduling loop is the measured headline
    ceiling, so halving the number of dispatched tasks shows up 1:1 in
    throughput.

    VALIDITY: only when canonicalization has NO extra equivalence edges —
    then the root map is empty, canon is the pure per-row function
    ``"ent:" + canon_key(s)``, and the identity alias table makes linking
    pure as well, so no driver-coordinated broadcast is needed. That is
    exactly the flagship configuration; ``triples_dataset`` falls back to
    the unfused stage chain whenever edges / checkpoints / unaggregated
    output are requested."""

    #: the aggregation key tuple shared with stages/triples.aggregate_triples
    KEYS = ("subj_canon", "pred", "obj_canon", "subj", "obj")

    def __init__(self, rules_yaml: str, variables=None):
        super().__init__(rules_yaml, variables)
        self._alias = build_alias_table(())  # identity/open-world linking

    def __call__(self, batch):
        from ..stages.link import canon_key, link_surface, map_unique_strings
        from ..stages.triples import partial_count_triples, svo_or_error_triples

        mentions = super().__call__(batch)
        # failed docs flow as reserved error triples through the SAME
        # canon/link/aggregate chain (shared projection with the
        # unfused path and the shard runners)
        t = svo_or_error_triples(mentions)
        for col in ("subj", "obj"):
            t = t.append_column(
                col + "_canon",
                map_unique_strings(t[col], lambda s: "ent:" + canon_key(s)),
            )
            # same linking work as the unfused chain (columns are dropped
            # by the aggregate keys, but throughput numbers stay honest)
            t = t.append_column(
                col + "_ent",
                map_unique_strings(t[col], lambda s: link_surface(s, self._alias)),
            )
        return partial_count_triples(t, self.KEYS)


def fused_triple_counts(sf_dir: str, rules_yaml: str = FLAGSHIP_RULES,
                        concurrency: int = 4, batch_size: int = 256,
                        docs_per_block: int = 5000):
    """Fused flagship: documents -> TripleCounter pool -> combine ->
    one small groupby. Byte-identical aggregated output to the unfused
    chain (pinned by tests + the kg_triples oracle)."""
    from ..stages.match import clamp_pool

    docs = _read_docs(sf_dir, docs_per_block)
    partials = docs.map_batches(
        TripleCounter,
        fn_constructor_args=(rules_yaml,),
        batch_format="pyarrow",
        concurrency=clamp_pool(concurrency),
        batch_size=batch_size,
        num_cpus=1,
    )
    return aggregate_triples(partials, pre_counted=True)


def checkpoint_triples(raw_triples, checkpoint_dir: Optional[str] = None):
    """Spill the raw-triple stream to a parquet checkpoint and stream it
    back as a fresh Dataset.

    Replaces the previous in-memory ``materialize()`` pin: the triple
    stream (consumed twice — canonicalization vocabulary pass + final
    aggregation) lives on disk, not in the object store, so the flagship
    never pins corpus-derived data in memory. Write-to-temp + atomic
    rename: the final directory's existence is the completion marker, and
    re-running with the same ``checkpoint_dir`` resumes by reading the
    completed checkpoint instead of re-running the matcher (the
    per-shard/manifest variant of the same pattern is
    state/checkpoint.py)."""
    from ..sources.io import clean_rd as rd

    if checkpoint_dir is None:
        checkpoint_dir = os.path.join(
            tempfile.mkdtemp(prefix="odinson_kg_ckpt_"), "triples"
        )
    if not os.path.isdir(checkpoint_dir):
        tmp = checkpoint_dir + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        raw_triples.write_parquet(tmp)
        if not any(f.endswith(".parquet") for f in os.listdir(tmp)):
            shutil.rmtree(tmp, ignore_errors=True)  # empty stream: nothing to spill
            return raw_triples
        os.replace(tmp, checkpoint_dir)
    return rd.read_parquet(checkpoint_dir)


def triples_dataset(sf_dir: str, rules_yaml: str = FLAGSHIP_RULES,
                    concurrency: int = 4, batch_size: int = 256,
                    aggregate: bool = True,
                    canonicalize: bool = True,
                    checkpoint_dir: Optional[str] = None):
    """Full KG pipeline; returns the aggregated triple Dataset."""
    import ray

    if aggregate and canonicalize and checkpoint_dir is None:
        # fused fast path (identical output, fewer dispatched tasks and
        # no nested-mentions object-store hop — see TripleCounter)
        return fused_triple_counts(sf_dir, rules_yaml, concurrency=concurrency,
                                   batch_size=batch_size)
    from ..stages.triples import svo_or_error_triples

    mentions = mentions_dataset(sf_dir, rules_yaml, concurrency=concurrency,
                                batch_size=batch_size)
    raw_triples = mentions.map_batches(svo_or_error_triples,
                                       batch_format="pyarrow")
    if not canonicalize:
        return raw_triples
    # Since canonicalization needs no whole-corpus vocabulary pass (the
    # broadcast side is edge-derived only), the triple stream has exactly
    # ONE consumer and flows end-to-end with no pin and no spill. A
    # parquet checkpoint (write-to-temp + atomic rename, resumable) is
    # inserted only when the caller asks for one via ``checkpoint_dir``.
    if checkpoint_dir is not None:
        raw_triples = checkpoint_triples(raw_triples, checkpoint_dir)
    canon_ds, mapping = canonicalize_dataset(raw_triples, columns=("subj", "obj"))
    alias_ref = ray.put(build_alias_table(mapping.keys()))
    linked = canon_ds.map_batches(
        make_linker(alias_ref, ("subj", "obj")), batch_format="pyarrow"
    )
    if not aggregate:
        return linked
    return aggregate_triples(linked)


def run_flagship(sf_dir: str, out_dir: Optional[str] = None, concurrency: int = 4,
                 partition_cols=("pred",)):
    """Flagship triples; when ``out_dir`` is given, write parquet
    hive-partitioned by predicate (SURVEY §2.1: pruning by pred at read
    time, and a failed run resumes per partition directory rather than
    re-writing one giant file)."""
    ds = triples_dataset(sf_dir, concurrency=concurrency)
    if out_dir:
        ds.write_parquet(out_dir, partition_cols=list(partition_cols))
        return ds
    return ds
