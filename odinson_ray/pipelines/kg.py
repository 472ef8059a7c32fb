"""Flagship pipeline: interleaved docs -> annotate -> match -> triples ->
canonicalize -> link (the full north-rule KG construction chain).

    read_parquet(documents)                      # pruned columnar read
      -> map_batches(build_interleaved)          # input-shape projection
      -> map_batches(DeterministicAnnotator)     # pluggable annotation
      -> match_batches(GrammarMatcher)           # per-doc cascade, no shuffle
      -> map_batches(svo_or_error_triples)       # SVO + __error__ projection
      -> link_triples:
           map_batches(canon_columns(broadcast edge roots))
           map_batches(link_columns(broadcast alias table))
      -> combine_aggregate (per-batch partial counts, then one task or,
         for a large output, groupby.aggregate(Sum))        # only wide op

``TripleCounter`` runs the same per-batch functions, match through
partial counts, inside one matcher task (the default of
``triples_dataset``).

The default grammar extracts (subject, verb, object) events over the
deterministic annotation layers plus maximal B-TECH entity runs.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from typing import Optional

from ..common.collector import collector_paused
from ..stages.canon import canon_columns, canonicalize_dataset
from ..stages.link import build_alias_table, link_columns, make_linker
from ..stages.match import GrammarMatcher, match_batches
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

    Blocks: ~2,500-doc blocks = matcher-task granularity. The streaming
    executor's single-threaded driver loop sustains only a few dozen
    task round-trips per second, so fine blocks starve a large
    cluster, while Ray's default ~128MB blocks (~300k docs) load-balance
    poorly across it (measured in bench.py). Capped at 64k blocks: past
    that, shard the job itself (state/checkpoint.py fragment runner)
    rather than asking one driver to track the block metadata."""
    from ..sources.io import document_read_columns, read_table, table_path

    path = table_path(sf_dir, "documents")
    cols = document_read_columns(path)
    nb = None
    if path.endswith(".parquet"):
        import pyarrow.parquet as pq

        rows = pq.read_metadata(path).num_rows
        nb = min(65536, max(1, rows // docs_per_block))
    return read_table(path, columns=cols, override_num_blocks=nb)


def mentions_dataset(sf_dir: str, rules_yaml: str = FLAGSHIP_RULES,
                     concurrency: Optional[int] = None, batch_size: int = 256,
                     docs_per_block: int = 5000):
    # annotation AND span interleaving run inline inside the matcher
    # tasks (deterministic annotator): neither the nested-annotation nor
    # the nested-spans Arrow column ships through the object store — the
    # matcher reads the flat raw documents table. Pre-annotated corpora can
    # insert annotate_batch / build_interleaved stages here instead.
    docs = _read_docs(sf_dir, docs_per_block)
    return match_batches(docs, GrammarMatcher, rules_yaml,
                         concurrency=concurrency, batch_size=batch_size)


class TripleCounter(GrammarMatcher):
    """Fused flagship matcher: annotate+match -> SVO filter -> triple
    projection -> canonicalize -> link -> per-batch partial counts, all
    inside one batch call.

    Emitting partial-count rows instead of mention rows removes the
    dominant object-store hop (the nested args mention table is ~10-40x
    the partial-count bytes) AND the downstream task dispatch per block —
    the driver's single-threaded scheduling loop is the measured headline
    ceiling, so halving the number of dispatched tasks shows up 1:1 in
    throughput.

    VALIDITY: only when canonicalization has NO extra equivalence edges —
    then the root map is empty and the identity alias table is built from
    no surfaces, so ``canon_columns`` and ``link_columns`` (the very
    functions ``link_triples`` maps over a Dataset) need no
    driver-coordinated broadcast. That is exactly the flagship
    configuration; ``triples_dataset`` takes the ``link_triples`` stage
    chain whenever checkpoints or unaggregated output are requested, and
    ``Pipeline.build`` whenever edges or an alias table are set."""

    #: the aggregation key tuple shared with stages/triples.aggregate_triples
    KEYS = ("subj_canon", "pred", "obj_canon", "subj", "obj")

    def __init__(self, rules_yaml: str, variables=None):
        super().__init__(rules_yaml, variables)
        self._alias = build_alias_table(())  # identity/open-world linking

    @collector_paused
    def __call__(self, batch):
        # imported per call: a tracer patches these module attributes
        from ..stages.triples import partial_count_triples, svo_or_error_triples

        mentions = super().__call__(batch)
        # failed docs flow as reserved error triples through the SAME
        # canon/link/aggregate chain as the unfused path
        return partial_count_triples(
            link_columns(canon_columns(svo_or_error_triples(mentions), {}),
                         self._alias),
            self.KEYS)


def count_triples(docs, rules_yaml: str = FLAGSHIP_RULES, concurrency: Optional[int] = None,
                  batch_size: int = 256):
    """Fused flagship over a raw documents Dataset: TripleCounter tasks ->
    combine_aggregate. Byte-identical aggregated output to the unfused
    chain (pinned by tests + the kg_triples oracle). ``concurrency`` caps
    the concurrent matcher tasks; uncapped (the default), Ray Data also
    fuses the combine's per-batch stage into them."""
    partials = match_batches(docs, TripleCounter, rules_yaml,
                             concurrency=concurrency, batch_size=batch_size)
    return aggregate_triples(partials, pre_counted=True)


def fused_triple_counts(sf_dir: str, rules_yaml: str = FLAGSHIP_RULES,
                        concurrency: Optional[int] = None, batch_size: int = 256,
                        docs_per_block: int = 5000):
    """:func:`count_triples` over the pruned documents read of ``sf_dir``."""
    return count_triples(_read_docs(sf_dir, docs_per_block), rules_yaml,
                         concurrency=concurrency, batch_size=batch_size)


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
    from ..sources.io import read_table

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
    return read_table(checkpoint_dir)


def link_triples(raw, edges=(), alias_table=None):
    """The Dataset tail of every unfused path: canonicalize the raw
    triples against ``edges``, then link them against ``alias_table``
    (default: the identity table over the edge-touched keys)."""
    import ray

    canon, roots = canonicalize_dataset(raw, extra_edges=edges)
    alias = alias_table if alias_table is not None else build_alias_table(roots.keys())
    return canon.map_batches(make_linker(ray.put(alias)), batch_format="pyarrow")


def triples_dataset(sf_dir: str, rules_yaml: str = FLAGSHIP_RULES,
                    concurrency: Optional[int] = None, batch_size: int = 256,
                    aggregate: bool = True,
                    checkpoint_dir: Optional[str] = None):
    """Full KG pipeline; returns the aggregated triple Dataset, or with
    ``aggregate=False`` the linked per-mention triples."""
    if aggregate and checkpoint_dir is None:
        # fused fast path (identical output, fewer dispatched tasks and
        # no nested-mentions object-store hop — see TripleCounter)
        return fused_triple_counts(sf_dir, rules_yaml, concurrency=concurrency,
                                   batch_size=batch_size)
    from ..stages.triples import svo_or_error_triples

    mentions = mentions_dataset(sf_dir, rules_yaml, concurrency=concurrency,
                                batch_size=batch_size)
    raw_triples = mentions.map_batches(svo_or_error_triples,
                                       batch_format="pyarrow")
    # The triple stream has exactly ONE consumer and flows end-to-end
    # with no pin and no spill; a parquet checkpoint of the raw stream
    # (write-to-temp + atomic rename, resumable) is inserted only when
    # the caller asks for one via ``checkpoint_dir``.
    if checkpoint_dir is not None:
        raw_triples = checkpoint_triples(raw_triples, checkpoint_dir)
    linked = link_triples(raw_triples)
    return aggregate_triples(linked) if aggregate else linked


def run_flagship(sf_dir: str, out_dir: Optional[str] = None, concurrency: Optional[int] = None,
                 partition_cols=("pred",)):
    """Flagship triples; when ``out_dir`` is given, write parquet
    hive-partitioned by predicate (SURVEY §2.1: pruning by pred at read
    time, and a failed run resumes per partition directory rather than
    re-writing one giant file)."""
    ds = triples_dataset(sf_dir, concurrency=concurrency)
    if out_dir:
        ds.write_parquet(out_dir, partition_cols=list(partition_cols))
    return ds
