"""Composable pipeline builder (SURVEY §2.10): the flagship chain
``read -> annotate -> match(grammar) -> triples -> canonicalize -> link
-> aggregate -> write`` with every stage injectable.

    from odinson_ray.pipelines.builder import Pipeline

    ds = (Pipeline(sf_dir)
          .rules(MY_GRAMMAR)                 # YAML grammar (vars optional)
          .match(concurrency=8)              # concurrent matcher tasks
          .transform(my_batch_fn)            # arbitrary extra stage(s)
          .canonicalize(edges=my_edges)      # optional equivalence edges
          .link(alias_table)                 # optional alias table
          .triples()                         # aggregate to (s,p,o) counts
          .build())                          # -> ray.data.Dataset
    # or: .write(out_dir) to end in a pred-partitioned parquet sink

Triples are projected from the grammar's ``SVO`` events, plus one
reserved ``__error__`` triple per failed document. Stages not configured
fall back to the flagship defaults: with none of annotator, transform,
edges or alias table set, an aggregating ``build`` runs the fused
``TripleCounter`` tasks of ``triples_dataset``; otherwise the mention
stream ends in ``kg.link_triples``. The grammar's ``variables`` reach
the matcher on every path. ``annotator`` switches between the inline
deterministic path (None, fastest — nothing nested crosses the object
store) and a two-stage heavy-model actor pool (a callable class, loaded
once per actor)."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from .kg import FLAGSHIP_RULES


class Pipeline:
    def __init__(self, sf_dir: str):
        self._sf_dir = sf_dir
        self._rules = FLAGSHIP_RULES
        self._variables: Optional[Dict[str, str]] = None
        self._annotator = None
        self._annotator_pool = 2
        self._concurrency = 4
        self._batch_size = 256
        self._transforms: List[Callable] = []
        self._canon_edges = ()
        self._alias_table = None
        self._aggregate = True

    # ------------------------------------------------------------ stages

    def rules(self, rules_yaml: str, variables: Optional[Dict[str, str]] = None):
        self._rules = rules_yaml
        self._variables = variables
        return self

    def annotator(self, annotator_cls, pool: int = 2):
        """Two-stage topology: a heavy annotator actor pool feeding the
        matcher through the object store (for model-backed annotation).
        Default (never called): annotation runs inline in the matcher."""
        self._annotator = annotator_cls
        self._annotator_pool = pool
        return self

    def match(self, concurrency: int = 4, batch_size: int = 256):
        self._concurrency = concurrency
        self._batch_size = batch_size
        return self

    def transform(self, fn: Callable):
        """Insert an arbitrary pyarrow-batch stage after the matcher."""
        self._transforms.append(fn)
        return self

    def canonicalize(self, edges=()):
        """Equivalence edges (surface pairs) merged by canonicalization."""
        self._canon_edges = edges
        return self

    def link(self, alias_table=None):
        self._alias_table = alias_table
        return self

    def triples(self, aggregate: bool = True):
        self._aggregate = aggregate
        return self

    # ------------------------------------------------------------ execution

    def mentions(self):
        """Build up to the mention stream (no KG tail)."""
        from ..stages.annotate import annotate_stage
        from ..stages.match import GrammarMatcher, match_batches
        from .kg import _read_docs

        if self._annotator is None:
            docs, concurrency = _read_docs(self._sf_dir), self._concurrency
        else:
            from ..sources.interleaved import read_interleaved

            # the annotator pool plus the matcher's concurrency must leave
            # >= 1 CPU for the read/consume tasks, or actors holding every
            # CPU starve them (clamp_pool covers the pool alone).
            # Shrink-and-warn beats hanging.
            pool_a, pool_m = self._annotator_pool, self._concurrency
            try:
                import ray

                cpus = (int(ray.cluster_resources().get("CPU", 0))
                        if ray.is_initialized() else 0)
            except Exception:
                cpus = 0
            if cpus and cpus < 3:
                # two pools + >=1 free CPU need at least 3 CPUs; flooring
                # both pools at 1 would still occupy every CPU and the
                # deadlock this guard exists for could occur (ADVICE r03)
                raise ValueError(
                    f"two-stage annotator topology needs >= 3 CPUs "
                    f"(have {cpus}): 1 per pool plus >= 1 free for task "
                    "stages; drop .annotator(...) to run annotation "
                    "inline in the matcher pool"
                )
            if cpus and pool_a + pool_m >= cpus:
                import warnings

                pool_a = max(1, min(pool_a, cpus - 2))
                pool_m = max(1, cpus - 1 - pool_a)
                assert pool_a + pool_m <= cpus - 1
                warnings.warn(
                    f"annotator+matcher pools resized to {pool_a}+{pool_m} "
                    f"to keep >=1 of {cpus} CPUs free for task stages "
                    "(streaming-executor deadlock otherwise)",
                    RuntimeWarning,
                )
            docs = annotate_stage(read_interleaved(self._sf_dir), self._annotator,
                                  concurrency=pool_a)
            concurrency = pool_m
        ds = match_batches(docs, GrammarMatcher, self._rules, self._variables,
                           concurrency=concurrency, batch_size=self._batch_size)
        for fn in self._transforms:
            ds = ds.map_batches(fn, batch_format="pyarrow")
        return ds

    def build(self):
        """Full chain -> Dataset of (canonical) triples."""
        from ..stages.match import match_batches
        from ..stages.triples import aggregate_triples, svo_or_error_triples
        from .kg import TripleCounter, _read_docs, link_triples

        if (self._aggregate and self._annotator is None and not self._transforms
                and not self._canon_edges and self._alias_table is None):
            # default shape: the fused TripleCounter tasks of
            # triples_dataset (identical output)
            partials = match_batches(_read_docs(self._sf_dir), TripleCounter, self._rules,
                                     self._variables, concurrency=self._concurrency,
                                     batch_size=self._batch_size)
            return aggregate_triples(partials, pre_counted=True)
        raw = self.mentions().map_batches(svo_or_error_triples,
                                          batch_format="pyarrow")
        ds = link_triples(raw, self._canon_edges, self._alias_table)
        return aggregate_triples(ds) if self._aggregate else ds

    def write(self, out_dir: str, partition_cols=("pred",)):
        ds = self.build()
        ds.write_parquet(out_dir, partition_cols=list(partition_cols))
        return ds
