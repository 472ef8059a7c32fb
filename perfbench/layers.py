"""Outside-in layer tracing for the benchmark.

Timing wrappers are installed on the module and class attributes that the
engine looks up at call time, so no engine file changes. Each wrapper
opens a span; a layer's self time is its span time minus the time of the
spans nested inside it. Spans are aggregated per layer name as they close
(self time, calls, and per-layer counters) instead of being kept one by
one, so a traced run holds constant memory however many calls it makes.
"""

from __future__ import annotations

import collections
import functools
import time

#: (owner module path, attribute path) of a callable the engine resolves
#: at call time -> the layer name it is reported under
LAYERS = {
    ("odinson_ray.stages.match", "build_interleaved"): "sources.interleave_s",
    ("odinson_ray.stages.match", "annotate_texts_vectorized"): "annotate.vectorized_s",
    ("odinson_ray.stages.match", "sentence_index_from_struct"): "match.struct_decode_s",
    ("odinson_ray.stages.match", "GrammarMatcher.__call__"): "match.emit_s",
    ("odinson_ray.core.engine", "DocumentEngine.extract_mentions"): "engine.cascade_s",
    ("odinson_ray.core.matcher", "GraphTraversalQueryNode.matches"): "matcher.traversal_s",
    ("odinson_ray.core.matcher", "EventQueryNode.matches"): "matcher.event_s",
    ("odinson_ray.core.engine", "MemoryState.add_mentions"): "engine.state_add_s",
    ("odinson_ray.stages.triples", "svo_or_error_triples"): "triples.project_s",
    ("odinson_ray.stages.link", "map_unique_strings"): "link.map_unique_s",
    ("odinson_ray.stages.triples", "partial_count_triples"): "triples.partial_count_s",
    ("odinson_ray.core.matcher", "Compiler.compile"): "lang.compile_s",
    ("odinson_ray.core.matcher", "Compiler.compile_event_query"): "lang.compile_s",
    ("odinson_ray.api", "OdinsonEngine.query"): "api.query_self_s",
    # select_matches is imported by name into both callers' namespaces
    ("odinson_ray.core.engine", "select_matches"): "selector.select_s",
    ("odinson_ray.api", "select_matches"): "selector.select_s",
}


def _resolve(module_path: str, attr_path: str):
    import importlib

    owner = importlib.import_module(module_path)
    *parents, leaf = attr_path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, leaf


class Tracer:
    """Per-layer self time, call counts and counters for one traced run."""

    def __init__(self):
        self.self_s = collections.Counter()
        self.calls = collections.Counter()
        self.counts = collections.Counter()
        self._stack = []  # child time accumulated by each open span
        self._installed = []  # (owner, attr, original)
        self.enabled = False

    # -------------------------------------------------------------- spans

    def _span(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                if after is not None:
                    after(self.counts, args, out)
                return out
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                self.self_s[name] += dt - child
                self.calls[name] += 1
                if stack:
                    stack[-1] += dt

        return wrapper

    def install(self):
        """Patch every layer in LAYERS; ``uninstall`` restores them."""
        after = {
            "selector.select_s": _count_selected,
            "link.map_unique_s": _count_unique,
            "triples.partial_count_s": _count_combined,
            "triples.project_s": _count_triples,
            "annotate.vectorized_s": _count_sentences,
            "match.struct_decode_s": _count_decoded,
            "match.emit_s": _count_mentions,
        }
        for (mod, attr), name in LAYERS.items():
            owner, leaf = _resolve(mod, attr)
            orig = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            setattr(owner, leaf, self._span(name, orig, after.get(name)))
            self._installed.append((owner, leaf, orig))

    def uninstall(self):
        for owner, leaf, orig in reversed(self._installed):
            setattr(owner, leaf, orig)
        self._installed.clear()

    def wrap_rules(self, extractors) -> list:
        """Time each compiled rule's top query as ``engine.rule.<name>_s``;
        return those layer names."""
        names = []
        for ex in extractors:
            names.append(f"engine.rule.{ex.name}_s")
            ex.query = _RuleQuery(ex.query, self._span(names[-1], ex.query.matches))
        return names


class _RuleQuery:
    """Stand-in for an Extractor's query whose ``matches`` is timed."""

    def __init__(self, query, timed_matches):
        self._query = query
        self.matches = timed_matches

    def __getattr__(self, name):
        return getattr(self._query, name)


# ------------------------------------------------------------------ counters
# Each runs inside its span, on values the call already produced.

def _count_selected(counts, args, out):
    counts["selector.in"] += len(args[0])
    counts["selector.out"] += len(out)


def _count_unique(counts, args, out):
    import pyarrow.compute as pc

    col = args[0]
    counts["link.rows"] += len(col)
    counts["link.uniques"] += pc.count_distinct(col, mode="all").as_py()


def _count_combined(counts, args, out):
    counts["combine.in"] += args[0].num_rows
    counts["combine.out"] += out.num_rows


def _count_triples(counts, args, out):
    counts["count.triples"] += out.num_rows


def _count_sentences(counts, args, out):
    counts["count.sentences"] += len(out)


def _count_decoded(counts, args, out):
    counts["count.sentences"] += 1


def _count_mentions(counts, args, out):
    import pyarrow.compute as pc

    for row in pc.value_counts(out["label"]).to_pylist():
        if row["values"] is not None:
            counts["count.mentions." + row["values"]] += row["counts"]
