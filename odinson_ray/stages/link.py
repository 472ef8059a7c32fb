"""Entity linking: alias-table candidate generation + deterministic scoring.

North-rule stage (not present in the reference; SURVEY §2.4 "entity linking
candidate join"). Pattern: the alias table is SMALL relative to the corpus,
so it is broadcast once (``ray.put`` on the driver, ``ray.get`` once per
actor in ``__init__``) and looked up per batch — a broadcast join, never a
shuffle.

Alias table shape: {normalized_surface: [(entity_id, prior), ...]} with
priors summing to 1 per surface. Disambiguation picks the argmax prior
(ties broken by entity_id) — a deterministic stand-in for context scoring;
the scoring hook receives (surface, doc_context) so a real scorer can slot
in without changing the stage.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import pyarrow as pa
import pyarrow.compute as pc

from ..common.normalize import normalize_unicode_aggressively


def canon_key(surface: str) -> str:
    """Normalization used for alias keys and canonicalization: aggressive
    unicode normalization + naive plural stripping."""
    s = normalize_unicode_aggressively(surface.strip())
    if len(s) > 3 and s.endswith("s") and not s.endswith("ss"):
        s = s[:-1]
    return s


def build_alias_table(surfaces) -> Dict[str, List[Tuple[str, float]]]:
    """Identity alias table over a surface vocabulary: every normalized
    surface maps to its canonical entity id with prior 1.0. Multi-candidate
    entries can be added by callers (e.g. from a KB dump)."""
    table: Dict[str, List[Tuple[str, float]]] = {}
    for s in surfaces:
        key = canon_key(s)
        table.setdefault(key, [("ent:" + key, 1.0)])
    return table


def link_surface(surface: str, alias_table: Dict[str, List[Tuple[str, float]]],
                 context: Optional[str] = None) -> str:
    """Candidate generation + argmax-prior disambiguation. Unknown surfaces
    get the deterministic fallback id (open-world linking)."""
    key = canon_key(surface)
    candidates = alias_table.get(key)
    if not candidates:
        return "ent:" + key
    return max(candidates, key=lambda c: (c[1], c[0]))[0]


def map_unique_strings(col, fn) -> pa.Array:
    """Apply a per-string Python fn to a string column with the fn running
    once per UNIQUE value: ``dictionary_encode`` (C++) factors the column
    into (indices, uniques), fn maps the uniques, ``take`` gathers back.
    Entity surfaces repeat massively in mention streams, so this turns an
    O(rows) Python loop into O(uniques) — the measured flagship downstream
    chain (canon + link) dropped severalfold with it. Null rows stay null."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    d = col.dictionary_encode()
    vals = [fn(s) for s in d.dictionary.to_pylist()]
    return pa.array(vals, pa.string()).take(d.indices)


# per-worker cache for broadcast objects fetched from the object store; a
# stateless map task resolves the ref once per worker process instead of
# reserving an actor slot (actor pools that cover every CPU starve the
# stateless read stages and deadlock the streaming executor). Values are
# zero-copy views that pin their object-store buffers, and warm workers
# serve job after job, so only the most recently used few are kept.
_BROADCAST_CACHE: "OrderedDict[str, object]" = OrderedDict()
_BROADCAST_CACHE_SIZE = 4


def get_broadcast(ref):
    """Resolve a ray.put ref once per worker process (LRU-cached)."""
    import ray

    if not isinstance(ref, ray.ObjectRef):
        return ref
    key = ref.hex()
    if key in _BROADCAST_CACHE:
        _BROADCAST_CACHE.move_to_end(key)
    else:
        _BROADCAST_CACHE[key] = ray.get(ref)
        while len(_BROADCAST_CACHE) > _BROADCAST_CACHE_SIZE:
            _BROADCAST_CACHE.popitem(last=False)
    return _BROADCAST_CACHE[key]


def link_columns(batch: pa.Table, alias_table, columns=("subj", "obj"),
                 suffix="_ent") -> pa.Table:
    """Append ``col + suffix`` = the linked entity id of each surface in
    ``columns``, one :func:`link_surface` call per unique surface."""
    for col in columns:
        linked = map_unique_strings(
            batch[col], lambda s: link_surface(s, alias_table)
        )
        batch = batch.append_column(col + suffix, linked)
    return batch


def make_linker(alias_table_ref, columns=("subj", "obj"), suffix="_ent"):
    """Stateless map_batches fn: :func:`link_columns` against the
    broadcast alias table. Fuses with neighboring stages; no actor CPU
    reservation."""

    def link_batch(batch: pa.Table) -> pa.Table:
        return link_columns(batch, get_broadcast(alias_table_ref), columns,
                            suffix)

    return link_batch
