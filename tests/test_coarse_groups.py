"""stages/shuffle.coarse_groups: the one coarse-partition exchange. Pinned
against a per-key reference at one, three and the default number of
partitions, and guarded against hand-made partition columns and
duplicate query registrations growing back."""

import ast
import pathlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from odinson_ray.stages import shuffle
from odinson_ray.stages.shuffle import coarse_groups

PKG = pathlib.Path(__file__).resolve().parents[1] / "odinson_ray"
SCHEMA = pa.schema([("ki", pa.int64()), ("ks", pa.string()),
                    ("o", pa.int64()), ("v", pa.int64())])
KEY_SETS = (["ki"], ["ks"], ["ki", "ks"], ["ks", "ki"])


@st.composite
def blocks(draw):
    """1-3 Arrow blocks (some empty) of int and string keys with nulls,
    an order column with ties, and a value column."""
    out = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(0, 12))
        col = lambda s: draw(st.lists(s, min_size=n, max_size=n))  # noqa: E731
        out.append(pa.table({
            "ki": col(st.sampled_from([None, -1, 0, 1, 2, 1 << 40])),
            "ks": col(st.sampled_from([None, "", "a", "b", "é"])),
            "o": col(st.integers(-3, 3)),
            "v": col(st.integers(0, 9)),
        }, schema=SCHEMA))
    return out


def _sweep(keys):
    def fn(g: pa.Table) -> pa.Table:
        # the exchange's contract: rows arrive sorted by (keys, o desc)
        order = [(k, "ascending") for k in keys] + [("o", "descending")]
        assert g.take(pc.sort_indices(g, sort_keys=order)).equals(g)
        same = np.ones(g.num_rows - 1, dtype=bool)
        for k in keys:
            kv = np.asarray(g[k].to_pylist(), dtype=object)
            same &= kv[1:] == kv[:-1]
        starts = np.flatnonzero(np.concatenate(([True], ~same)))
        out = {k: g[k].take(pa.array(starts)) for k in keys}
        out["n"] = np.diff(np.append(starts, g.num_rows))
        out["s"] = np.add.reduceat(g["v"].to_numpy(), starts)
        out["top_o"] = g["o"].to_numpy()[starts]  # run's largest o
        return pa.table(out)
    return fn


def _reference(t: pa.Table, keys) -> pd.DataFrame:
    ref = t.to_pandas().groupby(keys, dropna=False).agg(
        n=("v", "size"), s=("v", "sum"), top_o=("o", "max")).reset_index()
    return _norm(ref, keys)


def _norm(df: pd.DataFrame, keys) -> pd.DataFrame:
    df = df[list(keys) + ["n", "s", "top_o"]].copy()
    for k in keys:
        df[k] = [None if pd.isna(x) else str(int(x)) if k == "ki" else x
                 for x in df[k]]
        df[k] = df[k].astype(str)
    return df.astype({"n": "int64", "s": "int64", "top_o": "int64"}) \
        .sort_values(list(keys)).reset_index(drop=True)


@pytest.mark.parametrize("parts", [1, 3, shuffle.COARSE_PARTS])
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=blocks(), keys=st.sampled_from(KEY_SETS))
def test_coarse_groups_matches_per_key_reference(ray_session, parts, data,
                                                 keys):
    import ray.data as rd

    whole = pa.concat_tables(data)
    if whole.num_rows == 0:
        return
    with pytest.MonkeyPatch.context() as m:
        m.setattr(shuffle, "COARSE_PARTS", parts)
        out = coarse_groups(rd.from_arrow(data), keys, _sweep(keys),
                            [("o", "descending")]).to_pandas()
    got = _norm(out, keys)
    # one row per key: no key was split across partitions
    assert not got.duplicated(list(keys)).any()
    pd.testing.assert_frame_equal(got, _reference(whole, keys))


def test_partition_ids_are_deterministic_and_key_only():
    """The tag depends on the key values alone: equal keys in differently
    typed or chunked batches land together, and nulls go to 0."""
    a = pa.table({"k": pa.array([5, None, 7], pa.int64())})
    b = pa.table({"k": pa.chunked_array([[7], [5]], pa.int64())})
    pa_ids = shuffle._partition_ids(a, ["k"], 64).to_pylist()
    pb_ids = shuffle._partition_ids(b, ["k"], 64).to_pylist()
    assert pa_ids[1] == 0
    assert (pa_ids[0], pa_ids[2]) == (pb_ids[1], pb_ids[0])
    s = pa.table({"k": ["x", None, "y"], "j": [1, 2, 1]})
    two = shuffle._partition_ids(s, ["k", "j"], 7).to_pylist()
    assert two[1] == 0
    assert two == shuffle._partition_ids(s, ["k", "j"], 7).to_pylist()


# ------------------------------------------------------------------ guards

HASH_CALLS = {"_splitmix64", "crc32", "hash_array", "md5", "_hash_values",
              "_partition_ids", "hash"}
LEGACY_TAGS = {"_p", "_gtp", "_kgk", "_gk"}


def _calls(node):
    for n in ast.walk(node):
        if isinstance(n, ast.Call):
            f = n.func
            yield f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)


def _is_partition_expr(expr, assigns):
    """True when ``expr``, with the local names it reads resolved through
    ``assigns``, takes a modulo of a hash. A one-element list literal
    (``pa.array([salt])``) is one row per batch, not a per-row id."""
    if (isinstance(expr, ast.Call) and expr.args
            and isinstance(expr.args[0], ast.List)
            and len(expr.args[0].elts) == 1):
        return False
    nodes, todo, seen = [], [expr], set()
    while todo:
        nd = todo.pop()
        nodes.append(nd)
        for n in ast.walk(nd):
            if isinstance(n, ast.Name) and n.id not in seen:
                seen.add(n.id)
                todo += assigns.get(n.id, [])
    hashed = any(c in HASH_CALLS for nd in nodes for c in _calls(nd))
    modded = any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mod)
                 for nd in nodes for n in ast.walk(nd))
    return hashed and modded


def _own_nodes(fn):
    """Nodes of ``fn``'s body, not descending into nested functions."""
    todo = list(fn.body)
    while todo:
        n = todo.pop()
        yield n
        if not isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda)):
            todo += list(ast.iter_child_nodes(n))


def _partition_columns(fn):
    """Columns ``fn`` itself builds as a modulo of a hash."""
    assigns, cols = {}, set()
    for n in _own_nodes(fn):
        if isinstance(n, ast.Assign):
            for tgt in n.targets:
                for t in ast.walk(tgt):
                    if isinstance(t, ast.Name):
                        assigns.setdefault(t.id, []).append(n.value)
    for n in _own_nodes(fn):
        pairs = []
        if isinstance(n, ast.Dict):
            pairs = zip(n.keys, n.values)
        elif (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
              and n.func.attr in ("append_column", "set_column")
              and len(n.args) >= 2):
            pairs = [(n.args[-2], n.args[-1])]
        for k, v in pairs:
            if (isinstance(k, ast.Constant) and isinstance(k.value, str)
                    and _is_partition_expr(v, assigns)):
                cols.add(k.value)
    return cols


def _hand_made_partition_groupbys(tree):
    """(line, columns) of each groupby on a column that a function in the
    same top-level function built as a modulo of a hash (or on one of the
    old partition-tag names)."""
    found = []
    for top in tree.body:
        if not isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        part_cols = set(LEGACY_TAGS)
        for fn in ast.walk(top):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                part_cols |= _partition_columns(fn)
        for n in ast.walk(top):
            if (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                    and n.func.attr == "groupby" and n.args):
                arg = n.args[0]
                cols = [e.value for e in (arg.elts if isinstance(arg, ast.List)
                                          else [arg])
                        if isinstance(e, ast.Constant)]
                bad = [c for c in cols if c in part_cols]
                if bad:
                    found.append((n.lineno, bad))
    return found


def test_no_hand_made_partition_groupby_outside_shuffle():
    """Hash-partitioned resolves go through ``coarse_groups``: no module
    but stages/shuffle.py groups on a column it built as a per-row hash
    modulo a partition count."""
    offenders = []
    for path in sorted(PKG.rglob("*.py")):
        if path == PKG / "stages" / "shuffle.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.relative_to(PKG)}:{ln} groupby{cols}"
                      for ln, cols in _hand_made_partition_groupbys(tree)]
    assert not offenders, offenders


def test_partition_guard_flags_the_hand_rolled_idiom():
    src = '''
def q(ds, parts):
    def add_part(t):
        u = t["user_id"].to_numpy().astype(np.uint64)
        p = (_splitmix64(u) % np.uint64(parts)).astype(np.int64)
        return t.append_column("_bkt", pa.array(p, pa.int64()))

    def salted(t):
        h = _hash_values(t["k"])
        return pa.table({"_s": pa.array([int(h[0] % 16)])})

    a = ds.map_batches(add_part).groupby("_bkt").map_groups(f)
    b = ds.map_batches(salted).groupby("_s").map_groups(f)
    return a, b
'''
    found = _hand_made_partition_groupbys(ast.parse(src))
    assert [cols for _, cols in found] == [["_bkt"]]


def test_no_query_name_registered_twice():
    """A name assigned twice in pipelines/ silently replaces the first
    definition (a dead query that still costs reading and upkeep)."""
    seen = {}
    for path in sorted((PKG / "pipelines").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for n in ast.walk(tree):
            names = []
            if isinstance(n, ast.Assign):
                for t in n.targets:
                    if (isinstance(t, ast.Subscript)
                            and isinstance(t.value, ast.Name)
                            and isinstance(t.slice, ast.Constant)):
                        names.append((t.value.id.lower(), t.slice.value))
            elif (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                  and n.func.attr == "update"
                  and isinstance(n.func.value, ast.Name)
                  and n.args and isinstance(n.args[0], ast.Dict)):
                names += [(n.func.value.id.lower(), k.value)
                          for k in n.args[0].keys
                          if isinstance(k, ast.Constant)]
            for reg, name in names:
                if reg in ("queries", "oracles"):
                    seen.setdefault((reg, name), []).append(
                        f"{path.name}:{n.lineno}")
    dup = {k: v for k, v in seen.items() if len(v) > 1}
    assert not dup, dup
