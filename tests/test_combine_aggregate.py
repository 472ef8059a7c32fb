"""stages/shuffle.partial_aggregate + combine_aggregate: the one
map-side-combine primitive. Pinned against a single ``pa.Table.group_by``
over the concatenated input, and guarded against the hand-rolled
``TableGroupBy`` combiner pattern growing back."""

import ast
import pathlib

import pyarrow as pa
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from odinson_ray.stages import shuffle
from odinson_ray.stages.shuffle import combine_aggregate, partial_aggregate

ALL_OPS = [("s", "v", "sum"), ("c", "v", "count"), ("n", None, "count_all"),
           ("mn", "v", "min"), ("mx", "v", "max")]


@st.composite
def batches(draw, null_keys=True):
    """(batches, keys, aggs): several batches (some empty) with null keys
    and null values — a key whose values are all null is common — over
    integer or string keys, with every op or the distinct form."""
    str_keys = draw(st.booleans())
    key_vals = st.sampled_from((["a", "b", "c"] if str_keys else [0, 1, 2])
                               + ([None] if null_keys else []))
    two_keys = draw(st.booleans())
    schema = pa.schema([("k", pa.string() if str_keys else pa.int64()),
                        ("k2", pa.int64()), ("v", pa.int64())])
    out = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(0, 8))
        out.append(pa.table({
            "k": draw(st.lists(key_vals, min_size=n, max_size=n)),
            "k2": draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n)),
            "v": draw(st.lists(st.one_of(st.none(), st.integers(-5, 5)),
                               min_size=n, max_size=n)),
        }, schema=schema))
    keys = ["k", "k2"] if two_keys else ["k"]
    aggs = draw(st.sampled_from([ALL_OPS, [], [ALL_OPS[0], ALL_OPS[3]]]))
    return out, keys, aggs


def reference(tables, keys, aggs) -> pa.Table:
    t = pa.concat_tables(tables)
    spec = [([] if c is None else c, op) for _, c, op in aggs]
    agg = t.group_by(keys).aggregate(spec)
    # pa.Table.group_by names outputs "<col>_<op>"; select them in order
    names = ["count_all" if c is None else f"{c}_{op}" for _, c, op in aggs]
    return agg.select(keys + names).rename_columns(
        keys + [o for o, _, _ in aggs])


def rows(t: pa.Table):
    return sorted(map(tuple, (r.values() for r in t.to_pylist())),
                  key=lambda r: [(x is None, x) for x in r])


@settings(max_examples=150, deadline=None)
@given(batches())
def test_partial_aggregate_matches_group_by(case):
    tables, keys, aggs = case
    want = rows(reference(tables, keys, aggs))
    whole = partial_aggregate(pa.concat_tables(tables), keys, aggs)
    assert whole.column_names == keys + [o for o, _, _ in aggs]
    assert rows(whole) == want
    # per-batch partials merged by each op's merge rule give the same rows
    parts = pa.concat_tables([partial_aggregate(t, keys, aggs) for t in tables])
    merge = {"sum": "sum", "count": "sum", "count_all": "sum",
             "min": "min", "max": "max"}
    merged = partial_aggregate(parts, keys,
                               [(o, o, merge[op]) for o, _, op in aggs])
    assert rows(merged) == want


def key_order(t_rows, n_keys):
    return sorted(t_rows, key=lambda r: r[:n_keys])


def check_combine_aggregate(case):
    import ray.data

    tables, keys, aggs = case
    want = key_order(rows(reference(tables, keys, aggs)), len(keys))
    got = combine_aggregate(ray.data.from_arrow(tables), keys, aggs).take_all()
    assert [tuple(r.values()) for r in got] == want
    if got:
        assert list(got[0]) == keys + [o for o, _, _ in aggs]


# Ray's sort-based groupby cannot order null keys against non-null ones,
# so the distributed form draws non-null keys (values may still be null).
# At its default gate the small partials take the one-task plan; at gate 0
# every input takes the multi-level groupby plan. Both emit key order.
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(batches(null_keys=False))
def test_combine_aggregate_matches_group_by(ray_session, case):
    check_combine_aggregate(case)


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(batches(null_keys=False))
def test_combine_aggregate_multi_level_matches_group_by(ray_session, monkeypatch, case):
    monkeypatch.setattr(shuffle, "SINGLE_TASK_ROWS", 0)
    check_combine_aggregate(case)


def test_combine_aggregate_bare_string_key(ray_session):
    import ray.data

    ds = ray.data.from_arrow([pa.table({"k": ["b", "a", "b"], "v": [1, 2, 3]}),
                              pa.table({"k": ["a"], "v": [4]})])
    got = combine_aggregate(ds, "k", [("s", "v", "sum")]).take_all()
    assert got == [{"k": "a", "s": 6}, {"k": "b", "s": 4}]


def test_partials_above_gate_take_groupby_plan(ray_session, monkeypatch):
    """More combined partial rows than the gate: the finish is the
    distributed groupby (an Aggregate), not the one-task merge."""
    import ray.data
    from ray.data._internal.logical.operators.all_to_all_operator import Aggregate

    ds = ray.data.from_arrow([pa.table({"k": list(range(i, i + 4)), "v": [1] * 4})
                              for i in range(0, 12, 2)])
    # 24 rows over 14 keys: at least 14 partial rows whatever the bundling
    want = [{"k": k, "n": sum(i <= k < i + 4 for i in range(0, 12, 2))}
            for k in range(14)]
    monkeypatch.setattr(shuffle, "SINGLE_TASK_ROWS", 13)
    above = combine_aggregate(ds, ["k"], [("n", None, "count_all")])
    assert isinstance(above._logical_plan.dag, Aggregate)
    assert above.take_all() == want
    monkeypatch.setattr(shuffle, "SINGLE_TASK_ROWS", 24)
    at = combine_aggregate(ds, ["k"], [("n", None, "count_all")])
    assert not isinstance(at._logical_plan.dag, Aggregate)
    assert at.take_all() == want


def test_key_order_assertion_fires(monkeypatch):
    """pyarrow emitting aggregate columns before the group keys must fail
    loudly instead of silently mislabeling columns."""

    real = pa.TableGroupBy

    class MisorderedGroupBy:
        def __init__(self, table, keys):
            self.table, self.keys = table, keys

        def aggregate(self, spec):
            out = real(self.table, self.keys).aggregate(spec)
            return out.select(out.column_names[len(self.keys):]
                              + out.column_names[:len(self.keys)])

    t = pa.table({"k": ["a", "b", "a"], "v": [1, 2, 3]})
    ok = partial_aggregate(t, ["k"], [("s", "v", "sum")])
    assert ok.column_names == ["k", "s"]
    monkeypatch.setattr(pa, "TableGroupBy", MisorderedGroupBy)
    with pytest.raises(AssertionError):
        partial_aggregate(t, ["k"], [("s", "v", "sum")])


def _table_groupby_callers(root: pathlib.Path):
    """(file, line, enclosing function) of every ``TableGroupBy(...)`` call
    and every ``.group_by(...)`` Arrow method call under ``root``."""
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        stack = []

        def visit(node):
            is_fn = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            if is_fn:
                stack.append(node.name)
            if isinstance(node, ast.Call):
                f = node.func
                name = (f.attr if isinstance(f, ast.Attribute)
                        else f.id if isinstance(f, ast.Name) else None)
                if name in ("TableGroupBy", "group_by"):
                    found.append((path.relative_to(root.parent).as_posix(),
                                  node.lineno, stack[-1] if stack else None))
            for child in ast.iter_child_nodes(node):
                visit(child)
            if is_fn:
                stack.pop()

        visit(tree)
    return found


def test_single_table_groupby_in_package():
    """Every per-batch Arrow groupby goes through partial_aggregate; a
    hand-rolled combiner elsewhere in the package fails here."""
    root = pathlib.Path(__file__).resolve().parent.parent / "odinson_ray"
    callers = _table_groupby_callers(root)
    assert [(f, fn) for f, _, fn in callers] == [
        ("odinson_ray/stages/shuffle.py", "partial_aggregate")], callers
