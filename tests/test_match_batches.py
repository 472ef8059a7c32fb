"""stages.match.match_batches: matcher stages as stateless tasks that
build their matcher once per task, guarded against actor-pool matcher
stages growing back."""

import ast
import importlib
import pathlib
import pkgutil
import sys

import pyarrow as pa

from odinson_ray.stages.match import match_batches

ROOT = pathlib.Path(__file__).resolve().parent.parent
MATCHERS = {"GrammarMatcher", "TripleCounter"}
KG_KEYS = ["subj_canon", "pred", "obj_canon", "subj", "obj", "n"]


def _matcher_map_batches(path: pathlib.Path):
    """Lines of ``map_batches`` calls whose UDF is a matcher class."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "map_batches"):
            continue
        udf = node.args[0] if node.args else next(
            (k.value for k in node.keywords if k.arg == "fn"), None)
        name = (udf.attr if isinstance(udf, ast.Attribute)
                else udf.id if isinstance(udf, ast.Name) else None)
        if name in MATCHERS:
            lines.append(node.lineno)
    return lines


def test_matcher_stages_go_through_match_batches():
    """Every GrammarMatcher/TripleCounter stage maps through match_batches;
    a ``map_batches(GrammarMatcher, ...)`` actor pool elsewhere fails here."""
    files = sorted((ROOT / "odinson_ray").rglob("*.py")) + [ROOT / "bench.py"]
    hits = [(p.relative_to(ROOT).as_posix(), line)
            for p in files for line in _matcher_map_batches(p)]
    assert hits == []


def _tagger(tag):
    class Tagger:  # one qualname for every tag
        def __init__(self, suffix):
            self.suffix = suffix

        def __call__(self, batch):
            return pa.table({"tag": [tag + self.suffix] * batch.num_rows})

    return Tagger


def test_same_named_matcher_classes_stay_apart(ray_session):
    """Each match_batches stage runs its own class: a class redefined
    under the same name (a notebook cell run twice) is never served an
    instance built from the other one."""
    import ray.data

    for tag in ("old", "new"):
        ds = match_batches(ray.data.range(8, override_num_blocks=2), _tagger(tag), "!",
                           concurrency=2, batch_size=4)
        assert {r["tag"] for r in ds.take_all()} == {tag + "!"}


def test_triples_dataset_by_value_twice(ray_session, sf_dir):
    """Two jobs in one Ray session with the package shipped by value (as
    ``__ray_entry__`` ships it): both equal
    the DuckDB oracle. The calling process annotates in-process first, so
    the module-level caches that ship with the package are not empty."""
    import duckdb
    import odinson_ray
    from ray import cloudpickle

    from odinson_ray.pipelines.kg import triples_dataset
    from odinson_ray.pipelines.queries import ORACLE_KG_TRIPLES
    from odinson_ray.stages.annotate import annotate_texts_vectorized

    annotate_texts_vectorized(["Becky ate gummy bears ."])

    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM '{sf_dir}/documents.parquet'")
    want = sorted(con.sql(ORACLE_KG_TRIPLES).fetchall())
    for info in pkgutil.walk_packages(odinson_ray.__path__, "odinson_ray."):
        importlib.import_module(info.name)
    mods = [m for name, m in sys.modules.items()
            if name == "odinson_ray" or name.startswith("odinson_ray.")]
    for m in mods:
        cloudpickle.register_pickle_by_value(m)
    try:
        for _ in range(2):
            got = triples_dataset(sf_dir, concurrency=2).to_pandas()[KG_KEYS]
            assert sorted(got.itertuples(index=False, name=None)) == want
    finally:
        for m in mods:
            cloudpickle.unregister_pickle_by_value(m)


def test_uncapped_flagship_fuses_combine_into_matcher(ray_session, sf_dir):
    """Uncapped (the flagship default), the matcher tasks also run the
    combine's per-batch partial stage: no extra task per block."""
    from odinson_ray.pipelines.kg import fused_triple_counts

    assert "MapBatches(match)->MapBatches(part)" in fused_triple_counts(sf_dir).stats()
