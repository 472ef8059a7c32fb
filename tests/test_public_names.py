"""Dead-code guard: every top-level public name defined under
``odinson_ray/`` is referenced somewhere in the package, ``tests/``,
``scripts/``, ``bench.py`` or ``perfbench/``, or is on the allow-list
below with the reason it is kept.

A reference is a name read in code, an attribute, an imported name, or an
identifier inside a short string literal (``perfbench/layers.py`` names
the callables it wraps as strings). A function decorated with
``@query(...)`` counts as referenced: the decorator registers it in the
query registry. A name's own definition does not count, nor does this
file, which names the allow-listed ones.
"""

from __future__ import annotations

import ast
import os
import re

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEARCHED = ("odinson_ray", "tests", "scripts", "bench.py", "perfbench")
IDENT = re.compile(r"[A-Za-z_]\w*")

#: public names no code reads, kept as library surface
ALLOWED = {
    "run_flagship": "flagship entry point that writes the triples as hive-partitioned parquet",
    "write_mentions_json": "JSON-lines sink for a mentions Dataset (the reference's JsonSerializer)",
    "read_metadata_wrappers": "reader for the reference's MetadataWrapper companion files",
    "INTERLEAVED_SCHEMA": "documented schema of the interleaved-document input shape",
    "MEDIA_FEATURES_SCHEMA": "documented output schema of the media feature stage",
    "FRAME_SCHEMA": "documented output schema of the frame sampling stage",
    "RESIZED_SCHEMA": "documented output schema of the resize stage",
}


def _py_files(path):
    full = os.path.join(REPO, path)
    if os.path.isfile(full):
        yield full
    for d, _, names in os.walk(full):
        yield from (os.path.join(d, n) for n in sorted(names) if n.endswith(".py"))


def _registered(node):
    """Whether a definition is decorated with ``@query(...)``."""
    for d in getattr(node, "decorator_list", ()):
        f = d.func if isinstance(d, ast.Call) else d
        name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
        if name == "query":
            return True
    return False


def _definitions(tree):
    for node in tree.body:
        if _registered(node):
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and len(node.value) < 200 and "\n" not in node.value):
            yield from IDENT.findall(node.value)


def unreferenced_public_names(definitions_in=("odinson_ray",)):
    """(file, name) of each public top-level name in ``definitions_in``
    that nothing in them or in :data:`SEARCHED` references."""
    referenced = set()
    for path in dict.fromkeys(SEARCHED + tuple(definitions_in)):
        for f in _py_files(path):
            if f == os.path.abspath(__file__):
                continue
            with open(f, encoding="utf-8") as fh:
                referenced.update(_references(ast.parse(fh.read())))
    out = []
    for path in definitions_in:
        for f in _py_files(path):
            with open(f, encoding="utf-8") as fh:
                names = _definitions(ast.parse(fh.read()))
            out.extend((os.path.relpath(f, REPO), n) for n in names
                       if not n.startswith("_") and n not in referenced)
    return out


def test_every_public_name_is_referenced_or_allowed():
    dead = [(f, n) for f, n in unreferenced_public_names() if n not in ALLOWED]
    assert dead == [], f"unreferenced public names (delete them or allow-list them): {dead}"


def test_allow_list_holds_only_unreferenced_names():
    unreferenced = {n for _, n in unreferenced_public_names()}
    assert set(ALLOWED) <= unreferenced, set(ALLOWED) - unreferenced
    assert all(reason.strip() for reason in ALLOWED.values())


def test_guard_flags_an_unreferenced_definition(tmp_path):
    (tmp_path / "mod.py").write_text(
        "PROBE_READ = 1\nPROBE_LOST: int = 2\n\n\n"
        "def probe_caller():\n    return PROBE_READ + probe_called()\n\n\n"
        "def probe_called():\n    return 0\n\n\n"
        "def probe_lost():\n    return 0\n\n\nclass ProbeLost:\n    pass\n\n\n"
        "@query('probe')\ndef probe_registered():\n    return 0\n")
    (tmp_path / "user.py").write_text("import mod\n\nmod.probe_caller()\n")
    rel = os.path.relpath(str(tmp_path), REPO)
    found = {n for _, n in unreferenced_public_names((rel,))}
    assert found == {"PROBE_LOST", "probe_lost", "ProbeLost"}
