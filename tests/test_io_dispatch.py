"""sources/io.py: format-dispatching table IO (Lance import-gated;
VERDICT r02 missing #3 made structural)."""

import os

import pytest


def test_parquet_path_reads(ray_session, sf_dir):
    from odinson_ray.sources.io import read_table, table_path

    p = table_path(sf_dir, "documents")
    assert p.endswith("documents.parquet")  # no .lance in the test data
    ds = read_table(p, columns=["doc_id", "text"])
    t = ds.take_batch(5, batch_format="pyarrow")
    assert set(t.column_names) == {"doc_id", "text"}


def test_lance_path_gated(tmp_path):
    from odinson_ray.sources.io import read_table

    try:
        import lance  # noqa: F401

        pytest.skip("lance installed: the gated branch is the live branch")
    except ImportError:
        pass
    with pytest.raises(ImportError, match="pylance"):
        read_table(str(tmp_path / "documents.lance"))


def test_documents_path_prefers_lance(tmp_path):
    from odinson_ray.sources.io import table_path

    (tmp_path / "documents.parquet").touch()
    assert table_path(str(tmp_path), "documents").endswith("documents.parquet")
    (tmp_path / "documents.lance").mkdir()
    assert table_path(str(tmp_path), "documents").endswith("documents.lance")


def test_document_read_columns_keeps_lance_metadata(tmp_path):
    """A documents path whose schema is not sniffed (Lance) reads every
    column, so caller-supplied metadata columns are never pruned; a
    parquet footer still prunes to the annotation columns plus the
    metadata columns it actually has."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from odinson_ray.sources.io import document_read_columns

    (tmp_path / "documents.lance").mkdir()
    assert document_read_columns(str(tmp_path / "documents.lance")) is None

    base = {"doc_id": ["d"], "text": ["t"], "lang": ["en"], "source": ["s"]}
    plain = str(tmp_path / "plain.parquet")
    pq.write_table(pa.table({**base, "extra": [1]}), plain)
    assert document_read_columns(plain) == ["doc_id", "text", "lang", "source"]
    meta = str(tmp_path / "meta.parquet")
    pq.write_table(pa.table({**base, "metadata_json": ["{}"]}), meta)
    assert document_read_columns(meta) == [
        "doc_id", "text", "lang", "source", "metadata_json"]
