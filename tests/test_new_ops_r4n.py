"""Unit pins for the round-4 continuation batch n: CDC merge-upsert,
SCD2 interval build, TPC-H Q3 star join."""

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _write(tmp_path, name, df):
    path = str(tmp_path / f"{name}.parquet")
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False), path)
    return path


@pytest.fixture()
def orders_dir(tmp_path):
    # 3 customers; cust 1 changes priority mid-history; cust 2 constant;
    # cust 3 single order. Keys cover all changeset branches (mod 10).
    df = pd.DataFrame({
        "o_orderkey": [10, 11, 12, 20, 21, 30],
        "o_custkey": [1, 1, 1, 2, 2, 3],
        "o_orderstatus": ["F"] * 6,
        "o_totalprice": [100.0, 200.0, 300.0, 50.0, 60.0, 70.0],
        "o_orderdate": pd.to_datetime([
            "1995-01-01", "1995-02-01", "1995-03-01",
            "1995-01-15", "1995-01-20", "1995-05-05"]),
        "o_orderpriority": ["1-URGENT", "1-URGENT", "2-HIGH",
                            "3-MEDIUM", "3-MEDIUM", "4-LOW"],
    })
    _write(tmp_path, "orders", df)
    return str(tmp_path)


def test_scd2_runs_collapse(orders_dir, monkeypatch):
    from odinson_ray.pipelines.queries.relational import q_scd2_intervals
    from odinson_ray.stages import shuffle

    monkeypatch.setattr(shuffle, "COARSE_PARTS", 4)
    out = q_scd2_intervals(orders_dir).to_pandas()
    out = out.sort_values(["o_custkey", "valid_from"]).reset_index(drop=True)
    # cust 1: two runs (URGENT x2 then HIGH); cust 2: one run; cust 3: one
    assert len(out) == 4
    c1 = out[out.o_custkey == 1]
    assert list(c1.priority) == ["1-URGENT", "2-HIGH"]
    assert list(c1.n_orders) == [2, 1]
    # first run closes at the second run's start; last run is open
    assert c1.iloc[0].valid_to == c1.iloc[1].valid_from
    assert pd.isna(c1.iloc[1].valid_to)
    assert pd.isna(out[out.o_custkey == 2].iloc[0].valid_to)


def test_merge_upsert_branches(orders_dir):
    from odinson_ray.pipelines.queries.relational import q_merge_upsert

    out = q_merge_upsert(orders_dir).to_pandas()
    total_n = int(out.n.sum())
    # 6 snapshot rows: keys 10,20,30 ≡0 updated; 11,21 ≡1 deleted;
    # 12 ≡2 kept + spawns one insert → 4 kept + 1 insert = 5
    assert total_n == 5
    by_pri = dict(zip(out.priority, out.cents))
    # key 12 (2-HIGH) keeps 300.00 and inserts a copy under a new key
    assert by_pri["2-HIGH"] == 2 * 30000
    # updates: 100*1.1=110.00, 50*1.1=55.00, 70*1.1=77.00
    assert by_pri["1-URGENT"] == 11000
    assert by_pri["3-MEDIUM"] == 5500
    assert by_pri["4-LOW"] == 7700


def test_scd2_empty_partitions(orders_dir, monkeypatch):
    # parts >> keys: most partitions are empty and must emit the schema
    from odinson_ray.pipelines.queries.relational import q_scd2_intervals
    from odinson_ray.stages import shuffle

    monkeypatch.setattr(shuffle, "COARSE_PARTS", 64)
    out = q_scd2_intervals(orders_dir).to_pandas()
    assert len(out) == 4
