"""Local stand-in for the driver's correctness gate: run each queries()
entry AND its oracle_sql() on the same sf dir, compare row count, column
names and order-insensitive values. Usage:

    python scripts/check_oracles.py [--shuffle-joins] [--one-partition] [sf_dir] [query ...]

``--shuffle-joins`` sets ``stages.shuffle.BROADCAST_BYTES`` to -1 first,
so every ``broadcast_or_join`` (and every other broadcastable check)
takes its shuffle path: the oracles then certify the above-gate plans.
``--one-partition`` sets ``stages.shuffle.COARSE_PARTS`` to 1 first, so
every ``coarse_groups`` exchange (and every ``hash_join`` without its own
partition count) puts all keys in one partition: the oracles then
certify that each resolve function and ``merge_post`` handles many
keys at once.
"""

from __future__ import annotations

import os
import sys

import duckdb
import pandas as pd

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


def to_pandas(result) -> pd.DataFrame:
    if isinstance(result, pd.DataFrame):
        return result
    if hasattr(result, "to_pandas"):
        return result.to_pandas()
    raise TypeError(type(result))


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df.copy()
    df.columns = [str(c) for c in df.columns]
    df = df[sorted(df.columns)]
    for c in df.columns:
        if str(df[c].dtype).startswith("datetime"):
            df[c] = df[c].astype("datetime64[us]")
        elif df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif str(df[c].dtype).startswith(("int", "uint", "Int")):
            df[c] = df[c].astype("int64")
        elif str(df[c].dtype).startswith("float"):
            df[c] = df[c].astype("float64")
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def main():
    from odinson_ray.stages import shuffle

    if "--shuffle-joins" in sys.argv:
        sys.argv.remove("--shuffle-joins")
        shuffle.BROADCAST_BYTES = -1
    if "--one-partition" in sys.argv:
        sys.argv.remove("--one-partition")
        shuffle.COARSE_PARTS = 1
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    con = duckdb.connect()
    for t in TABLES:
        path = f"{sf_dir}/{t}.parquet"
        if os.path.exists(path):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{path}'")

    import __ray_entry__ as e

    qs, oracles = e.queries(), e.oracle_sql()
    failures = 0
    import time

    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            ray_df = normalize(to_pandas(fn(sf_dir)))
        except Exception as ex:
            print(f"FAIL {name}: ray error {type(ex).__name__}: {ex}")
            failures += 1
            continue
        sql = oracles.get(name)
        if sql is None:
            print(f"ok?  {name}: rows={len(ray_df)} (no oracle, rows-only) [{time.time()-t0:.1f}s]")
            continue
        try:
            ora_df = normalize(con.sql(sql).df())
        except Exception as ex:
            print(f"FAIL {name}: oracle error {ex}")
            failures += 1
            continue
        status = []
        if len(ray_df) != len(ora_df):
            status.append(f"rows {len(ray_df)} != {len(ora_df)}")
        if list(ray_df.columns) != list(ora_df.columns):
            status.append(f"cols {list(ray_df.columns)} != {list(ora_df.columns)}")
        if not status:
            try:
                pd.testing.assert_frame_equal(ray_df, ora_df, check_dtype=False,
                                              check_exact=False, rtol=0, atol=1e-9)
            except AssertionError as ex:
                status.append("values differ: " + str(ex).split("\n")[-2][:200])
        if status:
            print(f"FAIL {name}: {'; '.join(status)} [{time.time()-t0:.1f}s]")
            failures += 1
        else:
            print(f"PASS {name}: rows={len(ray_df)} [{time.time()-t0:.1f}s]")
    ray.shutdown()
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
