"""Round-4 session-5 batch E: ROWS-frame rolling quantile (the window
family's last missing aggregate class — frame-holding, not
cumsum-decomposable) and mutual-information feature ranking for the
curation classifier (one groupby + bounded-domain finish).

Registered by ``pipelines/queries.py``; each ``q_*`` takes ``sf_dir``;
oracle column names match exactly.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from odinson_ray.stages.shuffle import coarse_groups, combine_aggregate


def _rd():
    from ..sources.io import clean_rd

    return clean_rd


# ===================================== rolling p90 (ROWS frame quantile)

def q_rolling_p90_value(sf_dir: str, frame: int = 5, q: float = 0.9):
    """Per event: the q-quantile of the trailing ``frame`` values within
    the user's (ts, event_id) order — the frame-holding window aggregate
    (unlike moving_avg, a quantile can't be cumsum-decomposed; the frame
    itself must be materialized). One coarse exchange on user; inside
    each partition every row's frame comes from a single (n x frame)
    sliding-window view with run boundaries masked to NaN — no per-user
    task, no per-row loop. Frame memory is n x frame per partition,
    bounded by the partition size, independent of key skew."""
    rd = _rd()

    def roll_partition(g: pa.Table) -> pa.Table:
        n = g.num_rows
        u = g["user_id"].to_numpy(zero_copy_only=False)
        v = g["value"].to_numpy(zero_copy_only=False).astype(np.float64)
        starts = np.concatenate(([0], np.flatnonzero(u[1:] != u[:-1]) + 1))
        run_of = np.repeat(np.arange(len(starts)),
                           np.diff(np.append(starts, n)))
        pos_in_run = np.arange(n) - starts[run_of]
        # W[i] = v[i-frame+1 .. i] (NaN-padded before the array start)
        W = np.lib.stride_tricks.sliding_window_view(
            np.concatenate([np.full(frame - 1, np.nan), v]), frame).copy()
        k = np.minimum(pos_in_run + 1, frame)          # valid frame sizes
        cols = np.arange(frame)
        W[cols[None, :] < (frame - k)[:, None]] = np.nan  # mask run crossings
        W.sort(axis=1)                                  # NaNs sort last
        # linear interpolation at rank q*(k-1), vectorized over rows
        pos = q * (k - 1)
        lo = np.floor(pos).astype(np.int64)
        hi = np.ceil(pos).astype(np.int64)
        rows = np.arange(n)
        frac = pos - lo
        p90 = W[rows, lo] * (1 - frac) + W[rows, hi] * frac
        return pa.table({
            "event_id": g["event_id"],
            "user_id": g["user_id"],
            "p90": pc.round(pa.array(p90, pa.float64()), ndigits=6,
                            round_mode="half_towards_infinity")})

    return coarse_groups(
        rd.read_parquet(f"{sf_dir}/events.parquet",
                        columns=["event_id", "user_id", "ts", "value"]),
        ["user_id"], roll_partition, ["ts", "event_id"])


ORACLE_ROLLING_P90 = """
SELECT event_id, user_id,
       round(CAST(quantile_cont(value, 0.9) OVER (
           PARTITION BY user_id ORDER BY ts, event_id
           ROWS BETWEEN 4 PRECEDING AND CURRENT ROW) AS DOUBLE), 6) AS p90
FROM events
"""


# ===================================== mutual-information feature ranking

def q_feature_mi(sf_dir: str):
    """MI (nats) between each binned document feature and the
    is-English label — the feature-selection step ahead of a quality
    classifier. One corpus pass emits (feature, x, y) count partials
    for BOTH features; one global groupby; the finish computes margins
    and sums inside each feature's group (bounded domain: bins x 2
    rows). Everything float enters only in the final xlogx."""
    rd = _rd()

    def project(t: pa.Table) -> pa.Table:
        chars = pc.cast(pc.utf8_length(t["text"]), pa.int64())
        vowels = pc.cast(
            pc.count_substring_regex(t["text"], "[aeiouAEIOU]"), pa.int64())
        len_bin = pc.min_element_wise(
            pc.divide(chars, pa.scalar(500, pa.int64())),
            pa.scalar(3, pa.int64()))
        # integer vowel-density decile vs word count: 10*vowels//chars
        vow_bin = pc.min_element_wise(
            pc.divide(pc.multiply(vowels, pa.scalar(10, pa.int64())),
                      pc.max_element_wise(chars, pa.scalar(1, pa.int64()))),
            pa.scalar(9, pa.int64()))
        y = pc.cast(pc.equal(t["lang"], "en"), pa.int64())
        return pa.concat_tables([
            pa.table({"feature": pa.array(["len_bin"] * t.num_rows,
                                          pa.string()),
                      "x": len_bin, "y": y}),
            pa.table({"feature": pa.array(["vow_bin"] * t.num_rows,
                                          pa.string()),
                      "x": vow_bin, "y": y}),
        ])

    counts = combine_aggregate(
        rd.read_parquet(f"{sf_dir}/documents.parquet",
                        columns=["text", "lang"])
        .map_batches(project, batch_format="pyarrow"),
        ["feature", "x", "y"], [("n", "x", "count")])

    def mi_group(g: pa.Table) -> pa.Table:
        # bounded domain: <= bins x 2 rows per feature
        feat = g["feature"][0].as_py()
        x = g["x"].to_numpy(zero_copy_only=False)
        y = g["y"].to_numpy(zero_copy_only=False)
        n = g["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        N = n.sum()
        nx = {v: n[x == v].sum() for v in np.unique(x)}
        ny = {v: n[y == v].sum() for v in np.unique(y)}
        mi = 0.0
        for xi, yi, ni in zip(x, y, n):
            mi += (ni / N) * np.log(ni * N / (nx[xi] * ny[yi]))
        return pa.table({
            "feature": pa.array([feat], pa.string()),
            "mi": pc.round(pa.array([mi], pa.float64()), ndigits=6,
                           round_mode="half_towards_infinity")})

    return counts.groupby("feature").map_groups(mi_group,
                                                batch_format="pyarrow")


ORACLE_FEATURE_MI = """
WITH b AS (
  SELECT least(length(text) // 500, 3) AS len_bin,
         least(10 * length(regexp_replace(text, '[^aeiouAEIOU]', '', 'g'))
               // greatest(length(text), 1), 9) AS vow_bin,
         CASE WHEN lang = 'en' THEN 1 ELSE 0 END AS y
  FROM documents
),
u AS (
  SELECT 'len_bin' AS feature, len_bin AS x, y FROM b
  UNION ALL
  SELECT 'vow_bin' AS feature, vow_bin AS x, y FROM b
),
c AS (SELECT feature, x, y, count(*)::DOUBLE AS n FROM u
      GROUP BY feature, x, y),
m AS (SELECT feature, x, y, n,
             sum(n) OVER (PARTITION BY feature, x) AS nx,
             sum(n) OVER (PARTITION BY feature, y) AS ny,
             sum(n) OVER (PARTITION BY feature) AS nn
      FROM c)
SELECT feature, round(sum((n / nn) * ln(n * nn / (nx * ny))), 6) AS mi
FROM m GROUP BY feature
"""


def register(queries: dict, oracles: dict) -> None:
    queries["rolling_p90_value"] = q_rolling_p90_value
    oracles["rolling_p90_value"] = ORACLE_ROLLING_P90
    queries["feature_mi"] = q_feature_mi
    oracles["feature_mi"] = ORACLE_FEATURE_MI
