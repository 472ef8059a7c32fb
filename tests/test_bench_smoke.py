"""Subprocess smoke tests for the bench harness.

Round 4's official bench artifact was nulled by a NameError that only
triggered at the very end of `python bench.py` (after all timed work) —
these tests run the real harness end-to-end in a subprocess so a
harness-level regression can never again cost a round its artifact.
Tiny inputs (sf0.001, replicate=1, queries skipped) keep them fast.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(REPO, "bench.py")
SF = "/root/testdata/sf0.001"


def _run(args, extra_env, timeout=600):
    env = dict(
        os.environ,
        GRAFT_SF_DIR=SF,
        BENCH_REPLICATE="1",
        BENCH_SKIP_QUERIES="1",
        **extra_env,
    )
    # the bench owns its own Ray session (fresh local instance, separate
    # from the pytest session fixture's)
    env.pop("RAY_ADDRESS", None)
    out = subprocess.run(
        [sys.executable, BENCH, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=REPO,
    )
    assert out.returncode == 0, f"bench.py rc={out.returncode}\n{out.stderr[-4000:]}"
    lines = [l for l in out.stdout.strip().splitlines() if l.strip()]
    assert lines, f"bench.py printed nothing\n{out.stderr[-4000:]}"
    return json.loads(lines[-1])


@pytest.mark.skipif(not os.path.isdir(SF), reason="testdata missing")
def test_bench_main_emits_parseable_json():
    rec = _run([], {"RAY_GRAFT_CPUS": "4"})
    assert rec["metric"] == "kg_pipeline_wall"
    assert rec["docs_per_sec"] > 0
    assert rec["headline_docs"] > 0
    assert rec["headline_triples"] > 0
    assert rec["unit"] == "sec"
    assert rec["calib_s"] > 0


@pytest.mark.skipif(not os.path.isdir(SF), reason="testdata missing")
def test_bench_scaling_emits_parseable_json():
    rec = _run(
        ["--scaling"],
        {
            "BENCH_LO_CPUS": "2",
            "BENCH_HI_CPUS": "4",
            "BENCH_SCALING_RUNS": "1",
        },
    )
    assert rec["lo_cpus"] == 2 and rec["hi_cpus"] == 4
    assert rec["sec_2"] > 0 and rec["sec_4"] > 0
    assert "scaling_efficiency" in rec
