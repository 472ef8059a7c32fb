"""The benchmark's own self-test, run as a tier-1 test.

``perfbench/selftest.py`` runs every workload untraced and traced at tiny
scale and fails on an incorrect output (a workload's result check), on a
layer a traced pass no longer enters, and on a malformed result line. A
change that breaks any of these fails here, before the benchmark runs.
"""

from __future__ import annotations

import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selftest_passes():
    env = dict(os.environ)
    # the kg_ray workload starts its own Ray instance, apart from any
    # session this test process belongs to
    env.pop("RAY_ADDRESS", None)
    p = subprocess.run([sys.executable, os.path.join(REPO, "perfbench", "selftest.py")],
                       cwd=REPO, env=env, capture_output=True, text=True, timeout=1500)
    assert p.returncode == 0, f"{p.stdout[-3000:]}\n{p.stderr[-3000:]}"
