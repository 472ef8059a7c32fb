"""Tiny-scale self-test: every workload, untraced and traced, end to end.

    python3 perfbench/selftest.py

Runs ``run.py --tiny`` (small corpora, one set-up probe, half-second
measurement) for each workload and trace mode and checks that the result
line is well formed, names exactly the metrics ``BENCHMARK.json`` lists,
and passed its correctness checks. Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for wl in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
                   "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--tiny"]
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                print(f"FAIL {wl} trace={trace}: exit {p.returncode}\n{p.stderr[-3000:]}")
                return 1
            res = json.loads(lines[-1])
            units = {k: v["unit"] for k, v in res["metrics"].items()}
            problems = []
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"keys {sorted(res)}")
            if not res["correct"]:
                problems.append(f"checks {json.loads(lines[-2])['checks']}")
            if res["attempted"] < 1 or res["failed"] != 0:
                problems.append(f"attempted={res['attempted']} failed={res['failed']}")
            if units != expected[trace]:
                problems.append(f"metrics {sorted(set(units) ^ set(expected[trace]))}")
            if trace == 0 and any(v["value"] <= 0 for v in res["metrics"].values()):
                problems.append("a non-positive end-to-end metric")
            status = "FAIL" if problems else "ok"
            print(f"{status} {wl} trace={trace} attempted={res['attempted']} {problems or ''}")
            if problems:
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
