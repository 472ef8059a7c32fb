"""Interleaved A/B of one perfbench workload: the working tree against a git ref.

    python scripts/ab_bench.py --workload extract_prepared --ref HEAD --pairs 6
    python scripts/ab_bench.py --workload kg_raw --ref main --pairs 6 --first-seed 11

The ref's committed files are exported (``git archive``) into a temporary
directory, removed at exit. Pair i runs seed ``first_seed + i`` on both
sides with the same ``perfbench/run.py`` arguments, each side from its own
root; the side that runs first alternates from pair to pair, so a drift
of the host's speed hits both sides alike. Uncommitted changes of the
working tree are measured as they are.

Prints per pair every metric of the result line on both sides with its
ratio (tree over ref), ``calib_s``, ``correct`` and ``failed``; then per
metric the median and quartiles of each side, the median pair ratio and,
for a rate or a time, the median pair ratio of the values normalized by
each run's own ``calib_s`` (a rate times ``calib_s``, seconds divided by
it), which takes the host's speed level of the moment out of each run;
then one JSON object holding every run.

Each run also records as ``left_running`` every process (pid and
arguments) that appeared while its ``run.py`` ran, carries that run's
``AB_BENCH_RUN`` environment mark (inherited by everything the run
starts, also once reparented) and is still alive up to 10 s after the
run exited; pair lines and the summary count them.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
import uuid

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export_ref(ref: str, dest: str) -> str:
    """The committed files of ``ref`` under ``dest``; returns the commit id."""
    commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", ref + "^{commit}"],
                            check=True, capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", commit],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")
    return commit


def live_pids() -> set:
    return {int(d) for d in os.listdir("/proc") if d.isdigit()}


def proc_file(pid: int, name: str) -> bytes:
    try:
        with open(f"/proc/{pid}/{name}", "rb") as f:
            return f.read()
    except OSError:
        return b""


def left_running(before: set, mark: str, wait_s: float = 10.0) -> list:
    """Processes started since ``before`` whose environment holds ``mark``
    and that are still alive (zombies have no command line) after polling
    for up to ``wait_s`` seconds: [{"pid", "args"}]."""
    deadline = time.monotonic() + wait_s
    while True:
        left = []
        for pid in sorted(live_pids() - before):
            args = proc_file(pid, "cmdline").replace(b"\0", b" ").strip()
            if args and mark.encode() in proc_file(pid, "environ").split(b"\0"):
                left.append({"pid": pid, "args": args.decode(errors="replace")})
        if not left or time.monotonic() >= deadline:
            return left
        time.sleep(0.25)


def run_once(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run from ``root``: its two result lines and
    the processes it left running."""
    token = uuid.uuid4().hex
    before = live_pids()
    p = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                        "--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", str(trace)],
                       cwd=root, capture_output=True, text=True,
                       env=dict(os.environ, AB_BENCH_RUN=token))
    left = left_running(before, f"AB_BENCH_RUN={token}")
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"run.py failed in {root} (seed {seed}, exit {p.returncode}):\n"
                           f"{p.stdout[-2000:]}\n{p.stderr[-2000:]}\nleft running: {left}")
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"seed": seed, "calib_s": info["calib_s"], "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "left_running": left,
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "units": {k: v["unit"] for k, v in result["metrics"].items()}}


def calib_normalized(run: dict, k: str):
    """Metric ``k`` of ``run`` per its ``calib_s``: a rate times it, seconds
    divided by it; None for other units."""
    unit = run["units"][k]
    if unit.endswith("/s"):
        return run["metrics"][k] * run["calib_s"]
    if unit == "s":
        return run["metrics"][k] / run["calib_s"]
    return None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("kg_raw", "extract_prepared", "query_adhoc", "kg_ray"))
    ap.add_argument("--ref", default="HEAD", help="git ref to compare the working tree with")
    ap.add_argument("--pairs", type=int, default=6)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    tmp = tempfile.mkdtemp(prefix="ab-bench-")
    try:
        ref_root = os.path.join(tmp, "ref")
        commit = export_ref(args.ref, ref_root)
        sides = {"ref": ref_root, "tree": ROOT}
        runs = {"ref": [], "tree": []}
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("ref", "tree") if i % 2 == 0 else ("tree", "ref")
            for side in order:
                runs[side].append(run_once(sides[side], args.workload, seed,
                                           args.seconds, args.trace))
            ref, tree = runs["ref"][-1], runs["tree"][-1]
            cells = [f"{k} {ref['metrics'][k]:.4g} -> {tree['metrics'][k]:.4g} "
                     f"({tree['metrics'][k] / ref['metrics'][k]:.3f})"
                     if ref["metrics"][k] else f"{k} 0 -> {tree['metrics'][k]:.4g}"
                     for k in ref["metrics"]]
            print(f"pair {i + 1} seed {seed} first={order[0]}: " + "; ".join(cells)
                  + f"; calib_s {ref['calib_s']:.3f}/{tree['calib_s']:.3f}"
                  + f"; correct {ref['correct']}/{tree['correct']}"
                  + f"; failed {ref['failed']}/{tree['failed']}"
                  + f"; left_running {len(ref['left_running'])}/{len(tree['left_running'])}",
                  flush=True)
            for side, run in (("ref", ref), ("tree", tree)):
                for proc in run["left_running"]:
                    print(f"  {side} left running: pid {proc['pid']}: {proc['args']}",
                          flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    summary = {}
    for k in runs["ref"][0]["metrics"]:
        a = [r["metrics"][k] for r in runs["ref"]]
        b = [r["metrics"][k] for r in runs["tree"]]
        ratios = [y / x for x, y in zip(a, b) if x]
        na = [calib_normalized(r, k) for r in runs["ref"]]
        nb = [calib_normalized(r, k) for r in runs["tree"]]
        calib_ratios = [y / x for x, y in zip(na, nb) if x]
        summary[k] = {"ref_q1_median_q3": quartiles(a), "tree_q1_median_q3": quartiles(b),
                      "pair_ratios": ratios,
                      "median_ratio": statistics.median(ratios) if ratios else None,
                      "calib_pair_ratios": calib_ratios,
                      "calib_median_ratio":
                          statistics.median(calib_ratios) if calib_ratios else None}
        qa, qb = summary[k]["ref_q1_median_q3"], summary[k]["tree_q1_median_q3"]
        print(f"{k}: ref {qa[1]:.4g} [{qa[0]:.4g}, {qa[2]:.4g}]  "
              f"tree {qb[1]:.4g} [{qb[0]:.4g}, {qb[2]:.4g}]  "
              + (f"median pair ratio {summary[k]['median_ratio']:.3f}" if ratios else "")
              + (f" (per calib_s {summary[k]['calib_median_ratio']:.3f})"
                 if calib_ratios else ""))
    left = {side: sum(len(r["left_running"]) for r in runs[side]) for side in runs}
    print(f"left_running: ref {left['ref']} tree {left['tree']} processes")
    print(json.dumps({"workload": args.workload, "ref": args.ref, "ref_commit": commit,
                      "seconds": args.seconds, "trace": args.trace,
                      "left_running": left, "summary": summary, "runs": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
