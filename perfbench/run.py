"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload kg_raw --seed 1 --seconds 12 --trace 0

Run from the repository root. The steps:

1. a fixed CPU calibration loop (``calib_s``);
2. the workload's inputs, generated from ``--seed`` (untimed);
3. set-up probes: fresh processes that stop once ready to serve;
4. the workload process: set-up, warm-up, ``--seconds`` of measurement,
   then the correctness checks.

``setup_s`` is the median over the probes and the workload process of
the wall time from process spawn to ready. With ``--trace 0`` the last
line carries the end-to-end metrics; with ``--trace 1`` the per-layer
metrics of a separate traced measurement. The line before it is a JSON
object with the generator parameters, seed, calibration figure, checks
and sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)
sys.path.insert(0, HERE)

END_TO_END = {
    "docs_per_s": "docs/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

RULES = ("tech-entity", "np", "svo", "tech-context", "conj-chain")
LABELS = ("Tech", "NP", "SVO", "Actor", "TechContext", "ConjVerb")
PER_LAYER = {
    **{name: "s" for name in (
        "sources.interleave_s", "annotate.vectorized_s", "match.struct_decode_s",
        "match.emit_s", "engine.cascade_s",
        *(f"engine.rule.{r}_s" for r in RULES),
        "matcher.traversal_s", "matcher.event_s", "selector.select_s",
        "engine.state_add_s", "triples.project_s", "link.map_unique_s",
        "triples.partial_count_s", "triples.tail_s", "lang.compile_s",
        "api.query_self_s")},
    "selector.kept_ratio": "ratio",
    "link.unique_ratio": "ratio",
    "triples.combine_ratio": "ratio",
    "lang.compile_calls": "count",
    "count.docs": "count",
    "count.sentences": "count",
    **{f"count.mentions.{label}": "count" for label in LABELS},
    "count.query_results": "count",
    "count.triples": "count",
    "count.distinct_triples": "count",
    "count.partial_rows": "count",
    "count.error_docs": "count",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}

#: set-up probes per workload besides the workload process itself
PROBES = {"kg_raw": 3, "extract_prepared": 3, "query_adhoc": 2, "kg_ray": 2}
#: traced runs must attribute all but this share of pass wall to layers
UNATTRIBUTED_MAX = 0.05
DEADLINE_S = 170.0


def calibrate() -> float:
    """Median of three runs of a fixed pure-Python plus numpy loop."""
    import numpy as np

    def once():
        t0 = time.perf_counter()
        d = {}
        for i in range(200_000):
            d[i % 1000] = d.get(i % 1000, 0) + i
        a = np.random.default_rng(0).random(200_000)
        for _ in range(5):
            a = np.sort(a * 1.0001)
        return time.perf_counter() - t0

    return statistics.median(once() for _ in range(3))


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise TimeoutError("benchmark deadline passed")
        return left


def spawn(workload: str, work: str, deadline: Deadline, extra=()):
    """Run a worker; return (seconds from spawn to READY, RESULT payload).

    The worker stamps READY with CLOCK_MONOTONIC, which is system-wide on
    Linux, so the span includes interpreter start and imports."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--work", work, *extra]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=deadline.left())
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    ready, result = None, None
    for line in out.splitlines():
        if line.startswith("READY "):
            ready = float(line.split()[1]) - t0
        elif line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            sys.stderr.write(line + "\n")
    if proc.returncode != 0 or ready is None:
        raise RuntimeError(f"worker {workload} exited with code {proc.returncode}")
    return ready, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="odinson_ray benchmark")
    ap.add_argument("--workload", required=True,
                    choices=("kg_raw", "extract_prepared", "query_adhoc", "kg_ray"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test scale: small corpora, one set-up probe")
    args = ap.parse_args(argv)
    deadline = Deadline(DEADLINE_S)

    import prepare  # imports numpy/pyarrow and, through the oracles, the engine

    calib_s = calibrate()
    spec = dict(prepare.SIZES[args.workload])
    if args.tiny:
        spec.update(prepare.TINY[args.workload])
    scratch = os.path.join(ROOT, ".perfbench")
    work = os.path.join(scratch, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        params = prepare.PREPARE[args.workload](work, args.seed, spec)
        samples = []
        # setup_s is an end-to-end metric: a traced run needs no probes
        for _ in range(0 if args.trace else 1 if args.tiny else PROBES[args.workload]):
            samples.append(spawn(args.workload, work, deadline, ["--probe"])[0])
        ready, res = spawn(args.workload, work, deadline,
                           ["--seconds", str(args.seconds), "--trace", str(args.trace)])
        samples.append(ready)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(scratch)  # only when no other run is using it
        except OSError:
            pass

    checks = dict(res["checks"])
    if args.trace:
        if args.workload in ("kg_raw", "extract_prepared"):
            checks["unattributed_within_bound"] = (
                res["metrics"]["trace.unattributed_frac"] <= UNATTRIBUTED_MAX)
        units = PER_LAYER
        values = {k: res["metrics"].get(k, 0) for k in units}
    else:
        res["metrics"]["setup_s"] = statistics.median(samples)
        units = END_TO_END
        values = {k: res["metrics"][k] for k in units}
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "generator": params, "calib_s": calib_s,
        "setup_samples_s": samples, "checks": checks, "notes": res["notes"],
        "failed_frac": res["failed"] / max(1, res["attempted"]),
    }))
    print(json.dumps({
        "correct": bool(checks) and all(checks.values()),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
