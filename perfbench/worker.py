"""One workload in one fresh process: set up, measure, check.

Started by ``run.py`` with the files it prepared in ``--work``. The
protocol on standard output is two lines: ``READY <monotonic time>`` once
the process can serve (imports, grammar compile, ``ray.init``, engine
build, as the workload needs), then ``RESULT <json>`` at the end. With ``--probe`` the
process exits right after ``READY``; ``run.py`` uses such probes for
repeated set-up samples.

Heavy imports live inside the workloads' ``setup`` so that they count as
set-up time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

KG_KEYS = ["subj_canon", "pred", "obj_canon", "subj", "obj"]
ERROR_PRED = "__error__"

#: extract_prepared grammar: entity run, NP rule, an event that promotes
#: its subject (^Actor) and reads @NP, a lookaround over @Tech, and an
#: incoming->outgoing chain with a >conj{1,3} hop, at priorities 1-3
PREPARED_GRAMMAR = """
rules:
  - name: tech-entity
    label: Tech
    type: basic
    priority: "1"
    pattern: "[entity=B-TECH]+"
  - name: np
    label: NP
    type: basic
    priority: "1"
    pattern: "[tag=DT]? [tag=JJ]* [tag=NN]+"
  - name: svo
    label: SVO
    type: event
    priority: "2"
    pattern: |
      trigger = [tag=VB]
      subject:^Actor = >nsubj []
      object = >dobj @NP
  - name: tech-context
    label: TechContext
    type: basic
    priority: "2"
    pattern: "(?<=@Tech) [tag=NN] | [tag=JJ] (?=@Tech)"
  - name: conj-chain
    label: ConjVerb
    type: basic
    priority: "3"
    pattern: "@Actor <nsubj [] >conj{1,3} [tag=VB]"
"""


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q: int) -> float:
    """The q-th percentile (1..99) by statistics.quantiles' default method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def latency_notes(lat) -> dict:
    """Operation count and latency percentiles, printed without a bound."""
    return {"ops": len(lat), "latency_ms_p50": 1e3 * statistics.median(lat),
            "latency_ms_p90": 1e3 * percentile(lat, 90)}


def timed_loop(step, seconds: float, min_steps: int):
    """Run ``step`` until ``seconds`` have passed and at least ``min_steps``
    ran; return (wall of each step, output of each step)."""
    walls, outs = [], []
    end = time.perf_counter() + seconds
    while len(walls) < min_steps or time.perf_counter() < end:
        t0 = time.perf_counter()
        out = step()
        walls.append(time.perf_counter() - t0)
        outs.append(out)
    return walls, outs


def sorted_triples(t):
    import pyarrow as pa

    t = t.select(KG_KEYS + ["n"]).cast(pa.schema(
        [(k, pa.string()) for k in KG_KEYS] + [("n", pa.int64())]))
    return t.sort_by([(k, "ascending") for k in KG_KEYS])


def sum_partials(parts):
    import pyarrow as pa

    t = pa.concat_tables(parts)
    agg = t.group_by(KG_KEYS).aggregate([("partial_n", "sum")])
    return agg.rename_columns(KG_KEYS + ["n"])


def error_docs(triples) -> int:
    """Failed documents: the ``n`` of the reserved ``__error__`` triple."""
    import pyarrow.compute as pc

    errs = triples.filter(pc.equal(triples["pred"], ERROR_PRED))
    return int(pc.sum(errs["n"]).as_py() or 0)


class Result:
    """What a workload run reports back to ``run.py``."""

    def __init__(self):
        self.checks = {}  # name -> bool
        self.attempted = 0
        self.failed = 0
        self.metrics = {}  # name -> value (units are fixed in run.py)
        self.notes = {}

    def check(self, name: str, ok: bool):
        self.checks[name] = bool(ok) and self.checks.get(name, True)

    def to_json(self):
        return {"checks": self.checks, "attempted": self.attempted,
                "failed": self.failed, "metrics": self.metrics, "notes": self.notes}


# ====================================================================== batch


class BatchWorkload:
    """A grammar stage called in-process on successive Arrow batches of a
    corpus. One pass = the whole corpus; one operation = one batch call."""

    min_passes = 3

    def __init__(self, work: str, spec: dict):
        self.work = work
        self.spec = spec

    def load(self, table):
        size = self.spec["batch_size"]
        self.n_docs = table.num_rows
        self.input_batches = [table.slice(i, size) for i in range(0, table.num_rows, size)]

    def run_pass(self):
        lat, outs = [], []
        for b in self.input_batches:
            t0 = time.perf_counter()
            outs.append(self.stage(b))
            lat.append(time.perf_counter() - t0)
        return lat, outs

    def run(self, seconds: float, trace: bool) -> Result:
        res = Result()
        warm_counts = self.pass_counts(self.run_pass()[1])  # untimed warm-up
        if not trace:
            walls, passes = timed_loop(self.run_pass, seconds, self.min_passes)
            res.metrics["peak_rss_mb"] = rss_mb()
            lat = [x for p in passes for x in p[0]]
            res.metrics["docs_per_s"] = self.n_docs * len(walls) / sum(walls)
            res.notes.update(latency_notes(lat), passes=len(walls))
            outs = [p[1] for p in passes]
        else:
            outs = self.traced(seconds, res)
        res.check("counts_repeat", all(self.pass_counts(o) == warm_counts for o in outs))
        res.attempted = self.n_docs * len(outs)
        self.check_passes(outs, res)
        return res

    def traced(self, seconds: float, res: Result):
        """Untraced passes, then traced passes, over the same batches; the
        outputs of all of them."""
        from layers import Tracer

        plain, plain_out = timed_loop(self.run_pass, seconds / 3, 2)
        tracer = Tracer()
        tracer.install()
        entered = self.entered + tuple(tracer.wrap_rules(self.stage.extractors))
        tracer.enabled = True
        try:
            walls, traced_out = timed_loop(self.run_pass, seconds * 2 / 3, 2)
        finally:
            tracer.enabled = False
            tracer.uninstall()
        report_trace(res, tracer, walls, plain, len(walls), entered)
        res.metrics["count.docs"] = self.n_docs
        self.per_pass_counts(res, traced_out[-1][1])
        return [p[1] for p in plain_out + traced_out]


class KgRaw(BatchWorkload):
    """pipelines.kg.TripleCounter(FLAGSHIP_RULES) on raw document batches."""

    #: layers a traced pass must enter, besides one per grammar rule; the
    #: flagship's event arguments resolve inside EventQueryNode, so no
    #: GraphTraversalQueryNode runs
    entered = ("sources.interleave_s", "annotate.vectorized_s", "match.emit_s",
               "engine.cascade_s", "matcher.event_s", "selector.select_s",
               "engine.state_add_s", "triples.project_s", "link.map_unique_s",
               "triples.partial_count_s")

    def setup(self):
        import pyarrow.parquet as pq

        from odinson_ray.pipelines.kg import FLAGSHIP_RULES, TripleCounter

        self.stage = TripleCounter(FLAGSHIP_RULES)
        self.load(pq.read_table(os.path.join(self.work, "data", "documents.parquet")))

    def pass_counts(self, outs):
        return (sum(o.num_rows for o in outs),
                sum(int(o["partial_n"].to_numpy().sum()) for o in outs))

    def check_passes(self, passes, res: Result):
        import pyarrow.parquet as pq

        oracle = sorted_triples(pq.read_table(os.path.join(self.work, "oracle.parquet")))
        for outs in passes:
            got = sum_partials(outs)
            res.failed += error_docs(got)
            res.check("kg_equals_duckdb_oracle", sorted_triples(got).equals(oracle))

    def per_pass_counts(self, res: Result, outs):
        triples = sum_partials(outs)
        res.metrics["count.distinct_triples"] = triples.num_rows
        res.metrics["count.partial_rows"] = sum(o.num_rows for o in outs)
        res.metrics["count.error_docs"] = error_docs(triples)


def error_doc_ids(mentions) -> set:
    import pyarrow.compute as pc

    return set(mentions.filter(pc.equal(mentions["label"], ERROR_PRED))["doc_id"].to_pylist())


class ExtractPrepared(BatchWorkload):
    """stages.match.GrammarMatcher over the pre-annotated ``sentences``
    column that prepare_corpus writes, with a multi-rule cascade."""

    entered = ("match.struct_decode_s", "match.emit_s", "engine.cascade_s",
               "matcher.traversal_s", "matcher.event_s", "selector.select_s",
               "engine.state_add_s")

    def setup(self):
        import pyarrow.parquet as pq

        from odinson_ray.stages.match import GrammarMatcher

        self.stage = GrammarMatcher(PREPARED_GRAMMAR)
        self.load(pq.read_table(os.path.join(self.work, "prepared.parquet")))

    def pass_counts(self, outs):
        import pyarrow as pa

        t = pa.concat_tables(outs)
        return t.num_rows, tuple(sorted(
            (r["values"] or "", r["counts"])
            for r in t["label"].value_counts().to_pylist()))

    def check_passes(self, passes, res: Result):
        import pyarrow as pa
        import pyarrow.parquet as pq

        reference = pq.read_table(os.path.join(self.work, "reference.parquet"))
        for outs in passes:
            got = pa.concat_tables(outs)
            res.failed += len(error_doc_ids(got))
            res.check("mentions_equal_raw_text_run", got.equals(reference))

    def per_pass_counts(self, res: Result, outs):
        import pyarrow as pa

        res.metrics["count.error_docs"] = len(error_doc_ids(pa.concat_tables(outs)))


# ====================================================================== query


class QueryAdhoc:
    """One closed-loop client issuing ad-hoc patterns to an in-memory
    OdinsonEngine; one operation = one ``query`` call, one pass = one
    round that sends every pattern of the set once, in a seeded order."""

    min_rounds = 2  # two rounds of the 60-pattern set: >= 100 queries
    entered = ("api.query_self_s", "lang.compile_s", "matcher.traversal_s",
               "selector.select_s")

    def __init__(self, work: str, spec: dict):
        self.work = work
        self.spec = spec

    def setup(self):
        import pyarrow.parquet as pq

        from odinson_ray.api import OdinsonEngine
        from odinson_ray.core.sentence import AnnotatedDocument
        from odinson_ray.stages.match import sentence_index_from_struct

        t = pq.read_table(os.path.join(self.work, "prepared.parquet"),
                          columns=["doc_id", "sentences"])
        docs = [AnnotatedDocument(d, [sentence_index_from_struct(s) for s in ss], {})
                for d, ss in zip(t["doc_id"].to_pylist(), t["sentences"].to_pylist())]
        self.engine = OdinsonEngine.in_memory(docs)
        with open(os.path.join(self.work, "patterns.json")) as f:
            spec = json.load(f)
        self.patterns, self.rounds = spec["patterns"], spec["rounds"]

    def run_round(self, order):
        """Send the patterns in ``order``; (latencies, (index, size) pairs),
        size None for a query that raised."""
        lat, sizes = [], []
        for i in order:
            pattern = self.patterns[i]["pattern"]
            t0 = time.perf_counter()
            try:
                size = len(self.engine.query(pattern))
            except Exception as e:  # a query that raises counts as failed
                print(f"query failed: {pattern!r}: {e!r}", file=sys.stderr)
                size = None
            lat.append(time.perf_counter() - t0)
            sizes.append((i, size))
        return lat, sizes

    def timed_rounds(self, seconds: float, count=None):
        k = iter(range(count or 1 << 30))

        def step():
            return self.run_round(self.rounds[next(k) % len(self.rounds)])

        if count is None:
            return timed_loop(step, seconds, self.min_rounds)
        return timed_loop(step, 0, count)

    def run(self, seconds: float, trace: bool) -> Result:
        res = Result()
        self.run_round(range(len(self.patterns)))  # untimed warm-up
        if not trace:
            walls, outs = self.timed_rounds(seconds)
            res.metrics["peak_rss_mb"] = rss_mb()
            lat = [x for o in outs for x in o[0]]
            res.metrics["docs_per_s"] = len(self.engine.docs) * len(lat) / sum(walls)
            res.notes.update(latency_notes(lat), passes=len(walls))
        else:
            outs = self.traced(seconds, res)
        sizes = [x for o in outs for x in o[1]]
        res.attempted = len(sizes)
        res.failed = sum(size is None for _, size in sizes)
        self.check(sizes, res)
        return res

    def traced(self, seconds: float, res: Result):
        """Untraced rounds, then the same rounds traced."""
        from layers import Tracer

        plain, plain_out = self.timed_rounds(seconds / 2)
        tracer = Tracer()
        tracer.install()
        tracer.enabled = True
        try:
            walls, outs = self.timed_rounds(0, count=len(plain))
        finally:
            tracer.enabled = False
            tracer.uninstall()
        res.check("counts_repeat", [o[1] for o in outs] == [o[1] for o in plain_out])
        report_trace(res, tracer, walls, plain, len(walls), self.entered)
        res.metrics["count.docs"] = len(self.engine.docs)
        res.metrics["count.sentences"] = sum(len(d.sentences) for d in self.engine.docs)
        res.metrics["count.query_results"] = sum(size or 0 for _, size in outs[-1][1])
        return plain_out + outs

    def check(self, sizes, res: Result):
        """Per distinct pattern sent: every run returned the full result
        size, a paginated walk concatenates to the full result, and term and
        bigram patterns match the DuckDB count."""
        sent = {}
        for i, size in sizes:
            sent.setdefault(i, set()).add(size)
        for i, seen in sorted(sent.items()):
            p = self.patterns[i]
            full = [(m.doc_id, m.sent_idx, m.start, m.end)
                    for m in self.engine.query(p["pattern"])]
            res.check("size_repeats", seen <= {len(full), None})
            if "expect" in p:
                res.check("count_equals_duckdb", len(full) == p["expect"])
            k = max(1, len(full) // p["pages"])
            walked, page = [], self.engine.query(p["pattern"], n=k)
            while page:
                walked.extend((m.doc_id, m.sent_idx, m.start, m.end) for m in page)
                if len(page) < k or len(walked) > len(full):
                    break
                page = self.engine.query(p["pattern"], n=k, after=page[-1])
            res.check("pagination_concatenates", walked == full)


# ====================================================================== Ray


class KgRay:
    """The user-facing ``pipelines.kg.triples_dataset`` on Ray at
    ``num_cpus=2``; one operation = one whole job."""

    min_jobs = 3
    #: one small job first: worker start-up and imports happen untimed
    warm_jobs = 1
    object_store_mb = 256
    ray_temp = None

    def __init__(self, work: str, spec: dict):
        self.work = work
        self.spec = spec

    def setup(self):
        import logging
        import tempfile

        import ray
        import ray.data

        import odinson_ray.pipelines.kg  # noqa: F401  (imports count as set-up)

        # Ray's AF_UNIX socket paths must stay under 108 bytes, so its
        # session lives in a short private directory, removed in close()
        self.ray_temp = tempfile.mkdtemp(prefix="pb-ray-")
        ray.init(num_cpus=2, include_dashboard=False, logging_level="ERROR",
                 log_to_driver=False, object_store_memory=self.object_store_mb << 20,
                 _temp_dir=self.ray_temp)
        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        logging.getLogger("ray.data").setLevel(logging.WARNING)

    def close(self):
        import shutil

        import ray

        ray.shutdown()
        if self.ray_temp:
            shutil.rmtree(self.ray_temp, ignore_errors=True)

    def job(self, data_dir: str):
        """One job, its result consumed exactly once."""
        import pyarrow as pa

        from odinson_ray.pipelines.kg import triples_dataset

        ds = triples_dataset(data_dir)
        return pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow", batch_size=None)))

    def run(self, seconds: float, trace: bool) -> Result:
        import pyarrow.parquet as pq

        res = Result()
        oracle = sorted_triples(pq.read_table(os.path.join(self.work, "oracle.parquet")))
        main = os.path.join(self.work, "data")
        for _ in range(self.warm_jobs):
            self.job(os.path.join(self.work, "warm"))
        n_docs = pq.read_metadata(os.path.join(main, "documents.parquet")).num_rows
        if not trace:
            walls, outs = timed_loop(lambda: self.job(main), seconds, self.min_jobs)
            res.metrics["peak_rss_mb"] = rss_mb()
            res.metrics["docs_per_s"] = n_docs * len(walls) / sum(walls)
            res.notes.update(latency_notes(walls))
        else:
            outs = self.traced(seconds, res, main, n_docs)
        res.attempted = n_docs * len(outs)
        for out in outs:
            res.failed += error_docs(out)
            res.check("kg_equals_duckdb_oracle", sorted_triples(out).equals(oracle))
        return res

    def traced(self, seconds: float, res: Result, main: str, n_docs: int):
        """The same corpus through TripleCounter in-process (untraced, then
        traced), then the aggregate tail on Ray over the captured partials."""
        import pyarrow as pa
        import ray.data

        from layers import Tracer
        from odinson_ray.stages.triples import aggregate_triples

        raw = KgRaw(self.work, self.spec)
        raw.setup()
        plain, plain_out = timed_loop(raw.run_pass, seconds / 3, 2)
        tracer = Tracer()
        tracer.install()
        entered = raw.entered + tuple(tracer.wrap_rules(raw.stage.extractors))
        tracer.enabled = True
        try:
            walls, traced_out = timed_loop(raw.run_pass, seconds / 3, 2)
        finally:
            tracer.enabled = False
            tracer.uninstall()
        res.check("counts_repeat",
                  len({raw.pass_counts(p[1]) for p in plain_out + traced_out}) == 1)
        partials = traced_out[-1][1]
        t0 = time.perf_counter()
        ds = aggregate_triples(ray.data.from_arrow(partials), pre_counted=True)
        out = pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow", batch_size=None)))
        res.metrics["triples.tail_s"] = time.perf_counter() - t0
        report_trace(res, tracer, walls, plain, len(walls), entered)
        raw.per_pass_counts(res, partials)
        res.metrics["count.docs"] = n_docs
        res.metrics["count.distinct_triples"] = out.num_rows
        return [out]


# ====================================================================== trace


def report_trace(res: Result, tracer, traced_walls, plain_walls, passes: int,
                 entered):
    """Per-layer metrics per pass, plus overhead and unattributed share.

    Unattributed time is traced pass wall outside every layer's self time,
    including the self time of the stage call itself when no layer wraps
    it (``TripleCounter.__call__``). Every layer named in ``entered`` must
    have been called: a wrapper that stops firing hands its time to its
    parent span and would otherwise go unnoticed."""
    for name, s in tracer.self_s.items():
        res.metrics[name] = s / passes
    wall = sum(traced_walls)
    res.metrics["trace.unattributed_frac"] = (wall - sum(tracer.self_s.values())) / wall
    res.metrics["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0)
    missing = [name for name in entered if not tracer.calls[name]]
    res.notes.update(layer_calls=dict(tracer.calls), layers_not_entered=missing)
    res.check("predicted_layers_entered", not missing)
    c = tracer.counts
    res.metrics["lang.compile_calls"] = tracer.calls["lang.compile_s"] / passes
    if c["selector.in"]:
        res.metrics["selector.kept_ratio"] = c["selector.out"] / c["selector.in"]
    if c["link.rows"]:
        res.metrics["link.unique_ratio"] = c["link.uniques"] / c["link.rows"]
    if c["combine.in"]:
        res.metrics["triples.combine_ratio"] = c["combine.out"] / c["combine.in"]
    for name, v in c.items():
        if name.startswith("count."):
            res.metrics[name] = v / passes


WORKLOADS = {
    "kg_raw": KgRaw,
    "extract_prepared": ExtractPrepared,
    "query_adhoc": QueryAdhoc,
    "kg_ray": KgRay,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--work", required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)
    with open(os.path.join(args.work, "spec.json")) as f:
        spec = json.load(f)
    wl = WORKLOADS[args.workload](args.work, spec)
    try:
        wl.setup()
        print(f"READY {time.monotonic()!r}", flush=True)
        if args.probe:
            return 0
        res = wl.run(args.seconds, bool(args.trace))
    finally:
        if hasattr(wl, "close"):
            wl.close()
    print("RESULT " + json.dumps(res.to_json()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
