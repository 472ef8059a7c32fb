"""``common.collector.collector_paused``: the re-entrant pause of CPython's
cyclic collector around the engine's hot calls, and the invariant that
makes the pause free: the paused entry points leave no reference cycles,
so the collections they skip would have found nothing to free."""

import gc
import threading

import numpy as np
import pandas  # noqa: F401
import pyarrow as pa
import pyarrow.dataset  # noqa: F401
import pytest

from odinson_ray.common.collector import collector_paused


@pytest.fixture
def collector_on():
    was = gc.isenabled()
    gc.enable()
    yield
    (gc.enable if was else gc.disable)()


def test_off_inside_on_after(collector_on):
    with collector_paused:
        assert not gc.isenabled()
    assert gc.isenabled()

    @collector_paused
    def inside():
        """doc"""
        return gc.isenabled()

    assert inside() is False and gc.isenabled()
    assert inside.__name__ == "inside" and inside.__doc__ == "doc"


def test_nested_calls_keep_it_off_until_the_outermost_exit(collector_on):
    with collector_paused:
        with collector_paused:
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()


def test_a_collector_the_caller_disabled_stays_disabled(collector_on):
    gc.disable()
    with collector_paused:
        assert not gc.isenabled()
    assert not gc.isenabled()


def test_state_is_restored_after_an_exception(collector_on):
    @collector_paused
    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        boom()
    assert gc.isenabled()
    with pytest.raises(ValueError):
        with collector_paused:
            with collector_paused:
                raise ValueError("y")
    assert gc.isenabled()


def test_overlapping_threads_leave_it_enabled(collector_on):
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
    seen = {}

    def a():
        with collector_paused:
            a_in.set()
            b_in.wait(5)
        a_out.set()

    def b():
        a_in.wait(5)
        with collector_paused:
            b_in.set()
            a_out.wait(5)
            seen["after_a_left"] = gc.isenabled()

    threads = [threading.Thread(target=a), threading.Thread(target=b)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)
    assert not any(t.is_alive() for t in threads)
    assert seen == {"after_a_left": False}
    assert gc.isenabled()


def test_many_threads_share_one_depth_counter(collector_on):
    """A lost update of the depth would leave the collector off (or turn
    it on inside a pause): many threads, a short switch interval."""
    import sys

    inside_on = []

    def work():
        for _ in range(2000):
            with collector_paused:
                if gc.isenabled():
                    inside_on.append(1)

    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(saved)
    assert not any(t.is_alive() for t in threads)
    assert not inside_on
    assert collector_paused._depth == 0 and gc.isenabled()


def test_a_decorated_method_pickles_by_value(collector_on):
    """Ray ships a matcher class by value; its pause arrives as a fresh one."""
    from ray import cloudpickle

    class Stage:
        @collector_paused
        def __call__(self):
            return gc.isenabled()

    copy = cloudpickle.loads(cloudpickle.dumps(Stage))
    assert copy()() is False and gc.isenabled()


# ------------------------------------------------------- no cycles left

WORDS = ("vector column customer table scan spark value data join big key slow "
         "stream row line group filter window merge a batch small agg hash "
         "query the order part fast sort").split()

#: state (@NP, @Tech, @Actor), promotion (^Actor), traversal and lookaround
CASCADE = """
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


def _docs(seed: int, n: int = 12) -> pa.Table:
    rng = np.random.default_rng(seed)
    return pa.table({"doc_id": pa.array(range(seed * 100, seed * 100 + n), pa.int64()),
                     "text": [" ".join(rng.choice(WORDS, size=30)) for _ in range(n)]})


def _prepared(seed: int) -> pa.Table:
    from odinson_ray.sources.interleaved import build_interleaved
    from odinson_ray.stages.annotate import annotate_batch

    return annotate_batch(build_interleaved(_docs(seed)))


@pytest.fixture
def collector_off():
    """Collector off, no garbage pending. The libraries the engine reaches
    lazily (pandas, pyarrow.dataset) are imported above: their one-time
    import garbage is not the engine's."""
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    yield
    (gc.enable if was else gc.disable)()


def test_triple_counter_batches_leave_no_cycles(collector_off):
    from odinson_ray.pipelines.kg import FLAGSHIP_RULES, TripleCounter
    from odinson_ray.sources.interleaved import build_interleaved

    stage = TripleCounter(FLAGSHIP_RULES)
    assert gc.collect() == 0
    clean = stage(_docs(1))
    assert clean.num_rows > 0
    assert gc.collect() == 0
    spans = build_interleaved(_docs(2))
    poisoned = spans.append_column("metadata_json", pa.array(
        ["{not json"] + [None] * (spans.num_rows - 1), pa.string()))
    out = stage(poisoned)
    assert "ent:__error__" in out["subj_canon"].to_pylist()
    assert gc.collect() == 0


def test_grammar_matcher_cascade_leaves_no_cycles(collector_off):
    from odinson_ray.stages.match import GrammarMatcher

    batch = _prepared(3)
    matcher = GrammarMatcher(CASCADE)
    assert gc.collect() == 0
    out = matcher(batch)
    labels = set(out["label"].to_pylist())
    assert {"Tech", "NP", "SVO", "Actor", "TechContext", "ConjVerb"} <= labels
    assert gc.collect() == 0


def test_engine_build_queries_and_extraction_leave_no_cycles(collector_off):
    from odinson_ray.api import OdinsonEngine
    from odinson_ray.core.sentence import AnnotatedDocument
    from odinson_ray.stages.match import sentence_index_from_struct

    t = _prepared(4)
    docs = [AnnotatedDocument(str(d), [sentence_index_from_struct(s) for s in ss], {})
            for d, ss in zip(t["doc_id"].to_pylist(), t["sentences"].to_pylist())]
    assert gc.collect() == 0
    engine = OdinsonEngine.in_memory(docs)
    assert gc.collect() == 0
    found = 0
    for pattern in ("[word=spark]", "[tag=NN & !word=key]", "[word=/s.*/]",
                    "(?<=[word=the]) [tag=NN]", "[tag=NN] (?=[word=scan])",
                    "[word=scan] >nsubj []", "[word=join] >conj{1,3} [tag=VB]"):
        found += len(engine.query(pattern))
        assert gc.collect() == 0, pattern
    assert found > 0
    mentions = engine.extract_mentions(engine.compile_rule_string(CASCADE))
    assert {m.label for m in mentions} >= {"NP", "SVO", "Actor"}
    assert gc.collect() == 0
