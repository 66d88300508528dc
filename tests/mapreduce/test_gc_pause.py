"""The collector pause: every MapReduce job runs with the interpreter's
automatic cyclic-GC passes off, and the collector's previous state comes
back when the last concurrent job ends.

Automatic passes only run while the collector is enabled, so "no pass
inside a job" is observed through ``gc.callbacks``: every pass that
starts while a job holds the pause is a violation.  A low collection
threshold makes passes frequent enough that a job without the pause
would trip it (the control case proves the probe can see them).
"""

from __future__ import annotations

import gc
import threading
import types
import weakref

import pytest

from repro.core.executor import execute
from repro.core.query import IntervalJoinQuery
from repro.mapreduce import runner
from repro.mapreduce.fs import InMemoryFileSystem
from repro.mapreduce.job import InputSpec, JobConf
from repro.mapreduce.runner import run_job, shutdown_worker_pools
from repro.mapreduce.task import Mapper, Reducer
from repro.obs import TraceRecorder

from tests.conftest import make_dataset


class TokenizeMapper(Mapper):
    def map(self, record, context):
        for word in record.split():
            context.emit(word, 1)


class SumReducer(Reducer):
    def reduce(self, key, values, context):
        context.emit((key, sum(values)))


class GcStateReducer(Reducer):
    """Emits the collector state each reduce call ran under."""

    def reduce(self, key, values, context):
        context.emit((key, gc.isenabled()))


class FailingReducer(Reducer):
    def reduce(self, key, values, context):
        raise RuntimeError("reducer failed")


class _Node:
    pass


#: Weak references to cycles built inside a job (serial executor only).
_cycles: list = []


class CycleCollectingReducer(Reducer):
    """Builds a reference cycle, then collects it explicitly."""

    def reduce(self, key, values, context):
        node = _Node()
        node.self = node
        ref = weakref.ref(node)
        del node
        gc.collect()
        _cycles.append(ref)
        context.emit((key, ref() is None))


class NestedJobReducer(Reducer):
    """Runs a whole inner job from inside a reduce call."""

    def reduce(self, key, values, context):
        inner = _fs()
        run_job(inner, _conf(name="inner"), executor="serial", faults=False)
        context.emit((key, gc.isenabled()))


#: Gates for the concurrent-jobs test: ``<name>:entered`` and
#: ``<name>:release`` events per job (serial executor, same process).
_gates: dict = {}


class GateReducer(Reducer):
    def __init__(self, gate):
        self.gate = gate

    def reduce(self, key, values, context):
        _gates[f"{self.gate}:entered"].set()
        _gates[f"{self.gate}:release"].wait(30)
        context.emit((key, len(values)))


def _worker_collector_state():
    """Runs in a pool worker, outside any envelope."""
    return gc.isenabled(), runner._pause_depth


def _fs():
    fs = InMemoryFileSystem()
    fs.write("in/doc", ["the quick brown fox", "the lazy dog", "the fox"] * 40)
    return fs


def _conf(reducer=None, name="wordcount"):
    return JobConf(
        name=name,
        inputs=[InputSpec("in/doc", TokenizeMapper())],
        reducer=reducer if reducer is not None else SumReducer(),
        output="out",
        num_reduce_tasks=3,
    )


@pytest.fixture
def collector_on():
    """The collector enabled with a low threshold, restored afterwards."""
    was_enabled = gc.isenabled()
    threshold = gc.get_threshold()
    gc.enable()
    gc.set_threshold(10)
    try:
        yield
    finally:
        gc.set_threshold(*threshold)
        if not was_enabled:
            gc.disable()


@pytest.fixture
def passes_in_job():
    """Pause depth at the start of every collector pass in this test."""
    depths: list = []

    def on_gc(phase, info):
        if phase == "start":
            depths.append(runner._pause_depth)

    gc.callbacks.append(on_gc)
    try:
        yield depths
    finally:
        gc.callbacks.remove(on_gc)


#: Stands in for the runner's ``gc`` module to neutralise the pause: the
#: job's ``gc.disable()`` does nothing.
_GC_WITHOUT_DISABLE = types.SimpleNamespace(
    disable=lambda: None, enable=gc.enable, isenabled=gc.isenabled
)


@pytest.fixture
def without_pause(monkeypatch):
    monkeypatch.setattr(runner, "gc", _GC_WITHOUT_DISABLE)


class TestNoPassInsideAJob:
    @pytest.mark.parametrize("executor", ["serial", "threads", "processes"])
    def test_no_automatic_pass(self, executor, collector_on, passes_in_job):
        fs = _fs()
        run_job(fs, _conf(), executor=executor, workers=2)
        assert [depth for depth in passes_in_job if depth > 0] == []
        assert gc.isenabled()
        assert dict(fs.read_dir("out"))["the"] == 120

    def test_probe_sees_passes_without_the_pause(
        self, collector_on, passes_in_job, without_pause
    ):
        run_job(_fs(), _conf(), executor="serial")
        assert [depth for depth in passes_in_job if depth > 0]

    @pytest.mark.parametrize("executor", ["serial", "threads", "processes"])
    def test_task_bodies_run_paused(self, executor):
        fs = _fs()
        run_job(fs, _conf(GcStateReducer()), executor=executor, workers=2)
        states = {enabled for _, enabled in fs.read_dir("out")}
        assert states == {False}
        assert gc.isenabled()

    def test_explicit_collect_still_works(self):
        _cycles.clear()
        fs = _fs()
        run_job(fs, _conf(CycleCollectingReducer()), executor="serial")
        assert _cycles and all(ref() is None for ref in _cycles)
        assert {freed for _, freed in fs.read_dir("out")} == {True}


class TestRestore:
    def test_caller_disabled_collector_stays_disabled(self):
        gc.disable()
        try:
            run_job(_fs(), _conf(), executor="serial")
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_job_that_raises_restores_the_collector(self):
        assert gc.isenabled()
        with pytest.raises(RuntimeError, match="reducer failed"):
            run_job(
                _fs(), _conf(FailingReducer()), executor="serial",
                faults=False,
            )
        assert gc.isenabled()
        assert runner._pause_depth == 0

    def test_nested_job_keeps_the_outer_pause(self):
        fs = _fs()
        run_job(fs, _conf(NestedJobReducer()), executor="serial")
        # Each outer reduce call saw the collector still off after its
        # inner job returned; it is back on once the outer job is done.
        assert {enabled for _, enabled in fs.read_dir("out")} == {False}
        assert gc.isenabled()
        assert runner._pause_depth == 0

    def test_concurrent_jobs_restore_only_when_the_last_exits(self):
        _gates.clear()
        for gate in ("a", "b"):
            _gates[f"{gate}:entered"] = threading.Event()
            _gates[f"{gate}:release"] = threading.Event()
        errors: list = []

        def job(gate):
            try:
                run_job(_fs(), _conf(GateReducer(gate)), executor="serial")
            except BaseException as exc:  # pragma: no cover - reported below
                errors.append(exc)

        threads = {
            gate: threading.Thread(target=job, args=(gate,), daemon=True)
            for gate in ("a", "b")
        }
        try:
            threads["a"].start()
            assert _gates["a:entered"].wait(30)
            threads["b"].start()
            assert _gates["b:entered"].wait(30)
            assert not gc.isenabled()
            _gates["a:release"].set()
            threads["a"].join(30)
            assert not threads["a"].is_alive()
            assert not gc.isenabled()  # job b still holds the pause
        finally:
            _gates["a:release"].set()
            _gates["b:release"].set()
            for thread in threads.values():
                thread.join(30)
        assert errors == []
        assert gc.isenabled()
        assert runner._pause_depth == 0


class TestPoolWorkers:
    def test_worker_forked_inside_a_job_runs_with_the_collector_on(self):
        # A fresh pool is forked by the job's first dispatch, i.e. while
        # the parent is paused; outside an envelope the worker must have
        # its collector back and no inherited pause.
        shutdown_worker_pools()
        try:
            fs = _fs()
            run_job(fs, _conf(GcStateReducer()), executor="processes",
                    workers=1)
            assert {enabled for _, enabled in fs.read_dir("out")} == {False}
            pool = runner._process_pool(1)
            assert pool.submit(_worker_collector_state).result() == (True, 0)
        finally:
            shutdown_worker_pools()


COLOCATION = IntervalJoinQuery.parse(
    [("R1", "overlaps", "R2"), ("R2", "overlaps", "R3")]
)
HYBRID = IntervalJoinQuery.parse(
    [("R1", "overlaps", "R2"), ("R2", "before", "R3")]
)
SEQUENCE = IntervalJoinQuery.parse(
    [("R1", "before", "R2"), ("R2", "before", "R3")]
)


def _observed_run(algorithm, query, executor):
    data = make_dataset(("R1", "R2", "R3"), 60, seed=7)
    recorder = TraceRecorder()
    result = execute(
        query, data, algorithm=algorithm, num_partitions=5,
        executor=executor, workers=2, observer=recorder,
    )
    return (
        [tuple(row.rid for row in t) for t in result.tuples],
        [job.counters.as_dict() for job in recorder.job_results],
        recorder.metrics.fingerprint(),
    )


@pytest.mark.parametrize("executor", ["serial", "threads"])
@pytest.mark.parametrize(
    "algorithm,query",
    [("rccis", COLOCATION), ("pasm", HYBRID), ("all_matrix", SEQUENCE)],
    ids=["rccis", "pasm", "all_matrix"],
)
def test_results_identical_with_the_collector_running(
    algorithm, query, executor, collector_on, monkeypatch
):
    paused = _observed_run(algorithm, query, executor)
    with monkeypatch.context() as patch:
        patch.setattr(runner, "gc", _GC_WITHOUT_DISABLE)
        running = _observed_run(algorithm, query, executor)
    assert paused[0] and paused == running
