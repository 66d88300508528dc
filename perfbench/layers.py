"""Per-layer attribution of one traced query.

A traced query runs with the program's own :class:`TraceRecorder`
attached (job, phase and task spans, worker-side task spans on the
``processes`` executor) and with wrappers, installed from this file for
the duration of the query only, around the public entry points of the
layers below the task level.  Every span — the recorder's and the
wrappers' — opens a frame on one stack, and time is charged to the frame
on top, so a layer's self time is its span time minus the time of the
spans opened inside it.  Generators are timed per resume, so a caller's
work between two items is not charged to the generator.

``Row.interval`` runs about a million times per query; wrapping it would
cost a third of a traced query and land in its callers' self times, so
its calls are counted in a separate, untimed query.

Wrappers run in the driver process only.  On the ``processes`` executor
the map and reduce tasks run in forked workers that cannot report back,
so there the sub-reduce metrics miss the workers' work, and the
runner/map/reduce metrics come from the recorder's worker-side task
spans.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import repro.core.algorithms.crossing as crossing_module
import repro.core.executor as executor_module
import repro.core.local as local_module
import repro.mapreduce.runner as runner_module
from repro.core.local import LocalJoiner
from repro.core.schema import Row
from repro.intervals.tree import IntervalTree
from repro.mapreduce.fs import FileSystem
from repro.obs import TraceRecorder

#: Stack layer -> the metric of its self time.  The self times of these
#: layers add up to the traced query's wall time.
SELF_TIMES = {
    "driver": "driver.self_s",
    "planner": "planner.plan_s",
    "runner": "runner.self_s",
    "map": "map.self_s",
    "shuffle": "shuffle.self_s",
    "reduce": "reduce.self_s",
    "local_join": "local_join.self_s",
    "index.build": "index.build_s",
    "index.probe": "index.probe_s",
    "sweep": "sweep.self_s",
    "owns": "owns.self_s",
    "fs.commit": "fs.commit_s",
    "fs.read": "fs.read_s",
}


class LayerClock:
    """Self time per layer, charged to whichever layer's frame is on top
    of the stack, plus per-layer event counts."""

    def __init__(self) -> None:
        self.stack: List[Optional[str]] = []
        self.top: Optional[str] = None
        self.since = time.perf_counter()
        #: seconds per layer (``None``: outside every frame).
        self.self_s: Dict[Optional[str], float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)

    def enter(self, layer: str) -> None:
        now = time.perf_counter()
        self.self_s[self.top] += now - self.since
        self.stack.append(self.top)
        self.top = layer
        self.since = now

    def exit(self) -> None:
        now = time.perf_counter()
        self.self_s[self.top] += now - self.since
        self.top = self.stack.pop()
        self.since = now

    def outermost(self, layer: str) -> bool:
        """Whether no frame of ``layer`` is open."""
        return layer != self.top and layer not in self.stack

    @contextmanager
    def frame(self, layer: str) -> Iterator[None]:
        self.enter(layer)
        try:
            yield
        finally:
            self.exit()


class LayerRecorder(TraceRecorder):
    """The program's recorder, with each span it opens on this thread
    also opened as a frame on the layer stack."""

    def __init__(self, clock: LayerClock) -> None:
        super().__init__(profile=False, live=False)
        self.clock = clock

    def start_span(self, name, kind="span", parent=None, **attributes):
        span = super().start_span(name, kind=kind, parent=parent, **attributes)
        if kind in ("job", "phase"):
            layer = "runner"
        elif kind in ("task", "attempt"):
            layer = attributes.get("phase", "runner")
        else:  # query, plan, algorithm, reconciliation
            layer = "driver"
        self.clock.enter(layer)
        return span

    def end_span(self, span):
        self.clock.exit()
        super().end_span(span)


def _timed(clock: LayerClock, layer: str, fn: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        with clock.frame(layer):
            return fn(*args, **kwargs)

    return wrapper


def _timed_generator(
    clock: LayerClock, layer: str, fn: Callable, count: str = ""
) -> Callable:
    """Wrap a generator function, timing each resume; ``count`` names a
    counter of the items it yields."""
    enter, exit, counts = clock.enter, clock.exit, clock.counts

    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        while True:
            enter(layer)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                exit()
            if count:
                counts[count] += 1
            yield item

    return wrapper


def _counted(counts: Dict[str, int], name: str, fn: Callable) -> Callable:
    """Wrap a method of one argument, counting its calls."""

    def wrapper(self, argument):
        counts[name] += 1
        return fn(self, argument)

    return wrapper


def _commit(clock: LayerClock, fn: Callable) -> Callable:
    """``append_partition`` commits through ``write_attempt`` and
    ``promote_attempt``; only the outermost call counts as a commit."""

    def wrapper(*args, **kwargs):
        if clock.outermost("fs.commit"):
            clock.counts["fs.commits"] += 1
        with clock.frame("fs.commit"):
            return fn(*args, **kwargs)

    return wrapper


def _shuffle(clock: LayerClock, fn: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        with clock.frame("shuffle"):
            tasks = fn(*args, **kwargs)
        clock.counts["shuffle.keys"] += sum(len(task) for task in tasks)
        return tasks

    return wrapper


def _local_join(clock: LayerClock, fn: Callable) -> Callable:
    """``LocalJoiner.join``, with its ``accept=`` ownership filter timed
    as the ``owns`` layer."""
    timed_join = _timed_generator(clock, "local_join", fn, "local_join.tuples")
    counts = clock.counts

    def owns(accept: Callable) -> Callable:
        def check(binding):
            counts["owns.checks"] += 1
            clock.enter("owns")
            try:
                accepted = accept(binding)
            finally:
                clock.exit()
            if not accepted:
                counts["owns.rejects"] += 1
            return accepted

        return check

    def join(self, rows_by_relation, accept=None):
        counts["local_join.calls"] += 1
        counts["local_join.rows_in"] += sum(
            len(rows_by_relation.get(name) or ())
            for name in self.query.relations
        )
        if accept is not None:
            accept = owns(accept)
        return timed_join(self, rows_by_relation, accept)

    return join


@contextmanager
def patched(patches: List[Tuple[Any, str, Callable]]) -> Iterator[None]:
    """Set each ``(target, name, wrapper)``; restore the originals on exit."""
    originals = [(target, name, target.__dict__[name]) for target, name, _ in patches]
    try:
        for target, name, wrapper in patches:
            setattr(target, name, wrapper)
        yield
    finally:
        for target, name, original in originals:
            setattr(target, name, original)


def layer_wrappers(clock: LayerClock) -> List[Tuple[Any, str, Callable]]:
    """The timing wrappers, each at the name its callers look up."""
    patches = [
        (executor_module, "plan", _timed(clock, "planner", executor_module.plan)),
        (runner_module, "shuffle", _shuffle(clock, runner_module.shuffle)),
        (
            runner_module,
            "columnar_shuffle",
            _shuffle(clock, runner_module.columnar_shuffle),
        ),
        (LocalJoiner, "join", _local_join(clock, LocalJoiner.join)),
        (
            IntervalTree,
            "__init__",
            _timed(clock, "index.build", IntervalTree.__init__),
        ),
        (
            IntervalTree,
            "overlapping",
            _counted(
                clock.counts,
                "index.probes",
                _timed_generator(clock, "index.probe", IntervalTree.overlapping),
            ),
        ),
        (FileSystem, "read_dir", _timed_generator(clock, "fs.read", FileSystem.read_dir)),
    ]
    for name in ("write_attempt", "promote_attempt", "append_partition"):
        patches.append((FileSystem, name, _commit(clock, getattr(FileSystem, name))))
    for module in (local_module, crossing_module):
        patches.append(
            (
                module,
                "join_pairs",
                _timed_generator(clock, "sweep", module.join_pairs, "sweep.pairs"),
            )
        )
    return patches


def traced_query(
    execute: Callable[[Any], Any], workers: int
) -> Tuple[Any, float, Dict[str, float]]:
    """Run one query under the recorder and the wrappers.

    ``execute(observer)`` runs the query.  Returns its result, its wall
    time and the per-layer metrics, but for ``schema.interval_calls``
    (see :func:`interval_calls`) and ``obs.trace_overhead_frac``, which
    needs the untraced times."""
    clock = LayerClock()
    recorder = LayerRecorder(clock)
    try:
        with patched(layer_wrappers(clock)):
            started = time.perf_counter()
            with clock.frame("driver"):
                result = execute(recorder)
            wall = time.perf_counter() - started
    finally:
        recorder.close()
    return result, wall, layer_metrics(clock, recorder, workers)


def interval_calls(execute: Callable[[Any], Any]) -> Tuple[Any, int]:
    """Run one untraced query counting ``Row.interval`` calls."""
    counts: Dict[str, int] = defaultdict(int)
    name = "schema.interval_calls"
    with patched([(Row, "interval", _counted(counts, name, Row.interval))]):
        result = execute(None)
    return result, counts[name]


def layer_metrics(
    clock: LayerClock, recorder: TraceRecorder, workers: int
) -> Dict[str, float]:
    tasks = [s for s in recorder.spans if s.kind == "task"]
    map_tasks = [s for s in tasks if s.attributes.get("phase") == "map"]
    reduce_tasks = [s for s in tasks if s.attributes.get("phase") == "reduce"]
    phase_wall: Dict[str, float] = defaultdict(float)
    for span in recorder.spans:
        if span.kind == "phase":
            phase_wall[span.name] += span.duration
    map_busy = sum(s.duration for s in map_tasks)
    reduce_busy = sum(s.duration for s in reduce_tasks)
    task_phases_wall = phase_wall["map"] + phase_wall["reduce"]
    comparisons = sum(
        s.counters.get("work", {}).get("comparisons", 0) for s in reduce_tasks
    )
    counts = clock.counts
    metrics = {
        metric: clock.self_s.get(layer, 0.0) for layer, metric in SELF_TIMES.items()
    }
    metrics.update(
        {
            "map.busy_s": map_busy,
            "map.records_out": sum(
                s.attributes.get("output_pairs", 0) for s in map_tasks
            ),
            "runner.map_wall_s": phase_wall["map"],
            "runner.reduce_wall_s": phase_wall["reduce"],
            "runner.tasks": len(tasks),
            "runner.dispatch_s": task_phases_wall
            - (map_busy + reduce_busy) / workers,
            "runner.utilisation": _ratio(
                map_busy + reduce_busy, task_phases_wall * workers
            ),
            "shuffle.keys": counts["shuffle.keys"],
            "reduce.busy_s": reduce_busy,
            "reduce.max_task_s": max(
                (s.duration for s in reduce_tasks), default=0.0
            ),
            "local_join.calls": counts["local_join.calls"],
            "local_join.rows_in": counts["local_join.rows_in"],
            "local_join.tuples": counts["local_join.tuples"],
            "local_join.comparisons": comparisons,
            "local_join.tuples_per_comparison": _ratio(
                counts["local_join.tuples"], comparisons
            ),
            "index.probes": counts["index.probes"],
            "sweep.pairs": counts["sweep.pairs"],
            "owns.checks": counts["owns.checks"],
            "owns.reject_ratio": _ratio(counts["owns.rejects"], counts["owns.checks"]),
            "fs.commits": counts["fs.commits"],
        }
    )
    return metrics


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def medians(samples: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-metric median over the traced queries of a run."""
    return {
        name: statistics.median(sample[name] for sample in samples)
        for name in samples[0]
    }
