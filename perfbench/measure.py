"""One measurement process: set up a workload, then run it in a closed loop.

``run.py`` starts this file in a fresh process per measurement, so peak
memory and the ``processes`` worker pool never leak between runs.  It
prints one JSON object with the raw measurements as its last line.

    python3 perfbench/measure.py --workload NAME --seed N --seconds S
        [--trace] [--setup-only] [--scale F]

Every time it reports is in reference seconds (see :mod:`probe`).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from typing import Any, Dict, List, Optional

import layers
import oracle
from metrics import PER_LAYER
from probe import HostClock
from workloads import WORKLOADS, Workload

from repro import execute
from repro.mapreduce.runner import shutdown_worker_pools


def setup(workload: Workload, seed: int, scale: float):
    """Generate the relations and run one untimed warm-up query; on
    ``processes`` the warm-up starts the worker pool.  Returns the inputs
    and the wall seconds it all took."""
    query, kwargs = workload.query, workload.kwargs()
    started = time.perf_counter()
    inputs = workload.make(seed, scale)
    execute(query, inputs.relations, **kwargs)
    return inputs, time.perf_counter() - started


class Loop:
    """A closed loop: one client, one query at a time, each answer
    checked against the oracle outside the timed region."""

    def __init__(self, workload: Workload, inputs, expected, host: HostClock) -> None:
        self.workload = workload
        self.query = workload.query
        self.kwargs = workload.kwargs()
        self.inputs = inputs
        self.expected = expected
        self.host = host
        self.attempted = 0
        self.failed = 0
        #: reference and wall seconds of the untraced queries that returned.
        self.seconds: List[float] = []
        self.wall: List[float] = []
        self.metrics = None

    def execute(self, observer=None):
        """One ``execute()`` call of the workload."""
        return execute(
            self.query, self.inputs.relations, observer=observer, **self.kwargs
        )

    def plain(self):
        started = time.perf_counter()
        result = self.execute()
        return result, time.perf_counter() - started, None

    def traced(self):
        return layers.traced_query(self.execute, self.workload.workers or 1)

    def interval_calls(self):
        result, calls = layers.interval_calls(self.execute)
        return result, 0.0, calls

    def attempt(self, run):
        """Run one query through ``run() -> (result, wall, extra)`` and
        check its answer.  Returns ``(wall, factor, extra)`` with the
        factor to reference seconds, or ``None`` if the query raised or
        answered wrongly.  Collects the previous query's garbage first,
        so every query starts from the same heap."""
        self.attempted += 1
        gc.collect()
        try:
            result, wall, extra = run()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            self.host.scale()
            return None
        if self.metrics is None:
            self.metrics = result.metrics
        correct = oracle.matches(result, self.expected)
        # Probe after the check: on ``processes`` the workers are still
        # winding down right after a query.
        factor = self.host.scale()
        if not correct:
            print(
                f"wrong answer: {len(result)} tuples, expected "
                f"{len(self.expected)}",
                file=sys.stderr,
            )
            self.failed += 1
            return None
        return wall, factor, extra

    def untraced(self) -> None:
        outcome = self.attempt(self.plain)
        if outcome is not None:
            wall, factor, _ = outcome
            self.wall.append(wall)
            self.seconds.append(wall * factor)


def untraced(loop: Loop, seconds: float) -> Dict[str, Any]:
    deadline = time.perf_counter() + seconds
    while True:
        loop.untraced()
        if time.perf_counter() >= deadline:
            return {}


def traced(loop: Loop, seconds: float) -> Dict[str, Any]:
    """Alternate untraced and traced queries; the untraced ones give the
    tracing overhead.  One more query counts ``Row.interval`` calls."""
    counted = loop.attempt(loop.interval_calls)
    walls: List[float] = []
    samples: List[Dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    while True:
        loop.untraced()
        outcome = loop.attempt(loop.traced)
        if outcome is not None:
            wall, factor, per_layer = outcome
            walls.append(wall * factor)
            samples.append(
                {
                    name: value * factor if PER_LAYER[name] == "s" else value
                    for name, value in per_layer.items()
                }
            )
        if time.perf_counter() >= deadline:
            break
    if not samples or not loop.seconds:
        return {
            "per_layer": {},
            "traced_queries": len(samples),
            "traced_wall_s": 0.0,
            "attributed_frac": 0.0,
        }
    attributed = statistics.median(
        sum(sample[name] for name in layers.SELF_TIMES.values()) / wall
        for sample, wall in zip(samples, walls)
    )
    per_layer = layers.medians(samples)
    per_layer["schema.interval_calls"] = counted[2] if counted else 0
    per_layer["obs.trace_overhead_frac"] = (
        statistics.median(walls) / statistics.median(loop.seconds) - 1
    )
    return {
        "per_layer": per_layer,
        "traced_queries": len(samples),
        "traced_wall_s": statistics.median(walls),
        "attributed_frac": attributed,
    }


def measure(
    workload: Workload, seed: int, seconds: float, trace: bool, scale: float
) -> Dict[str, Any]:
    host = HostClock()
    inputs, setup_wall = setup(workload, seed, scale)
    setup_s = setup_wall * host.scale()
    expected = oracle.expected(workload, inputs)
    loop = Loop(workload, inputs, expected, host)
    report = (traced if trace else untraced)(loop, seconds)
    metrics = loop.metrics
    report.update(
        workload=describe(workload, inputs, len(expected), metrics),
        executor=workload.executor,
        setup_s=setup_s,
        attempted=loop.attempted,
        failed=loop.failed,
        query_seconds=loop.seconds,
        query_wall_s=loop.wall,
        probe_s=host.probes,
        rows=inputs.rows,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if metrics is not None:
        report.update(
            shuffled_records=metrics.shuffled_records,
            max_reducer_load=metrics.max_reducer_load,
            modelled_s=metrics.simulated_seconds,
        )
    return report


def describe(workload: Workload, inputs, tuples: int, metrics) -> str:
    query = ", ".join(" ".join(c) for c in workload.conditions)
    workers = f" workers={workload.workers}" if workload.workers else ""
    algorithm = metrics.algorithm if metrics is not None else "?"
    return (
        f"query: {query} | rows={inputs.rows} partitions={workload.partitions} "
        f"executor={workload.executor}{workers} algorithm={algorithm} "
        f"tuples={tuples}"
    )


def stop_helpers() -> None:
    """Join the worker pool and the multiprocessing resource tracker the
    ``processes`` executor started, so no process outlives this one."""
    shutdown_worker_pools()
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if workload.executor == "serial":
        # A serial query runs on one CPU; pinning it keeps the query and
        # the host probes on the same CPU.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        if args.setup_only:
            host = HostClock()
            _, setup_wall = setup(workload, args.seed, args.scale)
            report: Dict[str, Any] = {"setup_s": setup_wall * host.scale()}
        else:
            report = measure(
                workload, args.seed, args.seconds, args.trace, args.scale
            )
    finally:
        stop_helpers()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
