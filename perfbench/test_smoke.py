"""Smoke test of the benchmark itself, at reduced relation sizes.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import layers  # noqa: E402
import measure  # noqa: E402
import oracle  # noqa: E402
from probe import HostClock  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from repro import reference_join  # noqa: E402

SCALE = 0.1

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)


def run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [
            sys.executable, os.path.join(HERE, "run.py"),
            "--workload", workload, "--seed", "3", "--seconds", "0.2",
            "--trace", str(trace), "--scale", str(SCALE),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_named_metric_is_emitted_with_its_unit(workload, trace, section):
    result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        if section == "end_to_end":
            assert metric["value"] > 0, name


def test_workload_names_match_the_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_brute_force_oracle_agrees_with_reference_join(workload):
    spec = WORKLOADS[workload]
    inputs = spec.make(5, 0.05)
    query = spec.query
    reference = oracle.result_ids(
        reference_join(query, inputs.relations), len(query.relations)
    )
    brute = oracle.brute_force(
        tuple(query.relations), spec.conditions, inputs.endpoints
    )
    assert len(reference) > 0
    assert reference.tolist() == brute.tolist()


def test_a_dropped_tuple_counts_as_a_failed_query(monkeypatch):
    workload = WORKLOADS["sequence_grid"]
    inputs = workload.make(2, 0.2)
    expected = oracle.expected(workload, inputs)
    loop = measure.Loop(workload, inputs, expected, HostClock())
    measure.untraced(loop, 0)
    assert (loop.attempted, loop.failed) == (1, 0)

    execute = measure.execute

    def drop_one(*args, **kwargs):
        result = execute(*args, **kwargs)
        result.tuples.pop()
        return result

    monkeypatch.setattr(measure, "execute", drop_one)
    measure.untraced(loop, 0)
    assert (loop.attempted, loop.failed) == (2, 1)


def test_grid_trace_reports_the_ownership_filter_and_adds_up():
    workload = WORKLOADS["sequence_grid"]
    inputs = workload.make(2, 0.3)
    expected = oracle.expected(workload, inputs)
    loop = measure.Loop(workload, inputs, expected, HostClock())
    _, wall, metrics = layers.traced_query(loop.execute, 1)
    assert metrics["owns.checks"] >= metrics["local_join.tuples"] > 0
    assert metrics["local_join.comparisons"] > 0
    assert layers.interval_calls(loop.execute)[1] > 0
    self_times = sum(metrics[name] for name in layers.SELF_TIMES.values())
    assert self_times == pytest.approx(wall, rel=0.02)
