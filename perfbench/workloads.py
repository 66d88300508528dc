"""The benchmark's three workloads: inputs from a seed, query, and run settings.

Each workload turns the workload seed into relations (the program sees
only those) plus the same intervals as endpoint arrays for the oracle.
The benchmark names no data plane and no algorithm: ``execute()`` plans
the query and picks its default plane, so a change to the planner, the
plane or the engine is measured as users get it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro import Interval, IntervalJoinQuery, Relation
from repro.workloads import (
    TRACE_PROFILES,
    build_packet_trains,
    generate_trace,
    replicate_trains,
)
from repro.workloads.packets import compress_time

#: The packet trace stands in for the paper's fixed MAWI extract, so it is
#: generated from one fixed seed (the one the Table 2 benchmark uses);
#: the workload seed drives the replication to 6,000 trains.
TRACE_SEED = sum(map(ord, "P04"))


@dataclass
class Inputs:
    """One workload instance: relations for the program, arrays for the
    oracle (``endpoints[name] = (starts, ends)``, indexed by row id)."""

    relations: Dict[str, Relation]
    endpoints: Dict[str, Tuple[np.ndarray, np.ndarray]]

    @property
    def rows(self) -> int:
        return sum(len(relation) for relation in self.relations.values())


@dataclass(frozen=True)
class Workload:
    name: str
    conditions: Tuple[Tuple[str, str, str], ...]
    partitions: int
    executor: str
    make: Callable[[int, float], Inputs]
    #: "reference" checks against ``repro.reference_join``; "brute_force"
    #: against the vectorised endpoint-array join in :mod:`oracle`.
    oracle: str
    workers: Optional[int] = None

    @property
    def query(self) -> IntervalJoinQuery:
        return IntervalJoinQuery.parse(list(self.conditions))

    def kwargs(self) -> Dict[str, object]:
        kwargs: Dict[str, object] = {
            "num_partitions": self.partitions,
            "executor": self.executor,
        }
        if self.workers is not None:
            kwargs["workers"] = self.workers
        return kwargs


def _relation(
    name: str, starts: np.ndarray, ends: np.ndarray
) -> Relation:
    return Relation.of_intervals(
        name, [Interval(float(s), float(e)) for s, e in zip(starts, ends)]
    )


def _stratified(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` points in [0, 1), one uniform draw per 1/n-wide stratum, in
    random order.  Plain uniform draws make the sequence join's output —
    cubic in the relation size — vary by +-15% between seeds; stratified
    draws keep it within about 1%, so the seed changes the intervals but
    not the amount of work."""
    return (rng.permutation(n) + rng.random(n)) / n


def synthetic(
    names: Sequence[str],
    seed: int,
    n: int,
    t_range: Tuple[float, float],
    length_range: Tuple[float, float],
) -> Inputs:
    """Intervals with uniform starts in ``t_range`` and uniform lengths in
    ``length_range`` (clipped to the range end), as the paper's synthetic
    script draws them."""
    rng = np.random.default_rng(seed)
    t_min, t_max = t_range
    l_min, l_max = length_range
    relations: Dict[str, Relation] = {}
    endpoints: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
    for name in names:
        starts = t_min + _stratified(rng, n) * (t_max - t_min)
        ends = np.minimum(
            starts + l_min + _stratified(rng, n) * (l_max - l_min), t_max
        )
        relations[name] = _relation(name, starts, ends)
        endpoints[name] = (starts, ends)
    return Inputs(relations, endpoints)


def packet_trains(seed: int, scale: float = 1.0) -> Inputs:
    """Trains of trace profile P04, replicated to 6,000 and compressed 8x
    in time; one relation aliased three times for the star self-join."""
    packets = generate_trace(TRACE_PROFILES["P04"], seed=TRACE_SEED)
    trains = build_packet_trains(packets, gap_threshold=0.5)
    scaled = compress_time(
        replicate_trains(trains, round(6_000 * scale), seed=seed), 8.0
    )
    base = Relation.of_intervals("T1", scaled)
    arrays = (
        np.array([iv.start for iv in scaled]),
        np.array([iv.end for iv in scaled]),
    )
    return Inputs(
        {"T1": base, "T2": base.alias("T2"), "T3": base.alias("T3")},
        {"T1": arrays, "T2": arrays, "T3": arrays},
    )


def sequence_intervals(seed: int, scale: float = 1.0) -> Inputs:
    return synthetic(
        ("R1", "R2", "R3"), seed, round(100 * scale), (0.0, 1_000.0),
        (1.0, 100.0),
    )


def two_way_intervals(seed: int, scale: float = 1.0) -> Inputs:
    """Half the paper-sized 2 x 20,000 in [0, 100000], at the same
    density: twice the queries per run, the same dispatch-bound shape."""
    return synthetic(
        ("R1", "R2"), seed, round(10_000 * scale), (0.0, 50_000.0),
        (1.0, 100.0),
    )


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "colocation_trains",
            (("T1", "overlaps", "T2"), ("T2", "overlaps", "T3")),
            partitions=16,
            executor="serial",
            make=packet_trains,
            oracle="brute_force",
        ),
        Workload(
            "sequence_grid",
            (("R1", "before", "R2"), ("R2", "before", "R3")),
            partitions=6,
            executor="serial",
            make=sequence_intervals,
            oracle="reference",
        ),
        Workload(
            "two_way_processes",
            (("R1", "overlaps", "R2"),),
            partitions=16,
            executor="processes",
            workers=2,
            make=two_way_intervals,
            oracle="brute_force",
        ),
    )
}
