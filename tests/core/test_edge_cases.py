"""Edge-case tests across the algorithm suite."""

import math

import pytest

from tests.conftest import assert_matches_reference, make_dataset

from repro.core.algorithms.base import build_partitioning
from repro.core.executor import execute
from repro.core.planner import ALGORITHMS
from repro.core.query import IntervalJoinQuery
from repro.core.schema import Relation, Row
from repro.intervals.interval import Interval
from repro.intervals.partitioning import Partitioning


class TestEmptyRelations:
    @pytest.mark.parametrize(
        "algorithm",
        ["rccis", "all_replicate", "two_way_cascade", "all_seq_matrix"],
    )
    def test_one_empty_relation_gives_empty_output(self, algorithm):
        q = IntervalJoinQuery.parse(
            [("R1", "overlaps", "R2"), ("R2", "overlaps", "R3")]
        )
        data = make_dataset(["R1", "R2"], 10, seed=1)
        data["R3"] = Relation("R3", [])
        result = execute(q, data, algorithm=algorithm, num_partitions=3)
        assert len(result) == 0

    def test_all_empty(self):
        q = IntervalJoinQuery.parse([("R1", "overlaps", "R2")])
        data = {"R1": Relation("R1", []), "R2": Relation("R2", [])}
        result = execute(q, data, num_partitions=3)
        assert len(result) == 0


class TestDegenerateData:
    @pytest.mark.parametrize("algorithm", ["rccis", "all_replicate"])
    def test_all_identical_intervals(self, algorithm):
        q = IntervalJoinQuery.parse(
            [("R1", "equals", "R2"), ("R2", "equals", "R3")]
        )
        data = {
            name: Relation.of_intervals(name, [Interval(5, 10)] * 4)
            for name in ("R1", "R2", "R3")
        }
        result = execute(q, data, algorithm=algorithm, num_partitions=3)
        assert len(result) == 64  # 4^3 combinations
        assert_matches_reference(q, data, result)

    @pytest.mark.parametrize("algorithm", ["rccis", "all_seq_matrix"])
    def test_single_row_relations(self, algorithm):
        q = IntervalJoinQuery.parse(
            [("R1", "overlaps", "R2"), ("R2", "overlaps", "R3")]
        )
        data = {
            "R1": Relation.of_intervals("R1", [Interval(0, 10)]),
            "R2": Relation.of_intervals("R2", [Interval(5, 15)]),
            "R3": Relation.of_intervals("R3", [Interval(12, 20)]),
        }
        result = execute(q, data, algorithm=algorithm, num_partitions=4)
        assert result.tuple_ids() == [(0, 0, 0)]

    def test_intervals_spanning_whole_range(self):
        # One interval covers everything: split hits every partition.
        q = IntervalJoinQuery.parse(
            [("R1", "contains", "R2"), ("R1", "contains", "R3")]
        )
        data = {
            "R1": Relation.of_intervals("R1", [Interval(0, 1000)]),
            "R2": Relation.of_intervals(
                "R2", [Interval(100, 150), Interval(800, 900)]
            ),
            "R3": Relation.of_intervals("R3", [Interval(400, 450)]),
        }
        result = execute(q, data, algorithm="rccis", num_partitions=8)
        assert_matches_reference(q, data, result)
        assert len(result) == 2

    @pytest.mark.parametrize(
        "algorithm", ["rccis", "all_replicate", "two_way_cascade"]
    )
    def test_point_interval_mixture(self, algorithm):
        import random

        rng = random.Random(5)
        q = IntervalJoinQuery.parse(
            [("R1", "during", "R2"), ("R2", "overlaps", "R3")]
        )
        data = {}
        for name in ("R1", "R2", "R3"):
            intervals = []
            for _ in range(20):
                start = rng.randint(0, 30)
                length = rng.choice([0, 0, rng.randint(1, 10)])
                intervals.append(Interval(start, start + length))
            data[name] = Relation.of_intervals(name, intervals)
        result = execute(q, data, algorithm=algorithm, num_partitions=4)
        assert_matches_reference(q, data, result)


UNBOUNDED = [
    Interval(0, math.inf),
    Interval(-math.inf, 2),
    Interval(1, 3),
    Interval(4, 6),
    Interval(5, 9),
    Interval(8, 10),
    Interval(11, 12),
]

#: Each query with the algorithms that accept its query class.
UNBOUNDED_QUERIES = {
    "two_way_overlaps": (
        [("R1", "overlaps", "R2")],
        ["two_way", "two_way_cascade", "all_replicate", "rccis",
         "all_seq_matrix", "pasm", "gen_matrix", "fcts"],
    ),
    "chain_overlaps": (
        [("R1", "overlaps", "R2"), ("R2", "overlaps", "R3")],
        ["two_way_cascade", "all_replicate", "rccis", "all_seq_matrix",
         "pasm", "gen_matrix", "fcts"],
    ),
    "sequence_chain": (
        [("R1", "before", "R2"), ("R2", "before", "R3")],
        ["two_way_cascade", "all_replicate", "all_matrix", "all_seq_matrix",
         "pasm", "gen_matrix", "fcts"],
    ),
    "hybrid": (
        [("R1", "overlaps", "R2"), ("R2", "before", "R3")],
        ["two_way_cascade", "all_replicate", "all_seq_matrix", "pasm",
         "gen_matrix", "fcts", "fstc"],
    ),
}


class TestUnboundedIntervals:
    """Open-ended intervals: partition boundaries come from the finite
    endpoints and ``locate`` clamps the infinite ones."""

    def test_every_algorithm_is_covered(self):
        covered = {
            name for _, algorithms in UNBOUNDED_QUERIES.values()
            for name in algorithms
        }
        assert covered == set(ALGORITHMS)

    @pytest.mark.parametrize("strategy", ["uniform", "equi_depth"])
    @pytest.mark.parametrize(
        "query_name, algorithm",
        [
            (query_name, algorithm)
            for query_name, (_, algorithms) in UNBOUNDED_QUERIES.items()
            for algorithm in algorithms
        ],
    )
    def test_matches_reference(self, query_name, algorithm, strategy):
        q = IntervalJoinQuery.parse(UNBOUNDED_QUERIES[query_name][0])
        data = {
            name: Relation.of_intervals(name, UNBOUNDED)
            for name in q.relations
        }
        result = execute(
            q, data, algorithm=algorithm, num_partitions=4,
            partition_strategy=strategy,
        )
        assert len(result) > 0
        assert_matches_reference(q, data, result)

    @pytest.mark.parametrize("strategy", ["uniform", "equi_depth"])
    def test_boundaries_are_finite(self, strategy):
        q = IntervalJoinQuery.parse([("R1", "overlaps", "R2")])
        data = {
            name: Relation.of_intervals(name, UNBOUNDED)
            for name in q.relations
        }
        parts = build_partitioning(q, data, 4, strategy=strategy)
        assert all(math.isfinite(b) for b in parts.boundaries)
        assert parts.locate(-math.inf) == 0
        assert parts.locate(math.inf) == len(parts) - 1

    def test_only_unbounded_endpoints(self):
        q = IntervalJoinQuery.parse([("R1", "overlaps", "R2")])
        data = {
            name: Relation.of_intervals(
                name, [Interval(-math.inf, math.inf)] * 2
            )
            for name in q.relations
        }
        result = execute(q, data, algorithm="rccis", num_partitions=3)
        assert_matches_reference(q, data, result)


class TestExplicitPartitioning:
    def test_supplied_partitioning_used(self):
        q = IntervalJoinQuery.parse([("R1", "overlaps", "R2")])
        data = make_dataset(["R1", "R2"], 25, seed=2, span=100)
        parts = Partitioning.uniform(-50, 250, 5)
        result = execute(
            q, data, algorithm="two_way", partitioning=parts
        )
        assert_matches_reference(q, data, result)

    def test_partitioning_narrower_than_data(self):
        # Out-of-range intervals clamp to the edge partitions.
        q = IntervalJoinQuery.parse([("R1", "overlaps", "R2")])
        data = make_dataset(["R1", "R2"], 25, seed=3, span=200)
        parts = Partitioning.uniform(50, 150, 4)
        result = execute(
            q, data, algorithm="two_way", partitioning=parts
        )
        assert_matches_reference(q, data, result)


class TestGenMatrixEdgeCases:
    def test_degenerate_component_two_attrs_one_relation(self):
        # R1.A ov R2.I and R2.I ov R1.B puts (R1,A), (R2,I), (R1,B) in a
        # single component with R1 appearing twice -> the conservative
        # flag-everything path.
        q = IntervalJoinQuery.parse(
            [("R1.A", "overlaps", "R2.I"), ("R2.I", "overlaps", "R1.B")]
        )
        import random

        rng = random.Random(9)
        rows1 = []
        for rid in range(15):
            a_start = rng.uniform(0, 60)
            b_start = rng.uniform(0, 60)
            rows1.append(
                Row.make(
                    rid,
                    {
                        "A": Interval(a_start, a_start + rng.uniform(1, 15)),
                        "B": Interval(b_start, b_start + rng.uniform(1, 15)),
                    },
                )
            )
        rows2 = []
        for rid in range(15):
            start = rng.uniform(0, 60)
            rows2.append(
                Row.make(rid, {"I": Interval(start, start + rng.uniform(1, 15))})
            )
        data = {"R1": Relation("R1", rows1), "R2": Relation("R2", rows2)}
        result = execute(q, data, algorithm="gen_matrix", num_partitions=3)
        assert_matches_reference(q, data, result)

    def test_relation_with_attrs_in_two_components(self):
        # R3 joins through I (colocation with R1) and A (equality with
        # R2): constraints on two grid dimensions simultaneously.
        q = IntervalJoinQuery.parse(
            [("R1.I", "overlaps", "R3.I"), ("R2.A", "=", "R3.A")]
        )
        import random

        rng = random.Random(10)

        def rel(name, attrs, n=15):
            rows = []
            for rid in range(n):
                values = {}
                for attr in attrs:
                    if attr == "I":
                        s = rng.uniform(0, 50)
                        values["I"] = Interval(s, s + rng.uniform(1, 10))
                    else:
                        values[attr] = float(rng.randint(0, 3))
                rows.append(Row.make(rid, values))
            return Relation(name, rows)

        data = {
            "R1": rel("R1", ["I"]),
            "R2": rel("R2", ["A"]),
            "R3": rel("R3", ["I", "A"]),
        }
        result = execute(q, data, algorithm="gen_matrix", num_partitions=3)
        assert_matches_reference(q, data, result)


class TestSelfJoinAliases:
    @pytest.mark.parametrize("algorithm", ["rccis", "all_matrix"])
    def test_star_self_join(self, algorithm):
        base = make_dataset(["T"], 25, seed=6)["T"]
        data = {
            "T1": base.alias("T1"),
            "T2": base.alias("T2"),
            "T3": base.alias("T3"),
        }
        predicate = "overlaps" if algorithm == "rccis" else "before"
        q = IntervalJoinQuery.parse(
            [("T1", predicate, "T2"), ("T2", predicate, "T3")]
        )
        result = execute(q, data, algorithm=algorithm, num_partitions=4)
        assert_matches_reference(q, data, result)


class TestThreadedExecutors:
    @pytest.mark.parametrize(
        "algorithm", ["all_seq_matrix", "gen_matrix", "two_way_cascade"]
    )
    def test_threads_match_serial(self, algorithm):
        q = IntervalJoinQuery.parse(
            [("R1", "before", "R2"), ("R1", "overlaps", "R3")]
        )
        data = make_dataset(["R1", "R2", "R3"], 25, seed=7)
        serial = execute(q, data, algorithm=algorithm, num_partitions=4)
        threaded = execute(
            q, data, algorithm=algorithm, num_partitions=4,
            executor="threads",
        )
        assert serial.same_output(threaded)
