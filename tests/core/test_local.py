"""Unit tests for the reducer-local join evaluator."""

import gc
import math
import random
import weakref

import pytest

from tests.conftest import make_dataset

from repro.core.local import LocalJoiner
from repro.core.query import IntervalJoinQuery
from repro.core.reference import reference_join
from repro.core.schema import Relation, Row
from repro.intervals.interval import Interval
from repro.intervals.tree import IntervalTree


QUERIES = [
    [("R1", "overlaps", "R2")],
    [("R1", "before", "R2")],
    [("R1", "overlaps", "R2"), ("R2", "overlaps", "R3")],
    [("R1", "before", "R2"), ("R2", "before", "R3")],
    [("R1", "before", "R2"), ("R1", "overlaps", "R3")],
    [("R1", "contains", "R2"), ("R2", "contains", "R3")],
    [
        ("R1", "overlaps", "R2"),
        ("R2", "overlaps", "R3"),
        ("R1", "before", "R3"),
    ],
]


class TestLocalJoiner:
    @pytest.mark.parametrize("conditions", QUERIES)
    def test_matches_reference(self, conditions):
        names = sorted({n for l, _, r in conditions for n in (l, r)})
        data = make_dataset(names, 40, seed=11)
        query = IntervalJoinQuery.parse(conditions)
        joiner = LocalJoiner(query)
        got = sorted(
            tuple(row.rid for row in t)
            for t in joiner.join({n: data[n].rows for n in names})
        )
        want = reference_join(query, data).tuple_ids()
        assert got == want

    def test_counts_comparisons(self):
        data = make_dataset(["R1", "R2"], 30, seed=5)
        query = IntervalJoinQuery.parse([("R1", "overlaps", "R2")])
        counted = []
        joiner = LocalJoiner(query, counted.append)
        list(joiner.join({n: data[n].rows for n in data}))
        assert sum(counted) > 0

    def test_accept_filter(self):
        data = make_dataset(["R1", "R2"], 30, seed=6)
        query = IntervalJoinQuery.parse([("R1", "overlaps", "R2")])
        joiner = LocalJoiner(query)
        all_tuples = list(joiner.join({n: data[n].rows for n in data}))
        none = list(
            joiner.join(
                {n: data[n].rows for n in data}, accept=lambda b: False
            )
        )
        assert none == []
        half = list(
            joiner.join(
                {n: data[n].rows for n in data},
                accept=lambda b: b["R1"].rid % 2 == 0,
            )
        )
        assert 0 < len(half) < len(all_tuples) or not all_tuples

    def test_empty_relation_short_circuits(self):
        query = IntervalJoinQuery.parse([("R1", "overlaps", "R2")])
        joiner = LocalJoiner(query)
        rows = {"R1": [], "R2": [Row.make(0, {"I": Interval(0, 1)})]}
        assert list(joiner.join(rows)) == []

    def test_missing_relation_short_circuits(self):
        query = IntervalJoinQuery.parse([("R1", "overlaps", "R2")])
        joiner = LocalJoiner(query)
        assert list(joiner.join({"R1": [Row.make(0, {"I": Interval(0, 1)})]})) == []

    def test_multi_attribute_conditions(self):
        r1 = Relation.of_records(
            "R1",
            [
                {"I": Interval(0, 10), "A": 1.0},
                {"I": Interval(0, 10), "A": 2.0},
            ],
        )
        r2 = Relation.of_records(
            "R2",
            [{"I": Interval(5, 15), "A": 2.0}],
        )
        query = IntervalJoinQuery.parse(
            [("R1.I", "overlaps", "R2.I"), ("R1.A", "=", "R2.A")]
        )
        joiner = LocalJoiner(query)
        got = [
            tuple(row.rid for row in t)
            for t in joiner.join({"R1": r1.rows, "R2": r2.rows})
        ]
        assert got == [(1, 0)]


# ----------------------------------------------------------------------
# Implied before/after conditions on sorted-endpoint access paths
# ----------------------------------------------------------------------

INF = math.inf
#: Touching endpoints (end == start), zero-length intervals and
#: unbounded ends; each relation holds them in another row order.
EDGE = [
    Interval(-INF, 0),
    Interval(0, 2),
    Interval(2, 2),
    Interval(2, 5),
    Interval(5, 7),
    Interval(7, INF),
    Interval(3, 3),
]


def _rows(intervals, second=None):
    rows = []
    for rid, iv in enumerate(intervals):
        values = {"I": iv}
        if second is not None:
            values["J"] = second[rid]
        rows.append(Row.make(rid, values))
    return rows


EDGE_DATA = {
    "R1": _rows(EDGE),
    "R2": _rows(EDGE[::-1]),
    "R3": _rows(EDGE[3:] + EDGE[:3]),
    "R4": _rows(EDGE[5:] + EDGE[:5], second=EDGE[2:] + EDGE[:2]),
}

#: (conditions, start_with, output tuples as rid strings in emission
#: order, comparisons charged) — pinned from the evaluator that tested
#: every condition per candidate.
IMPLIED_CASES = [
    pytest.param(
        [("R1", "before", "R2"), ("R2", "before", "R3")],
        None,
        "032 043 041 042 001 002 101 102 201 202",
        24,
        id="chain_before",
    ),
    pytest.param(
        [("R1", "before", "R2"), ("R2", "before", "R3")],
        "R3",
        "041 001 101 201 042 002 102 202 032 043",
        24,
        id="chain_before_from_right",
    ),
    pytest.param(
        [("R1", "after", "R2"), ("R2", "after", "R3")],
        None,
        "444 404 405 406 544 504 505 506 534 644",
        24,
        id="chain_after",
    ),
    pytest.param(
        [("R1", "after", "R2"), ("R2", "after", "R3")],
        "R3",
        "534 644 444 544 404 504 405 505 406 506",
        24,
        id="chain_after_from_right",
    ),
    pytest.param(
        [("R1", "before", "R2"), ("R1", "before", "R3")],
        None,
        "030 036 033 031 032 040 046 043 041 042 000 006 003 001 002 "
        "020 026 023 021 022 010 016 013 011 012 103 101 102 123 121 "
        "122 113 111 112 203 201 202 223 221 222 213 211 212 312 621 "
        "622 611 612",
        62,
        id="star_before_hub_left",
    ),
    pytest.param(
        [("R2", "before", "R1"), ("R3", "before", "R1")],
        "R1",
        "624 634 644 645 646 643 444 445 446 443 544 545 546 543 044 "
        "045 046 043 654 655 656 653 650 454 455 456 453 450 554 555 "
        "556 553 550 054 055 056 053 050 354 355 356 353 350 664 665 "
        "666 464 465 466 564 565 566",
        66,
        id="star_before_hub_right",
    ),
    pytest.param(
        [("R1", "after", "R2"), ("R3", "after", "R1")],
        None,
        "263 261 262 362 661 662 641 642 651 652",
        24,
        id="star_after",
    ),
    pytest.param(
        [
            ("R1", "before", "R2"),
            ("R2", "before", "R3"),
            ("R1", "before", "R3"),
        ],
        None,
        "032 043 041 042 001 002 101 102 201 202",
        72,
        id="two_sequence_conditions",
    ),
    pytest.param(
        [
            ("R1", "before", "R3"),
            ("R1", "before", "R2"),
            ("R3", "after", "R2"),
        ],
        None,
        "034 014 010 024 020 023 110 120 210 220",
        76,
        id="two_sequence_mixed_sides",
    ),
    pytest.param(
        [("R1", "equals", "R2"), ("R2", "before", "R3")],
        None,
        "060 066 063 061 062 153 151 152 243 241 242 332 601 602",
        35,
        id="colocation_then_sequence",
    ),
    pytest.param(
        [("R1", "before", "R3"), ("R2", "meets", "R3")],
        None,
        "005 013 022 113 122 213 222 322 613 622",
        50,
        id="sequence_checked_on_tree_path",
    ),
    pytest.param(
        [("R1.I", "before", "R4.I"), ("R4.J", "after", "R3.I")],
        None,
        "044 045 046 014 004 114 104 214 204 304 604",
        25,
        id="multi_attribute",
    ),
    pytest.param(
        [
            ("R1.I", "before", "R4.I"),
            ("R1.I", "before", "R4.J"),
            ("R4.I", "before", "R3.I"),
        ],
        None,
        "043 041 042 011 012",
        33,
        id="multi_attribute_same_step",
    ),
]


def _encode(tuples):
    return " ".join("".join(str(row.rid) for row in t) for t in tuples)


class TestImpliedSequenceConditions:
    """A sorted-endpoint slice implies the strict before/after condition
    it was cut by; skipping that test must not change the tuples, their
    order, or the comparisons charged."""

    @staticmethod
    def _join(conditions, start_with, accept=None):
        query = IntervalJoinQuery.parse(conditions)
        counted = []
        joiner = LocalJoiner(query, counted.append, start_with=start_with)
        rows = {name: EDGE_DATA[name] for name in query.relations}
        return query, list(joiner.join(rows, accept=accept)), sum(counted)

    @pytest.mark.parametrize(
        "conditions, start_with, order, comparisons", IMPLIED_CASES
    )
    def test_order_and_comparisons_pinned(
        self, conditions, start_with, order, comparisons
    ):
        query, tuples, counted = self._join(conditions, start_with)
        assert _encode(tuples) == order
        assert counted == comparisons
        data = {
            name: Relation(name, EDGE_DATA[name]) for name in query.relations
        }
        want = reference_join(query, data).tuple_ids()
        assert sorted(tuple(r.rid for r in t) for t in tuples) == want

    @pytest.mark.parametrize(
        "conditions, start_with, order, comparisons", IMPLIED_CASES
    )
    def test_accept_filter_keeps_order_and_comparisons(
        self, conditions, start_with, order, comparisons
    ):
        seen = []

        def accept(binding):
            seen.append(dict(binding))
            return sum(row.rid for row in binding.values()) % 2 == 0

        query, tuples, counted = self._join(conditions, start_with, accept)
        kept = [t for t in order.split() if sum(map(int, t)) % 2 == 0]
        assert _encode(tuples) == " ".join(kept)
        assert counted == comparisons
        assert len(seen) == len(order.split())


# ----------------------------------------------------------------------
# Bind-once enumeration: pinned tuple order and comparison counts
# ----------------------------------------------------------------------


def _bind_once_data():
    """Four relations of ten rows with two interval attributes each,
    small integer endpoints so that colocations are common."""
    rng = random.Random(3)
    data = {}
    for name in ("R1", "R2", "R3", "R4"):
        rows = []
        for rid in range(10):
            values = {}
            for attribute in ("I", "J"):
                start = rng.randint(0, 40)
                values[attribute] = Interval(start, start + rng.randint(0, 12))
            rows.append(Row.make(rid, values))
        data[name] = rows
    return data


BIND_ONCE_DATA = _bind_once_data()

CHAIN = [("R1", "overlaps", "R2"), ("R2", "overlaps", "R3")]
STAR = [("R1", "overlaps", "R2"), ("R1", "overlaps", "R3")]
HYBRID = [("R1", "overlaps", "R2"), ("R2", "before", "R3"), ("R3", "during", "R4")]
TWO_ATTRIBUTE = [
    ("R1.I", "overlaps", "R2.I"),
    ("R1.J", "before", "R2.J"),
    ("R2.J", "overlaps", "R3.I"),
]

#: (conditions, start_with, tuples in emission order as "-"-joined rids,
#: the subset an accept filter keeps, comparisons charged) — pinned from
#: the evaluator that read every interval through ``Row.interval`` per
#: check and counted each comparison as it was made.
BIND_ONCE_CASES = [
    pytest.param(
        CHAIN, None,
        "1-4-0 1-0-0 6-9-1 6-9-5 9-4-0 9-0-0",
        "1-4-0 1-0-0 6-9-1 6-9-5 9-4-0",
        58,
        id="colocation_chain",
    ),
    pytest.param(
        CHAIN, "R3",
        "9-4-0 1-4-0 9-0-0 1-0-0 6-9-1 6-9-5",
        "9-4-0 1-4-0 1-0-0 6-9-1 6-9-5",
        53,
        id="colocation_chain_from_right",
    ),
    pytest.param(
        STAR, None, "4-6-5 7-7-0", "7-7-0", 68, id="colocation_star",
    ),
    pytest.param(
        STAR, "R3", "7-7-0 4-6-5", "7-7-0", 39, id="colocation_star_from_leaf",
    ),
    pytest.param(
        HYBRID, None,
        "0-6-3-5 0-6-3-6 1-5-3-5 1-5-3-6 1-4-3-5 1-4-3-6 1-0-3-5 1-0-3-6 "
        "1-1-3-5 1-1-3-6 4-6-3-5 4-6-3-6 6-9-3-5 6-9-3-6 9-5-3-5 9-5-3-6 "
        "9-4-3-5 9-4-3-6 9-0-3-5 9-0-3-6 9-1-3-5 9-1-3-6",
        "0-6-3-5 1-5-3-5 1-4-3-5 1-4-3-6 1-0-3-6 1-1-3-5 1-1-3-6 4-6-3-6 "
        "6-9-3-5 9-5-3-5 9-5-3-6 9-4-3-6 9-0-3-5 9-1-3-6",
        152,
        id="hybrid",
    ),
    pytest.param(
        HYBRID, "R4",
        "6-9-3-5 4-6-3-5 0-6-3-5 9-1-3-5 1-1-3-5 9-5-3-5 1-5-3-5 9-0-3-5 "
        "1-0-3-5 9-4-3-5 1-4-3-5 6-9-3-6 4-6-3-6 0-6-3-6 9-1-3-6 1-1-3-6 "
        "9-5-3-6 1-5-3-6 9-0-3-6 1-0-3-6 9-4-3-6 1-4-3-6",
        "6-9-3-5 0-6-3-5 1-1-3-5 9-5-3-5 1-5-3-5 9-0-3-5 1-4-3-5 4-6-3-6 "
        "9-1-3-6 1-1-3-6 9-5-3-6 1-0-3-6 9-4-3-6 1-4-3-6",
        113,
        id="hybrid_from_right",
    ),
    pytest.param(
        TWO_ATTRIBUTE, None, "0-6-3 9-1-3", "9-1-3", 63, id="two_attribute",
    ),
    pytest.param(
        TWO_ATTRIBUTE, "R3", "9-1-3 0-6-3", "9-1-3", 113,
        id="two_attribute_from_right",
    ),
]


class TestBindOnceEnumeration:
    """Rows are bound to their intervals once per join and comparisons
    are reported once per join; neither may change the tuples, their
    order or the comparisons charged."""

    @staticmethod
    def _join(conditions, start_with, accept=None):
        query = IntervalJoinQuery.parse(conditions)
        counted = []
        joiner = LocalJoiner(query, counted.append, start_with=start_with)
        rows = {name: BIND_ONCE_DATA[name] for name in query.relations}
        return list(joiner.join(rows, accept=accept)), counted

    @staticmethod
    def _encode(tuples):
        return " ".join("-".join(str(row.rid) for row in t) for t in tuples)

    @pytest.mark.parametrize(
        "conditions, start_with, order, kept, comparisons", BIND_ONCE_CASES
    )
    def test_order_and_comparisons_pinned(
        self, conditions, start_with, order, kept, comparisons
    ):
        tuples, counted = self._join(conditions, start_with)
        assert self._encode(tuples) == order
        assert counted == [comparisons]

    @pytest.mark.parametrize(
        "conditions, start_with, order, kept, comparisons", BIND_ONCE_CASES
    )
    def test_accept_filter_pinned(
        self, conditions, start_with, order, kept, comparisons
    ):
        seen = []

        def accept(binding):
            seen.append(dict(binding))
            return sum(row.rid for row in binding.values()) % 3 != 0

        tuples, counted = self._join(conditions, start_with, accept)
        assert self._encode(tuples) == kept
        assert counted == [comparisons]
        query = IntervalJoinQuery.parse(conditions)
        assert [tuple(b[name] for name in query.relations) for b in seen] == [
            tuple(
                BIND_ONCE_DATA[name][int(rid)]
                for name, rid in zip(query.relations, t.split("-"))
            )
            for t in order.split()
        ]

    @pytest.mark.parametrize("taken, comparisons", [(1, 14), (7, 42)])
    def test_early_close_charges_comparisons_made(self, taken, comparisons):
        query = IntervalJoinQuery.parse(HYBRID)
        counted = []
        joiner = LocalJoiner(query, counted.append)
        tuples = joiner.join({n: BIND_ONCE_DATA[n] for n in query.relations})
        for _ in zip(range(taken), tuples):
            pass
        assert counted == []  # reported once, when the join ends
        tuples.close()
        assert counted == [comparisons]

    def test_unstarted_join_charges_nothing(self):
        query = IntervalJoinQuery.parse(HYBRID)
        counted = []
        tuples = LocalJoiner(query, counted.append).join(
            {n: BIND_ONCE_DATA[n] for n in query.relations}
        )
        tuples.close()
        assert counted == []

    def test_empty_slice_still_reports_zero(self):
        # A join that evaluates nothing reports nothing, but an empty
        # sorted-endpoint slice is charged (zero) as it always was.
        rows = {
            "R1": [Row.make(0, {"I": Interval(5, 6)})],
            "R2": [Row.make(0, {"I": Interval(0, 1)})],
            "R3": [Row.make(0, {"I": Interval(9, 9)})],
        }
        for conditions, reported in (
            ([("R1", "before", "R2"), ("R2", "before", "R3")], [0]),
            ([("R1", "overlaps", "R2"), ("R2", "overlaps", "R3")], []),
        ):
            counted = []
            query = IntervalJoinQuery.parse(conditions)
            assert list(LocalJoiner(query, counted.append).join(rows)) == []
            assert counted == reported

    @pytest.mark.parametrize(
        "conditions, trees",
        [(CHAIN, 2), (STAR, 2), (HYBRID, 2), (QUERIES[3], 0)],
        ids=["chain", "star", "hybrid", "sequence"],
    )
    def test_only_planned_access_paths_are_built(
        self, monkeypatch, conditions, trees
    ):
        built = []
        init = IntervalTree.__init__

        def counting_init(self, items):
            built.append(self)
            init(self, items)

        monkeypatch.setattr(IntervalTree, "__init__", counting_init)
        query = IntervalJoinQuery.parse(conditions)
        joiner = LocalJoiner(query)
        list(joiner.join({n: BIND_ONCE_DATA[n] for n in query.relations}))
        # The scanned anchor builds no tree; before/after steps bisect.
        assert len(built) == trees

    def test_finished_join_frees_its_indexes_without_the_cyclic_gc(
        self, monkeypatch
    ):
        trees = []
        init = IntervalTree.__init__

        def recording_init(self, items):
            trees.append(weakref.ref(self))
            init(self, items)

        monkeypatch.setattr(IntervalTree, "__init__", recording_init)
        query = IntervalJoinQuery.parse(CHAIN)
        rows = {n: BIND_ONCE_DATA[n] for n in query.relations}
        gc.disable()
        try:
            tuples = LocalJoiner(query).join(rows)
            next(tuples)
            assert trees and all(tree() is not None for tree in trees)
            assert len(list(tuples)) == 5
            assert all(tree() is None for tree in trees)
        finally:
            gc.enable()

    def test_rows_read_once_per_join(self, monkeypatch):
        reads = []
        interval = Row.interval

        def counting_interval(self, attribute):
            reads.append(attribute)
            return interval(self, attribute)

        monkeypatch.setattr(Row, "interval", counting_interval)
        query = IntervalJoinQuery.parse(TWO_ATTRIBUTE)
        rows = {n: BIND_ONCE_DATA[n] for n in query.relations}
        list(LocalJoiner(query).join(rows))
        # One read per query attribute of each row: R1 and R2 join on
        # I and J, R3 on I.
        assert len(reads) == 10 * (2 + 2 + 1)
