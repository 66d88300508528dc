"""Property-based tests for the interval tree and sweep primitives."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.intervals.interval import Interval
from repro.intervals.sweep import before_pairs, intersecting_pairs
from repro.intervals.tree import IntervalTree


def interval_lists(max_size=40):
    def build(pairs):
        return [
            (Interval(min(a, b), max(a, b)), index)
            for index, (a, b) in enumerate(pairs)
        ]

    scalars = st.integers(min_value=0, max_value=50)
    return st.lists(st.tuples(scalars, scalars), max_size=max_size).map(build)


def edge_interval_lists(max_size=30):
    """Small integer endpoints (so duplicates, zero-length and touching
    intervals are common) mixed with unbounded ones."""

    def build(pairs):
        return [
            (Interval(min(a, b), max(a, b)), index)
            for index, (a, b) in enumerate(pairs)
        ]

    scalars = st.one_of(
        st.integers(min_value=0, max_value=12).map(float),
        st.sampled_from([-math.inf, math.inf]),
    )
    return st.lists(st.tuples(scalars, scalars), max_size=max_size).map(build)


def recursive_overlapping(node, query):
    """Reference probe: the recursive pre-order walk (crossing intervals,
    then the left subtree, then the right) that the explicit-stack
    ``IntervalTree.overlapping`` must reproduce item for item."""
    if node is None:
        return
    if query.end < node.center:
        for start, iv, payload in node.by_start:
            if start > query.end:
                break
            yield iv, payload
        yield from recursive_overlapping(node.left, query)
    elif query.start > node.center:
        for end, iv, payload in node.by_end:
            if end < query.start:
                break
            yield iv, payload
        yield from recursive_overlapping(node.right, query)
    else:
        for _, iv, payload in node.by_start:
            yield iv, payload
        yield from recursive_overlapping(node.left, query)
        yield from recursive_overlapping(node.right, query)


class TestTreeProperties:
    @given(
        edge_interval_lists(),
        st.tuples(
            st.sampled_from([-math.inf, -1.0, 0.0, 3.0, 6.0, 12.0, math.inf]),
            st.sampled_from([-math.inf, 0.0, 2.0, 6.0, 7.0, 13.0, math.inf]),
        ),
    )
    @settings(max_examples=300)
    def test_overlapping_order_matches_recursive_walk(self, items, bounds):
        a, b = sorted(bounds)
        query = Interval(a, b)
        tree = IntervalTree(items)
        got = list(tree.overlapping(query))
        assert got == list(recursive_overlapping(tree._root, query))
        want = sorted(p for iv, p in items if iv.intersects(query))
        assert sorted(p for _, p in got) == want

    @given(interval_lists(), st.integers(min_value=-5, max_value=55))
    @settings(max_examples=200)
    def test_stabbing_matches_filter(self, items, t):
        tree = IntervalTree(items)
        got = sorted(payload for _, payload in tree.stabbing(t))
        want = sorted(
            payload for iv, payload in items if iv.contains_point(t)
        )
        assert got == want

    @given(
        interval_lists(),
        st.tuples(
            st.integers(min_value=-5, max_value=55),
            st.integers(min_value=-5, max_value=55),
        ),
    )
    @settings(max_examples=200)
    def test_overlapping_matches_filter(self, items, bounds):
        a, b = sorted(bounds)
        query = Interval(a, b)
        tree = IntervalTree(items)
        got = sorted(payload for _, payload in tree.overlapping(query))
        want = sorted(
            payload for iv, payload in items if iv.intersects(query)
        )
        assert got == want


class TestSweepProperties:
    @given(interval_lists(20), interval_lists(20))
    @settings(max_examples=150)
    def test_intersecting_pairs_exact(self, left, right):
        got = sorted((l[1], r[1]) for l, r in intersecting_pairs(left, right))
        want = sorted(
            (li, ri)
            for liv, li in left
            for riv, ri in right
            if liv.intersects(riv)
        )
        assert got == want
        assert len(got) == len(set(got))  # exactly once

    @given(interval_lists(20), interval_lists(20))
    @settings(max_examples=150)
    def test_before_pairs_exact(self, left, right):
        got = sorted((l[1], r[1]) for l, r in before_pairs(left, right))
        want = sorted(
            (li, ri)
            for liv, li in left
            for riv, ri in right
            if liv.end < riv.start
        )
        assert got == want
