"""A static interval tree (centered / Edelsbrunner style) for stabbing and
overlap queries.

Reducers in every algorithm of the paper must locally evaluate Allen
predicates between the interval sets they receive.  A centered interval
tree answers "which stored intervals intersect query interval q" in
``O(log n + k)``, which turns the reducer-local join from quadratic to
output-sensitive for colocation predicates.

The tree is built once over a fixed collection (reducers receive all their
input before running — the MapReduce contract), so a static structure
suffices and keeps the implementation simple and cache-friendly.
"""

from __future__ import annotations

from typing import Generic, Iterable, Iterator, List, Optional, Tuple, TypeVar

from repro.intervals.interval import Interval

__all__ = ["IntervalTree"]

T = TypeVar("T")


class _Node(Generic[T]):
    __slots__ = ("center", "left", "right", "by_start", "by_end")

    def __init__(
        self,
        center: float,
        by_start: List[Tuple[float, Interval, T]],
        by_end: List[Tuple[float, Interval, T]],
    ):
        self.center = center
        self.left: Optional["_Node[T]"] = None
        self.right: Optional["_Node[T]"] = None
        #: intervals crossing ``center`` sorted ascending by start
        self.by_start = by_start
        #: the same intervals sorted descending by end
        self.by_end = by_end


class IntervalTree(Generic[T]):
    """A static centered interval tree mapping intervals to payloads.

    Parameters
    ----------
    items:
        ``(interval, payload)`` pairs.  Duplicates are allowed; all stored
        pairs whose interval matches a query are reported.

    Examples
    --------
    >>> tree = IntervalTree([(Interval(0, 5), "a"), (Interval(4, 9), "b")])
    >>> sorted(payload for _, payload in tree.overlapping(Interval(5, 6)))
    ['a', 'b']
    >>> [payload for _, payload in tree.stabbing(2)]
    ['a']
    """

    def __init__(self, items: Iterable[Tuple[Interval, T]]):
        entries = list(items)
        self._size = len(entries)
        self._root = self._build(entries) if entries else None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @staticmethod
    def _build(entries: List[Tuple[Interval, T]]) -> _Node[T]:
        endpoints = sorted(
            {iv.start for iv, _ in entries} | {iv.end for iv, _ in entries}
        )
        center = endpoints[len(endpoints) // 2]
        lefts: List[Tuple[Interval, T]] = []
        rights: List[Tuple[Interval, T]] = []
        crossing: List[Tuple[Interval, T]] = []
        for iv, payload in entries:
            if iv.end < center:
                lefts.append((iv, payload))
            elif iv.start > center:
                rights.append((iv, payload))
            else:
                crossing.append((iv, payload))
        by_start = sorted(
            ((iv.start, iv, payload) for iv, payload in crossing),
            key=lambda t: t[0],
        )
        by_end = sorted(
            ((iv.end, iv, payload) for iv, payload in crossing),
            key=lambda t: -t[0],
        )
        node = _Node(center, by_start, by_end)
        if lefts:
            node.left = IntervalTree._build(lefts)
        if rights:
            node.right = IntervalTree._build(rights)
        return node

    # ------------------------------------------------------------------
    def stabbing(self, t: float) -> Iterator[Tuple[Interval, T]]:
        """All stored pairs whose interval contains point ``t``."""
        node = self._root
        while node is not None:
            if t < node.center:
                # Crossing intervals starting at or before t contain t.
                for start, iv, payload in node.by_start:
                    if start > t:
                        break
                    yield iv, payload
                node = node.left
            elif t > node.center:
                for end, iv, payload in node.by_end:
                    if end < t:
                        break
                    yield iv, payload
                node = node.right
            else:
                for _, iv, payload in node.by_start:
                    yield iv, payload
                return

    def overlapping(self, query: Interval) -> Iterator[Tuple[Interval, T]]:
        """All stored pairs whose interval shares a point with ``query``.

        Walks the tree with an explicit stack in pre-order (a node's
        crossing intervals, then its left subtree, then its right
        subtree), so a probe runs in one generator frame."""
        lo, hi = query.start, query.end
        stack = [self._root] if self._root is not None else []
        while stack:
            node = stack.pop()
            if hi < node.center:
                for start, iv, payload in node.by_start:
                    if start > hi:
                        break
                    yield iv, payload
                if node.left is not None:
                    stack.append(node.left)
            elif lo > node.center:
                for end, iv, payload in node.by_end:
                    if end < lo:
                        break
                    yield iv, payload
                if node.right is not None:
                    stack.append(node.right)
            else:
                for _, iv, payload in node.by_start:
                    yield iv, payload
                if node.right is not None:
                    stack.append(node.right)
                if node.left is not None:
                    stack.append(node.left)
