"""Reducer-local multi-way join evaluation.

Every reducer in every algorithm ultimately has to enumerate the join
tuples among the (relation-tagged) rows it received.  The paper leaves
this local step unspecified; we implement an index-accelerated backtracking
join:

* relations are bound in an order that keeps each new relation connected
  to the already-bound ones (smaller intermediate candidate sets);
* the candidate rows for the next relation are generated through the most
  selective available access path — an :class:`IntervalTree` probe for
  colocation conditions, a sorted-endpoint bisect for sequence conditions,
  a full scan only when the next relation is connected by nothing (which
  the binding order avoids whenever the join graph is connected);
* each row is bound to its intervals once per join and each condition is
  compiled once into a test of two interval slots, so enumeration never
  looks an attribute up; a relation builds only the access path its step
  uses (the scanned anchor builds none);
* a sorted-endpoint slice already satisfies the strict before/after
  condition it was cut by, so that condition is not re-tested;
* every predicate evaluation is counted, and the join's total goes to a
  caller-supplied counter once, when the join ends or is closed, so the
  cost model can charge reducers for the work they actually did (an
  implied condition is charged as if evaluated).

An optional ``accept`` callback filters complete tuples before they are
yielded — algorithms use it for their "this reducer owns the tuple" rules
that make grid output exactly-once.
"""

from __future__ import annotations

import bisect
from functools import cached_property
from operator import itemgetter
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.query import IntervalJoinQuery, JoinCondition, Term
from repro.core.schema import Row
from repro.intervals.interval import Interval
from repro.intervals.sweep import join_pairs
from repro.intervals.tree import IntervalTree

__all__ = ["LocalJoiner"]

#: A compiled condition: ``(holds, left_slot, right_slot)``.
_Check = Tuple[Callable[[Interval, Interval], bool], int, int]

#: A sorted-endpoint slice's implied condition, when conditions tested
#: before it must pass first: charged as one comparison, always true.
_IMPLIED: _Check = (lambda left, right: True, 0, 0)

_payload = itemgetter(1)


#: One row bound to its intervals, one per query attribute of its
#: relation, the indexed attribute first.
Entry = Tuple[Row, Tuple[Interval, ...]]


class _RelationIndex:
    """Access paths over one relation's rows for one attribute, each built
    on first use.

    Each row is bound once to its intervals on ``attribute`` and then on
    the ``also`` attributes (see :data:`Entry`).  The ``entries_*``
    methods serve the join; the row-returning ones wrap them."""

    def __init__(
        self, rows: Sequence[Row], attribute: str, also: Sequence[str] = ()
    ) -> None:
        self.attribute = attribute
        if also:
            attributes = (attribute, *also)
            self.entries: List[Entry] = [
                (row, tuple(row.interval(a) for a in attributes)) for row in rows
            ]
        else:
            self.entries = [(row, (row.interval(attribute),)) for row in rows]

    @cached_property
    def tree(self) -> IntervalTree[Entry]:
        return IntervalTree([(entry[1][0], entry) for entry in self.entries])

    @cached_property
    def _by_start(self) -> Tuple[List[float], List[Entry]]:
        by_start = sorted(self.entries, key=lambda entry: entry[1][0].start)
        return [entry[1][0].start for entry in by_start], by_start

    @cached_property
    def _by_end(self) -> Tuple[List[float], List[Entry]]:
        by_end = sorted(self.entries, key=lambda entry: entry[1][0].end)
        return [entry[1][0].end for entry in by_end], by_end

    def entries_starting_after(self, t: float) -> List[Entry]:
        """Entries whose interval starts strictly after ``t``, by start."""
        starts, by_start = self._by_start
        return by_start[bisect.bisect_right(starts, t):]

    def entries_ending_before(self, t: float) -> List[Entry]:
        """Entries whose interval ends strictly before ``t``, by end."""
        ends, by_end = self._by_end
        return by_end[:bisect.bisect_left(ends, t)]

    def intersecting(self, query: Interval) -> Iterator[Row]:
        for _, (row, _) in self.tree.overlapping(query):
            yield row

    def starting_after(self, t: float) -> List[Row]:
        """Rows whose interval starts strictly after ``t``, by start."""
        return [row for row, _ in self.entries_starting_after(t)]

    def ending_before(self, t: float) -> List[Row]:
        """Rows whose interval ends strictly before ``t``, by end."""
        return [row for row, _ in self.entries_ending_before(t)]

    def scan(self) -> Iterator[Row]:
        for row, _ in self.entries:
            yield row


# Access paths of one binding step (see :func:`_access_path`).
_TREE = "tree"
_ENDING_BEFORE = "ending_before"
_STARTING_AFTER = "starting_after"


def _access_path(
    name: str, conditions: Sequence[JoinCondition], attribute: str
) -> Optional[Tuple[str, JoinCondition, Term]]:
    """The most selective access path for binding relation ``name``.

    Returns ``(kind, condition, other_term)``: an :class:`IntervalTree`
    probe for the first colocation condition on the indexed attribute,
    else a sorted-endpoint bisect for the last before/after condition on
    it, else ``None`` (full scan).  The choice depends on the query only,
    so it is made once per join, before enumerating."""
    best: Optional[Tuple[str, JoinCondition, Term]] = None
    for cond in conditions:
        if cond.left.relation == name:
            other_term, my_term, i_am_left = cond.right, cond.left, True
        else:
            other_term, my_term, i_am_left = cond.left, cond.right, False
        if other_term.relation == name or my_term.attribute != attribute:
            continue
        pred = cond.predicate
        if pred.is_colocation:
            return _TREE, cond, other_term
        # Sequence predicate: before/after.
        earlier_is_me = (
            pred.enforces_left_first() if i_am_left
            else pred.enforces_right_first()
        )
        kind = _ENDING_BEFORE if earlier_is_me else _STARTING_AFTER
        best = kind, cond, other_term
    return best


class LocalJoiner:
    """Joins relation-tagged row sets under a query's conditions.

    Parameters
    ----------
    query:
        The join query (conditions + relation order for output tuples).
    count_comparisons:
        Callback invoked with the number of predicate evaluations
        performed; wire it to a MapReduce counter.
    """

    def __init__(
        self,
        query: IntervalJoinQuery,
        count_comparisons: Optional[Callable[[int], None]] = None,
        start_with: Optional[str] = None,
    ) -> None:
        self.query = query
        self._count = count_comparisons or (lambda n: None)
        self._binding_order = self._plan_order(start_with)

    # ------------------------------------------------------------------
    def _plan_order(self, start_with: Optional[str] = None) -> List[str]:
        """A connected binding order.

        ``start_with`` selects the first bound relation — reducers use it
        to drive enumeration from a small anchor candidate set (e.g. the
        rows starting in the reducer's own partition), which keeps local
        join work proportional to the tuples the reducer actually owns.
        """
        remaining = list(self.query.relations)
        if start_with is not None:
            if start_with not in remaining:
                raise ValueError(f"unknown start relation {start_with!r}")
            remaining.remove(start_with)
            order = [start_with]
            return self._extend_order(order, remaining)
        order = [remaining.pop(0)]
        return self._extend_order(order, remaining)

    def _extend_order(self, order: List[str], remaining: List[str]) -> List[str]:
        while remaining:
            bound = set(order)
            for candidate in remaining:
                connected = any(
                    {c.left.relation, c.right.relation} <= bound | {candidate}
                    and candidate in (c.left.relation, c.right.relation)
                    for c in self.query.conditions
                )
                if connected:
                    remaining.remove(candidate)
                    order.append(candidate)
                    break
            else:  # disconnected (checked at query build; defensive)
                order.append(remaining.pop(0))
        return order

    # ------------------------------------------------------------------
    def join(
        self,
        rows_by_relation: Mapping[str, Sequence[Row]],
        accept: Optional[Callable[[Mapping[str, Row]], bool]] = None,
    ) -> Iterator[Tuple[Row, ...]]:
        """Enumerate satisfying tuples (in ``query.relations`` order).

        ``accept`` filters complete bindings; rejected bindings are not
        yielded (used for reducer-ownership rules).
        """
        if any(
            not rows_by_relation.get(name) for name in self.query.relations
        ):
            return

        if len(self.query.relations) == 2 and all(
            c.left.relation != c.right.relation
            for c in self.query.conditions
        ):
            yield from self._join_two_way(rows_by_relation, accept)
            return

        query = self.query
        order = self._binding_order
        names = query.relations
        # Every (relation, attribute) term gets a slot in ``slots``, which
        # holds the intervals of the rows bound so far; a relation's
        # attributes take consecutive slots, its indexed one first.
        slot_of: Dict[Tuple[str, str], int] = {}
        for name in order:
            for attribute in query.attributes_of(name):
                slot_of[name, attribute] = len(slot_of)
        slots: List[Optional[Interval]] = [None] * len(slot_of)
        out: List[Optional[Row]] = [None] * len(names)
        tally = 0
        charged = False

        def compiled(conds: Sequence[JoinCondition]) -> List[_Check]:
            return [
                (
                    c.predicate.holds,
                    slot_of[c.left.relation, c.left.attribute],
                    slot_of[c.right.relation, c.right.attribute],
                )
                for c in conds
            ]

        def step(
            position: int,
            lo: int,
            hi: int,
            checks: List[_Check],
            candidates: Callable[[], Iterable[Entry]],
            deeper: Optional[Callable[[], Iterator[Tuple[Row, ...]]]],
        ) -> Callable[[], Iterator[Tuple[Row, ...]]]:
            """One binding level: bind each candidate, run ``checks`` in
            order up to the first that fails, then descend (or emit, at
            the last level)."""

            def bind() -> Iterator[Tuple[Row, ...]]:
                nonlocal tally
                if deeper is None and accept is None and not checks:
                    # Every condition implied: the candidates are the output.
                    for row, _ in candidates():
                        out[position] = row
                        yield tuple(out)  # type: ignore[arg-type]
                    return
                for row, intervals in candidates():
                    out[position] = row
                    slots[lo:hi] = intervals
                    for holds, left, right in checks:
                        tally += 1
                        if not holds(slots[left], slots[right]):
                            break
                    else:
                        if deeper is not None:
                            yield from deeper()
                        elif accept is None or accept(dict(zip(names, out))):
                            yield tuple(out)  # type: ignore[arg-type]

            return bind

        def scan(index: _RelationIndex) -> Callable[[], Iterable[Entry]]:
            return lambda: index.entries

        def probe(
            index: _RelationIndex, other: int
        ) -> Callable[[], Iterable[Entry]]:
            return lambda: map(_payload, index.tree.overlapping(slots[other]))

        def sliced(
            index: _RelationIndex, kind: str, other: int, charge: bool
        ) -> Callable[[], Iterable[Entry]]:
            """A sorted-endpoint slice.  It satisfies the strict
            before/after condition it was cut by; with ``charge`` that
            condition is charged here, one comparison per candidate."""

            def candidates() -> List[Entry]:
                nonlocal tally, charged
                bound = slots[other]
                if kind == _ENDING_BEFORE:
                    entries = index.entries_ending_before(bound.start)
                else:
                    entries = index.entries_starting_after(bound.end)
                if charge:
                    tally += len(entries)
                    charged = True
                return entries

            return candidates

        # Steps are built last to first, each holding the next: the
        # candidates of order[k] come from its access path and, for a
        # sorted-endpoint path, the condition the path implies is charged
        # as if evaluated but never tested.
        deeper: Optional[Callable[[], Iterator[Tuple[Row, ...]]]] = None
        for k in range(len(order) - 1, -1, -1):
            name = order[k]
            attributes = query.attributes_of(name)
            lo = slot_of[name, attributes[0]]
            hi = lo + len(attributes)
            # Index on the first query attribute; further attributes are
            # verified by predicate evaluation.
            index = _RelationIndex(
                rows_by_relation[name], attributes[0], attributes[1:]
            )
            bound = set(order[: k + 1])
            conds = [
                c
                for c in query.conditions
                if c.left.relation in bound
                and c.right.relation in bound
                and name in (c.left.relation, c.right.relation)
            ]
            path = _access_path(name, conds, attributes[0])
            if path is None:
                checks, candidates = compiled(conds), scan(index)
            else:
                kind, cond, other_term = path
                other = slot_of[other_term.relation, other_term.attribute]
                if kind == _TREE:
                    checks, candidates = compiled(conds), probe(index, other)
                else:
                    at = conds.index(cond)
                    head, tail = compiled(conds[:at]), compiled(conds[at + 1:])
                    checks = head + [_IMPLIED] + tail if head else tail
                    candidates = sliced(index, kind, other, not head)
            deeper = step(
                names.index(name), lo, hi, checks, candidates, deeper
            )

        assert deeper is not None
        try:
            yield from deeper()
        finally:
            # Once per join, also when the consumer closed it early.  A
            # zero total is still reported when a slice was charged, so
            # the counter exists exactly when it always has.
            if tally or charged:
                self._count(tally)

    # ------------------------------------------------------------------
    def _join_two_way(
        self,
        rows_by_relation: Mapping[str, Sequence[Row]],
        accept: Optional[Callable[[Mapping[str, Row]], bool]],
    ) -> Iterator[Tuple[Row, ...]]:
        """2-relation fast path.

        The first condition is enumerated in batch through the
        per-predicate sweep kernels
        (:func:`repro.intervals.sweep.join_pairs`) instead of row-at-a-
        time index probes; the remaining conditions are verified per
        produced pair.  Comparisons are charged per pair examined, like
        the backtracking path charges per candidate."""
        primary, *rest = self.query.conditions
        left_rel = primary.left.relation
        right_rel = primary.right.relation
        left_items = [
            (row.interval(primary.left.attribute), row)
            for row in rows_by_relation[left_rel]
        ]
        right_items = [
            (row.interval(primary.right.attribute), row)
            for row in rows_by_relation[right_rel]
        ]
        names = self.query.relations
        for (_, lrow), (_, rrow) in join_pairs(
            left_items, right_items, primary.predicate
        ):
            self._count(1)
            binding = {left_rel: lrow, right_rel: rrow}
            ok = True
            for cond in rest:
                self._count(1)
                if not cond.predicate.holds(
                    binding[cond.left.relation].interval(cond.left.attribute),
                    binding[cond.right.relation].interval(cond.right.attribute),
                ):
                    ok = False
                    break
            if ok and (accept is None or accept(binding)):
                yield tuple(binding[name] for name in names)
