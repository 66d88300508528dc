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
* a sorted-endpoint slice already satisfies the strict before/after
  condition it was cut by, so that condition is not re-tested;
* every predicate evaluation is counted through a caller-supplied counter
  so the cost model can charge reducers for the work they actually did
  (an implied condition is charged as if evaluated).

An optional ``accept`` callback filters complete tuples before they are
yielded — algorithms use it for their "this reducer owns the tuple" rules
that make grid output exactly-once.
"""

from __future__ import annotations

import bisect
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


class _RelationIndex:
    """Access paths over one relation's rows for one attribute."""

    def __init__(self, rows: Sequence[Row], attribute: str) -> None:
        self.rows = list(rows)
        self.attribute = attribute
        items = [(row.interval(attribute), row) for row in self.rows]
        self.tree: IntervalTree[Row] = IntervalTree(items)
        by_start = sorted(items, key=lambda item: item[0].start)
        by_end = sorted(items, key=lambda item: item[0].end)
        self._starts = [iv.start for iv, _ in by_start]
        self._ends = [iv.end for iv, _ in by_end]
        self._rows_by_start = [row for _, row in by_start]
        self._rows_by_end = [row for _, row in by_end]

    def intersecting(self, query: Interval) -> Iterator[Row]:
        for _, row in self.tree.overlapping(query):
            yield row

    def starting_after(self, t: float) -> List[Row]:
        """Rows whose interval starts strictly after ``t``, by start."""
        return self._rows_by_start[bisect.bisect_right(self._starts, t):]

    def ending_before(self, t: float) -> List[Row]:
        """Rows whose interval ends strictly before ``t``, by end."""
        return self._rows_by_end[:bisect.bisect_left(self._ends, t)]

    def scan(self) -> Iterator[Row]:
        yield from self.rows


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

        indexes: Dict[str, _RelationIndex] = {}
        for name in self.query.relations:
            attrs = self.query.attributes_of(name)
            # Index on the first query attribute; further attributes are
            # verified by predicate evaluation.
            indexes[name] = _RelationIndex(rows_by_relation[name], attrs[0])

        order = self._binding_order
        names = self.query.relations
        # Per step: the conditions checkable once relation order[k] is
        # bound, the access path that produces its candidates and, for a
        # sorted-endpoint path, the conditions tested before and after
        # the one the path implies (unused by tree probes and scans).
        step_conditions: List[List[JoinCondition]] = []
        paths: List[Optional[Tuple[str, JoinCondition, Term]]] = []
        splits: List[Tuple[List[JoinCondition], List[JoinCondition]]] = []
        for k, name in enumerate(order):
            bound = set(order[: k + 1])
            conds = [
                c
                for c in self.query.conditions
                if c.left.relation in bound
                and c.right.relation in bound
                and name in (c.left.relation, c.right.relation)
            ]
            path = _access_path(name, conds, indexes[name].attribute)
            at = conds.index(path[1]) if path and path[0] != _TREE else 0
            step_conditions.append(conds)
            paths.append(path)
            splits.append((conds[:at], conds[at + 1:]))

        binding: Dict[str, Row] = {}
        count = self._count

        def check(cond: JoinCondition) -> bool:
            count(1)
            return cond.predicate.holds(
                binding[cond.left.relation].interval(cond.left.attribute),
                binding[cond.right.relation].interval(cond.right.attribute),
            )

        def emit(k: int) -> Iterator[Tuple[Row, ...]]:
            if accept is None or accept(binding):
                yield tuple(binding[name] for name in names)

        def probe_step(k: int) -> Iterator[Tuple[Row, ...]]:
            """Bind order[k] from a tree probe (or a scan), testing every
            step condition per candidate."""
            name = order[k]
            index = indexes[name]
            path = paths[k]
            if path is None:
                candidates: Iterable[Row] = index.scan()
            else:
                other_term = path[2]
                candidates = index.intersecting(
                    binding[other_term.relation].interval(other_term.attribute)
                )
            deeper = steps[k + 1]
            for row in candidates:
                binding[name] = row
                if all(check(cond) for cond in step_conditions[k]):
                    yield from deeper(k + 1)
            binding.pop(name, None)

        def sorted_step(k: int) -> Iterator[Tuple[Row, ...]]:
            """Bind order[k] from a sorted-endpoint slice.  The slice
            satisfies the strict before/after condition it was cut by, so
            that condition is charged one comparison per candidate, as if
            evaluated, but never tested."""
            name = order[k]
            index = indexes[name]
            kind, _, other_term = paths[k]  # type: ignore[misc]
            other_iv = binding[other_term.relation].interval(
                other_term.attribute
            )
            if kind == _ENDING_BEFORE:
                rows = index.ending_before(other_iv.start)
            else:
                rows = index.starting_after(other_iv.end)
            head, tail = splits[k]
            if not head:
                count(len(rows))
            if k == len(order) - 1 and accept is None and not (head or tail):
                # Every condition implied: the slice is the output.
                out = [binding.get(n) for n in names]
                at = names.index(name)
                for row in rows:
                    out[at] = row
                    yield tuple(out)  # type: ignore[misc]
                return
            deeper = steps[k + 1]
            for row in rows:
                binding[name] = row
                if head:
                    if not all(check(cond) for cond in head):
                        continue
                    count(1)
                if all(check(cond) for cond in tail):
                    yield from deeper(k + 1)
            binding.pop(name, None)

        steps: List[Callable[[int], Iterator[Tuple[Row, ...]]]] = [
            probe_step if path is None or path[0] == _TREE else sorted_step
            for path in paths
        ]
        steps.append(emit)
        yield from steps[0](0)

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
