"""Join-output validation.

The reference join certifies correctness at test scale, but benchmarks
run sizes where an O(n^m) oracle is infeasible.  This module provides the
checks that remain cheap at any scale:

* every output tuple satisfies every query condition (soundness);
* no tuple appears twice (the exactly-once ownership rule held);
* tuple arity and relation membership are structurally correct;
* optionally, a *sampled completeness* probe: for a random sample of
  output tuples of one run, a second algorithm's output must contain
  them (used pairwise by the benchmark harness, where full set equality
  is also cheap since both outputs are in memory).

`validate_result` raises :class:`ValidationError` with a precise
description of the first violation, so a failing benchmark pinpoints the
offending tuple.
"""

from __future__ import annotations

import random
from operator import attrgetter
from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import ReproError
from repro.core.results import JoinResult
from repro.core.query import Term
from repro.core.schema import Relation, Row
from repro.intervals.interval import Interval

__all__ = ["ValidationError", "validate_result", "assert_equivalent"]

_rid = attrgetter("rid")


class ValidationError(ReproError):
    """Raised when a join result violates a checked invariant."""


def validate_result(
    result: JoinResult,
    data: Optional[Mapping[str, Relation]] = None,
) -> None:
    """Check soundness, uniqueness, and structure of a join result.

    Parameters
    ----------
    result:
        The result to check; its ``query`` drives the predicate checks.
    data:
        When given, each tuple's rows are verified to be actual rows of
        their relations (guards against corrupted shuffles).
    """
    query = result.query
    names = query.relations
    arity = len(names)
    seen = set()
    rows_by_relation = (
        {name: {row.rid: row for row in data[name].rows} for name in names}
        if data is not None
        else None
    )
    # Each condition reads slot ``(position, attribute index)`` of the
    # tuple.  A distinct row is checked for membership and has its
    # intervals read once per position, the first time it appears there
    # (keyed by ``id``: ``result.tuples`` keeps every row alive).
    attributes = [query.attributes_of(name) for name in names]

    def slot(term: Term) -> Tuple[int, int]:
        at = names.index(term.relation)
        return at, attributes[at].index(term.attribute)

    checks = [
        (cond.predicate.holds, *slot(cond.left), *slot(cond.right), cond)
        for cond in query.conditions
    ]
    bound: List[Dict[int, Tuple[Interval, ...]]] = [{} for _ in names]

    def first_sight(at: int, row: Row, ids: Tuple[int, ...]) -> Tuple[Interval, ...]:
        name = names[at]
        if rows_by_relation is not None:
            original = rows_by_relation[name].get(row.rid)
            if original is None or original != row:
                raise ValidationError(
                    f"tuple {ids}: row {row.rid} is not a row of "
                    f"relation {name!r}"
                )
        known = bound[at][id(row)] = tuple(
            row.interval(attribute) for attribute in attributes[at]
        )
        return known

    for position, tuple_rows in enumerate(result.tuples):
        if len(tuple_rows) != arity:
            raise ValidationError(
                f"tuple #{position} has arity {len(tuple_rows)}, "
                f"expected {arity}"
            )
        ids = tuple(map(_rid, tuple_rows))
        seen.add(ids)
        if len(seen) == position:  # every earlier tuple added one
            raise ValidationError(
                f"tuple {ids} emitted more than once "
                "(exactly-once ownership violated)"
            )
        intervals = []
        for at, row in enumerate(tuple_rows):
            known = bound[at].get(id(row))
            intervals.append(known or first_sight(at, row, ids))
        for holds, lp, la, rp, ra, cond in checks:
            if not holds(intervals[lp][la], intervals[rp][ra]):
                left, right = intervals[lp][la], intervals[rp][ra]
                raise ValidationError(
                    f"tuple {ids} violates {cond}: "
                    f"{left} {cond.predicate.name} {right} is false"
                )


def assert_equivalent(
    first: JoinResult,
    second: JoinResult,
    sample: Optional[int] = None,
    seed: int = 0,
) -> None:
    """Check two results agree (full set equality, or a sampled probe).

    ``sample=None`` compares the full rid-tuple sets.  A positive
    ``sample`` checks that many random tuples of each side exist in the
    other — an O(sample) probe for gigantic outputs.
    """
    if sample is None:
        if first.tuple_ids() != second.tuple_ids():
            only_first = set(map(tuple, first.tuple_ids())) - set(
                map(tuple, second.tuple_ids())
            )
            only_second = set(map(tuple, second.tuple_ids())) - set(
                map(tuple, first.tuple_ids())
            )
            raise ValidationError(
                f"{first.metrics.algorithm} vs {second.metrics.algorithm}: "
                f"{len(only_first)} tuples only in the first "
                f"(e.g. {sorted(only_first)[:3]}), {len(only_second)} only "
                f"in the second (e.g. {sorted(only_second)[:3]})"
            )
        return
    rng = random.Random(seed)
    first_ids = set(map(tuple, first.tuple_ids()))
    second_ids = set(map(tuple, second.tuple_ids()))
    for name, source, target in (
        (first.metrics.algorithm, first_ids, second_ids),
        (second.metrics.algorithm, second_ids, first_ids),
    ):
        pool = list(source)
        if not pool:
            continue
        for ids in rng.sample(pool, min(sample, len(pool))):
            if ids not in target:
                raise ValidationError(
                    f"tuple {ids} produced by {name} is missing from the "
                    "other result"
                )
