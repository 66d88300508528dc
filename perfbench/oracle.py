"""The correctness oracle: the expected tuple-id set of a workload instance.

Computed once per run, outside the timed region.  The brute force below
shares no code with the measured path: it evaluates the Allen predicates
on numpy endpoint arrays, chunk by chunk over the relation every
condition touches, so its memory stays a few MiB.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro import reference_join

#: Allen predicates on endpoint arrays (left u, right v), as defined in
#: ``repro.intervals.allen`` for closed intervals.
PREDICATES = {
    "before": lambda us, ue, vs, ve: ue < vs,
    "overlaps": lambda us, ue, vs, ve: (us < vs) & (vs < ue) & (ue < ve),
}

#: Rows of the shared relation evaluated per chunk.
CHUNK = 256


def _mask(condition, endpoints, rows: slice, shared: str) -> np.ndarray:
    """``mask[i, j]``: the condition holds between row ``i`` of its other
    relation and row ``j`` of the ``rows`` slice of ``shared``."""
    left, predicate, right = condition
    holds = PREDICATES[predicate]
    if left == shared:
        us, ue = (a[rows, None] for a in endpoints[left])
        vs, ve = (a[None, :] for a in endpoints[right])
        return holds(us, ue, vs, ve).T
    us, ue = (a[:, None] for a in endpoints[left])
    vs, ve = (a[None, rows] for a in endpoints[right])
    return holds(us, ue, vs, ve)


def brute_force(
    relations: Tuple[str, ...],
    conditions: Tuple[Tuple[str, str, str], ...],
    endpoints: Dict[str, Tuple[np.ndarray, np.ndarray]],
) -> np.ndarray:
    """Sorted ``(tuples, len(relations))`` row-id array of the join.

    Handles the benchmark's query shapes: one condition, or a chain of
    two conditions sharing one relation (``A p B, B q C``)."""
    if len(conditions) == 1:
        shared = conditions[0][0]
        others = [conditions[0][2]]
    else:
        (a, _, b), (c, _, d) = conditions
        shared = ({a, b} & {c, d}).pop()
        others = [a if b == shared else b, c if d == shared else d]
    n = len(endpoints[shared][0])
    blocks = []
    for lo in range(0, n, CHUNK):
        rows = slice(lo, min(lo + CHUNK, n))
        masks = [_mask(cond, endpoints, rows, shared) for cond in conditions]
        for j in range(rows.stop - rows.start):
            columns = [np.flatnonzero(mask[:, j]) for mask in masks]
            if not all(len(c) for c in columns):
                continue
            grids = np.meshgrid(*columns, indexing="ij")
            ids = {shared: np.full(grids[0].size, lo + j, dtype=np.int64)}
            for name, grid in zip(others, grids):
                ids[name] = grid.ravel().astype(np.int64)
            blocks.append(np.stack([ids[name] for name in relations], axis=1))
    if not blocks:
        return np.empty((0, len(relations)), dtype=np.int64)
    return canonical(np.concatenate(blocks))


def canonical(ids: np.ndarray) -> np.ndarray:
    """Rows of ``ids`` in lexicographic order."""
    order = np.lexsort(ids.T[::-1])
    return ids[order]


def result_ids(result, arity: int) -> np.ndarray:
    """The sorted row-id array of a :class:`repro.JoinResult`."""
    ids = np.array(
        [[row.rid for row in t] for t in result.tuples], dtype=np.int64
    ).reshape(-1, arity)
    return canonical(ids)


def expected(workload, inputs) -> np.ndarray:
    """The expected row-id array of one workload instance."""
    query = workload.query
    if workload.oracle == "reference":
        return result_ids(
            reference_join(query, inputs.relations), len(query.relations)
        )
    return brute_force(
        tuple(query.relations), workload.conditions, inputs.endpoints
    )


def matches(result, expected_ids: np.ndarray) -> bool:
    """Whether a result's tuple-id set equals the expected one."""
    return np.array_equal(
        result_ids(result, expected_ids.shape[1]), expected_ids
    )
