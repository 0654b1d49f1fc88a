"""Batched write-drain ordering for the cycle engine's inner loop.

Entering write mode, the controller drains the accumulated write
batch "first-ready": writes grouped per (rank, bank), each group
sorted by row, and whole same-row runs emitted round-robin across the
groups so row cycles overlap while the data bus stays packed.  The
original implementation is a Python dict + cursor loop — O(batch)
attribute chasing per emitted write, and the hottest region of a
Hetero-DMR simulation once batches reach the 12,800-write drain
target.

:func:`order_write_batch` computes the identical order as numpy
integer sorts: one ``lexsort`` puts the batch into (group,
row)-order, run boundaries fall out of adjacent comparisons, and a
second ``lexsort`` by (run-within-group, group, position) is exactly
the round-robin emission.  Every step is an integer sort or
element-wise comparison — no float arithmetic — so the permutation is
bit-exactly the scalar loop's, which the test suite asserts on
randomized batches.  The float timing chain that *consumes* the order
(`Channel.access`) stays scalar: chained float addition is
non-associative, and the determinism contract (same results with and
without numpy) is worth more than the last constant factor.

Batches below :data:`VECTOR_THRESHOLD` use the scalar loop (array
setup would dominate), as does any batch when numpy is missing
(numpy is optional; the scalar loop is also the tests' reference).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, TypeVar

try:                             # pragma: no cover - host-dependent
    import numpy as _np
except ImportError:              # pragma: no cover - host-dependent
    _np = None

#: Minimum batch size for the vectorized path; below it the scalar
#: loop is faster than array construction.
VECTOR_THRESHOLD = 64

W = TypeVar("W")


def order_write_batch(batch: Sequence[W]) -> List[W]:
    """First-ready drain order for a write batch.

    Items need ``.location.rank`` / ``.location.bank`` /
    ``.location.row`` attributes (``WriteRequest`` in production).
    Returns a new list; the input is not modified.
    """
    if _np is not None and len(batch) >= VECTOR_THRESHOLD:
        return _order_vectorized(batch)
    return _order_scalar(batch)


def _order_scalar(batch: Sequence[W]) -> List[W]:
    """Reference ordering: per-(rank, bank) groups in first-appearance
    order, rows sorted stably within each group, whole same-row runs
    emitted round-robin across groups."""
    groups: Dict[tuple, List[W]] = {}
    for wr in batch:
        groups.setdefault((wr.location.rank, wr.location.bank),
                          []).append(wr)
    for group in groups.values():
        group.sort(key=lambda w: w.location.row)
    ordered: List[W] = []
    cursors = {key: 0 for key in groups}
    while len(ordered) < len(batch):
        for key, group in groups.items():
            i = cursors[key]
            if i >= len(group):
                continue
            # Emit the whole same-row run for this bank, then move on.
            row = group[i].location.row
            while i < len(group) and group[i].location.row == row:
                ordered.append(group[i])
                i += 1
            cursors[key] = i
    return ordered


def _order_vectorized(batch: Sequence[W]) -> List[W]:
    n = len(batch)
    ranks = _np.fromiter((w.location.rank for w in batch),
                         dtype=_np.int64, count=n)
    banks = _np.fromiter((w.location.bank for w in batch),
                         dtype=_np.int64, count=n)
    rows = _np.fromiter((w.location.row for w in batch),
                        dtype=_np.int64, count=n)
    # (rank, bank) composite key; group ids numbered by the key's
    # FIRST APPEARANCE in the batch — the dict-insertion order the
    # scalar loop's round-robin walks.
    key = (ranks << 20) | banks
    _, first_idx, inverse = _np.unique(key, return_index=True,
                                       return_inverse=True)
    gid = _np.argsort(_np.argsort(first_idx))[inverse]
    pos = _np.arange(n)
    # Stable (group, row)-sort: within a (gid, row) tie the original
    # batch order survives, matching list.sort()'s stability.
    by_group = _np.lexsort((pos, rows, gid))
    g_s = gid[by_group]
    r_s = rows[by_group]
    # Same-row run boundaries, then each write's run index *within its
    # group* — the scalar loop's round-robin pass number.
    new_group = _np.empty(n, dtype=bool)
    new_group[0] = True
    new_group[1:] = g_s[1:] != g_s[:-1]
    new_run = new_group.copy()
    new_run[1:] |= r_s[1:] != r_s[:-1]
    run_global = _np.cumsum(new_run) - 1
    group_first_run = _np.maximum.accumulate(
        _np.where(new_group, run_global, -1))
    run_in_group = run_global - group_first_run
    # Round-robin emission == sort by (pass, group, in-run position).
    emit = by_group[_np.lexsort((_np.arange(n), g_s, run_in_group))]
    return [batch[i] for i in emit]
