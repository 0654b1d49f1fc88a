"""FR-FCFS command scheduling with bank fairness (Table IV).

First-Ready First-Come-First-Served: among queued reads, prefer one
that hits an open row (first-ready); fall back to the oldest request.
To keep a stream of row hits from starving other banks ("FR-FCFS
scheduling policy with bank fairness"), at most ``fairness_cap``
consecutive row-hit picks may target the same bank before the oldest
request is forced.  Demand reads outrank prefetches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..dram.channel import Channel
from .page_policy import PagePolicy
from .queues import ReadRequest


@dataclass
class SchedulerStats:
    row_hit_picks: int = 0
    oldest_picks: int = 0
    fairness_overrides: int = 0


class FrFcfsScheduler:
    """Selects the next read to issue from a channel's read queue."""

    def __init__(self, page_policy: Optional[PagePolicy] = None,
                 fairness_cap: int = 8, scan_window: int = 64):
        if fairness_cap <= 0:
            raise ValueError("fairness_cap must be positive")
        if scan_window <= 0:
            raise ValueError("scan_window must be positive")
        self.page_policy = page_policy or PagePolicy()
        self.fairness_cap = fairness_cap
        self.scan_window = scan_window
        self._last_bank: Optional[tuple] = None
        self._streak = 0
        self.stats = SchedulerStats()

    def pick(self, queue: List[ReadRequest], channel: Channel,
             now_ns: float) -> Optional[int]:
        """Return the queue index of the request to issue, or None when
        the queue is empty.

        Requests arrive resolved
        (:meth:`~repro.mem_ctrl.policy.AccessPolicy.resolve`), and the
        scan inlines :meth:`ReadRequest.serving` to choose between a
        request's ``bank`` and its ``alt_bank`` — before the page policy
        touches the chosen bank, so the choice sees rows about to time
        out.  The page policy is inlined: the chosen bank's open row
        closes when it has been idle longer than ``close_after_ns``.

        The queue is arrival-ordered (the event loop processes
        submissions in time order), so the oldest request is index 0;
        row hits are searched within the first ``scan_window`` entries,
        matching real schedulers' bounded associative lookup.
        """
        if not queue:
            return None
        hit_idx: Optional[int] = None
        oldest_idx = 0
        close_after = self.page_policy.close_after_ns
        prefetch_hit_idx: Optional[int] = None
        other_rank_hit_idx: Optional[int] = None
        bus_rank = channel._last_bus_rank
        limit = len(queue)
        if limit > self.scan_window:
            limit = self.scan_window
        # Hot loop: index the queue in place (no per-pick slice copy)
        # and read each candidate's bank straight off the request.
        for i in range(limit):
            req = queue[i]
            row = req.location.row
            bank = req.bank
            open_row = bank.open_row
            if open_row != row:
                alt = req.alt_bank
                if alt is not None and alt.open_row == row:
                    bank = alt
                    open_row = row
                elif open_row is None:
                    continue
                elif req.alt_if_freer:
                    # Neither copy holds the row: a closed alternate
                    # serves (no row to close), else the copy that
                    # frees up strictly first.
                    if alt.open_row is None:
                        continue
                    if alt.column_ready_ns < bank.column_ready_ns:
                        bank = alt
            if now_ns - bank.last_access_ns > close_after:
                bank.open_row = None
                continue
            if open_row == row:
                if req.is_prefetch:
                    # Prefetch row hits yield to any demand hit.
                    if prefetch_hit_idx is None:
                        prefetch_hit_idx = i
                    continue
                rank = req.alt_rank if bank is req.alt_bank else req.rank
                if bus_rank is None or rank is bus_rank:
                    # Same-rank hit: no bus switching bubble.
                    hit_idx = i
                    break
                if other_rank_hit_idx is None:
                    other_rank_hit_idx = i
        if hit_idx is None:
            hit_idx = other_rank_hit_idx
        if hit_idx is None:
            hit_idx = prefetch_hit_idx
        if hit_idx is not None:
            key = self._key(queue[hit_idx])
            if key == self._last_bank and self._streak >= self.fairness_cap:
                self.stats.fairness_overrides += 1
                self._note(self._key(queue[oldest_idx]))
                self.stats.oldest_picks += 1
                return oldest_idx
            self._streak = self._streak + 1 if key == self._last_bank else 1
            self._last_bank = key
            self.stats.row_hit_picks += 1
            return hit_idx
        self._note(self._key(queue[oldest_idx]))
        self.stats.oldest_picks += 1
        return oldest_idx

    @staticmethod
    def _key(req: ReadRequest) -> tuple:
        """Fairness key ``(flat rank, bank)`` of ``req``."""
        return (req.serving()[0], req.location.bank)

    def _note(self, key: tuple) -> None:
        if key == self._last_bank:
            self._streak += 1
        else:
            self._last_bank, self._streak = key, 1
