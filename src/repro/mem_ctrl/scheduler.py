"""FR-FCFS command scheduling with bank fairness (Table IV).

First-Ready First-Come-First-Served: among queued reads, prefer one
that hits an open row (first-ready); fall back to the oldest request.
To keep a stream of row hits from starving other banks ("FR-FCFS
scheduling policy with bank fairness"), at most ``fairness_cap``
consecutive row-hit picks may target the same bank before the oldest
request is forced.  Demand reads outrank prefetches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

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
             now_ns: float,
             read_rank: Optional[Callable] = None) -> Optional[int]:
        """Return the queue index of the request to issue, or None when
        the queue is empty.

        Requests arrive resolved
        (:meth:`~repro.mem_ctrl.policy.AccessPolicy.resolve`): a
        request is served by its ``bank``, or by its ``alt_bank`` when
        the home bank lacks the row and the alternate holds it.  A
        policy whose steering depends on more bank state than that
        passes its ``read_rank`` instead, and each candidate's flat rank
        is ``read_rank(channel, request, now_ns)`` — called before the
        page policy touches the candidate's bank, so it sees rows about
        to time out.  The page policy is inlined: a candidate's open
        row closes when it has been idle longer than ``close_after_ns``.

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
        pairs = channel.all_ranks()
        limit = len(queue)
        if limit > self.scan_window:
            limit = self.scan_window
        # Hot loop: index the queue in place (no per-pick slice copy)
        # and read each candidate's bank straight off the request.
        for i in range(limit):
            req = queue[i]
            row = req.location.row
            if read_rank is None:
                bank = req.bank
                open_row = bank.open_row
                if open_row != row:
                    alt = req.alt_bank
                    if alt is not None and alt.open_row == row:
                        bank = alt
                        open_row = row
                    elif open_row is None:
                        continue
            else:
                rank = pairs[read_rank(channel, req, now_ns)][1]
                bank = rank.banks[req.location.bank]
                open_row = bank.open_row
                if open_row is None:
                    continue
            if now_ns - bank.last_access_ns > close_after:
                bank.open_row = None
                continue
            if open_row == row:
                if req.is_prefetch:
                    # Prefetch row hits yield to any demand hit.
                    if prefetch_hit_idx is None:
                        prefetch_hit_idx = i
                    continue
                if read_rank is None:
                    rank = req.alt_rank if bank is req.alt_bank \
                        else req.rank
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
            key = self._key(queue[hit_idx], channel, now_ns, read_rank)
            if key == self._last_bank and self._streak >= self.fairness_cap:
                self.stats.fairness_overrides += 1
                self._note(self._key(queue[oldest_idx], channel, now_ns,
                                     read_rank))
                self.stats.oldest_picks += 1
                return oldest_idx
            self._streak = self._streak + 1 if key == self._last_bank else 1
            self._last_bank = key
            self.stats.row_hit_picks += 1
            return hit_idx
        self._note(self._key(queue[oldest_idx], channel, now_ns, read_rank))
        self.stats.oldest_picks += 1
        return oldest_idx

    @staticmethod
    def _key(req: ReadRequest, channel: Channel, now_ns: float,
             read_rank: Optional[Callable]) -> tuple:
        """Fairness key ``(flat rank, bank)`` of ``req``."""
        if read_rank is None:
            flat_rank = req.serving()[0]
        else:
            flat_rank = read_rank(channel, req, now_ns)
        return (flat_rank, req.location.bank)

    def _note(self, key: tuple) -> None:
        if key == self._last_bank:
            self._streak += 1
        else:
            self._last_bank, self._streak = key, 1
