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
from typing import Callable, List, Optional, Sequence

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
             now_ns: float, rank_map: Optional[Sequence[int]] = None,
             read_rank: Optional[Callable] = None) -> Optional[int]:
        """Return the queue index of the request to issue, or None when
        the queue is empty.

        A request's flat rank is
        ``rank_map[location.rank % len(rank_map)]`` for a static
        policy's :meth:`~repro.mem_ctrl.policy.AccessPolicy.rank_map`
        (identity over the channel's ranks when both are None), or
        ``read_rank(channel, request, now_ns)`` for a policy whose
        steering depends on bank state — called before the page policy
        touches the candidate's bank, so it sees rows about to time out.
        The page policy is inlined: a candidate's open row closes when
        it has been idle longer than ``close_after_ns``.

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
        # Hot loop: index the queue in place (no per-pick slice copy)
        # and resolve ranks through the channel's cached pair list.
        pairs = channel.all_ranks()
        if rank_map is None and read_rank is None:
            rank_map = range(len(pairs))
        nmap = len(rank_map) if read_rank is None else 0
        limit = len(queue)
        if limit > self.scan_window:
            limit = self.scan_window
        for i in range(limit):
            req = queue[i]
            loc = req.location
            if read_rank is None:
                rank = pairs[rank_map[loc.rank % nmap]][1]
            else:
                rank = pairs[read_rank(channel, req, now_ns)][1]
            bank = rank.banks[loc.bank]
            open_row = bank.open_row
            if open_row is None:
                continue
            if now_ns - bank.last_access_ns > close_after:
                bank.open_row = None
                continue
            if open_row == loc.row:
                if req.is_prefetch:
                    # Prefetch row hits yield to any demand hit.
                    if prefetch_hit_idx is None:
                        prefetch_hit_idx = i
                    continue
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
            key = self._key(queue[hit_idx], channel, now_ns, rank_map,
                            read_rank)
            if key == self._last_bank and self._streak >= self.fairness_cap:
                self.stats.fairness_overrides += 1
                self._note(self._key(queue[oldest_idx], channel, now_ns,
                                     rank_map, read_rank))
                self.stats.oldest_picks += 1
                return oldest_idx
            self._streak = self._streak + 1 if key == self._last_bank else 1
            self._last_bank = key
            self.stats.row_hit_picks += 1
            return hit_idx
        self._note(self._key(queue[oldest_idx], channel, now_ns, rank_map,
                             read_rank))
        self.stats.oldest_picks += 1
        return oldest_idx

    @staticmethod
    def _key(req: ReadRequest, channel: Channel, now_ns: float,
             rank_map: Optional[Sequence[int]],
             read_rank: Optional[Callable]) -> tuple:
        """Fairness key ``(flat rank, bank)`` of ``req``."""
        loc = req.location
        if read_rank is None:
            flat_rank = rank_map[loc.rank % len(rank_map)]
        else:
            flat_rank = read_rank(channel, req, now_ns)
        return (flat_rank, loc.bank)

    def _note(self, key: tuple) -> None:
        if key == self._last_bank:
            self._streak += 1
        else:
            self._last_bank, self._streak = key, 1
