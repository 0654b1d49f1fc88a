"""Memory-design policies plugged into the channel controller.

Four designs from Section IV-A:

* :class:`BaselinePolicy` — Commercial Baseline (including the 128 KB
  per-channel writeback cache the paper adds for fairness),
* :class:`FmrPolicy` — the free-memory-replication baseline [64]:
  copies in a second rank, reads pick the replica whose row buffer is
  hot, broadcast writes, spec timing,
* :class:`HeteroDMRPolicy` — copies in the channel's Free Module read
  unsafely fast; write mode slows the channel to spec via 1 us
  frequency transitions and drains 100x batches; detected copy errors
  pay the slow-down/read-original/overwrite/speed-up flow, and
* :class:`HeteroFmrPolicy` — Hetero-DMR+FMR: two copies inside the
  Free Module, row-buffer-aware selection between them, still fast.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Sequence

from ..dram.channel import Channel
from ..dram.frequency import FrequencyState
from ..mem_ctrl.policy import (AccessPolicy, SteerEntry, copy_pair_steering,
                               single_copy_steering)
from ..mem_ctrl.queues import ReadRequest
from .config import HeteroDMRConfig
from .epoch_guard import EpochGuard


class BaselinePolicy(AccessPolicy):
    """Commercial Baseline with the fairness writeback cache."""

    name = "baseline"
    uses_writeback_cache = True


class PlainBaselinePolicy(AccessPolicy):
    """Commercial system without the writeback cache (ablation)."""

    name = "baseline-no-wbcache"
    uses_writeback_cache = False


class FmrPolicy(AccessPolicy):
    """FMR [64]: rank-level replication for latency only."""

    name = "fmr"
    broadcast_writes = True
    uses_writeback_cache = True

    def _build_steering(self, channel: Channel) -> List[SteerEntry]:
        """Rank ``r`` of ``n`` is replicated in rank ``(r + n//2) % n``.
        A read goes to the copy whose row buffer holds its row (FMR's
        'faster state'), else to a closed bank (activate without
        precharge), else to the bank that frees up first
        (``alt_if_freer``).  Letting streams colonize the copy rank's
        banks is what gives FMR its effective row-buffer doubling."""
        n = channel.rank_count()
        return copy_pair_steering(channel, range(n),
                                  [(r + n // 2) % n for r in range(n)],
                                  alt_if_freer=True)

    def writes_per_transaction(self) -> int:
        return 2


class HeteroDMRPolicy(AccessPolicy):
    """Hetero-DMR (Section III)."""

    name = "hetero-dmr"
    broadcast_writes = True
    uses_writeback_cache = True

    def __init__(self, config: Optional[HeteroDMRConfig] = None,
                 free_module_index: int = 1,
                 llc_clean_hook: Optional[Callable[[int], List[int]]] = None,
                 seed: int = 7):
        self.config = config or HeteroDMRConfig()
        self.free_module_index = free_module_index
        self.llc_clean_hook = llc_clean_hook
        self.epoch_guard = EpochGuard(
            epoch_hours=self.config.epoch_hours,
            threshold=self.config.epoch_error_threshold)
        self.corrections = 0
        self.correction_time_ns = 0.0
        self._rng = random.Random(seed)

    # -- replica routing ---------------------------------------------------------

    def _free_ranks(self, channel: Channel) -> Sequence[int]:
        """Flat ranks of the Free Module, in order."""
        base = sum(len(module.ranks)
                   for module in channel.modules[:self.free_module_index])
        nfree = len(channel.modules[self.free_module_index].ranks)
        return range(base, base + nfree)

    def _build_steering(self, channel: Channel) -> List[SteerEntry]:
        """Copies live at the same location in the Free Module, so reads
        touch only that module's ranks (Section III-A2): logical rank
        ``r`` reads the Free Module's rank ``r % nfree``."""
        return single_copy_steering(channel, self._free_ranks(channel))

    # -- write mode: frequency transitions ------------------------------------------

    def enter_write_mode(self, channel: Channel, now_ns: float) -> float:
        """Figure 9 walk: slow the whole channel to spec and wake the
        original-holding modules before any write issues."""
        return channel.to_safe(now_ns)

    def exit_write_mode(self, channel: Channel, now_ns: float) -> float:
        """Figure 10 walk: self-refresh the originals, speed back up —
        unless the epoch's error budget is exhausted, in which case the
        channel stays at specification until the next epoch re-arms
        (Section III-B)."""
        if not self.epoch_guard.margin_allowed(now_ns):
            return now_ns
        return channel.to_fast(now_ns)

    def write_batch_extra(self, now_ns: float) -> List[int]:
        """Proactively clean LLC dirty-LRU lines to reach the 100x
        batch (Section III-E)."""
        if self.llc_clean_hook is None:
            return []
        return self.llc_clean_hook(self.config.write_batch_target)

    # -- error handling -----------------------------------------------------------------

    def on_read_complete(self, channel: Channel, request: ReadRequest,
                         now_ns: float) -> float:
        """Detect-only check of the copy; a detected error pays the
        correction flow of Section III-C: slow the channel to spec,
        read the original, overwrite the copy, speed back up."""
        if self.config.read_error_rate <= 0.0:
            return now_ns
        if channel.frequency.state is not FrequencyState.FAST:
            return now_ns   # copies read at spec cannot margin-error
        if self._rng.random() >= self.config.read_error_rate:
            return now_ns
        self.epoch_guard.record_error(now_ns)
        t = channel.to_safe(now_ns)
        # Read the original block at spec, then overwrite the copy.
        safe = channel.safe_timing
        t += safe.tRCD_ns + safe.tCAS_ns + safe.burst_time_ns   # read
        t += safe.burst_time_ns                                 # rewrite
        if self.epoch_guard.margin_allowed(t):
            t = channel.to_fast(t)
        self.corrections += 1
        self.correction_time_ns += t - now_ns
        return t

    def writes_per_transaction(self) -> int:
        return 2


class HeteroFmrPolicy(HeteroDMRPolicy):
    """Hetero-DMR+FMR: two copies in the Free Module, selected by
    row-buffer state, both read unsafely fast (Section IV-A)."""

    name = "hetero-dmr+fmr"

    def _build_steering(self, channel: Channel) -> List[SteerEntry]:
        """Per Free Module rank: the home copy and, as the alternate,
        the next copy rank round the module."""
        free = self._free_ranks(channel)
        return copy_pair_steering(channel, free,
                                  list(free[1:]) + [free[0]],
                                  alt_if_freer=False)

    # FMR's contribution on top of Hetero-DMR is picking whichever copy
    # is "in the faster state", i.e. whose row buffer holds the row; the
    # home copy serves everything else (no ``alt_if_freer``).  The
    # method is AccessPolicy's, bound here as well: perfbench's ledger
    # wraps ``read_rank`` on HeteroDMRPolicy and on this class, and
    # without an attribute of its own this class would inherit the
    # first wrapper and wrap it again, counting every call twice.
    read_rank = AccessPolicy.read_rank

    def writes_per_transaction(self) -> int:
        return 3
