"""Design-policy interface between the memory controller and the memory
designs it can embody (Commercial Baseline, FMR, Hetero-DMR, ...).

The controller is design-agnostic; a policy object decides
* which flat rank serves a read (replica selection / copy redirection),
* whether writes broadcast to multiple ranks in one bus transaction,
* what entering/leaving write mode costs (bus turnaround for a
  conventional system, 1 us frequency transitions for Hetero-DMR), and
* which extra blocks join a write batch (Hetero-DMR's LLC cleaning).

The concrete Hetero-DMR/FMR policies live in :mod:`repro.core`; this
module defines the interface plus the conventional default.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, TypeVar

from ..dram.channel import Channel
from .queues import ReadRequest

#: Bus turnaround cost of a conventional read<->write switch (~20 ns
#: round trip, Section III-A1), charged half per direction.
CONVENTIONAL_TURNAROUND_NS = 10.0

T = TypeVar("T")


def _identity_map(channel: Channel) -> Sequence[int]:
    return range(channel.rank_count())


class AccessPolicy:
    """Conventional (Commercial Baseline) behaviour; subclass hooks.

    Read steering that depends only on the logical rank is a per-channel
    table, :meth:`rank_map`, which the scheduler indexes per scanned
    candidate; steering that depends on bank state overrides
    :meth:`read_rank` and returns None from :meth:`rank_map`.
    """

    name = "baseline"
    #: Broadcast each write to all awake ranks in one bus transaction?
    broadcast_writes = False
    #: Route dirty evictions through the per-channel writeback cache?
    uses_writeback_cache = False

    def rank_map(self, channel: Channel) -> Optional[Sequence[int]]:
        """Flat rank serving logical rank ``r``, at index
        ``r % len(map)``, or None when the choice depends on bank state
        (such a policy overrides :meth:`read_rank`).  Identity for the
        baseline."""
        return self._per_channel(channel, _identity_map)

    def read_rank(self, channel: Channel, request: ReadRequest,
                  now_ns: float) -> int:
        """Flat rank that serves this read: its :meth:`rank_map` entry."""
        table = self.rank_map(channel)
        return table[request.location.rank % len(table)]

    #: ``(rank list, table)``: the last channel's steering table, keyed
    #: on the ``channel.all_ranks()`` list object it was built from.
    _table: tuple = (None, None)

    def _per_channel(self, channel: Channel,
                     build: Callable[[Channel], T]) -> T:
        """``build(channel)``, rebuilt whenever the channel's rank list
        is a different object: another channel, or the same one after
        ``invalidate_rank_cache``."""
        pairs = channel.all_ranks()
        cached = self._table
        if cached[0] is not pairs:
            cached = self._table = (pairs, build(channel))
        return cached[1]

    def enter_write_mode(self, channel: Channel, now_ns: float) -> float:
        """Cost of switching the channel to write mode; returns the time
        writes may start."""
        return now_ns + CONVENTIONAL_TURNAROUND_NS

    def exit_write_mode(self, channel: Channel, now_ns: float) -> float:
        """Cost of switching back to read mode."""
        return now_ns + CONVENTIONAL_TURNAROUND_NS

    def write_batch_extra(self, now_ns: float) -> List[int]:
        """Extra line addresses to append to a write batch (Hetero-DMR's
        proactive LLC cleaning); empty for the baseline."""
        return []

    def on_read_complete(self, channel: Channel, request: ReadRequest,
                         now_ns: float) -> float:
        """Hook after a read's data burst (Hetero-DMR checks the copy's
        ECC here and pays the correction flow on a detected error).
        Returns the possibly-delayed completion time."""
        return now_ns

    def writes_per_transaction(self) -> int:
        """DRAM write bursts consumed per logical write (energy model):
        1 for baseline, 2 for broadcast to original+copy, 3 for
        Hetero-DMR+FMR's original+two copies."""
        return 1
