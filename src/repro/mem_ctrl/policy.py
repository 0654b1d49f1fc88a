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

from typing import List, Optional, Sequence, Tuple

from ..dram.bank import Bank
from ..dram.channel import Channel
from ..dram.rank import Rank
from .queues import ReadRequest

#: Bus turnaround cost of a conventional read<->write switch (~20 ns
#: round trip, Section III-A1), charged half per direction.
CONVENTIONAL_TURNAROUND_NS = 10.0

#: One logical rank's row of a steering table: the home copy's
#: ``(flat rank, Rank, bank list)``, then the alternate copy's, or three
#: Nones when there is one copy to read.  A read is served by the
#: alternate only when the home bank lacks its row and the alternate's
#: bank holds it (:meth:`ReadRequest.serving`).
SteerEntry = Tuple[int, Rank, List[Bank], Optional[int], Optional[Rank],
                   Optional[List[Bank]]]


def single_copy_steering(channel: Channel,
                         flat_ranks: Sequence[int]) -> List[SteerEntry]:
    """Steering table reading logical rank ``r`` from
    ``flat_ranks[r % len(flat_ranks)]``, one copy each."""
    pairs = channel.all_ranks()
    return [(flat, pairs[flat][1], pairs[flat][1].banks, None, None, None)
            for flat in flat_ranks]


class AccessPolicy:
    """Conventional (Commercial Baseline) behaviour; subclass hooks.

    Read steering that depends only on the logical rank, or on which of
    two fixed copies has the row open, is a per-channel table,
    :meth:`steering`.  The controller resolves each read against it
    once, at enqueue (:meth:`resolve`), and the scheduler reads the
    answer off the request.  Steering that depends on more bank state
    than that overrides :meth:`read_rank`, builds no table and is
    called per scanned candidate.
    """

    name = "baseline"
    #: Broadcast each write to all awake ranks in one bus transaction?
    broadcast_writes = False
    #: Route dirty evictions through the per-channel writeback cache?
    uses_writeback_cache = False

    def steering(self, channel: Channel) -> Optional[List[SteerEntry]]:
        """The channel's steering table, one :data:`SteerEntry` per
        logical rank at index ``r % len(table)``; None for a policy
        steered per scanned candidate.  Cached per channel."""
        pairs = channel.all_ranks()
        cached = self._table
        if cached[0] is not pairs:
            cached = self._table = (pairs, self._build_steering(channel))
        return cached[1]

    def _build_steering(self,
                        channel: Channel) -> Optional[List[SteerEntry]]:
        """Identity for the baseline: logical rank ``r`` reads flat
        rank ``r``."""
        return single_copy_steering(channel, range(channel.rank_count()))

    def resolve(self, channel: Channel, request: ReadRequest) -> None:
        """Store the serving copy (and the alternate, for a two-copy
        design) on ``request``; leaves a per-candidate policy's request
        unresolved."""
        table = self.steering(channel)
        if table is None:
            return
        loc = request.location
        flat, rank, banks, alt, alt_rank, alt_banks = \
            table[loc.rank % len(table)]
        request.flat_rank = flat
        request.rank = rank
        request.bank = banks[loc.bank]
        if alt is not None:
            request.alt_flat = alt
            request.alt_rank = alt_rank
            request.alt_bank = alt_banks[loc.bank]

    def read_rank(self, channel: Channel, request: ReadRequest,
                  now_ns: float) -> int:
        """Flat rank that serves this read: its steering-table entry."""
        table = self.steering(channel)
        return table[request.location.rank % len(table)][0]

    #: ``(rank list, table)``: the last channel's steering table, keyed
    #: on the ``channel.all_ranks()`` list object it was built from, so
    #: another channel, or the same one after ``invalidate_rank_cache``,
    #: gets a rebuilt table.
    _table: tuple = (None, None)

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
