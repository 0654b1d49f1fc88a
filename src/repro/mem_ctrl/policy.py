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
#: ``(flat rank, Rank, bank list)``, then the alternate copy's (three
#: Nones when there is one copy to read), then ``alt_if_freer``.
#: :meth:`ReadRequest.serving` says which copy serves a read.
SteerEntry = Tuple[int, Rank, List[Bank], Optional[int], Optional[Rank],
                   Optional[List[Bank]], bool]


def single_copy_steering(channel: Channel,
                         flat_ranks: Sequence[int]) -> List[SteerEntry]:
    """Steering table reading logical rank ``r`` from
    ``flat_ranks[r % len(flat_ranks)]``, one copy each."""
    pairs = channel.all_ranks()
    return [(flat, pairs[flat][1], pairs[flat][1].banks, None, None, None,
             False) for flat in flat_ranks]


def copy_pair_steering(channel: Channel, homes: Sequence[int],
                       alts: Sequence[int],
                       alt_if_freer: bool) -> List[SteerEntry]:
    """Steering table reading logical rank ``r`` from home copy
    ``homes[i]`` or alternate copy ``alts[i]``, ``i = r % len(homes)``."""
    pairs = channel.all_ranks()
    return [(home, pairs[home][1], pairs[home][1].banks,
             alt, pairs[alt][1], pairs[alt][1].banks, alt_if_freer)
            for home, alt in zip(homes, alts)]


class AccessPolicy:
    """Conventional (Commercial Baseline) behaviour; subclass hooks.

    Every design's read steering is a per-channel table,
    :meth:`steering`: each logical rank has a home copy and, in a
    design that replicates, an alternate copy.  The controller resolves
    each read against it once, at enqueue (:meth:`resolve`); which of
    the two copies serves is decided live from bank state by one rule,
    :meth:`ReadRequest.serving`, which the scheduler's scan inlines.
    """

    name = "baseline"
    #: Broadcast each write to all awake ranks in one bus transaction?
    broadcast_writes = False
    #: Route dirty evictions through the per-channel writeback cache?
    uses_writeback_cache = False

    def steering(self, channel: Channel) -> List[SteerEntry]:
        """The channel's steering table, one :data:`SteerEntry` per
        logical rank at index ``r % len(table)``.  Cached per
        channel."""
        pairs = channel.all_ranks()
        cached = self._table
        if cached[0] is not pairs:
            cached = self._table = (pairs, self._build_steering(channel))
        return cached[1]

    def _build_steering(self, channel: Channel) -> List[SteerEntry]:
        """Identity for the baseline: logical rank ``r`` reads flat
        rank ``r``."""
        return single_copy_steering(channel, range(channel.rank_count()))

    def resolve(self, channel: Channel, request: ReadRequest) -> None:
        """Store the home copy (and the alternate, for a two-copy
        design) on ``request``."""
        table = self.steering(channel)
        loc = request.location
        flat, rank, banks, alt, alt_rank, alt_banks, alt_if_freer = \
            table[loc.rank % len(table)]
        request.flat_rank = flat
        request.rank = rank
        request.bank = banks[loc.bank]
        if alt is not None:
            request.alt_flat = alt
            request.alt_rank = alt_rank
            request.alt_bank = alt_banks[loc.bank]
            request.alt_if_freer = alt_if_freer

    def read_rank(self, channel: Channel, request: ReadRequest,
                  now_ns: float) -> int:
        """Flat rank that serves this read now: the copy
        :meth:`ReadRequest.serving` picks from its steering entry."""
        self.resolve(channel, request)
        return request.serving()[0]

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
