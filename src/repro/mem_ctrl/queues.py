"""Memory-controller request queues (Table IV: 256-entry read queue and
128-entry write queue per channel)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from .address_map import MemLocation

if TYPE_CHECKING:   # pragma: no cover - typing only
    from ..dram.bank import Bank
    from ..dram.rank import Rank


class ReadRequest:
    """A pending DRAM read.

    Besides its decoded ``location``, a read carries the answer to
    "which bank serves it", filled in once at enqueue by
    :meth:`~repro.mem_ctrl.policy.AccessPolicy.resolve`:
    ``flat_rank``/``rank``/``bank`` is the home copy, and
    ``alt_flat``/``alt_rank``/``alt_bank`` the second copy of a design
    that picks between two by bank state (None otherwise), with FMR's
    ``alt_if_freer``; :meth:`serving` states the rule."""

    __slots__ = ("location", "arrival_ns", "callback", "core_id",
                 "is_prefetch", "flat_rank", "rank", "bank", "alt_flat",
                 "alt_rank", "alt_bank", "alt_if_freer")

    def __init__(self, location: MemLocation, arrival_ns: float,
                 callback: Callable[[float], None], core_id: int = -1,
                 is_prefetch: bool = False):
        self.location = location
        self.arrival_ns = arrival_ns
        self.callback = callback
        self.core_id = core_id
        self.is_prefetch = is_prefetch
        self.flat_rank: Optional[int] = None
        self.rank: Optional["Rank"] = None
        self.bank: Optional["Bank"] = None
        self.alt_flat: Optional[int] = None
        self.alt_rank: Optional["Rank"] = None
        self.alt_bank: Optional["Bank"] = None
        self.alt_if_freer = False

    def serving(self) -> Tuple[int, "Rank", "Bank"]:
        """``(flat rank, Rank, Bank)`` serving this resolved read now.

        A copy whose bank holds the row serves it, the home copy first.
        With ``alt_if_freer`` and neither copy holding the row, a closed
        home bank serves, else a closed alternate, else the copy whose
        bank takes a column command strictly earlier (ties: home).  The
        home copy serves everything else."""
        alt = self.alt_bank
        if alt is not None:
            row = self.location.row
            home = self.bank
            if home.open_row != row:
                if alt.open_row == row:
                    return self.alt_flat, self.alt_rank, alt
                if (self.alt_if_freer and home.open_row is not None and
                        (alt.open_row is None or
                         alt.column_ready_ns < home.column_ready_ns)):
                    return self.alt_flat, self.alt_rank, alt
        return self.flat_rank, self.rank, self.bank

    def __repr__(self) -> str:
        return "ReadRequest({!r}, arrival_ns={!r}, is_prefetch={!r})".format(
            self.location, self.arrival_ns, self.is_prefetch)


class WriteRequest:
    """A pending DRAM write(back)."""

    __slots__ = ("location", "arrival_ns", "from_cleaning")

    def __init__(self, location: MemLocation, arrival_ns: float,
                 from_cleaning: bool = False):
        self.location = location
        self.arrival_ns = arrival_ns
        self.from_cleaning = from_cleaning

    def __repr__(self) -> str:
        return "WriteRequest({!r}, arrival_ns={!r}, from_cleaning={!r})" \
            .format(self.location, self.arrival_ns, self.from_cleaning)


class BoundedQueue:
    """A simple bounded FIFO with occupancy stats."""

    def __init__(self, capacity: int, name: str):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.name = name
        self.entries: List[object] = []
        self.peak_occupancy = 0
        self.total_enqueued = 0

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def full(self) -> bool:
        return len(self.entries) >= self.capacity

    def push(self, item: object) -> None:
        if self.full:
            raise RuntimeError("{} queue overflow".format(self.name))
        self.entries.append(item)
        self.total_enqueued += 1
        self.peak_occupancy = max(self.peak_occupancy, len(self.entries))

    def pop_index(self, index: int) -> object:
        return self.entries.pop(index)

    def pop_front(self) -> object:
        return self.entries.pop(0)


#: Table IV queue capacities.
READ_QUEUE_ENTRIES = 256
WRITE_QUEUE_ENTRIES = 128
