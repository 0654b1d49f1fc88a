"""Physical-address interleaving (Table IV: XOR-based mapping similar
to Intel Skylake [67]).

A line address is decomposed into channel, rank, bank, row, and column
fields; the bank index is XOR-hashed with low row bits so that strided
streams spread across banks instead of thrashing one row.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cache.cache import LINE_BYTES


class MemLocation:
    """A decoded DRAM coordinate.

    A plain slotted record: one is built per memory request, and a
    frozen dataclass's ``object.__setattr__`` initialiser cost more
    than the decode itself."""

    __slots__ = ("channel", "rank", "bank", "row", "column")

    def __init__(self, channel: int, rank: int, bank: int, row: int,
                 column: int):
        self.channel = channel
        self.rank = rank
        self.bank = bank
        self.row = row
        self.column = column

    def __repr__(self) -> str:
        return ("MemLocation(channel={}, rank={}, bank={}, row={}, "
                "column={})".format(self.channel, self.rank, self.bank,
                                    self.row, self.column))


@dataclass(frozen=True)
class AddressMapping:
    """Field widths of the interleaving, lowest-order first:
    line offset | channel | column | bank | rank | row."""
    channels: int = 1
    ranks_per_channel: int = 4
    banks_per_rank: int = 16
    columns_per_row: int = 128   # 64-byte lines per 8 KB row
    xor_bank_hash: bool = True

    def __post_init__(self) -> None:
        for name in ("channels", "ranks_per_channel", "banks_per_rank",
                     "columns_per_row"):
            value = getattr(self, name)
            if value <= 0 or value & (value - 1):
                raise ValueError(
                    "{} must be a positive power of two".format(name))

    def channel_of(self, address: int) -> int:
        """The channel field of :meth:`decode`, alone."""
        return address // LINE_BYTES % self.channels

    def decode(self, address: int) -> MemLocation:
        """Decode a byte address into its DRAM coordinate."""
        line = address // LINE_BYTES
        channel = line % self.channels
        line //= self.channels
        column = line % self.columns_per_row
        line //= self.columns_per_row
        bank = line % self.banks_per_rank
        line //= self.banks_per_rank
        rank = line % self.ranks_per_channel
        line //= self.ranks_per_channel
        row = line
        if self.xor_bank_hash:
            bank ^= row % self.banks_per_rank
        return MemLocation(channel, rank, bank, row, column)

    def row_buffer_bytes(self) -> int:
        return self.columns_per_row * LINE_BYTES
