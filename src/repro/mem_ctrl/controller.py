"""Per-channel memory controller.

Implements the steady-state behaviour of Table IV's controller:

* a 256-entry read queue scheduled FR-FCFS with bank fairness,
* a 128-entry write queue drained in batches (write mode),
* hybrid page policy with a 200-cycle timeout,
* periodic refresh per rank (skipped for ranks in self-refresh), and
* design-policy hooks (:mod:`repro.mem_ctrl.policy`) through which
  FMR and Hetero-DMR change replica selection, write broadcasting,
  write-mode entry/exit cost, and batch composition.

Reads are event-driven: up to ``max_inflight`` requests are issued
concurrently and the DRAM bank/bus models serialize them in time.
Write batches drain in 128-write chunks (one bus turnaround each);
between chunks, queued reads slip in at the channel's current —
specification — speed, Hetero-DMR's "no benefit for writes" behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from ..dram.channel import Channel
from ..dram.frequency import FrequencyState
from ..obs import get_recorder
from .address_map import AddressMapping, MemLocation
from .page_policy import PagePolicy
from .policy import AccessPolicy
from .queues import (READ_QUEUE_ENTRIES, ReadRequest, WRITE_QUEUE_ENTRIES,
                     WriteRequest)
from .scheduler import FrFcfsScheduler
from .writeback_cache import WritebackCache

if TYPE_CHECKING:   # pragma: no cover - typing only
    from ..sim.engine import EventLoop


def order_write_batch(batch: Sequence[WriteRequest]) -> List[WriteRequest]:
    """First-ready drain order for a write batch: per-(rank, bank)
    groups in first-appearance order, rows sorted stably within each
    group, whole same-row runs emitted round-robin across groups.
    Returns a new list; the input is not modified."""
    groups: Dict[tuple, List[WriteRequest]] = {}
    for wr in batch:
        groups.setdefault((wr.location.rank, wr.location.bank),
                          []).append(wr)
    for group in groups.values():
        group.sort(key=lambda w: w.location.row)
    ordered: List[WriteRequest] = []
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


@dataclass
class ControllerStats:
    """Aggregate controller statistics for one channel."""
    reads_issued: int = 0
    read_retries: int = 0            # back-pressure resubmissions
    writes_issued: int = 0
    write_bursts: int = 0            # bus transactions incl. broadcast
    cleaning_writes: int = 0
    wb_cache_forwards: int = 0
    write_mode_entries: int = 0
    refreshes: int = 0
    write_mode_time_ns: float = 0.0
    read_latency_total_ns: float = 0.0
    read_latency_count: int = 0
    busy_span_ns: float = 0.0

    @property
    def mean_read_latency_ns(self) -> float:
        if not self.read_latency_count:
            return 0.0
        return self.read_latency_total_ns / self.read_latency_count


class ChannelController:
    """Schedules one channel's reads, writes, and refreshes."""

    def __init__(self, engine: "EventLoop", channel: Channel,
                 mapping: AddressMapping,
                 policy: Optional[AccessPolicy] = None,
                 page_policy: Optional[PagePolicy] = None,
                 max_inflight: int = 48,
                 write_high_watermark: int = 96,
                 write_low_watermark: int = 16,
                 enable_refresh: bool = True):
        self.engine = engine
        self.channel = channel
        self.mapping = mapping
        self.policy = policy or AccessPolicy()
        self.page_policy = page_policy or PagePolicy()
        self.scheduler = FrFcfsScheduler(self.page_policy)
        self.max_inflight = max_inflight
        self.write_high = write_high_watermark
        self.write_low = write_low_watermark
        self.read_queue: List[ReadRequest] = []
        self.write_queue: List[WriteRequest] = []
        self.wb_cache: Optional[WritebackCache] = (
            WritebackCache() if self.policy.uses_writeback_cache else None)
        self.mode = "read"
        self.inflight = 0
        self.stats = ControllerStats()
        self._refresh_enabled = enable_refresh
        if enable_refresh:
            self._schedule_refresh()

    # -- submission ---------------------------------------------------------------

    def submit_read(self, address: int, now_ns: float,
                    callback: Callable[[float], None], core_id: int = -1,
                    is_prefetch: bool = False,
                    location: Optional[MemLocation] = None) -> None:
        """Queue a read for ``address``; ``callback(finish_ns)`` fires
        when its data returns.  ``location`` is the address's decode,
        when the caller already has it."""
        if self.wb_cache is not None and self.wb_cache.contains(address):
            # Forward buffered dirty data without touching DRAM.
            self.stats.wb_cache_forwards += 1
            self.engine.schedule(now_ns + 1.0, lambda: callback(now_ns + 1.0))
            return
        if len(self.read_queue) >= READ_QUEUE_ENTRIES - 8 and is_prefetch:
            # Shed prefetches under pressure; they are hints.  The
            # callback receives None so the issuer can tell no data
            # was fetched.
            self.engine.schedule(now_ns, lambda: callback(None))
            return
        if location is None:
            location = self.mapping.decode(address)
        if len(self.read_queue) >= READ_QUEUE_ENTRIES:
            # Back-pressure on demand reads: retry (rare: bounded MLP
            # keeps demand occupancy below the queue size).
            self.stats.read_retries += 1
            self.engine.schedule_in(
                200.0, lambda: self.submit_read(address, self.engine.now,
                                                callback, core_id,
                                                is_prefetch, location))
            return
        req = ReadRequest(location, now_ns, callback, core_id, is_prefetch)
        # Resolve the serving bank once; the scheduler reads it off the
        # request on every later scan.
        self.policy.resolve(self.channel, req)
        self.read_queue.append(req)
        self._pump()

    def submit_write(self, address: int, now_ns: float,
                     from_cleaning: bool = False) -> None:
        """Queue a writeback.  Dirty evictions go through the writeback
        cache when the policy has one; overflow lands in the write
        queue, which triggers write mode at its high watermark.  Only a
        queued write is decoded."""
        if self.wb_cache is not None and not from_cleaning:
            if self.wb_cache.insert(address):
                if (self.wb_cache.occupancy >= 0.95 and
                        self.mode == "read"):
                    self._enter_write_mode()
                return
        self.write_queue.append(WriteRequest(self.mapping.decode(address),
                                             now_ns, from_cleaning))
        if len(self.write_queue) >= self.write_high and self.mode == "read":
            self._enter_write_mode()

    def drain(self) -> None:
        """Flush all buffered writes (end of simulation)."""
        if self.mode == "read" and (self.write_queue or
                                    (self.wb_cache and len(self.wb_cache))):
            self._enter_write_mode(force_full_drain=True)

    def stop(self) -> None:
        """Stop the periodic refresh so the event loop can drain."""
        self._refresh_enabled = False

    # -- read pump -----------------------------------------------------------------

    def _pump(self) -> None:
        """Issue queued reads, FR-FCFS, while inflight slots are free.

        Queued reads carry their copies (resolved at submit), and the
        scheduler chooses between them from bank state as it scans.
        The policy names the copy of each read it issues
        (:meth:`_issue_read`)."""
        # Reads are also served while a write batch drains: the channel
        # is at specification then (Hetero-DMR's "no benefit for
        # writes" — not "no service"), and the bus model naturally
        # interleaves read bursts into gaps between write chunks.
        now = self.engine.now
        while self.inflight < self.max_inflight and self.read_queue:
            idx = self.scheduler.pick(self.read_queue, self.channel, now)
            if idx is None:
                break
            req = self.read_queue.pop(idx)
            self._issue_read(req, now)

    def _issue_read(self, req: ReadRequest, now_ns: float) -> None:
        loc = req.location
        # One policy call per issued read; the scan made the same
        # choice inline for each candidate it looked at.
        flat_rank = self.policy.read_rank(self.channel, req, now_ns)
        bank = self.channel.all_ranks()[flat_rank][1].banks[loc.bank]
        self.page_policy.apply(bank, now_ns)
        finish = self.channel.access(flat_rank, loc.bank, loc.row, now_ns,
                                     is_write=False)
        finish = self.policy.on_read_complete(self.channel, req, finish)
        self.inflight += 1
        self.stats.reads_issued += 1
        self.engine.schedule(finish, lambda: self._complete_read(req, finish))

    def _complete_read(self, req: ReadRequest, finish_ns: float) -> None:
        self.inflight -= 1
        self.stats.read_latency_total_ns += finish_ns - req.arrival_ns
        self.stats.read_latency_count += 1
        req.callback(finish_ns)
        self._pump()

    # -- write mode ------------------------------------------------------------------

    def _enter_write_mode(self, force_full_drain: bool = False) -> None:
        if self.mode != "read":
            return
        self.mode = "write"
        self.stats.write_mode_entries += 1
        self._write_mode_started_ns = self.engine.now
        now = self.engine.now
        rec = get_recorder()
        if rec.enabled:
            rec.counter("mem_ctrl", "write_mode_entries",
                        channel=self.channel.index)
            rec.event("mem_ctrl", "write_mode_enter", now,
                      channel=self.channel.index,
                      read_queue_depth=len(self.read_queue),
                      write_queue_depth=len(self.write_queue),
                      full_drain=force_full_drain)
        # Let already-inflight reads finish while the switch happens.
        start = self.policy.enter_write_mode(self.channel, now)

        def _do_batch() -> None:
            self._execute_write_batch(self.engine.now, force_full_drain)

        self.engine.schedule(start, _do_batch)

    def _execute_write_batch(self, now_ns: float,
                             force_full_drain: bool) -> None:
        batch: List[WriteRequest] = []
        if force_full_drain:
            batch.extend(self.write_queue)
            self.write_queue = []
        else:
            keep = 0 if self.wb_cache is not None else self.write_low
            while len(self.write_queue) > keep:
                batch.append(self.write_queue.pop(0))
        if self.wb_cache is not None:
            for addr in self.wb_cache.drain_all():
                batch.append(WriteRequest(self.mapping.decode(addr),
                                          now_ns))
        for addr in self.policy.write_batch_extra(now_ns):
            batch.append(WriteRequest(self.mapping.decode(addr), now_ns,
                                      from_cleaning=True))
            self.stats.cleaning_writes += 1
        # Write-mode scheduling: writes are drained first-ready — same-
        # row writes back to back within a bank, banks interleaved
        # round-robin so their row cycles overlap and the data bus
        # stays packed (see order_write_batch).
        self._write_chunks(order_write_batch(batch), 0)

    #: Writes drained per read<->write bus turnaround, as in a
    #: conventional 128-entry write buffer drain.
    WRITE_CHUNK = 128

    def _write_chunks(self, batch: List[WriteRequest], start: int) -> None:
        """Drain ``batch[start:start+chunk]``, then yield the bus so
        queued reads can interleave, then continue with the rest."""
        if start >= len(batch):
            end = self.policy.exit_write_mode(self.channel, self.engine.now)
            self.engine.schedule(end, self._exit_write_mode)
            return
        now_ns = self.engine.now
        broadcast = self.policy.broadcast_writes
        # Bus turnaround into write mode for this chunk.
        from .policy import CONVENTIONAL_TURNAROUND_NS
        self.channel.bus_free_ns = max(self.channel.bus_free_ns,
                                       now_ns) + CONVENTIONAL_TURNAROUND_NS
        t = now_ns
        for wr in batch[start:start + self.WRITE_CHUNK]:
            flat_rank = wr.location.rank % self.channel.rank_count()
            _, rank = self.channel.locate_rank(flat_rank)
            if broadcast:
                # Every awake module's same-numbered bank latches the
                # broadcast write; apply the page policy to each.
                for module in self.channel.modules:
                    if not module.in_self_refresh:
                        for rnk in module.ranks:
                            self.page_policy.apply(
                                rnk.banks[wr.location.bank], t)
            else:
                self.page_policy.apply(rank.banks[wr.location.bank], t)
            t = self.channel.access(flat_rank, wr.location.bank,
                                    wr.location.row, now_ns, is_write=True,
                                    broadcast=broadcast)
            self.stats.writes_issued += 1
            self.stats.write_bursts += self.policy.writes_per_transaction()
        # Turnaround back to reads, then let queued reads slip in
        # before the next chunk.
        self.channel.bus_free_ns += CONVENTIONAL_TURNAROUND_NS
        self.engine.schedule(t, lambda: self._write_chunks(
            batch, start + self.WRITE_CHUNK))
        self._pump()

    def _exit_write_mode(self) -> None:
        self.mode = "read"
        span_ns = self.engine.now - self._write_mode_started_ns
        self.stats.write_mode_time_ns += span_ns
        rec = get_recorder()
        if rec.enabled:
            rec.event("mem_ctrl", "write_mode_exit", self.engine.now,
                      channel=self.channel.index, span_ns=span_ns)
        self._pump()

    # -- refresh ----------------------------------------------------------------------

    def _schedule_refresh(self) -> None:
        self.engine.schedule_in(self.channel.timing_table.tREFI_ns,
                                self._do_refresh)

    def _do_refresh(self) -> None:
        if not self._refresh_enabled:
            return
        now = self.engine.now
        # Refresh only ranks that are awake; self-refreshing ranks (the
        # original-holding modules under Hetero-DMR) manage themselves.
        # Skip REF while a write batch holds the channel (deferred
        # refresh, per-bank pull-in is out of scope).
        if self.mode == "read":
            timing = self.channel.timing_table
            for module in self.channel.modules:
                for rank in module.ranks:
                    if not rank.in_self_refresh:
                        rank.refresh(now, timing)
                        self.stats.refreshes += 1
        self._schedule_refresh()


class MemoryController:
    """Multi-channel facade: routes requests by decoded channel index."""

    def __init__(self, engine: "EventLoop", channels: List[Channel],
                 mapping: AddressMapping,
                 policy_factory: Callable[[int], AccessPolicy],
                 page_policy: Optional[PagePolicy] = None,
                 enable_refresh: bool = True):
        if mapping.channels != len(channels):
            raise ValueError("mapping channel count mismatch")
        self.mapping = mapping
        self.controllers = [
            ChannelController(engine, ch, mapping, policy_factory(i),
                              page_policy, enable_refresh=enable_refresh)
            for i, ch in enumerate(channels)]

    def submit_read(self, address: int, now_ns: float,
                    callback: Callable[[float], None], core_id: int = -1,
                    is_prefetch: bool = False) -> None:
        """Decode ``address`` once and hand the read, with its
        location, to its channel."""
        loc = self.mapping.decode(address)
        self.controllers[loc.channel].submit_read(
            address, now_ns, callback, core_id, is_prefetch, loc)

    def submit_write(self, address: int, now_ns: float) -> None:
        """Route a writeback by its channel field; the channel decodes
        it only if it does not land in the writeback cache."""
        self.controllers[self.mapping.channel_of(address)].submit_write(
            address, now_ns)

    def drain(self) -> None:
        for ctrl in self.controllers:
            ctrl.drain()
