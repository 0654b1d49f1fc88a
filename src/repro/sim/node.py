"""Single-node performance simulator (Section IV-A).

Assembles the substrates into the paper's simulated node: trace-driven
cores (Table IV), private L2s + shared L3 (Table III), stride and
next-line prefetchers, per-channel FR-FCFS memory controllers, and the
DDR4 bank/rank/channel timing model — then runs one of the four memory
designs (Commercial Baseline, FMR, Hetero-DMR, Hetero-DMR+FMR) or an
arbitrary Table II timing setting.

Scope and simplifications (documented in DESIGN.md): traces are at
L2-reference granularity; cores stall only on dependent loads and on
the outstanding-miss bound; write batches drain in 128-write chunks
with queued reads interleaving between chunks.  These preserve the
quantities the paper's figures depend on — memory-boundedness, read/write mix, row-buffer locality, rank
parallelism, and the cost of Hetero-DMR's frequency transitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..cache.hierarchy import (CPU_GHZ, CacheHierarchy, HierarchyConfig,
                               hierarchy1)
from ..cache.prefetcher import NextLinePrefetcher, StridePrefetcher
from ..core.config import (DUAL_COPY_UTILIZATION_LIMIT, HeteroDMRConfig,
                           REPLICATION_UTILIZATION_LIMIT)
from ..core.policies import (BaselinePolicy, FmrPolicy, HeteroDMRPolicy,
                             HeteroFmrPolicy, PlainBaselinePolicy)
from ..cpu.core import Core
from ..dram.backend import MemoryBackend, get_backend, resolve_backend
from ..dram.channel import Channel
from ..dram.module import Module, ModuleSpec
from ..dram.timing import TimingParameters
from ..mem_ctrl.address_map import AddressMapping
from ..mem_ctrl.controller import MemoryController
from ..mem_ctrl.policy import AccessPolicy
from ..obs import get_recorder
from ..workloads.base import TraceGenerator
from ..workloads.registry import get_profile
from .engine import EventLoop
from .fidelity import ensure_fidelity_supported, resolve_fidelity

#: Designs understood by the simulator.
DESIGNS = ("baseline", "baseline-plain", "fmr", "hetero-dmr",
           "hetero-dmr+fmr")

#: Core-side advance quantum: a core may run at most this far ahead of
#: global time before yielding to the event loop.
ADVANCE_QUANTUM_NS = 500.0


def effective_design(design: str, memory_utilization: float) -> str:
    """Resolve a configured design against memory utilization:
    replication-based designs regress to the baseline (or to plain
    Hetero-DMR) when free memory runs out (Sections III-E, IV-A).

    This mapping is the ONLY way ``memory_utilization`` influences a
    node simulation — two configs that agree on everything else and on
    the effective design produce identical results.  The experiment
    runner's cell-dedup cache relies on exactly that invariant.
    """
    if design == "hetero-dmr+fmr":
        if memory_utilization < DUAL_COPY_UTILIZATION_LIMIT:
            return "hetero-dmr+fmr"
        if memory_utilization < REPLICATION_UTILIZATION_LIMIT:
            return "hetero-dmr"
        return "baseline"
    if design in ("hetero-dmr", "fmr"):
        if memory_utilization < REPLICATION_UTILIZATION_LIMIT:
            return design
        return "baseline"
    return design


@dataclass(frozen=True)
class NodeConfig:
    """One simulation's parameters."""
    suite: str = "linpack"
    hierarchy: HierarchyConfig = field(default_factory=hierarchy1)
    design: str = "baseline"
    timing: Optional[TimingParameters] = None   # safe/spec timing override
    margin_mts: int = 800
    #: Per-channel margins (Section III-D2 heterogeneity experiments);
    #: None means every channel uses ``margin_mts``.
    channel_margins: Optional[tuple] = None
    use_latency_margin: bool = True
    memory_utilization: float = 0.30
    refs_per_core: int = 20000
    seed: int = 12345
    use_prefetchers: bool = True
    read_error_rate: float = 0.0
    #: Probability that any frequency transition fails and retries
    #: (chaos-campaign knob; 0 disables the fault model entirely).
    transition_fault_rate: float = 0.0
    mlp_limit: int = 16
    #: Fidelity tier: "cycle" (the trace-driven reference simulator),
    #: "fast" (the calibrated closed-form model in
    #: :mod:`repro.fastmodel`), or None to defer to the
    #: ``REPRO_FIDELITY`` environment variable.  The tiers produce
    #: *different* numbers — the fast tier is an approximation
    #: cross-checked on the Figure 12 grid.
    fidelity: Optional[str] = None
    #: Memory-technology backend: "ddr4", "mrdimm", or None to defer to
    #: the ``REPRO_BACKEND`` environment variable (defaulting to ddr4).
    #: The backend decides spec/fast timing profiles, rank-mux topology,
    #: and the refresh economics (see :mod:`repro.dram.backend`).
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.transition_fault_rate <= 1.0:
            raise ValueError("transition_fault_rate must be a "
                             "probability")
        if self.design not in DESIGNS:
            raise ValueError("unknown design {!r}; valid: {}".format(
                self.design, ", ".join(DESIGNS)))
        if not 0.0 <= self.memory_utilization <= 1.0:
            raise ValueError("memory_utilization must be in [0, 1]")
        if self.channel_margins is not None and \
                len(self.channel_margins) != self.hierarchy.channels:
            raise ValueError("channel_margins must have one entry per "
                             "channel")
        if self.refs_per_core <= 0:
            raise ValueError("refs_per_core must be positive")
        if self.fidelity is not None:
            # Validate the tier and reject knob combinations it cannot
            # model here, at config construction, instead of deep
            # inside the fast model.
            ensure_fidelity_supported(
                self.fidelity,
                knobs={"read_error_rate": self.read_error_rate,
                       "transition_fault_rate": self.transition_fault_rate,
                       "channel_margins": self.channel_margins},
                source="NodeConfig")
        if self.backend is not None:
            resolve_backend(self.backend)


@dataclass
class NodeResult:
    """Aggregate outcome of one node simulation."""
    config: NodeConfig
    time_ns: float
    instructions: float
    dram_reads: int
    dram_writes: int
    dram_write_bursts: int
    cleaning_writes: int
    cleaned_rewrites: int
    write_mode_entries: int
    mean_read_latency_ns: float
    bus_utilization: float
    row_hit_rate: float
    llc_miss_rate: float
    activates: int
    refreshes: int
    transitions: int
    self_refresh_rank_ns: float
    effective_design: str
    failed_transitions: int = 0
    read_retries: int = 0
    #: Engine accounting (perf harness): events the loop processed and
    #: schedule() calls whose past-due time was clamped to now.
    events_processed: int = 0
    schedule_clamped: int = 0

    @property
    def ipc(self) -> float:
        cycles = self.time_ns * CPU_GHZ
        return self.instructions / cycles if cycles else 0.0

    @property
    def dram_accesses(self) -> int:
        return self.dram_reads + self.dram_writes

    @property
    def dram_accesses_per_instruction(self) -> float:
        return (self.dram_accesses / self.instructions
                if self.instructions else 0.0)

    @property
    def write_share(self) -> float:
        total = self.dram_reads + self.dram_writes
        return self.dram_writes / total if total else 0.0


class NodeSimulation:
    """Builds and runs one node configuration."""

    def __init__(self, config: NodeConfig):
        self.config = config
        self.engine = EventLoop()
        hier = config.hierarchy
        self.hierarchy = CacheHierarchy(hier)
        self.effective_design = self._effective_design()
        self.backend: MemoryBackend = get_backend(config.backend)
        spec_timing = config.timing or self.backend.spec_timing()
        self.channels = self._build_channels(spec_timing)
        # The controller addresses *logical* ranks; a multiplexed-rank
        # backend exposes rank_mux_factor x the physical ranks.
        total_ranks = hier.modules_per_channel * \
            self.backend.effective_ranks(hier.ranks_per_module)
        if self.effective_design in ("fmr", "hetero-dmr", "hetero-dmr+fmr"):
            # Replication-active designs compact used pages into half
            # the modules (PASR-style freeing, Section III-E), so
            # demand addresses interleave over the in-use module's
            # ranks; the other module holds the replicas.
            total_ranks //= 2
        self.mapping = AddressMapping(
            channels=hier.channels, ranks_per_channel=total_ranks)
        self.policies = [self._make_policy(i)
                         for i in range(len(self.channels))]
        self.memctl = MemoryController(
            self.engine, self.channels, self.mapping,
            policy_factory=lambda i: self.policies[i])
        self._start_fast_designs()
        self.cores = [
            Core(i, TraceGenerator(get_profile(config.suite), i,
                                   config.seed).records(config.refs_per_core),
                 cpu_ghz=CPU_GHZ, mlp_limit=config.mlp_limit)
            for i in range(hier.cores)]
        if config.use_prefetchers:
            self.stride_pf = [StridePrefetcher(degree=4)
                              for _ in self.cores]
            self.nextline_pf = [NextLinePrefetcher() for _ in self.cores]
        else:
            self.stride_pf = self.nextline_pf = None
        self._prefetch_outstanding = [0] * len(self.cores)
        self._cores_done = 0
        self._finished = False
        self._warm_caches()

    def _warm_caches(self) -> None:
        """Pre-fill the caches to steady-state occupancy.

        The paper warms caches with 15 ms of atomic simulation before
        measuring; here the LLC (and L2s) are filled with
        footprint-resident lines, dirty with the workload's store
        probability, so eviction/writeback traffic is in steady state
        from the first measured reference.
        """
        import random as _random
        prof = get_profile(self.config.suite)
        rng = _random.Random(self.config.seed ^ 0x5EED)
        lines_total = prof.footprint_bytes // 64
        l3 = self.hierarchy.l3
        dirty_prob = prof.write_fraction
        if self.effective_design in ("hetero-dmr", "hetero-dmr+fmr"):
            # Hetero-DMR's proactive cleaning keeps the steady-state
            # LLC essentially clean (Section III-E): the measured
            # window starts as if a cleaning batch just completed, so
            # in-window cleaning covers only lines dirtied in-window —
            # the same write volume the baseline's evictions carry.
            dirty_prob = 0.0
        l3.warm(rng, dirty_prob=dirty_prob, max_line=lines_total)
        for l2 in self.hierarchy.l2s:
            l2.warm(rng, dirty_prob=prof.write_fraction,
                    max_line=lines_total)

    # -- construction ----------------------------------------------------------------

    def _effective_design(self) -> str:
        return effective_design(self.config.design,
                                self.config.memory_utilization)

    def _channel_margin(self, channel_index: int) -> int:
        if self.config.channel_margins is not None:
            return self.config.channel_margins[channel_index]
        return self.config.margin_mts

    def _build_channels(self, spec_timing: TimingParameters) -> List[Channel]:
        hier = self.config.hierarchy
        channels = []
        backend = self.backend
        spec = ModuleSpec(
            spec_data_rate_mts=backend.spec_data_rate_mts,
            ranks_per_module=backend.effective_ranks(hier.ranks_per_module))
        for c in range(hier.channels):
            margin = self._channel_margin(c)
            modules = [Module(spec, "C{}M{}".format(c, m),
                              true_margin_mts=margin)
                       for m in range(hier.modules_per_channel)]
            channel = Channel(
                index=c, modules=modules, safe_timing=spec_timing,
                fast_timing=backend.fast_timing(
                    margin, self.config.use_latency_margin),
                backend=backend)
            if self.config.transition_fault_rate > 0.0:
                channel.frequency.seed_faults(
                    self.config.seed + 7919 * c,
                    self.config.transition_fault_rate)
            channels.append(channel)
        return channels

    def _make_policy(self, channel_index: int) -> AccessPolicy:
        cfg = self.config
        hdmr_cfg = HeteroDMRConfig(
            margin_mts=self._channel_margin(channel_index),
            use_latency_margin=cfg.use_latency_margin,
            read_error_rate=cfg.read_error_rate)
        design = self.effective_design
        if design == "baseline":
            return BaselinePolicy()
        if design == "baseline-plain":
            return PlainBaselinePolicy()
        if design == "fmr":
            return FmrPolicy()
        if design == "hetero-dmr":
            return HeteroDMRPolicy(hdmr_cfg,
                                   llc_clean_hook=self._clean_llc)
        if design == "hetero-dmr+fmr":
            return HeteroFmrPolicy(hdmr_cfg,
                                   llc_clean_hook=self._clean_llc)
        raise ValueError(design)

    def _start_fast_designs(self) -> None:
        """Hetero-DMR channels boot replicated and in fast read mode."""
        if self.effective_design not in ("hetero-dmr", "hetero-dmr+fmr"):
            return
        for channel, policy in zip(self.channels, self.policies):
            free_idx = policy.free_module_index
            channel.modules[free_idx].holds_copies = True
            channel.modules[free_idx].is_free = True
            channel.to_fast(0.0)

    def _clean_llc(self, limit: int) -> List[int]:
        """Hetero-DMR write-mode hook: clean dirty-LRU LLC lines."""
        addrs = self.hierarchy.llc_dirty_lru(limit)
        return self.hierarchy.llc_clean(addrs)

    # -- execution --------------------------------------------------------------------

    def run(self) -> NodeResult:
        for core in self.cores:
            self._schedule_advance(core)
        last_processed = -1
        while not self._finished:
            if not self.engine.pending:
                raise RuntimeError("simulation deadlocked: no events "
                                   "pending but cores unfinished")
            self.engine.run(max_events=1_000_000)
            if self.engine.events_processed == last_processed:
                raise RuntimeError("simulation made no progress")
            last_processed = self.engine.events_processed
        # Silence the periodic refresh so the final drain terminates.
        for ctrl in self.memctl.controllers:
            ctrl.stop()
        self.engine.run()
        return self._collect()

    def _schedule_advance(self, core: Core) -> None:
        self.engine.schedule(core.time_ns, lambda: self._advance(core))

    def _advance(self, core: Core) -> None:
        """Run one core until it blocks, finishes, or out-runs global
        time by the quantum."""
        while True:
            if core.time_ns > self.engine.now + ADVANCE_QUANTUM_NS:
                self._schedule_advance(core)
                return
            if not core.runnable:
                return
            rec = core.next_record()
            if rec is None:
                self._core_finished(core)
                return
            core.time_ns += rec.gap_cycles / core.cpu_ghz
            if not core.can_issue(rec):
                core.block(rec)
                return
            self._issue(core, rec)

    def _issue(self, core: Core, rec) -> None:
        outcome = self.hierarchy.access(core.core_id, rec.address,
                                        rec.is_write)
        now = core.time_ns
        for wb in outcome.writebacks:
            self.memctl.submit_write(wb, now)
        if outcome.memory_read is None:
            # On-chip hit: dependent accesses see the full latency, the
            # OoO window hides it otherwise.
            if rec.dependent:
                core.time_ns += outcome.latency_cycles / core.cpu_ghz
            else:
                core.time_ns += 1.0 / core.cpu_ghz
            return
        core.outstanding += 1
        core.stats.misses_issued += 1
        line = outcome.memory_read
        is_write = rec.is_write
        self.engine.schedule(now, lambda: self.memctl.submit_read(
            line, max(now, self.engine.now),
            lambda finish: self._miss_done(core, line, is_write, finish),
            core.core_id))
        self._maybe_prefetch(core, rec.address)

    def _miss_done(self, core: Core, line: int, is_write: bool,
                   finish_ns: float) -> None:
        for wb in self.hierarchy.fill(core.core_id, line, is_write):
            self.memctl.submit_write(wb, finish_ns)
        core.miss_returned(finish_ns)
        if core.done and core.pending is None and core.outstanding == 0:
            self._core_finished(core)
            return
        self._schedule_advance(core)

    # -- prefetching --------------------------------------------------------------------

    def _maybe_prefetch(self, core: Core, address: int) -> None:
        if self.stride_pf is None:
            return
        cid = core.core_id
        targets = list(self.stride_pf[cid].observe(address))
        targets += self.nextline_pf[cid].observe(address, was_hit=False)
        for target in targets:
            if self._prefetch_outstanding[cid] >= 8:
                break
            line = self.hierarchy.l3.line_address(target)
            if self.hierarchy.l3.contains(line):
                self.stride_pf[cid].credit_useful()
                continue
            self._prefetch_outstanding[cid] += 1
            now = core.time_ns
            self.engine.schedule(now, lambda l=line: self.memctl.submit_read(
                l, max(now, self.engine.now),
                lambda finish, l=l: self._prefetch_done(cid, l, finish),
                cid, is_prefetch=True))

    def _prefetch_done(self, core_id: int, line: int,
                       finish_ns) -> None:
        self._prefetch_outstanding[core_id] -= 1
        if finish_ns is None:
            return   # shed by the controller under pressure
        for wb in self.hierarchy.fill_prefetch(line):
            self.memctl.submit_write(wb, self.engine.now)

    # -- completion --------------------------------------------------------------------

    def _core_finished(self, core: Core) -> None:
        if core.stats.finish_ns:
            return
        core.stats.finish_ns = max(core.time_ns, self.engine.now)
        self._cores_done += 1
        if self._cores_done == len(self.cores):
            self.memctl.drain()
            self._finished = True
            self.engine.stop()

    def _collect(self) -> NodeResult:
        time_ns = max(c.stats.finish_ns for c in self.cores)
        instructions = sum(c.stats.instructions for c in self.cores)
        reads = writes = bursts = cleaning = entries = refreshes = 0
        lat_total = 0.0
        lat_count = 0
        activates = hits = misses = conflicts = 0
        bus_busy = 0.0
        transitions = 0
        failed_transitions = 0
        read_retries = 0
        self_refresh_ns = 0.0
        for ctrl in self.memctl.controllers:
            s = ctrl.stats
            reads += s.reads_issued
            read_retries += s.read_retries
            writes += s.writes_issued
            bursts += s.write_bursts
            cleaning += s.cleaning_writes
            entries += s.write_mode_entries
            refreshes += s.refreshes
            lat_total += s.read_latency_total_ns
            lat_count += s.read_latency_count
        for channel in self.channels:
            bus_busy += channel.stats.bus_busy_ns
            transitions += (channel.frequency.transitions_to_fast +
                            channel.frequency.transitions_to_safe)
            failed_transitions += channel.frequency.failed_transitions
            for module in channel.modules:
                for rank in module.ranks:
                    for bank in rank.banks:
                        activates += bank.stats.activates
                        hits += bank.stats.row_hits
                        misses += bank.stats.row_misses
                        conflicts += bank.stats.row_conflicts
                    if rank.in_self_refresh:
                        self_refresh_ns += time_ns - rank.self_refresh_since_ns
        nchan = len(self.channels)
        total_bank_accesses = hits + misses + conflicts
        rec = get_recorder()
        if rec.enabled:
            labels = {"suite": self.config.suite,
                      "design": self.effective_design}
            rec.counter("sim", "dram_reads", reads, **labels)
            rec.counter("sim", "dram_writes", writes, **labels)
            rec.counter("sim", "frequency_transitions", transitions,
                        **labels)
            rec.counter("sim", "write_mode_entries", entries, **labels)
            rec.gauge("sim", "row_hit_rate",
                      hits / total_bank_accesses
                      if total_bank_accesses else 0.0, **labels)
            rec.gauge("sim", "bus_utilization",
                      bus_busy / (time_ns * nchan) if time_ns else 0.0,
                      **labels)
            rec.gauge("sim", "events_processed",
                      self.engine.events_processed, **labels)
            rec.gauge("sim", "schedule_clamped",
                      self.engine.schedule_clamped, **labels)
        return NodeResult(
            config=self.config,
            time_ns=time_ns,
            instructions=instructions,
            dram_reads=reads,
            dram_writes=writes,
            dram_write_bursts=bursts,
            cleaning_writes=cleaning,
            cleaned_rewrites=self.hierarchy.l3.stats.cleaned_rewrites,
            write_mode_entries=entries,
            mean_read_latency_ns=lat_total / lat_count if lat_count else 0.0,
            bus_utilization=bus_busy / (time_ns * nchan) if time_ns else 0.0,
            row_hit_rate=hits / total_bank_accesses
            if total_bank_accesses else 0.0,
            llc_miss_rate=self.hierarchy.l3.stats.miss_rate,
            activates=activates,
            refreshes=refreshes,
            transitions=transitions,
            self_refresh_rank_ns=self_refresh_ns,
            effective_design=self.effective_design,
            failed_transitions=failed_transitions,
            read_retries=read_retries,
            events_processed=self.engine.events_processed,
            schedule_clamped=self.engine.schedule_clamped,
        )


def simulate_node(config: NodeConfig) -> NodeResult:
    """Simulate one node at the configured fidelity tier.

    ``fidelity="cycle"`` (or unset, with ``REPRO_FIDELITY`` empty) runs
    the trace-driven cycle simulator; ``"fast"`` evaluates the
    calibrated closed-form model instead, which needs the committed
    calibration artifact (see :mod:`repro.fastmodel`).
    """
    if resolve_fidelity(config.fidelity) == "fast":
        from ..fastmodel import simulate_node_fast
        return simulate_node_fast(config)
    return NodeSimulation(config).run()
