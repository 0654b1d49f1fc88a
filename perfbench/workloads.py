"""The four benchmark workloads, their output checks and their ledgers.

Each workload turns ``--seed`` into inputs in :meth:`setup`, then runs
*rounds* of a fixed unit of work.  A round is made of named operations
(a cycle cell, a fast-tier sweep, a cluster replay, a soak run); every
operation is timed on its own and checked on its own.  End-to-end times
are means over all rounds of a run: the host this was tuned on switches
between a fast and a slow state every few seconds, so a median of a few
rounds flips between the two while the mean weighs them by their share
of the run.

Only the program's public API is called: ``simulate_node``,
``SweepRunner``, ``cluster_sweep`` and ``SoakScenario``.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import math
import shutil
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from tracer import COUNT, ITER, SPAN

#: Margin (MT/s) of every Hetero-DMR cell: the paper's common rung.
MARGIN_MTS = 800
#: Memory utilization of every cycle cell.  Below 0.25, so a
#: hetero-dmr+fmr cell really runs both copies (at 0.25 and above it
#: falls back to plain Hetero-DMR).
CELL_UTILIZATION = 0.15
#: References per core of the Table III cells.
TABLE3_REFS = 1000
#: References per core of the small-LLC cell: the length at which
#: lulesh enters write mode on that hierarchy for every seed tried.
SMALL_LLC_REFS = 2000
SMALL_LLC = "Hierarchy1-smallLLC"

#: Fast-tier grid: 17 margins (fig12 has 2) x 40 seeds per run.
FAST_MARGINS = tuple(range(0, 1700, 100))
FAST_SEEDS_PER_RUN = 40
#: Calibrated cluster replay size (the ``repro fastmodel cluster``
#: default).
CLUSTER_NODES = 10_000
CLUSTER_JOBS = 2_000
#: Traces replayed per round.  Replay cost differs by a quarter from one
#: trace to the next, so a round averages over two.
CLUSTER_TRACES = 2
#: Soak: the paper-scale fleet; messages per pass.
SOAK_NODES = 1490
SOAK_EVENTS = 100_000
SOAK_VERIFY_EVENTS = 10_000

#: NodeResult fields that are host-side engine accounting, not
#: simulated output.  A change may legitimately cut events, so they
#: stay out of the digests.
_ENGINE_FIELDS = ("config", "events_processed", "schedule_clamped")


def digest(obj) -> str:
    """SHA-256 of the canonical JSON of ``obj`` (floats by repr)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Checks:
    """Counts operations and failed operations.  An operation fails on
    an exception or on any output check of it that does not hold; the
    first reason is kept, named by the operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: Dict[str, str] = {}

    @property
    def failed(self) -> int:
        return len(self.failures)

    def fail(self, op: str, reason: str) -> None:
        self.failures.setdefault(op, reason)

    def run(self, op: str, fn: Callable[[], object]):
        """Run and time one operation; returns ``(value, seconds)``,
        the value None if it raised."""
        self.attempted += 1
        # Free the previous operation's cyclic garbage first (untimed),
        # so peak memory is one operation's, not whatever the collector
        # happened to leave.
        gc.collect()
        t0 = time.perf_counter()
        try:
            value = fn()
        except Exception as exc:   # an operation that raises has failed
            self.fail(op, "{}: {}".format(type(exc).__name__, exc))
            value = None
        return value, time.perf_counter() - t0

    def digest(self, op: str, actual: str, expected: Optional[str],
               against: str) -> None:
        """Fail ``op`` when its output digest differs from ``expected``;
        None means there is nothing to compare with."""
        if expected is not None and actual != expected:
            self.fail(op, "digest {} differs from the {} digest {}".format(
                actual[:16], against, expected[:16]))


@dataclasses.dataclass
class Round:
    """One round: per-operation host seconds, output digests and the
    simulated values the ledger reads."""
    name: str
    seconds: Dict[str, float]
    digests: Dict[str, str]
    outputs: Dict[str, object]

    @property
    def total_s(self) -> float:
        return sum(self.seconds.values())


class Workload:
    name = ""
    #: One line: why the workload is in the benchmark (BENCHMARK.json).
    why = ""

    def setup(self, seed: int, root: Path) -> None:
        raise NotImplementedError

    def round(self, checks: Checks, name: str) -> Round:
        raise NotImplementedError

    def end_to_end(self, rounds: List[Round]) -> Dict[str, tuple]:
        """``{name: (value, unit)}`` from untraced rounds."""
        raise NotImplementedError

    def ledger(self, traced: Round, untraced: Round
               ) -> Dict[str, float]:
        raise NotImplementedError

    def close(self) -> None:
        """Remove whatever the workload wrote."""

    def check_round(self, checks: Checks, rnd: Round,
                    references: dict, earlier: Optional[Round] = None
                    ) -> None:
        """Compare a round's digests with the recorded reference for
        this seed and with an earlier round of the same inputs."""
        for label, value in rnd.digests.items():
            op = "{} {}".format(rnd.name, label)
            checks.digest(op, value, references.get(label), "reference")
            if earlier is not None:
                checks.digest(op, value, earlier.digests.get(label),
                              earlier.name)


# -- cycle engine ------------------------------------------------------------


def _hierarchies():
    from repro.cache.hierarchy import HIERARCHIES, hierarchy1
    out = {name: make() for name, make in HIERARCHIES.items()}
    out[SMALL_LLC] = dataclasses.replace(
        hierarchy1(), name=SMALL_LLC, l2_bytes_per_core=256 << 10,
        l3_bytes_total=2 << 20, l3_assoc=16)
    return out


class CycleWorkload(Workload):
    cells: tuple = ()

    def setup(self, seed: int, root: Path) -> None:
        from repro.sim.node import NodeConfig, NodeResult, simulate_node
        self._simulate = simulate_node
        hiers = _hierarchies()
        self.configs = {}
        for suite, hier, design in self.cells:
            refs = SMALL_LLC_REFS if hier == SMALL_LLC else TABLE3_REFS
            self.configs["{}/{}/{}".format(suite, hier, design)] = \
                NodeConfig(suite=suite, hierarchy=hiers[hier],
                           design=design, margin_mts=MARGIN_MTS,
                           memory_utilization=CELL_UTILIZATION,
                           refs_per_core=refs, seed=seed)
        self._fields = [f.name for f in dataclasses.fields(NodeResult)
                        if f.name not in _ENGINE_FIELDS]

    def _cell(self, config):
        result = self._simulate(config)
        problems = []
        if result.effective_design != config.design:
            problems.append("ran as {}".format(result.effective_design))
        if not (result.time_ns > 0 and result.instructions > 0
                and result.dram_reads > 0):
            problems.append("empty result")
        if problems:
            raise AssertionError("; ".join(problems))
        return result

    def round(self, checks: Checks, name: str) -> Round:
        seconds, digests, outputs = {}, {}, {}
        for label, config in self.configs.items():
            result, seconds[label] = checks.run(
                "{} {}".format(name, label), lambda: self._cell(config))
            if result is None:
                continue
            digests[label] = digest({f: getattr(result, f)
                                     for f in self._fields})
            outputs[label] = result
        return Round(name, seconds, digests, outputs)

    def end_to_end(self, rounds: List[Round]) -> Dict[str, tuple]:
        wall = statistics.fmean([r.total_s for r in rounds])
        results = list(rounds[0].outputs.values())
        instructions = sum(r.instructions for r in results)
        ipc = math.exp(sum(math.log(r.ipc) for r in results)
                       / len(results)) if results else 0.0
        return {"wall_s": (wall, "s"),
                "sim_instr_per_s": (instructions / wall, "1/s"),
                "sim_ipc": (ipc, "instr/cycle")}

    def ledger(self, traced: Round, untraced: Round
               ) -> Dict[str, float]:
        results = list(traced.outputs.values())
        n = len(results) or 1
        events = sum(r.events_processed for r in results)
        return {
            "sim.events": events,
            "sim.us_per_event": (untraced.total_s / events * 1e6
                                 if events else 0.0),
            "cache.llc_miss_rate":
                sum(r.llc_miss_rate for r in results) / n,
            "mem_ctrl.read_latency_ns":
                sum(r.mean_read_latency_ns for r in results) / n,
            "mem_ctrl.write_mode_entries":
                sum(r.write_mode_entries for r in results),
            "dram.transitions": sum(r.transitions for r in results),
            "dram.row_hit_rate":
                sum(r.row_hit_rate for r in results) / n,
            "dram.bus_utilization":
                sum(r.bus_utilization for r in results) / n,
        }


class CycleHdmr(CycleWorkload):
    name = "cycle-hdmr"
    why = ("Hetero-DMR cells: read_rank steering and FR-FCFS pick "
           "dominate; a small-LLC cell reaches write mode")
    cells = (("hpcg", "Hierarchy1", "hetero-dmr"),
             ("hpcg", "Hierarchy2", "hetero-dmr+fmr"),
             ("graph500", "Hierarchy1", "hetero-dmr+fmr"),
             ("graph500", "Hierarchy2", "hetero-dmr"),
             ("lulesh", SMALL_LLC, "hetero-dmr"))


class CycleSpec(CycleWorkload):
    name = "cycle-spec"
    why = ("same suites at spec timing: mem_ctrl, dram and cache "
           "without Hetero-DMR steering, with write drains")
    cells = (("hpcg", "Hierarchy1", "baseline"),
             ("hpcg", "Hierarchy2", "fmr"),
             ("graph500", "Hierarchy1", "fmr"),
             ("graph500", "Hierarchy2", "baseline"),
             ("lulesh", SMALL_LLC, "baseline"))


# -- fast tier and cluster replay --------------------------------------------


class FleetFast(Workload):
    name = "fleet-fast"
    why = ("fast-tier sweep over 17 margins and 40 seeds, then two "
           "calibrated 10k-node / 2k-job cluster replays")

    def setup(self, seed: int, root: Path) -> None:
        from repro.fastmodel import cluster_sweep
        from repro.perf.sweep import SweepConfig, SweepRunner
        self._cluster_sweep = cluster_sweep
        self._runner = SweepRunner
        self.seed = seed
        self.sweep_config = SweepConfig(
            fidelity="fast", margins=FAST_MARGINS,
            designs=("baseline", "fmr", "hetero-dmr", "hetero-dmr+fmr"),
            seeds=tuple(seed * FAST_SEEDS_PER_RUN + i
                        for i in range(FAST_SEEDS_PER_RUN)))

    def _sweep(self):
        result = self._runner(self.sweep_config).run()
        cells = result.deterministic_view()
        if not cells or any(c["time_ns"] <= 0 for c in cells):
            raise AssertionError("fast sweep returned empty cells")
        return cells

    def _cluster(self, trace_seed: int):
        report = self._cluster_sweep(total_nodes=CLUSTER_NODES,
                                     job_count=CLUSTER_JOBS,
                                     seed=trace_seed)
        report.pop("wall_s")
        if not report["mean_turnaround_improvement"] > 0:
            raise AssertionError("no turnaround figure")
        return report

    def round(self, checks: Checks, name: str) -> Round:
        seconds, digests, outputs = {}, {}, {}
        ops = [("fast_sweep", self._sweep)]
        for i in range(CLUSTER_TRACES):
            trace_seed = self.seed * CLUSTER_TRACES + i
            ops.append(("cluster_replay.{}".format(i),
                        lambda s=trace_seed: self._cluster(s)))
        for label, fn in ops:
            out, seconds[label] = checks.run(
                "{} {}".format(name, label), fn)
            if out is not None:
                digests[label] = digest(out)
                # Keep only what the metrics read, so memory does not
                # grow with the number of rounds.
                outputs[label] = len(out) if label == "fast_sweep" \
                    else out["mean_turnaround_improvement"]
        return Round(name, seconds, digests, outputs)

    def end_to_end(self, rounds: List[Round]) -> Dict[str, tuple]:
        sweep_s = statistics.fmean([r.seconds["fast_sweep"] for r in rounds])
        cluster_s = statistics.fmean(
            [r.total_s - r.seconds["fast_sweep"] for r in rounds])
        cells = rounds[0].outputs.get("fast_sweep", 0)
        # Each trace is replayed on two systems.
        jobs = CLUSTER_TRACES * 2 * CLUSTER_JOBS
        return {"wall_s": (sweep_s + cluster_s, "s"),
                "fast_cells_per_s": (cells / sweep_s, "1/s"),
                "cluster_jobs_per_s": (jobs / cluster_s, "1/s")}

    def ledger(self, traced: Round, untraced: Round
               ) -> Dict[str, float]:
        return {"fastmodel.cells": traced.outputs.get("fast_sweep", 0)}


# -- placement service soak --------------------------------------------------


class Soak(Workload):
    name = "soak"
    why = ("closed-loop soak of the placement daemon over an on-disk "
           "16-shard registry of 1490 nodes")

    def setup(self, seed: int, root: Path) -> None:
        from repro.service.soak import SoakConfig, SoakScenario
        self._scenario = SoakScenario
        self._config = SoakConfig
        self.seed = seed
        self.workdir = root / ".perfbench" / "soak-{}".format(seed)
        shutil.rmtree(self.workdir, ignore_errors=True)
        self._passes = 0

    def _soak(self):
        self._passes += 1
        registry = self.workdir / "pass-{}".format(self._passes)
        try:
            report = self._scenario(self._config(
                nodes=SOAK_NODES, events=SOAK_EVENTS, seed=self.seed,
                verify=True, verify_events=SOAK_VERIFY_EVENTS,
                registry_dir=registry)).run()
        finally:
            shutil.rmtree(registry, ignore_errors=True)
        stats = report.stats
        problems = []
        if report.verify_match is not True:
            problems.append("prefix rerun diverged from the full run")
        if not int(stats["shed"]) > 0:
            problems.append("no placement was shed")
        if not int(stats["backpressure_waits"]) > 0:
            problems.append("no write met backpressure")
        if report.events < SOAK_EVENTS or report.decisions == 0:
            problems.append("short run")
        if problems:
            raise AssertionError("; ".join(problems))
        return report

    def round(self, checks: Checks, name: str) -> Round:
        report, elapsed = checks.run(name + " soak", self._soak)
        seconds = {"soak": elapsed}
        if report is None:
            return Round(name, seconds, {}, {})
        return Round(name, seconds,
                     {"soak": digest({"decisions": report.digest,
                                      "verify_match": report.verify_match,
                                      "fingerprint": report.fingerprint})},
                     {"soak": report})

    @staticmethod
    def latency_samples(report) -> int:
        """Placements that reached the controller (every one is timed);
        shed placements are refused at admission and are not."""
        stats = report.stats
        return sum(int(stats[k]) for k in
                   ("placed", "unsatisfiable", "expired", "duplicate"))

    def end_to_end(self, rounds: List[Round]) -> Dict[str, tuple]:
        reports = [r.outputs["soak"] for r in rounds if r.outputs]
        return {
            "wall_s": (statistics.fmean([r.total_s for r in rounds]), "s"),
            "soak_msgs_per_s": (sum(r.events for r in reports)
                                / sum(r.wall_s for r in reports), "1/s"),
            "place_p50_ms": (statistics.median(
                [r.p50_s for r in reports]) * 1e3, "ms"),
            "place_p99_ms": (statistics.median(
                [r.p99_s for r in reports]) * 1e3, "ms"),
            "place_samples": (statistics.median(
                [self.latency_samples(r) for r in reports]), "count"),
        }

    def ledger(self, traced: Round, untraced: Round
               ) -> Dict[str, float]:
        report = traced.outputs.get("soak")
        if report is None:
            return {}
        return {"service.shed": int(report.stats["shed"]),
                "service.backpressure_waits":
                    int(report.stats["backpressure_waits"]),
                "service.cache_hit_ratio":
                    float(report.stats["cache_hit_ratio"])}

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (CycleHdmr, CycleSpec, FleetFast, Soak)}


# -- the traced run's layer boundaries ---------------------------------------

#: ``(target, span name, mode)``: a span around each public function at
#: a layer boundary.  Several targets may share a span name.
BOUNDARIES = (
    ("repro.sim.node:NodeSimulation.__init__", "sim.build", SPAN),
    ("repro.sim.engine:EventLoop.run", "sim.loop", SPAN),
    ("repro.sim.engine:CalendarEventLoop.run", "sim.loop", SPAN),
    ("repro.workloads.base:TraceGenerator.records", "workloads.trace",
     ITER),
    ("repro.cpu.core:Core.next_record", "cpu", SPAN),
    ("repro.cpu.core:Core.can_issue", "cpu", SPAN),
    ("repro.cpu.core:Core.block", "cpu", SPAN),
    ("repro.cpu.core:Core.miss_returned", "cpu", SPAN),
    ("repro.cache.cache:Cache.warm", "cache.warm", SPAN),
    ("repro.cache.hierarchy:CacheHierarchy.access", "cache.access", SPAN),
    ("repro.cache.hierarchy:CacheHierarchy.fill", "cache.fill", SPAN),
    ("repro.cache.hierarchy:CacheHierarchy.fill_prefetch", "cache.fill",
     SPAN),
    ("repro.cache.prefetcher:StridePrefetcher.observe", "cache.prefetch",
     SPAN),
    ("repro.cache.prefetcher:NextLinePrefetcher.observe",
     "cache.prefetch", SPAN),
    ("repro.cache.hierarchy:CacheHierarchy.llc_dirty_lru", "cache.clean",
     SPAN),
    ("repro.cache.hierarchy:CacheHierarchy.llc_clean", "cache.clean",
     SPAN),
    ("repro.mem_ctrl.controller:MemoryController.submit_read",
     "mem_ctrl.submit", SPAN),
    ("repro.mem_ctrl.controller:MemoryController.submit_write",
     "mem_ctrl.submit", SPAN),
    ("repro.mem_ctrl.scheduler:FrFcfsScheduler.pick", "mem_ctrl.pick",
     SPAN),
    ("repro.mem_ctrl.page_policy:PagePolicy.apply",
     "mem_ctrl.page_policy", COUNT),
    ("repro.core.policies:HeteroDMRPolicy.read_rank", "core.read_rank",
     SPAN),
    ("repro.core.policies:HeteroFmrPolicy.read_rank", "core.read_rank",
     SPAN),
    ("repro.core.policies:FmrPolicy.read_rank", "core.read_rank", SPAN),
    ("repro.dram.channel:Channel.access", "dram.access", SPAN),
    ("repro.fastmodel.calibration:load_default_calibration",
     "fastmodel.calibration_load", SPAN),
    ("repro.fastmodel.cluster:load_default_calibration",
     "fastmodel.calibration_load", SPAN),
    ("repro.perf.sweep:SweepRunner.run", "fastmodel.sweep", SPAN),
    ("repro.fastmodel.cluster:generate_trace", "hpc.trace_gen", SPAN),
    ("repro.hpc.simulator:SystemSimulator.run", "hpc.run", SPAN),
    ("repro.hpc.scheduler:EasyBackfillScheduler.schedule_pass",
     "hpc.schedule_pass", SPAN),
    ("repro.hpc.scheduler:AllocationPolicy.select", "hpc.select", SPAN),
    ("repro.hpc.scheduler:MarginAwareAllocationPolicy.select",
     "hpc.select", SPAN),
    ("repro.service.daemon:PlacementDaemon.submit", "service.submit",
     SPAN),
    ("repro.service.daemon:BucketPool.select", "service.pool_select",
     SPAN),
    ("repro.service.sharding:ShardedRegistry.record",
     "service.registry_record", SPAN),
    ("repro.service.sharding:ShardedRegistry.compact_shard",
     "service.compact", SPAN),
    ("repro.fleet.registry:MarginRegistry.write_snapshot",
     "service.snapshot", SPAN),
)


def span_metrics(tracer) -> Dict[str, float]:
    """Per-layer metrics read straight off the aggregated spans."""
    calls, total, self_s = tracer.calls, tracer.total_s, tracer.self_s

    def per(num: str, den: str) -> float:
        return calls.get(num, 0) / calls[den] if calls.get(den) else 0.0

    return {
        "sim.build_self_s": self_s.get("sim.build", 0.0),
        "sim.loop_self_s": self_s.get("sim.loop", 0.0),
        "workloads.trace_self_s": self_s.get("workloads.trace", 0.0),
        "workloads.records": calls.get("workloads.trace.items", 0),
        "cpu.self_s": self_s.get("cpu", 0.0),
        "cache.warm_s": total.get("cache.warm", 0.0),
        "cache.access_calls": calls.get("cache.access", 0),
        "cache.access_self_s": self_s.get("cache.access", 0.0),
        "cache.fill_self_s": self_s.get("cache.fill", 0.0),
        "cache.prefetch_self_s": self_s.get("cache.prefetch", 0.0),
        "cache.clean_calls": calls.get("cache.clean", 0),
        "mem_ctrl.submit_calls": calls.get("mem_ctrl.submit", 0),
        "mem_ctrl.submit_self_s": self_s.get("mem_ctrl.submit", 0.0),
        "mem_ctrl.pick_calls": calls.get("mem_ctrl.pick", 0),
        "mem_ctrl.pick_self_s": self_s.get("mem_ctrl.pick", 0.0),
        "mem_ctrl.page_policy_per_pick":
            per("mem_ctrl.page_policy", "mem_ctrl.pick"),
        "core.read_rank_calls": calls.get("core.read_rank", 0),
        "core.read_rank_self_s": self_s.get("core.read_rank", 0.0),
        "core.read_rank_per_pick": per("core.read_rank", "mem_ctrl.pick"),
        "dram.access_calls": calls.get("dram.access", 0),
        "dram.access_self_s": self_s.get("dram.access", 0.0),
        "fastmodel.calibration_load_s":
            total.get("fastmodel.calibration_load", 0.0),
        "fastmodel.sweep_self_s": self_s.get("fastmodel.sweep", 0.0),
        "hpc.trace_gen_s": total.get("hpc.trace_gen", 0.0),
        "hpc.run_self_s": self_s.get("hpc.run", 0.0),
        "hpc.schedule_pass_calls": calls.get("hpc.schedule_pass", 0),
        "hpc.schedule_pass_self_s": self_s.get("hpc.schedule_pass", 0.0),
        "hpc.select_calls": calls.get("hpc.select", 0),
        "hpc.select_self_s": self_s.get("hpc.select", 0.0),
        "service.submit_calls": calls.get("service.submit", 0),
        "service.submit_self_s": self_s.get("service.submit", 0.0),
        "service.pool_select_self_s":
            self_s.get("service.pool_select", 0.0),
        "service.registry_record_calls":
            calls.get("service.registry_record", 0),
        "service.registry_record_self_s":
            self_s.get("service.registry_record", 0.0),
        "service.compact_self_s": self_s.get("service.compact", 0.0),
        "service.snapshot_self_s": self_s.get("service.snapshot", 0.0),
    }
