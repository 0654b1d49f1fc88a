"""Command-line interface.

::

    python -m repro characterize            # Section II campaign
    python -m repro montecarlo              # Figure 11 margin MC
    python -m repro settings                # Table II settings
    python -m repro node --suite hpcg       # one node, four designs
    python -m repro hpc --nodes 256         # Figure 17-style system run
    python -m repro backend compare         # DDR4-vs-MRDIMM study
    python -m repro chaos --smoke           # fault-injection campaign
    python -m repro adapt --smoke           # moving-margin adaptation
    python -m repro fleet profile           # profile a fleet registry
    python -m repro recover restore         # crash recovery
    python -m repro perf bench              # sweep benchmark + gate
    python -m repro obs trace               # deterministic trace run
    python -m repro serve                   # placement daemon (JSONL)
    python -m repro soak --smoke            # seeded soak + gate
    python -m repro suites                  # workload catalogue

Each subcommand prints the same plain-text tables the benchmark
targets save under ``benchmarks/results/``.

Conventions shared by every subcommand:

* ``--seed`` may be given globally (``repro --seed 7 hpc``) or after
  the subcommand (``repro hpc --seed 7``); the subcommand-level value
  wins, and both default to 2021.
* Exit codes: 0 success, 1 domain failure (a campaign FAILed, nothing
  could be profiled/placed), 2 I/O error (unreadable registry,
  unwritable report).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .analysis.reporting import format_bar_chart, format_table
from .analysis.stats import histogram, mean, stdev

#: Default RNG seed when neither --seed position supplies one.
DEFAULT_SEED = 2021

#: The exit-code contract (see module docstring).
EXIT_OK = 0
EXIT_DOMAIN_FAILURE = 1
EXIT_IO_ERROR = 2


def _write_output(command: str, path: str, content,
                  what: Optional[str] = None) -> bool:
    """Write ``content`` to ``path``: a string as is, anything else as
    indented, key-sorted JSON plus a newline.  On failure print
    ``repro <command>: cannot write <what or path>: <error>`` to stderr
    and return False (callers exit with :data:`EXIT_IO_ERROR`)."""
    try:
        with open(path, "w") as fh:
            if isinstance(content, str):
                fh.write(content)
            else:
                json.dump(content, fh, indent=2, sort_keys=True)
                fh.write("\n")
    except OSError as exc:
        print("repro {}: cannot write {}: {}".format(
            command, what or path, exc), file=sys.stderr)
        return False
    return True


def _resolve_seed(args: argparse.Namespace) -> int:
    """Subcommand ``--seed`` beats the global one; both optional."""
    sub_seed = getattr(args, "sub_seed", None)
    if sub_seed is not None:
        return sub_seed
    if args.seed is not None:
        return args.seed
    return DEFAULT_SEED


def _cmd_characterize(args: argparse.Namespace) -> int:
    from .characterization import ModulePopulation, measure_population
    pop = ModulePopulation(seed=_resolve_seed(args))
    measured = measure_population(pop.modules)
    abc = [measured[m.module_id].margin_mts for m in pop.major_brands()]
    d = [measured[m.module_id].margin_mts for m in pop.by_brand("D")]
    print(format_table(
        ["population", "modules", "mean margin MT/s", "stdev"],
        [["brands A-C", len(abc), mean(abc), stdev(abc)],
         ["brand D", len(d), mean(d), stdev(d)]],
        title="frequency margins ({} modules, {} chips)".format(
            len(pop.modules), pop.total_chips())))
    print()
    print(format_bar_chart(
        {"{:>5.0f} MT/s".format(k): v
         for k, v in histogram(abc + d, 200).items()}, fmt="{:.0f}"))
    return 0


def _cmd_montecarlo(args: argparse.Namespace) -> int:
    from .characterization import MarginMonteCarlo
    mc = MarginMonteCarlo(seed=_resolve_seed(args))
    rows = []
    for name, dist in (
            ("channel (aware)", mc.channel_margins(args.trials, True)),
            ("channel (unaware)", mc.channel_margins(args.trials, False)),
            ("node (aware)", mc.node_margins(args.trials // 4, True)),
            ("node (unaware)", mc.node_margins(args.trials // 4, False))):
        rows.append([name, dist.fraction_at_least(800),
                     dist.fraction_at_least(600)])
    print(format_table(["population", ">= 0.8 GT/s", ">= 0.6 GT/s"],
                       rows, title="Figure 11 Monte Carlo"))
    return 0


def _cmd_settings(args: argparse.Namespace) -> int:
    from .dram.timing import TABLE2_SETTINGS
    rows = [[name, t.data_rate_mts, t.tRCD_ns, t.tRP_ns, t.tRAS_ns,
             t.tREFI_ns / 1000.0, "{:.1f}".format(t.peak_bandwidth_gbs)]
            for name, t in TABLE2_SETTINGS.items()]
    print(format_table(
        ["setting", "MT/s", "tRCD", "tRP", "tRAS", "tREFI us", "GB/s"],
        rows, title="Table II memory settings"))
    return 0


def _cmd_node(args: argparse.Namespace) -> int:
    from .cache.hierarchy import HIERARCHIES
    from .sim import NodeConfig, simulate_node
    hierarchy = HIERARCHIES[args.hierarchy]()
    results = {}
    for design in ("baseline", "fmr", "hetero-dmr", "hetero-dmr+fmr"):
        results[design] = simulate_node(NodeConfig(
            suite=args.suite, hierarchy=hierarchy, design=design,
            margin_mts=args.margin, memory_utilization=args.utilization,
            refs_per_core=args.refs, seed=_resolve_seed(args),
            fidelity=args.fidelity))
    base = results["baseline"]
    rows = [[d, base.time_ns / r.time_ns, r.ipc, r.bus_utilization,
             r.write_share] for d, r in results.items()]
    print(format_table(
        ["design", "speedup", "IPC", "bus util", "write share"], rows,
        title="{} on {} (margin {} MT/s, {:.0%} memory used)".format(
            args.suite, args.hierarchy, args.margin, args.utilization)))
    return 0


def _cmd_hpc(args: argparse.Namespace) -> int:
    from .hpc import (CONVENTIONAL_MODEL, Cluster, EasyBackfillScheduler,
                      MarginAwareAllocationPolicy, PerformanceModel,
                      SystemSimulator, TraceConfig, generate_trace)
    from .sim.fidelity import FidelityError, ensure_fidelity_supported
    try:
        ensure_fidelity_supported(
            args.fidelity,
            knobs={"read_error_rate": args.read_error_rate,
                   "transition_fault_rate": args.transition_fault_rate},
            source="repro hpc --fidelity fast")
    except FidelityError as exc:
        print("repro hpc: {}".format(exc), file=sys.stderr)
        return EXIT_DOMAIN_FAILURE
    if args.fidelity == "fast":
        from .fastmodel import (CalibrationError,
                                performance_model_from_calibration)
        try:
            model = performance_model_from_calibration()
        except CalibrationError as exc:
            print("repro hpc: {}".format(exc), file=sys.stderr)
            return EXIT_DOMAIN_FAILURE
    elif args.read_error_rate or args.transition_fault_rate:
        # Degraded fleet: derive the node-speedup model from real
        # cycle simulations honoring the fault knobs instead of the
        # clean transcribed Figure 12 constants.
        from .characterization.crosstech import backend_performance_model
        model = backend_performance_model(
            refs_per_core=args.model_refs, seed=_resolve_seed(args),
            read_error_rate=args.read_error_rate,
            transition_fault_rate=args.transition_fault_rate)
    else:
        model = PerformanceModel()
    jobs = generate_trace(TraceConfig(total_nodes=args.nodes,
                                      job_count=args.jobs,
                                      seed=_resolve_seed(args)))
    conv = SystemSimulator(Cluster(args.nodes), EasyBackfillScheduler(),
                           CONVENTIONAL_MODEL).run(jobs)
    hdmr = SystemSimulator(
        Cluster(args.nodes),
        EasyBackfillScheduler(MarginAwareAllocationPolicy()),
        model).run(jobs)
    rows = []
    for name, r in (("conventional", conv), ("hetero-dmr", hdmr)):
        rows.append([name, r.mean_execution_s(), r.mean_queue_delay_s(),
                     r.mean_turnaround_s()])
    print(format_table(
        ["system", "mean exec s", "mean queue s", "mean turnaround s"],
        rows, title="system-wide simulation ({} nodes, {} jobs)".format(
            args.nodes, args.jobs)))
    print("turnaround speedup: {:.3f}x".format(
        conv.mean_turnaround_s() / hdmr.mean_turnaround_s()))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .analysis.reporting import format_kv
    from .perf.sweep import SweepConfig, SweepRunner
    config = SweepConfig(refs_per_core=args.refs, workers=args.workers,
                         fidelity=args.fidelity,
                         seeds=(_resolve_seed(args),))
    result = SweepRunner(config).run()
    if args.out:
        payload = {"sweep": "fig12_grid",
                   "refs_per_core": args.refs,
                   "fidelity": args.fidelity or "default",
                   "cells": result.deterministic_view()}
        if not _write_output("sweep", args.out, payload):
            return EXIT_IO_ERROR
    pairs = [
        ["cells", len(result.cells)],
        ["unique simulations", result.unique_simulations],
        ["fidelity", args.fidelity or "default"],
        ["workers used", "{}{}".format(
            result.workers_used,
            " ({})".format(result.cap_reason)
            if result.cap_reason else "")],
        ["wall s", "{:.3f}".format(result.wall_s)],
    ]
    if result.events_processed:
        pairs.append(["events/s", "{:.0f}".format(
            result.events_per_second)])
    if args.out:
        pairs.append(["records", args.out])
    print(format_kv("fig12 grid sweep", pairs))
    return EXIT_OK


def _cmd_fastmodel(args: argparse.Namespace) -> int:
    from .analysis.reporting import format_kv
    from .fastmodel import (CalibrationError, FastModelError,
                            cluster_sweep, run_calibration,
                            run_crosscheck)

    if args.fastmodel_command == "calibrate":
        from .fastmodel.calibration import GRID_REFS_PER_CORE
        suites = tuple(args.suites.split(",")) if args.suites else None
        progress = (lambda line: print(line)) if args.verbose else None
        try:
            calibration = run_calibration(
                suites=suites,
                refs_per_core=args.refs or GRID_REFS_PER_CORE,
                progress=progress, backend=args.backend)
        except (FastModelError, ValueError, KeyError) as exc:
            print("repro fastmodel: {}".format(exc), file=sys.stderr)
            return EXIT_DOMAIN_FAILURE
        try:
            path = calibration.save(args.out)
        except OSError as exc:
            print("repro fastmodel: cannot write artifact: {}".format(
                exc), file=sys.stderr)
            return EXIT_IO_ERROR
        worst = max(calibration.fit_errors.values()) \
            if calibration.fit_errors else 0.0
        print(format_kv("fastmodel calibrate", [
            ["cells", len(calibration.cells)],
            ["backend", calibration.backend],
            ["refs per core", calibration.refs_per_core],
            ["worst fit error", "{:.5f}".format(worst)],
            ["artifact", str(path)],
        ]))
        return EXIT_OK

    if args.fastmodel_command == "check":
        suites = tuple(args.suites.split(",")) if args.suites else None
        try:
            report = run_crosscheck(suites=suites)
        except (CalibrationError, FastModelError, ValueError) as exc:
            print("repro fastmodel: {}".format(exc), file=sys.stderr)
            return EXIT_DOMAIN_FAILURE
        if args.out and not _write_output("fastmodel", args.out, report):
            return EXIT_IO_ERROR
        pairs = []
        for hier, d in sorted(report["hierarchies"].items()):
            pairs.append(["{} rankings".format(hier),
                          "match" if d["rankings_match"]
                          else "INVERTED"])
            pairs.append(["{} worst |error|".format(hier),
                          "{:.6f} ({})".format(d["worst_abs_error"],
                                               d["worst_bar"])])
        pairs.append(["tolerance", report["tolerance"]])
        pairs.append(["passed", report["passed"]])
        if args.out:
            pairs.append(["report", args.out])
        print(format_kv("fastmodel fig12 cross-check", pairs))
        return EXIT_OK if report["passed"] else EXIT_DOMAIN_FAILURE

    # cluster
    try:
        report = cluster_sweep(total_nodes=args.nodes,
                               job_count=args.jobs,
                               seed=_resolve_seed(args))
    except (CalibrationError, FastModelError) as exc:
        print("repro fastmodel: {}".format(exc), file=sys.stderr)
        return EXIT_DOMAIN_FAILURE
    if args.out and not _write_output("fastmodel", args.out, report):
        return EXIT_IO_ERROR
    print(format_kv("fastmodel cluster sweep", [
        ["nodes", report["total_nodes"]],
        ["jobs", report["job_count"]],
        ["mean turnaround improvement", "{:.4f}x".format(
            report["mean_turnaround_improvement"])],
        ["conventional turnaround s", report["conventional"]
         ["mean_turnaround_s"]],
        ["hetero-dmr turnaround s", report["hetero_dmr"]
         ["mean_turnaround_s"]],
        ["wall s", "{:.2f}".format(report["wall_s"])],
    ]))
    return EXIT_OK


def _cmd_backend(args: argparse.Namespace) -> int:
    from .analysis.reporting import format_kv
    from .characterization.crosstech import (characterize_backend,
                                             compare_backends)

    if args.backend_command == "characterize":
        try:
            report = characterize_backend(args.backend,
                                          trials=args.trials,
                                          seed=_resolve_seed(args))
        except ValueError as exc:
            print("repro backend: {}".format(exc), file=sys.stderr)
            return EXIT_DOMAIN_FAILURE
        if args.out and not _write_output("backend", args.out, report):
            return EXIT_IO_ERROR
        pairs = [
            ["backend", report["backend"]],
            ["spec data rate MT/s", report["spec_data_rate_mts"]],
            ["margin buckets", ", ".join(
                str(m) for m in report["margin_buckets"])],
        ]
        for bucket, frac in report["node_group_fractions"].items():
            pairs.append(["nodes @ {} MT/s".format(bucket),
                          "{:.1%}".format(frac)])
        if args.out:
            pairs.append(["report", args.out])
        print(format_kv("backend characterization", pairs))
        return EXIT_OK

    # compare
    backends = tuple(b.strip() for b in args.backends.split(",")
                     if b.strip())
    try:
        report = compare_backends(backends=backends,
                                  refs_per_core=args.refs,
                                  trials=args.trials,
                                  total_nodes=args.nodes,
                                  job_count=args.jobs,
                                  seed=_resolve_seed(args))
    except ValueError as exc:
        print("repro backend: {}".format(exc), file=sys.stderr)
        return EXIT_DOMAIN_FAILURE
    if args.out and not _write_output("backend", args.out, report):
        return EXIT_IO_ERROR
    pairs = []
    for name, entry in report["backends"].items():
        pairs.append(["{} spec MT/s".format(name),
                      entry["spec_data_rate_mts"]])
        pairs.append(["{} turnaround improvement".format(name),
                      "{:.4f}x".format(
                          entry["system"]
                          ["mean_turnaround_improvement"])])
    for name, row in report["comparison"].items():
        pairs.append(["{} vs {} improvement delta".format(
            name, row["vs"]), "{:+.4f}".format(
                row["turnaround_improvement_delta"])])
    if args.out:
        pairs.append(["report", args.out])
    print(format_kv("cross-technology backend comparison", pairs))
    return EXIT_OK


def _cmd_chaos(args: argparse.Namespace) -> int:
    import dataclasses
    from .resilience import ChaosConfig, run_chaos_campaign
    base = ChaosConfig.smoke() if args.smoke else ChaosConfig()
    config = dataclasses.replace(base, seed=_resolve_seed(args))
    report = run_chaos_campaign(config)
    text = report.render()
    if args.report_file and not _write_output("chaos", args.report_file,
                                              text, what="report"):
        return EXIT_IO_ERROR   # distinct from exit 1 == campaign FAIL
    print(text, end="")
    return 0 if report.passed() else 1


def _cmd_adapt(args: argparse.Namespace) -> int:
    import dataclasses
    from .adaptive import MovingMarginConfig, run_moving_margin_campaign
    base = (MovingMarginConfig.smoke() if args.smoke
            else MovingMarginConfig())
    config = dataclasses.replace(base, seed=_resolve_seed(args),
                                 drift=args.drift,
                                 adaptive=not args.static)
    report = run_moving_margin_campaign(
        config,
        compare_static=not (args.static or args.no_baseline))
    text = report.render()
    if args.report_file and not _write_output("adapt", args.report_file,
                                              text, what="report"):
        return EXIT_IO_ERROR
    print(text, end="")
    return EXIT_OK if report.passed() else EXIT_DOMAIN_FAILURE


def _cmd_fleet(args: argparse.Namespace) -> int:
    from .fleet import (FleetConfig, FleetProfiler, MarginRegistry,
                        RegistryError)
    seed = _resolve_seed(args)

    if args.fleet_command == "profile":
        try:
            registry = MarginRegistry(args.registry)
        except (RegistryError, OSError) as exc:
            print("repro fleet: cannot open registry: {}".format(exc),
                  file=sys.stderr)
            return EXIT_IO_ERROR
        config = FleetConfig(nodes=args.nodes, seed=seed,
                             guard_band_mts=args.guard_band,
                             flaky_node_rate=args.flaky_rate,
                             workers=args.workers)
        try:
            summary = FleetProfiler(config, registry).run(
                resume=args.resume, crash_after=args.crash_after)
        except OSError as exc:
            print("repro fleet: registry write failed: {}".format(exc),
                  file=sys.stderr)
            return EXIT_IO_ERROR
        text = summary.render()
        if args.report_file and not _write_output(
                "fleet", args.report_file, text, what="report"):
            return EXIT_IO_ERROR
        print(text, end="")
        if registry.path is not None:
            print("registry: {}".format(registry.snapshot_path))
        return EXIT_OK if summary.succeeded else EXIT_DOMAIN_FAILURE

    try:
        registry = MarginRegistry(args.registry, create=False)
    except (RegistryError, OSError) as exc:
        print("repro fleet: cannot load registry: {}".format(exc),
              file=sys.stderr)
        return EXIT_IO_ERROR

    if args.fleet_command == "status":
        rows = [[rec.node,
                 rec.margin_mts if rec.margin_mts is not None else "-",
                 rec.effective_margin_mts, rec.margin_bucket,
                 "retired" if rec.retired else
                 ("demoted" if rec.demoted_margin_mts is not None
                  else "ok"),
                 rec.advisories]
                for rec in registry.nodes()]
        print(format_table(
            ["node", "profiled", "effective", "bucket", "state",
             "advisories"], rows,
            title="fleet registry ({} nodes, seq {})".format(
                len(registry), registry.last_seq)))
        buckets = ", ".join("{}: {}".format(k, v) for k, v in
                            registry.bucket_counts().items())
        print("bucket counts: {}".format(buckets or "(empty)"))
        return EXIT_OK if len(registry) else EXIT_DOMAIN_FAILURE

    # place
    try:
        widths = [int(w) for w in args.widths.split(",") if w.strip()]
    except ValueError:
        print("repro fleet: --widths must be comma-separated integers",
              file=sys.stderr)
        return EXIT_DOMAIN_FAILURE
    if not widths or any(w <= 0 for w in widths):
        print("repro fleet: --widths must be positive integers",
              file=sys.stderr)
        return EXIT_DOMAIN_FAILURE
    from .service import BucketPool
    pool = BucketPool()
    pool.fold(registry.nodes())
    rows = []
    for job, width in enumerate(widths):
        chosen = pool.select(width)
        if chosen is None:
            rows.append([job, width, "-", "UNPLACED"])
            continue
        pool.allocate(chosen, job)
        rows.append([job, width, ",".join(str(n) for n in chosen),
                     pool.bucket(chosen)])
    print(format_table(["job", "nodes", "assigned", "bucket"], rows,
                       title="fleet placement ({} jobs over {} nodes)"
                       .format(len(widths), len(registry))))
    print("placed {}/{} jobs".format(pool.outstanding, len(widths)))
    return (EXIT_OK if pool.outstanding == len(widths)
            else EXIT_DOMAIN_FAILURE)


def _cmd_recover(args: argparse.Namespace) -> int:
    from .analysis.reporting import format_kv
    from .fleet import MarginRegistry, RegistryError
    from .recovery import CheckpointStore, RecoveryManager

    if args.recover_command == "status":
        from pathlib import Path
        if not Path(args.store).is_dir():
            print("repro recover: no checkpoint store at {}"
                  .format(args.store), file=sys.stderr)
            return EXIT_IO_ERROR
        store = CheckpointStore(args.store)
        rows = []
        valid = 0
        for name, ckpt, status in store.entries():
            if ckpt is not None:
                valid += 1
                rows.append([name, ckpt.node, ckpt.seq,
                             "{:.3f}".format(ckpt.time_ns / 1e9),
                             ",".join(sorted(ckpt.state)) or "-",
                             status])
            else:
                rows.append([name, "-", "-", "-", "-", status])
        print(format_table(
            ["checkpoint", "node", "seq", "time s", "sections",
             "status"], rows,
            title="checkpoint store {} ({} valid of {})".format(
                args.store, valid, len(rows))))
        return EXIT_OK if valid else EXIT_DOMAIN_FAILURE

    try:
        registry = MarginRegistry(args.registry, create=False)
    except (RegistryError, OSError) as exc:
        print("repro recover: cannot load registry: {}".format(exc),
              file=sys.stderr)
        return EXIT_IO_ERROR

    if args.recover_command == "checkpoint":
        if not registry.has_node(args.node):
            print("repro recover: node {} unknown to the registry"
                  .format(args.node), file=sys.stderr)
            return EXIT_DOMAIN_FAILURE
        record = registry.node(args.node)
        store = CheckpointStore(args.store)
        manager = RecoveryManager(store, registry, node=args.node)
        try:
            ckpt = manager.checkpoint_state(
                {"node_record": record.to_dict()}, now_ns=0.0)
        except OSError as exc:
            print("repro recover: checkpoint write failed: {}"
                  .format(exc), file=sys.stderr)
            return EXIT_IO_ERROR
        print(format_kv("recover checkpoint", [
            ["node", args.node], ["seq", ckpt.seq],
            ["store", args.store],
            ["effective margin MT/s", record.effective_margin_mts]]))
        return EXIT_OK

    # restore
    try:
        repaired = registry.repair_log()
        registry.write_snapshot()
    except (RegistryError, OSError) as exc:
        print("repro recover: registry repair failed: {}".format(exc),
              file=sys.stderr)
        return EXIT_IO_ERROR
    pairs = [["registry", str(args.registry)],
             ["torn log bytes dropped", repaired],
             ["events replayed into snapshot", registry.last_seq],
             ["nodes", len(registry)]]
    restorable = len(registry) > 0
    if args.store is not None:
        store = CheckpointStore(args.store)
        manager = RecoveryManager(store, registry, node=args.node)
        recovered = manager.recover()
        rung = recovered.durable_rung()
        pairs += [["node", args.node],
                  ["checkpoint seq", recovered.checkpoint_seq],
                  ["corrupt checkpoints skipped", recovered.fallbacks],
                  ["wal events replayed", recovered.replayed_events],
                  ["durable rung",
                   rung.name if rung is not None else "-"]]
        restorable = recovered.checkpoint is not None or \
            registry.has_node(args.node)
    print(format_kv("recover restore", pairs))
    return EXIT_OK if restorable else EXIT_DOMAIN_FAILURE


def _cmd_perf(args: argparse.Namespace) -> int:
    from .analysis.reporting import format_kv

    if args.perf_command == "bench":
        from .perf import run_perf_bench
        # Unlike the other subcommands the bench defaults to the grid
        # seed the baseline was recorded with, not DEFAULT_SEED, so an
        # argument-less run stays comparable to the committed baseline.
        seed = getattr(args, "sub_seed", None)
        if seed is None:
            seed = args.seed
        report = run_perf_bench(
            refs_per_core=args.refs, workers=args.workers,
            fidelity=args.fidelity,
            baseline_path=args.baseline, seed=seed,
            include_reference=not args.no_reference,
            include_fastmodel=args.fastmodel,
            fastmodel_cycle=not args.fastmodel_no_cycle)
        try:
            path = report.write(args.out)
        except OSError as exc:
            print("repro perf: cannot write report: {}".format(exc),
                  file=sys.stderr)
            return EXIT_IO_ERROR
        pairs = [
            ["cells", report.n_cells],
            ["unique simulations", report.unique_simulations],
            ["workers (requested/used)", "{}/{}{}".format(
                report.workers_requested, report.workers_used,
                " ({})".format(report.cap_reason)
                if report.cap_reason else "")],
            ["cpu capacity", report.cpu_capacity],
            ["fast wall s", "{:.2f}".format(report.fast_wall_s)],
            ["events/s", "{:.0f}".format(report.events_per_second)],
        ]
        if report.speedup_vs_reference is not None:
            pairs.append(["speedup vs serial reference", "{:.2f}x"
                          .format(report.speedup_vs_reference)])
        if report.speedup_vs_baseline is not None:
            pairs.append(["speedup vs recorded baseline", "{:.2f}x"
                          .format(report.speedup_vs_baseline)])
        if report.fastmodel:
            fm = report.fastmodel
            pairs.append(["fastmodel crosscheck",
                          "pass" if fm["crosscheck_passed"]
                          else "FAIL"])
            if "fast_speedup_vs_cycle" in fm:
                pairs.append(["fastmodel speedup vs cycle", "{:.0f}x"
                              .format(fm["fast_speedup_vs_cycle"])])
            pairs.append(["fastmodel 10k-node wall s", "{:.2f}"
                          .format(fm["cluster_wall_s"])])
        pairs.append(["report", str(path)])
        pairs.append(["regressed", report.regressed])
        print(format_kv("perf bench (fig12 sweep)", pairs))
        return EXIT_DOMAIN_FAILURE if report.regressed else EXIT_OK

    # profile
    import cProfile
    import pstats
    from .cache.hierarchy import HIERARCHIES
    from .sim import NodeConfig, simulate_node
    config = NodeConfig(
        suite=args.suite, hierarchy=HIERARCHIES[args.hierarchy](),
        design=args.design, refs_per_core=args.refs,
        memory_utilization=args.utilization,
        seed=_resolve_seed(args))
    profiler = cProfile.Profile()
    profiler.enable()
    simulate_node(config)
    profiler.disable()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    try:
        stats.sort_stats("cumulative").print_stats(args.top)
    except BrokenPipeError:    # e.g. piped into head
        pass
    return EXIT_OK


def _obs_run_scenario(name: str, seed: int, recorder) -> bool:
    """Run one instrumented scenario under ``recorder``; returns the
    domain verdict (``False`` means the scenario itself FAILed)."""
    from .obs import recording
    with recording(recorder):
        if name == "node":
            from .cache.hierarchy import HIERARCHIES
            from .sim import NodeConfig, simulate_node
            # Two operating points so the trace exercises both event
            # families: low utilization speeds the channel up
            # (frequency transitions), higher utilization queues
            # enough writes to batch (write-mode spans).
            for suite, util in (("linpack", 0.2), ("lulesh", 0.5)):
                simulate_node(NodeConfig(
                    suite=suite,
                    hierarchy=HIERARCHIES["Hierarchy1"](),
                    design="hetero-dmr+fmr", refs_per_core=2000,
                    memory_utilization=util, seed=seed))
            return True
        if name == "adapt-smoke":
            import dataclasses
            from .adaptive import MovingMarginCampaign, MovingMarginConfig
            config = dataclasses.replace(MovingMarginConfig.smoke(),
                                         seed=seed)
            return MovingMarginCampaign(config).run().passed()
        # chaos-smoke
        import dataclasses
        from .resilience import ChaosConfig, run_chaos_campaign
        config = dataclasses.replace(ChaosConfig.smoke(), seed=seed)
        return run_chaos_campaign(config).passed()


def _obs_summarize(events: List[dict]) -> str:
    """Per-(subsystem, event) counts and time spans for a trace."""
    from .analysis.reporting import format_kv
    spans: dict = {}
    for ev in events:
        key = (str(ev["subsystem"]), str(ev["event"]))
        t = float(ev["t_ns"])
        count, first, last = spans.get(key, (0, t, t))
        spans[key] = (count + 1, min(first, t), max(last, t))
    rows = [[sub, name, count, "{:.0f}".format(first),
             "{:.0f}".format(last)]
            for (sub, name), (count, first, last) in sorted(spans.items())]
    out = format_table(
        ["subsystem", "event", "count", "first t_ns", "last t_ns"],
        rows, title="trace summary ({} events)".format(len(events)))
    out += "\n" + format_kv("totals", [
        ["events", len(events)],
        ["series", len(spans)]])
    return out


def _cmd_obs(args: argparse.Namespace) -> int:
    from .analysis.reporting import format_kv
    from .obs import (JsonlTraceSink, MemoryTraceSink, Recorder,
                      read_trace, to_json, to_prometheus)
    seed = _resolve_seed(args)

    if args.obs_command == "trace":
        try:
            sink = JsonlTraceSink(args.out)
        except OSError as exc:
            print("repro obs: cannot open trace file: {}".format(exc),
                  file=sys.stderr)
            return EXIT_IO_ERROR
        try:
            ok = _obs_run_scenario(args.scenario, seed,
                                   Recorder(trace=sink))
        finally:
            sink.close()
        print(format_kv("obs trace", [
            ["scenario", args.scenario], ["seed", seed],
            ["trace", args.out], ["events", sink.events_emitted],
            ["scenario passed", ok]]))
        return EXIT_OK if ok and sink.events_emitted \
            else EXIT_DOMAIN_FAILURE

    if args.obs_command == "export":
        recorder = Recorder()
        ok = _obs_run_scenario(args.scenario, seed, recorder)
        text = to_prometheus(recorder.snapshot()) \
            if args.format == "prometheus" \
            else to_json(recorder.snapshot())
        if args.out:
            if not _write_output("obs", args.out, text, what="metrics"):
                return EXIT_IO_ERROR
            print("metrics: {}".format(args.out))
        else:
            print(text, end="")
        return EXIT_OK if ok else EXIT_DOMAIN_FAILURE

    # summary
    if args.trace_file is not None:
        try:
            events = read_trace(args.trace_file)
        except OSError as exc:
            print("repro obs: cannot read trace: {}".format(exc),
                  file=sys.stderr)
            return EXIT_IO_ERROR
        except ValueError as exc:
            print("repro obs: {}".format(exc), file=sys.stderr)
            return EXIT_IO_ERROR
    elif args.scenario is not None:
        sink = MemoryTraceSink()
        _obs_run_scenario(args.scenario, seed, Recorder(trace=sink))
        events = sink.events
    else:
        print("repro obs: summary needs --trace-file or --scenario",
              file=sys.stderr)
        return EXIT_DOMAIN_FAILURE
    try:
        print(_obs_summarize(events))
    except BrokenPipeError:    # e.g. piped into head
        pass
    return EXIT_OK if events else EXIT_DOMAIN_FAILURE


class _ServeRequests:
    """The JSONL request stream of ``repro serve``, parsed lazily into
    daemon messages.  Iterating yields ``(lineno, message)``; a line
    that does not parse, or that a consumer passes to :meth:`reject`,
    is reported on stderr and counted in ``bad``."""

    def __init__(self, lines: List[str]):
        self.lines = lines
        self.bad = 0

    def __iter__(self):
        for lineno, line in enumerate(self.lines, 1):
            if not line.strip():
                continue
            try:
                message = self._parse(json.loads(line))
            except (KeyError, TypeError, ValueError) as exc:
                self.reject(lineno, exc)
                continue
            yield lineno, message

    def reject(self, lineno: int, exc: Exception) -> None:
        print("repro serve: bad request line {}: {}".format(lineno, exc),
              file=sys.stderr)
        self.bad += 1

    @staticmethod
    def _parse(doc: dict):
        from .fleet.registry import EVENT_KINDS
        from .service import (ClockTick, PlaceRequest, RegistryWrite,
                              ReleaseRequest)
        op = doc["op"]
        if op == "place":
            deadline = doc.get("deadline_s")
            request = PlaceRequest(
                int(doc["job"]), int(doc.get("nodes", 1)),
                float(deadline) if deadline is not None else None)
            if request.nodes_requested <= 0:
                raise ValueError("jobs need at least one node")
            return request
        if op == "release":
            return ReleaseRequest(int(doc["job"]))
        if op == "write":
            write = RegistryWrite(str(doc["kind"]), int(doc["node"]),
                                  dict(doc.get("payload", {})))
            if write.kind not in EVENT_KINDS:
                raise ValueError("unknown event kind {!r}"
                                 .format(write.kind))
            return write
        if op == "tick":
            return ClockTick(float(doc["now_s"]))
        raise ValueError("unknown op {!r}".format(op))


def _open_serve_io(args: argparse.Namespace):
    """Read ``--requests`` (or stdin) and open ``--out``.  Returns
    ``(requests, out_fh)`` (``out_fh`` None for stdout), or None after
    printing the error (callers exit with :data:`EXIT_IO_ERROR`)."""
    try:
        if args.requests is not None:
            with open(args.requests) as fh:
                lines = fh.readlines()
        else:
            lines = sys.stdin.readlines()
    except OSError as exc:
        print("repro serve: cannot read requests: {}".format(exc),
              file=sys.stderr)
        return None
    out_fh = None
    if args.out is not None:
        try:
            out_fh = open(args.out, "w")
        except OSError as exc:
            print("repro serve: cannot open output: {}".format(exc),
                  file=sys.stderr)
            return None
    return _ServeRequests(lines), out_fh


def _cmd_serve_ha(args: argparse.Namespace, seed: int) -> int:
    """``repro serve --daemons N``: the HA control plane answers the
    same JSONL request stream from N lease-holding daemons."""
    from .fleet.registry import RegistryError
    from .service import (HAConfig, HAControlPlane, PlaceRequest,
                          RegistryWrite, ReleaseRequest)
    from .service.sharding import DEFAULT_SHARDS
    if args.registry is not None:
        print("repro serve: --registry is not supported with "
              "--daemons > 1 (the HA plane seeds its own fleet)",
              file=sys.stderr)
        return EXIT_IO_ERROR
    config = HAConfig(nodes=args.nodes,
                      shards=(args.shards if args.shards is not None
                              else DEFAULT_SHARDS),
                      daemons=args.daemons, seed=seed)
    opened = _open_serve_io(args)
    if opened is None:
        return EXIT_IO_ERROR
    requests, out_fh = opened
    stream = out_fh if out_fh is not None else sys.stdout
    plane = HAControlPlane(
        config, decision_sink=lambda d: stream.write(d.to_json()
                                                     + "\n"))
    try:
        for lineno, msg in requests:
            try:
                if isinstance(msg, PlaceRequest):
                    plane.submit_place(msg.job_id, msg.nodes_requested)
                elif isinstance(msg, ReleaseRequest):
                    plane.submit_release(msg.job_id)
                elif isinstance(msg, RegistryWrite):
                    plane.submit_write(msg)
                else:
                    plane.tick(msg.now_s)
            except (KeyError, TypeError, ValueError) as exc:
                requests.reject(lineno, exc)
        guard = 0
        while plane.pending and guard < 100_000:
            plane.tick(plane.now_s + 0.25)
            guard += 1
        plane.stop()
    except RegistryError as exc:
        print("repro serve: registry write failed: {}".format(exc),
              file=sys.stderr)
        return EXIT_DOMAIN_FAILURE
    finally:
        if out_fh is not None:
            out_fh.close()
    stats = plane.stats
    print("repro serve: {} daemons, {} decisions (placed {}, "
          "unsatisfiable {}, released {}), {} writes, {} failovers, "
          "{} fenced writes".format(
              args.daemons, stats.decisions, stats.placed,
              stats.unsatisfiable, stats.released, stats.writes,
              plane.failover.failovers,
              plane.table.stats.fenced_writes),
          file=sys.stderr)
    return EXIT_DOMAIN_FAILURE if requests.bad else EXIT_OK


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    from .fleet.registry import RegistryError
    from .hpc.cluster import Cluster
    from .service import (DaemonConfig, PlaceRequest, PlacementDaemon,
                          RegistryWrite, ReleaseRequest,
                          ShardedRegistry)
    seed = _resolve_seed(args)
    if args.daemons > 1:
        return _cmd_serve_ha(args, seed)
    try:
        if args.registry is not None:
            registry = ShardedRegistry(args.registry, create=False)
        else:
            registry = ShardedRegistry(shards=args.shards)
            for node in Cluster(args.nodes, seed=seed).nodes:
                registry.record_profile(node.index, node.margin_mts)
    except (RegistryError, OSError) as exc:
        print("repro serve: cannot open registry: {}".format(exc),
              file=sys.stderr)
        return EXIT_IO_ERROR
    opened = _open_serve_io(args)
    if opened is None:
        return EXIT_IO_ERROR
    requests, out_fh = opened
    stream = out_fh if out_fh is not None else sys.stdout
    config = DaemonConfig(
        queue_limit=args.queue_limit,
        event_queue_limit=max(4096, 2 * args.queue_limit))
    daemon = PlacementDaemon(
        registry, config,
        decision_sink=lambda d: stream.write(d.to_json() + "\n"))

    async def run_requests() -> None:
        async with daemon:
            futures = []
            for _, msg in requests:
                if isinstance(msg, PlaceRequest):
                    futures.append(daemon.submit(msg))
                elif isinstance(msg, ReleaseRequest):
                    futures.append(await daemon.submit_release(msg))
                elif isinstance(msg, RegistryWrite):
                    await daemon.submit_write(msg)
                else:
                    await daemon.submit_tick(msg.now_s)
            if futures:
                await asyncio.gather(*futures)

    try:
        asyncio.run(run_requests())
    finally:
        if out_fh is not None:
            out_fh.close()
    stats = daemon.stats
    print("repro serve: {} decisions (placed {}, shed {}, expired {}, "
          "released {}), {} writes, queue peak {}".format(
              stats.decisions, stats.placed, stats.shed, stats.expired,
              stats.released, stats.writes, stats.queue_peak),
          file=sys.stderr)
    return EXIT_DOMAIN_FAILURE if requests.bad else EXIT_OK


def _run_soak(args: argparse.Namespace, config, prefix: str,
              overrides: List[tuple], stream_paths: List[Optional[str]],
              run):
    """Shared ``repro soak`` plumbing: apply the seed and every given
    ``(field, value)`` override to ``config``, point it at
    ``--registry`` (or a temp dir named ``prefix*``, removed
    afterwards), open the decision streams at ``stream_paths`` and call
    ``run(config, *streams)``.  Returns its result, or None after
    printing why a stream could not be opened."""
    import dataclasses
    import tempfile
    changes = {attr: value for attr, value in overrides
               if value is not None}
    tempdir = None
    registry_dir = args.registry
    if registry_dir is None:
        tempdir = tempfile.TemporaryDirectory(prefix=prefix)
        registry_dir = tempdir.name
    config = dataclasses.replace(config, registry_dir=registry_dir,
                                 seed=_resolve_seed(args), **changes)
    streams: List[Optional[object]] = []
    try:
        try:
            for path in stream_paths:
                streams.append(None if path is None else open(path, "w"))
        except OSError as exc:
            print("repro soak: cannot open decision log: {}"
                  .format(exc), file=sys.stderr)
            return None
        return run(config, *streams)
    finally:
        for fh in streams:
            if fh is not None:
                fh.close()
        if tempdir is not None:
            tempdir.cleanup()


def _cmd_soak_failover(args: argparse.Namespace) -> int:
    """``repro soak --failover``: the HA failover drill — seeded
    faults against N daemons, decision stream compared against a
    never-crashed single-daemon reference."""
    from .service import HAConfig, HAFailoverDrill
    result = _run_soak(
        args, HAConfig.smoke() if args.smoke else HAConfig(),
        "repro-ha-",
        [("events", args.events), ("nodes", args.nodes),
         ("shards", args.shards), ("daemons", args.daemons),
         ("p999_budget_s", args.p999_budget),
         ("compact_every", args.compact_every)],
        [args.decisions, args.reference_decisions],
        lambda config, stream, ref_stream: HAFailoverDrill(config).run(
            stream=stream, reference_stream=ref_stream))
    if result is None:
        return EXIT_IO_ERROR
    if args.report_file is not None and not _write_output(
            "soak", args.report_file, result.report.render(),
            what="report"):
        return EXIT_IO_ERROR
    print(result.format_summary())
    return EXIT_OK if result.passed() else EXIT_DOMAIN_FAILURE


def _cmd_soak(args: argparse.Namespace) -> int:
    from .service import SoakConfig, SoakScenario
    if args.failover:
        return _cmd_soak_failover(args)
    report = _run_soak(
        args, SoakConfig.smoke() if args.smoke else SoakConfig(),
        "repro-soak-",
        [("verify", not args.no_verify), ("events", args.events),
         ("nodes", args.nodes), ("shards", args.shards),
         ("queue_limit", args.queue_limit),
         ("p999_budget_s", args.p999_budget),
         ("compact_every", args.compact_every)],
        [args.decisions],
        lambda config, stream: SoakScenario(config).run(stream=stream))
    if report is None:
        return EXIT_IO_ERROR
    if args.report_file is not None and not _write_output(
            "soak", args.report_file, report.to_dict(), what="report"):
        return EXIT_IO_ERROR
    print(report.format_report())
    return EXIT_OK if report.passed() else EXIT_DOMAIN_FAILURE


def _cmd_suites(args: argparse.Namespace) -> int:
    from .workloads import PROFILES
    rows = [[p.name, p.footprint_bytes >> 20, p.stream_fraction,
             p.write_fraction, p.dependent_fraction, p.mpi_fraction,
             p.description]
            for p in PROFILES.values()]
    print(format_table(
        ["suite", "MB", "stream", "writes", "dependent", "MPI",
         "description"], rows, title="workload suites"))
    return 0


def _positive_int(text: str) -> int:
    """argparse type for a count that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            "must be a positive integer, got {}".format(value))
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of the ISCA'21 memory frequency "
                    "margin / Hetero-DMR paper")
    parser.add_argument("--seed", type=int, default=None,
                        help="global RNG seed (default {}); a "
                             "subcommand-level --seed overrides it"
                        .format(DEFAULT_SEED))
    sub = parser.add_subparsers(dest="command", required=True)

    # Every subcommand also takes --seed, so both `repro --seed 7 hpc`
    # and `repro hpc --seed 7` work.  The subcommand's value lands in
    # a separate dest because argparse would otherwise overwrite the
    # already-parsed global value with the subparser default.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", dest="sub_seed", type=int,
                        default=None,
                        help="RNG seed (overrides the global --seed)")

    sub.add_parser("characterize", parents=[common],
                   help="run the Section II margin characterization")

    mc = sub.add_parser("montecarlo", parents=[common],
                        help="Figure 11 margin Monte Carlo")
    mc.add_argument("--trials", type=int, default=20000)

    sub.add_parser("settings", parents=[common],
                   help="print the Table II settings")

    node = sub.add_parser("node", parents=[common],
                          help="simulate one node, four designs")
    node.add_argument("--suite", default="linpack")
    node.add_argument("--hierarchy", default="Hierarchy1",
                      choices=("Hierarchy1", "Hierarchy2"))
    node.add_argument("--margin", type=int, default=800)
    node.add_argument("--utilization", type=float, default=0.2)
    node.add_argument("--refs", type=_positive_int, default=3000)
    node.add_argument("--fidelity", default=None,
                      choices=("cycle", "fast"),
                      help="model tier (default: REPRO_FIDELITY or "
                           "cycle)")

    hpc = sub.add_parser("hpc", parents=[common],
                         help="system-wide Slurm-style simulation")
    hpc.add_argument("--nodes", type=int, default=256)
    hpc.add_argument("--jobs", type=int, default=3000)
    hpc.add_argument("--fidelity", default="cycle",
                     choices=("cycle", "fast"),
                     help="node-speedup model: transcribed Figure 12 "
                          "defaults (cycle) or the calibrated fast "
                          "tier's predictions (fast)")
    hpc.add_argument("--read-error-rate", type=float, default=0.0,
                     help="margin-read error rate for a degraded "
                          "fleet; derives the node-speedup model from "
                          "cycle simulations honoring the faults "
                          "(refused under --fidelity fast)")
    hpc.add_argument("--transition-fault-rate", type=float,
                     default=0.0,
                     help="frequency-transition fault rate for a "
                          "degraded fleet (refused under --fidelity "
                          "fast)")
    hpc.add_argument("--model-refs", type=int, default=300,
                     help="trace references per core for the "
                          "fault-aware model derivation")

    sweep = sub.add_parser(
        "sweep", parents=[common],
        help="run the Figure 12 grid sweep at either fidelity tier")
    sweep.add_argument("--refs", type=_positive_int, default=3000,
                       help="trace references per core and cell")
    sweep.add_argument("--workers", type=int, default=0,
                       help="worker processes for cycle cells "
                            "(<=1 serial; fast cells never fan out)")
    sweep.add_argument("--fidelity", default=None,
                       choices=("cycle", "fast"),
                       help="model tier (default: REPRO_FIDELITY or "
                            "cycle)")
    sweep.add_argument("--out", default=None,
                       help="write per-cell records (deterministic "
                            "view) to this JSON file")

    fastmodel = sub.add_parser(
        "fastmodel", help="fast fidelity tier: calibrate the "
                          "closed-form model, cross-check it against "
                          "the cycle engine, run 10k-node sweeps")
    fsub = fastmodel.add_subparsers(dest="fastmodel_command",
                                    required=True)
    fcal = fsub.add_parser(
        "calibrate", parents=[common],
        help="run the cycle engine over the fig12 effective-cell grid "
             "and fit the closed-form model (writes the versioned "
             "calibration artifact)")
    fcal.add_argument("--refs", type=_positive_int, default=None,
                      help="trace references per core (default: the "
                           "committed grid length)")
    fcal.add_argument("--suites", default=None,
                      help="comma-separated suite subset (default: "
                           "all suites)")
    fcal.add_argument("--out", default=None,
                      help="artifact path (default "
                           "benchmarks/perf/fastmodel_calibration"
                           ".json)")
    fcal.add_argument("--verbose", action="store_true",
                      help="print each calibrated cell")
    fcal.add_argument("--backend", default=None,
                      choices=("ddr4", "mrdimm"),
                      help="memory-technology backend to calibrate "
                           "(default: REPRO_BACKEND or ddr4)")
    fcheck = fsub.add_parser(
        "check", parents=[common],
        help="fig12 cycle-vs-fast cross-check: rankings + weighted "
             "speedups within tolerance (exit 1 on failure); the "
             "report is deterministic, so two runs diff clean")
    fcheck.add_argument("--suites", default=None,
                        help="comma-separated suite subset")
    fcheck.add_argument("--out", default=None,
                        help="write the report JSON here")
    fcluster = fsub.add_parser(
        "cluster", parents=[common],
        help="10k-node system sweep with the calibrated performance "
             "model")
    fcluster.add_argument("--nodes", type=int, default=10000)
    fcluster.add_argument("--jobs", type=int, default=2000)
    fcluster.add_argument("--out", default=None,
                          help="write the report JSON here")

    backend = sub.add_parser(
        "backend", help="memory-technology backends: per-backend "
                        "characterization and the cross-technology "
                        "comparison artifact")
    bsub = backend.add_subparsers(dest="backend_command",
                                  required=True)
    bchar = bsub.add_parser(
        "characterize", parents=[common],
        help="seeded margin Monte Carlo for one backend, bucketed "
             "into its own scheduler classes")
    bchar.add_argument("--backend", default=None,
                       choices=("ddr4", "mrdimm"),
                       help="memory-technology backend (default: "
                            "REPRO_BACKEND or ddr4)")
    bchar.add_argument("--trials", type=int, default=4000)
    bchar.add_argument("--out", default=None,
                       help="write the report JSON here")
    bcomp = bsub.add_parser(
        "compare", parents=[common],
        help="cross-technology study: characterization + cycle-"
             "measured node speedups + margin-aware placement per "
             "backend, one deterministic artifact")
    bcomp.add_argument("--backends", default="ddr4,mrdimm",
                       help="comma-separated backend list (first is "
                            "the comparison baseline)")
    bcomp.add_argument("--refs", type=_positive_int, default=1500,
                       help="trace references per core for the cycle "
                            "speedup measurements")
    bcomp.add_argument("--trials", type=int, default=4000,
                       help="Monte Carlo trials per backend")
    bcomp.add_argument("--nodes", type=int, default=200,
                       help="cluster size for the placement phase")
    bcomp.add_argument("--jobs", type=int, default=400,
                       help="job-trace length for the placement phase")
    bcomp.add_argument("--out", default=None,
                       help="write the comparison artifact here")

    chaos = sub.add_parser(
        "chaos", parents=[common],
        help="run the fault-injection chaos campaign and print "
             "the survivability report (exit 1 on FAIL)")
    chaos.add_argument("--smoke", action="store_true",
                       help="short CI-sized campaign (~1 simulated hour)")
    chaos.add_argument("--report-file", default=None,
                       help="also write the report to this path")

    adapt = sub.add_parser(
        "adapt", parents=[common],
        help="run the moving-margin campaign: environment drift + "
             "fault injection + crash drills under the adaptive "
             "margin controller (exit 1 on FAIL)")
    adapt.add_argument("--smoke", action="store_true",
                       help="short CI-sized campaign (~1 simulated hour)")
    adapt.add_argument("--drift", default="composite",
                       choices=("ramp", "diurnal", "aging", "composite"),
                       help="drift scenario moving the hidden true "
                            "margin (default composite)")
    adapt.add_argument("--static", action="store_true",
                       help="drive the static reactive controller "
                            "instead of the adaptive one (no baseline "
                            "comparison)")
    adapt.add_argument("--no-baseline", action="store_true",
                       help="skip the same-seed static baseline run "
                            "(halves the campaign time; the "
                            "beats-static check is then not enforced)")
    adapt.add_argument("--report-file", default=None,
                       help="also write the report to this path")

    fleet = sub.add_parser(
        "fleet", help="fleet margin registry: profile, status, place")
    fsub = fleet.add_subparsers(dest="fleet_command", required=True)
    profile = fsub.add_parser(
        "profile", parents=[common],
        help="profile a fleet into a registry (parallel, seeded)")
    profile.add_argument("--nodes", type=int, default=64)
    profile.add_argument("--registry", default=None,
                         help="registry directory (in-memory when "
                              "omitted)")
    profile.add_argument("--workers", type=int, default=0,
                         help="profiling worker processes (<=1 serial)")
    profile.add_argument("--guard-band", type=int, default=0,
                         help="guard band de-rating margins, MT/s")
    profile.add_argument("--flaky-rate", type=float, default=0.0,
                         help="fraction of nodes whose rig fails boots "
                              "(exercises bounded retry)")
    profile.add_argument("--report-file", default=None,
                         help="also write the summary to this path")
    profile.add_argument("--resume", action="store_true",
                         help="repair the event log and profile only "
                              "nodes the registry does not know yet")
    profile.add_argument("--crash-after", type=int, default=None,
                         help="recovery drill: SIGKILL this process "
                              "after N nodes, leaving a torn event "
                              "line (never returns)")
    status = fsub.add_parser(
        "status", parents=[common],
        help="print per-node registry state and bucket counts")
    status.add_argument("--registry", required=True,
                        help="existing registry directory")
    place = fsub.add_parser(
        "place", parents=[common],
        help="answer a batched placement query from the registry")
    place.add_argument("--registry", required=True,
                       help="existing registry directory")
    place.add_argument("--widths", default="8,4,4,2,1",
                       help="comma-separated node counts, one job per "
                            "entry")

    recover = sub.add_parser(
        "recover", help="crash recovery: checkpoint store inventory, "
                        "bootstrap checkpoints, registry repair")
    rsub = recover.add_subparsers(dest="recover_command", required=True)
    rstatus = rsub.add_parser(
        "status", parents=[common],
        help="list a checkpoint store's entries and their validity")
    rstatus.add_argument("--store", required=True,
                         help="checkpoint store directory")
    rcheckpoint = rsub.add_parser(
        "checkpoint", parents=[common],
        help="write a bootstrap checkpoint pinning a node to the "
             "registry's current sequence number")
    rcheckpoint.add_argument("--store", required=True,
                             help="checkpoint store directory")
    rcheckpoint.add_argument("--registry", required=True,
                             help="existing registry directory")
    rcheckpoint.add_argument("--node", type=int, default=0)
    rrestore = rsub.add_parser(
        "restore", parents=[common],
        help="repair a crashed registry (drop any torn event line, "
             "rewrite the snapshot) and, with --store, report the "
             "node state recovery would restore")
    rrestore.add_argument("--registry", required=True,
                          help="existing registry directory")
    rrestore.add_argument("--store", default=None,
                          help="checkpoint store directory (optional)")
    rrestore.add_argument("--node", type=int, default=0)

    perf = sub.add_parser(
        "perf", help="performance harness: sweep benchmark with "
                     "regression gate, cProfile of one node")
    psub = perf.add_subparsers(dest="perf_command", required=True)
    bench = psub.add_parser(
        "bench", parents=[common],
        help="time the Figure 12 sweep (fast path vs serial "
             "reference vs recorded baseline); writes "
             "BENCH_speedup.json; exit 1 when events/sec regresses "
             "more than 20%% below the baseline")
    bench.add_argument("--refs", type=_positive_int, default=120,
                       help="trace references per core and cell")
    bench.add_argument("--workers", type=int, default=8,
                       help="sweep worker processes (<=1 serial)")
    bench.add_argument("--out", default=None,
                       help="report path (default BENCH_speedup.json)")
    bench.add_argument("--baseline", default=None,
                       help="baseline file (default "
                            "benchmarks/perf/baseline.json)")
    bench.add_argument("--no-reference", action="store_true",
                       help="skip the serial no-dedup reference pass "
                            "(halves the bench time)")
    bench.add_argument("--fidelity", default=None,
                       choices=("cycle", "fast"),
                       help="tier for the main sweep (the regression "
                            "gate only applies at cycle fidelity)")
    bench.add_argument("--fastmodel", action="store_true",
                       help="add the cycle-vs-fast side-by-side "
                            "section (one full cycle sweep at the "
                            "calibration trace length — minutes)")
    bench.add_argument("--fastmodel-no-cycle", action="store_true",
                       help="with --fastmodel, skip the cycle timing "
                            "pass (cross-check and cluster timing "
                            "still run)")
    pprofile = psub.add_parser(
        "profile", parents=[common],
        help="cProfile one node simulation, print the top functions "
             "by cumulative time")
    pprofile.add_argument("--suite", default="linpack")
    pprofile.add_argument("--hierarchy", default="Hierarchy1",
                          choices=("Hierarchy1", "Hierarchy2"))
    pprofile.add_argument("--design", default="hetero-dmr")
    pprofile.add_argument("--utilization", type=float, default=0.2)
    pprofile.add_argument("--refs", type=_positive_int, default=3000)
    pprofile.add_argument("--top", type=int, default=25,
                          help="rows of profile output to print")

    obs = sub.add_parser(
        "obs", help="observability: deterministic lifecycle traces, "
                    "metrics exporters, trace summaries")
    osub = obs.add_subparsers(dest="obs_command", required=True)
    scenarios = ("adapt-smoke", "chaos-smoke", "node")
    otrace = osub.add_parser(
        "trace", parents=[common],
        help="run a seeded scenario with tracing on; the JSONL trace "
             "is byte-identical for the same scenario and seed")
    otrace.add_argument("--scenario", default="chaos-smoke",
                        choices=scenarios)
    otrace.add_argument("--out", default="obs-trace.jsonl",
                        help="trace file path")
    oexport = osub.add_parser(
        "export", parents=[common],
        help="run a seeded scenario and export its metrics snapshot")
    oexport.add_argument("--scenario", default="chaos-smoke",
                         choices=scenarios)
    oexport.add_argument("--format", default="prometheus",
                         choices=("prometheus", "json"))
    oexport.add_argument("--out", default=None,
                         help="metrics file (stdout when omitted)")
    osummary = osub.add_parser(
        "summary", parents=[common],
        help="per-event counts and time spans of a trace (from "
             "--trace-file, or traced live with --scenario)")
    osummary.add_argument("--trace-file", default=None,
                          help="existing JSONL trace to summarize")
    osummary.add_argument("--scenario", default=None,
                          choices=scenarios,
                          help="run this scenario instead of reading "
                               "a file")

    serve = sub.add_parser(
        "serve", parents=[common],
        help="run the placement daemon over a JSONL request stream "
             "(stdin or --requests), writing one decision line per "
             "placement/release")
    serve.add_argument("--registry", default=None,
                       help="existing sharded registry directory "
                            "(a seeded in-memory fleet when omitted)")
    serve.add_argument("--nodes", type=int, default=64,
                       help="in-memory fleet size when no --registry")
    serve.add_argument("--shards", type=int, default=None,
                       help="shard count for the in-memory fleet")
    serve.add_argument("--queue-limit", type=int, default=512,
                       help="placement admission watermark (requests "
                            "beyond it are shed, not queued)")
    serve.add_argument("--requests", default=None,
                       help="JSONL request file (stdin when omitted)")
    serve.add_argument("--out", default=None,
                       help="decision JSONL file (stdout when omitted)")
    serve.add_argument("--daemons", type=int, default=1,
                       help="run N placement daemons behind "
                            "shard-group leases with fencing tokens "
                            "(the HA control plane) instead of one "
                            "asyncio daemon")

    soak = sub.add_parser(
        "soak", parents=[common],
        help="seeded closed-loop soak of the placement daemon: mixed "
             "events, storms past the admission watermark, registry "
             "churn; exits 1 unless the SoakReport gate passes")
    soak.add_argument("--smoke", action="store_true",
                      help="CI-sized preset (~20k events, 200 nodes)")
    soak.add_argument("--events", type=int, default=None,
                      help="total submitted events (default 1000000; "
                           "smoke preset 20000)")
    soak.add_argument("--nodes", type=int, default=None,
                      help="fleet size (default 1490; smoke 200)")
    soak.add_argument("--shards", type=int, default=None,
                      help="registry shard count")
    soak.add_argument("--queue-limit", type=int, default=None,
                      help="placement admission watermark")
    soak.add_argument("--p999-budget", type=float, default=None,
                      help="p999 placement-latency budget, seconds")
    soak.add_argument("--compact-every", type=int, default=None,
                      help="auto-compact a shard after this many "
                           "appends (0 disables)")
    soak.add_argument("--registry", default=None,
                      help="registry directory (a temp dir, cleaned "
                           "up afterwards, when omitted)")
    soak.add_argument("--decisions", default=None,
                      help="write the full run's decision JSONL here")
    soak.add_argument("--report-file", default=None,
                      help="write the JSON SoakReport here")
    soak.add_argument("--no-verify", action="store_true",
                      help="skip the same-seed prefix-verification "
                           "pass")
    soak.add_argument("--failover", action="store_true",
                      help="run the HA failover drill instead: "
                           "SIGKILL mid-lease, clock-skewed renewal, "
                           "torn lease record, dual-owner partition; "
                           "decision stream must match a "
                           "never-crashed single-daemon run "
                           "(--report-file then holds the rendered "
                           "survivability report, byte-reproducible "
                           "per seed)")
    soak.add_argument("--daemons", type=int, default=None,
                      help="HA daemon count for --failover "
                           "(default 2)")
    soak.add_argument("--reference-decisions", default=None,
                      help="with --failover: write the single-daemon "
                           "reference decision JSONL here")

    sub.add_parser("suites", parents=[common],
                   help="list the workload suites")
    return parser


_HANDLERS = {
    "characterize": _cmd_characterize,
    "montecarlo": _cmd_montecarlo,
    "settings": _cmd_settings,
    "node": _cmd_node,
    "hpc": _cmd_hpc,
    "sweep": _cmd_sweep,
    "fastmodel": _cmd_fastmodel,
    "backend": _cmd_backend,
    "chaos": _cmd_chaos,
    "adapt": _cmd_adapt,
    "fleet": _cmd_fleet,
    "recover": _cmd_recover,
    "perf": _cmd_perf,
    "obs": _cmd_obs,
    "serve": _cmd_serve,
    "soak": _cmd_soak,
    "suites": _cmd_suites,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _HANDLERS[args.command](args)


if __name__ == "__main__":     # pragma: no cover
    sys.exit(main())
