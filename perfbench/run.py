"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cycle-hdmr --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
runs one untraced round, then the same round again with a span around
every layer boundary (see ``workloads.BOUNDARIES``), and prints the
per-layer ledger plus the tracing overhead.  Either way every operation's
output is checked: against the digests recorded in ``references.json``
for this seed when there are any, against the first round otherwise, and
the traced round against the untraced one.  The last line of standard
output is one JSON object; the exit code is 1 when any operation failed.

The benchmark runs on the program's defaults: it refuses to start when
any ``REPRO_*`` variable is set.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"
#: Set-ups measured per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
DEFAULT_SEED = 1

#: Every metric the benchmark prints, with its unit; the first group is
#: ``end_to_end`` in BENCHMARK.json, the rest ``per_layer``.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "sim_instr_per_s": "1/s", "sim_ipc": "instr/cycle",
    "fast_cells_per_s": "1/s", "cluster_jobs_per_s": "1/s",
    "soak_msgs_per_s": "1/s", "place_p50_ms": "ms", "place_p99_ms": "ms",
    "place_samples": "count",
    "trace_overhead": "ratio", "unwrapped_s": "s",
    "sim.build_self_s": "s", "sim.loop_self_s": "s", "sim.events": "count",
    "sim.us_per_event": "us",
    "workloads.trace_self_s": "s", "workloads.records": "count",
    "cpu.self_s": "s",
    "cache.warm_s": "s", "cache.access_calls": "count",
    "cache.access_self_s": "s", "cache.fill_self_s": "s",
    "cache.prefetch_self_s": "s", "cache.clean_calls": "count",
    "cache.llc_miss_rate": "ratio",
    "mem_ctrl.submit_calls": "count", "mem_ctrl.submit_self_s": "s",
    "mem_ctrl.pick_calls": "count", "mem_ctrl.pick_self_s": "s",
    "mem_ctrl.page_policy_per_pick": "ratio",
    "mem_ctrl.read_latency_ns": "ns",
    "mem_ctrl.write_mode_entries": "count",
    "core.read_rank_calls": "count", "core.read_rank_self_s": "s",
    "core.read_rank_per_pick": "ratio",
    "dram.access_calls": "count", "dram.access_self_s": "s",
    "dram.transitions": "count", "dram.row_hit_rate": "ratio",
    "dram.bus_utilization": "ratio",
    "fastmodel.calibration_load_s": "s", "fastmodel.sweep_self_s": "s",
    "fastmodel.cells": "count",
    "hpc.trace_gen_s": "s", "hpc.run_self_s": "s",
    "hpc.schedule_pass_calls": "count", "hpc.schedule_pass_self_s": "s",
    "hpc.select_calls": "count", "hpc.select_self_s": "s",
    "service.submit_calls": "count", "service.submit_self_s": "s",
    "service.shed": "count", "service.backpressure_waits": "count",
    "service.pool_select_self_s": "s",
    "service.registry_record_calls": "count",
    "service.registry_record_self_s": "s",
    "service.compact_self_s": "s", "service.snapshot_self_s": "s",
    "service.cache_hit_ratio": "ratio",
}


def refused_environment(environ) -> list:
    """``REPRO_*`` variables change the program's defaults (engine,
    fidelity, backend, batching, calibration, bench knobs)."""
    return sorted(k for k in environ if k.startswith("REPRO_"))


def host_controls() -> dict:
    """Host settings in effect.  The CPU governor is not read: the
    benchmark reads nothing outside its checkout."""
    return {"nproc": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0)),
            "governor": "not read",
            "python": platform.python_version()}


def parse_args(argv):
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print the ready time, exit")
    parser.add_argument("--record-references", action="store_true",
                        help="record this seed's output digests")
    return parser.parse_args(argv)


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def measure_setup(args, checks) -> Optional[float]:
    """Median time from process start to ready, over fresh processes;
    None when every probe failed."""
    def probe():
        start = time.monotonic()
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True)
        return float(out.stdout.split()[-1]) - start

    samples = []
    for i in range(SETUP_REPEATS):
        sample, _ = checks.run("setup {}".format(i + 1), probe)
        if sample is not None:
            samples.append(sample)
    return statistics.median(samples) if samples else None


def untraced_run(workload, args, checks, references) -> dict:
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        rnd = workload.round(checks, "round {}".format(len(rounds) + 1))
        workload.check_round(checks, rnd, references,
                             rounds[0] if rounds else None)
        print("{}: {}".format(rnd.name, "  ".join(
            "{} {:.3f}s".format(k, v) for k, v in rnd.seconds.items())),
            flush=True)
        rounds.append(rnd)
    print("rounds: {} (end-to-end times are means over rounds)"
          .format(len(rounds)))
    return workload.end_to_end(rounds)


def traced_run(workload, args, checks, references) -> dict:
    from tracer import Tracer, installed
    from workloads import BOUNDARIES, span_metrics
    untraced = workload.round(checks, "untraced round")
    workload.check_round(checks, untraced, references)
    tracer = Tracer()
    with installed(tracer, BOUNDARIES) as missing:
        traced = workload.round(checks, "traced round")
    # Tracing must not perturb results: traced digests equal untraced.
    workload.check_round(checks, traced, references, untraced)
    layers = dict.fromkeys(PER_LAYER, 0)
    layers.update(span_metrics(tracer))
    layers.update(workload.ledger(traced, untraced))
    layers.update({k: v for k, (v, _) in
                   workload.end_to_end([untraced]).items()
                   if k in PER_LAYER})
    layers["trace_overhead"] = traced.total_s / untraced.total_s
    layers["unwrapped_s"] = traced.total_s - tracer.root_s
    out = ROOT / ".perfbench" / "trace-{}-seed{}.json".format(
        args.workload, args.seed)
    out.parent.mkdir(exist_ok=True)
    with open(out, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "host": host_controls(), "missing_boundaries": missing,
                   "untraced_s": untraced.seconds,
                   "traced_s": traced.seconds, "metrics": layers,
                   **tracer.to_dict()}, fh, indent=1, sort_keys=True)
    if missing:
        print("boundaries not found (not traced): " + ", ".join(missing))
    print("span aggregate written to {}".format(out.relative_to(ROOT)))
    return {k: (v, PER_LAYER[k]) for k, v in layers.items()}


def record_references(workload, args, checks) -> int:
    rnd = workload.round(checks, "reference round")
    if checks.failed:
        print("not recorded: {}".format(checks.failures), file=sys.stderr)
        return 1
    data = load_references()
    data.setdefault(args.workload, {})[str(args.seed)] = rnd.digests
    with open(REFERENCES, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("recorded {} digests for {} seed {}".format(
        len(rnd.digests), args.workload, args.seed))
    return 0


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    args = parse_args(argv)
    refused = refused_environment(os.environ)
    if refused:
        print("perfbench: refusing to run with {} set; the benchmark "
              "measures the program's defaults".format(", ".join(refused)),
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: no program source under {}".format(ROOT / "src"),
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # One thread: keep numpy's BLAS pool from starting more.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    from workloads import WORKLOADS, Checks
    workload = WORKLOADS[args.workload]()
    checks = Checks()
    if args.setup_probe:
        workload.setup(args.seed, ROOT)
        workload.close()
        print(repr(time.monotonic()))
        return 0
    print("perfbench {} seed {} seconds {} trace {}".format(
        args.workload, args.seed, args.seconds, args.trace))
    print("host: " + json.dumps(host_controls(), sort_keys=True))
    print("model: unvalidated; outputs are checked for identity, not "
          "accuracy (accuracy against the paper is the fig12 bench's)")
    setup_s = None if args.trace or args.record_references \
        else measure_setup(args, checks)
    workload.setup(args.seed, ROOT)
    try:
        if args.record_references:
            return record_references(workload, args, checks)
        references = load_references().get(args.workload, {}).get(
            str(args.seed), {})
        print("reference digests for this seed: {}".format(
            len(references) or "none (checked against the first round)"))
        if args.trace:
            metrics = traced_run(workload, args, checks, references)
            names = PER_LAYER
        else:
            metrics = untraced_run(workload, args, checks, references)
            if setup_s is not None:
                metrics["setup_s"] = (setup_s, "s")
            metrics["peak_rss_mb"] = (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
            names = END_TO_END
    finally:
        workload.close()
    for name, (value, unit) in sorted(metrics.items()):
        print("metric {} = {:.6g} {}".format(name, value, unit))
    print("error_ratio = {}/{}".format(checks.failed, checks.attempted))
    for op, reason in checks.failures.items():
        print("FAILED {}: {}".format(op, reason))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name][0],
                           "unit": metrics[name][1]}
                    for name in names if name in metrics}}))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
