#!/usr/bin/env python3
"""Example: the fleet margin registry end to end.

Profiles a seeded fleet in parallel into a file-backed
:class:`MarginRegistry` (with a few flaky rigs exercising the bounded
retry path), places a batch of jobs over the registry's effective
margins, ingests a degradation-ladder demotion through the registry,
and shows the next placement decision change.  Finishes by compacting
the event log and reloading the registry from its snapshot — what a
scheduler restart would do.

Run:  python examples/fleet_service.py [nodes] [workers]
"""

import sys
import tempfile

from repro.fleet import (FleetConfig, FleetIngest, FleetProfiler,
                         MarginRegistry)
from repro.hpc import Cluster
from repro.resilience import build_ladder
from repro.service import BucketPool


def place(registry, widths):
    """Place a batch of jobs (job id = batch position) over the
    registry's current effective margins; ``None`` = unplaced."""
    pool = BucketPool()
    pool.fold(registry.nodes())
    out = []
    for job, width in enumerate(widths):
        chosen = pool.select(width)
        if chosen is not None:
            pool.allocate(chosen, job)
            chosen = (chosen, pool.bucket(chosen))
        out.append(chosen)
    return out


def describe(placements):
    return "; ".join(
        "job {} -> nodes {} (bucket {})".format(
            job, ",".join(str(n) for n in p[0]), p[1])
        if p is not None else "job {} unplaced".format(job)
        for job, p in enumerate(placements))


def main() -> None:
    nodes = int(sys.argv[1]) if len(sys.argv) > 1 else 24
    workers = int(sys.argv[2]) if len(sys.argv) > 2 else 2

    with tempfile.TemporaryDirectory() as root:
        registry = MarginRegistry(root + "/registry")
        config = FleetConfig(nodes=nodes, workers=workers,
                             flaky_node_rate=0.1, seed=7)
        summary = FleetProfiler(config, registry).run()
        print(summary.render())

        widths = [4, 2, 2]
        before = place(registry, widths)
        print("placement before demotion:")
        print("  " + describe(before))

        # A degradation controller demotes the first assigned node to
        # specification; the event flows through the registry.
        victim = before[0][0][0]
        ingest = FleetIngest(registry)
        ingest.now_s = 60.0
        ingest.rung_hook(victim)(build_ladder(800)[-1])
        after = place(registry, widths)
        print("placement after demotion of node {}:".format(victim))
        print("  " + describe(after))
        moved = [job for job, (b, a) in enumerate(zip(before, after))
                 if b != a]
        print("jobs placed differently: {}".format(
            ", ".join(str(job) for job in moved) or "none"))

        dropped = registry.compact()
        reloaded = MarginRegistry(registry.path)
        cluster = Cluster.from_registry(reloaded)
        print("compacted {} events; reloaded registry drives a "
              "{}-node cluster: {}".format(
                  dropped, len(cluster), cluster.group_counts()))


if __name__ == "__main__":
    main()
