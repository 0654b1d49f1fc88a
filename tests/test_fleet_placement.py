"""Tests for placement over registry margins (the pool behind
``repro fleet place``), registry-backed clusters, and the
degradation-ladder ingestion hooks."""

import asyncio
import json
import pathlib
import random

import pytest

from repro.fleet import (FleetConfig, FleetIngest, FleetProfiler,
                         MarginRegistry)
from repro.fleet.registry import canonical_json
from repro.hpc import (Cluster, EasyBackfillScheduler,
                       MarginAwareAllocationPolicy, PerformanceModel,
                       SystemSimulator, TraceConfig, generate_trace)
from repro.resilience import build_ladder
from repro.service import (BucketPool, PlaceRequest, PlacementDaemon,
                           ShardedRegistry)

#: Decisions recorded for :func:`_seeded_fleet`, one JSON line per job.
DECISIONS = pathlib.Path(__file__).parent / "data" / \
    "fleet_place_decisions.jsonl"
STREAM_SEEDS = (1, 2, 3, 2026)


def _profiled_registry(nodes=24, **overrides):
    registry = MarginRegistry()
    FleetProfiler(FleetConfig(**dict({"nodes": nodes, "workers": 0},
                                     **overrides)), registry).run()
    return registry


def _mixed_registry():
    """A hand-built fleet with all three margin classes."""
    registry = MarginRegistry()
    for i, margin in enumerate([800, 800, 800, 600, 600, 0, 800, 600]):
        registry.record_profile(i, margin)
    return registry


def _seeded_fleet(seed):
    """A registry with sparse node ids, demotions, promotions and
    retirements, plus the job widths placed over it (one oversized)."""
    rng = random.Random(seed)
    registry = MarginRegistry()
    ids = rng.sample(range(240), 60)
    for node in ids:
        registry.record_profile(
            node, rng.choice((800, 800, 800, 600, 600, 400, 200, 0)))
    for node in rng.sample(ids, 12):
        registry.record_demotion(node, rng.choice((600, 400, 200, 0)))
    for node in rng.sample(ids, 4):
        registry.record_promotion(node, 800)
    for node in rng.sample(ids, 3):
        registry.record_retirement(node)
    widths = [rng.randint(1, 8) for _ in range(12)]
    widths.insert(rng.randrange(len(widths)), len(ids) + 1)
    return registry, widths


def _place(registry, widths):
    """``repro fleet place``: jobs in batch order (id = position), each
    taking its nodes out of a pool filled from the registry; returns
    ``(nodes, bucket)`` per job, ``None`` when unplaced."""
    pool = BucketPool()
    pool.fold(registry.nodes())
    out = []
    for job, width in enumerate(widths):
        chosen = pool.select(width)
        if chosen is not None:
            pool.allocate(chosen, job)
            chosen = (tuple(chosen), pool.bucket(chosen))
        out.append(chosen)
    return out


# -- placement matches the paper's policy -------------------------------------


def test_place_reproduces_recorded_decision_stream():
    lines = []
    for seed in STREAM_SEEDS:
        registry, widths = _seeded_fleet(seed)
        for job, placed in enumerate(_place(registry, widths)):
            lines.append(canonical_json({
                "fleet": seed, "job": job, "width": widths[job],
                "nodes": None if placed is None else list(placed[0]),
                "bucket": None if placed is None else placed[1]}))
    recorded = DECISIONS.read_text()
    assert "".join(line + "\n" for line in lines) == recorded
    # The stream exercises every bucket and an oversized job.
    records = [json.loads(line) for line in recorded.splitlines()]
    assert {r["bucket"] for r in records} == {800, 600, 0, None}
    assert any(r["nodes"] is None and r["width"] > 60 for r in records)


def test_place_matches_policy_run_directly():
    registry = _profiled_registry()
    widths = [4, 8, 2, 6, 1, 3]
    placements = _place(registry, widths)

    policy = MarginAwareAllocationPolicy()
    free = list(Cluster.from_registry(registry).nodes)
    for width, placed in zip(widths, placements):
        chosen = policy.select(free, width)
        if chosen is None:
            assert placed is None
            continue
        free = [n for n in free if n not in chosen]
        assert placed[0] == tuple(n.index for n in chosen)


def test_place_prefers_uniform_fast_group():
    ((nodes, bucket),) = _place(_mixed_registry(), [3])
    assert bucket == 800
    assert len(nodes) == 3


def test_oversized_job_yields_none_without_blocking_later_jobs():
    huge, small = _place(_mixed_registry(), [99, 2])
    assert huge is None
    assert small is not None


# -- acceptance: a demotion changes the next placement ------------------------


def test_demotion_event_changes_next_placement():
    registry = _mixed_registry()
    (before,) = _place(registry, [3])
    assert before[1] == 800
    # Demote one of the fast nodes the first answer used.
    victim = before[0][0]
    registry.record_demotion(victim, 0, reason="epoch trip")
    (after,) = _place(registry, [3])
    assert victim not in after[0]
    assert after != before


def test_registry_event_invalidates_cache_immediately():
    """The daemon's pool re-folds a shard only when its ``last_seq``
    moves: virtual time alone never refreshes it, and an out-of-band
    registry event is seen by the very next placement, at the cost of
    re-folding just the owning shard."""
    registry = ShardedRegistry(shards=4)
    for i, margin in enumerate([800, 800, 800, 600, 600, 0, 800, 600]):
        registry.record_profile(i, margin)

    async def main():
        async with PlacementDaemon(registry) as daemon:
            first = await daemon.submit(PlaceRequest(1, 2))
            await daemon.submit_tick(1e6)
            await daemon.submit(PlaceRequest(2, 1))
            misses = daemon.stats.cache_misses
            registry.record_demotion(6, 0)
            third = await daemon.submit(PlaceRequest(3, 2))
            return first, third, misses, daemon.stats

    first, third, misses, stats = asyncio.run(main())
    assert first.nodes == (0, 1)
    assert misses == registry.shard_count         # cold fold only
    assert stats.cache_misses == misses + 1       # the demoted shard
    assert 6 not in third.nodes


# -- registry-backed clusters -------------------------------------------------


def test_cluster_from_registry_margins_and_demotions():
    registry = _mixed_registry()
    registry.record_demotion(1, 200)
    registry.record_retirement(5)
    cluster = Cluster.from_registry(registry)
    assert len(cluster) == 8
    assert cluster.nodes[0].effective_margin_mts == 800
    assert cluster.nodes[1].effective_margin_mts == 200
    assert cluster.nodes[5].effective_margin_mts == 0
    # Later operational overrides still compose.
    cluster.restore_node(1)
    assert cluster.nodes[1].effective_margin_mts == 800


def test_cluster_from_registry_rejects_empty():
    with pytest.raises(ValueError):
        Cluster.from_registry(MarginRegistry())


def test_cluster_from_margins():
    cluster = Cluster.from_margins([800, 600, 0])
    assert [n.effective_margin_mts for n in cluster.nodes] == \
        [800, 600, 0]
    with pytest.raises(ValueError):
        Cluster.from_margins([])


def test_registry_cluster_drives_system_sim():
    registry = _profiled_registry(nodes=32)
    cluster = Cluster.from_registry(registry)
    jobs = generate_trace(TraceConfig(job_count=80, total_nodes=32))
    result = SystemSimulator(
        cluster, EasyBackfillScheduler(MarginAwareAllocationPolicy()),
        PerformanceModel()).run(jobs)
    assert len(result.jobs) == 80
    assert any(j.runtime_s < j.base_runtime_s - 1e-9
               for j in result.jobs)


# -- ingestion hooks ----------------------------------------------------------


def test_rung_hook_records_demote_and_promote():
    registry = _mixed_registry()
    ingest = FleetIngest(registry)
    hook = ingest.rung_hook(0)
    ladder = build_ladder(800)
    hook(ladder[0])                 # freq+lat@800: no effective change
    assert registry.last_seq == _mixed_registry().last_seq
    ingest.now_s = 5.0
    hook(ladder[2])                 # freq@600
    assert registry.node(0).effective_margin_mts == 600
    ingest.now_s = 9.0
    hook(ladder[1])                 # back up to freq@800
    assert registry.node(0).demoted_margin_mts is None
    assert registry.node(0).last_seq == registry.last_seq


def test_rung_hook_with_retired_controller_records_retirement():
    registry = _mixed_registry()
    ingest = FleetIngest(registry)

    class FakeController:
        retired = True

    hook = ingest.rung_hook(3, controller=FakeController())
    hook(build_ladder(600)[-1])     # spec while retired
    assert registry.node(3).retired
    # A second call does not duplicate the retirement event.
    seq = registry.last_seq
    hook(build_ladder(600)[-1])
    assert registry.last_seq == seq


def test_ingest_folds_into_attached_cluster():
    registry = _mixed_registry()
    cluster = Cluster.from_registry(registry)
    ingest = FleetIngest(registry, cluster=cluster)
    hook = ingest.rung_hook(0)
    hook(build_ladder(800)[-1])     # demote straight to spec
    assert cluster.nodes[0].effective_margin_mts == 0
    hook(build_ladder(800)[1])      # promoted back to freq@800
    assert cluster.nodes[0].effective_margin_mts == 800


def test_apply_to_cluster_syncs_loaded_registry():
    registry = _mixed_registry()
    registry.record_demotion(2, 200)
    registry.record_retirement(4)
    cluster = Cluster(8, seed=3)
    FleetIngest(registry).apply_to_cluster(cluster)
    assert cluster.nodes[2].effective_margin_mts <= 200
    assert cluster.nodes[4].effective_margin_mts == 0
    with pytest.raises(ValueError):
        FleetIngest(registry).apply_to_cluster()
