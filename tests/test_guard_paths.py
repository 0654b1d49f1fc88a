"""Latent-bug sweep through the guard paths: the typed fast-fidelity
refusal across all entry points, the worker-count fallback, and the
recorder's exact quantiles."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.hierarchy import HIERARCHIES
from repro.obs.recorder import DEFAULT_BUCKETS, Recorder, _Histogram
from repro.perf.sweep import SweepConfig, SweepRunner, available_cpus
from repro.sim.fidelity import (FIDELITY_ENV_VAR, FidelityError,
                                ensure_fidelity_supported)

pytestmark = pytest.mark.filterwarnings("error")


# -- the typed refusal ------------------------------------------------------------------


def test_fidelity_error_is_a_value_error():
    assert issubclass(FidelityError, ValueError)


def test_ensure_fidelity_supported_passes_clean_configs(monkeypatch):
    monkeypatch.delenv(FIDELITY_ENV_VAR, raising=False)
    assert ensure_fidelity_supported("fast") == "fast"
    assert ensure_fidelity_supported(
        "fast", knobs={"read_error_rate": 0.0}) == "fast"
    assert ensure_fidelity_supported(
        "cycle", knobs={"read_error_rate": 0.5}) == "cycle"
    assert ensure_fidelity_supported(None) == "cycle"


def test_ensure_fidelity_supported_names_every_offender():
    with pytest.raises(FidelityError) as err:
        ensure_fidelity_supported(
            "fast", knobs={"read_error_rate": 0.01,
                           "transition_fault_rate": 0.05},
            source="unit-test")
    message = str(err.value)
    assert "read_error_rate=0.01" in message
    assert "transition_fault_rate=0.05" in message
    assert "unit-test" in message
    assert "fidelity='cycle'" in message


def test_experiment_runner_refuses_before_cache(monkeypatch):
    """The latent bug: validation used to happen after the cache
    lookup, so a knob-normalized cache hit silently bypassed the fast
    tier's fault-injection refusal.  Spec-only cells normalize the
    fault knobs away, making baseline the exact aliasing case."""
    monkeypatch.delenv(FIDELITY_ENV_VAR, raising=False)
    from repro.sim.runner import ExperimentRunner
    hier = HIERARCHIES["Hierarchy1"]()
    runner = ExperimentRunner(refs_per_core=3000, fidelity="fast")
    runner.baseline("linpack", hier)          # populates the cache
    with pytest.raises(FidelityError):
        runner.run("linpack", hier, "baseline", read_error_rate=0.01)


def test_experiment_runner_fixes_tier_and_backend_at_construction(
        monkeypatch):
    """One runner never mixes tiers or backends: flipping the
    environment between two cells leaves the second cell on what the
    runner resolved when it was built."""
    from repro.dram.backend import BACKEND_ENV_VAR
    from repro.sim.runner import ExperimentRunner
    monkeypatch.delenv(FIDELITY_ENV_VAR, raising=False)
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
    hier = HIERARCHIES["Hierarchy1"]()
    runner = ExperimentRunner(refs_per_core=300)
    base = runner.run("hpcg", hier, "baseline")
    monkeypatch.setenv(FIDELITY_ENV_VAR, "fast")
    monkeypatch.setenv(BACKEND_ENV_VAR, "mrdimm")
    fmr = runner.run("hpcg", hier, "fmr")
    for result in (base, fmr):
        assert result.events_processed > 0      # ran on the cycle tier
        assert result.config.fidelity == "cycle"
        assert result.config.backend == "ddr4"


def test_sweep_config_refuses_fast_with_faults():
    with pytest.raises(FidelityError) as err:
        SweepConfig(fidelity="fast", read_error_rate=0.01)
    assert "read_error_rate" in str(err.value)


def test_sweep_runner_refuses_env_resolved_fast(monkeypatch):
    """A config deferring fidelity to the environment passes
    construction; the runner re-validates after resolution."""
    monkeypatch.setenv(FIDELITY_ENV_VAR, "fast")
    config = SweepConfig(suites=("linpack",),
                         hierarchies=("Hierarchy1",),
                         refs_per_core=40,
                         transition_fault_rate=0.05)
    with pytest.raises(FidelityError) as err:
        SweepRunner(config)
    assert "transition_fault_rate" in str(err.value)


def test_cli_hpc_fast_with_faults_exits_domain_failure(capsys,
                                                       monkeypatch):
    monkeypatch.delenv(FIDELITY_ENV_VAR, raising=False)
    from repro.cli import EXIT_DOMAIN_FAILURE, main
    code = main(["hpc", "--fidelity", "fast",
                 "--read-error-rate", "0.01"])
    assert code == EXIT_DOMAIN_FAILURE
    err = capsys.readouterr().err
    assert "read_error_rate" in err
    assert "fidelity='cycle'" in err


# -- available_cpus fallback ------------------------------------------------------------


def test_available_cpus_positive_on_healthy_host():
    assert available_cpus() >= 1


def test_available_cpus_never_zero_without_affinity(monkeypatch):
    """The latent bug: no sched_getaffinity (macOS/Windows) plus a
    platform where cpu_count() returns None used to propagate a falsy
    worker capacity."""
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert available_cpus() == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 0)
    assert available_cpus() == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert available_cpus() == 6


def test_available_cpus_empty_affinity_falls_back(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(),
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert available_cpus() == 3


def test_sweep_still_explains_capped_workers(monkeypatch):
    """With affinity monkeypatched away the sweep must still run,
    cap to one worker, and say why (cap_reason), not crash on a
    zero capacity."""
    monkeypatch.delenv(FIDELITY_ENV_VAR, raising=False)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    config = SweepConfig(suites=("linpack",),
                         hierarchies=("Hierarchy1",),
                         refs_per_core=20, workers=8)
    result = SweepRunner(config).run()
    assert result.workers_used == 1
    assert result.cap_reason == "cpu-capacity"


# -- exact nearest-rank quantiles -------------------------------------------------------


def test_quantiles_empty_series_returns_empty():
    hist = _Histogram(DEFAULT_BUCKETS)
    assert hist.quantiles() == {}
    doc = hist.to_dict()
    assert doc["count"] == 0
    assert "p50" not in doc and "p999" not in doc


def test_quantiles_single_sample_is_every_quantile():
    hist = _Histogram(DEFAULT_BUCKETS)
    hist.observe(42.5)
    assert hist.quantiles() == {"p50": 42.5, "p99": 42.5,
                                "p999": 42.5}


def test_recorder_histogram_stats_roundtrip():
    rec = Recorder()
    assert rec.histogram_stats("unit", "lat") is None
    rec.observe("unit", "lat", 5.0)
    stats = rec.histogram_stats("unit", "lat")
    assert stats["count"] == 1
    assert stats["p999"] == 5.0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=-1e12, max_value=1e12),
                min_size=1, max_size=300))
def test_quantiles_properties(samples):
    hist = _Histogram(DEFAULT_BUCKETS)
    for sample in samples:
        hist.observe(sample)
    quantiles = hist.quantiles()
    assert set(quantiles) == {"p50", "p99", "p999"}
    # Nearest-rank quantiles are order statistics: monotone, drawn
    # from the observed samples, and (for n <= 1000) p999 is the max.
    assert quantiles["p50"] <= quantiles["p99"] <= quantiles["p999"]
    for value in quantiles.values():
        assert value in samples
    assert quantiles["p999"] == max(samples)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e9),
                min_size=2, max_size=120))
def test_quantile_ranks_clamped_to_series(samples):
    """The q-th value is the ceil(q*n)-th smallest — never ordered[-1]
    via a wrapped rank, never past the end at capacity."""
    import math
    hist = _Histogram(DEFAULT_BUCKETS)
    for sample in samples:
        hist.observe(sample)
    ordered = sorted(samples)
    n = len(ordered)
    quantiles = hist.quantiles()
    for name, q in (("p50", 0.50), ("p99", 0.99), ("p999", 0.999)):
        rank = min(n, max(1, math.ceil(q * n)))
        assert quantiles[name] == ordered[rank - 1]
