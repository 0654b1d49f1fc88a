"""Tests for Hetero-DMR config, epoch guard, and margin selection."""

import pytest

from repro.core import (EpochGuard, HeteroDMRConfig, NODE_MARGIN_BUCKETS,
                        bucket_node_margin, channel_margin,
                        choose_free_module, node_margin, snap_to_step)
from repro.core.epoch_guard import NS_PER_HOUR


def test_config_fast_timing():
    cfg = HeteroDMRConfig(margin_mts=800)
    t = cfg.fast_timing()
    assert t.data_rate_mts == 4000
    assert t.tRCD_ns == 11.5        # latency margin applied by default


def test_config_without_latency_margin():
    cfg = HeteroDMRConfig(margin_mts=600, use_latency_margin=False)
    t = cfg.fast_timing()
    assert t.data_rate_mts == 3800
    assert t.tRCD_ns == 13.75


def test_config_validation():
    with pytest.raises(ValueError):
        HeteroDMRConfig(margin_mts=-1)
    with pytest.raises(ValueError):
        HeteroDMRConfig(read_error_rate=2.0)
    with pytest.raises(ValueError):
        HeteroDMRConfig(replication_limit=0.0)


@pytest.mark.parametrize("target", (0, -3))
def test_config_rejects_nonpositive_write_batch_target(target):
    with pytest.raises(ValueError):
        HeteroDMRConfig(write_batch_target=target)


def test_config_default_threshold_is_paper_value():
    cfg = HeteroDMRConfig()
    assert 2_000_000 < cfg.epoch_error_threshold < 2_200_000


def test_epoch_guard_allows_below_threshold():
    g = EpochGuard(threshold=10)
    for _ in range(10):
        g.record_error(0.0)
    assert g.margin_allowed(1.0)


def test_epoch_guard_trips_above_threshold():
    g = EpochGuard(threshold=10)
    g.record_error(0.0, count=11)
    assert not g.margin_allowed(1.0)
    assert g.tripped_epochs == 1


def test_epoch_guard_rearms_next_epoch():
    g = EpochGuard(threshold=5)
    g.record_error(0.0, count=6)
    assert not g.margin_allowed(100.0)
    assert g.margin_allowed(NS_PER_HOUR + 1)
    assert g.errors_this_epoch == 0


def test_epoch_guard_counts_roll_over():
    g = EpochGuard(threshold=100)
    g.record_error(0.0, count=50)
    g.record_error(NS_PER_HOUR * 2.5, count=1)
    assert g.errors_this_epoch == 1
    assert g.total_errors == 51


def test_epoch_guard_negative_count():
    with pytest.raises(ValueError):
        EpochGuard().record_error(0.0, count=-1)


def test_worst_case_mttsdc_one_billion_years():
    g = EpochGuard()
    years = g.worst_case_mttsdc_years()
    assert years >= 1.0e9
    assert years < 1.2e9


def test_snap_to_step():
    assert snap_to_step(799) == 600
    assert snap_to_step(800) == 800
    assert snap_to_step(-5) == 0


def test_channel_margin_aware_vs_unaware():
    assert channel_margin([600, 850]) == 800
    assert channel_margin([600, 850], margin_aware=False) == 600
    assert channel_margin([]) == 0


def test_node_margin_is_min():
    assert node_margin([800, 600, 1000]) == 600
    assert node_margin([]) == 0


def test_bucket_node_margin():
    assert bucket_node_margin(850) == 800
    assert bucket_node_margin(799) == 600
    assert bucket_node_margin(400) == 0
    assert NODE_MARGIN_BUCKETS == (800, 600, 0)


def test_choose_free_module():
    assert choose_free_module([600, 800]) == 1
    assert choose_free_module([600, 800], margin_aware=False) == 0
    with pytest.raises(ValueError):
        choose_free_module([])
