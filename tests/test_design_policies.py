"""Tests for the performance-side design policies."""

import pytest

from repro.core.policies import (BaselinePolicy, FmrPolicy, HeteroDMRPolicy,
                                 HeteroFmrPolicy, PlainBaselinePolicy)
from repro.core.config import HeteroDMRConfig
from repro.dram import (Channel, FrequencyState, Module, ModuleSpec,
                        exploit_freq_lat_margins)
from repro.mem_ctrl.address_map import MemLocation
from repro.mem_ctrl.queues import ReadRequest


def _channel():
    ch = Channel(index=0, fast_timing=exploit_freq_lat_margins())
    ch.modules = [Module(ModuleSpec(), "M0"),
                  Module(ModuleSpec(), "M1", holds_copies=True)]
    return ch


def _req(rank=0, bank=0, row=5):
    return ReadRequest(MemLocation(0, rank, bank, row, 0), 0.0,
                       lambda t: None)


def test_baseline_has_writeback_cache():
    assert BaselinePolicy().uses_writeback_cache
    assert not PlainBaselinePolicy().uses_writeback_cache


def test_baseline_identity_rank():
    ch = _channel()
    assert BaselinePolicy().read_rank(ch, _req(rank=3), 0.0) == 3


def test_baseline_write_cost_one():
    assert BaselinePolicy().writes_per_transaction() == 1


def test_fmr_prefers_row_hit_replica():
    ch = _channel()
    p = FmrPolicy()
    # Open row 5 in the partner rank (flat 2 = base 0 + nranks/2).
    ch.locate_rank(2)[1].banks[0].open_row = 5
    assert p.read_rank(ch, _req(rank=0), 0.0) == 2


def test_fmr_prefers_base_row_hit_first():
    ch = _channel()
    p = FmrPolicy()
    ch.locate_rank(0)[1].banks[0].open_row = 5
    ch.locate_rank(2)[1].banks[0].open_row = 5
    assert p.read_rank(ch, _req(rank=0), 0.0) == 0


def test_fmr_colonizes_closed_partner():
    ch = _channel()
    p = FmrPolicy()
    ch.locate_rank(0)[1].banks[0].open_row = 9   # base busy on other row
    assert p.read_rank(ch, _req(rank=0), 0.0) == 2


def test_fmr_broadcast_and_write_cost():
    p = FmrPolicy()
    assert p.broadcast_writes
    assert p.writes_per_transaction() == 2


def test_hdmr_reads_only_free_module():
    ch = _channel()
    p = HeteroDMRPolicy()
    # Free module is index 1, its flat ranks are 2 and 3.
    assert p.read_rank(ch, _req(rank=0), 0.0) == 2
    assert p.read_rank(ch, _req(rank=1), 0.0) == 3


def test_hdmr_write_mode_slows_then_speeds():
    ch = _channel()
    p = HeteroDMRPolicy()
    ch.to_fast(0.0)
    t1 = p.enter_write_mode(ch, 2000.0)
    assert ch.frequency.state is FrequencyState.SAFE
    t2 = p.exit_write_mode(ch, t1)
    assert ch.frequency.state is FrequencyState.FAST
    assert t2 > t1 >= 2000.0


def test_hdmr_cleaning_hook():
    calls = []
    p = HeteroDMRPolicy(llc_clean_hook=lambda n: calls.append(n) or [1, 2])
    out = p.write_batch_extra(0.0)
    assert out == [1, 2]
    assert calls == [12800]


def test_hdmr_without_hook_cleans_nothing():
    assert HeteroDMRPolicy().write_batch_extra(0.0) == []


def test_hdmr_error_correction_penalty():
    ch = _channel()
    cfg = HeteroDMRConfig(read_error_rate=1.0)
    p = HeteroDMRPolicy(cfg)
    ch.to_fast(0.0)
    t = p.on_read_complete(ch, _req(), 2000.0)
    assert t > 2000.0 + 2000.0   # two transitions at least
    assert p.corrections == 1
    assert p.epoch_guard.total_errors == 1


def test_hdmr_no_errors_no_penalty():
    ch = _channel()
    p = HeteroDMRPolicy()
    assert p.on_read_complete(ch, _req(), 100.0) == 100.0


def test_hdmr_write_cost_two():
    assert HeteroDMRPolicy().writes_per_transaction() == 2


def test_hetero_fmr_picks_row_hit_copy():
    ch = _channel()
    p = HeteroFmrPolicy()
    ch.locate_rank(3)[1].banks[0].open_row = 5
    assert p.read_rank(ch, _req(rank=0), 0.0) == 3


def test_hetero_fmr_prefers_home_copy_when_both_hold_the_row():
    ch = _channel()
    p = HeteroFmrPolicy()
    ch.locate_rank(2)[1].banks[0].open_row = 5
    ch.locate_rank(3)[1].banks[0].open_row = 5
    assert p.read_rank(ch, _req(rank=0), 0.0) == 2
    assert p.read_rank(ch, _req(rank=1), 0.0) == 3


def test_hetero_fmr_defaults_to_home_copy():
    ch = _channel()
    p = HeteroFmrPolicy()
    assert p.read_rank(ch, _req(rank=0), 0.0) == 2


def test_hetero_fmr_write_cost_three():
    assert HeteroFmrPolicy().writes_per_transaction() == 3


STATIC_POLICIES = (BaselinePolicy, PlainBaselinePolicy, HeteroDMRPolicy)


@pytest.mark.parametrize("policy_cls", STATIC_POLICIES)
@pytest.mark.parametrize("free_ranks", (1, 2, 4))
def test_rank_map_is_read_rank_for_every_logical_rank(policy_cls,
                                                      free_ranks):
    # The static policies' rank map is their steering table's home
    # column, with no alternate copy.
    ch = _channel()
    ch.modules[1] = Module(ModuleSpec(ranks_per_module=free_ranks), "M1",
                           holds_copies=True)
    p = policy_cls()
    table = p.steering(ch)
    for r in range(3 * ch.rank_count()):
        flat, rank, banks, alt, alt_rank, alt_banks = table[r % len(table)]
        assert flat == p.read_rank(ch, _req(rank=r), 0.0)
        assert rank is ch.locate_rank(flat)[1]
        assert banks is rank.banks
        assert (alt, alt_rank, alt_banks) == (None, None, None)


@pytest.mark.parametrize("policy_cls", (FmrPolicy, HeteroFmrPolicy))
def test_bank_state_steering_has_no_rank_map(policy_cls):
    # FMR steers per candidate (no table); Hetero-DMR+FMR's table pairs
    # every home copy with an alternate, so it has no single-copy map.
    table = policy_cls().steering(_channel())
    if policy_cls is FmrPolicy:
        assert table is None
    else:
        assert [(e[0], e[3]) for e in table] == [(2, 3), (3, 2)]


def _homes(policy, ch):
    return [entry[0] for entry in policy.steering(ch)]


def test_rank_tables_rebuild_after_invalidate_rank_cache():
    ch = _channel()
    hdmr, hfmr = HeteroDMRPolicy(), HeteroFmrPolicy()
    assert _homes(hdmr, ch) == [2, 3]
    assert hfmr.read_rank(ch, _req(rank=1), 0.0) == 3
    # Repopulate the slots: a single-rank original, a 4-rank Free Module.
    ch.modules = [Module(ModuleSpec(ranks_per_module=1), "M0"),
                  Module(ModuleSpec(ranks_per_module=4), "M1",
                         holds_copies=True)]
    ch.invalidate_rank_cache()
    assert _homes(hdmr, ch) == [1, 2, 3, 4]
    assert hdmr.steering(ch)[0][1] is ch.locate_rank(1)[1]
    assert hfmr.read_rank(ch, _req(rank=1), 0.0) == 2
    # The alternate copy of logical rank 3 wraps round the new module.
    ch.locate_rank(1)[1].banks[0].open_row = 5
    assert hfmr.read_rank(ch, _req(rank=3), 0.0) == 1


def test_one_policy_steers_two_channels():
    small, big = _channel(), _channel()
    big.modules[1] = Module(ModuleSpec(ranks_per_module=4), "M1",
                            holds_copies=True)
    p = HeteroDMRPolicy()
    for _ in range(2):
        assert _homes(p, small) == [2, 3]
        assert _homes(p, big) == [2, 3, 4, 5]
        assert p.read_rank(small, _req(rank=3), 0.0) == 3
        assert p.read_rank(big, _req(rank=3), 0.0) == 5
