"""The FR-FCFS scan over requests resolved at submit, with the inlined
page policy, makes the same decisions, and leaves the same bank state,
as a scan that calls the policy's steering and ``PagePolicy.apply`` per
candidate (the scheduler's earlier form, kept here as the oracle)."""

from typing import Callable, Optional

from hypothesis import given, settings, strategies as st

from repro.core.policies import (BaselinePolicy, FmrPolicy, HeteroDMRPolicy,
                                 HeteroFmrPolicy, PlainBaselinePolicy)
from repro.dram import Channel, Module, ModuleSpec, exploit_freq_lat_margins
from repro.mem_ctrl.address_map import MemLocation
from repro.mem_ctrl.page_policy import PagePolicy
from repro.mem_ctrl.queues import ReadRequest
from repro.mem_ctrl.scheduler import FrFcfsScheduler

POLICIES = (BaselinePolicy, PlainBaselinePolicy, FmrPolicy,
            HeteroDMRPolicy, HeteroFmrPolicy)
BANKS, ROWS = 3, 3


# -- the oracle: per-candidate steering and page-policy calls -----------------

def _apply_reference(policy: PagePolicy, bank, now_ns: float) -> None:
    if bank.open_row is None:
        return
    if policy.kind == "hybrid":
        if now_ns - bank.last_access_ns > policy.timeout_ns:
            bank.open_row = None
    elif policy.kind == "closed":
        bank.open_row = None


def _free_base(policy, channel) -> int:
    return sum(len(m.ranks)
               for m in channel.modules[:policy.free_module_index])


def _read_rank_reference(policy, channel, req) -> int:
    """Each policy's steering as written before the rank tables."""
    loc = req.location
    if isinstance(policy, FmrPolicy):
        return policy.read_rank(channel, req, 0.0)
    if isinstance(policy, HeteroDMRPolicy):
        base = _free_base(policy, channel)
        nfree = len(channel.modules[policy.free_module_index].ranks)
        fixed = base + loc.rank % nfree
        if not isinstance(policy, HeteroFmrPolicy):
            return fixed
        pairs = channel.all_ranks()
        for flat in (fixed, base + (fixed - base + 1) % nfree):
            if pairs[flat][1].banks[loc.bank].open_row == loc.row:
                return flat
        return fixed
    return loc.rank % channel.rank_count()


def _pick_reference(sched: FrFcfsScheduler, queue, channel, now_ns: float,
                    rank_of: Callable) -> Optional[int]:
    if not queue:
        return None
    hit_idx = prefetch_hit_idx = other_rank_hit_idx = None
    oldest_idx = 0
    bus_rank = channel._last_bus_rank
    pairs = channel.all_ranks()
    for i in range(min(len(queue), sched.scan_window)):
        req = queue[i]
        loc = req.location
        rank = pairs[rank_of(req)][1]
        bank = rank.banks[loc.bank]
        _apply_reference(sched.page_policy, bank, now_ns)
        if bank.open_row == loc.row:
            if req.is_prefetch:
                if prefetch_hit_idx is None:
                    prefetch_hit_idx = i
                continue
            if bus_rank is None or rank is bus_rank:
                hit_idx = i
                break
            if other_rank_hit_idx is None:
                other_rank_hit_idx = i
    if hit_idx is None:
        hit_idx = other_rank_hit_idx
    if hit_idx is None:
        hit_idx = prefetch_hit_idx

    def note(req):
        key = (rank_of(req), req.location.bank)
        if key == sched._last_bank:
            sched._streak += 1
        else:
            sched._last_bank, sched._streak = key, 1

    if hit_idx is not None:
        key = (rank_of(queue[hit_idx]), queue[hit_idx].location.bank)
        if key == sched._last_bank and sched._streak >= sched.fairness_cap:
            sched.stats.fairness_overrides += 1
            note(queue[oldest_idx])
            sched.stats.oldest_picks += 1
            return oldest_idx
        sched._streak = sched._streak + 1 if key == sched._last_bank else 1
        sched._last_bank = key
        sched.stats.row_hit_picks += 1
        return hit_idx
    note(queue[oldest_idx])
    sched.stats.oldest_picks += 1
    return oldest_idx


# -- generated inputs ---------------------------------------------------------

_bank_state = st.tuples(st.integers(0, ROWS - 1) | st.none(),
                        st.floats(0.0, 120.0))
_request = st.tuples(st.integers(0, 7), st.integers(0, BANKS - 1),
                     st.integers(0, ROWS - 1), st.booleans())


def _build(case):
    ch = Channel(index=0, fast_timing=exploit_freq_lat_margins())
    ch.modules = [Module(ModuleSpec(), "M0"),
                  Module(ModuleSpec(ranks_per_module=case["free_ranks"]),
                         "M1", holds_copies=True)]
    pairs = ch.all_ranks()
    for flat, banks in enumerate(case["banks"][:len(pairs)]):
        for b, (row, last) in enumerate(banks):
            bank = pairs[flat][1].banks[b]
            bank.open_row, bank.last_access_ns = row, last
    if case["bus_rank"] is not None:
        ch._last_bus_rank = pairs[case["bus_rank"] % len(pairs)][1]
    sched = FrFcfsScheduler(PagePolicy(kind=case["page"]),
                            fairness_cap=case["cap"],
                            scan_window=case["window"])
    if case["last_bank"] is not None:
        sched._last_bank = case["last_bank"]
        sched._streak = case["streak"]
    policy = POLICIES[case["policy"]]()
    queue = [ReadRequest(MemLocation(0, r, b, row, 0), float(i),
                         lambda t: None, is_prefetch=pf)
             for i, (r, b, row, pf) in enumerate(case["queue"])]
    for req in queue:
        policy.resolve(ch, req)     # as the controller does at submit
    return ch, sched, queue, policy


def _state(ch, sched):
    rows = [[bank.open_row for bank in rank.banks]
            for _, rank in ch.all_ranks()]
    return sched.stats, sched._last_bank, sched._streak, rows


_cases = st.fixed_dictionaries({
    "policy": st.integers(0, len(POLICIES) - 1),
    "page": st.sampled_from(("open", "closed", "hybrid")),
    "free_ranks": st.sampled_from((1, 2)),
    "banks": st.lists(st.lists(_bank_state, min_size=BANKS,
                               max_size=BANKS), min_size=4, max_size=4),
    "bus_rank": st.none() | st.integers(0, 3),
    "last_bank": st.none() | st.tuples(st.integers(0, 3),
                                       st.integers(0, BANKS - 1)),
    "streak": st.integers(0, 4),
    "cap": st.integers(1, 3),
    "window": st.integers(1, 12),
    "queue": st.lists(_request, min_size=1, max_size=16),
    "now": st.floats(0.0, 200.0),
    "picks": st.integers(1, 4),
})


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_cases)
def test_table_scan_matches_per_candidate_scan(case):
    ref_ch, ref_sched, ref_queue, ref_policy = _build(case)
    ch, sched, queue, policy = _build(case)
    now = case["now"]
    for _ in range(case["picks"]):
        if not queue:
            break
        expected = _pick_reference(
            ref_sched, ref_queue, ref_ch, now,
            lambda req: _read_rank_reference(ref_policy, ref_ch, req))
        read_rank = policy.read_rank if policy.steering(ch) is None \
            else None
        assert sched.pick(queue, ch, now, read_rank) == expected
        assert _state(ch, sched) == _state(ref_ch, ref_sched)
        ref_queue.pop(expected)
        queue.pop(expected)


def test_row_idle_exactly_the_timeout_stays_open():
    # Hybrid closes a row idle *longer* than the timeout, in apply and
    # in the scan alike.
    case = {"free_ranks": 2, "banks": [[(1, 0.0)] * BANKS] * 4,
            "bus_rank": None, "page": "hybrid", "cap": 3, "window": 4,
            "last_bank": None, "queue": [(0, 0, 2, False), (0, 0, 1, False)],
            "policy": 0}
    ch, sched, queue, _ = _build(case)
    timeout = sched.page_policy.timeout_ns
    assert sched.pick(queue, ch, timeout) == 1
    assert sched.pick(queue, ch, timeout + 1e-9) == 0
    bank = ch.locate_rank(1)[1].banks[0]
    sched.page_policy.apply(bank, timeout)
    assert bank.open_row == 1
    sched.page_policy.apply(bank, timeout + 1e-9)
    assert bank.open_row is None


def _assert_serving_is_read_rank(policy, ch, req):
    flat = policy.read_rank(ch, req, 0.0)
    assert flat == _read_rank_reference(policy, ch, req)
    if policy.steering(ch) is None:
        # Steered per scanned candidate (FMR): nothing is resolved.
        assert (req.flat_rank, req.bank, req.alt_bank) == (None,) * 3
        return
    rank = ch.locate_rank(flat)[1]
    assert req.serving() == (flat, rank, rank.banks[req.location.bank])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_cases)
def test_resolved_serving_is_read_rank(case):
    """Every request resolved at submit is served by the flat rank and
    bank its policy's ``read_rank`` names, before and after the page
    policy closes the rows that timed out by ``now``."""
    ch, sched, queue, policy = _build(case)
    for req in queue:
        _assert_serving_is_read_rank(policy, ch, req)
    for _, rank in ch.all_ranks():
        for bank in rank.banks:
            sched.page_policy.apply(bank, case["now"])
    for req in queue:
        _assert_serving_is_read_rank(policy, ch, req)


def test_pair_home_copy_holding_the_row_is_served_even_if_stale():
    # Hetero-DMR+FMR: both copies hold the row, the home copy's has
    # timed out.  The home copy is chosen (and closed), not the fresh
    # alternate, so the oldest request is picked.
    banks = [[(None, 0.0)] * BANKS for _ in range(4)]
    banks[2][0] = (1, 0.0)       # home copy of logical rank 0: stale
    banks[3][0] = (1, 150.0)     # alternate copy: fresh
    case = {"policy": POLICIES.index(HeteroFmrPolicy), "page": "hybrid",
            "free_ranks": 2, "banks": banks, "bus_rank": None,
            "last_bank": None, "cap": 3, "window": 4,
            "queue": [(1, 1, 0, False), (0, 0, 1, False)]}
    ref_ch, ref_sched, ref_queue, ref_policy = _build(case)
    ch, sched, queue, _ = _build(case)
    expected = _pick_reference(
        ref_sched, ref_queue, ref_ch, 200.0,
        lambda req: _read_rank_reference(ref_policy, ref_ch, req))
    assert expected == 0
    assert sched.pick(queue, ch, 200.0) == expected
    assert _state(ch, sched) == _state(ref_ch, ref_sched)
