"""Write-batch drain ordering: vectorized path must be bit-identical
to the scalar reference, end to end."""

import random

import pytest

from repro.cache.hierarchy import HIERARCHIES
from repro.mem_ctrl import batch_timing
from repro.mem_ctrl.batch_timing import (VECTOR_THRESHOLD, _order_scalar,
                                         order_write_batch)
from repro.mem_ctrl.queues import WriteRequest
from repro.mem_ctrl.address_map import MemLocation
from repro.sim.node import NodeConfig, simulate_node

pytestmark = pytest.mark.filterwarnings("error")


def _batch(rng, n, ranks=4, banks=16, rows=64):
    return [WriteRequest(
        location=MemLocation(channel=0,
                             rank=rng.randrange(ranks),
                             bank=rng.randrange(banks),
                             row=rng.randrange(rows),
                             column=rng.randrange(128)),
        arrival_ns=float(i)) for i, n_ in enumerate(range(n))]


def test_scalar_ordering_groups_and_round_robins():
    """Shape check on a hand-built batch: same-(rank,bank) writes come
    out row-sorted, and the first pass visits groups in first-seen
    order."""
    mk = lambda rank, bank, row: WriteRequest(
        location=MemLocation(0, rank, bank, row, 0), arrival_ns=0.0)
    a2, a1, b5, a1b = mk(0, 0, 2), mk(0, 0, 1), mk(1, 3, 5), mk(0, 0, 1)
    ordered = _order_scalar([a2, a1, b5, a1b])
    # Group (0,0) rows sorted stably (1, 1, 2), run {1,1} emitted whole,
    # then group (1,3)'s first run, then (0,0)'s second run.
    assert ordered == [a1, a1b, b5, a2]


@pytest.mark.parametrize("n", [1, VECTOR_THRESHOLD - 1,
                               VECTOR_THRESHOLD, 500, 2000])
def test_vectorized_order_matches_scalar(n):
    pytest.importorskip("numpy")
    rng = random.Random(n)
    batch = _batch(rng, n)
    assert order_write_batch(batch) == _order_scalar(batch)


def test_vectorized_order_matches_scalar_degenerate():
    pytest.importorskip("numpy")
    rng = random.Random(7)
    # One bank only: pure row sort.  One row per bank: pure round-robin.
    one_bank = _batch(rng, 300, ranks=1, banks=1)
    assert order_write_batch(one_bank) == _order_scalar(one_bank)
    one_row = _batch(rng, 300, rows=1)
    assert order_write_batch(one_row) == _order_scalar(one_row)


def test_order_is_a_permutation():
    rng = random.Random(11)
    batch = _batch(rng, 400)
    ordered = order_write_batch(batch)
    assert sorted(map(id, ordered)) == sorted(map(id, batch))


def test_without_numpy_orders_on_the_scalar_path(monkeypatch):
    """A host without numpy never reaches the vectorized path, even for
    batches past the threshold."""
    def refuse(batch):
        raise AssertionError("vectorized path used without numpy")

    monkeypatch.setattr(batch_timing, "_np", None)
    monkeypatch.setattr(batch_timing, "_order_vectorized", refuse)
    batch = _batch(random.Random(5), 4 * VECTOR_THRESHOLD)
    assert order_write_batch(batch) == _order_scalar(batch)


def test_cycle_sim_identical_with_and_without_vectorized_path(
        monkeypatch):
    """End to end: a cycle simulation that actually enters write mode
    (baseline at refs=600 drains a ~1260-write batch, well past the
    vectorization threshold) produces bit-identical timing either way."""
    pytest.importorskip("numpy")

    def run():
        return simulate_node(NodeConfig(
            suite="linpack", hierarchy=HIERARCHIES["Hierarchy1"](),
            design="baseline", margin_mts=800,
            memory_utilization=0.15, refs_per_core=600, seed=99))

    vectorized = run()
    monkeypatch.setattr(batch_timing, "_np", None)
    scalar = run()
    assert scalar.time_ns == vectorized.time_ns
    assert scalar.dram_writes == vectorized.dram_writes
    assert scalar.events_processed == vectorized.events_processed
    assert scalar.dram_writes > 0
