"""Tests for the set-associative cache, including Hetero-DMR's
dirty-LRU cleaning hooks and an LRU property check."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.cache import Cache, LINE_BYTES


def small_cache(assoc=4, sets=8):
    return Cache(assoc * sets * LINE_BYTES, assoc)


def test_geometry_validation():
    with pytest.raises(ValueError):
        Cache(0, 4)
    with pytest.raises(ValueError):
        Cache(64, 4)          # too small for assoc


def test_non_power_of_two_sets_rejected():
    with pytest.raises(ValueError):
        Cache(3 * 4 * 64, 4)


def test_miss_does_not_allocate():
    c = small_cache()
    assert not c.access(0, False)
    assert not c.contains(0)


def test_fill_then_hit():
    c = small_cache()
    c.fill(0)
    assert c.access(0, False)
    assert c.stats.hits == 1


def test_write_hit_marks_dirty():
    c = small_cache()
    c.fill(0)
    c.access(0, True)
    assert c.is_dirty(0)


def test_clean_fill_not_dirty():
    c = small_cache()
    c.fill(0)
    assert not c.is_dirty(0)


def test_eviction_returns_dirty_victim():
    c = small_cache(assoc=2, sets=1)
    c.fill(0, dirty=True)
    c.fill(64)
    victim = c.fill(128)
    assert victim == 0
    assert c.stats.writebacks == 1


def test_eviction_clean_victim_silent():
    c = small_cache(assoc=2, sets=1)
    c.fill(0)
    c.fill(64)
    assert c.fill(128) is None


def test_lru_order_updates_on_access():
    c = small_cache(assoc=2, sets=1)
    c.fill(0, dirty=True)
    c.fill(64, dirty=True)
    c.access(0, False)        # 0 becomes MRU
    victim = c.fill(128)
    assert victim == 64


def test_refill_merges_dirtiness():
    c = small_cache(assoc=2, sets=1)
    c.fill(0, dirty=True)
    c.fill(0, dirty=False)
    assert c.is_dirty(0)


def test_invalidate():
    c = small_cache()
    c.fill(0, dirty=True)
    assert c.invalidate(0)
    assert not c.contains(0)
    assert not c.invalidate(0)


def test_line_address_alignment():
    c = small_cache()
    assert c.line_address(100) == 64
    assert c.line_address(64) == 64


def test_dirty_line_count():
    c = small_cache()
    c.fill(0, dirty=True)
    c.fill(64, dirty=True)
    c.fill(128, dirty=False)
    assert c.dirty_line_count() == 2


def test_dirty_lru_blocks_returns_lru_first():
    c = small_cache(assoc=4, sets=1)
    for i in range(4):
        c.fill(i * 64, dirty=True)
    c.access(0, False)        # 0 most recent
    out = c.dirty_lru_blocks(2)
    assert out == [64, 128]


def test_dirty_lru_respects_limit():
    c = small_cache()
    for i in range(6):
        c.fill(i * 64, dirty=True)
    assert len(c.dirty_lru_blocks(3)) == 3


def test_clean_blocks_marks_clean():
    c = small_cache()
    c.fill(0, dirty=True)
    cleaned = c.clean_blocks([0])
    assert cleaned == [0]
    assert not c.is_dirty(0)
    assert c.stats.cleaned == 1


def test_clean_blocks_skips_missing_and_clean():
    c = small_cache()
    c.fill(0, dirty=False)
    assert c.clean_blocks([0, 999 * 64]) == []


def test_cleaned_rewrite_counted():
    """A line cleaned then re-dirtied is the Figure 14 overhead."""
    c = small_cache()
    c.fill(0, dirty=True)
    c.clean_blocks([0])
    c.access(0, True)
    assert c.stats.cleaned_rewrites == 1


def test_cleaned_rewrite_forgotten_on_rewrite_and_eviction():
    """Clean -> rewrite counts once; a cleaned line that is evicted and
    refilled is a new line, so rewriting it is not a cleaned rewrite."""
    c = small_cache(assoc=2, sets=1)
    c.fill(0, dirty=True)
    c.clean_blocks([0])
    c.access(0, True)             # rewrite: counted, no longer cleaned
    c.clean_blocks([0])
    c.access(0, True)             # cleaned again, rewritten again
    assert c.stats.cleaned_rewrites == 2
    c.clean_blocks([0])
    c.fill(64)
    assert c.fill(128) is None    # evicts the cleaned (clean) line 0
    assert not c.contains(0)
    c.fill(0)                     # refill the same tag, clean
    c.access(0, True)
    assert c.stats.cleaned_rewrites == 2
    c.access(0, True)             # dirty already: never counted
    assert c.stats.cleaned_rewrites == 2


def _dirty_lru_reference(cache, limit):
    """The walk as first written: per LRU depth, per set, copy the
    set's items and take the way at that depth if it is dirty."""
    out = []
    for depth in range(cache.assoc):
        for idx, ways in enumerate(cache._sets):
            items = list(ways.items())
            if depth < len(items) and items[depth][1]:
                out.append(cache._rebuild(idx, items[depth][0]))
                if len(out) >= limit:
                    return out
    return out


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from(((1, 1), (2, 4), (4, 8), (8, 2))),
       st.lists(st.tuples(st.integers(0, 63), st.booleans()), max_size=120),
       st.integers(1, 40))
def test_dirty_lru_blocks_matches_reference_walk(geometry, ops, limit):
    assoc, sets = geometry
    c = small_cache(assoc=assoc, sets=sets)
    for line, write in ops:
        if not c.access(line * LINE_BYTES, write):
            c.fill(line * LINE_BYTES, dirty=write)
    assert c.dirty_lru_blocks(limit) == _dirty_lru_reference(c, limit)


@pytest.mark.parametrize("limit", (0, -3))
def test_dirty_lru_blocks_empty_for_nonpositive_limit(limit):
    c = small_cache()
    c.fill(0, dirty=True)
    assert c.dirty_lru_blocks(limit) == []


def test_warm_fills_every_way():
    c = small_cache(assoc=4, sets=8)
    inserted = c.warm(random.Random(0), dirty_prob=1.0)
    assert inserted == 32
    assert c.dirty_line_count() == 32


def test_warm_respects_max_line():
    c = small_cache(assoc=2, sets=4)
    c.warm(random.Random(0), max_line=1000)
    for ways in c._sets:
        for tag in ways:
            assert tag <= max(1, 1000 >> (c.nsets.bit_length() - 1))


def _warm_reference(cache, rng, dirty_prob=0.0, max_line=None):
    """The randrange-per-draw warm-up that Cache.warm must reproduce
    draw for draw (set contents and LRU order, return value, RNG state).
    Fills min(assoc, tags) ways so small footprints terminate."""
    ntags = 1 << 24
    if max_line is not None:
        ntags = max(1, max_line >> (cache.nsets.bit_length() - 1))
    inserted = 0
    for ways in cache._sets:
        while len(ways) < min(cache.assoc, ntags):
            tag = rng.randrange(ntags)
            if tag in ways:
                continue
            ways[tag] = rng.random() < dirty_prob
            inserted += 1
    return inserted


#: (size, assoc): an L1, the L2, Hierarchy1's 14-way LLC (2,048 of its
#: 32,768 sets, to keep the test fast) and the small 16-way LLC.
WARM_GEOMETRIES = ((32 << 10, 8), (1 << 20, 16), (14 * 64 * 2048, 14),
                   (2 << 20, 16))


@pytest.mark.parametrize("size,assoc", WARM_GEOMETRIES)
@pytest.mark.parametrize("dirty_prob", (0.0, 0.3, 1.0))
def test_warm_draws_the_randrange_stream(size, assoc, dirty_prob):
    nsets = size // (assoc * LINE_BYTES)
    set_bits = nsets.bit_length() - 1
    # No bound, then tag counts just above and just below a power of
    # two: the most and the fewest rejected getrandbits draws.
    for max_line in (None, ((1 << 9) + 1) << set_bits,
                     ((1 << 9) << set_bits) - 1):
        ref, new = Cache(size, assoc), Cache(size, assoc)
        ref_rng, new_rng = random.Random(11), random.Random(11)
        expected = _warm_reference(ref, ref_rng, dirty_prob, max_line)
        assert new.warm(new_rng, dirty_prob, max_line) == expected
        assert [list(w.items()) for w in new._sets] == \
            [list(w.items()) for w in ref._sets]
        assert new_rng.getstate() == ref_rng.getstate()


class _BoundedRandom(random.Random):
    """Fails instead of spinning once a warm-up draws far too often."""

    def getrandbits(self, k):
        self.draws = getattr(self, "draws", 0) + 1
        if self.draws > 100_000:
            raise AssertionError("warm-up did not terminate")
        return super().getrandbits(k)


def test_warm_terminates_when_footprint_has_fewer_tags_than_ways():
    c = Cache(4 * 4 * 64, 4)                  # 4 sets of 4 ways
    # max_line=8 leaves 2 distinct tags per set: fill 2 ways, not 4.
    assert c.warm(_BoundedRandom(0), max_line=8) == 8
    assert [sorted(ways) for ways in c._sets] == [[0, 1]] * 4


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 31), min_size=1, max_size=200),
       st.integers(0, 2**31 - 1))
def test_lru_against_reference_model(lines, seed):
    """The cache must evict exactly what a reference LRU list would."""
    assoc, sets = 4, 1
    c = Cache(assoc * sets * LINE_BYTES, assoc)
    reference = []            # LRU order, front = oldest
    for line in lines:
        addr = line * LINE_BYTES
        hit = c.access(addr, False)
        assert hit == (addr in reference)
        if hit:
            reference.remove(addr)
            reference.append(addr)
        else:
            victim = c.fill(addr)
            if len(reference) >= assoc:
                expected_victim = reference.pop(0)
                # Clean victims return None but must match identity.
                assert not c.contains(expected_victim)
            reference.append(addr)
