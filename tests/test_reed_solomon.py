"""Unit and property tests for the RS(72,64) codec."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.ecc.reed_solomon import (DecodeFailure, ReedSolomon,
                                    undetected_error_probability)

RS = ReedSolomon(64, 8)


def _random_message(rng):
    return [rng.randrange(256) for _ in range(64)]


def test_geometry():
    assert RS.codeword_len == 72
    assert RS.nparity == 8


def test_rejects_oversized_code():
    with pytest.raises(ValueError):
        ReedSolomon(250, 8)


def test_rejects_bad_params():
    with pytest.raises(ValueError):
        ReedSolomon(0, 8)
    with pytest.raises(ValueError):
        ReedSolomon(10, 0)


def test_encode_is_systematic():
    msg = list(range(64))
    cw = RS.encode(msg)
    assert cw[:64] == msg


def test_encode_wrong_length_raises():
    with pytest.raises(ValueError):
        RS.encode([0] * 10)


def test_encode_rejects_non_bytes():
    with pytest.raises(ValueError):
        RS.encode([300] + [0] * 63)


def test_clean_codeword_no_detection():
    cw = RS.encode([7] * 64)
    assert not RS.detect(cw)
    assert RS.syndromes(cw) == [0] * 8


def test_parity_of_matches_encode():
    msg = list(range(64))
    assert RS.parity_of(msg) == RS.encode(msg)[64:]


def test_detect_single_byte():
    cw = RS.encode([0] * 64)
    for pos in (0, 31, 63, 64, 71):
        bad = list(cw)
        bad[pos] ^= 0xFF
        assert RS.detect(bad)


def test_decode_clean_returns_message():
    msg = list(range(64))
    res = RS.decode(RS.encode(msg))
    assert res.corrected == msg
    assert not res.detected
    assert res.error_positions == []


def test_correct_up_to_four_errors():
    rng = random.Random(1)
    for nerr in (1, 2, 3, 4):
        msg = _random_message(rng)
        cw = RS.encode(msg)
        pos = rng.sample(range(72), nerr)
        for p in pos:
            cw[p] ^= rng.randrange(1, 256)
        res = RS.decode(cw)
        assert res.corrected == msg
        assert sorted(res.error_positions) == sorted(pos)


def test_errors_in_parity_corrected():
    msg = [9] * 64
    cw = RS.encode(msg)
    cw[70] ^= 0x42
    assert RS.decode(cw).corrected == msg


def test_five_errors_not_silently_wrong_often():
    # t+1 errors either raise or (rarely) miscorrect; but detection
    # itself must always fire for <=8 corrupted bytes.
    rng = random.Random(2)
    for _ in range(50):
        msg = _random_message(rng)
        cw = RS.encode(msg)
        for p in rng.sample(range(72), 5):
            cw[p] ^= rng.randrange(1, 256)
        assert RS.detect(cw)


def test_undetected_probability_value():
    assert undetected_error_probability(8) == pytest.approx(2.0 ** -64)
    assert undetected_error_probability(4) == pytest.approx(2.0 ** -32)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 8))
def test_detection_guarantee_up_to_eight_bytes(seed, nerr):
    """Minimum distance 9: any <=8-byte corruption is detected."""
    rng = random.Random(seed)
    msg = _random_message(rng)
    cw = RS.encode(msg)
    for p in rng.sample(range(72), nerr):
        cw[p] ^= rng.randrange(1, 256)
    assert RS.detect(cw)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 4))
def test_correction_roundtrip_property(seed, nerr):
    rng = random.Random(seed)
    msg = _random_message(rng)
    cw = RS.encode(msg)
    for p in rng.sample(range(72), nerr):
        cw[p] ^= rng.randrange(1, 256)
    assert RS.decode(cw).corrected == msg


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_linearity_of_code(seed):
    """The XOR of two codewords is a codeword (linear code)."""
    rng = random.Random(seed)
    cw1 = RS.encode(_random_message(rng))
    cw2 = RS.encode(_random_message(rng))
    both = [a ^ b for a, b in zip(cw1, cw2)]
    assert not RS.detect(both)


def test_other_shapes_roundtrip():
    rng = random.Random(3)
    for k, p in ((32, 8), (10, 4), (64, 16)):
        rs = ReedSolomon(k, p)
        msg = [rng.randrange(256) for _ in range(k)]
        cw = rs.encode(msg)
        for q in rng.sample(range(k + p), p // 2):
            cw[q] ^= rng.randrange(1, 256)
        assert rs.decode(cw).corrected == msg


def _parity_reference(rs, message):
    """Parity by polynomial long division of ``message * x^nparity`` by
    the generator: the oracle for the table-driven encode."""
    from repro.ecc.gf256 import poly_divmod
    _, remainder = poly_divmod(list(message) + [0] * rs.nparity,
                               rs._generator)
    return [0] * (rs.nparity - len(remainder)) + remainder


def test_table_encode_matches_long_division_reference():
    # The table-driven LFSR encode must be bit-identical to polynomial
    # long division for every parity width the codecs use.
    rng = random.Random(20260805)
    for nparity in (1, 2, 4, 8, 16):
        rs = ReedSolomon(32, nparity)
        for _ in range(25):
            msg = [rng.randrange(256) for _ in range(32)]
            assert rs.encode(msg)[32:] == _parity_reference(rs, msg)


def test_encode_rows_are_generator_products():
    from repro.ecc.gf256 import gf_mul
    from repro.ecc.reed_solomon import _encode_rows
    rs = ReedSolomon(64, 8)
    rows = _encode_rows(8)
    assert len(rows) == 256
    for c in (0, 1, 2, 87, 255):
        assert list(rows[c]) == [gf_mul(g, c) for g in rs._generator[1:]]
