"""Systematic Reed-Solomon codes over GF(2^8).

The Bamboo ECC layout (Kim et al., HPCA'15) used by the paper computes
eight Reed-Solomon check bytes over all 64 data bytes of a memory block.
This module implements the underlying RS machinery:

* systematic encoding with a degree-``nparity`` generator polynomial,
* syndrome computation (all-zero syndromes <=> valid codeword),
* full decoding (Berlekamp-Massey + Chien search + Forney) used when a
  conventional controller *corrects* errors in original blocks, and
* detect-only decoding used by Hetero-DMR on copies.

A Reed-Solomon code with ``nparity`` check symbols has minimum distance
``nparity + 1``; it is therefore **guaranteed** to detect any error that
corrupts up to ``nparity`` symbols of the codeword, and it can correct
up to ``nparity // 2`` symbol errors.

Polynomials are represented highest-degree-coefficient-first, matching
:mod:`repro.ecc.gf256`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence, Tuple

from .gf256 import (FIELD_ORDER, gf_div, gf_exp, gf_inv, gf_mul, gf_pow,
                    poly_add, poly_divmod, poly_eval, poly_mul, poly_scale)


@lru_cache(maxsize=None)
def _generator_poly(nparity: int) -> Tuple[int, ...]:
    """Generator polynomial with roots alpha^0..alpha^(nparity-1),
    highest-degree-coefficient-first (monic)."""
    g = [1]
    for i in range(nparity):
        g = poly_mul(g, [1, gf_exp(i)])
    return tuple(g)


@lru_cache(maxsize=None)
def _encode_rows(nparity: int) -> Tuple[Tuple[int, ...], ...]:
    """Precomputed LFSR feedback rows for systematic encoding.

    ``_encode_rows(p)[c][j] == gf_mul(generator[j + 1], c)`` — the
    products a feedback byte ``c`` injects into each shift-register
    cell.  Building the 256-row table once per parity width turns the
    per-message-byte inner loop of :meth:`ReedSolomon.encode` into
    table lookups and XORs (no ``gf_mul`` calls on the hot path).  The
    table is shared by every codec instance with the same ``nparity``.
    """
    taps = _generator_poly(nparity)[1:]
    return tuple(tuple(gf_mul(t, c) for t in taps) for c in range(256))


class DecodeFailure(Exception):
    """Raised when correction is requested but the error pattern exceeds
    the code's correction capability in a *detectable* way."""


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of a full (detect-and-correct) decode.

    Attributes:
        corrected: the repaired message symbols.
        error_positions: codeword indices that were repaired.
        detected: whether any error was detected at all.
    """
    corrected: List[int]
    error_positions: List[int]
    detected: bool


class ReedSolomon:
    """A shortened systematic RS code with ``nparity`` check symbols.

    ``message_len`` is the number of message symbols per codeword; the
    codeword length is ``message_len + nparity`` and must not exceed 255.
    """

    def __init__(self, message_len: int, nparity: int = 8):
        if message_len <= 0:
            raise ValueError("message_len must be positive")
        if nparity <= 0:
            raise ValueError("nparity must be positive")
        if message_len + nparity > FIELD_ORDER:
            raise ValueError("codeword longer than GF(2^8) allows")
        self.message_len = message_len
        self.nparity = nparity
        self.codeword_len = message_len + nparity
        self._generator = self._build_generator(nparity)
        self._rows = _encode_rows(nparity)

    @staticmethod
    def _build_generator(nparity: int) -> List[int]:
        return list(_generator_poly(nparity))

    # -- encoding -----------------------------------------------------------

    def encode(self, message: Sequence[int]) -> List[int]:
        """Return the full systematic codeword ``message + parity``.

        Table-driven LFSR division: each message byte's feedback term
        indexes a precomputed generator-product row, so the inner loop
        is XOR-and-shift only.  Produces bit-identical parity to
        polynomial long division by the generator (tested)."""
        message = self._check_symbols(message, self.message_len, "message")
        rows = self._rows
        nparity = self.nparity
        last = nparity - 1
        reg = [0] * nparity
        for m in message:
            row = rows[m ^ reg[0]]
            for j in range(last):
                reg[j] = reg[j + 1] ^ row[j]
            reg[last] = row[last]
        return list(message) + reg

    def parity_of(self, message: Sequence[int]) -> List[int]:
        """Return only the parity symbols for ``message``."""
        return self.encode(message)[self.message_len:]

    # -- detection ----------------------------------------------------------

    def syndromes(self, codeword: Sequence[int]) -> List[int]:
        """Evaluate the received word at the code roots alpha^0..alpha^(p-1)."""
        codeword = self._check_symbols(
            codeword, self.codeword_len, "codeword")
        return [poly_eval(codeword, gf_exp(i)) for i in range(self.nparity)]

    def detect(self, codeword: Sequence[int]) -> bool:
        """True when the received word is NOT a valid codeword.

        This is the detect-only decode Hetero-DMR applies to copies: it
        stops after syndrome computation and never attempts correction,
        so it can never miscorrect.
        """
        return any(s != 0 for s in self.syndromes(codeword))

    # -- correction ---------------------------------------------------------

    def decode(self, codeword: Sequence[int]) -> DecodeResult:
        """Full decode: detect and, if possible, correct.

        Raises :class:`DecodeFailure` when errors are detected but are
        uncorrectable *and the decoder can tell*.  Error patterns beyond
        ``nparity // 2`` symbols may silently miscorrect — exactly the
        hazard the paper's detect-only policy avoids.
        """
        received = list(
            self._check_symbols(codeword, self.codeword_len, "codeword"))
        synd = [poly_eval(received, gf_exp(i)) for i in range(self.nparity)]
        if all(s == 0 for s in synd):
            return DecodeResult(received[:self.message_len], [], False)
        locator = self._find_error_locator(synd)
        nerrors = len(locator) - 1
        if nerrors > self.nparity // 2:
            raise DecodeFailure("error locator degree exceeds t")
        positions = self._find_error_positions(locator)
        if len(positions) != nerrors:
            raise DecodeFailure("locator roots do not match its degree")
        repaired = self._correct_errata(received, synd, positions)
        if any(poly_eval(repaired, gf_exp(i)) != 0
               for i in range(self.nparity)):
            raise DecodeFailure("post-correction syndromes nonzero")
        return DecodeResult(repaired[:self.message_len], positions, True)

    # -- internals ----------------------------------------------------------

    def _find_error_locator(self, synd: Sequence[int]) -> List[int]:
        """Berlekamp-Massey; returns the locator highest-degree-first."""
        err_loc = [1]
        old_loc = [1]
        for i in range(self.nparity):
            delta = synd[i]
            for j in range(1, len(err_loc)):
                delta ^= gf_mul(err_loc[-(j + 1)], synd[i - j])
            old_loc = old_loc + [0]
            if delta != 0:
                if len(old_loc) > len(err_loc):
                    new_loc = poly_scale(old_loc, delta)
                    old_loc = poly_scale(err_loc, gf_inv(delta))
                    err_loc = new_loc
                err_loc = poly_add(err_loc, poly_scale(old_loc, delta))
        while len(err_loc) > 1 and err_loc[0] == 0:
            err_loc = err_loc[1:]
        return err_loc

    def _find_error_positions(self, locator: Sequence[int]) -> List[int]:
        """Chien search over the (shortened) codeword positions.

        The locator has a root at alpha^(-c) for an error whose symbol
        multiplies x^c in the codeword polynomial, so we probe the
        inverse powers for every in-range coefficient position.
        """
        positions = []
        for coef_pos in range(self.codeword_len):
            if poly_eval(locator, gf_pow(gf_exp(1), -coef_pos)) == 0:
                positions.append(self.codeword_len - 1 - coef_pos)
        return sorted(positions)

    def _correct_errata(self, received: List[int], synd: Sequence[int],
                        positions: Sequence[int]) -> List[int]:
        """Forney algorithm: compute magnitudes at known positions."""
        coef_pos = [self.codeword_len - 1 - p for p in positions]
        # Errata locator from the known positions.
        loc = [1]
        for cp in coef_pos:
            loc = poly_mul(loc, poly_add([1], [gf_exp(cp), 0]))
        # Error evaluator Omega(x) = S(x) * Lambda(x) mod x^(2t), where
        # S(x) = sum_k S_k x^k.  For GF(2^m) codes with roots at
        # alpha^0..alpha^(2t-1) the Forney magnitude reduces to
        # e_j = Omega(X_j^-1) / prod_{l != j} (1 - X_l X_j^-1).
        product = poly_mul(list(reversed(list(synd))), loc)
        _, err_eval = poly_divmod(product, [1] + [0] * self.nparity)
        x_vals = [gf_pow(gf_exp(1), cp) for cp in coef_pos]
        for i, pos in enumerate(positions):
            xi_inv = gf_inv(x_vals[i])
            loc_prime = 1
            for j, xj in enumerate(x_vals):
                if j != i:
                    loc_prime = gf_mul(loc_prime, 1 ^ gf_mul(xi_inv, xj))
            if loc_prime == 0:
                raise DecodeFailure("Forney derivative is zero")
            y = poly_eval(err_eval, xi_inv)
            received[pos] ^= gf_div(y, loc_prime)
        return received

    @staticmethod
    def _check_symbols(symbols: Sequence[int], expected_len: int,
                       what: str) -> Sequence[int]:
        if len(symbols) != expected_len:
            raise ValueError(
                "{} length must be {}, got {}".format(
                    what, expected_len, len(symbols)))
        if any(not 0 <= s <= 255 for s in symbols):
            raise ValueError("{} symbols must be bytes (0..255)".format(what))
        return symbols


def undetected_error_probability(nparity: int = 8) -> float:
    """Probability that a *random* >nparity-byte error pattern passes the
    syndrome check: 1 / 2^(8 * nparity).  Section III-B computes this as
    1/2^64 for the eight ECC bytes."""
    return 1.0 / float(2 ** (8 * nparity))
