"""Memory ECC codes for ReRAM and their BER limits ([51]).

Section III-C: "Error-correction codes (ECC) can also be used in ReRAM
memory, when the bit error rate (BER) is small (e.g., < 1e-5).  However,
due to the limited endurance, more devices will be worn out over time and
eventually the number of hard faults will exceed the ECCs correction
capability."

Three codes share the :class:`EccCode` interface, each with a vectorized
block codec plus a bit-equal scalar reference path (the fast-path-plus-
reference pattern the solver and device kernels follow):

* :class:`HammingSecDed` — the textbook extended Hamming code over a
  configurable data width (default 64 -> the classic (72, 64) memory
  code): single-error correction, double-error detection.
* :class:`BchCode` — a shortened binary BCH code with ``t = 2`` random-
  error correction (syndromes over GF(2^m), closed-form double-error
  locator with a Chien root search).
* :class:`SecDaecCode` — single-error-correct, double-*adjacent*-error-
  correct: the multi-bit-upset code (one upset event disturbs physically
  neighbouring cells).  Built from odd-weight parity-check columns so
  adjacent-pair syndromes (even weight) can never alias a single error.

:class:`EccAnalysis` derives word-failure probabilities analytically and
by Monte Carlo, and combines a code with the endurance simulator to find
the write count at which accumulated hard faults defeat it.
:func:`make_code` is the registry the ECC co-design advisor
(:mod:`repro.testing.ecc_advisor`) sweeps over.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.utils.parallel import run_blocks
from repro.utils.rng import RNGLike, ensure_rng
from repro.utils.validation import check_probability

# Vectorized decode status codes (decode_block); the scalar decode keeps
# its string statuses for readability.
STATUS_OK = 0
STATUS_CORRECTED = 1
STATUS_DETECTED = 2


def _binomial_term(n: int, k: int, p: float, q: float) -> float:
    """``P[X = k]`` for ``X ~ Binomial(n, p)``, with ``q = 1 - p``.  A
    coefficient ``C(n, k)`` beyond float range (``n`` of about 1030 and
    more) prices the term in log space instead; every term whose
    coefficient fits a float is a plain product."""
    coefficient = math.comb(n, k)
    try:
        return coefficient * (p ** k) * (q ** (n - k))
    except OverflowError:
        if p == 0.0 or q == 0.0:
            return 0.0  # 0 < k < n here: C(n, 0) and C(n, n) are 1
        return math.exp(
            math.log(coefficient) + k * math.log(p) + (n - k) * math.log(q)
        )


def _binomial_tail(n: int, p: float, k_min: int) -> float:
    """``P[X >= k_min]`` for ``X ~ Binomial(n, p)``, summed directly over
    the tail.

    Every term is positive, so there is no cancellation — unlike the
    complement form ``1 - P[0] - P[1] - ...`` which loses all precision
    once the tail drops below the complement's rounding noise (~1e-16,
    i.e. exactly the paper's BER < 1e-5 operating regime).  Terms
    (:func:`_binomial_term`) are accumulated smallest-first (``k = n``
    down to ``k_min``) so tiny-``p`` tails stay accurate to a few ulp.
    """
    if k_min <= 0:
        return 1.0
    if k_min > n:
        return 0.0
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 1.0
    q = 1.0 - p
    total = 0.0
    for k in range(n, k_min - 1, -1):
        total += _binomial_term(n, k, p, q)
    return min(total, 1.0)


@functools.lru_cache(maxsize=256)
def _tail_flip_table(
    n: int, t: int, ber: float
) -> Tuple[float, Optional[np.ndarray]]:
    """One word of ``n`` bits at ``ber``: ``(P[K > t], cdf)`` for the flip
    count ``K ~ Binomial(n, ber)``, where ``cdf[i] = P[K <= t + 1 + i |
    K > t]`` (its last entry exactly 1.0).  ``cdf`` is ``None`` when no
    word can exceed ``t`` flips.  The tail (also the analytic word
    failure) sums the CDF's terms in :func:`_binomial_tail`'s order, so
    each term is priced once and the tail is that function's, bit for
    bit.  Cached per ``(n, t, ber)``; the array is read-only."""
    q = 1.0 - ber
    terms = [_binomial_term(n, k, ber, q) for k in range(t + 1, n + 1)]
    tail = 0.0
    for term in reversed(terms):
        tail += term
    tail = min(tail, 1.0)
    if tail == 0.0:
        return tail, None
    cdf = np.cumsum(terms)
    cdf /= cdf[-1]
    cdf.flags.writeable = False
    return tail, cdf


class EccCode:
    """Shared interface every memory ECC implements.

    Attributes ``name``, ``data_bits``, ``codeword_bits`` and
    ``correctable_random`` (``t``: random errors per word the code always
    corrects) describe the code; :meth:`encode`/:meth:`decode` are the
    scalar reference paths and :meth:`encode_block`/:meth:`decode_block`
    the vectorized block codecs, asserted bit-equal by the test suite.

    Every code must be GF(2)-linear and decode by syndrome: the status and
    the correction applied to a received word ``c ^ e`` may depend only on
    the error pattern ``e``, never on the codeword ``c``.  Then
    ``decode_block(c ^ e)`` reports the same status as
    ``decode_block(e)`` and its data differ from ``decode_block(e)``'s by
    exactly ``c``'s data bits, which lets the Monte Carlo (:func:`_mc_block`)
    decode bare error patterns instead of encoded random data.  The test
    suite checks this contract for every registered code.  The Monte
    Carlo also trusts ``correctable_random``: a word with at most ``t``
    flips is counted as corrected without being decoded.
    """

    #: Registry name (what :func:`make_code` and the advisor sweep use).
    name: str = "ecc"
    #: Random errors per codeword the code is guaranteed to correct.
    correctable_random: int = 0

    data_bits: int
    codeword_bits: int

    @property
    def check_bits(self) -> int:
        """Stored check (redundancy) bits per codeword."""
        return self.codeword_bits - self.data_bits

    @property
    def overhead(self) -> float:
        """Check-bit overhead fraction."""
        return self.check_bits / self.data_bits

    def encode(self, data: np.ndarray) -> np.ndarray:
        """Encode ``data_bits`` bits to a ``codeword_bits`` codeword."""
        raise NotImplementedError

    def decode(self, codeword: np.ndarray) -> Tuple[np.ndarray, str]:
        """Decode; returns ``(data, status)`` with ``status`` one of
        ``"ok"`` / ``"corrected"`` / ``"detected"``."""
        raise NotImplementedError

    def encode_block(self, data: np.ndarray) -> np.ndarray:
        """Encode ``(n_words, data_bits)`` to ``(n_words, codeword_bits)``,
        bit-identical to :meth:`encode` row by row."""
        raise NotImplementedError

    def decode_block(
        self, codewords: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Decode ``(n_words, codeword_bits)``; returns ``(data, status)``
        with ``status`` an int array of :data:`STATUS_OK` /
        :data:`STATUS_CORRECTED` / :data:`STATUS_DETECTED` per word,
        mirroring :meth:`decode` exactly (including aliasing behaviour)."""
        raise NotImplementedError

    def word_failure_probability(self, ber: float) -> float:
        """Analytic probability that a codeword suffers more random bit
        errors than the code's guaranteed correction capability —
        ``P[X >= t + 1]`` computed as a stable binomial tail sum
        (:func:`_binomial_tail`), accurate in the BER << 1e-5 regime
        where the historical ``1 - p_ok - p_one`` form cancelled to
        rounding noise; read from :func:`_tail_flip_table`."""
        check_probability("ber", ber)
        return _tail_flip_table(
            self.codeword_bits, self.correctable_random, ber
        )[0]

    # -------------------------------------------------- validation helpers
    def _check_data_block(self, data: np.ndarray) -> np.ndarray:
        data = np.asarray(data).astype(np.int8)
        if data.ndim != 2 or data.shape[1] != self.data_bits:
            raise ValueError(
                f"data must have shape (n_words, {self.data_bits}), "
                f"got {data.shape}"
            )
        if np.any((data != 0) & (data != 1)):
            raise ValueError("data must be binary")
        return data

    def _check_code_block(self, codewords: np.ndarray) -> np.ndarray:
        code = np.asarray(codewords).astype(np.int8)
        if code.ndim != 2 or code.shape[1] != self.codeword_bits:
            raise ValueError(
                f"codewords must have shape (n_words, {self.codeword_bits}), "
                f"got {code.shape}"
            )
        return code  # astype copied, so decoders may correct in place

    def _check_data(self, data: np.ndarray) -> np.ndarray:
        data = np.asarray(data).astype(np.int8)
        if data.shape != (self.data_bits,):
            raise ValueError(
                f"data must have shape ({self.data_bits},), got {data.shape}"
            )
        if np.any((data != 0) & (data != 1)):
            raise ValueError("data must be binary")
        return data

    def _check_codeword(self, codeword: np.ndarray) -> np.ndarray:
        code = np.asarray(codeword).astype(np.int8)
        if code.shape != (self.codeword_bits,):
            raise ValueError(
                f"codeword must have shape ({self.codeword_bits},), "
                f"got {code.shape}"
            )
        return code.copy()


class HammingSecDed(EccCode):
    """Extended Hamming code: single-error correct, double-error detect.

    Parity bits sit at power-of-two positions of the (1-indexed) Hamming
    layout plus one overall-parity bit, following the standard memory-ECC
    construction.
    """

    name = "secded"
    correctable_random = 1

    def __init__(self, data_bits: int = 64) -> None:
        if data_bits < 1:
            raise ValueError(f"data_bits must be >= 1, got {data_bits}")
        self.data_bits = data_bits
        # Smallest r with 2^r >= data_bits + r + 1.
        r = 1
        while (1 << r) < data_bits + r + 1:
            r += 1
        self.parity_bits = r
        self.codeword_bits = data_bits + r + 1  # +1 overall parity
        # Precomputed index sets for the vectorized block codec.  The
        # codeword layout stores the overall-parity bit at index 0 and the
        # 1-indexed Hamming positions at 1..n_hamming.
        n_hamming = data_bits + r
        positions = np.arange(1, n_hamming + 1)
        self._data_positions = positions[(positions & (positions - 1)) != 0]
        # Per parity bit p: the positions it covers (for encode, excluding
        # the parity position itself; for the syndrome, including it).
        self._encode_cols = [
            positions[((positions & (1 << p)) != 0) & (positions != (1 << p))]
            for p in range(r)
        ]
        self._syndrome_cols = [
            positions[(positions & (1 << p)) != 0] for p in range(r)
        ]

    def encode(self, data: np.ndarray) -> np.ndarray:
        """Encode ``data_bits`` bits to a ``codeword_bits`` codeword."""
        data = self._check_data(data)
        n_hamming = self.data_bits + self.parity_bits
        code = np.zeros(n_hamming + 1, dtype=np.int8)  # index 0 = overall parity
        # Place data bits at non-power-of-two positions (1-indexed layout
        # stored at code[1..n_hamming]).
        data_iter = iter(data)
        for pos in range(1, n_hamming + 1):
            if pos & (pos - 1) != 0:  # not a power of two
                code[pos] = next(data_iter)
        # Compute Hamming parity bits.
        for p in range(self.parity_bits):
            mask = 1 << p
            parity = 0
            for pos in range(1, n_hamming + 1):
                if pos & mask and pos != mask:
                    parity ^= int(code[pos])
            code[mask] = parity
        # Overall parity over everything.
        code[0] = int(np.sum(code[1:]) % 2)
        return code

    def decode(self, codeword: np.ndarray) -> Tuple[np.ndarray, str]:
        """Decode; returns (data, status).

        ``status`` is one of ``"ok"`` (no error), ``"corrected"`` (single
        error fixed), ``"detected"`` (double error, uncorrectable).
        Triple-and-beyond errors may alias — that is the fundamental
        SEC-DED limitation the BER analysis quantifies.
        """
        code = self._check_codeword(codeword)
        n_hamming = self.codeword_bits - 1
        syndrome = 0
        for p in range(self.parity_bits):
            mask = 1 << p
            parity = 0
            for pos in range(1, n_hamming + 1):
                if pos & mask:
                    parity ^= int(code[pos])
            if parity:
                syndrome |= mask
        overall = int(np.sum(code) % 2)

        if syndrome == 0 and overall == 0:
            status = "ok"
        elif overall == 1:
            # Odd number of flips; assume single and correct it.
            if syndrome == 0:
                code[0] ^= 1  # the overall parity bit itself flipped
            elif syndrome <= n_hamming:
                code[syndrome] ^= 1
            status = "corrected"
        else:
            # Even flips with nonzero syndrome: double error detected.
            status = "detected"

        data = np.array(
            [code[pos] for pos in range(1, n_hamming + 1)
             if pos & (pos - 1) != 0],
            dtype=np.int8,
        )
        return data, status

    # --------------------------------------------------- vectorized block API
    def encode_block(self, data: np.ndarray) -> np.ndarray:
        """Encode ``(n_words, data_bits)`` to ``(n_words, codeword_bits)``.

        Bit-identical to :meth:`encode` applied row by row, but all parity
        computations run as column reductions over the whole block — the
        backend the Monte Carlo failure-rate sweep batches trials through.
        """
        data = self._check_data_block(data)
        n_words = data.shape[0]
        code = np.zeros((n_words, self.codeword_bits), dtype=np.int8)
        code[:, self._data_positions] = data
        for p in range(self.parity_bits):
            code[:, 1 << p] = code[:, self._encode_cols[p]].sum(axis=1) % 2
        code[:, 0] = code[:, 1:].sum(axis=1) % 2
        return code

    def decode_block(
        self, codewords: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Decode ``(n_words, codeword_bits)``; returns ``(data, status)``
        with ``status`` an int array of :data:`STATUS_OK` /
        :data:`STATUS_CORRECTED` / :data:`STATUS_DETECTED` per word.

        Mirrors :meth:`decode` exactly (including the aliasing behaviour
        on >= 3 flips), with the syndrome computed as masked column sums
        over the block.
        """
        code = self._check_code_block(codewords)
        n_words = code.shape[0]
        n_hamming = self.codeword_bits - 1
        syndrome = np.zeros(n_words, dtype=np.int64)
        for p in range(self.parity_bits):
            parity = code[:, self._syndrome_cols[p]].sum(axis=1) % 2
            syndrome |= parity.astype(np.int64) << p
        overall = code.sum(axis=1) % 2

        status = np.full(n_words, STATUS_DETECTED, dtype=np.int8)
        ok = (syndrome == 0) & (overall == 0)
        corrected = overall == 1
        status[ok] = STATUS_OK
        status[corrected] = STATUS_CORRECTED
        # Odd flip count, zero syndrome: the overall-parity bit itself.
        flip_overall = corrected & (syndrome == 0)
        code[flip_overall, 0] ^= 1
        # Odd flip count, addressable syndrome: flip the indicated bit.
        flip_pos = corrected & (syndrome > 0) & (syndrome <= n_hamming)
        rows = np.nonzero(flip_pos)[0]
        code[rows, syndrome[rows]] ^= 1
        return code[:, self._data_positions], status


class SecDaecCode(EccCode):
    """Single-error-correct, double-*adjacent*-error-correct code.

    The multi-bit-upset code: one physical upset event in a dense ReRAM
    array disturbs neighbouring cells, so the dominant multi-bit pattern
    is two *adjacent* flips, not two random ones.  The parity-check matrix
    uses only odd-weight columns for data bits and unit (weight-1) columns
    for the check tail, so:

    * single-error syndromes (one column) have odd weight,
    * adjacent-double syndromes (XOR of two odd columns) have even weight,

    and the two classes can never collide.  Columns are assigned greedily
    in increasing numeric order under the constraint that all adjacent-pair
    XORs stay pairwise distinct, retrying with one more check bit when the
    greedy pass runs dry — deterministic for a given ``data_bits``.

    Codeword layout: ``[d0 .. d_{k-1}, c0 .. c_{r-1}]`` (systematic).
    Non-adjacent double errors are *not* guaranteed: they either get
    detected or alias to a correctable pattern, exactly like >= 3 random
    flips under SEC-DED — the coverage analysis quantifies that.
    """

    name = "secdaec"
    correctable_random = 1

    def __init__(self, data_bits: int = 64) -> None:
        if data_bits < 1:
            raise ValueError(f"data_bits must be >= 1, got {data_bits}")
        self.data_bits = data_bits
        # Start from the Hamming bound and grow until the greedy odd-weight
        # column assignment succeeds.
        r = 1
        while (1 << r) < data_bits + r + 1:
            r += 1
        columns = None
        while columns is None:
            columns = self._greedy_columns(data_bits, r)
            if columns is None:
                r += 1
        self.parity_bits = r
        self.codeword_bits = data_bits + r
        self._columns = columns
        # H as a (codeword_bits, r) bit matrix for the vectorized syndrome.
        self._h_bits = np.array(
            [[(c >> b) & 1 for b in range(r)] for c in columns],
            dtype=np.int8,
        )
        self._pow2 = (1 << np.arange(r)).astype(np.int64)
        # Syndrome lookup tables.  Odd-weight syndromes resolve to a single
        # position, even-weight ones to the first bit of an adjacent pair;
        # -1 marks an unassigned syndrome (>= 3 flips -> detected).
        self._single_pos = np.full(1 << r, -1, dtype=np.int64)
        for i, col in enumerate(columns):
            self._single_pos[col] = i
        self._pair_pos = np.full(1 << r, -1, dtype=np.int64)
        for i in range(len(columns) - 1):
            self._pair_pos[columns[i] ^ columns[i + 1]] = i
        # Encode: check bit j = XOR of the data bits whose column has bit j.
        self._encode_cols = [
            np.nonzero(self._h_bits[:data_bits, j])[0] for j in range(r)
        ]

    @staticmethod
    def _greedy_columns(k: int, r: int) -> Optional[List[int]]:
        """Assign ``k`` odd-weight (>= 3) data columns over ``r`` check
        bits with all adjacent-pair XOR syndromes distinct; ``None`` if the
        greedy pass runs out of candidates (caller retries with r + 1)."""
        units = [1 << j for j in range(r)]
        used_singles = set(units)
        used_pairs = {units[j] ^ units[j + 1] for j in range(r - 1)}
        columns: List[int] = []
        for i in range(k):
            prev = columns[-1] if columns else None
            last = i == k - 1
            chosen = None
            for cand in range(7, 1 << r):
                weight = bin(cand).count("1")
                if weight < 3 or weight % 2 == 0:
                    continue
                if cand in used_singles:
                    continue
                pair = None if prev is None else prev ^ cand
                if pair is not None and pair in used_pairs:
                    continue
                # The last data column is also adjacent to check bit 0.
                tail = cand ^ units[0] if last else None
                if tail is not None and (tail in used_pairs or tail == pair):
                    continue
                chosen = cand
                used_singles.add(cand)
                if pair is not None:
                    used_pairs.add(pair)
                if tail is not None:
                    used_pairs.add(tail)
                break
            if chosen is None:
                return None
            columns.append(chosen)
        return columns + units

    def encode(self, data: np.ndarray) -> np.ndarray:
        """Encode ``data_bits`` bits to a ``codeword_bits`` codeword
        (scalar reference path: per-bit Python loop)."""
        data = self._check_data(data)
        code = np.zeros(self.codeword_bits, dtype=np.int8)
        code[: self.data_bits] = data
        for j in range(self.parity_bits):
            parity = 0
            for i in range(self.data_bits):
                if (self._columns[i] >> j) & 1:
                    parity ^= int(code[i])
            code[self.data_bits + j] = parity
        return code

    def decode(self, codeword: np.ndarray) -> Tuple[np.ndarray, str]:
        """Decode; returns ``(data, status)``.

        Zero syndrome -> ``"ok"``; odd-weight syndrome -> single-error
        lookup; even-weight syndrome -> adjacent-pair lookup; any lookup
        miss -> ``"detected"``.
        """
        code = self._check_codeword(codeword)
        syndrome = 0
        for i in range(self.codeword_bits):
            if code[i]:
                syndrome ^= self._columns[i]
        if syndrome == 0:
            return code[: self.data_bits].copy(), "ok"
        if bin(syndrome).count("1") % 2 == 1:
            pos = int(self._single_pos[syndrome])
            if pos >= 0:
                code[pos] ^= 1
                return code[: self.data_bits].copy(), "corrected"
            return code[: self.data_bits].copy(), "detected"
        pos = int(self._pair_pos[syndrome])
        if pos >= 0:
            code[pos] ^= 1
            code[pos + 1] ^= 1
            return code[: self.data_bits].copy(), "corrected"
        return code[: self.data_bits].copy(), "detected"

    # --------------------------------------------------- vectorized block API
    def encode_block(self, data: np.ndarray) -> np.ndarray:
        """Encode ``(n_words, data_bits)``; bit-identical to :meth:`encode`
        row by row, with every check bit a column reduction."""
        data = self._check_data_block(data)
        n_words = data.shape[0]
        code = np.zeros((n_words, self.codeword_bits), dtype=np.int8)
        code[:, : self.data_bits] = data
        for j in range(self.parity_bits):
            code[:, self.data_bits + j] = (
                code[:, self._encode_cols[j]].sum(axis=1) % 2
            )
        return code

    def decode_block(
        self, codewords: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Decode ``(n_words, codeword_bits)``; mirrors :meth:`decode`
        exactly via one syndrome matmul and two table lookups."""
        code = self._check_code_block(codewords)
        n_words = code.shape[0]
        syn_bits = (code.astype(np.int64) @ self._h_bits.astype(np.int64)) % 2
        syndrome = syn_bits @ self._pow2
        status = np.full(n_words, STATUS_DETECTED, dtype=np.int8)
        status[syndrome == 0] = STATUS_OK
        # Odd-weight syndromes only ever hit _single_pos (all columns are
        # odd weight) and even-weight ones only _pair_pos, so the two
        # lookups cannot both fire for a word.
        single = self._single_pos[syndrome]
        rows = np.nonzero(single >= 0)[0]
        code[rows, single[rows]] ^= 1
        status[rows] = STATUS_CORRECTED
        pair = self._pair_pos[syndrome]
        rows = np.nonzero(pair >= 0)[0]
        code[rows, pair[rows]] ^= 1
        code[rows, pair[rows] + 1] ^= 1
        status[rows] = STATUS_CORRECTED
        return code[:, : self.data_bits], status

    def word_failure_probability(self, ber: float) -> float:
        """``P[>= 2 random errors]`` minus the exactly-two-*adjacent*
        patterns the code additionally corrects (``n - 1`` such patterns,
        each with probability ``ber^2 (1 - ber)^(n-2)``)."""
        check_probability("ber", ber)
        n = self.codeword_bits
        tail, _ = _tail_flip_table(n, 1, ber)  # P[K >= 2]
        adjacent = (n - 1) * ber * ber * (1.0 - ber) ** (n - 2)
        return max(tail - adjacent, 0.0)


# Primitive polynomials for GF(2^m), x^m term included (bit m set).
_PRIMITIVE_POLY: Dict[int, int] = {
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
}


class _GF2m:
    """GF(2^m) arithmetic via log/antilog tables over a primitive root."""

    def __init__(self, m: int) -> None:
        if m not in _PRIMITIVE_POLY:
            raise ValueError(
                f"no primitive polynomial tabulated for m={m}; "
                f"supported: {sorted(_PRIMITIVE_POLY)}"
            )
        self.m = m
        self.order = (1 << m) - 1
        prim = _PRIMITIVE_POLY[m]
        exp = np.zeros(self.order, dtype=np.int64)
        log = np.zeros(1 << m, dtype=np.int64)
        x = 1
        for i in range(self.order):
            exp[i] = x
            log[x] = i
            x <<= 1
            if x & (1 << m):
                x ^= prim
        self.exp = exp
        self.log = log

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self.exp[(int(self.log[a]) + int(self.log[b])) % self.order])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(2^m)")
        return int(self.exp[(self.order - int(self.log[a])) % self.order])

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            return 0
        return int(self.exp[(int(self.log[a]) * e) % self.order])

    def minimal_polynomial(self, j: int) -> int:
        """GF(2) minimal polynomial of ``alpha^j`` as an int bitmask
        (coefficient of ``x^i`` at bit ``i``)."""
        coset = set()
        e = j % self.order
        while e not in coset:
            coset.add(e)
            e = (e * 2) % self.order
        # Product of (x + alpha^c) over the cyclotomic coset, expanded with
        # GF(2^m) coefficients (they collapse to GF(2) by construction).
        poly = [1]
        for c in sorted(coset):
            root = int(self.exp[c])
            nxt = [0] * (len(poly) + 1)
            for i, coef in enumerate(poly):
                nxt[i] ^= self.mul(coef, root)
                nxt[i + 1] ^= coef
            poly = nxt
        mask = 0
        for i, coef in enumerate(poly):
            if coef not in (0, 1):
                raise AssertionError("minimal polynomial not over GF(2)")
            mask |= coef << i
        return mask


def _gf2_polymul(a: int, b: int) -> int:
    """Carry-less multiply of two GF(2) polynomials in int-bitmask form."""
    out = 0
    shift = 0
    while b:
        if b & 1:
            out ^= a << shift
        b >>= 1
        shift += 1
    return out


class BchCode(EccCode):
    """Shortened binary BCH code with ``t = 2`` random-error correction.

    Built over the smallest GF(2^m) whose natural length covers
    ``data_bits`` plus the ``deg g`` check bits, with generator
    ``g(x) = lcm(m_1(x), m_3(x))`` (minimal polynomials of alpha and
    alpha^3).  The default 64-bit word yields the (78, 64) code over
    GF(2^7).  Codeword layout ``[d0 .. d_{k-1}, c0 .. c_{r-1}]`` with
    position ``p`` carrying polynomial power ``codeword_bits - 1 - p``
    (systematic; checks occupy the low powers).

    Decoding is the closed-form DEC procedure: syndromes ``S1 = r(alpha)``
    and ``S3 = r(alpha^3)`` are GF(2)-linear in the received bits (so the
    block path computes them as two binary matmuls); ``S3 == S1^3`` means
    a single error at ``log S1``, otherwise the error-locator quadratic
    ``x^2 + S1 x + (S3 + S1^3)/S1`` is solved by Chien search over the
    (shortened) positions — exactly two in-range roots correct, anything
    else is detected.
    """

    name = "bch"
    correctable_random = 2

    def __init__(self, data_bits: int = 64) -> None:
        if data_bits < 1:
            raise ValueError(f"data_bits must be >= 1, got {data_bits}")
        self.data_bits = data_bits
        field = None
        for m in sorted(_PRIMITIVE_POLY):
            candidate = _GF2m(m)
            generator = _gf2_polymul(
                candidate.minimal_polynomial(1), candidate.minimal_polynomial(3)
            )
            n_checks = generator.bit_length() - 1
            if candidate.order - n_checks >= data_bits:
                field = candidate
                break
        if field is None:
            raise ValueError(
                f"data_bits={data_bits} exceeds the largest tabulated "
                f"GF(2^m) BCH length"
            )
        self.field = field
        self._generator = generator
        self.codeword_bits = data_bits + n_checks
        n_s = self.codeword_bits
        order = field.order
        # Encode matrix from linearity: row i = check bits of unit word i.
        encode_matrix = np.zeros((data_bits, n_checks), dtype=np.int8)
        unit = np.zeros(data_bits, dtype=np.int8)
        for i in range(data_bits):
            unit[:] = 0
            unit[i] = 1
            encode_matrix[i] = self.encode(unit)[data_bits:]
        self._encode_matrix = encode_matrix
        # Syndrome bit matrices: S_j = XOR over set bits p of
        # alpha^(j * power(p)), expanded into m-bit columns.
        powers = np.array([n_s - 1 - p for p in range(n_s)], dtype=np.int64)
        self._syn_bits = []
        for j in (1, 3):
            vals = field.exp[(j * powers) % order]
            bits = ((vals[:, None] >> np.arange(field.m)[None, :]) & 1).astype(
                np.int64
            )
            self._syn_bits.append(bits)
        self._pow2_m = (1 << np.arange(field.m)).astype(np.int64)
        # Chien search tables over valid (shortened) positions.
        self._chien_logx = powers % order  # log alpha^(power(p))
        x_vals = field.exp[self._chien_logx]
        self._chien_x2 = field.exp[(2 * self._chien_logx) % order]
        del x_vals

    def encode(self, data: np.ndarray) -> np.ndarray:
        """Encode ``data_bits`` bits (scalar reference path: polynomial
        long division by the generator in int-bitmask form)."""
        data = self._check_data(data)
        n_s = self.codeword_bits
        n_checks = n_s - self.data_bits
        code = np.zeros(n_s, dtype=np.int8)
        code[: self.data_bits] = data
        rem = 0
        for i in range(self.data_bits):
            if data[i]:
                rem ^= 1 << (n_s - 1 - i)
        for power in range(n_s - 1, n_checks - 1, -1):
            if (rem >> power) & 1:
                rem ^= self._generator << (power - n_checks)
        for j in range(n_checks):
            code[self.data_bits + j] = (rem >> (n_checks - 1 - j)) & 1
        return code

    def _syndromes(self, code: np.ndarray) -> Tuple[int, int]:
        field = self.field
        n_s = self.codeword_bits
        s1 = 0
        s3 = 0
        for p in range(n_s):
            if code[p]:
                e = n_s - 1 - p
                s1 ^= int(field.exp[e % field.order])
                s3 ^= int(field.exp[(3 * e) % field.order])
        return s1, s3

    def decode(self, codeword: np.ndarray) -> Tuple[np.ndarray, str]:
        """Decode; returns ``(data, status)`` with up to two random bit
        errors corrected (scalar reference path)."""
        code = self._check_codeword(codeword)
        field = self.field
        n_s = self.codeword_bits
        k = self.data_bits
        s1, s3 = self._syndromes(code)
        if s1 == 0 and s3 == 0:
            return code[:k].copy(), "ok"
        if s1 == 0:
            return code[:k].copy(), "detected"
        s1_cubed = field.pow(s1, 3)
        if s3 == s1_cubed:
            e = int(field.log[s1])
            if e < n_s:
                code[n_s - 1 - e] ^= 1
                return code[:k].copy(), "corrected"
            return code[:k].copy(), "detected"
        # Two errors: roots of x^2 + s1 x + sigma2, sigma2 = (s3+s1^3)/s1.
        sigma2 = field.mul(s3 ^ s1_cubed, field.inv(s1))
        roots = []
        for p in range(n_s):
            lx = int(self._chien_logx[p])
            x2 = int(self._chien_x2[p])
            s1x = int(field.exp[(int(field.log[s1]) + lx) % field.order])
            if x2 ^ s1x ^ sigma2 == 0:
                roots.append(p)
        if len(roots) == 2:
            code[roots[0]] ^= 1
            code[roots[1]] ^= 1
            return code[:k].copy(), "corrected"
        return code[:k].copy(), "detected"

    # --------------------------------------------------- vectorized block API
    def encode_block(self, data: np.ndarray) -> np.ndarray:
        """Encode ``(n_words, data_bits)``; bit-identical to :meth:`encode`
        by GF(2)-linearity (one binary matmul with the systematic
        generator rows)."""
        data = self._check_data_block(data)
        n_words = data.shape[0]
        code = np.zeros((n_words, self.codeword_bits), dtype=np.int8)
        code[:, : self.data_bits] = data
        checks = (
            data.astype(np.int64) @ self._encode_matrix.astype(np.int64)
        ) % 2
        code[:, self.data_bits :] = checks.astype(np.int8)
        return code

    def decode_block(
        self, codewords: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Decode ``(n_words, codeword_bits)``; mirrors :meth:`decode`
        exactly — syndromes via two binary matmuls, double errors via a
        vectorized Chien search over the words that need it."""
        code = self._check_code_block(codewords)
        field = self.field
        order = field.order
        n_words = code.shape[0]
        n_s = self.codeword_bits
        c64 = code.astype(np.int64)
        s1 = ((c64 @ self._syn_bits[0]) % 2) @ self._pow2_m
        s3 = ((c64 @ self._syn_bits[1]) % 2) @ self._pow2_m
        status = np.full(n_words, STATUS_DETECTED, dtype=np.int8)
        status[(s1 == 0) & (s3 == 0)] = STATUS_OK
        nz = s1 != 0
        log1 = np.where(nz, field.log[s1], 0)
        s1_cubed = np.where(nz, field.exp[(3 * log1) % order], 0)
        # Single error: S3 == S1^3 with the locator inside the shortened
        # word (a root beyond n_s means >= 3 aliased flips -> detected).
        single = nz & (s3 == s1_cubed)
        correct = single & (log1 < n_s)
        rows = np.nonzero(correct)[0]
        code[rows, n_s - 1 - log1[rows]] ^= 1
        status[rows] = STATUS_CORRECTED
        # Double error: solve the locator quadratic by Chien search.
        double = nz & (s3 != s1_cubed)
        idx = np.nonzero(double)[0]
        if idx.size:
            diff = s1_cubed[idx] ^ s3[idx]
            sigma2 = field.exp[
                (field.log[diff] + order - log1[idx]) % order
            ]
            s1x = field.exp[
                (log1[idx][:, None] + self._chien_logx[None, :]) % order
            ]
            is_root = (self._chien_x2[None, :] ^ s1x ^ sigma2[:, None]) == 0
            two = is_root.sum(axis=1) == 2
            sub_rows, positions = np.nonzero(is_root[two])
            code[idx[two][sub_rows], positions] ^= 1
            status[idx[two]] = STATUS_CORRECTED
        return code[:, : self.data_bits], status


#: Registry of the ECC codes the co-design advisor sweeps over.
CODES: Dict[str, type] = {
    "secded": HammingSecDed,
    "bch": BchCode,
    "secdaec": SecDaecCode,
}


def make_code(name: str, data_bits: int = 64) -> EccCode:
    """Instantiate a registered ECC code by name (``"secded"``, ``"bch"``
    or ``"secdaec"``)."""
    try:
        cls = CODES[name]
    except KeyError:
        raise ValueError(
            f"unknown ECC code {name!r}; expected one of {sorted(CODES)}"
        ) from None
    return cls(data_bits)


def _floyd_patterns(
    flips: np.ndarray, n: int, rng: np.random.Generator
) -> np.ndarray:
    """``(len(flips), n)`` int8 error patterns, one row per entry of
    ``flips``, each with that many ones at distinct, uniformly random
    positions (rows in decreasing order of their flip count).

    Floyd's algorithm for every row at once: step ``s`` sets, in each row
    with ``K > s`` flips, a uniform position in ``[0, j]`` with
    ``j = n - K + s``, or ``j`` itself if that position is already set.
    The position is ``floor(u * (j + 1))`` of a uniform double ``u``.
    """
    # Largest K first, so the rows still placing flips at step s are a
    # prefix of the matrix.
    flips = np.sort(flips)[::-1]
    patterns = np.zeros((flips.size, n), dtype=np.int8)
    flat = patterns.reshape(-1)
    row_start = np.arange(0, flips.size * n, n)
    first_top = row_start + n - flips  # flat index of j = n - K
    for step in range(int(flips.max(initial=0))):
        active = int(np.count_nonzero(flips > step))
        start = row_start[:active]
        top = first_top[:active] + step
        pick = start + (rng.random(active) * (top - start + 1)).astype(np.intp)
        flat[np.where(flat[pick] != 0, top, pick)] = 1
    return patterns


def _mc_block(
    count: int,
    rng: np.random.Generator,
    code: EccCode,
    ber: float,
) -> np.ndarray:
    """One Monte Carlo block of ``count`` stored words under independent
    random bit flips at ``ber``; returns the per-word failure flags.
    Module-level so the sweep engine's process backend can pickle it.

    Because every :class:`EccCode` is linear with a syndrome decoder, a
    word ``c ^ e`` fails exactly when decoding the bare error pattern
    ``e`` reports :data:`STATUS_DETECTED` or leaves nonzero data bits, so
    nothing is encoded.  A word with at most ``t = code.correctable_random``
    flips is always corrected, so only the words with more flips are
    drawn at all, each from the exact law of independent per-bit flips:

    1. the number of candidates ``m ~ Binomial(count, P[K > t])``;
    2. each candidate's flip count ``K``, Binomial(n, ber) conditioned on
       ``K > t``, by inverse CDF over :func:`_tail_flip_table`;
    3. ``K`` distinct flip positions per candidate by Floyd's algorithm
       (:func:`_floyd_patterns`), all candidates one step at a time,
       written straight into the ``m x n`` pattern matrix;
    4. one :meth:`EccCode.decode_block` of the ``m`` patterns, whose
       outcomes land on a uniformly drawn ``m``-subset of the words.

    So each flag is an independent Bernoulli draw of the word-failure
    probability, as if every bit of every word had been drawn, while the
    random draws scale with the candidates instead of ``count x n``.
    """
    n = code.codeword_bits
    t = code.correctable_random
    failed = np.zeros(count, dtype=bool)
    tail, cdf = _tail_flip_table(n, t, ber)
    m = 0 if cdf is None else int(rng.binomial(count, tail))
    if m == 0:
        return failed
    flips = t + 1 + np.searchsorted(cdf, rng.random(m), side="right")
    decoded, status = code.decode_block(_floyd_patterns(flips, n, rng))
    failed[rng.choice(count, m, replace=False)] = (
        status == STATUS_DETECTED
    ) | decoded.any(axis=1)
    return failed


def _mc_failure_rate_scalar(
    code: EccCode, ber: float, trials: int, rng: RNGLike = None
) -> float:
    """Word-at-a-time Monte Carlo reference for
    :meth:`EccAnalysis.monte_carlo_failure_rate`: one encode, flip and
    decode per trial, drawing from one stream in trial order."""
    gen = ensure_rng(rng)
    failures = 0
    for _ in range(trials):
        data = gen.integers(0, 2, size=code.data_bits).astype(np.int8)
        codeword = code.encode(data)
        flips = gen.random(code.codeword_bits) < ber
        received = codeword ^ flips.astype(np.int8)
        decoded, status = code.decode(received)
        if status == "detected" or not np.array_equal(decoded, data):
            failures += 1
    return failures / trials


@dataclass
class EccAnalysis:
    """Word-level failure analysis of an ECC code under random BER."""

    code: EccCode

    def word_failure_probability(self, ber: float) -> float:
        """Analytic probability that a codeword suffers more bit errors
        than the code's guaranteed correction capability.

        Delegates to :meth:`EccCode.word_failure_probability`, which sums
        the binomial tail directly.  The historical ``1 - p_ok - p_one``
        complement form cancelled catastrophically for BER <~ 1e-6 — the
        exact regime where the paper's 1e-5 protection boundary lives —
        returning pure rounding noise (even negative values).
        """
        return self.code.word_failure_probability(ber)

    def ber_sweep(self, bers: List[float]) -> List[dict]:
        """Failure probability across BER values — locates the ~1e-5
        boundary the paper quotes for practical ECC protection."""
        return [
            {
                "ber": ber,
                "word_failure_probability": self.word_failure_probability(ber),
            }
            for ber in bers
        ]

    def monte_carlo_failure_rate(
        self,
        ber: float,
        trials: int = 2000,
        rng: RNGLike = None,
        workers: Optional[int] = None,
        block_size: int = 512,
    ) -> float:
        """Empirical fraction of words not decoded back to the original.

        A word fails if decode status is ``"detected"`` or if (mis)corrected
        data differs from the original (syndrome aliasing on >= 3 flips).

        The default path batches trials into blocks (:func:`_mc_block`,
        which draws and decodes only the error patterns of words with
        more than ``t`` flips, from their exact distribution) and fans the
        blocks out over the sweep engine
        (:func:`repro.utils.parallel.run_blocks`): one spawned stream per
        block, so the rate is bit-identical for a given ``rng`` at any
        ``workers`` count.  The rate has the law of ``trials`` independent
        per-word draws, so its standard error is
        ``sqrt(rate * (1 - rate) / trials)``.  :func:`_mc_failure_rate_scalar`
        keeps the original word-at-a-time loop as the test and benchmark
        reference.
        """
        check_probability("ber", ber)
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        failed = run_blocks(
            _mc_block,
            trials,
            block_size=block_size,
            seed=rng,
            workers=workers,
            task_args=(self.code, ber),
        )
        return float(np.mean(failed))

    def capability_exceeded_at(
        self,
        dead_fraction_series: List[dict],
    ) -> float:
        """Given an endurance dead-cell time series (from
        :meth:`repro.faults.endurance.EnduranceSimulator.run_until`), find
        the write count where the expected faulty bits per codeword exceed
        the code's correction capability ``t``.  Returns ``inf`` if never
        exceeded.

        The math is purely per-codeword (``dead_fraction * codeword_bits``
        against ``t``), so no array-geometry parameter belongs here — a
        historical ``words_per_array`` argument was declared but never
        used and has been removed.
        """
        n = self.code.codeword_bits
        threshold = float(self.code.correctable_random)
        for row in dead_fraction_series:
            expected_bad_bits = row["dead_fraction"] * n
            if expected_bad_bits > threshold:
                return float(row["writes"])
        return math.inf
