"""Tests for the shared EccCode interface and the BCH / SEC-DAEC codes.

The contract under test is the fast-path-plus-reference pattern: for
every code, ``encode_block``/``decode_block`` must be bit-identical to
the scalar ``encode``/``decode`` loops — verified *exhaustively* over
all 0-, 1- and 2-flip patterns (including the aliasing cases beyond the
guaranteed capability) and over sampled 3-flip patterns.

The Monte Carlo block ``_mc_block`` draws only the words with more than
``t`` flips, so its stream differs from the full encode -> flip -> decode
oracle: it is pinned within 4 standard errors of the exact failure
probability (all ``2^n`` error patterns decoded at 8 data bits) and of
the oracle's rate.
"""

import math

import numpy as np
import pytest

from repro.testing.ecc import (
    CODES,
    BchCode,
    EccCode,
    HammingSecDed,
    SecDaecCode,
    STATUS_CORRECTED,
    STATUS_DETECTED,
    STATUS_OK,
    make_code,
    _binomial_tail,
    _floyd_patterns,
    _mc_block,
    _tail_flip_table,
)

ALL_CODES = sorted(CODES)
STATUS_MAP = {"ok": STATUS_OK, "corrected": STATUS_CORRECTED,
              "detected": STATUS_DETECTED}


def _flip_patterns(n, max_flips=2):
    """All error vectors with 0..max_flips set bits over ``n`` positions."""
    patterns = [np.zeros(n, dtype=np.int8)]
    for p in range(n):
        e = np.zeros(n, dtype=np.int8)
        e[p] = 1
        patterns.append(e)
    if max_flips >= 2:
        for p in range(n):
            for q in range(p + 1, n):
                e = np.zeros(n, dtype=np.int8)
                e[p] = 1
                e[q] = 1
                patterns.append(e)
    return np.array(patterns)


class TestRegistry:
    def test_make_code_names(self):
        for name in ALL_CODES:
            code = make_code(name, 16)
            assert isinstance(code, EccCode)
            assert code.name == name
            assert code.data_bits == 16

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown ECC code"):
            make_code("reed_solomon")

    def test_registry_classes(self):
        assert CODES["secded"] is HammingSecDed
        assert CODES["bch"] is BchCode
        assert CODES["secdaec"] is SecDaecCode


class TestInterface:
    @pytest.mark.parametrize("name", ALL_CODES)
    def test_geometry_is_consistent(self, name):
        code = make_code(name, 32)
        assert code.check_bits == code.codeword_bits - code.data_bits
        assert code.check_bits > 0
        assert code.overhead == pytest.approx(code.check_bits / 32)

    @pytest.mark.parametrize("name", ALL_CODES)
    def test_capability_declared(self, name):
        code = make_code(name, 32)
        assert code.correctable_random == (2 if name == "bch" else 1)

    @pytest.mark.parametrize("name", ALL_CODES)
    def test_invalid_width_raises(self, name):
        with pytest.raises(ValueError):
            make_code(name, 0)

    def test_bch_default_is_78_64(self):
        code = BchCode(64)
        assert code.codeword_bits == 78
        assert code.check_bits == 14

    def test_secdaec_matches_secded_overhead_at_64(self):
        # The odd-weight construction needs no more check bits than
        # extended Hamming at the classic 64-bit word.
        assert SecDaecCode(64).codeword_bits == 72


class TestCorrection:
    @pytest.mark.parametrize("name", ALL_CODES)
    def test_clean_round_trip(self, name, rng):
        code = make_code(name, 16)
        data = rng.integers(0, 2, 16).astype(np.int8)
        decoded, status = code.decode(code.encode(data))
        assert status == "ok"
        assert np.array_equal(decoded, data)

    @pytest.mark.parametrize("name", ALL_CODES)
    def test_every_single_error_corrected(self, name, rng):
        code = make_code(name, 16)
        data = rng.integers(0, 2, 16).astype(np.int8)
        codeword = code.encode(data)
        for position in range(code.codeword_bits):
            received = codeword.copy()
            received[position] ^= 1
            decoded, status = code.decode(received)
            assert status == "corrected", f"bit {position}: {status}"
            assert np.array_equal(decoded, data), f"failed at bit {position}"

    def test_bch_every_double_error_corrected(self, rng):
        code = BchCode(16)
        data = rng.integers(0, 2, 16).astype(np.int8)
        codeword = code.encode(data)
        n = code.codeword_bits
        for i in range(n):
            for j in range(i + 1, n):
                received = codeword.copy()
                received[i] ^= 1
                received[j] ^= 1
                decoded, status = code.decode(received)
                assert status == "corrected", f"bits ({i}, {j}): {status}"
                assert np.array_equal(decoded, data), f"bits ({i}, {j})"

    def test_secdaec_every_adjacent_double_corrected(self, rng):
        code = SecDaecCode(16)
        data = rng.integers(0, 2, 16).astype(np.int8)
        codeword = code.encode(data)
        for p in range(code.codeword_bits - 1):
            received = codeword.copy()
            received[p] ^= 1
            received[p + 1] ^= 1
            decoded, status = code.decode(received)
            assert status == "corrected", f"pair ({p}, {p + 1}): {status}"
            assert np.array_equal(decoded, data), f"pair ({p}, {p + 1})"

    def test_secded_non_adjacent_doubles_detected(self, rng):
        code = HammingSecDed(16)
        data = rng.integers(0, 2, 16).astype(np.int8)
        codeword = code.encode(data)
        n = code.codeword_bits
        for i in range(0, n, 3):
            for j in range(i + 2, n, 5):
                received = codeword.copy()
                received[i] ^= 1
                received[j] ^= 1
                _, status = code.decode(received)
                assert status == "detected"

    def test_secdaec_non_adjacent_doubles_never_silently_ok(self, rng):
        # Beyond the guarantee: a non-adjacent double is either detected
        # or aliases to a (wrong) correction — it must never report "ok".
        code = SecDaecCode(16)
        data = rng.integers(0, 2, 16).astype(np.int8)
        codeword = code.encode(data)
        n = code.codeword_bits
        for i in range(n):
            for j in range(i + 2, n):
                received = codeword.copy()
                received[i] ^= 1
                received[j] ^= 1
                _, status = code.decode(received)
                assert status in ("detected", "corrected")


class TestBlockScalarParity:
    """decode_block vs scalar decode, exhaustive over 0/1/2-flip patterns."""

    @pytest.mark.parametrize("name", ALL_CODES)
    def test_encode_block_matches_scalar(self, name, rng):
        code = make_code(name, 8)
        data = rng.integers(0, 2, size=(40, 8)).astype(np.int8)
        block = code.encode_block(data)
        for i in range(data.shape[0]):
            assert np.array_equal(block[i], code.encode(data[i])), f"row {i}"

    @pytest.mark.parametrize("name", ALL_CODES)
    def test_decode_block_parity_all_0_1_2_flips(self, name, rng):
        code = make_code(name, 8)
        n = code.codeword_bits
        data = rng.integers(0, 2, 8).astype(np.int8)
        codeword = code.encode(data)
        errors = _flip_patterns(n, max_flips=2)
        received = (codeword[None, :] ^ errors).astype(np.int8)
        block_data, block_status = code.decode_block(received)
        for i in range(received.shape[0]):
            scalar_data, scalar_status = code.decode(received[i])
            assert STATUS_MAP[scalar_status] == block_status[i], (
                f"{name}: pattern {i}: scalar {scalar_status} "
                f"vs block {block_status[i]}"
            )
            assert np.array_equal(scalar_data, block_data[i]), (
                f"{name}: pattern {i}: decoded data diverged"
            )

    @pytest.mark.parametrize("name", ALL_CODES)
    def test_decode_block_parity_sampled_3_flips(self, name, rng):
        # 3 flips exceed every code's guarantee: the aliasing behaviour
        # (miscorrect vs detect) must still be bit-identical between the
        # block codec and the scalar reference.
        code = make_code(name, 8)
        n = code.codeword_bits
        data = rng.integers(0, 2, size=(200, 8)).astype(np.int8)
        codewords = code.encode_block(data)
        received = codewords.copy()
        for i in range(received.shape[0]):
            for p in rng.choice(n, size=3, replace=False):
                received[i, p] ^= 1
        block_data, block_status = code.decode_block(received)
        statuses = set()
        for i in range(received.shape[0]):
            scalar_data, scalar_status = code.decode(received[i])
            statuses.add(scalar_status)
            assert STATUS_MAP[scalar_status] == block_status[i], f"word {i}"
            assert np.array_equal(scalar_data, block_data[i]), f"word {i}"
        # Sanity: 3 flips do exercise the beyond-capability paths.
        assert "ok" not in statuses

    @pytest.mark.parametrize("name", ALL_CODES)
    def test_block_shape_validation(self, name):
        code = make_code(name, 8)
        with pytest.raises(ValueError, match="shape"):
            code.encode_block(np.zeros((4, 9), dtype=np.int8))
        with pytest.raises(ValueError, match="shape"):
            code.decode_block(np.zeros((4, code.codeword_bits + 1),
                                       dtype=np.int8))
        with pytest.raises(ValueError, match="binary"):
            code.encode_block(np.full((4, 8), 2, dtype=np.int8))


class TestFailureProbability:
    @pytest.mark.parametrize("name", ALL_CODES)
    def test_monotone_in_ber(self, name):
        code = make_code(name, 32)
        probs = [code.word_failure_probability(b)
                 for b in (1e-7, 1e-5, 1e-3, 1e-1)]
        assert probs == sorted(probs)
        assert all(0.0 <= p <= 1.0 for p in probs)

    def test_bch_beats_secded_at_same_ber(self):
        # t=2 must give a strictly smaller residual failure probability
        # than t=1 at small BER, despite the longer codeword.
        bch = make_code("bch", 64)
        secded = make_code("secded", 64)
        for ber in (1e-6, 1e-5, 1e-4):
            assert bch.word_failure_probability(ber) < (
                secded.word_failure_probability(ber)
            )

    def test_secdaec_between_secded_and_bch(self):
        # Correcting adjacent doubles buys a small margin over SEC-DED
        # but nowhere near full t=2.
        ber = 1e-4
        secded = make_code("secded", 64).word_failure_probability(ber)
        secdaec = make_code("secdaec", 64).word_failure_probability(ber)
        bch = make_code("bch", 64).word_failure_probability(ber)
        assert bch < secdaec < secded

    @pytest.mark.parametrize("name", ALL_CODES)
    def test_monte_carlo_agrees_with_analytic(self, name, rng):
        # At a BER big enough for decent MC statistics the empirical
        # failure rate must straddle the analytic prediction.
        from repro.testing.ecc import _mc_block

        code = make_code(name, 32)
        ber = 0.01
        failed = _mc_block(20000, rng, code, ber)
        empirical = float(np.mean(failed))
        analytic = code.word_failure_probability(ber)
        # Aliasing beyond capability can only push the empirical rate off
        # the guaranteed-capability analytic value by a modest factor.
        assert empirical == pytest.approx(analytic, rel=0.35)


def _mc_block_full_codec(count, rng, code, ber):
    """Reference Monte Carlo block: encode random data, flip, decode the
    whole block and compare with the data."""
    data = rng.integers(0, 2, size=(count, code.data_bits)).astype(np.int8)
    codewords = code.encode_block(data)
    flips = rng.random((count, code.codeword_bits)) < ber
    received = codewords ^ flips.astype(np.int8)
    decoded, status = code.decode_block(received)
    return (status == STATUS_DETECTED) | np.any(decoded != data, axis=1)


class TestLinearityContract:
    """Decoding ``c ^ e`` must depend on the error pattern ``e`` only —
    the property that lets ``_mc_block`` skip encoding."""

    @pytest.mark.parametrize("name", ALL_CODES)
    @pytest.mark.parametrize("data_bits", [8, 32])
    def test_decode_depends_only_on_error_pattern(self, name, data_bits, rng):
        code = make_code(name, data_bits)
        n = code.codeword_bits
        words = 4 * (n + 1)
        data = rng.integers(0, 2, size=(words, data_bits)).astype(np.int8)
        codewords = code.encode_block(data)
        errors = np.zeros((words, n), dtype=np.int8)
        for i in range(words):
            errors[i, rng.choice(n, size=i % (n + 1), replace=False)] = 1
        got_data, got_status = code.decode_block(codewords ^ errors)
        err_data, err_status = code.decode_block(errors)
        assert np.array_equal(got_status, err_status)
        assert np.array_equal(got_data ^ err_data, data)
        # 0 to n flips reach every decoder outcome.
        assert set(err_status.tolist()) == {
            STATUS_OK, STATUS_CORRECTED, STATUS_DETECTED
        }


def _agree_within_4se(failures_a, words_a, failures_b, words_b):
    """Two Monte Carlo failure counts estimate the same probability to
    within 4 standard errors of their difference (pooled rate)."""
    pooled = (failures_a + failures_b) / (words_a + words_b)
    se = np.sqrt(pooled * (1.0 - pooled) * (1.0 / words_a + 1.0 / words_b))
    return abs(failures_a / words_a - failures_b / words_b) <= 4.0 * se


class TestMonteCarloBlock:
    """``_mc_block`` against the full encode -> flip -> decode oracle: the
    same failure law, so the two rates agree within 4 standard errors."""

    @pytest.mark.parametrize("name", ALL_CODES)
    @pytest.mark.parametrize("data_bits", [8, 32, 64])
    @pytest.mark.parametrize("ber", [0.0, 1e-4, 1e-2, 0.2, 0.5, 1.0])
    def test_matches_full_codec(self, name, data_bits, ber):
        code = make_code(name, data_bits)
        fast_failures = ref_failures = 0
        for seed in range(4):
            fast = _mc_block(500, np.random.default_rng(seed), code, ber)
            ref = _mc_block_full_codec(
                500, np.random.default_rng(seed), code, ber
            )
            assert fast.dtype == ref.dtype and fast.shape == ref.shape
            fast_failures += int(fast.sum())
            ref_failures += int(ref.sum())
        assert _agree_within_4se(fast_failures, 2000, ref_failures, 2000)
        if ber in (0.0, 1.0):
            assert fast_failures == ref_failures

    def test_same_generator_state_same_flags(self):
        code = make_code("secded", 32)
        a = _mc_block(4096, np.random.default_rng(5), code, 0.03)
        b = _mc_block(4096, np.random.default_rng(5), code, 0.03)
        assert np.array_equal(a, b)
        assert 0 < a.sum() < a.size

    def test_failures_land_anywhere_in_the_block(self):
        # Each word's flag has the same law: the failures are not bunched
        # at the front of the block.
        code = make_code("secded", 8)
        count = 100_000
        failed = _mc_block(count, np.random.default_rng(6), code, 0.05)
        front, back = failed[: count // 2].sum(), failed[count // 2 :].sum()
        assert front > 0 and back > 0
        assert _agree_within_4se(front, count // 2, back, count // 2)

    def test_advisor_rows_agree_with_full_codec(self, monkeypatch):
        from repro.testing import ecc_advisor

        kw = dict(codes=ALL_CODES, yields=(0.999, 0.97), mc_words=300,
                  trials=2, seed=3, workers=0)
        fast = ecc_advisor.advise_ecc(**kw)
        calls = []

        def oracle(*args):
            calls.append(args)
            return _mc_block_full_codec(*args)

        monkeypatch.setattr(ecc_advisor, "_mc_block", oracle)
        reference = ecc_advisor.advise_ecc(**kw)
        assert calls
        statistical = {"word_failure_rate", "coverage", "word_failure_se"}
        words = kw["trials"] * kw["mc_words"]
        assert len(fast) == len(reference)
        for row, ref in zip(fast, reference):
            assert set(row) == set(ref)
            for key in set(row) - statistical:
                assert row[key] == ref[key], key
            assert row["coverage"] == pytest.approx(
                1.0 - row["word_failure_rate"], abs=1e-15
            )
            assert _agree_within_4se(
                round(row["word_failure_rate"] * words), words,
                round(ref["word_failure_rate"] * words), words,
            ), (row["code"], row["cell_yield"], row["scenario"])


def _exact_failure_counts(code):
    """``A[w]``: how many of the error patterns of weight ``w`` make a
    stored word fail, by decoding all ``2^n`` patterns."""
    n = code.codeword_bits
    patterns = (
        (np.arange(1 << n)[:, None] >> np.arange(n)[None, :]) & 1
    ).astype(np.int8)
    decoded, status = code.decode_block(patterns)
    failed = (status == STATUS_DETECTED) | decoded.any(axis=1)
    return np.bincount(patterns.sum(axis=1)[failed], minlength=n + 1)


def _exact_failure_probability(counts, ber):
    n = counts.size - 1
    weights = np.arange(n + 1)
    return float(np.sum(counts * ber ** weights * (1.0 - ber) ** (n - weights)))


class TestExactReference:
    """``_mc_block`` pinned to the exact word-failure probability of each
    code at ``data_bits = 8`` (every one of the ``2^n`` error patterns
    decoded, ``n <= 18``)."""

    @pytest.fixture(scope="class")
    def exact(self):
        return {
            name: _exact_failure_counts(make_code(name, 8))
            for name in ALL_CODES
        }

    @pytest.mark.parametrize("name", ALL_CODES)
    def test_reference_counts_are_consistent(self, name, exact):
        code = make_code(name, 8)
        counts = exact[name]
        t = code.correctable_random
        assert code.codeword_bits <= 18
        assert not counts[: t + 1].any()  # up to t flips always corrected
        assert counts[-1] == 1  # every bit flipped fails
        assert _exact_failure_probability(counts, 0.0) == 0.0
        assert _exact_failure_probability(counts, 1.0) == 1.0

    @pytest.mark.parametrize("name", ALL_CODES)
    @pytest.mark.parametrize("ber", [1e-3, 1e-2, 0.05, 0.2, 0.5])
    def test_failure_rate_within_4se_of_exact(self, name, ber, exact):
        code = make_code(name, 8)
        rng = np.random.default_rng(2024)
        # Two million words where failures are rare: a block costs what
        # its candidates cost, not its word count.
        blocks, block_words = 10, (200_000 if ber <= 0.05 else 20_000)
        failures = sum(
            int(_mc_block(block_words, rng, code, ber).sum())
            for _ in range(blocks)
        )
        words = blocks * block_words
        p = _exact_failure_probability(exact[name], ber)
        se = np.sqrt(p * (1.0 - p) / words)
        assert abs(failures / words - p) <= 4.0 * se, (failures, p)

    @pytest.mark.parametrize("name", ALL_CODES)
    def test_no_flips_fail_nothing_all_flips_fail_everything(self, name):
        code = make_code(name, 8)
        rng = np.random.default_rng(0)
        assert not _mc_block(1000, rng, code, 0.0).any()
        assert _mc_block(1000, rng, code, 1.0).all()


class TestFloydPatterns:
    """The flip positions ``_mc_block`` decodes: distinct and uniform."""

    def test_rows_carry_their_flip_counts(self):
        rng = np.random.default_rng(8)
        flips = rng.integers(0, 14, size=500)
        patterns = _floyd_patterns(flips, 13, rng)
        assert patterns.dtype == np.int8 and patterns.shape == (500, 13)
        assert set(np.unique(patterns).tolist()) <= {0, 1}
        assert np.array_equal(patterns.sum(axis=1), np.sort(flips)[::-1])
        assert _floyd_patterns(np.array([], dtype=np.int64), 13, rng).shape == (0, 13)

    def test_every_position_equally_likely(self):
        n, rows = 13, 50_000
        rng = np.random.default_rng(9)
        flips = rng.integers(1, n + 1, size=rows)
        hits = _floyd_patterns(flips, n, rng).sum(axis=0)
        share = flips / n
        expected = share.sum()
        se = np.sqrt(np.sum(share * (1.0 - share)))
        assert np.all(np.abs(hits - expected) <= 4.0 * se), hits

    def test_every_pair_equally_likely(self):
        # Two flips: all C(n, 2) pairs, adjacent ones included (which
        # SEC-DAEC corrects), come up equally often.
        n, rows = 13, 78_000
        rng = np.random.default_rng(10)
        patterns = _floyd_patterns(np.full(rows, 2), n, rng)
        first = patterns.argmax(axis=1)
        second = n - 1 - patterns[:, ::-1].argmax(axis=1)
        counts = np.bincount(first * n + second, minlength=n * n)
        i, j = np.triu_indices(n, 1)
        pairs = counts[i * n + j]
        assert pairs.sum() == rows
        p = 1.0 / pairs.size
        assert np.all(np.abs(pairs - rows * p) <= 4.0 * np.sqrt(rows * p * (1 - p)))


class TestTailFlipTable:
    """The truncated flip-count law ``_mc_block`` samples ``K`` from."""

    @pytest.mark.parametrize("ber", [1e-4, 1e-2, 0.3, 0.5])
    def test_wide_word_cdf_matches_scipy(self, ber):
        # 1036-bit SEC-DED words: C(1036, k) overflows a float for the
        # middle k, so those terms take the log-space path.
        from scipy.stats import binom

        code = HammingSecDed(1024)
        n, t = code.codeword_bits, code.correctable_random
        with pytest.raises(OverflowError):
            float(math.comb(n, n // 2))
        tail, cdf = _tail_flip_table(n, t, ber)
        pmf = binom.pmf(np.arange(t + 1, n + 1), n, ber)
        assert tail == pytest.approx(binom.sf(t, n, ber), rel=1e-9)
        assert cdf.shape == (n - t,)
        assert cdf[-1] == 1.0
        assert np.all(np.diff(cdf) >= 0.0)
        assert np.allclose(cdf, np.cumsum(pmf) / pmf.sum(), rtol=1e-9, atol=1e-15)
        assert not cdf.flags.writeable

    def test_every_bit_flipped_puts_all_mass_on_n(self):
        tail, cdf = _tail_flip_table(1036, 1, 1.0)
        assert tail == 1.0
        assert cdf[-1] == 1.0 and not cdf[:-1].any()

    def test_no_candidates_without_flips(self):
        assert _tail_flip_table(72, 1, 0.0) == (0.0, None)

    def test_tail_is_the_reference_tail_bit_for_bit(self):
        """The cached tail sums the CDF's own terms smallest-first, so it
        equals :func:`_binomial_tail` exactly, including wide words whose
        middle terms are priced in log space, and the analytic word
        failure of every code reads that same tail."""
        bers = [0.0, 1e-300, 1e-12, 1e-9, 1e-7, 1e-5, 1e-4, 1e-3, 0.01,
                0.03, 0.1, 0.3, 0.5, 0.9, 1.0 - 1e-9, 1.0]
        for n in (1, 2, 8, 39, 72, 78, 137, 523, 1036, 1100):
            for t in (0, 1, 2, 3):
                for ber in bers:
                    tail, _ = _tail_flip_table(n, t, ber)
                    assert tail == _binomial_tail(n, ber, t + 1), (n, t, ber)
        for name in ("secded", "bch"):
            code = make_code(name, 32)
            for ber in bers:
                assert code.word_failure_probability(ber) == _binomial_tail(
                    code.codeword_bits, ber, code.correctable_random + 1
                )
