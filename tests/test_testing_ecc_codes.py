"""Tests for the shared EccCode interface and the BCH / SEC-DAEC codes.

The contract under test is the fast-path-plus-reference pattern: for
every code, ``encode_block``/``decode_block`` must be bit-identical to
the scalar ``encode``/``decode`` loops — verified *exhaustively* over
all 0-, 1- and 2-flip patterns (including the aliasing cases beyond the
guaranteed capability) and over sampled 3-flip patterns.
"""

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
    _mc_block,
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


class TestMonteCarloBlock:
    """``_mc_block`` against the full encode -> flip -> decode oracle:
    equal flags and equal generator state afterwards."""

    @pytest.mark.parametrize("name", ALL_CODES)
    @pytest.mark.parametrize("data_bits", [8, 32, 64])
    @pytest.mark.parametrize("ber", [0.0, 1e-4, 1e-2, 0.2, 0.5, 1.0])
    def test_matches_full_codec(self, name, data_bits, ber):
        code = make_code(name, data_bits)
        for seed in range(4):
            fast_rng = np.random.default_rng(seed)
            ref_rng = np.random.default_rng(seed)
            fast = _mc_block(500, fast_rng, code, ber)
            ref = _mc_block_full_codec(500, ref_rng, code, ber)
            assert fast.dtype == ref.dtype
            assert np.array_equal(fast, ref), f"seed {seed}"
            assert fast_rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("name", ALL_CODES)
    @pytest.mark.parametrize("data_bits", [7, 9, 13])
    def test_odd_half_word_counts(self, name, data_bits):
        # An odd ``count * data_bits`` leaves a pending upper half-word.
        code = make_code(name, data_bits)
        for seed, count in enumerate((1, 3, 499)):
            fast_rng = np.random.default_rng(seed)
            ref_rng = np.random.default_rng(seed)
            fast = _mc_block(count, fast_rng, code, 0.05)
            ref = _mc_block_full_codec(count, ref_rng, code, 0.05)
            assert np.array_equal(fast, ref)
            assert fast_rng.bit_generator.state == ref_rng.bit_generator.state
            assert fast_rng.integers(0, 2, size=5).tolist() == (
                ref_rng.integers(0, 2, size=5).tolist()
            )

    @pytest.mark.parametrize("name", ALL_CODES)
    @pytest.mark.parametrize("count", [1, 2, 499, 500])
    def test_enters_with_a_pending_half_word(self, name, count):
        code = make_code(name, 9)
        fast_rng = np.random.default_rng(11)
        ref_rng = np.random.default_rng(11)
        for gen in (fast_rng, ref_rng):
            gen.integers(0, 2)
            assert gen.bit_generator.state["has_uint32"] == 1
        fast = _mc_block(count, fast_rng, code, 0.05)
        ref = _mc_block_full_codec(count, ref_rng, code, 0.05)
        assert np.array_equal(fast, ref)
        assert fast_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_rejects_a_non_pcg64_generator(self):
        rng = np.random.Generator(np.random.MT19937(0))
        with pytest.raises(TypeError, match="PCG64"):
            _mc_block(10, rng, make_code("secded", 8), 0.01)

    def test_advisor_rows_unchanged(self, monkeypatch):
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
        assert fast == reference
