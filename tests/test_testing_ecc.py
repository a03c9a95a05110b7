"""Tests for Hamming SEC-DED ECC and its BER limit ([51])."""

import math

import numpy as np
import pytest

from repro.faults.endurance import EnduranceModel, EnduranceSimulator
from repro.testing.ecc import EccAnalysis, HammingSecDed


class TestCodeConstruction:
    def test_72_64_memory_code(self):
        code = HammingSecDed(64)
        assert code.codeword_bits == 72
        assert code.parity_bits == 7

    def test_small_codes(self):
        assert HammingSecDed(4).codeword_bits == 8   # (8,4) extended Hamming
        assert HammingSecDed(11).codeword_bits == 16

    def test_overhead(self):
        assert HammingSecDed(64).overhead == pytest.approx(8 / 64)

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            HammingSecDed(0)


class TestEncodeDecode:
    @pytest.mark.parametrize("data_bits", [4, 16, 64])
    def test_clean_round_trip(self, data_bits, rng):
        code = HammingSecDed(data_bits)
        data = rng.integers(0, 2, data_bits).astype(np.int8)
        decoded, status = code.decode(code.encode(data))
        assert status == "ok"
        assert np.array_equal(decoded, data)

    def test_every_single_error_corrected(self, rng):
        code = HammingSecDed(16)
        data = rng.integers(0, 2, 16).astype(np.int8)
        codeword = code.encode(data)
        for position in range(code.codeword_bits):
            received = codeword.copy()
            received[position] ^= 1
            decoded, status = code.decode(received)
            assert status == "corrected"
            assert np.array_equal(decoded, data), f"failed at bit {position}"

    def test_double_errors_detected(self, rng):
        code = HammingSecDed(16)
        data = rng.integers(0, 2, 16).astype(np.int8)
        codeword = code.encode(data)
        detections = 0
        trials = 0
        for i in range(0, code.codeword_bits, 3):
            for j in range(i + 1, code.codeword_bits, 5):
                received = codeword.copy()
                received[i] ^= 1
                received[j] ^= 1
                _, status = code.decode(received)
                trials += 1
                if status == "detected":
                    detections += 1
        assert detections == trials  # SEC-DED guarantees double detection

    def test_shape_validation(self):
        code = HammingSecDed(8)
        with pytest.raises(ValueError):
            code.encode(np.zeros(7, dtype=np.int8))
        with pytest.raises(ValueError):
            code.decode(np.zeros(10, dtype=np.int8))


class TestBlockCodec:
    """The vectorized block codec must be bit-identical to the scalar
    reference path, word for word."""

    @pytest.mark.parametrize("data_bits", [4, 16, 64])
    def test_encode_block_matches_scalar(self, data_bits, rng):
        code = HammingSecDed(data_bits)
        data = rng.integers(0, 2, size=(50, data_bits)).astype(np.int8)
        block = code.encode_block(data)
        reference = np.stack([code.encode(d) for d in data])
        assert np.array_equal(block, reference)

    @pytest.mark.parametrize("data_bits", [4, 16, 64])
    def test_decode_block_matches_scalar(self, data_bits, rng):
        from repro.testing.ecc import (
            STATUS_CORRECTED,
            STATUS_DETECTED,
            STATUS_OK,
        )

        names = {
            STATUS_OK: "ok",
            STATUS_CORRECTED: "corrected",
            STATUS_DETECTED: "detected",
        }
        code = HammingSecDed(data_bits)
        data = rng.integers(0, 2, size=(60, data_bits)).astype(np.int8)
        received = code.encode_block(data)
        for i in range(received.shape[0]):
            n_flips = i % 4  # clean, single, double, triple error words
            pos = rng.choice(code.codeword_bits, size=n_flips, replace=False)
            received[i, pos] ^= 1
        block_data, block_status = code.decode_block(received)
        for i in range(received.shape[0]):
            ref_data, ref_status = code.decode(received[i])
            assert np.array_equal(block_data[i], ref_data), f"word {i}"
            assert names[int(block_status[i])] == ref_status, f"word {i}"

    def test_block_shapes_validated(self):
        code = HammingSecDed(8)
        with pytest.raises(ValueError):
            code.encode_block(np.zeros((3, 7), dtype=np.int8))
        with pytest.raises(ValueError):
            code.decode_block(np.zeros((3, 10), dtype=np.int8))

    def test_non_binary_block_rejected(self):
        code = HammingSecDed(8)
        with pytest.raises(ValueError, match="binary"):
            code.encode_block(np.full((2, 8), 2, dtype=np.int8))


class TestBerAnalysis:
    def test_failure_probability_tiny_at_1e_5(self):
        """The paper's operating regime: ECC works when BER < 1e-5."""
        analysis = EccAnalysis(HammingSecDed(64))
        assert analysis.word_failure_probability(1e-5) < 1e-6

    def test_failure_probability_large_at_1e_2(self):
        analysis = EccAnalysis(HammingSecDed(64))
        assert analysis.word_failure_probability(1e-2) > 0.1

    def test_sweep_monotone(self):
        analysis = EccAnalysis(HammingSecDed(64))
        rows = analysis.ber_sweep([1e-6, 1e-5, 1e-4, 1e-3, 1e-2])
        probs = [r["word_failure_probability"] for r in rows]
        assert probs == sorted(probs)

    @pytest.mark.parametrize("ber", [1e-5, 1e-7, 1e-9, 0.5])
    def test_failure_probability_matches_exact_binomial_tail(self, ber):
        """Regression for the catastrophic-cancellation bug: the old
        ``1 - p_ok - p_one`` form returned pure rounding noise below
        BER ~1e-6.  The stable tail sum must agree with an exact
        rational-arithmetic reference to < 1e-9 relative error.  The
        1036-bit codeword has binomial coefficients beyond float range
        (they raised ``OverflowError``); at BER 0.5 those terms carry
        almost all of the tail."""
        from fractions import Fraction

        p = Fraction(ber)  # the exact float the computation actually uses
        q = 1 - p
        for data_bits in (64, 1024):
            analysis = EccAnalysis(HammingSecDed(data_bits))
            n = analysis.code.codeword_bits
            # P[X >= 2]; exact rationals, so the complement cannot cancel.
            exact = 1 - q**n - n * p * q ** (n - 1)
            got = Fraction(analysis.word_failure_probability(ber))
            assert abs(got - exact) / exact < Fraction(1, 10**9), data_bits

    def test_failure_probability_positive_at_tiny_ber(self):
        # The cancelling form went negative here; the tail sum cannot.
        analysis = EccAnalysis(HammingSecDed(64))
        assert analysis.word_failure_probability(1e-12) > 0.0
        assert analysis.word_failure_probability(0.0) == 0.0

    def test_monte_carlo_matches_analytic(self):
        analysis = EccAnalysis(HammingSecDed(16))
        ber = 0.02
        empirical = analysis.monte_carlo_failure_rate(ber, trials=3000, rng=0)
        analytic = analysis.word_failure_probability(ber)
        assert empirical == pytest.approx(analytic, rel=0.35)

    def test_endurance_eventually_exceeds_capability(self):
        """'more devices will be worn out over time and eventually the
        number of hard faults will exceed the ECCs correction capability'."""
        from repro.crossbar.array import CrossbarArray, CrossbarConfig

        array = CrossbarArray(CrossbarConfig(rows=16, cols=16), rng=0)
        array.program(np.full((16, 16), 5e-5))
        sim = EnduranceSimulator(
            array, EnduranceModel(characteristic_life=1e4, shape=2.0), rng=1
        )
        series = sim.run_until(total_writes=5e4, step=2e3)
        analysis = EccAnalysis(HammingSecDed(64))
        exceeded_at = analysis.capability_exceeded_at(series)
        assert math.isfinite(exceeded_at)
        assert exceeded_at <= 5e4

    def test_capability_exceeded_semantics_pinned(self):
        """The math is per-codeword (dead_fraction * codeword_bits > t);
        the historical ``words_per_array`` parameter was declared but
        never used and has been removed — pin both the signature and the
        threshold semantics."""
        import inspect

        params = inspect.signature(
            EccAnalysis.capability_exceeded_at
        ).parameters
        assert "words_per_array" not in params
        assert list(params) == ["self", "dead_fraction_series"]

        analysis = EccAnalysis(HammingSecDed(64))  # n=72, t=1
        series = [
            {"writes": 1e3, "dead_fraction": 0.010},  # 0.72 bits expected
            {"writes": 2e3, "dead_fraction": 0.015},  # 1.08 bits -> exceeded
            {"writes": 3e3, "dead_fraction": 0.030},
        ]
        assert analysis.capability_exceeded_at(series) == 2e3
        assert analysis.capability_exceeded_at(series[:1]) == math.inf

    def test_capability_threshold_scales_with_t(self):
        """A t=2 code survives the dead-fraction point that defeats
        SEC-DED: the threshold is the code's capability, not a hardwired
        1.0."""
        from repro.testing.ecc import make_code

        series = [
            {"writes": 1e3, "dead_fraction": 0.020},
            {"writes": 2e3, "dead_fraction": 0.040},
        ]
        secded = EccAnalysis(make_code("secded", 64))  # n=72
        bch = EccAnalysis(make_code("bch", 64))        # n=78, t=2
        assert secded.capability_exceeded_at(series) == 1e3
        # 0.02 * 78 = 1.56 < 2; 0.04 * 78 = 3.12 > 2.
        assert bch.capability_exceeded_at(series) == 2e3
