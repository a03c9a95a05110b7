"""Benchmarks: the ECC layer's vectorized block codecs and the co-design
advisor.

Gates the fast-path-plus-reference contract on its performance half: the
BCH ``decode_block`` fast path must beat a scalar ``decode`` loop by
``>= CODEC_SPEEDUP_GATE`` (the correctness half — exhaustive bit-equality
— lives in ``tests/test_testing_ecc_codes.py``), and the candidate-only
Monte Carlo block must beat the full encode -> flip -> decode block by
``>= MC_BLOCK_SPEEDUP_GATE`` while estimating the same failure rate.
Also proves the advisor is bit-identical serial vs parallel at any worker
count, and writes the
numbers to ``BENCH_ecc.json`` (via :func:`conftest.record_ecc_metrics`)
so the codec-throughput trajectory is tracked across PRs.
"""

import time

import numpy as np
import pytest

from conftest import print_table, record_ecc_metrics

#: The block decoder is the advisor's inner loop; anything under 3x over
#: the scalar reference means the vectorization silently regressed.
CODEC_SPEEDUP_GATE = 3.0

#: ``_mc_block`` draws and decodes only the error patterns of words with
#: more flips than the code always corrects; under 1.5x over the full
#: encode -> flip -> decode block means that shortcut silently stopped
#: paying.
MC_BLOCK_SPEEDUP_GATE = 1.5
#: Record name -> BER: an advisor-range BER, and the advisor's densest
#: default one (cell yield 0.97), where about one BCH(32) word in seven
#: is a candidate and decoding dominates.
MC_BERS = {"mc_block": 1e-3, "mc_block_dense": 0.03}
MC_REPEATS = 15

WORDS = 4096
DATA_BITS = 32


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def _mc_block_full_codec(count, rng, code, ber):
    """The Monte Carlo block ``_mc_block`` must agree with in law: encode
    random data, flip, decode the whole block and compare with the data."""
    from repro.testing.ecc import STATUS_DETECTED

    data = rng.integers(0, 2, size=(count, code.data_bits)).astype(np.int8)
    codewords = code.encode_block(data)
    flips = rng.random((count, code.codeword_bits)) < ber
    received = codewords ^ flips.astype(np.int8)
    decoded, status = code.decode_block(received)
    return (status == STATUS_DETECTED) | np.any(decoded != data, axis=1)


@pytest.mark.parametrize("record", sorted(MC_BERS))
def test_mc_block_beats_full_codec(run_once, record):
    """The advisor's inner loop on BCH(32): the candidate-only block must
    estimate the same failure rate as the full codec (within 4 standard
    errors of the difference) and clear the gate.  Best of
    ``MC_REPEATS`` same-seed calls per path."""
    from repro.testing.ecc import _mc_block, make_code

    ber = MC_BERS[record]
    code = make_code("bch", DATA_BITS)

    def best_of(fn):
        best = float("inf")
        for _ in range(MC_REPEATS):
            rng = np.random.default_rng(0)
            flags, seconds = _timed(fn, WORDS, rng, code, ber)
            best = min(best, seconds)
        return flags, best

    def experiment():
        return best_of(_mc_block), best_of(_mc_block_full_codec)

    (flags, t_fast), (ref_flags, t_full) = run_once(experiment)
    failed, ref_failed = int(flags.sum()), int(ref_flags.sum())
    pooled = (failed + ref_failed) / (2 * WORDS)
    se = np.sqrt(pooled * (1.0 - pooled) * 2.0 / WORDS)
    assert flags.shape == ref_flags.shape and flags.dtype == ref_flags.dtype
    assert abs(failed - ref_failed) / WORDS <= 4.0 * se
    speedup = t_full / t_fast
    print_table(
        f"BCH({DATA_BITS}) Monte Carlo block, {WORDS} words, BER {ber}",
        [
            {"path": "full encode/decode", "seconds": t_full,
             "failed_words": ref_failed},
            {"path": "candidate words only", "seconds": t_fast,
             "failed_words": failed},
        ],
    )
    print(f"mc_block speedup: {speedup:.2f}x (gate {MC_BLOCK_SPEEDUP_GATE}x)")
    record_ecc_metrics(
        record,
        {
            "code": "bch",
            "words": WORDS,
            "data_bits": DATA_BITS,
            "ber": ber,
            "failed_words": failed,
            "full_codec_failed_words": ref_failed,
            "full_codec_seconds": t_full,
            "mc_block_seconds": t_fast,
            "speedup_mc_block_vs_full_codec": speedup,
        },
    )
    assert speedup >= MC_BLOCK_SPEEDUP_GATE


def test_bch_block_codec_beats_scalar(run_once):
    """BCH t=2 is the heaviest decoder (two GF syndromes + Chien search);
    its vectorized block path must clear the gate on a realistic
    advisor-sized batch with a mix of clean/1/2-flip words."""
    from repro.testing.ecc import make_code

    code = make_code("bch", DATA_BITS)
    rng = np.random.default_rng(0)
    data = rng.integers(0, 2, size=(WORDS, DATA_BITS)).astype(np.int8)
    received = code.encode_block(data)
    n = code.codeword_bits
    for i in range(WORDS):
        for pos in rng.choice(n, size=i % 3, replace=False):
            received[i, pos] ^= 1

    def experiment():
        (block_data, block_status), t_block = _timed(
            code.decode_block, received
        )

        def scalar_loop():
            datas = np.empty_like(data)
            statuses = []
            for i in range(WORDS):
                datas[i], status = code.decode(received[i])
                statuses.append(status)
            return datas, statuses

        (scalar_data, scalar_status), t_scalar = _timed(scalar_loop)
        return block_data, scalar_data, t_block, t_scalar

    block_data, scalar_data, t_block, t_scalar = run_once(experiment)
    assert np.array_equal(block_data, scalar_data)
    speedup = t_scalar / t_block
    words_per_sec = WORDS / t_block
    print_table(
        f"BCH({DATA_BITS}) decode, {WORDS} words",
        [
            {"path": "scalar reference", "seconds": t_scalar,
             "words_per_sec": WORDS / t_scalar},
            {"path": "vectorized block", "seconds": t_block,
             "words_per_sec": words_per_sec},
        ],
    )
    print(f"block-codec speedup: {speedup:.1f}x (gate {CODEC_SPEEDUP_GATE}x)")
    record_ecc_metrics(
        "bch_block_codec",
        {
            "words": WORDS,
            "data_bits": DATA_BITS,
            "scalar_seconds": t_scalar,
            "block_seconds": t_block,
            "block_words_per_sec": words_per_sec,
            "speedup_block_vs_scalar": speedup,
        },
    )
    assert speedup >= CODEC_SPEEDUP_GATE


def test_advisor_parallel_bit_identical(run_once):
    """The advisor rides the deterministic sweep engine: the same seed
    must give byte-for-byte identical rows and the same knee at any
    worker count."""
    import json

    from repro.testing.ecc_advisor import advise_ecc, ecc_advisor_analysis

    kw = dict(
        codes=("secded", "bch", "secdaec"),
        yields=(0.999, 0.99),
        mc_words=1024,
        trials=2,
        seed=0,
    )

    def experiment():
        serial, t_serial = _timed(advise_ecc, workers=0, **kw)
        parallel, t_par = _timed(advise_ecc, workers=2, **kw)
        return serial, parallel, t_serial, t_par

    serial, parallel, t_serial, t_par = run_once(experiment)
    assert serial == parallel
    assert json.dumps(serial, sort_keys=True) == json.dumps(
        parallel, sort_keys=True
    )
    knee_serial = ecc_advisor_analysis(serial)["knee"]
    knee_parallel = ecc_advisor_analysis(parallel)["knee"]
    assert knee_serial == knee_parallel
    print_table(
        f"advisor determinism ({len(serial)} grid rows)",
        [
            {"backend": "serial (workers=0)", "seconds": t_serial},
            {"backend": "parallel (workers=2)", "seconds": t_par},
        ],
    )
    print(
        f"bit-identical: True; knee = {knee_serial['code']} at yield "
        f"{knee_serial['cell_yield']}"
    )
    record_ecc_metrics(
        "advisor_determinism",
        {
            "grid_rows": len(serial),
            "serial_seconds": t_serial,
            "parallel_seconds": t_par,
            # Determinism record, not a scaling gate: worker scaling is
            # owned by test_bench_sweep_engine.py.
            "speedup_parallel_vs_serial": t_serial / t_par,
            "bit_identical": True,
            "knee_code": knee_serial["code"],
        },
    )
