"""Tests for the sense amplifier (CIM-P / Scouting Logic)."""

import numpy as np
import pytest

from repro.core.cim_core import CIMCore, CIMCoreParams
from repro.periphery.sense_amp import SenseAmpConfig, SenseAmplifier
from repro.utils import telemetry


I_LRS = 1e-5
I_HRS = 1e-8


class TestCompare:
    def test_basic_threshold(self):
        sa = SenseAmplifier(rng=0)
        assert sa.compare(2e-5, 1e-5)
        assert not sa.compare(5e-6, 1e-5)

    def test_offset_is_static_per_instance(self):
        sa = SenseAmplifier(SenseAmpConfig(offset_sigma=1e-6), rng=1)
        assert sa.offset == sa.offset

    def test_offset_distribution(self):
        offsets = [
            SenseAmplifier(SenseAmpConfig(offset_sigma=1e-6), rng=s).offset
            for s in range(200)
        ]
        assert np.std(offsets) == pytest.approx(1e-6, rel=0.2)

    def test_zero_sigma_zero_offset(self):
        assert SenseAmplifier(SenseAmpConfig(offset_sigma=0.0), rng=0).offset == 0.0

    def test_sense_count_and_energy(self):
        sa = SenseAmplifier(rng=0)
        with telemetry.scoped() as scope:
            sa.compare(1e-5, 2e-5)
            sa.compare(1e-5, 2e-5)
        assert sa.sense_count == 2
        assert scope.counters["sense_amp.compares"] == 2

    def test_scouting_books_one_sense_per_column(self):
        """A scouting op compares every physical column once; the static
        model books exactly their sensing energy into the scope."""
        core = CIMCore(CIMCoreParams(rows=8, logical_cols=8), rng=3)
        with telemetry.scoped() as scope:
            core.scouting_or([0, 1])
        cols = core.array.cols
        assert scope.counters["sense_amp.compares"] == cols
        assert scope.counters["cost.energy.sense_amp"] == pytest.approx(
            cols * core.sense_amp.config.energy_per_sense, rel=1e-15, abs=0
        )


class TestScoutingSenses:
    def test_or_truth_table(self):
        sa = SenseAmplifier(rng=0)
        cases = {
            (I_HRS, I_HRS): False,
            (I_LRS, I_HRS): True,
            (I_HRS, I_LRS): True,
            (I_LRS, I_LRS): True,
        }
        for currents, expected in cases.items():
            assert sa.sense_or(currents, I_LRS) == expected

    def test_and_truth_table(self):
        sa = SenseAmplifier(rng=0)
        cases = {
            (I_HRS, I_HRS): False,
            (I_LRS, I_HRS): False,
            (I_HRS, I_LRS): False,
            (I_LRS, I_LRS): True,
        }
        for currents, expected in cases.items():
            assert sa.sense_and(currents, I_LRS, n=2) == expected

    def test_xor_truth_table(self):
        sa = SenseAmplifier(rng=0)
        cases = {
            (I_HRS, I_HRS): False,
            (I_LRS, I_HRS): True,
            (I_HRS, I_LRS): True,
            (I_LRS, I_LRS): False,
        }
        for currents, expected in cases.items():
            assert sa.sense_xor2(currents, I_LRS) == expected

    def test_and_multi_input(self):
        sa = SenseAmplifier(rng=0)
        assert sa.sense_and([I_LRS] * 4, I_LRS, n=4)
        assert not sa.sense_and([I_LRS] * 3 + [I_HRS], I_LRS, n=4)

    def test_and_requires_positive_n(self):
        with pytest.raises(ValueError):
            SenseAmplifier(rng=0).sense_and([I_LRS], I_LRS, n=0)

    def test_large_offset_causes_errors(self):
        """Low noise margin + comparator offset = wrong outputs — the
        Section II-E reliability concern, quantified."""
        errors = 0
        for seed in range(100):
            inst = SenseAmplifier(SenseAmpConfig(offset_sigma=I_LRS), rng=seed)
            if inst.sense_or([I_HRS, I_HRS], I_LRS):
                errors += 1
        assert errors > 0
