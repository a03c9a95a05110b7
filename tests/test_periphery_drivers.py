"""Tests for row decoder and wordline driver (incl. ADF injection)."""

import numpy as np
import pytest

from repro.core.cim_core import CIMCore, CIMCoreParams
from repro.periphery.drivers import DriverConfig, RowDecoder, WordlineDriver
from repro.utils import telemetry


class TestRowDecoder:
    def test_one_hot_decode(self):
        dec = RowDecoder(8)
        mask = dec.decode(3)
        assert mask[3]
        assert mask.sum() == 1

    def test_multi_row_activation(self):
        """CIM decoders enable several rows in parallel (Section II-B2)."""
        dec = RowDecoder(8)
        mask = dec.decode_many([0, 2, 5])
        assert mask.sum() == 3
        assert mask[0] and mask[2] and mask[5]

    def test_adf_no_access(self):
        dec = RowDecoder(8)
        dec.inject_fault(4, [])
        assert dec.decode(4).sum() == 0

    def test_adf_wrong_row(self):
        dec = RowDecoder(8)
        dec.inject_fault(1, [6])
        mask = dec.decode(1)
        assert mask[6] and not mask[1]

    def test_adf_multiple_rows(self):
        dec = RowDecoder(8)
        dec.inject_fault(2, [2, 3])
        assert dec.decode(2).sum() == 2

    def test_clear_faults(self):
        dec = RowDecoder(8)
        dec.inject_fault(0, [7])
        dec.clear_faults()
        assert not dec.has_faults
        assert dec.decode(0)[0]

    def test_address_bounds(self):
        dec = RowDecoder(4)
        with pytest.raises(ValueError):
            dec.decode(4)
        with pytest.raises(ValueError):
            dec.inject_fault(0, [9])


class TestWordlineDriver:
    def test_drive_applies_voltage_to_mask(self):
        drv = WordlineDriver(4)
        mask = np.array([True, False, True, False])
        v = drv.drive(mask, 0.2)
        assert np.allclose(v, [0.2, 0.0, 0.2, 0.0])

    def test_energy_accounting(self):
        """A two-row scouting op drives two wordlines; the static model
        books exactly their drive energy into the scope."""
        core = CIMCore(CIMCoreParams(rows=8, logical_cols=8), rng=3)
        with telemetry.scoped() as scope:
            core.scouting_or([0, 1])
        assert scope.counters["driver.activations"] == 2
        assert scope.counters["cost.energy.driver"] == pytest.approx(
            2 * core.driver.config.energy_per_activation, rel=1e-15, abs=0
        )

    def test_analog_drive(self):
        drv = WordlineDriver(3)
        v = drv.drive_analog(np.array([0.1, 0.0, 0.2]))
        assert np.allclose(v, [0.1, 0.0, 0.2])

    def test_area_scales_with_rows(self):
        assert WordlineDriver(64).area == pytest.approx(
            2 * WordlineDriver(32).area
        )

    def test_shape_validation(self):
        drv = WordlineDriver(4)
        with pytest.raises(ValueError):
            drv.drive(np.array([True, False]), 0.2)
        with pytest.raises(ValueError):
            drv.drive_analog(np.zeros(5))
