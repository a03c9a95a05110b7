"""The CIM core of Fig 4(b): crossbar array + periphery.

Executes the paper's two in-memory computation styles:

* **CIM-A** (compute in the array): full analog VMM — DACs drive the
  wordlines, every column performs a MAC in O(1), ADCs digitize the
  column currents (:meth:`CIMCore.vmm`);
* **CIM-P** (compute in the periphery): Scouting-Logic-style bulk bitwise
  OR/AND/XOR — several rows are activated simultaneously and a customized
  sense amplifier thresholds the summed bitline current
  (:meth:`CIMCore.scouting_or` etc.).

Every operation charges its component-model energy/latency through the
active energy model into the current telemetry scope — the one cost
ledger — so machine-level comparisons (Fig 1, Table I) fall out of the
same code path that computes the numbers: a caller reads a core's costs
from the :func:`~repro.utils.telemetry.scoped` block it ran in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

import repro.costs.models as energy_models
from repro.crossbar.array import CrossbarArray, CrossbarConfig
from repro.crossbar.mapping import DifferentialPairMapping, InputEncoder
from repro.devices.reram import ConductanceLevels
from repro.devices.variability import VariabilityStack
from repro.periphery.adc import ADC, ADCConfig
from repro.periphery.dac import DAC, DACConfig
from repro.periphery.drivers import DriverConfig, RowDecoder, WordlineDriver
from repro.periphery.sense_amp import SenseAmpConfig, SenseAmplifier
from repro.utils import telemetry
from repro.utils.rng import RNGLike, ensure_rng
from repro.utils.validation import check_positive


@dataclass
class CIMCoreParams:
    """Configuration of one CIM core."""

    rows: int = 64
    logical_cols: int = 32          # logical output columns (pre-mapping)
    adc_bits: int = 8
    v_read: float = 0.2
    levels: ConductanceLevels = field(default_factory=ConductanceLevels)
    array_settle_time: float = 1e-9     # s per analog evaluation
    transimpedance: float = 1e3         # ohm, current-to-voltage for the ADC
    wire_resistance: float = 0.0        # ohm/segment; > 0 enables the
                                        # circuit-accurate IR-drop solver

    def __post_init__(self) -> None:
        if self.rows < 1 or self.logical_cols < 1:
            raise ValueError("rows and logical_cols must be >= 1")
        check_positive("v_read", self.v_read)
        check_positive("array_settle_time", self.array_settle_time)
        check_positive("transimpedance", self.transimpedance)
        if self.wire_resistance < 0:
            raise ValueError("wire_resistance must be >= 0")


class CIMCore:
    """One crossbar tile with full periphery and cost accounting."""

    def __init__(
        self,
        params: Optional[CIMCoreParams] = None,
        variability: Optional[VariabilityStack] = None,
        rng: RNGLike = None,
    ) -> None:
        self.params = params or CIMCoreParams()
        gen = ensure_rng(rng)
        p = self.params

        self.mapping = DifferentialPairMapping(levels=p.levels, w_max=1.0)
        physical_cols = p.logical_cols * self.mapping.columns_per_weight
        self.array = CrossbarArray(
            CrossbarConfig(
                rows=p.rows,
                cols=physical_cols,
                levels=p.levels,
                read_voltage=p.v_read,
            ),
            variability=variability or VariabilityStack.ideal(),
            rng=gen,
        )
        self.encoder = InputEncoder(v_read=p.v_read)
        self.dac = DAC(DACConfig(bits=1, v_max=p.v_read))
        # ADC full scale sized for the worst-case column current.
        i_max = p.rows * p.v_read * p.levels.g_max
        self.adc = ADC(
            ADCConfig(bits=p.adc_bits, v_min=0.0, v_max=i_max * p.transimpedance)
        )
        self.decoder = RowDecoder(p.rows)
        self.driver = WordlineDriver(p.rows)
        self.sense_amp = SenseAmplifier(SenseAmpConfig(), rng=gen)
        self._programmed = False
        self._ir_solver = None
        if p.wire_resistance > 0:
            from repro.crossbar.solver import NodalCrossbarSolver

            self._ir_solver = NodalCrossbarSolver(
                wire_resistance=p.wire_resistance
            )

    # -------------------------------------------------------------- weights
    def program_weights(self, weights: np.ndarray, verify: bool = True) -> None:
        """Map signed weights in ``[-1, 1]`` onto the array (differential
        pairs) and program, optionally with write-verify."""
        weights = np.asarray(weights, dtype=float)
        p = self.params
        if weights.shape != (p.rows, p.logical_cols):
            raise ValueError(
                f"weights must have shape ({p.rows}, {p.logical_cols}), "
                f"got {weights.shape}"
            )
        targets = self.mapping.map(weights)
        if verify:
            iterations = self.array.program_with_verify(targets)
        else:
            self.array.program(targets)
            iterations = 1
        # SET-pulse energy (CV^2-style per-cell write), priced by the
        # active energy model: static reproduces the historical constant,
        # value-aware keys on the target conductance states.
        energy_models.active_model().charge_programming(
            n_cells=targets.size,
            iterations=iterations,
            targets=targets,
            g_min=p.levels.g_min,
            g_max=p.levels.g_max,
        )
        self._programmed = True
        self.invalidate_solver_cache()

    def invalidate_solver_cache(self) -> None:
        """Drop the IR-drop solver's cached LU factorizations and their
        transfer rows.

        Called automatically after reprogramming; fault injectors that
        mutate :attr:`array` directly should call it too.  (Correctness
        does not depend on it — the cache is keyed on a fingerprint of the
        conductances — but stale factorizations waste cache slots.)
        """
        if self._ir_solver is not None:
            self._ir_solver.invalidate_cache()

    # ------------------------------------------------------------ CIM-A VMM
    def vmm(self, x: np.ndarray, noisy: bool = True) -> np.ndarray:
        """Full analog VMM with digitization: ``y ~ x @ W`` (Fig 4).

        ``x`` entries must lie in ``[0, 1]``.  The pipeline is
        DAC -> crossbar -> transimpedance -> ADC -> differential decode.
        """
        x = np.asarray(x, dtype=float)
        p = self.params
        if x.shape != (p.rows,):
            raise ValueError(f"x must have shape ({p.rows},), got {x.shape}")
        return self.vmm_batch(x[None, :], noisy=noisy)[0]

    def vmm_batch(self, x: np.ndarray, noisy: bool = True) -> np.ndarray:
        """Batched analog VMM: each row of ``x`` is one input vector.

        All inputs in the batch see the same conductance snapshot (one
        read-noise sample), modelling back-to-back evaluations within the
        noise correlation time.  With ``wire_resistance > 0`` a clean read
        goes through the transfer matrix of the cached LU factorization
        (:meth:`~repro.crossbar.solver.NodalCrossbarSolver.solve_batch` with
        ``transfer=True``): once a wordline's transfer row is solved, the
        per-input cost is a (rows x cols) product, and each input's
        currents are bit-identical to reading it alone.  A noisy read
        factorizes its fresh conductance snapshot and back-substitutes the
        whole batch against it in one multi-RHS solve.
        """
        if not self._programmed:
            raise RuntimeError("program_weights must be called before vmm")
        x = np.asarray(x, dtype=float)
        p = self.params
        if x.ndim != 2 or x.shape[1] != p.rows:
            raise ValueError(
                f"x must have shape (batch, {p.rows}), got {x.shape}"
            )
        batch = x.shape[0]
        if batch < 1:
            raise ValueError("batch must contain at least one input vector")

        telemetry.current().incr("core.vmm_batches")
        telemetry.current().incr("core.vmm_inputs", batch)
        activations_before = self.driver.activations
        voltages = self.driver.drive_analog(self.encoder.amplitude(x))
        if self._ir_solver is not None:
            g = (
                self.array.read_conductances()
                if noisy
                else self.array.conductances()
            )
            # A clean state is read again by every later flush, so it is
            # read through its cached transfer matrix; a noisy snapshot is
            # read once and back-substituted directly.
            currents = self._ir_solver.solve_batch(
                g, voltages, transfer=not noisy
            ).column_currents
        else:
            currents = self.array.mvm_batch(voltages, noisy=noisy)
        # Digitize each physical column.
        volts = currents * p.transimpedance
        codes = self.adc.quantize_array(volts)
        digitized = self.adc.reconstruct(codes) / p.transimpedance
        y = self.mapping.decode(digitized, voltages, v_scale=p.v_read)

        n_cols = self.array.cols
        # Same left-to-right float sum as adding the rows' powers one by one.
        settle_power = sum(self.array.dynamic_read_power(voltages).tolist())
        model = energy_models.active_model()
        model.charge_dac(
            self.dac,
            rows=p.rows,
            batch=batch,
            voltages=voltages,
            v_ref=p.v_read,
        )
        model.charge_array(
            settle_power=settle_power,
            settle_time=p.array_settle_time,
            batch=batch,
            column_volts=volts,
            v_fs=self.adc.config.v_max,
        )
        model.charge_adc(self.adc, n_cols=n_cols, batch=batch, codes=codes)
        # Wordline-driver energy: previously accrued only in the driver's
        # side counter and never reached any breakdown (the driver leak).
        model.charge_driver(
            self.driver.config,
            activations=self.driver.activations - activations_before,
            batch=batch,
            voltages=voltages,
            v_ref=p.v_read,
        )
        return y

    def vmm_reference(self, x: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Ideal digital reference for accuracy comparisons."""
        return np.asarray(x, dtype=float) @ np.asarray(weights, dtype=float)

    # --------------------------------------------------------- CIM-P logic
    def _stored_bits(self, row: int) -> np.ndarray:
        """Interpret each physical column's cell on ``row`` as a bit
        (above/below the conductance midpoint)."""
        levels = self.params.levels
        midpoint = 0.5 * (levels.g_min + levels.g_max)
        return (self.array.conductances()[row] >= midpoint).astype(int)

    def write_bit_row(self, row: int, bits: np.ndarray) -> None:
        """Store a bit vector on one wordline (LRS = 1, HRS = 0).

        Only the addressed row is pulsed: re-programming the untouched
        rows would re-draw their write variation (corrupting stored data)
        and, worse, make a full-array reprogram free — the cost leak this
        method used to have.  Exactly one row's worth of programming
        energy/latency is charged.
        """
        bits = np.asarray(bits)
        if bits.shape != (self.array.cols,):
            raise ValueError(
                f"bits must have shape ({self.array.cols},), got {bits.shape}"
            )
        levels = self.params.levels
        targets = np.where(bits > 0, levels.g_max, levels.g_min)
        self.array.program_row(row, targets)
        energy_models.active_model().charge_programming(
            n_cells=self.array.cols,
            targets=targets,
            g_min=levels.g_min,
            g_max=levels.g_max,
        )
        telemetry.current().incr("core.bit_row_writes")
        self._programmed = True
        self.invalidate_solver_cache()

    def _scouting(self, rows: Sequence[int], op: str) -> np.ndarray:
        p = self.params
        telemetry.current().incr("core.scouting_ops")
        activations_before = self.driver.activations
        mask = self.decoder.decode_many(list(rows))
        voltages = self.driver.drive(mask, p.v_read)
        currents = self.array.vmm(voltages)
        i_lrs = p.v_read * p.levels.g_max
        out = np.zeros(self.array.cols, dtype=int)
        for j in range(self.array.cols):
            if op == "or":
                out[j] = int(self.sense_amp.compare(currents[j], i_lrs / 2))
            elif op == "and":
                out[j] = int(
                    self.sense_amp.compare(
                        currents[j], (len(rows) - 0.5) * i_lrs
                    )
                )
            else:  # xor (2-operand)
                above = self.sense_amp.compare(currents[j], 0.5 * i_lrs)
                below = not self.sense_amp.compare(currents[j], 1.5 * i_lrs)
                out[j] = int(above and below)
        model = energy_models.active_model()
        model.charge_sense(self.sense_amp.config, n_senses=self.array.cols)
        model.charge_array(
            settle_power=self.array.dynamic_read_power(voltages),
            settle_time=p.array_settle_time,
        )
        # Decoder + driver charges (Section II-B2 periphery; previously
        # the driver's energy lived only in its side counter).
        model.charge_decoder(self.decoder.config, n_rows=len(rows))
        model.charge_driver(
            self.driver.config,
            activations=self.driver.activations - activations_before,
            voltages=voltages,
            v_ref=p.v_read,
        )
        return out

    def scouting_or(self, rows: Sequence[int]) -> np.ndarray:
        """Bulk bitwise OR of the bit vectors stored on ``rows`` (CIM-P)."""
        if len(rows) < 2:
            raise ValueError("scouting OR needs at least two rows")
        return self._scouting(rows, "or")

    def scouting_and(self, rows: Sequence[int]) -> np.ndarray:
        """Bulk bitwise AND of the bit vectors stored on ``rows`` (CIM-P)."""
        if len(rows) < 2:
            raise ValueError("scouting AND needs at least two rows")
        return self._scouting(rows, "and")

    def scouting_xor(self, rows: Sequence[int]) -> np.ndarray:
        """Bitwise XOR of exactly two stored rows (CIM-P)."""
        if len(rows) != 2:
            raise ValueError("scouting XOR takes exactly two rows")
        return self._scouting(rows, "xor")

    # ------------------------------------------------------------ telemetry
    def area_breakdown(self) -> dict:
        """Per-component area (mm^2) of this tile's datapath.

        One ADC channel per physical column (column-parallel conversion,
        matching the per-conversion energy charged in :meth:`vmm_batch`),
        one DAC per wordline, the driver/decoder stack, one sense
        amplifier per column, and the cell array itself.
        """
        p = self.params
        n_cols = self.array.cols
        return {
            "adc": self.adc.area * n_cols,
            "dac": self.dac.area * p.rows,
            "driver": self.driver.area,
            "sense_amp": self.sense_amp.config.area * n_cols,
            "crossbar": energy_models.CELL_AREA * p.rows * n_cols,
        }
