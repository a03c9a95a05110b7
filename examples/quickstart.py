"""Quickstart: one CIM core computing an analog vector-matrix multiply.

Builds the Fig 4(b) pipeline — DACs, memristive crossbar, ADCs — programs
a random weight matrix, runs an inference-style VMM and compares against
the digital reference, then prints the per-component energy breakdown
(which already shows the Fig 5 ADC-dominance story).

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.core import CIMCore, CIMCoreParams
from repro.utils import telemetry
from repro.utils.telemetry import RunReport


def main():
    rng = np.random.default_rng(0)

    # A 64x32 CIM core with 8-bit ADCs (ISAAC-class configuration).
    core = CIMCore(CIMCoreParams(rows=64, logical_cols=32, adc_bits=8), rng=1)

    # Program signed weights; the differential-pair mapping and
    # write-verify programming happen inside.
    weights = rng.uniform(-1, 1, (64, 32))
    core.program_weights(weights)

    # Every charge lands in the current telemetry scope; this one holds
    # the inference phase alone (programming is a one-time cost
    # amortized over the deployment).
    with telemetry.scoped() as inference:
        # One analog VMM: all 64x32 MACs in a single array evaluation.
        x = rng.uniform(0, 1, 64)
        y = core.vmm(x)
        # Run a batch so the steady-state (per-VMM) energy picture emerges.
        for _ in range(99):
            core.vmm(rng.uniform(0, 1, 64))
    reference = x @ weights

    print("CIM core VMM (64x32, 8-bit ADC)")
    print(f"  max |error| vs digital reference: {np.abs(y - reference).max():.4f}")
    print(f"  output correlation:               {np.corrcoef(y, reference)[0, 1]:.6f}")

    print("\nEnergy breakdown (100 VMMs; programming amortizes away):")
    report = RunReport.from_counters(inference.counters)
    shares = report.energy_fractions()
    for category, cost in sorted(report.categories.items()):
        print(
            f"  {category:<12} {cost['energy'] * 1e12:10.3f} pJ   "
            f"({shares[category]:5.1%})"
        )
    print("  -> the ADC dominates, as Fig 5 of the paper reports")

    # The CIM-P mode: bulk bitwise logic with the sense amplifiers.
    a = rng.integers(0, 2, core.array.cols)
    b = rng.integers(0, 2, core.array.cols)
    core.write_bit_row(0, a)
    core.write_bit_row(1, b)
    assert np.array_equal(core.scouting_or([0, 1]), a | b)
    assert np.array_equal(core.scouting_xor([0, 1]), a ^ b)
    print("\nScouting-logic OR/XOR on rows 0,1: verified against NumPy")


if __name__ == "__main__":
    main()
