"""Fig 1 reproduction: the von-Neumann bottleneck vs CIM.

Fig 1(a) depicts memory-processor communication as *the* bottleneck; CIM
(Fig 1b) removes it by computing where the data lives.  The benchmark runs
the same VMM workload on both machine models and reports the energy/time
split between data movement and computation.
"""

import numpy as np

from repro.core.cim_core import CIMCore, CIMCoreParams
from repro.core.vonneumann import VonNeumannMachine
from repro.utils import telemetry
from repro.utils.telemetry import RunReport

from conftest import print_table


def _von_neumann_workload():
    """The workload's run report (the telemetry scope it ran in)."""
    gen = np.random.default_rng(0)
    machine = VonNeumannMachine()
    w = gen.uniform(-1, 1, (128, 64))
    batch = gen.uniform(0, 1, (16, 128))
    with telemetry.scoped() as scope:
        machine.run_workload(batch, w)
    return RunReport.from_counters(scope.counters)


def _cim_workload():
    """The workload's run report (the telemetry scope it ran in)."""
    gen = np.random.default_rng(0)
    core = CIMCore(CIMCoreParams(rows=128, logical_cols=64), rng=1)
    with telemetry.scoped() as scope:
        core.program_weights(gen.uniform(-1, 1, (128, 64)))
        for x in gen.uniform(0, 1, (16, 128)):
            core.vmm(x, noisy=False)
    return RunReport.from_counters(scope.counters)


def test_fig1_von_neumann_movement_dominates(run_once):
    shares = run_once(_von_neumann_workload).energy_fractions()
    movement = shares["data_movement"]
    compute = shares["compute"]
    print_table(
        "Fig 1(a): von-Neumann energy split",
        [
            {"component": "data movement", "energy_share": movement},
            {"component": "compute", "energy_share": compute},
        ],
    )
    # The bottleneck: movement takes the majority of the energy.
    assert movement > 0.6
    assert movement > compute


def test_fig1_cim_removes_the_bottleneck(run_once):
    vn = _von_neumann_workload()
    cim = run_once(_cim_workload)
    rows = [
        {
            "machine": "von-Neumann (COM-F)",
            "energy_uJ": vn.total_energy * 1e6,
            "latency_us": vn.total_latency * 1e6,
            "bytes_moved": vn.total_data_moved,
        },
        {
            "machine": "CIM core",
            "energy_uJ": cim.total_energy * 1e6,
            "latency_us": cim.total_latency * 1e6,
            "bytes_moved": 16 * (128 + 64),  # I/O vectors only
        },
    ]
    print_table("Fig 1: same workload, both architectures", rows)
    # CIM wins on energy and latency by a large factor on this workload.
    assert cim.total_energy < vn.total_energy / 10
    assert cim.total_latency < vn.total_latency / 10
