"""CIM architecture layer (Section II).

* :mod:`repro.core.classification` — the Fig 2 taxonomy (CIM-A, CIM-P,
  COM-N, COM-F) and the qualitative Table I attributes;
* :mod:`repro.core.vonneumann` — the von-Neumann reference machine of
  Fig 1(a), where every operand crosses the memory bus;
* :mod:`repro.core.cim_core` — the CIM core of Fig 4(b): crossbar +
  periphery executing analog VMM (CIM-A) and sense-amplifier bitwise
  logic (CIM-P, Scouting-Logic style);
* :mod:`repro.core.accelerator` — a multi-tile CIM accelerator that maps
  large matrices across cores;
* :mod:`repro.core.comparison` — the quantitative re-derivation of
  Table I from the machine models.
"""

from repro.core.classification import (
    ArchitectureClass,
    ComputePosition,
    Rating,
    TABLE_I,
    classify,
    table_i_rows,
)
from repro.core.vonneumann import VonNeumannMachine, VonNeumannParams
from repro.core.cim_core import CIMCore, CIMCoreParams
from repro.core.accelerator import CIMAccelerator, AcceleratorParams
from repro.core.comparison import ArchitectureComparator, quantitative_table_i
from repro.core.bitserial import ScoutingAdder, cim_p_vs_cim_a_cost
from repro.core.diva import DIVAParams, DIVASystem, Kernel, KernelShape
from repro.core.dimensioning import (
    ChipReport,
    ChipSpec,
    adc_bits_sweep,
    dimension_chip,
    technology_sweep,
)
from repro.core.revamp import (
    ApplyInstr,
    Operand,
    ReVAMPMachine,
    ReVAMPProgram,
    ReadInstr,
    compile_mig_to_revamp,
)

__all__ = [
    "ArchitectureClass",
    "ComputePosition",
    "Rating",
    "TABLE_I",
    "classify",
    "table_i_rows",
    "VonNeumannMachine",
    "VonNeumannParams",
    "CIMCore",
    "CIMCoreParams",
    "CIMAccelerator",
    "AcceleratorParams",
    "ArchitectureComparator",
    "quantitative_table_i",
    "ApplyInstr",
    "Operand",
    "ReVAMPMachine",
    "ReVAMPProgram",
    "ReadInstr",
    "compile_mig_to_revamp",
    "ChipReport",
    "ChipSpec",
    "adc_bits_sweep",
    "dimension_chip",
    "technology_sweep",
    "ScoutingAdder",
    "cim_p_vs_cim_a_cost",
    "DIVAParams",
    "DIVASystem",
    "Kernel",
    "KernelShape",
]
