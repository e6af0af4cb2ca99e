"""Rulers: the paper's carefully designed software stressors.

A Ruler saturates exactly one sharing dimension — an execution port
(FP_MUL/port 0, FP_ADD/port 1, FP_SHF/port 5, INT_ADD/ports 0+1+5) or a
cache level (L1/L2 via LFSR-randomized accesses over a sized footprint,
L3 via cache-line-stride streaming) — while touching the others as little
as possible. Functional-unit Rulers are authored as the paper's Figure 9
assembly listings and analyzed into profiles; memory Rulers are kernels
shaped like Figure 9(e)/(f).

``default_suite`` returns the seven-dimension suite the SMiTe methodology
characterizes against; :mod:`repro.rulers.validation` checks the design
principles (port purity, pressure linearity) hold.
"""

from repro.rulers.base import Dimension, Ruler, RulerSuite
from repro.rulers.functional_unit import (
    FU_LISTINGS,
    functional_unit_ruler,
    functional_unit_rulers,
)
from repro.rulers.lfsr import Lfsr
from repro.rulers.memory import memory_ruler, memory_rulers
from repro.rulers.suite import default_suite
from repro.rulers.validation import (
    PurityReport,
    validate_linearity,
    validate_purity,
)

__all__ = [
    "Dimension",
    "Ruler",
    "RulerSuite",
    "FU_LISTINGS",
    "functional_unit_ruler",
    "functional_unit_rulers",
    "Lfsr",
    "memory_ruler",
    "memory_rulers",
    "default_suite",
    "PurityReport",
    "validate_linearity",
    "validate_purity",
]
