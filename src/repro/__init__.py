"""SMiTe reproduction: precise QoS-interference prediction on SMT processors.

A full-system reproduction of Zhang, Laurenzano, Mars & Tang, "SMiTe:
Precise QoS Prediction on Real-System SMT Processors to Improve
Utilization in Warehouse Scale Computers" (MICRO 2014), built on an
analytic SMT multicore interference simulator in place of the paper's
physical testbed (see DESIGN.md for the substitution argument).

Quick start::

    from repro import Simulator, IVY_BRIDGE, SMiTe
    from repro.workloads import spec_even, SPEC_CPU2006

    simulator = Simulator(IVY_BRIDGE)
    smite = SMiTe(simulator).fit(spec_even(), mode="smt")
    degradation = smite.predict(SPEC_CPU2006["429.mcf"],
                                SPEC_CPU2006["470.lbm"])

Subpackages:

- :mod:`repro.smt` — the SMT/CMP interference simulator substrate;
- :mod:`repro.workloads` — SPEC CPU2006 / CloudSuite workload models;
- :mod:`repro.isa` — the mini-ISA Rulers are authored in;
- :mod:`repro.rulers` — the seven-dimension stressor suite;
- :mod:`repro.core` — characterization, regression, tail latency (SMiTe);
- :mod:`repro.queueing` — M/M/1 analytics and a discrete-event validator;
- :mod:`repro.scheduler` — the 4,000-server scale-out study;
- :mod:`repro.tco` — the 3-year TCO analysis;
- :mod:`repro.experiments` — one driver per paper table/figure.

The names below resolve on first use (see :mod:`repro._lazy`), so
``import repro`` alone imports neither numpy nor the model.
"""

from typing import TYPE_CHECKING

from repro._lazy import exports

if TYPE_CHECKING:
    from repro.core.predictor import SMiTe
    from repro.core.tail import TailLatencyModel
    from repro.errors import ReproError
    from repro.rulers.base import Dimension
    from repro.rulers.suite import default_suite
    from repro.smt.params import (
        IVY_BRIDGE,
        MACHINES,
        SANDY_BRIDGE_EN,
        MachineSpec,
    )
    from repro.smt.simulator import Simulator
    from repro.workloads.profile import Suite, WorkloadProfile

__version__ = "1.0.0"

__all__ = [
    "SMiTe",
    "TailLatencyModel",
    "ReproError",
    "Dimension",
    "default_suite",
    "IVY_BRIDGE",
    "MACHINES",
    "SANDY_BRIDGE_EN",
    "MachineSpec",
    "Simulator",
    "Suite",
    "WorkloadProfile",
    "__version__",
]

_EXPORTS = {
    "repro.core.predictor": ("SMiTe",),
    "repro.core.tail": ("TailLatencyModel",),
    "repro.errors": ("ReproError",),
    "repro.rulers.base": ("Dimension",),
    "repro.rulers.suite": ("default_suite",),
    "repro.smt.params": ("IVY_BRIDGE", "MACHINES", "SANDY_BRIDGE_EN",
                         "MachineSpec"),
    "repro.smt.simulator": ("Simulator",),
    "repro.workloads.profile": ("Suite", "WorkloadProfile"),
}

__getattr__, __dir__ = exports(globals(), _EXPORTS)
