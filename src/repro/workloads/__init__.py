"""Workload models: SPEC CPU2006, CloudSuite, and synthetic generators.

A workload is a :class:`~repro.workloads.profile.WorkloadProfile` — a static
description of instruction mix, dependency structure, and memory footprint
that the SMT simulator turns into IPC under any co-location. The profiles
here are synthetic stand-ins for the paper's benchmark binaries (see
DESIGN.md, Substitutions).
"""

from repro.workloads.cloudsuite import (
    CLOUDSUITE,
    LatencySensitiveWorkload,
    cloudsuite_apps,
)
from repro.workloads.insights import ResourceClass, classify
from repro.workloads.profile import FootprintStratum, Suite, WorkloadProfile
from repro.workloads.registry import (
    all_profiles,
    get_profile,
    register_profile,
    spec_profiles,
)
from repro.workloads.spec import SPEC_CPU2006, spec_even, spec_odd
from repro.workloads.synthetic import random_profile

__all__ = [
    "CLOUDSUITE",
    "LatencySensitiveWorkload",
    "cloudsuite_apps",
    "ResourceClass",
    "classify",
    "FootprintStratum",
    "Suite",
    "WorkloadProfile",
    "all_profiles",
    "get_profile",
    "register_profile",
    "spec_profiles",
    "SPEC_CPU2006",
    "spec_even",
    "spec_odd",
    "random_profile",
]
