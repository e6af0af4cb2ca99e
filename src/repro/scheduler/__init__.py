"""Cluster-level scale-out study (Sections IV-C and IV-D).

Models the paper's 4,000-server warehouse: each server runs one
latency-sensitive CloudSuite app half-loaded (one thread per core, the
sibling SMT contexts idle), and a co-location policy decides how many
instances of an arriving batch application may fill the idle contexts
without violating the QoS target.

Policies: the no-co-location baseline, SMiTe (prediction-steered), Oracle
(actual measured degradation), and Random (interference-oblivious, driven
to a target utilization for the violation comparison).
"""

from repro.scheduler.cluster import Cluster, ServerState
from repro.scheduler.metrics import ScaleOutResult, ViolationStats
from repro.scheduler.policies import (
    ColocationPolicy,
    NoColocationPolicy,
    OraclePolicy,
    RandomPolicy,
    SMiTePolicy,
)
from repro.scheduler.qos import QosTarget
from repro.scheduler.scaleout import ScaleOutStudy

__all__ = [
    "Cluster",
    "ServerState",
    "ScaleOutResult",
    "ViolationStats",
    "ColocationPolicy",
    "NoColocationPolicy",
    "OraclePolicy",
    "RandomPolicy",
    "SMiTePolicy",
    "QosTarget",
    "ScaleOutStudy",
]
