"""Queueing substrate for tail-latency modelling (Section III-C3).

- :mod:`repro.queueing.mm1` — the closed-form FCFS M/M/1 response-time
  model of Equations 4-6;
- :mod:`repro.queueing.des` — a discrete-event simulator of the same
  queue (Lindley recursion), used as the "measured" percentile latency
  the analytic prediction is judged against.
"""

from repro.queueing.des import FcfsQueueSimulation, simulate_fcfs_mm1
from repro.queueing.mm1 import Mm1Queue

__all__ = ["Mm1Queue", "FcfsQueueSimulation", "simulate_fcfs_mm1"]
