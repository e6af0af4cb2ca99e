"""The placement kernel against a brute-force oracle of its rule.

:class:`~repro.serve.shard.PoolKernel` replays encoded events over
lazily validated heaps. The oracle below scans every server instead,
so it shares no structure with the kernel: an arrival goes to the
same-profile server with the highest count below its cap (lowest index
on ties), else to the lowest-index idle server, else to the baseline
pool. The seeded streams cover what the serving workloads never reach:
full pools, baseline arrivals and their departures, caps that rise
mid-stream, departures in a later step than their arrival, and job
positions reused across steps.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.errors import ConfigurationError
from repro.serve.engine import ServingEngine
from repro.serve.service import RandomDecider
from repro.serve.shard import PoolKernel
from repro.serve.traffic import poisson_trace
from repro.workloads.cloudsuite import cloudsuite_apps
from repro.workloads.spec import spec_even

THREADS = 4
N_STATES = THREADS + 2


class Oracle:
    """The placement rule by exhaustive scan, one event at a time."""

    def __init__(self, n_servers: int) -> None:
        self.prof = [-1] * n_servers
        self.cnt = [0] * n_servers
        self.placed: dict[int, int] = {}

    def arrive(self, job: int, profile: int, cap: int) -> tuple[int, int]:
        best = -1
        for s, (p, c) in enumerate(zip(self.prof, self.cnt)):
            if p == profile and c < cap and (
                    best < 0 or c > self.cnt[best]):
                best = s
        if best < 0:
            best = next(
                (s for s, p in enumerate(self.prof) if p == -1), -1
            )
        self.placed[job] = best
        if best < 0:
            return -1, 0
        self.prof[best] = profile
        self.cnt[best] += 1
        return best, self.cnt[best]

    def depart(self, job: int) -> tuple[int, int]:
        s = self.placed.pop(job)
        if s < 0:
            return -1, 0
        self.cnt[s] -= 1
        if not self.cnt[s]:
            self.prof[s] = -1
        return s, self.cnt[s]

    def groups(self) -> list[tuple[int, int, int]]:
        states: dict[tuple[int, int], int] = {}
        for p, c in zip(self.prof, self.cnt):
            if c:
                states[p, c] = states.get((p, c), 0) + 1
        return [(p, c, n) for (p, c), n in sorted(states.items())]


def random_stream(seed: int, *, n_profiles: int, n_steps: int,
                  cap_limits=None):
    """Seeded steps of ``(is_arrival, job_pos, profile, cap, splits)``.

    Each profile's cap ceiling starts low and rises at random points
    (or is fixed by ``cap_limits``); a job position is reused once its
    job has departed, but arrives at most once per step.
    """
    rng = np.random.default_rng(seed)
    limits = (list(cap_limits) if cap_limits is not None
              else [int(rng.integers(0, 2)) for _ in range(n_profiles)])
    free = list(range(6 * n_profiles + 8))
    active: dict[int, tuple[int, int]] = {}
    steps = []
    for _ in range(n_steps):
        arrived_here: set[int] = set()
        columns: list[tuple[bool, int, int, int]] = []
        splits = [0]
        for _ in range(int(rng.integers(1, 4))):
            for _ in range(int(rng.integers(0, 12))):
                if cap_limits is None and rng.random() < 0.05:
                    p = int(rng.integers(n_profiles))
                    limits[p] = min(THREADS, limits[p] + 1)
                candidates = [j for j in free if j not in arrived_here]
                if active and (not candidates or rng.random() < 0.45):
                    job = sorted(active)[int(rng.integers(len(active)))]
                    profile, cap = active.pop(job)
                    free.append(job)
                    columns.append((False, job, profile, cap))
                elif candidates:
                    job = candidates[int(rng.integers(len(candidates)))]
                    free.remove(job)
                    arrived_here.add(job)
                    profile = int(rng.integers(n_profiles))
                    cap = int(rng.integers(0, limits[profile] + 1))
                    active[job] = (profile, cap)
                    columns.append((True, job, profile, cap))
            splits.append(len(columns))
        is_arrival, job_pos, profile_idx, cap = (
            np.array(column, dtype=dtype) for column, dtype in zip(
                zip(*columns) if columns else ((), (), (), ()),
                (bool, np.int64, np.int64, np.int64),
            )
        )
        steps.append((is_arrival, job_pos, profile_idx, cap,
                      np.array(splits, dtype=np.int64)))
    return steps


def oracle_replay(n_servers: int, steps):
    oracle = Oracle(n_servers)
    server, instances, groups = [], [], []
    for is_arrival, job_pos, profile_idx, cap, splits in steps:
        for lo, hi in zip(splits[:-1].tolist(), splits[1:].tolist()):
            for i in range(lo, hi):
                if is_arrival[i]:
                    s, c = oracle.arrive(int(job_pos[i]),
                                         int(profile_idx[i]), int(cap[i]))
                else:
                    s, c = oracle.depart(int(job_pos[i]))
                server.append(s)
                instances.append(c)
            groups.append(oracle.groups())
    return np.array(server), np.array(instances), groups


def kernel_replay(n_servers: int, steps) -> tuple[PoolKernel, list]:
    kernel = PoolKernel(n_servers, N_STATES)
    returned = []
    for columns in steps:
        returned.extend(kernel.step(*columns))
    return kernel, returned


class TestAgainstOracle:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_brute_force(self, seed):
        n_servers = 2 + seed % 3
        steps = random_stream(seed, n_profiles=3, n_steps=12)
        server, instances, groups = oracle_replay(n_servers, steps)
        kernel, returned = kernel_replay(n_servers, steps)
        result = kernel.result()
        np.testing.assert_array_equal(result.server, server)
        np.testing.assert_array_equal(result.placement,
                                      (server < 0).astype(np.int8))
        np.testing.assert_array_equal(result.instances_after, instances)
        assert result.groups_per_epoch == groups
        assert returned == groups

    def test_streams_cover_the_hard_cases(self):
        """The seeds above fill pools, raise caps and reuse positions."""
        baseline = raised = reused = later = 0
        for seed in range(40):
            steps = random_stream(seed, n_profiles=3, n_steps=12)
            server, _, _ = oracle_replay(2 + seed % 3, steps)
            arrivals = np.concatenate([s[0] for s in steps])
            baseline += int(np.count_nonzero(arrivals & (server < 0)))
            caps = np.concatenate([s[3] for s in steps])[arrivals]
            raised += int(caps.max() > caps[:len(caps) // 4].max())
            seen: set[int] = set()
            for is_arrival, job_pos, *_ in steps:
                here = set(job_pos[is_arrival].tolist())
                reused += len(here & seen)
                later += len(set(job_pos[~is_arrival].tolist()) - here)
                seen |= here
        assert min(baseline, raised, reused, later) > 0


class TestHeapGrowth:
    def test_no_entries_in_states_no_arrival_can_search(self):
        """Caps of profile p never exceed K: states at count >= K, which
        no arrival searches, must hold no heap entries however long the
        stream runs."""
        limits = [2, 3, THREADS]
        steps = random_stream(7, n_profiles=3, n_steps=60,
                              cap_limits=limits)
        kernel, _ = kernel_replay(4, steps)
        for p, k in enumerate(limits):
            for count in range(max(k, 1), N_STATES):
                assert kernel.buckets[p * N_STATES + count] == []
        # Every fill of a server to its profile's highest cap would have
        # left one entry there that no search ever pops.
        result = kernel.result()
        arrivals = np.concatenate([s[0] for s in steps])
        profiles = np.concatenate([s[2] for s in steps])
        filled = sum(
            int(np.count_nonzero(arrivals & (profiles == p)
                                 & (result.instances_after == k)))
            for p, k in enumerate(limits)
        )
        assert filled > 20

    def test_stale_pops_are_counted(self):
        obs.reset()
        steps = random_stream(3, n_profiles=2, n_steps=40)
        kernel_replay(3, steps)
        counters = obs.snapshot()["counters"]
        assert counters["serve.shard.events"] == sum(
            s[0].size for s in steps
        )
        assert counters["serve.shard.stale_pops"] > 0


class TestContract:
    def test_repeated_arrival_in_one_step_is_rejected(self):
        kernel = PoolKernel(2, N_STATES)
        with pytest.raises(ConfigurationError, match="more than once"):
            kernel.step(np.array([True, False, True]), np.array([5, 5, 5]),
                        np.zeros(3, dtype=np.int64),
                        np.full(3, 2, dtype=np.int64), np.array([0, 3]))

    def test_departure_without_arrival_is_rejected(self):
        kernel = PoolKernel(2, N_STATES)
        with pytest.raises(ConfigurationError, match="never arrived"):
            kernel.step(np.array([False]), np.array([3]),
                        np.zeros(1, dtype=np.int64),
                        np.ones(1, dtype=np.int64), np.array([0, 1]))


class TestKernelCountersOnBothPaths:
    def test_in_process_and_sharded_replays_count_alike(self, snb_sim):
        trace = poisson_trace(spec_even()[:3], rate_per_s=0.05,
                              horizon_s=7_200.0, seed=4)
        totals = []
        for shards in (0, 2):
            engine = ServingEngine(
                snb_sim, cloudsuite_apps()[:2], RandomDecider(9),
                servers_per_app=3, epoch_s=300.0, window_s=900.0,
            )
            obs.reset()
            engine.replay(trace, shards=shards)
            counters = obs.snapshot()["counters"]
            totals.append((counters.get("serve.shard.events", 0),
                           counters.get("serve.shard.stale_pops", 0)))
        assert totals[0] == totals[1]
        assert totals[0][0] > 0
