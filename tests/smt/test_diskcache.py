"""Tests for symmetric memoization, run_many, and the persistent cache."""

import gc
import pickle
from pathlib import Path

import numpy as np
import pytest

import repro.smt.diskcache as diskcache
from repro.obs import snapshot
from repro.smt.batch import solve_many
from repro.smt.diskcache import PersistentSolveCache, default_cache, solve_key
from repro.smt.params import IVY_BRIDGE, SANDY_BRIDGE_EN
from repro.smt.simulator import ContextPlacement, Simulator
from repro.workloads.spec import SPEC_CPU2006


def _profiles(n):
    return list(dict(SPEC_CPU2006).values())[:n]


def _segments(root):
    return sorted((root / "segments").glob("*/*.seg"))


def _count(name):
    return snapshot()["counters"].get(f"smt.diskcache.{name}", 0)


def _invalidations():
    return _count("invalidations")


def _segment_parts(segment):
    """A segment's keys, the bytes they take, and its other arrays."""
    with segment.open("rb") as stream:
        keys = np.load(stream, allow_pickle=False)
        header = stream.tell()
        arrays = [np.load(stream, allow_pickle=False) for _ in range(6)]
        assert stream.read() == b""
    return [key.decode() for key in keys.tolist()], header, arrays


_UNPICKLED = []


def _trip():
    _UNPICKLED.append("unpickled")


class _Tripwire:
    """Records any attempt to unpickle it."""

    def __reduce__(self):
        return _trip, ()


class TestSymmetricMemoization:
    def test_swapped_pair_reuses_solve(self, mcf, namd):
        sim = Simulator(IVY_BRIDGE, jitter=0.0)
        ab = sim.run_pair(mcf, namd, "smt")
        solves = sim.solve_count
        ba = sim.run_pair(namd, mcf, "smt")
        assert sim.solve_count == solves
        assert ba[0].ipc == ab[1].ipc
        assert ba[1].ipc == ab[0].ipc
        assert ba[0].profile == namd
        assert ba[1].profile == mcf

    def test_core_relabeling_reuses_solve(self, mcf, namd):
        sim = Simulator(IVY_BRIDGE, jitter=0.0)
        first = sim.run([ContextPlacement(mcf, core=0),
                         ContextPlacement(namd, core=2)])
        solves = sim.solve_count
        second = sim.run([ContextPlacement(namd, core=3),
                          ContextPlacement(mcf, core=1)])
        assert sim.solve_count == solves
        assert second[0].ipc == first[1].ipc
        assert second[1].ipc == first[0].ipc
        # results carry the caller's core labels, not the canonical ones
        assert second[0].core == 3
        assert second[1].core == 1

    def test_pair_grid_costs_one_triangle(self):
        profiles = _profiles(5)
        sim = Simulator(IVY_BRIDGE, jitter=0.0)
        for a in profiles:
            for b in profiles:
                sim.run_pair(a, b, "smt")
        # 25 ordered pairs, but only n*(n+1)/2 = 15 distinct co-locations
        assert sim.solve_count == 15


class TestRunMany:
    def test_matches_run_and_dedups(self, mcf, namd, lbm):
        sim = Simulator(IVY_BRIDGE, jitter=0.0)
        jobs = [
            [ContextPlacement(mcf, core=0)],
            [ContextPlacement(mcf, core=0), ContextPlacement(namd, core=0)],
            [ContextPlacement(namd, core=0), ContextPlacement(mcf, core=0)],
            [ContextPlacement(lbm, core=0), ContextPlacement(lbm, core=1)],
        ]
        results = sim.run_many(jobs)
        assert sim.solve_count == 3  # the swapped pair is free
        reference = Simulator(IVY_BRIDGE, jitter=0.0)
        for job, got in zip(jobs, results):
            want = reference.run(job)
            assert [c.ipc for c in got.contexts] == \
                [c.ipc for c in want.contexts]
            assert [c.core for c in got.contexts] == [pl.core for pl in job]

    def test_prefetch_makes_runs_free(self, mcf, namd):
        sim = Simulator(IVY_BRIDGE, jitter=0.0)
        jobs = [[ContextPlacement(mcf, core=0), ContextPlacement(namd, core=0)]]
        sim.prefetch(jobs)
        solves = sim.solve_count
        sim.run_pair(mcf, namd, "smt")
        sim.run_pair(namd, mcf, "smt")
        assert sim.solve_count == solves


class TestPersistentCache:
    def test_warm_simulator_never_solves(self, tmp_path, mcf, namd, lbm):
        profiles = [mcf, namd, lbm]
        cold = Simulator(IVY_BRIDGE, jitter=0.0, disk_cache=tmp_path)
        for a in profiles:
            for b in profiles:
                cold.run_pair(a, b, "smt")
        cold.run_many([[ContextPlacement(p, core=0)] for p in profiles])
        assert cold.solve_count > 0
        assert cold.disk_cache.writes == cold.solve_count

        warm = Simulator(IVY_BRIDGE, jitter=0.0, disk_cache=tmp_path)
        for a in profiles:
            for b in profiles:
                warm.run_pair(a, b, "smt")
        warm.run_many([[ContextPlacement(p, core=0)] for p in profiles])
        assert warm.solve_count == 0

    def test_cold_miss_hashes_its_key_once(self, tmp_path, monkeypatch):
        import repro.smt.simulator as simulator

        calls = []

        def counting_solve_key(machine, placements, **kwargs):
            calls.append(placements)
            return solve_key(machine, placements, **kwargs)

        monkeypatch.setattr(simulator, "solve_key", counting_solve_key)
        problems = [[ContextPlacement(p, core=0)] for p in _profiles(5)]
        sim = Simulator(IVY_BRIDGE, jitter=0.0, disk_cache=tmp_path)
        sim.run_many(problems)
        assert sim.disk_cache.writes == len(problems)
        assert len(calls) == len(problems)

    def test_warm_results_identical(self, tmp_path, mcf, namd):
        cold = Simulator(IVY_BRIDGE, jitter=0.0, disk_cache=tmp_path)
        first = cold.run_pair(mcf, namd, "smt")
        warm = Simulator(IVY_BRIDGE, jitter=0.0, disk_cache=tmp_path)
        second = warm.run_pair(mcf, namd, "smt")
        assert first == second

    def test_key_separates_machines(self, mcf):
        placements = [ContextPlacement(mcf, core=0)]
        assert solve_key(IVY_BRIDGE, placements) != \
            solve_key(SANDY_BRIDGE_EN, placements)

    def test_key_separates_topologies(self, mcf, namd):
        smt = [ContextPlacement(mcf, core=0), ContextPlacement(namd, core=0)]
        cmp_ = [ContextPlacement(mcf, core=0), ContextPlacement(namd, core=1)]
        assert solve_key(IVY_BRIDGE, smt) != solve_key(IVY_BRIDGE, cmp_)

    def test_key_is_a_content_hash(self, mcf):
        def key(profile, core=0):
            return solve_key(IVY_BRIDGE, [ContextPlacement(profile, core)])

        twin = mcf.replace()
        assert twin is not mcf
        assert key(twin) == key(mcf)
        # Same name, other value: a different solve.
        assert key(mcf.replace(itlb_mpki=mcf.itlb_mpki + 0.5)) != key(mcf)
        assert key(mcf, core=1) != key(mcf)

    # Corrupt bytes are not an array file (ValueError), or no data at
    # all (EOFError). Both must fall back to a miss.
    @pytest.mark.parametrize("junk", [b"not a pickle", b"garbage\n", b""])
    def test_corrupt_entry_recomputed(self, tmp_path, mcf, junk):
        key = solve_key(IVY_BRIDGE, [ContextPlacement(mcf, core=0)])
        Simulator(IVY_BRIDGE, jitter=0.0, disk_cache=tmp_path).run_solo(mcf)
        (segment,) = _segments(tmp_path)
        segment.write_bytes(junk)
        cache = PersistentSolveCache(tmp_path)
        invalidations = _invalidations()
        assert cache.get(key) is None
        assert not segment.exists()
        assert _invalidations() == invalidations + 1
        sim = Simulator(IVY_BRIDGE, jitter=0.0, disk_cache=cache)
        assert sim.run_solo(mcf).ipc > 0
        assert sim.solve_count == 1
        assert len(_segments(tmp_path)) == 1

    def test_one_segment_per_batch(self, tmp_path):
        problems = [[ContextPlacement(p, core=0)] for p in _profiles(5)]
        sim = Simulator(IVY_BRIDGE, jitter=0.0, disk_cache=tmp_path)
        sim.run_many(problems)
        (segment,) = _segments(tmp_path)
        keys, _header, arrays = _segment_parts(segment)
        assert keys == [solve_key(IVY_BRIDGE, problem) for problem in problems]
        machine, core, values, dram, iterations, offsets = arrays
        assert str(machine) == IVY_BRIDGE.name
        assert len(iterations) == len(dram) == len(problems)
        assert offsets.tolist() == list(range(len(problems) + 1))
        assert values.shape == (len(problems), 24)
        assert core.tolist() == [0] * len(problems)

    def test_pickled_segment_is_damaged_and_never_unpickled(self, tmp_path,
                                                            mcf):
        key = solve_key(IVY_BRIDGE, [ContextPlacement(mcf, core=0)])
        Simulator(IVY_BRIDGE, jitter=0.0, disk_cache=tmp_path).run_solo(mcf)
        (segment,) = _segments(tmp_path)
        payload = pickle.dumps(_Tripwire())
        pickle.loads(payload)  # the bytes are a working pickle
        assert _UNPICKLED == ["unpickled"]
        segment.write_bytes(payload)
        cache = PersistentSolveCache(tmp_path)
        invalidations = _invalidations()
        assert cache.get(key) is None
        assert _UNPICKLED == ["unpickled"]
        assert not segment.exists()
        assert _invalidations() == invalidations + 1
        sim = Simulator(IVY_BRIDGE, jitter=0.0, disk_cache=cache)
        sim.run_solo(mcf)
        assert sim.solve_count == 1

    def test_only_segments_holding_asked_keys_load(self, tmp_path, mcf, namd):
        sim = Simulator(IVY_BRIDGE, jitter=0.0, disk_cache=tmp_path)
        sim.run_solo(mcf)
        (first,) = _segments(tmp_path)
        sim.run_solo(namd)
        (second,) = set(_segments(tmp_path)) - {first}
        cache = PersistentSolveCache(tmp_path)
        bytes_read = _count("bytes_read")
        key = solve_key(IVY_BRIDGE, [ContextPlacement(namd, core=0)])
        assert cache.get(key) is not None
        # Both key lists are read, but only the second segment's results.
        _keys, header, _arrays = _segment_parts(first)
        assert list(cache._loaded) == [second]
        assert _count("bytes_read") == \
            bytes_read + header + second.stat().st_size
        assert len(cache) == 2

    def test_vanished_segment_is_a_plain_miss(self, tmp_path, mcf):
        # Another reader may drop a segment between our listing and load.
        key = solve_key(IVY_BRIDGE, [ContextPlacement(mcf, core=0)])
        Simulator(IVY_BRIDGE, jitter=0.0, disk_cache=tmp_path).run_solo(mcf)
        (segment,) = _segments(tmp_path)
        cache = PersistentSolveCache(tmp_path)
        assert len(cache) == 1  # listed: its key list is read
        segment.unlink()
        invalidations = _invalidations()
        assert cache.get(key) is None
        assert cache.get(key) is None
        assert _invalidations() == invalidations

    def test_read_error_keeps_the_segment(self, tmp_path, monkeypatch, mcf):
        key = solve_key(IVY_BRIDGE, [ContextPlacement(mcf, core=0)])
        Simulator(IVY_BRIDGE, jitter=0.0, disk_cache=tmp_path).run_solo(mcf)
        (segment,) = _segments(tmp_path)
        cache = PersistentSolveCache(tmp_path)
        invalidations = _invalidations()

        def no_descriptors(self, *args, **kwargs):
            raise OSError(24, "Too many open files")

        with monkeypatch.context() as patch:
            patch.setattr(Path, "open", no_descriptors)
            assert cache.get(key) is None
        assert segment.exists()
        assert _invalidations() == invalidations
        assert cache.get(key) is not None

    def test_damaged_results_recomputed_once(self, tmp_path, monkeypatch):
        # The key list survives but the results are cut short.
        problems = [[ContextPlacement(p, core=0)] for p in _profiles(3)]
        Simulator(IVY_BRIDGE, jitter=0.0, disk_cache=tmp_path).run_many(
            problems)
        (segment,) = _segments(tmp_path)
        segment.write_bytes(segment.read_bytes()[:-100])
        collections = []  # attempts to read the segment's results
        results = diskcache._results
        monkeypatch.setattr(diskcache, "_results",
                            lambda stream: collections.append(1)
                            or results(stream))
        cache = PersistentSolveCache(tmp_path)
        invalidations = _invalidations()
        keys = [solve_key(IVY_BRIDGE, problem) for problem in problems]
        assert gc.isenabled()
        assert [cache.get(key) for key in keys] == [None] * len(keys)
        assert gc.isenabled()  # a load leaves the GC alone
        assert not segment.exists()
        assert _invalidations() == invalidations + 1
        assert len(collections) == 1  # later keys do not retry the load
        sim = Simulator(IVY_BRIDGE, jitter=0.0, disk_cache=cache)
        sim.run_many(problems)
        assert sim.solve_count == len(problems)

    def test_other_model_hash_never_loaded(self, tmp_path, mcf):
        key = solve_key(IVY_BRIDGE, [ContextPlacement(mcf, core=0)])
        Simulator(IVY_BRIDGE, jitter=0.0, disk_cache=tmp_path).run_solo(mcf)
        (segment,) = _segments(tmp_path)
        stale = tmp_path / "segments" / "0123456789abcdef"
        stale.mkdir()
        segment.rename(stale / segment.name)
        cache = PersistentSolveCache(tmp_path)
        assert cache.get(key) is None
        assert len(cache) == 0

    def test_leftover_tmp_never_read(self, tmp_path, mcf):
        key = solve_key(IVY_BRIDGE, [ContextPlacement(mcf, core=0)])
        Simulator(IVY_BRIDGE, jitter=0.0, disk_cache=tmp_path).run_solo(mcf)
        (segment,) = _segments(tmp_path)
        segment.rename(segment.with_suffix(".tmp"))
        cache = PersistentSolveCache(tmp_path)
        assert cache.get(key) is None
        assert segment.with_suffix(".tmp").exists()

    def test_writers_see_each_other_after_a_miss(self, tmp_path, mcf, namd,
                                                 lbm):
        keys, results = {}, {}
        for p in (mcf, namd, lbm):
            placement = [ContextPlacement(p, core=0)]
            keys[p.name] = solve_key(IVY_BRIDGE, placement)
            results[p.name] = solve_many(IVY_BRIDGE, [placement]).problem(0)
        first = PersistentSolveCache(tmp_path)
        second = PersistentSolveCache(tmp_path)

        def put(cache, name):
            cache.put({keys[name]: results[name]})

        put(first, mcf.name)
        assert second.get(keys[mcf.name]) == results[mcf.name]
        assert second.get(keys[namd.name]) is None
        put(first, namd.name)
        assert second.get(keys[namd.name]) == results[namd.name]
        put(second, lbm.name)
        assert first.get(keys[lbm.name]) == results[lbm.name]
        assert len(first) == len(second) == 3

    def test_roundtrip(self, tmp_path, mcf):
        cache = PersistentSolveCache(tmp_path)
        sim = Simulator(IVY_BRIDGE, jitter=0.0, disk_cache=cache)
        result = sim.run_solo(mcf)
        key = solve_key(IVY_BRIDGE, [ContextPlacement(mcf, core=0)])
        stored = cache.get(key)
        assert stored is not None
        assert stored.result([mcf]).contexts == (result,)
        assert len(cache) == 1

    def test_round_trip_materializes_the_same_result(self, tmp_path, mcf,
                                                      namd):
        placements = [ContextPlacement(mcf, core=0),
                      ContextPlacement(namd, core=0)]
        solved = solve_many(IVY_BRIDGE, [placements])
        before = solved[0]
        key = solve_key(IVY_BRIDGE, placements)
        PersistentSolveCache(tmp_path).put({key: solved.problem(0)})
        stored = PersistentSolveCache(tmp_path).get(key)
        assert stored == solved.problem(0)
        after = stored.result([mcf, namd])
        assert repr(after) == repr(before)
        assert after == before


class TestLookupPass:
    def _count_listings(self, monkeypatch):
        listings = []
        listdir = diskcache.os.listdir
        monkeypatch.setattr(diskcache.os, "listdir",
                            lambda path: listings.append(path)
                            or listdir(path))
        return listings

    def test_one_listing_per_cold_batch(self, tmp_path, monkeypatch, mcf):
        Simulator(IVY_BRIDGE, jitter=0.0, disk_cache=tmp_path).run_solo(mcf)
        listings = self._count_listings(monkeypatch)
        profiles = _profiles(6)
        sim = Simulator(IVY_BRIDGE, jitter=0.0, disk_cache=tmp_path)
        sim.run_many([[ContextPlacement(p, core=0)] for p in profiles])
        assert sim.solve_count == len(profiles) - 1  # mcf was on disk
        assert len(listings) == 1
        sim.prefetch_readings(pairs=[(a, b, "smt") for a in profiles
                                     for b in profiles])
        assert sim.solve_count > len(profiles)
        assert len(listings) == 2

    def test_a_later_pass_sees_another_writer(self, tmp_path, mcf, namd):
        keys, results = [], []
        for p in (mcf, namd):
            placement = [ContextPlacement(p, core=0)]
            keys.append(solve_key(IVY_BRIDGE, placement))
            results.append(solve_many(IVY_BRIDGE, [placement]).problem(0))
        reader = PersistentSolveCache(tmp_path)
        writer = PersistentSolveCache(tmp_path)
        writer.put({keys[0]: results[0]})
        with reader.lookup_pass():
            assert reader.get(keys[0]) == results[0]
            assert reader.get(keys[1]) is None
            writer.put({keys[1]: results[1]})
            assert reader.get(keys[1]) is None  # listed once this pass
        with reader.lookup_pass():
            assert reader.get(keys[1]) == results[1]


class TestDefaultCache:
    def test_disabled_by_env(self, monkeypatch):
        monkeypatch.setenv("SMITE_NO_CACHE", "1")
        assert default_cache() is None

    def test_disabled_by_empty_dir(self, monkeypatch):
        monkeypatch.delenv("SMITE_NO_CACHE", raising=False)
        monkeypatch.setenv("SMITE_CACHE_DIR", "")
        assert default_cache() is None

    def test_directory_override(self, monkeypatch, tmp_path):
        monkeypatch.delenv("SMITE_NO_CACHE", raising=False)
        monkeypatch.setenv("SMITE_CACHE_DIR", str(tmp_path / "solves"))
        cache = default_cache()
        assert cache is not None
        assert cache.root == tmp_path / "solves"
