"""Persistent on-disk cache for steady-state solves.

Re-running the experiment pipeline after an unrelated edit should skip
every already-converged solve. A solve's key is a content hash of the
full machine spec (architecture facts *and* model knobs), the canonical
placement (every profile's full value tuple plus its core), and the
interference-model *source code* (solver limits included): editing the
model silently invalidates stale entries, while edits elsewhere in the
repo (experiments, scheduler, docs) leave the cache warm.

Each solved batch is one *segment* under
``<root>/segments/<model-code hash prefix>/``: a pickle of its keys,
then one of its results. A stale model's segments are never opened. A
segment is written to a temp file, then renamed under a name unique to
its writer, so concurrent workers share one directory without locking.
A miss reads the key lists of segments the cache has not listed yet; a
segment's results are unpickled only when one of its keys is asked for.
A segment that fails to unpickle is deleted; its keys recompute.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import os
import pickle
import struct
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.obs import counter
from repro.smt.params import MachineSpec
from repro.smt.results import RunResult
from repro.smt.solver import ContextPlacement
from repro.workloads.profile import WorkloadProfile

__all__ = ["PersistentSolveCache", "default_cache", "solve_key"]


@lru_cache(maxsize=1)
def _model_code_hash() -> str:
    """Hash of the source files whose edits change solves or their format."""
    from repro.isa import opcodes
    from repro.smt import (batch, cache, diskcache, membw, params, ports,
                           results, solver)
    from repro.workloads import profile

    digest = hashlib.sha256()
    for module in (solver, batch, cache, ports, membw, params, results,
                   profile, opcodes, diskcache):
        digest.update(Path(module.__file__).read_bytes())
    return digest.hexdigest()


def _digest(frozen: object, render: Callable[[Any], object]) -> bytes:
    """sha256 of ``repr(render(frozen))``, cached on the frozen instance."""
    try:
        return frozen.__dict__["_cache_digest"]
    except KeyError:
        digest = hashlib.sha256(repr(render(frozen)).encode()).digest()
        object.__setattr__(frozen, "_cache_digest", digest)
        return digest


def solve_key(machine: MachineSpec,
              placements: Sequence[ContextPlacement]) -> str:
    """Deterministic content hash identifying one solve.

    It hashes the model code, then a digest of the machine's full value
    tuple, then a digest of each profile's full value tuple with its
    core: fixed-size parts, each rendered once per instance.
    """
    digest = hashlib.sha256(_model_code_hash().encode())
    digest.update(_digest(machine, dataclasses.astuple))
    for pl in placements:
        digest.update(_digest(pl.profile, WorkloadProfile.key))
        digest.update(struct.pack("<q", pl.core))
    return digest.hexdigest()


def _read(path: Path, offset: int = 0) -> tuple[Any, int] | None:
    """The pickle at ``offset`` in a segment and the offset after it."""
    try:
        with path.open("rb") as stream:
            stream.seek(offset)
            found = pickle.load(stream)
            end = stream.tell()
    except OSError:  # gone (another reader dropped it) or a passing error
        return None
    except Exception:  # damaged bytes raise nearly anything
        path.unlink(missing_ok=True)
        counter("smt.diskcache.invalidations").inc()
        return None
    counter("smt.diskcache.bytes_read").inc(end - offset)
    return found, end


class PersistentSolveCache:
    """Pickled :class:`RunResult` segments keyed by content hash."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.writes = 0
        self._directory = self.root / "segments" / _model_code_hash()[:16]
        self._entries: dict[str, RunResult] = {}
        self._where: dict[str, tuple[Path, int]] = {}  # key: segment, offset
        self._listed: set[str] = set()

    def get(self, key: str) -> RunResult | None:
        counter("smt.diskcache.requests").inc()
        if key not in self._entries:
            if key not in self._where:
                self._list_new()
            if key in self._where:
                self._load(*self._where[key])
        result = self._entries.get(key)
        if result is None:
            counter("smt.diskcache.misses").inc()
        else:
            counter("smt.diskcache.hits").inc()
        return result

    def put(self, entries: dict[str, RunResult]) -> None:
        """Persist one solved batch as one segment."""
        self._entries.update(entries)
        self._directory.mkdir(parents=True, exist_ok=True)
        payload = b"".join(pickle.dumps(part, pickle.HIGHEST_PROTOCOL)
                           for part in (tuple(entries), entries))
        tmp = self._directory / f"{os.urandom(8).hex()}.tmp"
        try:
            tmp.write_bytes(payload)
            os.replace(tmp, tmp.with_suffix(".seg"))
        finally:
            tmp.unlink(missing_ok=True)  # only left behind by a failure
        self._listed.add(f"{tmp.stem}.seg")
        self.writes += len(entries)
        counter("smt.diskcache.writes").inc(len(entries))
        counter("smt.diskcache.bytes_written").inc(len(payload))

    def __len__(self) -> int:
        self._list_new()
        return len(self._entries.keys() | self._where.keys())

    def _list_new(self) -> None:
        """Read the key list of each segment not listed before."""
        directory = self._directory
        names = os.listdir(directory) if directory.is_dir() else []
        for name in sorted(set(names) - self._listed):
            path = directory.joinpath(name)
            if name.endswith(".seg") and (read := _read(path)) is not None:
                self._listed.add(name)
                self._where.update(dict.fromkeys(read[0], (path, read[1])))

    def _load(self, path: Path, offset: int) -> None:
        """Add a segment's results and freeze them out of the GC's walks.

        The GC is paused while the results unpickle: they are thousands
        of fresh objects and none is garbage, so a collection mid-load
        only walks them.
        """
        gc.collect()  # so that no pending garbage is frozen with them
        enabled = gc.isenabled()
        gc.disable()
        try:
            read = _read(path, offset)
        finally:
            if enabled:
                gc.enable()
        if read is None:  # its keys become misses
            self._where = {k: v for k, v in self._where.items()
                           if v[0] != path}
        else:
            self._entries.update(read[0])
            gc.freeze()


def default_cache() -> PersistentSolveCache | None:
    """The cache under ``SMITE_CACHE_DIR`` (``.smite_cache``), if enabled."""
    root = os.environ.get("SMITE_CACHE_DIR", ".smite_cache")
    if os.environ.get("SMITE_NO_CACHE") or not root:
        return None
    return PersistentSolveCache(root)
