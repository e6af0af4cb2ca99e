"""Persistent on-disk cache for steady-state solves.

Re-running the experiment pipeline after an unrelated edit should skip
every already-converged solve. A solve's key is a content hash of the
full machine spec (architecture facts *and* model knobs), the canonical
placement (every profile's full value tuple plus its core), and the
interference-model *source code* (solver limits included): editing the
model silently invalidates stale entries, while edits elsewhere in the
repo (experiments, scheduler, docs) leave the cache warm.

Each solved batch is one *segment* under
``<root>/segments/<model-code hash prefix>/``: a run of ``.npy`` arrays,
its keys first (fixed-width bytes), then the machine name and the
columns of its :class:`~repro.smt.results.SolvedBatch`. A segment holds
no profiles: the caller's canonical placement names them, and
:meth:`Solved.result <repro.smt.results.Solved.result>` takes them. A
stale model's segments are never opened. A segment is written to a
temp file, then renamed under a name unique to its writer, so
concurrent workers share one directory without locking. A miss reads
the key arrays of segments the cache has not listed yet, at most once
per :meth:`~PersistentSolveCache.lookup_pass`; a segment's other arrays
are read only when one of its keys is asked for. Every
array is read with ``allow_pickle=False``. A segment that fails to
parse is deleted; its keys recompute.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import os
import struct
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterator, Mapping, Sequence

import numpy as np

from repro.obs import counter
from repro.smt.params import MachineSpec
from repro.smt.results import N_COLUMNS, Solved, SolvedBatch
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


#: A segment's arrays after its key list, in file order.
_COLUMNS = ("core", "values", "dram_utilization", "iterations", "offsets")


def _load_arrays(stream: BinaryIO, count: int) -> list[np.ndarray]:
    """The next ``count`` arrays of a stream, refusing pickled objects."""
    arrays = [np.load(stream, allow_pickle=False) for _ in range(count)]
    if not all(isinstance(array, np.ndarray) for array in arrays):
        raise ValueError("not a segment array")  # an .npz archive
    return arrays


def _batch(machine: np.ndarray, core: np.ndarray, values: np.ndarray,
           dram: np.ndarray, iterations: np.ndarray,
           offsets: np.ndarray) -> SolvedBatch:
    """A segment's batch, once its arrays are checked to fit together."""
    rows = len(core)
    if not (machine.shape == () and values.shape == (rows, N_COLUMNS)
            and offsets.shape == (len(iterations) + 1,)
            and dram.shape == iterations.shape
            and offsets[0] == 0 and offsets[-1] == rows
            and (np.diff(offsets) > 0).all()):
        raise ValueError("segment arrays do not fit together")
    return SolvedBatch(str(machine), None, core, values, dram, iterations,
                       offsets)


def _read(path: Path, offset: int,
          parse: Callable[[BinaryIO], Any]) -> tuple[Any, int] | None:
    """``parse`` of a segment from ``offset``, and the offset after it."""
    try:
        with path.open("rb") as stream:
            stream.seek(offset)
            found = parse(stream)
            end = stream.tell()
    except OSError:  # gone (another reader dropped it) or a passing error
        return None
    except Exception:  # damaged bytes raise nearly anything
        path.unlink(missing_ok=True)
        counter("smt.diskcache.invalidations").inc()
        return None
    counter("smt.diskcache.bytes_read").inc(end - offset)
    return found, end


def _keys(stream: BinaryIO) -> list[str]:
    (keys,) = _load_arrays(stream, 1)
    if keys.ndim != 1 or keys.dtype.kind != "S":
        raise ValueError("not a segment key list")
    return [key.decode() for key in keys.tolist()]


def _results(stream: BinaryIO) -> SolvedBatch:
    return _batch(*_load_arrays(stream, 1 + len(_COLUMNS)))


class PersistentSolveCache:
    """Solved-batch segments of numpy arrays, keyed by content hash.

    :meth:`get` returns a :class:`~repro.smt.results.Solved` handle;
    :meth:`put` takes a batch's handles by key.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.writes = 0
        self._directory = self.root / "segments" / _model_code_hash()[:16]
        self._entries: dict[str, Solved] = {}
        # Listed keys: segment, offset of its results, position in it.
        self._where: dict[str, tuple[Path, int, int]] = {}
        self._loaded: dict[Path, SolvedBatch] = {}
        self._listed: set[str] = set()
        # Inside a lookup pass: whether it listed yet (None outside one).
        self._pass_listed: bool | None = None

    @contextmanager
    def lookup_pass(self) -> Iterator[None]:
        """Misses inside list the segment directory at most once.

        The pass's first miss lists every segment written before it;
        one another writer adds later is seen by the next pass.
        """
        self._pass_listed = False
        try:
            yield
        finally:
            self._pass_listed = None

    def get(self, key: str) -> Solved | None:
        counter("smt.diskcache.requests").inc()
        result = self._entries.get(key)
        if result is None:
            if key not in self._where and not self._pass_listed:
                self._list_new()
                if self._pass_listed is not None:
                    self._pass_listed = True
            if key in self._where:
                result = self._load(*self._where[key])
        if result is None:
            counter("smt.diskcache.misses").inc()
        else:
            counter("smt.diskcache.hits").inc()
        return result

    def put(self, entries: Mapping[str, Solved]) -> None:
        """Persist one solved batch as one segment (none if it is empty)."""
        if not entries:
            return
        self._entries.update(entries)
        self._directory.mkdir(parents=True, exist_ok=True)
        batch = SolvedBatch.gather(list(entries.values()))
        stream = io.BytesIO()
        for array in (np.array(list(entries), dtype="S"),
                      np.array(batch.machine_name),
                      *(getattr(batch, name) for name in _COLUMNS)):
            np.save(stream, array, allow_pickle=False)
        payload = stream.getvalue()
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
            if (name.endswith(".seg")
                    and (read := _read(path, 0, _keys)) is not None):
                self._listed.add(name)
                keys, offset = read
                self._where.update(
                    (key, (path, offset, i)) for i, key in enumerate(keys))

    def _load(self, path: Path, offset: int, index: int) -> Solved | None:
        """A listed key's handle, reading its segment's results once."""
        batch = self._loaded.get(path)
        if batch is None:
            read = _read(path, offset, _results)
            if read is None:  # its keys become misses
                self._where = {k: v for k, v in self._where.items()
                               if v[0] != path}
                return None
            batch = self._loaded[path] = read[0]
        return batch.problem(index)


def default_cache() -> PersistentSolveCache | None:
    """The cache under ``SMITE_CACHE_DIR`` (``.smite_cache``), if enabled."""
    root = os.environ.get("SMITE_CACHE_DIR", ".smite_cache")
    if os.environ.get("SMITE_NO_CACHE") or not root:
        return None
    return PersistentSolveCache(root)
