"""Columnar storage for replay event streams.

A warehouse-scale replay emits millions of events; materializing one
:class:`EventRecord` dataclass per event costs more than the replay
itself. :class:`EventTable` keeps the stream struct-of-arrays (one numpy
array per field plus small name tables) while still *behaving* like the
tuple of :class:`EventRecord` objects the rest of the codebase consumes:
it is a ``Sequence`` whose items are built lazily, and it renders the
byte-stable event log directly from the columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, overload

import numpy as np

__all__ = [
    "EventRecord",
    "EventTable",
]

#: Event-kind column codes (sort ranks: at equal timestamps departures
#: free contexts before arrivals claim them).
KIND_DEPART, KIND_ARRIVE = 0, 1

#: Placement column codes, indexing :data:`PLACEMENT_NAMES`.
PLACEMENT_NAMES = ("colocated", "baseline", "shed")

_KIND_NAMES = ("depart", "arrive")


@dataclass(frozen=True)
class EventRecord:
    """One processed event, formatted identically on every replay."""

    time_s: float
    kind: str  # "arrive" | "depart"
    job_id: int
    profile: str
    app: str
    server: int  # -1 for the baseline pool
    placement: str  # "colocated" | "baseline" | "shed"
    instances_after: int

    def as_line(self) -> str:
        """Render as one stable, byte-comparable log line."""
        return (
            f"{self.time_s:.6f} {self.kind} job={self.job_id} "
            f"profile={self.profile} app={self.app} server={self.server} "
            f"placement={self.placement} instances={self.instances_after}"
        )


class EventTable(Sequence):
    """A replay's event stream, stored one numpy array per field.

    Rows are ordered exactly as a per-event loop would have appended
    them; indexing materializes an :class:`EventRecord` on demand, so
    existing consumers (tests, experiments) iterate it unchanged while
    the engine's hot path only ever touches the columns.
    """

    __slots__ = (
        "time_s", "kind", "job_id", "profile_idx", "app_idx",
        "server", "placement", "instances_after", "profiles", "apps",
    )

    def __init__(
        self,
        *,
        time_s: np.ndarray,
        kind: np.ndarray,
        job_id: np.ndarray,
        profile_idx: np.ndarray,
        app_idx: np.ndarray,
        server: np.ndarray,
        placement: np.ndarray,
        instances_after: np.ndarray,
        profiles: Sequence[str],
        apps: Sequence[str],
    ) -> None:
        self.time_s = time_s
        self.kind = kind
        self.job_id = job_id
        self.profile_idx = profile_idx
        self.app_idx = app_idx
        self.server = server
        self.placement = placement
        self.instances_after = instances_after
        self.profiles = tuple(profiles)
        self.apps = tuple(apps)

    def __len__(self) -> int:
        return int(self.time_s.size)

    def _record(self, i: int) -> EventRecord:
        return EventRecord(
            time_s=float(self.time_s[i]),
            kind=_KIND_NAMES[int(self.kind[i])],
            job_id=int(self.job_id[i]),
            profile=self.profiles[int(self.profile_idx[i])],
            app=self.apps[int(self.app_idx[i])],
            server=int(self.server[i]),
            placement=PLACEMENT_NAMES[int(self.placement[i])],
            instances_after=int(self.instances_after[i]),
        )

    @overload
    def __getitem__(self, index: int) -> EventRecord: ...

    @overload
    def __getitem__(self, index: slice) -> tuple[EventRecord, ...]: ...

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self._record(i)
                         for i in range(*index.indices(len(self))))
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError(index)
        return self._record(index)

    def __iter__(self) -> Iterator[EventRecord]:
        for i in range(len(self)):
            yield self._record(i)

    def render_lines(self) -> list[str]:
        """All event-log lines, rendered from the columns in one pass."""
        profiles, apps = self.profiles, self.apps
        kind_names = _KIND_NAMES
        placement_names = PLACEMENT_NAMES
        rows = zip(
            self.time_s.tolist(), self.kind.tolist(), self.job_id.tolist(),
            self.profile_idx.tolist(), self.app_idx.tolist(),
            self.server.tolist(), self.placement.tolist(),
            self.instances_after.tolist(),
        )
        return [
            f"{t:.6f} {kind_names[k]} job={j} profile={profiles[p]} "
            f"app={apps[a]} server={s} placement={placement_names[pl]} "
            f"instances={n}"
            for t, k, j, p, a, s, pl, n in rows
        ]
