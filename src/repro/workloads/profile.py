"""The workload profile: what the simulator knows about an application.

A profile is a static, per-instruction description of an application's
demand on each shared SMT resource: the uop mix (which execution ports it
needs), dependency structure (how much ILP it exposes), memory footprint
strata (which cache levels it lives in), and fixed per-instruction penalty
rates (branch mispredictions, TLB walks). Profiles are immutable and
hashable so simulation results can be memoized.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # imported lazily at runtime to avoid an import cycle
    from repro.isa.opcodes import UopKind

__all__ = ["Suite", "FootprintStratum", "WorkloadProfile"]


class Suite(enum.Enum):
    """Which benchmark family a profile belongs to."""

    SPEC_INT = "spec_int"
    SPEC_FP = "spec_fp"
    CLOUDSUITE = "cloudsuite"
    RULER = "ruler"
    SYNTHETIC = "synthetic"

    def __repr__(self) -> str:
        return f"Suite.{self.name}"


@dataclass(frozen=True)
class FootprintStratum:
    """A fraction of memory accesses confined to a footprint of a given size.

    A profile's working-set behaviour is a small set of strata, e.g.
    "70% of accesses touch 24 KB, 25% touch 300 KB, 5% touch 20 MB" — the
    shape cache-miss stack-distance profiles typically take.
    """

    footprint_bytes: float
    access_fraction: float

    def __post_init__(self) -> None:
        if self.footprint_bytes <= 0:
            raise ConfigurationError(
                f"stratum footprint must be positive, got {self.footprint_bytes}"
            )
        if not 0.0 < self.access_fraction <= 1.0:
            raise ConfigurationError(
                f"stratum access fraction must be in (0, 1], "
                f"got {self.access_fraction}"
            )


_MAX_UOP_RATE = 4.0  # sanity ceiling: more uops/instruction than issue width


@dataclass(frozen=True)
class WorkloadProfile:
    """Immutable static description of an application.

    Uop-rate fields (``fp_mul`` ... ``nop``) are uops *per dynamic
    instruction* for each :class:`~repro.isa.opcodes.UopKind`.
    ``dependency_factor`` in [0, 1] is the serialized fraction of the
    instruction stream (1 = a single dependency chain). ``mlp`` is
    memory-level parallelism: how many outstanding misses overlap.
    """

    name: str
    suite: Suite
    fp_mul: float = 0.0
    fp_add: float = 0.0
    fp_shf: float = 0.0
    int_alu: float = 0.0
    load: float = 0.0
    store: float = 0.0
    branch: float = 0.0
    nop: float = 0.0
    dependency_factor: float = 0.2
    mlp: float = 2.0
    strata: tuple[FootprintStratum, ...] = ()
    branch_misprediction_rate: float = 0.002
    itlb_mpki: float = 0.1
    dtlb_mpki: float = 0.5
    icache_mpki: float = 1.0
    #: extra idle cycles per instruction; Rulers use this to duty-cycle
    #: their pressure without changing their uop mix
    throttle_cpi: float = 0.0
    #: True for multithreaded applications whose threads work on one
    #: shared data set (CloudSuite servers): co-located threads of the
    #: same profile then occupy cache capacity as a single entity instead
    #: of competing with each other
    shares_memory: bool = False
    spec_number: int | None = None
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("workload profiles must be named")
        for field_name in ("fp_mul", "fp_add", "fp_shf", "int_alu",
                           "load", "store", "branch", "nop"):
            value = getattr(self, field_name)
            if value < 0.0:
                raise ConfigurationError(
                    f"{self.name}: uop rate {field_name} is negative ({value})"
                )
        if self.uops_per_instruction <= 0.0:
            raise ConfigurationError(f"{self.name}: profile issues no uops")
        if self.uops_per_instruction > _MAX_UOP_RATE:
            raise ConfigurationError(
                f"{self.name}: {self.uops_per_instruction:.2f} uops/instruction "
                f"exceeds the {_MAX_UOP_RATE:.0f}-wide issue ceiling"
            )
        if not 0.0 <= self.dependency_factor <= 1.0:
            raise ConfigurationError(
                f"{self.name}: dependency factor must be in [0, 1], "
                f"got {self.dependency_factor}"
            )
        if self.mlp < 1.0:
            raise ConfigurationError(
                f"{self.name}: memory-level parallelism must be >= 1, "
                f"got {self.mlp}"
            )
        if not 0.0 <= self.branch_misprediction_rate <= 0.5:
            raise ConfigurationError(
                f"{self.name}: branch misprediction rate must be in [0, 0.5]"
            )
        for rate_name in ("itlb_mpki", "dtlb_mpki", "icache_mpki",
                          "throttle_cpi"):
            if getattr(self, rate_name) < 0.0:
                raise ConfigurationError(f"{self.name}: {rate_name} is negative")
        if self.accesses_per_instruction > 0.0:
            if not self.strata:
                raise ConfigurationError(
                    f"{self.name}: memory-accessing profile needs footprint strata"
                )
            total = sum(s.access_fraction for s in self.strata)
            if abs(total - 1.0) > 1e-6:
                raise ConfigurationError(
                    f"{self.name}: stratum access fractions sum to {total:.6f}, "
                    f"expected 1.0"
                )
        elif self.strata:
            raise ConfigurationError(
                f"{self.name}: has footprint strata but makes no memory accesses"
            )

    # ------------------------------------------------------------------
    # Derived quantities

    @property
    def uops(self) -> "Mapping[UopKind, float]":
        """Uops per instruction keyed by kind (zero-rate kinds omitted)."""
        # Imported here rather than at module level: the ISA package's
        # analyzer depends on this module, so a top-level import would cycle.
        from repro.isa.opcodes import UopKind

        pairs = {
            UopKind.FP_MUL: self.fp_mul,
            UopKind.FP_ADD: self.fp_add,
            UopKind.FP_SHF: self.fp_shf,
            UopKind.INT_ALU: self.int_alu,
            UopKind.LOAD: self.load,
            UopKind.STORE: self.store,
            UopKind.BRANCH: self.branch,
            UopKind.NOP: self.nop,
        }
        return {kind: rate for kind, rate in pairs.items() if rate > 0.0}

    @property
    def uops_per_instruction(self) -> float:
        return (self.fp_mul + self.fp_add + self.fp_shf + self.int_alu
                + self.load + self.store + self.branch + self.nop)

    @property
    def accesses_per_instruction(self) -> float:
        """Data-memory accesses per instruction (loads + stores)."""
        return self.load + self.store

    @property
    def total_footprint_bytes(self) -> float:
        """The largest stratum footprint — the profile's full working set."""
        if not self.strata:
            return 0.0
        return max(s.footprint_bytes for s in self.strata)

    @property
    def is_even_numbered(self) -> bool:
        """SPEC even/odd parity, the paper's train/test split key."""
        if self.spec_number is None:
            raise ConfigurationError(
                f"{self.name} has no SPEC number; parity split does not apply"
            )
        return self.spec_number % 2 == 0

    @property
    def is_floating_point(self) -> bool:
        """True when FP uops dominate the compute mix."""
        fp = self.fp_mul + self.fp_add + self.fp_shf
        return fp > self.int_alu

    def __hash__(self) -> int:
        # The dataclass-generated hash rebuilds the full field tuple
        # (nested strata included) on every call, which dominates the
        # simulator's memo-key lookups on the serving hot path. Profiles
        # sharing a name are rare and just fall back to __eq__.
        return hash(self.name)

    def __getstate__(self) -> dict[str, object]:
        # Only the fields: memo stashes (``_key`` and the solver-side
        # ``_sort_key``/``_cache_digest``) recompute on demand, and
        # pickling them would double a pickled profile's size.
        return {name: value for name, value in self.__dict__.items()
                if not name.startswith("_")}

    def replace(self, **changes: object) -> "WorkloadProfile":
        """A copy of this profile with the given fields replaced."""
        return dataclasses.replace(self, **changes)  # type: ignore[arg-type]

    def key(self) -> tuple:
        """A full value tuple, usable as a memoization key.

        ``astuple`` recurses (and deepcopies) the whole profile, which is
        far too slow for the hot canonicalization path, so the tuple is
        computed once and stashed on the (frozen, immutable) instance.
        """
        try:
            return self.__dict__["_key"]
        except KeyError:
            key = dataclasses.astuple(self)
            object.__setattr__(self, "_key", key)
            return key
