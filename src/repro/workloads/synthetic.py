"""Random workload generation for property-based testing and sweeps.

``random_profile`` draws a valid, diverse profile from a seeded RNG: the
property tests use it to check simulator invariants over the whole profile
space, and the ablation benches use it to scale the population beyond the
33 built-in workloads.
"""

from __future__ import annotations

import numpy as np

from repro.workloads.profile import FootprintStratum, Suite, WorkloadProfile

__all__ = ["random_profile"]

KB = 1024
MB = 1024 * 1024


def random_profile(
    rng: np.random.Generator | int,
    *,
    name: str | None = None,
    suite: Suite = Suite.SYNTHETIC,
) -> WorkloadProfile:
    """Draw a random but always-valid workload profile.

    The draw covers the interesting corners: pure-compute profiles (no
    memory accesses at all), streaming profiles, pointer chasers, and
    branchy integer codes.
    """
    if isinstance(rng, int):
        rng = np.random.default_rng(rng)

    # Compute mix: pick FP share, then split it across mul/add/shf.
    fp_share = float(rng.uniform(0.0, 0.65))
    fp_split = rng.dirichlet([2.0, 2.0, 1.0])
    memory_free = rng.random() < 0.1
    load = 0.0 if memory_free else float(rng.uniform(0.10, 0.40))
    store = 0.0 if memory_free else float(rng.uniform(0.02, 0.15))
    branch = float(rng.uniform(0.01, 0.22))
    compute = float(rng.uniform(0.35, 0.65))
    fp_mul = compute * fp_share * float(fp_split[0])
    fp_add = compute * fp_share * float(fp_split[1])
    fp_shf = compute * fp_share * float(fp_split[2])
    int_alu = compute * (1.0 - fp_share)

    if memory_free:
        strata: tuple[FootprintStratum, ...] = ()
    else:
        n_strata = int(rng.integers(1, 4))
        footprints = np.sort(
            np.exp(rng.uniform(np.log(4 * KB), np.log(256 * MB), size=n_strata))
        )
        fractions = rng.dirichlet(np.ones(n_strata))
        # Renormalize exactly to 1.0 to satisfy profile validation.
        fractions = fractions / fractions.sum()
        fractions[-1] = 1.0 - float(fractions[:-1].sum())
        strata = tuple(
            FootprintStratum(footprint_bytes=float(fp), access_fraction=float(fr))
            for fp, fr in zip(footprints, fractions)
            if fr > 0.0
        )
        total = sum(s.access_fraction for s in strata)
        if abs(total - 1.0) > 1e-12:  # dropped a zero-fraction stratum
            first = strata[0]
            strata = (
                FootprintStratum(first.footprint_bytes,
                                 first.access_fraction + (1.0 - total)),
            ) + strata[1:]

    label = name or f"synthetic-{rng.integers(0, 10**9):09d}"
    return WorkloadProfile(
        name=label,
        suite=suite,
        fp_mul=fp_mul,
        fp_add=fp_add,
        fp_shf=fp_shf,
        int_alu=int_alu,
        load=load,
        store=store,
        branch=branch,
        dependency_factor=float(rng.uniform(0.05, 0.6)),
        mlp=float(rng.uniform(1.0, 8.0)),
        strata=strata,
        branch_misprediction_rate=float(rng.uniform(0.0, 0.015)),
        itlb_mpki=float(rng.uniform(0.0, 2.0)),
        dtlb_mpki=float(rng.uniform(0.0, 3.0)),
        icache_mpki=float(rng.uniform(0.0, 15.0)),
        description="randomly generated profile",
    )

