"""Built-in rule families; importing this package registers them all.

===========  ==========  ===================================================
family       rules       checks
===========  ==========  ===================================================
determinism  SMT101-103  unseeded RNG, wall-clock logic, set-iteration order
metrics      SMT201-202  statically-resolvable, cataloged ``obs`` metric names
numeric      SMT301-302  float equality, unguarded division (Eq. 1-9 paths)
api          SMT401-403  exported-name docstrings and ``__all__`` drift
ports        SMT501-502  Ruler port purity and loop-branch purity budget
concurrency  SMT601-603  blocking reachable from coroutines, dropped
                         coroutine objects, implicit event loops
procsafety   SMT701-703  worker-state foldback, picklable submit targets,
                         resource close-on-all-paths
===========  ==========  ===================================================

The concurrency and procsafety families are *cross-module*: they read
the phase-1 project graph (``ctx.graph``) instead of walking the AST
themselves.
"""

from repro.lint.rules import (api, concurrency, determinism, metrics,
                              numeric, ports, procsafety)

__all__ = ["api", "concurrency", "determinism", "metrics", "numeric",
           "ports", "procsafety"]
