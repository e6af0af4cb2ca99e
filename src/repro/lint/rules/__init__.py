"""Built-in rule families; importing this package registers them all.

===========  ==========  ===================================================
family       rules       checks
===========  ==========  ===================================================
determinism  SMT101-103  unseeded RNG, wall-clock logic, set-iteration order
metrics      SMT201-202  statically-resolvable, cataloged ``obs`` metric names
api          SMT401-402  exported-name docstrings and ``__all__`` drift
ports        SMT501-502  Ruler port purity and loop-branch purity budget
concurrency  SMT601-602  blocking reachable from coroutines, dropped
                         coroutine objects and task handles
===========  ==========  ===================================================

The concurrency family is *cross-module*: it reads the phase-1 project
graph (``ctx.graph``) instead of walking the AST itself.
"""

from repro.lint.rules import api, concurrency, determinism, metrics, ports

__all__ = ["api", "concurrency", "determinism", "metrics", "ports"]
