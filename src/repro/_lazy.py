"""Package exports resolved on first use (PEP 562).

A package ``__init__`` that imported its public names eagerly would make
every start of every command pay for numpy and the model, even one that
only prints ``--help``. Such a package binds its names under ``if
TYPE_CHECKING:`` for type checkers and the linter, keeps the same
module -> names map in ``_EXPORTS``, and takes its module ``__getattr__``
and ``__dir__`` from :func:`exports`.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Mapping

__all__ = ["exports"]


def exports(
    namespace: dict[str, Any], owners: Mapping[str, tuple[str, ...]],
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The ``__getattr__`` and ``__dir__`` of the package ``namespace``.

    ``owners`` maps each module to the names the package re-exports from
    it. A name is imported from its module on first use and then bound in
    ``namespace``, so later lookups never reach ``__getattr__``.
    """
    module_of = {name: module for module, names in owners.items()
                 for name in names}

    def __getattr__(name: str) -> Any:
        module = module_of.get(name)
        if module is None:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *module_of})

    return __getattr__, __dir__
