"""Rule base class and the global rule registry.

A rule is a class with an ``id`` (``SMT###``), a ``family`` (the unit
:data:`repro.lint.config.SCOPES` keys on), a one-line ``summary``, and
either AST hooks (methods named ``visit_<NodeType>``, dispatched during
one shared walk of the module) or a ``check_module`` hook (for
whole-module analyses like ``__all__`` drift or the Ruler port-purity
check). Registration is by decorator::

    @register
    class UnseededRandom(Rule):
        id = "SMT101"
        family = "determinism"
        ...

Rule ids are stable API: the docs' rule tables refer to them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Type

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.engine import ModuleContext

__all__ = ["Rule", "register", "all_rules"]


class Rule:
    """Base class for lint rules; subclass and :func:`register`."""

    id: str = ""
    family: str = ""
    summary: str = ""

    def check_module(self, ctx: "ModuleContext") -> None:
        """Whole-module hook, called after the AST walk. Optional."""

    @classmethod
    def ast_hooks(cls) -> dict[str, str]:
        """Map of AST node-type name -> visit method name."""
        return {
            name[len("visit_"):]: name
            for name in dir(cls)
            if name.startswith("visit_") and callable(getattr(cls, name))
        }


_REGISTRY: dict[str, Type[Rule]] = {}


def register(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not rule_class.id or not rule_class.family:
        raise ValueError(
            f"rule {rule_class.__name__} must define id and family"
        )
    existing = _REGISTRY.get(rule_class.id)
    if existing is not None and existing is not rule_class:
        raise ValueError(f"duplicate rule id {rule_class.id}")
    _REGISTRY[rule_class.id] = rule_class
    return rule_class


def all_rules() -> tuple[Type[Rule], ...]:
    """Every registered rule, in rule-id order."""
    _load_builtin_rules()
    return tuple(_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY))


def _load_builtin_rules() -> None:
    """Import the built-in rule modules (registration side effect)."""
    from repro.lint import rules  # noqa: F401  (import registers rules)
