"""Public-API hygiene rules (SMT4xx).

Every package in the tree exports through ``__all__``; these rules keep
that contract real: an exported def/class must carry a docstring
(SMT401), and ``__all__`` must not name things the module does not
define (SMT402).
"""

from __future__ import annotations

import ast

from repro.lint.registry import Rule, register

__all__ = ["ExportedDocstrings", "DunderAllDrift"]


def _declared_all(tree: ast.Module) -> tuple[list[str] | None, int]:
    """(names in ``__all__``, its line); (None, 0) when absent/dynamic."""
    for node in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__all__":
                if isinstance(value, (ast.List, ast.Tuple)) and all(
                        isinstance(el, ast.Constant)
                        and isinstance(el.value, str)
                        for el in value.elts):
                    names = [el.value for el in value.elts]
                    return names, node.lineno
                return None, node.lineno
    return None, 0


def _module_bindings(tree: ast.Module) -> set[str]:
    """Names bound at module top level: defs, classes, assigns, imports."""
    bound: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                bound.update(_target_names(target))
        elif isinstance(node, ast.AnnAssign):
            bound.update(_target_names(node.target))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*":
                    continue
                name = alias.asname or alias.name.split(".")[0]
                bound.add(name)
        elif isinstance(node, (ast.If, ast.Try)):
            # TYPE_CHECKING / try-import blocks still bind names.
            for child in ast.walk(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    bound.add(child.name)
                elif isinstance(child, (ast.Import, ast.ImportFrom)):
                    for alias in child.names:
                        if alias.name != "*":
                            bound.add(alias.asname
                                      or alias.name.split(".")[0])
                elif isinstance(child, ast.Assign):
                    for target in child.targets:
                        bound.update(_target_names(target))
    return bound


def _target_names(target: ast.expr) -> set[str]:
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, (ast.Tuple, ast.List)):
        names: set[str] = set()
        for el in target.elts:
            names.update(_target_names(el))
        return names
    return set()


@register
class ExportedDocstrings(Rule):
    """Defs and classes listed in ``__all__`` must have docstrings."""

    id = "SMT401"
    family = "api"
    summary = "exported def/class (listed in __all__) has no docstring"

    def check_module(self, ctx) -> None:
        exported, _ = _declared_all(ctx.tree)
        if not exported:
            return
        names = set(exported)
        for node in ctx.tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            if node.name in names and ast.get_docstring(node) is None:
                kind = "class" if isinstance(node, ast.ClassDef) \
                    else "function"
                ctx.report(self, f"exported {kind} `{node.name}` has no "
                                 "docstring", node=node)


@register
class DunderAllDrift(Rule):
    """``__all__`` must only name things the module actually binds."""

    id = "SMT402"
    family = "api"
    summary = "__all__ names an undefined symbol (or is not a static list)"

    def check_module(self, ctx) -> None:
        exported, line = _declared_all(ctx.tree)
        if line == 0:
            return
        if exported is None:
            ctx.report(self, "__all__ is not a static list of string "
                             "literals; the export surface cannot be "
                             "verified", line=line)
            return
        bound = _module_bindings(ctx.tree)
        for name in exported:
            if name not in bound:
                ctx.report(self, f"__all__ exports `{name}`, which the "
                                 "module never defines or imports",
                           line=line)
        seen: set[str] = set()
        for name in exported:
            if name in seen:
                ctx.report(self, f"__all__ lists `{name}` twice", line=line)
            seen.add(name)

