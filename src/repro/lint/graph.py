"""Phase 1 of the two-phase engine: the project-wide symbol graph.

The single-walk rule families (SMT1xx-5xx) see one module at a time;
the concurrency family (SMT6xx) needs to know what a call *reaches*
across module boundaries — a ``time.sleep`` three helpers away from an
``async def`` blocks the event loop just as surely as one in the
coroutine body. This module builds that view:

- :class:`ModuleInfo` per file: defined functions/classes, import
  bindings (absolute, relative, aliased, ``from x import *``), and per
  function the raw call sites and blocking-primitive calls;
- :class:`ProjectGraph`: resolves call sites to project symbols
  (module functions, class methods through base classes *and* project
  subclass overrides, ``self.<attr>`` fields typed by constructor
  annotations or local construction), then computes **blocking
  reachability** with the call chain kept for diagnostics. SMT601 walks
  a coroutine's own call edges into the blocking set; an executor hop
  passes the function as a value, so there is no edge and the chain
  breaks where the fix goes.

Everything stored here is plain data (no AST nodes).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace

__all__ = [
    "BLOCKING_ATTR_TAILS",
    "BLOCKING_DOTTED",
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "ProjectGraph",
    "build_graph",
    "module_name_for",
    "scan_module",
]

# ----------------------------------------------------------------------
# What counts as blocking / event-loop-hostile (SMT601)

#: Exact dotted names (after import-alias expansion) whose call blocks
#: the calling thread. ``asyncio.sleep`` is absent on purpose.
BLOCKING_DOTTED = frozenset({
    "time.sleep",
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output", "subprocess.getoutput", "subprocess.Popen",
    "socket.create_connection", "socket.getaddrinfo",
    "urllib.request.urlopen",
    "select.select",
})

#: Attribute tails whose call blocks regardless of the receiver's type
#: (sockets, pipe connections, files). Matched only when the dotted
#: receiver cannot be resolved to something known-safe; in practice the
#: false-positive risk is tiny because these only matter once the
#: function is async-tainted.
BLOCKING_ATTR_TAILS = frozenset({
    "recv", "recvfrom", "accept", "connect", "sendall",
    "read_text", "write_text", "read_bytes", "write_bytes",
})

#: ``asyncio`` helpers that *consume* a coroutine object, so a call
#: appearing as their argument is not "un-awaited" (SMT602).
COROUTINE_WRAPPER_TAILS = frozenset({
    "create_task", "ensure_future", "gather", "wait", "wait_for",
    "run", "run_coroutine_threadsafe", "run_until_complete", "shield",
    "as_completed", "timeout",
})


def module_name_for(relpath: str) -> str:
    """Dotted module name for a repo-relative path.

    ``src/`` is the import root (``src/repro/obs/__init__.py`` →
    ``repro.obs``); paths outside it (``scripts/check_docs.py``) keep
    their directory as a pseudo-package so intra-project resolution
    still has a unique name per file.
    """
    path = relpath.replace("\\", "/")
    if path.startswith("src/"):
        path = path[len("src/"):]
    if path.endswith(".py"):
        path = path[:-3]
    if path.endswith("/__init__"):
        path = path[: -len("/__init__")]
    return path.replace("/", ".")


@dataclass(frozen=True)
class CallSite:
    """One call expression, with enough context for the SMT6xx rules."""

    lineno: int
    col: int
    raw: str                 # dotted source text ("self.decider.decide")
    awaited: bool            # immediate ``await`` parent
    wrapped: bool            # argument of create_task/gather/run/...
    returned: bool           # direct ``return <call>`` statement
    assigned: bool = False   # bound to a name (may be awaited later)
    discarded: bool = False  # a bare expression statement: result dropped
    callees: tuple[str, ...] = ()   # resolved project qualnames


@dataclass
class FunctionInfo:
    """One function or method, with the facts phase 2 consults."""

    qualname: str            # "repro.serve.shard:_shard_worker"
    module: str
    local: str               # "ApiServer._run_batch"
    lineno: int
    is_async: bool
    is_nested: bool
    class_name: str | None = None
    calls: list[CallSite] = field(default_factory=list)
    #: (lineno, col, dotted) of direct blocking-primitive calls.
    blocking: list[tuple[int, int, str]] = field(default_factory=list)
    #: local variable -> expanded ctor dotted name (light type tracking).
    local_ctors: dict[str, str] = field(default_factory=dict)
    #: local variable -> the ``self.`` attribute chain it aliases
    #: (``simulator`` -> "self.predictor.simulator").
    local_aliases: dict[str, str] = field(default_factory=dict)


@dataclass
class ClassInfo:
    """One class: bases by raw name, methods, annotation-typed attrs."""

    qualname: str            # "repro.serve.service:PredictionService"
    module: str
    name: str
    lineno: int
    bases: tuple[str, ...] = ()          # raw dotted base names
    methods: dict[str, str] = field(default_factory=dict)
    #: self.<attr> -> raw dotted class name (from ctor annotations or
    #: direct construction in any method).
    attr_types: dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """Everything phase 1 learns about one module."""

    relpath: str
    modname: str
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    #: local alias -> dotted target ("np" -> "numpy",
    #: "counter" -> "repro.obs.counter").
    imports: dict[str, str] = field(default_factory=dict)
    star_imports: tuple[str, ...] = ()

    def expand(self, dotted: str) -> str:
        """Rewrite the leading segment through this module's imports."""
        head, sep, rest = dotted.partition(".")
        target = self.imports.get(head)
        if target is None:
            return dotted
        return target + sep + rest if sep else target


# ----------------------------------------------------------------------
# Phase-1 scan: one module's AST -> ModuleInfo (plain data)

def _dotted(node: ast.AST) -> str:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _annotation_dotted(node: ast.AST) -> str:
    """The class a parameter annotation names, unwrapping optionals.

    ``X | None`` / ``X | str | None`` take the first project-resolvable
    arm; ``Optional[X]`` unwraps the subscript. Anything fancier
    resolves to '' (untracked).
    """
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        for side in (node.left, node.right):
            name = _annotation_dotted(side)
            if name:
                return name
        return ""
    if isinstance(node, ast.Subscript):
        if _dotted(node.value).rpartition(".")[2] == "Optional":
            return _annotation_dotted(node.slice)
        return ""
    if isinstance(node, ast.Constant) and node.value is None:
        return ""
    name = _dotted(node)
    return "" if name in ("None", "str", "int", "float", "bool") else name


class _Scanner(ast.NodeVisitor):
    """Single recursive walk building a :class:`ModuleInfo`."""

    def __init__(self, info: ModuleInfo, parents: dict[ast.AST, ast.AST]):
        self.info = info
        self.parents = parents
        self._class_stack: list[ClassInfo] = []
        self._func_stack: list[FunctionInfo] = []

    # -- imports --------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            name = alias.asname or alias.name.partition(".")[0]
            target = alias.name if alias.asname else alias.name.partition(
                ".")[0]
            # ``import a.b.c`` binds ``a``; ``import a.b as c`` binds the
            # full dotted path to ``c``.
            self.info.imports.setdefault(name, target)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = node.module or ""
        if node.level:
            pkg_parts = self.info.modname.split(".")
            # level 1 = current package (module's own dir), 2 = parent...
            anchor = pkg_parts[: len(pkg_parts) - node.level]
            base = ".".join(anchor + ([node.module] if node.module else []))
        for alias in node.names:
            if alias.name == "*":
                self.info.star_imports += (base,)
                continue
            bound = alias.asname or alias.name
            self.info.imports.setdefault(bound, f"{base}.{alias.name}")

    # -- definitions ----------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        # The innermost enclosing class name is already fully dotted.
        prefix = [self._class_stack[-1].name] if self._class_stack else []
        local = ".".join(prefix + [node.name])
        cls = ClassInfo(
            qualname=f"{self.info.modname}:{local}",
            module=self.info.modname, name=local, lineno=node.lineno,
            bases=tuple(d for d in (_dotted(b) for b in node.bases) if d),
        )
        self.info.classes[local] = cls
        self._class_stack.append(cls)
        for child in node.body:
            self.visit(child)
        self._class_stack.pop()

    def _visit_function(self, node, *, is_async: bool) -> None:
        if self._func_stack:
            # Nested def: extend the enclosing function's dotted name.
            prefix = [self._func_stack[-1].local]
        elif self._class_stack:
            prefix = [self._class_stack[-1].name]
        else:
            prefix = []
        local = ".".join(prefix + [node.name])
        fn = FunctionInfo(
            qualname=f"{self.info.modname}:{local}",
            module=self.info.modname, local=local, lineno=node.lineno,
            is_async=is_async, is_nested=bool(self._func_stack),
            class_name=(self._class_stack[-1].name
                        if self._class_stack and not self._func_stack
                        else None),
        )
        self.info.functions[local] = fn
        if fn.class_name is not None:
            self._class_stack[-1].methods[node.name] = local
            self._note_annotated_attrs(node)
        self._func_stack.append(fn)
        for child in node.body:
            self.visit(child)
        self._func_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node, is_async=False)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node, is_async=True)

    def _note_annotated_attrs(self, node) -> None:
        """``self.x = param`` with an annotated param types attr ``x``."""
        cls = self._class_stack[-1]
        annotations: dict[str, str] = {}
        args = node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if arg.annotation is not None:
                ann = _annotation_dotted(arg.annotation)
                if ann:
                    annotations[arg.arg] = ann
        for stmt in ast.walk(node):
            if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
                continue
            target = stmt.targets[0]
            if not (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                continue
            if isinstance(stmt.value, ast.Name) \
                    and stmt.value.id in annotations:
                cls.attr_types.setdefault(target.attr,
                                          annotations[stmt.value.id])
            elif isinstance(stmt.value, ast.Call):
                ctor = _dotted(stmt.value.func)
                if ctor:
                    cls.attr_types.setdefault(target.attr, ctor)

    # -- statements inside functions ------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._func_stack and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            bound = node.targets[0].id
            if isinstance(node.value, ast.Call):
                ctor = _dotted(node.value.func)
                if ctor:
                    self._func_stack[-1].local_ctors.setdefault(
                        bound, self.info.expand(ctor))
            elif isinstance(node.value, ast.Attribute):
                chain = _dotted(node.value)
                if chain.startswith("self."):
                    self._func_stack[-1].local_aliases.setdefault(
                        bound, chain)
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        if self._func_stack:
            fn = self._func_stack[-1]
            for item in node.items:
                if isinstance(item.context_expr, ast.Call) \
                        and isinstance(item.optional_vars, ast.Name):
                    ctor = _dotted(item.context_expr.func)
                    if ctor:
                        fn.local_ctors.setdefault(
                            item.optional_vars.id, self.info.expand(ctor))
        self.generic_visit(node)

    visit_AsyncWith = visit_With

    # -- calls ----------------------------------------------------------

    def _call_context(self, node: ast.Call) -> tuple[bool, bool, bool, bool]:
        """(awaited, wrapped, returned, assigned) for one call expression."""
        parent = self.parents.get(node)
        awaited = isinstance(parent, ast.Await)
        wrapped = False
        returned = isinstance(parent, ast.Return)
        assigned = isinstance(parent, (ast.Assign, ast.AnnAssign,
                                       ast.NamedExpr))
        seen = parent
        while seen is not None and not isinstance(
                seen, (ast.stmt, ast.Lambda)):
            if isinstance(seen, ast.Call):
                tail = _dotted(seen.func).rpartition(".")[2]
                if tail in COROUTINE_WRAPPER_TAILS:
                    wrapped = True
                    break
            seen = self.parents.get(seen)
        return awaited, wrapped, returned, assigned

    def visit_Call(self, node: ast.Call) -> None:
        raw = _dotted(node.func)
        if self._func_stack and raw:
            fn = self._func_stack[-1]
            awaited, wrapped, returned, assigned = self._call_context(node)
            fn.calls.append(CallSite(
                lineno=node.lineno, col=node.col_offset, raw=raw,
                awaited=awaited, wrapped=wrapped,
                returned=returned, assigned=assigned,
                discarded=isinstance(self.parents.get(node), ast.Expr),
            ))
            tail = raw.rpartition(".")[2]
            if self.info.expand(raw) in BLOCKING_DOTTED or raw == "open" \
                    or (tail in BLOCKING_ATTR_TAILS and "." in raw):
                fn.blocking.append((node.lineno, node.col_offset, raw))
        self.generic_visit(node)


def scan_module(relpath: str, tree: ast.Module) -> ModuleInfo:
    """Build the plain-data summary of one parsed module."""
    info = ModuleInfo(relpath=relpath.replace("\\", "/"),
                      modname=module_name_for(relpath))
    parents: dict[ast.AST, ast.AST] = {}
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            parents[child] = parent
    _Scanner(info, parents).visit(tree)
    return info


# ----------------------------------------------------------------------
# Phase-1 linking: resolution + the blocking closure over the project

class ProjectGraph:
    """All modules' summaries, linked: resolution and blocking chains."""

    def __init__(self, modules: dict[str, ModuleInfo]) -> None:
        #: relpath -> ModuleInfo
        self.modules = modules
        self.by_name: dict[str, ModuleInfo] = {
            m.modname: m for m in modules.values()
        }
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        for mod in modules.values():
            for fn in mod.functions.values():
                self.functions[fn.qualname] = fn
            for cls in mod.classes.values():
                self.classes[cls.qualname] = cls
        self._subclasses: dict[str, set[str]] = {}
        self._link()
        self.blocking_next = self._blocking_reachability()

    # -- symbol resolution ----------------------------------------------

    def _resolve_symbol(self, modname: str, symbol_path: str,
                        _seen: frozenset = frozenset()) -> tuple[str, ...]:
        """Resolve ``symbol_path`` (``f`` / ``Class.method``) in a module."""
        mod = self.by_name.get(modname)
        if mod is None or (modname, symbol_path) in _seen:
            return ()
        seen = _seen | {(modname, symbol_path)}
        head, _, rest = symbol_path.partition(".")
        if symbol_path in mod.functions:
            return (mod.functions[symbol_path].qualname,)
        if head in mod.classes:
            cls = mod.classes[head]
            if rest:
                return self._method_targets(cls, rest.rpartition(".")[2])
            init = cls.methods.get("__init__")
            if init is not None:
                return (f"{modname}:{init}",)
            return self._method_targets(cls, "__init__") or ()
        if head in mod.imports:
            target = mod.imports[head]
            full = target + ("." + rest if rest else "")
            return self._resolve_dotted_absolute(full, seen)
        for star in mod.star_imports:
            hit = self._resolve_symbol(star, symbol_path, seen)
            if hit:
                return hit
        return ()

    def _resolve_dotted_absolute(self, dotted: str,
                                 _seen: frozenset = frozenset()
                                 ) -> tuple[str, ...]:
        """Resolve a fully-expanded dotted path against project modules."""
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            modname = ".".join(parts[:cut])
            if modname in self.by_name:
                return self._resolve_symbol(
                    modname, ".".join(parts[cut:]), _seen)
        return ()

    def _method_targets(self, cls: ClassInfo, method: str,
                        *, include_overrides: bool = True,
                        _seen: frozenset = frozenset()) -> tuple[str, ...]:
        """The method in ``cls`` (walking bases) plus subclass overrides."""
        if cls.qualname in _seen:
            return ()
        seen = _seen | {cls.qualname}
        targets: list[str] = []
        local = cls.methods.get(method)
        if local is not None:
            targets.append(f"{cls.module}:{local}")
        else:
            for base_raw in cls.bases:
                base = self._class_for(cls.module, base_raw)
                if base is not None:
                    targets.extend(self._method_targets(
                        base, method, include_overrides=False, _seen=seen))
        if include_overrides:
            for sub_qual in sorted(self._all_subclasses(cls.qualname)):
                sub = self.classes.get(sub_qual)
                if sub is not None and method in sub.methods:
                    targets.append(f"{sub.module}:{sub.methods[method]}")
        return tuple(dict.fromkeys(targets))

    def _class_for(self, modname: str, raw: str) -> ClassInfo | None:
        """The project class a raw dotted name in ``modname`` refers to."""
        mod = self.by_name.get(modname)
        if mod is None:
            return None
        head, _, rest = raw.partition(".")
        if raw in mod.classes:
            return mod.classes[raw]
        if head in mod.imports:
            full = mod.imports[head] + ("." + rest if rest else "")
            parts = full.split(".")
            for cut in range(len(parts) - 1, 0, -1):
                owner = ".".join(parts[:cut])
                target_mod = self.by_name.get(owner)
                if target_mod is not None:
                    name = ".".join(parts[cut:])
                    if name in target_mod.classes:
                        return target_mod.classes[name]
                    return None
        for star in mod.star_imports:
            star_mod = self.by_name.get(star)
            if star_mod is not None and raw in star_mod.classes:
                return star_mod.classes[raw]
        return None

    def _all_subclasses(self, qualname: str,
                        _seen: set | None = None) -> set[str]:
        seen = _seen if _seen is not None else set()
        for sub in self._subclasses.get(qualname, ()):
            if sub not in seen:
                seen.add(sub)
                self._all_subclasses(sub, seen)
        return seen

    def _link(self) -> None:
        """Resolve base classes, then every call site, in place."""
        for cls in self.classes.values():
            for base_raw in cls.bases:
                base = self._class_for(cls.module, base_raw)
                if base is not None:
                    self._subclasses.setdefault(
                        base.qualname, set()).add(cls.qualname)
        for fn in self.functions.values():
            mod = self.by_name[fn.module]
            cls = (mod.classes.get(fn.class_name)
                   if fn.class_name is not None else None)
            fn.calls = [
                self._resolved_site(fn, mod, cls, site)
                for site in fn.calls
            ]

    def _resolved_site(self, fn: FunctionInfo, mod: ModuleInfo,
                       cls: ClassInfo | None, site: CallSite) -> CallSite:
        callees = self._resolve_call(fn, mod, cls, site.raw)
        if callees == site.callees:
            return site
        return replace(site, callees=callees)

    def _resolve_call(self, fn: FunctionInfo, mod: ModuleInfo,
                      cls: ClassInfo | None, raw: str) -> tuple[str, ...]:
        head, _, rest = raw.partition(".")
        if head in fn.local_aliases and rest:
            # `sim = self.predictor.simulator; sim.prefetch(...)` —
            # rewrite through the alias (aliases start at `self`, so
            # this recurses at most once).
            return self._resolve_call(
                fn, mod, cls, fn.local_aliases[head] + "." + rest)
        if head == "self" and cls is not None and rest:
            # Walk `self.a.b.method` through attr types class by class.
            parts = rest.split(".")
            owner = cls
            for attr in parts[:-1]:
                attr_raw = owner.attr_types.get(attr)
                if attr_raw is None:
                    return ()
                nxt = self._class_for(owner.module, attr_raw)
                if nxt is None:
                    return ()
                owner = nxt
            return self._method_targets(owner, parts[-1])
        if not rest:
            # A bare name may be a function nested in this one or in an
            # enclosing scope (`is_nested` keeps class methods, which
            # are never callable bare, out of the walk).
            scope = fn.local
            while scope:
                nested = mod.functions.get(f"{scope}.{raw}")
                if nested is not None and nested.is_nested:
                    return (nested.qualname,)
                scope = scope.rpartition(".")[0]
        if head in fn.local_ctors and rest:
            ctor = fn.local_ctors[head]
            targets = self._resolve_dotted_absolute(ctor)
            if not targets:
                # ctor may itself be a project class dotted name
                ctor_cls = self._class_for(fn.module, ctor)
            else:
                ctor_cls = None
                init = targets[0]
                owner_mod, _, owner_local = init.partition(":")
                owner_cls_name = owner_local.rpartition(".__init__")[0]
                owner = self.by_name.get(owner_mod)
                if owner is not None:
                    ctor_cls = owner.classes.get(owner_cls_name)
            if ctor_cls is not None:
                return self._method_targets(
                    ctor_cls, rest.rpartition(".")[2])
            return ()
        return self._resolve_symbol(mod.modname, raw)

    # -- closure -------------------------------------------------------

    def _blocking_reachability(self) -> dict[str, tuple[str, int, str]]:
        """Each blocking-reachable function -> (via, line, next hop).

        Computed backwards: seed with functions that contain a
        primitive, then pull sync callers in until fixpoint.
        """
        nxt: dict[str, tuple[str, int, str]] = {}
        for fn in self.functions.values():
            if fn.blocking:
                lineno, _col, raw = fn.blocking[0]
                nxt[fn.qualname] = (f"`{raw}`", lineno, "")
        changed = True
        while changed:
            changed = False
            for fn in self.functions.values():
                if fn.qualname in nxt:
                    continue
                for site in fn.calls:
                    hit = next((c for c in site.callees if c in nxt), None)
                    if hit is not None and not self.functions[hit].is_async:
                        nxt[fn.qualname] = (site.raw, site.lineno, hit)
                        changed = True
                        break
        return nxt

    # -- phase-2 queries -------------------------------------------------

    def module_for(self, relpath: str) -> ModuleInfo | None:
        return self.modules.get(relpath.replace("\\", "/"))

    def blocking_chain(self, qualname: str, limit: int = 6) -> str:
        """Human-readable call chain from ``qualname`` to a primitive."""
        hops: list[str] = []
        current = qualname
        for _ in range(limit):
            entry = self.blocking_next.get(current)
            if entry is None:
                break
            via, _lineno, nxt = entry
            if not nxt:
                hops.append(via)
                break
            hops.append(f"{via} -> {self.functions[nxt].local}")
            current = nxt
        return " -> ".join(hops) if hops else "?"


def build_graph(modules: dict[str, ModuleInfo]) -> ProjectGraph:
    """Link scanned modules into the queryable project graph."""
    return ProjectGraph(modules)
