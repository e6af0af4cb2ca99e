"""Phase 1 of the two-phase engine: the project-wide symbol graph.

The single-walk rule families (SMT1xx-5xx) see one module at a time;
the concurrency families (SMT6xx/SMT7xx) need to know what a call
*reaches* across module boundaries — a ``time.sleep`` three helpers away
from an ``async def`` blocks the event loop just as surely as one in the
coroutine body. This module builds that view:

- :class:`ModuleInfo` per file: defined functions/classes, import
  bindings (absolute, relative, aliased, ``from x import *``), and per
  function the raw call sites, blocking-primitive calls, obs-recorder
  calls, module-global mutations, and executor submit sites;
- :class:`ProjectGraph`: resolves call sites to project symbols
  (module functions, class methods through base classes *and* project
  subclass overrides, ``self.<attr>`` fields typed by constructor
  annotations or local construction), then computes three closures:
  the **async taint** (functions reachable from a coroutine body by
  plain calls — an executor hop passes the function as a value, so it
  breaks the chain naturally), the **worker taint** (functions reachable
  from a ``ProcessPoolExecutor.submit`` / ``multiprocessing.Process``
  entrypoint, tracked per entrypoint so snapshot/merge foldback can be
  checked per worker), and **blocking reachability** with the call chain
  kept for diagnostics.

Everything stored here is plain data (no AST nodes), so the graph
pickles cleanly to phase-2 worker processes and hashes stably into the
result cache's per-module signature.
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

#: Calls that hand work to a process pool: ``<executor>.submit(fn, ...)``
#: (positional target) and ``multiprocessing.Process(target=fn)``.
_PROCESS_CTORS = frozenset({
    "concurrent.futures.ProcessPoolExecutor",
    "multiprocessing.Pool", "multiprocessing.pool.Pool",
})

#: Methods on module-level containers that mutate them in place.
_MUTATOR_TAILS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "remove", "discard", "clear",
})

#: Obs-registry recorders (mutate process-global metric state) and the
#: snapshot/merge calls that fold that state back to a parent process.
_OBS_RECORDERS = frozenset({"counter", "gauge", "histogram", "span",
                            "time_histogram"})
_OBS_FOLDBACK = frozenset({"snapshot", "merge", "reset"})


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
    expanded: str            # after import-alias expansion
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
    #: (lineno, col, name) of obs-recorder calls (counter/gauge/...).
    obs_mutations: list[tuple[int, int, str]] = field(default_factory=list)
    #: Obs foldback calls (snapshot/merge/reset) made directly here.
    obs_foldback: bool = False
    #: (lineno, col, name, how) module-global mutations.
    global_mutations: list[tuple[int, int, str, str]] = (
        field(default_factory=list))
    #: local variable -> expanded ctor dotted name (light type tracking).
    local_ctors: dict[str, str] = field(default_factory=dict)
    #: local variable -> the ``self.`` attribute chain it aliases
    #: (``simulator`` -> "self.predictor.simulator").
    local_aliases: dict[str, str] = field(default_factory=dict)
    #: (lineno, col, api, target kind, target name) executor submits.
    submits: list[tuple[int, int, str, str, str]] = (
        field(default_factory=list))


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
    #: Lifecycle methods the class defines (close/shutdown/...).
    closers: frozenset[str] = frozenset()


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
    module_globals: frozenset[str] = frozenset()

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


_CLOSER_NAMES = frozenset({"close", "shutdown", "stop", "drain",
                           "__exit__", "__aexit__", "__del__"})


class _Scanner(ast.NodeVisitor):
    """Single recursive walk building a :class:`ModuleInfo`."""

    def __init__(self, info: ModuleInfo, parents: dict[ast.AST, ast.AST]):
        self.info = info
        self.parents = parents
        self._class_stack: list[ClassInfo] = []
        self._func_stack: list[FunctionInfo] = []
        self._declared_globals: list[set[str]] = []

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
        cls.closers = frozenset(m for m in cls.methods
                                if m.rpartition(".")[2] in _CLOSER_NAMES)

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
        self._declared_globals.append(set())
        for child in node.body:
            self.visit(child)
        self._declared_globals.pop()
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

    def visit_Global(self, node: ast.Global) -> None:
        if self._declared_globals:
            self._declared_globals[-1].update(node.names)

    def _mutated_root(self, target: ast.AST) -> tuple[str, str] | None:
        """(name, how) when ``target`` stores into module-global state."""
        if isinstance(target, ast.Name):
            if self._declared_globals and \
                    target.id in self._declared_globals[-1]:
                return target.id, "global-statement rebind"
            return None
        node = target
        while isinstance(node, (ast.Subscript, ast.Attribute)):
            node = node.value
        if isinstance(node, ast.Name) \
                and node.id in self.info.module_globals:
            how = ("item assignment" if isinstance(target, ast.Subscript)
                   else "attribute assignment")
            return node.id, how
        return None

    def _note_mutations(self, targets) -> None:
        if not self._func_stack:
            return
        fn = self._func_stack[-1]
        for target in targets:
            hit = self._mutated_root(target)
            if hit is not None:
                fn.global_mutations.append(
                    (target.lineno, target.col_offset, *hit))

    def visit_Assign(self, node: ast.Assign) -> None:
        if not self._func_stack and not self._class_stack:
            for target in node.targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        self.info.module_globals |= {leaf.id}
        self._note_mutations(node.targets)
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

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if not self._func_stack and not self._class_stack \
                and isinstance(node.target, ast.Name):
            self.info.module_globals |= {node.target.id}
        if node.value is not None:
            self._note_mutations([node.target])
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._note_mutations([node.target])
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
            expanded = self.info.expand(raw)
            awaited, wrapped, returned, assigned = self._call_context(node)
            fn.calls.append(CallSite(
                lineno=node.lineno, col=node.col_offset, raw=raw,
                expanded=expanded, awaited=awaited, wrapped=wrapped,
                returned=returned, assigned=assigned,
                discarded=isinstance(self.parents.get(node), ast.Expr),
            ))
            self._classify_call(fn, node, raw, expanded)
        self.generic_visit(node)

    def _classify_call(self, fn: FunctionInfo, node: ast.Call,
                       raw: str, expanded: str) -> None:
        tail = raw.rpartition(".")[2]
        if expanded in BLOCKING_DOTTED or raw == "open" \
                or (tail in BLOCKING_ATTR_TAILS and "." in raw):
            fn.blocking.append((node.lineno, node.col_offset, raw))
        if expanded.startswith("repro.obs"):
            leaf = expanded.rpartition(".")[2]
            if leaf in _OBS_RECORDERS:
                fn.obs_mutations.append(
                    (node.lineno, node.col_offset, leaf))
            elif leaf in _OBS_FOLDBACK:
                fn.obs_foldback = True
        if tail in _MUTATOR_TAILS and "." in raw:
            root = raw.partition(".")[0]
            if root in self.info.module_globals:
                fn.global_mutations.append(
                    (node.lineno, node.col_offset, root,
                     f"in-place `.{tail}()`"))
        self._classify_submit(fn, node, raw, expanded, tail)

    def _classify_submit(self, fn: FunctionInfo, node: ast.Call,
                         raw: str, expanded: str, tail: str) -> None:
        """Record executor-submit sites with their target expression."""
        target: ast.AST | None = None
        api = ""
        if tail == "submit" and node.args:
            receiver = raw.rpartition(".")[0]
            ctor = fn.local_ctors.get(receiver, "")
            if ctor in _PROCESS_CTORS \
                    or ctor.rpartition(".")[2] == "ProcessPoolExecutor":
                target, api = node.args[0], f"{ctor.rpartition('.')[2]}.submit"
        elif tail in ("map", "imap", "imap_unordered", "starmap") \
                and node.args:
            receiver = raw.rpartition(".")[0]
            ctor = fn.local_ctors.get(receiver, "")
            if ctor in _PROCESS_CTORS \
                    or ctor.rpartition(".")[2] == "ProcessPoolExecutor":
                target, api = node.args[0], f"{ctor.rpartition('.')[2]}.{tail}"
        elif expanded in ("multiprocessing.Process",
                          "multiprocessing.context.Process"):
            api = "multiprocessing.Process"
            for kw in node.keywords:
                if kw.arg == "target":
                    target = kw.value
        if target is None:
            return
        if isinstance(target, ast.Lambda):
            kind, name = "lambda", "<lambda>"
        elif isinstance(target, ast.Name):
            kind, name = "name", target.id
        elif isinstance(target, (ast.Attribute,)):
            kind, name = "attr", _dotted(target)
        else:
            kind, name = "expr", ast.dump(target)[:40]
        fn.submits.append((node.lineno, node.col_offset, api, kind, name))


def scan_module(relpath: str, tree: ast.Module) -> ModuleInfo:
    """Build the plain-data summary of one parsed module."""
    info = ModuleInfo(relpath=relpath.replace("\\", "/"),
                      modname=module_name_for(relpath))
    # Module-level names must be known before function bodies are
    # scanned (a mutation site may precede the assignment textually).
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        info.module_globals |= {leaf.id}
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)) \
                and isinstance(stmt.target, ast.Name):
            info.module_globals |= {stmt.target.id}
    parents: dict[ast.AST, ast.AST] = {}
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            parents[child] = parent
    _Scanner(info, parents).visit(tree)
    return info


# ----------------------------------------------------------------------
# Phase-1 linking: resolution + closures over the whole project

class ProjectGraph:
    """All modules' summaries, linked: resolution, taints, chains."""

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
        self.async_taint: dict[str, tuple[str, ...]] = {}
        self.worker_taint: dict[str, frozenset[str]] = {}
        self.worker_roots: dict[str, frozenset[str]] = {}
        self.blocking_next: dict[str, tuple[str, int, str]] = {}
        self._close()

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

    def resolve_call(self, fn: FunctionInfo, raw: str) -> tuple[str, ...]:
        """Public resolution query: ``raw`` as called from inside ``fn``."""
        mod = self.by_name.get(fn.module)
        if mod is None:
            return ()
        cls = (mod.classes.get(fn.class_name)
               if fn.class_name is not None else None)
        return self._resolve_call(fn, mod, cls, raw)

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

    # -- closures -------------------------------------------------------

    def _close(self) -> None:
        """Compute async taint, worker taints, blocking reachability."""
        # Blocking reachability, backwards: seed with functions that
        # contain a primitive, then pull callers in until fixpoint.
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
        self.blocking_next = nxt

        # Async taint, forwards from coroutine bodies. Edges into async
        # callees are not followed: an awaited coroutine is its own root
        # and an un-awaited one never runs (SMT602's problem).
        taint: dict[str, tuple[str, ...]] = {
            fn.qualname: () for fn in self.functions.values() if fn.is_async
        }
        queue = list(taint)
        while queue:
            current = queue.pop()
            chain = taint[current]
            for site in self.functions[current].calls:
                for callee in site.callees:
                    target = self.functions.get(callee)
                    if target is None or target.is_async:
                        continue
                    if callee not in taint:
                        taint[callee] = chain + (current,)
                        queue.append(callee)
        self.async_taint = taint

        # Worker taint, forwards from submit targets, tracked per root.
        roots: dict[str, set[str]] = {}
        for fn in self.functions.values():
            for _lineno, _col, _api, kind, name in fn.submits:
                if kind not in ("name", "attr"):
                    continue
                for target in self.resolve_call(fn, name):
                    roots.setdefault(target, set())
        reach: dict[str, set[str]] = {q: {q} for q in roots}
        for root in roots:
            seen = {root}
            stack = [root]
            while stack:
                for site in self.functions[stack.pop()].calls:
                    for callee in site.callees:
                        if callee in self.functions and callee not in seen:
                            seen.add(callee)
                            stack.append(callee)
            reach[root] = seen
        taint_roots: dict[str, set[str]] = {}
        for root, seen in reach.items():
            for fn_qual in seen:
                taint_roots.setdefault(fn_qual, set()).add(root)
        self.worker_taint = {
            q: frozenset(rs) for q, rs in taint_roots.items()
        }
        self.worker_roots = {
            root: frozenset(seen) for root, seen in reach.items()
        }

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

    def root_folds_back(self, root: str) -> bool:
        """Does this worker entrypoint ship obs state back (snapshot)?"""
        for fn_qual in self.worker_roots.get(root, ()):
            fn = self.functions.get(fn_qual)
            if fn is not None and fn.obs_foldback:
                return True
        return False

    def module_signature(self, relpath: str) -> str:
        """A stable digest of everything phase 2 reads for one module.

        The result cache keys on this: if an edit two modules away
        changes this module's taints, resolution targets, or blocking
        chains, the signature changes and the cached findings are
        invalidated even though the file's own bytes did not move.
        """
        mod = self.module_for(relpath)
        if mod is None:
            return ""
        parts: list[str] = []
        for local in sorted(mod.functions):
            fn = mod.functions[local]
            q = fn.qualname
            parts.append(
                f"{local}|{fn.is_async}|{q in self.async_taint}"
                f"|{sorted(self.worker_taint.get(q, ()))}"
                f"|{self.blocking_next.get(q)}"
            )
            for site in fn.calls:
                callee_bits = ",".join(
                    f"{c}:{self.functions[c].is_async}"
                    f":{self.blocking_next.get(c) is not None}"
                    f":{self.blocking_chain(c)}"
                    for c in site.callees if c in self.functions
                )
                parts.append(f"  {site.lineno}:{site.raw}|{callee_bits}")
            for root in sorted(self.worker_taint.get(q, ())):
                parts.append(f"  root {root}|{self.root_folds_back(root)}")
        return "\n".join(parts)


def build_graph(modules: dict[str, ModuleInfo]) -> ProjectGraph:
    """Link scanned modules into the queryable project graph."""
    return ProjectGraph(modules)
