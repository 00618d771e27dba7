"""Project-wide call graph and execution-context (thread) reachability.

Builds on the :class:`~repro.lint.project.ProjectModel`: every function
(including nested defs and methods) becomes a node keyed
``"<module>:<qualname>"``, call edges are resolved through the same
import-alias machinery the per-file rules use (plus same-module names,
nested defs, ``self.method()`` dispatch, class constructors and local
``f = target`` aliases), and *entry points* are discovered from the
concurrency APIs the codebase actually uses:

* ``threading.Thread(target=...)`` / ``threading.Timer(..., fn)``
* ``signal.signal(signum, handler)``
* ``multiprocessing.Process(target=...)``
* ``ThreadPoolExecutor`` / ``ProcessPoolExecutor`` ``.submit``/``.map``
* subclasses of ``http.server.BaseHTTPRequestHandler`` (served threaded
  by ``ThreadingHTTPServer``): every method is a thread entry

Execution-context labels then propagate along call edges to a fixpoint:
``"main"`` (the importing/main thread; seeded at module top level and at
functions with no in-project callers that are not entry targets),
``"thread:<entry>"``, ``"signal:<entry>"``, and ``"process:<entry>"``
(the child process's main thread).  Two labels :func:`conflict` when the
functions carrying them can run concurrently in the *same address
space*: any thread label against a different label other than a signal
label (signal handlers interleave on the main thread — they matter for
re-entrancy, RL-C003, not for data races).

The graph is deliberately conservative about dynamic dispatch: an
unresolvable callee is simply no edge.  Rules built on top therefore
demand positive *sharing evidence* (a bound-method thread target, an
instance stored on shared state) before reporting, so per-invocation
instances — a connection opened inside the thread's own entry function —
never conflict with their creators.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.lint.project import ModuleRecord, ProjectModel

__all__ = [
    "CallGraph",
    "ClassInfo",
    "EntryPoint",
    "FunctionInfo",
    "conflict",
    "conflicting_pair",
]

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

_THREAD_CTORS = {"threading.Thread", "threading.Timer"}
_PROCESS_CTORS = {
    "multiprocessing.Process",
    "multiprocessing.context.Process",
    "multiprocessing.process.Process",
}
_THREAD_POOL_CTORS = {
    "concurrent.futures.ThreadPoolExecutor",
    "concurrent.futures.thread.ThreadPoolExecutor",
}
_PROCESS_POOL_CTORS = {
    "concurrent.futures.ProcessPoolExecutor",
    "concurrent.futures.process.ProcessPoolExecutor",
}
_HANDLER_BASES = {
    "http.server.BaseHTTPRequestHandler",
    "http.server.SimpleHTTPRequestHandler",
    "socketserver.BaseRequestHandler",
    "socketserver.StreamRequestHandler",
}


def _walk_scope(stmts: list[ast.stmt]) -> Iterator[ast.AST]:
    """All nodes of one lexical scope, not descending into nested defs."""
    stack: list[ast.AST] = list(stmts)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, _FUNCTION_NODES):
            # A def handed in at the top level (e.g. a module body) is a
            # nested scope too: its statements run on the caller's
            # context, not at definition time.
            continue
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _FUNCTION_NODES):
                continue
            stack.append(child)


@dataclass
class FunctionInfo:
    """One call-graph node: a function, method, or nested def."""

    key: str  # "<module>:<qualname>"
    qualname: str
    record: ModuleRecord
    node: ast.FunctionDef | ast.AsyncFunctionDef
    #: Qualname of the innermost enclosing class when this is a method.
    class_qual: str | None = None
    #: ``f = <function reference>`` bindings of this scope (name -> key).
    aliases: dict[str, str] | None = field(default=None, repr=False)
    _scope: list[ast.AST] | None = field(default=None, repr=False)

    @property
    def scope_nodes(self) -> list[ast.AST]:
        """Memoised nodes of this function's own lexical scope."""
        if self._scope is None:
            self._scope = list(_walk_scope(self.node.body))
        return self._scope

    @property
    def name(self) -> str:
        return self.node.name


@dataclass
class ClassInfo:
    """A project class: methods plus statically-resolved base names."""

    key: str  # "<module>:<qualname>"
    qualname: str
    record: ModuleRecord
    node: ast.ClassDef
    #: Method name -> function key.
    methods: dict[str, str] = field(default_factory=dict)
    #: Dotted names of bases, resolved through import aliases.
    bases: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class EntryPoint:
    """A concurrency entry: some API will invoke ``key`` on ``kind``."""

    key: str  # target function key
    kind: str  # "thread" | "signal" | "process"
    path: str  # module registering the entry
    lineno: int
    #: The target was a bound ``self.method`` reference, so the instance
    #: itself escapes onto the new execution context.
    via_self: bool = False

    @property
    def label(self) -> str:
        return f"{self.kind}:{self.key}"


def conflict(a: str, b: str) -> bool:
    """Whether two context labels can race in one address space."""
    if a == b:
        return False
    if a.startswith("signal:") or b.startswith("signal:"):
        return False
    return a.startswith("thread:") or b.startswith("thread:")


def conflicting_pair(labels: frozenset[str] | set[str]) -> tuple[str, str] | None:
    """A deterministic conflicting pair from a label set, if any."""
    ordered = sorted(labels)
    for i, a in enumerate(ordered):
        for b in ordered[i + 1 :]:
            if conflict(a, b):
                return (a, b)
    return None


class CallGraph:
    """Functions, call edges, entry points, and context labels."""

    def __init__(self, project: ProjectModel) -> None:
        self.project = project
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.edges: dict[str, set[str]] = {}
        self.callers: dict[str, set[str]] = {}
        self.entries: list[EntryPoint] = []
        self.contexts: dict[str, frozenset[str]] = {}
        #: Module name -> every def in it, shadowed redefinitions included.
        self._defs: dict[str, list[FunctionInfo]] = {}
        #: Module name -> (top-level scope nodes, its local aliases).
        self._module_scopes: dict[str, tuple[list[ast.AST], dict[str, str]]] = {}
        self._handler_memo: dict[str, bool] = {}
        for record in project:
            self._index_record(record)
        for record in project:
            self._build_module(record)
        self._seed_and_propagate()

    # ------------------------------------------------------------------
    # Construction: memoised on the project model
    # ------------------------------------------------------------------
    @classmethod
    def of(cls, project: ProjectModel) -> "CallGraph":
        """The project's call graph, built once per lint run."""
        cached = getattr(project, "_callgraph", None)
        if cached is None:
            cached = cls(project)
            project._callgraph = cached
        return cached

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    def module_key(self, record: ModuleRecord) -> str:
        """Pseudo-function key for a module's top-level code."""
        return f"{record.name}:<module>"

    def _index_record(self, record: ModuleRecord) -> None:
        self._collect_defs(record, record.tree.body, "", None)

    def _collect_defs(
        self,
        record: ModuleRecord,
        body: list[ast.stmt],
        prefix: str,
        class_qual: str | None,
    ) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{stmt.name}"
                key = f"{record.name}:{qual}"
                info = FunctionInfo(
                    key=key,
                    qualname=qual,
                    record=record,
                    node=stmt,
                    class_qual=class_qual,
                )
                # A redefinition (e.g. one def per if/else branch) shares
                # the first def's key; its body still gets its own scope.
                self.functions.setdefault(key, info)
                self._defs.setdefault(record.name, []).append(info)
                if class_qual is not None:
                    cls_key = f"{record.name}:{class_qual}"
                    self.classes[cls_key].methods.setdefault(stmt.name, key)
                self._collect_defs(record, stmt.body, f"{qual}.", None)
            elif isinstance(stmt, ast.ClassDef):
                qual = f"{prefix}{stmt.name}"
                key = f"{record.name}:{qual}"
                bases = []
                for base in stmt.bases:
                    dotted = record.ctx.resolve_call_name(base)
                    if dotted:
                        bases.append(dotted)
                self.classes.setdefault(
                    key,
                    ClassInfo(
                        key=key,
                        qualname=qual,
                        record=record,
                        node=stmt,
                        bases=bases,
                    ),
                )
                self._collect_defs(record, stmt.body, f"{qual}.", qual)
            else:
                for suite in ast.iter_child_nodes(stmt):
                    # Defs nested in if/try/except/with/match at the same
                    # level keep the enclosing prefix (conditional
                    # definitions).
                    if isinstance(
                        suite, (ast.stmt, ast.excepthandler, ast.match_case)
                    ):
                        self._collect_defs(
                            record, [suite], prefix, class_qual
                        )

    # ------------------------------------------------------------------
    # Reference resolution
    # ------------------------------------------------------------------
    def _project_function(self, dotted: str | None) -> FunctionInfo | None:
        """Resolve an absolute dotted name to a project function."""
        if not dotted:
            return None
        owner = self.project.module_of(dotted)
        if owner is None or dotted == owner.name:
            return None
        symbol = dotted[len(owner.name) + 1 :]
        return self.functions.get(f"{owner.name}:{symbol}")

    def _project_class(self, dotted: str | None) -> ClassInfo | None:
        if not dotted:
            return None
        owner = self.project.module_of(dotted)
        if owner is None or dotted == owner.name:
            return None
        symbol = dotted[len(owner.name) + 1 :]
        return self.classes.get(f"{owner.name}:{symbol}")

    def resolve_callable(
        self,
        expr: ast.AST,
        record: ModuleRecord,
        class_qual: str | None,
        aliases: dict[str, str] | None = None,
        prefix: str | None = None,
    ) -> FunctionInfo | None:
        """Resolve a callable reference expression to a project function.

        Handles bound ``self.method`` / ``cls.method`` references (within
        ``class_qual``, following project base classes), local ``f =
        target`` aliases, nested defs of the enclosing function
        (``prefix`` is the caller's qualname), same-module top-level
        names, and import-qualified dotted names.
        """
        if isinstance(expr, ast.Name):
            if aliases and expr.id in aliases:
                return self.functions.get(aliases[expr.id])
            if prefix is not None:
                nested = self.functions.get(
                    f"{record.name}:{prefix}.{expr.id}"
                )
                if nested is not None:
                    return nested
            local = self.functions.get(f"{record.name}:{expr.id}")
            if local is not None:
                return local
            local_cls = self.classes.get(f"{record.name}:{expr.id}")
            if local_cls is not None:
                ctor = local_cls.methods.get("__init__")
                return self.functions.get(ctor) if ctor else None
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            if expr.value.id in ("self", "cls") and class_qual is not None:
                return self._resolve_method(record, class_qual, expr.attr)
        dotted = record.ctx.resolve_call_name(expr)
        info = self._project_function(dotted)
        if info is not None:
            return info
        cls = self._project_class(dotted)
        if cls is not None:
            ctor = cls.methods.get("__init__")
            return self.functions.get(ctor) if ctor else None
        return None

    def resolve_in(
        self, expr: ast.AST, record: ModuleRecord, info: FunctionInfo | None
    ) -> FunctionInfo | None:
        """:meth:`resolve_callable` as written in one scope of ``record``:
        the body of ``info``, or the module top level when ``None``."""
        if info is None:
            aliases = self._module_scopes[record.name][1]
            return self.resolve_callable(expr, record, None, aliases)
        return self.resolve_callable(
            expr, record, info.class_qual, info.aliases, info.qualname
        )

    def resolve_class(
        self, expr: ast.AST, record: ModuleRecord
    ) -> ClassInfo | None:
        """Resolve a class-reference expression to a project class."""
        if isinstance(expr, ast.Name):
            local = self.classes.get(f"{record.name}:{expr.id}")
            if local is not None:
                return local
        return self._project_class(record.ctx.resolve_call_name(expr))

    def _resolve_method(
        self, record: ModuleRecord, class_qual: str, name: str
    ) -> FunctionInfo | None:
        """Look a method up on a class, then on its project bases."""
        seen: set[str] = set()
        stack = [f"{record.name}:{class_qual}"]
        while stack:
            cls_key = stack.pop()
            if cls_key in seen:
                continue
            seen.add(cls_key)
            info = self.classes.get(cls_key)
            if info is None:
                continue
            fn_key = info.methods.get(name)
            if fn_key is not None:
                return self.functions.get(fn_key)
            for base in info.bases:
                base_cls = self._project_class(base)
                if base_cls is not None:
                    stack.append(base_cls.key)
        return None

    def is_handler_class(self, info: ClassInfo) -> bool:
        """Whether the class is a (threaded) socket/HTTP request handler."""
        memo = self._handler_memo
        if info.key in memo:
            return memo[info.key]
        memo[info.key] = False  # cycle guard
        result = False
        for base in info.bases:
            if base in _HANDLER_BASES:
                result = True
                break
            base_cls = self._project_class(base)
            if base_cls is not None and self.is_handler_class(base_cls):
                result = True
                break
        memo[info.key] = result
        return result

    # ------------------------------------------------------------------
    # Edge + entry construction
    # ------------------------------------------------------------------
    def _build_module(self, record: ModuleRecord) -> None:
        nodes = list(_walk_scope(record.tree.body))
        aliases = self._build_scope(
            self.module_key(record), record, nodes, None, None
        )
        self._module_scopes[record.name] = (nodes, aliases)
        for info in self._defs.get(record.name, ()):
            info.aliases = self._build_scope(
                info.key, record, info.scope_nodes, info.class_qual,
                info.qualname,
            ) or None
        for cls_key, cls in self.classes.items():
            if cls.record is not record:
                continue
            if self.is_handler_class(cls):
                for method_key in cls.methods.values():
                    self.entries.append(
                        EntryPoint(
                            key=method_key,
                            kind="thread",
                            path=record.path,
                            lineno=cls.node.lineno,
                        )
                    )

    def _build_scope(
        self,
        caller: str,
        record: ModuleRecord,
        nodes: list[ast.AST],
        class_qual: str | None,
        prefix: str | None,
    ) -> dict[str, str]:
        """Add the scope's call edges and entries; return its aliases."""
        aliases = self._local_aliases(record, nodes, class_qual, prefix)
        pools = self._pool_bindings(record, nodes)
        out = self.edges.setdefault(caller, set())

        def add_edge(info: FunctionInfo | None) -> None:
            if info is not None:
                out.add(info.key)
                self.callers.setdefault(info.key, set()).add(caller)

        def add_entry(target: ast.AST | None, kind: str, site: ast.AST) -> None:
            if target is None:
                return
            info = self.resolve_callable(
                target, record, class_qual, aliases, prefix
            )
            if info is None:
                return
            via_self = (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            )
            self.entries.append(
                EntryPoint(
                    key=info.key,
                    kind=kind,
                    path=record.path,
                    lineno=getattr(site, "lineno", 1),
                    via_self=via_self,
                )
            )

        for node in nodes:
            if not isinstance(node, ast.Call):
                continue
            resolved = record.ctx.resolve_call_name(node.func)
            if resolved in _THREAD_CTORS:
                target = _keyword(node, "target")
                if target is None and resolved == "threading.Timer":
                    target = node.args[1] if len(node.args) > 1 else None
                add_entry(target, "thread", node)
                continue
            if resolved in _PROCESS_CTORS:
                add_entry(_keyword(node, "target"), "process", node)
                continue
            if resolved == "signal.signal":
                handler = node.args[1] if len(node.args) > 1 else None
                add_entry(handler, "signal", node)
                continue
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in ("submit", "map")
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in pools
            ):
                fn = node.args[0] if node.args else None
                add_entry(fn, pools[node.func.value.id], node)
                continue
            add_edge(
                self.resolve_callable(
                    node.func, record, class_qual, aliases, prefix
                )
            )
        return aliases

    def _local_aliases(
        self,
        record: ModuleRecord,
        nodes: list[ast.AST],
        class_qual: str | None,
        prefix: str | None,
    ) -> dict[str, str]:
        """``f = <function reference>`` bindings within one scope."""
        aliases: dict[str, str] = {}
        for node in nodes:
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            if isinstance(node.value, ast.Call):
                continue  # call results are values, not callables we track
            info = self.resolve_callable(
                node.value, record, class_qual, None, prefix
            )
            if info is not None:
                aliases[target.id] = info.key
        return aliases

    def _pool_bindings(
        self, record: ModuleRecord, nodes: list[ast.AST]
    ) -> dict[str, str]:
        """Names bound to executor pools -> submission context kind."""
        pools: dict[str, str] = {}

        def classify(value: ast.AST) -> str | None:
            if not isinstance(value, ast.Call):
                return None
            resolved = record.ctx.resolve_call_name(value.func)
            if resolved in _THREAD_POOL_CTORS:
                return "thread"
            if resolved in _PROCESS_POOL_CTORS:
                return "process"
            return None

        for node in nodes:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                kind = classify(node.value)
                if kind and isinstance(target, ast.Name):
                    pools[target.id] = kind
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    kind = classify(item.context_expr)
                    if kind and isinstance(item.optional_vars, ast.Name):
                        pools[item.optional_vars.id] = kind
        return pools

    # ------------------------------------------------------------------
    # Context propagation
    # ------------------------------------------------------------------
    def _seed_and_propagate(self) -> None:
        seeds: dict[str, set[str]] = {}
        for record in self.project:
            seeds[self.module_key(record)] = {"main"}
        entry_keys = {entry.key for entry in self.entries}
        for key in self.functions:
            if key not in entry_keys and not self.callers.get(key):
                # Un-called, non-entry functions are public API assumed
                # to run on the caller's (main) thread.
                seeds.setdefault(key, set()).add("main")
        for entry in self.entries:
            seeds.setdefault(entry.key, set()).add(entry.label)

        contexts: dict[str, set[str]] = {
            key: set(labels) for key, labels in seeds.items()
        }
        worklist = list(contexts)
        while worklist:
            caller = worklist.pop()
            labels = contexts.get(caller, set())
            if not labels:
                continue
            for callee in self.edges.get(caller, ()):
                have = contexts.setdefault(callee, set())
                if not labels <= have:
                    have |= labels
                    worklist.append(callee)
        self.contexts = {key: frozenset(value) for key, value in contexts.items()}

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def scopes(
        self, record: ModuleRecord
    ) -> Iterator[tuple[FunctionInfo | None, list[ast.AST]]]:
        """Every lexical scope of ``record`` with its nodes: the module top
        level (``None``), then each def body in source order, shadowed
        redefinitions included."""
        yield None, self._module_scopes[record.name][0]
        for info in self._defs.get(record.name, ()):
            yield info, info.scope_nodes

    def contexts_of(self, key: str) -> frozenset[str]:
        """Context labels under which ``key`` may execute."""
        return self.contexts.get(key, frozenset())

    def reachable_from(self, key: str) -> set[str]:
        """All function keys transitively callable from ``key``."""
        seen: set[str] = set()
        stack = [key]
        while stack:
            current = stack.pop()
            for callee in self.edges.get(current, ()):
                if callee not in seen:
                    seen.add(callee)
                    stack.append(callee)
        return seen


def _keyword(call: ast.Call, name: str) -> ast.expr | None:
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None
