"""Cross-module flow-analysis passes (RL-D005/D006, RL-P004, RL-H006/H007).

These rules run on the whole :class:`~repro.lint.project.ProjectModel`
rather than one file at a time, so they can see a raw RNG handed across a
call boundary, a dBm value returned from one module and summed as watts
in another, an export that no other module consumes, or an import cycle —
none of which a per-file AST walk can detect.

The dataflow passes (RL-D005/D006, RL-P004) run on the project's
:class:`~repro.lint.callgraph.CallGraph`, the one the RL-C and RL-N packs
use: they walk its scopes (the module top level and every def body,
redefinitions included) and resolve calls the way its edges do
(imports, same-module helpers, nested defs, ``self.`` methods, class
constructors, local ``f = target`` aliases).  Inside a scope they are
flow-*insensitive*: a name is classified by every binding it receives,
iterated until nothing changes on the monotone lattice
none < db | watt < conflict, where a conflict reads as unknown.  Return
units reach callers through a worklist over ``CallGraph.callers``, so
call chains of any depth are followed and the result does not depend on
the order modules or statements are visited.  A call the graph cannot
resolve (dynamic dispatch) carries no facts, so aliased flows are missed
rather than guessed.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.lint.callgraph import CallGraph, FunctionInfo
from repro.lint.project import ModuleRecord, ProjectModel
from repro.lint.registry import ProjectRule, register_project
from repro.lint.rules.physics import _DB_NAME, _WATT_NAME, _unit_classes

__all__ = [
    "CrossModuleUnitMix",
    "ExportSurfaceIntegrity",
    "ExternalSeedTaint",
    "NoImportCycles",
    "RawGeneratorCrossesModules",
]


# ----------------------------------------------------------------------
# Scope utilities shared by the dataflow passes
# ----------------------------------------------------------------------
def _assigned_names(stmt: ast.AST) -> list[str]:
    targets: list[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        targets = [stmt.target]
    names: list[str] = []
    for target in targets:
        if isinstance(target, ast.Name):
            names.append(target.id)
    return names


def _checked_scopes(
    graph: CallGraph,
) -> Iterator[tuple[ModuleRecord, FunctionInfo | None, list[ast.AST]]]:
    """Every scope of every non-test module, as ``(record, def, nodes)``."""
    for record in graph.project:
        if not record.is_test_code:
            for scope, nodes in graph.scopes(record):
                yield record, scope, nodes


def _bindings(nodes: list[ast.AST]) -> list[ast.Assign | ast.AnnAssign]:
    """A scope's valued assignments to plain names, in source order.

    The order only saves sweeps: the bindings are iterated to a fixpoint.
    """
    found = [
        node
        for node in nodes
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        and node.value is not None
        and _assigned_names(node)
    ]
    found.sort(key=lambda node: (node.lineno, node.col_offset))
    return found


def _callee_tail(call: ast.Call, record: ModuleRecord) -> str:
    """Last dotted component of a call target, resolved when possible."""
    resolved = record.ctx.resolve_call_name(call.func)
    if resolved:
        return resolved.rsplit(".", 1)[-1]
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    if isinstance(call.func, ast.Name):
        return call.func.id
    return ""


def _foreign_callee(
    graph: CallGraph,
    record: ModuleRecord,
    scope: FunctionInfo | None,
    call: ast.Call,
) -> str | None:
    """Dotted name of the callee when it lives in another project module.

    A call the graph resolves lands in its def's module; any other call
    (a class without ``__init__``, a module attribute) in the project
    module owning its import-resolved dotted name.
    """
    dotted = record.ctx.resolve_call_name(call.func)
    owner = graph.project.module_of(dotted)
    target = graph.resolve_in(call.func, record, scope)
    if target is not None and target.record is not owner:
        owner = target.record
        dotted = f"{owner.name}.{target.qualname}"
    if owner is None or owner is record:
        return None
    return dotted


# ----------------------------------------------------------------------
# RL-D005 — raw Generators must not cross module boundaries
# ----------------------------------------------------------------------
_STREAM_DERIVERS = {"coerce_rng", "make_rng", "stream", "child", "spawn"}


@register_project
class RawGeneratorCrossesModules(ProjectRule):
    """RL-D005: a ``np.random.default_rng`` Generator created in one
    component and handed to a function in another module couples the two
    components to one stream — adding a draw to either silently perturbs
    the other.  Cross-module randomness must be derived through
    ``coerce_rng`` / ``make_rng`` / ``RngFactory.stream`` so each
    component owns an independent named stream."""

    rule_id = "RL-D005"
    title = "raw Generators must not cross module boundaries"

    def check_project(
        self, project: ProjectModel
    ) -> Iterator[tuple[str, ast.AST | int | None, str]]:
        graph = CallGraph.of(project)
        for record, scope, nodes in _checked_scopes(graph):
            yield from self._check_scope(graph, record, scope, nodes)

    def _check_scope(
        self,
        graph: CallGraph,
        record: ModuleRecord,
        scope: FunctionInfo | None,
        nodes: list[ast.AST],
    ) -> Iterator[tuple[str, ast.AST | int | None, str]]:
        raw: set[str] = set()
        sanctioned: set[str] = set()
        for node in nodes:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                value = node.value
                if not isinstance(value, ast.Call):
                    continue
                resolved = record.ctx.resolve_call_name(value.func)
                tail = _callee_tail(value, record)
                if resolved == "numpy.random.default_rng":
                    raw.update(_assigned_names(node))
                elif tail in _STREAM_DERIVERS:
                    sanctioned.update(_assigned_names(node))
        raw -= sanctioned
        if not raw:
            return
        for node in nodes:
            if not isinstance(node, ast.Call):
                continue
            values = [*node.args, *(kw.value for kw in node.keywords)]
            crossing = [
                value.id
                for value in values
                if isinstance(value, ast.Name) and value.id in raw
            ]
            if not crossing:
                continue
            callee = _foreign_callee(graph, record, scope, node)
            if callee is None:
                continue
            for name in crossing:
                yield (
                    record.path,
                    node,
                    f"raw default_rng Generator `{name}` crosses the "
                    f"module boundary into `{callee}`; derive an "
                    "independent named stream instead "
                    "(repro.utils.rng.coerce_rng / RngFactory.stream)",
                )


# ----------------------------------------------------------------------
# RL-D006 — seeds from external input must be validated
# ----------------------------------------------------------------------
_TAINT_PASSTHROUGH = {"int", "float", "str", "abs", "min", "max", "round"}
_SEED_NAME = re.compile(r"(^|_)seed$")
_EXTERNAL_CONTAINERS = {"os.environ", "sys.argv"}
_EXTERNAL_CALLS = {"os.getenv", "os.environ.get", "input", "builtins.input"}


def _is_sanitizer(tail: str) -> bool:
    return tail.startswith("check_") or tail in {"coerce_rng", "make_rng"}


def _is_taint_source(node: ast.AST, record: ModuleRecord) -> bool:
    if isinstance(node, ast.Subscript):
        return _is_taint_source(node.value, record)
    if isinstance(node, (ast.Attribute, ast.Name)):
        resolved = record.ctx.resolve_call_name(node)
        return resolved in _EXTERNAL_CONTAINERS
    if isinstance(node, ast.Call):
        resolved = record.ctx.resolve_call_name(node.func)
        return resolved in _EXTERNAL_CALLS
    return False


def _is_tainted(node: ast.AST, tainted: set[str], record: ModuleRecord) -> bool:
    if _is_taint_source(node, record):
        return True
    if isinstance(node, ast.Name):
        return node.id in tainted
    if isinstance(node, ast.Subscript):
        return _is_tainted(node.value, tainted, record)
    if isinstance(node, ast.Call):
        tail = _callee_tail(node, record)
        if _is_sanitizer(tail):
            return False
        if tail in _TAINT_PASSTHROUGH:
            values = [*node.args, *(kw.value for kw in node.keywords)]
            return any(_is_tainted(v, tainted, record) for v in values)
        return False  # an unknown call boundary is assumed to transform
    if isinstance(node, ast.BinOp):
        return _is_tainted(node.left, tainted, record) or _is_tainted(
            node.right, tainted, record
        )
    if isinstance(node, ast.UnaryOp):
        return _is_tainted(node.operand, tainted, record)
    if isinstance(node, ast.IfExp):
        return _is_tainted(node.body, tainted, record) or _is_tainted(
            node.orelse, tainted, record
        )
    return False


@register_project
class ExternalSeedTaint(ProjectRule):
    """RL-D006: a seed read from the environment, argv, or stdin that
    reaches simulation state without validation makes a run silently
    irreproducible (typos, empty strings, out-of-range values).  External
    seeds must pass through a ``utils.validation.check_*`` helper (or the
    coercion helpers, which type-check) before use."""

    rule_id = "RL-D006"
    title = "external-input seeds are validated before use"

    def check_project(
        self, project: ProjectModel
    ) -> Iterator[tuple[str, ast.AST | int | None, str]]:
        graph = CallGraph.of(project)
        for record, scope, nodes in _checked_scopes(graph):
            yield from self._check_scope(graph, record, scope, nodes)

    def _check_scope(
        self,
        graph: CallGraph,
        record: ModuleRecord,
        scope: FunctionInfo | None,
        nodes: list[ast.AST],
    ) -> Iterator[tuple[str, ast.AST | int | None, str]]:
        bindings = _bindings(nodes)
        tainted: set[str] = set()
        changed = True
        while changed:  # the tainted set only grows, so this terminates
            changed = False
            for node in bindings:
                names = _assigned_names(node)
                if not tainted.issuperset(names) and _is_tainted(
                    node.value, tainted, record
                ):
                    tainted.update(names)
                    changed = True
        for node in nodes:
            if isinstance(node, ast.Call):
                yield from self._check_call(graph, record, scope, node, tainted)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value:
                yield from self._check_state_write(record, node, tainted)

    def _check_call(
        self,
        graph: CallGraph,
        record: ModuleRecord,
        scope: FunctionInfo | None,
        call: ast.Call,
        tainted: set[str],
    ) -> Iterator[tuple[str, ast.AST | int | None, str]]:
        sink: str | None = None
        for kw in call.keywords:
            if kw.arg and _SEED_NAME.search(kw.arg):
                if _is_tainted(kw.value, tainted, record):
                    sink = f"{kw.arg}="
                    break
        target = None
        if sink is None and call.args:
            target = graph.resolve_in(call.func, record, scope)
        if target is not None:
            args = target.node.args
            params = [a.arg for a in (*args.posonlyargs, *args.args)]
            if params and params[0] in ("self", "cls"):
                params = params[1:]
            for value, param in zip(call.args, params):
                if _SEED_NAME.search(param) and _is_tainted(
                    value, tainted, record
                ):
                    name = record.ctx.resolve_call_name(call.func)
                    sink = f"parameter `{param}` of `{name}`"
                    break
        if sink is not None:
            yield (
                record.path,
                call,
                f"seed derived from external input (os.environ / sys.argv / "
                f"input) reaches {sink} unvalidated; pass it through a "
                "utils.validation check_* helper or coerce_rng first",
            )

    def _check_state_write(
        self,
        record: ModuleRecord,
        node: ast.Assign | ast.AnnAssign,
        tainted: set[str],
    ) -> Iterator[tuple[str, ast.AST | int | None, str]]:
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            name = None
            if isinstance(target, ast.Attribute):
                name = target.attr
            elif isinstance(target, ast.Name):
                name = target.id
            if name is None or not _SEED_NAME.search(name):
                continue
            if isinstance(target, ast.Name) and node.value is not None:
                # plain `seed = ...` bindings are flagged only when stored
                # into object state (attributes); locals get flagged at the
                # call sink where they actually enter the simulation.
                continue
            if node.value is not None and _is_tainted(node.value, tainted, record):
                yield (
                    record.path,
                    node,
                    f"external-input seed stored unvalidated into `{name}`; "
                    "pass it through a utils.validation check_* helper or "
                    "coerce_rng first",
                )


# ----------------------------------------------------------------------
# RL-P004 — cross-module dB/linear unit inference
# ----------------------------------------------------------------------
def _suffix_unit(name: str) -> str | None:
    if _DB_NAME.search(name):
        return "db"
    if _WATT_NAME.search(name):
        return "watt"
    return None


_CONFLICT = "conflict"


def _join(a: str | None, b: str | None) -> str | None:
    """Least upper bound on none < db | watt < conflict."""
    if a is None or a == b:
        return b
    if b is None:
        return a
    return _CONFLICT


class _UnitInference:
    """dB/linear facts of names and returns, at their least fixpoint.

    Every transfer function is monotone on the unit lattice (a mix or a
    disagreement is a conflict, never a step back down), so the worklist
    reaches the same fixpoint in any visiting order.
    """

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self.ret_units: dict[str, str] = {}
        #: Key -> defs whose returns decide its unit (no name suffix).
        inferred: dict[str, list[FunctionInfo]] = {}
        for _record, scope, _nodes in _checked_scopes(graph):
            if scope is None:
                continue
            unit = _suffix_unit(scope.name)
            if unit is not None:
                self.ret_units[scope.key] = unit  # the suffix is authoritative
            else:
                inferred.setdefault(scope.key, []).append(scope)
        worklist = sorted(inferred)
        queued = set(worklist)
        while worklist:
            key = worklist.pop()
            queued.discard(key)
            unit = self.ret_units.get(key)
            for scope in inferred[key]:
                env = self.scope_env(scope.record, scope, scope.scope_nodes)
                for node in scope.scope_nodes:
                    if isinstance(node, ast.Return) and node.value is not None:
                        unit = _join(
                            unit, self.unit_of(node.value, env, scope.record, scope)
                        )
            if unit is None or unit == self.ret_units.get(key):
                continue
            self.ret_units[key] = unit
            for caller in self.graph.callers.get(key, ()):
                if caller in inferred and caller not in queued:
                    queued.add(caller)
                    worklist.append(caller)

    # -- environments ---------------------------------------------------
    def scope_env(
        self,
        record: ModuleRecord,
        scope: FunctionInfo | None,
        nodes: list[ast.AST],
    ) -> dict[str, str]:
        env: dict[str, str] = {}
        if scope is not None:
            args = scope.node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
                unit = _suffix_unit(arg.arg)
                if unit is not None:
                    env[arg.arg] = unit
        bindings = [
            (node.value, names)
            for node in _bindings(nodes)
            # suffixed names classify themselves
            if (names := [n for n in _assigned_names(node) if _suffix_unit(n) is None])
        ]
        changed = True
        while changed:  # each name climbs the lattice at most twice
            changed = False
            for value, names in bindings:
                unit = self.unit_of(value, env, record, scope)
                if unit is None:
                    continue
                for name in names:
                    joined = _join(env.get(name), unit)
                    if joined != env.get(name):
                        env[name] = joined
                        changed = True
        return env

    # -- expression units -----------------------------------------------
    def unit_of(
        self,
        node: ast.AST,
        env: dict[str, str],
        record: ModuleRecord,
        scope: FunctionInfo | None,
    ) -> str | None:
        if isinstance(node, ast.Name):
            return env.get(node.id) or _suffix_unit(node.id)
        if isinstance(node, ast.Attribute):
            return _suffix_unit(node.attr)
        if isinstance(node, ast.Call):
            unit = _suffix_unit(_callee_tail(node, record))
            if unit is not None:
                return unit
            target = self.graph.resolve_in(node.func, record, scope)
            return self.ret_units.get(target.key) if target is not None else None
        if isinstance(node, ast.BinOp):
            if not isinstance(node.op, (ast.Add, ast.Sub)):
                return None  # units do not survive *, /, ** unchanged
            return _join(
                self.unit_of(node.left, env, record, scope),
                self.unit_of(node.right, env, record, scope),
            )
        if isinstance(node, ast.UnaryOp):
            return self.unit_of(node.operand, env, record, scope)
        if isinstance(node, ast.IfExp):
            left = self.unit_of(node.body, env, record, scope)
            right = self.unit_of(node.orelse, env, record, scope)
            if left is None or right is None:
                return None  # one unknown branch leaves the result unknown
            return _join(left, right)
        return None


@register_project
class CrossModuleUnitMix(ProjectRule):
    """RL-P004: dB/linear unit facts are propagated from identifier
    suffixes, converter-style call names, and project function returns
    through assignments and call boundaries; adding or subtracting a
    dB-classified value and a watt-classified value is then flagged even
    when neither operand carries a unit suffix itself.  Mixes already
    visible to the suffix-only RL-P002 heuristic are left to RL-P002."""

    rule_id = "RL-P004"
    title = "no inferred dB/linear unit mixing across assignments and calls"

    def check_project(
        self, project: ProjectModel
    ) -> Iterator[tuple[str, ast.AST | int | None, str]]:
        graph = CallGraph.of(project)
        inference = _UnitInference(graph)
        for record, scope, nodes in _checked_scopes(graph):
            env = inference.scope_env(record, scope, nodes)
            for node in nodes:
                if not isinstance(node, ast.BinOp):
                    continue
                if not isinstance(node.op, (ast.Add, ast.Sub)):
                    continue
                left_s = _unit_classes(node.left)
                right_s = _unit_classes(node.right)
                if ("db" in left_s and "watt" in right_s) or (
                    "watt" in left_s and "db" in right_s
                ):
                    continue  # RL-P002 already reports suffix-level mixes
                left = inference.unit_of(node.left, env, record, scope)
                right = inference.unit_of(node.right, env, record, scope)
                if {left, right} == {"db", "watt"}:
                    yield (
                        record.path,
                        node,
                        f"arithmetic mixes dB-scaled and linear-power "
                        f"quantities (left inferred {left!r}, right "
                        f"inferred {right!r}) across assignments/call "
                        "boundaries; convert to one unit system "
                        "explicitly first",
                    )


# ----------------------------------------------------------------------
# RL-H006 — export surface integrity
# ----------------------------------------------------------------------
@register_project
class ExportSurfaceIntegrity(ProjectRule):
    """RL-H006: ``__all__`` is the module's contract.  A name listed there
    that does not exist breaks ``import *`` at runtime; a name exported
    but never referenced by any other project module is dead public API
    (or a missing consumer) and belongs off the contract.  The
    dead-export check only runs on multi-module projects."""

    rule_id = "RL-H006"
    title = "__all__ names exist and are consumed somewhere"

    def check_project(
        self, project: ProjectModel
    ) -> Iterator[tuple[str, ast.AST | int | None, str]]:
        references: dict[str, set[str]] | None = None
        if len(project) > 1:
            references = project.external_references()
        for record in project:
            if record.is_test_code or record.dunder_all is None:
                continue
            anchor = record.dunder_all_node
            for name in record.dunder_all:
                if name not in record.symbols:
                    yield (
                        record.path,
                        anchor,
                        f"`__all__` exports `{name}`, which is not defined at "
                        "module top level (import * would fail)",
                    )
            if references is None or record.name.endswith("__main__"):
                continue
            consumed = references.get(record.name, set())
            for name in record.dunder_all:
                if name.startswith("_") or name not in record.symbols:
                    continue
                if record.is_package and name in record.ctx.imported_names:
                    # A package __init__ re-export is a deliberate surface
                    # for consumers *outside* the linted tree (tests,
                    # benchmarks, downstream users); only names defined in
                    # the module itself are held to the consumption check.
                    continue
                if name not in consumed:
                    yield (
                        record.path,
                        anchor,
                        f"`{name}` is exported in `__all__` but never "
                        "referenced by another project module (dead public "
                        "API, or a consumer that bypasses the export surface)",
                    )


# ----------------------------------------------------------------------
# RL-H007 — no import cycles
# ----------------------------------------------------------------------
@register_project
class NoImportCycles(ProjectRule):
    """RL-H007: a top-level import cycle makes module initialisation
    order-dependent — whichever module imports first sees a partially
    initialised partner.  Break cycles with a lazy (function-level)
    import, a ``TYPE_CHECKING`` guard, or a shared lower-level module;
    both of those escapes are excluded from the graph on purpose."""

    rule_id = "RL-H007"
    title = "no top-level import cycles"

    def check_project(
        self, project: ProjectModel
    ) -> Iterator[tuple[str, ast.AST | int | None, str]]:
        edges = project.import_edges()
        for cycle in project.import_cycles():
            first = cycle[0]
            members = set(cycle)
            successor = next(
                (dst for dst in sorted(edges.get(first, ())) if dst in members),
                first,
            )
            lineno = edges.get(first, {}).get(successor, 1)
            chain = " -> ".join([*cycle, first]) if len(cycle) > 1 else (
                f"{first} -> {first}"
            )
            yield (
                project.modules[first].path,
                lineno,
                f"top-level import cycle: {chain}; break it with a lazy "
                "import, a TYPE_CHECKING guard, or a shared lower-level "
                "module",
            )
