"""Abstract interpretation of NumPy array semantics (RL-N analysis core).

The vectorized kernels (SoA :class:`~repro.network.energy_ledger.EnergyLedger`,
the batch EM APIs, the spatial grid) must stay bit-for-bit faithful to the
paper's tables, and the bug classes that silently break that fidelity are
*array-semantic*: dtype narrowing, unintended broadcasting, in-place writes
through views, integer overflow in grid-key arithmetic, and reductions over
empty operands.  None of them are visible to a per-statement AST walk.

This module tracks a three-part abstract value per local variable:

* a **dtype lattice** over the chain
  ``bool < int32 < intp < int64 < float32 < float64 < complex128`` with a
  distinguished top (unknown) element and *weak* python-scalar elements
  (``pyint``/``pyfloat``) that follow NumPy's value-independent promotion
  (a python float against an int array yields float64; against float32 it
  stays float32);
* a **symbolic shape** tuple whose dims are int literals, symbols seeded
  from ``np.zeros/empty/full/asarray`` size expressions, annotations, and
  ``m, n = x.shape`` unpacking, or unknown — unified with NumPy broadcast
  semantics, including detection of *mutual stretching* (the
  ``(N,) op (N, 1) -> (N, N)`` blowup);
* a **may-alias set** of buffer labels — ``param:<name>`` for arguments,
  ``attr:<dotted>`` for object state, ``alloc:<line>:<col>`` for local
  allocations — propagated through views (slicing, ``reshape``, ``ravel``,
  ``.T``) and cut by fresh buffers (``copy``, arithmetic, ``astype``).

Transfer runs over the existing per-function CFG
(:func:`repro.lint.cfg.build_cfg` + :meth:`~repro.lint.cfg.CFG.forward_may`):
an immutable :class:`Env` implements ``|`` as the pointwise lattice join,
so the generic may-solver threads the rich state unchanged.  After the
fixpoint, one reporting pass over the statement nodes (with their final
in-states) emits :class:`ArrayEvent` records, which the RL-N001..N005
rules in :mod:`repro.lint.rules.numerics` turn into findings.  Calls into
other project functions are resolved through the
:class:`~repro.lint.callgraph.CallGraph` and summarised (return dtype /
shape / which parameters the result may alias), so a view returned by a
helper still carries its aliasing into the caller.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterator, Mapping

from repro.lint.callgraph import CallGraph, FunctionInfo, _keyword
from repro.lint.cfg import build_cfg

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.lint.project import ModuleRecord, ProjectModel

__all__ = ["iter_module_events"]


# ----------------------------------------------------------------------
# Dtype lattice
# ----------------------------------------------------------------------
#: Top of the dtype lattice: an unknown element type.
DTYPE_TOP = "top"

#: Concrete dtypes in promotion order.  ``intp`` is the platform int that
#: ``np.arange``/``astype(int)`` produce — 32-bit on 32-bit platforms,
#: which is exactly what RL-N005 polices in grid-key arithmetic.
_CHAIN = ("bool", "int32", "intp", "int64", "float32", "float64", "complex128")

#: Join order: weak python scalars interleave where their *joined* value
#: is still safely described (a python int is at most an int; a python
#: float is at most a float64-compatible float).
_JOIN_ORDER = (
    "bool", "pyint", "int32", "intp", "int64", "pyfloat",
    "float32", "float64", "complex128",
)
_JOIN_RANK = {name: rank for rank, name in enumerate(_JOIN_ORDER)}

_CHAIN_RANK = {name: rank for rank, name in enumerate(_CHAIN)}

_INT_DTYPES = frozenset({"int32", "intp", "int64", "pyint"})
_PLATFORM_INTS = frozenset({"int32", "intp"})
_WEAK_DTYPES = frozenset({"pyint", "pyfloat"})
_NARROW_FLOATS = frozenset({"float16", "float32"})


def dtype_join(a: str | None, b: str | None) -> str | None:
    """Least upper bound at a control-flow merge (``None`` is bottom)."""
    if a is None:
        return b
    if b is None:
        return a
    if a == b:
        return a
    if DTYPE_TOP in (a, b):
        return DTYPE_TOP
    if a in _JOIN_RANK and b in _JOIN_RANK:
        return a if _JOIN_RANK[a] >= _JOIN_RANK[b] else b
    return DTYPE_TOP


def dtype_meet(a: str | None, b: str | None) -> str | None:
    """Greatest lower bound (dual of :func:`dtype_join`)."""
    if a is None or b is None:
        return None
    if a == b:
        return a
    if a == DTYPE_TOP:
        return b
    if b == DTYPE_TOP:
        return a
    if a in _JOIN_RANK and b in _JOIN_RANK:
        return a if _JOIN_RANK[a] <= _JOIN_RANK[b] else b
    return None


def promote(a: str | None, b: str | None) -> str | None:
    """NumPy binary-op result dtype (NEP-50 style, value-independent).

    Weak python scalars do not widen a concrete array dtype of the same
    kind (``float32_array + 1.5`` stays float32), but a python float
    against an integer array produces float64.
    """
    if a is None or b is None or DTYPE_TOP in (a, b):
        return DTYPE_TOP
    if a == b:
        return a
    if a in _WEAK_DTYPES and b in _WEAK_DTYPES:
        return a if _JOIN_RANK[a] >= _JOIN_RANK[b] else b
    if a in _WEAK_DTYPES:
        a, b = b, a
    if b in _WEAK_DTYPES:  # a is concrete here
        if b == "pyint":
            return a if a != "bool" else "intp"
        # pyfloat: floats/complex absorb it, ints promote to float64.
        return a if a in ("float32", "float64", "complex128") else "float64"
    if a in _CHAIN_RANK and b in _CHAIN_RANK:
        return a if _CHAIN_RANK[a] >= _CHAIN_RANK[b] else b
    return DTYPE_TOP


def _is_int(dtype: str | None) -> bool:
    return dtype in _INT_DTYPES


# ----------------------------------------------------------------------
# Symbolic shape domain
# ----------------------------------------------------------------------
#: A dim is an int literal, a symbol string, or ``None`` (unknown);
#: a shape is a tuple of dims or ``None`` (unknown rank).
Dim = "int | str | None"
Shape = "tuple | None"


def format_shape(shape: tuple | None) -> str:
    """Human-readable shape for messages: ``(n, 1)``, ``?`` for unknown."""
    if shape is None:
        return "(?)"
    dims = ", ".join("?" if d is None else str(d) for d in shape)
    if len(shape) == 1:
        dims += ","
    return f"({dims})"


def shape_join(a: tuple | None, b: tuple | None) -> tuple | None:
    """Control-flow join: equal dims survive, disagreements go unknown."""
    if a is None or b is None or len(a) != len(b):
        return None
    return tuple(da if da == db else None for da, db in zip(a, b))


def _stretchable(dim) -> bool:
    """Whether broadcasting against this dim actually replicates data."""
    return isinstance(dim, str) or (isinstance(dim, int) and dim > 1)


def broadcast_shapes(
    a: tuple | None, b: tuple | None
) -> tuple[tuple | None, bool]:
    """Broadcast-unify two symbolic shapes.

    Returns ``(result_shape, mutual_stretch)``.  ``mutual_stretch`` is
    True when *both* operands were replicated along some axis — the
    ``(N,) op (N, 1) -> (N, N)`` outer-product blowup RL-N002 reports.
    Rank extension of a true scalar (rank 0) is never a stretch, so
    ``array op scalar`` stays silent; unknown dims unify to unknown
    without claiming a stretch.
    """
    if a is None or b is None:
        return None, False
    rank = max(len(a), len(b))
    out: list = []
    stretched_a = stretched_b = False
    for axis in range(1, rank + 1):
        da = a[-axis] if axis <= len(a) else "missing"
        db = b[-axis] if axis <= len(b) else "missing"
        if da == "missing":
            out.append(db)
            if len(a) >= 1 and _stretchable(db):
                stretched_a = True
            continue
        if db == "missing":
            out.append(da)
            if len(b) >= 1 and _stretchable(da):
                stretched_b = True
            continue
        if da == db and da is not None:
            out.append(da)
        elif da == 1:
            out.append(db)
            if _stretchable(db):
                stretched_a = True
        elif db == 1:
            out.append(da)
            if _stretchable(da):
                stretched_b = True
        else:
            # Unknown vs anything, distinct symbols, or mismatched
            # literals: no broadcast knowledge (a literal mismatch is a
            # runtime error, not this analysis's business).
            out.append(None)
    return tuple(reversed(out)), stretched_a and stretched_b


# ----------------------------------------------------------------------
# Abstract values and environments
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ArrayValue:
    """The three-part abstract value: dtype x shape x may-alias set.

    ``expanded`` marks values produced by an explicit axis insertion
    (``x[:, None]``, ``keepdims=True``, ``reshape(-1, 1)``) — deliberate
    broadcast setups RL-N002 must not flag.  ``is_view`` marks values
    derived from another buffer without a copy, which is what makes an
    in-place write through them a mutation of someone else's data.
    """

    dtype: str | None = DTYPE_TOP
    shape: tuple | None = None
    aliases: frozenset = frozenset()
    expanded: bool = False
    is_array: bool = False
    is_view: bool = False

    def join(self, other: "ArrayValue") -> "ArrayValue":
        return ArrayValue(
            dtype=dtype_join(self.dtype, other.dtype),
            shape=shape_join(self.shape, other.shape),
            aliases=self.aliases | other.aliases,
            expanded=self.expanded or other.expanded,
            is_array=self.is_array or other.is_array,
            is_view=self.is_view or other.is_view,
        )


#: The completely unknown value.
_TOP_VALUE = ArrayValue()

#: Python scalar values.
_PYINT = ArrayValue(dtype="pyint", shape=())
_PYFLOAT = ArrayValue(dtype="pyfloat", shape=())


class Env(Mapping):
    """Immutable variable environment with ``|`` as the pointwise join.

    Implements ``__or__``/``__ror__`` so the generic
    :meth:`~repro.lint.cfg.CFG.forward_may` solver — which initialises
    node facts to ``frozenset()`` and merges with ``|`` — threads this
    environment through unchanged: ``frozenset() | env`` is ``env``, and
    ``env1 | env2`` joins per variable (a name bound on only one path
    keeps its binding, matching may semantics).
    """

    __slots__ = ("_vars",)

    def __init__(self, variables: dict | None = None) -> None:
        self._vars: dict = dict(variables) if variables else {}

    # Mapping protocol -------------------------------------------------
    def __getitem__(self, name: str) -> ArrayValue:
        return self._vars[name]

    def __iter__(self):
        return iter(self._vars)

    def __len__(self) -> int:
        return len(self._vars)

    # Lattice ----------------------------------------------------------
    def bind(self, name: str, value: ArrayValue) -> "Env":
        merged = dict(self._vars)
        merged[name] = value
        return Env(merged)

    def __or__(self, other):
        if isinstance(other, Env):
            merged = dict(self._vars)
            for name, value in other._vars.items():
                mine = merged.get(name)
                merged[name] = value if mine is None else mine.join(value)
            return Env(merged)
        if isinstance(other, frozenset) and not other:
            return self
        return NotImplemented

    def __ror__(self, other):
        if isinstance(other, frozenset) and not other:
            return self
        return NotImplemented

    def __eq__(self, other) -> bool:
        if isinstance(other, Env):
            return self._vars == other._vars
        return NotImplemented

    def __ne__(self, other) -> bool:
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Env({self._vars!r})"


# ----------------------------------------------------------------------
# Events
# ----------------------------------------------------------------------
#: kind -> consuming rule: narrow=RL-N001, broadcast=RL-N002,
#: alias-write=RL-N003, empty-reduce=RL-N004, int-overflow=RL-N005.
@dataclass(frozen=True)
class ArrayEvent:
    """One hazard the interpreter observed, anchored to its AST node."""

    kind: str
    node: ast.AST
    message: str


# ----------------------------------------------------------------------
# Syntactic helpers shared by the interpreter
# ----------------------------------------------------------------------
_NUMPY_DTYPE_NAMES = {
    "numpy.bool_": "bool", "bool": "bool",
    "numpy.int8": "int32", "numpy.int16": "int32",
    "numpy.int32": "int32", "numpy.uint32": "int32",
    "numpy.intp": "intp", "int": "intp",
    "numpy.int64": "int64", "numpy.uint64": "int64",
    "numpy.float16": "float16", "numpy.float32": "float32",
    "numpy.float64": "float64", "float": "float64",
    "numpy.complex64": "complex128", "numpy.complex128": "complex128",
    "complex": "complex128",
}

_STRING_DTYPES = {
    "bool": "bool", "int8": "int32", "int16": "int32", "int32": "int32",
    "int64": "int64", "int": "intp", "intp": "intp",
    "float16": "float16", "float32": "float32", "float64": "float64",
    "f4": "float32", "f8": "float64",
    "complex64": "complex128", "complex128": "complex128",
}

#: Reductions that raise (or return garbage) on an empty operand.
_EMPTY_UNSAFE_REDUCTIONS = frozenset({
    "min", "max", "amin", "amax", "nanmin", "nanmax",
    "argmin", "argmax", "mean", "median", "ptp",
})

#: Methods mutating their receiver in place.
_INPLACE_METHODS = frozenset({"fill", "sort", "partition", "put"})

#: Binary ufuncs modelled like operators (promotion + broadcasting).
_BINARY_UFUNCS = frozenset({
    "add", "subtract", "multiply", "divide", "true_divide", "floor_divide",
    "hypot", "maximum", "minimum", "mod", "remainder", "power", "arctan2",
})

_VIEW_FUNCS = frozenset({"ravel", "atleast_1d", "atleast_2d", "squeeze"})

_FRESH_FLOAT_FUNCS = frozenset({
    "linspace", "logspace", "hypot", "sqrt", "exp", "log", "log10", "sin",
    "cos", "tan", "abs", "absolute", "floor", "ceil", "round",
})


def _positive_int(expr: ast.AST) -> bool:
    return (
        isinstance(expr, ast.Constant)
        and isinstance(expr.value, int)
        and not isinstance(expr.value, bool)
        and expr.value >= 1
    )


def _names_in(expr: ast.AST | None) -> set[str]:
    if expr is None:
        return set()
    return {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}


def _suite_exits(body: list[ast.stmt]) -> bool:
    """Whether a suite always leaves the enclosing block (early exit)."""
    if not body:
        return False
    last = body[-1]
    return isinstance(last, (ast.Return, ast.Raise, ast.Continue, ast.Break))


class _GuardScan:
    """Syntactic emptiness-guard map for RL-N004.

    A reduction over ``x`` is *guarded* when it sits in a region
    dominated by a test mentioning ``x`` (or a size name linked to it via
    ``n = len(x)`` / ``n = x.size`` / ``m, k = x.shape``): inside an
    ``if``/``while`` on the test, or after an early-exit ``if`` whose
    suite unconditionally leaves the block.  Guards propagate through
    derivation — a value computed from a guarded array inherits the
    guard, matching the ``if not mask.any(): return`` idiom.
    """

    def __init__(self, func: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self.guarded_at: dict[int, frozenset] = {}
        self._size_of: dict[str, set[str]] = {}
        self._walk(func.body, set())

    def _link_sizes(self, stmt: ast.stmt) -> None:
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            return
        target, value = stmt.targets[0], stmt.value
        if isinstance(target, ast.Name):
            measured = self._measured_name(value)
            if measured is not None:
                self._size_of.setdefault(target.id, set()).add(measured)
        elif isinstance(target, ast.Tuple) and isinstance(value, ast.Attribute):
            if value.attr == "shape" and isinstance(value.value, ast.Name):
                for elt in target.elts:
                    if isinstance(elt, ast.Name):
                        self._size_of.setdefault(elt.id, set()).add(
                            value.value.id
                        )

    @staticmethod
    def _measured_name(value: ast.expr) -> str | None:
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id == "len"
            and len(value.args) == 1
            and isinstance(value.args[0], ast.Name)
        ):
            return value.args[0].id
        if isinstance(value, ast.Attribute) and value.attr == "size":
            if isinstance(value.value, ast.Name):
                return value.value.id
        return None

    def _guard_names(self, test: ast.expr) -> set[str]:
        names = _names_in(test)
        for node in ast.walk(test):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) and func.attr in (
                    "any", "all"
                ):
                    names |= _names_in(func.value)
        expanded = set(names)
        for name in names:
            expanded |= self._size_of.get(name, set())
        return expanded

    def _walk(self, body: list[ast.stmt], guarded: set) -> None:
        guarded = set(guarded)
        for stmt in body:
            self.guarded_at[id(stmt)] = frozenset(guarded)
            self._link_sizes(stmt)
            if isinstance(stmt, ast.Assign):
                # Derived-value guard inheritance.
                sources = _names_in(stmt.value)
                if sources and sources & guarded:
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            guarded.add(target.id)
            elif isinstance(stmt, ast.If):
                gnames = self._guard_names(stmt.test)
                self._walk(stmt.body, guarded | gnames)
                self._walk(stmt.orelse, guarded | gnames)
                if _suite_exits(stmt.body) and not stmt.orelse:
                    guarded |= gnames
            elif isinstance(stmt, ast.While):
                self._walk(stmt.body, guarded | self._guard_names(stmt.test))
                self._walk(stmt.orelse, guarded)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._walk(stmt.body, guarded)
                self._walk(stmt.orelse, guarded)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                self._walk(stmt.body, guarded)
            elif isinstance(stmt, ast.Try):
                self._walk(stmt.body, guarded)
                for handler in stmt.handlers:
                    self._walk(handler.body, guarded)
                self._walk(stmt.orelse, guarded)
                self._walk(stmt.finalbody, guarded)


# ----------------------------------------------------------------------
# Inter-procedural summaries
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FunctionSummary:
    """What a call to a project function yields, from the caller's view."""

    dtype: str | None = DTYPE_TOP
    shape: tuple | None = None
    #: Positional-parameter indices the return value may alias.
    param_aliases: tuple = ()
    is_array: bool = False
    is_view: bool = False


_TOP_SUMMARY = FunctionSummary()


def _export_shape(shape: tuple | None) -> tuple | None:
    """Strip callee-local symbols from a summary shape (keep literals)."""
    if shape is None:
        return None
    return tuple(d if isinstance(d, int) else None for d in shape)


# ----------------------------------------------------------------------
# The per-function interpreter
# ----------------------------------------------------------------------
class _Interp:
    """Abstract interpretation of one function body.

    Runs twice over the same transfer function: once inside the CFG
    fixpoint (``reporting=False``, events suppressed) and once, after
    convergence, over each statement node with its final in-state
    (``reporting=True``) to emit events exactly once per site.
    """

    def __init__(
        self, analysis: "ArrayAnalysis", info: FunctionInfo
    ) -> None:
        self.analysis = analysis
        self.info = info
        self.record = info.record
        self.ctx = info.record.ctx
        self.events: list[ArrayEvent] = []
        self.reporting = False
        self._stmt: ast.stmt | None = None
        self._emitted: set = set()
        #: Symbols provably >= 1 (``np.empty(k + 1)`` style sizes).
        self._positive: set[str] = set()
        self._guards = _GuardScan(info.node)
        self._load_lines = self._collect_load_lines(info.node)

    # -- bookkeeping ---------------------------------------------------
    @staticmethod
    def _collect_load_lines(
        func: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> dict[str, list[int]]:
        lines: dict[str, list[int]] = {}
        for node in ast.walk(func):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                lines.setdefault(node.id, []).append(node.lineno)
        return lines

    def _used_after(self, name: str, lineno: int) -> bool:
        return any(line > lineno for line in self._load_lines.get(name, ()))

    def _emit(self, kind: str, node: ast.AST, message: str) -> None:
        if not self.reporting:
            return
        key = (kind, id(node), message)
        if key not in self._emitted:
            self._emitted.add(key)
            self.events.append(ArrayEvent(kind, node, message))

    def _guarded(self, names: set[str]) -> bool:
        stmt = self._stmt
        if stmt is None or not names:
            return False
        return bool(names & self._guards.guarded_at.get(id(stmt), frozenset()))

    # -- entry environment --------------------------------------------
    def seed_env(self) -> Env:
        variables: dict = {}
        args = self.info.node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        for param in params:
            variables[param.arg] = self._param_value(param)
        if args.vararg is not None:
            variables[args.vararg.arg] = _TOP_VALUE
        if args.kwarg is not None:
            variables[args.kwarg.arg] = _TOP_VALUE
        return Env(variables)

    def _param_value(self, param: ast.arg) -> ArrayValue:
        alias = frozenset({f"param:{param.arg}"})
        annotation = param.annotation
        if annotation is None:
            return ArrayValue(aliases=alias)
        resolved = self.ctx.resolve_call_name(annotation)
        if resolved in ("numpy.ndarray", "numpy.typing.NDArray"):
            return ArrayValue(aliases=alias, is_array=True)
        if isinstance(annotation, ast.Subscript):
            base = self.ctx.resolve_call_name(annotation.value)
            if base in ("numpy.typing.NDArray", "numpy.ndarray"):
                dtype = self._dtype_from_expr(annotation.slice)
                return ArrayValue(
                    dtype=dtype or DTYPE_TOP, aliases=alias, is_array=True
                )
        if resolved == "int":
            return ArrayValue(dtype="pyint", shape=(), aliases=alias)
        if resolved == "float":
            return ArrayValue(dtype="pyfloat", shape=(), aliases=alias)
        return ArrayValue(aliases=alias)

    # -- transfer ------------------------------------------------------
    def transfer(self, stmt: ast.stmt, env) -> Env:
        if not isinstance(env, Env):  # solver-initial frozenset()
            env = Env()
        self._stmt = stmt
        if isinstance(stmt, ast.Assign):
            value = self._eval(stmt.value, env)
            for target in stmt.targets:
                env = self._assign(target, stmt.value, value, env)
            return env
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is None:
                return env
            value = self._eval(stmt.value, env)
            return self._assign(stmt.target, stmt.value, value, env)
        if isinstance(stmt, ast.AugAssign):
            return self._aug_assign(stmt, env)
        if isinstance(stmt, (ast.Expr, ast.Return)):
            if stmt.value is not None:
                self._eval(stmt.value, env)
            return env
        if isinstance(stmt, (ast.If, ast.While)):
            self._eval(stmt.test, env)
            return env
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            iterable = self._eval(stmt.iter, env)
            if isinstance(stmt.target, ast.Name):
                env = env.bind(stmt.target.id, self._iter_element(iterable))
            return env
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._eval(item.context_expr, env)
            return env
        if isinstance(stmt, ast.Delete):
            remaining = {
                n: v for n, v in env.items()
                if n not in _names_in(stmt)
            }
            return Env(remaining)
        return env

    @staticmethod
    def _iter_element(iterable: ArrayValue) -> ArrayValue:
        if iterable.is_array and iterable.shape and len(iterable.shape) >= 2:
            return ArrayValue(
                dtype=iterable.dtype,
                shape=iterable.shape[1:],
                aliases=iterable.aliases,
                is_array=True,
                is_view=True,
            )
        return ArrayValue(dtype=iterable.dtype, shape=None)

    def _assign(
        self,
        target: ast.expr,
        value_expr: ast.expr,
        value: ArrayValue,
        env: Env,
    ) -> Env:
        if isinstance(target, ast.Name):
            return env.bind(target.id, value)
        if isinstance(target, (ast.Tuple, ast.List)):
            return self._assign_tuple(target, value_expr, env)
        if isinstance(target, ast.Subscript):
            self._check_mutation(target.value, env, "subscripted write")
            return env
        return env  # attribute targets: object state, out of scope

    def _assign_tuple(
        self, target: ast.Tuple | ast.List, value_expr: ast.expr, env: Env
    ) -> Env:
        # ``m, n = x.shape`` seeds symbolic dims on x and binds the
        # names as scalar sizes.
        if (
            isinstance(value_expr, ast.Attribute)
            and value_expr.attr == "shape"
            and isinstance(value_expr.value, ast.Name)
            and all(isinstance(e, ast.Name) for e in target.elts)
        ):
            array_name = value_expr.value.id
            dims = tuple(e.id for e in target.elts)
            current = env.get(array_name)
            if current is not None and current.shape is None:
                env = env.bind(array_name, replace(current, shape=dims))
            for elt in target.elts:
                env = env.bind(elt.id, _PYINT)
            return env
        if isinstance(value_expr, (ast.Tuple, ast.List)) and len(
            value_expr.elts
        ) == len(target.elts):
            for elt, sub in zip(target.elts, value_expr.elts):
                env = self._assign(elt, sub, self._eval(sub, env), env)
            return env
        for elt in target.elts:
            if isinstance(elt, ast.Name):
                env = env.bind(elt.id, _TOP_VALUE)
        return env

    def _aug_assign(self, stmt: ast.AugAssign, env: Env) -> Env:
        value = self._binop_value(
            stmt, stmt.op, self._eval(stmt.target, env),
            self._eval(stmt.value, env),
        )
        if isinstance(stmt.target, ast.Name):
            current = env.get(stmt.target.id)
            # ``x += v`` mutates in place when x is an ndarray.
            if current is not None and current.is_array:
                self._check_mutation(stmt.target, env, "augmented write")
            return env.bind(stmt.target.id, replace(
                value,
                aliases=current.aliases if current else value.aliases,
                is_view=current.is_view if current else False,
            ))
        if isinstance(stmt.target, ast.Subscript):
            self._check_mutation(stmt.target.value, env, "augmented write")
        return env

    # -- mutation (RL-N003) -------------------------------------------
    def _check_mutation(
        self, receiver: ast.expr, env: Env, how: str
    ) -> None:
        if not isinstance(receiver, ast.Name):
            return  # attribute receivers mutate owned object state
        name = receiver.id
        value = env.get(name)
        if value is None or not value.aliases:
            return
        stmt = self._stmt
        anchor = stmt if stmt is not None else receiver
        own_label = f"param:{name}"
        for label in sorted(value.aliases):
            if label.startswith("param:") and label != own_label:
                if value.is_view or value.is_array:
                    param = label.split(":", 1)[1]
                    self._emit(
                        "alias-write", anchor,
                        f"{how} to `{name}` mutates caller data: it may "
                        f"alias parameter `{param}` (view chain); copy "
                        "before writing, or make the out-parameter "
                        "contract explicit",
                    )
                    return
        if not value.is_view:
            return
        alloc_labels = {
            label for label in value.aliases if label.startswith("alloc:")
        }
        if not alloc_labels:
            return
        lineno = getattr(anchor, "lineno", 0)
        for other, other_value in sorted(env.items()):
            if other == name:
                continue
            if not (alloc_labels & other_value.aliases):
                continue
            if self._used_after(other, lineno):
                self._emit(
                    "alias-write", anchor,
                    f"{how} to `{name}` also changes `{other}` — both may "
                    "share one buffer (view of the same allocation); "
                    "copy before writing",
                )
                return

    # -- expression evaluation ----------------------------------------
    def _eval(self, expr: ast.expr, env: Env) -> ArrayValue:
        if isinstance(expr, ast.Name):
            return env.get(expr.id, _TOP_VALUE)
        if isinstance(expr, ast.Constant):
            return self._constant(expr.value)
        if isinstance(expr, ast.BinOp):
            left = self._eval(expr.left, env)
            right = self._eval(expr.right, env)
            return self._binop_value(expr, expr.op, left, right)
        if isinstance(expr, ast.UnaryOp):
            operand = self._eval(expr.operand, env)
            if isinstance(expr.op, ast.Not):
                return ArrayValue(dtype="bool", shape=operand.shape)
            return replace(operand, aliases=frozenset(), is_view=False)
        if isinstance(expr, ast.Compare):
            return self._compare(expr, env)
        if isinstance(expr, ast.BoolOp):
            value = self._eval(expr.values[0], env)
            for sub in expr.values[1:]:
                value = value.join(self._eval(sub, env))
            return value
        if isinstance(expr, ast.IfExp):
            self._eval(expr.test, env)
            return self._eval(expr.body, env).join(
                self._eval(expr.orelse, env)
            )
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, env)
        if isinstance(expr, ast.Attribute):
            return self._eval_attribute(expr, env)
        if isinstance(expr, ast.Subscript):
            return self._eval_subscript(expr, env)
        if isinstance(expr, (ast.Tuple, ast.List)):
            for elt in expr.elts:
                self._eval(elt, env)
            return _TOP_VALUE
        if isinstance(expr, ast.Starred):
            return self._eval(expr.value, env)
        return _TOP_VALUE

    @staticmethod
    def _constant(value) -> ArrayValue:
        if isinstance(value, bool):
            return ArrayValue(dtype="pyint", shape=())
        if isinstance(value, int):
            return _PYINT
        if isinstance(value, float):
            return _PYFLOAT
        if isinstance(value, complex):
            return ArrayValue(dtype="complex128", shape=())
        return _TOP_VALUE

    def _binop_value(
        self, node: ast.AST, op: ast.operator,
        left: ArrayValue, right: ArrayValue,
    ) -> ArrayValue:
        dtype = promote(left.dtype, right.dtype)
        shape, mutual = broadcast_shapes(left.shape, right.shape)
        if mutual and not (left.expanded or right.expanded):
            self._emit(
                "broadcast", node,
                f"operands of shape {format_shape(left.shape)} and "
                f"{format_shape(right.shape)} broadcast by stretching "
                f"*both* sides to {format_shape(shape)} — likely an "
                "unintended outer product; insert the axis explicitly "
                "(`[:, None]`) if the blowup is intended",
            )
        is_array = left.is_array or right.is_array
        if isinstance(op, ast.Div):
            if _is_int(left.dtype) and _is_int(right.dtype) and is_array:
                self._emit(
                    "narrow", node,
                    "true division of two integer arrays silently yields "
                    "float64; use `//` for integer division or cast one "
                    "operand explicitly to make the dtype change visible",
                )
            dtype = (
                "float64"
                if _is_int(dtype) or dtype == "bool"
                else dtype
            )
        elif isinstance(op, (ast.Mult, ast.Add, ast.Pow)):
            if (
                is_array
                and _is_int(left.dtype)
                and _is_int(right.dtype)
                and dtype in _PLATFORM_INTS
            ):
                kind = "product" if not isinstance(op, ast.Add) else "sum"
                self._emit(
                    "int-overflow", node,
                    f"{kind} of platform-int values stays int32/intp and "
                    "can overflow at scale (composite grid keys exceed "
                    "2**31 beyond ~10^5 cells per side); cast with "
                    "np.int64 before the arithmetic",
                )
        return ArrayValue(
            dtype=dtype, shape=shape, is_array=is_array,
            expanded=left.expanded and right.expanded,
        )

    def _compare(self, expr: ast.Compare, env: Env) -> ArrayValue:
        left = self._eval(expr.left, env)
        result = ArrayValue(dtype="bool", shape=left.shape)
        for comparator in expr.comparators:
            right = self._eval(comparator, env)
            shape, mutual = broadcast_shapes(left.shape, right.shape)
            if mutual and not (left.expanded or right.expanded):
                self._emit(
                    "broadcast", expr,
                    f"comparison of shapes {format_shape(left.shape)} and "
                    f"{format_shape(right.shape)} broadcasts by "
                    "stretching both sides — likely an unintended outer "
                    "product; insert the axis explicitly if intended",
                )
            result = ArrayValue(
                dtype="bool", shape=shape,
                is_array=left.is_array or right.is_array,
            )
            left = right
        return result

    # -- attribute / subscript ----------------------------------------
    def _eval_attribute(self, expr: ast.Attribute, env: Env) -> ArrayValue:
        base = self._eval(expr.value, env)
        attr = expr.attr
        if attr == "T":
            shape = (
                tuple(reversed(base.shape)) if base.shape is not None else None
            )
            return replace(base, shape=shape, is_view=True)
        if attr in ("real", "imag", "flat"):
            return replace(base, shape=None, is_view=True)
        if attr in ("size", "ndim", "itemsize", "nbytes"):
            return _PYINT
        if attr in ("dtype", "shape"):
            return _TOP_VALUE
        # Unresolved attribute loads (``self.clock``): unknown state with
        # a deterministic label, so derived views keep their provenance.
        dotted: list[str] = [attr]
        node: ast.expr = expr.value
        while isinstance(node, ast.Attribute):
            dotted.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            dotted.append(node.id)
            label = "attr:" + ".".join(reversed(dotted))
            return ArrayValue(aliases=frozenset({label}))
        return _TOP_VALUE

    def _eval_subscript(self, expr: ast.Subscript, env: Env) -> ArrayValue:
        base = self._eval(expr.value, env)
        if not (base.is_array or base.aliases):
            return _TOP_VALUE
        index = expr.slice
        parts = list(index.elts) if isinstance(index, ast.Tuple) else [index]
        has_newaxis = any(
            isinstance(p, ast.Constant) and p.value is None for p in parts
        )
        advanced = False
        for part in parts:
            if isinstance(part, ast.Slice):
                continue
            if isinstance(part, ast.Constant) and (
                part.value is None
                or isinstance(part.value, int)
                or part.value is Ellipsis
            ):
                continue
            self._eval(part, env)
            advanced = True
        if advanced:
            # Advanced (integer-array / boolean-mask) indexing copies.
            return ArrayValue(
                dtype=base.dtype, shape=None,
                is_array=True,
            )
        shape = self._slice_shape(base.shape, parts)
        return ArrayValue(
            dtype=base.dtype,
            shape=shape,
            aliases=base.aliases,
            expanded=base.expanded or has_newaxis,
            is_array=True,
            is_view=True,
        )

    @staticmethod
    def _slice_shape(shape: tuple | None, parts: list) -> tuple | None:
        if shape is None:
            return None
        out: list = []
        axis = 0
        for part in parts:
            if isinstance(part, ast.Constant) and part.value is None:
                out.append(1)
                continue
            if isinstance(part, ast.Constant) and part.value is Ellipsis:
                return None
            if axis >= len(shape):
                return None
            if isinstance(part, ast.Slice):
                full = (
                    part.lower is None
                    and part.upper is None
                    and part.step is None
                )
                out.append(shape[axis] if full else None)
                axis += 1
            else:  # integer index: the axis disappears
                axis += 1
        out.extend(shape[axis:])
        return tuple(out)

    # -- calls ---------------------------------------------------------
    def _dtype_from_expr(self, expr: ast.expr | None) -> str | None:
        if expr is None:
            return None
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            return _STRING_DTYPES.get(expr.value)
        resolved = self.ctx.resolve_call_name(expr)
        if resolved is not None:
            return _NUMPY_DTYPE_NAMES.get(resolved)
        return None

    def _dim_from_expr(self, expr: ast.expr) -> "int | str | None":
        if isinstance(expr, ast.Constant) and isinstance(expr.value, int):
            return int(expr.value)
        if isinstance(expr, ast.Name):
            return expr.id
        if isinstance(expr, ast.Attribute):
            names = []
            node: ast.expr = expr
            while isinstance(node, ast.Attribute):
                names.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name):
                names.append(node.id)
                return ".".join(reversed(names))
            return None
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Name)
            and expr.func.id == "len"
            and len(expr.args) == 1
        ):
            inner = self._dim_from_expr(expr.args[0])
            return f"len({inner})" if inner is not None else None
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Add):
            base = const = None
            if _positive_int(expr.right):
                base, const = expr.left, expr.right
            elif _positive_int(expr.left):
                base, const = expr.right, expr.left
            if base is not None and const is not None:
                inner = self._dim_from_expr(base)
                if inner is not None:
                    symbol = f"{inner}+{const.value}"  # type: ignore[union-attr]
                    # n >= 0 for any size expression, so n + c >= 1.
                    self._positive.add(symbol)
                    return symbol
        return None

    def _shape_from_expr(
        self, expr: ast.expr | None, env: Env
    ) -> tuple | None:
        if expr is None:
            return None
        if isinstance(expr, (ast.Tuple, ast.List)):
            return tuple(self._dim_from_expr(e) for e in expr.elts)
        if isinstance(expr, ast.Name):
            bound = env.get(expr.id)
            if bound is not None and bound.shape not in ((), None):
                return None  # a bound array/tuple, not a scalar size
            dim = self._dim_from_expr(expr)
            return (dim,) if dim is not None else None
        dim = self._dim_from_expr(expr)
        return (dim,) if dim is not None else None

    def _alloc_value(
        self, call: ast.Call, dtype: str | None, shape: tuple | None,
        expanded: bool = False,
    ) -> ArrayValue:
        label = f"alloc:{call.lineno}:{call.col_offset}"
        return ArrayValue(
            dtype=dtype, shape=shape, aliases=frozenset({label}),
            expanded=expanded, is_array=True,
        )

    def _eval_call(self, call: ast.Call, env: Env) -> ArrayValue:
        func = call.func
        resolved = self.ctx.resolve_call_name(func)
        if resolved is not None and resolved.startswith("numpy."):
            value = self._numpy_call(call, resolved, env)
            if value is not None:
                return value
        if isinstance(func, ast.Attribute):
            value = self._method_call(call, func, env)
            if value is not None:
                return value
        if resolved == "len" or resolved == "builtins.len":
            self._eval(call.args[0], env) if call.args else None
            return _PYINT
        if resolved in ("float", "builtins.float"):
            for arg in call.args:
                self._eval(arg, env)
            return _PYFLOAT
        if resolved in ("int", "builtins.int", "abs", "builtins.abs"):
            for arg in call.args:
                self._eval(arg, env)
            return _PYINT if resolved.endswith("int") else _TOP_VALUE
        # Project functions: inter-procedural summary through the
        # call graph; everything else is opaque.
        for arg in call.args:
            self._eval(arg, env)
        for kw in call.keywords:
            self._eval(kw.value, env)
        summary = self._project_summary(call)
        if summary is not None:
            aliases: frozenset = frozenset()
            for index in summary.param_aliases:
                if index < len(call.args):
                    aliases |= self._eval(call.args[index], env).aliases
            return ArrayValue(
                dtype=summary.dtype,
                shape=summary.shape,
                aliases=aliases,
                is_array=summary.is_array,
                is_view=summary.is_view and bool(aliases),
            )
        return _TOP_VALUE

    def _project_summary(self, call: ast.Call) -> FunctionSummary | None:
        graph = CallGraph.of(self.analysis.project)
        info = graph.resolve_callable(
            call.func, self.record, self.info.class_qual, None,
            self.info.qualname,
        )
        if info is None:
            return None
        return self.analysis.summary_of(info)

    # -- numpy namespace ----------------------------------------------
    def _numpy_call(
        self, call: ast.Call, resolved: str, env: Env
    ) -> ArrayValue | None:
        name = resolved[len("numpy."):].rsplit(".", 1)[-1]
        dtype_kw = self._dtype_from_expr(_keyword(call, "dtype"))
        args = call.args

        if name in ("zeros", "ones", "empty"):
            shape = self._shape_from_expr(args[0] if args else None, env)
            return self._alloc_value(call, dtype_kw or "float64", shape)
        if name == "full":
            fill = self._eval(args[1], env) if len(args) > 1 else _PYFLOAT
            dtype = dtype_kw or {
                "pyint": "intp", "pyfloat": "float64",
            }.get(fill.dtype or "", fill.dtype)
            shape = self._shape_from_expr(args[0] if args else None, env)
            return self._alloc_value(call, dtype, shape)
        if name in ("zeros_like", "ones_like", "empty_like", "full_like"):
            source = self._eval(args[0], env) if args else _TOP_VALUE
            if name == "full_like" and len(args) > 1:
                self._eval(args[1], env)
            dtype = dtype_kw or source.dtype
            self._check_narrowing(call, source.dtype, dtype_kw, f"np.{name}")
            return self._alloc_value(call, dtype, source.shape)
        if name in ("asarray", "ascontiguousarray", "asfarray"):
            source = self._eval(args[0], env) if args else _TOP_VALUE
            dtype = dtype_kw or source.dtype
            if dtype in _WEAK_DTYPES:
                dtype = "intp" if dtype == "pyint" else "float64"
            self._check_narrowing(call, source.dtype, dtype_kw, f"np.{name}")
            return ArrayValue(
                dtype=dtype, shape=source.shape, aliases=source.aliases,
                expanded=source.expanded, is_array=True,
                is_view=bool(source.aliases),
            )
        if name in ("array", "copy"):
            source = self._eval(args[0], env) if args else _TOP_VALUE
            dtype = dtype_kw or source.dtype
            if dtype in _WEAK_DTYPES:
                dtype = "intp" if dtype == "pyint" else "float64"
            self._check_narrowing(call, source.dtype, dtype_kw, f"np.{name}")
            return self._alloc_value(call, dtype, source.shape)
        if name == "arange":
            if dtype_kw is not None:
                dtype = dtype_kw
            elif any(
                isinstance(a, ast.Constant) and isinstance(a.value, float)
                for a in args
            ):
                dtype = "float64"
            else:
                dtype = "intp"  # the platform-int default RL-N005 polices
            shape = None
            if len(args) == 1:
                dim = self._dim_from_expr(args[0])
                shape = (dim,) if dim is not None else None
                self._eval(args[0], env)
            else:
                for arg in args:
                    self._eval(arg, env)
            return self._alloc_value(call, dtype, shape)
        if name in ("linspace", "logspace"):
            for arg in args:
                self._eval(arg, env)
            dim = (
                self._dim_from_expr(args[2]) if len(args) > 2 else 50
            )
            return self._alloc_value(call, "float64", (dim,))
        if name == "where":
            return self._numpy_where(call, env)
        if name in _BINARY_UFUNCS and len(args) >= 2:
            left = self._eval(args[0], env)
            right = self._eval(args[1], env)
            op: ast.operator
            if name in ("multiply", "power"):
                op = ast.Mult()
            elif name == "add":
                op = ast.Add()
            elif name in ("divide", "true_divide"):
                op = ast.Div()
            else:
                op = ast.Sub()
            value = self._binop_value(call, op, left, right)
            if name in _FRESH_FLOAT_FUNCS:
                value = replace(value, dtype=promote(value.dtype, "pyfloat"))
            out = _keyword(call, "out")
            if out is not None:
                self._check_mutation(out, env, "ufunc out= write")
                out_value = self._eval(out, env)
                value = replace(
                    value, aliases=out_value.aliases,
                    is_view=out_value.is_view,
                )
            return value
        if name in _EMPTY_UNSAFE_REDUCTIONS and args:
            return self._reduction(call, name, args[0], env)
        if name in ("sum", "prod", "cumsum", "cumprod", "count_nonzero"):
            source = self._eval(args[0], env) if args else _TOP_VALUE
            dtype = source.dtype
            if name in ("sum", "prod", "cumsum", "cumprod"):
                # Reductions widen platform ints to the accumulator type.
                dtype = "intp" if dtype == "bool" else dtype
            if name == "count_nonzero":
                dtype = "intp"
            return ArrayValue(dtype=dtype, shape=None, is_array=True)
        if name in _VIEW_FUNCS and args:
            source = self._eval(args[0], env)
            return replace(
                source, shape=None, is_view=bool(source.aliases),
            )
        if name == "reshape" and len(args) >= 2:
            source = self._eval(args[0], env)
            return self._reshape(source, args[1], env)
        if name in _FRESH_FLOAT_FUNCS and args:
            source = self._eval(args[0], env)
            dtype = promote(source.dtype, "pyfloat")
            if name in ("floor", "ceil", "round", "abs", "absolute"):
                dtype = source.dtype if source.dtype != DTYPE_TOP else DTYPE_TOP
            return ArrayValue(
                dtype=dtype, shape=source.shape, is_array=True,
            )
        if name in (
            "concatenate", "append", "stack", "vstack", "hstack",
            "column_stack", "repeat", "tile", "sort", "unique", "diff",
            "flatnonzero", "searchsorted", "argsort", "lexsort", "nonzero",
            "cumsum", "floor_divide", "dot", "matmul", "einsum", "interp",
        ):
            dtype: str | None = DTYPE_TOP
            for arg in args:
                value = self._eval(arg, env)
                dtype = dtype_join(
                    dtype if dtype != DTYPE_TOP else None, value.dtype
                )
            if name in (
                "argsort", "searchsorted", "flatnonzero", "nonzero",
                "lexsort",
            ):
                dtype = "intp"  # index-producing: platform int
            return ArrayValue(dtype=dtype, shape=None, is_array=True)
        if name in ("float32", "float16", "int32", "int16", "int8"):
            source = self._eval(args[0], env) if args else _TOP_VALUE
            target = _STRING_DTYPES.get(name, name)
            self._check_narrowing(call, source.dtype, target, f"np.{name}")
            return ArrayValue(
                dtype=target, shape=source.shape, is_array=source.is_array,
            )
        if name in ("float64", "int64", "intp", "bool_"):
            source = self._eval(args[0], env) if args else _TOP_VALUE
            return ArrayValue(
                dtype=_STRING_DTYPES.get(name, "bool"),
                shape=source.shape, is_array=source.is_array,
            )
        return None

    def _numpy_where(self, call: ast.Call, env: Env) -> ArrayValue:
        args = call.args
        cond = self._eval(args[0], env) if args else _TOP_VALUE
        if len(args) < 3:
            return ArrayValue(dtype="intp", shape=None, is_array=True)
        a = self._eval(args[1], env)
        b = self._eval(args[2], env)
        branch_dtypes = {a.dtype, b.dtype}
        if branch_dtypes == {"float32", "float64"}:
            self._emit(
                "narrow", call,
                "np.where mixes float32 and float64 branches — the "
                "float32 side already lost precision upstream and the "
                "result dtype depends on it; unify both branches to "
                "float64 explicitly",
            )
        shape, mutual = broadcast_shapes(a.shape, b.shape)
        if mutual and not (a.expanded or b.expanded):
            self._emit(
                "broadcast", call,
                f"np.where branches of shape {format_shape(a.shape)} and "
                f"{format_shape(b.shape)} broadcast by stretching both "
                "sides — likely an unintended outer product",
            )
        shape, _ = broadcast_shapes(shape, cond.shape)
        return ArrayValue(
            dtype=promote(a.dtype, b.dtype), shape=shape, is_array=True,
        )

    def _reshape(
        self, source: ArrayValue, shape_arg: ast.expr, env: Env
    ) -> ArrayValue:
        shape = self._shape_from_expr(shape_arg, env)
        if shape is not None:
            shape = tuple(None if d == -1 else d for d in shape)
        expanded = source.expanded or bool(
            shape and any(d == 1 for d in shape)
        )
        return ArrayValue(
            dtype=source.dtype, shape=shape, aliases=source.aliases,
            expanded=expanded, is_array=True,
            is_view=bool(source.aliases),
        )

    def _check_narrowing(
        self, node: ast.AST, source: str | None, target: str | None,
        how: str,
    ) -> None:
        if target is None:
            return
        if target in _NARROW_FLOATS:
            if source in ("float64", "complex128", DTYPE_TOP, None):
                self._emit(
                    "narrow", node,
                    f"`{how}` narrows a float64-carrying value to "
                    f"{target}; the bit-for-bit kernels require float64 "
                    "end to end — keep the wide dtype (or isolate the "
                    "narrow copy behind an explicit boundary)",
                )
        elif target == "int32" and source in ("int64", DTYPE_TOP, None):
            self._emit(
                "narrow", node,
                f"`{how}` narrows 64-bit integers to int32; composite "
                "grid keys and node ids overflow int32 at scale — keep "
                "np.int64",
            )

    # -- methods -------------------------------------------------------
    def _method_call(
        self, call: ast.Call, func: ast.Attribute, env: Env
    ) -> ArrayValue | None:
        receiver = self._eval(func.value, env)
        method = func.attr
        arrayish = receiver.is_array or bool(receiver.aliases)
        if method == "astype" and call.args:
            target = self._dtype_from_expr(call.args[0])
            self._check_narrowing(
                call, receiver.dtype, target, f".astype({ast.dump(call.args[0]) if target is None else target})",
            )
            return ArrayValue(
                dtype=target or DTYPE_TOP, shape=receiver.shape,
                is_array=True,
            )
        if method == "copy" and arrayish:
            return self._alloc_value(
                call, receiver.dtype, receiver.shape, receiver.expanded
            )
        if method == "reshape" and call.args and arrayish:
            shape_arg: ast.expr
            if len(call.args) == 1:
                shape_arg = call.args[0]
            else:
                shape_arg = ast.Tuple(elts=list(call.args), ctx=ast.Load())
            return self._reshape(receiver, shape_arg, env)
        if method in ("ravel", "view", "swapaxes", "transpose") and arrayish:
            return replace(receiver, shape=None, is_view=True)
        if method == "flatten" and arrayish:
            return self._alloc_value(call, receiver.dtype, None)
        if method in _INPLACE_METHODS and arrayish:
            if isinstance(func.value, ast.Name):
                self._check_mutation(
                    func.value, env, f"in-place `.{method}()`"
                )
            for arg in call.args:
                self._eval(arg, env)
            return replace(receiver, shape=receiver.shape)
        if method in _EMPTY_UNSAFE_REDUCTIONS and arrayish:
            return self._reduction(call, method, func.value, env)
        if method in ("sum", "prod") and arrayish:
            return ArrayValue(
                dtype=receiver.dtype, shape=None, is_array=True,
            )
        if method in ("any", "all") and arrayish:
            return ArrayValue(dtype="bool", shape=())
        if method == "tolist":
            return _TOP_VALUE
        if method == "item":
            return ArrayValue(dtype=receiver.dtype, shape=())
        return None

    # -- reductions (RL-N004) -----------------------------------------
    def _reduction(
        self, call: ast.Call, name: str, operand_expr: ast.expr, env: Env
    ) -> ArrayValue:
        operand = self._eval(operand_expr, env)
        axis_expr = _keyword(call, "axis")
        if axis_expr is None and call.args:
            # ``np.min(x, 0)`` carries the axis in args[1]; the method
            # form ``x.min(0)`` carries it in args[0].
            if call.args[0] is operand_expr:
                axis_expr = call.args[1] if len(call.args) > 1 else None
            else:
                axis_expr = call.args[0]
        axis = (
            axis_expr.value
            if isinstance(axis_expr, ast.Constant)
            and isinstance(axis_expr.value, int)
            else None
        )
        keepdims_expr = _keyword(call, "keepdims")
        keepdims = (
            isinstance(keepdims_expr, ast.Constant)
            and keepdims_expr.value is True
        )
        self._check_empty_reduction(call, name, operand_expr, operand, axis)
        if name in ("argmin", "argmax"):
            dtype: str | None = "intp"
        elif name in ("mean", "median", "std", "var", "average"):
            dtype = (
                operand.dtype
                if operand.dtype in ("float32", "complex128")
                else "float64"
            )
        else:
            dtype = operand.dtype
        shape: tuple | None
        if operand.shape is None:
            shape = None if axis is not None or keepdims else ()
        elif axis is None and not keepdims:
            shape = ()
        elif axis is not None and axis < len(operand.shape):
            dims = list(operand.shape)
            if keepdims:
                dims[axis] = 1
            else:
                del dims[axis]
            shape = tuple(dims)
        else:
            shape = None
        return ArrayValue(
            dtype=dtype, shape=shape,
            is_array=shape != (),
            expanded=keepdims,
        )

    def _reduced_dim_risky(
        self, operand: ArrayValue, axis: int | None
    ) -> bool | None:
        """True = provably riskable dim, None = unknown shape, False = safe."""
        if operand.shape is None:
            return None
        dims = (
            [operand.shape[axis]]
            if axis is not None and axis < len(operand.shape)
            else list(operand.shape)
        )
        if not dims:
            return False  # scalar: reductions are identity
        for dim in dims:
            if dim == 0:
                return True
            if dim is None:
                return None
            if isinstance(dim, str) and dim not in self._positive:
                return True
            if isinstance(dim, int) and dim >= 1:
                continue
        return False

    def _check_empty_reduction(
        self, call: ast.Call, name: str, operand_expr: ast.expr,
        operand: ArrayValue, axis: int | None,
    ) -> None:
        risky = self._reduced_dim_risky(operand, axis)
        if risky is False:
            return
        if risky is None:
            # Unknown shape: only externally-sourced data (parameters,
            # object state) is worth reporting — locals of unknown shape
            # from arbitrary arithmetic would drown the rule in noise.
            sourced = any(
                label.startswith(("param:", "attr:"))
                for label in operand.aliases
            )
            if not sourced:
                return
        guard_names = _names_in(operand_expr)
        if self._guarded(guard_names):
            return
        self._emit(
            "empty-reduce", call,
            f"`{name}` over a possibly-empty array "
            f"(shape {format_shape(operand.shape)}): an empty operand "
            "raises ValueError at runtime; guard with a size check "
            "(`if len(x) == 0: ...` / `.size`) that dominates this "
            "reduction",
        )


# ----------------------------------------------------------------------
# Project-level driver
# ----------------------------------------------------------------------
class ArrayAnalysis:
    """Per-project array-semantics analysis, shared by the RL-N rules.

    Built once per lint run (memoised on the
    :class:`~repro.lint.project.ProjectModel` like
    :meth:`~repro.lint.callgraph.CallGraph.of`); events are computed
    lazily per module so ``--select`` runs that skip the pack pay
    nothing, and function summaries are cached with an in-progress
    sentinel so call cycles terminate at top.
    """

    #: Sentinel marking a summary currently being computed (call cycle).
    _IN_PROGRESS = object()

    def __init__(self, project: "ProjectModel") -> None:
        self.project = project
        self._events: dict[str, list[ArrayEvent]] = {}
        self._summaries: dict[str, object] = {}

    @classmethod
    def of(cls, project: "ProjectModel") -> "ArrayAnalysis":
        cached = getattr(project, "_array_analysis", None)
        if cached is None:
            cached = cls(project)
            project._array_analysis = cached
        return cached

    # -- gating --------------------------------------------------------
    @staticmethod
    def _numpy_names(record: "ModuleRecord") -> set[str]:
        names = {
            alias
            for alias, module in record.ctx.module_aliases.items()
            if module == "numpy" or module.startswith("numpy.")
        }
        names |= {
            bound
            for bound, (module, _orig) in record.ctx.imported_names.items()
            if module == "numpy" or module.startswith("numpy.")
        }
        return names

    def _function_uses_numpy(
        self, info: FunctionInfo, numpy_names: set[str]
    ) -> bool:
        for node in info.scope_nodes:
            if isinstance(node, ast.Name) and node.id in numpy_names:
                return True
        for param in [
            *info.node.args.posonlyargs, *info.node.args.args,
            *info.node.args.kwonlyargs,
        ]:
            annotation = param.annotation
            if annotation is not None:
                resolved = info.record.ctx.resolve_call_name(annotation)
                if resolved is not None and resolved.startswith("numpy."):
                    return True
        return False

    # -- events --------------------------------------------------------
    def events(self, record: "ModuleRecord") -> list[ArrayEvent]:
        """All array-semantics events of one module (computed lazily)."""
        cached = self._events.get(record.name)
        if cached is not None:
            return cached
        events: list[ArrayEvent] = []
        numpy_names = self._numpy_names(record)
        if numpy_names:
            graph = CallGraph.of(self.project)
            infos = sorted(
                (
                    info
                    for info in graph.functions.values()
                    if info.record is record
                ),
                key=lambda info: info.key,
            )
            for info in infos:
                if not self._function_uses_numpy(info, numpy_names):
                    continue
                events.extend(self._function_events(info))
        self._events[record.name] = events
        return events

    def _function_events(self, info: FunctionInfo) -> list[ArrayEvent]:
        interp = _Interp(self, info)
        cfg = build_cfg(info.node)
        in_sets, _out = cfg.forward_may(interp.transfer, init=interp.seed_env())
        # Reporting pass: one evaluation per statement with its final
        # in-state, so each hazard is emitted exactly once per site.
        interp.reporting = True
        for node in cfg.statement_nodes():
            if node.stmt is not None:
                interp.transfer(node.stmt, in_sets[node.id])
        return interp.events

    # -- summaries -----------------------------------------------------
    def summary_of(self, info: FunctionInfo) -> FunctionSummary:
        """Return-value summary of one project function (cached)."""
        cached = self._summaries.get(info.key)
        if cached is self._IN_PROGRESS:
            return _TOP_SUMMARY  # call cycle: converge at top
        if cached is not None:
            return cached  # type: ignore[return-value]
        self._summaries[info.key] = self._IN_PROGRESS
        try:
            summary = self._compute_summary(info)
        finally:
            self._summaries.pop(info.key, None)
        self._summaries[info.key] = summary
        return summary

    def _compute_summary(self, info: FunctionInfo) -> FunctionSummary:
        interp = _Interp(self, info)
        cfg = build_cfg(info.node)
        in_sets, _out = cfg.forward_may(interp.transfer, init=interp.seed_env())
        args = info.node.args
        param_names = [
            param.arg
            for param in [*args.posonlyargs, *args.args, *args.kwonlyargs]
        ]
        result: ArrayValue | None = None
        for node in cfg.statement_nodes():
            stmt = node.stmt
            if not isinstance(stmt, ast.Return) or stmt.value is None:
                continue
            env = in_sets[node.id]
            if not isinstance(env, Env):
                env = Env()
            interp._stmt = stmt
            value = interp._eval(stmt.value, env)
            result = value if result is None else result.join(value)
        if result is None:
            return _TOP_SUMMARY
        param_aliases = tuple(
            index
            for index, name in enumerate(param_names)
            if f"param:{name}" in result.aliases
        )
        return FunctionSummary(
            dtype=result.dtype,
            shape=_export_shape(result.shape),
            param_aliases=param_aliases,
            is_array=result.is_array,
            is_view=result.is_view,
        )


def iter_module_events(
    project: "ProjectModel", record: "ModuleRecord", kind: str
) -> Iterator[ArrayEvent]:
    """Events of one kind for one module — the rule-facing entry point."""
    for event in ArrayAnalysis.of(project).events(record):
        if event.kind == kind:
            yield event
