"""Compiled simulation: shared analysis, runtime and caches.

The interpreter (:mod:`repro.sim.engine`) re-resolves names and re-walks
expression trees on every delta cycle.  The compiled backend instead
lowers an elaborated :class:`~repro.sim.elaborate.Design` **once**:
:mod:`repro.sim.codegen` emits an importable Python module per design,
and this module holds everything around that emitter:

* the **static analysis** the emitter asks about a design (:class:`_Lower`:
  flat signal slots, signedness, lvalue widths, statically precomputed
  sensitivity and dependency sets, and the step-budget cost model);
* the **runtime** that drives an emitted module
  (:class:`CompiledSimulator`): scheduler state kept in per-slot arrays
  (``list`` indexed by signal slot) instead of the interpreter's
  name-keyed dicts of ``_Waiter`` objects, and the common RTL shape —
  ``always @(edges) <delay-free body>`` — run as a *reactive* process
  re-armed on static ``(slot, edge)`` watch entries, with no generator
  machinery at all;
* the content-keyed **caches** (:class:`CompiledDesignCache`) and the
  per-thread :class:`BackendStats` counters.

Semantics mirror the interpreter branch-for-branch — the differential
fuzz harness (``tests/test_sim_differential.py``) and the golden-trace
suite assert that final signal states, ``$display`` transcripts and VCD
dumps are identical.  Anything the analysis or the emitter cannot
handle faithfully raises :class:`CompileUnsupported`, and the caller
(:func:`repro.sim.run_simulation`) falls back to the interpreter; the
fallback is counted in :func:`backend_stats` and its verdict persisted.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
import heapq
import json
import os
import sys
import threading

from ..scale.cache import LRUCache, ManifestCache
from ..verilog import ast
from ..verilog.errors import VerilogError
from . import values as V
from .elaborate import Design, ElaborationError, Signal, const_eval
from .engine import SimulationError, SimulationTimeout, Simulator, _Finish

#: Bump when lowering rules or runtime semantics change; invalidates
#: every cached compile verdict and in-memory artefact.
SIM_COMPILE_VERSION = 1

_case_match = Simulator._case_match


class CompileUnsupported(Exception):
    """The compiled backend cannot lower this design faithfully.

    Raised at lowering time only — by the shared analysis on a construct
    it cannot handle, or by the emitter past its generated-code size
    caps.  Either verdict depends only on the design source, so it is
    persisted like any other; the simulation then falls back to the
    interpreter, which either supports the design or reports the same
    :class:`SimulationError` the interpreter always did.
    """


# --------------------------------------------------------------------------
# Backend accounting (fallbacks are counted and reported)
# --------------------------------------------------------------------------

@dataclass
class BackendStats:
    """Per-thread accounting of backend selection.

    Counters are kept *per thread* (and therefore per process) so
    concurrent pool workers never race on them; callers that fan work
    out aggregate the per-item :meth:`delta_since` snapshots back
    through their result stream (see ``repro.eval.engine``), which is
    exact regardless of pool type.
    """

    #: Keep the per-reason dict bounded — reasons can embed design
    #: details, and a long sweep must not grow it without limit.
    MAX_REASONS = 64

    _COUNTERS = ("compiled_runs", "interp_runs", "fallbacks",
                 "compiles", "cache_hits", "codegen_hits",
                 "codegen_misses")

    compiled_runs: int = 0        #: simulations served by the codegen backend
    interp_runs: int = 0          #: simulations explicitly run interpreted
    fallbacks: int = 0            #: codegen requests that fell back
    compiles: int = 0             #: module-emission passes executed
    cache_hits: int = 0           #: loaded-artefact cache hits (in-memory)
    codegen_hits: int = 0         #: generated-source disk-cache hits
    codegen_misses: int = 0       #: generated-source disk-cache misses
    fallback_reasons: dict[str, int] = field(default_factory=dict)

    def record_fallback(self, reason: str) -> None:
        self.fallbacks += 1
        if reason not in self.fallback_reasons and \
                len(self.fallback_reasons) >= self.MAX_REASONS:
            reason = "other"
        self.fallback_reasons[reason] = \
            self.fallback_reasons.get(reason, 0) + 1

    def copy(self) -> "BackendStats":
        """A detached snapshot of the current counters."""
        return BackendStats(
            **{name: getattr(self, name) for name in self._COUNTERS},
            fallback_reasons=dict(self.fallback_reasons))

    def delta_since(self, before: "BackendStats") -> "BackendStats":
        """Counter increments since a :meth:`copy` snapshot."""
        delta = BackendStats(
            **{name: getattr(self, name) - getattr(before, name)
               for name in self._COUNTERS})
        for reason, count in self.fallback_reasons.items():
            diff = count - before.fallback_reasons.get(reason, 0)
            if diff:
                delta.fallback_reasons[reason] = diff
        return delta

    def add(self, other: "BackendStats") -> None:
        """Accumulate another stats object (e.g. a worker delta)."""
        for name in self._COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for reason, count in sorted(other.fallback_reasons.items()):
            if reason not in self.fallback_reasons and \
                    len(self.fallback_reasons) >= self.MAX_REASONS:
                reason = "other"
            self.fallback_reasons[reason] = \
                self.fallback_reasons.get(reason, 0) + count

    @property
    def total_runs(self) -> int:
        return self.compiled_runs + self.interp_runs

    def summary(self) -> str:
        return (f"sim backend: {self.compiled_runs} compiled / "
                f"{self.interp_runs} interpreted / "
                f"{self.fallbacks} fallback(s), "
                f"{self.compiles} compile(s), "
                f"{self.cache_hits} cache hit(s), "
                f"{self.codegen_hits}/{self.codegen_misses} "
                f"gen-source hit/miss")


_STATS_LOCAL = threading.local()


def backend_stats() -> BackendStats:
    """The live backend counters of the *calling thread*."""
    stats = getattr(_STATS_LOCAL, "stats", None)
    if stats is None:
        stats = _STATS_LOCAL.stats = BackendStats()
    return stats


def reset_backend_stats() -> None:
    """Test hook: zero the calling thread's backend counters."""
    _STATS_LOCAL.stats = BackendStats()


# --------------------------------------------------------------------------
# Static analysis: scopes, name resolution, costs (compile-time only)
# --------------------------------------------------------------------------

class _Scope:
    """Compile-time name resolution: module scope + optional fn locals."""

    __slots__ = ("low", "prefix", "module", "locals", "local_widths")

    def __init__(self, low: "_Lower", prefix: str, module: ast.Module,
                 locals_map: dict[str, int] | None = None,
                 local_widths: dict[str, int] | None = None):
        self.low = low
        self.prefix = prefix
        self.module = module
        self.locals = locals_map
        self.local_widths = local_widths

    def resolve(self, name: str) -> tuple[int, Signal] | None:
        signal = self.low.design.signals.get(self.prefix + name)
        if signal is None:
            return None
        return self.low.slots[signal.name], signal

    def params(self) -> dict[str, V.Value]:
        return self.low.design.params.get(self.prefix, {})

    def fn_scope(self, locals_map, local_widths) -> "_Scope":
        return _Scope(self.low, self.prefix, self.module,
                      locals_map, local_widths)


class _Lower:
    """Static analysis of one Design, answered for the emitter.

    Slots, signedness, lvalue widths, step-budget costs and the
    sensitivity/dependency sets live here so the questions the emitted
    code depends on have exactly one answer.
    """

    def __init__(self, design: Design):
        self.design = design
        self.names: list[str] = list(design.signals)
        self.slots: dict[str, int] = {n: i for i, n in
                                      enumerate(self.names)}
        self.signals: list[Signal] = [design.signals[n]
                                      for n in self.names]
        self._fn_costs: dict[tuple[str, str], int] = {}

    # -- signedness (static twin of Simulator._is_signed) ----------------

    def _is_signed(self, expr: ast.Expr, scope: _Scope) -> bool:
        if isinstance(expr, ast.Number):
            return "'" not in expr.text or expr.signed
        if isinstance(expr, ast.Identifier):
            resolved = scope.resolve(expr.name)
            if resolved is not None:
                signal = resolved[1]
                return signal.signed or signal.kind == "integer"
            return True   # parameters: treat as signed integers
        if isinstance(expr, ast.Unary) and expr.op in ("+", "-"):
            return self._is_signed(expr.operand, scope)
        if isinstance(expr, ast.Binary) and expr.op in ("+", "-", "*",
                                                        "/", "%"):
            return (self._is_signed(expr.left, scope)
                    and self._is_signed(expr.right, scope))
        if isinstance(expr, ast.FunctionCall) and expr.name == "$signed":
            return True
        return False

    def _lvalue_width(self, expr: ast.Expr, scope: _Scope) -> int | None:
        """Static width of an assignment target part, or None."""
        if isinstance(expr, ast.Identifier):
            if scope.locals is not None and expr.name in scope.locals:
                return scope.local_widths[expr.name]
            resolved = scope.resolve(expr.name)
            return resolved[1].width if resolved is not None else None
        if isinstance(expr, ast.Index):
            if isinstance(expr.base, ast.Identifier):
                resolved = scope.resolve(expr.base.name)
                if resolved is not None and resolved[1].is_array:
                    return resolved[1].width
            return 1
        if isinstance(expr, ast.PartSelect):
            params = scope.params()
            try:
                if expr.mode == ":":
                    msb = const_eval(expr.msb, params).to_int()
                    lsb = const_eval(expr.lsb, params).to_int()
                    return abs(msb - lsb) + 1
                return const_eval(expr.lsb, params).to_int()
            except (ElaborationError, VerilogError):
                return None
        if isinstance(expr, ast.Concat):
            widths = [self._lvalue_width(p, scope) for p in expr.parts]
            if any(w is None for w in widths):
                return None
            return sum(widths)
        return None

    # -- step-budget cost model -------------------------------------------

    # The interpreter charges one step per eval() node and per _exec()
    # statement; the compiled runtime walks no trees, so loops and
    # activations charge these statically computed costs instead.  The
    # costs are designed to be >= the interpreter's charge for one pass
    # (branch costs take the max arm, label lists the full sum), so a
    # design near the budget times out on the compiled backend no later
    # than on the interpreter — and a compiled-side timeout falls back
    # to the interpreter for the authoritative verdict.

    _RECURSIVE_FN_COST = 25

    def _fn_cost(self, name: str, scope: _Scope) -> int:
        key = (scope.prefix, name)
        cached = self._fn_costs.get(key)
        if cached is not None:
            return cached if cached > 0 else self._RECURSIVE_FN_COST
        fn = self.design.functions.get(scope.prefix, {}).get(name)
        if fn is None or fn.body is None:
            return 1
        self._fn_costs[key] = -1          # in-progress marker
        cost = 1 + self._stmt_cost(fn.body, scope)
        self._fn_costs[key] = cost
        return cost

    def _expr_cost(self, expr: ast.Expr | None, scope: _Scope) -> int:
        if expr is None:
            return 0
        cost = 1
        if isinstance(expr, ast.Unary):
            cost += self._expr_cost(expr.operand, scope)
        elif isinstance(expr, ast.Binary):
            cost += self._expr_cost(expr.left, scope) + \
                self._expr_cost(expr.right, scope)
        elif isinstance(expr, ast.Ternary):
            cost += self._expr_cost(expr.cond, scope) + \
                max(self._expr_cost(expr.if_true, scope),
                    self._expr_cost(expr.if_false, scope))
        elif isinstance(expr, (ast.Concat,)):
            cost += sum(self._expr_cost(p, scope) for p in expr.parts)
        elif isinstance(expr, ast.Repl):
            cost += self._expr_cost(expr.count, scope) + \
                sum(self._expr_cost(p, scope) for p in expr.parts)
        elif isinstance(expr, ast.Index):
            cost += self._expr_cost(expr.base, scope) + \
                self._expr_cost(expr.index, scope)
        elif isinstance(expr, ast.PartSelect):
            cost += self._expr_cost(expr.base, scope) + \
                self._expr_cost(expr.msb, scope) + \
                self._expr_cost(expr.lsb, scope)
        elif isinstance(expr, ast.FunctionCall):
            cost += sum(self._expr_cost(a, scope) for a in expr.args)
            if not expr.is_system:
                cost += self._fn_cost(expr.name, scope)
        return cost

    def _stmt_cost(self, stmt: ast.Stmt | None, scope: _Scope) -> int:
        """Steps the interpreter charges for one straight-line pass.

        Nested loops contribute only their entry cost — their bodies
        self-charge per iteration at runtime.
        """
        if stmt is None or not isinstance(stmt, ast.Stmt):
            return 1
        cost = 1
        if isinstance(stmt, ast.Block):
            cost += sum(self._stmt_cost(c, scope) for c in stmt.stmts
                        if isinstance(c, ast.Stmt))
        elif isinstance(stmt, (ast.BlockingAssign, ast.NonBlockingAssign)):
            cost += self._expr_cost(stmt.rhs, scope) + \
                self._expr_cost(stmt.delay, scope)
            lhs = stmt.lhs
            if isinstance(lhs, ast.Index):
                cost += self._expr_cost(lhs.index, scope)
            elif isinstance(lhs, ast.PartSelect):
                cost += self._expr_cost(lhs.msb, scope) + \
                    self._expr_cost(lhs.lsb, scope)
        elif isinstance(stmt, ast.IfStmt):
            cost += self._expr_cost(stmt.cond, scope) + \
                max(self._stmt_cost(stmt.then_stmt, scope),
                    self._stmt_cost(stmt.else_stmt, scope))
        elif isinstance(stmt, ast.CaseStmt):
            cost += self._expr_cost(stmt.expr, scope)
            cost += sum(self._expr_cost(e, scope)
                        for item in stmt.items for e in item.exprs)
            if stmt.items:
                cost += max(self._stmt_cost(item.stmt, scope)
                            for item in stmt.items)
        elif isinstance(stmt, ast.ForStmt):
            cost += self._stmt_cost(stmt.init, scope) + \
                self._expr_cost(stmt.cond, scope)
        elif isinstance(stmt, ast.WhileStmt):
            cost += self._expr_cost(stmt.cond, scope)
        elif isinstance(stmt, ast.RepeatStmt):
            cost += self._expr_cost(stmt.count, scope)
        elif isinstance(stmt, (ast.DelayStmt, ast.EventControlStmt)):
            cost += self._stmt_cost(stmt.stmt, scope) if stmt.stmt \
                else 0
            if isinstance(stmt, ast.DelayStmt):
                cost += self._expr_cost(stmt.delay, scope)
        elif isinstance(stmt, ast.WaitStmt):
            cost += self._expr_cost(stmt.cond, scope) + \
                (self._stmt_cost(stmt.stmt, scope) if stmt.stmt else 0)
        elif isinstance(stmt, ast.SysTaskCall):
            cost += sum(self._expr_cost(a, scope) for a in stmt.args
                        if not isinstance(a, ast.StringLiteral))
        return cost

    def _loop_cost(self, stmt, scope: _Scope) -> int:
        """Per-iteration charge for a loop statement."""
        if isinstance(stmt, ast.ForStmt):
            return (self._expr_cost(stmt.cond, scope)
                    + self._stmt_cost(stmt.body, scope)
                    + self._stmt_cost(stmt.step, scope))
        if isinstance(stmt, ast.WhileStmt):
            return (self._expr_cost(stmt.cond, scope)
                    + self._stmt_cost(stmt.body, scope))
        if isinstance(stmt, ast.RepeatStmt):
            return self._stmt_cost(stmt.body, scope)
        # forever: the interpreter adds a flat 50 on top of the body.
        return self._stmt_cost(stmt.body, scope) + 50

    # -- sensitivity / dependency analysis --------------------------------

    def _sens_entries(self, senslist: ast.SensList, scope: _Scope):
        """Static (slot, edge) watch entries for an explicit senslist."""
        if senslist.is_star:
            # @(*) below the top level of an always body: the interpreter
            # reports this at runtime; we cannot know the reads here.
            raise CompileUnsupported("@(*) below process top level")
        entries = []
        for item in senslist.items:
            signal_expr = item.signal
            if isinstance(signal_expr, ast.Identifier):
                resolved = scope.resolve(signal_expr.name)
                if resolved is None:
                    raise CompileUnsupported(
                        f"sensitivity on undeclared identifier "
                        f"'{signal_expr.name}'")
                slot, signal = resolved
            elif isinstance(signal_expr, ast.HierarchicalId):
                name = ".".join(signal_expr.parts)
                sig = self.design.signals.get(scope.prefix + name) or \
                    self.design.signals.get(name)
                if sig is None:
                    raise CompileUnsupported(
                        f"sensitivity on unknown hierarchical name "
                        f"'{name}'")
                slot, signal = self.slots[sig.name], sig
            else:
                raise CompileUnsupported(
                    "non-identifier sensitivity expression")
            if signal.is_array:
                raise CompileUnsupported(
                    f"sensitivity on memory '{signal.name}'")
            entries.append((slot, item.edge))
        if not entries:
            raise CompileUnsupported("event control with no signals")
        return _WatchSpec(entries, self.names, self.signals)

    def _expr_dep_slots(self, expr: ast.Expr, scope: _Scope,
                        acc: dict[int, None] | None = None) -> tuple:
        """Slots an expression reads — static twin of the interpreter's
        ``_expr_deps`` (including reads inside called function bodies)."""
        top = acc is None
        if acc is None:
            acc = {}
        if isinstance(expr, ast.Identifier):
            if scope.locals is not None and expr.name in scope.locals:
                pass
            else:
                resolved = scope.resolve(expr.name)
                if resolved is not None:
                    acc[resolved[0]] = None
        elif isinstance(expr, ast.HierarchicalId):
            name = ".".join(expr.parts)
            sig = self.design.signals.get(scope.prefix + name) or \
                self.design.signals.get(name)
            if sig is not None:
                acc[self.slots[sig.name]] = None
        elif isinstance(expr, ast.Unary):
            self._expr_dep_slots(expr.operand, scope, acc)
        elif isinstance(expr, ast.Binary):
            self._expr_dep_slots(expr.left, scope, acc)
            self._expr_dep_slots(expr.right, scope, acc)
        elif isinstance(expr, ast.Ternary):
            self._expr_dep_slots(expr.cond, scope, acc)
            self._expr_dep_slots(expr.if_true, scope, acc)
            self._expr_dep_slots(expr.if_false, scope, acc)
        elif isinstance(expr, ast.Concat):
            for part in expr.parts:
                self._expr_dep_slots(part, scope, acc)
        elif isinstance(expr, ast.Repl):
            self._expr_dep_slots(expr.count, scope, acc)
            for part in expr.parts:
                self._expr_dep_slots(part, scope, acc)
        elif isinstance(expr, ast.Index):
            self._expr_dep_slots(expr.base, scope, acc)
            self._expr_dep_slots(expr.index, scope, acc)
        elif isinstance(expr, ast.PartSelect):
            self._expr_dep_slots(expr.base, scope, acc)
            self._expr_dep_slots(expr.msb, scope, acc)
            self._expr_dep_slots(expr.lsb, scope, acc)
        elif isinstance(expr, ast.FunctionCall):
            for arg in expr.args:
                self._expr_dep_slots(arg, scope, acc)
            if not expr.is_system:
                fn = self.design.functions.get(scope.prefix, {}) \
                    .get(expr.name)
                if fn is not None and fn.body is not None:
                    self._stmt_read_slots(fn.body, scope, acc)
        if top:
            return tuple(acc)
        return ()

    def _stmt_read_slots(self, stmt: ast.Stmt, scope: _Scope,
                         acc: dict[int, None]) -> None:
        """Static twin of the interpreter's ``_stmt_reads``."""
        if isinstance(stmt, ast.Block):
            for child in stmt.stmts:
                if isinstance(child, ast.Stmt):
                    self._stmt_read_slots(child, scope, acc)
        elif isinstance(stmt, (ast.BlockingAssign, ast.NonBlockingAssign)):
            self._expr_dep_slots(stmt.rhs, scope, acc)
            lhs = stmt.lhs
            if isinstance(lhs, ast.Index):
                self._expr_dep_slots(lhs.index, scope, acc)
            elif isinstance(lhs, ast.PartSelect):
                self._expr_dep_slots(lhs.msb, scope, acc)
                self._expr_dep_slots(lhs.lsb, scope, acc)
        elif isinstance(stmt, ast.IfStmt):
            self._expr_dep_slots(stmt.cond, scope, acc)
            if stmt.then_stmt:
                self._stmt_read_slots(stmt.then_stmt, scope, acc)
            if stmt.else_stmt:
                self._stmt_read_slots(stmt.else_stmt, scope, acc)
        elif isinstance(stmt, ast.CaseStmt):
            self._expr_dep_slots(stmt.expr, scope, acc)
            for item in stmt.items:
                for expr in item.exprs:
                    self._expr_dep_slots(expr, scope, acc)
                if item.stmt:
                    self._stmt_read_slots(item.stmt, scope, acc)
        elif isinstance(stmt, ast.ForStmt):
            self._expr_dep_slots(stmt.cond, scope, acc)
            self._stmt_read_slots(stmt.init, scope, acc)
            self._stmt_read_slots(stmt.step, scope, acc)
            self._stmt_read_slots(stmt.body, scope, acc)
        elif isinstance(stmt, ast.WhileStmt):
            self._expr_dep_slots(stmt.cond, scope, acc)
            self._stmt_read_slots(stmt.body, scope, acc)
        elif isinstance(stmt, ast.RepeatStmt):
            self._expr_dep_slots(stmt.count, scope, acc)
            self._stmt_read_slots(stmt.body, scope, acc)
        elif isinstance(stmt, ast.ForeverStmt):
            self._stmt_read_slots(stmt.body, scope, acc)
        elif isinstance(stmt, (ast.DelayStmt, ast.EventControlStmt,
                               ast.WaitStmt)):
            if stmt.stmt:
                self._stmt_read_slots(stmt.stmt, scope, acc)
        elif isinstance(stmt, ast.SysTaskCall):
            for arg in stmt.args:
                if not isinstance(arg, ast.StringLiteral):
                    self._expr_dep_slots(arg, scope, acc)

    def _star_entries(self, body: ast.EventControlStmt, scope: _Scope):
        """Expand @(*) into level entries over every signal the body
        reads — the static twin of ``_prepare_star_processes``."""
        reads: dict[int, None] = {}
        if body.stmt is not None:
            self._stmt_read_slots(body.stmt, scope, reads)
        if not reads:
            raise CompileUnsupported("@(*) with an empty read set")
        names = sorted(self.names[slot] for slot in reads)
        entries = []
        for name in names:
            signal = self.design.signals[name]
            if signal.is_array:
                raise CompileUnsupported(
                    f"sensitivity on memory '{name}'")
            entries.append((self.slots[name], None))
        return _WatchSpec(entries, self.names, self.signals)


def _needs_coroutine(stmt: ast.Stmt | None) -> bool:
    """True when executing ``stmt`` may suspend the process."""
    if stmt is None:
        return False
    if isinstance(stmt, (ast.DelayStmt, ast.EventControlStmt,
                         ast.WaitStmt)):
        return True
    if isinstance(stmt, ast.BlockingAssign):
        return stmt.delay is not None
    if isinstance(stmt, ast.Block):
        return any(_needs_coroutine(c) for c in stmt.stmts
                   if isinstance(c, ast.Stmt))
    if isinstance(stmt, ast.IfStmt):
        return _needs_coroutine(stmt.then_stmt) or \
            _needs_coroutine(stmt.else_stmt)
    if isinstance(stmt, ast.CaseStmt):
        return any(_needs_coroutine(item.stmt) for item in stmt.items)
    if isinstance(stmt, (ast.ForStmt, ast.WhileStmt, ast.RepeatStmt,
                         ast.ForeverStmt)):
        return _needs_coroutine(stmt.body)
    return False


# --------------------------------------------------------------------------
# Compiled artefacts
# --------------------------------------------------------------------------

class _CAssign:
    __slots__ = ("rhs", "writer", "deps", "label", "index", "cost")

    def __init__(self, rhs, writer, deps, label, cost=1):
        self.rhs = rhs
        self.writer = writer
        self.deps = deps
        self.label = label
        self.index = -1
        self.cost = cost


class _CReactive:
    __slots__ = ("body", "entries", "label", "cost")

    def __init__(self, body, entries, label, cost=1):
        self.body = body
        self.entries = entries
        self.label = label
        self.cost = cost


class _CCoroutine:
    __slots__ = ("genfunc", "label")

    def __init__(self, genfunc, label):
        self.genfunc = genfunc
        self.label = label


class _CState:
    """A live coroutine process in one simulation run."""

    __slots__ = ("gen", "label")

    def __init__(self, gen, label):
        self.gen = gen
        self.label = label


class _CWaiter:
    """A parked process: static per-slot edge sets, fired flag."""

    __slots__ = ("event", "edges", "fired")

    def __init__(self, event, edges):
        self.event = event           # ("resume", state) | ("react", proc)
        self.edges = edges           # slot -> tuple of edges
        self.fired = False


class _WatchSpec:
    """Statically precomputed sensitivity: per-slot edge sets.

    Built once at lowering time so parking a process allocates only the
    :class:`_CWaiter` itself — no per-cycle dict building.
    ``array_name`` marks a dependency on a memory, which the interpreter
    reports when it evaluates the sensitivity item; parking raises the
    same error.
    """

    __slots__ = ("edges", "slots", "array_name")

    def __init__(self, entries, names, signals):
        edges: dict[int, list] = {}
        self.array_name = None
        for slot, edge in entries:
            if signals[slot].is_array and self.array_name is None:
                self.array_name = names[slot]
            edges.setdefault(slot, []).append(edge)
        self.edges = {slot: tuple(items) for slot, items in edges.items()}
        self.slots = tuple(self.edges)


@dataclass
class CompiledDesign:
    """A Design lowered by the codegen backend — the object a loaded
    generated module builds; reusable across simulation runs."""

    design: Design
    top: str
    names: list[str]
    slots: dict[str, int]
    init_store: list[V.Value]
    array_slots: tuple[int, ...]
    procs: list
    stats: dict

    def simulator(self, max_delta: int = 50_000,
                  step_budget: int = 5_000_000) -> "CompiledSimulator":
        return CompiledSimulator(self, max_delta=max_delta,
                                 step_budget=step_budget)


# --------------------------------------------------------------------------
# Runtime
# --------------------------------------------------------------------------

class CompiledSimulator:
    """Execute a :class:`CompiledDesign` with interpreter-identical
    scheduling (stratified active/NBA regions, delta limits)."""

    def __init__(self, compiled: CompiledDesign, max_delta: int = 50_000,
                 step_budget: int = 5_000_000):
        self.compiled = compiled
        self.design = compiled.design
        self.time = 0
        self.finished = False
        self.display_lines: list[str] = []
        self.tracer = None
        self._steps = 0
        self._step_budget = step_budget
        self._max_delta = max_delta
        self._delta = 0
        self._current_label: str | None = None
        self._heap: list[tuple[int, int, object]] = []
        self._seq = 0
        self._active: deque = deque()
        self._nba: list = []
        self._rand_state = 0x2545F491
        self.store: list[V.Value] = list(compiled.init_store)
        self.arrays: dict[int, dict[int, V.Value]] = {
            slot: {} for slot in compiled.array_slots}
        n = len(self.store)
        self._assign_watchers: list[list] = [[] for _ in range(n)]
        self._slot_waiters: list[list] = [[] for _ in range(n)]
        self._assigns: list[_CAssign] = []
        self._assign_pending: set[int] = set()
        self._build()

    # -- construction ----------------------------------------------------

    def _build(self) -> None:
        for proc in self.compiled.procs:
            if isinstance(proc, _CAssign):
                self._assigns.append(proc)
                for slot in proc.deps:
                    self._assign_watchers[slot].append(proc.index)
                self._assign_pending.add(proc.index)
                self._active.append(("assign", proc.index))
            elif isinstance(proc, _CReactive):
                # Arm through the event queue so processes scheduled
                # before this one can fire events it must not yet see —
                # exactly like the interpreter's first generator resume.
                self._active.append(("arm", proc))
            else:
                state = _CState(proc.genfunc(self), proc.label)
                self._active.append(("resume", state))
        # Interned per-assign event tuples: set_slot re-queues these on
        # every dependency change instead of allocating fresh 2-tuples.
        self._assign_events = [("assign", proc.index)
                               for proc in self._assigns]

    # -- budget ----------------------------------------------------------

    def charge(self, n: int = 1) -> None:
        self._steps += n
        if self._steps > self._step_budget:
            raise SimulationTimeout("simulation step budget exhausted",
                                    process=self._current_label,
                                    delta=self._delta)

    def charge_always(self, cost: int = 51) -> None:
        self._steps += cost
        if self._steps > self._step_budget:
            raise SimulationTimeout(
                "always block without delay or event control",
                process=self._current_label, delta=self._delta)

    # -- signal store ----------------------------------------------------

    def set_slot(self, slot: int, value: V.Value) -> None:
        old = self.store[slot]
        # Inlined Value.__eq__ — this is the hottest comparison in the
        # runtime (every write of every signal).
        if old.val == value.val and old.xz == value.xz \
                and old.width == value.width:
            return
        self.store[slot] = value
        if self.tracer is not None:
            self.tracer.record(self.compiled.names[slot], self.time,
                               value)
        # Notify logic inlined (formerly _notify): this runs on nearly
        # every slot write, and the call overhead alone was measurable.
        watchers = self._assign_watchers[slot]
        if watchers:
            pending = self._assign_pending
            active = self._active
            events = self._assign_events
            for index in watchers:
                if index not in pending:
                    pending.add(index)
                    active.append(events[index])
        waiters = self._slot_waiters[slot]
        if not waiters:
            return
        # Inlined edge detection over the canonical (val, xz) encoding:
        # bit0 is '1' iff val&1 (xz bits of val are zeroed), 'x' iff
        # xz&1.  Semantics identical to format.edge_fired, which the
        # differential harness pins.
        prev1 = old.val & 1
        prevx = old.xz & 1
        new1 = value.val & 1
        newx = value.xz & 1
        still = []
        active = self._active
        for waiter in waiters:
            if waiter.fired:
                continue
            fired = False
            for edge in waiter.edges[slot]:
                if edge is None:
                    fired = True          # any change (old != new here)
                    break
                if edge == "posedge":
                    if (new1 and not prev1) or \
                            (newx and not prev1 and not prevx):
                        fired = True
                        break
                elif (not new1 and not newx and (prev1 or prevx)) or \
                        (newx and prev1):
                    fired = True          # negedge
                    break
            if fired:
                waiter.fired = True
                active.append(waiter.event)
            else:
                still.append(waiter)
        self._slot_waiters[slot] = still

    def set_element(self, slot: int, index: int, value: V.Value) -> None:
        array = self.arrays[slot]
        signal = self.design.signals[self.compiled.names[slot]]
        if array.get(index, V.Value.unknown(signal.width)) == value:
            return
        array[index] = value
        self._notify_array(slot)

    def _notify_array(self, slot: int) -> None:
        for index in self._assign_watchers[slot]:
            if index not in self._assign_pending:
                self._assign_pending.add(index)
                self._active.append(("assign", index))
        if self._slot_waiters[slot]:
            # The interpreter re-evaluates sensitivity items on notify;
            # an identifier item naming a memory raises there.
            name = self.compiled.names[slot]
            raise SimulationError(
                f"memory '{name}' used without an index")

    # -- scheduler -------------------------------------------------------

    def _schedule(self, delay: int, action) -> None:
        self._seq += 1
        heapq.heappush(self._heap,
                       (self.time + (delay if delay > 0 else 0),
                        self._seq, action))

    def schedule_nba(self, ticks: int, writer, value, frame) -> None:
        self._schedule(ticks, ("nba_future", (writer, value, frame)))

    def _park(self, spec: _WatchSpec, event) -> None:
        if spec.array_name is not None:
            raise SimulationError(
                f"memory '{spec.array_name}' used without an index")
        waiter = _CWaiter(event, spec.edges)
        waiters = self._slot_waiters
        for slot in spec.slots:
            waiters[slot].append(waiter)

    def run(self, max_time: int = 1_000_000) -> None:
        """Run until $finish, event exhaustion, or ``max_time``."""
        active = self._active
        max_delta = self._max_delta
        step_budget = self._step_budget
        while True:
            delta = 0
            while active or self._nba:
                while active:
                    delta += 1
                    self._delta = delta
                    if delta > max_delta:
                        raise SimulationTimeout(
                            f"delta overflow at time {self.time}",
                            process=self._current_label, delta=delta)
                    event = active.popleft()
                    if self.finished:
                        return
                    kind = event[0]
                    if kind == "assign":
                        proc = self._assigns[event[1]]
                        self._current_label = proc.label
                        self._assign_pending.discard(event[1])
                        self._steps += proc.cost
                        if self._steps > step_budget:
                            raise SimulationTimeout(
                                "simulation step budget exhausted",
                                process=proc.label, delta=delta)
                        proc.writer(self, None, proc.rhs(self, None))
                    elif kind == "resume":
                        state = event[1]
                        self._current_label = state.label
                        try:
                            request = next(state.gen)
                        except (StopIteration, _Finish):
                            continue
                        # Re-park/reschedule with the *same* event tuple
                        # — identical content, one allocation per
                        # process instead of one per suspension.
                        if request[0] == "delay":
                            self._schedule(request[1], event)
                        else:   # ("wait", spec)
                            self._park(request[1], event)
                    elif kind == "react":
                        proc = event[1]
                        self._current_label = proc.label
                        self._steps += proc.cost
                        if self._steps > step_budget:
                            raise SimulationTimeout(
                                "simulation step budget exhausted",
                                process=proc.label, delta=delta)
                        try:
                            if proc.body is not None:
                                proc.body(self, None)
                        except _Finish:
                            continue   # process ends; never re-arms
                        self._park(proc.entries, event)
                    else:   # "arm"
                        self._current_label = event[1].label
                        self._park(event[1].entries,
                                   ("react", event[1]))
                if self.finished:
                    return
                if self._nba:
                    updates, self._nba = self._nba, []
                    for writer, value, frame in updates:
                        writer(self, frame, value)
            if self.finished or not self._heap:
                return
            next_time = self._heap[0][0]
            if next_time > max_time:
                return
            self.time = next_time
            while self._heap and self._heap[0][0] == next_time:
                _, _, action = heapq.heappop(self._heap)
                if action[0] == "nba_future":
                    self._nba.append(action[1])
                else:
                    active.append(action)

    # -- tracing / introspection -----------------------------------------

    def enable_tracing(self, filename: str = "dump.vcd"):
        from .vcd import Tracer
        if self.tracer is None:
            self.tracer = Tracer(design=self.design, filename=filename)
            self.snapshot_tracer()
        else:
            self.tracer.filename = filename
        return self.tracer

    def snapshot_tracer(self) -> None:
        values = {name: self.store[slot]
                  for name, slot in self.compiled.slots.items()}
        self.tracer.snapshot_initial(self.time, values=values)

    def value_of(self, name: str) -> V.Value:
        """Current value of a (hierarchical) signal name."""
        signal = self.design.signal(name)
        slot = self.compiled.slots[signal.name]
        if signal.is_array:
            return signal.value
        return self.store[slot]


# --------------------------------------------------------------------------
# Content-keyed compiled-design cache
# --------------------------------------------------------------------------

def source_digest(source_text: str, top: str | None) -> str:
    """Content key of one compile request: source text + requested top."""
    hasher = hashlib.sha256()
    hasher.update(str(SIM_COMPILE_VERSION).encode())
    hasher.update(b"\x1f")
    hasher.update((top or "").encode())
    hasher.update(b"\x1f")
    hasher.update(source_text.encode())
    return hasher.hexdigest()


def _cache_fingerprint() -> str:
    # Fold in the Python major.minor: generated-source artefacts are
    # Python modules, so an interpreter upgrade must invalidate them —
    # and the verdict layer gets the same guard (an "unsupported"
    # verdict can flip when the lowerer runs on a newer Python).  The
    # emitter version joins it: its size caps are persisted verdicts.
    from .codegen import SIM_CODEGEN_VERSION
    pyv = f"{sys.version_info[0]}.{sys.version_info[1]}"
    return hashlib.sha256(
        f"repro.sim.compile\x1f{SIM_COMPILE_VERSION}"
        f"\x1f{SIM_CODEGEN_VERSION}\x1f{pyv}".encode()).hexdigest()


class _MergeOnFlushCache(ManifestCache):
    """ManifestCache that merges the on-disk index before rewriting.

    Concurrent pool workers each hold a partial in-memory view, so a
    plain whole-manifest rewrite would drop the other workers' entries.
    Entries are content-addressed and idempotent, so merging the
    on-disk index first makes the disjoint-digest case lossless (the
    residual read-modify-write race only costs a future recompute).
    """

    def flush(self) -> None:
        try:
            with open(self._manifest_path, encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, ValueError):
            manifest = None
        if (manifest is not None
                and manifest.get("version") == self.version
                and manifest.get("fingerprint") == self.fingerprint):
            for slot, entry in manifest.get(self.entries_field,
                                            {}).items():
                self._entries.setdefault(slot, entry)
        super().flush()


class _CompileMetaCache(_MergeOnFlushCache):
    """Persistent compile-verdict layer (ManifestCache of JSON blobs).

    Only *unsupported* verdicts (+ reason) are written — an analysis
    refusal or an emitter size cap alike: warm workers then skip
    doomed compile attempts without re-parsing the source.  A
    supported design's artefact is the generated source itself
    (:class:`_GenSourceCache`), so a "supported" verdict would save
    nothing and would churn one entry file per one-shot candidate.
    """

    version = SIM_COMPILE_VERSION
    subdir = "designs"
    file_prefix = "design-"
    file_suffix = ".json"

    def _encode(self, payload: dict) -> str:
        return json.dumps(payload, ensure_ascii=False, sort_keys=True) \
            + "\n"

    def _decode(self, text: str) -> dict:
        blob = json.loads(text)
        if not isinstance(blob, dict) or "supported" not in blob:
            raise ValueError("unrecognised compile-verdict blob")
        return blob


class _GenSourceCache(_MergeOnFlushCache):
    """Persistent generated-source layer: one ``.py`` file per design.

    The codegen backend's artefact is a plain module source string — it
    survives a process boundary, so warm pool workers ``exec`` it
    instead of re-lowering.  Entries are keyed by
    :func:`repro.sim.codegen.codegen_key` (source digest + codegen
    version + Python major.minor), stored verbatim as importable
    Python text for debuggability.
    """

    version = SIM_COMPILE_VERSION
    subdir = "entries"
    file_prefix = "gen-"
    file_suffix = ".py"

    def _encode(self, payload: str) -> str:
        return payload

    def _decode(self, text: str) -> str:
        if "def build" not in text:
            raise ValueError("unrecognised generated-source blob")
        return text


class CompiledDesignCache:
    """Two-layer cache of compiled designs, keyed by source digest.

    * **in-memory**: an LRU of loaded :class:`CompiledDesign`
      artefacts — the layer that makes ``repro evaluate`` compile each
      testbench/reference pair once across models, levels and samples;
    * **persistent** (optional, ``root=``): a manifest-indexed store
      of *unsupported* verdicts plus a generated-source store
      (``<root>/gen``) of importable Python modules emitted by
      :mod:`repro.sim.codegen` — the layer that lets a warm pool
      worker skip parse, elaborate *and* lowering entirely.  Entries
      whose key no longer matches (source edited,
      :data:`SIM_COMPILE_VERSION` bumped, or the Python major.minor
      changed) degrade to misses.
    """

    def __init__(self, maxsize: int = 256, root: str | None = None):
        self._lru: LRUCache[str, CompiledDesign] = LRUCache(maxsize)
        self._meta = (_CompileMetaCache(root, _cache_fingerprint())
                      if root else None)
        self._gen = (_GenSourceCache(os.path.join(root, "gen"),
                                     _cache_fingerprint())
                     if root else None)

    def get(self, digest: str) -> CompiledDesign | None:
        """In-memory loaded artefact for ``digest`` (or None)."""
        return self._lru.get(digest)

    def put(self, digest: str, compiled: CompiledDesign) -> None:
        self._lru.put(digest, compiled)

    def verdict(self, digest: str) -> dict | None:
        """Persisted compile verdict for ``digest`` (or None)."""
        if self._meta is None:
            return None
        return self._meta.lookup(digest[:16], digest)

    def record_unsupported(self, digest: str, reason: str) -> None:
        """Persist a fallback verdict (the only kind worth keeping)."""
        if self._meta is not None:
            self._meta.store(digest[:16], digest, {
                "supported": False, "reason": reason, "top": None,
                "stats": {}})
            self._meta.flush()

    # -- generated sources ------------------------------------------------

    def gen_source(self, digest: str, key: str) -> str | None:
        """Persisted generated-module source for ``digest`` (or None).

        ``key`` is :func:`repro.sim.codegen.codegen_key` — the digest
        extended with the codegen version and Python major.minor, so a
        stale artefact can never be exec'd by a newer interpreter.
        """
        if self._gen is None:
            return None
        return self._gen.lookup(digest[:16], key)

    def put_gen_source(self, digest: str, key: str, source: str) -> None:
        if self._gen is not None:
            self._gen.store(digest[:16], key, source)
            self._gen.flush()

    def gen_counters(self) -> dict[str, int]:
        """Hit/miss counters of the persistent gen-source layer."""
        if self._gen is None:
            return {"hits": 0, "misses": 0}
        return {"hits": self._gen.hits, "misses": self._gen.misses}

    def clear(self) -> None:
        self._lru.clear()


#: Process-wide default cache (in-memory only until configured).
#: Guarded by ``_CACHE_LOCK``: daemon worker threads read it while any
#: thread may call :func:`configure_design_cache` — the swap must be
#: atomic, and each run binds the cache reference exactly once.
_CACHE_LOCK = threading.Lock()
_DESIGN_CACHE = CompiledDesignCache()


def design_cache() -> CompiledDesignCache:
    with _CACHE_LOCK:
        return _DESIGN_CACHE


def configure_design_cache(maxsize: int = 256,
                           root: str | None = None) -> CompiledDesignCache:
    """Replace the process-wide cache (e.g. to attach a persistent
    verdict layer under ``root``); returns the new cache.  The swap is
    atomic under a module lock: in-flight ``run_simulation`` calls
    bound the old cache once at entry and finish safely against it."""
    global _DESIGN_CACHE
    cache = CompiledDesignCache(maxsize=maxsize, root=root)
    with _CACHE_LOCK:
        _DESIGN_CACHE = cache
    return cache
