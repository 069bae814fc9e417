"""Codegen simulation backend: emit an importable Python module per design.

This module lowers an elaborated :class:`~repro.sim.elaborate.Design`
**once** into generated Python *source text*: a self-contained module
with a flat slot store, precomputed sensitivity/edge tables and flat
reactive process functions, built from the runtime pieces of
:mod:`repro.sim.compile` (:class:`~repro.sim.compile._CAssign` /
:class:`~repro.sim.compile._CReactive` /
:class:`~repro.sim.compile._CCoroutine` driven by
:class:`~repro.sim.compile.CompiledSimulator`).  The source string is

* persistable under the :class:`~repro.sim.compile.CompiledDesignCache`
  root (content-addressed by ``source_digest`` + compile/codegen
  versions + the Python major.minor — see :func:`codegen_key`), and
* loadable in **any** process via :func:`load_generated` (a plain
  ``exec``) — a warm worker fleet re-lowers nothing, ever.

Semantics mirror the interpreter construct-for-construct; the
differential fuzzer and the golden transcript+VCD suite pin the two
backends together.  Anything this backend cannot lower faithfully —
a construct the shared analysis refuses, or generated code past the
size caps below — raises :class:`~repro.sim.compile.CompileUnsupported`;
the verdict is persisted and the interpreter runs the design instead.
"""

from __future__ import annotations

import sys
from types import CodeType

from . import values as V
from .compile import (CompiledDesign, CompileUnsupported, _Lower, _Scope,
                      _WatchSpec, backend_stats)
from .elaborate import Design
from .engine import SimulationError
from .format import parse_template, scope_name
from ..verilog import ast

#: Bump when the emitter changes shape; invalidates every persisted
#: generated-source artefact (folded into :func:`codegen_key`) and
#: every persisted unsupported verdict.
SIM_CODEGEN_VERSION = 1

#: Ceilings on generated code size.  Nested ternaries duplicate their
#: true branch (once per x-merge arm), so adversarial designs could
#: otherwise explode the emitted text; past these limits the design
#: is unsupported and the interpreter runs it.
_MAX_EXPR_CHARS = 100_000
_MAX_MODULE_CHARS = 2_000_000


def codegen_key(digest: str) -> str:
    """Cache key of one generated-source artefact.

    Folds the design's :func:`~repro.sim.compile.source_digest` (which
    already covers :data:`~repro.sim.compile.SIM_COMPILE_VERSION`) with
    the emitter version and the running Python major.minor: generated
    modules are Python source compiled for this interpreter line, and
    an upgraded interpreter must never load a stale artefact.
    """
    return (f"{digest}-cg{SIM_CODEGEN_VERSION}"
            f"-py{sys.version_info[0]}.{sys.version_info[1]}")


# --------------------------------------------------------------------------
# Runtime helpers (imported by every generated module)
# --------------------------------------------------------------------------

def _rt_err(message):
    """Lazy error — generated code calls this exactly where the
    interpreter would raise: when the construct is evaluated."""
    raise SimulationError(message)


def _rt_rand(rt):
    rt._rand_state = (rt._rand_state * 1103515245 + 12345) & 0xFFFFFFFF
    return V.Value.of(rt._rand_state, 32)


def _rt_neg(value):
    return V.sub(V.Value.of(0, value.width), value)


def _rt_xmerge(a, b):
    """Ternary with an x condition: bitwise agreement of both arms."""
    width = max(a.width, b.width)
    a, b = a.resized(width), b.resized(width)
    same = ~(a.val ^ b.val) & ~(a.xz | b.xz)
    return V.Value(width=width, val=a.val & same,
                   xz=((1 << width) - 1) & ~same)


def _rt_clog2(value):
    if value.has_unknown:
        return V.Value.unknown(32)
    return V.Value.of(max(value.to_int() - 1, 0).bit_length(), 32)


def _rt_replc(count):
    if count.has_unknown:
        raise SimulationError("replication count is x")
    return count.to_int()


def _rt_psel(hi, lo, base, base_bit, descending):
    """Ranged part select of a signal value (dynamic bounds)."""
    hi = hi.to_int()
    lo = lo.to_int()
    if descending:
        return base.select_range(hi - base_bit, lo - base_bit)
    return base.select_range(base_bit - hi, base_bit - lo)


def _rt_pselg(hi, lo, base):
    """Ranged part select of a general base expression."""
    return base.select_range(hi.to_int(), lo.to_int())


def _rt_ipsel(start, width, base, base_bit, descending, plus):
    """Indexed part select (``+:``/``-:``) of a signal value."""
    width = width.to_int()
    if start.has_unknown:
        return V.Value.unknown(width)
    start_idx = start.to_int()
    if plus:
        lo, hi = start_idx, start_idx + width - 1
    else:
        lo, hi = start_idx - width + 1, start_idx
    if descending:
        return base.select_range(hi - base_bit, lo - base_bit)
    return base.select_range(base_bit - hi, base_bit - lo)


def _rt_ipselg(start, width, base, plus):
    """Indexed part select of a general base (start known, width int)."""
    start_idx = start.to_int()
    if plus:
        lo, hi = start_idx, start_idx + width - 1
    else:
        lo, hi = start_idx - width + 1, start_idx
    return base.select_range(hi, lo)


def _rt_wsel(rt, slot, hi, lo, base_bit, descending, value):
    """Part-select write into a signal slot (dynamic bounds)."""
    off_hi = (hi - base_bit) if descending else (base_bit - hi)
    off_lo = (lo - base_bit) if descending else (base_bit - lo)
    rt.set_slot(slot, rt.store[slot].with_bits(
        max(off_hi, off_lo), min(off_hi, off_lo), value))


def load_generated(module: str | CodeType) -> CompiledDesign:
    """Exec one generated module and return its ``CompiledDesign``.

    ``module`` is persisted source text or the code object
    :func:`generate_module` returned.  The module is self-contained (it
    imports only :mod:`repro.sim` runtime pieces), so this works in any
    process — the whole point: a warm worker loads the artefact from
    disk instead of re-lowering.
    """
    code = compile(module, "<repro.sim.codegen>", "exec") \
        if isinstance(module, str) else module
    namespace: dict = {"__name__": "repro.sim._generated"}
    exec(code, namespace)
    return namespace["build"]()


# --------------------------------------------------------------------------
# The emitter
# --------------------------------------------------------------------------

#: Binary operators that map straight onto values-module functions
#: (mirrors ``Simulator._BINOPS`` — no short-circuit for ``&&``/``||``).
_BINOP_FNS = {
    "+": "V.add", "-": "V.sub", "*": "V.mul", "/": "V.div",
    "%": "V.mod", "**": "V.power", "&": "V.bit_and", "|": "V.bit_or",
    "^": "V.bit_xor", "^~": "V.bit_xnor", "~^": "V.bit_xnor",
    "&&": "V.logic_and", "||": "V.logic_or",
}

_DISPLAY = ("$display", "$write", "$strobe", "$monitor", "$error",
            "$warning", "$info")


class _Emit:
    """One emission pass over a Design; produces module source text.

    Asks :class:`~repro.sim.compile._Lower` every *analysis* question
    (slots, costs, dependency/sensitivity sets, signedness, lvalue
    widths); only the code generation itself lives here.
    """

    def __init__(self, design: Design):
        self.design = design
        self.low = _Lower(design)
        self.pool: list[V.Value] = []
        self.pool_ix: dict[tuple[int, int, int], int] = {}
        self.watch_entries: list[tuple] = []
        self.watch_ix: dict[tuple, int] = {}
        self.req_entries: list[str] = []  # yield-request tuple codes
        self.req_ix: dict[str, int] = {}
        self.funcs: list[str] = []        # module-level def blocks
        self.proc_entries: list[str] = []
        self.fn_plans: dict[tuple[str, str], tuple] = {}
        self.writer_ix: dict[tuple[str, ...], str] = {}
        self._counter = 0
        self.stats = {"signals": len(self.low.names), "procs": 0,
                      "reactive": 0, "coroutines": 0, "assigns": 0,
                      "functions": 0}
        self._eval_ns = {
            "V": V, "K": self.pool, "max": max, "min": min,
            "_neg": _rt_neg, "_xm": _rt_xmerge, "_clog2": _rt_clog2,
            "_replc": _rt_replc, "_psel": _rt_psel, "_pselg": _rt_pselg,
            "_ipsel": _rt_ipsel, "_ipselg": _rt_ipselg,
        }

    # -- small utilities -------------------------------------------------

    def _tmp(self) -> str:
        self._counter += 1
        return f"t{self._counter}"

    def _kref(self, value: V.Value) -> str:
        key = (value.width, value.val, value.xz)
        index = self.pool_ix.get(key)
        if index is None:
            index = len(self.pool)
            self.pool.append(value)
            self.pool_ix[key] = index
        return f"K[{index}]"

    def _kunknown(self, width: int) -> str:
        return self._kref(V.Value.unknown(width))

    def _const_of(self, code: str) -> V.Value | None:
        """The pooled Value behind a ``K[i]`` reference, else None."""
        if code.startswith("K[") and code.endswith("]"):
            try:
                return self.pool[int(code[2:-1])]
            except ValueError:
                return None
        return None

    def _wref(self, spec: _WatchSpec) -> str:
        """Intern a watch spec; returns a ``W[i]`` reference.

        Flattened in ``edges``-dict order, which reproduces the same
        ``_WatchSpec`` (same edges dict, same slots tuple) when the
        generated module rebuilds it over NAMES/_sigs.
        """
        entries = tuple((slot, edge) for slot, edges in spec.edges.items()
                        for edge in edges)
        index = self.watch_ix.get(entries)
        if index is None:
            index = len(self.watch_entries)
            self.watch_entries.append(entries)
            self.watch_ix[entries] = index
        return f"W[{index}]"

    def _qref(self, code: str) -> str:
        """Intern a scheduler-request tuple expression (``("delay", 5)``
        / ``("wait", W[i])``) as a module constant — testbench loops
        yield these every iteration; interning kills the per-iteration
        tuple allocation."""
        index = self.req_ix.get(code)
        if index is None:
            index = len(self.req_entries)
            self.req_entries.append(code)
            self.req_ix[code] = index
        return f"Q[{index}]"

    def _resized(self, vcode: str, width: int) -> str:
        """``(<vcode>).resized(width)``, folded when vcode is a pooled
        constant — on a constant the result is itself constant."""
        value = self._const_of(vcode)
        if value is not None:
            return self._kref(value.resized(width))
        return f"({vcode}).resized({width})"

    def _err(self, message: str) -> str:
        return f"_err({message!r})"

    # -- expressions -----------------------------------------------------

    def _expr(self, expr: ast.Expr, scope: _Scope) -> tuple[str, bool]:
        """Emit one expression; returns (code, is_const).

        Constant subtrees are folded at emission time by evaluating the
        generated code itself — a SimulationError during folding means
        the code raises lazily at runtime (division-by-x style), exactly
        where the interpreter raises.
        """
        code, const = self._expr_raw(expr, scope)
        if len(code) > _MAX_EXPR_CHARS:
            raise CompileUnsupported("generated expression too large")
        if const:
            value = self._const_of(code)
            if value is not None:
                return code, True
            try:
                value = eval(code, dict(self._eval_ns))  # noqa: S307
            except SimulationError:
                return code, False      # raises lazily, mirror runtime
            return self._kref(value), True
        return code, False

    def _expr_raw(self, expr: ast.Expr, scope: _Scope) -> tuple[str, bool]:
        if isinstance(expr, ast.Number):
            return self._kref(V.from_literal(expr.text)), True
        if isinstance(expr, ast.Identifier):
            return self._identifier(expr.name, scope)
        if isinstance(expr, ast.HierarchicalId):
            name = ".".join(expr.parts)
            signal = self.design.signals.get(scope.prefix + name) or \
                self.design.signals.get(name)
            if signal is None:
                return self._err(
                    f"unknown hierarchical name '{name}'"), False
            return f"S[{self.low.slots[signal.name]}]", False
        if isinstance(expr, ast.StringLiteral):
            data = expr.value.encode()
            width = max(8 * len(data), 8)
            return self._kref(V.Value.of(
                int.from_bytes(data, "big") if data else 0, width)), True
        if isinstance(expr, ast.Unary):
            return self._unary(expr, scope)
        if isinstance(expr, ast.Binary):
            return self._binary(expr, scope)
        if isinstance(expr, ast.Ternary):
            return self._ternary(expr, scope)
        if isinstance(expr, ast.Concat):
            parts = [self._expr(p, scope) for p in expr.parts]
            code = "V.concat([" + ", ".join(c for c, _ in parts) + "])"
            return code, all(c for _, c in parts)
        if isinstance(expr, ast.Repl):
            count, count_const = self._expr(expr.count, scope)
            parts = [self._expr(p, scope) for p in expr.parts]
            code = (f"V.replicate(_replc({count}), V.concat(["
                    + ", ".join(c for c, _ in parts) + "]))")
            return code, count_const and all(c for _, c in parts)
        if isinstance(expr, ast.Index):
            return self._index(expr, scope)
        if isinstance(expr, ast.PartSelect):
            return self._part_select(expr, scope)
        if isinstance(expr, ast.FunctionCall):
            return self._call(expr, scope)
        return self._err(f"cannot evaluate expression "
                         f"{type(expr).__name__}"), False

    def _identifier(self, name: str, scope: _Scope) -> tuple[str, bool]:
        if scope.locals is not None and name in scope.locals:
            return f"fr[{scope.locals[name]}]", False
        resolved = scope.resolve(name)
        if resolved is not None:
            slot, signal = resolved
            if signal.is_array:
                return self._err(f"memory '{name}' used without "
                                 f"an index"), False
            return f"S[{slot}]", False
        params = scope.params()
        if name in params:
            return self._kref(params[name]), True
        return self._err(f"identifier '{name}' is not declared"), False

    def _unary(self, expr: ast.Unary, scope: _Scope) -> tuple[str, bool]:
        operand, const = self._expr(expr.operand, scope)
        op = expr.op
        if op == "+":
            return operand, const
        if op == "-":
            return f"_neg({operand})", const
        if op == "~":
            return f"V.bit_not({operand})", const
        if op == "!":
            return f"V.logic_not({operand})", const
        return f"V.reduce_op({op!r}, {operand})", const

    def _binary(self, expr: ast.Binary, scope: _Scope) -> tuple[str, bool]:
        op = expr.op
        left, lconst = self._expr(expr.left, scope)
        right, rconst = self._expr(expr.right, scope)
        const = lconst and rconst
        handler = _BINOP_FNS.get(op)
        if handler is not None:
            return f"{handler}({left}, {right})", const
        if op in ("<<", "<<<"):
            return f"V.shift_left({left}, {right})", const
        if op == ">>":
            return f"V.shift_right({left}, {right})", const
        if op == ">>>":
            signed = self.low._is_signed(expr.left, scope)
            return (f"V.shift_right({left}, {right}, arithmetic=True, "
                    f"signed={signed!r})"), const
        if op in ("==", "!=", "===", "!==", "<", "<=", ">", ">="):
            signed = (self.low._is_signed(expr.left, scope)
                      and self.low._is_signed(expr.right, scope))
            return (f"V.compare({op!r}, {left}, {right}, "
                    f"signed={signed!r})"), const
        return self._err(f"unsupported binary operator '{op}'"), False

    def _ternary(self, expr: ast.Ternary, scope: _Scope) -> tuple[str, bool]:
        cond, cconst = self._expr(expr.cond, scope)
        if_true, tconst = self._expr(expr.if_true, scope)
        if_false, fconst = self._expr(expr.if_false, scope)
        tmp = self._tmp()
        code = (f"(({if_true}) if ({tmp} := ({cond})).is_true else "
                f"(_xm({if_true}, {if_false}) if {tmp}.has_unknown "
                f"else ({if_false})))")
        return code, cconst and tconst and fconst

    def _index(self, expr: ast.Index, scope: _Scope) -> tuple[str, bool]:
        index, iconst = self._expr(expr.index, scope)
        # Like the interpreter, the base resolves against module
        # signals even where a fn local shadows.
        if isinstance(expr.base, ast.Identifier):
            resolved = scope.resolve(expr.base.name)
            if resolved is not None:
                slot, signal = resolved
                if signal.is_array:
                    unk = self._kunknown(signal.width)
                    cval = self._const_of(index) if iconst else None
                    if cval is not None:
                        if cval.has_unknown:
                            return unk, False
                        return (f"rt.arrays[{slot}].get({cval.to_int()}, "
                                f"{unk})"), False
                    tmp = self._tmp()
                    return (f"({unk} if ({tmp} := ({index})).has_unknown "
                            f"else rt.arrays[{slot}].get({tmp}.to_int(), "
                            f"{unk}))"), False
                descending = signal.msb >= signal.lsb
                base_bit = signal.lsb
                cval = self._const_of(index) if iconst else None
                if cval is not None:
                    if cval.has_unknown:
                        return self._kunknown(1), False
                    offset = (cval.to_int() - base_bit) if descending \
                        else (base_bit - cval.to_int())
                    return f"S[{slot}].select_bit({offset})", False
                tmp = self._tmp()
                if descending:
                    off = f"{tmp}.to_int() - {base_bit}" if base_bit \
                        else f"{tmp}.to_int()"
                else:
                    off = f"{base_bit} - {tmp}.to_int()"
                return (f"({self._kunknown(1)} if ({tmp} := ({index}))"
                        f".has_unknown else S[{slot}]"
                        f".select_bit({off}))"), False
        base, bconst = self._expr(expr.base, scope)
        return f"({base}).select_bit({index})", bconst and iconst

    def _part_select(self, expr: ast.PartSelect,
                     scope: _Scope) -> tuple[str, bool]:
        base_info = None           # (slot, signal) for plain signals
        if isinstance(expr.base, ast.Identifier):
            resolved = scope.resolve(expr.base.name)
            if resolved is not None and not resolved[1].is_array:
                base_info = resolved
        msb, mconst = self._expr(expr.msb, scope)
        lsb, lconst = self._expr(expr.lsb, scope)
        if expr.mode == ":":
            if base_info is not None:
                slot, signal = base_info
                descending = signal.msb >= signal.lsb
                base_bit = signal.lsb
                chi = self._const_of(msb) if mconst else None
                clo = self._const_of(lsb) if lconst else None
                if chi is not None and clo is not None:
                    hi, lo = chi.to_int(), clo.to_int()
                    off_hi = (hi - base_bit) if descending \
                        else (base_bit - hi)
                    off_lo = (lo - base_bit) if descending \
                        else (base_bit - lo)
                    return (f"S[{slot}].select_range({off_hi}, "
                            f"{off_lo})"), False
                return (f"_psel({msb}, {lsb}, S[{slot}], {base_bit}, "
                        f"{descending!r})"), False
            base, bconst = self._expr(expr.base, scope)
            return (f"_pselg({msb}, {lsb}, ({base}))",
                    bconst and mconst and lconst)
        # Indexed part select: base[i +: w] / base[i -: w]
        plus = expr.mode == "+:"
        if base_info is not None:
            slot, signal = base_info
            descending = signal.msb >= signal.lsb
            base_bit = signal.lsb
            cstart = self._const_of(msb) if mconst else None
            cwidth = self._const_of(lsb) if lconst else None
            if cstart is not None and cwidth is not None:
                width = cwidth.to_int()
                if cstart.has_unknown:
                    return self._kunknown(width), False
                start_idx = cstart.to_int()
                if plus:
                    lo, hi = start_idx, start_idx + width - 1
                else:
                    lo, hi = start_idx - width + 1, start_idx
                off_hi = (hi - base_bit) if descending \
                    else (base_bit - hi)
                off_lo = (lo - base_bit) if descending \
                    else (base_bit - lo)
                return (f"S[{slot}].select_range({off_hi}, "
                        f"{off_lo})"), False
            return (f"_ipsel({msb}, {lsb}, S[{slot}], {base_bit}, "
                    f"{descending!r}, {plus!r})"), False
        base, bconst = self._expr(expr.base, scope)
        # The interpreter never evaluates the base when the start
        # index is unknown; the tuple forces start-then-width order.
        ts, tw = self._tmp(), self._tmp()
        code = (f"(V.Value.unknown({tw}) if (({ts} := ({msb})), "
                f"({tw} := ({lsb}).to_int()))[0].has_unknown else "
                f"_ipselg({ts}, {tw}, ({base}), {plus!r}))")
        return code, bconst and mconst and lconst

    # -- function calls --------------------------------------------------

    def _call(self, expr: ast.FunctionCall, scope: _Scope) -> tuple[str, bool]:
        if expr.is_system:
            return self._system_call(expr, scope)
        fn = self.design.functions.get(scope.prefix, {}).get(expr.name)
        if fn is None:
            return self._err(f"unknown function '{expr.name}'"), False
        fc_name, arg_widths = self._function_plan(fn, scope)
        n_args = len(arg_widths)
        args = [self._expr(a, scope)[0] for a in expr.args[:n_args]]
        # Missing arguments bind unknown of the declared width, exactly
        # like the interpreter's locals fill.
        for pos in range(len(args), n_args):
            args.append(self._kunknown(arg_widths[pos]))
        # Extra arguments are never evaluated at runtime (neither does
        # the interpreter) — emit-and-discard so unsupported constructs
        # inside them still veto the compile.
        for extra in expr.args[n_args:]:
            self._expr(extra, scope)
        call = ", ".join(["rt"] + args)
        return f"{fc_name}({call})", False

    def _function_plan(self, fn: ast.FunctionDecl,
                       scope: _Scope) -> tuple[str, tuple[int, ...]]:
        key = (scope.prefix, fn.name)
        cached = self.fn_plans.get(key)
        if cached is not None:
            return cached
        # Widths and frame layout follow the interpreter's
        # ``_call_function``.
        from .elaborate import const_eval
        params = scope.params()
        ret_width = 1
        if fn.range is not None:
            msb = const_eval(fn.range.msb, params).to_int()
            lsb = const_eval(fn.range.lsb, params).to_int()
            ret_width = abs(msb - lsb) + 1
        locals_map: dict[str, int] = {fn.name: 0}
        local_widths: dict[str, int] = {fn.name: ret_width}
        arg_widths: list[int] = []
        decl_inits: list[tuple[int, int]] = []
        for item in fn.items:
            if isinstance(item, ast.PortDecl) and item.direction == "input":
                for name in item.names:
                    width = 1
                    if item.range is not None:
                        msb = const_eval(item.range.msb, params).to_int()
                        lsb = const_eval(item.range.lsb, params).to_int()
                        width = abs(msb - lsb) + 1
                    locals_map[name] = len(locals_map)
                    local_widths[name] = width
                    arg_widths.append(width)
            elif isinstance(item, ast.Decl):
                for decl in item.declarators:
                    width = 32 if item.kind == "integer" else 1
                    if item.range is not None:
                        msb = const_eval(item.range.msb, params).to_int()
                        lsb = const_eval(item.range.lsb, params).to_int()
                        width = abs(msb - lsb) + 1
                    locals_map[decl.name] = len(locals_map)
                    local_widths[decl.name] = width
                    decl_inits.append((locals_map[decl.name], width))
        n = len(self.fn_plans)
        fc_name = f"_fc{n}"
        plan = (fc_name, tuple(arg_widths))
        # Register before emitting the body so recursive calls resolve.
        self.fn_plans[key] = plan
        if fn.body is not None and self._needs_coroutine(fn.body):
            raise CompileUnsupported(
                "delay or event control inside a function")
        fn_scope = scope.fn_scope(locals_map, local_widths)
        body: list[str] = []
        if fn.body is not None:
            self._stmt(fn.body, fn_scope, body, "    ", coro=False)
        # Wrapper: builds the frame (return slot first, args resized,
        # missing args and declared locals unknown), runs the body,
        # returns the return slot.
        params_sig = ", ".join(
            ["rt"] + [f"a{i}" for i in range(len(arg_widths))])
        lines = [f"def {fc_name}({params_sig}):"]
        lines.append(f"    fr = [None] * {len(locals_map)}")
        lines.append(f"    fr[0] = {self._kunknown(ret_width)}")
        for pos, width in enumerate(arg_widths):
            lines.append(f"    fr[{pos + 1}] = a{pos}.resized({width})")
        for idx, width in decl_inits:
            lines.append(f"    fr[{idx}] = {self._kunknown(width)}")
        lines.extend(self._with_aliases(body, "    "))
        lines.append("    return fr[0]")
        self.funcs.append("\n".join(lines))
        self.stats["functions"] += 1
        return plan

    def _system_call(self, expr: ast.FunctionCall,
                     scope: _Scope) -> tuple[str, bool]:
        name = expr.name
        if name == "$time":
            return "V.Value.of(rt.time, 64)", False
        if name == "$random":
            return "_rand(rt)", False
        if name in ("$signed", "$unsigned"):
            return self._expr(expr.args[0], scope)
        if name == "$clog2":
            arg, const = self._expr(expr.args[0], scope)
            return f"_clog2({arg})", const
        return self._err(f"unsupported system function '{name}'"), False

    # -- needs-coroutine (re-exported analysis) --------------------------

    @staticmethod
    def _needs_coroutine(stmt) -> bool:
        from .compile import _needs_coroutine
        return _needs_coroutine(stmt)

    # -- alias prologue --------------------------------------------------

    @staticmethod
    def _with_aliases(body: list[str], ind: str) -> list[str]:
        """Prepend hot-attribute aliases a body actually uses.

        ``S`` binds ``rt.store`` once per activation; ``ss`` binds
        ``rt.set_slot`` when the body writes more than one slot — the
        two hottest attribute lookups in the runtime.
        """
        text = "\n".join(body)
        out = []
        if "rt.charge_always(" in text:
            text = text.replace("rt.charge_always(", "ca(")
            out.append(f"{ind}ca = rt.charge_always")
        if "rt.charge(" in text:
            text = text.replace("rt.charge(", "ch(")
            out.append(f"{ind}ch = rt.charge")
        if text.count("rt.display_lines.append(") >= 2:
            text = text.replace("rt.display_lines.append(", "dl(")
            out.append(f"{ind}dl = rt.display_lines.append")
        if text.count("rt.set_slot(") >= 2:
            text = text.replace("rt.set_slot(", "ss(")
            out.append(f"{ind}ss = rt.set_slot")
        if "S[" in text:
            out.append(f"{ind}S = rt.store")
        out.extend(text.split("\n") if text else [])
        if not out:
            out.append(f"{ind}pass")
        return out

    # -- writers ---------------------------------------------------------

    def _write_lines(self, lhs: ast.Expr, scope: _Scope, vname: str,
                     out: list[str], ind: str) -> None:
        """Emit the statements writing ``vname`` (safe to re-reference)
        into ``lhs`` — the statement twin of ``compile_writer``."""
        if isinstance(lhs, ast.Concat):
            self._concat_write(lhs, scope, vname, out, ind)
            return
        if isinstance(lhs, ast.Identifier):
            if scope.locals is not None and lhs.name in scope.locals:
                idx = scope.locals[lhs.name]
                width = scope.local_widths[lhs.name]
                out.append(f"{ind}fr[{idx}] = {self._resized(vname, width)}")
                return
            resolved = scope.resolve(lhs.name)
            if resolved is None:
                out.append(ind + self._err(
                    f"identifier '{lhs.name}' is not declared"))
                return
            slot, signal = resolved
            out.append(f"{ind}rt.set_slot({slot}, "
                       f"{self._resized(vname, signal.width)})")
            return
        if isinstance(lhs, ast.HierarchicalId):
            name = ".".join(lhs.parts)
            signal = self.design.signals.get(scope.prefix + name) or \
                self.design.signals.get(name)
            if signal is None:
                out.append(ind + self._err(
                    f"unknown hierarchical name '{name}'"))
                return
            slot = self.low.slots[signal.name]
            out.append(f"{ind}rt.set_slot({slot}, "
                       f"{self._resized(vname, signal.width)})")
            return
        if isinstance(lhs, ast.Index):
            self._index_write(lhs, scope, vname, out, ind)
            return
        if isinstance(lhs, ast.PartSelect):
            self._select_write(lhs, scope, vname, out, ind)
            return
        out.append(ind + self._err(
            f"invalid assignment target {type(lhs).__name__}"))

    def _index_write(self, lhs: ast.Index, scope: _Scope, vname: str,
                     out: list[str], ind: str) -> None:
        if not isinstance(lhs.base, ast.Identifier):
            out.append(ind + self._err("unsupported nested lvalue index"))
            return
        resolved = scope.resolve(lhs.base.name)
        if resolved is None:
            out.append(ind + self._err(
                f"identifier '{lhs.base.name}' is not declared"))
            return
        slot, signal = resolved
        index, iconst = self._expr(lhs.index, scope)
        cval = self._const_of(index) if iconst else None
        if signal.is_array:
            width = signal.width
            if cval is not None:
                if not cval.has_unknown:   # write to x index is lost
                    out.append(f"{ind}rt.set_element({slot}, "
                               f"{cval.to_int()}, "
                               f"{self._resized(vname, width)})")
                return
            tmp = self._tmp()
            out.append(f"{ind}{tmp} = {index}")
            out.append(f"{ind}if not {tmp}.has_unknown:")
            out.append(f"{ind}    rt.set_element({slot}, {tmp}.to_int(), "
                       f"{vname}.resized({width}))")
            return
        descending = signal.msb >= signal.lsb
        base_bit = signal.lsb
        width = signal.width
        if cval is not None:
            if cval.has_unknown:           # write to x index is lost
                return
            offset = (cval.to_int() - base_bit) if descending \
                else (base_bit - cval.to_int())
            if 0 <= offset < width:
                out.append(f"{ind}rt.set_slot({slot}, S[{slot}]"
                           f".with_bits({offset}, {offset}, {vname}))")
            return
        tmp = self._tmp()
        off = self._tmp()
        out.append(f"{ind}{tmp} = {index}")
        out.append(f"{ind}if not {tmp}.has_unknown:")
        if descending:
            expr_off = f"{tmp}.to_int() - {base_bit}" if base_bit \
                else f"{tmp}.to_int()"
        else:
            expr_off = f"{base_bit} - {tmp}.to_int()"
        out.append(f"{ind}    {off} = {expr_off}")
        out.append(f"{ind}    if 0 <= {off} < {width}:")
        out.append(f"{ind}        rt.set_slot({slot}, S[{slot}]"
                   f".with_bits({off}, {off}, {vname}))")

    def _select_write(self, lhs: ast.PartSelect, scope: _Scope,
                      vname: str, out: list[str], ind: str) -> None:
        if not isinstance(lhs.base, ast.Identifier):
            out.append(ind + self._err("unsupported nested lvalue select"))
            return
        resolved = scope.resolve(lhs.base.name)
        if resolved is None:
            out.append(ind + self._err(
                f"identifier '{lhs.base.name}' is not declared"))
            return
        slot, signal = resolved
        descending = signal.msb >= signal.lsb
        base_bit = signal.lsb
        msb, mconst = self._expr(lhs.msb, scope)
        lsb, lconst = self._expr(lhs.lsb, scope)
        chi = self._const_of(msb) if mconst else None
        clo = self._const_of(lsb) if lconst else None
        if chi is not None and clo is not None:
            a, b = chi.to_int(), clo.to_int()
            if lhs.mode == ":":
                hi, lo = a, b
            elif lhs.mode == "+:":
                lo, hi = a, a + b - 1
            else:
                hi, lo = a, a - b + 1
            off_hi = (hi - base_bit) if descending else (base_bit - hi)
            off_lo = (lo - base_bit) if descending else (base_bit - lo)
            out.append(f"{ind}rt.set_slot({slot}, S[{slot}].with_bits("
                       f"{max(off_hi, off_lo)}, {min(off_hi, off_lo)}, "
                       f"{vname}))")
            return
        if lhs.mode == ":":
            out.append(f"{ind}_wsel(rt, {slot}, ({msb}).to_int(), "
                       f"({lsb}).to_int(), {base_bit}, {descending!r}, "
                       f"{vname})")
            return
        ts = self._tmp()
        tw = self._tmp()
        out.append(f"{ind}{ts} = ({msb}).to_int()")
        out.append(f"{ind}{tw} = ({lsb}).to_int()")
        if lhs.mode == "+:":
            hi_e, lo_e = f"{ts} + {tw} - 1", ts
        else:
            hi_e, lo_e = ts, f"{ts} - {tw} + 1"
        out.append(f"{ind}_wsel(rt, {slot}, {hi_e}, {lo_e}, {base_bit}, "
                   f"{descending!r}, {vname})")

    def _concat_write(self, lhs: ast.Concat, scope: _Scope, vname: str,
                      out: list[str], ind: str) -> None:
        widths = [self.low._lvalue_width(p, scope) for p in lhs.parts]
        if any(w is None for w in widths):
            raise CompileUnsupported(
                "concatenation lvalue with non-static part widths")
        total = sum(widths)
        tmp = self._tmp()
        out.append(f"{ind}{tmp} = {vname}.resized({total})")
        offset = total
        for part, width in zip(lhs.parts, widths):
            offset -= width
            self._write_lines(
                part, scope,
                f"{tmp}.select_range({offset + width - 1}, {offset})",
                out, ind)

    def _writer_fn(self, lhs: ast.Expr, scope: _Scope) -> str:
        """Emit a module-level ``def _wN(rt, fr, value)`` writer (the
        function-object form NBA scheduling and continuous assigns
        need) and return its name."""
        body: list[str] = []
        self._write_lines(lhs, scope, "value", body, "    ")
        key = tuple(body)
        cached = self.writer_ix.get(key)
        if cached is not None:
            return cached
        self._counter += 1
        name = f"_w{self._counter}"
        lines = [f"def {name}(rt, fr, value):"]
        lines.extend(self._with_aliases(body, "    "))
        self.funcs.append("\n".join(lines))
        self.writer_ix[key] = name
        return name

    @staticmethod
    def _simple_target(code_lines: list[str]) -> bool:
        return len(code_lines) == 1

    # -- statements ------------------------------------------------------

    def _stmt(self, stmt, scope: _Scope, out: list[str], ind: str,
              coro: bool) -> None:
        """Emit one statement.  ``coro=True`` inside process bodies
        (suspension yields scheduler requests inline); ``coro=False``
        inside function bodies, where suspension is the interpreter's
        runtime error."""
        if stmt is None or isinstance(stmt, (ast.NullStmt, ast.Decl,
                                             ast.DisableStmt)):
            return
        if isinstance(stmt, ast.Block):
            for child in stmt.stmts:
                if not isinstance(child, ast.Decl):
                    self._stmt(child, scope, out, ind, coro)
            return
        if isinstance(stmt, ast.BlockingAssign):
            self._blocking(stmt, scope, out, ind, coro)
            return
        if isinstance(stmt, ast.NonBlockingAssign):
            self._nonblocking(stmt, scope, out, ind)
            return
        if isinstance(stmt, ast.IfStmt):
            self._if(stmt, scope, out, ind, coro)
            return
        if isinstance(stmt, ast.CaseStmt):
            self._case(stmt, scope, out, ind, coro)
            return
        if isinstance(stmt, ast.ForStmt):
            cost = self.low._loop_cost(stmt, scope)
            self._stmt(stmt.init, scope, out, ind, False)
            cond, _ = self._expr(stmt.cond, scope)
            out.append(f"{ind}while ({cond}).is_true:")
            body: list[str] = [f"{ind}    rt.charge({cost})"]
            self._stmt(stmt.body, scope, body, ind + "    ", coro)
            self._stmt(stmt.step, scope, body, ind + "    ", False)
            out.extend(body)
            return
        if isinstance(stmt, ast.WhileStmt):
            cost = self.low._loop_cost(stmt, scope)
            cond, _ = self._expr(stmt.cond, scope)
            out.append(f"{ind}while ({cond}).is_true:")
            body = [f"{ind}    rt.charge({cost})"]
            self._stmt(stmt.body, scope, body, ind + "    ", coro)
            out.extend(body)
            return
        if isinstance(stmt, ast.RepeatStmt):
            cost = self.low._loop_cost(stmt, scope)
            count, cconst = self._expr(stmt.count, scope)
            cval = self._const_of(count) if cconst else None
            if cval is not None:
                out.append(f"{ind}for _ in "
                           f"range({max(cval.to_int(), 0)}):")
            else:
                out.append(f"{ind}for _ in "
                           f"range(max(({count}).to_int(), 0)):")
            body = [f"{ind}    rt.charge({cost})"]
            self._stmt(stmt.body, scope, body, ind + "    ", coro)
            out.extend(body)
            return
        if isinstance(stmt, ast.ForeverStmt):
            cost = self.low._loop_cost(stmt, scope)
            out.append(f"{ind}while True:")
            body = [f"{ind}    rt.charge({cost})"]
            self._stmt(stmt.body, scope, body, ind + "    ", coro)
            out.extend(body)
            return
        if isinstance(stmt, ast.SysTaskCall):
            self._systask(stmt, scope, out, ind)
            return
        if isinstance(stmt, ast.TaskCall):
            out.append(ind + self._err(
                f"user task '{stmt.name}' is not supported"))
            return
        if isinstance(stmt, ast.DelayStmt):
            if not coro:
                out.append(ind + self._err(
                    "delay or event control inside a function"))
                return
            delay, dconst = self._expr(stmt.delay, scope)
            cval = self._const_of(delay) if dconst else None
            if cval is not None:
                req = self._qref(f'("delay", {cval.to_int()})')
                out.append(f"{ind}yield {req}")
            else:
                out.append(f'{ind}yield ("delay", ({delay}).to_int())')
            self._stmt(stmt.stmt, scope, out, ind, coro)
            return
        if isinstance(stmt, ast.EventControlStmt):
            if not coro:
                out.append(ind + self._err(
                    "delay or event control inside a function"))
                return
            spec = self.low._sens_entries(stmt.senslist, scope)
            req = self._qref(f'("wait", {self._wref(spec)})')
            out.append(f"{ind}yield {req}")
            self._stmt(stmt.stmt, scope, out, ind, coro)
            return
        if isinstance(stmt, ast.WaitStmt):
            if not coro:
                out.append(ind + self._err(
                    "delay or event control inside a function"))
                return
            cond, _ = self._expr(stmt.cond, scope)
            slots = self.low._expr_dep_slots(stmt.cond, scope)
            out.append(f"{ind}while not ({cond}).is_true:")
            if slots:
                spec = _WatchSpec(tuple((slot, None) for slot in slots),
                                  self.low.names, self.low.signals)
                req = self._qref(f'("wait", {self._wref(spec)})')
                out.append(f"{ind}    yield {req}")
            else:
                out.append(ind + "    " + self._err(
                    "wait() on constant expression"))
            self._stmt(stmt.stmt, scope, out, ind, coro)
            return
        out.append(ind + self._err(
            f"cannot execute statement {type(stmt).__name__}"))

    def _blocking(self, stmt: ast.BlockingAssign, scope: _Scope,
                  out: list[str], ind: str, coro: bool) -> None:
        rhs, _ = self._expr(stmt.rhs, scope)
        if stmt.delay is None:
            if self._const_of(rhs) is not None:
                # A pooled constant re-references freely and cannot
                # observe writer-index evaluation order — skip the temp.
                self._write_lines(stmt.lhs, scope, rhs, out, ind)
                return
            # Simple single-write targets inline the value expression;
            # complex targets evaluate the rhs into a temp *before* the
            # writer's own index expressions — the interpreter's order.
            lines: list[str] = []
            self._write_lines(stmt.lhs, scope, "\x00", lines, ind)
            if len(lines) == 1 and lines[0].count("\x00") == 1 \
                    and "_err(" not in lines[0]:
                out.append(lines[0].replace("\x00", f"({rhs})"))
                return
            tmp = self._tmp()
            out.append(f"{ind}{tmp} = {rhs}")
            self._write_lines(stmt.lhs, scope, tmp, out, ind)
            return
        delay, dconst = self._expr(stmt.delay, scope)
        if self._const_of(rhs) is not None:
            tmp = rhs
        else:
            tmp = self._tmp()
            out.append(f"{ind}{tmp} = {rhs}")
        dval = self._const_of(delay) if dconst else None
        if coro:
            if dval is not None:
                ticks_n = dval.to_int()
                if ticks_n:
                    req = self._qref(f'("delay", {ticks_n})')
                    out.append(f"{ind}yield {req}")
            else:
                ticks = self._tmp()
                out.append(f"{ind}{ticks} = ({delay}).to_int()")
                out.append(f"{ind}if {ticks}:")
                out.append(f'{ind}    yield ("delay", {ticks})')
        elif dval is not None:
            if dval.to_int():
                out.append(ind + self._err(
                    "delay or event control inside a function"))
        else:
            # Only reachable inside functions: a nonzero delay is the
            # interpreter's "delay inside a function" error.
            out.append(f"{ind}if ({delay}).to_int():")
            out.append(ind + "    " + self._err(
                "delay or event control inside a function"))
        self._write_lines(stmt.lhs, scope, tmp, out, ind)

    def _nonblocking(self, stmt: ast.NonBlockingAssign, scope: _Scope,
                     out: list[str], ind: str) -> None:
        rhs, _ = self._expr(stmt.rhs, scope)
        writer = self._writer_fn(stmt.lhs, scope)
        frname = "fr" if scope.locals is not None else "None"
        if stmt.delay is not None:
            delay, _ = self._expr(stmt.delay, scope)
            tmp = self._tmp()
            out.append(f"{ind}{tmp} = {rhs}")
            out.append(f"{ind}rt.schedule_nba(({delay}).to_int(), "
                       f"{writer}, {tmp}, {frname})")
            return
        out.append(f"{ind}rt._nba.append(({writer}, {rhs}, {frname}))")

    def _if(self, stmt: ast.IfStmt, scope: _Scope, out: list[str],
            ind: str, coro: bool) -> None:
        cond, _ = self._expr(stmt.cond, scope)
        then: list[str] = []
        self._stmt(stmt.then_stmt, scope, then, ind + "    ", coro)
        other: list[str] = []
        if stmt.else_stmt is not None:
            self._stmt(stmt.else_stmt, scope, other, ind + "    ", coro)
        if not then and not other:
            out.append(f"{ind}{self._tmp()} = {cond}")
            return
        if not then:
            # An x condition runs the else branch, as in the
            # interpreter.
            out.append(f"{ind}if not ({cond}).is_true:")
            out.extend(other)
            return
        out.append(f"{ind}if ({cond}).is_true:")
        out.extend(then)
        if other:
            out.append(f"{ind}else:")
            out.extend(other)

    def _case(self, stmt: ast.CaseStmt, scope: _Scope, out: list[str],
              ind: str, coro: bool) -> None:
        selector, _ = self._expr(stmt.expr, scope)
        sel = self._tmp()
        out.append(f"{ind}{sel} = {selector}")
        arms: list[tuple[str, list[str]]] = []
        default: list[str] | None = None
        for item in stmt.items:
            body: list[str] = []
            self._stmt(item.stmt, scope, body, ind + "    ", coro)
            if not item.exprs:
                default = body         # later defaults win
                continue
            labels = [self._expr(e, scope)[0] for e in item.exprs]
            cond = " or ".join(f"_cm({stmt.kind!r}, {sel}, {lab})"
                               for lab in labels)
            arms.append((cond, body))
        first = True
        for cond, body in arms:
            out.append(f"{ind}{'if' if first else 'elif'} {cond}:")
            out.extend(body or [f"{ind}    pass"])
            first = False
        if default:
            if first:
                out.extend(line[4:] for line in default)
            else:
                out.append(f"{ind}else:")
                out.extend(default)

    # -- $display and friends --------------------------------------------

    def _systask(self, stmt: ast.SysTaskCall, scope: _Scope,
                 out: list[str], ind: str) -> None:
        name = stmt.name
        if name in _DISPLAY:
            prefix = "ERROR: " if name == "$error" else ""
            text = self._display_code(stmt.args, scope, prefix)
            out.append(f"{ind}rt.display_lines.append({text})")
            return
        if name in ("$finish", "$stop", "$fatal"):
            out.append(f"{ind}rt.finished = True")
            out.append(f"{ind}raise _Finish()")
            return
        if name == "$dumpfile":
            filename = "dump.vcd"
            if stmt.args and isinstance(stmt.args[0], ast.StringLiteral):
                filename = stmt.args[0].value
            out.append(f"{ind}rt.enable_tracing({filename!r})"
                       f".enabled = False")
            return
        if name == "$dumpvars":
            tmp = self._tmp()
            out.append(f"{ind}{tmp} = rt.enable_tracing("
                       f'rt.tracer.filename if rt.tracer else "dump.vcd")')
            out.append(f"{ind}{tmp}.enabled = True")
            out.append(f"{ind}rt.snapshot_tracer()")
            return
        if name == "$dumpon":
            out.append(f"{ind}if rt.tracer is not None:")
            out.append(f"{ind}    rt.tracer.enabled = True")
            return
        if name == "$dumpoff":
            out.append(f"{ind}if rt.tracer is not None:")
            out.append(f"{ind}    rt.tracer.enabled = False")
            return
        if name in ("$timeformat", "$readmemh", "$readmemb"):
            return   # accepted and ignored
        out.append(ind + self._err(f"unsupported system task '{name}'"))

    def _display_code(self, args, scope: _Scope, prefix: str) -> str:
        """One expression producing the rendered display line."""
        if not args:
            return repr(prefix)
        first = args[0]
        if not isinstance(first, ast.StringLiteral):
            # No leading format string: space-joined "d"-format
            # rendering, string literal args passed through verbatim.
            pieces: list[str] = []
            for arg in args:
                if isinstance(arg, ast.StringLiteral):
                    pieces.append(repr(arg.value))
                else:
                    code, _ = self._expr(arg, scope)
                    pieces.append(f'_fv({code}, "d")')
            joined = pieces[0] if len(pieces) == 1 \
                else '" ".join((' + ", ".join(pieces) + "))"
            return f"{prefix!r} + {joined}" if prefix else joined
        arg_iter = iter(args[1:])
        mod_text = scope_name(scope.prefix, self.design.top)
        parts: list[str] = []       # alternating literals / expr codes
        literal = prefix

        def flush():
            nonlocal literal
            if literal:
                parts.append(repr(literal))
                literal = ""

        for segment in parse_template(first.value):
            kind = segment[0]
            if kind == "lit":
                literal += segment[1]
            elif kind == "pct":
                literal += "%"
            elif kind == "mod":
                literal += mod_text
            else:
                spec = segment[1]
                try:
                    arg = next(arg_iter)
                except StopIteration:
                    literal += "%" + spec
                    continue
                if spec == "s" and isinstance(arg, ast.StringLiteral):
                    literal += arg.value
                    continue
                code, _ = self._expr(arg, scope)
                flush()
                parts.append(f"_rs({spec!r}, {code})")
        flush()
        return " + ".join(parts) if parts else repr(prefix)

    # -- processes -------------------------------------------------------

    def emit_proc(self, proc) -> None:
        """Lower one elaborated process into module-level defs plus a
        construction expression."""
        self.stats["procs"] += 1
        low = self.low
        if proc.kind == "assign":
            rhs_scope = _Scope(low, proc.rhs_prefix, proc.module)
            lhs_scope = _Scope(low, proc.lhs_prefix, proc.module)
            rhs, _ = self._expr(proc.rhs, rhs_scope)
            self._counter += 1
            name = f"_a{self._counter}"
            lines = [f"def {name}(rt, fr):"]
            lines.extend(self._with_aliases([f"    return {rhs}"],
                                            "    "))
            self.funcs.append("\n".join(lines))
            writer = self._writer_fn(proc.lhs, lhs_scope)
            deps = tuple(low._expr_dep_slots(proc.rhs, rhs_scope))
            cost = 1 + low._expr_cost(proc.rhs, rhs_scope)
            self.stats["assigns"] += 1
            self.proc_entries.append(
                f"_CAssign(rhs={name}, writer={writer}, "
                f"deps={deps!r}, label={proc.label!r}, cost={cost})")
            return
        scope = _Scope(low, proc.prefix, proc.module)
        if proc.kind == "initial":
            self._coroutine_proc(proc, proc.body, scope)
            return
        body_ast = proc.body
        if isinstance(body_ast, ast.EventControlStmt):
            senslist = body_ast.senslist
            if senslist.is_star:
                spec = low._star_entries(body_ast, scope)
            else:
                spec = low._sens_entries(senslist, scope)
            wref = self._wref(spec)
            body_cost = low._stmt_cost(body_ast.stmt, scope) \
                if body_ast.stmt is not None else 1
            if body_ast.stmt is None \
                    or not self._needs_coroutine(body_ast.stmt):
                body: list[str] = []
                if body_ast.stmt is not None:
                    self._stmt(body_ast.stmt, scope, body, "    ",
                               coro=False)
                self._counter += 1
                name = f"_p{self._counter}"
                lines = [f"def {name}(rt, fr):"]
                lines.extend(self._with_aliases(body, "    "))
                self.funcs.append("\n".join(lines))
                self.stats["reactive"] += 1
                self.proc_entries.append(
                    f"_CReactive(body={name}, entries={wref}, "
                    f"label={proc.label!r}, cost={1 + body_cost})")
                return
            # always @(...) with suspension in the body: one generator
            # per process — wait, run body inline, charge — no nested
            # yield-from chains anywhere in the generated code.
            req = self._qref(f'("wait", {wref})')
            inner: list[str] = [f"            yield {req}"]
            self._stmt(body_ast.stmt, scope, inner, "            ",
                       coro=True)
            inner.append(f"            rt.charge({50 + body_cost})")
            self._counter += 1
            name = f"_p{self._counter}"
            merged = self._with_aliases(inner, "    ")
            n_alias = len(merged) - len(inner)
            lines = [f"def {name}(rt):"]
            lines.extend(merged[:n_alias])
            lines.append("    try:")
            lines.append("        while True:")
            lines.extend(merged[n_alias:])
            lines.append("    except _Finish:")
            lines.append("        pass")
            self.funcs.append("\n".join(lines))
            self.stats["coroutines"] += 1
            self.proc_entries.append(
                f"_CCoroutine(genfunc={name}, label={proc.label!r})")
            return
        # always without a top event control: loop the body forever.
        loop_cost = 50 + low._stmt_cost(body_ast, scope)
        inner = []
        if body_ast is not None:
            self._stmt(body_ast, scope, inner, "            ",
                       coro=True)
        inner.append(f"            rt.charge_always({loop_cost})")
        self._counter += 1
        name = f"_p{self._counter}"
        merged = self._with_aliases(inner, "    ")
        n_alias = len(merged) - len(inner)
        lines = [f"def {name}(rt):"]
        lines.extend(merged[:n_alias])
        lines.append("    try:")
        lines.append("        while True:")
        lines.extend(merged[n_alias:])
        lines.append("    except _Finish:")
        lines.append("        pass")
        lines.append("    return")
        lines.append("    yield None")
        self.funcs.append("\n".join(lines))
        self.stats["coroutines"] += 1
        self.proc_entries.append(
            f"_CCoroutine(genfunc={name}, label={proc.label!r})")

    def _coroutine_proc(self, proc, body_ast, scope: _Scope) -> None:
        """Emit an ``initial`` process: run-once generator that ends
        quietly on ``_Finish``."""
        body: list[str] = []
        if body_ast is not None:
            self._stmt(body_ast, scope, body, "        ", coro=True)
        if not body:
            body = ["        pass"]
        self._counter += 1
        name = f"_p{self._counter}"
        merged = self._with_aliases(body, "    ")
        n_alias = len(merged) - len(body)
        lines = [f"def {name}(rt):"]
        lines.extend(merged[:n_alias])
        lines.append("    try:")
        lines.extend(merged[n_alias:])
        lines.append("    except _Finish:")
        lines.append("        pass")
        lines.append("    return")
        lines.append("    yield None")
        self.funcs.append("\n".join(lines))
        self.stats["coroutines"] += 1
        self.proc_entries.append(
            f"_CCoroutine(genfunc={name}, label={proc.label!r})")

    # -- module assembly -------------------------------------------------

    def render(self, digest: str) -> str:
        """Assemble the generated module source."""
        design = self.design
        sig_rows = []
        for name in self.low.names:
            signal = design.signals[name]
            value = signal.value
            sig_rows.append(
                f"    ({name!r}, {signal.width}, {signal.kind!r}, "
                f"{signal.signed!r}, {signal.msb}, {signal.lsb}, "
                f"{signal.array_lo!r}, {signal.array_hi!r}, "
                f"{value.width}, {value.val}, {value.xz}),")
        pool_rows = [f"    V.Value({v.width}, {v.val}, {v.xz}),"
                     for v in self.pool]
        watch_rows = [f"    {entries!r},"
                      for entries in self.watch_entries]
        req_rows = [f"    {code}," for code in self.req_entries]
        proc_rows = [f"    {entry}," for entry in self.proc_entries]
        parts = [
            f'"""Generated by repro.sim.codegen v{SIM_CODEGEN_VERSION}'
            ' — do not edit."""',
            "",
            "from repro.sim import values as V",
            "from repro.sim.compile import (_CAssign, _CCoroutine,"
            " _CReactive,",
            "    _WatchSpec, CompiledDesign, _case_match as _cm)",
            "from repro.sim.codegen import (_rt_err as _err,"
            " _rt_rand as _rand,",
            "    _rt_neg as _neg, _rt_xmerge as _xm,"
            " _rt_clog2 as _clog2,",
            "    _rt_replc as _replc, _rt_psel as _psel,"
            " _rt_pselg as _pselg,",
            "    _rt_ipsel as _ipsel, _rt_ipselg as _ipselg,"
            " _rt_wsel as _wsel)",
            "from repro.sim.elaborate import Design, Signal",
            "from repro.sim.engine import _Finish",
            "from repro.sim.format import render_spec as _rs",
            "from repro.sim.values import format_value as _fv",
            "",
            f"TOP = {design.top!r}",
            f"DIGEST = {digest!r}",
            "",
            "_signals = {}",
            "for _row in (",
            *sig_rows,
            "):",
            "    _signals[_row[0]] = Signal(",
            "        name=_row[0], width=_row[1], kind=_row[2],",
            "        signed=_row[3], msb=_row[4], lsb=_row[5],",
            "        array_lo=_row[6], array_hi=_row[7],",
            "        value=V.Value(_row[8], _row[9], _row[10]))",
            "_names = list(_signals)",
            "_slots = {_n: _i for _i, _n in enumerate(_names)}",
            "_sigs = [_signals[_n] for _n in _names]",
            "_design = Design(top=TOP, signals=_signals)",
            "",
            "K = (",
            *pool_rows,
            ")",
            "W = tuple(_WatchSpec(_e, _names, _sigs) for _e in (",
            *watch_rows,
            "))",
            "Q = (",
            *req_rows,
            ")",
            "",
            *self.funcs,
            "",
            "_procs = [",
            *proc_rows,
            "]",
            "_i = 0",
            "for _p in _procs:",
            "    if type(_p) is _CAssign:",
            "        _p.index = _i",
            "        _i += 1",
            "",
            f"STATS = {self.stats!r}",
            "",
            "_compiled = CompiledDesign(",
            "    design=_design, top=TOP, names=_names, slots=_slots,",
            "    init_store=[_s.value for _s in _sigs],",
            "    array_slots=tuple(_i for _i, _s in enumerate(_sigs)",
            "                      if _s.is_array),",
            "    procs=_procs, stats=dict(STATS))",
            "",
            "",
            "def build():",
            "    return _compiled",
        ]
        text = "\n".join(parts) + "\n"
        if len(text) > _MAX_MODULE_CHARS:
            raise CompileUnsupported("generated module too large")
        return text


def generate_module(design: Design, digest: str) -> tuple[str, CodeType]:
    """Lower ``design`` once into importable Python module source.

    Returns the source text (what the cache persists) and its code
    object: compiling the text is the syntax check that must pass
    before the source is persisted, and :func:`load_generated` execs
    that same code object instead of compiling the text again.
    Raises :class:`CompileUnsupported` when the design cannot be
    lowered, and counts one compile in :func:`backend_stats` on
    success — loading the persisted source later does *not* count as
    a compile.
    """
    emit = _Emit(design)
    for proc in design.procs:
        emit.emit_proc(proc)
    text = emit.render(digest)
    try:
        code = compile(text, f"<codegen {digest[:12]}>", "exec")
    except SyntaxError as exc:   # pragma: no cover - emitter bug guard
        raise CompileUnsupported(
            f"generated module failed to compile: {exc}") from None
    backend_stats().compiles += 1
    return text, code
