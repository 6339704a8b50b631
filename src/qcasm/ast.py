"""Program syntax trees and elaboration.

A program is an optional parameter/input prelude plus one rule.  Rules come
in six shapes: gate rules (a guarded assignment of a measurement outcome to
a channel variable), classical assignments, classical conditionals,
parallel and sequential compositions, and skip.  Surface programs may also
contain for-loops, binder-style parallel composition ("forall"), and sugar
(bare gates, "output", guards without else, phase prefixes); ``elaborate``
removes all of these and produces a ground program in which every wire is
a concrete integer and every measurement expression is a resolved family.
An elaboration failure carries the ``line:col`` of the innermost rule or
input conjunct being elaborated.

The static well-formedness clauses are checked on ground rules by the
walk that lowers them to a circuit (``circuit.well_formed``); the clause
tags are defined here.

``compile_expr`` is the one compiler of classical expressions; elaboration
compiles each expression node once per ``elaborate`` call and expands
every binder (for-loops, forall rules and input conjuncts) in one place.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Mapping, Union

from . import qmath
from .errors import ElaborationError, QcasmError, QmathError, SimulationError
from .qmath import MeasurementFamily, Registry

# Machine-readable tags for the static well-formedness rules.
CLAUSE_GATE_WIRES_DISTINCT = "gate-wires-distinct"
CLAUSE_PARALLEL_DISJOINT_WIRES = "parallel-disjoint-wires"
CLAUSE_PARALLEL_SIBLING_OUTPUT = "parallel-sibling-output"
CLAUSE_UNBOUND_CHANNEL_VARIABLE = "unbound-channel-variable"
CLAUSE_DUPLICATE_OUTPUT_VARIABLE = "duplicate-output-variable"
CLAUSE_MEASUREMENT_OUTSIDE_GATE_RULE = "measurement-outside-gate-rule"
CLAUSE_ASSIGN_TARGET_NOT_CHANNEL = "assign-target-not-channel"


# ---------------------------------------------------------------------------
# classical expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class Name:
    ident: str


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * mod div xor ^ = < and or
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class UnOp:
    op: str  # - not
    operand: "Expr"


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple["Expr", ...]


Expr = Union[IntLit, Name, BinOp, UnOp, Call]


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# The largest bit length of an integer the classical language makes.
# 2**MAX_INT_BITS has 4 215 decimal digits, so every value stays
# printable under CPython's default limit of 4 300 digits for int-to-text
# conversion.  A process that lowers that limit (PYTHONINTMAXSTRDIGITS,
# -X int_max_str_digits, sys.set_int_max_str_digits) lowers the bound
# with it (``max_int_bits``).
MAX_INT_BITS = 14_000


def int_str_digits() -> int:
    """CPython's limit on the digits of an int converted from or to text;
    0 means no limit (as before Python 3.10.7, which has none)."""
    get = getattr(sys, "get_int_max_str_digits", None)
    return get() if get is not None else 0


def max_int_bits() -> int:
    """The bound on the bit length of an integer: MAX_INT_BITS, or fewer
    bits where the int-to-text limit is lower, so that every value
    prints.  A value of b bits has at most floor(b log10(2)) + 1 digits."""
    digits = int_str_digits()
    return min(MAX_INT_BITS, int((digits - 1) * math.log2(10))) if digits else MAX_INT_BITS


def _too_long(op: str, err, bits: int):
    return err(f"operator {op!r}: result exceeds {bits} bits")


def _bounded(v: int, op: str, err):
    bits = max_int_bits()
    if v.bit_length() > bits:
        raise _too_long(op, err, bits)
    return v


def _apply_binop(op: str, a, b, err=SimulationError):
    if op in ("+", "-", "*", "mod", "div", "xor", "^", "<"):
        if not (_is_int(a) and _is_int(b)):
            raise err(f"operator {op!r} needs integer operands, got {a!r} and {b!r}")
    if op == "+":
        return _bounded(a + b, op, err)
    if op == "-":
        return _bounded(a - b, op, err)
    if op == "*":
        # Nonzero operands of la and lb bits make a product of at least
        # la + lb - 1 bits, so one past the bound is refused uncomputed.
        bits = max_int_bits()
        if a and b and a.bit_length() + b.bit_length() - 1 > bits:
            raise _too_long(op, err, bits)
        return _bounded(a * b, op, err)
    if op == "mod":
        if b == 0:
            raise err("mod by zero")
        return a % b
    if op == "div":
        if b == 0:
            raise err("div by zero")
        return a // b
    if op == "xor":
        if a not in (0, 1) or b not in (0, 1):
            raise err(f"xor needs operands in {{0, 1}}, got {a} and {b}")
        return a ^ b
    if op == "^":
        if b < 0:
            raise err(f"power needs a non-negative exponent, got {b}")
        # |a| >= 2 of l bits makes a power of more than b * (l - 1) bits,
        # so one past the bound is refused uncomputed.
        bits = max_int_bits()
        if abs(a) > 1 and b * (a.bit_length() - 1) >= bits:
            raise _too_long(op, err, bits)
        return _bounded(a**b, op, err)
    if op == "<":
        return a < b
    if op == "=":
        if isinstance(a, bool) != isinstance(b, bool):
            raise err(f"cannot compare {a!r} with {b!r}")
        return a == b
    if op in ("and", "or"):
        if not (isinstance(a, bool) and isinstance(b, bool)):
            raise err(f"operator {op!r} needs boolean operands, got {a!r} and {b!r}")
        return (a and b) if op == "and" else (a or b)
    raise err(f"unknown operator {op!r}")


def _apply_unop(op: str, a, err=SimulationError):
    if op == "-":
        if not _is_int(a):
            raise err(f"unary - needs an integer operand, got {a!r}")
        return -a
    if op == "not":
        if not isinstance(a, bool):
            raise err(f"not needs a boolean operand, got {a!r}")
        return not a
    raise err(f"unknown operator {op!r}")


def _grover_rounds(n_val: int) -> int:
    # floor(pi/4 * sqrt(N)); N must be a power of two.
    if not _is_int(n_val) or n_val < 1 or n_val & (n_val - 1):
        raise ElaborationError(f"grover_rounds needs a power-of-two argument, got {n_val!r}")
    return int(math.floor(math.pi / 4.0 * math.sqrt(n_val)))


STATIC_FUNCTIONS = {"grover_rounds": _grover_rounds}


def _subexpressions(e: Expr):
    """``e`` and every expression inside it."""
    stack = [e]
    while stack:
        e = stack.pop()
        yield e
        if isinstance(e, BinOp):
            stack += (e.left, e.right)
        elif isinstance(e, UnOp):
            stack.append(e.operand)
        elif isinstance(e, Call):
            stack += e.args


def expr_names(e: Expr) -> frozenset[str]:
    """All variable names referenced anywhere in an expression."""
    return frozenset(s.ident for s in _subexpressions(e) if isinstance(s, Name))


def expr_calls(e: Expr) -> frozenset[str]:
    """All function names applied anywhere in an expression."""
    return frozenset(s.fn for s in _subexpressions(e) if isinstance(s, Call))


def _reject_measurement_call(fn: str, registry: Registry) -> None:
    """Raise the measurement-outside-gate-rule error if ``fn`` names a gate
    or measurement the registry knows: classical expressions apply none."""
    if registry.knows_gate(fn):
        raise ElaborationError(f"measurement expression {fn!r} may occur only within a gate rule",
                               clause=CLAUSE_MEASUREMENT_OUTSIDE_GATE_RULE)


def substitute(e: Expr, env: Mapping[str, int]) -> Expr:
    """Replace bound names by integer literals; everything else is kept."""
    if isinstance(e, Name):
        if e.ident in env:
            return IntLit(int(env[e.ident]))
        return e
    if isinstance(e, BinOp):
        return BinOp(e.op, substitute(e.left, env), substitute(e.right, env))
    if isinstance(e, UnOp):
        return UnOp(e.op, substitute(e.operand, env))
    if isinstance(e, Call):
        return Call(e.fn, tuple(substitute(a, env) for a in e.args))
    return e


def compile_expr(e: Expr, err=SimulationError, registry: Registry | None = None
                 ) -> Callable[[Mapping[str, int]], object]:
    """``e`` compiled once into a function of a store that evaluates it:
    operands left to right, combined by ``_apply_binop`` and
    ``_apply_unop``, and every failure raised as ``err``.  Compiling
    never fails; an expression that cannot be evaluated fails when it is
    called.

    Elaboration passes ``ElaborationError`` and a store of parameter and
    loop bindings: a name outside it is not a compile-time constant, and
    only static functions may be called (a gate or measurement name that
    ``registry`` knows is tagged as a measurement used outside a gate
    rule).  Otherwise the store is the classical store at run time, and
    a call reads a dynamic function location.
    """
    static = err is ElaborationError
    if isinstance(e, IntLit):
        value = e.value
        return lambda store: value
    if isinstance(e, Name):
        ident = e.ident

        def name(store):
            if ident in store:
                return store[ident]
            raise err(f"{ident!r} is not a compile-time constant here" if static
                      else f"variable {ident!r} has no value")
        return name
    if isinstance(e, BinOp):
        op = e.op
        left, right = compile_expr(e.left, err, registry), compile_expr(e.right, err, registry)
        return lambda store: _apply_binop(op, left(store), right(store), err)
    if isinstance(e, UnOp):
        op, operand = e.op, compile_expr(e.operand, err, registry)
        return lambda store: _apply_unop(op, operand(store), err)
    if isinstance(e, Call):
        fn, args = e.fn, tuple(compile_expr(a, err, registry) for a in e.args)
        if fn in STATIC_FUNCTIONS:
            static_fn = STATIC_FUNCTIONS[fn]
            return lambda store: static_fn(*[a(store) for a in args])
        if not static:
            def call(store):
                key = dynamic_key(fn, tuple(a(store) for a in args))
                if key in store:
                    return store[key]
                raise err(f"dynamic function value {key!r} has no value")
            return call

        def unknown(store):
            _reject_measurement_call(fn, registry or Registry())
            raise err(f"unknown function {fn!r} in compile-time expression")
        return unknown

    def fail(store):
        raise err(f"cannot evaluate {e!r}")
    return fail


def dynamic_key(name: str, args: tuple = ()) -> str:
    """Classical-store key for a dynamic function location."""
    if not args:
        return name
    return f"{name}({','.join(str(a) for a in args)})"


# ---------------------------------------------------------------------------
# measurement expressions and rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeasurementExpr:
    """Unresolved gate/measurement reference: name, compile-time parameters,
    optional power-of-two exponent (name_pow(e) applies the base 2**e
    times), optional (-1)**phase prefix."""

    name: str
    params: tuple[Expr, ...] = ()
    power: Expr | None = None
    phase: Expr | None = None


@dataclass(frozen=True)
class WireRange:
    """Inclusive wire range lo..hi inside a wire list."""

    lo: Expr
    hi: Expr


@dataclass(frozen=True)
class GateRule:
    """Guarded assignment of a measurement outcome to a channel variable.

    Guard i selects branch i (first true wins); the final branch is the
    default.  Surface rules may omit the default branch and leave ``out``
    unset; ground rules always satisfy len(branches) == len(guards) + 1,
    integer wires, resolved families, and a named output variable.
    """

    guards: tuple[Expr, ...]
    branches: tuple  # MeasurementExpr (surface) or MeasurementFamily (ground)
    wires: tuple  # Expr / WireRange (surface) or int (ground)
    out: str | None
    pos: tuple[int, int] | None = field(default=None, compare=False)


@dataclass(frozen=True)
class ClassicalAssign:
    """target(args) := value, all classical; the target is a dynamic
    function location, never a channel variable."""

    target: str
    target_args: tuple[Expr, ...]
    value: Expr
    pos: tuple[int, int] | None = field(default=None, compare=False)


@dataclass(frozen=True)
class ClassicalCond:
    """Guarded choice among classical rules; branch len(guards) is else."""

    guards: tuple[Expr, ...]
    branches: tuple["Rule", ...]
    pos: tuple[int, int] | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Range:
    lo: Expr
    hi: Expr


@dataclass(frozen=True)
class SetDomain:
    items: tuple[Expr, ...]


@dataclass(frozen=True)
class Binder:
    var: str
    domain: Range | SetDomain


@dataclass(frozen=True)
class Parallel:
    bodies: tuple["Rule", ...]
    binder: Binder | None = None
    pos: tuple[int, int] | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Sequential:
    parts: tuple["Rule", ...]
    pos: tuple[int, int] | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Skip:
    pos: tuple[int, int] | None = field(default=None, compare=False)


@dataclass(frozen=True)
class ForLoop:
    """Surface-only counted loop; elaboration unrolls it sequentially."""

    var: str
    start: Expr
    stop: Expr
    body: "Rule"
    pos: tuple[int, int] | None = field(default=None, compare=False)


Rule = Union[GateRule, ClassicalAssign, ClassicalCond, Parallel, Sequential, Skip, ForLoop]


@dataclass(frozen=True)
class KetState:
    bits: str


@dataclass(frozen=True)
class NamedStateRef:
    name: str
    args: tuple = ()


StateDesc = Union[KetState, NamedStateRef]


@dataclass(frozen=True)
class InputConjunct:
    state: StateDesc
    wires: tuple  # Expr / WireRange (surface) or int (ground)
    binder: Binder | None = None
    pos: tuple[int, int] | None = field(default=None, compare=False)


@dataclass(frozen=True)
class InputDecl:
    conjuncts: tuple[InputConjunct, ...]


@dataclass(frozen=True)
class ParamDecl:
    name: str
    default: int | None = None


@dataclass(frozen=True)
class Program:
    params: tuple[ParamDecl, ...]
    input_decl: InputDecl | None
    body: Rule


def is_ground(r: Rule) -> bool:
    """True for a rule in the form ``elaborate`` makes: no loops or
    binders, integer wires, one resolved family per gate guard plus a
    default, and an else branch on every conditional."""
    if isinstance(r, GateRule):
        return (
            len(r.branches) == len(r.guards) + 1
            and all(isinstance(b, MeasurementFamily) for b in r.branches)
            and all(isinstance(w, int) for w in r.wires)
        )
    if isinstance(r, ClassicalCond):
        return len(r.branches) == len(r.guards) + 1 and all(map(is_ground, r.branches))
    if isinstance(r, Parallel):
        return r.binder is None and all(map(is_ground, r.bodies))
    if isinstance(r, Sequential):
        return all(map(is_ground, r.parts))
    return isinstance(r, (ClassicalAssign, Skip))


# ---------------------------------------------------------------------------
# elaboration
# ---------------------------------------------------------------------------

def _merge_bindings(params: tuple[ParamDecl, ...], bindings: Mapping[str, int] | None) -> dict[str, int]:
    bound = dict(bindings or {})
    env: dict[str, int] = {}
    for decl in params:
        if decl.name in bound:
            env[decl.name] = int(bound.pop(decl.name))
        elif decl.default is not None:
            env[decl.name] = int(decl.default)
        else:
            raise ElaborationError(f"parameter {decl.name!r} is not bound and has no default")
    if bound:
        raise ElaborationError(f"unknown parameter(s) bound: {sorted(bound)}")
    return env


def _locate(exc: QcasmError, pos: tuple[int, int] | None) -> None:
    """Give ``exc`` the position ``pos`` unless it has one already: the
    innermost rule or input conjunct that fails sets it first."""
    if exc.line is None and pos is not None:
        exc.line, exc.column = pos


class _Elaborator:
    def __init__(self, registry: Registry | None, params: frozenset[str]):
        self.registry = registry if registry is not None else Registry()
        # The program's parameter names, which no gate output may take.
        self.params = params
        # Each family this elaboration has built (and checked once), keyed
        # by its evaluated name, parameters and power; all gates that use
        # it share the one immutable object.  It lives for one elaborate()
        # call, as the registry may change between calls.
        self.families: dict[tuple, MeasurementFamily] = {}
        # Each expression node compiled once, keyed by id; the entry holds
        # the node, so its id is not reused while the entry lives.
        self.compiled: dict[int, tuple[Expr, Callable]] = {}

    def memo(self, key: tuple, build) -> MeasurementFamily:
        fam = self.families.get(key)
        if fam is None:
            fam = self.families[key] = build()
        return fam

    def eval(self, e: Expr, env) -> int:
        entry = self.compiled.get(id(e))
        if entry is None:
            entry = self.compiled[id(e)] = (e, compile_expr(e, ElaborationError, self.registry))
        v = entry[1](env)
        if not _is_int(v):
            raise ElaborationError(f"expected an integer, got {v!r}")
        return v

    def wires(self, items, env) -> tuple[int, ...]:
        out: list[int] = []
        for item in items:
            if isinstance(item, WireRange):
                lo = self.eval(item.lo, env)
                hi = self.eval(item.hi, env)
                out.extend(range(lo, hi + 1))
            elif isinstance(item, int):
                out.append(item)
            else:
                out.append(self.eval(item, env))
        for w in out:
            if w < 1:
                raise ElaborationError(f"wire indices must be >= 1, got {w}")
            if w > qmath.MAX_WIDTH:
                raise ElaborationError(f"wire {w} exceeds the maximum width {qmath.MAX_WIDTH}")
        return tuple(out)

    def runtime_expr(self, e: Expr, env) -> Expr:
        """Substitute compile-time names and vet calls in a run-time expression."""
        e = substitute(e, env)
        for fn in sorted(expr_calls(e) - STATIC_FUNCTIONS.keys()):
            _reject_measurement_call(fn, self.registry)
        return e

    def family(self, mexpr: MeasurementExpr, env,
               arity: int) -> tuple[tuple, MeasurementFamily]:
        """Resolve a measurement expression to its memo key and family."""
        params = tuple(self.eval(p, env) for p in mexpr.params)
        key = ("family", mexpr.name, params)
        fam = self.memo(key, lambda: self.registry.family(mexpr.name, params))
        if mexpr.power is not None:
            e = self.eval(mexpr.power, env)
            if e < 0:
                raise ElaborationError(f"{mexpr.name}: power exponent must be >= 0, got {e}")
            base, key = fam, key + (e,)
            fam = self.memo(key, lambda: qmath.family_power(base, 2**e))
        if fam.arity != arity:
            raise ElaborationError(
                f"{fam.name} acts on {fam.arity} wire(s) but is applied to {arity}"
            )
        return key, fam

    def gate(self, r: GateRule, env) -> GateRule:
        wires = self.wires(r.wires, env)
        arity = len(wires)
        if len(r.branches) not in (len(r.guards), len(r.guards) + 1):
            raise ElaborationError("conditional gate has mismatched guards and branches")
        entries: list[tuple[Expr | None, MeasurementFamily]] = []
        branch_guards = list(r.guards) + [None] * (len(r.branches) - len(r.guards))
        for guard, branch in zip(branch_guards, r.branches):
            guard_expr = self.runtime_expr(guard, env) if guard is not None else None
            if isinstance(branch, MeasurementFamily):
                entries.append((guard_expr, branch))
                continue
            key, base = self.family(branch, env, arity)
            if branch.phase is not None:
                phase = self.runtime_expr(branch.phase, env)
                even = BinOp("=", BinOp("mod", phase, IntLit(2)), IntLit(0))
                even_guard = even if guard_expr is None else BinOp("and", guard_expr, even)
                entries.append((even_guard, base))
                entries.append((guard_expr, self.memo(
                    ("negated", key),
                    lambda: qmath.scaled_family(base, -1.0, name=f"-{base.name}"))))
            else:
                entries.append((guard_expr, base))
        if entries[-1][0] is not None:
            entries.append((None, self.memo(("identity", arity),
                                            lambda: qmath.identity_family(arity))))
        guards = tuple(g for g, _ in entries[:-1])
        if any(g is None for g in guards):
            raise ElaborationError("conditional gate has a non-final default branch")
        if r.out in self.params:
            raise ElaborationError(f"output variable {r.out!r} collides with a parameter name")
        return GateRule(guards, tuple(f for _, f in entries), wires, r.out, pos=r.pos)

    def rule(self, r: Rule, env) -> Rule:
        try:
            if isinstance(r, GateRule):
                return self.gate(r, env)
            if isinstance(r, ClassicalAssign):
                return ClassicalAssign(
                    r.target,
                    tuple(self.runtime_expr(a, env) for a in r.target_args),
                    self.runtime_expr(r.value, env),
                    pos=r.pos,
                )
            if isinstance(r, ClassicalCond):
                guards = tuple(self.runtime_expr(g, env) for g in r.guards)
                branches = [self.rule(b, env) for b in r.branches]
                if len(branches) == len(guards):
                    branches.append(Skip())
                if len(branches) != len(guards) + 1:
                    raise ElaborationError("conditional has mismatched guards and branches")
                return ClassicalCond(guards, tuple(branches), pos=r.pos)
            if isinstance(r, Parallel):
                bodies = [self.rule(b, sub) for sub in self.envs(r.binder, env) for b in r.bodies]
                return self.compose(Parallel, bodies, r.pos)
            if isinstance(r, Sequential):
                return self.compose(Sequential, [self.rule(p, env) for p in r.parts], r.pos)
            if isinstance(r, ForLoop):
                loop = Binder(r.var, Range(r.start, r.stop))
                parts = [self.rule(r.body, sub) for sub in self.envs(loop, env)]
                return self.compose(Sequential, parts, r.pos)
            if isinstance(r, Skip):
                return r
        except (ElaborationError, QmathError) as exc:
            _locate(exc, r.pos)
            raise
        raise ElaborationError(f"cannot elaborate {type(r).__name__}")

    @staticmethod
    def compose(cls, parts, pos):
        # Skip is the unit of both compositions: drop it, collapse singletons.
        kept = [p for p in parts if not isinstance(p, Skip)]
        if not kept:
            return Skip(pos=pos)
        if len(kept) == 1:
            return kept[0]
        return cls(tuple(kept), pos=pos)

    def envs(self, binder: Binder | None, env):
        """``env`` extended by each value of the binder's domain, in order
        (a Range is inclusive), or ``env`` alone with no binder.  The
        domain is evaluated at once, each environment made as it is used."""
        if binder is None:
            return (env,)
        domain = binder.domain
        if isinstance(domain, Range):
            values = range(self.eval(domain.lo, env), self.eval(domain.hi, env) + 1)
        else:
            values = [self.eval(item, env) for item in domain.items]
        return ({**env, binder.var: v} for v in values)

    def state_desc(self, desc: StateDesc, env) -> StateDesc:
        if isinstance(desc, KetState):
            return desc
        args = tuple(a if _is_int(a) else self.eval(a, env) for a in desc.args)
        return NamedStateRef(desc.name, args)

    def state_width(self, desc: StateDesc) -> int | None:
        """Qubit count of a ground descriptor, or None if not resolvable yet."""
        if isinstance(desc, KetState):
            return len(desc.bits)
        if desc.name == "bit":
            if len(desc.args) != 1 or desc.args[0] not in (0, 1):
                raise ElaborationError(f"bit(..) takes a single 0/1 argument, got {desc.args}")
            return 1
        if desc.args:
            raise ElaborationError(f"state {desc.name!r} takes no arguments")
        amps = self.registry.states.get(desc.name)
        if amps is None:
            amps = qmath.BUILTIN_STATES.get(desc.name)
        if amps is None:
            return None
        return int(math.log2(len(amps)))

    def input_decl(self, decl: InputDecl | None, env) -> InputDecl | None:
        if decl is None:
            return None
        conjuncts: list[InputConjunct] = []
        used: set[int] = set()
        for c in decl.conjuncts:
            try:
                for sub in self.envs(c.binder, env):
                    state, wires = self.state_desc(c.state, sub), self.wires(c.wires, sub)
                    m = self.state_width(state)
                    if m is not None and m != len(wires):
                        raise ElaborationError(f"input state covers {m} wire(s) but is "
                                               f"declared on {len(wires)}")
                    if len(set(wires)) != len(wires):
                        raise ElaborationError(f"input declaration repeats wires {wires}")
                    if used & set(wires):
                        raise ElaborationError(
                            f"input declaration wires overlap at {sorted(used & set(wires))}")
                    used |= set(wires)
                    conjuncts.append(InputConjunct(state, wires, pos=c.pos))
            except (ElaborationError, QmathError) as exc:
                _locate(exc, c.pos)
                raise
        return InputDecl(tuple(conjuncts)) if conjuncts else None


def elaborate(program: Program, bindings: Mapping[str, int] | None = None,
              registry: Registry | None = None) -> Program:
    """Reduce a program to ground form.

    Parameters are substituted from defaults and ``bindings``; loops are
    unrolled (empty ranges become skip); binder parallels and input binders
    are expanded; guard sugar gains an identity default branch; phase
    prefixes become explicit guard branches; measurement expressions are
    resolved against the registry.  The result is ground (``is_ground``),
    which ``sim.prepare`` relies on unchecked.  A gate output that names a
    parameter is rejected.  Elaborating a ground program is the identity.
    """
    env = _merge_bindings(program.params, bindings)
    elab = _Elaborator(registry, frozenset(env))
    body = elab.rule(program.body, env)
    return Program((), elab.input_decl(program.input_decl, env), body)

