"""Executing programs on a dense state-vector simulator.

A prepared program pairs the lowered circuit with a schedule; each
execution builds the declared input state afresh.  Execution walks the
schedule bout by bout; inside a bout gates fire in ascending id order.
Firing a gate (``fire``) evaluates its guards against the classical
store, selects a measurement family and applies each of its outcome
operators once.  One depth-first walk of the outcome tree then follows
one sampled outcome (``run``), every outcome above the floor
(``enumerate_branches``) or the only one (``program_unitary``, which
walks the basis columns in 4 to 8 blocks, each block's columns indexed
by extra trailing wires of one state).  After the last gate the
classical rules of the program run: sequential parts apply in order,
parallel parts all read the same snapshot and their writes must agree.

Sampling draws one uniform variate per gate from ``random.Random(seed)``
(a fixed, platform-independent generator) and inverts the outcome CDF in
label order, so runs are reproducible byte for byte.  Enumeration prunes
branches of probability below 1e-12 (or the caller's ``min_prob``) and
reports the pruned mass alongside the surviving branches.
"""
from __future__ import annotations

import json
import math
import random
import weakref
from dataclasses import dataclass, field, replace

import numpy as np

from . import ast
from . import circuit as circuit_mod
from .circuit import Gate, GeneralizedCircuit, Gid, Schedule
from .errors import ImpossibleBranchError, SimulationError
from .qmath import (ATOL, PRUNE_EPS, MAX_WIDTH, MeasurementFamily, OutcomeVector,
                    QuantumState, Registry, collapse, make_state, outcome_vectors,
                    outcome_vectors_into, post_state, post_vector)

DEFAULT_MAX_BRANCHES = 2**20
UNITARY_MAX_WIDTH = 12
SAMPLE_CACHE_BYTES = 64 * 2**20  # states kept by the sample_distribution trie


@dataclass(frozen=True)
class QueryTraceEntry:
    """One fired gate: bout number, family applied, wires, outcome label."""
    step: int
    mq: str
    wq: tuple[int, ...]
    answer: int


@dataclass
class RunResult:
    state: QuantumState
    store: dict[str, int]
    outcomes: tuple[tuple[Gid, int], ...]
    trace: tuple[QueryTraceEntry, ...]
    probability: float
    schedule: Schedule


@dataclass
class Branch:
    outcomes: tuple[tuple[Gid, int], ...]
    store: dict[str, int]
    probability: float
    state: QuantumState
    trace: tuple[QueryTraceEntry, ...]


@dataclass
class Enumeration:
    branches: tuple[Branch, ...]
    pruned_mass: float

    @property
    def total_probability(self) -> float:
        return sum(b.probability for b in self.branches)

    def named(self) -> dict[tuple[tuple[str, int], ...], float]:
        """Probability of each assignment to the named outcome variables."""
        acc: dict[tuple[tuple[str, int], ...], float] = {}
        for b in self.branches:
            key = tuple(sorted((k, v) for k, v in b.store.items()))
            acc[key] = acc.get(key, 0.0) + b.probability
        return acc


@dataclass
class PreparedProgram:
    """A ground program, its circuit and a checked schedule, in firing
    order.  It holds no state vector, so it is cheap to keep and reuse."""
    program: ast.Program
    registry: Registry
    circuit: GeneralizedCircuit
    schedule: Schedule
    firing: tuple[tuple[int, Gate], ...] = field(init=False, repr=False)

    def __post_init__(self):
        circuit_mod.check_schedule(self.circuit, self.schedule)
        self.firing = tuple((step, self.circuit.gate(gid))
                            for step, bout in enumerate(self.schedule, start=1)
                            for gid in bout)

    def input_state(self) -> QuantumState:
        """The declared input state, built afresh on each call."""
        return initial_state(self.program, self.registry, self.circuit.width)

    def with_schedule(self, schedule: Schedule) -> PreparedProgram:
        """The same program fired in another (checked) schedule."""
        return replace(self, schedule=schedule)


def initial_state(program: ast.Program, registry: Registry | None = None,
                  width: int | None = None) -> QuantumState:
    """Tensor the declared conjunct states together (undeclared wires
    start in |0>) and permute to wire order."""
    registry = registry if registry is not None else Registry()
    if width is None:
        width = ast.program_width(program)
    if width > MAX_WIDTH:
        raise SimulationError(f"width {width} exceeds the {MAX_WIDTH}-wire limit")
    seq: list[int] = []
    amps = np.ones(1, dtype=np.complex128)
    conjuncts = program.input_decl.conjuncts if program.input_decl else ()
    for c in conjuncts:
        block = _conjunct_state(c, registry)
        for w in c.wires:
            if not isinstance(w, int):
                raise SimulationError("input declaration is not ground")
            if w in seq:
                raise SimulationError(f"wire {w} declared twice in the input")
            if not 1 <= w <= width:
                raise SimulationError(f"declared wire {w} outside 1..{width}")
            seq.append(w)
        amps = np.kron(amps, block.amplitudes)
    for w in range(1, width + 1):
        if w not in seq:
            seq.append(w)
            amps = np.kron(amps, np.array([1.0, 0.0], dtype=np.complex128))
    tensor = amps.reshape((2,) * width)
    axes = [seq.index(w) for w in range(1, width + 1)]
    return QuantumState(width, tensor.transpose(axes).reshape(-1))


def _conjunct_state(c: ast.InputConjunct, registry: Registry) -> QuantumState:
    s = c.state
    if isinstance(s, ast.KetState):
        return make_state(s.bits, len(s.bits))
    if isinstance(s, ast.NamedStateRef):
        if s.name == "bit":
            if len(s.args) != 1 or s.args[0] not in (0, 1):
                raise SimulationError("bit(e) takes a single 0/1 argument")
            return make_state(str(s.args[0]), 1)
        if s.args:
            raise SimulationError(f"state {s.name!r} takes no arguments")
        return make_state(s.name, len(c.wires), registry)
    raise SimulationError(f"cannot build state from {s!r}")


def prepare(program: ast.Program, bindings: dict | None = None,
            registry: Registry | None = None,
            schedule: Schedule | None = None) -> PreparedProgram:
    """Elaborate (if needed), lower and schedule (greedily by default):
    the one path from a program to the circuit that the simulator fires."""
    registry = registry if registry is not None else Registry()
    if program.params or not ast.is_ground(program.body):
        program = ast.elaborate(program, bindings or {}, registry)
    circ, tree = circuit_mod._lower(program)
    if schedule is None:
        schedule = circuit_mod.greedy_schedule(circ, tree)
    return PreparedProgram(program, registry, circ, schedule)


def _prepared(program: ast.Program | PreparedProgram, bindings: dict | None,
              registry: Registry | None, schedule: Schedule | None) -> PreparedProgram:
    if not isinstance(program, PreparedProgram):
        return prepare(program, bindings, registry, schedule)
    if bindings or registry is not None:
        raise SimulationError("a prepared program takes no bindings or registry")
    return program if schedule is None else program.with_schedule(schedule)


# ---------------------------------------------------------------------------
# firing gates
# ---------------------------------------------------------------------------

def _guard_value(e: ast.Expr, store) -> bool:
    v = ast.eval_runtime(e, store)
    if not isinstance(v, bool):
        raise SimulationError(f"guard value must be a truth value, got {v!r}")
    return v


def _family(gate: Gate, store) -> MeasurementFamily:
    """The family ``gate`` applies: the first whose guard holds, else the last."""
    return next((f for g, f in zip(gate.guards, gate.families) if _guard_value(g, store)),
                gate.families[-1])


def fire(state: QuantumState, gate: Gate,
         store) -> tuple[MeasurementFamily, tuple[OutcomeVector, ...]]:
    """Fire ``gate`` on ``state``: select its family and compute A_i |s>
    once per outcome.  Only the outcomes taken are normalized into a
    state (``qmath.post_state``)."""
    fam = _family(gate, store)
    return fam, outcome_vectors(state, fam, gate.wires)


def _pick(outcomes, u: float):
    """Invert the outcome CDF at u over (label, probability, ...) entries.
    A label of probability <= PRUNE_EPS is never chosen: u in its mass
    goes to the previous positive label, or the next if none precedes."""
    cum = 0.0
    chosen = None
    for entry in outcomes:
        cum += entry[1]
        if entry[1] > PRUNE_EPS:
            chosen = entry
        if u < cum and chosen is not None:
            return chosen
    if chosen is None:
        raise ImpossibleBranchError("every outcome of the family has zero probability")
    return chosen


# ---------------------------------------------------------------------------
# the classical pass
# ---------------------------------------------------------------------------

def _classical_updates(r: ast.Rule, store: dict) -> dict:
    if isinstance(r, (ast.GateRule, ast.Skip)):
        return {}
    if isinstance(r, ast.ClassicalAssign):
        args = []
        for a in r.target_args:
            v = ast.eval_runtime(a, store)
            if isinstance(v, bool) or not isinstance(v, int):
                raise SimulationError("dynamic function arguments must be integers")
            args.append(v)
        key = ast.dynamic_key(r.target, tuple(args))
        return {key: ast.eval_runtime(r.value, store)}
    if isinstance(r, ast.ClassicalCond):
        for g, b in zip(r.guards, r.branches):
            if _guard_value(g, store):
                return _classical_updates(b, store)
        if len(r.branches) > len(r.guards):
            return _classical_updates(r.branches[-1], store)
        return {}
    if isinstance(r, ast.Sequential):
        current = dict(store)
        acc: dict = {}
        for p in r.parts:
            up = _classical_updates(p, current)
            current.update(up)
            acc.update(up)
        return acc
    if isinstance(r, ast.Parallel):
        acc = {}
        for b in r.bodies:
            up = _classical_updates(b, store)
            for k, v in up.items():
                if k in acc and acc[k] != v:
                    raise SimulationError(f"parallel rules write different values to {k!r}")
            acc.update(up)
        return acc
    raise SimulationError(f"cannot execute rule {type(r).__name__}")


def _run_classical(program: ast.Program, store: dict) -> dict:
    out = dict(store)
    out.update(_classical_updates(program.body, out))
    return out


# ---------------------------------------------------------------------------
# run / enumerate / sample
# ---------------------------------------------------------------------------

def _scratch(spare: np.ndarray | None, size: int) -> np.ndarray:
    """The buffer that ``_walk`` writes its next outcome into: the array
    that a gate left dead, else a new one."""
    return np.empty(size, np.complex128) if spare is None else spare


def _walk(prep: PreparedProgram, state: QuantumState, follow):
    """Walk the outcome tree from ``state`` depth first on an explicit
    stack.  At each gate ``follow(gate, family, outcomes, probability)``
    returns, in label order, each outcome to follow or the path mass (a
    float) of one cut off.  Yields cut masses and leaves (state, store,
    probability, path) in visiting order; a path is the linked tuple
    (path, step, gate, family name, label), ending in None.

    The caller builds ``state`` for the walk and hands it over.  Each
    stack entry owns its amplitude array: a single-outcome diagonal
    scales it in place, any other outcome is written into a scratch
    buffer, and the array that gate read, now dead, is the next scratch
    (``qmath.outcome_vectors_into``).  A leaf's array is frozen when it
    is yielded and is never written again."""
    firing = prep.firing
    width = state.width
    amps = state.amplitudes
    amps.setflags(write=True)
    spare = None

    def scratch() -> np.ndarray:
        nonlocal spare
        buf, spare = _scratch(spare, 2**width), None
        return buf

    stack: list = [(0, amps, {}, 1.0, None)]
    while stack:
        node = stack.pop()
        if isinstance(node, float):
            yield node
            continue
        k, amps, store, prob, path = node
        if k == len(firing):
            yield QuantumState._unchecked(width, amps), store, prob, path
            continue
        step, gate = firing[k]
        fam = _family(gate, store)
        outs = outcome_vectors_into(amps, width, fam, gate.wires, scratch)
        if outs[0].vector is not amps:
            spare = amps
        for out in reversed(follow(gate, fam, outs, prob)):
            stack.append(out if isinstance(out, float) else (
                k + 1, post_vector(fam, out),
                store if gate.out is None else {**store, gate.out: out.label},
                prob * out.probability, (path, step, gate, fam.name, out.label)))
        outs = out = None  # drop the outcome vectors before the next gate fires


def _branch(prep: PreparedProgram, leaf) -> Branch:
    """A leaf of ``_walk`` with its outcomes, trace and classical pass."""
    state, store, prob, path = leaf
    outcomes, trace = [], []
    while path is not None:
        path, step, gate, name, label = path
        outcomes.append((gate.gid, label))
        trace.append(QueryTraceEntry(step, name, gate.wires, label))
    return Branch(tuple(sorted(outcomes)), _run_classical(prep.program, store),
                  prob, state, tuple(reversed(trace)))


def run(program: ast.Program | PreparedProgram, seed: int = 0,
        bindings: dict | None = None, registry: Registry | None = None,
        schedule: Schedule | None = None) -> RunResult:
    """One seeded sampling run."""
    prep = _prepared(program, bindings, registry, schedule)
    draw = random.Random(seed).random
    b = _branch(prep, next(_walk(prep, prep.input_state(),
                                 lambda gate, fam, outs, prob: [_pick(outs, draw())])))
    return RunResult(b.state, b.store, b.outcomes, b.trace, min(b.probability, 1.0),
                     prep.schedule)


def enumerate_branches(program: ast.Program | PreparedProgram,
                       bindings: dict | None = None,
                       registry: Registry | None = None,
                       schedule: Schedule | None = None,
                       min_prob: float = 0.0,
                       max_branches: int = DEFAULT_MAX_BRANCHES) -> Enumeration:
    """Every outcome assignment of positive probability, in firing order.

    A branch is pruned (its mass accumulated, not explored) when its
    probability falls below max(min_prob, 1e-12).
    """
    return _enumerate(_prepared(program, bindings, registry, schedule),
                      min_prob, max_branches)


def _enumerate(prep: PreparedProgram, min_prob: float = 0.0,
               max_branches: int = DEFAULT_MAX_BRANCHES) -> Enumeration:
    floor = max(min_prob, 0.0)

    def follow(gate, fam, outs, prob):
        return [prob * out.probability
                if out.probability <= PRUNE_EPS or prob * out.probability < floor
                else out for out in outs]

    branches: list[Branch] = []
    pruned = 0.0  # summed in visiting order, which fixes its last bits
    for leaf in _walk(prep, prep.input_state(), follow):
        if isinstance(leaf, float):
            pruned += leaf
            continue
        branches.append(_branch(prep, leaf))
        if len(branches) > max_branches:
            raise SimulationError(f"more than {max_branches} branches; "
                                  f"raise min_prob or max_branches")
    branches.sort(key=lambda b: b.outcomes)
    return Enumeration(tuple(branches), pruned)


@dataclass(eq=False)
class _Node:
    """A sampler-trie node: an outcome prefix and the gate fired after it.
    The prefix is the linked path of (gid, label) pairs up to the root."""
    parent: weakref.ref | None         # weak: a finished trie has no cycles to collect
    gid: Gid | None                    # the gate whose outcome ``label`` is
    label: int | None
    store: dict
    key: tuple | None = None           # at a leaf, the sorted (gid, label) outcomes
    state: QuantumState | None = None  # the pre-gate state, while cached
    fired: tuple | None = None         # (gate, family, (label, probability) per outcome)
    missing: int = 0                   # positive-probability children not yet built
    children: dict = field(default_factory=dict)
    jump: tuple | None = None          # (gates crossed, node) past a forced run


def sample_distribution(program: ast.Program | PreparedProgram, shots: int,
                        seed: int = 0, bindings: dict | None = None,
                        registry: Registry | None = None,
                        schedule: Schedule | None = None) -> dict:
    """Outcome-assignment counts over ``shots`` runs; shot k uses seed
    ``seed + k``, so a single shot reproduces ``run(program, seed)``.

    Shots walk a trie of outcome prefixes: each new prefix costs one gate
    firing on a cached state, a repeat shot one random draw per gate.  A
    node keeps its state until all its positive-probability children
    exist, within ``SAMPLE_CACHE_BYTES``; beyond that budget a state is
    replayed, with the same floats, from its deepest cached ancestor.
    A forced node (one outcome of positive probability, e.g. a unitary
    gate) always takes that outcome, so once its child exists it jumps
    past the whole run of forced nodes that follows: a later shot makes
    the run's draws, one per gate, and moves to its end in one step."""
    prep = _prepared(program, bindings, registry, schedule)
    gates = [gate for _step, gate in prep.firing]
    initial = prep.input_state()
    root = _Node(None, None, None, {})
    cached = 0
    counts: dict[tuple[tuple[Gid, int], ...], int] = {}

    def replay(node: _Node) -> QuantumState:
        path = []
        while node.state is None and node.parent is not None:
            path.append(node)
            node = node.parent()
        state = node.state or initial
        for child in reversed(path):
            gate, fam, _table = node.fired
            state = collapse(state, fam, gate.wires, child.label)
            node = child
        return state

    for k in range(shots):
        draw = random.Random(seed + k).random
        node, state, i = root, initial, 0
        while i < len(gates):
            if node.jump is not None:
                steps, target = node.jump
                while target.jump is not None:  # runs joined since the jump was set
                    more, target = target.jump
                    steps += more
                node.jump = (steps, target)
                for _ in range(steps):
                    draw()
                node, i = target, i + steps
                continue
            gate = gates[i]
            outs = None
            forced = False
            if node.fired is None:
                fam, outs = fire(state, gate, node.store)
                node.fired = (gate, fam, tuple((o.label, o.probability) for o in outs))
                node.missing = sum(o.probability > PRUNE_EPS for o in outs)
                forced = node.missing == 1
                if node.missing > 1 and cached + state.amplitudes.nbytes <= SAMPLE_CACHE_BYTES:
                    node.state = state
                    cached += state.amplitudes.nbytes
            _gate, fam, table = node.fired
            taken = _pick(table if outs is None else outs, draw())
            label = taken[0]
            child = node.children.get(label)
            if child is None:
                state = post_state(state, fam, taken) if outs is not None else \
                    collapse(replay(node), fam, gate.wires, label)
                store = node.store if gate.out is None else {**node.store, gate.out: label}
                child = node.children[label] = _Node(weakref.ref(node), gate.gid, label, store)
                node.missing -= 1
                if node.missing == 0 and node.state is not None:
                    cached -= node.state.amplitudes.nbytes
                    node.state = None
            if forced:
                node.jump = (1, child)
            node, i = child, i + 1
        if node.key is None:
            key, up = [], node
            while up is not root:
                key.append((up.gid, up.label))
                up = up.parent()
            node.key = tuple(sorted(key))
        counts[node.key] = counts.get(node.key, 0) + 1
    return counts


def check_schedule_independence(program: ast.Program | PreparedProgram,
                                bindings: dict | None = None,
                                registry: Registry | None = None,
                                schedules: list[Schedule] | None = None,
                                min_prob: float = 0.0,
                                atol: float = ATOL) -> int:
    """Enumerate under every schedule and require identical branch sets:
    same outcome assignments, probabilities within atol, equal stores,
    and amplitude-wise equal final states.  Returns the number of
    schedules checked; raises SimulationError on any disagreement."""
    prep = _prepared(program, bindings, registry, None)
    if schedules is None:
        schedules = circuit_mod.all_schedules(prep.circuit)
    if not schedules:
        raise SimulationError("no schedules to compare")
    reference: dict | None = None
    for schedule in schedules:
        enum = _enumerate(prep.with_schedule(schedule), min_prob)
        table = {b.outcomes: b for b in enum.branches}
        if len(table) != len(enum.branches):
            raise SimulationError("duplicate outcome assignment within one schedule")
        if reference is None:
            reference = table
            continue
        if set(table) != set(reference):
            raise SimulationError(
                f"schedule {schedule} produces a different set of outcome assignments")
        for key, b in table.items():
            r = reference[key]
            if abs(b.probability - r.probability) > atol:
                raise SimulationError(
                    f"branch {key}: probability {b.probability} != {r.probability}")
            if b.store != r.store:
                raise SimulationError(f"branch {key}: classical stores differ")
            if not np.allclose(b.state.amplitudes, r.state.amplitudes, atol=atol):
                raise SimulationError(f"branch {key}: final states differ")
    return len(schedules)


def program_unitary(program: ast.Program | PreparedProgram, bindings: dict | None = None,
                    registry: Registry | None = None) -> np.ndarray:
    """The composite operator of a measurement-free program, as a dense
    matrix over all 2**width basis states (width at most 12).  The input
    declaration is ignored; guards are evaluated against the outcomes of
    earlier (necessarily single-outcome) gates.

    Columns are computed in blocks of 2**b, b the largest even number at
    most width - 2 (so 4 or 8 blocks; one column per block below width
    4).  The block starting at column s is one walk of the state
    sum_j 2**(-b/2) |s+j>|j> on width + b wires: the gates act on wires
    1..width and the b trailing wires index the column.  Both scale
    factors are powers of two, so each column gets the floats of its
    own walk (but for the last bit of a dense operator on several wires,
    which BLAS may block differently over the wider operand), and a
    walk's states are at most a quarter of the matrix."""
    prep = _prepared(program, bindings, registry, None)
    width = prep.circuit.width
    if width > UNITARY_MAX_WIDTH:
        raise SimulationError(
            f"composite operator needs width <= {UNITARY_MAX_WIDTH}, got {width}")

    def only(gate, fam, outs, prob):
        if len(outs) != 1:
            raise SimulationError(
                f"gate {gate.label} measures ({fam.name} has "
                f"{len(outs)} outcomes); the program has no composite operator")
        return outs

    b = max(0, (width - 2) // 2 * 2)
    dim, cols = 2**width, 2**b
    diag = np.arange(cols)
    out = np.empty((dim, dim), np.complex128)
    for s in range(0, dim, cols):
        block = np.zeros((dim, cols), np.complex128)
        block[s + diag, diag] = 2.0 ** -(b // 2)
        leaf = next(_walk(prep, QuantumState._unchecked(width + b, block.reshape(-1)), only))
        # scaled as (re, im) floats: a complex product would drop the
        # sign of a zero imaginary part
        np.multiply(leaf[0].amplitudes.view(np.float64).reshape(dim, 2 * cols),
                    2.0 ** (b // 2), out=out.view(np.float64)[:, 2 * s:2 * (s + cols)])
        block = leaf = None  # free the last walk's states before the next block
    return out


# ---------------------------------------------------------------------------
# JSON rendering (floats carry 17 significant digits, '%.17g').  The
# document is built as one list of pieces, joined once.  State vectors
# stay (2**w, 2) float arrays of (re, im) rows.  A first walk (_render)
# leaves a slot for the rows of each such "pair array"; then the rows of
# all pair arrays of the document are formatted in one pass, in blocks of
# at most EMIT_CHUNK_ROWS rows (small arrays share a block, large ones
# span several), so no temporary grows with the state.  The text equals
# that of the same rows as nested lists, since a pair of '%.17g' floats
# always fits the one-line limit.
#
# A block is formatted by numpy (floatfmt.format_floats), not by one
# '%.17g' call per float; the few values it cannot settle are formatted
# by '%.17g' here.  floatfmt is imported on the first block, so a process
# that emits no pair array does not load it.
# ---------------------------------------------------------------------------

EMIT_CHUNK_ROWS = 1024


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise SimulationError("cannot serialize a non-finite number")
    return format(float(x), ".17g")


def emit_json(obj, indent: int = 0) -> str:
    pieces: list[str] = []
    arrays: list[tuple[int, np.ndarray, str]] = []
    pieces.append(_render(obj, indent, pieces, "", arrays))
    texts = _pair_array_texts(arrays)
    for (slot, _, _), text in zip(reversed(arrays), reversed(texts)):
        pieces[slot:slot + 1] = text
    return "".join(pieces)


def _render(obj, indent: int, out: list[str], lead: str, arrays: list) -> str:
    """Append the JSON text of ``obj``, after the text ``lead``, to
    ``out`` and return its closing brackets, which the caller writes
    before its next piece: so each piece is one leaf (a scalar, a short
    list, or the slot for the rows of a pair array) with the punctuation
    before it.  A pair array's slot is recorded in ``arrays`` as (index
    in ``out``, array, row indent)."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            out.append(lead + "{}")
            return ""
        sep = "{\n"
        for k, v in obj.items():
            lead = _render(v, indent + 1, out, f"{lead}{sep}{inner}{json.dumps(str(k))}: ",
                           arrays)
            sep = ",\n"
        return lead + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if any(isinstance(v, (dict, list, tuple, np.ndarray)) for v in obj):
            sep = "[\n"
            for v in obj:
                lead = _render(v, indent + 1, out, lead + sep + inner, arrays)
                sep = ",\n"
            return lead + "\n" + pad + "]"
        parts = [_scalar_json(v) for v in obj]
        if sum(len(s) for s in parts) < 72:
            out.append(lead + "[" + ", ".join(parts) + "]")
        else:
            out.append(lead + "[\n" + ",\n".join(inner + s for s in parts) + "\n" + pad + "]")
        return ""
    if isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.shape[1] == 2 \
            and obj.dtype.kind == "f":
        if not obj.size:
            out.append(lead + "[]")
            return ""
        with np.errstate(over="ignore"):  # a longdouble past the double range becomes inf
            obj = obj.astype(np.float64, copy=False)
        if not np.isfinite(obj).all():
            raise SimulationError("cannot serialize a non-finite number")
        out.append(lead + "[\n")
        arrays.append((len(out), obj, inner))
        out.append("")
        return "\n" + pad + "]"
    out.append(lead + _scalar_json(obj))
    return ""


def _pair_array_texts(arrays: list) -> list[list[str]]:
    """The rows of each pair array in ``arrays``, as a list of text
    chunks, formatted in blocks of at most EMIT_CHUNK_ROWS rows."""
    texts: list[list[str]] = [[] for _ in arrays]
    block: list[tuple[int, int, int]] = []
    rows = 0
    for i, (_, arr, _) in enumerate(arrays):
        for start in range(0, len(arr), EMIT_CHUNK_ROWS):
            stop = min(start + EMIT_CHUNK_ROWS, len(arr))
            if rows + stop - start > EMIT_CHUNK_ROWS:
                _format_block(block, arrays, texts)
                block, rows = [], 0
            block.append((i, start, stop))
            rows += stop - start
    if block:
        _format_block(block, arrays, texts)
    return texts


def _format_block(block: list, arrays: list, texts: list) -> None:
    """Append to ``texts`` the text of each segment (array number, first
    row, stop row) of ``block``: its first row's lead, and its rows
    joined by ",\n"."""
    from . import floatfmt

    width = floatfmt.NUM_WORDS
    rows = sum(stop - start for _, start, stop in block)
    # Each number is `width` words and a tail: ", " after the real
    # part, and after the imaginary part "]" and the next row's ",\n",
    # indent and "[".  A segment's last row ends in "]\x01" instead, so
    # that the block's text splits into its segments at "\x01" (and the
    # text of a block of one segment is not copied again), and the
    # block's last row in "]".
    tail = -(-(max(len(arrays[i][2]) for i, _, _ in block) + 4) // 4)
    words = np.empty((rows, 2, width + tail), np.uint32)
    words[:, 0, width:] = floatfmt.as_words(", ", tail)
    split = floatfmt.as_words("]\x01", tail)
    row = 0
    for i, start, stop in block:
        words[row:row + stop - start, 1, width:] = floatfmt.as_words(
            "],\n" + arrays[i][2] + "[", tail)
        row += stop - start
        words[row - 1, 1, width:] = split
    words[-1, 1, width:] = floatfmt.as_words("]", tail)
    values = np.concatenate([arrays[i][1][start:stop] for i, start, stop in block]).ravel()
    words = words.reshape(2 * rows, -1)
    chars = words[:, :width].view(np.uint8)
    for i in floatfmt.format_floats(values, words).tolist():
        s = _fmt_float(float(values[i])).encode("ascii")
        chars[i] = 0
        chars[i, :len(s)] = np.frombuffer(s, np.uint8)
    data = words.tobytes()
    del words, chars  # each copy of the block is freed before the next one is made
    text = data.translate(None, b"\0").decode("ascii")
    del data
    for (i, start, _), segment in zip(block, text.split("\x01")):
        texts[i] += [(",\n" if start else "") + arrays[i][2] + "[", segment]


def _scalar_json(obj) -> str:
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise SimulationError(f"cannot serialize {type(obj).__name__}")


def _state_json(state: QuantumState) -> dict:
    return {
        "width": state.width,
        "amplitudes": state.amplitudes.view(np.float64).reshape(-1, 2),
    }


def _trace_json(trace) -> list:
    return [{"step": t.step, "mq": t.mq, "wq": list(t.wq), "answer": t.answer}
            for t in trace]


def _outcomes_json(outcomes) -> list:
    return [{"gate": list(gid), "answer": label} for gid, label in outcomes]


def run_result_json(result: RunResult) -> dict:
    return {
        "schedule": circuit_mod.schedule_json(result.schedule),
        "probability": result.probability,
        "outcomes": _outcomes_json(result.outcomes),
        "store": dict(sorted(result.store.items())),
        "trace": _trace_json(result.trace),
        "state": _state_json(result.state),
    }


def enumeration_json(enum: Enumeration, with_states: bool = True) -> dict:
    branches = []
    for b in enum.branches:
        doc = {
            "probability": b.probability,
            "outcomes": _outcomes_json(b.outcomes),
            "store": dict(sorted(b.store.items())),
        }
        if with_states:
            doc["state"] = _state_json(b.state)
        branches.append(doc)
    return {
        "branches": branches,
        "pruned_mass": enum.pruned_mass,
        "total_probability": enum.total_probability,
    }
