"""Executing programs on a dense state-vector simulator.

A prepared program pairs the lowered circuit with a schedule and with
its gate tape: per gate, the guards compiled into closures
(``ast.compile_expr``) when the first walk starts and, per family and
state width, the outcome kernels bound to the gate's wires
(``qmath.bind_outcomes``) the first time that family fires at that
width.  Every entry point fires its gates from the tape, which depends
only on the circuit, so the copies that ``with_schedule`` makes share
it.  Execution walks the schedule bout by bout; inside a bout gates
fire in ascending id order.
Firing a gate evaluates its guards against the classical store,
selects a measurement family and reads the probability of each of its
outcomes (``qmath.Fired``): 1 for a library unitary, one read pass of
the state for a measurement.  One depth-first walk of the outcome tree
(``_walk``) then follows, and makes the vector of, one sampled outcome
(``run``), the outcomes that a chunk of shots draws
(``sample_distribution``), every outcome above the floor
(``enumerate_branches``) or the only one (``program_unitary``, which
walks the basis columns in 4 to 8 blocks, each block's columns indexed
by extra trailing wires of one state).  ``run``, ``enumerate_branches``
and ``sample_distribution`` build the declared input state afresh for
their walk.  ``check_schedule_independence`` does not walk once per
schedule: it builds the input state once, never writes it, and walks the
lattice of order ideals of the prerequisite order level by level
(``_lattice``), firing each edge of the lattice once and comparing the
branch tables of every two edges into the same ideal.  After the last
gate the classical rules of the program run, compiled once like the
guards: sequential parts apply in order, parallel parts all read the
same snapshot and their writes must agree.

Sampling draws one uniform variate per gate from ``random.Random(seed)``
(a fixed, platform-independent generator) and inverts the outcome CDF in
label order, so runs are reproducible byte for byte.  Enumeration prunes
branches of probability below 1e-12 (or the caller's ``min_prob``) and
reports the pruned mass alongside the surviving branches.
"""
from __future__ import annotations

import bisect
import json
import math
import random
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from . import ast
from . import circuit as circuit_mod
from .circuit import Gate, GeneralizedCircuit, Gid, Schedule
from .errors import ImpossibleBranchError, SimulationError
from .qmath import (ATOL, PRUNE_EPS, MAX_WIDTH, Fired, MeasurementFamily, QuantumState,
                    Registry, bind_outcomes, make_state)

DEFAULT_MAX_BRANCHES = 2**20
UNITARY_MAX_WIDTH = 12
SAMPLE_CHUNK_DRAWS = 2**16  # uniform draws held at once by sample_distribution


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


class _TapeGate:
    """One gate compiled for firing: its guards as closures
    (``ast.compile_expr``, which elaboration uses too) and, per family
    index and state width, the family's outcomes bound to the gate's
    wires (``qmath.bind_outcomes``), each bound the first time it fires.
    It holds operators of the gate's arity and slice tuples, never a
    state-sized array."""

    __slots__ = ("gate", "guards", "bound")

    def __init__(self, gate: Gate):
        self.gate = gate
        self.guards = tuple(ast.compile_expr(g) for g in gate.guards)
        self.bound: dict[tuple[int, int], Callable] = {}

    def fire(self, store, amps: np.ndarray, width: int,
             scratch) -> tuple[MeasurementFamily, Fired]:
        """The family that the first guard to hold selects (else the
        last) and that family fired on ``amps``, which the caller hands
        over as to ``bind_outcomes``'s ``fire``."""
        i = 0
        for guard in self.guards:
            if _truth(guard(store)):
                break
            i += 1
        fam = self.gate.families[i]
        fire = self.bound.get((i, width))
        if fire is None:
            fire = self.bound[i, width] = bind_outcomes(fam, self.gate.wires, width)
        return fam, fire(amps, scratch)


@dataclass
class PreparedProgram:
    """A ground program, its circuit, the circuit's decomposition tree
    and a checked schedule, in firing order, with the gate tape that the
    walk fires from.  ``firing`` lists (bout number, gate) in firing
    order.  Made with no ``firing``, the program checks its schedule
    and derives it; ``prepare`` passes the firing of the greedy
    schedule it has just derived, which needs no check.  ``tape`` maps
    the id of each gate to its compiled gate (``_TapeGate``), made for
    every gate when the first walk starts; the copies that
    ``with_schedule`` makes share it.
    ``classical`` is the program's classical pass, compiled the first
    time it runs.  The program holds no state vector, so it is cheap to
    keep and reuse."""
    program: ast.Program
    registry: Registry
    circuit: GeneralizedCircuit
    tree: circuit_mod.DecompTree | None
    schedule: Schedule
    tape: dict[Gid, _TapeGate] = field(default_factory=dict, repr=False, compare=False)
    classical: Callable[[dict], dict] | None = field(default=None, repr=False, compare=False)
    firing: tuple[tuple[int, Gate], ...] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.firing is None:
            circuit_mod.check_schedule(self.circuit, self.schedule)
            self.firing = _firing(self.circuit, self.schedule)

    def input_state(self) -> QuantumState:
        """The declared input state, built afresh on each call."""
        return initial_state(self.program, self.registry, self.circuit.width)

    def run_classical(self, store: dict) -> dict:
        """``store`` updated by the program's classical rules, which are
        compiled (``_compile_classical``) the first time they run."""
        if self.classical is None:
            self.classical = _compile_classical(self.program.body)
        out = dict(store)
        out.update(self.classical(out))
        return out

    def tape_gate(self, gate: Gate) -> _TapeGate:
        """The compiled ``gate`` from the tape, made on first use."""
        return self.tape.get(gate.gid) or self.tape.setdefault(gate.gid, _TapeGate(gate))

    def with_schedule(self, schedule: Schedule) -> PreparedProgram:
        """The same program fired in another (checked) schedule, from the
        same tape."""
        return replace(self, schedule=schedule, firing=None)


def _firing(circuit: GeneralizedCircuit, schedule: Schedule) -> tuple[tuple[int, Gate], ...]:
    """(bout number, gate) for each gate of ``schedule``, in firing order."""
    gate = circuit.gate
    return tuple((step, gate(gid)) for step, bout in enumerate(schedule, start=1) for gid in bout)


def initial_state(program: ast.Program, registry: Registry | None = None,
                  width: int | None = None) -> QuantumState:
    """Tensor the declared conjunct states together (undeclared wires
    start in |0>) and permute to wire order.  The width defaults to that
    of the program's circuit."""
    registry = registry if registry is not None else Registry()
    if width is None:
        width = circuit_mod.lower(program).width
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
    """Elaborate, lower and schedule (greedily by default): the one path
    from a program to the circuit that the simulator fires, and the one
    that every subcommand of the CLI takes.  Elaboration's output is
    ground, so the lowering walk takes it with no groundness check, and
    the greedy schedule is derived from the circuit's own tree, so it is
    not checked again; a given schedule is."""
    registry = registry if registry is not None else Registry()
    program = ast.elaborate(program, bindings, registry)
    circ, tree = circuit_mod._lower(program)
    if schedule is not None:
        return PreparedProgram(program, registry, circ, tree, schedule)
    schedule = circuit_mod.greedy_schedule(circ, tree)
    return PreparedProgram(program, registry, circ, tree, schedule, firing=_firing(circ, schedule))


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

def _truth(v) -> bool:
    if not isinstance(v, bool):
        raise SimulationError(f"guard value must be a truth value, got {v!r}")
    return v


def _cdf(probabilities) -> tuple[list[float], list[int]]:
    """The table that inverts the outcome CDF over the probabilities of
    a family's outcomes in label order: the cumulative masses, summed
    left to right, and for each position the last position of
    probability above PRUNE_EPS at or before it (the first such position
    where none precedes).  So an outcome of probability <= PRUNE_EPS is
    never chosen: u in its mass goes to the previous positive outcome,
    or the next if none precedes."""
    chosen = next((i for i, p in enumerate(probabilities) if p > PRUNE_EPS), None)
    if chosen is None:
        raise ImpossibleBranchError("every outcome of the family has zero probability")
    cum, last = [], []
    total = 0.0
    for i, p in enumerate(probabilities):
        total += p
        if p > PRUNE_EPS:
            chosen = i
        cum.append(total)
        last.append(chosen)
    return cum, last


def _pick(probabilities, u: float) -> int:
    """The position of the outcome that u picks, by the ``_cdf`` table."""
    cum, last = _cdf(probabilities)
    return last[min(bisect.bisect_right(cum, u), len(cum) - 1)]


def _pick_all(cdf: tuple[list[float], list[int]], us: np.ndarray) -> np.ndarray:
    """The position that ``_pick`` takes for each u in ``us``."""
    cum, last = cdf
    return np.asarray(last)[np.minimum(np.searchsorted(cum, us, side="right"), len(cum) - 1)]


# ---------------------------------------------------------------------------
# the classical pass
# ---------------------------------------------------------------------------

def _compile_classical(r: ast.Rule) -> Callable[[dict], dict]:
    """The classical rules of ``r`` compiled once into a function of the
    store that returns the updates they make; expressions are compiled
    by ``ast.compile_expr``, so every error shows when it is called."""
    if isinstance(r, (ast.GateRule, ast.Skip)):
        return lambda store: {}
    if isinstance(r, ast.ClassicalAssign):
        target, value = r.target, ast.compile_expr(r.value)
        target_args = tuple(ast.compile_expr(a) for a in r.target_args)

        def assign(store):
            args = []
            for a in target_args:
                v = a(store)
                if isinstance(v, bool) or not isinstance(v, int):
                    raise SimulationError("dynamic function arguments must be integers")
                args.append(v)
            return {ast.dynamic_key(target, tuple(args)): value(store)}
        return assign
    if isinstance(r, ast.ClassicalCond):
        guards = tuple(ast.compile_expr(g) for g in r.guards)
        branches = tuple(_compile_classical(b) for b in r.branches)

        def cond(store):
            for g, b in zip(guards, branches):
                if _truth(g(store)):
                    return b(store)
            if len(branches) > len(guards):
                return branches[-1](store)
            return {}
        return cond
    if isinstance(r, ast.Sequential):
        parts = tuple(_compile_classical(p) for p in r.parts)

        def sequential(store):
            current = dict(store)
            acc: dict = {}
            for p in parts:
                up = p(current)
                current.update(up)
                acc.update(up)
            return acc
        return sequential
    if isinstance(r, ast.Parallel):
        bodies = tuple(_compile_classical(b) for b in r.bodies)

        def parallel(store):
            acc: dict = {}
            for b in bodies:
                up = b(store)
                for k, v in up.items():
                    if k in acc and acc[k] != v:
                        raise SimulationError(f"parallel rules write different values to {k!r}")
                acc.update(up)
            return acc
        return parallel

    def fail(store):
        raise SimulationError(f"cannot execute rule {type(r).__name__}")
    return fail


# ---------------------------------------------------------------------------
# run / enumerate / sample
# ---------------------------------------------------------------------------

def _scratch(spare: np.ndarray | None, size: int) -> np.ndarray:
    """The buffer that ``_walk`` writes its next outcome into: the array
    that a gate left dead, else a new one."""
    return np.empty(size, np.complex128) if spare is None else spare


def _walk(prep: PreparedProgram, state: QuantumState, follow, slot=None):
    """Walk the outcome tree from ``state`` depth first on an explicit
    stack.  At each gate ``follow(gate, family, probabilities,
    probability, slot)`` gets the probability of each of the family's
    outcomes, in label order, and the path mass so far, and returns, in
    label order, the position of each outcome to follow paired with the
    slot of its child, or the path mass (a float) of one cut off.  A slot
    is opaque to the walk: the root has ``slot``, and the sampler keeps a
    node's shots there.  Yields cut masses and leaves (state, store,
    probability, path, slot) in visiting order; a path is the linked
    tuple (path, step, gate, family name, label), ending in None.

    Each gate fires from the program's tape (``_TapeGate.fire``), with
    kernels bound to the width of ``state``, and makes the vectors of
    the followed outcomes only (``qmath.Fired.post``).  The caller
    builds ``state`` for the walk and hands it over.  Each stack entry
    owns its amplitude array and the drift bound of its norm: the last
    outcome followed, when its operator is a diagonal, scales the array
    in place, any other is written into a scratch buffer, and the array
    that gate read, once dead, is the next scratch.  A leaf's array is
    frozen when it is yielded and is never written again."""
    firing = prep.firing
    tape = [prep.tape_gate(gate) for _step, gate in firing]
    width = state.width
    amps = state.amplitudes
    amps.setflags(write=True)
    spare = None

    def scratch() -> np.ndarray:
        nonlocal spare
        buf, spare = _scratch(spare, 2**width), None
        return buf

    stack: list = [(0, amps, 0.0, {}, 1.0, None, slot)]
    while stack:
        node = stack.pop()
        if isinstance(node, float):
            yield node
            continue
        k, amps, drift, store, prob, path, slot = node
        if k == len(firing):
            yield QuantumState._unchecked(width, amps), store, prob, path, slot
            continue
        step, gate = firing[k]
        fam, fired = tape[k].fire(store, amps, width, scratch)
        probabilities = fired.probabilities
        follows = follow(gate, fam, probabilities, prob, slot)
        last = max((n for n, out in enumerate(follows) if not isinstance(out, float)), default=-1)
        children, vec = [], None
        for n, out in enumerate(follows):
            if isinstance(out, float):
                children.append(out)
                continue
            i, sub = out
            vec, vec_drift = fired.post(i, drift, n == last)
            label = fam.outcomes[i].label
            children.append((k + 1, vec, vec_drift,
                             store if gate.out is None else {**store, gate.out: label},
                             prob * probabilities[i], (path, step, gate, fam.name, label), sub))
        if vec is not amps:
            spare = amps
        stack.extend(reversed(children))
        fired = vec = children = None  # hold no vector of this gate while the next one fires


def _branch(prep: PreparedProgram, leaf) -> Branch:
    """A leaf of ``_walk`` with its outcomes, trace and classical pass."""
    state, store, prob, path, _slot = leaf
    outcomes, trace = [], []
    while path is not None:
        path, step, gate, name, label = path
        outcomes.append((gate.gid, label))
        trace.append(QueryTraceEntry(step, name, gate.wires, label))
    return Branch(tuple(sorted(outcomes)), prep.run_classical(store),
                  prob, state, tuple(reversed(trace)))


def _outcomes(path) -> tuple[tuple[Gid, int], ...]:
    """The outcome assignment of a ``_walk`` path, sorted by gate id."""
    key = []
    while path is not None:
        path, _step, gate, _name, label = path
        key.append((gate.gid, label))
    return tuple(sorted(key))


def run(program: ast.Program | PreparedProgram, seed: int = 0,
        bindings: dict | None = None, registry: Registry | None = None,
        schedule: Schedule | None = None) -> RunResult:
    """One seeded sampling run."""
    prep = _prepared(program, bindings, registry, schedule)
    draw = random.Random(seed).random

    def follow(gate, fam, probabilities, prob, slot):
        return [(_pick(probabilities, draw()), None)]

    b = _branch(prep, next(_walk(prep, prep.input_state(), follow)))
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
    return _enumerate(_prepared(program, bindings, registry, schedule), min_prob, max_branches)


def _enumerate(prep: PreparedProgram, min_prob: float = 0.0,
               max_branches: int = DEFAULT_MAX_BRANCHES) -> Enumeration:
    """``enumerate_branches`` of a prepared program, from its input state."""
    floor = max(min_prob, 0.0)

    def follow(gate, fam, probabilities, prob, slot):
        return [prob * p if p <= PRUNE_EPS or prob * p < floor else (i, None)
                for i, p in enumerate(probabilities)]

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


def sample_distribution(program: ast.Program | PreparedProgram, shots: int,
                        seed: int = 0, bindings: dict | None = None,
                        registry: Registry | None = None,
                        schedule: Schedule | None = None) -> dict:
    """Outcome-assignment counts over ``shots`` runs; shot k uses seed
    ``seed + k``, so the counts are the tally of ``run(program, seed +
    k)`` over k, with keys in the order of their first shot.

    Only a gate that can measure (one of its families has two or more
    labels) needs its draw.  Shot k's draws for those gates are taken up
    front from ``Random(seed + k)``, and the draws of the gates between
    them are skipped with one ``getrandbits(64 * gates)`` call.  That
    relies on a CPython property, not a documented guarantee:
    ``getrandbits(64 * m)`` consumes the 2m 32-bit words of the Mersenne
    Twister that m ``random()`` calls consume (a test pins it).

    The shots then go down the outcome tree together, in one ``_walk``
    that keeps each node's shots in its slot.  A node is fired once: at
    a node with one outcome above PRUNE_EPS every shot follows it, and
    otherwise the shots are split by their draws with ``run``'s CDF rule
    (``_cdf``).  The draws of at most SAMPLE_CHUNK_DRAWS // (measuring
    gates) shots are held at once; each chunk of shots is its own walk,
    and the counts do not depend on the chunk size."""
    if isinstance(shots, bool) or not isinstance(shots, int) or shots < 0:
        raise SimulationError(f"shots must be a non-negative integer, got {shots!r}")
    prep = _prepared(program, bindings, registry, schedule)
    column: dict[Gid, int] = {}
    skips: list[int] = []  # bits to skip before each measuring gate's draw
    drawn = 0
    for i, (_step, gate) in enumerate(prep.firing):
        if any(len(f.outcomes) > 1 for f in gate.families):
            column[gate.gid] = len(skips)
            skips.append(64 * (i - drawn))
            drawn = i + 1

    def follow(gate, fam, probabilities, prob, taken):
        _, last = cdf = _cdf(probabilities)
        if last[0] == last[-1]:  # one outcome above PRUNE_EPS
            return [(last[0], taken)]
        picks = _pick_all(cdf, draws[taken, column[gate.gid]])
        return [(i, taken[picks == i]) for i in sorted(set(picks.tolist()))]

    counts: dict[tuple[tuple[Gid, int], ...], int] = {}
    chunk = max(1, SAMPLE_CHUNK_DRAWS // max(1, len(skips)))
    for first in range(0, shots, chunk):
        size = min(chunk, shots - first)
        draws = _draws(seed + first, size, skips)
        leaves = []
        for _state, store, _prob, path, taken in _walk(prep, prep.input_state(), follow,
                                                        np.arange(size)):
            prep.run_classical(store)  # a shot that run() rejects fails here too
            leaves.append((int(taken[0]), _outcomes(path), len(taken)))
        for _first, key, n in sorted(leaves):
            counts[key] = counts.get(key, 0) + n
    return counts


def _draws(seed: int, shots: int, skips: list[int]) -> np.ndarray:
    """The (shots, len(skips)) uniforms of the measuring gates: row k from
    ``Random(seed + k)``, after skipping ``skips[j]`` bits before draw j."""
    def uniforms():
        for k in range(shots if skips else 0):
            rng = random.Random(seed + k)
            for bits in skips:
                if bits:
                    rng.getrandbits(bits)
                yield rng.random()
    return np.fromiter(uniforms(), np.float64, shots * len(skips)).reshape(shots, len(skips))


def check_schedule_independence(program: ast.Program | PreparedProgram,
                                bindings: dict | None = None,
                                registry: Registry | None = None,
                                schedules: list[Schedule] | None = None,
                                min_prob: float = 0.0,
                                atol: float = ATOL) -> int:
    """Require every schedule to give the same branches: the same outcome
    assignments, probabilities within ``atol``, equal stores, and
    amplitudes within ``atol + 1e-5 * |reference|`` (the rule of
    ``np.allclose``).  Returns the number of schedules checked; raises
    SimulationError on any disagreement, naming the order ideal where two
    firing orders first differ and the two gates fired last.

    Every schedule fires its gates along a maximal chain of the lattice
    of order ideals of the prerequisite order, so the check walks that
    lattice level by level (``_lattice``) instead of enumerating once
    per schedule: each ideal's branch table is made once, from the
    first edge that reaches it, and each other edge into it is fired
    and compared with that table.  With ``schedules=None`` every edge is
    checked, and the schedules are counted over the ideals: N(S) is the
    sum of N(S | B) over the nonempty sets B of gates ready at S, which
    is ``len(circuit.all_schedules(...))``.  A given list is checked
    schedule by schedule (``circuit.check_schedule``) and then on the
    edges that its schedules pass through."""
    prep = _prepared(program, bindings, registry, None)
    if schedules is not None and not schedules:
        raise SimulationError("no schedules to compare")
    readies: dict[int, tuple[int, ...]] = {}
    for level in _lattice(prep, schedules, min_prob, atol):
        readies.update((s, ideal.ready) for s, ideal in level.items())
    return len(schedules) if schedules is not None else _count_schedules(readies)


class _Ideal(NamedTuple):
    """An order ideal of the prerequisite order in the lattice walk."""
    ready: tuple[int, ...]  # the gates that can fire next, as ascending indices
    table: dict  # its branch table
    chain: tuple | None  # the gates that made the table, linked as (chain, gid)


def _lattice(prep: PreparedProgram, schedules: list[Schedule] | None,
             min_prob: float, atol: float):
    """Yield the levels of the lattice of order ideals of ``prep``'s
    prerequisite order, each a dict {ideal: _Ideal}, from the empty
    ideal up; an ideal is a bit mask over ``circuit.gates``.  Every edge
    (ideal, gate) is walked, or, given ``schedules``, each of which is
    checked, only the edges that they fire along, gate by gate in the
    order of each bout.

    A table maps a branch's key to (probability, store, amplitudes,
    drift bound of their norm, path), the path linked as in ``_walk``.
    The key packs the label of each gate that the branch has fired into
    bits of its own, so every chain into an ideal keys its branches
    alike.  The empty ideal's table has one branch: the input state,
    built once and never written, with key 0 (no outcomes), an empty
    store and probability 1.  The ideal S | {g} gets its table from the
    first edge that reaches it: g fires from the tape (``_TapeGate.fire``
    with no scratch, so every outcome vector is new) on each branch of
    S, outcomes are pruned as ``enumerate_branches`` prunes them, and
    each one kept makes its vector.  Each later edge into it is fired
    the same way and compared with that table.  On the last ideal
    every store also goes through the classical pass, as in ``_branch``.
    The walk holds the tables of two levels."""
    gates = prep.circuit.gates
    index = {g.gid: i for i, g in enumerate(gates)}
    edges = None
    if schedules is not None:
        edges = set()
        for schedule in schedules:
            circuit_mod.check_schedule(prep.circuit, schedule)
            ideal = 0
            for bout in schedule:
                for gid in bout:
                    edges.add((ideal, index[gid]))
                    ideal |= 1 << index[gid]
    needs = [sum(1 << index[p] for p in prep.circuit.prereq[g.gid]) for g in gates]
    succs: list[list[int]] = [[] for _ in gates]
    for i, g in enumerate(gates):
        for p in prep.circuit.prereq[g.gid]:
            succs[index[p]].append(i)
    tape = [prep.tape_gate(g) for g in gates]
    codes, shift = [], 0
    for g in gates:
        labels = sorted({label for f in g.families for label in f.labels})
        codes.append({label: j << shift for j, label in enumerate(labels, 1)})
        shift += len(labels).bit_length()
    floor = max(min_prob, 0.0)
    full = (1 << len(gates)) - 1
    state = prep.input_state()
    width = state.width

    def fire(table: dict, i: int, step: int, last: bool):
        gate, code = gates[i], codes[i]
        for key, (prob, store, amps, drift, path) in table.items():
            fam, fired = tape[i].fire(store, amps, width, None)
            for j, p in enumerate(fired.probabilities):
                if p <= PRUNE_EPS or prob * p < floor:
                    continue
                label = fam.outcomes[j].label
                new = store if gate.out is None else {**store, gate.out: label}
                yield key | code[label], (
                    prob * p, prep.run_classical(new) if last else new,
                    *fired.post(j, drift), (path, step, gate, fam.name, label))

    store = prep.run_classical({}) if not gates else {}
    level = {0: _Ideal(tuple(i for i, need in enumerate(needs) if not need),
                       {0: (1.0, store, state.amplitudes, 0.0, None)}, None)}
    yield level
    for step in range(1, len(gates) + 1):
        nxt: dict[int, _Ideal] = {}
        for s, ideal in level.items():
            for i in ideal.ready:
                if edges is not None and (s, i) not in edges:
                    continue
                t = s | 1 << i
                branches = fire(ideal.table, i, step, t == full)
                have = nxt.get(t)
                if have is None:
                    ready = sorted([j for j in ideal.ready if j != i]
                                   + [j for j in succs[i] if needs[j] & t == needs[j]])
                    nxt[t] = _Ideal(tuple(ready), _table(branches), (ideal.chain, gates[i].gid))
                    continue
                detail = _table_mismatch(branches, have.table, atol)
                if detail is not None:
                    a, b = sorted((have.chain[1], gates[i].gid))
                    ideal_gids = [g.gid for j, g in enumerate(gates) if t >> j & 1]
                    raise SimulationError(
                        f"the order of gates {a} and {b} matters: the ideal "
                        f"{ideal_gids} reached with either last has {detail}")
        level = nxt
        yield level


def _table(branches) -> dict:
    """A branch table from (key, branch) pairs, refused past
    DEFAULT_MAX_BRANCHES branches."""
    table = {}
    for key, b in branches:
        table[key] = b
        if len(table) > DEFAULT_MAX_BRANCHES:
            raise SimulationError(f"more than {DEFAULT_MAX_BRANCHES} branches; raise min_prob")
    return table


def _table_mismatch(branches, table: dict, atol: float) -> str | None:
    """How the (key, branch) pairs ``branches`` differ from ``table``,
    or None if they agree within ``atol``."""
    seen = 0
    for key, (p, store, amps, _drift, path) in branches:
        ref = table.get(key)
        if ref is None:
            return "different outcome assignments"
        seen += 1
        q, ref_store, ref_amps, _, _ = ref
        if abs(p - q) > atol:
            return f"branch {_outcomes(path)} of probability {p} against {q}"
        if store != ref_store:
            return f"branch {_outcomes(path)} with different classical stores"
        if not (np.abs(amps - ref_amps) <= atol + 1e-5 * np.abs(ref_amps)).all():
            return f"branch {_outcomes(path)} with different final states"
    return None if seen == len(table) else "different outcome assignments"


def _count_schedules(readies: dict[int, tuple[int, ...]]) -> int:
    """The number of schedules, from the gates ready at each ideal
    (``readies``, with ideals in level order): N(S) is 1 at the full
    ideal and otherwise the sum of N(S | B) over the nonempty sets B of
    gates ready at S, each the next bout of some schedule."""
    count: dict[int, int] = {}
    for s in reversed(readies):
        bouts = [0]
        for i in readies[s]:
            bouts += [b | 1 << i for b in bouts]
        count[s] = sum(count[s | b] for b in bouts[1:]) if len(bouts) > 1 else 1
    return count[0]


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

    def only(gate, fam, probabilities, prob, slot):
        if len(probabilities) != 1:
            raise SimulationError(
                f"gate {gate.label} measures ({fam.name} has "
                f"{len(probabilities)} outcomes); the program has no composite operator")
        return [(0, None)]

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
