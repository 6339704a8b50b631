"""Lowering elaborated programs to generalized circuits.

A generalized circuit is a width-w wiring of gates.  Each gate applies a
measurement family to a tuple of wires, optionally guarded by classical
expressions over earlier outcome variables: the first true guard selects
the family to apply, and the trailing family is the default.  Wires
thread through gates in program order; a gate additionally depends on
the producers of every variable its guards read.

Gates are identified by position rather than by where they sat in the
source tree: the id of a gate is (w, k) where w is its lowest wire and k
is how many earlier gates touch that wire.  Programs that differ only in
how independent parts are grouped therefore lower to equal circuits.

Lowering is one walk over the ground program that also checks it
against the static clauses of the language (distinct gate wires,
disjoint wires across ``||``, guards that read only channel variables
assigned earlier, ...): ``well_formed`` and ``check_program`` report
that walk's diagnostics, and ``lower`` raises them.

The module also extracts the series-parallel decomposition tree of the
gate occurrences, turns it into a partial order, and derives schedules:
partitions of the gates into rounds of mutually independent gates,
ordered consistently with every prerequisite.
"""
from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

from . import ast
from .errors import (CapExceededError, Diagnostic, ElaborationError, IllFormedError,
                     LoweringError, QmathError, ScheduleError)
from .qmath import MeasurementFamily, Registry

Gid = tuple[int, int]
Schedule = tuple[tuple[Gid, ...], ...]


@dataclass(frozen=True)
class Gate:
    """One gate occurrence: guarded choice among measurement families.

    ``families`` has one more entry than ``guards``; evaluating the
    guards in order against the classical store selects the family of
    the first true guard, falling back to the last entry.
    """
    gid: Gid
    wires: tuple[int, ...]
    out: str | None
    guards: tuple[ast.Expr, ...]
    families: tuple[MeasurementFamily, ...]

    def __post_init__(self):
        if len(self.families) != len(self.guards) + 1:
            raise LoweringError("a gate needs one more family than guards")

    @property
    def label(self) -> str:
        text = self.families[0].name if len(self.families) == 1 else \
            " / ".join(f.name for f in self.families)
        head = f"{self.out} := " if self.out else ""
        wires = ", ".join(str(w) for w in self.wires)
        return f"{head}{text}({wires})"

    def reads(self) -> frozenset[str]:
        return frozenset().union(*map(ast.expr_names, self.guards))


@dataclass
class GeneralizedCircuit:
    """Gates plus wiring: quantum links and classical dependencies.

    ``wiring`` maps each wire 1..width to the gates on it, in order.
    ``classical_deps`` holds (producer, consumer, variable) triples, one
    per guard variable read.  ``prereq`` gives each gate's direct
    prerequisites (previous gate on each wire, plus producers of guard
    variables), in lowering order, so every gate follows its own.
    """
    width: int
    gates: tuple[Gate, ...]
    wiring: dict[int, tuple[Gid, ...]]
    classical_deps: tuple[tuple[Gid, Gid, str], ...]
    prereq: dict[Gid, frozenset[Gid]]
    _closure: dict | None = field(default=None, compare=False, repr=False)

    @cached_property
    def _by_gid(self) -> dict[Gid, Gate]:
        return {g.gid: g for g in self.gates}

    def gate(self, gid: Gid) -> Gate:
        return self._by_gid[gid]

    @property
    def gids(self) -> tuple[Gid, ...]:
        return tuple(g.gid for g in self.gates)

    def closure(self) -> dict[Gid, frozenset[Gid]]:
        """Transitive closure of the prerequisite relation."""
        if self._closure is None:
            closed: dict[Gid, frozenset[Gid]] = {}
            for gid, direct in self.prereq.items():
                closed[gid] = direct.union(*(closed[p] for p in direct))
            self._closure = closed
        return self._closure

    def independent(self, a: Gid, b: Gid) -> bool:
        closed = self.closure()
        return a != b and a not in closed[b] and b not in closed[a]

    def wire_order(self, w: int) -> tuple[Gid, ...]:
        """The gates on wire w, in order."""
        return self.wiring.get(w, ())

    def to_json(self) -> dict:
        from .parser import pretty_expr
        gates = []
        for g in self.gates:
            gates.append({
                "id": list(g.gid),
                "wires": list(g.wires),
                "out": g.out,
                "guards": [pretty_expr(e) for e in g.guards],
                "families": [f.name for f in g.families],
            })
        deps = [{"producer": list(p), "consumer": list(c), "variable": v}
                for p, c, v in self.classical_deps]
        wiring = {str(w): [list(g) for g in gids] for w, gids in self.wiring.items()}
        return {"width": self.width, "gates": gates,
                "wiring": wiring, "classical_deps": deps}


@dataclass(frozen=True)
class DecompLeaf:
    gid: Gid


@dataclass(frozen=True)
class DecompNode:
    kind: str  # "seq" or "par"
    children: tuple

    def __post_init__(self):
        if self.kind not in ("seq", "par"):
            raise LoweringError(f"bad decomposition node kind {self.kind!r}")


DecompTree = DecompLeaf | DecompNode


def _require_ground(program: ast.Program) -> ast.Program:
    if not isinstance(program, ast.Program):
        raise LoweringError("lowering needs a Program")
    if program.params or not ast.is_ground(program.body):
        raise LoweringError("lowering needs an elaborated program; call elaborate() first")
    return program


def _path_text(path) -> str:
    """A path (parent, field, index), or None at the top, as text."""
    steps = []
    while path is not None:
        path, name, i = path
        steps.append(f".{name}[{i}]")
    return "body" + "".join(reversed(steps))


@dataclass
class _Component:
    """What the clauses of ``||`` compare between its components: the
    wires their gates act on and the channel variables they assign (not
    counting a gate inside a classical conditional), and every variable
    that occurs in the component."""
    wires: set[int] = field(default_factory=set)
    outs: set[str] = field(default_factory=set)
    names: set[str] = field(default_factory=set)


class _Lowerer:
    """One walk over a ground rule that checks the static clauses and
    builds the wiring, the producers of channel variables, the
    prerequisites and the decomposition tree; the circuit is the
    program's when no diagnostic was found.  ``channels`` and
    ``dynamics`` are the channel variables and dynamic names assigned
    before the rule being walked.  A classical assignment target is
    checked at the end, against every gate output, later ones included;
    the lines of duplicate outputs come first.  A path is made into text
    only for a diagnostic."""

    def __init__(self, external: frozenset[str] = frozenset()):
        self.external = self.channels = frozenset(external)
        self.dynamics: frozenset[str] = frozenset()
        self.outputs: set[str] = set()
        self.duplicates: list[Diagnostic] = []
        self.found: list = []  # diagnostics, and (target, path, pos) of each assignment
        self.wiring: dict[int, list[Gid]] = defaultdict(list)
        self.producers: dict[str, Gid] = {}
        self.gates: list[Gate] = []
        self.deps: list[tuple[Gid, Gid, str]] = []
        self.prereq: dict[Gid, set[Gid]] = {}

    @staticmethod
    def error(msg: str, clause: str | None, path, pos) -> Diagnostic:
        line, col = pos if pos else (None, None)
        return Diagnostic("error", msg, line=line, column=col, clause=clause,
                          path=_path_text(path))

    def report(self, msg: str, clause: str | None, path, pos) -> None:
        self.found.append(self.error(msg, clause, path, pos))

    def diagnostics(self) -> list[Diagnostic]:
        out = list(self.duplicates)
        for d in self.found:
            if isinstance(d, Diagnostic):
                out.append(d)
            elif d[0] in self.outputs or d[0] in self.external:
                out.append(self.error(f"classical assignment target {d[0]!r} is a channel variable",
                                      ast.CLAUSE_ASSIGN_TARGET_NOT_CHANNEL, *d[1:]))
        return out

    def rule(self, r: ast.Rule, path, part: _Component) -> DecompTree | None:
        """Walk ``r`` at ``path`` as a piece of ``part``, the component of
        the innermost ``||`` around it."""
        if isinstance(r, ast.GateRule):
            return DecompLeaf(self.gate(r, path, part))
        if isinstance(r, ast.Sequential):
            return _node("seq", [self.rule(p, (path, "parts", i), part)
                                 for i, p in enumerate(r.parts)])
        if isinstance(r, ast.Parallel):
            return self.parallel(r, path, part)
        if isinstance(r, ast.ClassicalAssign):
            self.found.append((r.target, path, r.pos))
            for e in (r.value, *r.target_args):
                self.reads(e, "expression references {!r}, which has no value here",
                           path, r.pos, part)
            part.names.add(r.target)
            self.dynamics = self.dynamics | {r.target}
        elif isinstance(r, ast.ClassicalCond):
            self.cond(r, path, part)
        elif not isinstance(r, ast.Skip):
            self.report(f"rule is not ground: {type(r).__name__}", None, path,
                        getattr(r, "pos", None))
        return None  # classical rules and skip hold no gate

    def reads(self, e: ast.Expr, message: str, path, pos, part: _Component) -> None:
        """Report each name that ``e`` reads and nothing assigned before."""
        names = ast.expr_names(e)
        part.names |= names
        for n in sorted(names):
            if n not in self.channels and n not in self.dynamics:
                self.report(message.format(n), ast.CLAUSE_UNBOUND_CHANNEL_VARIABLE, path, pos)

    def gate(self, r: ast.GateRule, path, part: _Component) -> Gid:
        wires, out = tuple(r.wires), r.out
        if len(wires) > 1 and len(set(wires)) != len(wires):
            self.report(f"gate wires must be pairwise distinct, got {wires}",
                        ast.CLAUSE_GATE_WIRES_DISTINCT, path, r.pos)
        reads: set[str] = set()
        for g in r.guards:
            names = ast.expr_names(g)
            reads |= names
            for n in sorted(names):
                if n not in self.channels:
                    kind = "a non-channel variable" if n in self.dynamics else "an unassigned variable"
                    self.report(f"guard references {kind} {n!r}; guards may only use channel "
                                f"variables assigned earlier",
                                ast.CLAUSE_UNBOUND_CHANNEL_VARIABLE, path, r.pos)
            for fn in sorted(ast.expr_calls(g)):
                if fn not in ast.STATIC_FUNCTIONS:
                    self.report(f"guard applies {fn!r}; guards may only use channel variables",
                                ast.CLAUSE_UNBOUND_CHANNEL_VARIABLE, path, r.pos)
        anchor = min(wires)
        gid: Gid = (anchor, len(self.wiring[anchor]))
        direct: set[Gid] = set()
        for w in wires:
            chain = self.wiring[w]
            if chain:
                direct.add(chain[-1])
            chain.append(gid)
        for var in sorted(reads):
            producer = self.producers.get(var)  # none for an external or unassigned name
            if producer is not None:
                direct.add(producer)
                self.deps.append((producer, gid, var))
        part.wires.update(wires)
        part.names |= reads
        if out is not None:
            if out in self.outputs or out in self.external:
                self.duplicates.append(self.error(
                    f"output variable {out!r} is " + ("assigned by more than one gate rule"
                                                      if out in self.outputs else
                                                      "already assigned outside the rule"),
                    ast.CLAUSE_DUPLICATE_OUTPUT_VARIABLE, path, r.pos))
            self.outputs.add(out)
            self.producers[out] = gid
            self.channels = self.channels | {out}
            part.outs.add(out)
            part.names.add(out)
        self.gates.append(Gate(gid, wires, out, tuple(r.guards), tuple(r.branches)))
        self.prereq[gid] = direct
        return gid

    def cond(self, r: ast.ClassicalCond, path, part: _Component) -> None:
        for g in r.guards:
            self.reads(g, "guard references {!r}, which has no value here", path, r.pos, part)
        # Each branch starts from the names assigned before the conditional;
        # after it, the dynamic names of every branch are assigned.  Its
        # gates, ill formed, count for no wires or channel variables.
        before = channels, dynamics = self.channels, self.dynamics
        inner = _Component(names=part.names)
        for i, b in enumerate(r.branches):
            self.channels, self.dynamics = before
            at = (path, "branches", i)
            mark, gates = len(self.found), len(self.gates)
            self.rule(b, at, inner)
            if len(self.gates) > gates:
                self.found.insert(mark, self.error(
                    "classical conditional branch contains a measurement or gate rule",
                    ast.CLAUSE_MEASUREMENT_OUTSIDE_GATE_RULE, at, r.pos))
            dynamics |= self.dynamics
        self.channels, self.dynamics = channels, dynamics

    def parallel(self, r: ast.Parallel, path, part: _Component) -> DecompTree | None:
        # Each component starts from the names assigned before the ``||``;
        # after it, what any component assigned is assigned.
        before = after = (self.channels, self.dynamics)
        components = [_Component() for _ in r.bodies]
        children = []
        for i, (b, c) in enumerate(zip(r.bodies, components)):
            self.channels, self.dynamics = before
            children.append(self.rule(b, (path, "bodies", i), c))
            after = (after[0] | self.channels, after[1] | self.dynamics)
        self.channels, self.dynamics = after
        acting = [(i, c.wires) for i, c in enumerate(components) if c.wires]
        for (i, a), (j, b) in itertools.combinations(acting, 2):
            if a & b:
                self.report(f"parallel components must have pairwise disjoint wire sets; "
                            f"wires {sorted(a & b)} are shared between components {i} and {j}",
                            ast.CLAUSE_PARALLEL_DISJOINT_WIRES, path, r.pos)
        for i, c in enumerate(components):
            for j, sibling in enumerate(components):
                if c.outs and i != j:
                    for n in sorted(c.outs & sibling.names):
                        self.report(f"output variable {n!r} of one parallel component occurs "
                                    f"in a sibling component",
                                    ast.CLAUSE_PARALLEL_SIBLING_OUTPUT, path, r.pos)
        for c in components:
            part.wires |= c.wires
            part.outs |= c.outs
            part.names |= c.names
        return _node("par", children)


def _node(kind: str, children: list) -> DecompTree | None:
    """The tree of the children that hold a gate: None, one child or a node."""
    children = [t for t in children if t is not None]
    if not children:
        return None
    if len(children) == 1:
        return children[0]
    return DecompNode(kind, tuple(children))


def well_formed(rule: ast.Rule, external: frozenset[str] = frozenset()) -> list[Diagnostic]:
    """Check a ground rule against the static rules; [] means well formed.
    ``external`` holds the channel variables assigned before the rule."""
    walk = _Lowerer(external)
    walk.rule(rule, None, _Component())
    return walk.diagnostics()


def check_program(program: ast.Program, bindings: Mapping[str, int] | None = None,
                  registry: Registry | None = None
                  ) -> tuple[ast.Program | None, list[Diagnostic]]:
    """Elaborate and check; returns the ground program (or None) plus diagnostics."""
    try:
        ground = ast.elaborate(program, bindings, registry)
    except (ElaborationError, QmathError) as exc:
        return None, exc.diagnostics()
    return ground, well_formed(ground.body)


def _lower(program: ast.Program) -> tuple[GeneralizedCircuit, DecompTree | None]:
    """The circuit and decomposition tree of a ground program, from one
    walk; raises IllFormedError with every diagnostic the walk found.
    The program is trusted to be ground, as ``elaborate`` makes it."""
    low = _Lowerer()
    tree = low.rule(program.body, None, _Component())
    found = low.diagnostics()
    if found:
        raise IllFormedError(found)
    conjuncts = program.input_decl.conjuncts if program.input_decl is not None else ()
    width = max([1, *low.wiring, *(max(c.wires) for c in conjuncts)])
    circuit = GeneralizedCircuit(
        width=width,
        gates=tuple(sorted(low.gates, key=lambda g: g.gid)),
        wiring={w: tuple(low.wiring.get(w, ())) for w in range(1, width + 1)},
        classical_deps=tuple(sorted(low.deps)),
        prereq={gid: frozenset(s) for gid, s in low.prereq.items()},
    )
    return circuit, tree


def lower(program: ast.Program) -> GeneralizedCircuit:
    """Lower an elaborated, well formed program to its circuit."""
    return _lower(_require_ground(program))[0]


def decomposition(program: ast.Program) -> DecompTree | None:
    """The series-parallel tree of gate occurrences (None if gate-free)."""
    return _lower(_require_ground(program))[1]


# ---------------------------------------------------------------------------
# decomposition trees and orders
# ---------------------------------------------------------------------------

def decomp_leaves(tree: DecompTree | None) -> tuple[Gid, ...]:
    if tree is None:
        return ()
    if isinstance(tree, DecompLeaf):
        return (tree.gid,)
    out: list[Gid] = []
    for c in tree.children:
        out.extend(decomp_leaves(c))
    return tuple(out)


def canonicalize(tree: DecompTree | None) -> DecompTree | None:
    """Flatten nested nodes of the same kind, collapsing singletons.

    Two trees that impose the same order relation through different
    grouping canonicalize to the same tree.
    """
    if tree is None or isinstance(tree, DecompLeaf):
        return tree
    children: list[DecompTree] = []
    for c in tree.children:
        c = canonicalize(c)
        if isinstance(c, DecompNode) and c.kind == tree.kind:
            children.extend(c.children)
        else:
            children.append(c)
    if len(children) == 1:
        return children[0]
    return DecompNode(tree.kind, tuple(children))


def sp_pairs(tree: DecompTree | None) -> frozenset[tuple[Gid, Gid]]:
    """The strict order induced by the tree: a < b for a left of b
    under a "seq" node."""
    pairs: set[tuple[Gid, Gid]] = set()

    def walk(t: DecompTree) -> tuple[Gid, ...]:
        if isinstance(t, DecompLeaf):
            return (t.gid,)
        groups = [walk(c) for c in t.children]
        if t.kind == "seq":
            for i, left in enumerate(groups):
                for right in groups[i + 1:]:
                    pairs.update(itertools.product(left, right))
        return tuple(g for group in groups for g in group)

    if tree is not None:
        walk(tree)
    return frozenset(pairs)


def schedule_from_order(pairs: frozenset[tuple[Gid, Gid]],
                        gids: tuple[Gid, ...]) -> Schedule:
    """Greedy layering of a strict partial order: each round takes every
    gate all of whose predecessors have already fired.  That round is one
    past the latest round of its predecessors, found in one topological
    pass over the pairs (gates are numbered so the pass indexes lists)."""
    index = {g: i for i, g in enumerate(dict.fromkeys(gids))}
    succs: list[list[int]] = [[] for _ in index]
    waiting = [0] * len(index)
    for a, b in pairs:
        i, j = index.get(a), index.get(b)
        if i is not None and j is not None:
            succs[i].append(j)
            waiting[j] += 1
    level = [0] * len(index)
    done = [i for i, n in enumerate(waiting) if n == 0]
    for i in done:  # grows as gates become ready
        after = level[i] + 1
        for j in succs[i]:
            if level[j] < after:
                level[j] = after
            waiting[j] -= 1
            if not waiting[j]:
                done.append(j)
    if len(done) < len(index):
        raise ScheduleError("order relation has a cycle")
    bouts: list[list[Gid]] = [[] for _ in range(max(level, default=-1) + 1)]
    for g, i in sorted(index.items()):
        bouts[level[i]].append(g)
    return tuple(tuple(bout) for bout in bouts)


def _tree_schedule(tree: DecompTree) -> Schedule:
    """Greedy layering of the tree's own order, in one walk: a leaf fires
    in the current round, a "seq" node runs its children one after
    another, and a "par" node starts all of them in the same round and
    ends with the latest.  This equals schedule_from_order(sp_pairs(tree),
    decomp_leaves(tree)) without building the order's pairs."""
    level: dict[Gid, int] = {}

    def walk(t: DecompTree, start: int) -> int:
        """Place t from round ``start``; return the first round after it."""
        if isinstance(t, DecompLeaf):
            level[t.gid] = start
            return start + 1
        if t.kind == "seq":
            for c in t.children:
                start = walk(c, start)
            return start
        return max((walk(c, start) for c in t.children), default=start)

    bouts: list[list[Gid]] = [[] for _ in range(walk(tree, 0))]
    for g in sorted(level):
        bouts[level[g]].append(g)
    return tuple(tuple(bout) for bout in bouts)


def greedy_schedule(program_or_circuit, tree: DecompTree | None = None) -> Schedule:
    """The canonical schedule: greedy layering of the program's own
    series-parallel order (falling back to the prerequisite relation
    when only a circuit is given)."""
    if isinstance(program_or_circuit, ast.Program):
        circuit, tree = _lower(_require_ground(program_or_circuit))
    else:
        circuit = program_or_circuit
    if tree is not None:
        return _tree_schedule(tree)
    pairs = frozenset((p, gid) for gid, ps in circuit.closure().items() for p in ps)
    return schedule_from_order(pairs, circuit.gids)


def check_schedule(circuit: GeneralizedCircuit, schedule: Schedule) -> None:
    """Raise ScheduleError unless the bouts partition the gates, each
    bout is mutually independent, and prerequisites fire strictly
    earlier."""
    seen: dict[Gid, int] = {}
    for i, bout in enumerate(schedule):
        for gid in bout:
            if gid in seen:
                raise ScheduleError(f"gate {gid} appears twice")
            seen[gid] = i
    if seen.keys() != circuit._by_gid.keys():
        missing = set(circuit.gids) - set(seen)
        extra = set(seen) - set(circuit.gids)
        raise ScheduleError(f"schedule does not partition the gates "
                            f"(missing {sorted(missing)}, extra {sorted(extra)})")
    # Direct prerequisites that fire earlier imply both closure checks below.
    if all(seen[p] < i for gid, i in seen.items() for p in circuit.prereq[gid]):
        return
    closed = circuit.closure()
    for i, bout in enumerate(schedule):
        for a, b in itertools.combinations(bout, 2):
            if not circuit.independent(a, b):
                raise ScheduleError(f"gates {a} and {b} in bout {i + 1} are not independent")
    for gid, i in seen.items():
        for p in closed[gid]:
            if seen[p] >= i:
                raise ScheduleError(f"gate {gid} fires in bout {i + 1} but its "
                                    f"prerequisite {p} has not fired")


def _schedules(circuit: GeneralizedCircuit):
    """Every schedule of the circuit, one at a time, in listing order."""
    def extensions(remaining: frozenset[Gid], prefix: tuple):
        # Fired gates include all their prerequisites, so direct ones suffice.
        ready = sorted(g for g in remaining if circuit.prereq[g].isdisjoint(remaining))
        for r in range(1, len(ready) + 1):
            for bout in itertools.combinations(ready, r):
                yield remaining - set(bout), prefix + (tuple(bout),)

    # Depth first on a stack of lazy iterators, in the order of a recursion.
    stack = [iter([(frozenset(circuit.gids), ())])]
    while stack:
        for remaining, prefix in stack[-1]:
            if remaining:
                stack.append(extensions(remaining, prefix))
                break
            yield prefix
        else:
            stack.pop()


def all_schedules(circuit: GeneralizedCircuit,
                  max_count: int | None = None) -> list[Schedule]:
    """Every schedule of the circuit: all ways to split the gates into
    successive rounds of ready, mutually independent gates.

    Bouts must be antichains of the prerequisite order whose members are
    all ready when the bout fires, so each step chooses a nonempty
    subset of the currently minimal gates.  Raises CapExceededError when
    more than max_count schedules exist.
    """
    results: list[Schedule] = []
    for schedule in _schedules(circuit):
        results.append(schedule)
        if max_count is not None and len(results) > max_count:
            raise CapExceededError(f"more than {max_count} schedules")
    return results


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _node_name(gid: Gid) -> str:
    return f"g_{gid[0]}_{gid[1]}"


def to_dot(circuit: GeneralizedCircuit) -> str:
    """Graphviz rendering: solid edges carry wires, dashed edges carry
    classical outcome variables."""
    lines = ["digraph circuit {", "  rankdir=LR;", "  node [shape=box];"]
    for w in range(1, circuit.width + 1):
        lines.append(f"  in_{w} [shape=plaintext, label={_dot_quote(f'in {w}')}];")
        lines.append(f"  out_{w} [shape=plaintext, label={_dot_quote(f'out {w}')}];")
    for g in circuit.gates:
        lines.append(f"  {_node_name(g.gid)} [label={_dot_quote(g.label)}];")
    for w in range(1, circuit.width + 1):
        prev = f"in_{w}"
        for gid in circuit.wire_order(w):
            lines.append(f"  {prev} -> {_node_name(gid)} [label={_dot_quote(str(w))}];")
            prev = _node_name(gid)
        lines.append(f"  {prev} -> out_{w} [label={_dot_quote(str(w))}];")
    for producer, consumer, var in circuit.classical_deps:
        lines.append(f"  {_node_name(producer)} -> {_node_name(consumer)} "
                     f"[style=dashed, label={_dot_quote(var)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def tree_text(tree: DecompTree | None) -> str:
    if tree is None:
        return "empty"
    if isinstance(tree, DecompLeaf):
        return f"{tree.gid[0]}.{tree.gid[1]}"
    return f"{tree.kind}({', '.join(tree_text(c) for c in tree.children)})"


def schedule_json(schedule: Schedule) -> list:
    return [[list(g) for g in bout] for bout in schedule]
