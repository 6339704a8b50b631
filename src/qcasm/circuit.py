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

The module also extracts the series-parallel decomposition tree of the
gate occurrences, turns it into a partial order, and derives schedules:
partitions of the gates into rounds of mutually independent gates,
ordered consistently with every prerequisite.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

from . import ast
from .errors import CapExceededError, IllFormedError, LoweringError, ScheduleError
from .qmath import MeasurementFamily

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
    diags = ast.well_formed(program.body, external=set())
    if diags:
        raise IllFormedError(diags)
    return program


class _Lowerer:
    def __init__(self, width: int):
        self.wiring: dict[int, list[Gid]] = {w: [] for w in range(1, width + 1)}
        self.producers: dict[str, Gid] = {}
        self.gates: list[Gate] = []
        self.deps: list[tuple[Gid, Gid, str]] = []
        self.prereq: dict[Gid, set[Gid]] = {}

    def rule(self, r: ast.Rule) -> DecompTree | None:
        if isinstance(r, ast.GateRule):
            return DecompLeaf(self.gate(r))
        if isinstance(r, ast.Sequential):
            return self.compose("seq", r.parts)
        if isinstance(r, ast.Parallel):
            return self.compose("par", r.bodies)
        return None  # classical rules and skip hold no gate

    def compose(self, kind: str, parts) -> DecompTree | None:
        children = [t for t in (self.rule(p) for p in parts) if t is not None]
        if not children:
            return None
        if len(children) == 1:
            return children[0]
        return DecompNode(kind, tuple(children))

    def gate(self, r: ast.GateRule) -> Gid:
        wires = tuple(r.wires)
        anchor = min(wires)
        gid: Gid = (anchor, len(self.wiring[anchor]))
        direct: set[Gid] = set()
        for w in wires:
            chain = self.wiring[w]
            if chain:
                direct.add(chain[-1])
            chain.append(gid)
        gate = Gate(gid, wires, r.out, tuple(r.guards), tuple(r.branches))
        # Well formedness guarantees an earlier gate outputs each guard variable.
        for var in sorted(gate.reads()):
            producer = self.producers[var]
            direct.add(producer)
            self.deps.append((producer, gid, var))
        if r.out is not None:
            self.producers[r.out] = gid
        self.gates.append(gate)
        self.prereq[gid] = direct
        return gid


def _lower(program: ast.Program) -> tuple[GeneralizedCircuit, DecompTree | None]:
    _require_ground(program)
    width = ast.program_width(program)
    low = _Lowerer(width)
    tree = low.rule(program.body)
    gates = tuple(sorted(low.gates, key=lambda g: g.gid))
    circuit = GeneralizedCircuit(
        width=width,
        gates=gates,
        wiring={w: tuple(chain) for w, chain in low.wiring.items()},
        classical_deps=tuple(sorted(low.deps)),
        prereq={gid: frozenset(s) for gid, s in low.prereq.items()},
    )
    return circuit, tree


def lower(program: ast.Program) -> GeneralizedCircuit:
    """Lower an elaborated, well formed program to its circuit."""
    return _lower(program)[0]


def decomposition(program: ast.Program) -> DecompTree | None:
    """The series-parallel tree of gate occurrences (None if gate-free)."""
    return _lower(program)[1]


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
        circuit, tree = _lower(program_or_circuit)
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
