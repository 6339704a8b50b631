"""The static clauses, checked by the walk that lowers a ground program,
against a reference checker that takes the program apart clause by
clause.

``reference_well_formed`` checks the clauses the direct way: a first
pass over every gate for duplicate outputs, then a recursive check that
recomputes each ``||`` component's wires and names from its subtree.  It
shares nothing with the walk but the clause tags and the expression name
and call collectors.  The walk
must report exactly its diagnostics: the same severity, message, clause,
line, column and path, in the same order, on the shipped programs, on
every fixture, with and without assumed external channel variables, and
on random ground programs, ill-formed ones included.
"""
import itertools

from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from qcasm import ast as A
from qcasm import circuit as C
from qcasm.errors import Diagnostic, QcasmError
from qcasm.parser import parse

from conftest import CORPUS, FIXTURES, corpus_program
from test_dense_oracle import programs


# ---------------------------------------------------------------------------
# the reference
# ---------------------------------------------------------------------------

def _parts(r):
    if isinstance(r, A.ClassicalCond):
        return "branches", r.branches
    if isinstance(r, A.Parallel):
        return "bodies", r.bodies
    if isinstance(r, A.Sequential):
        return "parts", r.parts
    return "", ()


def _gate_rules(r, path):
    if isinstance(r, A.GateRule):
        yield path, r
        return
    name, parts = _parts(r)
    for i, p in enumerate(parts):
        yield from _gate_rules(p, f"{path}.{name}[{i}]")


def _is_classical(r) -> bool:
    return not isinstance(r, A.GateRule) and all(map(_is_classical, _parts(r)[1]))


def _wire_set(r) -> frozenset:
    """Wires of the gates of r, not inside a classical conditional."""
    if isinstance(r, A.GateRule):
        return frozenset(r.wires)
    if isinstance(r, A.ClassicalCond):
        return frozenset()
    return frozenset().union(*map(_wire_set, _parts(r)[1]))


def _occurring_names(r) -> frozenset:
    if isinstance(r, A.GateRule):
        out, reads = frozenset((r.out,)) if r.out else frozenset(), r.guards
    elif isinstance(r, A.ClassicalAssign):
        out, reads = frozenset((r.target,)), (r.value, *r.target_args)
    else:
        out, reads = frozenset(), getattr(r, "guards", ())
    return out.union(*map(A.expr_names, reads), *map(_occurring_names, _parts(r)[1]))


def reference_well_formed(rule, external=frozenset()) -> list[Diagnostic]:
    diags: list[Diagnostic] = []

    def report(msg, clause, path, pos=None):
        line, col = pos if pos else (None, None)
        diags.append(Diagnostic("error", msg, line=line, column=col, clause=clause, path=path))

    out_names: dict[str, str] = {}
    for path, g in _gate_rules(rule, "body"):
        if g.out is None:
            continue
        if g.out in out_names:
            report(f"output variable {g.out!r} is assigned by more than one gate rule",
                   A.CLAUSE_DUPLICATE_OUTPUT_VARIABLE, path, g.pos)
        elif g.out in external:
            report(f"output variable {g.out!r} is already assigned outside the rule",
                   A.CLAUSE_DUPLICATE_OUTPUT_VARIABLE, path, g.pos)
        out_names.setdefault(g.out, path)

    def check(r, channels, dynamics, path):
        """Returns (channel vars, dynamic names) newly defined by r."""
        if isinstance(r, A.GateRule):
            ws = tuple(r.wires)
            if len(set(ws)) != len(ws):
                report(f"gate wires must be pairwise distinct, got {ws}",
                       A.CLAUSE_GATE_WIRES_DISTINCT, path, r.pos)
            for g in r.guards:
                for n in sorted(A.expr_names(g)):
                    if n not in channels:
                        kind = "a non-channel variable" if n in dynamics else "an unassigned variable"
                        report(f"guard references {kind} {n!r}; guards may only use channel "
                               f"variables assigned earlier",
                               A.CLAUSE_UNBOUND_CHANNEL_VARIABLE, path, r.pos)
                for fn in sorted(A.expr_calls(g)):
                    if fn not in A.STATIC_FUNCTIONS:
                        report(f"guard applies {fn!r}; guards may only use channel variables",
                               A.CLAUSE_UNBOUND_CHANNEL_VARIABLE, path, r.pos)
            return (frozenset((r.out,)) if r.out else frozenset()), frozenset()
        if isinstance(r, A.ClassicalAssign):
            if r.target in out_names or r.target in external:
                report(f"classical assignment target {r.target!r} is a channel variable",
                       A.CLAUSE_ASSIGN_TARGET_NOT_CHANNEL, path, r.pos)
            for e in (r.value, *r.target_args):
                for n in sorted(A.expr_names(e)):
                    if n not in channels and n not in dynamics:
                        report(f"expression references {n!r}, which has no value here",
                               A.CLAUSE_UNBOUND_CHANNEL_VARIABLE, path, r.pos)
            return frozenset(), frozenset((r.target,))
        if isinstance(r, A.ClassicalCond):
            for g in r.guards:
                for n in sorted(A.expr_names(g)):
                    if n not in channels and n not in dynamics:
                        report(f"guard references {n!r}, which has no value here",
                               A.CLAUSE_UNBOUND_CHANNEL_VARIABLE, path, r.pos)
            new_dyn = frozenset()
            for i, b in enumerate(r.branches):
                if not _is_classical(b):
                    report("classical conditional branch contains a measurement or gate rule",
                           A.CLAUSE_MEASUREMENT_OUTSIDE_GATE_RULE, f"{path}.branches[{i}]", r.pos)
                new_dyn |= check(b, channels, dynamics, f"{path}.branches[{i}]")[1]
            return frozenset(), new_dyn
        if isinstance(r, A.Parallel):
            defined = [check(b, channels, dynamics, f"{path}.bodies[{i}]")
                       for i, b in enumerate(r.bodies)]
            wires = [_wire_set(b) for b in r.bodies]
            names = [_occurring_names(b) for b in r.bodies]
            for i, j in itertools.combinations(range(len(wires)), 2):
                if wires[i] & wires[j]:
                    report(f"parallel components must have pairwise disjoint wire sets; "
                           f"wires {sorted(wires[i] & wires[j])} are shared between "
                           f"components {i} and {j}",
                           A.CLAUSE_PARALLEL_DISJOINT_WIRES, path, r.pos)
            for i, (outs, _) in enumerate(defined):
                for j, used in enumerate(names):
                    if i != j:
                        for n in sorted(outs & used):
                            report(f"output variable {n!r} of one parallel component occurs "
                                   f"in a sibling component",
                                   A.CLAUSE_PARALLEL_SIBLING_OUTPUT, path, r.pos)
            return (frozenset().union(*(ch for ch, _ in defined)),
                    frozenset().union(*(dyn for _, dyn in defined)))
        if isinstance(r, A.Sequential):
            acc_ch, acc_dyn = frozenset(), frozenset()
            for i, p in enumerate(r.parts):
                ch, dyn = check(p, channels | acc_ch, dynamics | acc_dyn, f"{path}.parts[{i}]")
                acc_ch |= ch
                acc_dyn |= dyn
            return acc_ch, acc_dyn
        return frozenset(), frozenset()

    check(rule, frozenset(external), frozenset(), "body")
    return diags


def assert_same(rule, external=frozenset()) -> list[Diagnostic]:
    walk = C.well_formed(rule, external)
    assert walk == reference_well_formed(rule, external)
    return walk


# ---------------------------------------------------------------------------
# shipped programs and fixtures
# ---------------------------------------------------------------------------

BINDINGS = {"qft": {"n": 3}, "grover": {"n": 2, "N": 4, "m": 3}}
EXTERNAL = frozenset({"p", "q", "m1", "b", "x"})


def test_walk_matches_the_reference_on_the_corpus(tele_registry, pe_registry):
    registries = {"teleport": tele_registry, "phase_est": pe_registry}
    clashes = 0
    for name in CORPUS:
        ground = A.elaborate(corpus_program(name), BINDINGS.get(name), registries.get(name))
        assert A.is_ground(ground.body)
        assert assert_same(ground.body) == [], name
        clashes += len(assert_same(ground.body, EXTERNAL))
    assert clashes  # teleport assigns p and q


def test_walk_matches_the_reference_on_every_fixture():
    walked = 0
    for path in sorted(FIXTURES.glob("*.qcasm")):
        try:
            ground = A.elaborate(parse(path.read_text()))
        except QcasmError:
            continue
        assert A.is_ground(ground.body), path.name
        assert assert_same(ground.body), path.name
        assert_same(ground.body, EXTERNAL)
        walked += 1
    assert walked == 10  # all but the two that fail in elaboration


def test_the_ordering_traps_hold():
    # A classical assignment target is checked against the outputs of
    # later gates too.
    got = assert_same(A.elaborate(parse("x := 2; x := SM(1)")).body)
    assert [(d.clause, d.line, d.column, d.path) for d in got] == [
        (A.CLAUSE_ASSIGN_TARGET_NOT_CHANNEL, 1, 1, "body.parts[0]")]
    # Every duplicate output comes first, before the lines of earlier rules.
    got = assert_same(A.elaborate(parse(
        "if z = 1 then H(1);\nPM(2, 2);\np := SM(1);\n{p := SM(2) || if p = 1 then X(3)}")).body)
    clauses = [d.clause for d in got]
    assert clauses[0] == A.CLAUSE_DUPLICATE_OUTPUT_VARIABLE
    assert A.CLAUSE_DUPLICATE_OUTPUT_VARIABLE not in clauses[1:]
    # Each component that assigns p and occurs beside another reports it.
    got = assert_same(A.elaborate(parse("p := SM(1) || p := SM(2)")).body)
    assert [d.clause for d in got].count(A.CLAUSE_PARALLEL_SIBLING_OUTPUT) == 2


# ---------------------------------------------------------------------------
# random ground programs, ill-formed ones included
# ---------------------------------------------------------------------------

OUTS = ("p", "q", "r")  # channel variables
DYNS = ("x", "y")  # classical assignment targets
NAMES = OUTS + DYNS + ("z",)  # z is never assigned
GATES = (("H", 1), ("X", 1), ("SM", 1), ("CNOT", 2), ("PM", 2))

wire = st.integers(1, 4).map(str)


@st.composite
def guards(draw) -> str:
    """A guard: a name compared with 1, possibly two, or a function of a name."""
    v = draw(st.sampled_from(NAMES))
    form = draw(st.sampled_from(["eq", "and", "call"]))
    if form == "and":
        return f"{v} = 1 and {draw(st.sampled_from(NAMES))} = 0"
    return f"f({v}) = 1" if form == "call" else f"{v} = 1"


@st.composite
def gates(draw) -> str:
    """A gate with wires drawn independently (so they may repeat), an
    optional output, and an optional guard or phase prefix."""
    name, arity = draw(st.sampled_from(GATES))
    on = f"({', '.join(draw(wire) for _ in range(arity))})"
    out = draw(st.sampled_from(("",) + tuple(f"{v} := " for v in OUTS)))
    form = draw(st.sampled_from(["plain", "guard", "else", "phase"]))
    if form == "guard":
        return f"if {draw(guards())} then {out}{name}{on}"
    if form == "else":
        return f"if {draw(guards())} then {out}{name}{on} else {out}{name}{on}"
    if form == "phase" and arity == 1 and not name.endswith("M"):
        return f"{out}(-1)^{draw(st.sampled_from(NAMES))} {name}{on}"
    return f"{out}{name}{on}"


@st.composite
def assignments(draw) -> str:
    """A classical assignment, to a dynamic name or location or to a
    channel variable, of an expression that reads any name."""
    target = draw(st.sampled_from(DYNS + OUTS))
    index = draw(st.sampled_from(["", "(1)", f"({draw(st.sampled_from(NAMES))})"]))
    return f"{target}{index} := {draw(st.sampled_from(NAMES))} + 1"


leaves = st.one_of(gates(), gates(), assignments(), st.just("skip"),
                   st.builds("forall i in [1, 2]: {}SM(i)".format,
                             st.sampled_from(("", "p := "))))


def compositions(rules):
    pairs = st.lists(rules, min_size=2, max_size=3)
    return st.one_of(
        pairs.map(lambda rs: "{" + "; ".join(rs) + "}"),
        pairs.map(lambda rs: "{" + " || ".join("{" + r + "}" for r in rs) + "}"),
        # The leading skip keeps a conditional of gates from reading as a
        # guarded gate.
        st.tuples(guards(), rules, rules).map(
            lambda t: f"{{if {t[0]} then {{skip; {t[1]}}} else {{{t[2]}}}}}"),
    )


rules = st.recursive(leaves, compositions, max_leaves=10)


@seed(21)
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=rules, external=st.sets(st.sampled_from(OUTS + DYNS), max_size=2))
def test_walk_matches_the_reference_on_random_programs(text, external):
    ground = A.elaborate(parse(text))
    assert A.is_ground(ground.body)
    diags = assert_same(ground.body, frozenset(external))
    if not external:
        # The circuit is the program's exactly when the walk finds nothing.
        try:
            C.lower(ground)
        except QcasmError as exc:
            assert exc.diagnostics() == diags != []
        else:
            assert diags == []


@seed(7)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=programs(measure=True))
def test_elaboration_output_is_ground(case):
    assert A.is_ground(A.elaborate(parse(case[0])).body)
