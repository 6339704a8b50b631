"""Lowering to generalized circuits, decomposition trees, and schedules.

The schedule oracle is brute force: every ordered partition of the gate
set is generated and filtered through check_schedule, and all_schedules
must return exactly the survivors.
"""
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcasm import ast as A
from qcasm import circuit as C
from qcasm.errors import CapExceededError, LoweringError, ScheduleError
from qcasm.parser import parse

from conftest import corpus_program, CORPUS


def ground(text: str, bindings=None, registry=None) -> A.Program:
    return A.elaborate(parse(text), bindings, registry)


def teleport() -> A.Program:
    return A.elaborate(corpus_program("teleport"))


def ordered_partitions(pool: frozenset):
    """Every way to split pool into an ordered sequence of nonempty bouts."""
    if not pool:
        yield ()
        return
    elems = sorted(pool)
    for r in range(1, len(elems) + 1):
        for bout in itertools.combinations(elems, r):
            for rest in ordered_partitions(pool - set(bout)):
                yield (tuple(bout),) + rest


def oracle_schedules(circuit: C.GeneralizedCircuit) -> set:
    valid = set()
    for cand in ordered_partitions(frozenset(circuit.gids)):
        try:
            C.check_schedule(circuit, cand)
        except ScheduleError:
            continue
        valid.add(cand)
    return valid


# ---------------------------------------------------------------------------
# the teleport circuit, frozen
# ---------------------------------------------------------------------------

def test_teleport_structure():
    c = C.lower(teleport())
    assert c.width == 3
    assert c.gids == ((1, 0), (1, 1), (1, 2), (2, 1), (3, 0), (3, 1))

    by_gid = {g.gid: g for g in c.gates}
    assert by_gid[(1, 0)].wires == (1, 2) and by_gid[(1, 0)].out is None
    assert by_gid[(1, 0)].families[0].name == "CNOT"
    assert by_gid[(1, 1)].wires == (1,) and by_gid[(1, 1)].families[0].name == "H"
    assert by_gid[(1, 2)].out == "p" and by_gid[(1, 2)].families[0].name == "SM"
    assert by_gid[(2, 1)].out == "q" and by_gid[(2, 1)].wires == (2,)
    assert [f.name for f in by_gid[(3, 0)].families] == ["X", "I"]
    assert [f.name for f in by_gid[(3, 1)].families] == ["Z", "I"]
    assert by_gid[(3, 0)].reads() == frozenset({"q"})
    assert by_gid[(3, 1)].reads() == frozenset({"p"})

    assert c.prereq == {
        (1, 0): frozenset(),
        (1, 1): frozenset({(1, 0)}),
        (1, 2): frozenset({(1, 1)}),
        (2, 1): frozenset({(1, 0)}),
        (3, 0): frozenset({(2, 1)}),
        (3, 1): frozenset({(1, 2), (3, 0)}),
    }
    assert c.classical_deps == (((1, 2), (3, 1), "p"), ((2, 1), (3, 0), "q"))


def test_teleport_wire_orders():
    c = C.lower(teleport())
    assert c.wire_order(1) == ((1, 0), (1, 1), (1, 2))
    assert c.wire_order(2) == ((1, 0), (2, 1))
    assert c.wire_order(3) == ((3, 0), (3, 1))


def test_teleport_closure_and_independence():
    c = C.lower(teleport())
    closed = c.closure()
    assert closed[(3, 1)] == frozenset({(1, 0), (1, 1), (1, 2), (2, 1), (3, 0)})
    assert closed[(1, 0)] == frozenset()
    assert c.independent((1, 2), (2, 1))
    assert not c.independent((1, 0), (3, 1))
    assert not c.independent((1, 1), (1, 1))


def test_gate_labels():
    c = C.lower(teleport())
    assert c.gate((1, 2)).label == "p := SM(1)"
    assert c.gate((3, 0)).label == "X / I(3)"
    with pytest.raises(KeyError):
        c.gate((9, 9))


def test_chain_index_counts_every_touch():
    # a two-wire gate occupies a slot in both wire chains
    c = C.lower(ground("H(2); PM(1, 2); H(2)"))
    assert c.gids == ((1, 0), (2, 0), (2, 2))
    assert c.wire_order(2) == ((2, 0), (1, 0), (2, 2))


# ---------------------------------------------------------------------------
# regrouping invariance
# ---------------------------------------------------------------------------

def test_cnot_programs_lower_to_the_same_circuit():
    strict = C.lower(A.elaborate(corpus_program("cnot_mb")))
    liberal = C.lower(A.elaborate(corpus_program("cnot_mb_liberal")))
    assert strict == liberal


def test_cnot_decompositions_differ_but_canonical_order_agrees():
    strict = C.decomposition(A.elaborate(corpus_program("cnot_mb")))
    liberal = C.decomposition(A.elaborate(corpus_program("cnot_mb_liberal")))
    assert strict != liberal
    assert frozenset(C.decomp_leaves(strict)) == frozenset(C.decomp_leaves(liberal))


def test_canonicalize_removes_grouping():
    a = C.decomposition(ground("{H(1); X(2)}; Y(3)"))
    b = C.decomposition(ground("H(1); {X(2); Y(3)}"))
    assert a != b
    assert C.canonicalize(a) == C.canonicalize(b)
    assert C.tree_text(C.canonicalize(a)) == "seq(1.0, 2.0, 3.0)"
    assert C.sp_pairs(a) == C.sp_pairs(b)


def test_canonicalize_collapses_singletons():
    t = C.DecompNode("seq", (C.DecompNode("par", (C.DecompLeaf((1, 0)),)),))
    assert C.canonicalize(t) == C.DecompLeaf((1, 0))
    assert C.canonicalize(None) is None


def test_decomp_node_kind_validated():
    with pytest.raises(LoweringError):
        C.DecompNode("mixed", (C.DecompLeaf((1, 0)),))


def test_sp_pairs_refine_prerequisites_on_corpus(pe_registry):
    bindings = {"qft": {"n": 3}, "grover": {"n": 2, "N": 4, "m": 3}}
    for name in CORPUS:
        reg = pe_registry if name == "phase_est" else None
        prog = A.elaborate(corpus_program(name), bindings.get(name), reg)
        circuit, tree = C._lower(prog)
        pairs = C.sp_pairs(tree)
        for gid, preds in circuit.closure().items():
            for p in preds:
                assert (p, gid) in pairs, (name, p, gid)


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def test_greedy_teleport_schedule():
    sched = C.greedy_schedule(teleport())
    assert sched == (
        ((1, 0),),
        ((1, 1),),
        ((1, 2), (2, 1)),
        ((3, 0),),
        ((3, 1),),
    )
    C.check_schedule(C.lower(teleport()), sched)


def test_greedy_on_corpus_is_valid(pe_registry):
    bindings = {"qft": {"n": 3}, "grover": {"n": 2, "N": 4, "m": 3}}
    for name in CORPUS:
        reg = pe_registry if name == "phase_est" else None
        prog = A.elaborate(corpus_program(name), bindings.get(name), reg)
        C.check_schedule(C.lower(prog), C.greedy_schedule(prog))


def test_greedy_from_circuit_falls_back_to_prerequisites():
    prog = teleport()
    c = C.lower(prog)
    sched = C.greedy_schedule(c)
    C.check_schedule(c, sched)
    # prerequisite layering is coarser than the program's own order here:
    # H(1) and q := SM(2) only share the CNOT prerequisite
    assert sched == (
        ((1, 0),),
        ((1, 1), (2, 1)),
        ((1, 2), (3, 0)),
        ((3, 1),),
    )


def test_all_schedules_matches_brute_force_teleport():
    c = C.lower(teleport())
    got = C.all_schedules(c)
    assert len(got) == 13
    assert len(set(got)) == 13
    assert set(got) == oracle_schedules(c)


def test_all_schedules_matches_brute_force_small_cases():
    cases = [
        ("H(1) || H(2)", 3),
        ("H(1) || H(2); X(1)", 5),
        ("H(1); X(1)", 1),
        ("H(1) || X(2) || Y(3)", 13),
    ]
    for text, count in cases:
        circ = C.lower(ground(text))
        got = C.all_schedules(circ)
        assert len(got) == count, text
        assert set(got) == oracle_schedules(circ), text


def test_all_schedules_truncated_cnot():
    body = A.elaborate(corpus_program("cnot_mb")).body
    prefix = A.Program((), None, A.Sequential(body.parts[:3]))
    c = C.lower(prefix)
    assert len(c.gates) == 4
    got = C.all_schedules(c)
    assert len(got) == 7
    assert set(got) == oracle_schedules(c)


def test_all_schedules_qft_chain():
    prog = A.elaborate(corpus_program("qft"), {"n": 2})
    c = C.lower(prog)
    got = C.all_schedules(c)
    assert set(got) == oracle_schedules(c)
    assert len(got) == 1  # the n=2 circuit is a single dependency chain


def test_all_schedules_cap():
    c = C.lower(teleport())
    assert len(C.all_schedules(c, max_count=13)) == 13
    with pytest.raises(CapExceededError):
        C.all_schedules(c, max_count=12)


def test_schedule_from_order_detects_cycles():
    a, b = (1, 0), (2, 0)
    with pytest.raises(ScheduleError, match="cycle"):
        C.schedule_from_order(frozenset({(a, b), (b, a)}), (a, b))


def layering_reference(pairs, gids):
    """Round-by-round greedy layering: rescan the remaining gates each
    round and take those with no remaining predecessor."""
    preds = {g: set() for g in gids}
    for a, b in pairs:
        if a in preds and b in preds:
            preds[b].add(a)
    remaining = set(gids)
    bouts = []
    while remaining:
        ready = tuple(sorted(g for g in remaining if not (preds[g] & remaining)))
        if not ready:
            raise ScheduleError("order relation has a cycle")
        bouts.append(ready)
        remaining -= set(ready)
    return tuple(bouts)


@st.composite
def orders(draw):
    """Random gate sets with random pair sets: a DAG along a random
    numbering, plus pairs naming unknown gates, plus sometimes one back
    edge that may close a cycle."""
    n = draw(st.integers(0, 12))
    gids = draw(st.permutations([(w, k) for w in range(1, 4) for k in range(4)][:n]))
    pairs = set()
    if n > 1:
        for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                  max_size=3 * n)):
            if i < j:
                pairs.add((gids[i], gids[j]))
        if draw(st.booleans()):
            i, j = draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
            pairs.add((gids[max(i, j)], gids[min(i, j)]))
    if draw(st.booleans()):
        pairs.add(((9, 9), gids[0] if gids else (1, 0)))
    return frozenset(pairs), tuple(gids)


@settings(max_examples=400, deadline=None)
@given(orders())
def test_schedule_from_order_matches_round_by_round_layering(order):
    pairs, gids = order
    try:
        want = layering_reference(pairs, gids)
    except ScheduleError:
        with pytest.raises(ScheduleError, match="cycle"):
            C.schedule_from_order(pairs, gids)
        return
    assert C.schedule_from_order(pairs, gids) == want


@st.composite
def sp_trees(draw):
    """Random series-parallel trees (single-child and nested same-kind
    nodes included) over distinct gate ids in a random order."""
    shape = draw(st.recursive(
        st.none(),
        lambda kids: st.tuples(st.sampled_from(["seq", "par"]),
                               st.lists(kids, min_size=1, max_size=4)),
        max_leaves=20))
    pool = iter(draw(st.permutations([(w, k) for w in range(1, 9) for k in range(5)])))

    def build(s):
        if s is None:
            return C.DecompLeaf(next(pool))
        kind, kids = s
        return C.DecompNode(kind, tuple(build(k) for k in kids))

    return build(shape)


@settings(max_examples=400, deadline=None)
@given(sp_trees())
def test_greedy_schedule_walks_the_tree_like_its_order(tree):
    # greedy_schedule(circuit, tree) layers the tree alone, in one walk.
    want = C.schedule_from_order(C.sp_pairs(tree), C.decomp_leaves(tree))
    assert C._tree_schedule(tree) == want


def test_greedy_schedule_matches_order_layering_on_corpus(pe_registry):
    bindings = {"qft": {"n": 7}, "grover": {"n": 3, "N": 8, "m": 5}}
    for name in CORPUS:
        reg = pe_registry if name == "phase_est" else None
        prog = A.elaborate(corpus_program(name), bindings.get(name), reg)
        tree = C.decomposition(prog)
        want = C.schedule_from_order(C.sp_pairs(tree), C.decomp_leaves(tree))
        assert C.greedy_schedule(prog) == want, name


def test_check_schedule_rejections():
    c = C.lower(teleport())
    ok = C.greedy_schedule(teleport())
    with pytest.raises(ScheduleError, match="twice"):
        C.check_schedule(c, ok + (((1, 0),),))
    with pytest.raises(ScheduleError, match="partition"):
        C.check_schedule(c, ok[1:])
    with pytest.raises(ScheduleError, match="partition"):
        C.check_schedule(c, ok + (((9, 9),),))
    with pytest.raises(ScheduleError, match="not independent"):
        C.check_schedule(c, (((1, 0), (1, 1)),) + ok[2:])
    with pytest.raises(ScheduleError, match="has not fired"):
        C.check_schedule(c, (ok[1], ok[0]) + ok[2:])


def test_empty_program_has_one_empty_schedule():
    prog = ground("zzz := 1")
    c = C.lower(prog)
    assert c.gates == ()
    assert C.decomposition(prog) is None
    assert C.greedy_schedule(prog) == ()
    assert C.all_schedules(c) == [()]
    C.check_schedule(c, ())


# ---------------------------------------------------------------------------
# lowering preconditions and gate validation
# ---------------------------------------------------------------------------

def test_lower_requires_elaboration():
    with pytest.raises(LoweringError, match="elaborate"):
        C.lower(parse("param n\nH(n)"))
    with pytest.raises(LoweringError, match="elaborate"):
        C.lower(parse("for i = 1 to 2: H(i)"))


def test_lower_requires_well_formedness():
    with pytest.raises(LoweringError, match="not well formed"):
        C.lower(ground("H(1) || X(1)"))


@pytest.mark.parametrize("text", ["if q = 1 then X(1)",
                                  "q := SM(1) || if q = 1 then X(2)"])
def test_guard_of_an_unproduced_variable_is_ill_formed(text):
    # Lowering looks each guard variable up among the earlier gates'
    # outputs with no check of its own: well formedness rejects first.
    with pytest.raises(LoweringError, match="not well formed") as info:
        C.lower(ground(text))
    clauses = {d.clause for d in info.value.diagnostics()}
    assert A.CLAUSE_UNBOUND_CHANNEL_VARIABLE in clauses


def test_lower_requires_a_program():
    with pytest.raises(LoweringError):
        C.lower("H(1)")


def test_gate_family_count_validated():
    with pytest.raises(LoweringError):
        C.Gate((1, 0), (1,), None, (), ())


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def test_to_dot_shape():
    dot = C.to_dot(C.lower(teleport()))
    assert dot.startswith("digraph circuit {")
    assert "g_1_0" in dot and "g_3_1" in dot
    assert 'style=dashed, label="p"' in dot
    assert "in_1 -> g_1_0" in dot
    assert dot.rstrip().endswith("}")


def test_to_json_shape():
    doc = C.lower(teleport()).to_json()
    assert doc["width"] == 3
    assert [g["id"] for g in doc["gates"]] == [[1, 0], [1, 1], [1, 2], [2, 1], [3, 0], [3, 1]]
    g30 = doc["gates"][4]
    assert g30["families"] == ["X", "I"] and g30["guards"] == ["q = 1"]
    assert doc["wiring"]["2"] == [[1, 0], [2, 1]]
    assert doc["classical_deps"][0] == {"producer": [1, 2], "consumer": [3, 1],
                                        "variable": "p"}


def test_schedule_json():
    sched = C.greedy_schedule(teleport())
    assert C.schedule_json(sched)[2] == [[1, 2], [2, 1]]


def test_tree_text_teleport():
    tree = C.decomposition(teleport())
    assert C.tree_text(tree) == "seq(1.0, 1.1, par(1.2, 2.1), 3.0, 3.1)"
    assert C.tree_text(None) == "empty"
