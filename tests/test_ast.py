"""Expression evaluation, elaboration to ground rules, and the static checks."""
import dataclasses
import sys

import numpy as np
import pytest

from qcasm import ast as A
from qcasm import circuit as C
from qcasm import qmath as Q
from qcasm.errors import ElaborationError, SimulationError, UnknownNameError
from qcasm.parser import parse

from conftest import corpus_program, corpus_text, CORPUS


def expr(text: str) -> A.Expr:
    """Parse a bare expression by wrapping it in a classical assignment."""
    prog = parse(f"zzz(0) := {text}")
    assert isinstance(prog.body, A.ClassicalAssign)
    return prog.body.value


def body(text: str) -> A.Rule:
    return parse(text).body


def ev(text: str, env=None):
    return A.compile_expr(expr(text), ElaborationError)(env or {})


# ---------------------------------------------------------------------------
# static expression evaluation
# ---------------------------------------------------------------------------

def test_arithmetic_precedence_and_values():
    assert ev("2 + 3 * 4") == 14
    assert ev("(1 + 2) * 3") == 9
    assert ev("2 ^ 3 ^ 2") == 512  # right associative
    assert ev("2 ^ 10") == 1024
    assert ev("7 div 2") == 3
    assert ev("7 mod 2") == 1
    assert ev("-3 + 5") == 2


def test_floor_division_semantics():
    assert ev("-7 div 2") == -4
    assert ev("-7 mod 2") == 1
    assert ev("-1 mod 8") == 7


def test_division_by_zero():
    with pytest.raises(ElaborationError):
        ev("1 div 0")
    with pytest.raises(ElaborationError):
        ev("1 mod 0")


def test_integers_are_bounded_before_they_grow():
    bits = A.MAX_INT_BITS
    assert ev(f"2 ^ {bits - 1}").bit_length() == bits
    assert ev(f"2 ^ {bits // 2} * 2 ^ {bits // 2 - 1}").bit_length() == bits
    assert ev(f"(0 - 1) ^ (2 ^ {bits - 1})") == 1 and ev(f"0 * 2 ^ {bits - 1}") == 0
    for text in (f"2 ^ {bits}", "3 ^ (2 ^ 64)", f"2 ^ {bits - 1} * 2",
                 f"2 ^ {bits - 1} + 2 ^ {bits - 1}", f"0 - 2 ^ {bits - 1} - 2 ^ {bits - 1}"):
        with pytest.raises(ElaborationError, match=f"exceeds {bits} bits"):
            ev(text)
    with pytest.raises(SimulationError, match=f"exceeds {bits} bits"):
        A.compile_expr(expr("x * x"))({"x": 2 ** (bits // 2 + 1)})


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int-to-text limit")
def test_integer_bound_follows_the_conversion_limit():
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        bits = A.max_int_bits()
        assert bits == 2122 < A.MAX_INT_BITS
        assert len(str(2**bits - 1)) == 639  # prints under the limit
        assert ev(f"2 ^ {bits - 1}").bit_length() == bits
        with pytest.raises(ElaborationError, match=f"exceeds {bits} bits"):
            ev(f"2 ^ {bits}")
        sys.set_int_max_str_digits(0)
        assert A.max_int_bits() == A.MAX_INT_BITS
    finally:
        sys.set_int_max_str_digits(saved)


def test_xor_is_bitwise_on_bits_only():
    assert ev("1 xor 1") == 0
    assert ev("1 xor 0") == 1
    assert ev("0 xor 0") == 0
    with pytest.raises(ElaborationError):
        ev("2 xor 1")


def test_negative_exponent_rejected():
    with pytest.raises(ElaborationError):
        ev("2 ^ -1")


def test_comparisons_and_booleans():
    assert ev("1 < 2") is True
    assert ev("2 < 1") is False
    assert ev("3 = 3") is True
    assert ev("1 = 1 and 2 = 2") is True
    assert ev("1 = 2 or 3 = 3") is True
    assert ev("not 1 < 2") is False


def test_booleans_and_integers_do_not_mix():
    with pytest.raises(ElaborationError):
        ev("(1 < 2) + 1")
    with pytest.raises(ElaborationError):
        ev("1 and 2")
    with pytest.raises(ElaborationError):
        ev("not 3")
    with pytest.raises(ElaborationError):
        ev("(1 < 2) = 1")


def test_names_resolve_from_env():
    assert ev("n + 1", {"n": 2}) == 3
    assert ev("2 ^ n", {"n": 3}) == 8
    with pytest.raises(ElaborationError):
        ev("n + 1")


def test_grover_rounds_table():
    assert ev("grover_rounds(4)") == 1
    assert ev("grover_rounds(16)") == 3
    assert ev("grover_rounds(64)") == 6
    assert ev("grover_rounds(1)") == 0
    with pytest.raises(ElaborationError):
        ev("grover_rounds(12)")
    with pytest.raises(ElaborationError):
        ev("grover_rounds(0)")


def test_unknown_function_is_static_error():
    with pytest.raises(ElaborationError, match="unknown function"):
        ev("mystery(1)")


def test_gate_call_in_static_position_is_tagged():
    with pytest.raises(ElaborationError) as exc:
        A.compile_expr(A.Call("SM", (A.IntLit(1),)), ElaborationError)({})
    assert exc.value.clause == A.CLAUSE_MEASUREMENT_OUTSIDE_GATE_RULE


def test_substitute_and_name_collection():
    e = expr("n + m * k")
    assert A.expr_names(e) == frozenset({"n", "m", "k"})
    sub = A.substitute(e, {"n": 1, "k": 3})
    assert A.expr_names(sub) == frozenset({"m"})
    assert A.compile_expr(sub, ElaborationError)({"m": 2}) == 7
    assert A.expr_calls(expr("f(g(1), 2) + h(3)")) == frozenset({"f", "g", "h"})


# ---------------------------------------------------------------------------
# runtime evaluation and the classical store
# ---------------------------------------------------------------------------

def test_runtime_store_lookup():
    assert A.compile_expr(expr("p + q"))({"p": 1, "q": 2}) == 3
    with pytest.raises(SimulationError):
        A.compile_expr(expr("p"))({})


def test_runtime_dynamic_function_values():
    e = expr("f(2)")
    assert A.compile_expr(e)({"f(2)": 7}) == 7
    with pytest.raises(SimulationError):
        A.compile_expr(e)({"f(3)": 7})
    assert A.compile_expr(expr("f(1 + 1)"))({"f(2)": 9}) == 9


def test_dynamic_key_format():
    assert A.dynamic_key("f") == "f"
    assert A.dynamic_key("f", (2,)) == "f(2)"
    assert A.dynamic_key("f", (1, 2)) == "f(1,2)"


def test_runtime_type_errors():
    with pytest.raises(SimulationError):
        A.compile_expr(expr("p and q"))({"p": 1, "q": 0})
    with pytest.raises(SimulationError):
        A.compile_expr(expr("p xor q"))({"p": 2, "q": 0})


# ---------------------------------------------------------------------------
# elaboration
# ---------------------------------------------------------------------------

def ground_body(text: str, bindings=None, registry=None) -> A.Rule:
    prog = A.elaborate(parse(text), bindings, registry)
    return prog.body


def test_loop_unrolls_sequentially():
    r = ground_body("for i = 1 to 3: H(i)")
    assert isinstance(r, A.Sequential) and len(r.parts) == 3
    assert [p.wires for p in r.parts] == [(1,), (2,), (3,)]
    assert all(p.branches[0].name == "H" for p in r.parts)
    assert A.is_ground(r)


def test_empty_loop_is_skip():
    r = ground_body("for i = 1 to 0: H(i)")
    assert isinstance(r, A.Skip)


def test_singleton_loop_collapses():
    r = ground_body("for i = 2 to 2: H(i)")
    assert isinstance(r, A.GateRule) and r.wires == (2,)


def test_forall_expands_to_parallel():
    r = ground_body("forall i in [1, 3]: H(i)")
    assert isinstance(r, A.Parallel) and len(r.bodies) == 3
    assert [b.wires for b in r.bodies] == [(1,), (2,), (3,)]


def test_forall_set_domain():
    r = ground_body("forall i in {1, 4}: H(i)")
    assert [b.wires for b in r.bodies] == [(1,), (4,)]


def test_skip_is_composition_unit():
    assert isinstance(ground_body("skip; skip"), A.Skip)
    assert isinstance(ground_body("skip || H(1)"), A.GateRule)
    r = ground_body("{skip; H(1)}; skip")
    assert isinstance(r, A.GateRule)


def test_guard_sugar_gains_identity_default():
    r = ground_body("p := SM(1); if p = 1 then X(2)")
    gate = r.parts[1]
    assert isinstance(gate, A.GateRule)
    assert len(gate.guards) == 1 and len(gate.branches) == 2
    assert gate.branches[0].name == "X"
    assert gate.branches[1].name == "I"
    assert np.allclose(gate.branches[1].outcomes[0].operator, np.eye(2))


def test_explicit_else_keeps_both_branches():
    r = ground_body("p := SM(1); if p = 1 then X(2) else Z(2)")
    gate = r.parts[1]
    assert [b.name for b in gate.branches] == ["X", "Z"]
    assert len(gate.guards) == 1


def test_phase_prefix_unguarded():
    r = ground_body("p := SM(1); (-1)^p X(2)")
    gate = r.parts[1]
    assert len(gate.guards) == 1 and len(gate.branches) == 2
    # guard asks whether the exponent is even
    g = gate.guards[0]
    assert isinstance(g, A.BinOp) and g.op == "="
    assert isinstance(g.left, A.BinOp) and g.left.op == "mod"
    assert gate.branches[0].name == "X"
    assert gate.branches[1].name == "-X"
    assert np.allclose(gate.branches[1].outcomes[0].operator,
                       -gate.branches[0].outcomes[0].operator)


def test_phase_prefix_under_guard():
    r = ground_body("p := SM(1); q := SM(2); if q = 1 then (-1)^p X(3)")
    gate = r.parts[2]
    assert len(gate.guards) == 2 and len(gate.branches) == 3
    assert [b.name for b in gate.branches] == ["X", "-X", "I"]
    combined = gate.guards[0]
    assert isinstance(combined, A.BinOp) and combined.op == "and"


def test_power_suffix_squares_repeatedly():
    r = ground_body("X_pow(2)(1)")
    assert r.branches[0].name == "X^4"
    assert np.allclose(r.branches[0].outcomes[0].operator, np.eye(2))
    r = ground_body("cX_pow(1)(1, 2)")
    assert np.allclose(r.branches[0].outcomes[0].operator, np.eye(4))
    with pytest.raises(ElaborationError):
        ground_body("X_pow(0 - 1)(1)")


def count_validations(monkeypatch) -> list:
    """Record the name of every family qmath checks for completeness."""
    names: list[str] = []
    check = Q.validate_family

    def counting(f):
        names.append(f.name)
        return check(f)

    monkeypatch.setattr(Q, "validate_family", counting)
    return names


def test_elaboration_checks_each_family_once(monkeypatch):
    names = count_validations(monkeypatch)
    # Library gates and their controlled forms are complete by
    # construction: elaboration checks none of them.
    A.elaborate(corpus_program("qft"), {"n": 8})
    A.elaborate(corpus_program("grover"), {"n": 6, "N": 64, "m": 45})
    assert names == []
    # A registered family is checked when it is registered, and its
    # controlled forms, as complete as it is, are not checked again.  A
    # power is checked once however many gates use it.
    reg = Q.Registry()
    fam = Q.unitary_family("U", Q._H)
    names.clear()
    reg.register_family(fam)
    assert names == ["U"]
    names.clear()
    A.elaborate(parse("cU(1, 2); cU(2, 1); ccU(3, 1, 2); X_pow(2)(1); X_pow(2)(2)"),
                registry=reg)
    assert names == ["X^4"]


def _expression_nodes(node, found: dict) -> dict:
    """Every expression node inside a tree of dataclasses and tuples, by id."""
    if isinstance(node, (A.IntLit, A.Name, A.BinOp, A.UnOp, A.Call)):
        found[id(node)] = node
    if isinstance(node, tuple):
        for item in node:
            _expression_nodes(item, found)
    elif dataclasses.is_dataclass(node):
        for f in dataclasses.fields(node):
            _expression_nodes(getattr(node, f.name), found)
    return found


@pytest.mark.parametrize("text, bindings", [
    (corpus_text("grover"), {"n": 6, "N": 64, "m": 45}),
    ("param n = 50\nfor k = 1 to n: { X(k mod 3 + 1); R_(k mod 5 + 2)(4) }", None),
], ids=["grover-n6", "loop-50"])
def test_elaboration_compiles_each_expression_node_once(monkeypatch, text, bindings):
    compiled = []
    compile_expr = A.compile_expr

    def counting(e, *args):
        compiled.append(e)
        return compile_expr(e, *args)

    monkeypatch.setattr(A, "compile_expr", counting)
    program = parse(text)
    A.elaborate(program, bindings)
    assert 0 < len(compiled) <= len(_expression_nodes(program, {}))


def test_gates_share_one_family_per_name_and_params():
    circ = C.lower(A.elaborate(parse(
        "p := SM(1); q := SM(2);\n"
        "for i = 1 to 3: { (-1)^p X(3); if q = 1 then Z(3); "
        "X_pow(i - i + 1)(3); R_(i - i + 2)(3); H(i) }")))
    seen: dict = {}
    for gate in circ.gates:
        for fam in gate.families:
            assert seen.setdefault(fam.name, fam) is fam, fam.name
    assert sorted(seen) == ["-X", "H", "I", "R_2", "SM", "X", "X^2", "Z"]


def test_family_memo_keeps_the_arity_check_at_each_use():
    with pytest.raises(ElaborationError, match="acts on 1 wire"):
        ground_body("H(1); H(1, 2)")


def test_family_memo_lasts_one_elaboration():
    prog = parse("H(1); U(2)")
    families = []
    for u in (Q._X, Q._Z):
        reg = Q.Registry()
        reg.register_family(Q.unitary_family("U", u))
        ground = A.elaborate(prog, None, reg)
        families.append(ground.body.parts[1].branches[0])
    assert np.allclose(families[0].outcomes[0].operator, Q._X)
    assert np.allclose(families[1].outcomes[0].operator, Q._Z)
    # A family registered after an elaboration shadows the library gate
    # in the next one that uses the same registry.
    before = A.elaborate(prog, None, reg).body.parts[0].branches[0]
    reg.register_family(Q.unitary_family("H", np.eye(2)))
    after = A.elaborate(prog, None, reg).body.parts[0].branches[0]
    assert np.allclose(before.outcomes[0].operator, Q._H)
    assert np.allclose(after.outcomes[0].operator, np.eye(2))


def test_subscript_parameters_evaluate():
    r = ground_body("param k = 2\nR_(k + 1)(1)")
    assert np.allclose(r.branches[0].outcomes[0].operator,
                       np.diag([1, np.exp(2j * np.pi / 8)]))
    r = ground_body("cR_2(2, 1)")
    assert np.allclose(r.branches[0].outcomes[0].operator, np.diag([1, 1, 1, 1j]))


def test_wire_ranges_expand():
    r = ground_body("QFT_2(1..2)")
    assert r.wires == (1, 2)
    r = ground_body("param n = 3\nQFT_n(1..n)")
    assert r.wires == (1, 2, 3)


def test_arity_mismatch_rejected():
    with pytest.raises(ElaborationError, match="applied to"):
        ground_body("H(1, 2)")
    with pytest.raises(ElaborationError, match="applied to"):
        ground_body("CNOT(1)")


def test_wire_bounds_rejected():
    with pytest.raises(ElaborationError):
        ground_body("H(0)")
    with pytest.raises(ElaborationError):
        ground_body(f"H({Q.MAX_WIDTH + 1})")
    assert ground_body(f"H({Q.MAX_WIDTH})").wires == (Q.MAX_WIDTH,)


def test_parameter_binding_rules():
    prog = parse("param n\nH(n)")
    assert A.elaborate(prog, {"n": 2}).body.wires == (2,)
    with pytest.raises(ElaborationError, match="not bound"):
        A.elaborate(prog)
    with pytest.raises(ElaborationError, match="unknown parameter"):
        A.elaborate(parse("H(1)"), {"z": 1})
    # explicit bindings win over defaults
    prog = parse("param n = 1\nH(n)")
    assert A.elaborate(prog, {"n": 3}).body.wires == (3,)


def test_parameter_output_collision():
    with pytest.raises(ElaborationError, match="collides"):
        A.elaborate(parse("param p = 0\np := SM(1)"))


def test_unknown_gate_name():
    with pytest.raises(Exception, match="ZOG"):
        ground_body("ZOG(1)")


def test_elaboration_errors_keep_their_type_and_gain_a_position():
    with pytest.raises(UnknownNameError) as exc:
        A.elaborate(parse("H(1);\n  ZOG(1)"))
    assert (exc.value.line, exc.value.column) == (2, 3)
    with pytest.raises(ElaborationError) as exc:
        A.elaborate(parse("ket 00 on 1;\nH(1)"))
    assert (exc.value.line, exc.value.column) == (1, 1)
    # A rule built by hand has no position to give.
    with pytest.raises(ElaborationError) as exc:
        A.elaborate(A.Program((), None, A.GateRule((), (A.MeasurementExpr("H"),), (1, 2), None)))
    assert exc.value.line is None and exc.value.diagnostics()[0].render().startswith("error: ")


def test_elaboration_idempotent_on_corpus(pe_registry):
    bindings = {"qft": {"n": 3}, "grover": {"n": 2, "N": 4, "m": 3}}
    for name in CORPUS:
        prog = corpus_program(name)
        reg = pe_registry if name == "phase_est" else None
        once = A.elaborate(prog, bindings.get(name), reg)
        twice = A.elaborate(once, registry=reg)
        assert once == twice, name
        assert A.is_ground(once.body), name


def test_input_conjunct_expansion():
    prog = A.elaborate(parse("param n = 2\n{forall i in [1, n]: ket 0 on i} "
                             "and ket 1 on n + 1;\nH(1)"))
    decl = prog.input_decl
    assert [c.wires for c in decl.conjuncts] == [(1,), (2,), (3,)]
    assert decl.conjuncts[2].state == A.KetState("1")


def test_input_bit_argument_checked():
    prog = A.elaborate(parse("param c = 1\nbit(c) on 1;\nH(1)"))
    assert prog.input_decl.conjuncts[0].state == A.NamedStateRef("bit", (1,))
    with pytest.raises(ElaborationError, match="bit"):
        A.elaborate(parse("param c = 2\nbit(c) on 1;\nH(1)"))


def test_input_width_mismatch():
    with pytest.raises(ElaborationError, match="declared on"):
        A.elaborate(parse("bell00 on 1;\nH(1)"))
    with pytest.raises(ElaborationError, match="declared on"):
        A.elaborate(parse("ket 00 on 1;\nH(1)"))


def test_input_wire_repetition_and_overlap():
    with pytest.raises(ElaborationError, match="repeats"):
        A.elaborate(parse("ket 00 on 1, 1;\nH(1)"))
    with pytest.raises(ElaborationError, match="overlap"):
        A.elaborate(parse("ket 0 on 1 and ket 0 on 1;\nH(1)"))


def test_unresolved_state_name_is_deferred():
    # unknown state names may be bound later by a run-time registry
    prog = A.elaborate(parse("mystate on 1;\nH(1)"))
    assert prog.input_decl.conjuncts[0].state == A.NamedStateRef("mystate", ())


def test_measurement_in_classical_value_rejected():
    with pytest.raises(ElaborationError) as exc:
        A.elaborate(parse("zzz(0) := SM(1) + 1"))
    assert exc.value.clause == A.CLAUSE_MEASUREMENT_OUTSIDE_GATE_RULE


def test_measurement_in_loop_bound_rejected():
    with pytest.raises(ElaborationError) as exc:
        A.elaborate(parse("for i = 1 to SM(1): H(i)"))
    assert exc.value.clause == A.CLAUSE_MEASUREMENT_OUTSIDE_GATE_RULE


# ---------------------------------------------------------------------------
# ground rules
# ---------------------------------------------------------------------------

def test_program_width_counts_input_wires():
    prog = A.elaborate(parse("ket 0 on 5;\nH(1)"))
    assert C.lower(prog).width == 5


def test_attributes_reject_surface_rules():
    loop = parse("for i = 1 to 2: H(i)").body
    gate = ground_body("p := SM(1)")
    assert A.is_ground(gate)
    for r in (loop, A.Sequential((gate, loop)), A.Parallel((gate, loop)),
              A.ClassicalCond((expr("p = 1"),), (loop, A.Skip())),
              A.ClassicalCond((expr("p = 1"),), (A.Skip(),)),
              parse("forall i in [1, 2]: H(i)").body):
        assert not A.is_ground(r)


# ---------------------------------------------------------------------------
# well-formedness diagnostics
# ---------------------------------------------------------------------------

def clauses(text: str, external=frozenset()) -> list[str]:
    return [d.clause for d in C.well_formed(ground_body(text), external)]


def test_corpus_is_well_formed(pe_registry):
    bindings = {"qft": {"n": 3}, "grover": {"n": 2, "N": 4, "m": 3}}
    for name in CORPUS:
        reg = pe_registry if name == "phase_est" else None
        ground, diags = C.check_program(corpus_program(name), bindings.get(name), reg)
        assert ground is not None and diags == [], name


def test_repeated_gate_wires():
    assert clauses("PM(1, 1)") == [A.CLAUSE_GATE_WIRES_DISTINCT]


def test_parallel_wire_overlap():
    assert A.CLAUSE_PARALLEL_DISJOINT_WIRES in clauses("H(1) || X(1)")
    assert A.CLAUSE_PARALLEL_DISJOINT_WIRES in clauses(
        "p := SM(1) || q := SM(1)")
    assert clauses("H(1) || X(2)") == []


def test_parallel_sibling_output():
    got = clauses("p := SM(1) || if p = 1 then X(2)")
    assert A.CLAUSE_PARALLEL_SIBLING_OUTPUT in got


def test_guard_variable_must_be_assigned_earlier():
    assert clauses("H(1); if q = 1 then X(1)") == [A.CLAUSE_UNBOUND_CHANNEL_VARIABLE]
    assert clauses("p := SM(1); if p = 1 then X(2)") == []


def test_guard_variable_must_be_a_channel():
    got = C.well_formed(ground_body("zzz := 1; if zzz = 1 then Z(1)"))
    assert [d.clause for d in got] == [A.CLAUSE_UNBOUND_CHANNEL_VARIABLE]
    assert "non-channel" in got[0].message


def test_guard_cannot_read_dynamic_locations():
    got = clauses("zzz(0) := 1; if zzz(0) = 1 then Z(1)")
    assert got == [A.CLAUSE_UNBOUND_CHANNEL_VARIABLE]


def test_guard_cannot_apply_functions():
    got = clauses("p := SM(1); if f(p) = 1 then Z(1)")
    assert A.CLAUSE_UNBOUND_CHANNEL_VARIABLE in got


def test_duplicate_output_sequential():
    assert A.CLAUSE_DUPLICATE_OUTPUT_VARIABLE in clauses("p := SM(1); p := SM(2)")


def test_duplicate_output_parallel():
    assert A.CLAUSE_DUPLICATE_OUTPUT_VARIABLE in clauses("p := SM(1) || p := SM(2)")


def test_duplicate_output_against_external():
    got = clauses("p := SM(1)", external=frozenset({"p"}))
    assert got == [A.CLAUSE_DUPLICATE_OUTPUT_VARIABLE]


def test_assign_target_cannot_be_channel():
    got = clauses("p := SM(1); p(1) := 2")
    assert A.CLAUSE_ASSIGN_TARGET_NOT_CHANNEL in got


def test_mixed_conditional_branch_rejected():
    got = clauses("p := SM(1); if p = 1 then zzz(0) := 1 else H(2)")
    assert A.CLAUSE_MEASUREMENT_OUTSIDE_GATE_RULE in got


def test_classical_reads_accumulate_in_sequence():
    assert clauses("p := SM(1); zzz(0) := p + 1") == []
    assert clauses("zzz(0) := 1; yyy(0) := zzz(0) + 1") == []
    assert A.CLAUSE_UNBOUND_CHANNEL_VARIABLE in clauses("zzz(0) := nosuch + 1")


def test_parallel_channels_visible_after_join():
    assert clauses("{p := SM(1)} || H(2); if p = 1 then X(3)") == []


def test_anonymous_gates_never_collide():
    assert clauses("output SM(1); output SM(2)") == []


def test_diagnostic_carries_location():
    diags = C.well_formed(ground_body("H(1) || X(1)"))
    assert diags[0].severity == "error"
    assert diags[0].path.startswith("body")
    assert diags[0].clause == A.CLAUSE_PARALLEL_DISJOINT_WIRES


def test_check_program_reports_elaboration_failures():
    ground, diags = C.check_program(parse("H(1, 2)"))
    assert ground is None and len(diags) == 1
    assert diags[0].severity == "error"


def test_check_program_reports_wf_failures():
    ground, diags = C.check_program(parse("H(1) || X(1)"))
    assert ground is not None
    assert [d.clause for d in diags] == [A.CLAUSE_PARALLEL_DISJOINT_WIRES]
