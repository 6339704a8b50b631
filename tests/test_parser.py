"""Lexing, parsing, surface-form disambiguation, and pretty printing."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcasm import ast as A
from qcasm.errors import ParseError
from qcasm.parser import parse, pretty, pretty_expr, tokenize

from conftest import corpus_text, CORPUS


def expr(text: str) -> A.Expr:
    return parse(f"zzz(0) := {text}").body.value


def body(text: str) -> A.Rule:
    return parse(text).body


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", CORPUS)
def test_corpus_round_trip(name):
    prog = parse(corpus_text(name))
    text = pretty(prog)
    assert parse(text) == prog
    assert pretty(parse(text)) == text  # pretty is a fixed point


@pytest.mark.parametrize("source", [
    "skip",
    "H(1)",
    "output SM(1)",
    "p := PM(1, 2)",
    "zzz(0) := 1 + 2",
    "zzz := 1",
    "p := SM(1); (-1)^p X(2)",
    "p := SM(1); if p = 1 then X(2)",
    "p := SM(1); if p = 1 then X(2) else Z(2)",
    "p := SM(1); if p = 1 then zzz := 1 else skip",
    "p := SM(1); if p = 1 then zzz := 1 elseif p = 0 then zzz := 2 else zzz := 3",
    "forall i in [1, 3]: H(i)",
    "forall i in {1, 4}: H(i)",
    "for i = 1 to 3: {H(i); X(i)}",
    "param n = 2\nQFT_n(1..n)",
    "param n\nR_(n + 1)(1)",
    "U_pow(3)(1)",
    "H(1) || {X(2); Y(3)}",
    "{H(1); X(2)} || Y(3)",
    "ket 0 on 1 and bell00 on 2, 3;\nH(1)",
    "param c = 0\nbit(c) on 1;\nH(1)",
    "forall i in [1, 2]: ket 0 on i;\nH(1)",
    "zzz(1, 2) := 3",
])
def test_small_round_trips(source):
    prog = parse(source)
    assert parse(pretty(prog)) == prog


def test_comments_and_whitespace_are_ignored():
    plain = parse("H(1);\nX(2)")
    decorated = parse("# leading comment\n\nH(1);  # trailing comment\n\n\nX(2)\n# end\n")
    assert plain == decorated


# ---------------------------------------------------------------------------
# tokens and error positions
# ---------------------------------------------------------------------------

def test_tokenizer_positions():
    toks = tokenize("H(1);\n  p := SM(2)")
    assert (toks[0].kind, toks[0].line, toks[0].column) == ("ident", 1, 1)
    assert toks[5].text == "p" and (toks[5].line, toks[5].column) == (2, 3)
    assert toks[-1].kind == "eof"


def test_unexpected_character():
    with pytest.raises(ParseError) as exc:
        parse("H(1) @")
    assert (exc.value.line, exc.value.column) == (1, 6)
    assert "@" in exc.value.message


@pytest.mark.parametrize("template, column", [("x := {}; H(1)", 6),
                                               ("param n = {}\nH(1)", 11),
                                               ("R_{}(1)", 1)])
def test_integer_literal_past_the_conversion_limit(template, column):
    digits = A.int_str_digits()
    if not digits:
        pytest.skip("this Python converts integers of any length")
    with pytest.raises(ParseError) as exc:
        parse(template.format("9" * (digits + 1)))
    assert (exc.value.line, exc.value.column) == (1, column)
    assert exc.value.message == (f"integer literal of {digits + 1} digits exceeds "
                                 f"the limit of {digits} digits")
    parse(template.format("9" * digits))


def test_superscript_digits_are_not_integers():
    # str.isdigit accepts "²", which int() refuses
    with pytest.raises(ParseError, match="unexpected character"):
        parse("x := ²; H(1)")
    with pytest.raises(ParseError, match="bad gate subscript"):
        parse("R_²(1)")


def test_error_position_on_later_line():
    with pytest.raises(ParseError) as exc:
        parse("param n = 1\nH()")
    assert (exc.value.line, exc.value.column) == (2, 3)
    assert str(exc.value).startswith("2:3: ")


def test_missing_wire_list():
    with pytest.raises(ParseError) as exc:
        parse("psi on 1")
    assert (exc.value.line, exc.value.column) == (1, 5)


def test_trailing_garbage():
    with pytest.raises(ParseError, match="end of program"):
        parse("H(1) H(2)")


def test_deep_nesting_is_a_parse_error():
    text = "{" * 4000 + "skip" + "}" * 4000
    with pytest.raises(ParseError, match="nesting"):
        parse(text)


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

def test_precedence_shapes():
    assert expr("1 + 2 * 3") == A.BinOp("+", A.IntLit(1),
                                        A.BinOp("*", A.IntLit(2), A.IntLit(3)))
    assert expr("2 ^ 3 ^ 2") == A.BinOp("^", A.IntLit(2),
                                        A.BinOp("^", A.IntLit(3), A.IntLit(2)))
    assert expr("-2 ^ 2") == A.UnOp("-", A.BinOp("^", A.IntLit(2), A.IntLit(2)))
    assert expr("a or b and c") == A.BinOp("or", A.Name("a"),
                                           A.BinOp("and", A.Name("b"), A.Name("c")))
    assert expr("not a = 1") == A.UnOp("not", A.BinOp("=", A.Name("a"), A.IntLit(1)))
    assert expr("1 xor 2 + 3") == A.BinOp("+", A.BinOp("xor", A.IntLit(1), A.IntLit(2)),
                                          A.IntLit(3))
    assert expr("6 div 2 mod 2") == A.BinOp("mod", A.BinOp("div", A.IntLit(6), A.IntLit(2)),
                                            A.IntLit(2))


def test_comparison_is_not_associative():
    with pytest.raises(ParseError):
        parse("zzz(0) := 1 < 2 < 3")


def test_parenthesized_grouping():
    assert expr("(1 + 2) * 3") == A.BinOp("*", A.BinOp("+", A.IntLit(1), A.IntLit(2)),
                                          A.IntLit(3))


def test_call_expressions():
    assert expr("grover_rounds(N)") == A.Call("grover_rounds", (A.Name("N"),))
    assert expr("f(1, g(2))") == A.Call("f", (A.IntLit(1), A.Call("g", (A.IntLit(2),))))


# ---------------------------------------------------------------------------
# gates, subscripts, and phases
# ---------------------------------------------------------------------------

def test_plain_gate():
    r = body("H(1)")
    assert r == A.GateRule((), (A.MeasurementExpr("H"),), (A.IntLit(1),), None)


def test_output_is_sugar_for_anonymous_gate():
    assert body("output SM(1)") == body("SM(1)")


def test_named_outcome():
    r = body("p := PM(1, 2)")
    assert isinstance(r, A.GateRule) and r.out == "p"
    assert r.branches[0].name == "PM"
    assert r.wires == (A.IntLit(1), A.IntLit(2))


def test_subscript_forms():
    assert body("R_2(1)").branches[0] == A.MeasurementExpr("R", (A.IntLit(2),))
    assert body("QFT_n(1..n)").branches[0] == A.MeasurementExpr("QFT", (A.Name("n"),))
    assert body("cR_(k - i + 1)(k, i)").branches[0].params[0] == A.BinOp(
        "+", A.BinOp("-", A.Name("k"), A.Name("i")), A.IntLit(1))
    assert body("mark_(n, m)(1..n)").branches[0] == A.MeasurementExpr(
        "mark", (A.Name("n"), A.Name("m")))


def test_power_form():
    m = body("cU_pow(i - 1)(2, 3)").branches[0]
    assert m.name == "cU" and m.params == ()
    assert m.power == A.BinOp("-", A.Name("i"), A.IntLit(1))


def test_bad_subscripts():
    with pytest.raises(ParseError, match="subscript"):
        parse("x_y_z(1)")
    with pytest.raises(ParseError, match="bad gate name"):
        parse("_x(1)")


def test_wire_ranges():
    r = body("QFT_2(1..2)")
    assert r.wires == (A.WireRange(A.IntLit(1), A.IntLit(2)),)
    r = body("mark_(n, m)(1..(n + 1))")
    (rng,) = r.wires
    assert rng.lo == A.IntLit(1)
    assert rng.hi == A.BinOp("+", A.Name("n"), A.IntLit(1))


def test_phase_prefix():
    r = body("(-1)^q X(3)")
    assert r.branches[0] == A.MeasurementExpr("X", (), None, A.Name("q"))
    r = body("y := (-1)^q X(3)")
    assert r.out == "y" and r.branches[0].phase == A.Name("q")


def test_phase_prefix_must_be_minus_one():
    with pytest.raises(ParseError, match="phase prefix"):
        parse("(-2)^q X(3)")
    with pytest.raises(ParseError):
        parse("(2)^q X(3)")


# ---------------------------------------------------------------------------
# gate versus classical assignment
# ---------------------------------------------------------------------------

def test_assign_rhs_gate_wins():
    r = body("x := f(1)")
    assert isinstance(r, A.GateRule) and r.out == "x"
    assert r.branches[0].name == "f"


def test_assign_rhs_expression_falls_back():
    r = body("x := f(1) + 1")
    assert isinstance(r, A.ClassicalAssign)
    assert r.value == A.BinOp("+", A.Call("f", (A.IntLit(1),)), A.IntLit(1))
    assert body("x := 2") == A.ClassicalAssign("x", (), A.IntLit(2))
    assert isinstance(body("x := y"), A.ClassicalAssign)


def test_assign_rhs_gate_before_separator():
    r = body("x := f(1) || H(2)")
    assert isinstance(r, A.Parallel)
    assert isinstance(r.bodies[0], A.GateRule) and r.bodies[0].out == "x"
    r = body("x := f(1); H(2)")
    assert isinstance(r.parts[0], A.GateRule)


def test_function_location_assignment():
    r = body("f(1, 2) := 3")
    assert r == A.ClassicalAssign("f", (A.IntLit(1), A.IntLit(2)), A.IntLit(3))
    with pytest.raises(ParseError, match="ranges"):
        parse("f(1..2) := 3")


# ---------------------------------------------------------------------------
# conditionals
# ---------------------------------------------------------------------------

def test_gate_conditional_merges():
    r = body("if q = 1 then X(3)")
    assert isinstance(r, A.GateRule)
    assert len(r.guards) == 1 and len(r.branches) == 1
    assert r.branches[0].name == "X" and r.wires == (A.IntLit(3),)


def test_gate_conditional_with_else_and_out():
    r = body("if q = 1 then y := X(1) else y := Z(1)")
    assert isinstance(r, A.GateRule) and r.out == "y"
    assert [b.name for b in r.branches] == ["X", "Z"]


def test_gate_conditional_rejects_mismatched_wires():
    with pytest.raises(ParseError, match="same wires"):
        parse("if q = 1 then X(1) else Z(2)")


def test_gate_conditional_rejects_mismatched_outputs():
    with pytest.raises(ParseError, match="same variable"):
        parse("if q = 1 then y := X(1) else z := X(1)")


def test_mixed_conditional_stays_classical():
    r = body("if q = 1 then zzz := 1 else H(2)")
    assert isinstance(r, A.ClassicalCond)
    assert len(r.guards) == 1 and len(r.branches) == 2


def test_nested_guarded_gate_is_not_plain():
    r = body("if q = 1 then {if p = 1 then X(1)}")
    assert isinstance(r, A.ClassicalCond)


def test_elseif_chain():
    r = body("if q = 1 then X(1) elseif q = 2 then Y(1) else Z(1)")
    assert isinstance(r, A.GateRule)
    assert [b.name for b in r.branches] == ["X", "Y", "Z"]
    assert len(r.guards) == 2


# ---------------------------------------------------------------------------
# composition and structure
# ---------------------------------------------------------------------------

def test_parallel_binds_tighter_than_sequence():
    r = body("H(1) || X(2); Y(3)")
    assert isinstance(r, A.Sequential) and len(r.parts) == 2
    assert isinstance(r.parts[0], A.Parallel)


def test_braces_override_grouping():
    r = body("H(1) || {X(2); Y(3)}")
    assert isinstance(r, A.Parallel)
    assert isinstance(r.bodies[1], A.Sequential)


def test_forall_binder():
    r = body("forall i in [1, n]: H(i)")
    assert isinstance(r, A.Parallel) and r.binder == A.Binder(
        "i", A.Range(A.IntLit(1), A.Name("n")))
    assert len(r.bodies) == 1


def test_for_loop():
    r = body("for k = 1 to grover_rounds(N): H(k)")
    assert isinstance(r, A.ForLoop) and r.var == "k"
    assert r.stop == A.Call("grover_rounds", (A.Name("N"),))


# ---------------------------------------------------------------------------
# input declarations
# ---------------------------------------------------------------------------

def test_input_declaration_forms():
    prog = parse("bit(c) on 1 and ket 0 on 2 and bit(t) on 3;\nH(2)")
    decl = prog.input_decl
    assert len(decl.conjuncts) == 3
    assert decl.conjuncts[0].state == A.NamedStateRef("bit", (A.Name("c"),))
    assert decl.conjuncts[1].state == A.KetState("0")
    assert decl.conjuncts[1].wires == (A.IntLit(2),)


def test_input_multi_wire_conjunct():
    prog = parse("psi on 1 and bell00 on 2, 3;\nH(1)")
    assert prog.input_decl.conjuncts[1].wires == (A.IntLit(2), A.IntLit(3))


def test_input_forall_conjunct():
    prog = parse("{forall i in [1, n]: ket 0 on i} and ket 1 on n + 1;\nH(1)")
    c0, c1 = prog.input_decl.conjuncts
    assert c0.binder == A.Binder("i", A.Range(A.IntLit(1), A.Name("n")))
    assert c1.state == A.KetState("1")
    assert c1.wires == (A.BinOp("+", A.Name("n"), A.IntLit(1)),)


def test_no_input_declaration_backtracks():
    assert parse("H(1)").input_decl is None
    assert parse("p := SM(1); H(2)").input_decl is None
    assert parse("skip").input_decl is None


def test_ket_requires_bitstring():
    with pytest.raises(ParseError, match="bitstring"):
        parse("ket 012 on 1, 2, 3;\nH(1)")


def test_param_declarations():
    prog = parse("param n = 3\nparam m\nH(1)")
    assert prog.params == (A.ParamDecl("n", 3), A.ParamDecl("m", None))


# ---------------------------------------------------------------------------
# pretty printing details
# ---------------------------------------------------------------------------

def test_pretty_minimal_parens():
    assert pretty_expr(expr("(1 + 2) * 3")) == "(1 + 2) * 3"
    assert pretty_expr(expr("1 + (2 * 3)")) == "1 + 2 * 3"
    assert pretty_expr(expr("(2 ^ 3) ^ 2")) == "(2^3)^2"
    assert pretty_expr(expr("2 ^ (3 ^ 2)")) == "2^3^2"
    assert pretty_expr(expr("-(1 + 2)")) == "-(1 + 2)"
    assert pretty_expr(expr("not (a and b)")) == "not (a and b)"
    assert pretty_expr(expr("1 - (2 - 3)")) == "1 - (2 - 3)"


def test_pretty_wires_reparse():
    # a wire is read at the additive level, so a looser one keeps its parens
    for text in ("H((not a))", "H((a < b), 2)", "ket 0 on (a or b); H(1)"):
        prog = parse(text)
        assert parse(pretty(prog)) == prog, text


def test_pretty_preserves_explicit_else_skip():
    prog = parse("p := SM(1); if p = 1 then zzz := 1 else skip")
    assert "else skip" in pretty(prog)
    assert parse(pretty(prog)) == prog


def test_pretty_ends_with_newline():
    assert pretty(parse("H(1)")).endswith("\n")


# ---------------------------------------------------------------------------
# totality fuzzing: parse never raises anything but ParseError
# ---------------------------------------------------------------------------

_FRAGMENTS = st.sampled_from([
    "H", "SM", "PM", "QFT_n", "R_2", "cU_pow", "skip", "if", "then", "else",
    "elseif", "for", "forall", "in", "to", "param", "and", "or", "not", "on",
    "ket", "output", "bit", ":=", "..", "||", ";", ":", "(", ")", "{", "}",
    "[", "]", ",", "=", "<", "+", "-", "*", "^", "mod", "div", "xor",
    "0", "1", "2", "42", "p", "q", "x", "n", " ", "\n", "# c\n", "@",
])


@settings(max_examples=300, deadline=None)
@given(st.lists(_FRAGMENTS, max_size=40))
def test_parse_is_total(frags):
    text = " ".join(frags)
    try:
        prog = parse(text)
    except ParseError as exc:
        assert exc.line >= 1 and exc.column >= 1
        assert str(exc)
    else:
        assert isinstance(prog, A.Program)
        # successful parses must round-trip
        assert parse(pretty(prog)) == prog
