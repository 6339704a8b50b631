"""Concrete syntax: lexer, recursive-descent parser, and pretty printer.

Programs are free-form text; "#" starts a line comment.  The shape is

    {param decl} [input ";"] rule

where a rule is a ";"-separated sequence of "||"-separated atoms ("||"
binds tighter than ";").  Atoms are braced rules, skip, for-loops, forall
binders, conditionals, gates like ``p := PM(1, 2)`` (the target and the
``output`` keyword are optional), and classical assignments.  Gate names
take an optional parameter subscript after an underscore (``R_2``,
``QFT_n``, ``cR_(k-i+1)``) or a power-of-two exponent (``U_pow(i)``
applies U 2**i times); a gate may be prefixed with ``(-1)^v`` to pick up a
sign from channel variable v.  Wire lists accept inclusive ranges
(``1..n``).  The input declaration joins conjuncts like ``ket 0 on 2``,
``bell00 on 2,3``, ``bit(c) on 1``, or ``forall i in [1,n]: ket 0 on i``
with the keyword ``and``.

Expression operators bind by one table, ``_BINARY`` and ``_PREFIX``,
which the parser climbs and the printer parenthesizes by.  Loosest
first: ``or``; ``and``; prefix ``not``; ``=`` and ``<``
(non-associative); ``+``, ``-``, ``xor``; ``*``, ``mod``, ``div``;
prefix ``-`` and ``^`` (right-associative), so ``-a^b`` is ``-(a^b)``
and ``2^-1`` parses.

Each construct has one parsing method: ``_Parser.items`` reads every
separated list and ``_Parser.binder`` every ``forall`` binder.

``parse`` is total: it returns a Program or raises ParseError with a
line/column position.  ``pretty`` renders a parsed program back to text
that re-parses to an equal tree.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import ast
from .errors import ParseError

KEYWORDS = {
    "param", "and", "on", "ket", "forall", "for", "in", "to",
    "if", "then", "elseif", "else", "skip", "output",
    "mod", "div", "xor", "not", "or",
}

_SYMBOLS = (":=", "..", "||", "(", ")", "{", "}", "[", "]",
            ",", ";", ":", "=", "<", "+", "-", "*", "^")

_STATEMENT_FOLLOWERS = {";", "||", "}", "eof", "elseif", "else"}

# Operator precedence, read by both the parser and the printer.  A binary
# operator maps to its level (higher binds tighter) and associativity; a
# prefix operator maps to the level of its operand.
_BINARY = {"or": (1, "left"), "and": (2, "left"), "=": (4, None), "<": (4, None),
           "+": (5, "left"), "-": (5, "left"), "xor": (5, "left"),
           "*": (6, "left"), "mod": (6, "left"), "div": (6, "left"), "^": (7, "right")}
_PREFIX = {"not": 3, "-": 7}


def _operand_levels(op: str) -> tuple[int, int, int]:
    """The level of binary ``op`` and of its left and right operands: an
    operand on the associative side may be at the operator's own level,
    any other must bind tighter."""
    level, assoc = _BINARY[op]
    return level, level + (assoc != "left"), level + (assoc != "right")


def _int_literal(text: str, line: int, column: int) -> int:
    """The value of an integer literal's digits; past CPython's limit on
    the digits that ``int`` converts, a ParseError at the literal."""
    limit = ast.int_str_digits()
    if limit and len(text) > limit:
        raise ParseError(f"integer literal of {len(text)} digits exceeds the limit of "
                         f"{limit} digits", line, column)
    return int(text)


@dataclass(frozen=True)
class Token:
    kind: str  # "ident", "int", "eof", or the symbol/keyword itself
    text: str
    line: int
    column: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            tokens.append(Token(word if word in KEYWORDS else "ident", word, line, col))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(Token(sym, sym, line, col))
                col += len(sym)
                i += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self, k: int = 0) -> Token:
        return self.tokens[min(self.i + k, len(self.tokens) - 1)]

    def at(self, kind: str) -> bool:
        return self.peek().kind == kind

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            want = what or f"{kind!r}"
            raise ParseError(f"expected {want}, found {tok.text or 'end of input'!r}", tok.line, tok.column)
        return self.advance()

    def fail(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.column)

    def pos(self) -> tuple[int, int]:
        tok = self.peek()
        return (tok.line, tok.column)

    def items(self, item, sep: str = ",") -> list:
        """``item {sep item}``: every separated list of the grammar."""
        out = [item()]
        while self.at(sep):
            self.advance()
            out.append(item())
        return out

    def binder(self, domain) -> ast.Binder:
        """``forall var in domain :``, the domain read by ``domain``."""
        self.expect("forall")
        var = self.expect("ident", "a binder variable").text
        self.expect("in")
        bound = domain()
        self.expect(":")
        return ast.Binder(var, bound)

    # -- program -----------------------------------------------------------

    def program(self) -> ast.Program:
        params = []
        while self.at("param"):
            self.advance()
            name = self.expect("ident", "a parameter name").text
            default = None
            if self.at("="):
                self.advance()
                tok = self.expect("int", "an integer default")
                default = _int_literal(tok.text, tok.line, tok.column)
            params.append(ast.ParamDecl(name, default))
        decl = self.try_input_decl()
        body = self.seq()
        self.expect("eof", "end of program")
        return ast.Program(tuple(params), decl, body)

    def try_input_decl(self) -> ast.InputDecl | None:
        mark = self.i
        # "ket" can only start an input declaration, so its errors are real;
        # anything else (ident, forall, brace) may be the rule instead.
        certain = self.at("ket")
        try:
            decl = self.input_decl()
            self.expect(";")
            return decl
        except ParseError:
            if certain:
                raise
            self.i = mark
            return None

    def input_decl(self) -> ast.InputDecl:
        return ast.InputDecl(tuple(self.items(self.input_conjunct, "and")))

    def input_conjunct(self) -> ast.InputConjunct:
        pos = self.pos()
        if self.at("{"):
            self.advance()
            c = self.input_conjunct()
            self.expect("}")
            return c
        if self.at("forall"):
            binder = self.binder(self.range_literal)
            state = self.state_desc()
            self.expect("on")
            wire = self.expr(5)
            return ast.InputConjunct(state, (wire,), binder=binder, pos=pos)
        state = self.state_desc()
        self.expect("on")
        wires = tuple(self.items(self.wire_item))
        return ast.InputConjunct(state, wires, pos=pos)

    def state_desc(self) -> ast.StateDesc:
        if self.at("ket"):
            self.advance()
            tok = self.expect("int", "a bitstring after 'ket'")
            if any(c not in "01" for c in tok.text):
                raise ParseError(f"ket takes a bitstring of 0s and 1s, got {tok.text!r}", tok.line, tok.column)
            return ast.KetState(tok.text)
        name = self.expect("ident", "a state name").text
        args: tuple = ()
        if self.at("("):
            self.advance()
            args = tuple(self.items(self.expr))
            self.expect(")")
        return ast.NamedStateRef(name, args)

    # -- rules ---------------------------------------------------------------

    def seq(self) -> ast.Rule:
        pos = self.pos()
        parts = self.items(self.par, ";")
        if len(parts) == 1:
            return parts[0]
        return ast.Sequential(tuple(parts), pos=pos)

    def par(self) -> ast.Rule:
        pos = self.pos()
        if self.at("forall"):
            binder = self.binder(self.domain_literal)
            return ast.Parallel((self.atom(),), binder=binder, pos=pos)
        parts = self.items(self.atom, "||")
        if len(parts) == 1:
            return parts[0]
        return ast.Parallel(tuple(parts), pos=pos)

    def atom(self) -> ast.Rule:
        pos = self.pos()
        if self.at("{"):
            self.advance()
            rule = self.seq()
            self.expect("}")
            return rule
        if self.at("skip"):
            self.advance()
            return ast.Skip(pos=pos)
        if self.at("for"):
            self.advance()
            var = self.expect("ident", "a loop variable").text
            self.expect("=")
            start = self.expr()
            self.expect("to")
            stop = self.expr()
            self.expect(":")
            body = self.atom()
            return ast.ForLoop(var, start, stop, body, pos=pos)
        if self.at("if"):
            return self.conditional()
        if self.at("output"):
            self.advance()
            return self.gate_tail(out=None, pos=pos)
        if self.at("("):
            return self.gate_tail(out=None, pos=pos)
        if self.at("ident"):
            return self.ident_atom()
        raise self.fail(f"expected a rule, found {self.peek().text or 'end of input'!r}")

    def ident_atom(self) -> ast.Rule:
        pos = self.pos()
        name_tok = self.advance()
        name = name_tok.text
        if self.at(":="):
            self.advance()
            mark = self.i
            try:
                gate = self.gate_tail(out=name, pos=pos)
                if self.peek().kind in _STATEMENT_FOLLOWERS:
                    return gate
                raise self.fail("gate must end the statement")
            except ParseError:
                self.i = mark
            value = self.expr()
            return ast.ClassicalAssign(name, (), value, pos=pos)
        if "_" not in name and self.at("("):
            items = self.wire_items_parens()
            if self.at(":="):
                self.advance()
                if any(isinstance(item, ast.WireRange) for item in items):
                    raise ParseError("ranges cannot appear in an assignment target",
                                     name_tok.line, name_tok.column)
                return ast.ClassicalAssign(name, items, self.expr(), pos=pos)
            mexpr = ast.MeasurementExpr(name)
            return ast.GateRule((), (mexpr,), items, out=None, pos=pos)
        mexpr = self.finish_mexpr(name_tok, phase=None)
        wires = self.wire_items_parens()
        return ast.GateRule((), (mexpr,), wires, out=None, pos=pos)

    def gate_tail(self, out: str | None, pos) -> ast.GateRule:
        """Parse [(-1)^v] name[subscript](wires) and wrap it as a gate rule."""
        phase = None
        if self.at("("):
            self.advance()
            self.expect("-", "'-1' in a phase prefix")
            one = self.expect("int", "'-1' in a phase prefix")
            if one.text != "1":
                raise ParseError("phase prefix must be (-1)", one.line, one.column)
            self.expect(")")
            self.expect("^", "'^' after (-1)")
            var = self.expect("ident", "a channel variable in the phase exponent")
            phase = ast.Name(var.text)
        name_tok = self.expect("ident", "a gate or measurement name")
        mexpr = self.finish_mexpr(name_tok, phase)
        wires = self.wire_items_parens()
        return ast.GateRule((), (mexpr,), wires, out=out, pos=pos)

    def finish_mexpr(self, name_tok: Token, phase) -> ast.MeasurementExpr:
        """Split a gate token into base name and subscript/power parameters."""
        name = name_tok.text
        if "_" not in name:
            return ast.MeasurementExpr(name, (), None, phase)
        base, rest = name.split("_", 1)
        if not base:
            raise ParseError(f"bad gate name {name!r}", name_tok.line, name_tok.column)
        if rest == "pow":
            self.expect("(", "the exponent of a gate power")
            exponent = self.expr()
            self.expect(")")
            return ast.MeasurementExpr(base, (), exponent, phase)
        if rest == "":
            self.expect("(", "a parenthesized gate subscript")
            params = tuple(self.items(self.expr))
            self.expect(")")
            return ast.MeasurementExpr(base, params, None, phase)
        if rest.isdecimal():
            value = _int_literal(rest, name_tok.line, name_tok.column)
            return ast.MeasurementExpr(base, (ast.IntLit(value),), None, phase)
        if rest.isidentifier() and "_" not in rest:
            return ast.MeasurementExpr(base, (ast.Name(rest),), None, phase)
        raise ParseError(f"bad gate subscript in {name!r}", name_tok.line, name_tok.column)

    def conditional(self) -> ast.Rule:
        pos = self.pos()
        self.expect("if")
        guards = [self.expr()]
        self.expect("then")
        branches = [self.atom()]
        while self.at("elseif"):
            self.advance()
            guards.append(self.expr())
            self.expect("then")
            branches.append(self.atom())
        if self.at("else"):
            self.advance()
            branches.append(self.atom())

        def plain_gate(r) -> bool:
            return isinstance(r, ast.GateRule) and not r.guards and len(r.branches) == 1

        if all(plain_gate(b) for b in branches):
            first = branches[0]
            for b in branches[1:]:
                if b.wires != first.wires:
                    raise ParseError("conditional gate branches must use the same wires",
                                     pos[0], pos[1])
            outs = {b.out for b in branches}
            if len(outs) != 1:
                raise ParseError("conditional gate branches must assign the same variable",
                                 pos[0], pos[1])
            return ast.GateRule(tuple(guards), tuple(b.branches[0] for b in branches),
                                first.wires, first.out, pos=pos)
        return ast.ClassicalCond(tuple(guards), tuple(branches), pos=pos)

    # -- wires, ranges, domains ---------------------------------------------

    def wire_items_parens(self) -> tuple:
        self.expect("(", "a wire list")
        items = tuple(self.items(self.wire_item))
        self.expect(")")
        return items

    def wire_item(self):
        # Wires are arithmetic; stopping below "and"/"or" keeps the input
        # declaration separator ("... on 1 and ket 0 on 2") unambiguous.
        e = self.expr(5)
        if self.at(".."):
            self.advance()
            return ast.WireRange(e, self.expr(5))
        return e

    def range_literal(self) -> ast.Range:
        self.expect("[", "a range like [1, n]")
        lo = self.expr()
        self.expect(",")
        hi = self.expr()
        self.expect("]")
        return ast.Range(lo, hi)

    def domain_literal(self):
        if self.at("{"):
            self.advance()
            items = tuple(self.items(self.expr))
            self.expect("}")
            return ast.SetDomain(items)
        return self.range_literal()

    # -- expressions ----------------------------------------------------------

    def expr(self, level: int = 1) -> ast.Expr:
        """An expression whose operators all bind at ``level`` or tighter
        (see ``_BINARY`` and ``_PREFIX``)."""
        op = self.peek().kind
        if op in _PREFIX and level <= _PREFIX[op]:
            self.advance()
            top = _PREFIX[op]
            e = ast.UnOp(op, self.expr(top))
        else:
            top, e = float("inf"), self.expr_atom()
        # ``top`` is the level of ``e``, which may be the left operand of
        # an operator only at that operand's level or tighter.
        while (op := self.peek().kind) in _BINARY:
            at, left, right = _operand_levels(op)
            if at < level or top < left:
                break
            self.advance()
            e, top = ast.BinOp(op, e, self.expr(right)), at
        return e

    def expr_atom(self) -> ast.Expr:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return ast.IntLit(_int_literal(tok.text, tok.line, tok.column))
        if tok.kind == "ident":
            self.advance()
            if self.at("("):
                self.advance()
                args = tuple(self.items(self.expr))
                self.expect(")")
                return ast.Call(tok.text, args)
            return ast.Name(tok.text)
        if tok.kind == "(":
            self.advance()
            e = self.expr()
            self.expect(")")
            return e
        raise self.fail(f"expected an expression, found {tok.text or 'end of input'!r}")


def parse(text: str) -> ast.Program:
    """Parse source text into an unelaborated Program."""
    try:
        return _Parser(tokenize(text)).program()
    except RecursionError:
        raise ParseError("nesting too deep", 1, 1) from None


# ---------------------------------------------------------------------------
# pretty printing
# ---------------------------------------------------------------------------

def pretty_expr(e: ast.Expr, min_level: int = 0) -> str:
    if isinstance(e, ast.IntLit):
        return str(e.value)
    if isinstance(e, ast.Name):
        return e.ident
    if isinstance(e, ast.Call):
        return f"{e.fn}({', '.join(pretty_expr(a) for a in e.args)})"
    if isinstance(e, ast.UnOp):
        lvl = _PREFIX[e.op]
        sep = " " if e.op == "not" else ""
        text = f"{e.op}{sep}{pretty_expr(e.operand, lvl)}"
    elif isinstance(e, ast.BinOp):
        lvl, left, right = _operand_levels(e.op)
        sep = "" if e.op == "^" else " "
        text = f"{pretty_expr(e.left, left)}{sep}{e.op}{sep}{pretty_expr(e.right, right)}"
    else:
        raise TypeError(f"not an expression: {e!r}")
    return f"({text})" if lvl < min_level else text


def _pretty_wires(wires) -> str:
    parts = []
    for w in wires:
        if isinstance(w, ast.WireRange):
            parts.append(f"{pretty_expr(w.lo, 6)}..{pretty_expr(w.hi, 6)}")
        elif isinstance(w, int):
            parts.append(str(w))
        else:
            parts.append(pretty_expr(w, 5))  # the level that wire_item reads
    return ", ".join(parts)


def _pretty_mexpr(m, wires, out: str | None) -> str:
    if isinstance(m, ast.MeasurementExpr):
        name = m.name
        if m.params:
            if len(m.params) == 1 and isinstance(m.params[0], ast.IntLit):
                name = f"{m.name}_{m.params[0].value}"
            elif len(m.params) == 1 and isinstance(m.params[0], ast.Name):
                name = f"{m.name}_{m.params[0].ident}"
            else:
                name = f"{m.name}_({', '.join(pretty_expr(p) for p in m.params)})"
        if m.power is not None:
            name = f"{m.name}_pow({pretty_expr(m.power)})"
        phase = f"(-1)^{pretty_expr(m.phase)} " if m.phase is not None else ""
    else:  # ground branch: a resolved family
        name, phase = m.name, ""
    head = f"{out} := " if out else ""
    return f"{head}{phase}{name}({_pretty_wires(wires)})"


def _atomic(r: ast.Rule) -> bool:
    return isinstance(r, (ast.GateRule, ast.ClassicalAssign, ast.Skip)) and not (
        isinstance(r, ast.GateRule) and r.guards
    )


def _pretty_cond(guards, branches, branch) -> str:
    """``if g then b {elseif g then b} [else b]``, each branch b written
    by ``branch``: the text of guarded gates and classical conditionals."""
    parts = [f"{'elseif' if i else 'if'} {pretty_expr(g)} then {branch(b)}"
             for i, (g, b) in enumerate(zip(guards, branches))]
    if len(branches) > len(guards):
        parts.append(f"else {branch(branches[-1])}")
    return " ".join(parts)


def pretty_rule(r: ast.Rule, top: bool = False) -> str:
    if isinstance(r, ast.Skip):
        return "skip"
    if isinstance(r, ast.GateRule):
        if not r.guards:
            return _pretty_mexpr(r.branches[0], r.wires, r.out)
        return _pretty_cond(r.guards, r.branches, lambda m: _pretty_mexpr(m, r.wires, r.out))
    if isinstance(r, ast.ClassicalAssign):
        target = r.target
        if r.target_args:
            target = f"{r.target}({', '.join(pretty_expr(a) for a in r.target_args)})"
        return f"{target} := {pretty_expr(r.value)}"
    if isinstance(r, ast.ClassicalCond):
        return _pretty_cond(r.guards, r.branches, _pretty_atom)
    if isinstance(r, ast.Parallel):
        if r.binder is not None:
            return f"{_pretty_binder(r.binder)}{_pretty_atom(r.bodies[0])}"
        return " || ".join(_pretty_atom(b) for b in r.bodies)
    if isinstance(r, ast.Sequential):
        sep = ";\n" if top else "; "
        return sep.join(_pretty_seq_part(p) for p in r.parts)
    if isinstance(r, ast.ForLoop):
        return (f"for {r.var} = {pretty_expr(r.start)} to {pretty_expr(r.stop)}: "
                f"{_pretty_atom(r.body)}")
    raise TypeError(f"not a rule: {r!r}")


def _pretty_seq_part(r: ast.Rule) -> str:
    if isinstance(r, ast.Sequential):
        return "{" + pretty_rule(r) + "}"
    return pretty_rule(r)


def _pretty_atom(r: ast.Rule) -> str:
    if _atomic(r):
        return pretty_rule(r)
    return "{" + pretty_rule(r) + "}"


def _pretty_binder(binder: ast.Binder) -> str:
    domain = binder.domain
    if isinstance(domain, ast.Range):
        text = f"[{pretty_expr(domain.lo)}, {pretty_expr(domain.hi)}]"
    else:
        text = "{" + ", ".join(pretty_expr(i) for i in domain.items) + "}"
    return f"forall {binder.var} in {text}: "


def _pretty_state(s: ast.StateDesc) -> str:
    if isinstance(s, ast.KetState):
        return f"ket {s.bits}"
    if s.args:
        rendered = ", ".join(pretty_expr(a) if not isinstance(a, int) else str(a) for a in s.args)
        return f"{s.name}({rendered})"
    return s.name


def pretty_input(decl: ast.InputDecl) -> str:
    return " and ".join(
        f"{_pretty_binder(c.binder) if c.binder is not None else ''}"
        f"{_pretty_state(c.state)} on {_pretty_wires(c.wires)}"
        for c in decl.conjuncts)


def pretty(p) -> str:
    """Render a Program (or a bare rule) as canonical source text."""
    if not isinstance(p, ast.Program):
        return pretty_rule(p, top=True)
    lines = []
    for decl in p.params:
        if decl.default is None:
            lines.append(f"param {decl.name}")
        else:
            lines.append(f"param {decl.name} = {decl.default}")
    if p.input_decl is not None:
        lines.append(pretty_input(p.input_decl) + ";")
    lines.append(pretty_rule(p.body, top=True))
    return "\n".join(lines) + "\n"
