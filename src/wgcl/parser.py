"""Concrete syntax: programs, weighting expressions, states, and grids.

Program files are UTF-8; the first significant line is the pragma
`@instance <name>` picking the weight algebra, followed by one program:

    x := e                 assignment
    C1; C2                 sequencing
    if (b) {C1} else {C2}  conditional
    while (b) {C}          loop
    {C1} [] {C2}           nondeterministic branching
    {C1} [w1] (+) [w2] {C2}  weighted choice (sugar)
    weigh w                weighting the current trace
    skip                   sugar for weighing the monoid identity

Weight literals w are naturals (or `inf`) for the numeric instances,
`true`/`false` for boolean, `p/q` rationals for prob, and words for the
language instances; `int(e)` embeds an arithmetic value per state, and for
word instances `weigh a^x` is sugar for a fresh-variable loop weighing `a`
x times.  Boolean operators bind `not` over `and` over `or`; comparisons
are = != < <= > >=.  `#` starts a line comment.

Weighting expressions are guarded sums, e.g.

    [x>0 and y>0] 2*(x-1)+y (+) [not(x>0 and y>0)] int(0)

with summands separated by `(+)`; an omitted guard means "always".  Terms:
`zero`/`one`/`top`, `int(e)`, bare arithmetic (embed sugar), `{a,ba,(b)^w}`
language literals (lassos `p(q)^w` denote p·q^omega), rationals for prob,
and `w * term` scalar products.

Reserved words: if else while skip weigh int true false and or not min max
fib zero one top inf eps.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import NamedTuple

from .algebra import Algebra, AlgebraError, INF, algebra as algebra_by_name
from .syntax import (
    ABin, ACall, AInt, AVar, Assign, BAnd, BBool, BCmp, BNot, BOr,
    Branch, Ite, Program, Seq, State, TEmbed, TLit, TOne, TScale, TTop, TZero,
    WEmbedInt, WGuarded, WLit, WSum, Weigh, WeightExpr, WeightingExpr, While,
    seq_of,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"line {line}, col {col}: {message}" if line else message)
        self.line = line
        self.col = col


KEYWORDS = {
    "if", "else", "while", "skip", "weigh", "int", "true", "false",
    "and", "or", "not", "min", "max", "fib", "zero", "one", "top",
    "inf", "eps",
}

_TOKEN_RE = re.compile(r"""
      (?P<ws>[ \t\r]+)
    | (?P<comment>\#[^\n]*)
    | (?P<nl>\n)
    | (?P<num>\d+)
    | (?P<id>[A-Za-z_][A-Za-z_0-9]*)
    | (?P<sym>:=|\.\.|\[\]|\(\+\)|!=|<=|>=|[;{}()\[\]+\-*/^,=<>@|])
""", re.VERBOSE)


class Token(NamedTuple):
    typ: str  # 'num', 'id', keyword, symbol, 'eof'
    lexeme: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    """The tokens of `text`, then one `eof` token; columns count characters."""
    tokens: list[Token] = []
    line, line_start, pos = 1, 0, 0
    for m in _TOKEN_RE.finditer(text):
        start = m.start()
        if start != pos:  # the search skipped a character no token starts with
            break
        pos = m.end()
        kind = m.lastgroup
        if kind == "nl":
            line += 1
            line_start = pos
        elif kind != "ws" and kind != "comment":
            lexeme = m.group()
            # a symbol or keyword is its own type; numbers are never keywords
            typ = lexeme if kind == "sym" or lexeme in KEYWORDS else kind
            tokens.append(Token(typ, lexeme, line, start - line_start + 1))
    if pos < len(text):
        raise ParseError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
    tokens.append(Token("eof", "", line, pos - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str, algebra: Algebra | None):
        self.tokens = tokenize(text)
        # `next` stops at the first eof, so a second one keeps peek(1) in range
        self.tokens.append(self.tokens[-1])
        self.pos = 0
        self.algebra = algebra
        self._fresh = 0

    # --- token plumbing ---------------------------------------------------
    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[self.pos + ahead]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.typ != "eof":
            self.pos += 1
        return tok

    def accept(self, typ: str) -> Token | None:
        if self.peek().typ == typ:
            return self.next()
        return None

    def expect(self, typ: str) -> Token:
        tok = self.peek()
        if tok.typ != typ:
            raise ParseError(f"expected {typ!r}, found {tok.lexeme or 'end of input'!r}",
                             tok.line, tok.col)
        return self.next()

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)

    # --- arithmetic -------------------------------------------------------
    def arith(self):
        node = self.a_prod()
        while self.peek().typ in ("+", "-"):
            op = self.next().typ
            node = ABin(op, node, self.a_prod())
        return node

    def a_prod(self):
        node = self.a_unary()
        while self.peek().typ == "*":
            self.next()
            node = ABin("*", node, self.a_unary())
        return node

    def a_unary(self):
        if self.accept("-"):
            tok = self.peek()
            if tok.typ == "num":  # negative literal, not a subtraction
                self.next()
                return AInt(-int(tok.lexeme))
            return ABin("-", AInt(0), self.a_unary())
        return self.a_atom()

    def a_atom(self):
        tok = self.peek()
        if tok.typ == "num":
            self.next()
            return AInt(int(tok.lexeme))
        if tok.typ == "id":
            self.next()
            return AVar(tok.lexeme)
        if tok.typ in ("min", "max", "fib"):
            self.next()
            self.expect("(")
            args = [self.arith()]
            while self.accept(","):
                args.append(self.arith())
            self.expect(")")
            if tok.typ == "fib" and len(args) != 1:
                raise ParseError("fib takes one argument", tok.line, tok.col)
            if tok.typ in ("min", "max") and len(args) < 2:
                raise ParseError(f"{tok.typ} takes at least two arguments", tok.line, tok.col)
            return ACall(tok.typ, tuple(args))
        if tok.typ == "(":
            self.next()
            node = self.arith()
            self.expect(")")
            return node
        self.fail(f"expected an arithmetic expression, found {tok.lexeme!r}")

    # --- Boolean ----------------------------------------------------------
    def bool_expr(self):
        node = self.b_and()
        while self.accept("or"):
            node = BOr(node, self.b_and())
        return node

    def b_and(self):
        node = self.b_not()
        while self.accept("and"):
            node = BAnd(node, self.b_not())
        return node

    def b_not(self):
        if self.accept("not"):
            return BNot(self.b_not())
        if self.accept("true"):
            return BBool(True)
        if self.accept("false"):
            return BBool(False)
        if self.peek().typ == "(":
            saved = self.pos
            self.next()
            try:
                inner = self.bool_expr()
                self.expect(")")
                return inner
            except ParseError:
                self.pos = saved
        return self.b_cmp()

    def b_cmp(self):
        left = self.arith()
        tok = self.peek()
        if tok.typ not in ("=", "!=", "<", "<=", ">", ">="):
            self.fail("expected a comparison operator")
        self.next()
        right = self.arith()
        return BCmp(tok.typ, left, right)

    # --- weight literals ----------------------------------------------------
    def weight_literal(self) -> WeightExpr:
        """A literal weight for the current instance, or int(e)."""
        alg = self.algebra
        tok = self.peek()
        if tok.typ == "int":
            self.next()
            self.expect("(")
            expr = self.arith()
            self.expect(")")
            if not alg.embeddable:
                raise ParseError(f"{alg.name}: integers cannot be embedded", tok.line, tok.col)
            return WEmbedInt(expr)
        try:
            if alg.name == "boolean":
                if self.accept("true"):
                    return WLit(True)
                if self.accept("false"):
                    return WLit(False)
                n = int(self.expect("num").lexeme)
                return WLit(alg.weight(n).value)
            if alg.name == "prob":
                num = int(self.expect("num").lexeme)
                if self.accept("/"):
                    den = int(self.expect("num").lexeme)
                    return WLit(alg.weight(Fraction(num, den)).value)
                return WLit(alg.weight(Fraction(num)).value)
            if alg.name.startswith(("lang:", "omegalang:")):
                if self.accept("eps"):
                    return WLit("")
                word = self.expect("id").lexeme
                return WLit(alg.weight(word).value)
            # extended-natural instances
            if self.accept("inf"):
                return WLit(INF)
            n = int(self.expect("num").lexeme)
            return WLit(alg.weight(n).value)
        except AlgebraError as exc:
            raise ParseError(str(exc), tok.line, tok.col) from exc

    # --- statements ---------------------------------------------------------
    def program(self) -> Program:
        stmts = [self.statement()]
        while self.accept(";"):
            if self.peek().typ in ("}", "eof"):
                break
            stmts.append(self.statement())
        return seq_of(stmts)

    def block(self) -> Program:
        self.expect("{")
        prog = self.program()
        self.expect("}")
        return prog

    def statement(self) -> Program:
        tok = self.peek()
        if tok.typ == "skip":
            self.next()
            return Weigh(WLit(self.algebra.mon_one().value))
        if tok.typ == "weigh":
            self.next()
            return self.weigh_statement()
        if tok.typ == "if":
            self.next()
            self.expect("(")
            guard = self.bool_expr()
            self.expect(")")
            then = self.block()
            self.expect("else")
            orelse = self.block()
            return Ite(guard, then, orelse)
        if tok.typ == "while":
            self.next()
            self.expect("(")
            guard = self.bool_expr()
            self.expect(")")
            return While(guard, self.block())
        if tok.typ == "{":
            left = self.block()
            if self.accept("[]"):
                return Branch(left, self.block())
            if self.peek().typ == "[":
                self.next()
                w1 = self.weight_literal()
                self.expect("]")
                self.expect("(+)")
                self.expect("[")
                w2 = self.weight_literal()
                self.expect("]")
                right = self.block()
                return Branch(Seq(Weigh(w1), left), Seq(Weigh(w2), right))
            return left
        if tok.typ == "id":
            self.next()
            self.expect(":=")
            return Assign(tok.lexeme, self.arith())
        self.fail(f"expected a statement, found {tok.lexeme or 'end of input'!r}")

    def weigh_statement(self) -> Program:
        # word-instance sugar: `weigh a^x` loops x times weighing a
        if (self.algebra.name.startswith(("lang:", "omegalang:"))
                and self.peek().typ == "id" and self.peek(1).typ == "^"):
            word_tok = self.next()
            self.next()  # ^
            var = self.expect("id").lexeme
            try:
                lit = WLit(self.algebra.weight(word_tok.lexeme).value)
            except AlgebraError as exc:
                raise ParseError(str(exc), word_tok.line, word_tok.col) from exc
            fresh = f"_pow{self._fresh}"
            self._fresh += 1
            return Seq(
                Assign(fresh, AVar(var)),
                While(BCmp(">", AVar(fresh), AInt(0)),
                      Seq(Weigh(lit), Assign(fresh, ABin("-", AVar(fresh), AInt(1))))),
            )
        if self.peek().typ == "id" and self.peek(1).typ == "^":
            self.fail("variable-exponent weights need a word instance; use `weigh int(...)`")
        return Weigh(self.weight_literal())

    # --- weighting expressions ----------------------------------------------
    def weighting(self) -> WeightingExpr:
        items = [self.w_guarded()]
        while self.accept("(+)"):
            items.append(self.w_guarded())
        return WSum(tuple(items))

    def w_guarded(self) -> WGuarded:
        guard = None
        if self.peek().typ == "[":
            self.next()
            guard = self.bool_expr()
            self.expect("]")
        return WGuarded(guard, self.w_factor())

    def w_factor(self) -> WeightingExpr:
        alg = self.algebra
        tok = self.peek()
        if tok.typ == "zero":
            self.next()
            return TZero()
        if tok.typ == "one":
            self.next()
            return TOne()
        if tok.typ == "top":
            self.next()
            return TTop()
        if tok.typ == "int":
            self.next()
            self.expect("(")
            expr = self.arith()
            self.expect(")")
            if not alg.embeddable:
                raise ParseError(f"{alg.name}: integers cannot be embedded", tok.line, tok.col)
            return TEmbed(expr)
        if tok.typ == "inf":
            self.next()
            try:
                return TLit(alg.value(INF).value)
            except AlgebraError as exc:
                raise ParseError(str(exc), tok.line, tok.col) from exc
        if tok.typ == "{":
            return self.w_set_literal()
        # greedy arithmetic first: `2*(x-1)+y` is an embedding, not a scalar
        if alg.embeddable:
            saved = self.pos
            try:
                return TEmbed(self.arith())
            except ParseError:
                self.pos = saved
        # scalar product `w * term`
        saved = self.pos
        try:
            w = self.weight_literal()
            self.expect("*")
            return TScale(w, self.w_factor())
        except ParseError:
            self.pos = saved
        if alg.name == "prob" and tok.typ == "num":
            num = int(self.next().lexeme)
            if self.accept("/"):
                den = int(self.expect("num").lexeme)
                return TLit(Fraction(num, den))
            return TLit(Fraction(num))
        if tok.typ == "(":
            self.next()
            inner = self.weighting()
            self.expect(")")
            return inner
        self.fail(f"expected a weighting term, found {tok.lexeme or 'end of input'!r}")

    def w_set_literal(self) -> WeightingExpr:
        tok = self.expect("{")
        alg = self.algebra
        if not alg.name.startswith(("lang:", "omegalang:")):
            raise ParseError(f"{alg.name}: set literals need a language instance",
                             tok.line, tok.col)
        elems: list[object] = []
        if self.peek().typ != "}":
            elems.append(self.w_set_element())
            while self.accept(","):
                elems.append(self.w_set_element())
        self.expect("}")
        try:
            return TLit(alg.value(frozenset(elems)).value)
        except AlgebraError as exc:
            raise ParseError(str(exc), tok.line, tok.col) from exc

    def w_set_element(self):
        prefix = ""
        if self.accept("eps"):
            if self.peek().typ in (",", "}"):
                return ""
            self.fail("eps stands alone inside a set literal")
        if self.peek().typ == "id":
            prefix = self.next().lexeme
            if self.peek().typ == "^":  # `p^w` sugar for `(p)^w`
                self.next()
                self._omega_marker()
                return ("", prefix)
            if self.peek().typ != "(":
                return prefix
        if self.accept("("):
            period = self.expect("id").lexeme
            self.expect(")")
            self.expect("^")
            self._omega_marker()
            return (prefix, period)
        self.fail("expected a word or a lasso like p(q)^w")

    def _omega_marker(self):
        tok = self.peek()
        if tok.typ == "id" and tok.lexeme in ("w", "omega"):
            self.next()
            return
        self.fail("expected the omega marker `w` (or `omega`) after ^")


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParsedProgram:
    algebra: Algebra
    program: Program


_PRAGMA_RE = re.compile(r"^\s*@instance\s+(\S+)\s*$")


def split_pragma(text: str) -> tuple[str | None, str]:
    """Separate the `@instance` pragma from the program body."""
    lines = text.split("\n")
    for i, raw in enumerate(lines):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        m = _PRAGMA_RE.match(raw)
        if m:
            # keep line numbers aligned with the original source
            rest = "\n".join([""] * (i + 1) + lines[i + 1:])
            return m.group(1), rest
        return None, text
    return None, text


def parse_program(text: str, instance: str | None = None) -> ParsedProgram:
    """Parse a program file (pragma + program) into an AST.

    `instance` overrides (or supplies, for pragma-less text) the algebra.
    Weight literals are validated against the selected instance.
    """
    pragma, body = split_pragma(text)
    name = instance or pragma
    if name is None:
        raise ParseError("missing `@instance <name>` pragma and no instance given")
    try:
        alg = algebra_by_name(name)
    except AlgebraError as exc:
        raise ParseError(str(exc)) from exc
    parser = _Parser(body, alg)
    prog = parser.program()
    parser.expect("eof")
    return ParsedProgram(alg, prog)


def parse_weighting(text: str, algebra: Algebra) -> WeightingExpr:
    parser = _Parser(text, algebra)
    expr = parser.weighting()
    parser.expect("eof")
    return expr


_ASSIGN_RE = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)=(-?\d+)$")
_RANGE_RE = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)=(-?\d+)\.\.(-?\d+)$")


def parse_state(text: str) -> State:
    """Parse a state literal like `x=2,y=-3` (empty means the zero state)."""
    values: dict[str, int] = {}
    text = text.strip()
    if text:
        for part in text.split(","):
            m = _ASSIGN_RE.match(part.strip())
            if not m:
                raise ParseError(f"bad state entry {part.strip()!r}, expected var=int")
            values[m.group(1)] = int(m.group(2))
    return State(values)


def parse_grid(text: str, cap: int = 10 ** 5) -> tuple[tuple[str, ...], list[State]]:
    """Parse `x=0..8,y=0..8` into variable names and the ordered state list.

    States are ordered lexicographically by variable name, then value.
    Plain `var=int` entries are singleton ranges.
    """
    ranges: dict[str, range] = {}
    for part in text.strip().split(","):
        part = part.strip()
        m = _RANGE_RE.match(part)
        if m:
            lo, hi = int(m.group(2)), int(m.group(3))
            if hi < lo:
                raise ParseError(f"empty range in {part!r}")
            ranges[m.group(1)] = range(lo, hi + 1)
            continue
        m = _ASSIGN_RE.match(part)
        if m:
            v = int(m.group(2))
            ranges[m.group(1)] = range(v, v + 1)
            continue
        raise ParseError(f"bad grid entry {part!r}, expected var=lo..hi or var=int")
    names = tuple(sorted(ranges))
    size = 1
    for r in ranges.values():
        size *= len(r)
        if size > cap:
            raise ParseError(f"grid exceeds the {cap}-state cap")
    states = [State(dict(zip(names, combo)))
              for combo in product(*(ranges[n] for n in names))]
    return names, states
