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

Expressions parse in one pass, by precedence over one operator table with
an explicit stack (`_Parser.expression`), so nothing is parsed twice and
nested parentheses cost no recursion.  A parenthesis opened where an
arithmetic operand is due (after `+ - *`, a comparison or unary minus)
opens an arithmetic group; any other takes the type its contents turn out
to have when it closes: `((x + 1)) > 2` compares a sum and `((x > 1))` is
a comparison.

Weighting expressions are guarded sums, e.g.

    [x>0 and y>0] 2*(x-1)+y (+) [not(x>0 and y>0)] int(0)

with summands separated by `(+)`; an omitted guard means "always".  Terms:
`zero`/`one`/`top`, `int(e)`, bare arithmetic (embed sugar), `{a,ba,(b)^w}`
language literals (lassos `p(q)^w` denote p·q^omega), rationals for prob,
and `w * term` scalar products.  Over an embeddable instance, a term that
is all arithmetic is an embedding (`2*(x-1)+y`, `2 * (x)`), and `2 * one`
and `2 * (one)` are products: a parenthesized group is a nested sum when it
holds anything but arithmetic tokens (`_Parser.arithmetic_groups`).

Reserved words: if else while skip weigh int true false and or not min max
fib zero one top inf eps.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import product
from typing import NamedTuple

from ._record import record
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

_MULTI = (":=", "..", "[]", "(+)", "!=", "<=", ">=")  # symbols of more than one character
_SINGLE = ";{}()[]+-*/^,=<>@|"
# each match is the blanks before a token, then the token
_TOKEN_RE = re.compile(r"([ \t\r]*)(\d+|[A-Za-z_][A-Za-z_0-9]*|%s|[%s])" % (
    "|".join(map(re.escape, _MULTI)), re.escape(_SINGLE)))
_OWN_TYPE = frozenset((*KEYWORDS, *_MULTI, *_SINGLE))  # a keyword or symbol is its own type
_ID_START = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_"


class Token(NamedTuple):
    typ: str  # 'num', 'id', keyword, symbol, 'eof'
    lexeme: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    """The tokens of `text`, then one `eof` token; columns count characters.

    Line by line, with the comment cut off first: one `findall` yields the
    blanks and the lexeme of each token, and the columns follow from their
    lengths.  The search skips a character no token starts with, so a line
    whose tokens and blanks fall short of its length holds one.
    """
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__  # builds a Token without NamedTuple's Python-level __new__
    findall = _TOKEN_RE.findall
    line = 0
    for row in text.split("\n"):
        line += 1
        code = row.partition("#")[0]
        col = 1
        for blanks, lexeme in findall(code):
            col += len(blanks)
            typ = (lexeme if lexeme in _OWN_TYPE
                   else "id" if lexeme[0] in _ID_START else "num")
            append(new(Token, (typ, lexeme, line, col)))
            col += len(lexeme)
        if col <= len(code.rstrip(" \t\r")):
            bad = 0
            while m := _TOKEN_RE.match(code, bad):
                bad = m.end()
            bad += len(code[bad:]) - len(code[bad:].lstrip(" \t\r"))
            raise ParseError(f"unexpected character {code[bad]!r}", line, bad + 1)
    append(new(Token, ("eof", "", line, len(row) + 1)))
    return tokens


# Binding powers.  `or` < `and` < `not` < comparisons < `+ -` < `*` < unary
# minus.  Below the comparisons (power 4) operands are Boolean, from them up
# arithmetic, so the table also types the operands.
_CMP = ("=", "!=", "<", "<=", ">", ">=")
_BINARY = {"or": 1, "and": 2, **dict.fromkeys(_CMP, 4), "+": 5, "-": 5, "*": 6}
_NOT, _NEG = 3, 7
_CALLS = ("min", "max", "fib")
_PREFIXES = frozenset(("(", "not", "-"))
# the tokens an arithmetic expression may hold, and may start with
_ARITH_TOKENS = frozenset(("num", "id", *_CALLS, "(", ")", ",", "+", "-", "*"))
_ARITH_START = frozenset(("num", "id", *_CALLS, "(", "-"))


def _reduce(frame: tuple, node, is_bool: bool, tok: Token):
    """Apply a pending operator to its right operand `node`; `tok` ends it."""
    power, op, left = frame
    if power <= _NOT:
        if not is_bool:
            raise ParseError("expected a comparison operator", tok.line, tok.col)
        if op == "not":
            return BNot(node), True
        return (BAnd if op == "and" else BOr)(left, node), True
    if left is None:
        return ABin("-", AInt(0), node), False
    if power == 4:
        return BCmp(op, left, node), True
    return ABin(op, left, node), False


class _Parser:
    def __init__(self, text: str, algebra: Algebra | None):
        self.tokens = tokenize(text)
        # `next` stops at the first eof, so a second one keeps peek(2) from
        # any other token in range
        self.tokens.append(self.tokens[-1])
        self.pos = 0
        self.algebra = algebra
        self._fresh = 0
        self._arith_groups: set[int] | None = None

    # --- token plumbing ---------------------------------------------------
    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[self.pos + ahead]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.typ != "eof":
            self.pos += 1
        return tok

    def accept(self, typ: str) -> Token | None:
        tok = self.tokens[self.pos]
        if tok.typ != typ:
            return None
        self.pos += 1
        return tok

    def expect(self, typ: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.typ != typ:
            raise ParseError(f"expected {typ!r}, found {tok.lexeme or 'end of input'!r}",
                             tok.line, tok.col)
        self.pos += 1
        return tok

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)

    # --- expressions --------------------------------------------------------
    def expression(self, boolean: bool):
        """A Boolean (`boolean`) or an arithmetic expression, in one pass
        (see the module docstring).  A connective or a comparison ends an
        arithmetic group, an arithmetic operator or a comparison ends a
        Boolean operand, and outside every group either ends the
        expression, for the caller to reject.
        """
        tokens = self.tokens
        pos = self.pos
        # (power, operator, left operand) per pending operator, `left` None
        # for a prefix one; (0, "(", enclosing level) per open parenthesis
        stack: list[tuple] = []
        level = not boolean  # whether the innermost group is arithmetic only
        depth = 0
        while True:
            # operand position: opening parentheses and prefixes, then an atom
            tok = tokens[pos]
            typ = tok.typ
            while typ in _PREFIXES:
                arith = level or bool(stack) and stack[-1][0] >= 4
                if typ == "(":
                    stack.append((0, "(", level))
                    level = arith
                    depth += 1
                elif typ == "not":
                    if arith:  # rejected as an atom below
                        break
                    stack.append((_NOT, "not", None))
                elif tokens[pos + 1].typ == "num":
                    break
                else:
                    stack.append((_NEG, "-", None))
                pos += 1
                tok = tokens[pos]
                typ = tok.typ
            pos += 1
            is_bool = False
            if typ == "num":
                node = AInt(int(tok.lexeme))
            elif typ == "-":  # a negative literal
                node = AInt(-int(tokens[pos].lexeme))
                pos += 1
            elif typ == "id":
                node = AVar(tok.lexeme)
            elif typ in _CALLS:
                self.pos = pos
                node = self.call(tok)
                pos = self.pos
            elif (typ == "true" or typ == "false") and not (
                    level or bool(stack) and stack[-1][0] >= 4):
                node, is_bool = BBool(typ == "true"), True
            else:
                raise ParseError(f"expected an arithmetic expression, found {tok.lexeme!r}",
                                 tok.line, tok.col)
            # operator position: close groups, then reduce and push an operator
            tok = tokens[pos]
            while tok.typ == ")" and depth:
                while stack[-1][1] != "(":
                    node, is_bool = _reduce(stack.pop(), node, is_bool, tok)
                level = stack.pop()[2]
                depth -= 1
                pos += 1
                tok = tokens[pos]
            power = _BINARY.get(tok.typ)
            if power is None or power < 5 and level:  # a comparison or connective
                break
            while stack and stack[-1][0] >= power:
                node, is_bool = _reduce(stack.pop(), node, is_bool, tok)
            if power < 4 and not is_bool:
                raise ParseError("expected a comparison operator", tok.line, tok.col)
            if power >= 4 and is_bool:  # a Boolean operand ends here
                break
            stack.append((power, tok.typ, node))
            pos += 1
        self.pos = pos
        if depth:
            self.expect(")")
        while stack:
            node, is_bool = _reduce(stack.pop(), node, is_bool, tok)
        if boolean and not is_bool:
            raise ParseError("expected a comparison operator", tok.line, tok.col)
        return node

    def call(self, tok: Token):
        self.expect("(")
        args = [self.expression(False)]
        while self.accept(","):
            args.append(self.expression(False))
        self.expect(")")
        if tok.typ == "fib" and len(args) != 1:
            raise ParseError("fib takes one argument", tok.line, tok.col)
        if tok.typ in ("min", "max") and len(args) < 2:
            raise ParseError(f"{tok.typ} takes at least two arguments", tok.line, tok.col)
        return ACall(tok.typ, tuple(args))

    # --- weight literals ----------------------------------------------------
    def weight_literal(self) -> WeightExpr:
        """A literal weight for the current instance, or int(e)."""
        alg = self.algebra
        tok = self.peek()
        if tok.typ == "int":
            self.next()
            self.expect("(")
            expr = self.expression(False)
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
                return WLit(alg._check_weight(n))
            if alg.name == "prob":
                return WLit(alg._check_weight(self.rational()))
            if alg.name.startswith(("lang:", "omegalang:")):
                if self.accept("eps"):
                    return WLit("")
                word = self.expect("id").lexeme
                return WLit(alg._check_weight(word))
            # extended-natural instances
            if self.accept("inf"):
                return WLit(INF)
            n = int(self.expect("num").lexeme)
            return WLit(alg._check_weight(n))
        except AlgebraError as exc:
            raise ParseError(str(exc), tok.line, tok.col) from exc

    def rational(self) -> Fraction:
        """A `num` or `num/num` literal."""
        num = int(self.expect("num").lexeme)
        if not self.accept("/"):
            return Fraction(num)
        tok = self.expect("num")
        den = int(tok.lexeme)
        if den == 0:
            raise ParseError("a fraction's denominator is 0", tok.line, tok.col)
        return Fraction(num, den)

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
            return Weigh(WLit(self.algebra._unit))
        if tok.typ == "weigh":
            self.next()
            return self.weigh_statement()
        if tok.typ == "if":
            self.next()
            self.expect("(")
            guard = self.expression(True)
            self.expect(")")
            then = self.block()
            self.expect("else")
            orelse = self.block()
            return Ite(guard, then, orelse)
        if tok.typ == "while":
            self.next()
            self.expect("(")
            guard = self.expression(True)
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
            return Assign(tok.lexeme, self.expression(False))
        self.fail(f"expected a statement, found {tok.lexeme or 'end of input'!r}")

    def weigh_statement(self) -> Program:
        # word-instance sugar: `weigh a^x` loops x times weighing a
        if (self.algebra.name.startswith(("lang:", "omegalang:"))
                and self.peek().typ == "id" and self.peek(1).typ == "^"):
            word_tok = self.next()
            self.next()  # ^
            var = self.expect("id").lexeme
            try:
                lit = WLit(self.algebra._check_weight(word_tok.lexeme))
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
            guard = self.expression(True)
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
            expr = self.expression(False)
            self.expect(")")
            if not alg.embeddable:
                raise ParseError(f"{alg.name}: integers cannot be embedded", tok.line, tok.col)
            return TEmbed(expr)
        if tok.typ == "inf":
            self.next()
            try:
                return TLit(alg._check_value(INF))
            except AlgebraError as exc:
                raise ParseError(str(exc), tok.line, tok.col) from exc
        if tok.typ == "{":
            return self.w_set_literal()
        # a scalar product `w * term`, or over an embeddable instance bare
        # arithmetic: `2*(x-1)+y` is an embedding and `2 * one` a product.
        # The term after the leading `n *` factors decides which.
        tokens, pos = self.tokens, self.pos
        if alg.embeddable:
            head = pos
            while tokens[head].typ == "num" and tokens[head + 1].typ == "*":
                head += 2
            typ = tokens[head].typ
            if typ in _ARITH_START and (typ != "(" or head in self.arithmetic_groups()):
                return TEmbed(self.expression(False))
            scalar = head > pos
        else:
            width = self.literal_width()
            scalar = width > 0 and tokens[pos + width].typ == "*"
        if scalar:
            w = self.weight_literal()
            self.next()  # the `*`
            return TScale(w, self.w_factor())
        if alg.name == "prob" and tok.typ == "num":
            return TLit(self.rational())
        if tok.typ == "(":
            self.next()
            inner = self.weighting()
            self.expect(")")
            return inner
        self.fail(f"expected a weighting term, found {tok.lexeme or 'end of input'!r}")

    def literal_width(self) -> int:
        """How many tokens a weight literal of a non-embeddable instance
        takes here, 0 if none starts here."""
        typ = self.peek().typ
        name = self.algebra.name
        if name == "boolean":
            return int(typ in ("true", "false", "num"))
        if name == "prob":
            if typ != "num":
                return 0
            return 3 if self.peek(1).typ == "/" and self.peek(2).typ == "num" else 1
        return int(typ in ("eps", "id"))  # the word instances

    def arithmetic_groups(self) -> set[int]:
        """The positions of the `(` tokens whose group, up to the matching
        `)`, holds arithmetic tokens only.

        A group with any other token never reads as arithmetic, and one of
        arithmetic tokens reads as a nested sum only where it also reads as
        arithmetic, so `w_factor` takes its reading from this set without
        trying either.  One pass over the tokens, on first use.
        """
        if self._arith_groups is None:
            groups: set[int] = set()
            open_groups: list[list] = []  # [position, arithmetic only so far]
            for i, tok in enumerate(self.tokens):
                if tok.typ == "(":
                    open_groups.append([i, True])
                elif tok.typ == ")" and open_groups:
                    start, only = open_groups.pop()
                    if only:
                        groups.add(start)
                    elif open_groups:
                        open_groups[-1][1] = False
                elif open_groups and tok.typ not in _ARITH_TOKENS:
                    open_groups[-1][1] = False
            self._arith_groups = groups
        return self._arith_groups

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
            return TLit(alg._check_value(frozenset(elems)))
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

@record(frozen=True)
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
            if m.group(1) in values:
                raise ParseError(f"variable {m.group(1)} given twice in state {text!r}")
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
            values = range(lo, hi + 1)
        elif m := _ASSIGN_RE.match(part):
            values = range(int(m.group(2)), int(m.group(2)) + 1)
        else:
            raise ParseError(f"bad grid entry {part!r}, expected var=lo..hi or var=int")
        if m.group(1) in ranges:
            raise ParseError(f"variable {m.group(1)} given twice in grid {text.strip()!r}")
        ranges[m.group(1)] = values
    names = tuple(sorted(ranges))
    size = 1
    for r in ranges.values():
        size *= len(r)
        if size > cap:
            raise ParseError(f"grid exceeds the {cap}-state cap")
    states = [State(dict(zip(names, combo)))
              for combo in product(*(ranges[n] for n in names))]
    return names, states
