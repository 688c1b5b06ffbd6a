"""Program ASTs, program states, and the weighting-expression language.

Statements follow the weighted guarded-command shape: assignment,
sequencing, conditionals, loops, nondeterministic branching `{C} [] {C}`,
and trace weighting `weigh a`.  `skip` and the weighted choice
`{C1} [p] (+) [q] {C2}` are parse-time sugar (see parser.py).

A weighting is the quantitative counterpart of a predicate: a total
function from program states to module values.  The syntactic fragment
(`WeightingExpr`) is a guarded sum: a list of `[guard] term` summands,
where terms are integer embeddings, module-value literals, scalar products,
or nested sums.  Guards that do not hold contribute the module zero, and
unevaluated terms are never touched, so a guarded sum is total even when a
term would be partial outside its guard.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Union

from .algebra import Algebra, EmbedError, ModuleValue, Weight


class EvalError(Exception):
    """Expression evaluation failed (bad embedding, wrong instance, ...)."""


# ---------------------------------------------------------------------------
# Arithmetic and Boolean expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AInt:
    value: int


@dataclass(frozen=True)
class AVar:
    name: str


@dataclass(frozen=True)
class ABin:
    op: str  # '+', '-', '*'
    left: "ArithExpr"
    right: "ArithExpr"


@dataclass(frozen=True)
class ACall:
    fn: str  # 'min', 'max', 'fib'
    args: tuple["ArithExpr", ...]


ArithExpr = Union[AInt, AVar, ABin, ACall]


@dataclass(frozen=True)
class BBool:
    value: bool


@dataclass(frozen=True)
class BCmp:
    op: str  # '=', '!=', '<', '<=', '>', '>='
    left: ArithExpr
    right: ArithExpr


@dataclass(frozen=True)
class BNot:
    arg: "BoolExpr"


@dataclass(frozen=True)
class BAnd:
    left: "BoolExpr"
    right: "BoolExpr"


@dataclass(frozen=True)
class BOr:
    left: "BoolExpr"
    right: "BoolExpr"


BoolExpr = Union[BBool, BCmp, BNot, BAnd, BOr]


@lru_cache(maxsize=None)
def fib(n: int) -> int:
    """Fibonacci numbers with fib(0) = 0, fib(1) = 1; 0 below that."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


# ---------------------------------------------------------------------------
# Weight expressions (what `weigh` takes)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WLit:
    """A weight literal, already validated for the declared instance."""

    raw: object


@dataclass(frozen=True)
class WEmbedInt:
    """`int(e)`: embed an arithmetic value as a weight, state by state."""

    expr: ArithExpr


WeightExpr = Union[WLit, WEmbedInt]


# ---------------------------------------------------------------------------
# Program statements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Assign:
    var: str
    expr: ArithExpr


@dataclass(frozen=True)
class Seq:
    first: "Program"
    second: "Program"


@dataclass(frozen=True)
class Ite:
    guard: BoolExpr
    then: "Program"
    orelse: "Program"


@dataclass(frozen=True)
class While:
    guard: BoolExpr
    body: "Program"


@dataclass(frozen=True)
class Branch:
    left: "Program"
    right: "Program"


@dataclass(frozen=True)
class Weigh:
    weight: WeightExpr


Program = Union[Assign, Seq, Ite, While, Branch, Weigh]


def seq_of(stmts: list["Program"]) -> "Program":
    out = stmts[-1]
    for s in reversed(stmts[:-1]):
        out = Seq(s, out)
    return out


def flatten_seq(prog: Program) -> list[Program]:
    """The non-`Seq` statements of a program, left to right, however the
    `Seq`s nest."""
    out, stack = [], [prog]
    while stack:
        p = stack.pop()
        if isinstance(p, Seq):
            stack += (p.second, p.first)
        else:
            out.append(p)
    return out


# ---------------------------------------------------------------------------
# Compiled programs: a graph of positions
# ---------------------------------------------------------------------------

def _statements(prog: Program):
    """Every statement of a program, nested ones included, without
    recursion."""
    stack = [prog]
    while stack:
        p = stack.pop()
        yield p
        if isinstance(p, Seq):
            stack += (p.second, p.first)
        elif isinstance(p, Ite):
            stack += (p.orelse, p.then)
        elif isinstance(p, Branch):
            stack += (p.right, p.left)
        elif isinstance(p, While):
            stack.append(p.body)


class _Terminated:
    __slots__ = ()

    def __repr__(self) -> str:
        return "TERMINATED"


TERMINATED = _Terminated()  # the position after the last statement


class Node:
    """A program position: one non-`Seq` statement with its continuation.

    `next` is where control goes after the statement (another node or
    TERMINATED).  `then`/`orelse` are the compiled arms of `if` and `[]`;
    a loop's `then` is its body, which runs back to the loop's own node,
    and `nested` says whether that body contains a loop.  Nodes compare by
    identity.
    """

    __slots__ = ("stmt", "next", "then", "orelse", "nested")

    def __init__(self, stmt: Program, nxt: "Node | _Terminated"):
        self.stmt = stmt
        self.next = nxt
        self.then = self.orelse = None
        self.nested = False


def compile_program(program: Program) -> Node:
    """Lower a program once into its graph of positions; returns the entry.

    Equal (statement, continuation) pairs share one node, so equal branch
    arms lead to the same position.  The table lives for one call only:
    literals of different instances compare equal (`WLit(True) == WLit(1)`).
    """
    shared: dict[tuple[Program, object], Node] = {}

    def lower(prog: Program, nxt) -> Node:
        for stmt in reversed(flatten_seq(prog)):
            node = shared.get((stmt, nxt))
            if node is None:
                node = shared[(stmt, nxt)] = Node(stmt, nxt)
                if isinstance(stmt, While):
                    node.then = lower(stmt.body, node)
                    node.nested = any(isinstance(s, While) for s in _statements(stmt.body))
                elif isinstance(stmt, Ite):
                    node.then, node.orelse = lower(stmt.then, nxt), lower(stmt.orelse, nxt)
                elif isinstance(stmt, Branch):
                    node.then, node.orelse = lower(stmt.left, nxt), lower(stmt.right, nxt)
            nxt = node
        return nxt

    return lower(program, TERMINATED)


# ---------------------------------------------------------------------------
# Program states
# ---------------------------------------------------------------------------

class State:
    """Finitely supported variable valuation; absent variables read as 0."""

    __slots__ = ("_items", "_hash")

    def __init__(self, mapping: dict[str, int] | None = None):
        self._items = tuple(sorted((k, v) for k, v in (mapping or {}).items() if v != 0))
        self._hash = hash(self._items)

    def get(self, name: str) -> int:
        for k, v in self._items:
            if k == name:
                return v
        return 0

    def set(self, name: str, value: int) -> "State":
        # splice into the sorted items rather than sort again
        items = self._items
        i = 0
        for k, _ in items:
            if k >= name:
                break
            i += 1
        rest = items[i + 1:] if i < len(items) and items[i][0] == name else items[i:]
        items = items[:i] + ((name, value),) + rest if value != 0 else items[:i] + rest
        state = object.__new__(State)
        state._items = items
        state._hash = hash(items)
        return state

    def items(self) -> tuple[tuple[str, int], ...]:
        return self._items

    def __eq__(self, other) -> bool:
        return isinstance(other, State) and self._items == other._items

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in self._items)
        return "{" + inner + "}"

    def format(self, variables: tuple[str, ...] | None = None) -> str:
        if variables is None:
            return ",".join(f"{k}={v}" for k, v in self._items) or "-"
        return ",".join(f"{k}={self.get(k)}" for k in variables)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

# A loop that squares a variable doubles its digits on every pass, and no
# node budget bounds that time.  So a product of more than MAX_INT_BITS
# bits, and a fib argument above MAX_INT_BITS, are evaluation errors.
MAX_INT_BITS = 1 << 16


def eval_arith(e: ArithExpr, sigma: State) -> int:
    if isinstance(e, AInt):
        return e.value
    if isinstance(e, AVar):
        return sigma.get(e.name)
    if isinstance(e, ABin):
        l = eval_arith(e.left, sigma)
        r = eval_arith(e.right, sigma)
        if e.op == "+":
            return l + r
        if e.op == "-":
            return l - r
        if e.op == "*":
            if l.bit_length() + r.bit_length() > MAX_INT_BITS:
                raise EvalError(f"a product exceeds {MAX_INT_BITS} bits")
            return l * r
        raise EvalError(f"unknown arithmetic operator {e.op!r}")
    if isinstance(e, ACall):
        args = [eval_arith(a, sigma) for a in e.args]
        if e.fn == "min":
            return min(args)
        if e.fn == "max":
            return max(args)
        if e.fn == "fib":
            if args[0] > MAX_INT_BITS:
                raise EvalError(f"fib argument {args[0]} exceeds {MAX_INT_BITS}")
            return fib(args[0])
        raise EvalError(f"unknown function {e.fn!r}")
    raise EvalError(f"not an arithmetic expression: {e!r}")


def eval_bool(b: BoolExpr, sigma: State) -> bool:
    if isinstance(b, BBool):
        return b.value
    if isinstance(b, BCmp):
        l = eval_arith(b.left, sigma)
        r = eval_arith(b.right, sigma)
        return {
            "=": l == r, "!=": l != r,
            "<": l < r, "<=": l <= r,
            ">": l > r, ">=": l >= r,
        }[b.op]
    if isinstance(b, BNot):
        return not eval_bool(b.arg, sigma)
    if isinstance(b, BAnd):
        return eval_bool(b.left, sigma) and eval_bool(b.right, sigma)
    if isinstance(b, BOr):
        return eval_bool(b.left, sigma) or eval_bool(b.right, sigma)
    raise EvalError(f"not a Boolean expression: {b!r}")


def eval_weight(w: WeightExpr, sigma: State, algebra: Algebra) -> Weight:
    if isinstance(w, WLit):
        return algebra.weight(w.raw)
    if isinstance(w, WEmbedInt):
        n = eval_arith(w.expr, sigma)
        try:
            return algebra.embed_weight(n)
        except EmbedError as exc:
            raise EvalError(str(exc)) from exc
    raise EvalError(f"not a weight expression: {w!r}")


# ---------------------------------------------------------------------------
# Weighting expressions (guarded sums) and semantic weightings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TZero:
    pass


@dataclass(frozen=True)
class TOne:
    pass


@dataclass(frozen=True)
class TTop:
    pass


@dataclass(frozen=True)
class TEmbed:
    expr: ArithExpr


@dataclass(frozen=True)
class TLit:
    """A module-value literal (language set, rational, ...), raw carrier."""

    raw: object


@dataclass(frozen=True)
class TScale:
    weight: WeightExpr
    term: "WeightingExpr"


@dataclass(frozen=True)
class WGuarded:
    guard: BoolExpr | None
    term: "WeightingExpr"


@dataclass(frozen=True)
class WSum:
    items: tuple[WGuarded, ...]


WeightingExpr = Union[TZero, TOne, TTop, TEmbed, TLit, TScale, WSum]


def eval_weighting(expr: WeightingExpr, sigma: State, algebra: Algebra) -> ModuleValue:
    """Evaluate a guarded sum at one state.

    Summands whose guard fails contribute nothing and their terms are not
    evaluated, so partial terms (like negative embeddings) behind a guard do
    not make the weighting partial.
    """
    if isinstance(expr, TZero):
        return algebra.mod_zero()
    if isinstance(expr, TOne):
        return algebra.module_one()
    if isinstance(expr, TTop):
        return algebra.top()
    if isinstance(expr, TEmbed):
        n = eval_arith(expr.expr, sigma)
        try:
            return algebra.embed_value(n)
        except EmbedError as exc:
            raise EvalError(str(exc)) from exc
    if isinstance(expr, TLit):
        return algebra.value(expr.raw)
    if isinstance(expr, TScale):
        w = eval_weight(expr.weight, sigma, algebra)
        return algebra.scalar_mul(w, eval_weighting(expr.term, sigma, algebra))
    if isinstance(expr, WSum):
        total = algebra.mod_zero()
        for item in expr.items:
            if item.guard is None or eval_bool(item.guard, sigma):
                total = algebra.mod_add(total, eval_weighting(item.term, sigma, algebra))
        return total
    raise EvalError(f"not a weighting expression: {expr!r}")


class Weighting:
    """Evaluable weighting: a total map from states to module values."""

    algebra: Algebra

    def at(self, sigma: State) -> ModuleValue:
        raise NotImplementedError


class ExprWeighting(Weighting):
    def __init__(self, algebra: Algebra, expr: WeightingExpr):
        self.algebra = algebra
        self.expr = expr

    def at(self, sigma: State) -> ModuleValue:
        return eval_weighting(self.expr, sigma, self.algebra)


class TableWeighting(Weighting):
    """Finite-support weighting: explicit values plus a default."""

    def __init__(self, algebra: Algebra, table: dict[State, ModuleValue],
                 default: ModuleValue | None = None):
        self.algebra = algebra
        self.table = dict(table)
        self.default = default if default is not None else algebra.mod_zero()

    def at(self, sigma: State) -> ModuleValue:
        return self.table.get(sigma, self.default)


class FnWeighting(Weighting):
    def __init__(self, algebra: Algebra, fn):
        self.algebra = algebra
        self.fn = fn

    def at(self, sigma: State) -> ModuleValue:
        return self.fn(sigma)


# ---------------------------------------------------------------------------
# Printing (parse . print round-trips to a structurally equal AST)
# ---------------------------------------------------------------------------

def print_arith(e: ArithExpr) -> str:
    if isinstance(e, AInt):
        return str(e.value)
    if isinstance(e, AVar):
        return e.name
    if isinstance(e, ABin):
        return f"({print_arith(e.left)} {e.op} {print_arith(e.right)})"
    if isinstance(e, ACall):
        return f"{e.fn}({', '.join(print_arith(a) for a in e.args)})"
    raise EvalError(f"not an arithmetic expression: {e!r}")


def print_bool(b: BoolExpr) -> str:
    if isinstance(b, BBool):
        return "true" if b.value else "false"
    if isinstance(b, BCmp):
        return f"{print_arith(b.left)} {b.op} {print_arith(b.right)}"
    if isinstance(b, BNot):
        return f"not ({print_bool(b.arg)})"
    if isinstance(b, BAnd):
        return f"({print_bool(b.left)}) and ({print_bool(b.right)})"
    if isinstance(b, BOr):
        return f"({print_bool(b.left)}) or ({print_bool(b.right)})"
    raise EvalError(f"not a Boolean expression: {b!r}")


def _print_weight(w: WeightExpr) -> str:
    if isinstance(w, WEmbedInt):
        return f"int({print_arith(w.expr)})"
    raw = w.raw
    if isinstance(raw, bool):
        return "true" if raw else "false"
    return str(raw)


def print_program(prog: Program, algebra: Algebra, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(prog, Assign):
        return f"{pad}{prog.var} := {print_arith(prog.expr)}"
    if isinstance(prog, Seq):
        parts = []
        while isinstance(prog, Seq):  # the right spine, without recursion
            if isinstance(prog.first, Seq):  # brace to keep the grouping
                parts.append(f"{pad}{{\n{print_program(prog.first, algebra, indent + 1)}\n{pad}}}")
            else:
                parts.append(print_program(prog.first, algebra, indent))
            prog = prog.second
        parts.append(print_program(prog, algebra, indent))
        return ";\n".join(parts)
    if isinstance(prog, Ite):
        return (f"{pad}if ({print_bool(prog.guard)}) {{\n"
                f"{print_program(prog.then, algebra, indent + 1)}\n{pad}}} else {{\n"
                f"{print_program(prog.orelse, algebra, indent + 1)}\n{pad}}}")
    if isinstance(prog, While):
        return (f"{pad}while ({print_bool(prog.guard)}) {{\n"
                f"{print_program(prog.body, algebra, indent + 1)}\n{pad}}}")
    if isinstance(prog, Branch):
        return (f"{pad}{{\n{print_program(prog.left, algebra, indent + 1)}\n{pad}}} [] {{\n"
                f"{print_program(prog.right, algebra, indent + 1)}\n{pad}}}")
    if isinstance(prog, Weigh):
        w = prog.weight
        if isinstance(w, WLit) and w.raw == algebra.mon_one().value:
            return f"{pad}skip"
        return f"{pad}weigh {_print_weight(prog.weight)}"
    raise EvalError(f"not a program node: {prog!r}")
