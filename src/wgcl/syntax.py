"""Program ASTs, program states, and the weighting-expression language.

Statements follow the weighted guarded-command shape: assignment,
sequencing, conditionals, loops, nondeterministic branching `{C} [] {C}`,
and trace weighting `weigh a`.  `skip` and the weighted choice
`{C1} [p] (+) [q] {C2}` are parse-time sugar (see parser.py).

`compile_program` lowers a program object once into a graph of positions
(`Node`), one per statement occurrence and kept on the object, which the
small-step semantics, the oracles and the transformer all walk.
Lowering numbers the program's variables, and inside a walk a state is a
key, an int tuple indexed by those slots (`pack`); a `State` is a state at
the package's boundary.  Each node carries its statement's expression
compiled to a closure over a key; the interpretive `eval_arith`,
`eval_bool`, `eval_weight` and `eval_weighting` are the one-shot
evaluators over a `State` and the reference the closures are tested
against.

A weighting is the quantitative counterpart of a predicate: a total
function from program states to module values.  The syntactic fragment
(`WeightingExpr`) is a guarded sum: a list of `[guard] term` summands,
where terms are integer embeddings, module-value literals, scalar products,
or nested sums.  Guards that do not hold contribute the module zero, and
unevaluated terms are never touched, so a guarded sum is total even when a
term would be partial outside its guard.
"""

from __future__ import annotations

import operator
from functools import cached_property, lru_cache
from typing import Callable, Union

from ._record import record
from .algebra import Algebra, EmbedError, ModuleValue, Weight


class EvalError(Exception):
    """Expression evaluation failed (bad embedding, wrong instance, ...)."""


# ---------------------------------------------------------------------------
# Arithmetic and Boolean expressions
# ---------------------------------------------------------------------------

@record(frozen=True)
class AInt:
    value: int


@record(frozen=True)
class AVar:
    name: str


@record(frozen=True)
class ABin:
    op: str  # '+', '-', '*'
    left: "ArithExpr"
    right: "ArithExpr"


@record(frozen=True)
class ACall:
    fn: str  # 'min', 'max', 'fib'
    args: tuple["ArithExpr", ...]


ArithExpr = Union[AInt, AVar, ABin, ACall]


@record(frozen=True)
class BBool:
    value: bool


@record(frozen=True)
class BCmp:
    op: str  # '=', '!=', '<', '<=', '>', '>='
    left: ArithExpr
    right: ArithExpr


@record(frozen=True)
class BNot:
    arg: "BoolExpr"


@record(frozen=True)
class BAnd:
    left: "BoolExpr"
    right: "BoolExpr"


@record(frozen=True)
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

@record(frozen=True)
class WLit:
    """A weight literal, already validated for the declared instance."""

    raw: object


@record(frozen=True)
class WEmbedInt:
    """`int(e)`: embed an arithmetic value as a weight, state by state."""

    expr: ArithExpr


WeightExpr = Union[WLit, WEmbedInt]


# ---------------------------------------------------------------------------
# Program statements
# ---------------------------------------------------------------------------

class Statement:
    """Base of the six statement classes: a statement lowers itself once,
    on first use, to its graph of positions (see `compile_program`)."""

    @cached_property
    def names(self) -> tuple[str, ...]:
        """The variables the program reads or assigns, sorted: its
        lowering's slots, found by one walk over its syntax tree."""
        found, stack = set(), [self]
        while stack:
            t = stack.pop()
            cls = t.__class__
            if cls is AVar:
                found.add(t.name)
                continue
            if cls is Assign:
                found.add(t.var)
            for v in (t if cls is tuple else t.__dict__.values()):
                # only nodes and tuples: a leaf (a name, an int) is never pushed,
                # and a cached lowering, a `Node`, has no `__dict__`
                if hasattr(v, "__dict__") or v.__class__ is tuple:
                    stack.append(v)
        return tuple(sorted(found))

    @cached_property
    def _graph(self) -> "Node":
        # kept in the instance `__dict__`, which `==`, `hash` and `repr` do
        # not read.  No table keys on statements: only the arms of a `[]`
        # that are equal statement lists (`flatten_seq`) share one lowering.
        names = self.names

        def lower(prog: Program, nxt, in_body: bool) -> Node:
            for stmt in reversed(flatten_seq(prog)):
                node = Node(stmt, nxt, in_body, names)
                if isinstance(stmt, Assign):
                    node.slot = names.index(stmt.var)
                elif isinstance(stmt, While):
                    node.join = True  # where the loop's entry and its back edge meet
                    node.then = lower(stmt.body, node, True)
                elif isinstance(stmt, Ite):
                    node.then = lower(stmt.then, nxt, in_body)
                    node.orelse = lower(stmt.orelse, nxt, in_body)
                elif isinstance(stmt, Branch):
                    node.then = lower(stmt.left, nxt, in_body)
                    same = flatten_seq(stmt.left) == flatten_seq(stmt.right)
                    node.orelse = node.then if same else lower(stmt.right, nxt, in_body)
                if nxt is not TERMINATED and not isinstance(stmt, (Assign, Weigh)):
                    nxt.join = True  # where the arms, or the loop's exits, meet
                nxt = node
            return nxt

        return lower(self, TERMINATED, False)


@record(frozen=True)
class Assign(Statement):
    var: str
    expr: ArithExpr


@record(frozen=True)
class Seq(Statement):
    first: "Program"
    second: "Program"


@record(frozen=True)
class Ite(Statement):
    guard: BoolExpr
    then: "Program"
    orelse: "Program"


@record(frozen=True)
class While(Statement):
    guard: BoolExpr
    body: "Program"


@record(frozen=True)
class Branch(Statement):
    left: "Program"
    right: "Program"


@record(frozen=True)
class Weigh(Statement):
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

class _Terminated:
    __slots__ = ()

    def __repr__(self) -> str:
        return "TERMINATED"


TERMINATED = _Terminated()  # the position after the last statement


_COMPILERS: dict = {}  # the builders of `Node.successors` and `Node.step`, in other modules


class Node:
    """A program position: one non-`Seq` statement with its continuation.

    `next` is where control goes after the statement (another node or
    TERMINATED).  `then`/`orelse` are the compiled arms of `if` and `[]`;
    a loop's `then` is its body, which runs back to the loop's own node.
    `join` marks a position where two paths meet: lowering sets it on the
    continuation of an `if`, a `[]` and a `while`, and on each loop head,
    where the loop's entry and its back edge meet.  `in_body` marks a
    position inside some loop's body; the loop's own position lies in the
    region around it.  Nodes compare by identity.

    `names` is the program's `Statement.names`, the slots of a key (`pack`),
    and an assignment writes slot `slot`.  The statement's expression,
    compiled to a closure over a key (`compile_arith`), is `guard` on `if`
    and `while`, `rhs` on an assignment and `weight` (key, algebra) on
    `weigh`, a raw weight.  `successors` (key, algebra) is the position's
    step relation (`operational.compile_successors`): its (raw weight,
    position, key) triples, the statement kind chosen once, when it is
    built.  `step` is the transformer's compiled walk from here
    (`transformer.compile_step`), in its region's mode: over values outside
    any loop body, over linear forms inside one; from an assignment or a
    `weigh` it runs the whole straight-line run.  Each is built on first
    use and kept, so every walk shares it, and a position never evaluated
    (as in `print`) costs nothing.
    """

    __slots__ = ("stmt", "next", "then", "orelse", "join", "in_body", "names", "slot",
                 "guard", "rhs", "weight", "successors", "step")

    def __init__(self, stmt: Program, nxt: "Node | _Terminated", in_body: bool,
                 names: tuple[str, ...]):
        self.stmt = stmt
        self.next = nxt
        self.then = self.orelse = None
        self.join = False
        self.in_body = in_body
        self.names = names

    def __getattr__(self, name: str):
        # called only while a slot is unset: compile it now
        if name == "guard":
            fn = compile_bool(self.stmt.guard, self.names)
        elif name == "rhs":
            fn = compile_arith(self.stmt.expr, self.names)
        elif name == "weight":
            fn = compile_weight(self.stmt.weight, self.names)
        elif name == "successors" or name == "step":
            if not _COMPILERS:  # imported once, on first use
                from .operational import compile_successors  # the step relation lives there
                from .transformer import compile_step  # the walk lives there
                _COMPILERS.update(successors=compile_successors, step=compile_step)
            fn = _COMPILERS[name](self)
        else:
            raise AttributeError(name)
        setattr(self, name, fn)
        return fn


def compile_program(program: Program) -> Node:
    """The entry of the program's graph of positions.  The first call for a
    program object lowers it, and every later call returns the same graph,
    so all walks over one program share its nodes and their closures.
    Equal but distinct objects get separate graphs, and only the equal
    arms of one `[]` share positions (see `Statement._graph`)."""
    return program._graph


# ---------------------------------------------------------------------------
# Program states
# ---------------------------------------------------------------------------

class State(tuple):
    """Finitely supported variable valuation; absent variables read as 0.

    A state is the tuple of its nonzero (name, value) pairs, sorted by
    name, and it equals the plain tuple of its items; the empty state is
    falsy.  States enter and leave the package as `State`s; a walk packs
    one into a key once (`pack`) and unpacks a key where a state leaves.
    """

    __slots__ = ()

    def __new__(cls, mapping: dict[str, int] | None = None):
        return tuple.__new__(cls, sorted((k, v) for k, v in (mapping or {}).items() if v != 0))

    def get(self, name: str) -> int:
        return dict(self).get(name, 0)

    def set(self, name: str, value: int) -> "State":
        return State({**dict(self), name: value})

    def items(self) -> tuple[tuple[str, int], ...]:
        return self

    def __repr__(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in self)
        return "{" + inner + "}"

    def format(self, variables: tuple[str, ...] | None = None) -> str:
        if variables is None:
            return ",".join(f"{k}={v}" for k, v in self) or "-"
        return ",".join(f"{k}={self.get(k)}" for k in variables)


def pack(sigma: State, names: tuple[str, ...], rest: bool = False) -> tuple:
    """`sigma` as a key over the slots `names`: their values, 0 where
    absent, and with `rest` the other variables as one trailing `State`."""
    values = dict(sigma)
    key = tuple([values.pop(n, 0) for n in names])
    return key + (State(values),) if rest else key


def unpack(key, names: tuple[str, ...]) -> State:
    """The `State` of a key over the slots `names` (see `pack`)."""
    rest = key[len(names)] if len(key) > len(names) else ()
    return State({**dict(rest), **dict(zip(names, key))})


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

# A loop that squares a variable doubles its digits on every pass, and no
# node budget bounds that time.  So a product of more than MAX_INT_BITS
# bits, and a fib argument above MAX_INT_BITS, are evaluation errors.
MAX_INT_BITS = 1 << 16
_COMPARISONS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
                "<=": operator.le, ">": operator.gt, ">=": operator.ge}


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
        return _COMPARISONS[b.op](eval_arith(b.left, sigma), eval_arith(b.right, sigma))
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
# Compiled expressions
# ---------------------------------------------------------------------------
# Each expression is compiled once into a closure over a key over the slots
# `names` (Feeley and Lapalme 1987, "Using closures for code generation"),
# so a walk that evaluates it at every state no longer re-dispatches on its
# AST.  A closure equals the evaluator above at the key's `State`: the same
# values, the same `EvalError`s, operands left to right, and `and`/`or`
# short-circuit.  A variable not in `names`, then a list, takes the next
# slot, in the order the operands are read, also beside a subterm that is
# folded away; a shape the compiler does not know falls back to the
# evaluator.
#
# There is one closure per operator, not one per AST node.  Each operand
# compiles to a constant, a slot or a closure (`_arith`, `_bool`), and the
# operator's closure reads a constant or a slot operand in place, as in
# `sigma[i] + k` or `op(sigma[i], k)`: an operator fused with its leaf
# operands, a superoperator (Proebsting 1995, "Optimizing an ANSI C
# interpreter with superoperators").  Folding: an operator whose operands
# are all constants is replaced by its value where evaluating it cannot
# raise, that is `+`, `-`, `min`, `max`, the comparisons and `not`; `and`
# and `or` with a constant left operand reduce to what their short circuit
# picks, and with a right operand that cannot change the result (`and
# true`, `or false`) to the left one, which is still evaluated.  Products
# and `fib` are never folded: past MAX_INT_BITS they raise, and that error
# belongs to the states whose evaluation reaches them, not to the compile
# (a position may never run); below it a fold would still spend the time of
# a 65,536-bit product, or of fib(65536), on a position that may never run.

_CONST, _SLOT, _FN = "constant", "slot", "closure"  # what an operand compiles to


def _operand(kind, x) -> Callable[[tuple], object]:
    """The closure of a compiled operand (kind, x)."""
    if kind is _CONST:
        return lambda sigma: x
    if kind is _SLOT:
        return operator.itemgetter(x)
    return x


def _apply(op, left, right) -> Callable[[tuple], object]:
    """One closure for op(left, right) over two compiled operands, not both
    constants, each read in place if it is a constant or a slot."""
    (lk, a), (rk, b) = left, right
    if lk is _SLOT:
        if rk is _SLOT:
            return lambda sigma: op(sigma[a], sigma[b])
        if rk is _CONST:
            return lambda sigma: op(sigma[a], b)
        return lambda sigma: op(sigma[a], b(sigma))
    if lk is _CONST:
        if rk is _SLOT:
            return lambda sigma: op(a, sigma[b])
        return lambda sigma: op(a, b(sigma))
    if rk is _SLOT:
        return lambda sigma: op(a(sigma), sigma[b])
    if rk is _CONST:
        return lambda sigma: op(a(sigma), b)
    return lambda sigma: op(a(sigma), b(sigma))


def _times(left, right) -> Callable[[tuple], int]:
    """A product's closure, bounded as `eval_arith` bounds it."""
    l, (rk, k) = _operand(*left), right
    if rk is _CONST:  # `e * k`: the bound on e's bits is known here
        room = MAX_INT_BITS - k.bit_length()

        def times_constant(sigma):
            a = l(sigma)
            if a.bit_length() > room:
                raise EvalError(f"a product exceeds {MAX_INT_BITS} bits")
            return a * k
        return times_constant
    r = _operand(*right)

    def times(sigma):
        a, b = l(sigma), r(sigma)
        if a.bit_length() + b.bit_length() > MAX_INT_BITS:
            raise EvalError(f"a product exceeds {MAX_INT_BITS} bits")
        return a * b
    return times


def _arith(e: ArithExpr, names) -> tuple:
    """`e` compiled as an operand: (_CONST, value), (_SLOT, index) or
    (_FN, closure)."""
    cls = e.__class__
    if cls is AInt:
        return _CONST, e.value
    if cls is AVar:
        try:
            return _SLOT, names.index(e.name)
        except ValueError:
            names.append(e.name)
            return _SLOT, len(names) - 1
    if cls is ABin:
        left, right = _arith(e.left, names), _arith(e.right, names)
        if e.op == "*":
            return _FN, _times(left, right)
        if e.op == "+" or e.op == "-":
            (lk, a), (rk, b) = left, right
            if rk is _CONST:
                k = b if e.op == "+" else -b
                if lk is _CONST:
                    return _CONST, a + k
                if lk is _SLOT:
                    return _FN, lambda sigma: sigma[a] + k
                return _FN, lambda sigma: a(sigma) + k
            return _FN, _apply(operator.add if e.op == "+" else operator.sub, left, right)
    elif cls is ACall:
        if len(e.args) == 2 and (e.fn == "min" or e.fn == "max"):  # the common case, listless
            pick = min if e.fn == "min" else max
            left, right = _arith(e.args[0], names), _arith(e.args[1], names)
            if left[0] is _CONST and right[0] is _CONST:
                return _CONST, pick(left[1], right[1])
            return _FN, _apply(pick, left, right)
        args = [_arith(a, names) for a in e.args]
        if e.fn == "min" or e.fn == "max":
            pick = min if e.fn == "min" else max
            if args and all(kind is _CONST for kind, _ in args):
                return _CONST, pick([value for _, value in args])
            fns = [_operand(*a) for a in args]
            return _FN, lambda sigma: pick([f(sigma) for f in fns])
        if e.fn == "fib" and len(args) == 1:
            a = _operand(*args[0])

            def fib_of(sigma):
                n = a(sigma)
                if n > MAX_INT_BITS:
                    raise EvalError(f"fib argument {n} exceeds {MAX_INT_BITS}")
                return fib(n)
            return _FN, fib_of
    return _FN, lambda sigma: eval_arith(e, unpack(sigma, names))


def _bool(b: BoolExpr, names) -> tuple:
    """`b` compiled as an operand: (_CONST, value) or (_FN, closure)."""
    cls = b.__class__
    if cls is BCmp and b.op in _COMPARISONS:
        op, left, right = _COMPARISONS[b.op], _arith(b.left, names), _arith(b.right, names)
        if left[0] is _CONST and right[0] is _CONST:
            return _CONST, op(left[1], right[1])
        return _FN, _apply(op, left, right)
    if cls is BAnd or cls is BOr:
        (lk, l), (rk, r) = _bool(b.left, names), _bool(b.right, names)
        conj = cls is BAnd
        if lk is _CONST:  # the short circuit, taken once
            return (rk, r) if bool(l) is conj else (lk, l)
        if r is conj:  # `and true`, `or false`: the left operand's value
            return lk, l
        r = _operand(rk, r)
        if conj:
            return _FN, lambda sigma: l(sigma) and r(sigma)
        return _FN, lambda sigma: l(sigma) or r(sigma)
    if cls is BNot:
        kind, arg = _bool(b.arg, names)
        if kind is _CONST:
            return _CONST, not arg
        return _FN, lambda sigma: not arg(sigma)
    if cls is BBool:
        return _CONST, b.value
    return _FN, lambda sigma: eval_bool(b, unpack(sigma, names))


def compile_arith(e: ArithExpr, names: tuple[str, ...]) -> Callable[[tuple], int]:
    kind, x = _arith(e, names)
    return x if kind is _FN else _operand(kind, x)


def compile_bool(b: BoolExpr, names: tuple[str, ...]) -> Callable[[tuple], bool]:
    kind, x = _bool(b, names)
    return x if kind is _FN else _operand(kind, x)


def compile_weight(w: WeightExpr, names: tuple[str, ...]) -> Callable[[tuple, Algebra], object]:
    """`w` as a closure (key, algebra) -> the raw weight, equal to
    `eval_weight(w, ., algebra).value`."""
    if isinstance(w, WLit):
        raw, built = w.raw, (None, None)

        def literal(sigma, algebra):  # checked once per position and algebra
            nonlocal built
            if built[0] is not algebra:
                built = (algebra, algebra._check_weight(raw))
            return built[1]
        return literal
    if isinstance(w, WEmbedInt):
        arg = compile_arith(w.expr, names)

        def embed(sigma, algebra):
            n = arg(sigma)
            try:
                return algebra._embed(n)
            except EmbedError as exc:
                raise EvalError(str(exc)) from exc
        return embed
    return lambda sigma, algebra: eval_weight(w, unpack(sigma, names), algebra).value


# ---------------------------------------------------------------------------
# Weighting expressions (guarded sums) and semantic weightings
# ---------------------------------------------------------------------------

@record(frozen=True)
class TZero:
    pass


@record(frozen=True)
class TOne:
    pass


@record(frozen=True)
class TTop:
    pass


@record(frozen=True)
class TEmbed:
    expr: ArithExpr


@record(frozen=True)
class TLit:
    """A module-value literal (language set, rational, ...), raw carrier."""

    raw: object


@record(frozen=True)
class TScale:
    weight: WeightExpr
    term: "WeightingExpr"


@record(frozen=True)
class WGuarded:
    guard: BoolExpr | None
    term: "WeightingExpr"


@record(frozen=True)
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


def compile_weighting(expr: WeightingExpr, algebra: Algebra,
                      names: tuple[str, ...]) -> Callable[[tuple], ModuleValue]:
    """`expr` as a closure over a key, equal to `eval_weighting(expr, .,
    algebra)`: a term behind a failing guard is never evaluated."""
    if isinstance(expr, TZero):
        return lambda sigma: algebra.mod_zero()
    if isinstance(expr, TOne):
        return lambda sigma: algebra.module_one()
    if isinstance(expr, TTop):
        return lambda sigma: algebra.top()
    if isinstance(expr, TEmbed):
        arg = compile_arith(expr.expr, names)

        def embed(sigma):
            n = arg(sigma)
            try:
                return algebra.embed_value(n)
            except EmbedError as exc:
                raise EvalError(str(exc)) from exc
        return embed
    if isinstance(expr, TLit):
        raw = expr.raw
        return lambda sigma: algebra.value(raw)
    if isinstance(expr, TScale):
        weight = compile_weight(expr.weight, names)
        term = compile_weighting(expr.term, algebra, names)
        return lambda sigma: ModuleValue(algebra, algebra._scale(
            weight(sigma, algebra), algebra._need(term(sigma), ModuleValue)))
    if isinstance(expr, WSum):
        items = [(None if item.guard is None else compile_bool(item.guard, names),
                  compile_weighting(item.term, algebra, names)) for item in expr.items]

        def total(sigma):
            out = algebra.mod_zero()
            for guard, term in items:
                if guard is None or guard(sigma):
                    out = algebra.mod_add(out, term(sigma))
            return out
        return total
    return lambda sigma: eval_weighting(expr, unpack(sigma, names), algebra)


class Weighting:
    """Evaluable weighting: a total map from states to module values."""

    algebra: Algebra

    def at(self, sigma: State) -> ModuleValue:
        raise NotImplementedError

    def keyed(self, names: tuple[str, ...]) -> tuple:
        """For a walk over a program with slots `names`: how it packs a
        `State` (`pack`), and the weighting at a key.  The key keeps the
        input's other variables, constant through the walk, that the
        weighting can read: here all of them."""
        return lambda sigma: pack(sigma, names, True), lambda key: self.at(unpack(key, names))


class ExprWeighting(Weighting):
    """A weighting expression over one algebra.  Keyed, it is its closure
    (`compile_weighting`), compiled once per `names`, its other variables
    in the slots after the program's, so the key keeps only the input
    variables it reads."""

    def __init__(self, algebra: Algebra, expr: WeightingExpr):
        self.algebra = algebra
        self.expr = expr
        self._keyed: dict[tuple[str, ...], tuple] = {}

    def at(self, sigma: State) -> ModuleValue:
        key, at = self.keyed(())
        return at(key(sigma))

    def keyed(self, names: tuple[str, ...]) -> tuple:
        if names not in self._keyed:
            layout = list(names)  # the expression's other variables join it as it compiles
            at = compile_weighting(self.expr, self.algebra, layout)
            self._keyed[names] = (lambda sigma: pack(sigma, layout), at)
        return self._keyed[names]


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
