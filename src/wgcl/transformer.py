"""Weakest-preweighting transformers and invariant checking.

`wp` maps a postweighting f backwards through a program: assignments
substitute, sequencing composes, conditionals select, branching adds,
weighing scales, and a loop takes the least fixed point of its
characteristic map

    X  |->  [not guard] (x) f  (+)  [guard] (x) wp(body)(X),

computed by Kleene iteration from the zero weighting.  `wlp` runs the same
recursion but takes the greatest fixed point, iterating downward from the
top weighting (or from the constant one in `leq_one` mode, for probability
programs); the difference wlp(zero) is exactly the weight of the
nonterminating behavior, and wlp(f) = wp(f) (+) wlp(zero).

The recursion runs over the compiled program (`syntax.compile_program`):
a position's continuation is its `next` link, which ends in f at
TERMINATED, and inside a loop's iteration pass the loop's own node stands
for the current iterate.

Fixed points over an infinite state space are evaluated lazily: each loop
keeps a table of the states its iteration has touched, and one iteration
pass recomputes the characteristic map at every touched state against a
snapshot of the previous pass (discovering new states as the body reaches
them).  A result is reported `exact` only under a certificate:

* the dependency closure of the queried state sat still for a full pass,
  so the table is a genuine fixed point of the restricted system (for UCT
  loops this always happens within the fuel), or
* for wlp, the lasso route: wlp(f) = wp(f) (+) wlp(zero) with the
  divergence part taken exactly from the quotient-graph analysis.

Anything else is a flagged bound: below the answer for wp, above for wlp.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal

from .algebra import Algebra, ModuleValue, NoTopError
from .syntax import (
    TERMINATED, Assign, Branch, ExprWeighting, FnWeighting, Ite, Node, Program,
    State, Weigh, Weighting, While, compile_program, eval_arith, eval_bool,
    eval_weight,
)
from .operational import BudgetError, DivergenceError, diverging_weights


class CertificationError(Exception):
    """An invariant check hit an inner result it could not certify."""


class NotALoopError(Exception):
    pass


Direction = Literal["wp", "wlp"]


@dataclass
class TransformResult:
    value: ModuleValue
    exact: bool
    iterations: int = 0
    touched_states: int = 0


def as_weighting(algebra: Algebra, f) -> Weighting:
    if isinstance(f, Weighting):
        return f
    if isinstance(f, ModuleValue):
        return FnWeighting(algebra, lambda _s, _v=f: _v)
    if isinstance(f, str):
        from .parser import parse_weighting
        return ExprWeighting(algebra, parse_weighting(f, algebra))
    # a WeightingExpr AST node
    return ExprWeighting(algebra, f)


# ---------------------------------------------------------------------------
# Evaluation over the compiled program
# ---------------------------------------------------------------------------

class _Iterate:
    """One Kleene iterate of a loop, read from a pass snapshot.

    Reading a state the table has not seen yet seeds it with the iteration's
    start value and schedules it, unless it lies beyond the unrolling
    horizon (more body-hops away than the fuel allows): such a read keeps
    the seed, like the leaf of a bounded unrolling, and poisons the reading
    state's certificate.  Every read is recorded as a dependency of the
    state currently being re-evaluated.
    """

    def __init__(self, table: "_LoopTable", horizon: int):
        self.table = table
        self.horizon = horizon
        self.snapshot: dict[State, ModuleValue] = dict(table.vals)
        self.current_depth = 0
        self.deps: set[State] = set()
        self.far: set[State] = set()
        self.current: State | None = None
        self.discovered = False

    def begin_state(self, sigma: State):
        self.current = sigma
        self.current_depth = self.table.depth.get(sigma, 0)
        self.deps = set()

    def read(self, sigma: State) -> tuple[ModuleValue, bool]:
        if sigma not in self.snapshot:
            if self.current_depth + 1 > self.horizon:
                # beyond the horizon: an unrolling leaf, never certified
                self.far.add(self.current)
                self.discovered = True
                return self.table.seed, True
            self.table.add_state(sigma, self.current_depth + 1)
            self.snapshot[sigma] = self.table.seed
            self.discovered = True
        self.deps.add(sigma)
        return self.snapshot[sigma], True


class _LoopTable:
    def __init__(self, seed: ModuleValue):
        self.seed = seed
        self.order: list[State] = []
        self.vals: dict[State, ModuleValue] = {}
        self.depth: dict[State, int] = {}
        self.deps: dict[State, frozenset[State]] = {}
        self.inner_exact: dict[State, bool] = {}
        self.changed_last: set[State] = set()
        self.far_last: set[State] = set()
        self.stable = False
        self.iterations = 0

    def add_state(self, sigma: State, depth: int):
        if sigma not in self.vals:
            self.order.append(sigma)
            self.vals[sigma] = self.seed
            self.depth[sigma] = depth
        elif depth < self.depth.get(sigma, depth):
            self.depth[sigma] = depth

    def closure(self, sigma: State) -> set[State]:
        seen = {sigma}
        stack = [sigma]
        while stack:
            for dep in self.deps.get(stack.pop(), ()):
                if dep not in seen:
                    seen.add(dep)
                    stack.append(dep)
        return seen

    def exact_at(self, sigma: State) -> bool:
        closure = self.closure(sigma)
        return all(tau not in self.changed_last
                   and tau not in self.far_last
                   and tau in self.inner_exact and self.inner_exact[tau]
                   for tau in closure)


class _Memo:
    """Evaluation context: what reaching TERMINATED or the running loop
    means, the values of positions entered through a `next` link, and loop
    tables keyed on the loop's node.

    Loop-pass evaluation gets a fresh memo whose `loop` reads the pass's
    iterate, because everything in it may depend on the pass snapshot; the
    top-level memo of a postweighting persists on the engine so grid sweeps
    share converged loop tables.
    """

    def __init__(self, post: Weighting, loop: Node | None, iterate: _Iterate | None):
        self.post = post
        self.loop = loop
        self.iterate = iterate
        self.values: dict[tuple[Node, State], tuple[ModuleValue, bool]] = {}
        self.tables: dict[Node, _LoopTable] = {}


class Engine:
    """A wp or wlp evaluator over one algebra, reusable across states."""

    def __init__(self, algebra: Algebra, direction: Direction = "wp",
                 fuel: int = 64, node_budget: int = 10 ** 6,
                 seed_one: bool = False):
        if direction not in ("wp", "wlp"):
            raise ValueError(f"bad direction {direction!r}")
        self.algebra = algebra
        self.direction = direction
        self.fuel = fuel
        self.node_budget = node_budget
        self.seed_one = seed_one  # wlp restricted to the gfp below the constant one
        self._roots: dict[Program, Node] = {}
        self._memos: dict[Weighting, _Memo] = {}
        self._passes = 0
        self._touched = 0

    # -- public -------------------------------------------------------------
    def run(self, program: Program, f, sigma: State) -> TransformResult:
        w = as_weighting(self.algebra, f)
        root = self._roots.get(program)
        if root is None:
            root = self._roots[program] = compile_program(program)
        memo = self._memos.get(w)
        if memo is None:
            memo = self._memos[w] = _Memo(w, None, None)
        self._passes = 0
        self._touched = 0
        value, exact = self._eval(root, sigma, memo)
        return TransformResult(value, exact, self._passes, self._touched)

    # -- recursion over positions -----------------------------------------------
    def _next(self, node, sigma: State, memo: _Memo) -> tuple[ModuleValue, bool]:
        """The value at a position entered through a `next` link: the
        postweighting after the last statement, the iterate at the loop
        whose pass is running, memoized everywhere else."""
        if node is TERMINATED:
            return memo.post.at(sigma), True
        if node is memo.loop:
            return memo.iterate.read(sigma)
        hit = memo.values.get((node, sigma))
        if hit is None:
            hit = memo.values[(node, sigma)] = self._eval(node, sigma, memo)
        return hit

    def _eval(self, node: Node, sigma: State, memo: _Memo) -> tuple[ModuleValue, bool]:
        alg = self.algebra
        stmt = node.stmt
        if isinstance(stmt, Assign):
            return self._next(node.next, sigma.set(stmt.var, eval_arith(stmt.expr, sigma)), memo)
        if isinstance(stmt, Weigh):
            w = eval_weight(stmt.weight, sigma, alg)
            value, exact = self._next(node.next, sigma, memo)
            return alg.scalar_mul(w, value), exact
        if isinstance(stmt, Ite):
            chosen = node.then if eval_bool(stmt.guard, sigma) else node.orelse
            return self._eval(chosen, sigma, memo)
        if isinstance(stmt, Branch):
            lv, le = self._eval(node.then, sigma, memo)
            rv, re_ = self._eval(node.orelse, sigma, memo)
            return alg.mod_add(lv, rv), le and re_
        if isinstance(stmt, While):
            return self._loop(node, sigma, memo)
        raise TypeError(f"not a program node: {stmt!r}")

    # -- loops ---------------------------------------------------------------
    def _seed(self) -> ModuleValue:
        if self.direction == "wp":
            return self.algebra.mod_zero()
        if self.seed_one:
            return self.algebra.module_one()
        return self.algebra.top()  # may raise NoTopError; that is the contract

    def _loop(self, node: Node, sigma: State, memo: _Memo) -> tuple[ModuleValue, bool]:
        table = memo.tables.get(node)
        if table is None:
            table = memo.tables[node] = _LoopTable(self._seed())
        if sigma in table.vals and table.stable:
            return table.vals[sigma], table.exact_at(sigma)
        table.add_state(sigma, 0)
        self._solve(node, table, memo)
        return table.vals[sigma], table.exact_at(sigma)

    def _solve(self, node: Node, table: _LoopTable, memo: _Memo):
        table.stable = False
        for _ in range(self.fuel + 1):
            iterate = _Iterate(table, self.fuel + 1)
            pass_memo = _Memo(memo.post, node, iterate)
            newvals: dict[State, ModuleValue] = {}
            deps: dict[State, frozenset[State]] = {}
            inner_exact: dict[State, bool] = {}
            i = 0
            while i < len(table.order):
                tau = table.order[i]
                i += 1
                if len(table.order) > self.node_budget:
                    raise BudgetError(f"loop touched more than {self.node_budget} states")
                iterate.begin_state(tau)
                if eval_bool(node.stmt.guard, tau):
                    v, ex = self._eval(node.then, tau, pass_memo)
                else:
                    v, ex = self._next(node.next, tau, memo)
                newvals[tau] = v
                deps[tau] = frozenset(iterate.deps)
                inner_exact[tau] = ex
            changed = {tau for tau, v in newvals.items() if table.vals[tau] != v}
            table.vals.update(newvals)
            table.deps = deps
            table.inner_exact = inner_exact
            table.changed_last = changed
            table.far_last = iterate.far
            table.iterations += 1
            self._passes += 1
            if not changed and not iterate.discovered:
                table.stable = True
                break
        self._touched += len(table.order)


# ---------------------------------------------------------------------------
# Public evaluation entry points
# ---------------------------------------------------------------------------

def wp_eval(program: Program, f, sigma: State, algebra: Algebra,
            fuel: int = 64, node_budget: int = 10 ** 6) -> TransformResult:
    """Weakest preweighting of `program` for postweighting `f` at one state."""
    return Engine(algebra, "wp", fuel, node_budget).run(program, f, sigma)


def wlp_eval(program: Program, f, sigma: State, algebra: Algebra,
             fuel: int = 64, node_budget: int = 10 ** 6,
             mode: Literal["gfp", "gfp_leq_one"] = "gfp",
             method: Literal["auto", "chain", "lasso"] = "auto") -> TransformResult:
    """Weakest liberal preweighting.

    `mode="gfp"` needs a top element and iterates down from it;
    `mode="gfp_leq_one"` starts from the constant one (probability
    programs).  `method` picks between the fixed-point chain, the lasso
    decomposition wlp(f) = wp(f) (+) wlp(zero), or trying both.
    """
    def chain() -> TransformResult:
        engine = Engine(algebra, "wlp", fuel, node_budget,
                        seed_one=(mode == "gfp_leq_one"))
        return engine.run(program, f, sigma)

    def lasso() -> TransformResult:
        if mode != "gfp":
            raise DivergenceError("lasso decomposition needs the plain gfp mode")
        wp_part = wp_eval(program, f, sigma, algebra, fuel, node_budget)
        div = diverging_weights(program, sigma, algebra, node_budget)
        value = algebra.mod_add(wp_part.value, div.value)
        return TransformResult(value, wp_part.exact, wp_part.iterations,
                               wp_part.touched_states)

    if method == "chain":
        return chain()
    if method == "lasso":
        return lasso()
    result = chain()
    if result.exact:
        return result
    try:
        alt = lasso()
    except (DivergenceError, BudgetError, NoTopError):
        return result
    return alt if alt.exact else result


# ---------------------------------------------------------------------------
# Characteristic functions and invariant checking
# ---------------------------------------------------------------------------

@dataclass
class CharacteristicFn:
    """The loop-unrolling map X |-> [not g](x)f (+) [g](x)T(body)(X)."""

    guard: object
    body: Program
    post: Weighting
    direction: Direction = "wp"


def char_fn(loop: Program, f, algebra: Algebra,
            direction: Direction = "wp") -> CharacteristicFn:
    if not isinstance(loop, While):
        raise NotALoopError("not a loop")
    return CharacteristicFn(loop.guard, loop.body, as_weighting(algebra, f), direction)


def apply_char_fn(phi: CharacteristicFn, invariant, sigma: State, algebra: Algebra,
                  fuel: int = 64, node_budget: int = 10 ** 6) -> ModuleValue:
    """One application of the characteristic map to an evaluable weighting.

    The body transform must come back exact; an invariant check may not
    rest on an approximation.
    """
    inv = as_weighting(algebra, invariant)
    if not eval_bool(phi.guard, sigma):
        return phi.post.at(sigma)
    engine = Engine(algebra, phi.direction, fuel, node_budget)
    res = engine.run(phi.body, inv, sigma)
    if not res.exact:
        raise CertificationError(
            "cannot certify the characteristic-function application "
            f"(inner {phi.direction} at {sigma!r} is not exact)")
    return res.value


@dataclass
class InvariantVerdict:
    state: State
    holds: bool
    detail: str = ""


@dataclass
class InvariantReport:
    mode: str
    verdicts: list[InvariantVerdict]

    @property
    def all_hold(self) -> bool:
        return all(v.holds for v in self.verdicts)


def check_superinvariant(loop: Program, f, invariant, states: Iterable[State],
                         algebra: Algebra, fuel: int = 64,
                         node_budget: int = 10 ** 6) -> InvariantReport:
    """Pointwise `phi(I) <= I`: where it holds everywhere, induction bounds
    wp of the loop from above by I."""
    phi = char_fn(loop, f, algebra, "wp")
    inv = as_weighting(algebra, invariant)
    verdicts = []
    for sigma in states:
        applied = apply_char_fn(phi, inv, sigma, algebra, fuel, node_budget)
        ok = algebra.nat_leq(applied, inv.at(sigma))
        verdicts.append(InvariantVerdict(sigma, ok))
    return InvariantReport("super", verdicts)


def check_subinvariant(loop: Program, f, invariant, states: Iterable[State],
                       algebra: Algebra, fuel: int = 64,
                       node_budget: int = 10 ** 6,
                       mode: Literal["gfp", "gfp_leq_one"] = "gfp") -> InvariantReport:
    """Pointwise `I <= phi~(I)` with the liberal characteristic map: where it
    holds everywhere, I bounds wlp of the loop from below."""
    phi = char_fn(loop, f, algebra, "wlp")
    inv = as_weighting(algebra, invariant)
    verdicts = []
    for sigma in states:
        applied = apply_char_fn(phi, inv, sigma, algebra, fuel, node_budget)
        ok = algebra.nat_leq(inv.at(sigma), applied)
        verdicts.append(InvariantVerdict(sigma, ok))
    return InvariantReport("sub", verdicts)


@dataclass
class FixedPointVerdict:
    state: State
    fixed: bool
    certainly_terminates: bool

    @property
    def exact_claim(self) -> bool:
        """True when wp = wlp = I is certified at this state."""
        return self.fixed and self.certainly_terminates


@dataclass
class FixedPointReport:
    verdicts: list[FixedPointVerdict]

    @property
    def all_fixed(self) -> bool:
        return all(v.fixed for v in self.verdicts)

    @property
    def all_exact(self) -> bool:
        return all(v.exact_claim for v in self.verdicts)


def check_fixed_point(loop: Program, f, invariant, states: Iterable[State],
                      algebra: Algebra, fuel: int = 64,
                      node_budget: int = 10 ** 6) -> FixedPointReport:
    """Check `phi(I) = I` per state, plus certain termination from it.

    At states where both hold, the loop's fixed point is unique, so
    wp = wlp = I there.
    """
    from .operational import uct_check
    phi = char_fn(loop, f, algebra, "wp")
    inv = as_weighting(algebra, invariant)
    verdicts = []
    for sigma in states:
        applied = apply_char_fn(phi, inv, sigma, algebra, fuel, node_budget)
        fixed = applied == inv.at(sigma)
        uct = uct_check(loop, sigma, algebra, node_budget=node_budget)
        verdicts.append(FixedPointVerdict(sigma, fixed, uct.certain))
    return FixedPointReport(verdicts)


@dataclass
class DecompositionVerdict:
    state: State
    status: Literal["holds", "fails", "untested"]


def check_decomposition(program: Program, f, states: Iterable[State],
                        algebra: Algebra, fuel: int = 64,
                        node_budget: int = 10 ** 6,
                        mode: Literal["gfp", "gfp_leq_one"] = "gfp",
                        method: Literal["auto", "chain", "lasso"] = "auto",
                        ) -> list[DecompositionVerdict]:
    """Per state: wlp(f) = wp(f) (+) wlp(zero), skipped unless both sides
    certify exact (reported `untested`)."""
    out = []
    zero = algebra.mod_zero()
    for sigma in states:
        left = wlp_eval(program, f, sigma, algebra, fuel, node_budget, mode, method)
        wp_part = wp_eval(program, f, sigma, algebra, fuel, node_budget)
        div_part = wlp_eval(program, zero, sigma, algebra, fuel, node_budget, mode, method)
        if not (left.exact and wp_part.exact and div_part.exact):
            out.append(DecompositionVerdict(sigma, "untested"))
            continue
        rhs = algebra.mod_add(wp_part.value, div_part.value)
        out.append(DecompositionVerdict(sigma, "holds" if left.value == rhs else "fails"))
    return out
