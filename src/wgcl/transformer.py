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
TERMINATED, and inside the evaluation of a loop state the loop's own node
stands for the current iterate.

Fixed points over an infinite state space are evaluated lazily, one solve
per queried loop state (`_Solve`).  A breadth-first sweep discovers the
states the body reaches, at most fuel + 1 body-hops from the queried one,
and records which states each one reads.  The strongly connected
components of that dependency graph (`operational.components`) are then
solved dependencies first (chaotic iteration over a topological order,
Bourdoncle 1993): a state outside any cycle is evaluated once, and only a
cyclic component is iterated, for at most `fuel` passes.  A result is
reported `exact` only under a certificate:

* the state's component reached a fixed point (a full pass changed
  nothing), no state in it read past the horizon, and every inner result
  and every dependency outside it was certified, so its values are
  genuine fixed-point values (for UCT loops every component is acyclic);
  such states are final and later queries on the same engine reuse them,
  or
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
from .operational import (
    BudgetError, DivergenceError, certainly_terminates, components, cyclic, diverging_weights,
)


class CertificationError(Exception):
    """An invariant check hit an inner result it could not certify."""


class NotALoopError(Exception):
    pass


Direction = Literal["wp", "wlp"]


@dataclass
class TransformResult:
    """A transformer value at one state.

    `iterations` counts the loop solver's sweeps during the run, summed
    over every loop solve it made (nested loops included): one discovery
    sweep per solve, plus the passes of that solve's most-iterated
    component (a state outside any cycle takes one pass, or none when
    discovery already settled it).  It does not grow with the number of
    states.  `touched_states` counts the states
    those solves discovered; states certified by earlier queries on the
    same engine are read, not touched again.
    """

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

class _Solve:
    """One solve of a loop from a queried state.

    1. Discovery: a breadth-first sweep from the queried state evaluates
       the characteristic map once at each state and records every read of
       the iterate as a dependency.  A read of a state more body-hops away
       than the horizon keeps the seed, like the leaf of a bounded
       unrolling, and is never certified.
    2. Component order: `operational.components` orders the components
       of the dependency graph, dependencies first and deepest state first
       within one; that is the Gauss-Seidel order, so it fixes a bound.
    3. Solving: a state outside any cycle is evaluated once against its
       solved dependencies; a cyclic component is iterated from the seed,
       Gauss-Seidel, for at most `fuel` passes.  A component is certified
       when a full pass changes nothing and every evaluation in it was
       exact: no inner result was inexact, no read crossed the horizon and
       every dependency outside the component was itself certified.
    """

    def __init__(self, engine: "Engine", node: Node, memo: "_Memo"):
        self.engine = engine
        self.node = node
        self.memo = memo
        self.final = memo.tables[node]
        self.seed = engine._seed()
        self.horizon = engine.fuel + 1
        self.vals: dict[State, ModuleValue] = {}
        self.exact: dict[State, bool] = {}
        self.depth: dict[State, int] = {}
        # reads in the order they happen (a dict, not a set), so that the
        # order of solving, and so an inexact bound, is the same every run
        self.deps: dict[State, dict[State, None]] = {}
        self.queue: list[State] = []
        self.discovering = True
        self.reads: dict[State, None] = {}
        self.current_depth = 0

    def read(self, sigma: State) -> tuple[ModuleValue, bool]:
        """The iterate at `sigma`, as the state being evaluated sees it."""
        final = self.final.get(sigma)
        if final is not None:
            return final, True
        value = self.vals.get(sigma)
        if value is None:
            if not self.discovering or self.current_depth + 1 > self.horizon:
                return self.seed, False  # beyond the horizon
            value = self._discover(sigma, self.current_depth + 1)
        self.reads[sigma] = None
        return value, self.exact.get(sigma, True)

    def _discover(self, sigma: State, depth: int) -> ModuleValue:
        budget = self.engine.node_budget
        if len(self.final) + len(self.vals) >= budget:
            raise BudgetError(f"loop touched more than {budget} states")
        self.vals[sigma] = self.seed
        self.depth[sigma] = depth
        self.queue.append(sigma)
        return self.seed

    def _evaluate(self, sigma: State) -> tuple[ModuleValue, bool]:
        """The characteristic map at `sigma`, in a fresh memo, so that
        every read it makes is recorded as its own dependency."""
        node = self.node
        self.current_depth = self.depth[sigma]
        self.reads = {}
        if eval_bool(node.stmt.guard, sigma):
            memo = _Memo(self.memo.post, node, self)
            return self.engine._eval(node.then, sigma, memo)
        return self.engine._next(node.next, sigma, self.memo)

    def run(self, root: State) -> tuple[ModuleValue, bool]:
        self._discover(root, 0)
        for sigma in self.queue:  # grows while it is walked
            value, exact = self._evaluate(sigma)
            self.deps[sigma] = self.reads
            if not self.reads:  # read no state of this solve: solved already
                self.vals[sigma], self.exact[sigma] = value, exact
        self.discovering = False
        longest = 0
        for component in components([root], self.deps):
            if not cyclic(component, self.deps):
                sigma = component[0]
                if sigma not in self.exact:
                    self.vals[sigma], self.exact[sigma] = self._evaluate(sigma)
                    longest = max(longest, 1)
                continue
            passes, certified = self._iterate(component)
            longest = max(longest, passes)
            for sigma in component:
                self.exact[sigma] = certified
        self.engine._passes += 1 + longest
        self.engine._touched += len(self.vals)
        for sigma, exact in self.exact.items():
            if exact:
                self.final[sigma] = self.vals[sigma]
        return self.vals[root], self.exact[root]

    def _iterate(self, component: list[State]) -> tuple[int, bool]:
        """Gauss-Seidel passes over a cyclic component, at most `fuel`: the
        pass count, and whether the last pass changed nothing with every
        evaluation exact."""
        vals = self.vals
        passes = 0
        while passes < self.engine.fuel:
            passes += 1
            changed = False
            exact = True
            for sigma in component:
                value, ex = self._evaluate(sigma)
                exact = exact and ex
                if value != vals[sigma]:
                    vals[sigma] = value
                    changed = True
            if not changed:
                return passes, exact
        return passes, False


class _Memo:
    """Evaluation context: what reaching TERMINATED or the running loop
    means, the values of positions entered through a `next` link, and each
    loop's certified states, keyed on the loop's node.

    Each evaluation of a loop state gets a fresh memo whose `loop` reads
    the solve's iterate, because everything in it may depend on the
    iterate and every read must be recorded.  The top-level memo of a
    postweighting persists on the engine: a certified value is a
    fixed-point value whatever state its query started from, so later
    queries read it instead of solving it again.
    """

    def __init__(self, post: Weighting, loop: Node | None, solve: _Solve | None):
        self.post = post
        self.loop = loop
        self.solve = solve
        self.values: dict[tuple[Node, State], tuple[ModuleValue, bool]] = {}
        self.tables: dict[Node, dict[State, ModuleValue]] = {}


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
            return memo.solve.read(sigma)
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
        final = memo.tables.setdefault(node, {}).get(sigma)
        if final is not None:
            return final, True
        return _Solve(self, node, memo).run(sigma)


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
    """Weakest liberal preweighting of `program` at one state (see
    `LiberalEngine`)."""
    return LiberalEngine(algebra, fuel, node_budget, mode, method).run(program, f, sigma)


class LiberalEngine:
    """A wlp evaluator over one algebra, reusable across states.

    `mode="gfp"` needs a top element and iterates down from it;
    `mode="gfp_leq_one"` starts from the constant one (probability
    programs).  `method` picks between the fixed-point chain, the lasso
    decomposition wlp(f) = wp(f) (+) wlp(zero), or trying both.  The chain
    and the wp part of the lasso each keep one `Engine`, so a grid sweep
    shares their certified loop states.
    """

    def __init__(self, algebra: Algebra, fuel: int = 64, node_budget: int = 10 ** 6,
                 mode: Literal["gfp", "gfp_leq_one"] = "gfp",
                 method: Literal["auto", "chain", "lasso"] = "auto"):
        self.algebra = algebra
        self.node_budget = node_budget
        self.mode = mode
        self.method = method
        self.chain = Engine(algebra, "wlp", fuel, node_budget,
                            seed_one=(mode == "gfp_leq_one"))
        self.wp = Engine(algebra, "wp", fuel, node_budget)

    def run(self, program: Program, f, sigma: State) -> TransformResult:
        if self.method == "chain":
            return self.chain.run(program, f, sigma)
        if self.method == "lasso":
            return self._lasso(program, f, sigma)
        result = self.chain.run(program, f, sigma)
        if result.exact:
            return result
        try:
            alt = self._lasso(program, f, sigma)
        except (DivergenceError, BudgetError, NoTopError):
            return result
        return alt if alt.exact else result

    def _lasso(self, program: Program, f, sigma: State) -> TransformResult:
        if self.mode != "gfp":
            raise DivergenceError("lasso decomposition needs the plain gfp mode")
        wp_part = self.wp.run(program, f, sigma)
        div = diverging_weights(program, sigma, self.algebra, self.node_budget)
        value = self.algebra.mod_add(wp_part.value, div.value)
        return TransformResult(value, wp_part.exact, wp_part.iterations,
                               wp_part.touched_states)


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
    engine = Engine(algebra, phi.direction, fuel, node_budget)
    return _apply(phi, as_weighting(algebra, invariant), sigma, engine)


def _apply(phi: CharacteristicFn, inv: Weighting, sigma: State,
           engine: Engine) -> ModuleValue:
    if not eval_bool(phi.guard, sigma):
        return phi.post.at(sigma)
    res = engine.run(phi.body, inv, sigma)
    if not res.exact:
        raise CertificationError(
            "cannot certify the characteristic-function application "
            f"(inner {phi.direction} at {sigma!r} is not exact)")
    return res.value


def _applied(loop: Program, f, invariant, states: Iterable[State], algebra: Algebra,
             fuel: int, node_budget: int, direction: Direction):
    """Per state: (state, phi(I) there, I there), with one engine for the
    whole grid."""
    phi = char_fn(loop, f, algebra, direction)
    inv = as_weighting(algebra, invariant)
    engine = Engine(algebra, direction, fuel, node_budget)
    for sigma in states:
        yield sigma, _apply(phi, inv, sigma, engine), inv.at(sigma)


@dataclass
class InvariantVerdict:
    state: State
    holds: bool


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
    return InvariantReport("super", [
        InvariantVerdict(sigma, algebra.nat_leq(applied, here))
        for sigma, applied, here in _applied(loop, f, invariant, states, algebra,
                                             fuel, node_budget, "wp")])


def check_subinvariant(loop: Program, f, invariant, states: Iterable[State],
                       algebra: Algebra, fuel: int = 64,
                       node_budget: int = 10 ** 6) -> InvariantReport:
    """Pointwise `I <= phi~(I)` with the liberal characteristic map: where it
    holds everywhere, I bounds wlp of the loop from below."""
    return InvariantReport("sub", [
        InvariantVerdict(sigma, algebra.nat_leq(here, applied))
        for sigma, applied, here in _applied(loop, f, invariant, states, algebra,
                                             fuel, node_budget, "wlp")])


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
    applied = list(_applied(loop, f, invariant, states, algebra, fuel, node_budget, "wp"))
    certain = certainly_terminates(loop, [sigma for sigma, *_ in applied], algebra, node_budget)
    return FixedPointReport([
        FixedPointVerdict(sigma, phi_i == here, terminates)
        for (sigma, phi_i, here), terminates in zip(applied, certain)])


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
    f = as_weighting(algebra, f)
    zero = as_weighting(algebra, algebra.mod_zero())
    liberal = LiberalEngine(algebra, fuel, node_budget, mode, method)
    for sigma in states:
        left = liberal.run(program, f, sigma)
        wp_part = liberal.wp.run(program, f, sigma)
        div_part = liberal.run(program, zero, sigma)
        if not (left.exact and wp_part.exact and div_part.exact):
            out.append(DecompositionVerdict(sigma, "untested"))
            continue
        rhs = algebra.mod_add(wp_part.value, div_part.value)
        out.append(DecompositionVerdict(sigma, "holds" if left.value == rhs else "fails"))
    return out
