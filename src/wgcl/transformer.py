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
per queried loop state (`_Solve`).  Over a fixed loop and postweighting
the characteristic map is affine in X: at each state it is a constant plus
a weighted sum of the iterate at the states the body reaches.  One
breadth-first sweep discovers those states from the queried one, running
the body once at each and reading off that linear form (`_Forms`); its
states are the ones this state reads.  The sweep goes on past the horizon,
fuel + 1 body-hops, while it has touched fewer than `Engine.state_cap`
loop states, a thousandth of the node budget.  The strongly connected
components of that dependency graph (`operational.components`) are then
solved dependencies first (chaotic iteration over a topological order,
Bourdoncle 1993) by substituting values into the forms: a state outside
any cycle once, and a cyclic component for at most `fuel` passes (Tarjan
1981 and Mohri 2002 solve path problems from the same per-vertex
equations).  So a loop that certainly terminates within the cap is solved
in time linear in the states it touches, whatever the fuel.  The exact
form of a state left uncertified stays on the engine, so each loop state's
body runs once per engine and postweighting; a loop whose body contains a
loop runs it again instead.
A result is reported `exact` only under a certificate:

* the state's component reached a fixed point (a full pass changed
  nothing), no state in it read a state the sweep did not follow, and
  every inner result and every dependency outside it was certified, so
  its values are genuine fixed-point values (for UCT loops every
  component is acyclic);
  such states are final and later queries on the same engine reuse them,
  or
* for wlp, the lasso route: wlp(f) = wp(f) (+) wlp(zero) with the
  divergence part taken exactly from the quotient-graph analysis.

Anything else is a flagged bound: below the answer for wp, above for wlp.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal

from .algebra import Algebra, AlgebraError, ModuleValue, NoTopError, Weight
from .syntax import (
    TERMINATED, Assign, Branch, EvalError, ExprWeighting, FnWeighting, Ite, Node,
    Program, State, Weigh, Weighting, While, compile_program, eval_bool,
)
from .operational import (
    BudgetError, DivergenceError, certainly_terminates, check_divergence_analysis, components,
    cyclic, diverging_weights,
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
    sweep per solve, plus the passes of its most-iterated component (a
    state outside any cycle takes one pass, or none when discovery already
    settled it).  It grows neither with the number of states nor with the
    fuel.  `touched_states` counts the states those solves discovered;
    states certified by earlier queries on the same engine are read, not
    touched again.  `evaluations` counts the loop states whose body (or,
    where the guard fails, continuation) those solves ran: once per
    discovered state, and not at all for a state whose form an earlier
    query on the same engine read off.  A loop whose body contains a loop
    runs it again at every substitution.
    """

    value: ModuleValue
    exact: bool
    iterations: int = 0
    touched_states: int = 0
    evaluations: int = 0


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

class _Forms:
    """Module operations on linear forms, while a loop state's body is read
    off: a form maps each state of the loop that the body reads to its
    coefficient, a raw module value that sums the weights of the paths
    reaching that read.  `weigh` scales every coefficient and `[]` adds
    forms pointwise, so `Engine._eval` computes a form just as it computes
    a value.  A loop body runs back to the loop's own node on every path,
    so the form has no constant part."""

    def __init__(self, algebra: Algebra):
        self._add = algebra._add
        self._scale = algebra._scale
        self.unit = algebra._module_one()  # the coefficient of a read
        self.zero = algebra.mod_zero()  # a body form's constant

    def scalar_mul(self, a: Weight, form: dict) -> dict:
        out, scale, a = {}, self._scale, a.value
        for tau, c in form.items():  # a loop: a comprehension costs a frame
            out[tau] = scale(a, c)
        return out

    def mod_add(self, f: dict, g: dict) -> dict:
        out, add = dict(f), self._add
        for tau, c in g.items():
            out[tau] = add(out[tau], c) if tau in out else c
        return out


class _Solve:
    """One solve of a loop from a queried state.

    1. Discovery: a breadth-first sweep from the queried state reads off
       each state's form once: the characteristic map there as a constant
       plus a coefficient for every state of this loop that it reads (see
       `_Forms`).  A guard that fails gives the constant alone.  The read
       states it has not met before join the sweep.  Past the horizon,
       fuel + 1 body-hops from the queried state, the sweep goes on while
       the solve has touched fewer than `Engine.state_cap` states, the
       node budget has room and the loop is not in `Engine._capped`.  A
       read the sweep does not follow keeps the seed, like the leaf of a
       bounded unrolling, and is never certified; so does a state past the
       horizon whose read-off fails, with the states queued behind it.
       Within the horizon the node budget and a failed read-off raise.
    2. Component order: `operational.components` orders the components
       of the dependency graph, dependencies first and deepest state first
       within one; that is the Gauss-Seidel order, so it fixes a bound.
    3. Solving substitutes forms, and never runs a body again: a state
       outside any cycle gets const (+) sum of c (x) X(tau) over its solved
       dependencies; a cyclic component is iterated from the seed,
       Gauss-Seidel, for at most `fuel` passes.  A component is certified
       when a full pass changes nothing and every substitution in it was
       exact: no inner result was inexact, no read was left at the seed
       and every dependency outside the component was itself certified.
       Certified states are final.

    A state is certified only once its whole reachable set is discovered,
    which is what the one sweep discovers, each state once.  A loop whose
    sweep went past the horizon and was stopped there (by the cap, the
    budget or an error) joins `Engine._capped`, so later solves of it on
    the engine stop at the horizon.

    A form does not depend on the horizon, the seed or what is certified.
    So where the solve leaves a state uncertified, its form, if exact,
    stays on the memo, and a later solve of the same loop reads it instead
    of running the body again (a certified state is final and is never
    solved again).  A loop whose body contains a loop (`Node.nested`) is
    the exception: there the inner solve reads this loop's iterate, so
    the body runs over values, once in discovery and again at every
    substitution.
    """

    def __init__(self, engine: "Engine", node: Node, memo: "_Memo"):
        self.engine = engine
        self.node = node
        self.memo = memo
        self.final = memo.tables[node]
        self.cache = memo.forms.setdefault(node, {})
        self.unit = engine._forms.unit
        self.seed = engine._seed()
        self.horizon = engine.fuel + 1
        self.beyond = False  # whether the sweep went past the horizon
        self.vals: dict[State, ModuleValue] = {}
        self.exact: dict[State, bool] = {}
        self.depth: dict[State, int] = {}
        # the states each state reads that this solve discovered and has
        # not certified, in the order of reading (a dict, not a set), so
        # that the order of solving, and so an inexact bound, is the same
        # every run
        self.deps: dict[State, dict[State, None]] = {}
        self.queue: list[State] = []
        self.discovering = True
        self.current_depth = 0
        self.forms: dict[State, tuple[ModuleValue, dict, bool]] = {}
        self.reads: dict[State, None] = {}  # of a nested loop's body run

    def _touch(self, sigma: State, depth: int) -> None:
        """Discover `sigma` unless discovery is over, it is certified or
        known, or it is past the horizon where the sweep stops."""
        if not self.discovering or sigma in self.final or sigma in self.vals:
            return
        if depth > self.horizon and not self._go_on():
            return
        budget = self.engine.node_budget
        if len(self.final) + len(self.vals) >= budget:
            raise BudgetError(f"loop touched more than {budget} states")
        self.vals[sigma] = self.seed
        self.depth[sigma] = depth
        self.queue.append(sigma)

    def _go_on(self) -> bool:
        """Whether the sweep discovers one more state past the horizon."""
        engine = self.engine
        if self.node in engine._capped:
            return False
        if (len(self.depth) < engine.state_cap
                and len(self.final) + len(self.vals) < engine.node_budget):
            self.beyond = True
            return True
        if self.beyond:
            engine._capped.add(self.node)
        return False

    def _unit(self, sigma: State) -> tuple[dict, bool]:
        """A read of the iterate while a form is read off: the unit form of
        `sigma`, discovered in read order as a read of a value would be."""
        self._touch(sigma, self.current_depth + 1)
        return {sigma: self.unit}, True

    def read(self, sigma: State) -> tuple[ModuleValue, bool]:
        """The iterate at `sigma`, as a body run over values sees it."""
        self._touch(sigma, self.current_depth + 1)
        if sigma in self.final:
            return self.final[sigma], True
        self.reads[sigma] = None
        if sigma not in self.vals:
            return self.seed, False  # not followed by the sweep
        return self.vals[sigma], self.exact.get(sigma, True)

    def _run(self, sigma: State, ops, read):
        """The characteristic map at `sigma`, run once in a fresh memo whose
        reads of the iterate go to `read`: the continuation's value where
        the guard fails, else the body's, combined by `ops`."""
        engine, node = self.engine, self.node
        engine._evaluations += 1
        self.current_depth = self.depth[sigma]
        if node.guard(sigma):
            return engine._eval(node.then, sigma, _Memo(self.memo.post, ops, node, read))
        return engine._next(node.next, sigma, self.memo)

    def _form(self, sigma: State) -> tuple[ModuleValue, dict, bool]:
        """The form at `sigma`, (constant, {state: coefficient}, exact):
        read off, or left on the memo by an earlier solve."""
        form = self.cache.get(sigma)
        if form is None:
            value, exact = self._run(sigma, self.engine._forms, self._unit)
            if isinstance(value, ModuleValue):  # the guard failed
                return value, {}, exact
            return self.engine._forms.zero, value, exact
        depth = self.depth[sigma] + 1
        for tau in form[1]:  # read by an earlier solve's run: discover here
            self._touch(tau, depth)
        return form

    def _substitute(self, sigma: State) -> tuple[ModuleValue, bool]:
        """The characteristic map at `sigma` against the current iterate; a
        nested loop runs its body again."""
        if self.node.nested:
            self.reads = {}
            return self._run(sigma, self.engine.algebra, self.read)
        value, coefs, exact = self.forms[sigma]
        if not coefs:
            return value, exact
        alg = self.engine.algebra
        add, times = alg._add, alg._times
        total = value.value
        for tau, c in coefs.items():
            x = self.final.get(tau)
            if x is None:
                x = self.vals.get(tau)
                if x is None:  # not followed by the sweep
                    x, exact = self.seed, False
                else:
                    exact = exact and self.exact.get(tau, True)
            total = add(total, times(c, x.value))
        return ModuleValue(alg, total), exact

    def _read_off(self, sigma: State) -> None:
        """Discovery at `sigma`: the states it reads, and its value if it
        reads none of this solve's."""
        nested = self.node.nested
        if nested:
            value, exact = self._substitute(sigma)
            reads = self.reads
        else:
            self.forms[sigma] = form = self._form(sigma)
            reads = form[1]
        self.deps[sigma] = deps = dict.fromkeys(filter(self.vals.__contains__, reads))
        if not deps:  # solved already
            if not nested:
                value, exact = self._substitute(sigma)
            self.vals[sigma], self.exact[sigma] = value, exact

    def _discover(self) -> None:
        """Step 1."""
        self.engine._passes += 1
        queue = self.queue
        for i, sigma in enumerate(queue):  # grows while it is walked
            try:
                self._read_off(sigma)
            except (BudgetError, EvalError, AlgebraError):
                if self.depth[sigma] <= self.horizon:
                    raise
                self.engine._capped.add(self.node)
                for tau in queue[i:]:  # the sweep stops; they keep the seed
                    self.exact[tau], self.deps[tau] = False, {}
                break
        self.discovering = False

    def run(self, root: State) -> tuple[ModuleValue, bool]:
        """The value at `root` and whether it is certified (steps 1 to 3).
        Certified states become final."""
        self._touch(root, 0)
        self._discover()
        longest = 0
        for component in components([root], self.deps):
            if not cyclic(component, self.deps):
                sigma = component[0]
                if sigma not in self.exact:
                    self.vals[sigma], self.exact[sigma] = self._substitute(sigma)
                    longest = max(longest, 1)
                continue
            passes, certified = self._iterate(component)
            longest = max(longest, passes)
            for sigma in component:
                self.exact[sigma] = certified
        engine = self.engine
        engine._passes += longest
        engine._touched += len(self.depth)
        for sigma, certified in self.exact.items():
            if certified:
                self.final[sigma] = self.vals[sigma]
            else:  # a later solve may meet it again
                form = self.forms.get(sigma)
                if form is not None and form[2]:
                    self.cache[sigma] = form
        return self.vals[root], self.exact[root]

    def _iterate(self, component: list[State]) -> tuple[int, bool]:
        """Gauss-Seidel passes over a cyclic component, at most `fuel`: the
        pass count, and whether the last pass changed nothing with every
        substitution exact."""
        vals = self.vals
        passes = 0
        while passes < self.engine.fuel:
            passes += 1
            changed = False
            exact = True
            for sigma in component:
                value, ex = self._substitute(sigma)
                exact = exact and ex
                if value != vals[sigma]:
                    vals[sigma] = value
                    changed = True
            if not changed:
                return passes, exact
        return passes, False


class _Memo:
    """Evaluation context: the module operations (the algebra's, or
    `_Forms` while a form is read off), what reaching TERMINATED or the
    running loop means, the values of positions entered through a `next`
    link, and, keyed on each loop's node, its certified states and the
    forms read off its states.

    Each run of a loop state's body gets a fresh memo whose `read` reads
    the solve's iterate, because everything in it may depend on the
    iterate and every read must be recorded.  The top-level memo of a
    postweighting persists on the engine: a certified value is a
    fixed-point value whatever state its query started from, and an exact
    form is the body's one run at its state, so later queries read the
    values of certified states and the forms of uncertified ones instead
    of solving or running the body again.
    """

    def __init__(self, post: Weighting, ops, loop: Node | None = None, read=None):
        self.post = post
        self.ops = ops
        self.loop = loop
        self.read = read
        self.values: dict[tuple[Node, State], tuple[ModuleValue, bool]] = {}
        self.tables: dict[Node, dict[State, ModuleValue]] = {}
        self.forms: dict[Node, dict[State, tuple[ModuleValue, dict, bool]]] = {}


class Engine:
    """A wp or wlp evaluator over one algebra, reusable across states.  It
    walks each program object's one graph (`compile_program`) and keys what
    it keeps between runs on that graph's nodes."""

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
        self._memos: dict[object, _Memo] = {}  # keyed on the postweighting as passed
        self._forms = _Forms(algebra)
        self.state_cap = node_budget // 1000  # states a sweep past the horizon may reach
        self._capped: set[Node] = set()  # loops whose sweep was stopped past the horizon
        self._passes = 0
        self._touched = 0
        self._evaluations = 0

    # -- public -------------------------------------------------------------
    def run(self, program: Program, f, sigma: State) -> TransformResult:
        memo = self._memos.get(f)
        if memo is None:
            memo = self._memos[f] = _Memo(as_weighting(self.algebra, f), self.algebra)
        self._passes = self._touched = self._evaluations = 0
        value, exact = self._eval(compile_program(program), sigma, memo)
        return TransformResult(value, exact, self._passes, self._touched,
                               self._evaluations)

    # -- recursion over positions -----------------------------------------------
    def _next(self, node, sigma: State, memo: _Memo) -> tuple[ModuleValue, bool]:
        """The value at a position entered through a `next` link: the
        postweighting after the last statement, the iterate at the loop
        whose pass is running, memoized everywhere else."""
        if node is TERMINATED:
            return memo.post.at(sigma), True
        if node is memo.loop:
            return memo.read(sigma)
        hit = memo.values.get((node, sigma))
        if hit is None:
            hit = memo.values[(node, sigma)] = self._eval(node, sigma, memo)
        return hit

    def _eval(self, node: Node, sigma: State, memo: _Memo) -> tuple[ModuleValue, bool]:
        """The value at a position, by its statement: expressions run as
        the node's compiled closures (`Node.guard`, `rhs`, `weight`)."""
        stmt = node.stmt
        if isinstance(stmt, Assign):
            return self._next(node.next, sigma.set(stmt.var, node.rhs(sigma)), memo)
        if isinstance(stmt, Weigh):
            w = node.weight(sigma, self.algebra)
            value, exact = self._next(node.next, sigma, memo)
            return memo.ops.scalar_mul(w, value), exact
        if isinstance(stmt, Ite):
            chosen = node.then if node.guard(sigma) else node.orelse
            return self._eval(chosen, sigma, memo)
        if isinstance(stmt, Branch):
            lv, le = self._eval(node.then, sigma, memo)
            rv, re_ = self._eval(node.orelse, sigma, memo)
            return memo.ops.mod_add(lv, rv), le and re_
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
    shares their certified loop states.  The lasso needs an exact
    divergence analysis; on counting, prob and lang it raises
    `DivergenceError` before it runs anything, and `auto` keeps the chain.
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
            alt = self._lasso(program, f, sigma, exact_only=True)
        except (DivergenceError, BudgetError, NoTopError):
            return result
        return alt if alt.exact else result

    def _lasso(self, program: Program, f, sigma: State,
               exact_only: bool = False) -> TransformResult:
        """wp(f) (+) wlp(zero); with `exact_only`, an inexact wp part is
        returned as it is, without the divergence part, since the sum
        would be inexact too."""
        if self.mode != "gfp":
            raise DivergenceError("lasso decomposition needs the plain gfp mode")
        check_divergence_analysis(self.algebra)  # before the wp part runs
        wp_part = self.wp.run(program, f, sigma)
        if exact_only and not wp_part.exact:
            return wp_part
        div = diverging_weights(program, sigma, self.algebra, self.node_budget)
        value = self.algebra.mod_add(wp_part.value, div.value)
        return TransformResult(value, wp_part.exact, wp_part.iterations,
                               wp_part.touched_states, wp_part.evaluations)


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
