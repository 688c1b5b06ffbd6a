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

The recursion runs over the compiled program (`syntax.compile_program`)
as compiled steps (`compile_step`), one per position, built on first use
and kept on its `Node`, the way expressions are compiled to closures
(Feeley and Lapalme 1987).  A step resolves its guard, its arms'
positions and its continuation when it is compiled; an arm's own step is
compiled when the arm is first taken, so compiling recurses no deeper
than running.  A maximal straight-line run
of assignments and `weigh`s is one step, as in large-block encoding
(Beyer et al. 2009): it applies the updates in order, evaluates each
weight at the state where it stands, multiplies the weights in program
order and scales once, since (a.b) (x) v = a (x) (b (x) v); so a long
sequence costs no recursion.  A run ends in f at TERMINATED, and inside
the evaluation of a loop state every loop head stands for the current
iterate there.  Values are memoized only where two paths meet: at the
positions lowering marks as joins, and at loop heads entered over values.

Fixed points over an infinite state space are evaluated lazily, one solve
per queried loop state (`_Solve`).  Over a fixed loop and postweighting
the characteristic map is affine in X: at each state it is a constant plus
a weighted sum of the iterate at the loop heads the body reaches.  A loop
in the body only adds unknowns, one per (inner loop, state), to that one
system.  A breadth-first sweep discovers the unknowns from the queried
state, running the body once at each and reading off that linear form
(`_Forms`); its unknowns are the ones this one reads.  An inner loop gets
a sweep of its own where it is entered.  A sweep goes on past its horizon,
fuel + 1 body-hops, while it has touched fewer than `Engine.state_cap`
unknowns, a thousandth of the node budget.  The strongly connected
components of that dependency graph (`operational.components`) are then
solved dependencies first (chaotic iteration over a topological order,
Bourdoncle 1993, where nested loops are nested components of one system)
by substituting values into the forms: an unknown outside any cycle once,
and a cyclic component for at most `fuel` passes (Tarjan 1981 and Mohri
2002 solve path problems from the same per-vertex equations).  So a loop
that certainly terminates within the cap is solved in time linear in the
unknowns it touches, whatever the fuel.  An unknown holds its form until
its component is solved, and only its value after.  The exact form of an
unknown left uncertified stays on the engine, so each loop state's body
runs once per engine and postweighting, nested loops included.
A result is reported `exact` only under a certificate:

* the state's component reached a fixed point (a full pass changed
  nothing), no unknown in it read one the sweeps did not follow, and
  every exit value and every dependency outside it was certified, so its
  values are genuine fixed-point values (for UCT loops every component is
  acyclic); such unknowns are final and later queries on the same engine
  reuse them, or
* for wlp, the lasso route: wlp(f) = wp(f) (+) wlp(zero) with the
  divergence part taken exactly from the quotient-graph analysis.

Anything else is a flagged bound: below the answer for wp, above for wlp.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Literal

from .algebra import Algebra, AlgebraError, ModuleValue, NoTopError, Weight
from .syntax import (
    TERMINATED, Assign, Branch, EvalError, ExprWeighting, FnWeighting, Ite, Node,
    Program, State, Weigh, Weighting, While, compile_program, eval_bool,
)
from .operational import (
    BudgetError, DivergenceError, certainly_terminates, check_divergence_analysis, components,
    diverging_weights,
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
    over every loop solve it made: one discovery sweep per loop entry (the
    queried state, and each entry of an inner loop that discovery met),
    plus the passes of the solve's most-iterated component (an unknown
    outside any cycle takes one pass, or none when discovery already
    settled it).  It grows neither with the number of states nor with the
    fuel.  `touched_states` counts the unknowns those solves discovered,
    inner loop states included; unknowns certified by earlier queries on
    the same engine are read, not touched again.  `evaluations` counts the
    unknowns whose body (or, where the guard fails, continuation) those
    solves ran: once per discovered unknown, and not at all for one whose
    form an earlier query on the same engine read off.
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
    """Module operations on linear forms, while an unknown is read off (see
    `_Solve`): a form maps each unknown that the read-off reads to its
    coefficient, a raw module value that sums the weights of the paths
    reaching that read.  `weigh` scales every coefficient and `[]` adds
    forms pointwise, so a compiled step computes a form just as it computes
    a value.  Every path of a read-off ends at a loop head, so the form has
    no constant part."""

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
    """One sweep of a loop; for the queried loop, also the solve.

    The unknowns of the solve are the loop heads its read-offs meet: a
    state of the queried loop, or `(node, state)` for a loop in its body.

    1. Discovery: a breadth-first sweep reads off each unknown's form once
       (see `_Forms`).  Where the guard holds, the body runs over forms.
       Where it fails, the queried loop runs its continuation over values,
       which gives the form's constant, and an inner loop runs the rest of
       the enclosing body over forms.  A read of this loop's head, or of
       one around it, joins that loop's sweep; an inner loop is entered,
       and there an inner `_Solve`, sharing this one's tables, sweeps it
       at once.  Past its horizon, fuel + 1 body-hops from its entry, a
       sweep goes on while it has touched fewer than `Engine.state_cap`
       unknowns, the node budget has room and its loop is not in
       `Engine._capped`.  A read the sweep does not follow keeps the seed,
       like the leaf of a bounded unrolling, and is never certified; so
       does an unknown past the horizon whose read-off fails, with those
       queued behind it.  Within the horizon the node budget and a failed
       read-off raise.  The queue goes once discovery ends.
    2. Component order: `operational.components` yields the components
       of the dependency graph one at a time, dependencies first and
       deepest unknown first within one; that is the Gauss-Seidel order,
       so it fixes a bound.  An unknown's dependencies are read from its
       form when the order reaches it (`_deps`); no table keeps them.
    3. Solving substitutes forms, and never runs a body again: an unknown
       outside any cycle gets const (+) sum of c (x) X(tau) over its solved
       dependencies; a cyclic component is iterated from the seed,
       Gauss-Seidel, for at most `fuel` passes.  A component is certified
       when a full pass changes nothing and every substitution in it was
       exact: no constant was inexact, no read was left at the seed and
       every dependency outside the component was itself certified.
       Each component is solved as `components` yields it, and its forms
       go then; its certified unknowns become final.

    An unknown is certified only once its whole reachable set is
    discovered, which is what the sweeps discover, each unknown once.  A
    loop whose sweep went past the horizon and was stopped there (by the
    cap, the budget or an error) joins `Engine._capped`, so later sweeps
    of it on the engine stop at the horizon.  A form does not depend on
    the horizon, the seed or what is certified, so the exact form of an
    unknown left uncertified moves to the memo when its component is
    solved, and a later solve reads it instead of running the body again.
    """

    def __init__(self, engine: "Engine", node: Node, memo: "_Memo",
                 outer: "_Solve | None" = None):
        self.engine = engine
        self.node = node
        self.memo = memo
        self.outer = outer  # the sweep whose read-off entered this loop
        self.seed = engine._seed()
        self.exit = _follow(node.next)  # where the loop goes when its guard fails
        self.horizon = engine.fuel + 1
        self.beyond = False  # whether the sweep went past the horizon
        self.queue: list = []  # this sweep's unknowns, breadth first
        self.depth = 0  # in body-hops from the entry, of the unknown read off
        if outer is None:
            self.queried, self.vals, self.exact, self.forms = node, {}, {}, {}
            self.final = memo.tables.setdefault(node, {})
            self.cache = memo.forms.setdefault(node, {})
        else:  # one system: an inner sweep fills the solve's tables
            self.queried, self.vals, self.exact = outer.queried, outer.vals, outer.exact
            self.forms, self.final, self.cache = outer.forms, outer.final, outer.cache

    def _touch(self, key, depth: int) -> None:
        """Discover `key` unless it is certified or known, or it is past the
        horizon where the sweep stops."""
        if key in self.final or key in self.vals:
            return
        if depth > self.horizon and not self._go_on():
            return
        budget = self.engine.node_budget
        if len(self.final) + len(self.vals) >= budget:
            raise BudgetError(f"loop touched more than {budget} states")
        self.vals[key] = self.seed
        self.queue.append(key)

    def _go_on(self) -> bool:
        """Whether the sweep discovers one more unknown past the horizon."""
        engine = self.engine
        if self.node in engine._capped:
            return False
        if (len(self.queue) < engine.state_cap
                and len(self.final) + len(self.vals) < engine.node_budget):
            self.beyond = True
            return True
        if self.beyond:
            engine._capped.add(self.node)
        return False

    def _meet(self, node: Node, sigma: State):
        """The unknown of the head of `node` at `sigma`, met by a read-off of
        this sweep: discovered in the sweep of that loop if it is this one
        or one around it, else entered, with a sweep of its own."""
        solve = self
        while solve.node is not node:
            solve = solve.outer
            if solve is None:  # an inner loop is entered
                key = (node, sigma)
                if key not in self.vals and key not in self.final:
                    _Solve(self.engine, node, self.memo, self)._discover(key)
                return key
        key = sigma if solve.outer is None else (node, sigma)
        solve._touch(key, solve.depth + 1)
        return key

    def _form(self, key) -> tuple:
        """The form at `key` as one flat tuple (constant, exact, unknown,
        coefficient, ...), a quarter of a dict's size for one term: left on
        the memo by an earlier solve, or read off by running the
        characteristic map once in a fresh memo whose loop heads are
        unknowns (over values where the queried loop exits)."""
        form = self.cache.get(key)
        if form is not None:
            for tau in form[2::2]:  # read by an earlier solve's run: discover here
                if type(tau) is tuple:
                    self._meet(*tau)
                else:
                    self._meet(self.queried, tau)
            return form
        engine, node = self.engine, self.node
        engine._evaluations += 1
        sigma = key if self.outer is None else key[1]
        memo = _Memo(engine, self.memo.post, engine._forms, self._meet)
        if node.guard(sigma):
            value, exact = node.then.step(sigma, memo)
        else:
            value, exact = self.exit(sigma, memo if self.outer else self.memo)
        if isinstance(value, ModuleValue):  # the queried loop exits
            return value, exact
        return (engine._forms.zero, exact, *chain.from_iterable(value.items()))

    def _deps(self, key) -> list:
        """The unknowns `key` waits on, none once it is solved: those its
        form reads that the solve discovered and has not certified, in the
        order of reading, so that the order of solving, and so an inexact
        bound, is the same every run."""
        if key in self.exact:
            return []
        return list(filter(self.vals.__contains__, self.forms[key][2::2]))

    def _substitute(self, key) -> tuple[ModuleValue, bool]:
        """The characteristic map at `key` against the current iterate."""
        form = self.forms[key]
        if len(form) == 2:  # the queried loop exits
            return form
        terms = iter(form)
        value, exact = next(terms), next(terms)
        alg = self.engine.algebra
        add, times = alg._add, alg._times
        total = value.value
        for tau, c in zip(terms, terms):  # (unknown, coefficient) pairs
            x = self.final.get(tau)
            if x is None:
                x = self.vals.get(tau)
                if x is None:  # not followed by the sweep
                    x, exact = self.seed, False
                else:
                    exact = exact and self.exact.get(tau, True)
            total = add(total, times(c, x.value))
        return ModuleValue(alg, total), exact

    def _discover(self, entry) -> None:
        """Step 1, for this sweep from `entry`: each unknown's form, and its
        value if it reads none of this solve's unknowns."""
        self._touch(entry, 0)
        self.engine._passes += 1
        queue, level_end = self.queue, 1
        for i, key in enumerate(queue):  # grows while it is walked
            if i == level_end:  # the sweep's next breadth-first level
                self.depth += 1
                level_end = len(queue)
            try:
                self.forms[key] = form = self._form(key)
                if not any(map(self.vals.__contains__, form[2::2])):  # solved already
                    self.vals[key], self.exact[key] = self._substitute(key)
            except (BudgetError, EvalError, AlgebraError):
                for tau in queue[i:]:  # the sweep stops; they keep the seed
                    self.exact[tau] = False
                if self.depth <= self.horizon:
                    raise
                self.engine._capped.add(self.node)
                break
        queue.clear()  # discovery is over

    def run(self, root: State) -> tuple[ModuleValue, bool]:
        """The value at `root` and whether it is certified (steps 1 to 3).
        Certified unknowns become final."""
        self._discover(root)
        vals, exact, forms, final = self.vals, self.exact, self.forms, self.final
        self.engine._touched += len(vals)
        longest = 0
        for component in [[root]] if root in exact else components([root], self._deps):
            key = component[0]
            if key in exact:  # solved when read off, or left at the seed
                certified = exact.pop(key)
            elif len(component) > 1 or key in forms[key][2::2]:  # cyclic
                passes, certified = self._iterate(component)
                longest = max(longest, passes)
            else:
                vals[key], certified = self._substitute(key)
                longest = longest or 1
            for key in component:  # solved: keep the value, not the form
                form = forms.pop(key, None)
                if certified:
                    final[key] = vals.pop(key)
                else:  # a later solve may meet it again
                    exact[key] = False
                    if form is not None and form[1]:
                        self.cache[key] = form
        self.engine._passes += longest
        return (final[root], True) if root in final else (vals[root], False)

    def _iterate(self, component: list) -> tuple[int, bool]:
        """Gauss-Seidel passes over a cyclic component, at most `fuel`: the
        pass count, and whether the last pass changed nothing with every
        substitution exact."""
        vals = self.vals
        for passes in range(1, self.engine.fuel + 1):
            changed, exact = False, True
            for key in component:
                value, ex = self._substitute(key)
                exact = exact and ex
                if value != vals[key]:
                    vals[key], changed = value, True
            if not changed:
                return passes, exact
        return self.engine.fuel, False


class _Memo:
    """Evaluation context: the engine, the module operations (the
    algebra's, or `_Forms` while a form is read off), the unknown a loop
    head stands for while a form is read off (`read`, the sweep's `_meet`,
    else None), the values at the joins entered (see `compile_step`), and,
    keyed on each queried loop's node, its certified unknowns and the forms
    read off its unknowns.

    Each read-off gets a fresh memo, because every read of a loop head
    must be recorded.  The top-level memo of a postweighting persists on
    the engine: a certified value is a fixed-point value whatever state
    its query started from, and an exact form is the body's one run at its
    unknown, so later queries read those instead of solving or running the
    body again.
    """

    __slots__ = ("engine", "post", "ops", "read", "values", "tables", "forms")

    def __init__(self, engine: "Engine", post: Weighting, ops, read=None):
        self.engine = engine
        self.post = post
        self.ops = ops
        self.read = read
        self.values: dict[tuple[Node, State], tuple[ModuleValue, bool]] = {}
        self.tables: dict[Node, dict] = {}
        self.forms: dict[Node, dict] = {}


class Engine:
    """A wp or wlp evaluator over one algebra, reusable across states.  It
    runs the compiled steps of each program object's one graph
    (`compile_program`, `compile_step`) and keys what it keeps between runs
    on that graph's nodes: the values at joins and loop heads, and each
    queried loop's certified unknowns and forms."""

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
            memo = self._memos[f] = _Memo(self, as_weighting(self.algebra, f), self.algebra)
        self._passes = self._touched = self._evaluations = 0
        value, exact = compile_program(program).step(sigma, memo)
        return TransformResult(value, exact, self._passes, self._touched,
                               self._evaluations)

    # -- loops ---------------------------------------------------------------
    def _seed(self) -> ModuleValue:
        if self.direction == "wp":
            return self.algebra.mod_zero()
        if self.seed_one:
            return self.algebra.module_one()
        return self.algebra.top()  # may raise NoTopError; that is the contract

    def _loop(self, node: Node, sigma: State, memo: _Memo) -> tuple[ModuleValue, bool]:
        """A loop head over values: its certified value, else a solve."""
        final = memo.tables.setdefault(node, {}).get(sigma)
        if final is not None:
            return final, True
        return _Solve(self, node, memo).run(sigma)


# ---------------------------------------------------------------------------
# Compiled steps
# ---------------------------------------------------------------------------

def compile_step(node: Node):
    """The step of a position, `(state, memo) -> (value, exact)`: the value
    there over the memo's operations, with its expressions run as the
    node's closures (`Node.guard`, `rhs`, `weight`).  `Node.step` builds it
    on first use.  The step of a join first looks in the memo."""
    cls = node.stmt.__class__
    if cls is While:
        def loop(sigma, memo):
            if memo.read is not None:  # a form is read off: the unit form of an unknown
                return {memo.read(node, sigma): memo.ops.unit}, True
            return memo.engine._loop(node, sigma, memo)
        return loop
    if cls is Ite:
        guard, then, orelse = node.guard, node.then, node.orelse

        def step(sigma, memo):
            return (then if guard(sigma) else orelse).step(sigma, memo)
    elif cls is Branch:
        then, orelse = node.then, node.orelse
        if then is orelse:  # equal arms share one lowering: run it once
            def step(sigma, memo):
                value, exact = then.step(sigma, memo)
                return memo.ops.mod_add(value, value), exact
        else:
            def step(sigma, memo):
                lv, le = then.step(sigma, memo)
                rv, re_ = orelse.step(sigma, memo)
                return memo.ops.mod_add(lv, rv), le and re_
    elif cls is Assign or cls is Weigh:
        step = _run(node)
    else:
        raise TypeError(f"not a program node: {node.stmt!r}")
    if not node.join:
        return step

    def joined(sigma, memo):
        key = (node, sigma)
        hit = memo.values.get(key)
        if hit is None:
            hit = memo.values[key] = step(sigma, memo)
        return hit
    return joined


def _run(node: Node):
    """One step for the maximal run of assignments and `weigh`s from
    `node`, up to the first join, loop head or branching position."""
    actions = []  # (variable, rhs) of an assignment, (None, weight) of a weigh
    while True:
        stmt = node.stmt
        actions.append((stmt.var, node.rhs) if stmt.__class__ is Assign else (None, node.weight))
        node = node.next
        if node is TERMINATED or node.join or node.stmt.__class__ not in (Assign, Weigh):
            break
    follow = _follow(node)

    def run(sigma, memo):
        algebra, weight = memo.engine.algebra, None
        for var, fn in actions:
            if var is not None:
                sigma = sigma.set(var, fn(sigma))
            elif weight is None:
                weight = fn(sigma, algebra)
            else:  # in program order: (a.b) (x) v = a (x) (b (x) v)
                weight = algebra.mon_mul(weight, fn(sigma, algebra))
        value, exact = follow(sigma, memo)
        if weight is None:
            return value, exact
        return memo.ops.scalar_mul(weight, value), exact
    return run


def _post(sigma: State, memo: _Memo) -> tuple[ModuleValue, bool]:
    return memo.post.at(sigma), True


def _follow(node):
    """How a `next` link enters `node`: the postweighting after the last
    statement, the unit form of a loop head's unknown while a form is read
    off, a loop head memoized over values, else the node's step, compiled
    now (a step compiles no arm, so this recursion stays shallow)."""
    if node is TERMINATED:
        return _post
    if node.stmt.__class__ is While:
        def head(sigma, memo):
            if memo.read is not None:
                return {memo.read(node, sigma): memo.ops.unit}, True
            key = (node, sigma)
            hit = memo.values.get(key)
            if hit is None:
                hit = memo.values[key] = memo.engine._loop(node, sigma, memo)
            return hit
        return head
    return node.step


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
