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
(Feeley and Lapalme 1987); a state is a key over the program's variable
slots (`syntax.pack`), packed once per query.  A maximal straight-line run
of assignments and `weigh`s is one step, as in large-block encoding
(Beyer et al. 2009), so a long sequence costs no recursion.  Outside any
loop body a step runs over raw carrier values with the `Engine` as its
context and memoizes values for the rest of the query where two paths
meet (the joins lowering marks, each loop head among them); inside a
loop body it is a form step, which reads each loop head as an unknown.

Fixed points over an infinite state space are evaluated lazily, one solve
per queried loop state (`_Solve`).  Over a fixed loop and postweighting
the characteristic map is affine in X: at each state it is a constant plus
a weighted sum of the iterate at the loop heads the body reaches, and a
loop in the body only adds unknowns to that one system.  A breadth-first
sweep reads off each unknown's linear form once, and goes on past its
horizon, fuel + 1 body-hops, while it has touched fewer than
`Engine.state_cap` unknowns.  It numbers each state after the reader that
first met it, and hands the numbered forms to `operational.solve`, the
path oracle's system solve too (Tarjan 1981 and Mohri 2002 solve path
problems from the same per-vertex equations).  There one pass back down
the numbers solves the acyclic part of the system, one substitution per
unknown in topological order.  Only what that pass leaves, the cycles and
whatever reads them or reads back, goes to the strongly connected
components of the dependency graph (`operational.components`), solved
dependencies first (chaotic iteration, Bourdoncle 1993) by
`operational.settle`: an unknown off any cycle once, a cyclic component
for at most `fuel` passes.  So a loop that certainly terminates within
the cap is solved in time linear in the unknowns it touches, whatever the
fuel; only certified values outlive the solve.
A result is reported `exact` only under a certificate:

* the state's component reached a fixed point (a full pass changed
  nothing), and every read in it was certified: no unknown in it read
  one the sweeps did not follow, and every exit value and every
  dependency outside it was certified, or the read's coefficient c
  annihilates, c (x) top = zero, so that c (x) x is zero whatever it
  reads (`operational.right_side`, the oracle's right-hand side too; a
  run over values applies the same rule to its weight).  Its values are
  then genuine fixed-point values (for UCT loops every component is
  acyclic); such unknowns are final and later queries on the same
  engine reuse them, or
* for wlp, the lasso route: wlp(f) = wp(f) (+) wlp(zero) with the
  divergence part taken exactly from the quotient-graph analysis.

Anything else is a flagged bound: below the answer for wp, above for wlp.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, Literal

from ._record import record
from .algebra import Algebra, AlgebraError, ModuleValue, NoTopError
from .syntax import (
    TERMINATED, Assign, Branch, EvalError, ExprWeighting, FnWeighting, Ite, Node,
    Program, State, Weigh, Weighting, While, compile_program, eval_bool,
)
from .operational import (
    BudgetError, DivergenceError, annihilates, certainly_terminates,
    check_divergence_analysis, diverging_weights, right_side, solve,
)


class CertificationError(Exception):
    """An invariant check hit an inner result it could not certify."""


class NotALoopError(Exception):
    pass


Direction = Literal["wp", "wlp"]


@record
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
    solves ran: once per discovered unknown.
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

class _Solve:
    """One sweep of a loop; for the queried loop, also the solve.

    The unknowns of the solve are the loop heads its read-offs meet: the
    states of the queried loop and of each loop in its body.  Each gets a
    dense number when a read-off first meets it (`_number`), and the solve
    keeps one entry per number in lists that its sweeps share: the state
    (`keys`), the loop's tables (`homes`), the raw value (`vals`), whether
    that value is certain (`exact`, None while it is unsolved), the form
    (`forms`, until it is solved) and whether a sweep
    discovered it (`found`).  Every entry holds a value from the moment it
    is numbered, and there are three kinds:

    * a discovered unknown: the seed, exact None, found;
    * a read the sweeps did not follow, past a horizon: the seed, exact
      False, not found, until a later entry follows it and it becomes a
      discovered unknown;
    * a read of a state that an earlier query certified (in the engine's
      final tables, the solve's context): its final value, exact True,
      not found.

    Only discovered unknowns are solved; the other two are read as they
    are.  A form is one flat tuple (constant, exact, number, coefficient,
    ...): the body's form steps (see `compile_step`) append each read of a
    loop head to the sweep's `out` as a (number, coefficient) pair, in
    reading order, with duplicates merged in place at a join and when the
    read-off ends (`_summed`).

    1. Discovery: a breadth-first sweep reads off each unknown's form once.
       Where the guard holds, the body's form steps run.  Where it fails,
       the queried loop runs its continuation's value step, whose (raw
       value, exact) is the form, a constant, and an inner loop runs the
       rest of the enclosing body's form steps.  A read of this loop's
       head, or of one around it, joins that loop's sweep; an inner loop
       is entered, and there an inner `_Solve`, sharing this one's lists,
       sweeps it at once.  Past its horizon, fuel + 1 body-hops from its
       entry, a sweep goes on while it has touched fewer than
       `Engine.state_cap` unknowns, the node budget has room and its loop
       is not in `Engine._capped`.  A read the sweep does not follow keeps
       the seed, like the leaf of a bounded unrolling, and is never
       certified; so does an unknown past the horizon whose read-off
       fails, with those queued behind it.  Within the horizon the node
       budget and a failed read-off raise.  The node budget counts the
       unknowns this solve discovered.  An unknown whose form reads only
       certified states, or nothing, is solved when it is read off; every
       other one waits for step 2, even one whose reads are all unfollowed
       so far, since a later entry may follow them.
    2. Back substitution, only if discovery left an unknown unsolved, and
       with steps 3 and 4 made by `operational.solve` over the solve's
       lists: one pass down the numbers, from the last to the root's
       (the first), solves each unknown whose reads all hold a value
       with one substitution of its row (`row`, `operational.right_side`
       over the solve's lists and `Algebra._times`).  Breadth first, a
       read of a new state numbers it after its reader, so on an acyclic
       system the pass meets each unknown after all it reads (a
       triangular system), and one substitution each solves it.
    3. Component order, only if the root is still unsolved:
       `operational.components` yields the components of the dependency
       graph over the unsolved unknowns one at a time, dependencies first
       and deepest unknown first within one; that is the Gauss-Seidel
       order, so it fixes a bound.  An unknown's dependencies, its
       unsolved reads in the order of reading, are read from its form
       when the order reaches it; no table keeps them.  The order holds
       what step 2 left: the cycles, and the unknowns that read one of
       them or a back read, an unsolved unknown numbered before its
       reader.  Entries that were never discovered hold a value and are
       in no component.
    4. Solving substitutes rows (`row`), and never runs a body again:
       `operational.settle` solves each component as `components` yields
       it.  An unknown outside any cycle gets const (+) sum of
       c (x) X(tau) over the entries it reads; a cyclic component is
       iterated from the seed, Gauss-Seidel, for at most `fuel` passes.
       A component is certified when a full pass changes nothing and
       every substitution in it was exact: no constant was inexact, and
       each read left at the seed, or of a dependency outside the
       component that was not certified, had a coefficient that
       annihilates.

    A form is dropped once its unknown is solved, at read-off or in steps
    2 to 4, and a certified unknown goes to its loop's final table: at
    read-off, where its value is a fixed-point value whatever becomes of
    the rest of the query, or after `operational.solve`.  Undiscovered
    entries never go there.

    An unknown is certified only once its whole reachable set is
    discovered, which is what the sweeps discover, each unknown once.  A
    loop whose sweep went past the horizon and was stopped there (by the
    cap, the budget or an error) joins `Engine._capped`, so later sweeps
    of it on the engine stop at the horizon.
    """

    __slots__ = ("engine", "node", "outer", "exit", "horizon", "beyond", "queue", "depth",
                 "out", "joins", "algebra", "top", "seed", "unit", "keys", "homes", "vals",
                 "exact", "forms", "found", "loops", "count", "home", "ids", "row")

    def __init__(self, engine: "Engine", node: Node, outer: "_Solve | None" = None):
        self.engine = engine
        self.node = node
        self.outer = outer  # the sweep whose read-off entered this loop
        self.exit = _follow(node.next, node.in_body)  # where the loop goes when its guard fails
        self.horizon = engine.fuel + 1
        self.beyond = False  # whether the sweep went past the horizon
        self.queue: list = []  # this sweep's unknowns, breadth first
        self.depth = 0  # in body-hops from the entry, of the unknown read off
        self.joins: dict = {}  # the read-off's pairs from each join it entered
        if outer is None:
            self.algebra = engine.algebra
            self.top = self
            if engine.direction == "wp":
                self.seed = engine._zero
            elif engine.seed_one:
                self.seed = engine._unit
            else:  # may raise NoTopError; that is the contract
                self.seed = self.algebra._top()
            self.unit = engine._unit
            self.keys, self.homes, self.vals, self.exact, self.forms = [], [], [], [], []
            self.row = partial(right_side, self.vals, self.exact, self.forms, self.algebra,
                               self.algebra._times)  # an unknown's (value, exact) by number
            self.found = bytearray()
            self.loops: dict = {}  # per loop node: (numbers, final table)
            self.count = 0  # the unknowns discovered
        else:  # one system: an inner sweep numbers into the solve's lists
            top = self.top = outer.top
            self.algebra, self.seed, self.unit = top.algebra, top.seed, top.unit
            self.keys, self.homes, self.vals, self.exact, self.forms, self.found = (
                top.keys, top.homes, top.vals, top.exact, top.forms, top.found)
        self.home = self.top._home(node)
        self.ids = self.home[0]

    def _home(self, node: Node) -> tuple:
        """The tables of a loop of the system: its numbers for this solve,
        and its final table, on the engine."""
        home = self.loops.get(node)
        if home is None:
            home = self.loops[node] = ({}, self.engine._finals.setdefault(node, {}))
        return home

    def _number(self, sigma: tuple, value, exact) -> int:
        """A new number for this loop's entry at `sigma`, holding `value` and
        `exact`, not discovered."""
        i = self.ids[sigma] = len(self.keys)
        self.keys.append(sigma)
        self.homes.append(self.home)
        self.vals.append(value)
        self.exact.append(exact)
        self.forms.append(None)
        self.found.append(0)
        return i

    def _touch(self, sigma: tuple, depth: int) -> int:
        """The number of this loop's entry at `sigma`, discovered unless it
        is known: discovered or certified (see `_reach`)."""
        i = self.ids.get(sigma)
        if i is not None and (self.found[i] or self.exact[i]):
            return i
        return self._reach(sigma, depth, i)

    def _reach(self, sigma: tuple, depth: int, i: int | None) -> int:
        """The number of this loop's entry at `sigma`, not known yet (`i` is
        None, or the number of a read met before past a horizon): a
        certified state's entry, else the unknown, discovered unless it is
        past the horizon where the sweep stops."""
        if i is None:
            final = self.home[1].get(sigma)
            if final is not None:
                return self._number(sigma, final, True)
        if depth > self.horizon and not self._go_on():
            return self._number(sigma, self.seed, False) if i is None else i
        top, budget = self.top, self.engine.node_budget
        if top.count >= budget:
            raise BudgetError(f"loop touched more than {budget} states")
        top.count += 1
        if i is None:
            i = self._number(sigma, self.seed, None)
        else:  # met before past a horizon, and followed now
            self.exact[i] = None
        self.found[i] = 1
        self.queue.append(i)
        return i

    def _go_on(self) -> bool:
        """Whether the sweep discovers one more unknown past the horizon."""
        engine = self.engine
        if self.node in engine._capped:
            return False
        if len(self.queue) < engine.state_cap and self.top.count < engine.node_budget:
            self.beyond = True
            return True
        if self.beyond:
            engine._capped.add(self.node)
        return False

    def _meet(self, node: Node, sigma: tuple) -> int:
        """The number of the head of `node` at `sigma`, met by a read-off of
        this sweep: discovered in the sweep of that loop if it is this one
        or one around it, else entered, with a sweep of its own."""
        solve = self
        while solve.node is not node:
            solve = solve.outer
            if solve is None:  # an inner loop is entered
                return _Solve(self.engine, node, self)._discover(sigma)
        return solve._touch(sigma, solve.depth + 1)

    def _form(self, i: int) -> tuple:
        """The form of unknown `i`, read off by running the characteristic
        map once, its loop heads read as unknowns (a constant, over values,
        where the queried loop exits)."""
        self.engine._evaluations += 1
        sigma, node = self.keys[i], self.node
        if node.guard(sigma):
            step = node.then.step
        elif self.outer is None:  # the queried loop exits
            return self.exit(sigma, self.engine)
        else:
            step = self.exit
        self.out = out = []  # the read-off's (number, coefficient) pairs
        self.joins.clear()
        step(sigma, self)
        reads = out[::2]
        if len(set(reads)) < len(reads):
            out = _summed(self.algebra._add, zip(reads, out[1::2]))
        return (self.engine._zero, True, *out)

    def _discover(self, entry: tuple) -> int:
        """Step 1, for this sweep from `entry`: each unknown's form, and its
        value if the form reads only certified states (`right_side`).  The
        entry's number (see `_touch`); a sweep is counted only where the
        entry is discovered."""
        r = self._touch(entry, 0)
        queue = self.queue
        if not queue:  # known in this solve, or certified
            return r
        self.engine._passes += 1
        forms, exact, found, level_end = self.forms, self.exact, self.found, 1
        for n, i in enumerate(queue):  # grows while it is walked
            if n == level_end:  # the sweep's next breadth-first level
                self.depth += 1
                level_end = len(queue)
            try:
                forms[i] = form = self._form(i)
                # solved already if it reads only certified states, or
                # nothing; for most forms the first read settles the test
                if len(form) == 2 or exact[form[2]] and all(
                        exact[j] and not found[j] for j in form[2::2]):
                    self.vals[i], exact[i] = self.top.row(i)
                    forms[i] = None
                    if exact[i]:  # certified: final at once
                        self.homes[i][1][self.keys[i]] = self.vals[i]
            except (BudgetError, EvalError, AlgebraError):
                for j in queue[n:]:  # the sweep stops; they keep the seed
                    exact[j] = False
                if self.depth <= self.horizon:
                    raise
                self.engine._capped.add(self.node)
                break
        queue.clear()  # discovery is over
        return r

    def run(self, root: tuple) -> tuple:
        """The raw value at `root` and whether it is certified (steps 1 to
        4): discovery, then `operational.solve` if it left an unknown
        unsolved.  Certified unknowns become final."""
        r = self._discover(root)
        vals, exact, keys, homes, found = self.vals, self.exact, self.keys, self.homes, self.found
        self.engine._touched += self.count
        for home in self.loops.values():  # nothing is met any more
            home[0].clear()
        if None in exact:
            self.engine._passes += solve([r], vals, exact, self.forms, self.row, self.engine.fuel)
            for i in range(len(keys)):
                if found[i] and exact[i]:
                    homes[i][1][keys[i]] = vals[i]
        return vals[r], exact[r]


def _summed(add, reads) -> list:
    """The flat (unknown, coefficient) pairs of `reads`, one per unknown in
    order of first read, its coefficients added up."""
    sums = {}
    for j, c in reads:
        sums[j] = add(sums[j], c) if j in sums else c
    return [x for pair in sums.items() for x in pair]


class Engine:
    """A wp or wlp evaluator over one algebra, reusable across states.  It
    runs the compiled steps of each program object's one graph
    (`compile_program`, `compile_step`) as their context.  Per postweighting
    it keeps each loop's final table, the raw values of its certified
    states, which are fixed-point values whatever state their query started
    from; `run` makes them current with a fresh dict of join values, so
    nothing uncertified outlives its query, and wraps the query's raw value
    once.  Besides, it keeps `_capped`; each solve computes its own seed."""

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
        self._posts: dict[object, tuple[Weighting, dict]] = {}  # keyed on f as passed
        self._at = None  # the query's raw postweighting at a key (`Weighting.keyed`)
        self._finals: dict[Node, dict] = {}  # its loops' final tables
        self._values: dict[tuple[Node, tuple], tuple] = {}  # the query's joins
        self._zero = algebra._zero()  # the constant of a form read off a body
        self._unit = algebra._module_one()  # the coefficient of a read loop head
        self.state_cap = node_budget // 1000  # states a sweep past the horizon may reach
        self._capped: set[Node] = set()  # loops whose sweep was stopped past the horizon
        self._passes = 0
        self._touched = 0
        self._evaluations = 0

    # -- public -------------------------------------------------------------
    def run(self, program: Program, f, sigma: State) -> TransformResult:
        kept = self._posts.get(f)
        if kept is None:
            kept = self._posts[f] = (as_weighting(self.algebra, f), {})
        weighting, self._finals = kept
        entry = compile_program(program)
        key, self._at = weighting.keyed(entry.names, self.algebra)
        self._values = {}  # only the final tables outlive a query
        self._passes = self._touched = self._evaluations = 0
        value, exact = entry.step(key(sigma), self)
        return TransformResult(ModuleValue(self.algebra, value), exact, self._passes,
                               self._touched, self._evaluations)


# ---------------------------------------------------------------------------
# Compiled steps
# ---------------------------------------------------------------------------

def compile_step(node: Node):
    """The step of a position, in the mode of its region; `Node.step` builds
    it on first use.  Outside any loop body a step runs over values,
    `(state, engine) -> (raw value, exact)`.  In a loop's body it is a
    form step, `(state, sweep) -> None`: it appends the (unknown,
    coefficient) pairs of the read-off from here to the sweep's `out`, in
    reading order, and reads a loop head as the unit coefficient of its
    unknown.  A loop head over values, a join, reads its final table,
    else solves (`_Solve`).
    Expressions run as the node's closures (`Node.guard`, `rhs`,
    `weight`).  The step of a join, but a loop head's read, first looks
    in the engine's values for the query, or in the sweep's `joins` for
    the read-off under way, where it keeps its pairs `_summed`."""
    cls, in_body = node.stmt.__class__, node.in_body
    if cls is While:
        if in_body:
            return _read(node)

        def step(sigma, engine):  # the certified value, else a solve
            kept = engine._finals.get(node)
            final = kept.get(sigma) if kept else None
            if final is not None:
                return final, True
            return _Solve(engine, node).run(sigma)
    elif cls is Ite:
        guard, then, orelse = node.guard, node.then, node.orelse

        def step(sigma, ctx):
            return (then if guard(sigma) else orelse).step(sigma, ctx)
    elif cls is Branch:
        then, orelse = node.then, node.orelse
        if in_body:  # left arm first: that is the reading order
            def step(sigma, sweep):
                then.step(sigma, sweep)
                orelse.step(sigma, sweep)
        else:
            def step(sigma, engine):
                lv, le = then.step(sigma, engine)
                rv, re_ = orelse.step(sigma, engine)
                return engine.algebra._add(lv, rv), le and re_
    elif cls is Assign or cls is Weigh:
        step = _run(node)
    else:
        raise TypeError(f"not a program node: {node.stmt!r}")
    if not node.join:
        return step
    if in_body:
        def joined(sigma, sweep):
            key, out = (node, sigma), sweep.out
            hit = sweep.joins.get(key)
            if hit is None:
                start = len(out)
                step(sigma, sweep)
                hit = out[start:]
                reads = hit[::2]
                if len(set(reads)) < len(reads):  # one pair per unknown, or k `[]`s read 2^k
                    out[start:] = hit = _summed(sweep.algebra._add, zip(reads, hit[1::2]))
                sweep.joins[key] = hit
            else:
                out += hit
        return joined

    def joined(sigma, engine):
        key = (node, sigma)
        hit = engine._values.get(key)
        if hit is None:
            hit = engine._values[key] = step(sigma, engine)
        return hit
    return joined


def _run(node: Node):
    """One step for the maximal run of assignments and `weigh`s from
    `node`, up to the first join, loop head or branching position.  It
    writes the run's assignments in order into one new key, evaluates each
    weight where it stands, and scales what follows by the run's weight:
    the value, or the coefficients that the form steps after it append."""
    in_body = node.in_body
    actions = []  # (slot, rhs) of an assignment, (None, weight) of a weigh
    while True:
        is_assign = node.stmt.__class__ is Assign
        actions.append((node.slot, node.rhs) if is_assign else (None, node.weight))
        node = node.next
        if node is TERMINATED or node.join or node.stmt.__class__ not in (Assign, Weigh):
            break
    follow = _follow(node, in_body)
    assigns = any(slot is not None for slot, _ in actions)

    def run(sigma, ctx):
        algebra, weight = ctx.algebra, None
        state = list(sigma) if assigns else sigma  # the run's one new key
        for slot, fn in actions:
            if slot is not None:
                state[slot] = fn(state)
            elif weight is None:
                weight = fn(state, algebra)
            else:  # in program order: (a.b) (x) v = a (x) (b (x) v)
                weight = algebra._mul(weight, fn(state, algebra))
        if assigns:
            sigma = tuple(state)
        if weight is None:
            return follow(sigma, ctx)
        scale = algebra._scale
        if not in_body:  # exact, too, behind a weight that annihilates
            value, exact = follow(sigma, ctx)
            return scale(weight, value), exact or annihilates(weight, algebra, scale)
        out = ctx.out
        start = len(out)
        follow(sigma, ctx)
        for k in range(start + 1, len(out), 2):
            out[k] = scale(weight, out[k])
    return run


def _post(sigma: tuple, engine: Engine) -> tuple:
    """The query's postweighting at `sigma`, raw (`Weighting.keyed` checked
    its instance), and exact."""
    return engine._at(sigma), True


def _read(node: Node):
    """The form step of a read of the head of `node`: the unit coefficient
    of its unknown at the state."""
    def read(sigma, sweep):
        if sweep.node is not node:
            i = sweep._meet(node, sigma)
        else:  # the loop's own head: a known entry needs no call
            i = sweep.ids.get(sigma)
            if i is None or not (sweep.found[i] or sweep.exact[i]):
                i = sweep._reach(sigma, sweep.depth + 1, i)
        sweep.out += (i, sweep.unit)
    return read


def _follow(node, in_body: bool):
    """How a `next` link, from a position in a loop body or not, enters
    `node`: the postweighting after the last statement, a read of the head
    of the loop whose body ends here, else the node's step, compiled now
    (a step compiles no arm, so this recursion stays shallow)."""
    if node is TERMINATED:
        return _post
    if node.stmt.__class__ is While and in_body and not node.in_body:
        return _read(node)  # the back edge to a loop entered over values
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
        value = self.algebra.mod_add(wp_part.value, div)
        return TransformResult(value, wp_part.exact, wp_part.iterations,
                               wp_part.touched_states, wp_part.evaluations)


# ---------------------------------------------------------------------------
# Characteristic functions and invariant checking
# ---------------------------------------------------------------------------

@record
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


@record
class InvariantVerdict:
    state: State
    holds: bool


@record
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


@record
class FixedPointVerdict:
    state: State
    fixed: bool
    certainly_terminates: bool

    @property
    def exact_claim(self) -> bool:
        """True when wp = wlp = I is certified at this state."""
        return self.fixed and self.certainly_terminates


@record
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


@record
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
