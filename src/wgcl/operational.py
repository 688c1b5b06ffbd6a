"""Small-step execution: one step relation and the analyses built on it.

The step relation `successors` maps a (position, state) pair, where a
position is a node of the compiled program (`syntax.compile_program`, one
graph per program object, which the transformer walks too) or TERMINATED
and a state is a key over the program's slots (`syntax.pack`), to
weighted successor pairs.  Each position's step is compiled once
(`compile_successors`, kept on its `Node`), and its weights are raw
carrier values.  Every walk below adds, scales and multiplies raw values
(`Algebra._add`, `_scale`, `_mul`) and wraps a value only where it
leaves: `OracleResult.value`, `Path.weight`, the `olp_chain` list; the
postweighting is checked to be over the walk's instance (`Algebra._need`)
at each pair that reads it.  Each analysis takes a `State` and packs it
once.  In the paper, configurations also carry a step count and an L/R
branch history, so that paths form a forest in bijection with
nondeterministic resolutions; only `enumerate_paths` records those.  The
exposed analyses:

* `enumerate_paths` - depth-bounded path listing,
* `op_oracle` / `olp_oracle` - the limits of the path sums cut at depth
  n, certified by solving the pairs the running paths reach (olp also
  takes the lasso below),
* `uct_check` / `certainly_terminates` - certain termination from one
  state (with a lasso counterexample) or from every state of a grid,
* `diverging_weights` - exact limit of the olp chain for post zero from
  the finite (position, state) quotient graph, where the instance allows
  it, in one pass over its components.

The quotient graph is the reachable part of the step relation, walked by
one routine (`_reachable`, which also bounds the oracle's solve);
its cycles are exactly the shapes of infinite paths.  `components` is the
package's one strongly-connected-components routine (Tarjan, dependencies
first, each component yielded as soon as it is complete), `cyclic` its
one cycle test and `longest_paths` its one cycle summary: every
termination question, and whether an omega-language cycle feeds
another, reads whether a cycle is reachable off it.  `solve` is the one
linear-system solve, over numbered unknowns in flat-tuple forms: the
transformer's loop solver and the oracle each number their unknowns, build
the forms and call it, each with its own substitution; the oracle builds
its system once per query (`_system`), and `_solve` solves it for a seed.
It makes one back-substitution pass and hands what that pass leaves to
`components` and `settle`, the one component solve.
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict, deque
from itertools import repeat
from typing import Callable, Iterator

from ._record import record
from .algebra import (
    Algebra, INF, ModuleValue, OmegaLangAlgebra, Weight, make_omega,
)
from .syntax import (
    TERMINATED, Assign, Branch, EvalError, FnWeighting, Ite, Program, State, Weigh,
    Weighting, While, compile_program, pack, unpack,
)


class BudgetError(Exception):
    """A node or depth budget was exhausted."""


class DivergenceError(Exception):
    """The divergence analysis does not apply (instance or cycle structure)."""


QNode = tuple  # (position, key)


def successors(position, state: tuple,
               algebra: Algebra) -> tuple[tuple[object, object, tuple], ...]:
    """The one-step relation on (position, state) pairs, each state a key
    over the program's slots (`syntax.pack`), as (raw weight, position,
    state) triples, the left arm of `[]` first; empty at TERMINATED.  Each
    position runs its compiled step (`Node.successors`, built by
    `compile_successors`)."""
    if position is TERMINATED:
        return ()
    return position.successors(state, algebra)


def compile_successors(node):
    """The step relation at `node` as a closure (key, algebra) -> its
    successor triples, the statement kind chosen here, once.  Expressions
    run as the node's compiled closures (`Node.guard`, `rhs`, `weight`),
    which the transformer shares; every step but a `weigh` weighs the
    unit, `Algebra._unit`."""
    cls, nxt, then, orelse = node.stmt.__class__, node.next, node.then, node.orelse
    if cls is Assign:
        i, rhs = node.slot, node.rhs
        return lambda sigma, algebra: (
            (algebra._unit, nxt, sigma[:i] + (rhs(sigma),) + sigma[i + 1:]),)
    if cls is Weigh:
        weight = node.weight
        return lambda sigma, algebra: ((weight(sigma, algebra), nxt, sigma),)
    if cls is Ite:
        guard = node.guard
        return lambda sigma, algebra: ((algebra._unit, then if guard(sigma) else orelse, sigma),)
    if cls is Branch:
        return lambda sigma, algebra: (
            (algebra._unit, then, sigma), (algebra._unit, orelse, sigma))
    if cls is While:
        guard = node.guard
        return lambda sigma, algebra: ((algebra._unit, then if guard(sigma) else nxt, sigma),)
    raise TypeError(f"not a program node: {node.stmt!r}")


# ---------------------------------------------------------------------------
# Path enumeration
# ---------------------------------------------------------------------------

@record(frozen=True)
class Path:
    trace: tuple[QNode, ...]  # the (position, state) pairs, root first
    history: tuple[str, ...]  # one letter per `[]` step: L or R
    weight: Weight
    terminal: bool

    @property
    def last_state(self) -> State:
        return self.trace[-1][1]


@record
class PathReport:
    paths: list[Path]
    truncated: bool


def enumerate_paths(program: Program, state: State, depth: int, algebra: Algebra,
                    node_budget: int = 10 ** 6) -> PathReport:
    """All maximal paths of length <= depth, plus the depth-cut open ones.

    The only walk that records step depth and branch history, which make
    the paths from the root a forest: paths and nondeterministic
    resolutions correspond one to one.  Paths come out in L-before-R
    order, i.e. sorted by branch history.
    """
    report = PathReport(paths=[], truncated=False)
    trace: list[QNode] = []  # with each state unpacked
    entry = compile_program(program)
    mul = algebra._mul
    stack = [(entry, pack(state, entry.names, True), 0, (), algebra._unit)]
    visited = 0
    while stack:
        position, sigma, steps, history, weight = stack.pop()
        visited += 1
        if visited > node_budget:
            raise BudgetError(f"node budget {node_budget} exceeded")
        del trace[steps:]
        trace.append((position, unpack(sigma, entry.names)))
        if position is TERMINATED or steps >= depth:
            report.paths.append(Path(tuple(trace), history, Weight(algebra, weight),
                                     position is TERMINATED))
            report.truncated |= position is not TERMINATED
            continue
        branch = isinstance(position.stmt, Branch)
        # pushed right to left, so the left arm is walked first
        succs = zip("LR", successors(position, sigma, algebra))
        for letter, (w, nxt, sigma2) in reversed(list(succs)):
            stack.append((nxt, sigma2, steps + 1, history + (letter,) if branch else history,
                          mul(weight, w)))
    return report


def _layers(program: Program, state: State, post: Weighting, algebra: Algebra,
            fuel: int, node_budget: int) -> Iterator[tuple[list, object]]:
    """Per depth n = 0..fuel of the forest cut, (live, done): the paths
    still running, as (position, key, raw weight), and weight (x)
    post(final key) summed over those that ended, raw.  Nothing is built
    past the cut; forest nodes count as in `enumerate_paths`, the root
    included."""
    entry = compile_program(program)
    key, at = post.keyed(entry.names)
    need, add, scale, mul = algebra._need, algebra._add, algebra._scale, algebra._mul
    frontier = [(entry, key(state), algebra._unit)]
    done = algebra._zero()
    nodes = 1
    for n in range(fuel + 1):
        live = []
        for position, sigma, w in frontier:
            if position is TERMINATED:
                done = add(done, scale(w, need(at(sigma), ModuleValue)))
            else:
                live.append((position, sigma, w))
        yield live, done
        if not live or n == fuel:
            return
        frontier = [(position2, sigma2, mul(w, a)) for position, sigma, w in live
                    for a, position2, sigma2 in successors(position, sigma, algebra)]
        nodes += len(frontier)
        if nodes > node_budget:
            raise BudgetError(f"node budget {node_budget} exceeded")


def _cut_sum(done, live: list, values, algebra: Algebra):
    """done (+) weight (x) value over the live paths and `values`, one per
    path, raw."""
    add, scale = algebra._add, algebra._scale
    for (_, _, w), value in zip(live, values):
        done = add(done, scale(w, value))
    return done


@record
class OracleResult:
    value: ModuleValue
    exact: bool


def _annihilates(a, algebra: Algebra) -> bool:
    """a (x) top = zero, so that a (x) x = zero for every x (raw a)."""
    return algebra.has_top and algebra._scale(a, algebra._top()) == algebra._zero()


def _system(roots, at: Callable[[tuple], ModuleValue], algebra: Algebra) -> tuple[list, list]:
    """The numbers of `roots` and the forms, by number, of the system over
    the pairs they reach, each pair stepped once.  The pairs are numbered
    breadth first from the roots, so that on an acyclic graph a pair's
    first reader comes before it.  A pair's form is the constant at(key),
    the postweighting at its key (`Weighting.keyed`) checked to be over
    `algebra`, at TERMINATED, else (zero, True, p, a, ...) over its
    `successors` (a, p), equal arms counted twice: (+) a (x) value(p)."""
    need, zero = algebra._need, algebra._zero()
    numbers: dict = {}  # per pair met
    ids = [numbers.setdefault(pair, len(numbers)) for pair in roots]
    pairs, forms = list(numbers), []  # by number
    for position, sigma in pairs:  # grows while it is walked
        form = [need(at(sigma), ModuleValue) if position is TERMINATED else zero, True]
        for a, position2, sigma2 in successors(position, sigma, algebra):
            j = numbers.setdefault((position2, sigma2), len(pairs))
            if j == len(pairs):
                pairs.append((position2, sigma2))
            form += (j, a)
        forms.append(tuple(form))
    return ids, forms


def _solve(system: tuple[list, list], seed, algebra: Algebra, fuel: int) -> tuple[list, list]:
    """Per root of `system` (`_system`), its raw value and whether it is
    certified, solved by `solve` from `seed` on a copy of the forms, which
    `solve` drops as it solves them, so that one system serves both of
    olp's seeds.  A read is exact when its pair is certified or unsolved
    (in the reader's own component), or lies behind an annihilating
    weight."""
    ids, forms = system
    forms = list(forms)
    add, scale = algebra._add, algebra._scale
    values, exact = [seed] * len(forms), [None] * len(forms)

    def substitute(i):
        terms = iter(forms[i])
        total, ok = next(terms), next(terms)
        for j, a in zip(terms, terms):
            total = add(total, scale(a, values[j]))
            ok = ok and (exact[j] is not False or _annihilates(a, algebra))
        return total, ok

    solve(ids, values, exact, forms, substitute, fuel)
    return [values[i] for i in ids], [exact[i] for i in ids]


def _limit(live: list, done, system, seed, algebra: Algebra, fuel: int) -> OracleResult:
    """The limit of the chain s_n that charges `seed` to the paths still
    running at depth n, from its cut at n = fuel (`live`, `done`): exact
    when no path is live, or when `_solve` certifies each live pair whose
    path weight w does not annihilate, as done (+) w (x) value(pair) over
    the live paths; else s_fuel.  `system` is `_system` over the live
    pairs, built once per oracle query.  `done`, the weights and `seed` are
    raw, and the result is wrapped.  Each oracle first walks the pairs
    once, before it builds the system, keeping only the set seen:
    BudgetError past `node_budget` of them, EvalError at an undefined step.

    Why that is the limit: from a pair, the forest cut at depth n sums to
    s_n = F^n(x0), F the right-hand sides of the system's forms and x0 post
    at TERMINATED and `seed` elsewhere.  For op (seed zero) x0 <= F(x0); one
    update keeps y <= F(y), so the values g after J of them lie below s_J.
    Certified values are a fixed point of F (an annihilated read is zero
    whatever it reads), so s_n <= F^n(g) = g for all n: the chain reaches
    g at depth J and stays.  For olp (seed top) each inequality turns
    round.  No continuity is needed, only (+) and (x) monotone in the
    natural order, zero least and top greatest, as on every instance.
    """
    if not live:
        return OracleResult(ModuleValue(algebra, done), True)
    values, certain = _solve(system, seed, algebra, fuel)
    if all(ok or _annihilates(w, algebra) for ok, (_, _, w) in zip(certain, live)):
        total, exact = _cut_sum(done, live, values, algebra), True
    else:
        total, exact = _cut_sum(done, live, repeat(seed), algebra), False
    return OracleResult(ModuleValue(algebra, total), exact)


def op_oracle(program: Program, state: State, post: Weighting, algebra: Algebra,
              fuel: int = 64, node_budget: int = 10 ** 6) -> OracleResult:
    """op(post): the limit of the ascending chain that sums weight (x)
    post(final state) over the paths ended within n steps (see `_limit`);
    uncertified, s_fuel, a lower bound."""
    live, done = deque(_layers(program, state, post, algebra, fuel, node_budget), maxlen=1).pop()
    _, at = post.keyed(compile_program(program).names)
    roots = [(p, s) for p, s, _ in live]
    try:
        deque(_reachable(roots, algebra, node_budget), maxlen=0)
        return _limit(live, done, _system(roots, at, algebra), algebra._zero(), algebra, fuel)
    except (BudgetError, EvalError):  # too large, or undefined past the cut
        return OracleResult(ModuleValue(algebra, done), False)


def olp_oracle(program: Program, state: State, post: Weighting, algebra: Algebra,
               fuel: int = 64, node_budget: int = 10 ** 6) -> OracleResult:
    """olp(post): the limit of the descending chain that also charges top
    to the paths running at depth n (see `_limit`).  Left open there, on
    the instances `diverging_weights` handles, the lasso completes it as
    op(post) (+) olp(zero), exact when op is; else s_fuel, an upper bound."""
    top = algebra._top()
    live, done = deque(_layers(program, state, post, algebra, fuel, node_budget), maxlen=1).pop()
    _, at = post.keyed(compile_program(program).names)
    roots = [(p, s) for p, s, _ in live]
    try:
        deque(_reachable(roots, algebra, node_budget), maxlen=0)
        system = _system(roots, at, algebra)  # one system for both seeds
        result = _limit(live, done, system, top, algebra, fuel)
        if result.exact:
            return result
        check_divergence_analysis(algebra)  # before the op solve
        op = _limit(live, done, system, algebra._zero(), algebra, fuel)
        if op.exact:
            diverging = diverging_weights(program, state, algebra, node_budget)
            return OracleResult(algebra.mod_add(op.value, diverging), True)
    except (BudgetError, EvalError, DivergenceError):
        pass
    return OracleResult(ModuleValue(algebra, _cut_sum(done, live, repeat(top), algebra)),
                        False)


def olp_chain(program: Program, state: State, algebra: Algebra,
              fuel: int = 64, node_budget: int = 10 ** 6) -> list[ModuleValue]:
    """The olp chain s_n itself for post zero, n = 0..fuel (fewer if all paths end)."""
    zero, top = FnWeighting(algebra, lambda _s: algebra.mod_zero()), algebra._top()
    return [ModuleValue(algebra, _cut_sum(done, live, repeat(top), algebra))
            for live, done in _layers(program, state, zero, algebra, fuel, node_budget)]


# ---------------------------------------------------------------------------
# Quotient graph, termination, divergence
# ---------------------------------------------------------------------------

def _reachable(roots, algebra: Algebra, node_budget: int) -> Iterator[tuple[QNode, tuple]]:
    """Each (position, state) pair reachable from `roots`, once, with its
    `successors` triples, from the position's compiled step (none at
    TERMINATED): depth first, a pair's successors last to first.  One flat
    stack holds the pairs still to enter, a successor pushed unless it was
    entered already; a pair is marked when it is popped and entered.
    Raises BudgetError when more than `node_budget` pairs are reachable."""
    seen: set[QNode] = set()
    todo = list(reversed(roots))
    enter, push, pop = seen.add, todo.append, todo.pop
    while todo:
        node = pop()
        if node in seen:
            continue
        if len(seen) >= node_budget:
            raise BudgetError(f"quotient node budget {node_budget} exceeded")
        enter(node)
        position, sigma = node
        succs = () if position is TERMINATED else position.successors(sigma, algebra)
        yield node, succs
        for _, position, sigma in succs:
            pair = (position, sigma)
            if pair not in seen:
                push(pair)


def build_quotient(program: Program, state: State, algebra: Algebra,
                   node_budget: int = 10 ** 6) -> dict[QNode, list[tuple[object, QNode]]]:
    """Reachable (position, state) graph with raw edge weights; the root
    is its first key.  A state here is a key, `pack(state, names, True)`
    over `compile_program(program).names`: the program's slots, then the
    input's other variables as one `State` (`unpack` gives the state).

    Paths in the computation forest project onto walks in this graph, and
    every walk lifts back, so cycles here are exactly the shapes of
    infinite paths.
    """
    graph: dict[QNode, list[tuple[object, QNode]]] = {}
    entry = compile_program(program)
    for node, succs in _reachable([(entry, pack(state, entry.names, True))], algebra,
                                  node_budget):
        edges = graph[node] = []
        for w, position, sigma in succs:
            edge = (w, (position, sigma))
            if edge not in edges:  # equal branch arms collapse in the quotient
                edges.append(edge)
    return graph


_DONE = object()  # on the work list of `components`: a vertex's successors end here


def components(roots, successors, size: int | None = None) -> Iterator[list]:
    """The strongly connected components reachable from `roots`, each
    yielded as soon as it is complete, after every component it reaches
    (Tarjan 1972, with explicit stacks), and each listing its deepest
    vertex first.  `successors(v)` is the sequence of v's successors; it
    is called once per vertex, when the walk enters it, so a caller may
    drop what it keeps for a vertex once the vertex's component is out.
    Vertices numbered 0 to `size` - 1 are walked with a list in place of
    a table keyed on them."""
    inf = math.inf
    # the least stack position a vertex reaches, None before it is entered, inf once out
    low = defaultdict(type(None)) if size is None else [None] * size
    stack: list = []  # the vertices of components not yet out, entered first
    path: list = []  # the stack positions of the entered, unfinished vertices
    todo: list = []  # successors still to try, each vertex's above a _DONE
    for root in roots:
        if low[root] is not None:
            continue
        todo.append(root)
        while todo:
            w = todo.pop()
            if w is _DONE:  # the last vertex on the path is finished
                i = path.pop()
                w = stack[i]
                if low[w] == i:  # the first vertex of its component
                    component = stack[i:]
                    del stack[i:]
                    component.reverse()
                    for v in component:
                        low[v] = inf
                    yield component
                    continue
            elif low[w] is None:
                i = len(stack)
                low[w] = i
                stack.append(w)
                path.append(i)
                todo.append(_DONE)
                todo.extend(reversed(successors(w)))
                continue
            # w is finished or was entered before: if it is still on the
            # stack, the vertex that reads it reaches as low as it does
            v = stack[path[-1]]
            if low[w] < low[v]:
                low[v] = low[w]


def cyclic(component: list, successors) -> bool:
    """The component has two or more vertices, or a self-loop."""
    return len(component) > 1 or component[0] in successors(component[0])


def solve(roots, values: list, exact: list, forms: list, substitute, fuel: int) -> int:
    """Solve the linear system of numbered unknowns that `roots` read, in
    place, for both solvers (Tarjan 1981): unknown i reads the unknowns of
    its form `forms[i]`, a flat tuple (constant, exact, number,
    coefficient, ...), and `substitute(i)` is its right-hand side against
    `values`, as (value, exact).  `exact[i]` is None while i is unsolved,
    and an entry that holds True or False is read as it is; an unsolved
    unknown holds its seed in `values`.

    First one pass down the numbers solves each unsolved unknown whose
    reads are all solved, one substitution each: where every unknown was
    numbered after the reader that first met it, that is the whole
    acyclic part.  Then, if a root is still unsolved, `components` over
    the unsolved unknowns (their unsolved reads, in reading order) yields
    what a cycle or a back read, an unknown numbered before its reader,
    leaves, dependencies first, and `settle` solves each component as it
    comes.  A solved unknown's form is dropped.  The passes made: 1 for
    the back-substitution pass if it substituted anything, or those of
    the most-iterated component if more, else 0."""
    passes = 0
    for i in range(len(forms) - 1, -1, -1):
        if exact[i] is None and None not in map(exact.__getitem__, forms[i][2::2]):
            values[i], exact[i] = substitute(i)
            forms[i], passes = None, 1
    roots = [r for r in roots if exact[r] is None]
    if not roots:
        return passes

    def waits(i):  # in reading order, so that the order of solving, and a bound, is fixed
        return [j for j in forms[i][2::2] if exact[j] is None]
    for component in components(roots, waits, len(forms)):
        done, certified = settle(component, waits, values, substitute, fuel)
        passes = max(passes, done)
        for i in component:
            forms[i], exact[i] = None, certified
    return passes


def settle(component: list, successors, values, substitute, fuel: int) -> tuple[int, bool]:
    """Solve one component that `components` yielded, in place in `values`
    (a list or a dict): `substitute(v)` is v's right-hand side against
    `values`, as (value, exact).  With no cycle (`cyclic`), one
    substitution; on a cycle, Gauss-Seidel passes from the values the
    component holds, at most `fuel`.  The passes made, and whether the
    component is certified: the last pass changed nothing and every
    substitution in it was exact."""
    if not cyclic(component, successors):
        v = component[0]
        values[v], exact = substitute(v)
        return 1, exact
    for passes in range(1, fuel + 1):
        changed, exact = False, True
        for v in component:
            value, ex = substitute(v)
            exact = exact and ex
            if value != values[v]:
                values[v], changed = value, True
        if not changed:
            return passes, exact
    return fuel, False


def longest_paths(order, successors) -> dict:
    """Per vertex of `order` (`components` output, dependencies first), the
    length of the longest path from it, or inf when a cycle is reachable
    from it."""
    longest: dict = {}
    for component in order:
        if cyclic(component, successors):
            longest.update(dict.fromkeys(component, math.inf))
        else:
            v = component[0]
            longest[v] = max((1 + longest[w] for w in successors(v)), default=0)
    return longest


def _shortest_walk(start, successors, goal) -> list:
    """A shortest walk of one step or more from `start` to a vertex in
    `goal` (breadth first), start first."""
    parent: dict = {}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in successors(v):
            if w in parent:
                continue
            parent[w] = v
            if w in goal:
                walk = [w, v]
                while walk[-1] != start:
                    walk.append(parent[walk[-1]])
                return walk[::-1]
            queue.append(w)


@record
class UctResult:
    kind: str  # 'certain' | 'refuted' | 'unknown'
    maxlen: int | None = None
    lasso: tuple[list[QNode], list[QNode]] | None = None

    @property
    def certain(self) -> bool:
        return self.kind == "certain"


def uct_check(program: Program, state: State, algebra: Algebra,
              node_budget: int = 10 ** 6) -> UctResult:
    """Decide certain termination from one start state.

    `certain(maxlen)` if the quotient closes acyclic (maxlen is its longest
    path); `refuted` if a cycle is reachable, with a lasso (prefix, cycle):
    a shortest route onto a cycle, then a shortest way round it, so that
    prefix + cycle + [cycle[0]] is a walk from the root, each state
    unpacked from its key in `build_quotient`; `unknown` if the node budget
    ran out.
    """
    try:
        graph = build_quotient(program, state, algebra, node_budget)
    except BudgetError:
        return UctResult("unknown")
    root = next(iter(graph))
    succ = {v: [s for _, s in es] for v, es in graph.items()}.__getitem__
    order = list(components([root], succ))
    longest = longest_paths(order, succ)
    if longest[root] < math.inf:
        return UctResult("certain", maxlen=longest[root])
    on_cycle = {v for comp in order if cyclic(comp, succ) for v in comp}
    *prefix, entry = [root] if root in on_cycle else _shortest_walk(root, succ, on_cycle)
    names = compile_program(program).names
    lasso = [[(p, unpack(s, names)) for p, s in walk]
             for walk in (prefix, _shortest_walk(entry, succ, {entry})[:-1])]
    return UctResult("refuted", lasso=tuple(lasso))


def certainly_terminates(program: Program, states, algebra: Algebra,
                         node_budget: int = 10 ** 6) -> list[bool]:
    """Per start state, whether every run from it terminates, read off one
    quotient walked from all of them together; every answer is False if
    that quotient outgrows `node_budget`.  The roots share the program's
    one graph (`compile_program`), so equal positions are one vertex."""
    entry = compile_program(program)
    roots = [(entry, pack(sigma, entry.names)) for sigma in states]
    try:
        succ = {v: [(p, s) for _, p, s in succs]
                for v, succs in _reachable(roots, algebra, node_budget)}.__getitem__
    except BudgetError:
        return [False] * len(roots)
    longest = longest_paths(components(roots, succ), succ)
    return [longest[root] < math.inf for root in roots]


def check_divergence_analysis(algebra: Algebra) -> None:
    """Raise DivergenceError unless `diverging_weights` handles `algebra`:
    counting, prob and lang have no exact divergence analysis, and this
    says so before any walk."""
    if not isinstance(algebra, OmegaLangAlgebra) and algebra.name not in (
            "boolean", "tropical", "arctic"):
        raise DivergenceError(f"{algebra.name}: no exact divergence analysis")


def diverging_weights(program: Program, state: State, algebra: Algebra,
                      node_budget: int = 10 ** 6) -> ModuleValue:
    """The exact limit of the olp chain for post zero: the weight of the
    infinite paths from the start pair, on the finite quotient.

    Tropical takes the cheapest route to a cycle of zero-weight edges, a
    shortest path through cycles (Dijkstra).  Boolean, arctic and
    omega-language instances take one pass over the quotient's components,
    dependencies first, with the per-vertex path equations of Tarjan 1981:
    a pair off a cycle gets (+) w (x) D(s) over its edges (w, s), and a
    pair on a cycle the weight of going round it forever, the omega of
    Esik and Kuich 2005.  For boolean, whose cycles take only true edges,
    and arctic, that weight is top.  For omega-languages it is the cycle's
    word from that pair repeated forever, or the full cylinder if the word
    is empty, built once where the pass enters the cycle or at the start
    pair; the diverging words must be ultimately periodic, so each
    reachable cycle must be simple and feed no other one, else
    DivergenceError.  Other instances are rejected before any walk.
    """
    check_divergence_analysis(algebra)
    graph = build_quotient(program, state, algebra, node_budget)
    root = next(iter(graph))
    if algebra.name == "tropical":  # zero-weight cycles anywhere, entered by the cheapest route
        succ = {v: [s for w, s in es if w == 0] for v, es in graph.items()}.__getitem__
        dist = _shortest_distances(graph, root)
        best = min((dist[v] for comp in components(graph, succ) if cyclic(comp, succ)
                    for v in comp if v in dist), default=INF)
        return algebra.value(best)
    if algebra.name == "boolean":  # a run over a false edge weighs false, however it goes on
        graph = {v: [(w, s) for w, s in es if w] for v, es in graph.items()}
    succ = {v: [s for _, s in es] for v, es in graph.items()}.__getitem__
    order = list(components([root], succ))
    top, add, scale = algebra._top(), algebra._add, algebra._scale
    around = (_omega_cycles(graph, order, succ) if isinstance(algebra, OmegaLangAlgebra)
              else lambda v: top)
    value: dict = {}  # per pair off a cycle, and per cycle pair the pass entered
    for comp in order:
        if cyclic(comp, succ):
            continue
        total = algebra._zero()
        for w, s in graph[comp[0]]:
            if s not in value:  # s is on a cycle, entered here first
                value[s] = around(s)
            total = add(total, scale(w, value[s]))
        value[comp[0]] = total
    return algebra.value(value[root] if root in value else around(root))


def _shortest_distances(graph, root):
    dist = {root: 0}
    heap = [(0, 0, root)]
    tie = 0
    while heap:
        d, _, node = heapq.heappop(heap)
        if d > dist[node]:
            continue
        for w, succ in graph[node]:
            if w is INF:
                continue
            nd = d + w
            if succ not in dist or nd < dist[succ]:
                dist[succ] = nd
                tie += 1
                heapq.heappush(heap, (nd, tie, succ))
    return dist


def _omega_cycles(graph, order, succ):
    """Per pair on a cycle of the quotient `graph` (its `components`
    `order`), the raw omega-language value of going round that cycle
    forever from the pair.  Raises DivergenceError unless the diverging
    words are ultimately periodic."""
    # each cyclic component must be one simple cycle: within it, out-degree one
    cycle_next: dict[QNode, tuple[str, QNode]] = {}
    for comp in (c for c in order if cyclic(c, succ)):
        members = set(comp)
        for v in comp:
            inside = [(w, s) for (w, s) in graph[v] if s in members]
            if len(inside) != 1:
                raise DivergenceError(
                    "diverging words are not ultimately periodic "
                    "(a reachable component branches within itself)")
            cycle_next[v] = inside[0]

    # no cycle may reach another (else prefixes pump through cycles): no
    # edge leaving a cycle may lead where a cycle is reachable
    longest = longest_paths(order, succ)
    if any(edge != cycle_next[v] and longest[edge[1]] == math.inf
           for v in cycle_next for edge in graph[v]):
        raise DivergenceError(
            "diverging words are not ultimately periodic "
            "(a reachable cycle feeds another cycle)")

    def around(entry: QNode):  # built where the pass enters the cycle
        w, v = cycle_next[entry]
        word = [w]
        while v != entry:
            w, v = cycle_next[v]
            word.append(w)
        period = "".join(word)
        return make_omega(lassos=[("", period)]) if period else make_omega(cylinders=[""])
    return around
