"""Expected values, computed without the package under test.

* Closed forms for the bundled examples (ski rental, Fibonacci, knapsack by
  brute force).
* A small-step interpreter for the generator's tuple AST (`genprog.py`) that
  builds the reachable configuration graph and solves it by Kleene
  iteration, from the bottom for wp and from the top for wlp.  When the
  graph is explored completely and an iteration stops changing, the result
  is the exact least (greatest) fixed point; otherwise the iterates are
  still sound bounds: wp >= the bottom iterate and wlp <= the top iterate,
  and wp <= wlp always.
* The natural order of each instance, to judge `inexact` answers: a wp
  bound must lie below the answer, a wlp bound above it.
"""

from __future__ import annotations

import math
from fractions import Fraction

INF = math.inf
NEG_INF = -math.inf


# ---------------------------------------------------------------------------
# Instances: raw carriers and operations
# ---------------------------------------------------------------------------

def _count_mul(a, b):
    return 0 if a == 0 or b == 0 else a * b


def _arctic_scale(a, u):
    return NEG_INF if u == NEG_INF else a + u


def _prob_scale(a, u):
    if a == 0:
        return Fraction(0)
    return INF if u == INF else a * u


class Instance:
    def __init__(self, name, add, scale, zero, one, top, leq):
        self.name = name
        self.add = add
        self.scale = scale  # weight (x) module value; also the monoid product here
        self.zero = zero
        self.one = one
        self.top = top
        self.leq = leq  # the natural order of the module

    def parse(self, text: str):
        """A value as the CLI prints it."""
        if self.name == "boolean":
            return {"true": True, "false": False}[text]
        if text == "inf":
            return INF
        if text == "-inf":
            return NEG_INF
        if self.name == "prob":
            return Fraction(text)
        return int(text)


INSTANCES = {
    "boolean": Instance("boolean", lambda u, v: u or v, lambda a, u: a and u,
                        False, True, True, lambda u, v: (not u) or v),
    "counting": Instance("counting", lambda u, v: u + v, _count_mul,
                         0, 1, INF, lambda u, v: u <= v),
    "tropical": Instance("tropical", min, lambda a, u: a + u,
                         INF, 0, 0, lambda u, v: v <= u),
    "arctic": Instance("arctic", max, _arctic_scale,
                       NEG_INF, 0, INF, lambda u, v: u <= v),
    "prob": Instance("prob", lambda u, v: u + v, _prob_scale,
                     Fraction(0), Fraction(1), INF, lambda u, v: u <= v),
}


def judge(inst: Instance, direction: str, value, exact: bool, lo, hi) -> str | None:
    """Check one answer against bounds lo <= truth <= hi (natural order).

    An exact answer must lie in [lo, hi]; an inexact wp answer must not lie
    above hi, an inexact wlp answer not below lo.  Returns a reason on
    failure.
    """
    leq = inst.leq
    if exact:
        if not (leq(lo, value) and leq(value, hi)):
            return f"exact {value!r} outside the reference [{lo!r}, {hi!r}]"
        return None
    if direction == "wp" and not leq(value, hi):
        return f"inexact wp {value!r} is not below the reference {hi!r}"
    if direction == "wlp" and not leq(lo, value):
        return f"inexact wlp {value!r} is not above the reference {lo!r}"
    return None


# ---------------------------------------------------------------------------
# Closed forms for the bundled examples
# ---------------------------------------------------------------------------

def fibonacci(n: int) -> int:
    """fib(1) = fib(2) = 1."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def ski_nd(n: int, y: int) -> int:
    return max(min(n, y), 0)


def ski_onl(n: int, y: int) -> int:
    return n if n < y else max(2 * y - 1, 0)


def knapsack(x: int) -> int:
    """Subsets of the tasks (2h, 5), (3h, x), (4h, 8) with t <= 6, r >= 13."""
    tasks = ((2, 5), (3, x), (4, 8))
    count = 0
    for mask in range(8):
        chosen = [tasks[i] for i in range(3) if mask >> i & 1]
        if sum(t for t, _ in chosen) <= 6 and sum(r for _, r in chosen) >= 13:
            count += 1
    return count


# ---------------------------------------------------------------------------
# Generated programs: configuration graph and fixed points
# ---------------------------------------------------------------------------

VARS = ("x", "y", "z")
_SLOT = {v: i for i, v in enumerate(VARS)}
_CMP = {
    "=": lambda a, b: a == b, "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b, ">=": lambda a, b: a >= b,
}


def arith(e, st) -> int:
    tag = e[0]
    if tag == "int":
        return e[1]
    if tag == "var":
        return st[_SLOT[e[1]]]
    left, right = arith(e[2], st), arith(e[3], st)
    op = e[1]
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    return min(left, right) if op == "min" else max(left, right)


def boolean(b, st) -> bool:
    tag = b[0]
    if tag == "cmp":
        return _CMP[b[1]](arith(b[2], st), arith(b[3], st))
    if tag == "not":
        return not boolean(b[1], st)
    if tag == "and":
        return boolean(b[1], st) and boolean(b[2], st)
    return boolean(b[1], st) or boolean(b[2], st)


def _weight(w, st, inst: Instance):
    raw = arith(w[1], st) if w[0] == "wint" else w[1]
    if inst.name == "prob":
        return Fraction(raw)
    return raw


def post_value(post, st, inst: Instance):
    total = inst.zero
    for guard, term in post:
        if guard is not None and not boolean(guard, st):
            continue
        kind = term[0]
        if kind == "zero":
            v = inst.zero
        elif kind == "one":
            v = inst.one
        elif kind == "embed":
            v = arith(term[1], st)
        else:
            v = INF if term[1] == "inf" else term[1]
        total = inst.add(total, v)
    return total


def _push(stmt, rest):
    """Continuation with `stmt` on top, sequences unfolded."""
    while stmt[0] == "seq":
        rest = (stmt[2], rest)
        stmt = stmt[1]
    return (stmt, rest)


def _pop(rest):
    return None if rest is None else _push(*rest)


def _successors(stack, st, inst: Instance):
    stmt, rest = stack
    tag = stmt[0]
    one = inst.one
    if tag == "assign":
        new = list(st)
        new[_SLOT[stmt[1]]] = arith(stmt[2], st)
        return ((one, (_pop(rest), tuple(new))),)
    if tag == "weigh":
        return ((_weight(stmt[1], st, inst), (_pop(rest), st)),)
    if tag == "ite":
        chosen = stmt[2] if boolean(stmt[1], st) else stmt[3]
        return ((one, (_push(chosen, rest), st)),)
    if tag == "branch":
        return ((one, (_push(stmt[1], rest), st)), (one, (_push(stmt[2], rest), st)))
    if boolean(stmt[1], st):  # while
        return ((one, (_push(stmt[2], (stmt, rest)), st)),)
    return ((one, (_pop(rest), st)),)


class Bounds:
    """Reference bounds at one (program, state): wp_lo <= wp <= wlp <= wlp_hi,
    with flags telling when a side is the exact fixed point."""

    def __init__(self, wp_lo, wp_exact, wlp_hi, wlp_exact):
        self.wp_lo, self.wp_exact = wp_lo, wp_exact
        self.wlp_hi, self.wlp_exact = wlp_hi, wlp_exact

    def interval(self, direction: str):
        if direction == "wp" and self.wp_exact:
            return self.wp_lo, self.wp_lo
        if direction == "wlp" and self.wlp_exact:
            return self.wlp_hi, self.wlp_hi
        return self.wp_lo, self.wlp_hi


def explore(program, sigma: dict[str, int], inst: Instance, node_cap: int):
    """Breadth-first configuration graph, at most `node_cap` configurations.
    Returns (root, edges, complete)."""
    root = (_push(program, None), tuple(sigma.get(v, 0) for v in VARS))
    edges: dict = {}
    frontier = [root]
    while frontier:
        nxt = []
        for conf in frontier:
            if conf in edges:
                continue
            if len(edges) >= node_cap:
                return root, edges, False
            stack, st = conf
            out = () if stack is None else _successors(stack, st, inst)
            edges[conf] = out
            nxt.extend(s for _, s in out if s not in edges)
        frontier = nxt
    return root, edges, True


def solve(program, post, sigma: dict[str, int], inst: Instance, node_cap: int,
          max_passes: int = 200, truncated_passes: int = 30) -> Bounds:
    """Explore, then iterate both chains.  On a truncated graph no iterate
    can be exact, so fewer passes are spent on the bounds."""
    root, edges, complete = explore(program, sigma, inst, node_cap)
    passes = max_passes if complete else truncated_passes
    order = _postorder(root, edges)
    terminal = {c: post_value(post, c[1], inst) for c in order if c[0] is None}
    wp_lo, wp_stable = _iterate(order, edges, terminal, inst, inst.zero, passes, root)
    wlp_hi, wlp_stable = _iterate(order, edges, terminal, inst, inst.top, passes, root)
    return Bounds(wp_lo, complete and wp_stable, wlp_hi, complete and wlp_stable)


def _postorder(root, edges) -> list:
    """Explored configurations, successors before predecessors where acyclic."""
    seen = {root}
    order = []
    stack = [(root, iter(edges[root]))]
    while stack:
        conf, it = stack[-1]
        for _, succ in it:
            if succ not in seen and succ in edges:
                seen.add(succ)
                stack.append((succ, iter(edges[succ])))
                break
        else:
            stack.pop()
            order.append(conf)
    return order


def _iterate(order, edges, terminal, inst: Instance, start, max_passes, root):
    """Gauss-Seidel Kleene iteration from `start`; configurations left
    unexplored keep `start`, which keeps the iterate on the same side of the
    fixed point.  Returns (value at root, stabilized)."""
    val = {c: terminal[c] if c in terminal else start for c in order}
    add, scale = inst.add, inst.scale
    inner = [c for c in order if c not in terminal]
    for _ in range(max_passes):
        changed = False
        for c in inner:
            new = inst.zero
            for w, s in edges[c]:
                new = add(new, scale(w, val.get(s, start)))
            if new != val[c]:
                val[c] = new
                changed = True
        if not changed:
            return val[root], True
    return val[root], False
