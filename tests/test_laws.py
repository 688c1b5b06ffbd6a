"""Metamorphic laws from the wp rules: a program and a rewrite of it that
the rules prove equal lower to different graphs, and both must give the
same exact value on every instance (metamorphic testing, Chen, Cheung and
Yiu 1998; equivalence modulo inputs, Le, Afshari and Su 2014)."""

import random
from functools import reduce

import pytest

from wgcl.algebra import NoTopError, algebra
from wgcl.operational import BudgetError
from wgcl.syntax import (
    BNot, Branch, EvalError, ExprWeighting, Ite, Seq, Weigh, While, WLit, flatten_seq,
)
from wgcl.transformer import Engine, LiberalEngine

from genprog import rand_looping_program, rand_nested_program, rand_state, rand_weighting_expr

INSTANCES = ("boolean", "counting", "tropical", "arctic", "prob", "lang:ab", "omegalang:ab")
FUEL, BUDGET = 8, 1000


def rewrite(prog, law):
    """`prog` with `law` applied to each statement, children first, and to
    each statement list (a `Seq`'s flattened statements) after its
    statements.  A law returns what it does not rewrite as it is."""
    if isinstance(prog, Seq):
        return _seq(law([rewrite(s, law) for s in flatten_seq(prog)]))
    if isinstance(prog, Ite):
        prog = Ite(prog.guard, rewrite(prog.then, law), rewrite(prog.orelse, law))
    elif isinstance(prog, While):
        prog = While(prog.guard, rewrite(prog.body, law))
    elif isinstance(prog, Branch):
        prog = Branch(rewrite(prog.left, law), rewrite(prog.right, law))
    return law(prog)


def _seq(stmts):
    """One program of a nonempty statement list, `Seq`s nested to the right."""
    return reduce(lambda rest, s: Seq(s, rest), reversed(stmts))


def arm_swap(prog, alg):
    """`{ A } [] { B }` is `{ B } [] { A }`: (+) is commutative."""
    return Branch(prog.right, prog.left) if isinstance(prog, Branch) else prog


def unrolling(prog, alg):
    """`while (g) { B }` is `if (g) { B; while (g) { B } } else { skip }`,
    which moves the loop head into an arm."""
    if not isinstance(prog, While):
        return prog
    skip = Weigh(WLit(alg.mon_one().value))
    return Ite(prog.guard, Seq(prog.body, prog), skip)


def doubling(prog, alg):
    """`while (g) { B }` is `while (g) { B; if (g) { B } else { skip } }`,
    which runs two laps per cycle and so changes the cycle's shape."""
    if not isinstance(prog, While):
        return prog
    skip = Weigh(WLit(alg.mon_one().value))
    return While(prog.guard, Seq(prog.body, Ite(prog.guard, prog.body, skip)))


def negation(prog, alg):
    """`if (g) { A } else { B }` is `if (not g) { B } else { A }`."""
    return Ite(BNot(prog.guard), prog.orelse, prog.then) if isinstance(prog, Ite) else prog


def distribution(prog, alg):
    """`({ A } [] { B }); C` is `{ A; C } [] { B; C }`: wp(C) is linear, so
    sequencing distributes over `[]` from the right.  C is the rest of the
    list after its first `[]`."""
    if not isinstance(prog, list):
        return prog
    for i, stmt in enumerate(prog[:-1]):
        if isinstance(stmt, Branch):
            rest = _seq(prog[i + 1:])
            return prog[:i] + [Branch(Seq(stmt.left, rest), Seq(stmt.right, rest))]
    return prog


def fusion(prog, alg):
    """`weigh a; weigh b` is `weigh a.b` for literal weights, multiplied in
    program order: (a.b) (x) v = a (x) (b (x) v)."""
    if not isinstance(prog, list):
        return prog
    out = []
    for stmt in prog:
        if _literal(stmt) and out and _literal(out[-1]):
            stmt = Weigh(WLit(alg._mul(out.pop().weight.raw, stmt.weight.raw)))
        out.append(stmt)
    return out


def _literal(stmt) -> bool:
    return isinstance(stmt, Weigh) and isinstance(stmt.weight, WLit)


def _cases():
    """Per instance, 60 looping and 60 nested programs, each with a
    generated postweighting and state."""
    rng = random.Random(11)
    cases = []
    for name in INSTANCES:
        alg = algebra(name)
        for generate in (rand_looping_program, rand_nested_program):
            for _ in range(60):
                p = generate(rng, alg)
                f = ExprWeighting(alg, rand_weighting_expr(rng, alg))
                cases.append((alg, generate, p, f, rand_state(rng)))
    return cases


CASES = _cases()


def _engine(alg, direction):
    if direction == "wp":
        return Engine(alg, "wp", FUEL, BUDGET)
    return LiberalEngine(alg, FUEL, BUDGET)


@pytest.mark.parametrize("direction, floor", [("wp", 700), ("wlp", 550)])
@pytest.mark.parametrize("law", [arm_swap, unrolling, doubling, negation, distribution, fusion])
def test_a_law_keeps_every_exact_value(law, direction, floor):
    compared = 0
    for alg, generate, p, f, sigma in CASES:
        # wlp of a nested omegalang loop grows its iterates' cylinder sets
        # with the fuel (ROADMAP item 4): one of these programs, and each of
        # its rewrites, runs for more than 3 s
        nested_omega = generate is rand_nested_program and alg.name.startswith("omegalang")
        if direction == "wlp" and nested_omega:
            continue
        q = rewrite(p, lambda s: law(s, alg))
        try:
            a = _engine(alg, direction).run(p, f, sigma)
            b = _engine(alg, direction).run(q, f, sigma)
        except (BudgetError, NoTopError, EvalError):
            continue
        if a.exact and b.exact:
            compared += 1
            assert a.value == b.value, (law.__name__, direction, alg.name, p, sigma)
    assert compared >= floor, compared
