"""Seeded random generators for programs, weightings, and module values.

Loop-free programs are total and certainly terminating by construction.
`rand_uct_program` only adds counter loops `zz := k; while (zz > 0) {...;
zz := zz - 1}` whose bodies never write the counter, so the result is
certainly terminating from every state; the loops of
`rand_looping_program` and `rand_nested_program` may not terminate.
Integer embeddings are wrapped in max(e, 0) to keep them inside the
extended naturals.
"""

import random
from fractions import Fraction

from wgcl.algebra import Algebra, INF, ModuleValue
from wgcl.syntax import (
    ABin, ACall, AInt, AVar, Assign, BAnd, BCmp, BNot, BOr, Branch,
    Ite, Program, Seq, State, TEmbed, TLit, TOne, TZero, WEmbedInt, WGuarded,
    WLit, WSum, Weigh, While,
)

VARS = ("x", "y", "z")


def rand_arith(rng: random.Random, depth: int = 2):
    if depth == 0 or rng.random() < 0.4:
        if rng.random() < 0.5:
            return AInt(rng.randint(-2, 3))
        return AVar(rng.choice(VARS))
    op = rng.choice(("+", "-", "*", "min", "max"))
    left, right = rand_arith(rng, depth - 1), rand_arith(rng, depth - 1)
    if op in ("min", "max"):
        return ACall(op, (left, right))
    return ABin(op, left, right)


def rand_bool(rng: random.Random, depth: int = 2):
    if depth == 0 or rng.random() < 0.5:
        op = rng.choice(("=", "!=", "<", "<=", ">", ">="))
        return BCmp(op, rand_arith(rng, 1), rand_arith(rng, 1))
    kind = rng.random()
    if kind < 0.2:
        return BNot(rand_bool(rng, depth - 1))
    if kind < 0.6:
        return BAnd(rand_bool(rng, depth - 1), rand_bool(rng, depth - 1))
    return BOr(rand_bool(rng, depth - 1), rand_bool(rng, depth - 1))


def _nonneg(e):
    return ACall("max", (e, AInt(0)))


def rand_weight_expr(rng: random.Random, alg: Algebra):
    name = alg.name
    if name == "boolean":
        return WLit(rng.random() < 0.8)
    if name == "prob":
        return WLit(Fraction(rng.randint(0, 4), 4))
    if name.startswith(("lang:", "omegalang:")):
        k = rng.randint(0, 2)
        return WLit("".join(rng.choice(alg.alphabet) for _ in range(k)))
    if alg.embeddable and rng.random() < 0.3:
        return WEmbedInt(_nonneg(rand_arith(rng, 1)))
    return WLit(rng.randint(0, 3))


def rand_loopfree(rng: random.Random, alg: Algebra, depth: int = 3) -> Program:
    if depth == 0 or rng.random() < 0.3:
        kind = rng.random()
        if kind < 0.45:
            return Assign(rng.choice(VARS), rand_arith(rng, 2))
        return Weigh(rand_weight_expr(rng, alg))
    kind = rng.random()
    if kind < 0.4:
        return Seq(rand_loopfree(rng, alg, depth - 1), rand_loopfree(rng, alg, depth - 1))
    if kind < 0.7:
        return Branch(rand_loopfree(rng, alg, depth - 1), rand_loopfree(rng, alg, depth - 1))
    return Ite(rand_bool(rng, 1), rand_loopfree(rng, alg, depth - 1),
               rand_loopfree(rng, alg, depth - 1))


def _counter_loop(rng: random.Random, alg: Algebra, depth: int) -> Program:
    body = rand_loopfree(rng, alg, depth)
    counter = "zz"
    return Seq(
        Assign(counter, AInt(rng.randint(0, 3))),
        While(BCmp(">", AVar(counter), AInt(0)),
              Seq(body, Assign(counter, ABin("-", AVar(counter), AInt(1))))),
    )


def rand_uct_program(rng: random.Random, alg: Algebra, depth: int = 2) -> Program:
    parts = [rand_loopfree(rng, alg, depth)]
    if rng.random() < 0.7:
        parts.append(_counter_loop(rng, alg, depth - 1 if depth else 0))
    if rng.random() < 0.3:
        parts.append(rand_loopfree(rng, alg, 1))
    rng.shuffle(parts)
    out = parts[0]
    for p in parts[1:]:
        out = Seq(out, p)
    return out


def rand_looping_program(rng: random.Random, alg: Algebra, depth: int = 2) -> Program:
    """May or may not terminate; used for chain/divergence properties."""
    guard = rand_bool(rng, 1)
    body = rand_loopfree(rng, alg, depth)
    loop = While(guard, body)
    if rng.random() < 0.5:
        return Seq(rand_loopfree(rng, alg, 1), loop)
    return loop


def rand_nested_program(rng: random.Random, alg: Algebra, depth: int = 1) -> Program:
    """A loop whose body contains a loop, a `rand_looping_program` or a
    counter loop, next to a loop-free part; may or may not terminate."""
    if rng.random() < 0.5:
        inner = rand_looping_program(rng, alg, depth)
    else:
        inner = _counter_loop(rng, alg, depth)
    parts = [inner, rand_loopfree(rng, alg, depth)]
    rng.shuffle(parts)
    loop = While(rand_bool(rng, 1), Seq(*parts))
    if rng.random() < 0.5:
        return Seq(rand_loopfree(rng, alg, 1), loop)
    return loop


def rand_module_literal(rng: random.Random, alg: Algebra):
    name = alg.name
    if name == "boolean":
        return rng.random() < 0.6
    if name == "prob":
        return Fraction(rng.randint(0, 8), 4)
    if name == "counting" or name == "tropical":
        return INF if rng.random() < 0.1 else rng.randint(0, 6)
    if name == "arctic":
        return INF if rng.random() < 0.1 else rng.randint(0, 6)
    if name.startswith("lang:"):
        words = frozenset("".join(rng.choice(alg.alphabet) for _ in range(rng.randint(0, 2)))
                          for _ in range(rng.randint(0, 3)))
        return words
    if name.startswith("omegalang:"):
        items = []
        for _ in range(rng.randint(0, 2)):
            items.append("".join(rng.choice(alg.alphabet) for _ in range(rng.randint(0, 2))))
        if rng.random() < 0.5:
            period = "".join(rng.choice(alg.alphabet) for _ in range(rng.randint(1, 2)))
            prefix = "".join(rng.choice(alg.alphabet) for _ in range(rng.randint(0, 2)))
            items.append((prefix, period))
        return frozenset(items)
    raise ValueError(name)


def rand_module_value(rng: random.Random, alg: Algebra) -> ModuleValue:
    return alg.value(rand_module_literal(rng, alg))


def rand_weight(rng: random.Random, alg: Algebra):
    name = alg.name
    if name == "boolean":
        return alg.weight(rng.random() < 0.7)
    if name == "prob":
        return alg.weight(Fraction(rng.randint(0, 4), 4))
    if name.startswith(("lang:", "omegalang:")):
        return alg.weight("".join(rng.choice(alg.alphabet) for _ in range(rng.randint(0, 2))))
    return alg.weight(INF if rng.random() < 0.05 else rng.randint(0, 5))


def rand_weighting_expr(rng: random.Random, alg: Algebra):
    items = []
    for _ in range(rng.randint(1, 3)):
        guard = None if rng.random() < 0.4 else rand_bool(rng, 1)
        kind = rng.random()
        if kind < 0.25:
            term = TOne()
        elif kind < 0.35:
            term = TZero()
        elif alg.embeddable and kind < 0.75:
            term = TEmbed(_nonneg(rand_arith(rng, 1)))
        else:
            term = TLit(rand_module_literal(rng, alg))
        items.append(WGuarded(guard, term))
    return WSum(tuple(items))


def rand_state(rng: random.Random, lo: int = -3, hi: int = 4) -> State:
    return State({v: rng.randint(lo, hi) for v in VARS if rng.random() < 0.8})
