"""Seeded generator of looping wgcl programs, postweightings and states.

The benchmark keeps its own generator, so a change to the test suite's
generators cannot shift the benchmark's inputs.  Programs come out twice:
as `.wgcl` text, which the program under test parses, and as the tuple
AST below, which `reference.py` evaluates independently.

Tuple AST:
    arith   ("int", n) | ("var", x) | ("bin", op, l, r) | ("call", fn, l, r)
    bool    ("cmp", op, l, r) | ("not", b) | ("and", l, r) | ("or", l, r)
    weight  ("wlit", raw) | ("wint", arith)
    stmt    ("assign", x, e) | ("weigh", w) | ("seq", a, b) | ("branch", a, b)
            | ("ite", b, a, c) | ("while", b, body)
    post    tuple of (guard or None, term), term ("zero",) | ("one",)
            | ("embed", arith) | ("lit", raw)

The shape follows the usual random looping program: one loop whose guard
and body are random, sometimes after a loop-free prefix.  Integer
embeddings are wrapped in max(e, 0) so they stay in the extended naturals.
"""

from __future__ import annotations

import random
from fractions import Fraction

INSTANCES = ("boolean", "counting", "tropical", "arctic", "prob")
VARS = ("x", "y", "z")
EMBEDDABLE = ("counting", "tropical", "arctic")


def _arith(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.4:
        if rng.random() < 0.5:
            return ("int", rng.randint(-2, 3))
        return ("var", rng.choice(VARS))
    op = rng.choice(("+", "-", "*", "min", "max"))
    left, right = _arith(rng, depth - 1), _arith(rng, depth - 1)
    if op == "*":
        # a constant factor: a loop that squares a variable would double its
        # digits every pass, and no node budget bounds that time
        return ("bin", op, left, ("int", rng.randint(-2, 3)))
    if op in ("min", "max"):
        return ("call", op, left, right)
    return ("bin", op, left, right)


def _bool(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.5:
        op = rng.choice(("=", "!=", "<", "<=", ">", ">="))
        return ("cmp", op, _arith(rng, 1), _arith(rng, 1))
    kind = rng.random()
    if kind < 0.2:
        return ("not", _bool(rng, depth - 1))
    if kind < 0.6:
        return ("and", _bool(rng, depth - 1), _bool(rng, depth - 1))
    return ("or", _bool(rng, depth - 1), _bool(rng, depth - 1))


def _nonneg(e):
    return ("call", "max", e, ("int", 0))


def _weight(rng: random.Random, inst: str):
    if inst == "boolean":
        return ("wlit", rng.random() < 0.8)
    if inst == "prob":
        return ("wlit", Fraction(rng.randint(0, 4), 4))
    if rng.random() < 0.3:
        return ("wint", _nonneg(_arith(rng, 1)))
    return ("wlit", rng.randint(0, 3))


def _loopfree(rng: random.Random, inst: str, depth: int):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.45:
            return ("assign", rng.choice(VARS), _arith(rng, 2))
        return ("weigh", _weight(rng, inst))
    kind = rng.random()
    if kind < 0.4:
        return ("seq", _loopfree(rng, inst, depth - 1), _loopfree(rng, inst, depth - 1))
    if kind < 0.7:
        return ("branch", _loopfree(rng, inst, depth - 1), _loopfree(rng, inst, depth - 1))
    return ("ite", _bool(rng, 1), _loopfree(rng, inst, depth - 1),
            _loopfree(rng, inst, depth - 1))


def looping_program(rng: random.Random, inst: str):
    loop = ("while", _bool(rng, 1), _loopfree(rng, inst, 2))
    if rng.random() < 0.5:
        return ("seq", _loopfree(rng, inst, 1), loop)
    return loop


def _literal(rng: random.Random, inst: str):
    if inst == "prob":
        return Fraction(rng.randint(0, 8), 4)
    return "inf" if rng.random() < 0.1 else rng.randint(0, 6)


def postweighting(rng: random.Random, inst: str):
    items = []
    for _ in range(rng.randint(1, 3)):
        guard = None if rng.random() < 0.4 else _bool(rng, 1)
        kind = rng.random()
        if kind < 0.25:
            term = ("one",)
        elif kind < 0.35:
            term = ("zero",)
        elif inst in EMBEDDABLE and kind < 0.75:
            term = ("embed", _nonneg(_arith(rng, 1)))
        elif inst == "boolean":  # the weighting grammar has no truth literals
            term = ("one",) if rng.random() < 0.6 else ("zero",)
        else:
            term = ("lit", _literal(rng, inst))
        items.append((guard, term))
    return tuple(items)


def state(rng: random.Random) -> dict[str, int]:
    return {v: rng.randint(-3, 4) for v in VARS}


# ---------------------------------------------------------------------------
# Text
# ---------------------------------------------------------------------------

def arith_text(e) -> str:
    tag = e[0]
    if tag == "int":
        return str(e[1])
    if tag == "var":
        return e[1]
    if tag == "bin":
        return f"({arith_text(e[2])} {e[1]} {arith_text(e[3])})"
    return f"{e[1]}({arith_text(e[2])}, {arith_text(e[3])})"


def bool_text(b) -> str:
    tag = b[0]
    if tag == "cmp":
        return f"{arith_text(b[2])} {b[1]} {arith_text(b[3])}"
    if tag == "not":
        return f"not ({bool_text(b[1])})"
    return f"({bool_text(b[1])}) {tag} ({bool_text(b[2])})"


def _raw_text(raw) -> str:
    if isinstance(raw, bool):
        return "true" if raw else "false"
    return str(raw)


def _weight_text(w) -> str:
    if w[0] == "wint":
        return f"int({arith_text(w[1])})"
    return _raw_text(w[1])


def program_text(p) -> str:
    tag = p[0]
    if tag == "assign":
        return f"{p[1]} := {arith_text(p[2])}"
    if tag == "weigh":
        return f"weigh {_weight_text(p[1])}"
    if tag == "seq":
        return f"{{ {program_text(p[1])} }}; {{ {program_text(p[2])} }}"
    if tag == "branch":
        return f"{{ {program_text(p[1])} }} [] {{ {program_text(p[2])} }}"
    if tag == "ite":
        return (f"if ({bool_text(p[1])}) {{ {program_text(p[2])} }} "
                f"else {{ {program_text(p[3])} }}")
    return f"while ({bool_text(p[1])}) {{ {program_text(p[2])} }}"


def file_text(inst: str, p) -> str:
    return f"@instance {inst}\n{program_text(p)}\n"


def post_text(post) -> str:
    parts = []
    for guard, term in post:
        kind = term[0]
        if kind in ("zero", "one"):
            body = kind
        elif kind == "embed":
            body = f"int({arith_text(term[1])})"
        else:
            body = _raw_text(term[1])
        parts.append(body if guard is None else f"[{bool_text(guard)}] {body}")
    return " (+) ".join(parts)


def state_text(sigma: dict[str, int]) -> str:
    return ",".join(f"{k}={v}" for k, v in sorted(sigma.items()))


def generate(seed: int, n_per_instance: int, keep):
    """Cases (instance, program, postweighting, state) drawn from the seed
    until every instance holds `n_per_instance` cases that `keep` accepts;
    the others are dropped.  Instances take turns; the result is shuffled."""
    rng = random.Random(seed)
    left = dict.fromkeys(INSTANCES, n_per_instance)
    out = []
    i = 0
    while any(left.values()):
        inst = INSTANCES[i % len(INSTANCES)]
        i += 1
        case = (inst, looping_program(rng, inst), postweighting(rng, inst), state(rng))
        if left[inst] and keep(case):
            left[inst] -= 1
            out.append(case)
    rng.shuffle(out)
    return out
