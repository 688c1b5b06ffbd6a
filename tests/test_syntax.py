"""Parsing, printing, states, and weighting evaluation."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wgcl.algebra import INF, algebra
from wgcl.operational import op_oracle
from wgcl.parser import (
    ParseError, parse_grid, parse_program, parse_state, parse_weighting, tokenize,
)
from wgcl.syntax import (
    MAX_INT_BITS, ABin, ACall, AInt, AVar, Assign, BAnd, BBool, BCmp, BNot, BOr, Branch,
    EvalError, ExprWeighting, Ite, Seq, State, TEmbed, TOne, TScale, TTop, Weigh, WEmbedInt,
    WGuarded, While, WLit, WSum,
    compile_arith, compile_bool, compile_program, compile_weight, eval_arith, eval_bool,
    eval_weight, compile_weighting, eval_weighting, fib, pack, print_program,
)
from wgcl.transformer import wp_eval

from genprog import (
    VARS, rand_arith, rand_bool, rand_loopfree, rand_state, rand_uct_program,
    rand_weight_expr, rand_weighting_expr,
)

EX49 = """@instance tropical
if(x>0){weigh 1; weigh 1} else {{weigh 2} [] {weigh 3}}"""


def test_parse_conditional_shape():
    parsed = parse_program(EX49)
    prog = parsed.program
    assert isinstance(prog, Ite)
    assert prog.guard == BCmp(">", AVar("x"), AInt(0))
    assert prog.then == Seq(Weigh(WLit(1)), Weigh(WLit(1)))
    assert prog.orelse == Branch(Weigh(WLit(2)), Weigh(WLit(3)))


def test_skip_is_weigh_one():
    parsed = parse_program("@instance tropical\nskip")
    assert parsed.program == Weigh(WLit(0))  # tropical one is the number 0
    parsed = parse_program("@instance lang:ab\nskip")
    assert parsed.program == Weigh(WLit(""))


def test_parse_loop_over_words():
    parsed = parse_program("@instance lang:ab\nwhile(true){weigh a}")
    prog = parsed.program
    assert isinstance(prog, While) and prog.body == Weigh(WLit("a"))


def test_weighted_choice_desugars():
    parsed = parse_program("@instance prob\n{x := 1} [1/3] (+) [2/3] {skip}")
    prog = parsed.program
    assert isinstance(prog, Branch)
    assert isinstance(prog.left, Seq) and isinstance(prog.left.first, Weigh)
    assert isinstance(prog.right, Seq) and isinstance(prog.right.first, Weigh)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_program("@instance tropical\nx := ;")
    assert "line 2" in str(err.value)
    with pytest.raises(ParseError):
        parse_program("@instance nosuch\nskip")
    with pytest.raises(ParseError):
        parse_program("@instance prob\nweigh 3/2")  # weight outside [0,1]
    with pytest.raises(ParseError):
        parse_program("@instance lang:ab\nweigh abc")
    with pytest.raises(ParseError):
        parse_program("skip")  # no pragma, no override


def test_tokens_are_pinned():
    text = ("x\t:=\r 1; # y := (+)\r\n"
            "  if (x != 2) {y := x} [] {weigh ab}\n"
            "[x<=1] 2 (+) [x>=0] one .. @")
    assert [tuple(t) for t in tokenize(text)] == [
        ("id", "x", 1, 1), (":=", ":=", 1, 3), ("num", "1", 1, 7), (";", ";", 1, 8),
        ("if", "if", 2, 3), ("(", "(", 2, 6), ("id", "x", 2, 7), ("!=", "!=", 2, 9),
        ("num", "2", 2, 12), (")", ")", 2, 13), ("{", "{", 2, 15), ("id", "y", 2, 16),
        (":=", ":=", 2, 18), ("id", "x", 2, 21), ("}", "}", 2, 22), ("[]", "[]", 2, 24),
        ("{", "{", 2, 27), ("weigh", "weigh", 2, 28), ("id", "ab", 2, 34), ("}", "}", 2, 36),
        ("[", "[", 3, 1), ("id", "x", 3, 2), ("<=", "<=", 3, 3), ("num", "1", 3, 5),
        ("]", "]", 3, 6), ("num", "2", 3, 8), ("(+)", "(+)", 3, 10), ("[", "[", 3, 14),
        ("id", "x", 3, 15), (">=", ">=", 3, 16), ("num", "0", 3, 18), ("]", "]", 3, 19),
        ("one", "one", 3, 21), ("..", "..", 3, 25), ("@", "@", 3, 28), ("eof", "", 3, 29),
    ]


@pytest.mark.parametrize("guard, expected", [
    # a group that reads as a comparison only once it closes
    ("((x + 1)) > 2", BCmp(">", ABin("+", AVar("x"), AInt(1)), AInt(2))),
    ("((x > 1))", BCmp(">", AVar("x"), AInt(1))),
    ("(x) = (y)", BCmp("=", AVar("x"), AVar("y"))),
    # `not` binds over `and` over `or`, a comparison under `not`
    ("not x > 1 and y = 2 or true",
     BOr(BAnd(BNot(BCmp(">", AVar("x"), AInt(1))), BCmp("=", AVar("y"), AInt(2))),
         BBool(True))),
])
def test_parenthesized_guards_are_pinned(guard, expected):
    parsed = parse_program(f"@instance tropical\nwhile ({guard}) {{ skip }}")
    assert parsed.program.guard == expected


@pytest.mark.parametrize("expr, expected", [
    ("- 3", AInt(-3)),  # a negative literal
    ("-(3)", ABin("-", AInt(0), AInt(3))),  # a negation
    ("x - -3", ABin("-", AVar("x"), AInt(-3))),
    ("-x * 2", ABin("*", ABin("-", AInt(0), AVar("x")), AInt(2))),  # minus binds over *
    ("min(x, (y))", ACall("min", (AVar("x"), AVar("y")))),
])
def test_unary_minus_and_groups_are_pinned(expr, expected):
    assert parse_program(f"@instance tropical\nx := {expr}").program == Assign("x", expected)


def test_embedding_and_scalar_weightings_are_pinned():
    trop = algebra("tropical")
    embed = ABin("+", ABin("*", AInt(2), ABin("-", AVar("x"), AInt(1))), AVar("y"))
    assert parse_weighting("2*(x-1)+y", trop) == WSum((WGuarded(None, TEmbed(embed)),))
    assert parse_weighting("2 * one", trop) == WSum((WGuarded(None, TScale(WLit(2), TOne())),))


@pytest.mark.parametrize("instance, post, expected", [
    ("counting", "2 * (one (+) int(x))", "8"),
    ("counting", "3 * int(x)", "9"),
    ("tropical", "2 * int(x)", "5"),
    ("tropical", "1 * (one (+) int(x))", "1"),
    ("arctic", "2 * int(x)", "5"),
    ("arctic", "3 * one", "3"),
    ("prob", "1/3 * (1/2 * one)", "1/6"),
    ("prob", "1/2 * ([x > 2] one (+) 1/4)", "5/8"),
    ("boolean", "false * top", "false"),
    ("boolean", "1 * one", "true"),
    ("lang:ab", "a * (b * {ab, eps})", "{ab,abab}"),
    ("lang:ab", "eps * {a}", "{a}"),
    ("omegalang:ab", "b * {a(b)^w, eps}", "{b,ba(b)^ω}"),
    ("omegalang:ab", "ab * one", "{ab}"),
])
def test_a_scalar_product_weighting_evaluates_alike_everywhere(instance, post, expected):
    # `w * term` evaluated, compiled, and read after `x := x + 1` by wp and
    # by the path oracle
    alg = algebra(instance)
    expr = parse_weighting(post, alg)
    assert isinstance(expr.items[0].term, TScale)
    value = eval_weighting(expr, State({"x": 3}), alg)
    assert alg.format_value(value) == expected
    assert compile_weighting(expr, alg, ("x",))((3,)) == value.value
    step = parse_program(f"@instance {instance}\nx := x + 1").program
    f, sigma = ExprWeighting(alg, expr), State({"x": 2})
    for res in (wp_eval(step, f, sigma, alg), op_oracle(step, sigma, f, alg)):
        assert res.exact and res.value == value


def test_word_set_sugar_and_literal_weights():
    om = algebra("omegalang:ab")
    lit = parse_weighting("{eps, a^w, b(ab)^w}", om)
    assert om.format_value(eval_weighting(lit, State({}), om)) == "{ε,(a)^ω,(ba)^ω}"
    for instance, weight, raw in (("lang:ab", "eps", ""), ("omegalang:ab", "eps", ""),
                                  ("counting", "inf", INF), ("tropical", "inf", INF),
                                  ("boolean", "1", True)):
        assert parse_program(f"@instance {instance}\nweigh {weight}").program == Weigh(WLit(raw))


def test_arithmetic_guard_names_the_missing_comparison():
    with pytest.raises(ParseError) as err:
        parse_program("@instance tropical\nif (x + 1) { skip } else { skip }")
    assert str(err.value) == "line 2, col 10: expected a comparison operator"


_LEXEMES = ["x", "ab", "while", "fib", "0", "42", ":=", "..", "[]", "(+)", "!=", "<=",
            ">=", "(", "[", "-", "^", "@", "|", " ", "\t", "\r", "\n", "# c\n", "#"]


@given(st.lists(st.sampled_from(_LEXEMES), max_size=30).map("".join))
def test_token_positions_point_at_their_lexemes(text):
    lines = text.split("\n")
    tokens = tokenize(text)
    for tok in tokens:
        start = tok.col - 1
        assert lines[tok.line - 1][start:start + len(tok.lexeme)] == tok.lexeme
    # the eof token sits just past the end of the last line
    assert tokens[-1][1:] == ("", len(lines), len(lines[-1]) + 1)


def test_bad_character_after_a_comment_reports_its_position():
    with pytest.raises(ParseError) as err:
        tokenize("x := 1;\n# a $ in a comment\n\ty := 2 $")
    assert (err.value.line, err.value.col) == (3, 9)
    assert str(err.value) == "line 3, col 9: unexpected character '$'"


def test_instance_override():
    parsed = parse_program("@instance tropical\nweigh 2", instance="counting")
    assert parsed.algebra.name == "counting"


def test_word_exponent_sugar_desugars_to_a_loop():
    parsed = parse_program("@instance lang:ab\nweigh ab^x")
    prog = parsed.program
    assert isinstance(prog, Seq) and isinstance(prog.second, While)
    # the lowering numbers the fresh counter with the program's variables
    assert prog.names == ("_pow0", "x")
    # the sugar needs a word instance
    with pytest.raises(ParseError):
        parse_program("@instance tropical\nweigh a^x")


def test_roundtrip_examples_and_random_programs():
    rng = random.Random(5)
    for name in ("tropical", "counting", "prob", "lang:ab", "omegalang:ab",
                 "boolean", "arctic"):
        alg = algebra(name)
        for _ in range(30):
            prog = rand_uct_program(rng, alg) if rng.random() < 0.5 \
                else rand_loopfree(rng, alg)
            printed = print_program(prog, alg)
            again = parse_program(printed, instance=name)
            assert again.program == prog, printed


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------

def test_state_update_examples():
    assert State({"x": 2}).set("x", 3) == State({"x": 3})
    assert State({}).set("y", 0) == State({})
    assert State({}).set("y", 0).items() == ()
    assert State({"x": 1}).set("y", 7) == State({"x": 1, "y": 7})


def test_state_lookup_total():
    sigma = State({"x": 2})
    assert sigma.get("nope") == 0


@given(st.dictionaries(st.sampled_from(("a", "b", "c")), st.integers(-5, 5)),
       st.sampled_from(("a", "b", "c")), st.integers(-5, 5))
def test_state_update_reads_back(mapping, var, value):
    sigma = State(mapping)
    tau = sigma.set(var, value)
    assert tau.get(var) == value
    for other in mapping:
        if other != var:
            assert tau.get(other) == sigma.get(other)
    # original untouched
    assert sigma.get(var) == mapping.get(var, 0)


@given(st.dictionaries(st.sampled_from(("b", "d", "f")), st.integers(-2, 2)),
       st.sampled_from(("a", "b", "c", "d", "e", "f", "g")), st.integers(-2, 2))
def test_state_update_is_a_fresh_state(mapping, var, value):
    # the update splices into the sorted items: the same items, zeros
    # dropped, and the same hash as building the state anew
    tau = State(mapping).set(var, value)
    fresh = State({**mapping, var: value})
    assert tau.items() == fresh.items()
    assert hash(tau) == hash(fresh) and tau == fresh
    assert type(tau) is State
    # a state is a tuple of its sorted pairs: it hashes in C, to the hash
    # of those pairs
    assert "__hash__" not in State.__dict__
    assert hash(State(mapping)) == hash(tuple(sorted((k, v) for k, v in mapping.items() if v)))


def test_parse_state_and_grid():
    assert parse_state("x=2,y=-3") == State({"x": 2, "y": -3})
    assert parse_state("") == State({})
    names, states = parse_grid("y=0..1,x=5")
    assert names == ("x", "y")
    assert states == [State({"x": 5, "y": 0}), State({"x": 5, "y": 1})]
    with pytest.raises(ParseError):
        parse_grid("x=0..999999")  # over the default cap? no: cap is 1e5
    names, states = parse_grid("x=-2..2")
    assert [s.get("x") for s in states] == [-2, -1, 0, 1, 2]


def test_grid_cap():
    with pytest.raises(ParseError):
        parse_grid("x=0..1000,y=0..1000", cap=1000)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def test_eval_weighting_examples():
    arc = algebra("arctic")
    expr = parse_weighting("[x>0] 2*(x-1)+y", arc)
    assert eval_weighting(expr, State({"x": 2, "y": 3}), arc) == arc.value(5)
    # below the guard nothing is added: the module zero
    assert eval_weighting(expr, State({"x": 0, "y": 3}), arc) == arc.mod_zero()
    zero = parse_weighting("zero", arc)
    for sigma in (State({}), State({"x": 9})):
        assert eval_weighting(zero, sigma, arc) == arc.mod_zero()
    assert not eval_bool(BCmp(">", AVar("x"), AInt(0)), State({"x": 0}))


def test_eval_weighting_single_guard_reduces_to_term():
    cnt = algebra("counting")
    expr = parse_weighting("[x>=0] int(x+1)", cnt)
    rng = random.Random(3)
    for _ in range(20):
        sigma = rand_state(rng, lo=0)
        assert eval_weighting(expr, sigma, cnt) == cnt.value(sigma.get("x") + 1)


def test_eval_weighting_overlapping_guards_add():
    cnt = algebra("counting")
    expr = parse_weighting("int(1) (+) [x>=8] int(1) (+) [x>=13] int(1)", cnt)
    assert eval_weighting(expr, State({"x": 0}), cnt) == cnt.value(1)
    assert eval_weighting(expr, State({"x": 8}), cnt) == cnt.value(2)
    assert eval_weighting(expr, State({"x": 13}), cnt) == cnt.value(3)


def test_negative_embedding_is_reported():
    trop = algebra("tropical")
    expr = parse_weighting("int(x-5)", trop)
    with pytest.raises(EvalError):
        eval_weighting(expr, State({"x": 0}), trop)
    # guarded away it never evaluates
    guarded = parse_weighting("[x>=5] int(x-5)", trop)
    assert eval_weighting(guarded, State({"x": 0}), trop) == trop.mod_zero()


def test_embed_requires_embeddable_instance():
    with pytest.raises(ParseError):
        parse_weighting("int(1)", algebra("prob"))
    with pytest.raises(ParseError):
        parse_program("@instance boolean\nweigh int(x)")


def test_fib_builtin():
    assert [fib(n) for n in range(8)] == [0, 1, 1, 2, 3, 5, 8, 13]
    assert fib(-3) == 0


def test_boolean_precedence_not_over_and_over_or():
    expr = parse_weighting("[not x = 1 and y = 0 or z = 2] one", algebra("counting"))
    guard = expr.items[0].guard
    # or at the top, and below it, not innermost
    assert eval_bool(guard, State({"x": 0, "y": 0})) is True     # not(x=1) and y=0
    assert eval_bool(guard, State({"x": 1, "y": 0})) is False
    assert eval_bool(guard, State({"x": 1, "z": 2})) is True     # or z=2


def _outcome(fn, *args):
    """What a call gives: its value, or the message of its EvalError (or
    the type of any other exception)."""
    try:
        return "value", fn(*args)
    except EvalError as exc:
        return "error", str(exc)
    except Exception as exc:  # huge values can fail to print in a message
        return "exception", type(exc).__name__


def _raw_weight(w, sigma: State, alg):
    """`eval_weight`'s weight, raw, as a compiled `weigh` gives it."""
    return eval_weight(w, sigma, alg).value


def _rand_big_state(rng: random.Random) -> State:
    # values of 20001 or 40001 bits: some products of two stay within
    # MAX_INT_BITS, and every product of two 40001-bit values exceeds it
    return State({v: rng.choice((-1, 1)) * 2 ** rng.choice((20000, 40000)) for v in VARS})


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_compiled_expressions_equal_the_reference_evaluator(seed):
    # the closures `compile_program` puts on each node, and the one an
    # `ExprWeighting` builds, give what the interpretive evaluators give:
    # the same values, and the same EvalErrors
    rng = random.Random(seed)
    e, e2, b = rand_arith(rng, 3), rand_arith(rng, 3), rand_bool(rng, 3)
    ite = compile_program(Seq(Ite(b, Assign("x", e), Weigh(WEmbedInt(e2))),
                              While(b, Assign("y", e))))
    assign, weigh, loop = ite.then, ite.orelse, ite.next
    name = rng.choice(("tropical", "counting", "arctic", "prob", "lang:ab", "boolean",
                       "omegalang:ab"))
    alg = algebra(name)
    w = rand_weighting_expr(rng, alg)
    # the generated sum, a scaled copy of it, and it beside a guarded `top`
    # (which lang has not: raised only where the guard holds)
    ws = (w, WSum((WGuarded(None, TScale(rand_weight_expr(rng, alg), w)),)),
          WSum((WGuarded(rand_bool(rng, 1), TTop()),) + w.items))
    posts = [ExprWeighting(alg, x) for x in ws]
    keyed = [post.keyed(ite.names, alg) for post in posts]  # raw, as a query reads it
    trop = algebra("tropical")
    for _ in range(6):
        sigma = rand_state(rng) if rng.random() < 0.7 else _rand_big_state(rng)
        key = pack(sigma, ite.names)  # what the node closures read
        assert _outcome(ite.guard, key) == _outcome(eval_bool, b, sigma)
        assert _outcome(loop.guard, key) == _outcome(eval_bool, b, sigma)
        assert _outcome(assign.rhs, key) == _outcome(eval_arith, e, sigma)
        assert (_outcome(weigh.weight, key, trop)
                == _outcome(_raw_weight, WEmbedInt(e2), sigma, trop))
        for x, post, (pack_key, at) in zip(ws, posts, keyed):
            assert _outcome(post.at, sigma) == _outcome(eval_weighting, x, sigma, alg)
            assert (_outcome(lambda: at(pack_key(sigma)))
                    == _outcome(lambda: eval_weighting(x, sigma, alg).value))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32),
       st.dictionaries(st.sampled_from(VARS), st.sampled_from(
           (0, 1, -2, 3, MAX_INT_BITS + 1, 2 ** 20000, -2 ** 40000))),
       st.lists(st.sampled_from(VARS + ("w",)), unique=True))
def test_closures_over_slots_equal_the_evaluators_over_states(seed, values, extra):
    # a closure compiled over slots, read at the key of a state, gives what
    # the evaluator gives at the state: the same value or the same EvalError
    # (the product and fib bounds), also where the state omits a variable,
    # sets it to 0, or the slots hold variables the expression does not read
    rng = random.Random(seed)
    e = rand_arith(rng, 3)
    if rng.random() < 0.3:
        e = ACall("fib", (e,))
    sigma, trop = State(values), algebra("tropical")
    for expr, compile_expr, evaluate, args in (
            (e, compile_arith, eval_arith, ()),
            (rand_bool(rng, 3), compile_bool, eval_bool, ()),
            (WEmbedInt(rand_arith(rng, 2)), compile_weight, _raw_weight, (trop,))):
        names = list(extra)  # the expression's other variables take the next slots
        closure = compile_expr(expr, names)
        assert (_outcome(closure, pack(sigma, names), *args)
                == _outcome(evaluate, expr, sigma, *args)), (expr, sigma, names)


def test_compiled_expressions_keep_bounds_and_evaluation_order():
    half = 2 ** (MAX_INT_BITS // 2 - 1)  # MAX_INT_BITS / 2 bits
    x, y = AVar("x"), AVar("y")
    product = ABin("*", x, y)
    overflows = BCmp(">", product, AInt(0))
    fib_x = ACall("fib", (x,))
    at_bound = State({"x": half, "y": half})
    beyond = State({"x": 2 * half, "y": half})
    cases = [
        # a product of exactly MAX_INT_BITS bits is allowed, one more is not
        (compile_arith, eval_arith, product, at_bound, ("value", half * half)),
        (compile_arith, eval_arith, product, beyond,
         ("error", f"a product exceeds {MAX_INT_BITS} bits")),
        (compile_arith, eval_arith, fib_x, State({"x": MAX_INT_BITS + 1}),
         ("error", f"fib argument {MAX_INT_BITS + 1} exceeds {MAX_INT_BITS}")),
        (compile_arith, eval_arith, fib_x, State({"x": 30}), ("value", 832040)),
        # `and` and `or` short-circuit: the product is never evaluated
        (compile_bool, eval_bool, BAnd(BBool(False), overflows), beyond, ("value", False)),
        (compile_bool, eval_bool, BOr(BBool(True), overflows), beyond, ("value", True)),
        (compile_bool, eval_bool, BAnd(BBool(True), overflows), beyond,
         ("error", f"a product exceeds {MAX_INT_BITS} bits")),
        # a comparison evaluates both sides, the left one first
        (compile_bool, eval_bool, BCmp("<", AInt(0), product), beyond,
         ("error", f"a product exceeds {MAX_INT_BITS} bits")),
        (compile_bool, eval_bool, BCmp("<", ACall("fib", (AInt(MAX_INT_BITS + 1),)), product),
         beyond, ("error", f"fib argument {MAX_INT_BITS + 1} exceeds {MAX_INT_BITS}")),
        # a product with a constant factor: exactly MAX_INT_BITS bits, then one more
        (compile_arith, eval_arith, ABin("*", x, AInt(3)),
         State({"x": 2 ** (MAX_INT_BITS - 3)}), ("value", 3 * 2 ** (MAX_INT_BITS - 3))),
        (compile_arith, eval_arith, ABin("*", x, AInt(3)), State({"x": 2 ** (MAX_INT_BITS - 2)}),
         ("error", f"a product exceeds {MAX_INT_BITS} bits")),
        # a zero factor does not lift the bound
        (compile_arith, eval_arith, ABin("*", AInt(0), x), State({"x": 2 ** 70000}),
         ("error", f"a product exceeds {MAX_INT_BITS} bits")),
        (compile_arith, eval_arith, ABin("*", x, AInt(0)), State({"x": 2 ** 70000}),
         ("error", f"a product exceeds {MAX_INT_BITS} bits")),
        # a product of two constants is not folded: past the bound it
        # compiles, and raises where it is evaluated
        (compile_arith, eval_arith, ABin("*", AInt(2 ** 40000), AInt(2 ** 40000)), at_bound,
         ("error", f"a product exceeds {MAX_INT_BITS} bits")),
        # folded operators around an unfolded one
        (compile_arith, eval_arith, ABin("-", ACall("max", (AInt(2), AInt(-3))),
                                         ABin("+", AInt(4), x)), at_bound, ("value", -2 - half)),
        (compile_bool, eval_bool, BCmp("<=", ABin("+", AInt(1), AInt(2)), AInt(3)), beyond,
         ("value", True)),
        # `and`/`or` with a constant operand: the short circuit and the
        # error order stay, and a constant right operand still comes last
        (compile_bool, eval_bool, BOr(BBool(False), overflows), beyond,
         ("error", f"a product exceeds {MAX_INT_BITS} bits")),
        (compile_bool, eval_bool, BAnd(BNot(BBool(True)), overflows), beyond, ("value", False)),
        (compile_bool, eval_bool, BAnd(overflows, BBool(False)), beyond,
         ("error", f"a product exceeds {MAX_INT_BITS} bits")),
        (compile_bool, eval_bool, BOr(overflows, BBool(True)), beyond,
         ("error", f"a product exceeds {MAX_INT_BITS} bits")),
        (compile_bool, eval_bool, BAnd(overflows, BBool(True)), at_bound, ("value", True)),
        (compile_bool, eval_bool, BOr(BCmp("<", product, AInt(0)), BBool(False)), at_bound,
         ("value", False)),
    ]
    names = ("x", "y")  # the closures read a key over these slots
    for compile_expr, evaluate, expr, sigma, expected in cases:
        assert _outcome(evaluate, expr, sigma) == expected, expr
        assert _outcome(compile_expr(expr, names), pack(sigma, names)) == expected, expr
    # a weighting's own variables take the next slots as they are read, left
    # to right, also beside a subterm that is folded away
    layout = []
    expr = parse_weighting("int(min(3, 1) * y + z)", algebra("counting"))
    at = compile_weighting(expr, algebra("counting"), layout)
    assert layout == ["y", "z"] and at((4, 5)) == 9
    layout = []
    compile_bool(BAnd(BBool(False), BCmp(">", AVar("w"), AVar("v"))), layout)
    assert layout == ["w", "v"]


def test_lowering_shares_equal_arms_and_links_the_loop_after_a_loop():
    def entry(body: str):
        return compile_program(parse_program(f"@instance tropical\n{body}").program)

    inner = "while (b > 0) { b := b - 1 }"
    first = entry(f"while (a > 0) {{ a := a - 1 }}; {inner}")
    assert isinstance(first.next.stmt, While)
    # equal arms share one node
    shared = entry(f"while (a > 0) {{ {{ {inner} }} [] {{ {inner} }}; a := a - 1 }}")
    arms = shared.then
    assert arms.then is arms.orelse


# ---------------------------------------------------------------------------
# Sugar laws, checked through the transformer
# ---------------------------------------------------------------------------

def test_skip_is_identity_for_wp():
    rng = random.Random(9)
    for name in ("tropical", "counting", "lang:ab", "prob"):
        alg = algebra(name)
        skip = parse_program(f"@instance {name}\nskip").program
        from genprog import rand_weighting_expr
        for _ in range(10):
            f = ExprWeighting(alg, rand_weighting_expr(rng, alg))
            sigma = rand_state(rng)
            res = wp_eval(skip, f, sigma, alg)
            assert res.exact and res.value == f.at(sigma)


def test_weighted_choice_matches_desugared_form():
    alg = algebra("prob")
    sugar = parse_program("@instance prob\n{x := x+1} [1/3] (+) [2/3] {x := 0}").program
    desugared = Branch(
        Seq(Weigh(WLit(Fraction(1, 3))), Assign("x", ABin("+", AVar("x"), AInt(1)))),
        Seq(Weigh(WLit(Fraction(2, 3))), Assign("x", AInt(0))),
    )
    assert sugar == desugared  # expanded at parse time
    rng = random.Random(21)
    f = ExprWeighting(alg, parse_weighting("one", alg))
    for _ in range(10):
        sigma = rand_state(rng)
        assert wp_eval(sugar, f, sigma, alg).value == wp_eval(desugared, f, sigma, alg).value
