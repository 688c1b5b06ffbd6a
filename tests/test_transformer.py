"""Preweighting transformers: worked examples and healthiness laws."""

import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wgcl import operational, transformer
from wgcl.algebra import INF, MismatchError, ModuleValue, NoTopError, algebra
from wgcl.operational import (
    BudgetError, DivergenceError, certainly_terminates, enumerate_paths, olp_oracle, op_oracle,
    uct_check,
)
from wgcl.parser import parse_program, parse_weighting
from wgcl.syntax import (
    AInt, Assign, Branch, EvalError, ExprWeighting, FnWeighting, Seq, State, Statement,
    TableWeighting, Weigh, While, WLit, compile_program, flatten_seq, print_program,
)
from wgcl.transformer import (
    CertificationError, Engine, LiberalEngine, NotALoopError, apply_char_fn, as_weighting,
    char_fn, check_decomposition, check_fixed_point, check_subinvariant,
    check_superinvariant, wlp_eval, wp_eval,
)

from genprog import (
    rand_loopfree, rand_looping_program, rand_nested_program, rand_state,
    rand_uct_program, rand_weight, rand_weighting_expr,
)

TROP = algebra("tropical")
CNT = algebra("counting")


def prog(text, instance=None):
    return parse_program(text, instance)


def weighting(text, alg):
    return ExprWeighting(alg, parse_weighting(text, alg))


EX49 = prog("@instance tropical\nif(x>0){weigh 1; weigh 1} else {{weigh 2} [] {weigh 3}}")
EX410 = prog("@instance tropical\nwhile(x=2){ {x := 3; weigh 5} [] {skip} }")
EX411 = prog("@instance omegalang:ab\nwhile(x=1){ {x := 0; weigh a} [] {weigh b} }")
SKI_ND = prog("@instance tropical\nwhile(n>0){ n := n-1; {weigh 1} [] {weigh int(y); n := 0} }")
E55 = prog("@instance arctic\nwhile(x>0 and y>0){ { {x := x-1; y := y+1} [] {y := y-1} }; weigh 1 }")
E55_INV = "[x>0 and y>0] 2*(x-1)+y (+) [not(x>0 and y>0)] int(0)"
FIB = prog("@instance counting\nm := 0; c := 0; "
           "while(n>0){ n := n-1; {c := 0} [] {c := c+1; m := max(m,c)} }")
FIB_LOOP = FIB.program.second.second
FIB_POST = "[m<=1] int(1)"
FIB_INV = "[m<=1 and c=0] int(fib(n+2)) (+) [m<=1 and c>0] int(fib(n+1))"


# ---------------------------------------------------------------------------
# wp examples
# ---------------------------------------------------------------------------

def test_wp_tropical_conditional_everywhere_two():
    for x in range(-3, 4):
        res = wp_eval(EX49.program, "one", State({"x": x}), TROP)
        assert res.value == TROP.value(2) and res.exact


def test_wp_ski_rental_is_min():
    for n, y, want in ((3, 5, 3), (7, 5, 5), (0, 9, 0), (4, 0, 0)):
        res = wp_eval(SKI_ND.program, "one", State({"n": n, "y": y}), TROP)
        assert res.exact and res.value == TROP.value(want)


def test_wp_empty_language_loop_certified_by_fixed_point():
    lang = algebra("lang:ab")
    loop = prog("@instance lang:ab\nwhile(true){weigh a}").program
    res = wp_eval(loop, "one", State({}), lang)
    assert res.value == lang.mod_zero() and res.exact


def test_wp_fuel_exhaustion_is_flagged_not_raised():
    cnt_loop = prog("@instance counting\nwhile(x>0){ {x := x-1} [] {skip} }")
    res = wp_eval(cnt_loop.program, "one", State({"x": 1}), cnt_loop.algebra, fuel=5)
    assert not res.exact  # infinitely many terminating paths: a lower bound


def test_wp_loop_state_budget_errors():
    grower = prog("@instance tropical\nwhile(x>0){x := x+1}")
    with pytest.raises(BudgetError):
        wp_eval(grower.program, "one", State({"x": 1}), TROP, fuel=200, node_budget=20)


# ---------------------------------------------------------------------------
# wlp examples
# ---------------------------------------------------------------------------

def test_wlp_divergence_beats_paid_exit():
    wp_res = wp_eval(EX410.program, "int(0)", State({"x": 2}), TROP)
    assert wp_res.value == TROP.value(5) and wp_res.exact
    for method in ("chain", "lasso", "auto"):
        res = wlp_eval(EX410.program, "int(0)", State({"x": 2}), TROP, method=method)
        assert res.value == TROP.value(0) and res.exact, method


def test_wlp_language_lasso():
    res = wlp_eval(EX411.program, "zero", State({"x": 1}), EX411.algebra)
    assert res.value == EX411.algebra.value({("", "b")}) and res.exact


@pytest.mark.parametrize("name", ["counting", "prob", "lang:ab"])
def test_lasso_without_a_divergence_analysis_fails_before_any_walk(name, monkeypatch):
    # these instances have no exact divergence analysis: the lasso says so
    # before its wp part or a quotient walk runs, and `auto` keeps the chain
    alg = algebra(name)
    loop = prog("@instance tropical\nwhile(x>0){ {x := x-1} [] {x := x+1} }", name).program
    f, sigma = weighting("zero", alg), State({"x": 1})
    chain = LiberalEngine(alg, method="chain").run(loop, f, sigma) if alg.has_top else None

    def walk(*_args):
        raise AssertionError("walked")

    monkeypatch.setattr(operational, "build_quotient", walk)
    if chain is not None:
        assert LiberalEngine(alg).run(loop, f, sigma) == chain
    monkeypatch.setattr(Engine, "run", walk)
    with pytest.raises(DivergenceError, match=f"{name}: no exact divergence analysis"):
        LiberalEngine(alg, method="lasso").run(loop, f, sigma)


def test_wlp_equals_wp_on_uct_programs():
    rng = random.Random(53)
    for name in ("boolean", "counting", "tropical", "arctic", "prob"):
        alg = algebra(name)
        for _ in range(10):
            p = rand_uct_program(rng, alg)
            sigma = rand_state(rng)
            assert uct_check(p, sigma, alg).certain
            f = ExprWeighting(alg, rand_weighting_expr(rng, alg))
            a = wp_eval(p, f, sigma, alg)
            b = wlp_eval(p, f, sigma, alg, method="chain")
            assert a.exact and b.exact
            assert a.value == b.value


def test_wlp_without_top_reports_it():
    lang = algebra("lang:ab")
    loop = prog("@instance lang:ab\nwhile(true){weigh a}").program
    from wgcl.algebra import NoTopError
    with pytest.raises(NoTopError):
        wlp_eval(loop, "zero", State({}), lang, method="chain")


def test_wlp_leq_one_mode_probability():
    # fair geometric stopper, almost-surely but not certainly terminating:
    # the constant one is a genuine fixed point, so wlp(one) = 1 exactly,
    # while the divergence weight wlp(zero) keeps halving and stays a
    # flagged upper bound
    geo = prog("@instance prob\nwhile(x=1){ {x := 0} [1/2] (+) [1/2] {skip} }")
    res = wlp_eval(geo.program, "one", State({"x": 1}), geo.algebra,
                   mode="gfp_leq_one", method="chain", fuel=12)
    assert res.exact and res.value == geo.algebra.value(1)
    div = wlp_eval(geo.program, geo.algebra.mod_zero(), State({"x": 1}), geo.algebra,
                   mode="gfp_leq_one", method="chain", fuel=12)
    assert not div.exact
    assert 0 <= div.value.value <= Fraction(1, 2) ** 10
    # on a UCT probability loop the mode is exact and agrees with wp
    ladder = prog("@instance prob\nwhile(x>0){ {x := x-1} [1/2] (+) [1/2] {x := 0} }")
    res = wlp_eval(ladder.program, "one", State({"x": 3}), ladder.algebra,
                   mode="gfp_leq_one", method="chain")
    wp_res = wp_eval(ladder.program, "one", State({"x": 3}), ladder.algebra)
    assert res.exact and res.value == wp_res.value == ladder.algebra.value(1)


# ---------------------------------------------------------------------------
# soundness against the operational oracle
# ---------------------------------------------------------------------------

def test_wp_matches_op_oracle_on_uct_programs():
    rng = random.Random(59)
    instances = ("boolean", "counting", "tropical", "arctic", "prob", "lang:ab")
    count = 0
    while count < 50:
        alg = algebra(instances[count % len(instances)])
        p = rand_uct_program(rng, alg)
        sigma = rand_state(rng)
        if not uct_check(p, sigma, alg).certain:
            continue
        count += 1
        f = ExprWeighting(alg, rand_weighting_expr(rng, alg))
        trans = wp_eval(p, f, sigma, alg)
        oracle = op_oracle(p, sigma, f, alg, fuel=128)
        assert trans.exact and oracle.exact
        assert trans.value == oracle.value, (alg.name, p, sigma)


def test_wlp_zero_matches_liberal_oracle_on_examples():
    for parsed, sigma in ((EX410, State({"x": 2})), (EX411, State({"x": 1}))):
        alg = parsed.algebra
        res = wlp_eval(parsed.program, alg.mod_zero(), sigma, alg)
        oracle = olp_oracle(parsed.program, sigma, weighting("zero", alg), alg, fuel=24)
        assert res.exact and oracle.exact
        assert res.value == oracle.value


def test_wlp_matches_liberal_oracle_on_random_looping_programs():
    # the oracle reads the postweighting: exact olp(f) and wlp(f) coincide
    rng = random.Random(211)
    names = HEALTHY_INSTANCES + ("omegalang:ab",)
    compared = 0
    for i in range(120):
        alg = algebra(names[i % len(names)])
        p = rand_looping_program(rng, alg)
        sigma = rand_state(rng)
        f = ExprWeighting(alg, rand_weighting_expr(rng, alg))
        try:
            oracle = olp_oracle(p, sigma, f, alg, fuel=8, node_budget=5000)
            res = wlp_eval(p, f, sigma, alg, fuel=8, node_budget=5000)
        except BudgetError:
            continue
        if oracle.exact and res.exact:
            compared += 1
            assert oracle.value == res.value, (alg.name, p, sigma)
    assert compared >= 80


# ---------------------------------------------------------------------------
# healthiness on loop-free programs
# ---------------------------------------------------------------------------

HEALTHY_INSTANCES = ("boolean", "counting", "tropical", "arctic", "prob")


def test_wp_healthiness_on_random_loop_free_programs():
    rng = random.Random(61)
    for name in HEALTHY_INSTANCES:
        alg = algebra(name)
        zero = FnWeighting(alg, lambda _s: alg.mod_zero())
        for _ in range(40):
            p = rand_loopfree(rng, alg)
            sigma = rand_state(rng)
            f = ExprWeighting(alg, rand_weighting_expr(rng, alg))
            g = ExprWeighting(alg, rand_weighting_expr(rng, alg))
            # strict
            assert wp_eval(p, zero, sigma, alg).value == alg.mod_zero()
            # additive
            fg = FnWeighting(alg, lambda s: alg.mod_add(f.at(s), g.at(s)))
            lhs = wp_eval(p, fg, sigma, alg).value
            rhs = alg.mod_add(wp_eval(p, f, sigma, alg).value,
                              wp_eval(p, g, sigma, alg).value)
            assert lhs == rhs
            # monotone: f <= f (+) g pointwise
            assert alg.nat_leq(wp_eval(p, f, sigma, alg).value, lhs)
            # homogeneous on commutative instances
            a = rand_weight(rng, alg)
            af = FnWeighting(alg, lambda s: alg.scalar_mul(a, f.at(s)))
            assert wp_eval(p, af, sigma, alg).value == \
                alg.scalar_mul(a, wp_eval(p, f, sigma, alg).value)


def test_wp_is_not_homogeneous_over_words():
    lang = algebra("lang:ab")
    p = prog("@instance lang:ab\nweigh a").program
    f = weighting("one", lang)
    b = lang.weight("b")
    bf = FnWeighting(lang, lambda s: lang.scalar_mul(b, f.at(s)))
    sigma = State({})
    lhs = wp_eval(p, bf, sigma, lang).value
    rhs = lang.scalar_mul(b, wp_eval(p, f, sigma, lang).value)
    assert lhs == lang.value({"ab"})
    assert rhs == lang.value({"ba"})
    assert lhs != rhs


# ---------------------------------------------------------------------------
# iterates move monotonically
# ---------------------------------------------------------------------------

def _iterates(loop, f, alg, direction, states, steps, seed_value):
    phi = char_fn(loop, f, alg, direction)
    current = FnWeighting(alg, lambda _s: seed_value)
    rows = [{s: current.at(s) for s in states}]
    for _ in range(steps):
        table = {s: apply_char_fn(phi, current, s, alg) for s in states}
        current = TableWeighting(alg, table, seed_value)
        rows.append(table)
    return rows


def test_wp_iterates_ascend_and_wlp_iterates_descend():
    states = [State({"x": v}) for v in (1, 2, 3)]
    f = weighting("int(0)", TROP)
    up = _iterates(EX410.program, f, TROP, "wp", states, 6, TROP.mod_zero())
    for prev, cur in zip(up, up[1:]):
        for s in states:
            assert TROP.nat_leq(prev.get(s, TROP.mod_zero()), cur[s])
    down = _iterates(EX410.program, f, TROP, "wlp", states, 6, TROP.top())
    for prev, cur in zip(down, down[1:]):
        for s in states:
            assert TROP.nat_leq(cur[s], prev.get(s, TROP.top()))


# ---------------------------------------------------------------------------
# characteristic functions and invariant checks
# ---------------------------------------------------------------------------

def test_apply_char_fn_fib_invariant_is_fixed():
    phi = char_fn(FIB_LOOP, FIB_POST, CNT, "wp")
    inv = weighting(FIB_INV, CNT)
    sigma = State({"n": 3, "c": 0, "m": 0})
    assert apply_char_fn(phi, inv, sigma, CNT) == inv.at(sigma) == CNT.value(5)


def test_apply_char_fn_guard_false_gives_post():
    phi = char_fn(EX410.program, "int(0)", TROP, "wp")
    assert apply_char_fn(phi, "top", State({"x": 7}), TROP) == TROP.value(0)


def test_apply_char_fn_arctic_invariant():
    phi = char_fn(E55.program, "int(0)", E55.algebra, "wp")
    got = apply_char_fn(phi, E55_INV, State({"x": 2, "y": 1}), E55.algebra)
    assert got == E55.algebra.value(3)  # 2*(2-1)+1


def test_apply_char_fn_rejects_uncertifiable_bodies():
    nested = prog("@instance counting\nwhile(y>0){ while(x>0){ {x := x-1} [] {skip} }; y := y-1 }")
    phi = char_fn(nested.program, "one", CNT, "wp")
    with pytest.raises(CertificationError):
        apply_char_fn(phi, "one", State({"x": 1, "y": 1}), CNT, fuel=6)


def test_superinvariant_ski_min_formula():
    states = [State({"n": n, "y": y}) for n in range(9) for y in range(9)]
    report = check_superinvariant(SKI_ND.program, "one", "int(min(n,y))", states, TROP)
    assert report.all_hold
    # consistency with the evaluator: a passing superinvariant sits above
    # the exact wp value at every checked state
    inv = weighting("int(min(n,y))", TROP)
    engine = Engine(TROP, "wp")
    one = weighting("one", TROP)
    for sigma in states:
        res = engine.run(SKI_ND.program, one, sigma)
        assert res.exact
        assert TROP.nat_leq(res.value, inv.at(sigma))


def test_superinvariant_top_passes_trivially_sub_may_fail():
    states = [State({"x": 2}), State({"x": 0})]
    sup = check_superinvariant(EX410.program, "int(0)", "top", states, TROP)
    assert sup.all_hold
    # the liberal dual with the same top is not trivial: over words it fails
    states_l = [State({"x": 1})]
    sub = check_subinvariant(EX411.program, "zero", "top", states_l, EX411.algebra)
    assert not sub.all_hold


def test_superinvariant_zero_fails_where_post_is_positive():
    report = check_superinvariant(
        FIB_LOOP, FIB_POST, "zero",
        [State({"n": 0, "c": 0, "m": 0}), State({"n": 1, "c": 0, "m": 0})], CNT)
    by_state = {v.state: v.holds for v in report.verdicts}
    assert by_state[State({"n": 0, "c": 0, "m": 0})] is False  # guard off, post 1 > 0
    assert by_state[State({"n": 1, "c": 0, "m": 0})] is True   # strict body wp of zero


def test_subinvariant_zero_always_passes():
    rng = random.Random(67)
    for name in ("tropical", "counting", "arctic", "boolean"):
        alg = algebra(name)
        loop = rand_looping_program(rng, alg)
        while not isinstance(loop, While):
            loop = rand_looping_program(rng, alg)
        states = [rand_state(rng) for _ in range(4)]
        f = ExprWeighting(alg, rand_weighting_expr(rng, alg))
        report = check_subinvariant(loop, f, alg.mod_zero(), states, alg)
        assert report.all_hold


def test_subinvariant_divergent_zero_cost_path():
    report = check_subinvariant(EX410.program, "int(0)", "int(0)",
                                [State({"x": 2})], TROP)
    assert report.all_hold


def test_subinvariant_fib_invariant_passes_as_equality():
    states = [State({"n": n, "c": c, "m": m})
              for n in range(4) for c in range(2) for m in range(3)]
    report = check_subinvariant(FIB_LOOP, FIB_POST, FIB_INV, states, CNT)
    assert report.all_hold


def test_fixed_point_arctic_bound():
    states = [State({"x": x, "y": y}) for x in range(7) for y in range(7)]
    report = check_fixed_point(E55.program, "int(0)", E55_INV, states, E55.algebra)
    assert report.all_fixed and report.all_exact
    # and the fixed point is the loop's answer on the guard region
    for x in range(1, 7):
        for y in range(1, 7):
            res = wp_eval(E55.program, "int(0)", State({"x": x, "y": y}), E55.algebra)
            assert res.exact and res.value == E55.algebra.value(2 * (x - 1) + y)


SKI_ONL = prog("@instance tropical\nk := 0; while(n>0){ n := n-1; k := k+1; "
               "if(k < y){ weigh 1 } else { weigh int(y); n := 0 } }")
SKI_ONL_LOOP = SKI_ONL.program.second
SKI_ONL_INV = ("[n=0] int(0) (+) [k>=y] int(y) (+) "
               "[k<y] (int(2*y-k-1) (+) [n<=y-k-1] int(n))")


def test_fixed_point_ski_online_invariant():
    states = [State({"n": n, "y": y, "k": k})
              for n in range(7) for y in range(7) for k in range(3)]
    report = check_fixed_point(SKI_ONL_LOOP, "one", SKI_ONL_INV, states, TROP)
    assert report.all_fixed and report.all_exact


def test_fixed_point_termination_on_ex410_grid():
    # only x = 2 can stay in the loop forever, by choosing skip
    states = [State({"x": x}) for x in range(5)]
    report = check_fixed_point(EX410.program, "int(0)", "int(0)", states, TROP)
    assert report.all_fixed
    assert [v.certainly_terminates for v in report.verdicts] == [True, True, False, True, True]


def test_grid_termination_matches_per_state_uct_check():
    # one quotient walked from the whole grid answers as one quotient per state
    rng = random.Random(7)
    grid = [State({"x": x, "y": y}) for x in range(-2, 3) for y in range(-2, 3)]
    comparable = mixed = 0
    for name in ("boolean", "tropical", "arctic", "omegalang:ab"):
        alg = algebra(name)
        for i in range(50):
            p = (rand_looping_program if i % 2 else rand_uct_program)(rng, alg)
            loops = [s for s in flatten_seq(p) if isinstance(s, While)]
            if not loops or "*" in print_program(p, alg):
                continue  # no loop, or a squaring loop whose quotient never closes
            for program in (loops[0], p):
                single = [uct_check(program, s, alg, node_budget=2000) for s in grid]
                if any(r.kind == "unknown" for r in single):
                    continue
                # the grid's quotient is at most the per-state ones together
                together = certainly_terminates(program, grid, alg, node_budget=25 * 2000)
                assert together == [r.certain for r in single], (name, print_program(p, alg))
                comparable += 1
                mixed += len(set(together)) == 2
                if program is loops[0]:
                    report = check_fixed_point(program, "zero", "zero", grid, alg,
                                               node_budget=25 * 2000)
                    assert [v.certainly_terminates for v in report.verdicts] == together
    assert comparable >= 120 and mixed >= 25


def test_fixed_point_requires_a_loop():
    knap = prog("@instance counting\nt := 0; r := 0; {t := t+2} [] {skip}")
    with pytest.raises(NotALoopError):
        char_fn(knap.program, "one", CNT)


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def test_decomposition_language_example():
    alg = EX411.algebra
    sigma = State({"x": 1})
    fuel = 10
    wp_part = wp_eval(EX411.program, "one", sigma, alg, fuel=fuel)
    div_part = wlp_eval(EX411.program, "zero", sigma, alg, fuel=fuel)
    assert div_part.exact
    assembled = alg.mod_add(wp_part.value, div_part.value)
    expected = alg.value(frozenset({"b" * k + "a" for k in range(10)} | {("", "b")}))
    assert assembled == expected


def test_decomposition_on_uct_programs():
    rng = random.Random(71)
    for name in ("tropical", "counting", "boolean", "arctic"):
        alg = algebra(name)
        for _ in range(6):
            p = rand_uct_program(rng, alg)
            states = [rand_state(rng) for _ in range(3)]
            f = ExprWeighting(alg, rand_weighting_expr(rng, alg))
            verdicts = check_decomposition(p, f, states, alg)
            assert all(v.status == "holds" for v in verdicts)
            # the divergent part of a certainly terminating program is zero
            for sigma in states:
                z = wlp_eval(p, alg.mod_zero(), sigma, alg)
                assert z.exact and z.value == alg.mod_zero()


def test_decomposition_zero_post_is_trivial():
    verdicts = check_decomposition(EX410.program, TROP.mod_zero(),
                                   [State({"x": 2}), State({"x": 0})], TROP)
    assert all(v.status == "holds" for v in verdicts)


def test_decomposition_untested_when_inexact():
    cnt_loop = prog("@instance counting\nwhile(x>0){ {x := x-1} [] {skip} }")
    verdicts = check_decomposition(cnt_loop.program, "one", [State({"x": 1})],
                                   cnt_loop.algebra, fuel=6)
    assert all(v.status == "untested" for v in verdicts)


def test_decomposition_probability_leq_one_mode():
    ladder = prog("@instance prob\nwhile(x>0){ {x := x-1} [1/2] (+) [1/2] {skip} }")
    # not UCT (skip forever), so test at a guard-false state plus assembled form
    alg = ladder.algebra
    verdicts = check_decomposition(ladder.program, "one", [State({"x": 0})],
                                   alg, mode="gfp_leq_one", method="chain")
    assert all(v.status == "holds" for v in verdicts)


# ---------------------------------------------------------------------------
# harder shapes: nested loops, mixed grids, sugar through the engine
# ---------------------------------------------------------------------------

def test_nested_counter_loops_match_oracle():
    nested = prog("@instance counting\n"
                  "t := 0; x := 2;\n"
                  "while(x>0){ y := 2; while(y>0){ {t := t+1} [] {skip}; y := y-1 }; x := x-1 }")
    alg = nested.algebra
    sigma = State({})
    res = wp_eval(nested.program, "[t>=2] int(1)", sigma, alg)
    oracle = op_oracle(nested.program, sigma,
                       weighting("[t>=2] int(1)", alg), alg, fuel=64)
    assert res.exact and oracle.exact
    assert res.value == oracle.value
    assert res.value.value == 11  # of the 16 outcomes, 11 flip two or more


def test_mixed_grid_exactness_is_per_state():
    # at x=0 the loop exits immediately; at x=1 the value keeps growing
    loop = prog("@instance counting\nwhile(x>0){ {x := x-1} [] {skip} }")
    engine = Engine(loop.algebra, "wp", fuel=6)
    f = weighting("one", loop.algebra)
    exact0 = engine.run(loop.program, f, State({"x": 0}))
    grow1 = engine.run(loop.program, f, State({"x": 1}))
    assert exact0.exact and exact0.value == loop.algebra.value(1)
    assert not grow1.exact
    # and the settled state keeps its certificate afterwards
    again = engine.run(loop.program, f, State({"x": 0}))
    assert again.exact and again.value == loop.algebra.value(1)


def test_word_power_sugar_weighs_word_per_lap():
    powered = prog("@instance omegalang:ab\nweigh ab^x")
    alg = powered.algebra
    res = wp_eval(powered.program, "one", State({"x": 3}), alg)
    assert res.exact and res.value == alg.value({"ababab"})
    res0 = wp_eval(powered.program, "one", State({"x": 0}), alg)
    assert res0.exact and res0.value == alg.value({""})


def test_weight_order_is_preserved_backwards():
    lang = algebra("lang:ab")
    two = prog("@instance lang:ab\nweigh a; weigh b")
    res = wp_eval(two.program, "one", State({}), lang)
    assert res.value == lang.value({"ab"})
    oracle = op_oracle(two.program, State({}), weighting("one", lang), lang)
    assert oracle.value == res.value
    # a straight-line run multiplies its weights in program order, each
    # evaluated at the state where it stands; the loop body is read off
    for text, post, sigma, expected in (
        ("@instance lang:ab\nwhile (x < 2) { weigh a; x := x + 1; weigh b; weigh b }",
         "one", {"x": 0}, {"abbabb"}),
        ("@instance lang:ab\nweigh a; x := 1; weigh b; weigh a", "one", {}, {"aba"}),
        ("@instance counting\nx := 1; weigh int(x); x := 2; weigh int(x)", "one", {}, 2),
        ("@instance tropical\nx := 1; weigh int(x); x := 2; weigh int(x)", "int(x)", {}, 5),
    ):
        parsed = prog(text)
        alg = parsed.algebra
        res = wp_eval(parsed.program, post, State(sigma), alg)
        assert res.exact and res.value == alg.value(expected), text
        oracle = op_oracle(parsed.program, State(sigma), weighting(post, alg), alg)
        assert oracle.value == res.value, text


def test_divergence_behind_sequencing():
    alg = algebra("omegalang:ab")
    blocked = prog("@instance omegalang:ab\nwhile(true){weigh b}; weigh a")
    res = wlp_eval(blocked.program, "zero", State({}), alg)
    assert res.exact and res.value == alg.value({("", "b")})
    prefixed = prog("@instance omegalang:ab\nweigh a; while(true){weigh b}")
    res2 = wlp_eval(prefixed.program, "zero", State({}), alg)
    assert res2.exact and res2.value == alg.value({("a", "b")})


def test_probabilistic_termination_mass_is_a_flagged_bound():
    geo = prog("@instance prob\nwhile(x=1){ {x := 0} [1/2] (+) [1/2] {skip} }")
    res = wp_eval(geo.program, "one", State({"x": 1}), geo.algebra, fuel=10)
    assert not res.exact  # converges to 1 only in the limit
    assert 1 - Fraction(1, 2) ** 10 <= res.value.value < 1


def test_table_weighting_as_postweighting():
    alg = TROP
    post = TableWeighting(alg, {State({"x": 1}): alg.value(7)}, alg.value(INF))
    step = prog("@instance tropical\nx := x+1; weigh 2").program
    res = wp_eval(step, post, State({"x": 0}), alg)
    assert res.exact and res.value == alg.value(9)


def test_partial_divergence_tropical_wp_vs_oracle():
    # from x=1 the loop may exit at cost 3 or spin silently forever:
    # wp keeps only the terminating cost, wlp remembers the free spin
    spin = prog("@instance tropical\nwhile(x>0){ {x := 0; weigh 3} [] {skip} }")
    sigma = State({"x": 1})
    res = wp_eval(spin.program, "one", sigma, TROP)
    oracle = op_oracle(spin.program, sigma, weighting("one", TROP), TROP, fuel=40)
    assert res.exact and res.value == TROP.value(3)
    assert oracle.exact and oracle.value == res.value
    lib = wlp_eval(spin.program, "one", sigma, TROP)
    assert lib.exact and lib.value == TROP.value(0)


# ---------------------------------------------------------------------------
# engine reuse across a grid
# ---------------------------------------------------------------------------

def test_engine_shares_loop_tables_across_states():
    engine = Engine(TROP, "wp")
    f = weighting("one", TROP)
    values = {}
    for n in range(9):
        for y in range(9):
            res = engine.run(SKI_ND.program, f, State({"n": n, "y": y}))
            assert res.exact
            values[(n, y)] = res.value.value
    assert all(values[(n, y)] == min(n, y) for n in range(9) for y in range(9))


def test_an_engine_keeps_final_tables_per_postweighting():
    # two postweightings alternate on one engine: the first query of each
    # solves its own chain, and the later ones read only their own final
    # tables, never the other postweighting's
    engine = Engine(TROP, "wp")
    one, y = weighting("one", TROP), weighting("int(y)", TROP)
    rows = [engine.run(SKI_ND.program, f, State({"n": n, "y": 5}))
            for n in (5, 4) for f in (one, y)]
    assert [(r.value, r.exact, r.touched_states) for r in rows] == [
        (TROP.value(5), True, 6), (TROP.value(10), True, 6),
        (TROP.value(4), True, 0), (TROP.value(9), True, 0)]


@pytest.mark.parametrize("instance, a, b, expected", [
    ("lang:ab", "a", "b", "{aaa,aab,aba,abb,baa,bab,bba,bbb}"),
    ("prob", "1/2", "1/3", "125/216"),
], ids=["lang", "prob"])
def test_a_certified_state_read_twice_in_one_read_off(instance, a, b, expected):
    # both arms of the body at x=3 read the head at x=2, which the first
    # query certified: one entry holding its final value, read by two
    # pairs that the read-off adds up, so x=3 is solved when it is read off
    parsed = prog(f"while (x > 0) {{ {{ x := x - 1; weigh {a} }} [] "
                  f"{{ x := x - 1; weigh {b} }} }}", instance)
    alg = parsed.algebra
    f = weighting("one", alg)
    engine = Engine(alg, "wp")
    assert engine.run(parsed.program, f, State({"x": 2})).exact
    res = engine.run(parsed.program, f, State({"x": 3}))
    fresh = Engine(alg, "wp").run(parsed.program, f, State({"x": 3}))
    assert res.value == fresh.value and alg.format_raw(res.value.value) == expected
    assert res.exact and fresh.exact
    assert (res.touched_states, res.evaluations, res.iterations) == (1, 1, 1)


def test_ski_nd_solves_in_linear_time():
    # every state of the chain n, n-1, ..., 0 is solved once, dependencies
    # first, so the solver's sweeps do not grow with n
    iterations = set()
    for n in (100, 300):
        res = wp_eval(SKI_ND.program, "one", State({"n": n, "y": n}), TROP, fuel=n + 20)
        assert res.exact and res.value == TROP.value(n)
        assert res.touched_states == n + 1
        iterations.add(res.iterations)
    assert len(iterations) == 1


def test_shared_engine_agrees_with_fresh_engines():
    # a certified value does not depend on which query solved it first;
    # exactness may differ, since the iteration order inside a component
    # follows the queried state
    rng = random.Random(223)
    names = HEALTHY_INSTANCES + ("lang:ab", "omegalang:ab")
    grid = [State({"x": x, "y": y, "z": 1}) for x in range(-1, 2) for y in range(-1, 2)]
    compared = 0
    for i in range(70):
        alg = algebra(names[i % len(names)])
        p = rand_looping_program(rng, alg)
        f = ExprWeighting(alg, rand_weighting_expr(rng, alg))
        for direction in ("wp", "wlp"):
            shared = Engine(alg, direction, fuel=8, node_budget=2000)
            try:
                pairs = [(shared.run(p, f, sigma),
                          Engine(alg, direction, fuel=8, node_budget=2000).run(p, f, sigma))
                         for sigma in grid]
            except (BudgetError, NoTopError):
                continue
            for sigma, (a, b) in zip(grid, pairs):
                if a.exact and b.exact:
                    compared += 1
                    assert a.value == b.value, (alg.name, direction, p, sigma)
    assert compared >= 100


def test_a_solve_runs_each_loop_state_body_once():
    # discovery reads off each state's form and the solve substitutes it
    fib = Engine(CNT, "wp").run(FIB.program, weighting(FIB_POST, CNT), State({"n": 23}))
    assert fib.exact and fib.value == CNT.value(75025)
    assert fib.evaluations == fib.touched_states
    ski = wp_eval(SKI_ND.program, "one", State({"n": 150, "y": 150}), TROP, fuel=170)
    assert ski.exact and ski.value == TROP.value(150)
    assert ski.evaluations == ski.touched_states


def test_a_shared_engine_reruns_only_the_window_of_each_uncertified_row():
    # a chain n, n-1, ... of 2000 states outgrows the sweep's cap (1000
    # states at the default budget), so no row is certified and the loop is
    # capped; each later row runs the bodies within its horizon of fuel + 1
    # hops only, since nothing uncertified outlives a solve
    engine = Engine(TROP, "wp")
    f = weighting("one", TROP)
    rows = [engine.run(SKI_ND.program, f, State({"n": n, "y": 100}))
            for n in range(2000, 2006)]
    assert not any(r.exact for r in rows)
    assert rows[0].evaluations == rows[0].touched_states
    assert all(r.evaluations == r.touched_states == 66 for r in rows[1:])
    assert all(r.touched_states > 60 for r in rows[1:])


TRIANGLE = prog("@instance tropical\nwhile (x > 0) { y := x; while (y > 0) { y := y - 1; "
                "{ weigh 1 } [] { weigh 2 } }; x := x - 1 }")
BACK_READ = "@instance tropical\nwhile (x > 0) { %s }"
CHAIN_INTO_CYCLE = prog("@instance tropical\nwhile (x > 0) { if (x > 1) { x := x - 1; weigh 1 } "
                        "else { { x := 0 } [] { skip } } }")


def test_an_acyclic_system_is_solved_by_back_substitution_alone(monkeypatch):
    # breadth first, each new state is numbered after the read-off that
    # met it, so one pass down the numbers solves fib's and the triangle's
    # systems (inner loop states included) with no component walk
    def no_components(*_):
        raise AssertionError("components called")
    monkeypatch.setattr(operational, "components", no_components)
    fib = Engine(CNT, "wp").run(FIB.program, weighting(FIB_POST, CNT), State({"n": 23}))
    assert (fib.value, fib.exact, fib.iterations, fib.touched_states, fib.evaluations) == (
        CNT.value(75025), True, 2, 1378, 1378)
    tri = Engine(TROP, "wp").run(TRIANGLE.program, weighting("one", TROP), State({"x": 12}))
    assert (tri.value, tri.exact, tri.iterations, tri.touched_states, tri.evaluations) == (
        TROP.value(78), True, 14, 103, 103)


def test_a_back_read_on_one_level_is_left_to_components(monkeypatch):
    # from x=7, left arm first, x=6 (read off second) reads x=5 (numbered
    # before it) while x=5 is unsolved; with the arms swapped every read is
    # of a later number
    walked, components = [], operational.components

    def counted(*args):
        walked.append(args)
        return components(*args)
    monkeypatch.setattr(operational, "components", counted)
    f, sigma, results = weighting("int(x + 2)", TROP), State({"x": 7}), []
    for arms in ("{ x := x - 2 } [] { x := x - 1 }", "{ x := x - 1 } [] { x := x - 2 }"):
        program = prog(BACK_READ % arms).program
        walked.clear()
        res = Engine(TROP, "wp").run(program, f, sigma)
        results.append((res.value, res.exact, res.iterations, res.touched_states, len(walked)))
        assert op_oracle(program, sigma, f, TROP).value == res.value
    assert results == [(TROP.value(1), True, 2, 9, 1), (TROP.value(1), True, 2, 9, 0)]


def test_a_forward_chain_into_a_cycle_is_solved_after_the_cycle():
    # x counts down to 1, where { x := 0 } [] { skip } may stay: x=1 is a
    # cycle, so no state above it is solved by back substitution
    f = weighting("one", TROP)
    for direction, iterations in (("wp", 3), ("wlp", 2)):
        engine = Engine(TROP, direction)
        res = engine.run(CHAIN_INTO_CYCLE.program, f, State({"x": 5}))
        assert (res.value, res.exact, res.iterations, res.touched_states, res.evaluations) == (
            TROP.value(4), True, iterations, 6, 6)
        again = engine.run(CHAIN_INTO_CYCLE.program, f, State({"x": 3}))
        assert (again.value, again.exact, again.touched_states) == (TROP.value(2), True, 0)


def test_deepening_certifies_a_chain_longer_than_the_horizon():
    # the sweep goes past fuel + 1 hops until the chain n, n-1, ..., 0 is
    # discovered, so the near grid is exact at the default fuel; the later
    # rows read the states the first one certified and run only their own
    # root
    engine = Engine(TROP, "wp")
    f = weighting("one", TROP)
    rows = [engine.run(SKI_ND.program, f, State({"n": n, "y": 100})) for n in range(95, 101)]
    assert [(r.value, r.exact) for r in rows] == [(TROP.value(n), True) for n in range(95, 101)]
    assert [r.evaluations for r in rows[1:]] == [1] * 5
    res = wlp_eval(SKI_ND.program, "one", State({"n": 100, "y": 100}), TROP)
    assert res.exact and res.value == TROP.value(100)


def test_deepening_runs_each_loop_state_body_once_across_rounds():
    # one sweep past the horizon of 9 hops discovers the whole chain, each
    # state once, as one within a horizon of 321 hops does
    sigma = State({"n": 300, "y": 300})
    deep = wp_eval(SKI_ND.program, "one", sigma, TROP, fuel=8)
    wide = wp_eval(SKI_ND.program, "one", sigma, TROP, fuel=320)
    assert deep.exact and deep.value == wide.value == TROP.value(300)
    assert deep.evaluations == deep.touched_states == wide.touched_states == 301
    assert deep.iterations == wide.iterations  # a sweep and a pass, whatever the fuel


def test_a_divergent_loop_stays_a_sound_inexact_bound():
    grower = prog("@instance tropical\nwhile(x>0){x := x+1}").program
    engine, f = Engine(TROP, "wp"), weighting("one", TROP)
    first = engine.run(grower, f, State({"x": 1}))
    assert not first.exact and first.value == TROP.mod_zero()
    assert first.evaluations == first.touched_states == engine.state_cap == 1000
    # the sweep went past the horizon and hit the cap, so a later query
    # runs the bodies within fuel + 1 hops and goes no further
    later = engine.run(grower, f, State({"x": 2}))
    assert not later.exact and later.value == TROP.mod_zero()
    assert (later.touched_states, later.evaluations) == (66, 66)


def test_a_deepening_round_never_turns_an_answer_into_an_error():
    # a sweep past the horizon stops where it would outgrow the node budget
    # or meets a state that fails to evaluate, and the states it did not
    # read keep the seed, so the bound stands; within the horizon, the
    # query fails as it always did
    grower = prog("@instance tropical\nwhile(x>0){x := x+1}").program
    engine = Engine(TROP, "wp", node_budget=300)
    engine.state_cap = 10 ** 6  # so that the node budget stops the sweep
    res = engine.run(grower, "one", State({"x": 1}))
    assert not res.exact and res.value == TROP.mod_zero()
    assert res.touched_states == 300
    with pytest.raises(BudgetError):
        wp_eval(grower, "one", State({"x": 1}), TROP, fuel=300, node_budget=300)
    squarer = prog("@instance tropical\nwhile(x>0){x := x+1; y := y*y}").program
    sigma = State({"x": 1, "y": 2})  # y has 2^k + 1 bits after k passes
    res = wp_eval(squarer, "one", sigma, TROP, fuel=8)
    assert not res.exact and res.value == TROP.mod_zero()
    with pytest.raises(EvalError, match="a product exceeds 65536 bits"):
        wp_eval(squarer, "one", sigma, TROP, fuel=20)
    # each state before the failing one (x=16, y = 2^(2^15)) has a path
    # out; the answer is infinitely many paths, and the 15 read are a bound
    brancher = prog("@instance counting\nwhile(x>0){ {x := 0} [] {x := x+1; y := y*y} }")
    res = wp_eval(brancher.program, "one", sigma, CNT, fuel=8)
    assert not res.exact and res.value == CNT.value(15)
    with pytest.raises(EvalError, match="a product exceeds 65536 bits"):
        wp_eval(brancher.program, "one", sigma, CNT, fuel=14)


def test_a_loop_whose_horizon_fills_the_cap_still_sweeps_later_queries():
    # from y>0 the loop fans out: its 9 hops reach 55 states, more than the
    # cap, so the sweep never goes past the horizon and the loop is not
    # capped; from y=0 it is a chain, which a later query follows past the
    # horizon up to the cap
    fan = prog("@instance tropical\n"
               "while(x>0){ if(y>0){ {x := x+1} [] {y := y+1} } else {x := x+1} }").program
    engine, f = Engine(TROP, "wp", fuel=8), weighting("one", TROP)
    engine.state_cap = 50
    wide = engine.run(fan, f, State({"x": 1, "y": 1}))
    assert not wide.exact and wide.touched_states == 55
    assert not engine._capped
    narrow = engine.run(fan, f, State({"x": 1, "y": 0}))
    assert not narrow.exact and narrow.touched_states == engine.state_cap
    assert engine._capped


def test_auto_wlp_skips_the_divergence_part_when_the_wp_part_is_inexact(monkeypatch):
    grower = prog("@instance tropical\nwhile(x>0){x := x+1}").program
    monkeypatch.setattr("wgcl.transformer.diverging_weights", None)  # must not be called
    res = LiberalEngine(TROP).run(grower, "one", State({"x": 1}))
    assert not res.exact and res.value == TROP.value(0)


def test_a_text_postweighting_is_shared_between_queries():
    # the engine keys what it keeps on the postweighting as passed, so a
    # second query with the same text reads the final table the first
    # certified, and one with a distinct weighting object solves again
    engine = Engine(TROP, "wp")
    assert engine.run(SKI_ND.program, "one", State({"n": 5, "y": 5})).exact
    later = engine.run(SKI_ND.program, "one", State({"n": 4, "y": 5}))
    assert (later.value, later.exact, later.touched_states) == (TROP.value(4), True, 0)
    other = engine.run(SKI_ND.program, weighting("one", TROP), State({"n": 4, "y": 5}))
    assert (other.value, other.exact, other.touched_states) == (TROP.value(4), True, 5)


@pytest.mark.parametrize("before", ["c := 0", "if (c > 0) { c := 0 } else { skip }",
                                    "{ c := 0 } [] { c := 0; weigh 0 }"])
def test_only_certified_loop_values_outlive_a_query(before):
    # every row reaches the loop at c=0,x=3.  Values are memoized for one
    # query, at joins, so a later row solves an uncertified loop again,
    # within its horizon since the first row capped it, and reads a
    # certified one from the final table; the two arms of `[]` meet at a
    # loop head that is a join, which solves once per query
    engine = Engine(TROP, "wp")
    for body, value, exact, counts in (
            ("x := x + 1", TROP.mod_zero(), False, [(1000, 1000), (66, 66), (66, 66)]),
            ("x := x - 1; weigh 1", TROP.value(3), True, [(4, 4), (0, 0), (0, 0)])):
        program = prog(f"@instance tropical\n{before}; while (x > 0) {{ {body} }}").program
        rows = [engine.run(program, "one", State({"c": c, "x": 3})) for c in range(3)]
        assert [(r.value, r.exact) for r in rows] == [(value, exact)] * 3
        assert [(r.touched_states, r.evaluations) for r in rows] == counts


@pytest.mark.parametrize("kind", ["expression", "function", "table"])
def test_a_query_keys_an_unread_input_variable_only_where_the_post_can_read_it(kind):
    # the loop never mentions y.  An expression postweighting that does not
    # read y keys the loop on x alone, so the rows of one x share their
    # certified states; one that reads y keys y too, and a function or a
    # table, which may read any variable, keys every input variable, so
    # no row reads a value certified for another y
    countdown = prog("@instance counting\nwhile (x > 0) { x := x - 1; weigh 2 }").program
    grid = [State({"x": x, "y": y}) for x in (1, 2) for y in range(3)]

    def post(text):
        f = weighting(text, CNT)
        if kind == "function":
            return FnWeighting(CNT, f.at)
        if kind == "table":  # the loop ends at x=0, y as it was
            return TableWeighting(CNT, {State({"y": y}): f.at(State({"y": y})) for y in range(3)})
        return f

    for text, values in (("int(y)", [0, 2, 4, 0, 4, 8]), ("one", [2, 2, 2, 4, 4, 4])):
        engine, f = Engine(CNT, "wp"), post(text)
        rows = [engine.run(countdown, f, sigma) for sigma in grid]
        assert [(r.value, r.exact) for r in rows] == [(CNT.value(v), True) for v in values]
        fresh = [Engine(CNT, "wp").run(countdown, f, sigma) for sigma in grid]
        assert [r.value for r in rows] == [r.value for r in fresh]
        later = [r.touched_states for r in rows[1:3] + rows[4:]]  # after the first of each x
        if kind == "expression" and text == "one":
            assert later == [0, 0, 0, 0]
        else:
            assert all(later), later


def test_a_loop_head_reached_along_many_paths_is_solved_once_per_query():
    # 12 choices reach the loop at one state along 4096 paths; a loop head
    # is a join, where its entry and its back edge meet, so the query solves
    # it once and reads the value memo on every other path
    names = [f"v{k}" for k in range(12)]
    choices = "".join(f"{{ {v} := 1 }} [] {{ {v} := 2 }}; " for v in names)
    resets = "".join(f"{v} := 0; " for v in names)
    program = prog(f"@instance tropical\n{choices}{resets}while (x > 0) {{ x := x + 1 }}").program
    res = Engine(TROP, "wp").run(program, "one", State({"x": 3}))
    assert (res.value, res.exact) == (TROP.mod_zero(), False)
    assert (res.touched_states, res.evaluations, res.iterations) == (1000, 1000, 2)


def test_an_inner_loop_entered_where_its_sweep_stopped_is_followed_there():
    # fuel 2 and a budget below 1000 leave no room past the horizon: the left
    # arm's inner sweep stops at y=0 and numbers it unread, then the right
    # arm enters the inner loop at y=0, which is followed now, so the solve
    # touches x=1, x=0 and y=4..0.  The left arm's chain waits for the solve,
    # which reads y=0 at its value, not the seed
    program = prog("@instance tropical\nwhile (x > 0) { { y := 4 } [] { y := 0; weigh 7 }; "
                   "while (y > 0) { y := y - 1; weigh 1 }; x := x - 1 }").program
    res = Engine(TROP, "wp", fuel=2, node_budget=500).run(program, "one", State({"x": 1}))
    assert res.touched_states == 7
    assert (res.value, res.exact) == (TROP.value(4), True)
    ref = op_oracle(program, State({"x": 1}), as_weighting(TROP, "one"), TROP)
    assert (ref.value, ref.exact) == (TROP.value(4), True)


def test_choices_in_a_row_in_a_loop_body_read_off_one_pair_per_unknown(monkeypatch):
    # each join adds up the coefficients of an unknown read more than once
    # before its pairs are replayed into the other arm, so 12 `[]`s in a
    # row read the next loop state at most twice, not 2^12 times
    sizes, read_off = [], transformer._Solve._form

    def recorded(sweep, i):
        form = read_off(sweep, i)
        sizes.append(len(getattr(sweep, "out", ())) // 2)
        return form
    monkeypatch.setattr(transformer._Solve, "_form", recorded)
    body = "{weigh 1} [] {weigh 2}; " * 12
    program = prog(f"@instance tropical\nwhile (x > 0) {{ {body}x := x - 1 }}").program
    for direction in ("wp", "wlp"):
        res = Engine(TROP, direction).run(program, "one", State({"x": 3}))
        assert (res.value, res.exact) == (TROP.value(36), True)
    assert 1 <= max(sizes) <= 2


def test_nested_loops_match_oracles_and_fresh_engines():
    # each inner loop state is an unknown of the outer loop's one system,
    # read off over forms like the outer states, so the values must agree
    # with the path oracles and with a fresh engine per state
    rng = random.Random(229)
    names = HEALTHY_INSTANCES + ("lang:ab", "omegalang:ab")
    grid = [State({"x": x, "y": y, "z": 1}) for x in range(-1, 2) for y in range(-1, 2)]
    oracles = {"wp": (wp_eval, op_oracle), "wlp": (wlp_eval, olp_oracle)}
    with_oracle = with_engines = 0
    for i in range(70):
        alg = algebra(names[i % len(names)])
        p = rand_nested_program(rng, alg)
        f = ExprWeighting(alg, rand_weighting_expr(rng, alg))
        sigma = rand_state(rng)
        for direction, (transform, oracle) in oracles.items():
            try:
                res = transform(p, f, sigma, alg, fuel=8, node_budget=2000)
                ref = oracle(p, sigma, f, alg, fuel=8, node_budget=2000)
            except (BudgetError, NoTopError):
                continue
            if res.exact and ref.exact:
                with_oracle += 1
                assert res.value == ref.value, (alg.name, direction, p, sigma)
            shared = Engine(alg, direction, fuel=8, node_budget=2000)
            try:
                pairs = [(shared.run(p, f, tau),
                          Engine(alg, direction, fuel=8, node_budget=2000).run(p, f, tau))
                         for tau in grid]
            except BudgetError:
                continue
            for tau, (a, b) in zip(grid, pairs):
                if a.exact and b.exact:
                    with_engines += 1
                    assert a.value == b.value, (alg.name, direction, p, tau)
    assert with_oracle >= 80 and with_engines >= 800


BODY_POSITIONS = {
    # a join reached from two differently weighted arms, at one state
    "join": "{ weigh A } [] { weigh B }; x := x - 1; { weigh C } [] { x := x - 1 }",
    # equal arms share one lowering, whose form steps both arms run
    "equal arms": "{ x := x - 1; weigh A } [] { x := x - 1; weigh A }; weigh B",
    # the inner loop's exit continues the outer body through a weigh
    "inner exit": "y := x; while (y > 0) { { weigh A } [] { weigh B; y := y - 1 }; "
                  "y := y - 1 }; weigh C; x := x - 1",
}


@pytest.mark.parametrize("name", BODY_POSITIONS)
@pytest.mark.parametrize("instance, weights", [
    ("lang:ab", ("a", "b", "ab")),  # where the order of the weights matters
    ("prob", ("1/2", "1/3", "1/5")),
], ids=["lang:ab", "prob"])
def test_every_kind_of_body_position_matches_the_path_oracle(name, instance, weights):
    body = BODY_POSITIONS[name]
    for letter, weight in zip("ABC", weights):
        body = body.replace(letter, weight)
    alg = algebra(instance)
    loop = prog(f"@instance {instance}\nwhile (x > 0) {{ {body} }}").program
    for post in ("one", "[x + y < 0] one"):
        f = weighting(post, alg)
        for x in range(5):
            sigma = State({"x": x})
            res, ref = wp_eval(loop, f, sigma, alg), op_oracle(loop, sigma, f, alg)
            assert res.exact and ref.exact and res.value == ref.value, (post, sigma)


@pytest.mark.parametrize("program", [
    "{ x := x - 1; weigh A } [] { x := x - 1; weigh A }; weigh B",
    "{ x := x - 1; while (x > 0) { x := x - 1; weigh A } } [] "
    "{ x := x - 1; while (x > 0) { x := x - 1; weigh A } }; weigh B",
], ids=["straight", "loops"])
@pytest.mark.parametrize("instance, weights", [
    ("lang:ab", ("a", "b")), ("prob", ("1/2", "1/3")), ("counting", ("2", "3")),
    ("omegalang:ab", ("a", "b")),
], ids=["lang:ab", "prob", "counting", "omegalang:ab"])
def test_equal_arms_outside_a_loop_body_match_the_path_oracle(program, instance, weights):
    # the arms share one lowering, which the steps over values run once per arm
    for letter, weight in zip("AB", weights):
        program = program.replace(letter, weight)
    alg = algebra(instance)
    p = prog(f"@instance {instance}\n{program}").program
    node = compile_program(p)
    assert node.then is node.orelse
    for post in ("one", "[x + y < 0] one"):
        f = weighting(post, alg)
        for x in range(4):
            sigma = State({"x": x})
            res, ref = wp_eval(p, f, sigma, alg), op_oracle(p, sigma, f, alg)
            assert res.exact and ref.exact and res.value == ref.value, (post, sigma)


@pytest.mark.parametrize("program", [
    "x := 1", "x := 1; weigh 2", "while (x > 0) { x := x - 1 }",
], ids=["assignment", "weigh", "loop"])
def test_a_postweighting_over_another_instance_is_rejected(program):
    p = prog(f"@instance tropical\n{program}").program
    f = weighting("int(x)", CNT)
    for evaluate in (wp_eval, wlp_eval):
        with pytest.raises(MismatchError):
            evaluate(p, f, State({"x": 2}), TROP)
    # the instance is checked where the post is read, not where it is
    # keyed: a loop that no run leaves never reads it, and raises nothing
    never = prog("@instance tropical\nwhile (x > 0) { x := x + 1 }").program
    for evaluate, value in ((wp_eval, TROP.mod_zero()), (wlp_eval, TROP.top())):
        assert evaluate(never, f, State({"x": 2}), TROP).value == value


def test_a_query_tags_only_its_result(monkeypatch):
    # inside a query the postweighting is read raw, so each query builds
    # one `ModuleValue`, its result: 64 wp rows on one engine, and 64
    # path-oracle rows, build 64
    built = []
    init = ModuleValue.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)
    monkeypatch.setattr(ModuleValue, "__init__", counted)
    post = weighting("[n > 0] int(1) (+) one", TROP)
    states = [State({"n": n, "y": y}) for n in range(8) for y in range(8)]
    engine = Engine(TROP, "wp")
    for query in (lambda sigma: engine.run(SKI_ND.program, post, sigma),
                  lambda sigma: op_oracle(SKI_ND.program, sigma, post, TROP)):
        del built[:]
        assert all(query(sigma).exact for sigma in states)
        assert len(built) == len(states)


TRIANGLE = prog("@instance tropical\nwhile (x > 0) { y := x; "
                "while (y > 0) { y := y - 1; { weigh 1 } [] { weigh 2 } }; x := x - 1 }")
INNER_GROWER = prog("@instance tropical\n"
                    "while (x > 0) { y := 1; while (y > 0) { y := y + 1 }; x := x - 1 }")


def test_nested_loops_run_each_unknown_body_once():
    # an inner loop state is an unknown of the outer solve, read off once
    # like an outer state, instead of being solved again at every
    # substitution
    nest = prog("@instance counting\n"
                "t := 0; x := 2;\n"
                "while(x>0){ y := 2; while(y>0){ {t := t+1} [] {skip}; y := y-1 }; x := x-1 }")
    res = wp_eval(nest.program, "[t>=2] int(1)", State({}), nest.algebra)
    assert res.exact and res.value.value == 11
    assert res.evaluations == res.touched_states == 27
    # 11 outer states x = 10..0 and, for each x > 0, x + 1 inner states
    tri = wp_eval(TRIANGLE.program, "one", State({"x": 10}), TROP)
    assert tri.exact and tri.value == TROP.value(55)
    assert tri.evaluations == tri.touched_states == 11 + sum(x + 1 for x in range(1, 11))


def test_each_inner_loop_entry_has_its_own_horizon_and_cap():
    # the 5150 inner states outgrow the cap of 1000; each entry's sweep
    # counts only its own x + 1 states, so the chains longer than the
    # horizon are followed to the end and certified
    res = wp_eval(TRIANGLE.program, "one", State({"x": 100}), TROP)
    assert res.exact and res.value == TROP.value(5050)


def test_a_solve_keeps_one_form_or_one_value_per_unknown():
    # a component's forms are dropped as soon as it is solved, a one-term
    # form is one small tuple, and the solve keys its lists by number, so
    # the 7501 unknowns of one system peak within 400 bytes each (the
    # states included)
    engine = Engine(TROP, "wp")
    tracemalloc.start()
    try:
        res = engine.run(TRIANGLE.program, "one", State({"x": 120}))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.exact and res.value == TROP.value(7260)
    assert res.touched_states == 121 + sum(x + 1 for x in range(1, 121))
    assert peak <= 400 * res.touched_states


def test_a_divergent_inner_loop_caps_that_loop():
    # the inner sweep runs past its horizon to the cap and is stopped
    # there, so later sweeps of that loop stop at the horizon: 66 inner
    # states and the outer one
    div = INNER_GROWER.program
    engine = Engine(TROP, "wp")
    first = engine.run(div, "one", State({"x": 3}))
    assert not first.exact and first.value == TROP.mod_zero()
    assert first.touched_states == 1 + engine.state_cap
    later = engine.run(div, "one", State({"x": 4}))
    assert not later.exact and later.value == TROP.mod_zero()
    assert later.touched_states == 67


def test_a_shared_engine_repeats_an_uncertified_inner_query():
    # nothing uncertified outlives a solve, so a repeated query sweeps the
    # same unknowns, runs their bodies again and returns the same bound
    div = INNER_GROWER.program
    engine = Engine(TROP, "wp")
    engine.run(div, "one", State({"x": 3}))
    first = engine.run(div, "one", State({"x": 4}))
    again = engine.run(div, "one", State({"x": 4}))
    assert not again.exact and (again.value, again.exact) == (first.value, first.exact)
    assert (again.touched_states, again.evaluations) == (67, 67)


def test_a_failed_inner_read_off_keeps_the_seed_past_its_horizon():
    # the inner loop squares y, which fails at its 16th state; at fuel 8
    # that state lies past the inner sweep's horizon, so it keeps the seed
    # and the 15 terminating paths read are a sound bound (the answer is
    # infinitely many); at fuel 14 it lies within, and the error propagates
    sigma = State({"x": 1, "y": 2, "z": 1})
    brancher = prog("@instance counting\n"
                    "while(x>0){ while(z>0){ {z := 0} [] {z := z+1; y := y*y} }; x := x-1 }")
    res = wp_eval(brancher.program, "one", sigma, CNT, fuel=8)
    assert not res.exact and res.value == CNT.value(15)
    with pytest.raises(EvalError, match="a product exceeds 65536 bits"):
        wp_eval(brancher.program, "one", sigma, CNT, fuel=14)
    # an inner error within the inner horizon stops the outer sweep where
    # the outer state lies past its own horizon: the outer states queued
    # behind it keep the seed too
    chain = prog("@instance tropical\n"
                 "while(x>0){ x := x+1; y := 1; while(y>0){ y := y-1; weigh int(fib(x * 5500)) } }")
    res = wp_eval(chain.program, "one", State({"x": 1}), TROP, fuel=8)
    assert not res.exact and res.value == TROP.mod_zero()
    with pytest.raises(EvalError, match="fib argument 66000 exceeds 65536"):
        wp_eval(chain.program, "one", State({"x": 1}), TROP, fuel=20)
    # the innermost state s=1 fails to read off; the first middle sweep (p
    # from 1) meets it past its horizon and stops, and the second (p from
    # 8) meets it again within its horizon, where it is known: it keeps the
    # seed, as the middle states queued behind it do, and every path that
    # reads it stays a sound bound instead of a missing dependency
    three = prog("@instance tropical\n"
                 "while (r > 0) { r := r - 1; p := 1 + 7 * (1 - r); while (p > 0) { "
                 "if (p > 10) { r := 0; p := 0; s := 1; "
                 "while (s > 0) { s := 0; weigh int(fib(q)) } } "
                 "else { { p := p + 1 } [] { p := 0 } } } }")
    res = wp_eval(three.program, "one", State({"r": 2, "q": 70000}), TROP, fuel=8)
    assert not res.exact and res.value == TROP.value(0)


def test_forms_carry_lassos_and_cylinders_through_a_loop():
    # a form's coefficient is a set of words; applying it prefixes each
    # word to the words, lassos and cylinders of the value it meets
    loop = prog("@instance omegalang:ab\nwhile(x>0){ x := x-1; {weigh a} [] {weigh b} }")
    alg = loop.algebra
    engine = Engine(alg, "wp")
    for post in ("{ab, (b)^w}", "[y=1] top (+) {a(ab)^w}"):
        f = weighting(post, alg)
        for sigma in (State({"x": x, "y": y}) for x in range(4) for y in range(2)):
            res = engine.run(loop.program, f, sigma)
            oracle = op_oracle(loop.program, sigma, f, alg)
            assert res.exact and oracle.exact and res.value == oracle.value, (post, sigma)
    res = engine.run(loop.program, weighting("{ab, (b)^w}", alg), State({"x": 2}))
    assert res.value == alg.value({"aaab", "abab", "baab", "bbab",
                                   ("aa", "b"), ("ab", "b"), ("ba", "b"), ("bb", "b")})


# ---------------------------------------------------------------------------
# Reads behind a weight that annihilates: a (x) top = zero, so a (x) x = zero
# ---------------------------------------------------------------------------

BEHIND_ZERO = ("@instance counting\nwhile (x > 0) { x := x - 1 }; "
               "{ weigh 0; c := 1; while (c = 1) { { c := 0 } [] { skip } } } [] { skip }")
ZERO_ARM = "@instance %s\nwhile (x > 0) { { weigh %s; y := y + 1 } [] { %sx := x - 1 } }"
ZERO_ARMS = [(("counting", "0", ""), "1"), (("prob", "0", ""), "1"),
             (("boolean", "false", ""), "true"), (("tropical", "inf", "weigh 1; "), "5")]
ANNIHILATED = [  # (program, state, fuel, direction, value)
    *(pytest.param(BEHIND_ZERO, {"x": 20}, fuel, "wp", "1", id=f"value-step-fuel-{fuel}")
      for fuel in (8, 64, 1000)),
    *(pytest.param(ZERO_ARM % arm, {"x": 5}, 64, direction, value, id=f"{arm[0]}-{direction}")
      for arm, value in ZERO_ARMS for direction in ("wp", "wlp")),
]


@pytest.mark.parametrize("text, state, fuel, direction, value", ANNIHILATED)
def test_a_read_behind_an_annihilating_weight_is_exact(text, state, fuel, direction, value):
    # over values, `weigh 0` scales away the inexact inner loop after it;
    # in a loop body, the left arm's reads of y's ever-growing states are
    # past the horizon, left at the seed, and read behind a zero coefficient
    parsed = prog(text)
    alg = parsed.algebra
    run = wp_eval if direction == "wp" else wlp_eval
    res = run(parsed.program, weighting("one", alg), State(state), alg, fuel=fuel)
    assert (alg.format_value(res.value), res.exact) == (value, True)


ZERO_WEIGHT = {"counting": 0, "prob": Fraction(0), "boolean": False, "tropical": INF}


def _splice_zero(program, rng, zero):
    """`program` with `weigh zero` put in front of one of its loops, or
    into that loop's body, before all of it or in one arm of a choice."""
    loops = []

    def walk(p, path):  # the field names from the root to each loop
        if isinstance(p, While):
            loops.append(path)
        for name in p.__match_args__:
            if isinstance(getattr(p, name), Statement):
                walk(getattr(p, name), path + (name,))
    walk(program, ())
    path, kind = rng.choice(loops), rng.randrange(3)
    weigh = Weigh(WLit(zero))

    def rebuild(p, path):
        if path:
            fields = {name: getattr(p, name) for name in p.__match_args__}
            fields[path[0]] = rebuild(fields[path[0]], path[1:])
            return type(p)(**fields)
        if kind == 0:  # in front of the loop, in one arm of a choice
            return Branch(Seq(weigh, p), Assign("x", AInt(0)))
        body = Seq(weigh, p.body)
        return While(p.guard, body if kind == 1 else Branch(body, p.body))
    return rebuild(program, path)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2 ** 32), st.sampled_from(sorted(ZERO_WEIGHT)),
       st.sampled_from((rand_looping_program, rand_nested_program)))
def test_reads_behind_an_annihilating_weight_agree_with_the_oracle(seed, instance, generate):
    rng = random.Random(seed)
    alg = algebra(instance)
    program = _splice_zero(generate(rng, alg), rng, ZERO_WEIGHT[instance])
    f, sigma = ExprWeighting(alg, rand_weighting_expr(rng, alg)), rand_state(rng)
    try:
        res = wp_eval(program, f, sigma, alg, fuel=8, node_budget=1000)
        ref = op_oracle(program, sigma, f, alg, fuel=8, node_budget=1000)
    except (BudgetError, EvalError):
        return
    if res.exact and ref.exact:
        assert res.value == ref.value
    elif res.exact:  # an uncertified oracle gives a lower bound
        assert alg.nat_leq(ref.value, res.value)
    elif ref.exact:  # and so does an uncertified transformer
        assert alg.nat_leq(res.value, ref.value)
    if not res.exact:
        return
    try:  # the paths that end within 24 steps, which read no row, weigh no more
        paths = enumerate_paths(program, sigma, 24, alg, node_budget=20000).paths
    except (BudgetError, EvalError):
        return
    assert alg.nat_leq(alg.big_add(alg.scalar_mul(path.weight, f.at(path.last_state))
                                   for path in paths if path.terminal), res.value)
