"""Small-step semantics, path enumeration, oracles, termination, lassos."""

import random
from collections import Counter
from math import inf

import pytest

from wgcl import operational
from wgcl.algebra import INF, NEG_INF, MismatchError, algebra, make_omega
from wgcl.operational import (
    BudgetError, DivergenceError, TERMINATED, build_quotient, certainly_terminates,
    components, cyclic, diverging_weights, enumerate_paths, olp_chain, olp_oracle, op_oracle,
    settle, solve, successors, uct_check,
)
from wgcl.parser import parse_program, parse_weighting
from wgcl.syntax import (
    MAX_INT_BITS, Assign, Branch, EvalError, ExprWeighting, Ite, Seq, State, TableWeighting,
    Weigh, While, compile_program, eval_arith, eval_bool, eval_weight, pack, print_program,
    unpack,
)
from wgcl.transformer import Engine

from genprog import (
    rand_loopfree, rand_looping_program, rand_nested_program, rand_state, rand_uct_program,
)

TROP = algebra("tropical")


def prog(text, instance=None):
    return parse_program(text, instance)


def weighting(text, alg):
    return ExprWeighting(alg, parse_weighting(text, alg))


EX49 = prog("@instance tropical\nif(x>0){weigh 1; weigh 1} else {{weigh 2} [] {weigh 3}}")
EX410 = prog("@instance tropical\nwhile(x=2){ {x := 3; weigh 5} [] {skip} }")
EX411 = prog("@instance omegalang:ab\nwhile(x=1){ {x := 0; weigh a} [] {weigh b} }")
SKI_ND = prog("@instance tropical\nwhile(n>0){ n := n-1; {weigh 1} [] {weigh int(y); n := 0} }")
E55 = prog("@instance arctic\nwhile(x>0 and y>0){ { {x := x-1; y := y+1} [] {y := y-1} }; weigh 1 }")


# ---------------------------------------------------------------------------
# successors
# ---------------------------------------------------------------------------

def test_assign_step():
    position = compile_program(prog("@instance tropical\nx := x+1").program)
    # a state inside a walk is a key, the values of the program's slots
    # and a weight is raw: the tropical unit is 0
    assert successors(position, (0,), TROP) == ((0, TERMINATED, (1,)),)


def test_branch_steps_extend_history_with_unit_weight():
    branch = prog("@instance tropical\n{weigh 2} [] {weigh 3}").program
    position = compile_program(branch)
    left, right = successors(position, State({}), TROP)
    # the left arm comes first, and both steps weigh one
    assert left == (0, position.then, State({}))
    assert right == (0, position.orelse, State({}))
    # each [] step adds one letter to the history, L before R
    paths = enumerate_paths(branch, State({}), 5, TROP).paths
    assert [(p.history, p.weight, len(p.trace)) for p in paths] == [
        (("L",), TROP.weight(2), 3), (("R",), TROP.weight(3), 3)]


def test_loop_break_step():
    position = compile_program(EX410.program)
    (step,) = successors(position, (3,), TROP)
    assert step == (0, TERMINATED, (3,))


def test_weigh_step_evaluates_per_state():
    weigh = Weigh(parse_program("@instance tropical\nweigh int(y)").program.weight)
    (step,) = successors(compile_program(weigh), (7,), TROP)
    assert step[0] == 7


def test_terminated_has_no_successors():
    assert successors(TERMINATED, State({}), TROP) == ()


def _reference_successors(position, key, alg):
    """The step relation from the interpretive evaluators, over the key's
    `State`: the reference each position's compiled step is tested against."""
    if position is TERMINATED:
        return ()
    stmt, names, one = position.stmt, position.names, alg.mon_one().value
    sigma = unpack(key, names)
    if isinstance(stmt, Assign):
        after = sigma.set(stmt.var, eval_arith(stmt.expr, sigma))
        return ((one, position.next, pack(after, names, True)),)
    if isinstance(stmt, Weigh):
        return ((eval_weight(stmt.weight, sigma, alg).value, position.next, key),)
    if isinstance(stmt, Ite):
        return ((one, position.then if eval_bool(stmt.guard, sigma) else position.orelse, key),)
    if isinstance(stmt, Branch):
        return ((one, position.then, key), (one, position.orelse, key))
    if isinstance(stmt, While):
        return ((one, position.then if eval_bool(stmt.guard, sigma) else position.next, key),)
    raise TypeError(stmt)


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except EvalError as exc:
        return "error", str(exc)


def test_compiled_steps_equal_the_interpretive_step():
    # at every pair a depth-first walk enters, in `_reachable`'s order, the
    # compiled step gives the reference's triples (raw weights, the left
    # arm of `[]` first) or the same EvalError; big states overflow products
    rng = random.Random(131)
    big = State({v: 2 ** 40000 for v in ("x", "y", "z")})
    for name in ("boolean", "counting", "tropical", "arctic", "prob", "lang:ab",
                 "omegalang:ab"):
        alg = algebra(name)
        for generate in (rand_looping_program, rand_nested_program):
            for _ in range(12):
                program = generate(rng, alg)
                entry = compile_program(program)
                sigma = big if rng.random() < 0.2 else rand_state(rng)
                todo, seen = [(entry, pack(sigma, entry.names, True))], set()
                while todo and len(seen) < 60:
                    pair = todo.pop()
                    if pair in seen:
                        continue
                    seen.add(pair)
                    got = _outcome(successors, *pair, alg)
                    assert got == _outcome(_reference_successors, *pair, alg), (program, pair)
                    if got[0] == "value":
                        todo += [(p, s) for _, p, s in got[1]]


# ---------------------------------------------------------------------------
# enumerate_paths
# ---------------------------------------------------------------------------

def test_enumerate_tropical_conditional():
    report = enumerate_paths(EX49.program, State({"x": 1}), 5, TROP)
    assert not report.truncated
    assert len(report.paths) == 1
    (path,) = report.paths
    assert path.terminal and path.weight == TROP.weight(2)


def test_enumerate_skip_single_unit_path():
    skip = prog("@instance tropical\nskip").program
    report = enumerate_paths(skip, State({}), 1, TROP)
    assert [(p.terminal, p.weight) for p in report.paths] == [(True, TROP.mon_one())]


def test_enumerate_nonterminating_loop_truncates():
    lang = algebra("lang:ab")
    loop = prog("@instance lang:ab\nwhile(true){weigh a}").program
    report = enumerate_paths(loop, State({}), 4, lang)
    assert report.truncated
    assert all(not p.terminal for p in report.paths)


def test_paths_ordered_by_history():
    double = prog("@instance tropical\n{{weigh 1} [] {weigh 2}} ; {weigh 3} [] {weigh 4}").program
    report = enumerate_paths(double, State({}), 10, TROP)
    histories = [p.history for p in report.paths]
    assert histories == sorted(histories)
    assert len(histories) == 4


def test_forest_every_configuration_has_one_predecessor():
    # a configuration is (position, state, depth, history so far): the paths'
    # configurations form a forest, and histories tell the paths apart
    rng = random.Random(31)
    for _ in range(20):
        p = rand_loopfree(rng, TROP)
        sigma = rand_state(rng)
        report = enumerate_paths(p, sigma, 12, TROP)
        edges = set()
        for path in report.paths:
            confs, letters = [], 0
            for depth, (position, state) in enumerate(path.trace):
                confs.append((position, state, depth, path.history[:letters]))
                letters += isinstance(getattr(position, "stmt", None), Branch)
            # one letter per [] step taken (the last pair takes none)
            taken = letters - isinstance(getattr(path.trace[-1][0], "stmt", None), Branch)
            assert taken == len(path.history)
            edges.update(zip(confs, confs[1:]))
        indegree = Counter(b for _, b in edges)
        assert all(count == 1 for count in indegree.values())
        histories = [path.history for path in report.paths]
        assert len(set(histories)) == len(histories)


def test_node_budget_enforced():
    with pytest.raises(BudgetError):
        enumerate_paths(EX411.program, State({"x": 1}), 40, EX411.algebra, node_budget=10)


# ---------------------------------------------------------------------------
# op_oracle
# ---------------------------------------------------------------------------

def test_op_tropical_conditional():
    res = op_oracle(EX49.program, State({"x": 0}), weighting("one", TROP), TROP, fuel=5)
    assert res.value == TROP.value(2) and res.exact


def test_op_zero_post_is_strict():
    rng = random.Random(37)
    for _ in range(15):
        p = rand_uct_program(rng, TROP)
        res = op_oracle(p, rand_state(rng), weighting("zero", TROP), TROP, fuel=40)
        assert res.value == TROP.mod_zero() and res.exact


def test_op_empty_language_with_stabilization():
    lang = algebra("lang:ab")
    loop = prog("@instance lang:ab\nwhile(true){weigh a}").program
    res = op_oracle(loop, State({}), weighting("one", lang), lang, fuel=10)
    assert res.value == lang.mod_zero() and res.exact


def test_op_counts_terminal_paths_on_counting():
    cnt = algebra("counting")
    rng = random.Random(41)
    one = weighting("one", cnt)
    for _ in range(25):
        p = rand_loopfree(rng, cnt, depth=3)
        # strip weighings: replace by a program with unit weights only
        sigma = rand_state(rng)
        report = enumerate_paths(p, sigma, 64, cnt)
        res = op_oracle(p, sigma, one, cnt, fuel=64)
        assert res.exact
        # with all weights nonzero the oracle counts weighted paths; on
        # programs without weigh 0 the count equals the number of terminals
        weights = [path.weight.value for path in report.paths if path.terminal]
        expected = sum(weights)
        assert res.value == cnt.value(expected)


def test_op_composition_through_tabulation():
    cnt = algebra("counting")
    rng = random.Random(43)
    one = weighting("one", cnt)
    for _ in range(15):
        c1 = rand_uct_program(rng, cnt, depth=2)
        c2 = rand_uct_program(rng, cnt, depth=2)
        sigma = rand_state(rng)
        # tabulate g = op(C2, ., one) on the final states of C1
        report = enumerate_paths(c1, sigma, 64, cnt)
        finals = {p.last_state for p in report.paths if p.terminal}
        g = TableWeighting(cnt, {tau: op_oracle(c2, tau, one, cnt, fuel=64).value
                                 for tau in finals})
        lhs = op_oracle(Seq(c1, c2), sigma, one, cnt, fuel=64)
        rhs = op_oracle(c1, sigma, g, cnt, fuel=64)
        assert lhs.exact and rhs.exact
        assert lhs.value == rhs.value


def test_op_stalled_sum_is_not_exact_while_paths_still_terminate():
    # the right arm pays 1 per lap and may leave after any lap, so op is inf;
    # for the first hundreds of layers the sum sits at the left arm's 100
    stall = prog("@instance arctic\n"
                 "{ weigh 100 } [] { while (c = 0) { weigh 1; { c := 1 } [] { skip } } }")
    alg = stall.algebra
    for fuel in (64, 200):
        res = op_oracle(stall.program, State({"c": 0}), weighting("one", alg), alg, fuel=fuel)
        assert res.value == alg.value(100) and not res.exact


def test_frontier_doubling_every_lap_is_certified_by_the_reachable_pairs():
    # the frontier doubles every lap, so it never repeats; no terminal is
    # reachable and every edge weighs one, so op(one) = 0 and olp(zero) = inf
    cnt = algebra("counting")
    flip = prog("@instance counting\nwhile (true) { { x := 1 - x } [] { skip } }").program
    op = op_oracle(flip, State({"x": 0}), weighting("one", cnt), cnt, fuel=12)
    assert op.value == cnt.mod_zero() and op.exact
    olp = olp_oracle(flip, State({"x": 0}), weighting("zero", cnt), cnt, fuel=12)
    assert olp.value == cnt.value(INF) and olp.exact


def test_reachable_pairs_certify_only_within_the_node_budget():
    # no terminal is reachable, but only past 300 (position, state) pairs
    lang = algebra("lang:ab")
    climb = prog("@instance lang:ab\n"
                 "while (x < 100) { x := x + 1; weigh a }; while (true) { skip }").program
    for budget, exact in ((100, False), (1000, True)):
        res = op_oracle(climb, State({}), weighting("one", lang), lang, fuel=8,
                        node_budget=budget)
        assert res.value == lang.mod_zero() and res.exact == exact


def test_the_quotient_is_walked_depth_first_last_successor_first():
    # each pair is entered from the last entered pair that reaches it, as a
    # recursive walk would, also where an earlier pair reached it first
    cnt = algebra("counting")

    def walk(node, order):
        order[node] = None
        for _, position, sigma in reversed(successors(*node, cnt)):
            if (position, sigma) not in order:
                walk((position, sigma), order)
        return list(order)

    # the last: from the loop head at x=1, the right arm runs x := 0 and
    # re-enters the loop, and the inner loop climbs from x=0 to the pair
    # (inner loop, x=1) that the left arm reached first, so a walk that
    # marks a pair when it pushes it enters that pair in another order
    for text in ("{ x := 1 } [] { { skip } [] { skip; x := 1 } }",
                 "while (x < 4) { { x := x + 1 } [] { x := x + 2 }; { skip } [] { weigh 2 } }",
                 "while (true) { { x := 1 - x } [] { skip } }",
                 "x := 1; while (true) { { while (x < 1) { x := x + 1 } } "
                 "[] { { x := 0 } [] { x := 2 } } }"):
        program = prog("@instance counting\n" + text).program
        graph = build_quotient(program, State({}), cnt)
        entry = compile_program(program)
        assert list(graph) == walk((entry, pack(State({}), entry.names, True)), {})


def test_the_walk_order_decides_between_budget_and_evaluation_errors():
    # a cycle (x := 0 back to the loop head), a diamond (y := 1 and y := 2
    # both end at y=0) and a product past MAX_INT_BITS, entered 13th: below
    # that budget the walk stops first, at or above it the product fails
    program = prog("@instance tropical\n"
                   "while (x = 0) { { x := 1 } [] { x := 0 } }; "
                   "{ y := z * z } [] { { y := 1 } [] { y := 2 }; y := 0 }").program

    def label(position):
        if position is TERMINATED:
            return "end"
        stmt = position.stmt
        return f"{stmt.var} :=" if isinstance(stmt, Assign) else type(stmt).__name__

    graph = build_quotient(program, State({"z": 2}), TROP)
    assert [(label(p), key[:2]) for p, key in graph] == [
        ("While", (0, 0)), ("Branch", (0, 0)), ("x :=", (0, 0)), ("x :=", (0, 0)),
        ("While", (1, 0)), ("Branch", (1, 0)), ("Branch", (1, 0)), ("y :=", (1, 0)),
        ("y :=", (1, 2)), ("end", (1, 0)), ("y :=", (1, 0)), ("y :=", (1, 1)),
        ("y :=", (1, 0)), ("end", (1, 4))]
    huge = State({"z": 2 ** MAX_INT_BITS})
    with pytest.raises(BudgetError):
        build_quotient(program, huge, TROP, node_budget=12)
    assert certainly_terminates(program, [huge], TROP, node_budget=12) == [False]
    for budget in (13, 100):
        with pytest.raises(EvalError, match="product exceeds"):
            build_quotient(program, huge, TROP, node_budget=budget)
        with pytest.raises(EvalError, match="product exceeds"):
            certainly_terminates(program, [huge], TROP, node_budget=budget)


def test_oracles_reject_a_postweighting_over_another_instance():
    # a counting postweighting on a tropical program raises MismatchError,
    # as in `wp_eval`: where the depth-cut walk ends every path, and where
    # the loop's paths outrun fuel 2 and only the solve reads the post
    post = weighting("int(x)", algebra("counting"))
    for text, fuel in (("x := x + 1; weigh 1", 64),
                       ("while (x > 0) { x := x - 1; weigh 1 }", 2)):
        program = prog("@instance tropical\n" + text).program
        for oracle in (op_oracle, olp_oracle):
            with pytest.raises(MismatchError):
                oracle(program, State({"x": 2}), post, TROP, fuel=fuel)


def test_olp_top_is_not_settled_while_the_sum_can_still_fall():
    cnt = algebra("counting")
    zero = weighting("zero", cnt)
    # every run ends after 100 laps: olp(zero) is 0
    count = prog("@instance counting\nwhile (x < 100) { x := x + 1 }").program
    res = olp_oracle(count, State({}), zero, cnt, fuel=8)
    assert res.value == cnt.mod_zero() and res.exact
    # the only run weighs 0 after 20 laps: olp(zero) is 0
    later = prog("@instance counting\n"
                 "while (x < 20) { x := x + 1 }; while (true) { weigh 0 }").program
    res = olp_oracle(later, State({}), zero, cnt, fuel=8)
    assert res.value == cnt.mod_zero() and res.exact
    res = olp_oracle(later, State({}), zero, cnt, fuel=100)
    assert res.value == cnt.mod_zero() and res.exact


def test_olp_of_a_loop_that_weighs_zero_every_lap_is_exact_zero():
    # the solve iterates the loop's pairs from top and stops at 0 in two passes
    cnt = algebra("counting")
    loop = prog("@instance counting\nwhile (c = 1) { weigh 0 }").program
    res = olp_oracle(loop, State({"c": 1}), weighting("zero", cnt), cnt, fuel=8)
    assert res.value == cnt.mod_zero() and res.exact


def test_op_needs_no_value_behind_a_path_that_weighs_zero():
    # the loop's iteration climbs 1, 2, 3, ... and never stabilizes, but
    # every live path weighs 0, and 0 (x) x = 0 whatever x is
    cnt = algebra("counting")
    zeroed = prog("@instance counting\n"
                  "{ weigh 0 }; while (c = 1) { { c := 0 } [] { skip } }").program
    for fuel in (8, 64):
        res = op_oracle(zeroed, State({"c": 1}), weighting("one", cnt), cnt, fuel=fuel)
        assert res.value == cnt.mod_zero() and res.exact


def test_op_needs_no_value_behind_an_edge_that_weighs_zero():
    # the live path counts x down; behind `weigh 0` lies a loop whose
    # iteration never stabilizes, but the edge into it weighs 0, so the
    # pair read through it needs no certified value: op is 1, from `skip`
    cnt = algebra("counting")
    guarded = prog("@instance counting\nwhile (x > 0) { x := x - 1 }; "
                   "{ weigh 0; c := 1; while (c = 1) { { c := 0 } [] { skip } } } [] { skip }"
                   ).program
    res = op_oracle(guarded, State({"x": 20}), weighting("one", cnt), cnt, fuel=8)
    assert res.value == cnt.value(1) and res.exact


def test_the_solve_counts_equal_arms_twice():
    # both arms are one position, so the branch steps twice to one pair;
    # at fuel 1 neither path has ended, and op(one) counts both
    cnt = algebra("counting")
    twin = prog("@instance counting\nwhile (c = 1) { { c := 0 } [] { c := 0 } }").program
    res = op_oracle(twin, State({"c": 1}), weighting("one", cnt), cnt, fuel=1)
    assert res.value == cnt.value(2) and res.exact


def test_a_cycle_that_reads_an_uncertified_value_is_not_certified():
    # at fuel 5 the one live path sits on the first loop's cycle, which
    # stands still after two passes; but it reads the second loop, whose
    # iteration climbs 1, 2, 3, ... (op is inf)
    cnt = algebra("counting")
    chain = prog("@instance counting\n"
                 "while (d = 1) { skip; skip; skip; skip; { d := 0 } [] { weigh 0 } }; "
                 "while (c = 1) { { c := 0 } [] { skip } }").program
    res = op_oracle(chain, State({"c": 1, "d": 1}), weighting("one", cnt), cnt, fuel=5)
    assert res.value == cnt.mod_zero() and not res.exact


def test_a_geometric_loop_stays_inexact_on_both_sides():
    # op is 1, the limit of 1 - 2^-n; no pass of the iteration stands still
    geo = prog("@instance prob\n"
               "while (c = 1) { { weigh 1/2; c := 0 } [] { weigh 1/2 } }")
    alg, one, sigma = geo.algebra, weighting("one", geo.algebra), State({"c": 1})
    res = op_oracle(geo.program, sigma, one, alg, fuel=20)
    assert not res.exact and alg.nat_leq(res.value, alg.value(1))
    assert not Engine(alg, "wp", 20).run(geo.program, one, sigma).exact


def test_op_certificate_gives_up_where_a_later_step_is_undefined():
    # past the horizon x turns negative and int(x) is not a counting weight
    cnt = algebra("counting")
    down = prog("@instance counting\nwhile (x > -5) { x := x - 1; weigh int(x) }").program
    res = op_oracle(down, State({"x": 20}), weighting("zero", cnt), cnt, fuel=8)
    assert res.value == cnt.mod_zero() and not res.exact


# ---------------------------------------------------------------------------
# olp_oracle
# ---------------------------------------------------------------------------

def test_olp_tropical_divergence():
    res = olp_oracle(EX410.program, State({"x": 2}), weighting("zero", TROP), TROP, fuel=20)
    assert res.value == TROP.value(0) and res.exact


def test_olp_uct_is_zero():
    rng = random.Random(47)
    for name in ("tropical", "counting", "boolean", "arctic"):
        alg = algebra(name)
        for _ in range(8):
            p = rand_uct_program(rng, alg)
            sigma = rand_state(rng)
            assert uct_check(p, sigma, alg).certain
            res = olp_oracle(p, sigma, weighting("zero", alg), alg, fuel=64)
            assert res.value == alg.mod_zero() and res.exact


def test_olp_omega_lasso():
    ol = algebra("omegalang:ab")
    loop = prog("@instance omegalang:ab\nwhile(true){weigh b}").program
    res = olp_oracle(loop, State({}), weighting("zero", ol), ol, fuel=12)
    assert res.value == ol.value({("", "b")}) and res.exact


def test_the_oracles_walk_the_live_pairs_once(monkeypatch):
    # the olp solve is not certified here, so the lasso solves op on the
    # same pairs; the budget walk before the first solve covers both, and
    # the lasso's quotient is the only other walk
    walks, walk = [], operational._reachable

    def counted(*args):
        walks.append(1)
        return walk(*args)
    monkeypatch.setattr(operational, "_reachable", counted)
    ol = algebra("omegalang:ab")
    loop = prog("@instance omegalang:ab\nwhile(true){weigh b}").program
    res = olp_oracle(loop, State({}), weighting("zero", ol), ol, fuel=12)
    assert res.value == ol.value({("", "b")}) and res.exact
    assert len(walks) == 2
    walks.clear()
    res = op_oracle(loop, State({}), weighting("zero", ol), ol, fuel=12)
    assert res.value == ol.mod_zero() and res.exact
    assert len(walks) == 1


def test_olp_steps_each_live_pair_once_for_both_seeds(monkeypatch):
    # uncertified from top, so the lasso solves op from zero; both solves
    # read one system, whose numbering steps each pair the live paths reach
    # once, after the budget walk and before the lasso's quotient
    phase, steps, seeds = [], Counter(), []
    walk, step, solve_one = operational._reachable, operational.successors, operational._solve
    lasso = operational.diverging_weights

    def budget_walk(*args):
        yield from walk(*args)
        if not phase:
            phase.append("solve")

    def counted(position, sigma, alg):
        if phase == ["solve"]:
            steps[position, sigma] += 1
        return step(position, sigma, alg)

    def solved(system, seed, *args):
        seeds.append(seed)
        return solve_one(system, seed, *args)

    def diverging(*args):
        phase.append("lasso")
        return lasso(*args)
    monkeypatch.setattr(operational, "_reachable", budget_walk)
    monkeypatch.setattr(operational, "successors", counted)
    monkeypatch.setattr(operational, "_solve", solved)
    monkeypatch.setattr(operational, "diverging_weights", diverging)
    ol = algebra("omegalang:ab")
    loop = prog("@instance omegalang:ab\n"
                "while (true) { if (x < 3) { x := x + 1; weigh a } else { x := 0; weigh b } }")
    res = olp_oracle(loop.program, State({}), weighting("zero", ol), ol, fuel=12)
    assert res.value == ol.value({("", "aaab")}) and res.exact
    assert seeds == [ol.top().value, ol.mod_zero().value] and phase[-1] == "lasso"
    # four positions at each x = 0..3
    assert len(steps) == 16 and set(steps.values()) == {1}


def test_olp_chain_is_descending():
    for parsed, sigma in ((EX410, State({"x": 2})), (EX411, State({"x": 1})),
                          (SKI_ND, State({"n": 3, "y": 2}))):
        alg = parsed.algebra
        chain = olp_chain(parsed.program, sigma, alg, fuel=12)
        for a, b in zip(chain, chain[1:]):
            assert alg.nat_leq(b, a)


# ---------------------------------------------------------------------------
# uct_check
# ---------------------------------------------------------------------------

def test_uct_ski_rental():
    assert uct_check(SKI_ND.program, State({"n": 3, "y": 2}), TROP).certain


def test_uct_refuted_with_skip_lasso():
    res = uct_check(EX410.program, State({"x": 2}), TROP)
    assert res.kind == "refuted"
    prefix, cycle = res.lasso
    assert all(isinstance(node, tuple) for node in cycle)
    # the lasso cycle keeps the state x=2 throughout
    assert all(node[1] == State({"x": 2}) for node in cycle)


def test_uct_lasso_keeps_the_input_variables_the_program_never_mentions():
    res = uct_check(EX410.program, State({"x": 2, "z": 5}), TROP)
    prefix, cycle = res.lasso
    assert all(node[1] == State({"x": 2, "z": 5}) for node in prefix + cycle)


def test_uct_one_step_program():
    res = uct_check(prog("@instance tropical\nskip").program, State({}), TROP)
    assert res.certain and res.maxlen == 1


def test_uct_certain_on_a_long_acyclic_quotient():
    arctic = algebra("arctic")
    count = prog("@instance arctic\nwhile (x < 6000) { x := x + 1; weigh 1 }").program
    res = uct_check(count, State({"x": 0}), arctic)
    assert res.certain and res.maxlen == 18001


def test_uct_unknown_on_budget():
    grower = prog("@instance tropical\nwhile(x>0){x := x+1}").program
    res = uct_check(grower, State({"x": 1}), TROP, node_budget=50)
    assert res.kind == "unknown"


# ---------------------------------------------------------------------------
# components
# ---------------------------------------------------------------------------

def test_components_dependencies_first_deepest_first():
    succ = {"a": ["b"], "b": ["c"], "c": ["b", "d"], "d": ["d"], "e": ["a"], "f": []}
    assert list(components(["a"], succ.__getitem__)) == [["d"], ["c", "b"], ["a"]]
    order = list(components(["e", "a", "f"], succ.__getitem__))
    assert order == [["d"], ["c", "b"], ["a"], ["e"], ["f"]]
    # every successor outside a component lies in an earlier one
    seen = set()
    for comp in order:
        assert all(w in seen or w in comp for v in comp for w in succ[v])
        seen.update(comp)
    assert [cyclic(comp, succ.__getitem__) for comp in order] == [True, True, False, False, False]


# each test runs with a list and with a dict as the values table
TABLES = pytest.mark.parametrize("table", [list, lambda xs: dict(enumerate(xs))],
                                 ids=["list", "dict"])
TWO_CYCLE = [[1], [0]].__getitem__  # 0 and 1 read each other


@TABLES
@pytest.mark.parametrize("exact", [True, False])
def test_settle_substitutes_once_on_no_cycle(table, exact):
    values, calls = table([0, 0]), []

    def substitute(v):
        calls.append(v)
        return values[1] + 5, exact
    assert settle([0], [[1], []].__getitem__, values, substitute, fuel=10) == (1, exact)
    assert calls == [0] and values[0] == 5


@TABLES
def test_settle_certifies_a_cycle_once_a_pass_changes_nothing(table):
    # 0 and 1 climb to 3 in two passes, and the third changes nothing
    values = table([0, 0])
    passes = settle([0, 1], TWO_CYCLE, values, lambda v: (min(values[1 - v] + 1, 3), True), 10)
    assert passes == (3, True) and [values[0], values[1]] == [3, 3]


@TABLES
def test_settle_gives_up_on_a_cycle_after_fuel_passes(table):
    values = table([0, 0])
    assert settle([0, 1], TWO_CYCLE, values, lambda v: (values[1 - v] + 1, True), 4) == (4, False)
    assert [values[0], values[1]] == [7, 8]


@TABLES
def test_settle_on_a_cycle_with_no_fuel_makes_no_pass(table):
    values = table([0, 0])
    assert settle([0, 1], TWO_CYCLE, values, lambda v: (1, True), 0) == (0, False)
    assert [values[0], values[1]] == [0, 0]


@TABLES
def test_settle_does_not_certify_a_still_pass_with_an_inexact_substitution(table):
    # a self-loop that stands still at once, but reads something inexact
    values = table([2])
    assert settle([0], [[0]].__getitem__, values, lambda v: (values[0], False), 10) == (1, False)
    values = table([0, 0])  # a two-vertex cycle whose vertex 1 reads something inexact
    assert settle([0, 1], TWO_CYCLE, values, lambda v: (values[1 - v], v == 0), 10) == (1, False)


def least_sum(forms, values, exact):
    """`solve`'s substitute over min and +: form i is (constant, exact,
    number, coefficient, ...), and a read of an inexact entry is inexact."""
    def substitute(i):
        terms = iter(forms[i])
        total, ok = next(terms), next(terms)
        for j, c in zip(terms, terms):
            total, ok = min(total, c + values[j]), ok and exact[j] is not False
        return total, ok
    return substitute


def solved(forms, exact, roots, monkeypatch):
    """`solve` from the seed inf: (passes, values, exact, forms), and the
    components it walked."""
    walked, values = [], [inf] * len(forms)

    def counted(*args):
        order = list(components(*args))
        walked.extend(order)
        return order
    monkeypatch.setattr(operational, "components", counted)
    passes = solve(roots, values, exact, forms, least_sum(forms, values, exact), fuel=10)
    return (passes, values, exact, forms), walked


def test_solve_substitutes_an_acyclic_system_numbered_readers_first_in_one_pass(monkeypatch):
    # 0 reads 1 and 2, 1 reads 2 and 3; 3 is an entry read as it is, at the
    # seed and inexact, so 1 is inexact, and so is 0, which reads 1
    forms = [(9, True, 1, 1, 2, 5), (9, True, 2, 1, 3, 0), (4, True), None]
    exact = [None, None, None, False]
    result, walked = solved(forms, exact, [0], monkeypatch)
    assert result == (1, [6, 5, 4, inf], [False, False, True, False], [None, None, None, None])
    assert walked == []


def test_solve_leaves_a_back_read_to_components(monkeypatch):
    # 2 reads 1, numbered before it: the pass meets 2 while 1 is unsolved
    forms = [(9, True, 2, 1), (3, True), (9, True, 1, 1)]
    result, walked = solved(forms, [None] * 3, [0], monkeypatch)
    assert result == (1, [5, 3, 4], [True] * 3, [None] * 3)
    assert walked == [[2], [0]]


def test_solve_settles_a_cycle_that_one_of_two_roots_reads(monkeypatch):
    # root 0 reads the constant 2 and is solved by the pass; root 1 and 3
    # read each other, a cycle iterated from the seed
    forms = [(9, True, 2, 1), (5, True, 3, 1), (4, True), (inf, True, 1, 1)]
    result, walked = solved(forms, [None] * 4, [0, 1], monkeypatch)
    assert result == (3, [5, 5, 4, 6], [True] * 4, [None] * 4)
    assert walked == [[3, 1]]


def test_solve_makes_no_pass_where_every_entry_holds_a_value():
    forms, values, exact = [None, None], [1, 2], [True, False]
    assert solve([0], values, exact, forms, least_sum(forms, values, exact), fuel=10) == 0
    assert (values, exact) == ([1, 2], [True, False])


def test_lassos_are_walks_and_divergence_matches_the_exact_chain(monkeypatch):
    # uct_check's lasso is checked against the quotient that uct_check built,
    # since positions compare by identity and each build compiles afresh
    graphs = []

    def recording(*args, **kwargs):
        graphs.append(build_quotient(*args, **kwargs))
        return graphs[-1]

    monkeypatch.setattr("wgcl.operational.build_quotient", recording)
    rng = random.Random(509)
    lassos, compared = Counter(), Counter()
    # nested programs put cycles behind an inner loop's quotient
    for generate in (rand_looping_program, rand_nested_program):
        for name in ("boolean", "tropical", "arctic", "omegalang:ab"):
            alg = algebra(name)
            zero = weighting("zero", alg)
            for _ in range(100):
                p = generate(rng, alg)
                sigma = rand_state(rng)
                if "*" in print_program(p, alg):
                    continue  # a squaring loop: the quotient never closes
                graphs.clear()
                res = uct_check(p, sigma, alg, node_budget=3000)
                if res.kind == "refuted":
                    lassos[generate] += 1
                    graph = graphs[-1]
                    prefix, cycle = res.lasso
                    # the quotient keys its states (`pack`), the lasso unpacks them
                    names = compile_program(p).names
                    walk = [(q, pack(s, names, True)) for q, s in prefix + cycle + [cycle[0]]]
                    assert walk[0] == next(iter(graph))
                    for u, v in zip(walk, walk[1:]):
                        assert v in [s for _, s in graph[u]], (name, p, sigma)
                try:
                    div = diverging_weights(p, sigma, alg, 3000)
                    chain = olp_oracle(p, sigma, zero, alg, fuel=20, node_budget=3000)
                except (BudgetError, DivergenceError):
                    continue
                if chain.exact:
                    compared[generate] += 1
                    assert div == chain.value, (name, p, sigma)
    assert lassos[rand_looping_program] >= 70 and compared[rand_looping_program] >= 100
    assert lassos[rand_nested_program] >= 40 and compared[rand_nested_program] >= 80


# ---------------------------------------------------------------------------
# diverging_weights
# ---------------------------------------------------------------------------

def test_diverging_omega_single_lasso():
    res = diverging_weights(EX411.program, State({"x": 1}), EX411.algebra)
    assert res == EX411.algebra.value({("", "b")})


def test_diverging_arctic_no_cycle():
    res = diverging_weights(E55.program, State({"x": 0, "y": 0}), E55.algebra)
    assert res == E55.algebra.value(NEG_INF)


def test_diverging_tropical_zero_cycle():
    res = diverging_weights(EX410.program, State({"x": 2}), TROP)
    assert res == TROP.value(0)
    res2 = diverging_weights(EX410.program, State({"x": 3}), TROP)
    assert res2 == TROP.value(INF)


def test_diverging_tropical_costly_cycle():
    # every cycle costs 1 per lap: the chain climbs without bound
    loop = prog("@instance tropical\nwhile(x=1){ {weigh 1} [] {x := 0} }")
    res = diverging_weights(loop.program, State({"x": 1}), TROP)
    assert res == TROP.value(INF)


def test_diverging_tropical_paid_entry():
    # pay 4 once, then loop for free: the limit is 4
    loop = prog("@instance tropical\nweigh 4; while(true){skip}")
    res = diverging_weights(loop.program, State({}), TROP)
    assert res == TROP.value(4)
    chain = olp_chain(loop.program, State({}), TROP, fuel=10)
    assert chain[-1] == TROP.value(4)


def test_diverging_omega_cylinder_for_silent_loop():
    ol = algebra("omegalang:ab")
    silent = prog("@instance omegalang:ab\nweigh ab; while(true){skip}")
    res = diverging_weights(silent.program, State({}), ol)
    assert res == ol.value(make_omega(cylinders=["ab"]))


def test_diverging_omega_two_reachable_cycles():
    two = prog("@instance omegalang:ab\n{while(true){weigh a}} [] {while(true){weigh b}}")
    res = diverging_weights(two.program, State({}), two.algebra)
    assert res == two.algebra.value({("", "a"), ("", "b")})


def test_quotient_collapses_equal_branch_arms():
    # both arms weigh b: one edge out of the branch, one lasso (b)^omega;
    # arms are equal as statement lists, however their sequences nest
    for body, pairs in (("{weigh b} [] {weigh b}", 3),
                        ("{ {weigh b; skip}; skip } [] { weigh b; skip; skip }", 5)):
        twin = prog(f"@instance omegalang:ab\nwhile(x=1){{ {body} }}")
        graph = build_quotient(twin.program, State({"x": 1}), twin.algebra)
        assert len(graph) == pairs
        assert all(len(edges) == 1 for edges in graph.values())
        res = diverging_weights(twin.program, State({"x": 1}), twin.algebra)
        assert res == twin.algebra.value({("", "b")})


def test_diverging_rejects_branching_cycles():
    # within one loop both letters stay available: uncountably many words
    messy = prog("@instance omegalang:ab\nwhile(true){ {weigh a} [] {weigh b} }")
    with pytest.raises(DivergenceError):
        diverging_weights(messy.program, State({}), messy.algebra)


def test_diverging_rejects_a_cycle_feeding_another():
    # the a-loop can leave for the b-loop after any number of laps
    fed = prog("@instance omegalang:ab\n"
               "while(x=1){ {x := 0} [] {weigh a} }; while(true){weigh b}")
    with pytest.raises(DivergenceError, match="feeds another cycle"):
        diverging_weights(fed.program, State({"x": 1}), fed.algebra)


def test_diverging_rejects_counting():
    with pytest.raises(DivergenceError):
        diverging_weights(EX410.program, State({"x": 2}), algebra("counting"))


def test_diverging_omega_takes_one_pass_behind_many_choices():
    # 20 choices whose arms meet again: 82 pairs, but 2^20 paths onto the cycle
    ol = algebra("omegalang:ab")
    diamonds = prog("@instance omegalang:ab\n"
                    + "{ skip } [] { skip; skip }; " * 20 + "while (true) { weigh a }")
    assert len(build_quotient(diamonds.program, State({}), ol)) == 82
    res = diverging_weights(diamonds.program, State({}), ol)
    assert res == ol.value({("", "a")})


def test_diverging_survives_long_acyclic_prefixes():
    ol = algebra("omegalang:ab")
    # a 2000-step countdown before the silent loop: deep quotient prefix
    long = prog("@instance omegalang:ab\n"
                "x := 2000; while(x>0){x := x-1}; weigh a; while(true){skip}")
    res = diverging_weights(long.program, State({}), ol, node_budget=10 ** 5)
    assert res == ol.value(make_omega(cylinders=["a"]))


def test_quotient_matches_olp_on_examples():
    # chain mode and lasso mode agree wherever both are exact
    for parsed, sigma in ((EX410, State({"x": 2})), (EX411, State({"x": 1}))):
        alg = parsed.algebra
        chain = olp_oracle(parsed.program, sigma, weighting("zero", alg), alg, fuel=20)
        lasso = diverging_weights(parsed.program, sigma, alg)
        assert chain.exact
        assert chain.value == lasso
