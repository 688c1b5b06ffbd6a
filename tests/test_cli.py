"""Exit codes, output formats, and end-to-end command behavior."""

import contextlib
import io
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wgcl.algebra import algebra
from wgcl import cli, syntax
from wgcl.operational import OracleResult
from wgcl.cli import build_parser, main
from wgcl.parser import parse_program
from wgcl.syntax import compile_program, print_program

from genprog import rand_looping_program, rand_loopfree, rand_state, rand_uct_program


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_wp_grid_matches_min(capsys):
    code, out, _ = run(capsys, "wp", "ski_nd", "--post", "one",
                       "--grid", "n=0..8,y=0..8")
    assert code == 0
    lines = [l.split(" | ") for l in out.strip().splitlines()]
    assert len(lines) == 81
    for sigma, value, flag in lines:
        bindings = dict(kv.split("=") for kv in sigma.split(","))
        assert int(value) == min(int(bindings["n"]), int(bindings["y"]))
        assert flag == "exact"


def test_wlp_single_state(capsys):
    code, out, _ = run(capsys, "wlp", "ex410", "--post", "int(0)", "--state", "x=2")
    assert code == 0
    assert out.strip() == "x=2 | 0 | exact"


def test_wp_state_includes_declared_zeros(capsys):
    code, out, _ = run(capsys, "wp", "fib", "--post", "[m<=1] int(1)",
                       "--state", "n=5,c=0,m=0")
    assert code == 0
    assert out.strip() == "c=0,m=0,n=5 | 13 | exact"


def test_exit_three_on_inexact(capsys):
    code, out, _ = run(capsys, "wp", "ex411", "--post", "one",
                       "--state", "x=1", "--fuel", "10")
    assert code == 3
    assert "inexact" in out


def test_exit_two_on_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.wgcl"
    bad.write_text("@instance tropical\nx := ;\n", encoding="utf-8")
    code, _, err = run(capsys, "wp", str(bad), "--state", "x=0")
    assert code == 2
    assert "line" in err


def test_exit_two_on_unknown_instance(capsys, tmp_path):
    bad = tmp_path / "bad.wgcl"
    bad.write_text("@instance galactic\nskip\n", encoding="utf-8")
    code, _, err = run(capsys, "wp", str(bad), "--state", "x=0")
    assert code == 2


def test_missing_program_exits_two(capsys):
    code, _, err = run(capsys, "wp", "no_such_example", "--state", "x=0")
    assert code == 2
    assert "bundled" in err


def test_a_program_file_that_is_not_utf8_is_a_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.wgcl"
    bad.write_bytes(b"@instance tropical\nskip \xff\n")
    assert run(capsys, "print", str(bad)) == (
        2, "", f"wgcl: {bad}: not UTF-8 text: byte 24 (invalid start byte)\n")


def test_a_program_file_that_cannot_be_read_is_a_usage_error(capsys, tmp_path, monkeypatch):
    prog = tmp_path / "prog.wgcl"
    prog.write_text("@instance tropical\nskip\n", encoding="utf-8")

    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "read_text", refuse)
    assert run(capsys, "print", str(prog)) == (
        2, "", f"wgcl: cannot read {prog}: Permission denied\n")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_named_pipe_is_not_a_program_file(capsys, tmp_path):
    # it is never opened, so no command waits for a writer
    fifo = tmp_path / "ski_nd"
    os.mkfifo(fifo)
    assert run(capsys, "print", str(fifo)) == (
        2, "", f"wgcl: no such program file or bundled example: {fifo}\n")


def test_tsv_format(capsys):
    code, out, _ = run(capsys, "wp", "ex49", "--post", "one",
                       "--state", "x=0", "--format", "tsv")
    assert code == 0
    assert out.strip() == "x=0\t2\texact"


def test_tsv_quotes_language_values_sorted(capsys):
    code, out, _ = run(capsys, "wlp", "ex411", "--post", "zero",
                       "--state", "x=1", "--format", "tsv")
    assert code == 0
    assert out.strip() == "x=1\t{(b)^ω}\texact"


def test_check_fixed_mode_conclusions(capsys):
    code, out, _ = run(capsys, "check", "ex55_arctic",
                       "--post", "int(0)",
                       "--invariant",
                       "[x>0 and y>0] 2*(x-1)+y (+) [not(x>0 and y>0)] int(0)",
                       "--mode", "fixed", "--grid", "x=0..6,y=0..6")
    assert code == 0
    assert "invariant is a fixed point" in out
    assert "wp = wlp = invariant" in out


E55_INV = "[x>0 and y>0] 2*(x-1)+y (+) [not(x>0 and y>0)] int(0)"


@pytest.mark.parametrize("budget, flag", [((), "uct"), (("--budget", "3"), "divergence-possible")],
                         ids=["default budget", "budget 3"])
def test_check_fixed_mode_flags_every_row(capsys, budget, flag):
    # the grid's (position, state) graph is built once for all rows; when it
    # outgrows the budget, no row is certain to terminate and wp = wlp is
    # not concluded, while the fixed-point verdicts stand
    code, out, err = run(capsys, "check", "ex55_arctic", "--post", "int(0)", "--mode", "fixed",
                         "--grid", "x=0..2,y=0..2", "--invariant", E55_INV, *budget)
    lines = [f"x={x},y={y} | fixed | {flag}" for x in range(3) for y in range(3)]
    lines.append("conclusion: invariant is a fixed point of the characteristic function on the grid")
    if flag == "uct":
        lines.append("conclusion: wp = wlp = invariant at every checked state")
    assert (code, out, err) == (0, "\n".join(lines) + "\n", "")


def test_check_sub_zero_passes(capsys):
    code, out, _ = run(capsys, "check", "ex410", "--post", "int(0)",
                       "--invariant", "zero", "--mode", "sub",
                       "--grid", "x=0..4")
    assert code == 0
    assert "invariant <= wlp" in out


def test_check_super_failure_exits_four(capsys):
    code, out, _ = run(capsys, "check", "fib", "--post", "[m<=1] int(1)",
                       "--invariant", "zero", "--mode", "super",
                       "--state", "n=0,c=0,m=0")
    assert code == 4
    assert "FAILS" in out


def test_check_rejects_non_loop(capsys):
    code, _, err = run(capsys, "check", "knapsack", "--post", "one",
                       "--invariant", "one", "--mode", "fixed", "--state", "x=0")
    assert code == 2
    assert "loop" in err


def test_check_loop_path_selects_nested(capsys):
    code, out, _ = run(capsys, "check", "fib", "--post", "[m<=1] int(1)",
                       "--invariant",
                       "[m<=1 and c=0] int(fib(n+2)) (+) [m<=1 and c>0] int(fib(n+1))",
                       "--mode", "super", "--loop-path", "2",
                       "--grid", "n=0..4,c=0..1,m=0..2")
    assert code == 0
    assert "wp of the loop <= invariant" in out


@pytest.mark.parametrize("path, message", [("5", "loop path index 5 out of range"),
                                           ("body", "loop path does not select a loop")])
def test_a_loop_path_that_selects_no_loop_is_a_usage_error(capsys, path, message):
    code, out, err = run(capsys, "check", "ski_nd", "--post", "one", "--invariant", "int(0)",
                         "--mode", "fixed", "--state", "n=1,y=1", "--loop-path", path)
    assert (code, out, err) == (2, "", f"wgcl: {message}\n")


def test_compare_knapsack_agrees(capsys):
    code, out, _ = run(capsys, "compare", "knapsack",
                       "--post", "[t<=6 and r>=13] int(1)", "--grid", "x=0..13")
    assert code == 0
    for line in out.strip().splitlines():
        assert line.endswith("agree")


def test_compare_trivial_skip(capsys, tmp_path):
    f = tmp_path / "nothing.wgcl"
    f.write_text("@instance tropical\nskip\n", encoding="utf-8")
    code, out, _ = run(capsys, "compare", str(f), "--post", "int(4)", "--state", "x=1")
    assert code == 0
    assert out.strip() == "x=1 | 4 | exact | 4 | exact | agree"


def test_compare_certifies_a_branch_behind_a_zero_weight(capsys, tmp_path):
    # the left arm weighs 0 before an inner loop that no fuel certifies, so
    # both sides read it as zero, exactly
    f = tmp_path / "behind_zero.wgcl"
    f.write_text("@instance counting\nwhile (x > 0) { x := x - 1 }; { weigh 0; c := 1; "
                 "while (c = 1) { { c := 0 } [] { skip } } } [] { skip }\n", encoding="utf-8")
    code, out, _ = run(capsys, "compare", str(f), "--post", "one", "--state", "x=20",
                       "--fuel", "8")
    assert (code, out) == (0, "x=20 | 1 | exact | 1 | exact | agree\n")


def test_compare_liberal(capsys):
    code, out, _ = run(capsys, "compare", "ex410", "--liberal",
                       "--post", "zero", "--state", "x=2")
    assert code == 0
    assert "agree" in out


def test_compare_liberal_reads_post(capsys):
    for name, grid, rows in (("ex410", "x=0..4", 5), ("ski_nd", "n=0..3,y=0..3", 16)):
        code, out, _ = run(capsys, "compare", name, "--liberal", "--post", "one", "--grid", grid)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == rows
        assert all(line.endswith("agree") for line in lines)


@pytest.mark.parametrize("exact, code", [(True, 4), (False, 3)], ids=["exact", "inexact"])
def test_compare_exits_on_a_differing_oracle(capsys, tmp_path, monkeypatch, exact, code):
    # an exact oracle that disagrees is a mismatch; an inexact one only
    # leaves the row inexact
    f = tmp_path / "nothing.wgcl"
    f.write_text("@instance tropical\nskip\n", encoding="utf-8")
    trop = algebra("tropical")
    monkeypatch.setattr(cli, "op_oracle", lambda *_: OracleResult(trop.value(5), exact))
    flag = "exact" if exact else "inexact"
    assert run(capsys, "compare", str(f), "--post", "int(1)", "--state", "x=1") == (
        code, f"x=1 | 1 | exact | 5 | {flag} | DIFFER\n", "")


def test_compare_ski_nd_at_n_100_is_exact_on_both_sides(capsys):
    # 100 laps outrun the fuel; the pairs past the cut form a chain the
    # oracle solves, for op and for olp alike
    for liberal in ((), ("--liberal",)):
        code, out, _ = run(capsys, "compare", "ski_nd", *liberal, "--post", "one",
                           "--state", "n=100,y=100")
        assert code == 0
        assert out.strip() == "n=100,y=100 | 100 | exact | 100 | exact | agree"


def test_the_forest_walk_counts_its_nodes_up_to_the_cut(capsys, tmp_path):
    # to depth 6 the forest has 16 nodes, the root included
    f = tmp_path / "twin.wgcl"
    f.write_text("@instance counting\nwhile (true) { { skip } [] { skip } }\n",
                 encoding="utf-8")
    for budget, expected in ((16, 0), (15, 5)):
        for argv in (["paths", str(f), "--depth", "6"],
                     ["compare", str(f), "--fuel", "6", "--post", "one"]):
            code, _, _ = run(capsys, *argv, "--state", "x=0", "--budget", str(budget))
            assert code == expected, (argv, budget)


def test_compare_ratio_never_exceeds_two(capsys):
    code, out, _ = run(capsys, "compare", "ski_onl", "--ratio", "ski_nd",
                       "--post", "one", "--grid", "n=1..8,y=1..8")
    assert code == 0
    assert out.strip().splitlines()[-1] == "max ratio on grid: 15/8"


def test_paths_trace_format(capsys):
    code, out, _ = run(capsys, "paths", "ex49", "--state", "x=0", "--depth", "6")
    assert code == 0
    assert out.splitlines() == ["L | 2 | - | terminal", "R | 3 | - | terminal"]


def test_paths_print_each_final_state_without_its_zeros(capsys, tmp_path):
    # a walk keeps every variable in a slot; a printed state drops a zero
    # slot, and keeps an input variable the program never mentions
    f = tmp_path / "zero.wgcl"
    f.write_text("@instance tropical\nx := 0; y := 2; weigh 1\n", encoding="utf-8")
    for state, shown in (("x=3", "y=2"), ("x=3,z=4", "y=2,z=4")):
        code, out, _ = run(capsys, "paths", str(f), "--state", state, "--depth", "5")
        assert (code, out) == (0, f"- | 1 | {shown} | terminal\n")


def test_check_fixed_certain_on_a_long_acyclic_loop(capsys, tmp_path):
    # 6000 laps: an 18001-step run, whose quotient closes acyclic
    f = tmp_path / "count.wgcl"
    f.write_text("@instance arctic\nwhile (x < 6000) { x := x + 1; weigh 1 }\n",
                 encoding="utf-8")
    code, out, _ = run(capsys, "check", str(f), "--mode", "fixed", "--state", "x=0",
                       "--post", "int(0)",
                       "--invariant", "[x < 6000] int(6000 - x) (+) [not (x < 6000)] int(0)")
    assert code == 0
    assert out.splitlines()[0] == "x=0 | fixed | uct"


def test_paths_open_runs_marked(capsys):
    code, out, _ = run(capsys, "paths", "ex411", "--state", "x=1", "--depth", "3")
    assert code == 0
    assert any(line.endswith("open") for line in out.splitlines())


def test_paths_deep_does_not_recurse(capsys):
    code, out, err = run(capsys, "paths", "ex411", "--state", "x=1", "--depth", "1500")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "L | a | - | terminal"
    history, weight, state, status = lines[-1].split(" | ")
    assert set(history) == {"R"} and weight == "b" * len(history)
    assert (state, status) == ("x=1", "open")


def test_large_fib_argument(capsys, tmp_path):
    f = tmp_path / "fib.wgcl"
    f.write_text("@instance tropical\nx := fib(5000); y := x - fib(4999) - fib(4998)\n",
                 encoding="utf-8")
    code, out, err = run(capsys, "wp", str(f), "--post", "int(y)", "--state", "y=1")
    assert code == 0 and err == ""
    assert out.strip() == "y=1 | 0 | exact"


def test_squaring_loop_stops_at_the_integer_bound(capsys, tmp_path):
    # x doubles its digits every lap: the 17th lap's product would exceed
    # 2^16 bits, which no node budget would have bounded in time
    f = tmp_path / "square.wgcl"
    f.write_text("@instance tropical\nwhile (x > 1) { x := x * x }\n", encoding="utf-8")
    for command in (["wp"], ["wlp"], ["compare"], ["compare", "--liberal"]):
        code, out, err = run(capsys, *command, str(f), "--state", "x=2")
        assert (code, out, err) == (2, "", "wgcl: a product exceeds 65536 bits\n")
    f.write_text("@instance tropical\nx := fib(x)\n", encoding="utf-8")
    code, _, err = run(capsys, "wp", str(f), "--state", "x=70000")
    assert (code, err) == (2, "wgcl: fib argument 70000 exceeds 65536\n")
    # below the bound, integers of any length read and print in full: 14
    # laps make 2^(2^14), 4933 digits, past Python's default str limit
    squares = "n := 0; x := 2; while (n < 14) { x := x * x; n := n + 1 }"
    f.write_text(f"@instance tropical\n{squares}; weigh int(0 - x)\n", encoding="utf-8")
    code, out, err = run(capsys, "wp", str(f), "--post", "one", "--state", "n=0")
    assert (code, out, err) == (2, "", f"wgcl: tropical: cannot embed negative integer {-2 ** 2 ** 14}\n")
    f.write_text(f"@instance counting\n{squares}\n", encoding="utf-8")
    code, out, err = run(capsys, "wp", str(f), "--post", "int(x)", "--state", "n=0")
    assert (code, out, err) == (0, f"n=0 | {2 ** 2 ** 14} | exact\n", "")
    big = "7" * 5000
    f.write_text(f"@instance counting\nx := {big}\n", encoding="utf-8")
    code, out, err = run(capsys, "wp", str(f), "--post", "int(x)", "--state", "x=0")
    assert (code, out, err) == (0, f"x=0 | {big} | exact\n", "")
    ones = "1" * 5000
    code, out, err = run(capsys, "wp", str(f), "--post", "int(x)", "--state", f"n=0,x={ones}")
    assert (code, out, err) == (0, f"n=0,x={ones} | {big} | exact\n", "")


def test_wlp_keeps_the_chain_bound_when_the_lasso_wp_part_is_inexact(capsys, tmp_path):
    # the lasso's sum would be inexact too, so wlp builds no quotient, whose
    # walk would square y past the integer bound; the chain's bound stands
    f = tmp_path / "grow.wgcl"
    f.write_text("@instance tropical\nwhile (x > 0) { x := x + 1; y := y * y }\n",
                 encoding="utf-8")
    code, out, err = run(capsys, "wlp", str(f), "--post", "one", "--state", "x=1,y=2",
                         "--fuel", "8")
    assert (code, out, err) == (3, "x=1,y=2 | 0 | inexact\n", "")


def test_wlp_of_a_cycle_behind_many_choices_is_exact_by_the_lasso(capsys, tmp_path):
    # the quotient has 82 pairs and 2^20 paths onto the cycle: one pass over
    # its components gives the divergence part, under auto and lasso alike
    f = tmp_path / "diamonds.wgcl"
    f.write_text("@instance omegalang:ab\n" + "{ skip } [] { skip; skip }; " * 20
                 + "while (true) { weigh a }\n", encoding="utf-8")
    for method in ((), ("--method", "lasso")):
        code, out, err = run(capsys, "wlp", str(f), "--post", "zero", *method)
        assert (code, out, err) == (0, " | {(a)^ω} | exact\n", ""), method


def test_tropical_divergence_skips_an_inf_edge(capsys, tmp_path):
    # the cheapest run into the cycle goes through the arm weighed 3; the
    # arm weighed inf is no route at all
    f = tmp_path / "infedge.wgcl"
    f.write_text("@instance tropical\n{ weigh inf } [] { weigh 3 }; while (true) { skip }\n",
                 encoding="utf-8")
    for method in ("lasso", "auto"):
        assert run(capsys, "wlp", str(f), "--post", "zero", "--method", method) == (
            0, " | 3 | exact\n", ""), method
    assert run(capsys, "compare", str(f), "--liberal", "--post", "zero") == (
        0, " | 3 | exact | 3 | exact | agree\n", "")


def test_budget_exhaustion_has_its_own_exit_code(capsys):
    code, out, err = run(capsys, "paths", "ex411", "--state", "x=1",
                         "--depth", "100", "--budget", "10")
    assert code == 5
    assert err == "wgcl: node budget 10 exceeded\n"
    code, out, err = run(capsys, "wp", "ski_nd", "--post", "one",
                         "--state", "n=5,y=5", "--budget", "3")
    assert code == 5
    assert err == "wgcl: loop touched more than 3 states\n"


def test_the_loop_budget_counts_one_solve_s_own_states(capsys, tmp_path):
    # each row touches 2 states; the states that earlier rows certified on
    # the grid's shared engine are read, not touched, so they do not count
    f = tmp_path / "down.wgcl"
    f.write_text("@instance tropical\nwhile (x > 0) { x := x - 1 }\n", encoding="utf-8")
    code, out, err = run(capsys, "wp", str(f), "--post", "one",
                         "--grid", "x=1,y=0..40", "--budget", "50")
    assert (code, err) == (0, "")
    assert out.splitlines() == [f"x=1,y={y} | 0 | exact" for y in range(41)]


def test_loops_in_sequence_each_count_their_own_solve_s_states(capsys, tmp_path):
    # each loop's solve touches its own 601 states, under a budget of 1000
    f = tmp_path / "two.wgcl"
    f.write_text("@instance tropical\nx := 600; while (x > 0) { x := x - 1; weigh 1 }; "
                 "y := 600; while (y > 0) { y := y - 1; weigh 1 }\n", encoding="utf-8")
    for command in ("wp", "wlp"):
        assert run(capsys, command, str(f), "--post", "one", "--state", "x=0",
                   "--fuel", "1000", "--budget", "1000") == (0, "x=0 | 1200 | exact\n", "")


def test_grid_row_does_not_borrow_an_uncertified_neighbour(capsys, tmp_path):
    # from x=1 the loop reads the states x=0 left uncertified (its horizon
    # cut the chain at fuel 2, and at budget 1000 the sweep stops there), so the
    # row stays inexact, as it is alone
    f = tmp_path / "reset.wgcl"
    f.write_text("@instance tropical\nwhile (y > 0) { x := 0; y := y - 1 }\n",
                 encoding="utf-8")
    code, out, _ = run(capsys, "wp", str(f), "--post", "one",
                       "--grid", "x=0..1,y=5..5", "--fuel", "2", "--budget", "1000")
    assert code == 3
    assert out == "x=0,y=5 | inf | inexact\nx=1,y=5 | inf | inexact\n"
    code, out, _ = run(capsys, "wp", str(f), "--post", "one",
                       "--state", "x=1,y=5", "--fuel", "2", "--budget", "1000")
    assert (code, out) == (3, "x=1,y=5 | inf | inexact\n")


def test_a_zero_denominator_is_a_parse_error(capsys, tmp_path):
    f = tmp_path / "half.wgcl"
    f.write_text("@instance prob\nx := 1;\nweigh 1/0\n", encoding="utf-8")
    code, out, err = run(capsys, "wp", str(f), "--post", "one", "--state", "x=1")
    assert (code, out, err) == (2, "", "wgcl: line 3, col 9: a fraction's denominator is 0\n")
    f.write_text("@instance prob\nweigh 1/2\n", encoding="utf-8")
    code, out, err = run(capsys, "wp", str(f), "--post", "[x > 0] 3/0", "--state", "x=1")
    assert (code, out, err) == (2, "", "wgcl: line 1, col 11: a fraction's denominator is 0\n")


def test_inf_over_a_word_instance_is_a_parse_error(capsys):
    code, out, err = run(capsys, "wp", "ex411", "--instance", "lang:ab",
                         "--post", "inf", "--state", "x=1")
    assert (code, out, err) == (2, "", "wgcl: line 1, col 1: lang:ab: not a language value: inf\n")


def test_one_graph_per_program_object(capsys, monkeypatch):
    text = "@instance tropical\nwhile (x > 0) { { x := x - 1 } [] { weigh 2; x := 0 } }"
    program = parse_program(text).program
    before = hash(program), program.__match_args__
    entry = compile_program(program)
    assert compile_program(program) is entry
    fresh = parse_program(text).program
    assert program == fresh and repr(program) == repr(fresh)
    assert (hash(program), program.__match_args__) == before
    assert compile_program(fresh) is not entry
    # the engine and the oracle, at every grid state, walk one graph
    built = []
    init = syntax.Node.__init__
    monkeypatch.setattr(syntax.Node, "__init__",
                        lambda node, *args: built.append(init(node, *args)))
    for argv, nodes in ((["compare", "ski_nd", "--post", "one", "--grid", "n=0..2,y=0..2"], 6),
                        (["compare", "ex411", "--liberal", "--post", "zero",
                          "--grid", "x=0..3"], 5)):
        built.clear()
        run(capsys, *argv)
        assert len(built) == nodes, argv


def test_fuel_env_override(capsys, monkeypatch):
    monkeypatch.setenv("WGCL_FUEL", "10")
    code, out, _ = run(capsys, "wp", "ex411", "--post", "one", "--state", "x=1")
    assert code == 3
    value = out.split(" | ")[1]
    assert value.count("a") == 10  # words a, ba, ..., b^9 a


def test_fuel_env_is_read_on_each_call(capsys, monkeypatch):
    # one process, two calls of `main` with the same kept parser
    for fuel in (10, 5):
        monkeypatch.setenv("WGCL_FUEL", str(fuel))
        code, out, _ = run(capsys, "wp", "ex411", "--post", "one", "--state", "x=1")
        assert code == 3
        assert out.split(" | ")[1].count("a") == fuel


def test_terminal_width_is_read_on_each_help(capsys, monkeypatch):
    helps = []
    for columns in ("200", "50"):
        monkeypatch.setenv("COLUMNS", columns)
        code, out, err = run(capsys, "wp", "-h")
        assert (code, err) == (0, "")
        helps.append(out.splitlines())
    wide, narrow = helps
    assert wide[0].startswith("usage: wgcl wp [-h]") and wide[0].endswith(" program")
    assert len(narrow) > len(wide)
    assert max(map(len, narrow)) <= 50 - 2 < max(map(len, wide))


def test_each_parser_is_built_once_per_process():
    assert build_parser("wp") is build_parser("wp")
    assert build_parser("wp") is not build_parser("wlp")
    assert build_parser("bogus") is build_parser() is build_parser("-h")


def test_state_and_grid_are_exclusive(capsys):
    code, out, err = run(capsys, "wp", "ski_nd", "--post", "one", "--state", "n=2,y=3",
                         "--grid", "n=0..1")
    assert (code, out) == (2, "")
    assert err.startswith("usage: wgcl wp ")
    assert err.endswith("wgcl wp: error: argument --grid: not allowed with argument --state\n")


@pytest.mark.parametrize("option, value", [
    ("--state", "n=2,n=3"), ("--grid", "n=0..1,n=0..1"), ("--grid", "n=1,y=2,n=0..1"),
])
def test_a_variable_given_twice_is_a_usage_error(capsys, option, value):
    code, out, err = run(capsys, "wp", "ski_nd", "--post", "one", option, value)
    where = option.lstrip("-")
    assert (code, out, err) == (2, "", f"wgcl: variable n given twice in {where} {value!r}\n")


@pytest.mark.parametrize("argv", [
    ["compare", "ex410", "--state", "x=2", "--fuel", "-1"],
    ["compare", "ex410", "--state", "x=2", "--fuel", "-1", "--liberal"],
    ["wp", "ski_nd", "--state", "n=3,y=2", "--fuel", "-1"],
    ["wp", "ski_nd", "--state", "n=3,y=2", "--fuel", "two"],
    ["wlp", "ski_nd", "--state", "n=3,y=2", "--budget", "-1"],
    ["paths", "ex49", "--state", "x=0", "--depth", "-1"],
    ["wp", "ski_nd", "--grid", "n=0..1,y=0..1", "--max-grid", "-1"],
])
def test_negative_counts_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage:") and "expected a non-negative integer" in err


def test_fuel_env_goes_through_the_option_type(capsys, monkeypatch):
    monkeypatch.setenv("WGCL_FUEL", "-5")
    for liberal in ([], ["--liberal"]):
        code, out, err = run(capsys, "compare", "ex410", "--state", "x=2", *liberal)
        assert (code, out) == (2, "")
        assert "argument --fuel: expected a non-negative integer, got '-5'" in err
    # an explicit --fuel is taken as given; zero is a count
    code, out, _ = run(capsys, "wp", "ex410", "--post", "int(0)", "--state", "x=3",
                       "--fuel", "0")
    assert (code, out) == (0, "x=3 | 0 | exact\n")
    monkeypatch.delenv("WGCL_FUEL")
    code, out, _ = run(capsys, "paths", "ex49", "--state", "x=0", "--depth", "0")
    assert (code, out) == (0, "- | 0 | - | open\n")


@pytest.mark.parametrize("fuel", ["-5", "abc"])
def test_a_bad_fuel_env_leaves_print_and_paths_working(capsys, monkeypatch, fuel):
    # neither command reads the fuel, so neither takes --fuel or WGCL_FUEL
    monkeypatch.setenv("WGCL_FUEL", fuel)
    code, out, err = run(capsys, "print", "ex49")
    assert (code, err) == (0, "") and out.startswith("@instance tropical\n")
    assert run(capsys, "paths", "ex49", "--state", "x=0") == (
        0, "L | 2 | - | terminal\nR | 3 | - | terminal\n", "")
    code, out, err = run(capsys, "print", "ex49", "--fuel", "1")
    assert (code, out) == (2, "")
    assert err.endswith("error: unrecognized arguments: --fuel 1\n")


def test_ratio_and_liberal_are_exclusive(capsys):
    code, out, err = run(capsys, "compare", "ski_onl", "--ratio", "ski_nd", "--liberal")
    assert (code, out) == (2, "")
    assert err.startswith("usage: wgcl compare ")
    assert err.endswith("wgcl compare: error: argument --liberal: "
                        "not allowed with argument --ratio\n")


ONE_COMMAND_ARGVS = {
    "wp": [["ski_nd"], ["ski_nd", "--post", "zero", "--grid", "n=0..2,y=0..2", "--fuel", "3",
                        "--budget", "7", "--max-grid", "9", "--format", "tsv", "--instance", "arctic"]],
    "wlp": [["ex410"], ["ex410", "--state", "x=2", "--mode", "gfp_leq_one", "--method", "lasso"]],
    "check": [["ex55_arctic", "--invariant", "int(0)", "--mode", "fixed"],
              ["ex410", "--invariant", "one", "--mode", "sub", "--loop-path", "0", "--state", "x=1"]],
    "compare": [["knapsack"], ["ex410", "--liberal", "--post", "int(0)"],
                ["ski_nd", "--ratio", "ski_onl", "--grid", "n=1..2,y=1..2"]],
    "paths": [["ex49"], ["ex49", "--state", "x=0", "--depth", "6", "--format", "tsv"]],
    "print": [["fib"], ["ex410", "--instance", "tropical"]],
}
FUELLESS = ("paths", "print")  # the commands that take no --fuel


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_one_command_parser_parses_as_the_full_parser(command, monkeypatch):
    monkeypatch.delenv("WGCL_FUEL", raising=False)
    for rest in ONE_COMMAND_ARGVS[command]:
        argv = [command, *rest]
        one = build_parser(command).parse_args(argv[1:])
        assert one == build_parser().parse_args(argv)
        assert vars(cli.parse_command(argv)) == vars(one)
        assert one.command == command
        assert hasattr(one, "fuel") is (command not in FUELLESS)
    if command in FUELLESS:
        return
    # each parse reads WGCL_FUEL anew for the fuel default
    argv = [command, *ONE_COMMAND_ARGVS[command][0]]
    assert build_parser(command).parse_args(argv[1:]).fuel == 64
    assert cli.parse_command(argv).fuel == 64
    monkeypatch.setenv("WGCL_FUEL", "5")
    one = build_parser(command).parse_args(argv[1:])
    assert one == build_parser().parse_args(argv)
    assert vars(cli.parse_command(argv)) == vars(one)
    assert one.fuel == 5


_FLAGS = sorted({option.flag for _, options, _ in cli.COMMANDS.values()
                 for option in options if option.flag.startswith("-")})
_VALUES = ["ex49", "x=1", "x=0..1", "one", "", "0", "7", "-1", "²", " 5", "+3", "1_0",
           "text", "tsv", "gfp", "lasso", "super", "fixed", "bogus", "-", "--", "-h"]


def _given(rng, option):
    """`option` given, mostly with a value of its kind if it takes one, now
    and then with a value of no kind, or with none."""
    if option.kind == cli.FLAG:
        return [option.flag]
    draw = rng.random()
    if draw < 0.1:
        return [option.flag]
    if draw < 0.2:
        return [option.flag, rng.choice(["", "-", "--", "-h", "-1", "bogus"])]
    # with near misses: "²" is no count, though `str.isdigit` says it is a
    # digit, and "tsv" is a choice of --format only
    values = {cli.TEXT: ["x=1", "one"], cli.COUNT: ["0", "7", " 5", "+3", "²"]}.get(
        option.kind, [*option.kind, "tsv"])
    return [option.flag, rng.choice(values)]


def _noise(rng):
    """What else the table leaves to argparse: an option of another command,
    abbreviated, `=`-joined or unknown, help, `--`, a stray value."""
    flag = rng.choice(_FLAGS)
    return rng.choice([
        [flag], [flag, rng.choice(_VALUES)], [flag[:rng.randint(3, len(flag) - 1)]],
        [f"{flag}={rng.choice(_VALUES)}"],
        [rng.choice(["--", "-h", "--help", "-", "--bogus", "-x", "ex410"])],
    ])


def _command_line(rng):
    """A command, its required options (mostly), options of its own in any
    number and order (so repeated, and both of a group), now and then
    noise, and mostly one program."""
    command = rng.choice(list(cli.COMMANDS))
    options = [o for o in cli.COMMANDS[command][1] if o.flag.startswith("-")]
    chunks = [_given(rng, o) for o in options if o.required and rng.random() < 0.8]
    chunks += [_given(rng, rng.choice(options)) for _ in range(rng.randint(0, 6))]
    if rng.random() < 0.25:
        chunks.insert(rng.randint(0, len(chunks)), _noise(rng))
    chunks.insert(rng.randint(0, len(chunks)),
                  rng.choice([["ex49"]] * 4 + [[], ["ex49", "ex410"]]))
    return [command, *(arg for chunk in chunks for arg in chunk)]


@settings(max_examples=1000, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_the_option_table_parses_as_argparse(seed):
    rng = random.Random(seed)
    argv = _command_line(rng)
    with mock.patch.dict(os.environ):
        os.environ.pop("WGCL_FUEL", None)
        fuel = rng.choice([None] * 4 + ["9", " 3", "-5", "abc", "²"])
        if fuel is not None:
            os.environ["WGCL_FUEL"] = fuel
        table = cli.parse_command(argv)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                args, left = build_parser(argv[0]).parse_known_args(argv[1:])
        except SystemExit:
            args = left = None
    if args is None or left:
        assert table is None, argv
    elif table is not None:
        assert vars(table) == vars(args), argv


def test_a_well_formed_command_loads_no_argparse():
    # argparse, with the gettext and locale it imports, is start-up cost for
    # every command; only help and errors need it
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    out = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, wgcl.cli\n"
         "code = wgcl.cli.main(['wp', 'ski_nd', '--post', 'one', '--state', 'n=3,y=2'])\n"
         "print(code, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out == "n=3,y=2 | 2 | exact\n0 []\n"


WGCL_USAGE = "usage: wgcl [-h] {wp,wlp,check,compare,paths,print} ...\n"


@pytest.mark.parametrize("argv, err", [
    ([], WGCL_USAGE + "wgcl: error: the following arguments are required: command\n"),
    (["bogus"], WGCL_USAGE + "wgcl: error: argument command: invalid choice: 'bogus' "
                "(choose from 'wp', 'wlp', 'check', 'compare', 'paths', 'print')\n"),
    # an error of the one-command parser still lists all six commands
    (["wp", "ski_nd", "--bogus"], WGCL_USAGE + "wgcl: error: unrecognized arguments: --bogus\n"),
])
def test_usage_errors_are_pinned(capsys, argv, err):
    assert run(capsys, *argv) == (2, "", err)


def test_top_level_help_is_pinned(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, "-h") == (0, WGCL_USAGE + """
weighted guarded-command programs

positional arguments:
  {wp,wlp,check,compare,paths,print}
    wp                  weakest preweighting
    wlp                 weakest liberal preweighting
    check               invariant checks for a loop
    compare             transformer vs. path oracle, or --ratio
    paths               enumerate computation paths
    print               parse and pretty-print a program

options:
  -h, --help            show this help message and exit
""", "")


def test_compare_ratio_of_minus_infinity_is_undefined(capsys, tmp_path):
    # arctic wp of a loop that never ends is -inf, on both sides
    f = tmp_path / "stay.wgcl"
    f.write_text("@instance arctic\nwhile (x > 0) { skip }\n", encoding="utf-8")
    code, out, err = run(capsys, "compare", str(f), "--ratio", str(f), "--state", "x=1",
                         "--post", "int(0)")
    assert (code, err) == (0, "")
    assert out == "x=1 | -inf | -inf | undefined\nmax ratio on grid: undefined\n"


def test_compare_ratio_of_inexact_infinity_is_undefined(capsys, tmp_path):
    # tropical wp of a loop that never ends is inf, a bound at the horizon
    # on both sides, so the row is undefined and the exit code 3
    f = tmp_path / "grow.wgcl"
    f.write_text("@instance tropical\nwhile (x > 0) { x := x + 1 }\n", encoding="utf-8")
    assert run(capsys, "compare", str(f), "--ratio", str(f), "--state", "x=1") == (
        3, "x=1 | inf | inf | undefined\nmax ratio on grid: undefined\n", "")


def test_compare_ratio_rejects_programs_over_two_instances(capsys):
    assert run(capsys, "compare", "ski_nd", "--ratio", "fib") == (
        2, "", "wgcl: ratio programs must share one algebra instance\n")


def test_compare_ratio_rejects_word_instances(capsys, tmp_path):
    f = tmp_path / "word.wgcl"
    f.write_text("@instance lang:ab\nweigh a\n", encoding="utf-8")
    code, out, err = run(capsys, "compare", str(f), "--ratio", str(f), "--state", "x=0")
    assert (code, out, err) == (2, "", "wgcl: --ratio needs a numeric instance, not lang:ab\n")
    code, out, err = run(capsys, "compare", "ex411", "--ratio", "ex411", "--state", "x=1",
                         "--post", "zero")
    assert (code, out) == (2, "")
    assert err == "wgcl: --ratio needs a numeric instance, not omegalang:ab\n"


def test_instance_override_flag(capsys):
    code, out, _ = run(capsys, "wp", "ex411", "--post", "one", "--state", "x=1",
                       "--instance", "lang:ab", "--fuel", "10")
    assert code == 3
    assert "Σ" not in out  # finite-language instance has no cylinders


def test_print_roundtrip(capsys, tmp_path):
    code, out, _ = run(capsys, "print", "ski_onl")
    assert code == 0
    f = tmp_path / "again.wgcl"
    f.write_text(out, encoding="utf-8")
    code2, out2, _ = run(capsys, "wp", str(f), "--post", "one", "--state", "n=3,y=2")
    assert code2 == 0
    assert out2.strip() == "n=3,y=2 | 3 | exact"

def test_bad_loop_path_step_is_a_usage_error(capsys):
    code, out, err = run(capsys, "check", "ex410", "--invariant", "one", "--mode", "super",
                         "--loop-path", "body.body", "--state", "x=1")
    assert (code, out, err) == (2, "", "wgcl: bad loop path step 'body'\n")


def _exits_cleanly(code, out, err, expected_out):
    """Exit 0 with exactly the expected output, or exit 2 with one line."""
    if code == 0:
        assert (out, err) == (expected_out, "")
    else:
        assert (code, out, err) == (2, "", "wgcl: the program nests too deeply\n")


def test_long_sequence_without_traceback(capsys, tmp_path):
    f = tmp_path / "long.wgcl"
    f.write_text("@instance tropical\n" + ";\n".join(["x := x + 1"] * 3000) + "\n",
                 encoding="utf-8")
    code, out, err = run(capsys, "print", str(f))
    assert code == 0 and err == ""
    assert out == "@instance tropical\n" + ";\n".join(["x := (x + 1)"] * 3000) + "\n"
    again = tmp_path / "again.wgcl"
    again.write_text(out, encoding="utf-8")
    assert run(capsys, "print", str(again)) == (0, out, "")
    _exits_cleanly(*run(capsys, "wp", str(f), "--post", "int(x)", "--state", "x=0"),
                   "x=0 | 3000 | exact\n")


def test_a_long_counting_sum_runs(capsys, tmp_path):
    # the lowering hashes no expression, so the sum's depth costs no recursion there
    f = tmp_path / "sum.wgcl"
    f.write_text("@instance counting\nx := " + " + ".join(["1"] * 900) + "\n", encoding="utf-8")
    for command, row in (("wp", "x=0 | 900 | exact\n"),
                         ("compare", "x=0 | 900 | exact | 900 | exact | agree\n"),
                         ("wlp", "x=0 | 900 | exact\n")):
        assert run(capsys, command, str(f), "--post", "int(x)", "--state", "x=0") == (0, row, "")


@pytest.mark.parametrize("program", [
    "if (y > 0) { " * 2000 + "x := x - 1" + " } else { skip }" * 2000,
    "; ".join(["if (y > 0) { x := x - 1 } else { skip }"] * 2000),
], ids=["2000 nested ifs", "2000 ifs in sequence"])
def test_a_program_that_nests_too_deeply_exits_without_traceback(capsys, tmp_path, program):
    f = tmp_path / "deep.wgcl"
    f.write_text(f"@instance tropical\n{program}\n", encoding="utf-8")
    for command in ("wp", "wlp"):
        assert run(capsys, command, str(f), "--post", "one", "--state", "x=2,y=1") == (
            2, "", "wgcl: the program nests too deeply\n")


def test_a_reader_that_closes_the_pipe_gets_no_traceback():
    # 3721 rows, more than a pipe holds: the command is still writing when
    # the reader closes its end after one row
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "wgcl.cli", "wp", "ski_nd", "--post", "one",
         "--grid", "n=0..60,y=0..60"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True)
    try:
        assert proc.stdout.readline() == "n=0,y=0 | 0 | exact\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 0
    assert err == ""  # no traceback, and nothing from the flush at exit


def test_a_long_straight_line_program_runs(capsys, tmp_path):
    # a run of assignments is one compiled step, so its length costs no recursion
    f = tmp_path / "long.wgcl"
    f.write_text("@instance counting\n" + ";\n".join(["x := x + 1"] * 5000) + "\n",
                 encoding="utf-8")
    for command, row in (("wp", "x=0 | 5000 | exact\n"),
                         ("wlp", "x=0 | 5000 | exact\n"),
                         ("compare", "x=0 | 5000 | exact | 5000 | exact | agree\n")):
        assert run(capsys, command, str(f), "--post", "int(x)", "--state", "x=0") == (0, row, "")


@pytest.mark.parametrize("body, in_loop", [
    ("if (y > 0) { " * 300 + "x := x - 1" + " } else { skip }" * 300, True),
    ("; ".join(["while (y > 0) { y := y - 1 }"] * 150) + "; x := x - 1", True),
    ("; ".join(["while (y > 0) { y := y - 1 }"] * 180), False),
    ("; ".join(["if (y > 0) { x := x - 1 } else { skip }"] * 300), False),
], ids=["300 nested ifs", "150 loops in sequence", "180 top-level loops in sequence",
        "300 top-level ifs in sequence"])
def test_a_deep_loop_body_runs(capsys, tmp_path, body, in_loop):
    # a body's form steps recurse no deeper than its steps over values did,
    # and top-level code, run by the steps over values, goes nearly as deep
    f = tmp_path / "deep.wgcl"
    program = f"while (x > 0) {{ {body} }}" if in_loop else body
    f.write_text(f"@instance tropical\n{program}\n", encoding="utf-8")
    for command in ("wp", "wlp"):
        assert run(capsys, command, str(f), "--post", "one",
                   "--state", "x=2,y=1") == (0, "x=2,y=1 | 0 | exact\n", "")


def test_deep_parentheses_without_traceback(capsys, tmp_path):
    f = tmp_path / "deep.wgcl"
    f.write_text("@instance tropical\nx := " + "(" * 400 + "1" + ")" * 400 + "\n",
                 encoding="utf-8")
    _exits_cleanly(*run(capsys, "print", str(f)), "@instance tropical\nx := 1\n")


@pytest.mark.parametrize("body, printed, row", [
    ("x := " + "(" * 400 + "x + 1" + ")" * 400, "x := (x + 1)", "x=1 | 2 | exact\n"),
    ("if (" + "(" * 400 + "x > 0" + ")" * 400 + ") { x := 5 } else { skip }",
     "if (x > 0) {\n  x := 5\n} else {\n  skip\n}", "x=1 | 5 | exact\n"),
], ids=["assignment", "guard"])
def test_deep_parentheses_print_and_run(capsys, tmp_path, body, printed, row):
    # the parser keeps open parentheses on a stack, so their depth costs no recursion
    f = tmp_path / "deep.wgcl"
    f.write_text(f"@instance tropical\n{body}\n", encoding="utf-8")
    out = f"@instance tropical\n{printed}\n"
    assert run(capsys, "print", str(f)) == (0, out, "")
    assert parse_program(out).program == parse_program(f.read_text(encoding="utf-8")).program
    assert run(capsys, "wp", str(f), "--post", "int(x)", "--state", "x=1") == (0, row, "")


INSTANCES = ("boolean", "counting", "tropical", "arctic", "prob", "lang:ab", "omegalang:ab")
GENERATORS = (rand_loopfree, rand_uct_program, rand_looping_program)
COMMANDS = (["wp"], ["wlp"], ["compare"], ["compare", "--liberal"], ["paths"])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2 ** 32), st.sampled_from(INSTANCES), st.sampled_from(GENERATORS),
       st.sampled_from(("one", "zero", "[x > 0] one")))
def test_generated_programs_never_crash_and_exact_columns_agree(tmp_path_factory, seed,
                                                                instance, generate, post):
    rng = random.Random(seed)
    alg = algebra(instance)
    program = generate(rng, alg)
    state = ",".join(f"{k}={v}" for k, v in rand_state(rng).items()) or "x=0"
    f = tmp_path_factory.mktemp("gen") / "p.wgcl"
    f.write_text(f"@instance {instance}\n{print_program(program, alg)}\n", encoding="utf-8")
    for command in COMMANDS:
        argv = [*command, str(f), "--state", state, "--budget", "2000"]
        if command[0] != "paths":  # it takes neither a postweighting nor a fuel
            argv += ["--post", post, "--fuel", "8"]
        # 4 would mean two exact columns disagree
        assert main(argv) in (0, 2, 3, 5), argv
