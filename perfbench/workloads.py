"""The three workloads: CLI command lines and the checks of their output.

Each workload is a list of `Command`s, built from the seed alone; every
round of a run repeats the same list in a fresh child process.  A check reads what the command printed and returns
(answered rows, exact rows, failure reason or None).  The expected values
come from `reference.py`, never from the package under test; the package's
parser is used only to confirm that `print` reproduces the parsed program.

Why these three:
* readme_grids - many small queries over grids, on shared and per-state
  engines; cross-query reuse in the loop solver (ROADMAP item 3) shows here.
* deep_loops - few queries, each a deep fixed point (passes x touched
  states); a faster solver or evaluator (items 2, 3) shows here, and the
  inexact ski_nd rows show a solver that can certify them.
* random_programs - generated looping programs over five instances, each
  parsed from text; the quotient graph, oracles and parser (item 2) show
  here, including the heavy tail of programs that fill the node budget.
"""

from __future__ import annotations

import functools
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import genprog
import reference as ref

RANDOM_FUEL = 8
RANDOM_BUDGET = 1000
# Generated programs per instance, by whether their configuration graph (as
# the reference explores it) outgrows the node budget.  Over 100 000
# generated cases (generator seeds 1000-1499), 2.79 % outgrow it, and 2.67-
# 2.93 % per instance; 2 in 72 is 2.78 %.  The seed draws the small ones.
# The large ones are the heavy tail: they come from one fixed generator
# seed, so every run carries the same tail at the natural rate.  Drawn per
# seed, a handful of them decided the tail's value and its run-to-run spread.
# Two per instance, not one, so that their 20 slow commands fill the ten
# samples beyond the tail percentile (see NOTES.md).
RANDOM_SMALL = 70
RANDOM_LARGE = 2
TAIL_SEED = 0

# the two messages of the package's BudgetError, as `wgcl` prints them
BUDGET_RE = re.compile(r"^wgcl: (quotient )?node budget \d+ exceeded$"
                       r"|^wgcl: loop touched more than \d+ states$", re.M)
USAGE_RE = re.compile(r"usage:|error: argument")


@dataclass
class Command:
    argv: list[str]
    check: Callable[[str, str, int], tuple[int, int, str | None]]
    states: int = 1  # answered (inexact) rows if the node budget runs out


def budget_exhausted(err: str) -> bool:
    return BUDGET_RE.search(err) is not None


def usage_error(err: str) -> bool:
    """argparse rejected the command line: never an answer, whatever else
    stderr says."""
    return USAGE_RE.search(err) is not None


def _rows(out: str) -> list[list[str]]:
    return [line.split(" | ") for line in out.splitlines() if " | " in line]


def _state(text: str) -> dict[str, int]:
    return {k: int(v) for k, v in (p.split("=") for p in text.split(","))}


def _exit_matches(code: int, flags: list[bool]) -> str | None:
    expected = 0 if all(flags) else 3
    return None if code == expected else f"exit {code}, expected {expected}"


def _grid(spec: dict[str, range]) -> list[dict[str, int]]:
    states = [{}]
    for name in sorted(spec):
        states = [{**s, name: v} for s in states for v in spec[name]]
    return states


def _grid_text(spec: dict[str, range]) -> str:
    return ",".join(f"{k}={r.start}..{r.stop - 1}" for k, r in sorted(spec.items()))


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def transform_check(inst: str, direction: str, truth, states: list[dict[str, int]]):
    """wp/wlp table: one row per state, judged against truth(state)."""
    algebra = ref.INSTANCES[inst]

    def check(out, err, code):
        rows = _rows(out)
        if len(rows) != len(states):
            return len(rows), 0, f"{len(rows)} rows for {len(states)} states"
        flags = []
        for (st, value, flag), sigma in zip(rows, states):
            shown = _state(st)
            if any(shown.get(k) != v for k, v in sigma.items()):
                return len(rows), 0, f"row {st} out of order"
            expected = truth(sigma)
            exact = flag == "exact"
            flags.append(exact)
            reason = ref.judge(algebra, direction, algebra.parse(value), exact,
                               expected, expected)
            if reason:
                return len(rows), sum(flags), f"{st}: {reason}"
        return len(rows), sum(flags), _exit_matches(code, flags)

    return check


def ratio_check(states: list[dict[str, int]]):
    """wp(ski_onl) | wp(ski_nd) | ratio rows.  The rows carry no exactness
    flag; exit 3 marks them inexact, and then only soundness is judged."""
    tropical = ref.INSTANCES["tropical"]

    def check(out, err, code):
        rows = _rows(out)
        if len(rows) != len(states) or code not in (0, 3):
            return len(rows), 0, f"{len(rows)} rows for {len(states)} states, exit {code}"
        exact = code == 0
        worst = None
        for (st, num, den, ratio), sigma in zip(rows, states):
            n, d = ref.ski_onl(sigma["n"], sigma["y"]), ref.ski_nd(sigma["n"], sigma["y"])
            for value, truth in ((num, n), (den, d)):
                reason = ref.judge(tropical, "wp", tropical.parse(value), exact, truth, truth)
                if reason:
                    return len(rows), 0, f"{st}: {reason}"
            if exact and Fraction(ratio) != Fraction(n, d):
                return len(rows), 0, f"{st}: ratio {ratio}, expected {Fraction(n, d)}"
            worst = Fraction(n, d) if worst is None else max(worst, Fraction(n, d))
        if exact and f"max ratio on grid: {worst}" not in out:
            return len(rows), 0, f"max ratio line missing or not {worst}"
        return len(rows), len(rows) if exact else 0, None

    return check


def fixed_point_check(states: list[dict[str, int]]):
    """ex55_arctic: the invariant is a fixed point and the loop certainly
    terminates at every grid state (each pass lowers 2x + y by one)."""
    def check(out, err, code):
        rows = _rows(out)
        if len(rows) != len(states):
            return len(rows), 0, f"{len(rows)} rows for {len(states)} states"
        bad = [r for r in rows if r[1:] != ["fixed", "uct"]]
        if bad:
            return len(rows), 0, f"{' | '.join(bad[0])}: expected fixed | uct"
        if "wp = wlp = invariant at every checked state" not in out or code != 0:
            return len(rows), 0, f"missing conclusion or exit {code}"
        return len(rows), len(rows), None

    return check


def knapsack_check(xs: range):
    algebra = ref.INSTANCES["counting"]

    def check(out, err, code):
        rows = _rows(out)
        if len(rows) != len(xs):
            return len(rows), 0, f"{len(rows)} rows for {len(xs)} states"
        exact_rows = 0
        flags = []
        for (st, wp, wp_flag, oracle, oracle_flag, _), x in zip(rows, xs):
            truth = ref.knapsack(x)
            for value, flag in ((wp, wp_flag), (oracle, oracle_flag)):
                flags.append(flag == "exact")
                reason = ref.judge(algebra, "wp", algebra.parse(value), flag == "exact",
                                   truth, truth)
                if reason:
                    return len(rows), exact_rows, f"{st}: {reason}"
            exact_rows += wp_flag == oracle_flag == "exact"
        return len(rows), exact_rows, _exit_matches(code, flags)

    return check


def literal_check(expected: list[list[str]]):
    def check(out, err, code):
        rows = _rows(out)
        if rows != expected or code != 0:
            return len(rows), 0, f"rows {rows} exit {code}, expected {expected} exit 0"
        return len(rows), len(rows), None

    return check


def roundtrip_check(source: str):
    """`print` output must parse back to the AST of the source text."""
    def check(out, err, code):
        from wgcl.parser import ParseError, parse_program
        try:
            same = parse_program(out) == parse_program(source)
        except ParseError as exc:
            return 1, 0, f"printed program does not parse: {exc}"
        if not same or code != 0:
            return 1, 0, f"print round trip changed the program (exit {code})"
        return 1, 1, None

    return check


def bounds_check(inst: str, columns: list[str], bounds: Callable[[], ref.Bounds]):
    """One-state row whose value columns (`wp` or `wlp`) are judged against
    the reference bounds."""
    algebra = ref.INSTANCES[inst]

    def check(out, err, code):
        rows = _rows(out)
        if len(rows) != 1:
            return len(rows), 0, f"exit {code}, {len(rows)} rows: {err.strip()[:200]}"
        row = rows[0]
        b = bounds()
        flags = []
        for i, direction in enumerate(columns):
            value, flag = row[1 + 2 * i], row[2 + 2 * i]
            exact = flag == "exact"
            flags.append(exact)
            lo, hi = b.interval(direction)
            reason = ref.judge(algebra, direction, algebra.parse(value), exact, lo, hi)
            if reason:
                return 1, 0, f"column {i}: {reason}"
        if code == 4:
            return 1, 0, "exact answers disagree (exit 4)"
        return 1, int(all(flags)), _exit_matches(code, flags)

    return check


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _example_source(name: str) -> str:
    import wgcl
    return wgcl.example_path(name).read_text(encoding="utf-8")


def readme_grids(seed: int, workdir: Path) -> list[Command]:
    ski = {"n": range(0, 16), "y": range(0, 16)}
    onl = {"n": range(0, 8), "y": range(0, 8)}
    ratio = {"n": range(1, 9), "y": range(1, 9)}
    arctic = {"x": range(0, 7), "y": range(0, 7)}
    knap = range(0, 14)
    nd = lambda s: ref.ski_nd(s["n"], s["y"])
    cmds = [
        Command(["wp", "ski_nd", "--post", "one", "--grid", _grid_text(ski)],
                transform_check("tropical", "wp", nd, _grid(ski)), 256),
        Command(["wlp", "ski_nd", "--post", "one", "--grid", _grid_text(ski)],
                transform_check("tropical", "wlp", nd, _grid(ski)), 256),
        Command(["wp", "ski_onl", "--post", "one", "--grid", _grid_text(onl)],
                transform_check("tropical", "wp", lambda s: ref.ski_onl(s["n"], s["y"]),
                                _grid(onl)), 64),
        Command(["compare", "ski_onl", "--ratio", "ski_nd", "--post", "one",
                 "--grid", _grid_text(ratio)], ratio_check(_grid(ratio)), 64),
        Command(["check", "ex55_arctic", "--post", "int(0)", "--mode", "fixed",
                 "--grid", _grid_text(arctic), "--invariant",
                 "[x>0 and y>0] 2*(x-1)+y (+) [not(x>0 and y>0)] int(0)"],
                fixed_point_check(_grid(arctic)), 49),
        # staying at x = 2 forever is free, so the liberal cost is 0
        Command(["wlp", "ex410", "--post", "int(0)", "--state", "x=2"],
                transform_check("tropical", "wlp", lambda s: 0, [{"x": 2}])),
        Command(["wp", "fib", "--post", "[m<=1] int(1)", "--state", "n=5,c=0,m=0"],
                transform_check("counting", "wp", lambda s: ref.fibonacci(s["n"] + 2),
                                [{"c": 0, "m": 0, "n": 5}])),
        Command(["compare", "knapsack", "--post", "[t<=6 and r>=13] int(1)",
                 "--grid", f"x={knap.start}..{knap.stop - 1}"], knapsack_check(knap), 14),
        # ex49 at x = 0 takes the else branch: weigh 2 or weigh 3
        Command(["paths", "ex49", "--state", "x=0", "--depth", "6"],
                literal_check([["L", "2", "-", "terminal"], ["R", "3", "-", "terminal"]])),
        Command(["print", "mutex"], roundtrip_check(_example_source("mutex"))),
        # the only infinite run from x = 1 weighs b forever
        Command(["wlp", "ex411", "--post", "zero", "--state", "x=1"],
                literal_check([["x=1", "{(b)^ω}", "exact"]])),
    ]
    # README order, whatever the seed: in one process a command's time
    # depends on the commands before it (the first pays for the cold start),
    # and a seeded order let the seed move the median command's time.
    return cmds


def deep_loops(seed: int, workdir: Path) -> list[Command]:
    fib_post = "[m<=1] int(1)"
    strings = lambda s: ref.fibonacci(s["n"] + 2)  # bit strings without "11"
    nd = lambda s: ref.ski_nd(s["n"], s["y"])
    near = {"n": range(95, 101), "y": range(100, 101)}
    cmds = [
        Command(["wp", "fib", "--post", fib_post, "--grid", "n=0..18"],
                transform_check("counting", "wp", strings, _grid({"n": range(0, 19)})), 19),
        Command(["wp", "fib", "--post", fib_post, "--state", "n=23"],
                transform_check("counting", "wp", strings, [{"n": 23}])),
        Command(["wp", "ski_nd", "--post", "one", "--state", "n=150,y=150", "--fuel", "170"],
                transform_check("tropical", "wp", nd, [{"n": 150, "y": 150}])),
        # inexact at the default fuel: the rows are sound bounds, not answers
        Command(["wp", "ski_nd", "--post", "one", "--grid", _grid_text(near)],
                transform_check("tropical", "wp", nd, _grid(near)), 6),
    ]
    random.Random(seed).shuffle(cmds)
    return cmds


def random_programs(seed: int, workdir: Path) -> list[Command]:
    cmds = []
    limits = ["--fuel", str(RANDOM_FUEL), "--budget", str(RANDOM_BUDGET)]
    cases = (genprog.generate(seed, RANDOM_SMALL, _fits)
             + genprog.generate(TAIL_SEED, RANDOM_LARGE, lambda c: not _fits(c)))
    random.Random(seed).shuffle(cases)
    for i, (inst, prog, post, sigma) in enumerate(cases):
        path = workdir / f"p{i}.wgcl"
        source = genprog.file_text(inst, prog)
        path.write_text(source, encoding="utf-8")
        state = genprog.state_text(sigma)
        post_text = genprog.post_text(post)
        # solved once, on first use, after the timed commands have run
        with_post = functools.cache(functools.partial(
            ref.solve, prog, post, sigma, ref.INSTANCES[inst], RANDOM_BUDGET))
        with_zero = functools.cache(functools.partial(
            ref.solve, prog, (), sigma, ref.INSTANCES[inst], RANDOM_BUDGET))
        cmds += [
            Command(["print", str(path)], roundtrip_check(source)),
            Command(["wlp", str(path), "--post", post_text, "--state", state, *limits],
                    bounds_check(inst, ["wlp"], with_post)),
            Command(["compare", str(path), "--post", post_text, "--state", state, *limits],
                    bounds_check(inst, ["wp", "wp"], with_post)),
            # --post zero: compare --liberal ignores --post (see NOTES.md)
            Command(["compare", str(path), "--liberal", "--post", "zero", "--state", state,
                     *limits], bounds_check(inst, ["wlp", "wlp"], with_zero)),
        ]
    return cmds


def _fits(case) -> bool:
    """Whether the case's configuration graph, as the reference explores
    it, fits in the node budget."""
    inst, prog, _, sigma = case
    return ref.explore(prog, sigma, ref.INSTANCES[inst], RANDOM_BUDGET)[2]


WORKLOADS = {
    "readme_grids": readme_grids,
    "deep_loops": deep_loops,
    "random_programs": random_programs,
}
