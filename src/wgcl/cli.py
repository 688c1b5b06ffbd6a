"""Command-line front end.

Subcommands:
    wp / wlp    preweighting tables over a state or grid
    check       invariant checks (super / sub / fixed) against a loop
    compare     wp vs. the op path oracle (wlp vs. olp with --liberal),
                or wp ratios
    paths       raw computation-path traces
    print       parse and pretty-print a program

Each call of `main` parses with one argument parser, the invoked
command's (see `build_parser`); the full parser, with all six commands, only
for `-h`, a missing or unknown command, or arguments the command leaves
over.  Parsers are built on first use and kept for the process, so
in-process callers of `main` pay for each build once; WGCL_FUEL and the
terminal width (COLUMNS) are still read on each call.

Exit codes: 0 ok, 2 usage or parse error (also a program that nests too
deeply), 3 some result was not certified exact, 4 a comparison or check
failed, 5 a node budget was exhausted.  A reader that closes the output
pipe early (`| head`) ends the command quietly, with 0.  Integers print in
full, at any size.
WGCL_FUEL overrides the default fuel of the commands that take --fuel (all
but `paths` and `print`); like --fuel, --budget, --depth and --max-grid it
must be a non-negative integer.  --state and --grid exclude each other, as
do --ratio and --liberal, and neither --state nor --grid may name a
variable twice.  `print` takes only the program and --instance.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import example_path
from .algebra import INF, NEG_INF, AlgebraError, LangAlgebra, OmegaLangAlgebra
from .operational import (
    BudgetError, DivergenceError, enumerate_paths, olp_oracle, op_oracle,
)
from .parser import ParseError, parse_grid, parse_program, parse_state, parse_weighting
from .syntax import EvalError, ExprWeighting, State, While, flatten_seq, print_program
from .transformer import (
    CertificationError, Engine, LiberalEngine, NotALoopError, check_fixed_point,
    check_subinvariant, check_superinvariant,
)

OK, USAGE, INEXACT, MISMATCH, BUDGET = 0, 2, 3, 4, 5


class CliError(Exception):
    def __init__(self, message: str, code: int = USAGE):
        super().__init__(message)
        self.code = code


def _count(text: str) -> int:
    """argparse type of the fuel, budget, depth and grid-size options."""
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")


def _load_program(path: str, instance: str | None):
    p = Path(path)
    if not p.is_file():
        try:
            p = example_path(path)
        except FileNotFoundError:
            raise CliError(f"no such program file or bundled example: {path}")
    return parse_program(p.read_text(encoding="utf-8"), instance)


def _states(args) -> tuple[tuple[str, ...], list[State]]:
    if getattr(args, "grid", None):
        return parse_grid(args.grid, args.max_grid)
    literal = getattr(args, "state", None) or ""
    sigma = parse_state(literal)
    names = tuple(sorted({p.split("=")[0].strip() for p in literal.split(",") if p.strip()}))
    return names, [sigma]


def _emit(args, columns: list[str]):
    if args.format == "tsv":
        print("\t".join(columns))
    else:
        print(" | ".join(columns))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_transform(args, liberal: bool) -> int:
    parsed = _load_program(args.program, args.instance)
    alg = parsed.algebra
    post = ExprWeighting(alg, parse_weighting(args.post, alg))
    names, states = _states(args)
    any_inexact = False
    if liberal:
        engine = LiberalEngine(alg, args.fuel, args.budget, args.mode, args.method)
    else:
        engine = Engine(alg, "wp", args.fuel, args.budget)
    for sigma in states:
        res = engine.run(parsed.program, post, sigma)
        any_inexact |= not res.exact
        _emit(args, [sigma.format(names), alg.format_value(res.value),
                     "exact" if res.exact else "inexact"])
    return INEXACT if any_inexact else OK


_PATH_STEPS = {"body": "body", "then": "then", "else": "orelse", "orelse": "orelse",
               "left": "left", "right": "right"}


def _select_loop(program, path: str | None) -> While:
    if path:
        node = program
        for step in path.split("."):
            field = _PATH_STEPS.get(step)
            if field is not None and hasattr(node, field):
                node = getattr(node, field)
            elif step.isdigit():
                stmts = flatten_seq(node)
                idx = int(step)
                if idx >= len(stmts):
                    raise CliError(f"loop path index {idx} out of range")
                node = stmts[idx]
            else:
                raise CliError(f"bad loop path step {step!r}")
        if not isinstance(node, While):
            raise CliError("loop path does not select a loop")
        return node
    if isinstance(program, While):
        return program
    loops = [s for s in flatten_seq(program) if isinstance(s, While)]
    if len(loops) == 1:
        return loops[0]
    raise CliError("not a loop; use --loop-path to select one")


def cmd_check(args) -> int:
    parsed = _load_program(args.program, args.instance)
    alg = parsed.algebra
    loop = _select_loop(parsed.program, args.loop_path)
    post = ExprWeighting(alg, parse_weighting(args.post, alg))
    inv = ExprWeighting(alg, parse_weighting(args.invariant, alg))
    names, states = _states(args)
    if args.mode != "fixed":
        check, conclusion = {
            "super": (check_superinvariant, "wp of the loop <= invariant"),
            "sub": (check_subinvariant, "invariant <= wlp of the loop"),
        }[args.mode]
        report = check(loop, post, inv, states, alg, args.fuel, args.budget)
        for v in report.verdicts:
            _emit(args, [v.state.format(names), "holds" if v.holds else "FAILS"])
        if report.all_hold:
            print(f"conclusion: {conclusion} on all checked states")
        failed = not report.all_hold
    else:
        report = check_fixed_point(loop, post, inv, states, alg, args.fuel, args.budget)
        for v in report.verdicts:
            _emit(args, [v.state.format(names),
                         "fixed" if v.fixed else "NOT-FIXED",
                         "uct" if v.certainly_terminates else "divergence-possible"])
        if report.all_fixed:
            print("conclusion: invariant is a fixed point of the characteristic function on the grid")
        if report.all_exact:
            print("conclusion: wp = wlp = invariant at every checked state")
        failed = not report.all_fixed
    return MISMATCH if failed else OK


def cmd_compare(args) -> int:
    parsed = _load_program(args.program, args.instance)
    alg = parsed.algebra
    names, states = _states(args)
    if args.ratio:
        other = _load_program(args.ratio, args.instance)
        if other.algebra != alg:
            raise CliError("ratio programs must share one algebra instance")
        if isinstance(alg, (LangAlgebra, OmegaLangAlgebra)):
            raise CliError(f"--ratio needs a numeric instance, not {alg.name}")
        post = ExprWeighting(alg, parse_weighting(args.post, alg))
        engine = Engine(alg, "wp", args.fuel, args.budget)  # its tables are per loop node
        worst: Fraction | None = None
        code = OK
        for sigma in states:
            num = engine.run(parsed.program, post, sigma)
            den = engine.run(other.program, post, sigma)
            if not (num.exact and den.exact):
                code = INEXACT
            nv, dv = num.value.value, den.value.value
            if nv in (INF, NEG_INF) or dv in (INF, NEG_INF) or dv == 0:
                _emit(args, [sigma.format(names), str(nv), str(dv), "undefined"])
                continue
            ratio = Fraction(nv, dv)
            worst = ratio if worst is None or ratio > worst else worst
            _emit(args, [sigma.format(names), str(nv), str(dv), str(ratio)])
        print(f"max ratio on grid: {worst if worst is not None else 'undefined'}")
        return code
    post = ExprWeighting(alg, parse_weighting(args.post, alg))
    if args.liberal:
        engine = LiberalEngine(alg, args.fuel, args.budget)
    else:
        engine = Engine(alg, "wp", args.fuel, args.budget)
    oracle_fn = olp_oracle if args.liberal else op_oracle
    mismatch = False
    any_inexact = False
    for sigma in states:
        res = engine.run(parsed.program, post, sigma)
        oracle = oracle_fn(parsed.program, sigma, post, alg, args.fuel, args.budget)
        equal = res.value == oracle.value
        if res.exact and oracle.exact and not equal:
            mismatch = True
        any_inexact |= not (res.exact and oracle.exact)
        _emit(args, [
            sigma.format(names),
            alg.format_value(res.value), "exact" if res.exact else "inexact",
            alg.format_value(oracle.value), "exact" if oracle.exact else "inexact",
            "agree" if equal else "DIFFER",
        ])
    if mismatch:
        return MISMATCH
    return INEXACT if any_inexact else OK


def cmd_paths(args) -> int:
    parsed = _load_program(args.program, args.instance)
    alg = parsed.algebra
    names, states = _states(args)
    for sigma in states:
        report = enumerate_paths(parsed.program, sigma, args.depth, alg, args.budget)
        for path in report.paths:
            _emit(args, [
                "".join(path.history) or "-",
                alg.format_weight(path.weight.value),
                path.last_state.format() or "-",
                "terminal" if path.terminal else "open",
            ])
    return OK


def cmd_print(args) -> int:
    parsed = _load_program(args.program, args.instance)
    print(f"@instance {parsed.algebra.name}")
    print(print_program(parsed.program, parsed.algebra))
    return OK


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argument parser whose `--fuel` default reads WGCL_FUEL on each parse.

    The default stays a string, and a string default goes through `type`
    too, so a bad WGCL_FUEL is a usage error of `--fuel`.
    """

    def parse_known_args(self, args=None, namespace=None):
        fuel = self._option_string_actions.get("--fuel")
        if fuel is not None:
            fuel.default = os.environ.get("WGCL_FUEL", "64")
        return super().parse_known_args(args, namespace)


def _add_program(sub):
    sub.add_argument("program", help="program file, or the name of a bundled example")
    sub.add_argument("--instance", help="override the @instance pragma")


def _add_common(sub, transform=True):
    """The program, its states and the output options; with `transform`, also
    the postweighting and the fuel, which `paths` does not read."""
    _add_program(sub)
    if transform:
        sub.add_argument("--post", default="one", help="postweighting expression")
    states = sub.add_mutually_exclusive_group()
    states.add_argument("--state", help="state literal, e.g. x=2,y=3")
    states.add_argument("--grid", help="state grid, e.g. x=0..8,y=0..8")
    if transform:
        sub.add_argument("--fuel", type=_count)  # its default is set on each parse
    sub.add_argument("--budget", type=_count, default=10 ** 6, help="node budget")
    sub.add_argument("--max-grid", type=_count, default=10 ** 5)
    sub.add_argument("--format", choices=("text", "tsv"), default="text")


def _wlp_options(sub):
    _add_common(sub)
    sub.add_argument("--mode", choices=("gfp", "gfp_leq_one"), default="gfp")
    sub.add_argument("--method", choices=("auto", "chain", "lasso"), default="auto")


def _check_options(sub):
    _add_common(sub)
    sub.add_argument("--invariant", required=True)
    sub.add_argument("--mode", choices=("super", "sub", "fixed"), required=True)
    sub.add_argument("--loop-path", help="select a nested loop, e.g. 2 or 2.body.0")


def _compare_options(sub):
    _add_common(sub)
    kind = sub.add_mutually_exclusive_group()
    kind.add_argument("--liberal", action="store_true",
                      help="compare wlp(post) against the liberal oracle")
    kind.add_argument("--ratio", metavar="OTHER",
                      help="second program; report wp(program)/wp(OTHER) per state")


def _paths_options(sub):
    _add_common(sub, transform=False)
    sub.add_argument("--depth", type=_count, default=16)


# name -> (help line, options, handler), in the order `wgcl -h` lists them
COMMANDS = {
    "wp": ("weakest preweighting", _add_common,
           lambda args: cmd_transform(args, liberal=False)),
    "wlp": ("weakest liberal preweighting", _wlp_options,
            lambda args: cmd_transform(args, liberal=True)),
    "check": ("invariant checks for a loop", _check_options, cmd_check),
    "compare": ("transformer vs. path oracle, or --ratio", _compare_options, cmd_compare),
    "paths": ("enumerate computation paths", _paths_options, cmd_paths),
    "print": ("parse and pretty-print a program", _add_program, cmd_print),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of `command`'s arguments, or the full parser.

    A command line runs one command, so for a command in `COMMANDS` this is
    that command's parser alone: one `ArgumentParser` for the arguments
    after the command's name, named `wgcl <command>` as the full parser's
    subparser is, so its help and its errors read the same, and setting
    `command` as the subparsers action does.  Any other `command` (none,
    `-h`, an unknown one) gets the full parser, every command a subparser,
    for the top-level help and the choice errors; `main` also gives it a
    command line whose command leaves arguments over, so that it reports
    them.  Each parser is built on first use and kept for the process (at
    most seven: one per command, and the full one).  None keeps anything of
    a command line; WGCL_FUEL (on each parse) and the terminal width (on
    each help or usage text) are read when used, not when built.
    """
    return _build_parser(command if command in COMMANDS else None)


@functools.cache
def _build_parser(command: str | None) -> argparse.ArgumentParser:
    if command is not None:
        ap = _Parser(prog=f"wgcl {command}")
        COMMANDS[command][1](ap)
        ap.set_defaults(command=command)
        return ap
    ap = _Parser(prog="wgcl", description="weighted guarded-command programs")
    sp = ap.add_subparsers(dest="command", required=True)
    for name, (help_line, add_options, _) in COMMANDS.items():
        add_options(sp.add_parser(name, help=help_line))
    return ap


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if hasattr(sys, "set_int_max_str_digits"):  # no limit: sums are unbounded
        sys.set_int_max_str_digits(0)
    command = argv[0] if argv else None
    try:
        args, rest = (build_parser(command).parse_known_args(argv[1:])
                      if command in COMMANDS else (None, argv))
        if args is None or rest:
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else 0
    try:
        code = COMMANDS[args.command][2](args)
        sys.stdout.flush()  # a closed pipe shows here, not in the flush at exit
        return code
    except BrokenPipeError:
        # the rows were not wanted: send what is left, and the flush at exit,
        # to the null device (see the SIGPIPE note of the `signal` docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return OK
    except CliError as exc:
        print(f"wgcl: {exc}", file=sys.stderr)
        return exc.code
    except BudgetError as exc:
        print(f"wgcl: {exc}", file=sys.stderr)
        return BUDGET
    except (ParseError, AlgebraError, EvalError, NotALoopError,
            CertificationError, DivergenceError) as exc:
        print(f"wgcl: {exc}", file=sys.stderr)
        return USAGE
    except RecursionError:
        print("wgcl: the program nests too deeply", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
