"""Time the path oracles in-process, on their heaviest benchmark rows and
on two `ski_nd` grids, alternating two source trees.

    python scripts/oracle_walks.py
    python scripts/oracle_walks.py --root ../other-checkout --rounds 5

Cases, the first four run through `wgcl.cli.main` in-process with their
output discarded:
* tail - the `compare` and `compare --liberal` rows of `perfbench`'s
  `random_programs` workload at seed 411 whose oracle walk (`_reachable`)
  runs out of its node budget, timed as their sum.  They are the
  workload's slowest commands; a first, untimed pass over every `compare`
  row of the workload finds them, and the count is printed;
* grid11 - `compare ski_nd --post one --grid n=90..100,y=100`;
* grid11_liberal - the same with `--liberal`;
* grid41 - `compare ski_nd --post one --grid n=60..100,y=100`;
* walk - the tail rows' over-budget `_reachable` walks alone, without the
  CLI: each walk is called again with the arguments it had in the first
  pass, over the positions that pass compiled, up to its `BudgetError`
  (so each enters its node budget of pairs, and their sum is printed);
* compile - the expression compiler alone, in µs per expression: every
  guard, right-hand side and weight of the workload's programs, parsed
  once, compiled (`compile_bool`, `compile_arith`, `compile_weight`) over
  its program's slots; the expression count is printed.

Each round starts one fresh process per tree, in alternating order, and
each process times every case `--repeat` times and keeps the median.  The
script prints, per case and tree, the median over the rounds and each
round's value (in ms, compile in µs per expression), and with `--root`
the rounds that this script's tree won.  Without `--root` only this
script's tree is timed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from collections import deque
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
SKI_ND = ["compare", "ski_nd", "--post", "one", "--grid"]
GRIDS = {"grid11": SKI_ND + ["n=90..100,y=100"],
         "grid11_liberal": SKI_ND + ["n=90..100,y=100", "--liberal"],
         "grid41": SKI_ND + ["n=60..100,y=100"]}


def _quiet(main, argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        main(argv)


def _expressions(paths):
    """(compiler, expression, slots) for every guard, right-hand side and
    weight of the programs at `paths`."""
    from wgcl import parser, syntax

    out = []
    for path in paths:
        program = parser.parse_program(Path(path).read_text(encoding="utf-8")).program
        stack = [program]
        while stack:
            stmt = stack.pop()
            if isinstance(stmt, syntax.Seq):
                stack += (stmt.second, stmt.first)
            elif isinstance(stmt, syntax.Assign):
                out.append((syntax.compile_arith, stmt.expr, program.names))
            elif isinstance(stmt, syntax.Weigh):
                out.append((syntax.compile_weight, stmt.weight, program.names))
            elif isinstance(stmt, syntax.Branch):
                stack += (stmt.right, stmt.left)
            else:
                out.append((syntax.compile_bool, stmt.guard, program.names))
                stack += ((stmt.orelse, stmt.then) if isinstance(stmt, syntax.Ite)
                          else (stmt.body,))
    return out


def _median_s(repeat: int, run) -> float:
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def child(repeat: int) -> None:
    """Time every case in this process, against the `wgcl` on `sys.path`,
    and print one JSON object: the medians (ms, compile µs per
    expression), the tail row count, the pairs the over-budget walks enter
    and the expression count."""
    import wgcl.cli
    from wgcl import operational
    import workloads

    main = wgcl.cli.main
    walk = operational._reachable
    ran_out = []  # the arguments of each walk that ended in BudgetError

    def probe(*args):
        try:
            yield from walk(*args)
        except operational.BudgetError:
            ran_out.append(args)
            raise

    def walk_all():  # the over-budget walks again, each to its BudgetError
        for args in walks:
            try:
                deque(walk(*args), maxlen=0)
            except operational.BudgetError:
                pass

    with tempfile.TemporaryDirectory() as work:
        tail, walks = [], []
        commands = workloads.random_programs(411, Path(work))
        operational._reachable = probe
        try:
            for cmd in commands:
                if cmd.argv[0] == "compare":
                    ran_out.clear()
                    _quiet(main, cmd.argv)
                    if ran_out:
                        tail.append(cmd.argv)
                        walks += ran_out
        finally:
            operational._reachable = walk
        cases = {"tail": tail, **{name: [argv] for name, argv in GRIDS.items()}}
        medians = {name: 1000 * _median_s(repeat, lambda: [_quiet(main, argv) for argv in rows])
                   for name, rows in cases.items()}
        medians["walk"] = 1000 * _median_s(repeat, walk_all)
        exprs = _expressions(sorted({cmd.argv[1] for cmd in commands if cmd.argv[0] == "print"}))

        def compile_all():
            for compile_expr, expr, names in exprs:
                compile_expr(expr, names)
        medians["compile"] = 1e6 * _median_s(repeat, compile_all) / len(exprs)
    print(json.dumps({"ms": medians, "tail_rows": len(tail),
                      "walk_pairs": sum(budget for *_, budget in walks),
                      "expressions": len(exprs)}))


def run_tree(root: Path, repeat: int) -> dict:
    env = {**os.environ, "COLUMNS": "80",
           "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "perfbench")])}
    out = subprocess.run([sys.executable, __file__, "--child", "--repeat", str(repeat)],
                         env=env, capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=Path, help="a second source tree to time, alternating")
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--repeat", type=int, default=7, help="timings per case in one process")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        child(args.repeat)
        return 0
    trees = {"this": HERE} if args.root is None else {"this": HERE, "root": args.root.resolve()}
    runs = {name: [] for name in trees}
    for r in range(args.rounds):
        for name in (list(trees) if r % 2 == 0 else list(trees)[::-1]):
            runs[name].append(run_tree(trees[name], args.repeat))
    for name, tree_runs in runs.items():
        first = tree_runs[0]
        print(f"{name}: {trees[name]}, {first['tail_rows']} tail rows, their walks enter "
              f"{first['walk_pairs']} pairs, {first['expressions']} expressions")
    for case in ["tail", *GRIDS, "walk", "compile"]:
        unit = "us" if case == "compile" else "ms"
        for name, tree_runs in runs.items():
            values = [run["ms"][case] for run in tree_runs]
            print(f"{case:<15} {name:<5} median {statistics.median(values):8.2f} {unit}  rounds "
                  + " ".join(f"{v:.2f}" for v in values))
        if args.root is not None:
            won = sum(a["ms"][case] < b["ms"][case] for a, b in zip(runs["this"], runs["root"]))
            print(f"{case:<15} this won {won} of {args.rounds} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
