"""Time the path oracles in-process, on their heaviest benchmark rows and
on two `ski_nd` grids, alternating two source trees.

    python scripts/oracle_walks.py
    python scripts/oracle_walks.py --root ../other-checkout --rounds 5

Cases, each run through `wgcl.cli.main` in-process with its output
discarded:
* tail - the `compare` and `compare --liberal` rows of `perfbench`'s
  `random_programs` workload at seed 411 whose oracle walk (`_reachable`)
  runs out of its node budget, timed as their sum.  They are the
  workload's slowest commands; a first, untimed pass over every `compare`
  row of the workload finds them, and the count is printed;
* grid11 - `compare ski_nd --post one --grid n=90..100,y=100`;
* grid11_liberal - the same with `--liberal`;
* grid41 - `compare ski_nd --post one --grid n=60..100,y=100`.

Each round starts one fresh process per tree, in alternating order, and
each process times every case `--repeat` times and keeps the median.  The
script prints, per case and tree, the median over the rounds and each
round's value in ms, and with `--root` the rounds that this script's tree
won.  Without `--root` only this script's tree is timed.
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
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
SKI_ND = ["compare", "ski_nd", "--post", "one", "--grid"]
GRIDS = {"grid11": SKI_ND + ["n=90..100,y=100"],
         "grid11_liberal": SKI_ND + ["n=90..100,y=100", "--liberal"],
         "grid41": SKI_ND + ["n=60..100,y=100"]}


def _quiet(main, argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        main(argv)


def child(repeat: int) -> None:
    """Time every case in this process, against the `wgcl` on `sys.path`,
    and print one JSON object: the medians in ms and the tail row count."""
    import wgcl.cli
    from wgcl import operational
    import workloads

    main = wgcl.cli.main
    walk = operational._reachable
    ran_out = []

    def probe(*args):  # marks a walk that ends in BudgetError
        try:
            yield from walk(*args)
        except operational.BudgetError:
            ran_out.append(True)
            raise

    with tempfile.TemporaryDirectory() as work:
        tail = []
        operational._reachable = probe
        try:
            for cmd in workloads.random_programs(411, Path(work)):
                if cmd.argv[0] == "compare":
                    ran_out.clear()
                    _quiet(main, cmd.argv)
                    if ran_out:
                        tail.append(cmd.argv)
        finally:
            operational._reachable = walk
        cases = {"tail": tail, **{name: [argv] for name, argv in GRIDS.items()}}
        medians = {}
        for name, rows in cases.items():
            times = []
            for _ in range(repeat):
                start = time.perf_counter()
                for argv in rows:
                    _quiet(main, argv)
                times.append(time.perf_counter() - start)
            medians[name] = 1000 * statistics.median(times)
    print(json.dumps({"ms": medians, "tail_rows": len(tail)}))


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
        print(f"{name}: {trees[name]}, {tree_runs[0]['tail_rows']} tail rows")
    for case in ["tail", *GRIDS]:
        for name, tree_runs in runs.items():
            values = [run["ms"][case] for run in tree_runs]
            print(f"{case:<15} {name:<5} median {statistics.median(values):8.2f} ms  rounds "
                  + " ".join(f"{v:.2f}" for v in values))
        if args.root is not None:
            won = sum(a["ms"][case] < b["ms"][case] for a, b in zip(runs["this"], runs["root"]))
            print(f"{case:<15} this won {won} of {args.rounds} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
