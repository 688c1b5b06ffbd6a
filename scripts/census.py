"""Census of the exact flags on the `random_programs` benchmark workload.

    python scripts/census.py 411
    python scripts/census.py --root ../other-checkout 411

For each seed, every command of the `perfbench` `random_programs` workload
except `print` runs through `wgcl.cli.main` in-process, one at a time, as
in `identity_digest.py`.  Each printed row carries one `exact`/`inexact`
flag per value column: `wlp` has one (wlp), `compare` two (wp, then the op
oracle) and `compare --liberal` two (wlp, then the olp oracle).  The script
prints the exact and inexact counts per command and column, the inexact
counts per instance, the commands that printed no row, and the `compare`
rows that print `DIFFER` although a side is inexact.  Programs are written
to a temporary directory, whose path is masked in what is printed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path

MASK = "<work>"
COLUMNS = {"wlp": ("wlp",), "compare": ("wp", "op"), "compare --liberal": ("wlp", "olp")}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("seeds", type=int, nargs="+")
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                    help="the source tree whose src/ and perfbench/ to run "
                         "(default: the tree of this script)")
    args = ap.parse_args()
    os.environ["COLUMNS"] = "80"
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import wgcl.cli
    import genprog
    import workloads

    flags: Counter = Counter()  # (command, column, instance, flag) -> count
    silent, differ = [], []
    for seed in args.seeds:
        with tempfile.TemporaryDirectory() as work:
            for cmd in workloads.random_programs(seed, Path(work)):
                if cmd.argv[0] == "print":
                    continue
                command = "compare --liberal" if "--liberal" in cmd.argv else cmd.argv[0]
                instance = Path(cmd.argv[1]).read_text(encoding="utf-8").split()[1]
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = wgcl.cli.main(cmd.argv)
                shown = " ".join(cmd.argv).replace(work, MASK)
                rows = [line.split(" | ") for line in out.getvalue().splitlines()
                        if " | " in line]
                if not rows:
                    reason = err.getvalue().strip().splitlines()[:1]
                    silent.append(f"{shown}  (exit {code}: {''.join(reason)})")
                for row in rows:
                    marks = row[2::2][:len(COLUMNS[command])]
                    for column, flag in zip(COLUMNS[command], marks):
                        flags[command, column, instance, flag] += 1
                    if row[-1] == "DIFFER" and "inexact" in marks:
                        differ.append(f"{shown}\n    {' | '.join(row)}")

    total = sum(flags.values())
    inexact = sum(n for key, n in flags.items() if key[3] == "inexact")
    print(f"seeds {' '.join(map(str, args.seeds))}: {total} flagged columns, "
          f"{inexact} inexact")
    instances = genprog.INSTANCES
    print(f"{'command':<18} {'column':<7} {'exact':>6} {'inexact':>8}   inexact by instance: "
          + " ".join(instances))
    for command, columns in COLUMNS.items():
        for column in columns:
            count = lambda flag, inst: flags[command, column, inst, flag]
            by_instance = [count("inexact", inst) for inst in instances]
            print(f"{command:<18} {column:<7} {sum(count('exact', i) for i in instances):>6} "
                  f"{sum(by_instance):>8}   " + " ".join(map(str, by_instance)))
    print(f"commands that printed no row: {len(silent)}")
    for line in silent:
        print(f"  {line}")
    print(f"DIFFER rows with an inexact side: {len(differ)}")
    for line in differ:
        print(f"  {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
