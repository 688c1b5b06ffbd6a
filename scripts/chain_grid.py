"""Time the 200-row `ski_nd` grid whose rows are long acyclic chains.

    python scripts/chain_grid.py
    python scripts/chain_grid.py --root ../other-checkout --repeat 7

Runs `wgcl wp ski_nd --post one --grid n=100..299,y=300` through
`wgcl.cli.main` in-process, `--repeat` times after one warm-up run, and
prints the best and the median wall time and how many of the 200 rows are
`exact`.  Each row's loop runs a chain of n + 1 states, longer than the
default horizon (fuel + 1 = 65 body hops).  A solver that certifies the
first chain and reuses it costs time linear in the 300 states of the grid;
one that leaves every row uncertified solves each row's window again.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import statistics
import sys
import time
from pathlib import Path

ARGV = ["wp", "ski_nd", "--post", "one", "--grid", "n=100..299,y=300"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                    help="the source tree whose src/ to run (default: the tree of this script)")
    ap.add_argument("--repeat", type=int, default=5, help="timed runs (default 5)")
    args = ap.parse_args()
    sys.path.insert(0, str(args.root.resolve() / "src"))
    import wgcl.cli

    times = []
    for i in range(args.repeat + 1):
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            wgcl.cli.main(ARGV)
        if i:  # the first run warms up
            times.append(time.perf_counter() - start)
    rows = out.getvalue().splitlines()
    exact = sum(row.endswith("| exact") for row in rows)
    print(f"wgcl {' '.join(ARGV)}")
    print(f"best {min(times) * 1000:.1f} ms, median {statistics.median(times) * 1000:.1f} ms "
          f"over {args.repeat} runs; {exact} of {len(rows)} rows exact")
    return 0


if __name__ == "__main__":
    sys.exit(main())
