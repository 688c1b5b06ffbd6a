"""Compare what two trees print for every benchmark command, and accept
only changes that certify more.

    python scripts/flag_flips.py OLD_ROOT NEW_ROOT 401 402 403 411

For each tree, one subprocess runs every command of the three
`perfbench` workloads at the given seeds through that tree's
`wgcl.cli.main`, in-process and one at a time, as `identity_digest.py`
runs them (`COLUMNS=80`, the generated programs in a temporary directory
whose path is masked, an uncaught exception counted as the exit code).
The script prints each record (argv, stdout, stderr, exit code) that
differs between the trees, with its changed lines and exit codes, then
one summary line.  A change is a flip when argv and stderr are equal,
stdout differs only where a word `inexact` became `exact`, and the exit
code is equal or went from 3 to 0 with no `inexact` left in stdout: the
values are the same, only certified.  The exit status is 0 when every
change is a flip, else 1.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

MASK = "<work>"
INEXACT = 3


def records(root: Path, seeds: list[int]) -> None:
    """Print one JSON line per command of the workloads under `root`:
    [workload, seed, argv, stdout, stderr, exit code].  Each tree's
    subprocess runs this script as `flag_flips.py --records ROOT SEED...`."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import wgcl.cli
    import workloads

    for name, build in workloads.WORKLOADS.items():
        for seed in seeds:
            with tempfile.TemporaryDirectory() as work:
                for cmd in build(seed, Path(work)):
                    out, err = io.StringIO(), io.StringIO()
                    try:
                        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                            code = wgcl.cli.main(cmd.argv)
                    except Exception as exc:  # a crash is an outcome to compare
                        code = f"{type(exc).__name__}: {exc}"
                    record = [name, seed, cmd.argv, out.getvalue(), err.getvalue(), code]
                    print(json.dumps(record).replace(work, MASK))


def flip(old: list, new: list) -> bool:
    """Whether `new` differs from `old` only by `inexact` -> `exact` words
    in stdout, with the exit code following those flags."""
    *head, out, err, code = old
    *head2, out2, err2, code2 = new
    if head != head2 or err != err2:
        return False
    lines, lines2 = out.splitlines(), out2.splitlines()
    if len(lines) != len(lines2):
        return False
    for line, line2 in zip(lines, lines2):
        words, words2 = line.split(" "), line2.split(" ")
        if len(words) != len(words2) or any(
                w != w2 and (w, w2) != ("inexact", "exact") for w, w2 in zip(words, words2)):
            return False
    return code == code2 or (code, code2) == (INEXACT, 0) and "inexact" not in out2.split()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", type=Path, help="the source tree to compare against")
    ap.add_argument("new", type=Path, help="the changed source tree")
    ap.add_argument("seeds", type=int, nargs="+")
    args = ap.parse_args()
    env = {**os.environ, "COLUMNS": "80"}
    runs = [subprocess.Popen([sys.executable, __file__, "--records", str(root.resolve()),
                              *map(str, args.seeds)], stdout=subprocess.PIPE, text=True, env=env)
            for root in (args.old, args.new)]
    old, new = ([json.loads(line) for line in run.communicate()[0].splitlines()] for run in runs)
    if any(run.returncode for run in runs) or len(old) != len(new):
        print(f"the trees ran {len(old)} and {len(new)} commands", file=sys.stderr)
        return 1
    changed = flips = 0
    for a, b in zip(old, new):
        if a == b:
            continue
        changed += 1
        ok = flip(a, b)
        flips += ok
        print(f"{'flip' if ok else 'CHANGED'} {a[0]} seed {a[1]}: {' '.join(a[2])}")
        for k, stream in ((3, "stdout"), (4, "stderr")):
            for line in difflib.unified_diff(a[k].splitlines(), b[k].splitlines(), stream,
                                             stream, n=0, lineterm=""):
                if not line.startswith(("---", "+++", "@@")):
                    print(f"  {line}")
        print(f"  exit {a[5]} -> {b[5]}")
    seeds = " ".join(map(str, args.seeds))
    print(f"seeds {seeds}: {len(old)} records, {changed} changed, {flips} of them flips")
    return 0 if flips == changed else 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["--records"]:  # one tree's subprocess
        records(Path(sys.argv[2]), [int(seed) for seed in sys.argv[3:]])
        sys.exit(0)
    sys.exit(main())
