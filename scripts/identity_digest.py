"""Digest of everything the benchmark's commands print, to show that a
change leaves every output byte-identical.

    python scripts/identity_digest.py 401 402 403
    python scripts/identity_digest.py --root ../other-checkout 401 402 403

For each seed, every command of the three `perfbench` workloads runs
through `wgcl.cli.main` in-process, one at a time, with `COLUMNS=80` so
that argparse wraps usage text the same way everywhere.  The generated
programs are written to a temporary directory, whose path is masked in
argv and in the output.  The script prints one line per workload: a
SHA-256 over (argv, stdout, stderr, exit code) of its commands, seeds in
the order given, and the number of commands.  An uncaught exception
counts as the exit code, by its type and message.  Two trees print the
same lines exactly when their commands print the same bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

MASK = "<work>"


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
    import workloads

    for name, build in workloads.WORKLOADS.items():
        digest, count = hashlib.sha256(), 0
        for seed in args.seeds:
            with tempfile.TemporaryDirectory() as work:
                for cmd in build(seed, Path(work)):
                    out, err = io.StringIO(), io.StringIO()
                    try:
                        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                            code = wgcl.cli.main(cmd.argv)
                    except Exception as exc:  # a crash is an outcome to compare
                        code = f"{type(exc).__name__}: {exc}"
                    record = [cmd.argv, out.getvalue(), err.getvalue(), code]
                    digest.update(json.dumps(record).replace(work, MASK).encode() + b"\n")
                    count += 1
        print(f"{name} {digest.hexdigest()} {count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
