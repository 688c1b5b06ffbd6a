"""What the CLI front end costs on the `random_programs` benchmark workload.

    python scripts/frontend_cost.py 411
    python scripts/frontend_cost.py --root ../other-checkout 411

For each seed, every command of the `perfbench` `random_programs` workload
runs through `wgcl.cli.main` in-process, one at a time, with output
captured and `gc.collect()` before each command, as `perfbench/child.py`
runs them.  The script counts the argparse parsers built while they run
(calls of `ArgumentParser.__init__`, subparsers included) and times, over
all commands: `build_parser`, the parsing of the command line (`parse`:
the option table's `parse_command`, and any outermost `parse_known_args`
of an argparse parser, which is all of it in a tree without the table),
`_load_program` (reading and parsing the program file), the rest of
`main`, and the total.  Times are wall clock on this run's machine;
compare two trees by running both here.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import io
import sys
import tempfile
import time
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("seeds", type=int, nargs="+")
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                    help="the source tree whose src/ and perfbench/ to run "
                         "(default: the tree of this script)")
    args = ap.parse_args()
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import wgcl.cli
    import workloads

    spent = dict.fromkeys(("build_parser", "parse", "_load_program"), 0.0)
    built = 0
    depth = 0  # parse_known_args nests: parse_args, subparsers, overrides

    def timed(name, fn):
        @functools.wraps(fn)
        def wrapper(*a, **kw):
            nonlocal depth
            depth += 1
            start = time.perf_counter()
            try:
                return fn(*a, **kw)
            finally:
                depth -= 1
                if depth == 0:
                    spent[name] += time.perf_counter() - start
        return wrapper

    init = argparse.ArgumentParser.__init__

    def counted_init(self, *a, **kw):
        nonlocal built
        built += 1
        init(self, *a, **kw)

    argparse.ArgumentParser.__init__ = counted_init
    parser_classes = [argparse.ArgumentParser] + [
        c for c in vars(wgcl.cli).values()
        if isinstance(c, type) and issubclass(c, argparse.ArgumentParser)
        and "parse_known_args" in vars(c)]
    for cls in parser_classes:
        cls.parse_known_args = timed("parse", cls.parse_known_args)
    if hasattr(wgcl.cli, "parse_command"):
        wgcl.cli.parse_command = timed("parse", wgcl.cli.parse_command)
    for name in ("build_parser", "_load_program"):
        setattr(wgcl.cli, name, timed(name, getattr(wgcl.cli, name)))

    total, count = 0.0, 0
    for seed in args.seeds:
        with tempfile.TemporaryDirectory() as work:
            commands = workloads.random_programs(seed, Path(work))
            gc.freeze()  # the workload's own objects stay out of every collection
            for cmd in commands:
                gc.collect()
                start = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    wgcl.cli.main(cmd.argv)
                total += time.perf_counter() - start
                count += 1
            gc.unfreeze()

    print(f"seeds {' '.join(map(str, args.seeds))}: {count} commands, {built} parsers built")
    rows = {**spent, "rest": total - sum(spent.values()), "total": total}
    for name, seconds in rows.items():
        print(f"{name:<17} {seconds * 1e3:9.1f} ms {seconds / total:7.1%}"
              f" {seconds / count * 1e3:8.3f} ms/command")
    return 0


if __name__ == "__main__":
    sys.exit(main())
