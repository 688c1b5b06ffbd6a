"""Measure the memory of the loop solver on two loops that touch many unknowns.

    python scripts/solver_memory.py
    python scripts/solver_memory.py --root ../other-checkout

Cases (each a `wgcl wp` query at the default fuel 64 and budget 10^6):
* triangle - tropical `while (x > 0) { y := x; while (y > 0) { y := y - 1;
  { weigh 1 } [] { weigh 2 } }; x := x - 1 }`, `--post one --state x=300`:
  one system of 301 outer and 45,450 inner loop states, an acyclic chain;
* fib - the bundled `fib` example, `--post "[m<=1] int(1)" --state n=23`.

For each case it prints the command's output row and, from a fresh
`python -m wgcl.cli` process, the wall time and the peak resident set
(`os.wait4`).  Then it runs the same query in-process through `Engine.run`
under `tracemalloc` and prints the unknowns touched, the traced peak, and
the traced peak within each phase of the queried loop's solve: discovery
(`_Solve._discover` from the queried state), sweep (from there up to
`operational.components`: the acyclic part, solved in reverse discovery
order), component order (inside `components`, called only when the sweep
leaves the queried state unsolved) and solving (the rest of the solve).
A phase's peak includes what earlier phases still hold; where
`components` yields each component as it is complete, the last two
phases take turns.
Memory allocated before `tracemalloc` starts (imports, the parsed
program) is not counted.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

TRIANGLE = ("@instance tropical\nwhile (x > 0) { y := x; while (y > 0) { y := y - 1; "
            "{ weigh 1 } [] { weigh 2 } }; x := x - 1 }\n")
MIB = 1 << 20


class Phases:
    """The traced peak per phase of the outermost solve, while entered: it
    wraps `_Solve.run`, `_Solve._discover` and `components` (a list or a
    generator of components) in each module that binds it, `operational`,
    and `transformer` in a tree whose loop solver calls it there."""

    def __init__(self, transformer, operational):
        self.solve = transformer._Solve
        self.modules = [m for m in (transformer, operational) if hasattr(m, "components")]
        self.peaks: dict[str, int] = {}
        self.current = None

    def __enter__(self):
        solve, phases = self.solve, self
        self.saved = run, discover = solve.run, solve._discover
        self.components = [m.components for m in self.modules]

        def traced_run(self, root):
            phases.switch("solving")
            try:
                return run(self, root)
            finally:
                phases.switch(None)

        def traced_discover(self, entry):
            if self.outer is not None:
                return discover(self, entry)
            phases.switch("discovery")
            try:
                return discover(self, entry)
            finally:
                phases.switch("sweep")

        def wrapped(components):
            def traced_components(*args):
                phases.switch("component order")
                order = iter(components(*args))
                while True:
                    phases.switch("component order")
                    try:
                        component = next(order)
                    except StopIteration:
                        break
                    finally:
                        phases.switch("solving")
                    yield component
            return traced_components

        solve.run, solve._discover = traced_run, traced_discover
        for module, components in zip(self.modules, self.components):
            module.components = wrapped(components)
        return self

    def __exit__(self, *exc):
        self.solve.run, self.solve._discover = self.saved
        for module, components in zip(self.modules, self.components):
            module.components = components

    def switch(self, phase) -> None:
        if self.current is not None:
            peak = tracemalloc.get_traced_memory()[1]
            self.peaks[self.current] = max(self.peaks.get(self.current, 0), peak)
        tracemalloc.reset_peak()
        self.current = phase


def fresh_process(root: Path, argv: list[str]) -> tuple[str, float, float]:
    """The output, the wall time in s and the peak RSS in MB of
    `python -m wgcl.cli ARGV` in a new process."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-m", "wgcl.cli", *argv], env=env,
                             stdout=subprocess.PIPE, text=True)
    out = child.stdout.read()
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    child.stdout.close()
    return out.strip(), wall, usage.ru_maxrss / 1024


def traced(text: str, post: str, state: str):
    """(touched unknowns, traced peak, peak per phase) of `Engine.run`."""
    from wgcl import operational, transformer
    from wgcl.parser import parse_program, parse_state

    parsed = parse_program(text)
    sigma = parse_state(state)
    engine = transformer.Engine(parsed.algebra, "wp")
    tracemalloc.start()
    try:
        with Phases(transformer, operational) as phases:
            result = engine.run(parsed.program, post, sigma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result.touched_states, max([peak, *phases.peaks.values()]), phases.peaks


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                    help="the source tree whose src/ to run (default: the tree of this script)")
    args = ap.parse_args()
    root = args.root.resolve()
    sys.path.insert(0, str(root / "src"))

    with tempfile.TemporaryDirectory() as tmp:
        triangle = Path(tmp) / "triangle.wgcl"
        triangle.write_text(TRIANGLE, encoding="utf-8")
        fib = root / "src" / "wgcl" / "examples" / "fib.wgcl"
        cases = [("triangle", triangle, "one", "x=300"),
                 ("fib", fib, "[m<=1] int(1)", "n=23")]
        # first, while this process is small: a child's peak RSS counts the
        # memory of the process that forked it
        runs = [fresh_process(root, ["wp", str(path), "--post", post, "--state", state])
                for _, path, post, state in cases]
        for (name, path, post, state), (row, wall, rss) in zip(cases, runs):
            touched, peak, phases = traced(path.read_text(encoding="utf-8"), post, state)
            split = ", ".join(f"{phase} {phases.get(phase, 0) / MIB:.1f}"
                              for phase in ("discovery", "sweep", "component order", "solving"))
            print(f"{name}: wp --post {post!r} --state {state}")
            print(f"  row: {row}")
            print(f"  unknowns touched: {touched}")
            print(f"  fresh process: {wall:.2f} s, peak RSS {rss:.1f} MB")
            print(f"  tracemalloc peak: {peak / MIB:.1f} MiB ({split})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
