"""Time the package's start-up in fresh processes, alternating two source
trees.

    python scripts/startup_cost.py
    python scripts/startup_cost.py --root ../other-checkout --rounds 10

Cases, each one fresh interpreter per tree and round:
* import - `import wgcl, wgcl.cli`, timed inside the process;
* process - the whole `python -m wgcl.cli wp ski_nd --post one --state
  n=3,y=2` process, timed from outside (interpreter start and exit
  included).

Each case runs in two bytecode-cache states:
* cold - under `PYTHONDONTWRITEBYTECODE=1`, so the package is compiled
  from source in every process (the standard library keeps its cached
  bytecode), as in a fresh checkout;
* warm - with a private `PYTHONPYCACHEPREFIX` per tree, filled by one
  untimed run first, so every module loads from cached bytecode.

Each tree's `src/wgcl` is copied, without any `__pycache__`, into a
temporary directory first, so bytecode cached in a tree does not leak into
the cold runs.  Each round starts the trees in alternating order.  The
script prints, per case, state and tree, the median over the rounds in ms
and each round's value, with `--root` the rounds this script's tree won,
and last one JSON object with every value.  Without `--root` only this
script's tree is timed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
IMPORT = ("import time; start = time.perf_counter(); import wgcl, wgcl.cli; "
          "print(1000 * (time.perf_counter() - start))")
COMMAND = ["-m", "wgcl.cli", "wp", "ski_nd", "--post", "one", "--state", "n=3,y=2"]
EXPECTED = "n=3,y=2 | 2 | exact\n"
CASES = ("import", "process")
STATES = ("cold", "warm")


def _env(src: Path, cache: Path | None) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    env["PYTHONPATH"] = str(src)
    if cache is None:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    else:
        env["PYTHONPYCACHEPREFIX"] = str(cache)
    return env


def _run(args: list[str], env: dict, cwd: Path) -> tuple[float, str]:
    start = time.perf_counter()
    out = subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                         capture_output=True, text=True, check=True).stdout
    return 1000 * (time.perf_counter() - start), out


def measure(src: Path, cache: Path | None, cwd: Path) -> dict:
    """One fresh process per case, against the package copied to `src`:
    its time in ms."""
    env = _env(src, cache)
    _, out = _run(["-c", IMPORT], env, cwd)
    process_ms, printed = _run(COMMAND, env, cwd)
    if printed != EXPECTED:
        raise RuntimeError(f"{src}: {' '.join(COMMAND)} printed {printed!r}")
    return {"import": float(out), "process": process_ms}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=Path, help="a second source tree to time, alternating")
    ap.add_argument("--rounds", type=int, default=10)
    args = ap.parse_args()
    trees = {"this": HERE} if args.root is None else {"this": HERE, "root": args.root.resolve()}
    runs = {(state, name): [] for state in STATES for name in trees}
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        srcs, caches = {}, {}
        for name, tree in trees.items():
            srcs[name] = work / name / "src"
            shutil.copytree(tree / "src" / "wgcl", srcs[name] / "wgcl",
                            ignore=shutil.ignore_patterns("__pycache__"))
            caches[name] = work / name / "pycache"
            measure(srcs[name], caches[name], work)  # fills the warm cache
        for r in range(args.rounds):
            for state in STATES:
                for name in (list(trees) if r % 2 == 0 else list(trees)[::-1]):
                    cache = caches[name] if state == "warm" else None
                    runs[state, name].append(measure(srcs[name], cache, work))
    for name, tree in trees.items():
        print(f"{name}: {tree}")
    for case in CASES:
        for state in STATES:
            for name in trees:
                values = [run[case] for run in runs[state, name]]
                print(f"{case:<8} {state:<5} {name:<5} median {statistics.median(values):7.1f} ms"
                      "  rounds " + " ".join(f"{v:.1f}" for v in values))
            if args.root is not None:
                won = sum(a[case] < b[case]
                          for a, b in zip(runs[state, "this"], runs[state, "root"]))
                print(f"{case:<8} {state:<5} this won {won} of {args.rounds} rounds")
    print(json.dumps({f"{case}_{state}": {name: [round(run[case], 2) for run in runs[state, name]]
                                          for name in trees}
                      for case in CASES for state in STATES}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
