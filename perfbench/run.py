"""Benchmark of the wgcl CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload readme_grids --seed 1 --seconds 30 --trace 0

Run from the root of a source tree; the package is imported from its
`src/`.  Load is a closed loop: one client, one command at a time, in one
process, no threads.  A run is a number of rounds fixed by the workload and
`--seconds` (never by how fast the program is); every round runs the
seed's commands again in a fresh child process, since every real CLI
invocation starts cold.  A few more children only set up, so `setup_s` is
a median over several.  Times are reported at the reference speed: each is
divided by the machine's speed when it was taken, which a fixed probe of
the benchmark's own measures between commands (see child.py).  The
wall-clock figures are in the provenance line.

`--trace 0` prints the end-to-end metrics; `--trace 1` runs a quarter of
the rounds twice, untraced and traced, and prints the per-layer metrics,
with self times and the tracing overhead, and writes the spans under
`.perfbench_out/`.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

# nominal wall seconds of one round on the 2-core machine the benchmark was
# written on (Python 3.11); they turn --seconds into a round count
ROUND_SECONDS = {"readme_grids": 4.5, "deep_loops": 3.0, "random_programs": 8.5}
SETUP_PROBES = 9
DEADLINE_S = 170

END_TO_END = {"setup_s": "s", "states_per_s": "1/s", "cmd_p50_ms": "ms",
              "cmd_tail_ms": "ms", "exact_share": "ratio", "peak_rss_mb": "MB"}


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S

    def child(self, rnd: int, mode: str) -> dict:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise RuntimeError("run exceeded its time limit")
        spawned = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(ROOT), self.workload,
             str(self.seed), str(rnd), mode, str(spawned)],
            capture_output=True, text=True, timeout=left, cwd=ROOT)
        if proc.returncode != 0 or not proc.stdout.strip():
            raise RuntimeError(f"round {rnd} ({mode}) exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.splitlines()[-1])


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its
    value; the maximum when there are fewer than 20 samples, where that
    percentile would fall below the median."""
    xs = sorted(values)
    n = len(xs)
    if n < 20:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def end_to_end(rounds: list[dict], setups: list[tuple[float, float]]) -> tuple[dict, dict]:
    """Every round runs the same commands in a cold process; a command's
    latency is its median over the rounds, at the reference speed (see
    child.py).  The wall-clock figures go into the provenance line."""
    per_round = [r["commands"] for r in rounds]
    cmds = per_round[0]
    rows = sum(c["rows"] for c in cmds)

    def times(key: str) -> tuple[dict, float]:
        seconds = [statistics.median(r[i][key] for r in per_round) for i in range(len(cmds))]
        tail_value, tail_pct = tail(seconds)
        return {"states_per_s": rows / sum(seconds),
                "cmd_p50_ms": 1000 * statistics.median(seconds),
                "cmd_tail_ms": 1000 * tail_value}, tail_pct

    scaled, tail_pct = times("scaled")
    values = {
        "setup_s": statistics.median(s for s, _ in setups),
        **scaled,
        "exact_share": sum(c["exact"] for c in cmds) / rows,
        "peak_rss_mb": statistics.median(r["maxrss_mb"] for r in rounds),
    }
    wall = {"setup_s": statistics.median(w for _, w in setups), **times("seconds")[0]}
    probes = [p for r in rounds for p in r["probes"]]
    info = {"commands": len(cmds), "rows": rows, "tail_percentile": round(tail_pct, 2),
            "tail_samples": len(cmds), "setup_samples": len(setups),
            "wall_clock": wall, "probe_s_median": statistics.median(probes),
            "round_seconds": [round(sum(c["seconds"] for c in r), 3) for r in per_round]}
    return values, info


def per_layer(traced: list[dict], plain: list[dict]) -> tuple[dict, dict]:
    stats: dict[str, list] = {}
    counters: dict[str, int] = {}
    for r in traced:
        for group, (calls, self_s) in r["trace"]["stats"].items():
            acc = stats.setdefault(group, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
        for name, value in r["trace"]["counters"].items():
            counters[name] = counters.get(name, 0) + value
    values: dict[str, tuple[float, str]] = {}
    for group, (calls, self_s) in stats.items():
        if group == "transformer.engines_built":
            values[group] = (calls, "count")
            continue
        values[f"{group}.calls"] = (calls, "count")
        values[f"{group}.self_s"] = (self_s, "s")
    runs = stats["transformer.run"][0]
    values.update({
        "transformer.passes": (counters["passes"], "count"),
        "transformer.touched_states": (counters["touched_states"], "count"),
        "transformer.inexact_runs_ratio": (counters["inexact_runs"] / runs if runs else 0.0,
                                           "ratio"),
        "operational.quotient_nodes": (counters["quotient_nodes"], "count"),
        "operational.budget_errors": (counters["budget_errors"], "count"),
        "parser.ast_nodes": (counters["ast_nodes"], "count"),
    })
    cmd_time = lambda rs: sum(c["scaled"] for r in rs for c in r["commands"])
    values["trace_overhead"] = (cmd_time(traced) / cmd_time(plain), "ratio")
    info = {"inexact_runs_base": runs}
    return values, info


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(ROUND_SECONDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "wgcl" / "cli.py").is_file():
        print(f"perfbench: no wgcl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed)
    n_rounds = max(1, round(args.seconds / ROUND_SECONDS[args.workload]))
    try:
        if args.trace:
            plain, traced = [], []
            for rnd in range(math.ceil(n_rounds / 4)):
                plain.append(runner.child(rnd, "plain"))
                traced.append(runner.child(rnd, "traced"))
            rounds = plain + traced
            metrics, info = per_layer(traced, plain)
        else:
            rounds = [runner.child(rnd, "plain") for rnd in range(n_rounds)]
            setups = rounds + [runner.child(i % n_rounds, "setup")
                               for i in range(SETUP_PROBES)]
            setups = [(r["setup_scaled"], r["setup_s"]) for r in setups]
            values, info = end_to_end(rounds, setups)
            metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    cmds = [c for r in rounds for c in r["commands"]]
    failures = [c for c in cmds if c["failure"]]
    for c in failures[:20]:
        print(f"FAILED {' '.join(c['argv'])}: {c['failure']}", file=sys.stderr)
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": len(rounds), "python": platform.python_version(),
        "nproc": os.cpu_count(), "commit": _commit(),
        "failed_share": len(failures) / len(cmds), **info,
    }
    if args.trace:
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps({
            "provenance": provenance,
            "span_fields": ["id", "name", "command", "parent", "start_s", "end_s"],
            "rounds": [r["trace"] for r in traced]}))
        provenance["spans_file"] = str(spans_file.relative_to(ROOT))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(f"{'failed_share':40s} {provenance['failed_share']:.6g} ratio")
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(cmds),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
