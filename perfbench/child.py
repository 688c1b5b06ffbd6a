"""One round of a workload in a fresh interpreter.

    python3 child.py ROOT WORKLOAD SEED ROUND MODE SPAWNED_NS

MODE is `setup` (set up, then stop), `plain` or `traced`.  SPAWNED_NS is
the parent's CLOCK_MONOTONIC reading just before it started this process,
so setup time covers interpreter start, `import wgcl` and writing the
inputs.  The commands run one at a time through `wgcl.cli.main` with
output captured; outputs are checked only after the last command, outside
the timed and traced region.  Prints one JSON object.

Every time is also given at the reference speed: divided by the machine's
speed at that moment, which the speed probe measures between commands.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path


# The shared machine the benchmark was written on changes speed by 20-50 %
# in phases that last from seconds to minutes, longer than a run.  So every
# time is also divided by the machine's speed at that moment: the time of a
# fixed piece of the benchmark's own work (the reference solver on fixed
# generated programs; it never calls the package), taken before and after
# each stretch of at least SEGMENT_S of commands, over its time at the
# reference speed (this machine's fast phase).  Garbage collection is off
# inside the probe, so that the heap a command leaves behind does not
# change its time.
PROBE_SEED = 1
PROBE_CASES = 6  # per instance
REFERENCE_PROBE_S = 0.030
SEGMENT_S = 0.5


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def speed_probe(genprog, ref):
    """A function that runs the probe and returns its time in seconds."""
    cases = [(prog, post, sigma, ref.INSTANCES[inst])
             for inst, prog, post, sigma in genprog.generate(PROBE_SEED, PROBE_CASES,
                                                             lambda c: True)]

    def probe() -> float:
        gc.disable()
        start = time.perf_counter()
        for prog, post, sigma, inst in cases:
            ref.solve(prog, post, sigma, inst, 1000)
        seconds = time.perf_counter() - start
        gc.enable()
        return seconds

    probe()  # warm-up: the first run pays for specialising the bytecode
    return probe


def main(argv: list[str]) -> int:
    root, workload, seed, rnd, mode, spawned = argv
    root = Path(root)
    src = root / "src"
    sys.path.insert(0, str(src))
    import wgcl
    import wgcl.cli
    if not Path(wgcl.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"wgcl imported from {wgcl.__file__}, not from {src}")

    import genprog
    import reference
    import workloads
    workdir = root / ".perfbench_out" / f"work-{workload}-{seed}-{rnd}-{mode}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        commands = workloads.WORKLOADS[workload](int(seed), workdir)
        setup_s = (_now_ns() - int(spawned)) / 1e9
        probe = speed_probe(genprog, reference)
        probes = [probe()]
        setup = {"setup_s": setup_s, "setup_scaled": setup_s * REFERENCE_PROBE_S / probes[0]}
        if mode == "setup":
            print(json.dumps(setup))
            return 0
        tracer = None
        if mode == "traced":
            from layertrace import Tracer
            tracer = Tracer()
            tracer.install()
        gc.freeze()  # the benchmark's own objects stay out of every collection
        runs, scaled, segment = [], [], []
        segment_start = time.perf_counter()
        for i, cmd in enumerate(commands):
            if tracer:
                tracer.command = i
            out, err = io.StringIO(), io.StringIO()
            gc.collect()  # the garbage of the commands before, as in a fresh process
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code, crash = wgcl.cli.main(cmd.argv), None
            except Exception as exc:  # an uncaught exception fails the command
                code, crash = None, f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
            runs.append((end - start, out.getvalue(), err.getvalue(), code, crash))
            segment.append((start, end))
            if end - segment_start >= SEGMENT_S or i == len(commands) - 1:
                probes.append(probe())
                # the probe's time at the command's midpoint, interpolated
                # between the probes just before and just after the stretch
                before, after = probes[-2], probes[-1]
                for a, b in segment:
                    at = ((a + b) / 2 - segment_start) / (end - segment_start)
                    scaled.append((b - a) * REFERENCE_PROBE_S / (before + at * (after - before)))
                segment = []
                segment_start = time.perf_counter()
        if tracer:
            tracer.uninstall()
        maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        results = []
        for cmd, at_speed, (seconds, out, err, code, crash) in zip(commands, scaled, runs):
            if crash:
                rows, exact, failure = 0, 0, crash
            elif workloads.usage_error(err):
                rows, exact, failure = 0, 0, f"exit {code}, usage error: {err.strip()[-200:]}"
            elif workloads.budget_exhausted(err):  # answered, inexact, whatever the exit code
                rows, exact, failure = cmd.states, 0, None
            else:
                try:
                    rows, exact, failure = cmd.check(out, err, code)
                except Exception as exc:  # output in a shape the check cannot read
                    rows, exact, failure = 0, 0, f"unreadable output: {type(exc).__name__}: {exc}"
            results.append({"argv": cmd.argv, "seconds": seconds, "scaled": at_speed,
                            "rows": rows, "exact": exact, "failure": failure})
        report = {**setup, "maxrss_mb": maxrss_mb, "probes": probes, "commands": results}
        if tracer:
            report["trace"] = tracer.report()
        print(json.dumps(report))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
