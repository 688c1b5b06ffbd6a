"""The nested-loop comparison: wp and wlp of seeded programs whose loop body
holds a loop, to show that a change to the loop solver keeps every answer.

    python scripts/nested_compare.py
    python scripts/nested_compare.py --root ../other-checkout --budget 500

Inputs: 1400 cases of `tests/genprog.py` `rand_nested_program`, cycling over
the seven instances.  Each case draws its program, a postweighting
(`rand_weighting_expr`) and a state (`rand_state`), in that order, from one
`random.Random(7)`.  Each case is queried twice, each time on a fresh engine
at fuel 8: wp through `Engine` and wlp through `LiberalEngine`, with a 20-s
alarm per query.

Output: the count of each outcome per direction (`exact`, `inexact`, the
name of the exception raised, or `timeout`), the body runs summed over every
answered query (`evaluations`), and how many answered queries ran a body more
or fewer times than they touched loop states.  Then two SHA-256 digests: one
over each query's outcome and exact flag, with its value only where exact,
and one over everything, the counters and inexact values included.  Two
trees print the same first digest exactly when they give the same answers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import signal
import sys
from collections import Counter
from pathlib import Path

INSTANCES = ("boolean", "counting", "tropical", "arctic", "prob", "lang:ab", "omegalang:ab")
CASES, SEED, FUEL, ALARM_S = 1400, 7, 8, 20


class Timeout(Exception):
    pass


def _alarm(_signum, _frame):
    raise Timeout


def records(budget: int):
    """(case, direction, outcome, exact, value, iterations, touched, body runs)
    for each query, in order; the last five are None unless it answered."""
    from genprog import rand_nested_program, rand_state, rand_weighting_expr
    from wgcl.algebra import algebra
    from wgcl.syntax import ExprWeighting
    from wgcl.transformer import Engine, LiberalEngine

    rng = random.Random(SEED)
    signal.signal(signal.SIGALRM, _alarm)
    for case in range(CASES):
        alg = algebra(INSTANCES[case % len(INSTANCES)])
        program = rand_nested_program(rng, alg)
        f = ExprWeighting(alg, rand_weighting_expr(rng, alg))
        sigma = rand_state(rng)
        engines = {"wp": lambda: Engine(alg, "wp", FUEL, budget),
                   "wlp": lambda: LiberalEngine(alg, FUEL, budget)}
        for direction, engine in engines.items():
            signal.alarm(ALARM_S)
            try:
                res = engine().run(program, f, sigma)
            except Timeout:
                yield case, direction, "timeout", None, None, None, None, None
                continue
            except Exception as exc:  # an error is an outcome to compare
                yield case, direction, type(exc).__name__, None, None, None, None, None
                continue
            finally:
                signal.alarm(0)
            yield (case, direction, "exact" if res.exact else "inexact", res.exact,
                   alg.format_value(res.value), res.iterations, res.touched_states,
                   res.evaluations)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                    help="the source tree whose src/ and tests/ to run "
                         "(default: the tree of this script)")
    ap.add_argument("--budget", type=int, default=10 ** 6, help="the node budget")
    args = ap.parse_args()
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "tests")]

    outcomes: dict[str, Counter] = {"wp": Counter(), "wlp": Counter()}
    answers, everything = hashlib.sha256(), hashlib.sha256()
    body_runs = mismatched = 0
    for record in records(args.budget):
        case, direction, outcome, exact, value, _, touched, evaluations = record
        outcomes[direction][outcome] += 1
        if evaluations is not None:
            body_runs += evaluations
            mismatched += evaluations != touched
        answer = [case, direction, outcome, exact, value if exact else None]
        answers.update(json.dumps(answer).encode() + b"\n")
        everything.update(json.dumps(record).encode() + b"\n")
    for direction, counts in outcomes.items():
        print(direction, ", ".join(f"{n} {outcome}" for outcome, n in sorted(counts.items())))
    print(f"body runs {body_runs}; evaluations != touched_states in {mismatched}")
    print(f"answers {answers.hexdigest()}")
    print(f"everything {everything.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
