"""In-memory tracer that wraps the package's public functions from outside.

Coarse layer boundaries record spans (name, start, end, parent span,
command id).  Hot functions only count calls and add up their time.  Every
wrapped call, span or not, keeps its children's time apart, so each group
reports self time: its own duration minus that of the wrapped calls nested
inside it.  A function is wrapped in every module namespace that binds it
(`cli.wlp_eval` as well as `transformer.wlp_eval`), so calls through any
binding are seen.  Nothing is written while the commands run; the caller
reads `report()` afterwards.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import time

PACKAGE = "wgcl"
MODULES = ("cli", "parser", "syntax", "algebra", "operational", "transformer")

# group -> functions, as (module, qualified name); spans at layer boundaries
SPANS = {
    "cli.main": [("cli", "main")],
    "parser.parse_program": [("parser", "parse_program")],
    "transformer.run": [("transformer", "Engine.run")],
    "transformer.wp_eval": [("transformer", "wp_eval")],
    "transformer.wlp_eval": [("transformer", "wlp_eval")],
    "transformer.check": [("transformer", "check_superinvariant"),
                          ("transformer", "check_subinvariant"),
                          ("transformer", "check_fixed_point"),
                          ("transformer", "check_decomposition")],
    "transformer.apply_char_fn": [("transformer", "apply_char_fn")],
    "operational.build_quotient": [("operational", "build_quotient")],
    "operational.uct_check": [("operational", "uct_check")],
    "operational.diverging_weights": [("operational", "diverging_weights")],
    "operational.op_oracle": [("operational", "op_oracle")],
    "operational.olp_oracle": [("operational", "olp_oracle")],
    "operational.enumerate_paths": [("operational", "enumerate_paths")],
}
HOT = {
    "operational.successors": [("operational", "successors")],
    "syntax.eval": [("syntax", "eval_arith"), ("syntax", "eval_bool"),
                    ("syntax", "eval_weight"), ("syntax", "eval_weighting")],
    "syntax.state_set": [("syntax", "State.set")],
    "algebra.ops": [("algebra", "Algebra.mod_add"), ("algebra", "Algebra.scalar_mul"),
                    ("algebra", "Algebra.mon_mul"), ("algebra", "Algebra.nat_leq")],
    "parser.parse_weighting": [("parser", "parse_weighting")],
    "transformer.engines_built": [("transformer", "Engine.__init__")],
}


def count_ast_nodes(root) -> int:
    """Dataclass nodes reachable from `root` (statements and expressions)."""
    count = 0
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, tuple):
            stack.extend(node)
        elif dataclasses.is_dataclass(node) and not isinstance(node, type):
            count += 1
            stack.extend(getattr(node, f.name) for f in dataclasses.fields(node))
    return count


class Tracer:
    def __init__(self):
        self.budget_error = importlib.import_module(f"{PACKAGE}.operational").BudgetError
        self.origin = time.perf_counter()
        self.command = -1
        self.stack: list[list[float]] = []  # children's time, one cell per open call
        self.open_spans: list[int] = []
        self.spans: list = []
        self.stats = {group: [0, 0.0] for group in (*SPANS, *HOT)}
        self.counters = {"passes": 0, "touched_states": 0, "inexact_runs": 0,
                         "quotient_nodes": 0, "budget_errors": 0}
        self.parsed: list = []
        self._undo: list = []

    # -- result hooks, run after the call's clock has stopped ---------------
    def _after_run(self, result):
        self.counters["passes"] += result.iterations
        self.counters["touched_states"] += result.touched_states
        self.counters["inexact_runs"] += not result.exact

    def _after_quotient(self, graph):
        self.counters["quotient_nodes"] += len(graph)

    def _after_parse(self, parsed):
        self.parsed.append(parsed.program)

    def _wrap(self, fn, group: str, span: bool, after):
        stat = self.stats[group]
        stack, open_spans, spans = self.stack, self.open_spans, self.spans
        budget_error = self.budget_error
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            if span:
                parent = open_spans[-1] if open_spans else None
                sid = len(spans)
                spans.append(None)
                open_spans.append(sid)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except budget_error as exc:
                if not getattr(exc, "_traced", False):
                    exc._traced = True
                    tracer.counters["budget_errors"] += 1
                raise
            finally:
                end = perf()
                elapsed = end - start
                stack.pop()
                stat[0] += 1
                stat[1] += elapsed - cell[0]
                if stack:
                    stack[-1][0] += elapsed
                if span:
                    open_spans.pop()
                    spans[sid] = (sid, group, tracer.command, parent,
                                  start - tracer.origin, end - tracer.origin)
            if after is not None:
                after(result)
            return result

        return wrapper

    def install(self):
        afters = {"transformer.run": self._after_run,
                  "operational.build_quotient": self._after_quotient,
                  "parser.parse_program": self._after_parse}
        namespaces = [importlib.import_module(name)
                      for name in (PACKAGE, *(f"{PACKAGE}.{m}" for m in MODULES))]
        for table, span in ((SPANS, True), (HOT, False)):
            for group, targets in table.items():
                for module, qualname in targets:
                    owner = importlib.import_module(f"{PACKAGE}.{module}")
                    *cls_path, name = qualname.split(".")
                    for part in cls_path:
                        owner = getattr(owner, part)
                    original = owner.__dict__[name]
                    wrapper = self._wrap(original, group, span, afters.get(group))
                    if cls_path:
                        self._bind(owner, name, original, wrapper)
                        continue
                    for ns in namespaces:
                        for attr, value in list(vars(ns).items()):
                            if value is original:
                                self._bind(ns, attr, original, wrapper)

    def _bind(self, owner, name, original, wrapper):
        setattr(owner, name, wrapper)
        self._undo.append((owner, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def report(self) -> dict:
        return {
            "stats": self.stats,
            "counters": {**self.counters,
                         "ast_nodes": sum(count_ast_nodes(p) for p in self.parsed)},
            "spans": self.spans,
        }
