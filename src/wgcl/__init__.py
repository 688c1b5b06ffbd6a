"""wgcl: weighted guarded-command programs.

Parse programs over a chosen weight algebra, run their small-step
semantics, compute weakest (liberal) preweightings, and check loop
invariants against characteristic functions.
"""

from importlib import resources
from pathlib import Path

from .algebra import (
    Algebra, AlgebraError, EmbedError, INF, MismatchError, ModuleValue,
    NEG_INF, NoTopError, OmegaValue, Weight, algebra, canonical_lasso,
    make_omega, mod_add, mon_mul, nat_leq, scalar_mul,
)
from .syntax import (
    ExprWeighting, FnWeighting, State, TableWeighting, Weighting,
    compile_program, eval_arith, eval_bool, eval_weight, eval_weighting, fib,
    print_program,
)
from .parser import (
    ParseError, ParsedProgram, parse_grid, parse_program, parse_state,
    parse_weighting,
)
from .operational import (
    BudgetError, DivergenceError, PathReport, TERMINATED, build_quotient,
    certainly_terminates, diverging_weights, enumerate_paths, olp_oracle,
    op_oracle, successors, uct_check,
)
from .transformer import (
    CertificationError, Engine, LiberalEngine, NotALoopError, TransformResult,
    apply_char_fn, as_weighting, char_fn, check_decomposition, check_fixed_point,
    check_subinvariant, check_superinvariant, wlp_eval, wp_eval,
)

__version__ = "0.1.0"


def example_path(name: str) -> Path:
    """Path of a bundled example program (`ex49`, `ski_nd.wgcl`, ...)."""
    if not name.endswith(".wgcl"):
        name += ".wgcl"
    path = resources.files(__package__) / "examples" / name
    if not path.is_file():
        raise FileNotFoundError(f"no bundled example {name!r}")
    return Path(str(path))


def load_example(name: str) -> ParsedProgram:
    return parse_program(example_path(name).read_text(encoding="utf-8"))
