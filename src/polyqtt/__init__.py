"""Two polytime dependently typed calculi, end to end: parsing, usage
checking, compilation to a step-counted machine, and extraction of
polynomial step bounds that the runs are verified against.

The package splits along the pipeline:

- ``machine``: the untyped call-by-value machine with exact step costs
  and the canonical encodings of observable data.
- ``potentials``: natural-coefficient polynomials, which the compiler
  costs code with.
- ``syntax`` and ``kernel``: the quantitative calculus, its two
  regimes, and the bidirectional type/usage checker with normalisation.
- ``compiler``: ``load``, from source text to checked declarations, and
  their translation to machine code with polynomial potentials.
- ``frontend``: concrete syntax, name resolution, pretty printing.
- ``cli``: the ``polyqtt`` command (check / run / bound / verify).
"""

from .compiler import (
    BoundReport,
    CompiledProgram,
    Module,
    RunResult,
    extract_bound,
    load,
    run_and_verify,
)
from .frontend import (
    Diagnostic,
    FrontendError,
    parse_module,
    pretty_term,
    pretty_type,
    resolve_module,
)
from .kernel import (
    CheckError,
    check_type,
    conv_type,
    normalize_sigma0,
    types_equal,
)
from .machine import (
    Done,
    EvalOutcome,
    OutOfFuel,
    Stuck,
    decode_bool,
    decode_list,
    decode_nat,
    encode_list,
    eval_expr,
    nat_value,
)
from .potentials import Poly
from .syntax import Regime

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CheckError",
    "CompiledProgram",
    "Diagnostic",
    "Done",
    "EvalOutcome",
    "FrontendError",
    "Module",
    "OutOfFuel",
    "Poly",
    "Regime",
    "RunResult",
    "Stuck",
    "check_type",
    "conv_type",
    "decode_bool",
    "decode_list",
    "decode_nat",
    "encode_list",
    "eval_expr",
    "extract_bound",
    "load",
    "nat_value",
    "normalize_sigma0",
    "parse_module",
    "pretty_term",
    "pretty_type",
    "resolve_module",
    "run_and_verify",
    "types_equal",
]
