"""Certificate-structure analysis of finite decision problems.

Partial strings generalize certificates: a string interspersed in a word
can force the word's acceptance, and the minimal such strings (the reduced
logogram) are the problem's irredundant certificate set. This package
computes reduced logograms over fixed-length slices, classifies their
strings as witnesses or wizards against a problem's solution regions,
checks independence and closure laws, and extracts the kernels of traced
decision programs.
"""

from .budget import Budget, BudgetExceededError
from .engine import (
    Antichain,
    GaloisReport,
    IndependenceReport,
    IrreducibilityReport,
    closure_ab_contains,
    closure_ba,
    entangles,
    in_logogram,
    internal_independence,
    irreducibility_report,
    is_closed,
    is_complete,
    is_irreducible,
    isoexpansive,
    reduced_logogram,
    simple_independence,
    strong_independence,
    verify_galois,
)
from .problems import (
    CnfShape,
    DegenerateProblemError,
    ProblemFormatError,
    ProblemSlice,
    composite_problem,
    connectivity_problem,
    formula_word,
    gamma,
    generic_problem,
    predicted_sat_logogram,
    sat_problem,
)
from .strings import (
    BINARY,
    BLANK,
    TERNARY,
    VOID,
    Alphabet,
    FormatError,
    IncompatibleStrings,
    PartialString,
    canonical_key,
    parse_string,
    sort_strings,
)
from .tracer import (
    DecisionProgram,
    KernelComparison,
    MalformedProgramError,
    ProbeTrace,
    ProgramFaultError,
    Verdict,
    backward_assignment_scan,
    built_in_programs,
    clause_first_scan,
    compare_kernels,
    forward_assignment_scan,
    justified,
    kernel,
    run_traced,
    trace_records,
)
from .universe import (
    DegenerateSliceError,
    Slice,
    enumerate_words,
    expand,
    extensions_in_e,
    full_slice,
    in_sigma_infinity,
)
from .wizardry import (
    Chart,
    ClassifiedLogogram,
    ClassifiedString,
    CoverReport,
    classify,
    cover,
    witness_union_complete,
)

__version__ = "0.1.0"
