"""Certificate-structure analysis of finite decision problems.

Partial strings generalize certificates: a string interspersed in a word
can force the word's acceptance, and the minimal such strings (the reduced
logogram) are the problem's irredundant certificate set. This package
computes reduced logograms over fixed-length slices, classifies their
strings as witnesses or wizards against a problem's solution regions,
checks independence and closure laws, and extracts the kernels of traced
decision programs.

Importing the package loads none of its submodules: each public name
loads the submodule defining it on first use, so a caller pays only for
the layers it runs.
"""

from importlib import import_module

# submodule -> the public names it defines
_EXPORTS = {
    "budget": ("Budget", "BudgetExceededError"),
    "engine": (
        "Antichain", "GaloisReport", "IndependenceReport", "IrreducibilityReport",
        "closure_ab_contains", "closure_ba", "entangles", "in_logogram",
        "internal_independence", "irreducibility_report", "is_closed", "is_complete",
        "isoexpansive", "reduced_logogram", "simple_independence", "strong_independence",
        "verify_galois"),
    "problems": (
        "CnfShape", "DegenerateProblemError", "ProblemFormatError", "ProblemSlice",
        "composite_problem", "connectivity_problem", "formula_word", "gamma",
        "generic_problem", "predicted_sat_logogram", "sat_problem"),
    "strings": (
        "BINARY", "BLANK", "TERNARY", "VOID", "Alphabet", "FormatError",
        "IncompatibleStrings", "PartialString"),
    "tracer": (
        "DecisionProgram", "MalformedProgramError", "ProgramFaultError",
        "backward_assignment_scan", "built_in_programs", "clause_first_scan",
        "forward_assignment_scan", "justified", "kernel"),
    "universe": (
        "DegenerateSliceError", "Slice", "expand"),
    "wizardry": (
        "Chart", "ClassifiedLogogram", "ClassifiedString", "CoverReport", "classify",
        "cover", "witness_union_complete"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Load a public name, or a submodule, on first use and keep it here."""
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
