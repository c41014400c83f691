"""Decision programs as sequences of position probes.

A decision program reads input positions one at a time and ends with a
verdict. The probes it made form a trace, and the probed restriction of
the input is the program's entire knowledge of it, so every verdict must
be justified by that restriction alone: an accept is justified when the
restriction already forces membership in the target, a reject when the
restriction has no accepted extension at all.

The kernel of a program is the set of reduced-logogram strings it actually
certifies with: those included in the probed restriction of some accepted
input. A correct, justified program always has a complete kernel, and when
the reduced logogram is irreducible every such program has the same one.

Programs are deterministic given the letters they observe, so every word
extending a trace's probed restriction runs through that same trace: the
kernel sweep runs a program once per distinct probe trace, on the lowest
word not yet covered, and settles the whole cylinder of the trace at once.

Three traced solvers for the clause encoding are built in; all probe
lazily and read each position at most once.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator

from .budget import Budget, BudgetExceededError
from .engine import Antichain, _log_probe, irreducibility_report
from .strings import PartialString


class Verdict(str, Enum):
    ACCEPT = "accept"
    REJECT = "reject"


class MalformedProgramError(RuntimeError):
    """The program broke the probe discipline (bad position, revisit)."""


class ProgramFaultError(RuntimeError):
    """A program was wrong or unjustified on a specific input."""

    def __init__(self, word_text: str, reason: str):
        super().__init__(f"on input {word_text!r}: {reason}")
        self.word_text = word_text
        self.reason = reason


@dataclass(frozen=True)
class ProbeTrace:
    """Ordered positions read during one run, with the observed letters and
    the final verdict."""

    probes: tuple[tuple[int, str], ...]
    verdict: Verdict


@dataclass(frozen=True)
class DecisionProgram:
    """A named decision procedure driven through a probe callback.

    ``decide`` receives a function position -> letter and returns the
    accept/reject outcome. It must be deterministic given the observed
    letters and must not read a position twice; the runner enforces the
    probe discipline.
    """

    name: str
    decide: Callable[[Callable[[int], str]], bool]


def _run(program: DecisionProgram, length: int,
         letter_at: Callable[[int], str]) -> ProbeTrace:
    """Run the program on the word whose letter at position p is
    ``letter_at(p)``, enforcing the probe discipline."""
    record: list[tuple[int, str]] = []
    seen: set[int] = set()

    def probe(position: int) -> str:
        if not isinstance(position, int) or not 1 <= position <= length:
            raise MalformedProgramError(
                f"{program.name}: probe outside positions 1..{length}: {position!r}")
        if position in seen:
            raise MalformedProgramError(
                f"{program.name}: position {position} probed twice")
        seen.add(position)
        letter = letter_at(position)
        record.append((position, letter))
        return letter

    accepted = program.decide(probe)
    return ProbeTrace(tuple(record), Verdict.ACCEPT if accepted else Verdict.REJECT)


def _packed_letters(slc, value: int) -> Callable[[int], str]:
    """Position -> letter of the packed word ``value``."""
    letters, k, ww = slc.alphabet.letters, len(slc.alphabet), slc._word_weights
    return lambda p: letters[value // ww[p - 1] % k]


def _trace_cylinder(trace: ProbeTrace, slc) -> int:
    index = slc.alphabet.letters.index
    return slc.cylinder(tuple((p, index(ch)) for p, ch in trace.probes))


def _justified(trace: ProbeTrace, cyl: int, problem) -> bool:
    if trace.verdict == Verdict.ACCEPT:
        return _log_probe(cyl, problem.slice.e_mask() & ~problem.f_mask())
    else:
        return not cyl & problem.f_mask()


def _certifier(elements: tuple[PartialString, ...],
               length: int) -> Callable[[ProbeTrace], int]:
    """Trace -> bitset of the elements included in its probed restriction.

    With one bitset per position of the elements blank there, and one per
    (position, letter) of those blank there or holding that letter, the
    elements inside a restriction are one AND per position.
    """
    everyone = (1 << len(elements)) - 1
    blank = [everyone] * length
    holding: list[dict[str, int]] = [{} for _ in range(length)]
    for j, g in enumerate(elements):
        for p, ch in g.pairs:
            blank[p - 1] &= ~(1 << j)
            holding[p - 1][ch] = holding[p - 1].get(ch, 0) | 1 << j
    allowed = [{ch: bits | b for ch, bits in row.items()}
               for row, b in zip(holding, blank)]

    def inside(trace: ProbeTrace) -> int:
        observed = dict(trace.probes)
        out = everyone
        for p in range(length):
            ch = observed.get(p + 1)
            out &= blank[p] if ch is None else allowed[p].get(ch, blank[p])
        return out

    return inside


def run_traced(program: DecisionProgram, word: PartialString, problem) -> ProbeTrace:
    """Run the program on one word of the slice and record its trace."""
    slc = problem.slice
    if not slc.contains(word):
        raise ValueError(f"{word!r} is not a word of the slice")
    return _run(program, slc.length, dict(word.pairs).__getitem__)


def justified(trace: ProbeTrace, word: PartialString, problem) -> bool:
    """Is the verdict forced by the probed restriction alone?

    Accepts need the restriction to force the target; rejects need the
    restriction to admit no accepted extension within the slice.
    """
    return _justified(trace, _trace_cylinder(trace, problem.slice), problem)


def kernel(program: DecisionProgram, problem,
           budget: Budget | None = None) -> Antichain:
    """The reduced-logogram strings the program actually certifies with.

    Covers every word of the slice, running the program once per distinct
    probe trace: on the lowest word not yet covered, after which every word
    extending the trace's probed restriction is covered too, since a
    program is deterministic given the letters it observes. The program
    must be correct and justified throughout, otherwise the offending input
    is reported. Traces are met in order of their lowest word and a fault
    taints its whole trace, so the input reported is the first faulty word
    in canonical order.
    """
    budget = budget or Budget.default()
    meter = budget.start(f"kernel sweep: {program.name}")
    log = problem.logogram(meter=meter)
    slc = problem.slice
    f = problem.f_mask()
    inside = _certifier(log.elements, slc.length)
    used = 0
    uncovered = slc.e_mask()
    while uncovered:
        i = (uncovered & -uncovered).bit_length() - 1
        if meter.out_of_time():
            raise BudgetExceededError(
                f"kernel sweep for {program.name}: out of time at word {i}")
        trace = _run(program, slc.length, _packed_letters(slc, i))
        cyl = _trace_cylinder(trace, slc)
        uncovered &= ~cyl
        accepted = trace.verdict == Verdict.ACCEPT
        if accepted != bool(f >> i & 1):
            raise ProgramFaultError(slc.text_of_int(i),
                                    f"{program.name} gave the wrong verdict")
        if not _justified(trace, cyl, problem):
            raise ProgramFaultError(slc.text_of_int(i),
                                    f"{program.name} was not justified in its {trace.verdict.value}")
        if accepted:
            used |= inside(trace)
    return Antichain.of((g for j, g in enumerate(log.elements) if used >> j & 1),
                        slc.alphabet)


@dataclass(frozen=True)
class KernelComparison:
    problem_label: str
    length: int
    names: tuple[str, str]
    kernels: tuple[Antichain, Antichain]
    equal: bool
    logogram_irreducible: bool

    def to_json_dict(self) -> dict:
        return {
            "problem": self.problem_label,
            "programs": list(self.names),
            "kernels": {name: k.texts(self.length)
                        for name, k in zip(self.names, self.kernels)},
            "equal": self.equal,
            "logogram_irreducible": self.logogram_irreducible,
        }


def compare_kernels(first: DecisionProgram, second: DecisionProgram, problem,
                    budget: Budget | None = None) -> KernelComparison:
    """Kernels of two programs side by side, with the irreducibility of the
    reduced logogram (the hypothesis under which they must coincide)."""
    ka = kernel(first, problem, budget)
    kb = kernel(second, problem, budget)
    log = problem.logogram(budget)
    report = irreducibility_report(log.elements, problem, budget)
    return KernelComparison(
        problem_label=problem.label, length=problem.slice.length,
        names=(first.name, second.name), kernels=(ka, kb),
        equal=ka.elements == kb.elements,
        logogram_irreducible=report.irreducible)


def trace_records(program: DecisionProgram, problem,
                  budget: Budget | None = None) -> Iterator[dict]:
    """JSON-ready trace dump, one record per input word. The clock is
    checked once per word."""
    budget = budget or Budget.default()
    meter = budget.start(f"trace dump: {program.name}")
    log = problem.logogram(meter=meter)
    slc = problem.slice
    inside = _certifier(log.elements, slc.length)
    for i in slc.word_ints():
        if meter.out_of_time():
            raise BudgetExceededError(
                f"trace dump for {program.name}: out of time at word {slc.text_of_int(i)!r}")
        trace = _run(program, slc.length, _packed_letters(slc, i))
        certifying = []
        if trace.verdict == Verdict.ACCEPT:
            bits = inside(trace)
            certifying = [g.render(slc.length) for j, g in enumerate(log.elements)
                          if bits >> j & 1]
        yield {
            "input": slc.text_of_int(i),
            "probes": [[p, ch] for p, ch in trace.probes],
            "verdict": trace.verdict.value,
            "justified": _justified(trace, _trace_cylinder(trace, slc), problem),
            "certifying_strings": certifying,
        }


# -- built-in traced solvers for the clause encoding ----------------------


def _require_shape(problem):
    shape = getattr(problem, "cnf_shape", None)
    if shape is None:
        raise ValueError("built-in traced solvers run on clause-encoding problems")
    return shape


def _assignment_scan(problem, name: str, backward: bool) -> DecisionProgram:
    shape = _require_shape(problem)
    n, m = shape.var_count, shape.clause_count
    assignments = tuple(reversed(problem.solutions)) if backward else problem.solutions

    def decide(probe):
        known: dict[int, str] = {}

        def look(p: int) -> str:
            ch = known.get(p)
            if ch is None:
                ch = known[p] = probe(p)
            return ch

        for bits in assignments:
            satisfied = True
            for c in range(m):
                base = c * n
                for v in range(n):
                    ch = look(base + v + 1)
                    if (ch == "1" and bits[v]) or (ch == "2" and not bits[v]):
                        break
                else:
                    satisfied = False
                    break
            if satisfied:
                return True
        return False

    return DecisionProgram(name, decide)


def forward_assignment_scan(problem) -> DecisionProgram:
    """Try each assignment in solution order, verifying clause by clause and
    probing clause positions left to right until a satisfying literal turns
    up; accept on the first assignment that survives every clause."""
    return _assignment_scan(problem, "forward-assignment-scan", backward=False)


def backward_assignment_scan(problem) -> DecisionProgram:
    """The same scan with the assignments tried in reverse order."""
    return _assignment_scan(problem, "backward-assignment-scan", backward=True)


def clause_first_scan(problem) -> DecisionProgram:
    """Probe whole clause blocks in order, keeping the set of assignments
    that satisfy everything probed so far; reject as soon as it empties,
    accept once every block has been read with survivors left.

    The assignments are bits of a mask, with one mask per (variable, slot
    code) of the assignments that code makes true there: a block keeps the
    viable assignments ANDed with the OR of its slots' masks.
    """
    shape = _require_shape(problem)
    n, m = shape.var_count, shape.clause_count
    makes_true: list[dict[str, int]] = [{} for _ in range(n)]
    for j, bits in enumerate(problem.solutions):
        for v in range(n):
            code = "1" if bits[v] else "2"
            makes_true[v][code] = makes_true[v].get(code, 0) | 1 << j
    everyone = (1 << len(problem.solutions)) - 1

    def decide(probe):
        viable = everyone
        for c in range(m):
            base = c * n
            block = 0
            for v in range(n):
                block |= makes_true[v].get(probe(base + v + 1), 0)
            viable &= block
            if not viable:
                return False
        return True

    return DecisionProgram("clause-first-scan", decide)


def built_in_programs(problem) -> tuple[DecisionProgram, ...]:
    return (forward_assignment_scan(problem),
            backward_assignment_scan(problem),
            clause_first_scan(problem))
