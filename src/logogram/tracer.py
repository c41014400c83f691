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
extending a trace's probed restriction runs through that same trace. One
walk runs a program across a slice, once per distinct probe trace on the
lowest word not yet covered: the kernel sweep folds it, and the trace dump
expands it to per-word records that share one body across a cylinder. The
runner's probe callback enforces the probe discipline and builds the trace
while probing: it reads each letter from the packed word, ANDs the
(position, letter) mask into the trace's cylinder and records the letter
index per position, from which the certifying strings are one AND per
position (:func:`logogram.universe.member_rows`).

Three traced solvers for the clause encoding are built in; all probe
lazily and read each position at most once.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Iterator, NamedTuple

from .budget import Budget, BudgetExceededError, Meter
from .engine import Antichain
from .strings import PartialString
from .universe import member_rows, members_inside, set_bits


class Verdict(str, Enum):
    ACCEPT = "accept"
    REJECT = "reject"


_VERDICTS = (Verdict.REJECT, Verdict.ACCEPT)  # indexed by accepted


class MalformedProgramError(RuntimeError):
    """The program broke the probe discipline (bad position, revisit)."""


class ProgramFaultError(RuntimeError):
    """A program was wrong or unjustified on a specific input."""

    def __init__(self, word_text: str, reason: str):
        super().__init__(f"on input {word_text!r}: {reason}")
        self.word_text = word_text
        self.reason = reason


class ProbeTrace(NamedTuple):
    """Ordered positions read during one run, with the observed letters and
    the final verdict."""

    probes: tuple[tuple[int, str], ...]
    verdict: Verdict


class DecisionProgram(NamedTuple):
    """A named decision procedure driven through a probe callback.

    ``decide`` receives a function position -> letter and returns the
    accept/reject outcome. It must be deterministic given the observed
    letters and must not read a position twice; the runner enforces the
    probe discipline.
    """

    name: str
    decide: Callable[[Callable[[int], str]], bool]


def _runner(program: DecisionProgram, slc):
    """Packed word -> (accepted, cylinder, probed positions, letter indices)
    of one run of the program on that word of the slice; ``k``, the
    alphabet size, marks a position not probed."""
    name, length, decide = program.name, slc.length, program.decide
    letters = slc.alphabet.letters
    k, weights, masks, e = len(letters), slc._word_weights, slc.position_masks(), slc.e_mask()

    def run(value: int) -> tuple[bool, int, list[int], list[int]]:
        order: list[int] = []
        index = [k] * length
        cyl = e

        def probe(position: int) -> str:
            nonlocal cyl
            if not isinstance(position, int) or not 1 <= position <= length:
                raise MalformedProgramError(
                    f"{name}: probe outside positions 1..{length}: {position!r}")
            p = position - 1
            if index[p] != k:
                raise MalformedProgramError(f"{name}: position {position} probed twice")
            d = index[p] = value // weights[p] % k
            cyl &= masks[p][d]
            order.append(position)
            return letters[d]

        accepted = bool(decide(probe))
        return accepted, cyl, order, index

    return run


def _justified(accepted: bool, cyl: int, f: int) -> bool:
    """A restriction's non-empty cylinder justifies an accept when it lies
    in the target ``f``, a reject when it misses it."""
    return (cyl & f) == cyl if accepted else not cyl & f


def run_traced(program: DecisionProgram, word: PartialString, problem) -> ProbeTrace:
    """Run the program on one word of the slice and record its trace."""
    slc = problem.slice
    if not slc.contains(word):
        raise ValueError(f"{word!r} is not a word of the slice")
    accepted, _, order, index = _runner(program, slc)(slc.int_of_word(word))
    letters = slc.alphabet.letters
    return ProbeTrace(tuple((p, letters[index[p - 1]]) for p in order), _VERDICTS[accepted])


def justified(trace: ProbeTrace, word: PartialString, problem) -> bool:
    """Is the verdict forced by the probed restriction alone?

    Accepts need the restriction to force the target; rejects need the
    restriction to admit no accepted extension within the slice. Raises
    ``ValueError`` unless the word is a word of the slice that agrees with
    every probe.
    """
    slc = problem.slice
    restriction = PartialString(trace.probes)
    if not (slc.contains(word) and word >= restriction):
        raise ValueError(f"{trace.probes!r} are not probes of a word of the slice: {word!r}")
    cyl = slc.cylinder(slc.pairs_of(restriction))
    return _justified(trace.verdict == Verdict.ACCEPT, cyl, problem.f_mask())


def _walk(program: DecisionProgram, problem, log: Antichain, meter: Meter | None = None):
    """The one loop that runs a program across the slice: once per distinct
    probe trace, on the lowest word not yet covered, which covers every word
    extending the trace's probed restriction. Yields per run the word, the
    cylinder, the verdict, whether the restriction justifies it, the probed
    positions, the letter indices and, as bits, the members of ``log`` an
    accepting restriction includes. Given a meter, it reads the clock before
    each run."""
    slc, f = problem.slice, problem.f_mask()
    rows = member_rows(log.pairs, len(slc.alphabet), slc.length)
    run = _runner(program, slc)
    uncovered = slc.e_mask()
    while uncovered:
        i = (uncovered & -uncovered).bit_length() - 1
        if meter is not None and meter.out_of_time():
            raise BudgetExceededError(
                f"kernel sweep for {program.name}: out of time at word {slc.text_of_int(i)!r}")
        accepted, cyl, order, index = run(i)
        uncovered &= ~cyl
        yield (i, cyl, accepted, _justified(accepted, cyl, f), order, index,
               members_inside(rows, index) if accepted else 0)


def _sweep(program: DecisionProgram, problem, budget: Budget | None,
           dump: list | None = None) -> Antichain:
    """:func:`kernel`, also appending each trace to ``dump`` when given."""
    meter = (budget or Budget.default()).start(f"kernel sweep: {program.name}")
    log = problem.logogram(meter=meter)
    slc, f = problem.slice, problem.f_mask()
    used = 0
    for i, cyl, accepted, just, order, index, bits in _walk(program, problem, log, meter):
        if accepted != bool(f >> i & 1):
            raise ProgramFaultError(slc.text_of_int(i), f"{program.name} gave the wrong verdict")
        if not just:
            raise ProgramFaultError(slc.text_of_int(i), f"{program.name} was not "
                                    f"justified in its {_VERDICTS[accepted].value}")
        used |= bits
        if dump is not None:
            dump.append((tuple(set_bits(cyl)), accepted, just, order, index, bits))
    return Antichain(tuple(log.pairs[j] for j in set_bits(used)), log.alphabet)


def kernel(program: DecisionProgram, problem,
           budget: Budget | None = None) -> Antichain:
    """The reduced-logogram strings the program actually certifies with.

    Walks the slice, reading the clock once per trace. The program must be
    correct and justified throughout: traces are met in order of their
    lowest word and a fault taints its whole trace, so the input reported is
    the first faulty word in canonical order."""
    return _sweep(program, problem, budget)


def _records(name: str, slc, texts: list[str], traces, meter: Meter) -> Iterator[dict]:
    """Per-word records in word order, reading the clock once per word, from
    the walk's traces with their covered words in place of the word and
    cylinder. The words of a trace share one record body."""
    pending: dict[int, dict] = {}  # covered words not yet dumped -> body
    for i in slc.word_ints():
        if meter.out_of_time():
            raise BudgetExceededError(
                f"trace dump for {name}: out of time at word {slc.text_of_int(i)!r}")
        if i not in pending:  # the walk's next run is on the lowest word left
            covered, accepted, just, order, index, bits = next(traces)
            pending.update(dict.fromkeys(covered, {
                "probes": [[p, slc.alphabet.letters[index[p - 1]]] for p in order],
                "verdict": _VERDICTS[accepted].value, "justified": just,
                "certifying_strings": [texts[j] for j in set_bits(bits)]}))
        yield {"input": slc.text_of_int(i), **pending.pop(i)}


def trace_records(program: DecisionProgram, problem,
                  budget: Budget | None = None) -> Iterator[dict]:
    """JSON-ready trace dump, one record per input word, in word order, from
    one walk of the slice; faults are recorded, not raised."""
    meter = (budget or Budget.default()).start(f"trace dump: {program.name}")
    log = problem.logogram(meter=meter)
    yield from _records(program.name, problem.slice, log.texts(problem.slice.length), (
        (set_bits(cyl), *run) for _, cyl, *run in _walk(program, problem, log)), meter)


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
    # per assignment, per clause: each slot's position with the letter that
    # makes its literal true under the assignment
    checks = tuple(
        tuple(tuple((c * n + v + 1, "1" if bits[v] else "2") for v in range(n))
              for c in range(m))
        for bits in assignments)

    def decide(probe):
        known: list[str | None] = [None] * (n * m + 1)
        for clauses in checks:
            for clause in clauses:
                for p, true_letter in clause:
                    ch = known[p]
                    if ch is None:
                        ch = known[p] = probe(p)
                    if ch == true_letter:
                        break
                else:
                    break
            else:
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
