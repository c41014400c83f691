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
lowest word not yet covered: :func:`kernel` folds it into the certifying
strings and, when asked, streams it out as the trace dump, whose per-word
records share one body across a cylinder. The walk's probe callback
enforces the probe discipline and records each probe's (position, letter
index) pair and the letter index per position; once the program returns,
the trace's cylinder is built from the pairs, and the certifying strings
are one AND per position of the letters (:func:`logogram.universe.member_rows`).

Three traced solvers for the clause encoding are built in; all probe
lazily and read each position at most once.
"""

from __future__ import annotations

import json
from enum import Enum
from typing import Callable, Iterator, NamedTuple, TextIO

from .budget import Budget, Meter
from .engine import Antichain
from .strings import PartialString
from .universe import holds, lowest, member_rows, members_inside, set_bits


class Verdict(str, Enum):
    ACCEPT = "accept"
    REJECT = "reject"


_VERDICTS = (Verdict.REJECT, Verdict.ACCEPT)  # indexed by accepted


class MalformedProgramError(RuntimeError):
    """The program broke the probe discipline (bad position, revisit)."""


class ProgramFaultError(RuntimeError):
    """A program was wrong or unjustified on a specific input, or certified
    its accept with no member of the reduced logogram given to the sweep."""

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


def _justified(accepted: bool, cyl: int, f: int) -> bool:
    """A restriction's non-empty cylinder justifies an accept when it lies
    in the target ``f``, a reject when it misses it."""
    return (cyl & f) == cyl if accepted else not cyl & f


def justified(trace: ProbeTrace, word: PartialString, problem) -> bool:
    """Is the verdict forced by the probed restriction alone?

    Accepts need the restriction to force the target; rejects need the
    restriction to admit no accepted extension within the slice. Raises
    ``ValueError`` unless the word is a word of the slice that agrees with
    every probe.
    """
    slc = problem.slice
    restriction = PartialString(trace.probes)
    if slc.stray(slc.mask_of_words([word])) is not None or not word >= restriction:
        raise ValueError(f"{trace.probes!r} are not probes of a word of the slice: {word!r}")
    cyl = slc.cylinder(slc.pairs_of(restriction))
    return _justified(trace.verdict == Verdict.ACCEPT, cyl, problem.f_mask())


def _walk(program: DecisionProgram, problem, log: Antichain, meter: Meter | None = None):
    """The one loop that runs a program across the slice: once per distinct
    probe trace, on the lowest word not yet covered, which covers every word
    extending the trace's probed restriction. Yields per run the word, the
    cylinder, the verdict, whether the restriction justifies it, the probes
    as (position, letter index) pairs in probe order and, as bits, the
    members of ``log`` an accepting restriction includes; a justified accept
    that includes none raises :class:`ProgramFaultError`, as the search
    missed a member. Given a meter, it reads the clock before each run."""
    slc, f = problem.slice, problem.f_mask()
    name, length, decide = program.name, slc.length, program.decide
    letters = slc.alphabet.letters
    k = len(letters)
    rows = member_rows(log.pairs, k, length)
    uncovered = slc.cylinder(())
    while uncovered:
        i = lowest(uncovered)
        if meter is not None:
            meter.check(lambda: f"at word {slc.text_of_int(i)!r}")
        digits = slc.letters_of(i)
        pairs: list[tuple[int, int]] = []
        index = [k] * length  # k marks a position not probed

        def probe(position: int) -> str:
            if not isinstance(position, int) or not 1 <= position <= length:
                raise MalformedProgramError(
                    f"{name}: probe outside positions 1..{length}: {position!r}")
            p = position - 1
            if index[p] != k:
                raise MalformedProgramError(f"{name}: position {position} probed twice")
            d = index[p] = digits[p]
            pairs.append((position, d))
            return letters[d]

        accepted = bool(decide(probe))
        cyl = slc.cylinder(pairs)
        uncovered &= ~cyl
        just = _justified(accepted, cyl, f)
        bits = members_inside(rows, index) if accepted else 0
        if accepted and just and not bits:  # a justified accept's restriction is in the logogram
            raise ProgramFaultError(slc.text_of_int(i), f"{name} accepted on probes "
                                    "that include no reduced-logogram member")
        yield i, cyl, accepted, just, pairs, bits


def kernel(program: DecisionProgram, problem, budget: Budget | None = None,
           dump: TextIO | None = None) -> Antichain:
    """The reduced-logogram strings the program actually certifies with.

    Walks the slice, reading the clock once per trace. The program must be
    correct and justified throughout, and each accepting restriction, being
    in the logogram, must include a member of ``problem.logogram()``, else
    the search missed one: traces are met in order of their lowest word and
    a fault taints its whole trace, so the input reported is the first
    faulty word in canonical order. Given a writable text stream as
    ``dump``, it also writes there the program's trace dump, one JSON line
    per input word as :func:`trace_records` gives them with the program's
    name added, while it walks: dumping costs no second walk, and the clock
    is read once per word instead."""
    meter = (budget or Budget.default()).start(f"kernel sweep: {program.name}")
    log = problem.logogram(meter=meter)
    slc, f = problem.slice, problem.f_mask()
    used = 0

    def checked():
        nonlocal used
        for run in _walk(program, problem, log, meter if dump is None else None):
            i, _, accepted, just, *_, bits = run
            # word i lies in its own cylinder, so a justified verdict is right
            if not just:
                reason = ("gave the wrong verdict" if accepted != holds(f, i)
                          else f"was not justified in its {_VERDICTS[accepted].value}")
                raise ProgramFaultError(slc.text_of_int(i), f"{program.name} {reason}")
            used |= bits
            yield run

    if dump is None:
        for _ in checked():
            pass
    else:
        dump.writelines(json.dumps({"program": program.name, **record}, sort_keys=True) + "\n"
                        for record in _records(slc, log.texts(slc.length), checked(), meter))
    return Antichain(tuple(log.pairs[j] for j in set_bits(used)), log.alphabet)


def _records(slc, texts: list[str], runs, meter: Meter) -> Iterator[dict]:
    """Per-word records in word order, reading the clock once per word, from
    the walk's runs, drawn as the words need them. The words a run's
    cylinder covers share one record body."""
    pending: dict[int, dict] = {}  # covered words not yet dumped -> body
    for i in slc.word_ints():
        meter.check(lambda: f"at word {slc.text_of_int(i)!r}")
        if i not in pending:  # the walk's next run is on the lowest word left
            _, cyl, accepted, just, pairs, bits = next(runs)
            pending.update(dict.fromkeys(set_bits(cyl), {
                "probes": [[p, slc.alphabet.letters[d]] for p, d in pairs],
                "verdict": _VERDICTS[accepted].value, "justified": just,
                "certifying_strings": [texts[j] for j in set_bits(bits)]}))
        yield {"input": slc.text_of_int(i), **pending.pop(i)}


def trace_records(program: DecisionProgram, problem,
                  budget: Budget | None = None) -> Iterator[dict]:
    """JSON-ready trace dump, one record per input word, in word order, from
    one walk of the slice; program faults are recorded, not raised, but a
    missed logogram member raises as in :func:`kernel`."""
    meter = (budget or Budget.default()).start(f"trace dump: {program.name}")
    log = problem.logogram(meter=meter)
    yield from _records(problem.slice, log.texts(problem.slice.length),
                        _walk(program, problem, log), meter)


# -- built-in traced solvers for the clause encoding ----------------------


def _require_shape(problem):
    shape = getattr(problem, "cnf_shape", None)
    if shape is None:
        raise ValueError("built-in traced solvers run on clause-encoding problems")
    return shape


def _assignment_scan(problem, name: str, backward: bool) -> DecisionProgram:
    shape = _require_shape(problem)
    assignments = tuple(reversed(problem.solutions)) if backward else problem.solutions
    # per assignment, per clause: each slot's position with the letter that
    # makes its literal true under the assignment
    checks = tuple(map(shape.true_literals, assignments))
    slots = shape.length + 1

    def decide(probe):
        known: list[str | None] = [None] * slots
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

    The assignments are bits of a mask, with one mask per (position, slot
    code) of the assignments that code makes true there: a block keeps the
    viable assignments ANDed with the OR of its slots' masks.
    """
    shape = _require_shape(problem)
    makes_true: dict[int, dict[str, int]] = {}
    for j, bits in enumerate(problem.solutions):
        for clause in shape.true_literals(bits):
            for p, code in clause:
                masks = makes_true.setdefault(p, {})
                masks[code] = masks.get(code, 0) | 1 << j
    blocks = tuple(tuple((p, makes_true[p]) for p, _ in clause)  # slots in probe order
                   for clause in shape.true_literals(problem.solutions[0]))
    everyone = (1 << len(problem.solutions)) - 1

    def decide(probe):
        viable = everyone
        for slots in blocks:
            block = 0
            for p, masks in slots:
                block |= masks.get(probe(p), 0)
            viable &= block
            if not viable:
                return False
        return True

    return DecisionProgram("clause-first-scan", decide)


def built_in_programs(problem) -> tuple[DecisionProgram, ...]:
    return (forward_assignment_scan(problem),
            backward_assignment_scan(problem),
            clause_first_scan(problem))
