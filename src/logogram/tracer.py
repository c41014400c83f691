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

Programs are deterministic given the letters they observe, so the runs of a
program are the leaves of its decision tree, whose restrictions partition
E. One walk, depth first over that tree pruned to E, runs a program once
per leaf: :func:`kernel` folds it into the certifying strings and, when
asked, streams it out as the trace dump, whose per-word records share one
body across a leaf. A node splits F and E∖F on its path by its letter
(:meth:`logogram.universe.Slice.branches`), so a leaf is justified by a zero
test, and its certifying strings are one AND per position of its letters.

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
_MISSED = "accepted on probes that include no reduced-logogram member"


class MalformedProgramError(RuntimeError):
    """The program broke the probe discipline (bad position, revisit, nondeterminism)."""


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


def justified(trace: ProbeTrace, word: PartialString, problem) -> bool:
    """Is the verdict forced by the probed restriction alone?

    Accepts need the restriction to force the target; rejects need the
    restriction to admit no accepted extension within the slice. Raises
    ``ValueError`` unless the word is a word of the slice that agrees with
    every probe.
    """
    slc, f = problem.slice, problem.f_mask()
    restriction = PartialString(trace.probes)
    if slc.stray(slc.mask_of_words([word])) is not None or not word >= restriction:
        raise ValueError(f"{trace.probes!r} are not probes of a word of the slice: {word!r}")
    cyl = slc.cylinder(slc.pairs_of(restriction))
    return (cyl & f) == cyl if trace.verdict == Verdict.ACCEPT else not cyl & f


def _walk(program: DecisionProgram, problem, log: Antichain, meter: Meter | None = None):
    """The one loop that runs a program across the slice, once per leaf: a run
    replays the path to the node last advanced, a new node takes its lowest
    letter whose branch meets E, and then the deepest node with a later such
    letter takes it, like an odometer. Yields per leaf F and E∖F on its path,
    the verdict, whether the path justifies it, the path's (position, letter
    index) pairs, valid until the next run, and as bits the members of
    ``log`` an accept includes. Given a meter, it reads the clock per run."""
    slc, f = problem.slice, problem.f_mask()
    name, length, decide, branches = program.name, slc.length, program.decide, slc.branches
    letters, k = slc.alphabet.letters, len(slc.alphabet)
    rows = member_rows(log.pairs, k, length)
    index = [k] * length  # letter index per position on the path, k where open
    path, later = [], []  # per depth: (position, letter index), and the letters left
    masks = [(f, slc.complement(f))]  # F and E∖F on the path, per depth

    def probe(position: int) -> str:
        for p, d in replay:  # the path's next step, with no mask work
            if position != p or position is True:  # True == 1
                raise MalformedProgramError(f"{name}: nondeterministic: probed {position!r} "
                                            f"where a run on the same letters probed {p}")
            return letters[d]
        if position is True or not isinstance(position, int) or not 1 <= position <= length:
            raise MalformedProgramError(
                f"{name}: probe outside positions 1..{length}: {position!r}")
        if index[position - 1] != k:
            raise MalformedProgramError(f"{name}: position {position} probed twice")
        later.append(iter(branches(position, *masks[-1])))
        d, split = next(later[-1])
        index[position - 1] = d
        path.append((position, d))
        masks.append(split)
        return letters[d]

    while True:
        if meter is not None:
            meter.check(lambda: f"at word {slc.text_of_int(lowest(masks[-1][0] | masks[-1][1]))!r}")
        replay = iter(path)
        accepted = bool(decide(probe))
        for p, _ in replay:
            raise MalformedProgramError(f"{name}: nondeterministic: stopped where a run "
                                        f"on the same letters probed {p}")
        on, off = masks[-1]
        yield (on, off, accepted, not (off if accepted else on), path,
               members_inside(rows, index) if accepted else 0)
        while path:  # advance the deepest node with a letter left
            p, _ = path.pop()
            d, masks[-1] = next(later[-1], (k, None))
            index[p - 1] = d
            if d < k:
                path.append((p, d))
                break
            del later[-1], masks[-1]
        else:
            return


def kernel(program: DecisionProgram, problem, budget: Budget | None = None,
           dump: TextIO | None = None) -> Antichain:
    """The reduced-logogram strings the program actually certifies with.

    Walks the program's decision tree, reading the clock once per run. The
    program must be correct and justified throughout, and each accepting
    restriction, being in the logogram, must include a member of
    ``problem.logogram()``, else the search missed one. After the walk it
    raises on the least lowest word of a faulty leaf, the first faulty word
    in canonical order. Given a text stream ``dump``, it writes there as it
    walks, whole before any such error, the :func:`trace_records` dump with
    the program's name added, reading the clock once per word instead."""
    meter = (budget or Budget.default()).start(f"kernel sweep: {program.name}")
    log = problem.logogram(meter=meter)
    slc, used, faults = problem.slice, 0, []

    def tallied():
        nonlocal used
        for leaf in _walk(program, problem, log, meter if dump is None else None):
            on, off, accepted, just, _, bits = leaf
            if not just or accepted and not bits:
                faults.append((lowest(on | off), accepted, just))
            used |= bits
            yield leaf

    if dump is None:
        for _ in tallied():
            pass
    else:
        dump.writelines(json.dumps({"program": program.name, **record}, sort_keys=True) + "\n"
                        for record in _records(slc, log.texts(slc.length), tallied(), meter))
    if faults:  # the word lies in its leaf, so a verdict justified there is right
        w, accepted, just = min(faults)
        wrong = accepted != holds(problem.f_mask(), w)
        reason = (_MISSED if just else "gave the wrong verdict" if wrong else
                  f"was not justified in its {_VERDICTS[accepted].value}")
        raise ProgramFaultError(slc.text_of_int(w), f"{program.name} {reason}")
    return Antichain(tuple(log.pairs[j] for j in set_bits(used)), log.alphabet)


def _records(slc, texts: list[str], leaves, meter: Meter) -> Iterator[dict]:
    """Per-word records in word order, reading the clock once per word, from
    the walk's leaves, pulled while the next word is not yet pending. The
    words of a leaf share one record body."""
    pending: dict[int, dict] = {}  # words of pulled leaves not yet dumped -> body
    for i in slc.word_ints():
        meter.check(lambda: f"at word {slc.text_of_int(i)!r}")
        while i not in pending:
            on, off, accepted, just, path, bits = next(leaves)
            pending.update(dict.fromkeys(set_bits(on | off), {
                "probes": [[p, slc.alphabet.letters[d]] for p, d in path],
                "verdict": _VERDICTS[accepted].value, "justified": just,
                "certifying_strings": [texts[j] for j in set_bits(bits)]}))
        yield {"input": slc.text_of_int(i), **pending.pop(i)}


def trace_records(program: DecisionProgram, problem,
                  budget: Budget | None = None) -> Iterator[dict]:
    """JSON-ready trace dump, one record per input word, in word order, from
    one walk of the program's decision tree; program faults are recorded,
    not raised, but a missed logogram member raises as in :func:`kernel`."""
    meter = (budget or Budget.default()).start(f"trace dump: {program.name}")
    log = problem.logogram(meter=meter)
    slc = problem.slice
    for rec in _records(slc, log.texts(slc.length), _walk(program, problem, log), meter):
        if rec["verdict"] == "accept" and rec["justified"] and not rec["certifying_strings"]:
            raise ProgramFaultError(rec["input"], f"{program.name} {_MISSED}")
        yield rec


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
