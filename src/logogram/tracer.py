"""Decision programs as sequences of position probes.

A decision program reads input positions one at a time and ends with a
verdict. The probes it made form a trace, and the probed restriction of
the input is the program's entire knowledge of it, so every verdict must
be justified by that restriction alone: an accept is justified when the
restriction already forces membership in the target, a reject when the
restriction has no accepted extension at all.

A run's one public form is its trace-dump record: input, [position,
letter] probes and ``"accept"`` or ``"reject"``. :func:`justified` judges
it by its cylinder, re-checking the ``justified`` field the walk wrote.

The kernel of a program is the set of reduced-logogram strings it actually
certifies with: those included in the probed restriction of some accepted
input. A correct, justified program always has a complete kernel, and when
the reduced logogram is irreducible every such program has the same one.

Programs are deterministic given the letters they observe, so the runs of a
program are the leaves of its decision tree, whose restrictions partition
E. One walk, depth first over that tree pruned to E, runs a program once
per leaf: :func:`kernel` folds it into the certifying strings and, when
asked, streams it out as the trace dump, whose per-word records share one
body across a leaf. No word set is kept per node: while the reduced
logogram expands to exactly F, an accept that includes a member and a
reject that agrees with none are justified, as on the full cube every
justified reject is; any other leaf is judged by its cylinder.

Three traced solvers for the clause encoding are built in; all probe
lazily and read each position at most once.
"""

from __future__ import annotations

import json
from functools import cache, reduce
from operator import and_
from typing import Callable, NamedTuple, TextIO

from .budget import Budget, Meter
from .engine import Antichain, is_complete
from .strings import PartialString
from .universe import holds, lowest, member_rows, set_bits


_VERDICTS = ("reject", "accept")  # indexed by accepted


class MalformedProgramError(RuntimeError):
    """The program broke the probe discipline (bad position, revisit, nondeterminism)."""


class ProgramFaultError(RuntimeError):
    """A program was wrong or unjustified on a specific input, or certified
    its accept with no member of the reduced logogram given to the sweep."""

    def __init__(self, word_text: str, reason: str):
        super().__init__(f"on input {word_text!r}: {reason}")
        self.word_text = word_text
        self.reason = reason


class DecisionProgram(NamedTuple):
    """A named decision procedure driven through a probe callback.

    ``decide`` receives a function position -> letter and returns the
    accept/reject outcome. It must be deterministic given the observed
    letters and must not read a position twice; the runner enforces the
    probe discipline.
    """

    name: str
    decide: Callable[[Callable[[int], str]], bool]


def justified(record: dict, problem) -> bool:
    """Is the run's verdict forced by its probed restriction alone?

    ``record`` is one line of a :func:`kernel` trace dump, parsed: its
    ``input``, its ``probes`` as [position, letter] pairs and its ``verdict``
    are read, and any other field is ignored.
    Accepts need the restriction to force the target; rejects need the
    restriction to admit no accepted extension within the slice. Raises
    ``ValueError`` on a field missing or of the wrong shape, an unknown
    verdict, an input that is no word of the slice, or a probe that
    disagrees with the input or lies past its length.
    """
    slc, f = problem.slice, problem.f_mask()
    try:
        text, verdict = record["input"], record["verdict"]
        restriction = PartialString(map(tuple, record["probes"]))
    except (KeyError, TypeError) as err:  # a field missing, or of the wrong shape
        raise ValueError(f"malformed record: {err!r}") from err
    if verdict not in _VERDICTS:
        raise ValueError(f"unknown verdict {verdict!r}, not one of {_VERDICTS}")
    if not isinstance(text, str) or slc.stray(slc.mask_of_words([text])) is not None:
        raise ValueError(f"{text!r} is no word of the slice")
    if not PartialString.parse(text, slc.alphabet) >= restriction:
        raise ValueError(f"{record['probes']!r} are not probes of the input {text!r}")
    cyl = slc.cylinder(slc.pairs_of(restriction))
    return not cyl & (~f if verdict == "accept" else f)


def _walk(program: DecisionProgram, problem, log: Antichain, meter: Meter | None = None):
    """The one loop that runs a program across the slice, once per leaf: a run
    replays the path to the node last advanced, a new node takes its lowest
    letter whose branch meets E, and then the deepest node with a later such
    letter takes it, like an odometer. A leaf is settled by the members of
    ``log`` its path agrees with while ``log`` expands to exactly F, else by
    its cylinder. Yields per leaf the verdict, whether the path justifies it,
    its (position, letter index) pairs, valid until the next run, and as bits
    the members an accept includes; given a meter, reads the clock per run."""
    slc, f = problem.slice, problem.f_mask()
    name, length, decide, cylinder = program.name, slc.length, program.decide, slc.cylinder
    letters, k = slc.alphabet.letters, len(slc.alphabet)
    rows, exact = member_rows(log.pairs, k, length), is_complete(log, problem)
    path, later = [], []  # per depth: (position, letter index), and the letters left
    agree = [(1 << len(log)) - 1]  # per depth, the members the path agrees with
    probed = 0  # the positions on the path, as bits
    within = cache(lambda positions: reduce(  # the members with no letter outside the positions
        and_, (row[k] for q, row in enumerate(rows, 1) if not positions >> q & 1), -1))
    # the letters at a position held by some word of the mask e, to prune to E
    pruned = lambda position, e: [d for d in range(k) if slc.restrict(e, ((position, d),))]

    def probe(position: int) -> str:
        nonlocal probed
        for p, d in replay:  # the path's next step
            if position is not p and (position != p or position is True):  # True == 1
                raise MalformedProgramError(f"{name}: nondeterministic: probed {position!r} "
                                            f"where a run on the same letters probed {p}")
            return letters[d]
        if position is True or not isinstance(position, int) or not 1 <= position <= length:
            raise MalformedProgramError(
                f"{name}: probe outside positions 1..{length}: {position!r}")
        if probed >> position & 1:
            raise MalformedProgramError(f"{name}: position {position} probed twice")
        later.append(iter(range(k) if slc.is_full else pruned(position, cylinder(path))))
        d = next(later[-1])
        probed |= 1 << position
        path.append((position, d))
        agree.append(agree[-1] & rows[position - 1][d])
        return letters[d]

    where = lambda: f"at word {slc.text_of_int(lowest(cylinder(path)))!r}"  # if time runs out
    while True:
        if meter is not None:
            meter.check(where)
        replay = iter(path)
        accepted = bool(decide(probe))
        for p, _ in replay:
            raise MalformedProgramError(f"{name}: nondeterministic: stopped where a run "
                                        f"on the same letters probed {p}")
        bits = agree[-1] & within(probed) if accepted else 0
        settled = exact and (bits != 0 if accepted else not agree[-1])  # by the members alone
        just = settled or not cylinder(path) & (~f if accepted else f)  # else by its cylinder
        yield accepted, just, path, bits
        while path:  # advance the deepest node with a letter left
            p, _ = path.pop()
            d = next(later[-1], k)
            if d < k:
                path.append((p, d))
                agree[-1] = agree[-2] & rows[p - 1][d]
                break
            del later[-1], agree[-1]
            probed ^= 1 << p
        else:
            return


def kernel(program: DecisionProgram, problem, budget: Budget | None = None,
           dump: TextIO | None = None) -> Antichain:
    """The reduced-logogram strings the program actually certifies with.

    Walks the program's decision tree, reading the clock once per run and
    judging each leaf as :func:`_walk` does, by the members of
    ``problem.logogram()`` or its cylinder. The program must be correct and
    justified throughout, and an accept must include a member, else the
    search missed one. After the walk it raises on the least lowest word of a
    faulty leaf. Given a text stream ``dump``, it writes there as it walks,
    whole before any such error, the trace dump: one JSON record per word, in
    word order, reading the clock once per word instead."""
    meter = (budget or Budget.default()).start(f"kernel sweep: {program.name}")
    log = problem.logogram(meter=meter)
    slc, used, faults = problem.slice, 0, []

    def tallied():
        nonlocal used
        for leaf in _walk(program, problem, log, meter if dump is None else None):
            accepted, just, path, bits = leaf
            if not just or accepted and not bits:
                faults.append((lowest(slc.cylinder(path)), accepted, just))
            used |= bits
            yield leaf

    if dump is None:
        for _ in tallied():
            pass
    else:  # in word order, pulling leaves while the next word is not pending
        leaves, texts, letters = tallied(), log.texts(slc.length), slc.alphabet.letters
        pending: dict[int, dict] = {}  # words of pulled leaves not yet dumped -> body
        for i in slc.word_ints():
            meter.check(lambda: f"at word {slc.text_of_int(i)!r}")
            while i not in pending:  # a leaf's body goes to each word of its cylinder
                accepted, just, path, bits = next(leaves)
                pending.update(dict.fromkeys(slc.words_extending(path), {
                    "program": program.name, "probes": [[p, letters[d]] for p, d in path],
                    "verdict": _VERDICTS[accepted], "justified": just,
                    "certifying_strings": [texts[j] for j in set_bits(bits)]}))
            dump.write(json.dumps({"input": slc.text_of_int(i), **pending.pop(i)},
                                  sort_keys=True) + "\n")
    if faults:  # the word lies in its leaf, so a verdict justified there is right
        w, accepted, just = min(faults)
        wrong = accepted != holds(problem.f_mask(), w)
        reason = ("accepted on probes that include no reduced-logogram member" if just else
                  "gave the wrong verdict" if wrong else
                  f"was not justified in its {_VERDICTS[accepted]}")
        raise ProgramFaultError(slc.text_of_int(w), f"{program.name} {reason}")
    return Antichain(tuple(log.pairs[j] for j in set_bits(used)), log.alphabet)


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

    The assignments are bits of a mask, with one mask per position and
    letter of the assignments that letter makes true there, empty for a
    letter that makes none true: a block keeps the viable assignments ANDed
    with the OR of its slots' masks.
    """
    shape = _require_shape(problem)
    letters = problem.slice.alphabet.letters
    makes_true = {p: dict.fromkeys(letters, 0) for p in range(1, shape.length + 1)}
    for j, bits in enumerate(problem.solutions):
        for clause in shape.true_literals(bits):
            for p, code in clause:
                makes_true[p][code] |= 1 << j
    blocks = tuple(tuple((p, makes_true[p]) for p, _ in clause)  # slots in probe order
                   for clause in shape.true_literals(problem.solutions[0]))
    everyone = (1 << len(problem.solutions)) - 1

    def decide(probe):
        viable = everyone
        for slots in blocks:
            block = 0
            for p, masks in slots:
                block |= masks[probe(p)]
            viable &= block
            if not viable:
                return False
        return True

    return DecisionProgram("clause-first-scan", decide)


def built_in_programs(problem) -> tuple[DecisionProgram, ...]:
    return (forward_assignment_scan(problem),
            backward_assignment_scan(problem),
            clause_first_scan(problem))
