"""Logograms, closures, and independence of string sets.

The logogram of a target set A within a slice is the set of strings whose
presence in a word of the slice forces membership in A; its minimal
elements form the reduced logogram, the irredundant certificate set of the
target. They are the prime implicants, among those meeting A, of the
function that is on over A, off over the rest of the slice and free outside
it, and this module computes them by the classical recursion for primes on
Shannon cofactors, memoized per call or across the calls of one suite: a
prime of a letter's cofactors needs the letter unless it is a prime of their
OR, which is when it misses the OR's off. It also decides entanglement
between string sets, composes both closures of the expansion/logogram
Galois connection from the public operators (a closure's budget error names
the reduced-logogram search), and checks the three independence notions a
decision problem may enjoy: internal and simple by one entailment search.

Word sets are bitmasks over the slice (see :mod:`logogram.universe`), so
entanglement, expansions, irreducibility, the independence checks and the
closure laws are unions and differences of cylinders, not scans of
completions. Strings are (position, letter index) pairs, kept by
:class:`Antichain` up to the report.

Everything here is exhaustive over one slice: correctness comes from
enumeration, and budgets keep the enumeration honest about its limits.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Iterable, NamedTuple, Sequence

from .budget import Budget, BudgetExceededError, Meter
from .strings import Alphabet, PartialString
from .universe import (Pairs, Slice, expand, expand_mask, letter_row, lowest, member_rows,
                       members_inside, text_of_pairs)
from .values import Value


class Antichain(Value):
    """Pairwise incomparable strings over one alphabet, as (position, letter
    index) pairs in canonical order; ``elements`` builds the strings."""

    _fields = ("pairs", "alphabet")

    @classmethod
    def of(cls, strings: Iterable[PartialString], alphabet: Alphabet) -> "Antichain":
        """Canonically order outside strings, rejecting any comparable pair.

        The members f extends are those included in f's restriction
        (:func:`~logogram.universe.members_inside`); the set is an antichain
        when each f includes itself alone.
        """
        given = {tuple((p, alphabet.index(ch)) for p, ch in s.pairs): s for s in strings}
        members = _canonical(given)
        k = len(alphabet)
        # at least one position, so that the void string alone has a row
        length = max((p for f in members for p, _ in f), default=1)
        rows = member_rows(members, k, length)
        for i, f in enumerate(members):
            below = members_inside(rows, letter_row(f, k, length)) ^ 1 << i  # f itself
            if below:
                g = members[lowest(below)]
                raise ValueError(
                    f"not an antichain: {given[g]!r} and {given[f]!r} are comparable")
        return cls(members, alphabet)

    @property
    def elements(self) -> tuple[PartialString, ...]:
        return tuple(self)

    def __iter__(self):
        # strings are built as the caller takes them; no metered pass
        # iterates here: the passes read ``pairs`` and build no string
        letters = self.alphabet.letters
        return (PartialString(tuple((p, letters[d]) for p, d in x)) for x in self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def __contains__(self, string: PartialString) -> bool:
        letters = self.alphabet.letters
        return all(ch in letters for _, ch in string.pairs) and tuple(
            (p, letters.index(ch)) for p, ch in string.pairs) in self.pairs

    def texts(self, length: int) -> list[str]:
        size = max((p for x in self.pairs for p, _ in x), default=0)
        if size > length:
            raise ValueError(f"string of size {size} does not fit length {length}")
        return [text_of_pairs(x, length, self.alphabet.letters) for x in self.pairs]


def _canonical(members: Iterable[Pairs]) -> tuple[Pairs, ...]:
    """Members in canonical order: domain size first, then the pairs, whose
    letter indices follow the alphabet's order."""
    return tuple(sorted(members, key=lambda x: (len(x), x)))


class SearchFrontier(NamedTuple):
    """Partial state attached to a budget error: what the reduced-logogram
    search had established when it ran out.

    ``minimal_so_far`` is the :class:`Antichain` of the members already
    final at the top level of the recursion (whole branches of position 1
    that finished), whose strings are built only when it is iterated;
    ``level`` the deepest position a sub-problem reached, and
    ``live_count`` the number of sub-problems solved and memoized, by this
    search and by any earlier one sharing its memo.
    """

    minimal_so_far: Antichain
    level: int
    live_count: int


# -- membership probes -------------------------------------------------


def _log_probe(cyl: int, off: int) -> bool:
    """Is a string in the logogram of A?

    ``cyl`` is the string's cylinder (:meth:`Slice.cylinder`) and ``off``
    the mask of the slice's words outside A. A string is in the logogram of
    A when it occurs in the slice and every word of the slice extending it
    lies in A: its cylinder is non-empty and misses ``off``.
    """
    return cyl != 0 and not cyl & off


def _target_mask(target_words, slc: Slice) -> int:
    """A target word set (packed words, texts or words) as a mask, checking
    it lies in the slice."""
    mask = slc.mask_of_words(target_words)
    stray = slc.stray(mask)
    if stray is not None:
        raise ValueError(f"target word {slc.text_of_int(stray)!r} is outside the slice")
    return mask


# -- logogram membership and the reduced logogram -----------------------


def in_logogram(string: PartialString, target_words, slc: Slice) -> bool:
    """Does the presence of ``string`` in a word of the slice force
    membership in the target set?"""
    off = slc.complement(_target_mask(target_words, slc))
    return _log_probe(slc.cylinder_of(string), off)


def _minimal_pairs(on: int, slc: Slice, meter: Meter,
                   memo: dict[tuple[int, int, int], list[Pairs]] | None = None,
                   ) -> list[Pairs]:
    """The reduced logogram of the target mask ``on``, as pairs: the prime
    implicants meeting it, by memoized recursion on Shannon cofactors.

    ``rl(p, on, off)`` returns the minimal tails over positions p..L for
    the words ``on`` and ``off`` of the tail space: a tail is a member when
    its cylinder meets ``on`` and misses ``off``, and minimal when every
    restriction meets ``off``.

    - The tails blank at p are the minimal tails of the cofactors ORed over
      the letters of p.
    - The tails setting p = d are (p, d) before each minimal tail t of the
      cofactors on p = d that is not a minimal blank tail: t meets the ORed
      on and each restriction of t meets the ORed off, so t is a minimal
      blank tail exactly when it misses the ORed off, when p is not needed.

    ``rl`` depends only on k, L and its arguments (the slice's words enter
    only through ``off``), so one memo may serve every search over slices of
    one alphabet and length. The search works in the caller's ``memo``, or
    in a fresh one freed on return, and returns a copy of the top-level list,
    which is itself a memo value. Each distinct (p, on, off) is solved and
    charged to the meter once per memo, and callers running several searches
    pass one meter too, so that their total work stays within one budget; on
    a budget error the frontier's ``live_count`` counts the whole memo.
    """
    cofactors = slc.cofactors
    if memo is None:
        memo = {}
    found: list[Pairs] = []
    deepest = 0

    def rl(p: int, on: int, off: int) -> list[Pairs]:
        nonlocal deepest
        # a cylinder meeting on only where off is meets off too; past
        # position L a tail space is one word, so one of these returns
        if not on & ~off:
            return []
        if not off:
            return [()]
        key = (p, on, off)
        known = memo.get(key)
        if known is not None:
            return known
        meter.charge()
        deepest = max(deepest, p)
        ons, offs = cofactors(on, p), cofactors(off, p)
        out = found if p == 1 else []  # top-level members are final at once
        blank = rl(p + 1, reduce(or_, ons), reduce(or_, offs))
        out.extend(blank)
        blank = set(blank)
        for d, (on_d, off_d) in enumerate(zip(ons, offs)):
            for t in rl(p + 1, on_d, off_d):
                if t not in blank:
                    out.append(((p, d),) + t)
        memo[key] = out
        return out

    try:
        return list(rl(1, on, slc.complement(on)))
    except BudgetExceededError as err:
        err.partial = SearchFrontier(
            minimal_so_far=Antichain(_canonical(found), slc.alphabet),
            level=deepest, live_count=len(memo))
        raise
    finally:
        # rl refers to itself through its closure: unbinding it frees a
        # fresh memo now, not at the next cyclic garbage collection
        del rl


def reduced_logogram(target_words, slc: Slice, budget: Budget | None = None,
                     meter: Meter | None = None) -> Antichain:
    """The minimal elements of the logogram of the target set."""
    return reduced_logogram_of_mask(_target_mask(target_words, slc), slc, budget, meter)


def reduced_logogram_of_mask(on: int, slc: Slice, budget: Budget | None = None,
                             meter: Meter | None = None,
                             memo: dict | None = None) -> Antichain:
    """The reduced logogram of a target given as a mask of words of the
    slice (:meth:`Slice.mask_of_ints`), which the caller guarantees lies
    inside the slice (:meth:`Slice.stray` finds no word outside it). The
    search returns prime implicants, pairwise incomparable by construction,
    so they are not checked again.
    A ``memo`` shared by several calls is passed to :func:`_minimal_pairs`."""
    meter = meter or (budget or Budget.default()).start("reduced logogram")
    return Antichain(_canonical(_minimal_pairs(on, slc, meter, memo)), slc.alphabet)


# -- entanglement -------------------------------------------------------


def entangles(antecedent, consequent, slc: Slice) -> bool:
    """Does the presence of the first string set force the second?

    True when every word of the slice extending some member of
    ``antecedent`` also extends some member of ``consequent``.
    """
    return not expand_mask(antecedent, slc) & ~expand_mask(consequent, slc)


def isoexpansive(first, second, slc: Slice) -> bool:
    """Do the two string sets cut out the same words of the slice?"""
    return expand_mask(first, slc) == expand_mask(second, slc)


# -- the closure pair ----------------------------------------------------


def closure_ba(target_words, slc: Slice, budget: Budget | None = None) -> tuple[PartialString, ...]:
    """Close a word set: expand its reduced logogram. Extensive and idempotent,
    and within a fixed-length slice the input itself, so every subset of such a
    slice is closed."""
    return expand(reduced_logogram(target_words, slc, budget), slc)


def closure_ab_contains(string: PartialString, strings, slc: Slice) -> bool:
    """Is ``string`` in the closure of ``strings``, the logogram of their expansion:
    does it occur in the slice and entangle them?"""
    return slc.cylinder_of(string) != 0 and entangles([string], strings, slc)


def is_closed(target_words, slc: Slice, budget: Budget | None = None) -> bool:
    """Is the word set its own closure: the expansion of its reduced logogram?"""
    closed = expand_mask(reduced_logogram(target_words, slc, budget), slc)
    return closed == _target_mask(target_words, slc)


# -- complete and irreducible certificate sets ---------------------------


class IrreducibilityReport(NamedTuple):
    """Members of a complete set as texts at the slice length: the removable
    ones, and each other one mapped to the lowest word that only it covers."""

    irreducible: bool
    removable: tuple[str, ...]
    unique_witnesses: dict[str, str]


def is_complete(strings, problem, budget: Budget | None = None) -> bool:
    """Does the subset of the reduced logogram decide the target exactly?

    ``strings`` is an :class:`Antichain` or an iterable of strings or their
    texts, and must be a subset of the problem's reduced logogram.
    """
    chosen = _chosen(strings, problem.logogram(budget), problem.slice)
    return problem.slice.expansion(chosen) == problem.f_mask()


def _chosen(strings, log: Antichain, slc: Slice) -> list[Pairs]:
    """The pairs of the strings, in the order of the reduced logogram
    ``log``, which must hold them all. An antichain over the slice's
    alphabet is read by its pairs, other strings by their letters."""
    chosen = dict.fromkeys(log.pairs, False)
    own = isinstance(strings, Antichain) and strings.alphabet == slc.alphabet
    for s in strings.pairs if own else strings:
        if not (own or isinstance(s, PartialString)):
            s = PartialString.parse(s, slc.alphabet)
        x = s if own else slc.pairs_of(s)
        if x not in chosen:
            s = Antichain((x,), slc.alphabet).elements[0] if own else s
            raise ValueError(f"{s!r} is not in the reduced logogram")
        chosen[x] = True
    return [x for x, picked in chosen.items() if picked]


def irreducibility_report(strings, problem,
                          budget: Budget | None = None) -> IrreducibilityReport:
    """Check that no single string can be dropped.

    Completeness is monotone under supersets, so a complete set is
    irreducible exactly when every member covers some word no other member
    covers: its removal witness. The search and the pass run on one meter.
    """
    meter = (budget or Budget.default()).start(f"irreducibility: {problem.label}")
    slc = problem.slice
    chosen = _chosen(strings, problem.logogram(meter=meter), slc)
    union, removable, witnesses = _unique_coverage(chosen, slc, meter)
    if union != problem.f_mask():
        raise ValueError("irreducibility is only defined for complete sets")
    return IrreducibilityReport(not removable, tuple(removable), witnesses)


def _unique_coverage(members: Sequence[Pairs], slc: Slice,
                     meter: Meter) -> tuple[int, list[str], dict[str, str]]:
    """The union of the members' cylinders, the texts of the members that
    cover no word alone, and each other member's text mapped, in order, to
    the lowest word that it alone covers.

    The first pass folds the cylinders into the words covered at least
    once and at least twice; the second builds each cylinder again and
    keeps its part covered exactly once. So the masks held are a constant
    number, whatever the number of members; the clock is read once per
    member in each pass.
    """
    n = len(members)
    once = twice = 0
    for x in members:
        meter.check(lambda: f"after 0 of {n} strings")
        cyl = slc.cylinder(x)
        twice |= once & cyl
        once |= cyl
    single = once ^ twice  # twice lies inside once
    removable, witnesses = [], {}
    for i, x in enumerate(members):
        meter.check(lambda: f"after {i} of {n} strings")
        unique = slc.cylinder(x) & single
        text = text_of_pairs(x, slc.length, slc.alphabet.letters)
        if unique:
            witnesses[text] = slc.text_of_int(lowest(unique))
        else:
            removable.append(text)
    return once, removable, witnesses


# -- independence ---------------------------------------------------------


class IndependenceReport(NamedTuple):
    kind: str  # "internal" | "simple" | "strong"
    passed: bool
    strings_checked: int
    pairs_checked: int
    budget_exhausted: bool
    counterexample: dict | None = None
    separators: tuple[tuple[str, str], ...] | None = None


def _first_entailment(kind: str, pair_list: Sequence[Pairs], slc: Slice, meter: Meter,
                      exhausted: bool = False, **extra) -> IndependenceReport:
    """The ``kind`` report on the first ordered pair (f, g) of distinct
    strings, rows f in list order, where every word of the slice extending f
    also extends g and f does not extend g: the extension order entails that
    by itself, and in an antichain, such as the reduced logogram, f extends
    only itself. It fails on that pair, with the texts of f and g, then
    ``entangled`` and the ``extra`` keys as its counterexample; it counts the
    pairs examined, and ``exhausted`` is its ``budget_exhausted``. The clock
    is checked once per f, and the time-out says how many pairs were examined.

    Call a pair (p, d) forced by f when f's cylinder lies inside the mask
    of (p, d); f entails g exactly when every pair of g is forced. So the
    strings f entails are the members of the list inside f's restriction of
    forced letters, and the strings f extends are the members inside f: each
    f costs one cylinder and a test per position, not a search for a
    separating word per g. The strings all occur in the slice, so f's
    cylinder is not empty and :meth:`Slice.forced_row` reads its forced
    letters.
    """
    n, k = len(pair_list), len(slc.alphabet)
    rows = member_rows(pair_list, k, slc.length)
    for i, f in enumerate(pair_list):
        meter.check(lambda: f"after {i * (n - 1)} pairs")
        entailed = members_inside(rows, slc.forced_row(slc.cylinder(f)))
        bad = entailed & ~members_inside(rows, letter_row(f, k, slc.length))
        if bad:
            j = lowest(bad)
            f, g = (text_of_pairs(pair_list[x], slc.length, slc.alphabet.letters)
                    for x in (i, j))
            return IndependenceReport(kind, False, n, i * (n - 1) + j + (j < i), exhausted,
                                      {"f": f, "g": g, "entangled": True, **extra})
    return IndependenceReport(kind, True, n, n * (n - 1), exhausted)


def internal_independence(slc: Slice, budget: Budget | None = None) -> IndependenceReport:
    """Check that entanglement between single strings degenerates to the
    extension order: one string forces another exactly when it extends it.

    All ordered pairs over the slice's strings are examined, in canonical
    order, among at most the square root of ``max_strings`` strings: the
    report's ``budget_exhausted`` says the cap cut the strings short, while
    a time-out raises as in every other step. A forcing that extends is
    entailed by the order itself, so the work is finding a non-extending
    pair that is entailed all the same.
    """
    meter = (budget or Budget.default()).start(f"internal independence: {slc.label}")
    cap = max(1, int(meter.budget.max_strings ** 0.5))
    pair_list, saw_all = _sigma_pairs(slc, cap)
    return _first_entailment("internal", pair_list, slc, meter, not saw_all, extends=False)


def _sigma_pairs(slc: Slice, cap: int) -> tuple[list[Pairs], bool]:
    """Up to ``cap`` strings occurring in the slice, in canonical order
    (domain size first). Second value: whether that was all of them.

    Each size is one walk over (position, letter) pairs in lexicographic
    order, which is canonical order within the size; a branch whose
    cylinder is empty is pruned, since nothing extending it occurs. The
    walks stop at the first string past the cap, or at a size with no
    string, beyond which no string occurs either.
    """
    k = len(slc.alphabet)
    L = slc.length
    out: list[Pairs] = []

    def walk(pairs: Pairs, cyl: int, start: int, left: int) -> bool:
        """Append the occurring strings extending ``pairs`` by ``left``
        more pairs past ``start - 1``; True once past the cap."""
        if not left:
            out.append(pairs)
            return len(out) > cap
        for p in range(start, L - left + 2):
            for d in range(k):
                sub = slc.restrict(cyl, ((p, d),))
                if sub and walk(pairs + ((p, d),), sub, p + 1, left - 1):
                    return True
        return False

    for size in range(L + 1):
        before = len(out)
        if walk((), slc.cylinder(()), 1, size) or len(out) == before:
            break
    return out[:cap], len(out) <= cap


def simple_independence(problem, budget: Budget | None = None) -> IndependenceReport:
    """Check the reduced logogram strings pairwise: no member may force
    another's presence in the slice."""
    meter = (budget or Budget.default()).start(f"simple independence: {problem.label}")
    log = problem.logogram(meter=meter)
    return _first_entailment("simple", log.pairs, problem.slice, meter)


def strong_independence(problem, budget: Budget | None = None) -> IndependenceReport:
    """For every reduced logogram string, find a word containing it and no
    other member. One separator per member settles the condition for every
    subset of the logogram at once: a word avoiding all other members
    avoids any selection of them.

    A member's separator is its removal witness in the irreducibility check
    (:func:`_unique_coverage`); the first member without one fails it.
    """
    meter = (budget or Budget.default()).start(f"strong independence: {problem.label}")
    log = problem.logogram(meter=meter)
    _, removable, witnesses = _unique_coverage(log.pairs, problem.slice, meter)
    counterexample = None
    if removable:
        counterexample = {"string": removable[0],
                          "reason": "every word containing it contains another member"}
    return IndependenceReport(
        kind="strong", passed=not removable, strings_checked=len(log),
        pairs_checked=0, budget_exhausted=False, counterexample=counterexample,
        separators=None if removable else tuple(witnesses.items()))


# -- the Galois connection property suite ---------------------------------


class GaloisCheck(NamedTuple):
    law: str
    samples: int
    passed: bool
    counterexample: dict | None = None


class GaloisReport(NamedTuple):
    slice_label: str
    seed: int
    sample_count: int
    checks: tuple[GaloisCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_galois(slc: Slice, sample_count: int = 1000, seed: int = 0,
                  budget: Budget | None = None) -> GaloisReport:
    """Sample string sets and word sets and check the laws of the
    expansion/logogram pair: antitonicity both ways, extensiveness of both
    closures, and stability of expansion and logogram under one round trip.

    Each sample draws string sets H and K, K entangling H by construction,
    and word sets A inside B, held as pairs and masks. A law's first failure
    keeps the sample's texts as evidence: ``H`` and ``K`` for
    antitone-expansion, ``A`` and ``B`` for antitone-logogram, ``A`` for
    word-closure-extensive and logogram-roundtrip-stable, ``H`` otherwise.

    The suite is one budgeted operation: its four searches per sample share
    one meter, and one cofactor memo that lives for this call, so
    ``max_strings`` bounds the distinct sub-problems of the whole suite.
    """
    import random  # only this suite samples; other analyses skip the import

    if sample_count < 1:
        raise ValueError(f"sample count must be >= 1, got {sample_count}")
    meter = (budget or Budget.default()).start("galois suite")
    rng = random.Random(seed)
    e_ints = slc.word_ints()
    k = len(slc.alphabet)

    memo: dict[tuple[int, int, int], list[Pairs]] = {}

    def minimal(on: int) -> list[Pairs]:
        return _minimal_pairs(on, slc, meter=meter, memo=memo)

    tallies: dict[str, int] = {}
    failures: dict[str, dict] = {}

    def record(law: str, ok: bool, **evidence: list) -> None:
        """Count one sample of the law; render the evidence on its first failure."""
        tallies[law] = tallies.get(law, 0) + 1
        if not ok and law not in failures:
            failures[law] = {
                key: [slc.text_of_int(x) if isinstance(x, int)
                      else text_of_pairs(x, slc.length, slc.alphabet.letters) for x in items]
                for key, items in evidence.items()}

    for _ in range(sample_count):
        meter.check(lambda: f"after {max(tallies.values(), default=0)} samples")
        H = []
        for _ in range(rng.randint(1, 3)):
            w = rng.choice(e_ints)
            H.append(tuple((p, d) for p, d in enumerate(slc.letters_of(w), 1)
                           if rng.random() < 0.5))
        # random extensions of random members: entangled with H by construction
        K = []
        for _ in range(rng.randint(1, 3)):
            base = rng.choice(H)
            fixed = dict(base)
            # letters from the first word of the slice extending base
            for p, d in enumerate(slc.letters_of(lowest(slc.cylinder(base))), 1):
                if rng.random() < 0.3:
                    fixed.setdefault(p, d)
            K.append(tuple(sorted(fixed.items())))
        B = sorted(rng.sample(e_ints, rng.randint(0, len(e_ints))))
        A = [w for w in B if rng.random() < 0.6]

        # K extends members of H, so it forces H: its expansion lies inside H's
        exp_h = slc.expansion(H)
        exp_k = slc.expansion(K)
        record("antitone-expansion", not exp_k & ~exp_h, H=H, K=K)

        # nested targets have nested logograms, hence entangled logograms
        a_mask, b_mask = slc.mask_of_ints(A), slc.mask_of_ints(B)
        min_a, min_b = minimal(a_mask), minimal(b_mask)
        off_b = slc.complement(b_mask)
        closure_a = slc.expansion(min_a)
        ok = all(_log_probe(slc.cylinder(g), off_b) for g in min_a) \
            and not closure_a & ~slc.expansion(min_b)
        record("antitone-logogram", ok, A=A, B=B)

        # the logogram of the expansion of H is forced back onto H
        min_exp_h = minimal(exp_h)
        exp_min_exp_h = slc.expansion(min_exp_h)
        record("string-closure-covered", not exp_min_exp_h & ~exp_h, H=H)

        # a target is contained in its closure
        record("word-closure-extensive", not a_mask & ~closure_a, A=A)

        # every sampled string lies in the closure of its own set: it
        # extends a member of the reduced logogram of the set's expansion,
        # and each member is minimal there: it extends no other member
        rows = member_rows(min_exp_h, k, slc.length)
        record("string-closure-extensive",
               all(members_inside(rows, letter_row(h, k, slc.length)) for h in H)
               and all(members_inside(rows, letter_row(g, k, slc.length)) == 1 << j
                       for j, g in enumerate(min_exp_h)),
               H=H)

        # one round trip leaves the expansion unchanged
        record("expansion-roundtrip-stable", exp_min_exp_h == exp_h, H=H)

        # and leaves the logogram unchanged
        record("logogram-roundtrip-stable", set(min_a) == set(minimal(closure_a)), A=A)

    # every sample records every law, in this order, so the tallies list them all
    checks = tuple(
        GaloisCheck(law=law, samples=samples, passed=law not in failures,
                    counterexample=failures.get(law))
        for law, samples in tallies.items())
    return GaloisReport(slice_label=slc.label, seed=seed,
                        sample_count=sample_count, checks=checks)
