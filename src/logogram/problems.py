"""Problem adapters: slices paired with target sets, solutions, and regions.

A problem slice fixes one instance size of a decision problem: the slice of
encoded instances, the accepted subset, an ordered list of candidate
solutions, and per solution its region: the words it satisfies, which
together carve out the accepted set. Adapters are provided for CNF
satisfiability over the ternary clause encoding, compositeness of fixed-width binary
integers, connectivity of undirected graphs given as edge bitmaps, and
table-driven problems read from JSON descriptors.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import combinations, product
from math import isqrt
from operator import or_
from typing import Callable, Iterable

from .budget import Budget
from .engine import Antichain, reduced_logogram_of_mask
from .strings import BINARY, TERNARY, Alphabet, PartialString, _immutable
from .universe import Slice, full_slice, repeat_bits


class ProblemFormatError(ValueError):
    """A problem description is malformed or inconsistent."""


class DegenerateProblemError(ValueError):
    """The target set is empty or the whole slice; logogram analysis
    degenerates there and the adapters refuse to build such problems."""


class ProblemSlice:
    """A slice with a target subset, solutions, and regions.

    The target and each solution's region (the words it satisfies) are
    masks over the slice, bit i standing for packed word i (see
    :meth:`Slice.mask_of_ints`); the adapters build them arithmetically or
    by one scan of packed words, never testing a (word, solution) pair,
    and the engine searches them as they are. The regions must cover the
    target exactly: their OR must equal ``target_mask``, else
    :class:`ProblemFormatError` is raised; ``target_mask=None`` takes the
    target to be that OR. Instances are immutable after construction;
    reduced logograms are computed on demand and cached.
    """

    def __init__(self, slc: Slice, solutions: Iterable, region_masks: Iterable[int],
                 label: str, target_mask: int | None = None,
                 solution_text: Callable = str, cnf_shape: "CnfShape | None" = None):
        self.slice = slc
        self.solutions = tuple(solutions)
        self.label = label
        self.solution_text = solution_text
        self.cnf_shape = cnf_shape
        self._region_masks = tuple(region_masks)
        union = reduce(or_, self._region_masks, 0)
        if target_mask is not None and target_mask != union:
            raise ProblemFormatError(
                f"{label}: regions do not cover the target exactly "
                f"({union.bit_count()} region words vs "
                f"{target_mask.bit_count()} target words)")
        if union & ~slc.e_mask():
            raise ProblemFormatError(f"{label}: regions hold words outside the slice")
        self._f_mask = union
        if not union:
            raise DegenerateProblemError(f"{label}: empty target set")
        if union == slc.e_mask():
            raise DegenerateProblemError(f"{label}: target set is the whole slice")
        self._logogram: Antichain | None = None
        self._region_logograms: dict[int, Antichain] = {}

    @property
    def alpha(self) -> int:
        """How many solutions are relevant at this size."""
        return len(self.solutions)

    def region_mask(self, index: int) -> int:
        """The words the index-th solution satisfies, as a mask."""
        return self._region_masks[index]

    def f_mask(self) -> int:
        """The target set as a mask over the slice (see :meth:`Slice.cylinder`)."""
        return self._f_mask

    def satisfies(self, word: PartialString, solution) -> bool:
        """Does the solution satisfy the word: is the word in its region?"""
        mask = self._region_masks[self.solutions.index(solution)]
        return bool(mask >> self.slice.int_of_word(word) & 1)

    def accepts(self, word: PartialString) -> bool:
        return bool(self._f_mask >> self.slice.int_of_word(word) & 1)

    def f_words(self) -> tuple[PartialString, ...]:
        return tuple(map(self.slice.word_of_int, self.slice.ints_of_mask(self._f_mask)))

    def solution_texts(self) -> list[str]:
        return [self.solution_text(y) for y in self.solutions]

    def logogram(self, budget: Budget | None = None, meter=None) -> Antichain:
        if self._logogram is None:
            self._logogram = reduced_logogram_of_mask(self._f_mask, self.slice, budget,
                                                      meter=meter)
        return self._logogram

    def region_logogram(self, index: int, budget: Budget | None = None,
                        meter=None) -> Antichain:
        if index not in self._region_logograms:
            self._region_logograms[index] = reduced_logogram_of_mask(
                self._region_masks[index], self.slice, budget, meter=meter)
        return self._region_logograms[index]

    def descriptor(self) -> dict:
        slc = self.slice
        return {
            "label": self.label,
            "alphabet": list(slc.alphabet.letters),
            "length": slc.length,
            "universe": "all" if slc.is_full else [slc.text_of_int(i) for i in slc.word_ints()],
            "target": [slc.text_of_int(i) for i in slc.ints_of_mask(self._f_mask)],
            "regions": [[slc.text_of_int(i) for i in slc.ints_of_mask(m)]
                        for m in self._region_masks],
            "solutions": self.solution_texts(),
        }

    def __repr__(self) -> str:
        return f"ProblemSlice({self.label!r})"


# -- CNF satisfiability ----------------------------------------------------


class CnfShape:
    """Instance size of the clause encoding: words of length
    var_count * clause_count over {0,1,2}, one block of var_count codes per
    clause; 0 = variable absent, 1 = positive literal, 2 = negated.
    Shapes are immutable values, equal when both counts are."""

    def __init__(self, var_count: int, clause_count: int):
        if var_count < 1 or clause_count < 1:
            raise ValueError("var_count and clause_count must be >= 1")
        object.__setattr__(self, "var_count", var_count)
        object.__setattr__(self, "clause_count", clause_count)

    __setattr__ = __delattr__ = _immutable

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.var_count, self.clause_count) == (other.var_count, other.clause_count)

    def __hash__(self) -> int:
        return hash((self.var_count, self.clause_count))

    def __repr__(self) -> str:
        return f"CnfShape(var_count={self.var_count!r}, clause_count={self.clause_count!r})"

    @property
    def length(self) -> int:
        return self.var_count * self.clause_count

    def position(self, clause: int, var: int) -> int:
        """1-based word position of a variable slot within a clause block."""
        return (clause - 1) * self.var_count + var

    def var_of(self, position: int) -> int:
        return (position - 1) % self.var_count + 1

    def clause_of(self, position: int) -> int:
        return (position - 1) // self.var_count + 1


def _assignment_text(bits: tuple[bool, ...]) -> str:
    return " ".join(f"x{i}={int(b)}" for i, b in enumerate(bits, start=1))


@lru_cache(maxsize=None)
def sat_problem(var_count: int, clause_count: int) -> ProblemSlice:
    """Satisfiability of clause-encoded formulas at one shape.

    Solutions are the 2^n assignments in binary counting order starting
    from all-false, variable 1 least significant. A clause block with no
    literal codes is unsatisfiable, so the all-zero word is the canonical
    rejected instance.
    """
    shape = CnfShape(var_count, clause_count)
    n, m = var_count, clause_count
    slc = full_slice(TERNARY, shape.length, label=f"cnf:{n}x{m}")
    solutions = tuple(
        tuple(bool((i >> v) & 1) for v in range(n)) for i in range(2 ** n))

    # an assignment satisfies a formula when every clause holds a literal
    # it makes true: slot (c, v) coded 1 with x_v true, or 2 with x_v false
    masks = slc.position_masks()

    def region(bits: tuple[bool, ...]) -> int:
        out = slc.e_mask()
        for c in range(1, m + 1):
            clause = 0
            for v in range(1, n + 1):
                clause |= masks[shape.position(c, v) - 1][1 if bits[v - 1] else 2]
            out &= clause
        return out

    return ProblemSlice(slc, solutions, map(region, solutions), label=f"sat:{n}x{m}",
                        solution_text=_assignment_text, cnf_shape=shape)


def predicted_sat_logogram(shape: CnfShape) -> Antichain:
    """The closed-form candidate for the reduced logogram of SAT: every
    consistent choice of one literal per clause.

    A choice is consistent when no variable is picked positively in one
    clause and negatively in another. Whether this equals the computed
    reduced logogram is checked by the acceptance suite, not assumed.
    """
    n, m = shape.var_count, shape.clause_count
    per_clause = [
        [(shape.position(c, v), ch) for v in range(1, n + 1) for ch in ("1", "2")]
        for c in range(1, m + 1)]
    strings = []
    for selection in product(*per_clause):
        wanted: dict[int, str] = {}
        ok = True
        for pos, ch in selection:
            var = shape.var_of(pos)
            if wanted.setdefault(var, ch) != ch:
                ok = False
                break
        if ok:
            strings.append(PartialString(tuple(selection)))
    return Antichain.of(strings, TERNARY)


def gamma(string: PartialString, shape: CnfShape) -> PartialString:
    """The formula whose clauses are exactly the literals one consistent
    selection prescribes: the selection's positions keep their codes and
    every other position is 0.

    The result is a satisfiable word extending the selection, and the
    selection is the only reduced-logogram member it contains.
    """
    n, m = shape.var_count, shape.clause_count
    per_clause: dict[int, int] = {}
    wanted: dict[int, str] = {}
    for p, ch in string.pairs:
        if not 1 <= p <= shape.length:
            raise ValueError(f"position {p} outside the {shape.length}-letter shape")
        if ch not in ("1", "2"):
            raise ValueError(f"selections prescribe only literal codes, got {ch!r}")
        c = shape.clause_of(p)
        per_clause[c] = per_clause.get(c, 0) + 1
        var = shape.var_of(p)
        if wanted.setdefault(var, ch) != ch:
            raise ValueError(f"variable x{var} prescribed with both polarities")
    if sorted(per_clause) != list(range(1, m + 1)) or any(v != 1 for v in per_clause.values()):
        raise ValueError("selection must prescribe exactly one literal per clause")
    fixed = dict(string.pairs)
    return PartialString(tuple(
        (p, fixed.get(p, "0")) for p in range(1, shape.length + 1)))


def formula_word(doc: dict) -> tuple[CnfShape, PartialString]:
    """Encode a clause-list document {"n": ..., "clauses": [[1, 3, -4], ...]}
    as a word of the clause encoding."""
    try:
        n = int(doc["n"])
        clauses = list(doc["clauses"])
    except (KeyError, TypeError) as exc:
        raise ProblemFormatError(f"clause document needs 'n' and 'clauses': {exc}") from None
    if not clauses:
        raise ProblemFormatError("at least one clause is required")
    shape = CnfShape(n, len(clauses))
    cells = {p: "0" for p in range(1, shape.length + 1)}
    for c, clause in enumerate(clauses, start=1):
        for lit in clause:
            var = abs(int(lit))
            if not 1 <= var <= n:
                raise ProblemFormatError(f"literal {lit} outside variables 1..{n}")
            p = shape.position(c, var)
            code = "1" if lit > 0 else "2"
            if cells[p] not in ("0", code):
                raise ProblemFormatError(
                    f"clause {c} uses x{var} with both polarities; "
                    "the encoding has one slot per variable and clause")
            cells[p] = code
    return shape, PartialString(tuple(sorted(cells.items())))


# -- compositeness of binary integers --------------------------------------


@lru_cache(maxsize=None)
def composite_problem(width: int) -> ProblemSlice:
    """Is a fixed-width binary integer (most significant bit first)
    composite? Solutions are all candidate divisors 2..2^width-1; a divisor
    satisfies a word when it properly divides its value."""
    if width < 1:
        raise ValueError("width must be >= 1")
    slc = full_slice(BINARY, width, label=f"bin:{width}")

    def is_composite(v: int) -> bool:
        return v >= 4 and any(v % d == 0 for d in range(2, isqrt(v) + 1))

    # a word's packed index is its value, so the target is the composite
    # values and d's region is the multiples of d from 2d up: one bit
    # repeated every d bits across the cube, then shifted up by 2d
    n = slc.total_words
    full = (1 << n) - 1

    def multiples(d: int) -> int:
        return (repeat_bits(1, d, n) << 2 * d) & full

    divisors = range(2, n)
    return ProblemSlice(slc, divisors, map(multiples, divisors), label=f"composite:{width}",
                        target_mask=slc.mask_of_ints(filter(is_composite, range(n))))


# -- graph connectivity ------------------------------------------------------


@lru_cache(maxsize=None)
def connectivity_problem(vertices: int) -> ProblemSlice:
    """Is an undirected loop-free graph connected? Words are edge bitmaps
    over the vertex pairs (i, j), i < j, in lexicographic order. Solutions
    are the spanning trees of the complete graph, as tuples of edge
    positions in canonical order; a tree satisfies a word when all its
    edges are present."""
    if vertices < 2:
        raise ValueError("need at least 2 vertices")
    edges = [(i, j) for i in range(1, vertices + 1)
             for j in range(i + 1, vertices + 1)]
    slc = full_slice(BINARY, len(edges), label=f"graph:{vertices}")

    def reaches_all(edge_idxs: Iterable[int]) -> bool:
        adj: dict[int, list[int]] = {v: [] for v in range(1, vertices + 1)}
        for e in edge_idxs:
            a, b = edges[e]
            adj[a].append(b)
            adj[b].append(a)
        seen = {1}
        stack = [1]
        while stack:
            for u in adj[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == vertices

    trees = tuple(combo for combo in combinations(range(len(edges)), vertices - 1)
                  if reaches_all(combo))

    absent, present = zip(*slc.position_masks())

    # a graph is disconnected when some vertex set S holding vertex 1 but
    # not every vertex has no edge leaving it: the target is the slice
    # minus the OR over such S (bit v - 1 for vertex v) of the AND of the
    # absent masks of the edges crossing S
    disconnected = 0
    for s in range(1, (1 << vertices) - 1, 2):
        cut = slc.e_mask()
        for e, (a, b) in enumerate(edges):
            if (s >> (a - 1) ^ s >> (b - 1)) & 1:
                cut &= absent[e]
        disconnected |= cut

    def region(tree: tuple[int, ...]) -> int:
        out = slc.e_mask()
        for e in tree:
            out &= present[e]
        return out

    def tree_text(tree: tuple[int, ...]) -> str:
        return "+".join(f"{edges[e][0]}-{edges[e][1]}" for e in tree)

    return ProblemSlice(slc, trees, map(region, trees), label=f"connectivity:{vertices}",
                        target_mask=slc.e_mask() ^ disconnected, solution_text=tree_text)


# -- table-driven problems ---------------------------------------------------


def generic_problem(doc: dict) -> ProblemSlice:
    """Build a problem from an explicit JSON descriptor.

    Required keys: ``alphabet`` (list of letters), ``length``, ``universe``
    ("all" or a word list), ``target`` (word list), ``regions`` (list of
    word lists). Optional: ``label``, ``solutions`` (one name per region).
    The target must lie in the universe and the regions must cover the
    target exactly.
    """
    try:
        return _generic_problem(doc)
    except TypeError as exc:  # a value of the wrong JSON type
        raise ProblemFormatError(f"malformed descriptor: {exc}") from None


def _generic_problem(doc: dict) -> ProblemSlice:
    for key in ("alphabet", "length", "universe", "target", "regions"):
        if key not in doc:
            raise ProblemFormatError(f"descriptor is missing {key!r}")
    length = doc["length"]
    if type(length) is not int:  # not 2.5 read as 2, nor "2" or true
        raise ProblemFormatError(f"length must be an integer, got {length!r}")
    try:
        alphabet = Alphabet.of(doc["alphabet"])
    except ValueError as exc:
        raise ProblemFormatError(str(exc)) from None
    label = doc.get("label") or "generic"
    slc = Slice(alphabet, length, doc["universe"], label=f"{label}:universe")

    def words_of(texts, what: str) -> int:
        ints = []
        for t in texts:
            i = slc.int_of_word(slc.word(t))
            if not slc.contains_int(i):
                raise ProblemFormatError(f"{what} word {t!r} is outside the universe")
            ints.append(i)
        return slc.mask_of_ints(ints)

    target = words_of(doc["target"], "target")
    regions = [words_of(r, f"region {i + 1}") for i, r in enumerate(doc["regions"])]
    names = doc.get("solutions") or [f"region-{i + 1}" for i in range(len(regions))]
    if len(names) != len(regions):
        raise ProblemFormatError("one solution name per region is required")
    if len(set(names)) != len(names):
        raise ProblemFormatError("solution names must be distinct")

    return ProblemSlice(slc, tuple(names), regions, label=label, target_mask=target)
