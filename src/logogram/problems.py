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
from operator import and_, or_
from typing import Callable, Iterable

from .budget import Budget
from .engine import Antichain, reduced_logogram_of_mask
from .strings import BINARY, TERNARY, Alphabet, FormatError, PartialString
from .universe import Slice, count, repeat_bits
from .values import Value


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
                f"({count(union)} region words vs "
                f"{count(target_mask)} target words)")
        if slc.stray(union) is not None:
            raise ProblemFormatError(f"{label}: regions hold words outside the slice")
        self._f_mask = union
        if not union:
            raise DegenerateProblemError(f"{label}: empty target set")
        if not slc.complement(union):
            raise DegenerateProblemError(f"{label}: target set is the whole slice")
        self._logogram: Antichain | None = None
        self._region_logograms: tuple[Antichain, ...] | None = None

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

    def logogram(self, budget: Budget | None = None, meter=None) -> Antichain:
        if self._logogram is None:
            self._logogram = reduced_logogram_of_mask(self._f_mask, self.slice, budget,
                                                      meter=meter)
        return self._logogram

    def region_logograms(self, meter=None) -> tuple[Antichain, ...]:
        """Every region's reduced logogram, in solution order, by searches sharing one
        meter and one cofactor memo: each distinct sub-problem is charged once."""
        if self._region_logograms is None:
            meter = meter or Budget.default().start("region logograms")
            memo: dict = {}
            self._region_logograms = tuple(
                reduced_logogram_of_mask(m, self.slice, meter=meter, memo=memo)
                for m in self._region_masks)
        return self._region_logograms

    def descriptor(self) -> dict:
        slc = self.slice
        return {
            "label": self.label,
            "alphabet": list(slc.alphabet.letters),
            "length": slc.length,
            "universe": slc.descriptor()["membership"],
            "target": [slc.text_of_int(i) for i in slc.ints_of_mask(self._f_mask)],
            "regions": [[slc.text_of_int(i) for i in slc.ints_of_mask(m)]
                        for m in self._region_masks],
            "solutions": [self.solution_text(y) for y in self.solutions],
        }

    def __repr__(self) -> str:
        return f"ProblemSlice({self.label!r})"


# -- CNF satisfiability ----------------------------------------------------


class CnfShape(Value):
    """Instance size of the clause encoding: words of length
    var_count * clause_count over {0,1,2}, one block of var_count codes per
    clause; 0 = variable absent, 1 = positive literal, 2 = negated.
    Shapes are immutable values, equal when both counts are."""

    _fields = ("var_count", "clause_count")
    CODES = ("2", "1")  # a literal's slot code, by polarity: negated, positive

    def __init__(self, var_count: int, clause_count: int):
        if var_count < 1 or clause_count < 1:
            raise ValueError("var_count and clause_count must be >= 1")
        super().__init__(var_count, clause_count)

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

    def true_literals(self, bits: tuple[bool, ...]) -> tuple[tuple[tuple[int, str], ...], ...]:
        """Per clause, each slot's position with the code the assignment
        makes true there: 1 where its variable is true, 2 where false."""
        codes = [self.CODES[b] for b in bits]
        return tuple(tuple((self.position(c, v), code) for v, code in enumerate(codes, 1))
                     for c in range(1, self.clause_count + 1))


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
    slc = Slice(TERNARY, shape.length, label=f"cnf:{n}x{m}")
    solutions = tuple(
        tuple(bool((i >> v) & 1) for v in range(n)) for i in range(2 ** n))

    # an assignment satisfies a formula when every clause holds a literal it makes true
    def region(bits: tuple[bool, ...]) -> int:
        return reduce(and_, (slc.expansion(((p, TERNARY.index(code)),) for p, code in clause)
                             for clause in shape.true_literals(bits)))

    return ProblemSlice(slc, solutions, map(region, solutions), label=f"sat:{n}x{m}",
                        solution_text=_assignment_text, cnf_shape=shape)


def predicted_sat_logogram(shape: CnfShape) -> Antichain:
    """The closed-form candidate for the reduced logogram of SAT: every
    choice of one literal per clause that a single assignment makes true.

    These are the consistent choices: no variable is picked positively in
    one clause and negatively in another. Whether this equals the computed
    reduced logogram is checked by the acceptance suite, not assumed.
    """
    choices = {choice for bits in product((False, True), repeat=shape.var_count)
               for choice in product(*shape.true_literals(bits))}
    return Antichain.of(map(PartialString, choices), TERNARY)


def gamma(string: PartialString, shape: CnfShape) -> PartialString:
    """The formula whose clauses are exactly the literals one consistent
    selection prescribes: the selection's positions keep their codes and
    every other position is 0.

    The result is a satisfiable word extending the selection, and the
    selection is the only reduced-logogram member it contains.
    """
    wanted: dict[int, str] = {}  # variable -> the code its literals carry
    for p, ch in string.pairs:
        if not 1 <= p <= shape.length:
            raise ValueError(f"position {p} outside the {shape.length}-letter shape")
        if ch not in shape.CODES:
            raise ValueError(f"selections prescribe only literal codes, got {ch!r}")
        if wanted.setdefault(shape.var_of(p), ch) != ch:
            raise ValueError(f"variable x{shape.var_of(p)} prescribed with both polarities")
    if sorted(shape.clause_of(p) for p, _ in string.pairs) != [*range(1, shape.clause_count + 1)]:
        raise ValueError("selection must prescribe exactly one literal per clause")
    fixed = dict(string.pairs)
    return PartialString(tuple((p, fixed.get(p, "0")) for p in range(1, shape.length + 1)))


def formula_word(doc: dict) -> tuple[CnfShape, PartialString]:
    """Encode a clause-list document {"n": ..., "clauses": [[1, 3, -4], ...]}
    as a word of the clause encoding: ``n`` an integer >= 1, ``clauses`` a
    non-empty list of lists of integer literals, each 1 <= |literal| <= n."""
    try:
        n, clauses = doc["n"], doc["clauses"]
    except (KeyError, TypeError) as exc:
        raise ProblemFormatError(f"clause document needs 'n' and 'clauses': {exc}") from None
    if type(n) is not int or n < 1:  # not 1.5, "2" or true
        raise ProblemFormatError(f"n must be an integer >= 1, got {n!r}")
    if not _typed(clauses, list, "clauses"):
        raise ProblemFormatError("at least one clause is required")
    shape = CnfShape(n, len(clauses))
    cells = {p: "0" for p in range(1, shape.length + 1)}
    for c, clause in enumerate(clauses, start=1):
        for lit in _typed(clause, list, f"clause {c}"):
            if type(lit) is not int or not 1 <= (var := abs(lit)) <= n:
                raise ProblemFormatError(f"clause {c}: literal {lit!r} is no integer in ±1..{n}")
            p = shape.position(c, var)
            code = shape.CODES[lit > 0]
            if cells[p] not in ("0", code):
                raise ProblemFormatError(
                    f"clause {c} uses x{var} with both polarities; "
                    "the encoding has one slot per variable and clause")
            cells[p] = code
    return shape, PartialString(cells)


# -- compositeness of binary integers --------------------------------------


@lru_cache(maxsize=None)
def composite_problem(width: int) -> ProblemSlice:
    """Is a fixed-width binary integer (most significant bit first)
    composite? Solutions are all candidate divisors 2..2^width-1; a divisor
    satisfies a word when it properly divides its value."""
    if width < 1:
        raise ValueError("width must be >= 1")
    slc = Slice(BINARY, width, label=f"bin:{width}")

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
    slc = Slice(BINARY, len(edges), label=f"graph:{vertices}")

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

    # a graph is disconnected when some vertex set S holding vertex 1 but
    # not every vertex has no edge leaving it: the target is the slice
    # minus the OR over such S (bit v - 1 for vertex v) of the cylinder of
    # the edges crossing S, absent
    disconnected = slc.expansion(
        tuple((e + 1, 0) for e, (a, b) in enumerate(edges) if (s >> (a - 1) ^ s >> (b - 1)) & 1)
        for s in range(1, (1 << vertices) - 1, 2))

    def region(tree: tuple[int, ...]) -> int:
        return slc.cylinder(tuple((e + 1, 1) for e in tree))

    def tree_text(tree: tuple[int, ...]) -> str:
        return "+".join(f"{edges[e][0]}-{edges[e][1]}" for e in tree)

    return ProblemSlice(slc, trees, map(region, trees), label=f"connectivity:{vertices}",
                        target_mask=slc.complement(disconnected), solution_text=tree_text)


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


def _typed(value, kind: type, what: str):
    """Check a descriptor value's JSON type: a string read as a list splits into letters."""
    if not isinstance(value, kind):
        raise ProblemFormatError(f"{what} must be a {kind.__name__}, got {value!r}")
    return value


def _words(value, what: str) -> list:
    """A descriptor's word list: texts only, never packed numbers."""
    for w in _typed(value, list, what):
        _typed(w, str, f"{what} word")
    return value


def _generic_problem(doc: dict) -> ProblemSlice:
    for key in ("alphabet", "length", "universe", "target", "regions"):
        if key not in doc:
            raise ProblemFormatError(f"descriptor is missing {key!r}")
    length = doc["length"]
    if type(length) is not int:  # not 2.5 read as 2, nor "2" or true
        raise ProblemFormatError(f"length must be an integer, got {length!r}")
    try:
        alphabet = Alphabet(_typed(doc["alphabet"], list, "alphabet"))
    except ValueError as exc:
        raise ProblemFormatError(str(exc)) from None
    label = _typed(doc.get("label", ""), str, "label") or "generic"
    universe = doc["universe"]
    if universe != "all":
        _words(universe, "universe")
    try:
        slc = Slice(alphabet, length, universe, label=f"{label}:universe")
    except FormatError as exc:
        raise ProblemFormatError(f"universe: {exc}") from None

    def words_of(texts, what: str) -> int:
        try:
            mask = slc.mask_of_words(_words(texts, what))
        except FormatError as exc:
            raise ProblemFormatError(f"{what}: {exc}") from None
        stray = slc.stray(mask)
        if stray is not None:
            raise ProblemFormatError(
                f"{what} word {slc.text_of_int(stray)!r} is outside the universe")
        return mask

    target = words_of(doc["target"], "target")
    regions = [words_of(r, f"region {i + 1}") for i, r in enumerate(doc["regions"])]
    names = _typed(doc.get("solutions", []), list, "solutions") or [
        f"region-{i + 1}" for i in range(len(regions))]
    if len(names) != len(regions):
        raise ProblemFormatError("one solution name per region is required")
    if len(set(names)) != len(names):
        raise ProblemFormatError("solution names must be distinct")

    return ProblemSlice(slc, tuple(names), regions, label=label, target_mask=target)
