"""Witness/wizard classification and cover analysis.

Every reduced-logogram string certifies membership in the target set. A
string that also certifies membership in some single region is a witness
for that region's solution; a string whose expansion fits inside no region
is a wizard: it promises that some solution works without naming one.
Membership of a minimal string in a region's logogram is decided at the
reduced level, which is sound because minimality transfers: a minimal
target certificate that certifies a region is minimal there too.

The cover of the target is the family of expansions of the reduced
logogram strings; its cardinality and the per-chart counts of containing
regions are reported as computed, including the cases where a chart fits
in several regions or the cover is smaller than the region count.

Regions are masks over the slice (:meth:`ProblemSlice.region_mask`) and a
string's expansion is the cylinder of its pairs (:meth:`Slice.cylinder`),
so whether an expansion fits inside a region is one AND and one comparison.
A region that holds a cylinder holds the cylinder's lowest word, so each
string makes that test only against the regions holding its lowest word;
one AND per region with the OR of all lowest words lists them. The work is
one AND per region plus one test per (string, candidate region) pair, not
one test per (string, region) pair.
"""

from __future__ import annotations

from typing import NamedTuple

from .budget import _CLOCK_STRIDE, Budget
from .engine import _expansion, _text
from .universe import set_bits


class ClassifiedString(NamedTuple):
    string: str  # the member's text at the slice length
    witness_regions: tuple[int, ...]  # indices into the problem's solutions
    is_wizard: bool


class ClassifiedLogogram(NamedTuple):
    problem_label: str
    entries: tuple[ClassifiedString, ...]

    @property
    def wizards(self) -> tuple[ClassifiedString, ...]:
        return tuple(e for e in self.entries if e.is_wizard)

    @property
    def witnesses(self) -> tuple[ClassifiedString, ...]:
        return tuple(e for e in self.entries if not e.is_wizard)


def _charts(problem, budget: Budget | None, label: str):
    """(text, cylinder, indices of the regions containing the cylinder)
    for each reduced-logogram string, in canonical order, the indices
    ascending; each text is rendered after its clock read.

    The candidates for a string are the regions holding its lowest word
    (its cylinder is non-empty, being in the target's logogram), indexed
    by that word's bit position; each cylinder is built again for its
    tests rather than kept. The search and the region tests run on one
    meter, whose clock is checked after the search, every
    ``_CLOCK_STRIDE`` cylinders and regions while the index is built, and
    then once per string.
    """
    meter = (budget or Budget.default()).start(f"{label}: {problem.label}")
    log = problem.logogram(meter=meter)
    n = 0  # strings charted

    def done():
        return f"after {n} of {len(log)} strings"

    meter.check(done)
    slc = problem.slice
    lows = 0
    for built, x in enumerate(log.pairs, 1):
        cyl = slc.cylinder(x)
        lows |= cyl & -cyl
        if not built % _CLOCK_STRIDE:
            meter.check(done)
    masks = []
    holding: dict[int, list[int]] = {}  # bit of a lowest word -> regions holding it
    for i in range(problem.alpha):
        m = problem.region_mask(i)
        masks.append(m)
        for low in set_bits(m & lows):
            holding.setdefault(low, []).append(i)
        if not (i + 1) % _CLOCK_STRIDE:
            meter.check(done)
    for n, x in enumerate(log.pairs):
        meter.check(done)
        cyl = slc.cylinder(x)
        regions = holding.get((cyl & -cyl).bit_length() - 1, ())
        yield (_text(x, slc.length, log.alphabet.letters), cyl,
               tuple(i for i in regions if cyl & masks[i] == cyl))


def classify(problem, budget: Budget | None = None) -> ClassifiedLogogram:
    """Split the reduced logogram into witnesses and wizards.

    A string is a witness for region i when its cylinder lies in that
    region's mask; a wizard fits in none.
    """
    entries = tuple(
        ClassifiedString(string=s, witness_regions=regions, is_wizard=not regions)
        for s, _cyl, regions in _charts(problem, budget, "wizards"))
    return ClassifiedLogogram(problem.label, entries)


def witness_union_complete(problem, budget: Budget | None = None) -> bool:
    """Does the union of the region logograms decide the target?

    True is the expected outcome whenever the regions cover the target; a
    False return signals a fault in an adapter or in the search. The region
    searches (:meth:`ProblemSlice.region_logograms`) run on one meter and
    one cofactor memo, so the budget bounds their distinct sub-problems.
    """
    meter = (budget or Budget.default()).start(f"witness union: {problem.label}")
    union = 0
    for log in problem.region_logograms(meter=meter):
        union |= _expansion(log.pairs, problem.slice)
    return union == problem.f_mask()


class Chart(NamedTuple):
    string: str  # the member's text at the slice length
    expansion_size: int
    containing_regions: int


class CoverReport(NamedTuple):
    problem_label: str
    charts: tuple[Chart, ...]
    region_count: int

    @property
    def total_charts(self) -> int:
        return len(self.charts)

    @property
    def multiple_containing_regions(self) -> bool:
        """Some chart fits inside more than one region."""
        return any(c.containing_regions > 1 for c in self.charts)

    @property
    def fewer_charts_than_regions(self) -> bool:
        """The cover is smaller than the solution list."""
        return self.total_charts < self.region_count


def cover(problem, budget: Budget | None = None) -> CoverReport:
    """One chart per reduced-logogram string: the size of its expansion and
    how many regions contain that expansion entirely, both read off the
    string's cylinder and the region masks."""
    charts = tuple(
        Chart(string=s, expansion_size=cyl.bit_count(), containing_regions=len(regions))
        for s, cyl, regions in _charts(problem, budget, "cover"))
    return CoverReport(problem.label, charts, problem.alpha)
