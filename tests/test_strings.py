"""Algebra of partial strings: parsing, order, meet, join, restrictions."""

from itertools import product

import pytest
from hypothesis import given, strategies as st

from logogram import (
    BLANK, TERNARY, VOID, Alphabet, FormatError, IncompatibleStrings,
    PartialString, parse_string,
)

strings = st.dictionaries(
    st.integers(min_value=1, max_value=5),
    st.sampled_from("012"),
    max_size=5,
).map(PartialString.of)


def ps(text: str) -> PartialString:
    return parse_string(text, TERNARY)


class TestParse:
    def test_all_blank_is_void(self):
        assert ps("___") == VOID
        assert ps("") == VOID

    def test_interspersed(self):
        assert ps("__11_2_2_") == PartialString.of({3: "1", 4: "1", 6: "2", 8: "2"})

    def test_trailing_blank_ignored(self):
        assert ps("1_2").pairs == ((1, "1"), (3, "2"))
        assert ps("1_2___") == ps("1_2")

    def test_unknown_character(self):
        with pytest.raises(FormatError):
            ps("1x2")

    def test_render_pads(self):
        assert ps("1_2").render() == "1_2"
        assert ps("1_2").render(5) == "1_2__"
        with pytest.raises(ValueError):
            ps("1_2").render(2)

    @given(strings)
    def test_roundtrip(self, s):
        assert parse_string(s.render(), TERNARY) == s


class TestAlphabet:
    def test_rejects_blank_and_duplicates(self):
        with pytest.raises(ValueError):
            Alphabet.of("0_1")
        with pytest.raises(ValueError):
            Alphabet.of("011")
        with pytest.raises(ValueError):
            Alphabet.of("")

    def test_index_order(self):
        assert TERNARY.index("2") == 2
        with pytest.raises(FormatError):
            TERNARY.index("x")


class TestOrder:
    def test_void_below_everything(self):
        assert VOID <= ps("102")
        assert not ps("1") <= VOID

    def test_word_extends_substring(self):
        assert PartialString.of({1: "1", 4: "2"}) <= ps("1012")

    def test_disagreement(self):
        assert not ps("1") <= ps("2")

    def test_size(self):
        assert VOID.size == 0
        assert PartialString.of({5: "2"}).size == 5

    @given(strings)
    def test_reflexive(self, f):
        assert f <= f

    @given(strings, strings)
    def test_antisymmetric(self, f, g):
        if f <= g and g <= f:
            assert f == g

    @given(strings, strings, strings)
    def test_transitive(self, f, g, h):
        if f <= g and g <= h:
            assert f <= h

    def test_strict(self):
        assert ps("1") < ps("12")
        assert not ps("12") < ps("12")


class TestMeetJoin:
    def test_meet_agreement_only(self):
        assert ps("10") & ps("12") == ps("1")

    def test_meet_with_void(self):
        assert ps("12") & VOID == VOID

    def test_meet_disjoint_domains(self):
        assert PartialString.of({1: "1"}) & PartialString.of({2: "1"}) == VOID

    def test_join_disjoint(self):
        assert (PartialString.of({1: "1"}) | PartialString.of({3: "2"})) == ps("1_2")

    def test_join_identity(self):
        assert ps("1_2") | VOID == ps("1_2")

    def test_join_clash(self):
        with pytest.raises(IncompatibleStrings):
            ps("1") | ps("2")

    def test_compatibility(self):
        assert PartialString.of({1: "1"}).compatible(PartialString.of({2: "2"}))
        assert not ps("10").compatible(ps("12"))
        f = ps("_21")
        assert f.compatible(f)

    def _exhaustive_strings(self):
        cells = [BLANK, "0", "1", "2"]
        for combo in product(cells, repeat=3):
            yield ps("".join(combo))

    def test_meet_is_greatest_lower_bound_exhaustive(self):
        # lower bounds of f are exactly the sub-maps of f, so quantifying
        # over subsets of f's assignments covers every candidate h
        universe = list(self._exhaustive_strings())
        for f in universe:
            for g in universe:
                m = f & g
                assert m <= f and m <= g
                pairs = f.pairs
                for r in range(len(pairs) + 1):
                    from itertools import combinations
                    for sub in combinations(pairs, r):
                        h = PartialString(sub)
                        if h <= g:
                            assert h <= m

    def test_join_is_least_upper_bound_exhaustive(self):
        universe = list(self._exhaustive_strings())
        for f in universe:
            for g in universe:
                if not f.compatible(g):
                    continue
                j = f | g
                assert f <= j and g <= j
                assert j.domain == tuple(sorted(set(f.domain) | set(g.domain)))
                for h in universe:
                    if f <= h and g <= h:
                        assert j <= h

    @given(strings, strings)
    def test_meet_commutes(self, f, g):
        assert f & g == g & f

    @given(strings, strings)
    def test_join_commutes_when_defined(self, f, g):
        if f.compatible(g):
            assert (f | g) == (g | f)


class TestRestrictions:
    def test_two_positions(self):
        g = ps("1_2")
        assert set(g.immediate_restrictions()) == {ps("1"), ps("__2")}

    def test_void_has_none(self):
        assert VOID.immediate_restrictions() == ()

    def test_singleton_yields_void(self):
        assert PartialString.of({5: "2"}).immediate_restrictions() == (VOID,)

    @given(strings)
    def test_each_restriction_is_strictly_below(self, g):
        for r in g.immediate_restrictions():
            assert r < g
            assert len(r) == len(g) - 1
