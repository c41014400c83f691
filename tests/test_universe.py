"""Slices: enumeration, expansion laws, string occurrence."""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from logogram import (
    BINARY, TERNARY, VOID, Alphabet, DegenerateSliceError, PartialString, Slice,
    enumerate_words, expand, extensions_in_e, full_slice, in_sigma_infinity,
    parse_string,
)


def texts(words, length):
    return [w.render(length) for w in words]


class TestEnumeration:
    def test_full_ternary_length_one(self):
        slc = full_slice(TERNARY, 1)
        assert texts(enumerate_words(slc), 1) == ["0", "1", "2"]

    def test_full_binary_length_two(self):
        slc = full_slice(BINARY, 2)
        assert texts(enumerate_words(slc), 2) == ["00", "01", "10", "11"]

    def test_predicate_filter(self):
        slc = Slice(BINARY, 2, lambda w: "1" in w.render(2))
        assert texts(enumerate_words(slc), 2) == ["01", "10", "11"]

    def test_explicit_word_list(self):
        slc = Slice(BINARY, 2, ["11", "00"])
        assert texts(enumerate_words(slc), 2) == ["00", "11"]

    def test_empty_universe_rejected(self):
        with pytest.raises(DegenerateSliceError):
            Slice(BINARY, 2, [])
        with pytest.raises(DegenerateSliceError):
            Slice(BINARY, 2, lambda w: False).word_ints()

    def test_matches_oracle_word_generation(self):
        slc = full_slice(TERNARY, 3)
        assert texts(enumerate_words(slc), 3) == oracles.all_words("012", 3)

    def test_restartable(self):
        slc = full_slice(BINARY, 2)
        assert list(enumerate_words(slc)) == list(enumerate_words(slc))


class TestMembership:
    # each slice with its words, listed directly
    CASES = [
        (lambda: full_slice(TERNARY, 2), oracles.all_words("012", 2)),
        (lambda: Slice(TERNARY, 2, ["21", "00", "12", "21"]), ["00", "12", "21"]),
        (lambda: Slice(TERNARY, 2, lambda w: w.render(2).count("1") == 1),
         ["01", "10", "12", "21"]),
    ]

    @pytest.mark.parametrize("make,words", CASES)
    def test_views_agree_with_word_list(self, make, words):
        slc = make()
        ints = tuple(int(w, 3) for w in words)
        assert slc.word_ints() == ints
        assert slc.word_count() == len(words)
        assert slc.e_mask() == sum(1 << i for i in ints)
        for i in range(-1, slc.total_words + 1):
            assert slc.contains_int(i) == (i in ints)
        for text in oracles.all_words("012", 2):
            assert slc.contains(slc.word(text)) == (text in words)


class TestPacking:
    def test_int_roundtrip(self):
        slc = full_slice(TERNARY, 3)
        for i in slc.word_ints():
            assert slc.int_of_word(slc.word_of_int(i)) == i
            assert slc.text_of_int(i) == slc.word_of_int(i).render(3)

    def test_rejects_partial_words(self):
        slc = full_slice(TERNARY, 3)
        with pytest.raises(ValueError):
            slc.int_of_word(parse_string("1_2", TERNARY))

    @pytest.mark.parametrize("alphabet,length", [
        (BINARY, 1), (BINARY, 3), (TERNARY, 3), (BINARY, 10)])
    def test_mask_roundtrip(self, alphabet, length):
        slc = full_slice(alphabet, length)
        n = slc.total_words
        rng = random.Random(length)
        shapes = [(), (0,), (n - 1,), tuple(range(n)),
                  tuple(sorted(rng.sample(range(n), n // 3)))]
        for ints in shapes:
            assert slc.ints_of_mask(slc.mask_of_ints(ints)) == ints


class TestSigmaMembership:
    def test_void_always_present(self):
        assert in_sigma_infinity(VOID, Slice(BINARY, 2, ["11"]))

    def test_missing_word(self):
        slc = Slice(BINARY, 2, ["11", "00"])
        assert not in_sigma_infinity(parse_string("10", BINARY), slc)
        assert in_sigma_infinity(parse_string("1", BINARY), slc)

    def test_position_beyond_length(self):
        slc = full_slice(TERNARY, 1)
        assert not in_sigma_infinity(PartialString.of({2: "1"}), slc)

    def test_foreign_letter(self):
        slc = full_slice(BINARY, 2)
        assert not in_sigma_infinity(parse_string("2", TERNARY), slc)

    def test_agrees_with_oracle(self):
        slc = Slice(BINARY, 3, lambda w: w.render(3).count("1") == 2)
        sigma = oracles.sigma_members([slc.text_of_int(i) for i in slc.word_ints()])
        for combo in product(["_", "0", "1"], repeat=3):
            s = parse_string("".join(combo), BINARY)
            assert in_sigma_infinity(s, slc) == (s.render(3) in sigma)


class TestExtensions:
    def test_basic(self):
        slc = full_slice(BINARY, 2)
        assert texts(extensions_in_e(parse_string("1", BINARY), slc), 2) == ["10", "11"]

    def test_total_word(self):
        slc = full_slice(BINARY, 2)
        w = slc.word("10")
        assert list(extensions_in_e(w, slc)) == [w]

    def test_absent_string_has_no_extensions(self):
        slc = Slice(BINARY, 2, ["11", "00"])
        assert list(extensions_in_e(parse_string("10", BINARY), slc)) == []

    def test_oversized_string_rejected(self):
        with pytest.raises(ValueError):
            list(extensions_in_e(PartialString.of({3: "1"}), full_slice(BINARY, 2)))

    def test_count_matches_direct_filter(self):
        slc = Slice(TERNARY, 3, lambda w: w.get(1) != "2")
        for combo in product(["_", "0", "1", "2"], repeat=3):
            g = parse_string("".join(combo), TERNARY)
            direct = [w for w in enumerate_words(slc) if g <= w]
            assert list(extensions_in_e(g, slc)) == direct


class TestCylinder:
    @pytest.mark.parametrize("alphabet,length,membership", [
        (BINARY, 1, "all"),
        (BINARY, 5, "all"),
        (TERNARY, 3, "all"),
        (BINARY, 4, lambda w: w.get(2) != "1"),
        (TERNARY, 3, lambda w: w.render(3).count("2") == 1),
    ])
    def test_matches_direct_filter(self, alphabet, length, membership):
        slc = Slice(alphabet, length, membership)
        for combo in product(["_"] + list(alphabet.letters), repeat=length):
            g = parse_string("".join(combo), alphabet)
            mask = slc.cylinder(slc.pairs_of(g))
            direct = {slc.int_of_word(w) for w in enumerate_words(slc) if g <= w}
            assert {i for i in range(slc.total_words) if mask >> i & 1} == direct


class TestCylinderOfAndLetterIndex:
    """``Slice.cylinder_of`` against ``cylinder(pairs_of(...))`` and
    ``letter_index`` against ``word_of_int`` on random slices."""

    @staticmethod
    def random_slices(rng):
        for _ in range(30):
            alphabet = (BINARY, TERNARY, Alphabet.of("abcd"))[rng.randrange(3)]
            length = rng.randint(1, 4)
            cube = [w.render(length) for w in enumerate_words(full_slice(alphabet, length))]
            if rng.random() < 0.5:
                yield Slice(alphabet, length, rng.sample(cube, rng.randint(1, len(cube))))
            else:
                keep = set(rng.sample(cube, rng.randint(1, len(cube))))
                yield Slice(alphabet, length, lambda w, keep=keep, n=length: w.render(n) in keep)

    def test_cylinder_of_matches_pairs_then_cylinder(self):
        rng = random.Random(41)
        for slc in self.random_slices(rng):
            letters = list(slc.alphabet.letters) + ["z"]  # "z" is in no alphabet here
            for _ in range(40):
                g = PartialString.of({p: rng.choice(letters)
                                      for p in range(1, slc.length + 3) if rng.random() < 0.4})
                pairs = slc.pairs_of(g)
                if pairs is None:  # a position past the length or a foreign letter
                    assert slc.cylinder_of(g) == 0
                else:
                    assert slc.cylinder_of(g) == slc.cylinder(pairs)

    def test_foreign_strings_have_empty_cylinders(self):
        slc = full_slice(BINARY, 3)
        assert slc.cylinder_of(PartialString.of({4: "1"})) == 0
        assert slc.cylinder_of(PartialString.of({1: "2"})) == 0
        assert slc.cylinder_of(VOID) == slc.e_mask()

    def test_letter_index_matches_word_of_int(self):
        rng = random.Random(42)
        for slc in self.random_slices(rng):
            for i in range(slc.total_words):
                word = slc.word_of_int(i)
                assert [slc.letter_index(i, p) for p in range(1, slc.length + 1)] == [
                    slc.alphabet.index(word.get(p)) for p in range(1, slc.length + 1)]


class TestExpand:
    def test_single_cylinder(self):
        slc = full_slice(TERNARY, 1)
        assert texts(expand([PartialString.of({1: "1"})], slc), 1) == ["1"]

    def test_void_covers_everything(self):
        slc = Slice(BINARY, 2, ["01", "10"])
        assert texts(expand([VOID], slc), 2) == ["01", "10"]

    def test_union_of_cylinders(self):
        slc = full_slice(BINARY, 2)
        h = [PartialString.of({1: "1"}), PartialString.of({2: "1"})]
        assert texts(expand(h, slc), 2) == ["01", "10", "11"]

    def test_empty_set(self):
        assert expand([], full_slice(BINARY, 2)) == ()

    def test_foreign_strings_contribute_nothing(self):
        slc = full_slice(BINARY, 2)
        assert expand([PartialString.of({9: "1"})], slc) == ()


def _random_string_sets(slc, rng, count, size=3):
    pool = [oracles.restrictions(slc.text_of_int(i)) for i in slc.word_ints()]
    flat = sorted({s for rs in pool for s in rs})
    for _ in range(count):
        yield [parse_string(t, slc.alphabet) for t in rng.sample(flat, min(size, len(flat)))]


class TestExpansionLaws:
    """Union, intersection, monotonicity, idempotence of the expansion."""

    slices = [
        full_slice(BINARY, 3),
        full_slice(TERNARY, 2),
        Slice(BINARY, 4, lambda w: w.render(4).count("1") % 2 == 0, label="even"),
    ]

    def test_union_law_exhaustive_singletons(self):
        for slc in self.slices:
            sigma = sorted(oracles.sigma_members(
                [slc.text_of_int(i) for i in slc.word_ints()]))
            strings = [parse_string(t, slc.alphabet) for t in sigma]
            for f in strings[:40]:
                for g in strings[:40]:
                    lhs = set(expand([f, g], slc))
                    rhs = set(expand([f], slc)) | set(expand([g], slc))
                    assert lhs == rhs

    def test_union_and_join_laws_random(self):
        rng = random.Random(11)
        for slc in self.slices:
            for H in _random_string_sets(slc, rng, 25):
                K = next(iter(_random_string_sets(slc, rng, 1)))
                assert set(expand(H + K, slc)) == set(expand(H, slc)) | set(expand(K, slc))
                joins = [f | g for f in H for g in K if f.compatible(g)]
                assert set(expand(joins, slc)) == set(expand(H, slc)) & set(expand(K, slc))

    def test_monotone(self):
        rng = random.Random(5)
        for slc in self.slices:
            for K in _random_string_sets(slc, rng, 25, size=4):
                H = [s for s in K if rng.random() < 0.5]
                assert set(expand(H, slc)) <= set(expand(K, slc))

    def test_idempotent(self):
        rng = random.Random(7)
        for slc in self.slices:
            for H in _random_string_sets(slc, rng, 25):
                once = expand(H, slc)
                assert expand(once, slc) == once

    def test_incompatible_strings_share_no_word(self):
        for slc in self.slices:
            sigma = sorted(oracles.sigma_members(
                [slc.text_of_int(i) for i in slc.word_ints()]))
            strings = [parse_string(t, slc.alphabet) for t in sigma]
            for f in strings:
                for g in strings:
                    if not f.compatible(g):
                        assert not (set(expand([f], slc)) & set(expand([g], slc)))


class TestDescriptors:
    def test_full_roundtrip(self):
        slc = full_slice(TERNARY, 2, label="demo")
        doc = slc.descriptor()
        back = Slice.from_descriptor(doc)
        assert back.word_ints() == slc.word_ints()
        assert doc["membership"] == "all"

    def test_explicit_roundtrip(self):
        slc = Slice(BINARY, 2, ["11", "00"], label="pair")
        back = Slice.from_descriptor(slc.descriptor())
        assert back.word_ints() == slc.word_ints()

    @pytest.mark.parametrize("doc,message", [
        ({"alphabet": ["0", "1"], "length": 2.5, "membership": ["01", "11"]},
         "length must be an integer"),
        ({"alphabet": ["0", "1"], "length": True}, "length must be an integer"),
        ({"alphabet": ["0", "1"], "length": "2"}, "length must be an integer"),
        ({"alphabet": "01", "length": 2, "membership": ["01", "11"]},
         "alphabet must be a list"),
        ({"alphabet": ["0", "1"], "length": 1, "membership": "1"},
         'membership must be "all" or a list'),
    ], ids=["fractional-length", "bool-length", "text-length", "text-alphabet",
            "text-membership"])
    def test_malformed_descriptor_rejected(self, doc, message):
        # not truncated to length 2, nor split letter by letter
        with pytest.raises(ValueError, match=message):
            Slice.from_descriptor(doc)

    def test_predicate_descriptor_names_adapter(self):
        slc = Slice(BINARY, 2, lambda w: True, label="everything")
        assert slc.descriptor()["membership"] == {"adapter": "everything"}


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=3 ** 3 - 1))
def test_word_int_agrees_with_text_position(i):
    slc = full_slice(TERNARY, 3)
    text = slc.text_of_int(i)
    assert int(text, 3) == i
