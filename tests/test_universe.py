"""Slices: enumeration, expansion laws, string occurrence."""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from logogram import (
    BINARY, TERNARY, VOID, Alphabet, DegenerateSliceError, PartialString, Slice, expand,
)
from logogram.universe import count, holds, set_bits


def texts(words, length):
    return [w.render(length) for w in words]


def words(slc):
    """The words of the slice in canonical (lexicographic) order."""
    return [slc.word_of_int(i) for i in slc.word_ints()]


def extensions(string, slc):
    """The words of the slice extending the string, in canonical order."""
    return [slc.word_of_int(i) for i in slc.ints_of_mask(slc.cylinder_of(string))]


class TestEnumeration:
    def test_full_ternary_length_one(self):
        slc = Slice(TERNARY, 1)
        assert texts(words(slc), 1) == ["0", "1", "2"]

    def test_full_binary_length_two(self):
        slc = Slice(BINARY, 2)
        assert texts(words(slc), 2) == ["00", "01", "10", "11"]

    def test_explicit_word_list(self):
        slc = Slice(BINARY, 2, ["11", "00"])
        assert texts(words(slc), 2) == ["00", "11"]

    def test_empty_universe_rejected(self):
        with pytest.raises(DegenerateSliceError):
            Slice(BINARY, 2, [])

    def test_matches_oracle_word_generation(self):
        slc = Slice(TERNARY, 3)
        assert texts(words(slc), 3) == oracles.all_words("012", 3)

    def test_restartable(self):
        slc = Slice(BINARY, 2)
        assert words(slc) == words(slc)


class TestConstruction:
    @pytest.mark.parametrize("build,message", [
        (lambda: Slice(BINARY, 0), "length must be >= 1"),
        (lambda: Slice(BINARY, True), "^length must be >= 1 and an int, got True$"),
        (lambda: Slice(BINARY, 2.0), "^length must be >= 1 and an int, got 2.0$"),
        (lambda: Slice(BINARY, 23), "exceeds the supported size"),
        (lambda: Slice(BINARY, 2).mask_of_words(["1"]), "not a word of length 2"),
        (lambda: Slice(BINARY, 2, ["11", "1"]), "not a word of length 2"),
        (lambda: Slice(BINARY, 2, ["1_"]), "not a word of length 2"),
        (lambda: Slice(BINARY, 2, ["12"]), "not a word of length 2"),
        (lambda: Slice(BINARY, 2, [PartialString.parse("1", BINARY)]), "not a word of length 2"),
        (lambda: Slice(BINARY, 2, [PartialString({3: "1"})]), "not a word of length 2"),
        (lambda: Slice(BINARY, 2, [4]), "not a word of length 2"),
        (lambda: Slice(BINARY, 2, [-1]), "not a word of length 2"),
        (lambda: Slice(BINARY, 2, [True]), "^True is not a word of length 2 over '01'$"),
        (lambda: Slice(BINARY, 2).mask_of_words([0, False]),
         "^False is not a word of length 2 over '01'$"),
    ], ids=["length-0", "length-bool", "length-float", "too-many-words", "short-text",
            "short-member", "blank-member", "foreign-letter-member", "partial-string-member",
            "long-string-member", "packed-member-past-the-cube", "negative-packed-member",
            "bool-member", "bool-word"])
    def test_rejects(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()


class TestMembership:
    # each slice with its words, listed directly
    CASES = [
        (lambda: Slice(TERNARY, 2), oracles.all_words("012", 2)),
        (lambda: Slice(TERNARY, 2, ["21", "00", "12", "21"]), ["00", "12", "21"]),
        (lambda: Slice(TERNARY, 2, oracles.words_where("012", 2, lambda w: w.count("1") == 1)),
         ["01", "10", "12", "21"]),
    ]

    @pytest.mark.parametrize("make,words", CASES)
    def test_views_agree_with_word_list(self, make, words):
        slc = make()
        ints = tuple(int(w, 3) for w in words)
        assert slc.word_ints() == ints
        assert slc.word_count() == len(words)
        assert slc.e_mask() == sum(1 << i for i in ints)
        # texts, total strings and packed ints pack to the same mask
        assert slc.mask_of_words(words) == slc.e_mask()
        assert slc.mask_of_words([PartialString.parse(w, TERNARY) for w in words]) == slc.e_mask()
        assert slc.mask_of_words(ints) == slc.e_mask()


class TestPacking:
    def test_int_roundtrip(self):
        slc = Slice(TERNARY, 3)
        for i in slc.word_ints():
            assert slc.mask_of_words([slc.word_of_int(i)]) == 1 << i
            assert slc.text_of_int(i) == slc.word_of_int(i).render(3)

    def test_rejects_partial_words(self):
        slc = Slice(TERNARY, 3)
        with pytest.raises(ValueError):
            slc.mask_of_words([PartialString.parse("1_2", TERNARY)])

    @pytest.mark.parametrize("alphabet,length", [
        (BINARY, 1), (BINARY, 3), (TERNARY, 3), (BINARY, 10)])
    def test_mask_roundtrip(self, alphabet, length):
        slc = Slice(alphabet, length)
        n = slc.total_words
        rng = random.Random(length)
        shapes = [(), (0,), (n - 1,), tuple(range(n)),
                  tuple(sorted(rng.sample(range(n), n // 3)))]
        for ints in shapes:
            assert slc.ints_of_mask(slc.mask_of_ints(ints)) == ints


class TestSigmaMembership:
    def test_void_always_present(self):
        assert Slice(BINARY, 2, ["11"]).cylinder_of(VOID) != 0

    def test_missing_word(self):
        slc = Slice(BINARY, 2, ["11", "00"])
        assert slc.cylinder_of(PartialString.parse("10", BINARY)) == 0
        assert slc.cylinder_of(PartialString.parse("1", BINARY)) != 0

    def test_position_beyond_length(self):
        slc = Slice(TERNARY, 1)
        assert slc.cylinder_of(PartialString({2: "1"})) == 0

    def test_foreign_letter(self):
        slc = Slice(BINARY, 2)
        assert slc.cylinder_of(PartialString.parse("2", TERNARY)) == 0

    def test_agrees_with_oracle(self):
        slc = Slice(BINARY, 3, oracles.words_where("01", 3, lambda w: w.count("1") == 2))
        sigma = oracles.sigma_members([slc.text_of_int(i) for i in slc.word_ints()])
        for combo in product(["_", "0", "1"], repeat=3):
            s = PartialString.parse("".join(combo), BINARY)
            assert (slc.cylinder_of(s) != 0) == (s.render(3) in sigma)


class TestExtensions:
    def test_basic(self):
        slc = Slice(BINARY, 2)
        assert texts(extensions(PartialString.parse("1", BINARY), slc), 2) == ["10", "11"]

    def test_total_word(self):
        slc = Slice(BINARY, 2)
        w = PartialString.parse("10", BINARY)
        assert extensions(w, slc) == [w]

    def test_absent_string_has_no_extensions(self):
        slc = Slice(BINARY, 2, ["11", "00"])
        assert extensions(PartialString.parse("10", BINARY), slc) == []

    def test_count_matches_direct_filter(self):
        slc = Slice(TERNARY, 3, oracles.words_where("012", 3, lambda w: w[0] != "2"))
        for combo in product(["_", "0", "1", "2"], repeat=3):
            g = PartialString.parse("".join(combo), TERNARY)
            direct = [w for w in words(slc) if g <= w]
            assert extensions(g, slc) == direct


class TestCylinder:
    @pytest.mark.parametrize("alphabet,length,membership", [
        (BINARY, 1, "all"),
        (BINARY, 5, "all"),
        (TERNARY, 3, "all"),
        (BINARY, 4, lambda w: w[1] != "1"),
        (TERNARY, 3, lambda w: w.count("2") == 1),
    ])
    def test_matches_direct_filter(self, alphabet, length, membership):
        if membership != "all":
            membership = oracles.words_where("".join(alphabet.letters), length, membership)
        slc = Slice(alphabet, length, membership)
        for combo in product(["_"] + list(alphabet.letters), repeat=length):
            g = PartialString.parse("".join(combo), alphabet)
            mask = slc.cylinder(slc.pairs_of(g))
            direct = {i for i in slc.word_ints() if g <= slc.word_of_int(i)}
            assert {i for i in range(slc.total_words) if mask >> i & 1} == direct


class TestCylinderOfAndLettersOf:
    """``Slice.cylinder_of`` against ``cylinder(pairs_of(...))`` on random
    slices, and the decoding and splitting of packed words against counting
    order over the letter indices."""

    @staticmethod
    def random_slices(rng):
        for _ in range(30):
            alphabet = (BINARY, TERNARY, Alphabet("abcd"))[rng.randrange(3)]
            length = rng.randint(1, 4)
            cube = [w.render(length) for w in words(Slice(alphabet, length))]
            if rng.random() < 0.5:
                yield Slice(alphabet, length, rng.sample(cube, rng.randint(1, len(cube))))
            else:
                keep = set(rng.sample(cube, rng.randint(1, len(cube))))
                yield Slice(alphabet, length, oracles.words_where(
                    "".join(alphabet.letters), length, keep.__contains__))

    def test_cylinder_of_matches_pairs_then_cylinder(self):
        rng = random.Random(41)
        for slc in self.random_slices(rng):
            letters = list(slc.alphabet.letters) + ["z"]  # "z" is in no alphabet here
            for _ in range(40):
                g = PartialString({p: rng.choice(letters)
                                   for p in range(1, slc.length + 3) if rng.random() < 0.4})
                pairs = slc.pairs_of(g)
                if pairs is None:  # a position past the length or a foreign letter
                    assert slc.cylinder_of(g) == 0
                else:
                    assert slc.cylinder_of(g) == slc.cylinder(pairs)

    def test_foreign_strings_have_empty_cylinders(self):
        slc = Slice(BINARY, 3)
        assert slc.cylinder_of(PartialString({4: "1"})) == 0
        assert slc.cylinder_of(PartialString({1: "2"})) == 0
        assert slc.cylinder_of(VOID) == slc.e_mask()

    @staticmethod
    def cubes():
        # k = 1..3, odd and even L, L = 1 among them
        return [Slice(alphabet, length) for alphabet in (Alphabet("a"), BINARY, TERNARY)
                for length in range(1, 6)]

    def test_letters_of_matches_counting_order(self):
        rng = random.Random(42)
        for slc in [*self.random_slices(rng), *self.cubes()]:
            k, letters = len(slc.alphabet), slc.alphabet.letters
            for i, digits in enumerate(product(range(k), repeat=slc.length)):
                assert slc.letters_of(i) == digits
                assert slc.text_of_int(i) == "".join(letters[d] for d in digits)
                assert slc.word_of_int(i) == PartialString(tuple(enumerate(slc.text_of_int(i), 1)))

    def test_cofactors_match_direct_filter(self):
        rng = random.Random(43)
        for slc in self.cubes():
            k, length = len(slc.alphabet), slc.length
            for p in range(1, length + 1):
                tails = list(product(range(k), repeat=length - p + 1))
                rest = {t: j for j, t in enumerate(product(range(k), repeat=length - p))}
                for _ in range(10):
                    mask = rng.getrandbits(len(tails))
                    direct = [sum(1 << rest[t[1:]] for j, t in enumerate(tails)
                                  if t[0] == d and mask >> j & 1) for d in range(k)]
                    assert slc.cofactors(mask, p) == direct


class TestWordsExtending:
    def test_matches_the_cylinder_in_order(self):
        # summed from the position weights, or read off the cylinder: the
        # cylinder's words, ascending, either way
        rng = random.Random(7)
        for _ in range(300):
            k, length = rng.randint(1, 4), rng.randint(1, 6)
            alphabet = Alphabet("abcd"[:k])
            n = k ** length
            membership = "all" if rng.random() < 0.5 else (
                [i for i in range(n) if rng.random() < 0.4] or [rng.randrange(n)])
            slc = Slice(alphabet, length, membership)
            pairs = tuple((p, rng.randrange(k))
                          for p in range(1, length + 1) if rng.random() < 0.4)
            assert list(slc.words_extending(pairs)) == list(set_bits(slc.cylinder(pairs)))

    @pytest.mark.parametrize("density", [0.001, 0.1, 0.4, 0.7])
    def test_sparse_and_dense_explicit_sets_on_a_larger_cube(self, density):
        # 4^7 words: a dense explicit set is summed and kept where E holds its
        # words, a sparse one read off the cylinder
        rng, n = random.Random(density), 4 ** 7
        slc = Slice(Alphabet("abcd"), 7, [i for i in range(n) if rng.random() < density] or [0])
        for _ in range(20):
            fine = rng.choice([0.3, 0.9])  # coarse leaves and leaves of a few words
            pairs = tuple((p, rng.randrange(4)) for p in range(1, 8) if rng.random() < fine)
            assert list(slc.words_extending(pairs)) == list(set_bits(slc.cylinder(pairs)))


class TestWordSetPrimitives:
    """Each word-set primitive against a loop over the words of the cube,
    word i holding the i-th letter tuple in counting order."""

    SLICES = [
        lambda: Slice(BINARY, 3),
        lambda: Slice(TERNARY, 2),
        lambda: Slice(Alphabet("abcd"), 3),
        lambda: Slice(BINARY, 4, oracles.words_where("01", 4, lambda w: w[1] != "1")),
        lambda: Slice(TERNARY, 3, oracles.words_where("012", 3, lambda w: w.count("2") == 1)),
        lambda: Slice(TERNARY, 2, ["21"]),
    ]

    @staticmethod
    def cube(slc):
        """(packed word, letter indices, in E) for every word of the cube."""
        e = set(slc.word_ints())
        return [(i, digits, i in e) for i, digits in
                enumerate(product(range(len(slc.alphabet)), repeat=slc.length))]

    @staticmethod
    def masks(slc, rng):
        """Random masks over the cube, and the empty, E and whole-cube masks."""
        n = slc.total_words
        return [0, slc.e_mask(), (1 << n) - 1, *(rng.getrandbits(n) for _ in range(20))]

    @staticmethod
    def random_pairs(slc, rng):
        k = len(slc.alphabet)
        return tuple((p, rng.randrange(k))
                     for p in range(1, slc.length + 1) if rng.random() < 0.4)

    @pytest.mark.parametrize("make", SLICES)
    def test_restrict_cylinder_and_expansion(self, make):
        slc, rng = make(), random.Random(51)
        cube = self.cube(slc)

        def extending(mask, pairs):
            return sum(1 << i for i, digits, _ in cube
                       if mask >> i & 1 and all(digits[p - 1] == d for p, d in pairs))

        for mask in self.masks(slc, rng):
            assert slc.restrict(mask, ()) == mask  # the empty restriction
            for _ in range(10):
                pairs = self.random_pairs(slc, rng)
                assert slc.restrict(mask, pairs) == extending(mask, pairs)
        for _ in range(20):
            pairs = self.random_pairs(slc, rng)
            assert slc.cylinder(pairs) == extending(slc.e_mask(), pairs)
            strings = [self.random_pairs(slc, rng) for _ in range(rng.randrange(4))]
            assert slc.expansion(strings) == sum(
                1 << i for i, digits, in_e in cube
                if in_e and any(all(digits[p - 1] == d for p, d in x) for x in strings))

    @pytest.mark.parametrize("make", SLICES)
    def test_complement_and_stray(self, make):
        slc, rng = make(), random.Random(52)
        cube = self.cube(slc)
        for mask in self.masks(slc, rng):
            assert slc.complement(mask) == sum(
                1 << i for i, _, in_e in cube if in_e and not mask >> i & 1)
            outside = [i for i, _, in_e in cube if mask >> i & 1 and not in_e]
            assert slc.stray(mask) == (outside[0] if outside else None)
            # a mask with no word outside E
            assert slc.stray(mask & slc.e_mask()) is None

    @pytest.mark.parametrize("make", SLICES)
    def test_forced_row(self, make):
        slc, rng = make(), random.Random(53)
        cube, k = self.cube(slc), len(slc.alphabet)
        for mask in self.masks(slc, rng):
            if not mask:
                continue
            held = [digits for i, digits, _ in cube if mask >> i & 1]
            assert slc.forced_row(mask) == [
                column[0] if len(set(column)) == 1 else k for column in zip(*held)]
        if slc.is_full:  # the void string's cylinder forces no letter
            assert slc.forced_row(slc.cylinder(())) == [k] * slc.length

    @pytest.mark.parametrize("make", SLICES)
    def test_count_and_holds(self, make):
        slc, rng = make(), random.Random(54)
        for mask in self.masks(slc, rng):
            words = [i for i, _, _ in self.cube(slc) if mask >> i & 1]
            assert count(mask) == len(words)
            assert [i for i in range(slc.total_words) if holds(mask, i)] == words
        assert slc.word_count() == count(slc.e_mask())


class TestExpand:
    def test_single_cylinder(self):
        slc = Slice(TERNARY, 1)
        assert texts(expand([PartialString({1: "1"})], slc), 1) == ["1"]

    def test_void_covers_everything(self):
        slc = Slice(BINARY, 2, ["01", "10"])
        assert texts(expand([VOID], slc), 2) == ["01", "10"]

    def test_union_of_cylinders(self):
        slc = Slice(BINARY, 2)
        h = [PartialString({1: "1"}), PartialString({2: "1"})]
        assert texts(expand(h, slc), 2) == ["01", "10", "11"]

    def test_empty_set(self):
        assert expand([], Slice(BINARY, 2)) == ()

    def test_foreign_strings_contribute_nothing(self):
        slc = Slice(BINARY, 2)
        assert expand([PartialString({9: "1"})], slc) == ()


def _random_string_sets(slc, rng, count, size=3):
    pool = [oracles.restrictions(slc.text_of_int(i)) for i in slc.word_ints()]
    flat = sorted({s for rs in pool for s in rs})
    for _ in range(count):
        yield [PartialString.parse(t, slc.alphabet) for t in rng.sample(flat, min(size, len(flat)))]


class TestExpansionLaws:
    """Union, intersection, monotonicity, idempotence of the expansion."""

    slices = [
        Slice(BINARY, 3),
        Slice(TERNARY, 2),
        Slice(BINARY, 4, oracles.words_where("01", 4, lambda w: w.count("1") % 2 == 0),
              label="even"),
    ]

    def test_union_law_exhaustive_singletons(self):
        for slc in self.slices:
            sigma = sorted(oracles.sigma_members(
                [slc.text_of_int(i) for i in slc.word_ints()]))
            strings = [PartialString.parse(t, slc.alphabet) for t in sigma]
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
            strings = [PartialString.parse(t, slc.alphabet) for t in sigma]
            for f in strings:
                for g in strings:
                    if not f.compatible(g):
                        assert not (set(expand([f], slc)) & set(expand([g], slc)))


class TestDescriptors:
    def test_full_and_explicit_descriptors(self):
        demo, pair = Slice(TERNARY, 2, label="demo"), Slice(BINARY, 2, ["11", "00"], label="pair")
        assert demo.descriptor() == {
            "alphabet": ["0", "1", "2"], "length": 2, "label": "demo", "membership": "all"}
        assert pair.descriptor() == {
            "alphabet": ["0", "1"], "length": 2, "label": "pair", "membership": ["00", "11"]}
        assert (repr(demo), repr(pair)) == ("Slice('demo', length=2)", "Slice('pair', length=2)")


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=3 ** 3 - 1))
def test_word_int_agrees_with_text_position(i):
    slc = Slice(TERNARY, 3)
    text = slc.text_of_int(i)
    assert int(text, 3) == i
