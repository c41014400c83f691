"""Logogram membership, reduced logograms vs. the oracle, closures,
entanglement, completeness, irreducibility, independence, Galois laws."""

import random
import re
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import logogram.budget
import logogram.engine
import oracles
from logogram import (
    BINARY, TERNARY, VOID, Alphabet, Antichain, Budget, BudgetExceededError,
    PartialString, Slice, closure_ab_contains, closure_ba, entangles,
    expand, full_slice, in_logogram, internal_independence,
    irreducibility_report, is_closed, is_complete,
    isoexpansive, reduced_logogram, simple_independence,
    strong_independence, verify_galois, generic_problem, predicted_sat_logogram,
    sat_problem, composite_problem, connectivity_problem, classify, cover,
    forward_assignment_scan, kernel, trace_records,
)
from logogram.cli import main
from logogram.universe import lowest


def ps(text, alphabet=TERNARY):
    return PartialString.parse(text, alphabet)


def all_strings(alphabet, length):
    cells = ["_"] + list(alphabet.letters)
    for combo in product(cells, repeat=length):
        yield PartialString.parse("".join(combo), alphabet)


def oracle_antichain(slc, target_ints):
    e_texts = [slc.text_of_int(i) for i in slc.word_ints()]
    a_texts = [slc.text_of_int(i) for i in sorted(target_ints)]
    return oracles.brute_reduced_logogram(e_texts, a_texts)


class TestAntichainOf:
    def test_rejects_comparable_pair_in_either_order(self):
        low, high, other = ps("1_"), ps("12"), ps("_0")
        for strings in ([low, high], [high, low], [other, high, low], [high, other, low]):
            with pytest.raises(ValueError, match="not an antichain"):
                Antichain.of(strings, TERNARY)

    def test_rejects_void_with_any_other_string(self):
        assert Antichain.of([VOID], TERNARY).elements == (VOID,)
        for text in ["0", "_2", "21", "__1"]:
            with pytest.raises(ValueError):
                Antichain.of([VOID, ps(text)], TERNARY)
            with pytest.raises(ValueError):
                Antichain.of([ps(text), VOID], TERNARY)

    def test_membership_reads_the_pairs(self):
        chain = Antichain.of([ps("1_"), ps("_2")], TERNARY)
        assert ps("1_") in chain and ps("_2") in chain
        assert all(s not in chain for s in [VOID, ps("2_"), ps("12"), ps("__2")])
        assert PartialString.parse("3", Alphabet.of("0123")) not in chain

    def test_agrees_with_pairwise_definition(self):
        rng = random.Random(20081)
        verdicts = {True: 0, False: 0}
        for _ in range(1500):
            strings = [ps("".join(rng.choice("_012") for _ in range(rng.randint(1, 3))))
                       for _ in range(rng.randint(0, 6))]
            distinct = set(strings)
            expected = not any(f <= g for f in distinct for g in distinct if f != g)
            verdicts[expected] += 1
            if expected:
                # TERNARY's letters sort as characters in alphabet order
                chain = Antichain.of(strings, TERNARY)
                assert chain.elements == tuple(sorted(distinct, key=lambda s: (len(s), s.pairs)))
            else:
                with pytest.raises(ValueError):
                    Antichain.of(strings, TERNARY)
        assert min(verdicts.values()) > 200


class TestCanonicalOrder:
    def test_domain_size_first(self):
        out = Antichain.of([ps("12"), ps("_0"), ps("2")], TERNARY)
        assert out.elements == (ps("2"), ps("_0"), ps("12"))
        assert out.pairs == (((1, 2),), ((2, 0),), ((1, 1), (2, 2)))
        assert Antichain.of([VOID], TERNARY).pairs == ((),)

    def test_letter_order_follows_alphabet(self):
        weird = Alphabet.of("ba")
        a = PartialString.of({1: "a"})
        b = PartialString.of({1: "b"})
        chain = Antichain.of([a, b], weird)
        assert chain.elements == (b, a)
        assert chain.pairs == (((1, 0),), ((1, 1),))
        assert chain.texts(2) == ["b_", "a_"]

    def test_deduplicates(self):
        chain = Antichain.of([ps("1"), ps("1")], TERNARY)
        assert chain.elements == (ps("1"),)
        assert len(chain) == 1


class TestInLogogram:
    def test_whole_slice_accepts_everything_present(self):
        slc = full_slice(TERNARY, 2)
        e = list(slc.word_ints())
        assert in_logogram(VOID, e, slc)
        assert in_logogram(ps("1_"), e, slc)

    def test_empty_target_accepts_nothing(self):
        slc = full_slice(TERNARY, 1)
        for g in all_strings(TERNARY, 1):
            assert not in_logogram(g, [], slc)

    def test_sat_1x1(self):
        p = sat_problem(1, 1)
        assert in_logogram(ps("1"), p.slice.ints_of_mask(p.f_mask()), p.slice)
        assert not in_logogram(VOID, p.slice.ints_of_mask(p.f_mask()), p.slice)

    @pytest.mark.parametrize("text", ["__1", "_3", "3"])
    def test_string_outside_the_slice_is_not_a_member(self, text):
        # a position past L, or a letter outside the alphabet, occurs in no
        # word of the slice, even when every word is a target word
        slc = full_slice(TERNARY, 2)
        string = PartialString.parse(text, Alphabet.of("0123"))
        everything = list(slc.word_ints())
        assert not in_logogram(string, everything, slc)
        assert not closure_ab_contains(string, [VOID], slc)

    def test_target_outside_slice_rejected(self):
        slc = Slice(BINARY, 2, ["11", "00"])
        with pytest.raises(ValueError):
            in_logogram(VOID, [ps("01", BINARY)], slc)

    @pytest.mark.parametrize("target", [["01"], [1], [0, 3, 2]])
    def test_packed_target_outside_slice_rejected(self, target):
        # words of the cube missing from E
        slc = Slice(BINARY, 2, ["11", "00"])
        for run in (in_logogram, reduced_logogram, closure_ba, is_closed):
            args = (VOID, target, slc) if run is in_logogram else (target, slc)
            with pytest.raises(ValueError, match="outside the slice"):
                run(*args)

    @pytest.mark.parametrize("target", [
        [4], [-1], [-5], ["1"], ["1_"], ["12"], [ps("1", BINARY)], [None], [True], [0, False]])
    def test_malformed_target_rejected(self, target):
        # integers outside the cube, bools, and texts or strings that are no
        # words of it
        slc = Slice(BINARY, 2, ["11", "00"])
        for run in (in_logogram, reduced_logogram, closure_ba, is_closed):
            args = (VOID, target, slc) if run is in_logogram else (target, slc)
            with pytest.raises(ValueError, match="is not a word of length 2 over '01'"):
                run(*args)


class TestReducedLogogram:
    def test_whole_slice_gives_void(self):
        slc = full_slice(BINARY, 2)
        chain = reduced_logogram(list(slc.word_ints()), slc)
        assert chain.elements == (VOID,)

    def test_sat_1x1(self):
        assert sat_problem(1, 1).logogram().texts(1) == ["1", "2"]

    def test_sat_2x1(self):
        assert sat_problem(2, 1).logogram().texts(2) == ["1_", "2_", "_1", "_2"]

    def test_sat_2x2_count(self):
        assert len(sat_problem(2, 2).logogram()) == 12

    def test_is_antichain_and_complete(self):
        p = sat_problem(2, 2)
        chain = p.logogram()
        Antichain.of(chain.elements, TERNARY)  # revalidates incomparability
        covered = set(expand(chain.elements, p.slice))
        assert covered == set(map(p.slice.word_of_int, p.slice.ints_of_mask(p.f_mask())))

    @pytest.mark.parametrize("make_slice,make_target", [
        (lambda: full_slice(BINARY, 3),
         lambda slc: [i for i in slc.word_ints() if bin(i).count("1") == 2]),
        (lambda: full_slice(TERNARY, 2),
         lambda slc: [i for i in slc.word_ints() if i % 3]),
        (lambda: Slice(BINARY, 4, oracles.words_where("01", 4, lambda w: w.count("1") % 2 == 0)),
         lambda slc: list(slc.word_ints())[:3]),
    ])
    def test_matches_oracle(self, make_slice, make_target):
        slc = make_slice()
        target = make_target(slc)
        chain = reduced_logogram(target, slc)
        assert chain.texts(slc.length) == oracle_antichain(slc, target)

    def test_matches_oracle_random_targets(self):
        rng = random.Random(42)
        slc = full_slice(TERNARY, 3)
        for _ in range(20):
            n = rng.randint(1, slc.word_count() - 1)
            target = rng.sample(slc.word_ints(), n)
            chain = reduced_logogram(target, slc)
            assert chain.texts(3) == oracle_antichain(slc, target)

    def test_matches_oracle_random_sparse_slices(self):
        # the up-set pruning of absent strings only fires on sparse slices,
        # so hammer exactly that configuration
        rng = random.Random(4242)
        for alphabet, length in [(BINARY, 4), (TERNARY, 3), (BINARY, 5)]:
            cube = full_slice(alphabet, length)
            all_texts = [cube.text_of_int(i) for i in range(cube.total_words)]
            for _ in range(25):
                e_texts = rng.sample(all_texts, rng.randint(1, len(all_texts)))
                slc = Slice(alphabet, length, e_texts)
                target = [i for i in slc.word_ints() if rng.random() < 0.5]
                chain = reduced_logogram(target, slc)
                assert chain.texts(length) == oracle_antichain(slc, target)

    def test_same_shape_slices_probed_alternately(self):
        # each slice holds its own word masks: two slices of one alphabet
        # and length but different words must never read each other's
        evens = Slice(BINARY, 4, oracles.words_where("01", 4, lambda w: w.count("1") % 2 == 0))
        odds = Slice(BINARY, 4, oracles.words_where("01", 4, lambda w: w.count("1") % 2 == 1))
        rng = random.Random(77)
        for _ in range(10):
            for slc in (evens, odds):
                target = [i for i in slc.word_ints() if rng.random() < 0.5]
                chain = reduced_logogram(target, slc)
                assert chain.texts(4) == oracle_antichain(slc, target)
                members = oracles.logogram_members(
                    [slc.text_of_int(i) for i in slc.word_ints()],
                    [slc.text_of_int(i) for i in target])
                for g in all_strings(BINARY, 4):
                    assert in_logogram(g, target, slc) == (g.render(4) in members)

    @given(st.sets(st.integers(min_value=0, max_value=26), min_size=1, max_size=26))
    @settings(max_examples=40, deadline=None)
    def test_members_minimal_and_set_complete(self, target):
        slc = full_slice(TERNARY, 3)
        target = sorted(target)
        chain = reduced_logogram(target, slc)
        covered = set(slc.ints_of_mask(slc.mask_of_words(expand(chain.elements, slc))))
        assert covered == set(target)
        for s in chain.elements:
            assert in_logogram(s, target, slc)
            for i in range(len(s)):  # s with one position deleted
                r = PartialString(s.pairs[:i] + s.pairs[i + 1:])
                assert not in_logogram(r, target, slc)

    def test_budget_exhaustion_carries_frontier(self):
        p = sat_problem(2, 2)
        with pytest.raises(BudgetExceededError) as err:
            reduced_logogram(p.slice.ints_of_mask(p.f_mask()), p.slice, Budget(max_strings=10))
        frontier = err.value.partial
        assert frontier.level >= 1
        expected = set(sat_problem(2, 2).logogram().elements)
        assert set(frontier.minimal_so_far) <= expected

    def test_budget_counts_distinct_subproblems(self):
        # the charge count of a finished search is exactly enough budget;
        # one less stops in the last branch of position 1, after the
        # branches before it are final
        p = sat_problem(2, 2)
        meter = Budget().start("probe")
        chain = reduced_logogram(p.slice.ints_of_mask(p.f_mask()), p.slice, meter=meter)
        used = meter.count
        assert reduced_logogram(p.slice.ints_of_mask(p.f_mask()), p.slice, Budget(max_strings=used)) == chain
        with pytest.raises(BudgetExceededError) as err:
            reduced_logogram(p.slice.ints_of_mask(p.f_mask()), p.slice, Budget(max_strings=used - 1))
        frontier = err.value.partial
        assert 1 <= frontier.level <= p.slice.length
        assert frontier.live_count < used
        assert frontier.minimal_so_far
        assert set(frontier.minimal_so_far) < set(chain.elements)

    def test_frontier_builds_no_string_between_raise_and_catch(self, monkeypatch):
        # the frontier holds the finished members as pairs, so a search out
        # of budget reaches its caller without building their strings
        from logogram.budget import Meter
        p = sat_problem(2, 2)
        words = p.slice.ints_of_mask(p.f_mask())
        meter = Budget().start("probe")
        reduced_logogram(words, p.slice, meter=meter)
        built, at_raise = [], []
        init, charge = PartialString.__init__, Meter.charge

        def counting_init(self, pairs):
            built.append(pairs)
            init(self, pairs)

        def noting_charge(self):
            try:
                charge(self)
            except BudgetExceededError:
                at_raise.append(len(built))
                raise

        monkeypatch.setattr(PartialString, "__init__", counting_init)
        monkeypatch.setattr(Meter, "charge", noting_charge)
        with pytest.raises(BudgetExceededError) as err:
            reduced_logogram(words, p.slice, Budget(max_strings=meter.count - 1))
        assert at_raise == [len(built)]
        frontier = err.value.partial
        assert isinstance(frontier.minimal_so_far, Antichain)
        strings = list(frontier.minimal_so_far)  # built now, on iteration
        assert strings and len(built) == at_raise[0] + len(strings)

    def test_matches_oracle_on_random_slices(self):
        # random slices over 1 to 4 letters; targets empty,
        # the whole slice, and random subsets
        rng = random.Random(20080)
        shapes = [("a", 1), ("a", 3), ("01", 1), ("01", 4), ("01", 5),
                  ("012", 2), ("012", 3), ("0123", 2), ("0123", 3)]
        for letters, length in shapes:
            alphabet = Alphabet.of(letters)
            words = oracles.all_words(letters, length)
            for trial in range(40):
                e = sorted(rng.sample(words, rng.randint(1, len(words))))
                slc = Slice(alphabet, length, e)
                if trial == 0:
                    a = []
                elif trial == 1:
                    a = e
                else:
                    a = [w for w in e if rng.random() < rng.random()]
                chain = reduced_logogram(a, slc)
                expected = oracles.canonical_order(
                    oracles.brute_reduced_logogram(e, a), letters)
                assert chain.texts(length) == expected, (letters, length, e, a)

    @pytest.mark.parametrize("n,m", [(3, 4), (2, 6)])
    def test_sat_matches_closed_form_at_larger_shapes(self, n, m):
        # 3^12 words each; built outside the adapter's cache
        p = sat_problem.__wrapped__(n, m)
        assert p.logogram() == predicted_sat_logogram(p.cnf_shape)


class TestSharedMemo:
    """Searches that share one cofactor memo, as those of the Galois suite
    do, against fresh searches and the oracle."""

    @staticmethod
    def run_through_one_memo(queries):
        """Search each (slice, slice words, target words) with one memo and
        one meter; the meter must charge each distinct sub-problem once."""
        memo = {}
        meter = Budget().start("shared")
        distinct = set()
        for slc, e, a in queries:
            on = logogram.engine._target_mask(a, slc)
            shared = logogram.engine._minimal_pairs(on, slc, meter=meter, memo=memo)
            own = {}
            fresh = logogram.engine._minimal_pairs(on, slc, memo=own)
            distinct |= own.keys()
            assert sorted(shared) == sorted(fresh)
            letters = "".join(slc.alphabet.letters)
            expected = oracles.canonical_order(oracles.brute_reduced_logogram(e, a), letters)
            chain = Antichain(logogram.engine._canonical(shared), slc.alphabet)
            assert chain.texts(slc.length) == expected, (e, a)
            shared.clear()  # the caller's list is its own, not the memo's
        assert set(memo) == distinct
        assert meter.count == len(distinct)

    @staticmethod
    def random_slice(rng, alphabet, length):
        words = oracles.all_words("".join(alphabet.letters), length)
        e = sorted(rng.sample(words, rng.randint(1, len(words))))
        return Slice(alphabet, length, e), e

    @staticmethod
    def random_targets(rng, e, count):
        # repeats, the empty target and the whole slice included
        targets = [[], e] + [[w for w in e if rng.random() < rng.random()]
                             for _ in range(count - 2)]
        targets += rng.sample(targets, len(targets) // 2)
        rng.shuffle(targets)
        return targets

    SHAPES = [("a", 3), ("01", 1), ("01", 3), ("01", 4), ("012", 2), ("012", 3)]

    @pytest.mark.parametrize("letters,length", SHAPES)
    def test_target_sequences_on_one_slice(self, letters, length):
        rng = random.Random(f"{letters}{length}")
        for trial in range(6):
            slc, e = self.random_slice(rng, Alphabet.of(letters), length)
            self.run_through_one_memo(
                [(slc, e, a) for a in self.random_targets(rng, e, 10)])

    @pytest.mark.parametrize("letters,length", SHAPES)
    def test_same_shape_slices_interleaved(self, letters, length):
        # the memo's sub-problems depend on the alphabet size and the length,
        # not on the slice, so two slices of one shape may share it
        rng = random.Random(f"{letters}{length}")
        alphabet = Alphabet.of(letters)
        for trial in range(4):
            slices = [self.random_slice(rng, alphabet, length) for _ in range(2)]
            queries = [(slc, e, a) for slc, e in slices
                       for a in self.random_targets(rng, e, 8)]
            rng.shuffle(queries)
            self.run_through_one_memo(queries)


class TestSearchSplitsByCofactorsAlone:
    """The search reads its word sets through ``Slice.cofactors`` alone:
    with the position masks and every cylinder primitive disabled, fresh
    searches and searches through one shared memo still give the closed
    form and the oracle."""

    @staticmethod
    def brute(slc, on):
        e = [slc.text_of_int(i) for i in slc.word_ints()]
        a = [slc.text_of_int(i) for i in slc.ints_of_mask(on)]
        return oracles.canonical_order(oracles.brute_reduced_logogram(e, a),
                                       "".join(slc.alphabet.letters))

    def test_searches_split_by_cofactors_alone(self, monkeypatch):
        sat = sat_problem(3, 3)
        others = [composite_problem(9), connectivity_problem(5), generic_problem(EVEN4)]
        fresh = [(sat.slice, sat.f_mask(), predicted_sat_logogram(sat.cnf_shape).texts(9))]
        shared = []  # per slice: the target, then the rest of the slice
        for p in others:
            slc, on = p.slice, p.f_mask()
            fresh.append((slc, on, self.brute(slc, on)))
            shared.append([(slc, t, self.brute(slc, t)) for t in (on, slc.complement(on))])

        def forbidden(*args, **kwargs):
            raise AssertionError("the search read a mask other than by its cofactors")

        for name in ("restrict", "position_masks", "cylinder"):
            monkeypatch.setattr(Slice, name, forbidden)
        search = logogram.engine.reduced_logogram_of_mask
        for slc, on, expected in fresh:
            assert search(on, slc, memo={}).texts(slc.length) == expected
        for queries in shared:
            memo, meter = {}, Budget().start("shared")
            for slc, on, expected in queries:
                assert search(on, slc, meter=meter, memo=memo).texts(slc.length) == expected


class TestEntanglement:
    def test_restriction_always_forced(self):
        slc = full_slice(BINARY, 2)
        assert entangles([ps("10", BINARY)], [ps("1", BINARY)], slc)

    def test_separate_cylinders_full_cube(self):
        slc = full_slice(BINARY, 2)
        assert not entangles([ps("1", BINARY)], [ps("_1", BINARY)], slc)

    def test_sparse_slice_creates_forcing(self):
        slc = Slice(BINARY, 2, ["11", "00"])
        assert entangles([ps("1", BINARY)], [ps("_1", BINARY)], slc)

    def test_restriction_forced_for_any_slice(self):
        # extending strings force their restrictions regardless of the slice
        rng = random.Random(3)
        slc_full = full_slice(TERNARY, 3)
        words = [slc_full.text_of_int(i) for i in slc_full.word_ints()]
        for _ in range(30):
            e = rng.sample(words, rng.randint(1, len(words)))
            slc = Slice(TERNARY, 3, e)
            w = rng.choice(e)
            keep = rng.sample(range(1, 4), 2)
            f = PartialString((p, ch) for p, ch in ps(w).pairs if p in keep)
            g = PartialString(f.pairs[:1])  # f kept at its first position
            assert entangles([f], [g], slc)

    def test_incompatible_present_strings_never_entangle(self):
        slc = full_slice(TERNARY, 2)
        for f in all_strings(TERNARY, 2):
            for g in all_strings(TERNARY, 2):
                if not f.compatible(g):
                    assert not entangles([f], [g], slc)

    def test_subset_entangles_pointwise_then_relative(self):
        # a set forces any subset-witnessing set absolutely, hence in slices
        rng = random.Random(9)
        slc = Slice(BINARY, 3, oracles.words_where("01", 3, lambda w: w[0] == "1"))
        strings = [s for s in all_strings(BINARY, 3)]
        for _ in range(40):
            k = rng.sample(strings, 4)
            h = [s for s in k if rng.random() < 0.6]
            assert entangles(h, k, slc)

    def test_isoexpansive(self):
        slc = full_slice(TERNARY, 1)
        singles = [PartialString.of({1: ch}) for ch in "012"]
        assert isoexpansive([VOID], singles, slc)
        assert not isoexpansive([singles[1]], [singles[2]], slc)
        assert isoexpansive([singles[0]], [singles[0]], slc)

    def test_matches_naive_definition_on_random_slices(self):
        # entangles(H, K) spelled out word by word over the slice
        rng = random.Random(13)
        cube = full_slice(BINARY, 3)
        all_texts = [cube.text_of_int(i) for i in range(cube.total_words)]
        for _ in range(40):
            e_texts = rng.sample(all_texts, rng.randint(1, len(all_texts)))
            slc = Slice(BINARY, 3, e_texts)
            sigma = sorted(oracles.sigma_members(e_texts))
            h_texts = rng.sample(sigma, min(3, len(sigma)))
            k_texts = rng.sample(sigma, min(3, len(sigma)))
            h = [ps(t, BINARY) for t in h_texts]
            k = [ps(t, BINARY) for t in k_texts]
            naive = all(
                any(oracles.includes(x, g) for g in k_texts)
                for x in e_texts
                if any(oracles.includes(x, f) for f in h_texts))
            assert entangles(h, k, slc) == naive
            naive_iso = (
                {x for x in e_texts if any(oracles.includes(x, f) for f in h_texts)}
                == {x for x in e_texts if any(oracles.includes(x, g) for g in k_texts)})
            assert isoexpansive(h, k, slc) == naive_iso


class TestSeparatorConstruction:
    def test_forced_pairs_agree_with_word_scan_on_full_cube(self):
        # f entails g, by forced pairs, exactly when no word of the slice
        # includes f and not g, for every non-extending string pair
        from logogram.engine import _first_entailment
        slc = full_slice(TERNARY, 3)
        meter = Budget().start("test")
        e_texts = [slc.text_of_int(i) for i in slc.word_ints()]
        strings = list(all_strings(TERNARY, 3))
        for f in strings:
            fp = slc.pairs_of(f)
            for g in strings:
                if f >= g:
                    continue  # the order excuses entailed extensions
                walked, hit = _first_entailment([fp, slc.pairs_of(g)], slc, meter)
                exists = any(
                    oracles.includes(x, f.render(3)) and not oracles.includes(x, g.render(3))
                    for x in e_texts)
                assert (hit == (0, 1)) == (not exists)
                assert walked == (1 if hit == (0, 1) else 2)

    def test_single_letter_alphabet_never_separates(self):
        from logogram.engine import _first_entailment
        lone = Alphabet.of("a")
        slc = full_slice(lone, 2)
        f = slc.pairs_of(PartialString.of({1: "a"}))
        g = slc.pairs_of(PartialString.of({2: "a"}))
        walked, hit = _first_entailment([f, g], slc, Budget().start("test"))
        assert (walked, hit) == (1, (0, 1))
        assert not internal_independence(slc).passed


class TestIndependenceOracle:
    """internal, simple and strong independence against the per-pair,
    per-word definitions in ``oracles``."""

    @staticmethod
    def random_words(rng, alphabet, length):
        words = oracles.all_words("".join(alphabet.letters), length)
        if rng.random() < 0.25:
            return words, "all"
        keep = set(rng.sample(words, rng.randint(1, len(words))))
        if rng.random() < 0.5:  # dense slices fail later, if at all
            keep |= set(rng.sample(words, len(words) * 3 // 4))
        e = [w for w in words if w in keep]
        return e, e

    def test_internal_matches_oracle_on_random_slices(self):
        rng = random.Random(41)
        cases = [(Alphabet.of("a"), length) for length in (1, 2, 3)]
        cases += [(BINARY, rng.randint(1, 4)) for _ in range(40)]
        cases += [(TERNARY, rng.randint(1, 3)) for _ in range(30)]
        cases += [(TERNARY, 4) for _ in range(4)]
        for alphabet, length in cases:
            e, universe = self.random_words(rng, alphabet, length)
            letters = "".join(alphabet.letters)
            sigma = len(oracles.sigma_members(e))
            limit = 60 if length == 4 and alphabet is TERNARY else sigma + 5
            for cap in sorted({1, 2, rng.randint(1, sigma), min(sigma - 1, limit),
                               min(sigma, limit), limit}):
                if cap < 1:
                    continue
                slc = full_slice(alphabet, length) if universe == "all" \
                    else Slice(alphabet, length, universe)
                report = internal_independence(slc, Budget(max_strings=cap * cap))
                checked, saw_all, passed, walked, hit = \
                    oracles.brute_internal_independence(e, letters, cap)
                label = (letters, length, universe, cap)
                assert report.strings_checked == checked, label
                assert report.budget_exhausted == (not saw_all), label
                assert report.passed == passed, label
                assert report.pairs_checked == walked, label
                if hit is None:
                    assert report.counterexample is None, label
                else:
                    cx = report.counterexample
                    assert (cx["f"], cx["g"]) == hit and not cx["extends"], label

    def test_internal_verdict_is_the_neighbour_condition(self):
        # internal independence holds exactly when every word of E has, at
        # every position, a neighbour in E; checked uncapped against the
        # engine and against the per-pair definition
        rng = random.Random(47)
        cases = [(Alphabet.of("a"), length) for length in (1, 2, 3)]
        cases += [(BINARY, rng.randint(1, 4)) for _ in range(60)]
        cases += [(TERNARY, rng.randint(1, 3)) for _ in range(40)]
        verdicts = {True: 0, False: 0}
        for alphabet, length in cases:
            letters = "".join(alphabet.letters)
            words = oracles.all_words(letters, length)
            drop = min(rng.choice([0, 1, 2, len(words) // 2]), len(words) - 1)
            e = sorted(set(words) - set(rng.sample(words, drop)))
            slc = Slice(alphabet, length, e)
            sigma = len(oracles.sigma_members(e))
            expected = oracles.neighbours_everywhere(e, letters)
            report = internal_independence(slc, Budget(max_strings=sigma * sigma))
            assert not report.budget_exhausted and report.strings_checked == sigma
            assert report.passed == expected, (letters, length, e)
            assert oracles.brute_internal_independence(e, letters, sigma)[2] == expected
            verdicts[expected] += 1
        assert min(verdicts.values()) >= 10, verdicts

    def test_simple_and_strong_match_oracle_on_random_problems(self):
        rng = random.Random(43)
        checked = 0
        while checked < 150:
            alphabet = rng.choice([BINARY, TERNARY])
            length = rng.randint(1, 4 if alphabet is BINARY else 3)
            e, universe = self.random_words(rng, alphabet, length)
            if len(e) < 2:
                continue
            a = sorted(rng.sample(e, rng.randint(1, len(e) - 1)))
            p = generic_problem({"alphabet": list(alphabet.letters), "length": length,
                                 "universe": universe, "target": a, "regions": [a],
                                 "label": "random"})
            letters = "".join(alphabet.letters)
            strings = oracles.canonical_order(oracles.brute_reduced_logogram(e, a), letters)
            assert p.logogram().texts(length) == strings

            simple = simple_independence(p)
            walked, hit = oracles.first_entailment(e, strings, excuse_extensions=False)
            assert (simple.passed, simple.pairs_checked) == (hit is None, walked)
            if hit is not None:
                assert (simple.counterexample["f"], simple.counterexample["g"]) == hit

            strong = strong_independence(p)
            separators, lacking = oracles.first_separators(e, strings)
            assert strong.passed == (lacking is None)
            # the separators are the removal witnesses of the whole logogram
            irreducibility = irreducibility_report(p.logogram(), p)
            if lacking is None:
                assert list(strong.separators) == separators
                assert strong.separators == tuple(irreducibility.unique_witnesses.items())
            else:
                assert strong.counterexample["string"] == lacking
                assert irreducibility.removable[0] == lacking
            checked += 1


class TestClosures:
    def test_empty_and_full(self):
        slc = full_slice(BINARY, 2)
        assert closure_ba([], slc) == ()
        everything = list(slc.word_ints())
        assert len(closure_ba(everything, slc)) == 4

    def test_sat_1x1_target_closed(self):
        p = sat_problem(1, 1)
        closed = closure_ba(p.slice.ints_of_mask(p.f_mask()), p.slice)
        assert [w.render(1) for w in closed] == ["1", "2"]

    def test_binary_singleton_closed(self):
        slc = full_slice(BINARY, 1)
        assert is_closed([ps("0", BINARY)], slc)

    def test_every_subset_closed_in_fixed_length_slices(self):
        slc = full_slice(BINARY, 3)
        rng = random.Random(1)
        for _ in range(15):
            a = rng.sample(slc.word_ints(), rng.randint(1, 8))
            assert is_closed(a, slc)

    def test_closure_contains_and_idempotent(self):
        slc = Slice(TERNARY, 2, oracles.words_where("012", 2, lambda w: w[1] != "0"))
        rng = random.Random(2)
        for _ in range(15):
            a = rng.sample(slc.word_ints(), rng.randint(0, slc.word_count()))
            closed = closure_ba(a, slc)
            ints = set(slc.ints_of_mask(slc.mask_of_words(closed)))
            assert set(a) <= ints
            again = set(slc.ints_of_mask(slc.mask_of_words(closure_ba(closed, slc))))
            assert again == ints

    def test_string_closure_membership(self):
        slc = full_slice(BINARY, 2)
        h = [ps("1", BINARY)]
        assert closure_ab_contains(ps("1", BINARY), h, slc)
        assert closure_ab_contains(ps("10", BINARY), h, slc)
        assert not closure_ab_contains(ps("_1", BINARY), h, slc)

    def test_logogram_union_inside_union_logogram(self):
        # membership certificates for either side certify the union
        slc = full_slice(BINARY, 3)
        e_texts = [slc.text_of_int(i) for i in slc.word_ints()]
        rng = random.Random(8)
        for _ in range(10):
            a = set(rng.sample(e_texts, rng.randint(1, 4)))
            b = set(rng.sample(e_texts, rng.randint(1, 4)))
            members_a = oracles.logogram_members(e_texts, a)
            members_b = oracles.logogram_members(e_texts, b)
            union_words = [ps(t, BINARY) for t in a | b]
            for text in members_a | members_b:
                assert in_logogram(ps(text, BINARY), union_words, slc)


class TestCompleteness:
    def test_full_logogram_complete(self):
        p = sat_problem(2, 1)
        assert is_complete(p.logogram().elements, p)

    def test_single_string_incomplete(self):
        p = sat_problem(1, 1)
        assert not is_complete([ps("1")], p)

    def test_empty_subset_incomplete(self):
        assert not is_complete([], sat_problem(1, 1))

    @pytest.mark.parametrize("strings", [
        [ps("0")],
        Antichain((((1, 0),),), TERNARY),
        Antichain.of([PartialString.parse("a", Alphabet.of("ab"))], Alphabet.of("ab")),
    ], ids=["string", "antichain", "foreign-alphabet"])
    def test_non_member_rejected(self, strings):
        p = sat_problem(1, 1)
        with pytest.raises(ValueError, match="is not in the reduced logogram"):
            is_complete(strings, p)
        with pytest.raises(ValueError, match="is not in the reduced logogram"):
            irreducibility_report(strings, p)

    def test_non_member_named(self):
        with pytest.raises(ValueError, match=r"PartialString\('0'\) is not in the reduced"):
            is_complete(Antichain((((1, 0),),), TERNARY), sat_problem(1, 1))

    def test_other_alphabet_read_by_letters(self):
        # the same strings indexed by another alphabet are the same members
        p = sat_problem(2, 1)
        chain = Antichain.of(p.logogram().elements, Alphabet.of("210"))
        assert chain.pairs != p.logogram().pairs
        assert is_complete(chain, p)
        assert irreducibility_report(chain, p) == irreducibility_report(p.logogram(), p)

    def test_monotone_under_superset(self):
        # every superset (within the logogram) of a complete subset stays
        # complete; this is what justifies testing single removals only
        p = sat_problem(2, 1)
        log = list(p.logogram().elements)
        complete_subsets = {
            tuple(sorted(idx)) for idx in _subsets(range(len(log)))
            if is_complete([log[i] for i in idx], p)}
        for small in complete_subsets:
            for big in _subsets(range(len(log))):
                if set(small) <= set(big):
                    assert tuple(sorted(big)) in complete_subsets


def _subsets(items):
    items = list(items)
    for mask in range(1 << len(items)):
        yield [items[i] for i in range(len(items)) if mask >> i & 1]


TWIN = {"alphabet": ["0", "1"], "length": 2, "universe": ["00", "11"],
        "target": ["11"], "regions": [["11"]], "label": "twin"}
MIXED = {"alphabet": ["0", "1"], "length": 3, "universe": "all",
         "target": ["100", "101", "110", "011"],
         "regions": [["100", "101"], ["110", "011"]], "label": "mixed"}


class TestIrreducibility:
    @pytest.mark.parametrize("build", [
        *(lambda n=n, m=m: sat_problem(n, m) for n in (1, 2, 3) for m in (1, 2)),
        lambda: composite_problem(4), lambda: composite_problem(6),
        lambda: generic_problem(TWIN), lambda: generic_problem(MIXED),
    ], ids=["sat-1-1", "sat-1-2", "sat-2-1", "sat-2-2", "sat-3-1", "sat-3-2",
            "composite-4", "composite-6", "twin", "mixed"])
    def test_antichain_and_strings_agree(self, build):
        # the verdicts read an antichain by its pairs and strings or texts
        # by their letters, with the same result
        p = build()
        log = p.logogram()
        for strings in (log.elements, log.texts(p.slice.length)):
            assert is_complete(strings, p) == is_complete(log, p)
            assert irreducibility_report(strings, p) == irreducibility_report(log, p)
        half = log.elements[::2]
        assert is_complete(half, p) == is_complete(Antichain.of(half, log.alphabet), p)

    def test_sat_2x1(self):
        p = sat_problem(2, 1)
        report = irreducibility_report(p.logogram().elements, p)
        assert report.irreducible
        # dropping the first-variable positive literal would uncover "10"
        assert report.unique_witnesses["1_"] == "10"

    def test_sat_1x1(self):
        p = sat_problem(1, 1)
        report = irreducibility_report(p.logogram().elements, p)
        assert report.irreducible
        assert report.unique_witnesses == {"1": "1", "2": "2"}

    def test_duplicate_cover_reducible(self):
        p = generic_problem(TWIN)
        assert p.logogram().texts(2) == ["1_", "_1"]
        report = irreducibility_report(p.logogram().elements, p)
        assert not report.irreducible
        assert len(report.removable) == 2

    def test_requires_completeness(self):
        p = sat_problem(1, 1)
        with pytest.raises(ValueError):
            irreducibility_report([ps("1")], p)

    @pytest.mark.parametrize("doc", [
        {"sat": (2, 2)}, {"sat": (2, 3)}, {"sat": (3, 2)}, TWIN, MIXED,
    ], ids=["sat-2-2", "sat-2-3", "sat-3-2", "twin", "mixed"])
    def test_witnesses_match_word_counts(self, doc):
        # a member's witness is the first word, in canonical order, that it
        # alone covers; members with no such word are the removable ones
        p = sat_problem(*doc["sat"]) if "sat" in doc else generic_problem(doc)
        slc = p.slice
        L = slc.length
        texts = p.logogram().texts(L)
        e = {slc.text_of_int(i) for i in slc.word_ints()}
        words = [w for w in oracles.all_words("".join(slc.alphabet.letters), L) if w in e]
        covers = {s: [w for w in words if oracles.includes(w, s)] for s in texts}
        counts = {w: sum(w in ws for ws in covers.values()) for w in words}
        expected = {s: next(w for w in ws if counts[w] == 1)
                    for s, ws in covers.items() if any(counts[w] == 1 for w in ws)}
        report = irreducibility_report(p.logogram().elements, p)
        assert report.unique_witnesses == expected
        assert list(report.removable) == [s for s in texts if s not in expected]
        assert report.irreducible == (len(expected) == len(texts))


class TestMeter:
    def test_start_keeps_the_deadline_and_reads_no_clock(self, monkeypatch):
        # a step's meter has its own label and count, and stops on the
        # deadline its parent took from the clock's one read
        clock = TestCoveragePass.TickingClock()
        monkeypatch.setattr(logogram.budget, "time", clock)
        run = Budget(max_strings=2, max_seconds=10.0).start("run")
        run.charge()
        step = run.start("step")
        assert clock.now == 1.0
        assert (step.label, step.count, step.budget) == ("step", 0, run.budget)
        assert step.start("next").count == 0 and clock.now == 1.0
        step.charge()
        step.charge()
        with pytest.raises(BudgetExceededError, match="^step: exceeded 2 sub-problems$"):
            step.charge()
        assert run.count == 1
        clock.now = 9.0
        step.check(lambda: "unread")  # read at 10 s, against the deadline at 11 s
        clock.now = 10.5
        for meter in (step, run):
            with pytest.raises(BudgetExceededError, match=f"^{meter.label}: out of time now$"):
                meter.check(lambda: "now")


class TestCoveragePass:
    class TickingClock:
        """Stands in for the budget module's clock: one second per read
        once started."""

        def __init__(self, ticking=True):
            self.now = 0.0
            self.ticking = ticking

        def monotonic(self):
            if self.ticking:
                self.now += 1.0
            return self.now

    def test_irreducibility_reads_the_clock_per_member(self, monkeypatch):
        # the search is cached, so the reads are the meter's start and one
        # per member in each pass: the deadline passes at the third member
        # of the second pass
        p = sat_problem(2, 2)
        log = p.logogram()
        n = len(log)
        monkeypatch.setattr(logogram.budget, "time", self.TickingClock())
        with pytest.raises(BudgetExceededError,
                           match=f"^irreducibility: sat:2x2: out of time after 2 of {n} strings$"):
            irreducibility_report(log, p, Budget(max_seconds=n + 2.5))

    def test_irreducible_command_exits_2_after_the_search(self, capsys, monkeypatch):
        # the clock stands still until the search is cached, then runs out
        # while the coverage pass is under way
        clock = self.TickingClock(ticking=False)
        monkeypatch.setattr(logogram.budget, "time", clock)
        sat_problem(2, 2).logogram()
        clock.ticking = True
        code = main(["irreducible", "sat", "2", "2", "--budget-seconds", "0.5"])
        assert code == 2
        assert "irreducibility: sat:2x2: out of time after 0 of " in capsys.readouterr().err

    @pytest.mark.parametrize("run,share", [
        (lambda p: irreducibility_report(p.logogram(), p), 4),
        (strong_independence, 4),
        (cover, 2),
    ], ids=["irreducibility", "strong", "cover"])
    def test_peak_memory_does_not_grow_with_member_masks(self, run, share):
        # composite 13: 6,052 members over masks of 1 KB. Keeping one mask
        # per member costs members x mask bytes; the passes hold a constant
        # number of masks, so their peak is mostly the report itself
        p = composite_problem(13)
        members = len(p.logogram())
        mask_bytes = (p.slice.total_words + 7) // 8
        tracemalloc.start()
        try:
            run(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < members * mask_bytes // share, (peak, members, mask_bytes)


def _charge_on(budget):
    meter = budget.start("search")
    for _ in range(1000):
        meter.charge()


def _on_sat(n, m, run):
    return lambda budget: run(sat_problem(n, m), budget)


# site -> (the step run on a budget, the whole message it stops with)
STOP_SITES = {
    "irreducibility": (
        _on_sat(2, 2, lambda p, b: irreducibility_report(p.logogram(), p, b)),
        "irreducibility: sat:2x2: out of time after 0 of 12 strings"),
    "strong": (_on_sat(2, 2, strong_independence),
               "strong independence: sat:2x2: out of time after 0 of 12 strings"),
    "wizards": (_on_sat(2, 2, classify), "wizards: sat:2x2: out of time after 1 of 12 strings"),
    "cover": (_on_sat(2, 2, cover), "cover: sat:2x2: out of time after 1 of 12 strings"),
    "simple": (_on_sat(2, 2, simple_independence),
               "simple independence: sat:2x2: out of time after 22 pairs"),
    "internal": (lambda b: internal_independence(full_slice(TERNARY, 3), b),
                 "internal independence: 012^3: out of time after 126 pairs"),
    "galois": (lambda b: verify_galois(full_slice(BINARY, 2), 10, budget=b),
               "galois suite: out of time after 2 samples"),
    "kernel": (_on_sat(1, 2, lambda p, b: kernel(forward_assignment_scan(p), p, b)),
               "kernel sweep: forward-assignment-scan: out of time at word '11'"),
    "trace-dump": (
        _on_sat(1, 2, lambda p, b: list(trace_records(forward_assignment_scan(p), p, b))),
        "trace dump: forward-assignment-scan: out of time at word '02'"),
    "charge": (_charge_on, "search: out of time after 768 sub-problems"),
}


class TestStopSites:
    @pytest.mark.parametrize("site", STOP_SITES)
    def test_third_clock_read_stops_the_step(self, monkeypatch, site):
        # the searches are cached before the clock is patched, so every
        # read after the meter starts (at 1 s, against a deadline of 3.5 s)
        # is the site's own check; the third stops the step, and the
        # message names the step and how far it got. The meter reads the
        # clock every 256 charges, so a bare meter stops at 768.
        run, message = STOP_SITES[site]
        sat_problem(1, 2).logogram()
        sat_problem(2, 2).logogram()
        monkeypatch.setattr(logogram.budget, "time", TestCoveragePass.TickingClock())
        with pytest.raises(BudgetExceededError, match=f"^{re.escape(message)}$"):
            run(Budget(max_seconds=2.5))


class TestInternalIndependence:
    def test_full_cubes_pass(self):
        for alphabet, length in [(BINARY, 2), (BINARY, 3), (TERNARY, 2), (TERNARY, 3)]:
            report = internal_independence(full_slice(alphabet, length))
            assert report.passed and not report.budget_exhausted

    def test_two_word_slice_fails(self):
        slc = Slice(BINARY, 2, ["11", "00"])
        report = internal_independence(slc)
        assert not report.passed
        cx = report.counterexample
        f, g = ps(cx["f"], BINARY), ps(cx["g"], BINARY)
        assert entangles([f], [g], slc) and not f >= g

    def test_single_word_slice_fails(self):
        report = internal_independence(Slice(BINARY, 2, ["10"]))
        assert not report.passed

    def test_budget_flag(self):
        report = internal_independence(full_slice(TERNARY, 3), Budget(max_strings=9))
        assert report.budget_exhausted
        assert report.strings_checked == 3


class TestSimpleIndependence:
    def test_sat_2x1(self):
        assert simple_independence(sat_problem(2, 1)).passed

    def test_singleton_logogram_vacuous(self):
        doc = {"alphabet": ["0", "1"], "length": 2, "universe": "all",
               "target": ["11", "10"], "regions": [["11", "10"]], "label": "one"}
        p = generic_problem(doc)
        assert p.logogram().texts(2) == ["1_"]
        report = simple_independence(p)
        assert report.passed and report.pairs_checked == 0

    def test_full_cube_problems_pass(self):
        for n, m in [(1, 1), (2, 1), (1, 2), (2, 2)]:
            assert simple_independence(sat_problem(n, m)).passed

    def test_dependent_pair_detected(self):
        doc = {"alphabet": ["0", "1"], "length": 2, "universe": ["00", "11"],
               "target": ["11"], "regions": [["11"]], "label": "twin"}
        report = simple_independence(generic_problem(doc))
        assert not report.passed
        assert report.counterexample["entangled"]


class TestStrongIndependence:
    def test_sat_2x2_zero_padded_separators(self):
        p = sat_problem(2, 2)
        report = strong_independence(p)
        assert report.passed
        for string_text, word_text in report.separators:
            assert word_text == string_text.replace("_", "0")

    def test_singleton(self):
        doc = {"alphabet": ["0", "1"], "length": 2, "universe": "all",
               "target": ["11", "10"], "regions": [["11", "10"]], "label": "one"}
        assert strong_independence(generic_problem(doc)).passed

    def test_composite_width_4_reported(self):
        from logogram import composite_problem
        report = strong_independence(composite_problem(4))
        # computed by exhaustion; the outcome is reported either way
        assert report.passed
        assert len(report.separators) == 4

    def test_entangled_logogram_fails(self):
        doc = {"alphabet": ["0", "1"], "length": 2, "universe": ["00", "11"],
               "target": ["11"], "regions": [["11"]], "label": "twin"}
        report = strong_independence(generic_problem(doc))
        assert not report.passed
        assert "string" in report.counterexample


EVEN4_WORDS = [w for w in (format(i, "04b") for i in range(16)) if w.count("1") % 2 == 0]
EVEN4 = {"label": "even:4", "alphabet": ["0", "1"], "length": 4, "universe": EVEN4_WORDS,
         "target": [w for w in EVEN4_WORDS if w[0] == "1"],
         "regions": [[w for w in EVEN4_WORDS if w[0] == "1"]]}

# an injected fault -> the closure laws it breaks on composite 4 and 6 and
# sat 2 2 (even:4 differs in one law for two of them)
FAULT_TABLE = {
    "drop-member": {"antitone-logogram", "expansion-roundtrip-stable",
                    "logogram-roundtrip-stable", "string-closure-extensive",
                    "word-closure-extensive"},
    "append-outside-word": {"antitone-logogram", "expansion-roundtrip-stable",
                            "logogram-roundtrip-stable", "string-closure-covered"},
    "append-extension": {"string-closure-extensive"},
    "expand-first-only": {"antitone-expansion", "antitone-logogram",
                          "logogram-roundtrip-stable", "string-closure-extensive",
                          "word-closure-extensive"},
}


class TestGalois:
    def test_small_slices_pass(self):
        for slc in [full_slice(BINARY, 3), full_slice(TERNARY, 2),
                    Slice(BINARY, 4,
                          oracles.words_where("01", 4, lambda w: w.count("1") % 2 == 0))]:
            report = verify_galois(slc, sample_count=120, seed=5)
            assert report.passed, report
            assert all(c.samples >= 120 for c in report.checks)

    def test_seeded_runs_reproducible(self):
        slc = full_slice(TERNARY, 2)
        a = verify_galois(slc, sample_count=60, seed=9)
        b = verify_galois(slc, sample_count=60, seed=9)
        assert a == b

    def test_failure_carries_evidence(self, monkeypatch):
        # a search that drops one member breaks the closure laws; each
        # failing law must report the sample it failed on
        import logogram.engine
        search = logogram.engine._minimal_pairs
        monkeypatch.setattr(logogram.engine, "_minimal_pairs",
                            lambda *args, **kwargs: search(*args, **kwargs)[1:])
        keys = {"antitone-expansion": {"H", "K"}, "antitone-logogram": {"A", "B"},
                "word-closure-extensive": {"A"}, "logogram-roundtrip-stable": {"A"}}
        for slc in [full_slice(BINARY, 3), full_slice(TERNARY, 2),
                    Slice(BINARY, 4,
                          oracles.words_where("01", 4, lambda w: w.count("1") % 2 == 0))]:
            report = verify_galois(slc, sample_count=60, seed=3)
            failed = [c for c in report.checks if not c.passed]
            assert failed and not report.passed
            words = {slc.text_of_int(i) for i in slc.word_ints()}
            for check in failed:
                evidence = check.counterexample
                assert set(evidence) == keys.get(check.law, {"H"}), check.law
                for key, texts in evidence.items():
                    assert all(len(t) == slc.length for t in texts)
                    if key in ("A", "B"):
                        assert set(texts) <= words
                if "B" in evidence:
                    assert set(evidence["A"]) <= set(evidence["B"])

    @pytest.mark.parametrize("fault", list(FAULT_TABLE))
    def test_fault_table(self, monkeypatch, fault):
        # each injected fault in the search or the expansion must break the
        # laws of its row on the four sampled slices of the benchmark
        import logogram.engine
        search, expansion = logogram.engine._minimal_pairs, Slice.expansion

        def word(slc, i):
            return tuple(enumerate(slc.letters_of(i), 1))

        def faulty(on, slc, *args, **kwargs):
            out = search(on, slc, *args, **kwargs)
            if fault == "drop-member":
                return out[1:]
            if fault == "append-outside-word":
                off = slc.e_mask() & ~on
                return out + [word(slc, lowest(off))] if off else out
            # append-extension: a member with a blank position, filled from
            # the lowest word extending it
            g = next((g for g in out if len(g) < slc.length), None)
            if g is None:
                return out
            cyl = slc.cylinder(g)
            free = next(x for x in word(slc, lowest(cyl))
                        if x[0] not in dict(g))
            return out + [tuple(sorted(g + (free,)))]

        if fault == "expand-first-only":
            monkeypatch.setattr(Slice, "expansion",
                                lambda slc, strings: expansion(slc, list(strings)[:1]))
        else:
            monkeypatch.setattr(logogram.engine, "_minimal_pairs", faulty)
        laws = FAULT_TABLE[fault]
        # on even:4 a dropped member leaves the logogram round trip stable,
        # and the first string alone changes the expansion's
        per_slice = {("drop-member", "even:4"): laws - {"logogram-roundtrip-stable"},
                     ("expand-first-only", "even:4"): laws | {"expansion-roundtrip-stable"}}
        for problem in [composite_problem(4), composite_problem(6), sat_problem(2, 2),
                        generic_problem(EVEN4)]:
            report = verify_galois(problem.slice, sample_count=120, seed=0)
            assert all(c.samples == 120 for c in report.checks)
            failed = {c.law for c in report.checks if not c.passed}
            assert failed == per_slice.get((fault, problem.label), laws), problem.label

    def test_fault_table_breaks_every_law(self):
        laws = {c.law for c in verify_galois(full_slice(BINARY, 2), sample_count=1).checks}
        assert set().union(*FAULT_TABLE.values()) == laws

    def test_nested_logograms_in_report(self):
        report = verify_galois(full_slice(BINARY, 2), sample_count=50, seed=1)
        assert {c.law for c in report.checks} == {
            "antitone-expansion", "antitone-logogram", "string-closure-covered",
            "word-closure-extensive", "string-closure-extensive",
            "expansion-roundtrip-stable", "logogram-roundtrip-stable"}
