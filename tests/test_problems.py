"""Problem adapters: clause encoding, compositeness, connectivity, generic."""

import pytest

import oracles
from logogram import (
    BINARY, TERNARY, CnfShape, DegenerateProblemError, PartialString,
    ProblemFormatError, ProblemSlice, Slice, composite_problem, connectivity_problem, formula_word,
    gamma, generic_problem, parse_string, predicted_sat_logogram, sat_problem,
)


def ps(text, alphabet=TERNARY):
    return parse_string(text, alphabet)


class TestCnfShape:
    def test_position_mapping(self):
        shape = CnfShape(3, 2)
        assert shape.length == 6
        assert shape.position(2, 2) == 5
        assert shape.var_of(5) == 2
        assert shape.clause_of(5) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            CnfShape(0, 1)


class TestSatEncoding:
    def test_single_clause_example(self):
        shape, word = formula_word({"n": 4, "clauses": [[1, 3, -4]]})
        assert word.render(4) == "1012"
        assert shape == CnfShape(4, 1)

    def test_two_clause_document(self):
        _, word = formula_word({"n": 2, "clauses": [[1], [-2]]})
        assert word.render(4) == "1002"

    def test_duplicate_literal_is_idempotent(self):
        _, word = formula_word({"n": 2, "clauses": [[1, 1]]})
        assert word.render(2) == "10"

    def test_contradictory_slot_rejected(self):
        with pytest.raises(ProblemFormatError):
            formula_word({"n": 2, "clauses": [[1, -1]]})

    def test_out_of_range_variable(self):
        with pytest.raises(ProblemFormatError):
            formula_word({"n": 2, "clauses": [[3]]})

    def test_missing_keys(self):
        with pytest.raises(ProblemFormatError):
            formula_word({"clauses": [[1]]})


class TestSatProblem:
    def test_1x1_target(self):
        p = sat_problem(1, 1)
        assert [w.render(1) for w in p.f_words()] == ["1", "2"]
        assert not p.accepts(p.slice.word("0"))  # the empty clause

    def test_alpha_and_solution_order(self):
        p = sat_problem(2, 1)
        assert p.alpha == 4
        assert p.solutions == (
            (False, False), (True, False), (False, True), (True, True))
        assert p.solution_texts()[0] == "x1=0 x2=0"

    def test_satisfies_examples(self):
        p = sat_problem(2, 1)
        y = (True, False)  # x1 true, x2 false
        assert p.satisfies(p.slice.word("12"), y)
        assert p.satisfies(p.slice.word("02"), y)
        assert not p.satisfies(p.slice.word("01"), y)

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (2, 3)])
    def test_target_matches_truth_table_oracle(self, n, m):
        p = sat_problem(n, m)
        f_ints = frozenset(p.slice.ints_of_mask(p.f_mask()))
        for i in p.slice.word_ints():
            text = p.slice.text_of_int(i)
            assert (i in f_ints) == oracles.truth_table_satisfiable(text, n, m)

    def test_clause_decomposition(self):
        # satisfaction is the conjunction of per-clause satisfaction, checked
        # against the literal-set decoding
        p = sat_problem(2, 2)
        for i in p.slice.word_ints():
            w = p.slice.word_of_int(i)
            text = p.slice.text_of_int(i)
            for y in p.solutions:
                lits = {v + 1 if y[v] else -(v + 1) for v in range(2)}
                expected = all(cl & lits for cl in oracles.decode_clauses(text, 2, 2))
                assert p.satisfies(w, y) == expected

    def test_regions_cover_target(self):
        p = sat_problem(2, 2)
        union = frozenset().union(
            *(p.slice.ints_of_mask(p.region_mask(i)) for i in range(p.alpha)))
        assert union == frozenset(p.slice.ints_of_mask(p.f_mask()))


class TestRegionMasks:
    """Each region-mask bit against a definition that visits the word."""

    @pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2)])
    def test_sat_matches_clause_oracle(self, n, m):
        p = sat_problem(n, m)
        for i, y in enumerate(p.solutions):
            mask = p.region_mask(i)
            lits = {v + 1 if y[v] else -(v + 1) for v in range(n)}
            for w in p.slice.word_ints():
                clauses = oracles.decode_clauses(p.slice.text_of_int(w), n, m)
                assert (mask >> w & 1) == all(cl & lits for cl in clauses)

    @pytest.mark.parametrize("width", [3, 4, 5, 6, 7])
    def test_composite_matches_proper_divisibility(self, width):
        p = composite_problem(width)
        for i, d in enumerate(p.solutions):
            mask = p.region_mask(i)
            for w in p.slice.word_ints():
                v = int(p.slice.text_of_int(w), 2)
                assert (mask >> w & 1) == (v % d == 0 and d < v)

    @pytest.mark.parametrize("vertices", [3, 4])
    def test_connectivity_matches_tree_edges(self, vertices):
        p = connectivity_problem(vertices)
        for i, tree in enumerate(p.solutions):
            mask = p.region_mask(i)
            for w in p.slice.word_ints():
                text = p.slice.text_of_int(w)
                assert (mask >> w & 1) == all(text[e] == "1" for e in tree)

    @pytest.mark.parametrize("width", range(3, 11))
    def test_composite_regions_are_the_multiples_from_2d(self, width):
        p = composite_problem(width)
        for i, d in enumerate(p.solutions):
            assert p.slice.ints_of_mask(p.region_mask(i)) == tuple(range(2 * d, 2 ** width, d))

    def test_satisfies_reads_the_mask(self):
        p = composite_problem(5)
        for i, d in enumerate(p.solutions):
            for w in p.slice.word_ints():
                assert p.satisfies(p.slice.word_of_int(w), d) == bool(p.region_mask(i) >> w & 1)


class TestPredictedLogogram:
    @pytest.mark.parametrize("n,m,count", [
        (1, 1, 2), (2, 1, 4), (1, 2, 2), (2, 2, 12), (2, 3, 28), (3, 2, 30)])
    def test_consistent_selection_counts(self, n, m, count):
        assert len(predicted_sat_logogram(CnfShape(n, m))) == count

    def test_1x1_strings(self):
        assert predicted_sat_logogram(CnfShape(1, 1)).texts(1) == ["1", "2"]

    def test_matches_computed_logogram_small(self):
        for n, m in [(1, 1), (2, 1), (1, 2), (2, 2)]:
            assert predicted_sat_logogram(CnfShape(n, m)).elements == \
                sat_problem(n, m).logogram().elements


class TestGamma:
    def test_pads_selection_with_zeros(self):
        assert gamma(ps("1___2_"), CnfShape(3, 2)).render(6) == "100020"

    def test_minimal_shape(self):
        assert gamma(ps("1"), CnfShape(1, 1)).render(1) == "1"

    def test_contains_exactly_its_selection(self):
        shape = CnfShape(2, 2)
        g = ps("1__2")
        word = gamma(g, shape)
        assert word.render(4) == "1002"
        assert g <= word
        included = [s for s in predicted_sat_logogram(shape).elements if s <= word]
        assert included == [g]

    def test_is_satisfiable(self):
        p = sat_problem(2, 2)
        for g in p.logogram().elements:
            assert p.accepts(gamma(g, CnfShape(2, 2)))

    def test_rejects_opposite_polarities(self):
        # one slot per clause but x1 demanded both ways: no assignment fits
        with pytest.raises(ValueError):
            gamma(ps("1_2_"), CnfShape(2, 2))

    def test_rejects_wrong_shape(self):
        shape = CnfShape(2, 2)
        with pytest.raises(ValueError):
            gamma(ps("11"), shape)  # two slots in the first clause, none in the second
        with pytest.raises(ValueError):
            gamma(ps("0__1"), shape)  # 0 is not a literal code
        with pytest.raises(ValueError):
            gamma(ps("1"), CnfShape(1, 2))  # second clause unconstrained


class TestComposite:
    def test_width_4_target(self):
        p = composite_problem(4)
        values = sorted(int(w.render(4), 2) for w in p.f_words())
        assert values == [4, 6, 8, 9, 10, 12, 14, 15]

    def test_satisfies(self):
        p = composite_problem(4)
        twelve = p.slice.word("1100")
        thirteen = p.slice.word("1101")
        assert p.satisfies(twelve, 3)
        assert all(not p.satisfies(thirteen, d) for d in p.solutions)

    def test_width_2_degenerate(self):
        with pytest.raises(DegenerateProblemError):
            composite_problem(2)

    @pytest.mark.parametrize("width", [3, 4, 5, 6])
    def test_matches_sieve(self, width):
        p = composite_problem(width)
        composites = oracles.sieve_composites(2 ** width)
        assert {int(p.slice.text_of_int(i), 2) for i in p.slice.ints_of_mask(p.f_mask())} == composites

    def test_membership_is_divisor_cover(self):
        p = composite_problem(5)
        f_ints = frozenset(p.slice.ints_of_mask(p.f_mask()))
        for i in p.slice.word_ints():
            w = p.slice.word_of_int(i)
            assert (i in f_ints) == any(p.satisfies(w, d) for d in p.solutions)


class TestConnectivity:
    def test_three_vertices(self):
        p = connectivity_problem(3)
        assert p.slice.word_count() == 8
        assert [w.render(3) for w in p.f_words()] == ["011", "101", "110", "111"]

    def test_tree_satisfaction(self):
        p = connectivity_problem(3)
        # edge order (1,2),(1,3),(2,3); the tree {1-2, 1-3} is edges 0 and 1
        tree = next(t for t in p.solutions if p.solution_text(t) == "1-2+1-3")
        assert p.satisfies(p.slice.word("110"), tree)
        assert not p.satisfies(p.slice.word("011"), tree)

    def test_two_vertices(self):
        p = connectivity_problem(2)
        assert [w.render(1) for w in p.f_words()] == ["1"]
        assert len(p.solutions) == 1

    def test_spanning_tree_count_is_cayley(self):
        assert len(connectivity_problem(4).solutions) == 16

    def test_matches_union_find_oracle(self):
        p = connectivity_problem(4)
        edges = [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
        f_ints = frozenset(p.slice.ints_of_mask(p.f_mask()))
        for i in p.slice.word_ints():
            text = p.slice.text_of_int(i)
            present = [edges[k] for k, ch in enumerate(text) if ch == "1"]
            assert (i in f_ints) == oracles.union_find_connected(4, present)

    def test_cut_target_matches_union_find_at_five_vertices(self):
        p = connectivity_problem(5)
        edges = [(i, j) for i in range(1, 6) for j in range(i + 1, 6)]
        f_ints = frozenset(p.slice.ints_of_mask(p.f_mask()))
        for i in p.slice.word_ints():
            present = [edges[k] for k, ch in enumerate(p.slice.text_of_int(i)) if ch == "1"]
            assert (i in f_ints) == oracles.union_find_connected(5, present)

    def test_connected_graph_counts(self):
        # labelled connected graphs on V vertices: OEIS A001187
        counts = [connectivity_problem(v).f_mask().bit_count() for v in range(2, 7)]
        assert counts == [1, 4, 38, 728, 26704]

    def test_connected_iff_tree_included(self):
        p = connectivity_problem(4)
        f_ints = frozenset(p.slice.ints_of_mask(p.f_mask()))
        for i in p.slice.word_ints():
            w = p.slice.word_of_int(i)
            assert (i in f_ints) == any(p.satisfies(w, t) for t in p.solutions)


class TestProblemSliceMasks:
    # the universe {00, 01, 11}: bits 0, 1 and 3
    @pytest.mark.parametrize("regions,target,error,match", [
        ([0b0010], 0b1010, ProblemFormatError, "do not cover the target exactly"),
        ([0b0010, 0b0100], None, ProblemFormatError, "outside the slice"),
        ([0], None, DegenerateProblemError, "empty target"),
        ([0b0011, 0b1000], 0b1011, DegenerateProblemError, "whole slice"),
    ])
    def test_construction_checks(self, regions, target, error, match):
        slc = Slice(BINARY, 2, ["00", "01", "11"])
        names = [f"r{i}" for i in range(len(regions))]
        with pytest.raises(error, match=match):
            ProblemSlice(slc, names, regions, "masks", target_mask=target)


class TestGeneric:
    GOOD = {
        "alphabet": ["0", "1"], "length": 2, "universe": "all",
        "target": ["11"], "regions": [["11"]], "label": "corner",
    }

    def test_valid_descriptor(self):
        p = generic_problem(self.GOOD)
        assert p.alpha == 1
        assert [w.render(2) for w in p.f_words()] == ["11"]
        assert p.satisfies(p.slice.word("11"), "region-1")

    def test_region_missing_target_word(self):
        doc = dict(self.GOOD, target=["11", "10"])
        with pytest.raises(ProblemFormatError):
            generic_problem(doc)

    def test_target_outside_universe(self):
        doc = dict(self.GOOD, universe=["00", "01"], regions=[["11"]])
        with pytest.raises(ProblemFormatError):
            generic_problem(doc)

    def test_missing_key(self):
        doc = {k: v for k, v in self.GOOD.items() if k != "regions"}
        with pytest.raises(ProblemFormatError):
            generic_problem(doc)

    def test_degenerate_full_target(self):
        doc = dict(self.GOOD, target=["00", "01", "10", "11"],
                   regions=[["00", "01", "10", "11"]])
        with pytest.raises(DegenerateProblemError):
            generic_problem(doc)

    def test_sat_roundtrip(self):
        original = sat_problem(1, 1)
        back = generic_problem(original.descriptor())
        assert back.slice.word_ints() == original.slice.word_ints()
        assert back.f_mask() == original.f_mask()
        assert back.alpha == original.alpha
        for i in range(original.alpha):
            assert back.region_mask(i) == original.region_mask(i)
        for w in map(original.slice.word_of_int, original.slice.word_ints()):
            for y_new, y_old in zip(back.solutions, original.solutions):
                assert back.satisfies(w, y_new) == original.satisfies(w, y_old)
