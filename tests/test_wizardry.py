"""Witness/wizard classification and the cover table."""

import pytest

import logogram.budget
import logogram.engine
import oracles
from logogram import (
    BINARY, Antichain, Budget, BudgetExceededError, PartialString, classify,
    composite_problem, connectivity_problem, cover, expand, generic_problem,
    in_logogram, reduced_logogram, sat_problem, witness_union_complete,
)

SINGLE_REGION = {
    "alphabet": ["0", "1"], "length": 2, "universe": "all",
    "target": ["10", "11"], "regions": [["10", "11"]], "label": "one-region",
}


class TestClassify:
    def test_sat_slices_have_no_wizards(self):
        for n, m in [(1, 1), (2, 1), (2, 2)]:
            report = classify(sat_problem(n, m))
            assert report.wizards == ()
            assert all(e.witness_regions for e in report.entries)

    def test_composite_4_wizards(self):
        report = classify(composite_problem(4))
        wizard_texts = [e.string for e in report.wizards]
        assert "111_" in wizard_texts
        entry = next(e for e in report.entries if e.string == "111_")
        exp = expand([PartialString.parse(entry.string, BINARY)], composite_problem(4).slice)
        assert sorted(int(w.render(4), 2) for w in exp) == [14, 15]
        # no divisor region contains both 14 and 15
        assert entry.witness_regions == ()

    def test_composite_4_witnesses_for_two(self):
        p = composite_problem(4)
        report = classify(p)
        witness = next(e for e in report.entries if e.string == "1__0")
        divisors = [p.solutions[i] for i in witness.witness_regions]
        assert divisors == [2]

    def test_single_region_never_has_wizards(self):
        report = classify(generic_problem(SINGLE_REGION))
        assert report.wizards == ()

    def test_connectivity_3_outcome_reported(self):
        # computed by exhaustion, not presumed: at 3 vertices every minimal
        # certificate is a spanning tree, so no wizards appear
        report = classify(connectivity_problem(3))
        assert [e.string for e in report.entries] == ["11_", "1_1", "_11"]
        assert report.wizards == ()

    def test_json_shape(self):
        doc = classify(composite_problem(4)).to_json_dict()
        assert doc["logogram_size"] == 4
        assert set(doc) == {"problem", "logogram_size", "wizards", "witnesses"}
        assert all(set(w) == {"string", "regions"} for w in doc["witnesses"])

    def test_minimality_transfers_to_regions(self):
        # a minimal target certificate that certifies a region is also
        # minimal within that region's logogram
        for problem in [sat_problem(2, 2), composite_problem(4)]:
            report = classify(problem)
            for entry in report.entries:
                for i in entry.witness_regions:
                    string = PartialString.parse(entry.string, problem.slice.alphabet)
                    assert string in problem.region_logograms()[i]


class TestWitnessUnion:
    def test_union_gap_is_exactly_the_wizards(self):
        # witnesses transfer into their region's reduced logogram, so the
        # target logogram minus the union of region logograms is the wizard
        # set: empty for clause problems, the two wizards for composite(4)
        for problem in [sat_problem(2, 2), sat_problem(3, 1),
                        composite_problem(4), connectivity_problem(3)]:
            union = set()
            for i in range(problem.alpha):
                union.update(problem.region_logograms()[i].elements)
            log = set(problem.logogram().elements)
            wizards = {PartialString.parse(e.string, problem.slice.alphabet)
                       for e in classify(problem).wizards}
            assert log - union == wizards

    def test_clause_union_equals_the_logogram_at_the_reduced_level(self):
        for n, m in [(1, 1), (2, 1), (1, 2), (2, 2)]:
            problem = sat_problem(n, m)
            union = set()
            for i in range(problem.alpha):
                union.update(problem.region_logograms()[i].elements)
            assert union == set(problem.logogram().elements)

    def test_region_certificates_certify_the_target(self):
        # membership in any region logogram implies membership in the
        # target's logogram
        for problem in [sat_problem(2, 2), composite_problem(4)]:
            for i in range(problem.alpha):
                for s in problem.region_logograms()[i].elements:
                    assert in_logogram(s, problem.slice.ints_of_mask(problem.f_mask()), problem.slice)

    def test_sat(self):
        assert witness_union_complete(sat_problem(2, 1))

    def test_composite_4_despite_wizards(self):
        assert witness_union_complete(composite_problem(4))

    def test_single_region(self):
        assert witness_union_complete(generic_problem(SINGLE_REGION))


class TestCover:
    def test_sat_2x1_charts(self):
        report = cover(sat_problem(2, 1))
        assert report.total_charts == 4
        assert all(c.containing_regions == 2 for c in report.charts)
        assert report.multiple_containing_regions

    def test_sat_1x1_charts(self):
        report = cover(sat_problem(1, 1))
        assert report.total_charts == 2
        assert all(c.containing_regions == 1 for c in report.charts)
        assert not report.multiple_containing_regions
        assert not report.fewer_charts_than_regions

    def test_sat_3x1_fewer_charts_than_regions(self):
        report = cover(sat_problem(3, 1))
        assert report.total_charts == 6
        assert report.region_count == 8
        assert report.fewer_charts_than_regions

    def test_single_region_unique_containment(self):
        report = cover(generic_problem(SINGLE_REGION))
        assert all(c.containing_regions == 1 for c in report.charts)

    def test_every_chart_nonempty(self):
        for problem in [sat_problem(2, 2), composite_problem(4)]:
            assert all(c.expansion_size > 0 for c in cover(problem).charts)

    def test_every_region_contains_a_chart(self):
        for n, m in [(1, 1), (2, 1), (2, 2)]:
            problem = sat_problem(n, m)
            log = problem.logogram()
            for i in range(problem.alpha):
                region = frozenset(problem.slice.ints_of_mask(problem.region_mask(i)))
                charts_inside = [
                    s for s in log.elements
                    if set(problem.slice.ints_of_mask(
                        problem.slice.mask_of_words(expand([s], problem.slice)))) <= region]
                assert charts_inside

    def test_rows_for_csv(self):
        rows = cover(sat_problem(1, 1)).rows()
        assert rows == [("1", 1, 1), ("2", 1, 1)]


def _doc(label, alphabet, length, in_universe, in_regions):
    universe = [w for w in oracles.all_words(alphabet, length) if in_universe(w)]
    regions = [[w for w in universe if r(w)] for r in in_regions]
    return {"label": label, "alphabet": list(alphabet), "length": length,
            "universe": universe, "target": sorted(set().union(*regions)),
            "regions": regions}


# explicit universes (not the whole cube) with duplicated and nested regions
GENERIC_DOCS = [
    _doc("nested", "abc", 3, lambda w: not w.startswith("cc"), [
        lambda w: w[0] == "a",
        lambda w: w[0] == "a",  # the same region again
        lambda w: w[:2] == "ab",  # inside the first
        lambda w: w[2] == "b",
        lambda w: w == "aab",  # inside the first and the fourth
    ]),
    _doc("even-split", "01", 4, lambda w: w.count("1") % 2 == 0, [
        lambda w: w[:2] == "11",
        lambda w: w[:2] == "10",
        lambda w: w[:2] == "11",  # the same region again
        lambda w: w[:3] == "111",  # inside the first
    ]),
]

ORACLE_CASES = {
    **{f"composite {w}": (composite_problem, w) for w in range(4, 13)},
    **{f"connectivity {v}": (connectivity_problem, v) for v in range(3, 7)},
    **{f"sat {n} {m}": (sat_problem, n, m) for n, m in [(2, 4), (4, 2), (3, 3)]},
    **{f"generic {d['label']}": (generic_problem, d) for d in GENERIC_DOCS},
}


class TestChartsAgainstRegionScan:
    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_classify_and_cover_match_the_oracle(self, case):
        build, *args = ORACLE_CASES[case]
        problem = build(*args)
        slc = problem.slice
        alphabet, length = "".join(slc.alphabet.letters), slc.length
        cube = oracles.all_words(alphabet, length)  # bit i of a mask is cube[i]

        def texts(mask):
            return [cube[i] for i in slc.ints_of_mask(mask)]

        strings = problem.logogram().texts(length)
        expected = oracles.containing_regions(
            texts(slc.e_mask()), alphabet, strings,
            [texts(problem.region_mask(i)) for i in range(problem.alpha)])
        entries = classify(problem).entries
        assert [e.string for e in entries] == strings
        assert [(e.witness_regions, e.is_wizard) for e in entries] == [
            (regions, not regions) for regions, _ in expected]
        assert [(c.expansion_size, c.containing_regions) for c in cover(problem).charts] == [
            (size, len(regions)) for regions, size in expected]

    def test_generic_cases_hold_wizards_and_shared_witnesses(self):
        # the descriptors exercise both outcomes: a string in no region, and
        # one in a duplicated or nested region
        entries = [e for d in GENERIC_DOCS for e in classify(generic_problem(d)).entries]
        assert any(e.is_wizard for e in entries)
        assert any(len(e.witness_regions) > 1 for e in entries)


class TestEngineOutputIsAnAntichain:
    # the search returns prime implicants, pairwise incomparable by
    # construction, so the engine skips Antichain.of's check; run it here
    @pytest.mark.parametrize("case", [*ORACLE_CASES, "sat 3 4"])
    def test_logograms_pass_the_antichain_check(self, case):
        build, *args = ORACLE_CASES.get(case, (sat_problem, 3, 4))
        problem = build(*args)
        alphabet = problem.slice.alphabet
        for log in [problem.logogram(), *problem.region_logograms()]:
            assert Antichain.of(log.elements, alphabet) == log


class TestRegionTestBudget:
    class TickingClock:
        """Stands in for the budget module's clock: one second per read."""

        def __init__(self):
            self.now = 0.0

        def monotonic(self):
            self.now += 1.0
            return self.now

    @pytest.mark.parametrize("run,what", [(classify, "wizards"), (cover, "cover")])
    def test_out_of_time_between_strings(self, monkeypatch, run, what):
        # the search is done (cached) before the clock is patched, so every
        # read after the meter starts comes from the check after the search
        # and the per-string checks: the deadline of 4.5 s passes at the
        # third string
        problem = composite_problem(6)
        problem.logogram()
        assert len(problem.logogram()) > 3
        monkeypatch.setattr(logogram.budget, "time", self.TickingClock())
        with pytest.raises(BudgetExceededError,
                           match=f"^{what}: composite:6: out of time after 2 of "):
            run(problem, Budget(max_seconds=3.5))

    @pytest.mark.parametrize("run,what", [(classify, "wizards"), (cover, "cover")])
    def test_out_of_time_after_the_search_builds_nothing(self, monkeypatch, run, what):
        # a meter already past its deadline when the search ends stops
        # before any cylinder, index or region mask is built
        problem = composite_problem(6)
        problem.logogram()

        def unread(index):
            raise AssertionError(f"region {index} read after the deadline")

        monkeypatch.setattr(problem, "region_mask", unread)
        monkeypatch.setattr(logogram.budget, "time", self.TickingClock())
        with pytest.raises(BudgetExceededError,
                           match=f"^{what}: composite:6: out of time after 0 of 14 strings"):
            run(problem, Budget(max_seconds=0.5))

    def test_out_of_time_between_strings_builds_no_later_string(self, monkeypatch):
        # the charts hold texts rendered one at a time, so the deadline that
        # stops them at the third string builds no string at all
        problem = composite_problem(6)
        problem.logogram()
        built = []

        class Counted(PartialString):
            def __init__(self, pairs):
                built.append(pairs)
                super().__init__(pairs)

        monkeypatch.setattr(logogram.engine, "PartialString", Counted)
        monkeypatch.setattr(logogram.budget, "time", self.TickingClock())
        with pytest.raises(BudgetExceededError, match="out of time after 2 of 14 strings"):
            cover(problem, Budget(max_seconds=3.5))
        assert built == []

    @pytest.mark.parametrize("run,what", [(classify, "wizards"), (cover, "cover")])
    def test_out_of_time_while_building_cylinders(self, monkeypatch, run, what):
        # 406 strings: the clock is read again after the 256th cylinder,
        # past the deadline of 2.5 s, before any region mask is read
        problem = composite_problem(10)
        problem.logogram()

        def unread(index):
            raise AssertionError(f"region {index} read after the deadline")

        monkeypatch.setattr(problem, "region_mask", unread)
        monkeypatch.setattr(logogram.budget, "time", self.TickingClock())
        with pytest.raises(BudgetExceededError,
                           match=f"^{what}: composite:10: out of time after 0 of 406 strings"):
            run(problem, Budget(max_seconds=1.5))

    @pytest.mark.parametrize("run,what", [(classify, "wizards"), (cover, "cover")])
    def test_out_of_time_while_indexing_regions(self, monkeypatch, run, what):
        # 180 strings and 510 regions: the clock is read again after the
        # 256th region, past the deadline, and no later region is read
        problem = composite_problem(9)
        problem.logogram()
        read = []
        region_mask = problem.region_mask
        monkeypatch.setattr(problem, "region_mask",
                            lambda index: read.append(index) or region_mask(index))
        monkeypatch.setattr(logogram.budget, "time", self.TickingClock())
        with pytest.raises(BudgetExceededError,
                           match=f"^{what}: composite:9: out of time after 0 of 180 strings"):
            run(problem, Budget(max_seconds=1.5))
        assert read == list(range(256))

    @pytest.mark.parametrize("run", [classify, cover])
    def test_report_unchanged_while_time_remains(self, monkeypatch, run):
        problem = composite_problem(6)
        expected = run(problem).to_json_dict()
        monkeypatch.setattr(logogram.budget, "time", self.TickingClock())
        assert run(problem, Budget(max_seconds=1e6)).to_json_dict() == expected
