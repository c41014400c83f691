"""Acceptance suite: the headline guarantees, each verified by exhaustive
oracle at desk scale. One pass/fail line per criterion (visible with -s).

Everything here is exact: the claims under test are combinatorial
identities, so tolerances are equalities, and the only numeric limits are
the stated runtime ceilings.
"""

import random
import time
from contextlib import contextmanager
from itertools import product

import oracles
from logogram import (
    BINARY, TERNARY, Budget, CnfShape, PartialString, Slice, classify,
    composite_problem, connectivity_problem, cover, entangles, expand,
    gamma, in_logogram, irreducibility_report, is_complete,
    kernel as program_kernel, predicted_sat_logogram,
    reduced_logogram, sat_problem, strong_independence, verify_galois,
    built_in_programs, witness_union_complete,
)

SAT_SHAPES_3 = [(n, m) for n in (1, 2, 3) for m in (1, 2, 3)]
FROZEN_SAT_COUNTS = {(1, 1): 2, (2, 1): 4, (1, 2): 2, (2, 2): 12,
                     (2, 3): 28, (3, 2): 30}


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


def oracle_chain(slc, target_ints):
    e_texts = [slc.text_of_int(i) for i in slc.word_ints()]
    a_texts = [slc.text_of_int(i) for i in sorted(target_ints)]
    return oracles.brute_reduced_logogram(e_texts, a_texts)


def test_criterion_reduced_logogram_oracle_equivalence():
    started = time.monotonic()
    with criterion("pruned reduced logogram equals the unpruned oracle; "
                   "clause-shape counts and closed form agree (< 60 s)"):
        cases = []
        for n, m in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3),
                     (2, 3), (3, 2), (4, 1), (4, 2)]:
            p = sat_problem(n, m)
            cases.append((p.slice, p.slice.ints_of_mask(p.f_mask()), p.logogram()))
        for width in (3, 4, 5, 6):
            p = composite_problem(width)
            cases.append((p.slice, p.slice.ints_of_mask(p.f_mask()), p.logogram()))
        for v in (2, 3, 4):
            p = connectivity_problem(v)
            cases.append((p.slice, p.slice.ints_of_mask(p.f_mask()), p.logogram()))
        rng = random.Random(2024)
        tern3 = Slice(TERNARY, 3)
        for _ in range(6):
            target = rng.sample(tern3.word_ints(), rng.randint(1, 26))
            cases.append((tern3, target, reduced_logogram(target, tern3)))
        even5 = Slice(BINARY, 5, oracles.words_where("01", 5, lambda w: w.count("1") % 2 == 0),
                      label="even:5")
        target = rng.sample(even5.word_ints(), 7)
        cases.append((even5, target, reduced_logogram(target, even5)))

        for slc, target, chain in cases:
            assert (len(slc.alphabet) + 1) ** slc.length <= 10 ** 5
            assert chain.texts(slc.length) == oracle_chain(slc, target)

        for (n, m), count in FROZEN_SAT_COUNTS.items():
            computed = sat_problem(n, m).logogram()
            assert len(computed) == count
            predicted = predicted_sat_logogram(CnfShape(n, m))
            assert predicted.elements == computed.elements
        elapsed = time.monotonic() - started
        assert elapsed < 60, f"took {elapsed:.1f}s"


def test_criterion_sat_strong_independence():
    with criterion("strong internal independence on every clause shape up to "
                   "3x3 and 4x2, zero-padded words verified as separators"):
        for n, m in SAT_SHAPES_3 + [(4, 2)]:
            p = sat_problem(n, m)
            report = strong_independence(p)
            assert report.passed, (n, m)
            others = {s for s, _ in report.separators}
            assert len(others) == len(p.logogram())
            for string_text, word_text in report.separators:
                padded = string_text.replace("_", "0")
                assert word_text == padded
                # independent re-check on text level
                assert oracles.includes(padded, string_text)
                for other in others - {string_text}:
                    assert not oracles.includes(padded, other)


def test_criterion_sat_has_no_wizards():
    with criterion("no wizards in any clause-shape logogram up to 3x3 and 4x2"):
        for n, m in SAT_SHAPES_3 + [(4, 2)]:
            report = classify(sat_problem(n, m))
            assert report.wizards == (), (n, m)
            assert all(e.witness_regions for e in report.entries)


def test_criterion_sat_logogram_irreducible():
    with criterion("every clause-shape logogram up to 3x3 and 4x2 is "
                   "irreducible, with one-literal-per-clause words as the "
                   "unique certificates"):
        for n, m in SAT_SHAPES_3 + [(4, 2)]:
            p = sat_problem(n, m)
            log = p.logogram()
            report = irreducibility_report(log.elements, p)
            assert report.irreducible, (n, m)
            shape = CnfShape(n, m)
            members = set(log.elements)
            for g in log.elements:
                word = gamma(g, shape)
                assert g <= word
                assert p.f_mask() & p.slice.mask_of_words([word])
                included = [h for h in members if h <= word]
                assert included == [g]


def test_criterion_composite_wizard_exists():
    with criterion("width-4 compositeness has a wizard: the all-ones prefix "
                   "string with expansion {14, 15}"):
        p = composite_problem(4)
        report = classify(p)
        assert len(report.wizards) >= 1
        entry = next(e for e in report.entries if e.string == "111_")
        assert entry.is_wizard
        string = PartialString.parse(entry.string, BINARY)
        exp = expand([string], p.slice)
        assert sorted(int(w.render(4), 2) for w in exp) == [14, 15]
        assert string in p.logogram()  # minimal, not just forcing


def test_criterion_witness_union_complete():
    with criterion("the union of the region logograms is complete on every "
                   "clause shape up to 3x3 and width-4 compositeness"):
        for n, m in SAT_SHAPES_3:
            assert witness_union_complete(sat_problem(n, m)), (n, m)
        assert witness_union_complete(composite_problem(4))


def test_criterion_galois_laws():
    started = time.monotonic()
    with criterion("expansion/logogram closure laws hold on 1000 seeded "
                   "samples per slice with zero counterexamples (< 30 s)"):
        slices = [
            Slice(BINARY, 4),
            Slice(BINARY, 6),
            Slice(TERNARY, 4),
            Slice(BINARY, 4, oracles.words_where("01", 4, lambda w: w.count("1") % 2 == 0),
                  label="even:4"),
        ]
        for slc in slices:
            assert len(slc.alphabet) ** slc.length <= 81
            report = verify_galois(slc, sample_count=1000, seed=20240601)
            assert report.passed, report
            assert all(c.samples >= 1000 for c in report.checks)
            assert all(c.counterexample is None for c in report.checks)
        elapsed = time.monotonic() - started
        assert elapsed < 30, f"took {elapsed:.1f}s"


def test_criterion_all_solvers_share_the_kernel():
    started = time.monotonic()
    with criterion("the three traced solvers are correct and justified on "
                   "every input up to shapes 2x3, 3x2, 2x4, 4x2 and 3x3, with "
                   "complete, identical kernels equal to the full logogram (< 30 s)"):
        for n, m in [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3)]:
            p = sat_problem(n, m)
            log = p.logogram()
            kernels = []
            for prog in built_in_programs(p):
                k = program_kernel(prog, p)  # raises on any fault
                assert is_complete(k.elements, p), (n, m, prog.name)
                kernels.append(k.elements)
            assert all(k == log.elements for k in kernels), (n, m)
        elapsed = time.monotonic() - started
        assert elapsed < 30, f"took {elapsed:.1f}s"


def test_criterion_kernel_sweep_at_3_to_the_12():
    # 531,441 words each: about 9 s on a 2-core VM, searches included; the
    # sweeps alone are in BENCH_kernel_rows.json, where a walk that split
    # word sets per node took about 20 s
    started = time.monotonic()
    with criterion("the three traced solvers' kernels on shapes 4x3 and 3x4 "
                   "equal the closed-form logogram (< 30 s)"):
        for n, m in [(4, 3), (3, 4)]:
            p = sat_problem(n, m)
            predicted = predicted_sat_logogram(CnfShape(n, m))
            for prog in built_in_programs(p):
                assert program_kernel(prog, p).elements == predicted.elements, (n, m, prog.name)
        elapsed = time.monotonic() - started
        assert elapsed < 30, f"took {elapsed:.1f}s"


def test_criterion_order_and_entanglement_laws():
    started = time.monotonic()
    with criterion("lattice laws, expansion laws, logogram-union inclusion, "
                   "and entanglement facts: zero violations (< 30 s)"):
        # exhaustive string universe over three ternary positions
        universe = [PartialString.parse("".join(c), TERNARY)
                    for c in product(["_", "0", "1", "2"], repeat=3)]
        below = {g: {f for f in universe if f <= g} for g in universe}
        for g in universe:
            assert g in below[g]
            for h in universe:
                if g <= h:
                    assert below[g] <= below[h]  # transitivity
                    if h <= g:
                        assert g == h  # antisymmetry
        from itertools import combinations
        for f in universe:
            subs = [PartialString(sub) for r in range(len(f.pairs) + 1)
                    for sub in combinations(f.pairs, r)]
            for g in universe:
                m = f & g
                assert m <= f and m <= g
                assert all(h <= m for h in subs if h <= g)  # greatest lower bound
                if f.compatible(g):
                    j = f | g
                    assert f <= j and g <= j
                    assert all(j <= h for h in universe if f <= h and g <= h)

        # four positions, exhaustively, against the set-theoretic oracle:
        # under extension, strings are their assignment sets ordered by
        # inclusion, so meet must be intersection and join must be union
        # (exactly when the union is still a function)
        big = [PartialString.parse("".join(c), TERNARY)
               for c in product(["_", "0", "1", "2"], repeat=4)]
        pair_sets = {f: frozenset(f.pairs) for f in big}
        for f in big:
            fs = pair_sets[f]
            for g in big:
                gs = pair_sets[g]
                assert (f <= g) == (fs <= gs)
                functional = len({p for p, _ in fs | gs}) == len(fs | gs)
                assert f.compatible(g) == functional
                assert frozenset((f & g).pairs) == fs & gs
                if functional:
                    assert frozenset((f | g).pairs) == fs | gs

        # expansion laws on a couple of slices, exhaustive singletons
        for slc in (Slice(TERNARY, 2), Slice(BINARY, 4)):
            sigma = sorted(oracles.sigma_members(
                slc.text_of_int(i) for i in slc.word_ints()))
            strings = [PartialString.parse(t, slc.alphabet) for t in sigma]
            for f in strings:
                ef = set(expand([f], slc))
                assert expand(list(ef), slc) == tuple(sorted(
                    ef, key=lambda w: slc.mask_of_words([w])))  # idempotence
                for g in strings:
                    eg = set(expand([g], slc))
                    assert set(expand([f, g], slc)) == ef | eg
                    if f.compatible(g):
                        assert set(expand([f | g], slc)) == ef & eg
                    else:
                        assert not (ef & eg)
                    if f <= g:
                        assert eg <= ef
                        assert entangles([g], [f], slc)

        # expansion laws again on a 256-word slice, seeded random string sets
        rng = random.Random(77)
        wide = Slice(BINARY, 8)
        wide_words = [wide.text_of_int(i) for i in wide.word_ints()]
        for _ in range(40):
            def pick_set():
                out = []
                for _ in range(rng.randint(1, 3)):
                    w = rng.choice(wide_words)
                    keep = [p for p in range(1, 9) if rng.random() < 0.4]
                    out.append(PartialString.parse(
                        "".join(w[p - 1] if p in keep else "_" for p in range(1, 9)),
                        BINARY))
                return out
            h, k = pick_set(), pick_set()
            eh, ek = set(expand(h, wide)), set(expand(k, wide))
            assert set(expand(h + k, wide)) == eh | ek
            joins = [f | g for f in h for g in k if f.compatible(g)]
            assert set(expand(joins, wide)) == eh & ek
            sub = [s for s in h if rng.random() < 0.5]
            assert set(expand(sub, wide)) <= eh
            assert set(expand(list(eh), wide)) == eh

        # logogram of a union swallows both logograms (random, via oracle)
        slc = Slice(BINARY, 3)
        e_texts = [slc.text_of_int(i) for i in slc.word_ints()]
        for _ in range(12):
            a = set(rng.sample(e_texts, rng.randint(1, 4)))
            b = set(rng.sample(e_texts, rng.randint(1, 4)))
            union_words = [PartialString.parse(t, BINARY) for t in a | b]
            for text in (oracles.logogram_members(e_texts, a)
                         | oracles.logogram_members(e_texts, b)):
                assert in_logogram(PartialString.parse(text, BINARY), union_words, slc)

        # set inclusion forces entanglement absolutely, hence in any slice
        for _ in range(20):
            sub_e = rng.sample(e_texts, rng.randint(1, len(e_texts)))
            sub_slc = Slice(BINARY, 3, sub_e)
            sigma = sorted(oracles.sigma_members(sub_e))
            k = [PartialString.parse(t, BINARY) for t in rng.sample(sigma, min(4, len(sigma)))]
            h = [s for s in k if rng.random() < 0.6]
            assert entangles(h, k, sub_slc)
        elapsed = time.monotonic() - started
        assert elapsed < 30, f"took {elapsed:.1f}s"


def test_criterion_cover_report_flags_discrepancies():
    with criterion("cover tables report chart sizes and containing-region "
                   "counts, flagging multiple containment at 2x1 and the "
                   "6-chart vs 8-region gap at 3x1"):
        report21 = cover(sat_problem(2, 1))
        assert all(c.containing_regions == 2 for c in report21.charts)
        assert report21.multiple_containing_regions

        report31 = cover(sat_problem(3, 1))
        assert report31.total_charts == 6
        assert report31.region_count == 8
        assert report31.fewer_charts_than_regions

        report11 = cover(sat_problem(1, 1))
        assert all(c.containing_regions == 1 for c in report11.charts)

        print("\ncover growth across clause shapes:")
        print(f"{'shape':>8} {'charts':>7} {'regions':>8}")
        for n, m in [(1, 1), (2, 1), (3, 1), (2, 2), (2, 3), (3, 2)]:
            rep = cover(sat_problem(n, m))
            assert all(c.expansion_size > 0 for c in rep.charts)
            print(f"{f'{n}x{m}':>8} {rep.total_charts:>7} {rep.region_count:>8}")
