"""Probe traces, justification, kernels of traced programs."""

import pytest

import logogram.budget
import oracles
from logogram import (
    Budget, BudgetExceededError, DecisionProgram, MalformedProgramError, ProbeTrace, ProgramFaultError,
    Verdict, backward_assignment_scan, built_in_programs, clause_first_scan,
    forward_assignment_scan, generic_problem, irreducibility_report, justified,
    kernel, parse_string, run_traced, sat_problem, trace_records, TERNARY,
)


def ps(text, alphabet=TERNARY):
    return parse_string(text, alphabet)


class TestRunTraced:
    def test_forward_scan_accepts_satisfiable_unit(self):
        p = sat_problem(1, 1)
        trace = run_traced(forward_assignment_scan(p), p.slice.word("1"), p)
        assert trace.verdict == Verdict.ACCEPT
        assert trace.probes == ((1, "1"),)

    def test_rejects_empty_clause(self):
        p = sat_problem(1, 1)
        for prog in built_in_programs(p):
            trace = run_traced(prog, p.slice.word("0"), p)
            assert trace.verdict == Verdict.REJECT
            assert trace.probes == ((1, "0"),)

    def test_constant_accept_records_mismatching_verdict(self):
        p = sat_problem(1, 1)
        prog = DecisionProgram("always-accept", lambda probe: True)
        word = p.slice.word("0")
        trace = run_traced(prog, word, p)
        assert trace.verdict == Verdict.ACCEPT
        assert not p.accepts(word)  # wrong, and kernel() will say so

    def test_revisit_is_malformed(self):
        p = sat_problem(2, 1)
        prog = DecisionProgram("revisits", lambda probe: probe(1) == probe(1))
        with pytest.raises(MalformedProgramError):
            run_traced(prog, p.slice.word("10"), p)

    def test_out_of_range_probe_is_malformed(self):
        p = sat_problem(2, 1)
        prog = DecisionProgram("wild", lambda probe: probe(7) == "1")
        with pytest.raises(MalformedProgramError):
            run_traced(prog, p.slice.word("10"), p)

    def test_word_outside_slice_rejected(self):
        p = sat_problem(2, 1)
        with pytest.raises(ValueError):
            run_traced(forward_assignment_scan(p), ps("1"), p)

    def test_probes_record_letters_in_order(self):
        p = sat_problem(2, 2)
        trace = run_traced(clause_first_scan(p), p.slice.word("1012"), p)
        positions = [pos for pos, _ in trace.probes]
        assert positions == sorted(set(positions))
        observed = dict(trace.probes)
        assert all(observed[pos] == "1012"[pos - 1] for pos in observed)


class TestJustified:
    def test_accept_on_forced_restriction(self):
        p = sat_problem(1, 1)
        trace = ProbeTrace(((1, "1"),), Verdict.ACCEPT)
        assert justified(trace, p.slice.word("1"), p)

    def test_accept_with_partial_probe(self):
        p = sat_problem(2, 1)
        trace = ProbeTrace(((1, "1"),), Verdict.ACCEPT)
        assert justified(trace, p.slice.word("10"), p)

    def test_unjustified_accept(self):
        p = sat_problem(2, 1)
        trace = ProbeTrace(((2, "0"),), Verdict.ACCEPT)
        assert not justified(trace, p.slice.word("10"), p)

    def test_justified_reject_requires_no_accepted_extension(self):
        p = sat_problem(2, 1)
        assert justified(ProbeTrace(((1, "0"), (2, "0")), Verdict.REJECT),
                         p.slice.word("00"), p)
        assert not justified(ProbeTrace(((1, "0"),), Verdict.REJECT),
                             p.slice.word("00"), p)

    @pytest.mark.parametrize("text", ["0", "2"])
    def test_probe_letter_must_agree_with_the_word(self, text):
        p = sat_problem(1, 1)
        with pytest.raises(ValueError, match="not probes of a word of the slice"):
            justified(ProbeTrace(((1, "1"),), Verdict.ACCEPT), p.slice.word(text), p)

    def test_probe_position_must_be_in_the_word(self):
        p = sat_problem(1, 1)
        with pytest.raises(ValueError, match="not probes of a word of the slice"):
            justified(ProbeTrace(((5, "1"),), Verdict.ACCEPT), p.slice.word("1"), p)

    def test_word_must_be_a_word_of_the_slice(self):
        p = sat_problem(1, 1)
        with pytest.raises(ValueError):
            justified(ProbeTrace(((1, "1"),), Verdict.ACCEPT), ps("11"), p)
        even = generic_problem(EVEN4_DOC)  # "1000" has odd parity
        with pytest.raises(ValueError, match="not probes of a word of the slice"):
            justified(ProbeTrace(((1, "1"),), Verdict.ACCEPT),
                      parse_string("1000", even.slice.alphabet), even)

    def test_accepting_restrictions_never_leave_the_target(self):
        # a justified accept's restriction cannot sit inside a rejected word
        p = sat_problem(2, 2)
        f_ints = frozenset(p.slice.ints_of_mask(p.f_mask()))
        for prog in built_in_programs(p):
            for record in trace_records(prog, p):
                if record["verdict"] != "accept":
                    continue
                restriction = {pos: ch for pos, ch in record["probes"]}
                for i in p.slice.word_ints():
                    if i in f_ints:
                        continue
                    text = p.slice.text_of_int(i)
                    assert not all(text[pos - 1] == ch
                                   for pos, ch in restriction.items())


class TestKernel:
    def test_forward_scan_1x1(self):
        p = sat_problem(1, 1)
        assert kernel(forward_assignment_scan(p), p).texts(1) == ["1", "2"]

    def test_backward_scan_2x2_full_logogram(self):
        p = sat_problem(2, 2)
        k = kernel(backward_assignment_scan(p), p)
        assert k.elements == p.logogram().elements
        assert len(k) == 12

    def test_single_certificate_problem(self):
        doc = {"alphabet": ["0", "1"], "length": 2, "universe": "all",
               "target": ["10", "11"], "regions": [["10", "11"]], "label": "one"}
        p = generic_problem(doc)

        def decide(probe):
            return probe(1) == "1"

        k = kernel(DecisionProgram("first-position", decide), p)
        assert k.texts(2) == ["1_"]

    def test_incorrect_program_reported_with_input(self):
        p = sat_problem(1, 1)
        with pytest.raises(ProgramFaultError) as err:
            kernel(DecisionProgram("always-accept", lambda probe: True), p)
        assert err.value.word_text == "0"

    def test_underprobing_program_is_unjustified(self):
        # right verdicts on every input of the sweep, but with no probes the
        # restriction justifies none of them
        p = sat_problem(1, 1)
        answers = iter([False, True, True])  # matches the target on "0","1","2"
        psychic = DecisionProgram("sweep-psychic", lambda probe: next(answers))
        with pytest.raises(ProgramFaultError) as err:
            kernel(psychic, p)
        assert "justified" in err.value.reason

    def test_out_of_time_names_the_word(self, monkeypatch):
        # the logogram is cached before the clock is patched; the sweep
        # reads it once per trace, at "00", "10" and then "11", where the
        # deadline of 3.5 s has passed
        p = sat_problem(1, 2)
        p.logogram()
        monkeypatch.setattr(logogram.budget, "time", TestTraceRecords.TickingClock())
        with pytest.raises(BudgetExceededError,
                           match="^kernel sweep for forward-assignment-scan: "
                                 "out of time at word '11'$"):
            kernel(forward_assignment_scan(p), p, Budget(max_seconds=2.5))

    def test_probe_economy(self):
        p = sat_problem(2, 3)
        for prog in built_in_programs(p):
            for record in trace_records(prog, p):
                positions = [pos for pos, _ in record["probes"]]
                assert len(positions) == len(set(positions))
                assert len(positions) <= p.slice.length


# words of length 4 with an even number of ones, the target those starting
# with 1: a universe that is not the full cube, with a reducible logogram
EVEN4_WORDS = [w for w in oracles.all_words("01", 4) if w.count("1") % 2 == 0]
EVEN4_DOC = {"alphabet": ["0", "1"], "length": 4, "universe": EVEN4_WORDS,
             "target": [w for w in EVEN4_WORDS if w[0] == "1"],
             "regions": [[w for w in EVEN4_WORDS if w[0] == "1"]], "label": "even:4"}


def first_position(probe):
    return probe(1) == "1"


def odd_tail(probe):
    # on even-parity words, position 1 is 1 exactly when 2..4 hold an odd
    # number of ones
    return [probe(4), probe(3), probe(2)].count("1") % 2 == 1


def sweep_psychic():
    # right verdicts on sat 1 1 when run once per word, in order, with no probes
    answers = iter([False, True, True])
    return DecisionProgram("sweep-psychic", lambda probe: next(answers))


def oracle_sweep(program, p):
    slc = p.slice
    texts = [slc.text_of_int(i) for i in slc.word_ints()]
    return oracles.sweep_kernel(
        program.decide, program.name, "".join(slc.alphabet.letters), slc.length,
        texts, [slc.text_of_int(i) for i in slc.ints_of_mask(p.f_mask())], p.logogram().texts(slc.length))


class TestKernelOracle:
    @pytest.mark.parametrize("n,m", [(n, m) for n in (1, 2, 3) for m in (1, 2, 3)])
    def test_built_in_programs_match_per_word_sweep(self, n, m):
        p = sat_problem(n, m)
        for prog in built_in_programs(p):
            expected, fault = oracle_sweep(prog, p)
            assert fault is None, (prog.name, fault)
            assert sorted(kernel(prog, p).texts(p.slice.length)) == expected, prog.name

    def test_universe_smaller_than_the_cube(self):
        p = generic_problem(EVEN4_DOC)
        kernels = {}
        for prog in (DecisionProgram("first-position", first_position),
                     DecisionProgram("odd-tail", odd_tail)):
            expected, fault = oracle_sweep(prog, p)
            assert fault is None, (prog.name, fault)
            kernels[prog.name] = kernel(prog, p).texts(4)
            assert sorted(kernels[prog.name]) == expected, prog.name
        assert kernels == {"first-position": ["1___"],
                           "odd-tail": ["_001", "_010", "_100", "_111"]}

    @pytest.mark.parametrize("make,shape", [
        (lambda: DecisionProgram("always-accept", lambda probe: True), (1, 2)),
        (lambda: DecisionProgram("first-position", first_position), (1, 2)),
        (sweep_psychic, (1, 1)),
    ], ids=["always-accept", "first-position", "sweep-psychic"])
    def test_faults_match_per_word_sweep(self, make, shape):
        p = sat_problem(*shape)
        _, fault = oracle_sweep(make(), p)
        assert fault is not None
        with pytest.raises(ProgramFaultError) as err:
            kernel(make(), p)
        assert (err.value.word_text, err.value.reason) == fault

    @pytest.mark.parametrize("decide,message", [
        (lambda probe: probe(1) == probe(1), "malformed: position 1 probed twice"),
        (lambda probe: probe(2) == "1" or probe(7) == "1",
         "malformed: probe outside positions 1..2: 7"),
        (lambda probe: probe(1.0) == "1", "malformed: probe outside positions 1..2: 1.0"),
        (lambda probe: probe("1") == "1", "malformed: probe outside positions 1..2: '1'"),
    ], ids=["revisit", "out-of-range", "float", "text"])
    def test_probe_discipline(self, decide, message):
        p = sat_problem(2, 1)
        prog = DecisionProgram("malformed", decide)
        with pytest.raises(MalformedProgramError) as err:
            kernel(prog, p)
        assert str(err.value) == message
        with pytest.raises(MalformedProgramError) as err:
            list(trace_records(prog, p))
        assert str(err.value) == message
        with pytest.raises(MalformedProgramError) as err:
            run_traced(prog, p.slice.word("00"), p)
        assert str(err.value) == message

    def test_runs_once_per_distinct_trace(self):
        p = sat_problem(2, 3)
        prog = forward_assignment_scan(p)
        traces = {(tuple(map(tuple, r["probes"])), r["verdict"])
                  for r in trace_records(prog, p)}
        calls = 0

        def counted(probe):
            nonlocal calls
            calls += 1
            return prog.decide(probe)

        kernel(DecisionProgram(prog.name, counted), p)
        assert calls == len(traces) == 347
        assert p.slice.word_count() == 729

    def test_dump_runs_once_per_distinct_trace(self):
        p = sat_problem(2, 3)
        prog = forward_assignment_scan(p)
        calls = 0

        def counted(probe):
            nonlocal calls
            calls += 1
            return prog.decide(probe)

        records = list(trace_records(DecisionProgram(prog.name, counted), p))
        assert [r["input"] for r in records] == [
            p.slice.text_of_int(i) for i in p.slice.word_ints()]
        assert len(records) == 729
        assert calls == 347

    @pytest.mark.parametrize("make", [
        lambda: (sat_problem(2, 3), built_in_programs(sat_problem(2, 3))),
        lambda: (generic_problem(EVEN4_DOC),
                 (DecisionProgram("first-position", first_position),
                  DecisionProgram("odd-tail", odd_tail))),
    ], ids=["sat-2x3", "even-4"])
    def test_dump_matches_per_word_runs(self, make):
        p, programs = make()
        slc, L = p.slice, p.slice.length
        log = p.logogram().texts(L)
        for prog in programs:
            records = list(trace_records(prog, p))
            assert len(records) == slc.word_count()
            for i, record in zip(slc.word_ints(), records):
                word = slc.word_of_int(i)
                trace = run_traced(prog, word, p)
                observed = dict(trace.probes)
                restriction = "".join(observed.get(pos, "_") for pos in range(1, L + 1))
                accepted = trace.verdict == Verdict.ACCEPT
                assert record == {
                    "input": slc.text_of_int(i),
                    "probes": [[pos, ch] for pos, ch in trace.probes],
                    "verdict": trace.verdict.value,
                    "justified": justified(trace, word, p),
                    "certifying_strings": [g for g in log if accepted
                                           and oracles.includes(restriction, g)],
                }, (prog.name, record["input"])


class TestKernelLaws:
    @pytest.mark.parametrize("n,m", [(n, m) for n in (1, 2, 3) for m in (1, 2, 3)])
    def test_every_solver_kernel_is_complete_and_full(self, n, m):
        # a correct justified program must certify with a complete set, and
        # on these problems that set is the whole reduced logogram
        from logogram import is_complete
        p = sat_problem(n, m)
        log = p.logogram()
        for prog in built_in_programs(p):
            k = kernel(prog, p)
            assert is_complete(k.elements, p)
            assert k.elements == log.elements

    def test_reducible_logogram_allows_unequal_kernels(self):
        # two correct justified programs may certify with different
        # complete sets when the reduced logogram is reducible
        doc = {"alphabet": ["0", "1"], "length": 2, "universe": ["00", "11"],
               "target": ["11"], "regions": [["11"]], "label": "twin"}
        p = generic_problem(doc)
        first = DecisionProgram("first-position", lambda probe: probe(1) == "1")
        second = DecisionProgram("second-position", lambda probe: probe(2) == "1")
        assert kernel(first, p).texts(2) == ["1_"]
        assert kernel(second, p).texts(2) == ["_1"]
        assert not irreducibility_report(p.logogram(), p).irreducible


class TestTraceRecords:
    def test_record_shape_and_justification(self):
        p = sat_problem(1, 1)
        records = list(trace_records(forward_assignment_scan(p), p))
        assert [r["input"] for r in records] == ["0", "1", "2"]
        assert all(r["justified"] for r in records)
        accept = next(r for r in records if r["input"] == "1")
        assert accept["certifying_strings"] == ["1"]
        reject = next(r for r in records if r["input"] == "0")
        assert reject["certifying_strings"] == []

    class TickingClock:
        """Stands in for the budget module's clock: one second per read."""

        def __init__(self):
            self.now = 0.0

        def monotonic(self):
            self.now += 1.0
            return self.now

    def test_out_of_time_between_words(self, monkeypatch):
        # the logogram is cached before the clock is patched, so every read
        # after the meter starts comes from the per-word check: the deadline
        # of 3.5 s passes at the third word, "02"
        p = sat_problem(1, 2)
        p.logogram()
        monkeypatch.setattr(logogram.budget, "time", self.TickingClock())
        records = trace_records(forward_assignment_scan(p), p, Budget(max_seconds=2.5))
        assert [r["input"] for r in (next(records), next(records))] == ["00", "01"]
        with pytest.raises(BudgetExceededError,
                           match="^trace dump for forward-assignment-scan: "
                                 "out of time at word '02'$"):
            next(records)

    def test_built_ins_need_clause_shape(self):
        doc = {"alphabet": ["0", "1"], "length": 2, "universe": "all",
               "target": ["11"], "regions": [["11"]], "label": "corner"}
        with pytest.raises(ValueError):
            forward_assignment_scan(generic_problem(doc))
