"""Probe traces, justification, kernels of traced programs."""

import contextlib
import io
import json

import pytest

import logogram.budget
import oracles
from logogram import (
    Antichain, Budget, BudgetExceededError, DecisionProgram, MalformedProgramError, ProgramFaultError,
    backward_assignment_scan, built_in_programs, clause_first_scan,
    PartialString, forward_assignment_scan, generic_problem, irreducibility_report,
    justified, kernel, sat_problem, BINARY, TERNARY,
)


def ps(text, alphabet=TERNARY):
    return PartialString.parse(text, alphabet)


def dumped(program, p, budget=None):
    """The trace dump ``kernel`` writes, parsed: one record per word, in word
    order, whole even when the sweep then raises on a faulty program."""
    buf = io.StringIO()
    with contextlib.suppress(ProgramFaultError):
        kernel(program, p, budget, buf)
    return [json.loads(line) for line in buf.getvalue().splitlines()]


def record_of(program, p, text):
    """The trace dump's record of one input word."""
    return next(r for r in dumped(program, p) if r["input"] == text)


class TestOneRun:
    def test_forward_scan_accepts_satisfiable_unit(self):
        p = sat_problem(1, 1)
        record = record_of(forward_assignment_scan(p), p, "1")
        assert record["verdict"] == "accept"
        assert record["probes"] == [[1, "1"]]

    def test_rejects_empty_clause(self):
        p = sat_problem(1, 1)
        for prog in built_in_programs(p):
            record = record_of(prog, p, "0")
            assert record["verdict"] == "reject"
            assert record["probes"] == [[1, "0"]]

    def test_constant_accept_records_mismatching_verdict(self):
        p = sat_problem(1, 1)
        prog = DecisionProgram("always-accept", lambda probe: True)
        record = record_of(prog, p, "0")
        assert record["verdict"] == "accept"
        # wrong, and kernel() will say so
        assert not p.f_mask() & p.slice.mask_of_words(["0"])

    def test_probes_record_letters_in_order(self):
        p = sat_problem(2, 2)
        record = record_of(clause_first_scan(p), p, "1012")
        positions = [pos for pos, _ in record["probes"]]
        assert positions == sorted(set(positions))
        observed = dict(record["probes"])
        assert all(observed[pos] == "1012"[pos - 1] for pos in observed)


def run(text, probes, verdict="accept", **fields):
    """A run as a trace-dump record reads it."""
    return {"input": text, "probes": [list(probe) for probe in probes], "verdict": verdict,
            **fields}


class TestJustified:
    def test_accept_on_forced_restriction(self):
        p = sat_problem(1, 1)
        assert justified(run("1", [(1, "1")]), p)

    def test_accept_with_partial_probe(self):
        p = sat_problem(2, 1)
        assert justified(run("10", [(1, "1")]), p)

    def test_unjustified_accept(self):
        p = sat_problem(2, 1)
        assert not justified(run("10", [(2, "0")]), p)

    def test_justified_reject_requires_no_accepted_extension(self):
        p = sat_problem(2, 1)
        assert justified(run("00", [(1, "0"), (2, "0")], "reject"), p)
        assert not justified(run("00", [(1, "0")], "reject"), p)

    def test_judges_a_cli_dump_line_by_its_run_alone(self):
        # the line's own judgement and certifying strings are not read
        p = sat_problem(1, 1)
        line = json.dumps(run("1", [(1, "1")], program="forward-assignment-scan",
                              justified=False, certifying_strings=[]))
        assert justified(json.loads(line), p)

    @pytest.mark.parametrize("verdict", ["maybe", "ACCEPT", True])
    def test_verdict_must_be_accept_or_reject(self, verdict):
        p = sat_problem(1, 1)
        with pytest.raises(ValueError, match="unknown verdict"):
            justified(run("1", [(1, "1")], verdict), p)

    @pytest.mark.parametrize("record", [
        {"input": "10", "probes": 5, "verdict": "accept"},
        {"input": "10", "verdict": "accept"},
        {"input": "10", "probes": [[1, "1"]]},
        {"probes": [[1, "1"]], "verdict": "accept"},
        {"input": "10", "probes": [None], "verdict": "accept"},
        ["10", [[1, "1"]], "accept"],
    ], ids=["int-probes", "no-probes", "no-verdict", "no-input", "null-probe", "list"])
    def test_malformed_record_is_a_value_error(self, record):
        with pytest.raises(ValueError, match="^malformed record: "):
            justified(record, sat_problem(1, 2))

    @pytest.mark.parametrize("text", ["0", "2"])
    def test_probe_letter_must_agree_with_the_word(self, text):
        p = sat_problem(1, 1)
        with pytest.raises(ValueError, match="are not probes of the input"):
            justified(run(text, [(1, "1")]), p)

    def test_probe_position_must_be_in_the_word(self):
        p = sat_problem(1, 1)
        with pytest.raises(ValueError, match="are not probes of the input"):
            justified(run("1", [(5, "1")]), p)

    @pytest.mark.parametrize("make, text", [
        (lambda: sat_problem(1, 1), "11"),
        (lambda: sat_problem(1, 1), "3"),
        (lambda: sat_problem(1, 1), 1),
        (lambda: generic_problem(EVEN4_DOC), "1000"),  # odd parity
    ], ids=["long", "letter", "int", "outside-E"])
    def test_word_must_be_a_word_of_the_slice(self, make, text):
        with pytest.raises(ValueError, match="is no(t a)? word of"):
            justified(run(text, [(1, "1")]), make())

    def test_accepting_restrictions_never_leave_the_target(self):
        # a justified accept's restriction cannot sit inside a rejected word
        p = sat_problem(2, 2)
        f_ints = frozenset(p.slice.ints_of_mask(p.f_mask()))
        for prog in built_in_programs(p):
            for record in dumped(prog, p):
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
        monkeypatch.setattr(logogram.budget, "time", TestTraceDump.TickingClock())
        with pytest.raises(BudgetExceededError,
                           match="^kernel sweep: forward-assignment-scan: "
                                 "out of time at word '11'$"):
            kernel(forward_assignment_scan(p), p, Budget(max_seconds=2.5))

    def test_probe_economy(self):
        p = sat_problem(2, 3)
        for prog in built_in_programs(p):
            for record in dumped(prog, p):
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
        (lambda probe: probe(True) == "1", "malformed: probe outside positions 1..2: True"),
    ], ids=["revisit", "out-of-range", "float", "text", "bool"])
    def test_probe_discipline(self, decide, message):
        p = sat_problem(2, 1)
        prog = DecisionProgram("malformed", decide)
        with pytest.raises(MalformedProgramError) as err:
            kernel(prog, p)
        assert str(err.value) == message
        with pytest.raises(MalformedProgramError) as err:
            kernel(prog, p, dump=io.StringIO())
        assert str(err.value) == message

    def test_bool_probe_on_a_replayed_step(self):
        # True == 1, so a run probing True where the run before probed 1
        # must not pass for a replay of position 1
        p = sat_problem(2, 1)

        def flipping():
            runs = []

            def decide(probe):
                runs.append(None)
                return probe(True if len(runs) > 1 else 1) == "1" or probe(2) == "1"
            return DecisionProgram("flipping", decide)

        message = "flipping: nondeterministic: probed True where a run on the same letters probed 1"
        with pytest.raises(MalformedProgramError) as err:
            kernel(flipping(), p)
        assert str(err.value) == message
        with pytest.raises(MalformedProgramError) as err:
            kernel(flipping(), p, dump=io.StringIO())
        assert str(err.value) == message

    def test_runs_once_per_distinct_trace(self):
        p = sat_problem(2, 3)
        prog = forward_assignment_scan(p)
        traces = {(tuple(map(tuple, r["probes"])), r["verdict"])
                  for r in dumped(prog, p)}
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

        records = dumped(DecisionProgram(prog.name, counted), p)
        assert [r["input"] for r in records] == [
            p.slice.text_of_int(i) for i in p.slice.word_ints()]
        assert len(records) == 729
        assert calls == 347

    @pytest.mark.parametrize("make", [
        # the first-slot program's accepts and rejects are all unjustified
        lambda: (sat_problem(2, 2), (*built_in_programs(sat_problem(2, 2)),
                                     DecisionProgram("first-slot", lambda probe: probe(1) != "0"))),
        lambda: (sat_problem(2, 3), built_in_programs(sat_problem(2, 3))),
        lambda: (sat_problem(3, 2), built_in_programs(sat_problem(3, 2))),
        lambda: (generic_problem(EVEN4_DOC),
                 (DecisionProgram("first-position", first_position),
                  DecisionProgram("odd-tail", odd_tail))),
    ], ids=["sat-2x2", "sat-2x3", "sat-3x2", "even-4"])
    def test_dump_matches_per_word_runs(self, make):
        p, programs = make()
        slc, L = p.slice, p.slice.length
        log = p.logogram().texts(L)
        for prog in programs:
            records = dumped(prog, p)
            assert len(records) == slc.word_count()
            for i, record in zip(slc.word_ints(), records):
                probes, accepted = oracles.run_once(prog.decide, slc.text_of_int(i))
                observed = dict(probes)
                restriction = "".join(observed.get(pos, "_") for pos in range(1, L + 1))
                assert record == {
                    "input": slc.text_of_int(i), "program": prog.name,
                    "probes": [[pos, ch] for pos, ch in probes],
                    "verdict": "accept" if accepted else "reject",
                    "justified": justified(record, p),
                    "certifying_strings": [g for g in log if accepted
                                           and oracles.includes(restriction, g)],
                }, (prog.name, record["input"])


def scrambled(probe):
    # reads position 3 first, then 1, or else 4 and then 2: on even-parity
    # words, position 1 is the parity of 2..4
    if probe(3) == "1":
        return probe(1) == "1"
    return [probe(4), probe(2)].count("1") == 1


def reverse_reader(p, flipped, seen):
    """A program that reads every position from L down to 1, so its walk
    meets words in the order of their reversed texts, and answers
    membership in the target except on the ``flipped`` words."""
    slc = p.slice
    target = {slc.text_of_int(i) for i in slc.ints_of_mask(p.f_mask())}

    def decide(probe):
        word = "".join(reversed([probe(q) for q in range(slc.length, 0, -1)]))
        seen.append(word)
        return (word in target) != (word in flipped)

    return DecisionProgram("reverse-reader", decide)


def changing_after_one_run(first, then):
    """A program that decides by ``first`` on its first run and by ``then``
    on every later one."""
    runs = []

    def decide(probe):
        runs.append(probe)
        return (first if len(runs) == 1 else then)(probe)

    return DecisionProgram("counted", decide)


def reads_both(first, second):
    # on sat 2 1 the one clause holds a literal unless both slots are 0
    return lambda probe: [probe(first), probe(second)] != ["0", "0"]


# the sweeps of the walk, as functions of (program, problem): the kernel,
# and the kernel with its trace dump
SWEEPS = (kernel, lambda prog, p: kernel(prog, p, dump=io.StringIO()))


class TestTreeWalk:
    def test_fault_names_the_lower_word_met_second(self):
        # the walk reads position 4 first, so it meets the leaf of "1000"
        # before that of "0001", and both are wrong; the lower one is named
        p = sat_problem(2, 2)
        seen = []
        prog = reverse_reader(p, {"0001", "1000"}, seen)
        assert oracle_sweep(prog, p)[1] == ("0001", "reverse-reader gave the wrong verdict")
        seen.clear()
        for sweep in SWEEPS:
            with pytest.raises(ProgramFaultError) as err:
                sweep(prog, p)
            assert (err.value.word_text, err.value.reason) == (
                "0001", "reverse-reader gave the wrong verdict")
        assert seen.index("1000") < seen.index("0001")
        unjustified = [r["input"] for r in dumped(prog, p) if not r["justified"]]
        assert unjustified == ["0001", "1000"]

    @pytest.mark.parametrize("then,message", [
        (reads_both(2, 1), "probed 2 where a run on the same letters probed 1"),
        (lambda probe: probe(1) == "1", "stopped where a run on the same letters probed 2"),
    ], ids=["probe-order-changes", "stops-before-an-earlier-probe"])
    def test_nondeterministic_programs_are_malformed(self, then, message):
        # right and justified on the first word, "00", after which the
        # probe order, or the probes made, differ on the same letters
        p = sat_problem(2, 1)
        _, fault = oracle_sweep(changing_after_one_run(reads_both(1, 2), then), p)
        assert fault == ("01", "counted is nondeterministic")
        for sweep in SWEEPS:
            with pytest.raises(MalformedProgramError) as err:
                sweep(changing_after_one_run(reads_both(1, 2), then), p)
            assert str(err.value) == f"counted: nondeterministic: {message}"

    def test_out_of_order_probes_on_an_explicit_universe(self):
        p = generic_problem(EVEN4_DOC)
        prog = DecisionProgram("scrambled", scrambled)
        expected, fault = oracle_sweep(prog, p)
        assert fault is None
        assert sorted(kernel(prog, p).texts(4)) == expected == ["1___", "_001", "_100"]
        records = dumped(prog, p)
        assert [r["input"] for r in records] == [
            p.slice.text_of_int(i) for i in p.slice.word_ints()]
        for record in records:
            probes, accepted = oracles.run_once(scrambled, record["input"])
            assert record["probes"] == [[q, ch] for q, ch in probes]
            assert record["verdict"] == ("accept" if accepted else "reject")

    def test_missed_member_named_in_word_order(self):
        # with "1_" and "_1" dropped, the accepts on "01", "10" and "11"
        # include no member left; the walk meets "10" first
        p = sat_problem.__wrapped__(2, 1)
        seen = []
        prog = reverse_reader(p, set(), seen)
        assert oracle_sweep(prog, p)[1] is None
        log = p.logogram()
        kept = [g for g in log.texts(2) if g not in ("1_", "_1")]
        p._logogram = Antichain.of([ps(g) for g in kept], TERNARY)
        missed = [w for w in oracles.all_words("012", 2)
                  if w != "00" and not any(oracles.includes(w, g) for g in kept)]
        assert missed == ["01", "10", "11"]
        for sweep in SWEEPS:
            seen.clear()
            with pytest.raises(ProgramFaultError) as err:
                sweep(prog, p)
            assert (err.value.word_text, err.value.reason) == (
                "01", "reverse-reader accepted on probes that include no "
                      "reduced-logogram member")
            assert seen.index("10") < seen.index("01")


# the binary words of length 2 but "11": its reduced logogram is "0_", "_0"
NAND2_DOC = {"alphabet": ["0", "1"], "length": 2, "universe": "all",
             "target": ["00", "01", "10"], "regions": [["00", "01", "10"]], "label": "nand:2"}


class TestJudgedByMembers:
    """The members a leaf agrees with settle it only while the cached
    logogram expands to exactly F, and settle a reject agreeing with one
    only on the full cube; every other leaf is judged by its cylinder, as
    the oracle judges every leaf."""

    def test_member_leaving_f_justifies_no_accept(self):
        # "1_" is added, though "11" is no word of F: the accept on "1_"
        # includes it, and is still unjustified at "10", where it is right
        p = generic_problem(NAND2_DOC)
        prog = DecisionProgram("reads-one", lambda probe: probe(1) in "01")
        fault = ("10", "reads-one was not justified in its accept")
        assert oracle_sweep(prog, p)[1] == fault
        p._logogram = Antichain.of([ps(g, BINARY) for g in ("0_", "_0", "1_")], BINARY)
        assert oracle_sweep(prog, p)[1] == fault
        for sweep in SWEEPS:
            with pytest.raises(ProgramFaultError) as err:
                sweep(prog, p)
            assert (err.value.word_text, err.value.reason) == fault
        record = record_of(prog, p, "10")
        assert record["certifying_strings"] == ["1_"] and record["justified"] is False

    def test_dropped_member_clears_no_reject(self):
        # with "_2" dropped, no member agrees with "02", the only word of F
        # that it alone covered; the reject there is still wrong
        p = sat_problem.__wrapped__(2, 1)
        prog = DecisionProgram("misses-02", lambda probe: probe(1) != "0" or probe(2) == "1")
        fault = ("02", "misses-02 gave the wrong verdict")
        assert oracle_sweep(prog, p)[1] == fault
        kept = [g for g in p.logogram().texts(2) if g != "_2"]
        p._logogram = Antichain.of([ps(g) for g in kept], TERNARY)
        assert not any(all(c in ("_", w) for c, w in zip(g, "02")) for g in kept)
        assert oracle_sweep(prog, p)[1] == fault
        for sweep in SWEEPS:
            with pytest.raises(ProgramFaultError) as err:
                sweep(prog, p)
            assert (err.value.word_text, err.value.reason) == fault
        assert record_of(prog, p, "02")["justified"] is False

    def test_reject_agreeing_with_a_member_off_the_cube(self):
        # on even-parity words, "0___" agrees with "_001", yet no word of E
        # extending it starts with 1: the reject there is justified
        p = generic_problem(EVEN4_DOC)
        prog = DecisionProgram("first-position", first_position)
        assert "_001" in p.logogram().texts(4)
        expected, fault = oracle_sweep(prog, p)
        assert fault is None and expected == ["1___"]
        assert kernel(prog, p).texts(4) == expected
        records = [r for r in dumped(prog, p) if r["verdict"] == "reject"]
        assert [r["input"] for r in records] == ["0000", "0011", "0101", "0110"]
        assert all(r["probes"] == [[1, "0"]] and r["justified"] for r in records)


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


def without_its_first_member(p):
    """``p`` with the first member dropped from its cached reduced logogram."""
    log = p.logogram()
    p._logogram = Antichain(log.pairs[1:], log.alphabet)
    return p


class TestTraceDump:
    def test_record_shape_and_justification(self):
        p = sat_problem(1, 1)
        records = dumped(forward_assignment_scan(p), p)
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
        # of 3.5 s passes at the third word, "02", and the dump holds the
        # words before it
        p = sat_problem(1, 2)
        p.logogram()
        monkeypatch.setattr(logogram.budget, "time", self.TickingClock())
        buf = io.StringIO()
        with pytest.raises(BudgetExceededError,
                           match="^kernel sweep: forward-assignment-scan: "
                                 "out of time at word '02'$"):
            kernel(forward_assignment_scan(p), p, Budget(max_seconds=2.5), buf)
        assert [json.loads(line)["input"] for line in buf.getvalue().splitlines()] == [
            "00", "01"]

    @pytest.mark.parametrize("problem,program,fault", [
        (lambda: sat_problem(1, 2), lambda p: DecisionProgram("always-accept", lambda probe: True),
         ("00", "always-accept gave the wrong verdict")),
        (lambda: generic_problem(NAND2_DOC),
         lambda p: DecisionProgram("reads-one", lambda probe: probe(1) in "01"),
         ("10", "reads-one was not justified in its accept")),
        # a justified accept's restriction lies in the logogram, so it
        # includes a reduced-logogram member; with "1" dropped from the
        # cached logogram, the accept on "1" includes none
        (lambda: without_its_first_member(sat_problem.__wrapped__(1, 1)), forward_assignment_scan,
         ("1", "forward-assignment-scan accepted on probes that include no "
               "reduced-logogram member")),
    ], ids=["wrong", "unjustified", "missed-member"])
    def test_fault_raises_after_the_whole_dump(self, problem, program, fault):
        # the dump raises what the bare sweep raises, once every word's
        # record is written, and each record's judgement is its run's
        p = problem()
        prog = program(p)
        with pytest.raises(ProgramFaultError) as bare:
            kernel(prog, p)
        assert (bare.value.word_text, bare.value.reason) == fault
        buf = io.StringIO()
        with pytest.raises(ProgramFaultError) as err:
            kernel(prog, p, dump=buf)
        assert (err.value.word_text, err.value.reason) == fault
        records = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert [r["input"] for r in records] == [
            p.slice.text_of_int(i) for i in p.slice.word_ints()]
        assert all(justified(r, p) == r["justified"] for r in records)

    def test_malformed_program_leaves_a_word_order_prefix(self):
        # right and justified on "00", after which the probe order changes
        p = sat_problem(2, 1)
        buf = io.StringIO()
        with pytest.raises(MalformedProgramError, match="nondeterministic"):
            kernel(changing_after_one_run(reads_both(1, 2), reads_both(2, 1)), p, dump=buf)
        assert [json.loads(line)["input"] for line in buf.getvalue().splitlines()] == ["00"]

    def test_built_ins_need_clause_shape(self):
        doc = {"alphabet": ["0", "1"], "length": 2, "universe": "all",
               "target": ["11"], "regions": [["11"]], "label": "corner"}
        with pytest.raises(ValueError):
            forward_assignment_scan(generic_problem(doc))
