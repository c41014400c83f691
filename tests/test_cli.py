"""CLI subcommands: reports, formats, exit codes, determinism."""

import hashlib
import importlib.util
import io
import json
import os
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest

from logogram.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code in (0, 3), err
    return code, json.loads(out)


class TickingClock:
    """Stands in for the budget module's clock: one second per read."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        self.now += 1.0
        return self.now


def ticking_run(capsys, monkeypatch, *argv):
    """One run under a :class:`TickingClock`: the exit code, the output and
    how many times the run read the clock."""
    import logogram.budget
    clock = TickingClock()
    monkeypatch.setattr(logogram.budget, "time", clock)
    code, out, _ = run(capsys, *argv)
    return code, out, clock.now


class TestLogogramCommand:
    def test_sat_1x1(self, capsys):
        code, doc = run_json(capsys, "logogram", "sat", "1", "1")
        assert code == 0
        assert doc["count"] == 2
        assert doc["strings"] == ["1", "2"]
        assert doc["slice"]["membership"] == "all"

    def test_sat_2x2_count(self, capsys):
        _, doc = run_json(capsys, "logogram", "sat", "2", "2")
        assert doc["count"] == 12

    def test_composite_4_includes_wizard_string(self, capsys):
        _, doc = run_json(capsys, "logogram", "composite", "4")
        assert "111_" in doc["strings"]

    def test_connectivity_6_within_default_budget(self, capsys):
        # 2^15 words and 1,296 minimal strings, far inside the default budget
        code, doc = run_json(capsys, "logogram", "connectivity", "6")
        assert code == 0
        assert doc["count"] == 1296

    def test_regions_flag(self, capsys):
        _, doc = run_json(capsys, "logogram", "sat", "1", "1", "--regions")
        assert len(doc["regions"]) == 2
        assert doc["regions"][1]["strings"] == ["1"]  # x1=1 region

    @pytest.mark.parametrize("problem,least", [("composite 9", 1906), ("connectivity 5", 713)])
    def test_regions_charge_each_distinct_sub_problem_once(self, capsys, problem, least):
        # the target search, then one memo for all the region searches: the
        # least passing budget is the target's sub-problems plus the distinct
        # ones of the regions (5,782 and 1,314 with a memo per region)
        codes = [run(capsys, "logogram", *problem.split(), "--regions",
                     "--budget-strings", str(limit))[0] for limit in (least, least - 1)]
        assert codes == [0, 2]

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "logogram", "sat", "1", "1", "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["string", "1", "2"]

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "logogram", "sat", "1", "1", "--format", "text")
        assert code == 0
        assert "count: 2" in out

    @pytest.mark.parametrize("letter", [",", " ", "\t"])
    def test_text_format_refuses_letters_it_cannot_show(self, capsys, tmp_path, letter):
        # with a comma letter the strings ",_" and "_," would both print as
        # "strings=,_,_,"; a space would split a cell
        doc = {"alphabet": [letter, "a"], "length": 2, "universe": "all",
               "target": [letter * 2, letter + "a", "a" + letter],
               "regions": [[letter * 2, letter + "a", "a" + letter]]}
        path = tmp_path / "comma.json"
        path.write_text(json.dumps(doc))
        argv = ("logogram", "generic", str(path), "--regions")
        code, out, err = run(capsys, *argv, "--format", "text")
        assert (code, out) == (1, "")
        assert err == f"error: --format text cannot show the letter {letter!r}; use json or csv\n"
        for fmt in ("json", "csv"):
            assert run(capsys, *argv, "--format", fmt)[0] == 0
        _, report = run_json(capsys, *argv)
        assert report["regions"][0]["strings"] == [letter + "_", "_" + letter]


class TestWizardsCommand:
    def test_sat_2x2(self, capsys):
        code, doc = run_json(capsys, "wizards", "sat", "2", "2")
        assert code == 0
        assert doc["wizards"] == []
        assert len(doc["witnesses"]) == 12

    def test_composite_4(self, capsys):
        code, doc = run_json(capsys, "wizards", "composite", "4")
        assert code == 0
        assert len(doc["wizards"]) >= 1


class TestIndependenceCommand:
    def test_sat_2x1_all_pass(self, capsys):
        code, doc = run_json(capsys, "independence", "sat", "2", "1")
        assert code == 0
        for kind in ("internal", "simple", "strong"):
            assert doc[kind]["verdict"] == "pass"

    def test_failing_problem_exits_3(self, capsys, tmp_path):
        doc = {"alphabet": ["0", "1"], "length": 2, "universe": ["00", "11"],
               "target": ["11"], "regions": [["11"]], "label": "twin"}
        path = tmp_path / "twin.json"
        path.write_text(json.dumps(doc))
        code, report = run_json(capsys, "independence", "generic", str(path))
        assert code == 3
        assert report["internal"]["verdict"] == "fail"

    def test_default_budget_sat_3x2_is_count_bound(self, capsys):
        # the internal check ends on the string count (2,236 strings, all
        # ordered pairs), well inside the default clock
        start = time.perf_counter()
        code, doc = run_json(capsys, "independence", "sat", "3", "2")
        elapsed = time.perf_counter() - start
        assert code == 0
        internal = doc["internal"]
        assert internal["strings_checked"] == 2236
        assert internal["pairs_checked"] == 4997460
        assert internal["budget_exhausted"] is True
        assert elapsed < 10


class TestOneClock:
    """One clock per subcommand: it starts before the problem is built, and
    every step of the analysis runs on its deadline."""

    @pytest.mark.parametrize("argv", [("kernel", "sat", "2", "2"),
                                      ("independence", "sat", "2", "2")])
    def test_passes_while_every_clock_read_fits(self, capsys, monkeypatch, argv):
        # with one tick per read, a run that reads the clock n times fits in
        # n seconds; two fewer and its last read falls past the deadline
        code, expected, reads = ticking_run(capsys, monkeypatch, *argv,
                                            "--budget-seconds", "1e6")
        assert code == 0
        assert ticking_run(capsys, monkeypatch, *argv,
                           "--budget-seconds", str(reads)) == (0, expected, reads)
        assert ticking_run(capsys, monkeypatch, *argv,
                           "--budget-seconds", str(reads - 2))[0] == 2

    @pytest.mark.parametrize("command", ["cover", "irreducible", "kernel"])
    def test_construction_counts_against_the_clock(self, capsys, monkeypatch, command):
        # an adapter that takes longer than the whole budget leaves the
        # analysis no time: the first clock read after it stops the run
        import logogram.budget
        import logogram.cli
        from logogram import sat_problem
        clock = TickingClock()
        monkeypatch.setattr(logogram.budget, "time", clock)

        def slow(n, m):
            clock.now += 100.0
            return sat_problem(n, m)

        monkeypatch.setattr(logogram.cli, "sat_problem", slow)
        code, out, err = run(capsys, command, "sat", "1", "1", "--budget-seconds", "50")
        assert code == 2 and out == ""
        assert "out of time" in err


class TestIrreducibleCommand:
    def test_sat_2x1(self, capsys):
        code, doc = run_json(capsys, "irreducible", "sat", "2", "1")
        assert code == 0
        assert doc["irreducible"] is True
        # removal witnesses are the zero-padded words of each string
        assert doc["removal_witnesses"]["1_"] == "10"

    def test_reducible_generic_exits_3(self, capsys, tmp_path):
        doc = {"alphabet": ["0", "1"], "length": 2, "universe": ["00", "11"],
               "target": ["11"], "regions": [["11"]], "label": "twin"}
        path = tmp_path / "twin.json"
        path.write_text(json.dumps(doc))
        code, report = run_json(capsys, "irreducible", "generic", str(path))
        assert code == 3
        assert report["irreducible"] is False


class TestGaloisCommand:
    def test_small_run_passes(self, capsys):
        code, doc = run_json(capsys, "galois", "sat", "1", "1", "--samples", "40")
        assert code == 0
        assert doc["verdict"] == "pass"
        assert all(c["verdict"] == "pass" for c in doc["checks"])

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_non_positive_sample_count_exits_1(self, capsys, samples):
        code, out, err = run(capsys, "galois", "sat", "1", "1", "--samples", samples)
        assert code == 1
        assert out == ""
        assert "sample count must be >= 1" in err


    @pytest.mark.parametrize("limit,expected", [("1000", 2), ("2116", 2), ("2117", 0)])
    def test_budget_strings_bounds_the_whole_suite(self, capsys, limit, expected):
        # the run's searches share one meter and one memo: together they
        # solve 2,117 distinct sub-problems, though none alone solves over 70
        code, out, err = run(capsys, "galois", "composite", "6", "--samples", "50",
                             "--seed", "0", "--budget-strings", limit)
        assert code == expected
        if expected == 2:
            assert out == ""
            assert err == f"budget exhausted: galois suite: exceeded {limit} sub-problems\n"

    def test_reports_keep_their_bytes(self, capsys, tmp_path):
        # the sha256 of the JSON reports of the four sampled slices of the
        # benchmark, --samples 120, recorded before the searches of a suite
        # shared one memo
        even4 = [w for w in (format(i, "04b") for i in range(16)) if w.count("1") % 2 == 0]
        path = tmp_path / "even4.json"
        path.write_text(json.dumps({
            "label": "even:4", "alphabet": ["0", "1"], "length": 4, "universe": even4,
            "target": [w for w in even4 if w[0] == "1"],
            "regions": [[w for w in even4 if w[0] == "1"]]}))
        problems = [("composite", "4"), ("composite", "6"), ("sat", "2", "2"),
                    ("generic", str(path))]
        expected = {
            0: ["defb7b16c64db957af71d79085cba94d47e80382d27e19beea40271b499b4e82",
                "4345848ccc7f3292ced555285ee10ac1c695d8a99bcd9b79c4735bdb57e1bdec",
                "a316513a6ea4e87aa70ae480864f7dd0d97cf9cb16664de13ec3de5017ca19b5",
                "0ac132d9405f9e417d5b7db374c447ac3d1462ae58d407ce9c1fed2afeafe007"],
            7: ["c417131e4936a5624b3584e2a3be259f6b40b10fc4f6dbc2da63c486d3398138",
                "9378a45ab5724edea9bd53dca0b49b60dcc68b79caab2d6cae0c413fda062f81",
                "c02f14748e0f816db932870831f78fb37ce82d859f1ad6d12796080317e07f20",
                "27bcd8487bad2536ee4db3dabc5ee3ae9ace6d38e956d4d81e53fa725501ca44"],
            12345: ["57054122b3b13e2a676b1040c34d36f84f5904179286a8d6f367a1be48fb4ce8",
                    "2797769a358cb2d0d9b6d60487a6be36f5281bac8ca86c57a3349a02e535e1e8",
                    "97db2dad3290acf7669a2d18946148011f287fe833754b362d49e0839e10014d",
                    "2750fa22773f006e9f961ef172700f99f37936be5f758cb3448b55aad65b226e"],
        }
        for seed, digests in expected.items():
            for problem, digest in zip(problems, digests):
                code, out, err = run(capsys, "galois", *problem, "--samples", "120",
                                     "--seed", str(seed))
                assert code == 0, err
                assert hashlib.sha256(out.encode()).hexdigest() == digest, (seed, problem)


class TestKernelCommand:
    def test_sat_2x1(self, capsys):
        code, doc = run_json(capsys, "kernel", "sat", "2", "1")
        assert code == 0
        assert doc["all_equal"] is True
        assert doc["logogram_irreducible"] is True
        assert all(e["complete"] and e["matches_logogram"] for e in doc["programs"])

    def test_dump_traces(self, capsys, tmp_path):
        path = tmp_path / "traces.jsonl"
        code, _ = run_json(capsys, "kernel", "sat", "1", "1",
                           "--dump-traces", str(path))
        assert code == 0
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == 9  # 3 programs x 3 inputs
        assert {r["program"] for r in records} == {
            "forward-assignment-scan", "backward-assignment-scan",
            "clause-first-scan"}
        assert all(r["justified"] for r in records)

    def test_dumps_keep_their_bytes(self, capsys, tmp_path):
        # the sha256 of the trace dumps of two shapes, recorded before the
        # built-in solvers read their slots and codes from CnfShape
        expected = {
            ("2", "2"): "8f52ee883fc2f50429ea6d82c76d42913dd6775035a97675f87a9f25ee3aaf45",
            ("2", "3"): "57464a1ccb2cb997de3b07e594b589650b643a41b377f15c6faf180edc9cb8f7",
        }
        path = tmp_path / "traces.jsonl"
        for shape, digest in expected.items():
            code, _ = run_json(capsys, "kernel", "sat", *shape, "--dump-traces", str(path))
            assert code == 0
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, shape

    def test_dump_traces_share_one_clock(self, capsys, monkeypatch, tmp_path):
        # every meter of the run counts on its own against the one deadline
        # set when the first meter read the clock; the dumps run on the sweeps'
        import logogram.budget
        clock = TickingClock()
        monkeypatch.setattr(logogram.budget, "time", clock)
        meters = []
        init = logogram.budget.Meter.__init__

        def record(meter, *args):
            before = clock.now
            init(meter, *args)
            meters.append((meter.label, meter._deadline, clock.now > before))

        monkeypatch.setattr(logogram.budget.Meter, "__init__", record)
        code, _ = run_json(capsys, "kernel", "sat", "1", "1", "--budget-seconds", "70",
                           "--dump-traces", str(tmp_path / "traces.jsonl"))
        assert code == 0
        names = ["forward-assignment-scan", "backward-assignment-scan", "clause-first-scan"]
        assert [label for label, _, _ in meters] == (
            ["kernel", "reduced logogram"]
            + [f"kernel sweep: {name}" for name in names]
            + ["irreducibility: sat:1x1"])
        assert {deadline for _, deadline, _ in meters} == {71.0}
        assert [label for label, _, read in meters if read] == ["kernel"]

    def test_dump_is_written_whole_or_not_at_all(self, capsys, monkeypatch, tmp_path):
        # the sweeps stream to scratch and PATH is written only once every
        # program has passed, so a run stopped at any clock read leaves
        # PATH as it was or holds the whole dump
        path = tmp_path / "traces.jsonl"
        code, _, _ = ticking_run(capsys, monkeypatch, "kernel", "sat", "1", "2",
                                 "--dump-traces", str(path))
        assert code == 0
        whole = path.read_text()
        assert len(whole.splitlines()) == 27  # 3 programs x 9 inputs
        stopped = []
        for seconds in range(1, 100):
            path.write_text("keep\n")
            code, _, _ = ticking_run(capsys, monkeypatch, "kernel", "sat", "1", "2",
                                     "--budget-seconds", str(seconds),
                                     "--dump-traces", str(path))
            if code == 0:
                break
            assert code == 2
            stopped.append(path.read_text())
        assert code == 0 and path.read_text() == whole
        # S seconds stop the run at clock read S + 2: reads 3 to 28 are
        # per-word reads of the sweeps, the 4 after them the irreducibility
        # check's, run after PATH is written
        assert stopped == ["keep\n"] * 26 + [whole] * 4

    def test_dump_to_devnull(self, capsys):
        code, _ = run_json(capsys, "kernel", "sat", "1", "1", "--dump-traces", os.devnull)
        assert code == 0
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    @staticmethod
    def counted_programs(monkeypatch, extra=()):
        """Have the CLI run the built-in programs, and ``extra`` after them,
        with every ``decide`` call counted per program name."""
        import logogram.cli
        from logogram import DecisionProgram, built_in_programs
        calls = {}

        def counted(prog):
            def decide(probe):
                calls[prog.name] = calls.get(prog.name, 0) + 1
                return prog.decide(probe)
            return DecisionProgram(prog.name, decide)

        monkeypatch.setattr(logogram.cli, "built_in_programs", lambda problem: tuple(
            map(counted, built_in_programs(problem) + tuple(extra))))
        return calls

    def test_dump_traces_runs_each_program_once_per_trace(self, capsys, monkeypatch,
                                                          tmp_path):
        calls = self.counted_programs(monkeypatch)
        code, plain = run_json(capsys, "kernel", "sat", "2", "3")
        assert code == 0
        sweep_calls = dict(calls)
        calls.clear()
        code, dumped = run_json(capsys, "kernel", "sat", "2", "3",
                                "--dump-traces", str(tmp_path / "traces.jsonl"))
        assert code == 0
        assert dumped == plain
        assert calls == sweep_calls
        assert sweep_calls["forward-assignment-scan"] == 347  # its distinct traces

    @pytest.mark.parametrize("dump", [False, True], ids=["plain", "dump-traces"])
    def test_every_sweep_goes_through_kernel(self, capsys, monkeypatch, tmp_path, dump):
        # one sweep route, dump or not, so the benchmark's span around
        # logogram.cli.kernel sees every program's sweep
        import logogram.cli
        sweep = logogram.cli.kernel
        calls = []

        def counted(*args):
            calls.append(args[0].name)
            return sweep(*args)

        monkeypatch.setattr(logogram.cli, "kernel", counted)
        flags = ("--dump-traces", str(tmp_path / "traces.jsonl")) if dump else ()
        code, _ = run_json(capsys, "kernel", "sat", "1", "2", *flags)
        assert code == 0
        assert len(calls) == 3

    def test_dump_traces_match_kernel_dumps(self, capsys, monkeypatch, tmp_path):
        # the CLI's file is the three library dumps, one after another
        from logogram import built_in_programs, kernel, sat_problem
        self.counted_programs(monkeypatch)
        path = tmp_path / "traces.jsonl"
        code, _ = run_json(capsys, "kernel", "sat", "2", "3", "--dump-traces", str(path))
        assert code == 0
        p, dump = sat_problem(2, 3), io.StringIO()
        for prog in built_in_programs(p):
            kernel(prog, p, dump=dump)
        assert path.read_text() == dump.getvalue()

    def test_fault_leaves_no_dump_file(self, capsys, monkeypatch, tmp_path):
        # the built-in programs pass before the faulty one runs
        from logogram import DecisionProgram
        self.counted_programs(monkeypatch, extra=(
            DecisionProgram("first-position", lambda probe: probe(1) == "1"),))
        path = tmp_path / "traces.jsonl"
        code, doc = run_json(capsys, "kernel", "sat", "1", "2", "--dump-traces", str(path))
        assert code == 3
        assert doc["fault"] == "on input '10': first-position gave the wrong verdict"
        assert len(doc["programs"]) == 3
        assert not path.exists()

    def test_fault_names_first_faulty_input(self, capsys, monkeypatch):
        import logogram.cli
        from logogram import DecisionProgram
        first = DecisionProgram("first-position", lambda probe: probe(1) == "1")
        monkeypatch.setattr(logogram.cli, "built_in_programs", lambda problem: (first,))
        code, doc = run_json(capsys, "kernel", "sat", "1", "2")
        assert code == 3
        assert doc["fault"] == "on input '10': first-position gave the wrong verdict"
        assert doc["programs"] == []

    def test_accept_without_a_member_is_a_fault(self, capsys, monkeypatch):
        # with "1" dropped from the problem's cached logogram, the accepting
        # run on "1" includes no member: the search missed one
        import logogram.cli
        from logogram import Antichain, sat_problem
        problem = sat_problem.__wrapped__(1, 1)
        log = problem.logogram()
        problem._logogram = Antichain(log.pairs[1:], log.alphabet)
        monkeypatch.setattr(logogram.cli, "sat_problem", lambda n, m: problem)
        code, doc = run_json(capsys, "kernel", "sat", "1", "1")
        assert code == 3
        assert doc["fault"] == ("on input '1': forward-assignment-scan accepted on probes "
                                "that include no reduced-logogram member")
        assert doc["programs"] == [] and doc["logogram_irreducible"] is False

    def test_non_clause_problem_rejected(self, capsys):
        code, _, err = run(capsys, "kernel", "composite", "4")
        assert code == 1
        assert "clause" in err

    def test_non_clause_problem_rejected_before_the_search(self, capsys, monkeypatch):
        import logogram.problems
        search = logogram.problems.reduced_logogram_of_mask
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(logogram.problems, "reduced_logogram_of_mask", counted)
        code, _, err = run(capsys, "kernel", "composite", "4")
        assert code == 1
        assert "clause" in err
        assert calls == []


class TestCoverCommand:
    def test_sat_2x1_flags_multiplicity(self, capsys):
        code, doc = run_json(capsys, "cover", "sat", "2", "1")
        assert code == 0
        assert doc["flags"]["multiple_containing_regions"] is True
        assert doc["total_charts"] == 4

    def test_sat_3x1_flags_small_cover(self, capsys):
        _, doc = run_json(capsys, "cover", "sat", "3", "1")
        assert doc["total_charts"] == 6
        assert doc["region_count"] == 8
        assert doc["flags"]["fewer_charts_than_regions"] is True

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "cover", "sat", "1", "1", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "string,expansion_size,containing_regions"

    def test_composite_14_within_ten_seconds(self, capsys):
        # 15,378 strings and 16,382 regions: each string is tested only
        # against the regions holding its lowest word
        code, doc = run_json(capsys, "cover", "composite", "14", "--budget-seconds", "10")
        assert code == 0
        assert doc["total_charts"] == 15378


# the analyses bench/run.py wraps in spans, by the subcommands calling them
TRACED_SEAMS = {
    ("wizards",): {"classify"},
    ("cover",): {"cover"},
    ("kernel",): {"kernel", "irreducibility_report"},
    ("irreducible",): {"irreducibility_report"},
    ("independence",): {"internal_independence", "simple_independence",
                        "strong_independence"},
    ("galois", "--samples", "5"): {"verify_galois"},
}


GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden"


def golden_argv(path: Path) -> list[str]:
    """The analysis a benchmark golden records, read back from its file
    name: the argv joined by underscores, flags without their dashes."""
    command, problem, *rest = path.stem.split("_")
    return [command, problem, *(a if a.isdigit() else f"--{a}" for a in rest)]


class TestGoldens:
    @pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.stem)
    def test_report_matches_golden(self, capsys, path):
        # the benchmark compares each analysis with its golden byte for
        # byte; this catches drift without running the benchmark
        code, out, err = run(capsys, *golden_argv(path))
        assert code == 0, err
        assert out.encode() == path.read_bytes()


REPORTS = Path(__file__).resolve().parent / "reports"

# the CSV and text reports recorded in tests/reports, by analysis and exit code
REPORT_CASES = {
    "wizards composite 5": 0,
    "independence sat 2 2": 0,
    "irreducible composite 6": 3,
    "galois sat 2 2 --samples 50": 0,
    "kernel sat 2 2": 0,
    "cover sat 3 1": 0,
    "logogram composite 4 --regions": 0,
}

# six ternary words on which internal, simple and strong independence all fail
ENTANGLED = {"alphabet": ["0", "1", "2"], "length": 3,
             "universe": ["000", "012", "120", "201", "111", "222"],
             "target": ["012", "120"], "regions": [["012"], ["120"]]}


class TestReportBytes:
    @pytest.mark.parametrize("fmt,suffix", [("csv", "csv"), ("text", "txt")])
    @pytest.mark.parametrize("argv,expected", list(REPORT_CASES.items()), ids=list(REPORT_CASES))
    def test_report_matches_recording(self, capsys, argv, expected, fmt, suffix):
        # every subcommand's csv rows and text lines, byte for byte
        path = REPORTS / ("_".join(a.lstrip("-") for a in argv.split()) + "." + suffix)
        code, out, err = run(capsys, *argv.split(), "--format", fmt)
        assert code == expected, err
        assert out.encode() == path.read_bytes()

    @pytest.mark.parametrize("fmt,suffix", [("json", "json"), ("csv", "csv"), ("text", "txt")])
    def test_failing_independence_matches_recording(self, capsys, tmp_path, fmt, suffix):
        # every check fails on this slice: internal on 00_/__0 after 338
        # pairs over 34 strings, simple on 01_/0_2 after 1 pair, so the
        # counterexamples' keys print in their order
        path = tmp_path / "entangled.json"
        path.write_text(json.dumps(ENTANGLED))
        code, out, err = run(capsys, "independence", "generic", str(path), "--format", fmt)
        assert code == 3, err
        assert out.encode() == (REPORTS / f"independence_generic_entangled.{suffix}").read_bytes()

    def test_failing_law_evidence_prints_without_python_syntax(self, capsys, monkeypatch):
        # a failing law's evidence is a dict of word lists inside a list
        # item: one dotted cell per key, each list comma-joined
        from logogram import Slice
        expansion = Slice.expansion
        monkeypatch.setattr(Slice, "expansion",
                            lambda slc, strings: expansion(slc, list(strings)[:1]))
        code, out, err = run(capsys, "galois", "sat", "1", "2", "--samples", "20",
                             "--format", "text")
        assert code == 3, err
        assert ("  - eq=antitone-expansion samples=20 verdict=fail "
                "counterexample.H=0_,12,2_ counterexample.K=2_\n") in out
        assert not set("[{'") & set(out)


class TestStringsOnlyAtTheEdge:
    # reports hold the texts they print, rendered from (position, letter
    # index) pairs: no analysis builds a PartialString on the way
    @pytest.mark.parametrize("argv", [
        *(f"{c} sat 3 3" for c in ("logogram", "wizards", "cover", "irreducible")),
        "independence sat 3 3 --budget-strings 250000",
        "kernel sat 2 4",
        "galois composite 6 --samples 120",
        *(f"{c} composite 10" for c in ("wizards", "cover", "irreducible")),
        "logogram composite 9 --regions",
    ])
    def test_analysis_builds_no_partial_string(self, capsys, monkeypatch, argv):
        # the construction and the search count too: each run builds its problem
        from logogram import PartialString
        built = []
        init = PartialString.__init__

        def counted(self, pairs):
            built.append(pairs)
            init(self, pairs)

        monkeypatch.setattr(PartialString, "__init__", counted)
        code, _, err = run(capsys, *argv.split())
        assert code in (0, 3), err
        assert built == []


class TestTracedSeams:
    def test_seams_are_the_benchmarks(self):
        path = Path(__file__).resolve().parent.parent / "bench" / "run.py"
        spec = importlib.util.spec_from_file_location("bench_run", path)
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        assert set().union(*TRACED_SEAMS.values()) == set(bench.TRACED_CALLS)

    @pytest.mark.parametrize("command", list(TRACED_SEAMS), ids=lambda c: c[0])
    def test_handler_calls_its_analyses_through_the_module(self, capsys, monkeypatch,
                                                           command):
        # a handler that bypassed logogram.cli.<name> would leave the
        # benchmark's spans and counters for that layer at zero
        import logogram.cli
        called = set()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                called.add(name)
                return fn(*args, **kwargs)
            return wrapper

        for name in set().union(*TRACED_SEAMS.values()):
            monkeypatch.setattr(logogram.cli, name, counting(name, getattr(logogram.cli, name)))
        code, _ = run_json(capsys, command[0], "sat", "2", "1", *command[1:])
        assert code == 0
        assert called == TRACED_SEAMS[command]


# id -> (descriptor length, key, value); at length 1 a JSON string where a
# word list belongs reads letter by letter as a list of words
MALFORMED_DESCRIPTORS = {
    "length-None": (2, "length", None),
    "alphabet-5": (2, "alphabet", 5),
    "universe-5": (2, "universe", 5),
    "target-5": (2, "target", 5),
    "regions-value4": (2, "regions", [5]),
    "length-2.5": (2, "length", 2.5),
    "length-2": (2, "length", "2"),
    "length-True": (2, "length", True),
    "alphabet-string": (2, "alphabet", "01"),
    "solutions-string": (2, "solutions", "x"),
    "label-5": (2, "label", 5),
    "label-list": (2, "label", ["x"]),
    "universe-string-length-1": (1, "universe", "01"),
    "target-string-length-1": (1, "target", "1"),
    "region-string-length-1": (1, "regions", ["1"]),
    "universe-short-word": (2, "universe", ["11", "1"]),
    "universe-numbers": (2, "universe", [0, 3]),
    "target-blank": (2, "target", ["1_"]),
    "target-number": (2, "target", [3]),
}


class TestContract:
    def test_bad_arguments_exit_1(self, capsys):
        assert run(capsys, "logogram", "sat", "1")[0] == 1
        assert run(capsys, "logogram", "composite", "x")[0] == 1
        assert run(capsys, "logogram", "generic", "/nonexistent.json")[0] == 1
        assert run(capsys, "logogram", "sat", "1", "1", "--no-such-flag")[0] == 1
        assert run(capsys, "no-such-command", "sat", "1", "1")[0] == 1

    def test_generic_takes_one_descriptor_path(self, capsys):
        code, out, err = run(capsys, "logogram", "generic", "a.json", "b.json")
        assert code == 1 and out == ""
        assert "generic expects one descriptor path" in err

    @pytest.mark.parametrize("args", [("sat", "²", "2"), ("composite", "¹")])
    def test_integer_arguments_are_decimal_digits(self, capsys, args):
        # "²".isdigit() holds, but int("²") raises
        code, out, err = run(capsys, "logogram", *args)
        assert code == 1 and out == ""
        assert "integer argument(s)" in err

    @pytest.mark.parametrize("command", ["logogram", "wizards", "independence",
                                         "irreducible", "kernel", "cover"])
    def test_seed_only_on_galois(self, capsys, command):
        # only the sampled suite reads a seed; elsewhere it is a usage error
        code, out, err = run(capsys, command, "sat", "1", "1", "--seed", "3")
        assert code == 1 and out == ""
        assert "--seed" in err

    def test_help_exits_0(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_degenerate_problem_exits_1(self, capsys):
        code, _, err = run(capsys, "logogram", "composite", "2")
        assert code == 1
        assert "target" in err

    def test_budget_exhaustion_exits_2(self, capsys):
        code, _, err = run(capsys, "logogram", "sat", "2", "2",
                           "--budget-strings", "2")
        assert code == 2
        assert "budget" in err

    def test_a_run_depends_only_on_its_arguments(self, capsys):
        # each run builds its own problem: an earlier run's search, cached
        # in the adapter's problem, would charge this run nothing
        argv = ("logogram", "sat", "2", "4", "--budget-strings", "1")
        stopped = (2, "", "budget exhausted: logogram: sat:2x4: exceeded 1 sub-problems\n")
        assert run(capsys, *argv) == stopped
        assert run(capsys, "logogram", "sat", "2", "4")[0] == 0
        assert run(capsys, *argv) == stopped

    def test_identical_runs_are_byte_identical(self, capsys):
        _, first, _ = run(capsys, "galois", "sat", "1", "1",
                          "--samples", "30", "--seed", "4")
        _, second, _ = run(capsys, "galois", "sat", "1", "1",
                           "--samples", "30", "--seed", "4")
        assert first == second

    def test_out_writes_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(capsys, "logogram", "sat", "1", "1", "--out", str(path))
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["count"] == 2

    def test_unwritable_out_exits_1(self, capsys, tmp_path):
        path = tmp_path / "missing" / "report.json"
        code, out, err = run(capsys, "logogram", "sat", "1", "1", "--out", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("limit", [("--budget-strings", "0"), ("--budget-seconds", "nan")],
                             ids=["strings-0", "seconds-nan"])
    def test_non_positive_budget_exits_1(self, capsys, limit):
        code, out, err = run(capsys, "logogram", "sat", "1", "1", *limit)
        assert code == 1 and out == ""
        assert "budget limits must be positive" in err

    @pytest.mark.parametrize("length,key,value", list(MALFORMED_DESCRIPTORS.values()),
                             ids=list(MALFORMED_DESCRIPTORS))
    def test_malformed_generic_descriptor_exits_1(self, capsys, tmp_path, length, key, value):
        doc = {"alphabet": ["0", "1"], "length": length, "universe": "all",
               "target": ["1" * length], "regions": [["1" * length]]}
        doc[key] = value
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "logogram", "generic", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: ")

    def test_generic_descriptor_export_reimports(self, capsys, tmp_path):
        from logogram import sat_problem
        path = tmp_path / "exported.json"
        path.write_text(json.dumps(sat_problem(1, 1).descriptor()))
        code, doc = run_json(capsys, "logogram", "generic", str(path))
        assert code == 0
        assert doc["strings"] == ["1", "2"]

    @pytest.mark.parametrize("argv", [
        ("cover", "composite", "12"), ("logogram", "connectivity", "6")])
    def test_budget_seconds_bounds_construction_and_search(self, capsys, argv):
        # sizes whose per-(word, solution) problem construction once ran
        # for tens of seconds outside any budget
        start = time.perf_counter()
        code, _, err = run(capsys, *argv, "--budget-seconds", "2")
        elapsed = time.perf_counter() - start
        assert code in (0, 2), err
        assert elapsed < 10


SRC = Path(__file__).resolve().parent.parent / "src"


def process(*args: str, stdout=subprocess.PIPE, unbuffered=False) -> subprocess.CompletedProcess:
    """``python ARGS`` on the checkout's ``src``, with stdout buffered as it
    is wherever PYTHONUNBUFFERED is unset, or else unbuffered."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONUNBUFFERED", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE,
                          env=env, timeout=60)


# one case per exit code
EXIT_CASES = {
    "ok": (("logogram", "sat", "2", "2"), 0),
    "error": (("logogram", "sat", "0", "2"), 1),
    "budget": (("logogram", "composite", "12", "--budget-strings", "10"), 2),
    "violation": (("irreducible", "composite", "6"), 3),
}

# a report that stays in stdout's buffer until exit, and one that overflows
# it inside main's own write
REPORT_SIZES = [("logogram", "sat", "2", "2"), ("cover", "composite", "10")]


class TestProcessEntry:
    @pytest.mark.parametrize("argv,code", list(EXIT_CASES.values()), ids=list(EXIT_CASES))
    def test_process_ends_as_main_returns(self, capsys, argv, code):
        in_process = run(capsys, *argv)
        assert in_process[0] == code
        proc = process("-m", "logogram.cli", *argv)
        assert (proc.returncode, proc.stdout) == (code, in_process[1].encode())

    @pytest.mark.parametrize("entry,frozen", [
        ("runpy.run_module('logogram.cli', run_name='__main__', alter_sys=True)", True),
        ("from logogram.cli import main\nmain(sys.argv[1:])", False),
    ], ids=["run", "main"])
    def test_only_the_process_entry_freezes_the_heap(self, entry, frozen):
        script = ("import atexit, gc, runpy, sys\n"
                  "atexit.register(lambda: print(gc.get_freeze_count(), file=sys.stderr))\n"
                  "sys.argv = ['logogram', 'logogram', 'sat', '2', '2']\n" + entry)
        proc = process("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert (int(proc.stderr.decode().split()[-1]) > 0) is frozen


class TestFailedWriteToStdout:
    # the write fails in the flush before exit, or in main for a long report;
    # either way one error line and exit 1, not the interpreter's 120
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("argv", REPORT_SIZES, ids=["buffered", "overflowing"])
    def test_full_device_exits_1(self, argv):
        with open("/dev/full", "wb") as full:
            proc = process("-m", "logogram.cli", *argv, stdout=full)
        lines = proc.stderr.decode().splitlines()
        assert proc.returncode == 1 and len(lines) == 1 and lines[0].startswith("error: "), lines

    @pytest.mark.parametrize("argv", REPORT_SIZES, ids=["buffered", "overflowing"])
    def test_pipe_closed_by_its_reader_exits_1(self, argv):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = process("-m", "logogram.cli", *argv, stdout=write)
        finally:
            os.close(write)
        lines = proc.stderr.decode().splitlines()
        assert proc.returncode == 1 and len(lines) == 1 and lines[0].startswith("error: "), lines

    # with stdout unbuffered the help text's write fails inside argparse,
    # which would swallow the error and exit 0
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [("--help",), ("kernel", "--help")], ids=["top", "kernel"])
    def test_help_to_a_full_device_exits_1(self, argv, unbuffered):
        with open("/dev/full", "wb") as full:
            proc = process("-m", "logogram.cli", *argv, stdout=full, unbuffered=unbuffered)
        lines = proc.stderr.decode().splitlines()
        assert proc.returncode == 1 and len(lines) == 1 and lines[0].startswith("error: "), lines

    def test_piped_help_exits_0(self):
        proc = process("-m", "logogram.cli", "--help", unbuffered=True)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout.startswith(b"usage: logogram ")
