"""CLI subcommands: reports, formats, exit codes, determinism."""

import importlib.util
import json
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

    def test_connectivity_6_within_default_budget(self, capsys, monkeypatch):
        # 2^15 words and 1,296 minimal strings, far inside the default budget
        from logogram import connectivity_problem
        monkeypatch.delenv("LOGOGRAM_BUDGET_STRINGS", raising=False)
        monkeypatch.delenv("LOGOGRAM_BUDGET_SECONDS", raising=False)
        connectivity_problem.cache_clear()
        try:
            code, doc = run_json(capsys, "logogram", "connectivity", "6")
        finally:
            connectivity_problem.cache_clear()
        assert code == 0
        assert doc["count"] == 1296

    def test_regions_flag(self, capsys):
        _, doc = run_json(capsys, "logogram", "sat", "1", "1", "--regions")
        assert len(doc["regions"]) == 2
        assert doc["regions"][1]["strings"] == ["1"]  # x1=1 region

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "logogram", "sat", "1", "1", "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["string", "1", "2"]

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "logogram", "sat", "1", "1", "--format", "text")
        assert code == 0
        assert "count: 2" in out


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

    def test_default_budget_sat_3x2_is_count_bound(self, capsys, monkeypatch):
        # the internal check ends on the string count (2,236 strings, all
        # ordered pairs), well inside its share of the default clock
        monkeypatch.delenv("LOGOGRAM_BUDGET_STRINGS", raising=False)
        monkeypatch.delenv("LOGOGRAM_BUDGET_SECONDS", raising=False)
        start = time.perf_counter()
        code, doc = run_json(capsys, "independence", "sat", "3", "2")
        elapsed = time.perf_counter() - start
        assert code == 0
        internal = doc["internal"]
        assert internal["strings_checked"] == 2236
        assert internal["pairs_checked"] == 4997460
        assert internal["budget_exhausted"] is True
        assert elapsed < 10


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

    def test_dump_traces_gets_a_share_of_the_clock(self, capsys, monkeypatch, tmp_path):
        import logogram.cli
        budgets = []

        def record(program, problem, budget):
            budgets.append(budget)
            return iter(())

        monkeypatch.setattr(logogram.cli, "trace_records", record)
        code, _ = run_json(capsys, "kernel", "sat", "1", "1", "--budget-seconds", "70",
                           "--dump-traces", str(tmp_path / "traces.jsonl"))
        assert code == 0
        # three kernel sweeps, three dumps and the irreducibility check
        assert [b.max_seconds for b in budgets] == [10.0] * 3

    def test_fault_names_first_faulty_input(self, capsys, monkeypatch):
        import logogram.cli
        from logogram import DecisionProgram
        first = DecisionProgram("first-position", lambda probe: probe(1) == "1")
        monkeypatch.setattr(logogram.cli, "built_in_programs", lambda problem: (first,))
        code, doc = run_json(capsys, "kernel", "sat", "1", "2")
        assert code == 3
        assert doc["fault"] == "on input '10': first-position gave the wrong verdict"
        assert doc["programs"] == []

    def test_non_clause_problem_rejected(self, capsys):
        code, _, err = run(capsys, "kernel", "composite", "4")
        assert code == 1
        assert "clause" in err

    def test_non_clause_problem_rejected_before_the_search(self, capsys, monkeypatch):
        import logogram.cli
        import logogram.problems
        from logogram import composite_problem
        search = logogram.problems.reduced_logogram_of_mask
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(logogram.problems, "reduced_logogram_of_mask", counted)
        # an uncached problem, whose logogram no earlier test has computed
        monkeypatch.setattr(logogram.cli, "composite_problem", composite_problem.__wrapped__)
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
        from logogram import composite_problem
        composite_problem.cache_clear()
        try:
            code, doc = run_json(capsys, "cover", "composite", "14", "--budget-seconds", "10")
        finally:
            composite_problem.cache_clear()
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


class TestContract:
    def test_bad_arguments_exit_1(self, capsys):
        assert run(capsys, "logogram", "sat", "1")[0] == 1
        assert run(capsys, "logogram", "composite", "x")[0] == 1
        assert run(capsys, "logogram", "generic", "/nonexistent.json")[0] == 1
        assert run(capsys, "logogram", "sat", "1", "1", "--no-such-flag")[0] == 1
        assert run(capsys, "no-such-command", "sat", "1", "1")[0] == 1

    def test_help_exits_0(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_degenerate_problem_exits_1(self, capsys):
        code, _, err = run(capsys, "logogram", "composite", "2")
        assert code == 1
        assert "target" in err

    def test_budget_exhaustion_exits_2(self, capsys):
        # a fresh process has no cached logograms; mimic that here
        from logogram import sat_problem
        sat_problem.cache_clear()
        code, _, err = run(capsys, "logogram", "sat", "2", "2",
                           "--budget-strings", "2")
        assert code == 2
        assert "budget" in err

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

    @pytest.mark.parametrize("key,value", [
        ("length", None), ("alphabet", 5), ("universe", 5), ("target", 5), ("regions", [5]),
        ("length", 2.5), ("length", "2"), ("length", True)])
    def test_malformed_generic_descriptor_exits_1(self, capsys, tmp_path, key, value):
        doc = {"alphabet": ["0", "1"], "length": 2, "universe": "all",
               "target": ["11"], "regions": [["11"]]}
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
        from logogram import composite_problem, connectivity_problem
        composite_problem.cache_clear()
        connectivity_problem.cache_clear()
        start = time.perf_counter()
        code, _, err = run(capsys, *argv, "--budget-seconds", "2")
        elapsed = time.perf_counter() - start
        composite_problem.cache_clear()
        connectivity_problem.cache_clear()
        assert code in (0, 2), err
        assert elapsed < 10

    def test_env_budget_default(self, capsys, monkeypatch):
        from logogram import sat_problem
        sat_problem.cache_clear()
        monkeypatch.setenv("LOGOGRAM_BUDGET_STRINGS", "2")
        code, _, _ = run(capsys, "logogram", "sat", "2", "2")
        assert code == 2
