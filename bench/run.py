#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ``logogram`` CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The unit of work is one analysis: one ``logogram <subcommand> <problem>``
process, run to exit. Analyses run one at a time (a closed loop with one
client), so each pays interpreter start and no cache carries over from one
analysis to the next. A run times whole rounds of its workload's analyses,
each round in an order shuffled by the seed; ``--seconds`` sets how many
rounds, from the round times measured at the seed commit.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs one round
as processes, then two in-process traced passes over the same analyses
with spans around the calls into each module, and prints the per-layer
metrics; the counters of the two passes must agree exactly. ``--seconds``
does not apply to it.

Every analysis is checked: seed-independent outputs against the goldens in
``bench/golden`` byte for byte, ``galois`` reports by verdict and sample
counts. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See
``bench/NOTES.md`` for why each workload and metric was chosen.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import select
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "bench" / "golden"
OUT = ROOT / "bench" / "out"
EVEN4 = "bench/out/even4.json"  # relative to ROOT, where analyses run

# a run must end within 180 s; stop starting work well before that
HARD_LIMIT_S = 150.0
SETUP_SAMPLES = 9
GALOIS_SAMPLES = 50
TAIL_BEYOND = 10
INDEPENDENCE_BUDGET = ("--budget-strings", "250000")

# Round time of each workload at the seed commit on a shared 2-core VM. A run
# times max(1, round(seconds / round time)) whole rounds: every run, on every
# commit, measures the same mix and count of analyses, so the median and
# the tail percentile stay comparable when the program gets faster.
NOMINAL_ROUND_S = {"sat-certify": 24.5, "wide-regions": 8.3, "sat-kernel": 10.4,
                   "galois-sample": 3.0}

# The speed a core of a shared VM delivers drifts by up to 2x within seconds. A
# fixed pure-Python loop, timed in CPU time on the same core before, every
# SAMPLE_EVERY_S during, and after each process, tracks that drift, so
# end-to-end times are reported at the loop's reference speed:
# wall * REFERENCE_S / (mean loop time). The samples take ~2% of the core.
REFERENCE_S = 0.004
SAMPLE_EVERY_S = 0.25

WORKLOADS = {
    "sat-certify": [
        (cmd, "sat", n, m)
        for cmd in ("logogram", "wizards", "cover", "irreducible")
        for n, m in (("2", "4"), ("4", "2"), ("3", "3"))
    ] + [
        ("independence", "sat", n, m, *INDEPENDENCE_BUDGET)
        for n, m in (("3", "2"), ("2", "3"), ("3", "3"))
    ],
    "wide-regions": [
        (cmd, *problem)
        for cmd in ("wizards", "cover")
        for problem in (("composite", "9"), ("composite", "10"), ("connectivity", "5"))
    ],
    "sat-kernel": [
        ("kernel", "sat", n, m)
        for n, m in (("3", "2"), ("2", "3"), ("4", "2"), ("2", "4"))
    ],
    # completed with --samples and a seeded --seed each round
    "galois-sample": [
        ("galois", "composite", "4"),
        ("galois", "composite", "6"),
        ("galois", "sat", "2", "2"),
        ("galois", "generic", EVEN4),
    ],
}

GALOIS_LAWS = 7

# words of length 4 with an even number of ones: the fourth slice of the
# Galois acceptance criterion, as a generic descriptor
EVEN4_WORDS = [w for w in (format(i, "04b") for i in range(16)) if w.count("1") % 2 == 0]
EVEN4_DOC = {
    "label": "even:4",
    "alphabet": ["0", "1"],
    "length": 4,
    "universe": EVEN4_WORDS,
    "target": [w for w in EVEN4_WORDS if w[0] == "1"],
    "regions": [[w for w in EVEN4_WORDS if w[0] == "1"]],
}


def round_analyses(workload: str, rng: random.Random) -> list[tuple[str, ...]]:
    """One round of the workload's analyses in seeded order."""
    items = list(WORKLOADS[workload])
    if workload == "galois-sample":
        items = [(*a, "--samples", str(GALOIS_SAMPLES), "--seed", str(rng.randrange(1 << 20)))
                 for a in items]
    rng.shuffle(items)
    return items


def golden_name(argv: tuple[str, ...]) -> str:
    return "_".join(a.lstrip("-") for a in argv) + ".json"


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("LOGOGRAM_") and k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(SRC)
    return env


def import_program():
    """The package from this checkout's ``src``, never an installed one."""
    sys.path.insert(0, str(SRC))
    import logogram
    import logogram.cli
    if Path(logogram.__file__).resolve().parent != SRC / "logogram":
        raise ImportError(f"imported {logogram.__file__}, not the checkout's package")
    return logogram


def prepare_outputs() -> None:
    """Create ``bench/out`` with the generated descriptor in it."""
    OUT.mkdir(parents=True, exist_ok=True)
    (ROOT / EVEN4).write_text(json.dumps(EVEN4_DOC, indent=2) + "\n", encoding="utf-8")


# -- correctness ---------------------------------------------------------


def predicted_strings(lg, argv: tuple[str, ...]) -> list[str] | None:
    """Closed-form reduced logogram of a ``sat`` analysis, else None."""
    if argv[1] != "sat":
        return None
    shape = lg.CnfShape(int(argv[2]), int(argv[3]))
    return sorted(lg.predicted_sat_logogram(shape).texts(shape.length))


def golden_agrees_with_closed_form(doc: dict, command: str, predicted: list[str]) -> bool:
    """Cross-check a golden ``sat`` report against the closed form, so that
    goldens recorded from a broken build are caught."""
    n = len(predicted)
    if command == "logogram":
        return sorted(doc["strings"]) == predicted
    if command == "wizards":
        return sorted(doc["wizards"] + [w["string"] for w in doc["witnesses"]]) == predicted
    if command == "cover":
        return sorted(c["string"] for c in doc["cover"]) == predicted
    if command == "irreducible":
        return doc["logogram_size"] == n and doc["irreducible"]
    if command == "kernel":
        return doc["logogram_size"] == n and all(
            sorted(p["kernel"]) == predicted for p in doc["programs"])
    if command == "independence":
        return doc["simple"]["strings_checked"] == n and doc["strong"]["strings_checked"] == n
    return False


class Checker:
    """Decides whether one analysis's exit code and output are correct."""

    def __init__(self, lg, workload: str):
        self.goldens: dict[tuple[str, ...], bytes | None] = {}
        if workload == "galois-sample":
            return
        for argv in WORKLOADS[workload]:
            path = GOLDEN / golden_name(argv)
            if not path.is_file():
                self.goldens[argv] = None
                continue
            data = path.read_bytes()
            predicted = predicted_strings(lg, argv)
            if predicted is not None and not golden_agrees_with_closed_form(
                    json.loads(data), argv[0], predicted):
                data = None
            self.goldens[argv] = data

    def failure(self, argv: tuple[str, ...], code: int, out: bytes) -> str | None:
        """Why the analysis is wrong, or None when it is correct."""
        if code != 0:
            return f"exit code {code}"
        if argv[0] == "galois":
            try:
                doc = json.loads(out)
            except ValueError:
                return "output is not JSON"
            checks = doc.get("checks", [])
            if doc.get("verdict") != "pass" or len(checks) != GALOIS_LAWS:
                return "galois verdict is not pass"
            if any(c["samples"] < GALOIS_SAMPLES or "counterexample" in c for c in checks):
                return "a galois law has too few samples or a counterexample"
            return None
        golden = self.goldens.get(argv)
        if golden is None:
            return "no golden, or the golden contradicts the closed form"
        if out != golden:
            return "output differs from the golden"
        return None


# -- running analyses as processes ----------------------------------------


def run_cli(argv: tuple[str, ...], deadline: float) -> tuple[float, float, int, bytes]:
    """Wall time, wall time at the reference speed, exit code and stdout of
    one CLI process. A process still running at the deadline is killed."""
    speeds = [reference_loop()]
    with open(OUT / "stdout", "w+b") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "logogram.cli", *argv], cwd=ROOT,
                                env=child_env(), stdout=out, stderr=subprocess.DEVNULL)
        pidfd = os.pidfd_open(proc.pid)  # readable once the process has exited
        try:
            while not select.select([pidfd], [], [], SAMPLE_EVERY_S)[0]:
                if time.perf_counter() > deadline:
                    proc.kill()
                else:
                    speeds.append(reference_loop())
            wall = time.perf_counter() - start
        finally:
            os.close(pidfd)
        code = proc.wait()
        out.seek(0)
        stdout = out.read()
    speeds.append(reference_loop())
    return wall, wall * REFERENCE_S / statistics.fmean(speeds), code, stdout


def pin_to_one_cpu() -> None:
    """Run this process and every child on one core, the core whose speed
    the reference loop measures."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError) as err:
        print(f"running unpinned: {err}")


def reference_loop() -> float:
    """CPU time of a fixed pure-Python loop, ~4 ms on an idle core."""
    start = time.thread_time()
    table: dict[int, int] = {}
    acc = 0
    for i in range(20_000):
        key = i & 4095
        table[key] = table.get(key, 0) + i
        acc ^= i * 7
    return time.thread_time() - start


def setup_time(deadline: float) -> tuple[float, float]:
    """Wall time of ``logogram --help`` (import and exit, no analysis), raw
    and at the reference speed."""
    wall, scaled, code, _ = run_cli(("--help",), deadline)
    if code != 0:
        raise RuntimeError(f"logogram --help exited with {code}")
    return wall, scaled


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it,
    as (value, percentile). With too few samples for that: the maximum."""
    ordered = sorted(times)
    i = len(ordered) - 1 - TAIL_BEYOND
    if i < 0:
        return ordered[-1], 100.0
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def end_to_end(workload: str, seed: int, seconds: float, lg) -> tuple[dict, int, int, bool]:
    deadline = time.perf_counter() + HARD_LIMIT_S
    rng = random.Random(seed)
    checker = Checker(lg, workload)
    rounds = max(1, round(seconds / NOMINAL_ROUND_S[workload]))
    analyses = [argv for _ in range(rounds) for argv in round_analyses(workload, rng)]
    run_cli(("--help",), deadline)  # first start fills bytecode caches; not timed
    # set-up is sampled across the run, so it sees the same host as the analyses
    stride = max(1, len(analyses) // SETUP_SAMPLES)
    setups: list[float] = []
    raw: list[float] = []
    walls: list[float] = []
    failures: list[str] = []
    for i, argv in enumerate(analyses):
        if time.perf_counter() > deadline:
            print(f"stopped at the {HARD_LIMIT_S:.0f} s limit after {i} analyses")
            break
        if i % stride == 0:
            setups.append(setup_time(deadline)[1])
        wall, scaled, code, out = run_cli(argv, deadline)
        raw.append(wall)
        walls.append(scaled)
        why = checker.failure(argv, code, out)
        if why:
            failures.append(f"{' '.join(argv)}: {why}")
    elapsed = sum(walls)

    attempted, failed = len(walls), len(failures)
    tail_s, tail_pct = tail(walls)
    metrics = {
        "ops_per_s": ((attempted - failed) / elapsed, "1/s"),
        "op_p50_s": (statistics.median(walls), "s"),
        "op_tail_s": (tail_s, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    print(f"workload {workload}  seed {seed}  rounds {rounds}  analyses {attempted}  "
          f"wall time {sum(raw):.2f} s, {elapsed:.2f} s at reference speed")
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "op_tail_s":
            note = f"  (p{tail_pct:.1f} of {attempted} analyses)"
        elif name == "setup_s":
            note = f"  (median of {len(setups)} runs of logogram --help)"
        print(f"  {name:<12} {value:.6g} {unit}{note}")
    print(f"  {'fail_frac':<12} {failed / attempted:.6g}  ({failed} of {attempted})")
    for line in failures:
        print(f"  FAILED {line}")
    return metrics, attempted, failed, True


# -- the traced run ------------------------------------------------------


class Tracer:
    """Spans (name, start, end, parent span, analysis id) kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.analysis = None

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "analysis": self.analysis, "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)


# CLI-level names wrapped in a span during the traced run: the span name and
# the counter the call adds to, computed from its arguments and result.
TRACED_CALLS = {
    "classify": ("wizardry.classify", "wizardry.region_tests",
                 lambda args, r: len(r.entries) * args[0].alpha),
    "cover": ("wizardry.cover", "wizardry.region_tests",
              lambda args, r: len(r.charts) * args[0].alpha),
    "kernel": ("tracer.kernel", "tracer.words",
               lambda args, r: args[1].slice.word_count()),
    "irreducibility_report": ("engine.irreducible", None, None),
    "internal_independence": ("engine.internal", "engine.internal_pairs",
                              lambda args, r: r.pairs_checked),
    "simple_independence": ("engine.simple", "engine.simple_pairs",
                            lambda args, r: r.pairs_checked),
    "strong_independence": ("engine.strong", None, None),
    "verify_galois": ("engine.galois", "engine.galois_checks",
                      lambda args, r: sum(c.samples for c in r.checks)),
}

COUNTERS = ("problems.pairs", "engine.candidates", "engine.minimal",
            "engine.internal_pairs", "engine.simple_pairs", "engine.galois_checks",
            "wizardry.region_tests", "tracer.words")


@contextmanager
def traced_cli(cli, tracer: Tracer, counters: dict):
    """Wrap the module functions the CLI handlers call in spans."""
    originals = {name: getattr(cli, name) for name in TRACED_CALLS}

    def wrap(fn, span_name, counter, count):
        def traced(*args, **kwargs):
            with tracer.span(span_name):
                result = fn(*args, **kwargs)
            if counter:
                counters[counter] += count(args, result)
            return result
        return traced

    for name, (span_name, counter, count) in TRACED_CALLS.items():
        setattr(cli, name, wrap(originals[name], span_name, counter, count))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(cli, name, fn)


def build_problem(lg, kind: str, args: list[str]):
    if kind == "generic":
        with open(ROOT / args[0], encoding="utf-8") as fh:
            return lg.generic_problem(json.load(fh))
    adapter = {"sat": lg.sat_problem, "composite": lg.composite_problem,
               "connectivity": lg.connectivity_problem}[kind]
    return adapter(*(int(a) for a in args))


def traced_analysis(lg, argv: tuple[str, ...], tracer: Tracer,
                    counters: dict) -> tuple[int, bytes]:
    """One analysis in process, as the CLI runs it, with spans per layer."""
    cli = lg.cli
    ns = cli.build_parser().parse_args(list(argv))
    for adapter in (lg.sat_problem, lg.composite_problem, lg.connectivity_problem):
        adapter.cache_clear()
    defaults = lg.Budget.default()
    budget = lg.Budget(
        max_strings=defaults.max_strings if ns.budget_strings is None else ns.budget_strings,
        max_seconds=defaults.max_seconds if ns.budget_seconds is None else ns.budget_seconds)
    with tracer.span("analysis"):
        with tracer.span("problems.build"):
            problem = build_problem(lg, ns.problem, ns.args)
        counters["problems.pairs"] += problem.alpha * problem.slice.word_count()
        if ns.command != "galois":
            # searched here, through a meter we hold, so that the handler's
            # spans below contain no search time
            meter = budget.start(f"logogram: {problem.label}")
            with tracer.span("engine.logogram"):
                log = problem.logogram(meter=meter)
            counters["engine.candidates"] += meter.count
            counters["engine.minimal"] += len(log)
        with tracer.span("cli.handler"):
            doc, _rows, violation = cli.HANDLERS[ns.command](ns, problem, budget)
        with tracer.span("cli.render"):
            text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return (cli.EXIT_VIOLATION if violation else cli.EXIT_OK), text.encode()


def traced_pass(lg, analyses, checker: Checker,
                deadline: float) -> tuple[Tracer, dict, list[str]]:
    tracer = Tracer()
    counters = dict.fromkeys(COUNTERS, 0)
    failures = []
    with traced_cli(lg.cli, tracer, counters):
        for i, argv in enumerate(analyses):
            if time.perf_counter() > deadline:
                failures.append(f"traced pass stopped at the {HARD_LIMIT_S:.0f} s limit")
                break
            tracer.analysis = i
            try:
                code, out = traced_analysis(lg, argv, tracer, counters)
            except Exception as err:  # an analysis that raises is a failed analysis
                failures.append(f"traced {' '.join(argv)}: raised {err!r}")
                continue
            why = checker.failure(argv, code, out)
            if why:
                failures.append(f"traced {' '.join(argv)}: {why}")
    return tracer, counters, failures


def layer_metrics(tracers: list[Tracer], counters: dict, untraced_s: float,
                  setup_s: float, analyses: int) -> dict:
    def seconds(name: str) -> float:
        return statistics.fmean(t.total(name) for t in tracers)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    c = counters
    logogram_s, kernel_s = seconds("engine.logogram"), seconds("tracer.kernel")
    return {
        "problems.build_s": (seconds("problems.build"), "s"),
        "problems.pairs": (c["problems.pairs"], "count"),
        "engine.logogram_s": (logogram_s, "s"),
        "engine.candidates": (c["engine.candidates"], "count"),
        "engine.minimal": (c["engine.minimal"], "count"),
        "engine.yield": (ratio(c["engine.minimal"], c["engine.candidates"]), "ratio"),
        "engine.us_per_candidate": (ratio(1e6 * logogram_s, c["engine.candidates"]), "us"),
        "engine.irreducible_s": (seconds("engine.irreducible"), "s"),
        "engine.internal_s": (seconds("engine.internal"), "s"),
        "engine.internal_pairs": (c["engine.internal_pairs"], "count"),
        "engine.simple_s": (seconds("engine.simple"), "s"),
        "engine.simple_pairs": (c["engine.simple_pairs"], "count"),
        "engine.strong_s": (seconds("engine.strong"), "s"),
        "engine.galois_s": (seconds("engine.galois"), "s"),
        "engine.galois_checks": (c["engine.galois_checks"], "count"),
        "wizardry.classify_s": (seconds("wizardry.classify"), "s"),
        "wizardry.cover_s": (seconds("wizardry.cover"), "s"),
        "wizardry.region_tests": (c["wizardry.region_tests"], "count"),
        "tracer.kernel_s": (kernel_s, "s"),
        "tracer.words": (c["tracer.words"], "count"),
        "tracer.us_per_word": (ratio(1e6 * kernel_s, c["tracer.words"]), "us"),
        "cli.render_s": (seconds("cli.render"), "s"),
        "trace.overhead_s": (seconds("analysis") - (untraced_s - analyses * setup_s), "s"),
    }


def traced_run(workload: str, seed: int, lg) -> tuple[dict, int, int, bool]:
    deadline = time.perf_counter() + HARD_LIMIT_S
    analyses = round_analyses(workload, random.Random(seed))
    checker = Checker(lg, workload)
    run_cli(("--help",), deadline)  # first start fills bytecode caches; not timed
    # raw wall times here, like the spans they are compared with
    setup_s = statistics.median(setup_time(deadline)[0] for _ in range(5))
    failures = []
    untraced_s = 0.0
    for argv in analyses:
        wall, _, code, out = run_cli(argv, deadline)
        untraced_s += wall
        why = checker.failure(argv, code, out)
        if why:
            failures.append(f"{' '.join(argv)}: {why}")

    passes = [traced_pass(lg, analyses, checker, deadline) for _ in range(2)]
    for _, _, pass_failures in passes:
        failures += pass_failures
    (first_tracer, first, _), (second_tracer, second, _) = passes
    drift = [f"nondeterminism: {name} read {first[name]} then {second[name]}"
             for name in COUNTERS if first[name] != second[name]]

    with open(OUT / f"spans-{workload}-{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "analyses": [list(a) for a in analyses],
                   "passes": [first_tracer.spans, second_tracer.spans]}, fh)

    metrics = layer_metrics([first_tracer, second_tracer], first, untraced_s, setup_s,
                            len(analyses))
    attempted, failed = 3 * len(analyses), len(failures)
    print(f"workload {workload}  seed {seed}  traced analyses {len(analyses)} x 2  "
          f"spans per pass {len(first_tracer.spans)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<24} {value:.6g} {unit}")
    for line in failures + drift:
        print(f"  FAILED {line}")
    return metrics, attempted, failed, not drift


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    if ns.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "logogram" / "cli.py").is_file():
        print(f"error: no logogram sources under {SRC}", file=sys.stderr)
        return 1
    try:
        lg = import_program()
    except ImportError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    pin_to_one_cpu()
    prepare_outputs()

    if ns.trace:
        metrics, attempted, failed, repeatable = traced_run(ns.workload, ns.seed, lg)
    else:
        metrics, attempted, failed, repeatable = end_to_end(
            ns.workload, ns.seed, ns.seconds, lg)
    print(json.dumps({
        "correct": failed == 0 and repeatable,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
