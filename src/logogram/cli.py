"""Command-line front end: every analysis as a subcommand.

Each subcommand selects a problem (``sat N M``, ``composite WIDTH``,
``connectivity V``, or ``generic PATH`` with a JSON descriptor), runs one
analysis, and writes a deterministic report. Exit codes: 0 success, 1
validation error, 2 budget exhausted, 3 a checked property failed. The
analyses return report values; each handler builds its JSON document and
CSV rows from their fields, and the text form walks that document.

The analysis layers load on a handler's first use, so ``--help`` and each
subcommand import only what they run. Handlers call them as attributes of
this module (``_cli.kernel``), which resolve through the package on first
access and can be replaced, for instance by a test or a tracer. ``run()``
is the process entry: it freezes the heap, so exit collects no cycles among
what the analysis left alive; no module here has a finalizer that needs it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import sys

from .budget import DEFAULT_MAX_SECONDS, DEFAULT_MAX_STRINGS, Budget, BudgetExceededError

_cli = sys.modules[__name__]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BUDGET = 2
EXIT_VIOLATION = 3


def __getattr__(name: str):
    """A public name of the package, loaded on first use and kept here."""
    package = sys.modules[__package__]
    if name not in package.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(package, name)
    return value


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):  # argparse's own swallows a failed write
        (file or sys.stdout).write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="logogram",
        description="Certificate-structure analysis of finite decision problems.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in [
        ("logogram", "reduced logogram of the target set"),
        ("wizards", "classify logogram strings as witnesses or wizards"),
        ("independence", "internal, simple, and strong independence checks"),
        ("irreducible", "irreducibility of the reduced logogram, with removal witnesses"),
        ("galois", "sampled checks of the expansion/logogram closure laws"),
        ("kernel", "kernels of the built-in traced solvers, compared"),
        ("cover", "cover table: chart sizes and containing-region counts"),
    ]:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("problem", choices=["sat", "composite", "connectivity", "generic"],
                        help="sat N M | composite WIDTH | connectivity V | generic PATH")
        sp.add_argument("args", nargs="*", help="problem arguments")
        sp.add_argument("--budget-strings", type=int, default=DEFAULT_MAX_STRINGS, metavar="N",
                        help="max distinct sub-problems per search (per suite for galois; "
                             "--regions adds each distinct region sub-problem once)")
        sp.add_argument("--budget-seconds", type=float, default=DEFAULT_MAX_SECONDS,
                        metavar="S", help="max wall-clock seconds for the whole subcommand, "
                                          "construction included")
        sp.add_argument("--format", choices=["json", "csv", "text"], default="json")
        sp.add_argument("--out", default=None, metavar="PATH",
                        help="write the report here instead of stdout")
        if name == "logogram":
            sp.add_argument("--regions", action="store_true",
                            help="also emit each region's reduced logogram")
        if name == "galois":
            sp.add_argument("--samples", type=int, default=1000, metavar="N")
            sp.add_argument("--seed", type=int, default=0, metavar="K",
                            help="seed for sampled checks")
        if name == "kernel":
            sp.add_argument("--dump-traces", default=None, metavar="PATH",
                            help="write per-input probe traces as JSON lines")

    return parser


def _resolve_problem(kind: str, args: list[str]):
    """The problem a run names, built afresh past the adapter's cache
    (``__wrapped__``): a search cached by an earlier caller charges nothing."""
    if kind == "generic":
        if len(args) != 1:
            raise ValueError("generic expects one descriptor path")
        with open(args[0], encoding="utf-8") as fh:
            return _cli.generic_problem(json.load(fh))
    count = 2 if kind == "sat" else 1
    if len(args) != count or not all(a.lstrip("-").isdecimal() for a in args):
        raise ValueError(f"{kind} expects {count} integer argument(s), got {args!r}")
    adapter = getattr(_cli, f"{kind}_problem")
    return getattr(adapter, "__wrapped__", adapter)(*map(int, args))


def _antichain_doc(chain, problem, set_label: str) -> dict:
    return {
        "slice": problem.slice.descriptor(),
        "set_label": set_label,
        "strings": chain.texts(problem.slice.length),
        "count": len(chain),
    }


def _verdict(passed: bool) -> str:
    return "pass" if passed else "fail"


def cmd_logogram(ns, problem, budget):
    meter = budget.start(f"logogram: {problem.label}")
    log = problem.logogram(meter=meter)
    doc = _antichain_doc(log, problem, f"target:{problem.label}")
    rows = [("string",)] + [(t,) for t in doc["strings"]]
    if ns.regions:
        doc["regions"] = [
            _antichain_doc(region, problem,
                           f"region:{i}:{problem.solution_text(problem.solutions[i])}")
            for i, region in enumerate(problem.region_logograms(meter=meter))]
    return doc, rows, False


def cmd_wizards(ns, problem, budget):
    report = _cli.classify(problem, budget)
    doc = {
        "problem": report.problem_label,
        "logogram_size": len(report.entries),
        "wizards": [e.string for e in report.wizards],
        "witnesses": [{"string": e.string, "regions": list(e.witness_regions)}
                      for e in report.witnesses],
    }
    rows = [("string", "kind", "regions")] + [
        (e.string, "wizard" if e.is_wizard else "witness", " ".join(map(str, e.witness_regions)))
        for e in report.entries]
    return doc, rows, False


def cmd_independence(ns, problem, budget):
    reports = [
        _cli.internal_independence(problem.slice, budget),
        _cli.simple_independence(problem, budget),
        _cli.strong_independence(problem, budget),
    ]
    doc = {"problem": problem.label}
    for rep in reports:
        doc[rep.kind] = entry = {
            "kind": rep.kind,
            "verdict": _verdict(rep.passed),
            "strings_checked": rep.strings_checked,
            "pairs_checked": rep.pairs_checked,
            "budget_exhausted": rep.budget_exhausted,
        }
        if rep.counterexample is not None:
            entry["counterexample"] = rep.counterexample
        if rep.separators is not None:
            entry["separators"] = dict(rep.separators)
    rows = [("check", "verdict", "strings_checked", "budget_exhausted")]
    rows += [(rep.kind, _verdict(rep.passed), rep.strings_checked, rep.budget_exhausted)
             for rep in reports]
    return doc, rows, not all(rep.passed for rep in reports)


def cmd_irreducible(ns, problem, budget):
    log = problem.logogram(budget)
    report = _cli.irreducibility_report(log, problem, budget)
    doc = {
        "problem": problem.label,
        "logogram_size": len(log),
        "irreducible": report.irreducible,
        "removable": list(report.removable),
        "removal_witnesses": report.unique_witnesses,
    }
    rows = [("string", "removal_witness")]
    rows += sorted(doc["removal_witnesses"].items())
    rows += [(s, "") for s in doc["removable"]]
    return doc, rows, not report.irreducible


def cmd_galois(ns, problem, budget):
    report = _cli.verify_galois(problem.slice, sample_count=ns.samples,
                                seed=ns.seed, budget=budget)
    doc = {
        "slice": report.slice_label,
        "seed": report.seed,
        "sample_count": report.sample_count,
        "verdict": _verdict(report.passed),
        "checks": [{"eq": c.law, "samples": c.samples, "verdict": _verdict(c.passed),
                    **({"counterexample": c.counterexample} if c.counterexample else {})}
                   for c in report.checks],
    }
    rows = [("law", "samples", "verdict")]
    rows += [(c.law, c.samples, _verdict(c.passed)) for c in report.checks]
    return doc, rows, not report.passed


def cmd_kernel(ns, problem, budget):
    programs = _cli.built_in_programs(problem)  # rejects non-clause problems
    log = problem.logogram(budget)
    L = problem.slice.length
    entries = []
    fault = None
    # the sweeps stream their dumps to scratch; PATH is opened only once all
    # have passed, so a fault or a time-out leaves whatever it held
    if ns.dump_traces:
        import tempfile
    scratch = tempfile.TemporaryFile("w+", encoding="utf-8") if ns.dump_traces else None
    with scratch or contextlib.nullcontext():
        for prog in programs:
            try:
                k = _cli.kernel(prog, problem, budget, scratch)
            except _cli.ProgramFaultError as err:
                fault = str(err)
                break
            entries.append({
                "name": prog.name,
                "kernel": k.texts(L),
                "size": len(k),
                "complete": _cli.is_complete(k, problem, budget),
                "matches_logogram": k.pairs == log.pairs,
            })
        if scratch is not None and fault is None:
            scratch.seek(0)
            with open(ns.dump_traces, "w", encoding="utf-8") as fh:
                fh.writelines(scratch)
    all_equal = len({tuple(e["kernel"]) for e in entries}) <= 1
    # a fault may mean the search missed a member, leaving the logogram incomplete
    irreducible = (fault is None or _cli.is_complete(log, problem, budget)) and \
        _cli.irreducibility_report(log, problem, budget).irreducible
    doc = {
        "problem": problem.label,
        "logogram_size": len(log),
        "logogram_irreducible": irreducible,
        "programs": entries,
        "all_equal": all_equal,
    }
    if fault:
        doc["fault"] = fault
    rows = [("program", "kernel_size", "complete", "matches_logogram")]
    rows += [(e["name"], e["size"], e["complete"], e["matches_logogram"])
             for e in entries]
    violation = bool(fault) or not all_equal or not all(
        e["complete"] and e["matches_logogram"] for e in entries)
    return doc, rows, violation


def cmd_cover(ns, problem, budget):
    report = _cli.cover(problem, budget)
    doc = {
        "problem": report.problem_label,
        "total_charts": report.total_charts,
        "region_count": report.region_count,
        "flags": {
            "multiple_containing_regions": report.multiple_containing_regions,
            "fewer_charts_than_regions": report.fewer_charts_than_regions,
        },
        "cover": [c._asdict() for c in report.charts],
    }
    rows = [("string", "expansion_size", "containing_regions"), *report.charts]
    return doc, rows, False


HANDLERS = {
    "logogram": cmd_logogram,
    "wizards": cmd_wizards,
    "independence": cmd_independence,
    "irreducible": cmd_irreducible,
    "galois": cmd_galois,
    "kernel": cmd_kernel,
    "cover": cmd_cover,
}


def _render_text(doc: dict, indent: str = "") -> str:
    lines = []
    for key, value in doc.items():
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.append(_render_text(value, indent + "  "))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{indent}{key}:")
            for item in value:  # a dict the document holds already (a slice) is left out
                cells = " ".join(_cell(k, v) for k, v in item.items()
                                 if not (isinstance(v, dict) and doc.get(k) == v))
                lines.append(f"{indent}  - {cells}")
        elif isinstance(value, list):
            lines.append(f"{indent}{key}: " + " ".join(map(str, value)))
        else:
            lines.append(f"{indent}{key}: {value}")
    return "\n".join(lines)


def _check_text_letters(letters) -> None:
    """Refuse an alphabet the text form cannot show unambiguously: it
    comma-joins nested lists and separates cells with spaces."""
    for ch in letters:
        if ch == "," or ch.isspace():
            raise ValueError(f"--format text cannot show the letter {ch!r}; use json or csv")


def _cell(key: str, value) -> str:
    """A list item's cell: a nested list comma-joined, a nested dict one dotted cell per key."""
    if isinstance(value, dict):
        return " ".join(_cell(f"{key}.{k}", v) for k, v in value.items())
    return f"{key}=" + (",".join(map(str, value)) if isinstance(value, list) else str(value))


def _emit(doc: dict, rows: list[tuple], ns) -> None:
    if ns.format == "json":
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    elif ns.format == "csv":
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = _render_text(doc) + "\n"
    if ns.out:
        with open(ns.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)  # --help may fail to write: an OSError
        # one clock for the whole subcommand, started before the problem is built
        budget = Budget(ns.budget_strings, ns.budget_seconds).start(ns.command)
        problem = _resolve_problem(ns.problem, ns.args)
        if ns.format == "text":
            _check_text_letters(problem.slice.alphabet.letters)
        doc, rows, violation = HANDLERS[ns.command](ns, problem, budget)
        _emit(doc, rows, ns)
    except SystemExit as exc:  # argparse exits 2 on usage errors; remap
        return EXIT_OK if exc.code in (0, None) else EXIT_ERROR
    except BudgetExceededError as err:
        print(f"budget exhausted: {err}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as err:  # json.JSONDecodeError is a ValueError
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_VIOLATION if violation else EXIT_OK


def run() -> None:
    """The process entry: ``main()``, exiting 1 also when stdout cannot be written."""
    code = main()
    try:
        sys.stdout.flush()
    except OSError as err:  # a full disk, or a pipe its reader closed
        print(f"error: {err}", file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # exit flushes again
        code = EXIT_ERROR
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
