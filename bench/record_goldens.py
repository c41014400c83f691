#!/usr/bin/env python3
"""Record the golden CLI outputs the benchmark compares against.

    python3 bench/record_goldens.py

Runs every seed-independent analysis of every workload once and writes its
standard output to ``bench/golden``. An analysis that exits non-zero, or a
``sat`` report that contradicts the closed-form reduced logogram, is
refused and nothing is written for it. Output is meant to stay byte for
byte the same across commits, so re-recording is only for a deliberate
change of the report format.
"""

from __future__ import annotations

import json
import sys
import time

from run import (GOLDEN, WORKLOADS, golden_agrees_with_closed_form, golden_name,
                 import_program, predicted_strings, prepare_outputs, run_cli)


def main() -> int:
    lg = import_program()
    prepare_outputs()
    GOLDEN.mkdir(parents=True, exist_ok=True)
    refused = 0
    for workload, analyses in WORKLOADS.items():
        if workload == "galois-sample":
            continue
        for argv in analyses:
            wall, _, code, out = run_cli(argv, time.perf_counter() + 600)
            predicted = predicted_strings(lg, argv)
            if code != 0 or (predicted is not None and not golden_agrees_with_closed_form(
                    json.loads(out), argv[0], predicted)):
                print(f"refused {' '.join(argv)} (exit {code})", file=sys.stderr)
                refused += 1
                continue
            (GOLDEN / golden_name(argv)).write_bytes(out)
            print(f"{wall:7.2f} s  {' '.join(argv)}")
    return 1 if refused else 0


if __name__ == "__main__":
    sys.exit(main())
