"""Derive the finite-shot tolerances in ``tolerances.json``.

Runs every finite-shot request once per calibration seed and sets each
label's tolerance to the mean of its error plus six standard deviations.
The calibration seeds are reserved: benchmark runs do not use them.

    python3 perfbench/calibrate.py            # about 4 minutes on 2 cores
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from check import TOLERANCE_FILE, error, references  # noqa: E402
from execute import run_pass  # noqa: E402
from workloads import make_inputs  # noqa: E402

CALIBRATION_SEEDS = range(1_000_000, 1_000_016)
FINITE_SHOT_WORKLOADS = ("shots-mixed", "service-stream")
SIGMAS = 6.0


def main() -> int:
    errors: dict = {}
    for workload in FINITE_SHOT_WORKLOADS:
        for seed in CALIBRATION_SEEDS:
            inputs = make_inputs(workload, seed)
            refs = references(inputs)
            seen = set()
            for outcome in run_pass(inputs).outcomes:
                if outcome.result is None:
                    print(f"{workload} seed {seed} {outcome.label}: {outcome.error}", file=sys.stderr)
                    return 1
                # A repeated session returns the cached, identical result.
                if outcome.label in seen:
                    continue
                seen.add(outcome.label)
                errors.setdefault(outcome.label, []).append(
                    error(outcome.result, refs[outcome.label])
                )
            print(f"{workload} seed {seed} done", flush=True)
    table = {}
    for label, values in sorted(errors.items()):
        mean, stdev = statistics.fmean(values), statistics.stdev(values)
        table[label] = {
            "tolerance": mean + SIGMAS * stdev,
            "mean": mean,
            "stdev": stdev,
            "max": max(values),
            "seeds": [CALIBRATION_SEEDS.start, CALIBRATION_SEEDS.stop - 1],
        }
    with open(TOLERANCE_FILE, "w") as handle:
        json.dump(table, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(table, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
