"""Time one set-up of a workload in a fresh interpreter and print the seconds.

Set-up is importing ``repro``, generating the workload's inputs and building
its shared engine, if it has one.  ``run.py`` starts this several times and
reports the median as ``setup_s``.

    python3 perfbench/setup_probe.py --workload exact-prob --seed 1
"""

from __future__ import annotations

import argparse
import os
import sys
import time


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    sys.path.insert(0, here)

    start = time.perf_counter()
    from workloads import make_inputs

    inputs = make_inputs(args.workload, args.seed)
    engine = inputs.build_engine()
    seconds = time.perf_counter() - start
    if engine is not None:
        engine.close()
    print(repr(seconds))


if __name__ == "__main__":
    main()
