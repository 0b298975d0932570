#!/usr/bin/env python
"""Gate CI on the benchmark results: fail when performance or accuracy regresses.

Every ``--smoke`` benchmark archives its table under ``benchmarks/results/*.json``.
This tool distils those tables into a small set of machine-robust metrics
(speedup *ratios* measured in-process, reconstruction errors, executed-variant
reductions — never absolute wall-clock, which CI hardware makes meaningless),
writes them as a consolidated ``benchmarks/results/summary.json``, and compares
them against the committed ``benchmarks/baseline.json``:

* a ``higher_is_better`` metric fails when it drops below
  ``baseline * (1 - tolerance)``;
* a lower-is-better metric fails when it exceeds
  ``baseline * (1 + tolerance) + atol`` (``atol`` absorbs noise around zero);
* a metric present in the baseline but missing from the results fails — a
  benchmark that silently stops publishing is itself a regression.

Typical use (exactly what the ``bench-gate`` CI job runs)::

    python tools/check_bench_regression.py

Refresh the baseline after an intentional performance change::

    python tools/check_bench_regression.py --update-baseline
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_RESULTS = REPO_ROOT / "benchmarks" / "results"
DEFAULT_BASELINE = REPO_ROOT / "benchmarks" / "baseline.json"
DEFAULT_SUMMARY = DEFAULT_RESULTS / "summary.json"

#: Default tolerances when bootstrapping a baseline with --update-baseline.
PERF_TOLERANCE = 0.30  # speedup ratios: generous, CI boxes vary in core count
ERROR_TOLERANCE = 0.50  # statistical error metrics across seeds
ERROR_ATOL = 1e-6  # absolute slack for metrics that sit at ~0


def _rows(results_dir: Path, name: str) -> Optional[List[Dict]]:
    path = results_dir / f"{name}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())["rows"]


def collect_metrics(results_dir: Path) -> Dict[str, Dict]:
    """Extract the gated metrics from whichever result tables exist.

    Returns ``name -> {"value": float, "higher_is_better": bool}``.
    """
    metrics: Dict[str, Dict] = {}

    def put(name: str, value: float, higher_is_better: bool) -> None:
        metrics[name] = {"value": round(float(value), 6), "higher_is_better": higher_is_better}

    rows = _rows(results_dir, "batched")
    if rows:
        # Worst-over-workloads of the best large-batch speedup: the headline
        # vectorization claim (>= 5x at batch >= 16, measured in-process).
        per_workload = {}
        for row in rows:
            if row["batch_cap"] >= 16:
                per_workload.setdefault(row["workload"], []).append(row["speedup"])
        put(
            "batched.min_speedup_large_batch",
            min(max(values) for values in per_workload.values()),
            higher_is_better=True,
        )
        put(
            "batched.bit_identical",
            float(all(row["identical"] for row in rows)),
            higher_is_better=True,
        )

    rows = _rows(results_dir, "batched_sampling")
    if rows:
        # Finite-shot sampling on the batched walk vs the scalar oracle:
        # slowest workload's speedup, and bit-identity on every workload.
        put(
            "batched.sampling_min_speedup",
            min(row["speedup"] for row in rows),
            higher_is_better=True,
        )
        put(
            "batched.sampling_bit_identical",
            float(all(row["identical"] for row in rows)),
            higher_is_better=True,
        )

    rows = _rows(results_dir, "engine")
    if rows:
        put(
            "engine.serial_parallel_identical",
            float(all(row["identical_to_serial"] for row in rows)),
            higher_is_better=True,
        )
        batched_rows = [row for row in rows if row.get("executor") == "batched"]
        if batched_rows:
            put(
                "engine.batched_identical_to_exact",
                float(all(row["identical_to_exact"] for row in batched_rows)),
                higher_is_better=True,
            )
            put(
                "engine.batched_speedup_vs_scalar",
                max(row["speedup_vs_scalar"] for row in batched_rows),
                higher_is_better=True,
            )
        first = rows[0]
        put(
            "engine.dedup_ratio",
            first["requests"] / max(1, first["unique_variants"]),
            higher_is_better=True,
        )

    rows = _rows(results_dir, "pruning")
    if rows:
        put(
            "pruning.bound_holds",
            float(all(row["bound_holds"] for row in rows)),
            higher_is_better=True,
        )
        pruned = [row for row in rows if row["prune_fraction"] > 0]
        if pruned:
            put(
                "pruning.best_reduction_factor",
                max(row["reduction_factor"] for row in pruned),
                higher_is_better=True,
            )
            put(
                "pruning.max_added_error",
                max(row["added_error"] for row in pruned),
                higher_is_better=False,
            )

    rows = _rows(results_dir, "shots")
    if rows:
        budgets = [row["total_shots"] for row in rows]
        largest = max(budgets)
        put(
            "shots.max_error_at_max_budget",
            max(row["max_error"] for row in rows if row["total_shots"] == largest),
            higher_is_better=False,
        )

    rows = _rows(results_dir, "contraction")
    if rows:
        put(
            "contraction.bit_identical",
            float(all(row["identical"] for row in rows)),
            higher_is_better=True,
        )
        # The in-process fused-kernel claim; the sharded speedup is gated in
        # the bench's own --smoke assertions because it needs real cores.
        put(
            "contraction.best_serial_speedup",
            max(row["speedup_serial"] for row in rows),
            higher_is_better=True,
        )

    rows = _rows(results_dir, "streaming")
    if rows:
        put(
            "streaming.bit_identical",
            float(all(row["identical"] for row in rows)),
            higher_is_better=True,
        )
        # Worst-over-seeds early-termination savings: the headline streaming
        # claim (>= 2x fewer shots at equal error, gated in the bench's own
        # --smoke assertions alongside the error-at-stop bound).
        put(
            "streaming.min_shot_reduction",
            min(row["shot_reduction"] for row in rows),
            higher_is_better=True,
        )
        put(
            "streaming.max_stop_error",
            max(row["stop_error"] for row in rows),
            higher_is_better=False,
        )

    rows = _rows(results_dir, "dynamic")
    if rows:
        by_leg = {row["leg"]: row for row in rows}
        put(
            "dynamic.bit_identical",
            float(by_leg["identity"]["bit_identical"]),
            higher_is_better=True,
        )
        put(
            "dynamic.max_heavy_bin_error",
            by_leg["recovery"]["max_heavy_bin_error"],
            higher_is_better=False,
        )
        put(
            "dynamic.coverage_bound_holds",
            float(by_leg["recovery"]["coverage_bound_holds"]),
            higher_is_better=True,
        )
        put(
            "dynamic.memory_bound_holds",
            float(by_leg["wide"]["memory_bound_holds"]),
            higher_is_better=True,
        )
        put(
            "dynamic.min_covered_mass",
            by_leg["wide"]["covered_mass"],
            higher_is_better=True,
        )

    rows = _rows(results_dir, "overhead")
    if rows:
        identity = [row for row in rows if row["leg"] == "identity"]
        reduction = [row for row in rows if row["leg"] == "reduction"]
        if identity:
            put(
                "overhead.bit_identical_off",
                float(all(row["identical"] for row in identity)),
                higher_is_better=True,
            )
        if reduction:
            # Worst-over-workloads realized shot saving at equal reconstruction
            # error: the headline optimizer claim (>= 2x, gated in the bench's
            # own --smoke assertions alongside the model-overhead reduction).
            put(
                "overhead.min_shot_reduction",
                min(row["shot_reduction"] for row in reduction),
                higher_is_better=True,
            )

    rows = _rows(results_dir, "devices")
    if rows:
        reach = [row["n"] for row in rows if row.get("reuse") and row.get("status") == "ok"]
        if reach:
            put("devices.reuse_reach_qubits", max(reach), higher_is_better=True)

    return metrics


def check(metrics: Dict[str, Dict], baseline: Dict[str, Dict]) -> List[str]:
    """Compare current metrics against the baseline; return failure messages."""
    failures: List[str] = []
    for name, spec in sorted(baseline.items()):
        reference = float(spec["value"])
        tolerance = float(spec.get("tolerance", 0.0))
        atol = float(spec.get("atol", 0.0))
        current = metrics.get(name)
        if current is None:
            failures.append(f"{name}: missing from results (benchmark not published?)")
            continue
        value = float(current["value"])
        if spec.get("higher_is_better", True):
            floor = reference * (1.0 - tolerance) - atol
            if value < floor:
                failures.append(
                    f"{name}: {value:.4g} regressed below {floor:.4g} "
                    f"(baseline {reference:.4g}, tolerance {tolerance:.0%})"
                )
        else:
            ceiling = reference * (1.0 + tolerance) + atol
            if value > ceiling:
                failures.append(
                    f"{name}: {value:.4g} regressed above {ceiling:.4g} "
                    f"(baseline {reference:.4g}, tolerance {tolerance:.0%})"
                )
    return failures


def bootstrap_baseline(
    metrics: Dict[str, Dict], previous: Optional[Dict[str, Dict]] = None
) -> Dict[str, Dict]:
    """A refreshed baseline from the current metrics.

    Metric *values* always come from the current results; per-metric
    ``tolerance``/``atol`` are **preserved from the existing baseline** when one
    is given — a routine ``--update-baseline`` refresh must never silently
    loosen a hand-tightened gate.  Default tolerances apply only to metrics the
    previous baseline did not know about.
    """
    previous = previous or {}
    baseline: Dict[str, Dict] = {}
    for name, current in sorted(metrics.items()):
        value = current["value"]
        higher = current["higher_is_better"]
        spec: Dict[str, object] = {"value": value, "higher_is_better": higher}
        if name in previous:
            spec["tolerance"] = previous[name].get("tolerance", 0.0)
            if "atol" in previous[name]:
                spec["atol"] = previous[name]["atol"]
        elif name.endswith(
            ("identical", "bit_identical", "bit_identical_off", "bound_holds", "identical_to_exact")
        ):
            spec["tolerance"] = 0.0  # booleans: any flip is a failure
        elif "error" in name:
            spec["tolerance"] = ERROR_TOLERANCE
            spec["atol"] = ERROR_ATOL
        else:
            spec["tolerance"] = PERF_TOLERANCE
        baseline[name] = spec
    return baseline


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--results", type=Path, default=DEFAULT_RESULTS)
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    parser.add_argument("--summary", type=Path, default=None)
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline from the current results instead of gating on it",
    )
    args = parser.parse_args(argv)
    summary_path = args.summary or (args.results / "summary.json")

    metrics = collect_metrics(args.results)
    if not metrics:
        print(f"no benchmark results found under {args.results}", file=sys.stderr)
        return 2
    summary_path.parent.mkdir(parents=True, exist_ok=True)
    summary_path.write_text(json.dumps({"metrics": metrics}, indent=2) + "\n")
    print(f"wrote {summary_path} ({len(metrics)} metric(s))")
    for name, current in sorted(metrics.items()):
        direction = "max" if current["higher_is_better"] else "min"
        print(f"  {name} = {current['value']} ({direction}imise)")

    if args.update_baseline:
        previous = None
        if args.baseline.exists():
            previous = json.loads(args.baseline.read_text()).get("metrics")
        baseline = bootstrap_baseline(metrics, previous)
        args.baseline.write_text(json.dumps({"metrics": baseline}, indent=2) + "\n")
        print(f"baseline rewritten: {args.baseline}")
        return 0

    if not args.baseline.exists():
        print(
            f"baseline {args.baseline} does not exist; run with --update-baseline "
            "to bootstrap it",
            file=sys.stderr,
        )
        return 2
    baseline = json.loads(args.baseline.read_text())["metrics"]
    failures = check(metrics, baseline)
    if failures:
        print(f"benchmark regression gate FAILED ({len(failures)} problem(s)):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"benchmark regression gate passed ({len(baseline)} metric(s) checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
