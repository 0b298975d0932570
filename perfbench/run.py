"""End-to-end benchmark of the cut -> enumerate -> execute -> contract pipeline.

    python3 perfbench/run.py --workload exact-prob --seed 1 --seconds 32 --trace 0

Run from the root of a checkout.  One process runs one workload: it builds the
inputs from ``--seed``, times the set-up, computes uncut references, then
repeats the workload's request list (one "pass", with fresh engines) for
``--seconds``.  The first pass is a warm-up: it is checked but not timed into
the metrics.  A pass starts only when the median pass so far still fits in the
window, and there are always at least ``MIN_PASSES``.  The run pins itself to
the CPUs its workload computes on, and every time metric is reported at
reference machine speed, traced by a sampler process on each of those CPUs
(``speed.py``).  The run prints a table of every metric, reported and
measured, then, as its last line, one JSON object with the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``).  With ``--trace 1``
untraced and traced passes alternate, so the tracing overhead and the
bit-identity of traced results can be stated.  Run details, and the spans of
a traced run, go to ``perfbench/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS_DIR = os.path.join(HERE, "results")

#: Fresh-interpreter set-ups timed per run; ``setup_s`` is their median.
SETUP_PROBES = 3
#: Passes a run makes even when they outlast ``--seconds``: the warm-up, one
#: timed untraced pass and, with ``--trace 1``, one traced pass.
MIN_PASSES = {0: 2, 1: 3}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "request_p50_s": "s",
    "peak_rss_mb": "MB",
    "variants_executed": "count",
    "total_cuts": "count",
}


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_seconds(workload: str, seed: int) -> List[Tuple[float, float, float]]:
    """``SETUP_PROBES`` set-ups, each in a fresh interpreter.

    Returns, per set-up, when its interpreter started and ended, and the
    set-up's own measured seconds.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        probe = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"),
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        samples.append((start, time.perf_counter(), float(probe.stdout.split()[-1])))
    return samples


def reap_children() -> None:
    """Wait for worker processes the engines started and shut down unjoined."""
    for child in multiprocessing.active_children():
        child.join(timeout=30)


def environment(cpus: List[int], pinned: List[int]) -> Dict[str, Any]:
    import networkx
    import numpy
    import scipy

    return {
        "nproc": len(cpus),
        "pinned_cpus": pinned,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------- metrics
def _results(record: Any) -> List[Any]:
    return [o.result for o in record.outcomes if o.result is not None]


def end_to_end(
    records: List[Any], latencies: List[List[float]], setups: List[float]
) -> Dict[str, float]:
    """End-to-end numbers of the timed untraced passes.

    ``latencies`` holds each pass's request seconds and ``setups`` the set-up
    seconds, both measured or both at reference speed.  ``wall_s`` is the
    time to complete the request list once, taken as the sum over its
    requests of each request's median latency across passes.
    """
    def per_pass(value) -> float:
        return statistics.median(sum(value(r) for r in _results(rec)) for rec in records)

    by_request = list(zip(*latencies))
    return {
        "setup_s": statistics.median(setups),
        "wall_s": sum(statistics.median(column) for column in by_request),
        "request_p50_s": statistics.median(s for column in by_request for s in column),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "variants_executed": per_pass(lambda r: r.engine_stats.unique_executions),
        "total_cuts": per_pass(lambda r: r.plan.num_cuts),
        "shots_spent": per_pass(lambda r: r.shots_spent),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def cross_check(tracer: Any, record: Any) -> Dict[str, Dict[str, float]]:
    """Outside spans against the program's own ``EvaluationResult.timings``.

    ``reconstruct`` has no outside span of its own: the program's key sums
    enumeration, streaming folds and the final contraction, which the outside
    spans time as ``cutting.enumerate``, ``service.fold`` and
    ``cutting.contract``.
    """
    timings = [result.timings for result in _results(record)]

    def inside(key: str) -> float:
        return sum(timing.get(key, 0.0) for timing in timings)

    return {
        "cut": {"outside": tracer.total("core.cut"), "inside": inside("cut")},
        "execute": {"outside": tracer.total("engine.execute"), "inside": inside("execute")},
        "contract": {"outside": tracer.total("cutting.contract"), "inside": inside("contract")},
        "reconstruct": {
            "outside_enumerate": tracer.total("cutting.enumerate"),
            "inside": inside("reconstruct"),
        },
    }


def layer_metrics(tracer: Any, record: Any) -> Dict[str, float]:
    """Per-layer numbers of one traced pass."""
    t = tracer
    own = t.self_times()
    requests = t.attr_sum("cutting.enumerate", "requests")
    unique = t.attr_sum("cutting.enumerate", "unique")
    looked_up = t.attr_sum("engine.execute", "requests") - t.attr_sum("engine.execute", "dedup_hits")
    cache_hits = t.attr_sum("engine.execute", "cache_hits")
    xcheck = cross_check(tracer, record)

    def gap(stage: str) -> float:
        return abs(xcheck[stage]["outside"] - xcheck[stage]["inside"])

    return {
        "service.prepare_s": own.get("service.prepare", 0.0),
        "service.step_s": own.get("service.step", 0.0),
        "service.finish_s": own.get("service.finish", 0.0),
        "service.rounds": t.count("service.step"),
        "service.fold_s": t.total("service.fold"),
        "core.cut_s": t.total("core.cut"),
        "core.cut_calls": t.count("core.cut"),
        "cutting.enumerate_s": t.total("cutting.enumerate"),
        "cutting.requests_enumerated": requests,
        "cutting.unique_variants": unique,
        "cutting.enumerate_useful_ratio": _ratio(unique, requests),
        "cutting.optimize_s": t.total("cutting.optimize"),
        "cutting.contract_s": t.total("cutting.contract"),
        "engine.execute_s": own.get("engine.execute", 0.0),
        "engine.batches": t.attr_sum("engine.execute", "batches"),
        "engine.dedup_hits": t.attr_sum("engine.execute", "dedup_hits"),
        "engine.cache_hits": cache_hits,
        "engine.cache_hit_ratio": _ratio(cache_hits, looked_up),
        "engine.allocate_s": own.get("engine.allocate", 0.0),
        "engine.pilot_s": t.pilot_seconds(),
        "xcheck.cut_gap_s": gap("cut"),
        "xcheck.execute_gap_s": gap("execute"),
        "xcheck.contract_gap_s": gap("contract"),
        "xcheck.reconstruct_enumerate_share": _ratio(
            xcheck["reconstruct"]["outside_enumerate"], xcheck["reconstruct"]["inside"]
        ),
    }


LAYER_UNITS = {
    name: ("s" if name.endswith("_s") else "ratio" if "ratio" in name or "share" in name else "count")
    for name in (
        "service.prepare_s", "service.step_s", "service.finish_s", "service.rounds",
        "service.fold_s", "core.cut_s", "core.cut_calls", "cutting.enumerate_s",
        "cutting.requests_enumerated", "cutting.unique_variants",
        "cutting.enumerate_useful_ratio", "cutting.optimize_s", "cutting.contract_s",
        "engine.execute_s", "engine.batches", "engine.dedup_hits", "engine.cache_hits",
        "engine.cache_hit_ratio", "engine.allocate_s", "engine.pilot_s",
        "xcheck.cut_gap_s", "xcheck.execute_gap_s", "xcheck.contract_gap_s",
        "xcheck.reconstruct_enumerate_share", "trace.overhead_s", "shots_spent",
        "failed_share",
    )
}


def profile(tracer: Any, record: Any) -> Dict[str, float]:
    """Share of one traced pass's request time spent in each span's self time."""
    busy = record.request_seconds
    shares = {name: sec / busy for name, sec in sorted(tracer.self_times().items())}
    shares["other"] = 1.0 - sum(shares.values())
    return shares


def measure(
    args: argparse.Namespace, inputs: Any, run_pass: Any, tracer_type: Any, verdicts: Any
) -> Tuple[List[Tuple[Optional[Any], Any]], List[List[float]]]:
    """Run passes for ``args.seconds``; return each pass with its tracer (or
    ``None``) and, per pass and request, when the request started."""
    passes: List[Tuple[Optional[Any], Any]] = []
    starts: List[List[float]] = []
    deadline = time.perf_counter() + args.seconds

    def next_pass_fits() -> bool:
        typical = statistics.median(record.seconds for _, record in passes)
        return time.perf_counter() + typical <= deadline

    while len(passes) < MIN_PASSES[args.trace] or next_pass_fits():
        tracer = tracer_type() if args.trace and len(passes) % 2 == 1 else None
        starts.append([])

        def before_request(label: str) -> None:
            # Engines shut their pools down without waiting: let the last
            # request's workers exit before the next request starts.
            reap_children()
            if tracer is not None:
                tracer.start_request(label)
            starts[-1].append(time.perf_counter())

        if tracer is not None:
            tracer.install()
        try:
            record = run_pass(inputs, before_request)
        finally:
            if tracer is not None:
                tracer.uninstall()
        verdicts.judge(len(passes), record)
        passes.append((tracer, record))
    reap_children()
    return passes, starts


def medians(rows: List[Dict[str, float]]) -> Dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


# ---------------------------------------------------------------------- main
def main(argv: List[str]) -> int:
    args = parse_args(argv)
    # One BLAS thread per process, set before numpy loads: the only
    # parallelism measured is the engine's worker pool, and the run pins
    # itself to as many CPUs as that pool has workers.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no program source under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS, make_inputs

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of {WORKLOADS}", file=sys.stderr)
        return 2

    from check import Verdicts, load_tolerances, references
    from execute import run_pass
    from spans import Tracer
    from speed import PERIOD_S, REFERENCE_SECONDS, SpeedTrace, pin

    cpus = sorted(os.sched_getaffinity(0))
    inputs = make_inputs(args.workload, args.seed)
    run_cpus = cpus[: inputs.workers]
    speed = SpeedTrace(run_cpus)
    try:
        speed.start()
        # Set-up is serial: it runs on the first CPU.
        pin(cpus[:1])
        setups = setup_seconds(args.workload, args.seed)
        pin(run_cpus)
        verdicts = Verdicts(references(inputs), load_tolerances())
        passes, starts = measure(args, inputs, run_pass, Tracer, verdicts)
    finally:
        speed.stop()

    untraced = [i for i, (tracer, _) in enumerate(passes) if tracer is None]
    traced = [i for i, (tracer, _) in enumerate(passes) if tracer is not None]
    verdicts.require_identical(traced, untraced)
    timed = untraced[1:]  # pass 0 is the warm-up

    measured_latencies = [[r.seconds for r in record.requests] for _, record in passes]
    factors = [
        [speed.factor(t, t + sec, run_cpus) for t, sec in zip(pass_starts, row)]
        for pass_starts, row in zip(starts, measured_latencies)
    ]
    latencies = [
        [seconds * factor for seconds, factor in zip(row, row_factors)]
        for row, row_factors in zip(measured_latencies, factors)
    ]
    setup_factors = [speed.factor(t0, t1, cpus[:1]) for t0, t1, _ in setups]
    timed_records = [passes[i][1] for i in timed]
    measured = end_to_end(
        timed_records, [measured_latencies[i] for i in timed], [sec for _, _, sec in setups]
    )
    e2e = end_to_end(
        timed_records,
        [latencies[i] for i in timed],
        [sec * factor for (_, _, sec), factor in zip(setups, setup_factors)],
    )
    report: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(cpus, run_cpus),
        "speed": {
            "reference_seconds": REFERENCE_SECONDS,
            "period_s": PERIOD_S,
            "kernel_samples": {cpu: samples for cpu, samples in speed.samples.items()},
            "setup_factors": setup_factors,
            "request_factors": factors,
        },
        "passes": [
            {"traced": t is not None, "warm_up": i == 0, "wall_s": rec.seconds,
             "request_s": measured_latencies[i], "request_start": starts[i]}
            for i, (t, rec) in enumerate(passes)
        ],
        "digests": verdicts.pass_digests,
        "failures": {f"{i}:{r}": reason for (i, r), reason in verdicts.failures.items()},
        "end_to_end_measured": measured,
        "end_to_end": e2e,
    }
    if args.trace:
        rows, measured_rows = [], []
        for i in traced:
            row = layer_metrics(passes[i][0], passes[i][1])
            measured_rows.append(dict(row))
            end = starts[i][-1] + measured_latencies[i][-1]
            factor = speed.factor(starts[i][0], end, run_cpus)
            rows.append({k: v * factor if LAYER_UNITS[k] == "s" else v for k, v in row.items()})
        layers = medians(rows)
        report["per_layer_measured"] = medians(measured_rows)
        layers["trace.overhead_s"] = statistics.median(
            sum(latencies[i]) for i in traced
        ) - statistics.median(sum(latencies[i]) for i in timed)
        report["per_layer_measured"]["trace.overhead_s"] = statistics.median(
            sum(measured_latencies[i]) for i in traced
        ) - statistics.median(sum(measured_latencies[i]) for i in timed)
        layers["shots_spent"] = e2e["shots_spent"]
        layers["failed_share"] = _ratio(verdicts.failed, verdicts.attempted)
        report["per_layer"] = layers
        report["cross_check"] = [cross_check(passes[i][0], passes[i][1]) for i in traced]
        report["profile"] = medians([profile(passes[i][0], passes[i][1]) for i in traced])
        metrics = {name: {"value": layers[name], "unit": LAYER_UNITS[name]} for name in LAYER_UNITS}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}

    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = os.path.join(RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as handle:
        json.dump(report, handle, indent=2, default=str)
    if args.trace:
        with open(stem + "-spans.json", "w") as handle:
            json.dump({i: passes[i][0].as_records() for i in traced}, handle)

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  env {report['environment']}")
    all_factors = [f for row in factors for f in row]
    for cpu, samples in sorted(speed.samples.items()):
        kernel = statistics.median(sec for _, sec in samples)
        print(f"speed: CPU {cpu} {len(samples)} kernel timings, median {kernel:.6f} s")
    print(
        f"speed: reference {REFERENCE_SECONDS} s; request factors {min(all_factors):.3f} "
        f"to {max(all_factors):.3f}, median {statistics.median(all_factors):.3f}"
    )
    for i, digests in enumerate(verdicts.pass_digests):
        kind = "warm-up" if i == 0 else "traced" if i in traced else "untraced"
        print(f"pass {i} {kind} {passes[i][1].seconds:.3f} s digests {' '.join(digests)}")
    for (i, r), reason in sorted(verdicts.failures.items()):
        print(f"FAILED pass {i} request {r}: {reason}")
    for stage, values in (report["cross_check"][0].items() if args.trace else ()):
        print(f"cross-check {stage:12s} " + "  ".join(f"{k} {v:.4f} s" for k, v in values.items()))
    for name, share in (report["profile"].items() if args.trace else ()):
        print(f"profile {name:20s} {share:6.1%} of traced pass request time (self)")
    table = {name: (value, END_TO_END_UNITS.get(name, "count")) for name, value in e2e.items()}
    table["failed_share"] = (_ratio(verdicts.failed, verdicts.attempted), "ratio")
    table.update((name, (metric["value"], metric["unit"])) for name, metric in metrics.items())
    raw = dict(measured, **report.get("per_layer_measured", {}))
    for name, (value, unit) in table.items():
        note = f"  (measured {raw[name]!r} s)" if unit == "s" else ""
        print(f"{name:36s} {value!r} {unit}{note}")
    print(json.dumps({
        "correct": verdicts.failed == 0,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
