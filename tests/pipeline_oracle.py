"""Reference oracle for the session's one-shot batch path.

:func:`_evaluate_workload_batch` is the monolithic pipeline body from before
:func:`repro.core.evaluate_workload` became a thin wrapper over
:class:`repro.service.EvaluationSession`: cut, enumerate, (prune), (allocate),
execute and contract in one function.  The session's batch path (and a
streaming session run to completion) must reproduce its results bit for bit,
and ``benchmarks/bench_overhead.py`` checks ``optimize_overhead="none"``
against it.  It predates the overhead optimizer, the streaming service and
dynamic definition, and still takes the engine knobs as keywords.

Importable without hypothesis, so the benchmarks can use it as a reference.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.config import CutConfig
from repro.core.pipeline import EvaluationResult, cut_circuit
from repro.cutting import CutReconstructor, SamplingExecutor, VariantExecutor
from repro.engine import (
    ALLOCATION_POLICIES,
    DeviceSpec,
    EngineConfig,
    ParallelEngine,
    PruningPolicy,
    ResultCache,
    allocate_shots,
    prune_requests,
)
from repro.exceptions import CuttingError
from repro.simulator import simulate_statevector
from repro.utils.timing import perf_clock
from repro.workloads import Workload, WorkloadKind

def _evaluate_workload_batch(
    workload: Workload,
    config: CutConfig,
    executor: Optional[VariantExecutor] = None,
    compute_reference: bool = True,
    force_ilp: bool = False,
    force_greedy: bool = False,
    engine: Optional[ParallelEngine] = None,
    engine_config: Optional[EngineConfig] = None,
    shots: Optional[int] = None,
    allocation: Optional[str] = None,
    seed: Optional[int] = None,
    pruning: Optional[object] = None,
    devices: Optional[Sequence[DeviceSpec]] = None,
    routing: Optional[str] = None,
) -> EvaluationResult:
    """The pre-service monolithic pipeline body, kept verbatim as a test oracle.

    :func:`evaluate_workload` now delegates to
    :class:`repro.service.EvaluationSession`; the regression suite pins the
    session's batch path bit-identical to this original implementation.  Not
    public API — prefer :func:`evaluate_workload`.
    """
    if workload.kind == WorkloadKind.PROBABILITY and config.enable_gate_cuts:
        raise CuttingError(
            "gate cutting cannot be used for probability-vector workloads (Section 2.3.2)"
        )
    if engine is not None and (executor is not None or engine_config is not None):
        raise CuttingError(
            "pass either a prebuilt engine or executor/engine_config, not both"
        )
    if seed is not None and (engine is not None or executor is not None):
        raise CuttingError(
            "seed only applies to the SamplingExecutor evaluate_workload builds "
            "itself; seed a supplied executor/engine at construction instead"
        )
    if engine is not None and (devices is not None or routing is not None):
        raise CuttingError(
            "devices/routing configure the engine evaluate_workload builds "
            "itself; a supplied engine carries its own farm (set "
            "EngineConfig(devices=..., routing=...) when constructing it)"
        )
    resolved_config = engine.config if engine is not None else (engine_config or EngineConfig())
    if devices is None:
        devices = resolved_config.devices
    if routing is not None and devices is None:
        raise CuttingError("routing needs devices (a farm to route onto)")
    if shots is None:
        shots = resolved_config.shots
    if allocation is None:
        allocation = resolved_config.allocation
    if allocation not in ALLOCATION_POLICIES:
        raise CuttingError(
            f"allocation must be one of {ALLOCATION_POLICIES}, got {allocation!r}"
        )
    if pruning is None:
        pruning = resolved_config.pruning
    pruning_policy = PruningPolicy.resolve(pruning)
    if seed is not None and shots is None:
        raise CuttingError(
            "seed seeds the finite-shot SamplingExecutor and needs shots "
            "(exact evaluation has nothing to seed)"
        )
    owns_engine = engine is None
    if engine is None:
        if executor is None and shots is not None:
            # cache_size applies to the executor built here, mirroring the
            # engine's own default-executor branch below.
            executor = SamplingExecutor(
                shots=shots, seed=seed, cache=ResultCache(resolved_config.cache_size)
            )
        build_config = engine_config or EngineConfig()
        if devices is not None:
            build_config = build_config.with_(
                devices=tuple(devices),
                routing=routing if routing is not None else build_config.routing,
            )
        # Pass executor=None through so engine_config.cache_size can size the
        # default executor's cache; an explicit executor keeps its own cache.
        engine = ParallelEngine(executor, build_config)
    if shots is not None and not hasattr(engine.executor, "set_allocation"):
        raise CuttingError(
            f"shots={shots} needs a sampling-capable executor with per-variant shot "
            f"allocation (e.g. SamplingExecutor), got {type(engine.executor).__name__}"
        )
    if shots is not None and engine.farm is not None and engine.farm.is_heterogeneous:
        # Fail before anything (pilot batches included) executes: per-device
        # backends never see the engine executor's allocation, so the budget
        # would be reported as spent without being honored.
        raise CuttingError(
            "shots cannot combine with a heterogeneous device farm (devices "
            "with noise/executor_factory run their own backends and would "
            "silently ignore the per-variant shot allocation); use devices "
            "that share the engine executor, or drop shots"
        )
    try:
        stats_before = engine.stats
        cut_start = perf_clock()
        plan = cut_circuit(
            workload.circuit, config, force_ilp=force_ilp, force_greedy=force_greedy
        )
        cut_seconds = perf_clock() - cut_start
        if engine.farm is not None:
            # Fail before enumerating anything: a plan wider than every device
            # can never execute, and the error names the shortfall.
            engine.farm.check_width(plan.max_width)
        reconstructor = CutReconstructor(
            plan.solution, specs=plan.subcircuits, engine=engine
        )
        executions_before = engine.executions
        result = EvaluationResult(plan=plan)

        # Phase one: enumerate every variant the contraction will need,
        # accumulating contraction weights in the same walk when the shot
        # allocator or the pruning pass will want them (the loop is the
        # exponential cost).
        needs_weights = not pruning_policy.is_none or (
            shots is not None and allocation in ("weighted", "variance")
        )
        weights = {} if needs_weights else None
        enumerate_start = perf_clock()
        if workload.kind == WorkloadKind.EXPECTATION:
            batch = reconstructor.enumerate_expectation_requests(
                workload.observable, weights_out=weights
            )
        else:
            batch = reconstructor.enumerate_probability_requests(weights_out=weights)
        enumerate_seconds = perf_clock() - enumerate_start

        # Optional truncated contraction: drop the small-weight tail before
        # anything executes; allocation and execution see only the survivors.
        missing_mode = "execute"
        prune_seconds = 0.0
        if not pruning_policy.is_none:
            prune_start = perf_clock()
            batch, pruning_report = prune_requests(batch, weights, pruning_policy)
            result.pruning_report = pruning_report
            missing_mode = "skip"
            prune_seconds = perf_clock() - prune_start

        # Optional shot allocation (finite-shot evaluation only).
        allocate_seconds = 0.0
        execute_seconds = 0.0
        if shots is not None:
            allocate_start = perf_clock()
            shot_allocation = allocate_shots(
                batch, shots, allocation, weights=weights, engine=engine
            )
            engine.apply_allocation(shot_allocation)
            result.shot_allocation = shot_allocation
            # The pilot batch (variance policy) is execution, not allocation math.
            execute_seconds += shot_allocation.pilot_seconds
            allocate_seconds = (
                perf_clock() - allocate_start - shot_allocation.pilot_seconds
            )

        # Execute the batch; timing comes from this call itself, never from
        # deltas of the engine's lifetime counters (those are inflated by
        # concurrent batches when an engine is shared across threads).
        table, batch_seconds = engine.run_batch_timed(batch)
        execute_seconds += batch_seconds

        # Phase two: contract over the results table (no execution inside).
        # Under pruning the table is partial and missing variants contribute
        # exactly zero ("skip"); otherwise any straggler executes on demand.
        contract_start = perf_clock()
        if workload.kind == WorkloadKind.EXPECTATION:
            result.expectation_value = reconstructor.reconstruct_expectation(
                workload.observable, table=table, missing=missing_mode
            )
        else:
            result.probabilities = reconstructor.reconstruct_probabilities(
                table=table, missing=missing_mode
            )
        contract_seconds = perf_clock() - contract_start
        result.contraction_report = reconstructor.last_contraction_report

        reference_seconds = 0.0
        if compute_reference:
            reference_start = perf_clock()
            if workload.kind == WorkloadKind.EXPECTATION:
                result.reference_expectation = simulate_statevector(
                    workload.circuit
                ).expectation(workload.observable)
            else:
                result.reference_probabilities = simulate_statevector(
                    workload.circuit
                ).probabilities()
            reference_seconds = perf_clock() - reference_start
        reconstruct_seconds = enumerate_seconds + contract_seconds
        result.num_variant_evaluations = engine.executions - executions_before
        # Per-call delta: on a shared engine, lifetime counters would conflate
        # unrelated workloads (the cumulative view stays on engine.stats).
        result.engine_stats = engine.stats.since(stats_before)
        result.timings = {
            "cut": cut_seconds,
            "execute": execute_seconds,
            "reconstruct": reconstruct_seconds,
            "total": cut_seconds
            + execute_seconds
            + reconstruct_seconds
            + allocate_seconds
            + prune_seconds
            + reference_seconds,
        }
        # Break reconstruct's contraction half into its planned stages; the
        # "reconstruct" key above stays the enumerate + contract wall so the
        # "total" identity is unchanged.
        report = result.contraction_report
        if report is not None:
            result.timings["plan"] = report.plan_seconds
            result.timings["contract"] = report.contract_seconds
            result.timings["merge"] = report.merge_seconds
        if shots is not None:
            result.timings["allocate"] = allocate_seconds
        if not pruning_policy.is_none:
            result.timings["prune"] = prune_seconds
        if compute_reference:
            result.timings["reference"] = reference_seconds
        return result
    finally:
        if shots is not None:
            # Never leave a per-evaluation allocation applied to a (possibly
            # shared) engine: later batches would sample stale per-variant
            # counts.  result.engine_stats above snapshotted the policy first.
            engine.clear_allocation()
        if owns_engine:
            engine.close()
