"""The batched, parallel variant-execution engine.

:class:`ParallelEngine` sits between reconstruction and the executors.  The
reconstructor *enumerates* every subcircuit variant its contraction will need and
hands the whole batch over; the engine dedups the batch by fingerprint, satisfies
repeats from the shared LRU cache, and dispatches the remaining unique requests —
serially in-process when ``max_workers == 1``, otherwise chunked across a
``concurrent.futures`` pool (processes by default, threads on request).  With a
device farm configured (:mod:`repro.engine.devices`), each unique request is
first routed to a device whose qubit capacity fits the variant's post-reuse
width; device lanes bound per-device concurrency and feed the utilization
report.

Determinism is a hard guarantee: stochastic executors are seeded per request from
the request fingerprint (see :func:`repro.engine.requests.seed_from_fingerprint`),
so a batch produces bit-identical results regardless of worker count, chunking or
completion order.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import Executor as _PoolBase
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .cache import ResultCache
from .config import EngineConfig
from .devices import DeviceFarm, DeviceUtilization
from .requests import VariantResult
from ..utils.timing import perf_clock

__all__ = ["EngineStats", "ParallelEngine"]

#: A pending request as handed to a dispatch backend: (fingerprint, variant, seed).
PendingRequest = Tuple[str, object, Optional[Tuple[int, ...]]]


def _run_chunk(executor: Any, chunk: Sequence[PendingRequest]) -> List[Tuple[str, VariantResult]]:
    """Run one chunk on ``executor`` through its batch fast path when it has one.

    ``run_many`` lets batch-capable executors (the vectorized
    :class:`~repro.cutting.executors.BatchedExactExecutor`) evaluate a whole
    chunk in grouped passes; duck-typed executors without it fall back to the
    one-request-at-a-time protocol call.
    """
    run_many = getattr(executor, "run_many", None)
    if run_many is not None:
        return list(run_many(chunk))
    return [(key, executor.execute_variant(variant, seed=seed)) for key, variant, seed in chunk]


def _execute_chunk(
    executor_cls: Any, spawn_args: Tuple, chunk: Sequence[PendingRequest]
) -> List[Tuple[str, VariantResult]]:
    """Process-pool worker: rebuild the executor from its spawn spec, run a chunk."""
    return _run_chunk(executor_cls(*spawn_args), chunk)


def _execute_chunk_shared(
    executor: Any, chunk: Sequence[PendingRequest]
) -> List[Tuple[str, VariantResult]]:
    """Thread-pool worker: run a chunk directly on the shared executor."""
    return _run_chunk(executor, chunk)


@dataclass(frozen=True)
class EngineStats:
    """Aggregate counters of an engine's lifetime (all batches so far).

    ``unique_executions`` is the dedup-aware execution count — the single
    authoritative source for ``EvaluationResult.num_variant_evaluations``.
    ``shots_total`` / ``allocation_policy`` describe the most recently applied
    shot allocation (``None`` when the engine never ran a finite-shot batch).
    ``devices`` / ``routing`` report the device farm's per-device utilization
    and the active routing policy (``None`` without a farm).  Per-call numbers
    for one evaluation come from :meth:`since` on two snapshots.
    """

    requests: int
    unique_executions: int
    dedup_hits: int
    cache_hits: int
    batches: int
    execute_seconds: float
    cache: Dict[str, int]
    shots_total: Optional[int] = None
    allocation_policy: Optional[str] = None
    devices: Optional[Tuple[DeviceUtilization, ...]] = None
    routing: Optional[str] = None

    def row(self) -> Dict[str, object]:
        """Flat dictionary for benchmark tables."""
        row: Dict[str, object] = {
            "requests": self.requests,
            "unique_executions": self.unique_executions,
            "dedup_hits": self.dedup_hits,
            "cache_hits": self.cache_hits,
            "batches": self.batches,
            "execute_seconds": round(self.execute_seconds, 4),
        }
        if self.allocation_policy is not None:
            row["allocation_policy"] = self.allocation_policy
            row["shots_total"] = self.shots_total
        if self.routing is not None:
            row["routing"] = self.routing
        return row

    def since(self, baseline: "EngineStats") -> "EngineStats":
        """Per-call delta of this snapshot against an earlier ``baseline``.

        Monotonic counters (requests, executions, hits, batches, seconds, the
        cache's hit/miss/eviction counts, per-device utilization) are
        differenced; state descriptors (cache size/capacity, the active
        allocation policy and routing) keep this snapshot's values.  This is
        what makes one evaluation's stats meaningful on an engine shared
        across workloads — lifetime counters conflate them.
        """
        cache = dict(self.cache)
        for counter in ("hits", "misses", "evictions"):
            cache[counter] = cache.get(counter, 0) - baseline.cache.get(counter, 0)
        devices: Optional[Tuple[DeviceUtilization, ...]] = None
        if self.devices is not None:
            before = {report.name: report for report in (baseline.devices or ())}
            devices = tuple(
                report.since(before[report.name]) if report.name in before else report
                for report in self.devices
            )
        return EngineStats(
            requests=self.requests - baseline.requests,
            unique_executions=self.unique_executions - baseline.unique_executions,
            dedup_hits=self.dedup_hits - baseline.dedup_hits,
            cache_hits=self.cache_hits - baseline.cache_hits,
            batches=self.batches - baseline.batches,
            execute_seconds=self.execute_seconds - baseline.execute_seconds,
            cache=cache,
            shots_total=self.shots_total,
            allocation_policy=self.allocation_policy,
            devices=devices,
            routing=self.routing,
        )


class ParallelEngine:
    """Batched variant execution with dedup, shared caching and worker pools.

    The engine wraps a :class:`~repro.cutting.executors.VariantExecutor` backend.
    ``run_batch`` is the one entry point; single-variant convenience calls on the
    executor itself also flow through the same dedup/cache path, so counters stay
    consistent however the backend is driven.
    """

    def __init__(self, executor: Any = None, config: Optional[EngineConfig] = None) -> None:
        self._config = config or EngineConfig()
        if executor is None:
            from ..cutting.executors import BatchedExactExecutor, ExactExecutor

            cache = ResultCache(self._config.cache_size)
            if self._config.backend == "batched":
                executor = BatchedExactExecutor(cache=cache)
            else:
                executor = ExactExecutor(cache=cache)
        # A caller-supplied executor keeps whatever cache it was built with:
        # config.cache_size only sizes the cache of engine-created executors,
        # so an explicit memory bound is never silently replaced.
        self._executor = executor
        self._farm: Optional[DeviceFarm] = (
            DeviceFarm(self._config.devices, self._config.routing)
            if self._config.devices
            else None
        )
        # Heterogeneous farms change which backend a fingerprint runs on; scope
        # the executor's cache keys so those results never alias a farm-less
        # (or differently-farmed) run in a shared cache.  Always assigned —
        # including None — so an executor reused from an earlier farmed engine
        # does not carry a stale scope into this one.
        set_scope = getattr(self._executor, "set_cache_scope", None)
        if set_scope is not None:
            set_scope(None if self._farm is None else self._farm.cache_scope())
        self._pool: Optional[_PoolBase] = None
        self._pool_broken = False
        self._batches = 0
        self._execute_seconds = 0.0
        self._allocation = None  # most recently applied ShotAllocation

    # ------------------------------------------------------------------ accessors
    @property
    def executor(self) -> Any:
        return self._executor

    @property
    def config(self) -> EngineConfig:
        return self._config

    @property
    def cache(self) -> ResultCache:
        return self._executor.cache

    @property
    def farm(self) -> Optional[DeviceFarm]:
        """The device farm routing this engine's batches (None without one)."""
        return self._farm

    @property
    def executions(self) -> int:
        """Dedup-aware count of variant circuits actually executed."""
        return self._executor.executions

    @property
    def stats(self) -> EngineStats:
        allocation = self._allocation
        return EngineStats(
            requests=self._executor.requests,
            unique_executions=self._executor.executions,
            dedup_hits=self._executor.dedup_hits,
            cache_hits=self._executor.cache_hits,
            batches=self._batches,
            execute_seconds=self._execute_seconds,
            cache=self._executor.cache.stats(),
            shots_total=None if allocation is None else allocation.total_shots,
            allocation_policy=None if allocation is None else allocation.policy,
            devices=None if self._farm is None else self._farm.utilization(),
            routing=None if self._farm is None else self._farm.routing,
        )

    # ------------------------------------------------------------------ execution
    def run_batch(self, variants: Iterable) -> Dict[str, VariantResult]:
        """Execute a batch of variants; return ``fingerprint -> VariantResult``.

        The returned table covers every distinct fingerprint in ``variants``
        (deduped requests map to the single shared result).
        """
        table, _ = self.run_batch_timed(variants)
        return table

    def run_batch_timed(self, variants: Iterable) -> Tuple[Dict[str, VariantResult], float]:
        """Like :meth:`run_batch`, also returning this batch's wall-clock seconds.

        The per-batch timing is what callers should report for a single
        evaluation: deltas of the lifetime ``stats.execute_seconds`` counter are
        inflated by concurrent batches when an engine is shared across threads.
        """
        start = perf_clock()
        # A farm always routes (even serially): feasibility is checked and
        # utilization tracked regardless of worker count.
        needs_dispatch = self._farm is not None or self._effective_workers() > 1
        dispatch = self._dispatch if needs_dispatch else None
        table = self._executor.run_batch(variants, dispatch=dispatch)
        seconds = perf_clock() - start
        self._execute_seconds += seconds
        self._batches += 1
        return table, seconds

    def apply_allocation(self, allocation: Any) -> None:
        """Apply a :class:`~repro.engine.allocation.ShotAllocation` to the executor.

        The executor must be sampling-capable (expose ``set_allocation``); the
        allocation is also recorded so :attr:`stats` can report the active shot
        budget and policy.

        The allocation is mutable executor state: it stays applied until
        :meth:`clear_allocation` (or the next apply), so concurrent finite-shot
        evaluations must not share one engine — each would overwrite the
        other's per-variant counts mid-batch.
        """
        set_allocation = getattr(self._executor, "set_allocation", None)
        if set_allocation is None:
            from ..exceptions import AllocationError

            raise AllocationError(
                f"executor {type(self._executor).__name__} does not support per-variant "
                "shot allocation (use a SamplingExecutor)"
            )
        if self._farm is not None and self._farm.is_heterogeneous:
            from ..exceptions import AllocationError

            raise AllocationError(
                "per-variant shot allocation requires the farm's devices to share "
                "the engine executor; heterogeneous farms (noise/executor_factory) "
                "run their own backends, which would silently ignore the allocation"
            )
        set_allocation(allocation.shots_by_fingerprint)
        self._allocation = allocation

    def clear_allocation(self) -> None:
        """Reset the executor to its default per-variant shots (idempotent).

        Callers that apply a per-evaluation allocation must clear it afterwards
        so later batches on a shared engine don't sample at stale per-variant
        counts; no-op for executors without allocation support.
        """
        set_allocation = getattr(self._executor, "set_allocation", None)
        if set_allocation is not None:
            set_allocation(None)
        self._allocation = None

    def lookup(self, variant: Any) -> VariantResult:
        """Result for one variant, executing it on demand if it was never batched."""
        from .requests import request_key

        return self.run_batch([variant])[request_key(variant)]

    # ------------------------------------------------------------------ sharding
    @property
    def contraction_workers(self) -> int:
        """Worker budget for sharded contraction (config override or ``max_workers``)."""
        workers = self._config.contraction_workers
        if workers is None:
            return self._effective_workers()
        return max(1, workers)

    def map_shards(
        self, fn: Any, tasks: Sequence[Tuple]
    ) -> Tuple[List, bool]:
        """Run ``fn(*args)`` for every args-tuple in ``tasks``, preserving order.

        The contraction layer's sharding entry point: ``fn`` must be a plain
        picklable module-level function whose arguments carry *all* its state
        (dense NumPy tables, index maps) — shards share no memos or caches, so
        nothing leaks across the process boundary.  Work is submitted to the
        same pool batch execution uses; with one task or one contraction
        worker everything runs in-process.

        Returns ``(results, fell_back)``.  A broken pool mid-map follows the
        execute-stage semantics of :meth:`_run_tasks`: shards that completed
        are salvaged, the rest rerun serially in order, a ``RuntimeWarning``
        fires, and ``fell_back`` is ``True`` — results are identical either
        way because shards are independent and merged deterministically by the
        caller.
        """
        tasks = list(tasks)
        if len(tasks) <= 1 or self.contraction_workers <= 1:
            return [fn(*args) for args in tasks], False
        pool = self._ensure_pool()
        if pool is None:
            return [fn(*args) for args in tasks], False
        sentinel = object()
        results: List = [sentinel] * len(tasks)
        futures = []
        collected = 0
        try:
            for args in tasks:
                futures.append(pool.submit(fn, *args))
            for index, future in enumerate(futures):
                results[index] = future.result()
                collected += 1
            return results, False
        except (OSError, RuntimeError, BrokenPipeError) as error:
            if not self._config.fallback_to_serial:
                raise
            warnings.warn(
                f"sharded contraction dispatch failed ({error!r}); falling back "
                "to serial contraction with salvaged shards",
                RuntimeWarning,
                stacklevel=2,
            )
            for index in range(collected, len(futures)):
                future = futures[index]
                if not future.cancel():
                    try:
                        results[index] = future.result()
                    except Exception:
                        pass  # rerun serially below
            self._teardown_pool(broken=True)
            for index, args in enumerate(tasks):
                if results[index] is sentinel:
                    results[index] = fn(*args)
            return results, True

    # ------------------------------------------------------------------ dispatch
    def _effective_workers(self) -> int:
        workers = self._config.max_workers
        if workers is None:
            import os

            workers = os.cpu_count() or 1
        return max(1, workers)

    def _chunked(self, pending: Sequence[PendingRequest]) -> List[List[PendingRequest]]:
        size = self._config.chunk_size
        if size is None:
            size = max(1, math.ceil(len(pending) / (self._effective_workers() * 4)))
        return [list(pending[i : i + size]) for i in range(0, len(pending), size)]

    def _dispatch(
        self, executor: Any, pending: Sequence[PendingRequest]
    ) -> List[Tuple[str, VariantResult]]:
        """Run unique cache-miss requests across the worker pool (or serially).

        Without a device farm the whole batch runs on ``executor``.  With one,
        the farm first routes every request to a feasible device (raising
        :class:`~repro.exceptions.InfeasibleVariantError` when a variant is
        wider than every device); each device's lane then runs on that device's
        executor, chunked into at most ``DeviceSpec.lanes`` worker tasks so a
        device's parallelism never exceeds what its hardware could offer, and
        all devices' tasks share one worker pool (devices execute
        concurrently, like a real farm).  Lanes are built in device
        declaration order and requests keep their enumeration order inside a
        lane, so results stay bit-identical for any worker count.
        """
        if self._farm is None:
            pending = self._grouped(executor, pending)
            tasks = [(executor, chunk) for chunk in self._chunked(pending)]
            return self._run_tasks(tasks)
        allocation = self._allocation
        before = self._farm.snapshot()
        lanes = self._farm.route(
            pending,
            shots_by_fingerprint=None if allocation is None else allocation.shots_by_fingerprint,
        )
        tasks: List[Tuple[object, List[PendingRequest]]] = []
        for spec in self._farm.devices:
            lane = lanes.get(spec.name)
            if not lane:
                continue
            lane_executor = self._farm.executor_for(spec, default=executor)
            lane = self._grouped(lane_executor, lane)
            for chunk in self._chunked_lane(lane, spec):
                tasks.append((lane_executor, chunk))
        try:
            return self._run_tasks(tasks)
        except BaseException:
            # Nothing executed (or nothing was recorded — a failed dispatch
            # caches no results): utilization must not keep counts for work
            # that never ran, or retries would double-count against the
            # executor's execution counters.
            self._farm.restore(before)
            raise

    def _grouped(
        self, executor: Any, pending: Sequence[PendingRequest]
    ) -> Sequence[PendingRequest]:
        """Reorder pending requests so same-structure requests sit together.

        Batch-capable executors expose ``group_key`` (a stable structure hash of
        the variant circuit, keyed off the same parsed skeleton their
        ``run_many`` groups by); sorting the batch by first-seen group before
        chunking keeps each worker chunk dominated by one structure, so the
        vectorized fast path survives parallel dispatch.  Ordering is
        deterministic (first-seen group order, stable within a group) and — as
        for any reordering — results are unaffected: every request is evaluated
        independently and collected by fingerprint.  The batched exact and the
        sampling executors expose ``group_key``; executors without it (scalar
        exact, noisy, duck-typed device backends) see their batch untouched.
        """
        group_key = getattr(executor, "group_key", None)
        if group_key is None or len(pending) < 2:
            return pending
        first_seen: Dict[object, int] = {}
        ranks: List[int] = []
        try:
            for _, variant, _ in pending:
                key = group_key(variant)
                ranks.append(first_seen.setdefault(key, len(first_seen)))
        except Exception:
            # Grouping is a performance hint only: a request the executor
            # cannot parse (duck-typed variants in tests, foreign payloads)
            # must not break dispatch.
            return pending
        order = sorted(range(len(pending)), key=lambda index: (ranks[index], index))
        return [pending[index] for index in order]

    def _chunked_lane(
        self, lane: Sequence[PendingRequest], spec: Any
    ) -> List[List[PendingRequest]]:
        """Chunk one device's lane into at most ``spec.lanes`` worker tasks.

        The lane cap is a hard bound — an explicit ``chunk_size`` can make
        chunks *bigger* (fewer tasks) but never split a device's lane into
        more concurrent streams than its hardware offers.
        """
        size = max(1, math.ceil(len(lane) / max(1, spec.lanes)))
        if self._config.chunk_size is not None:
            size = max(size, self._config.chunk_size)
        return [list(lane[i : i + size]) for i in range(0, len(lane), size)]

    def _run_tasks(
        self, tasks: Sequence[Tuple[object, List[PendingRequest]]]
    ) -> List[Tuple[str, VariantResult]]:
        """Execute ``(executor, chunk)`` tasks — one pool across all executors."""
        pool = None
        specs: Dict[int, Tuple] = {}
        # max_workers=1 stays serial in-process even under a multi-device farm:
        # routing models *placement*, the worker count models *this host*.
        if len(tasks) > 1 and self._effective_workers() > 1:
            if not self._config.use_threads:
                # Pre-flight every distinct executor's spawn spec; one
                # unpicklable backend degrades the whole batch to serial (mixed
                # serial/pooled execution would reorder nothing but buys
                # little, and the warning in _spawnable already fired).
                for task_executor, _ in tasks:
                    if id(task_executor) not in specs:
                        specs[id(task_executor)] = self._spawnable(task_executor)
                if all(spec[0] is not None for spec in specs.values()):
                    pool = self._ensure_pool()
            else:
                pool = self._ensure_pool()
        if pool is None:
            results: List[Tuple[str, VariantResult]] = []
            for task_executor, chunk in tasks:
                results.extend(_execute_chunk_shared(task_executor, chunk))
            return results
        results = []
        futures = []
        collected = 0  # futures fully collected, in submission order
        try:
            # Submission happens inside the try: a pool that broke between
            # batches raises at submit(), which must fall back like any other
            # mid-batch breakage.
            for task_executor, chunk in tasks:
                if self._config.use_threads:
                    futures.append(pool.submit(_execute_chunk_shared, task_executor, chunk))
                else:
                    futures.append(
                        pool.submit(_execute_chunk, *specs[id(task_executor)], chunk)
                    )
            for future in futures:
                results.extend(future.result())
                collected += 1
            return results
        except (OSError, RuntimeError, BrokenPipeError) as error:
            # Pool breakage (BrokenProcessPool is a RuntimeError).  Executor
            # pickling is pre-flighted in _spawnable, so failures here are
            # infrastructure, not payload; the serial rerun reproduces any
            # genuine execution error with a clean traceback.
            if not self._config.fallback_to_serial:
                raise
            warnings.warn(
                f"parallel dispatch failed ({error!r}); falling back to serial execution",
                RuntimeWarning,
                stacklevel=2,
            )
            # Salvage every chunk that still completed — rerunning them would
            # double-execute variants, inflating wall clock and wasting shot
            # budget under an active allocation.  Only chunks that never
            # produced results rerun serially.
            unfinished: List[Tuple[object, List[PendingRequest]]] = []
            for index in range(collected, len(futures)):
                future = futures[index]
                if not future.cancel():
                    # Already finished (or still running on a thread pool, in
                    # which case result() waits for it rather than redoing it).
                    try:
                        results.extend(future.result())
                        continue
                    except Exception:
                        pass
                unfinished.append(tasks[index])
            # Tasks whose submit() never went through have no future at all.
            unfinished.extend(tasks[len(futures) :])
            self._teardown_pool(broken=True)
            for task_executor, chunk in unfinished:
                results.extend(_execute_chunk_shared(task_executor, chunk))
            return results

    def _spawnable(self, executor: Any) -> Tuple[Any, Any]:
        """Pre-flight the executor's spawn spec for process-pool transport.

        Pickling is checked *before* anything is submitted: a task that fails to
        pickle inside the pool's management thread can leave the pool in a state
        that hangs shutdown, so unpicklable executors never reach it.  Returns
        ``(None, None)`` (serial fallback) when the spec cannot cross the
        process boundary.
        """
        import pickle

        try:
            # spawn_spec() itself is part of the pre-flight: a duck-typed
            # executor without one (AttributeError) degrades to serial exactly
            # like an unpicklable spec would.
            spec = executor.spawn_spec()
            pickle.dumps(spec)
            return spec
        except Exception as error:
            if not self._config.fallback_to_serial:
                raise
            warnings.warn(
                f"executor cannot be shipped to worker processes ({error!r}); "
                "running serially (consider EngineConfig(use_threads=True) or a "
                "custom spawn_spec)",
                RuntimeWarning,
                stacklevel=3,
            )
            return None, None

    def _ensure_pool(self) -> Optional[_PoolBase]:
        if self._pool is not None or self._pool_broken:
            return self._pool
        # One pool serves both batch execution and sharded contraction; size it
        # for whichever wants more (they default to the same count).
        workers = max(self._effective_workers(), self.contraction_workers)
        try:
            if self._config.use_threads:
                self._pool = ThreadPoolExecutor(max_workers=workers)
            else:
                self._pool = ProcessPoolExecutor(max_workers=workers)
        except (OSError, ValueError, PermissionError, ImportError) as error:
            if not self._config.fallback_to_serial:
                raise
            warnings.warn(
                f"could not start a worker pool ({error!r}); running serially",
                RuntimeWarning,
                stacklevel=2,
            )
            self._pool_broken = True
            self._pool = None
        return self._pool

    def _teardown_pool(self, broken: bool = False) -> None:
        if self._pool is not None:
            # Never join a possibly-broken pool (wait=True can deadlock on a
            # half-shut management thread); cancel queued work and move on.
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        self._pool_broken = broken

    # ------------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Shut down the worker pool (idempotent; the engine stays usable serially)."""
        self._teardown_pool(broken=False)

    def __enter__(self) -> "ParallelEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
