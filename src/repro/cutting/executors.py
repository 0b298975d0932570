"""Executors: how subcircuit variants are evaluated.

Reconstruction needs two quantities per variant:

* ``expectation_value(variant)`` — the outcome-sign-weighted expectation
  ``sum_branches sign * probability`` (wire-cut signs, gate-cut signs and the
  observable-term measurement signs are all folded into the branch signs by the
  variant builder),
* ``quasi_distribution(variant)`` — the sign-weighted distribution over the
  variant's original-output qubits.

Executors are *batch-capable backends* behind the execution engine
(:mod:`repro.engine`): :meth:`VariantExecutor.run_batch` dedups requests by
fingerprint, satisfies repeats from the shared bounded
:class:`~repro.engine.cache.ResultCache`, and executes only the unique misses —
in-process by default, or through whatever ``dispatch`` callable a
:class:`~repro.engine.ParallelEngine` supplies (chunked worker pools).  The
single-variant convenience API is kept and routed through the same path, so the
dedup-aware ``executions`` counter is authoritative however the executor is
driven.

Four executors are provided:

* :class:`ExactExecutor` — exact branching simulation (the default; makes the
  reconstruction identities hold to numerical precision),
* :class:`BatchedExactExecutor` — the vectorized fast path: cache-miss requests
  are grouped by circuit structure (:func:`repro.simulator.batched.variant_group_key`)
  and each group is evaluated in one ``(batch, 2**n)`` pass, bit-identical to
  :class:`ExactExecutor` but several times faster on variant families,
* :class:`~repro.cutting.sampling.SamplingExecutor` (in
  :mod:`repro.cutting.sampling`) — finite-shot estimation: every variant value is
  the mean of ``shots`` multinomial samples, with optional per-variant shot
  allocation (Section 2.2's shots-based model).  It runs on the same batched
  branch walk, grouped and sized by :func:`batched_chunks`, and draws each
  request's shots from its own branch rows,
* :class:`NoisyExecutor` — the "small quantum device" of the Table 3 experiment: the
  variant is compiled to the device basis, Pauli noise is injected stochastically
  per trajectory, and finite-shot statistical noise is emulated; results are averaged
  over trajectories.  Each request is seeded deterministically from its fingerprint,
  so serial and parallel batch runs are bit-identical, and results are cached under
  seed-aware keys.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Type

import numpy as np

from ..circuits import Circuit, decompose_to_basis
from ..engine.cache import (
    ResultCache,
    build_cache_namespace,
    scoped_cache_namespace,
)
from ..engine.requests import (
    VariantResult,
    request_key,
    seed_from_fingerprint,
)
from ..exceptions import CuttingError
from ..simulator.batched import (
    _OUTPUT_TAG_PREFIX,
    branch_bound,
    simulate_variant_group,
    variant_group_key,
)
from ..simulator.dynamic import BranchedResult, BranchingSimulator
from ..simulator.noise import DeviceModel, inject_pauli_noise
from .variants import SubcircuitVariant

__all__ = ["VariantExecutor", "ExactExecutor", "BatchedExactExecutor", "NoisyExecutor"]

#: A pending request as the executors receive it: ``(fingerprint, variant, seed)``.
PendingTriple = Tuple[str, SubcircuitVariant, Optional[Tuple[int, ...]]]

#: A dispatch backend: receives the executor and the unique cache-miss requests
#: ``[(fingerprint, variant, seed), ...]`` and returns ``[(fingerprint, result)]``.
DispatchFn = Callable[["VariantExecutor", Sequence[Tuple]], Iterable[Tuple[str, VariantResult]]]


def _unpickled_executor(executor: "VariantExecutor") -> "VariantExecutor":
    """Default spawn factory: the executor itself travels by pickle."""
    return executor


def _signed_value(result: BranchedResult) -> float:
    return result.expectation_of_signs()


def branch_output_index(branch: Any, variant: SubcircuitVariant) -> int:
    """Basis index of a branch's recorded outcomes over the variant's output qubits."""
    index = 0
    for position, qubit in enumerate(variant.output_qubit_order):
        outcome = branch.outcomes.get(f"out:{qubit}")
        if outcome is None:
            raise CuttingError(
                f"variant for subcircuit {variant.subcircuit_index} did not record "
                f"an outcome for original qubit {qubit}"
            )
        index |= outcome << position
    return index


def _signed_distribution(result: BranchedResult, variant: SubcircuitVariant) -> np.ndarray:
    """Quasi-distribution over the variant's output qubits from recorded outcomes."""
    distribution = np.zeros(2 ** len(variant.output_qubit_order))
    for branch in result.branches:
        distribution[branch_output_index(branch, variant)] += branch.sign * branch.probability
    return distribution


class VariantExecutor(ABC):
    """Batch-capable strategy object evaluating subcircuit variants.

    Args:
        cache: the shared bounded :class:`~repro.engine.cache.ResultCache`
            holding this executor's results (a private default-sized cache is
            created when omitted).  Executors sharing one cache share results —
            safe because cache keys are namespaced per executor configuration
            (see :meth:`cache_namespace` / :meth:`cache_key`).

    Subclasses implement :meth:`execute_variant`; everything else (dedup,
    caching, counters, batch dispatch, worker-process transport) is inherited.
    """

    def __init__(self, cache: Optional[ResultCache] = None) -> None:
        self._cache = cache if cache is not None else ResultCache()
        self._cache_scope: Optional[str] = None
        self._executions = 0
        self._requests = 0
        self._dedup_hits = 0
        self._cache_hits = 0

    # ------------------------------------------------------------------ protocol
    @abstractmethod
    def execute_variant(
        self, variant: SubcircuitVariant, seed: Optional[Tuple[int, ...]] = None
    ) -> VariantResult:
        """Run one variant circuit and return its result payload.

        ``seed`` is the engine's deterministic per-request seed material (``None``
        for deterministic executors); implementations must depend only on
        ``(variant, seed)`` so that batches parallelise reproducibly.
        """

    def seed_for(self, fingerprint: str) -> Optional[Tuple[int, ...]]:
        """Per-request seed material; None for deterministic executors."""
        return None

    def run_many(self, pending: Sequence[PendingTriple]) -> List[Tuple[str, VariantResult]]:
        """Execute unique cache-miss requests; return ``[(fingerprint, result)]``.

        ``pending`` holds ``(fingerprint, variant, seed)`` triples that already
        passed dedup and cache lookup.  The default runs each request through
        :meth:`execute_variant` in order; batch-capable executors (see
        :class:`BatchedExactExecutor`) override this with a vectorized fast
        path.  Both the serial :meth:`run_batch` path and the engine's worker
        chunks call it, so one override accelerates in-process and pooled
        execution alike.  Result order is irrelevant to callers (they key by
        fingerprint), but every pending fingerprint must appear exactly once.
        """
        return [
            (key, self.execute_variant(variant, seed=seed))
            for key, variant, seed in pending
        ]

    def cache_namespace(self) -> str:
        """Key prefix isolating this executor's results in a shared cache."""
        return type(self).__name__

    def set_cache_scope(self, scope: Optional[str]) -> None:
        """Extra key prefix layered on top of :meth:`cache_namespace`.

        Set by :class:`~repro.engine.ParallelEngine` when a *heterogeneous*
        device farm executes this executor's requests on per-device backends:
        which backend produced a result then depends on routing, so those
        results must never alias what the same executor class would store in a
        shared cache without the farm.  ``None`` (the default) leaves keys
        unchanged.
        """
        self._cache_scope = scope

    def _scoped_namespace(self) -> str:
        return scoped_cache_namespace(self.cache_namespace(), self._cache_scope)

    def cache_key(self, fingerprint: str) -> str:
        """Cache key for one request within this executor's namespace.

        Defaults to the fingerprint itself.  Executors whose result depends on
        per-request state beyond the variant circuit (e.g. a per-variant shot
        allocation) must fold that state in here, so results taken under
        different settings never alias in the shared cache.
        """
        return fingerprint

    def spawn_spec(self) -> Tuple[Callable, Tuple]:
        """(factory, args) rebuilding an equivalent executor in a worker process.

        The default pickles this instance (minus cached results, see
        ``__getstate__``), so subclasses with constructor arguments behave
        correctly in process pools without overriding anything.  Executors with
        cheap, explicit constructor state may override to avoid pickling
        themselves (see :meth:`NoisyExecutor.spawn_spec`).
        """
        return _unpickled_executor, (self,)

    def __getstate__(self) -> Dict:
        """Pickle support: ship configuration, never the cached result payloads."""
        state = dict(self.__dict__)
        state["_cache"] = ResultCache(self._cache.maxsize)
        return state

    # ------------------------------------------------------------------ batch API
    def run_batch(
        self,
        variants: Iterable[SubcircuitVariant],
        dispatch: Optional[DispatchFn] = None,
    ) -> Dict[str, VariantResult]:
        """Execute a batch of variants; return ``fingerprint -> VariantResult``.

        Requests are deduped by fingerprint and satisfied from the shared cache
        where possible; only the unique misses are executed (serially, or by the
        supplied ``dispatch`` backend).  The ``executions`` counter advances by
        exactly the number of unique misses.
        """
        namespace = self._scoped_namespace()
        table: Dict[str, VariantResult] = {}
        pending: List[PendingTriple] = []
        scheduled: set = set()
        for variant in variants:
            self._requests += 1
            key = request_key(variant)
            if key in table or key in scheduled:
                self._dedup_hits += 1
                continue
            cached = self._cache.get((namespace, self.cache_key(key)))
            if cached is not None:
                self._cache_hits += 1
                table[key] = cached
                continue
            pending.append((key, variant, self.seed_for(key)))
            scheduled.add(key)
        if pending:
            if dispatch is None:
                results: Iterable[Tuple[str, VariantResult]] = self.run_many(pending)
            else:
                results = dispatch(self, pending)
            for key, result in results:
                self._cache.put((namespace, self.cache_key(key)), result)
                table[key] = result
            self._executions += len(pending)
        return table

    # ------------------------------------------------------------------ single API
    def expectation_value(self, variant: SubcircuitVariant) -> float:
        """Sign-weighted expectation of the variant."""
        result = self.run_batch([variant])[request_key(variant)]
        if result.value is None:
            raise CuttingError(
                f"executor {type(self).__name__} produced no expectation value for a "
                f"{variant.mode!r}-mode variant"
            )
        return result.value

    def quasi_distribution(self, variant: SubcircuitVariant) -> np.ndarray:
        """Sign-weighted distribution over the variant's output qubits.

        Returns a private copy: the underlying array lives in the shared result
        cache, which must never be mutated through a caller's handle.
        """
        result = self.run_batch([variant])[request_key(variant)]
        if result.distribution is None:
            raise CuttingError(
                f"executor {type(self).__name__} produced no distribution for a "
                f"{variant.mode!r}-mode variant (distributions require probability mode)"
            )
        return result.distribution.copy()

    # ------------------------------------------------------------------ accounting
    @property
    def cache(self) -> ResultCache:
        return self._cache

    @property
    def executions(self) -> int:
        """Unique variant circuits executed (dedup-aware, for overhead reporting)."""
        return self._executions

    @property
    def requests(self) -> int:
        """Total variant requests received (including dedup and cache hits)."""
        return self._requests

    @property
    def dedup_hits(self) -> int:
        return self._dedup_hits

    @property
    def cache_hits(self) -> int:
        return self._cache_hits


class ExactExecutor(VariantExecutor):
    """Exact, noise-free evaluation through the branching simulator."""

    def __init__(self, cache: Optional[ResultCache] = None) -> None:
        super().__init__(cache)
        self._simulator = BranchingSimulator()

    def execute_variant(
        self, variant: SubcircuitVariant, seed: Optional[Tuple[int, ...]] = None
    ) -> VariantResult:
        result = self._simulator.run(variant.circuit)
        distribution = (
            _signed_distribution(result, variant) if variant.mode == "probability" else None
        )
        return VariantResult(value=_signed_value(result), distribution=distribution)


#: Complex-element budget of one batched simulation pass (see
#: :func:`batched_chunks`): ``2**23`` elements is ~128 MB of amplitudes.
DEFAULT_MAX_BATCH_ELEMENTS = 1 << 23


def check_output_tags(variant: SubcircuitVariant) -> None:
    """Probability-mode variants must measure every output qubit (``out:`` tags).

    Mirrors the scalar path, which raises when a branch lacks an output
    outcome; the batched walk validates up front because it never builds
    per-branch outcome dictionaries.
    """
    if getattr(variant, "mode", None) != "probability":
        return
    recorded = {
        op.tag[len(_OUTPUT_TAG_PREFIX) :]
        for op in variant.circuit
        if op.is_measurement and op.tag and op.tag.startswith(_OUTPUT_TAG_PREFIX)
    }
    for qubit in variant.output_qubit_order:
        if str(qubit) not in recorded:
            raise CuttingError(
                f"variant for subcircuit {variant.subcircuit_index} did not record "
                f"an outcome for original qubit {qubit}"
            )


def batched_chunks(
    pending: Sequence[PendingTriple], max_batch_elements: int
) -> Iterator[List[PendingTriple]]:
    """Split pending requests into same-structure sub-batches for one batched walk.

    Every request is validated (:func:`check_output_tags`) before the first
    sub-batch is yielded.  Requests are grouped by
    :func:`~repro.simulator.batched.variant_group_key`; groups keep first-seen
    order and requests keep their order within a group.  A group is split so
    that ``batch * 2**n *`` :func:`~repro.simulator.batched.branch_bound` stays
    under ``max_batch_elements`` (at least one variant per sub-batch).  Both
    batched executors size their walks here.
    """
    groups: Dict[Tuple, List[PendingTriple]] = {}
    for request in pending:
        check_output_tags(request[1])
        groups.setdefault(variant_group_key(request[1].circuit), []).append(request)
    for items in groups.values():
        circuit = items[0][1].circuit
        per_variant = (2**circuit.num_qubits) * branch_bound(circuit)
        limit = max(1, max_batch_elements // per_variant)
        for start in range(0, len(items), limit):
            yield items[start : start + limit]


class BatchedExactExecutor(VariantExecutor):
    """Vectorized exact evaluation: same-structure variants share one batched pass.

    Variants of one fragment share their two-qubit gates and measurement/reset
    skeleton and differ only in single-qubit gates (initialisation labels,
    measurement-basis rotations, gate-cut instance actions).  :meth:`run_many`
    groups cache-miss requests by
    :func:`~repro.simulator.batched.variant_group_key` and evaluates each group
    through :func:`~repro.simulator.batched.simulate_variant_group` — a single
    ``(batch, 2**n)`` array walked gate by gate — instead of one full scalar
    pass per variant.

    Results are **bit-identical** to :class:`ExactExecutor`: both run the same
    elementwise gate kernel and the batched path reproduces the scalar
    branching simulator's projection sums, branch order and accumulation order
    exactly (see :mod:`repro.simulator.batched`).  Fingerprints, cache keys,
    dedup and the ``executions`` counter behave identically, so the two
    executors are drop-in interchangeable.

    Args:
        cache: the shared bounded result cache (as on every executor).
        max_batch_elements: sizing budget per batched pass, in complex
            amplitudes; ``2**23`` (~128 MB) by default.  Groups are split into
            sub-batches so that ``batch * 2**n *``
            :func:`~repro.simulator.batched.branch_bound` stays under it.  The
            branch bound caps its worst case at ``2**12`` branch points, so
            this is a *sizing heuristic*, not a hard memory guarantee: a
            measurement-heavy group whose branches genuinely fan out past the
            cap can exceed the budget — exactly as the scalar simulator's
            branch list would for the same circuits, since live branch rows
            cost the same either way.
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        max_batch_elements: int = DEFAULT_MAX_BATCH_ELEMENTS,
    ) -> None:
        if max_batch_elements < 1:
            raise CuttingError(
                f"max_batch_elements must be >= 1, got {max_batch_elements}"
            )
        super().__init__(cache)
        self._max_batch_elements = int(max_batch_elements)

    # ------------------------------------------------------------------ grouping
    def group_key(self, variant: SubcircuitVariant) -> Tuple:
        """Structure key under which requests can share one batched pass.

        The :class:`~repro.engine.ParallelEngine` also calls this to keep
        same-structure requests together when it chunks a batch across worker
        tasks, so the fast path survives parallel dispatch.
        """
        return variant_group_key(variant.circuit)

    # ------------------------------------------------------------------ execution
    def execute_variant(
        self, variant: SubcircuitVariant, seed: Optional[Tuple[int, ...]] = None
    ) -> VariantResult:
        check_output_tags(variant)
        value, distribution = simulate_variant_group([variant])[0]
        return VariantResult(value=value, distribution=distribution)

    def run_many(self, pending: Sequence[PendingTriple]) -> List[Tuple[str, VariantResult]]:
        """Group pending requests by structure and run each group batched.

        Sub-batches come from :func:`batched_chunks` (so a "ragged" final
        sub-batch — even a single variant — flows through the same code path
        and stays bit-identical).
        """
        results: List[Tuple[str, VariantResult]] = []
        for chunk in batched_chunks(pending, self._max_batch_elements):
            outcomes = simulate_variant_group([variant for _, variant, _ in chunk])
            for (key, _, _), (value, distribution) in zip(chunk, outcomes):
                results.append((key, VariantResult(value=value, distribution=distribution)))
        return results


class NoisyExecutor(VariantExecutor):
    """Noisy-device evaluation: stochastic Pauli injection + finite-shot emulation.

    Each variant is compiled to the device's native basis (routing is skipped when the
    variant uses fewer wires than the device has qubits, mirroring how small
    subcircuits are placed on the best-connected physical qubits).  ``trajectories``
    independent noise realisations are simulated exactly and averaged; when ``shots``
    is given, zero-mean Gaussian noise with the binomial standard error of the shot
    budget is added to expectation-type values.

    Every request draws its own RNG seeded from ``(seed, fingerprint)``, so results
    are independent of execution order (serial == parallel, bit for bit) and can be
    cached under seed-aware keys.  ``executions`` counts *variants*, not
    trajectories, making overhead reports comparable with :class:`ExactExecutor`.
    """

    def __init__(
        self,
        device: DeviceModel,
        shots: Optional[int] = 16384,
        trajectories: int = 25,
        seed: Optional[int] = None,
        cache: Optional[ResultCache] = None,
    ) -> None:
        if trajectories < 1:
            raise CuttingError("trajectories must be >= 1")
        super().__init__(cache)
        self._device = device
        self._shots = shots
        self._trajectories = trajectories
        if seed is None:
            # Draw a base seed once so the instance is self-consistent (and
            # shippable to worker processes) even without an explicit seed.
            seed = int(np.random.SeedSequence().entropy) & 0xFFFFFFFFFFFFFFFF  # qrcclint: disable=unseeded-randomness -- one-time base-seed draw when the caller passes none; every per-request draw is then derived from (base_seed, fingerprint)
        self._base_seed = int(seed)
        self._simulator = BranchingSimulator()

    # ------------------------------------------------------------------ protocol
    def seed_for(self, fingerprint: str) -> Tuple[int, ...]:
        return seed_from_fingerprint(fingerprint, self._base_seed)

    def cache_namespace(self) -> str:
        noise = self._device.noise
        return build_cache_namespace(
            "noisy",
            parts=(
                self._device.name,
                self._device.num_qubits,
                noise.two_qubit_error,
                noise.single_qubit_error,
                self._shots,
                self._trajectories,
            ),
            seed=self._base_seed,
        )

    def spawn_spec(self) -> Tuple[Type["NoisyExecutor"], Tuple]:
        return NoisyExecutor, (self._device, self._shots, self._trajectories, self._base_seed)

    # ------------------------------------------------------------------ execution
    def _prepare(self, variant: SubcircuitVariant) -> Circuit:
        if variant.num_wires > self._device.num_qubits:
            raise CuttingError(
                f"variant needs {variant.num_wires} qubits but device "
                f"{self._device.name} only has {self._device.num_qubits}"
            )
        return decompose_to_basis(variant.circuit)

    def execute_variant(
        self, variant: SubcircuitVariant, seed: Optional[Tuple[int, ...]] = None
    ) -> VariantResult:
        if seed is None:
            seed = self.seed_for(request_key(variant))
        rng = np.random.default_rng(seed)
        compiled = self._prepare(variant)
        values: List[float] = []
        distribution_total: Optional[np.ndarray] = None
        if variant.mode == "probability":
            distribution_total = np.zeros(2 ** len(variant.output_qubit_order))
        for _ in range(self._trajectories):
            result = self._simulator.run(
                inject_pauli_noise(compiled, self._device.noise, rng)
            )
            values.append(_signed_value(result))
            if distribution_total is not None:
                distribution_total += _signed_distribution(result, variant)
        value = float(np.mean(values))
        distribution: Optional[np.ndarray] = None
        if distribution_total is not None:
            distribution = distribution_total / self._trajectories
        if self._shots:
            sigma = 1.0 / np.sqrt(self._shots)
            value += float(rng.normal(0.0, sigma))
            if distribution is not None:
                distribution = distribution + rng.normal(0.0, sigma, size=distribution.shape)
        return VariantResult(value=value, distribution=distribution)
