"""Finite-shot sampling executor: the paper's Section 2.2 "shots-based model".

:class:`SamplingExecutor` estimates every subcircuit variant from a finite number
of measurement shots instead of reading exact branch probabilities.  One shot of
a variant circuit collapses the branching simulation to a single measurement
branch (drawn with the branch's probability) and yields that branch's recorded
outcome: the cumulative ±1 sign for expectation-mode variants, the output-qubit
bitstring (with its sign) for probability-mode variants.  The sample mean over
``shots`` draws is an unbiased estimator of the exact sign-weighted value /
quasi-distribution the :class:`~repro.cutting.executors.BatchedExactExecutor` computes,
with standard error ``O(1/sqrt(shots))`` — which is exactly what real hardware
reports, and what makes shot *allocation* across variants matter (see
:mod:`repro.engine.allocation`).

Execution runs on the batched branch walk of :mod:`repro.simulator.batched`:
cache-miss requests are grouped by circuit structure, each group is walked
once into per-variant branch rows ``(prob, sign, out_index)``, and every
request draws its shots from its own rows.  The rows reproduce the scalar
:class:`~repro.simulator.dynamic.BranchingSimulator` branches bit for bit
(order, pruning and probability products), so the samples are exactly those a
per-variant scalar walk would give.  A per-executor memo keeps the compact
rows, bounded by stored rows, so streaming rounds re-sample without re-walking.

Determinism contract (shared with :class:`~repro.cutting.executors.NoisyExecutor`):
every request draws its own RNG seeded from ``(base_seed, fingerprint, shots,
stage)``, so results are independent of submission order, worker count and
chunking — serial and parallel batch runs are bit-identical — and can be cached
safely.  Cache keys additionally carry the request's shot count and allocation
stage (see :meth:`cache_key` / :meth:`set_allocation`), so pilot-pass samples
never alias full-pass results, even at coinciding shot counts.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..engine.cache import ResultCache, build_cache_key, build_cache_namespace
from ..engine.requests import VariantResult, request_key, seed_from_fingerprint
from ..exceptions import CuttingError
from ..simulator.batched import BranchRows, variant_group_key, walk_variant_group
from ..simulator.sampler import sample_weighted_counts_prefix
from .executors import (
    DEFAULT_MAX_BATCH_ELEMENTS,
    PendingTriple,
    VariantExecutor,
    batched_chunks,
)
from .variants import SubcircuitVariant

__all__ = ["SamplingExecutor"]

#: Default per-variant shot count when no allocation is applied.
DEFAULT_SHOTS = 4096

#: Branch rows kept in the per-executor branch memo (see
#: :meth:`SamplingExecutor.run_many`): streaming sessions re-sample the same
#: variant circuits every round, and the exact branch walk — not the draw —
#: dominates that cost.  Bounded by stored rows (24 bytes each, ~24 MB at the
#: cap), not entries, so sessions over many small variants never thrash.
_BRANCH_MEMO_ROWS = 1 << 20


def _respawn_sampling(
    shots: int,
    seed: int,
    allocation_items: Tuple,
    stage: str,
    seed_shots_items: Optional[Tuple] = None,
) -> "SamplingExecutor":
    """Spawn factory: rebuild a worker-process copy from explicit constructor state."""
    executor = SamplingExecutor(shots=shots, seed=seed)
    # An empty allocation is still an allocation: it keeps the stage label and
    # the seed shots, which set_allocation(None) would clear.
    executor.set_allocation(
        dict(allocation_items),
        stage=stage,
        seed_shots_by_fingerprint=dict(seed_shots_items or ()),
    )
    return executor


class SamplingExecutor(VariantExecutor):
    """Estimate variant values from finite multinomial samples of the exact branches.

    Same-structure requests share one batched branch walk (see
    :meth:`run_many` and :meth:`group_key`).  ``shots`` is the default
    per-variant budget; :meth:`set_allocation` overrides
    it per fingerprint (the engine applies a :class:`~repro.engine.allocation.ShotAllocation`
    this way).  ``executions`` counts variants, not shots, keeping overhead
    reports comparable with the exact and noisy executors.
    """

    def __init__(
        self,
        shots: int = DEFAULT_SHOTS,
        seed: Optional[int] = None,
        cache: Optional[ResultCache] = None,
    ) -> None:
        if shots < 1:
            raise CuttingError(f"shots must be >= 1, got {shots}")
        super().__init__(cache)
        self._shots = int(shots)
        if seed is None:
            # Draw a base seed once so the instance is self-consistent (and
            # shippable to worker processes) even without an explicit seed.
            seed = int(np.random.SeedSequence().entropy) & 0xFFFFFFFFFFFFFFFF  # qrcclint: disable=unseeded-randomness -- one-time base-seed draw when the caller passes none; every per-request draw is then derived from (base_seed, fingerprint)
        self._base_seed = int(seed)
        self._allocation: Dict[str, int] = {}
        self._allocation_floor: Optional[int] = None
        self._seed_shots: Dict[str, int] = {}
        self._stage = ""
        self._branch_memo: Dict[str, BranchRows] = {}
        self._branch_memo_rows = 0

    # ------------------------------------------------------------------ allocation
    @property
    def shots(self) -> int:
        """Default shots per variant (used when no allocation covers a request)."""
        return self._shots

    @property
    def base_seed(self) -> int:
        return self._base_seed

    @property
    def allocation(self) -> Dict[str, int]:
        """The active per-fingerprint shot allocation (a copy; empty = default)."""
        return dict(self._allocation)

    def set_allocation(
        self,
        shots_by_fingerprint: Optional[Mapping[str, int]] = None,
        stage: str = "",
        seed_shots_by_fingerprint: Optional[Mapping[str, int]] = None,
    ) -> None:
        """Apply (or clear, with ``None``) a per-variant shot allocation.

        Subsequent requests whose fingerprint appears in the mapping are sampled
        with that many shots; all others fall back to the default ``shots``.

        ``stage`` labels the allocation pass (e.g. ``"pilot"``) and enters both
        the per-request seed and the cache key: passes with different labels
        draw statistically independent samples and never alias in the cache,
        *even when a variant happens to get the same shot count in both* — the
        variance-aware allocator relies on this so its pilot sample (which chose
        the allocation) is never silently reused as the final estimate.

        ``seed_shots_by_fingerprint`` decouples the *seed* shot count from the
        *drawn* shot count for streaming sessions: each round re-applies the
        growing cumulative counts here while pinning the seed material to the
        final planned totals, so — the sampler being prefix-stable, see
        :func:`~repro.simulator.sampler.sample_weighted_counts_prefix` — every
        round's sample is a bitwise prefix of the final one, and the final
        round (where drawn == seed counts) reproduces the one-shot batch draw
        exactly.  Rounds whose seed and drawn counts differ carry a ``:seed=``
        marker in their cache key so partial draws never alias complete ones.
        ``None`` (the default, and the batch path) seeds from the drawn counts.

        While an allocation is active, a request whose fingerprint is *not*
        covered (a variant that escaped enumeration and reaches the executor
        through the reconstructor's defensive on-demand path) is sampled at the
        allocation's smallest per-variant count — never at the default
        ``shots``, which callers typically set to the *total* budget.
        """
        if shots_by_fingerprint is None:
            self._allocation = {}
            self._allocation_floor = None
            self._seed_shots = {}
            self._stage = ""
            return
        for fingerprint, count in shots_by_fingerprint.items():
            if count < 1:
                raise CuttingError(
                    f"allocated shots must be >= 1, got {count} for {fingerprint[:12]}..."
                )
        if seed_shots_by_fingerprint is not None:
            for fingerprint, count in seed_shots_by_fingerprint.items():
                if count < 1:
                    raise CuttingError(
                        f"seed shots must be >= 1, got {count} for {fingerprint[:12]}..."
                    )
        self._allocation = {key: int(count) for key, count in shots_by_fingerprint.items()}
        self._allocation_floor = min(self._allocation.values(), default=None)
        self._seed_shots = (
            {key: int(count) for key, count in seed_shots_by_fingerprint.items()}
            if seed_shots_by_fingerprint is not None
            else {}
        )
        self._stage = str(stage)

    def shots_for(self, fingerprint: str) -> int:
        """Shots this executor will spend on the given request.

        Falls back to the default ``shots`` when no allocation is active, and
        to the active allocation's smallest per-variant count for fingerprints
        the allocation does not cover (see :meth:`set_allocation`).
        """
        if fingerprint in self._allocation:
            return self._allocation[fingerprint]
        if self._allocation_floor is not None:
            return self._allocation_floor
        return self._shots

    def seed_shots_for(self, fingerprint: str) -> int:
        """Shot count entering the seed material (see :meth:`set_allocation`).

        Equals :meth:`shots_for` unless a streaming session pinned the seed to
        the final planned totals while drawing a smaller cumulative prefix.
        """
        if fingerprint in self._seed_shots:
            return self._seed_shots[fingerprint]
        return self.shots_for(fingerprint)

    # ------------------------------------------------------------------ protocol
    def seed_for(self, fingerprint: str) -> Tuple[int, ...]:
        # Seed shot count and stage label join the seed material so allocation
        # passes (pilot vs final) always draw statistically independent samples,
        # while streaming rounds (same seed shots, growing drawn counts) keep
        # drawing prefixes of one final sample.
        return (
            *seed_from_fingerprint(fingerprint, self._base_seed),
            self.seed_shots_for(fingerprint),
            zlib.crc32(self._stage.encode("utf-8")),
        )

    def cache_namespace(self) -> str:
        return build_cache_namespace("sampling", seed=self._base_seed)

    def cache_key(self, fingerprint: str) -> str:
        # seed_shots enters the key only when it differs from the drawn count:
        # a partial (prefix) draw of a longer seeded stream must never alias
        # the complete draw, nor partial draws of other stream lengths.
        return build_cache_key(
            fingerprint,
            shots=self.shots_for(fingerprint),
            stage=self._stage,
            seed_shots=self.seed_shots_for(fingerprint),
        )

    def spawn_spec(self) -> Tuple:
        return _respawn_sampling, (
            self._shots,
            self._base_seed,
            tuple(sorted(self._allocation.items())),
            self._stage,
            tuple(sorted(self._seed_shots.items())),
        )

    def __getstate__(self) -> Dict:
        # Like the result cache (see VariantExecutor.__getstate__), the
        # branch memo never crosses the process boundary.
        state = super().__getstate__()
        state["_branch_memo"] = {}
        state["_branch_memo_rows"] = 0
        return state

    # ------------------------------------------------------------------ execution
    def group_key(self, variant: SubcircuitVariant) -> Tuple:
        """Structure key under which requests share one batched branch walk.

        The :class:`~repro.engine.ParallelEngine` sorts pending requests by it
        before chunking, so same-structure variants reach one worker together.
        """
        return variant_group_key(variant.circuit)

    def execute_variant(
        self, variant: SubcircuitVariant, seed: Optional[Tuple[int, ...]] = None
    ) -> VariantResult:
        return self.run_many([(request_key(variant), variant, seed)])[0][1]

    def run_many(self, pending: Sequence[PendingTriple]) -> List[Tuple[str, VariantResult]]:
        """Sample every pending request from its exact branch rows.

        Rows come from the branch memo when present; the misses are walked
        group by group on the batched kernel (sized by
        :func:`~repro.cutting.executors.batched_chunks`) and each group is
        sampled as soon as its rows exist, so results never depend on what
        the memo keeps.
        """
        results: List[Tuple[str, VariantResult]] = []
        misses: List[PendingTriple] = []
        for key, variant, seed in pending:
            rows = self._branch_memo.get(key)
            if rows is None:
                misses.append((key, variant, seed))
            else:
                results.append((key, self._sample(key, variant, rows, seed)))
        for chunk in batched_chunks(misses, DEFAULT_MAX_BATCH_ELEMENTS):
            walked = walk_variant_group([variant for _, variant, _ in chunk])
            for (key, variant, seed), rows in zip(chunk, walked):
                # Copies: a memo entry must not pin its whole group's arrays.
                rows = BranchRows(rows.prob.copy(), rows.sign.copy(), rows.out_index.copy())
                self._remember(key, rows)
                results.append((key, self._sample(key, variant, rows, seed)))
        return results

    def _remember(self, fingerprint: str, rows: BranchRows) -> None:
        """Memoise one variant's rows, evicting the oldest past the row budget."""
        size = len(rows.prob)
        if size > _BRANCH_MEMO_ROWS:
            return
        while self._branch_memo_rows + size > _BRANCH_MEMO_ROWS:
            oldest = self._branch_memo.pop(next(iter(self._branch_memo)))
            self._branch_memo_rows -= len(oldest.prob)
        self._branch_memo[fingerprint] = rows
        self._branch_memo_rows += size

    def _sample(
        self,
        fingerprint: str,
        variant: SubcircuitVariant,
        rows: BranchRows,
        seed: Optional[Tuple[int, ...]],
    ) -> VariantResult:
        """Draw this request's seeded shots over its branch rows."""
        shots = self.shots_for(fingerprint)
        if seed is None:
            seed = self.seed_for(fingerprint)
        counts = sample_weighted_counts_prefix(rows.prob, shots, np.random.default_rng(seed))
        value = float(np.dot(counts, rows.sign.astype(float)) / shots)
        distribution: Optional[np.ndarray] = None
        if variant.mode == "probability":
            # Integer-valued partial sums (sign * count) are exact in float64,
            # so the bincount accumulation order cannot change a bit.
            distribution = np.bincount(
                rows.out_index,
                weights=rows.sign * counts,
                minlength=2 ** len(variant.output_qubit_order),
            )
            distribution /= shots
        return VariantResult(value=value, distribution=distribution)
