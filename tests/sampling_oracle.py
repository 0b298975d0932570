"""Reference oracle for :class:`~repro.cutting.sampling.SamplingExecutor`.

:class:`ScalarSamplingExecutor` is the sampling executor's per-variant body
before it moved onto the batched branch walk: every request is walked alone
through the scalar :class:`~repro.simulator.dynamic.BranchingSimulator` and
its seeded shots are drawn from the resulting branch list.  The production
executor must reproduce its tables bit for bit.  It has no branch memo and
runs serially only (its spawn spec rebuilds the production class).

Importable without hypothesis, so ``benchmarks/bench_batched.py`` can use it
as the sampling leg's reference.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cutting import SamplingExecutor, SubcircuitVariant
from repro.cutting.executors import branch_output_index
from repro.engine.requests import VariantResult
from repro.simulator import BranchingSimulator
from repro.simulator.sampler import sample_weighted_counts_prefix


class ScalarSamplingExecutor(SamplingExecutor):
    """Sampling executor that walks every request alone on the scalar simulator."""

    def run_many(
        self, pending: Sequence[Tuple[str, SubcircuitVariant, Optional[Tuple[int, ...]]]]
    ) -> List[Tuple[str, VariantResult]]:
        return [
            (key, self._scalar_sample(key, variant, seed)) for key, variant, seed in pending
        ]

    def _scalar_sample(
        self, fingerprint: str, variant: SubcircuitVariant, seed: Optional[Tuple[int, ...]]
    ) -> VariantResult:
        shots = self.shots_for(fingerprint)
        if seed is None:
            seed = self.seed_for(fingerprint)
        rng = np.random.default_rng(seed)
        result = BranchingSimulator().run(variant.circuit)
        probabilities = np.array([branch.probability for branch in result.branches])
        signs = np.array([branch.sign for branch in result.branches], dtype=float)
        counts = sample_weighted_counts_prefix(probabilities, shots, rng)
        value = float(np.dot(counts, signs) / shots)
        distribution: Optional[np.ndarray] = None
        if variant.mode == "probability":
            distribution = np.zeros(2 ** len(variant.output_qubit_order))
            for branch, count in zip(result.branches, counts):
                if count:
                    distribution[branch_output_index(branch, variant)] += (
                        branch.sign * count
                    )
            distribution /= shots
        return VariantResult(value=value, distribution=distribution)
