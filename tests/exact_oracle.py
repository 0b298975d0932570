"""Reference oracle for :class:`~repro.cutting.executors.BatchedExactExecutor`.

:class:`ExactExecutor` is the exact executor's one-variant-at-a-time body
before the engine built the batched executor unconditionally: every request
runs alone through the scalar :class:`~repro.simulator.dynamic.BranchingSimulator`.
The batched executor must reproduce its results bit for bit.  It is a full
:class:`~repro.cutting.executors.VariantExecutor` (dedup, cache, counters,
process-pool transport), so tests and benchmarks can hand it to an engine or a
reconstructor through ``executor=``.

Importable without hypothesis, so ``benchmarks/bench_batched.py`` and
``benchmarks/bench_engine.py`` can use it as their scalar reference.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.cutting.executors import VariantExecutor, _signed_distribution, _signed_value
from repro.cutting.variants import SubcircuitVariant
from repro.engine.cache import ResultCache
from repro.engine.requests import VariantResult
from repro.simulator.dynamic import BranchingSimulator

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
