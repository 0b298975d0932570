"""Simulation backends: exact statevector, batched vectorized, dynamic, shots, noise."""

from .batched import (
    BatchedStatevector,
    BranchRows,
    branch_bound,
    simulate_batch,
    simulate_variant_group,
    variant_group_key,
    walk_variant_group,
)
from .dynamic import Branch, BranchedResult, BranchingSimulator, simulate_dynamic
from .expectation import (
    basis_rotation_circuit,
    diagonalized_term,
    exact_expectation,
    expectation_from_distribution,
    sampled_expectation,
)
from .noise import (
    DeviceModel,
    NoiseModel,
    NoisySimulator,
    inject_pauli_noise,
    lagos_like_device,
)
from .sampler import (
    counts_to_distribution,
    distribution_to_counts,
    expectation_from_counts,
    sample_circuit,
    sample_counts,
    sample_weighted_counts,
)
from .statevector import Statevector, apply_gate, apply_gate_batch, simulate_statevector

__all__ = [
    "Branch",
    "BranchedResult",
    "BranchingSimulator",
    "BatchedStatevector",
    "BranchRows",
    "DeviceModel",
    "NoiseModel",
    "NoisySimulator",
    "Statevector",
    "apply_gate",
    "apply_gate_batch",
    "branch_bound",
    "simulate_batch",
    "simulate_variant_group",
    "variant_group_key",
    "walk_variant_group",
    "basis_rotation_circuit",
    "counts_to_distribution",
    "diagonalized_term",
    "distribution_to_counts",
    "exact_expectation",
    "expectation_from_counts",
    "expectation_from_distribution",
    "inject_pauli_noise",
    "lagos_like_device",
    "sample_circuit",
    "sample_counts",
    "sample_weighted_counts",
    "sampled_expectation",
    "simulate_dynamic",
    "simulate_statevector",
]
