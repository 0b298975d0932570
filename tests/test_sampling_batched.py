"""Finite-shot sampling on the batched branch walk.

:class:`~repro.cutting.sampling.SamplingExecutor` draws every request's seeded
shots from the per-variant branch rows of one batched walk per structure
group.  These tests pin its tables bit for bit to the per-variant scalar
oracle (``tests/sampling_oracle.py``) across modes, cut kinds, qubit reuse,
allocation states and worker counts; check that worker copies rebuild the
parent's sampling state verbatim; and check that the row-bounded branch memo
walks each variant once across streaming rounds.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits import Circuit
from repro.core import cut_circuit
from repro.core.config import CutConfig
from repro.cutting import CutReconstructor, SamplingExecutor
from repro.cutting import sampling as sampling_module
from repro.cutting.executors import branch_output_index
from repro.engine import EngineConfig, ParallelEngine, request_key
from repro.exceptions import CuttingError
from repro.simulator import BranchingSimulator, walk_variant_group
from repro.workloads import make_workload

from exact_oracle import ExactExecutor
from sampling_oracle import ScalarSamplingExecutor
from strategies import (
    assert_tables_bit_identical,
    make_variant,
    mixed_cut_solution,
    sampling_states,
    sampling_variant_groups,
    two_cut_probability_solutions,
)


def _executor(cls, shots, seed, state, variants):
    """A ``cls`` sampling executor with ``state`` applied over ``variants``."""
    executor = cls(shots=shots, seed=seed)
    state.apply(executor, [request_key(variant) for variant in variants])
    return executor


def _assert_matches_oracle(variants, shots, seed, state):
    oracle = _executor(ScalarSamplingExecutor, shots, seed, state, variants)
    batched = _executor(SamplingExecutor, shots, seed, state, variants)
    assert_tables_bit_identical(oracle.run_batch(variants), batched.run_batch(variants))


def _reuse_probability_batch():
    """QFT-5 on a 4-qubit device: wire cuts, half the variants reuse a qubit."""
    workload = make_workload("QFT", 5)
    plan = cut_circuit(workload.circuit, CutConfig(device_size=4))
    reconstructor = CutReconstructor(
        plan.solution, specs=plan.subcircuits, executor=ExactExecutor()
    )
    return reconstructor.enumerate_probability_requests()


def _gate_cut_expectation_batch():
    _, solution, observable = mixed_cut_solution()
    reconstructor = CutReconstructor(solution, executor=ExactExecutor())
    return reconstructor.enumerate_expectation_requests(observable)


# --------------------------------------------------------------------------- bit identity
class TestBitIdentityWithScalarOracle:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(group=sampling_variant_groups())
    def test_walk_rows_equal_scalar_branches(self, group):
        """The rows the sampler draws from are the scalar branch list, bit for bit."""
        for variant, rows in zip(group, walk_variant_group(group)):
            branches = BranchingSimulator().run(variant.circuit).branches
            probabilities = np.array([branch.probability for branch in branches])
            assert rows.prob.tobytes() == probabilities.tobytes()
            assert rows.sign.tolist() == [branch.sign for branch in branches]
            if variant.mode == "probability":
                indexes = [branch_output_index(branch, variant) for branch in branches]
                assert rows.out_index.tolist() == indexes

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        groups=st.lists(sampling_variant_groups(), min_size=1, max_size=3),
        shots=st.integers(min_value=1, max_value=300),
        seed=st.integers(min_value=0, max_value=2**32),
        state=sampling_states,
    )
    def test_random_groups(self, groups, shots, seed, state):
        """Both modes, signed and reset-bearing skeletons, every allocation state."""
        variants = [variant for group in groups for variant in group]
        _assert_matches_oracle(variants, shots, seed, state)

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        solution=two_cut_probability_solutions(),
        seed=st.integers(min_value=0, max_value=2**32),
        state=sampling_states,
    )
    def test_wire_cut_probability_enumerations(self, solution, seed, state):
        reconstructor = CutReconstructor(solution, executor=ExactExecutor())
        variants = reconstructor.enumerate_probability_requests()
        _assert_matches_oracle(variants, 500, seed, state)

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=2**32), state=sampling_states)
    def test_gate_cut_expectation_enumeration(self, seed, state):
        _assert_matches_oracle(_gate_cut_expectation_batch(), 500, seed, state)

    @settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=2**32), state=sampling_states)
    def test_qubit_reuse_enumeration(self, seed, state):
        variants = _reuse_probability_batch()
        assert any(any(op.is_reset for op in v.circuit) for v in variants)
        _assert_matches_oracle(variants, 700, seed, state)

    def test_streaming_prefix_rounds(self):
        """Growing drawn counts under fixed seed shots match the oracle every round."""
        variants = _reuse_probability_batch()
        keys = [request_key(variant) for variant in variants]
        oracle = ScalarSamplingExecutor(shots=10, seed=5)
        batched = SamplingExecutor(shots=10, seed=5)
        for drawn in (50, 150, 400):
            for executor in (oracle, batched):
                executor.set_allocation(
                    {key: drawn for key in keys},
                    stage="stream",
                    seed_shots_by_fingerprint={key: 400 for key in keys},
                )
            assert_tables_bit_identical(oracle.run_batch(variants), batched.run_batch(variants))

    def test_execute_variant_is_a_one_request_batch(self):
        variants = _gate_cut_expectation_batch()[:5]
        oracle = ScalarSamplingExecutor(shots=333, seed=9)
        batched = SamplingExecutor(shots=333, seed=9)
        for variant in variants:
            assert batched.execute_variant(variant).value == oracle.execute_variant(variant).value

    def test_missing_output_tag_raises_the_same_error(self):
        circuit = Circuit(2)
        circuit.h(0).cx(0, 1)
        circuit.measure(0, tag="out:0")
        variant = make_variant(circuit, mode="probability", output=(0, 1))
        messages = []
        for cls in (ScalarSamplingExecutor, SamplingExecutor):
            with pytest.raises(CuttingError) as raised:
                cls(shots=50, seed=1).run_batch([variant])
            messages.append(str(raised.value))
        assert messages[0] == messages[1]
        assert "original qubit 1" in messages[0]


# --------------------------------------------------------------------------- worker copies
#: (allocation, stage, seed shots) states a worker copy must rebuild verbatim.
SPAWN_STATES = {
    "no-allocation": None,
    "empty-with-stage": ({}, "pilot", {"abc": 128}),
    "pilot": ({"abc": 64, "def": 80}, "pilot", None),
    "floor": ({"def": 17}, "", None),
    "streaming": ({"abc": 64}, "stream", {"abc": 512}),
}


class TestWorkerCopies:
    @pytest.mark.parametrize("name", sorted(SPAWN_STATES))
    def test_spawned_copy_matches_parent(self, name):
        parent = SamplingExecutor(shots=2748, seed=1)
        state = SPAWN_STATES[name]
        if state is not None:
            allocation, stage, seed_shots = state
            parent.set_allocation(allocation, stage=stage, seed_shots_by_fingerprint=seed_shots)
        factory, args = parent.spawn_spec()
        copy = factory(*pickle.loads(pickle.dumps(args)))
        for fingerprint in ("abc", "def", "0123456789abcdef" * 2):
            assert copy.seed_for(fingerprint) == parent.seed_for(fingerprint)
            assert copy.cache_key(fingerprint) == parent.cache_key(fingerprint)
            assert copy.shots_for(fingerprint) == parent.shots_for(fingerprint)

    @pytest.mark.parametrize("name", sorted(SPAWN_STATES))
    def test_two_worker_pool_matches_serial(self, name):
        variants = _gate_cut_expectation_batch() + _reuse_probability_batch()
        keys = sorted({request_key(variant) for variant in variants})

        def configured():
            executor = SamplingExecutor(shots=300, seed=3)
            state = SPAWN_STATES[name]
            if state is not None:
                allocation, stage, seed_shots = state
                # Map the symbolic fingerprints onto real ones.
                real = dict(zip(("abc", "def"), keys))
                executor.set_allocation(
                    {real[key]: count for key, count in allocation.items()},
                    stage=stage,
                    seed_shots_by_fingerprint=None
                    if seed_shots is None
                    else {real[key]: count for key, count in seed_shots.items()},
                )
            return executor

        serial = configured().run_batch(variants)
        config = EngineConfig(max_workers=2, chunk_size=7)
        with ParallelEngine(configured(), config) as engine:
            pooled = engine.run_batch(variants)
        assert_tables_bit_identical(serial, pooled)


# --------------------------------------------------------------------------- branch memo
class TestBranchMemo:
    def test_session_over_many_variants_walks_each_once(self, monkeypatch):
        """More unique variants than the old 4096-entry memo: no re-walks across rounds."""
        variants = []
        for index in range(4200):
            circuit = Circuit(1)
            circuit.ry(0.001 * (index + 1), 0)
            circuit.measure(0, tag="out:0")
            variants.append(make_variant(circuit, mode="probability", output=(0,)))
        keys = [request_key(variant) for variant in variants]
        walked = []
        real_walk = sampling_module.walk_variant_group

        def counting_walk(group, *args, **kwargs):
            walked.extend(request_key(variant) for variant in group)
            return real_walk(group, *args, **kwargs)

        monkeypatch.setattr(sampling_module, "walk_variant_group", counting_walk)
        executor = SamplingExecutor(shots=10, seed=2)
        for drawn in (8, 16, 32):
            executor.set_allocation(
                {key: drawn for key in keys},
                seed_shots_by_fingerprint={key: 32 for key in keys},
            )
            table = executor.run_batch(variants)
            assert len(table) == len(keys)
        assert executor.executions == 3 * len(keys)
        assert sorted(walked) == sorted(keys)

    def test_memo_is_bounded_by_rows(self, monkeypatch):
        """Past the row budget the oldest rows go; results stay identical."""
        monkeypatch.setattr(sampling_module, "_BRANCH_MEMO_ROWS", 6)
        variants = _gate_cut_expectation_batch()
        executor = SamplingExecutor(shots=100, seed=4)
        first = executor.run_batch(variants)
        stored = sum(len(rows.prob) for rows in executor._branch_memo.values())
        assert 0 < stored <= 6
        executor.cache.clear()
        assert_tables_bit_identical(first, executor.run_batch(variants))
