"""Tests for the exception hierarchy and its package-level exports."""

import pytest

import repro
from repro import CutConfig, EngineConfig, EvaluationSession, StoppingRule, StreamingConfig
from repro.cutting import BatchedExactExecutor, SamplingExecutor
from repro.engine import DeviceSpec, ParallelEngine
from repro.exceptions import (
    CircuitError,
    ConfigError,
    CuttingError,
    DeviceError,
    InfeasibleError,
    ModelError,
    PruningError,
    ReconstructionError,
    ReproError,
    SearchTimeoutError,
    SimulationError,
    SolverError,
    WorkloadError,
)
from repro.simulator import NoiseModel
from repro.workloads import make_workload


class TestHierarchy:
    @pytest.mark.parametrize(
        "error",
        [
            CircuitError,
            ConfigError,
            CuttingError,
            InfeasibleError,
            ModelError,
            ReconstructionError,
            SearchTimeoutError,
            SimulationError,
            SolverError,
            WorkloadError,
        ],
    )
    def test_everything_derives_from_repro_error(self, error):
        assert issubclass(error, ReproError)
        with pytest.raises(ReproError):
            raise error("boom")

    def test_infeasible_and_timeout_are_solver_errors(self):
        assert issubclass(InfeasibleError, SolverError)
        assert issubclass(SearchTimeoutError, SolverError)
        assert not issubclass(InfeasibleError, SearchTimeoutError)

    def test_public_exports(self):
        for name in ("ReproError", "InfeasibleError", "SearchTimeoutError", "CutConfig",
                     "cut_circuit", "evaluate_workload", "__version__"):
            assert name in repro.__all__ or hasattr(repro, name)


class TestTimeoutPathway:
    def test_zero_time_limit_raises_search_timeout(self):
        """A hopeless time limit must surface as SearchTimeoutError, not a crash."""
        from repro.core import CutConfig, CuttingFormulation
        from repro.workloads import qft_circuit

        formulation = CuttingFormulation(
            qft_circuit(8), CutConfig(device_size=5, max_subcircuits=3, time_limit=1e-4)
        )
        with pytest.raises((SearchTimeoutError, InfeasibleError)):
            formulation.solve_and_decode()


#: The EngineConfig fields a session can override on a shared engine.
SESSION_OVERRIDES = {
    "shots",
    "allocation",
    "pruning",
    "streaming",
    "stopping",
    "qubit_limit",
    "recursion_depth",
    "optimize_overhead",
}


def _bad(error, **knobs):
    return pytest.param(knobs, error, id="+".join(f"{k}={v!r}" for k, v in knobs.items()))


#: Every bad engine knob and the one error type it raises, wherever it is set.
#: Pruning policies and device fleets are checked by their own objects.
BAD_KNOBS = [
    _bad(ConfigError, max_workers=0),
    _bad(ConfigError, chunk_size=0),
    _bad(ConfigError, cache_size=-1),
    _bad(ConfigError, contraction="dense"),
    _bad(ConfigError, contraction_workers=0),
    _bad(ConfigError, routing="random"),
    _bad(DeviceError, devices=()),
    _bad(ConfigError, seed=1),
    _bad(ConfigError, shots=0),
    _bad(ConfigError, shots=8, allocation="greedy"),
    _bad(PruningError, pruning="top_k"),
    _bad(ConfigError, shots=8, streaming=4),
    _bad(ConfigError, shots=8, stopping="soon"),
    _bad(ConfigError, streaming=StreamingConfig()),
    _bad(ConfigError, stopping=StoppingRule(max_rounds=1)),
    _bad(ConfigError, qubit_limit=0),
    _bad(ConfigError, qubit_limit=2, recursion_depth=0),
    _bad(ConfigError, recursion_depth=2),
    _bad(ConfigError, optimize_overhead="always"),
]


class TestConfigErrors:
    """One configuration mistake, one error type: EngineConfig or session."""

    @pytest.fixture
    def probability_case(self):
        return make_workload("QFT", 4), CutConfig(device_size=3)

    @pytest.mark.parametrize("knobs, error", BAD_KNOBS)
    def test_engine_config_raises(self, knobs, error):
        with pytest.raises(error):
            EngineConfig(**knobs)

    @pytest.mark.parametrize(
        "knobs, error", [case for case in BAD_KNOBS if set(case.values[0]) <= SESSION_OVERRIDES]
    )
    def test_session_override_raises_the_same_type(self, knobs, error, probability_case):
        workload, config = probability_case
        shared = ParallelEngine(SamplingExecutor(shots=16, seed=0))
        with pytest.raises(error):
            EvaluationSession(workload, config, engine=shared, **knobs)

    def test_engine_and_executor_together(self, probability_case):
        workload, config = probability_case
        with pytest.raises(ConfigError, match="not both"):
            EvaluationSession(
                workload,
                config,
                engine=ParallelEngine(BatchedExactExecutor()),
                executor=BatchedExactExecutor(),
            )

    def test_shots_need_a_sampling_executor(self, probability_case):
        workload, config = probability_case
        with pytest.raises(ConfigError, match="sampling-capable"):
            EvaluationSession(
                workload,
                config,
                executor=BatchedExactExecutor(),
                engine_config=EngineConfig(shots=8),
            )
        with pytest.raises(ConfigError, match="sampling-capable"):
            EvaluationSession(
                workload, config, engine=ParallelEngine(BatchedExactExecutor()), shots=8
            )

    def test_shots_on_a_heterogeneous_farm(self, probability_case):
        workload, config = probability_case
        noisy = (DeviceSpec("noisy", 3, noise=NoiseModel(0.01, 0.001, 0.0)),)
        with pytest.raises(ConfigError, match="heterogeneous"):
            EvaluationSession(
                workload, config, engine_config=EngineConfig(shots=8, seed=1, devices=noisy)
            )

    def test_qubit_limit_on_an_expectation_workload(self):
        with pytest.raises(ConfigError, match="qubit_limit"):
            EvaluationSession(
                make_workload("VQE", 4, layers=1),
                CutConfig(device_size=3),
                engine_config=EngineConfig(qubit_limit=2),
            )

    def test_gate_cuts_on_a_probability_workload_are_a_cutting_error(self):
        # A cut-search setting, not an engine knob.
        with pytest.raises(CuttingError, match="gate cutting"):
            EvaluationSession(
                make_workload("QFT", 4), CutConfig(device_size=3, enable_gate_cuts=True)
            )
