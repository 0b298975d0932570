"""Seeded inputs of the three benchmark workloads.

Everything a run sends to the program is built here from the workload seed:
circuits, QAOA angles, sampling seeds, cut and engine configurations.  The
seed changes angles and sampling seeds only, never circuit structure, so the
cut plans, variant counts and shot counts are the same for every seed and the
timing spread across seeds reflects the machine, not the inputs.

Importing this module imports ``repro``; ``run.py`` and ``setup_probe.py`` put
the checkout's ``src`` directory on ``sys.path`` first.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import networkx as nx
import numpy as np

from repro import (
    CutConfig,
    EngineConfig,
    ParallelEngine,
    StoppingRule,
    StreamingConfig,
)
from repro.circuits import Circuit
from repro.cutting import SamplingExecutor
from repro.engine import ResultCache
from repro.workloads import Workload, WorkloadKind, make_ising, maxcut_observable, qaoa_circuit
from repro.workloads.qft import qft_circuit

WORKLOADS = ("exact-prob", "shots-mixed", "service-stream")

#: Cut-search wall-clock limit.  Every instance below solves in under 2 s on a
#: 2-vCPU VM; a plan whose ``solve_time`` reaches this limit is a failure.
CUT_TIME_LIMIT = 120.0

#: Shots per service-stream session and its round plan.
STREAM_SHOTS = 65_536
STREAM_ROUNDS = 16
#: Rounds a stream session must complete before its target may fire.
STREAM_MIN_ROUNDS = 4
#: Target CI half-width as a share of the observable's coefficient 1-norm (the
#: largest |<O>| can be).  Loose enough that every session meets it at
#: ``STREAM_MIN_ROUNDS`` on every seed, so shots spent do not depend on the seed.
STREAM_TARGET_SHARE = 0.25


def engine_workers() -> int:
    """Worker count of the exact-prob engine: 2, but never more than nproc."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


@dataclass
class Request:
    """One ``evaluate_workload`` call (exact-prob and shots-mixed)."""

    label: str
    workload: Workload
    cut_config: CutConfig
    engine_config: EngineConfig


@dataclass
class Submission:
    """One tenant's session in a service-stream wave."""

    label: str
    tenant: str
    workload: Workload
    cut_config: CutConfig
    kwargs: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Inputs:
    """Everything one pass of a workload runs; identical for every pass."""

    workload: str
    requests: List[Request] = field(default_factory=list)
    wave: List[Submission] = field(default_factory=list)
    executor_seed: Optional[int] = None
    #: Processes that compute at once: the run pins itself to this many CPUs.
    workers: int = 1

    def build_engine(self) -> Optional[ParallelEngine]:
        """The shared engine of a service-stream pass (``None`` elsewhere)."""
        if self.executor_seed is None:
            return None
        executor = SamplingExecutor(
            shots=STREAM_SHOTS, seed=self.executor_seed, cache=ResultCache()
        )
        return ParallelEngine(executor, EngineConfig(max_workers=1))

    def workloads(self) -> Dict[str, Workload]:
        """Distinct circuits by label, for the reference simulation."""
        items = [(r.label, r.workload) for r in self.requests]
        items += [(s.label, s.workload) for s in self.wave]
        return dict(items)


def seeded_qft(num_qubits: int, rng: np.random.Generator) -> Workload:
    """QFT whose Hadamards become seeded ``ry`` rotations.

    The gate sequence and qubit pairs are the QFT's, so the cut search sees the
    same structure on every seed, but the output distribution is not uniform
    and differs per seed, which makes the exact check meaningful.
    """
    circuit = Circuit(num_qubits, f"qft_{num_qubits}_ry")
    for op in qft_circuit(num_qubits).operations:
        if op.name == "h":
            circuit.ry(float(rng.uniform(0.2, math.pi - 0.2)), op.qubits[0])
        else:
            circuit.append(op)
    return Workload(
        name="seeded_qft",
        acronym="QFT",
        circuit=circuit,
        kind=WorkloadKind.PROBABILITY,
        params={"N": num_qubits},
    )


def ring_qaoa(num_nodes: int, rng: np.random.Generator) -> Workload:
    """Depth-1 QAOA MaxCut on a ring, angles drawn from ``rng``."""
    graph = nx.cycle_graph(num_nodes)
    gamma = float(rng.uniform(0.1, math.pi / 2))
    beta = float(rng.uniform(0.1, math.pi / 2))
    return Workload(
        name="qaoa_maxcut_ring",
        acronym="REG",
        circuit=qaoa_circuit(graph, gammas=[gamma], betas=[beta]),
        kind=WorkloadKind.EXPECTATION,
        observable=maxcut_observable(graph),
        params={"N": num_nodes, "gamma": gamma, "beta": beta},
    )


def cut_config(device_size: int, **overrides: Any) -> CutConfig:
    return CutConfig(device_size=device_size, time_limit=CUT_TIME_LIMIT, **overrides)


def stream_kwargs(workload: Workload) -> Dict[str, Any]:
    norm = sum(abs(term.coefficient) for term in workload.observable.terms)
    return {
        "compute_reference": False,
        "streaming": StreamingConfig(rounds=STREAM_ROUNDS),
        "stopping": StoppingRule(
            target_half_width=STREAM_TARGET_SHARE * norm,
            min_rounds=STREAM_MIN_ROUNDS,
            max_rounds=STREAM_ROUNDS,
        ),
    }


def make_inputs(workload: str, seed: int) -> Inputs:
    """Build the named workload's pass inputs from ``seed``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])

    def sampling_seed() -> int:
        return int(rng.integers(2**31))

    inputs = Inputs(workload)
    if workload == "exact-prob":
        # Wire cuts only: 4 cuts each, 512 unique variants from 3,200
        # enumerated requests, widths 6, 4 and 3.
        inputs.workers = engine_workers()
        exact = EngineConfig(max_workers=inputs.workers)
        inputs.requests = [
            Request("qft8-d6", seeded_qft(8, rng), cut_config(6, max_subcircuits=2), exact),
            Request("qft6-d4", seeded_qft(6, rng), cut_config(4, max_subcircuits=2), exact),
            Request("qft5-d3", seeded_qft(5, rng), cut_config(3, max_subcircuits=2), exact),
        ]
    elif workload == "shots-mixed":
        qft = seeded_qft(5, rng)
        qft_cut = cut_config(3, max_subcircuits=2)
        inputs.requests = [
            Request(
                "qft5-d3-uniform",
                qft,
                qft_cut,
                EngineConfig(shots=20_000, seed=sampling_seed(), allocation="uniform"),
            ),
            Request(
                "qft5-d3-variance",
                qft,
                qft_cut,
                EngineConfig(shots=20_000, seed=sampling_seed(), allocation="variance"),
            ),
            Request(
                "is6-d4-weights",
                make_ising(6),
                cut_config(4, enable_gate_cuts=True),
                EngineConfig(shots=16_384, seed=sampling_seed(), optimize_overhead="weights"),
            ),
        ]
    elif workload == "service-stream":
        ring6 = ring_qaoa(6, rng)
        ring7 = ring_qaoa(7, rng)
        inputs.executor_seed = sampling_seed()
        inputs.wave = [
            Submission("ring6-d4", "t0", ring6, cut_config(4)),
            Submission("ring7-d5", "t1", ring7, cut_config(5)),
            Submission("is5-d3", "t2", make_ising(5), cut_config(3, enable_gate_cuts=True)),
            # Same circuit and budget as t1: the shared cache serves its rounds.
            Submission("ring7-d5", "t3", ring7, cut_config(5)),
        ]
        for submission in inputs.wave:
            submission.kwargs = stream_kwargs(submission.workload)
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return inputs
