"""Shared circuit/solution/table generators for the test suite.

The batched-simulation, contraction and streaming suites grew near-identical
generators independently (random variant groups, hand-built multi-cut
solutions, chunk streams for the moments accumulator).  They live here once:
deterministic builders are plain functions, random ones are hypothesis
strategies.  Import from test modules as ``from strategies import ...`` —
``tests/`` has no ``__init__.py``, so pytest puts it on ``sys.path``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from hypothesis import strategies as st

from repro.circuits import Circuit
from repro.cutting import (
    CutSolution,
    GateCut,
    SubcircuitVariant,
    VariantSettings,
    WireCut,
)
from repro.cutting.executors import _signed_distribution, _signed_value
from repro.simulator import BranchingSimulator
from repro.utils.pauli import PauliObservable, PauliString
from repro.workloads import make_workload

# ----------------------------------------------------------------- gate pools
ONE_QUBIT_GATES = (
    ("h", ()),
    ("x", ()),
    ("s", ()),
    ("sdg", ()),
    ("t", ()),
    ("rx", (0.37,)),
    ("ry", (1.1,)),
    ("rz", (-0.63,)),
    ("p", (0.81,)),
)

TWO_QUBIT_GATES = (
    ("cx", ()),
    ("cz", ()),
    ("rzz", (0.45,)),
    ("cp", (-0.7,)),
)

#: Rotation-angle pool for the random-solution strategies.
angles = st.floats(0.1, 3.0)

#: Chunk streams for the weighted-Welford accumulator: (value, weight) pairs.
moment_chunks = st.lists(
    st.tuples(
        st.floats(min_value=-100, max_value=100),
        st.floats(min_value=0.5, max_value=50),
    ),
    min_size=2,
    max_size=20,
)


# ------------------------------------------------------- variant construction
def make_variant(
    circuit: Circuit, mode: str = "expectation", output=()
) -> SubcircuitVariant:
    """Wrap a bare circuit as a standalone subcircuit variant."""
    return SubcircuitVariant(
        subcircuit_index=0,
        circuit=circuit,
        num_wires=circuit.num_qubits,
        output_qubit_order=tuple(output),
        settings=VariantSettings(),
        mode=mode,
    )


def scalar_reference(variant: SubcircuitVariant):
    """The scalar branching-simulator result a batched path must reproduce."""
    result = BranchingSimulator().run(variant.circuit)
    distribution = (
        _signed_distribution(result, variant) if variant.mode == "probability" else None
    )
    return _signed_value(result), distribution


def assert_tables_bit_identical(left, right) -> None:
    """Two variant-result tables must match key set, values and bytes."""
    assert set(left) == set(right)
    for key, a in left.items():
        b = right[key]
        assert a.value == b.value, f"value mismatch for {key}: {a.value} != {b.value}"
        if a.distribution is None:
            assert b.distribution is None
        else:
            assert a.distribution.tobytes() == b.distribution.tobytes()


def float_bits(value: float) -> bytes:
    """Bytewise view of a scalar, for bit-identity assertions."""
    return np.float64(value).tobytes()


# ------------------------------------------------------ deterministic builders
def two_cut_solution():
    """A 4-qubit circuit with two wire cuts into three subcircuits."""
    circuit = Circuit(4)
    circuit.h(0).ry(0.4, 1).rx(0.7, 2).h(3)
    circuit.cx(0, 1)      # 4
    circuit.rz(0.3, 1)    # 5
    circuit.cz(1, 2)      # 6
    circuit.ry(0.6, 2)    # 7
    circuit.cx(2, 3)      # 8
    circuit.rz(0.9, 3)    # 9
    solution = CutSolution(
        circuit=circuit,
        op_subcircuit={0: 0, 1: 0, 2: 1, 3: 2, 4: 0, 5: 0, 6: 1, 7: 1, 8: 2, 9: 2},
        wire_cuts=[WireCut(qubit=1, downstream_op=6), WireCut(qubit=2, downstream_op=8)],
    )
    return circuit, solution


def mixed_cut_solution():
    """Wire + gate cuts together (expectation-only reconstruction)."""
    circuit = Circuit(4)
    circuit.h(0).h(1).ry(0.3, 2).rx(0.6, 3)
    circuit.cx(0, 1)     # 4
    circuit.cz(1, 2)     # 5: gate cut
    circuit.rz(0.5, 2)   # 6
    circuit.cx(2, 3)     # 7
    solution = CutSolution(
        circuit=circuit,
        op_subcircuit={0: 0, 1: 0, 2: 1, 3: 1, 4: 0, 6: 1, 7: 1},
        gate_cuts=[GateCut(5)],
        gate_cut_placement={5: (0, 1)},
    )
    observable = PauliObservable.from_terms(
        [
            PauliString.from_dict({0: "Z", 3: "Z"}, 1.0),
            PauliString.from_dict({1: "Z", 2: "Z"}, 0.5),
            PauliString.from_dict({2: "X"}, 0.2),
            PauliString.from_dict({}, 0.1),
        ]
    )
    return circuit, solution, observable


def random_angle_chain_solution(num_qubits: int, block: int, rng) -> CutSolution:
    """A block-cut RY/CX/RZ chain with angles drawn from ``rng`` (seedable)."""
    circuit = Circuit(num_qubits)
    op_subcircuit = {}
    wire_cuts = []
    op = 0
    for qubit in range(num_qubits):
        circuit.ry(float(rng.uniform(0.05, 3.0)), qubit)
        op_subcircuit[op] = qubit // block
        op += 1
    for qubit in range(num_qubits - 1):
        circuit.cx(qubit, qubit + 1)
        if (qubit + 1) % block == 0:
            wire_cuts.append(WireCut(qubit=qubit, downstream_op=op))
            op_subcircuit[op] = (qubit + 1) // block
        else:
            op_subcircuit[op] = qubit // block
        op += 1
        circuit.rz(float(rng.uniform(0.05, 3.0)), qubit + 1)
        op_subcircuit[op] = (qubit + 1) // block
        op += 1
    return CutSolution(
        circuit=circuit, op_subcircuit=op_subcircuit, wire_cuts=wire_cuts
    )


def small_workload():
    """The streaming suites' standard finite-shot workload (5-qubit VQE)."""
    return make_workload("VQE", 5, layers=1)


# ----------------------------------------------------------------- strategies
@st.composite
def variant_groups(draw):
    """A group of variants sharing an anchor skeleton, plus unrelated strays.

    The skeleton (two-qubit gates, measurements, resets) is drawn once; every
    variant fills the segments between anchors with its own random single-qubit
    gates (possibly none — ragged alignment is the point).  Measurement tags
    vary per variant (unsigned / signed), covering the per-row sign machinery.
    """
    num_qubits = draw(st.integers(min_value=1, max_value=3))
    num_anchors = draw(st.integers(min_value=0, max_value=4))
    anchors = []
    for _ in range(num_anchors):
        kind = draw(st.sampled_from(["u2", "m", "r"] if num_qubits > 1 else ["m", "r"]))
        if kind == "u2":
            name, params = draw(st.sampled_from(TWO_QUBIT_GATES))
            qubits = draw(st.permutations(range(num_qubits)))[:2]
            anchors.append(("u2", name, tuple(qubits), params))
        else:
            anchors.append((kind, draw(st.integers(0, num_qubits - 1))))
    batch = draw(st.integers(min_value=1, max_value=6))
    variants = []
    for _ in range(batch):
        circuit = Circuit(num_qubits)
        for token in anchors + [None]:
            for _ in range(draw(st.integers(0, 2))):
                name, params = draw(st.sampled_from(ONE_QUBIT_GATES))
                circuit.add(name, [draw(st.integers(0, num_qubits - 1))], params)
            if token is None:
                continue
            if token[0] == "u2":
                circuit.add(token[1], list(token[2]), token[3])
            elif token[0] == "m":
                tag = draw(st.sampled_from([None, "cut:a", "signed:cut:a", "signed:out:0"]))
                circuit.measure(token[1], tag=tag)
            else:
                circuit.reset(token[1], tag="reuse:0")
        variants.append(make_variant(circuit))
    return variants


@st.composite
def two_cut_probability_solutions(draw):
    """A random-angle 3-qubit circuit with two wire cuts on the middle qubit."""
    circuit = Circuit(3)
    circuit.h(0)
    circuit.ry(draw(angles), 1)
    circuit.rx(draw(angles), 2)
    circuit.cx(0, 1)                      # 3
    circuit.rz(draw(angles), 1)           # 4
    circuit.cz(1, 2)                      # 5
    circuit.ry(draw(angles), 2)           # 6
    return CutSolution(
        circuit=circuit,
        op_subcircuit={0: 0, 1: 0, 2: 2, 3: 0, 4: 1, 5: 2, 6: 2},
        wire_cuts=[
            WireCut(qubit=1, downstream_op=4),
            WireCut(qubit=1, downstream_op=5),
        ],
    )


@st.composite
def sampling_variant_groups(draw):
    """A :func:`variant_groups` draw in expectation or probability mode.

    Probability-mode groups append one ``out:`` measurement per drawn output
    qubit to every variant (identically, so the group keeps one skeleton).
    """
    variants = draw(variant_groups())
    if not draw(st.booleans()):
        return variants
    num_qubits = variants[0].circuit.num_qubits
    size = draw(st.integers(min_value=0, max_value=num_qubits))
    output = tuple(draw(st.permutations(range(num_qubits)))[:size])
    grouped = []
    for variant in variants:
        circuit = variant.circuit.copy()
        for qubit in output:
            circuit.measure(qubit, tag=f"out:{qubit}")
        grouped.append(make_variant(circuit, mode="probability", output=output))
    return grouped


@dataclass(frozen=True)
class SamplingState:
    """An allocation state of a sampling executor, applied over request keys.

    ``kind`` is ``"none"`` (default shots), ``"pilot"`` (every request
    allocated under the pilot stage label), ``"floor"`` (half the requests
    allocated, the rest sampled at the allocation floor) or ``"stream"`` (a
    streaming prefix round: drawn counts below the pinned seed shots).
    """

    kind: str
    base: int

    def apply(self, executor, keys: Sequence[str]) -> None:
        unique = list(dict.fromkeys(keys))
        if self.kind == "pilot":
            executor.set_allocation(
                {key: self.base + i for i, key in enumerate(unique)}, stage="pilot"
            )
        elif self.kind == "floor":
            covered = unique[: max(1, len(unique) // 2)]
            executor.set_allocation({key: self.base + i for i, key in enumerate(covered)})
        elif self.kind == "stream":
            executor.set_allocation(
                {key: self.base for key in unique},
                stage="stream",
                seed_shots_by_fingerprint={key: 3 * self.base for key in unique},
            )


#: Allocation states for the sampling bit-identity properties.
sampling_states = st.builds(
    SamplingState,
    kind=st.sampled_from(["none", "pilot", "floor", "stream"]),
    base=st.integers(min_value=1, max_value=200),
)
