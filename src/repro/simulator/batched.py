"""Batched vectorized simulation of structurally aligned circuit variants.

QRCC's hot loop executes the ``4^(wire cuts) x 6^(gate cuts)`` subcircuit
variants of each fragment.  Variants of one fragment share their two-qubit
gates and their measurement/reset skeleton; they differ only in *single-qubit*
gates — wire-cut initialisation labels, measurement-basis rotations, gate-cut
instance actions and observable-term rotations.  Instead of walking every
variant through the scalar branching simulator one gate application at a time,
this module stacks a whole group into a single ``(batch, 2**n)`` complex array
and applies each gate to all batch rows at once.

**Alignment model.**  A circuit is parsed into *anchors* (two-qubit gates,
measurements, resets — :func:`variant_group_key` hashes this skeleton) and the
single-qubit *segments* between them.  Circuits group together exactly when
their anchor skeletons are equal.  Within a segment, each variant's 1q gates
form per-wire runs; the runs of all variants are merged into a common
supersequence of *slots* and padded with identity gates, so every variant's own
gates are applied in its own program order while the whole batch advances
through one shared slot program.  Slots where every variant applies the same
matrix run as a single shared gate; diverging slots run with a per-row
``(batch, 2, 2)`` matrix stack.

**Bitwise contract.**  Row ``b`` of a batched run is bit-identical to running
variant ``b`` alone through :class:`~repro.simulator.dynamic.BranchingSimulator`:
both paths share the elementwise gate kernel of
:mod:`repro.simulator.statevector` (fixed IEEE operation order per amplitude,
independent of batch shape), measurement/reset projection probabilities are
reduced with the same per-row 1-D summation the scalar ``_project`` uses (axis
reductions are *not* bitwise-stable in NumPy, per-row sums are), branch rows are
interleaved in the scalar enumeration order (outcome 0 then 1 per parent, dead
branches dropped), and the final per-variant value/distribution accumulate in
the same left-to-right order.  :func:`walk_variant_group` exposes the surviving
branch rows themselves (probability, sign, output index); exact extraction and
finite-shot sampling both read them.  Identity padding can flip the sign of exactly-zero
amplitudes, which is invisible to every output (probabilities are ``|amp|**2``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..circuits import Circuit
from ..circuits.gates import SINGLE_QUBIT_GATES
from ..exceptions import SimulationError
from ..utils.pauli import PauliObservable, PauliString, init_state_vector
from .dynamic import _DEFAULT_PRUNE_THRESHOLD, _FLIP, SIGNED_MEASUREMENT_PREFIX
from .statevector import (
    _PAULI_MATRICES,
    Statevector,
    _apply_matrix,
    _validate_gate,
    _validate_size,
)

__all__ = [
    "BatchedStatevector",
    "BranchRows",
    "simulate_batch",
    "simulate_variant_group",
    "variant_group_key",
    "walk_variant_group",
    "branch_bound",
]

_IDENTITY_2 = np.eye(2, dtype=complex)

#: Measurement tags of this form mark an original-output qubit whose outcome
#: enters the probability-mode quasi-distribution index.
_OUTPUT_TAG_PREFIX = "out:"

#: Memoised gate matrices keyed by (name, params).  Parameterised gates rebuild
#: their matrix on every Operation.matrix() call; variants of one fragment
#: repeat the same few gates hundreds of times, so interning them here both
#: removes that cost and lets slot alignment detect shared gates by object
#: identity.  Entries are never mutated (the kernels only read coefficients).
_MATRIX_CACHE: Dict[Tuple, np.ndarray] = {}  # qrcclint: disable=mutable-default-arg -- deliberate process-local memo: keyed deterministically, entries immutable once stored, bounded by _MATRIX_CACHE_LIMIT
_MATRIX_CACHE_LIMIT = 4096


def _gate_matrix(op: Any) -> np.ndarray:
    key = (op.name, op.params)
    matrix = _MATRIX_CACHE.get(key)
    if matrix is None:
        if len(_MATRIX_CACHE) >= _MATRIX_CACHE_LIMIT:
            _MATRIX_CACHE.clear()
        matrix = op.matrix()
        _MATRIX_CACHE[key] = matrix
    return matrix


# --------------------------------------------------------------------------- parsing
@dataclass
class _ParsedCircuit:
    """One circuit split into its anchor skeleton and 1q segments.

    ``anchors`` is the hashable token sequence (two-qubit gates with name,
    operands and parameters; measurements and resets with their qubit);
    ``segments`` has one entry per gap around the anchors, each a list of
    per-wire runs ``(qubit, [matrix, ...])`` in program order; ``measure_tags``
    carries each measure anchor's tag (None elsewhere) so callers can recover
    signedness and output positions per variant.
    """

    num_qubits: int
    anchors: Tuple[Tuple, ...]
    segments: List[List[Tuple[int, List[np.ndarray]]]]
    anchor_matrices: List[Optional[np.ndarray]]
    measure_tags: List[Optional[str]]


def _parse_circuit(circuit: Circuit) -> _ParsedCircuit:
    """Split ``circuit`` into anchors and aligned 1q segments (matrices hoisted).

    The result is memoised on the circuit object (variant circuits are immutable
    once built, like their fingerprints): one batch walks each circuit through
    engine grouping, executor grouping and the group simulation, and only the
    first caller pays the parse.  An operation-count guard invalidates the
    cache if a caller does mutate the circuit afterwards.
    """
    cached = getattr(circuit, "_parsed_structure", None)
    if cached is not None and cached[0] == len(circuit):
        return cached[1]
    parsed = _parse_circuit_uncached(circuit)
    try:
        circuit._parsed_structure = (len(circuit), parsed)
    except AttributeError:  # pragma: no cover - slotted/frozen circuit stand-ins
        pass
    return parsed


def _parse_circuit_uncached(circuit: Circuit) -> _ParsedCircuit:
    num_qubits = circuit.num_qubits
    _validate_size(num_qubits)
    anchors: List[Tuple] = []
    segments: List[List[Tuple[int, List[np.ndarray]]]] = []
    anchor_matrices: List[Optional[np.ndarray]] = []
    measure_tags: List[Optional[str]] = []
    segment: List[Tuple[int, List[np.ndarray]]] = []
    for op in circuit:
        if op.name in SINGLE_QUBIT_GATES:
            qubit = op.qubits[0]
            matrix = _gate_matrix(op)
            if segment and segment[-1][0] == qubit:
                segment[-1][1].append(matrix)
            else:
                segment.append((qubit, [matrix]))
            continue
        if op.is_unitary:
            anchors.append(("u2", op.name, op.qubits, op.params))
            matrix = _gate_matrix(op)
            _validate_gate(matrix, op.qubits, num_qubits)
            anchor_matrices.append(matrix)
            measure_tags.append(None)
        elif op.is_measurement:
            anchors.append(("m", op.qubits[0]))
            anchor_matrices.append(None)
            measure_tags.append(op.tag)
        elif op.is_reset:
            anchors.append(("r", op.qubits[0]))
            anchor_matrices.append(None)
            measure_tags.append(None)
        else:  # pragma: no cover - defensive, Operation validates names
            raise SimulationError(f"unsupported operation {op.name!r}")
        segments.append(segment)
        segment = []
    segments.append(segment)
    return _ParsedCircuit(num_qubits, tuple(anchors), segments, anchor_matrices, measure_tags)


def variant_group_key(circuit: Circuit) -> Tuple:
    """Hashable structure key: circuits with equal keys can share a batched pass.

    The key covers the qubit count and the anchor skeleton (two-qubit gates with
    their operands and parameters, measurement and reset positions).  It ignores
    the single-qubit gates between anchors — exactly the part that varies across
    a fragment's cut-setting variants — and the measurement tags, whose
    signedness and output bookkeeping are handled per batch row.
    """
    parsed = _parse_circuit(circuit)
    return (parsed.num_qubits, parsed.anchors)


def branch_bound(circuit: Circuit) -> int:
    """Worst-case measurement-branch count of one circuit (``2**branch points``).

    Used by the batched executor to size sub-batches.  The exponent is capped
    at 12: the true branch count is usually far below the worst case
    (deterministic outcomes prune half the tree at each measurement), and an
    uncapped bound would collapse every measurement-heavy group to batch size
    one for no real memory saving.  This makes the value a sizing estimate,
    not a hard cap — a group that genuinely fans out past ``2**12`` branches
    uses the same row memory the scalar simulator's branch list would.
    """
    points = sum(1 for op in circuit if not op.is_unitary)
    return 2 ** min(points, 12)


def _merge_supersequence(base: List[int], sequence: List[int]) -> List[int]:
    """A common supersequence of ``base`` and ``sequence`` (both orders preserved)."""
    merged: List[int] = []
    i = 0
    for item in sequence:
        while i < len(base) and base[i] != item:
            merged.append(base[i])
            i += 1
        if i < len(base):
            i += 1
        merged.append(item)
    merged.extend(base[i:])
    return merged


def _segment_steps(
    segments: Sequence[List[Tuple[int, List[np.ndarray]]]],
) -> List[Tuple[str, int, np.ndarray]]:
    """Aligned slot program for one segment across all variants.

    Returns steps ``("g", qubit, (2, 2) matrix)`` for slots where every variant
    applies the same gate, and ``("gv", qubit, (batch, 2, 2) stack)`` where they
    diverge (identity-padded).  Each variant's own gates keep their program
    order: slots form a supersequence of every variant's per-wire run sequence.
    """
    slots: List[int] = []
    for runs in segments:
        slots = _merge_supersequence(slots, [qubit for qubit, _ in runs])
    assigned: List[List[Optional[List[np.ndarray]]]] = []
    for runs in segments:
        row: List[Optional[List[np.ndarray]]] = [None] * len(slots)
        position = 0
        for qubit, matrices in runs:
            while slots[position] != qubit:
                position += 1
            row[position] = matrices
            position += 1
        assigned.append(row)
    steps: List[Tuple[str, int, np.ndarray]] = []
    for slot, qubit in enumerate(slots):
        depth = max(len(row[slot]) if row[slot] else 0 for row in assigned)
        for layer in range(depth):
            matrices = [
                row[slot][layer] if row[slot] and layer < len(row[slot]) else None
                for row in assigned
            ]
            first = next(m for m in matrices if m is not None)
            if all(
                m is not None and (m is first or np.array_equal(m, first))
                for m in matrices
            ):
                steps.append(("g", qubit, first))
            else:
                stack = np.stack(
                    [_IDENTITY_2 if m is None else m for m in matrices]
                ).astype(complex)
                steps.append(("gv", qubit, stack))
    return steps


# --------------------------------------------------------------------------- batched state
class BatchedStatevector:
    """A stack of pure states on ``num_qubits`` qubits, evolved together.

    ``data`` has shape ``(batch, 2**num_qubits)``; row ``b`` is one statevector
    under the same LSB-first basis convention as :class:`Statevector`.  Gate
    application is vectorized across the batch through the shared elementwise
    kernel, so evolving a batch is bit-identical, row for row, to evolving each
    state alone.
    """

    def __init__(self, data: np.ndarray, num_qubits: Optional[int] = None) -> None:
        data = np.asarray(data, dtype=complex)
        if data.ndim != 2:
            raise SimulationError(
                f"BatchedStatevector expects a (batch, 2**n) array, got shape {data.shape}"
            )
        inferred = int(np.log2(data.shape[1])) if data.shape[1] else 0
        if 2**inferred != data.shape[1]:
            raise SimulationError(
                f"statevector length {data.shape[1]} is not a power of two"
            )
        if num_qubits is not None and num_qubits != inferred:
            raise SimulationError(
                f"statevector length {data.shape[1]} does not match {num_qubits} qubits"
            )
        _validate_size(inferred)
        self._data = data
        self._num_qubits = inferred

    # ------------------------------------------------------------------ constructors
    @staticmethod
    def zero_states(batch: int, num_qubits: int) -> "BatchedStatevector":
        """``batch`` copies of ``|0...0>`` on ``num_qubits`` qubits."""
        if batch < 1:
            raise SimulationError(f"batch must be >= 1, got {batch}")
        _validate_size(num_qubits)
        data = np.zeros((batch, 2**num_qubits), dtype=complex)
        data[:, 0] = 1.0
        return BatchedStatevector(data)

    @staticmethod
    def from_labels(labels_batch: Sequence[Sequence[str]]) -> "BatchedStatevector":
        """One product state per row from per-qubit labels (``labels[0]`` = qubit 0)."""
        if not labels_batch:
            raise SimulationError("labels_batch must contain at least one label row")
        rows = []
        for labels in labels_batch:
            state = np.array([1.0 + 0.0j])
            for label in labels:
                state = np.kron(init_state_vector(label), state)
            rows.append(state)
        if len({row.shape for row in rows}) != 1:
            raise SimulationError("all label rows must describe the same qubit count")
        return BatchedStatevector(np.stack(rows))

    # ------------------------------------------------------------------ accessors
    @property
    def batch_size(self) -> int:
        return self._data.shape[0]

    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    @property
    def data(self) -> np.ndarray:
        return self._data

    def row(self, index: int) -> Statevector:
        """The single :class:`Statevector` at batch position ``index``."""
        return Statevector(self._data[index].copy())

    # ------------------------------------------------------------------ evolution
    def apply_gate(self, matrix: np.ndarray, qubits: Sequence[int]) -> "BatchedStatevector":
        """Apply one gate to every row; ``matrix`` may be shared ``(2**k, 2**k)``
        or a per-row ``(batch, 2**k, 2**k)`` stack.  Returns a new instance."""
        _validate_gate(matrix, qubits, self._num_qubits)
        if matrix.ndim == 3 and matrix.shape[0] != self.batch_size:
            raise SimulationError(
                f"per-row matrix stack has {matrix.shape[0]} entries for a batch "
                f"of {self.batch_size} states"
            )
        return BatchedStatevector(
            _apply_matrix(self._data, matrix, qubits, self._num_qubits)
        )

    def evolved(self, circuit: Circuit) -> "BatchedStatevector":
        """Apply every unitary of ``circuit`` to all rows (validated once)."""
        if circuit.num_qubits != self._num_qubits:
            raise SimulationError(
                f"circuit has {circuit.num_qubits} qubits but states have "
                f"{self._num_qubits}"
            )
        data = self._data
        for op in circuit:
            if not op.is_unitary:
                raise SimulationError(
                    "BatchedStatevector.evolved only handles unitary circuits; use "
                    "simulate_variant_group for circuits with measure/reset"
                )
            matrix = op.matrix()
            _validate_gate(matrix, op.qubits, self._num_qubits)
            data = _apply_matrix(data, matrix, op.qubits, self._num_qubits)
        return BatchedStatevector(data)

    # ------------------------------------------------------------------ extraction
    def probabilities(self) -> np.ndarray:
        """Per-row computational-basis probabilities, shape ``(batch, 2**n)``."""
        return np.abs(self._data) ** 2

    def marginal_probabilities(self, qubits: Sequence[int]) -> np.ndarray:
        """Per-row marginal over ``qubits`` (``qubits[0]`` = LSB of the result index).

        Vectorized across the whole batch: one reshape/sum instead of a Python
        loop over ``2**n`` outcomes per row.
        """
        n = self._num_qubits
        batch = self.batch_size
        probs = self.probabilities().reshape((batch,) + (2,) * n)
        keep = [1 + n - 1 - q for q in qubits]
        drop = [axis for axis in range(1, n + 1) if axis not in keep]
        marginal = probs.sum(axis=tuple(drop)) if drop else probs  # qrcclint: disable=unstable-reduction -- diagnostics-only marginal (never enters reconstruction); the bit-exact paths use the per-row 1-D sums below
        # Remaining axes sit in ascending original order; rearrange them to
        # (qubits[m-1], ..., qubits[0]) so qubits[0] flattens to the LSB.
        remaining = sorted(keep)
        order = [0] + [remaining.index(axis) + 1 for axis in reversed(keep)]
        marginal = np.transpose(marginal, order)
        return np.ascontiguousarray(marginal.reshape(batch, -1))

    def expectation_pauli_string(self, term: PauliString) -> np.ndarray:
        """Per-row exact expectation of one (weighted) Pauli string, shape ``(batch,)``."""
        transformed = self._data
        for qubit, label in term.paulis:
            transformed = _apply_matrix(
                transformed, _PAULI_MATRICES[label], (qubit,), self._num_qubits
            )
        values = np.sum(np.conj(self._data) * transformed, axis=1)  # qrcclint: disable=unstable-reduction -- per-row axis-1 sum over contiguous rows: fixed shape and stride for every variant in the batch, matching the scalar path's 1-D np.sum bit for bit
        return term.coefficient * values.real

    def expectation(self, observable: PauliObservable) -> np.ndarray:
        """Per-row exact expectation of a Pauli-sum observable, shape ``(batch,)``."""
        total = np.zeros(self.batch_size)
        for term in observable.terms:
            total = total + self.expectation_pauli_string(term)
        return total

    def __repr__(self) -> str:  # pragma: no cover - display helper
        return (
            f"BatchedStatevector(batch={self.batch_size}, num_qubits={self._num_qubits})"
        )


def simulate_batch(
    circuits: Sequence[Circuit],
    initial_labels: Optional[Sequence[Sequence[str]]] = None,
) -> BatchedStatevector:
    """Simulate a batch of structurally aligned unitary circuits in one pass.

    All ``circuits`` must share a :func:`variant_group_key` (same qubit count,
    same two-qubit-gate skeleton) and contain no measurements or resets; the
    single-qubit gates may differ freely.  ``initial_labels`` optionally gives
    one per-qubit label row per circuit (default ``|0...0>``).  Row ``b`` of the
    result is bit-identical to ``simulate_statevector(circuits[b], ...)``.
    """
    if not circuits:
        raise SimulationError("simulate_batch needs at least one circuit")
    parsed = [_parse_circuit(circuit) for circuit in circuits]
    reference = parsed[0]
    for item in parsed[1:]:
        if (item.num_qubits, item.anchors) != (reference.num_qubits, reference.anchors):
            raise SimulationError(
                "simulate_batch requires structurally aligned circuits (equal "
                "variant_group_key); group circuits before batching"
            )
    for token in reference.anchors:
        if token[0] != "u2":
            raise SimulationError(
                "simulate_batch only handles unitary circuits; use "
                "simulate_variant_group for measure/reset"
            )
    if initial_labels is None:
        states = BatchedStatevector.zero_states(len(circuits), reference.num_qubits)
    else:
        if len(initial_labels) != len(circuits):
            raise SimulationError("initial_labels must have one label row per circuit")
        states = BatchedStatevector.from_labels(initial_labels)
        if states.num_qubits != reference.num_qubits:
            raise SimulationError("initial_labels must have one label per qubit")
    data = states.data
    num_qubits = reference.num_qubits
    for index in range(len(reference.anchors) + 1):
        # With unitary-only circuits rows never split, so a "gv" per-variant
        # stack is already a per-row stack — apply either kind directly.
        for _, qubit, matrix in _segment_steps([item.segments[index] for item in parsed]):
            data = _apply_matrix(data, matrix, (qubit,), num_qubits)
        if index < len(reference.anchors):
            token = reference.anchors[index]
            data = _apply_matrix(
                data, reference.anchor_matrices[index], token[2], num_qubits
            )
    return BatchedStatevector(data)


# --------------------------------------------------------------------------- group runner
class BranchRows(NamedTuple):
    """The surviving measurement branches of one variant, as parallel arrays.

    Rows follow the scalar :class:`~repro.simulator.dynamic.BranchingSimulator`
    enumeration order (outcome 0 before 1 at every split, pruned branches
    dropped).  ``prob`` holds each branch's probability — the scalar product
    ``parent * conditional``, bit for bit — ``sign`` its cumulative ±1 outcome
    sign, and ``out_index`` the basis index of its recorded ``out:`` outcomes
    over the variant's ``output_qubit_order`` (0 when nothing is recorded).
    """

    prob: np.ndarray
    sign: np.ndarray
    out_index: np.ndarray


def walk_variant_group(
    variants: Sequence,
    prune_threshold: float = _DEFAULT_PRUNE_THRESHOLD,
) -> List[BranchRows]:
    """Walk a group of same-structure subcircuit variants in one batched pass.

    ``variants`` are duck-typed (``circuit`` and, optionally,
    ``output_qubit_order`` attributes — canonically
    :class:`repro.cutting.variants.SubcircuitVariant`) and must share a
    :func:`variant_group_key`.  Returns one :class:`BranchRows` per variant, in
    order; each row set is bit-identical to the branches the scalar simulator
    enumerates for that variant alone.  Exact extraction
    (:func:`simulate_variant_group`) and finite-shot sampling
    (:class:`~repro.cutting.sampling.SamplingExecutor`) both consume these rows.
    """
    if not variants:
        return []
    parsed = [_parse_circuit(variant.circuit) for variant in variants]
    reference = parsed[0]
    for item in parsed[1:]:
        if (item.num_qubits, item.anchors) != (reference.num_qubits, reference.anchors):
            raise SimulationError(
                "a batched group walk requires variants sharing a "
                "variant_group_key; group requests before batching"
            )
    num_qubits = reference.num_qubits
    dim = 2**num_qubits
    batch = len(variants)

    # Per-(anchor, variant) measurement bookkeeping: sign flips and output bits.
    num_anchors = len(reference.anchors)
    signed_flags = np.zeros((num_anchors, batch), dtype=bool)
    out_positions = np.full((num_anchors, batch), -1, dtype=np.int64)
    for column, (variant, item) in enumerate(zip(variants, parsed)):
        order = {
            qubit: position
            for position, qubit in enumerate(getattr(variant, "output_qubit_order", ()))
        }
        for anchor, tag in enumerate(item.measure_tags):
            if tag is None:
                continue
            if tag.startswith(SIGNED_MEASUREMENT_PREFIX):
                signed_flags[anchor, column] = True
            elif tag.startswith(_OUTPUT_TAG_PREFIX):
                try:
                    original = int(tag[len(_OUTPUT_TAG_PREFIX) :])
                except ValueError:
                    continue
                out_positions[anchor, column] = order.get(original, -1)

    # Row state: the living branches of every variant, interleaved in scalar
    # enumeration order (variants stay contiguous and ordered throughout).
    states = np.zeros((batch, dim), dtype=complex)
    states[:, 0] = 1.0
    prob = np.ones(batch, dtype=np.float64)
    sign = np.ones(batch, dtype=np.int64)
    variant_of = np.arange(batch, dtype=np.int64)
    out_index = np.zeros(batch, dtype=np.int64)

    for anchor in range(num_anchors + 1):
        steps = _segment_steps([item.segments[anchor] for item in parsed])
        for kind, qubit, matrix in steps:
            if kind == "gv":
                matrix = matrix[variant_of]
            states = _apply_matrix(states, matrix, (qubit,), num_qubits)
        if anchor == num_anchors:
            break
        token = reference.anchors[anchor]
        if token[0] == "u2":
            states = _apply_matrix(
                states, reference.anchor_matrices[anchor], token[2], num_qubits
            )
            continue
        qubit = token[1]
        states, prob, sign, variant_of, out_index = _branch_rows(
            states,
            prob,
            sign,
            variant_of,
            out_index,
            qubit,
            num_qubits,
            prune_threshold,
            is_reset=(token[0] == "r"),
            signed=signed_flags[anchor],
            out_position=out_positions[anchor],
        )

    boundaries = np.searchsorted(variant_of, np.arange(batch + 1)).tolist()
    return [
        BranchRows(prob[start:stop], sign[start:stop], out_index[start:stop])
        for start, stop in zip(boundaries[:-1], boundaries[1:])
    ]


def simulate_variant_group(
    variants: Sequence,
    prune_threshold: float = _DEFAULT_PRUNE_THRESHOLD,
) -> List[Tuple[float, Optional[np.ndarray]]]:
    """Exact values of a group of same-structure variants, from one batched walk.

    Takes the same ``variants`` as :func:`walk_variant_group` (plus their
    ``mode``).  Returns, per variant and in order, ``(value, distribution)``:
    the sign-weighted expectation of the recorded measurement signs and, for
    ``"probability"``-mode variants, the sign-weighted quasi-distribution over
    the variant's output qubits (``None`` otherwise) — bit-identical to what
    the scalar :class:`~repro.simulator.dynamic.BranchingSimulator` pipeline
    produces for each variant alone.
    """
    results: List[Tuple[float, Optional[np.ndarray]]] = []
    for variant, rows in zip(variants, walk_variant_group(variants, prune_threshold)):
        # Mirrors the scalar accumulation order exactly: Python-float
        # left-to-right sums, rows in enumeration order.
        contributions = (rows.sign * rows.prob).tolist()
        value = float(sum(contributions))
        distribution: Optional[np.ndarray] = None
        if getattr(variant, "mode", None) == "probability":
            distribution = np.zeros(2 ** len(tuple(variant.output_qubit_order)))
            for index, weight in zip(rows.out_index.tolist(), contributions):
                distribution[index] += weight
        results.append((value, distribution))
    return results


def _branch_rows(
    states: np.ndarray,
    prob: np.ndarray,
    sign: np.ndarray,
    variant_of: np.ndarray,
    out_index: np.ndarray,
    qubit: int,
    num_qubits: int,
    prune_threshold: float,
    is_reset: bool,
    signed: np.ndarray,
    out_position: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split every row on a measure/reset of ``qubit``; drop pruned branches.

    Children are interleaved ``(row 0, outcome 0), (row 0, outcome 1),
    (row 1, outcome 0), ...`` — the scalar enumeration order — so per-variant
    row blocks stay contiguous and ordered.  The per-row projection probability
    is computed with the exact 1-D summation the scalar ``_project`` uses
    (bitwise-stable, unlike NumPy axis reductions).
    """
    dim = states.shape[1]
    rows = states.shape[0]
    indices = np.arange(dim)
    mask0 = ((indices >> qubit) & 1) == 0
    mask1 = ~mask0
    # The masked halves in index order, as contiguous (rows, dim/2) blocks: the
    # elementwise |amp|**2 is vectorized across the batch (bitwise-safe), but
    # each row is then reduced with its own 1-D np.sum — the exact reduction the
    # scalar ``_project`` performs on ``state[mask]`` (NumPy axis reductions are
    # not bitwise-identical to 1-D pairwise sums, so no ``axis=`` here).
    split = states.reshape(rows, -1, 2, 2**qubit)
    half0 = np.ascontiguousarray(split[:, :, 0, :]).reshape(rows, dim // 2)
    half1 = np.ascontiguousarray(split[:, :, 1, :]).reshape(rows, dim // 2)
    squared0 = np.abs(half0) ** 2
    squared1 = np.abs(half1) ** 2
    p0 = np.empty(rows)
    p1 = np.empty(rows)
    # np.add.reduce is what np.sum dispatches to for a 1-D float64 array —
    # bitwise identical, without the np.sum wrapper overhead per row.
    reduce = np.add.reduce  # qrcclint: disable=unstable-reduction -- audited order-fixed: 1-D contiguous float64 rows, where np.add.reduce IS np.sum's kernel (see comment above)
    for row in range(rows):
        p0[row] = reduce(squared0[row])
        p1[row] = reduce(squared1[row])
    conditional = np.stack([p0, p1], axis=1).reshape(-1)
    alive = conditional > prune_threshold
    outcome = np.tile(np.array([0, 1], dtype=np.int64), rows)[alive]
    conditional = conditional[alive]
    projected0 = np.where(mask0, states, 0.0)
    projected1 = np.where(mask1, states, 0.0)
    children = np.stack([projected0, projected1], axis=1).reshape(2 * rows, dim)[alive]
    children = children / np.sqrt(conditional)[:, np.newaxis]
    if is_reset and np.any(outcome == 1):
        flipped = outcome == 1
        children[flipped] = _apply_matrix(children[flipped], _FLIP, (qubit,), num_qubits)
    prob = np.repeat(prob, 2)[alive] * conditional
    variant_of = np.repeat(variant_of, 2)[alive]
    sign = np.repeat(sign, 2)[alive]
    out_index = np.repeat(out_index, 2)[alive]
    if not is_reset:
        flips = signed[variant_of] & (outcome == 1)
        sign = np.where(flips, -sign, sign)
        positions = out_position[variant_of]
        records = positions >= 0
        if np.any(records):
            # Scalar branches *overwrite* a re-measured outcome key (last write
            # wins), so clear the bit before depositing this measurement.
            bits = np.int64(1) << positions[records]
            cleared = out_index[records] & ~bits
            out_index[records] = cleared | (outcome[records] * bits)
    return children, prob, sign, variant_of, out_index
