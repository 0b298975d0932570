"""Correctness checks and result digests.

References come from ``simulate_statevector`` on the uncut circuit and are
computed before any timed pass.  Exact results must match them to float
precision.  Finite-shot results must fall within the per-label tolerance in
``tolerances.json``, which ``calibrate.py`` derives from the error spread over
seeds that no run uses.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.simulator import simulate_statevector
from repro.workloads import WorkloadKind

from workloads import CUT_TIME_LIMIT, Inputs

#: Largest |p - p_ref| an exact probability may show.  Exact reconstruction
#: sums at most a few hundred thousand float64 terms; observed errors are
#: below 1e-15.
EXACT_ATOL = 1e-12

TOLERANCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tolerances.json")


def references(inputs: Inputs) -> Dict[str, Any]:
    """Uncut statevector reference per request label."""
    refs: Dict[str, Any] = {}
    for label, workload in inputs.workloads().items():
        state = simulate_statevector(workload.circuit)
        if workload.kind == WorkloadKind.PROBABILITY:
            refs[label] = state.probabilities()
        else:
            refs[label] = state.expectation(workload.observable)
    return refs


def load_tolerances() -> Dict[str, float]:
    with open(TOLERANCE_FILE) as handle:
        return {label: entry["tolerance"] for label, entry in json.load(handle).items()}


def error(result: Any, reference: Any) -> float:
    """L1 distance for a distribution, absolute error for an expectation value."""
    if result.probabilities is not None:
        return float(np.abs(result.probabilities - reference).sum())
    return abs(float(result.expectation_value) - float(reference))


def max_abs_error(result: Any, reference: Any) -> float:
    if result.probabilities is not None:
        return float(np.abs(result.probabilities - reference).max())
    return abs(float(result.expectation_value) - float(reference))


def signature(result: Any) -> Tuple[int, int, int, str]:
    """(wire cuts, gate cuts, subcircuits, method) of the request's cut plan."""
    plan = result.plan
    return (plan.num_wire_cuts, plan.num_gate_cuts, plan.num_subcircuits, plan.method)


def digest(result: Any) -> str:
    """Hash of the result value, the plan signature and the cost counts."""
    sha = hashlib.sha256()
    if result.probabilities is not None:
        sha.update(np.ascontiguousarray(result.probabilities, dtype=np.float64).tobytes())
    else:
        sha.update(float(result.expectation_value).hex().encode())
    counts = (signature(result), result.num_variant_evaluations, result.shots_spent, result.rounds)
    sha.update(repr(counts).encode())
    return sha.hexdigest()[:16]


def check(
    label: str,
    result: Any,
    reference: Any,
    tolerances: Dict[str, float],
    expected_signature: Optional[Tuple] = None,
) -> Optional[str]:
    """Why ``result`` fails its check, or ``None`` when it passes."""
    if result.plan.solve_time >= CUT_TIME_LIMIT:
        return f"cut search reached its {CUT_TIME_LIMIT} s limit"
    if expected_signature is not None and signature(result) != expected_signature:
        return f"cut plan {signature(result)} differs from {expected_signature} in an earlier pass"
    if result.shots_spent == 0:
        worst = max_abs_error(result, reference)
        if worst > EXACT_ATOL:
            return f"exact result off by {worst:.3e} (> {EXACT_ATOL})"
        return None
    measured = error(result, reference)
    if measured > tolerances[label]:
        return f"finite-shot error {measured:.4g} exceeds tolerance {tolerances[label]:.4g}"
    return None


class Verdicts:
    """Correctness of every request across passes, plus result digests."""

    def __init__(self, refs: Dict[str, Any], tolerances: Dict[str, float]) -> None:
        self.refs = refs
        self.tolerances = tolerances
        self.signatures: Dict[Tuple[int, int], Tuple] = {}
        self.attempted = 0
        #: (pass, request) -> why that request failed.
        self.failures: Dict[Tuple[int, int], str] = {}
        #: Per pass, per request: the digests of its results.
        self.pass_digests: List[List[str]] = []

    def judge(self, index: int, record: Any) -> None:
        digests = []
        for r, request in enumerate(record.requests):
            self.attempted += 1
            reasons, request_digests = [], []
            for o, outcome in enumerate(request.outcomes):
                if outcome.result is None:
                    reasons.append(f"{outcome.label}: {outcome.error}")
                    request_digests.append("-")
                    continue
                reason = check(
                    outcome.label,
                    outcome.result,
                    self.refs[outcome.label],
                    self.tolerances,
                    self.signatures.setdefault((r, o), signature(outcome.result)),
                )
                if reason is not None:
                    reasons.append(f"{outcome.label}: {reason}")
                request_digests.append(digest(outcome.result))
            if reasons:
                self.failures[(index, r)] = "; ".join(reasons)
            digests.append(",".join(request_digests))
        self.pass_digests.append(digests)

    def require_identical(self, traced: List[int], untraced: List[int]) -> None:
        """A traced request whose digests differ from the untraced ones fails."""
        expected = self.pass_digests[untraced[0]]
        for index in traced:
            for r, found in enumerate(self.pass_digests[index]):
                if found != expected[r]:
                    self.failures.setdefault((index, r), "traced digests differ from untraced")

    @property
    def failed(self) -> int:
        return len(self.failures)
