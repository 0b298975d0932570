"""One pass of a workload: its whole request list, closed loop, one client.

Each request waits for the previous reply.  An exact-prob or shots-mixed
request is one ``evaluate_workload`` call; a service-stream request is one
wave: four tenants submit one session each to a ``ServiceQueue`` on the
pass's shared engine, and the request ends when the queue has drained.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

from repro import ServiceQueue, evaluate_workload

from workloads import STREAM_SHOTS, Inputs


@dataclass
class Outcome:
    """One session's result, or why it has none."""

    label: str
    result: Any = None
    error: Optional[str] = None


@dataclass
class RequestRecord:
    seconds: float
    outcomes: List[Outcome] = field(default_factory=list)


@dataclass
class PassRecord:
    seconds: float
    requests: List[RequestRecord]

    @property
    def request_seconds(self) -> float:
        """The pass's time inside requests, without the benchmark's work between them."""
        return sum(request.seconds for request in self.requests)

    @property
    def outcomes(self) -> List[Outcome]:
        return [outcome for request in self.requests for outcome in request.outcomes]


def _evaluate(inputs: Inputs, on_request: Callable[[str], None]) -> List[RequestRecord]:
    records = []
    for request in inputs.requests:
        on_request(request.label)
        start = time.perf_counter()
        try:
            result = evaluate_workload(
                request.workload,
                request.cut_config,
                compute_reference=False,
                engine_config=request.engine_config,
            )
            outcome = Outcome(request.label, result)
        except Exception as error:  # a raising request is counted as failed
            outcome = Outcome(request.label, error=repr(error))
        records.append(RequestRecord(time.perf_counter() - start, [outcome]))
    return records


def _stream(inputs: Inputs, on_request: Callable[[str], None]) -> List[RequestRecord]:
    on_request("wave")
    engine = inputs.build_engine()
    try:
        queue = ServiceQueue(
            engine,
            max_pending=len(inputs.wave),
            budgets={submission.tenant: STREAM_SHOTS for submission in inputs.wave},
        )
        start = time.perf_counter()
        tickets = [
            queue.submit(
                submission.workload,
                submission.cut_config,
                tenant=submission.tenant,
                shots=STREAM_SHOTS,
                **submission.kwargs,
            )
            for submission in inputs.wave
        ]
        queue.run()
        seconds = time.perf_counter() - start
    finally:
        engine.close()
    outcomes = []
    for submission, ticket in zip(inputs.wave, tickets):
        if ticket.status == "done":
            outcomes.append(Outcome(submission.label, ticket.result))
        else:
            detail = ticket.reason or repr(ticket.error)
            outcomes.append(Outcome(submission.label, error=f"{ticket.status}: {detail}"))
    return [RequestRecord(seconds, outcomes)]


def run_pass(
    inputs: Inputs, on_request: Callable[[str], None] = lambda label: None
) -> PassRecord:
    """Run the workload's request list once; engines are fresh for every pass.

    ``on_request`` is called with each request's label before it starts.
    """
    start = time.perf_counter()
    run = _stream if inputs.wave else _evaluate
    records = run(inputs, on_request)
    return PassRecord(time.perf_counter() - start, records)
