"""Machine speed during a run, traced by a sampler process on each CPU.

The benchmark runs on shared virtual machines whose CPUs change speed by up to
2x within a second, each CPU on its own, and stay in one state for seconds to
minutes.  Two runs of the same code can then disagree by far more than any
change worth catching.  So every run reports each time it measures at a fixed
reference speed::

    reported seconds = measured seconds * REFERENCE_SECONDS / kernel seconds

where the kernel seconds are the median time of :func:`reference_kernel` on
the CPUs the timed work ran on, over the time it ran.  A :class:`SpeedTrace`
keeps one sampler process on each of those CPUs.  Every ``PERIOD_S`` seconds
the sampler wakes up, times one kernel run (about 1 ms) and goes back to
sleep, so it takes 2 to 3% of the CPU, the same on every commit.  The kernel
is fixed code that never calls the program, so a change to the program moves
the reported seconds exactly as it moves the measured ones.  Its mix follows
the program's hot paths: small-array numpy calls (the statevector simulator
applying a gate and projecting a few-qubit state) and branch bookkeeping in
plain Python.  It is small enough to stay in cache, so it does not feel other
tenants' contention for cache and memory; that noise stays in the figures.

    python3 perfbench/speed.py --cpu 0    # one sampler: "ready", then samples as
                                          # JSON once its stdin closes
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Sequence, Tuple

#: Kernel seconds that define reference speed: about the kernel's median on a
#: 2-vCPU x86_64 VM (Python 3.11.7, numpy 2.4.6) in its slower state, so
#: reported seconds there read close to measured ones.
REFERENCE_SECONDS = 0.001
#: Sleep between two kernel timings of one sampler.
PERIOD_S = 0.04
#: Kernel timings a window needs; shorter windows borrow the nearest ones.
MIN_SAMPLES = 5

_QUBITS = 5
_GATE_STEPS = 4
_BRANCH_STEPS = 30

HERE = os.path.abspath(__file__)


def pin(cpus: Sequence[int]) -> None:
    """Restrict this process, and the processes it starts later, to ``cpus``."""
    os.sched_setaffinity(0, set(cpus))


class _Branch:
    __slots__ = ("probability", "sign", "outcomes")

    def __init__(self, probability: float, sign: int, outcomes: dict) -> None:
        self.probability = probability
        self.sign = sign
        self.outcomes = outcomes


def _kernel_inputs():
    import numpy as np

    rng = np.random.default_rng(20_241_017)
    gates = []
    for _ in range(4):
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        gates.append(q)
    state = rng.normal(size=2**_QUBITS) + 1j * rng.normal(size=2**_QUBITS)
    return np, gates, state / np.linalg.norm(state), np.arange(2**_QUBITS)


def reference_kernel(inputs) -> float:
    """Fixed work: gates and projections on a 5-qubit state, then branch
    bookkeeping in plain Python."""
    np, gates, start, indices = inputs
    state = start
    for step in range(_GATE_STEPS):
        qubit = step % _QUBITS
        tensor = np.tensordot(gates[step & 3], state.reshape((2,) * _QUBITS), axes=([1], [qubit]))
        flat = np.moveaxis(tensor, 0, qubit).reshape(-1)
        mask = ((indices >> qubit) & 1) == (step & 1)
        probability = float(np.sum(np.abs(flat[mask]) ** 2))
        # Project, then mix the start state back in so no amplitude dies out.
        state = np.where(mask, flat, 0.0) / np.sqrt(probability) + start
        state = state / np.linalg.norm(state)
    branches = [_Branch(1.0, 1, {})]
    for step in range(_BRANCH_STEPS):
        key = f"m{step & 15}"
        children = []
        for branch in branches:
            for outcome in (0, 1):
                outcomes = dict(branch.outcomes)
                outcomes[key] = outcome
                children.append(_Branch(branch.probability * 0.5, -branch.sign, outcomes))
        branches = children[: 4 + (step & 3)]
    return float(abs(state).sum()) + sum(b.probability * b.sign for b in branches)


def sample(cpu: int) -> None:
    """Sampler main loop: time the kernel every ``PERIOD_S`` on ``cpu`` until
    stdin closes, then print ``[[start, seconds], ...]`` as JSON."""
    pin([cpu])
    inputs = _kernel_inputs()
    reference_kernel(inputs)
    print("ready", flush=True)
    samples: List[Tuple[float, float]] = []
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        start = time.perf_counter()
        reference_kernel(inputs)
        samples.append((start, time.perf_counter() - start))
    print(json.dumps(samples))


class SpeedTrace:
    """One sampler process per CPU, from :meth:`start` to :meth:`stop`.

    ``time.perf_counter`` reads the same clock in every process, so the
    samples line up with the times the run takes.
    """

    def __init__(self, cpus: Sequence[int]) -> None:
        self.cpus = list(cpus)
        self.samples: Dict[int, List[Tuple[float, float]]] = {}
        self._processes: List[subprocess.Popen] = []

    def start(self) -> None:
        for cpu in self.cpus:
            process = subprocess.Popen(
                [sys.executable, HERE, "--cpu", str(cpu)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
            self._processes.append(process)
            if process.stdout.readline().strip() != "ready":
                raise RuntimeError(f"speed sampler on CPU {cpu} did not start")

    def stop(self) -> None:
        """Close every sampler's stdin, wait for it to exit and keep its samples."""
        for cpu, process in zip(self.cpus, self._processes):
            try:
                out, _ = process.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
                continue
            if process.returncode == 0 and out.strip():
                self.samples[cpu] = [tuple(s) for s in json.loads(out.splitlines()[-1])]
        self._processes = []

    def kernel_seconds(self, start: float, end: float, cpus: Sequence[int]) -> float:
        """Median kernel time over ``[start, end]``, averaged over ``cpus``."""
        medians = []
        for cpu in cpus:
            samples = self.samples[cpu]
            inside = [sec for t, sec in samples if start <= t <= end]
            if len(inside) < MIN_SAMPLES:
                middle = (start + end) / 2
                nearest = sorted(samples, key=lambda s: abs(s[0] - middle))[:MIN_SAMPLES]
                inside = [sec for _, sec in nearest]
            medians.append(statistics.median(inside))
        return statistics.fmean(medians)

    def factor(self, start: float, end: float, cpus: Sequence[int]) -> float:
        """Multiplier from measured to reference-speed seconds for work that
        ran on ``cpus`` from ``start`` to ``end``."""
        return REFERENCE_SECONDS / self.kernel_seconds(start, end, cpus)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="One speed sampler; see the module docstring.")
    parser.add_argument("--cpu", type=int, required=True)
    sample(parser.parse_args().cpu)
