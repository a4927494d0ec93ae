"""ASAP list scheduling and circuit cost metrics.

Two gates conflict iff they share a qubit; each gate costs one timestep
and concurrency is unlimited.  A gate is placed at one step past the
latest conflicting predecessor, so depth equals the longest path through
the qubit-conflict DAG.  Ties follow circuit order.

The step of every gate is worked out once per circuit and kept on it, as
an ``int32`` array, until the circuit is next mutated.  ``route_linear``
fills that memo while it routes, so ``metrics`` and ``asap_schedule`` of a
routed circuit walk no gates in Python.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit

__all__ = ["Schedule", "Metrics", "asap_schedule", "metrics"]


@dataclass(frozen=True)
class Schedule:
    """Gate indices grouped by timestep, in execution order."""

    timesteps: tuple[tuple[int, ...], ...]

    @property
    def depth(self) -> int:
        return len(self.timesteps)


@dataclass(frozen=True)
class Metrics:
    depth: int
    total_gates: int
    width: int
    max_concurrency: int
    mean_concurrency: float


def _asap_steps(circuit: Circuit) -> np.ndarray:
    """Timestep of each gate under greedy as-soon-as-possible placement:
    a read-only ``int32`` view of the steps the circuit keeps, worked out
    on first use."""
    if circuit._steps is None:
        circuit._steps = _walk_steps(circuit)
    steps = np.frombuffer(circuit._steps, dtype=np.int32)
    steps.flags.writeable = False
    return steps


def _walk_steps(circuit: Circuit) -> array:
    """``ready[q]`` is the first step at which wire q is free; a gate lands
    at the max over its operands and pushes all of them one step past
    itself."""
    ready = [0] * circuit.width
    steps = array("i")
    place = steps.append
    _, ops = circuit.as_arrays()
    # an unused operand slot holds -1
    for a, b, c in zip(*ops.T.tolist()):
        t = ready[a]
        if b >= 0:
            if ready[b] > t:
                t = ready[b]
            if c >= 0:
                if ready[c] > t:
                    t = ready[c]
                ready[c] = t + 1
            ready[b] = t + 1
        ready[a] = t + 1
        place(t)
    return steps


def asap_schedule(circuit: Circuit) -> Schedule:
    """Greedy as-soon-as-possible placement; ties follow circuit order."""
    steps = _asap_steps(circuit)
    order = np.argsort(steps, kind="stable").tolist()
    ends = np.cumsum(np.bincount(steps)).tolist()
    return Schedule(tuple(tuple(order[i:j]) for i, j in zip([0, *ends], ends)))


def metrics(circuit: Circuit) -> Metrics:
    """Depth/width/concurrency summary of a circuit under ASAP scheduling."""
    per_step = np.bincount(_asap_steps(circuit))
    total = len(circuit)
    depth = len(per_step)
    max_conc = int(per_step.max(initial=0))
    mean = total / depth if depth else 0.0
    return Metrics(
        depth=depth,
        total_gates=total,
        width=circuit.width,
        max_concurrency=max_conc,
        mean_concurrency=mean,
    )
