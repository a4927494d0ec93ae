"""ASAP list scheduling and circuit cost metrics.

Two gates conflict iff they share a qubit; each gate costs one timestep
and concurrency is unlimited.  A gate is placed at one step past the
latest conflicting predecessor, so depth equals the longest path through
the qubit-conflict DAG.  Ties follow circuit order.

``metrics`` is the one scheduling entry point.  ``route_linear`` works
out the step of every gate it emits while it routes and the routed
circuit keeps them as an ``int32`` array.  Gates are only ever appended,
so the kept steps are current exactly while there is one per gate;
``metrics`` of such a circuit walks no gates in Python.  Any other
circuit, a routed one that has grown since included, is walked once per
call, and nothing is kept on it.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit

__all__ = ["Metrics", "metrics"]


@dataclass(frozen=True)
class Metrics:
    depth: int
    total_gates: int
    width: int
    max_concurrency: int
    mean_concurrency: float


def _walk_steps(circuit: Circuit) -> array:
    """Timestep of each gate under greedy as-soon-as-possible placement.

    ``ready[q]`` is the first step at which wire q is free; a gate lands
    at the max over its operands and pushes all of them one step past
    itself.  ``ready`` stops at the highest wire a gate touches, so a
    large declared width costs nothing by itself."""
    _, ops = circuit.as_arrays()
    ready = [0] * (int(ops.max(initial=-1)) + 1)
    steps = array("i")
    place = steps.append
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


def metrics(circuit: Circuit) -> Metrics:
    """Depth/width/concurrency summary of a circuit under ASAP scheduling."""
    # the steps ``route_linear`` kept, unless the circuit has grown since
    steps = circuit._steps if len(circuit._steps) == len(circuit) else _walk_steps(circuit)
    per_step = np.bincount(np.frombuffer(steps, dtype=np.int32))
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
