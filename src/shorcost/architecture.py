"""Abstract machine models, the passes that lower to them, and ASAP depth.

Two models are built in:

* AC  -- abstract concurrent: any pair or triple of qubits may interact,
  Toffoli is native, one gate per timestep per qubit.
* NTC -- neighbor-only, two-qubit, concurrent: qubits sit on a 1-D line,
  gates touch at most two wires and operands must be line-adjacent.

Lowering to NTC means replacing each Toffoli by the standard five-gate
two-qubit sequence over controlled-V gates and then inserting SWAP chains
until every gate acts on neighbors; the router refuses Toffolis.  It
tracks the drifting layout and returns the final line position of each
wire up to the highest operand instead of undoing it.  Its Python loop
only marches qubits, schedules and records where each input gate's
operands sat when it was met; numpy builds every emitted gate, SWAPs
included, from those positions afterwards.

``metrics`` schedules either machine by one ASAP rule: two gates conflict
iff they share a wire, a gate lands one step past the latest gate it
conflicts with (ties follow circuit order), and concurrency is unlimited.
``route_linear`` keeps the step of each gate it emits, and ``metrics``
uses those steps while there is one per gate: gates are only ever
appended, so that is while they are current.  Any other circuit is
walked once per call, and nothing is kept on it.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import permutations
from typing import Iterable

import numpy as np

from .circuit import _ARITY, _CNOT, _CV, _CVDAG, _SWAP, _TOFFOLI
from .circuit import Circuit, CircuitError, Gate, GateKind

__all__ = [
    "ArchModel",
    "AC",
    "NTC",
    "ConformanceReport",
    "check_conformance",
    "Metrics",
    "metrics",
    "decompose_toffoli",
    "verify_toffoli_identity",
    "route_linear",
]


@dataclass(frozen=True, slots=True)
class ArchModel:
    name: str
    max_arity: int
    adjacency_required: bool


AC = ArchModel("AC", max_arity=3, adjacency_required=False)
NTC = ArchModel("NTC", max_arity=2, adjacency_required=True)


@dataclass(frozen=True, slots=True)
class ConformanceReport:
    conforms: bool
    first_violation: int | None = None


def check_conformance(circuit: Circuit, model: ArchModel) -> ConformanceReport:
    """Check every gate against the model's arity and adjacency rules."""
    kinds, ops = circuit._table()
    arity = _ARITY[kinds]
    bad = arity > model.max_arity
    if model.adjacency_required:
        bad |= (arity == 2) & (np.abs(ops[:, 0] - ops[:, 1]) != 1)
    if bad.any():
        return ConformanceReport(False, int(bad.argmax()))
    return ConformanceReport(True, None)


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
    large declared width costs nothing by itself.  Where that wire is
    past the number of operand slots, the touched wires are renumbered
    densely first, so ``ready`` never outgrows the gates.  The walk reads
    the operand slots in place, through the views ``Circuit._columns()``
    gives (or the same views of the renumbered table): it keeps little
    but steps."""
    _, ops = circuit._table()
    if int(ops.max(initial=-1)) + 1 > ops.size:
        wires, dense = np.unique(ops.reshape(-1), return_inverse=True)
        # -1, when present, is the smallest value and stays -1
        ops = dense.reshape(ops.shape) - int(wires[0] < 0)
    ready = [0] * (int(ops.max(initial=-1)) + 1)
    steps = array("i")
    place = steps.append
    flat = memoryview(ops.reshape(-1))  # an unused operand slot holds -1
    for a, b, c in zip(flat[0::3], flat[1::3], flat[2::3]):
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
    depth = len(per_step)
    return Metrics(
        depth=depth,
        total_gates=len(circuit),
        width=circuit.width,
        max_concurrency=int(per_step.max(initial=0)),
        mean_concurrency=len(circuit) / depth if depth else 0.0,
    )


# -- Toffoli decomposition ---------------------------------------------


def decompose_toffoli(circuit: Circuit) -> Circuit:
    """Rewrite each TOFFOLI(a,b,t) as CV(b,t) CNOT(a,b) CVDAG(b,t) CNOT(a,b) CV(a,t).

    Other gates pass through unchanged; order is otherwise preserved.
    """
    kinds, ops = circuit._table()
    toffoli = kinds == _TOFFOLI
    count = np.where(toffoli, 5, 1)
    start = np.cumsum(count) - count  # where each gate's output begins
    total = int(count.sum())
    # the output's own buffers, filled in place: each gate lands at its start,
    # and each TOFFOLI's five rows are then written over it
    out_kinds, out_ops = array("B", [0]) * total, array("i", [-1]) * (3 * total)
    new_kinds = np.frombuffer(out_kinds, dtype=np.uint8)
    new_ops = np.frombuffer(out_ops, dtype=np.int32).reshape(total, 3)
    new_kinds[start], new_ops[start] = kinds, ops
    first = start[toffoli]
    a, b, t = ops[toffoli].T
    new_ops[first, 2] = -1
    for step, (kind, pair) in enumerate(
        [(_CV, (b, t)), (_CNOT, (a, b)), (_CVDAG, (b, t)), (_CNOT, (a, b)), (_CV, (a, t))]
    ):
        new_kinds[first + step] = kind
        new_ops[first + step, 0], new_ops[first + step, 1] = pair
    # computed from a valid circuit, so not checked again (see ``Circuit``)
    return Circuit._from_valid(circuit.width, circuit.registers, out_kinds, out_ops)


# Exact dyadic entries: V = sqrt(NOT), so V^2 = NOT and V V^dag = I.
_V = np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]) / 2
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_BLOCK = {GateKind.CV: _V, GateKind.CVDAG: _V.conj().T}  # any other kind: X


def _gate_matrix(gate: Gate, width: int) -> np.ndarray:
    """Unitary of one gate on ``width`` wires, basis bit i = wire i.

    SWAP exchanges the bits of its two wires.  Every other kind applies a
    2x2 block (X, V or V^dag) to its last operand wherever all earlier
    operands, its controls, are 1; NOT is the case with no controls.
    """
    dim = 1 << width
    m = np.zeros((dim, dim), dtype=complex)
    *controls, t = gate.operands
    block = _BLOCK.get(gate.kind, _X)
    for col in range(dim):
        if gate.kind is GateKind.SWAP:
            i, j = gate.operands
            m[col ^ ((col >> i ^ col >> j) & 1) * (1 << i | 1 << j), col] = 1
        elif all(col >> c & 1 for c in controls):
            tb = col >> t & 1
            m[col, col] = block[tb, tb]
            m[col ^ 1 << t, col] = block[tb ^ 1, tb]
        else:
            m[col, col] = 1
    return m


def _sequence_matrix(gates: Iterable[Gate], width: int) -> np.ndarray:
    u = np.eye(1 << width, dtype=complex)
    for g in gates:
        u = _gate_matrix(g, width) @ u
    return u


def verify_toffoli_identity() -> bool:
    """Exact 8x8 check that what ``decompose_toffoli`` emits for
    TOFFOLI(a, b, t) equals it, for all six orderings of three wires.

    All entries involved are dyadic rationals, so the float comparison is
    exact; no tolerance is applied.
    """
    return all(
        np.array_equal(
            _sequence_matrix(decompose_toffoli(Circuit(3).ccx(*wires)).gates, 3),
            _gate_matrix(Gate(GateKind.TOFFOLI, wires), 3),
        )
        for wires in permutations(range(3))
    )


# -- linear routing ----------------------------------------------------


def route_linear(circuit: Circuit) -> tuple[Circuit, tuple[int, ...]]:
    """Insert SWAP chains so every gate acts on neighboring line positions.

    Takes gates of one or two operands; run ``decompose_toffoli`` first.
    Initial layout is the identity (qubit i at position i, registers in
    declared order).  For a two-qubit gate at positions p < q the qubit at
    p marches right one SWAP at a time until it sits beside q.  The layout
    drifts; emitted operands are line positions.  Nothing is inserted for
    already-adjacent operands.

    Returns the routed circuit and the layout: the final line position of
    each wire from 0 to the highest operand.  Wires at or above
    ``len(layout)`` never move, so each ends where it began.

    The loop records two things per input gate: its operand positions
    ``pa``, ``pb`` as met, before any march (``pb`` = -1 for one operand),
    and the steps.  The rest follows in numpy.  A two-operand gate makes
    ``|pa - pb| - 1`` SWAPs, so input gate i lands at row
    ``cumsum(nswap + 1)[i] - 1`` with its SWAPs just before it; SWAP k of
    a march from ``start = min(pa, pb)`` acts on ``start + k, start + k +
    1``; and the gate itself acts on ``(pb - 1, pb)`` when ``pa < pb``,
    else on ``(pa, pa - 1)``.
    """
    kinds_in, ops_in = circuit._table()
    three = np.flatnonzero(ops_in[:, 2] >= 0)  # an unused operand slot holds -1
    if three.size:
        raise CircuitError(f"gates[{three[0]}]: cannot route a TOFFOLI; run decompose_toffoli first")
    used = int(ops_in.max(initial=-1)) + 1  # the wires above never move
    _, column_a, column_b, _ = circuit._columns()
    pos = list(range(used))  # qubit -> position
    holder = list(range(used))  # position -> qubit
    ready = [0] * used  # position -> first free timestep
    # each input gate's operand positions as it is met, -1 for no second
    # operand; everything emitted follows from these two columns
    met_a = array("i")
    met_b = array("i")
    steps = array("i")
    note_a, note_b, place = met_a.append, met_b.append, steps.append

    # The lower operand marches up to the upper one, carrying its ready
    # time t: each SWAP it makes lands at t, or later if the position
    # ahead is busy, and leaves the position behind it ready one step later.
    for a, b in zip(column_a, column_b):
        lo = pos[a]
        note_a(lo)
        if b < 0:
            hi = lo
            t = ready[lo]
            note_b(-1)
        else:
            hi = pos[b]
            note_b(hi)
            if lo > hi:
                lo, hi = hi, lo
            t = ready[lo]
            if hi - lo > 1:
                qubit = holder[lo]
                while hi - lo > 1:
                    ahead = lo + 1
                    if ready[ahead] > t:
                        t = ready[ahead]
                    moved = holder[lo] = holder[ahead]
                    pos[moved] = lo
                    place(t)
                    t += 1
                    ready[lo] = t
                    lo = ahead
                holder[lo] = qubit
                pos[qubit] = lo
            if ready[hi] > t:
                t = ready[hi]
        ready[lo] = ready[hi] = t + 1
        place(t)

    pa = np.frombuffer(met_a, dtype=np.int32)
    pb = np.frombuffer(met_b, dtype=np.int32)
    two = pb >= 0
    up = pa < pb  # the first operand marches
    nswap = np.where(two, np.abs(pa - pb) - 1, 0)
    land = np.cumsum(nswap + 1, dtype=np.int32) - 1  # output row of each input gate
    total = len(steps)
    # the routed circuit's own buffers, filled in place: every row is
    # first a SWAP of its gate's march (row land - nswap + k on start + k);
    # the input gates' rows are then overwritten: the marcher ends beside
    # the operand it marched to
    start = np.where(two, np.minimum(pa, pb), pa)
    kinds, ops = array("B", [_SWAP]) * total, array("i", [-1]) * (3 * total)
    routed_ops = np.frombuffer(ops, dtype=np.int32).reshape(total, 3)
    rise = routed_ops[:, 1]  # summed into the first operands
    rise[:] = 1
    first = land - nswap  # the first row of each input gate's march
    rise[first] = start
    rise[first[1:]] -= (start + nswap)[:-1]  # less where the march before ended
    np.cumsum(rise, dtype=np.int32, out=routed_ops[:, 0])
    np.add(routed_ops[:, 0], 1, out=routed_ops[:, 1])
    routed_ops[land, 0] = np.where(up, pb - 1, pa)
    routed_ops[land, 1] = np.where(two, np.where(up, pb, pa - 1), -1)
    np.frombuffer(kinds, dtype=np.uint8)[land] = kinds_in
    # valid by construction
    routed = Circuit._from_valid(circuit.width, circuit.registers, kinds, ops)
    routed._steps = steps
    return routed, tuple(pos)

