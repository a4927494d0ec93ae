"""Abstract machine models and the lowering passes they require.

Two models are built in:

* AC  -- abstract concurrent: any pair or triple of qubits may interact,
  Toffoli is native, one gate per timestep per qubit.
* NTC -- neighbor-only, two-qubit, concurrent: qubits sit on a 1-D line,
  gates touch at most two wires and operands must be line-adjacent.

Lowering to NTC means replacing each Toffoli by the standard five-gate
two-qubit sequence over controlled-V gates and then inserting SWAP chains
until every gate acts on neighbors.  Routing tracks the drifting layout
and reports the final qubit-to-position permutation instead of undoing it.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .circuit import _ARITY, KIND_CODE, Circuit, CircuitError, Gate, GateKind

__all__ = [
    "ArchModel",
    "AC",
    "NTC",
    "ConformanceReport",
    "check_conformance",
    "decompose_toffoli",
    "verify_toffoli_identity",
    "LayoutPermutation",
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
    # views of the gate arrays, dropped on return (see ``Circuit._keys``)
    kinds = np.frombuffer(circuit._kinds, dtype=np.uint8)
    ops = np.frombuffer(circuit._ops, dtype=np.int32).reshape(-1, 3)
    arity = _ARITY[kinds]
    bad = arity > model.max_arity
    if model.adjacency_required:
        bad |= (arity == 2) & (np.abs(ops[:, 0] - ops[:, 1]) != 1)
    if bad.any():
        return ConformanceReport(False, int(bad.argmax()))
    return ConformanceReport(True, None)


# -- Toffoli decomposition ---------------------------------------------

_CV, _CNOT, _CVDAG, _SWAP, _TOFFOLI = (
    KIND_CODE[k]
    for k in (GateKind.CV, GateKind.CNOT, GateKind.CVDAG, GateKind.SWAP, GateKind.TOFFOLI)
)


def decompose_toffoli(circuit: Circuit) -> Circuit:
    """Rewrite each TOFFOLI(a,b,t) as CV(b,t) CNOT(a,b) CVDAG(b,t) CNOT(a,b) CV(a,t).

    Other gates pass through unchanged; order is otherwise preserved.
    """
    kinds, ops = circuit.as_arrays()
    toffoli = kinds == _TOFFOLI
    count = np.where(toffoli, 5, 1)
    first = (np.cumsum(count) - count)[toffoli]  # where each expansion starts
    out_kinds = np.repeat(kinds, count)
    out_ops = np.repeat(ops, count, axis=0)
    a, b, t = ops[toffoli].T
    unused = np.full_like(a, -1)
    for step, (kind, pair) in enumerate(
        [(_CV, (b, t)), (_CNOT, (a, b)), (_CVDAG, (b, t)), (_CNOT, (a, b)), (_CV, (a, t))]
    ):
        out_kinds[first + step] = kind
        out_ops[first + step] = np.stack([*pair, unused], axis=1)
    # computed from a valid circuit, so not checked again (see ``Circuit``)
    out = Circuit(circuit.width, circuit.registers)
    out._extend_raw(out_kinds, out_ops.reshape(-1).view(np.uint8))
    return out


# Exact dyadic entries: V = sqrt(NOT), so V^2 = NOT and V V^dag = I.
_V = np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]) / 2
_VDAG = _V.conj().T
_X = np.array([[0, 1], [1, 0]], dtype=complex)


def _gate_matrix(gate: Gate, width: int) -> np.ndarray:
    """Unitary of one gate on ``width`` wires, basis bit i = wire i."""
    dim = 1 << width
    m = np.zeros((dim, dim), dtype=complex)
    ops = gate.operands
    for col in range(dim):
        if gate.kind is GateKind.NOT:
            m[col ^ (1 << ops[0]), col] = 1
        elif gate.kind is GateKind.CNOT:
            c, t = ops
            m[col ^ ((col >> c & 1) << t), col] = 1
        elif gate.kind is GateKind.TOFFOLI:
            c1, c2, t = ops
            m[col ^ ((col >> c1 & col >> c2 & 1) << t), col] = 1
        elif gate.kind is GateKind.SWAP:
            i, j = ops
            bi, bj = col >> i & 1, col >> j & 1
            row = col
            if bi != bj:
                row ^= (1 << i) | (1 << j)
            m[row, col] = 1
        elif gate.kind in (GateKind.CV, GateKind.CVDAG):
            c, t = ops
            block = _V if gate.kind is GateKind.CV else _VDAG
            if not col >> c & 1:
                m[col, col] = 1
            else:
                tb = col >> t & 1
                m[col, col] = block[tb, tb]
                m[col ^ (1 << t), col] = block[tb ^ 1, tb]
        else:  # pragma: no cover - kinds are exhaustive
            raise CircuitError(f"no matrix for {gate.kind}")
    return m


def _sequence_matrix(gates: list[Gate], width: int) -> np.ndarray:
    u = np.eye(1 << width, dtype=complex)
    for g in gates:
        u = _gate_matrix(g, width) @ u
    return u


def verify_toffoli_identity() -> bool:
    """Exact 8x8 check that the five-gate CV sequence equals TOFFOLI(0,1,2).

    All entries involved are dyadic rationals, so the float comparison is
    exact; no tolerance is applied.
    """
    a, b, t = 0, 1, 2
    seq = [
        Gate(GateKind.CV, (b, t)),
        Gate(GateKind.CNOT, (a, b)),
        Gate(GateKind.CVDAG, (b, t)),
        Gate(GateKind.CNOT, (a, b)),
        Gate(GateKind.CV, (a, t)),
    ]
    built = _sequence_matrix(seq, 3)
    want = _gate_matrix(Gate(GateKind.TOFFOLI, (a, b, t)), 3)
    return bool(np.array_equal(built, want))


# -- linear routing ----------------------------------------------------


@dataclass(frozen=True, slots=True)
class LayoutPermutation:
    """Forward map: logical qubit index -> final line position."""

    forward: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.forward) != list(range(len(self.forward))):
            raise CircuitError("forward map is not a permutation")

    def position(self, qubit: int) -> int:
        return self.forward[qubit]


def route_linear(circuit: Circuit) -> tuple[Circuit, LayoutPermutation]:
    """Insert SWAP chains so every gate acts on neighboring line positions.

    Initial layout is the identity (qubit i at position i, registers in
    declared order).  For a two-qubit gate at positions p < q the qubit at
    p marches right one SWAP at a time until it sits beside q; a Toffoli
    is made contiguous by marching its outer operands toward the middle
    one.  The layout drifts, and the final permutation is returned with
    the routed circuit; emitted operands are line positions.  Nothing is
    inserted for already-adjacent operands.

    Each emitted gate is scheduled ASAP (see ``scheduler``) as it is
    emitted, and the returned circuit carries those steps, so ``metrics``
    and ``asap_schedule`` of it do not walk its gates again.
    """
    pos = list(range(circuit.width))  # qubit -> position
    holder = list(range(circuit.width))  # position -> qubit
    ready = [0] * circuit.width  # position -> first free timestep
    kinds_in, ops_in = circuit.as_arrays()
    # one entry per emitted gate: the lower position of a SWAP, or -1 for
    # the next input gate, whose operand positions go to ``ops``
    order: list[int] = []
    ops: list[int] = []
    steps = array("i")
    mark, emit_ops, place = order.append, ops.extend, steps.append

    # An unused operand slot holds -1.  A gate's outer operands march to
    # either side of its middle one (for two operands, the upper one).
    # The marching qubit carries its ready time t: each SWAP it makes
    # lands at t, or later if the position ahead is busy, and leaves the
    # position behind it ready one step later.
    for a, b, c in zip(*ops_in.T.tolist()):
        if b < 0:
            lo = mid = pos[a]
            t = ready[lo]
            emit_ops((lo, -1, -1))
        else:
            lo, mid = pos[a], pos[b]
            if lo > mid:
                lo, mid = mid, lo
            if c >= 0:
                lo, mid, hi = sorted((lo, mid, pos[c]))
            t = ready[lo]
            if mid - lo > 1:
                qubit = holder[lo]
                while mid - lo > 1:
                    ahead = lo + 1
                    if ready[ahead] > t:
                        t = ready[ahead]
                    moved = holder[lo] = holder[ahead]
                    pos[moved] = lo
                    mark(lo)
                    place(t)
                    t += 1
                    ready[lo] = t
                    lo = ahead
                holder[lo] = qubit
                pos[qubit] = lo
            if ready[mid] > t:
                t = ready[mid]
            if c >= 0:
                u = ready[hi]
                if hi - mid > 1:
                    qubit = holder[hi]
                    while hi - mid > 1:
                        ahead = hi - 1
                        if ready[ahead] > u:
                            u = ready[ahead]
                        moved = holder[hi] = holder[ahead]
                        pos[moved] = hi
                        mark(ahead)
                        place(u)
                        u += 1
                        ready[hi] = u
                        hi = ahead
                    holder[hi] = qubit
                    pos[qubit] = hi
                if u > t:
                    t = u
                ready[hi] = t + 1
                emit_ops((pos[a], pos[b], pos[c]))
            else:
                emit_ops((pos[a], pos[b], -1))
        ready[lo] = ready[mid] = t + 1
        mark(-1)
        place(t)

    marks = np.array(order, dtype=np.int32)
    swaps = marks >= 0
    low = marks[swaps]
    kinds = np.full(len(marks), _SWAP, dtype=np.uint8)
    kinds[~swaps] = kinds_in
    routed_ops = np.full((len(marks), 3), -1, dtype=np.int32)
    routed_ops[~swaps] = np.array(ops, dtype=np.int32).reshape(-1, 3)
    routed_ops[swaps, 0] = low
    routed_ops[swaps, 1] = low + 1
    routed = Circuit(circuit.width, circuit.registers)
    routed._extend_raw(kinds, routed_ops.reshape(-1).view(np.uint8))  # valid by construction
    routed._steps = steps
    return routed, LayoutPermutation(tuple(pos))
