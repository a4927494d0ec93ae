"""Reference code the benchmark checks shorcost's outputs against.

None of this calls shorcost's simulators or scheduler.  The walker and the
depth pass are written from the gate semantics alone, so a defect in the
library cannot also hide itself here.  Both are pure Python and slow; the
benchmark runs them only outside its timed regions.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def apply_gate(kind: str, ops: Sequence[int], mask: int) -> int:
    """Basis-state action of one classical gate, by its kind name."""
    if kind == "NOT":
        return mask ^ (1 << ops[0])
    if kind == "CNOT":
        return mask ^ ((mask >> ops[0] & 1) << ops[1])
    if kind == "TOFFOLI":
        return mask ^ ((mask >> ops[0] & mask >> ops[1] & 1) << ops[2])
    if kind == "SWAP":
        i, j = ops
        if (mask >> i & 1) != (mask >> j & 1):
            mask ^= (1 << i) | (1 << j)
        return mask
    raise ValueError(f"gate {kind} has no basis-state action")


def walk(gates: Iterable, mask: int) -> int:
    """Push one packed basis state through a gate sequence."""
    for g in gates:
        mask = apply_gate(g.kind.value, g.operands, mask)
    return mask


def pack(registers: Iterable, values: dict[str, int]) -> int:
    """Packed basis state with each named register set little-endian."""
    mask = 0
    for r in registers:
        mask |= values.get(r.name, 0) << r.offset
    return mask


def unpack(registers: Iterable, mask: int) -> dict[str, int]:
    return {r.name: mask >> r.offset & ((1 << r.length) - 1) for r in registers}


def longest_path_depth(gates: Sequence, width: int) -> int:
    """Longest chain in the gate DAG, where each gate depends on the last
    earlier gate to touch each of its wires.

    This is the definition the scheduler's depth must meet; it is computed
    over explicit predecessor links rather than per-wire ready times.
    """
    last_gate = [-1] * width
    chain = [0] * len(gates)
    for idx, g in enumerate(gates):
        longest = 0
        for q in g.operands:
            pred = last_gate[q]
            if pred >= 0 and chain[pred] > longest:
                longest = chain[pred]
        chain[idx] = longest + 1
        for q in g.operands:
            last_gate[q] = idx
    return max(chain, default=0)


def swap_count(gates: Iterable) -> int:
    return sum(1 for g in gates if g.kind.value == "SWAP")
