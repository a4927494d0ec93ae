import numpy as np
import pytest

from shorcost.architecture import (
    AC,
    NTC,
    LayoutPermutation,
    _sequence_matrix,
    check_conformance,
    decompose_toffoli,
    route_linear,
    verify_toffoli_identity,
)
from shorcost.arithmetic import AdderKind, build_adder
from shorcost.circuit import Circuit, Gate, GateKind
from shorcost.oracle import simulate_mask
from shorcost.scheduler import asap_schedule


def test_arch_constants():
    assert AC.max_arity == 3 and not AC.adjacency_required
    assert NTC.max_arity == 2 and NTC.adjacency_required


def test_conformance_ac_accepts_toffoli():
    c = Circuit(5).ccx(0, 2, 4)
    assert check_conformance(c, AC).conforms


def test_conformance_ntc_rejects_arity_and_distance():
    wide = Circuit(3).ccx(0, 1, 2)
    rep = check_conformance(wide, NTC)
    assert not rep.conforms and rep.first_violation is not None

    far = Circuit(3).cx(0, 2)
    assert not check_conformance(far, NTC).conforms
    near = Circuit(3).cx(1, 2).cx(1, 0)
    assert check_conformance(near, NTC).conforms


# ---------------------------------------------------------------------------
# Toffoli decomposition


def test_verify_toffoli_identity():
    assert verify_toffoli_identity()


def test_decomposition_is_exactly_five_two_qubit_gates():
    c = Circuit(3).ccx(0, 1, 2)
    dec = decompose_toffoli(c)
    assert len(dec) == 5
    assert all(len(g.operands) == 2 for g in dec.gates)
    kinds = [g.kind for g in dec.gates]
    assert kinds.count(GateKind.CV) == 2
    assert kinds.count(GateKind.CVDAG) == 1
    assert kinds.count(GateKind.CNOT) == 2


def test_decomposition_leaves_other_gates_alone():
    c = Circuit(3, [("r", 0, 3)]).x(0).ccx(0, 1, 2).swap(1, 2)
    dec = decompose_toffoli(c)
    assert dec.registers == c.registers
    assert dec.gates[0] == c.gates[0]
    assert dec.gates[-1] == c.gates[-1]
    assert len(dec) == 2 + 5


def test_mutated_decomposition_fails_matrix_check():
    """The exact-matrix harness must reject an off-by-one-gate sequence."""
    good = decompose_toffoli(Circuit(3).ccx(0, 1, 2)).gates
    target = _sequence_matrix([Gate(GateKind.TOFFOLI, (0, 1, 2))], 3)

    assert np.array_equal(_sequence_matrix(good, 3), target)
    dropped = good[:-1]
    assert not np.array_equal(_sequence_matrix(dropped, 3), target)
    swapped = (good[1], good[0]) + good[2:]
    assert not np.array_equal(_sequence_matrix(swapped, 3), target)


# ---------------------------------------------------------------------------
# linear routing


def test_route_distant_cnot_costs_two_swaps():
    c = Circuit(4).cx(0, 3)
    routed, perm = route_linear(c)
    kinds = [g.kind for g in routed.gates]
    assert kinds == [GateKind.SWAP, GateKind.SWAP, GateKind.CNOT]
    assert asap_schedule(routed).depth == 3
    assert check_conformance(routed, NTC).conforms


def test_route_adjacent_gate_needs_no_swaps():
    c = Circuit(4).cx(2, 1).cx(2, 3)
    routed, perm = route_linear(c)
    assert [g.kind for g in routed.gates] == [GateKind.CNOT, GateKind.CNOT]
    assert perm.forward == (0, 1, 2, 3)


def test_route_toffoli_gathers_contiguously():
    c = Circuit(5).ccx(0, 2, 4)
    routed, perm = route_linear(c)
    toff = [g for g in routed.gates if g.kind is GateKind.TOFFOLI]
    assert len(toff) == 1
    pos = sorted(toff[0].operands)
    assert pos[1] - pos[0] == 1 and pos[2] - pos[1] == 1
    # everything before it is movement
    assert all(g.kind is GateKind.SWAP for g in routed.gates[:-1])


def test_layout_permutation_validation():
    with pytest.raises(Exception):
        LayoutPermutation(forward=(0, 0, 1))
    p = LayoutPermutation(forward=(2, 0, 1))
    assert p.position(0) == 2


def _routed_equivalent(circuit):
    """Simulate original and routed circuits; compare modulo the layout."""
    routed, perm = route_linear(circuit)
    for mask in range(1 << circuit.width):
        want = simulate_mask(circuit, mask)
        got_positions = simulate_mask(routed, mask)  # input layout is identity
        got = 0
        for q in range(circuit.width):
            if got_positions >> perm.forward[q] & 1:
                got |= 1 << q
        if got != want:
            return False
    return True


def test_routed_cdkm_adder_matches_original():
    assert _routed_equivalent(build_adder(AdderKind.CDKM_RIPPLE, 4))


def test_routed_random_circuits_match_original():
    import random

    from shorcost.circuit import GATE_ARITY

    rng = random.Random(31)
    for _ in range(15):
        width = rng.randint(2, 8)
        c = Circuit(width)
        kinds = [
            k
            for k in (GateKind.NOT, GateKind.CNOT, GateKind.TOFFOLI, GateKind.SWAP)
            if GATE_ARITY[k] <= width
        ]
        for _ in range(rng.randint(1, 40)):
            kind = rng.choice(kinds)
            c.append(Gate(kind, tuple(rng.sample(range(width), GATE_ARITY[kind]))))
        assert _routed_equivalent(c)


def test_routed_circuit_of_two_qubit_gates_conforms_to_ntc():
    c = decompose_toffoli(Circuit(6).ccx(0, 3, 5).cx(0, 5).swap(1, 4))
    routed, _ = route_linear(c)
    assert check_conformance(routed, NTC).conforms
