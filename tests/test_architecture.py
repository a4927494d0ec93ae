import tracemalloc
from itertools import permutations

import numpy as np
import pytest

from shorcost.architecture import (
    AC,
    NTC,
    LayoutPermutation,
    _gate_matrix,
    _sequence_matrix,
    check_conformance,
    decompose_toffoli,
    route_linear,
    verify_toffoli_identity,
)
from shorcost.arithmetic import AdderKind, build_adder
from shorcost.circuit import GATE_ARITY, KIND_CODE, Circuit, CircuitError, Gate, GateKind
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


@pytest.mark.parametrize(
    "kind", [GateKind.NOT, GateKind.CNOT, GateKind.TOFFOLI, GateKind.SWAP]
)
def test_classical_gate_matrix_is_the_simulated_permutation(kind):
    for operands in permutations(range(4), GATE_ARITY[kind]):
        gate = Gate(kind, operands)
        one = Circuit(4).append(gate)
        want = np.zeros((16, 16))
        for col in range(16):
            want[simulate_mask(one, col), col] = 1
        assert np.array_equal(_gate_matrix(gate, 4), want), operands


def test_controlled_v_squares_to_cnot():
    for c, t in permutations(range(3), 2):
        cv, cvdag = Gate(GateKind.CV, (c, t)), Gate(GateKind.CVDAG, (c, t))
        cnot = _gate_matrix(Gate(GateKind.CNOT, (c, t)), 3)
        assert np.array_equal(_sequence_matrix([cv, cv], 3), cnot)
        assert np.array_equal(_sequence_matrix([cvdag, cvdag], 3), cnot)
        assert np.array_equal(_sequence_matrix([cv, cvdag], 3), np.eye(8))


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


def test_route_refuses_toffolis():
    with pytest.raises(CircuitError, match=r"gates\[0\]: .*run decompose_toffoli first"):
        route_linear(Circuit(5).ccx(0, 2, 4))
    with pytest.raises(CircuitError, match=r"gates\[2\]: .*decompose_toffoli"):
        route_linear(Circuit(5).cx(0, 4).x(1).ccx(0, 2, 4).ccx(1, 2, 3))


def _peak(build):
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_router_state_is_sized_by_the_wires_in_use():
    width = 1 << 18
    c = Circuit(width).cx(0, 3)
    routed, perm = route_linear(c)
    assert perm.forward[:4] == (2, 0, 1, 3) and perm.forward[4:] == tuple(range(4, width))
    assert [g.kind for g in routed.gates] == [GateKind.SWAP, GateKind.SWAP, GateKind.CNOT]
    # the width-long layout is all that grows with the declared width
    layout_alone = _peak(lambda: LayoutPermutation(tuple(range(width))))
    assert _peak(lambda: route_linear(c)) <= layout_alone + (1 << 20)


def test_layout_permutation_validation():
    with pytest.raises(Exception):
        LayoutPermutation(forward=(0, 0, 1))
    p = LayoutPermutation(forward=(2, 0, 1))
    assert p.position(0) == 2


def classical_stand_in(lowered):
    """``lowered`` with CV and CVDAG relabelled CNOT: the same operands, so
    the same routing, but a circuit ``simulate_mask`` can run."""
    kinds, ops = lowered.as_arrays()
    kinds[np.isin(kinds, [KIND_CODE[GateKind.CV], KIND_CODE[GateKind.CVDAG]])] = (
        KIND_CODE[GateKind.CNOT]
    )
    return Circuit.from_arrays(lowered.width, lowered.registers, kinds, ops)


def _routed_equivalent(circuit):
    """Route the classical stand-in of ``circuit``'s lowering; simulate it
    before and after routing and compare modulo the layout."""
    lowered = decompose_toffoli(circuit)
    stand_in = classical_stand_in(lowered)
    routed, perm = route_linear(stand_in)
    real, real_perm = route_linear(lowered)
    # the router reads only operands: the stand-in routes as the lowering does
    (kinds, ops), (real_kinds, real_ops) = routed.as_arrays(), real.as_arrays()
    swap = KIND_CODE[GateKind.SWAP]
    assert np.array_equal(ops, real_ops) and np.array_equal(kinds == swap, real_kinds == swap)
    assert perm == real_perm
    for mask in range(1 << circuit.width):
        want = simulate_mask(stand_in, mask)
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
