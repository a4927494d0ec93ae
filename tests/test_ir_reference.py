"""Differential tests of the array-backed circuit passes against per-gate
reference versions.

The references below walk ``Gate`` values one at a time, as the passes did
when a circuit stored a list of gates.  Each array-backed pass must give
the same gates, layout, counts, verdict or schedule on random circuits
over all six gate kinds.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shorcost.architecture import (
    AC,
    NTC,
    ArchModel,
    ConformanceReport,
    check_conformance,
    decompose_toffoli,
    route_linear,
)
from shorcost.circuit import GATE_ARITY, Circuit, CircuitError, Gate, GateKind
from shorcost.oracle import NonClassicalGateError, simulate_mask
from shorcost.scheduler import Metrics, Schedule, asap_schedule, metrics

# ---------------------------------------------------------------------------
# per-gate references


def ref_decompose(gates):
    out = []
    for g in gates:
        if g.kind is GateKind.TOFFOLI:
            a, b, t = g.operands
            out += [
                Gate(GateKind.CV, (b, t)),
                Gate(GateKind.CNOT, (a, b)),
                Gate(GateKind.CVDAG, (b, t)),
                Gate(GateKind.CNOT, (a, b)),
                Gate(GateKind.CV, (a, t)),
            ]
        else:
            out.append(g)
    return out


def ref_route(gates, width):
    pos = list(range(width))
    holder = list(range(width))
    out = []

    def swap_positions(p):
        out.append(Gate(GateKind.SWAP, (p, p + 1)))
        qa, qb = holder[p], holder[p + 1]
        holder[p], holder[p + 1] = qb, qa
        pos[qa], pos[qb] = p + 1, p

    def march_right(p, stop):
        while stop - p > 1:
            swap_positions(p)
            p += 1

    for g in gates:
        if GATE_ARITY[g.kind] == 2:
            p, q = sorted(pos[o] for o in g.operands)
            march_right(p, q)
        out.append(Gate(g.kind, tuple(pos[o] for o in g.operands)))
    return out, tuple(pos)


def ref_inverse(gates):
    return [g.inverse() for g in reversed(gates)]


def ref_census(gates):
    counts = {kind: 0 for kind in GateKind}
    for g in gates:
        counts[g.kind] += 1
    return counts


def ref_conformance(gates, model: ArchModel):
    for idx, g in enumerate(gates):
        ops = g.operands
        if len(ops) > model.max_arity:
            return ConformanceReport(False, idx)
        if model.adjacency_required and len(ops) == 2 and abs(ops[0] - ops[1]) != 1:
            return ConformanceReport(False, idx)
    return ConformanceReport(True, None)


def copy_conformance(circuit, model: ArchModel):
    """``check_conformance`` as it was before it read the gate arrays as
    views: arity from the used operand slots of an ``as_arrays()`` copy."""
    _, ops = circuit.as_arrays()
    arity = (ops >= 0).sum(axis=1)  # an unused operand slot holds -1
    bad = arity > model.max_arity
    if model.adjacency_required:
        bad |= (arity == 2) & (np.abs(ops[:, 0] - ops[:, 1]) != 1)
    if bad.any():
        return ConformanceReport(False, int(bad.argmax()))
    return ConformanceReport(True, None)


def ref_schedule(gates, width):
    ready = [0] * width
    steps = []
    for idx, g in enumerate(gates):
        t = max(ready[q] for q in g.operands)
        if t == len(steps):
            steps.append([])
        steps[t].append(idx)
        for q in g.operands:
            ready[q] = t + 1
    return Schedule(tuple(tuple(s) for s in steps))


def ref_metrics(gates, width):
    sched = ref_schedule(gates, width)
    depth = sched.depth
    return Metrics(
        depth=depth,
        total_gates=len(gates),
        width=width,
        max_concurrency=max((len(s) for s in sched.timesteps), default=0),
        mean_concurrency=len(gates) / depth if depth else 0.0,
    )


def ref_simulate(gates, mask):
    for g in gates:
        ops = g.operands
        if g.kind is GateKind.NOT:
            mask ^= 1 << ops[0]
        elif g.kind is GateKind.CNOT:
            mask ^= (mask >> ops[0] & 1) << ops[1]
        elif g.kind is GateKind.TOFFOLI:
            mask ^= (mask >> ops[0] & mask >> ops[1] & 1) << ops[2]
        elif g.kind is GateKind.SWAP:
            i, j = ops
            if (mask >> i & 1) != (mask >> j & 1):
                mask ^= (1 << i) | (1 << j)
        else:
            raise NonClassicalGateError(g.kind.value)
    return mask


def ref_dumps(circuit):
    doc = {
        "width": circuit.width,
        "registers": [
            {"name": r.name, "offset": r.offset, "length": r.length}
            for r in circuit.registers
        ],
        "gates": [
            {"kind": g.kind.value, "operands": list(g.operands)} for g in circuit.gates
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# random circuits


@st.composite
def gate_lists(draw, kinds=tuple(GateKind), max_width=12, max_gates=60):
    width = draw(st.integers(min_value=3, max_value=max_width))
    gates = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_gates))):
        kind = draw(st.sampled_from(kinds))
        ops = draw(
            st.lists(
                st.integers(min_value=0, max_value=width - 1),
                min_size=GATE_ARITY[kind],
                max_size=GATE_ARITY[kind],
                unique=True,
            )
        )
        gates.append(Gate(kind, tuple(ops)))
    return width, gates


@st.composite
def circuits(draw, kinds=tuple(GateKind)):
    width, gates = draw(gate_lists(kinds))
    name = draw(st.text(min_size=1, max_size=6))
    c = Circuit(width, [(name, 0, draw(st.integers(min_value=1, max_value=width)))])
    return c.extend(gates)


@given(circuits())
@settings(max_examples=80, deadline=None)
def test_lowering_matches_reference(c):
    toffolis = [i for i, g in enumerate(c.gates) if g.kind is GateKind.TOFFOLI]
    if toffolis:  # the router takes only the decomposed circuit
        with pytest.raises(CircuitError, match=rf"gates\[{toffolis[0]}\]: .*decompose_toffoli"):
            route_linear(c)
    decomposed = decompose_toffoli(c)
    assert list(decomposed.gates) == ref_decompose(c.gates)
    assert decomposed.registers == c.registers
    routed, layout = route_linear(decomposed)
    want_gates, want_layout = ref_route(decomposed.gates, c.width)
    assert list(routed.gates) == want_gates
    assert layout.forward == want_layout
    assert check_conformance(routed, NTC) == ConformanceReport(True, None)
    for out in (decomposed, routed):
        assert_passes_the_entry_check(out)


def assert_passes_the_entry_check(out):
    # the passes build their output unchecked; the checked entry point
    # must accept it unchanged
    assert Circuit.from_arrays(out.width, out.registers, *out.as_arrays()) == out


@given(circuits())
@settings(max_examples=80, deadline=None)
def test_inverse_census_and_conformance_match_reference(c):
    assert list(c.inverse().gates) == ref_inverse(c.gates)
    assert c.census() == ref_census(c.gates)
    for model in (AC, NTC):
        assert check_conformance(c, model) == ref_conformance(c.gates, model)


@given(circuits(), st.data())
@settings(max_examples=80, deadline=None)
def test_conformance_matches_the_copying_check(c, data):
    # a routed circuit conforms to NTC; a few drawn gates after it can make
    # a late first violation
    routed = route_linear(decompose_toffoli(c))[0]
    tail = Circuit(c.width).extend(data.draw(gate_lists(max_width=c.width, max_gates=3))[1])
    for circuit in (c, routed, Circuit(c.width).append_circuit(routed).append_circuit(tail)):
        for model in (AC, NTC, ArchModel("line of pairs", 2, False)):
            assert check_conformance(circuit, model) == copy_conformance(circuit, model)


@given(circuits())
@settings(max_examples=80, deadline=None)
def test_schedule_and_metrics_match_reference(c):
    # the router schedules as it routes
    for circuit in (c, route_linear(decompose_toffoli(c))[0]):
        assert asap_schedule(circuit) == ref_schedule(circuit.gates, circuit.width)
        assert metrics(circuit) == ref_metrics(circuit.gates, circuit.width)


@given(circuits())
@settings(max_examples=80, deadline=None)
def test_serialization_matches_reference(c):
    text = c.dumps()
    assert text == ref_dumps(c)
    assert Circuit.loads(text) == c


@given(circuits(kinds=(GateKind.NOT, GateKind.CNOT, GateKind.TOFFOLI, GateKind.SWAP)),
       st.integers(min_value=0))
@settings(max_examples=80, deadline=None)
def test_simulation_matches_reference(c, seed):
    mask = seed % (1 << c.width)
    assert simulate_mask(c, mask) == ref_simulate(c.gates, mask)


@given(circuits(), st.data())
@settings(max_examples=80, deadline=None)
def test_invert_span_matches_list_surgery(c, data):
    start = data.draw(st.integers(min_value=0, max_value=len(c)))
    stop = data.draw(st.integers(min_value=start, max_value=len(c)))
    gates = list(c.gates)

    appended = Circuit(c.width, c.registers).extend(gates).invert_span(start, stop)
    assert list(appended.gates) == gates + ref_inverse(gates[start:stop])

    # a snapshot taken before a mutation is not changed by it
    before = c.gates
    c.invert_span(start, stop)
    assert before == tuple(gates)
    assert c.gates == tuple(gates + ref_inverse(gates[start:stop]))


@given(gate_lists())
@settings(max_examples=60, deadline=None)
def test_batch_and_eager_checks_agree(drawn):
    """A document the batch check accepts is one the emitters accept, and
    a gate pushed out of range is rejected by both."""
    width, gates = drawn
    eager = Circuit(width).extend(gates)
    doc = eager.to_dict()
    assert Circuit.from_dict(doc) == eager
    assert Circuit.from_arrays(width, (), *eager.as_arrays()) == eager
    if gates:
        doc["gates"][-1]["operands"][0] = width
        with pytest.raises(CircuitError, match="out of range"):
            Circuit.from_dict(doc)
        with pytest.raises(CircuitError, match="out of range"):
            eager.append(Gate(gates[-1].kind, (width, *gates[-1].operands[1:])))
