import random
import tracemalloc

from shorcost import architecture
from shorcost.architecture import _walk_steps, decompose_toffoli, metrics, route_linear
from shorcost.arithmetic import ModexpSpec, build_modexp
from shorcost.circuit import GATE_ARITY, Circuit, Gate, GateKind


def longest_path_depth(circuit):
    """Independent depth oracle: last-writer recurrence per qubit."""
    finish = [0] * circuit.width
    depth = 0
    for g in circuit.gates:
        t = 1 + max(finish[q] for q in g.operands)
        for q in g.operands:
            finish[q] = t
        depth = max(depth, t)
    return depth


def test_disjoint_pair_shares_a_timestep():
    c = Circuit(4).cx(0, 1).cx(2, 3).cx(1, 2)
    assert list(_walk_steps(c)) == [0, 0, 1]
    assert metrics(c).depth == 2


def test_serial_chain():
    c = Circuit(1).x(0).x(0).x(0)
    assert metrics(c).depth == 3


def test_empty_circuit():
    assert list(_walk_steps(Circuit(2))) == []
    m = metrics(Circuit(2))
    assert m.depth == 0 and m.total_gates == 0 and m.mean_concurrency == 0.0


def test_per_wire_state_is_sized_by_the_wires_in_use():
    c = Circuit(1 << 22).cx(0, 1)
    tracemalloc.start()
    try:
        m = metrics(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (m.depth, m.total_gates, m.width) == (1, 1, 1 << 22)
    assert peak < 4 << 20


def test_metrics_walk_holds_few_bytes_per_gate():
    """Serial CDKM modexp at n=16: the walk reads the operand columns in
    place, so the peak is the steps, their histogram and the integer copy
    ``bincount`` makes, not three lists of the whole table."""
    c = build_modexp(ModexpSpec(n=16, modulus=40009, base=2))
    tracemalloc.start()
    try:
        m = metrics(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (m.depth, m.total_gates) == (458_106, 592_929)
    assert peak <= 20 * len(c), peak / len(c)


def test_metrics_fields():
    c = Circuit(4).cx(0, 1).cx(2, 3).cx(1, 2)
    m = metrics(c)
    assert m.depth == 2
    assert m.total_gates == 3
    assert m.width == 4
    assert m.max_concurrency == 2
    assert m.mean_concurrency == 1.5


def _random_circuit(rng, width, n_gates):
    c = Circuit(width)
    kinds = [k for k in GateKind if GATE_ARITY[k] <= width]
    for _ in range(n_gates):
        kind = rng.choice(kinds)
        c.append(Gate(kind, tuple(rng.sample(range(width), GATE_ARITY[kind]))))
    return c


def test_depth_equals_longest_path_on_random_circuits():
    rng = random.Random(42)
    for _ in range(100):
        c = _random_circuit(rng, rng.randint(1, 10), rng.randint(0, 200))
        m = metrics(c)
        assert m.depth == longest_path_depth(c)
        # schedule invariants
        assert m.depth * m.max_concurrency >= m.total_gates if m.total_gates else True
        assert len(_walk_steps(c)) == len(c)


def test_steps_do_not_depend_on_how_far_apart_the_wires_are():
    """Wires spread out past the operand slots are renumbered densely
    before the walk; the steps are those of the circuit on dense wires."""
    rng = random.Random(5)
    for _ in range(50):
        c = _random_circuit(rng, rng.randint(1, 10), rng.randint(0, 60))
        spread = Circuit(10_000 * c.width)
        for g in c.gates:
            spread.append(Gate(g.kind, tuple(10_000 * q + 9_999 for q in g.operands)))
        assert list(_walk_steps(spread)) == list(_walk_steps(c))


def test_same_timestep_permutation_is_depth_neutral():
    rng = random.Random(7)
    for _ in range(25):
        c = _random_circuit(rng, 6, 40)
        steps = _walk_steps(c)
        # rebuild the gate list in timestep order, each timestep's gates reversed
        shuffled = Circuit(c.width)
        for i in sorted(range(len(c)), key=lambda i: (steps[i], -i)):
            shuffled.append(c.gates[i])
        assert metrics(shuffled).depth == metrics(c).depth


def test_concatenation_depths():
    rng = random.Random(9)
    a = _random_circuit(rng, 4, 30)
    b = _random_circuit(rng, 4, 30)

    disjoint = Circuit(8)
    for g in a.gates:
        disjoint.append(g)
    for g in b.gates:
        disjoint.append(Gate(g.kind, tuple(q + 4 for q in g.operands)))
    assert metrics(disjoint).depth == max(metrics(a).depth, metrics(b).depth)

    # fully shared wires: a chain of NOTs on one qubit extends serially
    chain1 = Circuit(1)
    chain2 = Circuit(1)
    for _ in range(5):
        chain1.x(0)
    for _ in range(3):
        chain2.x(0)
    joined = Circuit(1)
    for g in chain1.gates + chain2.gates:
        joined.append(g)
    assert metrics(joined).depth == 5 + 3


def test_kept_steps_and_snapshot_expire_when_gates_are_appended(monkeypatch):
    """A routed circuit keeps the ASAP steps the router worked out, and
    ``gates`` keeps its snapshot.  Every mutator appends, so after each
    one ``metrics`` matches a copy that never kept steps, ``gates`` ends
    with what was appended, and a snapshot taken before is unchanged; a
    mutator that appends nothing leaves the kept steps in use."""
    walked = []
    monkeypatch.setattr(
        architecture, "_walk_steps", lambda c: walked.append(c) or _walk_steps(c)
    )
    rng = random.Random(11)
    lowered = decompose_toffoli(_random_circuit(rng, 6, 40))
    other = _random_circuit(rng, 6, 10)
    two = [Gate(GateKind.NOT, (5,)), Gate(GateKind.TOFFOLI, (5, 0, 3))]
    mutators = [
        (lambda c: c.x(0), [Gate(GateKind.NOT, (0,))]),
        (lambda c: c.cx(5, 0), [Gate(GateKind.CNOT, (5, 0))]),
        (lambda c: c.ccx(0, 5, 2), [Gate(GateKind.TOFFOLI, (0, 5, 2))]),
        (lambda c: c.swap(0, 5), [Gate(GateKind.SWAP, (0, 5))]),
        (lambda c: c.cv(5, 0), [Gate(GateKind.CV, (5, 0))]),
        (lambda c: c.cvdag(0, 5), [Gate(GateKind.CVDAG, (0, 5))]),
        (lambda c: c.append(Gate(GateKind.CNOT, (0, 5))), [Gate(GateKind.CNOT, (0, 5))]),
        (lambda c: c.extend(two), two),
        (lambda c: c.append_circuit(other), list(other.gates)),
        (lambda c: c.extend([]), []),
        (lambda c: c.append_circuit(Circuit(1)), []),
    ]
    routed = route_linear(lowered)[0].gates
    for mutate, added in mutators:
        c, _ = route_linear(lowered)
        before = c.gates
        kept = metrics(c)
        assert not walked
        mutate(c)
        assert before == routed
        assert c.gates == before + tuple(added)
        fresh = Circuit.from_arrays(c.width, c.registers, *c.as_arrays())
        assert metrics(c) == metrics(fresh)
        assert walked == ([c, fresh] if added else [fresh])
        if not added:
            assert metrics(c) == kept
        walked.clear()
