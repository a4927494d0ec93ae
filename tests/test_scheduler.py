import random
import tracemalloc

from shorcost.architecture import decompose_toffoli, route_linear
from shorcost.circuit import GATE_ARITY, Circuit, Gate, GateKind
from shorcost.scheduler import asap_schedule, metrics


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
    sched = asap_schedule(c)
    assert sched.depth == 2
    assert [len(ts) for ts in sched.timesteps] == [2, 1]


def test_serial_chain():
    c = Circuit(1).x(0).x(0).x(0)
    assert asap_schedule(c).depth == 3


def test_empty_circuit():
    sched = asap_schedule(Circuit(2))
    assert sched.depth == 0
    assert sched.timesteps == ()
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
        sched = asap_schedule(c)
        assert sched.depth == longest_path_depth(c)
        # schedule invariants
        m = metrics(c)
        assert m.depth * m.max_concurrency >= m.total_gates if m.total_gates else True
        assert sum(len(ts) for ts in sched.timesteps) == len(c)


def test_same_timestep_permutation_is_depth_neutral():
    rng = random.Random(7)
    for _ in range(25):
        c = _random_circuit(rng, 6, 40)
        sched = asap_schedule(c)
        # rebuild the gate list with each timestep's gates reversed
        shuffled = Circuit(c.width)
        for ts in sched.timesteps:
            for i in reversed(ts):
                shuffled.append(c.gates[i])
        assert asap_schedule(shuffled).depth == sched.depth


def test_concatenation_depths():
    rng = random.Random(9)
    a = _random_circuit(rng, 4, 30)
    b = _random_circuit(rng, 4, 30)

    disjoint = Circuit(8)
    for g in a.gates:
        disjoint.append(g)
    for g in b.gates:
        disjoint.append(Gate(g.kind, tuple(q + 4 for q in g.operands)))
    assert (
        asap_schedule(disjoint).depth
        == max(asap_schedule(a).depth, asap_schedule(b).depth)
    )

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
    assert asap_schedule(joined).depth == 5 + 3


def test_every_mutator_drops_the_kept_steps():
    """A circuit keeps its ASAP steps once scheduled or routed; each way of
    adding gates must drop them, so the next schedule matches a copy that
    never kept any."""
    rng = random.Random(11)
    c, _ = route_linear(decompose_toffoli(_random_circuit(rng, 6, 40)))  # steps kept already
    other = _random_circuit(rng, 6, 10)
    mutators = [
        lambda c: c.x(0),
        lambda c: c.cx(5, 0),
        lambda c: c.ccx(0, 5, 2),
        lambda c: c.swap(0, 5),
        lambda c: c.cv(5, 0),
        lambda c: c.cvdag(0, 5),
        lambda c: c.append(Gate(GateKind.CNOT, (0, 5))),
        lambda c: c.extend([Gate(GateKind.NOT, (5,)), Gate(GateKind.TOFFOLI, (5, 0, 3))]),
        lambda c: c.invert_span(0, 7),
        lambda c: c.append_circuit(other),
    ]
    for mutate in mutators:
        metrics(c)
        mutate(c)
        fresh = Circuit.from_arrays(c.width, c.registers, *c.as_arrays())
        assert metrics(c) == metrics(fresh)
        assert asap_schedule(c) == asap_schedule(fresh)
