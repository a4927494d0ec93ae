import itertools
import math
import random
import tracemalloc
from array import array
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shorcost import oracle
from shorcost.circuit import GATE_ARITY, Circuit, CircuitError, Gate, GateKind
from shorcost.contracts import contract
from shorcost.oracle import (
    Counterexample,
    NonClassicalGateError,
    domain_size,
    exhaustive_check,
    randomized_check,
    simulate_mask,
)

_CLASSICAL_KINDS = (GateKind.NOT, GateKind.CNOT, GateKind.TOFFOLI, GateKind.SWAP)


def test_cnot_flips_target_when_control_set():
    c = Circuit(2).cx(0, 1)
    assert simulate_mask(c, 0b01) == 0b11
    assert simulate_mask(c, 0b00) == 0b00


def test_toffoli_needs_both_controls():
    c = Circuit(3).ccx(0, 1, 2)
    assert simulate_mask(c, 0b011) == 0b111
    assert simulate_mask(c, 0b001) == 0b001
    assert simulate_mask(c, 0b111) == 0b011


def test_swap_exchanges_bits():
    c = Circuit(2).swap(0, 1)
    assert simulate_mask(c, 0b01) == 0b10


def test_cv_rejected():
    c = Circuit(2).cv(0, 1)
    with pytest.raises(NonClassicalGateError):
        simulate_mask(c, 0)
    # the bit-sliced engine refuses it too, through both checks
    c = Circuit(2, [("a", 0, 1), ("b", 1, 1)]).cv(0, 1)
    domain = {"a": range(2), "b": range(2)}
    with pytest.raises(NonClassicalGateError):
        exhaustive_check(c, _xor_spec(c), domain)
    with pytest.raises(NonClassicalGateError):
        randomized_check(c, _xor_spec(c), domain, trials=4, seed=0)


def _random_classical_circuit(rng, width, n_gates):
    c = Circuit(width)
    kinds = [k for k in _CLASSICAL_KINDS if GATE_ARITY[k] <= width]
    for _ in range(n_gates):
        kind = rng.choice(kinds)
        ops = tuple(rng.sample(range(width), GATE_ARITY[kind]))
        c.append(Gate(kind, ops))
    return c


def test_simulate_is_a_bijection_at_small_width():
    """Reversible circuits must permute the basis states."""
    rng = random.Random(11)
    for _ in range(20):
        width = rng.randint(2, 10)
        c = _random_classical_circuit(rng, width, rng.randint(0, 60))
        outputs = {simulate_mask(c, m) for m in range(1 << width)}
        assert len(outputs) == 1 << width


def test_inverse_undoes_simulate():
    rng = random.Random(12)
    for _ in range(20):
        width = rng.randint(2, 10)
        c = _random_classical_circuit(rng, width, rng.randint(0, 60))
        inv = c.inverse()
        for m in range(0, 1 << width, 7):
            assert simulate_mask(inv, simulate_mask(c, m)) == m


# ---------------------------------------------------------------------------
# the check harness itself


def _xor_spec(c):
    def fn(vals):
        return {"b": vals["a"] ^ vals["b"]}

    return fn


def test_exhaustive_check_passes_correct_circuit():
    c = Circuit(2, [("a", 0, 1), ("b", 1, 1)]).cx(0, 1)
    assert exhaustive_check(c, _xor_spec(c), {"a": range(2), "b": range(2)}) is None


def test_exhaustive_check_reports_first_counterexample():
    c = Circuit(2, [("a", 0, 1), ("b", 1, 1)])  # missing the CNOT
    cx = exhaustive_check(c, _xor_spec(c), {"a": range(2), "b": range(2)})
    assert cx is not None
    # first failing input in product order is a=1, b=0
    assert cx.input_registers == {"a": 1, "b": 0}
    assert cx.expected == {"b": 1}
    # actual reports the whole observed state, not just the spec'd registers
    assert cx.actual == {"a": 1, "b": 0}


def test_check_untouched_catches_dirty_scratch():
    c = Circuit(2, [("a", 0, 1), ("junk", 1, 1)])
    c.cx(0, 1)  # writes into junk, spec says nothing about it

    def fn(vals):
        return {}

    assert exhaustive_check(c, fn, {"a": range(2)}) is not None


def test_mutated_adder_is_caught():
    from shorcost.arithmetic import AdderKind, build_adder

    good = build_adder(AdderKind.CDKM_RIPPLE, 3)
    mutated = Circuit(good.width, good.registers)
    for i, g in enumerate(good.gates):
        if i != 7:  # drop one gate in the middle
            mutated.append(g)
    domain, fn = contract("adder", good)
    assert exhaustive_check(good, fn, domain) is None
    assert exhaustive_check(mutated, fn, domain) is not None


def test_randomized_check_deterministic_and_vacuous():
    c = Circuit(2, [("a", 0, 1), ("b", 1, 1)]).cx(0, 1)
    domain = {"a": range(2), "b": range(2)}
    assert randomized_check(c, _xor_spec(c), domain, trials=0, seed=1) is None

    broken = Circuit(2, [("a", 0, 1), ("b", 1, 1)])
    first = randomized_check(broken, _xor_spec(broken), domain, trials=64, seed=5)
    second = randomized_check(broken, _xor_spec(broken), domain, trials=64, seed=5)
    assert first == second
    assert first is not None


def test_randomized_check_rejects_bad_trials_and_empty_domains():
    c = Circuit(2, [("a", 0, 1), ("b", 1, 1)]).cx(0, 1)
    with pytest.raises(CircuitError, match="trials must be non-negative"):
        randomized_check(c, _xor_spec(c), {"a": range(2), "b": range(2)}, trials=-1, seed=0)
    empty = {"a": range(0), "b": range(2)}
    with pytest.raises(CircuitError, match="cannot sample from an empty value sequence"):
        randomized_check(c, _xor_spec(c), empty, trials=4, seed=0)
    assert randomized_check(c, _xor_spec(c), empty, trials=0, seed=0) is None
    for trials in (2.5, "3", None, 4.0):
        with pytest.raises(CircuitError, match="trials must be an integer"):
            randomized_check(c, _xor_spec(c), {"a": range(2)}, trials=trials, seed=0)
    domain = {"a": range(2), "b": range(2)}
    assert randomized_check(c, _xor_spec(c), domain, trials=np.int64(3), seed=0) is None


def test_wide_circuit_simulation():
    """Packing must survive register boundaries beyond one 64-bit word."""
    c = Circuit(80, [("lo", 0, 40), ("hi", 40, 40)])
    for i in range(40):
        c.cx(i, 40 + i)

    def fn(vals):
        return {"hi": vals["lo"] ^ vals["hi"]}

    cx = randomized_check(
        c, fn, {"lo": range(1 << 40), "hi": range(1 << 40)}, trials=200, seed=3
    )
    assert cx is None


# ---------------------------------------------------------------------------
# the bit-sliced engine against the single-state reference walker


def _reference_check(circuit, spec, domain):
    """Loop over itertools.product with simulate_mask, one input at a time."""
    regs = circuit.registers
    names = list(domain)
    for combo in itertools.product(*(domain[name] for name in names)):
        mask = 0
        for name, value in zip(names, combo):
            mask |= value << circuit.register(name).offset
        out = simulate_mask(circuit, mask)
        inputs = {r.name: mask >> r.offset & ((1 << r.length) - 1) for r in regs}
        actual = {r.name: out >> r.offset & ((1 << r.length) - 1) for r in regs}
        expected = dict(spec(inputs))
        want = dict(inputs)
        want.update((k, v) for k, v in expected.items() if k in actual)
        if any(actual[k] != v for k, v in want.items()):
            return Counterexample(inputs, expected, actual)
    return None


@st.composite
def _checks(draw):
    """A random classical circuit with up to four registers, some of them
    wider than 64 bits, a small domain over them and a spec that is wrong on
    a drawn share of inputs."""
    regs, pos = [], 0
    lengths = st.lists(st.one_of(st.integers(1, 8), st.integers(60, 70)), max_size=4)
    for length in draw(lengths):
        pos += draw(st.integers(0, 2))  # wires outside every register
        regs.append((f"r{len(regs)}", pos, length))
        pos += length
    width = pos + draw(st.integers(1 if pos == 0 else 0, 2))
    c = Circuit(width, regs)
    kinds = [k for k in _CLASSICAL_KINDS if GATE_ARITY[k] <= width]
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(kinds))
        arity = GATE_ARITY[kind]
        wires = st.lists(st.integers(0, width - 1), min_size=arity, max_size=arity, unique=True)
        c.append(Gate(kind, tuple(draw(wires))))

    some_regs = st.lists(st.sampled_from(regs), unique=True) if regs else st.just([])
    domain = {}
    for name, _, length in draw(some_regs)[:3]:
        values = st.integers(0, (1 << length) - 1)
        domain[name] = draw(st.lists(values, min_size=1, max_size=4))

    reported = draw(some_regs)
    faulty = draw(st.sets(st.integers(0, 4)))
    omit = draw(st.booleans())
    fault = draw(st.sampled_from(["flip", "overflow", "fraction", "string", "float"]))

    def spec(vals):
        key = sum(vals.values()) % 5
        mask = 0
        for r in c.registers:
            mask |= vals[r.name] << r.offset
        out = simulate_mask(c, mask)
        want = {}
        for name, offset, length in reported:
            if omit and key == 1:
                continue
            value = out >> offset & ((1 << length) - 1)
            if key in faulty:
                value = {
                    "flip": lambda v: v ^ 1,
                    "overflow": lambda v: 1 << length,
                    "fraction": lambda v: v + 0.5,
                    "string": str,
                    "float": float,  # equal under == unless the value rounds
                }[fault](value)
            want[name] = value
        return want

    return c, spec, domain


def _recording(spec):
    calls = []

    def fn(vals):
        calls.append(dict(vals))
        return spec(vals)

    return fn, calls


@given(
    _checks(),
    st.sampled_from([1, 3, 8, oracle._CHUNK]),
    st.sampled_from([1, 3, oracle._BATCH]),
)
@settings(max_examples=200, deadline=None)
def test_engine_matches_reference_walker(case, chunk, batch):
    c, spec, domain = case
    fn, calls = _recording(spec)
    ref_fn, ref_calls = _recording(spec)
    with mock.patch.object(oracle, "_CHUNK", chunk), mock.patch.object(oracle, "_BATCH", batch):
        got = exhaustive_check(c, fn, domain)
        sampled = randomized_check(c, spec, domain, trials=5, seed=1)
    assert got == _reference_check(c, ref_fn, domain)
    # the engine visits the product in the same order, and stops within
    # one chunk of the first counterexample
    assert calls[: len(ref_calls)] == ref_calls
    assert len(calls) < len(ref_calls) + chunk if got else len(calls) == len(ref_calls)
    if got is None:
        assert sampled is None


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 7, 64])
def test_chunks_walk_the_product_in_order(chunk):
    c = Circuit(10, [("a", 0, 3), ("b", 3, 3), ("c", 6, 3)])
    domain = {"a": [5, 1, 7], "b": range(2), "c": range(6, 0, -2)}
    fn, calls = _recording(lambda vals: {})
    with mock.patch.object(oracle, "_CHUNK", chunk):
        assert exhaustive_check(c, fn, domain) is None
    order = [(x["a"], x["b"], x["c"]) for x in calls]
    assert order == list(itertools.product(*domain.values()))


@pytest.mark.parametrize("bad_value", [4, -1, -4, 1 << 70])
def test_spec_value_outside_register_is_a_counterexample(bad_value):
    c = Circuit(4, [("a", 0, 2), ("b", 2, 2)])  # identity: b stays 0

    def fn(vals):
        return {"b": bad_value if vals["a"] == 2 else 0}

    cx = exhaustive_check(c, fn, {"a": range(4)})
    assert cx == Counterexample({"a": 2, "b": 0}, {"b": bad_value}, {"a": 2, "b": 0})


@pytest.mark.parametrize(
    "length, answer, agrees",
    [
        (1, lambda a: a + 0.4, False),
        (1, str, False),
        (1, lambda a: None, False),
        (1, lambda a: math.nan, False),
        (1, float, True),
        (1, lambda a: True if a == 1 else a, True),
        (1, lambda a: [a], False),
        (1, lambda a: [0] * a, False),
        (1, np.int64, True),
        (64, lambda a: a * ((1 << 64) - 1), True),
        (64, lambda a: a << 64, False),
    ],
    ids=[
        "fraction", "string", "none", "nan", "float", "bool", "list", "ragged",
        "numpy", "max64", "over64",
    ],
)
def test_non_integer_spec_values_compare_with_eq(length, answer, agrees):
    """A spec value agrees with a register exactly when the reference's
    ``==`` says so: nothing is truncated, parsed or refused."""
    c = Circuit(1 + length, [("a", 0, 1), ("b", 1, length)])
    for j in range(length):  # b <- a in every bit
        c.cx(0, 1 + j)

    def fn(vals):
        return {"b": answer(vals["a"])}

    domain = {"a": range(2)}
    cx = exhaustive_check(c, fn, domain)
    assert cx == _reference_check(c, fn, domain)
    assert (cx is None) == agrees
    assert (randomized_check(c, fn, domain, trials=8, seed=0) is None) == agrees


def test_misbehaving_specs_see_fresh_inputs_and_keep_their_answers():
    """A spec that writes into its input, or hands back one shared dict, gets
    the same verdict as a well-behaved one, and each call gets its own dict."""
    c = Circuit(4, [("a", 0, 2), ("b", 2, 2)]).cx(0, 2).cx(1, 3)  # b ^= a
    domain = {"a": range(4), "b": range(4)}

    def honest(vals):
        return {"b": vals["a"] ^ vals["b"] ^ (vals["a"] == 3 and vals["b"] == 2)}

    seen = []

    def writer(vals):
        seen.append(vals)
        out = honest(vals)
        vals["a"] = 99
        return out

    shared = {}

    def reuser(vals):
        seen.append(vals)
        shared.clear()
        shared.update(honest(vals))
        return shared

    with mock.patch.object(oracle, "_BATCH", 3):
        want = exhaustive_check(c, honest, domain)
        assert want.input_registers == {"a": 3, "b": 2}
        assert exhaustive_check(c, writer, domain) == want
        assert exhaustive_check(c, reuser, domain) == _reference_check(c, reuser, domain)
    assert len(set(map(id, seen))) == len(seen)


def test_rows_are_sized_by_the_wires_in_use():
    c = Circuit(1 << 22, [("a", 0, 1), ("b", 1, 1)]).cx(0, 1)
    tracemalloc.start()
    try:
        assert exhaustive_check(c, _xor_spec(c), {"a": range(2), "b": range(2)}) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_oracle_peak_memory_per_gate():
    """Serial modexp at n=6 over all 2^12 exponents: the gate loop reads the
    circuit's own columns, so the peak holds no per-gate list of the table."""
    from shorcost.arithmetic import ModexpSpec, build_modexp

    c = build_modexp(ModexpSpec(n=6, modulus=59, base=2))
    domain, spec = contract("modexp", c, modulus=59, const=2)
    assert domain_size(domain) == 1 << 12
    tracemalloc.start()
    try:
        assert exhaustive_check(c, spec, domain) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * len(c), peak / len(c)


def test_a_spec_that_grows_the_circuit_under_check_is_refused():
    c = Circuit(2, [("a", 0, 1), ("b", 1, 1)]).cx(0, 1)

    def grower(vals):
        c.x(0)
        return {"b": vals["a"] ^ vals["b"]}

    domain = {"a": range(2), "b": range(2)}
    with pytest.raises(BufferError):
        exhaustive_check(c, grower, domain)
    with pytest.raises(BufferError):
        randomized_check(c, grower, domain, trials=4, seed=0)
    assert len(c) == 1
    assert exhaustive_check(c, _xor_spec(c), domain) is None


def _copy_circuit():
    """17-bit copy b ^= a, checked against a spec that is wrong at one input."""
    c = Circuit(34, [("a", 0, 17), ("b", 17, 17)])
    for i in range(17):
        c.cx(i, 17 + i)
    return c


def test_only_failure_in_second_chunk():
    c = _copy_circuit()
    bad_a, bad_b = 1, 70_000 - 50_000

    def fn(vals):
        wrong = (vals["a"], vals["b"]) == (bad_a, bad_b)
        return {"b": vals["a"] ^ vals["b"] ^ wrong}

    domain = {"a": range(3), "b": range(50_000)}  # 150k inputs, three chunks
    assert oracle._CHUNK < 70_000 < 2 * oracle._CHUNK
    cx = exhaustive_check(c, fn, domain)
    assert cx.input_registers == {"a": bad_a, "b": bad_b}
    assert cx.expected == {"b": bad_a ^ bad_b ^ 1}
    assert cx.actual == {"a": bad_a, "b": bad_a ^ bad_b}


def test_huge_domain_stops_at_first_chunk():
    c = Circuit(40, [("a", 0, 20), ("b", 20, 20)])
    calls = []

    def fn(vals):
        calls.append(1)
        return {"b": vals["b"] + (vals["b"] == 3)}

    domain = {"a": range(1 << 20), "b": range(1 << 20)}
    assert domain_size(domain) == 1 << 40
    cx = exhaustive_check(c, fn, domain)
    assert cx.input_registers == {"a": 0, "b": 3}
    assert cx.expected == {"b": 4} and cx.actual == {"a": 0, "b": 3}
    assert len(calls) == oracle._CHUNK


def test_domain_size_counts_past_2_to_63():
    assert domain_size({"e": range(1 << 70), "c": range(2)}) == 1 << 71
    assert domain_size({"e": range(10, 0, -3), "c": [5, 6]}) == 8
    assert domain_size({}) == 1


def test_domain_naming_missing_register_is_rejected():
    c = Circuit(2, [("a", 0, 1), ("b", 1, 1)]).cx(0, 1)
    with pytest.raises(CircuitError, match="'t'"):
        exhaustive_check(c, _xor_spec(c), {"t": range(2)})
    with pytest.raises(CircuitError, match="'t'"):
        randomized_check(c, _xor_spec(c), {"t": range(2)}, trials=4, seed=0)


def test_spec_answer_naming_missing_register_is_rejected():
    """An answer key the circuit has no register for is refused, not
    silently passed over; both checks share the rule."""
    c = Circuit(4, [("r", 0, 4)])
    domain = {"r": range(16)}

    def add_3_into(key):
        return lambda v: {key: (v["r"] + 3) % 16}

    assert exhaustive_check(c, add_3_into("r"), domain) is not None
    with pytest.raises(CircuitError, match="'rr', which the circuit lacks"):
        exhaustive_check(c, add_3_into("rr"), domain)
    with pytest.raises(CircuitError, match="'rr', which the circuit lacks"):
        randomized_check(c, add_3_into("rr"), domain, trials=8, seed=0)
    # the first stray name in answer order, even where other keys are fine
    with pytest.raises(CircuitError, match="'s'"):
        exhaustive_check(c, lambda v: {"r": v["r"], "s": 0, "t": 1}, domain)


@pytest.mark.parametrize(
    "bad",
    [0.5, 1.0, "1", None, [1], np.float64(1)],
    ids=["fraction", "float", "string", "none", "list", "numpy-float"],
)
def test_non_integer_domain_values_rejected_before_simulation(bad):
    """The circuit would run the float truncated while the spec saw the
    float itself, so a domain holds only values ``operator.index`` takes."""
    c = Circuit(2, [("a", 0, 1), ("b", 1, 1)]).cx(0, 1)
    # b ^= a, for any a that compares with 1
    fn, calls = _recording(lambda v: {"b": v["b"] if v["a"] < 1 else 1 - v["b"]})
    domain = {"a": [0, bad], "b": range(2)}
    with pytest.raises(CircuitError, match="value .* of register a is not an integer"):
        exhaustive_check(c, fn, domain)
    for trials in (0, 1):
        with pytest.raises(CircuitError, match="value .* of register a is not an integer"):
            randomized_check(c, fn, domain, trials=trials, seed=0)
    assert calls == []


@pytest.mark.parametrize("length", [1, 65])
def test_integer_like_domain_values_are_checked(length):
    c = Circuit(2 * length, [("a", 0, length), ("b", length, length)])
    for j in range(length):
        c.cx(j, length + j)  # b ^= a
    domain = {"a": [np.int64(0), True], "b": [np.uint8(0), 1]}
    assert exhaustive_check(c, _xor_spec(c), domain) is None
    assert exhaustive_check(c, lambda v: {"b": 0}, domain) == Counterexample(
        {"a": 0, "b": 1}, {"b": 0}, {"a": 0, "b": 1}
    )


def test_out_of_range_domain_rejected_before_simulation():
    c = Circuit(2, [("a", 0, 1), ("b", 1, 1)]).cv(0, 1)  # would raise if run
    with pytest.raises(CircuitError, match="does not fit register a"):
        exhaustive_check(c, _xor_spec(c), {"a": range(1 << 40), "b": range(2)})
    with pytest.raises(CircuitError, match="does not fit register b"):
        exhaustive_check(c, _xor_spec(c), {"a": [0], "b": [1, -1]})
    # the sampler follows the same rule, whatever its trials would draw
    for trials in (0, 1, 100):
        with pytest.raises(CircuitError, match="does not fit register a"):
            randomized_check(
                c, _xor_spec(c), {"a": range(1 << 40), "b": range(2)}, trials=trials, seed=0
            )
        with pytest.raises(CircuitError, match="does not fit register b"):
            randomized_check(c, _xor_spec(c), {"a": [0], "b": [1, -1]}, trials=trials, seed=0)


def test_randomized_memory_does_not_grow_with_trials():
    c = Circuit(4, [("a", 0, 2), ("b", 2, 2)]).cx(0, 2).cx(1, 3)
    domain = {"a": range(4), "b": range(4)}
    peaks = []
    for trials in (1 << 16, 1 << 18):
        tracemalloc.start()
        try:
            assert randomized_check(c, _xor_spec(c), domain, trials=trials, seed=1) is None
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 1 << 20


def test_randomized_draws_the_same_stream_as_choice():
    """Sampling consumes the random stream exactly as ``rng.choice`` does, so
    seeded results from earlier releases repeat."""
    broken = Circuit(4, [("a", 0, 2), ("b", 2, 2)])  # missing the XOR

    def fn(vals):
        return {"b": vals["a"] ^ vals["b"]}

    domain = {"a": [1, 2, 3], "b": range(4)}
    rng = random.Random(9)
    draws = [{name: rng.choice(space) for name, space in domain.items()} for _ in range(8)]
    first_bad = next(d for d in draws if d["a"] ^ d["b"] != d["b"])
    cx = randomized_check(broken, fn, domain, trials=8, seed=9)
    assert cx.input_registers == first_bad


# ---------------------------------------------------------------------------
# registers wider than 64 bits

_WIDE = 65
_WIDE_VALUES = [0, 1, (1 << 64) - 1, 1 << 64, 0x1_2345_6789_ABCD_EF01, (1 << _WIDE) - 1]


def _wide_adder_spec(vals):
    total = vals["a"] + vals["b"]
    return {"b": total % (1 << _WIDE), "carry_out": vals["carry_out"] ^ (total >> _WIDE)}


def _wide_domain():
    return {"a": _WIDE_VALUES, "b": _WIDE_VALUES, "carry_out": range(2)}


def test_65_bit_adder_passes():
    from shorcost.arithmetic import AdderKind, build_adder

    c = build_adder(AdderKind.CDKM_RIPPLE, _WIDE)
    assert exhaustive_check(c, _wide_adder_spec, _wide_domain()) is None


def test_65_bit_adder_fault_reports_exact_wide_values():
    from shorcost.arithmetic import AdderKind, build_adder

    good = build_adder(AdderKind.CDKM_RIPPLE, _WIDE)
    top = good.register("a").offset + _WIDE - 1
    drop = next(i for i, g in enumerate(good.gates) if top in g.operands)
    faulty = Circuit(good.width, good.registers)
    for i, g in enumerate(good.gates):
        if i != drop:
            faulty.append(g)
    cx = exhaustive_check(faulty, _wide_adder_spec, _wide_domain())
    assert cx == _reference_check(faulty, _wide_adder_spec, _wide_domain())
    assert cx.input_registers == {"a": 1 << 64, "b": 0, "carry_out": 0, "anc": 0}
    assert cx.expected == {"b": 1 << 64, "carry_out": 0}
    assert cx.actual == {"a": 1 << 64, "b": 0, "carry_out": 1, "anc": 0}


def test_randomized_check_over_70_bit_space():
    c = Circuit(140, [("lo", 0, 70), ("hi", 70, 70)])
    for i in range(70):
        c.cx(i, 70 + i)

    def fn(vals):
        return {"hi": vals["lo"] ^ vals["hi"]}

    domain = {"lo": range(1 << 70), "hi": range(1 << 70)}
    assert randomized_check(c, fn, domain, trials=100, seed=3) is None

    def wrong(vals):
        return {"hi": vals["lo"] ^ vals["hi"] ^ (1 << 69)}

    cx = randomized_check(c, wrong, domain, trials=100, seed=3)
    rng = random.Random(3)
    first = {name: rng.randrange(1 << 70) for name in domain}
    assert cx.input_registers == first
    assert cx.actual["hi"] == first["lo"] ^ first["hi"]


# ---------------------------------------------------------------------------
# the column and row converters against one-value-at-a-time references


def _spaces():
    lists = st.lists(st.integers(0, 1 << 70), min_size=1, max_size=6)
    ranges = st.builds(
        range,
        st.integers(-5, 20),
        st.integers(-5, 20),
        st.integers(-4, 4).filter(bool),
    ).filter(len)
    return st.one_of(lists, ranges)


@given(
    _spaces(),
    st.integers(1, 9),
    st.integers(0, 400),
    st.integers(1, 120),
)
@example(range(9, -1, -3), 4, 6, 30)  # negative step, start mid-stride, wrap-round
@example([5, 1, 7], 1, 2, 10)  # stride 1 wraps round the space
@example([5, 1, 7], 5, 3, 2)  # one partial run
@settings(max_examples=300, deadline=None)
def test_column_matches_indexing(space, stride, start, k):
    size = len(space)
    want = [space[(start + j) // stride % size] for j in range(k)]
    assert oracle._column(space, size, stride, start, k) == want


def _rows_reference(values, length):
    return [
        sum((v >> j & 1) << i for i, v in enumerate(values)) for j in range(length)
    ]


@pytest.mark.parametrize("length", [1, 8, 63, 64, 65, 70])
@pytest.mark.parametrize("count", [1, 9, 300])
def test_to_rows_matches_per_bit_reference(length, count):
    rng = random.Random(length * 1000 + count)
    top = (1 << length) - 1
    values = [top, 0, *(rng.getrandbits(length) for _ in range(count - 2))][:count]
    want = _rows_reference(values, length)
    assert oracle._to_rows(values, length) == want
    if length <= 64:
        assert oracle._to_rows(array("Q", values), length) == want
