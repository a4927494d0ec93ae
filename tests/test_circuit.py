import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shorcost import circuit
from shorcost.circuit import (
    GATE_ARITY,
    KIND_CODE,
    Circuit,
    CircuitError,
    Gate,
    GateKind,
    Register,
)


def test_empty_circuit_construction():
    c = Circuit(3, [("a", 0, 2), ("c", 2, 1)])
    assert c.width == 3
    assert len(c) == 0
    assert c.register("a").qubits == range(0, 2)
    assert c.register("c").qubits == range(2, 3)


def test_width_one_no_registers_is_valid():
    c = Circuit(1)
    assert c.width == 1 and len(c) == 0


@pytest.mark.parametrize(
    "width,regs",
    [
        (2, [("a", 0, 2), ("b", 1, 2)]),       # overlap
        (2, [("a", 1, 2)]),                    # out of range
        (3, [("a", 0, 1), ("a", 1, 1)]),       # duplicate name
        (0, []),                               # bad width
    ],
)
def test_bad_construction_rejected(width, regs):
    with pytest.raises(CircuitError):
        Circuit(width, regs)


@pytest.mark.parametrize(
    "width,regs,message",
    [
        (3, [("a", 0, 2), ("b", 1, 2)], "'b' overlaps another register"),
        (2, [("a", 1, 2)], "'a' exceeds width 2"),
        (3, [("a", 0, 1), ("a", 1, 1)], "duplicate register name 'a'"),
        (0, [], r"width must be in \[1, 2\^31\), got 0"),
    ],
)
def test_bad_construction_message(width, regs, message):
    with pytest.raises(CircuitError, match=message):
        Circuit(width, regs)


def test_gate_kind_must_be_a_gate_kind():
    with pytest.raises(CircuitError, match="unknown gate kind 'CNOT'"):
        Gate("CNOT", (0, 1))


def test_register_length_must_be_positive():
    with pytest.raises(CircuitError):
        Register("z", 0, 0)


@pytest.mark.parametrize(
    "kind,arity",
    [
        (GateKind.NOT, 1),
        (GateKind.CNOT, 2),
        (GateKind.TOFFOLI, 3),
        (GateKind.SWAP, 2),
        (GateKind.CV, 2),
        (GateKind.CVDAG, 2),
    ],
)
def test_gate_arities(kind, arity):
    assert GATE_ARITY[kind] == arity
    gate = Gate(kind, tuple(range(arity)))
    assert len(gate.operands) == arity


def test_gate_operand_validation():
    with pytest.raises(CircuitError):
        Gate(GateKind.CNOT, (1, 1))  # repeated operand
    with pytest.raises(CircuitError):
        Gate(GateKind.TOFFOLI, (0, 1))  # wrong arity
    with pytest.raises(CircuitError):
        Gate(GateKind.NOT, (-1,))


def test_append_range_check():
    c = Circuit(2)
    with pytest.raises(CircuitError):
        c.cx(0, 5)


def test_gate_inverse_kinds():
    assert Gate(GateKind.CV, (0, 1)).inverse().kind is GateKind.CVDAG
    assert Gate(GateKind.CVDAG, (0, 1)).inverse().kind is GateKind.CV
    for kind in (GateKind.NOT, GateKind.CNOT, GateKind.TOFFOLI, GateKind.SWAP):
        g = Gate(kind, tuple(range(GATE_ARITY[kind])))
        assert g.inverse() == g


def test_census_counts_every_kind():
    c = Circuit(3).x(0).cx(0, 1).cx(1, 2).ccx(0, 1, 2)
    census = c.census()
    assert census[GateKind.NOT] == 1
    assert census[GateKind.CNOT] == 2
    assert census[GateKind.TOFFOLI] == 1
    assert census[GateKind.SWAP] == 0  # zero-count kinds still present
    assert sum(census.values()) == len(c)


def test_json_round_trip_bit_exact():
    c = Circuit(3, [("a", 0, 2), ("b", 2, 1)]).x(0).cx(0, 1).ccx(0, 1, 2)
    text = c.dumps()
    again = Circuit.loads(text)
    assert again == c
    assert again.dumps() == text
    data = json.loads(text)
    assert set(data) == {"width", "registers", "gates"}
    assert data["gates"][0] == {"kind": "NOT", "operands": [0]}


def test_loads_rejects_unknown_kind():
    with pytest.raises(CircuitError):
        Circuit.from_dict(
            {"width": 1, "registers": [], "gates": [{"kind": "HADAMARD", "operands": [0]}]}
        )


# ---------------------------------------------------------------------------
# randomized structural properties


@st.composite
def circuits(draw, max_width=8, max_gates=40):
    width = draw(st.integers(min_value=2, max_value=max_width))
    c = Circuit(width)
    kinds = [k for k in GateKind if GATE_ARITY[k] <= width]
    for _ in range(draw(st.integers(min_value=0, max_value=max_gates))):
        kind = draw(st.sampled_from(kinds))
        arity = GATE_ARITY[kind]
        ops = draw(
            st.lists(
                st.integers(min_value=0, max_value=width - 1),
                min_size=arity,
                max_size=arity,
                unique=True,
            )
        )
        c.append(Gate(kind, tuple(ops)))
    return c


# register names that JSON has to escape
_NAME_CHARS = st.sampled_from(['"', "\\", "/", "\n", "\t", "é", "λ", "☃", "\U0001d11e", "a", "Z", "0", " "])


@st.composite
def named_circuits(draw):
    """``circuits()`` with its wires split into registers with awkward names."""
    c = draw(circuits())
    cuts = sorted(draw(st.sets(st.integers(1, c.width - 1), max_size=3)) | {0, c.width})
    names = draw(
        st.lists(st.text(_NAME_CHARS, min_size=1, max_size=5),
                 min_size=len(cuts) - 1, max_size=len(cuts) - 1, unique=True)
    )
    spans = zip(names, cuts, cuts[1:])
    keep = draw(st.lists(st.booleans(), min_size=len(cuts) - 1, max_size=len(cuts) - 1))
    regs = [(name, lo, hi - lo) for (name, lo, hi), kept in zip(spans, keep) if kept]
    return Circuit.from_arrays(c.width, regs, *c.as_arrays())


@given(named_circuits())
@settings(max_examples=60)
def test_round_trip_any_circuit(c):
    assert Circuit.loads(c.dumps()) == c


@given(circuits())
@settings(max_examples=60)
def test_inverse_is_an_involution(c):
    assert c.inverse().inverse() == c


@given(circuits())
@settings(max_examples=60)
def test_inverse_reverses_and_preserves_counts(c):
    inv = c.inverse()
    assert len(inv) == len(c)
    census, inv_census = c.census(), inv.census()
    # CV and CVDAG trade places, everything else keeps its count
    assert inv_census[GateKind.CV] == census[GateKind.CVDAG]
    assert inv_census[GateKind.CVDAG] == census[GateKind.CV]
    for kind in (GateKind.NOT, GateKind.CNOT, GateKind.TOFFOLI, GateKind.SWAP):
        assert inv_census[kind] == census[kind]
    assert [g.operands for g in inv.gates] == [g.operands for g in reversed(c.gates)]


def _rows_of_columns(c):
    """The gates as ``[kind, a, b, c]`` rows read through ``_columns()``."""
    return [list(row) for row in zip(*c._columns())]


def _rows_of_arrays(c):
    kinds, ops = c.as_arrays()
    return [[k, *row] for k, row in zip(kinds.tolist(), ops.tolist())]


@st.composite
def column_circuits(draw):
    """Circuits built every way a circuit is made: by emitters, by
    ``append_circuit``, by ``inverse()`` and by ``_from_valid``."""
    c = draw(circuits())
    how = draw(st.sampled_from(["emitted", "appended", "inverse", "from_valid", "empty"]))
    if how == "appended":
        return Circuit(c.width).append_circuit(c).append_circuit(draw(circuits(max_width=c.width)))
    if how == "inverse":
        return c.inverse()
    if how == "from_valid":
        return Circuit._from_valid(c.width, c.registers, *c.as_arrays())
    if how == "empty":
        return Circuit(c.width)
    return c


@given(column_circuits())
@settings(max_examples=80)
def test_columns_equal_as_arrays_row_for_row(c):
    columns = c._columns()
    assert all(isinstance(col, memoryview) and col.readonly for col in columns)
    assert [len(col) for col in columns] == [len(c)] * 4
    assert all(type(v) is int for col in columns for v in col)
    assert _rows_of_columns(c) == _rows_of_arrays(c)


def test_columns_block_appends_until_dropped():
    c = Circuit(3).x(0).cx(0, 1)
    kinds, a, b, t = c._columns()
    with pytest.raises(TypeError):
        a[0] = 2
    del kinds, b, t
    with pytest.raises(BufferError):
        c.x(2)
    assert len(c) == 2
    del a
    c.x(2)
    assert _rows_of_columns(c) == [
        [KIND_CODE[GateKind.NOT], 0, -1, -1],
        [KIND_CODE[GateKind.CNOT], 0, 1, -1],
        [KIND_CODE[GateKind.NOT], 2, -1, -1],
    ]


# ---------------------------------------------------------------------------
# reading the dumps layout as arrays

@st.composite
def documents(draw):
    """``dumps()`` of a circuit, or a copy of it changed in one of the ways a
    reader of the exact layout could get wrong."""
    c = draw(named_circuits())
    text = c.dumps()
    gates_at = text.find('"gates": [\n') + len('"gates": [\n')
    operands = [i for i in range(gates_at, len(text) - 1)
                if text[i].isdigit() and text[i - 1] == " "]
    kinds = [i + len('"kind": "') for i in range(len(text)) if text.startswith('"kind": "', i)]
    braces = [i for i in range(gates_at, len(text)) if text[i] == "{"]
    how = draw(st.sampled_from(
        ["same", "zero", "minus", "case", "newline", "compact", "truncate", "byte",
         "brace", "unbrace", "long", "digit", "crlf", "name", "ending"]
    ))
    if how == "zero" and operands:
        i = draw(st.sampled_from(operands))
        return text[:i] + draw(st.sampled_from(["0", "00"])) + text[i:]
    if how == "brace" and gates_at < len(text):
        i = draw(st.integers(gates_at, len(text) - 1))
        return text[:i] + "{" + text[i:]
    if how == "unbrace" and braces:
        i = draw(st.sampled_from(braces))
        return text[:i] + text[i + 1:]
    if how in ("long", "digit") and operands:
        i = draw(st.sampled_from(operands))
        j = i + len(text[i:]) - len(text[i:].lstrip("0123456789"))
        if how == "digit":  # digits that ``\d`` and ``int`` take and JSON does not
            new = text[i:j - 1] + draw(st.sampled_from(["\u0663", "\uff13", "\u0969"]))
        else:  # 10 digits, 11 digits, and past int64
            new = str(draw(st.sampled_from([10**10 - 1, 10**10, 12345678901, 1 << 70])))
        return text[:i] + new + text[j:]
    if how == "ending":  # a byte of the text after the last gate
        i = draw(st.integers(max(gates_at, len(text) - len("\n  ]\n}\n")), len(text) - 1))
        return text[:i] + draw(st.sampled_from(list(" \n]}x"))) + text[i + 1:]
    if how == "crlf":
        return text.replace("\n", "\r\n")
    if how == "name":
        name = draw(st.sampled_from(["{", "a{b", "}{", '"gates": [', '\n  "gates": [\n    {']))
        return Circuit(c.width, [(name, 0, c.width)]).append_circuit(c).dumps()
    if how == "minus" and operands:
        i = draw(st.sampled_from(operands))
        return text[:i] + "-" + text[i:]
    if how == "case" and kinds:
        i = draw(st.sampled_from(kinds))
        j = text.index('"', i)
        name = text[i:j]
        other = draw(st.sampled_from([name.lower(), name.title(), name[:-1] + name[-1].lower()]))
        return text[:i] + other + text[j:]
    if how == "newline":
        return text[:-1]
    if how == "compact":
        return json.dumps(json.loads(c.dumps()))
    if how == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))]
    if how == "byte" and gates_at < len(text):
        i = draw(st.integers(gates_at, len(text) - 1))
        new = draw(st.sampled_from(list('0123456789 \n,{}[]":-+.eEA' + "NOTCSWAPVDGFLI" + "é")))
        return text[:i] + new + text[i + 1:]
    return text


def _outcome(read, text):
    """What ``read(text)`` returns, or the type and message of what it raises."""
    try:
        return read(text)
    except Exception as exc:
        return type(exc), str(exc)


@given(documents(), st.sampled_from([1, 40, 300, circuit._WINDOW]))
@settings(max_examples=400)
def test_loads_agrees_with_from_dict(text, window):
    """Whatever windows the gate block is split in."""
    with mock.patch.object(circuit, "_WINDOW", window):
        assert _outcome(Circuit.loads, text) == _outcome(
            lambda t: Circuit.from_dict(json.loads(t)), text
        )


def test_loads_reads_the_dumps_layout_without_from_dict(monkeypatch):
    """``loads`` of ``dumps`` text never needs the JSON object tree, nor a
    second ``dumps`` to prove the layout."""
    from shorcost.architecture import decompose_toffoli, route_linear
    from shorcost.arithmetic import ModexpSpec, build_modexp

    built = build_modexp(ModexpSpec(n=4, modulus=13, base=2, s=2))
    routed, _ = route_linear(decompose_toffoli(built))
    bare = Circuit(3).x(0).cx(0, 1).ccx(0, 1, 2).swap(2, 0).cv(1, 2).cvdag(2, 1)
    widest = Circuit((1 << 31) - 1, [("top", (1 << 31) - 2, 1)]).cx((1 << 31) - 2, 0)
    braced = Circuit(2, [('{"gates": [', 0, 1), ("}{", 1, 1)]).cx(1, 0)
    texts = [(c, c.dumps()) for c in (built, routed, bare, widest, braced, Circuit(2))]

    def refuse(*args):
        raise AssertionError("from_dict or dumps called")

    monkeypatch.setattr(Circuit, "from_dict", classmethod(refuse))
    monkeypatch.setattr(Circuit, "dumps", refuse)
    for c, text in texts:
        assert Circuit.loads(text) == c


# ---------------------------------------------------------------------------
# validation where data enters


def _doc(gates=(), width=4, registers=()):
    return {"width": width, "registers": list(registers), "gates": list(gates)}


# (document, what the error must say); the ids doc0, doc1, ... follow this order
MALFORMED = [
    (_doc([{"kind": "CNOT", "operands": [0.5, 1]}]), r"gates\[0\]: CNOT operands must be integers"),
    (_doc([{"kind": "CNOT", "operands": [1.0, 2]}]), r"gates\[0\]: CNOT operands must be integers"),
    (_doc([{"kind": "CNOT", "operands": [True, 2]}]), r"gates\[0\]: CNOT operands must be integers"),
    (_doc([{"kind": "NOT", "operands": [False]}]), r"gates\[0\]: NOT operands must be integers"),
    (_doc([{"kind": "NOT", "operands": ["0"]}]), r"gates\[0\]: NOT operands must be integers"),
    (_doc([{"kind": "NOT", "operands": [None]}]), r"gates\[0\]: NOT operands must be integers"),
    (_doc(width=4.0), "width must be an integer"),
    (_doc(width=True), "width must be an integer"),
    (_doc(width="4"), "width must be an integer"),
    (_doc(width=1 << 31), r"width must be in \[1, 2\^31\)"),
    (_doc(registers=[{"name": "a", "offset": 0.0, "length": 1}]), "register a offset and length"),
    (_doc(registers=[{"name": "a", "offset": 0, "length": 2.0}]), "register a offset and length"),
    (_doc(registers=[{"name": "a", "offset": False, "length": 1}]), "register a offset and length"),
    (_doc(registers=[{"name": 7, "offset": 0, "length": 1}]), "register name must be"),
    (_doc([{"kind": "HADAMARD", "operands": [0]}]), r"gates\[0\]: unknown gate kind 'HADAMARD'"),
    (_doc([{"kind": "CNOT", "operands": [0, 1, 2]}]), r"gates\[0\]: CNOT takes 2 operands, got 3"),
    (_doc([{"kind": "TOFFOLI", "operands": [0, 1]}]), r"gates\[0\]: TOFFOLI takes 3 operands"),
    (_doc([{"kind": "NOT", "operands": []}]), r"gates\[0\]: NOT takes 1 operands, got 0"),
    (_doc([{"kind": "NOT", "operands": 0}]), r"gates\[0\]\.operands must be a list, got a number"),
    (_doc([{"kind": "CNOT", "operands": [2, 2]}]), r"gates\[0\]: CNOT operands must be distinct"),
    (_doc([{"kind": "TOFFOLI", "operands": [0, 1, 0]}]), r"gates\[0\]: TOFFOLI operands must be"),
    (_doc([{"kind": "NOT", "operands": [-1]}]), r"gates\[0\]: negative qubit index"),
    (_doc([{"kind": "CNOT", "operands": [0, 4]}]), r"gates\[0\]: gate CNOT\(0, 4\) out of range"),
    (_doc([{"kind": "NOT", "operands": [1 << 40]}]), r"gates\[0\]: gate NOT\(\d+,\) out of range"),
    (_doc([{"kind": "NOT", "operands": [1 << 70]}]), r"gates\[0\]: gate NOT\(\d+,\) out of range"),
    (_doc([{"kind": "NOT", "operands": [0]}, {"kind": "NOT"}]), "missing field 'operands'"),
    ({"width": 4, "registers": [], "gates": {"kind": "NOT"}}, "gates must be a list, got an object"),
    ([], "a circuit document must be an object, got a list"),
    (_doc([{"kind": ["CNOT"], "operands": [0, 1]}]), r"gates\[0\]\.kind must be a string, got a list"),
    (_doc([{"kind": "NOT", "operands": 5}]), r"gates\[0\]\.operands must be a list, got a number"),
    (_doc([{"kind": "NOT", "operands": "0"}]), r"gates\[0\]\.operands must be a list, got a string"),
    ({"width": 4, "registers": None, "gates": []}, "registers must be a list, got null"),
    (_doc(registers=[None]), r"registers\[0\] must be an object, got null"),
    (_doc([{"kind": "NOT", "operands": [0]}, None]), r"gates\[1\] must be an object, got null"),
    ({"width": 4, "registers": [], "gates": None}, "gates must be a list, got null"),
    ("{}", "a circuit document must be an object, got a string"),
    (_doc([{"kind": 5, "operands": [0]}]), r"gates\[0\]\.kind must be a string, got a number"),
    (_doc([{"kind": "NOT", "operands": {"0": 1}}]), r"gates\[0\]\.operands must be a list"),
    # the first bad gate in document order is named, whatever its fault
    (
        _doc([{"kind": "CNOT", "operands": [0, 9]}, {"kind": "HADAMARD", "operands": [0]}]),
        r"gates\[0\]: gate CNOT\(0, 9\) out of range",
    ),
]


@pytest.mark.parametrize(
    "doc, match", MALFORMED, ids=[f"doc{i}" for i in range(len(MALFORMED))]
)
def test_loads_rejects_malformed_documents(doc, match):
    with pytest.raises(CircuitError, match=match):
        Circuit.from_dict(doc)
    # compact, and laid out as ``dumps`` writes, which ``loads`` reads as arrays
    for text in (json.dumps(doc), json.dumps(doc, indent=2) + "\n"):
        with pytest.raises(CircuitError, match=match):
            Circuit.loads(text)


def test_loads_names_the_offending_gate():
    doc = _doc([{"kind": "NOT", "operands": [0]}, {"kind": "CNOT", "operands": [0, 0.5]}])
    with pytest.raises(CircuitError, match=r"gates\[1\]: CNOT operands must be integers"):
        Circuit.from_dict(doc)


def test_loads_refuses_a_document_nested_too_deeply():
    """Nesting past the JSON reader's recursion limit is a ``CircuitError``,
    at the top level and inside the header of the ``dumps`` layout."""
    nested = "[" * 200_000 + "]" * 200_000
    in_header = Circuit(2, [("a", 0, 1)]).cx(0, 1).dumps().replace(
        '"registers": [', '"registers": [' + nested + ",", 1
    )
    for text in (nested, in_header):
        with pytest.raises(CircuitError, match="nests too deeply"):
            Circuit.loads(text)


def test_loads_lets_memory_errors_through(monkeypatch):
    """Only the errors of a text that is not in the ``dumps`` layout send
    ``loads`` to ``from_dict``; running out of memory is not one of them."""

    def exhausted(piece):
        raise MemoryError

    def refuse(cls, data):
        raise AssertionError("from_dict called")

    monkeypatch.setattr(circuit, "_parse_piece", exhausted)
    monkeypatch.setattr(Circuit, "from_dict", classmethod(refuse))
    with pytest.raises(MemoryError):
        Circuit.loads(Circuit(2).cx(0, 1).dumps())


def test_loads_rejects_non_finite_json_numbers():
    text = '{"width": 2, "registers": [], "gates": [{"kind": "NOT", "operands": [NaN]}]}'
    with pytest.raises(CircuitError):
        Circuit.loads(text)


def test_emitters_reject_non_integer_operands_and_stay_unchanged():
    c = Circuit(3).x(0)
    for emit in (lambda: c.cx(0.5, 1), lambda: c.ccx(0, 1.0, 2), lambda: c.x(2.5),
                 lambda: c.cx("a", 1), lambda: c.ccx(0, 1, None), lambda: c.x(None),
                 lambda: c.swap(0, "a")):
        with pytest.raises(CircuitError, match="operands must be integers"):
            emit()
    assert c == Circuit(3).x(0)
    with pytest.raises(CircuitError):
        Gate(GateKind.CNOT, (0.5, 1))
    with pytest.raises(CircuitError):
        Gate(GateKind.NOT, (True,))


def test_gates_is_a_read_only_snapshot():
    c = Circuit(3).x(0).cx(0, 1)
    snapshot = c.gates
    assert isinstance(snapshot, tuple)
    assert snapshot == (Gate(GateKind.NOT, (0,)), Gate(GateKind.CNOT, (0, 1)))
    with pytest.raises(AttributeError):
        c.gates = []
    c.ccx(0, 1, 2)
    assert len(snapshot) == 2 and len(c.gates) == 3


def test_table_views_are_read_only_and_must_be_dropped_before_growing():
    c = Circuit(3).x(0).cx(0, 1)
    kinds, ops = c._table()
    assert kinds.tolist() == [KIND_CODE[GateKind.NOT], KIND_CODE[GateKind.CNOT]]
    assert ops.tolist() == [[0, -1, -1], [0, 1, -1]]
    with pytest.raises(ValueError, match="read-only"):
        kinds[0] = KIND_CODE[GateKind.SWAP]
    with pytest.raises(ValueError, match="read-only"):
        ops[1, 1] = 2
    with pytest.raises(BufferError):
        c.x(2)
    del kinds, ops
    c.x(2)
    assert c.gates == (
        Gate(GateKind.NOT, (0,)), Gate(GateKind.CNOT, (0, 1)), Gate(GateKind.NOT, (2,)),
    )


@pytest.mark.parametrize("column", range(4), ids=["kinds", "a", "b", "c"])
def test_an_emitter_refused_by_a_live_column_keeps_the_arrays_in_step(column):
    c = Circuit(3).x(0)
    view = c._columns()[column]
    with pytest.raises(BufferError):
        c.x(1)
    del view
    assert len(c._ops) == 3 * len(c) == 3
    c.x(2)
    assert c.gates == (Gate(GateKind.NOT, (0,)), Gate(GateKind.NOT, (2,)))


@pytest.mark.parametrize("column", range(4), ids=["kinds", "a", "b", "c"])
def test_append_circuit_refused_by_a_live_column_keeps_the_arrays_in_step(column):
    c = Circuit(3).x(0)
    view = c._columns()[column]
    with pytest.raises(BufferError):
        c.append_circuit(Circuit(3).cx(1, 2).ccx(0, 1, 2))
    del view
    assert len(c._ops) == 3 * len(c) == 3
    c.append_circuit(Circuit(2).swap(0, 1))
    assert c.gates == (Gate(GateKind.NOT, (0,)), Gate(GateKind.SWAP, (0, 1)))


def test_extend():
    c = Circuit(3).extend([Gate(GateKind.NOT, (0,)), Gate(GateKind.CV, (0, 1))])
    assert [(g.kind, g.operands) for g in c.gates] == [
        (GateKind.NOT, (0,)), (GateKind.CV, (0, 1)),
    ]


def test_append_circuit_copies_gates_and_checks_width():
    block = Circuit(3).x(0).ccx(0, 1, 2).cv(2, 1)
    c = Circuit(4, [("r", 0, 4)]).swap(3, 0)
    c.append_circuit(block).append_circuit(block.inverse())
    assert c.gates == (Gate(GateKind.SWAP, (3, 0)),) + block.gates + block.inverse().gates
    assert c.registers == (Register("r", 0, 4),)
    c.append_circuit(c)
    assert len(c) == 14 and c.gates[7:] == c.gates[:7]
    with pytest.raises(CircuitError, match="width 4 does not fit in width 3"):
        block.append_circuit(c)
    assert len(block) == 3


def test_from_arrays_checks_the_batch():
    import numpy as np

    c = Circuit(3, [("a", 0, 3)]).x(0).ccx(0, 1, 2).cv(2, 1)
    kinds, ops = c.as_arrays()
    assert Circuit.from_arrays(3, c.registers, kinds, ops) == c
    bad_kind = kinds.copy()
    bad_kind[1] = 6
    bad_slot = ops.copy()
    bad_slot[0, 1] = 2  # a NOT with a second operand
    bad_range = ops.copy()
    bad_range[2, 0] = 3
    for k, o in [(bad_kind, ops), (kinds, bad_slot), (kinds, bad_range),
                 (kinds, ops[:2]), (kinds, ops.astype(float))]:
        with pytest.raises(CircuitError):
            Circuit.from_arrays(3, (), k, o)
    # the arrays handed out are copies
    ops[:] = 0
    assert c.gates[1].operands == (0, 1, 2)


# ---------------------------------------------------------------------------
# dumps and gates against the gate arrays

_NAME_OF_CODE = {code: kind.value for kind, code in KIND_CODE.items()}
_KIND_OF_CODE = {code: kind for kind, code in KIND_CODE.items()}


def dumps_from_arrays(c):
    """``dumps()`` as ``json.dumps`` writes the document built from
    ``as_arrays()``, without ``gates`` or ``to_dict``."""
    kinds, ops = c.as_arrays()
    doc = {
        "width": c.width,
        "registers": [{"name": r.name, "offset": r.offset, "length": r.length}
                      for r in c.registers],
        "gates": [{"kind": _NAME_OF_CODE[k], "operands": [q for q in row if q >= 0]}
                  for k, row in zip(kinds.tolist(), ops.tolist())],
    }
    return json.dumps(doc, indent=2) + "\n"


def gates_from_arrays(c):
    kinds, ops = c.as_arrays()
    return tuple(Gate(_KIND_OF_CODE[k], tuple(q for q in row if q >= 0))
                 for k, row in zip(kinds.tolist(), ops.tolist()))


def assert_serialized_from_arrays(c):
    assert c.dumps() == dumps_from_arrays(c)
    assert c.gates == gates_from_arrays(c)


@given(named_circuits())
@settings(max_examples=100)
def test_dumps_and_gates_match_the_arrays(c):
    assert_serialized_from_arrays(c)


# the largest operand whose gate keys still fit in int64: with R = operand + 2,
# 6 * R**3 < 2**63 (see ``Circuit._each_distinct``)
_LAST_INT64_OPERAND = max(r for r in range(1_150_000, 1_170_000) if 6 * r**3 < 1 << 63) - 2
_TOP = (1 << 31) - 2  # the last wire of the widest circuit


@st.composite
def wide_circuits(draw):
    """Circuits whose largest operand sits just inside or just past the
    int64 edge of the gate keys, at 2^20, or on the top wire of the widest
    circuit, next to gates on the low wires."""
    top = draw(st.sampled_from([_LAST_INT64_OPERAND, _LAST_INT64_OPERAND + 1, 1 << 20, _TOP]))
    wires = st.sampled_from([0, 1, 2, top - 2, top - 1, top])
    c = Circuit(top + 1, [("top", top - 2, 3)])
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(list(GateKind)))
        ops = draw(st.lists(wires, min_size=GATE_ARITY[kind], max_size=GATE_ARITY[kind],
                            unique=True))
        c.append(Gate(kind, tuple(ops)))
    return c


@given(wide_circuits())
@settings(max_examples=60)
def test_dumps_and_gates_match_the_arrays_past_int64_keys(c):
    assert_serialized_from_arrays(c)


def _every_kind_on_the_top_wires():
    c = Circuit(_TOP + 1, [("a", 0, 2), ("top", _TOP - 2, 3)])
    c.x(_TOP).cx(0, _TOP).ccx(_TOP - 2, _TOP - 1, _TOP).swap(_TOP, 1)
    return c.cv(_TOP - 1, _TOP).cvdag(_TOP, _TOP - 2).x(0).cx(_TOP, 0)


@pytest.mark.parametrize("c", [
    Circuit(1),
    Circuit(3, [("r", 2, 1)]),
    Circuit(_TOP + 1, [("r", _TOP, 1)]),
    _every_kind_on_the_top_wires(),
], ids=["empty", "empty-with-register", "empty-widest", "every-kind-widest"])
def test_dumps_and_gates_of_fixed_circuits(c):
    assert_serialized_from_arrays(c)
    assert Circuit.loads(c.dumps()) == c


def test_serializing_leaves_the_circuit_growable():
    """No view of the gate arrays outlives ``dumps``, ``gates`` or the
    conformance check: an ``array`` with a live view refuses to grow."""
    from shorcost.architecture import NTC, check_conformance

    c = Circuit(4).ccx(0, 1, 2).cx(2, 3)
    for read in (Circuit.dumps, lambda c: c.gates, lambda c: check_conformance(c, NTC)):
        read(c)
        c.x(3)
        c.append_circuit(Circuit(4).swap(0, 1))
    assert len(c) == 8
