"""Reversible-circuit intermediate representation.

A circuit is a flat, ordered gate sequence over ``width`` qubit wires,
annotated with named registers (contiguous wire spans).  The gate set is
the classical reversible trio NOT / CNOT / TOFFOLI plus SWAP, and the two
non-classical helpers CV / CVDAG (controlled square root of NOT and its
adjoint) that appear only after Toffoli decomposition.

Gates are stored as two flat arrays: one ``uint8`` kind code per gate
(``KIND_CODE``) and an ``int32`` operand table with three slots per gate,
-1 marking an unused slot.  Only this module touches them: a pass reads
``_table()``, or ``_columns()`` where it walks gate by gate, and builds
through ``_from_valid``.  Every gate is validated once, where it enters:
the emitters (``append``, ``x``, ``cx``, ...) check each gate with plain
int comparisons, ``from_dict`` hands each gate of a document, in order, to
``Gate`` and ``append``, and only ``from_arrays`` checks a whole array at
a time (``loads`` hands it one row per distinct gate).  ``append_circuit`` and
``_from_valid`` take gates computed from circuits that were checked, so
neither checks anything again.  A block that a builder repeats is
recorded once, in a circuit of its own, and every repeat, its uncompute
included, enters through ``append_circuit``.

Gate order is execution order.  There is no DAG here; data dependencies
are recovered by ``metrics`` (see ``architecture``) from operand overlap.

``dumps`` writes the circuit's document as JSON indented by 2.  It and
``gates`` know each gate by one integer key, ``((kind*R + a+1)*R +
b+1)*R + c+1`` with R the largest operand plus 2 (-1 becomes 0): an
``int64`` while ``len(_KINDS) * R**3 < 2**63``, a Python int past that.
``np.unique`` maps each slice of keys to the distinct ones, whose text or
``Gate`` is made once and shared.  ``loads`` reads text in exactly that
layout by the same vocabulary: it parses each distinct gate text once and
proves it is what ``dumps`` writes for that gate, so nothing is dumped
again; other text, and any invalid circuit, goes through ``from_dict``.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import Callable, Iterable, Iterator, TypeVar

import numpy as np

__all__ = [
    "GateKind",
    "GATE_ARITY",
    "KIND_CODE",
    "Gate",
    "Register",
    "Circuit",
    "CircuitError",
]


class CircuitError(ValueError):
    """Raised when a structural invariant of the IR is violated."""


class GateKind(Enum):
    NOT = "NOT"
    CNOT = "CNOT"
    TOFFOLI = "TOFFOLI"
    SWAP = "SWAP"
    CV = "CV"
    CVDAG = "CVDAG"


GATE_ARITY: dict[GateKind, int] = {
    GateKind.NOT: 1,
    GateKind.CNOT: 2,
    GateKind.TOFFOLI: 3,
    GateKind.SWAP: 2,
    GateKind.CV: 2,
    GateKind.CVDAG: 2,
}

# Every kind is its own inverse except the CV pair, which swap roles.
_INVERSE_KIND: dict[GateKind, GateKind] = {
    GateKind.NOT: GateKind.NOT,
    GateKind.CNOT: GateKind.CNOT,
    GateKind.TOFFOLI: GateKind.TOFFOLI,
    GateKind.SWAP: GateKind.SWAP,
    GateKind.CV: GateKind.CVDAG,
    GateKind.CVDAG: GateKind.CV,
}

_KINDS: tuple[GateKind, ...] = tuple(GateKind)
KIND_CODE: dict[GateKind, int] = {kind: code for code, kind in enumerate(_KINDS)}
"""Array code of each gate kind; ``Circuit.as_arrays`` holds these."""

_NOT, _CNOT, _TOFFOLI, _SWAP, _CV, _CVDAG = range(len(_KINDS))
_CODE_BY_NAME = {kind.value: code for code, kind in enumerate(_KINDS)}
_ARITIES = tuple(GATE_ARITY[kind] for kind in _KINDS)
_ARITY = np.array(_ARITIES, dtype=np.int8)
_INVERSE_CODE = np.array([KIND_CODE[_INVERSE_KIND[kind]] for kind in _KINDS], np.uint8)

_MAX_WIDTH = 1 << 31  # int32 operands index at most 2^31 wires
_SLICE = 4096  # gates whose keys ``_each_distinct`` works out at a time

_T = TypeVar("_T")


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True, slots=True)
class Gate:
    """One gate application.

    Controls come before the target in ``operands``; SWAP is symmetric so
    its operand order carries no meaning.
    """

    kind: GateKind
    operands: tuple[int, ...]

    def __post_init__(self) -> None:
        ops = tuple(self.operands)
        object.__setattr__(self, "operands", ops)
        if not isinstance(self.kind, GateKind):
            raise CircuitError(f"unknown gate kind {self.kind!r}")
        want = GATE_ARITY[self.kind]
        if len(ops) != want:
            raise CircuitError(
                f"{self.kind.value} takes {want} operands, got {len(ops)}"
            )
        if not all(map(_is_int, ops)):
            raise CircuitError(f"{self.kind.value} operands must be integers: {ops}")
        if len(set(ops)) != len(ops):
            raise CircuitError(f"{self.kind.value} operands must be distinct: {ops}")
        if any(q < 0 for q in ops):
            raise CircuitError(f"negative qubit index in {ops}")

    def inverse(self) -> "Gate":
        return Gate(_INVERSE_KIND[self.kind], self.operands)


def _trusted_gate(kind: GateKind, ops: tuple[int, ...]) -> Gate:
    """A ``Gate`` from operands already validated inside a circuit."""
    gate = object.__new__(Gate)
    object.__setattr__(gate, "kind", kind)
    object.__setattr__(gate, "operands", ops)
    return gate


def _gate_error(code: int, ops: tuple, width: int) -> CircuitError:
    """The error for one rejected gate: ``Gate``'s own check, then range."""
    try:
        gate = Gate(_KINDS[code], ops)
    except CircuitError as exc:
        return exc
    return CircuitError(
        f"gate {gate.kind.value}{gate.operands} out of range for width {width}"
    )


def _first_invalid(kinds: np.ndarray, ops: np.ndarray, width: int) -> int | None:
    """Index of the first gate whose used slots are not distinct wires in
    ``[0, width)`` or whose unused slots are not -1; None if all are valid.
    ``kinds`` must hold known codes."""
    arity = _ARITY[kinds]
    used = np.arange(3) < arity[:, None]
    bad = np.where(used, (ops < 0) | (ops >= width), ops != -1).any(axis=1)
    a, b, c = ops.T
    bad |= (a == b) & (arity >= 2)
    bad |= ((a == c) | (b == c)) & (arity == 3)
    return int(bad.argmax()) if bad.any() else None


@dataclass(frozen=True, slots=True)
class Register:
    """A named contiguous span of qubit wires."""

    name: str
    offset: int
    length: int

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise CircuitError(f"register name must be a non-empty string, got {self.name!r}")
        if not (_is_int(self.offset) and _is_int(self.length)):
            raise CircuitError(
                f"register {self.name} offset and length must be integers: "
                f"offset={self.offset!r} length={self.length!r}"
            )
        if self.offset < 0 or self.length < 1:
            raise CircuitError(
                f"bad register geometry {self.name}: offset={self.offset} length={self.length}"
            )

    @property
    def qubits(self) -> range:
        return range(self.offset, self.offset + self.length)


class Circuit:
    """Ordered gates over ``width`` wires with named registers.

    Builders mutate a circuit only through ``append``, ``extend``, the
    single-gate emitters and ``append_circuit``, each of which appends;
    consumers treat instances as immutable once handed over.
    """

    def __init__(
        self,
        width: int,
        registers: Iterable[Register | tuple[str, int, int]] = (),
    ) -> None:
        if not _is_int(width):
            raise CircuitError(f"width must be an integer, got {width!r}")
        if not 1 <= width < _MAX_WIDTH:
            raise CircuitError(f"width must be in [1, 2^31), got {width}")
        self.width = width
        regs: list[Register] = []
        for r in registers:
            if not isinstance(r, Register):
                r = Register(*r)
            regs.append(r)
        self.registers: tuple[Register, ...] = tuple(regs)
        self._check_registers()
        self._kinds = array("B")
        self._ops = array("i")
        self._view: tuple[Gate, ...] = ()  # stale once shorter than the circuit
        self._steps = array("i")  # ASAP steps kept by the router (see ``architecture``)

    def _check_registers(self) -> None:
        seen: set[str] = set()
        for r in self.registers:
            if r.name in seen:
                raise CircuitError(f"duplicate register name {r.name!r}")
            seen.add(r.name)
            if r.offset + r.length > self.width:
                raise CircuitError(f"register {r.name!r} exceeds width {self.width}")
        spans = sorted((r.offset, r.offset + r.length, r.name) for r in self.registers)
        for (_, end, _), (start, _, name) in zip(spans, spans[1:]):
            if start < end:
                raise CircuitError(f"register {name!r} overlaps another register")

    @classmethod
    def from_arrays(
        cls,
        width: int,
        registers: Iterable[Register | tuple[str, int, int]],
        kinds: np.ndarray,
        operands: np.ndarray,
    ) -> "Circuit":
        """A circuit holding gates given as arrays, in the layout
        ``as_arrays`` returns: kind codes of shape (n,) and integer operands
        of shape (n, 3).  Every gate is checked, as one batch, before the
        operands are narrowed to int32."""
        c = cls(width, registers)
        kinds, ops = np.asarray(kinds), np.asarray(operands)
        if not (
            kinds.ndim == 1
            and ops.shape == (len(kinds), 3)
            and np.issubdtype(kinds.dtype, np.integer)
            and np.issubdtype(ops.dtype, np.integer)
        ):
            raise CircuitError(
                f"gate arrays must be integer, of shapes (n,) and (n, 3); got "
                f"{kinds.dtype}{kinds.shape} and {ops.dtype}{ops.shape}"
            )
        unknown = np.flatnonzero((kinds < 0) | (kinds >= len(_KINDS)))
        if unknown.size:
            i = int(unknown[0])
            raise CircuitError(f"gates[{i}]: unknown gate kind code {int(kinds[i])}")
        bad = _first_invalid(kinds, ops, width)
        if bad is not None:
            code = int(kinds[bad])
            used = tuple(int(q) for q in ops[bad, : _ARITIES[code]])
            raise CircuitError(f"gates[{bad}]: {_gate_error(code, used, width)}")
        return cls._from_valid(c.width, c.registers, kinds, ops)

    @classmethod
    def _from_valid(cls, width: int, registers: Iterable[Register], kinds, ops) -> "Circuit":
        """A circuit holding gates known to be valid on ``width`` wires.  An
        ``array("B")`` of kind codes and an ``array("i")`` of operands, three
        slots per gate, become the circuit's own buffers, so a pass that fills
        them writes each gate once; integer arrays in the ``as_arrays`` layout
        are copied once, and narrowing them cannot wrap."""
        c = cls(width, registers)
        if isinstance(kinds, array):
            c._kinds, c._ops = kinds, ops
            return c
        c._kinds.frombytes(np.ascontiguousarray(kinds, np.uint8))
        c._ops.frombytes(np.ascontiguousarray(ops, np.int32).reshape(-1).view(np.uint8))
        return c

    # -- construction ------------------------------------------------

    def _put(self, code: int, slots: list) -> None:
        try:
            self._ops.fromlist(slots)  # all three slots or none
        except TypeError:  # not an integer; the range check passed
            raise _gate_error(code, tuple(slots[: _ARITIES[code]]), self.width) from None
        try:
            self._kinds.append(code)
        except BufferError:  # a view of the kinds lives: take the slots back
            del self._ops[-3:]
            raise

    def _one(self, code: int, a: int) -> "Circuit":
        try:
            if 0 <= a < self.width:
                self._put(code, [a, -1, -1])
                return self
        except TypeError:  # an operand such as a str or None
            pass
        raise _gate_error(code, (a,), self.width)

    def _two(self, code: int, a: int, b: int) -> "Circuit":
        w = self.width
        try:
            if 0 <= a < w and 0 <= b < w and a != b:
                self._put(code, [a, b, -1])
                return self
        except TypeError:  # an operand such as a str or None
            pass
        raise _gate_error(code, (a, b), w)

    def _three(self, code: int, a: int, b: int, c: int) -> "Circuit":
        w = self.width
        try:
            if 0 <= a < w and 0 <= b < w and 0 <= c < w and a != b and a != c and b != c:
                self._put(code, [a, b, c])
                return self
        except TypeError:  # an operand such as a str or None
            pass
        raise _gate_error(code, (a, b, c), w)

    def append(self, gate: Gate) -> "Circuit":
        emit = (self._one, self._two, self._three)[len(gate.operands) - 1]
        return emit(KIND_CODE[gate.kind], *gate.operands)

    def extend(self, gates: Iterable[Gate]) -> "Circuit":
        for gate in gates:
            self.append(gate)
        return self

    def x(self, t: int) -> "Circuit":
        return self._one(_NOT, t)

    def cx(self, c: int, t: int) -> "Circuit":
        return self._two(_CNOT, c, t)

    def ccx(self, c1: int, c2: int, t: int) -> "Circuit":
        return self._three(_TOFFOLI, c1, c2, t)

    def swap(self, a: int, b: int) -> "Circuit":
        return self._two(_SWAP, a, b)

    def cv(self, c: int, t: int) -> "Circuit":
        return self._two(_CV, c, t)

    def cvdag(self, c: int, t: int) -> "Circuit":
        return self._two(_CVDAG, c, t)

    def append_circuit(self, other: "Circuit") -> "Circuit":
        """Append the gates of ``other``, on the same wires.

        Each of them was checked against ``other.width`` when it entered
        ``other``, so only the widths are compared.  Builders record a
        block they repeat once, in a circuit of their own, and replay it
        this way.
        """
        if other.width > self.width:
            raise CircuitError(
                f"a circuit of width {other.width} does not fit in width {self.width}"
            )
        n = len(self._ops)
        self._ops.extend(other._ops)
        try:
            self._kinds.extend(other._kinds)
        except BufferError:  # a view of the kinds lives: take the operands back
            del self._ops[n:]
            raise
        return self

    # -- queries -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._kinds)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        return (
            self.width == other.width
            and self.registers == other.registers
            and self._kinds == other._kinds
            and self._ops == other._ops
        )

    def __repr__(self) -> str:
        return f"Circuit(width={self.width}, gates={len(self)})"

    @property
    def gates(self) -> tuple[Gate, ...]:
        """The gates in execution order, as a read-only snapshot."""
        if len(self._view) != len(self):
            # Gates are values, so equal gates share one object.
            self._view = tuple(self._each_distinct(_make_gate))
        return self._view

    def _each_distinct(self, make: Callable[[tuple[int, int, int, int]], _T]) -> Iterator[_T]:
        """``make((kind, a, b, c))`` of each gate, in order, run once per
        distinct gate and shared.  Each gate is known by one integer,
        ``((kind*R + a+1)*R + b+1)*R + c+1`` with R the largest operand plus 2:
        an ``int64`` while ``len(_KINDS) * R**3 < 2**63`` (operands below about
        2^20), a Python int in an ``object`` array past that.  Keys are worked
        out a slice of ``_SLICE`` gates at a time as the iterator reaches it,
        and it yields the gates there were when it was made."""
        n = len(self)
        radix = int(self._table()[1].max(initial=-1)) + 2
        dtype = np.int64 if len(_KINDS) * radix**3 < 1 << 63 else object
        look_up = _Made(make, radix).__getitem__
        return chain.from_iterable(
            self._made(lo, min(n, lo + _SLICE), radix, dtype, look_up)
            for lo in range(0, n, _SLICE)
        )

    def _made(self, lo: int, hi: int, radix: int, dtype: type, look_up: Callable) -> np.ndarray:
        """``look_up`` of the key of each of gates ``lo:hi``, called once per
        distinct key and gathered by ``np.unique``'s inverse."""
        kinds, ops = self._table()
        key = kinds[lo:hi].astype(dtype)
        for slot in ops[lo:hi].T:
            key = key * radix + (slot + 1)
        keys, inverse = np.unique(key, return_inverse=True)
        return np.fromiter(map(look_up, keys.tolist()), object, len(keys))[inverse]

    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only views of the gates in the ``as_arrays`` layout.  Drop them
        before the circuit grows: appending raises ``BufferError`` while one lives."""
        kinds = np.frombuffer(self._kinds, dtype=np.uint8)
        ops = np.frombuffer(self._ops, dtype=np.int32).reshape(-1, 3)
        kinds.flags.writeable = ops.flags.writeable = False
        return kinds, ops

    def _columns(self) -> tuple[memoryview, memoryview, memoryview, memoryview]:
        """Read-only 1-D views of the kind codes and of each operand slot,
        for a loop over the gates: iterating one yields plain ints and copies
        nothing.  Like ``_table()``'s views, they block appends until dropped."""
        kinds, ops = self._table()
        flat = memoryview(ops.reshape(-1))
        return memoryview(kinds), flat[0::3], flat[1::3], flat[2::3]

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the gate arrays: ``uint8`` kind codes (see ``KIND_CODE``)
        of shape (n,), and ``int32`` operands of shape (n, 3), with -1 in
        the slots past each gate's arity."""
        kinds, ops = self._table()
        return kinds.copy(), ops.copy()

    def register(self, name: str) -> Register:
        for r in self.registers:
            if r.name == name:
                return r
        raise KeyError(name)

    def census(self) -> dict[GateKind, int]:
        """Gate counts by kind; every kind is present, zero included."""
        counts = np.bincount(self._table()[0], minlength=len(_KINDS))
        return {kind: int(n) for kind, n in zip(_KINDS, counts)}

    def inverse(self) -> "Circuit":
        """Reversed gate order with each gate replaced by its inverse."""
        kinds, ops = self._table()
        # CV and CVDAG trade places; the inverse of a valid gate acts on the same wires
        return self._from_valid(self.width, self.registers, _INVERSE_CODE[kinds[::-1]], ops[::-1])

    # -- serialization -----------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "Circuit":
        """Rebuild a circuit from its document as ``json.loads`` gives it:
        what ``dumps`` writes, in that layout or any other, such as compact
        JSON.  Every field is checked:
        JSON types (objects, lists, strings), integer width and register
        geometry, then each gate in document order: its kind is known, and
        ``Gate`` and ``append`` check its operands (integers, with booleans
        and floats rejected; arity; distinct; range) as they check any gate
        an emitter is given.  The first failure raises ``CircuitError``
        naming the field."""
        _expect([data], dict, "a circuit document")
        try:
            registers = _expect([data["registers"]], list, "registers")[0]
            regs = [
                Register(r["name"], r["offset"], r["length"])
                for r in _expect(registers, dict, "registers[{}]")
            ]
            c = cls(data["width"], regs)
            for i, g in enumerate(_expect([data["gates"]], list, "gates")[0]):
                where = f"gates[{i}]"
                _expect([g], dict, where)
                name, ops = g["kind"], g["operands"]
                _expect([name], str, f"{where}.kind")
                _expect([ops], list, f"{where}.operands")
                if name not in _CODE_BY_NAME:
                    raise CircuitError(f"{where}: unknown gate kind {name!r}")
                try:
                    c.append(Gate(_KINDS[_CODE_BY_NAME[name]], ops))
                except CircuitError as exc:
                    raise CircuitError(f"{where}: {exc}") from None
        except KeyError as exc:
            raise CircuitError(f"malformed circuit document: missing field {exc}") from None
        return c

    def _head(self) -> str:
        """``dumps`` of the circuit with its gates left out."""
        registers = [
            {"name": r.name, "offset": r.offset, "length": r.length} for r in self.registers
        ]
        return json.dumps({"width": self.width, "registers": registers, "gates": []}, indent=2)

    def dumps(self) -> str:
        """JSON text indented by 2 and newline-ended: the width, each
        register's name, offset and length, then each gate's kind name and
        operands."""
        head = self._head()
        if not len(self):
            return head + "\n"
        # one join writes the whole text: each concatenation after it
        # would copy every byte again
        parts = list(self._each_distinct(_gate_json))
        parts[0] = head[: -len("]\n}")] + "\n" + parts[0]
        parts[-1] += _END
        return ",\n".join(parts)

    @classmethod
    def loads(cls, text: str) -> "Circuit":
        """The circuit a JSON document describes.  Text in the exact layout
        ``dumps`` writes is read by its gate vocabulary (see
        ``_from_dumps_text``); any other text goes through ``from_dict``,
        which also words every error.  Text nested too deeply to parse
        raises ``CircuitError`` too."""
        try:
            return cls._from_dumps_text(text)
        except (ValueError, LookupError, TypeError, RecursionError):  # not a valid dumps layout
            pass
        try:
            data = json.loads(text)
        except RecursionError:
            raise CircuitError("circuit document nests too deeply to read") from None
        return cls.from_dict(data)

    @classmethod
    def _from_dumps_text(cls, text: str) -> "Circuit":
        """The circuit whose ``dumps()`` is ``text``; ``ValueError``,
        ``LookupError`` or ``TypeError`` for any other text.  The header must
        be what ``dumps`` writes for it.  The gate block is split on ``{``
        about ``_WINDOW`` characters at a time, and ``_parse_piece`` proves
        each distinct piece, once, to be its gate's text.  ``from_arrays``
        checks one row per distinct gate; each gate's row is gathered by id."""
        header = json.loads(text[: text.index('"gates": [')] + '"gates": []}')
        regs = [(r["name"], r["offset"], r["length"]) for r in header["registers"]]
        c = cls(header["width"], regs)
        head = c._head()
        if text == head + "\n":
            return c
        if not (text.startswith(head[: -len("]\n}")] + "\n    {") and text.endswith(_END)):
            raise ValueError("not the dumps layout")
        ids, vocabulary, rows = [], {}, []
        lo = len(head) - len("]\n}") + len("\n    {")
        while lo:  # the last window ends the document, and sets lo to 0
            hi = text.find("{", lo + _WINDOW)
            pieces = (text[lo:hi] if hi >= 0 else text[lo : -len(_END)] + ",\n    ").split("{")
            for piece in dict.fromkeys(pieces).keys() - vocabulary.keys():
                vocabulary[piece] = len(rows)
                rows.append(_parse_piece(piece))
            ids.append(np.fromiter(map(vocabulary.__getitem__, pieces), np.int32, len(pieces)))
            lo = hi + 1
        table = np.array(rows, dtype=np.int64)
        kinds, ops = cls.from_arrays(c.width, (), table[:, 0], table[:, 1:])._table()
        gather = np.concatenate(ids)
        c._kinds, c._ops = array("B", [0]) * len(gather), array("i", [0]) * (3 * len(gather))
        np.take(kinds, gather, 0, np.frombuffer(c._kinds, np.uint8), "clip")
        np.take(ops, gather, 0, np.frombuffer(c._ops, np.int32).reshape(-1, 3), "clip")
        return c


_JSON_TYPE = {
    dict: "an object",
    list: "a list",
    str: "a string",
    int: "a number",
    float: "a number",
    bool: "a boolean",
    type(None): "null",
}


def _expect(values: list, kind: type, where: str) -> list:
    """``values``, once each is checked to be a ``kind``; ``where.format(i)``
    names the value at index i in the error."""
    for i, value in enumerate(values):
        if not isinstance(value, kind):
            got = _JSON_TYPE.get(type(value), type(value).__name__)
            raise CircuitError(f"{where.format(i)} must be {_JSON_TYPE[kind]}, got {got}")
    return values


class _Made(dict):
    """``make((kind, a, b, c))`` for each gate key of ``_each_distinct``
    looked up, made on its first lookup."""

    def __init__(self, make: Callable, radix: int) -> None:
        super().__init__()
        self.make = make
        self.radix = radix

    def __missing__(self, key: int):
        rest, c = divmod(key, self.radix)
        rest, b = divmod(rest, self.radix)
        kind, a = divmod(rest, self.radix)
        value = self[key] = self.make((kind, a - 1, b - 1, c - 1))
        return value


def _make_gate(key: tuple[int, int, int, int]) -> Gate:
    k, a, b, c = key
    return _trusted_gate(_KINDS[k], (a, b, c)[: _ARITIES[k]])


def _gate_json(key: tuple[int, int, int, int]) -> str:
    k, a, b, c = key
    return _GATE_TEXT[k] % (a, b, c)[: _ARITIES[k]]


def _gate_text(kind: GateKind) -> str:
    """``dumps`` template of one gate: what ``json.dumps(indent=2)`` writes
    for it at depth 2, with a ``%d`` per operand."""
    ops = ",\n".join(["        %d"] * GATE_ARITY[kind])
    return (
        "    {\n"
        f'      "kind": "{kind.value}",\n'
        '      "operands": [\n'
        f"{ops}\n"
        "      ]\n"
        "    }"
    )


_GATE_TEXT = tuple(_gate_text(kind) for kind in _KINDS)

# a gate's text past its ``{`` and the separator (or ``_END``) up to the next
_PIECE = tuple(text[len("    {"):] + ",\n    " for text in _GATE_TEXT)
_END = "\n  ]\n}\n"
_NAME_AT = len('\n      "kind": "')
_WINDOW = 1 << 18  # characters of gate block ``loads`` splits at a time


def _parse_piece(piece: str) -> tuple[int, ...]:
    """``(kind, a, b, c)`` of the gate whose ``_PIECE`` text ``piece`` is,
    -1 in the unused slots; ``ValueError``, ``LookupError`` or ``TypeError``
    if it is no gate's."""
    code = _CODE_BY_NAME[piece[_NAME_AT : piece.index('"', _NAME_AT)]]
    ops = tuple(map(int, piece[piece.index("[") + 1 : piece.index("]")].split(",")))
    if piece != _PIECE[code] % ops or max(map(abs, ops)) >= 10**10:  # 10 digits hold an int32
        raise ValueError("not the dumps text of a gate")
    return (code, *ops, -1, -1)[:4]
