"""Basis-state oracle simulation for classical reversible circuits.

NOT / CNOT / TOFFOLI / SWAP permute computational basis states, so a
circuit built from them can be checked against plain integer arithmetic.
CV and CVDAG leave the basis and are rejected.  A check has one rule:
every register the spec names must hold the spec's value, and every
register it leaves out must come back unchanged, which is how ancilla
cleanliness is enforced.

``exhaustive_check`` and ``randomized_check`` share one bit-sliced engine
(Biham, FSE 1997).  It walks its inputs in chunks of ``_CHUNK`` basis
states and keeps one Python int per wire, whose bit i is that wire's value
in state i of the chunk.  A gate is then one big-int operation for the
whole chunk: NOT XORs the row with all-ones, CNOT XORs one row into
another, TOFFOLI XORs in the AND of two rows and SWAP exchanges two rows.
The gates are read in place from ``Circuit._columns()``, so the circuit
must not grow during a check: an append raises ``BufferError``.
Register values move into and out of rows with numpy ``unpackbits`` /
``packbits``, 64 bits at a time.  Values of up to 64 bits are copied into
an ``array("Q")`` buffer, which numpy reads as bytes without parsing each
int; wider values are laid out with ``int.to_bytes``.  An exhaustive
domain is never materialised: each chunk is addressed by its mixed-radix
index into the registers' value sequences, and a register's column is its
few distinct values in the chunk, each repeated over its run of states by
one ``np.repeat`` of an object array, so the column holds the domain's own
int objects.  Rows exist only for the wires in use, up to the highest wire
a gate or register touches, so declaring a wider circuit costs nothing by
itself.

The spec's inputs are built column-wise, ``_BATCH`` at a time: a batch
copies a zero-filled dict of every register and writes each domain
register's column into it, then goes through the spec in order.  Only
one batch of input dicts is alive at once; the spec's answers are kept
for the whole chunk and compared with the output rows in bulk, falling
back to value-by-value ``==`` where an answer is not a fitting integer.
For a register of up to 64 bits, the answers fit when ``array("Q")`` takes
them all and none has a bit at or above the register's length.

``simulate_mask`` walks one state at a time over a plain int.  It is kept
as the independent reference the engine is tested against.  Register
values decode little-endian: the bit at a register's offset is its least
significant.
"""

from __future__ import annotations

import math
import operator
import random
from array import array
from collections import deque
from dataclasses import dataclass
from itertools import repeat
from operator import ne, setitem
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .circuit import _CNOT, _KINDS, _NOT, _SWAP, _TOFFOLI, Circuit, CircuitError, Register

__all__ = [
    "NonClassicalGateError",
    "Counterexample",
    "simulate_mask",
    "domain_size",
    "exhaustive_check",
    "randomized_check",
]


class NonClassicalGateError(CircuitError):
    """Raised when simulation meets a gate with no basis-state action."""


_Program = tuple[memoryview, memoryview, memoryview, memoryview]
"""The circuit's gate columns from ``Circuit._columns()``: each gate's kind
code and its three operand slots, an unused slot holding -1.  They read the
circuit's own buffers, which cannot grow while the columns live."""


def _program(circuit: Circuit) -> tuple[_Program, int]:
    """The gate columns, and the number of wires in use: one past the
    highest wire that a gate or a register touches."""
    ends = [r.offset + r.length for r in circuit.registers]
    wires = max([int(circuit._table()[1].max(initial=-1)) + 1, *ends])
    return circuit._columns(), wires


def _non_classical(code: int) -> NonClassicalGateError:
    return NonClassicalGateError(
        f"non-classical gate {_KINDS[code].value} has no basis-state semantics"
    )


def simulate_mask(circuit: Circuit, mask: int) -> int:
    """Advance one packed basis state through the circuit."""
    program, _ = _program(circuit)
    for kind, a, b, c in zip(*program):
        if kind == _NOT:
            mask ^= 1 << a
        elif kind == _CNOT:
            if mask >> a & 1:
                mask ^= 1 << b
        elif kind == _TOFFOLI:
            if mask >> a & 1 and mask >> b & 1:
                mask ^= 1 << c
        elif kind == _SWAP:
            if (mask >> a & 1) != (mask >> b & 1):
                mask ^= (1 << a) | (1 << b)
        else:
            raise _non_classical(kind)
    return mask


# -- bit-sliced engine -------------------------------------------------

_CHUNK = 1 << 16
"""Basis states simulated together: the bit length of every wire row."""

_BATCH = 256
"""Input dicts alive at once: a chunk's inputs are built and handed to the
spec this many at a time, so memory stays flat whatever the chunk size."""

_LIMB = 64

def _run(program: _Program, rows: list[int], ones: int) -> None:
    """Apply the gates to every state of a chunk at once, in place."""
    for kind, a, b, c in zip(*program):
        if kind == _TOFFOLI:
            rows[c] ^= rows[a] & rows[b]
        elif kind == _CNOT:
            rows[b] ^= rows[a]
        elif kind == _NOT:
            rows[a] ^= ones
        elif kind == _SWAP:
            rows[a], rows[b] = rows[b], rows[a]
        else:
            raise _non_classical(kind)


def _flag_row(flags: Sequence[bool]) -> int:
    """One row with bit i set where ``flags[i]`` is true."""
    packed = np.packbits(np.array(flags, dtype=bool), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def _to_rows(values: Sequence[int], length: int) -> list[int]:
    """Bit-slice non-negative ``length``-bit values: row j holds bit j of
    every value, with value i at bit i.  Wide values are laid out as bytes
    once and sliced 64 bits at a time."""
    nbytes = (length + 7) // 8
    if length <= _LIMB:
        # the words ``_fitting`` made are read in place, not copied
        words = values if isinstance(values, array) else array("Q", values)
        octets = np.frombuffer(words, np.uint64).astype("<u8", copy=False)
        octets = octets.view(np.uint8).reshape(-1, 8)
    else:
        raw = b"".join([operator.index(v).to_bytes(nbytes, "little") for v in values])
        octets = np.frombuffer(raw, dtype=np.uint8).reshape(-1, nbytes)
    rows = []
    for lo in range(0, length, _LIMB):
        width = min(_LIMB, length - lo)
        bits = np.unpackbits(
            octets[:, lo // 8 : (lo + width + 7) // 8],
            axis=1, count=width, bitorder="little",
        )
        packed = np.packbits(np.ascontiguousarray(bits.T), axis=1, bitorder="little")
        rows += [int.from_bytes(p.tobytes(), "little") for p in packed]
    return rows


def _value(rows: Sequence[int], reg: Register, i: int) -> int:
    """Register value in state i of a chunk."""
    return sum((rows[q] >> i & 1) << j for j, q in enumerate(reg.qubits))


def _size(space: Sequence[int]) -> int:
    """Number of values in a space.  ``len`` overflows on a range longer
    than 2^63, so ranges are counted from their bounds."""
    if isinstance(space, range):
        step = space.step
        return max(0, (space.stop - space.start + step - (1 if step > 0 else -1)) // step)
    return len(space)


def domain_size(domain: Mapping[str, Sequence[int]]) -> int:
    """Number of inputs ``exhaustive_check`` walks: the size of the product."""
    return math.prod(_size(space) for space in domain.values())


def _validate_domain(
    circuit: Circuit, domain: Mapping[str, Sequence[int]]
) -> None:
    """Reject a domain naming a missing register or holding a value that
    is not an integer or does not fit its register, before anything is
    simulated.  An integer is a value ``operator.index`` accepts."""
    regs = {r.name: r for r in circuit.registers}
    for name, space in domain.items():
        if name not in regs:
            raise CircuitError(
                f"domain names register {name!r}, which the circuit lacks "
                f"(it has {', '.join(regs) or 'none'})"
            )
        if not isinstance(space, range):
            for value in space:
                try:
                    operator.index(value)
                except TypeError:
                    raise CircuitError(
                        f"value {value!r} of register {name} is not an integer"
                    ) from None
        if not _size(space):
            continue
        if isinstance(space, range):
            lo, hi = sorted((space[0], space[-1]))
        else:
            lo, hi = min(space), max(space)
        for value in (lo, hi):
            if not 0 <= value < (1 << regs[name].length):
                raise CircuitError(f"value {value} does not fit register {name}")


def _column(space: Sequence[int], size: int, stride: int, start: int, k: int) -> list[int]:
    """Values of one register at product indices ``start .. start+k-1``,
    where its digit (an index into ``space``) advances every ``stride``."""
    digit, skip = divmod(start, stride)
    head = min(stride - skip, k)
    mid, tail = divmod(k - head, stride)
    need = 1 + mid + (tail > 0)
    digit %= size
    vals = list(space[digit : digit + need])
    if len(vals) < need:  # wraps round to the start of the space
        laps, rest = divmod(need - len(vals), size)
        vals += list(space) * laps + list(space[:rest])
    if stride == 1:
        return vals
    counts = np.full(need, stride)
    counts[0] = head
    if tail:
        counts[-1] = tail
    return np.repeat(np.array(vals, dtype=object), counts).tolist()


_Chunk = tuple[int, dict[str, list[int]]]
"""A chunk's state count and, per domain register, its value in each state."""


def _product_chunks(domain: Mapping[str, Sequence[int]]) -> Iterator[_Chunk]:
    """The cartesian product of the domain in product order (last register
    fastest), ``_CHUNK`` states at a time."""
    spaces = list(domain.items())
    sizes = [_size(space) for _, space in spaces]
    strides = [math.prod(sizes[j + 1 :]) for j in range(len(sizes))]
    total = math.prod(sizes)
    for start in range(0, total, _CHUNK):
        k = min(_CHUNK, total - start)
        yield k, {
            name: _column(space, size, stride, start, k)
            for (name, space), size, stride in zip(spaces, sizes, strides)
        }


# -- checking ----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Counterexample:
    """First disagreement between a circuit and its integer reference."""

    input_registers: dict[str, int]
    expected: dict[str, int]
    actual: dict[str, int]

    def __str__(self) -> str:
        return (
            f"input={self.input_registers} expected={self.expected} "
            f"actual={self.actual}"
        )


SpecFn = Callable[[Mapping[str, int]], Mapping[str, int]]


def _mismatch(
    reg: Register,
    got: list[int],
    given: Iterable[int],
    expected: list[dict[str, int]],
) -> int:
    """Row flagging the states where register ``reg`` holds ``got`` but the
    spec wants something else; ``given`` are the register's input values,
    which it must keep where the spec leaves it out."""
    want = list(map(dict.get, expected, repeat(reg.name), given))
    values = _fitting(want, reg.length)
    if values is not None:
        return _diff(got, _to_rows(values, reg.length))
    # some value is not a fitting integer: decode the register's value in
    # every state (a bit-matrix transpose undoes itself) and compare with ==
    return _flag_row(list(map(ne, _to_rows(got, len(want)), want)))


def _fitting(want: list, length: int) -> Sequence[int] | None:
    """``want`` as non-negative ``length``-bit integers, ready for
    ``_to_rows``, or None where some value is not such an integer."""
    if length > _LIMB:  # no machine word holds these values
        ints = all(map(isinstance, want, repeat(int)))
        return want if ints and min(want) >= 0 and max(want) >> length == 0 else None
    try:
        words = array("Q", want)
    except (TypeError, OverflowError):  # not an integer, negative or >= 2^64
        return None
    if int(np.frombuffer(words, np.uint64).max(initial=0)) >> length:
        return None
    return words


def _diff(a: list[int], b: list[int]) -> int:
    """Row flagging the states where two row lists differ in any bit."""
    out = 0
    for x, y in zip(a, b):
        out |= x ^ y
    return out


def _check(
    circuit: Circuit,
    spec: SpecFn,
    chunks: Iterator[_Chunk],
) -> Counterexample | None:
    """First counterexample over the chunks, in their order, or None."""
    regs = circuit.registers
    names = [r.name for r in regs]
    template = dict.fromkeys(names, 0)
    program, wires = _program(circuit)
    for k, cols in chunks:
        ones = (1 << k) - 1
        before = [0] * wires
        for r in regs:
            if r.name in cols:
                before[r.offset : r.offset + r.length] = _to_rows(cols[r.name], r.length)
        rows = before.copy()
        _run(program, rows, ones)

        expected = []
        for lo in range(0, k, _BATCH):
            n = min(_BATCH, k - lo)
            batch = list(map(dict.copy, repeat(template, n)))
            for name, col in cols.items():
                deque(map(setitem, batch, repeat(name), col[lo : lo + n]), 0)
            expected += map(dict, map(spec, batch))
        named = set().union(*expected)
        if not named.issubset(names):
            stray = next(key for answer in expected for key in answer if key not in template)
            raise CircuitError(
                f"spec answer names register {stray!r}, which the circuit lacks "
                f"(it has {', '.join(names) or 'none'})"
            )
        zeros = [0] * k
        columns = [cols.get(name, zeros) for name in names]
        bad = 0
        for r, col in zip(regs, columns):
            span = slice(r.offset, r.offset + r.length)
            if r.name in named:
                bad |= _mismatch(r, rows[span], col, expected)
            else:
                bad |= _diff(rows[span], before[span])
        if bad:
            i = (bad & -bad).bit_length() - 1
            return Counterexample(
                input_registers={name: col[i] for name, col in zip(names, columns)},
                expected=expected[i],
                actual={r.name: _value(rows, r, i) for r in regs},
            )
    return None


def exhaustive_check(
    circuit: Circuit,
    spec: SpecFn,
    domain: Mapping[str, Sequence[int]],
) -> Counterexample | None:
    """Compare the circuit against an integer reference over a full domain.

    ``domain`` maps register names to the values they sweep; the check runs
    over the cartesian product, with unlisted registers starting at zero.
    A domain value must be an integer (``operator.index`` takes it) that
    fits its register; any other is refused before anything runs.
    ``spec`` maps input register values to the expected values of the
    registers it cares about; every register it leaves out, for an input,
    must come back unchanged for that input.
    ``spec`` is called once per input, in product order, each time with a
    fresh dict holding every register's input value; it may keep or change
    that dict.  Its answer is copied, and each value is compared with the
    register's output by ``==``: ``3.0`` and ``True`` agree with 3 and 1,
    while ``0.5``, ``"3"`` and ``None`` agree with no register value.  An
    answer naming a register the circuit lacks raises ``CircuitError``.
    Returns the first counterexample in product order, or None on a clean pass.
    The product is streamed, so memory does not grow with the domain, and
    the check stops at the chunk holding the first counterexample.  The
    check reads the circuit's gates in place, so the circuit must not grow
    while it runs: an append to it, from ``spec`` say, raises ``BufferError``.
    """
    _validate_domain(circuit, domain)
    return _check(circuit, spec, _product_chunks(domain))


def randomized_check(
    circuit: Circuit,
    spec: SpecFn,
    domain: Mapping[str, Sequence[int]],
    *,
    trials: int,
    seed: int,
) -> Counterexample | None:
    """Seeded uniform sampling of each register's value sequence.

    Each trial is checked by the same rule as in ``exhaustive_check``:
    named registers hold the spec's value, the rest come back unchanged.
    Deterministic for a given seed; ``trials`` must be a non-negative
    integer, and ``trials=0`` passes vacuously.  The domain is validated
    up front, as in ``exhaustive_check``, so a value that is not an integer
    or does not fit its register is refused even if no trial would draw
    it.  Trials are drawn one chunk at a time, so memory does not grow
    with ``trials``.  As in ``exhaustive_check``, the circuit must not grow
    while the check runs.
    """
    try:
        trials = operator.index(trials)
    except TypeError:
        raise CircuitError(f"trials must be an integer, not {trials!r}") from None
    if trials < 0:
        raise CircuitError("trials must be non-negative")
    _validate_domain(circuit, domain)
    rng = random.Random(seed)
    spaces = [(name, space, _size(space)) for name, space in domain.items()]
    if trials and not all(size for _, _, size in spaces):
        raise CircuitError("cannot sample from an empty value sequence")

    def chunks() -> Iterator[_Chunk]:
        for start in range(0, trials, _CHUNK):
            k = min(_CHUNK, trials - start)
            cols: dict[str, list[int]] = {name: [] for name in domain}
            for _ in range(k):
                for name, space, size in spaces:
                    cols[name].append(space[rng.randrange(size)])
            yield k, cols

    return _check(circuit, spec, chunks())
