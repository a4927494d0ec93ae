"""Reversible arithmetic circuit builders.

Everything here is synthesized over NOT / CNOT / TOFFOLI / SWAP and checked
against plain integer arithmetic by the oracle tests.  The stack is:

* three in-place adders (``b <- a + b``):  a carry-ripple with an explicit
  carry register (VBE_RIPPLE), the one-ancilla majority/unmajority ripple
  (CDKM_RIPPLE), and a carry-select tree adder with logarithmic depth
  (CONDITIONAL_SUM);
* modular addition of a classical constant by the compare / add /
  conditionally-subtract / fixup pattern, with 0, 1 or 2 controls;
* modular multiplication by a classical constant via shift-and-add,
  a register swap, and an inverse multiply by the modular inverse that
  clears the scratch product;
* modular exponentiation ``r = base^e mod modulus`` over a 2n-bit exponent,
  either serial (one controlled multiply per exponent bit) or as a
  two-lane pipeline that overlaps each multiply with the clearing of the
  previous value (see ``build_modexp``).

All builders restore every ancilla register to its input value on the
stated domain (ancillae in, ancillae out; tests sweep this exhaustively
at small widths).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from .circuit import Circuit, CircuitError, Register

__all__ = [
    "AdderKind",
    "ModexpSpec",
    "build_adder",
    "build_controlled_adder",
    "build_const_modadd",
    "build_modmul_const",
    "build_modexp",
]


class AdderKind(Enum):
    VBE_RIPPLE = "vbe"
    CDKM_RIPPLE = "cdkm"
    CONDITIONAL_SUM = "condsum"


def _setbits(x: int) -> list[int]:
    return [i for i in range(x.bit_length()) if x >> i & 1]


class _Layout:
    """Hands out contiguous wire blocks and remembers them as registers."""

    def __init__(self) -> None:
        self._regs: list[Register] = []
        self._next = 0

    def block(self, name: str, length: int) -> list[int]:
        reg = Register(name, self._next, length)
        self._regs.append(reg)
        self._next += length
        return list(reg.qubits)

    def qubit(self, name: str) -> int:
        return self.block(name, 1)[0]

    def circuit(self) -> Circuit:
        return Circuit(self._next, self._regs)


# ----------------------------------------------------------------------
# adders
# ----------------------------------------------------------------------


def _alloc_adder_anc(lay: _Layout, kind: AdderKind, m: int, prefix: str = "") -> dict:
    if kind is AdderKind.CDKM_RIPPLE:
        return {"anc": lay.block(prefix + "anc", 1)}
    if kind is AdderKind.VBE_RIPPLE:
        return {"carry": lay.block(prefix + "carry", m)}
    anc = {
        "sum": lay.block(prefix + "cs_sum", m),
        "prop": lay.block(prefix + "cs_prop", m),
        "gen0": lay.block(prefix + "cs_gen0", 2 * m - 1),
        "gen1": lay.block(prefix + "cs_gen1", 2 * m - 1),
    }
    anc["blockcarry"] = lay.block(prefix + "cs_blockcarry", m - 1) if m > 1 else []
    return anc


def _emit_cdkm(c: Circuit, a: list, b: list, cout: int, anc: dict) -> None:
    """Majority / unmajority ripple; the carry threads through the a wires."""
    m = len(a)
    chain = [anc["anc"][0]] + a[:-1]
    for i in range(m):
        ci = chain[i]
        c.cx(a[i], b[i])
        c.cx(a[i], ci)
        c.ccx(ci, b[i], a[i])
    c.cx(a[m - 1], cout)
    for i in reversed(range(m)):
        ci = chain[i]
        c.ccx(ci, b[i], a[i])
        c.cx(a[i], ci)
        c.cx(ci, b[i])


def _emit_vbe(c: Circuit, a: list, b: list, cout: int, anc: dict) -> None:
    """Classic carry-sweep ripple with an explicit m-bit carry register."""
    m = len(a)
    carry = anc["carry"]
    nxt = carry[1:] + [cout]

    def fwd(i: int) -> None:
        c.ccx(a[i], b[i], nxt[i])
        c.cx(a[i], b[i])
        c.ccx(carry[i], b[i], nxt[i])

    def rev(i: int) -> None:
        c.ccx(carry[i], b[i], nxt[i])
        c.cx(a[i], b[i])
        c.ccx(a[i], b[i], nxt[i])

    def sum_(i: int) -> None:
        c.cx(a[i], b[i])
        c.cx(carry[i], b[i])

    for i in range(m):
        fwd(i)
    c.cx(a[m - 1], b[m - 1])
    sum_(m - 1)
    for i in reversed(range(m - 1)):
        rev(i)
        sum_(i)


class _CondSum:
    """Carry-select tree adder.

    The up-sweep computes, for every aligned block, its carry-out under
    both incoming-carry hypotheses; block pairs merge through two-gate
    multiplexers.  The down-sweep then selects the real carry into every
    position, sums are written into a scratch register, and both sweeps
    are uncomputed.  A second pass with complemented ``a`` and forced
    carry-in subtracts ``a`` again, which erases the old value of ``b``
    left in the scratch register by the swap.  Depth is O(log m), ancilla
    count O(m).
    """

    def __init__(self, c: Circuit, a: list, b: list, cout: int, anc: dict):
        self.c = c
        self.a = a
        self.b = b
        self.cout = cout
        self.sum = anc["sum"]
        self.prop = anc["prop"]
        self.gen = (anc["gen0"], anc["gen1"])
        self.blockcarry = anc["blockcarry"]
        self.m = len(a)

    def emit(self) -> None:
        c = self.c
        self._pass(cin=0, write_carry=True)
        for i in range(self.m):
            c.swap(self.b[i], self.sum[i])
        for q in self.a:
            c.x(q)
        self._pass(cin=1, write_carry=False)
        for q in self.a:
            c.x(q)

    # one compute / write / uncompute round
    def _pass(self, cin: int, write_carry: bool) -> None:
        c = self.c
        self._node_ids: dict[tuple[int, int], int] = {}
        self._next_node = 0
        self._next_blockcarry = 0
        # per position: ("const", 0|1) or ("wire", qubit)
        self._carry_in: list[tuple[str, int]] = [("const", 0)] * self.m

        sweep_start = len(c)
        root = self._up(0, self.m)
        self._down(0, self.m, cin)
        sweep_end = len(c)

        for i in range(self.m):
            c.cx(self.prop[i], self.sum[i])
            tag, ci = self._carry_in[i]
            if tag == "const":
                if ci:
                    c.x(self.sum[i])
            else:
                c.cx(ci, self.sum[i])
        if write_carry:
            c.cx(self.gen[cin][root], self.cout)

        c.invert_span(sweep_start, sweep_end)

    def _node(self, lo: int, hi: int) -> int:
        nid = self._next_node
        self._next_node += 1
        self._node_ids[(lo, hi)] = nid
        return nid

    def _up(self, lo: int, hi: int) -> int:
        c = self.c
        nid = self._node(lo, hi)
        g0, g1 = self.gen[0][nid], self.gen[1][nid]
        if hi - lo == 1:
            i = lo
            c.ccx(self.a[i], self.b[i], g0)
            c.cx(self.a[i], self.prop[i])
            c.cx(self.b[i], self.prop[i])
            c.cx(g0, g1)
            c.cx(self.prop[i], g1)
            return nid
        mid = (lo + hi) // 2
        low = self._up(lo, mid)
        high = self._up(mid, hi)
        for h in (0, 1):
            sel = self.gen[h][low]
            dst = (g0, g1)[h]
            c.cx(self.gen[0][high], dst)
            c.ccx(sel, self.gen[0][high], dst)
            c.ccx(sel, self.gen[1][high], dst)
        return nid

    def _down(self, lo: int, hi: int, cin: int, classical: bool = True) -> None:
        c = self.c
        if hi - lo == 1:
            self._carry_in[lo] = ("const" if classical else "wire", cin)
            return
        mid = (lo + hi) // 2
        low = self._node_ids[(lo, mid)]
        cin_high = self.blockcarry[self._next_blockcarry]
        self._next_blockcarry += 1
        if classical:
            c.cx(self.gen[cin][low], cin_high)
        else:
            c.cx(self.gen[0][low], cin_high)
            c.ccx(cin, self.gen[0][low], cin_high)
            c.ccx(cin, self.gen[1][low], cin_high)
        self._down(lo, mid, cin, classical)
        self._down(mid, hi, cin_high, False)


def _emit_adder(
    c: Circuit, kind: AdderKind, a: list, b: list, cout: int, anc: dict
) -> None:
    if kind is AdderKind.CDKM_RIPPLE:
        _emit_cdkm(c, a, b, cout, anc)
    elif kind is AdderKind.VBE_RIPPLE:
        _emit_vbe(c, a, b, cout, anc)
    else:
        _CondSum(c, a, b, cout, anc).emit()


def build_adder(kind: AdderKind, n: int) -> Circuit:
    """In-place adder: b <- (a+b) mod 2^n, carry_out ^= overflow bit.

    ``a`` is preserved and the kind-specific ancilla registers return to
    their input values (all-zero ancillae on the stated domain).
    """
    if n < 1:
        raise CircuitError(f"adder width must be positive, got {n}")
    lay = _Layout()
    a = lay.block("a", n)
    b = lay.block("b", n)
    cout = lay.qubit("carry_out")
    anc = _alloc_adder_anc(lay, kind, n)
    c = lay.circuit()
    _emit_adder(c, kind, a, b, cout, anc)
    return c


def build_controlled_adder(kind: AdderKind, n: int) -> Circuit:
    """Adder gated on a control qubit; identity on a/b/carry_out when off.

    The control masks a copy of ``a`` into a scratch register, the plain
    adder adds the masked copy (adding zero when the control is off), and
    the mask is undone.
    """
    if n < 1:
        raise CircuitError(f"adder width must be positive, got {n}")
    lay = _Layout()
    ctl = lay.qubit("ctl")
    a = lay.block("a", n)
    b = lay.block("b", n)
    cout = lay.qubit("carry_out")
    masked = lay.block("masked", n)
    anc = _alloc_adder_anc(lay, kind, n)
    c = lay.circuit()
    for i in range(n):
        c.ccx(ctl, a[i], masked[i])
    _emit_adder(c, kind, masked, b, cout, anc)
    for i in range(n):
        c.ccx(ctl, a[i], masked[i])
    return c


# ----------------------------------------------------------------------
# modular addition of a constant
# ----------------------------------------------------------------------


@dataclass
class _ModAddLane:
    """Shared scratch for modular additions: one (n+1)-bit adder channel.

    ``passes`` keeps, per target, the lane's adder pass onto that target
    and its inverse, each emitted once into a circuit of its own and then
    replayed by every modular add on the target.  The adder kind, ``k``,
    ``cout`` and the ancillae are fixed per lane, and a lane belongs to one
    circuit, so a pass depends on nothing but the target.
    """

    hi: int
    k: list[int]
    cout: int
    flag: int
    adder_kind: AdderKind
    adder_anc: dict
    passes: dict[tuple[int, ...], tuple[Circuit, Circuit]] = field(default_factory=dict)

    def adder_passes(self, width: int, target: list[int]) -> tuple[Circuit, Circuit]:
        """``w <- w + k`` and ``w <- w - k`` for ``w`` = ``target`` plus ``hi``,
        as circuits of ``width`` wires."""
        key = tuple(target)
        if key not in self.passes:
            add = Circuit(width)
            _emit_adder(add, self.adder_kind, self.k, target + [self.hi], self.cout, self.adder_anc)
            self.passes[key] = (add, add.inverse())
        return self.passes[key]


def _alloc_lane(lay: _Layout, kind: AdderKind, n: int, prefix: str = "") -> _ModAddLane:
    return _ModAddLane(
        hi=lay.qubit(prefix + "hi"),
        k=lay.block(prefix + "k", n + 1),
        cout=lay.qubit(prefix + "cout"),
        flag=lay.qubit(prefix + "flag"),
        adder_kind=kind,
        adder_anc=_alloc_adder_anc(lay, kind, n + 1, prefix),
    )


def _modadd_core(
    c: Circuit,
    lane: _ModAddLane,
    target: list[int],
    modulus: int,
    load_addend: Callable[[], None],
    load_modulus: Callable[[], None],
    fix_ctl: int | None,
) -> None:
    """target <- (target + addend) mod modulus, addend delivered by loads.

    The working value spans ``target`` plus the ``hi`` extension bit.  Add
    the addend, subtract the modulus (borrow -> flag), re-add the modulus
    under the flag, then compare against the addend to restore the flag.
    When the loads are control-gated everything degrades to the identity,
    because adding zero is the identity and the flag fixup is gated too.
    """
    add, sub = lane.adder_passes(c.width, target)
    load_addend()
    c.append_circuit(add)
    load_addend()  # unload (self-inverse loads)
    load_modulus()
    c.append_circuit(sub)
    load_modulus()
    c.cx(lane.cout, lane.flag)
    for bit in _setbits(modulus):
        c.cx(lane.flag, lane.k[bit])
    c.append_circuit(add)
    for bit in _setbits(modulus):
        c.cx(lane.flag, lane.k[bit])
    load_addend()
    c.append_circuit(sub)
    c.x(lane.cout)
    if fix_ctl is None:
        c.cx(lane.cout, lane.flag)
    else:
        c.ccx(fix_ctl, lane.cout, lane.flag)
    c.x(lane.cout)
    c.append_circuit(add)
    load_addend()


def _emit_modadd(
    c: Circuit,
    lane: _ModAddLane,
    target: list[int],
    addend: int,
    modulus: int,
    active: int | None = None,
) -> None:
    """target <- (target + addend) mod modulus, optionally gated on ``active``."""

    def load(value: int) -> None:
        for bit in _setbits(value):
            if active is None:
                c.x(lane.k[bit])
            else:
                c.cx(active, lane.k[bit])

    _modadd_core(
        c, lane, target, modulus, lambda: load(addend), lambda: load(modulus), active
    )


def _emit_modadd_selected(
    c: Circuit,
    lane: _ModAddLane,
    target: list[int],
    const0: int,
    const1: int,
    sel: int,
    gate_ctl: int,
    modulus: int,
) -> None:
    """target += (const1 if sel else const0) mod modulus, gated on gate_ctl.

    The selector only redirects which constant is loaded, so the whole
    modular add still runs under a single guard qubit.
    """

    def load_addend() -> None:
        for bit in _setbits(const0):
            c.cx(gate_ctl, lane.k[bit])
        for bit in _setbits(const0 ^ const1):
            c.ccx(sel, gate_ctl, lane.k[bit])

    def load_modulus() -> None:
        for bit in _setbits(modulus):
            c.cx(gate_ctl, lane.k[bit])

    _modadd_core(c, lane, target, modulus, load_addend, load_modulus, gate_ctl)


def _check_modulus(n: int, modulus: int) -> None:
    if n < 1:
        raise CircuitError(f"width must be positive, got {n}")
    if modulus < 2:
        raise CircuitError(f"modulus must be at least 2, got {modulus}")
    if modulus >= (1 << n):
        raise CircuitError(f"modulus {modulus} does not fit in {n} bits")


def build_const_modadd(
    n: int,
    c: int,
    modulus: int,
    controlled: int = 0,
    adder: AdderKind = AdderKind.CDKM_RIPPLE,
) -> Circuit:
    """t <- (t + c) mod modulus on the domain t < modulus.

    ``controlled`` adds that many control qubits (0, 1 or 2); with any
    control off the circuit is the identity.  Two controls are folded into
    one ``act`` ancilla so the inner machinery always sees a single guard.
    """
    _check_modulus(n, modulus)
    if not 0 <= c < modulus:
        raise CircuitError(f"constant {c} outside [0, {modulus})")
    if controlled not in (0, 1, 2):
        raise CircuitError(f"controlled must be 0, 1 or 2, got {controlled}")

    lay = _Layout()
    ctl = lay.block("ctl", controlled) if controlled else []
    target = lay.block("t", n)
    lane = _alloc_lane(lay, adder, n)
    act = lay.qubit("act") if controlled == 2 else None
    circ = lay.circuit()

    if controlled == 2:
        circ.ccx(ctl[0], ctl[1], act)
        active = act
    elif controlled == 1:
        active = ctl[0]
    else:
        active = None
    _emit_modadd(circ, lane, target, c, modulus, active)
    if controlled == 2:
        circ.ccx(ctl[0], ctl[1], act)
    return circ


# ----------------------------------------------------------------------
# modular multiplication by a constant
# ----------------------------------------------------------------------


def _emit_ctrl_modmul(
    circ: Circuit,
    lane: _ModAddLane,
    y: list[int],
    p: list[int],
    mult: int,
    modulus: int,
    ctl: int | None,
    act: int | None,
) -> None:
    """y <- (mult * y) mod modulus when ``ctl`` is set (always, if None).

    n gated modular adds accumulate mult*y into the zero register ``p``, a
    controlled swap exchanges ``y`` and ``p``, and n more adds of the
    negated multiples of mult^-1 return ``p`` to zero.  Under a control,
    each add is gated on ``act`` = ctl AND the source bit.
    """
    inv = pow(mult, -1, modulus)

    def gated_modadd(src_bit: int, addend: int) -> None:
        if ctl is None:
            _emit_modadd(circ, lane, p, addend, modulus, active=src_bit)
        else:
            circ.ccx(ctl, src_bit, act)
            _emit_modadd(circ, lane, p, addend, modulus, active=act)
            circ.ccx(ctl, src_bit, act)

    for j in range(len(y)):
        gated_modadd(y[j], (mult << j) % modulus)
    for j in range(len(y)):
        if ctl is None:
            circ.swap(y[j], p[j])
        else:
            circ.cx(p[j], y[j])
            circ.ccx(ctl, y[j], p[j])
            circ.cx(p[j], y[j])
    for j in range(len(y)):
        gated_modadd(y[j], (modulus - ((inv << j) % modulus)) % modulus)


def build_modmul_const(
    n: int,
    c: int,
    modulus: int,
    controlled: int = 0,
    adder: AdderKind = AdderKind.CDKM_RIPPLE,
) -> Circuit:
    """y <- (c * y) mod modulus on y < modulus, gcd(c, modulus) = 1.

    Shift-and-add accumulates c*y into a zero product register, a swap
    moves it into place, and the inverse multiplication by c^-1 clears
    the scratch copy of the old value.
    """
    _check_modulus(n, modulus)
    if not 0 < c < modulus or math.gcd(c, modulus) != 1:
        raise CircuitError(f"multiplier {c} must be a unit modulo {modulus}")
    if controlled not in (0, 1):
        raise CircuitError(f"controlled must be 0 or 1, got {controlled}")

    lay = _Layout()
    ctl = lay.qubit("ctl") if controlled else None
    y = lay.block("y", n)
    p = lay.block("p", n)
    lane = _alloc_lane(lay, adder, n)
    act = lay.qubit("act") if controlled else None
    circ = lay.circuit()

    _emit_ctrl_modmul(circ, lane, y, p, c, modulus, ctl, act)
    return circ


# ----------------------------------------------------------------------
# modular exponentiation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ModexpSpec:
    """Parameters for r = base^e mod modulus over a 2n-bit exponent.

    ``s`` selects the layout: 1 is the serial builder, 2 the two-lane
    pipeline (which needs n >= 4).
    """

    n: int
    modulus: int
    base: int
    s: int = 1
    adder: AdderKind = AdderKind.CDKM_RIPPLE

    def __post_init__(self) -> None:
        _check_modulus(self.n, self.modulus)
        if self.modulus < 3 or self.modulus % 2 == 0:
            raise CircuitError(f"modulus must be odd and >= 3, got {self.modulus}")
        if not 2 <= self.base < self.modulus:
            raise CircuitError(f"base {self.base} outside [2, {self.modulus})")
        if math.gcd(self.base, self.modulus) != 1:
            raise CircuitError(
                f"base {self.base} shares a factor with modulus {self.modulus}"
            )
        if self.s not in (1, 2):
            raise CircuitError(
                f"s={self.s} must be 1 (serial) or 2 (two-lane pipeline)"
            )
        if self.s == 2 and self.n < 4:
            raise CircuitError(f"s=2 needs n >= 4, got n={self.n}")

    @property
    def exponent_bits(self) -> int:
        return 2 * self.n


def _modexp_serial(spec: ModexpSpec) -> Circuit:
    """One in-place accumulator, one controlled multiply per exponent bit."""
    n, N, x = spec.n, spec.modulus, spec.base
    lay = _Layout()
    e = lay.block("e", 2 * n)
    r = lay.block("r", n)
    p = lay.block("p", n)
    lane = _alloc_lane(lay, spec.adder, n)
    act = lay.qubit("act")
    circ = lay.circuit()

    circ.x(r[0])
    for i in range(2 * n):
        _emit_ctrl_modmul(circ, lane, r, p, pow(x, 1 << i, N), N, e[i], act)
    return circ


def _modexp_pipelined(spec: ModexpSpec) -> Circuit:
    """Two-lane multiply pipeline over the 2n exponent bits.

    Per exponent bit the value hops to the next of three rotating blocks:
    a forward lane accumulates ``selected_const * value`` into the empty
    block while a clear lane erases the previous block by subtracting the
    inverse constant times the freshly written value.  The two lanes touch
    disjoint scratch, so consecutive steps overlap under ASAP scheduling
    and the steady-state cost per exponent bit is one multiply instead of
    the serial form's multiply-plus-unmultiply.  After 2n hops the value
    sits in block (2n) % 3, which is the one named ``r``.
    """
    n, N, x = spec.n, spec.modulus, spec.base
    lay = _Layout()
    e = lay.block("e", 2 * n)
    blocks = [lay.block("r" if b == (2 * n) % 3 else f"work{b}", n) for b in range(3)]
    fwd = _alloc_lane(lay, spec.adder, n, "fwd_")
    clr = _alloc_lane(lay, spec.adder, n, "clr_")
    circ = lay.circuit()

    circ.x(blocks[0][0])
    for i in range(2 * n):
        src = blocks[i % 3]
        tgt = blocks[(i + 1) % 3]
        ci = pow(x, 1 << i, N)
        cinv = pow(ci, -1, N)
        for j in range(n):
            _emit_modadd_selected(
                circ, fwd, tgt,
                const0=(1 << j) % N,
                const1=(ci << j) % N,
                sel=e[i], gate_ctl=src[j], modulus=N,
            )
        for j in range(n):
            _emit_modadd_selected(
                circ, clr, src,
                const0=(N - ((1 << j) % N)) % N,
                const1=(N - ((cinv << j) % N)) % N,
                sel=e[i], gate_ctl=tgt[j], modulus=N,
            )
    return circ


def build_modexp(spec: ModexpSpec) -> Circuit:
    """Exponentiation circuit: (e, r=0, 0...) -> (e, base^e mod modulus, 0...).

    The builder seeds the working value to 1 with a NOT; the ``r`` register
    named in the result carries base^e and every other non-exponent register
    returns to zero.  ``s`` = 1 builds one controlled multiply per exponent
    bit; ``s`` = 2 builds the two-lane pipeline.
    """
    if spec.s == 1:
        return _modexp_serial(spec)
    return _modexp_pipelined(spec)
