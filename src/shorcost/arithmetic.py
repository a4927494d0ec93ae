"""Reversible arithmetic circuit builders.

Everything here is synthesized over NOT / CNOT / TOFFOLI / SWAP and checked
against plain integer arithmetic by the oracle tests.  The stack is:

* three in-place adders (``b <- a + b``):  a carry-ripple with an explicit
  carry register (VBE_RIPPLE), the one-ancilla majority/unmajority ripple
  (CDKM_RIPPLE), and a carry-select tree adder with logarithmic depth
  (CONDITIONAL_SUM);
* modular addition of a classical constant by the compare / add /
  conditionally-subtract / fixup pattern, with 0, 1 or 2 controls.  One
  emitter, ``_emit_modadd``, writes it for every builder; its ``select``
  lets a second qubit choose between two constants, which is how the
  pipelined modexp picks ``1`` or ``base^(2^i)`` per exponent bit;
* a multiply-accumulate ``tgt <- tgt + mult * src mod modulus``: one
  emitter, ``_emit_mac``, with one gated modular add per source bit;
* modular multiplication by a classical constant: a multiply-accumulate
  into a zero register, a register swap, and a multiply-accumulate of
  the negated modular inverse that clears the scratch product;
* modular exponentiation ``r = base^e mod modulus`` over a 2n-bit exponent,
  either serial (one controlled multiply per exponent bit) or as a
  two-lane pipeline that overlaps each multiply-accumulate with the
  clearing of the previous value (see ``build_modexp``).

All builders restore every ancilla register to its input value on the
stated domain (ancillae in, ancillae out; tests sweep this exhaustively
at small widths).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

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


def _emit_condsum(c: Circuit, a: list, b: list, cout: int, anc: dict) -> None:
    """Carry-select tree adder.

    The up-sweep computes, for every aligned block, its carry-out under
    both incoming-carry hypotheses; block pairs merge through two-gate
    multiplexers.  The down-sweep then selects the real carry into every
    position, sums are written into a scratch register, and both sweeps
    are uncomputed.  A second pass with complemented ``a`` and forced
    carry-in subtracts ``a`` again, which erases the old value of ``b``
    left in the scratch register by the swap.  Depth is O(log m), ancilla
    count O(m).

    Tree nodes take ``gen`` slots in preorder, so a block of k positions
    spans 2k - 1 ids and its high half starts 2 * (mid - lo) after it;
    block carries are numbered in preorder over the inner nodes (k - 1
    per block) the same way.
    """
    m = len(a)
    sums, prop, blockcarry = anc["sum"], anc["prop"], anc["blockcarry"]
    gen = (anc["gen0"], anc["gen1"])
    carry = [0] * m  # the wire carrying into each position above 0

    def up(sweep: Circuit, lo: int, hi: int, nid: int) -> None:
        g0, g1 = gen[0][nid], gen[1][nid]
        if hi - lo == 1:
            sweep.ccx(a[lo], b[lo], g0)
            sweep.cx(a[lo], prop[lo])
            sweep.cx(b[lo], prop[lo])
            sweep.cx(g0, g1)
            sweep.cx(prop[lo], g1)
            return
        mid = (lo + hi) // 2
        low, high = nid + 1, nid + 2 * (mid - lo)
        up(sweep, lo, mid, low)
        up(sweep, mid, hi, high)
        for h in (0, 1):
            sel = gen[h][low]
            dst = (g0, g1)[h]
            sweep.cx(gen[0][high], dst)
            sweep.ccx(sel, gen[0][high], dst)
            sweep.ccx(sel, gen[1][high], dst)

    def down(sweep: Circuit, lo: int, hi: int, nid: int, bc: int, cin: int) -> None:
        """``cin`` is the constant carry-in on the blocks at position 0 and
        a block-carry wire on every other block."""
        if hi - lo == 1:
            carry[lo] = cin
            return
        mid = (lo + hi) // 2
        low, cin_high = nid + 1, blockcarry[bc]
        if lo == 0:
            sweep.cx(gen[cin][low], cin_high)
        else:
            sweep.cx(gen[0][low], cin_high)
            sweep.ccx(cin, gen[0][low], cin_high)
            sweep.ccx(cin, gen[1][low], cin_high)
        down(sweep, lo, mid, low, bc + 1, cin)
        down(sweep, mid, hi, nid + 2 * (mid - lo), bc + (mid - lo), cin_high)

    def compute_write_uncompute(cin: int, write_carry: bool) -> None:
        sweep = Circuit(c.width)  # both sweeps, replayed and then inverted
        up(sweep, 0, m, 0)
        down(sweep, 0, m, 0, 0, cin)
        c.append_circuit(sweep)
        for i in range(m):
            c.cx(prop[i], sums[i])
            if i:
                c.cx(carry[i], sums[i])
            elif cin:
                c.x(sums[i])
        if write_carry:
            c.cx(gen[cin][0], cout)
        c.append_circuit(sweep.inverse())

    compute_write_uncompute(0, write_carry=True)
    for i in range(m):
        c.swap(b[i], sums[i])
    for q in a:
        c.x(q)
    compute_write_uncompute(1, write_carry=False)
    for q in a:
        c.x(q)


def _emit_adder(
    c: Circuit, kind: AdderKind, a: list, b: list, cout: int, anc: dict
) -> None:
    if kind is AdderKind.CDKM_RIPPLE:
        _emit_cdkm(c, a, b, cout, anc)
    elif kind is AdderKind.VBE_RIPPLE:
        _emit_vbe(c, a, b, cout, anc)
    else:
        _emit_condsum(c, a, b, cout, anc)


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

    Every block a modular add repeats is recorded once, in a circuit of its
    own, and replayed with ``append_circuit``.  ``blocks`` holds those that
    are the same in every add on the lane, keyed by what each depends on:
    the adder pass onto a target and its inverse by the target, and a load
    of the modulus into ``k`` by the modulus and its guard (``active``, or
    ``flag`` for the fix-up).  The adder kind, ``k``, ``cout``, ``flag``
    and the ancillae are fixed per lane, and a lane belongs to one circuit,
    so nothing else can change a block.  The addend load changes from one
    add to the next and is recorded by ``_emit_modadd`` itself.
    """

    hi: int
    k: list[int]
    cout: int
    flag: int
    adder_kind: AdderKind
    adder_anc: dict
    blocks: dict[tuple, Circuit] = field(default_factory=dict)

    def adder_passes(self, width: int, target: list[int]) -> tuple[Circuit, Circuit]:
        """``w <- w + k`` and ``w <- w - k`` for ``w`` = ``target`` plus ``hi``,
        as circuits of ``width`` wires."""
        add_key, sub_key = ("add", *target), ("sub", *target)
        if add_key not in self.blocks:
            add = Circuit(width)
            _emit_adder(add, self.adder_kind, self.k, target + [self.hi], self.cout, self.adder_anc)
            self.blocks[add_key] = add
            self.blocks[sub_key] = add.inverse()
        return self.blocks[add_key], self.blocks[sub_key]

    def modulus_load(self, width: int, modulus: int, guard: int | None) -> Circuit:
        """``k ^= modulus`` under ``guard`` (always, if None), as a circuit
        of ``width`` wires."""
        key = ("load", modulus, guard)
        if key not in self.blocks:
            self.blocks[key] = self.load(width, modulus, guard)
        return self.blocks[key]

    def load(self, width: int, value: int, guard: int | None) -> Circuit:
        """A new circuit of ``width`` wires that sets ``k ^= value`` under
        ``guard`` (always, if None)."""
        c = Circuit(width)
        for bit in _setbits(value):
            if guard is None:
                c.x(self.k[bit])
            else:
                c.cx(guard, self.k[bit])
        return c


def _alloc_lane(lay: _Layout, kind: AdderKind, n: int, prefix: str = "") -> _ModAddLane:
    return _ModAddLane(
        hi=lay.qubit(prefix + "hi"),
        k=lay.block(prefix + "k", n + 1),
        cout=lay.qubit(prefix + "cout"),
        flag=lay.qubit(prefix + "flag"),
        adder_kind=kind,
        adder_anc=_alloc_adder_anc(lay, kind, n + 1, prefix),
    )


def _emit_modadd(
    c: Circuit,
    lane: _ModAddLane,
    target: list[int],
    addend: int,
    modulus: int,
    active: int | None = None,
    select: tuple[int, int] | None = None,
) -> None:
    """target <- (target + addend) mod modulus, optionally gated on ``active``.

    The working value spans ``target`` plus the ``hi`` extension bit.  Add
    the addend, subtract the modulus (borrow -> flag), re-add the modulus
    under the flag, then compare against the addend to restore the flag.
    Constants reach the adder through ``k``, loaded under ``active``; with
    ``active`` off every load is empty and the flag fix-up is gated too, so
    the whole add is the identity.  ``select=(sel, other)`` (which needs
    ``active``) loads ``other`` in place of ``addend`` where ``sel`` is set,
    so one guard qubit still gates the whole add.

    Every block the add repeats is recorded once and replayed with
    ``append_circuit``: the addend load, which is its own inverse, is
    recorded here and replayed four times; the adder passes, the modulus
    load and the flag fix-up come from the lane's ``blocks``.  Only the
    four gates that set and clear ``flag`` enter one at a time.
    """
    w = c.width
    add, sub = lane.adder_passes(w, target)
    load_modulus = lane.modulus_load(w, modulus, active)
    fixup = lane.modulus_load(w, modulus, lane.flag)
    load_addend = lane.load(w, addend, active)
    if select is not None:
        sel, other = select
        for bit in _setbits(addend ^ other):
            load_addend.ccx(sel, active, lane.k[bit])

    for block in (load_addend, add, load_addend, load_modulus, sub, load_modulus):
        c.append_circuit(block)
    c.cx(lane.cout, lane.flag)
    for block in (fixup, add, fixup, load_addend, sub):
        c.append_circuit(block)
    c.x(lane.cout)
    if active is None:
        c.cx(lane.cout, lane.flag)
    else:
        c.ccx(active, lane.cout, lane.flag)
    c.x(lane.cout)
    c.append_circuit(add)
    c.append_circuit(load_addend)


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


def _emit_mac(
    circ: Circuit,
    lane: _ModAddLane,
    src: list[int],
    tgt: list[int],
    mult: int,
    modulus: int,
    ctl: int | None = None,
    act: int | None = None,
    select: tuple[int, int] | None = None,
) -> None:
    """tgt <- (tgt + mult * src) mod modulus: the multiply-accumulate.

    One modular add of ``(mult << j) % modulus`` per source bit j, gated
    on that bit, or under ``ctl`` on ``act`` = ctl AND the bit.
    ``select=(sel, other)`` accumulates ``other * src`` in place of
    ``mult * src`` where ``sel`` is set.
    """
    for j, bit in enumerate(src):
        addend = (mult << j) % modulus
        chosen = None if select is None else (select[0], (select[1] << j) % modulus)
        if ctl is None:
            _emit_modadd(circ, lane, tgt, addend, modulus, active=bit, select=chosen)
        else:
            circ.ccx(ctl, bit, act)
            _emit_modadd(circ, lane, tgt, addend, modulus, active=act, select=chosen)
            circ.ccx(ctl, bit, act)


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

    A multiply-accumulate adds mult*y into the zero register ``p``, a
    controlled swap exchanges ``y`` and ``p``, and a second one adds
    -mult^-1 times the new ``y`` to return ``p`` to zero.
    """
    _emit_mac(circ, lane, y, p, mult, modulus, ctl, act)
    for j in range(len(y)):
        if ctl is None:
            circ.swap(y[j], p[j])
        else:
            circ.cx(p[j], y[j])
            circ.ccx(ctl, y[j], p[j])
            circ.cx(p[j], y[j])
    _emit_mac(circ, lane, y, p, modulus - pow(mult, -1, modulus), modulus, ctl, act)


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
    inverse constant times the freshly written value.  Each lane is one
    multiply-accumulate whose ``select`` on the exponent bit picks its
    constant: 1 or c_i = base^(2^i) forward, -1 or -c_i^-1 to clear.  The
    two lanes touch disjoint scratch, so consecutive steps overlap under
    ASAP scheduling and the steady-state cost per exponent bit is one
    multiply instead of the serial form's multiply-plus-unmultiply.  After
    2n hops the value sits in block (2n) % 3, which is the one named ``r``.
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
        src, tgt = blocks[i % 3], blocks[(i + 1) % 3]
        ci = pow(x, 1 << i, N)
        _emit_mac(circ, fwd, src, tgt, 1, N, select=(e[i], ci))
        _emit_mac(circ, clr, tgt, src, N - 1, N, select=(e[i], N - pow(ci, -1, N)))
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
