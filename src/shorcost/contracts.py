"""Functional contracts: the integer function each circuit kind computes.

A contract is a domain (a value sequence per input register) plus an
integer reference function, the pair that ``exhaustive_check`` and
``randomized_check`` take.  Register widths come from the circuit; the
modulus and constant come from the caller, since a circuit stores only
its structure.

When the circuit has a ``ctl`` register, ``ctl`` joins the domain last,
over all its values, and the reference asks for the identity unless
every control bit is set.
"""

from __future__ import annotations

from typing import Sequence

from .circuit import Circuit, CircuitError
from .oracle import SpecFn

__all__ = ["KINDS", "contract"]

Domain = dict[str, Sequence[int]]


def _width(circuit: Circuit, name: str) -> int:
    try:
        return circuit.register(name).length
    except KeyError:
        raise CircuitError(
            f"circuit has no register {name!r}; does --spec match the circuit?"
        ) from None


def _adder(circuit: Circuit, _modulus: None, _const: None) -> tuple[Domain, SpecFn]:
    """b <- (a + b) mod 2^n, carry_out ^= the carry out of the top bit."""
    n = _width(circuit, "a")
    full = 1 << n

    def reference(v):
        total = v["a"] + v["b"]
        return {"b": total % full, "carry_out": v["carry_out"] ^ (total >> n)}

    return {"a": range(full), "b": range(full), "carry_out": range(2)}, reference


def _modadd(circuit: Circuit, modulus: int, const: int) -> tuple[Domain, SpecFn]:
    """t <- (t + const) mod modulus, for t < modulus."""
    return {"t": range(modulus)}, lambda v: {"t": (v["t"] + const) % modulus}


def _modmul(circuit: Circuit, modulus: int, const: int) -> tuple[Domain, SpecFn]:
    """y <- (y * const) mod modulus, for y < modulus."""
    return {"y": range(modulus)}, lambda v: {"y": (v["y"] * const) % modulus}


def _modexp(circuit: Circuit, modulus: int, const: int) -> tuple[Domain, SpecFn]:
    """r <- const^e mod modulus over every 2n-bit exponent e, n = len(r)."""
    n = _width(circuit, "r")
    return {"e": range(1 << (2 * n))}, lambda v: {"r": pow(const, v["e"], modulus)}


_TABLE = {"adder": _adder, "modadd": _modadd, "modmul": _modmul, "modexp": _modexp}
KINDS = tuple(_TABLE)


def contract(
    kind: str, circuit: Circuit, modulus: int | None = None, const: int | None = None
) -> tuple[Domain, SpecFn]:
    """``(domain, reference)`` of contract ``kind`` (one of ``KINDS``) for
    ``circuit``.  The modular kinds need ``modulus >= 2`` and ``const``."""
    if kind not in _TABLE:
        raise CircuitError(f"unknown contract {kind!r} (choose from {', '.join(KINDS)})")
    if kind != "adder":
        if modulus is None or const is None:
            raise CircuitError(f"the {kind} contract needs a modulus and a constant")
        if modulus < 2:
            raise CircuitError(f"modulus must be at least 2, got {modulus}")
    domain, reference = _TABLE[kind](circuit, modulus, const)
    ctl = next((r for r in circuit.registers if r.name == "ctl"), None)
    if ctl is None:
        return domain, reference
    all_on = (1 << ctl.length) - 1
    domain["ctl"] = range(all_on + 1)
    return domain, lambda v: reference(v) if v["ctl"] == all_on else {}
