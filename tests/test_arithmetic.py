import math

import pytest

from shorcost.architecture import metrics
from shorcost.arithmetic import (
    AdderKind,
    ModexpSpec,
    build_adder,
    build_const_modadd,
    build_controlled_adder,
    build_modexp,
    build_modmul_const,
)
from shorcost.circuit import Circuit, CircuitError, GateKind
from shorcost.contracts import contract
from shorcost.oracle import exhaustive_check, randomized_check

ALL_KINDS = list(AdderKind)


def check(c, kind, modulus=None, const=None):
    """Exhaustive check of ``c`` against its entry in the contract table."""
    domain, fn = contract(kind, c, modulus, const)
    return exhaustive_check(c, fn, domain)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_adder_exhaustive(kind, n):
    assert check(build_adder(kind, n), "adder") is None


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_adder_randomized_n8(kind, n=8):
    c = build_adder(kind, n)
    domain, fn = contract("adder", c)
    assert randomized_check(c, fn, domain, trials=1000, seed=42) is None


def test_condsum_n8_exhaustive():
    """Full 2^16 x 2 sweep of the tree adder, the least obvious construction."""
    assert check(build_adder(AdderKind.CONDITIONAL_SUM, 8), "adder") is None


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_adder_followed_by_inverse_is_identity(kind):
    c = build_adder(kind, 3)
    inv = c.inverse()
    combined = type(c)(c.width, c.registers)
    for g in c.gates + inv.gates:
        combined.append(g)

    domain, _ = contract("adder", c)
    assert exhaustive_check(combined, lambda vals: {}, domain) is None


def test_adder_uses_only_classical_gates():
    for kind in ALL_KINDS:
        census = build_adder(kind, 4).census()
        assert census[GateKind.CV] == 0 and census[GateKind.CVDAG] == 0


def test_adder_rejects_bad_width():
    with pytest.raises(CircuitError):
        build_adder(AdderKind.CDKM_RIPPLE, 0)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_controlled_adder(kind, n=3):
    assert check(build_controlled_adder(kind, n), "adder") is None


def test_adder_register_shapes():
    c = build_adder(AdderKind.CDKM_RIPPLE, 5)
    names = [r.name for r in c.registers]
    assert names[:3] == ["a", "b", "carry_out"]
    assert c.register("a").length == 5
    assert c.register("carry_out").length == 1
    # one ancilla qubit for this kind
    assert c.width == 5 + 5 + 1 + 1


# ---------------------------------------------------------------------------
# modular addition


@pytest.mark.parametrize("controlled", [0, 1, 2])
@pytest.mark.parametrize("const", [0, 1, 7, 8, 14])
def test_const_modadd_n4(const, controlled, n=4, modulus=15):
    c = build_const_modadd(n, const, modulus, controlled=controlled)
    assert check(c, "modadd", modulus, const) is None


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_const_modadd_other_adders(kind):
    assert check(build_const_modadd(4, 11, 13, adder=kind), "modadd", 13, 11) is None


def test_const_modadd_even_modulus_ok():
    # the exponentiation layer needs odd moduli, plain modadd does not
    assert check(build_const_modadd(4, 3, 12), "modadd", 12, 3) is None


def test_const_modadd_validation():
    with pytest.raises(CircuitError):
        build_const_modadd(4, 15, 15)  # constant not reduced
    with pytest.raises(CircuitError):
        build_const_modadd(4, 1, 16)  # modulus needs n+1 bits
    with pytest.raises(CircuitError):
        build_const_modadd(4, 1, 15, controlled=3)


def test_contract_rejects_bad_parameters():
    c = build_const_modadd(4, 7, 15)
    for kind, *params in (("nosuch",), ("modadd",), ("modadd", 15), ("modadd", 1, 7)):
        with pytest.raises(CircuitError):
            contract(kind, c, *params)


# ---------------------------------------------------------------------------
# modular multiplication


@pytest.mark.parametrize("controlled", [0, 1])
@pytest.mark.parametrize("const", [1, 2, 4, 7, 8, 11, 13, 14])
def test_modmul_n4(const, controlled, n=4, modulus=15):
    c = build_modmul_const(n, const, modulus, controlled=controlled)
    assert check(c, "modmul", modulus, const) is None


def test_modmul_requires_unit():
    with pytest.raises(CircuitError):
        build_modmul_const(4, 3, 15)  # gcd(3, 15) = 3
    with pytest.raises(CircuitError):
        build_modmul_const(4, 0, 15)


# ---------------------------------------------------------------------------
# modular exponentiation


@pytest.mark.parametrize("s", [1, 2])
def test_modexp_n4_all_exponents(s):
    c = build_modexp(ModexpSpec(n=4, modulus=15, base=7, s=s))
    assert check(c, "modexp", 15, 7) is None


@pytest.mark.parametrize("base", [2, 4, 8, 11, 13])
def test_modexp_other_bases(base):
    c = build_modexp(ModexpSpec(n=4, modulus=15, base=base, s=1))
    assert check(c, "modexp", 15, base) is None


def test_modexp_other_moduli_pipeline():
    for modulus, base in [(13, 6), (9, 2), (11, 7)]:
        c = build_modexp(ModexpSpec(n=4, modulus=modulus, base=base, s=2))
        cx = check(c, "modexp", modulus, base)
        assert cx is None, (modulus, base, cx)


def test_modexp_n8_all_exponents():
    """Every one of the 2^16 exponents of an 8-bit serial modexp."""
    c = build_modexp(ModexpSpec(n=8, modulus=221, base=5, s=1))
    assert check(c, "modexp", 221, 5) is None


def test_modexp_s2_is_strictly_shallower():
    base = dict(n=4, modulus=15, base=7)
    d1 = metrics(build_modexp(ModexpSpec(s=1, **base))).depth
    d2 = metrics(build_modexp(ModexpSpec(s=2, **base))).depth
    assert d2 < d1


def test_modexp_width_grows_with_s():
    w = {
        s: build_modexp(ModexpSpec(n=8, modulus=247, base=2, s=s)).width
        for s in (1, 2)
    }
    assert w[1] < w[2]


def test_modexp_spec_validation():
    with pytest.raises(CircuitError):
        ModexpSpec(n=4, modulus=16, base=7)  # even modulus
    with pytest.raises(CircuitError):
        ModexpSpec(n=4, modulus=15, base=5)  # shared factor
    with pytest.raises(CircuitError):
        ModexpSpec(n=4, modulus=15, base=1)  # base too small
    with pytest.raises(CircuitError, match="n >= 4"):
        ModexpSpec(n=3, modulus=7, base=3, s=2)  # the pipeline needs n >= 4
    for s in (0, 3, 4, 8):
        with pytest.raises(CircuitError, match=r"must be 1 \(serial\) or 2 "):
            ModexpSpec(n=8, modulus=221, base=5, s=s)
    with pytest.raises(CircuitError):
        ModexpSpec(n=4, modulus=17, base=3)  # modulus needs 5 bits
    assert ModexpSpec(n=4, modulus=15, base=7, s=2).exponent_bits == 8


@pytest.mark.parametrize("n, modulus, s", [(6, 59, 1), (16, 40009, 1), (8, 221, 2)])
def test_modexp_replays_its_repeated_blocks(monkeypatch, n, modulus, s):
    """The adder passes, constant loads and flag fix-ups of every modular
    add are recorded once and replayed, so few gates of a modexp enter one
    at a time through ``_put`` (into the build or into a recorded block).
    Emitted gate by gate, the loads and fix-ups were 11-17% of the gates."""
    put = Circuit._put
    single = 0

    def counting_put(self, code, slots):
        nonlocal single
        single += 1
        put(self, code, slots)

    monkeypatch.setattr(Circuit, "_put", counting_put)
    circ = build_modexp(ModexpSpec(n=n, modulus=modulus, base=2, s=s))
    assert single <= 0.05 * len(circ), (single, len(circ))


# ---------------------------------------------------------------------------
# depth scaling shapes (the reason three adders exist at all)


def test_cdkm_depth_scales_linearly():
    depths = {n: metrics(build_adder(AdderKind.CDKM_RIPPLE, n)).depth
              for n in (8, 16, 32, 64, 128)}
    for n in (8, 16, 32, 64):
        ratio = depths[2 * n] / depths[n]
        assert 1.7 <= ratio <= 2.3, (n, ratio)


def test_condsum_depth_scales_logarithmically():
    depths = {n: metrics(build_adder(AdderKind.CONDITIONAL_SUM, n)).depth
              for n in (8, 16, 32, 64, 128)}
    diffs = [depths[2 * n] - depths[n] for n in (8, 16, 32, 64)]
    # constant increment per doubling; measured at first verified build
    assert diffs == [20, 20, 20, 20]


def test_modexp_gate_count_is_cubic():
    gates = {}
    for n in (4, 8, 16):
        spec = ModexpSpec(n=n, modulus=(1 << n) - 1, base=2, s=1)
        gates[n] = metrics(build_modexp(spec)).total_gates
    for n in (4, 8):
        ratio = gates[2 * n] / gates[n] / 8.0
        assert 0.5 <= ratio <= 2.0, (n, ratio)


# regression fixtures from the first verified build
def test_depth_fixtures():
    assert metrics(build_adder(AdderKind.CDKM_RIPPLE, 4)).depth == 22
    assert metrics(build_adder(AdderKind.VBE_RIPPLE, 4)).depth == 24
    assert metrics(build_adder(AdderKind.CONDITIONAL_SUM, 4)).depth == 52
    spec = ModexpSpec(n=4, modulus=15, base=7, s=1)
    assert metrics(build_modexp(spec)).depth == 8995
