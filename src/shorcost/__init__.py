"""Resource estimation and correctness checking for the reversible
arithmetic at the heart of Shor's algorithm.

The package builds modular-exponentiation circuits from a small classical
gate set, schedules them under abstract and linear-nearest-neighbor
architecture models to measure depth and concurrency, verifies their
semantics exhaustively at small widths with a basis-state oracle, and
evaluates analytic cost models to answer clock-rate and classical-quantum
crossover questions at cryptographic sizes.
"""

from .architecture import (
    AC,
    NTC,
    ArchModel,
    ConformanceReport,
    Metrics,
    check_conformance,
    decompose_toffoli,
    metrics,
    route_linear,
    verify_toffoli_identity,
)
from .arithmetic import (
    AdderKind,
    ModexpSpec,
    build_adder,
    build_const_modadd,
    build_controlled_adder,
    build_modexp,
    build_modmul_const,
)
from .circuit import Circuit, CircuitError, Gate, GateKind, Register
from .contracts import contract
from .oracle import (
    Counterexample,
    NonClassicalGateError,
    domain_size,
    exhaustive_check,
    randomized_check,
)
from .scaling import (
    ALG_D,
    ALG_F,
    BCDP,
    MODELS,
    MONTH_SECONDS,
    YEAR_SECONDS,
    BridgeRecord,
    ClassicalModel,
    QuantumModel,
    SeriesRow,
    crossover_bits,
    empirical_bridge,
    nfs_seconds,
    quantum_seconds,
    required_clock,
    series,
    speedup,
)

__version__ = "0.1.0"

__all__ = [
    "AC",
    "ALG_D",
    "ALG_F",
    "AdderKind",
    "ArchModel",
    "BCDP",
    "BridgeRecord",
    "Circuit",
    "CircuitError",
    "ClassicalModel",
    "ConformanceReport",
    "Counterexample",
    "Gate",
    "GateKind",
    "MODELS",
    "MONTH_SECONDS",
    "Metrics",
    "ModexpSpec",
    "NTC",
    "NonClassicalGateError",
    "QuantumModel",
    "Register",
    "SeriesRow",
    "YEAR_SECONDS",
    "build_adder",
    "build_const_modadd",
    "build_controlled_adder",
    "build_modexp",
    "build_modmul_const",
    "check_conformance",
    "contract",
    "crossover_bits",
    "decompose_toffoli",
    "domain_size",
    "empirical_bridge",
    "exhaustive_check",
    "metrics",
    "nfs_seconds",
    "quantum_seconds",
    "randomized_check",
    "required_clock",
    "route_linear",
    "series",
    "speedup",
    "verify_toffoli_identity",
]
