"""Closed-form cost models for factoring, classical and quantum.

The classical side is the general number field sieve, calibrated by ratio
to a fixed record point (a 530-bit factorization in one month) and scaled
by a ``compute_factor`` for more or less hardware.  The quantum side is a
set of named depth/space curves for modular-exponentiation circuits:

* ``BCDP``   depth 54 n^3, space 5n + 3 (serial ripple arithmetic),
* ``ALG_D``  depth 9 n log2(n)^2, space 2 n^2 (log-depth adders,
  many concurrent multipliers),
* ``ALG_F``  depth 20 n^2 log2(n), space 2 n^2 (ripple adders, many
  concurrent multipliers).

Everything here is a pure function of its arguments.  Wall-clock queries
(`quantum_seconds`, `required_clock`) convert between circuit depth and
time at an application-level gate rate; `crossover_bits` locates the
problem size where the quantum machine starts winning; `series` tabulates
curves for log-log plotting; `empirical_bridge` compares a model curve
against the depth the scheduler actually measures on a built circuit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .architecture import AC, ArchModel, decompose_toffoli, route_linear
from .arithmetic import AdderKind, ModexpSpec, build_modexp
from .scheduler import metrics

__all__ = [
    "MONTH_SECONDS",
    "YEAR_SECONDS",
    "ClassicalModel",
    "QuantumModel",
    "BCDP",
    "ALG_D",
    "ALG_F",
    "MODELS",
    "nfs_seconds",
    "quantum_seconds",
    "required_clock",
    "speedup",
    "crossover_bits",
    "SeriesRow",
    "series",
    "BridgeRecord",
    "empirical_bridge",
]

MONTH_SECONDS = 2_592_000.0  # 30 days
YEAR_SECONDS = 365.25 * 86_400.0

# NFS exponent constant; logarithms are natural throughout the exponent.
_NFS_K = (64.0 / 9.0) * math.log(2.0)
_ANCHOR_BITS = 530  # sieved in MONTH_SECONDS by the anchor pool (ClassicalModel)


@dataclass(frozen=True)
class ClassicalModel:
    """Number-field-sieve wall time, anchored to a fixed record run: a
    530-bit number in one month (``MONTH_SECONDS``).

    ``compute_factor`` multiplies throughput: 1.0 is the anchor machine
    pool itself, 1000.0 is a thousand times that pool.
    """

    compute_factor: float = 1.0

    def __post_init__(self) -> None:
        _check_positive("compute_factor", self.compute_factor)


def _check_positive(what: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{what} must be a positive finite number, got {value}")


def _finite_result(what: str, value: float) -> float:
    """Reject an inf or nan computed from finite inputs: a float overflow."""
    if not math.isfinite(value):
        raise ValueError(f"{what} overflows a float ({value}); the inputs are out of range")
    return value


def _nfs_exponent(n: int) -> float:
    return (_NFS_K * n * math.log(n) ** 2) ** (1.0 / 3.0)


def _sieve_seconds(model: ClassicalModel, n: int) -> float:
    """``nfs_seconds`` without its checks.  Saturates to infinity once the
    exponential leaves float range (near n = 10^6), which is what the
    crossover scan, probing that far, compares against."""
    try:
        scale = math.exp(_nfs_exponent(n) - _nfs_exponent(_ANCHOR_BITS))
    except OverflowError:
        return math.inf
    return MONTH_SECONDS * scale / model.compute_factor


def nfs_seconds(model: ClassicalModel, n: int) -> float:
    """Extrapolated sieve time in seconds for an n-bit number.

    Raises ``ValueError`` when the time does not fit a float (near
    n = 10^6 at ``compute_factor`` 1).
    """
    if n < 2:
        raise ValueError(f"bit size must be at least 2, got {n}")
    return _finite_result(f"sieve time for n={n}", _sieve_seconds(model, n))


@dataclass(frozen=True)
class QuantumModel:
    """One named depth/space curve for a modular-exponentiation design."""

    name: str
    depth: Callable[[int], float]
    space: Callable[[int], float]
    concurrency: str
    multipliers: str

    def __repr__(self) -> str:  # the callables have no useful repr
        return f"QuantumModel({self.name})"


BCDP = QuantumModel(
    name="BCDP",
    depth=lambda n: 54.0 * n**3,
    space=lambda n: 5.0 * n + 3.0,
    concurrency="2",
    multipliers="1",
)
ALG_D = QuantumModel(
    name="ALG_D",
    depth=lambda n: 9.0 * n * math.log2(n) ** 2,
    space=lambda n: 2.0 * n**2,
    concurrency="~n^2",
    multipliers="~n/4",
)
ALG_F = QuantumModel(
    name="ALG_F",
    depth=lambda n: 20.0 * n**2 * math.log2(n),
    space=lambda n: 2.0 * n**2,
    concurrency="~3n/4",
    multipliers="~n/4",
)

MODELS: dict[str, QuantumModel] = {"bcdp": BCDP, "d": ALG_D, "f": ALG_F}


def quantum_seconds(model: QuantumModel, n: int, clock_hz: float) -> float:
    """Wall seconds to run the model's circuit at the given gate rate.

    Raises ``ValueError`` on a non-finite clock and when the time does not
    fit a float.
    """
    if n < 2:
        raise ValueError(f"bit size must be at least 2, got {n}")
    _check_positive("clock", clock_hz)
    return _finite_result(
        f"{model.name} time at n={n}, {clock_hz} Hz", model.depth(n) / clock_hz
    )


def required_clock(model: QuantumModel, n: int, wall_seconds: float) -> float:
    """Gate rate needed to finish within the wall time; inverse of quantum_seconds."""
    if n < 2:
        raise ValueError(f"bit size must be at least 2, got {n}")
    _check_positive("wall time", wall_seconds)
    return _finite_result(
        f"{model.name} clock for n={n} in {wall_seconds} s", model.depth(n) / wall_seconds
    )


def speedup(q1: QuantumModel, q2: QuantumModel, n: int) -> float:
    """How many times deeper q1's circuit is than q2's at size n."""
    if n < 2:
        raise ValueError(f"bit size must be at least 2, got {n}")
    return q1.depth(n) / q2.depth(n)


_CROSSOVER_LO = 8
_CROSSOVER_HI = 1 << 20


def crossover_bits(
    model: QuantumModel, clock_hz: float, classical: ClassicalModel | None = None
) -> int | None:
    """Smallest n in [8, 2^20] where the quantum machine beats the sieve.

    Returns None when the quantum curve stays above the classical one over
    the whole range (for instance at absurdly slow clocks).  Doubling scan
    to bracket the crossing, then bisection for the first integer.
    """
    _check_positive("clock", clock_hz)
    classical = classical or ClassicalModel()

    # Both sides may overflow to infinity this far out; the comparison
    # still orders them, so the scan uses the unchecked forms.
    def wins(n: int) -> bool:
        return model.depth(n) / clock_hz < _sieve_seconds(classical, n)

    if wins(_CROSSOVER_LO):
        return _CROSSOVER_LO
    lo = _CROSSOVER_LO
    hi = lo
    while hi < _CROSSOVER_HI:
        hi = min(hi * 2, _CROSSOVER_HI)
        if wins(hi):
            break
        lo = hi
    else:
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if wins(mid):
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class SeriesRow:
    """One plotted point: a quantum row carries clock_hz, a classical row
    carries compute_factor; the other field is None."""

    n: int
    series: str
    clock_hz: float | None
    compute_factor: float | None
    seconds: float


def _grid(n_from: int, n_to: int, points: int) -> list[int]:
    if n_from < 2 or n_to < n_from or points < 1:
        raise ValueError(f"bad grid: from={n_from} to={n_to} points={points}")
    if points == 1 or n_from == n_to:
        return [n_from]
    ratio = (n_to / n_from) ** (1.0 / (points - 1))
    grid: list[int] = []
    for i in range(points):
        n = round(n_from * ratio**i)
        if not grid or n > grid[-1]:
            grid.append(n)
    return grid


def series(
    models: Sequence[QuantumModel],
    clocks: Sequence[float],
    compute_factors: Sequence[float],
    n_from: int,
    n_to: int,
    points: int,
) -> list[SeriesRow]:
    """Tabulate quantum curves (model x clock) and classical curves
    (one per compute factor) over a geometric n grid, sorted for stable
    output regardless of evaluation order."""
    grid = _grid(n_from, n_to, points)
    rows: list[SeriesRow] = []
    for model in models:
        for clock in clocks:
            for n in grid:
                rows.append(
                    SeriesRow(n, model.name, clock, None,
                              quantum_seconds(model, n, clock))
                )
    for factor in compute_factors:
        cm = ClassicalModel(compute_factor=factor)
        for n in grid:
            rows.append(SeriesRow(n, "nfs", None, factor, nfs_seconds(cm, n)))
    rows.sort(key=lambda r: (r.series, r.clock_hz or 0.0, r.compute_factor or 0.0, r.n))
    return rows


@dataclass(frozen=True)
class BridgeRecord:
    """A measured circuit depth next to the model curve it approximates."""

    measured_depth: int
    model_depth: float
    ratio: float


# Which analytic curve a built circuit is the small-n stand-in for is set
# by its concurrency first.  Serial modexp (s=1) runs one multiplier, as
# BCDP assumes, whatever its adder.  D and F assume concurrent multipliers,
# so only the two-lane pipeline (s=2) goes against them: the log-depth
# adder against D's log-latency curve, the ripple adders against F.
def _bridge_model(spec: ModexpSpec) -> QuantumModel:
    if spec.s == 1:
        return BCDP
    return ALG_D if spec.adder is AdderKind.CONDITIONAL_SUM else ALG_F


def empirical_bridge(spec: ModexpSpec, arch: ArchModel = AC) -> BridgeRecord:
    """Measure a built exponentiation circuit against its model curve.

    The ratio is reporting only; the model constants were tuned for very
    large n and a different gate accounting, so no equality is implied.
    For the linear-neighbor architecture the circuit is decomposed and
    routed first, so the measured depth includes movement cost.
    """
    circuit = build_modexp(spec)
    if arch.adjacency_required and arch.max_arity == 2:
        circuit, _ = route_linear(decompose_toffoli(circuit))
    measured = metrics(circuit).depth
    model_depth = _bridge_model(spec).depth(spec.n)
    return BridgeRecord(
        measured_depth=measured,
        model_depth=model_depth,
        ratio=measured / model_depth,
    )
