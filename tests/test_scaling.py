import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shorcost.architecture import AC, NTC
from shorcost.arithmetic import AdderKind, ModexpSpec
from shorcost.scaling import (
    ALG_D,
    ALG_F,
    BCDP,
    MODELS,
    MONTH_SECONDS,
    YEAR_SECONDS,
    ClassicalModel,
    crossover_bits,
    empirical_bridge,
    nfs_seconds,
    quantum_seconds,
    required_clock,
    _grid,
    series,
    speedup,
)


def test_model_table():
    assert BCDP.depth(10) == 54_000
    assert BCDP.space(576) == 5 * 576 + 3
    assert ALG_D.space(10) == ALG_F.space(10) == 200
    assert set(MODELS) == {"bcdp", "d", "f"}


def test_depth_and_space_strictly_increase():
    for model in (BCDP, ALG_D, ALG_F):
        for n in range(2, 200):
            assert model.depth(n + 1) > model.depth(n)
            assert model.space(n + 1) > model.space(n)


def test_clock_rate_anchor_values():
    assert required_clock(BCDP, 576, MONTH_SECONDS) == pytest.approx(3981.312)
    assert quantum_seconds(BCDP, 576, 1e6) == pytest.approx(10319.560704)
    assert quantum_seconds(BCDP, 576, 1.0) / YEAR_SECONDS > 300
    assert required_clock(ALG_F, 576, MONTH_SECONDS) == pytest.approx(23.475, abs=1e-3)
    assert required_clock(ALG_D, 576, MONTH_SECONDS) == pytest.approx(0.16818, abs=1e-5)


def test_clock_and_seconds_are_exact_inverses():
    for model in (BCDP, ALG_D, ALG_F):
        for n in (16, 576, 6000):
            for hz in (0.25, 1.0, 4096.0):
                assert required_clock(model, n, quantum_seconds(model, n, hz)) == hz


def test_doubling_clock_halves_seconds():
    assert quantum_seconds(BCDP, 100, 2.0) == quantum_seconds(BCDP, 100, 1.0) / 2


def test_speedup_values():
    assert speedup(BCDP, ALG_D, 6000) == pytest.approx(1.371e6, rel=1e-3)
    assert speedup(BCDP, ALG_F, 6000) == pytest.approx(1290.76, rel=1e-3)
    assert speedup(ALG_F, ALG_F, 576) == 1.0


def test_speedup_over_d_increases_with_n():
    values = [speedup(BCDP, ALG_D, n) for n in range(16, 4096, 64)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_quantum_validation():
    with pytest.raises(ValueError):
        quantum_seconds(BCDP, 1, 1.0)
    with pytest.raises(ValueError):
        quantum_seconds(BCDP, 576, 0.0)
    with pytest.raises(ValueError):
        required_clock(BCDP, 576, -5.0)
    with pytest.raises(ValueError, match="at least 2, got 1"):
        required_clock(BCDP, 1, MONTH_SECONDS)
    with pytest.raises(ValueError, match="at least 2, got 1"):
        speedup(BCDP, ALG_D, 1)


# ---------------------------------------------------------------------------
# classical model


def test_nfs_anchor_is_exact():
    assert nfs_seconds(ClassicalModel(), 530) == 2_592_000.0
    assert nfs_seconds(ClassicalModel(compute_factor=1000), 530) == 2_592.0


def test_nfs_576_takes_several_months():
    months = nfs_seconds(ClassicalModel(), 576) / MONTH_SECONDS
    assert 5.0 < months < 6.5


def test_nfs_monotone_in_n_and_factor():
    prev = 0.0
    for n in range(512, 8192 + 1, 480):
        cur = nfs_seconds(ClassicalModel(), n)
        assert cur > prev
        prev = cur
    assert nfs_seconds(ClassicalModel(compute_factor=2.0), 1024) < nfs_seconds(
        ClassicalModel(), 1024
    )


def test_nfs_validation():
    with pytest.raises(ValueError):
        nfs_seconds(ClassicalModel(), 1)
    with pytest.raises(ValueError):
        ClassicalModel(compute_factor=0.0)


# ---------------------------------------------------------------------------
# crossover


def test_crossover_at_4khz_is_below_576():
    n = crossover_bits(BCDP, 4000.0)
    assert n is not None and n <= 576


def test_crossover_at_the_low_end_of_the_range():
    # a fast enough clock wins at the smallest size scanned
    assert crossover_bits(ALG_D, 1e15) == 8


def test_crossover_none_when_clock_vanishes():
    assert crossover_bits(BCDP, 5e-324) is None


def test_crossover_non_increasing_in_clock():
    values = [crossover_bits(BCDP, hz) for hz in (1.0, 1e3, 1e6, 1e9)]
    assert all(v is not None for v in values)
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_crossover_is_the_first_winning_size():
    hz = 4000.0
    n = crossover_bits(BCDP, hz)
    cm = ClassicalModel()
    assert quantum_seconds(BCDP, n, hz) < nfs_seconds(cm, n)
    assert quantum_seconds(BCDP, n - 1, hz) >= nfs_seconds(cm, n - 1)


# ---------------------------------------------------------------------------
# series


def test_series_shape_and_order():
    rows = series([BCDP, ALG_D], [1.0, 1e6], [1.0], 512, 4096, 4)
    # 2 models x 2 clocks x 4 points + 1 classical x 4 points
    assert len(rows) == 2 * 2 * 4 + 4
    assert rows == sorted(
        rows, key=lambda r: (r.series, r.clock_hz or 0.0, r.compute_factor or 0.0, r.n)
    )
    quantum = [r for r in rows if r.series != "nfs"]
    classical = [r for r in rows if r.series == "nfs"]
    assert all(r.compute_factor is None for r in quantum)
    assert all(r.clock_hz is None for r in classical)


def test_series_empty_models_and_factors():
    assert series([], [1.0], [], 512, 4096, 4) == []


def test_series_grid_endpoints():
    rows = series([BCDP], [1.0], [], 512, 65536, 8)
    ns = sorted({r.n for r in rows})
    assert ns[0] == 512 and ns[-1] == 65536
    assert len(ns) == 8
    # geometric grid: on a power-of-two span the points are exact octaves
    assert ns == [512 << i for i in range(8)]


def _grid_by_every_point(n_from, n_to, points):
    """The grid as one pass over every point, keeping each new size."""
    if points == 1 or n_from == n_to:
        return [n_from]
    grid = []
    for i in range(points):
        n = round(n_from * (n_to / n_from) ** (i / (points - 1)))
        if not grid or n > grid[-1]:
            grid.append(n)
    return grid


@settings(max_examples=200, deadline=None)
@given(
    n_from=st.integers(2, 10**6),
    span=st.one_of(st.integers(0, 300), st.integers(0, 10**9)),
    points=st.integers(1, 5000),
)
def test_grid_equals_a_pass_over_every_point(n_from, span, points):
    n_to = n_from + span
    assert _grid(n_from, n_to, points) == _grid_by_every_point(n_from, n_to, points)


def test_grid_costs_one_search_per_size_not_one_step_per_point():
    # 10^10 points over 513 sizes: a pass over every point would run for hours
    assert _grid(512, 1024, 10**10) == list(range(512, 1025))


def test_grid_reaches_its_upper_bound_at_any_number_of_points():
    # a ratio raised to the i-th power drifts: it stopped at 997 for 10^15
    # points and at the first size for 10^16
    assert _grid(512, 1024, 10**16) == list(range(512, 1025))
    assert _grid(512, 1024, 10**15) == list(range(512, 1025))


def test_quantum_series_are_straight_in_log_log():
    rows = series([BCDP, ALG_D, ALG_F], [1.0], [], 1024, 65536, 7)
    by_model = {}
    for r in rows:
        by_model.setdefault(r.series, []).append((r.n, r.seconds))
    for name, pts in by_model.items():
        pts.sort()
        slopes = [
            (math.log(s2) - math.log(s1)) / (math.log(n2) - math.log(n1))
            for (n1, s1), (n2, s2) in zip(pts, pts[1:])
        ]
        drift = max(abs(b - a) for a, b in zip(slopes, slopes[1:]))
        assert drift <= 0.15, (name, drift)


# ---------------------------------------------------------------------------
# bridge between built circuits and the analytic curves


def test_bridge_records_measured_and_model_depth():
    rec = empirical_bridge(ModexpSpec(n=4, modulus=15, base=7, s=1), AC)
    assert rec.measured_depth == 8995
    assert rec.model_depth == BCDP.depth(4)
    assert rec.ratio == rec.measured_depth / rec.model_depth


@pytest.mark.parametrize("adder", list(AdderKind))
def test_bridge_curve_follows_concurrency(adder):
    """Serial modexp goes against BCDP whatever its adder; the two-lane
    pipeline goes against D with the log-depth adder and F otherwise."""
    base = dict(n=4, modulus=15, base=7, adder=adder)
    assert empirical_bridge(ModexpSpec(s=1, **base), AC).model_depth == BCDP.depth(4)
    concurrent = ALG_D if adder is AdderKind.CONDITIONAL_SUM else ALG_F
    assert empirical_bridge(ModexpSpec(s=2, **base), AC).model_depth == concurrent.depth(4)


def test_bridge_ntc_fixture_n8():
    """Routed depth ratio at n=8; recorded at first verified build."""
    rec = empirical_bridge(ModexpSpec(n=8, modulus=247, base=2, s=1), NTC)
    assert rec.measured_depth == 245154
    assert rec.ratio == pytest.approx(245154 / BCDP.depth(8))


def test_bridge_s2_is_shallower_on_ac():
    base = dict(n=8, modulus=247, base=2)
    d1 = empirical_bridge(ModexpSpec(s=1, **base), AC).measured_depth
    d2 = empirical_bridge(ModexpSpec(s=2, **base), AC).measured_depth
    assert d2 < d1


def test_bridge_measured_depth_is_cubic_for_serial_ripple():
    depths = {}
    for n in (4, 8, 16):
        spec = ModexpSpec(n=n, modulus=(1 << n) - 1, base=2, s=1)
        depths[n] = empirical_bridge(spec, AC).measured_depth
    for n in (4, 8):
        ratio = depths[2 * n] / depths[n] / 8.0
        assert 0.5 <= ratio <= 2.0, (n, ratio)


def test_overflowing_results_are_rejected():
    """Finite inputs whose result does not fit a float raise, as do
    non-finite inputs; nothing returns inf or nan."""
    with pytest.raises(ValueError, match="overflows"):
        quantum_seconds(BCDP, 512, 1e-320)
    with pytest.raises(ValueError, match="overflows"):
        required_clock(BCDP, 576, 1e-300)
    with pytest.raises(ValueError, match="overflows"):
        nfs_seconds(ClassicalModel(), 1 << 20)
    # a power of n too large an int for a float
    for model, n in ((BCDP, 10**110), (ALG_D, 10**400), (ALG_F, 10**400)):
        with pytest.raises(ValueError, match="overflows"):
            quantum_seconds(model, n, 1e9)
        with pytest.raises(ValueError, match="overflows"):
            required_clock(model, n, MONTH_SECONDS)
    with pytest.raises(ValueError, match="overflows"):
        speedup(BCDP, ALG_D, 10**110)
    with pytest.raises(ValueError, match="overflows"):
        speedup(ALG_D, BCDP, 10**400)
    with pytest.raises(ValueError, match="bad grid"):
        series([BCDP], [1.0], [], 512, 10**400, 8)
    with pytest.raises(ValueError, match="bad grid"):
        series([BCDP], [1.0], [], 10**400, 10**401, 2)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            quantum_seconds(BCDP, 576, bad)
        with pytest.raises(ValueError, match="finite"):
            required_clock(BCDP, 576, bad)
        with pytest.raises(ValueError, match="finite"):
            ClassicalModel(compute_factor=bad)
        with pytest.raises(ValueError, match="finite"):
            crossover_bits(BCDP, bad)
