"""Hypergeometric series: exact values, oracle agreement, lower bound, symmetry."""

import math
import time

import mpmath as mp
import numpy as np
import pytest
from scipy.special import ellipk

from siwave import hypergeom
from siwave.hypergeom import DEFAULT_TOL, ConvergenceError, hyp2f1, hyp2f1_grid

# frozen from the 50-digit brute-force series oracle (see oracle_2f1 below)
F_HALF_HALF_1_HALF = 1.180340599016096226
F_HALF_HALF_1_QUARTER = 1.0731820071493643751


def oracle_2f1(a, b, c, z, dps=50):
    """Independent brute-force series summation in 50-digit arithmetic."""
    with mp.workdps(dps):
        a, b, c, z = map(mp.mpf, (a, b, c, z))
        total = mp.mpf(1)
        term = mp.mpf(1)
        for k in range(100000):
            term *= (a + k) * (b + k) / ((c + k) * (1 + k)) * z
            total += term
            if abs(term) < mp.mpf("1e-30") and k > 8:
                break
        return float(total)


def test_value_at_zero_is_exactly_one():
    for a, b, c in ((0.5, -1.3, 1.0), (2.0, 2.0, 2.0), (-3.0, 0.7, 1.5)):
        assert hyp2f1(a, b, c, 0.0) == 1.0


def test_geometric_series_case():
    assert abs(hyp2f1(1.0, 1.0, 1.0, 0.5) - 2.0) <= 1e-12
    for z in [0.1 * k for k in range(1, 10)]:
        assert abs(hyp2f1(1.0, 1.0, 1.0, z) - 1.0 / (1.0 - z)) <= 1e-12


def test_frozen_oracle_values():
    assert abs(hyp2f1(0.5, 0.5, 1.0, 0.5) - F_HALF_HALF_1_HALF) <= 1e-13
    assert abs(hyp2f1(0.5, 0.5, 1.0, 0.25) - F_HALF_HALF_1_QUARTER) <= 1e-13


def test_agreement_with_extended_precision_oracle():
    az = [-3.0, -1.5, -0.5, 0.0, 0.5, 1.5, 3.0]
    for a in az:
        for b in az:
            for c in (1.0, 2.0):
                for z in (0.05, 0.35, 0.7, 0.95):
                    got = hyp2f1(a, b, c, z)
                    want = oracle_2f1(a, b, c, z)
                    assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (a, b, c, z)


def test_symmetry_bit_exact():
    rng = np.random.default_rng(3)
    for _ in range(60):
        a, b = rng.uniform(-3, 3, size=2)
        c = float(rng.choice([1.0, 2.0, 0.5, 3.5]))
        z = float(rng.uniform(0.0, 0.97))
        assert hyp2f1(a, b, c, z) == hyp2f1(b, a, c, z)


def test_monotone_in_z_for_equal_parameters():
    zs = np.linspace(0.0, 0.95, 12)
    for a in (-1.3, -0.5, 0.25, 0.5, 2.0):
        vals = [hyp2f1(a, a, 1.0, float(z)) for z in zs]
        assert all(v1 <= v2 for v1, v2 in zip(vals, vals[1:]))


def test_lower_bound_check():
    # F(a,a;c;z) >= 1 for c > 0: a = 0.5 is gamma at delta = 0, a = 0 the
    # equality case F = 1, negative a the other side of it
    grid = [0.0, 0.3, 0.5, 0.6, 0.9, 0.99]
    for a in (-2.0, -0.5, 0.0, 0.5, 2.0):
        for c in (1.0, 2.0):
            for z in grid:
                assert hyp2f1(a, a, c, z) >= 1.0 - DEFAULT_TOL, (a, c, z)


def test_exact_lower_bound_above_half():
    # F(a,a;c;z) - 1 is about a^2 z / c, below one ulp of 1 for these a, and
    # the connection formula must not round it below 1
    zs = np.linspace(0.51, 0.999999, 25)
    for a in (1e-8, -1e-8, 1e-9):
        for c in (0.5, 1.25, 3.5):
            assert all(hyp2f1(a, a, c, float(z)) >= 1.0 for z in zs), (a, c)
            assert np.all(hyp2f1_grid(a, a, c, zs) >= 1.0), (a, c)


def test_pole_parameters_rejected():
    for c in (0.0, -1.0, -3.0):
        with pytest.raises(ValueError, match="pole"):
            hyp2f1(0.5, 0.5, c, 0.3)


def test_argument_outside_domain_rejected():
    for z in (-0.2, 1.0, 1.5):
        with pytest.raises(ValueError):
            hyp2f1(0.5, 0.5, 1.0, z)


def test_nonconvergence_reported_with_estimate():
    # c-a-b = 1 + 1e-9 is no integer, but too close to one for the connection
    # formula, so the direct series runs and cannot meet DEFAULT_TOL near z = 1;
    # the scalar and the grid paths both report the error they reached
    with pytest.raises(ConvergenceError) as info:
        hyp2f1(0.5, 0.5, 2.0 + 1e-9, 0.999999)
    assert info.value.achieved > 0
    with pytest.raises(ConvergenceError) as info:
        hyp2f1_grid(0.5, 0.5, 2.0 + 1e-9, np.array([0.3, 0.999999]))
    assert info.value.achieved > 0


@pytest.mark.parametrize("name", ["a", "b", "c"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_input_rejected(name, bad):
    args = dict(a=0.5, b=0.5, c=1.0)
    args[name] = bad
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        hyp2f1(args["a"], args["b"], args["c"], 0.3)
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        hyp2f1_grid(args["a"], args["b"], args["c"], np.array([0.3, 0.7]))


def test_term_ratio_slope_near_zero_converges():
    # a+b-c-1 = 4.4e-16: the tail bound must not wait for the sign change of
    # the ratio's linear numerator, which lies near k = 3e16
    a, b, c = -2.9008341868288254, 4.900834186828826, 1.0
    for z in (0.3, 0.7):
        want = float(mp.hyp2f1(a, b, c, z))
        assert abs(hyp2f1(a, b, c, z) - want) <= 1e-12 * max(1.0, abs(want))


def test_non_finite_argument_rejected():
    with pytest.raises(ValueError):
        hyp2f1(0.5, 0.5, 1.0, math.nan)
    with pytest.raises(ValueError):
        hyp2f1_grid(0.5, 0.5, 1.0, np.array([0.3, math.nan]))


# c-a-b = 0, 0, 1, 2, 2, -3 (logarithmic cases A&S 15.3.10-12), then 0.5 and
# 1.3 (A&S 15.3.6); the last case has c-a-b = 1 with a+1 within 1e-6 of the
# digamma pole at -3
ABOVE_HALF_PARAMS = [
    (0.5, 0.5, 1.0),
    (0.3, 1.7, 2.0),
    (0.5, 0.5, 2.0),
    (-0.5, -0.5, 1.0),
    (0.25, 0.75, 3.0),
    (1.5, 2.5, 1.0),
    (0.3, 0.45, 1.25),
    (-0.7, 1.2, 1.8),
    (-3.999999, 0.14277070845258955, -2.8572282915474103),
]
ABOVE_HALF_Z = [0.5 + 1e-9, 0.7, 0.9, 0.99, 0.999999]


@pytest.mark.parametrize("a, b, c", ABOVE_HALF_PARAMS)
def test_connection_formula_matches_mpmath(a, b, c):
    grid = hyp2f1_grid(a, b, c, np.array(ABOVE_HALF_Z))
    for z, from_grid in zip(ABOVE_HALF_Z, grid):
        want = float(mp.hyp2f1(a, b, c, z))
        got = hyp2f1(a, b, c, z)
        assert abs(got - want) <= 1e-12 * abs(want), (a, b, c, z, got, want)
        assert abs(from_grid - want) <= 1e-12 * abs(want), (a, b, c, z, from_grid, want)


def test_complete_elliptic_integral_identity():
    # F(1/2,1/2;1;z) = (2/pi) K(z), with K taking the parameter m = z
    zs = np.array([0.05, 0.3, 0.5, 0.5 + 1e-9, 0.6, 0.75, 0.9, 0.99, 0.999, 0.999999])
    want = 2.0 / math.pi * ellipk(zs)
    got = np.array([hyp2f1(0.5, 0.5, 1.0, float(z)) for z in zs])
    assert np.all(np.abs(got - want) <= 1e-13 * want)
    assert np.all(np.abs(hyp2f1_grid(0.5, 0.5, 1.0, zs) - want) <= 1e-13 * want)


def _terms(s, x):
    """The term count of series s at the point x (w on the connection formula, else z)."""
    return s.start + int(s.table.searchsorted(int(x * hypergeom._CELLS), "right"))


def test_cost_bounded_near_one():
    # the direct series would need about 10^6 terms at this z; the connection
    # formula serves it, and the direct series z = 0.3, within 100 terms
    value = hyp2f1(0.5, 0.5, 1.0, 0.999999)
    assert abs(value - 2.0 / math.pi * ellipk(0.999999)) <= 1e-13 * value
    grid = hyp2f1_grid(0.5, 0.5, 1.0, np.array([0.3, 0.999999]))
    assert abs(grid[1] - value) <= 1e-14 * value
    _, _, plan = hypergeom._canonical(0.5, 0.5, 1.0)
    assert plan.connection
    for s in plan.connection:
        assert _terms(s, 1.0 - 0.999999) <= 100
    assert _terms(plan.direct, 0.3) <= 100


def test_grid_evaluation_matches_scalar():
    zs = np.linspace(0.0, 0.95, 40)
    for a, b, c in ((0.5, 0.5, 1.0), (1.5, 1.5, 2.0), (-0.5, -0.5, 1.0)):
        grid_vals = hyp2f1_grid(a, b, c, zs)
        scalar_vals = np.array([hyp2f1(a, b, c, float(z)) for z in zs])
        assert np.max(np.abs(grid_vals - scalar_vals)) <= 1e-13


def test_terminating_series():
    # a negative-integer parameter terminates the series: F(-n,b;c;z) is a
    # polynomial, summed to its last nonzero term even where the tail test
    # alone would need about 1/(1-z) terms (z = 0.999999)
    polys = {
        (-2.0, 1.5): lambda z: (
            1.0 + (-2.0) * 1.5 / 1.0 * z + ((-2) * (-1) / 2) * (1.5 * 2.5 / (1 * 2)) * z * z
        ),
        (-1.0, -1.0): lambda z: 1.0 + z,
    }
    # z = 0.999999 lies above 1 - 2^-16, where a series that did not
    # terminate would raise at once
    zs = (0.3, 0.8, 0.999999)
    for (a, b), poly in polys.items():
        want = np.array([poly(z) for z in zs])
        got = np.array([hyp2f1(a, b, 1.0, z) for z in zs])
        assert np.max(np.abs(got - want)) <= 1e-13
        assert np.max(np.abs(hyp2f1_grid(a, b, 1.0, np.array(zs)) - want)) <= 1e-13
        _, _, plan = hypergeom._canonical(a, b, 1.0)
        assert len(plan.direct.ck) <= 10


def test_slow_convergence_near_one_still_meets_tolerance():
    # z = 0.99 with growing parameters: thousands of terms, still within budget
    got = hyp2f1(2.0, 2.0, 1.0, 0.99)
    want = (1.0 + 0.99) / (1.0 - 0.99) ** 3  # closed form for F(2,2;1;z)
    assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("a, b, z", [(-20.0, 0.5, 0.9), (-40.0, 0.5, 0.9), (-200.0, -0.5, 0.5)])
def test_direct_series_cancellation_raises(a, b, z):
    # alternating terms far larger than F: the rounding bound exceeds tol
    # (-200, -0.5; 1; 0.5) used to return 9.18e14 for mpmath's 11.32
    want = float(mp.hyp2f1(a, b, 1.0, z))
    with pytest.raises(ConvergenceError) as info:
        hyp2f1(a, b, 1.0, z)
    assert info.value.achieved > DEFAULT_TOL * max(1.0, abs(want))
    with pytest.raises(ConvergenceError):
        hyp2f1_grid(a, b, 1.0, np.array([0.1, z]))


@pytest.mark.parametrize("z", [0.3, 0.5, 0.9])
def test_direct_series_with_mild_cancellation_returns(z):
    want = float(mp.hyp2f1(-10.0, 0.5, 1.0, z))
    assert abs(hyp2f1(-10.0, 0.5, 1.0, z) - want) <= DEFAULT_TOL * max(1.0, abs(want))
    assert abs(hyp2f1_grid(-10.0, 0.5, 1.0, np.array([z]))[0] - want) <= DEFAULT_TOL * max(1.0, abs(want))


# the kernel calls, and a 15.3.6 case with two series in the connection formula
POINTWISE_PARAMS = [(0.5, 0.5, 1.0), (-0.5, -0.5, 1.0), (0.5, 0.5, 2.0), (0.3, 0.45, 1.25)]
# three blocks of the grid engine's sums, and a shuffle that mixes them
POINTWISE_Z = np.random.default_rng(17).uniform(0.0, 0.9999, 20_000)


@pytest.mark.parametrize("a, b, c", POINTWISE_PARAMS)
def test_grid_values_are_pointwise(a, b, c, monkeypatch):
    grid = hyp2f1_grid(a, b, c, POINTWISE_Z)
    single = np.array([hyp2f1_grid(a, b, c, POINTWISE_Z[i:i + 1])[0] for i in range(POINTWISE_Z.size)])
    assert grid.tobytes() == single.tobytes()
    perm = np.random.default_rng(5).permutation(POINTWISE_Z.size)
    assert hyp2f1_grid(a, b, c, POINTWISE_Z[perm]).tobytes() == grid[perm].tobytes()
    square = POINTWISE_Z[:19_600].reshape(140, 140)
    assert hyp2f1_grid(a, b, c, square).tobytes() == grid[:19_600].reshape(140, 140).tobytes()
    monkeypatch.setattr(hypergeom, "_CHUNK", 3001)  # many chunks, each with a short last block
    monkeypatch.setattr(hypergeom, "_BLOCK", 700)
    assert hyp2f1_grid(a, b, c, POINTWISE_Z).tobytes() == grid.tobytes()


@pytest.mark.parametrize("a, b, c", POINTWISE_PARAMS)
def test_scalar_and_grid_use_the_same_term_counts(a, b, c):
    # hyp2f1 is hyp2f1_grid at one point, so every value matches the grid's bit for bit
    zs = POINTWISE_Z[::10]
    scalar = np.array([hyp2f1(a, b, c, float(z)) for z in zs])
    assert scalar.tobytes() == hyp2f1_grid(a, b, c, zs).tobytes()


def _kept_terms(a, b, c):
    _, _, plan = hypergeom._canonical(a, b, c)
    return [(len(s.ck) - s.start, s.table.size) for s in (plan.direct, *plan.connection)]


def test_series_beyond_any_cell_raises_at_once():
    # c-a-b = 1 + 1e-9 is no integer, but too close to one for the connection formula, so the
    # direct series runs; no term count of a direct series that does not terminate covers
    # z >= 1 - 2^-16: the call raises with a finite estimate without summing toward MAX_TERMS,
    # and keeps no more than _KEEP terms
    a, b, c = 0.5, 0.5, 2.0 + 1e-9
    started = time.perf_counter()
    with pytest.raises(ConvergenceError) as info:
        hyp2f1(a, b, c, 0.999999)
    assert time.perf_counter() - started < 1.0
    assert 0.0 < info.value.achieved < math.inf
    for terms, table in _kept_terms(a, b, c):
        assert terms <= hypergeom._KEEP and table <= hypergeom._KEEP


def test_long_direct_series_keeps_a_bounded_cache():
    # c-a-b within 1e-9 of 1: the direct series serves z = 0.999 with about 10^4 terms, which the
    # call computes and then drops; a second call gives the same bits
    a, b, c, z = 0.5, 0.5, 2.0 + 1e-9, 0.999
    got = hyp2f1(a, b, c, z)
    assert abs(got - float(mp.hyp2f1(a, b, c, z))) <= DEFAULT_TOL * got
    for terms, table in _kept_terms(a, b, c):
        assert terms <= hypergeom._KEEP and table <= hypergeom._KEEP
    assert hyp2f1(a, b, c, z) == got
    assert hyp2f1_grid(a, b, c, np.array([0.3, z]))[1] == got


@pytest.mark.parametrize("a, b, c", POINTWISE_PARAMS[:3])
def test_kernel_parameters_match_mpmath_to_default_tol(a, b, c):
    zs = np.concatenate([np.linspace(0.0, 1.0 - 1e-7, 800), 1.0 - np.logspace(-7.0, -0.31, 400)])
    got = hyp2f1_grid(a, b, c, zs)
    with mp.workdps(30):
        want = np.array([float(mp.hyp2f1(a, b, c, z)) for z in zs])
    assert np.all(np.abs(got - want) <= DEFAULT_TOL * np.maximum(1.0, np.abs(want)))
