"""Hypergeometric series: exact values, oracle agreement, lower bound, symmetry."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import ellipk

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
    # formula, so the direct series runs and exhausts its budget near z = 1
    with pytest.raises(ConvergenceError) as info:
        hyp2f1(0.5, 0.5, 2.0 + 1e-9, 0.999999, tol=1e-13, max_terms=2000)
    assert info.value.achieved > 0


@pytest.mark.parametrize("name", ["a", "b", "c", "tol"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_input_rejected(name, bad):
    args = dict(a=0.5, b=0.5, c=1.0, tol=1e-13)
    args[name] = bad
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        hyp2f1(args["a"], args["b"], args["c"], 0.3, tol=args["tol"])
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        hyp2f1_grid(args["a"], args["b"], args["c"], np.array([0.3, 0.7]), tol=args["tol"])


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


def test_cost_bounded_near_one():
    # the direct series would need about 10^6 terms at this z
    value = hyp2f1(0.5, 0.5, 1.0, 0.999999, max_terms=100)
    assert abs(value - 2.0 / math.pi * ellipk(0.999999)) <= 1e-13 * value
    grid = hyp2f1_grid(0.5, 0.5, 1.0, np.array([0.3, 0.999999]), max_terms=100)
    assert abs(grid[1] - value) <= 1e-14 * value


def test_grid_evaluation_matches_scalar():
    zs = np.linspace(0.0, 0.95, 40)
    for a, b, c in ((0.5, 0.5, 1.0), (1.5, 1.5, 2.0), (-0.5, -0.5, 1.0)):
        grid_vals = hyp2f1_grid(a, b, c, zs)
        scalar_vals = np.array([hyp2f1(a, b, c, float(z)) for z in zs])
        assert np.max(np.abs(grid_vals - scalar_vals)) <= 1e-13


def test_terminating_series():
    # negative-integer parameter terminates the series: F(-2,b;c;z) is a polynomial
    for z in (0.3, 0.8):
        want = 1.0 + (-2.0) * 1.5 / 1.0 * z + ((-2) * (-1) / 2) * (1.5 * 2.5 / (1 * 2)) * z * z
        assert abs(hyp2f1(-2.0, 1.5, 1.0, z) - want) <= 1e-13


def test_slow_convergence_near_one_still_meets_tolerance():
    # z = 0.99 with growing parameters: thousands of terms, still within budget
    got = hyp2f1(2.0, 2.0, 1.0, 0.99)
    want = (1.0 + 0.99) / (1.0 - 0.99) ** 3  # closed form for F(2,2;1;z)
    assert abs(got - want) <= 1e-12 * want
