"""Exponent algebra: branch rules, critical curves, cusp points, lifespan rates."""

import math

import numpy as np
import pytest

from siwave.params import (
    ScaleInvariantParams,
    SystemParams,
    classify_system,
    cusp_exponents,
    fujita,
    glassey,
    lambda_curve,
    params_with_sigma,
    predicted_lifespan_exponent,
    strauss,
)


@pytest.mark.parametrize(
    "mu,nu2,expected",
    [(2.0, 0.0, 1.0), (0.0, 0.0, 1.0), (3.0, 0.75, 1.0), (1.0, 0.0, 0.0), (5.0, 4.0, 0.0)],
)
def test_delta_of(mu, nu2, expected):
    assert ScaleInvariantParams(mu, nu2).delta == expected


@pytest.mark.parametrize(
    "mu,nu2,sigma",
    [
        (2.0, 0.0, 2.0),  # delta = 1: takes the mu branch
        (0.0, 0.0, 0.0),
        (1.0, 0.0, 2.0),  # delta = 0: mu + 1 - 0
        (3.0, 0.0, 3.0),  # delta = 4 >= 1
        (5.0, 4.0, 6.0),  # delta = 0: 5 + 1
    ],
)
def test_sigma_branches(mu, nu2, sigma):
    params = ScaleInvariantParams(mu=mu, nu2=nu2)
    assert params.sigma == sigma


def test_negative_delta_rejected():
    with pytest.raises(ValueError, match="negative"):
        ScaleInvariantParams(mu=1.0, nu2=1.0)  # delta = -4


def test_negative_coefficients_rejected():
    with pytest.raises(ValueError):
        ScaleInvariantParams(mu=-0.5, nu2=0.0)
    with pytest.raises(ValueError):
        ScaleInvariantParams(mu=1.0, nu2=-0.1)


@pytest.mark.parametrize("name", ["mu", "nu2"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_coefficients_rejected(name, bad):
    args = dict(mu=2.0, nu2=0.0)
    args[name] = bad
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        ScaleInvariantParams(**args)


@pytest.mark.parametrize("name", ["p", "q"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_system_exponents_rejected(name, bad):
    comp = ScaleInvariantParams(2.0, 0.0)
    args = dict(p=1.5, q=2.0)
    args[name] = bad
    with pytest.raises(ValueError, match=f"exponent {name} must be finite"):
        SystemParams(comp, comp, **args)


def test_sigma_continuous_at_delta_one():
    # delta = 1 - h realized by mu=2, nu2=h/4; sigma -> mu as h -> 0
    at = ScaleInvariantParams(mu=2.0, nu2=0.0)
    for h in (1e-4, 1e-8):
        near = ScaleInvariantParams(mu=2.0, nu2=h / 4.0)
        assert abs(near.delta - (1.0 - h)) < 1e-15
        assert abs(near.sigma - at.sigma) <= math.sqrt(h)


@pytest.mark.parametrize("d,expected", [(3.0, 2.0), (2.0, 3.0)])
def test_glassey_values(d, expected):
    assert glassey(d) == expected


def test_glassey_rejects_low_dimension():
    with pytest.raises(ValueError):
        glassey(1.0)


@pytest.mark.parametrize("d,expected", [(1.0, 3.0), (2.0, 2.0), (4.0, 1.5)])
def test_fujita_values(d, expected):
    assert fujita(d) == expected


def test_fujita_rejects_nonpositive():
    with pytest.raises(ValueError):
        fujita(0.0)


def test_strauss_known_roots():
    # oracle: quadratic formula worked by hand
    assert abs(strauss(3.0) - (1.0 + math.sqrt(2.0))) < 1e-15
    assert abs(strauss(2.0) - (3.0 + math.sqrt(17.0)) / 2.0) < 1e-15
    with pytest.raises(ValueError):
        strauss(1.0)


def test_strauss_residual_small():
    rng = np.random.default_rng(7)
    for d in 1.0 + 9.0 * rng.random(40):
        if d <= 1.01:
            continue
        p = strauss(d)
        assert abs((d - 1) * p * p - (d + 1) * p - 2) <= 1e-12


@pytest.mark.parametrize(
    "d,p,q,expected", [(1.0, 2.0, 2.0, 1.0), (3.0, 2.0, 2.0, 0.0)]
)
def test_lambda_curve_values(d, p, q, expected):
    assert lambda_curve(d, p, q) == expected


def test_lambda_curve_rejects_pq_below_one():
    with pytest.raises(ValueError):
        lambda_curve(3.0, 0.5, 1.0)


def test_lambda_vanishes_at_glassey_point():
    for d in range(2, 11):
        pg = glassey(float(d))
        assert abs(lambda_curve(float(d), pg, pg)) <= 1e-12


def _system(sigma1, sigma2, p, q):
    return SystemParams(
        comp1=params_with_sigma(sigma1), comp2=params_with_sigma(sigma2), p=p, q=q
    )


def test_classify_cusp():
    report = classify_system(1, _system(2.0, 2.0, 2.0, 2.0))
    assert report.regime == "cusp"
    assert report.lambda1 == 0.0 and report.lambda2 == 0.0
    assert report.omega == 0.0


def test_classify_subcritical():
    report = classify_system(1, _system(0.0, 0.0, 2.0, 2.0))
    assert report.regime == "subcritical"
    assert report.omega == 1.0


def test_classify_supercritical():
    report = classify_system(3, _system(0.0, 0.0, 3.0, 3.0))
    assert report.regime == "supercritical"
    assert report.omega == -0.5


def test_classify_single_branch_critical():
    # lambda1 = 0 exactly, lambda2 < 0: n=1, sigma1=2, p=q=2 against sigma2=4
    report = classify_system(1, _system(2.0, 4.0, 2.0, 2.0))
    assert report.lambda1 == 0.0 and report.lambda2 < 0.0
    assert report.regime == "critical_branch1"


def test_cusp_exponents_symmetric_reduce_to_glassey():
    cusp = cusp_exponents(1, 2.0, 2.0)
    assert (cusp.p, cusp.q) == (2.0, 2.0)
    assert cusp.admissible
    assert cusp.p == glassey(3.0)


def test_cusp_exponents_classical():
    cusp = cusp_exponents(3, 0.0, 0.0)
    assert (cusp.p, cusp.q) == (2.0, 2.0) and cusp.admissible


def test_cusp_exponents_inadmissible_reported():
    # direct substitution: p~ = (1+2+1)/(1+4-1) = 1, q~ = (1+4+1)/(1+2-1) = 3
    cusp = cusp_exponents(1, 2.0, 4.0)
    assert cusp.p == 1.0 and cusp.q == 3.0
    assert not cusp.admissible


def test_cusp_exponents_degenerate_rejected():
    with pytest.raises(ValueError):
        cusp_exponents(1, 2.0, 0.0)  # n + sigma2 = 1


def test_cusp_zeroes_both_branches():
    rng = np.random.default_rng(11)
    count = 0
    while count < 50:
        n = int(rng.integers(1, 4))
        s1, s2 = rng.uniform(0.0, 4.0, size=2)
        if n + s1 <= 1.05 or n + s2 <= 1.05:
            continue
        cusp = cusp_exponents(n, s1, s2)
        if not cusp.admissible or cusp.p < 1.05 or cusp.q < 1.05:
            continue
        assert abs(lambda_curve(n + s1, cusp.p, cusp.q)) <= 1e-12
        assert abs(lambda_curve(n + s2, cusp.q, cusp.p)) <= 1e-12
        # both (R+y)-weights of the coupled inequalities are exactly (R+y)^(-1)
        p, q = cusp.p, cusp.q
        assert abs(-(n - 1) * (p - 1) / 2 + s1 / 2 - s2 * p / 2 + 1.0) <= 1e-12
        assert abs(-(n - 1) * (q - 1) / 2 + s2 / 2 - s1 * q / 2 + 1.0) <= 1e-12
        count += 1


@pytest.mark.parametrize(
    "mu,nu2,p,regime,rate",
    [
        (2.0, 0.0, 1.5, "algebraic", 1.0),
        (2.0, 0.0, 2.0, "exponential", 1.0),  # p = glassey(3)
        (0.0, 0.0, 1.5, "algebraic", 0.5),
    ],
)
def test_predicted_lifespan_examples(mu, nu2, p, regime, rate):
    pred = predicted_lifespan_exponent(1, ScaleInvariantParams(mu, nu2), p)
    assert pred.regime == regime
    assert pred.rate == rate


@pytest.mark.parametrize(
    "n, p, message",
    [
        (1, math.nan, "finite p > 1"),
        (1, math.inf, "finite p > 1"),
        (1, 1.0, "finite p > 1"),
        (0, 1.5, "n >= 1"),
        (-1, 1.5, "n >= 1"),
    ],
)
def test_predicted_lifespan_rejects_bad_input(n, p, message):
    with pytest.raises(ValueError, match=message):
        predicted_lifespan_exponent(n, ScaleInvariantParams(2.0, 0.0), p)


@pytest.mark.parametrize("n", [0, -2])
def test_classify_rejects_dimension_below_one(n):
    with pytest.raises(ValueError, match="n >= 1"):
        classify_system(n, _system(0.0, 0.0, 2.0, 2.0))


def test_predicted_lifespan_above_glassey():
    pred = predicted_lifespan_exponent(1, ScaleInvariantParams(2.0, 0.0), 2.5)
    assert pred.regime == "none" and pred.rate is None


def test_cusp_rate_matches_single_equation_critical_rate():
    # sigma1 = sigma2 collapses (pq-1)/(p+1) at the cusp to glassey - 1
    for n, sigma in ((1, 2.0), (3, 0.0), (2, 1.0)):
        cusp = cusp_exponents(n, sigma, sigma)
        p = cusp.p
        assert (p * p - 1.0) / (p + 1.0) == glassey(n + sigma) - 1.0


def test_params_with_sigma_round_trip():
    for sigma in (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.7):
        assert abs(params_with_sigma(sigma).sigma - sigma) < 1e-15
