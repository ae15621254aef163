"""Kernel values, the analytic b-derivative, positivity, and weighted minima."""

import math

import numpy as np
import pytest

from siwave.hypergeom import hyp2f1
from siwave.kernels import (
    KernelPoint,
    LightConeSample,
    _E_scalar,
    kernel_E,
    kernel_K0_K1,
    light_cone_sample,
    verify_kernel_lower_bounds,
)
from siwave.params import ScaleInvariantParams

P0 = ScaleInvariantParams(0.0, 0.0)  # delta = 1, gamma = 0
P1 = ScaleInvariantParams(1.0, 0.0)  # delta = 0, gamma = 1/2
P2 = ScaleInvariantParams(2.0, 0.0)  # delta = 1, gamma = 0
P3 = ScaleInvariantParams(3.0, 0.0)  # delta = 4, gamma = -1/2

# frozen from the 50-digit series oracle
F_HALF_AT_QUARTER = 1.0731820071493643751


def test_kernel_point_domain_and_zeta():
    pt = KernelPoint(t=2.0, x=0.0, b=0.5, y=1.0)
    assert 0.0 <= pt.zeta < 1.0
    expected = ((2.0 - 0.5) ** 2 - 1.0) / ((2.0 + 0.5 + 2.0) ** 2 - 1.0)
    assert abs(pt.zeta - expected) < 1e-15
    with pytest.raises(ValueError):
        KernelPoint(t=1.0, x=0.0, b=0.0, y=1.5)  # outside the cone
    with pytest.raises(ValueError):
        KernelPoint(t=1.0, x=0.0, b=1.2, y=0.0)  # b > t
    for t, x, b, y in (
        (math.nan, 0.0, 0.0, 0.0),
        (math.inf, 0.0, 0.0, 0.0),
        (1.0, 0.0, math.nan, 0.0),
        (1.0, math.nan, 0.0, 0.0),
        (1.0, 0.0, 0.0, math.nan),
        (math.inf, 0.0, 0.0, math.inf),
    ):
        with pytest.raises(ValueError, match="finite"):
            KernelPoint(t=t, x=x, b=b, y=y)
    with pytest.raises(ValueError, match="finite"):
        kernel_K0_K1(P2, math.nan, 0.0, 0.0)
    with pytest.raises(ValueError, match="finite"):
        kernel_K0_K1(P2, 1.0, 0.0, math.inf)


def test_zeta_clamped_on_the_cone():
    pt = KernelPoint(t=1.0, x=0.0, b=0.0, y=1.0)
    assert pt.zeta == 0.0
    # within rounding slack of the cone: accepted, zeta clamped to >= 0
    pt = KernelPoint(t=1.0, x=0.0, b=0.0, y=1.0 + 1e-13)
    assert pt.zeta == 0.0


def test_E_is_one_without_damping_and_mass():
    for pt in light_cone_sample(8.0, 5, 4, 4):
        assert kernel_E(P0, pt) == 1.0


def test_E_closed_form_for_mu_two():
    for pt in light_cone_sample(8.0, 5, 4, 4):
        assert abs(kernel_E(P2, pt) - (1.0 + pt.b) / (1.0 + pt.t)) <= 1e-15


def test_E_hypergeometric_point_value():
    # gamma = 1/2 at t=2, b=0, y=x: E = (16)^(-1/2) F(1/2,1/2;1;4/16)
    pt = KernelPoint(t=2.0, x=0.0, b=0.0, y=0.0)
    assert abs(kernel_E(P1, pt) - 0.25 * F_HALF_AT_QUARTER) <= 1e-13


def test_dbE_closed_forms_at_gamma_zero():
    # dE/db at b = 0 is -K0
    for t in (0.5, 2.0, 7.0):
        assert abs(-kernel_K0_K1(P2, t, 0.0, 0.3 * t)[0] - 1.0 / (1.0 + t)) <= 1e-15
        assert -kernel_K0_K1(P0, t, 0.0, 0.3 * t)[0] == 0.0


@pytest.mark.parametrize("params", [P1, P3, ScaleInvariantParams(5.0, 4.0)])
def test_dbE_matches_one_sided_difference(params):
    # 2nd-order one-sided stencil in b (centered would leave the domain)
    h = 1e-5
    rng = np.random.default_rng(5)
    for _ in range(25):
        t = rng.uniform(0.3, 10.0)
        w = rng.uniform(-0.9, 0.9) * (t - 3 * h)
        analytic = -kernel_K0_K1(params, t, 0.0, w)[0]
        fd = (
            -3.0 * _E_scalar(params, t, 0.0, w)
            + 4.0 * _E_scalar(params, t, h, w)
            - _E_scalar(params, t, 2 * h, w)
        ) / (2.0 * h)
        assert abs(analytic - fd) <= 1e-8 * max(1.0, abs(analytic))


def test_K0_K1_closed_forms():
    for t in (0.5, 2.0, 7.0):
        k0, k1 = kernel_K0_K1(P2, t, 0.0, 0.2)
        assert abs(k0 + 1.0 / (1.0 + t)) <= 1e-15
        assert abs(k1 - 1.0 / (1.0 + t)) <= 1e-15
        assert kernel_K0_K1(P0, t, 0.0, 0.2) == (0.0, 1.0)


def test_K1_equals_E_at_b_zero_bitwise():
    for params in (P1, P2, P3):
        for t, y in ((0.7, 0.3), (4.0, -2.2), (12.0, 6.0)):
            _, k1 = kernel_K0_K1(params, t, 0.0, y)
            assert k1 == kernel_E(params, KernelPoint(t=t, x=0.0, b=0.0, y=y))


def test_K1_hypergeometric_point_value():
    _, k1 = kernel_K0_K1(P1, 2.0, 0.0, 0.0)
    assert abs(k1 - 0.25 * F_HALF_AT_QUARTER) <= 1e-13


@pytest.mark.parametrize(
    "params",
    [P0, P1, P2, P3, ScaleInvariantParams(5.0, 4.0)],
)
def test_E_positive_on_domain(params):
    sample = light_cone_sample(15.0, 8, 6, 6)
    assert all(kernel_E(params, pt) > 0.0 for pt in sample)


def test_weighted_minima_exact_for_mu_two():
    report = verify_kernel_lower_bounds(P2, light_cone_sample(20.0, 10, 6, 6))
    assert report.c_K1 == 1.0 and report.c_E == 1.0 and report.c_mix == 1.0


def test_weighted_minima_exact_for_free_wave():
    report = verify_kernel_lower_bounds(P0, light_cone_sample(20.0, 10, 6, 6))
    assert report.c_K1 == 1.0 and report.c_E == 1.0
    # no damping: the mixed combination K0 + mu*K1 vanishes identically,
    # so its empirical minimum is exactly zero (its constant scales with mu)
    assert report.c_mix == 0.0


def test_weighted_minima_positive_for_mu_three():
    report = verify_kernel_lower_bounds(P3, light_cone_sample(20.0, 12, 8, 8))
    assert report.c_K1 > 0.0 and report.c_E > 0.0
    assert report.c_mix is not None and report.c_mix > 0.0
    assert report.all_positive


def test_mixed_bound_skipped_below_delta_one():
    report = verify_kernel_lower_bounds(P1, light_cone_sample(10.0, 6, 4, 4))
    assert report.c_mix is None
    assert report.c_K1 > 0.0 and report.c_E > 0.0


def test_empty_sample_rejected():
    with pytest.raises(ValueError):
        verify_kernel_lower_bounds(P2, [])


def test_cone_distance_inequality():
    # 4(t+1) <= (t+2)^2 - w^2 <= (t+2)^2 for |w| <= t
    rng = np.random.default_rng(9)
    for _ in range(200):
        t = rng.uniform(0.0, 30.0)
        w = rng.uniform(-t, t) if t > 0 else 0.0
        dist = (t + 2.0) ** 2 - w * w
        assert 4.0 * (t + 1.0) <= dist + 1e-12
        assert dist <= (t + 2.0) ** 2


def test_delta_one_degeneracy_reduces_to_powers():
    # any delta = 1 bundle: hypergeometric factors equal 1, pure power product
    for mu in (0.0, 2.0, 3.0):
        nu2 = ((mu - 1.0) ** 2 - 1.0) / 4.0
        if nu2 < 0:
            continue
        params = ScaleInvariantParams(mu, nu2)
        assert params.delta == 1.0 and params.gamma == 0.0
        for pt in light_cone_sample(6.0, 4, 3, 3):
            direct = (1.0 + pt.t) ** (-0.5 * mu) * (1.0 + pt.b) ** (0.5 * mu)
            value = kernel_E(params, pt)
            assert abs(value - direct) <= 1e-14 * abs(direct)


def test_E_monotone_z_dependence_enters_through_F():
    # with gamma != 0 the F factor exceeds 1 strictly inside the cone
    pt_inside = KernelPoint(t=4.0, x=0.0, b=1.0, y=0.0)
    base = (1.0 + pt_inside.t) ** (-0.5 + 0.5) * (1.0 + pt_inside.b) ** (0.5 + 0.5) * (
        (pt_inside.t + pt_inside.b + 2.0) ** 2
    ) ** -0.5
    assert kernel_E(P1, pt_inside) > base
    assert abs(kernel_E(P1, pt_inside) / base - hyp2f1(0.5, 0.5, 1.0, pt_inside.zeta)) <= 1e-13


@pytest.mark.parametrize(
    "args",
    [
        dict(t_max=8.0, n_t=5, n_b=4, n_y=3),
        dict(t_max=80.0, n_t=7, n_b=6, n_y=5, t_min=0.31, x=-2.7),
    ],
    ids=["origin", "shifted"],
)
def test_sample_columns_match_a_point_loop_bitwise(args):
    t_min, x = args.get("t_min", 0.0), args.get("x", 0.0)
    rows = []
    for t in np.linspace(t_min, args["t_max"], args["n_t"] + 1)[1:]:
        for fb in np.linspace(0.0, 1.0, args["n_b"] + 2)[1:-1]:
            b = fb * t
            for fy in np.linspace(-1.0, 1.0, args["n_y"] + 2)[1:-1]:
                rows.append((t, b, x + fy * (t - b)))
    sample = light_cone_sample(**args)
    assert isinstance(sample, LightConeSample)
    assert sample.x == x
    want = np.array(rows)
    for k, name in enumerate(("t", "b", "y")):
        assert getattr(sample, name).tobytes() == want[:, k].tobytes(), name


def test_sample_len_truthiness_and_iteration():
    sample = light_cone_sample(6.0, 4, 3, 2, t_min=0.5, x=1.25)
    assert len(sample) == 24 and sample
    empty = np.empty(0)
    assert not LightConeSample(t=empty, b=empty.copy(), y=empty.copy(), x=0.0)
    points = list(sample)
    assert len(points) == 24 and all(isinstance(pt, KernelPoint) for pt in points)
    for k in (0, 7, 23):
        pt = points[k]
        assert (pt.t, pt.x, pt.b, pt.y) == (sample.t[k], 1.25, sample.b[k], sample.y[k])
        assert pt.zeta == KernelPoint(t=pt.t, x=pt.x, b=pt.b, y=pt.y).zeta
        assert 0.0 <= pt.zeta < 1.0


def test_sample_is_hashable_and_read_only():
    sample = light_cone_sample(6.0, 4, 3, 2)
    assert sample == sample and {sample: 1}[sample] == 1
    assert sample != light_cone_sample(6.0, 4, 3, 2)
    with pytest.raises(ValueError, match="read-only"):
        sample.y[0] = 0.0


@pytest.mark.parametrize("t_max, x", [(math.nan, 0.0), (math.inf, 0.0), (5.0, math.nan)])
def test_sample_rejects_non_finite_bounds(t_max, x):
    with pytest.raises(ValueError, match="finite"):
        light_cone_sample(t_max, 2, 2, 2, x=x)
    # counts below 1 and an empty or reversed time range name their field
    for counts, field in (((0, 2, 2), "n_t"), ((-1, 2, 2), "n_t"), ((-3, 2, 2), "n_t"),
                          ((2, 0, 2), "n_b"), ((2, 2, 0), "n_y")):
        with pytest.raises(ValueError, match=field):
            light_cone_sample(5.0, *counts)
    for t_min, t_hi in ((2.0, 1.0), (1.0, 1.0)):
        with pytest.raises(ValueError, match="t_max > t_min"):
            light_cone_sample(t_hi, 2, 2, 2, t_min=t_min)
