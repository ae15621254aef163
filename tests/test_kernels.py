"""Kernel values, the analytic b-derivative, positivity, and weighted minima."""

import math

import numpy as np
import pytest

from siwave.hypergeom import hyp2f1
from siwave.kernels import (
    KernelPoint,
    LightConeSample,
    _data_kernels,
    _distance,
    _E,
    _zeta,
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


def _cols(*values):
    """Float arrays, at least 1-d, that broadcast against each other."""
    return tuple(np.atleast_1d(np.asarray(v, dtype=float)) for v in values)


def _zeta_at(t, b, w):
    t, b, w = _cols(t, b, w)
    return _zeta(t - b, w, _distance(t + b + 2.0, w))


def _E_at(params, t, b, w):
    return _E(params, *_cols(t, b, w))


def _K0_K1(params, t, w):
    """(K0, K1) columns: K0 = (K0 + mu*K1) - mu*K1."""
    mix, k1 = _data_kernels(params, *_cols(t, w))
    return mix - params.mu * k1, k1


def _sample_E(params, sample):
    return _E(params, sample.t, sample.b, sample.y - sample.x)


def test_kernel_point_domain_and_zeta():
    KernelPoint(t=2.0, x=0.0, b=0.5, y=1.0)
    zeta = _zeta_at(2.0, 0.5, 1.0)[0]
    assert 0.0 <= zeta < 1.0
    expected = ((2.0 - 0.5) ** 2 - 1.0) / ((2.0 + 0.5 + 2.0) ** 2 - 1.0)
    assert abs(zeta - expected) < 1e-15
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


def test_zeta_clamped_on_the_cone():
    # on the cone, and within rounding slack of it (accepted as a point):
    # zeta is clamped to >= 0
    KernelPoint(t=1.0, x=0.0, b=0.0, y=1.0 + 1e-13)
    assert _zeta_at([1.0, 1.0], [0.0, 0.0], [1.0, 1.0 + 1e-13]).tolist() == [0.0, 0.0]


def test_E_is_one_without_damping_and_mass():
    assert (_sample_E(P0, light_cone_sample(8.0, 5, 4, 4)) == 1.0).all()


def test_E_closed_form_for_mu_two():
    sample = light_cone_sample(8.0, 5, 4, 4)
    closed = (1.0 + sample.b) / (1.0 + sample.t)
    assert np.abs(_sample_E(P2, sample) - closed).max() <= 1e-15


def test_E_hypergeometric_point_value():
    # gamma = 1/2 at t=2, b=0, y=x: E = (16)^(-1/2) F(1/2,1/2;1;4/16)
    assert abs(_E_at(P1, 2.0, 0.0, 0.0)[0] - 0.25 * F_HALF_AT_QUARTER) <= 1e-13


def test_dbE_closed_forms_at_gamma_zero():
    # dE/db at b = 0 is -K0
    t = np.array([0.5, 2.0, 7.0])
    assert np.abs(-_K0_K1(P2, t, 0.3 * t)[0] - 1.0 / (1.0 + t)).max() <= 1e-15
    assert (-_K0_K1(P0, t, 0.3 * t)[0] == 0.0).all()


@pytest.mark.parametrize("params", [P1, P3, ScaleInvariantParams(5.0, 4.0)])
def test_dbE_matches_one_sided_difference(params):
    # 2nd-order one-sided stencil in b (centered would leave the domain)
    h = 1e-5
    rng = np.random.default_rng(5)
    points = []
    for _ in range(25):
        t = rng.uniform(0.3, 10.0)
        points.append((t, rng.uniform(-0.9, 0.9) * (t - 3 * h)))
    t, w = np.array(points).T
    analytic = -_K0_K1(params, t, w)[0]
    fd = (
        -3.0 * _E_at(params, t, 0.0, w)
        + 4.0 * _E_at(params, t, h, w)
        - _E_at(params, t, 2 * h, w)
    ) / (2.0 * h)
    assert (np.abs(analytic - fd) <= 1e-8 * np.maximum(1.0, np.abs(analytic))).all()


def test_K0_K1_closed_forms():
    t = np.array([0.5, 2.0, 7.0])
    k0, k1 = _K0_K1(P2, t, 0.2)
    assert np.abs(k0 + 1.0 / (1.0 + t)).max() <= 1e-15
    assert np.abs(k1 - 1.0 / (1.0 + t)).max() <= 1e-15
    k0, k1 = _K0_K1(P0, t, 0.2)
    assert (k0 == 0.0).all() and (k1 == 1.0).all()


def test_K1_equals_E_at_b_zero_bitwise():
    t, y = np.array([(0.7, 0.3), (4.0, -2.2), (12.0, 6.0)]).T
    for params in (P1, P2, P3):
        _, k1 = _K0_K1(params, t, y)
        assert k1.tobytes() == _E_at(params, t, 0.0, y).tobytes()


def test_K1_of_a_whole_sample_equals_E_on_its_slices_bitwise():
    # a kernel value is a function of its point alone: the same points give
    # the same bits in one array pass and in three separate passes
    sample = light_cone_sample(40.0, 30, 30, 30)
    t, w = sample.t, sample.y - sample.x
    for params in (P1, P3):
        _, k1 = _data_kernels(params, t, w)
        parts = [_E(params, t[s], 0.0, w[s]) for s in np.array_split(np.arange(t.size), 3)]
        assert k1.tobytes() == np.concatenate(parts).tobytes()


def test_K1_hypergeometric_point_value():
    _, k1 = _K0_K1(P1, 2.0, 0.0)
    assert abs(k1[0] - 0.25 * F_HALF_AT_QUARTER) <= 1e-13


@pytest.mark.parametrize(
    "params",
    [P0, P1, P2, P3, ScaleInvariantParams(5.0, 4.0)],
)
def test_E_positive_on_domain(params):
    assert (_sample_E(params, light_cone_sample(15.0, 8, 6, 6)) > 0.0).all()


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
        sample = light_cone_sample(6.0, 4, 3, 3)
        direct = (1.0 + sample.t) ** (-0.5 * mu) * (1.0 + sample.b) ** (0.5 * mu)
        value = _sample_E(params, sample)
        assert (np.abs(value - direct) <= 1e-14 * np.abs(direct)).all()


def test_E_monotone_z_dependence_enters_through_F():
    # with gamma != 0 the F factor exceeds 1 strictly inside the cone
    t, b, w = 4.0, 1.0, 0.0
    base = (1.0 + t) ** (-0.5 + 0.5) * (1.0 + b) ** (0.5 + 0.5) * ((t + b + 2.0) ** 2) ** -0.5
    value = _E_at(P1, t, b, w)[0]
    assert value > base
    assert abs(value / base - hyp2f1(0.5, 0.5, 1.0, _zeta_at(t, b, w)[0])) <= 1e-13


def _mirrored_fractions(n):
    """Interior fractions of [-1, 1]: linspace's upper half, its negation
    below, and 0.0 in the centre for odd n."""
    upper = np.linspace(-1.0, 1.0, n + 2)[1:-1][(n + 1) // 2:].tolist()
    return [-f for f in reversed(upper)] + [0.0] * (n % 2) + upper


@pytest.mark.parametrize(
    "args",
    [
        dict(t_max=8.0, n_t=5, n_b=4, n_y=3),
        dict(t_max=8.0, n_t=5, n_b=4, n_y=4),
        dict(t_max=80.0, n_t=7, n_b=6, n_y=5, t_min=0.31, x=-2.7),
    ],
    ids=["origin", "origin-even", "shifted"],
)
def test_sample_columns_match_a_point_loop_bitwise(args):
    t_min, x = args.get("t_min", 0.0), args.get("x", 0.0)
    rows = []
    for t in np.linspace(t_min, args["t_max"], args["n_t"] + 1)[1:]:
        for fb in np.linspace(0.0, 1.0, args["n_b"] + 2)[1:-1]:
            b = fb * t
            for fy in _mirrored_fractions(args["n_y"]):
                rows.append((t, b, x + fy * (t - b)))
    sample = light_cone_sample(**args)
    assert isinstance(sample, LightConeSample)
    assert sample.x == x
    want = np.array(rows)
    for k, name in enumerate(("t", "b", "y")):
        assert getattr(sample, name).tobytes() == want[:, k].tobytes(), name
    if x == 0.0:
        # each row's y - x values come in exact +- pairs
        w = (sample.y - sample.x).reshape(-1, args["n_y"])
        assert np.array_equal(w, -w[:, ::-1])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 50, 51])
def test_y_fractions_are_mirror_exact_and_within_an_ulp_of_linspace(n):
    # t = 2, b = 1: the row's y values are the fractions themselves
    frac = light_cone_sample(2.0, 1, 1, n).y
    old = np.linspace(-1.0, 1.0, n + 2)[1:-1]
    assert np.array_equal(frac, -frac[::-1]) and (n % 2 == 0 or frac[n // 2] == 0.0)
    assert frac[(n + 1) // 2:].tobytes() == old[(n + 1) // 2:].tobytes()
    assert np.abs(frac - old).max() <= 2.2205e-16


def _full_minima(params, sample):
    """The weighted minima of every point of the sample, one array pass."""
    t, b, w, sig = sample.t, sample.b, sample.y - sample.x, params.sigma
    mix, k1 = _data_kernels(params, t, w, weight=sig)
    c_mix = float(np.min(mix)) if params.delta >= 1.0 else None
    return float(np.min(k1)), float(np.min(_E(params, t, b, w, weight=sig))), c_mix


def _unmirrored_sample():
    """Rows of four points with one (t, b) each, y - x not in +- pairs."""
    t = np.repeat([2.0, 5.0, 9.0], 4)
    b = np.repeat([0.5, 1.0, 4.0], 4)
    w = np.tile([-0.9, -0.3, 0.3, 0.6], 3) * (t - b)
    return LightConeSample(t=t, b=b, y=w, x=0.0)


SAMPLES = {
    "origin-even": (lambda: light_cone_sample(20.0, 10, 6, 6), 6),
    "origin-odd": (lambda: light_cone_sample(20.0, 10, 6, 7), 7),
    "shifted": (lambda: light_cone_sample(80.0, 7, 6, 5, t_min=0.31, x=-2.7), 0),
    "one-y": (lambda: light_cone_sample(20.0, 10, 6, 1), 0),
    "unmirrored": (_unmirrored_sample, 0),
}
BUNDLES = [P0, P1, P2, P3, ScaleInvariantParams(5.0, 4.0)]


@pytest.mark.parametrize("name", list(SAMPLES))
@pytest.mark.parametrize("params", BUNDLES, ids=lambda p: f"mu{p.mu:g}_nu2{p.nu2:g}")
def test_bounds_equal_minima_over_every_point_bitwise(name, params):
    build, row = SAMPLES[name]
    sample = build()
    report = verify_kernel_lower_bounds(params, sample)
    # only mirror-exact rows are halved; other samples are evaluated in full
    assert sample._mirror_row == row
    assert (report.c_K1, report.c_E, report.c_mix) == _full_minima(params, build())
    assert report.n_points == len(sample)


@pytest.mark.parametrize(
    "bundles",
    [[(1.0, 0.0), (5.0, 4.0), (4.0, 2.25)], [(0.0, 0.0), (2.0, 0.0)]],
    ids=["delta0", "delta1"],
)
def test_weighted_K1_and_E_depend_on_gamma_and_branch_only(bundles):
    # fresh samples, so no minima are shared between the bundles
    minima = set()
    for mu, nu2 in bundles:
        report = verify_kernel_lower_bounds(
            ScaleInvariantParams(mu, nu2), light_cone_sample(30.0, 12, 8, 8)
        )
        minima.add((report.c_K1, report.c_E))
    assert len(minima) == 1


def test_remembered_minima_equal_fresh_ones_and_hold_no_arrays():
    sample = light_cone_sample(30.0, 12, 8, 9)
    for mu, nu2 in ((1.0, 0.0), (5.0, 4.0), (4.0, 2.25), (0.0, 0.0), (2.0, 0.0), (3.0, 0.0)):
        params = ScaleInvariantParams(mu, nu2)
        got = verify_kernel_lower_bounds(params, sample)
        fresh = verify_kernel_lower_bounds(params, light_cone_sample(30.0, 12, 8, 9))
        assert got == fresh
    # one entry per (gamma, e_t, e_b): gamma = 1/2, 0 and -1/2
    assert len(sample._minima) == 3
    assert all(type(v) is float for pair in sample._minima.values() for v in pair)
    kept = {k: v for k, v in vars(sample).items() if k not in ("t", "b", "y", "x")}
    assert set(kept) == {"_mirror_row", "_minima"} and type(kept["_mirror_row"]) is int


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


@pytest.mark.parametrize("count", [2.5, 2.0, True, np.bool_(True), "3", None])
def test_sample_counts_must_be_integers(count):
    for counts, field in (((count, 2, 2), "n_t"), ((2, count, 2), "n_b"), ((2, 2, count), "n_y")):
        with pytest.raises(ValueError, match=f"{field} must be an integer >= 1"):
            light_cone_sample(5.0, *counts)


def test_sample_accepts_numpy_integer_counts():
    sample = light_cone_sample(5.0, np.int64(3), np.int32(2), np.uint8(2))
    assert len(sample) == 12
    assert np.array_equal(sample.y, light_cone_sample(5.0, 3, 2, 2).y)
    # counts near the top of a small integer type do not wrap around
    for counts in ((np.uint8(255), 1, 1), (1, np.uint8(254), 1), (1, 1, np.uint8(255))):
        assert len(light_cone_sample(5.0, *counts)) == int(np.prod(counts, dtype=int))
