"""Grid/field plumbing and data-profile validation."""

import math
from dataclasses import replace

import numpy as np
import pytest

from siwave.grids import GridSpec, SpacetimeField
from siwave.profiles import (
    CauchyProfile,
    SourceTerm,
    _node_sampler,
    bump_profile,
    smooth_bump,
    smooth_bump_derivative,
)


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(dx=0.0, cfl=0.5, x_max=1.0, t_max=1.0)
    with pytest.raises(ValueError):
        GridSpec(dx=0.1, cfl=1.5, x_max=1.0, t_max=1.0)
    with pytest.raises(ValueError):
        GridSpec(dx=0.1, cfl=0.5, x_max=-1.0, t_max=1.0)
    grid = GridSpec(dx=0.1, cfl=0.5, x_max=3.0, t_max=2.0)
    assert grid.dt == 0.05
    assert grid.n_steps() == 40
    xs = grid.xs()
    assert xs[0] == -3.0 and xs[-1] == 3.0 and len(xs) == 61
    grid.validate_cone(R=1.0)
    with pytest.raises(ValueError, match="light cone"):
        grid.validate_cone(R=1.5)


@pytest.mark.parametrize(
    "dx, x_max, t_max, R", [(0.3, 1.3, 0.3, 1.0), (0.25, 4.1, 3.0, 1.1)]
)
def test_validate_cone_checks_the_last_node(dx, x_max, t_max, R):
    # x_max = R + t_max, but the last node dx*round(x_max/dx) falls short of it
    grid = GridSpec(dx=dx, cfl=1.0, x_max=x_max, t_max=t_max)
    assert grid.xs()[-1] < R + t_max - 0.05
    with pytest.raises(ValueError, match="light cone"):
        grid.validate_cone(R)
    # a half-width one node further out holds the cone
    replace(grid, x_max=x_max + dx).validate_cone(R)


@pytest.mark.parametrize(
    "field, value", [("dx", np.nan), ("x_max", np.inf), ("t_max", np.nan), ("t_max", np.inf)]
)
def test_gridspec_rejects_non_finite(field, value):
    kwargs = dict(dx=0.1, cfl=0.5, x_max=3.0, t_max=2.0)
    kwargs[field] = value
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        GridSpec(**kwargs)


def test_field_shape_and_finiteness_checks():
    grid = GridSpec(dx=0.5, cfl=1.0, x_max=1.0, t_max=1.0)
    times = np.array([0.0, 0.5, 1.0])
    good = np.zeros((3, 5))
    SpacetimeField(grid=grid, times=times, values=good, dvalues=good.copy())
    with pytest.raises(ValueError, match="shape"):
        SpacetimeField(grid=grid, times=times, values=np.zeros((3, 4)), dvalues=good)
    bad = good.copy()
    bad[1, 2] = np.inf
    with pytest.raises(ValueError, match="finite"):
        SpacetimeField(grid=grid, times=times, values=bad, dvalues=good)
    # unordered times would make interpolate reject points inside [t0, t_last]
    for bad_times in ([0.0, 1.0, 0.5], [0.0, 0.5, 0.5], [0.0, np.nan, 1.0], [0.0, 0.5, np.inf]):
        with pytest.raises(ValueError, match="times must be finite and strictly increasing"):
            SpacetimeField(grid=grid, times=np.array(bad_times), values=good, dvalues=good)


def test_field_bilinear_interpolation():
    grid = GridSpec(dx=0.5, cfl=1.0, x_max=1.0, t_max=1.0)
    times = np.array([0.0, 0.5, 1.0])
    xs = grid.xs()
    # u(t, x) = 2t + 3x is reproduced exactly by bilinear interpolation
    values = 2.0 * times[:, None] + 3.0 * xs[None, :]
    field = SpacetimeField(grid=grid, times=times, values=values, dvalues=values.copy())
    assert field.interpolate(0.25, 0.25) == pytest.approx(2 * 0.25 + 3 * 0.25, abs=1e-15)
    assert field.interpolate(1.0, 1.0) == pytest.approx(5.0, abs=1e-15)
    with pytest.raises(ValueError, match="outside"):
        field.interpolate(1.5, 0.0)


def test_one_row_field_interpolates_in_x_at_its_time():
    # a run that blows up at its first level stores only row 0
    grid = GridSpec(dx=0.5, cfl=1.0, x_max=1.0, t_max=1.0)
    rng = np.random.default_rng(3)
    values = rng.normal(size=(2, len(grid.xs())))
    two = SpacetimeField(grid=grid, times=np.array([0.25, 0.75]), values=values, dvalues=values)
    one = SpacetimeField(
        grid=grid, times=two.times[:1], values=values[:1], dvalues=values[:1]
    )
    for x in (-1.0, -0.3, 0.0, 0.45, 1.0):
        assert one.interpolate(0.25, x) == two.interpolate(0.25, x)
    for t, x in ((0.2, 0.0), (0.3, 0.0), (0.25, 1.5)):
        with pytest.raises(ValueError, match="outside"):
            one.interpolate(t, x)


def test_one_node_field_interpolates_in_t_at_its_node():
    # x_max < dx/2 leaves the single node x = 0
    grid = GridSpec(dx=1.0, cfl=1.0, x_max=0.4, t_max=1.0)
    assert grid.xs().tolist() == [0.0]
    values = np.array([[2.0], [4.0]])
    field = SpacetimeField(grid=grid, times=np.array([0.0, 1.0]), values=values, dvalues=values)
    assert field.interpolate(0.5, 0.0) == 3.0
    assert field.interpolate(1.0, 0.0) == 4.0
    one = SpacetimeField(grid=grid, times=np.array([0.0]), values=values[:1], dvalues=values[:1])
    assert one.interpolate(0.0, 0.0) == 2.0
    for t, x in ((0.5, 0.1), (1.5, 0.0)):
        with pytest.raises(ValueError, match="outside"):
            field.interpolate(t, x)


def test_profile_support_validation():
    with pytest.raises(ValueError, match="support"):
        CauchyProfile(u0=lambda x: 1.0, u1=lambda x: 0.0, R=1.0, eps=0.1)
    with pytest.raises(ValueError):
        CauchyProfile(u0=lambda x: 0.0, u1=lambda x: 0.0, R=1.0, eps=0.0)
    prof = bump_profile(R=2.0, eps=0.1, amplitude=3.0)
    assert prof.u0(2.0) == 0.0 and prof.u0(-2.5) == 0.0
    assert prof.u0(0.0) == pytest.approx(3.0 * np.exp(-1.0))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: CauchyProfile(u0=lambda x: 0.0, u1=lambda x: 0.0, R=np.nan, eps=0.1),
         "support radius"),
        (lambda: CauchyProfile(u0=lambda x: 0.0, u1=lambda x: 0.0, R=1.0, eps=np.inf),
         "eps must be finite"),
        (lambda: bump_profile(R=np.inf, eps=0.1), "support radius"),
        (lambda: bump_profile(R=1.0, eps=np.nan), "eps must be finite"),
        (lambda: GridSpec(dx=0.1, cfl=0.5, x_max=3.0, t_max=2.0).validate_cone(np.nan),
         "support radius"),
    ],
    ids=["profile-R-nan", "profile-eps-inf", "bump-R-inf", "bump-eps-nan", "cone-R-nan"],
)
def test_non_finite_support_and_amplitude_rejected(build, message):
    # a NaN radius would otherwise size the FD window and data sampling to nothing
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize(
    "support",
    [(np.nan, 1.0, -1.0, 1.0), (0.0, 1.0, -1.0, np.nan), (0.0, 1.0, 1.0, -1.0), (2.0, 1.0, -1.0, 1.0)],
)
def test_source_support_box_validated(support):
    # the Duhamel quadrature clips its b and y ranges to this box
    with pytest.raises(ValueError, match="source support"):
        SourceTerm(f=lambda t, x: 1.0, support=support)
    SourceTerm(f=lambda t, x: 1.0, support=(0.0, np.inf, -np.inf, 1.0))


@pytest.mark.parametrize("make", [smooth_bump, smooth_bump_derivative, bump_profile])
@pytest.mark.parametrize(
    "R, amplitude, message",
    [
        (0.0, 1.0, "support radius must be finite and > 0"),
        (-1.0, 1.0, "support radius must be finite and > 0"),
        (np.nan, 1.0, "support radius must be finite and > 0"),
        (np.inf, 1.0, "support radius must be finite and > 0"),
        (1.0, np.nan, "bump amplitude must be finite"),
        (1.0, np.inf, "bump amplitude must be finite"),
        (1.0, -np.inf, "bump amplitude must be finite"),
    ],
    ids=["R-zero", "R-negative", "R-nan", "R-inf", "amplitude-nan", "amplitude-inf",
         "amplitude-minus-inf"],
)
def test_bump_rejects_bad_radius_and_amplitude(make, R, amplitude, message):
    # R = 0 would raise ZeroDivisionError only once sampled, and a NaN
    # amplitude would reach the solvers as NaN data
    with pytest.raises(ValueError, match=message):
        make(R=R, amplitude=amplitude)


def test_bump_takes_zero_and_negative_amplitudes():
    for amplitude in (0.0, -2.0):
        assert smooth_bump(1.0, amplitude)(0.0) == amplitude * math.exp(-1.0)
        assert smooth_bump_derivative(1.0, amplitude)(0.5) == (
            amplitude * smooth_bump_derivative(1.0)(0.5)
        )
        prof = bump_profile(R=1.0, eps=0.1, amplitude=amplitude)
        assert prof.u1(0.0) == amplitude * math.exp(-1.0)


def test_bump_profile_u0_zero_mode():
    ys = np.linspace(-1.0, 1.0, 101)
    prof = bump_profile(R=1.0, eps=0.1, u0_zero=True)
    assert all(prof.u0(float(y)) == 0.0 for y in ys)
    assert not all(bump_profile(R=1.0, eps=0.1).u0(float(y)) == 0.0 for y in ys)


def test_smooth_bump_derivative_matches_differences():
    bump = smooth_bump(1.5, amplitude=2.0)
    dbump = smooth_bump_derivative(1.5, amplitude=2.0)
    h = 1e-6
    for x in (-1.2, -0.4, 0.0, 0.7, 1.3):
        fd = (bump(x + h) - bump(x - h)) / (2 * h)
        assert abs(dbump(x) - fd) <= 1e-6 * (1.0 + abs(fd))


@pytest.mark.parametrize("make", [smooth_bump, smooth_bump_derivative])
@pytest.mark.parametrize("amplitude", [1.0, -2.5])
def test_bumps_on_arrays_match_scalar_calls(make, amplitude):
    R = 1.5
    sample = make(R, amplitude)
    rng = np.random.default_rng(7)
    x = np.concatenate([rng.uniform(-2.0 * R, 2.0 * R, 4000), [-R, R, 3.0 * R, -1e300, 0.0, -0.0]])
    for shape in ((len(x),), (2, len(x) // 2)):
        values = sample(x.reshape(shape))
        assert isinstance(values, np.ndarray) and values.dtype == np.float64
        assert values.shape == shape
    values = sample(x)
    scalar = np.array([sample(float(v)) for v in x])
    outside = np.abs(x) >= R
    assert np.all(values[outside] == 0.0) and not np.signbit(values[outside]).any()
    # not bit-exact: numpy's exp and math.exp differ by one ulp at about 2%
    # of these points (numpy 2.4 on an AVX-512 Xeon), so the unit bump is
    # within one ulp of its scalar value, and the amplitude and derivative
    # factors round that ulp once more (up to 2.8 eps relative here)
    bound = np.spacing(np.abs(scalar)) if (make, amplitude) == (smooth_bump, 1.0) else (
        4.0 * np.finfo(float).eps * np.abs(scalar)
    )
    assert np.all(np.abs(values - scalar) <= bound)
    assert sample(np.array(0.5)).shape == () and sample(np.array(0.5)) == pytest.approx(sample(0.5))
    assert math.isnan(sample(np.array([math.nan, 0.0]))[0]) and math.isnan(sample(math.nan))


def test_node_sampler_takes_arrays_when_the_sampler_does():
    calls = []

    def f(t, x):
        calls.append(np.shape(x))
        return np.exp(-t) * x

    sample = _node_sampler(f)
    t, x = np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0])
    assert sample(t, x).tolist() == (np.exp(-t) * x).tolist()
    assert sample(0.5, x).shape == (3,) and calls == [(3,), (3,)]
    # one node takes the per-node loop, and the array path stays open
    assert sample(np.array([1.0]), np.array([2.0])).shape == (1,)
    assert calls[2] == () and sample(t, x).shape == (3,) and calls[3] == (3,)


@pytest.mark.parametrize(
    "fn",
    [
        lambda t, x: math.exp(-t) * x,  # TypeError on arrays
        lambda t, x: max(0.0, x - t),  # ValueError on arrays
        lambda t, x: 1.0,  # a scalar
        lambda t, x: (x + t).tolist(),  # a list
        lambda t, x: (x + t).astype(np.float32),  # another dtype
        lambda t, x: np.atleast_2d(x + t),  # another shape
    ],
    ids=["type-error", "value-error", "scalar", "list", "float32", "shape"],
)
def test_node_sampler_falls_back_to_one_call_per_node(fn):
    calls = []

    def counted(t, x):
        calls.append(isinstance(x, np.ndarray))
        if not calls[-1]:
            return np.asarray(fn(np.float64(t), np.float64(x)), dtype=float).item()
        return fn(t, x)

    sample = _node_sampler(counted)
    t, x = np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.5, 3.0])
    want = [counted(a, b) for a, b in zip(t.tolist(), x.tolist())]
    calls.clear()
    assert sample(t, x).tolist() == want
    # the array path is decided once: later calls go straight to the loop
    assert sample(t, x).tolist() == want
    assert calls == [True] + [False] * 6
