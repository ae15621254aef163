"""Grid/field plumbing and data-profile validation."""

from dataclasses import replace

import numpy as np
import pytest

from siwave.grids import GridSpec, SpacetimeField
from siwave.profiles import (
    CauchyProfile,
    SourceTerm,
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
