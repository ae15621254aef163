"""Representation-formula solver against closed-form oracles."""

import math

import mpmath
import numpy as np
import pytest
from helpers import dalembert, poly_profile, transformed_mu2

from siwave.grids import GridSpec
from siwave import linear
from siwave.linear import QuadratureError, _b_pieces, solve_linear_field, solve_linear_point
from siwave.params import ScaleInvariantParams
from siwave.profiles import CauchyProfile, SourceTerm, bump_profile, smooth_bump, zero_source

P0 = ScaleInvariantParams(0.0, 0.0)
P2 = ScaleInvariantParams(2.0, 0.0)
QTOL = 1e-9


def test_dalembert_degeneration():
    data = poly_profile(eps=0.3)
    rng = np.random.default_rng(17)
    for _ in range(40):
        t = float(rng.uniform(0.0, 5.0))
        x = float(rng.uniform(-6.0, 6.0))
        u = solve_linear_point(P0, data, zero_source(), t, x, qtol=QTOL)
        assert abs(u - dalembert(t, x, 0.3)) <= QTOL


def test_mu2_liouville_transform():
    data = poly_profile(eps=0.3)
    rng = np.random.default_rng(23)
    for _ in range(40):
        t = float(rng.uniform(0.0, 5.0))
        x = float(rng.uniform(-6.0, 6.0))
        u = solve_linear_point(P2, data, zero_source(), t, x, qtol=QTOL)
        assert abs(u - transformed_mu2(t, x, 0.3)) <= QTOL


def test_zero_data_zero_source_gives_zero():
    data = CauchyProfile(u0=lambda x: 0.0, u1=lambda x: 0.0, R=1.0, eps=1.0)
    for params in (P0, P2, ScaleInvariantParams(1.0, 0.0)):
        for t, x in ((0.0, 0.0), (1.5, 0.3), (4.0, -2.0)):
            assert solve_linear_point(params, data, zero_source(), t, x, qtol=QTOL) == 0.0


def test_initial_time_returns_initial_data():
    data = poly_profile(eps=0.7)
    for x in (-0.5, 0.0, 0.8, 2.0):
        u = solve_linear_point(P2, data, zero_source(), 0.0, x, qtol=QTOL)
        assert abs(u - 0.7 * data.u0(x)) <= 1e-15


def test_linearity_in_data_amplitude():
    params = ScaleInvariantParams(1.0, 0.0)
    small = poly_profile(eps=0.1, u0_zero=True)
    large = poly_profile(eps=0.4, u0_zero=True)
    for t, x in ((1.0, 0.2), (2.5, -1.0)):
        u1 = solve_linear_point(params, small, zero_source(), t, x, qtol=QTOL)
        u4 = solve_linear_point(params, large, zero_source(), t, x, qtol=QTOL)
        assert abs(u4 - 4.0 * u1) <= 8.0 * QTOL


def test_additivity_in_source():
    params = ScaleInvariantParams(1.0, 0.0)
    data = CauchyProfile(u0=lambda x: 0.0, u1=lambda x: 0.0, R=1.0, eps=1.0)

    def f1(t, x):
        return math.exp(-t) * max(0.0, 1.0 - x * x) ** 2

    def f2(t, x):
        return math.cos(t) * max(0.0, 1.0 - x * x) ** 3

    box = (0.0, math.inf, -1.0, 1.0)
    s1 = SourceTerm(f=f1, support=box)
    s2 = SourceTerm(f=f2, support=box)
    s12 = SourceTerm(f=lambda t, x: f1(t, x) + f2(t, x), support=box)
    for t, x in ((1.0, 0.0), (2.0, 0.7)):
        a = solve_linear_point(params, data, s1, t, x, qtol=QTOL)
        b = solve_linear_point(params, data, s2, t, x, qtol=QTOL)
        c = solve_linear_point(params, data, s12, t, x, qtol=QTOL)
        assert abs(c - (a + b)) <= 4.0 * QTOL


def test_support_containment():
    data = poly_profile(eps=0.5)
    for params in (P0, P2, ScaleInvariantParams(1.0, 0.0)):
        for t in (0.5, 2.0):
            for x in (data.R + t + 0.01, -(data.R + t + 0.01), data.R + t + 3.0):
                u = solve_linear_point(params, data, zero_source(), t, x, qtol=QTOL)
                assert abs(u) <= QTOL


def test_field_zero_everywhere_for_zero_input():
    data = CauchyProfile(u0=lambda x: 0.0, u1=lambda x: 0.0, R=1.0, eps=1.0)
    grid = GridSpec(dx=0.25, cfl=0.8, x_max=3.0, t_max=1.0)
    field = solve_linear_field(P2, data, zero_source(), grid, qtol=QTOL)
    assert np.all(field.values == 0.0)
    assert np.all(field.dvalues == 0.0)


def test_field_matches_closed_form_and_finite_speed():
    data = poly_profile(eps=0.3)
    grid = GridSpec(dx=0.125, cfl=0.8, x_max=3.5, t_max=2.0)
    field = solve_linear_field(P0, data, zero_source(), grid, qtol=QTOL)
    dt = grid.dt
    for i, t in enumerate(field.times):
        for j, x in enumerate(field.xs):
            exact = dalembert(float(t), float(x), 0.3)
            assert abs(field.values[i, j] - exact) <= QTOL
            if abs(x) > data.R + t + grid.dx:
                assert abs(field.values[i, j]) <= QTOL
    # u_t rows: centered differencing error is O(dt^2) on the smooth part
    mid = len(field.times) // 2
    t = float(field.times[mid])
    for j, x in enumerate(field.xs):
        fd_exact = (dalembert(t + dt, float(x), 0.3) - dalembert(t - dt, float(x), 0.3)) / (2 * dt)
        assert abs(field.dvalues[mid, j] - fd_exact) <= 1e-6


def test_field_csv_schema(tmp_path):
    data = poly_profile(eps=0.3)
    grid = GridSpec(dx=0.5, cfl=1.0, x_max=2.0, t_max=1.0)
    field = solve_linear_field(P0, data, zero_source(), grid, qtol=QTOL)
    path = tmp_path / "field.csv"
    field.to_csv(str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x,u,ut"
    assert len(lines) == 1 + len(field.times) * len(field.xs)
    t, x, u, ut = lines[1].split(",")
    assert float(t) == field.times[0] and float(x) == field.xs[0]
    # 17 significant digits round-trip binary64 exactly
    assert float(u) == field.values[0, 0] and float(ut) == field.dvalues[0, 0]


def test_duhamel_term_against_fd_is_covered_elsewhere():
    # the source path is validated by order-of-convergence tests in test_fd;
    # here just check it runs and is finite for a gamma != 0 bundle
    params = ScaleInvariantParams(1.0, 0.0)
    data = CauchyProfile(u0=lambda x: 0.0, u1=lambda x: 0.0, R=1.0, eps=1.0)
    src = SourceTerm(
        f=lambda t, x: math.exp(-2 * t) * max(0.0, 1.0 - x * x) ** 4,
        support=(0.0, math.inf, -1.0, 1.0),
    )
    u = solve_linear_point(params, data, src, 1.0, 0.25, qtol=QTOL)
    assert math.isfinite(u) and u > 0.0


def _data_term_oracle(params, data, t, x):
    """u(t,x) for a zero source, with the kernels and the integral in mpmath.

    K1 = E(b=0) from mpmath's hyp2f1 and K0 = -dE/db at b=0 by mpmath's
    numerical differentiation, independent of the analytic expansion.
    """
    with mpmath.workdps(30):
        mu, gamma = mpmath.mpf(params.mu), mpmath.mpf(params.gamma)
        t, x = mpmath.mpf(t), mpmath.mpf(x)

        def kernel_e(b, y):
            w = y - x
            den = (t + b + 2) ** 2 - w**2
            zeta = ((t - b) ** 2 - w**2) / den
            return (
                (1 + t) ** (-mu / 2 + gamma) * (1 + b) ** (mu / 2 + gamma) * den**-gamma
                * mpmath.hyp2f1(gamma, gamma, 1, zeta)
            )

        def integrand(y):
            k1 = kernel_e(0, y)
            k0 = -mpmath.diff(lambda b: kernel_e(b, y), 0)
            u0, u1 = data.u0(float(y)), data.u1(float(y))
            return data.eps * (u0 * k0 + (u1 + mu * u0) * k1)

        lo, hi = max(x - t, -data.R), min(x + t, data.R)
        boundary = (1 + t) ** (-mu / 2) * data.eps * (data.u0(float(x + t)) + data.u0(float(x - t))) / 2
        return float(boundary + 2 ** -mpmath.sqrt(params.delta) * mpmath.quad(integrand, [lo, hi]))


@pytest.mark.parametrize(
    "params, data, t, x",
    [
        (ScaleInvariantParams(1.0, 0.0), poly_profile(eps=0.3, u0_zero=True), 2.5, 0.4),
        (ScaleInvariantParams(3.0, 0.0), poly_profile(eps=0.3), 6.0, -1.3),
    ],
    ids=["gamma=1/2", "gamma=-1/2"],
)
def test_data_term_matches_mpmath_oracle(params, data, t, x):
    u = solve_linear_point(params, data, zero_source(), t, x, qtol=1e-13)
    assert abs(u - _data_term_oracle(params, data, t, x)) <= 1e-12


@pytest.mark.parametrize("t, x", [(3.0, 0.5), (2.0, -1.6), (0.8, 0.1)])
def test_duhamel_term_across_box_edges_matches_oracle(t, x):
    # mu = 2: E = (1+b)/(1+t), so for f = exp(-b) (1-y^2)^2 on |y| < 1 each
    # slice integral is elementary; the b integral runs in mpmath with every
    # b where a cone edge crosses y = -1 or y = 1 as a breakpoint
    zero = CauchyProfile(u0=lambda y: 0.0, u1=lambda y: 0.0, R=1.0, eps=1.0)
    src = SourceTerm(
        f=lambda b, y: math.exp(-b) * max(0.0, 1.0 - y * y) ** 2,
        support=(0.0, math.inf, -1.0, 1.0),
    )
    with mpmath.workdps(30):
        tm, xm = mpmath.mpf(t), mpmath.mpf(x)

        def antiderivative(y):
            return y - 2 * y**3 / 3 + y**5 / 5

        def slice_integral(b):
            lo, hi = max(xm - (tm - b), -1), min(xm + (tm - b), 1)
            if hi <= lo:
                return mpmath.mpf(0)
            return mpmath.exp(-b) * (1 + b) / (1 + tm) * (antiderivative(hi) - antiderivative(lo))

        crossings = (tm - xm - 1, tm + xm - 1, tm - xm + 1, tm + xm + 1)
        edges = sorted({mpmath.mpf(0), tm, *(k for k in crossings if 0 < k < tm)})
        want = float(mpmath.quad(slice_integral, edges) / 2)  # 2^-sqrt(delta), delta = 1
    u = solve_linear_point(P2, zero, src, t, x, qtol=1e-12)
    assert abs(u - want) <= 1e-12


def test_unreachable_budget_raises_with_achieved_gap():
    # the kernel_routes t = 19, mu = 3 probe: at qtol = 1e-17 even the
    # 64- and 128-node rules of the bump data integral differ by far more
    data = bump_profile(R=1.0, eps=0.5)
    with pytest.raises(QuadratureError) as info:
        solve_linear_point(ScaleInvariantParams(3.0, 0.0), data, zero_source(), 19.0, 3.8, qtol=1e-17)
    assert info.value.achieved > 1e-17


def _hat(y):
    return max(0.0, 1.0 - abs(y))


@pytest.mark.parametrize(
    "data, src",
    [
        (CauchyProfile(u0=lambda y: 0.0, u1=_hat, R=1.0, eps=1.0), zero_source()),
        (
            CauchyProfile(u0=lambda y: 0.0, u1=lambda y: 0.0, R=1.0, eps=1.0),
            SourceTerm(f=lambda b, y: _hat(y), support=(0.0, 2.0, -2.0, 2.0)),
        ),
    ],
    ids=["kinked-data", "kinked-source"],
)
def test_kinked_input_raises_with_achieved_gap(data, src):
    # the fixed rules need smooth u0, u1 and f: the hat's kinks leave the
    # 64- and 128-node rules about 1e-4 apart, far above the default budget
    with pytest.raises(QuadratureError) as info:
        solve_linear_point(P0, data, src, 2.0, 0.0)
    assert info.value.achieved > 1e-6


@pytest.mark.parametrize(
    "t, x, qtol, name",
    [
        (math.nan, 0.0, QTOL, "t"),
        (math.inf, 0.0, QTOL, "t"),
        (1.0, math.nan, QTOL, "x"),
        (1.0, -math.inf, QTOL, "x"),
        (1.0, 0.0, math.nan, "qtol"),
        (1.0, 0.0, math.inf, "qtol"),
        (1.0, 0.0, 0.0, "qtol"),
    ],
)
def test_non_finite_input_rejected(t, x, qtol, name):
    data = poly_profile(eps=0.3)
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        solve_linear_point(P2, data, zero_source(), t, x, qtol=qtol)
    if name == "qtol":
        grid = GridSpec(dx=0.5, cfl=1.0, x_max=2.0, t_max=1.0)
        with pytest.raises(ValueError, match="^qtol must be finite"):
            solve_linear_field(P2, data, zero_source(), grid, qtol=qtol)


# -- batched engine: the field is the pointwise solve, samplers on arrays --

MU3 = ScaleInvariantParams(3.0, 0.0)
BOX = (0.0, 1.0, -1.0, 1.0)


def _bump_source():
    # the kernel_routes source: array-capable through the bumps' ndarray path
    space, time_ = smooth_bump(1.0), smooth_bump(0.5)
    return SourceTerm(f=lambda t, x: space(x) * time_(t - 0.5), support=BOX)


def _scalar_only(fn):
    """fn behind float() conversions, so that it raises TypeError on arrays."""
    return lambda *args: float(fn(*(float(a) for a in args)))


def _counted(fn, calls):
    """fn that appends the node count of each call to ``calls`` (0 on floats)."""

    def sample(*args):
        calls.append(max(a.size if isinstance(a, np.ndarray) else 0 for a in args))
        return fn(*args)

    return sample


def _pointwise(params, data, src, grid, qtol=QTOL):
    times = grid.dt * np.arange(grid.n_steps() + 1)
    return np.array(
        [[solve_linear_point(params, data, src, float(t), float(x), qtol) for x in grid.xs()]
         for t in times]
    )


def test_b_pieces_are_never_empty():
    # at the box centre x = 0 both kinks fall on b = t - 1: one split, not
    # an empty middle piece
    assert _b_pieces(1.5, 0.0, BOX) == [(0.0, 0.5), (0.5, 1.0)]
    for t in np.linspace(0.0, 3.0, 61):
        for x in np.linspace(-3.0, 3.0, 121):
            pieces = _b_pieces(float(t), float(x), BOX)
            assert all(d > c for c, d in pieces), (t, x, pieces)
            assert all(d0 == c1 for (_, d0), (c1, _) in zip(pieces, pieces[1:]))


@pytest.mark.parametrize("params", [MU3, ScaleInvariantParams(1.0, 0.0)], ids=["mu=3", "mu=1"])
def test_field_equals_pointwise_solve_bit_for_bit(params):
    data = bump_profile(R=1.0, eps=0.5)
    src = _bump_source()
    grid = GridSpec(dx=0.25, cfl=1.0, x_max=3.0, t_max=1.5)
    times = grid.dt * np.arange(grid.n_steps() + 1)
    # the grid has the t = 0 row, nodes without Duhamel pieces and nodes
    # whose b range splits into two and three pieces
    pieces = {len(_b_pieces(float(t), float(x), BOX)) for t in times for x in grid.xs()}
    assert times[0] == 0.0 and pieces == {0, 1, 2, 3}
    field = solve_linear_field(params, data, src, grid, qtol=QTOL)
    assert field.values.tobytes() == _pointwise(params, data, src, grid).tobytes()


def test_array_and_scalar_only_samplers_agree():
    data = bump_profile(R=1.0, eps=0.5)
    src = _bump_source()
    scalar_data = CauchyProfile(u0=_scalar_only(data.u0), u1=_scalar_only(data.u1), R=1.0, eps=0.5)
    scalar_src = SourceTerm(f=_scalar_only(src.f), support=BOX)
    grid = GridSpec(dx=0.25, cfl=1.0, x_max=3.0, t_max=1.5)
    fast = solve_linear_field(MU3, data, src, grid, qtol=QTOL).values
    slow = solve_linear_field(MU3, scalar_data, scalar_src, grid, qtol=QTOL).values
    # the array samplers use numpy's exp, within one ulp of math.exp
    assert np.all(np.abs(fast - slow) <= 1e-15 * np.abs(slow))


def test_samplers_are_called_per_level_not_per_node():
    base = bump_profile(R=1.0, eps=0.5)
    calls = {"u0": [], "u1": [], "f": []}
    data = CauchyProfile(
        u0=_counted(base.u0, calls["u0"]), u1=_counted(base.u1, calls["u1"]), R=1.0, eps=0.5
    )
    src = SourceTerm(f=_counted(_bump_source().f, calls["f"]), support=BOX)
    grid = GridSpec(dx=0.25, cfl=1.0, x_max=3.0, t_max=1.5)
    for kinds in calls.values():
        kinds.clear()  # the support probes of CauchyProfile
    solve_linear_field(MU3, data, src, grid, qtol=QTOL)
    # 175 nodes; the rules run at 8, 16, 32, 64 and 128 nodes at most, and
    # each level is one call per batch of about _BATCH nodes: one for the
    # data integral (u0 once more for the boundary term), while any two
    # consecutive Duhamel batches of a level hold more than _BATCH nodes
    assert all(all(size > 1 for size in sizes) for sizes in calls.values())
    assert 0 < len(calls["u0"]) <= 6 and 0 < len(calls["u1"]) <= 5
    assert 0 < len(calls["f"]) <= 5 + 2 * sum(calls["f"]) / linear._BATCH
    assert sum(calls["f"]) > 1000 * len(calls["f"])


def test_scalar_only_source_still_works():
    # the criterion-3 source: math.exp and max take floats only
    data = CauchyProfile(u0=lambda x: 0.0, u1=lambda x: 0.0, R=1.0, eps=1.0)
    calls = []

    def f(t, x):
        return math.exp(-2.0 * t) * max(0.0, 1.0 - x * x) ** 4

    def f_array(t, x):
        return np.exp(-2.0 * t) * np.maximum(0.0, 1.0 - x * x) ** 4

    box = (0.0, math.inf, -1.0, 1.0)
    grid = GridSpec(dx=0.25, cfl=1.0, x_max=2.5, t_max=1.0)
    params = ScaleInvariantParams(1.0, 0.0)
    slow = solve_linear_field(params, data, SourceTerm(f=_counted(f, calls), support=box), grid)
    fast = solve_linear_field(params, data, SourceTerm(f=f_array, support=box), grid)
    # one failed call on arrays, then one call per node on floats
    assert sum(size > 0 for size in calls) == 1 and calls.count(0) > 1000
    assert np.all(np.abs(fast.values - slow.values) <= 1e-15 * np.abs(slow.values))
    assert slow.values.tobytes() == _pointwise(params, data, SourceTerm(f=f, support=box), grid).tobytes()


def _first_failure(params, data, src, grid, qtol):
    """The node and error at which a row-major loop of point solves stops."""
    for t in grid.dt * np.arange(grid.n_steps() + 1):
        for x in grid.xs():
            try:
                solve_linear_point(params, data, src, float(t), float(x), qtol)
            except QuadratureError as exc:
                return t, x, exc
    raise AssertionError("no node fails")


_ZERO = CauchyProfile(u0=lambda y: 0.0, u1=lambda y: 0.0, R=1.0, eps=1.0)
_HAT_DATA = CauchyProfile(u0=lambda y: 0.0, u1=_hat, R=1.0, eps=1.0)


@pytest.mark.parametrize(
    "params, data, src, qtol, integral",
    [
        (MU3, bump_profile(R=1.0, eps=0.5), _bump_source(), 1e-17, "data"),
        (P0, _HAT_DATA, zero_source(), QTOL, "data"),
        (P0, _ZERO, SourceTerm(f=lambda b, y: _hat(y), support=(0.0, 2.0, -2.0, 2.0)),
         QTOL, "Duhamel"),
        # the source fails at x = -2 on the first row, the data only at x = 0
        (P0, _HAT_DATA, SourceTerm(f=lambda b, y: _hat(y + 2.0), support=(0.0, 2.0, -3.0, -1.0)),
         QTOL, "Duhamel"),
        # both fail first at x = 0 on the first row: the data integral is named
        (P0, _HAT_DATA, SourceTerm(f=lambda b, y: _hat(y), support=(0.0, 2.0, -0.25, 0.25)),
         QTOL, "data"),
    ],
    ids=["unreachable-qtol", "kinked-data", "kinked-source", "source-first", "both-at-one-node"],
)
def test_field_error_names_the_first_failing_node(params, data, src, qtol, integral):
    grid = GridSpec(dx=0.5, cfl=1.0, x_max=3.0, t_max=1.0)
    t, x, want = _first_failure(params, data, src, grid, qtol)
    with pytest.raises(QuadratureError) as info:
        solve_linear_field(params, data, src, grid, qtol=qtol)
    assert str(info.value) == f"at grid node (t={t}, x={x}): {want}"
    assert str(want).startswith(integral)
    assert info.value.achieved == want.achieved > qtol
