"""Comparison machinery: traces, integral inequality, blow-up point vs ODE oracle."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from siwave.comparison import (
    ComparisonFrame,
    ReducedTrace,
    comparison_blowup_log,
    comparison_blowup_z,
    empirical_frame,
    reduce_solution,
    verify_fundamental_inequality,
)
from siwave.fd import detect_lifespan, solve_semilinear_field
from siwave.grids import GridSpec, SpacetimeField
from siwave.kernels import BoundReport, light_cone_sample, verify_kernel_lower_bounds
from siwave.linear import solve_linear_field
from siwave.params import ScaleInvariantParams
from siwave.profiles import bump_profile, zero_source
from helpers import poly_profile

P2 = ScaleInvariantParams(2.0, 0.0)


def _zero_field(t_max=3.0):
    grid = GridSpec(dx=0.25, cfl=1.0, x_max=4.0, t_max=t_max)
    n = grid.n_steps() + 1
    z = np.zeros((n, len(grid.xs())))
    return SpacetimeField(grid=grid, times=grid.dt * np.arange(n), values=z, dvalues=z.copy())


def ode_blowup_oracle(frame, eps, cap=1e12):
    """Integrate G' = C (R+z)^(-a) G^p from G(R) = M*eps until G > cap.

    For larger p the z-window between G = cap and the singularity is below
    the float spacing of z, and the integrator aborts ("step size less than
    spacing") at the singular point before the event can fire; the abort
    location then IS the blow-up point to machine precision, provided G has
    already grown past the cap's magnitude scale.
    """

    def rhs(z, g):
        return frame.C * (frame.R + z) ** (-frame.a) * g ** frame.p

    def hit_cap(z, g):
        return g[0] - cap

    hit_cap.terminal = True
    closed = comparison_blowup_z(frame, eps)
    sol = solve_ivp(
        rhs,
        (frame.R, 4.0 * closed + 10.0),
        [frame.M * eps],
        events=hit_cap,
        rtol=1e-10,
        atol=1e-300,
    )
    if sol.t_events[0].size:
        return float(sol.t_events[0][0])
    assert sol.status == -1 and sol.y[0, -1] >= 1e6, (
        "oracle integration neither reached the cap nor stalled at the singularity"
    )
    return float(sol.t[-1])


def test_reduce_zero_field():
    trace = reduce_solution(_zero_field(), P2, R=1.0)
    assert np.all(trace.Us == 0.0)
    assert trace.zs[0] >= 1.0


def test_reduce_sigma_zero_is_plain_trace():
    params = ScaleInvariantParams(0.0, 0.0)  # sigma = 0
    grid = GridSpec(dx=0.25, cfl=1.0, x_max=4.0, t_max=3.0)
    field = solve_linear_field(params, poly_profile(eps=0.3), zero_source(), grid, qtol=1e-9)
    trace = reduce_solution(field, params, R=1.0)
    for z, u in zip(trace.zs, trace.Us):
        assert u == field.interpolate(float(z) + 1.0, float(z))


def _point_loop(field, ts, xs):
    """u at each (t, x) on its own: bilinear weights from a bracket clamped
    to the first and last interval of each axis, in float arithmetic."""

    def bracket(nodes, v):
        if len(nodes) == 1:
            return 0, 0, 0.0
        i = min(max(int(np.searchsorted(nodes, v, side="right")) - 1, 0), len(nodes) - 2)
        return i, i + 1, (v - nodes[i]) / (nodes[i + 1] - nodes[i])

    u, out = field.values, []
    for t, x in zip(ts.tolist(), xs.tolist()):
        i, i1, ft = bracket(field.times, t)
        j, j1, fx = bracket(field.xs, x)
        out.append(float(
            (1 - ft) * (1 - fx) * u[i, j] + (1 - ft) * fx * u[i, j1]
            + ft * (1 - fx) * u[i1, j] + ft * fx * u[i1, j1]
        ))
    return np.array(out)


def test_trace_of_the_chain_field_equals_the_point_loop_bitwise():
    # the criterion-10 chain's stored field: mu = 2, p = 1.5, run to 0.9 T
    prof = bump_profile(R=1.0, eps=0.5, amplitude=8.0)
    probe = detect_lifespan(
        P2, prof, 1.5, GridSpec(dx=1.0 / 200, cfl=1.0, x_max=8.0, t_max=6.9), threshold=1e8
    )
    t_run = 0.9 * probe.T_est
    grid = GridSpec(dx=1.0 / 200, cfl=1.0, x_max=1.0 + t_run + 0.1, t_max=t_run)
    field, _ = solve_semilinear_field(P2, prof, 1.5, grid, store_every=2)
    trace = reduce_solution(field, P2, R=1.0)
    assert len(trace.zs) > 400
    us = _point_loop(field, trace.zs + 1.0, trace.zs)
    assert trace.Us.tobytes() == ((1.0 + trace.zs) ** (0.5 * P2.sigma) * us).tobytes()


def _fields():
    grid = GridSpec(dx=0.5, cfl=1.0, x_max=1.0, t_max=1.0)
    rng = np.random.default_rng(11)
    values = rng.normal(size=(3, len(grid.xs())))
    many = SpacetimeField(grid=grid, times=np.array([0.0, 0.4, 1.0]), values=values, dvalues=values)
    one_row = SpacetimeField(grid=grid, times=np.array([0.4]), values=values[1:2], dvalues=values[1:2])
    node = GridSpec(dx=1.0, cfl=1.0, x_max=0.4, t_max=1.0)  # the single node x = 0
    one_node = SpacetimeField(grid=node, times=np.array([0.0, 1.0]), values=values[:2, :1],
                              dvalues=values[:2, :1])
    return {"rows": many, "one-row": one_row, "one-node": one_node}


@pytest.mark.parametrize("name", ["rows", "one-row", "one-node"])
def test_interpolate_on_arrays_equals_the_point_loop_bitwise(name):
    field = _fields()[name]
    times, xs = field.times, field.xs
    # interior points, and points on the first and last row and node
    ts = np.concatenate([np.linspace(times[0], times[-1], 7), [times[-1], times[-1], times[0]]])
    x = np.concatenate([np.linspace(xs[0], xs[-1], 7), [xs[-1], xs[0], xs[-1]]])
    got = field.interpolate(ts, x)
    assert got.shape == ts.shape
    assert got.tobytes() == _point_loop(field, ts, x).tobytes()
    assert got.tolist() == [field.interpolate(t, v) for t, v in zip(ts.tolist(), x.tolist())]
    assert type(field.interpolate(float(ts[0]), float(x[0]))) is float
    with pytest.raises(ValueError, match=r"point \(t=2\.0, x="):
        field.interpolate(np.append(ts, 2.0), np.append(x, xs[0]))


def test_reduce_positive_for_positive_data_mu2():
    grid = GridSpec(dx=0.125, cfl=1.0, x_max=5.0, t_max=4.0)
    field = solve_linear_field(P2, poly_profile(eps=0.3), zero_source(), grid, qtol=1e-9)
    trace = reduce_solution(field, P2, R=1.0)
    assert len(trace.zs) >= 3
    assert np.all(trace.Us > 0.0)


@pytest.mark.parametrize("R", [math.nan, math.inf, -1.0, 0.0])
def test_reduce_rejects_bad_radius(R):
    with pytest.raises(ValueError, match="R must be finite and > 0"):
        reduce_solution(_zero_field(), P2, R=R)


_BOUNDS = BoundReport(c_K1=0.5, c_E=0.25, c_mix=0.75, n_points=1, mu=2.0, nu2=0.0, sigma=2.0)


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("R", 0.0, "R must be finite and > 0"),
        ("R", -1.0, "R must be finite and > 0"),
        ("R", math.nan, "R must be finite and > 0"),
        ("R", math.inf, "R must be finite and > 0"),
        ("p", math.nan, "p must be finite and > 1"),
        ("p", math.inf, "p must be finite and > 1"),
        ("p", 1.0, "p must be finite and > 1"),
        ("p", 0.5, "p must be finite and > 1"),
        ("data_l1", -1.0, "data_l1 must be finite and >= 0"),
        ("data_l1", math.nan, "data_l1 must be finite and >= 0"),
        ("data_l1", math.inf, "data_l1 must be finite and >= 0"),
    ],
)
def test_empirical_frame_rejects_bad_input(name, value, message):
    args = dict(p=1.5, R=1.0, data_l1=2.0) | {name: value}
    with pytest.raises(ValueError, match=message):
        empirical_frame(P2, bounds=_BOUNDS, **args)


def test_empirical_frame_accepts_zero_data_mass():
    frame = empirical_frame(P2, p=1.5, R=1.0, bounds=_BOUNDS, data_l1=0.0)
    assert frame.M == 0.0 and frame.C > 0.0


def test_trace_validation():
    with pytest.raises(ValueError, match="increasing"):
        ReducedTrace(R=1.0, zs=np.array([1.0, 1.0]), Us=np.zeros(2), sigma=0.0)
    with pytest.raises(ValueError, match="below"):
        ReducedTrace(R=1.0, zs=np.array([0.5, 1.5]), Us=np.zeros(2), sigma=0.0)
    for R in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="R must be finite and > 0"):
            ReducedTrace(R=R, zs=np.array([1.0, 1.5]), Us=np.zeros(2), sigma=0.0)
    for sigma in (math.nan, math.inf):
        with pytest.raises(ValueError, match="sigma must be finite"):
            ReducedTrace(R=1.0, zs=np.array([1.0, 1.5]), Us=np.zeros(2), sigma=sigma)


def test_inequality_equality_case():
    zs = np.linspace(1.0, 4.0, 13)
    trace = ReducedTrace(R=1.0, zs=zs, Us=np.zeros_like(zs), sigma=0.0)
    frame = ComparisonFrame(M=0.0, C=1.0, p=2.0, a=0.5, R=1.0)
    report = verify_fundamental_inequality(trace, frame, eps=0.3)
    assert report.min_margin == 0.0 and report.holds


def test_inequality_degenerate_frame_reduces_to_floor():
    zs = np.linspace(1.0, 4.0, 13)
    us = 0.2 + 0.1 * (zs - 1.0)
    trace = ReducedTrace(R=1.0, zs=zs, Us=us, sigma=0.0)
    frame = ComparisonFrame(M=1.0, C=0.0, p=2.0, a=0.5, R=1.0)
    report = verify_fundamental_inequality(trace, frame, eps=0.15)
    assert abs(report.min_margin - (us.min() - 0.15)) <= 1e-15
    assert report.holds


def test_inequality_short_trace_rejected():
    trace = ReducedTrace(R=1.0, zs=np.array([1.0, 2.0]), Us=np.zeros(2), sigma=0.0)
    with pytest.raises(ValueError, match="short"):
        verify_fundamental_inequality(trace, ComparisonFrame(1, 1, 2.0, 0.5, 1.0), eps=0.1)


def test_inequality_on_semilinear_run_with_empirical_constants():
    eps, amp = 0.5, 8.0
    prof = bump_profile(R=1.0, eps=eps, amplitude=amp)
    grid = GridSpec(dx=1.0 / 100, cfl=1.0, x_max=5.5, t_max=4.3)
    field, _ = solve_semilinear_field(P2, prof, 1.5, grid, store_every=2)
    bounds = verify_kernel_lower_bounds(P2, light_cone_sample(6.0, 10, 6, 6))
    # L1 norm of u0 + u1 = 2 * amplitude * integral of the unit bump
    from scipy.integrate import quad

    bump_mass = quad(lambda x: math.exp(-1.0 / (1.0 - x * x)), -1.0, 1.0)[0]
    frame = empirical_frame(P2, p=1.5, R=1.0, bounds=bounds, data_l1=2 * amp * bump_mass)
    assert frame.provenance.startswith("empirical")
    trace = reduce_solution(field, P2, R=1.0)
    report = verify_fundamental_inequality(trace, frame, eps)
    assert report.holds
    assert report.min_margin >= -1e-6


@pytest.mark.parametrize("name", ["M", "C", "p", "a", "R"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_frame_rejects_non_finite_constants(name, value):
    fields = dict(M=1.0, C=1.0, p=2.0, a=0.5, R=1.0)
    fields[name] = value
    with pytest.raises(ValueError, match=f"frame {name} must be finite"):
        ComparisonFrame(**fields)


@pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0])
def test_blowup_point_and_inequality_reject_bad_eps(eps):
    frame = ComparisonFrame(M=1.0, C=1.0, p=2.0, a=0.5, R=1.0)
    trace = ReducedTrace(R=1.0, zs=np.array([1.0, 2.0, 3.0]), Us=np.ones(3), sigma=0.0)
    for check in (comparison_blowup_z, comparison_blowup_log):
        with pytest.raises(ValueError, match="need finite eps > 0"):
            check(frame, eps)
    with pytest.raises(ValueError, match="need finite eps > 0"):
        verify_fundamental_inequality(trace, frame, eps)


def test_blowup_z_exact_a_zero():
    frame = ComparisonFrame(M=1.0, C=1.0, p=2.0, a=0.0, R=1.0)
    assert comparison_blowup_z(frame, eps=0.1) == 11.0


@pytest.mark.parametrize("a", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("constants", [dict(M=0.0, C=1.0), dict(M=1.0, C=0.0)], ids=["M0", "C0"])
def test_blowup_point_degenerate_constants_return_inf(constants, a):
    # a zero data constant or zero nonlinearity constant forces no blow-up
    frame = ComparisonFrame(p=2.0, a=a, R=1.0, **constants)
    assert comparison_blowup_log(frame, eps=0.1) == math.inf
    assert comparison_blowup_z(frame, eps=0.1) == math.inf


def test_blowup_z_critical_closed_form():
    # a=1, M=C=1, p=2, R=1, eps=0.5: separable ODE gives z* = 2R e^2 - R
    frame = ComparisonFrame(M=1.0, C=1.0, p=2.0, a=1.0, R=1.0)
    want = 2.0 * math.exp(2.0) - 1.0
    assert abs(comparison_blowup_z(frame, eps=0.5) - want) <= 1e-12
    # and the ODE oracle confirms the -R shift
    assert abs(ode_blowup_oracle(frame, 0.5) - want) <= 0.01 * want


def test_blowup_z_supercritical_weight_returns_marker():
    frame = ComparisonFrame(M=1.0, C=1.0, p=2.0, a=1.5, R=1.0)
    assert math.isinf(comparison_blowup_z(frame, eps=0.1))


def test_blowup_z_matches_ode_oracle_on_random_frames():
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 20:
        a = float(rng.uniform(0.0, 1.0))
        if checked == 0:
            a = 1.0  # make sure the critical weight is exercised
        p = float(rng.uniform(1.5, 2.5))
        r = float(rng.uniform(1.0, 3.0))
        m = float(rng.uniform(0.5, 2.0))
        c = float(rng.uniform(0.5, 2.0))
        # choose eps so the blow-up point lands in a testable window
        target = float(rng.uniform(math.log(3.0 * r), 10.0))
        if a == 1.0:
            x = target - math.log(2.0 * r)
        else:
            s = 1.0 - a
            x = (math.exp(s * target) - (2.0 * r) ** s) / s
        if x <= 0:
            continue
        eps = (x * c * (p - 1.0)) ** (1.0 / (1.0 - p)) / m
        frame = ComparisonFrame(M=m, C=c, p=p, a=a, R=r)
        closed = comparison_blowup_z(frame, eps)
        oracle = ode_blowup_oracle(frame, eps)
        assert abs(closed - oracle) <= 0.01 * oracle, (a, p, r, m, c, eps)
        checked += 1


def test_blowup_z_monotone_in_eps():
    frame = ComparisonFrame(M=1.0, C=0.8, p=1.7, a=0.6, R=1.5)
    eps = np.geomspace(1e-4, 0.5, 25)
    zs = [comparison_blowup_z(frame, float(e)) for e in eps]
    assert all(z1 > z2 for z1, z2 in zip(zs, zs[1:]))


def test_blowup_z_subcritical_asymptotic_slope():
    # log z* vs log eps approaches slope -(p-1)/(1-a) as eps -> 0
    p, a = 2.0, 0.5
    frame = ComparisonFrame(M=1.0, C=1.0, p=p, a=a, R=1.0)
    eps = np.geomspace(1e-5, 1e-2, 10)
    zs = np.array([comparison_blowup_z(frame, float(e)) for e in eps])
    slope = np.polyfit(np.log(eps), np.log(zs), 1)[0]
    want = -(p - 1.0) / (1.0 - a)
    assert abs(slope - want) <= 0.02 * abs(want)


def test_blowup_z_critical_asymptotic_log_ratio():
    # z* itself overflows here; the log variant carries the asymptotics
    p = 2.0
    frame = ComparisonFrame(M=1.0, C=1.0, p=p, a=1.0, R=1.0)
    eps = np.geomspace(1e-5, 1e-2, 10)
    ratios = [comparison_blowup_log(frame, float(e)) / float(e) ** -(p - 1.0) for e in eps]
    spread = (max(ratios) - min(ratios)) / abs(ratios[-1])
    assert spread <= 0.02
