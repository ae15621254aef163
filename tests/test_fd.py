"""Finite-difference solver: scheme order, blow-up detection, system coupling."""

import math

import numpy as np
import pytest
from helpers import poly_bump, poly_bump_derivative, poly_profile

from siwave.fd import (
    detect_lifespan,
    detect_lifespan_system,
    lifespan_records_to_csv,
    solve_linear_fd,
    solve_semilinear_field,
)
from siwave.grids import GridSpec
from siwave.linear import solve_linear_point
from siwave.params import ScaleInvariantParams, SystemParams
from siwave.profiles import CauchyProfile, SourceTerm, bump_profile

P0 = ScaleInvariantParams(0.0, 0.0)
P1 = ScaleInvariantParams(1.0, 0.0)
P2 = ScaleInvariantParams(2.0, 0.0)

ZERO_DATA = CauchyProfile(u0=lambda x: 0.0, u1=lambda x: 0.0, R=1.0, eps=1.0)


def test_zero_state_is_a_fixed_point():
    grid = GridSpec(dx=0.1, cfl=0.9, x_max=3.0, t_max=2.0)
    field, record = solve_semilinear_field(P2, ZERO_DATA, 1.5, grid)
    assert len(field.times) == grid.n_steps() + 1
    assert np.all(field.values == 0.0) and np.all(field.dvalues == 0.0)
    assert not record.blow_up


def test_zero_data_never_blows_up():
    grid = GridSpec(dx=0.05, cfl=0.9, x_max=4.0, t_max=3.0)
    record = detect_lifespan(P2, ZERO_DATA, 1.5, grid)
    assert not record.blow_up and math.isinf(record.T_est)


def test_traveling_wave_tracks_right_mover():
    # mu = nu2 = 0, u0 = g, u1 = -g': solution is g(x - t)
    errs = []
    for dx in (1.0 / 25, 1.0 / 50):
        grid = GridSpec(dx=dx, cfl=0.5, x_max=4.0, t_max=1.0)
        data = CauchyProfile(
            u0=lambda x: poly_bump(x),
            u1=lambda x: -poly_bump_derivative(x),
            R=1.0,
            eps=1.0,
            d_u0=lambda x: poly_bump_derivative(x),
        )
        field = solve_linear_fd(
            P0, data, SourceTerm(f=lambda t, x: 0.0, support=(0, 0, 0, 0)), grid
        )
        i = len(field.times) - 1
        t = float(field.times[i])
        exact = np.array([poly_bump(float(x) - t) for x in field.xs])
        errs.append(float(np.max(np.abs(field.values[i] - exact))))
    assert errs[0] <= 0.05
    assert 3.0 <= errs[0] / errs[1] <= 5.0  # ~O(dx^2)


def test_linear_mode_converges_to_representation():
    # mu=1 (hypergeometric kernels), smooth compact source, zero data
    src = SourceTerm(
        f=lambda t, x: math.exp(-2.0 * t) * max(0.0, 1.0 - x * x) ** 4,
        support=(0.0, math.inf, -1.0, 1.0),
    )
    probes = [(1.0, k / 10.0) for k in (-8, -4, 0, 4, 8)]
    ref = {pt: solve_linear_point(P1, ZERO_DATA, src, *pt, qtol=1e-10) for pt in probes}
    errs = []
    for dx in (1.0 / 20, 1.0 / 40):
        grid = GridSpec(dx=dx, cfl=0.5, x_max=2.5, t_max=1.0)
        field = solve_linear_fd(P1, ZERO_DATA, src, grid)
        err = 0.0
        for (t, x), want in ref.items():
            i = int(round(t / grid.dt))
            j = int(round((x + grid.x_max) / dx))
            err = max(err, abs(field.values[i, j] - want))
        errs.append(err)
    assert 3.4 <= errs[0] / errs[1] <= 4.6


def test_blow_up_detected_for_supercritical_data():
    grid = GridSpec(dx=1.0 / 100, cfl=1.0, x_max=12.0, t_max=10.0)
    prof = bump_profile(R=1.0, eps=0.5, amplitude=8.0)
    record = detect_lifespan(P2, prof, 1.5, grid)
    assert record.blow_up and math.isfinite(record.T_est)
    assert 0.0 < record.T_est < 10.0


def test_threshold_insensitivity_near_blowup():
    grid = GridSpec(dx=1.0 / 100, cfl=1.0, x_max=12.0, t_max=10.0)
    prof = bump_profile(R=1.0, eps=0.5, amplitude=8.0)
    t_low = detect_lifespan(P2, prof, 1.5, grid, threshold=1e6).T_est
    t_high = detect_lifespan(P2, prof, 1.5, grid, threshold=1e8).T_est
    assert t_low <= t_high
    assert t_high - t_low <= 5.0 * grid.dt


def test_richardson_refinement_and_convergence_flag():
    grid = GridSpec(dx=1.0 / 50, cfl=1.0, x_max=12.0, t_max=10.0)
    prof = bump_profile(R=1.0, eps=0.5, amplitude=8.0)
    record = detect_lifespan(P2, prof, 1.5, grid, refine=True)
    assert record.richardson_pair is not None
    coarse, fine = record.richardson_pair
    assert record.T_est == fine
    assert record.converged is True
    assert abs(coarse - fine) <= 0.05 * fine


def test_finite_propagation_at_grid_speed():
    # at cfl = 1 the scheme's domain of dependence matches the light cone
    grid = GridSpec(dx=1.0 / 50, cfl=1.0, x_max=7.0, t_max=5.0)
    prof = bump_profile(R=1.0, eps=0.1, amplitude=1.0)
    field, _ = solve_semilinear_field(P2, prof, 1.5, grid, store_every=10)
    for i, t in enumerate(field.times):
        outside = np.abs(field.xs) > prof.R + float(t) + 2.0 * grid.dx
        assert np.max(np.abs(field.values[i][outside]), initial=0.0) <= 1e-14


def test_spatial_mean_nondecreasing_with_nonnegative_data():
    # nonnegative data, delta >= 1, massless: int u dx is nondecreasing
    grid = GridSpec(dx=1.0 / 50, cfl=1.0, x_max=8.0, t_max=6.0)
    prof = bump_profile(R=1.0, eps=0.5, amplitude=4.0)
    field, _ = solve_semilinear_field(P2, prof, 1.5, grid, store_every=5)
    masses = [float(np.trapezoid(field.values[i], field.xs)) for i in range(len(field.times))]
    diffs = np.diff(masses)
    assert np.min(diffs, initial=0.0) >= -1e-12


def _full_grid_run(params, data, p, grid, threshold=1e8):
    """Reference stepper: the same scheme, every node of every level, no
    buffers; returns (T_est, u rows, u_t rows)."""
    xs, dt, dx = grid.xs(), grid.dt, grid.dx

    def lap(u):
        out = np.zeros_like(u)
        out[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (dx * dx)
        return out

    def power(u):
        a = np.abs(u)
        return a * np.sqrt(a) if p == 1.5 else a**p

    u_prev = np.array([data.eps * data.u0(float(x)) for x in xs])
    ut = np.array([data.eps * data.u1(float(x)) for x in xs])
    u = u_prev + dt * ut + 0.5 * dt * dt * (
        lap(u_prev) - params.mu * ut - params.nu2 * u_prev + power(ut)
    )
    us, uts = [u_prev], [ut]
    for k in range(1, grid.n_steps() + 1):
        t = k * dt
        lam = 0.5 * params.mu * dt / (1.0 + t)
        mass = params.nu2 / (1.0 + t) ** 2
        u_next = (
            2.0 * u - (1.0 - lam) * u_prev + dt * dt * (lap(u) - mass * u + power(ut))
        ) / (1.0 + lam)
        ut = (u_next - u_prev) / (2.0 * dt)
        us.append(u)
        uts.append(ut)
        if float(np.max(np.abs(ut))) > threshold:
            return t, np.array(us), np.array(uts)
        u_prev, u = u, u_next
    return math.inf, np.array(us), np.array(uts)


@pytest.mark.parametrize(
    "params, p, cfl, prof",
    [
        (P2, 1.5, 1.0, bump_profile(R=1.0, eps=0.5, amplitude=8.0)),
        (ScaleInvariantParams(3.0, 0.5), 1.7, 0.9, bump_profile(R=1.5, eps=0.3, amplitude=4.0)),
        (P1, 2.0, 0.5, bump_profile(R=1.0, eps=0.5, amplitude=8.0, u0_zero=True)),
    ],
)
def test_windowed_stepper_matches_full_grid_reference(params, p, cfl, prof):
    # the window reaches the grid ends before t_max at cfl < 1; every stored
    # bit must equal the whole-grid update
    grid = GridSpec(dx=1.0 / 25, cfl=cfl, x_max=prof.R + 4.0, t_max=4.0)
    field, record = solve_semilinear_field(params, prof, p, grid)
    t_ref, u_ref, ut_ref = _full_grid_run(params, prof, p, grid)
    assert record.T_est == t_ref
    assert field.values.tobytes() == u_ref.tobytes()
    assert field.dvalues.tobytes() == ut_ref.tobytes()


def test_window_covers_a_source_away_from_the_data():
    # bump data at x = 0 and a source near x = 5 that switches on at t = 0.2,
    # far outside the data's light cone and after the Taylor start: u there
    # is nonzero right after the switch-on, and exactly 0 outside the union
    # of the two numerical cones
    src = SourceTerm(
        f=lambda t, x: max(0.0, t - 0.2) * max(0.0, 1.0 - (x - 5.0) ** 2) ** 4,
        support=(0.2, math.inf, 4.0, 6.0),
    )
    grid = GridSpec(dx=1.0 / 25, cfl=0.9, x_max=8.0, t_max=1.0)
    data = bump_profile(R=1.0, eps=0.5)
    field = solve_linear_fd(P2, data, src, grid)
    near_source = np.abs(field.xs - 5.0) <= 0.5
    first = math.floor(0.2 / grid.dt) + 2  # first level fed by a nonzero source
    assert np.all(field.values[first - 1][np.abs(field.xs - 5.0) <= 2.0] == 0.0)
    for k in (first, first + 1, first + 2):
        assert np.all(field.values[k][near_source] > 0.0)
    for k in range(len(field.times)):
        reach = (k + 1) * grid.dx
        outside = (np.abs(field.xs) > data.R + reach) & (np.abs(field.xs - 5.0) > 1.0 + reach)
        assert outside.sum() > 0
        assert np.all(field.values[k][outside] == 0.0)
        assert np.all(field.dvalues[k][outside] == 0.0)


def test_window_clipped_at_the_grid_ends():
    # at cfl = 0.9 the numerical cone (one node per step) outruns the light
    # cone and reaches the boundary nodes near t = 6.3, before the blow-up;
    # values recorded with the stepper that updated the whole grid
    grid = GridSpec(dx=1.0 / 50, cfl=0.9, x_max=8.0, t_max=6.9)
    prof = bump_profile(R=1.0, eps=0.34, amplitude=8.0)
    field, record = solve_semilinear_field(P2, prof, 1.5, grid, store_every=3)
    assert record.blow_up and record.T_est == float.fromhex("0x1.aed916872b022p+2")
    assert len(field.times) == 125
    last_u, last_ut = field.values[-1], field.dvalues[-1]
    assert last_u[0] == last_u[-1] == last_ut[0] == last_ut[-1] == 0.0
    assert last_u[1] == float.fromhex("0x1.af4ebab26b054p-44")
    assert last_u[-2] == float.fromhex("0x1.af4ebab26b05ap-44")
    assert last_ut[2] == float.fromhex("0x1.590a630dd8630p-34")
    assert last_ut[-3] == float.fromhex("0x1.590a630dd862dp-34")
    assert last_u[400] == float.fromhex("0x1.23cded3ddf356p+0")


@pytest.mark.parametrize("threshold", [math.nan, 0.0, -1.0])
def test_threshold_must_be_positive(threshold):
    grid = GridSpec(dx=0.1, cfl=0.9, x_max=3.0, t_max=2.0)
    prof = bump_profile(R=1.0, eps=0.5)
    sys = SystemParams(P2, P2, p=2.0, q=2.0)
    runs = [
        lambda: detect_lifespan(P2, prof, 1.5, grid, threshold=threshold),
        lambda: detect_lifespan(P2, prof, 1.5, grid, threshold=threshold, refine=True),
        lambda: detect_lifespan_system(sys, prof, prof, grid, threshold=threshold),
        lambda: solve_semilinear_field(P2, prof, 1.5, grid, threshold=threshold),
    ]
    for run in runs:
        with pytest.raises(ValueError, match="threshold must be > 0"):
            run()


def test_cone_validation_rejects_small_domain():
    grid = GridSpec(dx=0.1, cfl=0.9, x_max=2.0, t_max=3.0)
    with pytest.raises(ValueError, match="light cone"):
        detect_lifespan(P2, poly_profile(), 1.5, grid)


def test_system_zero_data_never_blows_up():
    sys = SystemParams(P2, P2, p=2.0, q=2.0)
    grid = GridSpec(dx=0.05, cfl=0.9, x_max=4.0, t_max=3.0)
    record = detect_lifespan_system(sys, ZERO_DATA, ZERO_DATA, grid)
    assert not record.blow_up


def test_symmetric_system_matches_single_equation():
    # identical components and data: u = v at every step, so the coupled
    # run reproduces the single-equation lifespan exactly
    sys = SystemParams(P2, P2, p=1.5, q=1.5)
    grid = GridSpec(dx=1.0 / 50, cfl=1.0, x_max=12.0, t_max=10.0)
    prof = bump_profile(R=1.0, eps=0.5, amplitude=8.0)
    rec_sys = detect_lifespan_system(sys, prof, prof, grid)
    rec_single = detect_lifespan(P2, prof, 1.5, grid)
    assert rec_sys.blow_up and rec_single.blow_up
    assert rec_sys.T_est == rec_single.T_est


def test_decoupled_mode_matches_independent_runs():
    # self-coupling diagnostic: each component evolves on its own, so the
    # system lifespan is the earlier of the two single-equation lifespans
    sys = SystemParams(P2, ScaleInvariantParams(3.0, 0.0), p=1.5, q=1.8)
    grid = GridSpec(dx=1.0 / 50, cfl=1.0, x_max=12.0, t_max=10.0)
    prof1 = bump_profile(R=1.0, eps=0.5, amplitude=8.0)
    prof2 = bump_profile(R=1.0, eps=0.5, amplitude=6.0)
    rec = detect_lifespan_system(sys, prof1, prof2, grid, cross_coupling=False)
    t1 = detect_lifespan(P2, prof1, 1.5, grid).T_est
    t2 = detect_lifespan(ScaleInvariantParams(3.0, 0.0), prof2, 1.8, grid).T_est
    assert rec.blow_up
    assert abs(rec.T_est - min(t1, t2)) <= grid.dt


def test_system_coupling_map_is_relabelling_invariant():
    # cross coupling with p != q: u is forced by |v_t|^p and v by |u_t|^q,
    # so swapping the components together with (p, q) and the data must
    # reproduce the same run bit for bit
    c1, c2 = P2, ScaleInvariantParams(3.0, 0.0)
    grid = GridSpec(dx=1.0 / 50, cfl=1.0, x_max=12.0, t_max=10.0)
    d1 = bump_profile(R=1.0, eps=0.5, amplitude=8.0)
    d2 = bump_profile(R=1.0, eps=0.5, amplitude=6.0)
    rec = detect_lifespan_system(SystemParams(c1, c2, p=1.5, q=2.0), d1, d2, grid, refine=True)
    swapped = detect_lifespan_system(
        SystemParams(c2, c1, p=2.0, q=1.5), d2, d1, grid, refine=True
    )
    assert rec.blow_up and swapped.blow_up
    assert rec.T_est == swapped.T_est
    assert rec.richardson_pair == swapped.richardson_pair
    # pins which exponent forces which component: with u forced by |v_t|^q
    # instead, the pair moves to (5.22, 4.97)
    assert rec.richardson_pair == pytest.approx((4.78, 4.52), abs=1e-9)


def test_censored_record_uses_infinity_marker():
    grid = GridSpec(dx=1.0 / 25, cfl=1.0, x_max=3.0, t_max=1.5)
    prof = bump_profile(R=1.0, eps=0.01, amplitude=0.1)
    record = detect_lifespan(P2, prof, 1.5, grid)
    assert not record.blow_up
    assert math.isinf(record.T_est)
    assert record.converged is None


def test_lifespan_csv_schema(tmp_path):
    censor_grid = GridSpec(dx=1.0 / 25, cfl=1.0, x_max=3.0, t_max=1.5)
    blow_grid = GridSpec(dx=1.0 / 25, cfl=1.0, x_max=7.0, t_max=5.5)
    records = [
        detect_lifespan(P2, bump_profile(R=1.0, eps=0.01, amplitude=0.1), 1.5, censor_grid),
        detect_lifespan(
            P2, bump_profile(R=1.0, eps=0.5, amplitude=20.0), 1.5, blow_grid, refine=True
        ),
    ]
    path = tmp_path / "records.csv"
    lifespan_records_to_csv(records, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "eps,T_est,blow_up,threshold,dx,cfl,converged"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[1] == "inf" and first[2] == "false" and first[6] == "na"
    second = lines[2].split(",")
    assert second[2] == "true" and second[6] in ("true", "false")
