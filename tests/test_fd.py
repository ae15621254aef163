"""Finite-difference solver: scheme order, blow-up detection, system coupling."""

import contextlib
import ctypes
import functools
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from helpers import poly_bump, poly_bump_derivative, poly_profile

from siwave import fd
from siwave.fd import (
    RICHARDSON_RTOL,
    LifespanRecord,
    _power_component,
    _run,
    detect_lifespan,
    detect_lifespan_system,
    lifespan_records_to_csv,
    solve_linear_fd,
    solve_semilinear_field,
)
from siwave.grids import GridSpec
from siwave.linear import solve_linear_point
from siwave.params import ScaleInvariantParams, SystemParams
from siwave.profiles import (
    CauchyProfile, SourceTerm, bump_profile, smooth_bump, smooth_bump_derivative, zero_source,
)

P0 = ScaleInvariantParams(0.0, 0.0)
P1 = ScaleInvariantParams(1.0, 0.0)
P2 = ScaleInvariantParams(2.0, 0.0)

ZERO_DATA = CauchyProfile(u0=lambda x: 0.0, u1=lambda x: 0.0, R=1.0, eps=1.0)


def _threads():
    """The number of threads of this process, or None where /proc does not
    list them."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


@pytest.fixture(autouse=True)
def no_helper_thread_left():
    # a run may start one helper thread for its large blocks; none may
    # outlive the run, whether it returns, raises or is interrupted
    before = _threads()
    yield
    assert _threads() == before


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


def test_linear_mode_samples_the_source_once_per_level():
    # a source of exact arithmetic only, so the array call and the per-node
    # floats give the same bits; the scalar-only copy raises on arrays
    def f(t, x):
        return t * (1.0 - x * x) * (x * x < 1.0)

    calls = {"array": [], "scalar": []}

    def counted(fn, log):
        def sample(t, x):
            log.append(isinstance(x, np.ndarray))
            return fn(t, x)

        return sample

    box = (0.0, math.inf, -1.0, 1.0)
    grid = GridSpec(dx=0.05, cfl=0.5, x_max=2.0, t_max=1.0)
    fast = solve_linear_fd(P1, ZERO_DATA, SourceTerm(counted(f, calls["array"]), box), grid)
    slow = solve_linear_fd(
        P1, ZERO_DATA, SourceTerm(counted(lambda t, x: f(float(t), float(x)), calls["scalar"]), box), grid
    )
    assert fast.values.tobytes() == slow.values.tobytes()
    # the Taylor start and one call per level; the array path is tried once
    assert calls["array"] == [True] * (grid.n_steps() + 1)
    assert calls["scalar"].count(True) == 1
    assert calls["scalar"].count(False) == (grid.n_steps() + 1) * len(grid.xs())


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


@pytest.mark.parametrize("bad", [2.0, 1.5, math.nan, True, np.bool_(True), 0, -1])
@pytest.mark.parametrize("solve", ["semilinear", "linear"])
def test_store_every_must_be_an_integer_at_least_one(solve, bad):
    grid = GridSpec(dx=0.25, cfl=1.0, x_max=4.0, t_max=1.0)
    prof = bump_profile(R=1.0, eps=0.1, amplitude=1.0)
    run = {
        "semilinear": lambda every: solve_semilinear_field(P2, prof, 1.5, grid, store_every=every)[0],
        "linear": lambda every: solve_linear_fd(P2, prof, zero_source(), grid, store_every=every),
    }[solve]
    with pytest.raises(ValueError, match="store_every"):
        run(bad)
    field, want = run(np.int64(2)), run(2)
    assert field.times.tobytes() == want.times.tobytes()
    assert field.values.tobytes() == want.values.tobytes()


def test_spatial_mean_nondecreasing_with_nonnegative_data():
    # nonnegative data, delta >= 1, massless: int u dx is nondecreasing
    grid = GridSpec(dx=1.0 / 50, cfl=1.0, x_max=8.0, t_max=6.0)
    prof = bump_profile(R=1.0, eps=0.5, amplitude=4.0)
    field, _ = solve_semilinear_field(P2, prof, 1.5, grid, store_every=5)
    masses = [float(np.trapezoid(field.values[i], field.xs)) for i in range(len(field.times))]
    diffs = np.diff(masses)
    assert np.min(diffs, initial=0.0) >= -1e-12


def _full_grid_run(specs, grid, threshold=1e8, laplacian=False):
    """Reference stepper: the same scheme, every node of every level, no
    buffers and always the mass product.  ``specs`` holds one (params, data,
    src, p) per component, forced by |u_t|^p of component ``src``; returns
    (T_est, u rows, u_t rows), the rows as one array per component.

    It steps (1+lam) u^{k+1} = c^2 (u_{i+1} + u_{i-1}) + 2 (1-c^2) u
    - (1-lam) u^{k-1} + dt^2 (rhs - mass u), with 2u for the neighbour sum
    at the grid ends and the c^2 terms left out at c = cfl = 1, as the
    stepper does.  With ``laplacian`` it steps the scheme's earlier form,
    (2u - (1-lam) u^{k-1} + dt^2 (u_xx - mass u + rhs)) / (1+lam) with
    u_xx = ((u_{i+1} - 2u) + u_{i-1}) / dx^2, which rounds differently and
    is not exactly even; both take the Taylor start with their own u_xx."""
    xs, dt, dx, c = grid.xs(), grid.dt, grid.dx, grid.cfl

    def lap(u):
        out = np.zeros_like(u)
        if laplacian:
            out[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (dx * dx)
        else:
            out[1:-1] = ((u[2:] + u[:-2]) - 2.0 * u[1:-1]) / (dx * dx)
        return out

    def neighbours(u):
        out = 2.0 * u
        out[1:-1] = u[2:] + u[:-2]
        return c * c * out + 2.0 * (1.0 - c * c) * u if c != 1.0 else out

    def power(ut, p):
        a = np.abs(ut)
        return a * np.sqrt(a) if p == 1.5 else a**p

    u_prev = [np.array([d.eps * d.u0(float(x)) for x in xs]) for _, d, _, _ in specs]
    ut = [np.array([d.eps * d.u1(float(x)) for x in xs]) for _, d, _, _ in specs]
    u = [
        u0 + dt * u1 + 0.5 * dt * dt * (
            lap(u0) - par.mu * u1 - par.nu2 * u0 + power(ut[src], p)
        )
        for (par, _, src, p), u0, u1 in zip(specs, u_prev, ut)
    ]
    us, uts = [[u0] for u0 in u_prev], [[u1] for u1 in ut]
    t_est = math.inf
    for k in range(1, grid.n_steps() + 1):
        t = k * dt
        u_next = []
        for (par, _, src, p), uc, up in zip(specs, u, u_prev):
            lam = 0.5 * par.mu * dt / (1.0 + t)
            mass = par.nu2 / (1.0 + t) ** 2
            force = power(ut[src], p)
            if laplacian:
                step = 2.0 * uc - (1.0 - lam) * up + dt * dt * (lap(uc) - mass * uc + force)
            else:
                step = neighbours(uc) - (1.0 - lam) * up + dt * dt * (force - mass * uc)
            u_next.append(step / (1.0 + lam))
        ut = [(un - up) / (2.0 * dt) for un, up in zip(u_next, u_prev)]
        for rows, row in zip(us, u):
            rows.append(row)
        for rows, row in zip(uts, ut):
            rows.append(row)
        if any(float(np.max(np.abs(v))) > threshold for v in ut):
            t_est = t
            break
        u_prev, u = u, u_next
    return t_est, [np.array(rows) for rows in us], [np.array(rows) for rows in uts]


#: cross-coupled system on the cfl = 0.9 grid: blows up at t = 3.708, after the
#: window reaches the grid ends near t = 3.6
CROSS_SYSTEM = SystemParams(P2, ScaleInvariantParams(3.0, 0.75), p=1.5, q=2.0)


#: Bound on the move of a stored row against the scheme's earlier Laplacian
#: form, relative to the row's largest |value|.  Measured worst over the
#: reference cases: 1.83e-11, on the last u_t row of the P1 (p = 2,
#: cfl = 0.5) case, the level whose peak crosses the blow-up threshold;
#: every other case stays under 1.2e-12.  The bound leaves a margin of
#: about 5x.
LAPLACIAN_FORM_RTOL = 1e-10


@pytest.mark.parametrize(
    "params, p, cfl, prof",
    [
        (P2, 1.5, 1.0, bump_profile(R=1.0, eps=0.5, amplitude=8.0)),
        (ScaleInvariantParams(3.0, 0.5), 1.7, 0.9, bump_profile(R=1.5, eps=0.3, amplitude=4.0)),
        (P1, 2.0, 0.5, bump_profile(R=1.0, eps=0.5, amplitude=8.0, u0_zero=True)),
        (CROSS_SYSTEM, None, 0.9, bump_profile(R=1.0, eps=0.6, amplitude=8.0)),
        # censored after 125 levels, four blocks of 32 levels from 1, 33, 65
        # and 97 (the last one 29 levels long): the window of the block from
        # level 97 reaches the grid ends there, three levels before the cone
        # does; with a mass product and the general power
        (ScaleInvariantParams(4.0, 1.0), 1.8, 0.8, bump_profile(R=1.0, eps=0.4, amplitude=8.0)),
        # cfl = 1 with a mass product, censored: the cone meets the grid ends
        # at t_max, so the window of the last block holds the end nodes and
        # steps them with 2u for the neighbour sum (they stay +0.0 here)
        (ScaleInvariantParams(3.0, 0.75), 2.0, 1.0, bump_profile(R=1.0, eps=0.25, amplitude=8.0)),
    ],
)
def test_windowed_stepper_matches_full_grid_reference(params, p, cfl, prof):
    # the window reaches the grid ends before t_max at cfl < 1; every stored
    # bit of every component must equal the whole-grid update, on the
    # massless step (nu2 = 0) and on the one with a mass product, and stay
    # within LAPLACIAN_FORM_RTOL of the scheme's earlier Laplacian form
    grid = GridSpec(dx=1.0 / 25, cfl=cfl, x_max=prof.R + 4.0, t_max=4.0)
    if isinstance(params, SystemParams):
        # u is massless and forced by |v_t|^p, v has a mass and is forced by
        # |u_t|^q; the stepper stores the rows of its first component, so
        # each component is run once in front
        specs = [(params.comp1, prof, 1, params.p), (params.comp2, prof, 0, params.q)]
        t_ref, u_ref, ut_ref = _full_grid_run(specs, grid)
        assert detect_lifespan_system(params, prof, prof, grid).T_est == t_ref
        u_first = [
            _power_component(params.comp1, prof, 1, params.p),
            _power_component(params.comp2, prof, 0, params.q),
        ]
        v_first = [
            _power_component(params.comp2, prof, 1, params.q),
            _power_component(params.comp1, prof, 0, params.p),
        ]
        runs = [_run(comps, grid, 1e8, store_every=1) for comps in (u_first, v_first)]
        assert [t_est for _, t_est, _ in runs] == [t_ref, t_ref]
        fields = [(values, dvalues) for _, _, (_, values, dvalues) in runs]
    else:
        specs = [(params, prof, 0, p)]
        t_ref, u_ref, ut_ref = _full_grid_run(specs, grid)
        field, record = solve_semilinear_field(params, prof, p, grid)
        assert record.T_est == t_ref
        fields = [(field.values, field.dvalues)]
    t_lap, u_lap, ut_lap = _full_grid_run(specs, grid, laplacian=True)
    assert t_lap == t_ref
    assert len(fields) == len(u_ref) == len(u_lap)
    for (values, dvalues), *refs in zip(fields, u_ref, ut_ref, u_lap, ut_lap):
        u_rows, ut_rows, u_lap_rows, ut_lap_rows = refs
        assert values.tobytes() == u_rows.tobytes()
        assert dvalues.tobytes() == ut_rows.tobytes()
        for rows, lap_rows in ((values, u_lap_rows), (dvalues, ut_lap_rows)):
            move = np.max(np.abs(rows - lap_rows), axis=1)
            assert np.all(move <= LAPLACIAN_FORM_RTOL * np.max(np.abs(lap_rows), axis=1))


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


@pytest.mark.parametrize("cfl", [1.0, 0.5])
def test_grid_end_nodes_step_like_interior_nodes(cfl):
    # zero data and f = 1 everywhere: the solution t^2/2 is the same at every
    # node, so the grid ends, which take 2u for the neighbour sum, hold the
    # interior's bits at every level (no run with local data ever moves them)
    grid = GridSpec(dx=0.1, cfl=cfl, x_max=2.0, t_max=1.0)
    src = SourceTerm(f=lambda t, x: 1.0, support=(0.0, math.inf, -2.0, 2.0))
    field = solve_linear_fd(P0, ZERO_DATA, src, grid)
    first = np.repeat(field.values[:, :1], len(field.xs), axis=1)
    assert field.values.tobytes() == first.tobytes()
    assert field.values[-1, 0] == pytest.approx(0.5 * field.times[-1] ** 2, rel=1e-12)


def test_window_clipped_at_the_grid_ends():
    # at cfl = 0.9 the numerical cone (one node per step) outruns the light
    # cone and reaches the boundary nodes near t = 6.3, before the blow-up;
    # the hex values were recorded with the stepper that updated the whole
    # grid in the scheme's earlier Laplacian form, which was not exactly
    # even: the symmetric form stays within LAPLACIAN_FORM_RTOL of each value
    # and is mirror-symmetric bit for bit
    grid = GridSpec(dx=1.0 / 50, cfl=0.9, x_max=8.0, t_max=6.9)
    prof = bump_profile(R=1.0, eps=0.34, amplitude=8.0)
    field, record = solve_semilinear_field(P2, prof, 1.5, grid, store_every=3)
    assert record.blow_up and record.T_est == float.fromhex("0x1.aed916872b022p+2")
    assert len(field.times) == 125
    last_u, last_ut = field.values[-1], field.dvalues[-1]
    assert last_u[0] == last_u[-1] == last_ut[0] == last_ut[-1] == 0.0
    assert last_u[1] == last_u[-2]
    assert last_ut[2] == last_ut[-3]
    laplacian_form = [
        (last_u[1], "0x1.af4ebab26b054p-44"),
        (last_u[-2], "0x1.af4ebab26b05ap-44"),
        (last_ut[2], "0x1.590a630dd8630p-34"),
        (last_ut[-3], "0x1.590a630dd862dp-34"),
        (last_u[400], "0x1.23cded3ddf356p+0"),
    ]
    for value, recorded in laplacian_form:
        assert value == pytest.approx(float.fromhex(recorded), rel=LAPLACIAN_FORM_RTOL, abs=0.0)


@pytest.mark.parametrize("cfl", [1.0, 0.9])
def test_full_window_run_of_even_data_is_exactly_even(cfl):
    # the neighbour sum u_{i+1} + u_{i-1} of the step and of the Taylor start
    # is the same sum at x and -x, and every other operation is per node, so
    # a stored run (it steps the full window, into the grid ends at cfl =
    # 0.9) of bump data is even bit for bit
    grid = GridSpec(dx=1.0 / 50, cfl=cfl, x_max=8.0, t_max=6.9)
    prof = bump_profile(R=1.0, eps=0.34, amplitude=8.0)
    field, _ = solve_semilinear_field(P2, prof, 1.5, grid)
    assert len(field.times) > 300
    for rows in (field.values, field.dvalues):
        assert rows.tobytes() == rows[:, ::-1].tobytes()


def test_stored_rows_are_held_once():
    # rows go straight into the field's arrays, so the traced peak of a
    # stored run stays near the field's own size (a list of row copies
    # stacked at the end would hold it twice)
    grid = GridSpec(dx=1.0 / 100, cfl=1.0, x_max=6.0, t_max=5.0)
    prof = bump_profile(R=1.0, eps=0.05, amplitude=8.0)
    tracemalloc.start()
    try:
        field, record = solve_semilinear_field(P2, prof, 1.5, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not record.blow_up and len(field.times) == grid.n_steps() + 1
    size = field.times.nbytes + field.values.nbytes + field.dvalues.nbytes
    assert peak <= 1.3 * size


def test_early_blow_up_holds_only_the_rows_it_keeps(monkeypatch):
    # 5001 levels of 10101 nodes would take 808 MB of rows; the run blows up
    # at level 140, past the reservation (cut here to 1 MiB, six rows), so
    # the rows grow as they come and end cut to the ones kept
    monkeypatch.setattr(fd, "_ROW_RESERVE", 1 << 20)
    grid = GridSpec(dx=1.0 / 25, cfl=1.0, x_max=202.0, t_max=200.0)
    prof = bump_profile(R=1.0, eps=0.5, amplitude=8.0)
    tracemalloc.start()
    try:
        field, record = solve_semilinear_field(P2, prof, 1.5, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert record.blow_up and 40 < len(field.times) < 200
    assert field.values.base is None and field.dvalues.base is None
    size = field.times.nbytes + field.values.nbytes + field.dvalues.nbytes
    assert peak <= 1.3 * size


def test_block_size_leaves_every_bit(monkeypatch):
    # a block of one level steps the per-level light-cone window; a longer
    # block steps a wider window whose extra nodes hold a zero state and
    # update to +0.0
    params, prof = ScaleInvariantParams(4.0, 1.0), bump_profile(R=1.0, eps=0.4, amplitude=8.0)
    grid = GridSpec(dx=1.0 / 25, cfl=0.8, x_max=5.0, t_max=4.0)
    _numpy_levels(monkeypatch)
    fields = []
    for block in (1, 7, fd._BLOCK):
        monkeypatch.setattr(fd, "_BLOCK", block)
        fields.append(solve_semilinear_field(params, prof, 1.8, grid)[0])
    for field in fields[1:]:
        assert field.values.tobytes() == fields[0].values.tobytes()
        assert field.dvalues.tobytes() == fields[0].dvalues.tobytes()


def _split_everywhere(patch):
    """Splits every block whose halves hold more nodes than it has levels,
    as on a host with a second CPU."""
    patch.setattr(fd, "_SPLIT_WORK", 0)
    patch.setattr(fd.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture(params=["forked", "serial"])
def split_blocks(request, monkeypatch):
    """Steps the runs of a test with every block that can be split shared
    between the caller and the helper thread (id "forked"), or each block on
    the caller alone (id "serial"); returns the list of the kernel's split
    calls and whether blocks are split."""
    splitting = request.param == "forked"
    if splitting:
        _split_everywhere(monkeypatch)
    else:
        monkeypatch.setattr(fd, "_SPLIT_WORK", math.inf)
    splits = []
    kernel = fd._kernel()
    if kernel is not None:
        def split(*args):
            splits.append(args[2:])
            return kernel.split(*args)

        monkeypatch.setattr(fd, "_kernel", lambda: kernel._replace(split=split))
    return splits, splitting and kernel is not None


def _serial_record(components, grid, threshold):
    """The refined lifespan record made of two explicit runs, coarse first,
    every block on the caller alone."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fd, "_SPLIT_WORK", math.inf)
        blow_coarse, t_coarse, _ = _run(components, grid, threshold)
        blow_fine, t_fine, _ = _run(components, replace(grid, dx=0.5 * grid.dx), threshold)
    return LifespanRecord(
        eps=components[0].data.eps,
        T_est=t_fine,
        blow_up=blow_fine,
        threshold_used=threshold,
        grid=grid,
        richardson_pair=(t_coarse, t_fine),
        converged=blow_coarse and blow_fine and abs(t_coarse - t_fine) <= RICHARDSON_RTOL * t_fine,
    )


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "system, p, prof, grid, threshold",
    [
        (None, 1.5, bump_profile(R=1.0, eps=0.5, amplitude=8.0),
         GridSpec(dx=1.0 / 50, cfl=1.0, x_max=12.0, t_max=10.0), 1e8),
        (CROSS_SYSTEM, None, bump_profile(R=1.0, eps=0.6, amplitude=8.0),
         GridSpec(dx=1.0 / 25, cfl=0.9, x_max=5.0, t_max=4.0), 1e8),
        (None, 1.5, bump_profile(R=1.0, eps=0.01, amplitude=0.1),
         GridSpec(dx=1.0 / 25, cfl=1.0, x_max=3.0, t_max=1.5), 1e8),
        (None, 2.0, bump_profile(R=1.0, eps=0.5, amplitude=8.0),
         GridSpec(dx=1.0 / 50, cfl=1.0, x_max=12.0, t_max=10.0), math.inf),
    ],
    ids=["single", "cross-system", "censored", "non-finite-stop"],
)
def test_refined_lifespan_is_the_serial_pair(split_blocks, system, p, prof, grid, threshold):
    splits, splitting = split_blocks
    if system is None:
        components = [_power_component(P2, prof, 0, p)]
        record = detect_lifespan(P2, prof, p, grid, threshold=threshold, refine=True)
    else:
        components = [
            _power_component(system.comp1, prof, 1, system.p),
            _power_component(system.comp2, prof, 0, system.q),
        ]
        record = detect_lifespan_system(system, prof, prof, grid, threshold=threshold, refine=True)
    assert bool(splits) == splitting
    assert record == _serial_record(components, grid, threshold)


def _numpy_levels(monkeypatch):
    """Steps every level with the numpy level loop, as where the compiled
    kernel cannot be built: the loop whose calls the tests record."""
    monkeypatch.setattr(fd, "_kernel", lambda: None)


def _offset(view):
    """Element offset of a 1-D view into the buffer that owns it."""
    return (view.ctypes.data - view.base.ctypes.data) // view.itemsize


def _window_edges(monkeypatch, grid, steps=None):
    """The lower edge, as a node index of ``grid``, of every window the
    stepper advances in this process, one entry per level: the window of
    the level's peak max |u_t|, the one call that reads every component's
    u_t.  A buffer holds the m components of a node side by side, so its
    element offset is m times the node index.

    Every neighbour-sum call of the step, the np.add of two views of one
    buffer, appends to ``steps`` the number of components it sums: half
    the offset between its inputs, or 0 when a view is strided."""
    edges = []
    n = len(grid.xs())

    def peak(win):
        m, rest = divmod(win.base.size, n)
        assert rest == 0 and m >= 1
        offset = _offset(win)
        assert offset % m == 0 and win.size % m == 0
        edges.append(offset // m)
        return np.maximum.reduce(win)

    def spy_add(a, b, *out):
        if steps is not None and a is not b and a.base is not None and a.base is b.base:
            contiguous = all(v.strides == (v.itemsize,) for v in (a, b, *out))
            steps.append((_offset(a) - _offset(b)) // 2 if contiguous else 0)
        return np.add(a, b, *out)

    class Numpy:
        """numpy as fd sees it, with the peak's reduction and np.add spied on."""

        maximum = SimpleNamespace(reduce=peak)
        add = staticmethod(spy_add)

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(fd, "np", Numpy())
    _numpy_levels(monkeypatch)
    return edges


def test_even_lifespan_steps_x_nonnegative_only(monkeypatch):
    # bump data are even: a lifespan run pins its window at the centre node
    grid = GridSpec(dx=1.0 / 25, cfl=1.0, x_max=7.0, t_max=6.0)
    prof = bump_profile(R=1.0, eps=0.5, amplitude=8.0)
    centre = len(grid.xs()) // 2
    edges = _window_edges(monkeypatch, grid)
    assert detect_lifespan(P2, prof, 1.5, grid).blow_up
    assert edges and set(edges) == {centre}
    edges.clear()
    assert detect_lifespan_system(CROSS_SYSTEM, prof, prof, grid).blow_up
    assert edges and set(edges) == {centre}


@pytest.mark.parametrize(
    "system, prof, blow_up",
    [
        (CROSS_SYSTEM, bump_profile(R=1.0, eps=0.5, amplitude=8.0), True),
        (SystemParams(P2, P2, p=1.5, q=2.0), bump_profile(R=1.0, eps=0.01, amplitude=0.1), False),
    ],
    ids=["cross-system", "shared-coefficients-censored"],
)
def test_system_steps_all_components_in_one_call_per_level(monkeypatch, system, prof, blow_up):
    # the components share one interleaved buffer, so a level is one
    # neighbour-sum call over a contiguous window of both components, on
    # both coefficient paths and with the mirror on or off
    grid = GridSpec(dx=1.0 / 25, cfl=1.0, x_max=7.0, t_max=6.0)
    steps = []
    edges = _window_edges(monkeypatch, grid, steps)
    for data2 in (prof, ODD_DATA):
        edges.clear()
        steps.clear()
        record = detect_lifespan_system(system, prof, data2, grid)
        assert record.blow_up == blow_up
        levels = round(record.T_est / grid.dt) if blow_up else grid.n_steps()
        assert len(edges) == levels
        assert steps == [2] * levels


#: the criterion-9 sweep at dx = 1/100, the seed-0 system_sweep benchmark
#: sweep, and the cross system of unequal coefficients (one step call per
#: component for the lam and mass products) on the same grid, as (system,
#: eps, grid) with system None for the single equation; every record is
#: refined
C9_GRID = GridSpec(dx=1.0 / 100, cfl=1.0, x_max=93.5, t_max=92.0)
SWEEP_SYSTEM = SystemParams(P2, P2, p=1.5, q=2.0)
SWEEP_SYSTEM_GRID = GridSpec(dx=1.0 / 100, cfl=1.0, x_max=25.0, t_max=24.0)
EVEN_SWEEPS = (
    [(None, 0.5 * 10.0 ** (-k / 4.0), C9_GRID) for k in range(7)]
    + [(SWEEP_SYSTEM, eps, SWEEP_SYSTEM_GRID) for eps in (0.25, 0.25 / math.sqrt(2.0), 0.125)]
    + [(CROSS_SYSTEM, eps, SWEEP_SYSTEM_GRID) for eps in (0.6, 0.35, 0.25)]
)


def _sweep_record(system, eps, grid):
    prof = bump_profile(R=1.0, eps=eps, amplitude=8.0)
    if system is not None:
        return detect_lifespan_system(system, prof, prof, grid, refine=True)
    return detect_lifespan(P2, prof, 1.5, grid, refine=True)


@functools.cache
def _full_window_record(system, eps, grid):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fd, "_even", lambda arrays: False)
        patch.setattr(fd, "_SPLIT_WORK", math.inf)
        return _sweep_record(system, eps, grid)


@pytest.mark.parametrize(
    "system, eps, grid", EVEN_SWEEPS,
    ids=[f"c9-{k}" for k in range(7)] + [f"system-{k}" for k in range(3)]
    + [f"cross-system-{k}" for k in range(3)],
)
def test_mirrored_lifespan_is_the_full_window_record(split_blocks, system, eps, grid):
    # the mirrored run and the full window are both the exactly even
    # solution: no T_est, blow-up flag or Richardson pair of these sweeps may
    # tell them apart, with or without split blocks (the full window steps
    # each block on the caller alone)
    splits, splitting = split_blocks
    record = _sweep_record(system, eps, grid)
    assert bool(splits) == splitting
    assert record.blow_up
    assert record == _full_window_record(system, eps, grid)


ODD_DATA = CauchyProfile(
    u0=lambda x: 0.0, u1=smooth_bump_derivative(1.0, 8.0), R=1.0, eps=0.5
)


@pytest.mark.parametrize("case", ["odd data", "one uneven component", "stored rows"])
def test_uneven_or_stored_runs_step_the_full_window(monkeypatch, case):
    # each run's window reaches left of the centre node, and its lifespan is
    # the one of the whole-grid reference
    grid = GridSpec(dx=1.0 / 25, cfl=1.0, x_max=5.0, t_max=4.0)
    prof = bump_profile(R=1.0, eps=0.5, amplitude=8.0)
    edges = _window_edges(monkeypatch, grid)
    if case == "odd data":
        t_ref = _full_grid_run([(P2, ODD_DATA, 0, 1.5)], grid)[0]
        t_est = detect_lifespan(P2, ODD_DATA, 1.5, grid).T_est
    elif case == "one uneven component":
        c = CROSS_SYSTEM
        t_ref = _full_grid_run([(c.comp1, prof, 1, c.p), (c.comp2, ODD_DATA, 0, c.q)], grid)[0]
        t_est = detect_lifespan_system(c, prof, ODD_DATA, grid).T_est
    else:
        t_ref = _full_grid_run([(P2, prof, 0, 1.5)], grid)[0]
        t_est = solve_semilinear_field(P2, prof, 1.5, grid, store_every=7)[1].T_est
    assert t_est == t_ref
    assert min(edges) < len(grid.xs()) // 2


@pytest.mark.parametrize("x_max", [3.0, 3.1], ids=["one node", "three nodes"])
def test_mirror_on_the_smallest_grids(monkeypatch, x_max):
    # x_max = R + t_max rounds to a one-node grid at x = 0, which cannot
    # hold the cone; on three nodes the ghost is the left grid end
    grid = GridSpec(dx=6.0, cfl=1.0 / 6.0, x_max=x_max, t_max=2.0)
    prof = bump_profile(R=1.0, eps=0.5, amplitude=8.0)
    if len(grid.xs()) == 1:
        with pytest.raises(ValueError, match="light cone"):
            detect_lifespan(P2, prof, 1.5, grid)
        return
    record = detect_lifespan(P2, prof, 1.5, grid)
    monkeypatch.setattr(fd, "_even", lambda arrays: False)
    assert record == detect_lifespan(P2, prof, 1.5, grid)


@pytest.mark.parametrize("bad_nodes", ["both grids", "fine grid only"])
def test_refined_lifespan_raises_as_the_serial_pair(split_blocks, bad_nodes):
    # the grids' first bad nodes differ, so the message tells which run
    # raised: a serial pair raises the coarse run's error first
    grid = GridSpec(dx=0.04, cfl=1.0, x_max=3.0, t_max=1.0)
    fine = replace(grid, dx=0.5 * grid.dx)
    if bad_nodes == "both grids":
        def bad(x):
            return 0.49 < x <= 1.0
    else:
        def bad(x):
            return abs(x) <= 1.0 and round((x + grid.x_max) / fine.dx) % 2 == 1

    def u1(x):
        if bad(x):
            raise ValueError(f"u1 undefined at x = {x!r}")
        return 0.0

    prof = CauchyProfile(u0=lambda x: 0.0, u1=u1, R=1.0, eps=1.0)
    components = [_power_component(P2, prof, 0, 1.5)]
    with pytest.raises(ValueError) as fine_error:
        _run(components, fine, 1e8)
    with pytest.raises(ValueError) as serial_error:
        _serial_record(components, grid, 1e8)
    assert (str(serial_error.value) == str(fine_error.value)) == (bad_nodes == "fine grid only")
    with pytest.raises(ValueError) as error:
        detect_lifespan(P2, prof, 1.5, grid, refine=True)
    assert str(error.value) == str(serial_error.value)
    assert split_blocks[0] == []


@pytest.mark.parametrize("system", [False, True], ids=["single", "system"])
def test_non_finite_datum_is_an_error_not_a_blow_up(split_blocks, system):
    # stepped, a NaN datum would read as a blow-up at the first level
    grid = GridSpec(dx=0.04, cfl=1.0, x_max=3.0, t_max=1.0)
    good = bump_profile(R=1.0, eps=0.5, amplitude=1.0)

    def nan_bump(x):
        return math.nan if abs(x) < 1.0 else 0.0

    bad = CauchyProfile(u0=nan_bump, u1=nan_bump, R=1.0, eps=0.5)
    if system:
        components = [
            _power_component(CROSS_SYSTEM.comp1, good, 1, CROSS_SYSTEM.p),
            _power_component(CROSS_SYSTEM.comp2, bad, 0, CROSS_SYSTEM.q),
        ]

        def lifespan(refine):
            return detect_lifespan_system(CROSS_SYSTEM, good, bad, grid, refine=refine)
    else:
        components = [_power_component(P2, bad, 0, 1.5)]

        def lifespan(refine):
            return detect_lifespan(P2, bad, 1.5, grid, refine=refine)
    xs = grid.xs()
    k = int(np.flatnonzero(np.abs(xs) < 1.0)[0])  # the bump is 0.0 on |x| = R
    message = f"datum u0 is not finite at node {k} (x={float(xs[k])!r}): nan"
    with pytest.raises(ValueError) as serial_error:
        _serial_record(components, grid, 1e8)
    assert str(serial_error.value) == message
    for refine in (False, True):
        with pytest.raises(ValueError) as error:
            lifespan(refine)
        assert str(error.value) == message
    assert split_blocks[0] == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_taylor_start_is_a_first_level_blow_up_without_warnings():
    # |u_1|^p overflows in the Taylor start: the run reports T_est = dt and
    # keeps row 0, and numpy prints no overflow warning
    grid = GridSpec(dx=0.1, cfl=1.0, x_max=4.0, t_max=2.0)
    huge = bump_profile(R=1.0, eps=1.0, amplitude=1e300)
    field, record = solve_semilinear_field(P2, huge, 1.5, grid)
    assert record.blow_up and record.T_est == grid.dt
    assert list(field.times) == [0.0]
    assert field.interpolate(0.0, 0.5) == pytest.approx(huge.u0(0.5), rel=1e-3)
    for record in (
        detect_lifespan(P2, huge, 1.5, grid, refine=True),
        detect_lifespan_system(CROSS_SYSTEM, huge, huge, grid, refine=True),
    ):
        assert record.blow_up and record.richardson_pair == (grid.dt, 0.5 * grid.dt)


def _raising_kernel(monkeypatch, error, at):
    """Makes the compiled kernel raise ``error`` in place of its block call
    number ``at`` (levels or split, counted from 1); returns the list of the
    process's thread counts at that call."""
    kernel, calls, seen = fd._kernel(), [], []

    def wrap(f):
        def call(*args):
            calls.append(f)
            if len(calls) == at:
                seen.append(_threads())
                raise error
            return f(*args)

        return call

    monkeypatch.setattr(
        fd, "_kernel", lambda: kernel._replace(levels=wrap(kernel.levels), split=wrap(kernel.split))
    )
    return seen


@pytest.mark.parametrize("error", [KeyboardInterrupt, RuntimeError])
def test_run_that_raises_leaves_no_helper_thread(kernel, split_blocks, monkeypatch, error):
    # a run that raises in a block after its first split one ends with its
    # helper thread joined; only split blocks start one
    splits, splitting = split_blocks
    start = _threads()
    seen = _raising_kernel(monkeypatch, error, 5)
    grid = GridSpec(dx=1.0 / 50, cfl=1.0, x_max=12.0, t_max=10.0)
    prof = bump_profile(R=1.0, eps=0.5, amplitude=8.0)
    with pytest.raises(error):
        detect_lifespan(P2, prof, 1.5, grid, refine=True)
    assert bool(splits) == splitting
    if start is not None:
        assert seen == [start + splitting]
        assert _threads() == start


def test_interrupted_refined_lifespan_starts_no_helper_thread(split_blocks):
    # an interrupt in the coarse grid's sampling ends the call before any
    # block is stepped or any helper thread started
    armed = []

    def u1(x):
        if armed:
            raise KeyboardInterrupt
        return 0.0

    prof = CauchyProfile(u0=lambda x: 0.0, u1=u1, R=1.0, eps=1.0)
    armed.append(True)  # the profile probes u1 once it is built
    grid = GridSpec(dx=0.04, cfl=1.0, x_max=3.0, t_max=1.0)
    with pytest.raises(KeyboardInterrupt):
        detect_lifespan(P2, prof, 1.5, grid, refine=True)
    assert split_blocks[0] == []


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


@pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf, -1.0, 0.5, 1.0])
def test_exponent_must_be_finite_and_above_one(p):
    grid = GridSpec(dx=0.1, cfl=0.9, x_max=3.0, t_max=2.0)
    prof = bump_profile(R=1.0, eps=0.5)
    runs = [
        lambda: detect_lifespan(P2, prof, p, grid),
        lambda: detect_lifespan(P2, prof, p, grid, refine=True),
        lambda: solve_semilinear_field(P2, prof, p, grid),
    ]
    for run in runs:
        with pytest.raises(ValueError, match="p must be finite and > 1"):
            run()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "p, pair", [(1.5, (5.359999999999999, 5.02)), (2.0, (2.38, 2.13)), (3.0, (0.76, 0.6))]
)
def test_infinite_threshold_stops_at_the_first_non_finite_level(p, pair):
    # with no finite threshold a run ends only when u^{k+1} turns non-finite,
    # reported as t_k + dt; an overflowed u_t with finite u does not end it
    grid = GridSpec(dx=1.0 / 50, cfl=1.0, x_max=12.0, t_max=10.0)
    prof = bump_profile(R=1.0, eps=0.5, amplitude=8.0)
    record = detect_lifespan(P2, prof, p, grid, threshold=math.inf, refine=True)
    assert record.blow_up
    assert record.richardson_pair == pair


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_infinite_threshold_system_stops_at_the_first_non_finite_level():
    sys = SystemParams(P2, ScaleInvariantParams(3.0, 0.75), p=1.5, q=2.0)
    grid = GridSpec(dx=1.0 / 50, cfl=1.0, x_max=20.0, t_max=19.0)
    prof = bump_profile(R=1.0, eps=0.3, amplitude=8.0)
    record = detect_lifespan_system(sys, prof, prof, grid, threshold=math.inf, refine=True)
    assert record.blow_up
    assert record.richardson_pair == (8.959999999999999, 8.5)


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
    components = [
        _power_component(sys.comp1, prof1, 0, sys.p),
        _power_component(sys.comp2, prof2, 1, sys.q),
    ]
    rec = fd._lifespan(components, grid, fd.DEFAULT_THRESHOLD, refine=False)
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


# -- the compiled level kernel -------------------------------------------

#: (components, grid) of the kernel checks: the full-grid reference matrix
#: with its general exponents 1.7 and 1.8 turned into 2.5 and 3, so that it
#: holds all four forms of the kernel, cfl < 1 into the grid ends and the
#: mass products; the shared-coefficient system; and odd data, whose runs
#: step the full window
KERNEL_CASES = [
    ([_power_component(P2, bump_profile(R=1.0, eps=0.5, amplitude=8.0), 0, 1.5)],
     GridSpec(dx=1.0 / 25, cfl=1.0, x_max=5.0, t_max=4.0)),
    ([_power_component(
        ScaleInvariantParams(3.0, 0.5), bump_profile(R=1.5, eps=0.3, amplitude=4.0), 0, 2.5)],
     GridSpec(dx=1.0 / 25, cfl=0.9, x_max=5.5, t_max=4.0)),
    ([_power_component(P1, bump_profile(R=1.0, eps=0.5, amplitude=8.0, u0_zero=True), 0, 2.0)],
     GridSpec(dx=1.0 / 25, cfl=0.5, x_max=5.0, t_max=4.0)),
    ([_power_component(
        ScaleInvariantParams(4.0, 1.0), bump_profile(R=1.0, eps=0.4, amplitude=8.0), 0, 3.0)],
     GridSpec(dx=1.0 / 25, cfl=0.8, x_max=5.0, t_max=4.0)),
    ([_power_component(
        ScaleInvariantParams(3.0, 0.75), bump_profile(R=1.0, eps=0.25, amplitude=8.0), 0, 2.0)],
     GridSpec(dx=1.0 / 25, cfl=1.0, x_max=5.0, t_max=4.0)),
    ([_power_component(CROSS_SYSTEM.comp1, bump_profile(R=1.0, eps=0.6, amplitude=8.0), 1, 1.5),
      _power_component(CROSS_SYSTEM.comp2, bump_profile(R=1.0, eps=0.6, amplitude=8.0), 0, 2.0)],
     GridSpec(dx=1.0 / 25, cfl=0.9, x_max=5.0, t_max=4.0)),
    ([_power_component(P2, bump_profile(R=1.0, eps=0.25, amplitude=8.0), 1, 1.5),
      _power_component(P2, bump_profile(R=1.0, eps=0.25, amplitude=8.0), 0, 2.0)],
     GridSpec(dx=1.0 / 25, cfl=1.0, x_max=9.0, t_max=8.0)),
    ([_power_component(P2, ODD_DATA, 0, 2.0)],
     GridSpec(dx=1.0 / 25, cfl=1.0, x_max=5.0, t_max=4.0)),
    # data cut off at |x| = R = x_max and one level (t_max is inside the
    # cone check's rounding slack): the only way a |u_t|^p forcing steps a
    # nonzero grid-end node
    ([_power_component(ScaleInvariantParams(3.0, 0.5), CauchyProfile(
        u0=lambda x: 1.0 + x if abs(x) <= 1.0 else 0.0,
        u1=lambda x: 2.0 - x if abs(x) <= 1.0 else 0.0, R=1.0, eps=1.0), 0, 2.0)],
     GridSpec(dx=0.1, cfl=0.5, x_max=1.0, t_max=5e-13)),
]
KERNEL_IDS = [
    "p1.5", "p2.5-cfl0.9-mass", "p2-cfl0.5", "p3-cfl0.8-mass-censored", "p2-mass-grid-ends",
    "cross-system", "shared-system", "odd-data", "data-at-grid-ends",
]


@pytest.fixture
def kernel():
    """The compiled kernel; a host without a working C compiler has only the
    numpy level loop, and then there is nothing to compare."""
    if fd._kernel() is None:
        pytest.skip("the level kernel cannot be built on this host")


def _outputs(components, grid, threshold):
    """What a run gives its callers: the records and rows of stored runs at
    store_every 1, 2 and 7 (their bytes), and the refined lifespan record."""
    runs = []
    for store_every in (None, 1, 2, 7):
        blow_up, t_est, rows = _run(components, grid, threshold, store_every)
        runs.append((blow_up, t_est, rows and [a.tobytes() for a in rows]))
    return runs, fd._lifespan(components, grid, threshold, refine=True)


@pytest.fixture(scope="module")
def builds(tmp_path_factory):
    """The kernel as fd builds it, whose steps the loader picks from its
    clones (the AVX2 one where the CPU has AVX2), and _fdlevel.c built
    again into a directory of the test with its clone macro defined empty:
    the one build of a host without clones, SSE2 only on x86-64."""
    dispatched = fd._kernel()
    if dispatched is None:
        pytest.skip("the level kernel cannot be built on this host")
    source = Path(fd.__file__).with_name("_fdlevel.c")
    lib = str(tmp_path_factory.mktemp("baseline") / "_fdlevel.so")
    for cc in fd._compilers():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            fd._compile([*cc, "-DFD_CLONES="], source, lib)
            break
    return [dispatched, fd._bind(ctypes.CDLL(lib))]


def _all_paths(monkeypatch, components, grid, threshold, kernels=None):
    """_outputs through each of ``kernels`` (fd's own build if None) with
    every block that can be shared with the helper thread, then on the
    caller alone, and last through the numpy loop."""
    assert fd._kernel_for(components) is not None
    outputs = []
    for kernel in kernels or [fd._kernel()]:
        for splitting in (True, False):
            with monkeypatch.context() as patch:
                patch.setattr(fd, "_kernel", lambda k=kernel: k)
                if splitting:
                    _split_everywhere(patch)
                else:
                    patch.setattr(fd, "_SPLIT_WORK", math.inf)
                outputs.append(_outputs(components, grid, threshold))
    with monkeypatch.context() as patch:
        _numpy_levels(patch)
        outputs.append(_outputs(components, grid, threshold))
    return outputs


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("components, grid", KERNEL_CASES, ids=KERNEL_IDS)
def test_kernel_gives_the_numpy_loops_bits(builds, monkeypatch, components, grid):
    # both builds, on two threads and on one
    *kernel_paths, numpy_loop = _all_paths(monkeypatch, components, grid, 1e8, builds)
    assert len(kernel_paths) == 4
    assert all(outputs == numpy_loop for outputs in kernel_paths)
    assert numpy_loop[0][1][2] is not None  # rows were stored and compared


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("p", fd._KERNEL_POWERS)
@pytest.mark.parametrize("threshold", [1e8, math.inf], ids=["threshold", "non-finite"])
@pytest.mark.parametrize("edge", ["last", "first"])
def test_kernel_stops_on_block_edges_as_the_numpy_loop(
    builds, monkeypatch, p, threshold, edge
):
    # the stop level of the numpy loop, made the last level of the first
    # block or the first level of the second one
    grid = GridSpec(dx=1.0 / 25, cfl=1.0, x_max=12.0, t_max=10.0)
    components = [_power_component(P2, bump_profile(R=1.0, eps=0.5, amplitude=8.0), 0, p)]
    with monkeypatch.context() as patch:
        _numpy_levels(patch)
        blow_up, t_est, _ = _run(components, grid, threshold)
    assert blow_up
    stop = round(t_est / grid.dt) - (threshold == math.inf)  # T_est is t_k + dt there
    monkeypatch.setattr(fd, "_BLOCK", stop if edge == "last" else stop - 1)
    *kernel_paths, numpy_loop = _all_paths(monkeypatch, components, grid, threshold, builds)
    assert len(kernel_paths) == 4
    assert all(outputs == numpy_loop for outputs in kernel_paths)
    assert numpy_loop[0][0][1] == t_est


_TILT = smooth_bump(1.0, 8.0)


def _tilted(slope, amplitude=2.0):
    """u0 = 0 and u1 = amplitude bump(x) (1 + slope x), even for slope = 0."""
    return CauchyProfile(
        u0=lambda x: 0.0, u1=lambda x: amplitude * _TILT(x) * (1.0 + slope * x), R=1.0, eps=0.5
    )


#: data whose first threshold crossing lies in the lower half of every
#: window (x < 0: a full window's mid node is x = 0), in the upper half, on
#: the mid node, or at mirror-image nodes of both halves at the same level
PLACED = {
    "lower": _tilted(0.5), "upper": _tilted(-0.5), "mid": _tilted(0.0, 1e3), "both": _tilted(0.0),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("where", list(PLACED))
@pytest.mark.parametrize("threshold", [1e8, math.inf], ids=["threshold", "non-finite"])
def test_forked_blocks_stop_as_the_numpy_loop(kernel, monkeypatch, where, threshold):
    # the full window (even data are not mirrored here), so that the halves
    # of a block meet at x = 0; with an infinite threshold the same data
    # stop at the first non-finite level instead
    monkeypatch.setattr(fd, "_even", lambda arrays: False)
    grid = GridSpec(dx=1.0 / 25, cfl=1.0, x_max=12.0, t_max=10.0)
    components = [_power_component(P2, PLACED[where], 0, 1.5)]
    two_threads, one_thread, numpy_loop = _all_paths(monkeypatch, components, grid, threshold)
    assert two_threads == one_thread == numpy_loop
    blow_up, t_est, rows = two_threads[0][1]
    assert blow_up
    if threshold == math.inf:
        return
    # the stored u_t of the stop level
    peak = np.abs(np.frombuffer(rows[2]).reshape(-1, len(grid.xs()))[-1])
    node, centre = int(np.argmax(peak)), len(grid.xs()) // 2
    assert peak[node] > threshold
    assert {"lower": node < centre, "upper": node > centre, "mid": node == centre,
            "both": node < centre and peak[2 * centre - node] == peak[node]}[where]


def test_one_cpu_process_splits_no_block(kernel, monkeypatch):
    # pinned to one CPU, a process starts no helper thread and gives the
    # record this process gives, with its split blocks where it may use two
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no CPU affinity on this host")
    run = (
        "prof = bump_profile(R=1.0, eps=0.25, amplitude=8.0)\n"
        "system = SystemParams(P2, P2, p=1.5, q=2.0)\n"
        "grid = GridSpec(dx=0.01, cfl=1.0, x_max=25.0, t_max=24.0)\n"
        "record = fd.detect_lifespan_system(system, prof, prof, grid, refine=True)\n"
    )
    code = "\n".join([
        "import os",
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})",
        "from siwave import fd",
        "from siwave.grids import GridSpec",
        "from siwave.params import ScaleInvariantParams, SystemParams",
        "from siwave.profiles import bump_profile",
        "P2 = ScaleInvariantParams(2.0, 0.0)",
        "kernel, starts = fd._kernel(), []",
        "fd._kernel = lambda: kernel._replace(start=lambda run: starts.append(1) or kernel.start(run))",
        run,
        "print(len(starts), repr(record))",
    ])
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, timeout=120, capture_output=True,
        text=True,
    ).stdout
    starts, record = out.strip().split(" ", 1)
    assert starts == "0"
    kernel, started = fd._kernel(), []
    monkeypatch.setattr(
        fd, "_kernel",
        lambda: kernel._replace(start=lambda run: started.append(1) or kernel.start(run)),
    )
    names = {"fd": fd, "GridSpec": GridSpec, "SystemParams": SystemParams, "P2": P2,
             "bump_profile": bump_profile}
    exec(run, names)
    assert record == repr(names["record"])
    assert bool(started) == (len(os.sched_getaffinity(0)) > 1)


@pytest.fixture
def rebuilt_kernel(monkeypatch, tmp_path):
    """Forgets the built kernel before and after the test, so that the test
    sees the first build and later tests build their own, and keeps the
    test's builds in a cache of its own."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    fd._kernel.cache_clear()
    yield tmp_path / "cache" / "siwave"
    fd._kernel.cache_clear()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("failure", ["compile error", "no compiler", "timeout", "no library"])
def test_failed_kernel_build_falls_back_to_the_numpy_loop(rebuilt_kernel, monkeypatch, failure):
    components, grid = KERNEL_CASES[5]
    with monkeypatch.context() as patch:
        _numpy_levels(patch)
        reference = _outputs(components, grid, 1e8)
    calls = []

    def failing_compiler(cmd, **kwargs):
        calls.append(cmd)
        if failure == "compile error":
            raise subprocess.CalledProcessError(1, cmd)
        if failure == "no compiler":
            raise FileNotFoundError(cmd[0])
        if failure == "timeout":
            raise subprocess.TimeoutExpired(cmd, kwargs.get("timeout"))
        # "no library": the compiler wrote nothing, so loading it fails

    monkeypatch.setattr(fd.subprocess, "run", failing_compiler)
    assert _outputs(components, grid, 1e8) == reference
    assert fd._kernel() is None
    tried = len(calls)
    assert tried >= 1
    assert _outputs(components, grid, 1e8) == reference
    assert len(calls) == tried  # the failure is remembered
    assert list(rebuilt_kernel.iterdir()) == []  # and nothing is kept


def test_kernel_is_built_once_per_machine(kernel, rebuilt_kernel, monkeypatch):
    # the first process compiles the kernel into the cache; a later one (a
    # cleared cache of _kernel here) loads it without calling the compiler
    run = subprocess.run
    calls = []

    def compiler(cmd, **kwargs):
        calls.append(cmd)
        return run(cmd, **kwargs)

    monkeypatch.setattr(fd.subprocess, "run", compiler)
    assert fd._kernel() is not None
    assert len(calls) == 1
    built = list(rebuilt_kernel.iterdir())
    assert len(built) == 1 and built[0].suffix == ".so"
    fd._kernel.cache_clear()
    assert fd._kernel() is not None
    assert len(calls) == 1
    assert list(rebuilt_kernel.iterdir()) == built


def test_kernel_builds_where_the_cache_is_not_writable(kernel, rebuilt_kernel, monkeypatch, tmp_path):
    # a cache under a regular file cannot be made: the kernel is built in
    # a temporary directory, as if there were no cache
    (tmp_path / "file").write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
    components, grid = KERNEL_CASES[5]
    with monkeypatch.context() as patch:
        _numpy_levels(patch)
        reference = _outputs(components, grid, 1e8)
    assert fd._kernel() is not None
    assert _outputs(components, grid, 1e8) == reference


def test_import_neither_starts_a_process_nor_builds_the_kernel():
    code = "\n".join([
        "import os, subprocess",
        "def refuse(*args, **kwargs):",
        "    raise AssertionError('a process was started')",
        "subprocess.Popen = os.fork = os.posix_spawn = os.posix_spawnp = refuse",
        "import siwave",
        "from siwave import fd",
        "assert fd._kernel.cache_info().misses == 0",
    ])
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
