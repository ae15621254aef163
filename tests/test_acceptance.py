"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines as they complete.  Criterion 9 runs the full eps-sweep at dx = 1/200
and dominates the runtime (several minutes).
"""

import math
import time

import numpy as np
from helpers import cone_points, dalembert, poly_profile

import siwave
from siwave.comparison import (
    ComparisonFrame,
    comparison_blowup_z,
    empirical_frame,
    reduce_solution,
    verify_fundamental_inequality,
)
from siwave.experiments import SweepConfig, run_sweep
from siwave.fd import solve_linear_fd, solve_semilinear_field
from siwave.grids import GridSpec
from siwave.hypergeom import hyp2f1
from siwave.iteration import critical_sequences, cusp_sequences, subcritical_sequences
from siwave.kernels import (
    _data_kernels,
    _E,
    light_cone_sample,
    verify_kernel_lower_bounds,
)
from siwave.linear import solve_linear_point
from siwave.params import (
    ScaleInvariantParams,
    SystemParams,
    cusp_exponents,
    glassey,
    lambda_curve,
    params_with_sigma,
)
from siwave.profiles import CauchyProfile, SourceTerm, bump_profile, zero_source
from scipy.integrate import quad, solve_ivp


def _report(num: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    print(f"\nACCEPTANCE {num}: {status}{suffix}")


def test_criterion_1_dalembert_degeneration():
    t0 = time.monotonic()
    params = ScaleInvariantParams(0.0, 0.0)
    data = poly_profile(eps=0.3)
    worst = 0.0
    for t, x in cone_points(200, t_max=5.0, seed=101):
        u = solve_linear_point(params, data, zero_source(), t, x, qtol=1e-9)
        worst = max(worst, abs(u - dalembert(t, x, 0.3)))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-8 and elapsed <= 10.0
    _report(1, ok, f"max err {worst:.2e} over 200 points, {elapsed:.1f}s")
    assert worst <= 1e-8
    assert elapsed <= 10.0


def test_criterion_2_delta_one_transform_oracle():
    params = ScaleInvariantParams(2.0, 0.0)
    data = poly_profile(eps=0.3)
    R = data.R
    from helpers import poly_bump, poly_bump_integral

    worst = 0.0
    for t, x in cone_points(200, t_max=5.0, seed=202):
        u = solve_linear_point(params, data, zero_source(), t, x, qtol=1e-9)
        lo, hi = max(x - t, -R), min(x + t, R)
        free_wave = 0.3 * (
            0.5 * (poly_bump(x + t) + poly_bump(x - t))
            + poly_bump_integral(lo, hi)  # (u0 + u1)/2 integrates to the bump itself
        )
        worst = max(worst, abs((1.0 + t) * u - free_wave))
    ok = worst <= 1e-8
    _report(2, ok, f"max err {worst:.2e} over 200 points")
    assert ok


def test_criterion_3_fd_convergence_order():
    t0 = time.monotonic()
    params = ScaleInvariantParams(1.0, 0.0)
    data = CauchyProfile(u0=lambda x: 0.0, u1=lambda x: 0.0, R=1.0, eps=1.0)
    src = SourceTerm(
        f=lambda t, x: math.exp(-2.0 * t) * max(0.0, 1.0 - x * x) ** 4,
        support=(0.0, math.inf, -1.0, 1.0),
    )
    probes = [(1.0, k / 25.0) for k in range(-12, 13, 2)]
    reference = {pt: solve_linear_point(params, data, src, *pt, qtol=1e-10) for pt in probes}
    errors = []
    for dx in (1.0 / 25, 1.0 / 50, 1.0 / 100):
        grid = GridSpec(dx=dx, cfl=0.5, x_max=2.5, t_max=1.0)
        field = solve_linear_fd(params, data, src, grid)
        err = 0.0
        for (t, x), want in reference.items():
            i = int(round(t / grid.dt))
            j = int(round((x + grid.x_max) / dx))
            err = max(err, abs(field.values[i, j] - want))
        errors.append(err)
    ratios = (errors[0] / errors[1], errors[1] / errors[2])
    elapsed = time.monotonic() - t0
    ok = all(3.6 <= r <= 4.4 for r in ratios) and elapsed <= 60.0
    _report(3, ok, f"error ratios {ratios[0]:.2f}, {ratios[1]:.2f}, {elapsed:.1f}s")
    assert all(3.6 <= r <= 4.4 for r in ratios), ratios
    assert elapsed <= 60.0


def test_criterion_4_hypergeometric_suite():
    failures = []
    for a, b, c in ((0.5, -1.3, 1.0), (2.0, 2.0, 2.0), (-3.0, 0.7, 1.5), (0.0, 0.0, 1.0)):
        if hyp2f1(a, b, c, 0.0) != 1.0:
            failures.append(f"F({a},{b};{c};0) != 1")
    for z in [0.1 * k for k in range(1, 10)]:
        if abs(hyp2f1(1.0, 1.0, 1.0, z) - 1.0 / (1.0 - z)) > 1e-12:
            failures.append(f"geometric series at z={z}")
    for a in np.linspace(-2.0, 2.0, 17):
        for c in (1.0, 2.0):
            for z in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99):
                if hyp2f1(float(a), float(a), c, z) < 1.0 - 1e-13:
                    failures.append(f"lower bound at a={a}, c={c}, z={z}")
    rng = np.random.default_rng(404)
    for _ in range(100):
        a, b = (float(v) for v in rng.uniform(-3.0, 3.0, 2))
        c = float(rng.choice([1.0, 2.0]))
        z = float(rng.uniform(0.0, 0.97))
        if hyp2f1(a, b, c, z) != hyp2f1(b, a, c, z):
            failures.append(f"symmetry at ({a},{b},{c},{z})")
    ok = not failures
    _report(4, ok, "value/bound/symmetry checks" if ok else "; ".join(failures[:3]))
    assert ok, failures[:10]


def test_criterion_5_kernel_bounds():
    param_sets = [(0.0, 0.0), (2.0, 0.0), (3.0, 0.0), (1.0, 0.0), (5.0, 4.0)]
    sample = light_cone_sample(t_max=20.0, n_t=50, n_b=50, n_y=50)
    assert len(sample) == 50 * 50 * 50
    failures = []
    for mu, nu2 in param_sets:
        params = ScaleInvariantParams(mu, nu2)
        report = verify_kernel_lower_bounds(params, sample)
        # positive weights: a positive weighted minimum certifies E > 0 on
        # the whole sample
        if not report.c_E > 0.0:
            failures.append(f"E positivity / c_E at (mu={mu}, nu2={nu2}): {report.c_E}")
        if not report.c_K1 > 0.0:
            failures.append(f"c_K1 at (mu={mu}, nu2={nu2}): {report.c_K1}")
        # mixed bound, defined for delta >= 1.  On delta = 1 (gamma = 0,
        # sigma = mu) K1 = (1+t)^(-mu/2) and K0 = -(mu/2)(1+t)^(-mu/2), so
        # the weighted K0 + mu*K1 is mu/2 at every point: the closed form is
        # the oracle, and the minimum is positive only where mu > 0 (for the
        # free wave u0 enters d'Alembert's formula only at the boundary).
        if params.delta >= 1.0:
            if report.c_mix is None:
                failures.append(f"c_mix missing at (mu={mu}, nu2={nu2})")
            elif params.gamma == 0.0 and report.c_mix != 0.5 * mu:
                failures.append(
                    f"c_mix at (mu={mu}, nu2={nu2}): {report.c_mix!r} != mu/2 = {0.5 * mu!r}"
                )
            elif mu > 0.0 and not report.c_mix > 0.0:
                failures.append(f"c_mix at (mu={mu}, nu2={nu2}): {report.c_mix}")
    p2 = ScaleInvariantParams(2.0, 0.0)
    report2 = verify_kernel_lower_bounds(p2, sample)
    if report2.c_K1 != 1.0 or report2.c_E != 1.0:
        failures.append(f"mu=2 exact minima: c_K1={report2.c_K1!r}, c_E={report2.c_E!r}")

    h = 1e-5
    rng = np.random.default_rng(505)
    points = {}
    for _ in range(100):
        bundle = param_sets[int(rng.integers(0, len(param_sets)))]
        t = float(rng.uniform(0.3, 15.0))
        points.setdefault(bundle, []).append((t, float(rng.uniform(-0.95, 0.95)) * (t - 3 * h)))
    fd_worst = 0.0
    for (mu, nu2), tw in points.items():
        params = ScaleInvariantParams(mu, nu2)
        t, w = np.array(tw).T
        mix, k1 = _data_kernels(params, t, w)
        analytic = -(mix - mu * k1)  # dE/db at b = 0 is -K0
        fd = (
            -3.0 * _E(params, t, 0.0, w)
            + 4.0 * _E(params, t, h, w)
            - _E(params, t, 2.0 * h, w)
        ) / (2.0 * h)
        err = np.abs(analytic - fd) / np.maximum(1.0, np.abs(analytic))
        fd_worst = max(fd_worst, float(err.max()))
    if fd_worst > 1e-7:
        failures.append(f"K0 analytic-vs-difference error {fd_worst:.2e}")

    ok = not failures
    _report(5, ok, f"K0 FD err {fd_worst:.1e}" if ok else "; ".join(failures))
    assert ok, failures


def test_criterion_6_iteration_sequences():
    t0 = time.monotonic()
    failures = []
    from fractions import Fraction

    for p in (1.5, 2.0, 3.0):
        for q in (1.5, 2.0, 3.0):
            for s1 in (0.0, 1.0, 2.0):
                for s2 in (0.0, 1.0, 2.0):
                    sysp = SystemParams(
                        params_with_sigma(s1), params_with_sigma(s2), p=p, q=q
                    )
                    sub = subcritical_sequences(1, sysp, M=1.0, eps=0.1, jmax=25, raw=True)
                    crit = critical_sequences(1, sysp, M=1.0, eps=0.1, jmax=25, raw=True)
                    cusp = cusp_sequences(1, sysp, M=1.0, eps=0.1, jmax=25, raw=True)
                    pairs = (
                        list(zip(sub.alphas, sub.alphas_closed))
                        + list(zip(sub.betas, sub.betas_closed))
                        + list(zip(crit.thetas, crit.thetas_closed))
                        + list(zip(cusp.rhos, cusp.rhos_closed))
                    )
                    for got, want in pairs:
                        if abs(got - want) > 1e-12 * max(1.0, abs(want)):
                            failures.append(f"recursion/closed mismatch at p={p} q={q}")
                            break
    for pq in (1.2, 2.0, 4.0):
        for j in range(1, 21):
            direct = sum((j - k) * pq**k for k in range(j))
            closed = (pq ** (j + 1) - 1.0) / (pq - 1.0) ** 2 - (j + 1) / (pq - 1.0)
            if abs(direct - closed) > 1e-12 * max(1.0, abs(closed)):
                failures.append(f"summation identity at pq={pq}, j={j}")
    for j in range(41):
        ell = Fraction(2) - Fraction(1, 2 ** (j + 1))
        ell_next = Fraction(2) - Fraction(1, 2 ** (j + 2))
        if not (ell < 2 and 1 - ell / ell_next >= Fraction(1, 2 ** (j + 3)) and 2 * ell > ell_next):
            failures.append(f"slicing inequality at j={j}")
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed <= 5.0
    _report(6, ok, f"81 parameter combos, {elapsed:.1f}s" if ok else "; ".join(failures[:3]))
    assert not failures, failures[:10]
    assert elapsed <= 5.0


def test_criterion_7_comparison_ode_oracle():
    frame = ComparisonFrame(M=1.0, C=1.0, p=2.0, a=0.0, R=1.0)
    z_exact = comparison_blowup_z(frame, eps=0.1)
    exact_ok = (z_exact - frame.R) == 10.0

    rng = np.random.default_rng(707)
    worst = 0.0
    checked = 0
    while checked < 20:
        a = 1.0 if checked == 0 else float(rng.uniform(0.0, 1.0))
        p = float(rng.uniform(1.5, 2.5))
        r = float(rng.uniform(1.0, 3.0))
        m = float(rng.uniform(0.5, 2.0))
        c = float(rng.uniform(0.5, 2.0))
        target = float(rng.uniform(math.log(3.0 * r), 10.0))
        if a == 1.0:
            x = target - math.log(2.0 * r)
        else:
            s = 1.0 - a
            x = (math.exp(s * target) - (2.0 * r) ** s) / s
        if x <= 0:
            continue
        eps = (x * c * (p - 1.0)) ** (1.0 / (1.0 - p)) / m
        fr = ComparisonFrame(M=m, C=c, p=p, a=a, R=r)
        closed = comparison_blowup_z(fr, eps)

        def rhs(z, g):
            return fr.C * (fr.R + z) ** (-fr.a) * g**fr.p

        def hit(z, g):
            return g[0] - 1e12

        hit.terminal = True
        sol = solve_ivp(
            rhs, (fr.R, 4.0 * closed + 10.0), [fr.M * eps],
            events=hit, rtol=1e-10, atol=1e-300,
        )
        if sol.t_events[0].size:
            oracle = float(sol.t_events[0][0])
        else:
            # integrator stalls at the singularity once the z-window between
            # G = 1e12 and blow-up is below float spacing; the stall point is
            # the blow-up point
            assert sol.status == -1 and sol.y[0, -1] >= 1e6
            oracle = float(sol.t[-1])
        worst = max(worst, abs(closed - oracle) / oracle)
        checked += 1
    ok = exact_ok and worst <= 0.01
    _report(7, ok, f"a=0 exact: {exact_ok}, worst rel err {worst:.2e} over 20 frames")
    assert exact_ok
    assert worst <= 0.01


def test_criterion_8_exponent_algebra():
    failures = []
    rng = np.random.default_rng(808)
    count = 0
    while count < 50:
        n = int(rng.integers(1, 4))
        s1, s2 = (float(v) for v in rng.uniform(0.0, 4.0, 2))
        if n + s1 <= 1.05 or n + s2 <= 1.05:
            continue
        cusp = cusp_exponents(n, s1, s2)
        if not cusp.admissible or cusp.p < 1.05 or cusp.q < 1.05:
            continue
        if abs(lambda_curve(n + s1, cusp.p, cusp.q)) > 1e-12:
            failures.append(f"branch 1 at (n={n}, s1={s1:.3f}, s2={s2:.3f})")
        if abs(lambda_curve(n + s2, cusp.q, cusp.p)) > 1e-12:
            failures.append(f"branch 2 at (n={n}, s1={s1:.3f}, s2={s2:.3f})")
        count += 1
    for d in range(2, 11):
        pg = glassey(float(d))
        if abs(lambda_curve(float(d), pg, pg)) > 1e-12:
            failures.append(f"Glassey zero at d={d}")
    for n, sigma in ((1, 2.0), (3, 0.0), (2, 1.0)):
        cusp = cusp_exponents(n, sigma, sigma)
        rate = (cusp.p * cusp.q - 1.0) / (cusp.p + 1.0)
        if rate != glassey(n + sigma) - 1.0:
            failures.append(f"cusp rate at (n={n}, sigma={sigma})")
    ok = not failures
    _report(8, ok, "50 random cusps + Glassey zeros" if ok else "; ".join(failures[:3]))
    assert ok, failures[:10]


# shared between criteria 9 and 10
SWEEP_EPS = tuple(0.5 * 10.0 ** (-k / 4.0) for k in range(7))  # 1.5 decades
SWEEP_AMPLITUDE = 8.0


def test_criterion_9_lifespan_scaling(tmp_path):
    t0 = time.monotonic()
    config = SweepConfig(
        model="single",
        mu=2.0,
        nu2=0.0,
        p=1.5,
        eps_grid=SWEEP_EPS,
        grid=GridSpec(dx=1.0 / 200, cfl=1.0, x_max=93.5, t_max=92.0),
        R=1.0,
        amplitude=SWEEP_AMPLITUDE,
        threshold=1e8,
        refine=True,
        output_path=str(tmp_path / "lifespan_sweep.csv"),
    )
    result = run_sweep(config)
    elapsed = time.monotonic() - t0

    converged = [r for r in result.records if r.converged]
    all_blow = all(r.blow_up for r in converged)
    ts = [r.T_est for r in result.records if r.blow_up]
    monotone = all(t1 <= t2 for t1, t2 in zip(ts, ts[1:]))  # eps decreasing

    fit = result.fit
    slope_ok = fit is not None and fit.within_band

    # upper-bound consistency: calibrate C on the three largest eps, then
    # demand T_est <= C * eps^(-1) on the remaining (smaller) eps
    usable = [r for r in result.records if r.blow_up and r.converged]
    c_fit = max(r.T_est * r.eps for r in usable[:3])
    upper_ok = all(r.T_est <= c_fit / r.eps for r in usable[3:])

    ok = (
        len(converged) >= 5
        and all_blow
        and monotone
        and (slope_ok or upper_ok)
        and elapsed <= 600.0
    )
    detail = (
        f"{len(converged)}/7 converged, slope {fit.slope:.3f} vs -1 "
        f"(band ok: {slope_ok}), upper-bound C={c_fit:.3g} ok: {upper_ok}, "
        f"{elapsed:.0f}s"
    )
    _report(9, ok, detail)
    assert len(converged) >= 5, "too few converged runs"
    assert all_blow
    assert monotone
    assert slope_ok or upper_ok, detail
    assert elapsed <= 600.0


def test_criterion_10_end_to_end_frame_check():
    eps = SWEEP_EPS[0]
    params = ScaleInvariantParams(2.0, 0.0)
    prof = bump_profile(R=1.0, eps=eps, amplitude=SWEEP_AMPLITUDE)
    grid_probe = GridSpec(dx=1.0 / 200, cfl=1.0, x_max=8.0, t_max=6.9)
    probe = siwave.detect_lifespan(params, prof, 1.5, grid_probe, threshold=1e8)
    assert probe.blow_up
    t_run = 0.9 * probe.T_est
    grid = GridSpec(dx=1.0 / 200, cfl=1.0, x_max=1.0 + t_run + 0.1, t_max=t_run)
    field, _ = solve_semilinear_field(params, prof, 1.5, grid, store_every=2)

    bounds = verify_kernel_lower_bounds(
        params, light_cone_sample(t_max=t_run + 1.0, n_t=20, n_b=10, n_y=10)
    )
    bump_mass = quad(lambda x: math.exp(-1.0 / (1.0 - x * x)), -1.0, 1.0)[0]
    frame = empirical_frame(
        params, p=1.5, R=1.0, bounds=bounds, data_l1=2.0 * SWEEP_AMPLITUDE * bump_mass
    )
    trace = reduce_solution(field, params, R=1.0)
    report = verify_fundamental_inequality(trace, frame, eps)
    ok = report.min_margin >= -1e-6
    detail = f"min(LHS-RHS) = {report.min_margin:.3e} at z = {report.argmin_z:.3g}"
    _report(10, ok, detail)
    assert ok, detail
