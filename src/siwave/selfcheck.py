"""Built-in property suites behind the `verify` CLI subcommand.

Each suite is a list of quick, deterministic checks of the core invariants
(subsets of the full test suite that run in seconds without pytest).  A
check is a (name, ok, detail) triple.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from scipy.integrate import solve_ivp

from . import comparison, hypergeom, iteration, kernels, params

__all__ = ["SUITES", "run_suite"]

Check = tuple[str, bool, str]


def _check(name: str, ok: bool, detail: str = "") -> Check:
    return (name, bool(ok), detail)


def suite_exponents() -> list[Check]:
    checks = []
    worst = max(
        abs(params.lambda_curve(d, params.glassey(d), params.glassey(d)))
        for d in range(2, 11)
    )
    checks.append(_check("lambda vanishes at the Glassey point", worst <= 1e-12, f"max |Lambda| = {worst:.2e}"))

    worst = 0.0
    for d in (1.5, 2.0, 3.0, 5.5, 9.0):
        p = params.strauss(d)
        worst = max(worst, abs((d - 1) * p * p - (d + 1) * p - 2))
    checks.append(_check("Strauss root satisfies its quadratic", worst <= 1e-12, f"max residual = {worst:.2e}"))

    worst = 0.0
    for n, s1, s2 in ((1, 2.0, 2.0), (2, 1.0, 3.0), (1, 2.5, 1.5), (3, 0.0, 0.0)):
        cusp = params.cusp_exponents(n, s1, s2)
        if not cusp.admissible:
            continue
        worst = max(
            worst,
            abs(params.lambda_curve(n + s1, cusp.p, cusp.q)),
            abs(params.lambda_curve(n + s2, cusp.q, cusp.p)),
        )
    checks.append(_check("both curve branches vanish at the cusp", worst <= 1e-12, f"max |Lambda| = {worst:.2e}"))

    ok = True
    for h in (1e-4, 1e-8):
        near = params.ScaleInvariantParams(mu=2.0, nu2=h / 4.0)  # delta = 1 - h
        at = params.ScaleInvariantParams(mu=2.0, nu2=0.0)
        ok &= abs(near.sigma - at.sigma) <= h**0.5
    checks.append(_check("sigma continuous across the delta=1 branch point", ok))

    pred = params.predicted_lifespan_exponent(1, params.ScaleInvariantParams(2.0, 0.0), 1.5)
    checks.append(_check(
        "subcritical rate example (mu=2, p=1.5 at n=1)",
        pred.regime == "algebraic" and pred.rate == 1.0,
        f"regime={pred.regime}, rate={pred.rate}",
    ))
    return checks


def suite_hypergeom() -> list[Check]:
    checks = []
    zs = [0.1 * k for k in range(1, 10)]
    worst = max(abs(hypergeom.hyp2f1(1, 1, 1, z) - 1 / (1 - z)) for z in zs)
    checks.append(_check("F(1,1;1;z) matches the geometric series", worst <= 1e-12, f"max err = {worst:.2e}"))

    ok = all(
        hypergeom.hyp2f1(a, b, c, z) == hypergeom.hyp2f1(b, a, c, z)
        for a, b in ((0.3, -1.7), (2.0, 0.5), (-0.5, -0.25))
        for c in (1.0, 2.0)
        for z in (0.2, 0.7, 0.95)
    )
    checks.append(_check("argument symmetry is bit-exact", ok))

    grid = [0.0, 0.3, 0.6, 0.9, 0.99]
    ok = all(
        hypergeom.hyp2f1_lower_bound_check(a, c, grid)
        for a in (-2.0, -0.5, 0.0, 0.5, 2.0)
        for c in (1.0, 2.0)
    )
    checks.append(_check("F(a,a;c;z) >= 1 on the sample grid", ok))

    values = [hypergeom.hyp2f1(0.5, 0.5, 1.0, z) for z in (0.0, 0.25, 0.5, 0.75, 0.9)]
    ok = all(v1 <= v2 for v1, v2 in zip(values, values[1:]))
    checks.append(_check("monotone in z for equal parameters", ok))
    return checks


def suite_kernels() -> list[Check]:
    checks = []
    p2 = params.ScaleInvariantParams(2.0, 0.0)
    ok = True
    for t, y in ((0.5, 0.2), (3.0, -1.0), (10.0, 5.0)):
        k0, k1 = kernels.kernel_K0_K1(p2, t, 0.0, y)
        ok &= abs(k0 + 1 / (1 + t)) <= 1e-15 and abs(k1 - 1 / (1 + t)) <= 1e-15
    checks.append(_check("mu=2 kernels reduce to +-1/(1+t)", ok))

    sample = kernels.light_cone_sample(t_max=20.0, n_t=8, n_b=6, n_y=6)
    report = kernels.verify_kernel_lower_bounds(p2, sample)
    checks.append(_check(
        "mu=2 weighted minima equal 1 exactly",
        report.c_K1 == 1.0 and report.c_E == 1.0,
        f"c_K1={report.c_K1}, c_E={report.c_E}",
    ))

    p1 = params.ScaleInvariantParams(1.0, 0.0)
    worst = 0.0
    h = 1e-5
    for t, y in ((1.0, 0.3), (2.0, 0.0), (5.0, -2.0)):
        analytic = kernels.kernel_dbE_at_b0(p1, t, 0.0, y)
        e0 = kernels._E_scalar(p1, t, 0.0, y)
        e1 = kernels._E_scalar(p1, t, h, y)
        e2 = kernels._E_scalar(p1, t, 2 * h, y)
        fd = (-3 * e0 + 4 * e1 - e2) / (2 * h)
        worst = max(worst, abs(analytic - fd))
    checks.append(_check("analytic dE/db matches one-sided differences", worst <= 1e-7, f"max err = {worst:.2e}"))

    p3 = params.ScaleInvariantParams(3.0, 0.0)
    report3 = kernels.verify_kernel_lower_bounds(p3, sample)
    checks.append(_check(
        "mu=3 minima strictly positive (incl. mixed bound)",
        report3.all_positive and report3.c_mix is not None and report3.c_mix > 0,
        f"c_K1={report3.c_K1:.4g}, c_E={report3.c_E:.4g}, c_mix={report3.c_mix:.4g}",
    ))

    ok = True
    for t in (0.5, 2.0, 9.0):
        for y in np.linspace(-t, t, 7):
            dist = (t + 2.0) ** 2 - y * y
            ok &= 4 * (t + 1) <= dist + 1e-12 and dist <= (t + 2.0) ** 2 + 1e-12
    checks.append(_check("cone distance bounds 4(t+1) <= (t+2)^2-w^2 <= (t+2)^2", ok))
    return checks


def suite_sequences() -> list[Check]:
    checks = []
    sys22 = params.SystemParams(
        params.ScaleInvariantParams(0.0, 0.0), params.ScaleInvariantParams(0.0, 0.0),
        p=2.0, q=2.0,
    )
    seq = iteration.subcritical_sequences(1, sys22, M=1.0, eps=0.1, jmax=5)
    checks.append(_check(
        "sigma=0, p=q=2 betas follow 4^j - 1",
        seq.A == 0.0 and seq.betas[:4] == [0.0, 3.0, 15.0, 63.0],
        f"A={seq.A}, betas={seq.betas[:4]}",
    ))

    ok = True
    for pq in (1.2, 2.0, 4.0):
        for j in range(1, 21):
            direct = sum((j - k) * pq**k for k in range(j))
            closed = (pq ** (j + 1) - 1) / (pq - 1) ** 2 - (j + 1) / (pq - 1)
            ok &= abs(direct - closed) <= 1e-12 * max(1.0, abs(closed))
    checks.append(_check("weighted geometric summation identity", ok))

    ok = True
    for j in range(41):
        ell_j = Fraction(2) - Fraction(1, 2 ** (j + 1))
        ell_n = Fraction(2) - Fraction(1, 2 ** (j + 2))
        ok &= ell_j < 2 and 1 - ell_j / ell_n >= Fraction(1, 2 ** (j + 3)) and 2 * ell_j > ell_n
    checks.append(_check("slicing sequence inequalities (exact arithmetic)", ok))

    rel = max(
        abs(a - b) / max(1.0, abs(b))
        for a, b in zip(seq.alphas + seq.betas, seq.alphas_closed + seq.betas_closed)
    )
    checks.append(_check("recursion agrees with closed form", rel <= 1e-12, f"max rel = {rel:.2e}"))

    cusp = iteration.cusp_sequences(
        1,
        params.SystemParams(
            params.ScaleInvariantParams(2.0, 0.0), params.ScaleInvariantParams(2.0, 0.0),
            p=2.0, q=2.0,
        ),
        M=1.0, eps=0.1, jmax=4,
    )
    checks.append(_check(
        "cusp exponents rho_j = 4^j - 1 at p=q=2",
        cusp.rhos[:4] == [0.0, 3.0, 15.0, 63.0],
        f"rhos={cusp.rhos[:4]}",
    ))
    return checks


def suite_comparison() -> list[Check]:
    checks = []
    frame = comparison.ComparisonFrame(M=1.0, C=1.0, p=2.0, a=0.0, R=1.0)
    z_star = comparison.comparison_blowup_z(frame, eps=0.1)
    checks.append(_check("a=0 closed form gives z* = R + 1/(M eps)", z_star == 11.0, f"z*={z_star}"))

    ok = True
    details = []
    for m, c, p, a, r, eps in (
        (1.0, 1.0, 2.0, 0.5, 1.0, 0.1),
        (0.7, 1.3, 1.8, 0.9, 2.0, 0.2),
        (1.0, 1.0, 2.0, 1.0, 1.0, 0.5),
    ):
        fr = comparison.ComparisonFrame(M=m, C=c, p=p, a=a, R=r)
        closed = comparison.comparison_blowup_z(fr, eps)

        def rhs(z, g):
            return c * (r + z) ** (-a) * g**p

        def blown(z, g):
            return g[0] - 1e12

        blown.terminal = True
        sol = solve_ivp(
            rhs, (r, 4 * closed + 10), [m * eps], events=blown, rtol=1e-10, atol=1e-300
        )
        z_num = float(sol.t_events[0][0])
        rel = abs(closed - z_num) / z_num
        details.append(f"{rel:.2e}")
        ok &= rel <= 0.01
    checks.append(_check("closed-form z* matches the ODE integrator", ok, "rel errs: " + ", ".join(details)))

    si = params.ScaleInvariantParams(2.0, 0.0)
    fr = comparison.frame_for(1, si, p=1.5, R=1.0, M=1.0, C=1.0)
    ok = comparison.lifespan_rate_from_frame(fr) == params.predicted_lifespan_exponent(1, si, 1.5)
    checks.append(_check("frame rate equals exponent-algebra rate exactly", ok))
    return checks


SUITES = {
    "exponents": suite_exponents,
    "hypergeom": suite_hypergeom,
    "kernels": suite_kernels,
    "sequences": suite_sequences,
    "comparison": suite_comparison,
}


def run_suite(name: str) -> list[Check]:
    """Run one suite, or all of them for name == 'all'."""
    if name == "all":
        checks = []
        for suite in SUITES.values():
            checks.extend(suite())
        return checks
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name]()
