"""Iteration sequences: recursions vs closed forms, bounds, thresholds, rates."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from siwave.iteration import (
    critical_sequences,
    cusp_sequences,
    divergence_threshold,
    lifespan_rate_system,
    subcritical_sequences,
)
from siwave.params import (
    ScaleInvariantParams,
    SystemParams,
    cusp_exponents,
    glassey,
    lambda_curve,
    params_with_sigma,
)


def _system(sigma1, sigma2, p, q):
    return SystemParams(
        comp1=params_with_sigma(sigma1), comp2=params_with_sigma(sigma2), p=p, q=q
    )


SAMPLE = [
    (n, s1, s2, p, q)
    for n in (1, 2)
    for s1 in (0.0, 1.0, 2.0)
    for s2 in (0.0, 1.0, 2.0)
    for p in (1.5, 2.0, 3.0)
    for q in (1.5, 2.0, 3.0)
]


def test_subcritical_closed_form_example():
    # sigma1 = sigma2 = 0, p = q = 2: A = 0, B = 3, beta_j = 4^j - 1
    seq = subcritical_sequences(1, _system(0.0, 0.0, 2.0, 2.0), M=1.0, eps=0.1, jmax=4)
    assert seq.A == 0.0 and seq.B == 3.0
    assert seq.alphas == [0.0] * 5
    assert seq.betas == [0.0, 3.0, 15.0, 63.0, 255.0]
    assert seq.betas[2] == 15.0


def test_summation_identity():
    for pq in (1.2, 2.0, 4.0):
        for j in range(1, 21):
            direct = sum((j - k) * pq**k for k in range(j))
            closed = (pq ** (j + 1) - 1.0) / (pq - 1.0) ** 2 - (j + 1) / (pq - 1.0)
            assert abs(direct - closed) <= 1e-12 * max(1.0, abs(closed))


def test_recursion_matches_closed_form_over_sample():
    for n, s1, s2, p, q in SAMPLE:
        seq = subcritical_sequences(
            n, _system(s1, s2, p, q), M=1.0, eps=0.1, jmax=25, raw=True
        )
        for got, want in zip(seq.alphas, seq.alphas_closed):
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
        for got, want in zip(seq.betas, seq.betas_closed):
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
        crit = critical_sequences(
            n, _system(s1, s2, p, q), M=1.0, eps=0.1, jmax=25, raw=True
        )
        for got, want in zip(crit.thetas, crit.thetas_closed):
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
        cusp = cusp_sequences(n, _system(s1, s2, p, q), M=1.0, eps=0.1, jmax=25, raw=True)
        for got, want in zip(cusp.rhos, cusp.rhos_closed):
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_slicing_sequence_facts_exact():
    # exact rational arithmetic: float rounding would hide the tiny margins
    for j in range(41):
        ell = Fraction(2) - Fraction(1, 2 ** (j + 1))
        ell_next = Fraction(2) - Fraction(1, 2 ** (j + 2))
        assert ell < 2
        assert ell >= Fraction(3, 2)
        assert 1 - ell / ell_next >= Fraction(1, 2 ** (j + 3))
        assert 2 * ell > ell_next
        # z >= ell_j * R forces z >= (3/5)(R + z) since ell_j >= 3/2
        assert Fraction(3, 2) / (1 + Fraction(3, 2)) >= Fraction(3, 5)


def test_critical_sequences_slicing_and_thetas():
    seq = critical_sequences(1, _system(2.0, 4.0, 2.0, 2.0), M=1.0, eps=0.1, jmax=10)
    assert seq.ells[0] == 1.5
    assert seq.ells[3] == 2.0 - 2.0**-4  # 1.9375
    assert seq.thetas[2] == 5.0  # (16-1)/3
    assert all(l1 < l2 < 2.0 for l1, l2 in zip(seq.ells, seq.ells[1:]))


def test_cusp_sequences_example():
    seq = cusp_sequences(1, _system(2.0, 2.0, 2.0, 2.0), M=1.0, eps=0.1, jmax=5)
    assert seq.rhos == [0.0, 3.0, 15.0, 63.0, 255.0, 1023.0]
    assert seq.rhos[3] == 63.0
    # E_0 = M * eps exactly
    assert math.isclose(seq.logEs[0], math.log(0.1), rel_tol=1e-15)


def test_regime_check_raises_without_raw():
    with pytest.raises(ValueError, match="regime"):
        subcritical_sequences(3, _system(0.0, 0.0, 3.0, 3.0), M=1.0, eps=0.1, jmax=3)
    with pytest.raises(ValueError, match="regime"):
        cusp_sequences(1, _system(0.0, 0.0, 2.0, 2.0), M=1.0, eps=0.1, jmax=3)
    seq = subcritical_sequences(
        3, _system(0.0, 0.0, 3.0, 3.0), M=1.0, eps=0.1, jmax=3, raw=True
    )
    assert seq.regime_mismatch


def _log_bound_holds(logs, j_start, pq, hat, eps):
    log_hat_eps = mp.log(mp.mpf(hat) * mp.mpf(eps))
    for j in range(j_start, len(logs)):
        bound = float(mp.mpf(pq) ** j * log_hat_eps)
        if logs[j] < bound - 1e-9 * max(1.0, abs(bound)):
            return False
    return True


def test_lower_bound_chains():
    for n, s1, s2, p, q, eps, M in (
        (1, 0.0, 0.0, 2.0, 2.0, 0.1, 1.0),
        (1, 1.0, 0.0, 1.5, 2.0, 0.01, 2.0),
        (2, 2.0, 1.0, 2.0, 3.0, 0.5, 0.5),
    ):
        sysp = _system(s1, s2, p, q)
        sub = subcritical_sequences(n, sysp, M=M, eps=eps, jmax=20, raw=True)
        assert _log_bound_holds(sub.logCs, sub.j0, p * q, sub.Chat, eps), (
            "subcritical bound chain failed"
        )
        crit = critical_sequences(n, sysp, M=M, eps=eps, jmax=20, raw=True)
        assert _log_bound_holds(crit.logDs, crit.j1, p * q, crit.Dhat, eps)
        cusp = cusp_sequences(n, sysp, M=M, eps=eps, jmax=20, raw=True)
        assert _log_bound_holds(cusp.logEs, cusp.j2, p * q, cusp.Ehat, eps)


def test_lifespan_rate_subcritical():
    pred = lifespan_rate_system(1, _system(0.0, 0.0, 2.0, 2.0))
    assert pred.regime == "algebraic" and pred.rate == 1.0
    assert pred.branch == "omega_positive"


def test_lifespan_rate_single_critical_branch():
    pred = lifespan_rate_system(1, _system(2.0, 4.0, 2.0, 2.0))
    assert pred.regime == "exponential"
    assert pred.rate == 2.0 * 2.0 - 1.0
    assert pred.branch == "critical_branch1"


def test_lifespan_rate_cusp_symmetric_matches_single_equation():
    # sigma1 = sigma2: (pq-1)/(p+1) at the cusp equals glassey - 1
    for n, sigma in ((1, 2.0), (3, 0.0)):
        cusp = cusp_exponents(n, sigma, sigma)
        pred = lifespan_rate_system(n, _system(sigma, sigma, cusp.p, cusp.q))
        assert pred.regime == "exponential"
        assert pred.rate == glassey(n + sigma) - 1.0


def test_lifespan_rate_cusp_asymmetric():
    # n=1, sigma1=3, sigma2=2: admissible cusp pair (5/2, 4/3)
    cusp = cusp_exponents(1, 3.0, 2.0)
    assert cusp.admissible
    assert abs(lambda_curve(4.0, cusp.p, cusp.q)) <= 1e-12
    assert abs(lambda_curve(3.0, cusp.q, cusp.p)) <= 1e-12
    pred = lifespan_rate_system(1, _system(3.0, 2.0, cusp.p, cusp.q))
    assert pred.regime == "exponential"
    assert pred.branch == "cusp_sigma1_ge_sigma2"
    pq = cusp.p * cusp.q
    assert pred.rate == min((pq - 1) / (cusp.p + 1), (pq - 1) / (cusp.q + 1))


def test_lifespan_rate_supercritical_marker():
    pred = lifespan_rate_system(3, _system(0.0, 0.0, 3.0, 3.0))
    assert pred.regime == "none" and pred.rate is None


def test_divergence_threshold_subcritical():
    sysp = _system(0.0, 0.0, 2.0, 2.0)
    seq = subcritical_sequences(1, sysp, M=1.0, eps=0.1, jmax=5)
    cbar = 2.0 ** (-seq.B / (seq.pq - 1.0)) * seq.Chat
    want_threshold = (cbar * 0.1) ** (-1.0 / seq.lambda1)
    verdict = divergence_threshold(seq, z=want_threshold, R=1.0)
    assert verdict.regime == "subcritical"
    assert abs(verdict.threshold - want_threshold) <= 1e-12 * want_threshold
    # just past the threshold in t = z + R the bracket exceeds one
    assert divergence_threshold(seq, z=1.1 * want_threshold, R=1.0).diverges
    assert not divergence_threshold(seq, z=0.5 * want_threshold - 1.0, R=1.0).diverges


def test_divergence_threshold_critical_and_cusp():
    # critical threshold z* = 2R exp((Dhat eps)^-(pq-1)) overflows floats
    # here, so the log form carries the value
    crit = critical_sequences(1, _system(2.0, 4.0, 2.0, 2.0), M=1.0, eps=0.1, jmax=5)
    want_log = math.log(2.0) + (crit.Dhat * 0.1) ** -3.0
    verdict = divergence_threshold(crit, z=3.0, R=1.0)
    assert verdict.regime == "critical"
    assert abs(verdict.log_threshold - want_log) <= 1e-12 * want_log
    assert math.isinf(verdict.threshold)

    cusp = cusp_sequences(1, _system(2.0, 2.0, 2.0, 2.0), M=1.0, eps=0.1, jmax=5)
    want = math.exp((cusp.Ehat * 0.1) ** -1.0)  # z* = R exp(...), R = 1
    verdict = divergence_threshold(cusp, z=2.0, R=1.0)
    assert verdict.regime == "cusp"
    assert abs(verdict.threshold - want) <= 1e-12 * want

    # both log regimes hold on z >= edge, with edge 2R (critical) and R (cusp)
    for seq, edge in ((crit, 2.0), (cusp, 1.0)):
        at_edge = divergence_threshold(seq, z=edge, R=1.0)
        assert at_edge.domain_ok and at_edge.bracket == 0.0
        assert not divergence_threshold(seq, z=0.9 * edge, R=1.0).domain_ok


def test_divergence_thresholds_reproduce_lifespan_rates():
    # the eps-exponent of each threshold matches the predicted lifespan rate
    sysp = _system(0.0, 0.0, 2.0, 2.0)
    e1, e2 = 1e-3, 1e-4
    l1 = divergence_threshold(
        subcritical_sequences(1, sysp, M=1.0, eps=e1, jmax=3), z=10.0, R=1.0
    ).log_threshold
    l2 = divergence_threshold(
        subcritical_sequences(1, sysp, M=1.0, eps=e2, jmax=3), z=10.0, R=1.0
    ).log_threshold
    slope = (l2 - l1) / (math.log(e2) - math.log(e1))
    pred = lifespan_rate_system(1, sysp)
    assert abs(slope + pred.rate) <= 1e-9

    crit_sys = _system(2.0, 4.0, 2.0, 2.0)
    l1 = divergence_threshold(
        critical_sequences(1, crit_sys, M=1.0, eps=e1, jmax=3), z=3.0, R=1.0
    ).log_threshold
    l2 = divergence_threshold(
        critical_sequences(1, crit_sys, M=1.0, eps=e2, jmax=3), z=3.0, R=1.0
    ).log_threshold
    # log(log z* - log 2R) is linear in log eps with slope -(pq - 1)
    slope = (math.log(l2 - math.log(2.0)) - math.log(l1 - math.log(2.0))) / (
        math.log(e2) - math.log(e1)
    )
    pred = lifespan_rate_system(1, crit_sys)
    assert abs(slope + pred.rate) <= 1e-9

    cusp_sys = _system(2.0, 2.0, 2.0, 2.0)
    l1 = divergence_threshold(
        cusp_sequences(1, cusp_sys, M=1.0, eps=e1, jmax=3), z=2.0, R=1.0
    ).log_threshold
    l2 = divergence_threshold(
        cusp_sequences(1, cusp_sys, M=1.0, eps=e2, jmax=3), z=2.0, R=1.0
    ).log_threshold
    slope = (math.log(l2) - math.log(l1)) / (math.log(e2) - math.log(e1))
    pred = lifespan_rate_system(1, cusp_sys)
    assert abs(slope + pred.rate) <= 1e-9


def test_divergence_rejects_raw_subcritical_without_positive_branch():
    seq = subcritical_sequences(
        3, _system(0.0, 0.0, 3.0, 3.0), M=1.0, eps=0.1, jmax=3, raw=True
    )
    with pytest.raises(ValueError, match="lambda1"):
        divergence_threshold(seq, z=5.0, R=1.0)


BUILDERS = {
    "subcritical": (subcritical_sequences, _system(0.0, 0.0, 2.0, 2.0)),
    "critical": (critical_sequences, _system(2.0, 4.0, 2.0, 2.0)),
    "cusp": (cusp_sequences, _system(2.0, 2.0, 2.0, 2.0)),
}


@pytest.mark.parametrize("family", sorted(BUILDERS))
@pytest.mark.parametrize(
    "name, value",
    [
        ("M", 0.0), ("M", math.nan), ("M", math.inf),
        ("eps", -0.1), ("eps", math.nan), ("eps", math.inf),
        ("C", math.inf), ("C", math.nan), ("K", 0.0), ("K", math.nan),
        ("jmax", -1), ("jmax", 2.5),
    ],
)
def test_sequences_validate_inputs(family, name, value):
    build, sysp = BUILDERS[family]
    kwargs = {"M": 1.0, "eps": 0.1, "jmax": 3, "C": 1.0, "K": 1.0, name: value}
    with pytest.raises(ValueError, match=f"{name} must be"):
        build(1, sysp, **kwargs)


@pytest.mark.parametrize("family", sorted(BUILDERS))
@pytest.mark.parametrize(
    "z, R", [(math.nan, 1.0), (math.inf, 1.0), (0.0, 1.0), (2.0, math.nan), (2.0, -1.0)]
)
def test_divergence_threshold_validates_point(family, z, R):
    build, sysp = BUILDERS[family]
    seq = build(1, sysp, M=1.0, eps=0.1, jmax=3)
    with pytest.raises(ValueError, match="need finite z > 0 and R > 0"):
        divergence_threshold(seq, z=z, R=R)
