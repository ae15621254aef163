"""Iteration sequences for the weakly coupled system and their divergence thresholds.

The coupled blow-up argument runs an induction on lower bounds of the
weighted traces (U, V):

  * subcritical (first branch of the critical curve positive):
        U(z) >= C_j (R+z)^(-alpha_j) (z-R)^(beta_j);
  * critical (first branch exactly zero): logarithmic lower bounds on the
    sliced domains z >= l_j R with l_j = 2 - 2^-(j+1) increasing to 2;
  * cusp (both branches zero): logarithmic bounds on the unsliced domain,
    with weight (R+y)^(-1) on both equations.

All three run one affine log-recursion.  The exponent x_j (beta_j, theta_j,
rho_j) follows x_{j+1} = a + pq x_j from x_0 = 0, with closed form
a((pq)^j - 1)/(pq - 1), and the constant X_j (C_j, D_j, E_j) follows

    log X_{j+1} = pq log X_j + log(C K^p) - (k1 j + k0) log 2
                  - w p log(s + q x_j) - log x_{j+1},   log X_0 = log(M eps).

With e = w p + 1, Xtilde = 2^(-k0) C K^p (a/(pq-1))^(-e) and
g = 2^(k1) pq^e, the bound log X_j >= (pq)^j log(Xhat eps) holds from
j = max(0, ceil(log Xtilde / log g - pq/(pq-1))) on, where
Xhat = M g^(-pq/(pq-1)^2) Xtilde^(1/(pq-1)).  The families differ only in
their coefficient row:

    family        a      s           w   k0                k1
    subcritical   B      sigma2/2+1  1   0                 0
    critical      1      -           0   (4+sigma2/2)p+1   p
    cusp          p+1    1           1   p+1               0

where B = sigma2 p/2 + sigma1/2 + p + 1.  The subcritical alpha_j run the
same affine recursion with offset A = (n+sigma1-1)(pq-1)/2 + sigma2 p/2 +
sigma1/2.

Every multiplicative sequence is computed in logarithmic form with mpmath
extended precision (the plain values overflow any fixed-width float by
j ~ 10), storing both the exact recursion and the closed form for
cross-checking.  Divergence of the bound as j -> infinity is what forces
blow-up; :func:`divergence_threshold` evaluates the bracketed quantity whose
excess over 1 triggers it, reproducing the lifespan rates of
:func:`lifespan_rate_system`.

The frame constants C, K (and the data constant M) are not explicit in the
underlying estimates; they default to 1 and are injectable, so every
eps-threshold is reported as a function of them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import mpmath as mp

from .params import (
    LifespanPrediction,
    SystemParams,
    classify_system,
    lambda_curve,
)

__all__ = [
    "SubcriticalSequences",
    "CriticalSequences",
    "CuspSequences",
    "DivergenceVerdict",
    "subcritical_sequences",
    "critical_sequences",
    "cusp_sequences",
    "lifespan_rate_system",
    "divergence_threshold",
]

#: Working precision (decimal digits) for the sequence recursions.
SEQUENCE_DPS = 60


def _regime_check(n: int, sys: SystemParams, wanted: str, raw: bool) -> bool:
    """Return the regime-mismatch flag; raise unless raw mode accepts it."""
    report = classify_system(n, sys)
    if wanted == "subcritical":
        ok = report.lambda1 > 0.0 and report.lambda1 >= report.lambda2
    elif wanted == "critical":
        ok = report.regime == "critical_branch1"
    else:  # cusp
        ok = report.regime == "cusp"
    if not ok and not raw:
        if report.regime == wanted:  # subcritical, led by the lambda2 branch
            raise ValueError(
                f"parameters are in regime 'subcritical', but the lambda2 branch "
                f"dominates (lambda1 = {report.lambda1:.6g} < lambda2 = "
                f"{report.lambda2:.6g}); relabel the components (swap p<->q and "
                "sigma1<->sigma2), or pass raw=True (--raw on the command line) to "
                "build the sequences anyway"
            )
        raise ValueError(
            f"parameters are in regime '{report.regime}', not '{wanted}'; pass raw=True "
            "(--raw on the command line) to build the sequences anyway"
        )
    return not ok


def _float_list(values: list[mp.mpf]) -> list[float]:
    return [float(v) for v in values]


def _affine(a: mp.mpf, pq: mp.mpf, jmax: int) -> tuple[list[mp.mpf], list[mp.mpf]]:
    """x_{j+1} = a + pq x_j from x_0 = 0, and its closed form, for j = 0..jmax."""
    xs = [mp.mpf(0)]
    for _ in range(jmax):
        xs.append(a + pq * xs[-1])
    return xs, [a * (pq**j - 1) / (pq - 1) for j in range(jmax + 1)]


def _induction(
    M: float,
    eps: float,
    jmax: int,
    C: float,
    K: float,
    p: mp.mpf,
    q: mp.mpf,
    row: tuple,
) -> tuple[list[float], list[float], list[float], int, float]:
    """Run the shared induction for the coefficient row (a, s, w, k0, k1).

    Returns x_j, their closed form and log X_j for j = 0..jmax, the start
    index of the bound and Xhat.  Call inside ``mp.workdps(SEQUENCE_DPS)``;
    see the module docstring for the recursion, the bound and the rows.
    """
    for name, value in (("M", M), ("eps", eps), ("C", C), ("K", K)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    if isinstance(jmax, bool) or not isinstance(jmax, numbers.Integral) or jmax < 0:
        raise ValueError(f"jmax must be an integer >= 0, got {jmax}")
    a, s, w, k0, k1 = row
    pq = p * q
    xs, xs_closed = _affine(a, pq, jmax)
    log_ckp = mp.log(C) + p * mp.log(K)
    logs = [mp.log(mp.mpf(M) * mp.mpf(eps))]
    for j in range(jmax):
        log_next = pq * logs[-1] + log_ckp - (k1 * j + k0) * mp.log(2)
        if w:  # the critical row has no s
            log_next -= w * p * mp.log(s + q * xs[j])
        logs.append(log_next - mp.log(xs[j + 1]))

    e = w * p + 1
    tilde = mp.mpf(2) ** (-k0) * C * mp.mpf(K) ** p * (a / (pq - 1)) ** (-e)
    g = mp.mpf(2) ** k1 * pq**e
    hat = M * g ** (-pq / (pq - 1) ** 2) * tilde ** (1 / (pq - 1))
    start = max(0, int(mp.ceil(mp.log(tilde) / mp.log(g) - pq / (pq - 1))))
    return _float_list(xs), _float_list(xs_closed), _float_list(logs), start, float(hat)


@dataclass(frozen=True)
class SubcriticalSequences:
    """Sequences of the subcritical induction, in logarithmic form.

    alphas/betas hold the recursion values, *_closed the closed forms
    A((pq)^j - 1)/(pq-1) and B((pq)^j - 1)/(pq-1); logCs is the exact
    log C_j recursion.  For j >= j0 the bound
    log C_j >= (pq)^j log(Chat*eps) holds.
    """

    pq: float
    A: float
    B: float
    alphas: list[float]
    betas: list[float]
    alphas_closed: list[float]
    betas_closed: list[float]
    logCs: list[float]
    j0: int
    Chat: float
    p: float
    q: float
    eps: float
    lambda1: float
    regime_mismatch: bool


def subcritical_sequences(
    n: int,
    sys: SystemParams,
    M: float,
    eps: float,
    jmax: int,
    C: float = 1.0,
    K: float = 1.0,
    raw: bool = False,
) -> SubcriticalSequences:
    """Build alpha_j, beta_j, log C_j for j = 0..jmax plus the bound constants."""
    mismatch = _regime_check(n, sys, "subcritical", raw)
    with mp.workdps(SEQUENCE_DPS):
        p, q = mp.mpf(sys.p), mp.mpf(sys.q)
        s1, s2 = mp.mpf(sys.sigma1), mp.mpf(sys.sigma2)
        pq = p * q
        A = (n + s1 - 1) * (pq - 1) / 2 + s2 * p / 2 + s1 / 2
        B = s2 * p / 2 + s1 / 2 + p + 1
        betas, betas_closed, logcs, j0, chat = _induction(
            M, eps, jmax, C, K, p, q, (B, s2 / 2 + 1, 1, 0, 0)
        )
        alphas, alphas_closed = _affine(A, pq, jmax)
    return SubcriticalSequences(
        pq=float(pq),
        A=float(A),
        B=float(B),
        alphas=_float_list(alphas),
        betas=betas,
        alphas_closed=_float_list(alphas_closed),
        betas_closed=betas_closed,
        logCs=logcs,
        j0=j0,
        Chat=chat,
        p=sys.p,
        q=sys.q,
        eps=eps,
        lambda1=lambda_curve(n + sys.sigma1, sys.p, sys.q),
        regime_mismatch=mismatch,
    )


@dataclass(frozen=True)
class CriticalSequences:
    """Slicing sequence l_j, log exponents theta_j, and log D_j."""

    ells: list[float]
    thetas: list[float]
    thetas_closed: list[float]
    logDs: list[float]
    j1: int
    Dhat: float
    p: float
    q: float
    eps: float
    regime_mismatch: bool


def critical_sequences(
    n: int,
    sys: SystemParams,
    M: float,
    eps: float,
    jmax: int,
    C: float = 1.0,
    K: float = 1.0,
    raw: bool = False,
) -> CriticalSequences:
    """Build l_j, theta_j, log D_j for the single-branch critical induction."""
    mismatch = _regime_check(n, sys, "critical", raw)
    with mp.workdps(SEQUENCE_DPS):
        p, q = mp.mpf(sys.p), mp.mpf(sys.q)
        k0 = (4 + mp.mpf(sys.sigma2) / 2) * p + 1
        thetas, thetas_closed, logds, j1, dhat = _induction(
            M, eps, jmax, C, K, p, q, (mp.mpf(1), None, 0, k0, p)
        )
    return CriticalSequences(
        ells=[2.0 - 2.0 ** -(j + 1) for j in range(jmax + 1)],
        thetas=thetas,
        thetas_closed=thetas_closed,
        logDs=logds,
        j1=j1,
        Dhat=dhat,
        p=sys.p,
        q=sys.q,
        eps=eps,
        regime_mismatch=mismatch,
    )


@dataclass(frozen=True)
class CuspSequences:
    """Log exponents rho_j and log E_j of the cusp-point induction."""

    rhos: list[float]
    rhos_closed: list[float]
    logEs: list[float]
    j2: int
    Ehat: float
    p: float
    q: float
    eps: float
    regime_mismatch: bool


def cusp_sequences(
    n: int,
    sys: SystemParams,
    M: float,
    eps: float,
    jmax: int,
    C: float = 1.0,
    K: float = 1.0,
    raw: bool = False,
) -> CuspSequences:
    """Build rho_j and log E_j for the double-critical (cusp) induction."""
    mismatch = _regime_check(n, sys, "cusp", raw)
    with mp.workdps(SEQUENCE_DPS):
        p, q = mp.mpf(sys.p), mp.mpf(sys.q)
        rhos, rhos_closed, loges, j2, ehat = _induction(
            M, eps, jmax, C, K, p, q, (p + 1, mp.mpf(1), 1, p + 1, 0)
        )
    return CuspSequences(
        rhos=rhos,
        rhos_closed=rhos_closed,
        logEs=loges,
        j2=j2,
        Ehat=ehat,
        p=sys.p,
        q=sys.q,
        eps=eps,
        regime_mismatch=mismatch,
    )


def lifespan_rate_system(n: int, sys: SystemParams) -> LifespanPrediction:
    """Predicted lifespan scaling of the coupled system, per critical-curve regime.

    regime 'algebraic':   T <~ eps^(-rate) with rate = 1/Omega;
    regime 'exponential': log T <~ eps^(-rate), where rate is pq-1 on a
        single critical branch and (pq-1)/(p+1) resp. (pq-1)/(q+1) at the
        cusp (the branch with the larger shift wins, which is the min);
    regime 'none':        Omega < 0, no prediction.

    ``branch`` names the critical-curve case that gave the rate.
    """
    report = classify_system(n, sys)
    p, q = sys.p, sys.q
    pq = p * q
    if report.regime == "subcritical":
        return LifespanPrediction(regime="algebraic", rate=1.0 / report.omega, branch="omega_positive")
    if report.regime in ("critical_branch1", "critical_branch2"):
        return LifespanPrediction(regime="exponential", rate=pq - 1.0, branch=report.regime)
    if report.regime == "cusp":
        rate1 = (pq - 1.0) / (p + 1.0)
        rate2 = (pq - 1.0) / (q + 1.0)
        branch = "cusp_sigma1_ge_sigma2" if sys.sigma1 >= sys.sigma2 else "cusp_sigma2_gt_sigma1"
        return LifespanPrediction(regime="exponential", rate=min(rate1, rate2), branch=branch)
    return LifespanPrediction(regime="none", rate=None, branch="supercritical")


@dataclass(frozen=True)
class DivergenceVerdict:
    """Whether the iterated lower bound diverges at a given point.

    ``bracket`` is the quantity whose excess over 1 makes the j -> infinity
    limit blow up; ``threshold`` is the first coordinate (t for the
    subcritical regime, z otherwise) past which that happens, and
    ``log_threshold`` its logarithm (the critical/cusp thresholds are
    exponential in a negative power of eps and overflow floats quickly, so
    the log form is the reliable one for asymptotics).
    """

    regime: str
    bracket: float
    diverges: bool
    threshold: float
    log_threshold: float
    domain_ok: bool


def _exp_or_inf(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def divergence_threshold(
    sequences: SubcriticalSequences | CriticalSequences | CuspSequences,
    z: float,
    R: float,
) -> DivergenceVerdict:
    """Evaluate the divergence bracket of the applicable regime at (z, R)."""
    if not (math.isfinite(z) and z > 0 and math.isfinite(R) and R > 0):
        raise ValueError(f"need finite z > 0 and R > 0, got z={z}, R={R}")
    eps = sequences.eps
    p, q = sequences.p, sequences.q
    pq = p * q
    if isinstance(sequences, SubcriticalSequences):
        lam = sequences.lambda1
        if lam <= 0:
            raise ValueError(
                "subcritical divergence bracket needs lambda1 > 0 "
                "(raw off-regime sequences carry no threshold)"
            )
        cbar = 2.0 ** (-sequences.B / (pq - 1.0)) * sequences.Chat
        t = z + R
        bracket = cbar * eps * t**lam
        log_threshold = -math.log(cbar * eps) / lam
        return DivergenceVerdict(
            regime="subcritical",
            bracket=bracket,
            diverges=bracket > 1.0,
            threshold=_exp_or_inf(log_threshold),
            log_threshold=log_threshold,
            domain_ok=z >= 3.0 * R,
        )
    # log regimes: bracket = hat eps log(z/edge)^(a/(pq-1)) on z >= edge,
    # with the offset a of the exponent recursion
    if isinstance(sequences, CriticalSequences):
        regime, edge, a, hat = "critical", 2.0 * R, 1.0, sequences.Dhat
    elif isinstance(sequences, CuspSequences):
        regime, edge, a, hat = "cusp", R, p + 1.0, sequences.Ehat
    else:
        raise TypeError(f"unrecognized sequence family: {type(sequences).__name__}")
    log_arg = math.log(z / edge) if z > edge else 0.0
    bracket = hat * eps * log_arg ** (a / (pq - 1.0))
    log_threshold = math.log(edge) + (hat * eps) ** (-(pq - 1.0) / a)
    return DivergenceVerdict(
        regime=regime,
        bracket=bracket,
        diverges=bracket > 1.0,
        threshold=_exp_or_inf(log_threshold),
        log_threshold=log_threshold,
        domain_ok=z >= edge,
    )
