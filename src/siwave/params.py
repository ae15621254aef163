"""Coefficient algebra and critical exponents for scale-invariant wave models.

The model class is

    u_tt - u_xx + mu/(1+t) u_t + nu2/(1+t)^2 u = |u_t|^p

and its weakly coupled two-component analogue.  Everything in this module is
pure arithmetic on the coefficients: the discriminant ``delta``, the kernel
parameter ``gamma``, the dimensional shift ``sigma``, the classical critical
exponents (Glassey, Fujita, Strauss), the two-branch critical curve for the
coupled system, and the lifespan-rate predictions attached to each regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "ScaleInvariantParams",
    "SystemParams",
    "CriticalCurveReport",
    "CuspExponents",
    "LifespanPrediction",
    "glassey",
    "fujita",
    "strauss",
    "lambda_curve",
    "classify_system",
    "cusp_exponents",
    "predicted_lifespan_exponent",
    "params_with_sigma",
]

#: Relative tolerance below which a critical-curve value counts as zero.
CLASSIFY_TOL = 1e-12


@dataclass(frozen=True)
class ScaleInvariantParams:
    """Damping/mass coefficient bundle (mu, nu2) with derived quantities.

    delta = (mu-1)^2 - 4*nu2 must be nonnegative: for delta < 0 the kernel
    parameter gamma would be complex, which this package does not model.
    sigma is the dimensional shift: mu + 1 - sqrt(delta) when delta < 1,
    plainly mu when delta >= 1 (the two branches agree at delta = 1, and
    ties take the delta >= 1 branch).
    """

    mu: float
    nu2: float
    delta: float = field(init=False)
    gamma: float = field(init=False)
    sigma: float = field(init=False)

    def __post_init__(self) -> None:
        for name in ("mu", "nu2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.mu < 0:
            raise ValueError(f"damping strength mu must be >= 0, got {self.mu}")
        if self.nu2 < 0:
            raise ValueError(f"mass-squared nu2 must be >= 0, got {self.nu2}")
        delta = (self.mu - 1.0) ** 2 - 4.0 * self.nu2
        if delta < 0:
            raise ValueError(
                f"delta = (mu-1)^2 - 4*nu2 = {delta} is negative; "
                "complex kernel parameters are not supported"
            )
        sqrt_delta = math.sqrt(delta)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "gamma", 0.5 * (1.0 - sqrt_delta))
        if delta >= 1.0:
            object.__setattr__(self, "sigma", self.mu)
        else:
            object.__setattr__(self, "sigma", self.mu + 1.0 - sqrt_delta)


def params_with_sigma(sigma: float) -> ScaleInvariantParams:
    """Some coefficient bundle realizing a requested shift sigma >= 0.

    Convenient for sweeps parameterized directly by sigma.  For sigma >= 2
    the massless bundle (mu=sigma, nu2=0) works; below 2 a mass term is
    needed to land on the delta < 1 branch.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0.0 or sigma >= 2.0:
        return ScaleInvariantParams(mu=sigma, nu2=0.0)
    if sigma <= 1.0:
        # mu = 0, sqrt(delta) = 1 - sigma
        return ScaleInvariantParams(mu=0.0, nu2=sigma * (2.0 - sigma) / 4.0)
    # mu = sigma - 1, delta = 0
    mu = sigma - 1.0
    return ScaleInvariantParams(mu=mu, nu2=(mu - 1.0) ** 2 / 4.0)


@dataclass(frozen=True)
class SystemParams:
    """Coefficients of the weakly coupled system: two bundles plus (p, q)."""

    comp1: ScaleInvariantParams
    comp2: ScaleInvariantParams
    p: float
    q: float

    def __post_init__(self) -> None:
        for name in ("p", "q"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"exponent {name} must be finite, got {getattr(self, name)}")
        if self.p <= 1 or self.q <= 1:
            raise ValueError(f"exponents must satisfy p, q > 1, got p={self.p}, q={self.q}")

    @property
    def sigma1(self) -> float:
        return self.comp1.sigma

    @property
    def sigma2(self) -> float:
        return self.comp2.sigma


def glassey(d: float) -> float:
    """Glassey exponent (d+1)/(d-1); critical for |u_t|^p nonlinearities."""
    if d <= 1:
        raise ValueError(f"Glassey exponent undefined for dimension {d} <= 1")
    return (d + 1.0) / (d - 1.0)


def fujita(d: float) -> float:
    """Fujita exponent 1 + 2/d; critical for the heat-like regime."""
    if d <= 0:
        raise ValueError(f"Fujita exponent undefined for dimension {d} <= 0")
    return 1.0 + 2.0 / d


def strauss(d: float) -> float:
    """Strauss exponent: positive root of (d-1)p^2 - (d+1)p - 2 = 0.

    The quadratic formula adds two positive terms here, so it is already
    cancellation-free for the positive root.
    """
    if d <= 1:
        raise ValueError(f"Strauss exponent undefined for dimension {d} <= 1")
    return ((d + 1.0) + math.sqrt((d + 1.0) ** 2 + 8.0 * (d - 1.0))) / (2.0 * (d - 1.0))


def lambda_curve(d: float, p: float, q: float) -> float:
    """Critical-curve branch value (p+1)/(pq-1) - (d-1)/2."""
    if p * q <= 1:
        raise ValueError(f"need pq > 1, got p*q = {p * q}")
    return (p + 1.0) / (p * q - 1.0) - (d - 1.0) / 2.0


def _check_dimension(n: int) -> None:
    if not n >= 1:
        raise ValueError(f"need space dimension n >= 1, got {n}")


@dataclass(frozen=True)
class CriticalCurveReport:
    """Both branch values of the critical curve plus the regime label.

    regime is one of 'supercritical', 'subcritical', 'critical_branch1',
    'critical_branch2', 'cusp'.  Blow-up is predicted whenever
    omega = max(lambda1, lambda2) >= 0.
    """

    lambda1: float
    lambda2: float
    omega: float
    regime: str


def classify_system(n: int, sys: SystemParams) -> CriticalCurveReport:
    """Evaluate both critical-curve branches and classify the (p, q) pair.

    A branch counts as zero when its magnitude is below ``CLASSIFY_TOL``
    relative to the size of the terms entering it (so exact-zero
    classification survives floating-point inputs).
    """
    _check_dimension(n)
    p, q = sys.p, sys.q
    lam1 = lambda_curve(n + sys.sigma1, p, q)
    lam2 = lambda_curve(n + sys.sigma2, q, p)
    scale1 = max(1.0, (p + 1.0) / (p * q - 1.0), (n + sys.sigma1 - 1.0) / 2.0)
    scale2 = max(1.0, (q + 1.0) / (p * q - 1.0), (n + sys.sigma2 - 1.0) / 2.0)
    zero1 = abs(lam1) <= CLASSIFY_TOL * scale1
    zero2 = abs(lam2) <= CLASSIFY_TOL * scale2
    omega = max(lam1, lam2)
    if zero1 and zero2:
        regime = "cusp"
    elif zero1 and lam2 < 0:
        regime = "critical_branch1"
    elif zero2 and lam1 < 0:
        regime = "critical_branch2"
    elif omega > 0:
        regime = "subcritical"
    else:
        regime = "supercritical"
    return CriticalCurveReport(lambda1=lam1, lambda2=lam2, omega=omega, regime=regime)


@dataclass(frozen=True)
class CuspExponents:
    """Exponent pair at which both critical-curve branches vanish.

    ``admissible`` records whether both exponents exceed 1; inadmissible
    pairs are reported rather than rejected so sweep tools can map the
    whole (sigma1, sigma2) plane.
    """

    p: float
    q: float
    admissible: bool


def cusp_exponents(n: int, sigma1: float, sigma2: float) -> CuspExponents:
    """Exponents ((n+s1+1)/(n+s2-1), (n+s2+1)/(n+s1-1)) of the cusp point."""
    if n + sigma2 <= 1 or n + sigma1 <= 1:
        raise ValueError(
            f"cusp exponents degenerate: need n+sigma > 1 on both components, "
            f"got n={n}, sigma1={sigma1}, sigma2={sigma2}"
        )
    p = (n + sigma1 + 1.0) / (n + sigma2 - 1.0)
    q = (n + sigma2 + 1.0) / (n + sigma1 - 1.0)
    return CuspExponents(p=p, q=q, admissible=(p > 1.0 and q > 1.0))


@dataclass(frozen=True)
class LifespanPrediction:
    """Predicted lifespan scaling in the data amplitude eps.

    regime 'algebraic':    T(eps) <~ eps^(-rate)
    regime 'exponential':  log T(eps) <~ eps^(-rate)
    regime 'none':         no blow-up prediction (rate is None)

    ``branch`` is the critical-curve label of a coupled-system prediction
    (:func:`siwave.iteration.lifespan_rate_system`) and None for the single
    equation.
    """

    regime: str
    rate: float | None
    branch: str | None = None


def predicted_lifespan_exponent(n: int, params: ScaleInvariantParams, p: float) -> LifespanPrediction:
    """Lifespan rate for the single equation at shifted dimension n+sigma.

    Below the shifted Glassey exponent the bound is algebraic with rate
    (1/(p-1) - (n+sigma-1)/2)^(-1); at the exponent it is exponential with
    rate p-1; above it there is no blow-up prediction.
    """
    _check_dimension(n)
    if not (math.isfinite(p) and p > 1):
        raise ValueError(f"need finite p > 1, got {p}")
    d = n + params.sigma
    a = 0.5 * (d - 1.0) * (p - 1.0)
    if a > 1.0 + CLASSIFY_TOL:
        return LifespanPrediction(regime="none", rate=None)
    if a >= 1.0 - CLASSIFY_TOL:
        return LifespanPrediction(regime="exponential", rate=p - 1.0)
    return LifespanPrediction(regime="algebraic", rate=(p - 1.0) / (1.0 - a))
