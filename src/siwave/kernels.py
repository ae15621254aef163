"""Kernel functions of the closed-form 1D linear solver and their lower bounds.

Three kernels enter the solution formula (module :mod:`siwave.linear`):

    E(t,x;b,y)   weight of the source inside the Duhamel double integral,
    K1(t,x;y)    weight of the initial velocity data (E restricted to b=0),
    K0(t,x;y)    weight of the initial displacement (-d/db E at b=0).

All three are built from power factors and F(gamma,gamma;1;zeta) with
zeta = ((t-b)^2 - (y-x)^2) / ((t+b+2)^2 - (y-x)^2) in [0,1) on the
light-cone domain 0 <= b <= t, |y-x| <= t-b.  zeta is always computed in
the factored form ((t-b)+w)((t-b)-w) / ((t+b+2)+w)((t+b+2)-w) to avoid
cancellation near the light cone, where the hypergeometric argument must
stay accurate; points within 1e-12*(1+t) of the cone are accepted and
clamped onto it.

The solver's positivity arguments need the weighted minima of K1, E and
K0 + mu*K1; :func:`verify_kernel_lower_bounds` reports those minima over a
point sample (the hidden constants of the underlying estimates are never
explicit, so empirical minima are the checkable surrogate).  The mixed
bound has no positive constant at mu = 0: on delta = 1 the weighted
K0 + mu*K1 is identically mu/2, which vanishes for the free wave.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .hypergeom import hyp2f1_grid
from .params import ScaleInvariantParams

__all__ = [
    "KernelPoint",
    "LightConeSample",
    "BoundReport",
    "kernel_E",
    "kernel_K0_K1",
    "verify_kernel_lower_bounds",
    "light_cone_sample",
]

#: Relative slack for accepting points on (or within rounding of) the cone.
CONE_SLACK = 1e-12


def _zeta(t: float, b: float, w: float) -> float:
    num = ((t - b) + w) * ((t - b) - w)
    den = ((t + b + 2.0) + w) * ((t + b + 2.0) - w)
    return max(0.0, num / den)


def _check_domain(t: float, b: float, w: float) -> None:
    if not (math.isfinite(t) and math.isfinite(b) and math.isfinite(w)):
        raise ValueError(f"kernel point must be finite, got t={t}, b={b}, y-x={w}")
    slack = CONE_SLACK * (1.0 + t)
    if t < 0 or b < -slack or b > t + slack:
        raise ValueError(f"point outside light-cone domain: t={t}, b={b}")
    if abs(w) > (t - b) + slack:
        raise ValueError(
            f"point outside light-cone domain: |y-x|={abs(w)} > t-b={t - b}"
        )


@dataclass(frozen=True)
class KernelPoint:
    """A spacetime quadruple (t, x, b, y) inside the light-cone domain."""

    t: float
    x: float
    b: float
    y: float
    zeta: float = field(init=False)

    def __post_init__(self) -> None:
        _check_domain(self.t, self.b, self.y - self.x)
        object.__setattr__(self, "zeta", _zeta(self.t, self.b, self.y - self.x))


def _E(params: ScaleInvariantParams, t, b, w, weight: float = 0.0):
    """E(t, x; b, x + w) times (1+t)^(weight/2) (1+b)^(-weight/2), on arrays.

    The weight is folded into the power exponents before exponentiation,
    so weighted values that are identically 1 (e.g. mu=2, nu2=0, weight =
    sigma) come out exactly 1 instead of a product of nearly reciprocal
    powers.
    """
    mu, gamma = params.mu, params.gamma
    den = ((t + b + 2.0) + w) * ((t + b + 2.0) - w)
    value = (
        (1.0 + t) ** (-0.5 * mu + gamma + 0.5 * weight)
        * (1.0 + b) ** (0.5 * mu + gamma - 0.5 * weight)
        * den**-gamma
    )
    if gamma != 0.0:
        zeta = np.maximum(0.0, ((t - b) + w) * ((t - b) - w) / den)
        value = value * hyp2f1_grid(gamma, gamma, 1.0, zeta)
    return value


def _data_kernels(params: ScaleInvariantParams, t, w, weight: float = 0.0, mixed: bool = True):
    """(K0 + mu*K1, K1) at (t, x; x + w), both times (1+t)^(weight/2), on arrays.

    K1 = E(b=0) and K0 = -dE/db at b=0, from the analytic expansion: the
    bracket of K0 + mu*K1 combines the derivative of the hypergeometric
    argument (an F(gamma+1,gamma+1;2;zeta) term), of the (1+b) power and of
    the distance power; no numerical differentiation is involved.  With
    ``mixed=False`` the first entry is None and F(gamma+1,gamma+1;2;zeta)
    is not evaluated.
    """
    mu, gamma = params.mu, params.gamma
    den0 = ((t + 2.0) + w) * ((t + 2.0) - w)
    if gamma != 0.0:
        zeta0 = np.maximum(0.0, (t + w) * (t - w) / den0)
        f1 = hyp2f1_grid(gamma, gamma, 1.0, zeta0)
    else:
        f1 = np.ones_like(t)
    prefactor = (1.0 + t) ** (-0.5 * mu + gamma + 0.5 * weight) * den0**-gamma
    if not mixed:
        return None, prefactor * f1
    combo = (mu - (0.5 * mu + gamma)) * f1
    if gamma != 0.0:
        f2 = hyp2f1_grid(gamma + 1.0, gamma + 1.0, 2.0, zeta0)
        combo = combo + 2.0 * gamma * (t + 2.0) / den0 * f1
        combo = combo - 4.0 * gamma**2 * (1.0 + t) * (w * w - t * (t + 2.0)) / (den0 * den0) * f2
    return prefactor * combo, prefactor * f1


def _E_scalar(params: ScaleInvariantParams, t: float, b: float, w: float) -> float:
    return float(_E(params, np.float64(t), np.float64(b), np.float64(w)))


def kernel_E(params: ScaleInvariantParams, pt: KernelPoint) -> float:
    """Source kernel E at a light-cone point (positive whenever delta >= 0)."""
    return _E_scalar(params, pt.t, pt.b, pt.y - pt.x)


def kernel_K0_K1(params: ScaleInvariantParams, t: float, x: float, y: float) -> tuple[float, float]:
    """Data kernels (K0, K1) at (t,x;y): K1 = E(b=0), K0 = -dE/db|0."""
    w = y - x
    _check_domain(t, 0.0, w)
    mix, k1 = _data_kernels(params, np.float64(t), np.float64(w))
    return float(mix - params.mu * k1), float(k1)


@dataclass(frozen=True)
class BoundReport:
    """Empirical weighted minima of the kernel lower bounds over a sample.

    c_K1  = min K1 * (1+t)^(sigma/2)
    c_E   = min E * (1+t)^(sigma/2) * (1+b)^(-sigma/2)
    c_mix = min (K0 + mu*K1) * (1+t)^(sigma/2), only meaningful for
            delta >= 1 (None otherwise: the estimate is not available on
            the delta < 1 branch).

    On delta = 1 (gamma = 0, sigma = mu) the weighted mixed kernel is
    identically mu/2, so at mu = 0 c_mix is 0.0 and ``all_positive`` is
    False; the minimum is not promised to be positive.
    """

    c_K1: float
    c_E: float
    c_mix: float | None
    n_points: int
    mu: float
    nu2: float
    sigma: float

    @property
    def all_positive(self) -> bool:
        minima = [self.c_K1, self.c_E] + ([self.c_mix] if self.c_mix is not None else [])
        return all(m > 0.0 for m in minima)


def verify_kernel_lower_bounds(
    params: ScaleInvariantParams, sample: LightConeSample
) -> BoundReport:
    """Weighted kernel minima over a light-cone sample.

    K1 and the mixed combination are evaluated on each point's b=0
    projection (always inside the domain); E is evaluated at the full
    point.  The weights are folded into the power exponents (see
    :func:`_E`), so minima that are identically 1 (e.g. mu=2, nu2=0) come
    out exactly 1.
    """
    if not sample:
        raise ValueError("empty kernel sample")
    t, b, w = sample.t, sample.b, sample.y - sample.x
    sig = params.sigma
    mix, k1 = _data_kernels(params, t, w, weight=sig, mixed=params.delta >= 1.0)
    return BoundReport(
        c_K1=float(np.min(k1)),
        c_E=float(np.min(_E(params, t, b, w, weight=sig))),
        c_mix=None if mix is None else float(np.min(mix)),
        n_points=len(sample),
        mu=params.mu,
        nu2=params.nu2,
        sigma=sig,
    )


@dataclass(frozen=True, eq=False)
class LightConeSample:
    """Struct-of-arrays sample of the light-cone domain of the apex (t, x).

    Columns ``t``, ``b`` and ``y`` hold one entry per point; ``x`` is shared.
    ``len()`` is the point count, and iteration yields the points as
    :class:`KernelPoint` records (with ``zeta``), built on demand.  The
    columns are read-only; equality and hashing are by identity (compare
    columns with ``np.array_equal``).
    """

    t: np.ndarray
    b: np.ndarray
    y: np.ndarray
    x: float

    def __post_init__(self) -> None:
        for column in (self.t, self.b, self.y):
            column.setflags(write=False)

    def __len__(self) -> int:
        return self.t.size

    def __iter__(self) -> Iterator[KernelPoint]:
        for t, b, y in zip(self.t.tolist(), self.b.tolist(), self.y.tolist()):
            yield KernelPoint(t=t, x=self.x, b=b, y=y)


def light_cone_sample(
    t_max: float, n_t: int, n_b: int, n_y: int, t_min: float = 0.0, x: float = 0.0
) -> LightConeSample:
    """Regular sample of the light-cone domain: n_t x n_b x n_y points.

    For each time t in (t_min, t_max], b runs over fractions of t and y
    over fractions of the remaining cone width t-b (interior fractions, so
    every point is strictly inside the domain).  The columns are ordered
    t-major, then b, then y.
    """
    if not (math.isfinite(t_min) and math.isfinite(t_max) and math.isfinite(x)):
        raise ValueError(f"sample bounds must be finite, got t_min={t_min}, t_max={t_max}, x={x}")
    if not t_max > t_min:
        raise ValueError(f"need t_max > t_min, got t_min={t_min}, t_max={t_max}")
    for name, count in (("n_t", n_t), ("n_b", n_b), ("n_y", n_y)):
        if not count >= 1:
            raise ValueError(f"{name} must be >= 1, got {count}")
    ts = np.linspace(t_min, t_max, n_t + 1)[1:]
    if ts.size and ts.min() < 0.0:
        raise ValueError(f"point outside light-cone domain: t={ts.min()}")
    b_frac = np.linspace(0.0, 1.0, n_b + 2)[1:-1]
    y_frac = np.linspace(-1.0, 1.0, n_y + 2)[1:-1]
    b = b_frac[None, :] * ts[:, None]
    y = x + y_frac[None, None, :] * (ts[:, None] - b)[:, :, None]
    shape = y.shape
    return LightConeSample(
        t=np.broadcast_to(ts[:, None, None], shape).ravel(),
        b=np.broadcast_to(b[:, :, None], shape).ravel(),
        y=y.ravel(),
        x=x,
    )
