"""Cauchy data and source-term descriptions shared by both solvers.

Data profiles are samplers (callables) with compact support in [-R, R] and
a separate small amplitude eps, matching the small-data blow-up setting.
The built-in family is the classic C^infinity bump
A*exp(-1/(1-(x/R)^2)); experiments on the delta < 1 coefficient branch
must use a zero initial-position profile (only the velocity component may
be nonzero there for the positivity arguments to apply).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "CauchyProfile",
    "SourceTerm",
    "smooth_bump",
    "smooth_bump_derivative",
    "bump_profile",
    "zero_source",
]

Sampler = Callable[[float], float]

_SUPPORT_PROBE_FACTORS = (1.0 + 1e-9, 1.05, 1.25, 1.5, 2.0, 5.0)


@dataclass(frozen=True)
class CauchyProfile:
    """Compactly supported data (u0, u1) with support radius R and amplitude eps.

    ``d_u0`` (derivative of u0) is optional; it is only needed to build
    derived data such as traveling-wave pairs.  The actual initial state of
    a solve is eps*u0, eps*u1.  The data vanish outside [-R, R] (probed at
    construction), so the FD solver samples u0 and u1 only on |x| <= R.
    The closed-form linear solver integrates them with fixed Gauss-Legendre
    rules, so it needs u0 and u1 smooth on [-R, R]; kinked data make it
    raise QuadratureError.
    """

    u0: Sampler
    u1: Sampler
    R: float
    eps: float
    d_u0: Sampler | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.R) and self.R > 0):
            raise ValueError(f"support radius must be finite and > 0, got {self.R}")
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"amplitude eps must be finite and > 0, got {self.eps}")
        scale = 1.0 + max(abs(self.u0(0.0)), abs(self.u1(0.0)))
        for factor in _SUPPORT_PROBE_FACTORS:
            for y in (factor * self.R, -factor * self.R):
                if abs(self.u0(y)) > 1e-14 * scale or abs(self.u1(y)) > 1e-14 * scale:
                    raise ValueError(
                        f"data not supported in [-R, R]: nonzero sample at y={y}"
                    )

    def u0_is_zero(self, n_probe: int = 101) -> bool:
        """True iff u0 vanishes on a probe grid over the support."""
        ys = np.linspace(-self.R, self.R, n_probe)
        return all(self.u0(float(y)) == 0.0 for y in ys)


@dataclass(frozen=True)
class SourceTerm:
    """Forcing term f(t, x), optionally with a spacetime support box.

    ``support`` is (t_lo, t_hi, x_lo, x_hi) or None; it is a quadrature
    hint only, never a constraint on f.  The closed-form linear solver
    integrates f with fixed Gauss-Legendre rules over the box (over the
    whole cone without one), so f must be smooth there: a box wider than
    a kinked f's support makes the solver raise QuadratureError.
    """

    f: Callable[[float, float], float]
    support: tuple[float, float, float, float] | None = None

    def __post_init__(self) -> None:
        if self.support is not None:
            t_lo, t_hi, x_lo, x_hi = self.support
            if not (t_lo <= t_hi and x_lo <= x_hi):
                raise ValueError(
                    f"source support must be (t_lo, t_hi, x_lo, x_hi) with lo <= hi "
                    f"and no NaN, got {self.support}"
                )

    @property
    def is_zero(self) -> bool:
        return False


class _ZeroSource(SourceTerm):
    @property
    def is_zero(self) -> bool:
        return True


def zero_source() -> SourceTerm:
    """The zero forcing term (solvers skip its integral entirely)."""
    return _ZeroSource(f=lambda t, x: 0.0, support=None)


def smooth_bump(R: float, amplitude: float = 1.0) -> Sampler:
    """C^infinity bump A*exp(-1/(1-(x/R)^2)) on |x| < R, zero outside."""

    def sample(x: float) -> float:
        s = x / R
        if abs(s) >= 1.0:
            return 0.0
        return amplitude * math.exp(-1.0 / (1.0 - s * s))

    return sample


def smooth_bump_derivative(R: float, amplitude: float = 1.0) -> Sampler:
    """Derivative of :func:`smooth_bump` (also smooth, also supported in R)."""

    def sample(x: float) -> float:
        s = x / R
        if abs(s) >= 1.0:
            return 0.0
        g = 1.0 - s * s
        return amplitude * math.exp(-1.0 / g) * (-2.0 * s / R) / (g * g)

    return sample


def bump_profile(
    R: float = 1.0,
    eps: float = 0.1,
    amplitude: float = 1.0,
    u0_zero: bool = False,
) -> CauchyProfile:
    """Bump-data profile: u1 is always the bump; u0 is the bump or zero.

    Pass ``u0_zero=True`` for experiments on coefficient bundles with
    delta < 1, where the initial position must vanish.
    """
    bump = smooth_bump(R, amplitude)
    if u0_zero:
        return CauchyProfile(u0=lambda x: 0.0, u1=bump, R=R, eps=eps, d_u0=lambda x: 0.0)
    return CauchyProfile(
        u0=bump, u1=bump, R=R, eps=eps, d_u0=smooth_bump_derivative(R, amplitude)
    )
