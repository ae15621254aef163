"""Cauchy data and source-term descriptions shared by both solvers.

Data profiles are samplers (callables) with compact support in [-R, R] and
a separate small amplitude eps, matching the small-data blow-up setting.
The built-in family is the classic C^infinity bump
A*exp(-1/(1-(x/R)^2)); experiments on the delta < 1 coefficient branch
must use a zero initial-position profile (only the velocity component may
be nonzero there for the positivity arguments to apply).

Sampler contract: a sampler (u0, u1 or the source f) takes floats and
returns a float.  It may also take float ndarrays (f: two arrays, or a
float and an array) and return the float64 ndarray of their broadcast
shape, element by element; the solvers then call it once per batch of
nodes instead of once per node (:func:`_node_sampler`).  Any other answer
to arrays (TypeError or ValueError raised, a scalar, a list, another
shape or dtype) is taken to mean a scalar-only sampler, which keeps
working, one call per node.  The bumps below take either.
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


def _node_sampler(fn: Callable[..., float]) -> Callable[..., np.ndarray]:
    """``fn`` on arrays of nodes: ``sample(*nodes)`` is fn at each node of the
    broadcast ``nodes``, as a float64 array of their shape.

    fn is first called once on the arrays themselves, and its result is kept
    only if it is a float64 ndarray of exactly that shape.  Otherwise (the
    call raised TypeError or ValueError, or returned anything else) fn is
    called once per node on Python floats, and so is every later call of
    this sampler: the array path is decided once.  One-node calls always
    take the loop, where a scalar-only fn may not fail on its array.
    """
    arrays = True

    def sample(*nodes):
        nonlocal arrays
        shape = np.broadcast_shapes(*(np.shape(a) for a in nodes))
        size = math.prod(shape)
        if arrays and size > 1:
            try:
                out = fn(*nodes)
            except (TypeError, ValueError):
                out = None
            if isinstance(out, np.ndarray) and out.dtype == np.float64 and out.shape == shape:
                return out
            arrays = False
        columns = [np.broadcast_to(a, shape).ravel().tolist() for a in nodes]
        return np.fromiter(map(fn, *columns), dtype=float, count=size).reshape(shape)

    return sample


def _check_bump(R: float, amplitude: float) -> None:
    if not (math.isfinite(R) and R > 0):
        raise ValueError(f"support radius must be finite and > 0, got {R}")
    if not math.isfinite(amplitude):
        raise ValueError(f"bump amplitude must be finite, got {amplitude}")


def _on_support(s, value: Callable) -> np.ndarray:
    """value(s, np.exp) where |s| < 1 and 0.0 where |s| >= 1, on an array s;
    NaN counts as inside, as on the scalar paths."""
    s = np.asarray(s)
    out = np.zeros(s.shape)
    inside = ~(np.abs(s) >= 1.0)
    out[inside] = value(s[inside], np.exp)
    return out


def smooth_bump(R: float, amplitude: float = 1.0) -> Sampler:
    """C^infinity bump A*exp(-1/(1-(x/R)^2)) on |x| < R, zero outside.

    R must be finite and > 0 and the amplitude finite (it may be zero or
    negative).  On a float ndarray the bump is the array of its values,
    exactly 0 where |x| >= R; numpy's exp there may differ from the scalar
    path's math.exp by one ulp.
    """
    _check_bump(R, amplitude)

    def value(s, exp):
        return amplitude * exp(-1.0 / (1.0 - s * s))

    def sample(x: float) -> float:
        if isinstance(x, np.ndarray):
            return _on_support(x / R, value)
        s = x / R
        if abs(s) >= 1.0:
            return 0.0
        return value(s, math.exp)

    return sample


def smooth_bump_derivative(R: float, amplitude: float = 1.0) -> Sampler:
    """Derivative of :func:`smooth_bump` (also smooth, also supported in R);
    R, the amplitude and arrays are taken as there."""
    _check_bump(R, amplitude)

    def value(s, exp):
        g = 1.0 - s * s
        return amplitude * exp(-1.0 / g) * (-2.0 * s / R) / (g * g)

    def sample(x: float) -> float:
        if isinstance(x, np.ndarray):
            return _on_support(x / R, value)
        s = x / R
        if abs(s) >= 1.0:
            return 0.0
        return value(s, math.exp)

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
