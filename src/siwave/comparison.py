"""Single-equation comparison machinery: reduced trace, integral inequality, blow-up point.

Along the characteristic t = z + R the weighted trace

    U(z) = (R+z)^(sigma/2) * u(z+R, z)

of a solution with nonnegative data satisfies the integral inequality

    U(z) >= M*eps + C * int_R^z (R+y)^(-a) |U(y)|^p dy,      a = (n+sigma-1)(p-1)/2,

whose comparison function G (the right-hand side itself) solves the
separable ODE G' = C (R+z)^(-a) G^p with G(R) = M*eps.  Integrating the ODE
gives a closed-form blow-up point z*; a < 1 yields the algebraic lifespan
rate and a = 1 the exponential one.

The constants M and C are never explicit in the underlying estimates; a
frame either takes them from the user or assembles conservative empirical
values from kernel-bound minima (:func:`empirical_frame`), and every frame
records its constant provenance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import SpacetimeField
from .kernels import BoundReport
from .params import ScaleInvariantParams

__all__ = [
    "ReducedTrace",
    "ComparisonFrame",
    "InequalityReport",
    "reduce_solution",
    "verify_fundamental_inequality",
    "comparison_blowup_z",
    "comparison_blowup_log",
    "empirical_frame",
]

#: Tolerance for classifying the weight exponent a as exactly critical.
CRITICAL_A_TOL = 1e-12


@dataclass(frozen=True)
class ReducedTrace:
    """Samples of the weighted characteristic trace U(z), z >= R increasing."""

    R: float
    zs: np.ndarray
    Us: np.ndarray
    sigma: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.R) and self.R > 0):
            raise ValueError(f"R must be finite and > 0, got {self.R}")
        if not math.isfinite(self.sigma):
            raise ValueError(f"sigma must be finite, got {self.sigma}")
        if len(self.zs) != len(self.Us):
            raise ValueError("zs and Us must have equal length")
        if len(self.zs) and (np.diff(self.zs) <= 0).any():
            raise ValueError("zs must be strictly increasing")
        if len(self.zs) and self.zs[0] < self.R - 1e-12:
            raise ValueError(f"trace starts below z = R = {self.R}")


@dataclass(frozen=True)
class ComparisonFrame:
    """Constants (M, C), exponent p, weight exponent a, and support radius R.

    a < 1 is the subcritical weight, a = 1 the critical one; a > 1 carries
    no blow-up conclusion.  ``provenance`` documents where M and C came
    from.
    """

    M: float
    C: float
    p: float
    a: float
    R: float
    provenance: str = "user"

    def __post_init__(self) -> None:
        for name in ("M", "C", "p", "a", "R"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"frame {name} must be finite, got {getattr(self, name)}")
        if self.M < 0 or self.C < 0:
            raise ValueError("frame constants must be >= 0")
        if self.p <= 1:
            raise ValueError(f"need p > 1, got {self.p}")
        if self.a < 0:
            raise ValueError(f"weight exponent a must be >= 0, got {self.a}")
        if self.R <= 0:
            raise ValueError(f"need R > 0, got {self.R}")


def empirical_frame(
    params: ScaleInvariantParams,
    p: float,
    R: float,
    bounds: BoundReport,
    data_l1: float,
) -> ComparisonFrame:
    """Conservative frame constants assembled from empirical kernel minima (n=1).

    Every factor is a lower bound on its counterpart in the derivation of
    the integral inequality, so the resulting frame is the weakest claim
    consistent with the kernel measurements:

      common = 2^(-sqrt(delta)) * ((2R)/(1+2R))^(sigma/2)
          the representation-formula prefactor and the worst ratio of the
          trace weight (R+z)^(sigma/2) to the kernel decay (1+t)^(sigma/2)
          on the characteristic;
      M = common * min(c_K1, c_mix) * data_l1
          (c_K1 alone when the mixed bound is unavailable, i.e. the
          zero-initial-position data mode);
      C = common * c_E * min(1, 1/(2R))^(sigma/2) * (2R)^(1-p)
          with the middle factor bounding ((1+b)/(R+y))^(sigma/2) on the
          shrunken integration strip and (2R)^(1-p) the Jensen constant of
          the strip average.
    """
    for name, value, bound, ok in (("R", R, "> 0", R > 0), ("p", p, "> 1", p > 1),
                                   ("data_l1", data_l1, ">= 0", data_l1 >= 0)):
        if not (math.isfinite(value) and ok):
            raise ValueError(f"{name} must be finite and {bound}, got {value}")
    sig = params.sigma
    common = 2.0 ** (-math.sqrt(params.delta)) * ((2.0 * R) / (1.0 + 2.0 * R)) ** (0.5 * sig)
    kernel_floor = bounds.c_K1 if bounds.c_mix is None else min(bounds.c_K1, bounds.c_mix)
    strip_floor = min(1.0, 1.0 / (2.0 * R)) ** (0.5 * sig)
    M = common * kernel_floor * data_l1
    C = common * bounds.c_E * strip_floor * (2.0 * R) ** (1.0 - p)
    provenance = (
        f"empirical(c_K1={bounds.c_K1:.6g}, c_E={bounds.c_E:.6g}, "
        f"c_mix={'n/a' if bounds.c_mix is None else format(bounds.c_mix, '.6g')}, "
        f"data_l1={data_l1:.6g})"
    )
    # a = (n+sigma-1)(p-1)/2 at n = 1, kept in that form: (1+sigma)-1 is not
    # always sigma in floating point
    a = 0.5 * (1 + sig - 1.0) * (p - 1.0)
    return ComparisonFrame(M=M, C=C, p=p, a=a, R=R, provenance=provenance)


def reduce_solution(field: SpacetimeField, params: ScaleInvariantParams, R: float) -> ReducedTrace:
    """Sample U(z) = (R+z)^(sigma/2) u(z+R, z) by bilinear interpolation.

    The z nodes are the grid's x nodes with z >= R and z + R inside the
    stored time range.
    """
    if not (math.isfinite(R) and R > 0):
        raise ValueError(f"R must be finite and > 0, got {R}")
    xs = field.xs
    zs = xs[(xs >= R) & (xs + R <= float(field.times[-1]))]
    if len(zs) == 0:
        raise ValueError("field does not cover any characteristic points z >= R")
    us = field.interpolate(zs + R, zs)
    return ReducedTrace(R=R, zs=zs, Us=(R + zs) ** (0.5 * params.sigma) * us, sigma=params.sigma)


@dataclass(frozen=True)
class InequalityReport:
    """Pointwise comparison of the trace against the integral lower bound."""

    zs: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    min_margin: float
    argmin_z: float
    holds: bool
    frame: ComparisonFrame
    eps: float


def verify_fundamental_inequality(
    trace: ReducedTrace, frame: ComparisonFrame, eps: float
) -> InequalityReport:
    """Check U(z) >= M*eps + C int (R+y)^(-a) |U|^p dy on the sampled trace.

    The integral is accumulated by the trapezoidal rule from the first
    trace node (z ~ R), so the right-hand side is the sampled counterpart
    of the exact lower bound.
    """
    if len(trace.zs) < 3:
        raise ValueError("trace too short: need at least 3 points")
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"need finite eps > 0, got {eps}")
    zs, us = trace.zs, trace.Us
    integrand = (frame.R + zs) ** (-frame.a) * np.abs(us) ** frame.p
    cumulative = np.concatenate(
        ([0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(zs)))
    )
    rhs = frame.M * eps + frame.C * cumulative
    margins = us - rhs
    idx = int(np.argmin(margins))
    return InequalityReport(
        zs=zs,
        lhs=us,
        rhs=rhs,
        min_margin=float(margins[idx]),
        argmin_z=float(zs[idx]),
        holds=bool(margins[idx] >= 0.0),
        frame=frame,
        eps=eps,
    )


def comparison_blowup_log(frame: ComparisonFrame, eps: float) -> float:
    """log(R + z*) for the comparison blow-up point (stable for tiny eps).

    Separating variables in G' = C(R+z)^(-a) G^p from G(R) = M*eps gives

      a < 1:  (R+z*)^(1-a) = (2R)^(1-a) + (1-a)(M eps)^(1-p) / (C (p-1)),
      a = 1:  R + z* = 2R * exp((M eps)^(1-p) / (C (p-1))),

    and this function returns log(R+z*), which stays representable long
    after z* itself overflows (the critical case grows like exp(eps^(1-p))).
    Returns math.inf for a > 1 (no blow-up forced by comparison) or for
    degenerate constants.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"need finite eps > 0, got {eps}")
    if frame.M == 0.0 or frame.C == 0.0 or frame.a > 1.0 + CRITICAL_A_TOL:
        return math.inf
    x = (frame.M * eps) ** (1.0 - frame.p) / (frame.C * (frame.p - 1.0))
    if frame.a >= 1.0 - CRITICAL_A_TOL:
        return math.log(2.0 * frame.R) + x
    s = 1.0 - frame.a
    # log(R+z*) = log((2R)^s + s*x) / s through log1p/expm1 so the a -> 1
    # limit degrades gracefully
    return math.log1p(math.expm1(s * math.log(2.0 * frame.R)) + s * x) / s


def comparison_blowup_z(frame: ComparisonFrame, eps: float) -> float:
    """Blow-up point z* of the comparison ODE G' = C(R+z)^(-a) G^p, G(R) = M*eps.

    See :func:`comparison_blowup_log` for the closed forms.  Returns
    math.inf wherever that function does (a > 1, M = 0 or C = 0) and also
    when z* exceeds the float range (use the log variant for asymptotic
    studies).
    Values z* < 2R mean the data are so large that blow-up happens before
    the asymptotic regime ("immediate blow-up").
    """
    log_rz = comparison_blowup_log(frame, eps)
    if log_rz == math.inf:
        return math.inf
    if frame.a == 0.0:
        # exact arithmetic matters here: z* = R + (M eps)^(1-p) / (C (p-1))
        return frame.R + (frame.M * eps) ** (1.0 - frame.p) / (frame.C * (frame.p - 1.0))
    try:
        return math.exp(log_rz) - frame.R
    except OverflowError:
        return math.inf
