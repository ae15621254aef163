"""Closed-form solution of the 1D linear problem via its integral representation.

For

    u_tt - u_xx + mu/(1+t) u_t + nu2/(1+t)^2 u = f(t,x),
    u(0,x) = eps*u0(x),  u_t(0,x) = eps*u1(x),

the solution at a point is a boundary term plus two kernel integrals:

    u(t,x) = (1/2)(1+t)^(-mu/2) eps*(u0(x+t) + u0(x-t))
           + 2^(-sqrt(delta)) * int_{x-t}^{x+t} eps*[u0*(K0 + mu*K1) + u1*K1] dy
           + 2^(-sqrt(delta)) * int_0^t int_{x-t+b}^{x+t-b} f(b,y)*E dy db.

Both integrals use fixed Gauss-Legendre rules (DLMF 3.5(v)).  The kernels
are analytic inside the light cone (zeta vanishes on the cone and stays
below t^2/(t+2)^2 inside it), so the rules converge fast on every piece
where the data and the slice widths are smooth:

* the data integral runs over the cone base clipped to the data support
  [-R, R];
* the Duhamel integral is a tensor rule, b over the source box clipped to
  the cone, then y over each slice [x-(t-b), x+(t-b)] clipped to the box.
  The slice width has a kink where a cone edge y = x +- (t-b) crosses a
  box edge, so the b range is split there.

Each integral compares the N-node rule with the 2N-node rule, N = 8, 16,
32, up to 2N = NODE_CAP, and returns the 2N-node value once the gap is
within its share of the budget qtol: qtol/4 for the data integral, and for
the Duhamel integral qtol/4 plus qtol/(2(t+1)) per unit length of the b
range (the outer and per-slice shares of nested quadrature).  A gap still
above the budget at the cap raises :class:`QuadratureError`.  The kernels
are evaluated on all nodes at once (module :mod:`siwave.kernels`, K0 from
the analytic derivative expansion); the samplers u0, u1 and f are called
once per node.

The rules are not adaptive, so u0 and u1 must be smooth on [-R, R] and f
smooth on its support box (on the whole cone without a box).  A kink or a
jump inside those ranges makes the N-vs-2N gap shrink only algebraically,
and the solve raises :class:`QuadratureError` instead of converging.

Point evaluations are pure and independent; field assembly just loops over
grid nodes.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .grids import GridSpec, SpacetimeField
from .kernels import _data_kernels, _E
from .params import ScaleInvariantParams
from .profiles import CauchyProfile, SourceTerm

__all__ = ["QuadratureError", "solve_linear_point", "solve_linear_field"]

DEFAULT_QTOL = 1e-9

#: Nodes of the first (coarse) Gauss-Legendre rule of each integral.
FIRST_NODES = 8
#: Largest rule: the last comparison is NODE_CAP/2 against NODE_CAP nodes.
NODE_CAP = 128


class QuadratureError(RuntimeError):
    """Quadrature failed to meet its error budget."""

    def __init__(self, message: str, achieved: float):
        super().__init__(message)
        self.achieved = achieved


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    return np.polynomial.legendre.leggauss(n)


def _converge(rule, budget: float, what: str) -> float:
    """rule(n) for n = FIRST_NODES, 2n, ... until two successive values are
    within ``budget``; returns the finer one."""
    n = FIRST_NODES
    coarse = rule(n)
    while True:
        n *= 2
        fine = rule(n)
        gap = abs(fine - coarse)
        if gap <= budget:
            return fine
        if n >= NODE_CAP:
            raise QuadratureError(
                f"{what}: {n}- and {n // 2}-node Gauss-Legendre rules differ by "
                f"{gap:.3e} (budget {budget:.3e})",
                achieved=gap,
            )
        coarse = fine


def _check_qtol(qtol: float) -> None:
    if not (math.isfinite(qtol) and qtol > 0):
        raise ValueError(f"qtol must be finite and > 0, got {qtol}")


def _data_rule(params, data: CauchyProfile, t: float, x: float, lo: float, hi: float):
    """n-node rule for int_lo^hi eps*[u0*(K0 + mu*K1) + u1*K1] dy at (t, x)."""
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)

    def rule(n: int) -> float:
        nodes, weights = _gauss_legendre(n)
        ys = mid + half * nodes
        points = ys.tolist()
        u0 = np.array([data.u0(y) for y in points])
        u1 = np.array([data.u1(y) for y in points])
        mix, k1 = _data_kernels(params, t, ys - x)
        return data.eps * half * float(np.dot(weights, u0 * mix + u1 * k1))

    return rule


def _b_pieces(t: float, x: float, box) -> list[tuple[float, float]]:
    """b intervals of the Duhamel integral, split where the slice width kinks."""
    if box is None:
        return [(0.0, t)]
    b0, b1, y0, y1 = box
    # past t - x + y1 (t + x - y0) the left (right) cone edge has crossed
    # the far box edge and the slice is empty
    blo, bhi = max(0.0, b0), min(t, b1, t - x + y1, t + x - y0)
    if not bhi > blo:
        return []
    kinks = sorted(k for k in (t - x + y0, t + x - y1) if blo < k < bhi)
    edges = [blo, *kinks, bhi]
    return list(zip(edges, edges[1:]))


def _duhamel_rule(params, src: SourceTerm, t: float, x: float, pieces):
    """n x n tensor rule per b piece for int int f(b,y)*E dy db at (t, x)."""
    box = src.support

    def rule(n: int) -> float:
        nodes, weights = _gauss_legendre(n)
        bs, ys, ws = [], [], []
        for c, d in pieces:
            b = 0.5 * (d + c) + 0.5 * (d - c) * nodes
            ylo, yhi = x - (t - b), x + (t - b)
            if box is not None:
                ylo, yhi = np.maximum(ylo, box[2]), np.minimum(yhi, box[3])
            bs.append(np.repeat(b, n))
            ys.append((0.5 * (yhi + ylo)[:, None] + 0.5 * (yhi - ylo)[:, None] * nodes).ravel())
            ws.append(np.outer(0.5 * (d - c) * weights * 0.5 * (yhi - ylo), weights).ravel())
        b, y, w = np.concatenate(bs), np.concatenate(ys), np.concatenate(ws)
        f = np.array([src.f(bi, yi) for bi, yi in zip(b.tolist(), y.tolist())])
        return float(np.dot(w, f * _E(params, t, b, y - x)))

    return rule


def solve_linear_point(
    params: ScaleInvariantParams,
    data: CauchyProfile,
    src: SourceTerm,
    t: float,
    x: float,
    qtol: float = DEFAULT_QTOL,
) -> float:
    """Evaluate the representation formula at one spacetime point.

    u0 and u1 must be smooth on [-R, R], and f on the source box (see the
    module docstring); otherwise the fixed rules miss the budget and
    :class:`QuadratureError` is raised with the last gap in ``achieved``.
    """
    for name, value in (("t", t), ("x", x)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    _check_qtol(qtol)
    if t < 0:
        raise ValueError(f"need t >= 0, got {t}")

    mu = params.mu
    eps = data.eps
    boundary = 0.5 * (1.0 + t) ** (-0.5 * mu) * eps * (data.u0(x + t) + data.u0(x - t))
    if t == 0.0:
        return boundary

    scale = 2.0 ** (-math.sqrt(params.delta))

    # data integral over the cone base, clipped to the support of the data
    lo = max(x - t, -data.R)
    hi = min(x + t, data.R)
    data_term = 0.0
    if hi > lo:
        data_term = _converge(
            _data_rule(params, data, t, x, lo, hi), 0.25 * qtol, f"data integral on [{lo}, {hi}]"
        )

    duhamel = 0.0
    if not src.is_zero:
        pieces = _b_pieces(t, x, src.support)
        if pieces:
            length = pieces[-1][1] - pieces[0][0]
            duhamel = _converge(
                _duhamel_rule(params, src, t, x, pieces),
                0.25 * qtol + qtol * length / (2.0 * (t + 1.0)),
                f"Duhamel integral over b in [{pieces[0][0]}, {pieces[-1][1]}]",
            )

    return boundary + scale * (data_term + duhamel)


def solve_linear_field(
    params: ScaleInvariantParams,
    data: CauchyProfile,
    src: SourceTerm,
    grid: GridSpec,
    qtol: float = DEFAULT_QTOL,
) -> SpacetimeField:
    """Representation-formula solution sampled on every grid node.

    u_t is populated by centered time differencing of the sampled rows
    (second-order one-sided at the first and last row).
    """
    _check_qtol(qtol)
    grid.validate_cone(data.R)
    xs = grid.xs()
    dt = grid.dt
    n_steps = grid.n_steps()
    if n_steps < 2:
        raise ValueError("need at least two time steps for the u_t differencing")
    times = dt * np.arange(n_steps + 1)

    values = np.empty((len(times), len(xs)))
    for i, t in enumerate(times):
        for j, x in enumerate(xs):
            try:
                values[i, j] = solve_linear_point(params, data, src, float(t), float(x), qtol)
            except QuadratureError as exc:
                raise QuadratureError(
                    f"at grid node (t={t}, x={x}): {exc}", achieved=exc.achieved
                ) from exc

    dvalues = np.empty_like(values)
    dvalues[1:-1] = (values[2:] - values[:-2]) / (2.0 * dt)
    dvalues[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * dt)
    dvalues[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * dt)
    return SpacetimeField(grid=grid, times=times, values=values, dvalues=dvalues)
