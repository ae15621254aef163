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
above the budget at the cap raises :class:`QuadratureError`.

One engine solves an array of points at once: :func:`solve_linear_point`
is that engine at one point and :func:`solve_linear_field` the engine on
every grid node.  At each rule size, the nodes of all points whose
integral has not yet converged go through one kernel call (module
:mod:`siwave.kernels`, K0 from the analytic derivative expansion) and one
call of each sampler, in batches of about 16,384 nodes.  A sampler that
takes arrays (see :mod:`siwave.profiles`) is called once per batch; a
scalar-only one once per node.  Each point is summed on its own, in a
fixed node order, so its value does not depend on the other points: the
field equals the pointwise solves bit for bit.

The rules are not adaptive, so u0 and u1 must be smooth on [-R, R] and f
smooth on its support box (on the whole cone without a box).  A kink or a
jump inside those ranges makes the N-vs-2N gap shrink only algebraically,
and the solve raises :class:`QuadratureError` instead of converging.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .grids import GridSpec, SpacetimeField
from .kernels import _data_kernels, _E
from .params import ScaleInvariantParams
from .profiles import CauchyProfile, SourceTerm, _node_sampler

__all__ = ["QuadratureError", "solve_linear_point", "solve_linear_field"]

DEFAULT_QTOL = 1e-9

#: Nodes of the first (coarse) Gauss-Legendre rule of each integral.
FIRST_NODES = 8
#: Largest rule: the last comparison is NODE_CAP/2 against NODE_CAP nodes.
NODE_CAP = 128
#: Nodes per sampler and kernel call: the open points of a level are taken
#: in batches of about this many nodes (a point is never split), so the
#: temporaries stay bounded; larger batches are no faster.
_BATCH = 16384
#: Points per pass of the engine: their per-point arrays stay bounded, and
#: the first rule size of the data integral fills one batch.
_POINTS = _BATCH // FIRST_NODES


class QuadratureError(RuntimeError):
    """Quadrature failed to meet its error budget."""

    def __init__(self, message: str, achieved: float):
        super().__init__(message)
        self.achieved = achieved


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    return np.polynomial.legendre.leggauss(n)


def _check_qtol(qtol: float) -> None:
    if not (math.isfinite(qtol) and qtol > 0):
        raise ValueError(f"qtol must be finite and > 0, got {qtol}")


def _batches(sizes: np.ndarray):
    """Slices of consecutive points whose node counts ``sizes`` add up to at
    most _BATCH (or one point, if that alone is more)."""
    start = total = 0
    for k, size in enumerate(sizes.tolist()):
        if total and total + size > _BATCH:
            yield slice(start, k)
            start, total = k, 0
        total += size
    yield slice(start, len(sizes))


def _converge(rule, budget: np.ndarray) -> tuple[np.ndarray, list[tuple[int, float]]]:
    """Per point, rule values for n = FIRST_NODES, 2n, ... until two successive
    ones are within the point's ``budget``; each point takes the finer one.

    ``rule(n, open)`` returns the n-node values of the points ``open`` (an
    index array).  Returns the values and the (point, gap) of every point
    whose NODE_CAP/2- and NODE_CAP-node values are still above its budget.
    """
    value = np.zeros(len(budget))
    open_ = np.arange(len(budget))
    n = FIRST_NODES
    coarse = rule(n, open_)
    while True:
        n *= 2
        fine = rule(n, open_)
        gap = np.abs(fine - coarse)
        done = gap <= budget[open_]
        value[open_[done]] = fine[done]
        open_, coarse, gap = open_[~done], fine[~done], gap[~done]
        if n >= NODE_CAP or not open_.size:
            return value, list(zip(open_.tolist(), gap.tolist()))


def _data_rule(params, data: CauchyProfile, u0, u1, t, x, lo, hi):
    """rule(n, open) for int_lo^hi eps*[u0*(K0 + mu*K1) + u1*K1] dy at the
    points (t, x); u0 and u1 are node samplers."""
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)

    def rule(n: int, open_: np.ndarray) -> np.ndarray:
        nodes, weights = _gauss_legendre(n)
        out = np.empty(len(open_))
        for part in _batches(np.full(len(open_), n)):
            k = open_[part]
            ys = (mid[k, None] + half[k, None] * nodes).ravel()
            mix, k1 = _data_kernels(params, np.repeat(t[k], n), ys - np.repeat(x[k], n))
            g = u0(ys) * mix + u1(ys) * k1
            out[part] = [
                data.eps * h * float(np.dot(weights, g[i * n : (i + 1) * n]))
                for i, h in enumerate(half[k].tolist())
            ]
        return out

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
    # both kinks coincide at the box centre; a repeated edge would make an
    # empty piece
    kinks = sorted({k for k in (t - x + y0, t + x - y1) if blo < k < bhi})
    edges = [blo, *kinks, bhi]
    return list(zip(edges, edges[1:]))


def _duhamel_rule(params, f, box, t, x, c, d, owner):
    """rule(n, open) for int int f(b,y)*E dy db at the points (t, x): an
    n x n tensor rule on each b piece [c, d] of its point ``owner``, with y
    over the slice clipped to the box; f is a node sampler."""
    count = np.bincount(owner, minlength=len(t))

    def rule(n: int, open_: np.ndarray) -> np.ndarray:
        nodes, weights = _gauss_legendre(n)
        out = np.empty(len(open_))
        for part in _batches(count[open_] * (n * n)):
            k = open_[part]
            pieces = np.flatnonzero(np.isin(owner, k))
            lo, hi = c[pieces], d[pieces]
            tp, xp = t[owner[pieces], None], x[owner[pieces], None]
            b = (0.5 * (hi + lo))[:, None] + (0.5 * (hi - lo))[:, None] * nodes
            ylo, yhi = xp - (tp - b), xp + (tp - b)
            if box is not None:
                ylo, yhi = np.maximum(ylo, box[2]), np.minimum(yhi, box[3])
            y = (0.5 * (yhi + ylo)[..., None] + 0.5 * (yhi - ylo)[..., None] * nodes).ravel()
            w = ((0.5 * (hi - lo))[:, None] * weights * 0.5 * (yhi - ylo))[..., None] * weights
            w = w.ravel()
            b, tp, xp = np.repeat(b, n), np.repeat(tp, n * n), np.repeat(xp, n * n)
            g = f(b, y) * _E(params, tp, b, y - xp)
            ends = np.cumsum(count[k] * (n * n)).tolist()
            out[part] = [float(np.dot(w[s:e], g[s:e])) for s, e in zip([0, *ends], ends)]
        return out

    return rule


def _solve(params, data, src, t: np.ndarray, x: np.ndarray, qtol: float, where) -> np.ndarray:
    """The representation formula at the points (t[k], x[k]), t >= 0.

    A point's value does not depend on the other points.  If some rule
    misses its budget, QuadratureError names the first such point (data
    integral before Duhamel integral at a point), prefixed by where(k).
    The points are taken _POINTS at a time, so the per-point state stays
    bounded on large grids; the samplers are shared by all of them.
    """
    samplers = _node_sampler(data.u0), _node_sampler(data.u1), _node_sampler(src.f)
    values = np.empty(len(t))
    for first in range(0, len(t), _POINTS):
        part = slice(first, first + _POINTS)
        values[part] = _solve_part(
            params, data, src, samplers, t[part], x[part], qtol, lambda k: where(first + k)
        )
    return values


def _solve_part(params, data, src, samplers, t, x, qtol, where) -> np.ndarray:
    """_solve on one part of the points, with node samplers (u0, u1, f)."""
    u0, u1, f = samplers
    m = len(t)
    edge = u0(np.concatenate((x + t, x - t)))
    values = 0.5 * (1.0 + t) ** (-0.5 * params.mu) * data.eps * (edge[:m] + edge[m:])
    live = np.flatnonzero(t > 0.0)
    misses = []

    # data integral over the cone base, clipped to the support of the data
    lo, hi = np.maximum(x - t, -data.R), np.minimum(x + t, data.R)
    data_term = np.zeros(m)
    on = live[hi[live] > lo[live]]
    if on.size:
        found, missed = _converge(
            _data_rule(params, data, u0, u1, t[on], x[on], lo[on], hi[on]),
            np.full(on.size, 0.25 * qtol),
        )
        data_term[on] = found
        for i, gap in missed:
            k = int(on[i])
            what = f"data integral on [{lo[k].item()}, {hi[k].item()}]"
            misses.append((k, 0, what, gap, 0.25 * qtol))

    duhamel = np.zeros(m)
    if not src.is_zero:
        on, spans, budgets, pieces = [], [], [], []
        for k in live.tolist():
            tk = t[k].item()
            split = _b_pieces(tk, x[k].item(), src.support)
            if split:
                (blo, _), (_, bhi) = split[0], split[-1]
                budgets.append(0.25 * qtol + qtol * (bhi - blo) / (2.0 * (tk + 1.0)))
                spans.append((blo, bhi))
                pieces += [(c, d, len(on)) for c, d in split]
                on.append(k)
        if on:
            on = np.array(on)
            c, d, owner = (np.array(column) for column in zip(*pieces))
            found, missed = _converge(
                _duhamel_rule(params, f, src.support, t[on], x[on], c, d, owner),
                np.array(budgets),
            )
            duhamel[on] = found
            for i, gap in missed:
                what = f"Duhamel integral over b in [{spans[i][0]}, {spans[i][1]}]"
                misses.append((int(on[i]), 1, what, gap, budgets[i]))

    if misses:
        k, _, what, gap, budget = min(misses)
        raise QuadratureError(
            f"{where(k)}{what}: {NODE_CAP}- and {NODE_CAP // 2}-node Gauss-Legendre rules "
            f"differ by {gap:.3e} (budget {budget:.3e})",
            achieved=gap,
        )
    scale = 2.0 ** (-math.sqrt(params.delta))
    values[live] = values[live] + scale * (data_term[live] + duhamel[live])
    return values


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
    point = _solve(params, data, src, np.array([t], float), np.array([x], float), qtol, lambda k: "")
    return float(point[0])


def solve_linear_field(
    params: ScaleInvariantParams,
    data: CauchyProfile,
    src: SourceTerm,
    grid: GridSpec,
    qtol: float = DEFAULT_QTOL,
) -> SpacetimeField:
    """Representation-formula solution sampled on every grid node.

    Each node takes the value :func:`solve_linear_point` gives it, bit for
    bit; on a missed budget the error names the first failing node in
    row-major order.  u_t is populated by centered time differencing of the
    sampled rows (second-order one-sided at the first and last row).
    """
    _check_qtol(qtol)
    grid.validate_cone(data.R)
    xs = grid.xs()
    dt = grid.dt
    n_steps = grid.n_steps()
    if n_steps < 2:
        raise ValueError("need at least two time steps for the u_t differencing")
    times = dt * np.arange(n_steps + 1)

    t, x = np.repeat(times, len(xs)), np.tile(xs, len(times))
    values = _solve(
        params, data, src, t, x, qtol, lambda k: f"at grid node (t={t[k]}, x={x[k]}): "
    ).reshape(len(times), len(xs))

    dvalues = np.empty_like(values)
    dvalues[1:-1] = (values[2:] - values[:-2]) / (2.0 * dt)
    dvalues[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * dt)
    dvalues[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * dt)
    return SpacetimeField(grid=grid, times=times, values=values, dvalues=dvalues)
