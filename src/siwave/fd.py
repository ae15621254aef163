"""Finite-difference solver for the 1D semilinear problem and its coupled variant.

One stepper advances one or two components on a shared grid.  Each
component has its own coefficients, Cauchy data and right-hand side, built
from the lagged u_t of all components: |u_t|^p for the single equation,
the cross-coupled |v_t|^p, |u_t|^q for the system (or each component's
own u_t in the decoupled diagnostic), and a sampled source term in linear
mode.

Scheme (uniform grid, dt = cfl*dx):

  * u_tt and u_xx by centered 3-point stencils at level k;
  * the damping term mu/(1+t) u_t by the centered difference
    (u^{k+1} - u^{k-1})/(2 dt), solved implicitly for u^{k+1} -- the term is
    linear in the unknown, so the solve is closed-form and keeps second
    order without a stability penalty from the 1/(1+t) coefficient;
  * the mass term at level k;
  * the nonlinearity |u_t|^p from the lagged centered derivative, i.e. the
    most recent centered difference available without a nonlinear solve
    (one level behind).  The induced O(dt) error near blow-up is accepted
    because lifespan estimates are validated by grid refinement, not by a
    single run.

The first level is a Taylor start matching the PDE at t=0 to second order.
Numerical blow-up is declared when max |u_t| of any component crosses a
threshold (or a non-finite value appears); reaching t_max without crossing
is reported as censored data (T >= t_max), never as a no-blow-up fact.

Only the numerical light cone is stepped.  The data are sampled on
|x| <= R; the window starts as the span of nodes where the data or the
Taylor level are not +0.0, and grows by one node per level (the 3-point
stencil spreads one node per step at any cfl), clipped at the grid ends,
whose nodes keep a zero Laplacian.  Outside the window every update of a
zero state is exactly +0.0, so the windowed run is bit-identical to
stepping the whole grid.  A sampled source term can be nonzero anywhere,
so a run with one steps the whole grid.  u^{k-1}, u^k, u^{k+1} and the
two u_t levels are preallocated full-width buffers that rotate between
levels; the step writes into them with in-place ufuncs, one per operation
and in the order of the scheme's expression.  Stored rows are full width.

Runs are sequential in time; independent runs (different eps or grids)
share no mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .grids import FLOAT_FMT, GridSpec, SpacetimeField
from .params import ScaleInvariantParams, SystemParams
from .profiles import CauchyProfile, SourceTerm

__all__ = [
    "LifespanRecord",
    "solve_semilinear_field",
    "solve_linear_fd",
    "detect_lifespan",
    "detect_lifespan_system",
    "lifespan_records_to_csv",
]

DEFAULT_THRESHOLD = 1e8

#: Relative lifespan drift under grid halving accepted as converged.
RICHARDSON_RTOL = 0.05


@dataclass(frozen=True)
class LifespanRecord:
    """Outcome of one numerical blow-up experiment.

    blow_up=False implies T_est is math.inf and the run reached t_max
    (censored).  ``converged`` is None when no refined companion run was
    made, otherwise the Richardson pair agreed within RICHARDSON_RTOL.
    """

    eps: float
    T_est: float
    blow_up: bool
    threshold_used: float
    grid: GridSpec
    richardson_pair: tuple[float, float] | None = None
    converged: bool | None = None

    def __post_init__(self) -> None:
        if not self.blow_up and not math.isinf(self.T_est):
            raise ValueError("censored record must carry the +inf marker")


def _laplacian(u: np.ndarray, dx: float, w: slice, out: np.ndarray) -> np.ndarray:
    """Centered u_xx on the nodes of window ``w``, written to and returned as
    out[w]; the two boundary nodes of the grid get 0."""
    n = len(u)
    lo, hi = max(w.start, 1), min(w.stop, n - 1)
    if lo < hi:
        seg = out[lo:hi]
        np.multiply(u[lo:hi], 2.0, out=seg)
        np.subtract(u[lo + 1 : hi + 1], seg, out=seg)
        np.add(seg, u[lo - 1 : hi - 1], out=seg)
        np.divide(seg, dx * dx, out=seg)
    if w.start == 0:
        out[0] = 0.0
    if w.stop == n:
        out[n - 1] = 0.0
    return out[w]


def _abs_power(u: np.ndarray, p: float, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """|u|^p into ``out`` (``tmp`` is scratch of the same shape); general
    fractional powers dominate the step cost, so the common half-integer
    exponents go through sqrt instead."""
    a = np.abs(u, out=out)
    if p == 1.5:
        return np.multiply(a, np.sqrt(a, out=tmp), out=out)
    if p == 2.0:
        return np.multiply(a, a, out=out)
    if p == 2.5:
        np.sqrt(a, out=tmp)
        return np.multiply(np.multiply(a, a, out=out), tmp, out=out)
    if p == 3.0:
        return np.multiply(np.multiply(a, a, out=tmp), a, out=out)
    out[...] = a**p
    return out


def _advance(
    u_prev: np.ndarray,
    u_curr: np.ndarray,
    rhs: np.ndarray,
    t: float,
    dt: float,
    dx: float,
    params: ScaleInvariantParams,
    w: slice,
    out: np.ndarray,
    lap: np.ndarray,
    tmp: np.ndarray,
) -> np.ndarray:
    """One leapfrog step with semi-implicit damping on the nodes of window
    ``w``, written to out[w]; rhs is evaluated at level k on ``w``.

    Computes (2 u^k - (1-lam) u^{k-1} + dt^2 (u^k_xx - mass u^k + rhs)) / (1+lam)
    one operation per ufunc, in the order of that expression.
    """
    lam = 0.5 * params.mu * dt / (1.0 + t)
    mass = params.nu2 / (1.0 + t) ** 2
    force = _laplacian(u_curr, dx, w, lap)
    np.subtract(force, np.multiply(u_curr[w], mass, out=tmp[w]), out=force)
    np.add(force, rhs, out=force)
    np.multiply(force, dt * dt, out=force)
    new = np.multiply(u_curr[w], 2.0, out=out[w])
    np.subtract(new, np.multiply(u_prev[w], 1.0 - lam, out=tmp[w]), out=new)
    np.add(new, force, out=new)
    return np.divide(new, 1.0 + lam, out=new)


def _taylor_start(
    U0: np.ndarray, U1: np.ndarray, rhs0: np.ndarray, dt: float, dx: float,
    params: ScaleInvariantParams,
) -> np.ndarray:
    """First level u^1 = u0 + dt u1 + dt^2/2 (u0'' - mu u1 - nu2 u0 + rhs(0))."""
    lap = _laplacian(U0, dx, slice(0, len(U0)), np.empty_like(U0))
    return U0 + dt * U1 + 0.5 * dt * dt * (lap - params.mu * U1 - params.nu2 * U0 + rhs0)


class _Component(NamedTuple):
    """One field of a run: coefficients, Cauchy data and its right-hand side.

    ``rhs(ut_lag, t, w, out, tmp)`` maps the lagged u_t of every component
    (in run order) and the time of the level to this component's forcing on
    the nodes of window ``w``, written to and returned as out[w] (``tmp`` is
    scratch).  ``local`` says the forcing vanishes wherever every lagged u_t
    does, so it never reaches past the numerical light cone.
    """

    params: ScaleInvariantParams
    data: CauchyProfile
    rhs: Callable[[list[np.ndarray], float, slice, np.ndarray, np.ndarray], np.ndarray]
    local: bool


def _power_component(
    params: ScaleInvariantParams, data: CauchyProfile, src: int, p: float
) -> _Component:
    """Component forced by |u_t|^p of component ``src``; |0|^p = 0 for p > 0."""

    def rhs(ut, t, w, out, tmp):
        return _abs_power(ut[src][w], p, out[w], tmp[w])

    return _Component(params, data, rhs, local=p > 0)


_Rows = list[tuple[float, np.ndarray, np.ndarray]]


def _sample(f: Callable[[float], float], data: CauchyProfile, xs: np.ndarray) -> np.ndarray:
    """eps*f on the nodes |x| <= R; +0.0 elsewhere (the data's support)."""
    out = np.zeros(len(xs))
    inside = np.abs(xs) <= data.R
    out[inside] = [data.eps * f(float(x)) for x in xs[inside]]
    return out


def _support(arrays: list[np.ndarray]) -> tuple[int, int]:
    """Node range [lo, hi) outside which every array is +0.0 (lo == hi if none)."""
    lo, hi = len(arrays[0]), 0
    for a in arrays:
        nonzero = np.flatnonzero(a.view(np.uint64))  # -0.0 and NaN count as nonzero
        if nonzero.size:
            lo, hi = min(lo, int(nonzero[0])), max(hi, int(nonzero[-1]) + 1)
    return (lo, hi) if lo < hi else (0, 0)


def _run(
    components: list[_Component],
    grid: GridSpec,
    threshold: float | None = None,
    store_every: int | None = None,
) -> tuple[bool, float, _Rows]:
    """Step all components to t_max (+ one level); returns (blow_up, T_est, rows).

    The run stops at the first level where any component turns non-finite
    or its max |u_t| exceeds ``threshold``.  With ``store_every``, rows
    (t, u, u_t) of component 0 are kept at every store_every-th level and
    at the last one.
    """
    if store_every is not None and store_every < 1:
        raise ValueError(f"store_every must be >= 1, got {store_every}")
    if threshold is not None and not threshold > 0:
        raise ValueError(f"threshold must be > 0, got {threshold}")
    grid.validate_cone(max(c.data.R for c in components))
    xs = grid.xs()
    n = len(xs)
    dt, dx = grid.dt, grid.dx
    k_max = grid.n_steps()
    rows: _Rows = []

    def store(k: int, t: float, u: np.ndarray, ut: np.ndarray) -> None:
        if store_every is not None and (k % store_every == 0 or k == k_max):
            rows.append((t, u.copy(), ut.copy()))

    # scratch for the forcing and the step, shared by all components
    rhs, lap, tmp = np.empty(n), np.empty(n), np.empty(n)
    full = slice(0, n)
    u_prev = [_sample(c.data.u0, c.data, xs) for c in components]
    ut_lag = [_sample(c.data.u1, c.data, xs) for c in components]
    u_curr = [
        _taylor_start(u0, u1, c.rhs(ut_lag, 0.0, full, rhs, tmp), dt, dx, c.params)
        for c, u0, u1 in zip(components, u_prev, ut_lag)
    ]
    u_next = [np.zeros(n) for _ in components]
    ut_new = [np.zeros(n) for _ in components]
    store(0, 0.0, u_prev[0], ut_lag[0])
    if not all(np.isfinite(u).all() for u in u_curr):
        return True, dt, rows

    # every buffer is +0.0 outside nodes [lo, hi); a step spreads one node
    if all(c.local for c in components):
        lo, hi = _support(u_prev + ut_lag + u_curr)
    else:
        lo, hi = 0, n
    for k in range(1, k_max + 1):
        t_k = k * dt
        if lo < hi:
            lo, hi = max(lo - 1, 0), min(hi + 1, n)
        w = slice(lo, hi)
        for c, up, uc, un in zip(components, u_prev, u_curr, u_next):
            force = c.rhs(ut_lag, t_k, w, rhs, tmp)
            _advance(up, uc, force, t_k, dt, dx, c.params, w, un, lap, tmp)
        if not all(np.isfinite(un[w]).all() for un in u_next):
            return True, t_k + dt, rows
        for un, up, ut in zip(u_next, u_prev, ut_new):
            np.divide(np.subtract(un[w], up[w], out=ut[w]), 2.0 * dt, out=ut[w])
        store(k, t_k, u_curr[0], ut_new[0])
        if threshold is not None and any(
            float(np.max(np.abs(ut[w], out=tmp[w]), initial=0.0)) > threshold for ut in ut_new
        ):
            return True, t_k, rows
        u_prev, u_curr, u_next = u_curr, u_next, u_prev
        ut_lag, ut_new = ut_new, ut_lag
    return False, math.inf, rows


def _field(grid: GridSpec, rows: _Rows) -> SpacetimeField:
    times, values, dvalues = (np.array(column) for column in zip(*rows))
    return SpacetimeField(grid=grid, times=times, values=values, dvalues=dvalues)


def _lifespan(
    components: list[_Component], grid: GridSpec, threshold: float, refine: bool
) -> LifespanRecord:
    """Lifespan record of one run, with the Richardson pair when ``refine``."""
    blow_up, t_est, _ = _run(components, grid, threshold)
    pair = converged = None
    if refine:
        blow_coarse, t_coarse = blow_up, t_est
        blow_up, t_est, _ = _run(components, replace(grid, dx=0.5 * grid.dx), threshold)
        pair = (t_coarse, t_est)
        converged = blow_coarse and blow_up and abs(t_coarse - t_est) <= RICHARDSON_RTOL * t_est
    return LifespanRecord(
        eps=components[0].data.eps,
        T_est=t_est,
        blow_up=blow_up,
        threshold_used=threshold,
        grid=grid,
        richardson_pair=pair,
        converged=converged,
    )


def _semilinear(params: ScaleInvariantParams, data: CauchyProfile, p: float) -> list[_Component]:
    return [_power_component(params, data, 0, p)]


def solve_linear_fd(
    params: ScaleInvariantParams,
    data: CauchyProfile,
    src: SourceTerm,
    grid: GridSpec,
    store_every: int = 1,
) -> SpacetimeField:
    """Linear mode (nonlinearity replaced by the source term f); full field."""
    xs = grid.xs()

    def rhs(ut, t, w, out, tmp):
        out[w] = [src.f(t, float(x)) for x in xs[w]]
        return out[w]

    # SourceTerm.support is only a quadrature hint: f is sampled everywhere
    source = _Component(params, data, rhs, local=False)
    _, _, rows = _run([source], grid, store_every=store_every)
    return _field(grid, rows)


def solve_semilinear_field(
    params: ScaleInvariantParams,
    data: CauchyProfile,
    p: float,
    grid: GridSpec,
    threshold: float = DEFAULT_THRESHOLD,
    store_every: int = 1,
) -> tuple[SpacetimeField, LifespanRecord]:
    """Semilinear run with field storage (rows stop before any blow-up)."""
    blow_up, t_est, rows = _run(_semilinear(params, data, p), grid, threshold, store_every)
    record = LifespanRecord(
        eps=data.eps,
        T_est=t_est,
        blow_up=blow_up,
        threshold_used=threshold,
        grid=grid,
    )
    return _field(grid, rows), record


def detect_lifespan(
    params: ScaleInvariantParams,
    data: CauchyProfile,
    p: float,
    grid: GridSpec,
    threshold: float = DEFAULT_THRESHOLD,
    refine: bool = False,
) -> LifespanRecord:
    """Numerical lifespan of one run; optionally repeated on a halved grid.

    With ``refine`` the record carries the (coarse, fine) lifespan pair,
    reports the fine value, and is flagged converged when the pair agrees
    within RICHARDSON_RTOL.
    """
    return _lifespan(_semilinear(params, data, p), grid, threshold, refine)


def detect_lifespan_system(
    sys: SystemParams,
    data1: CauchyProfile,
    data2: CauchyProfile,
    grid: GridSpec,
    threshold: float = DEFAULT_THRESHOLD,
    refine: bool = False,
    cross_coupling: bool = True,
) -> LifespanRecord:
    """Numerical lifespan of the weakly coupled system (eps taken from data1).

    ``refine`` works as in detect_lifespan.  With ``cross_coupling`` u is
    forced by |v_t|^p and v by |u_t|^q; the self-coupled mode is a
    diagnostic that must reproduce two independent single-equation runs.
    """
    src1, src2 = (1, 0) if cross_coupling else (0, 1)
    components = [
        _power_component(sys.comp1, data1, src1, sys.p),
        _power_component(sys.comp2, data2, src2, sys.q),
    ]
    return _lifespan(components, grid, threshold, refine)


def lifespan_records_to_csv(records: list[LifespanRecord], path: str) -> None:
    """Write the batch schema `eps,T_est,blow_up,threshold,dx,cfl,converged`."""
    with open(path, "w", encoding="ascii") as handle:
        handle.write("eps,T_est,blow_up,threshold,dx,cfl,converged\n")
        for rec in records:
            converged = "na" if rec.converged is None else str(rec.converged).lower()
            handle.write(
                ",".join(
                    [
                        FLOAT_FMT % rec.eps,
                        FLOAT_FMT % rec.T_est,
                        str(rec.blow_up).lower(),
                        FLOAT_FMT % rec.threshold_used,
                        FLOAT_FMT % rec.grid.dx,
                        FLOAT_FMT % rec.grid.cfl,
                        converged,
                    ]
                )
                + "\n"
            )
