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
|x| <= R; the cone starts as the span of nodes where the data or the
Taylor level are not +0.0, and grows by one node per level (the 3-point
stencil spreads one node per step at any cfl), clipped at the grid ends,
whose nodes keep a zero Laplacian.  Levels are stepped in blocks of
_BLOCK = 32 on one window per block: the cone at the block's last level,
clipped to the grid.  Outside the cone every update of a zero state is
exactly +0.0, so stepping the block window gives the same bits as stepping
the cone level by level (_BLOCK = 1), and a run that stores rows gets the
bits of stepping the whole grid.  A sampled source term can be nonzero
anywhere, so a run with one steps the whole grid.

A lifespan run (one that stores no rows) with even data -- every
component's sampled u0 and u1 equal their own reverse bit for bit, as the
bump data do -- steps only x >= 0.  The grid dx*arange(-N, N+1) is exactly
symmetric and the |u_t|^p forcing keeps parity, so the solution is even:
the window's lower edge is pinned at the centre node N, and node N-1 is a
ghost that gets a copy of node N+1 after the Taylor start and after each
component's step, before u_t and the peak are taken.  That is the exactly
even discrete solution.  Stepping the whole grid differs from it by
rounding only: its Laplacian sums (a-b)+c at x but (c-b)+a at -x, so
interior values move at about 1e-13 relative, and T_est, blow_up and the
Richardson pair move only when a peak lies within that rounding of the
threshold.  Odd or uneven data, and runs that store rows, step the full
window.

u^{k-1}, u^k and u^{k+1} are preallocated full-width buffers that
rotate between levels; u_t and |u_t| have one full-width buffer each.  At
the start of a block every view a level needs is sliced once -- each u
buffer's window, its Laplacian interior and that interior shifted by one
node either way, and the windows of u_t, |u_t| and the scratch arrays --
and the levels of the block rotate the views with the buffers.  The step
writes into them with in-place ufuncs in the order of the scheme's
expression, and computes no term twice:

  * |u_t| is taken once per level, for the blow-up test, into its own
    buffer; the next level's |u_t|^p forcing reads it from there;
  * the finite test is folded into that peak: u^{k-1} is finite, so a
    non-finite u^{k+1} makes max |u_t| non-finite, and u^{k+1} itself is
    scanned only when a peak is not finite;
  * 2 u^k goes straight into the u^{k+1} buffer, and the Laplacian reads
    it from there;
  * a massless step (nu2 == 0) with a |.|^p forcing skips the product
    mass u^k.  It is +-0 there, so it could only flip the sign of a zero
    u_xx, and adding a forcing that is >= +0.0, never -0.0, gives +0.0
    from either sign.  A source term may return -0.0, so linear mode
    keeps the product.

Stored rows are full width.

Runs are sequential in time; independent runs (different eps or grids)
share no mutable state.  The two grids of a Richardson pair (refine=True)
run side by side: a forked child runs the coarse grid and sends its
(blow_up, T_est), or the exception it raised, back through a pipe, while
the caller runs the fine grid (dx/2, about four times the work).  The
caller raises the coarse run's exception before the fine run's, as the
serial order would, and on any exception of its own kills and reaps the
child.  The pair runs serially, coarse first, where the process cannot fork,
may use only one CPU, or has a second thread (a fork could copy a lock that
thread holds).  The outcome is the same bits either way; only the wall time
of the call changes, and hooks or tracers in the caller do not see the
child's work (such as sampling the coarse data).
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import threading
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

#: Levels stepped on one window and one set of prebuilt buffer views; 1 is
#: the plain level-by-level light-cone window.
_BLOCK = 32


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


class _Views(NamedTuple):
    """Views of one full-width buffer on a window [lo, hi) of the grid: the
    window, its interior nodes (the grid ends left out), that interior
    shifted by -1 and by +1, and the window indices of the grid ends it
    holds."""

    win: np.ndarray
    mid: np.ndarray
    left: np.ndarray
    right: np.ndarray
    ends: tuple[int, ...]


def _views(a: np.ndarray, lo: int, hi: int) -> _Views:
    n = len(a)
    mlo = max(lo, 1)
    mhi = max(min(hi, n - 1), mlo)
    ends = tuple(i for i, end in ((0, lo == 0), (hi - lo - 1, hi == n)) if end and lo < hi)
    return _Views(a[lo:hi], a[mlo:mhi], a[mlo - 1 : mhi - 1], a[mlo + 1 : mhi + 1], ends)


def _laplacian(u: _Views, two_u: np.ndarray, dx: float, out: _Views) -> np.ndarray:
    """Centered u_xx on the window of the views, written to and returned as
    out.win; ``two_u`` holds 2u on the window's interior.  The boundary nodes
    of the grid get 0."""
    seg = out.mid
    np.subtract(u.right, two_u, out=seg)
    np.add(seg, u.left, out=seg)
    np.divide(seg, dx * dx, out=seg)
    for i in out.ends:
        out.win[i] = 0.0
    return out.win


def _power(a: np.ndarray, p: float, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """a^p of a nonnegative array into ``out`` (``tmp`` is scratch of the same
    shape); general fractional powers dominate the step cost, so the common
    half-integer exponents go through sqrt instead."""
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
    u_prev: _Views,
    u_curr: _Views,
    u_next: _Views,
    rhs: np.ndarray,
    t: float,
    dt: float,
    dx: float,
    params: ScaleInvariantParams,
    massless: bool,
    lap: _Views,
    tmp: np.ndarray,
) -> np.ndarray:
    """One leapfrog step with semi-implicit damping on the window of the
    views, written to and returned as u_next.win; rhs is evaluated at level k
    on the window and ``tmp`` is window-sized scratch.

    Computes (2 u^k - (1-lam) u^{k-1} + dt^2 (u^k_xx - mass u^k + rhs)) / (1+lam)
    one operation per ufunc, in the order of that expression.  2 u^k is
    written to u_next.win first and the Laplacian reads it from there.
    ``massless`` (nu2 == 0 and a forcing that never holds -0.0) skips the
    product mass u^k, which leaves every bit as it is (see the module
    docstring).
    """
    lam = 0.5 * params.mu * dt / (1.0 + t)
    new = np.multiply(u_curr.win, 2.0, out=u_next.win)
    force = _laplacian(u_curr, u_next.mid, dx, lap)
    if not massless:
        mass = params.nu2 / (1.0 + t) ** 2
        np.subtract(force, np.multiply(u_curr.win, mass, out=tmp), out=force)
    np.add(force, rhs, out=force)
    np.multiply(force, dt * dt, out=force)
    np.subtract(new, np.multiply(u_prev.win, 1.0 - lam, out=tmp), out=new)
    np.add(new, force, out=new)
    return np.divide(new, 1.0 + lam, out=new)


def _taylor_start(
    U0: np.ndarray, U1: np.ndarray, rhs0: np.ndarray, dt: float, dx: float,
    params: ScaleInvariantParams,
) -> np.ndarray:
    """First level u^1 = u0 + dt u1 + dt^2/2 (u0'' - mu u1 - nu2 u0 + rhs(0))."""
    n = len(U0)
    lap = _laplacian(_views(U0, 0, n), _views(U0 * 2.0, 0, n).mid, dx, _views(np.empty(n), 0, n))
    return U0 + dt * U1 + 0.5 * dt * dt * (lap - params.mu * U1 - params.nu2 * U0 + rhs0)


class _Component(NamedTuple):
    """One field of a run: coefficients, Cauchy data and its right-hand side.

    ``rhs(abs_ut_lag, t, w, out, tmp)`` maps the lagged |u_t| of every
    component (in run order) and the time of the level to this component's
    forcing on the nodes of window ``w``, written to and returned as ``out``
    (``tmp`` is scratch); the arrays are views on the window.  ``local``
    says the forcing vanishes wherever every lagged u_t does, so it never
    reaches past the numerical light cone.
    ``nonneg`` says the forcing never holds a negative value or -0.0, which
    lets a massless step skip its mass product bit-exactly.
    """

    params: ScaleInvariantParams
    data: CauchyProfile
    rhs: Callable[[list[np.ndarray], float, slice, np.ndarray, np.ndarray], np.ndarray]
    local: bool
    nonneg: bool


def _power_component(
    params: ScaleInvariantParams, data: CauchyProfile, src: int, p: float
) -> _Component:
    """Component forced by |u_t|^p of component ``src``; |0|^p = +0.0 for p > 0."""

    def rhs(abs_ut, t, w, out, tmp):
        return _power(abs_ut[src], p, out, tmp)

    return _Component(params, data, rhs, local=p > 0, nonneg=True)


_Rows = list[tuple[float, np.ndarray, np.ndarray]]


def _sample(data: CauchyProfile, name: str, xs: np.ndarray) -> np.ndarray:
    """eps*data.<name> on the nodes |x| <= R; +0.0 elsewhere (the data's support).

    A non-finite sample raises: stepped, it would read as a blow-up at the
    first level.
    """
    f = getattr(data, name)
    out = np.zeros(len(xs))
    inside = np.abs(xs) <= data.R
    out[inside] = [data.eps * f(float(x)) for x in xs[inside]]
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        k = int(bad[0])
        raise ValueError(
            f"datum {name} is not finite at node {k} (x={float(xs[k])!r}): {float(out[k])!r}"
        )
    return out


def _support(arrays: list[np.ndarray]) -> tuple[int, int]:
    """Node range [lo, hi) outside which every array is +0.0 (lo == hi if none)."""
    lo, hi = len(arrays[0]), 0
    for a in arrays:
        nonzero = np.flatnonzero(a.view(np.uint64))  # -0.0 and NaN count as nonzero
        if nonzero.size:
            lo, hi = min(lo, int(nonzero[0])), max(hi, int(nonzero[-1]) + 1)
    return (lo, hi) if lo < hi else (0, 0)


def _even(arrays: list[np.ndarray]) -> bool:
    """Every array equals its own reverse bit for bit (-0.0 is not +0.0)."""
    return all(np.array_equal(a.view(np.uint64), a[::-1].view(np.uint64)) for a in arrays)


def _check_run(
    components: list[_Component], grid: GridSpec, threshold: float | None,
    store_every: int | None = None,
) -> None:
    if store_every is not None and store_every < 1:
        raise ValueError(f"store_every must be >= 1, got {store_every}")
    if threshold is not None and not threshold > 0:
        raise ValueError(f"threshold must be > 0, got {threshold}")
    grid.validate_cone(max(c.data.R for c in components))


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
    at the last one; without it, even data step x >= 0 only (see the module
    docstring).
    """
    _check_run(components, grid, threshold, store_every)
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
    u_prev = [_sample(c.data, "u0", xs) for c in components]
    ut = [_sample(c.data, "u1", xs) for c in components]
    abs_ut = [np.abs(v) for v in ut]
    u_curr = [
        _taylor_start(u0, u1, c.rhs(abs_ut, 0.0, full, rhs, tmp), dt, dx, c.params)
        for c, u0, u1 in zip(components, u_prev, ut)
    ]
    u_next = [np.zeros(n) for _ in components]
    massless = [c.params.nu2 == 0.0 and c.nonneg for c in components]
    store(0, 0.0, u_prev[0], ut[0])
    if not all(np.isfinite(u).all() for u in u_curr):
        return True, dt, rows

    # every buffer is +0.0 outside nodes [lo, hi); a step spreads one node
    local = all(c.local for c in components)
    lo, hi = _support(u_prev + ut + u_curr) if local else (0, n)
    # even data, |u_t|^p forcings (they keep parity) and no rows: step x >= 0
    # only, with node centre - 1 a ghost of node centre + 1
    centre = n // 2
    mirror = store_every is None and local and _even(u_prev + ut)
    if mirror:
        for u in u_curr:
            u[centre - 1] = u[centre + 1]
    floor = centre if mirror else 0
    # u_t and |u_t| need one buffer each: every forcing of a level reads the
    # lagged |u_t| before the level overwrites it.  Overflow past the last
    # finite peak is the blow-up the loop detects, so it raises no warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(1, k_max + 1, _BLOCK):
            levels = range(first, min(first + _BLOCK, k_max + 1))
            # one window for the block: the cone at its last level
            if lo < hi:
                lo, hi = max(lo - len(levels), floor), min(hi + len(levels), n)
            w = slice(lo, hi)
            v_prev, v_curr, v_next = (
                [_views(u, lo, hi) for u in level] for level in (u_prev, u_curr, u_next)
            )
            v_ut, v_abs = [v[w] for v in ut], [a[w] for a in abs_ut]
            v_rhs, v_lap, v_tmp = rhs[w], _views(lap, lo, hi), tmp[w]
            for k in levels:
                t_k = k * dt
                for c, ml, vp, vc, vn, un in zip(
                    components, massless, v_prev, v_curr, v_next, u_next
                ):
                    force = c.rhs(v_abs, t_k, w, v_rhs, v_tmp)
                    _advance(vp, vc, vn, force, t_k, dt, dx, c.params, ml, v_lap, v_tmp)
                    if mirror:
                        un[centre - 1] = un[centre + 1]
                # u^{k-1} is finite, so a non-finite u^{k+1} makes its peak
                # max |u_t| non-finite; only then is u^{k+1} itself scanned
                peaks = []
                for vn, vp, du, a in zip(v_next, v_prev, v_ut, v_abs):
                    np.subtract(vn.win, vp.win, out=du)
                    np.divide(du, 2.0 * dt, out=du)
                    peaks.append(float(np.abs(du, out=a).max(initial=0.0)))
                if not all(map(math.isfinite, peaks)) and not all(
                    np.isfinite(vn.win).all() for vn in v_next
                ):
                    return True, t_k + dt, rows
                store(k, t_k, u_curr[0], ut[0])
                if threshold is not None and any(peak > threshold for peak in peaks):
                    return True, t_k, rows
                u_prev, u_curr, u_next = u_curr, u_next, u_prev
                v_prev, v_curr, v_next = v_curr, v_next, v_prev
    return False, math.inf, rows


def _field(grid: GridSpec, rows: _Rows) -> SpacetimeField:
    times, values, dvalues = (np.array(column) for column in zip(*rows))
    return SpacetimeField(grid=grid, times=times, values=values, dvalues=dvalues)


def _may_fork() -> bool:
    """A child may run beside the caller: fork exists, a second CPU is
    allowed, and no other thread could hold a lock across the fork."""
    return (
        hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) > 1
        and threading.active_count() == 1
    )


def _outcome(components: list[_Component], grid: GridSpec, threshold: float) -> tuple[bool, float]:
    blow_up, t_est, _ = _run(components, grid, threshold)
    return blow_up, t_est


def _pickled_outcome(components: list[_Component], grid: GridSpec, threshold: float) -> bytes:
    """The pickled outcome of one run, or the exception it raised.

    Runs in the forked child, whose only report is the pipe, so every
    exception (an interrupt too) is sent for the caller to raise.  One that
    does not survive pickling is sent as None: the caller then runs the grid
    itself and meets the exception first hand.
    """
    try:
        return pickle.dumps(_outcome(components, grid, threshold))
    except BaseException as exc:
        try:
            payload = pickle.dumps(exc)
            pickle.loads(payload)
        except Exception:
            payload = pickle.dumps(None)
        return payload


def _pair(
    components: list[_Component], coarse: GridSpec, fine: GridSpec, threshold: float
) -> tuple[tuple[bool, float], tuple[bool, float]]:
    """(blow_up, T_est) on the coarse and the fine grid.

    When a child may run beside the caller, a forked child runs the coarse
    grid and pickles its outcome (or the exception it raised) into a pipe
    while the caller runs the fine grid; otherwise the two run one after the
    other.  Either way the coarse run's exception is raised before the fine
    run's, and no child outlives the call.
    """
    if not _may_fork():
        return _outcome(components, coarse, threshold), _outcome(components, fine, threshold)
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(_pickled_outcome(components, coarse, threshold))
            status = 0
        finally:
            os._exit(status)
    reaped = False
    try:
        os.close(write_fd)
        with os.fdopen(read_fd, "rb") as pipe:
            fine_error = None
            try:
                fine_out = _outcome(components, fine, threshold)
            except Exception as exc:
                fine_error = exc
            payload = pipe.read()
        _, status = os.waitpid(pid, 0)
        reaped = True
        if not payload:
            raise RuntimeError(f"coarse run ended without a result (wait status {status})")
        coarse_out = pickle.loads(payload)
        if coarse_out is None:
            coarse_out = _outcome(components, coarse, threshold)
        elif isinstance(coarse_out, BaseException):
            raise coarse_out
        if fine_error is not None:
            raise fine_error
        return coarse_out, fine_out
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _lifespan(
    components: list[_Component], grid: GridSpec, threshold: float, refine: bool
) -> LifespanRecord:
    """Lifespan record of one run, with the Richardson pair when ``refine``."""
    pair = converged = None
    if refine:
        # validated here, not in a child: the fine grid shares the cone
        fine = replace(grid, dx=0.5 * grid.dx)
        _check_run(components, grid, threshold)
        (blow_coarse, t_coarse), (blow_up, t_est) = _pair(components, grid, fine, threshold)
        pair = (t_coarse, t_est)
        converged = blow_coarse and blow_up and abs(t_coarse - t_est) <= RICHARDSON_RTOL * t_est
    else:
        blow_up, t_est = _outcome(components, grid, threshold)
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
    if not (math.isfinite(p) and p > 1):
        raise ValueError(f"p must be finite and > 1, got {p}")
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

    def rhs(abs_ut, t, w, out, tmp):
        out[:] = [src.f(t, float(x)) for x in xs[w]]
        return out

    # SourceTerm.support is only a quadrature hint: f is sampled everywhere;
    # f may return -0.0, so the mass product stays even when nu2 == 0
    source = _Component(params, data, rhs, local=False, nonneg=False)
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
