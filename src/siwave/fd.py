"""Finite-difference solver for the 1D semilinear problem and its coupled variant.

One stepper advances one or two components on a shared grid.  Each
component has its own coefficients, Cauchy data and right-hand side, built
from the lagged u_t of all components: |u_t|^p for the single equation,
the cross-coupled |v_t|^p, |u_t|^q for the system (or each component's
own u_t in the decoupled diagnostic), and a sampled source term in linear
mode.

Scheme (uniform grid, dt = c*dx with c = cfl):

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

With lam = mu dt / (2 (1+t_k)) and mass = nu2 / (1+t_k)^2, a step is the
symmetric form, for every cfl (u at level k unless marked):

  (1+lam) u^{k+1}_i = c^2 (u_{i+1} + u_{i-1}) + 2 (1-c^2) u_i
                      - (1-lam) u^{k-1}_i + dt^2 (rhs_i - mass u_i),

evaluated left to right; a grid-end node takes 2 u_i for the neighbour sum
(u_xx = 0 there).  At c = 1 the c^2 product is a product by 1 and
2 (1-c^2) u_i a zero, so the step leaves both out (the tests bound how far
this form and the earlier Laplacian form round apart).  The first level is
a Taylor start matching the PDE at t=0 to second order, with u0'' =
((u0_{i+1} + u0_{i-1}) - 2 u0_i) / dx^2 (0 at the grid ends).  Numerical
blow-up is declared when max |u_t| of any component crosses a threshold (or
a non-finite value appears); reaching t_max without crossing is reported as
censored data (T >= t_max), never as a no-blow-up fact.

The neighbour sum is the same sum at x_i and -x_i, in the step and in the
Taylor start, and every other operation is per node; the grid
dx*arange(-N, N+1) is exactly symmetric and |u_t|^p keeps parity.  So a
run of even data -- every component's sampled u0 and u1 equal their own
reverse bit for bit, as the bump data do -- is exactly even.

Only the numerical light cone is stepped: it starts as the span of nodes
where the data or the Taylor level are not +0.0 (the centre node if none),
grows by one node per level (at any cfl) and is clipped at the grid ends.
Levels go in blocks of _BLOCK = 32 on one window per block, the cone at
the block's last level.  Outside the cone every update of a zero state is
exactly +0.0, so any _BLOCK gives the same bits, and a stored field
(+0.0 on every node no level writes) has the bits of stepping the whole
grid.  A sampled source term can be nonzero anywhere, so a run with one
steps the whole grid.  The set-up is sized the same way: with |u_t|^p
forcings the data are sampled, and the Taylor start, the span, the
evenness and finite tests and the first |u_t| taken, on the nodes within
two of the data's support only (_start), which are written into zeroed
full-width buffers; with a source term, on the whole grid.  A run of even
data and |u_t|^p forcings steps only x >= 0: the window's lower edge is
pinned at the centre node N, and node N-1 is a ghost that copies node N+1
after the Taylor start and after each step, before u_t and the peak.  That
is the exactly even solution, the full window's bits on x >= 0; stored
rows copy node N+i to node N-i.

u^{k-1}, u^k and u^{k+1} are preallocated full-width buffers that rotate
between levels; u_t, |u_t| and the forcing have one each.  A buffer holds
the m components node-major (component j of node i is element i*m + j), so
a window of nodes [lo, hi) is the contiguous slice [lo*m, hi*m) and a
shift by one node is a shift by m elements.  Stored rows go straight into
zeroed (rows, n) arrays that become the field, so a stored run holds its
field once; the arrays grow in place past _ROW_RESERVE bytes, before each
block, and end cut to the rows kept.

_run has one block loop.  It hands each block to one of three steppers
with the contract of steps in _fdlevel.c: the compiled kernel's
siwave_fd_levels or its two-thread siwave_fd_split, or _levels, the same
level loop in numpy.  Each steps levels first..last on the window [lo, hi)
and writes u^k and u_t of component 0 on it (and its mirror image) into
row ceil(k / store_every) of each store level k; it stops at the block's
end, a non-finite level (before its row) or a threshold crossing (after),
and leaves the level and the buffer rotation in the run state they share
(_state).  The loop handles every stop and result in one place.

_levels is the bit reference the tests hold the kernel to, and the only
stepper of other exponents (numpy's power and libm's pow differ in the
last bit), of a sampled source and of a process where the kernel does not
build.  The kernel steps every block of a run whose every forcing is
|u_t|^p with p an exponent of _FORMS; it is built on the first such run in
the process (_kernel, never at import; a per-user cache keeps the library,
so a machine compiles it once).  On x86-64 with glibc the loader picks its
level loop's AVX2 clone where the CPU has AVX2, else the baseline (SSE2)
one; both make the same operations per element, and no flag or option
selects one.

Runs are sequential in time; independent runs (different eps or grids)
share no mutable state, and the two grids of a Richardson pair
(refine=True) run one after the other, coarse first.  Where the process
may use a second CPU, each block whose halves hold _SPLIT_WORK of work is
split: the caller steps the lower half of the window and one helper
thread, started at the run's first such block and joined when the run
ends, the upper half, each computing their shared halo again (see
_fdlevel.c).  Every path gives the same bits; only the wall time changes.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import math
import os
import shlex
import subprocess
import sysconfig
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .grids import GridSpec, SpacetimeField, _write_csv
from .params import ScaleInvariantParams, SystemParams
from .profiles import CauchyProfile, SourceTerm, _node_sampler

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

#: Levels stepped on one window; 1 is the plain level-by-level light-cone
#: window.
_BLOCK = 32

#: Bytes of stored rows (u and u_t) reserved up front; past them the rows
#: grow as they come, so a long run that blows up early holds little more.
_ROW_RESERVE = 64 << 20


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
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"eps must be finite and > 0, got {self.eps}")
        if not self.threshold_used > 0:
            raise ValueError(f"threshold_used must be > 0, got {self.threshold_used}")
        if self.blow_up and not (math.isfinite(self.T_est) and self.T_est > 0):
            raise ValueError(f"blow-up record needs a finite T_est > 0, got {self.T_est}")
        if not self.blow_up and self.T_est != math.inf:
            raise ValueError(f"censored record must carry T_est = +inf, got {self.T_est}")


class _Component(NamedTuple):
    """One field of a run: coefficients, Cauchy data and its right-hand side.

    ``rhs(abs_ut_lag, t, w, out, tmp)`` maps the lagged |u_t| of component
    ``src`` (in run order) and the time of the level to this component's
    forcing on the nodes of window ``w``, written to and returned as ``out``
    (``tmp`` is scratch); the arrays hold one value per node of the window
    (in a run, stride-m views of the interleaved buffers).  ``power`` is
    the p > 1 of a |u_t|^p forcing, which vanishes wherever every lagged
    u_t does (so it never reaches past the numerical light cone); it is
    None for a sampled source, which can be nonzero anywhere.
    """

    params: ScaleInvariantParams
    data: CauchyProfile
    rhs: Callable[[np.ndarray, float, slice, np.ndarray, np.ndarray], np.ndarray]
    src: int
    power: float | None


#: The |u_t|^p forcings with a form of their own, by exponent: general
#: fractional powers dominate the step cost, so the common half-integer
#: exponents go through sqrt instead.
_FORMS = {
    1.5: lambda a, t, w, out, tmp: np.multiply(a, np.sqrt(a, tmp), out),
    2.0: lambda a, t, w, out, tmp: np.multiply(a, a, out),
    2.5: lambda a, t, w, out, tmp: np.multiply(np.multiply(a, a, out), np.sqrt(a, tmp), out),
    3.0: lambda a, t, w, out, tmp: np.multiply(np.multiply(a, a, tmp), a, out),
}


def _power_component(
    params: ScaleInvariantParams, data: CauchyProfile, src: int, p: float
) -> _Component:
    """Component forced by |u_t|^p of component ``src``, in _FORMS' form
    where it has one; |0|^p = +0.0 for p > 0."""
    rhs = _FORMS.get(p, lambda a, t, w, out, tmp: np.positive(a**p, out))  # a**p into out
    return _Component(params, data, rhs, src, p)


def _taylor_start(
    U0: np.ndarray, U1: np.ndarray, rhs0: np.ndarray, dt: float, dx: float,
    params: ScaleInvariantParams,
) -> np.ndarray:
    """First level u^1 = u0 + dt u1 + dt^2/2 (u0'' - mu u1 - nu2 u0 + rhs(0)),
    with u0'' = ((u0_{i+1} + u0_{i-1}) - 2 u0_i) / dx^2, and 0 at the grid ends."""
    lap = np.zeros(len(U0))
    lap[1:-1] = ((U0[2:] + U0[:-2]) - 2.0 * U0[1:-1]) / (dx * dx)
    return U0 + dt * U1 + 0.5 * dt * dt * (lap - params.mu * U1 - params.nu2 * U0 + rhs0)


#: Stored rows of component 0: times, u and u_t, one row per stored level.
_Rows = tuple[np.ndarray, np.ndarray, np.ndarray]


def _sample(data: CauchyProfile, name: str, xs: np.ndarray, first: int) -> np.ndarray:
    """eps*data.<name> on the nodes |x| <= R of xs, grid nodes first, first +
    1, ...; +0.0 elsewhere (the data's support).

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
            f"datum {name} is not finite at node {first + k} (x={float(xs[k])!r}): "
            f"{float(out[k])!r}"
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
    if store_every is not None and (
        isinstance(store_every, bool) or not isinstance(store_every, (int, np.integer)) or store_every < 1
    ):
        raise ValueError(f"store_every must be >= 1 and an integer, got {store_every!r}")
    if threshold is not None and not threshold > 0:
        raise ValueError(f"threshold must be > 0, got {threshold}")
    grid.validate_cone(max(c.data.R for c in components))


def _interleave(arrays: list[np.ndarray], n: int, first: int) -> np.ndarray:
    """One node-major buffer of m arrays on n nodes, +0.0 but for nodes first,
    first + 1, ..., which hold the arrays: array j at node i is element i*m + j."""
    out = np.zeros((n, len(arrays)))
    out[first : first + len(arrays[0])] = np.stack(arrays, axis=1)
    return out.ravel()


def _start(
    components: list[_Component], grid: GridSpec
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, int], bool]:
    """The interleaved full-width levels u^0 and u^1 (the Taylor start) and
    u_t^0 of the components; the span of nodes outside which all three are
    +0.0 (bitwise: -0.0, NaN and inf lie inside it); and whether every
    component's sampled u0 and u1 are even.

    Where every forcing is |u_t|^p (+0.0 where u_t is +0.0), the data,
    forcing and Taylor start are computed on the nodes within two of the
    data's support only, a span symmetric about the centre node: u0'' reads
    one neighbour on either side, so outside it they are +0.0, and the span
    has the full grid's bits.  A sampled source term can be nonzero
    anywhere, so a run with one computes them on the whole grid.
    """
    dx, n_half = grid.dx, grid._n_half()
    half = n_half
    if all(c.power is not None for c in components):
        # the nodes |x| <= R lie within floor(R / dx) + 1 of the centre (one
        # past floor(R / dx) where R / dx rounds down); two more beyond them
        half = min(n_half, math.floor(max(c.data.R for c in components) / dx) + 3)
    first, width = n_half - half, 2 * half + 1
    xs = dx * np.arange(-half, half + 1)  # the grid's xs[first : first + width]
    u0 = [_sample(c.data, "u0", xs, first) for c in components]
    u1 = [_sample(c.data, "u1", xs, first) for c in components]
    w = slice(first, first + width)
    rhs0 = [c.rhs(np.abs(u1[c.src]), 0.0, w, np.empty(width), np.empty(width)) for c in components]
    taylor = [
        _taylor_start(a, b, f, grid.dt, dx, c.params)
        for c, a, b, f in zip(components, u0, u1, rhs0)
    ]
    lo, hi = _support(u0 + u1 + taylor)
    n = 2 * n_half + 1
    return (
        *(_interleave(arrays, n, first) for arrays in (u0, taylor, u1)),
        (first + lo, first + hi) if lo < hi else (0, 0), _even(u0 + u1),
    )


#: Exponents of the forcings the compiled kernel steps; its form of a
#: component is the exponent's index here.
_KERNEL_POWERS = tuple(_FORMS)

#: Portable flags that keep IEEE semantics: no fused multiply-add, and no
#: -ffast-math or -march=native.
_KERNEL_CFLAGS = (
    "-O3", "-fPIC", "-shared", "-pthread", "-ffp-contract=off", "-fno-math-errno",
)

#: The least work, in levels times elements (nodes times components), of
#: each half of a block that the compiled kernel splits between the caller
#: and a helper thread: about 44 us of kernel time at the AVX2 clone's
#: 2.7 ns an element (59 us at the SSE2 build's 3.6 ns), against the 25-70
#: us a split waits for the helper to wake.  Limits of 2^13 and 2^14 gave
#: the shortest system_sweep passes, 2^16 and above longer ones, on a
#: 2-vCPU host whose second CPU gave its time; with the AVX2 clone, 2^14
#: still gave shorter passes than 2^15 (medians 75.1 and 77.5 ms).
_SPLIT_WORK = 1 << 14

#: siwave_fd_levels' stop reasons: the block's end, a non-finite level and
#: a peak past the threshold.
_END, _NONFINITE, _THRESHOLD = range(3)


class _KernelComp(ctypes.Structure):
    """struct fd_comp of _fdlevel.c."""

    _fields_ = [
        ("form", ctypes.c_long), ("src", ctypes.c_long),
        ("half_mu_dt", ctypes.c_double), ("nu2", ctypes.c_double),
    ]


class _KernelRun(ctypes.Structure):
    """struct fd_run of _fdlevel.c: a run's buffers, stored rows and
    constants, the buffer rotation, and the level a call stopped at; the run
    state of every block stepper (see _state)."""

    _fields_ = [
        ("u", ctypes.c_void_p * 3),
        *((name, ctypes.c_void_p) for name in ("ut", "abs_ut", "rhs", "values", "dvalues")),
        ("comp", ctypes.POINTER(_KernelComp)),
        *((name, ctypes.c_long) for name in (
            "n", "m", "store_every", "k_max", "mirror", "scaled", "shared", "rot", "level",
        )),
        *((name, ctypes.c_double) for name in (
            "dt", "c2", "two_less_c2", "dt2", "two_dt", "threshold",
        )),
    ]


class _Kernel(NamedTuple):
    """The functions of _fdlevel.c: ``levels(run, lo, hi, first, last)``
    steps a block, ``split(run, helper, lo, mid, hi, first, last)`` steps it
    on two threads, ``start(run)`` starts a helper for them (NULL, as None,
    where its buffers cannot be allocated) and ``stop(helper)`` joins and
    frees it."""

    levels: Callable[..., int]
    split: Callable[..., int]
    start: Callable[..., int | None]
    stop: Callable[..., None]


def _cache_dir() -> Path:
    """Where built kernels are kept: $XDG_CACHE_HOME/siwave, else ~/.cache/siwave."""
    return Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "siwave"


def _compile(cc: list[str], source: Path, lib: str) -> None:
    subprocess.run(
        [*cc, *_KERNEL_CFLAGS, str(source), "-o", lib, "-lm"],
        check=True, capture_output=True, timeout=120,
    )


def _library(cc: list[str], source: Path) -> ctypes.CDLL:
    """_fdlevel.c built by ``cc``, loaded: from the cache where a build of
    the same source, compiler and flags is kept, else compiled into a
    temporary file of the cache and renamed into place once it loads (in a
    temporary directory where the cache is not writable)."""
    key = hashlib.sha256(repr((source.read_bytes(), cc, _KERNEL_CFLAGS)).encode()).hexdigest()
    try:
        cache = _cache_dir()
        lib = cache / f"_fdlevel-{key[:24]}.so"
        with contextlib.suppress(OSError):
            return ctypes.CDLL(str(lib))
        cache.mkdir(parents=True, exist_ok=True)
        handle, tmp = tempfile.mkstemp(suffix=".so", prefix=".build-", dir=cache)
        os.close(handle)
    except (OSError, RuntimeError):  # RuntimeError: no home directory
        # a loaded library outlives its file
        with tempfile.TemporaryDirectory(ignore_cleanup_errors=True) as tmp:
            lib = os.path.join(tmp, "_fdlevel.so")
            _compile(cc, source, lib)
            return ctypes.CDLL(lib)
    try:
        _compile(cc, source, tmp)
        loaded = ctypes.CDLL(tmp)
        os.replace(tmp, lib)
        return loaded
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def _compilers() -> list[list[str]]:
    """The C compilers to try, in order: Python's (sysconfig's CC), then cc."""
    return [cc for cc in (shlex.split(sysconfig.get_config_var("CC") or ""), ["cc"]) if cc]


def _bind(lib: ctypes.CDLL) -> _Kernel:
    """The functions of a loaded build of _fdlevel.c, with their signatures."""
    run, long, helper = ctypes.POINTER(_KernelRun), ctypes.c_long, ctypes.c_void_p
    kernel = _Kernel(
        lib.siwave_fd_levels, lib.siwave_fd_split, lib.siwave_fd_helper_start,
        lib.siwave_fd_helper_stop,
    )
    for f, args, result in zip(
        kernel,
        ([run, *[long] * 4], [run, helper, *[long] * 5], [run], [helper]),
        (long, long, helper, None),
    ):
        f.argtypes, f.restype = args, result
    return kernel


@functools.cache
def _kernel() -> _Kernel | None:
    """The functions of _fdlevel.c, built with the first of _compilers()
    that builds it, once per machine (see _library), and loaded with ctypes
    on the first call; None, from then on, when it cannot be built or
    loaded, and the numpy level loop serves."""
    source = Path(__file__).with_name("_fdlevel.c")
    for cc in _compilers():
        try:
            return _bind(_library(cc, source))
        except (OSError, subprocess.SubprocessError):
            continue
    return None


def _state(
    components: list[_Component], grid: GridSpec, threshold: float,
    arrays: tuple[np.ndarray, ...], mirror: int,
    rows: tuple[np.ndarray, np.ndarray] | None = None, store_every: int = 0,
) -> _KernelRun:
    """The run state the block steppers share: the struct the kernel reads,
    over ``arrays`` (the full-width buffers u^0, u^1, u^2, u_t, |u_t| and
    the forcing) and ``rows`` (stored u and u_t of every store_every-th
    level), with ``mirror`` the centre node of a mirrored run or -1.
    _levels reads the same arrays from ``arrays`` and ``rows`` and the
    forcings from ``components``, and keeps the views of the last window it
    stepped in ``window`` and ``views``.  A forcing the kernel has no form
    for gets form -1; the kernel then steps no block of the run."""
    dt, c, m = grid.dt, grid.cfl, len(components)
    run = _KernelRun(
        (ctypes.c_void_p * 3)(*(a.ctypes.data for a in arrays[:3])),
        *(a.ctypes.data for a in [*arrays[3:], *(rows or ())]),
        comp=(_KernelComp * m)(*(
            (_KERNEL_POWERS.index(comp.power) if comp.power in _KERNEL_POWERS else -1,
             comp.src, 0.5 * comp.params.mu * dt, comp.params.nu2)
            for comp in components
        )),
        n=len(arrays[0]) // m, m=m, store_every=store_every, k_max=grid.n_steps(), mirror=mirror,
        scaled=c != 1.0, shared=len({comp.params for comp in components}) == 1, dt=dt, c2=c * c,
        two_less_c2=2.0 * (1.0 - c * c), dt2=dt * dt, two_dt=2.0 * dt, threshold=threshold,
    )
    # the struct holds the buffers' addresses; these references keep them alive
    run.arrays, run.rows, run.components, run.window = arrays, rows, components, None
    return run


def _window(run: _KernelRun, lo: int, hi: int) -> tuple:
    """The views of the run's buffers that _levels steps on nodes [lo, hi):
    of u^0, u^1 and u^2 each, the window, the interior (no grid end) and
    the interior shifted a node right and left, the ghost centre - 1 and its
    mate, the grid ends in the window and each coefficient group's part of
    the window; the window of u_t, |u_t| and the forcing, and the groups'
    parts of u_t and |u_t|; and each component's forcing with its views."""
    n, m, centre = run.n, run.m, run.mirror
    *u, ut, abs_ut, rhs = run.arrays
    window = slice(lo * m, hi * m)
    b = max(lo, 1) * m
    e = max(min(hi, n - 1) * m, b)
    ghost, mate = slice((centre - 1) * m, centre * m), slice((centre + 1) * m, (centre + 2) * m)
    ends = [end for end, inside in ((slice(0, m), lo == 0), (slice(-m, None), hi == n)) if inside]
    # one coefficient group, or one per component
    parts = [window] if run.shared else [slice(lo * m + j, hi * m, m) for j in range(m)]
    # each forcing reads the lagged |u_t| of its source component and writes
    # its own stride-m view, with its part of u_t as scratch
    forcings = [
        (comp.rhs, abs_ut[lo * m + comp.src : hi * m : m], rhs[lo * m + j : hi * m : m],
         ut[lo * m + j : hi * m : m])
        for j, comp in enumerate(run.components)
    ]
    shifted = (slice(b, e), slice(b + m, e + m), slice(b - m, e - m))
    return (
        *([a[s] for a in u] for s in (window, *shifted, ghost, mate)),
        [[a[s] for s in ends] for a in u], [[a[s] for s in parts] for a in u],
        ut[window], abs_ut[window], rhs[window], [ut[s] for s in parts], [abs_ut[s] for s in parts],
        forcings,
    )


def _levels(run: _KernelRun, lo: int, hi: int, first: int, last: int) -> int:
    """Steps levels first..last on nodes [lo, hi) as siwave_fd_levels of
    _fdlevel.c does, in numpy, and returns its stop reason, with the same
    level and rot in ``run`` and the same bits in every buffer and row.

    It follows steps, level and update line by line.  Each operation is one
    ufunc call on the window, over all components; the forcings, and the
    steps that take a component's own (mu, nu2) where those differ, go one
    strided call per component.  u_t and |u_t| hold the level's
    intermediate products until it writes them, as the kernel's registers
    do.  The peak max |u_t| answers the kernel's two questions of the
    level: it is not below infinity where some |u_t| is not, and it exceeds
    the threshold where some |u_t| does.
    """
    dt, threshold, centre, every = run.dt, run.threshold, run.mirror, run.store_every
    scaled, c2, two_less_c2, dt2, two_dt = run.scaled, run.c2, run.two_less_c2, run.dt2, run.two_dt
    coefficients = [(c.half_mu_dt, c.nu2) for c in run.comp[: 1 if run.shared else run.m]]
    # blocks on one window (the whole grid, once the cone reaches both grid
    # ends) share its views
    if run.window != (lo, hi):
        run.window, run.views = (lo, hi), _window(run, lo, hi)
    (wins, mids, rights, lefts, ghosts, mates, u_ends, u_parts,
     ut_w, abs_w, rhs_w, ut_parts, abs_parts, forcings) = run.views
    nodes = slice(lo, hi)
    rot = run.rot
    for k in range(first, last + 1):
        t = k * dt
        prv, cur, nxt = rot, (rot + 1) % 3, (rot + 2) % 3
        for force, lagged, out, scratch in forcings:
            force(lagged, t, nodes, out, scratch)
        # (1+lam) u^{k+1} = c^2 (u_{i+1} + u_{i-1}) + 2 (1-c^2) u
        #                   - (1-lam) u^{k-1} + dt^2 (rhs - mass u)
        np.add(rights[cur], lefts[cur], mids[nxt])
        for end, out in zip(u_ends[cur], u_ends[nxt]):
            np.add(end, end, out)
        if scaled:
            np.multiply(wins[nxt], c2, wins[nxt])
            np.multiply(wins[cur], two_less_c2, ut_w)
            np.add(wins[nxt], ut_w, wins[nxt])
        # the mass and (1-lam) products of each group with its coefficients,
        # into |u_t| and u_t; the rest of update on the window
        for (half_mu_dt, nu2), mass_u, less_u, u_prv, u_k in zip(
            coefficients, abs_parts, ut_parts, u_parts[prv], u_parts[cur]
        ):
            np.multiply(u_k, nu2 / (1.0 + t) ** 2, mass_u)
            np.multiply(u_prv, 1.0 - half_mu_dt / (1.0 + t), less_u)
        np.subtract(rhs_w, abs_w, abs_w)
        np.multiply(abs_w, dt2, abs_w)
        np.subtract(wins[nxt], ut_w, wins[nxt])
        np.add(wins[nxt], abs_w, wins[nxt])
        for (half_mu_dt, _), u_new in zip(coefficients, u_parts[nxt]):
            np.divide(u_new, 1.0 + half_mu_dt / (1.0 + t), u_new)
        if centre >= 0:
            ghosts[nxt][...] = mates[nxt]
        np.subtract(wins[nxt], wins[prv], ut_w)
        np.divide(ut_w, two_dt, ut_w)
        peak = np.maximum.reduce(np.absolute(ut_w, abs_w))
        # u^{k-1} is finite, so a NaN |u_t| comes from a NaN u^{k+1}
        nonfinite = not peak < math.inf and not np.isfinite(wins[nxt]).all()
        if not nonfinite and every and (k % every == 0 or k == run.k_max):
            # component 0's u^k and u_t into row ceil(k / every), and at the images
            row, m = -(-k // every), run.m
            for stored, level in zip(run.rows, (wins[cur], ut_w)):
                stored[row, lo:hi] = level[::m]
                if centre >= 0:
                    stored[row, 2 * centre - hi + 1 : 2 * centre - lo + 1] = level[::m][::-1]
        if nonfinite or peak > threshold:
            run.level, run.rot = k, rot
            return _NONFINITE if nonfinite else _THRESHOLD
        rot = cur
    run.level, run.rot = last + 1, rot
    return _END


def _run(
    components: list[_Component],
    grid: GridSpec,
    threshold: float | None = None,
    store_every: int | None = None,
) -> tuple[bool, float, _Rows | None]:
    """Step all components to t_max (+ one level); returns (blow_up, T_est, rows).

    The run stops at the first level where any component turns non-finite
    or its max |u_t| exceeds ``threshold``.  With ``store_every``, rows
    (t, u, u_t) of component 0 are kept at every store_every-th level and
    the last (a threshold crossing's too); else rows is None.
    """
    _check_run(components, grid, threshold, store_every)
    n, m = 2 * grid._n_half() + 1, len(components)
    dt, k_max, rows = grid.dt, grid.n_steps(), None
    if store_every is not None:
        # levels 0, store_every, 2 store_every, ... and k_max, +0.0 where no
        # stepper writes; past _ROW_RESERVE bytes the arrays grow by an
        # eighth at a time; a Python int, as a small numpy integer would wrap
        # around in -k_max; the times first, as a small array allocated
        # after the rows can pin them in the heap (up to 10 MiB of peak RSS)
        store_every = int(store_every)
        count = 1 - (-k_max // store_every)
        size = min(count, max(1, _ROW_RESERVE // (16 * n)))
        rows = (np.empty(size), np.zeros((size, n)), np.zeros((size, n)))

    def fit(size: int) -> None:
        for a in rows:  # a realloc that zero-fills; no view of a row array is alive
            a.resize((size, *a.shape[1:]), refcheck=False)
        run.values, run.dvalues = (a.ctypes.data for a in rows[1:])

    def result(blow_up: bool, t_est: float, k_end: int) -> tuple[bool, float, _Rows | None]:
        """The run's outcome, with the rows of levels 0..k_end."""
        if rows is not None:
            kept = 1 + (k_end // store_every if k_end < k_max else count - 1)
            fit(kept)
            np.multiply(np.minimum(np.arange(kept) * store_every, k_max), dt, rows[0])
        return blow_up, t_est, rows

    # every forcing is |u_t|^p, none a sampled source (see _Component)
    powers = all(comp.power is not None for comp in components)
    # Overflow past the last finite peak is the blow-up the loop detects, and
    # data that overflow the Taylor start end the run at the first level, so
    # neither raises a warning.
    with np.errstate(over="ignore", invalid="ignore"), contextlib.ExitStack() as helpers:
        u_prev, u_curr, ut, support, even = _start(components, grid)
        # u_t and |u_t| need one buffer each: every forcing of a level reads
        # the lagged |u_t| before the level overwrites it
        u_next, abs_ut, rhs = np.zeros(n * m), np.zeros(n * m), np.empty(n * m)
        # even data and |u_t|^p forcings (they keep parity): step x >= 0
        # only, with node centre - 1 a ghost of node centre + 1
        centre, mirror = n // 2, powers and even
        run = _state(
            components, grid, math.inf if threshold is None else threshold,
            (u_prev, u_curr, u_next, ut, abs_ut, rhs), centre if mirror else -1,
            rows and rows[1:], store_every or 0,
        )
        if rows is not None:
            rows[1][0], rows[2][0] = u_prev[::m], ut[::m]
        # outside the support every element is +0.0, finite and its own |.|
        nonzero = slice(support[0] * m, support[1] * m)
        if not np.isfinite(u_curr[nonzero]).all():
            return result(True, dt, 0)
        np.absolute(ut[nonzero], abs_ut[nonzero])

        # every buffer is +0.0 outside nodes [lo, hi); a step spreads one node
        lo, hi = support if powers else (0, n)
        if lo == hi:
            # all +0.0: start at the centre node, so that no window is empty
            lo, hi = centre, centre + 1
        floor = centre if mirror else 0
        if mirror:  # the Taylor level's ghost
            u_curr[(centre - 1) * m : centre * m] = u_curr[(centre + 1) * m : (centre + 2) * m]
        # the compiled kernel steps each block where it has every forcing,
        # else _levels; where the process may use a second CPU, a large block
        # is split between the caller and one helper thread, started at the
        # first such block and joined when the run ends
        kernel = _kernel() if all(comp.power in _KERNEL_POWERS for comp in components) else None
        levels = _levels if kernel is None else kernel.levels
        cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
        threads, helper = kernel is not None and len(cpus) > 1, None
        for first in range(1, k_max + 1, _BLOCK):
            last = min(first + _BLOCK - 1, k_max)
            span = last - first + 1
            # one window for the block: the cone at its last level
            lo, hi = max(lo - span, floor), min(hi + span, n)
            if rows is not None and (size := len(rows[0])) <= (row := -(-last // store_every)):
                # room for the row of the block's last level
                fit(min(max(row + 1, size + size // 8 + 1), count))
            # each half holds more nodes than the block has levels
            mid = (lo + hi) // 2
            half = min(mid - lo, hi - mid)
            if threads and half > span and span * half * m >= _SPLIT_WORK:
                if helper is None:
                    helper = kernel.start(run)
                    if helper is None:
                        raise MemoryError("no memory for the FD helper thread's buffers")
                    helpers.callback(kernel.stop, helper)
                stop = kernel.split(run, helper, lo, mid, hi, first, last)
            else:
                stop = levels(run, lo, hi, first, last)
            k = run.level
            if stop == _NONFINITE:
                return result(True, k * dt + dt, k - 1)
            if stop == _THRESHOLD:
                return result(True, k * dt, k)
    return result(False, math.inf, k_max)


def _lifespan(
    components: list[_Component], grid: GridSpec, threshold: float, refine: bool
) -> LifespanRecord:
    """Lifespan record of one run, with the Richardson pair when ``refine``."""
    pair = converged = None
    if refine:
        blow_coarse, t_coarse, _ = _run(components, grid, threshold)
        blow_up, t_est, _ = _run(components, replace(grid, dx=0.5 * grid.dx), threshold)
        pair = (t_coarse, t_est)
        converged = blow_coarse and blow_up and abs(t_coarse - t_est) <= RICHARDSON_RTOL * t_est
    else:
        blow_up, t_est, _ = _run(components, grid, threshold)
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
    f = _node_sampler(src.f)  # decides once per run whether f takes arrays

    def rhs(abs_ut_lag, t, w, out, tmp):
        out[:] = f(t, xs[w])
        return out

    # SourceTerm.support is only a quadrature hint: f is sampled everywhere
    source = _Component(params, data, rhs, 0, power=None)
    _, _, rows = _run([source], grid, store_every=store_every)
    return SpacetimeField(grid, *rows)


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
    return SpacetimeField(grid, *rows), record


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
) -> LifespanRecord:
    """Numerical lifespan of the weakly coupled system (eps taken from data1).

    u is forced by |v_t|^p and v by |u_t|^q; ``refine`` works as in
    detect_lifespan.
    """
    components = [
        _power_component(sys.comp1, data1, 1, sys.p),
        _power_component(sys.comp2, data2, 0, sys.q),
    ]
    return _lifespan(components, grid, threshold, refine)


def lifespan_records_to_csv(records: list[LifespanRecord], path: str) -> None:
    """Write the batch schema `eps,T_est,blow_up,threshold,dx,cfl,converged`."""
    _write_csv(path, "eps,T_est,blow_up,threshold,dx,cfl,converged", (
        (rec.eps, rec.T_est, str(rec.blow_up).lower(), rec.threshold_used, rec.grid.dx, rec.grid.cfl,
         "na" if rec.converged is None else str(rec.converged).lower())
        for rec in records
    ))
