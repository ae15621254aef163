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

evaluated left to right, one ufunc call per operation; a grid-end node
takes 2 u_i for the neighbour sum (u_xx = 0 there).  At c = 1 the c^2
product is a product by 1 and 2 (1-c^2) u_i a zero, so the step leaves both
out: six calls, where the earlier Laplacian form took ten (the tests bound
how far the two round apart).  The first level is a Taylor start matching
the PDE at t=0 to second order, with u0'' = ((u0_{i+1} + u0_{i-1}) - 2
u0_i) / dx^2 (0 at the grid ends).  Numerical blow-up is declared when max
|u_t| of any component crosses a threshold (or a non-finite value appears);
reaching t_max without crossing is reported as censored data (T >= t_max),
never as a no-blow-up fact.

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
exactly +0.0, so any _BLOCK gives the same bits, and a run that stores rows
gets the bits of stepping the whole grid.  A sampled source term can be
nonzero anywhere, so a run with one steps the whole grid.  The set-up is
sized the same way: with |u_t|^p forcings the data are sampled, and the
Taylor start, the span, the evenness and finite tests and the first |u_t|
taken, on the nodes within two of the data's support only (_start), which
are written into zeroed full-width buffers; with a source term, on the
whole grid.  A lifespan run (no stored rows) of even data steps only
x >= 0: the window's lower edge is pinned at the centre node N, and node
N-1 is a ghost that copies node N+1 after the Taylor start and after each
step, before u_t and the peak.  That is the exactly even solution, the
full window's bits on x >= 0.

u^{k-1}, u^k and u^{k+1} are preallocated full-width buffers that rotate
between levels; u_t, |u_t|, the forcing and a scratch array have one
each.  A buffer holds the m components node-major (component j of node i
is element i*m + j), so a window of nodes [lo, hi) is the contiguous slice
[lo*m, hi*m), a shift by one node is a shift by m elements, and each
operation of a level is one 1-D ufunc call for every component.  Only the
forcings (one stride-m view each), the lam and mass products when the
components' (mu, nu2) differ (one strided call each) and the stored rows
go per component: 2-D calls (an (m, n) stack, or the (nodes, m) view
with an (m,) coefficient vector) measured slower.

The level loop makes nothing but the scheme's ufunc calls: the views a
level needs (windows, interior, its one-node shifts, grid ends, ghost and
mate) are sliced once per block and rotate with the buffers; the per-run
c^2, 2 (1-c^2), dt^2, 2 dt and each level's 1-lam, 1+lam and mass are 0-d
float64 arrays; outputs are positional; each forcing's form is looked up
by its exponent in the table _FORMS when its component is built; a run
without rows makes no store call.  A single equation at cfl = 1 makes
twelve calls per level: two for |u_t|^p, six for the step, two for u_t,
|u_t|, and np.maximum.reduce for the peak.
No term is computed twice: |u_t| is taken once per level, for the peak and
the next level's forcing; the finite test is folded into the peak
(u^{k-1} is finite, so u^{k+1} is scanned only when max |u_t| is not
finite); and a massless step (nu2 == 0) with a |.|^p forcing skips the
mass product, whose +-0 subtracted from a forcing >= +0.0 (never -0.0)
changes nothing -- a source term may return -0.0, so linear mode keeps it.
Stored rows go straight into (rows, n) arrays that become the field, so a
stored run holds its field once; the arrays grow in place past
_ROW_RESERVE bytes and end cut to the rows kept.

A run whose every forcing is |u_t|^p with p an exponent of _FORMS steps
its levels in C instead: siwave_fd_levels of _fdlevel.c, built on the first
such run in the process (_kernel, never at import; the library is kept in
a per-user cache, so a machine compiles it once) and called once per block,
returning early at a store level, a non-finite level or a threshold
crossing.  It makes the numpy loop's IEEE operations on every element in
the same order, so the two paths give the same bits; windows, mirror,
stored rows and results stay here.  On x86-64 with glibc its level loop
comes in an AVX2 clone and a baseline (SSE2) one, and the loader picks the
AVX2 clone where the CPU has AVX2; the clones make the same operations per
element, with the same bits, and no flag or option selects one.  The
numpy loop remains the reference the tests compare with, and the path of other exponents (numpy's power and
libm's pow differ in the last bit), of a sampled source and of a process
where the kernel does not build.

Runs are sequential in time; independent runs (different eps or grids)
share no mutable state, and the two grids of a Richardson pair
(refine=True) run one after the other, coarse first.  Where the process
may use a second CPU, the kernel steps each block whose halves hold
_SPLIT_WORK of work on two threads (siwave_fd_split): the caller steps the
lower half of the window in place and one helper thread, started at the
run's first such block and joined when the run ends, steps the upper half
on private buffers; both compute their shared halo again, so every element
has the bits of one thread.  The two hand the upper half over through one
state under a lock, with one condition variable, and neither spins: a half
the helper has not taken when the caller is done with its own is stepped
by the caller, so the caller never waits on a helper that has not started.
The outcome is the same bits on every path; only the wall time of the
call changes.
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

from .grids import FLOAT_FMT, GridSpec, SpacetimeField
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

#: Levels stepped on one window and one set of prebuilt buffer views; 1 is
#: the plain level-by-level light-cone window.
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
        if not self.blow_up and not math.isinf(self.T_est):
            raise ValueError("censored record must carry the +inf marker")


class _Views(NamedTuple):
    """Views of one full-width buffer of m interleaved components on a window
    [lo, hi) of nodes: the window, its interior (the grid ends left out) and
    that interior shifted by -1 and +1 node, the grid-end nodes it holds, its
    coefficient groups (the whole window, or each component's stride-m view
    when their coefficients differ), and the ghost node centre - 1 and its
    mate centre + 1."""

    win: np.ndarray
    mid: np.ndarray
    left: np.ndarray
    right: np.ndarray
    ends: tuple[np.ndarray, ...]
    parts: tuple[np.ndarray, ...]
    ghost: np.ndarray
    mate: np.ndarray


def _views(a: np.ndarray, lo: int, hi: int, m: int, groups: int) -> _Views:
    n = len(a) // m
    b = max(lo, 1) * m  # the interior [b, e) in elements: a node is m elements
    e = max(min(hi, n - 1) * m, b)
    c = n // 2 * m
    ends = tuple(a[ix] for ix, end in ((slice(0, m), lo == 0), (slice(-m, None), hi == n)) if end)
    win = a[lo * m : hi * m]
    parts = (win,) if groups == 1 else tuple(win[j::m] for j in range(m))
    return _Views(
        win, a[b:e], a[b - m : e - m], a[b + m : e + m], ends, parts,
        a[c - m : c], a[c + m : c + 2 * m],
    )


class _Component(NamedTuple):
    """One field of a run: coefficients, Cauchy data and its right-hand side.

    ``rhs(abs_ut_lag, t, w, out, tmp)`` maps the lagged |u_t| of component
    ``src`` (in run order) and the time of the level to this component's
    forcing on the nodes of window ``w``, written to and returned as ``out``
    (``tmp`` is scratch); the arrays hold one value per node of the window
    (in a run, stride-m views of the interleaved buffers).  ``power`` is
    the p > 1 of a |u_t|^p forcing, which vanishes wherever every lagged
    u_t does (so it never reaches past the numerical light cone) and is
    never negative or -0.0 (so a massless step skips its mass product
    bit-exactly); it is None for a sampled source, which is neither.
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

#: siwave_fd_levels' stop reasons: the block's end, a non-finite level, a
#: store level and a peak past the threshold.
_END, _NONFINITE, _STORE, _THRESHOLD = range(4)


class _KernelComp(ctypes.Structure):
    """struct fd_comp of _fdlevel.c."""

    _fields_ = [
        ("form", ctypes.c_long), ("src", ctypes.c_long),
        ("half_mu_dt", ctypes.c_double), ("nu2", ctypes.c_double),
    ]


class _KernelRun(ctypes.Structure):
    """struct fd_run of _fdlevel.c: a run's buffers and constants, the buffer
    rotation, and the level a call stopped at."""

    _fields_ = [
        ("u", ctypes.c_void_p * 3),
        *((name, ctypes.c_void_p) for name in ("ut", "abs_ut", "rhs")),
        ("comp", ctypes.POINTER(_KernelComp)),
        *((name, ctypes.c_long) for name in (
            "n", "m", "mirror", "scaled", "shared", "rot", "level", "over",
        )),
        *((name, ctypes.c_double) for name in (
            "dt", "c2", "two_less_c2", "dt2", "two_dt", "threshold",
        )),
    ]


class _Kernel(NamedTuple):
    """The functions of _fdlevel.c: ``levels(run, lo, hi, first, last,
    next_store)`` steps a block, ``split(run, helper, lo, mid, hi, first,
    last, next_store)`` steps it on two threads, ``start(run)`` starts a
    helper for them (NULL, as None, where its buffers cannot be allocated)
    and ``stop(helper)`` joins and frees it."""

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
        ([run, *[long] * 5], [run, helper, *[long] * 6], [run], [helper]),
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


def _kernel_for(components: list[_Component]) -> _Kernel | None:
    """The compiled level kernel when it has every component's forcing and
    builds, else None."""
    return _kernel() if all(comp.power in _KERNEL_POWERS for comp in components) else None


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
    at the last one; without it, rows is None and even data step x >= 0
    only (see the module docstring).
    """
    _check_run(components, grid, threshold, store_every)
    n, m = 2 * grid._n_half() + 1, len(components)
    dt, c = grid.dt, grid.cfl
    k_max = grid.n_steps()
    rows: _Rows | None = None
    kept = 0
    if store_every is not None:
        # levels 0, store_every, 2 store_every, ... and k_max; past
        # _ROW_RESERVE bytes the arrays grow by an eighth at a time; a
        # Python int, as a small numpy integer would wrap around in -k_max
        store_every = int(store_every)
        count = 1 - (-k_max // store_every)
        size = min(count, max(1, _ROW_RESERVE // (16 * n)))
        rows = (np.empty(size), np.empty((size, n)), np.empty((size, n)))

    def fit(size: int) -> None:
        for a in rows or ():  # a realloc; no view of a row array is alive
            a.resize((size, *a.shape[1:]), refcheck=False)

    def store(k: int, t: float, u: np.ndarray, ut: np.ndarray) -> int:
        """Keeps level k's row; returns the next level to keep."""
        nonlocal kept
        times, values, dvalues = rows
        if kept == len(times):
            fit(min(kept + kept // 8 + 1, count))
        times[kept], values[kept], dvalues[kept] = t, u[::m], ut[::m]
        kept += 1
        return min(k + store_every, k_max)

    def result(blow_up: bool, t_est: float) -> tuple[bool, float, _Rows | None]:
        fit(kept)
        return blow_up, t_est, rows

    # one coefficient group when every component shares (mu, nu2), else one
    # group per component; their per-level 1 - lam, 1 + lam and mass are 0-d
    # arrays, as are the per-run constants
    params = [comp.params for comp in components]
    if len(set(params)) == 1:
        params = params[:1]
    # every forcing is |u_t|^p, none a sampled source (see _Component)
    powers = all(comp.power is not None for comp in components)
    massless = powers and all(comp.params.nu2 == 0.0 for comp in components)
    half_mu_dts = [0.5 * q.mu * dt for q in params]
    nu2s = [q.nu2 for q in params]
    lesses, mores, masses = ([np.empty(()) for _ in params] for _ in range(3))
    c2, two_less_c2, dt2, two_dt = (
        np.array(v) for v in (c * c, 2.0 * (1.0 - c * c), dt * dt, 2.0 * dt)
    )
    scaled = c != 1.0  # at c = 1 the c^2 product and the 2(1-c^2)u term are identities
    threshold = math.inf if threshold is None else threshold
    # bound from the module's np name at each run: tools/fd_level_cost.py
    # and tests/test_fd.py record the level's calls by replacing it
    add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
    absolute, maximum = np.absolute, np.maximum.reduce
    # Overflow past the last finite peak is the blow-up the loop detects, and
    # data that overflow the Taylor start end the run at the first level, so
    # neither raises a warning.
    with np.errstate(over="ignore", invalid="ignore"), contextlib.ExitStack() as helpers:
        u_prev, u_curr, ut, support, even = _start(components, grid)
        next_store = -1 if rows is None else store(0, 0.0, u_prev, ut)
        # outside the support every element is +0.0, finite and its own |.|
        nonzero = slice(support[0] * m, support[1] * m)
        if not np.isfinite(u_curr[nonzero]).all():
            return result(True, dt)
        # scratch for the forcing and the step; u_t and |u_t| need one buffer
        # each: every forcing of a level reads the lagged |u_t| before the
        # level overwrites it
        u_next, abs_ut = np.zeros(n * m), np.zeros(n * m)
        np.absolute(ut[nonzero], abs_ut[nonzero])
        rhs, tmp = np.empty(n * m), np.empty(n * m)

        # every buffer is +0.0 outside nodes [lo, hi); a step spreads one node
        centre = n // 2
        lo, hi = support if powers else (0, n)
        if lo == hi:
            # all +0.0: start at the centre node, so that no window is empty
            lo, hi = centre, centre + 1
        # even data, |u_t|^p forcings (they keep parity) and no rows: step
        # x >= 0 only, with node centre - 1 a ghost of node centre + 1
        mirror = rows is None and powers and even
        floor = centre if mirror else 0
        if mirror:  # the Taylor level's ghost
            u_curr[(centre - 1) * m : centre * m] = u_curr[(centre + 1) * m : (centre + 2) * m]
        kernel = _kernel_for(components)
        if kernel is not None:
            # the compiled kernel steps each block; the struct holds the
            # buffers' addresses, which stay alive with this frame
            buffers = (u_prev, u_curr, u_next)
            run = _KernelRun(
                (ctypes.c_void_p * 3)(*(a.ctypes.data for a in buffers)),
                ut.ctypes.data, abs_ut.ctypes.data, rhs.ctypes.data,
                (_KernelComp * m)(*(
                    (_KERNEL_POWERS.index(comp.power), comp.src, 0.5 * comp.params.mu * dt,
                     comp.params.nu2)
                    for comp in components
                )),
                n=n, m=m, mirror=centre if mirror else -1, scaled=scaled,
                shared=len(params) == 1, dt=dt, c2=float(c2), two_less_c2=float(two_less_c2),
                dt2=float(dt2), two_dt=float(two_dt), threshold=threshold,
            )
            # a large block is split between the caller and one helper
            # thread, started at the first such block and joined when the
            # run ends, where the process may use a second CPU
            cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
            threads, helper = len(cpus) > 1, None
        for first in range(1, k_max + 1, _BLOCK):
            levels = range(first, min(first + _BLOCK, k_max + 1))
            # one window for the block: the cone at its last level
            lo, hi = max(lo - len(levels), floor), min(hi + len(levels), n)
            if kernel is not None:
                k = first
                while k <= levels[-1]:
                    # where rows are stored, a block ends at the store level
                    last = levels[-1] if rows is None else min(levels[-1], next_store)
                    # each half holds more nodes than the block has levels
                    mid = (lo + hi) // 2
                    span, half = last - k + 1, min(mid - lo, hi - mid)
                    if threads and half > span and span * half * m >= _SPLIT_WORK:
                        if helper is None:
                            helper = kernel.start(run)
                            if helper is None:
                                raise MemoryError("no memory for the FD helper thread's buffers")
                            helpers.callback(kernel.stop, helper)
                        stop = kernel.split(run, helper, lo, mid, hi, k, last, next_store)
                    else:
                        stop = kernel.levels(run, lo, hi, k, last, next_store)
                    k = run.level
                    t_k = k * dt
                    if stop == _NONFINITE:
                        return result(True, t_k + dt)
                    if stop == _THRESHOLD:
                        return result(True, t_k)
                    if stop == _STORE:
                        next_store = store(k, t_k, buffers[(run.rot + 1) % 3], ut)
                        if run.over:
                            return result(True, t_k)
                        run.rot = (run.rot + 1) % 3
                        k += 1
                continue
            w = slice(lo, hi)
            prv, cur, nxt, scr = (
                _views(a, lo, hi, m, len(params)) for a in (u_prev, u_curr, u_next, tmp)
            )
            v_ut, v_abs, v_rhs = (a[lo * m : hi * m] for a in (ut, abs_ut, rhs))
            # each component's forcing reads the lagged |u_t| of its source
            # component and writes its own stride-m view
            forcings = [
                (comp.rhs, v_abs[comp.src :: m], v_rhs[j::m], scr.win[j::m])
                for j, comp in enumerate(components)
            ]
            for k in levels:
                t_k = k * dt
                for force, abs_ut_lag, out, scratch in forcings:
                    force(abs_ut_lag, t_k, w, out, scratch)
                for half_mu_dt, less, more in zip(half_mu_dts, lesses, mores):
                    lam = half_mu_dt / (1.0 + t_k)
                    less.fill(1.0 - lam)
                    more.fill(1.0 + lam)
                # (1+lam) u^{k+1} = c^2 (u_{i+1} + u_{i-1}) + 2 (1-c^2) u
                #                   - (1-lam) u^{k-1} + dt^2 (rhs - mass u)
                add(cur.right, cur.left, nxt.mid)
                for end, out in zip(cur.ends, nxt.ends):
                    add(end, end, out)
                if scaled:
                    multiply(nxt.win, c2, nxt.win)
                    multiply(cur.win, two_less_c2, scr.win)
                    add(nxt.win, scr.win, nxt.win)
                if not massless:
                    for nu2, mass, u, out in zip(nu2s, masses, cur.parts, scr.parts):
                        mass.fill(nu2 / (1.0 + t_k) ** 2)
                        multiply(u, mass, out)
                    subtract(v_rhs, scr.win, v_rhs)
                multiply(v_rhs, dt2, v_rhs)
                for less, u, out in zip(lesses, prv.parts, scr.parts):
                    multiply(u, less, out)
                subtract(nxt.win, scr.win, nxt.win)
                add(nxt.win, v_rhs, nxt.win)
                for more, out in zip(mores, nxt.parts):
                    divide(out, more, out)
                if mirror:
                    nxt.ghost[...] = nxt.mate
                # u^{k-1} is finite, so a non-finite u^{k+1} makes the peak
                # max |u_t| non-finite; only then is u^{k+1} itself scanned
                subtract(nxt.win, prv.win, v_ut)
                divide(v_ut, two_dt, v_ut)
                peak = maximum(absolute(v_ut, v_abs))
                if not peak < math.inf and not np.isfinite(nxt.win).all():
                    return result(True, t_k + dt)
                if k == next_store:
                    next_store = store(k, t_k, u_curr, ut)
                if peak > threshold:
                    return result(True, t_k)
                u_prev, u_curr, u_next = u_curr, u_next, u_prev
                prv, cur, nxt = cur, nxt, prv
    return result(False, math.inf)


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

    # SourceTerm.support is only a quadrature hint: f is sampled everywhere;
    # f may return -0.0, so the mass product stays even when nu2 == 0
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
