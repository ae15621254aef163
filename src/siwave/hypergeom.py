"""Gauss hypergeometric function F(a,b;c;z) on z in [0,1).

The kernels of the closed-form linear solver need F(gamma,gamma;1;zeta) and
F(gamma+1,gamma+1;2;zeta), where zeta lies in [0,1) on the light-cone
domain and tends to 1 as t grows.  One series engine serves both
:func:`hyp2f1` (a Python float) and :func:`hyp2f1_grid` (an array): every
series it sums has the form

    sum_k t_k x_k,   t_{k+1} = t_k (a'+k)(b'+k) / ((c'+k)(1+k)) * w,

with x_k = 1, or x_k = ln(w) + h_k for the logarithmic series below.

Which formula, by z:

* z <= 1/2: the direct series, w = z, t_0 = 1.
* z > 1/2: the z -> 1-z connection formula, so every series runs in powers
  of w = 1-z < 1/2 and needs about 50 terms at tol = 1e-13, whatever z.
  With s = c-a-b not an integer this is A&S 15.3.6 (DLMF 15.8.4): two
  series, F(a,b;1-s;w) and w^s F(c-a,c-b;1+s;w).  With s = m an integer
  the Gamma factors of 15.3.6 have poles, and the limit is one of the
  logarithmic cases A&S 15.3.10 (m = 0), 15.3.11 (m > 0) or 15.3.12
  (m < 0): a finite sum of |m| terms plus one series whose bracket
  ln(w) + psi(a'+k) + psi(b'+k) - psi(1+k) - psi(c'+k) is updated by the
  psi recurrence.  The kernel calls are all logarithmic: (1/2,1/2;1) has
  m = 0, (-1/2,-1/2;1) has m = 2 and (1/2,1/2;2) has m = 1.

The direct series stays in use at every z for a terminating series (a or b
a non-positive integer), and wherever the connection formula would lose
more than ``tol`` to cancellation (next paragraph).  Near z = 1 it needs
about 1/(1-z) terms and raises :class:`ConvergenceError` beyond its term
budget; it never truncates silently.

Cancellation.  Each addend of the connection formula is a product of a few
correctly rounded factors with Gamma and digamma values good to a few ulps,
and its terms fall off at least geometrically in w <= 1/2, so the rounding
error of the compensated sum is below ``CANCELLATION_ULPS`` * u * sum|addend|
(u = 2^-53).  The arguments c-a-b, c-a, c-b, 1-(c-a-b), 1+(c-a-b), a+m,
b+m, ... of the Gamma and digamma factors are themselves rounded; moving
x by d changes ln|Gamma(x)| by about d |psi(x)|, so each rounded argument
adds |x - fl(x)| |psi(fl(x))| to that relative bound (the residual
x - fl(x) comes from math.fsum, once per parameter set).  The connection formula is used only where the
resulting bound on its rounding error is within tol * max(1, |F|);
elsewhere the direct series is.  This is the cutoff for a non-integer
c-a-b close to an integer: the two terms of 15.3.6 then carry opposite
poles of size about |F| / dist(c-a-b, Z), so sum|addend| grows like
1 / dist until the bound fails.  Where that happens depends on z: at the
default tol, F(1/2,1/2;2+d;z) takes the direct series from d = 0.03 down
at z = 0.51, and from d = 0.003 down at z = 0.9.

Truncation.  Terms are accumulated with Kahan compensated summation, which
keeps the exact lower bound F(a,a;c;z) >= 1 for c > 0 (every term of the
direct series is a nonnegative square there) from being spoiled by
rounding; a connection-formula value of such an F is clipped to 1 from
below for the same reason.  Write the ratio as r_j = 1 + (S j + N) /
((c'+j)(1+j)) with S = a'+b'-c'-1 and N = a'b'-c'.  Once a'+k, b'+k and
c'+k are positive, every later ratio satisfies |r_j| <= rho_k =
1 + |S| max(1, k/(c'+k)) / (1+k) + |N| / ((c'+k)(1+k)), and the tail after
term k is below |t_k| B q / (1-q) with q = w rho_k < 1, where B = 1 for a
plain series and B = |ln w| + H for a logarithmic one; H bounds every later
|h_j| by |psi(x+d) - psi(x)| <= |d| (1/y + 1/y^2), y = min(x, x+d) > 0.  A
series stops once that bound is below its share of ``tol``.  On an array
the bound is largest at the largest w, because from that index on |t_k| B w
is a constant times w^n, which grows on (0, 1), or times w^n (|ln w| + H)
with n >= 2, which grows on (0, 1/2]; so only that point is tested.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy import special

__all__ = [
    "ConvergenceError",
    "hyp2f1",
    "hyp2f1_grid",
]

DEFAULT_TOL = 1e-13
MAX_TERMS = 10**6

#: Rounding-error bound of a connection-formula evaluation with exact
#: arguments, in units of u * sum|addend| (module docstring, "Cancellation").
CANCELLATION_ULPS = 64.0
_ROUNDING = CANCELLATION_ULPS * 2.0**-53


class ConvergenceError(RuntimeError):
    """Series did not meet the requested tolerance within the term budget."""

    def __init__(self, message: str, achieved: float):
        super().__init__(message)
        self.achieved = achieved


def _check_inputs(a: float, b: float, c: float, tol: float) -> None:
    isfinite = math.isfinite
    if not (isfinite(a) and isfinite(b) and isfinite(c) and isfinite(tol)):
        for name, value in (("a", a), ("b", b), ("c", c), ("tol", tol)):
            if not isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
    if c <= 0 and c == math.floor(c):
        raise ValueError(f"series pole: c = {c} is zero or a negative integer")
    if tol <= 0:
        raise ValueError(f"tolerance must be > 0, got {tol}")


def _start_index(a: float, b: float, c: float) -> int:
    """First index k with a+k, b+k, c+k > 0, from which the tail bound holds."""
    return int(max(0.0, -a, -b, -c)) + 1


def _ratio_bound(a: float, b: float, c: float, k: int) -> float:
    """rho_k >= |r_j| for every j >= k >= _start_index (module docstring, "Truncation")."""
    slope, const = a + b - c - 1.0, a * b - c
    return 1.0 + abs(slope) * max(1.0, k / (c + k)) / (1.0 + k) + abs(const) / ((c + k) * (1.0 + k))


def _digamma(x: float) -> float:
    """psi(x), x not a non-positive integer, by psi(x) = psi(x+1) - 1/x and the asymptotic series.

    Shifting up to x >= 10 keeps full relative accuracy next to the poles
    at the non-positive integers, where a reflection formula loses it; the
    first omitted asymptotic term is below 5e-17 there.
    """
    if x < -50.0:
        return float(special.psi(x))
    shift = 0.0
    while x < 10.0:
        shift -= 1.0 / x
        x += 1.0
    x2 = 1.0 / (x * x)
    series = x2 * (1 / 12 - x2 * (1 / 120 - x2 * (1 / 252 - x2 * (1 / 240 - x2 * (
        1 / 132 - x2 * (691 / 32760 - x2 / 12))))))
    return shift + math.log(x) - 0.5 / x - series


def _psi_shift_bound(x: float, d: float) -> float:
    """Bound on |psi(x+d) - psi(x)|, valid while min(x, x+d) > 0."""
    y = min(x, x + d)
    return abs(d) * (1.0 / y + 1.0 / (y * y))


#: The ratios, brackets and ratio bounds of the first ``start + _TABLE_TERMS``
#: terms of a series (at most ``_TABLE_CAP``) are computed once per parameter set.
_TABLE_TERMS = 100
_TABLE_CAP = 256

#: Points per engine call in :func:`hyp2f1_grid`: the engine's arrays then stay in cache.
_BLOCK = 8192


class _Series(NamedTuple):
    """One series of the engine: t_0 = scale * w**power, ratio parameters a, b, c.

    ``table[k]`` holds (r_k, h_k, rho_k): the ratio t_{k+1} / (t_k w), h_k of
    the bracket ln(w) + h_k of a logarithmic series (0.0 otherwise), and
    the bound rho_k on every later ratio (from ``start`` on).
    """

    a: float
    b: float
    c: float
    scale: float
    power: float
    start: int
    log: bool
    h_bound: float  # bound on |h_k| for every k > ``start``
    table: tuple[tuple[float, float, float], ...]


def _coefficients(a: float, b: float, c: float, k: int, h: float, log: bool):
    """(r_k, h_k, rho_k) from h_{k-1}: the psi recurrence psi(x+1) = psi(x) + 1/x."""
    if log:
        h += 1.0 / (a + k - 1) + 1.0 / (b + k - 1) - 1.0 / k - 1.0 / (c + k - 1)
    rho = _ratio_bound(a, b, c, k) if c + k > 0.0 else math.inf
    return (a + k) * (b + k) / ((c + k) * (k + 1.0)), h, rho


def _series(a: float, b: float, c: float, scale: float = 1.0, power: float = 0.0,
            log: bool = False) -> _Series:
    start = _start_index(a, b, c)
    h_bound = 0.0
    h = 0.0
    if log:
        h = _digamma(a) + _digamma(b) - _digamma(1.0) - _digamma(c)
        j = start + 1
        h_bound = _psi_shift_bound(1.0 + j, a - 1.0) + _psi_shift_bound(c + j, b - c)
    table = [(a * b / c, h, math.inf)]
    for k in range(1, min(start + _TABLE_TERMS, _TABLE_CAP)):
        table.append(_coefficients(a, b, c, k, table[-1][1], log))
    return _Series(a, b, c, float(scale), power, start, log, h_bound, tuple(table))


class _Plan(NamedTuple):
    """How F(a,b;c;.) is evaluated: direct series, and the connection formula.

    The connection formula is w**poly_power * sum_n poly[n] w^n plus the
    listed series; ``connect`` is False where it is not used.  ``rounding``
    bounds its rounding error relative to sum|addend| (module docstring,
    "Cancellation").
    """

    direct: _Series
    connect: bool = False
    poly: tuple[float, ...] = ()
    poly_power: float = 0.0
    connection: tuple[_Series, ...] = ()
    rounding: float = 0.0


def _argument_error(*arguments: tuple[float, ...]) -> float:
    """sum |x - fl(x)| |psi(fl(x))| over rounded Gamma/digamma arguments.

    Each argument is given as (fl(x), *terms) with x the exact sum of the
    terms; math.fsum returns the residual x - fl(x) correctly rounded.
    """
    out = 0.0
    for rounded, *terms in arguments:
        shift = abs(math.fsum([*terms, -rounded]))
        if shift:
            if rounded <= 0 and rounded == math.floor(rounded):
                return math.inf  # rounded onto a pole
            out += shift * abs(_digamma(rounded))
    return out


@lru_cache(maxsize=64)
def _plan(a: float, b: float, c: float) -> _Plan:
    """Evaluation plan for canonical parameters a <= b."""
    a, b, c = float(a), float(b), float(c)
    direct = _series(a, b, c)
    if any(x <= 0 and x == math.floor(x) for x in (a, b)):
        return _Plan(direct)  # terminating series
    s = c - a - b
    gc = special.gamma(c)
    if s != math.floor(s):  # A&S 15.3.6
        series = (
            _series(a, b, 1.0 - s, gc * special.gamma(s) * special.rgamma(c - a) * special.rgamma(c - b)),
            _series(c - b, c - a, 1.0 + s, gc * special.gamma(-s) * special.rgamma(a) * special.rgamma(b), s),
        )
        poly: tuple[float, ...] = ()
        poly_power = 0
        arguments = ((s, c, -a, -b), (-s, -c, a, b), (1.0 - s, 1.0, -c, a, b),
                     (1.0 + s, 1.0, c, -a, -b), (c - a, c, -a), (c - b, c, -b))
    else:  # A&S 15.3.10 (m = 0), 15.3.11 (m > 0), 15.3.12 (m < 0)
        m = int(s)
        j = abs(m)
        # series parameters a' = a + max(m, 0), b' = b + max(m, 0), c' = j + 1
        a1, b1 = a + max(m, 0), b + max(m, 0)
        scale = -((-1.0) ** j) * gc * special.rgamma(a1 - j) * special.rgamma(b1 - j) / math.factorial(j)
        series = (_series(a1, b1, j + 1.0, scale, max(m, 0), log=True),)
        lead = special.gamma(j) * gc * special.rgamma(a1) * special.rgamma(b1) if j else 0.0
        poly = tuple(
            float(lead * special.poch(a1 - j, n) * special.poch(b1 - j, n)
                  / (math.factorial(n) * special.poch(1.0 - j, n)))
            for n in range(j)
        )
        poly_power = min(m, 0)
        arguments = ((a1, a, max(m, 0)), (b1, b, max(m, 0)), (a1 - j, a, max(m, 0) - j),
                     (b1 - j, b, max(m, 0) - j))
    rounding = _ROUNDING + _argument_error(*arguments)
    constants = [sr.scale for sr in series] + [sr.table[0][1] for sr in series] + list(poly)
    if not all(math.isfinite(x) for x in constants + [rounding]):
        return _Plan(direct)  # Gamma overflow or a pole: the direct series serves every z
    series = tuple(sr for sr in series if sr.scale != 0.0)
    return _Plan(direct, True, poly, poly_power, series, rounding)


def _accumulate(state, s: _Series, w, lnw, tol: float, max_terms: int, probe):
    """Kahan-add sum_k t_k x_k of one series into ``state`` = (total, comp, mass).

    ``w`` and ``lnw`` are a float or an array alike; ``probe`` is None for a
    float and otherwise the index of the largest w, where the tail bound is
    tested.  ``mass`` accumulates sum|addend| for the cancellation test; the
    direct series passes None and skips it.  The augmented assignments
    rebind a float and update an array in place; every array they update
    is one this function or its caller created.
    """
    total, comp, mass = state
    a, b, c, scale, power, start, log, h_bound, table = s
    track = mass is not None
    scalar = probe is None
    w_max = w if scalar else float(w[probe])
    bound = w_max
    if log:
        bound *= abs(lnw if scalar else float(lnw[probe])) + h_bound
    # rho >= 1, so |t_k| <= limit is necessary for the tail test, and cheap to try first
    limit = tol * (1.0 - w_max) / bound if bound > 0.0 else math.inf
    term = scale * w**power if power else scale
    n = len(table)
    h = 0.0
    for k in range(max_terms + 1):
        r, h, rho = table[k] if k < n else _coefficients(a, b, c, k, h, log)
        if log:
            addend = lnw + h
            addend *= term
        else:
            addend = term
        y = addend - comp
        t = total + y
        comp = t - total
        comp -= y
        total = t
        if track:
            mass += abs(addend)
        if k >= start:
            lead = abs(term) if scalar else abs(float(term[probe]))
            if lead <= limit and lead * bound * rho <= tol * (1.0 - w_max * rho):
                return total, comp, mass
        term *= r
        term *= w
    lead = abs(term) if scalar else abs(float(term[probe]))
    raise ConvergenceError(
        f"series with ratio ({a}+k)({b}+k)/(({c}+k)(1+k)) in w <= {w_max} "
        f"did not reach tol={tol} within {max_terms} terms",
        achieved=lead * bound / (1.0 - w_max),
    )


def _direct(plan: _Plan, z, tol: float, max_terms: int, probe):
    return _accumulate((0.0, 0.0, None), plan.direct, z, None, tol, max_terms, probe)[0]


def _connection(plan: _Plan, w, lnw, tol: float, max_terms: int, probe):
    """Connection-formula value at w = 1-z, and whether it passed the cancellation test."""
    total = mass = 0.0
    for coef in reversed(plan.poly):
        total = total * w + coef
        mass = mass * w + abs(coef)
    if plan.poly_power:
        scale = w**plan.poly_power
        total = total * scale
        mass = mass * scale
    state = (total, 0.0, mass)
    share = tol / max(1, len(plan.connection))
    for s in plan.connection:
        state = _accumulate(state, s, w, lnw, share, max_terms, probe)
    total, _, mass = state
    error = plan.rounding * mass
    return total, (error <= tol) | (error <= tol * abs(total))


def _canonical(a: float, b: float, c: float, tol: float) -> tuple[float, float, _Plan]:
    """Checked parameters with a <= b, so that F(a,b;.) and F(b,a;.) run identical arithmetic."""
    _check_inputs(a, b, c, tol)
    if b < a:
        a, b = b, a
    return a, b, _plan(a, b, c)


def hyp2f1(
    a: float,
    b: float,
    c: float,
    z: float,
    tol: float = DEFAULT_TOL,
    max_terms: int = MAX_TERMS,
) -> float:
    """Evaluate F(a,b;c;z) for z in [0,1) to absolute tolerance ``tol``."""
    a, b, plan = _canonical(a, b, c, tol)
    if not 0.0 <= z < 1.0:
        raise ValueError(f"argument z = {z} outside [0, 1)")
    if z == 0.0:
        return 1.0
    if z > 0.5 and plan.connect:
        w = 1.0 - z
        value, ok = _connection(plan, w, math.log(w), tol, max_terms, None)
        if ok:
            return max(value, 1.0) if a == b and c > 0.0 else value
    return _direct(plan, z, tol, max_terms, None)


def hyp2f1_grid(
    a: float,
    b: float,
    c: float,
    z: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_terms: int = MAX_TERMS,
) -> np.ndarray:
    """Vectorized evaluation over an array of arguments in [0,1).

    The same engine as :func:`hyp2f1`.  The array is split once at z = 1/2;
    each part is summed in blocks of ``_BLOCK`` points, each block until its
    largest argument meets the tail bound, and points that fail the
    cancellation test are summed by the direct series.
    """
    a, b, plan = _canonical(a, b, c, tol)
    z = np.asarray(z, dtype=float)
    out = np.ones_like(z)
    if not z.size:
        return out
    lo, hi = float(np.min(z)), float(np.max(z))
    if not (0.0 <= lo and hi < 1.0):
        raise ValueError(f"argument array has values outside [0, 1): min {lo}, max {hi}")
    upper = z > 0.5 if plan.connect else np.zeros(z.shape, dtype=bool)
    clip = a == b and c > 0.0
    for mask, near_one in ((upper, True), (~upper, False)):
        part = z[mask]
        values = np.empty_like(part)
        for i in range(0, part.size, _BLOCK):
            values[i:i + _BLOCK] = _block(plan, part[i:i + _BLOCK], tol, max_terms, near_one, clip)
        out[mask] = values
    return out


def _block(plan: _Plan, z: np.ndarray, tol: float, max_terms: int, near_one: bool,
           clip: bool) -> np.ndarray:
    if not near_one:
        return _direct(plan, z, tol, max_terms, int(np.argmax(z)))
    w = 1.0 - z
    value, ok = _connection(plan, w, np.log(w), tol, max_terms, int(np.argmax(w)))
    if clip:
        value = np.maximum(value, 1.0)
    if not ok.all():
        zf = z[~ok]
        value[~ok] = _direct(plan, zf, tol, max_terms, int(np.argmax(zf)))
    return value
