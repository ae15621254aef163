"""Gauss hypergeometric function F(a,b;c;z) on z in [0,1).

The kernels of the closed-form linear solver need F(gamma,gamma;1;zeta) and
F(gamma+1,gamma+1;2;zeta), zeta in [0,1) tending to 1 as t grows.
:func:`hyp2f1_grid` evaluates an array and :func:`hyp2f1` is it at one point;
each series summed is w^p sum_k c_k x_k w^k, c_{k+1} = c_k (a'+k)(b'+k) /
((c'+k)(1+k)), with x_k = 1, or x_k = ln(w) + h_k for a logarithmic series.

* z <= 1/2: the direct series, w = z, c_0 = 1, p = 0.
* z > 1/2: the z -> 1-z connection formula, in powers of w = 1-z < 1/2.
  With s = c-a-b not an integer this is A&S 15.3.6 (DLMF 15.8.4): two
  series, F(a,b;1-s;w) and w^s F(c-a,c-b;1+s;w).  With s = m an integer it
  is A&S 15.3.10 (m = 0), 15.3.11 (m > 0) or 15.3.12 (m < 0): |m| terms plus
  one series with the bracket ln(w) + psi(a'+k) + psi(b'+k) - psi(1+k) -
  psi(c'+k).  The kernels call (1/2,1/2;1), m = 0, (-1/2,-1/2;1), m = 2,
  and (1/2,1/2;2), m = 1.

The direct series also serves a terminating series (a or b a non-positive
integer) and every z where the connection formula fails its rounding test;
it needs about 1/(1-z) terms and raises ConvergenceError beyond its budget.

Truncation.  With S = a'+b'-c'-1 and N = a'b'-c', once a'+k, b'+k, c'+k > 0
every later ratio r_j has |r_j| <= rho_k = 1 + |S| max(1, k/(c'+k)) / (1+k)
+ |N| / ((c'+k)(1+k)), and the tail after term k is below |c_k| w^(k+p) B
q/(1-q), q = w rho_k < 1, B = 1 or, logarithmic, |ln w| + H with H >= |h_j|
by |psi(x+d) - psi(x)| <= |d| (1/y + 1/y^2), y = min(x, x+d) > 0.  This
bound grows with w (w^n times a factor growing in w, n > 0, or w^n
(|ln w| + H), n >= 2, w <= 1/2), so it meets the series' share of
DEFAULT_TOL up to some w_k, found once by bisection.  A point in [j, j+1)
2^-16 is summed to the first k with max(w_start, ..., w_k) >= (j+1) 2^-16,
found in a table of these maxima per term (no k serves z >= 1 - 2^-16 on a
direct series that does not terminate, which raises at once): its value
depends on the point alone.
Between calls a series keeps its coefficients and table up to _KEEP terms
past its start; a call that needs more computes them and drops them when it
ends.

Summation.  The c_k and c_k h_k are exact rational products and sums of the
parameters, kept in 256-bit integers and rounded once (then times the
scale).  Horner's rule sums them in pieces of M = 32 terms, each scaled by
w^(jM) and Kahan-added from the top; a logarithmic series adds ln(w) P to
Q, the polynomials of c_k and c_k h_k.  The points a formula serves in a
chunk of an array are sorted by cell, which sorts every term count, and
summed in blocks of them, so a Horner step is one multiply and one add on a
suffix of a block; blocks of close arguments end their sums early.

Cancellation.  Horner's rule errs by at most (2M-2) u times a piece's
sum|addend| (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
5.1; u = 2^-53); the pieces add 4u and the coefficients u: (2M+3) u |F| for
a direct series with one-signed c_k.  A connection-formula series adds its
split bracket, Gamma scale and power, 21 ulps: ``CANCELLATION_ULPS`` = 2M+24
ulps of sum |c_k| (|ln w| + |h_k|) w^k <= (|ln w| + H) |P|.  Where a point's
c_k change sign, Higham's running bound mu = sum |s_i| w^i over the Horner
partial sums s_i serves instead: Horner and the pieces err by 6u mu, and
sum|addend| <= 2 mu - |P| carries the rest, 8u mu for a direct series.
Each rounded Gamma or digamma argument (c-a-b, c-a, 1-(c-a-b), a+m, ...)
adds |x - fl(x)| |psi(fl(x))| (x - fl(x) by math.fsum) to the connection
formula's bound.  A value is returned only where its bound is within
DEFAULT_TOL * max(1, |F|): elsewhere the connection formula falls back to
the direct series (so for c-a-b near an integer, where the terms of 15.3.6
carry opposite poles of size |F| / dist(c-a-b, Z)), which raises
:class:`ConvergenceError` with the bound in ``achieved``.  F(a,a;c;z) >= 1
for c > 0, and a connection-formula value of it is clipped to 1 from below.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy import special

__all__ = ["ConvergenceError", "hyp2f1", "hyp2f1_grid"]

DEFAULT_TOL = 1e-13
MAX_TERMS = 10**6

_U = 2.0**-53
_PIECE = 32  # terms per Horner piece (module docstring, "Summation")
#: Rounding-error bound of a connection-formula series whose c_k keep one sign, with exact
#: arguments, in units of u * sum|addend| (module docstring, "Cancellation").
CANCELLATION_ULPS = 2.0 * _PIECE + 24.0
_DIRECT = (2.0 * _PIECE + 3.0) * _U  # the same for the direct series, absolute
_BITS = 256  # bits kept by the exact coefficient recurrences
_CELLS = 1 << 16  # cells per unit of w in which term counts are read
_KEEP = 256  # terms past start whose coefficients and tail-test maxima a series keeps between calls
_CHUNK = 65536  # points per chunk in hyp2f1_grid, split at z = 1/2 and sorted by cell
_BLOCK = 8192  # sorted points per Horner sum: the arrays then stay in cache


class ConvergenceError(RuntimeError):
    """Series did not meet DEFAULT_TOL within MAX_TERMS terms."""

    def __init__(self, message: str, achieved: float):
        super().__init__(message)
        self.achieved = achieved


def _canonical(a: float, b: float, c: float) -> tuple[float, float, _Plan]:
    """Checked parameters with a <= b, so that F(a,b;.) and F(b,a;.) run identical arithmetic."""
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
        for name, value in (("a", a), ("b", b), ("c", c)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
    if c <= 0 and c == math.floor(c):
        raise ValueError(f"series pole: c = {c} is zero or a negative integer")
    return (a, b, _plan(a, b, c)) if a <= b else (b, a, _plan(b, a, c))


def _digamma(x: float) -> float:
    """psi(x), x not a non-positive integer, by psi(x) = psi(x+1) - 1/x and the asymptotic series.

    Shifting up to x >= 10 keeps full relative accuracy next to the poles, where a reflection
    formula loses it; the first omitted asymptotic term is below 5e-17 there.
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


class _Series:
    """One series of the engine, w^power sum_k c_k x_k w^k with ratio parameters a, b, c, at w <= cap.

    The tail test holds from ``start`` on (a terminating series ends there, at its first zero
    coefficient) and meets ``tol``, the series' share of DEFAULT_TOL; ``rounding`` bounds its
    rounding error per unit of sum|addend| (module docstring, "Cancellation").  The coefficients
    ``ck`` and ``chk`` (c_k h_k) and the ``table`` of :func:`_table` fill on demand, and
    :meth:`trim` cuts them back to ``_KEEP`` terms past start.
    """

    def __init__(self, a: float, b: float, c: float, scale: float = 1.0, power: float = 0.0,
                 log: bool = False, cap: float = 1.0):
        self.a, self.b, self.c, self.scale, self.power, self.log = a, b, c, float(scale), power, log
        start = int(max(0.0, -a, -b, -c)) + 1  # first k with a+k, b+k, c+k > 0
        zeros = [1 - int(x) for x in (a, b) if x <= 0 and x == math.floor(x)]
        self.start, self.ends, self.cap, self.rounding = min([start, *zeros]), bool(zeros), cap, _DIRECT
        self.tol, self.table = DEFAULT_TOL, np.array([_CELLS] if zeros else [], dtype=np.int64)
        self.h0 = self.h_bound = 0.0  # h_0, and a bound on |h_k| for every k > start
        if log:  # |psi(x+d) - psi(x)| <= |d| (1/y + 1/y^2), y = min(x, x+d) > 0
            self.h0 = _digamma(a) + _digamma(b) - _digamma(1.0) - _digamma(c)
            for x, d in ((start + 2.0, a - 1.0), (c + (start + 1), b - c)):
                self.h_bound += abs(d) * (1.0 / min(x, x + d) + 1.0 / min(x, x + d) ** 2)
        self.ck, self.chk, self.H = [], [], self.h_bound  # H: with every |h_k|, k <= start
        self.split, self.exact = math.inf, (1, 0, 0)  # the first k where c_k changes sign; see extend

    def extend(self, n: int) -> _Series:
        """Fill c_k and c_k h_k up to k = n, each rounded once from prod r_j = m 2^e and the psi steps
        h_k - h_0 = h 2^-_BITS, carried to 2^-250 a step; ``split`` is the first k where c_k changes sign.
        """
        if len(self.ck) > n:
            return self
        (an, ad), (bn, bd), (cn, cd) = (x.as_integer_ratio() for x in (self.a, self.b, self.c))
        m, e, h = self.exact
        for k in range(len(self.ck), n + 1):
            if k == self.start + _KEEP:
                self.kept = m, e, h
            self.ck.append(self.scale * (math.ldexp(m, e) if e + m.bit_length() < 1024 else math.inf * m))
            if self.ck[-1] * self.ck[0] < 0.0:
                self.split = min(self.split, k)
            if self.log:
                hk = self.h0 + h / (1 << _BITS)
                self.chk.append(self.ck[-1] * hk)
                self.H = max(self.H, abs(hk)) if k <= self.start else self.H
            num, den = m * (an + k * ad) * (bn + k * bd) * cd, (cn + k * cd) * (k + 1) * ad * bd
            shift = _BITS + den.bit_length() - num.bit_length() if num else 0
            m, e = (num << shift) // den if shift >= 0 else (num >> -shift) // den, e - shift
            if self.log:
                h += ((ad << _BITS) // (an + k * ad) + (bd << _BITS) // (bn + k * bd)
                      - (1 << _BITS) // (k + 1) - (cd << _BITS) // (cn + k * cd))
        self.exact = (m, e, h)
        return self

    def trim(self) -> None:
        """Drop the coefficients and tail-test maxima past ``_KEEP`` terms from start."""
        keep = self.start + _KEEP
        if len(self.ck) > keep:
            del self.ck[keep:], self.chk[keep:]
            self.exact, self.split = self.kept, self.split if self.split < keep else math.inf
        if self.table.size > _KEEP:
            self.table = self.table[:_KEEP].copy()


def _table(s: _Series, j_top: int) -> np.ndarray:
    """s.table, F_k = floor(_CELLS max(w_start, ..., w_k)) over the bisected w_k, k = start, ...,
    extended until F_k > j_top or k = MAX_TERMS.  A w_k depends on k alone, so extending F is safe."""
    F = s.table
    while not (F.size and F[-1] > j_top) and s.start + F.size <= MAX_TERMS:
        k = np.arange(s.start + F.size, min(s.start + 2 * F.size + 32, MAX_TERMS + 1))
        lead = np.abs(s.extend(int(k[-1])).ck[k[0]:k[-1] + 1])
        slope, const, ck = abs(s.a + s.b - s.c - 1.0), abs(s.a * s.b - s.c), s.c + k
        rho = 1.0 + slope * np.maximum(1.0, k / ck) / (1.0 + k) + const / (ck * (1.0 + k))

        def passes(w):  # the tail test of term k at w
            tail = lead * w ** (k + s.power) * (w * (s.h_bound - np.log(w)) if s.log else w)
            return tail * rho <= s.tol * (1.0 - w * rho)
        lo, hi = np.zeros(k.size), np.full(k.size, s.cap)
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            ok = passes(mid)
            lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
        w_k = np.where(passes(np.full(k.size, s.cap)), s.cap, lo)
        F = np.maximum.accumulate(np.concatenate((F, np.floor(w_k * _CELLS).astype(np.int64))))
    s.table = F
    return F


def _covered(s: _Series, w: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """The table F of s covering the points w, whose cells ``cells`` never fall: a point in cell j
    is summed to term start + #{k: F_k <= j}, the first k with max(w_start, ..., w_k) >= (j+1) / _CELLS."""
    j_top = int(cells[-1])
    if j_top == _CELLS - 1 and not s.ends:  # the tail test fails at w = 1 for every k
        n_top = math.inf
    else:
        F = _table(s, j_top)
        n_top = s.start + int(F.searchsorted(j_top, "right"))
    if n_top > MAX_TERMS:  # report the tail after the last term computed within the budget
        k, w_top = min(max(len(s.ck) - 1, 0), MAX_TERMS), float(w.max())
        lead = abs(s.extend(k).ck[k]) * w_top ** (k + s.power)
        bound = w_top * (abs(math.log(w_top)) + s.h_bound) if s.log else w_top
        raise ConvergenceError(f"series with ratio ({s.a}+k)({s.b}+k)/(({s.c}+k)(1+k)) in w <= {w_top} did "
                               f"not reach tol={s.tol} within {MAX_TERMS} terms", lead * bound / (1.0 - w_top))
    return F


def _piece(s: _Series, k: int, w, lnw, p, q, rp=None, rq=None):
    """A piece's value, sum |c_j| w^j (logarithmic) and running bound, each times w^k."""
    value, mass = (lnw * p + q, abs(p)) if s.log else (p, 0.0)
    run = 0.0 if rp is None else rp * -lnw + rq if s.log else rp
    if k:
        f = np.power(w, k)
        value, mass, run = value * f, mass * f, run * f
    return value, mass, run


def _finish(s: _Series, w, lnw, total, mass, mu, signed: bool):
    """(value, rounding bound where the c_k keep one sign, where they do not) from the piece sums:
    sum|addend| is <= (|ln w| + H) sum |P_j| w^j (logarithmic) or = |value|, or <= 2 mu - m."""
    if s.power:
        f = w if s.power == 1 else np.power(w, s.power)
        total, mass, mu = total * f, mass * f, mu * f if signed else mu
    run = (6.0 * _U * mu + (s.rounding - (2.0 * _PIECE + 2.0) * _U)  # m = |ln w| sum |P_j| w^j, or |P|
           * (2.0 * mu - (mass * -lnw if s.log else abs(total)))) if signed else None
    return total, s.rounding * (mass * (s.H - lnw) if s.log else abs(total)), run


def _sum_grid(s: _Series, w: np.ndarray, lnw, cells: np.ndarray, F: np.ndarray):
    """(value, rounding bound) of s at the points w, whose cells never fall, to the counts of table F.

    Step k updates the suffix first[k]: (the points with n >= k) by Horner's rule: rows P, Q of ``acc``,
    and their running bounds from sp on (signed c_k); every M-th step closes a piece.
    """
    top, size = s.start + int(F.searchsorted(cells[-1], "right")), w.size
    c, ch, log = s.extend(top).ck, s.chk, s.log
    first = [0] * (s.start + 1) + cells.searchsorted(F[:top - s.start + _PIECE]).tolist()  # F_(k-start-1) <= j
    first += [size] * (top + _PIECE + 1 - len(first))
    sp = first[min(s.split, top + 1)]
    acc = np.zeros((4 if sp < size else 2, size))
    p, q, total = acc[0], acc[1], None
    for k in range(top, -1, -1):
        i = first[k]
        v, wi = p[i:], w[i:]
        v *= wi
        v += c[k]
        if log:
            v = q[i:]
            v *= wi
            v += ch[k]
        if sp < size and (j := max(i, sp)) < size:
            v = acc[2:, j:]
            v *= w[j:]
            v += np.abs(acc[:2, j:])
        if k % _PIECE:
            continue
        value, m, r = _piece(s, k, w[i:], None if lnw is None else lnw[i:], p[i:], q[i:], *acc[2:, i:])
        if total is None and not k:  # one piece for every point
            total, mass, mu = value, m, r
            break
        if total is None:
            total, comp, mass, mu = np.zeros((4, size))
        h = first[k + _PIECE]  # points below h hold no higher piece
        total[i:h] = value[:h - i]
        y = value[h - i:] - comp[h:]
        t = total[h:] + y
        total[h:], comp[h:] = t, (t - total[h:]) - y
        mass[i:] += m
        mu[i:] += r
        acc[:, i:] = 0.0
    total, bound, run = _finish(s, w, lnw, total, mass, mu, sp < size)
    if sp < size:
        bound[sp:] = run[sp:]
    return total, bound


class _Plan(NamedTuple):
    """How F(a,b;c;.) is evaluated: the direct series, and (if ``connect``) the connection formula
    w**poly_power * sum_n poly[n] w^n plus the listed series, whose ``rounding`` is per sum|addend|."""

    direct: _Series
    connect: bool = False
    poly: tuple[float, ...] = ()
    poly_power: float = 0.0
    connection: tuple[_Series, ...] = ()
    rounding: float = 0.0


def _argument_error(*arguments: tuple[float, ...]) -> float:
    """sum |x - fl(x)| |psi(fl(x))| over rounded Gamma/digamma arguments (fl(x), *terms), x the
    exact sum of the terms; math.fsum returns the residual x - fl(x) correctly rounded."""
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
    direct = _Series(a, b, c)
    if any(x <= 0 and x == math.floor(x) for x in (a, b)):
        return _Plan(direct)  # terminating series
    s = c - a - b
    gc = special.gamma(c)
    if s != math.floor(s):  # A&S 15.3.6
        scales = (gc * special.gamma(s) * special.rgamma(c - a) * special.rgamma(c - b),
                  gc * special.gamma(-s) * special.rgamma(a) * special.rgamma(b))
        series = (_Series(a, b, 1.0 - s, scales[0], cap=0.5),
                  _Series(c - b, c - a, 1.0 + s, scales[1], s, cap=0.5))
        poly, poly_power = (), 0
        arguments = ((s, c, -a, -b), (-s, -c, a, b), (1.0 - s, 1.0, -c, a, b),
                     (1.0 + s, 1.0, c, -a, -b), (c - a, c, -a), (c - b, c, -b))
    else:  # A&S 15.3.10 (m = 0), 15.3.11 (m > 0), 15.3.12 (m < 0)
        m, j = int(s), abs(int(s))
        a1, b1 = a + max(m, 0), b + max(m, 0)  # series parameters a', b'; c' = j + 1
        scale = -((-1.0) ** j) * gc * special.rgamma(a1 - j) * special.rgamma(b1 - j) / math.factorial(j)
        series = (_Series(a1, b1, j + 1.0, scale, max(m, 0), log=True, cap=0.5),)
        lead = special.gamma(j) * gc * special.rgamma(a1) * special.rgamma(b1) if j else 0.0
        poly = tuple(float(lead * special.poch(a1 - j, n) * special.poch(b1 - j, n)
                           / (math.factorial(n) * special.poch(1.0 - j, n))) for n in range(j))
        poly_power = min(m, 0)
        arguments = ((a1, a, max(m, 0)), (b1, b, max(m, 0)), (a1 - j, a, max(m, 0) - j),
                     (b1 - j, b, max(m, 0) - j))
    rounding = CANCELLATION_ULPS * _U + _argument_error(*arguments)
    if not all(math.isfinite(x) for x in [rounding, *poly, *(v for sr in series for v in (sr.scale, sr.h0))]):
        return _Plan(direct)  # Gamma overflow or a pole: the direct series serves every z
    series = tuple(sr for sr in series if sr.scale != 0.0)
    for sr in series:
        sr.rounding, sr.tol = rounding, DEFAULT_TOL / len(series)
    return _Plan(direct, True, poly, poly_power, series, rounding)


def _sorted(plan: _Plan, x: np.ndarray, connect: bool) -> tuple:
    """(order, x[order], their cells, each series' table covering them): x at w for the connection
    formula, else at z, sorted by cell, which sorts every term count."""
    cells = (x * _CELLS).astype(np.uint16)
    order = cells.argsort(kind="stable")  # a radix sort
    x, cells = x[order], cells[order]
    series = plan.connection if connect else (plan.direct,)
    return order, x, cells, [_covered(s, x, cells) for s in series]


def _formula(plan: _Plan, x: np.ndarray, lnw, cells: np.ndarray, tables: list, connect: bool):
    """(value, rounding bound) at the points x sorted by their cells."""
    series = plan.connection if connect else (plan.direct,)
    parts = [_sum_grid(s, x, lnw, cells, F) for s, F in zip(series, tables)]
    if connect and plan.poly:
        total, mass = plan.poly[-1], abs(plan.poly[-1])
        for coef in reversed(plan.poly[:-1]):
            total, mass = total * x + coef, mass * x + abs(coef)
        if plan.poly_power:
            scale = np.power(x, plan.poly_power)
            total, mass = total * scale, mass * scale
        parts.insert(0, (total, plan.rounding * mass))
    value, bound = parts[0]
    for v, e in parts[1:]:
        value, bound = value + v, bound + e
    return value, bound


def _cancelled(plan: _Plan, bound: float) -> ConvergenceError:
    return ConvergenceError(f"direct series of F({plan.direct.a}, {plan.direct.b}; {plan.direct.c}; z) "
                            f"loses up to {bound:.3g} to cancellation, above tol={DEFAULT_TOL} * max(1, |F|)",
                            bound)


def _evaluate(plan: _Plan, x: np.ndarray, connect: bool):
    """(value, bad) at x (w for the connection formula, else z), summed in blocks of sorted points:
    bad marks where the connection formula fails its rounding test; the direct series raises there."""
    order, xs, cells, tables = _sorted(plan, x, connect)
    out, fails = np.empty(x.size), np.empty(x.size, dtype=bool)
    for i in range(0, x.size, _BLOCK):
        block, xb = slice(i, i + _BLOCK), xs[i:i + _BLOCK]
        value, bound = _formula(plan, xb, np.log(xb) if connect else None, cells[block], tables, connect)
        bad = bound > DEFAULT_TOL  # then bound > DEFAULT_TOL * max(1, |F|) where also > DEFAULT_TOL * |F|
        if bad.any() and (bad := bad & (bound > DEFAULT_TOL * np.abs(value))).any() and not connect:
            raise _cancelled(plan, float(bound[bad].max()))
        out[order[block]], fails[order[block]] = value, bad
    return out, fails


def _chunk(plan: _Plan, z: np.ndarray, clip: bool, out: np.ndarray) -> None:
    """Write the values at one chunk of points to out, clipped to 1 from below on the connection
    formula where ``clip`` (F(a,a;c;z) >= 1 for c > 0)."""
    direct = slice(None)
    if plan.connect and (upper := z > 0.5).any():
        value, bad = _evaluate(plan, 1.0 - z[upper], True)
        out[upper] = np.maximum(value, 1.0, out=value) if clip else value
        upper[upper] = ~bad  # the points the connection formula served
        direct = np.logical_not(upper, out=upper)
    if (x := z[direct]).size:
        out[direct] = _evaluate(plan, x, False)[0]


def hyp2f1(a: float, b: float, c: float, z: float) -> float:
    """Evaluate F(a,b;c;z) for z in [0,1) to DEFAULT_TOL * max(1, |F|): :func:`hyp2f1_grid` at z."""
    _canonical(a, b, c)
    if not 0.0 <= z < 1.0:
        raise ValueError(f"argument z = {z} outside [0, 1)")
    if z == 0.0:
        return 1.0
    return float(hyp2f1_grid(a, b, c, np.array([z], dtype=float))[0])


def hyp2f1_grid(a: float, b: float, c: float, z: np.ndarray) -> np.ndarray:
    """Vectorized evaluation over an array of arguments in [0,1).

    The array is taken in chunks of ``_CHUNK`` points.  In a chunk, the points above 1/2 take the
    connection formula where it passes its rounding test, and the rest, or every point where the
    plan has no connection formula, take the direct series; each of the two groups is sorted by cell
    and summed in blocks of ``_BLOCK`` points.
    """
    a, b, plan = _canonical(a, b, c)
    z = np.asarray(z, dtype=float)
    out = np.empty(z.shape)
    if not z.size:
        return out
    lo, hi = float(z.min()), float(z.max())
    if not (0.0 <= lo and hi < 1.0):
        raise ValueError(f"argument array has values outside [0, 1): min {lo}, max {hi}")
    zf, flat, clip = z.ravel(), out.reshape(-1), a == b and c > 0.0
    try:
        for i in range(0, zf.size, _CHUNK):
            _chunk(plan, zf[i:i + _CHUNK], clip, flat[i:i + _CHUNK])
        return out
    finally:
        for s in (plan.direct, *plan.connection):
            s.trim()
