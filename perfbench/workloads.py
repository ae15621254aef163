"""The three workloads of the siwave benchmark: seeded inputs, one pass, checks.

Every workload drives siwave's public API on one thread as a closed loop
with one client: the next operation starts when the previous one returns.
A pass is one complete answer of the workload; ``run_pass`` returns it and
``check`` turns it into one verdict per operation (None when correct).
Inputs come only from the seed; seed 0 is the canonical, unjittered input
set whose lifespans are recorded in ``reference.json``.

The workloads look siwave functions up as module attributes at call time,
so the tracer's wrappers (tracer.py) see every call.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import scipy.special
from scipy.integrate import quad

from siwave import comparison, experiments, fd, iteration, kernels, linear, profiles
from siwave.grids import GridSpec
from siwave.params import ScaleInvariantParams, SystemParams

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
REFERENCE = json.loads((HERE / "reference.json").read_text())

#: The criterion-9 amplitude grid 0.5 * 10^(-k/4) and data amplitude.
CRITERION9_EPS = tuple(0.5 * 10.0 ** (-k / 4.0) for k in range(7))
AMPLITUDE = 8.0

# Untimed reference routes take these functions before any tracer wraps
# the module attributes.
_solve_linear_fd = fd.solve_linear_fd
_light_cone_sample = kernels.light_cone_sample


def _jitter(rng: np.random.Generator | None, value: float, rel: float) -> float:
    return value if rng is None else value * (1.0 + rng.uniform(-rel, rel))


def _rng(seed: int) -> np.random.Generator | None:
    return None if seed == 0 else np.random.default_rng(seed)


class OpClock:
    """Times the operations of one pass."""

    def __init__(self, tracer=None):
        self.times: list[float] = []
        self.errors: dict[int, str] = {}
        self.tracer = tracer

    def call(self, fn, *args, **kwargs):
        """Run one operation; a raised exception fails that operation only."""
        index = len(self.times)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # the benchmark keeps running and reports it
            self.errors[index] = f"{type(exc).__name__}: {exc}"
            return None
        finally:
            self.times.append(time.perf_counter() - t0)

    @contextmanager
    def hook(self, module, name: str):
        """Time each call of module.name made inside the program as one op."""
        inner = getattr(module, name)
        times = self.times

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                times.append(time.perf_counter() - t0)

        setattr(module, name, timed)
        try:
            yield
        finally:
            setattr(module, name, inner)

    def profile(self, prof):
        return prof if self.tracer is None else self.tracer.profile(prof)

    def source(self, src):
        return src if self.tracer is None else self.tracer.source(src)


def _csv_path(name: str) -> str:
    OUT_DIR.mkdir(exist_ok=True)
    return str(OUT_DIR / f"{name}.csv")


def _lifespan_verdicts(records, eps_grid, t_max, reference, dt) -> list[str | None]:
    """Blow-up before t_max, Richardson pair within RICHARDSON_RTOL, T_est
    non-increasing as eps grows, and (seed 0) T_est within one coarse step
    of the reference."""
    verdicts: list[str | None] = []
    for i, (rec, eps) in enumerate(zip(records, eps_grid)):
        problems = []
        if rec.eps != eps:
            problems.append(f"record eps {rec.eps} != input {eps}")
        if not (rec.blow_up and rec.T_est < t_max):
            problems.append(f"no blow-up before t_max (T_est={rec.T_est})")
        coarse, fine = rec.richardson_pair
        if not (rec.converged and abs(coarse - fine) <= fd.RICHARDSON_RTOL * fine):
            problems.append(f"Richardson pair {rec.richardson_pair} not converged")
        if i and rec.T_est < records[i - 1].T_est:
            problems.append(f"T_est {rec.T_est} < {records[i - 1].T_est} at larger eps")
        if reference is not None and abs(rec.T_est - reference[i]) > dt * (1 + 1e-9):
            problems.append(f"T_est {rec.T_est} != reference {reference[i]}")
        verdicts.append("; ".join(problems) or None)
    if len(records) != len(eps_grid):
        verdicts += ["missing record"] * (len(eps_grid) - len(records))
    return verdicts


class SingleSweep:
    """Criterion-9 physics through run_sweep on the fixed wide domain."""

    name = "single_sweep"
    entries = ("experiments.run_sweep",)

    def __init__(self, seed: int):
        rng = _rng(seed)
        self.eps = tuple(_jitter(rng, e, 0.02) for e in CRITERION9_EPS[:3])
        self.reference = REFERENCE[self.name]["T_est"] if seed == 0 else None
        self.config = experiments.SweepConfig(
            model="single", mu=2.0, nu2=0.0, p=1.5, eps_grid=self.eps,
            grid=GridSpec(dx=1.0 / 100, cfl=1.0, x_max=93.5, t_max=92.0),
            R=1.0, amplitude=AMPLITUDE, threshold=1e8, refine=True,
            output_path=_csv_path(self.name),
        )
        self.n_ops = len(self.eps)

    def run_pass(self, ops: OpClock):
        with ops.hook(experiments, "detect_lifespan"):
            return experiments.run_sweep(self.config)

    def check(self, result) -> list[str | None]:
        cfg = self.config
        return _lifespan_verdicts(
            result.records, cfg.eps_grid, cfg.grid.t_max, self.reference, cfg.grid.dt
        )


class SystemSweep:
    """Coupled sweep, p != q in the algebraic regime, on a domain tight to t_max."""

    name = "system_sweep"
    entries = (
        "experiments.run_sweep", "iteration.subcritical_sequences",
        "iteration.divergence_threshold",
    )

    def __init__(self, seed: int):
        rng = _rng(seed)
        base = (0.25, 0.25 / math.sqrt(2.0), 0.125)
        self.eps = tuple(_jitter(rng, e, 0.02) for e in base)
        self.reference = REFERENCE[self.name]["T_est"] if seed == 0 else None
        t_max = 24.0
        self.config = experiments.SweepConfig(
            model="system", mu=2.0, nu2=0.0, mu2=2.0, nu22=0.0, p=1.5, q=2.0,
            eps_grid=self.eps, grid=GridSpec(dx=1.0 / 100, cfl=1.0, x_max=1.0 + t_max, t_max=t_max),
            R=1.0, amplitude=AMPLITUDE, threshold=1e8, refine=True,
            output_path=_csv_path(self.name),
        )
        sys_ = self.config.system_params()
        # lambda1 < lambda2 for (p, q) = (1.5, 2): the subcritical induction
        # runs on the dominant branch, i.e. with the components relabelled
        self.induction = SystemParams(comp1=sys_.comp2, comp2=sys_.comp1, p=sys_.q, q=sys_.p)
        self.n_ops = len(self.eps)

    def run_pass(self, ops: OpClock):
        with ops.hook(experiments, "detect_lifespan_system"):
            result = experiments.run_sweep(self.config)
        verdicts = []
        for i, rec in enumerate(result.records):
            t0 = time.perf_counter()
            seq = iteration.subcritical_sequences(1, self.induction, M=1.0, eps=rec.eps, jmax=20)
            verdicts.append((seq, iteration.divergence_threshold(seq, z=rec.T_est - 1.0, R=1.0)))
            ops.times[i] += time.perf_counter() - t0
        return result, verdicts

    def check(self, answer) -> list[str | None]:
        result, sequences = answer
        cfg = self.config
        verdicts = _lifespan_verdicts(
            result.records, cfg.eps_grid, cfg.grid.t_max, self.reference, cfg.grid.dt
        )
        if result.prediction.regime != "algebraic" or result.prediction.rate != 2.0:
            verdicts = [v or f"prediction {result.prediction}" for v in verdicts]
        for i, (seq, verdict) in enumerate(sequences):
            problems = []
            if not np.allclose(seq.alphas, seq.alphas_closed, rtol=1e-12):
                problems.append("alpha recursion != closed form")
            if not (verdict.regime == "subcritical" and verdict.domain_ok
                    and math.isfinite(verdict.log_threshold)):
                problems.append(f"divergence verdict {verdict}")
            if i and not verdict.log_threshold > sequences[i - 1][1].log_threshold:
                problems.append("divergence threshold not increasing as eps shrinks")
            if problems:
                verdicts[i] = "; ".join(filter(None, [verdicts[i]] + problems))
        return verdicts


BUNDLES = ((0.0, 0.0), (2.0, 0.0), (3.0, 0.0), (1.0, 0.0), (5.0, 4.0))


def _oracle_minima(params: ScaleInvariantParams, t, b, w) -> tuple[float, float, float | None]:
    """The weighted kernel minima of verify_kernel_lower_bounds, with the
    hypergeometric factors from scipy.special.hyp2f1."""
    mu, gamma, sig = params.mu, params.gamma, params.sigma
    e_t = -0.5 * mu + gamma + 0.5 * sig
    den0 = ((t + 2.0) + w) * ((t + 2.0) - w)
    zeta0 = np.maximum(0.0, (t + w) * (t - w) / den0)
    f1 = scipy.special.hyp2f1(gamma, gamma, 1.0, zeta0)
    c_k1 = float(np.min((1.0 + t) ** e_t * den0**-gamma * f1))
    den = ((t + b + 2.0) + w) * ((t + b + 2.0) - w)
    zeta = np.maximum(0.0, ((t - b) + w) * ((t - b) - w) / den)
    e_w = (1.0 + t) ** e_t * (1.0 + b) ** (0.5 * mu + gamma - 0.5 * sig) * den**-gamma
    c_e = float(np.min(e_w * scipy.special.hyp2f1(gamma, gamma, 1.0, zeta)))
    if params.delta < 1.0:
        return c_k1, c_e, None
    f2 = scipy.special.hyp2f1(gamma + 1.0, gamma + 1.0, 2.0, zeta0)
    combo = (
        (0.5 * mu - gamma) * f1
        + 2.0 * gamma * (t + 2.0) / den0 * f1
        - 4.0 * gamma**2 * (1.0 + t) * (w * w - t * (t + 2.0)) / (den0 * den0) * f2
    )
    return c_k1, c_e, float(np.min((1.0 + t) ** e_t * den0**-gamma * combo))


def _close(value, oracle, rtol=1e-9) -> bool:
    if oracle is None or value is None:
        return oracle is value
    return abs(value - oracle) <= rtol * max(1.0, abs(oracle))


class FrameCheck:
    """Kernel bounds -> empirical frame -> comparison blow-up, per bundle."""

    entries = (
        "kernels.light_cone_sample", "kernels.verify_kernel_lower_bounds",
        "comparison.empirical_frame", "comparison.comparison_blowup_z",
        "comparison.comparison_blowup_log", "fd.detect_lifespan",
        "fd.solve_semilinear_field", "comparison.reduce_solution",
        "comparison.verify_fundamental_inequality", "profiles.bump_profile",
    )

    def __init__(self, seed: int):
        rng = _rng(seed)
        self.sample_args = dict(
            t_max=80.0, n_t=50, n_b=50, n_y=50,
            t_min=0.0 if rng is None else float(rng.uniform(0.0, 0.5)),
        )
        self.params = [ScaleInvariantParams(mu, nu2) for mu, nu2 in BUNDLES]
        self.comparison_eps = tuple(_jitter(rng, e, 0.02) for e in CRITERION9_EPS)
        self.chain_eps = _jitter(rng, CRITERION9_EPS[0], 0.02)
        bump_mass = quad(lambda x: math.exp(-1.0 / (1.0 - x * x)), -1.0, 1.0)[0]
        self.data_l1 = 2.0 * AMPLITUDE * bump_mass
        # the sample, one op per bundle, and the criterion-10 chain on (2, 0)
        self.n_ops = 2 + len(BUNDLES)
        self._oracle: dict[int, tuple] = {}

    def _bundle(self, params, sample):
        bounds = kernels.verify_kernel_lower_bounds(params, sample)
        frame = comparison.empirical_frame(params, 1.5, 1.0, bounds, self.data_l1)
        z = [comparison.comparison_blowup_z(frame, e) for e in self.comparison_eps]
        logs = [comparison.comparison_blowup_log(frame, e) for e in self.comparison_eps]
        return bounds, frame, z, logs

    def _chain(self, params, frame):
        """Criterion-10 route: lifespan probe, stored field, trace, inequality."""
        prof = profiles.bump_profile(R=1.0, eps=self.chain_eps, amplitude=AMPLITUDE)
        probe = fd.detect_lifespan(
            params, prof, 1.5, GridSpec(dx=1.0 / 200, cfl=1.0, x_max=8.0, t_max=6.9),
            threshold=1e8,
        )
        t_run = 0.9 * probe.T_est
        grid = GridSpec(dx=1.0 / 200, cfl=1.0, x_max=1.0 + t_run + 0.1, t_max=t_run)
        field, _ = fd.solve_semilinear_field(params, prof, 1.5, grid, store_every=2)
        trace = comparison.reduce_solution(field, params, R=1.0)
        return comparison.verify_fundamental_inequality(trace, frame, self.chain_eps)

    def run_pass(self, ops: OpClock):
        sample = ops.call(kernels.light_cone_sample, **self.sample_args)
        bundles = [ops.call(self._bundle, params, sample) for params in self.params]
        mu2 = BUNDLES.index((2.0, 0.0))
        frame = bundles[mu2][1] if bundles[mu2] else None
        chain = ops.call(self._chain, self.params[mu2], frame)
        return len(sample) if sample else 0, bundles, chain

    def _oracle_for(self, i: int):
        if not self._oracle:
            pts = _light_cone_sample(**self.sample_args)
            t = np.array([pt.t for pt in pts])
            b = np.array([pt.b for pt in pts])
            w = np.array([pt.y - pt.x for pt in pts])
            for j, params in enumerate(self.params):
                self._oracle[j] = _oracle_minima(params, t, b, w)
        return self._oracle[i]

    def check(self, answer) -> list[str | None]:
        n_points, bundles, chain = answer
        expected = self.sample_args["n_t"] * self.sample_args["n_b"] * self.sample_args["n_y"]
        verdicts = [None if n_points == expected else f"sample has {n_points} points"]
        for i, (params, out) in enumerate(zip(self.params, bundles)):
            if out is None:
                verdicts.append("bundle not run")
                continue
            bounds, frame, z, logs = out
            problems = []
            oracle = self._oracle_for(i)
            for label, got, want in zip(("c_K1", "c_E", "c_mix"), (bounds.c_K1, bounds.c_E, bounds.c_mix), oracle):
                if not _close(got, want):
                    problems.append(f"{label}={got!r} vs scipy {want!r}")
            if params.mu == 2.0 and params.nu2 == 0.0 and not (bounds.c_K1 == 1.0 and bounds.c_E == 1.0):
                problems.append(f"mu=2 minima not exactly 1: {bounds.c_K1!r}, {bounds.c_E!r}")
            for zi, li in zip(z, logs):
                if math.isfinite(zi) and not math.isclose(math.log(frame.R + zi), li, rel_tol=1e-9):
                    problems.append(f"blow-up point {zi} disagrees with its log form {li}")
            if any(b_ < a_ for a_, b_ in zip(z, z[1:])):
                problems.append("comparison blow-up point not non-increasing in eps")
            verdicts.append("; ".join(problems) or None)
        if chain is None or not chain.holds:
            margin = None if chain is None else chain.min_margin
            verdicts.append(f"fundamental inequality fails: min margin {margin}")
        else:
            verdicts.append(None)
        return verdicts


class LinearSolve:
    """Representation formula at mu=3 (c-a-b integer) with a compact source:
    three probe points with t up to 20 and one small field, at one stated
    quadrature tolerance."""

    entries = ("linear.solve_linear_point", "linear.solve_linear_field")

    #: Time strata of the probe points and the x fraction of each point.
    T_STRATA = (2.0, 8.0, 19.0)
    X_FRACTIONS = (0.5, 0.6, 0.2)
    NODE = 0.05  # probe points sit on this grid, shared by the FD check
    QTOL = 1e-7

    def __init__(self, seed: int):
        rng = _rng(seed)
        self.params = ScaleInvariantParams(3.0, 0.0)
        self.data = profiles.bump_profile(R=1.0, eps=0.5, amplitude=1.0)
        space, time_ = profiles.smooth_bump(1.0), profiles.smooth_bump(0.5)
        self.src = profiles.SourceTerm(
            f=lambda t, x: space(x) * time_(t - 0.5), support=(0.0, 1.0, -1.0, 1.0)
        )
        h = self.NODE
        self.points = []
        for t, frac in zip(self.T_STRATA, self.X_FRACTIONS):
            t = h * round(_jitter(rng, t, 0.02) / h)
            frac = frac if rng is None else frac + rng.uniform(-0.05, 0.05)
            self.points.append((t, h * round(frac * t / h)))
        self.field_grid = GridSpec(dx=0.1, cfl=1.0, x_max=1.2, t_max=0.2)
        self.n_ops = len(self.points) + 1
        self._fd = None

    def run_pass(self, ops: OpClock):
        data, src = ops.profile(self.data), ops.source(self.src)
        values = [
            ops.call(linear.solve_linear_point, self.params, data, src, t, x, self.QTOL)
            for t, x in self.points
        ]
        field = ops.call(
            linear.solve_linear_field, self.params, data, src, self.field_grid, self.QTOL
        )
        return values, field

    def _fd_reference(self):
        """solve_linear_fd on dx, dx/2 and dx/4 (dx = NODE), each adjacent
        pair extrapolated to second order; the finer extrapolation is the
        reference and its distance to the coarser one its error estimate."""
        if self._fd is None:
            t_max = max(t for t, _ in self.points)
            rows = []
            for refine in (1, 2, 4):
                grid = GridSpec(
                    dx=self.NODE / refine, cfl=1.0, x_max=1.0 + t_max + 1.0, t_max=t_max
                )
                f = _solve_linear_fd(self.params, self.data, self.src, grid, store_every=refine)
                rows.append(f.values[:, ::refine])
            e1, e2 = ((4.0 * fine - coarse) / 3.0 for coarse, fine in zip(rows, rows[1:]))
            self._fd = (e2, np.abs(e2 - e1))
        return self._fd

    def _reference_at(self, t: float, x: float):
        extrap, err = self._fd_reference()
        i = int(round(t / self.NODE))
        j = int(round(x / self.NODE)) + (extrap.shape[1] - 1) // 2
        return extrap[i, j], err[i, j]

    def check(self, answer) -> list[str | None]:
        values, field = answer
        verdicts = []
        for (t, x), value in zip(self.points, values):
            if value is None:
                verdicts.append("point not solved")
                continue
            ref, err = self._reference_at(t, x)
            ok = abs(value - ref) <= err + self.QTOL
            verdicts.append(None if ok else f"u({t},{x})={value} vs FD {ref} +- {err}")
        if field is None:
            verdicts.append("field not solved")
            return verdicts
        worst = 0.0
        for i, t in enumerate(field.times):
            for j, x in enumerate(field.xs):
                ref, err = self._reference_at(float(t), float(x))
                worst = max(worst, abs(field.values[i, j] - ref) - err - self.QTOL)
        verdicts.append(None if worst <= 0.0 else f"field exceeds FD error estimate by {worst}")
        return verdicts


class KernelRoutes:
    """Both routes through the kernel layer, one pass each: the comparison
    frame (FrameCheck) and the representation-formula solver (LinearSolve).

    The linear solver is interpreter-bound, and alone its run-to-run spread
    on a shared host exceeds any usable regression bound; inside this pass
    its share is small enough for wall_s to stay steady.
    """

    name = "kernel_routes"

    def __init__(self, seed: int):
        self.parts = (FrameCheck(seed), LinearSolve(seed))
        self.entries = tuple(e for part in self.parts for e in part.entries)
        self.n_ops = sum(part.n_ops for part in self.parts)
        self.sample_args = self.parts[0].sample_args

    def run_pass(self, ops: OpClock):
        return [part.run_pass(ops) for part in self.parts]

    def check(self, answer) -> list[str | None]:
        return [v for part, a in zip(self.parts, answer) for v in part.check(a)]


WORKLOADS = {w.name: w for w in (SingleSweep, SystemSweep, KernelRoutes)}
