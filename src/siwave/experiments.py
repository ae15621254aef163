"""Experiment orchestration: eps-sweeps of numerical lifespans and scaling fits.

A sweep runs one blow-up detection per amplitude eps (largest first) in
space dimension n = 1 on the smooth bump data of
:func:`~siwave.profiles.bump_profile`, writes the batch CSV, and fits the
measured lifespans against the predicted scaling law (of
:func:`~siwave.params.predicted_lifespan_exponent` for the single equation,
of :func:`~siwave.iteration.lifespan_rate_system` for the coupled system):

    algebraic regime:    log T  = slope * log eps + intercept,
    exponential regime:  log log T = slope * log eps + intercept (T > 1 only).

Fits use only uncensored records not flagged unconverged.  The
acceptance band ``PASS_BAND`` (+-20% of the predicted slope) is an
exploratory convention: the underlying results are one-sided (upper bounds
on T), so the fitted constant of T <= C*eps^(-rate) is reported alongside.

Configurations serialize to JSON with exact field names for reproducible,
diffable experiments; identical configurations produce bit-identical CSV
output (no wall-clock or randomness anywhere in the pipeline).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .fd import (
    DEFAULT_THRESHOLD,
    LifespanRecord,
    detect_lifespan,
    detect_lifespan_system,
    lifespan_records_to_csv,
)
from .grids import GridSpec
from .params import (
    LifespanPrediction,
    ScaleInvariantParams,
    SystemParams,
    predicted_lifespan_exponent,
)
from .profiles import bump_profile
from .iteration import lifespan_rate_system

__all__ = [
    "SweepConfig",
    "ScalingFit",
    "SweepResult",
    "run_sweep",
    "resolve_output_path",
    "write_sweep_svg",
]

#: Environment variable naming the default directory for relative outputs.
OUTPUT_DIR_ENV = "SIWAVE_OUTPUT_DIR"

#: Relative band around the predicted slope within which a fit passes.
PASS_BAND = 0.2

#: Pixel size of the sweep chart.
SVG_WIDTH, SVG_HEIGHT = 640, 480


def resolve_output_path(path: str) -> str:
    """Resolve a relative output path against $SIWAVE_OUTPUT_DIR if set."""
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


@dataclass(frozen=True)
class SweepConfig:
    """Full description of one sweep experiment (JSON-serializable).

    Every sweep runs at n = 1 on ``bump_profile`` data of radius ``R`` and
    the given ``amplitude``; a system sweep gives both components the same
    data.  ``q``, ``mu2`` and ``nu22`` are the second component's exponent
    and coefficients, required for ``model='system'`` only.
    """

    model: str  # 'single' | 'system'
    mu: float
    nu2: float
    p: float
    eps_grid: tuple[float, ...]
    grid: GridSpec
    R: float = 1.0
    amplitude: float = 1.0
    u0_zero: bool = False
    q: float | None = None
    mu2: float | None = None
    nu22: float | None = None
    threshold: float = DEFAULT_THRESHOLD
    refine: bool = True
    output_path: str = "sweep.csv"

    def __post_init__(self) -> None:
        if self.model not in ("single", "system"):
            raise ValueError(f"model must be 'single' or 'system', got {self.model!r}")
        for name in ("refine", "u0_zero"):
            # a JSON string such as "no" is truthy, so it would not read as False
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a bool, got {getattr(self, name)!r}")
        if not self.eps_grid:
            raise ValueError("eps_grid must not be empty")
        if any(b >= a for a, b in zip(self.eps_grid, self.eps_grid[1:])):
            raise ValueError("eps_grid must be strictly decreasing")
        if not all(math.isfinite(e) and e > 0 for e in self.eps_grid):
            raise ValueError(f"eps_grid values must be finite and > 0, got {list(self.eps_grid)}")
        if not (math.isfinite(self.p) and self.p > 1):
            raise ValueError(f"p must be finite and > 1, got {self.p}")
        if not (math.isfinite(self.amplitude) and self.amplitude > 0):
            raise ValueError(f"amplitude must be finite and > 0, got {self.amplitude}")
        if not self.threshold > 0:
            raise ValueError(f"threshold must be > 0, got {self.threshold}")
        if not (math.isfinite(self.R) and self.R > 0):
            raise ValueError(f"R must be finite and > 0, got {self.R}")
        components = [self.single_params()]  # validates mu, nu2, delta >= 0
        if self.model == "system":
            if self.q is None or self.mu2 is None or self.nu22 is None:
                raise ValueError("system sweeps need q, mu2 and nu22")
            components.append(self.system_params().comp2)
        if not self.u0_zero and any(comp.delta < 1.0 for comp in components):
            raise ValueError("delta < 1 experiments require zero initial position (u0_zero=True)")
        self.grid.validate_cone(self.R)

    def single_params(self) -> ScaleInvariantParams:
        return ScaleInvariantParams(mu=self.mu, nu2=self.nu2)

    def system_params(self) -> SystemParams:
        return SystemParams(
            comp1=ScaleInvariantParams(mu=self.mu, nu2=self.nu2),
            comp2=ScaleInvariantParams(mu=self.mu2, nu2=self.nu22),
            p=self.p,
            q=self.q,
        )

    def to_json(self) -> str:
        payload = asdict(self)
        payload["eps_grid"] = list(self.eps_grid)
        payload["grid"] = {
            "dx": self.grid.dx, "cfl": self.grid.cfl,
            "x_max": self.grid.x_max, "t_max": self.grid.t_max,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SweepConfig":
        try:
            payload = json.loads(text)
            payload["grid"] = GridSpec(**payload["grid"])
            payload["eps_grid"] = tuple(payload["eps_grid"])
            return cls(**payload)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"invalid sweep config: {exc}") from exc


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares fit of the lifespan scaling against the prediction."""

    slope: float
    intercept: float
    r2: float
    predicted_slope: float
    regime: str
    pass_band: float
    n_used: int
    n_excluded: int
    upper_bound_constant: float

    @property
    def within_band(self) -> bool:
        return abs(self.slope - self.predicted_slope) <= self.pass_band * abs(
            self.predicted_slope
        )


@dataclass(frozen=True)
class SweepResult:
    config: SweepConfig
    records: list[LifespanRecord]
    prediction: LifespanPrediction
    fit: ScalingFit | None
    fit_note: str
    monotonicity_violations: tuple[float, ...] = field(default_factory=tuple)


def _usable(record: LifespanRecord) -> bool:
    return record.blow_up and math.isfinite(record.T_est) and record.converged is not False


def _fit_records(records: list[LifespanRecord], prediction) -> tuple[ScalingFit | None, str]:
    if prediction.regime == "none":
        return None, "fit unavailable: no blow-up prediction for these parameters"
    usable = [r for r in records if _usable(r)]
    if prediction.regime == "exponential":
        excluded_small = [r for r in usable if r.T_est <= 1.0]
        usable = [r for r in usable if r.T_est > 1.0]
        note_extra = f" ({len(excluded_small)} records with T <= 1 excluded)" if excluded_small else ""
    else:
        note_extra = ""
    if len(usable) < 2:
        return None, f"fit unavailable: {len(usable)} usable records{note_extra}"

    log_eps = np.log([r.eps for r in usable])
    if prediction.regime == "algebraic":
        ordinate = np.log([r.T_est for r in usable])
    else:
        ordinate = np.log(np.log([r.T_est for r in usable]))
    slope, intercept = np.polyfit(log_eps, ordinate, 1)
    fitted = slope * log_eps + intercept
    ss_res = float(np.sum((ordinate - fitted) ** 2))
    ss_tot = float(np.sum((ordinate - np.mean(ordinate)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    rate = prediction.rate
    upper_c = max(r.T_est * r.eps**rate for r in usable) if prediction.regime == "algebraic" else math.nan
    fit = ScalingFit(
        slope=float(slope),
        intercept=float(intercept),
        r2=r2,
        predicted_slope=-rate,
        regime=prediction.regime,
        pass_band=PASS_BAND,
        n_used=len(usable),
        n_excluded=len(records) - len(usable),
        upper_bound_constant=upper_c,
    )
    return fit, f"fit over {len(usable)} records{note_extra}"


def run_sweep(config: SweepConfig) -> SweepResult:
    """Run one lifespan detection per eps, write the CSV, fit the scaling."""
    single = config.model == "single"
    if single:
        params = config.single_params()
        prediction = predicted_lifespan_exponent(1, params, config.p)
    else:
        sys = config.system_params()
        prediction = lifespan_rate_system(1, sys)
    records: list[LifespanRecord] = []
    for eps in config.eps_grid:
        # __post_init__ demands u0_zero for any delta < 1 component, so both
        # components of a system get the same data
        profile = bump_profile(R=config.R, eps=eps, amplitude=config.amplitude, u0_zero=config.u0_zero)
        # one synchronous call of a module global per eps, so that a wrapper
        # set on this module times each run
        if single:
            record = detect_lifespan(params, profile, config.p, config.grid,
                                     threshold=config.threshold, refine=config.refine)
        else:
            record = detect_lifespan_system(sys, profile, profile, config.grid,
                                            threshold=config.threshold, refine=config.refine)
        records.append(record)

    out = resolve_output_path(config.output_path)
    lifespan_records_to_csv(records, out)

    # eps_grid is decreasing, so lifespans should be nondecreasing down the
    # list; increases of eps must not increase T (violations are flagged as
    # grid artifacts, not errors)
    violations = []
    finite = [(r.eps, r.T_est) for r in records if r.blow_up and math.isfinite(r.T_est)]
    for (eps_hi, t_hi), (eps_lo, t_lo) in zip(finite, finite[1:]):
        if t_lo < t_hi:
            violations.append(eps_lo)

    fit, note = _fit_records(records, prediction)
    return SweepResult(
        config=config,
        records=records,
        prediction=prediction,
        fit=fit,
        fit_note=note,
        monotonicity_violations=tuple(violations),
    )


def write_sweep_svg(result: SweepResult, path: str) -> None:
    """Minimal SVG log-log chart of the sweep (no plotting dependencies)."""
    width, height = SVG_WIDTH, SVG_HEIGHT
    pts = [
        (math.log10(r.eps), math.log10(r.T_est))
        for r in result.records
        if r.blow_up and math.isfinite(r.T_est) and r.T_est > 0
    ]
    if not pts:
        raise ValueError("no finite lifespans to plot")
    xs, ys = zip(*pts)
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    margin = 50

    def to_px(x: float, y: float) -> tuple[float, float]:
        px = margin + (x - x_lo) / x_span * (width - 2 * margin)
        py = height - margin - (y - y_lo) / y_span * (height - 2 * margin)
        return px, py

    poly = " ".join("%.2f,%.2f" % to_px(x, y) for x, y in pts)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<polyline points="{poly}" fill="none" stroke="steelblue" stroke-width="2"/>',
    ]
    for x, y in pts:
        px, py = to_px(x, y)
        parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="4" fill="steelblue"/>')
    if result.fit is not None:
        f = result.fit
        ln10 = math.log(10.0)
        # fit lives in natural logs; plot axes are log10
        fitted0 = f.slope * (x_lo * ln10) + f.intercept
        fitted1 = f.slope * (x_hi * ln10) + f.intercept
        if result.fit.regime == "exponential":
            y0, y1 = math.exp(fitted0) / ln10, math.exp(fitted1) / ln10
        else:
            y0, y1 = fitted0 / ln10, fitted1 / ln10
        (x0p, y0p), (x1p, y1p) = to_px(x_lo, y0), to_px(x_hi, y1)
        parts.append(
            f'<line x1="{x0p:.2f}" y1="{y0p:.2f}" x2="{x1p:.2f}" y2="{y1p:.2f}" '
            'stroke="firebrick" stroke-dasharray="6,4" stroke-width="1.5"/>'
        )
    parts.append(
        f'<text x="{margin}" y="{height - 12}" font-size="13" font-family="sans-serif">'
        "log10 eps vs log10 T_est</text>"
    )
    parts.append("</svg>")
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(parts) + "\n")
