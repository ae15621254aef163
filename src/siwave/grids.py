"""Uniform spacetime grids and sampled fields.

The grid's nodes must cover the full light cone of the data (last node
>= R + t_max, up to rounding), so numerical boundaries never activate:
solutions with compactly supported data vanish identically near the grid
edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["GridSpec", "SpacetimeField"]

#: Text format for CSV payloads: 17 significant digits round-trips binary64.
FLOAT_FMT = "%.17g"

#: Relative rounding slack when the last node is compared with R + t_max.
CONE_RTOL = 1e-12


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid: spacing dx, time step cfl*dx, half-width x_max, horizon t_max."""

    dx: float
    cfl: float
    x_max: float
    t_max: float

    def __post_init__(self) -> None:
        for name in ("dx", "x_max", "t_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.dx <= 0:
            raise ValueError(f"dx must be > 0, got {self.dx}")
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")
        if self.x_max <= 0 or self.t_max <= 0:
            raise ValueError("x_max and t_max must be > 0")

    @property
    def dt(self) -> float:
        return self.cfl * self.dx

    def xs(self) -> np.ndarray:
        n_half = int(round(self.x_max / self.dx))
        return self.dx * np.arange(-n_half, n_half + 1)

    def n_steps(self) -> int:
        return math.ceil(self.t_max / self.dt - 1e-12)

    def validate_cone(self, R: float) -> None:
        """Check the nodes cover the light cone of data with radius R (the
        last node, which rounding can leave up to dx/2 short of x_max)."""
        if not math.isfinite(R):
            raise ValueError(f"support radius must be finite, got {R}")
        edge, reach = float(self.xs()[-1]), R + self.t_max
        if reach - edge > CONE_RTOL * abs(reach):
            raise ValueError(
                f"last node x={edge} < R+t_max={reach} (x_max={self.x_max}, dx={self.dx}): "
                "light cone would reach the boundary"
            )


@dataclass
class SpacetimeField:
    """Sampled solution values and time derivative on (a subset of) grid rows.

    ``times`` lists the stored rows (they need not be every step when a
    storage stride is used); ``values`` and ``dvalues`` are (time x space)
    arrays.  Storage is truncated before any non-finite value, so all
    stored entries are finite.
    """

    grid: GridSpec
    times: np.ndarray
    values: np.ndarray
    dvalues: np.ndarray

    def __post_init__(self) -> None:
        xs = self.grid.xs()
        if self.values.shape != (len(self.times), len(xs)):
            raise ValueError(
                f"values shape {self.values.shape} inconsistent with "
                f"{len(self.times)} times x {len(xs)} nodes"
            )
        if self.dvalues.shape != self.values.shape:
            raise ValueError("dvalues shape differs from values shape")
        if not np.isfinite(self.values).all() or not np.isfinite(self.dvalues).all():
            raise ValueError("field contains non-finite entries")
        self._xs = xs

    @property
    def xs(self) -> np.ndarray:
        return self._xs

    def interpolate(self, t: float, x: float) -> float:
        """Bilinear interpolation of u at an off-node point; a field of one
        stored row is interpolated in x only, at its one time."""
        times, xs, u = self.times, self.xs, self.values
        if not (times[0] <= t <= times[-1]) or not (xs[0] <= x <= xs[-1]):
            raise ValueError(f"point (t={t}, x={x}) outside stored field")
        j = min(int(np.searchsorted(xs, x, side="right")) - 1, len(xs) - 2)
        j = max(j, 0)
        fx = (x - xs[j]) / (xs[j + 1] - xs[j])
        if len(times) == 1:
            return float((1 - fx) * u[0, j] + fx * u[0, j + 1])
        i = min(int(np.searchsorted(times, t, side="right")) - 1, len(times) - 2)
        i = max(i, 0)
        ft = (t - times[i]) / (times[i + 1] - times[i])
        return float(
            (1 - ft) * (1 - fx) * u[i, j]
            + (1 - ft) * fx * u[i, j + 1]
            + ft * (1 - fx) * u[i + 1, j]
            + ft * fx * u[i + 1, j + 1]
        )

    def to_csv(self, path: str) -> None:
        """Write rows `t,x,u,ut`, one per node, 17 significant digits."""
        xs = self.xs
        with open(path, "w", encoding="ascii") as handle:
            handle.write("t,x,u,ut\n")
            for i, t in enumerate(self.times):
                for j, x in enumerate(xs):
                    handle.write(
                        ",".join(
                            FLOAT_FMT % v
                            for v in (t, x, self.values[i, j], self.dvalues[i, j])
                        )
                        + "\n"
                    )
