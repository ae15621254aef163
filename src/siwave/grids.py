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

    def _n_half(self) -> int:
        """Nodes on either side of x = 0: xs() is dx * arange(-n_half, n_half + 1)."""
        return int(round(self.x_max / self.dx))

    def xs(self) -> np.ndarray:
        n_half = self._n_half()
        return self.dx * np.arange(-n_half, n_half + 1)

    def n_steps(self) -> int:
        return math.ceil(self.t_max / self.dt - 1e-12)

    def validate_cone(self, R: float) -> None:
        """Check the nodes cover the light cone of data with radius R (the
        last node, which rounding can leave up to dx/2 short of x_max)."""
        if not math.isfinite(R):
            raise ValueError(f"support radius must be finite, got {R}")
        edge, reach = self.dx * self._n_half(), R + self.t_max  # xs()[-1]
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
        if not (np.isfinite(self.times).all() and (np.diff(self.times) > 0).all()):
            raise ValueError(f"times must be finite and strictly increasing, got {self.times}")
        if not np.isfinite(self.values).all() or not np.isfinite(self.dvalues).all():
            raise ValueError("field contains non-finite entries")
        self._xs = xs

    @property
    def xs(self) -> np.ndarray:
        return self._xs

    def interpolate(self, t, x):
        """Bilinear interpolation of u at off-node points (t, x), floats or
        arrays that broadcast; a float call returns a float.  An axis with
        one node (one stored row, or a one-node grid) is taken at that node."""
        times, xs, u = self.times, self.xs, self.values
        t, x = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(x, dtype=float))
        inside = (times[0] <= t) & (t <= times[-1]) & (xs[0] <= x) & (x <= xs[-1])
        if not inside.all():
            k = np.unravel_index(np.argmin(inside), inside.shape)
            raise ValueError(f"point (t={t[k]}, x={x[k]}) outside stored field")
        i, i1, ft = _bracket(times, t)
        j, j1, fx = _bracket(xs, x)
        value = (
            (1 - ft) * (1 - fx) * u[i, j]
            + (1 - ft) * fx * u[i, j1]
            + ft * (1 - fx) * u[i1, j]
            + ft * fx * u[i1, j1]
        )
        return float(value) if value.ndim == 0 else value

    def to_csv(self, path: str) -> None:
        """Write rows `t,x,u,ut`, one per node, 17 significant digits."""
        xs = self.xs.tolist()
        rows = zip(np.asarray(self.times).tolist(), self.values.tolist(), self.dvalues.tolist())
        _write_csv(path, "t,x,u,ut", (
            (t, x, u, ut) for t, u_row, ut_row in rows for x, u, ut in zip(xs, u_row, ut_row)
        ))


def _write_csv(path: str, header: str, rows) -> None:
    """Write the line ``header`` and one line per row of ``rows``, ASCII: a
    str cell as it is, any other in FLOAT_FMT."""
    with open(path, "w", encoding="ascii") as handle:
        handle.write(header + "\n")
        for row in rows:
            handle.write(",".join(v if isinstance(v, str) else FLOAT_FMT % v for v in row) + "\n")


def _bracket(nodes: np.ndarray, v: np.ndarray):
    """Nodes i, i+1 around each v and the weight of node i+1, clamped to the
    first and last interval; i = i+1 = 0 with weight 0 for one node."""
    if len(nodes) == 1:
        zero = np.zeros(v.shape, dtype=np.intp)
        return zero, zero, np.zeros(v.shape)
    i = np.minimum(np.maximum(np.searchsorted(nodes, v, side="right") - 1, 0), len(nodes) - 2)
    return i, i + 1, (v - nodes[i]) / (nodes[i + 1] - nodes[i])
