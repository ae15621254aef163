"""Cost of the representation-formula solver on the kernel_routes inputs.

    python3 tools/linear_cost.py [--baseline CHECKOUT] [--out BENCH_linear.json]

Run from the root of a source checkout; siwave is imported from ./src.
Uses numpy and the standard library only.

Two figures, the per-layer linear metrics of ROADMAP aim 1, on the seed-0
inputs of the kernel_routes workload (mu = 3, nu2 = 0; bump data with
R = 1, eps = 0.5; the source bump(x) * bump_{1/2}(t - 1/2) on the box
(0, 1, -1, 1); qtol = 1e-7):

* ms per probe point: ``solve_linear_point`` at (t, x) = (2, 1), (8, 4.8)
  and (19, 3.8), each timed on its own;
* ms per field row: ``solve_linear_field`` on dx = 0.1, cfl = 1,
  x_max = 1.2, t_max = 0.2 (3 rows of 25 nodes), divided by its rows.

With a baseline the report also gives the largest relative move of a
value between the two checkouts.  Rounds, the baseline and the report are
as in ``tools/_harness.py``.
"""

from __future__ import annotations

import importlib
import statistics
import sys

from _harness import _seconds, main

ROUNDS = 9
PROBES = ((2.0, 1.0), (8.0, 4.8), (19.0, 3.8))
ROWS = 3
QTOL = 1e-7


def _label(t: float, x: float) -> str:
    return f"t{t:g}_x{x:g}"


class _Case:
    """The kernel_routes linear inputs, built from one siwave package."""

    def __init__(self, pkg):
        profiles = importlib.import_module(pkg.__name__ + ".profiles")
        self.linear = importlib.import_module(pkg.__name__ + ".linear")
        self.params = pkg.ScaleInvariantParams(3.0, 0.0)
        self.data = profiles.bump_profile(R=1.0, eps=0.5, amplitude=1.0)
        space, time_ = profiles.smooth_bump(1.0), profiles.smooth_bump(0.5)
        self.src = profiles.SourceTerm(
            f=lambda t, x: space(x) * time_(t - 0.5), support=(0.0, 1.0, -1.0, 1.0)
        )
        self.grid = pkg.GridSpec(dx=0.1, cfl=1.0, x_max=1.2, t_max=0.2)
        self.timers = {
            _label(t, x): lambda r, t=t, x=x: _seconds(lambda: self.point(t, x)) for t, x in PROBES
        } | {"field": lambda r: _seconds(self.field)}

    def point(self, t: float, x: float) -> float:
        return self.linear.solve_linear_point(self.params, self.data, self.src, t, x, QTOL)

    def field(self):
        values = self.linear.solve_linear_field(self.params, self.data, self.src, self.grid, QTOL).values
        assert values.shape[0] == ROWS
        return values

    def answers(self) -> dict:
        return {"points": [self.point(t, x) for t, x in PROBES], "field": self.field()}


def _body(cases, samples, moves) -> dict:
    report = {
        label: {
            "ms_per_point": {_label(t, x): round(statistics.median(s[_label(t, x)]) * 1e3, 3)
                             for t, x in PROBES},
            "ms_per_field_row": round(statistics.median(s["field"]) / ROWS * 1e3, 3),
        }
        for label, s in samples.items()
    }
    if moves is not None:
        report["max_rel_move"] = moves
    return report


if __name__ == "__main__":
    sys.exit(main(
        __doc__, "BENCH_linear.json", _Case, ROUNDS,
        "linear solver cost on the kernel_routes inputs (seed 0)",
        f"mu = 3, bump data R = 1 eps = 0.5, bump source on (0, 1, -1, 1), qtol = {QTOL}; "
        f"field dx = 0.1, cfl = 1, x_max = 1.2, t_max = 0.2 ({ROWS} rows)",
        _body,
    ))
