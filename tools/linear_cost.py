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

Each checkout's siwave package is loaded under a name of its own, so with
``--baseline`` both run in one process, and each round times every case
on both, the order alternating from round to round; each figure is the
median over the rounds.  With a baseline the report also gives the
largest relative move of a value between the two.

The result goes to the JSON file, with the host it ran on.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from _harness import _host, _package, _revision, _seconds  # noqa: E402

ROUNDS = 9
PROBES = ((2.0, 1.0), (8.0, 4.8), (19.0, 3.8))
QTOL = 1e-7


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

    def point(self, t: float, x: float) -> float:
        return self.linear.solve_linear_point(self.params, self.data, self.src, t, x, QTOL)

    def field(self) -> np.ndarray:
        return self.linear.solve_linear_field(self.params, self.data, self.src, self.grid, QTOL).values


def _max_rel(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(a), np.finfo(float).tiny)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", default=None, help="root of a second checkout to measure alongside")
    parser.add_argument("--out", default=str(ROOT / "BENCH_linear.json"))
    args = parser.parse_args()
    checkouts = {"checkout": ROOT} | ({"baseline": Path(args.baseline).resolve()} if args.baseline else {})
    cases = {label: _Case(_package(path, label)) for label, path in checkouts.items()}
    rows = None
    values = {}
    for label, case in cases.items():  # warm the caches (rules, hypergeometric plans) before timing
        values[label] = ([case.point(t, x) for t, x in PROBES], case.field())
        rows = values[label][1].shape[0]
    point_s = {label: {p: [] for p in PROBES} for label in cases}
    row_s = {label: [] for label in cases}
    for r in range(ROUNDS):
        for label in list(cases)[:: 1 if r % 2 == 0 else -1]:
            case = cases[label]
            for t, x in PROBES:
                point_s[label][(t, x)].append(_seconds(lambda: case.point(t, x)))
            row_s[label].append(_seconds(case.field) / rows)
    report = {
        "metric": "linear solver cost on the kernel_routes inputs (seed 0)",
        "method": (f"median over {ROUNDS} rounds, the checkouts in alternating order in one process; "
                   f"mu = 3, bump data R = 1 eps = 0.5, bump source on (0, 1, -1, 1), qtol = {QTOL}; "
                   f"field dx = 0.1, cfl = 1, x_max = 1.2, t_max = 0.2 ({rows} rows)"),
        "host": _host(),
    }
    for label in cases:
        report[label] = {
            "revision": _revision(checkouts[label]),
            "ms_per_point": {f"t{t:g}_x{x:g}": round(statistics.median(point_s[label][(t, x)]) * 1e3, 3)
                             for t, x in PROBES},
            "ms_per_field_row": round(statistics.median(row_s[label]) * 1e3, 3),
        }
        print(f"{label:>8} ms/point {report[label]['ms_per_point']}, "
              f"ms/field row {report[label]['ms_per_field_row']}", flush=True)
    if "baseline" in values:
        (p0, f0), (p1, f1) = values["baseline"], values["checkout"]
        report["max_rel_move"] = {"points": _max_rel(p0, p1), "field": _max_rel(f0, f1)}
        print(f"largest relative move against the baseline: {report['max_rel_move']}", flush=True)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
