"""Cost of the hypergeometric layer on the kernel_routes light-cone sample.

    python3 tools/hypergeom_cost.py [--baseline CHECKOUT] [--out BENCH_hypergeom.json]

Run from the root of a source checkout; siwave is imported from ./src.
Uses numpy and the standard library only.

Three figures, the per-layer hyp2f1 metrics of ROADMAP aim 1:

* ns per point of ``hyp2f1_grid`` on the arguments the kernels pass for the
  kernel_routes sample (t_max = 80, 50 x 50 x 50 points, seed 0): zeta0 of
  K0 and K1 (b = 0) and zeta of E, for each kernel parameter set
  (1/2,1/2;1), (-1/2,-1/2;1) and (1/2,1/2;2);
* the mean number of series terms a point is summed to in those calls;
* us per ``hyp2f1(1/2, 1/2; 1; z)`` call at z = 0.3, 0.957 and 0.999.

With ``--baseline`` the hypergeom module of a second checkout is loaded
into the same process, and each round times every case on both engines,
the order alternating from round to round; each figure is the median
over the rounds.  The term counts are read per point from the engine's
tables; an engine without them (one that sums each block of points to
the count of its largest argument) gets null.

The result goes to the JSON file, with the host it ran on.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import statistics
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from _harness import _host, _package, _revision, _seconds  # noqa: E402
from siwave.kernels import _distance, _zeta, light_cone_sample  # noqa: E402

ROUNDS = 9
SCALAR_REPEAT = 401
PARAMS = ((0.5, 0.5, 1.0), (-0.5, -0.5, 1.0), (0.5, 0.5, 2.0))
SCALAR_Z = (0.3, 0.957, 0.999)


def _arguments() -> dict:
    sample = light_cone_sample(t_max=80.0, n_t=50, n_b=50, n_y=50)
    t, b, w = sample.t, sample.b, sample.y - sample.x
    return {"zeta0": _zeta(t, w, _distance(t + 2.0, w)), "zeta": _zeta(t - b, w, _distance(t + b + 2.0, w))}


def _terms(hg, params: tuple, z: np.ndarray) -> float | None:
    """Mean series terms per point of one hyp2f1_grid call, or None for an engine without per-point
    term counts (one that sums each block to the count of its largest argument)."""
    if not hasattr(hg, "_sorted"):
        return None
    # an engine whose tolerance and term budget were options takes them after the parameters
    budget = (hg.DEFAULT_TOL, hg.MAX_TERMS) if "tol" in inspect.signature(hg._canonical).parameters else ()
    _, _, plan = hg._canonical(*params, *budget)
    upper = z > 0.5 if plan.connect else np.zeros(z.shape, dtype=bool)
    total = 0.0
    for connect, x in ((True, 1.0 - z[upper]), (False, z[~upper])):
        if x.size:
            _, _, cells, tables = hg._sorted(plan, x, *budget, connect)
            series = plan.connection if connect else (plan.direct,)
            total += sum(x.size * (s.start + 1.0) + float(np.sum(F.searchsorted(cells, "right")))
                         for s, F in zip(series, tables))
    return total / z.size


def _scalar_seconds(hg, z: float) -> float:
    return statistics.median(_seconds(lambda: hg.hyp2f1(0.5, 0.5, 1.0, z)) for _ in range(SCALAR_REPEAT))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", default=None, help="root of a second checkout to measure alongside")
    parser.add_argument("--out", default=str(ROOT / "BENCH_hypergeom.json"))
    args = parser.parse_args()
    checkouts = {"checkout": ROOT} | ({"baseline": Path(args.baseline).resolve()} if args.baseline else {})
    engines = {
        label: importlib.import_module(_package(path, label).__name__ + ".hypergeom")
        for label, path in checkouts.items()
    }
    arguments = _arguments()
    cases = [(params, name, z) for params in PARAMS for name, z in arguments.items()]
    grid = {label: {i: [] for i in range(len(cases))} for label in engines}
    scalar = {label: {z: [] for z in SCALAR_Z} for label in engines}
    for hg in engines.values():  # fill the engines' tables before timing
        for params, _, z in cases:
            hg.hyp2f1_grid(*params, z)
    for r in range(ROUNDS):
        for label in list(engines)[:: 1 if r % 2 == 0 else -1]:
            hg = engines[label]
            for i, (params, _, z) in enumerate(cases):
                grid[label][i].append(_seconds(lambda: hg.hyp2f1_grid(*params, z)) / z.size)
            for z in SCALAR_Z:
                scalar[label][z].append(_scalar_seconds(hg, z))
    report = {
        "metric": "hypergeom cost on the kernel_routes sample",
        "method": (f"median over {ROUNDS} rounds, the engines in alternating order in one process; "
                   f"a scalar round is the median of {SCALAR_REPEAT} calls; sample t_max = 80, "
                   f"50 x 50 x 50 points, seed 0"),
        "host": _host(),
    }
    for label, hg in engines.items():
        report[label] = {
            "revision": _revision(checkouts[label]),
            "grid": [
                {"params": list(params), "argument": name, "points": int(z.size),
                 "ns_per_point": round(statistics.median(grid[label][i]) * 1e9, 1),
                 "mean_terms": None if (n := _terms(hg, params, z)) is None else round(n, 2)}
                for i, (params, name, z) in enumerate(cases)
            ],
            "us_per_scalar_call": {f"z{z}": round(statistics.median(scalar[label][z]) * 1e6, 2)
                                   for z in SCALAR_Z},
        }
        for case in report[label]["grid"]:
            print(f"{label:>8} {tuple(case['params'])} {case['argument']:>5}: {case['ns_per_point']:6.1f}"
                  f" ns/point, {case['mean_terms']} terms/point", flush=True)
        print(f"{label:>8} scalar us: {report[label]['us_per_scalar_call']}", flush=True)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
