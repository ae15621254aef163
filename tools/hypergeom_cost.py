"""Cost of the hypergeometric layer on the kernel_routes light-cone sample.

    python3 tools/hypergeom_cost.py [--baseline CHECKOUT] [--out BENCH_hypergeom.json]

Run from the root of a source checkout; siwave is imported from ./src.
Uses numpy and the standard library only.

Three figures, the per-layer hyp2f1 metrics of ROADMAP aim 1:

* ns per point of ``hyp2f1_grid`` on the arguments the kernels pass for the
  kernel_routes sample (t_max = 80, 50 x 50 x 50 points, seed 0): zeta0 of
  K0 and K1 (b = 0) and zeta of E, for each kernel parameter set
  (1/2,1/2;1), (-1/2,-1/2;1) and (1/2,1/2;2);
* the mean number of series terms a point is summed to in those calls,
  read per point from the engine's tables;
* us per ``hyp2f1(1/2, 1/2; 1; z)`` call at z = 0.3, 0.957 and 0.999, a
  round's figure being the median of 401 calls.

Each checkout's arguments come from its own package.  Rounds, the
baseline and the report are as in ``tools/_harness.py``.
"""

from __future__ import annotations

import importlib
import statistics
import sys

import numpy as np

from _harness import _seconds, main

ROUNDS = 9
SCALAR_REPEAT = 401
PARAMS = ((0.5, 0.5, 1.0), (-0.5, -0.5, 1.0), (0.5, 0.5, 2.0))
SCALAR_Z = (0.3, 0.957, 0.999)


class _Case:
    """The hyp2f1 calls of the kernel_routes sample, made with one siwave package."""

    def __init__(self, pkg):
        kernels = importlib.import_module(pkg.__name__ + ".kernels")
        self.hg = hg = importlib.import_module(pkg.__name__ + ".hypergeom")
        sample = kernels.light_cone_sample(t_max=80.0, n_t=50, n_b=50, n_y=50)
        t, b, w = sample.t, sample.b, sample.y - sample.x
        self.arguments = {
            "zeta0": kernels._zeta(t, w, kernels._distance(t + 2.0, w)),
            "zeta": kernels._zeta(t - b, w, kernels._distance(t + b + 2.0, w)),
        }
        self.timers = {
            f"{params} {name}": lambda r, params=params, z=z: _seconds(lambda: hg.hyp2f1_grid(*params, z))
            for params in PARAMS for name, z in self.arguments.items()
        } | {
            f"z{z}": lambda r, z=z: statistics.median(
                _seconds(lambda: hg.hyp2f1(0.5, 0.5, 1.0, z)) for _ in range(SCALAR_REPEAT))
            for z in SCALAR_Z
        }

    def terms(self, params: tuple, z: np.ndarray) -> float:
        """Mean series terms per point of one hyp2f1_grid call."""
        hg = self.hg
        _, _, plan = hg._canonical(*params)
        upper = z > 0.5 if plan.connect else np.zeros(z.shape, dtype=bool)
        total = 0.0
        for connect, x in ((True, 1.0 - z[upper]), (False, z[~upper])):
            if x.size:
                _, _, cells, tables = hg._sorted(plan, x, connect)
                series = plan.connection if connect else (plan.direct,)
                total += sum(x.size * (s.start + 1.0) + float(np.sum(F.searchsorted(cells, "right")))
                             for s, F in zip(series, tables))
        return total / z.size


def _body(cases, samples, moves) -> dict:
    return {
        label: {
            "grid": [
                {"params": list(params), "argument": name, "points": int(z.size),
                 "ns_per_point": round(statistics.median(samples[label][f"{params} {name}"]) / z.size * 1e9, 1),
                 "mean_terms": round(case.terms(params, z), 2)}
                for params in PARAMS for name, z in case.arguments.items()
            ],
            "us_per_scalar_call": {f"z{z}": round(statistics.median(samples[label][f"z{z}"]) * 1e6, 2)
                                   for z in SCALAR_Z},
        }
        for label, case in cases.items()
    }


if __name__ == "__main__":
    sys.exit(main(
        __doc__, "BENCH_hypergeom.json", _Case, ROUNDS,
        "hypergeom cost on the kernel_routes sample",
        f"a scalar round is the median of {SCALAR_REPEAT} calls; sample t_max = 80, "
        "50 x 50 x 50 points, seed 0",
        _body,
    ))
