"""Cost of the kernel lower bounds on the kernel_routes light-cone sample.

    python3 tools/kernel_cost.py [--baseline CHECKOUT] [--out BENCH_kernels.json]

Run from the root of a source checkout; siwave is imported from ./src.
Uses numpy and the standard library only.

The per-layer kernel metric of ROADMAP aim 1, on the seed-0 sample of the
kernel_routes workload (t_max = 80, 50 x 50 x 50 points):

* ms to build the sample with ``light_cone_sample``;
* ns per sampled point of ``verify_kernel_lower_bounds`` for each of the
  five kernel_routes bundles, called on one fresh sample in the
  workload's order, so a bundle may reuse what an earlier one left on the
  sample; and the five together.

The figure is per *sampled* point (``len(sample)``), whatever share of the
points a bound evaluates.  With a baseline the report also says whether
every minimum is bit-identical between the two checkouts.  Rounds, the
baseline and the report are as in ``tools/_harness.py``.
"""

from __future__ import annotations

import importlib
import statistics
import sys

from _harness import _seconds, main

ROUNDS = 11
SAMPLE = dict(t_max=80.0, n_t=50, n_b=50, n_y=50)
POINTS = SAMPLE["n_t"] * SAMPLE["n_b"] * SAMPLE["n_y"]
BUNDLES = ((0.0, 0.0), (2.0, 0.0), (3.0, 0.0), (1.0, 0.0), (5.0, 4.0))


def _label(bundle) -> str:
    return f"mu{bundle[0]:g}_nu2{bundle[1]:g}"


class _Case:
    """The kernel_routes bound pass, built from one siwave package: the
    sample's build, then each bundle's bounds on it."""

    def __init__(self, pkg):
        self.kernels = importlib.import_module(pkg.__name__ + ".kernels")
        self.params = {_label(b): pkg.ScaleInvariantParams(*b) for b in BUNDLES}
        self.timers = {"build": lambda r: _seconds(self.build)} | {
            name: lambda r, name=name: self.bounds(name) for name in self.params
        }

    def build(self) -> None:
        self.sample = self.kernels.light_cone_sample(**SAMPLE)
        assert len(self.sample) == POINTS

    def bounds(self, name: str) -> float:
        """Seconds of the bounds of bundle ``name`` on the sample; the last
        bundle lets the sample go, as the workload's pass does."""
        seconds = _seconds(lambda: self.kernels.verify_kernel_lower_bounds(self.params[name], self.sample))
        if name == _label(BUNDLES[-1]):
            del self.sample
        return seconds

    def answers(self) -> dict:
        sample = self.kernels.light_cone_sample(**SAMPLE)
        reports = [self.kernels.verify_kernel_lower_bounds(p, sample) for p in self.params.values()]
        return {"minima": [(r.c_K1, r.c_E, r.c_mix) for r in reports]}


def _body(cases, samples, moves) -> dict:
    report = {}
    for label, s in samples.items():
        bundles = [s[_label(b)] for b in BUNDLES]
        report[label] = {
            "points": POINTS,
            "build_ms": round(statistics.median(s["build"]) * 1e3, 3),
            "ns_per_sampled_point": {_label(b): round(statistics.median(t) / POINTS * 1e9, 2)
                                     for b, t in zip(BUNDLES, bundles)},
            "ns_per_sampled_point_all_bundles": round(
                statistics.median(map(sum, zip(*bundles))) / POINTS * 1e9, 2),
        }
    if moves is not None:
        report["minima_bit_identical"] = moves["minima"] == 0.0
    return report


if __name__ == "__main__":
    sys.exit(main(
        __doc__, "BENCH_kernels.json", _Case, ROUNDS,
        "kernel lower-bound cost on the kernel_routes sample (seed 0)",
        f"light_cone_sample({', '.join(f'{k}={v:g}' for k, v in SAMPLE.items())}), then "
        "verify_kernel_lower_bounds on it for each bundle in the kernel_routes order; "
        "ns per sampled point = call time / len(sample)",
        _body,
    ))
