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
points a bound evaluates.  Each checkout's siwave package is loaded under a
name of its own, so with ``--baseline`` both run in one process, and each
round times both, the order alternating from round to round; each figure
is the median over the rounds.  With a baseline the report also says
whether every minimum is bit-identical between the two.

The result goes to the JSON file, with the host it ran on.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from _harness import _host, _package, _revision  # noqa: E402

ROUNDS = 11
SAMPLE = dict(t_max=80.0, n_t=50, n_b=50, n_y=50)
POINTS = SAMPLE["n_t"] * SAMPLE["n_b"] * SAMPLE["n_y"]
BUNDLES = ((0.0, 0.0), (2.0, 0.0), (3.0, 0.0), (1.0, 0.0), (5.0, 4.0))


def _label(bundle) -> str:
    return f"mu{bundle[0]:g}_nu2{bundle[1]:g}"


class _Case:
    """The kernel_routes bound pass, built from one siwave package."""

    def __init__(self, pkg):
        self.kernels = importlib.import_module(pkg.__name__ + ".kernels")
        self.params = [pkg.ScaleInvariantParams(mu, nu2) for mu, nu2 in BUNDLES]

    def run(self) -> tuple[float, list[float], list[tuple]]:
        """(build seconds, seconds per bundle, minima per bundle) of one pass."""
        t0 = time.perf_counter()
        sample = self.kernels.light_cone_sample(**SAMPLE)
        build = time.perf_counter() - t0
        assert len(sample) == POINTS
        seconds, minima = [], []
        for params in self.params:
            t0 = time.perf_counter()
            report = self.kernels.verify_kernel_lower_bounds(params, sample)
            seconds.append(time.perf_counter() - t0)
            minima.append((report.c_K1, report.c_E, report.c_mix))
        return build, seconds, minima


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", default=None, help="root of a second checkout to measure alongside")
    parser.add_argument("--out", default=str(ROOT / "BENCH_kernels.json"))
    args = parser.parse_args()
    checkouts = {"checkout": ROOT} | ({"baseline": Path(args.baseline).resolve()} if args.baseline else {})
    cases = {label: _Case(_package(path, label)) for label, path in checkouts.items()}
    minima = {label: case.run()[2] for label, case in cases.items()}  # warm the caches before timing
    build_s = {label: [] for label in cases}
    bound_s = {label: [[] for _ in BUNDLES] for label in cases}
    for r in range(ROUNDS):
        for label in list(cases)[:: 1 if r % 2 == 0 else -1]:
            build, seconds, _ = cases[label].run()
            build_s[label].append(build)
            for column, s in zip(bound_s[label], seconds):
                column.append(s)
    report = {
        "metric": "kernel lower-bound cost on the kernel_routes sample (seed 0)",
        "method": (f"median over {ROUNDS} rounds, the checkouts in alternating order in one process; "
                   f"light_cone_sample({', '.join(f'{k}={v:g}' for k, v in SAMPLE.items())}), then "
                   "verify_kernel_lower_bounds on it for each bundle in the kernel_routes order; "
                   "ns per sampled point = call time / len(sample)"),
        "host": _host(),
    }
    for label in cases:
        per_bundle = {_label(b): round(statistics.median(s) / POINTS * 1e9, 2)
                      for b, s in zip(BUNDLES, bound_s[label])}
        total = statistics.median(sum(pass_) for pass_ in zip(*bound_s[label]))
        report[label] = {
            "revision": _revision(checkouts[label]),
            "points": POINTS,
            "build_ms": round(statistics.median(build_s[label]) * 1e3, 3),
            "ns_per_sampled_point": per_bundle,
            "ns_per_sampled_point_all_bundles": round(total / POINTS * 1e9, 2),
        }
        print(f"{label:>8} build {report[label]['build_ms']} ms, ns/sampled point {per_bundle}, "
              f"all bundles {report[label]['ns_per_sampled_point_all_bundles']}", flush=True)
    if "baseline" in minima:
        report["minima_bit_identical"] = minima["baseline"] == minima["checkout"]
        print(f"minima bit-identical to the baseline: {report['minima_bit_identical']}", flush=True)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
