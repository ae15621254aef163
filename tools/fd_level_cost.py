"""Cost of one level of the FD stepper on each of its paths.

    python3 tools/fd_level_cost.py [--baseline CHECKOUT] [--out BENCH_fd_level.json]

Run from the root of a source checkout; siwave is imported from ./src.
Uses numpy and the standard library only.

Cases: a single equation (m = 1, mu = 2, p = 1.5) and a coupled system
(m = 2, p = 1.5, q = 2) whose components share (mu, nu2) = (2, 0) or differ,
(2, 0) and (3, 0.75), each at windows of about 250, 400, 1,000 and 2,500
nodes.  A case is a censored lifespan run at cfl = 1, dx = 1/100, on even
data u0 = 0, u1 = eps (1 - (x/R)^2)^4 (the mirror steps x >= 0 only), with
R set so that the block windows of levels 100 to 300 average the target
width.  The run to level 300 and the run to level 100 sample the same data
on the same nodes, so the difference of their times over 200 levels is the
cost of one level, with the per-block work included and the set-up
excluded.  Each round times, for every path of every checkout in an order
that alternates from round to round, the two runs back to back, also in
alternating order; a figure is the median over the rounds of that
difference, which a slow spell of a shared host moves less than a
difference of two best times, and which moves every path alike.

Each case has three figures per checkout, one per path, named after it:

  kernel_two_threads  the compiled level kernel (fd._kernel) with every
                      block split between the caller and its helper thread
                      (_SPLIT_WORK at 0; each half still holds more
                      nodes than its block has levels): null
                      where the checkout has no split or the process may
                      use one CPU only;
  kernel_one_thread   the compiled kernel with no block split, the path of
                      a process that may use one CPU (null where it does
                      not build);
  numpy_loop          the numpy level loop, the path of general exponents,
                      linear mode and hosts without a C compiler, run here
                      by standing in None for the kernel.

With ``--baseline`` the siwave package of a second checkout is loaded
under a name of its own and measured in the same rounds.

A shared host may give the second CPU no time of its own, and then the
two-thread figures show no gain; the report says, before and after the
rounds, what share of a CPU each of two busy processes got
(second_cpu_share: about 1 for a full second CPU, 0.5 for none).

The result goes to the JSON file, with the host it ran on.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import math
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from _harness import _host, _package, _revision, _second_cpu  # noqa: E402

DX = 0.01
FIRST, LAST = 100, 300  # the levels whose cost is measured
WINDOWS = (250, 400, 1000, 2500)
REPEAT = 31  # rounds per figure
PATHS = ("kernel_two_threads", "kernel_one_thread", "numpy_loop")


class _Checkout:
    """The FD runs of the cases, made with the siwave package ``pkg``."""

    def __init__(self, pkg):
        self.fd = importlib.import_module(pkg.__name__ + ".fd")
        self.pkg = pkg
        p2 = pkg.ScaleInvariantParams(2.0, 0.0)
        self.p2 = p2
        self.systems = {
            "shared": pkg.SystemParams(p2, p2, p=1.5, q=2.0),
            "unequal": pkg.SystemParams(p2, pkg.ScaleInvariantParams(3.0, 0.75), p=1.5, q=2.0),
        }
        cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
        self.paths = {
            "kernel_two_threads": (
                self.fd._kernel() is not None and hasattr(self.fd, "_SPLIT_WORK") and len(cpus) > 1
            ),
            "kernel_one_thread": self.fd._kernel() is not None,
            "numpy_loop": True,
        }

    def run(self, m: int, coefficients: str, R: float, levels: int) -> None:
        """One censored lifespan run to ``levels`` on the nodes of a run to LAST."""
        grid = self.pkg.GridSpec(dx=DX, cfl=1.0, x_max=R + LAST * DX + 0.5, t_max=levels * DX)

        def u1(x: float) -> float:
            s = 1.0 - (x / R) ** 2
            return s**4 if s > 0.0 else 0.0

        data = self.pkg.CauchyProfile(u0=lambda x: 0.0, u1=u1, R=R, eps=1e-3)
        if m == 1:
            record = self.fd.detect_lifespan(self.p2, data, 1.5, grid, threshold=math.inf)
        else:
            system = self.systems[coefficients]
            record = self.fd.detect_lifespan_system(system, data, data, grid, threshold=math.inf)
        if record.blow_up:
            raise RuntimeError(f"the {m}-component run blew up at t = {record.T_est}")

    @contextlib.contextmanager
    def path(self, name: str):
        """The runs of this block step on path ``name``."""
        fd = self.fd
        saved = {key: getattr(fd, key) for key in ("_kernel", "_SPLIT_WORK") if hasattr(fd, key)}
        if name == "kernel_two_threads":
            fd._SPLIT_WORK = 0
        elif name == "kernel_one_thread":
            fd._SPLIT_WORK = math.inf
        else:
            fd._kernel = lambda: None
        try:
            yield
        finally:
            for key, value in saved.items():
                setattr(fd, key, value)


def _gap(first, last, r: int) -> float:
    """The time of ``last`` minus that of ``first``, the two timed back to
    back, ``first`` first in even rounds."""
    times = {}
    for f in (first, last) if r % 2 == 0 else (last, first):
        t0 = time.perf_counter()
        f()
        times[f] = time.perf_counter() - t0
    return times[last] - times[first]


def _case(checkouts: dict, m: int, coefficients: str, window: int) -> dict:
    # a mirrored block window spans R/dx + 1 nodes plus the levels up to
    # its block's last one: about half a block past the level on average
    block = next(iter(checkouts.values())).fd._BLOCK
    R = (window - 1 - (FIRST + LAST) // 2 - block // 2) * DX
    levels = LAST - FIRST

    def timed(label: str, name: str, r: int) -> float:
        co = checkouts[label]
        with co.path(name):
            return _gap(lambda: co.run(m, coefficients, R, FIRST),
                        lambda: co.run(m, coefficients, R, LAST), r)

    gaps = {(label, name): [] for label, co in checkouts.items() for name in PATHS if co.paths[name]}
    for r in range(REPEAT):
        for label, name in list(gaps)[:: 1 if r % 2 == 0 else -1]:
            gaps[label, name].append(timed(label, name, r))
    case: dict = {"m": m, "coefficients": coefficients, "window_nodes": window}
    for label in checkouts:
        case[label] = {
            f"{name}_us_per_level": (
                round(statistics.median(gaps[label, name]) / levels * 1e6, 2)
                if (label, name) in gaps else None
            )
            for name in PATHS
        }
    return case


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", default=None, help="root of a second checkout to measure alongside")
    parser.add_argument("--out", default=str(ROOT / "BENCH_fd_level.json"))
    args = parser.parse_args()
    roots = {"checkout": ROOT} | ({"baseline": Path(args.baseline).resolve()} if args.baseline else {})
    checkouts = {label: _Checkout(_package(path, label)) for label, path in roots.items()}
    second_cpu = [_second_cpu()]
    cases = []
    for m, coefficients in ((1, "shared"), (2, "shared"), (2, "unequal")):
        for window in WINDOWS:
            case = _case(checkouts, m, coefficients, window)
            for label in checkouts:
                figures = ", ".join(
                    f"{name} " + ("none" if (v := case[label][f"{name}_us_per_level"]) is None
                                  else f"{v:.2f}")
                    for name in PATHS
                )
                print(f"{label:>8} m={m} {coefficients:<8} window {window:>5}: {figures} us/level",
                      flush=True)
            cases.append(case)
    second_cpu.append(_second_cpu())
    print(f"share of a CPU each of two busy processes gets, before and after: {second_cpu}")
    report = {
        "metric": "fd.us_per_level",
        "unit": "us",
        "method": (
            f"median over {REPEAT} rounds of the time of a run to level {LAST} minus that "
            f"of a run to level {FIRST}, the two back to back in alternating order, over "
            f"{LAST - FIRST} levels, every path of every checkout timed in each round in "
            "alternating order; cfl = 1, dx = 0.01, mirrored even data; "
            "<path>_us_per_level for the paths kernel_two_threads (every block split between "
            "the caller and a helper thread), kernel_one_thread and numpy_loop; null where a "
            "path does not run"
        ),
        "host": _host(),
        "second_cpu_share": second_cpu,
        "revisions": {label: _revision(path) for label, path in roots.items()},
        "cases": cases,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
