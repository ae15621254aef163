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
excluded.  A round times the two runs back to back, in an order that also
alternates from round to round; a figure is the median over the rounds of
that difference, which a slow spell of a shared host moves less than a
difference of two best times.

Each case has three figures per checkout, one per path, named after it:

  kernel_two_threads  the compiled level kernel (fd._kernel) with every
                      block split between the caller and its helper thread
                      (_SPLIT_WORK at 0; each half still holds more
                      nodes than its block has levels): null where the
                      process may use one CPU only;
  kernel_one_thread   the compiled kernel with no block split, the path of
                      a process that may use one CPU (null where it does
                      not build);
  numpy_loop          the numpy level loop, the path of general exponents,
                      linear mode and hosts without a C compiler, run here
                      by standing in None for the kernel.

Rounds, the baseline and the report are as in ``tools/_harness.py``.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import os
import statistics
import sys
import time

from _harness import main

DX = 0.01
FIRST, LAST = 100, 300  # the levels whose cost is measured
WINDOWS = (250, 400, 1000, 2500)
CASES = tuple((m, coefficients, window) for m, coefficients in ((1, "shared"), (2, "shared"), (2, "unequal"))
              for window in WINDOWS)
REPEAT = 31  # rounds per figure
PATHS = ("kernel_two_threads", "kernel_one_thread", "numpy_loop")


def _name(m: int, coefficients: str, window: int, path: str) -> str:
    return f"m={m} {coefficients} window {window} {path}"


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
        kernel = self.fd._kernel() is not None
        paths = {"kernel_two_threads": kernel and len(cpus) > 1, "kernel_one_thread": kernel, "numpy_loop": True}
        self.timers = {
            _name(*case, path): lambda r, case=case, path=path: self.gap(*case, path, r)
            for case in CASES for path in PATHS if paths[path]
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
        saved = fd._kernel, fd._SPLIT_WORK
        if name == "kernel_two_threads":
            fd._SPLIT_WORK = 0
        elif name == "kernel_one_thread":
            fd._SPLIT_WORK = math.inf
        else:
            fd._kernel = lambda: None
        try:
            yield
        finally:
            fd._kernel, fd._SPLIT_WORK = saved

    def gap(self, m: int, coefficients: str, window: int, path: str, r: int) -> float:
        """The time of the run to LAST minus that of the run to FIRST on path
        ``path``, the two back to back, the shorter first in rounds 0, 1, 4,
        5, ...: each checkout runs first in a round as often with either
        order, so that a slow first run after a switch of path moves both
        checkouts alike."""
        # a mirrored block window spans R/dx + 1 nodes plus the levels up to
        # its block's last one: about half a block past the level on average
        R = (window - 1 - (FIRST + LAST) // 2 - self.fd._BLOCK // 2) * DX
        times = {}
        with self.path(path):
            for levels in (FIRST, LAST) if r % 4 < 2 else (LAST, FIRST):
                t0 = time.perf_counter()
                self.run(m, coefficients, R, levels)
                times[levels] = time.perf_counter() - t0
        return times[LAST] - times[FIRST]


def _body(cases, samples, moves) -> dict:
    levels = LAST - FIRST
    return {
        "unit": "us",
        "cases": [
            {"m": m, "coefficients": coefficients, "window_nodes": window} | {
                label: {
                    f"{path}_us_per_level": (
                        round(statistics.median(s[name]) / levels * 1e6, 2)
                        if (name := _name(m, coefficients, window, path)) in s else None
                    )
                    for path in PATHS
                }
                for label, s in samples.items()
            }
            for m, coefficients, window in CASES
        ],
    }


if __name__ == "__main__":
    sys.exit(main(
        __doc__, "BENCH_fd_level.json", _Checkout, REPEAT, "fd.us_per_level",
        f"a case's figure is the time of a run to level {LAST} minus that of a run to level {FIRST}, "
        f"the two back to back in alternating order, over {LAST - FIRST} levels; cfl = 1, dx = 0.01, "
        "mirrored even data; <path>_us_per_level for the paths kernel_two_threads (every block split "
        "between the caller and a helper thread), kernel_one_thread and numpy_loop; null where a "
        "path does not run",
        _body,
    ))
