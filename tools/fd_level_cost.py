"""Cost of one level of the FD stepper on its two paths, and of the bare
ufunc calls the numpy path makes.

    python3 tools/fd_level_cost.py [--out BENCH_fd_level.json]

Run from the root of a source checkout; siwave is imported from ./src.
Uses numpy and the standard library only.

Cases: a single equation (m = 1, mu = 2, p = 1.5) and a coupled system
(m = 2, p = 1.5, q = 2) whose components share (mu, nu2) = (2, 0) or differ,
(2, 0) and (3, 0.75), each at windows of about 400, 1,000 and 2,500 nodes.
A case is a censored lifespan run at cfl = 1, dx = 1/100, on even data
u0 = 0, u1 = eps (1 - (x/R)^2)^4 (the mirror steps x >= 0 only), with R set
so that the block windows of levels 100 to 300 average the target width.
The run to level 300 and the run to level 100 sample the same data on the
same nodes, so the difference of their times over 200 levels is the cost
of one level, with the per-block work included and the set-up excluded.
Each round times the two runs back to back, in alternating order; the
figure is the median over the rounds of that difference, which a slow
spell of a shared host moves less than a difference of two best times.

Each case has three figures, one per path:

  kernel_us_per_level  the compiled level kernel (fd._kernel), which steps
                       these runs wherever it builds (null where it cannot);
  numpy_us_per_level   the numpy level loop, the path of general exponents,
                       linear mode and hosts without a C compiler, run here
                       by standing in None for the kernel;
  bare_ufunc_us_per_level  the ufunc calls of that numpy loop, replayed in
                       the same process (numpy ufuncs and ufunc.reduce,
                       recorded with their arguments through a stand-in for
                       the ``np`` name of siwave.fd) with the same
                       difference taken: the numpy level without the Python
                       code around its calls.  Array methods (such as
                       ndarray.max) and slice assignments are not ufunc
                       calls, so they count on the loop's side only.

The result goes to the JSON file, with the host it ran on.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from siwave import fd  # noqa: E402
from siwave.grids import GridSpec  # noqa: E402
from siwave.params import ScaleInvariantParams, SystemParams  # noqa: E402
from siwave.profiles import CauchyProfile  # noqa: E402

DX = 0.01
FIRST, LAST = 100, 300  # the levels whose cost is measured
WINDOWS = (400, 1000, 2500)
REPEAT = 31  # rounds per figure
P2 = ScaleInvariantParams(2.0, 0.0)
SYSTEMS = {
    "shared": SystemParams(P2, P2, p=1.5, q=2.0),
    "unequal": SystemParams(P2, ScaleInvariantParams(3.0, 0.75), p=1.5, q=2.0),
}


def _data(R: float) -> CauchyProfile:
    def u1(x: float) -> float:
        s = 1.0 - (x / R) ** 2
        return s**4 if s > 0.0 else 0.0

    return CauchyProfile(u0=lambda x: 0.0, u1=u1, R=R, eps=1e-3)


def _run(m: int, coefficients: str, R: float, levels: int):
    """One censored lifespan run to ``levels`` on the nodes of a run to LAST."""
    grid = GridSpec(dx=DX, cfl=1.0, x_max=R + LAST * DX + 0.5, t_max=levels * DX)
    data = _data(R)
    if m == 1:
        record = fd.detect_lifespan(P2, data, 1.5, grid, threshold=math.inf)
    else:
        system = SYSTEMS[coefficients]
        record = fd.detect_lifespan_system(system, data, data, grid, threshold=math.inf)
    if record.blow_up:
        raise RuntimeError(f"the {m}-component run blew up at t = {record.T_est}")


class _Recorder:
    """Stands in for numpy in siwave.fd and records every ufunc call."""

    def __init__(self, calls: list):
        self._calls = calls

    def __getattr__(self, name: str):
        attr = getattr(np, name)
        return _RecordedUfunc(attr, self._calls) if isinstance(attr, np.ufunc) else attr


class _RecordedUfunc:
    def __init__(self, ufunc: np.ufunc, calls: list):
        self._ufunc, self._calls = ufunc, calls

    def __call__(self, *args, **kwargs):
        self._calls.append((self._ufunc, args, kwargs))
        return self._ufunc(*args, **kwargs)

    @property
    def reduce(self):
        def reduce(*args, **kwargs):
            self._calls.append((self._ufunc.reduce, args, kwargs))
            return self._ufunc.reduce(*args, **kwargs)

        return reduce


def _numpy_path(run):
    """``run`` with the numpy level loop: None stands in for the kernel."""

    def on_numpy(*args):
        kernel, fd._kernel = fd._kernel, lambda: None
        try:
            return run(*args)
        finally:
            fd._kernel = kernel

    return on_numpy


def _recorded(m: int, coefficients: str, R: float, levels: int) -> list:
    calls: list = []
    fd.np = _Recorder(calls)
    try:
        _numpy_path(_run)(m, coefficients, R, levels)
    finally:
        fd.np = np
    return calls


def _replay(calls: list) -> None:
    for call, args, kwargs in calls:
        call(*args, **kwargs)


def _median_gap(first, last) -> float:
    """Median over REPEAT rounds of the time of ``last`` minus that of
    ``first``, the two timed back to back in alternating order."""
    gaps = []
    for r in range(REPEAT):
        times = {}
        for f in (first, last) if r % 2 == 0 else (last, first):
            t0 = time.perf_counter()
            f()
            times[f] = time.perf_counter() - t0
        gaps.append(times[last] - times[first])
    return statistics.median(gaps)


def _case(m: int, coefficients: str, window: int) -> dict:
    # a mirrored block window spans R/dx + 1 nodes plus the levels up to
    # its block's last one: about 16 past the level on average
    R = (window - 1 - (FIRST + LAST) // 2 - fd._BLOCK // 2) * DX
    levels = LAST - FIRST

    def per_level(run) -> float:
        gap = _median_gap(
            lambda: run(m, coefficients, R, FIRST), lambda: run(m, coefficients, R, LAST)
        )
        return round(gap / levels * 1e6, 2)

    short, long = _recorded(m, coefficients, R, FIRST), _recorded(m, coefficients, R, LAST)
    with np.errstate(all="ignore"):
        bare_gap = _median_gap(lambda: _replay(short), lambda: _replay(long))
    return {
        "m": m,
        "coefficients": coefficients,
        "window_nodes": window,
        "kernel_us_per_level": per_level(_run) if fd._kernel() is not None else None,
        "numpy_us_per_level": per_level(_numpy_path(_run)),
        "bare_ufunc_us_per_level": round(bare_gap / levels * 1e6, 2),
        "ufunc_calls_per_level": round((len(long) - len(short)) / levels, 2),
    }


def _host() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "node": platform.node(),
        "cpu": cpu,
        "cpus_allowed": (
            len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        ),
        "system": f"{platform.system()} {platform.release()}",
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_fd_level.json"))
    args = parser.parse_args()
    cases = []
    for m, coefficients in ((1, "shared"), (2, "shared"), (2, "unequal")):
        for window in WINDOWS:
            case = _case(m, coefficients, window)
            kernel = case["kernel_us_per_level"]
            print(
                f"m={m} {coefficients:<8} window {window:>5}: kernel "
                + ("   none" if kernel is None else f"{kernel:7.2f}")
                + f" us/level, numpy loop {case['numpy_us_per_level']:7.2f} us,"
                f" its bare ufunc calls {case['bare_ufunc_us_per_level']:7.2f} us"
                f" ({case['ufunc_calls_per_level']:g} calls)",
                flush=True,
            )
            cases.append(case)
    report = {
        "metric": "fd.us_per_level",
        "unit": "us",
        "method": (
            f"median over {REPEAT} rounds of the time of a run to level {LAST} minus that "
            f"of a run to level {FIRST}, the two back to back in alternating order, over "
            f"{LAST - FIRST} levels; cfl = 1, dx = {DX}, mirrored even data; "
            "kernel_us_per_level: the compiled level kernel (null where it does not build), "
            "numpy_us_per_level: the numpy level loop, bare_ufunc_us_per_level: that loop's "
            "recorded ufunc calls replayed"
        ),
        "host": _host(),
        "cases": cases,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
