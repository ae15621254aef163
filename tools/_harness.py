"""What the ``tools/*_cost.py`` scripts share: the host and revision a report
names, a checkout's siwave package loaded under a name of its own, a timer,
and the share of a CPU that a second busy process gets.

Uses numpy and the standard library only.
"""

from __future__ import annotations

import importlib.util
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np


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


def _revision(checkout: Path) -> str:
    try:
        return subprocess.run(["git", "-C", str(checkout), "describe", "--always", "--dirty"],
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _package(checkout: Path, label: str):
    """The siwave package of a checkout, imported as ``siwave_<label>``."""
    init = checkout / "src" / "siwave" / "__init__.py"
    name = f"siwave_{label}"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _seconds(f) -> float:
    t0 = time.perf_counter()
    f()
    return time.perf_counter() - t0


#: A CPU-bound loop of about a quarter second.
_SPIN = "import time\nt = time.perf_counter()\nx = 0\nfor i in range(3_000_000): x += i\nprint(time.perf_counter() - t)"


def _second_cpu() -> float:
    """The share of a full CPU that each of two processes gets while both run
    the same CPU-bound loop, against one alone: about 1 where the second CPU
    gives its time, about 0.5 where the host gives the two together no more
    than one (the two-thread figures then show no gain).  The median over
    five rounds that time one process and two back to back, in alternating
    order, so that the host's speed drifting between probes taken apart
    does not read as a share."""

    def times(n: int) -> list[float]:
        procs = [subprocess.Popen([sys.executable, "-c", _SPIN], stdout=subprocess.PIPE, text=True)
                 for _ in range(n)]
        return [float(p.communicate()[0]) for p in procs]

    ratios = []
    for r in range(5):
        # the comprehension times the two probes in this order
        probes = {n: statistics.median(times(n)) for n in ((1, 2) if r % 2 == 0 else (2, 1))}
        ratios.append(probes[1] / probes[2])
    return round(statistics.median(ratios), 2)
