"""The driver of the ``tools/*_cost.py`` scripts.

A tool hands :func:`main` its docstring, its report's file name, a case
class, a number of rounds, its metric and method text, and a function that
turns the timings into its figures.  :func:`main` then

* parses ``--baseline CHECKOUT`` and ``--out FILE``;
* builds the case class on this checkout's siwave package and, with
  ``--baseline``, on the second checkout's, each package imported under a
  name of its own (``siwave_checkout``, ``siwave_baseline``) so that both
  run in one process;
* warms up: calls every timer of every case once, untimed, then takes each
  case's answers;
* times the cases in rounds: in each round every timer runs on each
  checkout in turn, the checkout order alternating from round to round, so
  that a slow spell of a shared host moves both alike;
* compares the two checkouts' answers (:func:`_move`);
* writes the report, whose header (metric, method, host, revisions) is the
  same in every ``BENCH_*.json``, and prints each timer's medians and their
  ratio.

A case class is called with a siwave package and has ``timers``, a dict of
name -> ``f(r)`` that runs one case in round ``r`` and returns its seconds,
with the same names on both checkouts, and optionally ``answers()``, which
returns name -> numbers to compare.

Uses numpy and the standard library only.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


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


def _seconds(f: Callable) -> float:
    t0 = time.perf_counter()
    f()
    return time.perf_counter() - t0


def _move(a, b) -> float:
    """The largest relative move of a value from ``a`` to ``b``: 0.0 where
    the two are bit-identical, NaN where their bits differ but no value
    moves (a zero's sign, a NaN)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape == b.shape and a.tobytes() == b.tobytes():
        return 0.0
    move = float(np.max(np.abs(a - b) / np.maximum(np.abs(a), np.finfo(float).tiny)))
    return move if move > 0.0 else math.nan


def main(doc: str, out: str, case: Callable, rounds: int, metric: str, method: str,
         body: Callable) -> int:
    """Measure ``case`` and write the report to ``out`` under the root of
    this checkout (or to --out).  ``body(cases, samples, moves)`` returns the
    report's figures from the cases by label, their seconds by label and
    timer (one per round) and, with a baseline, the moves of the answers by
    name (None without one)."""
    parser = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    parser.add_argument("--baseline", default=None, help="root of a second checkout to measure alongside")
    parser.add_argument("--out", default=str(ROOT / out))
    args = parser.parse_args()
    checkouts = {"checkout": ROOT} | ({"baseline": Path(args.baseline).resolve()} if args.baseline else {})
    cases = {label: case(_package(path, label)) for label, path in checkouts.items()}
    for c in cases.values():
        for timer in c.timers.values():
            timer(0)
    answers = {label: getattr(c, "answers", dict)() for label, c in cases.items()}
    samples = {label: {name: [] for name in c.timers} for label, c in cases.items()}
    for r in range(rounds):
        order = list(cases)[:: 1 if r % 2 == 0 else -1]
        for name in cases["checkout"].timers:
            for label in order:
                samples[label][name].append(cases[label].timers[name](r))
    moves = None
    if "baseline" in cases:
        moves = {name: _move(answers["baseline"][name], value) for name, value in answers["checkout"].items()}
    for name in cases["checkout"].timers:
        medians = {label: statistics.median(s[name]) for label, s in samples.items()}
        ratio = f", ratio {medians['checkout'] / medians['baseline']:.3f}" if moves is not None else ""
        print(f"{name}: " + ", ".join(f"{label} {m * 1e6:.2f} us" for label, m in medians.items()) + ratio,
              flush=True)
    if moves:
        print(f"largest relative move of an answer from the baseline: {moves}", flush=True)
    report = {
        "metric": metric,
        "method": (f"median over {rounds} rounds in one process; in each round every case runs on each "
                   "checkout in turn, the checkout order alternating from round to round; " + method),
        "host": _host(),
        "revisions": {label: _revision(path) for label, path in checkouts.items()},
        **body(cases, samples, moves),
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="ascii")
    print(f"wrote {args.out}")
    return 0
