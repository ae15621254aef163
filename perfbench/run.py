"""siwave benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout; siwave is imported from ./src.
Workloads (see workloads.py and BENCHMARK.json): single_sweep,
system_sweep, kernel_routes.

With ``--trace 0`` it starts the workload four times only to set it up and
once to measure, each a fresh process with numpy/BLAS threads pinned to 1,
and prints the end-to-end metrics:

    setup_s       fresh process to inputs built (import siwave/scipy/mpmath,
                  configs, profiles); median over the five processes
    wall_s        median time of one full pass (the workload's complete answer)
    op_p50_s      median time per operation over the run's operations
    op_p90_s      p90 time per operation (the table says how many of the
                  run's operations lie beyond it)
    ok_frac       share of attempted operations that neither raised nor
                  failed their correctness check
    peak_rss_mib  peak resident set of the measuring process

The last line carries setup_s, wall_s, ok_frac and peak_rss_mib.  The op
percentiles are the cost of one or two op classes of a handful of
deterministic ops, and on a shared host they spread by more than any
regression bound could allow, so they are printed here and reported as
ops.p50_s / ops.p90_s by the traced run, but not gated.

With ``--trace 1`` it reports the per-layer metrics of a traced run.  A
human-readable table precedes the last line, which is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from worker import p90

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("single_sweep", "system_sweep", "kernel_routes")
SETUP_PROBES = 4
DEADLINE_S = 170.0
GATED = ("setup_s", "wall_s", "ok_frac", "peak_rss_mib")
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _worker(args, extra, deadline):
    """Start a worker; return (seconds until READY, its last stdout line)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), *extra,
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest, _ = proc.communicate()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise SystemExit(f"worker failed (exit {proc.returncode})")
    lines = rest.strip().splitlines()
    return setup, lines[-1] if lines else ""


def _quantiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def end_to_end(setups, result):
    walls, ops = result["wall_s"], result["op_s"]
    attempted = result["attempted"]
    ok = (attempted - result["failed"]) / attempted
    rss = result["peak_rss_mib"]
    rows = [
        ("setup_s", "s", statistics.median(setups), setups),
        ("wall_s", "s", statistics.median(walls), walls),
        ("op_p50_s", "s", statistics.median(ops), ops),
        ("op_p90_s", "s", p90(ops), ops),
        ("ok_frac", "1", ok, [ok] * attempted),
        ("peak_rss_mib", "MiB", rss, [rss]),
    ]
    print(f"{'metric':<14}{'unit':<6}{'value':>12}{'q1':>12}{'q3':>12}{'n':>6}")
    for name, unit, value, samples in rows:
        q1, q3 = _quantiles(samples)
        print(f"{name:<14}{unit:<6}{value:>12.6g}{q1:>12.6g}{q3:>12.6g}{len(samples):>6}")
    beyond = sum(t > p90(ops) for t in ops)
    print(f"op_p90_s: {beyond} of {len(ops)} operations lie beyond it")
    print("op_p50_s and op_p90_s are printed, not gated (per_layer ops.* in a traced run)")
    return {name: {"value": value, "unit": unit} for name, unit, value, _ in rows if name in GATED}


def per_layer(result):
    units = {
        entry["name"]: entry["unit"]
        for entry in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    }
    metrics = result["per_layer"]
    for name, value in metrics.items():
        print(f"{name:<32}{units.get(name, '?'):<8}{value:>14.6g}")
    shares = {k.split(".")[0]: v for k, v in metrics.items() if k.endswith(".self_s")}
    print("self time share of the traced pass: " + ", ".join(
        f"{layer} {value / metrics['trace.wall_s']:.1%}"
        for layer, value in sorted(shares.items(), key=lambda kv: -kv[1])
    ))
    return {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "siwave" / "__init__.py").is_file():
        print(f"no siwave sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(_worker(args, ["--setup-only"], deadline)[0])
    setup, line = _worker(args, [], deadline)
    setups.append(setup)
    result = json.loads(line)
    for message in result["failures"]:
        print(f"FAILED: {message}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    metrics = per_layer(result) if args.trace else end_to_end(setups, result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
