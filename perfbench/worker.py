"""One benchmark process: import siwave, build a workload's inputs, measure.

Started by run.py with numpy/BLAS threads pinned to 1.  It prints ``READY``
as soon as the inputs are built (run.py times the process up to that line
as set-up), then, unless ``--setup-only``, runs whole passes of the
workload for ``--seconds`` and prints one JSON line with what it measured.

Untraced runs report pass wall times, op times, failures and peak RSS.
Traced runs (``--trace 1``) spend the first half of the budget on untraced
passes (op percentiles, tracing overhead) and the second half on traced
ones, and report per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_siwave():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import siwave

    if Path(siwave.__file__).resolve().parent != src / "siwave":
        raise ImportError(f"siwave imported from {siwave.__file__}, not from {src}")


@dataclass
class Pass:
    wall: float
    op_times: list[float]
    answer: object
    errors: dict[int, str]
    summary: dict | None = None


def run_pass(workload, tracer=None):
    from workloads import OpClock

    ops = OpClock(tracer)
    if tracer is None:
        t0 = time.perf_counter()
        answer = _guarded(workload.run_pass, ops)
        wall = time.perf_counter() - t0
        summary = None
    else:
        with tracer.installed(), tracer.root("bench.pass") as span:
            answer = _guarded(workload.run_pass, ops)
        summary = tracer.pass_summary(span)
        wall = summary["wall"]
    return Pass(wall, ops.times, answer, ops.errors, summary)


def _guarded(fn, *args):
    try:
        return fn(*args)
    except Exception:  # a failed pass fails all of its operations
        traceback.print_exc(file=sys.stderr)
        return None


def _verdicts(workload, answer, errors) -> list[str | None]:
    if answer is None:
        return ["pass raised"] * workload.n_ops
    try:
        verdicts = workload.check(answer)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return ["check raised"] * workload.n_ops
    for index, message in errors.items():
        verdicts[index] = message
    return verdicts


def measure(workload, budget: float, tracer=None) -> list[Pass]:
    """Whole passes while the next one is expected to end within budget."""
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass(workload, tracer))
        elapsed = time.perf_counter() - t0
        if elapsed + passes[-1].wall > budget:
            return passes


def checked(workload, passes) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    messages = []
    for p in passes:
        verdicts = _verdicts(workload, p.answer, p.errors)
        attempted += len(verdicts)
        bad = [v for v in verdicts if v is not None]
        failed += len(bad)
        messages += bad
    return attempted, failed, messages


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def p90(values):
    """Linearly interpolated 90th percentile."""
    ordered = sorted(values)
    pos = 0.9 * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


def layer_metrics(summary: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass (see BENCHMARK.json per_layer)."""
    from tracer import FD_ENTRIES, KERNEL_SCALAR, REPORTED_LAYERS

    self_t, incl, calls, c = summary["self"], summary["incl"], summary["calls"], summary["counters"]

    def layer_self(layer):
        return sum(v for k, v in self_t.items() if k.split(".")[0] == layer)

    def layer_calls(layer, include=lambda name: True):
        return sum(v for k, v in calls.items() if k.split(".")[0] == layer and include(k))

    def layer_incl(layer):
        return sum(v for k, v in incl.items() if k.split(".")[0] == layer)

    fd_self = layer_self("fd")
    node_steps = c.get("fd.node_steps", 0.0)
    scalar_calls = calls.get("hypergeom.hyp2f1", 0)
    grid_points = c.get("hypergeom.grid_points", 0.0)
    z_count = c.get("hypergeom.z_count", 0.0)
    bound_points = c.get("kernels.bound_points", 0.0)
    bounds_self = self_t.get("kernels.verify_kernel_lower_bounds", 0.0)
    linear_points = calls.get("linear.solve_linear_point", 0)
    reported = sum(layer_self(layer) for layer in REPORTED_LAYERS)
    m = {
        "fd.calls": layer_calls("fd", lambda k: k.split(".")[1] in FD_ENTRIES),
        "fd.self_s": fd_self,
        "fd.node_steps": node_steps,
        "fd.ns_per_node_step": _ratio(fd_self, node_steps, 1e9),
        "fd.active_frac": _ratio(c.get("fd.active_node_steps", 0.0), node_steps),
        "fd.fine_frac": _ratio(c.get("fd.fine_node_steps", 0.0), node_steps),
        "profiles.sample_calls": calls.get("profiles.sample", 0),
        "profiles.self_s": layer_self("profiles"),
        "hypergeom.scalar_calls": scalar_calls,
        "hypergeom.grid_points": grid_points,
        "hypergeom.self_s": layer_self("hypergeom"),
        "hypergeom.us_per_scalar_call": _ratio(self_t.get("hypergeom.hyp2f1", 0.0), scalar_calls, 1e6),
        "hypergeom.ns_per_grid_point": _ratio(self_t.get("hypergeom.hyp2f1_grid", 0.0), grid_points, 1e9),
        "hypergeom.frac_z_gt_half": _ratio(c.get("hypergeom.z_gt_half", 0.0), z_count),
        "hypergeom.mean_terms_est": _ratio(c.get("hypergeom.inv_one_minus_z", 0.0), z_count),
        "kernels.self_s": layer_self("kernels"),
        "kernels.sample_s": self_t.get("kernels.light_cone_sample", 0.0),
        "kernels.bound_points": bound_points,
        "kernels.bounds_self_s": bounds_self,
        "kernels.ns_per_bound_point": _ratio(bounds_self, bound_points, 1e9),
        "kernels.scalar_calls": sum(calls.get(k, 0) for k in KERNEL_SCALAR),
        "kernels.scalar_self_s": sum(self_t.get(k, 0.0) for k in KERNEL_SCALAR),
        "linear.points": linear_points,
        "linear.self_s": layer_self("linear"),
        "linear.incl_s": layer_incl("linear"),
        "linear.ms_per_point": _ratio(layer_incl("linear"), linear_points, 1e3),
        "linear.integrand_evals": summary["nested_kernel_calls"],
        "linear.quad_errors": c.get("errors.linear.QuadratureError", 0.0),
        "iteration.calls": layer_calls("iteration"),
        "iteration.self_s": layer_self("iteration"),
        "comparison.calls": layer_calls("comparison"),
        "comparison.self_s": layer_self("comparison"),
        "experiments.self_s": layer_self("experiments"),
        "trace.wall_s": summary["wall"],
        "trace.other_s": summary["wall"] - reported,
        "trace.spans": summary["spans"],
    }
    return m


def hypergeom_probe() -> tuple[dict[str, float], list[str]]:
    """Median cost of hyp2f1(1/2, 1/2; 1; z) at three z, checked against scipy."""
    import scipy.special
    from siwave.hypergeom import hyp2f1

    out, failures = {}, []
    for label, z, repeats in (("z300", 0.3, 201), ("z957", 0.957, 41), ("z999", 0.999, 7)):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            value = hyp2f1(0.5, 0.5, 1.0, z)
            times.append(time.perf_counter() - t0)
        oracle = float(scipy.special.hyp2f1(0.5, 0.5, 1.0, z))
        if not math.isclose(value, oracle, rel_tol=1e-12):
            failures.append(f"hyp2f1(1/2,1/2;1;{z}) = {value} != scipy {oracle}")
        out[f"hypergeom.call_us.{label}"] = 1e6 * statistics.median(times)
    return out, failures


def sample_memory(workload) -> dict[str, float]:
    """tracemalloc peak of building the light-cone sample (kernel_routes only)."""
    args = getattr(workload, "sample_args", None)
    if args is None:
        return {"kernels.sample_mib": 0.0}
    from siwave.kernels import light_cone_sample

    tracemalloc.start()
    try:
        sample = light_cone_sample(**args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del sample
    return {"kernels.sample_mib": peak / 2**20}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    _import_siwave()
    from workloads import OUT_DIR, WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if not args.trace:
        passes = measure(workload, args.seconds)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        attempted, failed, messages = checked(workload, passes)
        result = {
            "attempted": attempted,
            "failed": failed,
            "failures": messages[:10],
            "wall_s": [p.wall for p in passes],
            "op_s": [t for p in passes for t in p.op_times],
            "peak_rss_mib": peak_kib / 1024.0,
        }
    else:
        from tracer import Tracer

        plain = measure(workload, 0.5 * args.seconds)
        tracer = Tracer(workload.entries)
        traced = measure(workload, 0.5 * args.seconds, tracer)
        attempted, failed, messages = checked(workload, plain + traced)
        per_pass = [layer_metrics(p.summary) for p in traced]
        metrics = {k: float(statistics.median(m[k] for m in per_pass)) for k in per_pass[0]}
        metrics["trace.overhead_frac"] = (
            metrics["trace.wall_s"] / statistics.median(p.wall for p in plain) - 1.0
        )
        plain_ops = [t for p in plain for t in p.op_times]
        metrics["ops.p50_s"] = statistics.median(plain_ops)
        metrics["ops.p90_s"] = p90(plain_ops)
        config = getattr(workload, "config", None)
        metrics["experiments.csv_bytes"] = Path(config.output_path).stat().st_size if config else 0
        probe, probe_failures = hypergeom_probe()
        attempted += len(probe)
        failed += len(probe_failures)
        messages += probe_failures
        metrics.update(probe)
        metrics.update(sample_memory(workload))
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(OUT_DIR / f"trace-{workload.name}.npz")
        result = {
            "attempted": attempted,
            "failed": failed,
            "failures": messages[:10],
            "per_layer": metrics,
        }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
