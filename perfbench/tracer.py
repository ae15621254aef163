"""Span tracer for the siwave benchmark, installed from outside the package.

The tracer replaces, for the duration of a traced pass, every function that
one ``siwave`` module imports from another (in the importing module's
namespace, e.g. ``siwave.kernels.hyp2f1_grid`` or ``siwave.linear._E_scalar``)
and the entry points a workload calls (in their defining module).  Each
call records a span: name, start, end and parent.  Samplers of the profiles
and source terms a pass uses are wrapped as ``profiles.sample`` spans.

Spans live in flat arrays in memory and are written to disk only when the
run ends.  A span's self time is its duration minus the durations of its
direct children; a layer is the module that defines the called function.
The root span of each pass belongs to no layer, so the self times of all
spans of a pass add up exactly to the pass's traced wall time.

Counts that a layer's work implies (FD node-steps, hypergeometric
arguments, kernel sample sizes) are computed at the same boundaries from
the call's arguments and result; they are derived, not timed.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import math
import time
from array import array
from contextlib import contextmanager

import numpy as np

MODULES = (
    "params", "hypergeom", "kernels", "profiles", "grids", "linear",
    "fd", "comparison", "iteration", "experiments", "cli", "selfcheck",
)

#: Layers that get metrics of their own; params/grids do microsecond work
#: and cli/selfcheck are wrappers, so their spans count as "other".
REPORTED_LAYERS = (
    "fd", "profiles", "hypergeom", "kernels", "linear",
    "iteration", "comparison", "experiments",
)

FD_ENTRIES = ("detect_lifespan", "detect_lifespan_system", "solve_semilinear_field")
KERNEL_SCALAR = ("kernels.kernel_K0_K1", "kernels._E_scalar")


def _steps_reached(grid, t_end: float) -> int:
    """Leapfrog steps a run took before stopping at t_end (inf: censored)."""
    n = grid.n_steps()
    if not math.isfinite(t_end):
        return n
    return min(n, int(round(t_end / grid.dt)))


def _fd_work(grid, R: float, t_end: float, components: int) -> tuple[float, float]:
    """(node_steps, active node_steps) of one stepping loop.

    After k steps the numerical solution vanishes outside
    |x| <= R + (k+1) dx, so those nodes are the active ones.
    """
    nodes = len(grid.xs())
    steps = _steps_reached(grid, t_end)
    k = np.arange(1, steps + 1)
    active = np.minimum(nodes, 2.0 * np.floor((R + (k + 1) * grid.dx) / grid.dx) + 1.0)
    return components * nodes * steps, components * float(active.sum())


class Tracer:
    """Records spans around calls into siwave's layers (see module docstring)."""

    def __init__(self, entries: tuple[str, ...]):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict[str, float] = {}
        self._seen_errors: set[int] = set()
        self._targets = self._discover(entries)
        self._installed: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    @staticmethod
    def _discover(entries):
        targets = []
        for short in MODULES:
            mod = importlib.import_module("siwave." + short)
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__.startswith("siwave.")
                    and obj.__module__ != mod.__name__
                ):
                    targets.append((mod, attr, obj))
        for entry in entries:
            short, attr = entry.split(".")
            mod = importlib.import_module("siwave." + short)
            targets.append((mod, attr, getattr(mod, attr)))
        return targets

    def install(self) -> None:
        for mod, attr, fn in self._targets:
            name = fn.__module__.removeprefix("siwave.") + "." + fn.__name__
            self._installed.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, self._wrap(fn, name, self._after(name, fn)))

    def uninstall(self) -> None:
        while self._installed:
            mod, attr, previous = self._installed.pop()
            setattr(mod, attr, previous)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- spans ----------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, name: str, after=None):
        nid = self._nid(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack,
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                end[idx] = clock()
                stack.pop()
                self._note_error(name, exc)
                raise
            end[idx] = clock()
            stack.pop()
            if after is not None:
                result = after(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def root(self, name: str):
        """Root span of one pass; returns the index range of its spans."""
        first = len(self.name_id)
        self._stack.append(first)
        self.name_id.append(self._nid(name))
        self.parent.append(-1)
        self.end.append(0.0)
        self.counters = {}
        span = {"first": first}
        self.start.append(time.perf_counter())
        try:
            yield span
        finally:
            self.end[first] = time.perf_counter()
            self._stack.pop()
            span["last"] = len(self.name_id)
            span["counters"] = self.counters

    def sampler(self, fn):
        return self._wrap(fn, "profiles.sample")

    def profile(self, prof):
        """Copy of a CauchyProfile whose samplers record spans."""
        d_u0 = None if prof.d_u0 is None else self.sampler(prof.d_u0)
        return dataclasses.replace(
            prof, u0=self.sampler(prof.u0), u1=self.sampler(prof.u1), d_u0=d_u0
        )

    def source(self, src):
        return dataclasses.replace(src, f=self.sampler(src.f))

    # -- derived counts at the boundaries ---------------------------------

    def _count(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def _note_error(self, name: str, exc: Exception) -> None:
        if id(exc) in self._seen_errors:
            return
        self._seen_errors.add(id(exc))
        self._count(f"errors.{name.split('.')[0]}.{type(exc).__name__}", 1)

    def _after(self, name: str, fn):
        layer, func = name.split(".", 1)
        if layer == "fd" and func in FD_ENTRIES:
            return functools.partial(self._after_fd, inspect.signature(fn))
        if name == "hypergeom.hyp2f1":
            return self._after_hyp2f1
        if name == "hypergeom.hyp2f1_grid":
            return self._after_hyp2f1_grid
        if name == "kernels.verify_kernel_lower_bounds":
            return self._after_bounds
        if name == "profiles.bump_profile":
            return lambda args, kwargs, result: self.profile(result)
        return None

    def _after_fd(self, signature, args, kwargs, result):
        call = signature.bind(*args, **kwargs).arguments
        if "sys" in call:
            R = max(call["data1"].R, call["data2"].R)
            components = 2
        else:
            R = call["data"].R
            components = 1
        record = result[1] if isinstance(result, tuple) else result
        grid = call["grid"]
        if record.richardson_pair is None:
            passes = [(grid, record.T_est, False)]
        else:
            coarse, fine = record.richardson_pair
            fine_grid = dataclasses.replace(grid, dx=0.5 * grid.dx)
            passes = [(grid, coarse, False), (fine_grid, fine, True)]
        for g, t_end, is_fine in passes:
            total, active = _fd_work(g, R, t_end, components)
            self._count("fd.node_steps", total)
            self._count("fd.active_node_steps", active)
            if is_fine:
                self._count("fd.fine_node_steps", total)
        return result

    def _after_hyp2f1(self, args, kwargs, result):
        z = args[3] if len(args) > 3 else kwargs["z"]
        self._count("hypergeom.z_count", 1)
        self._count("hypergeom.z_gt_half", z > 0.5)
        self._count("hypergeom.inv_one_minus_z", 1.0 / (1.0 - z))
        return result

    def _after_hyp2f1_grid(self, args, kwargs, result):
        z = np.asarray(args[3] if len(args) > 3 else kwargs["z"], dtype=float)
        self._count("hypergeom.grid_points", z.size)
        self._count("hypergeom.z_count", z.size)
        self._count("hypergeom.z_gt_half", int(np.count_nonzero(z > 0.5)))
        self._count("hypergeom.inv_one_minus_z", float(np.sum(1.0 / (1.0 - z))))
        return result

    def _after_bounds(self, args, kwargs, result):
        self._count("kernels.bound_points", result.n_points)
        return result

    # -- aggregation ----------------------------------------------------

    def pass_summary(self, span: dict) -> dict:
        """Per-name self/inclusive time and call counts of one pass's spans."""
        lo, hi = span["first"], span["last"]
        # slices copy, so the arrays never export their buffers while growing
        nid = np.frombuffer(self.name_id[lo:hi], dtype=np.int32)
        par = np.frombuffer(self.parent[lo:hi], dtype=np.int32)
        dur = np.frombuffer(self.end[lo:hi]) - np.frombuffer(self.start[lo:hi])
        child = par >= 0
        local_parent = par[child] - lo
        child_sum = np.bincount(local_parent, weights=dur[child], minlength=hi - lo)
        self_t = dur - child_sum
        layer_of = np.array([n.split(".")[0] for n in self.names])
        span_layer = layer_of[nid]
        parent_layer = np.where(child, layer_of[nid[np.where(child, par - lo, 0)]], "")
        top_of_layer = span_layer != parent_layer
        n_names = len(self.names)
        return {
            "counters": span["counters"],
            "wall": float(dur[0]),
            "spans": hi - lo,
            "self": dict(zip(self.names, np.bincount(nid, weights=self_t, minlength=n_names).tolist())),
            "incl": dict(zip(
                self.names,
                np.bincount(nid[top_of_layer], weights=dur[top_of_layer], minlength=n_names).tolist(),
            )),
            "calls": dict(zip(self.names, np.bincount(nid, minlength=n_names).tolist())),
            "nested_kernel_calls": int(np.count_nonzero(
                np.isin(nid, [self._ids[n] for n in KERNEL_SCALAR if n in self._ids])
                & (parent_layer == "linear")
            )),
        }

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
