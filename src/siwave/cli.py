"""Command-line front end.

Subcommands:

  exponents        print delta/gamma/sigma, the shifted critical exponents,
                   and (with --p/--q) the critical-curve classification and
                   lifespan rates
  kernels          tabulate E/K0/K1 on a light-cone sample and report the
                   empirical lower-bound minima
  solve-linear     evaluate the representation-formula solution on a grid
                   and write the field CSV
  solve-semilinear run the finite-difference solver once, report the
                   lifespan record, optionally write the field CSV
  sweep            run an eps-sweep from a JSON config, write CSV (and an
                   optional SVG chart), print the scaling fit
  sequences        emit iteration-sequence tables and the divergence
                   threshold for the chosen regime
  comparison       closed-form comparison blow-up point

Exit codes: 0 success, 1 usage error, 2 configuration error, 3 runtime or
convergence failure.  Relative output paths resolve against
$SIWAVE_OUTPUT_DIR when it is set.
"""

from __future__ import annotations

import argparse
import math
import sys as _sys

import numpy as np

from .comparison import ComparisonFrame, comparison_blowup_z
from .experiments import SweepConfig, resolve_output_path, run_sweep, write_sweep_svg
from .fd import lifespan_records_to_csv, solve_semilinear_field
from .grids import FLOAT_FMT, GridSpec
from .hypergeom import ConvergenceError
from .iteration import (
    critical_sequences,
    cusp_sequences,
    divergence_threshold,
    lifespan_rate_system,
    subcritical_sequences,
)
from .kernels import (
    _E, _data_kernels, _distance, _zeta, light_cone_sample, verify_kernel_lower_bounds,
)
from .linear import QuadratureError, solve_linear_field
from .params import (
    ScaleInvariantParams,
    SystemParams,
    classify_system,
    cusp_exponents,
    fujita,
    glassey,
    params_with_sigma,
    predicted_lifespan_exponent,
    strauss,
)
from .profiles import bump_profile, zero_source

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _add_single_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mu", type=float, required=True, help="damping strength")
    parser.add_argument("--nu2", type=float, required=True, help="mass-squared strength")


def _add_data_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--R", type=float, default=1.0, help="data support radius")
    parser.add_argument("--eps", type=float, default=0.1, help="data amplitude")
    parser.add_argument("--amplitude", type=float, default=1.0, help="bump height")
    parser.add_argument(
        "--u0-zero", action="store_true",
        help="use zero initial position (required when delta < 1)",
    )


def _add_grid_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dx", type=float, default=0.02)
    parser.add_argument("--cfl", type=float, default=0.9)
    parser.add_argument("--t-max", type=float, default=4.0)
    parser.add_argument("--x-max", type=float, default=None, help="default R + t_max + dx")


def _grid_from_args(args) -> GridSpec:
    x_max = args.x_max if args.x_max is not None else args.R + args.t_max + args.dx
    return GridSpec(dx=args.dx, cfl=args.cfl, x_max=x_max, t_max=args.t_max)


def _cmd_exponents(args) -> int:
    # every input is checked before the first line is printed: a failing
    # command writes nothing to stdout
    params = ScaleInvariantParams(mu=args.mu, nu2=args.nu2)
    n = args.n
    if n < 1:
        raise ValueError(f"need space dimension n >= 1, got {n}")
    if args.q is not None and args.p is None:
        raise ValueError("--q requires --p")
    d = n + params.sigma
    pred = None
    if args.p is not None and args.q is None:
        pred = predicted_lifespan_exponent(n, params, args.p)
    if args.q is not None:
        mu2 = args.mu2 if args.mu2 is not None else args.mu
        nu22 = args.nu22 if args.nu22 is not None else args.nu2
        sys_params = SystemParams(
            comp1=params, comp2=ScaleInvariantParams(mu=mu2, nu2=nu22), p=args.p, q=args.q
        )
        report = classify_system(n, sys_params)
        # the cusp point needs n+sigma > 1 on both components
        cusp = None
        if n + min(sys_params.sigma1, sys_params.sigma2) > 1:
            cusp = cusp_exponents(n, sys_params.sigma1, sys_params.sigma2)
        sys_pred = lifespan_rate_system(n, sys_params)
    print(f"mu={params.mu} nu2={params.nu2} n={n}")
    print(f"delta = {params.delta:.12g}")
    print(f"gamma = {params.gamma:.12g}")
    print(f"sigma = {params.sigma:.12g}")
    print(f"shifted dimension n+sigma = {d:.12g}")
    if d > 1:
        print(f"glassey(n+sigma) = {glassey(d):.12g}")
        print(f"strauss(n+sigma) = {strauss(d):.12g}")
    else:
        print("glassey(n+sigma) = inf (dimension <= 1)")
        print("strauss(n+sigma) = inf (dimension <= 1)")
    print(f"fujita(n+sigma)  = {fujita(d):.12g}")
    if pred is not None:
        if pred.regime == "none":
            print(f"p={args.p}: no blow-up prediction (above the shifted Glassey exponent)")
        elif pred.regime == "algebraic":
            print(f"p={args.p}: algebraic lifespan rate, T <~ eps^(-{pred.rate:.12g})")
        else:
            print(f"p={args.p}: exponential lifespan rate, log T <~ eps^(-{pred.rate:.12g})")
    if args.q is not None:
        print(f"system: sigma1={sys_params.sigma1:.12g} sigma2={sys_params.sigma2:.12g}")
        print(f"Lambda(n+sigma1,p,q) = {report.lambda1:.12g}")
        print(f"Lambda(n+sigma2,q,p) = {report.lambda2:.12g}")
        print(f"Omega = {report.omega:.12g}  regime = {report.regime}")
        if cusp is None:
            print("cusp exponents: undefined (n+sigma <= 1 on a component)")
        else:
            print(
                f"cusp exponents: p~={cusp.p:.12g} q~={cusp.q:.12g} "
                f"({'admissible' if cusp.admissible else 'inadmissible'})"
            )
        if sys_pred.regime == "none":
            print("lifespan: no prediction (supercritical)")
        elif sys_pred.regime == "algebraic":
            print(f"lifespan: T <~ eps^(-{sys_pred.rate:.12g})  [{sys_pred.branch}]")
        else:
            print(f"lifespan: log T <~ eps^(-{sys_pred.rate:.12g})  [{sys_pred.branch}]")
    return EXIT_OK


def _cmd_kernels(args) -> int:
    params = ScaleInvariantParams(mu=args.mu, nu2=args.nu2)
    sample = light_cone_sample(t_max=args.t_max, n_t=args.nt, n_b=args.nb, n_y=args.ny)
    report = verify_kernel_lower_bounds(params, sample)
    print(f"sampled {report.n_points} light-cone points up to t={args.t_max}")
    print(f"sigma = {report.sigma:.12g}")
    print(f"c_K1  = {report.c_K1:.12g}")
    print(f"c_E   = {report.c_E:.12g}")
    if report.c_mix is None:
        print("c_mix = n/a (delta < 1)")
    else:
        print(f"c_mix = {report.c_mix:.12g}")
    print(f"all strictly positive: {report.all_positive}")
    if args.out:
        path = resolve_output_path(args.out)
        t, b, y = sample.t, sample.b, sample.y
        w = y - sample.x
        mix, k1 = _data_kernels(params, t, w)
        columns = (
            t, np.full_like(t, sample.x), b, y, _zeta(t - b, w, _distance(t + b + 2.0, w)),
            _E(params, t, b, w), mix - params.mu * k1, k1,
        )
        with open(path, "w", encoding="ascii") as handle:
            handle.write("t,x,b,y,zeta,E,K0,K1\n")
            for row in zip(*(c.tolist() for c in columns)):
                handle.write(",".join(FLOAT_FMT % v for v in row) + "\n")
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_solve_linear(args) -> int:
    params = ScaleInvariantParams(mu=args.mu, nu2=args.nu2)
    if params.delta < 1.0 and not args.u0_zero:
        raise ValueError("delta < 1 requires --u0-zero (zero initial position)")
    data = bump_profile(R=args.R, eps=args.eps, amplitude=args.amplitude, u0_zero=args.u0_zero)
    grid = _grid_from_args(args)
    field = solve_linear_field(params, data, zero_source(), grid, qtol=args.qtol)
    path = resolve_output_path(args.out)
    field.to_csv(path)
    print(f"wrote {len(field.times)} x {len(field.xs)} nodes to {path}")
    return EXIT_OK


def _cmd_solve_semilinear(args) -> int:
    params = ScaleInvariantParams(mu=args.mu, nu2=args.nu2)
    if params.delta < 1.0 and not args.u0_zero:
        raise ValueError("delta < 1 requires --u0-zero (zero initial position)")
    data = bump_profile(R=args.R, eps=args.eps, amplitude=args.amplitude, u0_zero=args.u0_zero)
    grid = _grid_from_args(args)
    field, record = solve_semilinear_field(
        params, data, args.p, grid, threshold=args.threshold, store_every=args.store_every
    )
    if record.blow_up:
        print(f"blow-up detected: T_est = {record.T_est:.6g} (threshold {record.threshold_used:g})")
    else:
        print(f"no blow-up before t_max = {grid.t_max} (censored: T >= t_max)")
    if args.out:
        path = resolve_output_path(args.out)
        lifespan_records_to_csv([record], path)
        print(f"wrote record to {path}")
    if args.field_out:
        path = resolve_output_path(args.field_out)
        field.to_csv(path)
        print(f"wrote field ({len(field.times)} rows) to {path}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            config = SweepConfig.from_json(handle.read())
    except FileNotFoundError as exc:
        raise ValueError(f"config file not found: {exc.filename}") from exc
    result = run_sweep(config)
    n_blow = sum(r.blow_up for r in result.records)
    print(f"ran {len(result.records)} eps values, {n_blow} blow-ups")
    print(f"records written to {resolve_output_path(config.output_path)}")
    if result.monotonicity_violations:
        print(f"monotonicity violations (grid artifacts) at eps: "
              f"{list(result.monotonicity_violations)}")
    if result.fit is None:
        print(f"scaling fit: {result.fit_note}")
    else:
        fit = result.fit
        print(
            f"scaling fit ({fit.regime}): slope = {fit.slope:.4f}, predicted = "
            f"{fit.predicted_slope:.4f}, r2 = {fit.r2:.4f}, within +-{fit.pass_band:.0%} "
            f"band: {fit.within_band}"
        )
        if fit.regime == "algebraic":
            print(f"upper-bound constant: T_est <= {fit.upper_bound_constant:.4g} "
                  f"* eps^({fit.predicted_slope:.4g})")
    if args.svg:
        write_sweep_svg(result, resolve_output_path(args.svg))
        print(f"wrote chart to {resolve_output_path(args.svg)}")
    return EXIT_OK


def _cmd_sequences(args) -> int:
    # the divergence point is checked before any output: a bad --z or --R
    # prints no table
    if args.z is not None and not all(math.isfinite(v) and v > 0 for v in (args.z, args.R)):
        raise ValueError(f"need finite z > 0 and R > 0, got z={args.z}, R={args.R}")
    comp1 = params_with_sigma(args.sigma1)
    comp2 = params_with_sigma(args.sigma2)
    sys_params = SystemParams(comp1=comp1, comp2=comp2, p=args.p, q=args.q)
    common = dict(M=args.M, eps=args.eps, jmax=args.jmax, C=args.C, K=args.K, raw=args.raw)
    if args.mode == "subcritical":
        seq = subcritical_sequences(args.n, sys_params, **common)
        header = "j,alpha,beta,logC"
        rows = zip(seq.alphas, seq.betas, seq.logCs)
        print(f"A={seq.A:.12g} B={seq.B:.12g} Chat={seq.Chat:.12g} j0={seq.j0}")
    elif args.mode == "critical":
        seq = critical_sequences(args.n, sys_params, **common)
        header = "j,ell,theta,logD"
        rows = zip(seq.ells, seq.thetas, seq.logDs)
        print(f"Dhat={seq.Dhat:.12g} j1={seq.j1}")
    else:
        seq = cusp_sequences(args.n, sys_params, **common)
        header = "j,rho,logE"
        rows = zip(seq.rhos, seq.logEs)
        print(f"Ehat={seq.Ehat:.12g} j2={seq.j2}")
    if seq.regime_mismatch:
        print("warning: parameters are off the exact regime set (raw sequences)")
    lines = [header] + [
        ",".join([str(j)] + [FLOAT_FMT % v for v in row]) for j, row in enumerate(rows)
    ]
    if args.out:
        path = resolve_output_path(args.out)
        with open(path, "w", encoding="ascii") as handle:
            handle.write("\n".join(lines) + "\n")
        print(f"wrote {path}")
    else:
        print("\n".join(lines))
    if args.z is not None and seq.regime_mismatch:
        print(f"note: no divergence verdict at z={args.z}: raw off-regime sequences "
              "carry no threshold", file=_sys.stderr)
    elif args.z is not None:
        verdict = divergence_threshold(seq, z=args.z, R=args.R)
        print(
            f"divergence bracket at z={args.z}: {verdict.bracket:.6g} "
            f"(diverges: {verdict.diverges}, threshold {verdict.regime[:4]}* = "
            f"{verdict.threshold:.6g})"
        )
    return EXIT_OK


def _cmd_comparison(args) -> int:
    frame = ComparisonFrame(M=args.M, C=args.C, p=args.p, a=args.a, R=args.R)
    z_star = comparison_blowup_z(frame, eps=args.eps)
    if math.isinf(z_star):
        print("no blow-up from comparison (a > 1 or degenerate constants)")
    else:
        label = " (immediate blow-up regime)" if z_star < 2 * frame.R else ""
        print(f"comparison blow-up point z* = {z_star:.10g}{label}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="siwave",
        description="numerical laboratory for blow-up in scale-invariant damped wave models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("exponents", help="coefficient algebra and critical exponents")
    _add_single_params(p_exp)
    p_exp.add_argument("--n", type=int, default=1)
    p_exp.add_argument("--p", type=float, default=None)
    p_exp.add_argument("--q", type=float, default=None)
    p_exp.add_argument("--mu2", type=float, default=None, help="second component damping")
    p_exp.add_argument("--nu22", type=float, default=None, help="second component mass")
    p_exp.set_defaults(func=_cmd_exponents)

    p_ker = sub.add_parser("kernels", help="kernel values and empirical bound minima")
    _add_single_params(p_ker)
    p_ker.add_argument("--t-max", type=float, default=20.0)
    p_ker.add_argument("--nt", type=int, default=12)
    p_ker.add_argument("--nb", type=int, default=8)
    p_ker.add_argument("--ny", type=int, default=8)
    p_ker.add_argument("--out", default=None, help="CSV path for the sampled table")
    p_ker.set_defaults(func=_cmd_kernels)

    p_lin = sub.add_parser("solve-linear", help="representation-formula field solve")
    _add_single_params(p_lin)
    _add_data_args(p_lin)
    _add_grid_args(p_lin)
    p_lin.add_argument("--qtol", type=float, default=1e-9)
    p_lin.add_argument("--out", required=True, help="field CSV path")
    p_lin.set_defaults(func=_cmd_solve_linear)

    p_fd = sub.add_parser("solve-semilinear", help="finite-difference blow-up run")
    _add_single_params(p_fd)
    p_fd.add_argument("--p", type=float, required=True)
    _add_data_args(p_fd)
    _add_grid_args(p_fd)
    p_fd.add_argument("--threshold", type=float, default=1e8)
    p_fd.add_argument("--store-every", type=int, default=1)
    p_fd.add_argument("--out", default=None, help="lifespan record CSV")
    p_fd.add_argument("--field-out", default=None, help="field CSV")
    p_fd.set_defaults(func=_cmd_solve_semilinear)

    p_sw = sub.add_parser("sweep", help="eps-sweep from a JSON config")
    p_sw.add_argument("--config", required=True)
    p_sw.add_argument("--svg", default=None, help="optional SVG chart path")
    p_sw.set_defaults(func=_cmd_sweep)

    p_seq = sub.add_parser("sequences", help="iteration-sequence tables")
    p_seq.add_argument("--mode", choices=("subcritical", "critical", "cusp"), required=True)
    p_seq.add_argument("--p", type=float, required=True)
    p_seq.add_argument("--q", type=float, required=True)
    p_seq.add_argument("--n", type=int, default=1)
    p_seq.add_argument("--sigma1", type=float, required=True)
    p_seq.add_argument("--sigma2", type=float, required=True)
    p_seq.add_argument("--jmax", type=int, default=10)
    p_seq.add_argument("--M", type=float, default=1.0)
    p_seq.add_argument("--C", type=float, default=1.0)
    p_seq.add_argument("--K", type=float, default=1.0)
    p_seq.add_argument("--eps", type=float, default=0.1)
    p_seq.add_argument("--raw", action="store_true", help="build sequences off-regime")
    p_seq.add_argument("--z", type=float, default=None, help="evaluate divergence bracket here")
    p_seq.add_argument("--R", type=float, default=1.0)
    p_seq.add_argument("--out", default=None)
    p_seq.set_defaults(func=_cmd_sequences)

    p_cmp = sub.add_parser("comparison", help="closed-form comparison blow-up point")
    p_cmp.add_argument("--M", type=float, default=1.0)
    p_cmp.add_argument("--C", type=float, default=1.0)
    p_cmp.add_argument("--p", type=float, required=True)
    p_cmp.add_argument("--a", type=float, required=True)
    p_cmp.add_argument("--R", type=float, default=1.0)
    p_cmp.add_argument("--eps", type=float, required=True)
    p_cmp.set_defaults(func=_cmd_comparison)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_CONFIG
    except (ConvergenceError, QuadratureError) as exc:
        print(f"convergence failure: {exc}", file=_sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
