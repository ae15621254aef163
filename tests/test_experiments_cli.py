"""Sweep orchestration, config round-trips, CSV determinism, CLI exit codes."""

import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.special

from siwave.cli import main
from siwave.experiments import (
    SweepConfig,
    resolve_output_path,
    run_sweep,
    write_sweep_svg,
)
from siwave.grids import FLOAT_FMT, GridSpec
from siwave.iteration import lifespan_rate_system
from siwave.kernels import _data_kernels, _E, light_cone_sample
from siwave.params import ScaleInvariantParams


def _tiny_config(out_path, eps_grid=(0.5, 0.25), refine=False, dx=1.0 / 25):
    return SweepConfig(
        model="single",
        mu=2.0,
        nu2=0.0,
        p=1.5,
        eps_grid=eps_grid,
        grid=GridSpec(dx=dx, cfl=1.0, x_max=13.5, t_max=12.0),
        R=1.0,
        amplitude=8.0,
        threshold=1e8,
        refine=refine,
        output_path=str(out_path),
    )


def test_config_json_round_trip(tmp_path):
    config = _tiny_config(tmp_path / "out.csv", eps_grid=(0.5, 0.2, 0.1), refine=True)
    assert SweepConfig.from_json(config.to_json()) == config
    payload = json.loads(config.to_json())
    assert payload["grid"]["dx"] == 1.0 / 25
    assert payload["eps_grid"] == [0.5, 0.2, 0.1]


def test_config_validation():
    grid = GridSpec(dx=0.05, cfl=1.0, x_max=9.5, t_max=8.0)
    with pytest.raises(ValueError, match="decreasing"):
        SweepConfig(model="single", mu=2.0, nu2=0.0, p=1.5,
                    eps_grid=(0.1, 0.5), grid=grid)
    with pytest.raises(ValueError, match="empty"):
        SweepConfig(model="single", mu=2.0, nu2=0.0, p=1.5, eps_grid=(), grid=grid)
    with pytest.raises(ValueError, match="u0_zero"):
        SweepConfig(model="single", mu=1.0, nu2=0.0, p=1.5,
                    eps_grid=(0.5,), grid=grid)  # delta = 0 needs u0_zero
    with pytest.raises(ValueError, match="model"):
        SweepConfig(model="other", mu=2.0, nu2=0.0, p=1.5, eps_grid=(0.5,), grid=grid)
    with pytest.raises(ValueError, match="light cone"):
        SweepConfig(model="single", mu=2.0, nu2=0.0, p=1.5, eps_grid=(0.5,),
                    grid=GridSpec(dx=0.05, cfl=1.0, x_max=2.0, t_max=8.0))


def test_sweep_runs_fits_and_writes_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    result = run_sweep(_tiny_config(out, eps_grid=(0.5, 0.35, 0.25), refine=True, dx=1.0 / 50))
    assert len(result.records) == 3
    assert all(r.blow_up for r in result.records)
    # eps decreasing -> lifespans nondecreasing
    ts = [r.T_est for r in result.records]
    assert ts == sorted(ts)
    assert result.monotonicity_violations == ()
    assert result.fit is not None
    assert result.fit.regime == "algebraic"
    assert result.fit.predicted_slope == -1.0
    assert result.fit.n_used == 3
    assert result.prediction.branch is None
    lines = out.read_text().splitlines()
    assert lines[0] == "eps,T_est,blow_up,threshold,dx,cfl,converged"
    assert len(lines) == 4


def test_sweep_deterministic_csv(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_sweep(_tiny_config(out1))
    run_sweep(_tiny_config(out2))
    assert out1.read_bytes() == out2.read_bytes()


#: CSV of the three largest criterion-9 amplitudes on the criterion-9 domain
#: at dx = 1/100, as written by the FD stepper that updated the whole grid.
CRITERION9_DX100_CSV = (
    b"eps,T_est,blow_up,threshold,dx,cfl,converged\n"
    b"0.5,4.7800000000000002,true,100000000,0.01,1,true\n"
    b"0.28117066259517454,7.4199999999999999,true,100000000,0.01,1,true\n"
    b"0.15811388300841897,11.620000000000001,true,100000000,0.01,1,true\n"
)


def test_windowed_sweep_csv_matches_full_grid_bytes(tmp_path):
    # the light-cone window must not move a single bit of the sweep output
    out = tmp_path / "c9.csv"
    config = SweepConfig(
        model="single", mu=2.0, nu2=0.0, p=1.5,
        eps_grid=tuple(0.5 * 10.0 ** (-k / 4.0) for k in range(3)),
        grid=GridSpec(dx=1.0 / 100, cfl=1.0, x_max=93.5, t_max=92.0),
        R=1.0, amplitude=8.0, threshold=1e8, refine=True, output_path=str(out),
    )
    run_sweep(config)
    assert out.read_bytes() == CRITERION9_DX100_CSV


#: CSV of the seed-0 coupled-system benchmark sweep (p = 1.5, q = 2 on a
#: domain tight to t_max), sha256 prefix 1197d159a2b5e3fb.
SYSTEM_SWEEP_CSV = (
    b"eps,T_est,blow_up,threshold,dx,cfl,converged\n"
    b"0.25,7.3550000000000004,true,100000000,0.01,1,true\n"
    b"0.17677669529663687,11.835000000000001,true,100000000,0.01,1,true\n"
    b"0.125,19.684999999999999,true,100000000,0.01,1,true\n"
)


def test_system_sweep_csv_bytes_pinned(tmp_path):
    # both components and both Richardson grids must keep every output bit
    out = tmp_path / "system.csv"
    config = SweepConfig(
        model="system", mu=2.0, nu2=0.0, mu2=2.0, nu22=0.0, p=1.5, q=2.0,
        eps_grid=(0.25, 0.25 / math.sqrt(2.0), 0.125),
        grid=GridSpec(dx=1.0 / 100, cfl=1.0, x_max=25.0, t_max=24.0),
        R=1.0, amplitude=8.0, threshold=1e8, refine=True, output_path=str(out),
    )
    run_sweep(config)
    assert out.read_bytes() == SYSTEM_SWEEP_CSV


@pytest.mark.parametrize("threshold", [math.nan, 0.0, -1.0])
def test_config_rejects_bad_threshold(tmp_path, threshold):
    config = _tiny_config(tmp_path / "out.csv")
    with pytest.raises(ValueError, match="threshold must be > 0"):
        replace(config, threshold=threshold)
    payload = json.loads(config.to_json())
    payload["threshold"] = threshold
    with pytest.raises(ValueError, match="threshold must be > 0"):
        SweepConfig.from_json(json.dumps(payload))


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("p", 0.5, "p must be finite and > 1"),
        ("p", math.nan, "p must be finite and > 1"),
        ("eps_grid", [math.nan], "eps_grid values must be finite"),
        ("amplitude", math.nan, "amplitude must be finite and > 0"),
        ("amplitude", -1.0, "amplitude must be finite and > 0"),
        ("R", 0.0, "R must be finite and > 0"),
        ("R", -1.0, "R must be finite and > 0"),
    ],
    ids=[
        "p-half", "p-nan", "eps-nan", "amplitude-nan", "amplitude-negative", "R-zero", "R-negative",
    ],
)
def test_config_rejects_bad_exponent_eps_and_amplitude(tmp_path, capsys, name, value, message):
    payload = json.loads(_tiny_config(tmp_path / "out.csv").to_json())
    payload[name] = value
    text = json.dumps(payload)
    with pytest.raises(ValueError, match=message):
        SweepConfig.from_json(text)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    assert main(["sweep", "--config", str(cfg_path)]) == 2
    assert message in capsys.readouterr().err


def test_all_censored_sweep_has_no_fit(tmp_path):
    config = SweepConfig(
        model="single", mu=2.0, nu2=0.0, p=1.5,
        eps_grid=(2e-4, 1e-4),
        grid=GridSpec(dx=1.0 / 25, cfl=1.0, x_max=3.5, t_max=2.0),
        amplitude=0.1,
        refine=False,
        output_path=str(tmp_path / "censored.csv"),
    )
    result = run_sweep(config)
    assert all(not r.blow_up for r in result.records)
    assert result.fit is None
    assert "usable" in result.fit_note


def test_system_sweep_smoke(tmp_path):
    config = SweepConfig(
        model="system", mu=2.0, nu2=0.0, mu2=2.0, nu22=0.0, p=1.5, q=1.5,
        eps_grid=(0.5, 0.25),
        grid=GridSpec(dx=1.0 / 25, cfl=1.0, x_max=13.5, t_max=12.0),
        amplitude=8.0,
        refine=False,
        output_path=str(tmp_path / "system.csv"),
    )
    result = run_sweep(config)
    assert all(r.blow_up for r in result.records)
    assert result.prediction.regime == "algebraic"
    # the system prediction passes through whole, branch label included
    assert result.prediction == lifespan_rate_system(1, config.system_params())
    assert result.prediction.branch == "omega_positive"


def test_svg_writer(tmp_path):
    result = run_sweep(_tiny_config(tmp_path / "c.csv", eps_grid=(0.5, 0.35, 0.25)))
    path = tmp_path / "chart.svg"
    write_sweep_svg(result, str(path))
    text = path.read_text()
    assert text.startswith("<svg") and "polyline" in text


def test_resolve_output_path_env(tmp_path, monkeypatch):
    monkeypatch.setenv("SIWAVE_OUTPUT_DIR", str(tmp_path))
    assert resolve_output_path("x.csv") == str(tmp_path / "x.csv")
    assert resolve_output_path("/abs/x.csv") == "/abs/x.csv"
    monkeypatch.delenv("SIWAVE_OUTPUT_DIR")
    assert resolve_output_path("x.csv") == "x.csv"


def test_cli_exponents(capsys):
    assert main(["exponents", "--mu", "2", "--nu2", "0", "--n", "1"]) == 0
    out = capsys.readouterr().out
    assert "sigma = 2" in out
    assert "glassey(n+sigma) = 2" in out


def test_cli_exponents_system(capsys):
    code = main(["exponents", "--mu", "2", "--nu2", "0", "--n", "1",
                 "--p", "2", "--q", "2", "--mu2", "2", "--nu22", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "regime = cusp" in out
    assert "p~=2" in out


def test_cli_exponents_system_without_cusp_point(capsys):
    # n + sigma = 1 on both components: the cusp point is undefined, but the
    # classification and the lifespan rate are not
    code = main(["exponents", "--mu", "0", "--nu2", "0", "--n", "1", "--p", "2", "--q", "2"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert "Omega = 1  regime = subcritical\n" in captured.out
    assert "cusp exponents: undefined (n+sigma <= 1 on a component)\n" in captured.out
    assert "lifespan: T <~ eps^(-1)  [omega_positive]\n" in captured.out


@pytest.mark.parametrize(
    "args, message",
    [
        (["--p", "nan"], "need finite p > 1"),
        (["--p", "1"], "need finite p > 1"),
        (["--n", "0"], "need space dimension n >= 1"),
        (["--n", "0", "--p", "2"], "need space dimension n >= 1"),
        (["--p", "2", "--q", "nan"], "exponent q must be finite"),
        (["--q", "2"], "--q requires --p"),
    ],
    ids=["p-nan", "p-one", "n-zero", "n-zero-with-p", "q-nan", "q-without-p"],
)
def test_cli_exponents_bad_input_prints_nothing(capsys, args, message):
    assert main(["exponents", "--mu", "2", "--nu2", "0", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize(
    "mode, args, digest",
    [
        # C = 1e4 puts j0 at 1 and z = 10 past the threshold t* = 5.89
        ("subcritical", ["--sigma1", "0", "--sigma2", "0", "--C", "1e4", "--z", "10"],
         "2e0be09c76f037822805095c3f5bb90c6e25f3299baf2b046b8b8c6cac2345be"),
        # K = 1000 puts j1 at 1 and z = 20 past the threshold z* = 4.83
        ("critical", ["--sigma1", "2", "--sigma2", "4", "--K", "1000", "--eps", "0.5",
                      "--z", "20"],
         "aff782d76b22a850792463ee66bcd7243caf30b6ae47a5ae2f69ec6cd39b2353"),
        ("cusp", ["--sigma1", "2", "--sigma2", "2", "--z", "2"],
         "71d0f5ff535d75dc3f48a6add8604fbc9938b6d07c09668e4d0e56ee8cd5d3b4"),
    ],
    ids=["subcritical", "critical", "cusp"],
)
def test_cli_sequences_table(capsys, mode, args, digest):
    code = main(["sequences", "--mode", mode, "--p", "2", "--q", "2", "--n", "1",
                 "--jmax", "10", *args])
    assert code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    if mode == "cusp":
        assert "j,rho,logE" in out
        # rho_j = 4^j - 1
        assert "\n3,63," in out


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--eps", "nan", "eps must be finite and > 0"),
        ("--C", "inf", "C must be finite and > 0"),
        ("--jmax", "-1", "jmax must be an integer >= 0"),
        ("--z", "nan", "need finite z > 0 and R > 0"),
        ("--R", "nan", "need finite z > 0 and R > 0"),
    ],
    ids=["eps-nan", "C-inf", "jmax-negative", "z-nan", "R-nan"],
)
def test_cli_sequences_rejects_bad_induction_input(capsys, flag, value, message):
    args = {"--z": "2", flag: value}
    code = main(["sequences", "--mode", "cusp", "--p", "2", "--q", "2", "--sigma1", "2",
                 "--sigma2", "2", *(v for kv in args.items() for v in kv)])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--z", "nan"), ("--z", "-1"), ("--R", "nan")])
def test_cli_sequences_bad_divergence_point_prints_no_table(capsys, flag, value):
    args = {"--z": "2", flag: value}
    code = main(["sequences", "--mode", "cusp", "--p", "2", "--q", "2", "--sigma1", "2",
                 "--sigma2", "2", "--jmax", "3", *(v for kv in args.items() for v in kv)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "need finite z > 0 and R > 0" in captured.err


def test_cli_sequences_subcritical_led_by_lambda2_asks_for_relabelling(capsys):
    # (p, q) = (1.5, 2) is subcritical, but on the lambda2 branch; the
    # swapped system (2, 1.5) is the one the induction runs on
    argv = ["sequences", "--mode", "subcritical", "--sigma1", "2", "--sigma2", "2",
            "--jmax", "3"]
    assert main(argv + ["--p", "1.5", "--q", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not 'subcritical'" not in captured.err
    assert "the lambda2 branch dominates (lambda1 = 0.25 < lambda2 = 0.5)" in captured.err
    assert "swap p<->q and sigma1<->sigma2" in captured.err
    assert main(argv + ["--p", "2", "--q", "1.5"]) == 0


@pytest.mark.parametrize(
    "mode, p, q, sigma, regime",
    [("cusp", "2", "2", "0", "in regime 'subcritical', not 'cusp'"),
     ("subcritical", "1.5", "2", "2", "the lambda2 branch dominates")],
    ids=["off-regime", "lambda2-branch"],
)
def test_cli_sequences_regime_error_names_the_raw_flag(capsys, mode, p, q, sigma, regime):
    code = main(["sequences", "--mode", mode, "--p", p, "--q", q, "--sigma1", sigma,
                 "--sigma2", sigma, "--jmax", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert regime in captured.err
    assert "pass raw=True (--raw on the command line) to build the sequences anyway" in (
        captured.err
    )


def test_cli_sequences_raw_off_regime_notes_the_dropped_z(capsys):
    # sigma2 = 1 puts (p, q) = (2, 2) off the critical set; raw sequences
    # carry no divergence threshold, so --z gets a note on stderr and
    # leaves stdout as it is without it
    argv = ["sequences", "--mode", "critical", "--p", "2", "--q", "2", "--sigma1", "2",
            "--sigma2", "1", "--jmax", "3", "--raw"]
    assert main(argv) == 0
    plain = capsys.readouterr()
    assert main(argv + ["--z", "3"]) == 0
    with_z = capsys.readouterr()
    assert "off the exact regime set" in with_z.out
    assert with_z.out == plain.out
    assert plain.err == ""
    assert with_z.err == (
        "note: no divergence verdict at z=3.0: raw off-regime sequences carry no threshold\n"
    )


def test_cli_unknown_subcommand_is_usage_error(capsys):
    assert main(["no-such-command"]) == 1
    assert main([]) == 1
    assert main(["verify"]) == 1


def test_cli_bad_config_is_config_error(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["sweep", "--config", missing]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"model": "single"}))
    assert main(["sweep", "--config", str(bad)]) == 2
    # sweeps run at n = 1 on bump data; a config naming either is stale
    for key, value in (("family", "smooth_bump"), ("n", 1)):
        payload = json.loads(_tiny_config(tmp_path / "out.csv").to_json())
        assert key not in payload
        payload[key] = value
        bad.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["sweep", "--config", str(bad)]) == 2
        assert "invalid sweep config" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_readme_sweep_config_loads():
    # the documented JSON example must stay a valid config
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("### Sweep configs"):]
    block = section[section.index("```json\n") + len("```json\n"):]
    text = block[:block.index("```")]
    config = SweepConfig.from_json(text)
    assert set(json.loads(text)) == set(json.loads(config.to_json()))


def test_cli_sweep_round_trip(tmp_path, capsys):
    config = _tiny_config(tmp_path / "cli_sweep.csv")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(config.to_json())
    svg_path = tmp_path / "cli_sweep.svg"
    assert main(["sweep", "--config", str(cfg_path), "--svg", str(svg_path)]) == 0
    out = capsys.readouterr().out
    assert "2 blow-ups" in out
    assert (tmp_path / "cli_sweep.csv").exists()
    assert svg_path.exists()


def test_cli_solve_linear_writes_field(tmp_path, capsys):
    out = tmp_path / "field.csv"
    code = main([
        "solve-linear", "--mu", "2", "--nu2", "0", "--R", "1", "--eps", "0.3",
        "--dx", "0.25", "--cfl", "1.0", "--t-max", "1.0", "--out", str(out),
    ])
    assert code == 0
    assert out.read_text().startswith("t,x,u,ut")


def test_cli_solve_semilinear(tmp_path, capsys):
    out = tmp_path / "record.csv"
    code = main([
        "solve-semilinear", "--mu", "2", "--nu2", "0", "--p", "1.5",
        "--eps", "0.5", "--amplitude", "8", "--dx", "0.04", "--cfl", "1.0",
        "--t-max", "8.0", "--out", str(out),
    ])
    assert code == 0
    assert "blow-up detected" in capsys.readouterr().out
    assert out.read_text().splitlines()[0].startswith("eps,")


KERNEL_TABLE_SAMPLE = dict(t_max=6.0, n_t=3, n_b=2, n_y=4)


def _kernel_table(tmp_path, capsys) -> list[str]:
    out = tmp_path / "kernels.csv"
    code = main([
        "kernels", "--mu", "3", "--nu2", "0", "--t-max", "6",
        "--nt", "3", "--nb", "2", "--ny", "4", "--out", str(out),
    ])
    assert code == 0
    assert "sampled 24 light-cone points" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x,b,y,zeta,E,K0,K1"
    assert len(lines) == 1 + 3 * 2 * 4
    return lines[1:]


def test_cli_kernels_writes_sample_table(tmp_path, capsys):
    rows = _kernel_table(tmp_path, capsys)
    params = ScaleInvariantParams(3.0, 0.0)
    sample = light_cone_sample(**KERNEL_TABLE_SAMPLE)
    t, b, w = sample.t, sample.b, sample.y - sample.x
    mix, k1 = _data_kernels(params, t, w)
    kernels = zip(_E(params, t, b, w).tolist(), (mix - params.mu * k1).tolist(), k1.tolist())
    for row, pt, (e, k0, k1_) in zip(rows, sample, kernels, strict=True):
        # zeta in plain float arithmetic, in the factored form
        d, s, r = pt.y - pt.x, pt.t - pt.b, pt.t + pt.b + 2.0
        zeta = max(0.0, (s + d) * (s - d) / ((r + d) * (r - d)))
        want = (pt.t, pt.x, pt.b, pt.y, zeta, e, k0, k1_)
        assert row == ",".join(FLOAT_FMT % v for v in want)


def test_cli_kernel_table_matches_scipy_oracle(tmp_path, capsys):
    # the closed forms of E, K1 and K0 = (K0 + mu*K1) - mu*K1, with the
    # hypergeometric factors from scipy.special.hyp2f1
    table = np.array([[float(v) for v in row.split(",")] for row in _kernel_table(tmp_path, capsys)])
    t, x, b, y = table[:, :4].T
    mu, gamma = 3.0, ScaleInvariantParams(3.0, 0.0).gamma
    w = y - x
    den = ((t + b + 2.0) + w) * ((t + b + 2.0) - w)
    zeta = ((t - b) + w) * ((t - b) - w) / den
    e = (
        (1.0 + t) ** (-0.5 * mu + gamma) * (1.0 + b) ** (0.5 * mu + gamma) * den**-gamma
        * scipy.special.hyp2f1(gamma, gamma, 1.0, zeta)
    )
    den0 = ((t + 2.0) + w) * ((t + 2.0) - w)
    zeta0 = (t + w) * (t - w) / den0
    f1 = scipy.special.hyp2f1(gamma, gamma, 1.0, zeta0)
    f2 = scipy.special.hyp2f1(gamma + 1.0, gamma + 1.0, 2.0, zeta0)
    prefactor = (1.0 + t) ** (-0.5 * mu + gamma) * den0**-gamma
    k1 = prefactor * f1
    mix = prefactor * (
        (0.5 * mu - gamma) * f1
        + 2.0 * gamma * (t + 2.0) / den0 * f1
        - 4.0 * gamma**2 * (1.0 + t) * (w * w - t * (t + 2.0)) / (den0 * den0) * f2
    )
    for k, name, oracle in ((5, "E", e), (6, "K0", mix - mu * k1), (7, "K1", k1)):
        np.testing.assert_allclose(table[:, k], oracle, rtol=1e-12, atol=0.0, err_msg=name)


def test_cli_store_every_must_be_positive(capsys):
    code = main([
        "solve-semilinear", "--mu", "2", "--nu2", "0", "--p", "1.5",
        "--dx", "0.1", "--t-max", "2.0", "--store-every", "0",
    ])
    assert code == 2
    assert "store_every must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--R", "nan", "support radius must be finite"),
        ("--R", "inf", "support radius must be finite"),
        ("--eps", "nan", "eps must be finite"),
        ("--threshold", "nan", "threshold must be > 0"),
        ("--threshold", "-1", "threshold must be > 0"),
    ],
    ids=["R-nan", "R-inf", "eps-nan", "threshold-nan", "threshold-negative"],
)
def test_cli_rejects_non_finite_data_and_bad_threshold(capsys, flag, value, message):
    code = main([
        "solve-semilinear", "--mu", "2", "--nu2", "0", "--p", "1.5",
        "--dx", "0.1", "--t-max", "2.0", flag, value,
    ])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("p", ["nan", "inf", "-1", "1"])
def test_cli_solve_semilinear_rejects_bad_exponent(capsys, p):
    code = main([
        "solve-semilinear", "--mu", "2", "--nu2", "0", "--p", p, "--eps", "0.5",
        "--dx", "0.1", "--t-max", "2.0",
    ])
    assert code == 2
    assert "p must be finite and > 1" in capsys.readouterr().err


def test_cli_kernels_terminating_kernel_far_out(capsys):
    # mu = 4, nu2 = 0 gives gamma = -1, so the kernels' series terminate;
    # at t ~ 2e6 their arguments sit within 1e-6 of z = 1
    code = main([
        "kernels", "--mu", "4", "--nu2", "0", "--t-max", "2000000",
        "--nt", "2", "--nb", "2", "--ny", "2",
    ])
    assert code == 0
    assert "sampled 8 light-cone points" in capsys.readouterr().out


def test_cli_kernels_rejects_nan_coefficient(capsys):
    assert main(["kernels", "--mu", "nan", "--nu2", "0"]) == 2
    assert "mu must be finite" in capsys.readouterr().err


def test_cli_sweep_rejects_nan_threshold(tmp_path, capsys):
    payload = json.loads(_tiny_config(tmp_path / "out.csv").to_json())
    payload["threshold"] = math.nan
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(payload))
    assert main(["sweep", "--config", str(cfg_path)]) == 2
    assert "threshold must be > 0" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--M", "--C", "--p", "--a", "--R"])
def test_cli_comparison_rejects_nan_frame_constant(capsys, flag):
    args = {"--p": "2", "--a": "0", "--eps": "0.1", flag: "nan"}
    assert main(["comparison", *(v for kv in args.items() for v in kv)]) == 2
    assert f"frame {flag[2:]} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--qtol", "nan"), ("--qtol", "inf")])
def test_cli_solve_linear_rejects_non_finite_qtol(tmp_path, capsys, flag, value):
    code = main([
        "solve-linear", "--mu", "2", "--nu2", "0", "--dx", "0.25", "--t-max", "1.0",
        flag, value, "--out", str(tmp_path / "field.csv"),
    ])
    assert code == 2
    assert "qtol must be finite" in capsys.readouterr().err
    assert not (tmp_path / "field.csv").exists()


@pytest.mark.parametrize("command", ["solve-linear", "solve-semilinear"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_rejects_non_finite_amplitude(tmp_path, capsys, command, value):
    # a configuration error, not a convergence failure or a first-level blow-up
    exponent = ["--p", "1.5"] if command == "solve-semilinear" else []
    code = main([
        command, "--mu", "3", "--nu2", "0", *exponent, "--amplitude", value,
        "--dx", "0.25", "--t-max", "1.0", "--out", str(tmp_path / "out.csv"),
    ])
    assert code == 2
    assert "bump amplitude must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_cli_delta_below_one_requires_zero_u0(capsys):
    code = main([
        "solve-semilinear", "--mu", "1", "--nu2", "0", "--p", "1.5",
        "--dx", "0.1", "--t-max", "2.0",
    ])
    assert code == 2
    assert "u0-zero" in capsys.readouterr().err


def test_cli_comparison_point(capsys):
    code = main(["comparison", "--p", "2", "--a", "0", "--eps", "0.1"])
    assert code == 0
    assert "z* = 11" in capsys.readouterr().out
