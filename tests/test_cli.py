"""Sweep front-end: CSV round-trip, determinism, manifest completeness, and
exit codes."""

import configparser
import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from optfeeder import analytics, cli, fso_link, montecarlo, specfun, system


CONFIG = """
[shadowing]
m = 1
b = 0.063
omega = 8.97e-4

[system]
gamma_bar2 = 2.7588e6

[sweep]
variable = mu_r_db
start = 20
stop = 40
step = 10
"""


@pytest.fixture()
def config_file(tmp_path):
    p = tmp_path / "scenario.ini"
    p.write_text(CONFIG)
    return str(p)


def _run(args):
    return cli.main(args)


def test_sweep_outputs_and_roundtrip(tmp_path, config_file):
    out = tmp_path / "out"
    rc = _run(["--config", config_file, "--metric", "outage",
               "--method", "exact,monte-carlo", "--gamma-th-db", "5",
               "--samples", "20000", "--seed", "7", "--out", str(out)])
    assert rc == 0
    exact_csv = out / "outage_exact.csv"
    mc_csv = out / "outage_monte_carlo.csv"
    assert exact_csv.exists() and mc_csv.exists()

    with open(exact_csv) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["sweep_value_dB"] for r in rows] == ["20.000000", "30.000000",
                                                   "40.000000"]
    # CSV round-trip reproduces the metric exactly at the printed precision
    for row in rows:
        value = float(row["value"])
        assert f"{value:.12e}" == row["value"]
        assert 0.0 <= value <= 1.0

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["sweep_variable"] == "mu_r_db"
    assert manifest["seed"] == 7
    assert manifest["scenario"]["gamma2_source"] == "explicit"
    # every default that the config did not override is recorded
    assert "atmosphere.cn2_ground" in manifest["defaults_used"]
    assert "hpa.family" in manifest["defaults_used"]
    assert "shadowing.m" not in manifest["defaults_used"]


def test_identical_runs_byte_identical(tmp_path, config_file):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["--config", config_file, "--metric", "outage",
            "--method", "monte-carlo", "--samples", "30000", "--seed", "9"]
    assert _run(args + ["--out", str(out1)]) == 0
    assert _run(args + ["--out", str(out2)]) == 0
    b1 = (out1 / "outage_monte_carlo.csv").read_bytes()
    b2 = (out2 / "outage_monte_carlo.csv").read_bytes()
    assert b1 == b2


def test_manifest_records_every_default_without_config(tmp_path):
    out = tmp_path / "out"
    rc = _run(["--metric", "moments", "--method", "exact", "--order", "1",
               "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    recorded = set(manifest["defaults_used"])
    expected = {f"{sec}.{key}" for sec, kv in cli.DEFAULTS.items()
                for key in kv}
    assert recorded == expected


def test_cli_override_flags(tmp_path, config_file):
    out = tmp_path / "o"
    rc = _run(["--config", config_file, "--metric", "ber",
               "--method", "exact", "--detection", "het",
               "--modulation", "bpsk", "--mu-r-db", "25", "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["scenario"]["feeder.detection_r"] == 1
    assert manifest["cli_overrides"]["detection"] == "heterodyne"


def test_ibo_db_override(tmp_path):
    one_point = tmp_path / "one_point.ini"
    one_point.write_text(CONFIG + "grid = 30\n")
    out = tmp_path / "ibo"
    rc = _run(["--config", str(one_point), "--metric", "moments",
               "--method", "exact", "--hpa", "sspa", "--ibo-db", "10",
               "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["cli_overrides"]["ibo_db"] == 10.0
    assert manifest["scenario"]["hpa.ibo_linear"] == 10.0
    with open(out / "moments_exact.csv") as fh:
        (row,) = list(csv.DictReader(fh))
    cp, _ = cli.load_config(str(one_point))
    fresh = cli._scenario_from_config(cp, 30.0, {"hpa": "sspa", "ibo_db": 10.0})
    assert row["scenario_fingerprint"] == fresh.fingerprint()


@pytest.mark.parametrize("error", [specfun.ConvergenceError,
                                   specfun.PoleCollisionError])
def test_numerical_failure_exit_code(tmp_path, monkeypatch, capsys, error):
    def failing(*args, **kwargs):
        raise error("forced failure")

    monkeypatch.setattr(specfun, "meijer_g_bivariate_family", failing)
    one_point = tmp_path / "one_point.ini"
    one_point.write_text(CONFIG + "grid = 30\n")
    rc = _run(["--config", str(one_point), "--metric", "outage",
               "--method", "exact", "--out", str(tmp_path / "n")])
    assert rc == 2
    cp, _ = cli.load_config(str(one_point))
    fingerprint = cli._scenario_from_config(cp, 30.0, {}).fingerprint()
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert f"scenario {fingerprint}" in err


def test_mpsk_point_matches_direct_ber(tmp_path):
    one_point = tmp_path / "one_point.ini"
    one_point.write_text(CONFIG + "grid = 30\n")
    out = tmp_path / "p"
    rc = _run(["--config", str(one_point), "--metric", "ber", "--method", "exact",
               "--detection", "het", "--modulation", "mpsk", "--mod-order", "8",
               "--out", str(out)])
    assert rc == 0
    with open(out / "ber_exact.csv") as fh:
        (row,) = list(csv.DictReader(fh))
    cp, _ = cli.load_config(str(one_point))
    scn = cli._scenario_from_config(cp, 30.0, {"detection": "heterodyne"})
    direct = analytics.ber_exact(analytics.modulation("mpsk", 8), scn)
    assert row["value"] == f"{direct:.12e}"
    assert row["scenario_fingerprint"] == scn.fingerprint()


def test_bad_config_exit_code(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[nosuchsection]\nfoo = 1\n")
    rc = _run(["--config", str(bad), "--out", str(tmp_path / "x")])
    assert rc == 1


_HET_BER = ["--metric", "ber", "--detection", "het"]


@pytest.mark.parametrize("text,argv,named", [
    ("[sweep]\nstep = 0\n", [], ""),
    ("sigma2_sq = 2\n[system]\n", [], ""),
    ("[hpa]\nibo_db = 20\n[hpa]\nibo_db = 21\n", [], ""),
    ("[system]\nuser_index = 7\n", [], ""),
    ("[system]\nuser_index = -1\n", [], ""),
    ("[pointing]\na0 = 1.0\n", [], ""),
    ("[feeder]\npath_loss_il = 1.0\n", [], ""),
    ("[feeder]\neta = 1.0\n", [], ""),
    ("[hpa]\nfamily = linear\n[system]\ngain_mode = fixed\nfixed_gain = 0\n", [], ""),
    ("", _HET_BER + ["--modulation", "mqam", "--mod-order", "1"], ""),
    ("", _HET_BER + ["--modulation", "mqam", "--mod-order", "2"], ""),
    ("", _HET_BER + ["--modulation", "mqam", "--mod-order", "32"], ""),
    ("", _HET_BER + ["--modulation", "mpsk", "--mod-order", "3"], ""),
    ("", ["--gamma-th-db", "nan", "--method", "monte-carlo", "--samples", "2000"], ""),
    ("[sweep]\ngrid = 10 nan 30\n", ["--method", "monte-carlo", "--samples", "2000"], ""),
    ("[sweep]\nstop = inf\n", [], ""),
    ("", ["--sweep", "gamma_th_db", "--mu-r-db", "nan", "--method", "oracle"], ""),
    ("", ["--gamma-th-db", "nan"], ""),
    ("", ["--ibo-db", "nan"], ""),
    ("", ["--method", "monte-carlo", "--samples", "0"], ""),
    ("", ["--metric", "moments", "--order", "0"], "order"),
    # a value that fails its check names the scenario field it reached
    ("[system]\nsigma2_sq = 0\n", [], "sigma2_sq"),
    ("[system]\nsigma2_sq = -1\n", [], "sigma2_sq"),
    ("[system]\nsigma2_sq = nan\n", [], "sigma2_sq"),
    ("[system]\nsigma2_sq = inf\n", [], "sigma2_sq"),
    ("[system]\np_g = nan\n", [], "unknown key 'p_g'"),     # the key is gone
    ("[system]\ngamma_bar2 = nan\n", [], "gamma_bar2"),
    ("", ["--sweep", "gamma_th_db", "--mu-r-db", "-4000"], "mu_r"),   # underflows to 0
    # finite, but tr[(B B^H)^-1] gbar1 overflows before the relay gain
    ("", ["--sweep", "gamma_th_db", "--mu-r-db", "3080"], "mu_r = 1e+308 overflows"),
    ("[atmosphere]\nwavelength_nm = nan\n", [], "wavelength"),
    ("[atmosphere]\nwavelength_nm = inf\n", [], "wavelength"),
    ("[atmosphere]\nbeam_radius_tx_m = nan\n", [], "beam_radius_tx"),
    ("[atmosphere]\ncn2_ground = nan\n", [], "cn2_ground"),
    ("[pointing]\nxi = nan\n", [], "xi"),
    ("[hpa]\nibo_db = nan\n", [], "ibo_db = nan"),
    ("[hpa]\nfamily = linear\nibo_db = nan\n", [], "ibo_db = nan"),
    ("[rf]\ncarrier_ghz = nan\n", [], "carrier_hz"),
    ("[rf]\ntheta_3db_deg = nan\n", [], "theta_3db_rad"),
    ("[shadowing]\nm = nan\n", [], "severity m"),
    ("[shadowing]\nb = nan\n", [], "b = nan"),
    ("[shadowing]\nomega = nan\n", [], "omega = nan"),
    # a dB input whose linear value overflows names the input
    ("", ["--sweep", "gamma_th_db", "--mu-r-db", "4000"], "mu_r_db"),
    ("", ["--ibo-db", "4000"], "ibo_db"),
    ("[hpa]\nibo_db = 4000\n", [], "ibo_db"),
    ("", ["--gamma-th-db", "4000"], "gamma_th_db"),
    ("", ["--gamma-th-db", "4000", "--method", "monte-carlo", "--samples", "2000"],
     "gamma_th_db"),
    ("[rf]\ngain_tx_dbi = 4000\n", [], "gain_tx_dbi"),
    # the config is checked in full before a flag overrides any of it
    ("[hpa]\nibo_db = 4000\n", ["--ibo-db", "10"], "ibo_db"),
    ("[feeder]\ndetection = bogus\n", ["--detection", "het"], "detection 'bogus'"),
    # a fixed gain must leave kappa finite
    ("[system]\ngain_mode = fixed\nfixed_gain = inf\n", [], "fixed_gain"),
    ("[system]\ngain_mode = fixed\nfixed_gain = 1e-160\n", [], "relay_g = 1e-160"),
    ("[system]\ngain_mode = fixed\nfixed_gain = 1e-200\n", [], "relay_g = 1e-200"),
], ids=["zero_step", "no_section_header", "duplicate_section",
        "user_index_past_last_beam", "negative_user_index", "removed_key_a0",
        "removed_key_path_loss_il", "removed_key_eta", "linear_fixed_gain_0",
        "qam_order_1", "qam_order_2", "qam_order_32", "psk_order_3",
        "gamma_th_nan_mc", "grid_nan_mc", "sweep_stop_inf", "mu_r_nan_oracle",
        "gamma_th_nan_exact", "ibo_nan", "samples_0", "order_0",
        "sigma2_sq_0", "sigma2_sq_negative", "sigma2_sq_nan", "sigma2_sq_inf", "p_g_nan",
        "gamma_bar2_nan", "mu_r_underflow", "mu_r_db_3080", "wavelength_nan", "wavelength_inf",
        "beam_radius_tx_nan",
        "cn2_ground_nan", "xi_nan", "config_ibo_nan", "linear_ibo_nan", "carrier_nan",
        "theta_3db_nan",
        "shadowing_m_nan", "shadowing_b_nan", "omega_nan",
        "mu_r_db_overflow", "ibo_db_overflow", "config_ibo_db_overflow",
        "gamma_th_db_overflow_exact", "gamma_th_db_overflow_mc", "gain_tx_dbi_overflow",
        "config_ibo_db_overflow_under_flag", "config_detection_under_flag",
        "fixed_gain_inf", "fixed_gain_1e-160", "fixed_gain_1e-200"])
def test_malformed_config_exit_code(tmp_path, capsys, text, argv, named):
    bad = tmp_path / "malformed.ini"
    bad.write_text(text)
    rc = _run(["--config", str(bad), "--out", str(tmp_path / "x")] + argv)
    assert rc == 1
    err = capsys.readouterr().err
    assert "config error" in err and named in err
    assert not (tmp_path / "x").exists()    # rejected before any output


_SUPPORTED = {
    ("outage", "exact"): "1.000000e-09",
    ("outage", "asymptotic"): "nan",
    ("outage", "oracle"): "1.000000e-08",
    ("outage", "monte-carlo"): None,
    ("ber", "exact"): "1.000000e-09",
    ("ber", "asymptotic"): "nan",
    ("ber", "monte-carlo"): None,
    ("capacity", "exact"): "1.000000e-09",
    ("capacity", "monte-carlo"): None,
    ("moments", "exact"): "1.000000e-09",
    ("moments", "monte-carlo"): None,
}
_UNSUPPORTED = [("ber", "oracle"), ("capacity", "asymptotic"),
                ("capacity", "oracle"), ("moments", "asymptotic"),
                ("moments", "oracle"), ("outage", "fastest"),
                ("outage", "exact,exact")]


@pytest.mark.parametrize("metric,method", list(_SUPPORTED) + _UNSUPPORTED)
def test_method_dispatch(tmp_path, metric, method):
    one_point = tmp_path / "one_point.ini"
    one_point.write_text(CONFIG + "grid = 30\n")
    out = tmp_path / "d"
    rc = _run(["--config", str(one_point), "--metric", metric,
               "--method", method, "--samples", "2000", "--out", str(out)])
    if (metric, method) not in _SUPPORTED:
        assert rc == 1
        assert not out.exists()     # rejected before any work
        return
    assert rc == 0
    with open(out / f"{metric}_{method.replace('-', '_')}.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["sweep_value_dB"] for r in rows] == ["30.000000"]
    assert math.isfinite(float(rows[0]["value"]))
    if _SUPPORTED[(metric, method)] is None:
        assert rows[0]["n_samples"] == "2000"
    else:
        assert rows[0]["error_estimate"] == _SUPPORTED[(metric, method)]
        assert rows[0]["n_samples"] == "0"


def test_unknown_key_exit_code(tmp_path, capsys):
    # p_r and sigma1_sq were absorbed by sigma2_sq and fixed_gain; p_g set
    # only the reported precoder constant c_zf (test_p_g_sets_only_c_zf)
    bad = tmp_path / "bad2.ini"
    for section, key in [("hpa", "wattage"), ("hpa", "p_r"), ("feeder", "sigma1_sq"),
                         ("system", "p_g")]:
        bad.write_text(f"[{section}]\n{key} = 11\n")
        rc = _run(["--config", str(bad), "--out", str(tmp_path / "x")])
        assert rc == 1
        assert f"unknown key {key!r} in section [{section}]" in capsys.readouterr().err


def test_selftest_passes():
    assert cli.main(["--selftest"]) == 0


def test_gamma_th_sweep(tmp_path, config_file):
    out = tmp_path / "g"
    rc = _run(["--config", config_file, "--sweep", "gamma_th_db",
               "--metric", "outage", "--method", "exact", "--mu-r-db", "35",
               "--out", str(out)])
    assert rc == 0
    with open(out / "outage_exact.csv") as fh:
        rows = list(csv.DictReader(fh))
    vals = [float(r["value"]) for r in rows]
    assert vals == sorted(vals)   # outage grows with the threshold


_SWEEPS = {
    "mu_r_db": "20 30 40",
    "gamma_th_db": "0 5 10",
    "ibo_db": "20 25 30",
    "xi": "0.9 1.1 1.5",
    "cn2": "2e-12 1e-12 2e-12 5e-13",
}


@pytest.mark.parametrize("variable", list(_SWEEPS))
def test_sweep_points_match_fresh_builds(tmp_path, variable):
    grid = _SWEEPS[variable]
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(CONFIG + f"grid = {grid}\n")
    out = tmp_path / "s"
    rc = _run(["--config", str(cfg), "--sweep", variable, "--metric", "moments",
               "--method", "exact", "--mu-r-db", "35", "--out", str(out)])
    assert rc == 0

    # every point is the scenario a fresh build from the config gives
    cp, _ = cli.load_config(str(cfg))
    with open(out / "moments_exact.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(grid.split())
    for point, row in zip(map(float, grid.split()), rows):
        mu_r_db, overrides = 35.0, {}
        if variable == "mu_r_db":
            mu_r_db = point
        elif variable != "gamma_th_db":
            overrides = {variable: point}
        fresh = cli._scenario_from_config(cp, mu_r_db, overrides)
        assert row["scenario_fingerprint"] == fresh.fingerprint()


# sweep variable -> its key in the config
_CONFIG_KEYS = {"cn2": ("atmosphere", "cn2_ground"), "xi": ("pointing", "xi"),
                "ibo_db": ("hpa", "ibo_db")}


@pytest.mark.parametrize("variable", list(_CONFIG_KEYS))
def test_sweep_points_match_config_builds(tmp_path, variable):
    # the reference reads each point from the config, so it bypasses the
    # clone table that the sweep and its overrides go through
    grid = _SWEEPS[variable]
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(CONFIG + f"grid = {grid}\n")
    out = tmp_path / "s"
    assert _run(["--config", str(cfg), "--sweep", variable, "--metric", "moments",
                 "--method", "exact", "--mu-r-db", "35", "--out", str(out)]) == 0
    with open(out / "moments_exact.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(grid.split())
    cp, _ = cli.load_config(str(cfg))
    section, key = _CONFIG_KEYS[variable]
    for point, row in zip(grid.split(), rows):
        cp[section][key] = point
        reference = cli._scenario_from_config(cp, 35.0, {})
        assert row["scenario_fingerprint"] == reference.fingerprint()


@pytest.mark.parametrize("variable,grid,pipelines", [
    ("mu_r_db", "0 10 20 30 40 50", 1),
    ("cn2", "2e-12 1e-12 2e-12 5e-13", 5),     # 1 + k: each point runs its own
    ("gamma_th_db", "0 5 10", 1),
])
def test_sweep_builds_one_scenario(tmp_path, monkeypatch, variable, grid, pipelines):
    # a run builds one scenario; its points are clones, and only a new
    # atmosphere runs the turbulence pipeline again
    calls = []
    for module, name in ((system, "build_scenario"), (fso_link, "scintillation_params")):
        monkeypatch.setattr(module, name, lambda *a, _f=getattr(module, name), _n=name, **k:
                            calls.append(_n) or _f(*a, **k))
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(CONFIG + f"grid = {grid}\n")
    assert _run(["--config", str(cfg), "--sweep", variable, "--metric", "outage",
                 "--method", "asymptotic", "--out", str(tmp_path / "s")]) == 0
    assert calls.count("build_scenario") == 1
    assert calls.count("scintillation_params") == pipelines


def test_mu_r_sweep_ignores_the_mu_r_flag(tmp_path):
    # a mu_r_db sweep builds its scenario at its own first point, so the
    # flag's value, here one whose linear value overflows, reaches neither
    # the points nor the manifest
    out = tmp_path / "s"
    assert _run(["--sweep", "mu_r_db", "--mu-r-db", "4000", "--metric", "outage",
                 "--method", "asymptotic", "--out", str(out)]) == 0
    with open(out / "manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["scenario"]["mu_r"] == 1.0     # the default grid starts at 0 dB


def test_cn2_sweep_rows_parse_back_to_the_grid(tmp_path):
    # cn2 values of 1e-15..3e-12 once all printed as 0.000000
    grid = "1e-15 1.5e-14 3e-13 3e-12"
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(CONFIG + f"grid = {grid}\n")
    out = tmp_path / "s"
    assert _run(["--config", str(cfg), "--sweep", "cn2", "--metric", "moments",
                 "--method", "exact", "--out", str(out)]) == 0
    with open(out / "moments_exact.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["sweep_value_dB"]) for r in rows] == [float(v) for v in grid.split()]


# (variable, grid, explicit gamma_bar2, Monte Carlo calls the sweep makes)
_MC_SWEEPS = [
    ("mu_r_db", "20 30 40", True, 1),
    ("gamma_th_db", "0 5 10", True, 1),
    ("ibo_db", "20 25 30", True, 1),
    ("ibo_db", "20 25 30", False, 3),   # physical gamma_bar2 moves with ibo
    ("cn2", "2e-12 1e-12 5e-13", True, 3),
]
# metric -> (estimator, CLI arguments, its call on a plan and the point's args)
_MC_METRICS = {
    "outage": ("empirical_outage", ["--gamma-th-db", "5"],
               lambda fn, plan, a: fn(plan, [10.0 ** (a.gamma_th_db / 10.0)])),
    "ber": ("empirical_ber", ["--modulation", "ook"],
            lambda fn, plan, a: fn(plan, a.mod)),
    "capacity": ("empirical_capacity", [], lambda fn, plan, a: fn(plan)),
    "moments": ("empirical_moment", ["--order", "2"],
                lambda fn, plan, a: fn(plan, a.order)),
}


@pytest.mark.parametrize("metric", list(_MC_METRICS))
@pytest.mark.parametrize("variable,grid,explicit,calls", _MC_SWEEPS,
                         ids=["mu_r_db", "gamma_th_db", "ibo_db",
                              "ibo_db_physical", "cn2"])
def test_monte_carlo_rows_match_single_scenario_calls(
        tmp_path, monkeypatch, variable, grid, explicit, calls, metric):
    text = CONFIG if explicit else CONFIG.replace("gamma_bar2 = 2.7588e6", "")
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(text + f"grid = {grid}\n")
    name, extra, call = _MC_METRICS[metric]
    single = getattr(montecarlo, name)
    seen = []
    monkeypatch.setattr(montecarlo, name,
                        lambda plan, *a: seen.append(plan) or single(plan, *a))
    out = tmp_path / "s"
    argv = ["--config", str(cfg), "--sweep", variable, "--metric", metric,
            "--method", "monte-carlo", "--mu-r-db", "35", "--samples", "3000",
            "--seed", "5", "--out", str(out)] + extra
    assert _run(argv) == 0
    # one call per run of points on one stream
    assert len(seen) == calls
    assert sum(len(plan.scenarios) for plan in seen) == len(grid.split())

    args = cli.build_parser().parse_args(argv)
    args.mod = analytics.modulation(args.modulation, args.mod_order)
    cp, _ = cli.load_config(str(cfg))
    with open(out / f"{metric}_monte_carlo.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(grid.split())
    for point, row in zip(map(float, grid.split()), rows):
        mu_r_db, overrides = 35.0, {}
        if variable == "mu_r_db":
            mu_r_db = point
        elif variable == "gamma_th_db":
            args.gamma_th_db = point
        else:
            overrides = {variable: point}
        fresh = cli._scenario_from_config(cp, mu_r_db, overrides)
        (est,) = call(single, montecarlo.SimPlan((fresh,), 3000, 5), args)
        assert (row["value"], row["error_estimate"], row["n_samples"]) == (
            f"{est.value:.12e}", f"{est.half_width:.6e}", str(est.n_samples))


def test_config_doc_matches_defaults():
    # the documented ini block lists exactly the keys and defaults the CLI reads
    text = (Path(__file__).parent.parent / "docs" / "config.md").read_text()
    block = text.split("```ini\n", 1)[1].split("```", 1)[0]
    doc = configparser.ConfigParser(inline_comment_prefixes=(";",), interpolation=None)
    doc.read_string(block)
    assert {sec: dict(doc[sec]) for sec in doc.sections()} == cli.DEFAULTS


def _metric_inputs(scn):
    """Every scenario number the metrics read."""
    return [scn.turbulence.alpha, scn.turbulence.beta, scn.feeder.pointing.xi,
            scn.detection_r, scn.shadowing.m, scn.shadowing.b, scn.shadowing.omega,
            scn.mu_r, scn.kappa, scn.noise_amp_c, scn.b_row_norm_sq, scn.gamma_bar2]


def _perturbed(value):
    """Another legal value of a config string."""
    switch = {"true": "false", "imdd": "heterodyne", "twta": "sspa",
              "power_constrained": "fixed", "": "1e6"}
    if value in switch:
        return switch[value]
    number = float(value)
    return repr(0.9 * number) if number != 0 else "100"


def _moves(cp, section, key, value):
    base = _metric_inputs(cli._scenario_from_config(cp, 50.0, {}))
    cp[section][key] = value
    new = _metric_inputs(cli._scenario_from_config(cp, 50.0, {}))
    return any(abs(n - b) > 1e-9 * abs(b) for n, b in zip(new, base))


def test_every_config_key_reaches_a_metric_input():
    # fixed_gain is the gain of the fixed mode and acts only there
    fixed_only = {("system", "fixed_gain")}
    # index 0 scaled is 0 again and 100 lies past the last beam
    legal = {("system", "user_index"): "1"}
    for section, keys in cli.DEFAULTS.items():
        if section == "sweep":
            continue
        for key, default in keys.items():
            cp, _ = cli.load_config(None)
            if (section, key) in fixed_only:
                cp["system"]["gain_mode"] = "fixed"
            value = legal.get((section, key), _perturbed(default))
            assert _moves(cp, section, key, value), f"[{section}] {key}"


def _src_env():
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


def test_cli_import_loads_no_scipy_beyond_special():
    # scipy.optimize pulls in linalg, sparse and spatial (about 23 MB and a
    # quarter second in every process), and scipy.special alone costs about
    # 0.2 s and 20 MB
    code = ("import sys, optfeeder.cli\n"
            "print(optfeeder.cli.__file__)\n"
            "print(' '.join(m for m in sys.modules if m.startswith('scipy.')))\n"
            "print('scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True,
                         text=True, check=True, timeout=120).stdout.splitlines()
    assert Path(out[0]).resolve() == Path(cli.__file__).resolve()
    loaded = set(out[1].split())
    for name in ("scipy.optimize", "scipy.linalg", "scipy.sparse", "scipy.spatial",
                 "scipy.integrate"):
        assert name not in loaded
    assert out[2] == "False"


_BLOCK_SCIPY = """
import importlib.abc, sys

class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, NoScipy())
"""


def test_library_runs_without_scipy(tmp_path):
    # with every scipy import blocked, --selftest and a two-point outage sweep
    # by the exact, oracle and Monte Carlo methods run, so an import inside a
    # function fails here; and no module under src/optfeeder imports scipy
    cfg, out_dir = tmp_path / "sweep.ini", tmp_path / "out"
    cfg.write_text(CONFIG + "grid = 30 40\n")
    argv = ["--config", str(cfg), "--metric", "outage", "--method",
            "exact,oracle,monte-carlo", "--samples", "20000", "--out", str(out_dir)]
    code = _BLOCK_SCIPY + (
        "from optfeeder import cli\n"
        "assert cli.main(['--selftest']) == 0\n"
        f"assert cli.main({argv!r}) == 0\n"
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    for method in ("exact", "oracle", "monte_carlo"):
        with open(out_dir / f"outage_{method}.csv") as fh:
            assert len(list(csv.DictReader(fh))) == 2
    for path in Path(cli.__file__).resolve().parent.glob("*.py"):
        assert not re.search(r"^\s*(import|from)\s+scipy\b", path.read_text(), re.M), path
