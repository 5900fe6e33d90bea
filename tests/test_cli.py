"""Sweep front-end: CSV round-trip, determinism, manifest completeness, and
exit codes."""

import csv
import json
import math

import pytest

from optfeeder import analytics, cli, specfun


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
    assert manifest["scenario"]["detection_r"] == 1
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
    assert manifest["scenario"]["ibo_linear"] == 10.0
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


@pytest.mark.parametrize("text", [
    "[sweep]\nstep = 0\n",
    "p_g = 2\n[system]\n",
    "[hpa]\nibo_db = 20\n[hpa]\nibo_db = 21\n",
    "[system]\nuser_index = 7\n",
    "[system]\nuser_index = -1\n",
], ids=["zero_step", "no_section_header", "duplicate_section",
        "user_index_past_last_beam", "negative_user_index"])
def test_malformed_config_exit_code(tmp_path, text):
    bad = tmp_path / "malformed.ini"
    bad.write_text(text)
    rc = _run(["--config", str(bad), "--out", str(tmp_path / "x")])
    assert rc == 1
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


def test_unknown_key_exit_code(tmp_path):
    bad = tmp_path / "bad2.ini"
    bad.write_text("[hpa]\nwattage = 11\n")
    rc = _run(["--config", str(bad), "--out", str(tmp_path / "x")])
    assert rc == 1


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
