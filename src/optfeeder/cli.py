"""Batch front-end: parse a scenario config, run parameter sweeps, emit CSV
plot data plus a JSON manifest recording every default and calibration.

One CSV is written per (metric, method) pair with a fixed column order:

    sweep_value_dB,value,error_estimate,n_samples,scenario_fingerprint

Exit codes: 0 success, 1 configuration error, 2 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import itertools
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, analytics, fso_link, montecarlo, rf_link, specfun, system, transponder

SWEEPABLE = ("mu_r_db", "ibo_db", "gamma_th_db", "cn2", "xi")
SWEEP_FMT = dict.fromkeys(SWEEPABLE, ".6f") | {"cn2": ".6e"}   # cn2 is 1e-15..3e-12
# detection spellings, in a config and after --detection, and their order r
DETECTION_R = {"imdd": 2, "het": 1, "heterodyne": 1}


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# configuration parsing
# ---------------------------------------------------------------------------

DEFAULTS = {
    "atmosphere": {
        "altitude_sat_m": "35786e3",
        "altitude_ground_m": "0.0",
        "zenith_deg": "30.0",
        "wavelength_nm": "1550.0",
        "wind_rms_ms": "21.0",
        "cn2_ground": "1e-12",
        "beam_radius_tx_m": "0.02",
        "beam_wander": "true",
    },
    "pointing": {"xi": "1.1"},
    "feeder": {"detection": "imdd"},
    "rf": {
        "carrier_ghz": "20.0",
        "gain_tx_dbi": "52.0",
        "gain_rx_dbi": "38.16",
        "bandwidth_mhz": "50.0",
        "noise_temp_k": "207.0",
        "theta_3db_deg": "0.4",
        "beam_radius_km": "250.0",
        "slant_range_km": "35786.0",
    },
    "shadowing": {"m": "19", "b": "0.158", "omega": "1.29"},
    "hpa": {"family": "twta", "ibo_db": "25.0"},
    "system": {"sigma2_sq": "1.0", "user_index": "0",
               "gain_mode": "power_constrained", "fixed_gain": "1.0",
               "gamma_bar2": ""},
    "sweep": {"variable": "mu_r_db", "start": "0", "stop": "80", "step": "5",
              "grid": ""},
}


def load_config(path: str | None) -> tuple[configparser.ConfigParser, dict]:
    """Read the INI config over the documented defaults.

    Returns the parser and a record of which keys fell back to defaults
    (for the manifest).
    """
    cp = configparser.ConfigParser()
    cp.read_dict(DEFAULTS)
    used_defaults = {f"{sec}.{key}": val for sec, kv in DEFAULTS.items()
                     for key, val in kv.items()}
    if path is not None:
        # raw values: the merged parser interpolates them as if read directly
        user = configparser.ConfigParser(interpolation=None)
        try:
            with open(path) as fh:
                user.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path!r}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file {path!r}: {exc}") from exc
        for sec in user.sections():
            if sec not in DEFAULTS:
                raise ConfigError(f"unknown config section [{sec}]")
            for key in user[sec]:
                if key not in DEFAULTS[sec]:
                    raise ConfigError(f"unknown key {key!r} in section [{sec}]")
                used_defaults.pop(f"{sec}.{key}", None)
        cp.read_dict(user)
    return cp, used_defaults


def _with_feeder(scn, **changes) -> system.ScenarioConfig:
    feeder = replace(scn.feeder, **changes)     # only a new atmosphere reruns the pipeline
    turbulence = (fso_link.scintillation_params(feeder.atmosphere)
                  if "atmosphere" in changes else scn.turbulence)
    return replace(scn, feeder=feeder, turbulence=turbulence)


# sweep variable or CLI flag -> the clone of a scenario at value v, derived
# fields re-derived; functions are looked up at call time, so wrappers apply
CLONES = {
    "mu_r_db": lambda scn, v: scn.at_mu_r_db(v),
    "ibo_db": lambda scn, v: replace(scn, hpa=transponder.hpa_state(scn.hpa.family, v)),
    "cn2": lambda scn, v: _with_feeder(
        scn, atmosphere=replace(scn.feeder.atmosphere, cn2_ground=v)),
    "xi": lambda scn, v: _with_feeder(scn, pointing=fso_link.PointingConfig(v)),
    "detection": lambda scn, v: _with_feeder(scn, detection_r=DETECTION_R[v]),
    "hpa": lambda scn, v: replace(scn, hpa=replace(scn.hpa, family=v)),
}


def _scenario_from_config(cp: configparser.ConfigParser, mu_r_db: float,
                          overrides: dict) -> system.ScenarioConfig:
    """The scenario a config describes at one operating point; ``overrides``
    (``CLONES`` keys) apply once the whole config is read and checked."""
    a = cp["atmosphere"]
    atmo = fso_link.AtmosphereConfig(
        altitude_sat=a.getfloat("altitude_sat_m"),
        altitude_ground=a.getfloat("altitude_ground_m"),
        zenith_rad=math.radians(a.getfloat("zenith_deg")),
        wavelength=a.getfloat("wavelength_nm") * 1e-9,
        wind_rms=a.getfloat("wind_rms_ms"),
        cn2_ground=a.getfloat("cn2_ground"),
        beam_radius_tx=a.getfloat("beam_radius_tx_m"),
        beam_wander=a.getboolean("beam_wander"),
    )
    det = cp["feeder"].get("detection").lower()
    if det not in DETECTION_R:
        raise ConfigError(f"unknown detection {det!r}")
    feeder = fso_link.FeederConfig(
        detection_r=DETECTION_R[det], atmosphere=atmo,
        pointing=fso_link.PointingConfig(cp["pointing"].getfloat("xi")))
    r = cp["rf"]
    rf = rf_link.RfLinkParams(
        carrier_hz=r.getfloat("carrier_ghz") * 1e9,
        gain_tx=specfun.db_to_linear("gain_tx_dbi", r.getfloat("gain_tx_dbi")),
        gain_rx=specfun.db_to_linear("gain_rx_dbi", r.getfloat("gain_rx_dbi")),
        bandwidth_hz=r.getfloat("bandwidth_mhz") * 1e6,
        noise_temp_k=r.getfloat("noise_temp_k"),
        theta_3db_rad=math.radians(r.getfloat("theta_3db_deg")))
    layout = rf_link.BeamLayout(
        beam_radius=r.getfloat("beam_radius_km") * 1e3,
        slant_range=r.getfloat("slant_range_km") * 1e3)
    s = cp["shadowing"]
    shadow = rf_link.ShadowedRicianParams(
        m=s.getfloat("m"), b=s.getfloat("b"), omega=s.getfloat("omega"))
    h = cp["hpa"]
    hpa = transponder.hpa_state(h.get("family").lower(), h.getfloat("ibo_db"))
    sysc = cp["system"]
    g2_raw = sysc.get("gamma_bar2").strip()
    scn = system.build_scenario(
        feeder, layout, rf, shadow, hpa, mu_r_db,
        gamma_bar2=float(g2_raw) if g2_raw else None,
        sigma2_sq=sysc.getfloat("sigma2_sq"),
        user_index=sysc.getint("user_index"),
        gain_mode=sysc.get("gain_mode"),
        fixed_gain=sysc.getfloat("fixed_gain"))
    for key, value in overrides.items():
        scn = CLONES[key](scn, value)
    return scn


def _sweep_grid(cp, args) -> tuple[str, list[float]]:
    sw = cp["sweep"]
    variable = args.sweep or sw.get("variable")
    if variable not in SWEEPABLE:
        raise ConfigError(f"sweep variable must be one of {SWEEPABLE}")
    raw = sw.get("grid").strip()
    if raw:
        grid = [float(tok) for tok in raw.replace(",", " ").split()]
    else:
        start, stop, step = (sw.getfloat(k) for k in ("start", "stop", "step"))
        if step == 0 or not all(map(math.isfinite, (start, stop, step))):
            raise ConfigError("sweep start, stop and step must be finite, step nonzero")
        n = int(round((stop - start) / step)) + 1
        grid = [start + i * step for i in range(n)]
    if not grid:
        raise ConfigError("sweep grid is empty")
    return variable, grid


# ---------------------------------------------------------------------------
# metric evaluation
# ---------------------------------------------------------------------------

def _sim(scns, args) -> montecarlo.SimPlan:
    return montecarlo.SimPlan(scns, args.samples, args.seed)


# (metric, method) -> evaluator.  A deterministic method's takes one point,
# f(scenario, gamma_th, args), and returns its value.  A Monte Carlo one
# takes a run of consecutive points that share one sample stream,
# f(scenarios, thresholds, args), and returns one estimate per point, each
# carrying its own half width and sample count.  The lambdas look the
# functions up at call time, so wrappers installed on the modules apply.
EVALUATORS = {
    ("outage", "exact"): lambda scn, th, a: analytics.outage_exact(th, scn),
    ("outage", "asymptotic"): lambda scn, th, a: analytics.outage_asymptotic(th, scn),
    ("outage", "oracle"): lambda scn, th, a: analytics.sndr_cdf_oracle(th, scn),
    ("outage", "monte-carlo"):
        lambda scns, ths, a: montecarlo.empirical_outage(_sim(scns, a), ths),
    ("ber", "exact"): lambda scn, th, a: analytics.ber_exact(a.mod, scn),
    ("ber", "asymptotic"): lambda scn, th, a: analytics.ber_asymptotic(a.mod, scn),
    ("ber", "oracle"): lambda scn, th, a: analytics.ber_oracle(a.mod, scn),
    ("ber", "monte-carlo"):
        lambda scns, ths, a: montecarlo.empirical_ber(_sim(scns, a), a.mod),
    ("capacity", "exact"): lambda scn, th, a: analytics.capacity_exact(scn),
    ("capacity", "oracle"): lambda scn, th, a: analytics.capacity_oracle(scn),
    ("capacity", "monte-carlo"):
        lambda scns, ths, a: montecarlo.empirical_capacity(_sim(scns, a)),
    ("moments", "exact"): lambda scn, th, a: analytics.sndr_moments(a.order, scn),
    ("moments", "monte-carlo"):
        lambda scns, ths, a: montecarlo.empirical_moment(_sim(scns, a), a.order),
}
# what the CLI supports, in table order
METRICS = tuple(dict.fromkeys(metric for metric, _ in EVALUATORS))
METHODS = tuple(dict.fromkeys(method for _, method in EVALUATORS))
# error_estimate column of the deterministic methods
FIXED_ERROR = {"exact": 1e-9, "oracle": 1e-8, "asymptotic": math.nan}


def _evaluate(metric, method, points, args) -> list:
    """The method's value or estimate at each (sweep value, scenario,
    gamma_th) point: a Monte Carlo method runs once per run of consecutive
    points with equal ``montecarlo.stream_key``, any other once per point."""
    evaluate = EVALUATORS[(metric, method)]
    if method != "monte-carlo":
        return [evaluate(scn, th, args) for _, scn, th in points]
    out = []
    for _, run in itertools.groupby(points, key=lambda p: montecarlo.stream_key(p[1])):
        _, scns, ths = zip(*run)
        out += evaluate(scns, ths, args)
    return out


def _row(method, point, scn, out) -> tuple:
    """One CSV row: sweep value, value, error estimate, samples, fingerprint."""
    if isinstance(out, montecarlo.MonteCarloEstimate):
        val, err, n = out.value, out.half_width, out.n_samples
    else:
        val, err, n = out, FIXED_ERROR[method], 0
    return float(point), float(val), float(err), n, scn.fingerprint()


def run(args) -> int:
    cp, used_defaults = load_config(args.config)
    variable, grid = _sweep_grid(cp, args)
    scalars = [args.gamma_th_db, args.mu_r_db, args.ibo_db or 0.0]
    if not all(map(math.isfinite, grid + scalars)):
        raise ConfigError("sweep values, --gamma-th-db, --mu-r-db and --ibo-db must be finite")
    methods = [m.strip() for m in args.method.split(",")]
    for i, m in enumerate(methods):
        if (args.metric, m) not in EVALUATORS:
            supported = ", ".join(k[1] for k in EVALUATORS if k[0] == args.metric)
            raise ConfigError(f"{args.metric} supports {supported}, not {m!r}")
        if m in methods[:i]:
            raise ConfigError(f"method {m!r} is listed twice")

    overrides = {key: {"het": "heterodyne"}.get(v, v)     # the manifest spells "het" out
                 for key in ("detection", "hpa", "ibo_db") if (v := vars(args)[key]) is not None}
    args = argparse.Namespace(
        **vars(args), mod=analytics.modulation(args.modulation, args.mod_order))
    # every point is a clone of scn0, built at the first point of a mu_r_db
    # sweep; a gamma_th_db point moves only the threshold
    scn0 = _scenario_from_config(cp, grid[0] if variable == "mu_r_db" else args.mu_r_db,
                                 overrides)
    points = [(p, scn0, p) if variable == "gamma_th_db"
              else (p, CLONES[variable](scn0, p), args.gamma_th_db) for p in grid]
    points = [(p, scn, specfun.db_to_linear("gamma_th_db", th)) for p, scn, th in points]
    rows = {(args.metric, m): [_row(m, point, scn, out) for (point, scn, _), out
                               in zip(points, _evaluate(args.metric, m, points, args))]
            for m in methods}

    # made once every row is computed: a run that fails leaves no directory
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = []
    for (metric, method), results in rows.items():
        fname = out_dir / f"{metric}_{method.replace('-', '_')}.csv"
        with open(fname, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sweep_value_dB", "value", "error_estimate",
                             "n_samples", "scenario_fingerprint"])
            writer.writerows([f"{sweep:{SWEEP_FMT[variable]}}", f"{val:.12e}", f"{err:.6e}", n, fp]
                             for sweep, val, err, n, fp in results)
        files.append(str(fname))

    manifest = {
        "version": __version__,
        "metric": args.metric,
        "methods": methods,
        "sweep_variable": variable,
        "grid": grid,
        "gamma_th_db": args.gamma_th_db,
        "modulation": args.modulation,
        "mod_order": args.mod_order,
        "samples": args.samples,
        "seed": args.seed,
        "defaults_used": used_defaults,
        "cli_overrides": overrides,
        "scenario": scn0.describe(),
        "files": files,
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    print(f"wrote {len(files)} CSV file(s) and manifest.json to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# self test
# ---------------------------------------------------------------------------

def selftest() -> int:
    """Fast invariant bundle; returns 0 iff every check passes."""
    checks = []

    def check(name, ok):
        checks.append((name, bool(ok)))
        print(f"  [{'ok' if ok else 'FAIL'}] {name}")

    vals, _, _ = specfun.meijer_g_many((), (0.0,), 1, 0, [3.0])
    check("meijer G exponential identity", abs(vals[0] - math.exp(-3.0)) < 1e-10)
    rng = np.random.Generator(np.random.Philox(key=1))
    ok = True
    for _ in range(20):
        b1 = rng.uniform(-1.0, 1.5)
        b2 = b1 - rng.uniform(-2.5, 2.5)
        z = rng.uniform(0.05, 8.0)
        got = specfun.meijer_g_many((), (b1, b2), 2, 0, [z])[0][0]
        nu, x = b1 - b2, 2.0 * math.sqrt(z)     # K_nu(x) = int_0^12 e^(-x cosh t) cosh(nu t) dt
        ref = 2.0 * z ** (0.5 * (b1 + b2)) * specfun.gauss_panels(
            lambda t: np.exp(-x * np.cosh(t)) * np.cosh(nu * t), np.arange(13.), 1e-12 * np.exp(-x))
        ok &= abs(got - ref) <= 1e-7 * abs(ref)
    check("meijer G Bessel reduction (20 draws)", ok)

    k6, s6 = transponder.bussgang_twta(1e6)
    k6b, s6b = transponder.bussgang_sspa(1e6)
    check("Bussgang large back-off limits",
          0.999 <= k6 <= 1.0 and 0.999 <= k6b <= 1.0 and s6 < 1e-3 and s6b < 1e-3)

    rng = np.random.Generator(np.random.Philox(key=2))
    ok = True
    for _ in range(10):
        b = rng.standard_normal((5, 5)) + 5.0 * np.eye(5)
        t, c_zf = system.zf_precoder(b, 2.0)
        ok &= np.allclose(b @ t, math.sqrt(c_zf) * np.eye(5), atol=1e-10)
        ok &= abs(np.trace(t @ t.T) - 2.0) < 1e-10
    check("zero-forcing identities (10 draws)", ok)

    # the reference scenario: the documented defaults at mu_r = 30 dB
    cp, _ = load_config(None)
    cp["system"]["gamma_bar2"] = "2.76e6"
    scn = _scenario_from_config(cp, 30.0, {})
    turb = scn.turbulence
    check("scintillation shapes in band",
          abs(turb.alpha - 1.52) < 0.05 and abs(turb.beta - 3.29) < 0.11)

    e = analytics.sndr_cdf_exact(2.0, scn)
    o = analytics.sndr_cdf_oracle(2.0, scn)
    check("closed form vs oracle CDF", abs(e - o) < 1e-6)
    est = montecarlo.empirical_cdf(montecarlo.SimPlan((scn,), 100_000, seed=3), [2.0])[0][0]
    check("closed form vs Monte Carlo CDF", est.covers(e))

    failures = [name for name, ok in checks if not ok]
    if failures:
        print(f"selftest FAILED: {failures}")
        return 1
    print("selftest passed")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="optfeeder",
        description="Forward-link sweeps for an optical-feeder multibeam "
                    "satellite system (CSV output).")
    ap.add_argument("--config", help="INI scenario file (defaults documented in docs/)")
    ap.add_argument("--sweep", choices=SWEEPABLE, help="sweep variable")
    ap.add_argument("--metric", choices=METRICS, default="outage")
    ap.add_argument("--method", default="exact",
                    help="comma list from: " + ", ".join(METHODS))
    ap.add_argument("--detection", choices=DETECTION_R)
    ap.add_argument("--hpa", choices=transponder.HPA_FAMILIES)
    ap.add_argument("--ibo-db", type=float, dest="ibo_db")
    ap.add_argument("--gamma-th-db", type=float, default=5.0, dest="gamma_th_db")
    ap.add_argument("--mu-r-db", type=float, default=50.0, dest="mu_r_db",
                    help="operating point when mu_r is not the sweep variable")
    ap.add_argument("--modulation", default="ook",
                    choices=("ook", "bpsk", "mpsk", "mqam"))
    ap.add_argument("--mod-order", type=int, default=16, dest="mod_order")
    ap.add_argument("--order", type=int, default=1, help="moment order")
    ap.add_argument("--samples", type=int, default=1_000_000)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--out", default="sweep_out")
    ap.add_argument("--selftest", action="store_true")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.selftest:
        return selftest()
    try:
        return run(args)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (specfun.ConvergenceError, specfun.PoleCollisionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
