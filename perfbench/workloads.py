"""The benchmark's workloads: inputs drawn from a seed, one pass of work,
and the correctness checks that run outside the timed region.

Each workload draws its operating points inside fixed ranges from the seed
and hands the library only those inputs.  ``run_pass`` does the work a user
waits for; ``prepare_checks`` computes reference values once; ``check``
counts the values of one pass that are wrong or differ from the first pass.
"""

from __future__ import annotations

import configparser
import contextlib
import csv
import io
import math
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

from optfeeder import analytics, cli, system

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
BENCH_CONFIGS = Path(__file__).resolve().parent / "configs"

GTH_5DB = 10.0 ** 0.5
# acceptance-suite tolerances (tests/test_acceptance.py)
ORACLE_ABS_TOL = 1e-5            # criterion 3
EXPANSION_REL_TOL = 0.05         # criterion 5, at mu_r >= 70 dB
CALIBRATED_GAMMA_BAR2 = 2.9660e6  # criterion 10 fit, within 1 percent
FIT_REL_TOL = 0.01
FIG2_TARGET = (50.0, 1.055055e-1)
FIG2_POINTS = {40.0: 1.331555e-1, 50.0: 1.055055e-1, 60.0: 1.021958e-1}
FIG2_REL_TOL = 0.10
# bisection to 48 halvings of a 13-decade bracket pins the target far below this
TARGET_REL_TOL = 1e-6
# The program reports 3-sigma Monte Carlo intervals.  Seeds here are
# arbitrary, and a 3-sigma test misses by chance in 0.27 % of values, so the
# check allows 5 sigma (a chance miss once in ~1.7e6 values).
MC_SIGMA_FACTOR = 5.0 / 3.0


@dataclass
class PassResult:
    outputs: dict[str, bytes]   # CSV (or value) bytes by output name
    owed: int | None            # values the pass owed; None = count calls
    lost: dict[str, int] = field(default_factory=dict)  # failed CLI call: owed


def cli_scenario(path: Path, mu_r_db: float, **overrides) -> system.ScenarioConfig:
    """The scenario the CLI builds from a config at one operating point;
    ``overrides`` are the CLI's (``cn2``, ``detection``, ...)."""
    cp, _ = cli.load_config(str(path))
    return cli._scenario_from_config(cp, mu_r_db, overrides)


def _with_grid(src: Path, grid, dst: Path) -> Path:
    """Copy a config with an explicit sweep grid."""
    cp = configparser.ConfigParser()
    cp.read(src)
    if not cp.has_section("sweep"):
        cp.add_section("sweep")
    cp["sweep"]["grid"] = " ".join(repr(float(g)) for g in grid)
    with open(dst, "w") as fh:
        cp.write(fh)
    return dst


def _run_cli(calls, out_dir: Path) -> PassResult:
    """Run each (name, argv, owed) through cli.main and collect its CSVs."""
    outputs, owed, lost = {}, 0, {}
    for name, argv, n in calls:
        owed += n
        dst = out_dir / name
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv + ["--out", str(dst)])
        if code != 0:
            lost[name] = n
            continue
        for path in sorted(dst.glob("*.csv")):
            outputs[f"{name}/{path.name}"] = path.read_bytes()
    return PassResult(outputs, owed, lost)


def _rows(blob: bytes | None) -> list[dict]:
    if blob is None:
        return []
    return list(csv.DictReader(io.StringIO(blob.decode())))


class _CsvChecks:
    """Shared check loop: per expected file, count wrong or missing rows.

    ``self.expected`` maps file name to row count, ``self.row_ok(file, i,
    row, outputs)`` judges one row.  A file whose bytes differ from the
    first pass counts every row as failed.
    """

    expected: dict[str, int]

    def check(self, result: PassResult, first: PassResult, values: int) -> int:
        failed = sum(result.lost.values())
        for fname, n in self.expected.items():
            if fname.split("/")[0] in result.lost:
                continue
            blob = result.outputs.get(fname)
            if blob != first.outputs.get(fname):
                failed += n
                continue
            rows = _rows(blob)
            failed += max(n - len(rows), 0)
            for i, row in enumerate(rows[:n]):
                try:
                    ok = self.row_ok(fname, i, row, result.outputs)
                except (KeyError, IndexError, ValueError):
                    ok = False
                failed += 0 if ok else 1
        return failed


def _value(row) -> float:
    return float(row["value"])


class ClosedFormSweep(_CsvChecks):
    """Exact closed forms through the CLI: outage, 16-QAM BER (r = 1),
    capacity and the 2nd moment along mu_r (one atmosphere for every point),
    plus an outage sweep along cn2 (a new atmosphere at every point)."""

    name = "closed_form_sweep"
    setup_config = CONFIGS / "outage_strong_turbulence.ini"

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        rng = random.Random(f"{self.name}:{seed}")
        mu_base = (45.0,) if tiny else (0.0, 15.0, 30.0, 45.0, 60.0, 75.0)
        # +-0.9 dB keeps the 0 dB point above the step near -1.25 dB where
        # the 16-QAM grid shrinks 4x, so peak memory does not hinge on the seed
        self.mu_grid = [round(b + rng.uniform(-0.9, 0.9), 4) for b in mu_base]
        self.gamma_th_db = round(5.0 + rng.uniform(-0.5, 0.5), 4)
        cp = configparser.ConfigParser()
        cp.read(BENCH_CONFIGS / "cn2_sweep.ini")
        cn2_base = [float(t) for t in cp["sweep"]["grid"].split()]
        cn2_base = cn2_base[3:4] if tiny else cn2_base
        self.cn2_grid = [float(f"{c * 10.0 ** rng.uniform(-0.05, 0.05):.6e}")
                         for c in cn2_base]
        self.cn2_mu_db = round(50.0 + rng.uniform(-1.0, 1.0), 4)
        self.spot_mu = sorted(rng.sample(range(len(self.mu_grid)),
                                         min(2, len(self.mu_grid))))
        self.spot_cn2 = rng.randrange(len(self.cn2_grid))

        self.mu_cfg = _with_grid(self.setup_config, self.mu_grid,
                                 workdir / "closed_form_mu.ini")
        self.cn2_cfg = _with_grid(BENCH_CONFIGS / "cn2_sweep.ini", self.cn2_grid,
                                  workdir / "closed_form_cn2.ini")
        mu = ["--config", str(self.mu_cfg), "--method", "exact"]
        n, gth = len(self.mu_grid), ["--gamma-th-db", repr(self.gamma_th_db)]
        self.calls = [
            ("outage", mu + ["--metric", "outage"] + gth, n),
            ("ber", mu + ["--metric", "ber", "--detection", "het",
                          "--modulation", "mqam", "--mod-order", "16"], n),
            ("capacity", mu + ["--metric", "capacity"], n),
            ("moments", mu + ["--metric", "moments", "--order", "2"], n),
            ("cn2", ["--config", str(self.cn2_cfg), "--sweep", "cn2",
                     "--metric", "outage", "--method", "exact",
                     "--mu-r-db", repr(self.cn2_mu_db)] + gth, len(self.cn2_grid)),
        ]
        self.expected = {"outage/outage_exact.csv": n, "ber/ber_exact.csv": n,
                         "capacity/capacity_exact.csv": n,
                         "moments/moments_exact.csv": n,
                         "cn2/outage_exact.csv": len(self.cn2_grid)}
        self.ber_ceiling = analytics.modulation("mqam", 16).ber_ceiling
        self.oracle: dict[tuple[str, int], float] = {}

    def run_pass(self, out_dir: Path) -> PassResult:
        return _run_cli(self.calls, out_dir)

    def prepare_checks(self, first: PassResult):
        """Oracle CDF at the seed-drawn spot points."""
        gth = 10.0 ** (self.gamma_th_db / 10.0)
        for i in self.spot_mu:
            scn = cli_scenario(self.mu_cfg, self.mu_grid[i])
            self.oracle[("outage/outage_exact.csv", i)] = \
                analytics.sndr_cdf_oracle(gth, scn)
        j = self.spot_cn2
        scn = cli_scenario(self.cn2_cfg, self.cn2_mu_db, cn2=self.cn2_grid[j])
        self.oracle[("cn2/outage_exact.csv", j)] = analytics.sndr_cdf_oracle(gth, scn)

    def row_ok(self, fname, i, row, outputs) -> bool:
        v = _value(row)
        if not math.isfinite(v):
            return False
        if (fname, i) in self.oracle and abs(v - self.oracle[(fname, i)]) > ORACLE_ABS_TOL:
            return False
        if fname.startswith(("outage/", "cn2/")):
            return 0.0 <= v <= 1.0
        if fname.startswith("ber/"):
            return 0.0 <= v <= self.ber_ceiling
        return v > 0.0

    def xcheck(self, result: PassResult) -> float:
        diffs = [abs(_value(_rows(result.outputs.get(f))[i]) - ref)
                 for (f, i), ref in self.oracle.items()
                 if len(_rows(result.outputs.get(f))) > i]
        return max(diffs, default=math.nan)


class CrossCheckSweep(_CsvChecks):
    """The paper's verification in the deep user-link regime: outage by all
    four methods, OOK BER by exact, expansion and Monte Carlo, one CLI call
    per metric."""

    name = "cross_check_sweep"
    setup_config = CONFIGS / "floor_phenomenology.ini"

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        rng = random.Random(f"{self.name}:{seed}")
        low = round(rng.uniform(39.0, 41.0), 4)
        # expansion regime; above ~73 dB the oracle and expansion calls get
        # up to 40 % cheaper, which would make a pass's cost hinge on the seed
        high = round(rng.uniform(71.5, 72.5), 4)
        self.grid = [high] if tiny else [low, high]
        self.samples = 20_000 if tiny else 400_000
        cfg = _with_grid(self.setup_config, self.grid, workdir / "cross_check.ini")
        n = len(self.grid)
        common = ["--config", str(cfg), "--samples", str(self.samples),
                  "--seed", str(seed)]
        self.calls = [
            ("outage", common + ["--metric", "outage", "--gamma-th-db", "5",
                                 "--method", "exact,oracle,asymptotic,monte-carlo"], 4 * n),
            ("ber", common + ["--metric", "ber", "--modulation", "ook",
                              "--method", "exact,asymptotic,monte-carlo"], 3 * n),
        ]
        self.expected = {f"{metric}/{metric}_{method}.csv": n
                         for metric, methods in (
                             ("outage", ("exact", "oracle", "asymptotic", "monte_carlo")),
                             ("ber", ("exact", "asymptotic", "monte_carlo")))
                         for method in methods}
        self.ceiling = {"outage": 1.0, "ber": analytics.modulation("ook").ber_ceiling}

    def run_pass(self, out_dir: Path) -> PassResult:
        return _run_cli(self.calls, out_dir)

    def prepare_checks(self, first: PassResult):
        """Every reference is another method of the same pass."""

    def row_ok(self, fname, i, row, outputs) -> bool:
        metric, method = fname.split("/")[1][:-4].split("_", 1)
        v = _value(row)
        exact = _value(_rows(outputs[f"{metric}/{metric}_exact.csv"])[i])
        if not (math.isfinite(v) and math.isfinite(exact)):
            return False
        if method == "exact":
            return 0.0 <= v <= self.ceiling[metric]
        if method == "oracle":
            return abs(v - exact) <= ORACLE_ABS_TOL
        if method == "asymptotic":
            return (self.grid[i] < 70.0
                    or abs(v - exact) <= EXPANSION_REL_TOL * exact)
        return (int(row["n_samples"]) == self.samples
                and abs(v - exact) <= MC_SIGMA_FACTOR * float(row["error_estimate"]))

    def xcheck(self, result: PassResult) -> float:
        ex = _rows(result.outputs.get("outage/outage_exact.csv"))
        orc = _rows(result.outputs.get("outage/outage_oracle.csv"))
        diffs = [abs(_value(a) - _value(b)) for a, b in zip(ex, orc)]
        return max(diffs, default=math.nan)


class Calibration:
    """The one-scalar user-link calibration at API level: bisection for the
    criterion-10 target and for a seed-drawn target under IM/DD, and for the
    criterion-10 target under heterodyne detection, then the 40/50/60 dB
    check points of the criterion-10 IM/DD fit.

    Two of the three fits are IM/DD, whose evaluations all cost about the
    same, so the median value latency falls well inside their cluster and
    not between the two detections' clusters.  The bracket starts at
    gamma_bar2 = 1e2, not at the acceptance test's 1: an evaluation at 1
    costs 2-3 times any other, and three of them per pass would sit right
    at the tail's rank (the 11th largest latency of a run), so the tail
    would hinge on the number of passes.  Every target lies far inside."""

    name = "calibration"
    setup_config = CONFIGS / "outage_strong_turbulence.ini"
    FITS = ("fit_imdd", "fit_imdd_seed", "fit_het")

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        rng = random.Random(f"{self.name}:{seed}")
        # attainable at 50 dB: IM/DD outage runs from 1 down to ~0.099
        self.targets = (FIG2_TARGET[1], round(rng.uniform(0.11, 0.15), 6),
                        FIG2_TARGET[1])
        self.oracle_50 = math.nan

    def run_pass(self, out_dir: Path) -> PassResult:
        imdd = cli_scenario(self.setup_config, FIG2_TARGET[0])
        het = system.build_scenario(
            replace(imdd.feeder, detection_r=1), imdd.layout, imdd.rf,
            imdd.shadowing, imdd.hpa, FIG2_TARGET[0], gamma_bar2=imdd.gamma_bar2,
            p_g=imdd.p_g, sigma2_sq=imdd.sigma2_sq, user_index=imdd.user_index,
            gain_mode=imdd.gain_mode, fixed_gain=imdd.fixed_gain,
            turbulence=imdd.turbulence)
        scenarios = (imdd, imdd, het)
        fits = [analytics.fit_gamma_bar2(scn, target, GTH_5DB, lo=1e2, hi=1e13)
                for scn, target in zip(scenarios, self.targets)]
        fitted = imdd.with_gamma_bar2(fits[0])
        points = [analytics.outage_exact(GTH_5DB, fitted.at_mu_r_db(mu))
                  for mu in FIG2_POINTS]
        target_checks = [analytics.outage_exact(GTH_5DB, scn.with_gamma_bar2(f))
                         for scn, f in zip(scenarios[1:], fits[1:])]
        outputs = {**{k: [f] for k, f in zip(self.FITS, fits)},
                   "check_points": points, "target_checks": target_checks}
        return PassResult({k: " ".join(repr(float(v)) for v in vals).encode()
                           for k, vals in outputs.items()}, None)

    def prepare_checks(self, first: PassResult):
        """Oracle CDF at 50 dB under the first pass's IM/DD fit."""
        scn = cli_scenario(self.setup_config, FIG2_TARGET[0])
        fit = float(first.outputs["fit_imdd"])
        self.oracle_50 = analytics.sndr_cdf_oracle(GTH_5DB, scn.with_gamma_bar2(fit))

    def check(self, result: PassResult, first: PassResult, values: int) -> int:
        """Failed evaluations: a failing fit fails every bisection step."""
        out = result.outputs
        per_fit = max((values - 5) // len(self.FITS), 1)
        weight = {**dict.fromkeys(self.FITS, per_fit), "check_points": 3,
                  "target_checks": 2}
        ok = {}
        try:
            ok["fit_imdd"] = abs(float(out["fit_imdd"]) / CALIBRATED_GAMMA_BAR2
                                 - 1.0) <= FIT_REL_TOL
            points = _floats(out["check_points"])
            ok["check_points"] = len(points) == len(FIG2_POINTS) and all(
                abs(v / ref - 1.0) <= FIG2_REL_TOL
                for v, ref in zip(points, FIG2_POINTS.values())
            ) and abs(points[1] - self.oracle_50) <= ORACLE_ABS_TOL
            ok["fit_imdd_seed"] = float(out["fit_imdd_seed"]) > 0.0
            ok["fit_het"] = float(out["fit_het"]) > 0.0
            # the other two fits must reproduce their target outages
            checks = _floats(out["target_checks"])
            ok["target_checks"] = len(checks) == 2 and all(
                abs(v / t - 1.0) <= TARGET_REL_TOL
                for v, t in zip(checks, self.targets[1:]))
        except (KeyError, ValueError, IndexError):
            pass
        return sum(w for k, w in weight.items()
                   if not ok.get(k, False) or out.get(k) != first.outputs.get(k))

    def xcheck(self, result: PassResult) -> float:
        return abs(_floats(result.outputs["check_points"])[1] - self.oracle_50)


def _floats(blob: bytes) -> list[float]:
    return [float(t) for t in blob.split()]


WORKLOADS = {w.name: w for w in (ClosedFormSweep, CrossCheckSweep, Calibration)}
