"""optfeeder benchmark: sweep and calibration workloads, end-to-end timings,
per-layer call tracing.

Run one workload (from the repository root):

    python3 perfbench/run.py --workload closed_form_sweep --seed 1 --seconds 16 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
Every run also appends a full record (both metric sets, pass times, output
hashes, machine provenance, tracing overhead) to a results file, by default
``.perfbench_out/results.jsonl``.

Compare two results files, per workload and end-to-end metric:

    python3 perfbench/run.py --compare base.jsonl new.jsonl

One run: three fresh processes time set-up (``setup_s``, median).  The
workload then repeats whole passes for ``--seconds``, at least three, each
in a fresh process (``worker.py``) with only the value-latency probes
installed, so no pass finds anything an earlier pass cached.  One more
fresh pass runs with every layer wrapped, for the per-layer metrics.  Value
latencies are the CPU time of each call: a pass is single-threaded and
compute-bound, so this is its wall time less the time a shared host steals,
which otherwise decides the tail.  Correctness is checked after the timed
passes: every pass, traced one included, must give correct values and
outputs byte-identical to the first pass's.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:          # before numpy is imported anywhere
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
OUT = ROOT / ".perfbench_out"
REQUIRED = (SPEC, ROOT / "src" / "optfeeder" / "__init__.py",
            ROOT / "configs" / "outage_strong_turbulence.ini",
            ROOT / "configs" / "floor_phenomenology.ini")
MIN_PASSES = 3
SETUP_RUNS = 3
SETUP_TIMEOUT_S = 60
PASS_TIMEOUT_S = 60

ANALYTICS_FNS = ("sndr_cdf_exact", "ber_exact", "capacity_exact", "sndr_moments",
                 "sndr_cdf_oracle", "outage_asymptotic", "ber_asymptotic",
                 "fit_gamma_bar2")
MC_KINDS = ("outage", "cdf", "ber", "capacity", "moment")
# (traced function, statistics reported); "grid_nodes", "args", "points" and
# "samples" are the work counts the tracer takes from each call
LAYER_METRICS = (
    ("fso_link.scintillation_params", ("calls", "total_s")),
    ("system.build_scenario", ("calls", "self_s")),
    ("system.ScenarioConfig.at_mu_r", ("calls",)),
    ("transponder.hpa_state", ("calls", "total_s")),
    ("rf_link.beam_gain_matrix", ("calls",)),
    ("specfun.meijer_g_bivariate_family", ("calls", "total_s", "grid_nodes")),
    ("specfun.meijer_g_many", ("calls", "args", "total_s")),
    ("fso_link.gamma1_pdf", ("calls", "points", "self_s")),
    ("rf_link.gamma2_ccdf", ("calls", "total_s")),
    ("specfun.tricomi_u", ("calls", "total_s")),
    ("specfun.meijer_g_2_1_1_2", ("calls",)),
    *((f"analytics.{fn}", ("calls", "self_s")) for fn in ANALYTICS_FNS),
    ("montecarlo.simulate_sndr", ("samples",)),
    *((f"montecarlo.empirical_{kind}", ("total_s",)) for kind in MC_KINDS),
    ("fso_link.sample_gamma1", ("total_s",)),
    ("rf_link.sample_gamma2", ("total_s",)),
    ("system.sndr", ("total_s",)),
    ("cli.main", ("self_s",)),
)


def _import_benchmark():
    for path in (str(HERE), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import tracing
    import workloads
    return tracing, workloads


def _worker(*args, timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "worker.py"), *map(str, args)],
                          cwd=ROOT, capture_output=True, text=True, timeout=timeout)


def _setup_probe(config: Path) -> float:
    proc = _worker("setup", config, timeout=SETUP_TIMEOUT_S)
    if proc.returncode:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _layer_metrics(stats: dict) -> dict:
    out = {}
    for fn, keys in LAYER_METRICS:
        st = stats.get(fn, {})
        for key in keys:
            if key in ("calls", "total_s", "self_s"):
                value = st.get(key, 0)
            else:
                value = st.get("count", 0)
            out[f"{fn}.{key}"] = _metric(value, "s" if key.endswith("_s") else "count")
    mc_busy = sum(stats.get(f"montecarlo.empirical_{k}", {}).get("total_s", 0.0)
                  for k in MC_KINDS)
    samples = stats.get("montecarlo.simulate_sndr", {}).get("count", 0)
    out["montecarlo.samples_per_s"] = _metric(samples / mc_busy if mc_busy else 0.0, "1/s")
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> str:
    """Commit of the checkout when it is a git work tree, else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_commit": _git_commit(),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


@dataclass
class _Pass:
    wall: float
    cpu: float
    peak_rss_mb: float
    latencies: list          # CPU seconds of each outermost value call
    result: object           # workloads.PassResult, None if the pass failed
    layer_stats: dict | None  # traced pass only


def _run_pass(workload, seed, tiny, trace, workdir: Path, tag: str) -> _Pass:
    """One pass in a fresh worker process; a failed pass has no result."""
    outdir = workdir / tag
    try:
        proc = _worker("pass", workload, seed, int(tiny), int(trace), workdir,
                       outdir, timeout=PASS_TIMEOUT_S)
        rec = json.loads((outdir / "result.json").read_text()) \
            if proc.returncode == 0 else None
        if proc.returncode or rec["result"] is None:
            print(f"perfbench: pass {tag} failed:\n{proc.stdout}{proc.stderr}",
                  file=sys.stderr)
    except subprocess.TimeoutExpired:
        print(f"perfbench: pass {tag} timed out", file=sys.stderr)
        rec = None
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    if rec is None:
        return _Pass(math.nan, math.nan, math.nan, [], None, None)
    if rec["leftover_wrappers"]:
        raise RuntimeError(f"wrappers left installed: {rec['leftover_wrappers']}")
    res = rec["result"]
    if res is not None:
        res = _import_benchmark()[1].PassResult({k: v.encode() for k, v in res["outputs"].items()},
                         res["owed"], res["lost"])
    return _Pass(rec["wall"], rec["cpu"], rec["peak_rss_mb"], rec["latencies"],
                 res, rec["layer_stats"])


def run_workload(name: str, seed: int, seconds: float, tiny: bool = False) -> dict:
    """One benchmark run; returns the full results record."""
    tracing, workloads = _import_benchmark()
    cls = workloads.WORKLOADS[name]
    setup = [_setup_probe(cls.setup_config) for _ in range(1 if tiny else SETUP_RUNS)]
    min_passes = 1 if tiny else MIN_PASSES

    workdir = OUT / f"run-{os.getpid()}-{name}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        wl = cls(seed, tiny, workdir)
        passes = []
        window = time.perf_counter()
        while len(passes) < min_passes or time.perf_counter() - window < seconds:
            passes.append(_run_pass(name, seed, tiny, False, workdir,
                                    f"pass{len(passes)}"))
        traced = _run_pass(name, seed, tiny, True, workdir, "traced")

        done = [p for p in passes if p.result is not None]
        if not done:
            raise RuntimeError(f"{name}: every timed pass failed")
        first = done[0].result
        # values a pass owes: the CLI rows it requested, or (calibration)
        # the evaluations a pass made
        owed = max(first.owed or len(done[0].latencies), 1)
        wl.prepare_checks(first)
        xcheck = wl.xcheck(first)
        # a CDF difference never exceeds 1: 1.0 marks "no comparison possible"
        xcheck = xcheck if math.isfinite(xcheck) else 1.0
        attempted = failed = 0
        for p in passes + [traced]:
            attempted += owed
            failed += owed if p.result is None else \
                min(wl.check(p.result, first, owed), owed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    walls = [p.wall for p in done]
    latencies = [t for p in done for t in p.latencies]
    if not latencies:
        raise RuntimeError(f"{name}: no value-producing call was observed")
    tail_p, tail_s = tracing.tail(latencies)
    wall_s = statistics.median(walls)
    end_to_end = {
        "wall_s": _metric(wall_s, "s"),
        "values_per_s": _metric(owed / wall_s, "1/s"),
        "value_p50_ms": _metric(1e3 * statistics.median(latencies), "ms"),
        "value_tail_ms": _metric(1e3 * tail_s, "ms"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "peak_rss_mb": _metric(statistics.median(p.peak_rss_mb for p in done), "MB"),
    }
    # a failed traced pass already counts all its values as failed
    per_layer = _layer_metrics(traced.layer_stats or {})
    per_layer["failed_fraction"] = _metric(failed / attempted, "1")
    per_layer["xcheck_max_abs"] = _metric(xcheck, "1")
    return {
        "workload": name, "seed": seed, "seconds": seconds, "tiny": tiny,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "end_to_end": end_to_end, "per_layer": per_layer,
        "passes": len(passes), "pass_wall_s": walls,
        "pass_cpu_s": [p.cpu for p in done], "traced_wall_s": traced.wall,
        "tracing_overhead_s": traced.wall - wall_s,
        "value_tail_percentile": tail_p, "value_samples": len(latencies),
        "setup_samples_s": setup,
        "output_sha256": {k: hashlib.sha256(v).hexdigest()
                          for k, v in first.outputs.items()},
        "provenance": provenance(),
    }


# ---------------------------------------------------------------------------
# compare mode
# ---------------------------------------------------------------------------

def _load(path: Path) -> dict:
    """Runs of a results file grouped by workload."""
    runs = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                runs.setdefault(rec["workload"], []).append(rec)
    return runs


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(base_path: Path, new_path: Path) -> int:
    """Print each side's median and quartiles per workload and end-to-end
    metric, the ratio new/base, and flag regressions beyond the bound and
    results the base's own spread cannot resolve.  Returns 1 if any flag."""
    spec = json.loads(SPEC.read_text())
    base, new = _load(base_path), _load(new_path)
    flagged = 0
    print(f"base = {base_path}, new = {new_path}; ratio = new median / base median")
    for wl in sorted(set(base) & set(new)):
        print(f"\n{wl}: {len(base[wl])} base runs, {len(new[wl])} new runs")
        for m in spec["end_to_end"]:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            b = [r["end_to_end"][name]["value"] for r in base[wl]]
            n = [r["end_to_end"][name]["value"] for r in new[wl]]
            bq, nq = _quartiles(b), _quartiles(n)
            ratio = nq[1] / bq[1] if bq[1] else float("inf")
            worse = (ratio - 1.0) if lower else (1.0 - ratio)
            spread = (bq[2] - bq[0]) / abs(bq[1]) if bq[1] else float("inf")
            all_better = (max(n) < min(b)) if lower else (min(n) > max(b))
            if spread > bound and not all_better:
                verdict = "UNRESOLVED"
            elif worse > bound:
                verdict = "WORSE"
            else:
                verdict = "better" if worse < 0 else "ok"
            flagged += verdict in ("UNRESOLVED", "WORSE")
            print(f"  {name:14s} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}]"
                  f"  new {nq[1]:.6g} [{nq[0]:.6g}, {nq[2]:.6g}]"
                  f"  ratio {ratio:.4f} (base {bq[1]:.6g} {m['unit']})"
                  f"  bound {bound:.0%}  {verdict}")
    return 1 if flagged else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", type=Path, default=OUT / "results.jsonl",
                    help="results file the run record is appended to")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "NEW"))
    args = ap.parse_args(argv)

    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.exists()]
    if missing:
        print(f"perfbench: not a checkout of optfeeder, missing {missing}",
              file=sys.stderr)
        return 2
    if args.compare:
        return compare(*args.compare)
    names = [m["name"] for m in json.loads(SPEC.read_text())["workloads"]]
    if args.workload not in names:
        print(f"perfbench: --workload must be one of {names}", file=sys.stderr)
        return 2

    # on SIGTERM, unwind: subprocess.run then kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    record = run_workload(args.workload, args.seed, args.seconds)
    record["trace"] = args.trace
    args.results.parent.mkdir(parents=True, exist_ok=True)
    with open(args.results, "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(f"perfbench: record appended to {args.results}")
    metrics = record["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
