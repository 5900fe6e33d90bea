"""One measurement of a benchmark run, in a process of its own, so that no
pass sees what an earlier pass left behind in the process (a cache, a warm
allocator): a user runs one sweep or calibration per process.

    python3 perfbench/worker.py setup CONFIG
        Time ``import optfeeder``, config load and the first scenario build,
        turbulence pipeline included.  Prints the seconds.
    python3 perfbench/worker.py pass WORKLOAD SEED TINY TRACE WORKDIR OUTDIR
        Run one pass of a workload with only the value-latency probes
        installed (TRACE 0) or with every layer wrapped (TRACE 1).  Writes
        the pass's timings, outputs and spans to OUTDIR/result.json.

``run.py`` starts these from the repository root with the thread variables
already pinned.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "src"),
                str(Path(__file__).resolve().parent)]


def setup(config: str):
    from optfeeder import cli
    cp, _ = cli.load_config(config)
    cli._scenario_from_config(cp, 50.0, {})
    print(repr(time.perf_counter() - START))


def one_pass(workload: str, seed: int, tiny: bool, trace: bool,
             workdir: Path, outdir: Path):
    import tracing
    import workloads
    wl = workloads.WORKLOADS[workload](seed, tiny, workdir)
    if trace:
        rec, targets = tracing.Recorder(time.perf_counter), tracing.TRACED_FUNCTIONS
    else:
        rec = tracing.Recorder(time.process_time)
        targets = dict.fromkeys(tracing.VALUE_FUNCTIONS)
    with rec.installed(targets):
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            res = wl.run_pass(outdir)
        except Exception:   # a pass that raises fails all it owed
            traceback.print_exc()
            res = None
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    record = {
        "wall": wall, "cpu": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "latencies": rec.value_latencies(),
        "result": None if res is None else {
            "outputs": {k: v.decode() for k, v in res.outputs.items()},
            "owed": res.owed, "lost": res.lost},
        "layer_stats": rec.layer_stats() if trace else None,
        "leftover_wrappers": tracing.wrapped_attributes(),
    }
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "result.json").write_text(json.dumps(record))


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2])
    else:
        workload, seed, tiny, trace, workdir, outdir = sys.argv[2:8]
        one_pass(workload, int(seed), tiny == "1", trace == "1",
                 Path(workdir), Path(outdir))
