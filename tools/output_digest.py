"""SHA-256 listing of the CLI outputs for the shipped configs.

    PYTHONPATH=src python3 tools/output_digest.py OUT_DIR
    PYTHONPATH=src python3 tools/output_digest.py OUT_DIR --against LISTING
    python3 tools/output_digest.py --values OLD_DIR NEW_DIR

Runs twenty-three sweeps over each config in ``configs/`` in-process through
``optfeeder.cli.main``, then four along ``cn2`` and four along ``xi``, each
into its own subdirectory of OUT_DIR, and prints one line per output file:
run name, exit code, file name, SHA-256.  The ``cn2`` and ``xi`` grids reach
the runs through copies of the config with a ``[sweep] grid``, written to a
temporary directory.
``manifest.json`` records the output paths, so it is hashed with the run's
directory replaced by a fixed token; listings made from two source trees
into different directories can then be compared with ``diff``.  The CLI's
own messages go to standard error.

With ``--against``, LISTING is a listing saved from an earlier run: only
the entries whose line differs are printed, the old one prefixed ``-`` and
the new one ``+``, and the exit status is 1 if any entry differs.

With ``--values``, OLD_DIR and NEW_DIR are two such output directories, and
no sweep runs.  Rows line up on ``sweep_value_dB`` and ``n_samples``.  For
every CSV whose bytes differ it prints the number of rows whose value or
estimate moved, the largest |change of value|, and the largest ratio of that
change to the row's new ``error_estimate`` and to its new |value|; then the
number of rows whose ``scenario_fingerprint`` changed, if any, on a line of
its own.  The exit status is 1 if any moved value exceeds its
``error_estimate`` (a NaN estimate counts as exceeded), if any fingerprint
changed, or if a CSV is missing on one side or its rows do not line up.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
MC = ["--method", "monte-carlo", "--samples", "200000"]
OOK = ["--metric", "ber", "--modulation", "ook"]

RUNS = {
    "outage_exact": ["--metric", "outage", "--method", "exact"],
    "outage_asymptotic": ["--metric", "outage", "--method", "asymptotic"],
    "outage_oracle": ["--metric", "outage", "--method", "oracle"],
    "outage_mc": ["--metric", "outage"] + MC,
    "outage_linear_exact": ["--metric", "outage", "--hpa", "linear",
                            "--method", "exact"],
    "ber_ook_exact": OOK + ["--method", "exact"],
    "ber_ook_asymptotic": OOK + ["--method", "asymptotic"],
    "ber_ook_oracle": OOK + ["--method", "oracle"],
    "ber_ook_mc": OOK + MC,
    "ber_16qam_het_exact": ["--metric", "ber", "--modulation", "mqam",
                            "--mod-order", "16", "--detection", "het",
                            "--method", "exact"],
    "ber_16qam_het_oracle": ["--metric", "ber", "--modulation", "mqam",
                             "--mod-order", "16", "--detection", "het",
                             "--method", "oracle"],
    "capacity_imdd_exact": ["--metric", "capacity", "--method", "exact"],
    "capacity_het_exact": ["--metric", "capacity", "--detection", "het",
                           "--method", "exact"],
    "capacity_imdd_oracle": ["--metric", "capacity", "--method", "oracle"],
    "capacity_het_oracle": ["--metric", "capacity", "--detection", "het",
                            "--method", "oracle"],
    "moments_exact": ["--metric", "moments", "--order", "2", "--method", "exact"],
    "moments_het_exact": ["--metric", "moments", "--order", "3", "--detection", "het",
                          "--method", "exact"],
    "ber_bpsk_sspa": ["--metric", "ber", "--modulation", "bpsk", "--hpa", "sspa",
                      "--detection", "het", "--method", "exact,asymptotic"],
    # the other sweep variables: each point carries its own threshold or
    # back-off, which a mu_r sweep leaves at the run's value
    "gamma_th_exact": ["--sweep", "gamma_th_db", "--metric", "outage",
                       "--method", "exact"],
    "gamma_th_oracle": ["--sweep", "gamma_th_db", "--metric", "outage",
                        "--method", "oracle"],
    "gamma_th_mc": ["--sweep", "gamma_th_db", "--metric", "outage"] + MC,
    "ibo_exact": ["--sweep", "ibo_db", "--metric", "outage", "--method", "exact"],
    "ibo_sspa_exact_mc": ["--sweep", "ibo_db", "--metric", "outage", "--hpa", "sspa",
                          "--method", "exact,monte-carlo", "--samples", "200000"],
}

# Both shipped configs hold one atmosphere (cn2 = 1e-12) and one xi (1.1), so
# the runs above see the feeder law at one (alpha, beta, xi) per detection.
# These sweep the feeder's own inputs; xi = 1 sits on an integer coincidence,
# where the high-SNR expansion perturbs its parameters.
FEEDER_GRIDS = {
    "cn2": (1e-15, 1e-14, 1e-13, 3e-13, 1e-12, 3e-12),
    "xi": (0.6, 0.8, 1.0, 1.3, 1.7, 2.2, 3.0),
}
OUTAGE_ALL = ["--metric", "outage", "--method", "exact,oracle,asymptotic"]
FEEDER_RUNS = {
    "outage_imdd": OUTAGE_ALL + ["--detection", "imdd"],
    "outage_het": OUTAGE_ALL + ["--detection", "het"],
    "ber_16qam_het": ["--metric", "ber", "--modulation", "mqam", "--mod-order", "16",
                      "--detection", "het", "--method", "exact,asymptotic"],
    "moments_het": ["--metric", "moments", "--order", "3", "--detection", "het",
                    "--method", "exact"],
}


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


def _runs(config: Path, grid_dir: Path):
    """(run name, argv) of every sweep over one config."""
    for name, argv in RUNS.items():
        yield name, ["--config", str(config)] + argv
    for variable, grid in FEEDER_GRIDS.items():
        copy = _with_grid(config, grid, grid_dir / f"{config.stem}_{variable}.ini")
        for name, argv in FEEDER_RUNS.items():
            yield f"{variable}_{name}", ["--config", str(copy), "--sweep", variable] + argv


def listing(out_root: str):
    """Run every sweep into OUT_ROOT and yield one listing line per file."""
    from optfeeder import cli   # --values needs only the standard library
    with tempfile.TemporaryDirectory() as grid_dir:
        for config in sorted(CONFIGS.glob("*.ini")):
            for name, argv in _runs(config, Path(grid_dir)):
                run = f"{config.stem}/{name}"
                out = Path(out_root) / config.stem / name
                with contextlib.redirect_stdout(sys.stderr):
                    code = cli.main(argv + ["--out", str(out)])
                files = sorted(out.glob("*")) if out.is_dir() else []
                if not files:
                    yield f"{run} {code} - -"
                for path in files:
                    data = path.read_bytes()
                    if path.name == "manifest.json":
                        # the path as json.dump wrote it, escapes included
                        data = data.replace(json.dumps(str(out))[1:-1].encode(),
                                            b"<OUT_DIR>")
                    yield f"{run} {code} {path.name} {hashlib.sha256(data).hexdigest()}"


def _entries(lines) -> dict:
    """Listing lines keyed by (run, file name)."""
    return {(f[0], f[2]): line for line in lines if len(f := line.split()) == 4}


def _rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _key(row: dict) -> tuple:
    """The columns that line a row up with its counterpart."""
    return row["sweep_value_dB"], row["n_samples"]


def _ratio(d: float, scale: float) -> float:
    """d / scale; a NaN or zero scale bounds no change at all."""
    return d / scale if scale > 0 else (math.inf if d else 0.0)


def value_report(old_dir: Path, new_dir: Path) -> int:
    """Print how far the values of every differing CSV moved; 1 if too far."""
    names = sorted({p.relative_to(root) for root in (old_dir, new_dir)
                    for p in root.rglob("*.csv")})
    status = fingerprints = 0
    for name in names:
        old_path, new_path = old_dir / name, new_dir / name
        if not (old_path.is_file() and new_path.is_file()):
            print(f"{name} only in {old_dir if old_path.is_file() else new_dir}")
            status = 1
            continue
        if old_path.read_bytes() == new_path.read_bytes():
            continue
        old, new = _rows(old_path), _rows(new_path)
        if list(map(_key, old)) != list(map(_key, new)):
            print(f"{name} rows do not line up")
            status = 1
            continue
        fingerprints += sum(a["scenario_fingerprint"] != b["scenario_fingerprint"]
                            for a, b in zip(old, new))
        moved = []    # (|dvalue|, new error_estimate, new |value|)
        for a, b in zip(old, new):
            if (a["value"], a["error_estimate"]) != (b["value"], b["error_estimate"]):
                value = float(b["value"])
                moved.append((abs(value - float(a["value"])),
                              float(b["error_estimate"]), abs(value)))
        ratios = [_ratio(d, e) for d, e, _ in moved]
        exceeded = sum(not r <= 1.0 for r in ratios)
        print(f"{name} moved {len(moved)}/{len(new)} rows, max |dvalue| "
              f"{max((d for d, _, _ in moved), default=0.0):.3e}, "
              f"max |dvalue|/error_estimate {max(ratios, default=0.0):.3e}, "
              f"max |dvalue|/|value| "
              f"{max((_ratio(d, v) for d, _, v in moved), default=0.0):.3e}"
              + (f", {exceeded} beyond their error_estimate" if exceeded else ""))
        status |= exceeded > 0
    if fingerprints:
        print(f"{fingerprints} fingerprints changed")
    return int(status or fingerprints > 0)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out_dir", metavar="OUT_DIR", nargs="?")
    ap.add_argument("--against", type=Path, metavar="LISTING",
                    help="print only the entries that differ from LISTING")
    ap.add_argument("--values", type=Path, nargs=2, metavar=("OLD_DIR", "NEW_DIR"),
                    help="compare the CSV values of two output directories")
    args = ap.parse_args(argv)
    if args.values is not None:
        return value_report(*args.values)
    if args.out_dir is None:
        ap.error("OUT_DIR is required without --values")
    if args.against is None:
        for line in listing(args.out_dir):
            print(line, flush=True)
        return 0
    old = _entries(args.against.read_text().splitlines())
    new = _entries(listing(args.out_dir))
    changed = 0
    for key in sorted(old.keys() | new.keys()):
        if old.get(key) != new.get(key):
            changed += 1
            for sign, side in (("-", old), ("+", new)):
                if key in side:
                    print(sign, side[key], flush=True)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
