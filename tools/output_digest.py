"""SHA-256 listing of the CLI outputs for the shipped configs.

    PYTHONPATH=src python3 tools/output_digest.py OUT_DIR
    PYTHONPATH=src python3 tools/output_digest.py OUT_DIR --against LISTING

Runs twelve sweeps over each config in ``configs/`` in-process through
``optfeeder.cli.main``, each into its own subdirectory of OUT_DIR, and
prints one line per output file: run name, exit code, file name, SHA-256.
``manifest.json`` records the output paths, so it is hashed with the run's
directory replaced by a fixed token; listings made from two source trees
into different directories can then be compared with ``diff``.  The CLI's
own messages go to standard error.

With ``--against``, LISTING is a listing saved from an earlier run: only
the entries whose line differs are printed, the old one prefixed ``-`` and
the new one ``+``, and the exit status is 1 if any entry differs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
from pathlib import Path

from optfeeder import cli

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
MC = ["--method", "monte-carlo", "--samples", "200000"]
OOK = ["--metric", "ber", "--modulation", "ook"]

RUNS = {
    "outage_exact": ["--metric", "outage", "--method", "exact"],
    "outage_asymptotic": ["--metric", "outage", "--method", "asymptotic"],
    "outage_oracle": ["--metric", "outage", "--method", "oracle"],
    "outage_mc": ["--metric", "outage"] + MC,
    "ber_ook_exact": OOK + ["--method", "exact"],
    "ber_ook_asymptotic": OOK + ["--method", "asymptotic"],
    "ber_ook_mc": OOK + MC,
    "ber_16qam_het_exact": ["--metric", "ber", "--modulation", "mqam",
                            "--mod-order", "16", "--detection", "het",
                            "--method", "exact"],
    "capacity_imdd_exact": ["--metric", "capacity", "--method", "exact"],
    "capacity_het_exact": ["--metric", "capacity", "--detection", "het",
                           "--method", "exact"],
    "moments_exact": ["--metric", "moments", "--order", "2", "--method", "exact"],
    "ber_bpsk_sspa": ["--metric", "ber", "--modulation", "bpsk", "--hpa", "sspa",
                      "--detection", "het", "--method", "exact,asymptotic"],
}


def listing(out_root: str):
    """Run every sweep into OUT_ROOT and yield one listing line per file."""
    for config in sorted(CONFIGS.glob("*.ini")):
        for name, argv in RUNS.items():
            run = f"{config.stem}/{name}"
            out = Path(out_root) / config.stem / name
            with contextlib.redirect_stdout(sys.stderr):
                code = cli.main(["--config", str(config), "--out", str(out)] + argv)
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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out_dir", metavar="OUT_DIR")
    ap.add_argument("--against", type=Path, metavar="LISTING",
                    help="print only the entries that differ from LISTING")
    args = ap.parse_args(argv)
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
