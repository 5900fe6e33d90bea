"""SHA-256 listing of the CLI outputs for the shipped configs.

    PYTHONPATH=src python3 tools/output_digest.py OUT_DIR

Runs twelve sweeps over each config in ``configs/`` in-process through
``optfeeder.cli.main``, each into its own subdirectory of OUT_DIR, and
prints one line per output file: run name, exit code, file name, SHA-256.
``manifest.json`` records the output paths, so it is hashed with the run's
directory replaced by a fixed token; listings made from two source trees
into different directories can then be compared with ``diff``.  The CLI's
own messages go to standard error.
"""

from __future__ import annotations

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


def main(out_root: str) -> None:
    for config in sorted(CONFIGS.glob("*.ini")):
        for name, argv in RUNS.items():
            run = f"{config.stem}/{name}"
            out = Path(out_root) / config.stem / name
            with contextlib.redirect_stdout(sys.stderr):
                code = cli.main(["--config", str(config), "--out", str(out)] + argv)
            files = sorted(out.glob("*")) if out.is_dir() else []
            if not files:
                print(run, code, "-", "-", flush=True)
            for path in files:
                data = path.read_bytes()
                if path.name == "manifest.json":
                    # the path as json.dump wrote it, escapes included
                    data = data.replace(json.dumps(str(out))[1:-1].encode(),
                                        b"<OUT_DIR>")
                print(run, code, path.name, hashlib.sha256(data).hexdigest(),
                      flush=True)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
