"""tools/output_digest.py --against: only changed entries, exit status 1."""

import importlib.util
from pathlib import Path

DIGEST = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"


def _load_digest():
    spec = importlib.util.spec_from_file_location("output_digest", DIGEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


digest = _load_digest()

OLD = ["cfg/outage_exact 0 manifest.json aa",
       "cfg/outage_exact 0 outage_exact.csv bb",
       "cfg/ber_ook_exact 0 ber_exact.csv cc",
       "cfg/gone 0 gone.csv dd"]


def _run(tmp_path, monkeypatch, capsys, new_lines):
    listing = tmp_path / "listing.txt"
    listing.write_text("\n".join(OLD) + "\n")
    monkeypatch.setattr(digest, "listing", lambda out_root: iter(new_lines))
    code = digest.main([str(tmp_path / "out"), "--against", str(listing)])
    return code, capsys.readouterr().out.splitlines()


def test_against_identical_listing(tmp_path, monkeypatch, capsys):
    assert _run(tmp_path, monkeypatch, capsys, OLD) == (0, [])


def test_against_prints_only_changed_entries(tmp_path, monkeypatch, capsys):
    new = [OLD[0], "cfg/outage_exact 0 outage_exact.csv b2", OLD[2],
           "cfg/added 2 - -"]
    code, out = _run(tmp_path, monkeypatch, capsys, new)
    assert code == 1
    assert out == ["+ cfg/added 2 - -",
                   "- cfg/gone 0 gone.csv dd",
                   "- cfg/outage_exact 0 outage_exact.csv bb",
                   "+ cfg/outage_exact 0 outage_exact.csv b2"]
