"""tools/output_digest.py: --against prints only changed entries, --values
bounds how far the values of changed CSVs moved."""

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


HEADER = "sweep_value_dB,value,error_estimate,n_samples,scenario_fingerprint\n"


def _write(root, name, rows, fingerprint="abc"):
    path = root / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(HEADER + "".join(f"{r},0,{fingerprint}\n" for r in rows))


def _values(tmp_path, capsys, new_rows, new_fingerprint="abc"):
    old, new = tmp_path / "old", tmp_path / "new"
    same = ["0.0,1.0e-01,1.0e-09", "5.0,2.0e-01,1.0e-09"]
    _write(old, "cfg/outage_exact/outage_exact.csv", same)
    _write(new, "cfg/outage_exact/outage_exact.csv", same)
    _write(old, "cfg/ber_exact/ber_exact.csv",
           ["0.0,3.000000000000e-01,1.0e-09", "5.0,2.0e-01,1.0e-09",
            "10.0,1.0e-01,nan"])
    _write(new, "cfg/ber_exact/ber_exact.csv", new_rows, new_fingerprint)
    code = digest.main(["--values", str(old), str(new)])
    return code, capsys.readouterr().out.splitlines()


def test_values_within_error_estimate(tmp_path, capsys):
    code, out = _values(tmp_path, capsys, [
        "0.0,3.000000000002e-01,1.0e-09", "5.0,2.0e-01,1.0e-09",
        "10.0,1.0e-01,nan"])
    assert code == 0
    assert out == ["cfg/ber_exact/ber_exact.csv moved 1/3 rows, max |dvalue| "
                   "2.000e-13, max |dvalue|/error_estimate 2.000e-04, "
                   "max |dvalue|/|value| 6.667e-13"]


def test_values_report_moves_when_fingerprints_change(tmp_path, capsys):
    # a new fingerprint on every row neither hides the value moves nor
    # passes: the rows still line up, and the count fails the comparison
    code, out = _values(tmp_path, capsys, [
        "0.0,3.000000000000e-01,1.0e-09", "5.0,2.0e-01,1.0e-09",
        "10.0,1.0e-01,nan"], new_fingerprint="abd")
    assert code == 1
    assert out == ["cfg/ber_exact/ber_exact.csv moved 0/3 rows, max |dvalue| "
                   "0.000e+00, max |dvalue|/error_estimate 0.000e+00, "
                   "max |dvalue|/|value| 0.000e+00",
                   "3 fingerprints changed"]
    code, out = _values(tmp_path, capsys, [
        "0.0,3.000000000002e-01,1.0e-09", "5.0,2.0e-01,1.0e-09",
        "10.0,1.0e-01,nan"], new_fingerprint="abd")
    assert code == 1
    assert out[0].startswith("cfg/ber_exact/ber_exact.csv moved 1/3 rows, "
                             "max |dvalue| 2.000e-13")
    assert out[1:] == ["3 fingerprints changed"]


def test_values_beyond_error_estimate_or_nan_estimate(tmp_path, capsys):
    code, out = _values(tmp_path, capsys, [
        "0.0,3.000000020000e-01,1.0e-09", "5.0,2.0e-01,1.0e-09",
        "10.0,1.0e-01,nan"])
    assert code == 1
    assert out[0].endswith(", 1 beyond their error_estimate")
    code, out = _values(tmp_path, capsys, [
        "0.0,3.000000000000e-01,1.0e-09", "5.0,2.0e-01,1.0e-09",
        "10.0,1.000000000001e-01,nan"])
    assert code == 1
    assert out[0].endswith(", 1 beyond their error_estimate")


def test_values_rows_must_line_up(tmp_path, capsys):
    code, out = _values(tmp_path, capsys, ["0.0,3.0e-01,1.0e-09"])
    assert (code, out) == (1, ["cfg/ber_exact/ber_exact.csv rows do not line up"])
    code, out = _values(tmp_path, capsys, [
        "0.0,3.000000000000e-01,1.0e-09", "5.0,2.0e-01,1.0e-09",
        "15.0,1.0e-01,nan"])
    assert (code, out) == (1, ["cfg/ber_exact/ber_exact.csv rows do not line up"])
    (tmp_path / "new" / "cfg" / "ber_exact" / "ber_exact.csv").unlink()
    code = digest.main(["--values", str(tmp_path / "old"), str(tmp_path / "new")])
    assert code == 1
    assert capsys.readouterr().out.startswith("cfg/ber_exact/ber_exact.csv only in ")
