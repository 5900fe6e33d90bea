"""Smoke test of the benchmark itself: each workload at a tiny size.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

tracing, _ = run._import_benchmark()
SPEC = json.loads(run.SPEC.read_text())


@pytest.fixture(scope="module")
def records():
    return {}


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(name, records):
    rec = run.run_workload(name, seed=7, seconds=0, tiny=True)
    records[name] = rec
    assert rec["failed"] == 0 and rec["correct"] and rec["attempted"] >= 1
    for section in ("end_to_end", "per_layer"):
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        got = rec[section]
        assert set(got) == set(want)
        for metric, unit in want.items():
            assert got[metric]["unit"] == unit, metric
            assert isinstance(got[metric]["value"], (int, float)), metric
    for metric in SPEC["end_to_end"]:
        assert rec["end_to_end"][metric["name"]]["value"] > 0, metric["name"]
    # run_workload raises if the traced worker left a wrapper installed
    prov = rec["provenance"]
    assert prov["nproc"] >= 1 and all(v == "1" for v in prov["threads"].values())


def test_counts_repeat_exactly(records):
    name = "closed_form_sweep"
    again = run.run_workload(name, seed=7, seconds=0, tiny=True)
    before = records.get(name) or run.run_workload(name, seed=7, seconds=0, tiny=True)
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert counts
    for metric in counts:
        assert again["per_layer"][metric] == before["per_layer"][metric], metric
    assert again["output_sha256"] == before["output_sha256"]


def test_wrappers_are_removed_even_after_an_error():
    from optfeeder import specfun, system
    original = specfun.meijer_g_bivariate_family
    original_method = vars(system.ScenarioConfig)["at_mu_r"]
    rec = tracing.Recorder()
    with pytest.raises(KeyError):
        with rec.installed(tracing.TRACED_FUNCTIONS):
            assert set(tracing.wrapped_attributes()) == set(tracing.TRACED_FUNCTIONS)
            raise KeyError("boom")
    assert tracing.wrapped_attributes() == []
    assert specfun.meijer_g_bivariate_family is original
    assert vars(system.ScenarioConfig)["at_mu_r"] is original_method


def test_a_missing_target_fails_instead_of_reading_zero():
    rec = tracing.Recorder()
    with pytest.raises(AttributeError, match="no_such_function"):
        with rec.installed({"specfun.no_such_function": None}):
            pass
    assert tracing.wrapped_attributes() == []


def test_self_time_subtracts_child_spans():
    rec = tracing.Recorder()

    def leaf():
        time.sleep(0.02)

    leaf_w = rec._wrap("leaf", leaf, None)

    def outer():
        leaf_w()
        leaf_w()
        time.sleep(0.01)
        return [4, 5, 6]

    outer_w = rec._wrap("outer", outer, lambda args, kwargs, out: len(out))
    outer_w()
    stats = rec.layer_stats()
    assert stats["leaf"]["calls"] == 2 and stats["outer"]["calls"] == 1
    assert stats["outer"]["count"] == 3
    assert stats["outer"]["self_s"] == pytest.approx(
        stats["outer"]["total_s"] - stats["leaf"]["total_s"])
    assert 0.005 < stats["outer"]["self_s"] < stats["leaf"]["total_s"]
    # leaf calls nest inside a non-value span, so they are not value calls
    assert rec.value_latencies() == []


def test_tail_keeps_ten_samples_beyond():
    values = list(range(100, 0, -1))
    p, v = tracing.tail(values)
    assert v == 90 and sum(x > v for x in values) == 10 and p == 90.0
    assert tracing.tail([3.0, 1.0, 2.0]) == (50.0, 2.0)   # too few for a tail
