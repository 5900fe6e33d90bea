"""The benchmark's traced names resolve against the library, so a rename or
deletion of a traced function fails here rather than in a benchmark run, and
the work counters read the work that the traced calls did."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("name", list(tracing.TRACED_FUNCTIONS))
def test_traced_function_resolves(name):
    owner, attr = tracing._resolve(name)
    assert callable(vars(owner)[attr])


def test_traced_counters_read_the_work_done(scenario_factory, monkeypatch):
    # the counters read their work from arguments by position, so a moved
    # signature must fail here: the density's count is checked against a
    # wrapper beneath the tracer that sees the points actually evaluated.
    # No library path calls the density, so the test calls it on a batch
    from optfeeder import analytics, fso_link
    scn = scenario_factory(mu_r_db=30.0)
    points = []
    pdf = fso_link.gamma1_pdf

    def counted(gamma1, *args):
        points.append(np.size(gamma1))
        return pdf(gamma1, *args)

    monkeypatch.setattr(fso_link, "gamma1_pdf", counted)
    recorder = tracing.Recorder()
    with recorder.installed(tracing.TRACED_FUNCTIONS):
        fso_link.gamma1_pdf(scn.mu_r * np.geomspace(1e-3, 1e3, 40), scn.feeder_law, scn.mu_r)
        analytics.outage_exact(2.0, scn)
    stats = recorder.layer_stats()
    assert sum(points) > len(points)
    assert stats["fso_link.gamma1_pdf"]["count"] == sum(points)
    assert stats["specfun.meijer_g_many"]["count"] > 0
    assert stats["specfun.meijer_g_bivariate_family"]["count"] > 0
