"""Stochastic simulator: determinism contract, confidence-interval scaling,
and agreement with the analytic layer."""

import math
import tracemalloc

import numpy as np
import pytest

from optfeeder import analytics, montecarlo

from conftest import HEAVY_SHADOWING


@pytest.fixture(scope="module")
def scenario(scenario_factory):
    return scenario_factory(mu_r_db=30.0)


def test_stream_deterministic(scenario):
    plan = montecarlo.SimPlan((scenario,), 300_000, seed=77, batch_size=1 << 16)
    a = np.concatenate(list(montecarlo.simulate_sndr(plan)))
    b = np.concatenate(list(montecarlo.simulate_sndr(plan)))
    assert np.array_equal(a, b)


def test_stream_schedule_independent(scenario):
    # counter-based keying: processing order cannot change the aggregate
    plan = montecarlo.SimPlan((scenario,), 200_000, seed=78, batch_size=1 << 15)
    batches = list(montecarlo.simulate_sndr(plan))
    forward = sum(int(np.count_nonzero(b < 2.0)) for b in batches)
    backward = sum(int(np.count_nonzero(b < 2.0)) for b in reversed(batches))
    assert forward == backward
    (est,) = montecarlo.empirical_outage(plan, [2.0])
    assert est.value == pytest.approx(forward / 200_000, abs=0)


def test_seed_changes_stream(scenario):
    p1 = montecarlo.SimPlan((scenario,), 10_000, seed=1)
    p2 = montecarlo.SimPlan((scenario,), 10_000, seed=2)
    a = next(iter(montecarlo.simulate_sndr(p1)))
    b = next(iter(montecarlo.simulate_sndr(p2)))
    assert not np.array_equal(a, b)


def test_outage_zero_threshold(scenario):
    (est,) = montecarlo.empirical_outage(
        montecarlo.SimPlan((scenario,), 50_000, seed=5), [0.0])
    assert est.value == 0.0


def test_ci_shrinks_like_root_n(scenario):
    widths = []
    for n in (10_000, 100_000, 1_000_000):
        (est,) = montecarlo.empirical_outage(
            montecarlo.SimPlan((scenario,), n, seed=11), [2.0])
        widths.append(est.half_width)
    for w_big, w_small in zip(widths, widths[1:]):
        ratio = w_big / w_small
        assert ratio == pytest.approx(math.sqrt(10.0), rel=0.20)


def test_outage_matches_cdf(scenario):
    plan = montecarlo.SimPlan((scenario,), 400_000, seed=13)
    for x in (0.5, 2.0, 8.0):
        (est,) = montecarlo.empirical_outage(plan, [x])
        ref = analytics.sndr_cdf_exact(x, scenario)
        assert est.covers(ref)


def test_mean_matches_first_moment(scenario):
    (est,) = montecarlo.empirical_moment(
        montecarlo.SimPlan((scenario,), 1_000_000, seed=17), 1)
    ref = analytics.sndr_moments(1, scenario)
    assert est.covers(ref)


def test_ber_degenerate_snr_limit(scenario_factory):
    # gamma == 0 (vanishing feeder SNR) drives the conditional BER to
    # delta * n / 2; approximate with a tiny operating point
    scn = scenario_factory(mu_r_db=-120.0)
    (est,) = montecarlo.empirical_ber(
        montecarlo.SimPlan((scn,), 20_000, seed=19), analytics.modulation("ook"))
    assert est.value == pytest.approx(0.5, abs=1e-3)


def test_ber_improves_with_mu_r(scenario_factory):
    mod = analytics.modulation("ook")
    vals = []
    for mu in (10.0, 20.0, 30.0, 40.0):
        scn = scenario_factory(hpa_family="linear", ibo_db=None, mu_r_db=mu)
        (est,) = montecarlo.empirical_ber(
            montecarlo.SimPlan((scn,), 200_000, seed=23), mod)
        vals.append(est.value)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_capacity_matches_exact_heavy(scenario_factory):
    scn = scenario_factory(detection="heterodyne", shadowing=HEAVY_SHADOWING,
                           mu_r_db=25.0)
    (est,) = montecarlo.empirical_capacity(montecarlo.SimPlan((scn,), 400_000, seed=29))
    ref = analytics.capacity_exact(scn)
    assert est.covers(ref)


def test_plan_validation(scenario):
    with pytest.raises(ValueError):
        montecarlo.SimPlan((scenario,), 0, seed=1)
    with pytest.raises(ValueError):
        montecarlo.SimPlan((), 100, seed=1)
    with pytest.raises(ValueError):
        montecarlo.empirical_ber(
            montecarlo.SimPlan((scenario,), 100, seed=1),
            analytics.modulation("bpsk"))   # detection mismatch
    for bad in (0, 1.5, math.nan):
        with pytest.raises(ValueError, match="order"):
            montecarlo.empirical_moment(montecarlo.SimPlan((scenario,), 100, seed=1), bad)


def test_thresholds_are_checked(scenario):
    # one nonnegative threshold per scenario, and nonnegative CDF points;
    # a NaN raises instead of counting no sample below it
    plan = montecarlo.SimPlan((scenario, scenario.at_mu_r_db(40.0)), 1000, seed=1)
    for bad in (2.0, [2.0], [2.0, 2.0, 2.0], [[2.0, 2.0]], [2.0, math.nan], [-1.0, 2.0]):
        with pytest.raises(ValueError, match="threshold"):
            montecarlo.empirical_outage(plan, bad)
    for bad in ([math.nan], [1.0, -1.0]):
        with pytest.raises(ValueError, match="points"):
            montecarlo.empirical_cdf(plan, bad)


def test_shared_plan_matches_single_plans(scenario):
    # three operating points on one stream, 50_000 samples in batches of
    # 2^14: three full batches and a partial one
    scns = tuple(scenario.at_mu_r_db(db) for db in (10.0, 30.0, 50.0))
    shared = montecarlo.SimPlan(scns, 50_000, seed=41, batch_size=1 << 14)
    singles = [montecarlo.SimPlan((s,), 50_000, seed=41, batch_size=1 << 14)
               for s in scns]
    batches = list(montecarlo.simulate_sndr(shared))
    assert len(batches) == 4 * len(scns)
    for k, single in enumerate(singles):
        own = list(montecarlo.simulate_sndr(single))
        assert len(own) == 4
        assert all(np.array_equal(a, b) for a, b in zip(batches[k::len(scns)], own))

    ths = [0.5, 2.0, 8.0]
    ook = analytics.modulation("ook")
    assert montecarlo.empirical_outage(shared, ths) == [
        montecarlo.empirical_outage(p, [th])[0] for p, th in zip(singles, ths)]
    assert montecarlo.empirical_cdf(shared, ths) == [
        montecarlo.empirical_cdf(p, ths)[0] for p in singles]
    assert montecarlo.empirical_ber(shared, ook) == [
        montecarlo.empirical_ber(p, ook)[0] for p in singles]
    assert montecarlo.empirical_capacity(shared) == [
        montecarlo.empirical_capacity(p)[0] for p in singles]
    assert montecarlo.empirical_moment(shared, 2) == [
        montecarlo.empirical_moment(p, 2)[0] for p in singles]


@pytest.mark.parametrize("field,change", [
    ("detection_r", {"detection": "het"}),
    ("turbulence", {"cn2": 2e-12}),
    ("pointing", {"xi": 1.5}),
    ("shadowing", {"shadowing": HEAVY_SHADOWING}),
    ("gamma_bar2", {"gamma_bar2": 1e7}),
])
def test_shared_plan_rejects_another_stream(scenario_factory, field, change):
    base = scenario_factory(mu_r_db=30.0)
    other = scenario_factory(mu_r_db=40.0, **change)
    with pytest.raises(ValueError, match=f"must share {field}:"):
        montecarlo.SimPlan((base, base.at_mu_r_db(35.0), other), 100, seed=1)


def test_shared_plan_memory_does_not_grow_with_scenarios(scenario):
    # no (scenarios x batch) array and no stream kept past the call
    def peak(scns, estimate):
        plan = montecarlo.SimPlan(scns, 3 << 16, seed=43, batch_size=1 << 16)
        tracemalloc.start()
        try:
            estimate(plan)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    many = tuple(scenario.at_mu_r_db(db) for db in range(0, 85, 5))
    assert len(many) == 17
    for estimate in (lambda p: montecarlo.empirical_outage(p, [2.0] * len(p.scenarios)),
                     montecarlo.empirical_capacity):
        assert peak(many, estimate) <= 1.5 * peak((scenario,), estimate)
