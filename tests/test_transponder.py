"""Amplifier characteristics and Bussgang linearization pairs.

The closed-form pairs are pinned to brute-force Bussgang estimators built
directly on the matching waveform curves (Saleh for the TWTA, the
smoothness-1 Rapp limiter for the SSPA), which settles the family-to-
formula assignment independently of any published tabulation.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from optfeeder import transponder

from conftest import rng_for


# ---------------------------------------------------------------------------
# waveform curves
# ---------------------------------------------------------------------------

def test_saleh_curve_points():
    a = 2.0
    assert transponder.saleh_amam(a, a) == pytest.approx(a / 2)      # peak
    assert transponder.saleh_amam(1e-9, a) == pytest.approx(1e-9, rel=1e-6)
    assert transponder.saleh_amam(1e9, a) == pytest.approx(0.0, abs=1e-8)


def test_rapp_curve_points():
    a = 1.5
    assert transponder.rapp_amam(a, a, 1.0) == pytest.approx(a / math.sqrt(2))
    assert transponder.rapp_amam(1e9, a, 1.0) == pytest.approx(a, rel=1e-6)
    # large smoothness tends to the hard limiter
    assert transponder.rapp_amam(0.5 * a, a, 200.0) == pytest.approx(0.5 * a, rel=1e-4)
    assert transponder.rapp_amam(3 * a, a, 200.0) == pytest.approx(a, rel=1e-2)


# ---------------------------------------------------------------------------
# Bussgang pairs against waveform estimators
# ---------------------------------------------------------------------------

def _mc_pair(curve, ibo, n=4_000_000, seed=41):
    rng = rng_for(seed)
    rho = np.sqrt(rng.exponential(1.0, n))     # Rayleigh envelope, unit power
    a = math.sqrt(ibo)
    out = curve(rho, a)
    k_hat = np.mean(out * rho) / np.mean(rho ** 2)
    k_se = np.std(out * rho - k_hat * rho ** 2) / math.sqrt(n)
    return k_hat, k_se


@pytest.mark.parametrize("ibo_db", [10.0, 20.0, 25.0])
def test_twta_gain_matches_saleh_estimator(ibo_db):
    ibo = 10 ** (ibo_db / 10)
    k, snl = transponder.bussgang_twta(ibo)
    k_hat, k_se = _mc_pair(transponder.saleh_amam, ibo)
    assert abs(k - k_hat) < 3 * k_se
    assert snl >= 0.0


@pytest.mark.parametrize("ibo_db", [10.0, 20.0, 25.0])
def test_sspa_gain_matches_rapp_estimator(ibo_db):
    ibo = 10 ** (ibo_db / 10)
    k, snl = transponder.bussgang_sspa(ibo)
    k_hat, k_se = _mc_pair(lambda x, a: transponder.rapp_amam(x, a, 1.0), ibo)
    assert abs(k - k_hat) < 3 * k_se
    assert snl >= 0.0


def test_twta_distortion_against_quadrature():
    # sigma_NL^2 = E[f^2] - K^2 P with Rayleigh-envelope expectations
    ibo = 10 ** 2.5
    a = math.sqrt(ibo)
    ef2, _ = quad(lambda u: transponder.saleh_amam(math.sqrt(u), a) ** 2
                  * math.exp(-u), 0, 200, limit=300)
    efr, _ = quad(lambda u: transponder.saleh_amam(math.sqrt(u), a)
                  * math.sqrt(u) * math.exp(-u), 0, 200, limit=300)
    k, snl = transponder.bussgang_twta(ibo)
    assert k == pytest.approx(efr, rel=1e-9)
    assert snl == pytest.approx(ef2 - efr ** 2, rel=1e-6)


def test_sspa_distortion_against_quadrature():
    ibo = 10 ** 2.0
    a = math.sqrt(ibo)
    curve = lambda x: transponder.rapp_amam(x, a, 1.0)
    ef2, _ = quad(lambda u: curve(math.sqrt(u)) ** 2 * math.exp(-u), 0, 200,
                  limit=300)
    efr, _ = quad(lambda u: curve(math.sqrt(u)) * math.sqrt(u) * math.exp(-u),
                  0, 200, limit=300)
    k, snl = transponder.bussgang_sspa(ibo)
    assert k == pytest.approx(efr, rel=1e-9)
    assert snl == pytest.approx(ef2 - efr ** 2, rel=1e-6)


def test_asymptotic_gain_values():
    # expansions in x = 1/ibo: Saleh gain 1 - 2x + 6x^2 - 24x^3,
    # limiter gain 1 - x + 2.25x^2 - 7.5x^3
    k_twta, _ = transponder.bussgang_twta(100.0)
    assert k_twta == pytest.approx(1 - 2e-2 + 6e-4 - 24e-6, abs=3e-6)
    assert k_twta == pytest.approx(0.980, abs=1e-3)
    k_sspa, _ = transponder.bussgang_sspa(100.0)
    assert k_sspa == pytest.approx(1 - 1e-2 + 2.25e-4 - 7.5e-6, abs=3e-6)


def test_limits_at_extreme_backoff(monkeypatch):
    for fn in (transponder.bussgang_twta, transponder.bussgang_sspa):
        k, snl = fn(1e6)
        assert 0.999 <= k <= 1.0
        assert snl <= 1e-3
        # series and closed-form branches agree at the same back-off
        ibo = transponder._SERIES_CUTOFF
        monkeypatch.setattr(transponder, "_SERIES_CUTOFF", 1e18)
        k_closed, s_closed = fn(ibo)
        monkeypatch.setattr(transponder, "_SERIES_CUTOFF", 1.0)
        k_series, s_series = fn(ibo)
        monkeypatch.undo()
        assert k_closed == pytest.approx(k_series, rel=1e-9)
        assert s_closed == pytest.approx(s_series, rel=5e-4)


def test_gain_monotone_and_distortion_ordering():
    grid_db = np.linspace(0.0, 40.0, 50)
    for fn in (transponder.bussgang_twta, transponder.bussgang_sspa):
        ks = []
        for db in grid_db:
            k, snl = fn(10 ** (db / 10))
            assert 0.0 < k <= 1.0
            assert snl >= 0.0
            ks.append(k)
        assert np.all(np.diff(ks) >= -1e-12)
    # the Saleh amplifier distorts more at equal back-off
    for db in (10.0, 20.0, 25.0):
        _, s_twta = transponder.bussgang_twta(10 ** (db / 10))
        _, s_sspa = transponder.bussgang_sspa(10 ** (db / 10))
        assert s_sspa <= s_twta


def test_bussgang_residual_uncorrelated():
    # the decomposition f(rho) = K rho + residual leaves the residual
    # uncorrelated with the input when K is the matching closed form
    n = 2_000_000
    rng = rng_for(42)
    rho = np.sqrt(rng.exponential(1.0, n))
    for family, curve in (("twta", transponder.saleh_amam),
                          ("sspa", lambda x, a: transponder.rapp_amam(x, a, 1.0))):
        ibo = 10 ** 2.5
        k, _ = transponder.bussgang_pair(family, ibo)
        resid = curve(rho, math.sqrt(ibo)) - k * rho
        corr = np.mean(resid * rho)
        se = np.std(resid * rho) / math.sqrt(n)
        assert abs(corr) < 3 * se


# ---------------------------------------------------------------------------
# kappa and relay gain
# ---------------------------------------------------------------------------

def test_kappa_values():
    def kappa(k, snl, g, s1):
        return transponder.HpaState("twta", 1.0, 1.0, k, snl).kappa_for_gain(g, s1)

    assert kappa(1.0, 0.0, 1.0, 1.0) == 1.0
    # doubling the gain cuts the excess by four
    k1 = kappa(0.9, 0.02, 1.0, 1.0) - 1.0
    k2 = kappa(0.9, 0.02, 2.0, 1.0) - 1.0
    assert k1 == pytest.approx(4 * k2, rel=1e-12)
    # composition golden from the audited pair
    k, snl = transponder.bussgang_twta(10 ** 2.5)
    expect = 1.0 + snl / k ** 2
    assert kappa(k, snl, 1.0, 1.0) == pytest.approx(expect, rel=1e-12)


def test_relay_gain(scenario_factory):
    # power-constrained gain G = sqrt(P_r / (P_g E[(eta I)^r] + sigma_1^2)),
    # with P_g E[(eta I)^r] = sigma_1^2 tr[(B B^H)^-1] gbar1
    scn = scenario_factory()
    budget = scn.feeder.sigma1_sq * (scn.trace_term * scn.gbar1 + 1.0)
    assert scn.relay_g ** 2 * budget == pytest.approx(scn.hpa.p_r, rel=1e-12)
    # G grows as sqrt(P_r) at a fixed operating point
    g4 = dataclasses.replace(
        scn, hpa=transponder.hpa_state("twta", 25.0, p_r=4.0)).relay_g
    assert g4 == pytest.approx(2 * scn.relay_g, rel=1e-12)
    # a fixed gain is taken as given
    assert scenario_factory(gain_mode="fixed", fixed_gain=0.7).relay_g == 0.7
    # the mean input power E[I^r] behind it against a Monte Carlo estimate
    from optfeeder import fso_link
    from conftest import make_atmosphere
    turb = fso_link.scintillation_params(make_atmosphere(5e-13))
    point = fso_link.PointingConfig(xi=1.1)
    rng = rng_for(43)
    n = 2_000_000
    draws = fso_link.sample_irradiance(turb, point, 1.0, rng, n) ** 2
    est = float(np.mean(draws))
    se = float(np.std(draws)) / math.sqrt(n)
    mean_i = point.a0 * point.xi ** 2 / (point.xi ** 2 + 1.0)
    closed = fso_link.gamma1_moment(2, 1, turb, point, mean_i)
    assert abs(est - closed) < 3 * se


def test_hpa_state_construction():
    h = transponder.hpa_state("twta", 25.0)
    assert h.family == "twta"
    assert h.a_sat == pytest.approx(math.sqrt(10 ** 2.5))
    assert h.sat_power_tx == pytest.approx(h.k_gain ** 2 + h.sigma_nl_sq)
    lin = transponder.hpa_state("linear")
    assert lin.k_gain == 1.0 and lin.sigma_nl_sq == 0.0
    assert lin.kappa_for_gain(0.3, 1.0) == 1.0
    with pytest.raises(ValueError):
        transponder.hpa_state("sspa")       # back-off required
    with pytest.raises(ValueError):
        transponder.hpa_state("klystron", 20.0)
