"""Amplifier characteristics and Bussgang linearization pairs.

The pairs are pinned to brute-force Bussgang estimators built directly on
the matching waveform curves (Saleh for the TWTA, the smoothness-1 Rapp
limiter for the SSPA), which settles the family-to-formula assignment
independently of any published tabulation, and to the closed forms of those
expectations in 60-digit arithmetic.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from optfeeder import transponder

from conftest import rng_for
from oracles import bussgang_closed_form, rapp_amam, saleh_amam


# ---------------------------------------------------------------------------
# waveform curves
# ---------------------------------------------------------------------------

def test_saleh_curve_points():
    a = 2.0
    assert saleh_amam(a, a) == pytest.approx(a / 2)      # peak
    assert saleh_amam(1e-9, a) == pytest.approx(1e-9, rel=1e-6)
    assert saleh_amam(1e9, a) == pytest.approx(0.0, abs=1e-8)


def test_rapp_curve_points():
    a = 1.5
    assert rapp_amam(a, a, 1.0) == pytest.approx(a / math.sqrt(2))
    assert rapp_amam(1e9, a, 1.0) == pytest.approx(a, rel=1e-6)
    # large smoothness tends to the hard limiter
    assert rapp_amam(0.5 * a, a, 200.0) == pytest.approx(0.5 * a, rel=1e-4)
    assert rapp_amam(3 * a, a, 200.0) == pytest.approx(a, rel=1e-2)


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
    k_hat, k_se = _mc_pair(saleh_amam, ibo)
    assert abs(k - k_hat) < 3 * k_se
    assert snl >= 0.0


@pytest.mark.parametrize("ibo_db", [10.0, 20.0, 25.0])
def test_sspa_gain_matches_rapp_estimator(ibo_db):
    ibo = 10 ** (ibo_db / 10)
    k, snl = transponder.bussgang_sspa(ibo)
    k_hat, k_se = _mc_pair(lambda x, a: rapp_amam(x, a, 1.0), ibo)
    assert abs(k - k_hat) < 3 * k_se
    assert snl >= 0.0


def test_twta_distortion_against_quadrature():
    # sigma_NL^2 = E[f^2] - K^2 P with Rayleigh-envelope expectations
    ibo = 10 ** 2.5
    a = math.sqrt(ibo)
    ef2, _ = quad(lambda u: saleh_amam(math.sqrt(u), a) ** 2
                  * math.exp(-u), 0, 200, limit=300)
    efr, _ = quad(lambda u: saleh_amam(math.sqrt(u), a)
                  * math.sqrt(u) * math.exp(-u), 0, 200, limit=300)
    k, snl = transponder.bussgang_twta(ibo)
    assert k == pytest.approx(efr, rel=1e-9)
    assert snl == pytest.approx(ef2 - efr ** 2, rel=1e-6)


def test_sspa_distortion_against_quadrature():
    ibo = 10 ** 2.0
    a = math.sqrt(ibo)
    curve = lambda x: rapp_amam(x, a, 1.0)
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


def test_limits_at_extreme_backoff():
    for fn in (transponder.bussgang_twta, transponder.bussgang_sspa):
        k, snl = fn(1e6)
        assert 0.999 <= k <= 1.0
        assert snl <= 1e-3


FAMILY_PAIRS = {"twta": (transponder.bussgang_twta, transponder._saleh_shortfall),
                "sspa": (transponder.bussgang_sspa, transponder._limiter_shortfall)}


@pytest.mark.parametrize("family", ["twta", "sspa"])
def test_pairs_against_closed_forms_in_60_digits(family):
    # K, 1 - K (before it is rounded into K) and sigma_NL^2 within 1e-14
    # relative of the closed forms, evaluated where their cancellation costs
    # nothing, over 0-60 dB and either side of 30 dB
    pair, shortfall = FAMILY_PAIRS[family]
    for ibo_db in list(np.arange(0.0, 60.25, 0.5)) + [29.99, 30.01]:
        ibo = 10.0 ** (ibo_db / 10.0)
        k, snl = pair(ibo)
        gap = transponder._pair(shortfall, ibo)[0]
        assert k == 1.0 - gap
        for got, ref in zip((k, gap, snl), bussgang_closed_form(family, ibo)):
            assert abs(got - ref) <= 1e-14 * ref, (family, ibo_db, got, ref)


def test_pairs_are_kept_per_backoff():
    # each family's pair is computed once per back-off; an invalid one raises
    for pair, _ in FAMILY_PAIRS.values():
        first = pair(10.0 ** 2.5)
        misses = transponder._pair.cache_info().misses
        assert pair(10.0 ** 2.5) == first
        assert transponder._pair.cache_info().misses == misses
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="ibo_linear"):
                pair(bad)


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
    # uncorrelated with the input when K is the family's gain
    n = 2_000_000
    rng = rng_for(42)
    rho = np.sqrt(rng.exponential(1.0, n))
    for family, curve in (("twta", saleh_amam),
                          ("sspa", lambda x, a: rapp_amam(x, a, 1.0))):
        ibo = 10 ** 2.5
        k = transponder.HpaState(family, ibo).k_gain
        resid = curve(rho, math.sqrt(ibo)) - k * rho
        corr = np.mean(resid * rho)
        se = np.std(resid * rho) / math.sqrt(n)
        assert abs(corr) < 3 * se


# ---------------------------------------------------------------------------
# kappa and relay gain
# ---------------------------------------------------------------------------

def test_kappa_values():
    assert transponder.HpaState("linear", math.inf).kappa_for_gain(1.0) == 1.0
    # the state's pair is the family's pair at its back-off
    k, snl = transponder.bussgang_twta(10 ** 2.5)
    hpa = transponder.HpaState("twta", 10 ** 2.5)
    assert (hpa.k_gain, hpa.sigma_nl_sq) == (k, snl)
    kappa = hpa.kappa_for_gain
    # doubling the gain cuts the excess by four
    assert kappa(1.0) - 1.0 == pytest.approx(4 * (kappa(2.0) - 1.0), rel=1e-12)
    # composition golden from the audited pair
    assert kappa(1.0) == pytest.approx(1.0 + snl / k ** 2, rel=1e-12)
    # a gain-block output power P_r scales the distortion power to P_r snl;
    # with gain G and feeder noise sigma1^2 that ratio is kappa at the gain
    # G sigma1 / sqrt(P_r) in units of P_r
    p_r, sigma1_sq, g = 4.0, 2.0, 0.7
    physical = 1.0 + p_r * snl / (k ** 2 * g ** 2 * sigma1_sq)
    assert kappa(g * math.sqrt(sigma1_sq / p_r)) == pytest.approx(physical, rel=1e-14)
    # a gain so small that K^2 G^2 underflows leaves no finite kappa
    for tiny in (1e-160, 1e-200):
        with pytest.raises(ValueError, match="kappa"):
            kappa(tiny)


def test_relay_gain(scenario_factory):
    # power-constrained gain G = sqrt(P_r / (P_g E[(eta I)^r] + sigma_1^2)),
    # with P_g E[(eta I)^r] = sigma_1^2 tr[(B B^H)^-1] gbar1; in units of
    # sqrt(P_r)/sigma_1 that is G^2 (tr[(B B^H)^-1] gbar1 + 1) = 1
    scn = scenario_factory()
    budget = scn.trace_term * scn.gbar1 + 1.0
    assert scn.relay_g ** 2 * budget == pytest.approx(1.0, rel=1e-12)
    # it is set by the operating point, not by the amplifier's back-off
    other = dataclasses.replace(scn, hpa=transponder.hpa_state("sspa", 10.0))
    assert other.relay_g == scn.relay_g
    # a fixed gain is taken as given
    assert scenario_factory(gain_mode="fixed", fixed_gain=0.7).relay_g == 0.7
    # the mean input power E[I^r] behind it against a Monte Carlo estimate
    from optfeeder import fso_link
    from conftest import make_atmosphere
    turb = fso_link.scintillation_params(make_atmosphere(5e-13))
    point = fso_link.PointingConfig(xi=1.1)
    rng = rng_for(43)
    n = 2_000_000
    mean_i = point.xi ** 2 / (point.xi ** 2 + 1.0)
    law = fso_link.feeder_law(1, turb.alpha, turb.beta, point.xi ** 2)
    draws = fso_link.sample_gamma1(law, mean_i, rng, n) ** 2
    est = float(np.mean(draws))
    se = float(np.std(draws)) / math.sqrt(n)
    closed = fso_link.gamma1_moment(2, law, mean_i)
    assert abs(est - closed) < 3 * se


def test_hpa_state_construction():
    h = transponder.hpa_state("twta", 25.0)
    assert h.family == "twta"
    assert h.ibo_linear == pytest.approx(10 ** 2.5)
    # powers in units of P_r: the transmit power is K^2 + sigma_NL^2
    assert h.sat_power_tx == pytest.approx(h.k_gain ** 2 + h.sigma_nl_sq)
    lin = transponder.hpa_state("linear")
    assert lin.k_gain == 1.0 and lin.sigma_nl_sq == 0.0
    assert lin.ibo_linear == math.inf
    assert lin.kappa_for_gain(0.3) == 1.0
    with pytest.raises(ValueError):
        lin.kappa_for_gain(0.0)
    with pytest.raises(ValueError):
        transponder.hpa_state("sspa")       # back-off required
    with pytest.raises(ValueError):
        transponder.hpa_state("klystron", 20.0)
    with pytest.raises(ValueError, match="ibo_db"):
        transponder.hpa_state("twta", 4000.0)     # overflows to linear


def test_hpa_state_derives_its_pair(monkeypatch):
    assert transponder.HPA_FAMILIES == ("twta", "sspa", "linear")
    # the record keeps its fields and their order; the pair is not an input
    names = [f.name for f in dataclasses.fields(transponder.HpaState)]
    assert names == ["family", "ibo_linear", "k_gain", "sigma_nl_sq"]
    with pytest.raises(TypeError):
        transponder.HpaState("twta", 10.0, 0.9, 0.01)
    for family, pair in (("twta", transponder.bussgang_twta),
                         ("sspa", transponder.bussgang_sspa)):
        for ibo in (0.5, 10.0, 1e4):
            hpa = transponder.HpaState(family, ibo)
            assert (hpa.k_gain, hpa.sigma_nl_sq) == pair(ibo)
    # the linear family reads no back-off, yet a NaN one is not recorded
    for family in transponder.HPA_FAMILIES:
        with pytest.raises(ValueError, match="ibo_linear"):
            transponder.HpaState(family, math.nan)
    # the derived pair keeps its range checks
    for bad, match in (((1.5, 0.0), "Bussgang gain"), ((0.0, 0.0), "Bussgang gain"),
                       ((0.9, math.nan), "sigma_nl_sq")):
        monkeypatch.setitem(transponder._BUSSGANG, "twta", lambda ibo, bad=bad: bad)
        with pytest.raises(ValueError, match=match):
            transponder.HpaState("twta", 10.0)
