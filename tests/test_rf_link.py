"""Multibeam geometry, gain matrix, and shadowed-Rician statistics."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from optfeeder import rf_link

from conftest import HEAVY_SHADOWING, LIGHT_SHADOWING, rng_for
from oracles import gamma2_mean, shadowed_rician_pdf


# ---------------------------------------------------------------------------
# geometry and gain matrix
# ---------------------------------------------------------------------------

def test_beam_centers_coordinates():
    r = 250e3
    c = rf_link.beam_centers(r)
    s3 = math.sqrt(3)
    np.testing.assert_allclose(c[0], [0.0, 0.0])
    np.testing.assert_allclose(c[3], [s3 * r, 0.0])
    np.testing.assert_allclose(c[6], [-s3 * r, 0.0])
    # ring pairs mirror across the y axis
    np.testing.assert_allclose(c[1], c[2] * [-1, 1])
    np.testing.assert_allclose(c[5], c[4] * [-1, 1])
    # center-to-far-vertex distance
    assert np.linalg.norm(c[0] - c[3]) == pytest.approx(s3 * r)


def test_boresight_gain_hand_value(layout, rf_params):
    b = rf_link.beam_gain_matrix(layout, rf_params)
    # independent evaluation with rounded constants (c = 3e8)
    ref = (3e8 * math.sqrt(10 ** 5.2 * 10 ** 3.816)
           / (4 * math.pi * 20e9 * 35786e3
              * math.sqrt(1.38e-23 * 207 * 50e6)))
    assert ref == pytest.approx(2.84, rel=2e-3)
    assert b[0, 0] == pytest.approx(ref, rel=5e-3)
    # pattern factor is exactly 1 on boresight: J1/2u + 36 J3/u^3 -> 1
    assert b[1, 1] == pytest.approx(b[0, 0], rel=1e-12)


def test_gain_matrix_deterministic_and_row_dominant(layout, rf_params):
    b1 = rf_link.beam_gain_matrix(layout, rf_params)
    b2 = rf_link.beam_gain_matrix(layout, rf_params)
    assert np.array_equal(b1, b2)
    # own-beam entry dominates each row for center-placed users
    for i in range(7):
        off = np.delete(np.abs(b1[i]), i)
        assert b1[i, i] > np.max(off)


def test_explicit_user_layout_compares_and_hashes(scenario_factory):
    def placed():
        return rf_link.BeamLayout(250e3, 35786e3,
                                  user_positions=rf_link.beam_centers(250e3))

    a, b = placed(), placed()
    assert a == b and hash(a) == hash(b)
    np.testing.assert_array_equal(a.users, rf_link.beam_centers(250e3))
    scn = dataclasses.replace(scenario_factory(), layout=a)
    assert hash(scn) == hash(dataclasses.replace(scenario_factory(), layout=b))
    moved = rf_link.beam_centers(250e3)
    moved[3, 0] += 1.0
    assert rf_link.BeamLayout(250e3, 35786e3, user_positions=moved) != a


# ---------------------------------------------------------------------------
# shadowed Rician amplitude
# ---------------------------------------------------------------------------

def test_pdf_heavy_shadowing_reduces_to_exponential_form():
    # m = 1 collapses the confluent series: 1F1(1,1,x) = e^x
    p = HEAVY_SHADOWING
    y = 1.0
    two_bm = 2 * p.b * p.m
    ref = (two_bm / (two_bm + p.omega)) / p.b * y * math.exp(
        -y * y / (2 * p.b) + p.omega * y * y / (2 * p.b * (two_bm + p.omega)))
    assert shadowed_rician_pdf(y, p) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("p", [LIGHT_SHADOWING, HEAVY_SHADOWING])
def test_pdf_normalization(p):
    val, _ = quad(lambda y: shadowed_rician_pdf(y, p), 0, 60, limit=300)
    assert val == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("p", [LIGHT_SHADOWING, HEAVY_SHADOWING])
def test_amplitude_sampler_against_pdf(p):
    from scipy.stats import ks_1samp
    rng = rng_for(31)
    draws = rf_link.sample_shadowed_rician(p, rng, 100_000)
    grid = np.linspace(0, draws.max() * 1.05, 4001)
    pdf = shadowed_rician_pdf(grid, p)
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) * np.diff(grid) / 2)])
    cdf /= cdf[-1]
    res = ks_1samp(draws, lambda x: np.interp(x, grid, cdf))
    assert res.pvalue > 0.01


def test_sampler_moment_identities():
    rng = rng_for(32)
    n = 1_000_000
    p = LIGHT_SHADOWING
    d = rf_link.sample_shadowed_rician(p, rng, n)
    power = d ** 2
    se = math.sqrt(np.var(power) / n)
    assert np.mean(power) == pytest.approx(2 * p.b + p.omega, abs=3 * se)
    # LOS power zero leaves pure Rayleigh scatter
    p0 = rf_link.ShadowedRicianParams(m=3, b=0.2, omega=0.0)
    d0 = rf_link.sample_shadowed_rician(p0, rng, n)
    se0 = math.sqrt(np.var(d0 ** 2) / n)
    assert np.mean(d0 ** 2) == pytest.approx(2 * p0.b, abs=3 * se0)


# ---------------------------------------------------------------------------
# user-link SNR
# ---------------------------------------------------------------------------

def test_gamma2_pdf_m1_exponential():
    law = rf_link.user_law(HEAVY_SHADOWING)
    gbar2 = 3.0
    g = np.linspace(0.01, 20, 50)
    ref = np.exp(-g / gbar2) / gbar2
    np.testing.assert_allclose(rf_link.gamma2_pdf(g, law, gbar2), ref, rtol=1e-12)


@pytest.mark.parametrize("p", [LIGHT_SHADOWING, HEAVY_SHADOWING])
def test_gamma2_ccdf_boundary_and_consistency(p):
    law = rf_link.user_law(p)
    gbar2 = 5.0
    assert rf_link.gamma2_ccdf(0.0, law, gbar2) == pytest.approx(1.0, rel=1e-12)
    rng = rng_for(33)
    for x in rng.uniform(0.05, 25.0, 20):
        tail, _ = quad(lambda g: rf_link.gamma2_pdf(g, law, gbar2), x, np.inf,
                       limit=300)
        assert rf_link.gamma2_ccdf(x, law, gbar2) == pytest.approx(tail, abs=1e-8)


def test_gamma2_ccdf_golden_at_mean_scale():
    # quadrature-oracle value at x = gbar2 under light shadowing
    law = rf_link.user_law(LIGHT_SHADOWING)
    gbar2 = 4.0
    ref, _ = quad(lambda g: rf_link.gamma2_pdf(g, law, gbar2), gbar2, np.inf,
                  limit=300)
    assert rf_link.gamma2_ccdf(gbar2, law, gbar2) == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("p", [LIGHT_SHADOWING, HEAVY_SHADOWING])
def test_gamma2_mean_identity(p):
    law = rf_link.user_law(p)
    gbar2 = 7.5
    mean, _ = quad(lambda g: g * rf_link.gamma2_pdf(g, law, gbar2), 0, np.inf,
                   limit=400)
    assert mean == pytest.approx(gamma2_mean(p, gbar2), rel=1e-6)
    assert gamma2_mean(p, gbar2) == pytest.approx(
        gbar2 * (2 * p.b + p.omega) / (2 * p.b * p.m + p.omega), rel=1e-14)


def test_gamma2_sampler_mean():
    rng = rng_for(34)
    p = LIGHT_SHADOWING
    gbar2 = 11.0
    draws = rf_link.sample_gamma2(p, gbar2, rng, 500_000)
    se = math.sqrt(np.var(draws) / draws.size)
    assert np.mean(draws) == pytest.approx(gamma2_mean(p, gbar2), abs=3 * se)


def test_gamma2_law_rejects_nan_and_infinity():
    # gbar2 must be positive and finite and every x nonnegative; NaN fails
    # both checks instead of coming back as a NaN or a value near 1
    law = rf_link.user_law(LIGHT_SHADOWING)
    for fn in (rf_link.gamma2_pdf, rf_link.gamma2_ccdf):
        for x, gbar2 in ((1.0, math.nan), (1.0, math.inf), (1.0, 0.0), (1.0, -2.0),
                         (math.nan, 1.0), ([0.5, math.nan], 1.0), (-1.0, 1.0)):
            with pytest.raises(ValueError):
                fn(x, law, gbar2)
        assert np.isfinite(fn(np.array([0.0, 1.0, 1e3]), law, 1e300)).all()


def test_non_integer_severity_rejected():
    p = rf_link.ShadowedRicianParams(m=2.5, b=0.1, omega=0.5)
    with pytest.raises(rf_link.NonIntegerShadowingError):
        rf_link.user_law(p)
    # sampling still works for non-integer m
    rng = rng_for(35)
    d = rf_link.sample_shadowed_rician(p, rng, 1000)
    assert np.all(d >= 0)
