"""Optical feeder-link statistics: turbulence pipeline against hand and
quadrature oracles, densities against their samplers."""

import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad, simpson
from scipy.stats import ks_1samp

from optfeeder import fso_link

from conftest import make_atmosphere, rng_for


# ---------------------------------------------------------------------------
# Hufnagel-Valley profile and path integrals
# ---------------------------------------------------------------------------

def test_hv_cn2_ground_value():
    cfg = make_atmosphere(1e-12)
    # h = 0 kills the jet-stream term entirely
    assert fso_link.hv_cn2(0.0, cfg) == pytest.approx(1e-12 + 2.7e-16, rel=1e-12)


def test_hv_cn2_high_altitude_decay():
    cfg = make_atmosphere(1e-12)
    assert fso_link.hv_cn2(300e3, cfg) < 1e-40


def test_hv_cn2_midaltitude_hand_value():
    cfg = make_atmosphere(1e-12)
    # independent evaluation of the three terms at h = 1 km
    jet = 0.00594 * (21 / 27) ** 2 * (1e-5 * 1000) ** 10 * math.exp(-1.0)
    trop = 2.7e-16 * math.exp(-1000 / 1500)
    ground = 1e-12 * math.exp(-10.0)
    ref = jet + trop + ground
    assert ref == pytest.approx(1.84e-16, rel=5e-3)
    assert fso_link.hv_cn2(1000.0, cfg) == pytest.approx(ref, rel=1e-12)


def test_fried_r0_reference_value():
    # strong ground turbulence pins the coherence width near 1.8 cm
    r0 = fso_link.fried_r0(make_atmosphere(1e-12))
    assert r0 == pytest.approx(0.018, rel=0.10)


def test_fried_r0_wavelength_scaling():
    base = fso_link.fried_r0(make_atmosphere(1e-13))
    cfg2 = fso_link.AtmosphereConfig(
        35786e3, 0.0, math.radians(30.0), 2 * 1550e-9, 21.0, 1e-13, 0.02)
    assert fso_link.fried_r0(cfg2) == pytest.approx(base * 2 ** 1.2, rel=1e-9)


def test_fried_r0_quadrature_oracle():
    # second, independent scheme: composite Simpson on a dense log grid
    cfg = make_atmosphere(1e-13)
    h = np.concatenate([[0.0], np.geomspace(1e-3, 35786e3, 20001)])
    integral = simpson(fso_link.hv_cn2(h, cfg), x=h)
    k = 2 * math.pi / 1550e-9
    ref = (0.42 / math.cos(math.radians(30)) * k * k * integral) ** (-0.6)
    assert fso_link.fried_r0(cfg) == pytest.approx(ref, rel=1e-6)


def test_rytov_variance_oracle_and_monotonicity():
    cfg = make_atmosphere(1e-12)
    h = np.concatenate([[0.0], np.geomspace(1e-3, 35786e3, 40001)])
    H = 35786e3
    u = h / H
    w = fso_link.hv_cn2(h, cfg) * ((1 - u) * u) ** (5 / 6)
    k = 2 * math.pi / 1550e-9
    sec = 1 / math.cos(math.radians(30))
    ref = 2.25 * k ** (7 / 6) * H ** (5 / 6) * sec ** (11 / 6) * simpson(w, x=h)
    assert fso_link.rytov_variance(cfg) == pytest.approx(ref, rel=1e-5)
    vals = [fso_link.rytov_variance(make_atmosphere(c)) for c in (1e-13, 5e-13, 1e-12)]
    assert vals[0] < vals[1] < vals[2]


def _path_quad_reference(cfg, weight):
    # adaptive scipy quad on a ladder of breakpoints doubling from 100 m
    # above the ground up to 100 km, then one segment to the satellite
    h0, H = cfg.altitude_ground, cfg.altitude_sat
    knots = [h0]
    step = 100.0
    while h0 + step < min(H, 100e3):
        knots.append(h0 + step)
        step *= 2.0
    knots.append(H)
    return math.fsum(
        quad(lambda h: fso_link.hv_cn2(h, cfg) * weight(h), a, b,
             limit=200, epsabs=0.0, epsrel=1e-12)[0]
        for a, b in zip(knots[:-1], knots[1:]))


def test_turbulence_pipeline_matches_quad_reference(monkeypatch):
    # both path integrals, with the weights the pipeline passes, and the
    # pipeline's outputs agree with the scipy quad ladder to 1e-12 over
    # cn2, ground height, zenith angle, beam radius and beam wander
    gauss = fso_link._path_quad
    integrals = []

    def reference(cfg, weight):
        ref = _path_quad_reference(cfg, weight)
        assert gauss(cfg, weight) == pytest.approx(ref, rel=1e-12, abs=0.0)
        integrals.append(ref)
        return ref

    grid = list(enumerate(itertools.product((1e-15, 1e-14, 1e-13, 1e-12, 1e-11),
                                            (0.0, 1.2e3, 2.4e3))))
    for i, (cn2, h0) in grid:
        cfg = fso_link.AtmosphereConfig(
            35786e3, h0, math.radians((0.0, 30.0, 60.0)[i // 3 % 3]), 1550e-9,
            21.0, cn2, (0.02, 0.3, 5.0)[(i + i // 3) % 3], beam_wander=i % 2 == 0)
        got = fso_link.scintillation_params(cfg)
        with monkeypatch.context() as patch:
            patch.setattr(fso_link, "_path_quad", reference)
            ref = fso_link.scintillation_params(cfg)
        for name in ("alpha", "beta", "rytov_var", "fried_r0", "sigma_pe"):
            assert getattr(got, name) == pytest.approx(
                getattr(ref, name), rel=1e-12, abs=0.0), (cfg, name)
    assert len(integrals) == 2 * len(grid)


def test_beam_wander_vanishes_for_wide_beams():
    # the bracket tends to zero as W0/r0 grows, faster than the prefactor
    narrow = fso_link.beam_wander_sigma_pe(make_atmosphere(1e-12, w0=0.02))
    wide = fso_link.beam_wander_sigma_pe(make_atmosphere(1e-12, w0=5.0))
    assert wide < 0.05 * narrow


@pytest.mark.parametrize("cn2, ab_bw, ab_nobw, sigma_pe", [
    (1e-13, (8.41, 14.67), (15.4, 14.67), 154.9),
    (5e-13, (2.57, 5.36), (5.76, 5.36), 141.59),
    (1e-12, (1.52, 3.29), (3.62, 3.29), 133.18),
])
def test_scintillation_triples(cn2, ab_bw, ab_nobw, sigma_pe):
    t = fso_link.scintillation_params(make_atmosphere(cn2))
    assert t.alpha == pytest.approx(ab_bw[0], rel=0.03)
    assert t.beta == pytest.approx(ab_bw[1], rel=0.03)
    assert t.sigma_pe == pytest.approx(sigma_pe, rel=0.02)
    t2 = fso_link.scintillation_params(make_atmosphere(cn2, beam_wander=False))
    assert t2.alpha == pytest.approx(ab_nobw[0], rel=0.03)
    assert t2.beta == pytest.approx(ab_nobw[1], rel=0.03)
    # disabling beam wander never lowers alpha and leaves beta unchanged
    assert t2.alpha >= t.alpha
    assert t2.beta == pytest.approx(t.beta, rel=1e-12)


def test_shapes_decrease_with_turbulence():
    triples = [fso_link.scintillation_params(make_atmosphere(c))
               for c in (1e-13, 5e-13, 1e-12)]
    assert triples[0].alpha > triples[1].alpha > triples[2].alpha
    assert triples[0].beta > triples[1].beta > triples[2].beta


def test_scintillation_index_definition_and_w0_ordering():
    t = fso_link.scintillation_params(make_atmosphere(1e-12))
    si = 1 / t.alpha + 1 / t.beta + 1 / (t.alpha * t.beta)
    assert t.scintillation_index == pytest.approx(si, rel=1e-14)
    # SI grows with the transmitted beam size at fixed turbulence
    sis = [fso_link.scintillation_params(make_atmosphere(1e-12, w0=w)).scintillation_index
           for w in (0.01, 0.02, 0.05)]
    assert sis[0] < sis[1] < sis[2]


# ---------------------------------------------------------------------------
# irradiance statistics
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def turb():
    return fso_link.scintillation_params(make_atmosphere(5e-13))


def _irradiance_pdf(i, turb, point, il):
    # the irradiance is gamma_1 at r = 1 with mu_r = E[I]
    mean_i = il * point.a0 * point.xi ** 2 / (point.xi ** 2 + 1.0)
    return fso_link.gamma1_pdf(i, 1, turb, point, mean_i)


def test_irradiance_pdf_normalization_and_mean(turb):
    point = fso_link.PointingConfig(xi=1.1, a0=0.9)
    il = 0.95
    norm, _ = quad(lambda i: _irradiance_pdf(i, turb, point, il),
                   1e-12, 60.0, limit=300)
    assert norm == pytest.approx(1.0, abs=1e-6)
    mean, _ = quad(lambda i: i * _irradiance_pdf(i, turb, point, il),
                   1e-12, 60.0, limit=300)
    xi2 = 1.1 ** 2
    mean_i = il * 0.9 * xi2 / (xi2 + 1)
    assert mean == pytest.approx(mean_i, rel=1e-6)
    assert mean == pytest.approx(
        fso_link.gamma1_moment(1, 1, turb, point, mean_i), rel=1e-6)


def test_irradiance_pdf_matches_histogram(turb):
    point = fso_link.PointingConfig(xi=1.1)
    rng = rng_for(21)
    n = 200_000
    draws = fso_link.sample_irradiance(turb, point, 1.0, rng, n)
    edges = np.linspace(0.02, 2.5, 26)
    counts, _ = np.histogram(draws, bins=edges)
    for k in range(len(edges) - 1):
        prob, _ = quad(lambda i: _irradiance_pdf(i, turb, point, 1.0),
                       edges[k], edges[k + 1])
        expect = n * prob
        # Poisson 5-sigma band per bin
        assert abs(counts[k] - expect) < 5.0 * math.sqrt(expect) + 5.0


def test_irradiance_sampler_ks(turb):
    point = fso_link.PointingConfig(xi=1.1)
    rng = rng_for(26)
    draws = fso_link.sample_irradiance(turb, point, 1.0, rng, 100_000)
    grid = np.linspace(1e-6, float(draws.max()) * 1.05, 4001)
    pdf = _irradiance_pdf(grid, turb, point, 1.0)
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) * np.diff(grid) / 2)])
    cdf /= cdf[-1]
    res = ks_1samp(draws, lambda x: np.interp(x, grid, cdf))
    assert res.pvalue > 0.01


def test_sampler_degenerate_pointing(turb):
    rng = rng_for(22)
    point = fso_link.PointingConfig(xi=1e9, a0=0.7)
    draws = fso_link.sample_irradiance(turb, point, 1.0, rng, 2000)
    i_a = draws / 0.7
    # pointing factor collapses to A0, leaving pure turbulence
    assert np.mean(i_a) == pytest.approx(1.0, abs=5 * 1.5 / math.sqrt(2000))


def test_sampler_turbulence_moments(turb):
    rng = rng_for(23)
    n = 1_000_000
    i_a = (rng.gamma(turb.alpha, 1 / turb.alpha, n)
           * rng.gamma(turb.beta, 1 / turb.beta, n))
    si = turb.scintillation_index
    assert np.mean(i_a) == pytest.approx(1.0, abs=3 * math.sqrt(si / n))
    # variance of the unit-mean product is the scintillation index;
    # the bound uses the sample fourth moment for the variance of s^2
    var = np.var(i_a)
    se = math.sqrt(np.var((i_a - 1.0) ** 2) / n)
    assert var == pytest.approx(si, abs=3 * se)


# ---------------------------------------------------------------------------
# electrical SNR of the feeder link
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("r", [1, 2])
def test_gamma1_pdf_normalization_and_mean(turb, r):
    point = fso_link.PointingConfig(xi=1.1)
    mu_r = 250.0
    pdf = lambda g: fso_link.gamma1_pdf(g, r, turb, point, mu_r)
    norm, _ = quad(lambda t: pdf(math.tan(t)) / math.cos(t) ** 2,
                   1e-10, math.pi / 2 - 1e-10, limit=400)
    assert norm == pytest.approx(1.0, abs=1e-6)
    mean, _ = quad(lambda t: math.tan(t) * pdf(math.tan(t)) / math.cos(t) ** 2,
                   1e-10, math.pi / 2 - 1e-10, limit=400)
    # E[gamma_1] must equal the gbar1 implied by the mu_r conversion; this
    # pins the r-shifted gamma factor of the second shape parameter
    gbar1 = fso_link.gamma1_moment(1, r, turb, point, mu_r)
    assert mean == pytest.approx(gbar1, rel=1e-6)
    second, _ = quad(lambda t: math.tan(t) ** 2 * pdf(math.tan(t)) / math.cos(t) ** 2,
                     1e-10, math.pi / 2 - 1e-10, limit=400)
    assert second == pytest.approx(fso_link.gamma1_moment(2, r, turb, point, mu_r),
                                   rel=1e-6)


def test_gamma1_sampler_against_pdf(turb):
    point = fso_link.PointingConfig(xi=1.1)
    mu_r = 100.0
    rng = rng_for(24)
    n = 100_000
    draws = fso_link.sample_gamma1(2, turb, point, mu_r, 1.0, rng, n)
    qs = np.quantile(draws, np.linspace(0.05, 0.95, 10))
    cdf_vals = []
    for q in qs:
        val, _ = quad(lambda g: fso_link.gamma1_pdf(g, 2, turb, point, mu_r),
                      1e-10, q, limit=400)
        cdf_vals.append(val)
    ecdf = np.searchsorted(np.sort(draws), qs, side="right") / n
    # Dvoretzky-Kiefer-Wolfowitz band at significance 0.01
    bound = math.sqrt(math.log(2 / 0.01) / (2 * n))
    assert np.max(np.abs(np.array(cdf_vals) - ecdf)) < bound


def test_feeder_config_validation(turb):
    atmo = make_atmosphere(1e-12)
    with pytest.raises(ValueError):
        fso_link.FeederConfig(3, atmo, fso_link.PointingConfig(1.0))
    with pytest.raises(ValueError):
        fso_link.PointingConfig(xi=1.0, a0=1.5)
    with pytest.raises(ValueError):
        fso_link.AtmosphereConfig(
            0.0, 10.0, 0.0, 1550e-9, 21.0, 1e-13, 0.02)
