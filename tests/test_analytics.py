"""Closed-form metrics: boundary behavior, oracle agreement, derivative and
moment consistency, asymptotic behavior, and the modulation table."""

import dataclasses
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from optfeeder import analytics, cli, fso_link, montecarlo, rf_link, specfun
from conftest import HEAVY_SHADOWING, rng_for



@pytest.fixture(scope="module")
def scn_imdd_twta(scenario_factory):
    return scenario_factory(mu_r_db=30.0)


@pytest.fixture(scope="module")
def scn_het_lin(scenario_factory):
    return scenario_factory(detection="heterodyne", hpa_family="linear",
                            ibo_db=None, mu_r_db=30.0)


# ---------------------------------------------------------------------------
# modulation table
# ---------------------------------------------------------------------------

def test_modulation_table():
    ook = analytics.modulation("ook")
    assert analytics.BER_P == 0.5
    assert (ook.delta, ook.q_values, ook.n_terms) == (1.0, (0.5,), 1)
    assert ook.detection_r == 2
    bpsk = analytics.modulation("bpsk")
    assert (bpsk.delta, bpsk.q_values, bpsk.detection_r) == (1.0, (1.0,), 1)
    psk16 = analytics.modulation("mpsk", 16)
    assert psk16.n_terms == 4
    assert psk16.delta == pytest.approx(0.5)
    assert psk16.q_values[0] == pytest.approx(math.sin(math.pi / 16) ** 2)
    qam16 = analytics.modulation("mqam", 16)
    assert qam16.n_terms == 2
    assert qam16.delta == pytest.approx(0.75)
    assert qam16.q_values == pytest.approx((0.1, 0.9))
    qpsk = analytics.modulation("mpsk", 4)
    assert qpsk.n_terms == 1 and qpsk.delta == pytest.approx(1.0)
    assert analytics.modulation("mqam", 64).n_terms == 4
    with pytest.raises(ValueError):
        analytics.modulation("mpsk")
    assert analytics.modulation("mpsk", 2).q_values == pytest.approx((1.0,))
    assert analytics.modulation("mqam", 4).q_values == pytest.approx((0.5,))
    # only the tabulated orders: M-PSK at 2^k, square M-QAM at 4^k
    for name, order in (("mpsk", 1), ("mpsk", 3), ("mpsk", 6), ("mpsk", 0),
                        ("mqam", 1), ("mqam", 2), ("mqam", 8), ("mqam", 32)):
        with pytest.raises(ValueError):
            analytics.modulation(name, order)


# ---------------------------------------------------------------------------
# the link laws
# ---------------------------------------------------------------------------

def _law_sites(scn):
    ook = analytics.modulation("ook")
    return {
        "sndr_cdf_exact": analytics.sndr_cdf_exact(2.0, scn),
        "sndr_pdf_exact": analytics.sndr_pdf_exact(2.0, scn),
        "ber_exact": analytics.ber_exact(ook, scn),
        "capacity_exact": analytics.capacity_exact(scn),
        "sndr_moments": analytics.sndr_moments(2, scn),
        "sndr_cdf_oracle": analytics.sndr_cdf_oracle(2.0, scn),
        "outage_asymptotic": analytics.outage_asymptotic(2.0, scn),
        "ber_asymptotic": analytics.ber_asymptotic(ook, scn),
    }


def _nudge(scn, name, field):
    # replace the scenario's cached record by one with a field moved by 1e-4
    law = getattr(scn, name)
    scn.__dict__[name] = dataclasses.replace(
        law, **{field: getattr(law, field) * (1.0 + 1e-4)})


@pytest.mark.parametrize("field", ["gamma_alpha", "xi2"])
def test_feeder_law_is_the_only_home(scenario_factory, monkeypatch, field):
    # the scenario's record with one field nudged reaches every gamma_1 site,
    # so no site computes the law from the Gamma-Gamma shapes on its own;
    # gbar1, kappa and C were derived before the nudge and stay as they were
    before = _law_sites(scenario_factory(mu_r_db=30.0))
    scn = scenario_factory(mu_r_db=30.0)
    gbar1 = scn.gbar1
    _nudge(scn, "feeder_law", field)
    after = _law_sites(scn)
    assert scn.gbar1 == gbar1
    for name, value in before.items():
        assert not math.isclose(after[name], value, rel_tol=1e-7), name
    # and gbar1 itself is derived from the record
    real = fso_link.feeder_law

    def nudged(*args):
        law = real(*args)
        return dataclasses.replace(law, **{field: getattr(law, field) * (1.0 + 1e-4)})

    monkeypatch.setattr(fso_link, "feeder_law", nudged)
    assert not math.isclose(scenario_factory(mu_r_db=30.0).gbar1, gbar1, rel_tol=1e-7)


def test_user_law_is_the_only_home(scenario_factory):
    # a nudged shadowing prefactor reaches every closed form, the oracle, the
    # moments and both expansions: no site rebuilds the gamma_2 series
    before = _law_sites(scenario_factory(mu_r_db=30.0))
    scn = scenario_factory(mu_r_db=30.0)
    _nudge(scn, "user_law", "lead")
    after = _law_sites(scn)
    for name, value in before.items():
        assert not math.isclose(after[name], value, rel_tol=1e-7), name


def test_each_law_is_built_once_per_scenario(scenario_factory, monkeypatch):
    # building the scenario and every metric of it, a Monte Carlo estimate
    # included, build each link's record once
    built = {"feeder_law": 0, "user_law": 0}
    for module, name in ((fso_link, "feeder_law"), (rf_link, "user_law")):
        def counted(*args, _real=getattr(module, name), _name=name):
            built[_name] += 1
            return _real(*args)
        monkeypatch.setattr(module, name, counted)
    scn = scenario_factory(mu_r_db=30.0)
    law = scn.feeder_law
    assert not analytics._collides(law.xi2, law.alpha, law.beta, law.r)
    _law_sites(scn)
    montecarlo.empirical_outage(montecarlo.SimPlan((scn,), 1000, seed=1), [2.0])
    assert built == {"feeder_law": 1, "user_law": 1}


def test_clones_build_no_law_record(scenario_factory):
    # neither record depends on mu_r or gamma_bar2, so the clones that move
    # them find both records kept by the builders instead of building anew
    scn = scenario_factory(mu_r_db=30.0)
    records = (scn.feeder_law, scn.user_law)
    builders = (fso_link.feeder_law, rf_link.user_law)
    misses = [b.cache_info().misses for b in builders]
    clones = (scn.at_mu_r_db(45.0), scn.with_gamma_bar2(7.0),
              scn.at_mu_r_db(60.0).with_gamma_bar2(3.0))
    for clone in clones:
        assert (clone.feeder_law, clone.user_law) == records
    assert [b.cache_info().misses for b in builders] == misses


# ---------------------------------------------------------------------------
# sum regrouping
# ---------------------------------------------------------------------------

def test_sum_weight_regrouping():
    # the per-j weights must reproduce the raw (k, j) double sum with the
    # alternating-Pochhammer coefficients, for arbitrary inner values
    p = rf_link.ShadowedRicianParams(m=19, b=0.158, omega=1.29)
    law = rf_link.user_law(p)
    m = law.m
    z = p.omega / (2 * p.b * p.m)
    rng = np.random.default_rng(5)
    g = rng.uniform(0.1, 3.0, m)     # stand-in per-j term values
    # rising factorial (1-m)_k as a direct product, independent of the library
    poch = [math.prod(1.0 - m + i for i in range(k)) for k in range(m)]
    raw = math.fsum(
        (-1) ** k * poch[k]
        / (math.factorial(k) * math.factorial(j)) * z ** k * g[j]
        for k in range(m) for j in range(k + 1))
    assert math.fsum(np.array(law.weights) * g) == pytest.approx(raw, rel=1e-12)


# ---------------------------------------------------------------------------
# CDF and PDF
# ---------------------------------------------------------------------------

def test_cdf_boundaries(scn_imdd_twta):
    # the lower tail scales like x^(xi^2/r), so "small" must be small enough
    assert analytics.sndr_cdf_exact(1e-12, scn_imdd_twta) < 1e-6
    assert analytics.sndr_cdf_exact(1e9, scn_imdd_twta) == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError):
        analytics.sndr_cdf_exact(0.0, scn_imdd_twta)


@pytest.mark.parametrize("fn,name", [
    (analytics.sndr_cdf_exact, "x"), (analytics.sndr_pdf_exact, "x"),
    (analytics.sndr_cdf_oracle, "x"), (analytics.outage_asymptotic, "gamma_th")])
def test_threshold_checks_reject_nan(scn_imdd_twta, fn, name):
    # a NaN threshold raises at once, naming the argument, instead of
    # reaching the engine or the expansion
    for bad in (math.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match=f"{name} must be positive, not {bad}"):
            fn(bad, scn_imdd_twta)


def test_cdf_monotone(scn_imdd_twta):
    xs = np.geomspace(0.05, 200.0, 12)
    vals = [analytics.sndr_cdf_exact(x, scn_imdd_twta) for x in xs]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_cdf_exact_vs_oracle_quick(scn_imdd_twta, scn_het_lin):
    for scn in (scn_imdd_twta, scn_het_lin):
        for x in np.geomspace(0.2, 50.0, 6):
            e = analytics.sndr_cdf_exact(x, scn)
            o = analytics.sndr_cdf_oracle(x, scn)
            assert e == pytest.approx(o, abs=1e-7)


def test_oracle_saturates_at_huge_gamma_bar2(scenario_factory):
    # past gbar2 ~ 1e200 the user link no longer limits the SNDR, so
    # a(gamma_2) = 1/(|b|^2 kappa) and the oracle is the feeder CDF at
    # x |b|^2 kappa, as test_moments_saturate_at_huge_gamma_bar2 finds for
    # the moments
    scn = scenario_factory(mu_r_db=30.0)
    x = 10 ** 0.5
    limit = fso_link.gamma1_cdf(x * scn.b_row_norm_sq * scn.kappa, scn.feeder_law, scn.mu_r)
    for gbar2 in (1e200, 1e300, 1e308):
        assert analytics.sndr_cdf_oracle(x, scn.with_gamma_bar2(gbar2)) == pytest.approx(
            limit, abs=1e-12)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_pdf_normalization_and_nonnegative(scn_imdd_twta):
    val, _ = quad(lambda t: analytics.sndr_pdf_exact(math.tan(t), scn_imdd_twta)
                  / math.cos(t) ** 2, 1e-6, math.pi / 2 - 1e-8, limit=150)
    assert val == pytest.approx(1.0, abs=1e-4)
    for x in np.geomspace(0.01, 1000.0, 100):
        assert analytics.sndr_pdf_exact(x, scn_imdd_twta) >= 0.0


def test_pdf_matches_cdf_derivative(scn_imdd_twta):
    for x in np.geomspace(0.3, 60.0, 10):
        h = 1e-4 * x
        num = (analytics.sndr_cdf_exact(x + h, scn_imdd_twta)
               - analytics.sndr_cdf_exact(x - h, scn_imdd_twta)) / (2 * h)
        pdf = analytics.sndr_pdf_exact(x, scn_imdd_twta)
        assert pdf == pytest.approx(num, rel=1e-4, abs=1e-12)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_moments_against_pdf_quadrature(scn_imdd_twta):
    for n in (1, 2):
        closed = analytics.sndr_moments(n, scn_imdd_twta)
        val, _ = quad(lambda t: math.tan(t) ** n
                      * analytics.sndr_pdf_exact(math.tan(t), scn_imdd_twta)
                      / math.cos(t) ** 2, 1e-6, math.pi / 2 - 1e-8, limit=200)
        assert closed == pytest.approx(val, rel=1e-4)


@pytest.mark.parametrize("config,mu_r_db,detection,shadowing", [
    pytest.param("floor_phenomenology", 10.0, "imdd", None, id="imdd"),
    pytest.param("floor_phenomenology", 10.0, "heterodyne", None, id="heterodyne"),
    pytest.param("floor_phenomenology", 10.0, "imdd", HEAVY_SHADOWING, id="m_1"),
    pytest.param("outage_strong_turbulence", 0.0, "imdd", None, id="calibrated_0dB"),
    pytest.param("outage_strong_turbulence", 80.0, "imdd", None, id="calibrated_80dB"),
])
def test_moments_against_mpmath_term_sum(config, mu_r_db, detection, shadowing):
    # the paper's moment, E[gamma_1^n] / ((kappa |b|^2)^n Gamma(n)) times
    # sum_j w_j G^{2,1}_{1,2}(x1 | 1-n; j, 1), every factor in mpmath: on the
    # deep user link of floor_phenomenology (x1 ~ 1e-10), with one term (m = 1),
    # and on the calibrated scale, where x1 reaches 0.33 at 80 dB
    mp = pytest.importorskip("mpmath")
    cfg = Path(__file__).resolve().parent.parent / "configs" / f"{config}.ini"
    cp, _ = cli.load_config(str(cfg))
    scn = cli._scenario_from_config(cp, mu_r_db, {"detection": detection})
    if shadowing is not None:
        scn = dataclasses.replace(scn, shadowing=shadowing)
    al, be = scn.turbulence.alpha, scn.turbulence.beta
    xi2 = scn.feeder.pointing.xi ** 2
    r = scn.detection_r
    shadow = scn.shadowing
    weights = rf_link.user_law(shadow).weights
    with mp.workdps(30):
        x1 = mp.mpf(scn.noise_amp_c) * shadow.m / (mp.mpf(scn.kappa) * scn.gamma_bar2)
        two_bm = 2 * mp.mpf(shadow.b) * shadow.m
        lead = (two_bm / (two_bm + shadow.omega)) ** (int(shadow.m) - 1)
        for n in (1, 2, 3):
            k = r * n
            g1_moment = (mp.mpf(scn.mu_r) ** n * xi2 * (xi2 + 1) ** k * mp.gamma(al + k)
                         * mp.gamma(be + k) / ((xi2 + k) * (mp.mpf(al) * be * xi2) ** k
                                               * mp.gamma(al) * mp.gamma(be)))
            terms = mp.fsum(w * mp.meijerg([[1 - n], []], [[j, 1], []], x1)
                            for j, w in enumerate(weights))
            ref = (g1_moment / ((mp.mpf(scn.kappa) * scn.b_row_norm_sq) ** n * mp.gamma(n))
                   * lead * terms)
            assert analytics.sndr_moments(n, scn) == pytest.approx(float(ref), rel=1e-12)


def test_moments_use_no_meijer_g(scn_imdd_twta, monkeypatch):
    # criterion 4 and test_moments_against_pdf_quadrature check the moment
    # against a quadrature of sndr_pdf_exact, which runs on the bivariate
    # engine, so the moment must use no Meijer G evaluator of its own
    expected = analytics.sndr_moments(2, scn_imdd_twta)

    def forbidden(*args, **kwargs):
        raise AssertionError("sndr_moments called a Meijer G evaluator")

    for name in ("meijer_g_bivariate_family", "meijer_g_2_1_1_2", "tricomi_u"):
        monkeypatch.setattr(specfun, name, forbidden)
    assert analytics.sndr_moments(2, scn_imdd_twta) == expected


def test_moments_saturate_at_huge_gamma_bar2():
    # past gbar2 ~ 1e300 the user link no longer limits the SNDR, so the
    # moment is E[gamma_1^n] / (|b|^2 kappa)^n; the quadrature in ln gamma_2
    # raised ConvergenceError from 1e303 (a subnormal density times gamma_2)
    # and from 2.2e305 (gamma_2 overflowed on the top panel)
    cfg = Path(__file__).resolve().parent.parent / "configs" / "floor_phenomenology.ini"
    cp, _ = cli.load_config(str(cfg))
    scn = cli._scenario_from_config(cp, 40.0, {})
    limit = (fso_link.gamma1_moment(2, scn.feeder_law, scn.mu_r)
             / (scn.b_row_norm_sq * scn.kappa) ** 2)
    saturated = analytics.sndr_moments(2, scn.with_gamma_bar2(1e300))
    assert saturated == pytest.approx(limit, rel=1e-12)
    for gbar2 in (1e303, 1e305, 1e306, 1e308):
        assert analytics.sndr_moments(2, scn.with_gamma_bar2(gbar2)) == pytest.approx(
            saturated, rel=1e-12)


def test_moments_jensen(scn_imdd_twta):
    m1 = analytics.sndr_moments(1, scn_imdd_twta)
    m2 = analytics.sndr_moments(2, scn_imdd_twta)
    assert m1 > 0 and m2 >= m1 ** 2


def test_moments_validation(scn_imdd_twta):
    for bad in (0, 1.5, math.nan):
        with pytest.raises(ValueError, match="order"):
            analytics.sndr_moments(bad, scn_imdd_twta)


# ---------------------------------------------------------------------------
# outage
# ---------------------------------------------------------------------------

def test_outage_monotone_in_threshold(scn_imdd_twta):
    ths = np.geomspace(0.1, 50.0, 8)
    vals = [analytics.outage_exact(t, scn_imdd_twta) for t in ths]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_outage_floor_matches_asymptotic_constant(scenario_factory):
    # at the calibrated operating point the TWTA floor and the high-SNR
    # expansion agree to within a percent
    scn = scenario_factory(mu_r_db=80.0)
    gth = 10 ** 0.5
    exact = analytics.outage_exact(gth, scn)
    asym = analytics.outage_asymptotic(gth, scn)
    assert exact > 0.05          # strictly positive floor
    assert asym == pytest.approx(exact, rel=0.01)


def test_expansion_brackets_once_per_exponent(scenario_factory, monkeypatch):
    # the J2..J4 brackets depend on (j, theta) only: three per j < m
    scn = scenario_factory(mu_r_db=70.0, gamma_bar2=1e12)
    calls = []
    g212 = specfun.meijer_g_2_1_1_2

    def counted(*args):
        calls.append(args)
        return g212(*args)

    monkeypatch.setattr(specfun, "meijer_g_2_1_1_2", counted)
    analytics.outage_asymptotic(10 ** 0.5, scn)
    assert len(calls) == 3 * scn.user_law.m == 57


def test_outage_slope_before_floor(scenario_factory):
    # linear amplifier decays like mu_r^(-xi^2/r) before any floor; the
    # subdominant alpha/r exponent drags the finite-range slope slightly
    # below that, and the expansion must reproduce the same local slope
    scn40 = scenario_factory(hpa_family="linear", ibo_db=None, mu_r_db=40.0,
                             gamma_bar2=1e12)
    gth = 10 ** 0.5
    p = {mu: analytics.outage_exact(gth, scn40.at_mu_r_db(mu))
         for mu in (40.0, 60.0)}
    a = {mu: analytics.outage_asymptotic(gth, scn40.at_mu_r_db(mu))
         for mu in (40.0, 60.0)}
    slope = (math.log10(p[40.0]) - math.log10(p[60.0])) / 2.0   # per decade
    slope_asym = (math.log10(a[40.0]) - math.log10(a[60.0])) / 2.0
    xi2_over_r = 1.1 ** 2 / 2.0
    assert slope == pytest.approx(xi2_over_r, abs=0.12)
    assert slope == pytest.approx(slope_asym, abs=0.03)


def test_parameter_collision_handling(layout, rf_params):
    # near an integer coincidence the expansion must stay healthy; exactly
    # on one it must survive (perturbed) with a warning, while the exact
    # and oracle paths remain untouched by the degeneracy
    from optfeeder import fso_link, system, transponder
    from conftest import LIGHT_SHADOWING, make_atmosphere

    def scenario(alpha):
        turb = fso_link.TurbulenceParams(
            alpha=alpha, beta=4.3, rytov_var=0.7, fried_r0=0.018,
            sigma_pe=133.0)
        feeder = fso_link.FeederConfig(
            2, make_atmosphere(1e-12), fso_link.PointingConfig(xi=1.3))
        return system.build_scenario(
            feeder, layout, rf_params, LIGHT_SHADOWING,
            transponder.hpa_state("twta", 25.0), mu_r_db=75.0,
            gamma_bar2=1e12, turbulence=turb)

    gth = 10 ** 0.5
    near = scenario(2.0 + 1e-4)    # alpha close to r*j but still generic
    exact = analytics.outage_exact(gth, near)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)   # no perturbation
        asym = analytics.outage_asymptotic(gth, near)
    assert asym == pytest.approx(exact, rel=0.05)

    on = scenario(2.0)             # exactly on alpha = r*j
    exact_on = analytics.outage_exact(gth, on)
    oracle_on = analytics.sndr_cdf_oracle(gth, on)
    assert exact_on == pytest.approx(oracle_on, abs=1e-7)
    with pytest.warns(RuntimeWarning, match="integer coincidence"):
        asym_on = analytics.outage_asymptotic(gth, on)
    assert math.isfinite(asym_on)
    assert math.isfinite(analytics.sndr_moments(1, on))


def test_expansion_raises_where_no_perturbation_separates_poles(scn_imdd_twta, monkeypatch):
    # every joint perturbation still on a coincidence: PoleCollisionError
    # before any gamma is taken
    monkeypatch.setattr(analytics, "_collides", lambda *args: True)
    with pytest.raises(specfun.PoleCollisionError, match="could not separate"):
        analytics.outage_asymptotic(10 ** 0.5, scn_imdd_twta)


def _collides_per_term(xi2, al, be, r, m):
    # every expansion gamma argument and denominator, listed term by term
    risky = [al - be, be - al, xi2 - al, xi2 - be]
    for v in (xi2, al, be):
        risky.append(v / r - math.floor(v / r))
        for j in range(m):
            risky.append(v - r * j)
            risky.append(j - v / r - round(j - v / r))
    return any(abs(v - round(v)) < specfun.COLLIDE_TOL
               or abs(v) < specfun.COLLIDE_TOL for v in risky)


def test_collides_matches_per_term_predicate():
    # seeded draws, most placed on or near one of the nine coincidences
    rng = rng_for(21)
    offsets = (0.0, 1e-9, -1e-9, 3e-8, -3e-8)
    hits = 0
    for _ in range(20000):
        r = int(rng.integers(1, 3))
        m = int(rng.integers(1, 20))
        xi2, al, be = rng.uniform(0.2, 12.0, size=3)
        v = float(rng.integers(1, 6)) + offsets[int(rng.integers(0, len(offsets)))]
        kind = int(rng.integers(0, 10))
        if kind == 0:
            be = al - v if al > v else al + v
        elif kind == 1:
            xi2 = al + v
        elif kind == 2:
            xi2 = be + v
        elif kind == 3:
            xi2 = v
        elif kind == 4:
            al = v
        elif kind == 5:
            be = v
        elif kind == 6:
            xi2 = r * v
        elif kind == 7:
            al = r * v
        elif kind == 8:
            be = r * v
        got = analytics._collides(xi2, al, be, r)
        assert got == _collides_per_term(xi2, al, be, r, m), (xi2, al, be, r, m)
        hits += got
    assert 5000 < hits < 15000      # both outcomes well represented


def test_linear_equals_kappa_one_substitution(scenario_factory):
    # family 'linear' must reproduce the nonlinear formulas at kappa = 1
    lin = scenario_factory(hpa_family="linear", ibo_db=None, mu_r_db=45.0)
    twta = scenario_factory(mu_r_db=45.0)
    forced = dataclasses.replace(twta, hpa=lin.hpa)
    assert forced.kappa == 1.0 and forced.relay_g == twta.relay_g
    for x in (0.5, 3.0, 20.0):
        assert analytics.sndr_cdf_exact(x, lin) == pytest.approx(
            analytics.sndr_cdf_exact(x, forced), rel=1e-9)


# ---------------------------------------------------------------------------
# BER and capacity
# ---------------------------------------------------------------------------

def test_ber_within_ceiling_and_ordering(scn_het_lin):
    qam = analytics.modulation("mqam", 16)
    psk = analytics.modulation("mpsk", 16)
    b_qam = analytics.ber_exact(qam, scn_het_lin)
    b_psk = analytics.ber_exact(psk, scn_het_lin)
    assert 0.0 <= b_qam <= qam.ber_ceiling
    assert 0.0 <= b_psk <= psk.ber_ceiling
    assert b_qam <= b_psk


def test_ber_detection_mismatch(scn_imdd_twta, scn_het_lin):
    with pytest.raises(ValueError):
        analytics.ber_exact(analytics.modulation("bpsk"), scn_imdd_twta)
    with pytest.raises(ValueError):
        analytics.ber_exact(analytics.modulation("ook"), scn_het_lin)


def test_ber_exact_matches_conditional_mc(scn_imdd_twta):
    mod = analytics.modulation("ook")
    exact = analytics.ber_exact(mod, scn_imdd_twta)
    (est,) = montecarlo.empirical_ber(
        montecarlo.SimPlan((scn_imdd_twta,), 400_000, seed=61), mod)
    assert est.covers(exact)


def test_capacity_positive_and_degenerate_limit(scenario_factory):
    scn = scenario_factory(mu_r_db=-100.0)
    assert analytics.capacity_exact(scn) < 1e-4
    scn2 = scenario_factory(mu_r_db=30.0)
    assert analytics.capacity_exact(scn2) > 1.0


def test_capacity_ceilings_match_published_sweeps(scenario_factory):
    # high-SNR capacity ceilings are set entirely by the distortion pair
    # and the gain closure (no user-link freedom left), so they pin the
    # whole capacity path against published sweep endpoints
    refs = {("twta", 10.0): 0.9469, ("twta", 20.0): 5.5617,
            ("twta", 25.0): 8.7673,
            ("sspa", 10.0): 2.0729, ("sspa", 20.0): 7.5143,
            ("sspa", 25.0): 10.7586}
    for (family, ibo), ref in refs.items():
        scn = scenario_factory(hpa_family=family, ibo_db=ibo, cn2=1e-13,
                               xi=6.7, mu_r_db=80.0, gamma_bar2=1e12)
        val = analytics.capacity_exact(scn)
        assert val == pytest.approx(ref, rel=0.15), (family, ibo, val, ref)
    # the limiter amplifier always clears the Saleh amplifier's ceiling
    for ibo in (10.0, 20.0, 25.0):
        t = scenario_factory(hpa_family="twta", ibo_db=ibo, cn2=1e-13,
                             xi=6.7, mu_r_db=80.0, gamma_bar2=1e12)
        s = scenario_factory(hpa_family="sspa", ibo_db=ibo, cn2=1e-13,
                             xi=6.7, mu_r_db=80.0, gamma_bar2=1e12)
        assert analytics.capacity_exact(s) > analytics.capacity_exact(t)


def test_ber_asymptotic_tracks_exact_at_high_snr(scenario_factory):
    scn = scenario_factory(mu_r_db=75.0, gamma_bar2=1e12)
    mod = analytics.modulation("ook")
    exact = analytics.ber_exact(mod, scn)
    asym = analytics.ber_asymptotic(mod, scn)
    assert asym == pytest.approx(exact, rel=0.05)


# ---------------------------------------------------------------------------
# calibration and results
# ---------------------------------------------------------------------------

def test_fit_gamma_bar2_roundtrip(scenario_factory):
    scn = scenario_factory(mu_r_db=50.0, gamma_bar2=None)
    target = 0.105
    fitted = analytics.fit_gamma_bar2(scn, target, 10 ** 0.5, lo=1.0, hi=1e13)
    check = analytics.outage_exact(10 ** 0.5, scn.with_gamma_bar2(fitted))
    assert check == pytest.approx(target, rel=1e-6)


@pytest.mark.parametrize("detection", ["imdd", "heterodyne"])
def test_fit_gamma_bar2_evaluation_count(scenario_factory, monkeypatch, detection):
    # a root-finder, not a fixed bisection: at most 20 outage evaluations,
    # the two bracket checks included, and the target still reproduced
    scn = scenario_factory(detection=detection, mu_r_db=50.0, gamma_bar2=None)
    calls = []
    outage = analytics.outage_exact

    def counted(*args):
        calls.append(args)
        return outage(*args)

    monkeypatch.setattr(analytics, "outage_exact", counted)
    fitted = analytics.fit_gamma_bar2(scn, 0.105, 10 ** 0.5, lo=1.0, hi=1e13)
    assert len(calls) <= 20
    check = outage(10 ** 0.5, scn.with_gamma_bar2(fitted))
    assert check == pytest.approx(0.105, rel=1e-9)
    # the library's Brent search takes the steps of scipy's brentq
    from scipy.optimize import brentq

    def excess(log_g):
        return outage(10 ** 0.5, scn.with_gamma_bar2(math.exp(log_g))) - 0.105

    ref = brentq(excess, math.log(1.0), math.log(1e13), xtol=analytics._REL_TOL)
    assert fitted == math.exp(ref)


@pytest.mark.parametrize("detection", ["imdd", "heterodyne"])
def test_fit_gamma_bar2_steps_share_t_collapses(scenario_factory, monkeypatch, detection):
    # gamma_bar2 enters only x1, so the steps of one fit reuse the engine's
    # t-collapses: measured 10 builds over 31 refinement levels (IM/DD) and
    # 11 over 41 (heterodyne).  A second fit on the same scenario and
    # bracket builds none, its two bracket checks included.
    scn = scenario_factory(detection=detection, mu_r_db=50.0, gamma_bar2=None)
    collapse = specfun._t_collapse
    collapse.cache_clear()
    builds = []
    outage = analytics.outage_exact

    def counted(*args):
        before = collapse.cache_info().misses
        value = outage(*args)
        builds.append(collapse.cache_info().misses - before)
        return value

    monkeypatch.setattr(analytics, "outage_exact", counted)
    first = analytics.fit_gamma_bar2(scn, 0.105, 10 ** 0.5, lo=1.0, hi=1e13)
    n_first = len(builds)
    assert sum(builds) <= 12
    second = analytics.fit_gamma_bar2(scn, 0.105, 10 ** 0.5, lo=1.0, hi=1e13)
    assert second == first
    assert builds[n_first:n_first + 2] == [0, 0]
    assert sum(builds[n_first:]) == 0


def test_fit_gamma_bar2_bracket_check(scenario_factory):
    scn = scenario_factory(mu_r_db=50.0, gamma_bar2=None)
    with pytest.raises(ValueError, match="outside attainable range"):
        analytics.fit_gamma_bar2(scn, 0.01, 10 ** 0.5, lo=1.0, hi=1e13)

