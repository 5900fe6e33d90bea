"""Zero-forcing precoder, SNDR law, and scenario assembly."""

import dataclasses
import math
import types

import numpy as np
import pytest

from optfeeder import fso_link, rf_link, system, transponder

from conftest import (CALIBRATED_GAMMA_BAR2, LIGHT_SHADOWING, make_atmosphere,
                      rng_for)


# ---------------------------------------------------------------------------
# precoder
# ---------------------------------------------------------------------------

def test_zf_identities_random_matrices():
    rng = rng_for(51)
    for _ in range(100):
        n = int(rng.integers(3, 9))
        b = rng.standard_normal((n, n)) + n * np.eye(n)
        p_g = float(rng.uniform(0.5, 4.0))
        t, c_zf = system.zf_precoder(b, p_g)
        np.testing.assert_allclose(b @ t, math.sqrt(c_zf) * np.eye(n),
                                   atol=1e-10 * math.sqrt(c_zf))
        assert np.trace(t @ t.T) == pytest.approx(p_g, rel=1e-10)


def test_zf_identity_matrix_case():
    t, c_zf = system.zf_precoder(np.eye(5), 2.0)
    assert c_zf == pytest.approx(0.4, rel=1e-12)
    np.testing.assert_allclose(t, math.sqrt(0.4) * np.eye(5), atol=1e-14)


def _mp_trace_bbt_inv(b):
    """tr[(B B^T)^(-1)] in 60-digit mpmath, where the float matrix is exact."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        m = mp.matrix(b.tolist())
        inv = (m * m.T) ** -1
        return float(mp.fsum(inv[i, i] for i in range(m.rows)))


def test_zf_default_layout_solve_oracle(layout, rf_params):
    b = rf_link.beam_gain_matrix(layout, rf_params)
    t, c_zf = system.zf_precoder(b, 1.0)
    # independent oracle: the trace of the inverse Gram matrix in 60 digits
    trace_ref = _mp_trace_bbt_inv(b)
    assert c_zf == pytest.approx(1.0 / trace_ref, rel=1e-10)
    assert system.trace_bbh_inv(b) == pytest.approx(trace_ref, rel=1e-10)


@pytest.mark.parametrize("theta_3db_deg", [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, None],
                         ids=lambda t: "cond_1e8" if t is None else f"theta_{t:g}deg")
def test_trace_bbh_inv_against_mpmath(layout, rf_params, theta_3db_deg):
    # wider beams overlap more: cond(B) runs from 1.4e3 at 1 degree to 5.4e7
    # at 6, inside the guard, where a trace through B B^T (cond squared)
    # came out 30 % off; None is a seeded 7 x 7 matrix at cond 1e8
    if theta_3db_deg is None:
        rng = rng_for(1708)
        q1, _ = np.linalg.qr(rng.standard_normal((7, 7)))
        q2, _ = np.linalg.qr(rng.standard_normal((7, 7)))
        b = q1 @ np.diag(np.geomspace(1.0, 1e-8, 7)) @ q2.T
        rel = 1e-7
    else:
        rf = dataclasses.replace(rf_params, theta_3db_rad=math.radians(theta_3db_deg))
        b = rf_link.beam_gain_matrix(layout, rf)
        rel = 1e-10
    assert np.linalg.cond(b) < system.CONDITION_LIMIT
    assert system.trace_bbh_inv(b) == pytest.approx(_mp_trace_bbt_inv(b), rel=rel)


def test_zf_rank_deficiency_error():
    b = np.ones((4, 4))
    with pytest.raises(system.RankDeficientError):
        system.zf_precoder(b, 1.0)


# ---------------------------------------------------------------------------
# SNDR law
# ---------------------------------------------------------------------------

def test_sndr_hand_value():
    # the exact algebra check on hand-set scenario quantities: C = 1 * 10 + 1
    scn_h = types.SimpleNamespace(b_row_norm_sq=1.0, kappa=1.0, noise_amp_c=11.0)
    assert system.sndr(20.0, 22.0, scn_h) == pytest.approx(440.0 / 33.0)
    assert system.sndr(0.0, 22.0, scn_h) == 0.0
    assert system.sndr(20.0, 0.0, scn_h) == 0.0


def test_sndr_monotone_and_bounded(scenario_factory):
    scn = scenario_factory()
    g1 = np.linspace(0.1, 400.0, 41)
    for g2 in (0.5, 5.0, 50.0):
        vals = system.sndr(g1, g2, scn)
        assert np.all(np.diff(vals) > 0)
    g2 = np.linspace(0.1, 400.0, 41)
    for g1 in (0.5, 5.0, 50.0):
        vals = system.sndr(g1, g2, scn)
        assert np.all(np.diff(vals) > 0)
        # ceiling gamma1 / (kappa |b|^2) as gamma2 -> inf
        ceiling = g1 / (scn.kappa * scn.b_row_norm_sq)
        assert np.all(vals < ceiling)


def test_linear_family_is_kappa_one(scenario_factory):
    scn = scenario_factory(hpa_family="linear", ibo_db=None)
    assert scn.kappa == 1.0
    # the power-constrained gain, as for every other family
    assert scn.relay_g == math.sqrt(1.0 / (scn.trace_term * scn.gbar1 + 1.0))
    fixed = scenario_factory(hpa_family="linear", ibo_db=None,
                             gain_mode="fixed", fixed_gain=0.7)
    assert fixed.kappa == 1.0


# ---------------------------------------------------------------------------
# scenario assembly
# ---------------------------------------------------------------------------

def test_build_scenario_reproducible(scenario_factory):
    a = scenario_factory()
    b = scenario_factory()
    assert a.fingerprint() == b.fingerprint()
    assert a.describe() == b.describe()


def test_scenario_pipeline_shapes(layout, rf_params):
    feeder = fso_link.FeederConfig(
        2, make_atmosphere(1e-12), fso_link.PointingConfig(1.1))
    scn = system.build_scenario(
        feeder, layout, rf_params, LIGHT_SHADOWING,
        transponder.hpa_state("twta", 25.0), mu_r_db=40.0)
    assert scn.turbulence.alpha == pytest.approx(1.52, rel=0.03)
    assert scn.turbulence.beta == pytest.approx(3.29, rel=0.03)
    # physical user-link scale from the satellite power budget
    two_bm_om = 2 * 0.158 * 19 + 1.29
    expect = scn.hpa.sat_power_tx * scn.b_row_norm_sq * two_bm_om
    assert scn.gamma_bar2 == pytest.approx(expect, rel=1e-12)
    assert scn.gamma2_source == "physical"


def test_kappa_tracks_operating_point(scenario_factory):
    scn = scenario_factory(mu_r_db=30.0)
    hi = scn.at_mu_r_db(60.0)
    # the power-constrained relay gain shrinks and kappa grows with mu_r
    assert hi.relay_g < scn.relay_g
    assert hi.kappa > scn.kappa
    c = scn.hpa.sigma_nl_sq / scn.hpa.k_gain ** 2
    expect = 1.0 + c * (scn.trace_term * scn.gbar1 + 1.0)
    assert scn.kappa == pytest.approx(expect, rel=1e-12)
    # fixed-gain mode reproduces the plain ratio
    fixed = scenario_factory(gain_mode="fixed", fixed_gain=1.0)
    assert fixed.kappa == pytest.approx(
        1.0 + fixed.hpa.sigma_nl_sq / fixed.hpa.k_gain ** 2, rel=1e-12)


def test_scenario_describe_records_defaults(scenario_factory):
    scn = scenario_factory()
    d = scn.describe()
    assert d["layout.user_positions"] is None
    assert d["feeder.atmosphere.cn2_ground"] == 1e-12
    assert d["hpa.family"] == "twta"
    assert d["hpa.k_gain"] == scn.hpa.k_gain
    assert d["gain_mode"] == "power_constrained"
    assert d["gamma2_source"] == "explicit"
    assert d["gamma_bar2"] == CALIBRATED_GAMMA_BAR2


def test_fingerprint_tells_swapped_antenna_gains_apart(scenario_factory, rf_params):
    # the gain matrix reads only the product of the two antenna gains, so
    # swapping them changes no derived value, yet the scenarios differ
    scn = scenario_factory()
    swapped = dataclasses.replace(scn, rf=dataclasses.replace(
        rf_params, gain_tx=rf_params.gain_rx, gain_rx=rf_params.gain_tx))
    assert swapped.b_row_norm_sq == pytest.approx(scn.b_row_norm_sq, rel=1e-12)
    assert swapped != scn
    assert swapped.describe()["rf.gain_tx"] == rf_params.gain_rx
    assert swapped.fingerprint() != scn.fingerprint()


def test_with_gamma_bar2_and_hpa_swap(scenario_factory):
    scn = scenario_factory()
    swapped = dataclasses.replace(scn, hpa=transponder.hpa_state("sspa", 25.0))
    assert swapped.hpa.family == "sspa"
    assert swapped.kappa < scn.kappa      # limiter distorts less
    relabeled = scn.with_gamma_bar2(123.0)
    assert relabeled.gamma_bar2 == 123.0
    assert relabeled.gamma2_source == "explicit"


@pytest.mark.parametrize("gamma_bar2", [None, CALIBRATED_GAMMA_BAR2],
                         ids=["physical", "explicit"])
@pytest.mark.parametrize("family", ["twta", "sspa", "linear"])
def test_clone_equals_build(scenario_factory, family, gamma_bar2):
    # every clone re-derives what its changed input affects, so it matches a
    # scenario built directly from the same inputs
    other = {"twta": "sspa", "sspa": "linear", "linear": "twta"}[family]
    scn = scenario_factory(hpa_family=family, ibo_db=3.0, mu_r_db=30.0,
                           gamma_bar2=gamma_bar2)
    direct = scenario_factory(hpa_family=family, ibo_db=3.0, mu_r_db=60.0,
                              gamma_bar2=gamma_bar2)
    assert scn.at_mu_r_db(60.0).fingerprint() == direct.fingerprint()
    swapped = dataclasses.replace(scn, hpa=transponder.hpa_state(other, 3.0))
    direct = scenario_factory(hpa_family=other, ibo_db=3.0, mu_r_db=30.0,
                              gamma_bar2=gamma_bar2)
    assert swapped.fingerprint() == direct.fingerprint()
    direct = scenario_factory(hpa_family=family, ibo_db=3.0, mu_r_db=30.0,
                              gamma_bar2=123.0)
    assert scn.with_gamma_bar2(123.0).fingerprint() == direct.fingerprint()


def test_scenario_equality_and_hash(scenario_factory):
    # a clone and a direct build at the same operating point compare and
    # hash alike
    scn = scenario_factory(mu_r_db=30.0)
    direct = scenario_factory(mu_r_db=40.0)
    clone = scn.at_mu_r_db(40.0)
    assert clone == direct
    assert hash(clone) == hash(direct)
    assert len({clone, direct}) == 1
    assert clone != scn
    assert scn.at_mu_r_db(40.0) != scn.at_mu_r_db(41.0)
    assert clone.fingerprint() == direct.fingerprint()
    assert clone.describe() == direct.describe()


def test_p_g_sets_only_c_zf(scenario_factory):
    # the zero-forcing budget scales only the reported precoder constant
    # c_zf = p_g / tr[(B B^H)^-1]; the metrics see the feeder through mu_r
    scn = scenario_factory(gamma_bar2=None)
    doubled = scenario_factory(gamma_bar2=None, p_g=2.0)
    assert doubled.c_zf == pytest.approx(2.0 * scn.c_zf, rel=1e-15)
    for name in ("mu_r", "gbar1", "relay_g", "kappa", "noise_amp_c",
                 "b_row_norm_sq", "gamma_bar2"):
        assert getattr(doubled, name) == getattr(scn, name), name
    with pytest.raises(ValueError, match="p_g"):
        scenario_factory(p_g=math.nan)


def test_mu_r_db_past_overflow_is_named(scenario_factory):
    with pytest.raises(ValueError, match="mu_r_db = 4000"):
        scenario_factory(mu_r_db=4000.0)
    with pytest.raises(ValueError, match="mu_r_db = 4000"):
        scenario_factory().at_mu_r_db(4000.0)


@pytest.mark.parametrize("user_index", [7, -1])
def test_user_index_out_of_range(scenario_factory, user_index):
    with pytest.raises(ValueError, match=r"\[0, 7\)"):
        scenario_factory(user_index=user_index)


def test_clones_build_no_gain_matrix(scenario_factory, monkeypatch):
    # tr[(B B^H)^-1] and the row norms depend on (layout, rf) alone
    scn = scenario_factory()
    calls = []
    gain = rf_link.beam_gain_matrix

    def counted(*args):
        calls.append(args)
        return gain(*args)

    monkeypatch.setattr(rf_link, "beam_gain_matrix", counted)
    clone = scn.with_gamma_bar2(1e8).at_mu_r_db(60.0)
    assert calls == []
    b = gain(scn.layout, scn.rf)
    assert clone.trace_term == system.trace_bbh_inv(b)
    assert clone.b_row_norm_sq == float(b[0] @ b[0])


def test_rank_deficient_layout_raises_on_every_build(scenario_factory):
    # an exception is never cached: the second build checks B again
    scn = scenario_factory()
    stacked = dataclasses.replace(scn.layout, user_positions=((0.0, 0.0),) * 7)
    for _ in range(2):
        with pytest.raises(system.RankDeficientError):
            dataclasses.replace(scn, layout=stacked)
