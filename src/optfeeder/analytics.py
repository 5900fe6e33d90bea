"""Closed-form and asymptotic performance metrics of the forward link.

The distribution of the end-to-end SNDR admits an exact representation as a
finite double sum of two-variable Meijer G terms; outage, average BER, and
ergodic capacity all reduce to the same family with different t-side blocks
and arguments.  An independent single-integral form (complementary user-link
CDF against the feeder density) serves as the numerical oracle for the
closed forms, and simple four-term expansions cover the high-SNR regime.

Sum handling: for integer severity m the k-sum weights are binomial and
positive, so the (k, j) double sum is regrouped as one weight per j, and
the closed forms, the moments and the expansions all share these per-j
weights.  Only the s-side gamma Gamma(j - s) changes with j, and
Gamma(j - s) = Gamma(-s) (-s)_j, so the evaluator integrates the whole
weighted sum at once, with the Pochhammer polynomial sum_j w_j (-s)_j on
the s-side.  A moment is the feeder moment E[gamma_1^n] times the user-link
sum over j.  The moments and the expansions, which sum their terms one by
one, use compensated summation because the term magnitudes span many orders.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Literal

import numpy as np
import scipy.special as sp
from scipy.optimize import brentq

from . import fso_link, rf_link, specfun
from .system import ScenarioConfig

_REL_TOL = 1e-9         # closed-form CDF, BER and capacity families
_PDF_REL_TOL = 1e-7     # closed-form density
_ORACLE_ABS_TOL = 1e-8  # oracle integral, absolute
EPS_PERTURB = 1e-6      # joint parameter shift of the expansion at a coincidence


@dataclass(frozen=True)
class ModulationSpec:
    """Conditional-BER parameters (delta, p, q_u, n) of one modulation."""
    name: str
    delta: float
    p: float
    q_values: tuple[float, ...]
    detection: Literal["imdd", "heterodyne"]

    @property
    def n_terms(self) -> int:
        return len(self.q_values)

    @property
    def detection_r(self) -> int:
        return 2 if self.detection == "imdd" else 1

    @property
    def ber_ceiling(self) -> float:
        return 0.5 * self.delta * self.n_terms


def modulation(name: str, order: int | None = None) -> ModulationSpec:
    """Parameter table: OOK (IM/DD), BPSK / M-PSK / M-QAM (heterodyne)."""
    key = name.lower()
    if key == "ook":
        return ModulationSpec("OOK", 1.0, 0.5, (0.5,), "imdd")
    if key == "bpsk":
        return ModulationSpec("BPSK", 1.0, 0.5, (1.0,), "heterodyne")
    if order is None:
        raise ValueError(f"{name} needs a constellation order")
    m_ord = int(order)
    if key == "mpsk":
        n = max(m_ord // 4, 1)
        delta = 2.0 / max(math.log2(m_ord), 2.0)
        q = tuple(math.sin((2 * u - 1) * math.pi / m_ord) ** 2 for u in range(1, n + 1))
        return ModulationSpec(f"{m_ord}-PSK", delta, 0.5, q, "heterodyne")
    if key == "mqam":
        n = int(round(math.sqrt(m_ord))) // 2
        delta = 4.0 / math.log2(m_ord) * (1.0 - 1.0 / math.sqrt(m_ord))
        q = tuple(3.0 * (2 * u - 1) ** 2 / (2.0 * (m_ord - 1)) for u in range(1, n + 1))
        return ModulationSpec(f"{m_ord}-QAM", delta, 0.5, q, "heterodyne")
    raise ValueError(f"unknown modulation {name!r}")


def check_detection(mod: ModulationSpec, scn: ScenarioConfig):
    """ValueError unless the modulation suits the scenario's detection type."""
    if mod.detection_r != scn.detection_r:
        raise ValueError(
            f"{mod.name} requires detection r={mod.detection_r}, "
            f"scenario uses r={scn.detection_r}")


def capacity_tau(scn: ScenarioConfig) -> float:
    """tau of log2(1 + tau gamma): e/(2 pi) under IM/DD, 1 under heterodyne."""
    return math.e / (2.0 * math.pi) if scn.detection_r == 2 else 1.0


# ---------------------------------------------------------------------------
# shared assembly pieces
# ---------------------------------------------------------------------------

def _sum_weights(shadow: rf_link.ShadowedRicianParams) -> np.ndarray:
    """Per-j weight after regrouping the (k, j) double sum.

    w_j = (1/j!) sum_{k=j}^{m-1} C(m-1, k) (Omega/(2bm))^k; the binomial
    form of (-1)^k (1-m)_k / k! makes every weight positive.
    """
    coeffs = rf_link.series_coeffs(shadow).tolist()
    weights = np.empty(len(coeffs))
    partial = 0.0
    for j in range(len(coeffs) - 1, -1, -1):
        partial += coeffs[j]
        weights[j] = partial / math.factorial(j)
    return weights


def _prefactor(scn: ScenarioConfig) -> float:
    al, be = scn.turbulence.alpha, scn.turbulence.beta
    xi2 = scn.feeder.pointing.xi ** 2
    r = scn.detection_r
    m = scn.shadowing.m_int
    return (xi2 * r ** (al + be - 2.0)
            / (sp.gamma(al) * sp.gamma(be) * (2.0 * math.pi) ** (r - 1))
            * scn.shadowing.power_ratio ** (m - 1))


def _x1(scn: ScenarioConfig) -> float:
    return scn.noise_amp_c * scn.shadowing.m / (scn.kappa * scn.gamma_bar2)


def _x2_base(scn: ScenarioConfig) -> float:
    """r^{2r} (xi^2+1)^r mu_r / ((al be xi^2)^r kappa |b|^2); divide by x
    for the distribution arguments, multiply by q_u or tau for the others."""
    al, be = scn.turbulence.alpha, scn.turbulence.beta
    xi2 = scn.feeder.pointing.xi ** 2
    r = scn.detection_r
    return (r ** (2 * r) * (xi2 + 1.0) ** r * scn.mu_r
            / ((al * be * xi2) ** r * scn.kappa * scn.b_row_norm_sq))


def _family_total(scn: ScenarioConfig, x2: float, rel_tol: float,
                  out_scale: float, top: tuple[float, ...] = (),
                  bottom: tuple[float, ...] = (),
                  last: float = 0.0) -> tuple[float, float]:
    """Weighted sum of the shared-kernel G terms of one metric.

    The t-block is the metric's own upper parameters ``top`` (numerator
    gammas), lower parameters ``bottom`` (right poles) and final reciprocal
    parameter ``last``, around the duplication-split feeder gammas.
    ``out_scale`` is the prefactor the caller will multiply the total by;
    the absolute convergence floor is set so the assembled metric carries
    roughly ``rel_tol`` absolute error even when the total underflows.
    """
    al, be = scn.turbulence.alpha, scn.turbulence.beta
    xi2 = scn.feeder.pointing.xi ** 2
    r = scn.detection_r
    t_block = specfun.GBlock(
        a=(top + specfun.duplication_split(r, 1.0 - xi2)
           + specfun.duplication_split(r, 1.0 - al)
           + specfun.duplication_split(r, 1.0 - be)),
        b=bottom + specfun.duplication_split(r, -xi2) + (last,),
        m=len(bottom), n=len(top) + 3 * r)
    weights = _sum_weights(scn.shadowing)
    abs_tol = 0.5 * rel_tol / max(out_scale, 1e-300)
    x1 = _x1(scn)
    try:
        total, err, _ = specfun.meijer_g_bivariate_family(
            range(scn.shadowing.m_int), t_block, x1, x2,
            weights=weights, rel_tol=rel_tol, abs_tol=abs_tol)
    except (specfun.ConvergenceError, specfun.PoleCollisionError) as exc:
        raise type(exc)(
            f"{exc} (scenario {scn.fingerprint()}, shared-kernel family of "
            f"{scn.shadowing.m_int} terms, x1={x1:.6g}, x2={x2:.6g})") from exc
    return total, err


# ---------------------------------------------------------------------------
# distribution of the end-to-end SNDR
# ---------------------------------------------------------------------------

def sndr_cdf_exact(x: float, scn: ScenarioConfig) -> float:
    """CDF of the end-to-end SNDR from the bivariate closed form."""
    if x <= 0:
        raise ValueError("x must be positive")
    pref = _prefactor(scn)
    total, err = _family_total(scn, _x2_base(scn) / x, _REL_TOL, out_scale=pref)
    raw = 1.0 - pref * total
    clamped = min(max(raw, 0.0), 1.0)
    if abs(raw - clamped) > 1e-6:
        raise specfun.ConvergenceError(
            f"CDF value {raw} is out of [0,1] beyond tolerance at x={x}")
    return clamped


def sndr_pdf_exact(x: float, scn: ScenarioConfig) -> float:
    """Density of the end-to-end SNDR (derivative of the closed-form CDF)."""
    if x <= 0:
        raise ValueError("x must be positive")
    pref = _prefactor(scn) / x
    total, _ = _family_total(scn, _x2_base(scn) / x, _PDF_REL_TOL,
                             out_scale=pref, last=1.0)
    return max(pref * total, 0.0)


def sndr_moments(order: int, scn: ScenarioConfig) -> float:
    """n-th moment of the end-to-end SNDR in terms of a single G function."""
    if order < 1 or order != int(order):
        raise ValueError("moment order must be a positive integer")
    n = int(order)
    x1 = _x1(scn)
    # gamma_1 and gamma_2 are independent: E[gamma_1^n] times the user-link sum
    g1_moment = fso_link.gamma1_moment(n, scn.detection_r, scn.turbulence,
                                       scn.feeder.pointing, scn.mu_r)
    pref = (g1_moment / ((scn.kappa * scn.b_row_norm_sq) ** n * sp.gamma(n))
            * scn.shadowing.power_ratio ** (scn.shadowing.m_int - 1))
    terms = [w_j * specfun.meijer_g_2_1_1_2(x1, 1.0 - n, float(j), 1.0)
             for j, w_j in enumerate(_sum_weights(scn.shadowing))]
    return float(pref * math.fsum(terms))


def sndr_cdf_oracle(x: float, scn: ScenarioConfig) -> float:
    """Single-integral CDF, independent of the bivariate machinery.

    F(x) = 1 - int_0^inf  ccdf_g2(C X / z) f_g1(kappa X + z) dz,  X = |b|^2 x,
    integrated by :func:`specfun.gauss_panels` on 120 geometric panels that
    bracket both links' scales, each to an absolute tolerance of
    ``_ORACLE_ABS_TOL / 121``; each refinement level evaluates the densities
    of all its panels in one batch.
    """
    if x <= 0:
        raise ValueError("x must be positive")
    cap_x = scn.b_row_norm_sq * x
    c_over_g2 = scn.noise_amp_c * cap_x / scn.gamma_bar2
    shift = scn.kappa * cap_x
    turb, point = scn.turbulence, scn.feeder.pointing
    r = scn.detection_r

    def integrand(z):
        cc = rf_link.gamma2_ccdf(scn.noise_amp_c * cap_x / z, scn.shadowing,
                                 scn.gamma_bar2)
        fg = fso_link.gamma1_pdf(shift + z, r, turb, point, scn.mu_r)
        return cc * fg

    # panel edges must bracket both active scales: the user-link transition
    # (z ~ C X / gbar2) and the feeder density support (z ~ mu_r); the upper
    # end stops where the feeder density tail has fallen below relevance
    al, be = turb.alpha, turb.beta
    xi2 = point.xi ** 2
    w_density = al * be * xi2 / (xi2 + 1.0)
    gamma1_cut = scn.mu_r * (1e4 / w_density) ** r
    anchors = [c_over_g2, scn.mu_r, shift + scn.mu_r]
    lo = min(anchors) * 1e-10
    hi = max(gamma1_cut, 1e4 * c_over_g2)
    edges = np.geomspace(max(lo, 1e-280), hi, 121)
    tol = max(_ORACLE_ABS_TOL / len(edges), 1e-13)
    integral = specfun.gauss_panels(integrand, edges, tol)
    return min(max(1.0 - integral, 0.0), 1.0)


# ---------------------------------------------------------------------------
# performance metrics
# ---------------------------------------------------------------------------

def outage_exact(gamma_th: float, scn: ScenarioConfig) -> float:
    """Probability that the SNDR falls below the threshold."""
    return sndr_cdf_exact(gamma_th, scn)


def ber_exact(mod: ModulationSpec, scn: ScenarioConfig) -> float:
    """Average BER of the served user for one Gray-coded modulation."""
    check_detection(mod, scn)
    x2b = _x2_base(scn)
    pref = (mod.delta / (2.0 * sp.gamma(mod.p))) * _prefactor(scn)
    acc = []
    for q_u in mod.q_values:
        total, _ = _family_total(scn, q_u * x2b, _REL_TOL, out_scale=pref,
                                 bottom=(mod.p,))
        acc.append(total)
    value = mod.ber_ceiling - pref * math.fsum(acc)
    if not (-1e-6 <= value <= mod.ber_ceiling + 1e-6):
        raise specfun.ConvergenceError(f"BER {value} escapes [0, delta n/2]")
    return min(max(value, 0.0), mod.ber_ceiling)


def capacity_exact(scn: ScenarioConfig) -> float:
    """Ergodic capacity in bits per channel use.

    Exact under heterodyne detection; a lower bound under IM/DD (the
    expectation E[log2(1 + tau gamma)] with tau = e/(2 pi)).
    """
    pref = _prefactor(scn) / math.log(2.0)
    total, _ = _family_total(scn, capacity_tau(scn) * _x2_base(scn), _REL_TOL,
                             out_scale=pref, top=(1.0,), bottom=(1.0,))
    value = pref * total
    if value < -1e-9:
        raise specfun.ConvergenceError(f"negative capacity {value}")
    return max(value, 0.0)


# ---------------------------------------------------------------------------
# high-SNR expansions
# ---------------------------------------------------------------------------

def _collides(xi2, al, be, r) -> bool:
    """True when some expansion gamma or denominator sits on a pole: each of
    them is an integer plus one of these nine values."""
    risky = (al - be, xi2 - al, xi2 - be, xi2, al, be, xi2 / r, al / r, be / r)
    return any(abs(v - round(v)) < specfun.COLLIDE_TOL for v in risky)


def _asymptotic_sum(scn: ScenarioConfig, exponent_weight) -> float:
    """Common core of the high-SNR expansions.

    ``exponent_weight(theta)`` supplies the factor multiplying each term
    beyond (1/mu_r)^theta: outage uses gamma_th^theta, the average BER uses
    Gamma(p + theta) sum_u q_u^(-theta) * delta/(2 Gamma(p)).

    Integer coincidences among (xi^2, alpha, beta, r j) degenerate the
    expansion's residues (the true limits carry logarithmic corrections the
    printed coefficients omit).  The three channel parameters are then
    perturbed jointly so evaluation survives, and a RuntimeWarning marks
    the result as indicative; away from exact coincidences no perturbation
    occurs and the expansion is quantitative.
    """
    al, be = scn.turbulence.alpha, scn.turbulence.beta
    xi2 = scn.feeder.pointing.xi ** 2
    r = scn.detection_r
    m = scn.shadowing.m_int
    if _collides(xi2, al, be, r):
        for k in range(1, 4):
            xi2 = scn.feeder.pointing.xi ** 2 + k * EPS_PERTURB
            al = scn.turbulence.alpha + 2 * k * EPS_PERTURB
            be = scn.turbulence.beta + 3 * k * EPS_PERTURB
            if not _collides(xi2, al, be, r):
                break
        else:
            raise specfun.PoleCollisionError(
                "could not separate expansion poles by joint perturbation")
        warnings.warn(
            "channel parameters sit on an integer coincidence; the high-SNR "
            "expansion omits the logarithmic corrections of that degenerate "
            "case, so the perturbed value is indicative only (the exact and "
            "oracle paths remain valid)", RuntimeWarning, stacklevel=3)
    x1 = _x1(scn)
    a_const = r ** (2 * r) * scn.mu_r / _x2_base(scn)

    theta_tail = {"xi": xi2 / r, "al": al / r, "be": be / r}
    lead = {
        "xi": sp.gamma(al - xi2) * sp.gamma(be - xi2) / r,
        "al": sp.gamma(be - al) / r * (1.0 / (xi2 - al)),
        "be": sp.gamma(al - be) / r * (1.0 / (xi2 - be)),
    }

    # the (k, j) double sum regrouped: term j carries the shared weight w_j
    total = []
    for j, w_j in enumerate(_sum_weights(scn.shadowing)):
        # J1: exponent j
        j1 = (sp.gamma(al - r * j) * sp.gamma(be - r * j)
              * (1.0 / (xi2 - r * j)) * (x1 * a_const) ** j)
        total.append(w_j * j1 * exponent_weight(float(j)) / scn.mu_r ** j)
        # J2..J4: exponents xi^2/r, al/r, be/r
        for key, theta in theta_tail.items():
            g212 = specfun.meijer_g_2_1_1_2(x1, 1.0 + theta, float(j), 1.0)
            bracket = sp.gamma(j - theta) * x1 ** theta + g212 / sp.gamma(1.0 - theta)
            total.append(w_j * lead[key] * a_const ** theta * bracket
                         * exponent_weight(theta) / scn.mu_r ** theta)
    pref = xi2 / (sp.gamma(al) * sp.gamma(be)) * scn.shadowing.power_ratio ** (m - 1)
    return pref * math.fsum(total)


def outage_asymptotic(gamma_th: float, scn: ScenarioConfig) -> float:
    """Four-exponent high-SNR expansion of the outage probability.

    Accurate only at large mu_r; values are reported unclamped so the
    low-SNR breakdown of the expansion stays visible.
    """
    if gamma_th <= 0:
        raise ValueError("threshold must be positive")
    return 1.0 - _asymptotic_sum(scn, lambda th: gamma_th ** th)


def ber_asymptotic(mod: ModulationSpec, scn: ScenarioConfig) -> float:
    """High-SNR expansion of the average BER (unclamped, like outage)."""
    check_detection(mod, scn)

    def weight(theta):
        qsum = math.fsum(q ** (-theta) for q in mod.q_values)
        return sp.gamma(mod.p + theta) * qsum * mod.delta / (2.0 * sp.gamma(mod.p))

    return mod.ber_ceiling - _asymptotic_sum(scn, weight)


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def fit_gamma_bar2(scn: ScenarioConfig, target_outage: float, gamma_th: float,
                   lo: float = 1e-2, hi: float = 1e14) -> float:
    """One-scalar fit of the user-link SNR scale to a reference outage value.

    The outage is monotone decreasing and smooth in ln gamma_bar2 at fixed
    everything else, so Brent's method on the bracket [lo, hi] finds the
    root in about ten evaluations.  It stops once ln gamma_bar2 is known to
    the closed form's relative tolerance, which moves the fitted outage by
    far less than its own error.  The fitted value is meant to be frozen
    into a documented configuration afterwards.
    """
    if not (0.0 < target_outage < 1.0):
        raise ValueError("target outage must lie in (0, 1)")
    f_lo = outage_exact(gamma_th, scn.with_gamma_bar2(lo))
    f_hi = outage_exact(gamma_th, scn.with_gamma_bar2(hi))
    if not (f_hi <= target_outage <= f_lo):
        raise ValueError(
            f"target {target_outage} outside attainable range [{f_hi}, {f_lo}]")
    # the bracket ends are already known; brentq starts by asking for them
    known = {math.log(lo): f_lo - target_outage, math.log(hi): f_hi - target_outage}

    def excess(log_g):
        if log_g in known:
            return known[log_g]
        return outage_exact(gamma_th, scn.with_gamma_bar2(math.exp(log_g))) - target_outage

    return math.exp(brentq(excess, math.log(lo), math.log(hi), xtol=_REL_TOL))
