"""Closed-form, oracle and asymptotic performance metrics of the forward link.

Outage, average BER and ergodic capacity are each a weighted sum of E[h] for
one Meijer-G kernel h of the end-to-end SNDR, whose row in ``KERNELS`` every
method reads: the exact finite double sum of two-variable Meijer G terms (the
row's t-block), an independent single integral (the feeder expectation
averaged over the user-link SNR) as the oracle, and four-term expansions for
the high-SNR regime.  All of them read each link's law from one record built
once per scenario: :class:`fso_link.FeederLaw` (``scn.feeder_law``; the
expansion builds a perturbed one at a coincidence) and :class:`rf_link.UserLaw`
(``scn.user_law``).

Sum handling: for integer severity m the k-sum weights are binomial and
positive, so the (k, j) double sum is regrouped as one weight per j.  The
closed forms and the expansions share these per-j weights, which come from
``scn.user_law.weights``, and the shadowing prefactor ``scn.user_law.lead``.
Only the s-side gamma Gamma(j - s) changes with j, and Gamma(j - s) =
Gamma(-s) (-s)_j, so the evaluator integrates the whole weighted sum at once,
with the Pochhammer polynomial sum_j w_j (-s)_j on the s-side.  The links are
independent and the SNDR is a(gamma_2) gamma_1, so one gamma_2 quadrature
serves a moment, times E[gamma_1^n] in closed form, and each oracle, of the
feeder expectation in closed form.  The expansions, which sum their terms one
by one, use compensated summation because the term magnitudes span many orders.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import fso_link, rf_link, specfun, system
from .system import ScenarioConfig

_REL_TOL = 1e-9         # closed-form CDF, BER and capacity families
_PDF_REL_TOL = 1e-7     # closed-form density
_ORACLE_ABS_TOL = 1e-8  # oracle integral, absolute
EPS_PERTURB = 1e-6      # joint parameter shift of the expansion at a coincidence


# p of the conditional BER delta/(2 Gamma(p)) sum_u Gamma(p, q_u gamma), Gamma(p, u) =
# G^{2,0}_{1,2}(u | 1; p, 0): Gamma(1/2, q gamma)/Gamma(1/2) = erfc(sqrt(q gamma)), which
# the Monte Carlo path averages.  The capacity is E[ln(1 + tau gamma)]/ln 2, ln(1 + u) =
# G^{1,2}_{2,2}(u | 1, 1; 1, 0).  Both approach h(0+) only algebraically, so they read it
# 10x further out (at 2e5, 1.1e-12 from no cutoff on the heterodyne 16-QAM BER oracle)
BER_P = 0.5
KERNELS = {
    "outage": fso_link.STEP_KERNEL,
    "density": fso_link.DELTA_KERNEL,
    "ber": fso_link.Kernel(((1.0,), (BER_P, 0.0), 2, 0), specfun.gamma(BER_P), 1.0,
                           ((), (BER_P,), 0.0), lambda th: specfun.gamma(BER_P + th), cutoff=2e6),
    "capacity": fso_link.Kernel(((1.0, 1.0), (1.0, 0.0), 1, 2), 0.0, -1.0, ((1.0,), (1.0,), 0.0),
                                lambda th: math.pi / math.sin(math.pi * th), cutoff=2e6),
}


@dataclass(frozen=True)
class ModulationSpec:
    """Conditional-BER parameters (delta, q_u, n) of one modulation and the
    detection r it needs (2 IM/DD, 1 heterodyne)."""
    name: str
    delta: float
    q_values: tuple[float, ...]
    detection_r: int

    @property
    def n_terms(self) -> int:
        return len(self.q_values)

    @property
    def ber_ceiling(self) -> float:
        return 0.5 * self.delta * self.n_terms


def modulation(name: str, order: int | None = None) -> ModulationSpec:
    """Parameter table: OOK (IM/DD), BPSK / M-PSK / M-QAM (heterodyne)."""
    key = name.lower()
    if key == "ook":
        return ModulationSpec("OOK", 1.0, (0.5,), 2)
    if key == "bpsk":
        return ModulationSpec("BPSK", 1.0, (1.0,), 1)
    if order is None:
        raise ValueError(f"{name} needs a constellation order")
    m_ord = int(order)
    # the tables below cover M-PSK for M = 2^k and square M-QAM, M = 4^k
    power_of_two = m_ord >= 2 and m_ord & (m_ord - 1) == 0
    if key == "mpsk" and not power_of_two:
        raise ValueError(f"M-PSK needs an order 2, 4, 8, ..., not {order}")
    if key == "mqam" and not (power_of_two and m_ord.bit_length() % 2 == 1):
        raise ValueError(f"M-QAM needs an order 4, 16, 64, ..., not {order}")
    if key == "mpsk":
        n = max(m_ord // 4, 1)
        delta = 2.0 / max(math.log2(m_ord), 2.0)
        q = tuple(math.sin((2 * u - 1) * math.pi / m_ord) ** 2 for u in range(1, n + 1))
        return ModulationSpec(f"{m_ord}-PSK", delta, q, 1)
    if key == "mqam":
        n = int(round(math.sqrt(m_ord))) // 2
        delta = 4.0 / math.log2(m_ord) * (1.0 - 1.0 / math.sqrt(m_ord))
        q = tuple(3.0 * (2 * u - 1) ** 2 / (2.0 * (m_ord - 1)) for u in range(1, n + 1))
        return ModulationSpec(f"{m_ord}-QAM", delta, q, 1)
    raise ValueError(f"unknown modulation {name!r}")


def check_detection(mod: ModulationSpec, scn: ScenarioConfig):
    """ValueError unless the modulation suits the scenario's detection type."""
    if mod.detection_r != scn.detection_r:
        raise ValueError(
            f"{mod.name} requires detection r={mod.detection_r}, "
            f"scenario uses r={scn.detection_r}")


def check_moment_order(order) -> int:
    """order as an int, or a ValueError unless it is a positive integer."""
    if not (order >= 1 and float(order).is_integer()):     # NaN fails too
        raise ValueError(f"moment order must be a positive integer, not {order}")
    return int(order)


def capacity_tau(scn: ScenarioConfig) -> float:
    """tau of log2(1 + tau gamma): e/(2 pi) under IM/DD, 1 under heterodyne."""
    return math.e / (2.0 * math.pi) if scn.detection_r == 2 else 1.0


# ---------------------------------------------------------------------------
# shared assembly pieces
# ---------------------------------------------------------------------------

def _prefactor(scn: ScenarioConfig) -> float:
    law = scn.feeder_law
    return (law.xi2 * law.r ** (law.alpha + law.beta - 2.0)
            / (law.gamma_alpha * law.gamma_beta * (2.0 * math.pi) ** (law.r - 1))
            * scn.user_law.lead)


def _x1(scn: ScenarioConfig) -> float:
    return scn.noise_amp_c * scn.user_law.m / (scn.kappa * scn.gamma_bar2)


def _x2_base(scn: ScenarioConfig) -> float:
    """r^{2r} (xi^2+1)^r mu_r / ((al be xi^2)^r kappa |b|^2); divide by x
    for the distribution arguments, multiply by q_u or tau for the others."""
    law = scn.feeder_law
    return (law.r ** (2 * law.r) * (law.xi2 + 1.0) ** law.r * scn.mu_r
            / (law.abx ** law.r * scn.kappa * scn.b_row_norm_sq))


def _expectation_exact(kernel: fso_link.Kernel, scn: ScenarioConfig, pref: float, x2s,
                       rel_tol: float = _REL_TOL, ceiling: float | None = None) -> float:
    """Closed form of a weighted sum of E[h], unclamped: ceiling - sign pref
    sum_u T(x2_u), T the shared-kernel family of the row's t-block around the
    duplication-split feeder gammas.  ``pref`` is the weight times
    :func:`_prefactor`, ``ceiling`` the weighted sum of h(0+) (h0 by default);
    the absolute floor keeps the metric's error near ``rel_tol`` when T underflows."""
    law, (top, bottom, last) = scn.feeder_law, kernel.t_block
    t_block = specfun.GBlock(a=top + law.t_upper, b=bottom + law.t_lower + (last,),
                             m=len(bottom), n=len(top) + len(law.t_upper))
    abs_tol = 0.5 * rel_tol / max(pref, 1e-300)
    x1, acc = _x1(scn), []
    for x2 in x2s:
        try:
            total, _, _ = specfun.meijer_g_bivariate_family(
                scn.user_law.weights, t_block, x1, x2, rel_tol=rel_tol, abs_tol=abs_tol)
        except (specfun.ConvergenceError, specfun.PoleCollisionError) as exc:
            raise type(exc)(
                f"{exc} (scenario {scn.fingerprint()}, shared-kernel family of "
                f"{scn.user_law.m} terms, x1={x1:.6g}, x2={x2:.6g})") from exc
        acc.append(total)
    return (kernel.h0 if ceiling is None else ceiling) - kernel.sign * pref * math.fsum(acc)


# ---------------------------------------------------------------------------
# distribution of the end-to-end SNDR
# ---------------------------------------------------------------------------

def sndr_cdf_exact(x: float, scn: ScenarioConfig) -> float:
    """CDF of the end-to-end SNDR from the bivariate closed form."""
    if not x > 0:     # NaN fails too
        raise ValueError(f"x must be positive, not {x}")
    raw = _expectation_exact(KERNELS["outage"], scn, _prefactor(scn), (_x2_base(scn) / x,))
    clamped = min(max(raw, 0.0), 1.0)
    if abs(raw - clamped) > 1e-6:
        raise specfun.ConvergenceError(
            f"CDF value {raw} is out of [0,1] beyond tolerance at x={x}")
    return clamped


def sndr_pdf_exact(x: float, scn: ScenarioConfig) -> float:
    """Density of the end-to-end SNDR (derivative of the closed-form CDF)."""
    if not x > 0:     # NaN fails too
        raise ValueError(f"x must be positive, not {x}")
    return max(_expectation_exact(KERNELS["density"], scn, _prefactor(scn) / x,
                                  (_x2_base(scn) / x,), _PDF_REL_TOL), 0.0)


def _gamma2_expectation(h, scn: ScenarioConfig, abs_tol: float) -> float:
    """E[h(gamma_2)] of the vectorized h, to ``abs_tol`` absolute: one unit
    Gauss panel per e-fold of v = ln(gamma_2/gbar2) on [-60, 6]."""
    # in v the density t f(t; 1) cannot overflow or go subnormal; past
    # 2^60 C/kappa, sndr(1, gamma_2) = 1/(|b|^2 kappa) to double precision, so
    # gamma_2 stops there and kappa gamma_2 stays finite
    ln_gbar2 = math.log(scn.gamma_bar2)
    ln_g2_max = math.log(2.0 ** 60 * scn.noise_amp_c / scn.kappa)

    def integrand(v):
        t = np.exp(v)
        g2 = np.exp(np.minimum(v + ln_gbar2, ln_g2_max))
        return t * rf_link.gamma2_pdf(t, scn.user_law, 1.0) * h(g2)

    edges = np.arange(-60.0, 7.0)
    return specfun.gauss_panels(integrand, edges, abs_tol / (len(edges) - 1))


def sndr_moments(order: int, scn: ScenarioConfig) -> float:
    """n-th moment of the end-to-end SNDR: E[gamma_1^n] in closed form times
    E[a(gamma_2)^n], a(g) = sndr(1, g) < (|b|^2 kappa)^-1."""
    n = check_moment_order(order)
    tol = 1e-15 / (scn.b_row_norm_sq * scn.kappa) ** n
    return fso_link.gamma1_moment(n, scn.feeder_law, scn.mu_r) * _gamma2_expectation(
        lambda g2: system.sndr(1.0, g2, scn) ** n, scn, tol)


def _expectation_oracle(kernel: fso_link.Kernel, scn: ScenarioConfig, scales,
                        weight: float, ceiling: float) -> float:
    """Single integral of a weighted sum of E[h], clamped to [0, ceiling]: weight
    sum_u E[feeder_expectation(scales[u] / a(gamma_2))], a(g) = sndr(1, g), to
    ``_ORACLE_ABS_TOL``.  It subtracts nothing and calls no bivariate engine."""
    def inner(g2):
        a = system.sndr(1.0, g2, scn)
        with np.errstate(divide="ignore", over="ignore"):     # a = 0: y = inf reads h0
            ys = [c / a for c in scales]
        return sum(fso_link.feeder_expectation(kernel, scn.feeder_law, scn.mu_r, y) for y in ys)

    value = weight * _gamma2_expectation(inner, scn, _ORACLE_ABS_TOL / weight)
    return min(max(value, 0.0), ceiling)


def sndr_cdf_oracle(x: float, scn: ScenarioConfig) -> float:
    """Single-integral CDF: F(x) = E[F_g1(x / a(gamma_2))], the step row."""
    if not x > 0:     # NaN fails too
        raise ValueError(f"x must be positive, not {x}")
    return _expectation_oracle(KERNELS["outage"], scn, (x,), 1.0, 1.0)


# ---------------------------------------------------------------------------
# performance metrics
# ---------------------------------------------------------------------------

def outage_exact(gamma_th: float, scn: ScenarioConfig) -> float:
    """Probability that the SNDR falls below the threshold."""
    return sndr_cdf_exact(gamma_th, scn)


def ber_exact(mod: ModulationSpec, scn: ScenarioConfig) -> float:
    """Average BER of the served user for one Gray-coded modulation."""
    check_detection(mod, scn)
    kernel, x2b = KERNELS["ber"], _x2_base(scn)
    value = _expectation_exact(kernel, scn, mod.delta / (2.0 * kernel.h0) * _prefactor(scn),
                               [q_u * x2b for q_u in mod.q_values], ceiling=mod.ber_ceiling)
    if not (-1e-6 <= value <= mod.ber_ceiling + 1e-6):
        raise specfun.ConvergenceError(f"BER {value} escapes [0, delta n/2]")
    return min(max(value, 0.0), mod.ber_ceiling)


def capacity_exact(scn: ScenarioConfig) -> float:
    """Ergodic capacity in bits per channel use.

    Exact under heterodyne detection; a lower bound under IM/DD (the
    expectation E[log2(1 + tau gamma)] with tau = e/(2 pi)).
    """
    value = _expectation_exact(KERNELS["capacity"], scn, _prefactor(scn) / math.log(2.0),
                               (capacity_tau(scn) * _x2_base(scn),))
    if value < -1e-9:
        raise specfun.ConvergenceError(f"negative capacity {value}")
    return max(value, 0.0)


def ber_oracle(mod: ModulationSpec, scn: ScenarioConfig) -> float:
    """Average BER as a single integral, y_u = 1/(q_u a(gamma_2))."""
    check_detection(mod, scn)
    return _expectation_oracle(KERNELS["ber"], scn, [1.0 / q_u for q_u in mod.q_values],
                               mod.delta / (2.0 * KERNELS["ber"].h0), mod.ber_ceiling)


def capacity_oracle(scn: ScenarioConfig) -> float:
    """Ergodic capacity as a single integral, y = 1/(tau a(gamma_2))."""
    return _expectation_oracle(KERNELS["capacity"], scn, (1.0 / capacity_tau(scn),),
                               1.0 / math.log(2.0), math.inf)


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
    beyond (1/mu_r)^theta, the row's theta M_h(theta) times gamma_th^theta for
    outage, times sum_u q_u^(-theta) delta/(2 Gamma(p)) for the average BER.

    Integer coincidences among (xi^2, alpha, beta, r j) degenerate the
    expansion's residues (the true limits carry logarithmic corrections the
    printed coefficients omit).  The three channel parameters are then
    perturbed jointly so evaluation survives, and a RuntimeWarning marks
    the result.  The perturbed value is not an estimate of the limit: at
    xi = 1 (heterodyne, mu_r = 50 dB, gamma_th = 5 dB on
    configs/outage_strong_turbulence.ini) it reads -1.346e3 where the exact
    outage is 5.35e-3 (ROADMAP item 3).  Away from exact coincidences no
    perturbation occurs and the expansion is quantitative.
    """
    law = base = scn.feeder_law
    user = scn.user_law
    if _collides(law.xi2, law.alpha, law.beta, law.r):
        for k in range(1, 4):
            law = fso_link.feeder_law(base.r, base.alpha + 2 * k * EPS_PERTURB,
                                      base.beta + 3 * k * EPS_PERTURB,
                                      base.xi2 + k * EPS_PERTURB)
            if not _collides(law.xi2, law.alpha, law.beta, law.r):
                break
        else:
            raise specfun.PoleCollisionError(
                "could not separate expansion poles by joint perturbation")
        warnings.warn(
            "channel parameters sit on an integer coincidence; the high-SNR "
            "expansion omits the logarithmic corrections of that degenerate "
            "case, so the perturbed value is indicative only (the exact and "
            "oracle paths remain valid)", RuntimeWarning, stacklevel=3)
    al, be, xi2, r = law.alpha, law.beta, law.xi2, law.r
    x1 = _x1(scn)
    a_const = r ** (2 * r) * scn.mu_r / _x2_base(scn)

    theta_tail = {"xi": xi2 / r, "al": al / r, "be": be / r}
    lead = {
        "xi": specfun.gamma(al - xi2) * specfun.gamma(be - xi2) / r,
        "al": specfun.gamma(be - al) / r * (1.0 / (xi2 - al)),
        "be": specfun.gamma(al - be) / r * (1.0 / (xi2 - be)),
    }

    # the (k, j) double sum regrouped: term j carries the shared weight w_j
    total = []
    for j, w_j in enumerate(user.weights):
        # J1: exponent j
        j1 = (specfun.gamma(al - r * j) * specfun.gamma(be - r * j)
              * (1.0 / (xi2 - r * j)) * (x1 * a_const) ** j)
        total.append(w_j * j1 * exponent_weight(float(j)) / scn.mu_r ** j)
        # J2..J4: exponents xi^2/r, al/r, be/r
        for key, theta in theta_tail.items():
            g212 = specfun.meijer_g_2_1_1_2(x1, 1.0 + theta, float(j), 1.0)
            bracket = specfun.gamma(j - theta) * x1 ** theta + g212 / specfun.gamma(1.0 - theta)
            total.append(w_j * lead[key] * a_const ** theta * bracket
                         * exponent_weight(theta) / scn.mu_r ** theta)
    pref = xi2 / (law.gamma_alpha * law.gamma_beta) * user.lead
    return pref * math.fsum(total)


def outage_asymptotic(gamma_th: float, scn: ScenarioConfig) -> float:
    """Four-exponent high-SNR expansion of the outage probability.

    Accurate only at large mu_r; values are reported unclamped so the
    low-SNR breakdown of the expansion stays visible.
    """
    if not gamma_th > 0:     # NaN fails too
        raise ValueError(f"threshold gamma_th must be positive, not {gamma_th}")
    return 1.0 - _asymptotic_sum(scn, lambda t: KERNELS["outage"].theta_mellin(t) * gamma_th ** t)


def ber_asymptotic(mod: ModulationSpec, scn: ScenarioConfig) -> float:
    """High-SNR expansion of the average BER (unclamped, like outage)."""
    check_detection(mod, scn)

    def weight(theta):
        qsum = math.fsum(q ** (-theta) for q in mod.q_values)
        return KERNELS["ber"].theta_mellin(theta) * qsum * mod.delta / (2.0 * KERNELS["ber"].h0)

    return mod.ber_ceiling - _asymptotic_sum(scn, weight)


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def fit_gamma_bar2(scn: ScenarioConfig, target_outage: float, gamma_th: float,
                   lo: float = 1e-2, hi: float = 1e14) -> float:
    """One-scalar fit of the user-link SNR scale to a reference outage value.

    The outage is monotone decreasing and smooth in ln gamma_bar2 at fixed
    everything else, so Brent's method on [lo, hi] (:func:`specfun.brent_root`,
    the steps of scipy's ``brentq``) finds the root in about ten evaluations
    after the two bracket checks.  It stops once ln gamma_bar2 is known to the
    closed form's relative tolerance, which moves the fitted outage by far
    less than its own error.  gamma_bar2 enters the closed form only through
    x1, so the steps share one bivariate t-collapse per grid and each step
    only multiplies in x1^s.  The fitted value is meant to be frozen into a
    documented configuration afterwards.
    """
    if not (0.0 < target_outage < 1.0):
        raise ValueError("target outage must lie in (0, 1)")

    def excess(log_g):
        return outage_exact(gamma_th, scn.with_gamma_bar2(math.exp(log_g))) - target_outage

    # the bracket ends as the search sees them: exp(ln hi) need not be hi
    f_lo, f_hi = excess(math.log(lo)), excess(math.log(hi))
    if not (f_hi <= 0.0 <= f_lo):
        raise ValueError(f"target {target_outage} outside attainable range "
                         f"[{f_hi + target_outage}, {f_lo + target_outage}]")
    return math.exp(specfun.brent_root(excess, math.log(lo), math.log(hi), f_lo, f_hi, _REL_TOL))
