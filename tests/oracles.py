"""Closed forms that only the tests read: the waveform AM/AM curves behind the
brute-force Bussgang estimators, the Bussgang pairs' closed forms in 60-digit
arithmetic, the shadowed-Rician amplitude density, the mean user-link SNR,
the scintillation index, and the bivariate engine's t-collapse as a direct
Hankel product.  The library computes none of them, so keeping them here
leaves each check independent of the code it checks."""

import math

import mpmath
import numpy as np
import scipy.special as sp
from numpy.lib.stride_tricks import sliding_window_view

from optfeeder import fso_link, rf_link, specfun


def saleh_amam(x, amp_sat: float):
    """Saleh amplitude response A_sat^2 x / (x^2 + A_sat^2)."""
    x = np.asarray(x, dtype=float)
    return amp_sat ** 2 * x / (x ** 2 + amp_sat ** 2)


def rapp_amam(x, amp_sat: float, smoothness: float = 1.0):
    """Rapp amplitude response x / (1 + (x/A_sat)^(2v))^(1/(2v))."""
    if smoothness <= 0:
        raise ValueError("smoothness must be positive")
    x = np.asarray(x, dtype=float)
    return x / (1.0 + (x / amp_sat) ** (2.0 * smoothness)) ** (1.0 / (2.0 * smoothness))


def bussgang_closed_form(family: str, ibo: float) -> tuple[float, float, float]:
    """(K, 1 - K, sigma_NL^2) of the 'twta' or 'sspa' pair at back-off q, from
    the closed forms on Rayleigh-envelope expectations, in 60-digit arithmetic,
    which leaves the cancellation of E[f^2] - K^2 over 40 digits:

        TWTA: K = q (1 - q e^q E1(q)),   E[f^2] = q^2 ((1 + q) e^q E1(q) - 1)
        SSPA: K = sqrt(q)/2 (2 sqrt(q) - sqrt(pi) erfcx(sqrt(q)) (2q - 1)),
              E[f^2] = q (1 - q e^q E1(q))
    """
    with mpmath.workdps(60):
        q = mpmath.mpf(ibo)
        e1x = mpmath.exp(q) * mpmath.e1(q)
        if family == "twta":
            k = q * (1 - q * e1x)
            mean_sq = q * q * ((1 + q) * e1x - 1)
        else:
            z = mpmath.sqrt(q)
            erfcx = mpmath.exp(q) * mpmath.erfc(z)
            k = z / 2 * (2 * z - mpmath.sqrt(mpmath.pi) * erfcx * (2 * q - 1))
            mean_sq = q * (1 - q * e1x)
        return float(k), float(1 - k), float(mean_sq - k * k)


def shadowed_rician_pdf(y, p: rf_link.ShadowedRicianParams):
    """Amplitude density of the shadowed Rician fading gain |d|.

    The confluent factor overflows on its own deep in the tail while the
    Gaussian envelope kills the product, so the two are combined in log
    space, with the large-argument asymptotic of 1F1 past the overflow
    threshold.
    """
    yy = np.atleast_1d(np.asarray(y, dtype=float))
    if np.any(yy < 0):
        raise ValueError("amplitude must be nonnegative")
    two_bm = 2.0 * p.b * p.m
    log_pref = p.m * math.log(two_bm / (two_bm + p.omega)) - math.log(p.b)
    arg = p.omega * yy ** 2 / (2.0 * p.b * (two_bm + p.omega))
    log_f = np.empty_like(arg)
    small = arg < 600.0
    log_f[small] = np.log(sp.hyp1f1(p.m, 1.0, arg[small]))
    if np.any(~small):
        # 1F1(a,b,z) ~ Gamma(b)/Gamma(a) e^z z^(a-b) for large z
        za = arg[~small]
        log_f[~small] = za + (p.m - 1.0) * np.log(za) - sp.gammaln(p.m)
    out = np.zeros_like(yy)
    pos = yy > 0
    out[pos] = np.exp(log_pref + np.log(yy[pos])
                      - yy[pos] ** 2 / (2.0 * p.b) + log_f[pos])
    return out if np.ndim(y) else float(out[0])


def gamma2_mean(p: rf_link.ShadowedRicianParams, gbar2: float) -> float:
    """E[gamma_2] = gbar2 (2b + Omega)/(2bm + Omega).

    The scale gbar2 absorbs (2bm + Omega) rather than the physical mean
    power 2b + Omega, so the two differ unless m = 1.
    """
    return gbar2 * (2.0 * p.b + p.omega) / (2.0 * p.b * p.m + p.omega)


def scintillation_index(turb: fso_link.TurbulenceParams) -> float:
    """1/alpha + 1/beta + 1/(alpha beta), the irradiance variance of unit mean."""
    return 1.0 / turb.alpha + 1.0 / turb.beta + 1.0 / (turb.alpha * turb.beta)


def hankel_t_collapse(t_block, sigma_s, sigma_t, h, ns, nt, x2):
    """The t-integral at every s node of the bivariate engine's grid, summed
    directly as the Hankel product tvec[i] = sum_k C[i + k] T[k] in
    O(ns nt), with the engine's own lines, scaling and trapezoid edge
    weights: the reference for the FFT correlation of ``specfun._t_collapse``."""
    t, log_blk = specfun._t_line(t_block, sigma_t, h, nt)
    log_t = log_blk + t * math.log(x2)
    c_max, c_n, *_ = specfun._coupling_line(sigma_s + sigma_t, h, ns + nt)
    t_max = float(np.max(log_t.real))
    t_n = np.exp(log_t - t_max)
    t_n[[0, -1]] *= 0.5
    tvec = math.exp(c_max + t_max) * (sliding_window_view(c_n, 2 * nt + 1) @ t_n)
    tvec[[0, -1]] *= 0.5
    return tvec
