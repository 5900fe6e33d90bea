"""Optical feeder-link physics for a ground-to-GEO laser uplink.

Covers the slant-path turbulence pipeline (Hufnagel-Valley profile to Rytov
variance, Fried parameter, and beam-wander pointing jitter, following
Andrews & Phillips), Gamma-Gamma scintillation with misalignment loss, the
electrical-SNR distribution for both direct and coherent detection, and
matching samplers for Monte Carlo work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.special as sp

from . import specfun

BEAM_WANDER_SCALING = 2.0 * math.pi   # C_r in the pointing-variance bracket

# Beyond this Meijer-G argument the transformed densities fall below
# ~1e-300 (double underflow); the far tail is reported as exactly zero.
_G_ARG_CUTOFF = 2.0e5

# A batch of densities shares one contour, accurate relative to the batch
# maximum; callers batch over up to four e-folds of the argument, where
# the default 1e-8 would leave the smaller values ~1e-11 of the batch off.
_PDF_REL_TOL = 1e-10


@dataclass(frozen=True)
class AtmosphereConfig:
    """Site, geometry, and optics inputs to the turbulence pipeline."""
    altitude_sat: float          # H, m
    altitude_ground: float       # h0, m
    zenith_rad: float            # zeta
    wavelength: float            # lambda, m
    wind_rms: float              # w, m/s
    cn2_ground: float            # Cn^2(0), m^(-2/3)
    beam_radius_tx: float        # W0, m
    beam_wander: bool = True

    def __post_init__(self):
        if not (self.altitude_sat > self.altitude_ground >= 0):
            raise ValueError("need H > h0 >= 0")
        if not (0 <= self.zenith_rad < math.pi / 2):
            raise ValueError("zenith angle must lie in [0, pi/2)")
        for name in ("wavelength", "wind_rms", "cn2_ground", "beam_radius_tx"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @property
    def wavenumber(self) -> float:
        return 2.0 * math.pi / self.wavelength

    @property
    def path_length(self) -> float:
        """Slant path L = (H - h0) sec(zeta)."""
        return (self.altitude_sat - self.altitude_ground) / math.cos(self.zenith_rad)


@dataclass(frozen=True)
class TurbulenceParams:
    """Derived Gamma-Gamma shape parameters and their ingredients."""
    alpha: float
    beta: float
    rytov_var: float
    fried_r0: float
    sigma_pe: float              # beam-wander pointing jitter, m at the receiver plane
    scintillation_index: float

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("Gamma-Gamma shapes must be positive")


@dataclass(frozen=True)
class PointingConfig:
    """Misalignment severity xi and peak collected-power fraction A0."""
    xi: float
    a0: float = 1.0

    def __post_init__(self):
        if self.xi <= 0:
            raise ValueError("xi must be positive")
        if not (0 < self.a0 <= 1):
            raise ValueError("A0 must lie in (0, 1]")


@dataclass(frozen=True)
class FeederConfig:
    """Detection type and noise bookkeeping for the optical uplink."""
    detection_r: int             # 1 = heterodyne, 2 = IM/DD
    atmosphere: AtmosphereConfig
    pointing: PointingConfig
    path_loss_il: float = 1.0    # Beers-Lambert term, deterministic
    eta: float = 1.0             # photoelectric conversion
    sigma1_sq: float = 1.0       # feeder noise variance

    def __post_init__(self):
        if self.detection_r not in (1, 2):
            raise ValueError("detection_r must be 1 (heterodyne) or 2 (IM/DD)")
        if not (0 < self.path_loss_il <= 1):
            raise ValueError("path loss I_l must lie in (0, 1]")


# ---------------------------------------------------------------------------
# turbulence profile integrals
# ---------------------------------------------------------------------------

def hv_cn2(h, cfg: AtmosphereConfig):
    """Hufnagel-Valley refractive-index structure profile Cn^2(h), h in m."""
    h = np.asarray(h, dtype=float)
    if np.any(h < 0):
        raise ValueError("altitude must be nonnegative")
    w = cfg.wind_rms
    term_jet = 0.00594 * (w / 27.0) ** 2 * (1e-5 * h) ** 10 * np.exp(-h / 1000.0)
    term_trop = 2.7e-16 * np.exp(-h / 1500.0)
    term_ground = cfg.cn2_ground * np.exp(-h / 100.0)
    return term_jet + term_trop + term_ground


def _path_quad(cfg: AtmosphereConfig, weight):
    """Integral of Cn^2(h) * weight(h) over [h0, H]; ``weight`` takes arrays.

    Gauss panels double in width from 1 mm above h0, where the profile varies
    fastest; each is held to 1e-13 of the integral's midpoint-rule size / count.
    """
    h0, H = cfg.altitude_ground, cfg.altitude_sat
    n = max(1, math.ceil(math.log2((H - h0) / 1e-3)))
    edges = h0 + np.concatenate(([0.0], 1e-3 * 2.0 ** np.arange(n)))
    edges[-1] = H
    f = lambda h: hv_cn2(h, cfg) * weight(h)  # noqa: E731
    size = abs(f(0.5 * (edges[:-1] + edges[1:])) @ np.diff(edges))
    return specfun.gauss_panels(f, edges, 1e-13 * size / n)


def fried_r0(cfg: AtmosphereConfig) -> float:
    """Fried atmospheric coherence width r0 for the uplink path."""
    integral = _path_quad(cfg, lambda h: 1.0)
    k = cfg.wavenumber
    return (0.42 / math.cos(cfg.zenith_rad) * k * k * integral) ** (-3.0 / 5.0)


def rytov_variance(cfg: AtmosphereConfig) -> float:
    """Weak-fluctuation (Rytov) log-irradiance variance for the slant path."""
    h0, H = cfg.altitude_ground, cfg.altitude_sat
    dh = H - h0

    def weight(h):
        u = (h - h0) / dh
        return ((1.0 - u) * u) ** (5.0 / 6.0)

    integral = _path_quad(cfg, weight)
    k = cfg.wavenumber
    sec = 1.0 / math.cos(cfg.zenith_rad)
    return 2.25 * k ** (7.0 / 6.0) * dh ** (5.0 / 6.0) * sec ** (11.0 / 6.0) * integral


def beam_wander_sigma_pe(cfg: AtmosphereConfig, r0: float | None = None) -> float:
    """Beam-wander-induced pointing jitter sigma_pe (std dev, m)."""
    if r0 is None:
        r0 = fried_r0(cfg)
    dh = cfg.altitude_sat - cfg.altitude_ground
    sec = 1.0 / math.cos(cfg.zenith_rad)
    w0 = cfg.beam_radius_tx
    ratio = (BEAM_WANDER_SCALING * w0 / r0) ** 2
    bracket = 1.0 - (ratio / (1.0 + ratio)) ** (1.0 / 6.0)
    var = (0.54 * dh ** 2 * sec ** 2 * (cfg.wavelength / (2.0 * w0)) ** 2
           * (2.0 * w0 / r0) ** (5.0 / 3.0) * bracket)
    return math.sqrt(var)


def scintillation_params(cfg: AtmosphereConfig) -> TurbulenceParams:
    """Gamma-Gamma (alpha, beta) for an untracked collimated uplink beam.

    beta carries only the small-scale Rytov term; alpha additionally absorbs
    the beam-wander pointing jitter unless the flag disables it.
    """
    r0 = fried_r0(cfg)
    sigma_b = rytov_variance(cfg)
    sigma_pe = beam_wander_sigma_pe(cfg, r0=r0)

    L = cfg.path_length
    k = cfg.wavenumber
    w0 = cfg.beam_radius_tx
    lambda0 = 2.0 * L / (k * w0 * w0)
    w_rx = w0 * math.hypot(1.0, lambda0)   # collimated: curvature term 1

    dh = cfg.altitude_sat - cfg.altitude_ground
    sec = 1.0 / math.cos(cfg.zenith_rad)
    large_scale = math.exp(0.49 * sigma_b / (1.0 + 0.56 * sigma_b ** 1.2) ** (7.0 / 6.0)) - 1.0
    if cfg.beam_wander:
        alpha_pe = sigma_pe / L
        wander = (5.95 * dh ** 2 * sec ** 2 * (2.0 * w0 / r0) ** (5.0 / 3.0)
                  * (alpha_pe / w_rx) ** 2)
    else:
        wander = 0.0
    alpha = 1.0 / (wander + large_scale)
    beta = 1.0 / (math.exp(0.51 * sigma_b / (1.0 + 0.69 * sigma_b ** 1.2) ** (5.0 / 6.0)) - 1.0)
    si = 1.0 / alpha + 1.0 / beta + 1.0 / (alpha * beta)
    return TurbulenceParams(alpha=alpha, beta=beta, rytov_var=sigma_b,
                            fried_r0=r0, sigma_pe=sigma_pe, scintillation_index=si)


# ---------------------------------------------------------------------------
# irradiance and electrical-SNR statistics
# ---------------------------------------------------------------------------

def sample_irradiance(turb: TurbulenceParams, pointing: PointingConfig,
                      path_loss_il: float, rng: np.random.Generator, n: int):
    """Draw I = I_l * I_a * I_p with unit-mean Gamma-Gamma turbulence."""
    i_a = (rng.gamma(turb.alpha, 1.0 / turb.alpha, n)
           * rng.gamma(turb.beta, 1.0 / turb.beta, n))
    i_p = pointing.a0 * rng.random(n) ** (1.0 / pointing.xi ** 2)
    return path_loss_il * i_a * i_p


def gamma1_moment(order: float, r: int, turb: TurbulenceParams,
                  pointing: PointingConfig, mu_r: float) -> float:
    """E[gamma_1^order] of the feeder electrical SNR under detection order r.

    With k = r * order, E[gamma_1^order] = mu_r^order / M_k, where
    M_k = (xi^2+k) (alpha beta xi^2)^k Gamma(al) Gamma(be)
          / (xi^2 (xi^2+1)^k Gamma(al+k) Gamma(be+k)).
    At order 1 this is the average SNR gbar1; with r = 1 and mu_r = E[I]
    it is the irradiance moment E[I^order].
    """
    al, be, xi2 = turb.alpha, turb.beta, pointing.xi ** 2
    k = r * order
    num = (xi2 + k) * (al * be * xi2) ** k * sp.gamma(al) * sp.gamma(be)
    den = xi2 * (xi2 + 1.0) ** k * sp.gamma(al + k) * sp.gamma(be + k)
    return mu_r ** order / float(num / den)


def gamma1_pdf(gamma1, r: int, turb: TurbulenceParams, pointing: PointingConfig,
               mu_r: float):
    """Density of the feeder electrical SNR gamma_1 under detection order r."""
    g = np.atleast_1d(np.asarray(gamma1, dtype=float))
    if np.any(g <= 0) or mu_r <= 0:
        raise ValueError("gamma1 and mu_r must be positive")
    al, be, xi2 = turb.alpha, turb.beta, pointing.xi ** 2
    arg = (al * be * xi2 / (xi2 + 1.0)) * (g / mu_r) ** (1.0 / r)
    out = np.zeros_like(g)
    keep = arg <= _G_ARG_CUTOFF
    if np.any(keep):
        vals, _, _ = specfun.meijer_g_many((xi2 + 1.0,), (xi2, al, be), 3, 0,
                                           arg[keep], _PDF_REL_TOL)
        out[keep] = xi2 / (r * sp.gamma(al) * sp.gamma(be) * g[keep]) * vals
    return out if np.ndim(gamma1) else float(out[0])


def sample_gamma1(r: int, turb: TurbulenceParams, pointing: PointingConfig,
                  mu_r: float, path_loss_il: float,
                  rng: np.random.Generator, n: int):
    """Draw gamma_1 = mu_r * (I / (A0 I_l xi^2/(xi^2+1)))^r.

    The photoelectric conversion cancels between gamma_1 and mu_r, so the
    sampler needs only the normalized irradiance.
    """
    i = sample_irradiance(turb, pointing, path_loss_il, rng, n)
    xi2 = pointing.xi ** 2
    ref = pointing.a0 * path_loss_il * xi2 / (xi2 + 1.0)
    return mu_r * (i / ref) ** r
