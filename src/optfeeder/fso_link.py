"""Optical feeder-link physics for a ground-to-GEO laser uplink.

Covers the slant-path turbulence pipeline (Hufnagel-Valley profile to Rytov
variance, Fried parameter, and beam-wander pointing jitter, following
Andrews & Phillips), Gamma-Gamma scintillation with misalignment loss, the
electrical-SNR distribution for both direct and coherent detection, and
its sampler for Monte Carlo work.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import specfun

BEAM_WANDER_SCALING = 2.0 * math.pi   # C_r in the pointing-variance bracket

# Beyond this Meijer-G argument the densities fall below ~1e-300 and the
# CDF within 1e-15 of 1; the far tail reads exactly 0 and 1.
_G_ARG_CUTOFF = 2.0e5


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
            if not 0 < getattr(self, name) < math.inf:     # NaN fails too
                raise ValueError(f"{name} must be positive and finite, "
                                 f"not {getattr(self, name)}")

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

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta > 0):
            raise ValueError(f"Gamma-Gamma shapes alpha, beta must be positive, "
                             f"not {self.alpha}, {self.beta}")


@dataclass(frozen=True)
class PointingConfig:
    """Misalignment severity xi."""
    xi: float

    def __post_init__(self):
        if not 0 < self.xi < math.inf:
            raise ValueError(f"xi must be positive and finite, not {self.xi}")


@dataclass(frozen=True)
class FeederConfig:
    """Detection type, atmosphere and pointing of the optical uplink."""
    detection_r: int             # 1 = heterodyne, 2 = IM/DD
    atmosphere: AtmosphereConfig
    pointing: PointingConfig

    def __post_init__(self):
        if self.detection_r not in (1, 2):
            raise ValueError("detection_r must be 1 (heterodyne) or 2 (IM/DD)")


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


def beam_wander_sigma_pe(cfg: AtmosphereConfig, r0: float) -> float:
    """Beam-wander-induced pointing jitter sigma_pe (std dev, m); r0 = fried_r0(cfg)."""
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
    return TurbulenceParams(alpha=alpha, beta=beta, rytov_var=sigma_b,
                            fried_r0=r0, sigma_pe=sigma_pe)


# ---------------------------------------------------------------------------
# irradiance and electrical-SNR statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeederLaw:
    """Law of gamma_1 under detection order r, by its Mellin transform E[gamma_1^s]
    = mu_r^s xi^2/(xi^2+rs) Gamma(al+rs) Gamma(be+rs) / (Gamma(al) Gamma(be) scale^rs)."""
    r: int
    alpha: float
    beta: float
    xi2: float
    gamma_alpha: float           # Gamma(al)
    gamma_beta: float            # Gamma(be)
    abx: float                   # al be xi^2
    scale: float                 # al be xi^2 / (xi^2+1)
    t_upper: tuple[float, ...]   # the feeder gammas' upper and lower parameters
    t_lower: tuple[float, ...]   # in a bivariate t-block, duplication-split


@functools.lru_cache(maxsize=32)
def feeder_law(r: int, alpha: float, beta: float, xi2: float) -> FeederLaw:
    """The law of detection order r, Gamma-Gamma shapes alpha, beta and xi^2."""
    abx = alpha * beta * xi2
    split = lambda u: specfun.duplication_split(r, u)  # noqa: E731
    upper = split(1.0 - xi2) + split(1.0 - alpha) + split(1.0 - beta)
    return FeederLaw(r, alpha, beta, xi2, specfun.gamma(alpha), specfun.gamma(beta), abx,
                     abx / (xi2 + 1.0), upper, split(-xi2))


def gamma1_moment(order: float, law: FeederLaw, mu_r: float) -> float:
    """E[gamma_1^order] of the feeder electrical SNR.

    With k = r * order, E[gamma_1^order] = mu_r^order / M_k, where
    M_k = (xi^2+k) (alpha beta xi^2)^k Gamma(al) Gamma(be)
          / (xi^2 (xi^2+1)^k Gamma(al+k) Gamma(be+k)).
    At order 1 this is the average SNR gbar1; with r = 1 and
    mu_r = E[I] = xi^2/(xi^2+1) it is the irradiance moment E[I^order].
    """
    k = law.r * order
    num = (law.xi2 + k) * law.abx ** k * law.gamma_alpha * law.gamma_beta
    den = (law.xi2 * (law.xi2 + 1.0) ** k * specfun.gamma(law.alpha + k)
           * specfun.gamma(law.beta + k))
    return mu_r ** order / float(num / den)


def _feeder_g(gamma1, law: FeederLaw, mu_r: float, top, bottom, n: int, fill: float, finish):
    """finish(gamma_1, K G^{3,n}(scale (gamma_1/mu_r)^(1/r) | top; bottom)) at positive
    gamma1, K = xi^2/(Gamma(al) Gamma(be)); past _G_ARG_CUTOFF the G term reads ``fill``."""
    g = np.atleast_1d(np.asarray(gamma1, dtype=float))
    if not (np.all(g > 0) and mu_r > 0):     # NaN fails too
        raise ValueError("gamma1 and mu_r must be positive")
    arg = law.scale * (g / mu_r) ** (1.0 / law.r)
    out = np.full_like(g, fill)
    keep = arg <= _G_ARG_CUTOFF
    if np.any(keep):
        vals, _, _ = specfun.meijer_g_many(top, bottom, 3, n, arg[keep])
        out[keep] = law.xi2 / (law.gamma_alpha * law.gamma_beta) * vals
    out = finish(g, out)
    return out if np.ndim(gamma1) else float(out[0])


def gamma1_pdf(gamma1, law: FeederLaw, mu_r: float):
    """Density of the feeder electrical SNR gamma_1.  A batch is accurate relative
    to its largest value, so far-tail noise below zero reads 0."""
    return _feeder_g(gamma1, law, mu_r, (law.xi2 + 1.0,), (law.xi2, law.alpha, law.beta), 0,
                     0.0, lambda g, v: np.maximum(v / (law.r * g), 0.0))


def gamma1_cdf(gamma1, law: FeederLaw, mu_r: float):
    """CDF of the feeder electrical SNR gamma_1,
    K G^{3,1}_{2,4}(scale (gamma_1/mu_r)^(1/r) | 1, xi^2+1; xi^2, al, be, 0)."""
    return _feeder_g(gamma1, law, mu_r, (1.0, law.xi2 + 1.0),
                     (law.xi2, law.alpha, law.beta, 0.0), 1, 1.0,
                     lambda g, v: np.clip(v, 0.0, 1.0))


def sample_gamma1(law: FeederLaw, mu_r: float, rng: np.random.Generator, n: int):
    """Draw gamma_1 = mu_r * (I / E[I])^r, E[I] = xi^2/(xi^2+1).

    I = I_a * I_p: unit-mean Gamma-Gamma turbulence times the pointing
    factor U^(1/xi^2).  Every constant scale of I (peak collected fraction,
    path loss, photoelectric gain) cancels between gamma_1 and mu_r.
    """
    xi2 = law.xi2
    i_a = (rng.gamma(law.alpha, 1.0 / law.alpha, n)
           * rng.gamma(law.beta, 1.0 / law.beta, n))
    i = i_a * rng.random(n) ** (1.0 / xi2)
    return mu_r * (i / (xi2 / (xi2 + 1.0))) ** law.r
