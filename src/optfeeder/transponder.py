"""Onboard amplifier chain: fixed-gain block and the Gaussian-input
linearization of its memoryless AM/AM curve.

For a circularly symmetric Gaussian input of power P the memoryless envelope
nonlinearity f splits into a scaled replica plus uncorrelated distortion
(Bussgang), with gain K = E[f(rho) rho]/P and distortion power
sigma_NL^2 = E[f(rho)^2] - K^2 P.  With u = rho^2/P, which is Exp(1), and the
curve's shortfall s(u) = 1 - f(rho)/rho, both follow from expectations whose
integrands never cancel:

    1 - K = E[u s],    sigma_NL^2 = E[u (1 - K - s)^2].

* TWTA: the Saleh curve A^2 rho / (rho^2 + A^2) falls short by u/(u + q),
  with q = A^2/P the input back-off.
* SSPA: the smooth envelope limiter rho (1 + rho^2/A^2)^(-1/2) (the Rapp
  curve with smoothness 1) falls short by x/(sqrt(1+x)(1 + sqrt(1+x))), x = u/q.

Published tabulations attach the pairs' closed forms to opposite families at
times; the tests settle the assignment with brute-force Bussgang estimators
on the waveform curves, and check each pair against 60-digit closed forms.

Everything depends on the back-off only; powers are in units of P_r, the
mean power at the gain-block output.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .specfun import db_to_linear, gauss_panels

# Exp(1) panels on u, fine where a shortfall bends; past 60, e^-u < 1e-26
_EDGES = np.concatenate(([0.0], 2.0 ** np.arange(-30, 0), np.arange(1.0, 61.0)))
_PANEL_TOL = 1e-15 / (_EDGES.size - 1)


# ---------------------------------------------------------------------------
# Bussgang pairs
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _pair(shortfall, ibo_linear: float) -> tuple[float, float]:
    """(1 - K, sigma_NL^2) of the curve falling short by shortfall(u, q), kept per
    curve and back-off; the integrands are in units of min(1, 1/q), the size of
    1 - K, so the panel tolerance is relative and nothing underflows early."""
    if not 0 < ibo_linear < math.inf:     # NaN fails too
        raise ValueError(f"back-off ibo_linear must be positive and finite, not {ibo_linear}")
    scale = min(1.0, 1.0 / ibo_linear)
    s = lambda u: shortfall(u, ibo_linear) / scale  # noqa: E731
    gap = gauss_panels(lambda u: u * s(u) * np.exp(-u), _EDGES, _PANEL_TOL)
    spread = gauss_panels(lambda u: u * (gap - s(u)) ** 2 * np.exp(-u), _EDGES, _PANEL_TOL)
    return scale * gap, scale * scale * spread


def _saleh_shortfall(u, q):
    return u / (u + q)


def _limiter_shortfall(u, q):
    root = np.sqrt(1.0 + u / q)
    return u / q / (root * (1.0 + root))


def bussgang_twta(ibo_linear: float) -> tuple[float, float]:
    """(K, sigma_NL^2) for the Saleh-curve amplifier at back-off A^2/P_r."""
    gap, sigma_nl_sq = _pair(_saleh_shortfall, ibo_linear)
    return 1.0 - gap, sigma_nl_sq


def bussgang_sspa(ibo_linear: float) -> tuple[float, float]:
    """(K, sigma_NL^2) for the smooth envelope limiter at back-off A^2/P_r."""
    gap, sigma_nl_sq = _pair(_limiter_shortfall, ibo_linear)
    return 1.0 - gap, sigma_nl_sq


# family -> (K, sigma_NL^2) at a back-off; 'linear' is the identity device
_BUSSGANG = {"twta": bussgang_twta, "sspa": bussgang_sspa, "linear": lambda ibo: (1.0, 0.0)}
HPA_FAMILIES = tuple(_BUSSGANG)


@dataclass(frozen=True)
class HpaState:
    """Amplifier family and back-off, and the linearization pair they fix."""
    family: str
    ibo_linear: float
    k_gain: float = field(init=False)
    sigma_nl_sq: float = field(init=False)

    def __post_init__(self):
        if self.family not in HPA_FAMILIES:
            raise ValueError(f"family must be one of {HPA_FAMILIES}")
        if not self.ibo_linear > 0:     # the linear family reads none, yet records it
            raise ValueError(f"back-off ibo_linear must be positive, not {self.ibo_linear}")
        k_gain, sigma_nl_sq = _BUSSGANG[self.family](self.ibo_linear)
        if not (0 < k_gain <= 1.0 + 1e-12):
            raise ValueError("Bussgang gain must lie in (0, 1]")
        if not sigma_nl_sq >= 0:
            raise ValueError(f"distortion power sigma_nl_sq must be nonnegative, "
                             f"not {sigma_nl_sq}")
        object.__setattr__(self, "k_gain", k_gain)
        object.__setattr__(self, "sigma_nl_sq", sigma_nl_sq)

    @property
    def sat_power_tx(self) -> float:
        """Per-feed transmit power P_s/N = K^2 + sigma_NL^2."""
        return self.k_gain ** 2 + self.sigma_nl_sq

    def kappa_for_gain(self, relay_g: float) -> float:
        """Distortion ratio 1 + sigma_NL^2 / (K^2 G^2), G in sqrt(P_r)/sigma_1."""
        # the floor keeps a K^2 G^2 that underflows from dividing by zero
        kappa = 1.0 + self.sigma_nl_sq / max(self.k_gain ** 2 * relay_g ** 2, math.ulp(0.0))
        if not (relay_g > 0 and kappa < math.inf):     # NaN fails too
            raise ValueError(f"relay gain relay_g = {relay_g} must be positive and leave "
                             f"kappa = 1 + sigma_NL^2 / (K^2 G^2) finite")
        return kappa


def hpa_state(family: str, ibo_db: float | None = None) -> HpaState:
    """Build an HpaState from a back-off in dB ('linear' needs no back-off)."""
    if ibo_db is None and family != "linear":
        raise ValueError("nonlinear families need a back-off")
    return HpaState(family, math.inf if ibo_db is None else db_to_linear("ibo_db", ibo_db))
