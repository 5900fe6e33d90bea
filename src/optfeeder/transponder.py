"""Onboard amplifier chain: fixed-gain block and the Gaussian-input
linearization of its memoryless AM/AM curve.

For a circularly symmetric Gaussian input of power P the memoryless envelope
nonlinearity f splits into a scaled replica plus uncorrelated distortion
(Bussgang), with gain K = E[f(rho) rho]/P and distortion power
sigma_NL^2 = E[f(rho)^2] - K^2 P.  Both closed-form pairs used here follow
from Rayleigh-envelope expectations:

* TWTA: the Saleh curve A^2 rho / (rho^2 + A^2) gives
      K = q (1 - q e^q E1(q)),   E[f^2] = A^2 q [(1+q) e^q E1(q) - 1],
  with q = A^2/P the input back-off.
* SSPA: the smooth envelope limiter rho (1 + rho^2/A^2)^(-1/2) (the Rapp
  curve with smoothness 1) gives
      K = sqrt(q)/2 [2 sqrt(q) - sqrt(pi) erfcx(sqrt(q)) (2q - 1)],
      E[f^2] = P q (1 - q e^q E1(q)).

Several published tabulations attach these two pairs to the opposite
amplifier families; the assignment here is fixed by re-deriving the
expectations (see the tests, which check both K values against brute-force
Bussgang estimators on the matching waveform curves).

Everything depends on the back-off only; powers are in units of P_r, the
mean power at the gain-block output.  Closed forms cancel catastrophically
at large back-off, so the implementation switches to asymptotic series there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .specfun import db_to_linear, erfcx, exp_scaled_e1

# Crossover balancing the closed forms (whose distortion power loses
# ~q^4 * eps to cancellation) against the 1/ibo series (truncation error
# ~100/ibo^2); both sides stay within ~1e-4 of the true sigma_NL^2 here.
_SERIES_CUTOFF = 1e3


# ---------------------------------------------------------------------------
# Bussgang pairs
# ---------------------------------------------------------------------------

def bussgang_twta(ibo_linear: float) -> tuple[float, float]:
    """(K, sigma_NL^2) for the Saleh-curve amplifier at back-off A^2/P_r."""
    if not ibo_linear > 0:     # NaN fails too
        raise ValueError(f"back-off ibo_linear must be positive, not {ibo_linear}")
    q = ibo_linear
    if q > _SERIES_CUTOFF:
        x = 1.0 / q
        k = 1.0 - 2.0 * x + 6.0 * x * x - 24.0 * x ** 3
        snl = 2.0 * x * x - 24.0 * x ** 3
        return k, max(snl, 0.0)
    e = np.longdouble(exp_scaled_e1(q))
    ql = np.longdouble(q)
    k = ql * (1.0 - ql * e)
    mean_sq = ql * ql * ((1.0 + ql) * e - 1.0)       # E[f^2]
    snl = float(mean_sq - k * k)
    return float(k), max(snl, 0.0)


def bussgang_sspa(ibo_linear: float) -> tuple[float, float]:
    """(K, sigma_NL^2) for the smooth envelope limiter at back-off A^2/P_r."""
    if not ibo_linear > 0:     # NaN fails too
        raise ValueError(f"back-off ibo_linear must be positive, not {ibo_linear}")
    q = ibo_linear
    if q > _SERIES_CUTOFF:
        x = 1.0 / q
        k = 1.0 - x + 2.25 * x * x - 7.5 * x ** 3
        snl = 0.5 * x * x - 4.5 * x ** 3
        return k, max(snl, 0.0)
    z = math.sqrt(q)
    scaled = np.longdouble(erfcx(np.array([z]))[0])
    zl = np.longdouble(z)
    k = zl / 2.0 * (2.0 * zl - np.longdouble(math.sqrt(math.pi)) * scaled * (2.0 * q - 1.0))
    e = np.longdouble(exp_scaled_e1(q))
    mean_sq = np.longdouble(q) * (1.0 - np.longdouble(q) * e)   # E[f^2]
    snl = float(mean_sq - k * k)
    return float(k), max(snl, 0.0)


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
