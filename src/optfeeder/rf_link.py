"""Multibeam RF user link: geometry, deterministic beam-gain matrix, and
shadowed-Rician fading statistics.

The seven-beam layout places one center beam and a hexagonal ring; the gain
matrix follows the tapered-aperture Bessel pattern with noise-normalized
entries, so it is fully determined by geometry and link constants.  User
fading follows the shadowed Rician land-mobile-satellite model of
Abdi et al. (2003): Nakagami line of sight over Rayleigh scatter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun

SPEED_OF_LIGHT = 299792458.0   # m/s
BOLTZMANN = 1.380649e-23       # J/K
PATTERN_PEAK_CONST = 2.07123   # u = const * sin(theta)/sin(theta_3dB)


class NonIntegerShadowingError(ValueError):
    """Closed-form user-link statistics need integer fading severity.

    Non-integer m is supported only through the Monte Carlo path.
    """


@dataclass(frozen=True)
class RfLinkParams:
    """Carrier and receiver constants of the user downlink (Ka band)."""
    carrier_hz: float
    gain_tx: float               # satellite feed gain, linear
    gain_rx: float               # user terminal gain, linear
    bandwidth_hz: float
    noise_temp_k: float
    theta_3db_rad: float

    def __post_init__(self):
        for name in ("carrier_hz", "gain_tx", "gain_rx", "bandwidth_hz",
                     "noise_temp_k", "theta_3db_rad"):
            if not 0 < getattr(self, name) < math.inf:     # NaN fails too
                raise ValueError(f"{name} must be positive and finite, "
                                 f"not {getattr(self, name)}")


def beam_centers(radius: float) -> np.ndarray:
    """Center beam plus hexagonal ring, planar coordinates in meters."""
    if radius <= 0:
        raise ValueError("beam radius must be positive")
    s3 = math.sqrt(3.0)
    pts = [(0.0, 0.0),
           (-s3 / 2, 1.5), (s3 / 2, 1.5), (s3, 0.0),
           (s3 / 2, -1.5), (-s3 / 2, -1.5), (-s3, 0.0)]
    return radius * np.array(pts)


@dataclass(frozen=True)
class BeamLayout:
    """Beam geometry; users default to one terminal at each beam center."""
    beam_radius: float
    slant_range: float                     # common UT-satellite distance D
    user_positions: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if not (0 < self.beam_radius < math.inf and 0 < self.slant_range < math.inf):
            raise ValueError(f"beam_radius and slant_range must be positive and finite, "
                             f"not {self.beam_radius}, {self.slant_range}")
        if self.user_positions is not None:   # (x, y) pairs: == and hash by value
            object.__setattr__(self, "user_positions", tuple(
                (float(x), float(y)) for x, y in self.user_positions))

    @property
    def centers(self) -> np.ndarray:
        return beam_centers(self.beam_radius)

    @property
    def users(self) -> np.ndarray:
        if self.user_positions is None:
            return self.centers
        return np.asarray(self.user_positions, dtype=float)


def _pattern(u):
    """Tapered-aperture pattern J1(u)/(2u) + 36 J3(u)/u^3, peak 1 at u=0."""
    return 0.5 * specfun.bessel_j_scaled(1, u) + 36.0 * specfun.bessel_j_scaled(3, u)


def beam_gain_matrix(layout: BeamLayout, rf: RfLinkParams) -> np.ndarray:
    """Noise-normalized gain from feed j toward user i; deterministic."""
    users = layout.users
    centers = layout.centers
    d = np.linalg.norm(users[:, None, :] - centers[None, :, :], axis=2)
    theta = np.arctan(d / layout.slant_range)
    u = PATTERN_PEAK_CONST * np.sin(theta) / math.sin(rf.theta_3db_rad)
    amplitude = (SPEED_OF_LIGHT * math.sqrt(rf.gain_tx * rf.gain_rx)
                 / (4.0 * math.pi * rf.carrier_hz * layout.slant_range
                    * math.sqrt(BOLTZMANN * rf.noise_temp_k * rf.bandwidth_hz)))
    return amplitude * _pattern(u)


@dataclass(frozen=True)
class ShadowedRicianParams:
    """Severity m, half multipath power b, line-of-sight power Omega."""
    m: float
    b: float
    omega: float

    def __post_init__(self):
        if not 1 <= self.m < math.inf:     # NaN fails too
            raise ValueError(f"fading severity m must be finite and >= 1, not {self.m}")
        if not (0 < self.b < math.inf and 0 <= self.omega < math.inf):
            raise ValueError(f"need finite b > 0 and omega >= 0, not b = {self.b}, "
                             f"omega = {self.omega}")

    @property
    def m_int(self) -> int:
        if self.m != int(self.m):
            raise NonIntegerShadowingError(
                f"m={self.m} is not an integer; use the Monte Carlo path")
        return int(self.m)

    @property
    def power_ratio(self) -> float:
        """2bm / (2bm + Omega), the base of the shadowing prefactor."""
        return 2.0 * self.b * self.m / (2.0 * self.b * self.m + self.omega)


def series_coeffs(p: ShadowedRicianParams) -> np.ndarray:
    """C(m-1, k) (Omega/(2 b m))^k, k < m: the finite-sum weights
    (-1)^k (1-m)_k / k! z^k of integer severity, all nonnegative."""
    z = p.omega / (2.0 * p.b * p.m)
    return np.array([math.comb(p.m_int - 1, k) * z ** k for k in range(p.m_int)])


def _series_terms(x, p: ShadowedRicianParams, gbar2: float):
    """(m, series_coeffs(p), m x / gbar2): the terms of the user-link SNR's sums."""
    m = p.m_int
    if not 0 < gbar2 < math.inf:     # NaN fails too
        raise ValueError(f"gbar2 must be positive and finite, not {gbar2}")
    xx = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(xx >= 0):     # NaN fails too
        raise ValueError("the user-link SNR must be nonnegative")
    return m, series_coeffs(p), m * xx / gbar2


def gamma2_pdf(gamma2, p: ShadowedRicianParams, gbar2: float):
    """User-link SNR density for integer severity (finite-sum form)."""
    m, coeffs, ratio = _series_terms(gamma2, p, gbar2)
    acc = np.zeros_like(ratio)
    for k in range(m):
        acc += coeffs[k] * ratio ** k / math.factorial(k)
    out = (m / gbar2) * p.power_ratio ** (m - 1) * np.exp(-ratio) * acc
    return out if np.ndim(gamma2) else float(out[0])


def gamma2_ccdf(x, p: ShadowedRicianParams, gbar2: float):
    """Complementary CDF of the user-link SNR, integer severity."""
    m, coeffs, ratio = _series_terms(x, p, gbar2)
    acc = np.zeros_like(ratio)
    partial = np.zeros_like(ratio)   # sum_{j<=k} ratio^j / j!
    for k in range(m):
        partial = partial + ratio ** k / math.factorial(k)
        acc += coeffs[k] * partial
    out = p.power_ratio ** (m - 1) * np.exp(-ratio) * acc
    return out if np.ndim(x) else float(out[0])


def sample_shadowed_rician(p: ShadowedRicianParams, rng: np.random.Generator, n: int):
    """Draw |A e^{j phi} + w|: Nakagami LOS amplitude over Rayleigh scatter."""
    los_power = rng.gamma(p.m, p.omega / p.m, n) if p.omega > 0 else np.zeros(n)
    phase = rng.uniform(0.0, 2.0 * math.pi, n)
    los = np.sqrt(los_power) * np.exp(1j * phase)
    scatter = math.sqrt(p.b) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return np.abs(los + scatter)


def sample_gamma2(p: ShadowedRicianParams, gbar2: float,
                  rng: np.random.Generator, n: int):
    """Draw gamma_2 = gbar2 |d|^2 / (2bm + Omega)."""
    d = sample_shadowed_rician(p, rng, n)
    return gbar2 * d ** 2 / (2.0 * p.b * p.m + p.omega)
