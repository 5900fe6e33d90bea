"""Multibeam RF user link: geometry, deterministic beam-gain matrix, and
shadowed-Rician fading statistics.

The seven-beam layout places one center beam and a hexagonal ring; the gain
matrix follows the tapered-aperture Bessel pattern with noise-normalized
entries, so it is fully determined by geometry and link constants.  User
fading follows the shadowed Rician land-mobile-satellite model of
Abdi et al. (2003): Nakagami line of sight over Rayleigh scatter.
"""

from __future__ import annotations

import functools
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


@dataclass(frozen=True)
class UserLaw:
    """Law of gamma_2 under integer severity m, by its finite series: the
    density is (m/gbar2) lead e^-u sum_{k<m} coeffs[k] u^k / k!, u = m x/gbar2."""
    m: int
    coeffs: tuple[float, ...]    # C(m-1, k) (Omega/(2bm))^k = (-1)^k (1-m)_k / k! z^k
    weights: tuple[float, ...]   # w_j = (1/j!) sum_{k>=j} coeffs[k]: a (k, j) sum per j
    lead: float                  # (2bm / (2bm + Omega))^(m-1)


@functools.lru_cache(maxsize=32)
def user_law(p: ShadowedRicianParams) -> UserLaw:
    """The law of p's severity m, which must be an integer: only the Monte
    Carlo path takes other m."""
    if p.m != int(p.m):
        raise NonIntegerShadowingError(
            f"m={p.m} is not an integer; use the Monte Carlo path")
    m = int(p.m)
    two_bm = 2.0 * p.b * p.m
    z = p.omega / two_bm
    coeffs = [math.comb(m - 1, k) * z ** k for k in range(m)]
    weights = np.empty(m)    # numpy scalars: a term that divides by zero reads inf
    partial = 0.0
    for j in range(m - 1, -1, -1):
        partial += coeffs[j]
        weights[j] = partial / math.factorial(j)
    return UserLaw(m, tuple(coeffs), tuple(weights), (two_bm / (two_bm + p.omega)) ** (m - 1))


def _ratio(x, law: UserLaw, gbar2: float):
    """m x / gbar2, the argument of the user-link SNR's series."""
    if not 0 < gbar2 < math.inf:     # NaN fails too
        raise ValueError(f"gbar2 must be positive and finite, not {gbar2}")
    xx = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(xx >= 0):     # NaN fails too
        raise ValueError("the user-link SNR must be nonnegative")
    return law.m * xx / gbar2


def gamma2_pdf(gamma2, law: UserLaw, gbar2: float):
    """User-link SNR density for integer severity (finite-sum form)."""
    ratio = _ratio(gamma2, law, gbar2)
    acc = np.zeros_like(ratio)
    for k, c in enumerate(law.coeffs):
        acc += c * ratio ** k / math.factorial(k)
    out = (law.m / gbar2) * law.lead * np.exp(-ratio) * acc
    return out if np.ndim(gamma2) else float(out[0])


def gamma2_ccdf(x, law: UserLaw, gbar2: float):
    """Complementary CDF of the user-link SNR, integer severity."""
    ratio = _ratio(x, law, gbar2)
    acc = np.zeros_like(ratio)
    partial = np.zeros_like(ratio)   # sum_{j<=k} ratio^j / j!
    for k, c in enumerate(law.coeffs):
        partial = partial + ratio ** k / math.factorial(k)
        acc += c * partial
    out = law.lead * np.exp(-ratio) * acc
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
