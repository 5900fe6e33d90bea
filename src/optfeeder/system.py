"""End-to-end scenario assembly: zero-forcing precoder, power bookkeeping,
and the signal-to-noise-plus-distortion law of the relayed forward link.

A ``ScenarioConfig`` freezes one operating point (one average electrical SNR
of the feeder link) and derives every other quantity from its inputs in
``__post_init__``, so each clone made with ``dataclasses.replace`` (as
:meth:`ScenarioConfig.at_mu_r` does) re-derives what its changed input
affects: the relay gain shrinks as the optical transmit power grows, so the
distortion ratio kappa and the noise-amplification constant C both climb
with mu_r.  That coupling is what separates the nonlinear amplifier floors
from the linear-amplifier decay.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np

from . import fso_link, rf_link, specfun, transponder

CONDITION_LIMIT = 1e10


class RankDeficientError(ValueError):
    """Gain matrix too ill-conditioned for zero-forcing inversion."""


def trace_bbh_inv(gain_matrix: np.ndarray) -> float:
    """tr[(B B^H)^(-1)] = sum of sigma_i^-2, the precoder's noise amplification,
    from the singular values of the conditioning guard: B B^H, whose condition
    number is the square of B's, is never formed."""
    b = np.asarray(gain_matrix, dtype=float)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError("gain matrix must be square")
    svals = np.linalg.svd(b, compute_uv=False)
    if svals[-1] <= 0 or svals[0] / svals[-1] > CONDITION_LIMIT:
        raise RankDeficientError(
            f"smallest singular value {svals[-1]:.3e} fails the conditioning guard")
    return float(np.sum(1.0 / svals ** 2))


def zf_precoder(gain_matrix: np.ndarray, p_g: float) -> tuple[np.ndarray, float]:
    """Zero-forcing precoder T = sqrt(c_zf) B^H (B B^H)^(-1), tr(T T^H) = P_g,
    which is sqrt(c_zf) B^(-1) for the square B that the guard enforces."""
    if p_g <= 0:
        raise ValueError("power budget must be positive")
    c_zf = p_g / trace_bbh_inv(gain_matrix)
    return math.sqrt(c_zf) * np.linalg.inv(np.asarray(gain_matrix, dtype=float)), c_zf


@functools.lru_cache(maxsize=8)
def _zf_geometry(layout: rf_link.BeamLayout, rf: rf_link.RfLinkParams) -> tuple:
    """(tr[(B B^H)^(-1)], |b_i|^2 of every user row i) of the gain matrix B,
    which depends on the frozen (layout, rf) alone, so clones of a scenario
    share them; a failed guard raises, and an exception is never cached."""
    b = rf_link.beam_gain_matrix(layout, rf)
    return trace_bbh_inv(b), tuple(float(row @ row) for row in b)


def sndr(gamma1, gamma2, scenario: "ScenarioConfig"):
    """End-to-end SNDR of the served user for given link SNR draws."""
    g1 = np.asarray(gamma1, dtype=float)
    g2 = np.asarray(gamma2, dtype=float)
    if np.any(g1 < 0) or np.any(g2 < 0):
        raise ValueError("link SNRs must be nonnegative")
    den = scenario.kappa * g2 + scenario.noise_amp_c
    return g1 * g2 / (scenario.b_row_norm_sq * den)


@dataclass(frozen=True)
class ScenarioConfig:
    """One fully derived operating point of the forward link.

    The init fields are the inputs; the rest are derived from them in
    ``__post_init__`` and cannot be passed in.
    """
    feeder: fso_link.FeederConfig
    turbulence: fso_link.TurbulenceParams
    layout: rf_link.BeamLayout
    rf: rf_link.RfLinkParams
    shadowing: rf_link.ShadowedRicianParams
    hpa: transponder.HpaState
    mu_r: float                   # average electrical SNR of the feeder link
    gamma_bar2: float | None      # average SNR scale of the served user link
    p_g: float
    sigma2_sq: float
    user_index: int
    gain_mode: str                # 'power_constrained' or 'fixed'
    fixed_gain: float
    gamma2_source: str            # 'explicit' (e.g. calibrated) or 'physical'
    trace_term: float = field(init=False)
    b_row_norm_sq: float = field(init=False)
    c_zf: float = field(init=False)
    gbar1: float = field(init=False)
    relay_g: float = field(init=False)
    kappa: float = field(init=False)

    def __post_init__(self):
        if self.gain_mode not in ("power_constrained", "fixed"):
            raise ValueError("gain_mode must be 'power_constrained' or 'fixed'")
        explicit = ("gamma_bar2",) if self.gamma2_source == "explicit" else ()
        for name in ("mu_r", "p_g", "sigma2_sq", "fixed_gain") + explicit:
            if not 0 < getattr(self, name) < math.inf:     # NaN fails too
                raise ValueError(f"{name} must be positive and finite, "
                                 f"not {getattr(self, name)}")
        trace_term, row_norms_sq = _zf_geometry(self.layout, self.rf)
        if not 0 <= self.user_index < len(row_norms_sq):
            raise ValueError(f"user_index must lie in [0, {len(row_norms_sq)}), "
                             f"not {self.user_index}")
        b_row_norm_sq = row_norms_sq[self.user_index]
        gbar1 = fso_link.gamma1_moment(1, self.feeder_law, self.mu_r)
        if not math.isfinite(trace_term * gbar1):
            raise ValueError(f"mu_r = {self.mu_r} overflows tr[(B B^H)^-1] gbar1")
        if self.gain_mode == "fixed":
            relay_g = self.fixed_gain
        else:
            # G^2 (signal + sigma1^2) = P_r, and the relay's mean input signal
            # power over sigma1^2 is trace_term * gbar1 by the definition of
            # the average feeder SNR, so the gain in units of sqrt(P_r)/sigma1
            # needs no optical power scale
            relay_g = math.sqrt(1.0 / (trace_term * gbar1 + 1.0))
        derived = {
            "trace_term": trace_term, "b_row_norm_sq": b_row_norm_sq,
            "c_zf": self.p_g / trace_term, "gbar1": gbar1, "relay_g": relay_g,
            "kappa": self.hpa.kappa_for_gain(relay_g)}
        if self.gamma2_source == "physical":
            two_bm = 2.0 * self.shadowing.b * self.shadowing.m
            derived["gamma_bar2"] = (self.hpa.sat_power_tx * b_row_norm_sq
                                     * (two_bm + self.shadowing.omega)
                                     / self.sigma2_sq)
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @property
    def noise_amp_c(self) -> float:
        """C = tr[(B B^H)^(-1)] gbar1 + kappa."""
        return self.trace_term * self.gbar1 + self.kappa

    @property
    def detection_r(self) -> int:
        return self.feeder.detection_r

    @functools.cached_property
    def feeder_law(self) -> fso_link.FeederLaw:
        return fso_link.feeder_law(self.detection_r, self.turbulence.alpha,
                                   self.turbulence.beta, self.feeder.pointing.xi ** 2)

    @functools.cached_property
    def user_law(self) -> rf_link.UserLaw:
        return rf_link.user_law(self.shadowing)

    def at_mu_r(self, mu_r: float) -> "ScenarioConfig":
        """Same system at another feeder operating point."""
        return replace(self, mu_r=mu_r)

    def at_mu_r_db(self, mu_r_db: float) -> "ScenarioConfig":
        return self.at_mu_r(specfun.db_to_linear("mu_r_db", mu_r_db))

    def with_gamma_bar2(self, gamma_bar2: float) -> "ScenarioConfig":
        return replace(self, gamma_bar2=gamma_bar2, gamma2_source="explicit")

    def fingerprint(self) -> str:
        """Short stable hash of every input and derived scalar."""
        payload = self.describe()
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def describe(self) -> dict:
        """Flat record of every field for manifests and fingerprints; the
        fields of a nested record sit under dotted paths (``hpa.k_gain``)."""
        return _fields_by_path(self)


def _fields_by_path(record, prefix: str = "") -> dict:
    out = {}
    for f in fields(record):
        value = getattr(record, f.name)
        if is_dataclass(value):
            out.update(_fields_by_path(value, f"{prefix}{f.name}."))
        else:
            out[prefix + f.name] = value
    return out


def build_scenario(feeder: fso_link.FeederConfig,
                   layout: rf_link.BeamLayout,
                   rf: rf_link.RfLinkParams,
                   shadowing: rf_link.ShadowedRicianParams,
                   hpa: transponder.HpaState,
                   mu_r_db: float,
                   gamma_bar2: float | None = None,
                   p_g: float = 1.0,
                   sigma2_sq: float = 1.0,
                   user_index: int = 0,
                   gain_mode: str = "power_constrained",
                   fixed_gain: float = 1.0,
                   turbulence: fso_link.TurbulenceParams | None = None) -> ScenarioConfig:
    """Scenario from raw configuration, feeder SNR in dB.

    ``gamma_bar2`` left unset selects the physical value from the satellite
    power budget; passing it explicitly (the calibrated mode) is recorded in
    the scenario so manifests can tell the two apart.  ``turbulence`` can
    override the pipeline-derived shapes when matching externally reported
    parameter triples.
    """
    if turbulence is None:
        turbulence = fso_link.scintillation_params(feeder.atmosphere)
    return ScenarioConfig(
        feeder=feeder, turbulence=turbulence, layout=layout, rf=rf,
        shadowing=shadowing, hpa=hpa, mu_r=specfun.db_to_linear("mu_r_db", mu_r_db),
        gamma_bar2=gamma_bar2, p_g=p_g, sigma2_sq=sigma2_sq,
        user_index=user_index, gain_mode=gain_mode, fixed_gain=fixed_gain,
        gamma2_source="physical" if gamma_bar2 is None else "explicit")
