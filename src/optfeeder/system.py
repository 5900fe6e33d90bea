"""End-to-end scenario assembly: zero-forcing precoder, power bookkeeping,
and the signal-to-noise-plus-distortion law of the relayed forward link.

A ``ScenarioConfig`` freezes one operating point (one average electrical SNR
of the feeder link) and derives every other quantity from its inputs in
``__post_init__``, so each clone made with ``dataclasses.replace`` (sweeps
use :meth:`ScenarioConfig.at_mu_r`) re-derives what its changed input
affects: the relay gain shrinks as the optical transmit power grows, so the
distortion ratio kappa and the noise-amplification constant C both climb
with mu_r.  That coupling is what separates the nonlinear amplifier floors
from the linear-amplifier decay.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import linalg

from . import fso_link, rf_link, transponder

CONDITION_LIMIT = 1e10


class RankDeficientError(ValueError):
    """Gain matrix too ill-conditioned for zero-forcing inversion."""


def trace_bbh_inv(gain_matrix: np.ndarray) -> float:
    """tr[(B B^H)^(-1)], the noise-amplification constant of the precoder.

    Solve-based (no explicit inverse) with a condition-number guard.
    """
    b = np.asarray(gain_matrix, dtype=float)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError("gain matrix must be square")
    svals = np.linalg.svd(b, compute_uv=False)
    if svals[-1] <= 0 or svals[0] / svals[-1] > CONDITION_LIMIT:
        raise RankDeficientError(
            f"smallest singular value {svals[-1]:.3e} fails the conditioning guard")
    bbh = b @ b.T
    return float(np.trace(linalg.solve(bbh, np.eye(b.shape[0]), assume_a="pos")))


def zf_precoder(gain_matrix: np.ndarray, p_g: float) -> tuple[np.ndarray, float]:
    """Zero-forcing precoder T = sqrt(c_zf) B^H (B B^H)^(-1), tr(T T^H) = P_g."""
    if p_g <= 0:
        raise ValueError("power budget must be positive")
    c_zf = p_g / trace_bbh_inv(gain_matrix)
    b = np.asarray(gain_matrix, dtype=float)
    # rows of solve(BBH, B) are (BBH)^-1 B; transpose gives B^H (BBH)^-1
    t_unscaled = linalg.solve(b @ b.T, b, assume_a="pos").T
    return math.sqrt(c_zf) * t_unscaled, c_zf


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
    # derived; the array is left out of == and hash (an array has no truth
    # value), and layout and rf, which fix it, are compared instead
    gain_matrix: np.ndarray = field(init=False, compare=False)
    trace_term: float = field(init=False)
    b_row_norm_sq: float = field(init=False)
    c_zf: float = field(init=False)
    gbar1: float = field(init=False)
    relay_g: float = field(init=False)
    kappa: float = field(init=False)

    def __post_init__(self):
        if self.gain_mode not in ("power_constrained", "fixed"):
            raise ValueError("gain_mode must be 'power_constrained' or 'fixed'")
        if self.p_g <= 0:
            raise ValueError("power budget must be positive")
        b = rf_link.beam_gain_matrix(self.layout, self.rf)
        if not 0 <= self.user_index < b.shape[0]:
            raise ValueError(f"user_index must lie in [0, {b.shape[0]}), "
                             f"not {self.user_index}")
        trace_term = trace_bbh_inv(b)
        row = b[self.user_index]
        b_row_norm_sq = float(row @ row)
        gbar1 = fso_link.gamma1_moment(1, self.detection_r, self.turbulence,
                                       self.feeder.pointing, self.mu_r)
        if self.gain_mode == "fixed":
            relay_g = self.fixed_gain
        elif self.hpa.family == "linear":
            relay_g = 1.0
        else:
            # P_g E[(eta I)^r] / sigma1^2 equals trace_term * gbar1 by the
            # definition of the average feeder SNR, so the power-constrained
            # gain follows without touching eta or P_g explicitly
            relay_g = math.sqrt(self.hpa.p_r / (self.feeder.sigma1_sq
                                                * (trace_term * gbar1 + 1.0)))
        derived = {
            "gain_matrix": b, "trace_term": trace_term,
            "b_row_norm_sq": b_row_norm_sq, "c_zf": self.p_g / trace_term,
            "gbar1": gbar1, "relay_g": relay_g,
            "kappa": 1.0 if self.hpa.family == "linear"
                     else self.hpa.kappa_for_gain(relay_g, self.feeder.sigma1_sq)}
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

    @property
    def p_s(self) -> float:
        """Total satellite transmit power N (K^2 P_r + sigma_NL^2)."""
        return self.gain_matrix.shape[0] * self.hpa.sat_power_tx

    def at_mu_r(self, mu_r: float) -> "ScenarioConfig":
        """Same system at another feeder operating point."""
        return replace(self, mu_r=mu_r)

    def at_mu_r_db(self, mu_r_db: float) -> "ScenarioConfig":
        return self.at_mu_r(10.0 ** (mu_r_db / 10.0))

    def with_gamma_bar2(self, gamma_bar2: float) -> "ScenarioConfig":
        return replace(self, gamma_bar2=gamma_bar2, gamma2_source="explicit")

    def fingerprint(self) -> str:
        """Short stable hash of every input and derived scalar."""
        payload = self.describe()
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def describe(self) -> dict:
        """Flat record of the scenario for manifests and fingerprints."""
        f, t, s, h = self.feeder, self.turbulence, self.shadowing, self.hpa
        a = f.atmosphere
        return {
            "detection_r": f.detection_r,
            "path_loss_il": f.path_loss_il,
            "eta": f.eta,
            "sigma1_sq": f.sigma1_sq,
            "xi": f.pointing.xi,
            "a0": f.pointing.a0,
            "altitude_sat": a.altitude_sat,
            "altitude_ground": a.altitude_ground,
            "zenith_rad": a.zenith_rad,
            "wavelength": a.wavelength,
            "wind_rms": a.wind_rms,
            "cn2_ground": a.cn2_ground,
            "beam_radius_tx": a.beam_radius_tx,
            "beam_wander": a.beam_wander,
            "alpha": t.alpha,
            "beta": t.beta,
            "rytov_var": t.rytov_var,
            "fried_r0": t.fried_r0,
            "sigma_pe": t.sigma_pe,
            "scintillation_index": t.scintillation_index,
            "beam_radius_rf": self.layout.beam_radius,
            "slant_range": self.layout.slant_range,
            "user_placement": "beam_centers" if self.layout.user_positions is None
                              else "explicit",
            "shadowing_m": s.m,
            "shadowing_b": s.b,
            "shadowing_omega": s.omega,
            "hpa_family": h.family,
            "ibo_linear": h.ibo_linear,
            "p_r": h.p_r,
            "k_gain": h.k_gain,
            "sigma_nl_sq": h.sigma_nl_sq,
            "mu_r": self.mu_r,
            "gamma_bar2": self.gamma_bar2,
            "gamma2_source": self.gamma2_source,
            "p_g": self.p_g,
            "sigma2_sq": self.sigma2_sq,
            "user_index": self.user_index,
            "gain_mode": self.gain_mode,
            "fixed_gain": self.fixed_gain,
            "trace_term": self.trace_term,
            "b_row_norm_sq": self.b_row_norm_sq,
            "c_zf": self.c_zf,
            "gbar1": self.gbar1,
            "relay_g": self.relay_g,
            "kappa": self.kappa,
        }


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
        shadowing=shadowing, hpa=hpa, mu_r=10.0 ** (mu_r_db / 10.0),
        gamma_bar2=gamma_bar2, p_g=p_g, sigma2_sq=sigma2_sq,
        user_index=user_index, gain_mode=gain_mode, fixed_gain=fixed_gain,
        gamma2_source="physical" if gamma_bar2 is None else "explicit")
