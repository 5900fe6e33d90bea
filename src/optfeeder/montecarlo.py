"""Independent stochastic verification of every analytic metric.

The simulator draws the composite irradiance and the user fading gain,
forms the end-to-end SNDR through the same algebra the closed forms model,
and reports empirical metrics with binomial or CLT confidence intervals.

Reproducibility contract: streams are counter-based (Philox keyed by the
master seed and the batch index), so results for a fixed (scenario, N,
seed, batch size) are bit-identical no matter how batches are scheduled.
Within a batch numpy's pairwise summation applies; across batches partial
sums are combined with exact float summation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytics, fso_link, rf_link, system
from .system import ScenarioConfig

DEFAULT_BATCH = 1 << 19


@dataclass(frozen=True)
class SimPlan:
    """Scenario, sample budget, and the deterministic stream layout."""
    scenario: ScenarioConfig
    n_samples: int
    seed: int
    batch_size: int = DEFAULT_BATCH

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("need at least one sample")
        if self.batch_size < 1:
            raise ValueError("batch size must be positive")


@dataclass(frozen=True)
class MonteCarloEstimate:
    value: float
    half_width: float       # three standard errors
    n_samples: int

    def covers(self, reference: float) -> bool:
        return abs(self.value - reference) <= self.half_width


def _batch_rng(plan: SimPlan, index: int) -> np.random.Generator:
    key = np.array([plan.seed & 0xFFFFFFFFFFFFFFFF, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def simulate_sndr(plan: SimPlan):
    """Yield batches of end-to-end SNDR samples (deterministic stream)."""
    scn = plan.scenario
    remaining = plan.n_samples
    index = 0
    while remaining > 0:
        n = min(plan.batch_size, remaining)
        rng = _batch_rng(plan, index)
        g1 = fso_link.sample_gamma1(scn.detection_r, scn.turbulence,
                                    scn.feeder.pointing, scn.mu_r, rng, n)
        g2 = rf_link.sample_gamma2(scn.shadowing, scn.gamma_bar2, rng, n)
        yield system.sndr(g1, g2, scn)
        remaining -= n
        index += 1


def _mean_ci(plan: SimPlan, transform) -> MonteCarloEstimate:
    sums, sq_sums, count = [], [], 0
    for batch in simulate_sndr(plan):
        vals = transform(batch)
        sums.append(float(np.sum(vals)))
        sq_sums.append(float(np.sum(vals * vals)))
        count += vals.size
    mean = math.fsum(sums) / count
    var = max(math.fsum(sq_sums) / count - mean * mean, 0.0)
    half = 3.0 * math.sqrt(var / count)
    return MonteCarloEstimate(mean, half, count)


def empirical_outage(plan: SimPlan, gamma_th: float) -> MonteCarloEstimate:
    """Fraction of SNDR samples below the threshold, with binomial 3-sigma."""
    if gamma_th < 0:
        raise ValueError("threshold must be nonnegative")
    return empirical_cdf(plan, [gamma_th])[0]


def empirical_cdf(plan: SimPlan, points) -> list[MonteCarloEstimate]:
    """Empirical CDF at several points from one shared sample stream."""
    pts = np.asarray(points, dtype=float)
    hits = np.zeros(pts.size)
    count = 0
    for batch in simulate_sndr(plan):
        hits += (batch[:, None] < pts[None, :]).sum(axis=0)
        count += batch.size
    out = []
    for h in hits:
        p = h / count
        half = 3.0 * math.sqrt(max(p * (1.0 - p), 1.0 / count) / count)
        out.append(MonteCarloEstimate(p, half, count))
    return out


def empirical_ber(plan: SimPlan, mod: analytics.ModulationSpec) -> MonteCarloEstimate:
    """Average of the exact conditional BER over the SNDR stream.

    For the p = 1/2 family the conditional BER is a finite erfc sum,
    delta/2 sum_u erfc(sqrt(q_u gamma)), so averaging it is unbiased.
    """
    analytics.check_detection(mod, plan.scenario)
    from scipy.special import erfc as _erfc

    def conditional(g):
        acc = np.zeros_like(g)
        for q in mod.q_values:
            acc += _erfc(np.sqrt(q * g))
        return 0.5 * mod.delta * acc

    return _mean_ci(plan, conditional)


def empirical_capacity(plan: SimPlan) -> MonteCarloEstimate:
    """Sample mean of log2(1 + tau gamma), tau set by the detection type."""
    tau = analytics.capacity_tau(plan.scenario)
    return _mean_ci(plan, lambda g: np.log2(1.0 + tau * g))


def empirical_moment(plan: SimPlan, order: int) -> MonteCarloEstimate:
    """Sample moment E[gamma^order]."""
    if order < 1:
        raise ValueError("order must be a positive integer")
    return _mean_ci(plan, lambda g: g ** order)
