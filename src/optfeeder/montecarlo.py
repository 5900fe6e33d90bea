"""Independent stochastic verification of every analytic metric.

The simulator draws the composite irradiance and the user fading gain,
forms the end-to-end SNDR through the same algebra the closed forms model,
and reports empirical metrics with binomial or CLT confidence intervals.

Reproducibility contract: streams are counter-based (Philox keyed by the
master seed and the batch index), so results for a fixed (scenario, N,
seed, batch size) are bit-identical no matter how batches are scheduled.
Within a batch numpy's pairwise summation applies; across batches partial
sums are combined with exact float summation.  A plan carries one or more
scenarios that agree on ``stream_key``: every scenario of the plan reads
the same draws, so each of its estimates is bit-identical to the one a
plan of that scenario alone gives (common random numbers across a sweep).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from . import analytics, fso_link, rf_link, system
from .specfun import erfc
from .system import ScenarioConfig

DEFAULT_BATCH = 1 << 19


def stream_key(scn: ScenarioConfig) -> dict:
    """The scenario inputs the sampled stream reads, by name.

    Scenarios that agree on them (they may differ in mu_r, kappa, C and
    ||b||^2) can share one plan and so one set of draws.
    """
    return {"detection_r": scn.detection_r, "turbulence": scn.turbulence,
            "pointing": scn.feeder.pointing, "shadowing": scn.shadowing,
            "gamma_bar2": scn.gamma_bar2}


@dataclass(frozen=True)
class SimPlan:
    """Scenarios, sample budget, and the deterministic stream layout.

    ``scenarios`` is a tuple of scenarios that share the stream; every
    estimator returns a list of one estimate per scenario, in order.
    """
    scenarios: tuple[ScenarioConfig, ...]
    n_samples: int
    seed: int
    batch_size: int = DEFAULT_BATCH

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("need at least one sample")
        if self.batch_size < 1:
            raise ValueError("batch size must be positive")
        if not self.scenarios:
            raise ValueError("need at least one scenario")
        first = stream_key(self.scenarios[0])
        for i, scn in enumerate(self.scenarios[1:], 1):
            for name, value in stream_key(scn).items():
                if value != first[name]:
                    raise ValueError(f"the scenarios of one plan must share "
                                     f"{name}: scenario {i} differs from scenario 0")


@dataclass(frozen=True)
class MonteCarloEstimate:
    value: float
    half_width: float       # three standard errors
    n_samples: int

    def covers(self, reference: float) -> bool:
        return abs(self.value - reference) <= self.half_width


def _batch_rng(plan: SimPlan, index: int) -> np.random.Generator:
    key = np.array([plan.seed & 0xFFFFFFFFFFFFFFFF, index], dtype=np.uint64)
    return Generator(Philox(key=key))


def simulate_sndr(plan: SimPlan):
    """Yield batches of end-to-end SNDR samples (deterministic stream).

    Batch-major, scenario-minor: for each batch of draws, one array per
    scenario of the plan, so item i belongs to scenario i % len(scenarios).
    Each batch is drawn once with unit mu_r and scaled per scenario
    (1.0 * x == x, so every scenario gets the bytes of its own stream).
    """
    scns = plan.scenarios
    first = scns[0]
    remaining = plan.n_samples
    index = 0
    while remaining > 0:
        n = min(plan.batch_size, remaining)
        rng = _batch_rng(plan, index)
        x = fso_link.sample_gamma1(first.feeder_law, 1.0, rng, n)
        g2 = rf_link.sample_gamma2(first.shadowing, first.gamma_bar2, rng, n)
        for scn in scns:
            yield system.sndr(scn.mu_r * x, g2, scn)
        remaining -= n
        index += 1


def _cdf_hits(plan: SimPlan, thresholds: np.ndarray) -> np.ndarray:
    """Per scenario (row), the samples below each of that row's thresholds."""
    hits = np.zeros(thresholds.shape)
    n_scn = len(plan.scenarios)
    for i, batch in enumerate(simulate_sndr(plan)):
        k = i % n_scn
        hits[k] += (batch[:, None] < thresholds[k][None, :]).sum(axis=0)
    return hits


def _binomial(hits: float, count: int) -> MonteCarloEstimate:
    p = hits / count
    half = 3.0 * math.sqrt(max(p * (1.0 - p), 1.0 / count) / count)
    return MonteCarloEstimate(p, half, count)


def _mean_ci(plan: SimPlan, transform):
    n_scn = len(plan.scenarios)
    sums = [[] for _ in range(n_scn)]
    sq_sums = [[] for _ in range(n_scn)]
    for i, batch in enumerate(simulate_sndr(plan)):
        vals = transform(batch)
        sums[i % n_scn].append(float(np.sum(vals)))
        sq_sums[i % n_scn].append(float(np.sum(vals * vals)))
    count = plan.n_samples
    out = []
    for s, sq in zip(sums, sq_sums):
        mean = math.fsum(s) / count
        var = max(math.fsum(sq) / count - mean * mean, 0.0)
        out.append(MonteCarloEstimate(mean, 3.0 * math.sqrt(var / count), count))
    return out


def empirical_outage(plan: SimPlan, thresholds):
    """Per scenario, the fraction of its SNDR samples below its own entry of
    ``thresholds`` (one per scenario of the plan), with binomial 3-sigma."""
    th = np.asarray(thresholds, dtype=float)
    if th.shape != (len(plan.scenarios),) or not np.all(th >= 0):     # NaN fails too
        raise ValueError(f"need one nonnegative threshold per scenario, not {th}")
    hits = _cdf_hits(plan, th[:, None])
    return [_binomial(row[0], plan.n_samples) for row in hits]


def empirical_cdf(plan: SimPlan, points):
    """Empirical CDF at several points from one shared sample stream: per
    scenario, a list over the points."""
    pts = np.asarray(points, dtype=float)
    if not np.all(pts >= 0):    # NaN fails too
        raise ValueError(f"points must be nonnegative, not {pts}")
    hits = _cdf_hits(plan, np.tile(pts, (len(plan.scenarios), 1)))
    return [[_binomial(h, plan.n_samples) for h in row] for row in hits]


def empirical_ber(plan: SimPlan, mod: analytics.ModulationSpec):
    """Average of the exact conditional BER over the SNDR stream.

    With p = ``analytics.BER_P`` = 1/2 the conditional BER is a finite erfc
    sum, delta/2 sum_u erfc(sqrt(q_u gamma)), so averaging it is unbiased.
    """
    analytics.check_detection(mod, plan.scenarios[0])

    def conditional(g):
        acc = np.zeros_like(g)
        for q in mod.q_values:
            acc += erfc(np.sqrt(q * g))
        return 0.5 * mod.delta * acc

    return _mean_ci(plan, conditional)


def empirical_capacity(plan: SimPlan):
    """Sample mean of log2(1 + tau gamma), tau set by the detection type."""
    tau = analytics.capacity_tau(plan.scenarios[0])
    return _mean_ci(plan, lambda g: np.log2(1.0 + tau * g))


def empirical_moment(plan: SimPlan, order: int):
    """Sample moment E[gamma^order]."""
    order = analytics.check_moment_order(order)
    return _mean_ci(plan, lambda g: g ** order)
