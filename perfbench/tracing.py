"""Span recording around the public functions of optfeeder's layers.

A ``Recorder`` replaces module (or class) attributes with thin wrappers that
append one span per call: name, start, end, parent span and an optional work
count.  ``installed`` restores every original attribute on exit, so code run
after it carries no wrapper cost.  Spans stay in memory; the benchmark turns
them into per-layer metrics when the traced pass is over.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

import numpy as np

# Functions whose outermost call produces one reported metric value.  Their
# durations are the value latencies of the end-to-end metrics; they are the
# only wrappers present while end-to-end timings are taken.
VALUE_FUNCTIONS = (
    "analytics.outage_exact",
    "analytics.sndr_cdf_exact",
    "analytics.sndr_pdf_exact",
    "analytics.ber_exact",
    "analytics.capacity_exact",
    "analytics.sndr_moments",
    "analytics.sndr_cdf_oracle",
    "analytics.outage_asymptotic",
    "analytics.ber_asymptotic",
    "montecarlo.empirical_outage",
    "montecarlo.empirical_cdf",
    "montecarlo.empirical_ber",
    "montecarlo.empirical_capacity",
    "montecarlo.empirical_moment",
)


def _n_arguments(args, kwargs, out):
    return int(np.size(kwargs.get("arguments", args[4] if len(args) > 4 else ())))


def _n_points(args, kwargs, out):
    return int(np.size(args[0] if args else kwargs.get("gamma1", ())))


def _grid_nodes(args, kwargs, out):
    plan = out[-1]
    return int(plan.nodes) * int(plan.nodes_t or 1)


def _n_samples(args, kwargs, out):
    return int((args[0] if args else kwargs["plan"]).n_samples)


# Layer boundaries wrapped in the traced pass, with the work each call does
# where the call carries it.  Inner-loop leaves such as fso_link.hv_cn2 run
# ~1e5 times per sweep and stay unwrapped.
TRACED_FUNCTIONS = {
    "cli.main": None,
    "system.build_scenario": None,
    "system.ScenarioConfig.at_mu_r": None,
    "system.sndr": None,
    "transponder.hpa_state": None,
    "rf_link.beam_gain_matrix": None,
    "rf_link.gamma2_ccdf": None,
    "rf_link.sample_gamma2": None,
    "fso_link.scintillation_params": None,
    "fso_link.gamma1_pdf": _n_points,
    "fso_link.sample_gamma1": None,
    "specfun.meijer_g_bivariate_family": _grid_nodes,
    "specfun.meijer_g_many": _n_arguments,
    "specfun.tricomi_u": None,
    "specfun.meijer_g_2_1_1_2": None,
    "analytics.fit_gamma_bar2": None,
    # a generator: its span closes at creation, so only its count is used
    "montecarlo.simulate_sndr": _n_samples,
    **{name: None for name in VALUE_FUNCTIONS},
}


def _resolve(name: str):
    """(owner object, attribute) for 'module.attr' or 'module.Class.attr'.

    A target the library no longer has raises, so a stale metric list fails
    the run instead of reporting zeros."""
    module, *path = name.split(".")
    owner = importlib.import_module(f"optfeeder.{module}")
    for part in path[:-1]:
        owner = getattr(owner, part)
    if path[-1] not in vars(owner):
        raise AttributeError(f"traced target {name} does not exist")
    return owner, path[-1]


class Recorder:
    """Collects spans as ``[name, start, end, parent, count]`` lists."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._clock = clock

    def _wrap(self, name, fn, counter):
        spans, stack, clock = self.spans, self._stack, self._clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if counter is not None:
                span[4] = counter(args, kwargs, out)
            return out

        wrapper.__perfbench_wrapper__ = True
        return wrapper

    @contextlib.contextmanager
    def installed(self, targets: dict):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for name, counter in targets.items():
                owner, attr = _resolve(name)
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, counter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def value_latencies(self) -> list[float]:
        """Durations of value calls not nested inside another value call."""
        value = set(VALUE_FUNCTIONS)
        inside = [False] * len(self.spans)
        out = []
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            in_value = parent >= 0 and (inside[parent]
                                        or self.spans[parent][0] in value)
            inside[i] = in_value
            if name in value and not in_value:
                out.append(end - start)
        return out

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per function: calls, total_s and count over calls not nested in a
        call of the same function; self_s over every call."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats: dict[str, dict[str, float]] = {}
        open_names: list[str] = []   # names on the current ancestor chain
        chain: list[int] = []
        for i, (name, start, end, parent, count) in enumerate(self.spans):
            while chain and chain[-1] != parent:
                chain.pop()
                open_names.pop()
            st = stats.setdefault(name, {"calls": 0, "total_s": 0.0,
                                         "self_s": 0.0, "count": 0})
            st["self_s"] += (end - start) - child_time[i]
            if name not in open_names:
                st["calls"] += 1
                st["total_s"] += end - start
                st["count"] += count
            chain.append(i)
            open_names.append(name)
        return stats


def wrapped_attributes() -> list[str]:
    """Names of traced targets that currently hold a benchmark wrapper."""
    out = []
    for name in TRACED_FUNCTIONS:
        owner, attr = _resolve(name)
        if getattr(vars(owner)[attr], "__perfbench_wrapper__", False):
            out.append(name)
    return out


def tail(values) -> tuple[float, float]:
    """(percentile, value): the highest percentile with 10 samples beyond
    it, i.e. the 11th largest sample.  Below 11 samples: the median."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return 50.0, float(np.median(ordered))
    return 100.0 * (n - 10) / n, ordered[n - 11]
