"""Special-function layer: the scipy functions the library calls and its own
scalar functions against independent oracles, and the Mellin-Barnes engines
against reduction identities and brute-force quadrature."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special as sp
from scipy.integrate import dblquad, quad

from optfeeder import rf_link, specfun
from conftest import rng_for


# ---------------------------------------------------------------------------
# scalar functions
# ---------------------------------------------------------------------------

def _lanczos_ln_gamma(x):
    # Lanczos g=7, n=9 coefficients (Godfrey); independent of scipy
    g = 7.0
    c = [0.99999999999980993, 676.5203681218851, -1259.1392167224028,
         771.32342877765313, -176.61502916214059, 12.507343278686905,
         -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7]
    x -= 1.0
    a = c[0]
    t = x + g + 0.5
    for i in range(1, 9):
        a += c[i] / (x + i)
    return 0.5 * math.log(2 * math.pi) + (x + 0.5) * math.log(t) - t + math.log(a)


def _stirling_ln_gamma(x, shift=12):
    # Stirling series after shifting x upward for accuracy
    n = 0
    while x < shift:
        n += 1
        x += 1.0
    b = [1.0 / 12, -1.0 / 360, 1.0 / 1260, -1.0 / 1680, 1.0 / 1188]
    s = (x - 0.5) * math.log(x) - x + 0.5 * math.log(2 * math.pi)
    xp = x
    for bk in b:
        s += bk / xp
        xp *= x * x
    for i in range(n):
        s -= math.log(x - 1 - i)
    return s


def test_ln_gamma_values():
    # meijer_g_2_1_1_2 builds its gamma prefactors from gammaln and gammasgn
    assert sp.gammasgn(0.5) == 1.0
    assert sp.gammaln(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)
    assert sp.gammaln(1.0) == pytest.approx(0.0, abs=1e-14)
    # two independent series oracles agree, then pin scipy's value to them
    lan = _lanczos_ln_gamma(10.3)
    sti = _stirling_ln_gamma(10.3)
    assert lan == pytest.approx(sti, rel=1e-12)
    assert sp.gammaln(10.3) == pytest.approx(lan, rel=1e-12)


def test_ln_gamma_relative_error_sweep():
    rng = rng_for(101)
    for _ in range(200):
        x = math.exp(rng.uniform(math.log(1e-3), math.log(170.0)))
        ref = _lanczos_ln_gamma(x)
        assert sp.gammaln(x) == pytest.approx(ref, rel=1e-13, abs=1e-13)


def _rising(a, k):
    out = 1.0
    for i in range(k):
        out *= a + i
    return out


def test_pochhammer():
    # the finite-sum weights (-1)^k (1-m)_k / k! z^k of integer severity,
    # built from a direct rising-factorial product, are C(m-1, k) z^k; the
    # product crosses zero exactly, which truncates the series at k = m-1
    assert _rising(3.0, 0) == 1.0
    assert _rising(-2.0, 3) == 0.0
    assert _rising(1.5, 4) == pytest.approx(59.0625)
    for m in (1, 2, 5, 19, 30):
        p = rf_link.ShadowedRicianParams(m=m, b=0.158, omega=1.29)
        z = p.omega / (2 * p.b * p.m)
        ref = [(-1) ** k * _rising(1.0 - m, k) / math.factorial(k) * z ** k
               for k in range(m)]
        np.testing.assert_allclose(rf_link.series_coeffs(p), ref, rtol=1e-14)
        assert _rising(1.0 - m, m) == 0.0


def test_hyp1f1_identities():
    # shadowed_rician_pdf evaluates the confluent factor through sp.hyp1f1
    assert sp.hyp1f1(1.0, 1.0, 2.0) == pytest.approx(math.exp(2.0), rel=1e-12)
    assert sp.hyp1f1(7.0, 1.0, 0.0) == 1.0


def test_hyp1f1_against_rational_series():
    # exact-rational truncated Kummer series; 200 terms converge far past
    # double precision for these arguments
    a, b, x = 19, 1, Fraction(3)
    term = Fraction(1)
    total = Fraction(1)
    for k in range(200):
        term *= Fraction(a + k, b + k) * x / (k + 1)
        total += term
    assert sp.hyp1f1(19.0, 1.0, 3.0) == pytest.approx(float(total), rel=1e-10)


def test_exp_integral_ei():
    # quadrature oracle: Ei(-1) = -int_1^inf e^-t / t dt
    ref, _ = quad(lambda t: math.exp(-t) / t, 1.0, np.inf)
    assert sp.expi(-1.0) == pytest.approx(-ref, rel=1e-10)
    # asymptotic-series oracle at -100
    x = 100.0
    series = sum((-1) ** k * math.factorial(k) / x ** k for k in range(8))
    ref_asym = -math.exp(-x) / x * series
    assert sp.expi(-100.0) == pytest.approx(ref_asym, rel=1e-8)


def test_exp_scaled_e1():
    for x in (0.5, 2.0, 10.0, 300.0, 5e4):
        ref, _ = quad(lambda t: math.exp(-t) / (t + x), 0.0, np.inf, limit=200)
        assert specfun.exp_scaled_e1(x) == pytest.approx(ref, rel=1e-12)


def test_erfc_and_bessels():
    assert sp.erfc(0.0) == 1.0
    # half-integer closed form K_{1/2}(x) = sqrt(pi/(2x)) e^-x
    ref = math.sqrt(math.pi / 4.0) * math.exp(-2.0)
    assert sp.kv(0.5, 2.0) == pytest.approx(ref, rel=1e-12)
    assert sp.kv(0.5, 2.0) == pytest.approx(0.1199377, rel=1e-6)


def _bessel_j1_series(x, terms=60):
    total = 0.0
    for k in range(terms):
        total += (-1) ** k / (math.factorial(k) * math.factorial(k + 1)) \
            * (x / 2.0) ** (2 * k + 1)
    return total


def test_bessel_j1_first_zero():
    # bracket the first zero of the series oracle, then check ours there
    lo, hi = 3.8, 3.9
    assert _bessel_j1_series(lo) > 0 > _bessel_j1_series(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _bessel_j1_series(mid) > 0:
            lo = mid
        else:
            hi = mid
    zero = 0.5 * (lo + hi)
    assert zero == pytest.approx(3.8317059702, abs=1e-8)
    assert abs(sp.jv(1, zero)) < 1e-10


def test_gauss_panels_closed_forms():
    # x^(5/6) on a geometric ladder toward its singular derivative at 0
    edges = np.concatenate(([0.0], np.geomspace(2.0 ** -40, 1.0, 41)))
    got = specfun.gauss_panels(lambda x: x ** (5.0 / 6.0), edges, 1e-15)
    assert got == pytest.approx(6.0 / 11.0, rel=1e-13, abs=0.0)
    # e^-x on one panel: the 20- and 40-point values disagree, so the
    # panel is halved until they agree
    levels = []

    def exp_counted(x):
        levels.append(x.size)
        return np.exp(-x)

    got = specfun.gauss_panels(exp_counted, np.array([0.0, 50.0]), 1e-15)
    assert got == pytest.approx(-math.expm1(-50.0), rel=1e-13, abs=0.0)
    assert len(levels) > 1 and levels[0] == 60


# ---------------------------------------------------------------------------
# univariate Meijer G
# ---------------------------------------------------------------------------

def test_meijer_g_exponential_identity():
    rng = rng_for(7)
    for _ in range(40):
        z = rng.uniform(1e-3, 20.0)
        vals, _, _ = specfun.meijer_g_many((), (0.0,), 1, 0, [z])
        assert vals[0] == pytest.approx(math.exp(-z), rel=1e-10)


def test_meijer_g_bessel_reduction_random():
    # G^{2,0}_{0,2}(z | -; b1, b2) = 2 z^((b1+b2)/2) K_{b1-b2}(2 sqrt z)
    rng = rng_for(8)
    for _ in range(200):
        b1 = rng.uniform(-2.0, 2.0)
        b2 = b1 - rng.uniform(-3.0, 3.0)
        z = rng.uniform(1e-2, 10.0)
        got = specfun.meijer_g_many((), (b1, b2), 2, 0, [z])[0][0]
        ref = 2.0 * z ** (0.5 * (b1 + b2)) * sp.kv(b1 - b2, 2.0 * math.sqrt(z))
        assert abs(got - ref) <= 1e-7 * abs(ref)


def test_meijer_g_error_model_self_consistent():
    # halving the step (extra refinement via tighter tolerance) moves the
    # value by less than the reported error estimate
    shape = ((2.21,), (1.21, 2.57, 5.36), 3, 0, [0.8])
    coarse, coarse_err, _ = specfun.meijer_g_many(*shape, rel_tol=1e-7)
    fine, fine_err, _ = specfun.meijer_g_many(*shape, rel_tol=1e-11)
    assert abs(coarse[0] - fine[0]) <= coarse_err + fine_err


def test_meijer_g_2_1_1_2_oracle():
    # independent Mellin inversion on a second quadrature grid (dense
    # trapezoid with half step and doubled height)
    z, a, b1, b2 = 0.5, 0.0, 1.0, 1.0
    vals, _, plan = specfun.meijer_g_many((a,), (b1, b2), 2, 1, [z])
    sig = plan.abscissa
    y = np.linspace(-2 * plan.half_height, 2 * plan.half_height,
                    4 * plan.nodes + 1)
    s = sig + 1j * y
    f = np.exp(sp.loggamma(b1 - s) + sp.loggamma(b2 - s)
               + sp.loggamma(1 - a + s) + s * np.log(z))
    ref = float(np.real(np.trapezoid(f, y))) / (2.0 * math.pi)
    assert vals[0] == pytest.approx(ref, rel=1e-8)
    # and against the Tricomi-U route
    assert specfun.meijer_g_2_1_1_2(z, a, b1, b2) == pytest.approx(vals[0], rel=1e-8)


def test_meijer_g_2_1_1_2_moment_limit():
    # z -> 0 with b = (0, 1), a = 1 - n tends to Gamma(n)
    for n in (1, 2, 3):
        val = specfun.meijer_g_2_1_1_2(1e-9, 1.0 - n, 0.0, 1.0)
        assert val == pytest.approx(math.gamma(n), rel=1e-6)


@pytest.mark.parametrize("a1", [1.0, 2.0])
def test_meijer_g_2_1_1_2_pole_raises(a1):
    # a1 - b1 a positive integer: a prefactor gamma sits on a pole and
    # G^{2,1}_{1,2}(z | a1; 0, 1) is undefined
    with pytest.raises(specfun.PoleCollisionError):
        specfun.meijer_g_2_1_1_2(0.5, a1, 0.0, 1.0)


def test_meijer_g_many_touching_families_raise():
    # left family of Gamma(1 - a + s) ends at a - 1 = 0, right family of
    # Gamma(b - s) starts at b = 0: no vertical contour separates them
    with pytest.raises(specfun.PoleCollisionError):
        specfun.meijer_g_many((1.0,), (0.0,), 1, 1, [0.5])


def _meijer_g_many_full_contour(a, b, m, n, z, rel_tol):
    # the univariate engine summed over the whole contour with an
    # arguments x nodes kernel, its monitors read from that kernel; returns
    # (values, error, plan, round-off floor)
    a, b = tuple(map(float, a)), tuple(map(float, b))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    lnz = np.log(z)
    if z.size > 1 and float(np.max(lnz) - np.min(lnz)) > 4.0:
        order = np.argsort(lnz)
        lo_i, hi_i = order[:z.size // 2], order[z.size // 2:]
        v1, e1, plan, f1 = _meijer_g_many_full_contour(a, b, m, n, z[lo_i], rel_tol)
        v2, e2, _, f2 = _meijer_g_many_full_contour(a, b, m, n, z[hi_i], rel_tol)
        out = np.empty_like(z)
        out[lo_i], out[hi_i] = v1, v2
        return out, max(e1, e2), plan, max(f1, f2)
    decay = specfun._decay_rate(len(a), len(b), m, n)
    if decay <= 0:
        raise specfun.ConvergenceError("integrand does not decay")
    sigma = specfun._plan_abscissa(a, b, m, n, lnz=float(np.mean(lnz)))
    half_h = (-math.log(rel_tol * 1e-3) + 8.0) / decay + 0.6 * abs(sigma)
    osc = max(1.0, float(np.max(np.abs(lnz))))
    nodes = 1 + 2 ** int(math.ceil(math.log2(max(256.0, 4.0 * half_h * osc / math.pi))))
    prev = None
    for _ in range(24):
        y = np.linspace(-half_h, half_h, nodes)
        s = sigma + 1j * y
        kern = np.exp(specfun._line_log_block(a, b, m, n, s)[None, :]
                      + np.outer(lnz, s))
        h = y[1] - y[0]
        vals = np.real(kern.sum(axis=1) - 0.5 * (kern[:, 0] + kern[:, -1])) \
            * h / (2.0 * math.pi)
        mags = np.abs(kern)
        blk = min(8, (nodes - 1) // 4)
        outer = 0.5 * (mags[:, :blk].mean(axis=1) + mags[:, -blk:].mean(axis=1))
        inner = 0.5 * (mags[:, blk:2 * blk].mean(axis=1)
                       + mags[:, -2 * blk:-blk].mean(axis=1))
        ratio = float(np.max(outer / np.maximum(inner, 1e-300))) ** (1.0 / blk)
        divisor = max(1.0 - min(ratio, 0.97), 0.03)
        tail = float(np.max(outer)) * h / (2.0 * math.pi) / divisor
        round_floor = 1e-15 * float(np.max(mags.sum(axis=1))) * h / (2.0 * math.pi)
        budget = max(rel_tol * (float(np.max(np.abs(vals))) + 1e-300),
                     4.0 * round_floor)
        if tail > 0.25 * budget:
            half_h *= 1.5
            nodes = 1 + int(1.5 * (nodes - 1))
            prev = None
            continue
        if prev is not None:
            step = float(np.max(np.abs(vals - prev)))
            if step <= budget:
                return vals, step + tail + round_floor, \
                    specfun.ContourPlan(sigma, half_h, nodes), round_floor
        prev = vals
        nodes = 1 + 2 * (nodes - 1)
        if nodes > 2 ** 22:
            break
    raise specfun.ConvergenceError("did not converge")


def test_meijer_g_many_matches_full_contour_sum():
    # seeded shapes, some with batches wide enough to split: the half-contour
    # sum with rank-one monitors picks the same contour as the full-contour
    # kernel, and its values agree to 1e-12 of the batch maximum, or to the
    # round-off floor where cancellation along the contour makes that larger
    rng = rng_for(31)
    compared = raised = 0
    for _ in range(300):
        while True:     # decay at least pi along the contour
            q = int(rng.integers(1, 5))
            p = int(rng.integers(0, q + 1))
            m = int(rng.integers(1, q + 1))
            n = int(rng.integers(0, p + 1))
            if 2 * (m + n) >= p + q + 2:
                break
        a = tuple(np.round(rng.uniform(-1.0, 2.0, p), 2))
        b = tuple(np.round(rng.uniform(-0.5, 3.0, q), 2))
        z = np.exp(rng.uniform(-3.0, 2.0)
                   + rng.uniform(-2.5, 2.5, int(rng.integers(1, 30))))
        rel_tol = float(rng.choice([1e-7, 1e-8, 1e-10]))
        try:
            ref, ref_err, ref_plan, floor = _meijer_g_many_full_contour(
                a, b, m, n, z, rel_tol)
        except (specfun.ConvergenceError, specfun.PoleCollisionError) as exc:
            with pytest.raises(type(exc)):
                specfun.meijer_g_many(a, b, m, n, z, rel_tol)
            raised += 1
            continue
        vals, err, plan = specfun.meijer_g_many(a, b, m, n, z, rel_tol)
        assert plan == ref_plan, (a, b, m, n)
        atol = max(1e-12 * float(np.max(np.abs(ref))), floor)
        np.testing.assert_allclose(vals, ref, rtol=0.0, atol=atol)
        # the error holds the last step, a difference of two such sums
        assert err == pytest.approx(ref_err, rel=1e-6, abs=2.0 * atol)
        compared += 1
    assert compared >= 200 and raised >= 10


def test_tricomi_u_matches_mpmath():
    mp = pytest.importorskip("mpmath")
    rng = rng_for(9)
    for _ in range(40):
        a = rng.uniform(0.2, 6.0)
        b = rng.uniform(-3.0, 3.0)
        z = rng.uniform(0.05, 50.0)
        ref = float(mp.hyperu(a, b, z))
        assert specfun.tricomi_u(a, b, z) == pytest.approx(ref, rel=1e-10)


def test_tricomi_u_negative_first_parameter():
    # downward recurrence branch; mpmath handles a < 0 directly
    mp = pytest.importorskip("mpmath")
    for a, b, z in ((-0.6, 0.0, 2.0), (-1.6, 1.0, 7.0), (-3.3, -0.5, 0.9)):
        ref = float(mp.hyperu(a, b, z))
        assert specfun.tricomi_u(a, b, z) == pytest.approx(ref, rel=1e-9)


def test_tricomi_u_small_argument():
    # the deep-SNR regime of the moments and expansions: z down to 1e-10,
    # where the kernel's (1 + t)^(b-a-1) turns over far from its peak; the
    # last case is one where a two-piece adaptive quad lost every digit
    mp = pytest.importorskip("mpmath")
    rng = rng_for(33)
    cases = [(rng.uniform(0.01, 25.0), rng.uniform(-3.0, 20.0),
              10.0 ** rng.uniform(-10.0, -4.0)) for _ in range(40)]
    cases.append((13.80, 0.297, 3.39e-7))
    with mp.workdps(30):
        for a, b, z in cases:
            ref = float(mp.hyperu(a, b, z))
            assert specfun.tricomi_u(a, b, z) == pytest.approx(ref, rel=1e-12), (a, b, z)


# ---------------------------------------------------------------------------
# bivariate Meijer G
# ---------------------------------------------------------------------------

def _cdf_t_block(r, alpha, beta, xi2):
    upper = (specfun.duplication_split(r, 1 - xi2)
             + specfun.duplication_split(r, 1 - alpha)
             + specfun.duplication_split(r, 1 - beta))
    lower = specfun.duplication_split(r, -xi2) + (0.0,)
    return specfun.GBlock(a=upper, b=lower, m=0, n=3 * r)


def test_bivariate_against_double_quadrature():
    # fixed parameter set: r=1, alpha=2.57, beta=5.36, xi=1.1, j=0, args 1
    alpha, beta, xi2, j = 2.57, 5.36, 1.21, 0
    t_block = _cdf_t_block(1, alpha, beta, xi2)
    total, err, plan = specfun.meijer_g_bivariate_family(
        [j], t_block, 1.0, 1.0, rel_tol=1e-9)

    ss, st = plan.abscissa, plan.abscissa_t

    def integrand(v, u):
        s = ss + 1j * u
        t = st + 1j * v
        lg = (sp.loggamma(s + t) + sp.loggamma(j - s) + sp.loggamma(1 - s)
              + sp.loggamma(xi2 + t) + sp.loggamma(alpha + t)
              + sp.loggamma(beta + t)
              - sp.loggamma(xi2 + 1 + t) - sp.loggamma(1 + t))
        return float(np.real(np.exp(lg))) / (4.0 * math.pi ** 2)

    ref, _ = dblquad(integrand, -40, 40, -40, 40, epsabs=1e-11, epsrel=1e-9)
    assert total == pytest.approx(ref, rel=1e-8)
    assert err < 1e-6 * abs(total)


def test_bivariate_step_halving_within_error():
    alpha, beta, xi2 = 1.52, 3.29, 1.21
    args = ([1], _cdf_t_block(2, alpha, beta, xi2), 0.4, 25.0)
    coarse, coarse_err, _ = specfun.meijer_g_bivariate_family(*args, rel_tol=1e-7)
    fine, fine_err, _ = specfun.meijer_g_bivariate_family(*args, rel_tol=1e-10)
    assert abs(coarse - fine) <= coarse_err + fine_err


def test_bivariate_family_matches_single_calls():
    # a single term has the Pochhammer polynomial P = 1, so the family total
    # checks P against the plain integrals; without j = 0 the whole family's
    # s-line is planned at min(j, 1) = 1 and the polynomial starts at j0 = 1
    from optfeeder import analytics
    t_block = _cdf_t_block(1, 2.57, 5.36, 1.21)
    w19 = analytics._sum_weights(
        rf_link.ShadowedRicianParams(m=19, b=0.158, omega=1.29))
    for js, w in ((range(19), w19), ([1, 2, 3], [0.5, 2.0, 0.25])):
        total, _, _ = specfun.meijer_g_bivariate_family(
            js, t_block, 0.7, 3.0, weights=w, rel_tol=1e-9)
        singles = [specfun.meijer_g_bivariate_family(
            [j], t_block, 0.7, 3.0, rel_tol=1e-9)[0] for j in js]
        assert total == pytest.approx(float(np.dot(w, singles)), rel=1e-7)


def _bivariate_dense(js, t_block, x1, x2, w, rel_tol):
    # the bivariate engine with its (2ns+1) x (2nt+1) kernel built in full
    # and its weighted s-kernel summed from per-term Gamma(j - s), without
    # the Pochhammer product; returns (total, error, plan, round-off floor),
    # the error being step + tail + round-off floor
    sigma_s, sigma_t = specfun._plan_bivariate(js, t_block)
    dec_s = 1.25 * math.pi
    dec_t = specfun._decay_rate(len(t_block.a), len(t_block.b), t_block.m,
                                t_block.n) + 0.25 * math.pi
    half_s = half_t = -math.log(rel_tol * 1e-3) + 6.0
    half_s, half_t = half_s / dec_s, half_t / dec_t
    h = min(math.pi / (3.0 * max(1.0, abs(math.log(x1)), abs(math.log(x2)))), 0.125)

    def edge_tail(mags, blk):
        outer = 0.5 * (mags[:blk].mean() + mags[-blk:].mean())
        inner = 0.5 * (mags[blk:2 * blk].mean() + mags[-2 * blk:-blk].mean())
        ratio = float(outer / max(inner, 1e-300)) ** (1.0 / blk)
        return outer, max(1.0 - min(ratio, 0.97), 0.03)

    prev = None
    for _ in range(20):
        ns, nt = int(math.ceil(half_s / h)), int(math.ceil(half_t / h))
        s = sigma_s + 1j * h * np.arange(-ns, ns + 1)
        t = sigma_t + 1j * h * np.arange(-nt, nt + 1)
        log_t = specfun._line_log_block(t_block.a, t_block.b, t_block.m,
                                        t_block.n, t) + t * math.log(x2)
        log_c = sp.loggamma((sigma_s + sigma_t)
                            + 1j * h * np.arange(-(ns + nt), ns + nt + 1))
        idx = np.arange(2 * ns + 1)[:, None] + np.arange(2 * nt + 1)[None, :]
        kernel = np.exp(log_c[idx] + log_t[None, :])
        kernel[:, 0] *= 0.5
        kernel[:, -1] *= 0.5
        blk_t = min(8, nt // 2)
        mag_t = np.abs(kernel)
        t_edge = mag_t[:, :blk_t].mean(axis=1) + mag_t[:, -blk_t:].mean(axis=1)
        t_cont = 1.0 / edge_tail(mag_t.sum(axis=0), blk_t)[1]
        tvec = kernel.sum(axis=1)
        terms = [wj * np.exp(sp.loggamma(j - s) + sp.loggamma(1.0 - s)
                             + s * math.log(x1)) for j, wj in zip(js, w)]
        fs = np.sum(terms, axis=0)
        fs_mod = np.sum(np.abs(terms), axis=0)
        row, mag_row = fs * tvec, fs_mod * np.abs(tvec)
        row[[0, -1]] *= 0.5
        mag_row[[0, -1]] *= 0.5
        quadw = h * h / (4.0 * math.pi ** 2)
        total = float(np.real(np.sum(row))) * quadw
        outer_s, s_div = edge_tail(mag_row, min(8, ns // 2))
        tail = (outer_s / s_div + float(fs_mod @ t_edge) * t_cont) * quadw
        abs_mass = float(mag_row.sum()) * quadw
        budget = max(rel_tol * abs(total), 4e-15 * abs_mass)
        if tail > 0.25 * budget:
            half_s *= 1.4
            half_t *= 1.4
            prev = None
            continue
        if prev is not None and abs(total - prev) <= budget:
            floor = 1e-15 * abs_mass
            return total, abs(total - prev) + tail + floor, specfun.ContourPlan(
                sigma_s, half_s, 2 * ns + 1, abscissa_t=sigma_t,
                half_height_t=half_t, nodes_t=2 * nt + 1), floor
        prev = total
        h *= 0.5
    raise specfun.ConvergenceError("did not converge")


def test_bivariate_hankel_matches_dense_kernel():
    # seeded families of every metric's t-block under both detections: the
    # Hankel t-collapse and the Pochhammer polynomial give the plan of the
    # dense 2-D kernel with per-term gammas, the total to 1e-11 of its own
    # size, or to the round-off floor where cancellation across the grid
    # makes that larger, and the error estimate, whose t-tail term pins the
    # edge column sums of the t-tail monitor, to 1e-6 of its own size or
    # to the same floor
    from optfeeder import analytics
    rng = rng_for(32)
    blocks = {"cdf": ((), (), 0.0), "pdf": ((), (), 1.0),
              "ber": ((), (0.5,), 0.0), "capacity": ((1.0,), (1.0,), 0.0)}
    for case in range(40):
        r = 1 + case % 2
        top, bottom, last = blocks[("cdf", "pdf", "ber", "capacity")[(case // 2) % 4]]
        alpha, beta = rng.uniform(1.2, 6.0), rng.uniform(0.8, 3.0)
        xi2 = rng.uniform(0.5, 6.0)
        t_block = specfun.GBlock(
            a=(top + specfun.duplication_split(r, 1.0 - xi2)
               + specfun.duplication_split(r, 1.0 - alpha)
               + specfun.duplication_split(r, 1.0 - beta)),
            b=bottom + specfun.duplication_split(r, -xi2) + (last,),
            m=len(bottom), n=len(top) + 3 * r)
        shadow = rf_link.ShadowedRicianParams(
            m=int(rng.integers(1, 20)), b=rng.uniform(0.05, 0.3),
            omega=rng.uniform(0.1, 2.0))
        w = analytics._sum_weights(shadow)
        js = range(len(w))
        x1, x2 = np.exp(rng.uniform(-12.0, 1.0)), np.exp(rng.uniform(-4.0, 9.0))
        rel_tol = float(rng.choice([1e-9, 1e-7]))
        ref_total, ref_err, ref_plan, floor = _bivariate_dense(
            js, t_block, x1, x2, w, rel_tol)
        total, err, plan = specfun.meijer_g_bivariate_family(
            js, t_block, x1, x2, weights=w, rel_tol=rel_tol)
        assert plan == ref_plan, case
        assert abs(total - ref_total) <= max(1e-11 * abs(ref_total), floor), case
        assert abs(err - ref_err) <= 1e-6 * ref_err + floor, case


def test_bivariate_rejects_bad_arguments():
    t_block = _cdf_t_block(1, 2.57, 5.36, 1.21)
    with pytest.raises(ValueError):
        specfun.meijer_g_bivariate_family([0], t_block, -1.0, 1.0)


def test_duplication_split():
    assert specfun.duplication_split(1, 0.3) == (0.3,)
    assert specfun.duplication_split(2, 0.3) == (0.15, 0.65)
    with pytest.raises(ValueError):
        specfun.duplication_split(0, 1.0)
