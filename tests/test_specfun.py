"""Special-function layer: the library's own special functions against
scipy.special, mpmath and independent oracles, and the Mellin-Barnes engines
against reduction identities and brute-force quadrature."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special as sp
from scipy.integrate import dblquad, quad

from optfeeder import analytics, rf_link, specfun
from conftest import rng_for
from oracles import hankel_t_collapse


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
    # meijer_g_2_1_1_2 builds its gamma prefactors from math.lgamma, and the
    # contour lines from specfun.loggamma
    for ln_gamma in (math.lgamma, lambda x: float(specfun.loggamma(x).real)):
        assert ln_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)
        assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
        # two independent series oracles agree, then pin the value to them
        lan = _lanczos_ln_gamma(10.3)
        sti = _stirling_ln_gamma(10.3)
        assert lan == pytest.approx(sti, rel=1e-12)
        assert ln_gamma(10.3) == pytest.approx(lan, rel=1e-12)


def test_ln_gamma_relative_error_sweep():
    rng = rng_for(101)
    for _ in range(200):
        x = math.exp(rng.uniform(math.log(1e-3), math.log(170.0)))
        ref = _lanczos_ln_gamma(x)
        assert math.lgamma(x) == pytest.approx(ref, rel=1e-13, abs=1e-13)
        assert float(specfun.loggamma(x).real) == pytest.approx(ref, rel=1e-13, abs=1e-13)


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
        np.testing.assert_allclose(rf_link.user_law(p).coeffs, ref, rtol=1e-14)
        assert _rising(1.0 - m, m) == 0.0


def test_hyp1f1_identities():
    # the shadowed-Rician amplitude density oracle (tests/oracles.py)
    # evaluates the confluent factor through sp.hyp1f1
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


def test_erfc_and_bessels():
    assert specfun.erfc(0.0) == 1.0
    # half-integer closed form K_{1/2}(x) = sqrt(pi/(2x)) e^-x, against the
    # integral K_nu(x) = int_0^inf exp(-x cosh t) cosh(nu t) dt that --selftest
    # takes by gauss_panels
    ref = math.sqrt(math.pi / 4.0) * math.exp(-2.0)
    k_half = specfun.gauss_panels(lambda t: np.exp(-2.0 * np.cosh(t)) * np.cosh(0.5 * t),
                                  np.arange(13.0), 1e-12 * math.exp(-2.0))
    assert k_half == pytest.approx(ref, rel=1e-12)
    assert k_half == pytest.approx(0.1199377, rel=1e-6)


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
    assert abs(zero * specfun.bessel_j_scaled(1, zero)) < 1e-10


def _real_error(got, ref):
    return np.abs(got.real - ref.real) / np.maximum(1.0, np.abs(ref.real))


def _phase_error(got, ref):
    return np.abs((got.imag - ref.imag + np.pi) % (2.0 * np.pi) - np.pi)


def test_loggamma_on_the_engine_lines_matches_scipy(scenario_factory, monkeypatch):
    # every point at which a gamma_bar2 fit and seeded families of every
    # metric's t-block evaluate log-gammas (Re z in [0.15, 13], |Im z| up to
    # about 30): the real part within 9.8e-15 of max(1, |log Gamma|), the
    # phase within 1.1e-13 mod 2 pi of scipy's
    seen = []
    loggamma = specfun.loggamma

    def recorded(z):
        seen.append(np.ravel(z))
        return loggamma(z)

    _clear_line_caches()
    monkeypatch.setattr(specfun, "loggamma", recorded)
    analytics.fit_gamma_bar2(scenario_factory(mu_r_db=50.0, gamma_bar2=None),
                             0.105, 10 ** 0.5, lo=1.0, hi=1e13)
    rng = rng_for(2901)
    for case in range(8):
        t_block, w = _seeded_family(rng, case)
        specfun.meijer_g_bivariate_family(w, t_block, 0.05, 20.0, rel_tol=1e-9)
    _clear_line_caches()
    z = np.concatenate(seen)
    assert z.size > 20_000
    got, ref = loggamma(z), sp.loggamma(z)
    assert np.max(_real_error(got, ref)) <= 9.8e-15
    assert np.max(_phase_error(got, ref)) <= 1.1e-13


def test_loggamma_against_mpmath():
    # 300 points of the engine lines' range at the tolerances above, and 300
    # across the reflection, Re z in [-3, 13], up to |Im z| = 200 (the shipped
    # sweeps plan at most 44), within 1.5e-14 and 4.8e-13
    import mpmath
    rng = rng_for(2902)
    for re_lo, re_hi, height, tol_re, tol_phase in ((0.15, 12.9, 29.0, 9.8e-15, 1.1e-13),
                                                    (-3.0, 13.0, 200.0, 1.5e-14, 4.8e-13)):
        z = rng.uniform(re_lo, re_hi, 300) + 1j * rng.uniform(-height, height, 300)
        with mpmath.workdps(30):
            ref = np.array([complex(mpmath.loggamma(mpmath.mpc(v.real, v.imag))) for v in z])
        got = specfun.loggamma(z)
        assert np.max(_real_error(got, ref)) <= tol_re
        assert np.max(_phase_error(got, ref)) <= tol_phase


def test_loggamma_keeps_its_bits_in_any_batch():
    # the line store computes a point in batches of any size, down to one,
    # and each value must keep its bits: a value depends on its point only
    rng = rng_for(2903)
    z = np.concatenate((rng.uniform(-3.0, 13.0, 500) + 1j * rng.uniform(-30.0, 30.0, 500),
                        [9.999 + 0j, 10.001j, 0.5, -2.5 + 1e-3j]))
    whole = specfun.loggamma(z)
    for size in (1, 2, 3, 7, 16, 33):
        parts = [specfun.loggamma(z[i:i + size]) for i in range(0, z.size, size)]
        assert np.array_equal(np.concatenate(parts), whole), size


@pytest.mark.parametrize("block,rows", [
    ("cdf1", 3), ("cdf2", 5), ("ber2", 6), ("pdf1", 3), ("gamma1_pdf", 2)])
def test_line_log_block_cancels_gamma_pairs(monkeypatch, block, rows):
    # a numerator gamma over a reciprocal one k = 0, 1, ... further on is
    # 1/(x)_k: the pointing pole Gamma(xi2/r + t)/Gamma(1 + xi2/r + t) takes
    # no gamma, nor does the (1 - xi2)/2 pair of r = 2, which cancels; the
    # block still equals the factor-by-factor sum of scipy's log-gammas
    alpha, beta, xi2 = 2.57, 5.36, 1.21
    cdf = {r: _cdf_t_block(r, alpha, beta, xi2) for r in (1, 2)}
    a, b, m, n = {
        "cdf1": (cdf[1].a, cdf[1].b, 0, 3),
        "cdf2": (cdf[2].a, cdf[2].b, 0, 6),
        "ber2": (cdf[2].a, (0.5,) + cdf[2].b, 1, 6),
        "pdf1": (cdf[1].a, cdf[1].b[:-1] + (1.0,), 0, 3),
        "gamma1_pdf": ((xi2 + 1.0,), (xi2, alpha, beta), 3, 0)}[block]
    s = 0.3 + 1j * np.linspace(-25.0, 25.0, 201)
    ref = (sum(sp.loggamma(bj - s) for bj in b[:m]) + sum(sp.loggamma(1 - aj + s) for aj in a[:n])
           - sum(sp.loggamma(1 - bj + s) for bj in b[m:]) - sum(sp.loggamma(aj - s) for aj in a[n:]))
    shapes = []
    loggamma = specfun.loggamma
    monkeypatch.setattr(specfun, "loggamma", lambda z: shapes.append(np.shape(z)) or loggamma(z))
    got = specfun._line_log_block(a, b, m, n, s)
    assert shapes == [(rows, s.size)]
    assert np.max(_real_error(got, ref)) <= 1e-13
    assert np.max(_phase_error(got, ref)) <= 1e-12


def test_erfc_against_mpmath_and_scipy():
    # the Monte Carlo BER takes erfc at sqrt(q gamma), 1.8e-4..577: within
    # 1e-15 of mpmath wherever erfc is a normal double; scipy's own error
    # grows like x^2 eps, so against it within 1e-15 (1 + x^2); 0 past
    # Cody's 26.543, where erfc is below the smallest normal double
    import mpmath
    rng = rng_for(2904)
    x = np.concatenate((np.exp(rng.uniform(math.log(1.8e-4), math.log(26.5), 600)),
                        [0.0, 0.46875, 0.5, 4.0, 26.5]))
    with mpmath.workdps(40):
        ref = np.array([float(mpmath.erfc(v)) for v in x])
    assert np.max(np.abs(specfun.erfc(x) - ref) / ref) <= 1e-15
    x = np.exp(rng.uniform(math.log(1.8e-4), math.log(577.0), 100_000))
    got, ref = specfun.erfc(x), sp.erfc(x)
    normal = x < 26.5
    assert np.max(np.abs(got - ref)[normal] / ref[normal] / (1.0 + x[normal] ** 2)) <= 1e-15
    assert np.all(got[x >= 26.543] == 0.0) and np.all(ref[x >= 26.543] < 2.3e-308)
    assert np.array_equal(specfun.erfc(x[:12].reshape(3, 4)), got[:12].reshape(3, 4))
    for bad in (-1e-300, math.nan):
        with pytest.raises(ValueError):
            specfun.erfc(np.array([1.0, bad]))


def test_erfcx_against_mpmath_and_scipy():
    # erfcx, behind erfc, within 1e-15 of mpmath and 2e-15 of scipy
    import mpmath
    rng = rng_for(2905)
    y = np.concatenate((np.exp(rng.uniform(math.log(1e-4), math.log(32.0), 400)),
                        [0.0, 0.4999, 0.5, 4.0]))
    with mpmath.workdps(40):
        ref_x = np.array([float(mpmath.erfc(v) * mpmath.exp(mpmath.mpf(v) ** 2)) for v in y])
    got_x = specfun.erfcx(y)
    assert np.max(np.abs(got_x - ref_x) / ref_x) <= 1e-15
    assert np.max(np.abs(got_x - sp.erfcx(y)) / ref_x) <= 2e-15


@pytest.mark.parametrize("n", [1, 3])
def test_bessel_j_scaled_against_scipy(n):
    # the beam pattern's J_n(u)/u^n: within 2e-15 of scipy's jv(n, u)/u^n for
    # u up to 40, 1e-14 relative below u = 1, and 1/(2^n n!) at u = 0
    rng = rng_for(2906 + n)
    u = np.concatenate((rng.uniform(0.0, 40.0, 400), np.exp(rng.uniform(-17.0, 0.0, 200))))
    ref = sp.jv(n, u) / u ** n
    got = specfun.bessel_j_scaled(n, u)
    assert np.max(np.abs(got - ref)) <= 2e-15
    assert np.max((np.abs(got - ref) / np.abs(ref))[u < 1.0]) <= 1e-14
    assert specfun.bessel_j_scaled(n, 0.0) == pytest.approx(1.0 / (2 ** n * math.factorial(n)),
                                                           rel=1e-15)


def test_gamma_keeps_scipys_overflow_and_poles_raise():
    # math.gamma within 1.3e-15 of scipy's gamma on [0.3, 60]; past its
    # overflow at 171.624... inf, as scipy returns, where math.gamma raises;
    # at a pole ValueError, where scipy returns inf or NaN
    xs = np.linspace(0.3, 60.0, 2000)
    assert max(abs(specfun.gamma(x) / sp.gamma(x) - 1.0) for x in xs) <= 1.3e-15
    top = 171.6243769563027     # math.gamma's last finite value; scipy's overflows sooner
    assert specfun.gamma(top) == math.gamma(top) < math.inf
    assert specfun.gamma(math.nextafter(top, 200.0)) == sp.gamma(171.7) == math.inf
    assert math.isnan(specfun.gamma(math.nan))
    assert specfun.gamma(-200.5) == 0.0
    for pole in (0.0, -2.0):
        with pytest.raises(ValueError):
            specfun.gamma(pole)


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


def test_gauss_panels_raises_at_its_depth_cap():
    # 1/sqrt|x - 0.3| has an interior singularity no panel edge meets: the
    # panel around it never converges, and accepting it at the cap returned
    # 2.76693 for 2 sqrt(0.3) + 2 sqrt(0.7) = 2.76877
    with pytest.raises(specfun.ConvergenceError, match="twelve halvings"):
        specfun.gauss_panels(lambda x: 1.0 / np.sqrt(np.abs(x - 0.3)),
                             np.array([0.0, 1.0]), 1e-14)


_ROOT_FAMILIES = {
    "tanh": lambda c, s: lambda x: math.tanh(s * (x - c)),
    "cubic": lambda c, s: lambda x: (x - c) ** 3 + s * (x - c),
    "exponential": lambda c, s: lambda x: math.expm1(s * (x - c)),
    "logistic": lambda c, s: lambda x: 1.0 / (1.0 + math.exp(-s * (x - c))) - 0.5,
}


@pytest.mark.parametrize("family", list(_ROOT_FAMILIES))
def test_brent_root_takes_the_steps_of_brentq(family):
    # brentq asks for f(a) and f(b) itself, which brent_root is handed, so
    # it makes exactly two calls more; every root carries the same bits
    from scipy.optimize import brentq
    rng = rng_for(2500 + list(_ROOT_FAMILIES).index(family))
    for _ in range(100):
        c, s = rng.uniform(-2.0, 2.0), 10.0 ** rng.uniform(-2.0, 2.0)
        sign = rng.choice([-1.0, 1.0])
        base = _ROOT_FAMILIES[family](c, s)
        f = lambda x: sign * base(x)
        a, b = c - rng.uniform(0.1, 5.0), c + rng.uniform(0.1, 5.0)
        xtol = 10.0 ** rng.uniform(-12.0, -6.0)
        calls = []

        def counted(x):
            calls.append(x)
            return f(x)

        root = specfun.brent_root(counted, a, b, f(a), f(b), xtol)
        ref, info = brentq(f, a, b, xtol=xtol, full_output=True)
        assert root == ref
        assert info.function_calls == len(calls) + 2


def test_brent_root_ends_and_failures():
    def never(x):
        raise AssertionError("no step expected")

    assert specfun.brent_root(never, 0.0, 2.0, 0.0, 1.0, 1e-9) == 0.0
    assert specfun.brent_root(never, 0.0, 2.0, -1.0, 0.0, 1e-9) == 2.0
    for fa, fb in ((1.0, 3.0), (-1.0, -3.0), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="differ in sign"):
            specfun.brent_root(never, 0.0, 2.0, fa, fb, 1e-9)
    with pytest.raises(ValueError, match="NaN"):
        specfun.brent_root(lambda x: math.nan, 0.0, 2.0, -1.0, 1.0, 1e-9)
    # a sign step at 0 to the smallest subnormal xtol takes ~1,000 halvings
    with pytest.raises(specfun.ConvergenceError, match="100 steps"):
        specfun.brent_root(lambda x: math.copysign(1.0, x), -1.0, 1.0, -1.0, 1.0, 5e-324)


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


@pytest.mark.parametrize("a, b, m, n, rel_tol", [
    ((1.07, -0.78), (0.22, 1.38, 2.14), 2, 2, 1e-8),
    ((), (2.99, 1.26, 1.91), 2, 0, 1e-10),
    ((), (0.93, 0.81, -0.2), 2, 0, 1e-10)])
def test_meijer_g_many_abscissa_clears_reciprocal_gamma_zeros(a, b, m, n, rel_tol):
    # the log modulus of a reciprocal gamma is -inf at its zeros: the saddle
    # search once settled on one (sigma = 0.14 for the first shape) or next
    # to one far left (sigma = -130 and -158), where exp overflowed, and
    # refinement ran on to the work cap
    mp = pytest.importorskip("mpmath")
    z = np.geomspace(0.1, 4.6, 5)
    vals, _, _ = specfun.meijer_g_many(a, b, m, n, z, rel_tol)
    with mp.workdps(30):
        ref = np.array([float(mp.meijerg([a[:n], a[n:]], [b[:m], b[m:]], x))
                        for x in z])
    assert np.max(np.abs(vals - ref)) <= rel_tol * np.max(np.abs(ref))


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
    half_h = (-math.log(rel_tol * 1e-3) + 6.0) / decay
    h = min(math.pi / (3.0 * max(1.0, float(np.max(np.abs(lnz))))), 0.125)
    prev = None
    while True:
        count = math.ceil(half_h / h)
        if 2 * count + 1 > 2 ** 22:
            raise specfun.ConvergenceError("work cap")
        y = h * np.arange(-count, count + 1)
        s = sigma + 1j * y
        kern = np.exp(specfun._line_log_block(a, b, m, n, s)[None, :]
                      + np.outer(lnz, s))
        vals = np.real(kern.sum(axis=1) - 0.5 * (kern[:, 0] + kern[:, -1])) \
            * h / (2.0 * math.pi)
        mags = np.abs(kern)
        blk = min(8, count // 2)
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
            half_h *= 1.4
            prev = None
            continue
        if prev is not None:
            step = float(np.max(np.abs(vals - prev)))
            if step <= budget:
                return vals, step + tail + round_floor, \
                    specfun.ContourPlan(sigma, half_h, 2 * count + 1), round_floor
        prev = vals
        h *= 0.5


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
    # fixed parameter set: r=1, alpha=2.57, beta=5.36, xi=1.1, args 1; each
    # term j alone (a unit weight at j), whose Gamma(j - s) the engine
    # reaches through the Pochhammer polynomial (-s)_j and dblquad directly
    alpha, beta, xi2 = 2.57, 5.36, 1.21
    t_block = _cdf_t_block(1, alpha, beta, xi2)
    for j in (0, 1, 3):
        total, err, plan = specfun.meijer_g_bivariate_family(
            [0.0] * j + [1.0], t_block, 1.0, 1.0, rel_tol=1e-9)
        ss, st = plan.abscissa, plan.abscissa_t

        def integrand(v, u):
            s = ss + 1j * u
            t = st + 1j * v
            lg = (sp.loggamma(s + t) + sp.loggamma(j - s) + sp.loggamma(1 - s)
                  + sp.loggamma(xi2 + t) + sp.loggamma(alpha + t)
                  + sp.loggamma(beta + t)
                  - sp.loggamma(xi2 + 1 + t) - sp.loggamma(1 + t))
            return float(np.real(np.exp(lg))) / (4.0 * math.pi ** 2)

        ref, _ = dblquad(integrand, -40, 40, -40, 40, epsabs=1e-12, epsrel=1e-9)
        assert total == pytest.approx(ref, rel=1e-8), j
        assert err < 1e-6 * abs(total), j


def test_bivariate_step_halving_within_error():
    alpha, beta, xi2 = 1.52, 3.29, 1.21
    args = ([0.0, 1.0], _cdf_t_block(2, alpha, beta, xi2), 0.4, 25.0)
    coarse, coarse_err, _ = specfun.meijer_g_bivariate_family(*args, rel_tol=1e-7)
    fine, fine_err, _ = specfun.meijer_g_bivariate_family(*args, rel_tol=1e-10)
    assert abs(coarse - fine) <= coarse_err + fine_err


def test_bivariate_family_matches_single_calls():
    # the family total against the weighted sum of single-term calls (a unit
    # weight at j each); the second family has no j = 0 term
    t_block = _cdf_t_block(1, 2.57, 5.36, 1.21)
    w19 = rf_link.user_law(
        rf_link.ShadowedRicianParams(m=19, b=0.158, omega=1.29)).weights
    for w in (w19, [0.0, 0.5, 2.0, 0.25]):
        total, _, _ = specfun.meijer_g_bivariate_family(
            w, t_block, 0.7, 3.0, rel_tol=1e-9)
        singles = [specfun.meijer_g_bivariate_family(
            [0.0] * j + [1.0], t_block, 0.7, 3.0, rel_tol=1e-9)[0]
            for j in range(len(w))]
        assert total == pytest.approx(float(np.dot(w, singles)), rel=1e-7)


def _bivariate_dense(t_block, x1, x2, w, rel_tol):
    # the bivariate engine with its (2ns+1) x (2nt+1) kernel built in full
    # and its weighted s-kernel summed from per-term Gamma(j - s), without
    # the Pochhammer product; returns (total, error, plan, round-off floor),
    # the error being step + tail + round-off floor
    sigma_s, sigma_t = specfun._plan_bivariate(t_block)
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
                             + s * math.log(x1)) for j, wj in enumerate(w)]
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


def _seeded_family(rng, case):
    """t-block and weights of a seeded family: cases cycle through r = 1, 2
    and the CDF, PDF, BER and capacity t-blocks."""
    blocks = ((), (), 0.0), ((), (), 1.0), ((), (0.5,), 0.0), ((1.0,), (1.0,), 0.0)
    r = 1 + case % 2
    top, bottom, last = blocks[(case // 2) % 4]
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
    return t_block, np.array(rf_link.user_law(shadow).weights)


def test_bivariate_hankel_matches_dense_kernel():
    # seeded families of every metric's t-block under both detections: the
    # Hankel t-collapse and the Pochhammer polynomial give the plan of the
    # dense 2-D kernel with per-term gammas, the total to 1e-11 of its own
    # size, or to the round-off floor where cancellation across the grid
    # makes that larger, and the error estimate, whose t-tail term pins the
    # edge column sums of the t-tail monitor, to 1e-6 of its own size or
    # to the same floor
    rng = rng_for(32)
    for case in range(40):
        t_block, w = _seeded_family(rng, case)
        x1, x2 = np.exp(rng.uniform(-12.0, 1.0)), np.exp(rng.uniform(-4.0, 9.0))
        rel_tol = float(rng.choice([1e-9, 1e-7]))
        ref_total, ref_err, ref_plan, floor = _bivariate_dense(
            t_block, x1, x2, w, rel_tol)
        total, err, plan = specfun.meijer_g_bivariate_family(
            w, t_block, x1, x2, rel_tol=rel_tol)
        assert plan == ref_plan, case
        assert abs(total - ref_total) <= max(1e-11 * abs(ref_total), floor), case
        assert abs(err - ref_err) <= 1e-6 * ref_err + floor, case


def test_t_collapse_fft_matches_hankel_product(monkeypatch):
    # the FFT correlation against the direct Hankel product, to 1e-13 of
    # max |tvec|, on seeded families of every metric's t-block under both
    # detections: at the smallest counts _refine plans (the first level of a
    # call at rel_tol 1e-7 with |ln x| small), at ns > nt, ns < nt and
    # ns = nt, and where len(C) = 2(ns + nt) + 1 is one more than a power of
    # two, which doubles the transform length
    first = []
    collapse = specfun._t_collapse

    def recorded(*args):
        first.append(args[3:6])
        return collapse(*args)

    rng = rng_for(35)
    counts = [(30, 90), (90, 30), (40, 40), (20, 12), (12, 20), (300, 212), (700, 300)]
    for case in range(8):
        t_block, w = _seeded_family(rng, case)
        x2 = np.exp(rng.uniform(-4.0, 8.0))
        sigma_s, sigma_t = specfun._plan_bivariate(t_block)
        first.clear()
        with monkeypatch.context() as patch:
            patch.setattr(specfun, "_t_collapse", recorded)
            specfun.meijer_g_bivariate_family(w, t_block, 0.5, x2, rel_tol=1e-7)
        assert first[0][0] == 0.125, case
        for h, ns, nt in [first[0]] + [(0.125,) + c for c in counts]:
            tvec = collapse(t_block, sigma_s, sigma_t, h, ns, nt, x2)[0]
            ref = hankel_t_collapse(t_block, sigma_s, sigma_t, h, ns, nt, x2)
            scale = float(np.max(np.abs(ref)))
            assert float(np.max(np.abs(tvec - ref))) <= 1e-13 * scale, (case, ns, nt)


_LINE_CACHES = (specfun._t_line, specfun._coupling_line, specfun._s_line,
                specfun._t_collapse)


def _clear_line_caches():
    for cached in _LINE_CACHES:
        cached.cache_clear()
    specfun._LINE_STORE.clear()


def test_bivariate_memo_warm_equals_cold():
    # seeded families of every metric's t-block under both detections: a
    # call that takes its lines from the memo, after calls at other x1 with
    # the same x2 and grid, returns exactly what a cold call returns, and
    # no memoised array can be written in place
    rng = rng_for(33)
    for case in range(16):
        t_block, w = _seeded_family(rng, case)
        # |ln x1| and |ln x2| below 8 hold the first level's step at its cap,
        # so every x1 starts on the same grid
        x2 = np.exp(rng.uniform(-4.0, 8.0))
        x1s = np.exp(rng.uniform(-8.0, 1.0, 3))
        rel_tol = float(rng.choice([1e-9, 1e-7]))
        _clear_line_caches()
        cold = specfun.meijer_g_bivariate_family(w, t_block, x1s[-1], x2,
                                                 rel_tol=rel_tol)
        _clear_line_caches()
        for x1 in x1s[:-1]:
            specfun.meijer_g_bivariate_family(w, t_block, x1, x2, rel_tol=rel_tol)
        hits = specfun._t_collapse.cache_info().hits
        warm = specfun.meijer_g_bivariate_family(w, t_block, x1s[-1], x2,
                                                 rel_tol=rel_tol)
        assert warm == cold, case
        assert specfun._t_collapse.cache_info().hits > hits, case

    sigma_s, sigma_t = specfun._plan_bivariate(t_block)
    coef = tuple(w.tolist())
    lines = (specfun._t_line(t_block, sigma_t, 0.125, 40)
             + specfun._coupling_line(sigma_s + sigma_t, 0.125, 80)
             + specfun._s_line(coef, sigma_s, 0.125, 40)
             + specfun._t_collapse(t_block, sigma_s, sigma_t, 0.125, 40, 40, x2))
    arrays = [arr for arr in lines if isinstance(arr, np.ndarray)]
    assert len(arrays) == 11
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr *= 1.0


def test_bivariate_memo_is_bounded():
    # 300 calls at distinct x2 fill each line cache no further than its size
    _clear_line_caches()
    t_block = _cdf_t_block(1, 2.57, 5.36, 1.21)
    for x2 in np.geomspace(1e-1, 1e3, 300):
        specfun.meijer_g_bivariate_family([1.0, 1.0], t_block, 0.5, x2)
    for cached in _LINE_CACHES:
        info = cached.cache_info()
        assert info.currsize <= info.maxsize
    info = specfun._t_collapse.cache_info()
    assert info.misses >= 300 and info.currsize == info.maxsize
    # 40 t-blocks more than fill the log-gamma store, which keeps its
    # _LINE_CACHE entries of at most _STORE_NODES values each
    for alpha in np.linspace(2.0, 3.0, 40):
        specfun.meijer_g_bivariate_family(
            [1.0, 1.0], _cdf_t_block(1, alpha, 5.36, 1.21), 0.5, 3.0)
    assert len(specfun._LINE_STORE) == specfun._LINE_CACHE
    assert all(len(held) <= specfun._STORE_NODES
               for _, held in specfun._LINE_STORE.values())


def test_bivariate_levels_compute_only_new_log_gammas(scenario_factory, monkeypatch):
    # one gamma_bar2 fit on the reference scenario and two seeded families at
    # three x1 each: with the log-gamma store, the lines evaluate at most 0.65
    # of the log-gamma points that the levels plan (the points evaluated with
    # the store disabled), and every total keeps its bits
    scn = scenario_factory(mu_r_db=50.0, gamma_bar2=None)
    rng = rng_for(36)
    families = [_seeded_family(rng, case) for case in (0, 5)]

    class Counted:
        points = 0
        loggamma = specfun.loggamma

    def counted(z):
        Counted.points += np.size(z)
        return Counted.loggamma(z)

    monkeypatch.setattr(specfun, "loggamma", counted)

    def run():
        _clear_line_caches()
        Counted.points = 0
        totals = [analytics.fit_gamma_bar2(scn, 0.105, 10 ** 0.5, lo=1.0, hi=1e13)]
        for t_block, w in families:
            totals += [specfun.meijer_g_bivariate_family(w, t_block, x1, 20.0, rel_tol=1e-9)
                       for x1 in (0.01, 0.1, 1.0)]
        return totals, Counted.points

    totals, computed = run()
    monkeypatch.setattr(specfun, "_STORE_NODES", 0)
    planned_totals, planned = run()
    _clear_line_caches()
    assert computed <= 0.65 * planned, (computed, planned)
    assert totals == planned_totals


def test_bivariate_work_cap_raises_before_any_level(monkeypatch):
    # |ln x1| = 691 sets the first step to pi / 2072, so the first grid is
    # already over 4e7 nodes: the call raises without summing a level
    def no_level(*args):
        raise AssertionError("a level ran past the work cap")

    monkeypatch.setattr(specfun, "_s_line", no_level)
    t_block = _cdf_t_block(1, 2.57, 5.36, 1.21)
    with pytest.raises(specfun.ConvergenceError, match="work budget"):
        specfun.meijer_g_bivariate_family([1.0, 1.0], t_block, 1e-300, 1.0)


def test_bivariate_returns_only_converged_totals():
    # a CDF family at small x2 whose levels do not agree to 1e-9 relative
    # before the work cap: the engine once returned its best level there,
    # 21.6 budgets off; a total it returns has met its budget, and a call
    # that cannot meet it raises
    t_block = _cdf_t_block(2, 3.81, 1.21, 1.54)
    try:
        total, err, _ = specfun.meijer_g_bivariate_family(
            [1.0, 1.0], t_block, 10.0, 1e-3, rel_tol=1e-9)
    except specfun.ConvergenceError:
        return
    assert err <= 1.5e-9 * abs(total)


def test_bivariate_rejects_bad_arguments():
    t_block = _cdf_t_block(1, 2.57, 5.36, 1.21)
    with pytest.raises(ValueError):
        specfun.meijer_g_bivariate_family([1.0], t_block, -1.0, 1.0)


def test_duplication_split():
    assert specfun.duplication_split(1, 0.3) == (0.3,)
    assert specfun.duplication_split(2, 0.3) == (0.15, 0.65)
    with pytest.raises(ValueError):
        specfun.duplication_split(0, 1.0)
