"""Scalar special functions and Mellin-Barnes evaluation of Meijer G functions.

The univariate evaluator handles the parameter shapes that show up in
Gamma-Gamma / pointing-error channel statistics (G_{1,3}^{3,0}, G_{0,2}^{2,0},
G_{1,2}^{2,1}, ...).  The bivariate evaluator computes the weighted sum of
the double Mellin-Barnes integrals behind the channel statistics,

    (1/(2*pi*i))^2  *  integral integral  Gamma(s + t) Gamma(j - s) Gamma(1 - s)
        * Phi_t(t) * x1^s * x2^t  ds dt,    j = 0, 1, 2, ...

as one integral over vertical contours, all terms sharing one t-block Phi_t
in the classical single-variable orientation (numerator factors
Gamma(b_j - t) for the first ``m`` lower parameters and Gamma(1 - a_j + t)
for the first ``n`` upper parameters, the remaining parameters contributing
reciprocal gammas).  These are two-variable G functions of Agarwal's family
as they appear in cascaded fading analyses; only real parameters and
positive arguments are supported.

Quadrature is a uniform trapezoidal rule on the truncated contour.  The
integrand decays exponentially along the imaginary direction for every shape
accepted here, so the rule converges geometrically; node counts are doubled
until two successive estimates agree to tolerance and the reported error
bounds both the last refinement step and the truncated tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.special as sp
from numpy.lib.stride_tricks import sliding_window_view


class ConvergenceError(RuntimeError):
    """Raised when a contour integral cannot reach the requested tolerance."""


class PoleCollisionError(RuntimeError):
    """Raised when no vertical contour separates the two pole families."""


COLLIDE_TOL = 1e-8     # distance at which two poles count as colliding


# ---------------------------------------------------------------------------
# scalar special functions and real-line quadrature
# ---------------------------------------------------------------------------

def exp_scaled_e1(x: float) -> float:
    """e^x * E1(x) = -e^x * Ei(-x) for x > 0, stable at large x.

    Evaluated in extended precision through the Lentz continued fraction
    e^x E1(x) = 1/(x+1- 1/(x+3- 4/(x+5- 9/(x+7- ...)))) for x >= 2 (the
    closed form e^x*E1 cancels catastrophically when used to build
    distortion powers), and through scipy's exp1 below that.
    """
    if x <= 0:
        raise ValueError("x must be positive")
    if x < 2.0:
        return float(np.exp(x) * sp.exp1(x))
    # modified Lentz on the continued fraction b0 + a1/(b1 + a2/(b2 + ...))
    tiny = np.longdouble(1e-300)
    b = np.longdouble(x) + 1.0
    c = np.longdouble(1e308)
    d = 1.0 / b
    h = d
    for i in range(1, 400):
        a = np.longdouble(-(i * i))
        b = b + 2.0
        d = a * d + b
        if d == 0:
            d = tiny
        c = b + a / c
        if c == 0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        h = h * delta
        if abs(float(delta) - 1.0) < 1e-19:
            break
    else:
        raise ConvergenceError(f"continued fraction for e^x E1(x) stalled at x={x}")
    return float(h)


def tricomi_u(a: float, b: float, z: float) -> float:
    """Tricomi confluent hypergeometric U(a, b, z) for real a, b and z > 0.

    For a > 0 the Laplace integral (DLMF 13.4.4)

        U(a,b,z) = 1/Gamma(a) * int_0^inf e^(-z t) t^(a-1) (1+t)^(b-a-1) dt

    is integrated by :func:`gauss_panels` in u = ln(z t).  For a <= 0 the
    value is reached by the downward recurrence DLMF 13.3.7 from two
    integral-evaluated seeds; the recurrence runs toward the growing
    solution, so it is stable.

    ``scipy.special.hyperu`` is not used: it returns NaN on 1,543 of the
    4,522 distinct (a, b, z) that the shipped-config sweeps of
    ``tools/output_digest.py`` request, for example U(1.376, 3, 1.4e-10).
    """
    if z <= 0:
        raise ValueError("tricomi_u requires z > 0")
    if a > 0:
        return _tricomi_u_integral(a, b, z)
    steps = int(math.ceil(-a)) + 1
    ah = a + steps
    u_hi = _tricomi_u_integral(ah + 1.0, b, z)
    u_lo = _tricomi_u_integral(ah, b, z)
    for i in range(steps):
        ai = ah - i
        u_lo, u_hi = ((z + 2.0 * ai - b) * u_lo - ai * (ai - b + 1.0) * u_hi, u_lo)
    return u_lo


def _tricomi_u_integral(a: float, b: float, z: float) -> float:
    """U(a, b, z) for a > 0: z^-a / Gamma(a) times the integral over u of
    exp(a u - e^u + (b-a-1) log1p(e^u / z)), on unit-width Gauss panels
    from lo = min(ln z, 0) - 37 past ln(60 + 3 max(a, b, 1)).

    Below lo the kernel equals e^(a u) to double precision (e^u < e^-37 and
    e^u / z < e^-37), so that tail is added exactly as e^(a lo) / a; past
    the last panel the factor exp(-e^u) has killed it.  Each panel is held
    to 1e-15 of the integral's midpoint-rule size divided by the panel count.
    """
    power = b - a - 1.0

    def kernel(u):
        tau = np.exp(u)
        return np.exp(a * u - tau + power * np.log1p(tau / z))

    lo = min(math.log(z), 0.0) - 37.0
    n = math.ceil(math.log(60.0 + 3.0 * max(a, b, 1.0)) - lo)
    edges = lo + np.arange(n + 1.0)
    size = float(np.sum(kernel(edges[:-1] + 0.5)))
    total = gauss_panels(kernel, edges, 1e-15 * size / n) + math.exp(a * lo) / a
    # prefactor z^-a / Gamma(a) in log space; a > 0 here
    return float(total * np.exp(-a * math.log(z) - sp.gammaln(a)))


def meijer_g_2_1_1_2(z: float, a1: float, b1: float, b2: float) -> float:
    """G^{2,1}_{1,2}(z | a1; b1, b2) through the Tricomi U reduction.

    G^{2,1}_{1,2}(z | a; b1, b2)
        = Gamma(1-a+b1) Gamma(1-a+b2) z^b1 U(1-a+b1, 1+b1-b2, z),
    symmetric in (b1, b2).  Either ordering is valid; the one with the
    larger U first parameter is preferred so the integral branch applies.
    A prefactor gamma on a nonpositive integer (a1 - b_j a positive
    integer) means G is undefined, and PoleCollisionError is raised.
    """
    if z <= 0:
        raise ValueError("argument must be positive")
    if 1.0 - a1 + b2 > 1.0 - a1 + b1:
        b1, b2 = b2, b1
    g1 = 1.0 - a1 + b1
    g2 = 1.0 - a1 + b2
    if any(g <= 0 and abs(g - round(g)) <= COLLIDE_TOL for g in (g1, g2)):
        raise PoleCollisionError(
            f"G^21_12(z | {a1}; {b1}, {b2}) prefactor sits on a gamma pole")
    u = tricomi_u(g1, 1.0 + b1 - b2, z)
    return float(sp.gammasgn(g1) * sp.gammasgn(g2)
                 * math.exp(sp.gammaln(g1) + sp.gammaln(g2) + b1 * math.log(z)) * u)


_NODES20, _WEIGHTS20 = np.polynomial.legendre.leggauss(20)
_NODES40, _WEIGHTS40 = np.polynomial.legendre.leggauss(40)


def gauss_panels(f, edges, tol: float) -> float:
    """Integral of the vectorized f over the panels between ``edges``.

    Each level evaluates f once, at the 20- and 40-point Gauss nodes of every
    live panel, and halves those whose estimates differ by more than ``tol``,
    at most twelve times; returns the ``math.fsum`` of the 40-point values.
    """
    pieces = []
    a, b = edges[:-1], edges[1:]
    for depth in range(13):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        x20 = mid[:, None] + half[:, None] * _NODES20
        x40 = mid[:, None] + half[:, None] * _NODES40
        f_all = f(np.concatenate((x20.ravel(), x40.ravel())))
        v20 = half * (f_all[:x20.size].reshape(x20.shape) @ _WEIGHTS20)
        v40 = half * (f_all[x20.size:].reshape(x40.shape) @ _WEIGHTS40)
        done = (np.abs(v40 - v20) <= tol) | (depth == 12)
        pieces.extend(v40[done].tolist())
        a, b = np.concatenate((a[~done], mid[~done])), np.concatenate((mid[~done], b[~done]))
        if not len(a):
            break
    return math.fsum(pieces)


# ---------------------------------------------------------------------------
# univariate Meijer G
# ---------------------------------------------------------------------------

@dataclass
class ContourPlan:
    """Record of how a Mellin-Barnes contour integral was carried out."""
    abscissa: float
    half_height: float
    nodes: int
    abscissa_t: float | None = None
    half_height_t: float | None = None
    nodes_t: int | None = None


def _line_log_block(a, b, m, n, s):
    """log of the block's gamma products along the contour points ``s``."""
    out = np.zeros_like(s, dtype=complex)
    for bj in b[:m]:
        out += sp.loggamma(bj - s)
    for aj in a[:n]:
        out += sp.loggamma(1.0 - aj + s)
    for bj in b[m:]:
        out -= sp.loggamma(1.0 - bj + s)
    for aj in a[n:]:
        out -= sp.loggamma(aj - s)
    return out


def _plan_abscissa(a, b, m, n, lnz=0.0):
    """Vertical-line abscissa separating the two pole families.

    Right-family poles come from Gamma(b_j - s) at b_j + l, the left family
    from Gamma(1 - a_j + s) at a_j - 1 - l.  Families that touch raise
    PoleCollisionError; no parameter is perturbed.  Within the legal strip
    the line is placed near the saddle of the integrand (the minimum of its
    modulus on the real axis); anchoring the quadrature at the scale of the
    result keeps cancellation from destroying tiny values such as far tails
    of the transformed densities.  Requires m + n > 0.
    """
    right_min = min(b[:m]) if m else math.inf
    left_max = max(a[:n]) - 1.0 if n else -math.inf
    if left_max >= right_min - COLLIDE_TOL:
        raise PoleCollisionError(
            f"pole families touch (left {left_max}, right {right_min})")

    # the saddle of an all-right-pole integrand sits near -z^(1/m_eff) with
    # m_eff the net gamma count, so the search bracket must scale with it
    m_eff = max(2.0 * (m + n) - len(a) - len(b), 1)
    reach = max(200.0, 4.0 * math.exp(max(lnz, 0.0) / m_eff))
    lo = left_max + 0.05 if math.isfinite(left_max) else right_min - reach
    hi = right_min - 0.05 if math.isfinite(right_min) else left_max + reach
    if hi <= lo:
        return 0.5 * (left_max + right_min)

    def log_mod(sig):
        return _line_log_block(a, b, m, n, sig + 0j).real + sig * lnz

    grid = np.linspace(lo, hi, 121)
    vals = log_mod(grid)
    k = int(np.argmin(vals))
    span = grid[1] - grid[0]
    a_br, b_br = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]
    for _ in range(40):  # golden-section polish
        if b_br - a_br < 1e-3 * max(1.0, span):
            break
        m1 = a_br + 0.382 * (b_br - a_br)
        m2 = a_br + 0.618 * (b_br - a_br)
        if log_mod(m1) < log_mod(m2):
            b_br = m2
        else:
            a_br = m1
    return 0.5 * (a_br + b_br)


def _decay_rate(p, q, m, n):
    # |Gamma(sigma+iy)| ~ |y|^(sigma-1/2) exp(-pi |y| / 2)
    return 0.5 * math.pi * (2.0 * (m + n) - p - q)


def _edge_tail(mags, blk):
    """Edge magnitude and tail divisor of a contour cut at both ends.

    The block-averaged edge magnitude ``outer`` is continued as a geometric
    series in the per-node decay ratio, so the cut tail sums to at most
    ``outer / divisor`` node weights; block averages keep oscillation beats
    from faking the decay rate.  The ratio is capped at 0.97.
    """
    outer = 0.5 * (mags[:blk].sum() + mags[-blk:].sum()) / blk
    inner = 0.5 * (mags[blk:2 * blk].sum() + mags[-2 * blk:-blk].sum()) / blk
    ratio = float(outer / max(inner, 1e-300)) ** (1.0 / blk)
    return float(outer), max(1.0 - min(ratio, 0.97), 0.03)


def meijer_g_many(a_top, b_bottom, m, n, arguments, rel_tol: float = 1e-8):
    """Evaluate one G shape at many positive arguments on a shared contour.

    Returns (values, error_estimate, plan).  The contour and node count are
    chosen for the worst argument, so all values share one quadrature grid;
    this is the fast path for densities evaluated inside quadratures.  The
    integrand at conjugate nodes is conjugate, so the trapezoid runs over
    the half contour, and the kernel modulus |z^sigma| |F(y)| is rank one,
    so the tail and roundoff monitors need no arguments x nodes array.
    """
    a = tuple(float(v) for v in a_top)
    b = tuple(float(v) for v in b_bottom)
    z = np.atleast_1d(np.asarray(arguments, dtype=float))
    if np.any(z <= 0):
        raise ValueError("arguments must be positive")
    lnz = np.log(z)
    # one contour cannot serve arguments of very different magnitude; the
    # saddle moves with log z, so wide batches are split recursively
    if z.size > 1 and float(np.max(lnz) - np.min(lnz)) > 4.0:
        order = np.argsort(lnz)
        mid = z.size // 2
        lo_i, hi_i = order[:mid], order[mid:]
        v1, e1, plan = meijer_g_many(a, b, m, n, z[lo_i], rel_tol)
        v2, e2, _ = meijer_g_many(a, b, m, n, z[hi_i], rel_tol)
        out = np.empty_like(z)
        out[lo_i] = v1
        out[hi_i] = v2
        return out, max(e1, e2), plan
    p, q = len(a), len(b)
    decay = _decay_rate(p, q, m, n)
    if decay <= 0:
        raise ConvergenceError("integrand does not decay along the contour")
    sigma = _plan_abscissa(a, b, m, n, lnz=float(np.mean(lnz)))
    # the algebraic |y|^powers factor delays the exponential decay; start
    # from the exponential estimate and let the tail monitor widen further
    half_h = (-math.log(rel_tol * 1e-3) + 8.0) / decay + 0.6 * abs(sigma)
    osc = max(1.0, float(np.max(np.abs(lnz))))
    nodes = 1 + 2 ** int(math.ceil(math.log2(max(256.0, 4.0 * half_h * osc / math.pi))))

    prev = None
    for _ in range(24):
        # the integrand at -y is the conjugate of the one at +y (real
        # parameters, positive arguments), so only the upper half of the
        # contour is summed, off-centre nodes twice, real parts only
        k = nodes - 1
        h = 2.0 * half_h / k
        y = h * (np.arange((k + 1) // 2, k + 1) - 0.5 * k)
        logf = _line_log_block(a, b, m, n, sigma + 1j * y)
        lead = float(np.max(logf.real))
        mag = np.exp(logf.real - lead)        # |F(y)| / max |F|
        zpow = np.exp(sigma * lnz + lead)     # |z^sigma| max |F| per argument
        wts = np.full(len(y), h / math.pi)
        wts[-1] *= 0.5
        if k % 2 == 0:
            wts[0] *= 0.5
        vals = zpow * (np.cos(np.outer(lnz, y) + logf.imag) @ (wts * mag))
        scale = float(np.max(np.abs(vals))) + 1e-300

        # |kernel| = |z^sigma| |F(y)| is rank one: the monitors need only
        # |F| along the whole contour and the largest |z^sigma|
        mags = np.concatenate((mag[::-1] if k % 2 else mag[:0:-1], mag))
        outer, divisor = _edge_tail(mags, min(8, k // 4))
        peak = float(np.max(zpow)) * h / (2.0 * math.pi)
        tail = peak * outer / divisor
        round_floor = 1e-15 * peak * float(mags.sum())
        budget = max(rel_tol * scale, 4.0 * round_floor)
        if tail > 0.25 * budget:
            half_h *= 1.5
            nodes = 1 + int(1.5 * (nodes - 1))
            prev = None
            continue
        if prev is not None:
            step = float(np.max(np.abs(vals - prev)))
            if step <= budget:
                plan = ContourPlan(sigma, half_h, nodes)
                return vals, step + tail + round_floor, plan
        prev = vals
        nodes = 1 + 2 * (nodes - 1)
        if nodes > 2 ** 22:
            break
    raise ConvergenceError("univariate Mellin-Barnes integral did not converge")


# ---------------------------------------------------------------------------
# bivariate Meijer G
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GBlock:
    """One inner block of a two-variable G function (classical orientation)."""
    a: tuple[float, ...]
    b: tuple[float, ...]
    m: int
    n: int


def _plan_bivariate(js, t_block):
    """Contour abscissae for the coupled double integral.

    Constraints: sigma_t must sit right of every t-plane left pole and left
    of every t-plane right pole; sigma_s right of the coupling poles at
    -sigma_t and left of min(j, 1), which the smallest j sets for all terms.
    """
    t_left = max(t_block.a[:t_block.n]) - 1.0 if t_block.n else -math.inf
    t_right = min(t_block.b[:t_block.m]) if t_block.m else math.inf
    lo = t_left + COLLIDE_TOL
    hi = t_right - COLLIDE_TOL
    if hi <= lo:
        raise PoleCollisionError(
            f"no t-contour between pole families ({t_left}, {t_right})")
    # keep sigma_t positive so the s-line of the j = 0 terms (right poles
    # starting at the origin) can sit left of zero yet clear the coupling
    target = 0.45 if hi > 0.55 else 0.7 * hi
    pad = 0.02 * min(1.0, hi - lo)
    sigma_t = min(max(target, lo + pad), hi - pad)
    if sigma_t <= 0:
        raise PoleCollisionError("t-contour forced nonpositive; cannot clear coupling")

    s_right = min(min(js), 1.0)
    lo_s = -sigma_t + COLLIDE_TOL
    if s_right - lo_s <= COLLIDE_TOL:
        raise PoleCollisionError("no s-contour clears the coupling poles")
    return s_right - 0.5 * min(1.0, s_right - lo_s), sigma_t


def meijer_g_bivariate_family(js, t_block, x1, x2, weights=None,
                              rel_tol: float = 1e-8, abs_tol: float = 0.0):
    """Weighted sum over integer j of the channel statistics' bivariate G terms.

    Term j is the double Mellin-Barnes integral of
    Gamma(s + t) Gamma(j - s) Gamma(1 - s) Phi_t(t) x1^s x2^t, with Phi_t
    the t-block in classical orientation.  As Gamma(j - s) =
    Gamma(j0 - s) (j0 - s)_{j - j0} with j0 = min(js), the weighted sum is
    one double integral whose s-side carries the Pochhammer polynomial
    P(s) = sum_j w_j (j0 - s)_{j - j0}; the tail and roundoff monitors take
    sum_j |w_j| |(j0 - s)_{j - j0}| instead, which sees every term before
    the weights cancel.  On the shared grid the kernel is C[i + k] T[k],
    the coupling gamma on the antidiagonal sums times the t-block, so the
    t-collapse is a Hankel product: memory and the exponentials are
    O(ns + nt), never O(ns nt).

    Returns (total, error_estimate, plan).  ``weights`` default to 1.
    ``abs_tol`` sets an absolute-error floor so that totals which underflow
    toward zero still terminate.
    """
    if x1 <= 0 or x2 <= 0:
        raise ValueError("arguments must be positive")
    js = np.asarray(js)
    w = np.ones(len(js)) if weights is None else np.asarray(weights, float)
    sigma_s, sigma_t = _plan_bivariate(js, t_block)
    j0 = int(js.min())
    coef = np.zeros(int(js.max()) - j0 + 1)
    np.add.at(coef, js - j0, w)

    # Gamma(j - s) Gamma(1 - s) decays like exp(-pi |u|); the coupling gamma
    # contributes exp(-pi |u+v| / 2), counted half toward each axis when
    # sizing truncation heights
    dec_s = math.pi + 0.25 * math.pi
    dec_t = _decay_rate(len(t_block.a), len(t_block.b), t_block.m, t_block.n) + 0.25 * math.pi
    if dec_t <= 0:
        raise ConvergenceError("bivariate integrand does not decay")
    budget = -math.log(rel_tol * 1e-3) + 6.0
    half_s = budget / dec_s
    half_t = budget / dec_t

    osc = max(1.0, abs(math.log(x1)), abs(math.log(x2)))
    h = min(math.pi / (3.0 * osc), 0.125)

    prev_total = None
    best = None    # (step+tail, total, plan, budget) fallback at the grid cap
    for _ in range(20):
        ns = int(math.ceil(half_s / h))
        nt = int(math.ceil(half_t / h))
        if (2 * ns + 1) * (2 * nt + 1) > 4e7:
            # aliasing resonances can keep successive estimates bouncing just
            # above the budget; surface the best one with its honest error
            # as long as it is in the budget's neighbourhood
            if best is not None and best[0] <= 50.0 * best[3]:
                return best[1], best[0], best[2]
            raise ConvergenceError("bivariate quadrature grid exceeded its work budget "
                                   "of 4e7 nodes")
        u = h * np.arange(-ns, ns + 1)
        v = h * np.arange(-nt, nt + 1)
        s = sigma_s + 1j * u
        t = sigma_t + 1j * v

        log_t = _line_log_block(t_block.a, t_block.b, t_block.m, t_block.n, t)
        log_t += t * math.log(x2)
        # coupling gamma on the antidiagonal sums s + t: the kernel
        # C[i + k] T[k] is a Hankel matrix times a diagonal, never formed
        w_sum = (sigma_s + sigma_t) + 1j * h * np.arange(-(ns + nt), ns + nt + 1)
        log_c = sp.loggamma(w_sum)
        # factor out both maxima so nothing overflows; restored in tvec
        c_max, t_max = float(np.max(log_c.real)), float(np.max(log_t.real))
        c_n = np.exp(log_c - c_max)
        t_n = np.exp(log_t - t_max)
        t_n[0] *= 0.5      # trapezoid weights on the t edges
        t_n[-1] *= 0.5
        lead = math.exp(c_max + t_max)
        tvec = lead * (sliding_window_view(c_n, 2 * nt + 1) @ t_n)
        tvec[[0, -1]] *= 0.5   # and on the s edges
        # t-tail monitor: edge blocks of |kernel| per s node, and the edge
        # column sums |T[k]| sum_i |C[i + k]| over the whole s-line, summed
        # directly so that tail columns keep their relative accuracy
        blk_t = min(8, nt // 2)
        abs_c, abs_t = np.abs(c_n), np.abs(t_n)
        t_edge = lead / blk_t * (
            sliding_window_view(abs_c[:2 * ns + blk_t], blk_t) @ abs_t[:blk_t]
            + sliding_window_view(abs_c[-(2 * ns + blk_t):], blk_t) @ abs_t[-blk_t:])
        cols = np.r_[:2 * blk_t, 2 * nt + 1 - 2 * blk_t:2 * nt + 1]
        col_sums = sliding_window_view(abs_c, 2 * ns + 1)[cols].sum(axis=1)
        _, t_divisor = _edge_tail(abs_t[cols] * col_sums, blk_t)

        # s-side: Gamma(j0 - s) Gamma(1 - s) x1^s once, times the Pochhammer
        # polynomial P and its termwise modulus bound, as running products
        fs = np.exp(sp.loggamma(j0 - s) + sp.loggamma(1.0 - s) + s * math.log(x1))
        poch = np.ones_like(s)
        poly = np.full_like(s, coef[0])
        bound = np.full(len(s), abs(coef[0]))
        for k in range(1, len(coef)):
            poch *= j0 + k - 1 - s
            poly += coef[k] * poch
            bound += abs(coef[k]) * np.abs(poch)
        fs_mod = np.abs(fs) * bound
        quadw = h * h / (4.0 * math.pi ** 2)
        total = float(np.real(np.sum(fs * poly * tvec))) * quadw
        mag_row = fs_mod * np.abs(tvec)
        outer_s, s_divisor = _edge_tail(mag_row, min(8, ns // 2))
        tail = (outer_s / s_divisor + float(fs_mod @ t_edge) / t_divisor) * quadw
        # an oscillatory kernel cannot be summed below its roundoff floor
        round_floor = 1e-15 * float(mag_row.sum()) * quadw
        budget_here = max(rel_tol * abs(total), abs_tol, 4.0 * round_floor)

        if tail > 0.25 * budget_here:
            half_s *= 1.4
            half_t *= 1.4
            prev_total = None
            continue
        if prev_total is not None:
            step = abs(total - prev_total)
            plan = ContourPlan(sigma_s, half_s, 2 * ns + 1,
                               abscissa_t=sigma_t, half_height_t=half_t,
                               nodes_t=2 * nt + 1)
            err = step + tail + round_floor
            if step <= budget_here:
                return total, err, plan
            if best is None or err < best[0]:
                best = (err, total, plan, budget_here)
        prev_total = total
        h *= 0.5
    raise ConvergenceError("bivariate Mellin-Barnes integral did not converge")


def duplication_split(r: int, u: float) -> tuple[float, ...]:
    """Gamma-duplication parameter list u/r, (u+1)/r, ..., (u+r-1)/r.

    Expands Gamma(u + r t) into r gamma factors before quadrature, so one
    generic contour evaluator covers both detection modes (r = 1, 2).
    """
    if r < 1:
        raise ValueError("r must be a positive integer")
    return tuple((u + i) / r for i in range(r))
