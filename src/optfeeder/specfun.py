"""Special functions on numpy and math alone, and Mellin-Barnes evaluation of
Meijer G functions.

The special functions are the ones the library needs: a vectorised complex
log-gamma, erfc and erfcx, J_n(u)/u^n, Tricomi's U.  The univariate
evaluator handles the parameter shapes of Gamma-Gamma / pointing-error channel
statistics (G_{1,3}^{3,0}, G_{0,2}^{2,0}, G_{1,2}^{2,1}, ...).  The bivariate
evaluator computes the weighted sum of the double Mellin-Barnes integrals

    (1/(2*pi*i))^2  *  integral integral  Gamma(s + t) Gamma(j - s) Gamma(1 - s)
        * Phi_t(t) * x1^s * x2^t  ds dt,    j = 0, 1, 2, ...

as one integral over vertical contours, all terms sharing one t-block Phi_t
in the classical single-variable orientation (numerator factors Gamma(b_j - t)
for the first ``m`` lower parameters and Gamma(1 - a_j + t) for the first ``n``
upper ones, the others reciprocal gammas): two-variable G functions of
Agarwal's family, for real parameters and positive arguments only.

Quadrature is a uniform trapezoidal rule on the truncated contour, which
converges geometrically as the integrand decays exponentially (Trefethen &
Weideman, SIAM Review 56(3), 2014).  Both engines refine under one policy,
:func:`_refine`, and report an error that bounds the last refinement step, the
truncated tail and the round-off floor; a level past the work cap raises
ConvergenceError.  The bivariate engine's lines keep their log gammas from
level to level, and its t-axis collapses by an FFT correlation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.fft import fft, ifft
from numpy.lib.stride_tricks import sliding_window_view


class ConvergenceError(RuntimeError):
    """Raised when a contour integral cannot reach the requested tolerance."""


class PoleCollisionError(RuntimeError):
    """Raised when no vertical contour separates the two pole families."""


COLLIDE_TOL = 1e-8     # distance at which two poles count as colliding


# ---------------------------------------------------------------------------
# special functions on numpy and math alone
# ---------------------------------------------------------------------------

# B_2k / (2k (2k - 1)) for k = 11 down to 1: the Stirling series of log Gamma
_STIRLING = (77683 / 5796, -174611 / 125400, 43867 / 244188, -3617 / 122400, 1 / 156,
             -691 / 360360, 1 / 1188, -1 / 1680, 1 / 1260, -1 / 360, 1 / 12)


def _clog(w):
    """Principal log from real log, hypot and arctan2: faster than numpy's complex log."""
    return np.log(np.hypot(w.real, w.imag)) + 1j * np.arctan2(w.imag, w.real)


def loggamma(z):
    """log Gamma(z) modulo 2 pi i at an array of complex z off the poles, each value from
    its own point: below |z| = 10 z + 7 by one product and one log, then eleven Stirling
    terms.  Re z < 0 reflects, log sin(pi z) = -i pi z + log((1 - e^(2 pi i z)) i/2) for
    Im z >= 0 (the conjugate below), which cannot overflow."""
    z = np.asarray(z, dtype=complex)
    left = z.real < 0.0
    if left.any():
        out, zl = np.empty_like(z), z[left]
        out[~left] = loggamma(z[~left])
        up = np.where(zl.imag < 0.0, zl.conj(), zl)
        a, b = -2.0 * math.pi * up.imag, 2.0 * math.pi * (up.real - np.round(up.real))
        ea = np.exp(a)     # 1 - e^(a + ib), a <= 0, has a real part of two terms >= 0
        log_sin = np.log(0.5j * (2 * ea * np.sin(b / 2) ** 2 - np.expm1(a) - 1j * ea * np.sin(b)))
        log_sin -= 1j * math.pi * up
        out[left] = (math.log(math.pi) - np.where(zl.imag < 0.0, log_sin.conj(), log_sin)
                     - loggamma(1.0 - zl))
        return out
    # z ... (z+6) in pairs, out of place (numpy rounds a length-1 array in place otherwise)
    near, u = np.abs(z) < 10.0, z * (z + 6.0)
    w, prod = np.where(near, z + 7.0, z), np.where(near, u * (u + 5.0) * (u + 8.0) * (z + 3.0), 1.0)
    r2, ser = 1.0 / (w * w), _STIRLING[0]
    for c in _STIRLING[1:]:
        ser = ser * r2 + c
    return (w - 0.5) * _clog(w) - w + 0.5 * math.log(2.0 * math.pi) + ser / w - _clog(prod)


def gamma(x: float) -> float:
    """math.gamma(x) for real x off the poles, and inf past its overflow at 171.624..."""
    return math.inf if x > 171.6243769563027 else math.gamma(x)


# W. J. Cody, Math. Comp. 23 (1969) 631-637, as in his CALERF: (P, Q), highest power
# first, of erf(x) = x P(x^2)/Q(x^2) below 0.5, e^(x^2) erfc(x) = P(x)/Q(x) up to 4,
# and beyond (1/sqrt(pi) - P(1/x^2)/(x^2 Q(1/x^2)))/x, that pair as x^10 P(1/x^2) etc.
_CODY_ERF = ((0.18577770618460315, 3.1611237438705655, 113.86415415105016, 377.485237685302,
              3209.3775891384694),
             (1.0, 23.601290952344122, 244.02463793444417, 1282.6165260773723, 2844.236833439171))
_CODY_MID = ((2.1531153547440383e-08, 0.5641884969886701, 8.883149794388377, 66.11919063714163,
              298.6351381974001, 881.952221241769, 1712.0476126340707, 2051.0783778260716,
              1230.3393547979972),
             (1.0, 15.744926110709835, 117.6939508913125, 537.1811018620099, 1621.3895745666903,
              3290.7992357334597, 4362.619090143247, 3439.3676741437216, 1230.3393548037495))
_CODY_BIG = ((0.0006587491615298378, 0.016083785148742275, 0.12578172611122926,
              0.36034489994980445, 0.30532663496123236, 0.016315387137302097),
             (0.0023352049762686918, 0.06051834131244132, 0.5279051029514285,
              1.8729528499234673, 2.568520192289822, 1.0))
_ERFC_ZERO = 26.543     # Cody's XBIG: past it erfc is below the smallest normal double


def _rational(pq, x):
    num, den = np.full_like(x, pq[0][0]), np.full_like(x, pq[1][0])
    for acc, c in [(num, c) for c in pq[0][1:]] + [(den, c) for c in pq[1][1:]]:
        acc *= x
        acc += c
    return num / den


def erfcx(y):
    """e^(y^2) erfc(y) for an array of y >= 0, each point by its own formula."""
    out = np.empty_like(y)
    part = (y >= 0.5).astype(np.intp) + (y >= 4.0)
    low, mid, big = (np.flatnonzero(part == i) for i in range(3))
    yl, yb = y.take(low), y.take(big)
    out[low] = np.exp(yl * yl) * (1.0 - yl * _rational(_CODY_ERF, yl * yl))
    out[mid] = _rational(_CODY_MID, y.take(mid))
    out[big] = (1.0 / math.sqrt(math.pi) - _rational(_CODY_BIG, yb * yb) / (yb * yb)) / yb
    return out


def erfc(x):
    """erfc(x), x >= 0, to 1e-15 relative, in blocks of 2^14 that stay in cache; e^(-x^2)
    = e^(-h^2) e^(-(x - h)(x + h)), h = floor(16 x)/16, rounds no x^2.  0 past _ERFC_ZERO."""
    x = np.asarray(x, dtype=float)
    if not np.all(x >= 0):     # NaN fails too
        raise ValueError("erfc takes x >= 0")
    flat, out = np.minimum(x.ravel(), _ERFC_ZERO), np.empty(x.size)
    for i in range(0, x.size, 1 << 14):
        y = flat[i:i + (1 << 14)]
        h = np.floor(16.0 * y) / 16.0
        out[i:i + (1 << 14)] = (erfcx(y) * np.exp((h - y) * (y + h)) * np.exp(-h * h)
                                * (y < _ERFC_ZERO))
    return out.reshape(x.shape)


def bessel_j_scaled(n: int, u):
    """J_n(u) / u^n, integer n >= 0, at an array of real u: Poisson's integral 2^-n /
    (sqrt(pi) Gamma(n + 1/2)) int_0^pi cos(u cos t) sin^2n t dt by the periodic
    trapezoid rule on 2 ceil(max |u|) + 2n + 40 nodes, aliasing below 1e-17."""
    u = np.asarray(u, dtype=float)
    nodes = 2 * math.ceil(np.max(np.abs(u), initial=0.0)) + 2 * n + 40
    t = 2.0 * math.pi / nodes * np.arange(nodes)
    total = np.cos(np.multiply.outer(u, np.cos(t))) @ np.sin(t) ** (2 * n)
    return math.sqrt(math.pi) / (nodes * 2 ** n * math.gamma(n + 0.5)) * total


# ---------------------------------------------------------------------------
# scalar special functions and real-line quadrature
# ---------------------------------------------------------------------------

def db_to_linear(name: str, value_db: float) -> float:
    """10^(value_db/10), or a ValueError naming ``name`` where that is not finite."""
    try:
        value = 10.0 ** (value_db / 10.0)
    except OverflowError:     # past about 3,083 dB
        value = math.inf
    if not math.isfinite(value):     # NaN in, or the overflow
        raise ValueError(f"{name} = {value_db} dB has no finite linear value")
    return value


def tricomi_u(a: float, b: float, z: float) -> float:
    """Tricomi confluent hypergeometric U(a, b, z) for real a, b and z > 0.

    For a > 0 the Laplace integral (DLMF 13.4.4)

        U(a,b,z) = 1/Gamma(a) * int_0^inf e^(-z t) t^(a-1) (1+t)^(b-a-1) dt

    is integrated by :func:`gauss_panels` in u = ln(z t).  For a <= 0 the
    value is reached by the downward recurrence DLMF 13.3.7 from two
    integral-evaluated seeds; the recurrence runs toward the growing
    solution, so it is stable.
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
    return float(total * np.exp(-a * math.log(z) - math.lgamma(a)))


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
    sign = (-1.0) ** sum(g < 0 and math.floor(g) % 2 for g in (g1, g2))   # of Gamma(g1) Gamma(g2)
    return float(sign * math.exp(math.lgamma(g1) + math.lgamma(g2) + b1 * math.log(z)) * u)


def brent_root(f, a: float, b: float, fa: float, fb: float, xtol: float) -> float:
    """Root of f in [a, b] by Brent's method (Brent 1973, ch. 4), given fa = f(a)
    and fb = f(b): step for step scipy's ``brentq`` (brentq.c) at its default
    rtol = 4 eps, so it asks for the same points in the same order.  A step is
    secant or inverse quadratic when short enough, else a bisection, and at
    least (xtol + 4 eps |x|)/2.  An end where f is 0 is returned at once; ends
    of one sign or a NaN value raise ValueError; 100 steps raise ConvergenceError."""
    if fa == 0 or fb == 0:
        return a if fa == 0 else b
    if not (fa < 0 < fb or fb < 0 < fa):     # NaN fails too
        raise ValueError(f"f({a}) = {fa} and f({b}) = {fb} must differ in sign")
    xpre, fpre, xcur, fcur = a, fa, b, fb
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if (fpre < 0) != (fcur < 0):         # the root lies between xpre and xcur
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):            # keep the smaller value at xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + 4.0 * math.ulp(1.0) * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:                 # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                            # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
        if math.isnan(fcur):
            raise ValueError(f"f({xcur}) is NaN")
    raise ConvergenceError(f"Brent's method on [{a}, {b}] did not converge in 100 steps")


_NODES20, _WEIGHTS20 = np.polynomial.legendre.leggauss(20)
_NODES40, _WEIGHTS40 = np.polynomial.legendre.leggauss(40)


def gauss_panels(f, edges, tol: float) -> float:
    """Integral of the vectorized f over the panels between ``edges``.

    Each level evaluates f once, at the 20- and 40-point Gauss nodes of every
    live panel, and halves those whose estimates differ by more than ``tol``;
    returns the ``math.fsum`` of the 40-point values.  A panel still live
    after twelve halvings raises ConvergenceError.
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
        done = np.abs(v40 - v20) <= tol     # NaN is never done
        pieces.extend(v40[done].tolist())
        if done.all():
            return math.fsum(pieces)
        if depth == 12:
            raise ConvergenceError(
                f"{np.count_nonzero(~done)} Gauss panels, one on "
                f"[{a[~done][0]:.6g}, {b[~done][0]:.6g}], miss tolerance {tol:.3g} "
                f"after twelve halvings")
        a, b = np.concatenate((a[~done], mid[~done])), np.concatenate((mid[~done], b[~done]))


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
    """log of the block's gamma products along the contour points ``s``, from one
    loggamma call on the stacked arguments c + sign s.  A numerator gamma over a
    reciprocal one k = 0, 1, ... further on is 1/(x)_k: k factors of one product."""
    num = [(bj, -1.0) for bj in b[:m]] + [(1.0 - aj, 1.0) for aj in a[:n]]
    den = [(aj, -1.0) for aj in a[n:]] + [(1.0 - bj, 1.0) for bj in b[m:]]
    prod = 1.0     # multiplied out of place, as in loggamma
    for c, sign in list(num):
        pair = next(((d, e) for d, e in den if e == sign and d - c > -0.5
                     and abs(d - c - round(d - c)) <= 1e-12), None)
        if pair:
            num.remove((c, sign))
            den.remove(pair)
            for i in range(round(pair[0] - c)):
                prod = prod * (c + i + sign * s)
    logs = loggamma([c + sign * s for c, sign in num + den]).reshape(-1, len(s))
    return logs[:len(num)].sum(axis=0) - logs[len(num):].sum(axis=0) - _clog(prod + 0j)


def _strip(a, b, m, n):
    """Pole bounds (left, right) of a block's legal strip: right-family poles
    come from Gamma(b_j - s) at b_j + l, the left family from
    Gamma(1 - a_j + s) at a_j - 1 - l.  A line must clear each by more than
    COLLIDE_TOL, else PoleCollisionError; no parameter is perturbed."""
    left = max(a[:n]) - 1.0 if n else -math.inf
    right = min(b[:m]) if m else math.inf
    if left >= right - 2.0 * COLLIDE_TOL:
        raise PoleCollisionError(f"pole families touch (left {left}, right {right})")
    return left, right


def _plan_abscissa(a, b, m, n, lnz=0.0):
    """Vertical-line abscissa near the saddle inside the legal strip.

    The saddle is the minimum of the integrand's modulus on the real axis;
    anchoring the quadrature at the scale of the result keeps cancellation
    from destroying tiny values such as far tails of the transformed
    densities.  Requires m + n > 0.
    """
    left_max, right_min = _strip(a, b, m, n)
    # the saddle of an all-right-pole integrand sits near -z^(1/m_eff) with
    # m_eff the net gamma count, so the search bracket must scale with it
    m_eff = max(2.0 * (m + n) - len(a) - len(b), 1)
    reach = max(200.0, 4.0 * math.exp(max(lnz, 0.0) / m_eff))
    lo = left_max + 0.05 if math.isfinite(left_max) else right_min - reach
    hi = right_min - 0.05 if math.isfinite(right_min) else left_max + reach
    if hi <= lo:
        return 0.5 * (left_max + right_min)

    def log_mod(sig):
        # |Gamma(x)| >= pi / Gamma(1 - x) by reflection; below x = 1/2 the
        # bound stands in for a reciprocal gamma, whose zeros at x = 0, -1,
        # ... are -inf wells of the log modulus that the search would find
        out = 0.0
        for x in [bj - sig for bj in b[:m]] + [1.0 - aj + sig for aj in a[:n]]:
            out = out + math.lgamma(x)
        for x in [1.0 - bj + sig for bj in b[m:]] + [aj - sig for aj in a[n:]]:
            out = out - (math.log(math.pi) - math.lgamma(1.0 - x) if x < 0.5 else math.lgamma(x))
        return out + sig * lnz

    grid = np.linspace(lo, hi, 121)
    vals = [log_mod(sig) for sig in grid.tolist()]
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


def _refine(level, abscissae, decays, osc, rel_tol, abs_tol=0.0):
    """The refinement policy of both Mellin-Barnes engines.

    Line i runs through ``abscissae[i]`` with nodes at h k, |k| <= c_i, and
    ``level(h, c_0, c_1, ...)`` returns one level's values, their scale, the
    cut tail and the round-off floor.  Lines start at half height
    (-ln(rel_tol 1e-3) + 6) / decays[i] and the step at
    min(pi / (3 max(1, osc)), 0.125), osc the largest |log argument|.  While
    the tail is above a quarter of the budget max(rel_tol scale, abs_tol,
    4 floor) every line widens by 1.4; otherwise the step halves until two
    levels agree within the budget.  A level with a line over 2^22 nodes or
    a grid over 4e7 raises ConvergenceError before it runs.  Returns
    (values, step + tail + floor, plan).
    """
    halves = [(-math.log(rel_tol * 1e-3) + 6.0) / decay for decay in decays]
    h = min(math.pi / (3.0 * max(1.0, osc)), 0.125)
    prev = None
    while True:
        counts = [math.ceil(half / h) for half in halves]
        sizes = [2 * c + 1 for c in counts]
        if max(sizes) > 2 ** 22 or math.prod(sizes) > 4e7:
            raise ConvergenceError("Mellin-Barnes quadrature exceeded its work budget "
                                   "of 2^22 nodes a line and 4e7 a grid")
        vals, scale, tail, floor = level(h, *counts)
        budget = max(rel_tol * scale, abs_tol, 4.0 * floor)
        if tail > 0.25 * budget:
            halves = [1.4 * half for half in halves]
            prev = None
            continue
        if prev is not None:
            step = abs(vals - prev)     # a float for one value: no numpy call
            step = float(step.max()) if isinstance(step, np.ndarray) else step
            if step <= budget:
                # ContourPlan's fields run abscissa, half height, nodes per line
                lines = zip(abscissae, halves, sizes)
                return vals, step + tail + floor, ContourPlan(*(v for ln in lines for v in ln))
        prev = vals
        h *= 0.5


def meijer_g_many(a_top, b_bottom, m, n, arguments, rel_tol: float = 1e-10):
    """Evaluate one G shape at many positive arguments on a shared contour.

    Returns (values, error_estimate, plan).  The contour and node count are
    chosen for the worst argument, so all values share one quadrature grid;
    this is the fast path for densities evaluated inside quadratures.  The
    values are accurate relative to the batch maximum, and a batch spans up
    to four e-folds of the argument before it is split, so the default
    tolerance is 1e-10: at 1e-8 the smaller values of such a batch sit
    ~1e-11 of the maximum off.  The integrand at conjugate nodes is
    conjugate, so the trapezoid runs over the half contour, and the kernel
    modulus |z^sigma| |F(y)| is rank one, so the tail and roundoff monitors
    need no arguments x nodes array.
    """
    a = tuple(float(v) for v in a_top)
    b = tuple(float(v) for v in b_bottom)
    z = np.atleast_1d(np.asarray(arguments, dtype=float))
    if not np.all(z > 0):     # NaN fails too
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
    decay = _decay_rate(len(a), len(b), m, n)
    if decay <= 0:
        raise ConvergenceError("integrand does not decay along the contour")
    sigma = _plan_abscissa(a, b, m, n, lnz=float(np.mean(lnz)))

    def level(h, count):
        # the integrand at -y is the conjugate of the one at +y (real
        # parameters, positive arguments), so only the upper half of the
        # contour is summed, off-centre nodes twice, real parts only
        y = h * np.arange(count + 1)
        logf = _line_log_block(a, b, m, n, sigma + 1j * y)
        lead = float(np.max(logf.real))
        mag = np.exp(logf.real - lead)        # |F(y)| / max |F|
        zpow = np.exp(sigma * lnz + lead)     # |z^sigma| max |F| per argument
        wts = np.full(count + 1, h / math.pi)
        wts[[0, -1]] *= 0.5
        vals = zpow * (np.cos(np.outer(lnz, y) + logf.imag) @ (wts * mag))
        # |kernel| = |z^sigma| |F(y)| is rank one: the monitors need only
        # |F| along the whole contour and the largest |z^sigma|
        mags = np.concatenate((mag[:0:-1], mag))
        outer, divisor = _edge_tail(mags, min(8, count // 2))
        peak = float(np.max(zpow)) * h / (2.0 * math.pi)
        return (vals, float(np.max(np.abs(vals))) + 1e-300,
                peak * outer / divisor, 1e-15 * peak * float(mags.sum()))

    return _refine(level, (sigma,), (decay,), float(np.max(np.abs(lnz))), rel_tol)


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


def _plan_bivariate(t_block):
    """Contour abscissae for the coupled double integral.

    sigma_t sits inside the t-block's strip, sigma_s right of the coupling
    poles at -sigma_t and left of the pole of Gamma(-s) at 0.  Both are
    fixed, not saddles as in :func:`_plan_abscissa`: sigma_s must not move
    with x1, or the line memo loses its reuse within a fit, and a metric
    t-block's own saddle can leave no room for s.
    """
    t_left, t_right = _strip(t_block.a, t_block.b, t_block.m, t_block.n)
    lo = t_left + COLLIDE_TOL
    hi = t_right - COLLIDE_TOL
    # keep sigma_t positive so the s-line (right poles starting at the
    # origin) can sit left of zero yet clear the coupling
    target = 0.45 if hi > 0.55 else 0.7 * hi
    pad = 0.02 * min(1.0, hi - lo)
    sigma_t = min(max(target, lo + pad), hi - pad)
    if sigma_t <= 0:
        raise PoleCollisionError("t-contour forced nonpositive; cannot clear coupling")
    room = sigma_t - COLLIDE_TOL     # from the coupling poles to the origin
    if room <= COLLIDE_TOL:
        raise PoleCollisionError("no s-contour clears the coupling poles")
    return -0.5 * min(1.0, room), sigma_t


# The lines of one refinement level do not depend on x1, and only the
# t-collapse depends on x2, so each is memoised on its exact inputs and
# shared by every call on the same grid: the steps of a root search in x1,
# the sweep points that share a t-block.  Cached arrays are read-only.
#
# Size: one calibration (three gamma_bar2 fits) builds 30 distinct
# t-collapses and reuses each within 16 other builds; a closed-form sweep
# reuses its lines within 26.  Thirty-two entries keep all of those reuses,
# and 1,211 of the 1,248 line reuses of tools/output_digest.py's sweeps.
# Worst case: the metric families here have ns/nt between 0.6 and 2.2, so a
# level under the 4e7-node cap has at most about 9,400 s and 8,200 t nodes, and
# one entry holds at most 0.53 MB (s-line), 0.26 MB (t-line), 0.95 MB (coupling
# line: 17,601 values and moduli and a 32,768-point transform) and 0.23 MB
# (t-collapse): 63 MB for all four caches full.
# Under the memo, _LINE_STORE keeps each line's log gammas at the finest step
# seen, keyed by block and abscissa: _LINE_CACHE entries of at most
# _STORE_NODES complex values, 16.8 MB full.
_LINE_CACHE = 32
_STORE_NODES = 2 ** 15
_LINE_STORE = {}


def _frozen(*arrays):
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def _stored_line(f, key, sigma, h, n):
    """f(sigma + i h k), |k| <= n, from the store entry (step, values at step j,
    NaN where not yet computed) of line ``key``: only the missing nodes are
    computed, each at the point its own step gives (step 2^k j is exact), so
    every value keeps its bits.  A step no power of two from the held one, or
    an entry past _STORE_NODES values, starts afresh."""
    key += (sigma,)
    step, held = _LINE_STORE.pop(key, (h, np.full(1, np.nan + 0j)))
    up = round(math.log2(h / step))
    spread = 1 << max(-up, 0)     # a finer step spreads the held values out
    half = max(len(held) // 2 * spread, n << max(up, 0))
    if math.ldexp(step, up) != h or 2 * half + 1 > _STORE_NODES:
        step, held, up, spread, half = h, np.full(1, np.nan + 0j), 0, 1, n
    step, up, mid = min(step, h), max(up, 0), len(held) // 2 * spread
    grid = np.full(2 * half + 1, np.nan + 0j)
    grid[half - mid:half + mid + 1:spread] = held
    idx = half + (np.arange(-n, n + 1) << up)
    vals = grid[idx]
    new = np.isnan(vals)
    if new.any():
        vals[new] = grid[idx[new]] = f(sigma + 1j * (step * (idx[new] - half)))
    if len(grid) <= _STORE_NODES:
        _LINE_STORE[key] = step, grid
        if len(_LINE_STORE) > _LINE_CACHE:
            del _LINE_STORE[next(iter(_LINE_STORE))]
    return vals


@functools.lru_cache(maxsize=_LINE_CACHE)
def _t_line(t_block, sigma_t, h, nt):
    """t-contour points and the t-block's log gammas on them."""
    v = h * np.arange(-nt, nt + 1)
    t = sigma_t + 1j * v
    blk = functools.partial(_line_log_block, t_block.a, t_block.b, t_block.m, t_block.n)
    return _frozen(t, _stored_line(blk, ("t", t_block), sigma_t, h, nt))


@functools.lru_cache(maxsize=_LINE_CACHE)
def _coupling_line(sigma_w, h, n):
    """Coupling gamma on the antidiagonal sums s + t (abscissa ``sigma_w``), scaled by
    its largest modulus: (log of that scale, values, moduli, and the values' FFT)."""
    log_c = _stored_line(loggamma, ("w",), sigma_w, h, n)
    c_max = float(np.max(log_c.real))
    c_n = np.exp(log_c - c_max)
    return (c_max,) + _frozen(c_n, np.abs(c_n), fft(c_n, 1 << (len(c_n) - 1).bit_length()))


@functools.lru_cache(maxsize=_LINE_CACHE)
def _s_line(coef, sigma_s, h, ns):
    """s-contour points, log Gamma(-s) Gamma(1 - s) = log(-s Gamma(-s)^2) on them,
    and the Pochhammer polynomial P with its termwise modulus bound, built as
    running products."""
    u = h * np.arange(-ns, ns + 1)
    s = sigma_s + 1j * u
    log_g = _stored_line(lambda pts: 2.0 * loggamma(-pts) + _clog(-pts), ("s",), sigma_s, h, ns)
    poch = np.ones_like(s)
    poly = np.full_like(s, coef[0])
    bound = np.full(len(s), abs(coef[0]))
    for k in range(1, len(coef)):
        poch *= k - 1 - s
        poly += coef[k] * poch
        bound += abs(coef[k]) * np.abs(poch)
    return _frozen(s, log_g, poly, bound)


@functools.lru_cache(maxsize=_LINE_CACHE)
def _t_collapse(t_block, sigma_s, sigma_t, h, ns, nt, x2):
    """The t-integral at every s node, a correlation taken by FFT, with the
    t-tail monitor's edge magnitudes per s node and its tail divisor."""
    t, log_blk = _t_line(t_block, sigma_t, h, nt)
    log_t = log_blk + t * math.log(x2)
    # the kernel C[i + k] T[k] is a Hankel matrix times a diagonal, never
    # formed; both maxima are factored out so nothing overflows, and
    # restored in tvec
    c_max, _, abs_c, c_fft = _coupling_line(sigma_s + sigma_t, h, ns + nt)
    t_max = float(np.max(log_t.real))
    t_n = np.exp(log_t - t_max)
    t_n[0] *= 0.5      # trapezoid weights on the t edges
    t_n[-1] *= 0.5
    lead = math.exp(c_max + t_max)
    # tvec[i] = sum_k C[i + k] T[k] is C convolved with T reversed, at 2nt + i;
    # a length >= len(C) wraps only into the outputs below 2nt, dropped here
    conv = ifft(c_fft * fft(t_n[::-1], len(c_fft)))
    tvec = lead * conv[2 * nt:2 * nt + 2 * ns + 1]
    tvec[[0, -1]] *= 0.5   # and on the s edges
    # t-tail monitor: edge blocks of |kernel| per s node, and the edge
    # column sums |T[k]| sum_i |C[i + k]| over the whole s-line, summed
    # directly so that tail columns keep their relative accuracy
    blk_t = min(8, nt // 2)
    abs_t = np.abs(t_n)
    t_edge = lead / blk_t * (
        sliding_window_view(abs_c[:2 * ns + blk_t], blk_t) @ abs_t[:blk_t]
        + sliding_window_view(abs_c[-(2 * ns + blk_t):], blk_t) @ abs_t[-blk_t:])
    cols = np.r_[:2 * blk_t, 2 * nt + 1 - 2 * blk_t:2 * nt + 1]
    col_sums = sliding_window_view(abs_c, 2 * ns + 1)[cols].sum(axis=1)
    _, t_divisor = _edge_tail(abs_t[cols] * col_sums, blk_t)
    return _frozen(tvec, t_edge) + (t_divisor,)


def meijer_g_bivariate_family(weights, t_block, x1, x2,
                              rel_tol: float = 1e-8, abs_tol: float = 0.0):
    """Sum over j = 0..len(weights)-1 of weights[j] times the channel
    statistics' bivariate G term j.

    Term j is the double Mellin-Barnes integral of
    Gamma(s + t) Gamma(j - s) Gamma(1 - s) Phi_t(t) x1^s x2^t, with Phi_t
    the t-block in classical orientation.  As Gamma(j - s) =
    Gamma(-s) (-s)_j, the weighted sum is one double integral whose s-side
    carries the Pochhammer polynomial P(s) = sum_j w_j (-s)_j; the tail and
    roundoff monitors take sum_j |w_j| |(-s)_j| instead, which sees every
    term before the weights cancel.  On the shared grid the kernel is
    C[i + k] T[k], the coupling gamma on the antidiagonal sums times the
    t-block, so the t-collapse is a correlation, an FFT in O((ns + nt) log):
    memory and the exponentials are O(ns + nt), never O(ns nt).  On a fixed
    grid x1 enters only through x1^s, so each contour line is built once per
    grid and memoised; a call whose grid and x2 an earlier call shared only
    adds s ln x1, exponentiates and sums.  A finer or wider level computes
    log gammas only at its new nodes, and every value keeps its bits.

    Returns (total, error_estimate, plan).  ``abs_tol`` sets an
    absolute-error floor so that totals which underflow toward zero still
    terminate.  A call that cannot meet its budget within the work cap of
    :func:`_refine` raises ConvergenceError.
    """
    if not (x1 > 0 and x2 > 0):     # NaN fails too
        raise ValueError("arguments must be positive")
    sigma_s, sigma_t = _plan_bivariate(t_block)
    coef = tuple(float(w) for w in weights)

    # Gamma(j - s) Gamma(1 - s) decays like exp(-pi |u|); the coupling gamma
    # contributes exp(-pi |u+v| / 2), counted half toward each axis when
    # sizing truncation heights
    dec_s = math.pi + 0.25 * math.pi
    dec_t = _decay_rate(len(t_block.a), len(t_block.b), t_block.m, t_block.n) + 0.25 * math.pi
    if dec_t <= 0:
        raise ConvergenceError("bivariate integrand does not decay")

    def level(h, ns, nt):
        s, log_g, poly, bound = _s_line(coef, sigma_s, h, ns)
        tvec, t_edge, t_divisor = _t_collapse(t_block, sigma_s, sigma_t, h, ns, nt, x2)
        fs = np.exp(log_g + s * math.log(x1))
        fs_mod = np.abs(fs) * bound
        quadw = h * h / (4.0 * math.pi ** 2)
        total = float(np.real(np.sum(fs * poly * tvec))) * quadw
        mag_row = fs_mod * np.abs(tvec)
        outer_s, s_divisor = _edge_tail(mag_row, min(8, ns // 2))
        tail = (outer_s / s_divisor + float(fs_mod @ t_edge) / t_divisor) * quadw
        # an oscillatory kernel cannot be summed below its roundoff floor
        return total, abs(total), tail, 1e-15 * float(mag_row.sum()) * quadw

    osc = max(abs(math.log(x1)), abs(math.log(x2)))
    return _refine(level, (sigma_s, sigma_t), (dec_s, dec_t), osc, rel_tol, abs_tol)


def duplication_split(r: int, u: float) -> tuple[float, ...]:
    """Gamma-duplication parameter list u/r, (u+1)/r, ..., (u+r-1)/r.

    Expands Gamma(u + r t) into r gamma factors before quadrature, so one
    generic contour evaluator covers both detection modes (r = 1, 2).
    """
    if r < 1:
        raise ValueError("r must be a positive integer")
    return tuple((u + i) / r for i in range(r))
