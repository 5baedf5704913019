"""Upper quantiles of the normal and F distributions, in pure Python.

fit_pca's control limits need two scalars for a given alpha: z with
P(Z > z) = alpha, and f with P(F(d1, d2) > f) = alpha. Both are computed from
alpha itself, never from 1 - alpha, which rounds to 1.0 for alpha below
about 1.1e-16.
"""
from __future__ import annotations

import math
import struct

# Coefficients B_2j / (2j (2j - 1)) of the Stirling series for lgamma.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


def _stirling_remainder(z: float) -> float:
    """lgamma(z) - ((z - 1/2) ln z - z + ln(2 pi) / 2), for z >= 10."""
    zz = 1.0 / (z * z)
    return sum(c * zz**j for j, c in enumerate(_STIRLING)) / z


def _log_beta(a: float, b: float) -> float:
    """ln B(a, b), without the cancellation of lgamma(b) - lgamma(a + b) for large b."""
    a, b = min(a, b), max(a, b)
    if b < 10:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    # lgamma(b) - lgamma(a + b) from Stirling's formula for both terms
    # (TOMS 708's algdiv): their large parts cancel in closed form.
    return (
        math.lgamma(a)
        - a * math.log(b)
        - (a + b - 0.5) * math.log1p(a / b)
        + a
        + _stirling_remainder(b)
        - _stirling_remainder(a + b)
    )


def _beta_fraction(a: float, b: float, x: float, y: float, lam: float) -> float:
    """I_x(a, b) / (x^a y^b / B(a, b)) for y = 1 - x and lam = a - (a + b) x >= 0.

    The continued fraction of DiDonato and Morris (TOMS 708's bfrac), summed
    by the three-term recurrence. Its terms hold lam, never a - (a + b) x
    recomputed from a rounded x, so it keeps full precision where x is near 1.
    """
    c, c0, c1, yp1 = 1.0 + lam, b / a, 1.0 + 1.0 / a, y + 1.0
    p, s = 1.0, a + 1.0
    an, bn, anp1, bnp1 = 0.0, 1.0, 1.0, c / c1
    r = c1 / c
    for n in range(1, 100_000):
        t = n / a
        w = n * (b - n) * x
        e = a / s
        alpha_n = p * (p + c0) * e * e * (w * x)
        e = (1.0 + t) / (c1 + t + t)
        beta_n = n + w / s + e * (c + n * yp1)
        p = 1.0 + t
        s += 2.0
        an, anp1 = anp1, alpha_n * an + beta_n * anp1
        bn, bnp1 = bnp1, alpha_n * bn + beta_n * bnp1
        r0, r = r, anp1 / bnp1
        if abs(r - r0) <= 1e-16 * r:
            break
        an, bn, anp1, bnp1 = an / bnp1, bn / bnp1, r, 1.0
    return r


def _log_tail(a: float, b: float, t: float, log_beta: float, lower: bool) -> float:
    """ln P(T < t) (lower) or ln P(T > t) for T ~ Beta(a, b), 0 < t <= 1/2.

    log_beta is ln B(a, b). The tail on t's side of the mean comes from the
    continued fraction; the other is one minus it.
    """
    lam = a - (a + b) * t
    near_is_lower = lam >= 0
    if near_is_lower:
        frac = _beta_fraction(a, b, t, 1.0 - t, lam)
    else:
        frac = _beta_fraction(b, a, 1.0 - t, t, -lam)
    log_near = a * math.log(t) + b * math.log1p(-t) - log_beta + math.log(frac)
    return log_near if near_is_lower == lower else math.log1p(-math.exp(log_near))


def f_isf(dfn: int, dfd: int, alpha: float) -> float:
    """f with P(F(dfn, dfd) > f) = alpha, for 0 < alpha < 1.

    F = dfd x / (dfn (1 - x)) for x ~ Beta(dfn/2, dfd/2). The root is
    bisected over the bit patterns of x or of 1 - x, whichever is at most
    1/2, so it ends on adjacent doubles of the variable kept exact. With
    dfd >= 9, as fit_pca's n >= 10 d ensures, f is finite for every alpha.
    """
    a, b = dfn / 2, dfd / 2
    log_beta = _log_beta(a, b)
    log_alpha = math.log(alpha)
    # x <= 1/2 exactly when P(X > 1/2) <= alpha; then x is the exact variable
    # and its upper tail falls as it grows. Otherwise y = 1 - x is, with
    # P(X > x) = P(Y < y) for Y ~ Beta(b, a) rising with y.
    small_x = _log_tail(a, b, 0.5, log_beta, lower=False) <= log_alpha
    # Positive doubles sort as their bit patterns; 0x3FE0... is that of 1/2.
    lo, hi = 0, 0x3FE0_0000_0000_0000
    while hi - lo > 1:
        mid = (lo + hi) // 2
        (t,) = struct.unpack("<d", struct.pack("<q", mid))
        if small_x:
            below_root = _log_tail(a, b, t, log_beta, lower=False) > log_alpha
        else:
            below_root = _log_tail(b, a, t, log_beta, lower=True) < log_alpha
        lo, hi = (mid, hi) if below_root else (lo, mid)
    (t,) = struct.unpack("<d", struct.pack("<q", hi))
    return dfd * t / (dfn * (1.0 - t)) if small_x else dfd * (1.0 - t) / (dfn * t)


def norm_isf(alpha: float) -> float:
    """z with P(Z > z) = alpha for a standard normal Z, for 0 < alpha < 1."""
    # Imported here: statistics pulls in fractions and decimal, and only
    # fitting needs it.
    from statistics import NormalDist

    return -NormalDist().inv_cdf(alpha)
