"""Distribution distances, Welch tests, and local-regression smoothing.

The one-dimensional Wasserstein distance integrates |F_a^{-1} - F_b^{-1}|
exactly over the merged quantile grid, with breakpoints kept as integers on
the common denominator n*m, so unequal sample sizes introduce no
discretization error. Student-t tail
probabilities come from a regularized incomplete-beta continued fraction
(~1e-10 accurate) so p-values do not depend on an external library.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

log = logging.getLogger(__name__)


class StatsError(ValueError):
    """Degenerate input for a statistical routine."""


def wasserstein1(sample_a: Sequence[float], sample_b: Sequence[float]) -> float:
    """Exact 1-Wasserstein distance between two empirical distributions.

    Computed as the L1 distance between empirical quantile functions: both
    quantile functions are step functions with breakpoints at i/n and j/m;
    we sum |a - b| * width over the common refinement of those grids. The
    breakpoints are the integers i*m and j*n over the denominator n*m, and
    each width is one correctly rounded integer division.
    """
    if len(sample_a) == 0 or len(sample_b) == 0:
        raise StatsError("wasserstein1 requires nonempty samples")
    a = sorted(float(x) for x in sample_a)
    b = sorted(float(x) for x in sample_b)
    n, m = len(a), len(b)
    nm = n * m
    total = 0.0
    pos = 0
    ia = ib = 0
    while ia < n and ib < m:
        next_a = (ia + 1) * m
        next_b = (ib + 1) * n
        cut = min(next_a, next_b)
        total += abs(a[ia] - b[ib]) * ((cut - pos) / nm)
        pos = cut
        if next_a == cut:
            ia += 1
        if next_b == cut:
            ib += 1
    return total


@dataclass(frozen=True)
class WelchResult:
    t: float
    df: float
    p: float
    ci95: tuple[float, float]


def welch_ttest(group_a: Sequence[float], group_b: Sequence[float]) -> WelchResult:
    """Welch two-sample t-test with Welch-Satterthwaite degrees of freedom."""
    a = np.asarray(group_a, dtype=float)
    b = np.asarray(group_b, dtype=float)
    if a.size < 2 or b.size < 2:
        raise StatsError("welch_ttest requires at least two values per group")
    va = a.var(ddof=1)
    vb = b.var(ddof=1)
    if va + vb == 0.0:
        raise StatsError("welch_ttest: both groups have zero variance")
    sa2 = va / a.size
    sb2 = vb / b.size
    se = math.sqrt(sa2 + sb2)
    diff = float(a.mean() - b.mean())
    t = diff / se
    df = (sa2 + sb2) ** 2 / (sa2**2 / (a.size - 1) + sb2**2 / (b.size - 1))
    p = 2.0 * student_t_sf(abs(t), df)
    crit = student_t_ppf(0.975, df)
    return WelchResult(t=t, df=df, p=min(p, 1.0), ci95=(diff - crit * se, diff + crit * se))


# ---------------------------------------------------------------------------
# Student-t distribution via the regularized incomplete beta function.

def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 400):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise StatsError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def betainc_regularized(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_sf(t: float, df: float) -> float:
    """P(T > t) for Student-t with df degrees of freedom."""
    if df <= 0:
        raise StatsError("degrees of freedom must be positive")
    if t == 0.0:
        return 0.5
    x = df / (df + t * t)
    tail = 0.5 * betainc_regularized(df / 2.0, 0.5, x)
    return tail if t > 0 else 1.0 - tail


def student_t_ppf(q: float, df: float) -> float:
    """Quantile of Student-t by bisection on the CDF (q in (0, 1))."""
    if not 0.0 < q < 1.0:
        raise StatsError("quantile level must be in (0, 1)")
    if q == 0.5:
        return 0.0
    lo, hi = -1.0, 1.0
    while 1.0 - student_t_sf(lo, df) > q:
        lo *= 2.0
        if lo < -1e10:
            break
    while 1.0 - student_t_sf(hi, df) < q:
        hi *= 2.0
        if hi > 1e10:
            break
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 1.0 - student_t_sf(mid, df) < q:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13 * max(1.0, abs(mid)):
            break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Local regression.

@dataclass(frozen=True)
class LoessCurve:
    span: float
    degree: int
    fitted: tuple[tuple[float, float], ...]


def loess_fit(points: Sequence[tuple[float, float]], span: float = 0.75,
              degree: int = 1) -> LoessCurve:
    """Tricube-weighted local polynomial fit evaluated at each distinct x.

    For each fit point, the span-nearest neighbors get tricube weights
    (1 - (d/h)^3)^3 with h the span radius; the local system is widened when
    it is rank-deficient (e.g. too few distinct x values carry weight).
    """
    if degree not in (1, 2):
        raise StatsError("loess degree must be 1 or 2")
    if not 0.0 < span <= 1.0:
        raise StatsError("loess span must be in (0, 1]")
    pts = sorted((float(x), float(y)) for x, y in points)
    n = len(pts)
    if n < degree + 2:
        raise StatsError(f"loess needs at least {degree + 2} points")
    r = math.ceil(span * n)
    if r < degree + 1:
        raise StatsError(f"span {span} yields {r} neighbors; need at least {degree + 1}")
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    fitted: list[tuple[float, float]] = []
    for x0 in sorted(set(x.tolist())):
        fitted.append((x0, _local_fit(x, y, x0, r, degree)))
    return LoessCurve(span=span, degree=degree, fitted=tuple(fitted))


def _local_fit(x: np.ndarray, y: np.ndarray, x0: float, r: int, degree: int) -> float:
    n = x.size
    d = np.abs(x - x0)
    order = np.argsort(d, kind="stable")
    k = r
    while True:
        h = d[order[k - 1]]
        if h == 0.0:
            w = (d == 0.0).astype(float)
        else:
            u = np.clip(d / h, 0.0, 1.0)
            w = (1.0 - u**3) ** 3
        active = w > 0.0
        if len(set(x[active].tolist())) >= degree + 1:
            break
        if k >= n:
            # Degenerate support: fall back to a weighted mean.
            log.warning("loess: singular local system at x=%.6g even with the full "
                        "data window; falling back to a local mean", x0)
            w = np.ones(n) if h == 0.0 else w
            return float(np.average(y, weights=np.maximum(w, 1e-12)))
        k += 1
        log.warning("loess: singular local system at x=%.6g; widening neighborhood "
                    "to %d points", x0, k)
    centered = x - x0
    design = np.vander(centered, N=degree + 1, increasing=True)
    wd = design * w[:, None]
    beta, *_ = np.linalg.lstsq(wd.T @ design, wd.T @ y, rcond=None)
    return float(beta[0])
