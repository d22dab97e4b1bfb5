"""Shared numerical helpers: log-linear fits, and monotone bisection, which no
library path calls (it is the tests' reference inverse and a benchmark probe)."""

from __future__ import annotations

from typing import Callable

import numpy as np


def bisect_increasing(
    f: Callable[[np.ndarray], np.ndarray],
    target: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    *,
    xtol: float = 1e-12,
    ftol: float | None = None,
    max_iter: int = 200,
) -> np.ndarray:
    """Solve f(x) = target for increasing f, vectorized over targets.

    `lo` and `hi` must bracket every target (f(lo) <= target <= f(hi) up to
    roundoff; out-of-bracket targets converge to the nearest endpoint).
    Iterates until the bracket width is below `xtol`, the residual is below
    `ftol` (when given), or the bracket is exhausted in double precision.
    """
    target = np.asarray(target, dtype=float)
    a = np.broadcast_to(np.asarray(lo, dtype=float), target.shape).copy()
    b = np.broadcast_to(np.asarray(hi, dtype=float), target.shape).copy()
    for _ in range(max_iter):
        mid = 0.5 * (a + b)
        # Bracket exhausted when the midpoint stops moving.
        stuck = (mid <= a) | (mid >= b)
        if stuck.all():
            break
        val = f(mid)
        go_right = val < target
        a = np.where(go_right & ~stuck, mid, a)
        b = np.where(~go_right & ~stuck, mid, b)
        width_done = (b - a) <= xtol
        if ftol is not None:
            width_done &= np.abs(val - target) <= ftol
        if width_done.all():
            break
    return 0.5 * (a + b)


def linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line y ~ a + b x; returns (a, b, r_squared).

    A flat response (zero variance in y) fits with slope 0 and r_squared 0.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    if n < 2:
        raise ValueError("need at least two points")
    xm = x.mean()
    ym = y.mean()
    sxx = np.sum((x - xm) ** 2)
    sxy = np.sum((x - xm) * (y - ym))
    syy = np.sum((y - ym) ** 2)
    if sxx == 0.0:
        raise ValueError("degenerate abscissa")
    slope = sxy / sxx
    intercept = ym - slope * xm
    if syy <= 0.0:
        return intercept, 0.0, 0.0
    resid = y - (intercept + slope * x)
    r2 = 1.0 - float(np.sum(resid**2) / syy)
    return float(intercept), float(slope), float(r2)
