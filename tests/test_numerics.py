"""`numerics.bisect_increasing`, the tests' reference inverse, and
`numerics.rate_fit`, the one log-linear rate fit."""

import math
from pathlib import Path

import numpy as np
import pytest

from rovella import map_core as mc
from rovella.errors import InsufficientData
from rovella.numerics import bisect_increasing, linear_fit, rate_fit


def _width_only_bisection(f, target, lo, hi, xtol, max_iter=200):
    """The bisection loop with the bracket-width stop alone."""
    target = np.asarray(target, dtype=float)
    a = np.broadcast_to(np.asarray(lo, dtype=float), target.shape).copy()
    b = np.broadcast_to(np.asarray(hi, dtype=float), target.shape).copy()
    for _ in range(max_iter):
        mid = 0.5 * (a + b)
        stuck = (mid <= a) | (mid >= b)
        if stuck.all():
            break
        go_right = f(mid) < target
        a = np.where(go_right & ~stuck, mid, a)
        b = np.where(~go_right & ~stuck, mid, b)
        if ((b - a) <= xtol).all():
            break
    return 0.5 * (a + b)


def _counted_branch(fam, t, calls):
    def f(x):
        calls.append(1)
        return mc.evaluate(fam, t, x)

    return f


TARGETS = np.linspace(-0.05, 0.05, 64)


def test_without_ftol_matches_width_only_loop(fam, table_fam):
    for family in (fam, table_fam):
        f = _counted_branch(family, 0.005, [])
        for xtol in (0.0, 1e-12):
            got = bisect_increasing(f, TARGETS, 1e-300, 1.0, xtol=xtol)
            ref = _width_only_bisection(f, TARGETS, 1e-300, 1.0, xtol)
            assert got.tobytes() == ref.tobytes()


def test_ftol_alone_stops_the_rows(fam):
    """With xtol = 0 the residual stop works on its own: fewer evaluations
    than bisecting to the floor, every residual within ftol."""
    floor, early = [], []
    bisect_increasing(_counted_branch(fam, 0.005, floor), TARGETS, 1e-300, 1.0, xtol=0.0)
    x = bisect_increasing(
        _counted_branch(fam, 0.005, early), TARGETS, 1e-300, 1.0, xtol=0.0, ftol=1e-13
    )
    assert len(early) < len(floor)
    assert np.abs(mc.evaluate(fam, 0.005, x) - TARGETS).max() <= 1e-13


N = np.arange(10)
DECAY = 0.8 * np.exp(-0.5 * N)


def test_rate_fit_recovers_an_exact_series():
    c, rate, r2, points = rate_fit(N, DECAY, np.full(N.size, True), 5)
    assert c == pytest.approx(0.8, rel=1e-12)
    assert rate == pytest.approx(0.5, rel=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    assert points == 10


def test_rate_fit_reads_only_kept_rows():
    # Rows outside `keep` may hold values with no log; they never reach it.
    values = np.where(N % 3 == 0, 0.0, DECAY)
    keep = N % 3 != 0
    c, rate, r2, points = rate_fit(N, values, keep, 5)
    intercept, slope, want_r2 = linear_fit(N[keep], np.log(DECAY[keep]))
    assert (c, rate, r2, points) == (float(np.exp(intercept)), -slope, want_r2, 6)


def test_rate_fit_minimum_points():
    keep = N < 3
    assert rate_fit(N, DECAY, keep, 3)[3] == 3
    with pytest.raises(InsufficientData, match="3 usable points, fewer than the 4"):
        rate_fit(N, DECAY, keep, 4)


def test_rate_fit_flat_series_has_negative_zero_rate():
    c, rate, r2, points = rate_fit(N, np.full(N.size, 0.3), np.full(N.size, True), 2)
    assert (rate, r2, points) == (0.0, 0.0, 10)
    assert math.copysign(1.0, rate) == -1.0
    assert c == pytest.approx(0.3, rel=1e-15)


def test_only_numerics_names_linear_fit():
    """Every log-linear fit goes through `rate_fit`: no other module of the
    package fits a line by hand."""
    src = Path(mc.__file__).parent
    users = [p.name for p in src.glob("*.py") if "linear_fit" in p.read_text()]
    assert users == ["numerics.py"]
