"""`numerics.bisect_increasing`, the tests' reference inverse."""

import numpy as np

from rovella import map_core as mc
from rovella.numerics import bisect_increasing


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
