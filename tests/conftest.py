import numpy as np
import pytest

from rovella import map_core, noise


@pytest.fixture(scope="session")
def fam():
    return map_core.fixture_family(s=2.0, eps_max=0.1)


@pytest.fixture(scope="session")
def fam3():
    return map_core.fixture_family(s=3.0, eps_max=0.1)


@pytest.fixture(scope="session")
def quiet_stream():
    """Degenerate noise: the deterministic system."""
    return noise.stream(1, 0.0)


@pytest.fixture(scope="session")
def noisy_stream():
    return noise.stream(1, 0.01)


@pytest.fixture(scope="session")
def kappa_fixture(fam):
    """Empirical expansion exponent for the fixture at eps=0.01, delta=0.01."""
    from rovella import hyperbolic

    return hyperbolic.fit_expansion_rate(fam, 1, 0.01, 0.01, samples=4000, n_cap=300)


@pytest.fixture(scope="session")
def hyp_cfg(fam, kappa_fixture):
    """Shared constants: delta=0.01, delta0=0.1, c=0.35, c_prime=0.45.

    The library default c = kappa/4 keeps the bad-set decay asymptotic only;
    these desk-scale constants make all three tail curves visibly
    exponential within n <= 60 while preserving 0 < c < c_prime < kappa.
    """
    from rovella import hyperbolic

    return hyperbolic.config_for_family(
        fam, 0.01, 0.01, 0.1, master_seed=1, kappa=kappa_fixture, c=0.35, c_prime=0.45
    )


def brute_force_hyperbolic_flags(depths: np.ndarray, c_prime: float) -> np.ndarray:
    """O(n^2) flags straight from the suffix-sum definition.

    Intentionally independent of the running-max implementation: builds the
    full matrix of window sums P[n] - P[k] and tests every k < n directly.
    """
    depths = np.asarray(depths, dtype=float)
    n = depths.size
    prefix = np.concatenate([[0.0], np.cumsum(c_prime - depths)])
    diff = prefix[1:][None, :] - prefix[:-1][:, None]  # diff[k, m] = P[m+1] - P[k]
    k_idx, m_idx = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    relevant = k_idx <= m_idx
    ok = np.where(relevant, diff > 0, True)
    return ok.all(axis=0)


@pytest.fixture(scope="session")
def table_fam():
    """PCHIP-tabulated copy of the s = 2 fixture on nodes in [1e-6, 1]."""
    xs = np.linspace(1e-6, 1.0, 200)
    return map_core.table_family(
        xs, 2 * xs**2 - 1, -xs[::-1], -(2 * xs[::-1] ** 2 - 1), s=2.0, k1=3.0, k2=4.5
    )


def zero_preimage(fam, t: float, span: int = 4000):
    """A float x > 0 whose fixture image T_t(x) rounds to exactly 0, or None.

    Searched ulp by ulp around the exact root (2 - |t|)^(-1/s). At t = 0 no
    double near 1/sqrt(2) qualifies for s = 2, but many noise values have one.
    """
    root = (2.0 - abs(t)) ** (-1.0 / fam.s)
    xs = root + np.arange(-span, span) * np.spacing(root)
    hits = xs[map_core.evaluate(fam, t, xs) == 0.0]
    return float(hits[0]) if hits.size else None


def dying_ensemble(fam, seed, eps, n):
    """(samples, x0) for a fixture ensemble whose last row's first image is
    exactly 0; the other rows keep their default starting points."""
    from rovella import orbit

    for samples in range(8, 200):
        x0, ts = orbit.ensemble_start(seed, eps, samples, n)
        x_dead = zero_preimage(fam, ts[-1, 0])
        if x_dead is not None:
            x0[-1] = x_dead
            return samples, x0
    raise AssertionError("no zero preimage found")


def reference_orbits(fam, x0, ts, delta):
    """Per-row scalar loop of the stepping rule, independent of `orbit.step`.

    Depths come from the definition by a linear scan. A row dies where
    DT * |x| is not a positive finite number (depth -1 from there) or where
    its image is exactly 0; after death points and log_der are NaN.
    """
    rows, n = ts.shape
    points = np.full((rows, n + 1), np.nan)
    log_der = np.full((rows, n + 1), np.nan)
    depths = np.full((rows, n), -1, dtype=np.int64)
    for i in range(rows):
        x = float(x0[i])
        points[i, 0], log_der[i, 0] = x, 0.0
        for k in range(n):
            dt = map_core.derivative(fam, ts[i, k], x)
            prod = dt * abs(x)
            if not 0.0 < prod < np.inf:
                break
            r = 0
            while prod < np.exp(-r) * delta:  # np.exp, as the kernel compares
                r += 1
            depths[i, k] = r
            x = map_core.evaluate(fam, ts[i, k], x)
            if x == 0.0:
                break
            points[i, k + 1] = x
            log_der[i, k + 1] = log_der[i, k] + np.log(dt)
    return points, log_der, depths
