import dataclasses

import numpy as np
import pytest

from rovella import map_core as mc
from rovella import measures as ms
from rovella import noise
from rovella.errors import InsufficientData


def coarsen(masses: np.ndarray) -> np.ndarray:
    return masses.reshape(-1, 2).sum(axis=1)


class TestUlamOperator:
    def test_rows_stochastic(self, fam):
        grid = ms.UniformGrid(128)
        for t in (0.0, 0.05, -0.03):
            mat = ms.ulam_row_operator(fam, t, grid)
            rows = np.asarray(mat.sum(axis=1)).ravel()
            assert np.abs(rows - 1.0).max() <= 1e-12

    def test_monte_carlo_pushforward_oracle(self, fam):
        # push the uniform density once and compare against 10^6 sampled
        # points, cell by cell, within 3 sigma binomial error
        grid = ms.UniformGrid(64)
        t = 0.013
        mat = ms.ulam_row_operator(fam, t, grid)
        masses = np.full(grid.m, 1.0 / grid.m)
        pushed = mat.T @ masses

        n = 1_000_000
        rng = np.random.default_rng(12345)
        xs = rng.uniform(-1, 1, n)
        xs = xs[xs != 0]
        ys = mc.evaluate(fam, t, xs)
        counts, _ = np.histogram(ys, bins=grid.edges)
        frac = counts / xs.size
        sigma = np.sqrt(np.maximum(pushed * (1 - pushed), 1e-12) / xs.size)
        assert np.all(np.abs(frac - pushed) <= 3 * sigma + 1e-9)

    def test_single_push_exact_under_coarsening(self, fam):
        # one push of the uniform density is the exact pushforward binned,
        # so coarsening the double-resolution result reproduces it to zero
        m = 256
        g1, g2 = ms.UniformGrid(m), ms.UniformGrid(2 * m)
        p1 = ms.ulam_row_operator(fam, 0.02, g1).T @ np.full(m, 1.0 / m)
        p2 = ms.ulam_row_operator(fam, 0.02, g2).T @ np.full(2 * m, 0.5 / m)
        assert np.abs(p1 - coarsen(p2)).sum() <= 1e-14

    def test_resolution_convergence(self, fam, noisy_stream):
        # rebinning error enters through composition; a short composed
        # pullback converges as the grid doubles (deep pullbacks develop
        # the sample density's hierarchy of inverse-sqrt spikes, for which
        # the refinement invariant below is the right check instead)
        dists = []
        for m in (256, 512, 1024):
            d1 = ms.equivariant_density(fam, noisy_stream, 2, ms.UniformGrid(m))
            d2 = ms.equivariant_density(fam, noisy_stream, 2, ms.UniformGrid(2 * m))
            dists.append(np.abs(d1.masses() - coarsen(d2.masses())).sum())
        assert dists[0] > dists[1] > dists[2]


class TestEquivariantDensity:
    def test_zero_depth_is_uniform(self, fam, noisy_stream):
        grid = ms.UniformGrid(64)
        dens = ms.equivariant_density(fam, noisy_stream, 0, grid)
        assert np.allclose(dens.weights, 0.5)

    def test_normalization_and_positivity(self, fam, noisy_stream):
        dens = ms.equivariant_density(fam, noisy_stream, 100, ms.UniformGrid(512))
        assert abs(dens.masses().sum() - 1.0) <= 1e-12
        assert np.all(dens.weights >= 0)

    def test_degenerate_noise_seed_independent(self, fam):
        grid = ms.UniformGrid(256)
        d1 = ms.equivariant_density(fam, noise.stream(1, 0.0), 80, grid)
        d2 = ms.equivariant_density(fam, noise.stream(99, 0.0), 80, grid)
        assert np.array_equal(d1.weights, d2.weights)

    def test_equivariance_cauchy_bound(self, fam, noisy_stream):
        # pushing the depth-m density one step forward approximates the
        # shifted stream's density no worse than the depth-(m-1) vs depth-m
        # pullback residual, up to grid error
        grid = ms.UniformGrid(512)
        m_past = 60
        cache = ms.OperatorCache(fam, noisy_stream, grid)
        here = ms.equivariant_density(fam, noisy_stream, m_past, grid, cache=cache)
        pushed = cache.push(here.masses(), 0)
        shifted = ms.equivariant_density(fam, noise.shift(noisy_stream, 1), m_past, grid)
        lhs = np.abs(pushed - shifted.masses()).sum()
        prev = ms.equivariant_density(fam, noisy_stream, m_past - 1, grid, cache=cache)
        rhs = np.abs(here.masses() - prev.masses()).sum()
        assert lhs <= rhs + 0.02

    def test_grid_refinement_consistency(self, fam, noisy_stream):
        d10 = ms.equivariant_density(fam, noisy_stream, 120, ms.UniformGrid(2**10))
        d11 = ms.equivariant_density(fam, noisy_stream, 120, ms.UniformGrid(2**11))
        l1 = np.abs(d10.masses() - coarsen(d11.masses())).sum()
        assert l1 < 0.05

    def test_density_vector_validation(self):
        grid = ms.UniformGrid(16)
        with pytest.raises(ValueError):
            ms.DensityVector(grid, -np.ones(16))
        with pytest.raises(ValueError):
            ms.DensityVector(grid, np.ones(16))  # integrates to 2


class TestQuenchedCorrelation:
    @pytest.mark.parametrize("direction", ["forward", "backward"])
    @pytest.mark.parametrize("method", ["ulam", "monte_carlo"])
    def test_constant_psi_cancels(self, fam, noisy_stream, direction, method):
        series = ms.quenched_correlation(
            fam, noisy_stream, lambda x: x, lambda x: np.ones_like(x), 30,
            method=method, grid=ms.UniformGrid(128), m_past=40, direction=direction,
            mc_samples=20_000,
        )
        assert series.values.max() <= 1e-10

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    @pytest.mark.parametrize("method", ["ulam", "monte_carlo"])
    def test_constant_phi_cancels(self, fam, noisy_stream, direction, method):
        series = ms.quenched_correlation(
            fam, noisy_stream, lambda x: np.ones_like(x), np.sign, 30,
            method=method, grid=ms.UniformGrid(128), m_past=40, direction=direction,
            mc_samples=20_000,
        )
        assert series.values.max() <= 1e-10

    def test_forward_backward_rates_agree_mc(self, fam, noisy_stream):
        # 1e5-sample Monte Carlo: the two displays see the same mixing rate
        kw = dict(method="monte_carlo", m_past=120, mc_samples=100_000, burn_in=2)
        f = ms.quenched_correlation(fam, noisy_stream, lambda x: x, np.sign, 25,
                                    direction="forward", **kw)
        b = ms.quenched_correlation(fam, noisy_stream, lambda x: x, np.sign, 25,
                                    direction="backward", **kw)
        assert f.rate is not None and b.rate is not None
        assert f.rate > 0 and b.rate > 0
        assert abs(f.rate - b.rate) <= 0.35 * max(f.rate, b.rate)

    def test_monte_carlo_drops_dead_sample(self, fam, noisy_stream):
        # A family that sends one starting point exactly onto the singularity:
        # the estimator must average over the other samples, computed here
        # by a per-sample loop.
        samples, m_past, n_max = 200, 10, 12
        half = (np.arange(samples // 2) + 0.5) / (samples // 2)
        starts = np.concatenate([2.0 * half - 1.0, 1.0 - 2.0 * half])
        x_dead = float(starts.max())

        def value(t, x):
            return np.where(np.asarray(x) == x_dead, 0.0, fam.value(t, x))

        killer = dataclasses.replace(fam, value=value)
        paths = []
        for x in starts:
            path = []
            for j in range(-m_past, n_max):
                x = mc.evaluate(killer, noisy_stream.get(j), x)
                if x == 0.0:
                    break
                if j >= -1:
                    path.append(x)
            else:
                paths.append(path)
        assert len(paths) == samples - 2  # the antithetic grid holds x_dead twice
        snaps = np.ascontiguousarray(np.array(paths).T)
        psi0 = np.sign(snaps[0])
        expected = [
            abs((snaps[n] * psi0).mean() - snaps[n].mean() * psi0.mean())
            for n in range(n_max + 1)
        ]
        series = ms.quenched_correlation(
            killer, noisy_stream, lambda x: x, np.sign, n_max,
            method="monte_carlo", m_past=m_past, mc_samples=samples,
        )
        np.testing.assert_allclose(series.values, expected, rtol=1e-12, atol=1e-15)

    def test_shared_cache_matches_separate_builds(self, fam, noisy_stream):
        grid = ms.UniformGrid(128)
        args = (fam, noisy_stream, lambda x: x, np.sign, 12)
        cache = ms.OperatorCache(fam, noisy_stream, grid)
        for direction in ("forward", "backward"):
            alone = ms.quenched_correlation(*args, grid=grid, m_past=20, direction=direction)
            shared = ms.quenched_correlation(
                *args, grid=grid, m_past=20, direction=direction, cache=cache
            )
            assert shared.values.tobytes() == alone.values.tobytes()
        # Forward uses indices -20..11, backward -32..-1: 44 distinct operators.
        assert sorted(cache._ops) == list(range(-32, 12))
        with pytest.raises(ValueError):
            ms.quenched_correlation(*args, grid=ms.UniformGrid(64), cache=cache)
        with pytest.raises(ValueError):
            ms.quenched_correlation(
                fam, noise.stream(2, 0.01), lambda x: x, np.sign, 12, cache=cache
            )

    def test_ulam_decay_positive_rate(self, fam, noisy_stream):
        series = ms.quenched_correlation(
            fam, noisy_stream, lambda x: x, np.sign, 30,
            method="ulam", grid=ms.UniformGrid(512), m_past=80,
        )
        c, b, r2 = series.fitted()
        assert b > 0
        assert r2 >= 0.9


class TestFitExponential:
    def test_exact_series(self):
        n = np.arange(50)
        c, b, r2 = ms.fit_exponential(3 * np.exp(-0.2 * n))
        assert c == pytest.approx(3.0, abs=1e-9)
        assert b == pytest.approx(0.2, abs=1e-9)
        assert r2 == pytest.approx(1.0, abs=1e-9)

    def test_constant_series_convention(self):
        c, b, r2 = ms.fit_exponential(np.full(20, 0.7))
        assert b == 0.0
        assert r2 == 0.0
        assert c == pytest.approx(0.7)

    def test_noisy_series(self):
        n = np.arange(50)
        rng = np.random.default_rng(0)
        series = 3 * np.exp(-0.2 * n) * (1 + rng.uniform(-0.05, 0.05, 50))
        _, b, _ = ms.fit_exponential(series)
        assert 0.17 <= b <= 0.23

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            ms.fit_exponential(np.array([1.0, 0.5, 0.2]))
        with pytest.raises(InsufficientData):
            ms.fit_exponential(np.full(10, 1e-16))  # everything under the floor

    def test_floor_and_burn_in(self):
        n = np.arange(40)
        series = np.exp(-1.0 * n)  # under the floor past n ~ 32
        c, b, r2 = ms.fit_exponential(series, burn_in=3)
        assert b == pytest.approx(1.0, abs=1e-9)


class TestObservables:
    def test_registry_entries_callable(self):
        xs = np.linspace(-1, 1, 11)
        for name, (f, eta) in ms.OBSERVABLES.items():
            vals = np.asarray(f(xs))
            assert vals.shape == xs.shape
            assert 0 < eta <= 1

    def test_holder_seminorm(self):
        assert ms.holder_seminorm(lambda x: x, 1.0) == pytest.approx(1.0, rel=1e-6)
        assert ms.holder_seminorm(lambda x: np.zeros_like(x), 1.0) == 0.0
