import dataclasses
import tracemalloc

import numpy as np
import pytest

from rovella import cli
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
            g1, g2 = ms.UniformGrid(m), ms.UniformGrid(2 * m)
            d1 = ms.equivariant_density(fam, noisy_stream, 2, g1)
            d2 = ms.equivariant_density(fam, noisy_stream, 2, g2)
            dists.append(np.abs(d1 * g1.h - coarsen(d2 * g2.h)).sum())
        assert dists[0] > dists[1] > dists[2]


class TestEquivariantDensity:
    def test_zero_depth_is_uniform(self, fam, noisy_stream):
        grid = ms.UniformGrid(64)
        dens = ms.equivariant_density(fam, noisy_stream, 0, grid)
        assert np.allclose(dens, 0.5)

    def test_normalization_and_positivity(self, fam, noisy_stream):
        grid = ms.UniformGrid(512)
        dens = ms.equivariant_density(fam, noisy_stream, 100, grid)
        assert abs((dens * grid.h).sum() - 1.0) <= 1e-12
        assert np.all(dens >= 0)

    def test_degenerate_noise_seed_independent(self, fam):
        grid = ms.UniformGrid(256)
        d1 = ms.equivariant_density(fam, noise.stream(1, 0.0), 80, grid)
        d2 = ms.equivariant_density(fam, noise.stream(99, 0.0), 80, grid)
        assert np.array_equal(d1, d2)

    def test_equivariance_cauchy_bound(self, fam, noisy_stream):
        # pushing the depth-m density one step forward approximates the
        # shifted stream's density no worse than the depth-(m-1) vs depth-m
        # pullback residual, up to grid error
        grid = ms.UniformGrid(512)
        m_past = 60
        cache = ms.OperatorCache(fam, noisy_stream, grid)
        here = ms.equivariant_density(fam, noisy_stream, m_past, grid)
        pushed = cache.push(here * grid.h, 0)
        shifted = ms.equivariant_density(fam, noise.shift(noisy_stream, 1), m_past, grid)
        lhs = np.abs(pushed - shifted * grid.h).sum()
        prev = ms.equivariant_density(fam, noisy_stream, m_past - 1, grid)
        rhs = np.abs(here * grid.h - prev * grid.h).sum()
        assert lhs <= rhs + 0.02

    def test_grid_refinement_consistency(self, fam, noisy_stream):
        g10, g11 = ms.UniformGrid(2**10), ms.UniformGrid(2**11)
        d10 = ms.equivariant_density(fam, noisy_stream, 120, g10)
        d11 = ms.equivariant_density(fam, noisy_stream, 120, g11)
        l1 = np.abs(d10 * g10.h - coarsen(d11 * g11.h)).sum()
        assert l1 < 0.05


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

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_monte_carlo_sample_dying_in_window(self, fam, noisy_stream, direction):
        # A family that sends one sample to 0 at window step 5 of 12: it is
        # alive after burn-in and dead at the end, so the series comes from
        # the pass over the survivors. Its bytes are those of the snapshot
        # form; its values those of a per-sample loop.
        samples, m_past, n_max, k_dead = 200, 10, 12, 5
        origin = -m_past if direction == "forward" else -(m_past + n_max)
        j_dead = origin + m_past + k_dead - 1  # the noise index of window step k_dead
        half = (np.arange(samples // 2) + 0.5) / (samples // 2)
        starts = np.concatenate([2.0 * half - 1.0, 1.0 - 2.0 * half])
        x = starts
        for j in range(origin, j_dead):
            x = mc.evaluate(fam, noisy_stream.get(j), x)
        x_dead, t_dead = float(x[17]), noisy_stream.get(j_dead)

        def value(t, x):
            hit = (np.asarray(x) == x_dead) & (np.asarray(t) == t_dead)
            return np.where(hit, 0.0, fam.value(t, x))

        killer = dataclasses.replace(fam, value=value)
        paths, deaths = [], []
        for x in starts:
            path = []
            for j in range(origin, origin + m_past + n_max):
                x = mc.evaluate(killer, noisy_stream.get(j), x)
                if x == 0.0:
                    deaths.append(j)
                    break
                if j >= origin + m_past - 1:
                    path.append(x)
            else:
                paths.append(path)
        assert deaths == [j_dead]
        snaps = np.ascontiguousarray(np.array(paths).T)
        if direction == "forward":
            expected = [abs((snaps[n] * np.sign(snaps[0])).mean()
                            - snaps[n].mean() * np.sign(snaps[0]).mean())
                        for n in range(n_max + 1)]
        else:
            expected = [abs((snaps[n_max] * np.sign(snaps[n_max - n])).mean()
                            - snaps[n_max].mean() * np.sign(snaps[n_max - n]).mean())
                        for n in range(n_max + 1)]
        args = (killer, noisy_stream, lambda x: x, np.sign, n_max)
        series = ms.quenched_correlation(
            *args, method="monte_carlo", m_past=m_past, direction=direction, mc_samples=samples
        )
        np.testing.assert_allclose(series.values, expected, rtol=1e-12, atol=1e-15)

    def test_ulam_decay_positive_rate(self, fam, noisy_stream):
        series = ms.quenched_correlation(
            fam, noisy_stream, lambda x: x, np.sign, 30,
            method="ulam", grid=ms.UniformGrid(512), m_past=80,
        )
        c, b, r2 = series.fitted()
        assert b > 0
        assert r2 >= 0.9


class TestMonteCarloMemory:
    """Traced peak of one Monte Carlo series, in units of one ensemble
    array's bytes, at 100,000 samples and m_past 20. The estimator keeps no
    window states, so the peak does not grow with n_max: it reads 5.71
    forward and 5.84 backward at n_max 10 and at n_max 40. The snapshot
    form read 14.6 at n_max 10 and 44.6 at n_max 40 in both directions."""

    SAMPLES = 100_000

    def peak_ratio(self, fam, stream, direction, n_max):
        def call():
            ms.quenched_correlation(
                fam, stream, lambda x: x, np.sign, n_max, method="monte_carlo",
                m_past=20, direction=direction, mc_samples=self.SAMPLES,
            )

        call()  # let lazy set-up finish
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (8 * self.SAMPLES)

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_peak_does_not_grow_with_n_max(self, fam, noisy_stream, direction):
        short, long = (self.peak_ratio(fam, noisy_stream, direction, n) for n in (10, 40))
        assert long < 8.0
        assert max(short, long) < 1.25 * min(short, long)


class TestUlamStream:
    """`correlation` and `density` make one pass over the noise indices:
    each operator is built once, in increasing index order, and dropped
    before the next is built."""

    @staticmethod
    def config(tmp_path, **measures):
        return cli.load_config(None, {
            "measures": {"grid_m": 64, "m_past": 7, "n_max": 5, **measures},
            "output": {"directory": str(tmp_path)},
        })

    @pytest.mark.parametrize("command, direction, indices", [
        ("correlation", "both", range(-12, 5)),
        ("correlation", "forward", range(-7, 5)),
        ("correlation", "backward", range(-12, 0)),
        ("density", "forward", range(-7, 0)),
    ])
    def test_builds_each_operator_once(self, tmp_path, monkeypatch, command, direction, indices):
        cfg = self.config(tmp_path, direction=direction)
        build, built = ms._ulam_arrays, []

        def counted(family, t, grid):
            built.append(t)
            return build(family, t, grid)

        monkeypatch.setattr(ms, "_ulam_arrays", counted)
        cli.COMMANDS[command](cfg, None)
        stream = noise.stream(cfg["noise"]["seed"], cfg["noise"]["eps"])
        assert built == [stream.get(i) for i in indices]

    @pytest.mark.parametrize("command", ["correlation", "density"])
    def test_peak_does_not_grow_with_m_past(self, tmp_path, command):
        """Traced peak of the command at grid 512 and n_max 12 (both
        directions for `correlation`). With one operator held at a time,
        `correlation` reads 0.21 MB at m_past 20 and 0.22 MB at m_past 120,
        and `density` 0.23 and 0.24 MB; a cache that held every operator
        of the command read 1.17 and 3.31 MB, and 0.50 and 2.63 MB."""

        def peak(m_past):
            cfg = self.config(tmp_path, grid_m=512, m_past=m_past, n_max=12, direction="both")
            cli.COMMANDS[command](cfg, None)  # let lazy set-up finish
            tracemalloc.start()
            try:
                cli.COMMANDS[command](cfg, None)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short, long = peak(20), peak(120)
        assert max(short, long) < 1.25 * min(short, long)

    @pytest.mark.parametrize("name", ["fam", "table_fam"])
    @pytest.mark.parametrize("directions", [("forward",), ("backward",), ("forward", "backward")])
    def test_cache_lends_the_same_bytes(self, request, noisy_stream, name, directions):
        """`OperatorCache` pushes give the bytes of the streamed density, and
        a pass over several directions gives each the bytes of its own
        pass."""
        fam = request.getfixturevalue(name)
        grid = ms.UniformGrid(128)
        args = (fam, noisy_stream, lambda x: x, np.sign, 12)
        streamed = ms.quenched_correlations(*args, grid=grid, m_past=20, directions=directions)
        assert list(streamed) == list(directions)
        for d in directions:
            alone = ms.quenched_correlation(*args, grid=grid, m_past=20, direction=d)
            assert streamed[d].values.tobytes() == alone.values.tobytes()
        cache = ms.OperatorCache(fam, noisy_stream, grid)
        masses = np.full(grid.m, 1.0 / grid.m)
        for index in range(-20, 0):
            masses = cache.push(masses, index)
        assert (ms.equivariant_density(fam, noisy_stream, 20, grid).tobytes()
                == (masses / masses.sum() / grid.h).tobytes())


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
