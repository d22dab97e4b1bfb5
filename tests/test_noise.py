import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from rovella import map_core, noise, orbit


class TestDeterminism:
    def test_repeat_call_identical(self):
        s = noise.stream(1, 0.01)
        assert s.get(0) == s.get(0)

    def test_order_independence(self):
        s1 = noise.stream(1, 0.01)
        a_first = (s1.get(-5), s1.get(7))
        s2 = noise.stream(1, 0.01)
        b_second = (s2.get(7), s2.get(-5))
        assert a_first == (b_second[1], b_second[0])

    def test_degenerate_noise(self):
        s = noise.stream(42, 0.0)
        assert all(s.get(i) == 0.0 for i in range(-50, 50))

    def test_seed_collision_sanity(self):
        a = noise.stream(1, 0.01)
        b = noise.stream(2, 0.01)
        assert any(a.get(i) != b.get(i) for i in range(100))

    def test_values_match_get(self):
        s = noise.stream(9, 0.03)
        vec = s.values(-10, 25)
        assert all(vec[k] == s.get(-10 + k) for k in range(25))


class TestShift:
    def test_identity(self):
        s = noise.stream(1, 0.01)
        assert noise.shift(s, 0) == s

    def test_definition(self):
        s = noise.stream(1, 0.01)
        assert noise.shift(s, 3).get(0) == s.get(3)

    def test_inverse(self):
        s = noise.stream(1, 0.01)
        for n in (1, 5, 17):
            assert noise.shift(s, -n).get(n) == s.get(0)

    def test_key_is_derived(self):
        # The seed's mixing round is computed once per stream. It stays out
        # of ==, hash and repr, and every new stream computes its own.
        s = noise.stream(1, 0.01)
        forged = noise.stream(1, 0.01)
        object.__setattr__(forged, "key", 0)
        assert forged == s and hash(forged) == hash(s)
        assert "key" not in repr(s)
        reseeded = dataclasses.replace(s, master_seed=2)
        assert reseeded.key == noise.stream(2, 0.01).key != s.key
        assert reseeded.get(4) == noise.stream(2, 0.01).get(4)
        assert dataclasses.replace(s, origin_offset=3).get(0) == s.get(3)
        assert dataclasses.replace(forged, eps=0.02).key == s.key
        assert noise.shift(forged, 3).key == s.key
        assert noise.shift(forged, 3).get(0) == s.get(3)
        keys = noise.ensemble_keys(7, 3)
        assert [noise.stream(noise.derive_seed(7, i), 0.01).key for i in range(3)] == keys.tolist()

    @given(a=st.integers(-1000, 1000), b=st.integers(-1000, 1000), i=st.integers(-100, 100))
    @settings(max_examples=60, deadline=None)
    def test_composition(self, a, b, i):
        s = noise.stream(5, 0.02)
        assert noise.shift(noise.shift(s, a), b).get(i) == noise.shift(s, a + b).get(i)


class TestMarginals:
    def test_range(self):
        vals = noise.stream(3, 0.05).values(0, 100_000)
        assert np.all(np.abs(vals) <= 0.05)

    def test_mean_within_three_sigma(self):
        n = 1_000_000
        eps = 0.01
        vals = noise.stream(1, eps).values(0, n)
        sigma = eps / np.sqrt(3.0) / np.sqrt(n)
        assert abs(vals.mean()) <= 3 * sigma

    def test_kolmogorov_smirnov(self):
        n = 100_000
        eps = 0.01
        vals = noise.stream(1, eps).values(0, n)
        stat = stats.kstest(vals, "uniform", args=(-eps, 2 * eps)).statistic
        critical_1pct = 1.63 / np.sqrt(n)
        assert stat < critical_1pct


class TestEnsemble:
    @staticmethod
    def _check_rows_reproduce_derived_streams(offset):
        mat = noise.ensemble_noise(11, 0.02, 6, 9, start=-3, sample_offset=offset)
        for i in range(6):
            s = noise.stream(noise.derive_seed(11, offset + i), 0.02)
            expect = [s.get(k) for k in range(-3, 6)]
            assert np.array_equal(mat[i], expect)

    def test_rows_reproduce_derived_streams(self):
        self._check_rows_reproduce_derived_streams(0)

    def test_rows_reproduce_derived_streams_with_offset(self):
        self._check_rows_reproduce_derived_streams(6)

    @pytest.mark.parametrize("offset", [0, 6])
    def test_keyed_draws_match_columns(self, offset):
        """Draws of a subset of keys at one index (-1 included) are the
        matching entries of the noise matrix."""
        mat = noise.ensemble_noise(11, 0.02, 6, 9, start=-3, sample_offset=offset)
        subset = np.array([0, 2, 3, 5])
        keys = noise.ensemble_keys(11, 6, offset)[subset]
        for j, index in enumerate(range(-3, 6)):
            assert np.array_equal(noise.keyed_draws(keys, 0.02, index), mat[subset, j])

    @pytest.mark.parametrize("eps", [0.0, 0.02])
    def test_start_points_from_index_minus_one(self, eps):
        subset = np.array([1, 4, 5])
        keys = noise.ensemble_keys(11, 6, 6)[subset]
        col = noise.ensemble_noise(11, eps or 1.0, 6, 1, start=-1, sample_offset=6)[subset, 0]
        expect = col / eps if eps > 0 else col
        assert np.array_equal(orbit.start_points(keys, eps), expect)
        # An ensemble starts there by default and steps on its rows' noise.
        fam = map_core.fixture_family()
        ens = orbit.ensemble_orbits(fam, 11, eps, 4, 12, 0.01)
        assert np.array_equal(ens.x0[6:][subset], expect)
        x = ens.x0
        for k, t in enumerate(noise.ensemble_noise(11, eps, 12, 4).T):
            x = orbit.step_values(fam, t, x)
            assert np.array_equal(ens.points[:, k + 1], x, equal_nan=True)

    def test_sample_offset_consistency(self):
        full = noise.ensemble_noise(11, 0.02, 10, 5)
        tail = noise.ensemble_noise(11, 0.02, 4, 5, sample_offset=6)
        assert np.array_equal(full[6:], tail)

    def test_derive_seed_distinct(self):
        seeds = {noise.derive_seed(1, i) for i in range(1000)}
        assert len(seeds) == 1000
