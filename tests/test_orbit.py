import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dying_ensemble, reference_orbits
from rovella import map_core as mc
from rovella import noise, orbit, tower
from rovella.errors import DomainError, SingularHit

SQRT_005 = 0.22360679774997896
SQRT_01 = 0.31622776601683794
INV_SQRT2 = 0.7071067811865476


class TestIterate:
    def test_fixed_point_orbit(self, fam, quiet_stream):
        tr = orbit.iterate(fam, quiet_stream, 1.0, 5, 0.1)
        assert np.all(tr.points == 1.0)
        assert tr.log_der[5] == pytest.approx(5 * math.log(4.0), rel=1e-14)

    def test_one_step(self, fam, quiet_stream):
        tr = orbit.iterate(fam, quiet_stream, 0.5, 1, 0.1)
        assert tr.points[1] == pytest.approx(-0.5, abs=1e-15)

    def test_empty_product(self, fam, noisy_stream):
        tr = orbit.iterate(fam, noisy_stream, 0.3, 1, 0.1)
        assert tr.log_der[0] == 0.0

    def test_points_stay_in_interval(self, fam, noisy_stream):
        tr = orbit.iterate(fam, noisy_stream, 0.77, 500, 0.05)
        assert np.all(np.abs(tr.points) <= 1.0)
        assert np.all(tr.points != 0.0)

    def test_visits_flags(self, fam, noisy_stream):
        tr = orbit.iterate(fam, noisy_stream, 0.77, 200, 0.1)
        hood = mc.critical_neighborhoods(fam, 0.0, 0.1)
        assert np.array_equal(tr.visits, hood.contains(tr.points))

    def test_singular_hit(self, fam_lin, quiet_stream):
        # piecewise-linear map sending 0.75 -> 0.5 -> exactly 0
        with pytest.raises(SingularHit):
            orbit.iterate(fam_lin, quiet_stream, 0.75, 3, 0.1)

    def test_domain_error_at_zero(self, fam, quiet_stream):
        with pytest.raises(DomainError):
            orbit.iterate(fam, quiet_stream, 0.0, 3, 0.1)


def depth(fam, t, x, delta):
    """The return depth of the one point x, by `orbit.return_depths_array`."""
    return int(orbit.return_depths_array(fam, t, np.array([x]), delta)[0])


class TestReturnDepth:
    def test_zero_case(self, fam):
        assert depth(fam, 0.0, 0.5, 0.1) == 0

    def test_undefined_at_the_singularity(self, fam):
        # DT * |x| is 0 at +-0: the depth is -1, not a scan that never ends
        assert depth(fam, 0.0, 0.0, 0.1) == depth(fam, 0.0, -0.0, 0.1) == -1

    def test_scan_example(self, fam):
        # DT * |x| = 0.04; first r with e^{-r} * 0.5 <= 0.04 is 3
        assert depth(fam, 0.0, 0.1, 0.5) == 3

    def test_boundary_of_definition(self, fam):
        # DT * |x| exactly delta gives r = 0
        x = 0.5
        delta = mc.derivative(fam, 0.0, x) * x
        assert depth(fam, 0.0, x, delta) == 0

    @given(
        x=st.floats(min_value=1e-4, max_value=0.999),
        delta=st.floats(min_value=1e-3, max_value=0.5),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_brute_scan(self, fam, x, delta):
        prod = mc.derivative(fam, 0.0, x) * x
        r_scan = 0
        while prod < math.exp(-r_scan) * delta:
            r_scan += 1
        assert depth(fam, 0.0, x, delta) == r_scan

    def test_vectorized_matches_scalar(self, fam):
        """A row's depth does not depend on the other rows."""
        rng = np.random.default_rng(3)
        xs = rng.uniform(-1, 1, 500)
        xs = xs[xs != 0]
        ts = rng.uniform(-0.1, 0.1, xs.size)
        vec = orbit.return_depths_array(fam, ts, xs, 0.02)
        scal = [depth(fam, t, x, 0.02) for t, x in zip(ts, xs)]
        assert np.array_equal(vec, scal)


class TestCocycle:
    def test_additivity_random_splits(self, fam, noisy_stream):
        tr = orbit.iterate(fam, noisy_stream, 0.37, 200, 0.05)
        rng = np.random.default_rng(11)
        for _ in range(200):
            k, m = sorted(rng.integers(0, 201, size=2))
            if k == m:
                continue
            via_logs = tr.log_der[m] - tr.log_der[k]
            direct = 0.0
            for j in range(k, m):
                direct += math.log(
                    mc.derivative(fam, noisy_stream.get(j), tr.points[j])
                )
            assert via_logs == pytest.approx(direct, rel=1e-9, abs=1e-12)


def _itineraries(fam, t_path, xs):
    """signs[i, k]: the side (+1 or -1) of T_omega^k(xs[i]) for k < len(t_path),
    and the points after len(t_path) steps."""
    signs = np.empty((xs.size, len(t_path)), dtype=np.int8)
    vals = xs.copy()
    for k, t in enumerate(t_path):
        signs[:, k] = np.where(vals > 0, 1, -1)
        vals = mc.evaluate(fam, t, np.where(vals == 0, 1e-300, vals))
    return signs, vals


class TestBranchPartition:
    """The branch (cylinder) structure of the n-step composition, by
    `pull_back`: two neighbouring branches share their itinerary up to the
    step k whose image crosses 0, and the cut between them is the pullback
    of 0 along those k sides."""

    def test_two_step_cuts(self, fam, quiet_stream):
        # T(x) = 0 at |x| = 1/sqrt(2): the cuts of T^2 besides 0
        cuts = orbit.pull_back(fam, quiet_stream.values(0, 1), [[-1], [1]], np.zeros(2))
        assert cuts[0] == pytest.approx(-INV_SQRT2, abs=1e-12)
        assert cuts[1] == pytest.approx(INV_SQRT2, abs=1e-12)

    @pytest.mark.parametrize("family", ["fam", "table_fam"])
    def test_sign_scan_oracle(self, family, noisy_stream, request):
        # uniform grid scan: monotone inside every branch, and the pulled
        # back cut between each two neighbouring branches
        fam = request.getfixturevalue(family)
        n = 5
        t_path = noisy_stream.values(0, n)
        xs = np.linspace(-1 + 1e-9, 1 - 1e-9, 200_001)
        signs, vals = _itineraries(fam, t_path, xs)
        differ = signs[1:] != signs[:-1]
        same_branch = ~differ.any(axis=1)
        assert np.all(np.diff(vals)[same_branch] > 0)
        edges = np.flatnonzero(~same_branch)
        first = differ[edges].argmax(axis=1)  # the step whose image crosses 0
        assert edges.size >= 2**n - 1
        for k in range(n):
            rows = edges[first == k]
            cuts = orbit.pull_back(fam, t_path, signs[rows, :k], np.zeros(rows.size))
            assert np.all((xs[rows] <= cuts) & (cuts <= xs[rows + 1]))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_cuts_match_exact_preimages(self, fam, hyp_cfg, seed):
        """Among the itineraries that the partition's candidate scan records
        for seeds across the interval, each one of length k <= 8 that both
        sides continue at step k ends at a cut: the pullback of 0 along it
        is within 1e-15 of the 40-digit root of the fixture composite
        (s = 2) at the same noise values."""
        mp = pytest.importorskip("mpmath")
        ts = noise.stream(seed, 0.01).values(0, 9)
        seeds = np.linspace(-1.0, 1.0, 4096)
        signs, _, _ = tower._candidate_scan(fam, hyp_cfg, 0.05, ts, seeds, 9)
        checked = 0
        with mp.workdps(40):
            for k in range(1, 9):
                ends = np.unique(signs[:, : k + 1], axis=0)  # sorted: -1 then +1
                split = np.all(ends[1:, :k] == ends[:-1, :k], axis=1)
                sides = ends[:-1][split, :k]
                cuts = orbit.pull_back(fam, ts, sides, np.zeros(len(sides)))
                for row, c in zip(sides, cuts):
                    x = mp.mpf(0)
                    for j in range(k - 1, -1, -1):
                        side = int(row[j])
                        x = side * mp.sqrt((1 + side * x) / (2 - abs(mp.mpf(ts[j]))))
                    assert abs(c - x) <= 1e-15
                checked += len(sides)
        assert checked > 400


class TestPreimageInBranch:
    """`pull_back` of a target interval along a branch's itinerary is the
    interval inside that branch which the composition maps onto it."""

    def test_full_image_returns_branch(self, fam, quiet_stream):
        # the positive branch [1e-300, 1] maps onto [-1, 1]
        a, b = orbit.pull_back(fam, quiet_stream.values(0, 1), [1], np.array([-1.0, 1.0]))
        assert (a, b) == (1e-300, 1.0)

    def test_invert_quadratic(self, fam, quiet_stream):
        a, b = orbit.pull_back(fam, quiet_stream.values(0, 1), [1], np.array([-0.9, -0.8]))
        assert a == pytest.approx(SQRT_005, abs=1e-9)
        assert b == pytest.approx(SQRT_01, abs=1e-9)

    def test_nested_targets_nested_preimages(self, fam, noisy_stream):
        t_path = noisy_stream.values(0, 3)
        signs, y = _itineraries(fam, t_path, np.array([0.3]))
        outer = orbit.pull_back(fam, t_path, signs[0], y + [-0.03, 0.03])
        inner = orbit.pull_back(fam, t_path, signs[0], y + [-0.01, 0.01])
        assert outer[0] <= inner[0] <= 0.3 <= inner[1] <= outer[1]

    @pytest.mark.parametrize("family", ["fam", "table_fam"])
    def test_roundtrip_endpoints(self, family, noisy_stream, request):
        fam = request.getfixturevalue(family)
        t_path = noisy_stream.values(0, 3)
        signs, y = _itineraries(fam, t_path, np.array([0.3]))
        target = y + [-0.02, 0.025]
        a, b = orbit.pull_back(fam, t_path, signs[0], target)
        for k in range(3):
            a = mc.evaluate(fam, noisy_stream.get(k), a)
            b = mc.evaluate(fam, noisy_stream.get(k), b)
        assert a == pytest.approx(target[0], abs=1e-9)
        assert b == pytest.approx(target[1], abs=1e-9)


class TestEnsembleOrbits:
    def test_matches_scalar_path(self, fam):
        ens = orbit.ensemble_orbits(fam, 1, 0.01, 30, 8, 0.05)
        for i in range(8):
            strm = noise.stream(noise.derive_seed(1, i), 0.01)
            tr = orbit.iterate(fam, strm, float(ens.x0[i]), 30, 0.05)
            assert np.allclose(ens.points[i], tr.points, rtol=0, atol=0)
            assert np.allclose(ens.log_der[i], tr.log_der, rtol=1e-12, atol=1e-12)
            assert np.array_equal(ens.depths[i], tr.depths[:30])

    def test_explicit_starts(self, fam):
        x0 = np.array([0.3, -0.4, 0.9])
        ens = orbit.ensemble_orbits(fam, 1, 0.0, 5, 3, 0.05, x0=x0)
        assert np.array_equal(ens.points[:, 0], x0)


class TestStepKernel:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("family", ["fam", "table_fam"])
    def test_matches_reference_loop(self, family, request):
        fam = request.getfixturevalue(family)
        samples, n, eps, delta = 12, 40, 0.01, 0.05
        ens = orbit.ensemble_orbits(fam, 7, eps, n, samples, delta)
        rows = np.array(
            [noise.stream(noise.derive_seed(7, i), eps).values(-1, n + 1) for i in range(samples)]
        )
        pts, log_der, depths = reference_orbits(fam, rows[:, 0] / eps, rows[:, 1:], delta)
        assert np.array_equal(ens.points, pts, equal_nan=True)
        assert np.array_equal(ens.log_der, log_der, equal_nan=True)
        assert np.array_equal(ens.depths, depths)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("family", ["fam", "table_fam"])
    def test_dead_rows_match_reference_loop(self, family, request, fam):
        # Row 0 starts where DT * |x| underflows to 0; the last row's first
        # image is exactly 0 for the fixture's noise.
        tab = request.getfixturevalue(family)
        samples, x0 = dying_ensemble(fam, 3, 0.01)
        x0[0] = 1e-200
        ens = orbit.ensemble_orbits(tab, 3, 0.01, 10, samples, 0.05, x0=x0)
        ts = noise.ensemble_noise(3, 0.01, samples, 10)
        pts, log_der, depths = reference_orbits(tab, x0, ts, 0.05)
        assert np.array_equal(ens.points, pts, equal_nan=True)
        assert np.array_equal(ens.log_der, log_der, equal_nan=True)
        assert np.array_equal(ens.depths, depths)
        assert ens.singular_hits == int((~ens.alive).sum())

    @pytest.mark.filterwarnings("error")
    def test_nonpositive_derivative_is_dead(self, fam):
        # At |x| = 1e-200, DT * |x| = 4e-400 underflows to 0: the depth is
        # undefined (-1), not a cast NaN.
        xs = np.array([1e-200, -1e-200, 0.5])
        assert list(orbit.return_depths_array(fam, 0.0, xs, 0.01)) == [-1, -1, 0]
        x_next, dt, _ = orbit.step(fam, 0.0, xs)
        assert np.isnan(x_next[:2]).all() and np.isnan(dt[:2]).all()
        assert x_next[2] == mc.evaluate(fam, 0.0, 0.5)
        with pytest.raises(SingularHit):
            orbit.iterate(fam, noise.stream(1, 0.0), 1e-200, 3, 0.01)

    def test_step_values_kills_only_a_zero_image(self, fam):
        """The other death rule: `step_values` reads no DT, so the point
        that `orbit.step` kills above lives on to its image -1."""
        assert orbit.step_values(fam, 0.0, np.array([1e-200])).tolist() == [-1.0]

    @pytest.mark.parametrize("family", ["fam", "table_fam"])
    def test_iterate_scalar_path_matches_reference_loop(self, family, request):
        fam = request.getfixturevalue(family)
        n, delta = 60, 0.05
        for seed, x0 in ((1, 0.4), (2, -0.73), (3, 0.011)):
            strm = noise.stream(seed, 0.01)
            tr = orbit.iterate(fam, strm, x0, n, delta)
            pts, log_der, depths = reference_orbits(
                fam, np.array([x0]), strm.values(0, n)[None, :], delta
            )
            assert np.array_equal(tr.points, pts[0])
            assert np.array_equal(tr.log_der, log_der[0])
            assert np.array_equal(tr.depths[:n], depths[0])
            last = orbit.return_depths_array(fam, strm.get(n), tr.points[n:], delta)
            assert tr.depths[n] == last[0]

    def test_dead_rows_stay_dead(self, fam):
        x = np.array([np.nan, 0.3])
        x_next, dt, prod = orbit.step(fam, 0.0, x)
        assert np.isnan(x_next[0]) and orbit._depths(prod, 0.01)[0] == -1 and np.isnan(dt[0])
        assert np.isnan(orbit.step_values(fam, 0.0, x)[0])


class TestSingularHits:
    def test_ensemble_masks_and_counts(self, fam):
        samples, x0 = dying_ensemble(fam, 1, 0.01)
        ens = orbit.ensemble_orbits(fam, 1, 0.01, 20, samples, 0.05, x0=x0)
        assert ens.singular_hits == 1
        assert list(np.flatnonzero(~ens.alive)) == [samples - 1]
        assert np.isnan(ens.points[-1, 1:]).all() and np.isnan(ens.log_der[-1, 1:]).all()
        # The other rows are the ensemble without the dead one.
        rest = orbit.ensemble_orbits(fam, 1, 0.01, 20, samples - 1, 0.05, x0=x0[:-1])
        assert np.array_equal(ens.points[:-1], rest.points)
        assert np.array_equal(ens.log_der[:-1], rest.log_der)
        assert rest.singular_hits == 0 and rest.alive.all()

    def test_iterate_raises(self, fam):
        samples, x0 = dying_ensemble(fam, 1, 0.01)
        strm = noise.stream(noise.derive_seed(1, samples - 1), 0.01)
        with pytest.raises(SingularHit):
            orbit.iterate(fam, strm, x0[-1], 2, 0.05)
