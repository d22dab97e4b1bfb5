import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dying_ensemble, reference_orbits
from rovella import map_core as mc
from rovella import noise, orbit
from rovella.errors import CapExceeded, DomainError, EmptyIntersection, SingularHit

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


class TestExpansionSum:
    def test_single_term(self, fam, noisy_stream):
        tr = orbit.iterate(fam, noisy_stream, 0.3, 5, 0.1)
        assert orbit.expansion_sum(tr, 1) == 1.0 / 0.3

    def test_fixed_point_geometric(self, fam, quiet_stream):
        tr = orbit.iterate(fam, quiet_stream, 1.0, 3, 0.1)
        assert orbit.expansion_sum(tr, 3) == pytest.approx(21.0, rel=1e-13)

    def test_two_terms(self, fam, quiet_stream):
        tr = orbit.iterate(fam, quiet_stream, 0.5, 2, 0.1)
        assert orbit.expansion_sum(tr, 2) == pytest.approx(6.0, rel=1e-13)

    def test_monotone_in_n(self, fam, noisy_stream):
        tr = orbit.iterate(fam, noisy_stream, 0.62, 40, 0.1)
        sums = [orbit.expansion_sum(tr, n) for n in range(1, 41)]
        assert all(b >= a for a, b in zip(sums, sums[1:]))


class TestReturnDepth:
    def test_zero_case(self, fam):
        assert orbit.return_depth(fam, 0.0, 0.5, 0.1) == 0

    def test_scan_example(self, fam):
        # DT * |x| = 0.04; first r with e^{-r} * 0.5 <= 0.04 is 3
        assert orbit.return_depth(fam, 0.0, 0.1, 0.5) == 3

    def test_boundary_of_definition(self, fam):
        # DT * |x| exactly delta gives r = 0
        x = 0.5
        delta = mc.derivative(fam, 0.0, x) * x
        assert orbit.return_depth(fam, 0.0, x, delta) == 0

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
        assert orbit.return_depth(fam, 0.0, x, delta) == r_scan

    def test_vectorized_matches_scalar(self, fam):
        rng = np.random.default_rng(3)
        xs = rng.uniform(-1, 1, 500)
        xs = xs[xs != 0]
        ts = rng.uniform(-0.1, 0.1, xs.size)
        vec = orbit.return_depths_array(fam, ts, xs, 0.02)
        scal = [orbit.return_depth(fam, t, x, 0.02) for t, x in zip(ts, xs)]
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


class TestBranchPartition:
    def test_one_step(self, fam, quiet_stream):
        bp = orbit.branch_partition(fam, quiet_stream, 1)
        assert [(b.left, b.right) for b in bp.branches] == [(-1.0, 0.0), (0.0, 1.0)]

    def test_two_step_cuts(self, fam, quiet_stream):
        bp = orbit.branch_partition(fam, quiet_stream, 2)
        assert len(bp.branches) == 4
        # T(x) = 0 at |x| = 1/sqrt(2)
        assert bp.cut_points[1] == pytest.approx(-INV_SQRT2, abs=1e-12)
        assert bp.cut_points[3] == pytest.approx(INV_SQRT2, abs=1e-12)

    def test_three_step_count(self, fam, quiet_stream):
        bp = orbit.branch_partition(fam, quiet_stream, 3)
        assert len(bp.branches) == 8

    @pytest.mark.parametrize("family", ["fam", "table_fam"])
    def test_sign_scan_oracle(self, family, noisy_stream, request):
        # uniform grid scan: monotone inside every branch, a cut between
        # consecutive branches
        fam = request.getfixturevalue(family)
        n = 5
        bp = orbit.branch_partition(fam, noisy_stream, n)
        xs = np.linspace(-1 + 1e-9, 1 - 1e-9, 200_001)
        vals = xs.copy()
        for k in range(n):
            vals = mc.evaluate(fam, noisy_stream.get(k), np.where(vals == 0, 1e-300, vals))
        inside = np.searchsorted(bp.cut_points, xs) - 1
        diffs = np.diff(vals)
        same_branch = inside[:-1] == inside[1:]
        assert np.all(diffs[same_branch] > 0)

    def test_images_match_orbit_limits(self, fam, noisy_stream):
        # probe 1e-11 inside the branch: far past the cut's own error (about
        # 1e-15 in x), and DT^4 <= 256 keeps the image within ~3e-9 of the
        # one-sided limit
        bp = orbit.branch_partition(fam, noisy_stream, 4)
        for br in bp.branches:
            val_l, val_r = br.left + 1e-11, br.right - 1e-11
            for k in range(4):
                val_l = mc.evaluate(fam, noisy_stream.get(k), val_l)
                val_r = mc.evaluate(fam, noisy_stream.get(k), val_r)
            assert val_l == pytest.approx(br.image_left, abs=1e-8)
            assert val_r == pytest.approx(br.image_right, abs=1e-8)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_cuts_match_exact_preimages(self, fam, seed):
        """Each cut is the preimage of 0 along the itinerary its two
        neighbouring branches share: within 1e-15 of the 40-digit root of
        the fixture composite (s = 2) at the same noise values."""
        mp = pytest.importorskip("mpmath")
        stream = noise.stream(seed, 0.01)
        bp = orbit.branch_partition(fam, stream, 8)
        ts = stream.values(0, 8)
        cuts = bp.cut_points[1:-1]
        assert len(cuts) == len(bp.branches) - 1 > 100
        with mp.workdps(40):
            for left, right in zip(bp.branches[:-1], bp.branches[1:]):
                c = left.right
                assert c == right.left
                # The itinerary up to the step whose image crosses 0.
                k = next(j for j, (a, b) in enumerate(zip(left.sides, right.sides)) if a != b)
                x = mp.mpf(0)
                for j in range(k - 1, -1, -1):
                    side = left.sides[j]
                    x = side * mp.sqrt((1 + side * x) / (2 - abs(mp.mpf(ts[j]))))
                assert abs(c - x) <= 1e-15

    def test_cap(self, fam, quiet_stream):
        with pytest.raises(CapExceeded):
            orbit.branch_partition(fam, quiet_stream, 50)

    def test_locate_rejects_cuts(self, fam, quiet_stream):
        bp = orbit.branch_partition(fam, quiet_stream, 2)
        with pytest.raises(DomainError):
            bp.locate(INV_SQRT2 + 1e-14)
        assert bp.locate(0.3).left == 0.0


class TestPreimageInBranch:
    def test_full_image_returns_branch(self, fam, quiet_stream):
        bp = orbit.branch_partition(fam, quiet_stream, 1)
        br = bp.branches[1]
        a, b = orbit.preimage_in_branch(bp, br, (br.image_left, br.image_right))
        assert (a, b) == (br.left, br.right)

    def test_invert_quadratic(self, fam, quiet_stream):
        bp = orbit.branch_partition(fam, quiet_stream, 1)
        a, b = orbit.preimage_in_branch(bp, bp.branches[1], (-0.9, -0.8))
        assert a == pytest.approx(SQRT_005, abs=1e-9)
        assert b == pytest.approx(SQRT_01, abs=1e-9)

    def test_nested_targets_nested_preimages(self, fam, noisy_stream):
        bp = orbit.branch_partition(fam, noisy_stream, 3)
        br = bp.branches[5]
        mid = 0.5 * (br.image_left + br.image_right)
        w = br.image_right - br.image_left
        outer = orbit.preimage_in_branch(bp, br, (mid - 0.3 * w, mid + 0.3 * w))
        inner = orbit.preimage_in_branch(bp, br, (mid - 0.1 * w, mid + 0.1 * w))
        assert outer[0] <= inner[0] <= inner[1] <= outer[1]

    @pytest.mark.parametrize("family", ["fam", "table_fam"])
    def test_roundtrip_endpoints(self, family, noisy_stream, request):
        fam = request.getfixturevalue(family)
        bp = orbit.branch_partition(fam, noisy_stream, 3)
        br = bp.branches[2]
        mid = 0.5 * (br.image_left + br.image_right)
        w = br.image_right - br.image_left
        target = (mid - 0.2 * w, mid + 0.25 * w)
        a, b = orbit.preimage_in_branch(bp, br, target)
        for k in range(3):
            a = mc.evaluate(fam, noisy_stream.get(k), a)
            b = mc.evaluate(fam, noisy_stream.get(k), b)
        assert a == pytest.approx(target[0], abs=1e-9)
        assert b == pytest.approx(target[1], abs=1e-9)

    def test_empty_intersection(self, fam, quiet_stream):
        bp = orbit.branch_partition(fam, quiet_stream, 1)
        br = bp.branches[1]  # image (-1, 1]
        with pytest.raises(EmptyIntersection):
            orbit.preimage_in_branch(bp, bp.branches[0], (br.image_left - 3, br.image_left - 2))


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
        samples, x0 = dying_ensemble(fam, 3, 0.01, 10)
        x0[0] = 1e-200
        ens = orbit.ensemble_orbits(tab, 3, 0.01, 10, samples, 0.05, x0=x0)
        _, ts = orbit.ensemble_start(3, 0.01, samples, 10)
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
        x_next, depth, log_dt = orbit.step(fam, 0.0, xs, 0.01)
        assert np.isnan(x_next[:2]).all() and np.isnan(log_dt[:2]).all()
        assert x_next[2] == mc.evaluate(fam, 0.0, 0.5)
        with pytest.raises(DomainError):
            orbit.return_depth(fam, 0.0, 1e-200, 0.01)
        with pytest.raises(SingularHit):
            orbit.iterate(fam, noise.stream(1, 0.0), 1e-200, 3, 0.01)

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
        x_next, depth, log_dt = orbit.step(fam, 0.0, x, 0.01)
        assert np.isnan(x_next[0]) and depth[0] == -1 and np.isnan(log_dt[0])
        assert np.isnan(orbit.step_values(fam, 0.0, x)[0])


class TestSingularHits:
    def test_ensemble_masks_and_counts(self, fam):
        samples, x0 = dying_ensemble(fam, 1, 0.01, 20)
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
        samples, x0 = dying_ensemble(fam, 1, 0.01, 2)
        strm = noise.stream(noise.derive_seed(1, samples - 1), 0.01)
        with pytest.raises(SingularHit):
            orbit.iterate(fam, strm, x0[-1], 2, 0.05)
