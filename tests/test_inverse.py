"""Branch inverses: the fixture's closed form against the bisection fallback
that tabulated and hand-built families use."""

import numpy as np
import pytest

from conftest import without_inverse
from rovella import map_core as mc
from rovella import measures as ms
from rovella import tower


def _image(fam, t, side):
    """(lo, hi) image of the branch on `side` at parameter t."""
    if side > 0:
        return -1.0, float(mc.evaluate(fam, t, 1.0))
    return float(mc.evaluate(fam, t, -1.0)), 1.0


@pytest.mark.parametrize("family", ["fam", "fam3"])
class TestClosedForm:
    def test_round_trip(self, family, request):
        fam = request.getfixturevalue(family)
        for t in np.linspace(-fam.eps_max, fam.eps_max, 9):
            for side in (1.0, -1.0):
                lo, hi = _image(fam, t, side)
                ys = np.linspace(lo, hi, 1001)  # image endpoints included
                xs = mc.invert_branch(fam, t, ys, side)
                assert np.all(np.sign(xs) == side)
                assert np.all(np.abs(xs) <= 1.0)
                assert np.abs(mc._unchecked(fam, "value", t, xs) - ys).max() <= 4 * 2.0**-52
                assert np.all(np.diff(xs) >= 0)

    def test_outside_image_clamps_like_bisection(self, family, request):
        fam = request.getfixturevalue(family)
        slow = without_inverse(fam)
        for t in (-fam.eps_max, 0.0, 0.5 * fam.eps_max):
            for side in (1.0, -1.0):
                lo, hi = _image(fam, t, side)
                ys = np.array([lo - 0.5, lo - 1e-12, hi + 1e-12, hi + 0.5])
                xs = mc.invert_branch(fam, t, ys, side)
                left, right = (1e-300, 1.0) if side > 0 else (-1.0, -1e-300)
                assert list(xs) == [left, left, right, right]
                # Bisection stops within 2^-200 of the inner endpoint.
                ref = mc.invert_branch(slow, t, ys, side, xtol=0.0, ftol=1e-14)
                assert np.allclose(xs, ref, rtol=1e-15, atol=1e-59)

    def test_mixed_sides_per_row(self, family, request):
        fam = request.getfixturevalue(family)
        ys = np.linspace(-0.9, 0.85, 40)
        sides = np.where(np.arange(40) % 3 == 0, 1.0, -1.0)
        xs = mc.invert_branch(fam, 0.02, ys, sides)
        for y, side, x in zip(ys, sides, xs):
            assert x == mc.invert_branch(fam, 0.02, y, side)

    def test_matches_bisection(self, family, request):
        fam = request.getfixturevalue(family)
        slow = without_inverse(fam)
        ys = np.linspace(-0.999, 0.85, 500)
        for side in (1.0, -1.0):
            fast = mc.invert_branch(fam, -0.04, ys, side)
            ref = mc.invert_branch(slow, -0.04, ys, side, xtol=0.0, ftol=1e-14)
            assert np.abs(fast - ref).max() <= 1e-13


class TestUlamOperator:
    @pytest.mark.parametrize("t", [-0.1, -0.03, 0.0, 0.004, 0.1])
    def test_closed_form_matches_bisection(self, fam, t):
        grid = ms.UniformGrid(2048)
        fast = ms.ulam_row_operator(fam, t, grid)
        slow = ms.ulam_row_operator(without_inverse(fam), t, grid)
        assert abs(fast - slow).max() <= 1e-12
        for mat in (fast, slow):
            assert np.abs(np.asarray(mat.sum(axis=1)).ravel() - 1.0).max() <= 1e-12


class TestPullback:
    def test_closed_form_matches_bisection(self, fam, noisy_stream, hyp_cfg):
        radius = hyp_cfg.delta0 / 2.0
        n_max = 16
        t_path = noisy_stream.values(0, n_max)
        half = np.geomspace(radius * 1e-6, radius * (1.0 - 1e-9), 2048)
        seeds = np.concatenate([-half[::-1], half])
        signs, candidate, _ = tower._candidate_scan(fam, hyp_cfg, radius, t_path, seeds, n_max)
        slow = without_inverse(fam)
        compared = 0
        for k in range(1, n_max + 1):
            rows = np.flatnonzero(candidate[:, k - 1])
            if rows.size == 0:
                continue
            sides = signs[rows, :k]
            ends = {}
            for name, f in (("fast", fam), ("slow", slow)):
                lo, hi = tower._pull_back_endpoints(f, t_path, sides, k, -radius, radius)
                w = np.concatenate([lo, hi])
                for j in range(k):
                    w = mc._unchecked(fam, "value", float(t_path[j]), w)
                res = np.maximum(np.abs(w[: rows.size] + radius), np.abs(w[rows.size:] - radius))
                ends[name] = (lo, hi, res)
            assert np.abs(ends["fast"][0] - ends["slow"][0]).max() <= 1e-13
            assert np.abs(ends["fast"][1] - ends["slow"][1]).max() <= 1e-13
            assert ends["fast"][2].max() <= ends["slow"][2].max()
            compared += rows.size
        assert compared > 200


class TestFallback:
    def test_three_callable_branch(self, fam_lin):
        assert fam_lin.branch_pos.inverse is None
        ys = np.linspace(-0.99, 0.99, 101)
        for side in (1.0, -1.0):
            xs = mc.invert_branch(fam_lin, 0.0, ys, side, xtol=0.0, ftol=1e-14)
            assert np.allclose(xs, (ys + side) / 2.0, rtol=0.0, atol=1e-15)
        mat = ms.ulam_row_operator(fam_lin, 0.0, ms.UniformGrid(64))
        assert np.abs(np.asarray(mat.sum(axis=1)).ravel() - 1.0).max() <= 1e-12
        # Each cell of the doubling map spreads evenly over two image cells.
        assert np.allclose(mat.toarray().max(axis=1), 0.5)


class TestFastPathGuard:
    """The fixture never bisects; a tabulated family still does."""

    class Bisected(Exception):
        pass

    @pytest.fixture
    def no_bisection(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise self.Bisected()

        monkeypatch.setattr(mc, "bisect_increasing", refuse)

    def test_fixture_runs_without_bisection(self, fam, noisy_stream, hyp_cfg, no_bisection):
        mat = ms.ulam_row_operator(fam, 0.01, ms.UniformGrid(256))
        assert np.abs(np.asarray(mat.sum(axis=1)).ravel() - 1.0).max() <= 1e-12
        part = tower.build_return_partition(fam, noisy_stream, hyp_cfg, 8, seed_grid=256)
        assert part.elements

    def test_table_family_reaches_bisection(self, table_fam, noisy_stream, hyp_cfg, no_bisection):
        with pytest.raises(self.Bisected):
            ms.ulam_row_operator(table_fam, 0.01, ms.UniformGrid(256))
        with pytest.raises(self.Bisected):
            tower.build_return_partition(table_fam, noisy_stream, hyp_cfg, 8, seed_grid=256)
