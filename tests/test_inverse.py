"""Branch inverses: the fixture's closed form, the tabulated family's
spline and end-piece inverse and the hand-built family's closed form
against bisection of the branch values, the spline inverse against
30-digit roots and, byte for byte, against the Newton loop it replaced,
and the one inverse callable of each family, per row, against its calls
with one shared side."""

import dataclasses
import functools
import pickle

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import (
    TABLES,
    assert_same_bytes,
    bisection_family,
    reference_shear_spline_inverse,
    table_sides,
)
from rovella import hyperbolic as hyp
from rovella import map_core as mc
from rovella import measures as ms
from rovella import noise, numerics, orbit, tower


def _image(fam, t, side, first_node=None):
    """(lo, hi) image of the branch on `side` at parameter t; with
    `first_node`, the image of the branch from that node outward."""
    if side > 0:
        lo = -1.0 if first_node is None else float(mc.evaluate(fam, t, first_node))
        return lo, float(mc.evaluate(fam, t, 1.0))
    hi = 1.0 if first_node is None else float(mc.evaluate(fam, t, -first_node))
    return float(mc.evaluate(fam, t, -1.0)), hi


@pytest.mark.parametrize("family", ["fam", "fam3", "table_fam"])
class TestClosedForm:
    """The inverse contract of `MapFamily`: the fixture's closed form and the
    table family's spline inverse."""

    def test_round_trip(self, family, request):
        fam = request.getfixturevalue(family)
        for t in np.linspace(-fam.eps_max, fam.eps_max, 9):
            for side in (1.0, -1.0):
                lo, hi = _image(fam, t, side)
                ys = np.linspace(lo, hi, 1001)  # image endpoints included
                xs = mc.invert_branch(fam, t, ys, side)
                assert np.all(np.sign(xs) == side)
                assert np.all(np.abs(xs) <= 1.0)
                assert np.abs(fam.value(t, xs) - ys).max() <= 4 * 2.0**-52
                assert np.all(np.diff(xs) >= 0)

    def test_outside_image_clamps_like_bisection(self, family, request):
        fam = request.getfixturevalue(family)
        slow = bisection_family(fam)
        for t in (-fam.eps_max, 0.0, 0.5 * fam.eps_max):
            for side in (1.0, -1.0):
                lo, hi = _image(fam, t, side)
                # The last two have no real shear root on the table family.
                ys = np.array([lo - 0.5, lo - 1e-12, hi + 1e-12, hi + 0.5, -40.0, 40.0])
                xs = mc.invert_branch(fam, t, ys, side)
                a, b = (1e-300, 1.0) if side > 0 else (-1.0, -1e-300)
                assert list(xs) == [a, a, b, b, a, b]
                # Bisection stops within 2^-200 of the inner endpoint.
                ref = mc.invert_branch(slow, t, ys, side)
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
        slow = bisection_family(fam)
        ys = np.linspace(-0.999, 0.85, 500)
        for side in (1.0, -1.0):
            fast = mc.invert_branch(fam, -0.04, ys, side)
            ref = mc.invert_branch(slow, -0.04, ys, side)
            assert np.abs(fast - ref).max() <= 1e-13


class TestUlamOperator:
    @pytest.mark.parametrize("t", [-0.1, -0.03, 0.0, 0.004, 0.1])
    def test_closed_form_matches_bisection(self, fam, t):
        grid = ms.UniformGrid(2048)
        fast = ms.ulam_row_operator(fam, t, grid)
        slow = ms.ulam_row_operator(bisection_family(fam), t, grid)
        assert abs(fast - slow).max() <= 1e-12
        for mat in (fast, slow):
            assert np.abs(np.asarray(mat.sum(axis=1)).ravel() - 1.0).max() <= 1e-12


def _compare_pullbacks(fam, stream, cfg, n_max=16):
    """Pull back the base through every candidate's branches with `fam`'s
    inverse and with bisection: endpoints agree within 1e-13, and at every
    return time the largest forward residual of the inverse is no larger.
    Returns the number of candidates compared."""
    radius = cfg.delta0 / 2.0
    t_path = stream.values(0, n_max)
    half = np.geomspace(radius * 1e-6, radius * (1.0 - 1e-9), 2048)
    seeds = np.concatenate([-half[::-1], half])
    signs, candidate, _ = tower._candidate_scan(fam, cfg, radius, t_path, seeds, n_max)
    slow = bisection_family(fam)
    compared = 0
    for k in range(1, n_max + 1):
        rows = np.flatnonzero(candidate[k - 1])
        if rows.size == 0:
            continue
        sides = signs[:k, rows].T
        ends = {}
        for name, f in (("fast", fam), ("slow", slow)):
            lo = orbit.pull_back(f, t_path, sides, np.full(rows.size, -radius))
            hi = orbit.pull_back(f, t_path, sides, np.full(rows.size, radius))
            w = np.concatenate([lo, hi])
            for j in range(k):
                w = fam.value(float(t_path[j]), w)
            res = np.maximum(np.abs(w[: rows.size] + radius), np.abs(w[rows.size:] - radius))
            ends[name] = (lo, hi, res)
        assert np.abs(ends["fast"][0] - ends["slow"][0]).max() <= 1e-13
        assert np.abs(ends["fast"][1] - ends["slow"][1]).max() <= 1e-13
        assert ends["fast"][2].max() <= ends["slow"][2].max()
        compared += rows.size
    return compared


class TestPullback:
    def test_closed_form_matches_bisection(self, fam, noisy_stream, hyp_cfg):
        assert _compare_pullbacks(fam, noisy_stream, hyp_cfg) > 200

    def test_table_family_matches_bisection(self, table_fam, noisy_stream, hyp_cfg):
        assert _compare_pullbacks(table_fam, noisy_stream, hyp_cfg) > 200


class TestFallback:
    def test_three_callable_branch(self, fam_lin):
        ys = np.linspace(-0.99, 0.99, 101)
        slow = bisection_family(fam_lin)
        for side in (1.0, -1.0):
            xs = mc.invert_branch(fam_lin, 0.0, ys, side)
            assert np.array_equal(xs, (ys + side) / 2.0)
            assert np.allclose(mc.invert_branch(slow, 0.0, ys, side), xs, rtol=0.0, atol=1e-15)
        mat = ms.ulam_row_operator(fam_lin, 0.0, ms.UniformGrid(64))
        assert np.abs(np.asarray(mat.sum(axis=1)).ravel() - 1.0).max() <= 1e-12
        # Each cell of the doubling map spreads evenly over two image cells.
        assert np.allclose(mat.toarray().max(axis=1), 0.5)


class TestFastPathGuard:
    """No library path bisects: with `numerics.bisect_increasing` refusing
    to run, every inversion caller works on the fixture, the table family
    and the hand-built family, and a pullback sends targets past a branch
    image to the branch's domain ends."""

    class Bisected(Exception):
        pass

    @pytest.fixture
    def no_bisection(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise self.Bisected()

        for module in (numerics, mc, ms, orbit, tower, hyp):
            if hasattr(module, "bisect_increasing"):
                monkeypatch.setattr(module, "bisect_increasing", refuse)

    @staticmethod
    def _inversions(family, stream, cfg):
        """The Ulam build, a return partition, critical neighborhoods, and a
        pullback of targets past each branch image."""
        mat = ms.ulam_row_operator(family, 0.01, ms.UniformGrid(256))
        assert np.abs(np.asarray(mat.sum(axis=1)).ravel() - 1.0).max() <= 1e-12
        tower.build_return_partition(family, stream, cfg, 8, seed_grid=256)
        hood = mc.critical_neighborhoods(family, 0.03, 0.01)
        assert 0.0 < hood.pos_hi and hood.neg_lo < 0.0
        sides = np.array([[1], [1], [-1], [-1]])
        ends = orbit.pull_back(family, stream.values(0, 1), sides, np.array([3.0, -3.0, 3.0, -3.0]))
        assert ends.tolist() == [1.0, 1e-300, -1e-300, -1.0]

    def test_no_module_refers_to_bisection(self):
        import pathlib

        src = pathlib.Path(mc.__file__).parent
        users = [p.name for p in src.glob("*.py") if "bisect_increasing" in p.read_text()]
        assert users == ["numerics.py"]

    def test_fixture_runs_without_bisection(self, fam, noisy_stream, hyp_cfg, no_bisection):
        self._inversions(fam, noisy_stream, hyp_cfg)

    def test_table_family_runs_without_bisection(
        self, table_fam, noisy_stream, hyp_cfg, no_bisection
    ):
        self._inversions(table_fam, noisy_stream, hyp_cfg)

    def test_three_callable_family_runs_without_bisection(
        self, fam_lin, noisy_stream, hyp_cfg, no_bisection
    ):
        self._inversions(fam_lin, noisy_stream, hyp_cfg)


def _exact_inverse(sides, t, y, side):
    """30-digit root of spline(x) + t (1 - spline(x)^2) = y on the spline
    piece of the row's branch that holds the target, rounded to a double
    (mpmath, per row), from each branch's knots, coefficients and node
    values (`sides`, as `table_sides` gives them)."""
    mp = pytest.importorskip("mpmath")
    out = np.empty(np.broadcast(t, y, side).shape)
    with mp.workdps(30):
        nodes_mp = [[mp.mpf(v) for v in nodes] for _, _, nodes, *_ in sides]
        for k, (tk, yk, sk) in enumerate(np.broadcast(t, y, side)):
            knots, c = sides[int(sk > 0)][:2]
            nodes = nodes_mp[int(sk > 0)]
            tm, ym = mp.mpf(tk), mp.mpf(yk)
            p = 2 * (ym - tm) / (1 + mp.sqrt(1 - 4 * tm * (ym - tm)))
            i = min(max(int(np.searchsorted(nodes, p, side="right")) - 1, 0), knots.size - 2)
            c0, c1, c2, c3 = (mp.mpf(v) for v in c[:, i])
            left = mp.mpf(knots[i])

            def residual(x):
                h = x - left
                b = c3 + h * (c2 + h * (c1 + h * c0))
                return b + tm * (1 - b * b) - ym

            bracket = (left, mp.mpf(knots[i + 1]))
            out.flat[k] = float(mp.findroot(residual, bracket, solver="anderson"))
    return out


def _with_exact_inverse(fam):
    """`fam` with its spline inverse replaced by `_exact_inverse`."""
    return dataclasses.replace(fam, inverse=functools.partial(_exact_inverse, table_sides(fam)))


class TestTableInverse:
    """The table family's spline inverse against 30-digit roots of the same
    sheared cubics, its end pieces, and its pickling.

    Bisection on the branch values stops where the rounded spline sum
    changes sign, up to about 2e-15 from those roots at the cuts of an Ulam
    grid of m = 2048 (and further where the branch is flatter), so its Ulam
    entries differ from exact-root ones by up to about 2e-12; the
    comparison with it allows for that.
    """

    @pytest.mark.parametrize("t", [-0.1, 0.0, 0.07])
    def test_roots_match_exact(self, table_fam, t):
        exact_fam = _with_exact_inverse(table_fam)
        for side in (1.0, -1.0):
            lo, hi = _image(table_fam, t, side, 1e-6)
            # Evenly spread targets plus the ill-conditioned ends of the image.
            near = np.geomspace(1e-11, 1e-2, 20)
            ys = np.concatenate([np.linspace(lo, hi, 101)[1:-1], lo + near, hi - near])
            fast = mc.invert_branch(table_fam, t, ys, side)
            exact = mc.invert_branch(exact_fam, t, ys, side)
            # 2 ulp, plus a few roundings of the cubic's rise from its left
            # knot over the slope, which dominate where the branch is flat.
            knots = table_sides(table_fam)[int(side > 0)][0]
            piece = np.clip(np.searchsorted(knots, exact, side="right") - 1, 0, knots.size - 2)
            value = mc.evaluate
            rise = np.abs(value(table_fam, t, exact) - value(table_fam, t, knots[piece]))
            slope = mc.derivative(table_fam, t, exact)
            bound = 2 * np.abs(np.spacing(exact)) + 4 * 2.0**-52 * rise / slope
            assert np.all(np.abs(fast - exact) <= bound)

    @pytest.mark.parametrize("t", [-0.1, 0.1])
    def test_ulam_matches_exact_roots(self, table_fam, t):
        grid = ms.UniformGrid(2048)
        fast = ms.ulam_row_operator(table_fam, t, grid)
        exact = ms.ulam_row_operator(_with_exact_inverse(table_fam), t, grid)
        slow = ms.ulam_row_operator(bisection_family(table_fam), t, grid)
        # 2 ulp of a cut near 1 over h = 2/2048.
        assert abs(fast - exact).max() <= 2.5e-13
        assert abs(fast - slow).max() <= abs(slow - exact).max() + 2.5e-13
        for mat in (fast, slow):
            assert np.abs(np.asarray(mat.sum(axis=1)).ravel() - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("t", [-0.1, 0.0, 0.1])
    def test_ulam_newton_work(self, table_fam, t, monkeypatch):
        """Work-count guard: every row of the m = 2048 Ulam build is done
        after 4 Newton iterations (the count measured when this guard was
        written, at each t here), so the build's bytes with the cap at 4 are
        those with the default cap. A change that slows convergence fails
        here even when its converged roots keep every byte."""

        def build():
            mat = ms.ulam_row_operator(table_fam, t, ms.UniformGrid(2048))
            return mat.data.tobytes(), mat.indices.tobytes(), mat.indptr.tobytes()

        want = build()
        monkeypatch.setattr(mc, "_NEWTON_CAP", 4)
        assert build() == want

    def test_ulam_newton_active_rows(self, table_fam, monkeypatch):
        """Work-count guard on the Newton iterations of the m = 2048 Ulam
        build at t = 0.003: all 4,094 rows run 3 iterations and the 40 that
        have not stopped a 4th, alone (the counts measured when this guard
        was written). Each iteration takes `np.spacing` of its rows'
        iterates once, so the iterations' row counts are read there; a
        change that slows or speeds convergence, or that iterates on rows
        that have stopped, changes them even where the roots keep every
        byte."""
        sizes = []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def spacing(x):
                sizes.append(np.size(x))
                return np.spacing(x)

        monkeypatch.setattr(mc, "np", CountingNumpy())
        ms.ulam_row_operator(table_fam, 0.003, ms.UniformGrid(2048))
        assert sizes == [4094, 4094, 4094, 40]

    @pytest.mark.parametrize("t", [-0.1, 0.0, 0.07])
    def test_below_first_node_matches_bisection(self, table_fam, t):
        """Targets in (T_t(+-1e-300), T_t(+-x_first)) fall on the end piece,
        which inverts in closed form: within the branch's conditioning of
        the bisected roots, and the same alone as among spline rows."""
        slow = bisection_family(table_fam)
        for side in (1.0, -1.0):
            inner = float(mc.evaluate(table_fam, t, side * 1e-300))
            first = float(mc.evaluate(table_fam, t, side * 1e-6))
            ends = np.linspace(inner, first, 41)[1:-1]
            ys = np.concatenate([ends, np.linspace(-0.9, 0.9, 39)])
            fast = mc.invert_branch(table_fam, t, ys, side)[: ends.size]
            assert fast.tobytes() == mc.invert_branch(table_fam, t, ends, side).tobytes()
            assert np.all((0.0 < side * fast) & (side * fast < 1e-6))
            ref = mc.invert_branch(slow, t, ends, side)
            # A few roundings of a target of size 1, over the slope.
            cond = 4 * 2.0**-52 / mc.derivative(table_fam, t, ref)
            assert np.all(np.abs(fast - ref) <= cond + 2 * np.abs(np.spacing(ref)))

    @pytest.mark.parametrize("t", [-0.1, 0.0, 0.07])
    def test_end_piece_round_trip(self, table_fam, t):
        xs = np.geomspace(1e-9, 1e-6, 60)[:-1]
        for side in (1.0, -1.0):
            ys = mc.evaluate(table_fam, t, side * xs)
            back = mc.invert_branch(table_fam, t, ys, side)
            assert np.abs(mc.evaluate(table_fam, t, back) - ys).max() <= 4 * 2.0**-52
            cond = 4 * 2.0**-52 / mc.derivative(table_fam, t, side * xs)
            assert np.all(np.abs(back - side * xs) <= cond)

    def test_rows_do_not_depend_on_the_batch(self, table_fam):
        """Each row stops on its own test, so a row's root is the same alone
        as among rows that take more Newton steps."""
        edges = ms.UniformGrid(2048).edges
        ys = edges[(edges > -1.0 + 1e-9) & (edges < 1.0 - 1e-9)]
        for side in (1.0, -1.0):
            batch = mc.invert_branch(table_fam, -0.1, ys, side)
            alone = [mc.invert_branch(table_fam, -0.1, y, side) for y in ys]
            assert batch.tobytes() == np.array(alone).tobytes()
        # Both sides in one batch, as the Ulam build and pullbacks invert.
        sides = np.where(np.arange(ys.size) % 3 == 0, 1.0, -1.0)
        mixed = mc.invert_branch(table_fam, -0.1, ys, sides)
        alone = [mc.invert_branch(table_fam, -0.1, y, side) for y, side in zip(ys, sides)]
        assert mixed.tobytes() == np.array(alone).tobytes()

    def test_pickle_round_trip_inverts_identically(self, table_fam):
        clone = pickle.loads(pickle.dumps(table_fam))
        ys = np.concatenate([np.linspace(-1.0, 1.0, 301), [-1.0 + 1.5e-12, 1.0 - 1.5e-12]])
        sides = np.where(np.arange(ys.size) % 2 == 0, 1.0, -1.0)
        for t in (-0.1, 0.03):
            fast = mc.invert_branch(table_fam, t, ys, sides)
            assert mc.invert_branch(clone, t, ys, sides).tobytes() == fast.tobytes()


@pytest.fixture(params=["fixture_2", "fixture_2.5", "fixture_3", "table_fam", *TABLES, "fam_lin"])
def any_family(request):
    """Fixtures s = 2, 2.5 and 3, the `any_table` tables and the doubling
    family."""
    name = request.param
    if name.startswith("fixture_"):
        return mc.fixture_family(s=float(name.split("_")[1]))
    if name in TABLES:
        return TABLES[name]()
    return request.getfixturevalue(name)


SPECIAL_Y = np.array([
    np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, 40.0, -40.0,
    1.0 - 1e-12, -1.0 + 1e-12, 1.0 + 1e-12, -1.0 - 1e-12,
])


def _targets(fam):
    """Targets across and past both branch images: uniform, the special
    values, and each image end at t = 0 with its neighbours."""
    ends = fam.value(0.0, np.array([-1.0, -1e-300, 1e-300, 1.0]))
    ends = np.concatenate([ends, np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf)])
    rng = np.random.default_rng(11)
    return np.concatenate([rng.uniform(-1.3, 1.3, 2000), np.linspace(-1.0, 1.0, 257), ends, SPECIAL_Y])


def per_side(fam, t, ys, side):
    """`invert_branch` of the rows of each side by one call with that side
    shared (and t, when per row, gathered), scattered back."""
    pos = np.broadcast_to(np.asarray(side) > 0, ys.shape)
    out = np.empty(ys.shape)
    for rows, sign in ((pos, 1.0), (~pos, -1.0)):
        t_rows = t if np.ndim(t) == 0 else np.broadcast_to(t, ys.shape)[rows]
        out[rows] = mc.invert_branch(fam, t_rows, ys[rows], sign)
    return out


class TestOneInverse:
    """`MapFamily.inverse` inverts both sides in one call: each row gets the
    bytes that a call with its side shared gives it."""

    def test_matches_per_side_reference(self, any_family):
        fam = any_family
        ys = _targets(fam)
        rng = np.random.default_rng(12)
        side_rows = np.where(rng.random(ys.size) < 0.5, 1.0, -1.0)
        t_rows = rng.uniform(-fam.eps_max, fam.eps_max, ys.size)
        for t in (0.0, 0.0371, -fam.eps_max, t_rows):
            want = per_side(fam, t, ys, side_rows)
            for side in (side_rows, side_rows.astype(np.int8)):
                assert_same_bytes(mc.invert_branch(fam, t, ys, side), want)
            for sign in (1, -1):
                rows = np.full(ys.size, sign, dtype=np.int8)
                assert_same_bytes(mc.invert_branch(fam, t, ys, rows), per_side(fam, t, ys, rows))

    def test_zero_d_matches_per_side_reference(self, any_family):
        fam = any_family
        for y in np.concatenate([SPECIAL_Y, [0.3, -0.6]]):
            for side in (1.0, -1.0, np.array(1), np.array(-1)):
                got = mc.invert_branch(fam, 0.0371, np.float64(y), side)
                assert np.ndim(got) == 0
                want = mc.invert_branch(fam, 0.0371, np.array([y]), float(side))
                assert_same_bytes(got, want[0])

    def test_pull_back_matches_per_side_reference(self, any_family):
        """Itineraries per row (int8, as the tower scans them) and shared."""
        fam = any_family
        k, rows = 6, 300
        t_path = noise.stream(3, fam.eps_max).values(0, k)
        rng = np.random.default_rng(13)
        ys = rng.uniform(-1.0, 1.0, rows)
        per_row = np.where(rng.random((rows, k)) < 0.5, 1, -1).astype(np.int8)
        for sides in (per_row, per_row[0].astype(float)):
            want = ys
            for j in range(k - 1, -1, -1):
                want = per_side(fam, float(t_path[j]), want, sides[..., j])
            assert_same_bytes(orbit.pull_back(fam, t_path, sides, ys), want)

    def test_pull_back_per_row_lengths(self, any_family):
        """Itinerary lengths 1..k mixed in one call: each row gets the bytes
        of a call on its own itinerary alone."""
        fam = any_family
        k = 7
        t_path = noise.stream(5, fam.eps_max).values(0, k)
        rng = np.random.default_rng(14)
        ys = np.concatenate([rng.uniform(-1.0, 1.0, 120), SPECIAL_Y])
        sides = np.where(rng.random((ys.size, k)) < 0.5, 1, -1).astype(np.int8)
        lengths = np.arange(ys.size) % k + 1
        got = orbit.pull_back(fam, t_path, sides, ys, lengths)
        for i, n in enumerate(lengths):
            alone = orbit.pull_back(fam, t_path, sides[i, :n], ys[i : i + 1])
            assert_same_bytes(got[i : i + 1], alone)


class TestPreviousNewtonKernel:
    """`_shear_spline_inverse` gives the bytes of the kernel that formed
    every term inside its Newton loop and iterated every row until the last
    stopped (`conftest.reference_shear_spline_inverse`): rows are
    independent, so dropping the stopped ones changes no root."""

    @staticmethod
    def assert_matches(fam, t, ys, side):
        want = reference_shear_spline_inverse(fam.inverse, t, ys, side)
        assert_same_bytes(mc.invert_branch(fam, t, ys, side), want)

    def test_edges(self, any_table):
        """Node values and the images of the knots with their neighbours,
        end-piece targets, the image ends, +-0, +-inf and NaN: per-row,
        shared and zero t, mixed and shared sides, and 0-d targets."""
        fam, inv = any_table, any_table.inverse
        images = fam.value(0.0371, inv.knots)
        near_ends = np.geomspace(1e-12, 1.0, 60)
        inner = fam.value(0.0371, np.concatenate([fam.value.ends[0] * near_ends,
                                                  fam.value.ends[1] * near_ends]))
        ys = np.concatenate([
            _targets(fam), inner,
            *(np.nextafter(v, d) for v in (inv.nodes, images) for d in (-np.inf, 0.0, np.inf)),
        ])
        rng = np.random.default_rng(14)
        sides = np.where(rng.random(ys.size) < 0.5, 1.0, -1.0)
        for t in (0.0, 0.0371, -0.1, rng.uniform(-0.1, 0.1, ys.size)):
            for side in (sides, 1.0, -1.0):
                self.assert_matches(fam, t, ys, side)
        for y in np.concatenate([SPECIAL_Y, inv.nodes[::40]]):
            for side in (1.0, -1.0):
                got = mc.invert_branch(fam, 0.0371, np.float64(y), side)
                assert np.ndim(got) == 0
                assert_same_bytes(got, reference_shear_spline_inverse(inv, 0.0371, y, side))

    def test_random_batches(self, table_fam):
        """300 batches of 2,000 uniform targets, each row on a random side
        and at its own t in [-0.1, 0.1]. A Newton slope summed as
        c2 + 2 c1 h + 3 c0 h^2 instead of c2 + h (2 c1 + 3 c0 h) moves about
        one root in 600,000 by 2 ulp; it moves three of these."""
        rng = np.random.default_rng(15)
        for _ in range(300):
            ys = rng.uniform(-1.0, 1.0, 2000)
            sides = np.where(rng.random(ys.size) < 0.5, 1.0, -1.0)
            self.assert_matches(table_fam, rng.uniform(-0.1, 0.1, ys.size), ys, sides)

    @settings(max_examples=100, deadline=None)
    @given(
        ys=hnp.arrays(np.float64, st.integers(1, 40), elements=st.floats(-1.2, 1.2)),
        t=st.floats(-0.1, 0.1),
        per_row=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property(self, table_fam, ys, t, per_row, seed):
        rng = np.random.default_rng(seed)
        if per_row:
            t = rng.uniform(-0.1, 0.1, ys.size)
        self.assert_matches(table_fam, t, ys, np.where(rng.random(ys.size) < 0.5, 1, -1))
