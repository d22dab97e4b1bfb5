"""The array kernels of one orbit step, the noise draws, the Ulam operator
build, its vector push and the backward correlation's block push, against
independent forms: the fixture's 0-d formulas, a per-row step rule, a depth
scan, the scalar noise stream, the Ulam operator's definition as cell
overlaps and scipy's CSC product; and their allocation. `orbit.step` leaves
the return depth and log DT to its callers; `step_outputs` takes both as
`ensemble_orbits` does.

Each step kernel allocates one fresh float64 array per output and works in
place on arrays it allocated itself; the guard bounds each call's traced peak
as a multiple of the input's bytes. The Ulam build merges each branch's
breaks and cell edges in one sweep, with no sort, no midpoint lookups and no
COO matrix; its guard bounds the peak as a multiple of the output's bytes.
"""

import dataclasses
import functools
import tracemalloc

import mpmath
import numpy as np
import pytest

from conftest import assert_same_bytes, dying_ensemble
from rovella import map_core, measures, noise, orbit

SPECIAL_X = np.array([
    0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 1e-8, -1e-8, 0.3, -0.3,
    0.7071067811865476, -0.7071067811865476, 1.0, -1.0, np.nan, np.inf, -np.inf,
])
STEP_FAMILIES = ["fixture_2", "fixture_2.5", "fixture_3", "table_fam"]


def step_outputs(fam, t, x, delta):
    """(x_next, depth, log_dt) of one `orbit.step`, with the depth and the
    log taken at the caller."""
    x_next, dt, prod = orbit.step(fam, t, x)
    return x_next, orbit._depths(prod, delta), np.log(dt, out=dt)


def scan_depths(prod, delta):
    """Return depths by the definition: the number of r >= 0 with
    p < e^-r delta (np.exp, as the kernel compares), which is the least r
    with p >= e^-r delta; -1 where p is not in (0, inf)."""
    r = (prod[:, None] < np.exp(-np.arange(800.0)) * delta).sum(axis=1)
    return np.where((prod > 0) & (prod < np.inf), r, -1)


@pytest.mark.parametrize("s", [2.0, 2.5, 3.0])
@pytest.mark.parametrize("kind", [0, 1, 2])
def test_fixture_callables_match_reference(s, kind):
    """The array path gives each element the bytes of the 0-d formulas, on
    both signed zeros, subnormals, the ends and non-finite x, at a shared
    and at a per-row t."""
    fam = map_core.fixture_family(s=s)
    fn = (fam.value, fam.deriv, fam.second)[kind]
    rng = np.random.default_rng(5)
    x = np.concatenate([SPECIAL_X, rng.uniform(-1.0, 1.0, 200)])
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for t in (0.0, -0.07, rng.uniform(-0.1, 0.1, x.size)):
            got = fn(t, x)
            assert got.dtype == np.float64
            t_rows = np.broadcast_to(t, x.shape)
            assert_same_bytes(got, [fn(ti, np.float64(xi)) for ti, xi in zip(t_rows, x)])


def step_rule(fam, t, x, delta):
    """(x_next, depth, log_dt) of one step by the rule that `orbit.step`
    states, row by row through the family's 0-d value and derivative: a row
    is dead where DT * |x| is not in (0, inf) or its image is 0 or NaN, and
    a dead row's image and log DT are NaN; its depth is `scan_depths`."""
    t = np.broadcast_to(t, x.shape)
    y = np.array([fam.value(ti, np.float64(xi)) for ti, xi in zip(t, x)])
    d = np.array([fam.deriv(ti, np.float64(xi)) for ti, xi in zip(t, x)])
    prod = d * np.abs(x)
    dead = ~((prod > 0) & (prod < np.inf) & ((y > 0) | (y < 0)))
    y[dead] = np.nan
    d[dead] = np.nan
    return y, scan_depths(prod, delta), np.log(d)


def step_family(name, request):
    """The family of a `STEP_FAMILIES` id."""
    if name == "table_fam":
        return request.getfixturevalue(name)
    return map_core.fixture_family(s=float(name.split("_")[1]))


class TestDepths:
    @pytest.mark.parametrize("delta", [0.01, 0.1, 1.0])
    def test_edges_match_reference(self, delta):
        """0, -0, negatives, NaN, +-inf, exactly delta and e^-k delta with
        one ulp on either side, for k up to 40, against `scan_depths`."""
        edges = np.exp(-np.arange(0.0, 41.0)) * delta
        prod = np.concatenate([
            [0.0, -0.0, -1e-3, -1.0, -np.inf, np.inf, np.nan, 1e-300, delta, 1e300],
            edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
        ])
        before = prod.copy()
        got = orbit._depths(prod, delta)
        assert got.dtype == np.int64
        assert np.array_equal(got, scan_depths(before, delta))
        assert_same_bytes(prod, before)  # the input is only read

    def test_random_products_match_reference(self):
        prod = np.exp(np.random.default_rng(3).uniform(-50.0, 3.0, 5000))
        assert np.array_equal(orbit._depths(prod, 0.01), scan_depths(prod, 0.01))

    def test_products_below_delta_over_dbl_max(self):
        """delta / p overflows below delta / DBL_MAX (about 5.6e-311 at
        delta 0.01); the depth is still the least r >= 0 with
        p >= e^-r delta, checked in 50-digit arithmetic."""
        prod = np.array([1e-300, 1e-311, 5e-324])
        got = orbit._depths(prod, 0.01)
        assert got.tolist() == [687, 712, 740]
        with mpmath.workdps(50):
            for p, r in zip(prod.tolist(), got.tolist()):
                assert mpmath.mpf(p) >= mpmath.exp(-r) * mpmath.mpf(0.01)
                assert mpmath.mpf(p) < mpmath.exp(-(r - 1)) * mpmath.mpf(0.01)

    def test_step_keeps_a_subnormal_product_alive(self):
        """DT * |x| = 4e-320 at x = 1e-160 on the s = 2 fixture; the image
        -1 is finite, so the row lives on."""
        x_next, depth, log_dt = step_outputs(map_core.fixture_family(), 0.0, np.array([1e-160, 0.3]), 0.01)
        assert np.isfinite(x_next).all() and np.isfinite(log_dt).all()
        assert depth.tolist() == [731, 0]


class TestNoiseKernels:
    INDICES = (-(2**62), -(10**12), -1, 0, 7, 2**40, 2**62)

    @pytest.mark.parametrize("offset", [0, 2**40])
    def test_ensemble_keys_match_reference(self, offset):
        """Key i is the scalar `NoiseStream.key` of seed derive_seed(7, offset + i)."""
        want = [noise.stream(noise.derive_seed(7, offset + i), 0.0).key for i in range(50)]
        assert noise.ensemble_keys(7, 50, offset).tolist() == want

    @pytest.mark.parametrize("index", INDICES)
    def test_keyed_draws_match_scalar_get(self, index):
        offset = 3
        keys = noise.ensemble_keys(7, 5, offset)
        streams = [noise.stream(noise.derive_seed(7, offset + i), 0.02) for i in range(5)]
        got = noise.keyed_draws(keys, 0.02, index)
        assert_same_bytes(got, [s.get(index) for s in streams])

    def test_keyed_draws_per_row_index(self):
        keys = noise.ensemble_keys(7, len(self.INDICES))
        streams = [noise.stream(noise.derive_seed(7, i), 0.02) for i in range(keys.size)]
        index = np.array(self.INDICES)
        assert_same_bytes(
            noise.keyed_draws(keys, 0.02, index), [s.get(i) for s, i in zip(streams, self.INDICES)]
        )
        matrix = noise.keyed_draws(keys[:, None], 0.02, index)
        assert_same_bytes(matrix, [[s.get(i) for i in self.INDICES] for s in streams])

    @pytest.mark.parametrize("start", [-(10**12), -40, 2**40])
    def test_values_match_scalar_get(self, start):
        s = noise.shift(noise.stream(9, 0.05), -17)
        assert np.array_equal(s.values(start, 30), [s.get(start + k) for k in range(30)])


@pytest.mark.parametrize("family", STEP_FAMILIES)
def test_step_matches_reference_on_special_points(family, request):
    """Signed zeros, subnormals, the ends and non-finite x, at a shared and
    at a per-row t, against `step_rule`: the point, the depth (-1 where
    DT * |x| is not a positive finite number) and log DT (NaN on every dead
    row)."""
    fam = step_family(family, request)
    t_row = np.random.default_rng(2).uniform(-0.1, 0.1, SPECIAL_X.size)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for t in (0.0, 0.07, t_row):
            got = step_outputs(fam, t, SPECIAL_X, 0.01)
            for a, b in zip(got, step_rule(fam, t, SPECIAL_X, 0.01)):
                assert_same_bytes(a, b)


@pytest.mark.parametrize("family", STEP_FAMILIES)
def test_step_matches_reference_on_dying_ensemble(family, request):
    """All three outputs of every step, at a t per row, against
    `step_rule`. The ensemble has a fixture row whose first image is
    exactly 0, which keeps the finite depth of its point while its image and
    log DT are NaN, and rows at +-0 and +-1e-300, which die at step 0 where
    DT * |x| is 0."""
    fam = step_family(family, request)
    planted = map_core.fixture_family(s=2.0) if family == "table_fam" else fam  # the table copies s = 2
    n = 30
    samples, x0 = dying_ensemble(planted, 11, 0.01)
    x0 = np.concatenate([x0, [0.0, -0.0, 1e-300, -1e-300]])
    ts = noise.ensemble_noise(11, 0.01, x0.size, n)
    x = x_ref = x0
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for k in range(n):
            x, depth, log_dt = step_outputs(fam, ts[:, k], x, 0.01)
            x_ref, depth_ref, log_dt_ref = step_rule(fam, ts[:, k], x_ref, 0.01)
            assert_same_bytes(x, x_ref)
            assert np.array_equal(depth, depth_ref)
            assert_same_bytes(log_dt, log_dt_ref)
            if k == 0 and planted is fam:
                assert np.isnan(x[samples - 1]) and depth[samples - 1] >= 0
    assert np.isnan(x[samples:]).all()


def test_step_kills_a_nan_image(fam):
    """A hand-built value that is NaN where DT * |x| is positive: the row
    is dead, its log DT NaN and its depth finite."""

    def holed(t, x):
        y = fam.value(t, x)
        y[np.abs(x) < 0.2] = np.nan
        return y

    odd = dataclasses.replace(fam, value=holed)
    xs = np.array([-0.5, -0.1, 0.1, 0.5])
    x_next, depth, log_dt = step_outputs(odd, 0.01, xs, 0.01)
    dead = np.array([False, True, True, False])
    assert np.isnan(x_next).tolist() == np.isnan(log_dt).tolist() == dead.tolist()
    assert_same_bytes(x_next[~dead], fam.value(0.01, xs[~dead]))
    assert_same_bytes(log_dt[~dead], np.log(fam.deriv(0.01, xs[~dead])))
    assert depth.tolist() == orbit._depths(fam.deriv(0.01, xs) * np.abs(xs), 0.01).tolist()


class TestAllocation:
    """Traced peak of one call, in units of x.nbytes, with 100,000 rows and a
    t per row. Before the kernels worked in place the peaks were 3.0 (fixture
    `value`), 5.0 (`orbit.step`) and 3.0 (`keyed_draws`)."""

    ROWS = 100_000

    @staticmethod
    def peak_ratio(call, nbytes):
        call()  # let lazy set-up finish
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / nbytes

    @pytest.fixture(scope="class")
    def rows(self, fam):
        keys = noise.ensemble_keys(1, self.ROWS)
        return keys, orbit.start_points(keys, 0.01), noise.keyed_draws(keys, 0.01, 0)

    def test_fixture_value(self, fam, rows):
        _, x, t = rows
        assert self.peak_ratio(lambda: fam.value(t, x), x.nbytes) < 2.5

    def test_step(self, fam, rows):
        _, x, t = rows
        assert self.peak_ratio(lambda: orbit.step(fam, t, x), x.nbytes) < 4.5

    def test_table_step(self, table_fam, rows):
        """The one-lookup step peaks at 13.0: the gathered left knots and
        T_0 coefficients (five rows), the powers of h, the derivative's
        coefficients and the sums. It was 14.0 when the derivative's
        coefficients were gathered too (eight rows)."""
        _, x, t = rows
        assert self.peak_ratio(lambda: orbit.step(table_fam, t, x), x.nbytes) < 13.01

    def test_table_ulam_inversion(self, table_fam, monkeypatch):
        """The one inversion of an m = 2048 Ulam build on the table family
        (4,094 targets, both sides) peaks at 22.1 times the targets' bytes:
        the Newton loop's bracket, iterate and gathered coefficients, the
        terms it forms once (c3 - y, 1 -+ c3, 2 c1, 3 c0) and its
        temporaries. It was 17.4 when the loop formed those terms in each
        iteration."""
        calls = []

        def recorded(family, t, y, side):
            calls.append((t, y, side))
            return map_core.invert_branch(family, t, y, side)

        monkeypatch.setattr(measures, "invert_branch", recorded)
        measures.ulam_row_operator(table_fam, 0.003, measures.UniformGrid(2048))
        [(t, y, side)] = calls
        assert y.size == 4094
        invert = functools.partial(map_core.invert_branch, table_fam, t, y, side)
        assert self.peak_ratio(invert, y.nbytes) < 22.15

    def test_keyed_draws(self, rows):
        keys, x, _ = rows
        assert self.peak_ratio(lambda: noise.keyed_draws(keys, 0.01, 5), x.nbytes) < 2.5


def ulam_by_definition(family, t, grid, rows):
    """Rows `rows` (a slice) of the dense Ulam row operator by its definition: entry
    (i, j) is the length of the part of cell i that a branch maps into cell
    j, over h. On each monotone branch that part is cell i intersected with
    [x(e_j), x(e_j+1)], where x(e) is `invert_branch` of the cell edge e
    when e lies inside the branch's image by more than 1e-15, and the
    branch's domain end (0 for the inner one) otherwise. The columns left
    out of the products lie wholly outside the rows' cells."""
    edges = grid.edges
    cells_lo, cells_hi = edges[rows][:, None], edges[rows.start + 1:rows.stop + 1][:, None]
    out = np.zeros((cells_lo.size, grid.m))
    top, bottom = family.value(t, np.array([1.0, -1.0])).tolist()
    for side, (x_lo, x_hi), (img_lo, img_hi) in (
        (1.0, (0.0, 1.0), (-1.0, top)), (-1.0, (-1.0, 0.0), (bottom, 1.0))
    ):
        inside = (edges > img_lo + 1e-15) & (edges < img_hi - 1e-15)
        pre = np.where(edges <= img_lo + 1e-15, x_lo, x_hi)
        pre[inside] = map_core.invert_branch(family, t, edges[inside], side)
        a = max(int(np.searchsorted(pre, cells_lo[0, 0], side="right")) - 1, 0)
        b = min(int(np.searchsorted(pre, cells_hi[-1, 0])), grid.m)
        lo = np.maximum(pre[None, a:b], cells_lo)
        hi = np.minimum(pre[None, a + 1:b + 1], cells_hi)
        out[:, a:b] += np.maximum(hi - lo, 0.0) / grid.h
    return out


class TestUlamSweep:
    @pytest.mark.parametrize("m", [16, 17, 513, 2048, 2049])
    @pytest.mark.parametrize("name", ["fixture", "table"])
    def test_matches_reference_build(self, name, m, request):
        """Byte-equal to `ulam_by_definition`, cell by cell, at t = 0,
        +-eps_max and 5 stream values. At m = 513 and t = 0 a piece of the
        fixture's build is so thin that its midpoint rounds onto its end
        point: a midpoint lookup files it one cell off."""
        fam = request.getfixturevalue("fam" if name == "fixture" else "table_fam")
        grid = measures.UniformGrid(m)
        eps = fam.eps_max
        for t in [0.0, eps, -eps, *noise.stream(7, eps).values(-10, 5).tolist()]:
            got = measures.ulam_row_operator(fam, t, grid)
            for start in range(0, m, 256):
                rows = slice(start, min(start + 256, m))
                assert_same_bytes(got[rows].toarray(), ulam_by_definition(fam, t, grid, rows))

    def test_planted_one_ulp_cut(self, fam_lin):
        """The doubling map's cut at y = 0 is x = 0.5, a cell edge of the
        64-cell grid; the stub inverse puts it one ulp below. The sliver
        [0.5 - 2^-54, 0.5] lies in cell 47 and maps into image cell 32. Its
        midpoint rounds to 0.5, where a midpoint lookup would file it in
        cell 48; the sweep files it in the cell that holds it."""
        inv = fam_lin.inverse

        def planted(t, y, side):
            x = inv(t, y, side)
            cut = (np.asarray(y) == 0.0) & (np.asarray(side) > 0)
            return np.where(cut, np.nextafter(x, 0.0), x)

        stub = dataclasses.replace(fam_lin, inverse=planted)
        grid = measures.UniformGrid(64)
        assert grid.edges[48] == 0.5
        mat = measures.ulam_row_operator(stub, 0.0, grid)
        sliver = 2.0**-54 / grid.h
        assert mat[47, 32] == sliver and mat[48, 32] == 0.5
        rows = np.asarray(mat.sum(axis=1)).ravel()
        assert rows[47] == 1.0 and rows[48] == 1.0
        unplanted = measures.ulam_row_operator(fam_lin, 0.0, grid)
        assert unplanted[47, 32] == 0.0 and unplanted[48, 32] == 0.5


class TestUlamInvariants:
    @pytest.mark.parametrize("m", [17, 2048])
    @pytest.mark.parametrize("name", ["fixture", "table"])
    def test_canonical_stochastic_and_push(self, name, m, request):
        fam = request.getfixturevalue("fam" if name == "fixture" else "table_fam")
        stream = noise.stream(7, 0.05)
        cache = measures.OperatorCache(fam, stream, measures.UniformGrid(m))
        masses = np.random.default_rng(2).dirichlet(np.ones(m))
        for i in range(-3, 3):
            mat = cache.get(i)
            assert mat.has_canonical_format
            assert mat.indices.dtype == np.int32 and mat.indptr.dtype == np.int32
            assert np.abs(np.asarray(mat.sum(axis=1)).ravel() - 1.0).max() <= 1e-12
            assert (mat.data > 0).all()
            assert_same_bytes(cache.push(masses, i), mat.T @ masses)

    def test_image_past_the_interval(self, fam_lin):
        """T(x) = 2.5 x -+ 1 sends 1 to 1.5 and -1 to -1.5. The edges +-1
        are never cut at: what maps past them goes to the end cells. A cut
        at the preimage of -1 would shift the negative branch's columns up
        by one (row 6 would read 0.4, 0.4, 0.2)."""

        def inverse(t, y, side):
            side = np.asarray(side)
            root = (np.asarray(y) + side) / 2.5
            return np.where(side > 0, np.clip(root, 0.0, 1.0), np.clip(root, -1.0, 0.0))

        wide = dataclasses.replace(
            fam_lin,
            value=lambda t, x: 2.5 * np.asarray(x) - np.where(np.asarray(x) > 0, 1.0, -1.0),
            inverse=inverse,
        )
        grid = measures.UniformGrid(64)
        mat = measures.ulam_row_operator(wide, 0.0, grid)
        assert mat.has_canonical_format and mat.indices.max() == 63
        assert np.abs(np.asarray(mat.sum(axis=1)).ravel() - 1.0).max() <= 1e-12
        # Cell 6, [-0.8125, -0.78125], maps onto [-1.03125, -0.953125]: past
        # -1 up to x = -0.8, then into image cells 0 and 1, split at -0.7875.
        assert mat[6].toarray()[0, :3] == pytest.approx([0.8, 0.2, 0.0], abs=1e-14)
        # Cells 58-63 map past 1 on the positive branch, into the end cell.
        assert mat[60, 63] == 1.0

    def test_build_peak(self, fam):
        """One m = 2048 fixture build peaks at about 4.0 times the bytes of
        its CSR arrays; the unique/midpoint/COO build peaked at 5.8."""
        grid = measures.UniformGrid(2048)
        t = noise.stream(1, 0.01).get(-3)
        mat = measures.ulam_row_operator(fam, t, grid)
        nbytes = mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
        assert TestAllocation.peak_ratio(lambda: measures.ulam_row_operator(fam, t, grid), nbytes) < 4.5


class TestVectorPush:
    @pytest.mark.parametrize("m", [64, 2048, 2049])
    @pytest.mark.parametrize("name", ["fixture", "table"])
    def test_bytes_of_the_scipy_product(self, name, m, request):
        """`measures._push` adds in `csc_matvec`'s order, from 0.0: its
        vector push has the bytes of scipy's product on the same arrays,
        for signed masses with exact 0.0 and -0.0 entries, a vector of
        -0.0 alone and tiny and huge magnitudes. scipy is the reference
        here only."""
        import scipy.sparse as sp

        fam = request.getfixturevalue("fam" if name == "fixture" else "table_fam")
        rng = np.random.default_rng(m)
        signed = rng.standard_normal(m) * 10.0 ** rng.integers(-300, 300, m)
        signed[rng.choice(m, m // 4, replace=False)] = 0.0
        signed[rng.choice(m, m // 4, replace=False)] = -0.0
        vectors = [signed, np.full(m, -0.0), rng.dirichlet(np.ones(m)), rng.standard_normal(m)]
        assert (signed == 0.0).any() and np.signbit(signed[signed == 0.0]).any()
        for t in [0.0, fam.eps_max, -fam.eps_max]:
            op = measures._ulam_arrays(fam, t, measures.UniformGrid(m))
            mat = sp.csc_matrix(op, shape=(m, m))
            for masses in vectors:
                got, want = measures._push(op, masses), mat @ masses
                assert got.dtype == want.dtype and got.shape == want.shape
                assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestBackwardBlockPush:
    @pytest.mark.parametrize("n_max", [0, 1, 12])
    def test_push_count(self, fam, noisy_stream, monkeypatch, n_max):
        """m_past + n_max single-vector pushes build the past measures, and
        one block product per operator -n_max..-1 pushes the chains."""
        build, push, built, calls = measures._ulam_arrays, measures._push, [], []

        def counted_build(family, t, grid):
            built.append((build(family, t, grid), t))
            return built[-1][0]

        def counted_push(op, masses):
            calls.append((masses.ndim, next(t for o, t in built if o is op)))
            return push(op, masses)

        monkeypatch.setattr(measures, "_ulam_arrays", counted_build)
        monkeypatch.setattr(measures, "_push", counted_push)
        measures.quenched_correlation(
            fam, noisy_stream, lambda x: x, np.sign, n_max, m_past=7, direction="backward",
            grid=measures.UniformGrid(64),
        )
        t = noisy_stream.get
        assert [c for c in calls if c[0] == 1] == [(1, t(-j)) for j in range(n_max + 7, 0, -1)]
        assert [c for c in calls if c[0] == 2] == [(2, t(-j)) for j in range(n_max, 0, -1)]
