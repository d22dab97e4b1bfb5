"""The array kernels of one orbit step, the Ulam operator build and the
backward correlation's block push: byte-equal to reference copies of their
earlier forms (tests/conftest.py), and lean in allocation. `orbit.step`
leaves the return depth and log DT to its callers; `step_outputs` takes both
as `ensemble_orbits` does.

Each step kernel allocates one fresh float64 array per output and works in
place on arrays it allocated itself; the guard bounds each call's traced peak
as a multiple of the input's bytes. The Ulam build merges each branch's
breaks and cell edges in one sweep, with no sort, no midpoint lookups and no
COO matrix; its guard bounds the peak as a multiple of the output's bytes.
"""

import dataclasses
import tracemalloc

import mpmath
import numpy as np
import pytest

from conftest import (
    assert_same_bytes,
    assert_same_csr,
    dying_ensemble,
    reference_depths,
    reference_ensemble_keys,
    reference_fixture_family,
    reference_keyed_draws,
    reference_step,
    reference_ulam_correlation,
    reference_ulam_row_operator,
)
from rovella import map_core, measures, noise, orbit

SPECIAL_X = np.array([
    0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 1e-8, -1e-8, 0.3, -0.3,
    0.7071067811865476, -0.7071067811865476, 1.0, -1.0, np.nan, np.inf, -np.inf,
])


def step_outputs(fam, t, x, delta):
    """(x_next, depth, log_dt) of one `orbit.step`, with the depth and the
    log taken at the caller."""
    x_next, dt, prod = orbit.step(fam, t, x)
    return x_next, orbit._depths(prod, delta), np.log(dt, out=dt)


def step_families(family, request):
    """(family, reference family) for a `STEP_FAMILIES` id: the reference
    fixture formulas, or the table family itself."""
    if family == "table_fam":
        fam = request.getfixturevalue("table_fam")
        return fam, fam
    s = float(family.split("_")[1])
    return map_core.fixture_family(s=s), reference_fixture_family(s)


STEP_FAMILIES = ["fixture_2", "fixture_2.5", "fixture_3", "table_fam"]


@pytest.mark.parametrize("s", [2.0, 2.5, 3.0])
@pytest.mark.parametrize("kind", [0, 1, 2])
def test_fixture_callables_match_reference(s, kind):
    """Both signed zeros, subnormals, the ends and non-finite x, at a shared
    and at a per-row t."""
    fam, ref = map_core.fixture_family(s=s), reference_fixture_family(s)
    name = ("value", "deriv", "second")[kind]
    rng = np.random.default_rng(5)
    x = np.concatenate([SPECIAL_X, rng.uniform(-1.0, 1.0, 200)])
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for t in (0.0, -0.07, rng.uniform(-0.1, 0.1, x.size)):
            got, want = getattr(fam, name)(t, x), getattr(ref, name)(t, x)
            assert got.dtype == np.float64
            assert_same_bytes(got, want)


class TestDepths:
    @pytest.mark.parametrize("delta", [0.01, 0.1, 1.0])
    def test_edges_match_reference(self, delta):
        """0, -0, negatives, NaN, +-inf, exactly delta and e^-k delta with
        one ulp on either side, for k up to 40."""
        edges = np.exp(-np.arange(0.0, 41.0)) * delta
        prod = np.concatenate([
            [0.0, -0.0, -1e-3, -1.0, -np.inf, np.inf, np.nan, 1e-300, delta, 1e300],
            edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
        ])
        before = prod.copy()
        got = orbit._depths(prod, delta)
        assert got.dtype == np.int64
        assert np.array_equal(got, reference_depths(before, delta))
        assert_same_bytes(prod, before)  # the input is only read

    def test_random_products_match_reference(self):
        prod = np.exp(np.random.default_rng(3).uniform(-50.0, 3.0, 5000))
        assert np.array_equal(orbit._depths(prod, 0.01), reference_depths(prod, 0.01))

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
        assert np.array_equal(
            noise.ensemble_keys(7, 50, offset), reference_ensemble_keys(7, 50, offset)
        )

    @pytest.mark.parametrize("index", INDICES)
    def test_keyed_draws_match_scalar_get(self, index):
        offset = 3
        keys = noise.ensemble_keys(7, 5, offset)
        streams = [noise.stream(noise.derive_seed(7, offset + i), 0.02) for i in range(5)]
        got = noise.keyed_draws(keys, 0.02, index)
        assert np.array_equal(got, [s.get(index) for s in streams])
        assert_same_bytes(got, reference_keyed_draws(keys, 0.02, index))

    def test_keyed_draws_per_row_index(self):
        keys = noise.ensemble_keys(7, len(self.INDICES))
        index = np.array(self.INDICES)
        assert_same_bytes(
            noise.keyed_draws(keys, 0.02, index), reference_keyed_draws(keys, 0.02, index)
        )
        matrix = noise.keyed_draws(keys[:, None], 0.02, index)
        assert_same_bytes(matrix, reference_keyed_draws(keys[:, None], 0.02, index))

    @pytest.mark.parametrize("start", [-(10**12), -40, 2**40])
    def test_values_match_scalar_get(self, start):
        s = noise.shift(noise.stream(9, 0.05), -17)
        assert np.array_equal(s.values(start, 30), [s.get(start + k) for k in range(30)])


@pytest.mark.parametrize("family", STEP_FAMILIES)
def test_step_matches_reference_on_special_points(family, request):
    """Signed zeros, subnormals, the ends and non-finite x, at a shared and
    at a per-row t: the point, the depth (-1 where DT * |x| is not a
    positive finite number) and log DT (NaN on every dead row)."""
    fam, ref = step_families(family, request)
    t_row = np.random.default_rng(2).uniform(-0.1, 0.1, SPECIAL_X.size)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for t in (0.0, 0.07, t_row):
            got = step_outputs(fam, t, SPECIAL_X, 0.01)
            for a, b in zip(got, reference_step(ref, t, SPECIAL_X, 0.01)):
                assert_same_bytes(a, b)


def test_step_kills_a_nan_image(fam):
    """A hand-built value that is NaN where DT * |x| is positive: the row
    is dead, its log DT NaN and its depth finite, as in the reference."""

    def holed(t, x):
        y = fam.value(t, x)
        y[np.abs(x) < 0.2] = np.nan
        return y

    odd = dataclasses.replace(fam, value=holed)
    xs = np.array([-0.5, -0.1, 0.1, 0.5])
    got = step_outputs(odd, 0.01, xs, 0.01)
    assert np.isnan(got[2]).tolist() == [False, True, True, False]
    for a, b in zip(got, reference_step(odd, 0.01, xs, 0.01)):
        assert_same_bytes(a, b)


@pytest.mark.parametrize("family", STEP_FAMILIES)
def test_step_matches_reference_on_dying_ensemble(family, request):
    """All three outputs of every step, at a t per row. The ensemble has a
    fixture row whose first image is exactly 0, which keeps the finite depth
    of its point while its image and log DT are NaN, and rows at +-0 and
    +-1e-300, which die at step 0 where DT * |x| is 0."""
    fam, ref = step_families(family, request)
    planted = map_core.fixture_family(s=2.0) if fam is ref else fam  # the table copies s = 2
    n = 30
    samples, x0 = dying_ensemble(planted, 11, 0.01)
    x0 = np.concatenate([x0, [0.0, -0.0, 1e-300, -1e-300]])
    ts = noise.ensemble_noise(11, 0.01, x0.size, n)
    x = x_ref = x0
    for k in range(n):
        x, depth, log_dt = step_outputs(fam, ts[:, k], x, 0.01)
        x_ref, depth_ref, log_dt_ref = reference_step(ref, ts[:, k], x_ref, 0.01)
        assert_same_bytes(x, x_ref)
        assert np.array_equal(depth, depth_ref)
        assert_same_bytes(log_dt, log_dt_ref)
        if k == 0 and planted is fam:
            assert np.isnan(x[samples - 1]) and depth[samples - 1] >= 0
    assert np.isnan(x[samples:]).all()


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
        """The one-lookup step peaks where the separate derivative call did:
        14.0 (its eight coefficient rows, the powers of h and the sums)."""
        _, x, t = rows
        assert self.peak_ratio(lambda: orbit.step(table_fam, t, x), x.nbytes) < 14.01

    def test_keyed_draws(self, rows):
        keys, x, _ = rows
        assert self.peak_ratio(lambda: noise.keyed_draws(keys, 0.01, 5), x.nbytes) < 2.5


class TestUlamSweep:
    # The one (family, m) where a midpoint of the old build rounds onto its
    # piece's end point, with the t values where it does.
    MIDPOINT_MOVES = {("fixture", 513): [0.0]}

    @staticmethod
    def family(name, request):
        return request.getfixturevalue("fam" if name == "fixture" else "table_fam")

    @pytest.mark.parametrize("m", [16, 17, 513, 2048, 2049])
    @pytest.mark.parametrize("name", ["fixture", "table"])
    def test_matches_reference_build(self, name, m, request):
        """Byte-equal to the old build filed at each piece's start, always;
        and to the old build filed at midpoints except where a midpoint
        rounds onto an end point (listed in MIDPOINT_MOVES)."""
        fam = self.family(name, request)
        grid = measures.UniformGrid(m)
        eps = fam.eps_max
        moved = []
        for t in [0.0, eps, -eps, *noise.stream(7, eps).values(-10, 20).tolist()]:
            got = measures.ulam_row_operator(fam, t, grid)
            assert_same_csr(got, reference_ulam_row_operator(fam, t, grid, lookup="start"))
            want = reference_ulam_row_operator(fam, t, grid)
            if not all(getattr(got, k).tobytes() == getattr(want, k).tobytes()
                       for k in ("data", "indices", "indptr")):
                moved.append(t)
        assert moved == self.MIDPOINT_MOVES.get((name, m), [])

    def test_planted_one_ulp_cut(self, fam_lin):
        """The doubling map's cut at y = 0 is x = 0.5, a cell edge of the
        64-cell grid; the stub inverse puts it one ulp below. The sliver
        [0.5 - 2^-54, 0.5] lies in cell 47 and maps into image cell 32. Its
        midpoint rounds to 0.5, so the old build filed it in cell 48."""
        inv = fam_lin.inverse

        def planted(t, y, side):
            x = inv(t, y, side)
            cut = (np.asarray(y) == 0.0) & (np.asarray(side) > 0)
            return np.where(cut, np.nextafter(x, 0.0), x)

        stub = dataclasses.replace(fam_lin, inverse=planted)
        grid = measures.UniformGrid(64)
        assert grid.edges[48] == 0.5
        mat = measures.ulam_row_operator(stub, 0.0, grid)
        old = reference_ulam_row_operator(stub, 0.0, grid)
        sliver = 2.0**-54 / grid.h
        assert mat[47, 32] == sliver and old[47, 32] == 0.0
        assert mat[48, 32] == old[48, 32] - sliver
        rows = np.asarray(mat.sum(axis=1)).ravel()
        old_rows = np.asarray(old.sum(axis=1)).ravel()
        assert rows[47] == 1.0 and rows[48] == 1.0
        assert old_rows[47] == 1.0 - sliver and old_rows[48] == 1.0 + sliver
        unplanted = measures.ulam_row_operator(fam_lin, 0.0, grid)
        assert unplanted[47, 32] == 0.0 and unplanted[48, 32] == 0.5


class TestUlamInvariants:
    @pytest.mark.parametrize("m", [17, 2048])
    @pytest.mark.parametrize("name", ["fixture", "table"])
    def test_canonical_stochastic_and_push(self, name, m, request):
        fam = TestUlamSweep.family(name, request)
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
        are never cut at: what maps past them goes to the end cells. The
        old build cut at the preimage of -1 too, which shifted the negative
        branch's columns up by one, and it clipped the top column back."""

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
        old = reference_ulam_row_operator(wide, 0.0, grid)
        assert old[6].toarray()[0, :3] == pytest.approx([0.4, 0.4, 0.2], abs=1e-14)
        # Cells 58-63 map past 1 on the positive branch; both builds agree there.
        assert mat[60, 63] == 1.0 and old[60, 63] == 1.0

    def test_build_peak(self, fam):
        """One m = 2048 fixture build peaks at about 4.0 times the bytes of
        its CSR arrays; the unique/midpoint/COO build peaked at 5.8."""
        grid = measures.UniformGrid(2048)
        t = noise.stream(1, 0.01).get(-3)
        mat = measures.ulam_row_operator(fam, t, grid)
        nbytes = mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
        assert TestAllocation.peak_ratio(lambda: measures.ulam_row_operator(fam, t, grid), nbytes) < 4.5


class TestBackwardBlockPush:
    # (phi, psi): (x, sign), (x, x), a constant phi and a constant psi.
    PAIRS = [
        (lambda x: x, np.sign),
        (lambda x: x, lambda x: x),
        (np.ones_like, np.sign),
        (lambda x: x, np.ones_like),
    ]

    @pytest.mark.parametrize("m", [17, 128, 2048])
    @pytest.mark.parametrize("name", ["fixture", "table"])
    def test_matches_per_n_pushes(self, name, m, request):
        """Each C_n of the block push has the bytes of its own chain of
        single-vector pushes."""
        fam = TestUlamSweep.family(name, request)
        stream = noise.stream(3, 0.05)
        cache = measures.OperatorCache(fam, stream, measures.UniformGrid(m))
        for phi, psi in self.PAIRS:
            for n_max in (0, 1, 12, 40):
                got = measures.quenched_correlation(
                    fam, stream, phi, psi, n_max, m_past=20, direction="backward", cache=cache
                )
                want = reference_ulam_correlation(phi, psi, n_max, cache, 20)
                assert_same_bytes(got.values, want)

    @pytest.mark.parametrize("n_max", [0, 1, 12])
    def test_push_count(self, fam, noisy_stream, n_max):
        """m_past + n_max single-vector pushes build the past measures, and
        one block product per operator -n_max..-1 pushes the chains."""
        cache = measures.OperatorCache(fam, noisy_stream, measures.UniformGrid(64))
        calls = []
        push = cache.push

        def counted(masses, index):
            calls.append((masses.ndim, index))
            return push(masses, index)

        cache.push = counted
        measures.quenched_correlation(
            fam, noisy_stream, lambda x: x, np.sign, n_max, m_past=7, direction="backward",
            cache=cache,
        )
        assert [c for c in calls if c[0] == 1] == [(1, -j) for j in range(n_max + 7, 0, -1)]
        assert [c for c in calls if c[0] == 2] == [(2, -j) for j in range(n_max, 0, -1)]
