"""One call per evaluation of a map family.

A family's value and derivative callables take both signs of x, and every
evaluation calls one of them once on the whole array. That is valid
because they are elementwise: a call on a whole array gives the bytes of
calls on its x > 0 rows and on its other rows. The table family's in-house
spline evaluation must also give the bytes of scipy's `PPoly`
(`conftest.ppoly_family`), and its bucketed piece lookup those of
`np.searchsorted`. `MapFamily.value_deriv`, which an orbit step calls,
gives the bytes of the value and derivative calls; a table family's looks
its pieces up once for both. Every table callable gives the bytes of the
kernel that gathered the derivatives' coefficients from a ten-row table.
"""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import TABLES, assert_same_bytes, ppoly_family, reference_table_call
from rovella import hyperbolic as hyp
from rovella import map_core as mc
from rovella import measures, noise, orbit

PARTS = ("value", "deriv", "second")
EDGES = np.array([1e-300, -1e-300, 1.0, -1.0, 0.0, -0.0, np.nan])


def edge_and_uniform_points(size=20_000):
    rng = np.random.default_rng(5)
    tiny = np.geomspace(1e-300, 1.0, 400)
    return np.concatenate([rng.uniform(-1.0, 1.0, size), tiny, -tiny, EDGES])


@pytest.mark.parametrize("family", [2.0, 2.5, 3.0, "table_fam"])
@pytest.mark.parametrize("part", PARTS)
def test_whole_array_matches_sign_parts(family, part, request):
    """The elementwise contract: a call on a whole array gives the bytes of
    calls on its x > 0 rows and on its other rows (x <= 0 and NaN), and a
    0-d call those of a one-element array. `family` is the s of a fixture,
    or the table family's fixture name."""
    if family == "table_fam":
        fam = request.getfixturevalue(family)
    else:
        fam = mc.fixture_family(s=family, eps_max=0.1)
    fn = getattr(fam, part)
    xs = edge_and_uniform_points()
    pos = xs > 0
    t_rows = np.random.default_rng(6).uniform(-0.1, 0.1, xs.size)
    for t in (t_rows, 0.0371, 0.0):
        parts = np.empty_like(xs)
        for rows in (pos, ~pos):
            parts[rows] = fn(t if np.ndim(t) == 0 else t[rows], xs[rows])
        assert_same_bytes(fn(t, xs), parts)
    for x in EDGES:
        one = fn(0.0371, np.float64(x))
        assert np.ndim(one) == 0
        assert_same_bytes(one, fn(0.0371, np.array([x]))[0])


def counting(fam):
    """(family, calls): each value / derivative callable of `fam` wrapped in
    a counter that records (part, whether the call was 0-d)."""
    calls = []

    def wrap(part):
        fn = getattr(fam, part)

        def counted(t, x):
            calls.append((part, np.ndim(t) == np.ndim(x) == 0))
            return fn(t, x)

        return counted

    return dataclasses.replace(fam, **{part: wrap(part) for part in PARTS}), calls


PUBLIC = {"value": mc.evaluate, "deriv": mc.derivative, "second": mc.second_derivative}


@pytest.mark.parametrize("family, expect", [("fam", 1), ("table_fam", 1), ("fam_lin", 1)])
def test_array_call_count(family, expect, request):
    counted, calls = counting(request.getfixturevalue(family))
    xs = np.array([-0.7, -0.2, 0.1, 0.6])
    for part in PARTS:
        calls.clear()
        PUBLIC[part](counted, 0.01, xs)
        assert len(calls) == expect
        calls.clear()
        PUBLIC[part](counted, 0.01, np.float64(0.3))
        assert len(calls) == 1


def test_one_off_table_points_are_array_calls(table_fam):
    """An Ulam build and the critical neighborhoods evaluate their one-off
    points as arrays, so they make no 0-d table call; a critical orbit of
    T_0 steps point by point and takes its cocycle from one array call."""
    counted, calls = counting(table_fam)
    measures.ulam_row_operator(counted, 0.05, measures.UniformGrid(64))
    assert calls and not any(zero_d for _, zero_d in calls)
    calls.clear()
    mc.critical_neighborhoods(counted, 0.03, 0.01)
    assert calls and not any(zero_d for _, zero_d in calls)
    for v in (-1.0, 1.0):
        calls.clear()
        pts, logd = mc.unperturbed_orbit(counted, v, 40)
        assert pts.size == logd.size == 41
        assert sorted(calls) == [("deriv", False)] + [("value", True)] * 40


def test_fixture_shares_callables_through_pickle():
    fam = pickle.loads(pickle.dumps(mc.fixture_family(s=2.5)))
    assert fam.inverse == mc.fixture_family(s=2.5).inverse
    xs = np.array([-0.5, 0.5])
    assert_same_bytes(mc.evaluate(fam, 0.0, xs), mc.evaluate(mc.fixture_family(s=2.5), 0.0, xs))


def test_table_shares_callables_through_pickle(table_fam):
    fam = pickle.loads(pickle.dumps(table_fam))
    assert fam.value.table is fam.deriv.table is fam.second.table
    assert fam.inverse.knots is fam.value.knots
    xs = edge_and_uniform_points()
    t_rows = np.random.default_rng(7).uniform(-0.1, 0.1, xs.size)
    for part in PARTS:
        got = getattr(fam, part)(t_rows, xs)
        assert_same_bytes(got, getattr(table_fam, part)(t_rows, xs))
    ys = np.linspace(-1.0, 1.0, 101)
    for side in (1.0, -1.0):
        got = mc.invert_branch(fam, 0.03, ys, side)
        assert_same_bytes(got, mc.invert_branch(table_fam, 0.03, ys, side))


def _assert_pair_matches_parts(fam):
    """`value_deriv` gives the bytes of `value` and `deriv` on the same
    (t, x): per-row, shared and zero t, and 0-d x."""
    xs = edge_and_uniform_points()
    t_rows = np.random.default_rng(9).uniform(-0.1, 0.1, xs.size)
    for t in (t_rows, 0.0371, 0.0):
        value, deriv = fam.value_deriv(t, xs)
        assert_same_bytes(value, fam.value(t, xs))
        assert_same_bytes(deriv, fam.deriv(t, xs))
    for x in EDGES:
        value, deriv = fam.value_deriv(0.0371, np.float64(x))
        assert np.ndim(value) == np.ndim(deriv) == 0
        assert_same_bytes(value, fam.value(0.0371, np.float64(x)))
        assert_same_bytes(deriv, fam.deriv(0.0371, np.float64(x)))


@pytest.mark.parametrize("family", [2.0, 2.5, 3.0, "fam_lin"])
def test_value_deriv_matches_parts(family, request):
    if family == "fam_lin":
        _assert_pair_matches_parts(request.getfixturevalue(family))
        return
    fam = mc.fixture_family(s=family, eps_max=0.1)
    assert fam.value_deriv.__self__ is fam.deriv  # the fixture's own pair
    _assert_pair_matches_parts(fam)
    # Another derivative, of another s or of no fixture kind, is called on its own.
    for other in (mc.fixture_family(s=family + 1.0).deriv, lambda t, x: fam.deriv(t, x)):
        mixed = dataclasses.replace(fam, deriv=other)
        assert isinstance(mixed.value_deriv, mc._TwoCalls)
        _assert_pair_matches_parts(mixed)


def test_table_value_deriv_matches_parts(any_table):
    _assert_pair_matches_parts(any_table)


def test_table_step_looks_up_pieces_once(table_fam, monkeypatch):
    """One `_TableFn._pieces` call per orbit step, where the separate value
    and derivative calls made two."""
    sizes = []
    lookup = mc._TableFn._pieces

    def counted(self, x):
        sizes.append(x.size)
        return lookup(self, x)

    monkeypatch.setattr(mc._TableFn, "_pieces", counted)
    x = orbit.start_points(noise.ensemble_keys(1, 500), 0.01)
    ts = noise.ensemble_noise(1, 0.01, 500, 5)
    for k in range(5):
        sizes.clear()
        x, _, _ = orbit.step(table_fam, ts[:, k], x)
        assert sizes == [500]


def test_value_deriv_follows_the_callables(table_fam):
    """The pair is set from `value` and `deriv`, so a copy with another
    derivative steps with it: rows where it is 0 die. A pickled table family
    keeps its own one-lookup pair."""

    def flat(t, x):
        return np.where(np.abs(x) < 0.2, 0.0, table_fam.deriv(t, x))

    cut = dataclasses.replace(table_fam, deriv=flat)
    xs = np.array([-0.5, -0.1, 0.1, 0.5])
    x_next, _, prod = orbit.step(cut, 0.01, xs)
    assert orbit._depths(prod, 0.01).tolist() == [0, -1, -1, 0]
    assert np.isnan(x_next).tolist() == [False, True, True, False]
    clone = pickle.loads(pickle.dumps(table_fam))
    assert clone.value_deriv.__self__ is clone.deriv
    for a, b in zip(clone.value_deriv(0.01, xs), table_fam.value_deriv(0.01, xs)):
        assert_same_bytes(a, b)


def _probe_points(fam):
    """Uniform and geometric points, every knot and both its neighbours, the
    bucket edges and their neighbours, the end pieces, points past +-1 and
    the side edges."""
    fn = fam.value
    edges = fn.knots[0] + np.arange(-1, fn.start.size + 2) / fn.scale
    ends = np.geomspace(1e-12, 1.0, 200)
    return np.concatenate([
        edge_and_uniform_points(),
        *(np.nextafter(v, d) for v in (fn.knots, edges) for d in (-np.inf, 0.0, np.inf)),
        fn.knots, edges,
        ends * fn.ends[0], ends * fn.ends[1],
        [1.5, -1.5, 1.0 + 1e-12, -1.0 - 1e-12],
    ])


def test_piece_lookup_matches_searchsorted(any_table):
    fn = any_table.value
    xs = np.concatenate([_probe_points(any_table), [np.inf, -np.inf]])
    xs = xs[~np.isnan(xs)]  # NaN takes any piece: it evaluates to NaN on each
    expect = np.clip(np.searchsorted(fn.knots, xs, side="right") - 1, 0, fn.knots.size - 2)
    assert np.array_equal(fn._pieces(xs), expect)


def test_lookup_steps_grow_with_the_log_of_the_crowding(table_fam):
    """200 evenly spaced nodes a side put at most two knots in three buckets
    (the two innermost ones): two steps. 120 geometric nodes a side down to
    1e-8 put 164 there: eight steps, not 164."""
    assert table_fam.value.widths == (2, 1)
    assert TABLES["geometric"]().value.widths == (128, 64, 32, 16, 8, 4, 2, 1)


@pytest.mark.parametrize("part", PARTS)
def test_table_matches_ppoly(any_table, part):
    fn, ref = getattr(any_table, part), getattr(ppoly_family(any_table), part)
    xs = _probe_points(any_table)
    t_rows = np.random.default_rng(8).uniform(-0.1, 0.1, xs.size)
    for t in (t_rows, 0.0371, 0.0, -0.1):
        assert_same_bytes(fn(t, xs), ref(t, xs))
    for x in np.concatenate([xs[:: xs.size // 150], EDGES]):
        for t in (0.0371, 0.0):
            one = fn(t, np.float64(x))
            assert np.ndim(one) == 0
            assert_same_bytes(one, ref(t, np.float64(x)))
    # A 0-d x under per-row t broadcasts, as the reference does.
    assert_same_bytes(fn(t_rows[:5], 0.25), ref(t_rows[:5], 0.25))


def _assert_matches_ten_row_kernel(fam, t, xs):
    """Each part and the pair of the table family `fam` at (t, xs) give the
    bytes of `conftest.reference_table_call`, the kernel that gathered the
    derivatives' coefficients from a ten-row table."""
    with np.errstate(invalid="ignore", over="ignore"):  # +-inf x: inf - inf in both
        want = [reference_table_call(getattr(fam, part), t, xs) for part in PARTS]
        for part, ref in zip(PARTS, want):
            assert_same_bytes(getattr(fam, part)(t, xs), ref)
        for got, ref in zip(fam.value_deriv(t, xs), want):
            assert_same_bytes(got, ref)


def test_table_matches_ten_row_kernel(any_table):
    """Knots and bucket edges with their neighbours, end pieces, +-0, +-inf
    and NaN on both sides, at per-row, shared and zero t, and 0-d x."""
    xs = np.concatenate([_probe_points(any_table), [np.inf, -np.inf]])
    t_rows = np.random.default_rng(10).uniform(-0.1, 0.1, xs.size)
    for t in (t_rows, 0.0371, 0.0, -0.1):
        _assert_matches_ten_row_kernel(any_table, t, xs)
    for x in np.concatenate([xs[:: xs.size // 150], EDGES]):
        _assert_matches_ten_row_kernel(any_table, 0.0371, np.float64(x))
    _assert_matches_ten_row_kernel(any_table, t_rows[:5], 0.25)


@settings(max_examples=100, deadline=None)
@given(
    xs=hnp.arrays(np.float64, st.integers(1, 40), elements=st.floats(-1.0, 1.0)),
    t=st.floats(-0.1, 0.1),
    per_row=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_table_matches_ten_row_kernel_property(table_fam, xs, t, per_row, seed):
    if per_row:
        t = np.random.default_rng(seed).uniform(-0.1, 0.1, xs.size)
    _assert_matches_ten_row_kernel(table_fam, t, xs)


def test_table_family_runs_without_ppoly(table_fam, hyp_cfg, monkeypatch):
    """With `PPoly.__call__` refusing to run, a table family builds, steps
    ensembles, streams chunked tails, builds an Ulam operator and inverts:
    no table path calls scipy's splines."""
    from scipy.interpolate import PPoly

    def refuse(*args, **kwargs):
        raise AssertionError("PPoly evaluation on a table path")

    owner = next(c for c in PPoly.__mro__ if "__call__" in vars(c))
    monkeypatch.setattr(owner, "__call__", refuse)
    with pytest.raises(AssertionError, match="PPoly evaluation"):
        ppoly_family(table_fam).value(0.0, np.array([0.5]))
    xs = np.linspace(1e-6, 1.0, 200)
    fresh = mc.table_family(xs, 2 * xs**2 - 1, -xs[::-1], -(2 * xs[::-1] ** 2 - 1), 2.0, 3.0, 4.5)
    for fam in (table_fam, fresh):
        ens = orbit.ensemble_orbits(fam, 1, 0.01, 30, 400, 0.01)
        assert ens.alive.all()
        table = hyp.tail_statistics(fam, 1, 0.01, hyp_cfg, samples=300, n_max=30, chunk=64)
        assert table.total == 300
        op = measures.ulam_row_operator(fam, 0.05, measures.UniformGrid(256))
        assert np.abs(np.asarray(op.sum(axis=1)).ravel() - 1.0).max() <= 1e-12
        mc.critical_neighborhoods(fam, 0.0, 0.01)
