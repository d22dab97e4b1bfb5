"""One call per evaluation of a map family.

A family's value and derivative callables take both signs of x, and every
evaluation calls one of them once on the whole array. That is valid
because they are elementwise: a call on a whole array gives the bytes of
calls on its x > 0 rows and on its other rows. The table family's in-house
spline evaluation must also give the bytes of scipy's `PPoly`
(`conftest.ppoly_family`), and its bucketed piece lookup those of
`np.searchsorted`.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from conftest import assert_same_bytes, ppoly_family
from rovella import hyperbolic as hyp
from rovella import map_core as mc
from rovella import measures, orbit

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
    a counter."""
    calls = []

    def wrap(fn):
        def counted(t, x):
            calls.append(fn)
            return fn(t, x)

        return counted

    return dataclasses.replace(fam, **{part: wrap(getattr(fam, part)) for part in PARTS}), calls


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


def test_fixture_shares_callables_through_pickle():
    fam = pickle.loads(pickle.dumps(mc.fixture_family(s=2.5)))
    assert fam.inverse_pos != fam.inverse_neg
    xs = np.array([-0.5, 0.5])
    assert_same_bytes(mc.evaluate(fam, 0.0, xs), mc.evaluate(mc.fixture_family(s=2.5), 0.0, xs))


def test_table_shares_callables_through_pickle(table_fam):
    fam = pickle.loads(pickle.dumps(table_fam))
    assert fam.value.table is fam.deriv.table is fam.second.table
    assert fam.inverse_pos is not fam.inverse_neg
    xs = edge_and_uniform_points()
    t_rows = np.random.default_rng(7).uniform(-0.1, 0.1, xs.size)
    for part in PARTS:
        got = getattr(fam, part)(t_rows, xs)
        assert_same_bytes(got, getattr(table_fam, part)(t_rows, xs))
    ys = np.linspace(-1.0, 1.0, 101)
    for side in (1.0, -1.0):
        got = mc.invert_branch(fam, 0.03, ys, side)
        assert_same_bytes(got, mc.invert_branch(table_fam, 0.03, ys, side))


def _table(neg_x, pos_x):
    """Table family on the given nodes, y = sign(x) (|x| + x^2) -+ 1, which
    rises strictly however close the nodes sit to 0."""
    neg_x, pos_x = np.asarray(neg_x, dtype=float), np.asarray(pos_x, dtype=float)
    return mc.table_family(
        pos_x, pos_x + pos_x**2 - 1.0, neg_x, neg_x - neg_x**2 + 1.0, s=2.0, k1=3.0, k2=4.5
    )


def _on_bucket_edges():
    """100 knots at -1 + 4j / 200, 0 left out: 400 buckets of width 1/200,
    so every knot is a bucket edge as `map_core._bucket_lookup` computes it."""
    knots = -1.0 + np.arange(0, 401, 4) / 200.0
    return _table(knots[knots < 0], knots[knots > 0])


TABLES = {
    # Dense geometric nodes at the singularity: many knots in one bucket.
    "geometric": lambda: _table(-np.geomspace(1e-8, 1.0, 120)[::-1], np.geomspace(1e-8, 1.0, 120)),
    "bucket_edges": _on_bucket_edges,
    # Different node counts, spacings and innermost nodes on the two sides.
    "asymmetric": lambda: _table(np.linspace(-1.0, -1e-3, 37), np.geomspace(1e-7, 1.0, 150)),
}


@pytest.fixture(params=["table_fam", *TABLES])
def any_table(request):
    if request.param == "table_fam":
        return request.getfixturevalue("table_fam")
    return TABLES[request.param]()


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


def test_table_family_runs_without_ppoly(table_fam, hyp_cfg, monkeypatch):
    """With `PPoly.__call__` refusing to run, a table family builds, steps
    ensembles, streams chunked tails, builds an Ulam operator and inverts:
    scipy only builds its coefficients."""
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
