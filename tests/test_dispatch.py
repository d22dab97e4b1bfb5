"""Shared-callable dispatch in `map_core._unchecked`.

The fixture's and the table family's branches share their value and
derivative callables, which `_unchecked` then calls once on a whole array.
`conftest.split_dispatch` gives each branch a wrapper of its own around the
same callables, which forces the per-branch split path; both must give the
same bytes. The table family's in-house spline evaluation must also give
the bytes of scipy's `PPoly` (`conftest.ppoly_family`), and its bucketed
piece lookup those of `np.searchsorted`.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from conftest import (
    assert_same_bytes,
    dying_ensemble,
    plant_start_points,
    ppoly_family,
    split_dispatch,
)
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
def test_unchecked_shared_matches_split(family, part, request):
    """`family` is the s of a fixture, or the table family's fixture name."""
    if family == "table_fam":
        fam = request.getfixturevalue(family)
    else:
        fam = mc.fixture_family(s=family, eps_max=0.1)
    split = split_dispatch(fam)
    xs = edge_and_uniform_points()
    t_rows = np.random.default_rng(6).uniform(-0.1, 0.1, xs.size)
    for t in (t_rows, 0.0371, 0.0):
        assert_same_bytes(mc._unchecked(fam, part, t, xs), mc._unchecked(split, part, t, xs))
    for x in EDGES:
        one = mc._unchecked(fam, part, 0.0371, np.float64(x))
        assert one.ndim == 0
        assert_same_bytes(one, mc._unchecked(split, part, 0.0371, np.float64(x)))
        assert_same_bytes(one, mc._unchecked(fam, part, 0.0371, np.array([x]))[0])


def test_ensemble_orbits_shared_matches_split(fam):
    samples, x0 = dying_ensemble(fam, 1, 0.01, 30)
    runs = [
        orbit.ensemble_orbits(family, 1, 0.01, 30, samples, 0.05, x0=x0)
        for family in (fam, split_dispatch(fam))
    ]
    assert runs[0].singular_hits == 1
    for key in ("points", "log_der", "depths"):
        assert_same_bytes(getattr(runs[0], key), getattr(runs[1], key))


def test_tail_statistics_shared_matches_split(fam, hyp_cfg, monkeypatch):
    samples, x0 = dying_ensemble(fam, 1, 0.01, 30)
    plant_start_points(monkeypatch, 1, x0)
    tables = [
        hyp.tail_statistics(family, 1, 0.01, hyp_cfg, samples=samples, n_max=30, chunk=7)
        for family in (fam, split_dispatch(fam))
    ]
    assert tables[0].singular_hits == 1
    for key in ("n", "h_survivors", "hstar_survivors", "bad_members"):
        assert_same_bytes(getattr(tables[0], key), getattr(tables[1], key))
    assert (tables[0].total, tables[0].singular_hits) == (tables[1].total, tables[1].singular_hits)


def test_monte_carlo_correlation_shared_matches_split(fam):
    stream = noise.stream(1, 0.01)
    series = [
        measures.quenched_correlation(
            family, stream, lambda x: x, np.sign, 12, method="monte_carlo",
            m_past=10, mc_samples=4000,
        )
        for family in (fam, split_dispatch(fam))
    ]
    assert_same_bytes(series[0].values, series[1].values)


def counting(fam):
    """(family, calls): each distinct value / derivative callable of `fam`
    wrapped once in a counter, so callables shared before stay shared."""
    calls = []
    wrapped = {}

    def wrap(fn):
        if id(fn) not in wrapped:
            def counted(t, x):
                calls.append(fn)
                return fn(t, x)

            wrapped[id(fn)] = counted
        return wrapped[id(fn)]

    def branch(b):
        return dataclasses.replace(b, **{part: wrap(getattr(b, part)) for part in PARTS})

    counted = dataclasses.replace(
        fam, branch_pos=branch(fam.branch_pos), branch_neg=branch(fam.branch_neg)
    )
    return counted, calls


@pytest.mark.parametrize("family, expect", [("fam", 1), ("table_fam", 1), ("fam_lin", 2)])
def test_array_call_count(family, expect, request):
    counted, calls = counting(request.getfixturevalue(family))
    xs = np.array([-0.7, -0.2, 0.1, 0.6])
    for part in PARTS:
        calls.clear()
        mc._unchecked(counted, part, 0.01, xs)
        assert len(calls) == expect
        calls.clear()
        mc._unchecked(counted, part, 0.01, np.float64(0.3))
        assert len(calls) == 1


def test_fixture_shares_callables_through_pickle():
    fam = pickle.loads(pickle.dumps(mc.fixture_family(s=2.5)))
    for part in PARTS:
        assert getattr(fam.branch_pos, part) is getattr(fam.branch_neg, part)
    assert fam.branch_pos.inverse != fam.branch_neg.inverse
    xs = np.array([-0.5, 0.5])
    assert_same_bytes(mc.evaluate(fam, 0.0, xs), mc.evaluate(mc.fixture_family(s=2.5), 0.0, xs))


def test_table_shares_callables_through_pickle(table_fam):
    fam = pickle.loads(pickle.dumps(table_fam))
    for part in PARTS:
        assert getattr(fam.branch_pos, part) is getattr(fam.branch_neg, part)
    assert fam.branch_pos.value.table is fam.branch_pos.second.table
    assert fam.branch_pos.inverse is not fam.branch_neg.inverse
    xs = edge_and_uniform_points()
    t_rows = np.random.default_rng(7).uniform(-0.1, 0.1, xs.size)
    for part in PARTS:
        got = mc._unchecked(fam, part, t_rows, xs)
        assert_same_bytes(got, mc._unchecked(table_fam, part, t_rows, xs))
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
    the dispatch edges."""
    fn = fam.branch_pos.value
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
    fn = any_table.branch_pos.value
    xs = np.concatenate([_probe_points(any_table), [np.inf, -np.inf]])
    xs = xs[~np.isnan(xs)]  # NaN takes any piece: it evaluates to NaN on each
    expect = np.clip(np.searchsorted(fn.knots, xs, side="right") - 1, 0, fn.knots.size - 2)
    assert np.array_equal(fn._pieces(xs), expect)


def test_lookup_steps_grow_with_the_log_of_the_crowding(table_fam):
    """200 evenly spaced nodes a side put at most two knots in three buckets
    (the two innermost ones): two steps. 120 geometric nodes a side down to
    1e-8 put 164 there: eight steps, not 164."""
    assert table_fam.branch_pos.value.widths == (2, 1)
    assert TABLES["geometric"]().branch_pos.value.widths == (128, 64, 32, 16, 8, 4, 2, 1)


@pytest.mark.parametrize("part", PARTS)
def test_table_matches_ppoly(any_table, part):
    ref = ppoly_family(any_table)
    xs = _probe_points(any_table)
    t_rows = np.random.default_rng(8).uniform(-0.1, 0.1, xs.size)
    for t in (t_rows, 0.0371, 0.0, -0.1):
        assert_same_bytes(mc._unchecked(any_table, part, t, xs), mc._unchecked(ref, part, t, xs))
    for x in np.concatenate([xs[:: xs.size // 150], EDGES]):
        for t in (0.0371, 0.0):
            one = mc._unchecked(any_table, part, t, np.float64(x))
            assert one.ndim == 0
            assert_same_bytes(one, mc._unchecked(ref, part, t, np.float64(x)))
    # A 0-d x under per-row t broadcasts, as the reference does.
    assert_same_bytes(
        getattr(any_table.branch_pos, part)(t_rows[:5], 0.25),
        getattr(ref.branch_pos, part)(t_rows[:5], 0.25),
    )


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
        ppoly_family(table_fam).branch_pos.value(0.0, np.array([0.5]))
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
