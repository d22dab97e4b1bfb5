"""Shared-callable dispatch in `map_core._unchecked`.

The fixture's branches share their value and derivative callables, which
`_unchecked` then calls once on a whole array. `conftest.split_dispatch`
gives each branch a wrapper of its own around the same callables, which
forces the per-branch split path; both must give the same bytes.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from conftest import assert_same_bytes, dying_ensemble, plant_start_points, split_dispatch
from rovella import hyperbolic as hyp
from rovella import map_core as mc
from rovella import measures, noise, orbit

PARTS = ("value", "deriv", "second")
EDGES = np.array([1e-300, -1e-300, 1.0, -1.0, 0.0, -0.0, np.nan])


def edge_and_uniform_points(size=20_000):
    rng = np.random.default_rng(5)
    tiny = np.geomspace(1e-300, 1.0, 400)
    return np.concatenate([rng.uniform(-1.0, 1.0, size), tiny, -tiny, EDGES])


@pytest.mark.parametrize("s", [2.0, 2.5, 3.0])
@pytest.mark.parametrize("part", PARTS)
def test_unchecked_shared_matches_split(s, part):
    fam = mc.fixture_family(s=s, eps_max=0.1)
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


@pytest.mark.parametrize("family, expect", [("fam", 1), ("table_fam", 2), ("fam_lin", 2)])
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
