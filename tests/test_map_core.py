import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    assert_same_bytes,
    reference_grid_checks,
    reference_pchip,
    reference_table_arrays,
)
from rovella import hyperbolic as hyp
from rovella import map_core as mc
from rovella import noise, orbit
from rovella.errors import DeltaTooLarge, DomainError, ParamError

SQRT_005 = 0.22360679774997896  # solve 2x^2 - 1 = -0.9


def fd_derivative(fam, t, x, h=1e-6):
    return (mc.evaluate(fam, t, x + h) - mc.evaluate(fam, t, x - h)) / (2 * h)


class TestEvaluate:
    def test_boundary_fixed_point(self, fam):
        assert mc.evaluate(fam, 0.0, 1.0) == 1.0

    def test_direct_values(self, fam):
        assert mc.evaluate(fam, 0.0, 0.5) == pytest.approx(-0.5, abs=1e-15)
        assert mc.evaluate(fam, 0.0, -0.5) == pytest.approx(0.5, abs=1e-15)

    def test_domain_errors(self, fam):
        with pytest.raises(DomainError):
            mc.evaluate(fam, 0.0, 0.0)
        with pytest.raises(DomainError):
            mc.evaluate(fam, 0.2, 0.5)
        with pytest.raises(DomainError):
            mc.evaluate(fam, 0.0, 1.5)

    def test_range(self, fam):
        xs = np.linspace(-1, 1, 1001)
        xs = xs[xs != 0]
        for t in (-0.1, 0.0, 0.07):
            assert np.all(np.abs(mc.evaluate(fam, t, xs)) <= 1.0)

    def test_t_lipschitz(self, fam):
        # admissibility: |T_t(x) - T_t'(x)| <= |t - t'| at every sampled point
        xs = np.linspace(-1, 1, 501)
        xs = xs[xs != 0]
        for t1, t2 in [(0.0, 0.1), (-0.05, 0.03), (0.01, 0.02)]:
            gap = np.abs(mc.evaluate(fam, t1, xs) - mc.evaluate(fam, t2, xs))
            assert gap.max() <= abs(t1 - t2) + 1e-15


NAN = float("nan")
HOOD = mc.CriticalNeighborhoods(neg_lo=-0.1, pos_hi=0.1)


@pytest.mark.parametrize("call, error, match", [
    (lambda fam: mc.evaluate(fam, 0.0, NAN), DomainError, "outside"),
    (lambda fam: mc.evaluate(fam, NAN, 0.3), DomainError, "eps_max"),
    (lambda fam: orbit.iterate(fam, noise.stream(1, 0.01), NAN, 10, 0.01), DomainError, "x0"),
    (lambda fam: mc.critical_neighborhoods(fam, 0.0, NAN), ValueError, "delta"),
    (lambda fam: hyp.HyperbolicConfig(NAN, 0.1, 0.3, 0.4, 1.0, HOOD), ParamError, "delta"),
    (lambda fam: hyp.HyperbolicConfig(0.01, NAN, 0.3, 0.4, 1.0, HOOD), ParamError, "delta"),
    (lambda fam: noise.stream(1, NAN), ValueError, "eps"),
    (lambda fam: mc.fixture_family(s=NAN), ValueError, "order s"),
    (lambda fam: mc.fixture_family(eps_max=NAN), ValueError, "eps_max"),
], ids=["evaluate-x", "evaluate-t", "iterate-x0", "neighborhoods-delta", "config-delta",
        "config-delta0", "stream-eps", "family-s", "family-eps-max"])
def test_nan_fails_input_checks(fam, call, error, match):
    """NaN compares false with everything, so each library check is written
    as `not (valid condition)` and NaN fails it with that check's error."""
    with pytest.raises(error, match=match):
        call(fam)


class TestDerivative:
    def test_closed_form_points(self, fam):
        assert mc.derivative(fam, 0.0, 0.5) == pytest.approx(2.0, abs=1e-15)
        assert mc.derivative(fam, 0.0, 1.0) == pytest.approx(4.0, abs=1e-15)

    def test_singular_ratio_constant(self, fam):
        # DT / |x|^(s-1) is identically 2s for the power fixture
        for x in (1e-6, 1e-3, -0.2, 0.9):
            ratio = mc.derivative(fam, 0.0, x) / abs(x)
            assert ratio == pytest.approx(4.0, rel=1e-12)

    @given(
        x=st.floats(min_value=0.01, max_value=0.999) | st.floats(min_value=-0.999, max_value=-0.01),
        t=st.floats(min_value=-0.1, max_value=0.1),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_finite_differences(self, fam, x, t):
        d = mc.derivative(fam, t, x)
        assert d > 0
        assert d == pytest.approx(fd_derivative(fam, t, x), rel=1e-6)

    def test_second_derivative_sign(self, fam):
        assert mc.second_derivative(fam, 0.0, 0.5) > 0
        assert mc.second_derivative(fam, 0.0, -0.5) < 0


class TestSchwarzian:
    def test_closed_form(self, fam, fam3):
        # -(s-1)(s+1) / (2 x^2)
        assert mc.schwarzian(fam, 0.0, 0.5) == pytest.approx(-6.0, rel=1e-9)
        assert mc.schwarzian(fam, 0.0, -0.5) == pytest.approx(-6.0, rel=1e-9)
        assert mc.schwarzian(fam3, 0.0, 1.0) == pytest.approx(-4.0, rel=1e-7)

    def test_negative_everywhere(self, fam):
        xs = np.geomspace(1e-4, 1.0, 200)
        for t in (0.0, 0.05):
            assert np.all(mc.schwarzian(fam, t, xs) < 0)
            assert np.all(mc.schwarzian(fam, t, -xs) < 0)

    def test_finite_difference_composition(self, fam):
        # independent oracle: S = D(u) - u^2/2 with u = D2T/DT, all via FD of
        # the map itself
        rng = np.random.default_rng(7)
        xs = np.concatenate([rng.uniform(0.05, 0.95, 50), -rng.uniform(0.05, 0.95, 50)])
        h = 1e-5
        for x in xs:
            u = lambda y: mc.second_derivative(fam, 0.0, y) / mc.derivative(fam, 0.0, y)
            du = (u(x + h) - u(x - h)) / (2 * h)
            oracle = du - 0.5 * u(x) ** 2
            assert mc.schwarzian(fam, 0.0, x) == pytest.approx(oracle, rel=1e-4)


class TestCriticalNeighborhoods:
    def test_fixture_roots(self, fam):
        cn = mc.critical_neighborhoods(fam, 0.0, 0.1)
        assert cn.pos_hi == pytest.approx(SQRT_005, abs=1e-10)
        assert cn.neg_lo == pytest.approx(-SQRT_005, abs=1e-10)
        assert cn.width == pytest.approx(2 * SQRT_005, abs=1e-9)

    def test_endpoint_residual(self, fam):
        for delta in (0.01, 0.1, 0.3):
            cn = mc.critical_neighborhoods(fam, 0.02, delta)
            assert abs(mc.evaluate(fam, 0.02, cn.pos_hi) - (-1 + delta)) <= 1e-10
            assert abs(mc.evaluate(fam, 0.02, cn.neg_lo) - (1 - delta)) <= 1e-10

    def test_width_vanishes_with_delta(self, fam):
        widths = [mc.critical_neighborhoods(fam, 0.0, d).width for d in (0.1, 0.01, 0.001)]
        assert widths[0] > widths[1] > widths[2]
        assert widths[2] < 0.05

    def test_delta_too_large(self, fam):
        with pytest.raises(DeltaTooLarge):
            mc.critical_neighborhoods(fam, 0.1, 1.95)

    def test_contains(self, fam):
        cn = mc.critical_neighborhoods(fam, 0.0, 0.1)
        assert cn.contains(0.1) and cn.contains(-0.1)
        assert not cn.contains(0.3) and not cn.contains(0.0)

    def test_membership_edges(self, fam, hyp_cfg):
        """`CriticalNeighborhoods.contains`, of a neighborhood and of the
        hyperbolic base, on the signed zeros, the least subnormals, NaN,
        +-inf and each bound with one ulp outward; arrays and scalars."""
        cn = mc.critical_neighborhoods(fam, 0.0, 0.1)
        for hood in (cn, hyp_cfg.base):
            test, lo, hi = hood.contains, hood.neg_lo, hood.pos_hi
            x = np.array([
                0.0, -0.0, 5e-324, -5e-324, np.nan, np.inf, -np.inf,
                lo, hi, np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf),
            ])
            want = [False, False, True, True, False, False, False, True, True, False, False]
            assert test(x).tolist() == want
            assert [test(v) for v in x.tolist()] == want
            assert all(type(test(v)) is bool for v in x.tolist())


@pytest.fixture(scope="module")
def report(fam):
    return mc.verify_conditions(fam)


@pytest.fixture(scope="module")
def tab():
    xs = np.linspace(1e-6, 1.0, 200)
    return mc.table_family(
        pos_x=xs,
        pos_y=2 * xs**2 - 1,
        neg_x=-xs[::-1],
        neg_y=-(2 * xs[::-1] ** 2 - 1),
        s=2.0,
        k1=3.0,
        k2=4.5,
        eps_max=0.1,
    )


class TestVerifyConditions:
    def test_core_conditions(self, report):
        assert report.c1_ok
        assert report.c2_monotone_ok
        assert report.envelope_ok
        assert report.c3_ok and report.c3_max < 0
        assert report.range_ok

    def test_r1_exact_rate(self, report):
        # +-1 are fixed with DT = 2s, so the fitted rate is exactly 4
        assert report.r1_ok
        assert report.lambda_fit == pytest.approx(4.0, rel=1e-12)

    def test_r2_boundary_fixed_points(self, report):
        assert report.r2_ok
        assert report.alpha_fit == pytest.approx(0.0, abs=1e-12)

    def test_r3_reported_failure(self, report):
        # fixed critical orbits are not dense; the report must say so
        assert not report.r3_ok
        assert report.r3_max_gap > 1.0
        assert report.required_ok  # R3 excluded from the required set

    def test_envelope_constants_bracket_samples(self, fam, report):
        assert fam.k1 <= report.k1_fit + 1e-9
        assert report.k2_fit <= fam.k2 + 1e-9

    def test_admissibility_constant(self, report):
        assert 0 < report.admissibility_c < 10
        assert report.t_lipschitz_ok

    def test_summability_reported(self, report):
        # partial sums only; no pass/fail claim
        assert report.summability_partial > 0
        assert report.summability_terms > 0

    @pytest.mark.parametrize("name", ["fam", "fam3", "table_fam", "wobble", "steep"])
    def test_grid_checks_match_two_loops(self, request, fam, name):
        """The one (t, x) grid loop, comparing each slice with the one
        before it, gives the report of the two-loop form byte for byte, at
        the default grid (t step 0.005). `wobble` adds 0.004 sin(1000 t)
        for t > 0 to the fixture: secants between neighbouring slices reach
        1.6, so its t-Lipschitz check fails, though no slice is more than
        0.004 from the first one. `steep` scales the fixture's DT by
        1 + x^2 / 10, so its envelope ratio peaks at the grid's ends x = +-1."""
        if name == "wobble":
            def value(t, x):
                return fam.value(t, x) + (0.004 * math.sin(1000.0 * t) if t > 0 else 0.0)

            family = dataclasses.replace(fam, value=value)
        elif name == "steep":
            def deriv(t, x):
                return fam.deriv(t, x) * (1.0 + 0.1 * x * x)

            family = dataclasses.replace(fam, deriv=deriv)
        else:
            family = request.getfixturevalue(name)
        report = mc.verify_conditions(family)
        want = dataclasses.replace(report, **reference_grid_checks(family))
        assert repr(report) == repr(want)
        assert report.t_lipschitz_ok == (name != "wobble")


class TestTableFamily:
    def test_matches_fixture_at_nodes(self, tab, fam):
        for x in (0.3, -0.7, 0.95):
            assert mc.evaluate(tab, 0.0, x) == pytest.approx(mc.evaluate(fam, 0.0, x), abs=1e-6)

    def test_shear_preserves_limits(self, tab):
        # T_t(+-1) stays at +-1 under the shear action
        assert mc.evaluate(tab, 0.05, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert mc.evaluate(tab, 0.05, -1.0) == pytest.approx(-1.0, abs=1e-12)

    def test_monotone_under_perturbation(self, tab):
        xs = np.linspace(0.01, 1.0, 500)
        for t in (-0.1, 0.1):
            assert np.all(np.diff(mc.evaluate(tab, t, xs)) > 0)

    def test_end_piece_monotone_and_continuous(self, tab):
        # Below the first node 1e-6 the branches follow the power law
        # sign (a |x|^s - 1), matched to the node value.
        xs = np.geomspace(1e-300, 1e-6, 400)
        for t in np.linspace(-tab.eps_max, tab.eps_max, 5):
            for side in (1.0, -1.0):
                assert np.all(mc.derivative(tab, t, side * xs) > 0)
                node = side * 1e-6
                below = np.nextafter(node, 0.0)
                jump = mc.evaluate(tab, t, node) - mc.evaluate(tab, t, below)
                assert abs(jump) <= 4 * 2.0**-52

    def test_critical_orbit_on_the_singularity_fails_r1_and_r2(self):
        """T_0(-1) = 0 on this table, so the orbit of the critical value -1
        lands on the singularity at its first step: DT is 0 there and the
        R2 term -log 0 is inf."""
        fam = mc.table_family(
            pos_x=[1e-3, 0.5, 1.0], pos_y=[-0.99, -0.5, 1.0],
            neg_x=[-1.0, -0.5, -1e-3], neg_y=[0.0, 0.5, 0.99],
            s=2.0, k1=0.1, k2=10.0,
        )
        pts, logd = mc.unperturbed_orbit(fam, -1.0, 30)
        assert pts.tolist() == [-1.0, 0.0] and logd.size == 2
        report = mc.verify_conditions(fam)
        assert not report.r1_ok and report.lambda_fit == 0.0
        assert not report.r2_ok and report.alpha_fit == math.inf
        assert not report.required_ok

    def test_verify_conditions_monotone(self, tab):
        report = mc.verify_conditions(tab)
        assert report.c2_monotone_ok and report.k1_fit > 0

    def test_t_lipschitz(self, tab):
        xs = np.linspace(-0.99, 0.99, 301)
        xs = xs[xs != 0]
        gap = np.abs(mc.evaluate(tab, 0.08, xs) - mc.evaluate(tab, -0.02, xs))
        assert gap.max() <= 0.1 + 1e-12


# Node sets of one branch: two nodes, three nodes (one non-monotone), and
# a kink where Moler's one-sided end slope at the first node comes out
# negative, so the shape-preserving rule sets it to 0.
BRANCHES = {
    "two": ([0.0, 1.0], [-1.0, 0.5]),
    "three": ([-1.0, -0.5, -1e-3], [0.0, 0.5, 0.99]),
    "three_turning": ([0.0, 0.25, 1.0], [0.0, 2.0, 1.0]),
    "kink": ([0.1, 0.2, 0.3, 1.0], [-0.9, -0.89, 0.5, 1.0]),
}


def _table_nodes(as_json=False):
    """The 200 nodes a side of `conftest.table_fam`, and, as_json, as the
    benchmark's table workload passes them from its JSON config."""
    xs = np.linspace(1e-6, 1.0, 200)
    nodes = dict(pos_x=xs, pos_y=2 * xs**2 - 1, neg_x=-xs[::-1], neg_y=-(2 * xs[::-1] ** 2 - 1))
    if as_json:
        nodes = {k: json.loads(json.dumps(v.tolist())) for k, v in nodes.items()}
    return nodes


def _kink_table():
    xs, ys = (np.array(v) for v in BRANCHES["kink"])
    return dict(pos_x=xs, pos_y=ys, neg_x=-xs[::-1], neg_y=-ys[::-1])


@st.composite
def node_sets(draw):
    """Strictly increasing x; y rising strictly, or moving either way
    (flat steps included) so that every slope rule runs."""
    n = draw(st.integers(2, 30))
    gaps = draw(st.lists(st.floats(1e-6, 10.0), min_size=n - 1, max_size=n - 1))
    if draw(st.booleans()):
        rises = draw(st.lists(st.floats(1e-9, 1e3), min_size=n - 1, max_size=n - 1))
    else:
        rises = draw(st.lists(st.floats(-1e3, 1e3), min_size=n - 1, max_size=n - 1))
    x0, y0 = draw(st.floats(-10.0, 10.0)), draw(st.floats(-10.0, 10.0))
    return x0 + np.cumsum([0.0, *gaps]), y0 + np.cumsum([0.0, *rises])


class TestPchipCoefficients:
    """`map_core._pchip_coefficients` and the derivative rows it implies
    have the bytes of scipy's `PchipInterpolator`, and so do the arrays
    `table_family` builds from them."""

    @staticmethod
    def assert_scipy_bytes(xs, ys):
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        c = mc._pchip_coefficients(xs, ys)
        ours = (c, c[:3] * mc._D1, c[:2] * mc._D2)
        for got, want in zip(ours, reference_pchip(xs, ys)):
            assert_same_bytes(got, want)
        return c

    @pytest.mark.parametrize("name", BRANCHES)
    def test_small_branches(self, name):
        self.assert_scipy_bytes(*BRANCHES[name])

    def test_kink_end_slope_is_zero(self):
        xs, ys = BRANCHES["kink"]
        c = self.assert_scipy_bytes(xs, ys)
        m0, m1 = (ys[1] - ys[0]) / 0.1, (ys[2] - ys[1]) / 0.1
        assert (3 * m0 - m1) / 2 < 0  # the one-sided three-point slope
        assert c[2, 0] == 0.0

    @pytest.mark.parametrize("as_json", [False, True], ids=["table_fam", "workload"])
    def test_table_branches(self, as_json):
        nodes = _table_nodes(as_json)
        self.assert_scipy_bytes(nodes["pos_x"], nodes["pos_y"])
        self.assert_scipy_bytes(nodes["neg_x"], nodes["neg_y"])

    @settings(max_examples=300, deadline=None)
    @given(node_sets())
    @example((np.arange(22.0), np.append(np.zeros(21), 2.225e-311)))  # a subnormal secant
    def test_random_node_sets(self, nodes):
        self.assert_scipy_bytes(*nodes)

    @pytest.mark.parametrize(
        "nodes", [_table_nodes(), _table_nodes(as_json=True), _kink_table()],
        ids=["table_fam", "workload", "kink"],
    )
    def test_table_family_arrays(self, nodes):
        fam = mc.table_family(**nodes, s=2.0, k1=0.1, k2=10.0)
        knots, table, c, node_values = reference_table_arrays(**nodes)
        for got, want in ((fam.value.knots, knots), (fam.inverse.knots, knots),
                          (fam.value.table, table), (fam.inverse.c, c),
                          (fam.inverse.nodes, node_values)):
            assert_same_bytes(got, want)
