import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import (
    assert_same_bytes,
    brute_force_hyperbolic_flags,
    dying_ensemble,
    plant_start_points,
    reference_escape_rates,
    reference_tail_table,
)
from rovella import hyperbolic as hyp
from rovella import map_core as mc
from rovella import noise, orbit
from rovella.errors import BranchStraddle, NotHyperbolic, ParamError


class TestPliss:
    def test_constant_positive(self):
        assert hyp.pliss_times([1, 1, 1, 1], 0.0, 0.5, 1.0) == [1, 2, 3, 4]

    def test_hypothesis_unmet_allows_empty(self):
        # sum(a) <= c2 n: the lemma promises nothing, and no window clears c1
        out = hyp.pliss_times([-1.0, -1.0, -1.0], -0.5, -0.2, 0.0)
        assert out == []

    def test_param_error(self):
        with pytest.raises(ParamError):
            hyp.pliss_times([0.1], 0.5, 0.4, 1.0)  # c2 < c1
        with pytest.raises(ParamError):
            hyp.pliss_times([0.1], 0.1, 0.5, 0.4)  # A < c2

    @given(
        data=st.lists(st.floats(min_value=-3, max_value=1), min_size=1, max_size=100),
        c1=st.floats(min_value=-2, max_value=0.2),
    )
    @settings(max_examples=150, deadline=None)
    def test_count_bound(self, data, c1):
        a = np.array(data)
        big_a = 1.0
        c2 = c1 + 0.3
        if not (big_a >= c2 > c1):
            return
        if a.sum() <= c2 * a.size:
            return
        times = hyp.pliss_times(a, c1, c2, big_a)
        theta = (c2 - c1) / (big_a - c1)
        assert len(times) >= theta * a.size

    def test_definition_direct(self):
        a = [0.5, -1.0, 2.0, 0.1, -0.2, 1.5]
        times = hyp.pliss_times(a, 0.0, 0.3, 2.0)
        prefix = np.concatenate([[0.0], np.cumsum(a)])
        for n in range(1, len(a) + 1):
            qualifies = all(prefix[n] - prefix[k] > 0 for k in range(n))
            assert (n in times) == qualifies


class TestHyperbolicTimes:
    def test_depth_spike_delays_first_time(self, fam, noisy_stream, hyp_cfg):
        flags = hyp._hyperbolic_flags(np.array([5, 0, 0, 0, 0, 0]), 1.0)
        assert list(np.flatnonzero(flags) + 1) == [6]

    def test_interior_spike(self):
        flags = hyp._hyperbolic_flags(np.array([0, 3, 0, 0, 0]), 1.0)
        assert list(np.flatnonzero(flags) + 1) == [1, 5]

    def test_all_zero_depths(self):
        flags = hyp._hyperbolic_flags(np.zeros(10, dtype=int), 0.25)
        assert np.all(flags)

    @given(
        depths=st.lists(st.integers(0, 8), min_size=1, max_size=120),
        c_prime=st.floats(min_value=0.05, max_value=3.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, depths, c_prime):
        depths = np.array(depths)
        fast = hyp._hyperbolic_flags(depths, c_prime)
        brute = brute_force_hyperbolic_flags(depths, c_prime)
        assert np.array_equal(fast, brute)

    @given(
        depths=hnp.arrays(
            np.int64, st.tuples(st.integers(1, 4), st.integers(1, 60)), elements=st.integers(-1, 8)
        ),
        cuts=st.lists(st.integers(0, 60), max_size=6),
        c_prime=st.floats(min_value=0.05, max_value=3.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_carried_state_matches_one_call(self, depths, cuts, c_prime):
        rows, n = depths.shape
        whole = hyp._hyperbolic_flags(depths, c_prime)
        state = np.zeros(rows), np.zeros(rows)
        edges = sorted({0, n, *(c for c in cuts if c < n)})
        blocks = [
            hyp._hyperbolic_flags(depths[:, a:b], c_prime, state)
            for a, b in zip(edges, edges[1:])
        ]
        assert np.array_equal(np.concatenate(blocks, axis=1), whole)
        prefix = np.cumsum(c_prime - depths, axis=1)
        assert state[0].tobytes() == prefix[:, -1].tobytes()
        assert np.array_equal(state[1], np.maximum(prefix.max(axis=1), 0.0))

    def test_report_fields(self, fam, noisy_stream, hyp_cfg):
        trace = orbit.iterate(fam, noisy_stream, 0.77, 120, hyp_cfg.delta)
        report = hyp.hyperbolic_times(trace, hyp_cfg)
        assert report.horizon == 120
        assert set(report.return_times) <= set(report.times)
        if report.times:
            assert report.first == report.times[0]
        assert hyp.verify_hyperbolic_report(trace.depths[:120], hyp_cfg, report)
        for t in report.return_times:
            assert hyp_cfg.in_base(trace.points[t])

    def test_concatenation_property(self, hyp_cfg):
        # n1 hyperbolic for the sequence and n2 - n1 for the shifted tail
        # imply n2 hyperbolic
        rng = np.random.default_rng(5)
        for _ in range(300):
            depths = rng.integers(0, 4, size=60)
            flags = hyp._hyperbolic_flags(depths, hyp_cfg.c_prime)
            times = set(np.flatnonzero(flags) + 1)
            for n1 in list(times)[:10]:
                tail_flags = hyp._hyperbolic_flags(depths[n1:], hyp_cfg.c_prime)
                for gap in np.flatnonzero(tail_flags) + 1:
                    assert (n1 + gap) in times

    def test_suffix_property(self, hyp_cfg):
        rng = np.random.default_rng(6)
        for _ in range(300):
            depths = rng.integers(0, 4, size=50)
            flags = hyp._hyperbolic_flags(depths, hyp_cfg.c_prime)
            for n in np.flatnonzero(flags) + 1:
                for m in range(1, n):
                    shifted = hyp._hyperbolic_flags(depths[m:], hyp_cfg.c_prime)
                    assert shifted[n - m - 1]
                break  # the largest time is enough per sequence

    def test_no_time_implies_bad_set(self):
        # contrapositive of: outside the bad set there is a hyperbolic time
        rng = np.random.default_rng(8)
        c, c_prime = 0.5, 0.9
        for _ in range(500):
            n = int(rng.integers(1, 40))
            depths = rng.integers(0, 5, size=n)
            flags = hyp._hyperbolic_flags(depths, c_prime)
            if not flags.any():
                assert depths.sum() >= c * n

    def test_density_remark(self):
        # not in the bad set at n => at least (1 - c/c') n hyperbolic times
        rng = np.random.default_rng(9)
        c, c_prime = 0.4, 0.8
        for _ in range(500):
            n = int(rng.integers(5, 120))
            depths = rng.integers(0, 3, size=n)
            if depths.sum() >= c * n:
                continue
            count = int(hyp._hyperbolic_flags(depths, c_prime).sum())
            assert count >= (1 - c / c_prime) * n


class TestBadSet:
    def test_zero_depths_never_bad(self, fam, quiet_stream, hyp_cfg):
        trace = orbit.iterate(fam, quiet_stream, 1.0, 50, hyp_cfg.delta)
        assert np.all(trace.depths == 0)
        for n in (1, 10, 50):
            assert not hyp.bad_set_membership(trace, hyp_cfg, n)
        # all depths zero: every time is hyperbolic, the first is 1, and the
        # boundary fixed point never visits the base
        report = hyp.hyperbolic_times(trace, hyp_cfg)
        assert report.first == 1
        assert report.times == list(range(1, 51))
        assert report.return_times == []
        assert report.first_return is None

    def test_deep_orbit_is_bad(self, fam, noisy_stream, hyp_cfg):
        trace = orbit.iterate(fam, noisy_stream, 1e-5, 1, hyp_cfg.delta)
        assert hyp.bad_set_membership(trace, hyp_cfg, 1)


class TestConfig:
    def test_ordering_enforced(self, fam):
        with pytest.raises(ParamError):
            hyp.HyperbolicConfig(
                delta=0.01, delta0=0.1, c=0.5, c_prime=0.4, kappa=1.0,
                lambda_prime=0.5, base_neg=-0.1, base_pos=0.1,
            )

    def test_factory_defaults(self, fam, kappa_fixture):
        cfg = hyp.config_for_family(fam, 0.01, 0.01, 0.1, master_seed=1, kappa=kappa_fixture)
        assert cfg.c == pytest.approx(kappa_fixture / 4)
        assert cfg.c_prime == pytest.approx(kappa_fixture / 2)
        assert cfg.lambda_prime == pytest.approx(kappa_fixture / 2)
        assert cfg.delta0_margins is not None
        hood = mc.critical_neighborhoods(fam, 0.0, 0.05)
        assert cfg.base_pos == pytest.approx(hood.pos_hi, rel=1e-12)

    def test_kappa_fit_positive(self, kappa_fixture):
        assert 0.3 < kappa_fixture < 1.5


class TestExpansionFit:
    """`fit_expansion_rate` retires each orbit at its first entry or death;
    the whole-matrix rule of `conftest.reference_escape_rates` is the oracle."""

    @pytest.mark.parametrize("name", ["fam", "fam3", "table_fam"])
    @pytest.mark.parametrize("seed", [1, 2, 4])
    def test_matches_whole_matrix_reference(self, name, seed, request):
        family = request.getfixturevalue(name)
        rates = reference_escape_rates(family, seed, 0.01, 0.01, samples=200, n_cap=50)
        assert rates.size >= 50
        for percentile in (1.0, 50.0):
            expect = np.percentile(rates, percentile)
            kw = dict(samples=200, n_cap=50, percentile=percentile)
            if expect > 0:
                assert hyp.fit_expansion_rate(family, seed, 0.01, 0.01, **kw) == expect
            else:  # the s = 3 fixture's low tail at seeds 1 and 2
                with pytest.raises(ParamError, match=f"exponent {float(expect)!r} is not"):
                    hyp.fit_expansion_rate(family, seed, 0.01, 0.01, **kw)

    def test_death_after_first_entry_keeps_event(self, fam_lin, monkeypatch):
        # Doubling map: row 0 enters (0, 0.01] at step 5 (x = 2^-7), then
        # runs -1 + 2^-6, ..., -0.5 and dies at step 12, before n_cap.
        x0, _ = orbit.ensemble_start(1, 0.01, 20, 20)
        x0[0] = 0.968994140625
        rates = reference_escape_rates(fam_lin, 1, 0.01, 0.01, samples=20, n_cap=20, x0=x0)
        monkeypatch.setattr(hyp, "start_points", lambda keys, eps: x0.copy())
        with pytest.raises(ParamError, match=f"only {rates.size} escape events"):
            hyp.fit_expansion_rate(fam_lin, 1, 0.01, 0.01, samples=20, n_cap=20)
        rest = reference_escape_rates(fam_lin, 1, 0.01, 0.01, samples=19, n_cap=20, x0=x0[1:])
        assert rates.size == rest.size + 1

    def test_death_before_first_entry_gives_no_event(self, fam, monkeypatch):
        samples, x0 = dying_ensemble(fam, 1, 0.01, 40)
        rates = reference_escape_rates(fam, 1, 0.01, 0.01, samples=samples, n_cap=40, x0=x0)
        monkeypatch.setattr(hyp, "start_points", lambda keys, eps: x0.copy())
        with pytest.raises(ParamError, match=f"only {rates.size} escape events"):
            hyp.fit_expansion_rate(fam, 1, 0.01, 0.01, samples=samples, n_cap=40)
        monkeypatch.undo()
        with pytest.raises(ParamError, match=f"only {rates.size} escape events"):
            hyp.fit_expansion_rate(fam, 1, 0.01, 0.01, samples=samples - 1, n_cap=40)

    def test_steps_each_row_only_to_entry_or_death(self, fam, monkeypatch):
        """Work-count guard: the rows handed to `step` total the steps each
        orbit takes to its first entry, its death or n_cap."""
        n_cap, delta = 400, 0.01
        ens = orbit.ensemble_orbits(fam, 1, 0.01, n_cap, 4000, delta)
        outer = mc.critical_neighborhoods(fam, 0.0, 2.0 * delta)
        ended = outer.contains(ens.points) | np.isnan(ens.points)
        ended[:, 0] = False
        ended[:, n_cap] = True
        expect = int(np.argmax(ended, axis=1).sum())
        rows = []
        real_step = hyp.step

        def counting_step(family, t, x, dlt):
            rows.append(x.size)
            return real_step(family, t, x, dlt)

        monkeypatch.setattr(hyp, "step", counting_step)
        hyp.fit_expansion_rate(fam, 1, 0.01, delta, samples=4000, n_cap=n_cap)
        assert sum(rows) == expect
        assert expect < 4000 * n_cap // 20


class TestBindingPeriods:
    def test_zero_steps_vacuous(self, fam, noisy_stream):
        rep = hyp.binding_period_check(fam, noisy_stream, 0.9, 1e-6, 0, 1.0)
        assert rep.passed and rep.steps == 0

    def test_self_shadowing(self, fam):
        strm = noise.stream(1, 0.0)
        rep = hyp.binding_period_check(fam, strm, 0.8, 0.0, 10, 1.0, sample=8)
        assert rep.passed

    def test_derived_window(self, fam, noisy_stream):
        # largest N allowed by the reciprocal-sum budget, then the check
        # passes with the guaranteed constant e * W
        eps = 1e-6
        n_steps, w = hyp.binding_window(fam, 0.9, eps)
        assert n_steps >= 1
        rep = hyp.binding_period_check(
            fam, noisy_stream, 0.9, eps, n_steps, math.e * w, sample=64
        )
        assert rep.passed, rep.first_violation

    def test_critical_reciprocal_sum(self, fam):
        # both critical values are fixed with DT = 4: sum = 4/3
        total, converged = hyp.critical_reciprocal_sum(fam)
        assert converged
        assert total == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_preferred_binding_period(self, fam):
        # at delta = 1e-4 the budget and expansion conditions pin M = 4 on
        # the fixed critical orbit (hand computation with theta from the
        # default reciprocal-sum budget)
        pb = hyp.preferred_binding_period(fam, 1e-4)
        assert pb.found
        assert pb.period == 4
        assert pb.expansion == pytest.approx(4.0**5, rel=1e-12)

    def test_preferred_binding_caps_honestly(self, fam):
        pb = hyp.preferred_binding_period(fam, 0.05)
        assert not pb.found

    @pytest.mark.parametrize("delta", [-0.01, 0.0])
    def test_preferred_binding_rejects_nonpositive_delta(self, fam, delta):
        # only DeltaTooLarge means "L*delta too large"; a bad delta raises
        with pytest.raises(ValueError):
            hyp.preferred_binding_period(fam, delta)


class TestMarkovNeighborhood:
    def test_single_step_far_from_singularity(self, fam, noisy_stream, hyp_cfg):
        (a, b), cert = hyp.markov_neighborhood(fam, noisy_stream, 0.5, 1, hyp_cfg)
        assert a < 0.5 < b
        assert cert.single_branch and cert.monotone
        # image is the delta0-ball around T(x), pulled back
        img_lo = mc.evaluate(fam, noisy_stream.get(0), a)
        img_hi = mc.evaluate(fam, noisy_stream.get(0), b)
        target = mc.evaluate(fam, noisy_stream.get(0), 0.5)
        assert img_lo >= target - hyp_cfg.delta0 - 1e-9
        assert img_hi <= target + hyp_cfg.delta0 + 1e-9

    def test_deterministic_three_step(self, fam, quiet_stream, kappa_fixture):
        # tight constants so the certificate passes outright: small delta0
        # keeps the one-step distortion sum below 1 and a sub-unit prefactor
        # absorbs the last step's derivative dip
        cfg = hyp.config_for_family(
            fam, 0.0, 0.01, 0.01, master_seed=1, kappa=kappa_fixture,
            c=0.35, c_prime=0.45, prefactor=0.2,
        )
        (a, b), cert = hyp.markov_neighborhood(fam, quiet_stream, 0.9, 3, cfg)
        # oracle: dense grid around x confirms monotonicity and the image cap
        xs = np.linspace(a, b, 4001)
        vals = xs.copy()
        for k in range(3):
            vals = mc.evaluate(fam, 0.0, vals)
        assert np.all(np.diff(vals) > 0)
        center = 0.9
        for k in range(3):
            center = mc.evaluate(fam, 0.0, center)
        assert np.all(np.abs(vals - center) <= cfg.delta0 * (1 + 1e-9))
        assert cert.distortion_total < 1.0 and cert.distortion_ok
        assert cert.expansion_ok, cert.expansion_margin

    def test_loose_constants_reported_not_hidden(self, fam, quiet_stream, hyp_cfg):
        # at delta0 = 0.1 the recorded smallness margins are violated, and
        # the certificate must say so rather than fail silently
        assert hyp_cfg.delta0_margins[0] < 0
        (_, _), cert = hyp.markov_neighborhood(fam, quiet_stream, 0.9, 3, hyp_cfg)
        assert cert.monotone and cert.single_branch
        assert not cert.distortion_ok
        assert math.isfinite(cert.distortion_total)

    def test_not_hyperbolic_raises(self, fam, noisy_stream, hyp_cfg):
        # starting deep in the singular zone, time 1 carries a large depth
        with pytest.raises(NotHyperbolic):
            hyp.markov_neighborhood(fam, noisy_stream, 1e-4, 1, hyp_cfg)


class TestTailStatistics:
    def test_chunking_invariance(self, fam, hyp_cfg):
        a = hyp.tail_statistics(fam, 1, 0.01, hyp_cfg, samples=3000, n_max=30, chunk=3000)
        b = hyp.tail_statistics(fam, 1, 0.01, hyp_cfg, samples=3000, n_max=30, chunk=700)
        assert np.array_equal(a.h_survivors, b.h_survivors)
        assert np.array_equal(a.hstar_survivors, b.hstar_survivors)
        assert np.array_equal(a.bad_members, b.bad_members)

    def test_monotone_survival(self, fam, hyp_cfg):
        tab = hyp.tail_statistics(fam, 1, 0.01, hyp_cfg, samples=3000, n_max=30)
        assert np.all(np.diff(tab.h_survivors) <= 0)
        assert np.all(np.diff(tab.hstar_survivors) <= 0)
        assert np.all(tab.hstar_survivors >= tab.h_survivors)

    def test_thread_pool_matches_serial(self, fam, hyp_cfg):
        one = hyp.tail_statistics(fam, 1, 0.01, hyp_cfg, samples=3000, n_max=30, chunk=1000)
        two = hyp.tail_statistics(
            fam, 1, 0.01, hyp_cfg, samples=3000, n_max=30, workers=2, chunk=1000
        )
        for key in ("n", "h_survivors", "hstar_survivors", "bad_members"):
            assert np.array_equal(getattr(one, key), getattr(two, key))
        assert (one.total, one.singular_hits) == (two.total, two.singular_hits)

    def test_thread_pool_under_fast_switching(self, fam, hyp_cfg):
        # More threads than cores, switching every microsecond: a chunk that
        # shared mutable state with another would lose updates.
        serial = hyp.tail_statistics(fam, 1, 0.01, hyp_cfg, samples=3000, n_max=30, chunk=250)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = hyp.tail_statistics(
                fam, 1, 0.01, hyp_cfg, samples=3000, n_max=30, workers=8, chunk=250
            )
        finally:
            sys.setswitchinterval(interval)
        for key in ("h_survivors", "hstar_survivors", "bad_members"):
            assert np.array_equal(getattr(serial, key), getattr(pooled, key))
        assert (serial.total, serial.singular_hits) == (pooled.total, pooled.singular_hits)

    def test_dead_orbit_leaves_every_count(self, fam, hyp_cfg, monkeypatch):
        samples, x0 = dying_ensemble(fam, 1, 0.01, 30)
        plant_start_points(monkeypatch, 1, x0)
        dead = hyp.tail_statistics(
            fam, 1, 0.01, hyp_cfg, samples=samples, n_max=30, chunk=samples // 2 + 1
        )
        monkeypatch.undo()
        rest = hyp.tail_statistics(fam, 1, 0.01, hyp_cfg, samples=samples - 1, n_max=30)
        assert (dead.total, dead.singular_hits) == (samples - 1, 1)
        for key in ("h_survivors", "hstar_survivors", "bad_members"):
            assert np.array_equal(getattr(dead, key), getattr(rest, key))

    @pytest.mark.parametrize("family", ["fam", "table_fam", "fam_lin"])
    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_stream_matches_whole_matrix_reference(
        self, family, workers, fam, hyp_cfg, monkeypatch, request
    ):
        # Planted rows that die: the fixture's first image exactly 0; a table
        # start at 1e-200, where DT * |x| underflows; on the linear family a
        # start whose depth 2 puts it in the bad set for five steps before it
        # reaches 0 at step 10, and one that reaches 0 at step 2.
        samples, x0 = dying_ensemble(fam, 1, 0.01, 30)
        if family == "table_fam":
            x0[-1] = 1e-200
        elif family == "fam_lin":
            x0[0], x0[-1] = 0.75, 2.0**-10
        family = request.getfixturevalue(family)
        expect = reference_tail_table(family, 1, 0.01, hyp_cfg, samples, 30, x0)
        assert expect[4] == (2 if x0[0] == 0.75 else 1)
        plant_start_points(monkeypatch, 1, x0)
        table = hyp.tail_statistics(
            family, 1, 0.01, hyp_cfg, samples=samples, n_max=30, workers=workers,
            chunk=samples // 3 + 1,
        )
        got = (table.h_survivors, table.hstar_survivors, table.bad_members)
        for a, b in zip(got, expect):
            assert a.dtype == b.dtype
            assert_same_bytes(a, b)
        assert (table.total, table.singular_hits) == expect[3:]

    def test_stream_memory_is_linear_in_rows(self, fam, hyp_cfg):
        # A (rows, n_max) float matrix alone is 9.6 MB at this size.
        hyp.tail_statistics(fam, 1, 0.01, hyp_cfg, samples=100, n_max=60)
        tracemalloc.start()
        try:
            hyp.tail_statistics(fam, 1, 0.01, hyp_cfg, samples=20_000, n_max=60)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6
