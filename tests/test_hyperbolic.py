import dataclasses
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
    verify_hyperbolic_report,
)
from rovella import hyperbolic as hyp
from rovella import map_core as mc
from rovella import noise, orbit
from rovella.errors import ParamError


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
        assert verify_hyperbolic_report(trace.depths[:120], hyp_cfg, report)
        for t in report.return_times:
            assert hyp_cfg.base.contains(trace.points[t])

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
    """`HyperbolicReport.bad`: the depth sum over the trace is at least c * n."""

    def test_zero_depths_never_bad(self, fam, quiet_stream, hyp_cfg):
        for n in (1, 10):
            trace = orbit.iterate(fam, quiet_stream, 1.0, n, hyp_cfg.delta)
            assert not hyp.hyperbolic_times(trace, hyp_cfg).bad
        trace = orbit.iterate(fam, quiet_stream, 1.0, 50, hyp_cfg.delta)
        assert np.all(trace.depths == 0)
        # all depths zero: every time is hyperbolic, the first is 1, and the
        # boundary fixed point never visits the base
        report = hyp.hyperbolic_times(trace, hyp_cfg)
        assert not report.bad
        assert report.first == 1
        assert report.times == list(range(1, 51))
        assert report.return_times == []
        assert report.first_return is None

    def test_deep_orbit_is_bad(self, fam, noisy_stream, hyp_cfg):
        trace = orbit.iterate(fam, noisy_stream, 1e-5, 1, hyp_cfg.delta)
        assert hyp.hyperbolic_times(trace, hyp_cfg).bad


class TestConfig:
    def test_ordering_enforced(self, fam):
        with pytest.raises(ParamError):
            hyp.HyperbolicConfig(
                delta=0.01, delta0=0.1, c=0.5, c_prime=0.4, kappa=1.0,
                base=mc.CriticalNeighborhoods(neg_lo=-0.1, pos_hi=0.1),
            )

    def test_factory_defaults(self, fam, kappa_fixture):
        cfg = hyp.config_for_family(fam, 0.01, 0.01, 0.1, master_seed=1, kappa=kappa_fixture)
        assert cfg.c == pytest.approx(kappa_fixture / 4)
        assert cfg.c_prime == pytest.approx(kappa_fixture / 2)
        assert cfg.lambda_prime == pytest.approx(kappa_fixture / 2)
        hood = mc.critical_neighborhoods(fam, 0.0, 0.05)
        assert cfg.base.pos_hi == pytest.approx(hood.pos_hi, rel=1e-12)

    def test_unset_kappa_has_no_expansion_rate(self, hyp_cfg):
        cfg = dataclasses.replace(hyp_cfg, kappa=None)
        with pytest.raises(ParamError, match="lambda_prime needs kappa"):
            cfg.radius_cap(3)

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
        x0 = orbit.start_points(noise.ensemble_keys(1, 20), 0.01)
        x0[0] = 0.968994140625
        rates = reference_escape_rates(fam_lin, 1, 0.01, 0.01, samples=20, n_cap=20, x0=x0)
        monkeypatch.setattr(hyp, "start_points", lambda keys, eps: x0.copy())
        with pytest.raises(ParamError, match=f"only {rates.size} escape events"):
            hyp.fit_expansion_rate(fam_lin, 1, 0.01, 0.01, samples=20, n_cap=20)
        rest = reference_escape_rates(fam_lin, 1, 0.01, 0.01, samples=19, n_cap=20, x0=x0[1:])
        assert rates.size == rest.size + 1

    def test_death_before_first_entry_gives_no_event(self, fam, monkeypatch):
        samples, x0 = dying_ensemble(fam, 1, 0.01)
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

        def counting_step(family, t, x):
            rows.append(x.size)
            return real_step(family, t, x)

        monkeypatch.setattr(hyp, "step", counting_step)
        hyp.fit_expansion_rate(fam, 1, 0.01, delta, samples=4000, n_cap=n_cap)
        assert sum(rows) == expect
        assert expect < 4000 * n_cap // 20


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
        samples, x0 = dying_ensemble(fam, 1, 0.01)
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
        self._check_reference(family, workers, hyp.TAIL_TABLES, fam, hyp_cfg, monkeypatch,
                              request)

    @pytest.mark.parametrize("tables", [("hyperbolic",), ("bad_set",)])
    @pytest.mark.parametrize("family", ["fam", "table_fam", "fam_lin"])
    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_one_table_matches_whole_matrix_reference(
        self, family, workers, tables, fam, hyp_cfg, monkeypatch, request
    ):
        self._check_reference(family, workers, tables, fam, hyp_cfg, monkeypatch, request)

    @pytest.mark.parametrize("tables", [("hyperbolic",), ("bad_set",)])
    def test_one_table_matches_reference_over_many_rows(self, tables, fam, hyp_cfg):
        # Enough rows that DT * |x| < delta, and first returns, occur at
        # every step, so a depth carried over from an earlier step shows.
        expect = reference_tail_table(fam, 1, 0.01, hyp_cfg, 2000, 30)
        table = hyp.tail_statistics(
            fam, 1, 0.01, hyp_cfg, samples=2000, n_max=30, chunk=700, tables=tables
        )
        got = (table.h_survivors, table.hstar_survivors, table.bad_members)
        for a, b, name in zip(got, expect, ("hyperbolic", "hyperbolic", "bad_set")):
            if name in tables:
                assert_same_bytes(a, b)
            else:
                assert a is None

    @pytest.mark.parametrize("tables", [("hyperbolic",), hyp.TAIL_TABLES])
    def test_matches_reference_after_the_open_set_empties(
        self, tables, fam_lin, hyp_cfg, monkeypatch
    ):
        """On the doubling family every row has its first hyperbolic return
        by step 15, after which the hyperbolic table does no bookkeeping;
        rows that die later still leave every count. The planted row 0.5 +
        2^-5 + 2^-45 returns at step 1 (its image 2^-4 + 2^-44 lies in the
        base) and reaches exactly 0 at step 45; float doubling sends three
        more rows to 0 at steps 47 and 48."""
        samples, n_max = 30, 48
        x0 = orbit.start_points(noise.ensemble_keys(1, samples), 0.01)
        x0[0] = 0.5 + 2.0**-5 + 2.0**-45
        expect = reference_tail_table(fam_lin, 1, 0.01, hyp_cfg, samples, n_max, x0)
        assert expect[3:] == (26, 4)
        assert expect[1][13] > 0 == expect[1][14]  # the last live return is at step 15
        plant_start_points(monkeypatch, 1, x0)
        rows = _flag_rows(fam_lin, hyp_cfg, monkeypatch, samples, n_max, tables)
        assert len(rows) == 15
        table = hyp.tail_statistics(fam_lin, 1, 0.01, hyp_cfg, samples, n_max, tables=tables)
        got = (table.h_survivors, table.hstar_survivors, table.bad_members)
        for a, b, name in zip(got, expect, ("hyperbolic", "hyperbolic", "bad_set")):
            if name in tables:
                assert_same_bytes(a, b)
        assert (table.total, table.singular_hits) == expect[3:]

    def test_dead_rows_leave_the_open_set(self, fam_lin, hyp_cfg, monkeypatch):
        """Work-count guard: a row that dies before its first hyperbolic
        return leaves the open set at its first hyperbolic step from its death
        on. The planted row 1 - 2^-45 stays above 1/2, so it never enters the
        base and has depth 0 at every step, and doubling takes it to exactly 0
        at step 45; every other row has returned by step 15, so no
        `_hyperbolic_flags` call follows step 45."""
        samples, n_max, tables = 30, 60, ("hyperbolic",)
        x0 = orbit.start_points(noise.ensemble_keys(1, samples), 0.01)
        x0[0] = 1.0 - 2.0**-45
        expect = reference_tail_table(fam_lin, 1, 0.01, hyp_cfg, samples, n_max, x0)
        assert expect[1][14] == 0 < expect[4]  # no live row open after step 15; one dies
        plant_start_points(monkeypatch, 1, x0)
        rows = _flag_rows(fam_lin, hyp_cfg, monkeypatch, samples, n_max, tables)
        assert len(rows) == 45 and rows[15:] == [1] * 30
        table = hyp.tail_statistics(fam_lin, 1, 0.01, hyp_cfg, samples, n_max, tables=tables)
        assert_same_bytes(table.h_survivors, expect[0])
        assert_same_bytes(table.hstar_survivors, expect[1])
        assert (table.total, table.singular_hits) == expect[3:]

    @staticmethod
    def _check_reference(family, workers, tables, fam, hyp_cfg, monkeypatch, request):
        """Each table asked for equals `reference_tail_table` byte for byte,
        each one left out is None, and total and singular_hits hold."""
        # Planted rows that die: the fixture's first image exactly 0; a table
        # start at 1e-200, where DT * |x| underflows; on the linear family a
        # start whose depth 2 puts it in the bad set for five steps before it
        # reaches 0 at step 10, and one that reaches 0 at step 2.
        samples, x0 = dying_ensemble(fam, 1, 0.01)
        if family == "table_fam":
            x0[-1] = 1e-200
        elif family == "fam_lin":
            x0[0], x0[-1] = 0.75, 2.0**-10
        family = request.getfixturevalue(family)
        expect = reference_tail_table(family, 1, 0.01, hyp_cfg, samples, 30, x0)
        assert expect[4] == (2 if x0[0] == 0.75 else 1)
        plant_start_points(monkeypatch, 1, x0)
        # The default goes unnamed, as the benchmark and acceptance callers leave it.
        chosen = {} if tables == hyp.TAIL_TABLES else {"tables": tables}
        table = hyp.tail_statistics(
            family, 1, 0.01, hyp_cfg, samples=samples, n_max=30, workers=workers,
            chunk=samples // 3 + 1, **chosen,
        )
        got = (table.h_survivors, table.hstar_survivors, table.bad_members)
        for a, b, name in zip(got, expect, ("hyperbolic", "hyperbolic", "bad_set")):
            if name not in tables:
                assert a is None
                continue
            assert a.dtype == b.dtype
            assert_same_bytes(a, b)
        assert (table.total, table.singular_hits) == expect[3:]

    @pytest.mark.parametrize("tables", [(), ("bad set",), ("hyperbolic", "h_star"), "hyperbolic"])
    def test_unknown_or_empty_tables_raise(self, fam, hyp_cfg, tables):
        with pytest.raises(ValueError, match="tables"):
            hyp.tail_statistics(fam, 1, 0.01, hyp_cfg, samples=10, n_max=5, tables=tables)

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


def test_depths_only_where_read(fam, hyp_cfg, monkeypatch):
    """Work-count guard: the kappa fit, a caller of `orbit.step` that reads
    log DT alone, takes no return depths. The bad-set table takes one
    `_depths` call a step, on exactly the rows with DT * |x| < delta. The
    hyperbolic table takes one a step while any row is open (no first
    hyperbolic return yet), on exactly the open rows with DT * |x| < delta,
    and none after the last open row returns (step 37 of 60 here): every
    other row has depth 0, and near rows have depth >= 1."""
    calls, near, open_near = [], [], []
    real_depths, real_step, real_flags = orbit._depths, hyp.step, hyp._hyperbolic_flags

    def counting_depths(prod, delta):
        assert np.all(prod < delta)
        calls.append(prod.size)
        return real_depths(prod, delta)

    def counting_step(family, t, x):
        out = real_step(family, t, x)
        near.append(int(np.count_nonzero(out[2] < hyp_cfg.delta)))
        return out

    def counting_flags(depths, c_prime, state=None):
        open_near.append(int(np.count_nonzero(depths)))
        return real_flags(depths, c_prime, state)

    for module in (orbit, hyp):
        monkeypatch.setattr(module, "_depths", counting_depths)
    hyp.fit_expansion_rate(fam, 1, 0.01, 0.01)
    assert calls == []
    monkeypatch.setattr(hyp, "step", counting_step)
    monkeypatch.setattr(hyp, "_hyperbolic_flags", counting_flags)
    for tables in (hyp.TAIL_TABLES, ("hyperbolic",), ("bad_set",)):
        for record in (calls, near, open_near):
            record.clear()
        hyp.tail_statistics(fam, 1, 0.01, hyp_cfg, samples=300, n_max=60, tables=tables)
        assert len(near) == 60 and max(near) < 300
        assert len(open_near) == (37 if "hyperbolic" in tables else 0)
        expect = []  # per step: the bad set's call, then the open rows' call
        for k, n in enumerate(near):
            expect += [n] * ("bad_set" in tables) + open_near[k : k + 1]
        assert calls == expect
        assert sum(open_near) < sum(near) / 4


def _flag_rows(fam, hyp_cfg, monkeypatch, samples, n_max, tables):
    """Rows passed to `_hyperbolic_flags` by one tail run."""
    rows = []
    real = hyp._hyperbolic_flags

    def counting_flags(depths, c_prime, state=None):
        rows.append(np.shape(depths)[0])
        return real(depths, c_prime, state)

    monkeypatch.setattr(hyp, "_hyperbolic_flags", counting_flags)
    hyp.tail_statistics(fam, 1, 0.01, hyp_cfg, samples=samples, n_max=n_max, tables=tables)
    return rows


def test_bad_set_alone_runs_no_hyperbolic_bookkeeping(fam, hyp_cfg, monkeypatch):
    """Work-count guard: the bad-set table never calls `_hyperbolic_flags`."""
    assert _flag_rows(fam, hyp_cfg, monkeypatch, 2000, 60, ("bad_set",)) == []


def test_hyperbolic_bookkeeping_only_on_open_rows(fam, hyp_cfg, monkeypatch):
    """Work-count guard: a row leaves the carried reduction at its first
    hyperbolic return, so the hyperbolic table makes one `_hyperbolic_flags`
    call a step, on the rows with no first return yet, while any row is
    open, and none after. It passes at most a fifth of the samples * n_max
    rows on the fixture (about 0.12 of them at 2,000 x 60, where the last
    row returns at step 50)."""
    table = hyp.tail_statistics(fam, 1, 0.01, hyp_cfg, 2000, 60, tables=("hyperbolic",))
    rows = _flag_rows(fam, hyp_cfg, monkeypatch, 2000, 60, ("hyperbolic",))
    assert (table.total, table.singular_hits) == (2000, 0)
    last = int(np.argmax(table.hstar_survivors == 0))  # step last + 1 empties the open set
    assert last == 49
    assert rows == [2000, *table.hstar_survivors[:last]]
    assert sum(rows) <= 0.2 * 2000 * 60
