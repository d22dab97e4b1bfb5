import dataclasses
import math

import numpy as np
import pytest

from conftest import (
    reference_admission,
    reference_separation,
    reference_tower_orbits,
    zero_preimage,
)
from rovella import hyperbolic as hyp
from rovella import noise, orbit, tower
from rovella.errors import CapExceeded, InvalidState, SingularHit


@pytest.fixture(scope="module")
def part(fam, noisy_stream, hyp_cfg):
    return tower.build_return_partition(
        fam, noisy_stream, hyp_cfg, 20, seed_grid=1024, refine_passes=3, gap_resolution=2e-5
    )


@pytest.fixture(scope="module")
def cache(fam, noisy_stream, hyp_cfg):
    return tower.PartitionCache(fam, noisy_stream, hyp_cfg, 20, seed_grid=512)


class TestBuild:
    def test_structure(self, part):
        assert len(part.elements) >= 30
        for e in part.elements:
            assert e.tau >= 1
            assert e.left < e.right
            assert np.sign(e.left) == np.sign(e.right)
            assert -part.base_radius < e.left and e.right < part.base_radius
            assert e.residual <= tower.MARKOV_TOL

    def test_pairwise_disjoint_exactly(self, part):
        for a, b in zip(part.elements, part.elements[1:]):
            assert a.right < b.left

    def test_gcd_one_with_seeded_elements(self, part):
        taus = [e.tau for e in part.elements]
        assert tower._gcd_all(taus) == 1
        seeded = tower._seeded_times(taus)
        assert 1 <= len(seeded) <= 4
        assert tower._gcd_all(sorted(set(taus))[: len(seeded)]) == tower._gcd_all(seeded)

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("family", ["fam", "table_fam"])
    def test_seeded_times_match_marking_loop(self, request, family, seed, hyp_cfg):
        """On built partitions: the smallest distinct return times, marked
        in increasing order until at least four are marked and their gcd is
        1, or all of them when that never happens."""
        p = tower.build_return_partition(
            request.getfixturevalue(family), noise.stream(seed, 0.01), hyp_cfg, 20, seed_grid=512
        )
        times = sorted({e.tau for e in p.elements})
        seeded = tower._seeded_times([e.tau for e in p.elements])
        n = len(seeded)
        assert len(times) >= 4 and n >= 4 and seeded == times[:n]
        assert tower._gcd_all(seeded) == 1 or n == len(times)
        assert n == 4 or tower._gcd_all(times[: n - 1]) != 1

    @pytest.mark.parametrize(
        "taus, want",
        [
            ([3, 4, 5, 7], [3, 4, 5, 7]),  # coprime within four
            ([9, 2, 8, 4, 6, 4, 11], [2, 4, 6, 8, 9]),  # needs a fifth
            ([2, 4, 6, 8, 10], [2, 4, 6, 8, 10]),  # never coprime: all of them
            ([7, 5, 7], [5, 7]),  # fewer than four distinct times
            ([], []),
        ],
    )
    def test_seeded_times_rule(self, taus, want):
        assert tower._seeded_times(taus) == want

    def test_one_admission_mask(self):
        """The single admission mask equals one-sidedness and clearance
        tested apart, on every ordered pair of edge values: NaN, signed
        zeros and subnormal-scale ends, the margins around 0 and the base
        boundary, equal and swapped ends; and a cap that one pair's width
        meets exactly, shared or per row."""
        r, m = 0.05, tower.BOUNDARY_MARGIN
        edges = [math.nan, 0.0, -0.0, 1e-300, -1e-300, m, -m, 2 * m, -2 * m,
                 r - m, -(r - m), r - m / 2, -(r - m / 2), r / 3, -r / 3, r, -r]
        lo, hi = (a.ravel() for a in np.meshgrid(edges, edges, indexing="ij"))
        caps = [math.inf, r / 2, 1e-3, (r - m) - r / 3, math.nan]
        admitted = 0
        for cap in (*caps, np.resize(caps, lo.size)):
            got = tower._admissible(lo, hi, r, cap)
            assert np.array_equal(got, reference_admission(lo, hi, r, cap))
            admitted += int(got.sum())
        assert admitted > 0

    def test_horizon_below_first_return_gives_nothing(self, fam, noisy_stream, hyp_cfg):
        tiny = tower.build_return_partition(fam, noisy_stream, hyp_cfg, 2, seed_grid=256)
        assert tiny.elements == []
        assert tiny.uncovered == tiny.base_measure

    def test_uncovered_decreasing_in_horizon(self, fam, quiet_stream, kappa_fixture):
        # deterministic fixture, refinement off: the greedy admission has a
        # prefix property across horizons, so reruns compare exactly. The
        # decrease is strict while new return times are reachable from the
        # seed grid; beyond that (tau > 20 elements are thinner than 1e-7
        # here) coverage may tie exactly, never grow.
        cfg = hyp.config_for_family(
            fam, 0.0, 0.01, 0.1, master_seed=1, kappa=kappa_fixture, c=0.35, c_prime=0.45
        )
        quiet = noise.stream(1, 0.0)
        uncs = []
        taus_max = []
        for n_max in (5, 10, 15, 20, 25):
            p = tower.build_return_partition(
                fam, quiet, cfg, n_max, seed_grid=2048, refine_passes=0
            )
            uncs.append(p.uncovered)
            taus_max.append(max((e.tau for e in p.elements), default=0))
        for i in range(len(uncs) - 1):
            if taus_max[i + 1] > taus_max[i]:
                assert uncs[i + 1] < uncs[i]
            else:
                assert uncs[i + 1] <= uncs[i]
        assert uncs[-1] < uncs[0]

    def test_cap(self, fam, noisy_stream, hyp_cfg):
        with pytest.raises(CapExceeded):
            tower.build_return_partition(fam, noisy_stream, hyp_cfg, 100)

    def test_dead_seeds_counted(self, fam, table_fam, part, noisy_stream, hyp_cfg):
        # The log-spaced grid starts at radius * 1e-6 = 5e-8. A fixture copy
        # whose DT is 0 below 3e-7 kills the seeds there at step 0; the
        # table family's end piece below its first node 1e-6 keeps them.
        def flat(t, x):
            return np.where(np.abs(x) < 3e-7, 0.0, fam.deriv(t, x))

        cut = dataclasses.replace(fam, deriv=flat)
        dead = tower.build_return_partition(cut, noisy_stream, hyp_cfg, 8, seed_grid=512)
        radius = hyp_cfg.delta0 / 2.0
        below = np.geomspace(radius * 1e-6, radius * (1.0 - 1e-9), 512) < 3e-7
        assert dead.dead_seeds >= 2 * int(below.sum()) > 0
        tab = tower.build_return_partition(table_fam, noisy_stream, hyp_cfg, 8, seed_grid=512)
        assert tab.dead_seeds == part.dead_seeds == 0

    def test_markov_recheck(self, part):
        mk = tower.verify_markov(part)
        assert mk["non_monotone"] == 0
        assert mk["max_residual"] <= 1e-9

    def test_markov_recheck_fails_dead_sample(self, fam, part):
        # After a sound element, one whose right endpoint maps exactly onto
        # the singularity: its NaN residual must not hide behind max().
        seed = next(s for s in range(1, 100) if zero_preimage(fam, noise.stream(s, 0.01).get(0)))
        strm = noise.stream(seed, 0.01)
        x_dead = zero_preimage(fam, strm.get(0))
        sound = part.elements[0]
        dead = tower.PartitionElement(x_dead - 1e-3, x_dead, 1, "dead", 0.0)
        bad = dataclasses.replace(part, stream=strm, elements=[sound, dead])
        mk = tower.verify_markov(bad)
        assert not mk["max_residual"] <= 1e-9
        assert mk["non_monotone"] >= 1

    def test_pass_elements_reject_dead_endpoints(self, fam, noisy_stream, hyp_cfg, monkeypatch):
        radius = hyp_cfg.delta0 / 2.0
        t_path = noisy_stream.values(0, 8)
        seeds = np.linspace(-radius, radius, 2001)[1:-1]
        seeds = seeds[seeds != 0.0]
        signs, candidate, _ = tower._candidate_scan(fam, hyp_cfg, radius, t_path, seeds, 8)
        levels = tower._levels(signs, candidate)
        sound = tower._pass_elements(fam, hyp_cfg, radius, t_path, signs, levels, set())
        assert any(sound.values())
        assert tower._pass_elements(fam, hyp_cfg, radius, t_path, signs, levels, set(sound)) == {}
        # Every forward image dies: each residual is NaN and must fail.
        monkeypatch.setattr(tower, "step_values", lambda f, t, x: np.full_like(x, np.nan))
        dead = tower._pass_elements(fam, hyp_cfg, radius, t_path, signs, levels, set())
        assert dead.keys() == sound.keys() and not any(dead.values())
        # The build sees each such branch once and rejects it.
        part = tower.build_return_partition(fam, noisy_stream, hyp_cfg, 8, seed_grid=512)
        assert part.elements == [] and part.candidates_rejected == part.candidates_seen > 0

    @pytest.mark.parametrize("family", ["fam", "table_fam"])
    def test_invert_calls_per_pass(self, family, noisy_stream, hyp_cfg, request, monkeypatch):
        """A refinement pass pulls all its branches back in one sweep: at
        most as many `invert_branch` calls as its largest candidate return
        time, however many return times have candidates."""
        invert, scan, calls, passes = orbit.invert_branch, tower._candidate_scan, [], []

        def counted(*args):
            calls.append(args[1])
            return invert(*args)

        def scanned(*args):
            out = scan(*args)
            passes.append((len(calls), np.flatnonzero(out[1].any(axis=1)) + 1))
            return out

        monkeypatch.setattr(orbit, "invert_branch", counted)
        monkeypatch.setattr(tower, "_candidate_scan", scanned)
        tower.build_return_partition(
            request.getfixturevalue(family), noisy_stream, hyp_cfg, 20, seed_grid=512,
            refine_passes=3,
        )
        ends = [start for start, _ in passes[1:]] + [len(calls)]
        assert len(passes) >= 2 and passes[0][1].size >= 10  # return times with candidates
        for (start, times), end in zip(passes, ends):
            assert end - start <= times.max(initial=0)

    def test_locate(self, part):
        e = part.elements[len(part.elements) // 2]
        mid = 0.5 * (e.left + e.right)
        assert part.elements[part.locate(mid)] is e
        assert part.locate(part.base_radius * 2) == -1


class TestBatchedMarkov:
    @pytest.mark.parametrize("family", ["fam", "table_fam"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_reference(self, family, seed, hyp_cfg, request):
        """The worst end residual repeats the elements' admission residuals
        bit for bit, and no element of a built partition is non-monotone."""
        strm = noise.stream(seed, 0.01)
        p = tower.build_return_partition(request.getfixturevalue(family), strm, hyp_cfg, 16,
                                         seed_grid=512)
        assert len({e.tau for e in p.elements}) >= 5
        worst = max(e.residual for e in p.elements)
        mk = tower.verify_markov(p)
        assert mk == {"max_residual": worst, "non_monotone": 0, "elements": len(p.elements)}

    def test_flat_element_is_non_monotone(self, part):
        """Samples must increase strictly: a zero-width element, whose
        samples are all one point, is non-monotone."""
        e = part.elements[0]
        flat = tower.PartitionElement(e.left, e.left, e.tau, "flat", 0.0)
        mk = tower.verify_markov(dataclasses.replace(part, elements=[e, flat]))
        assert mk["non_monotone"] == 1

    def test_one_step_values_call_per_step(self, part, monkeypatch):
        calls = []
        step_values = tower.step_values
        monkeypatch.setattr(
            tower, "step_values", lambda f, t, x: calls.append(x.size) or step_values(f, t, x)
        )
        mk = tower.verify_markov(part)
        assert 0 < len(calls) <= max(e.tau for e in part.elements)
        assert calls[0] == 100 * mk["elements"]

    def test_empty_partition(self, fam, noisy_stream, hyp_cfg):
        empty = tower.build_return_partition(fam, noisy_stream, hyp_cfg, 2, seed_grid=256)
        assert empty.elements == []
        mk = tower.verify_markov(empty)
        assert mk == {"max_residual": 0.0, "non_monotone": 0, "elements": 0}
        assert type(mk["max_residual"]) is float


class TestTailMeasure:
    def test_zero_horizon_is_base(self, part):
        assert tower.tail_measure(part, 0) == part.base_measure

    def test_full_horizon_is_uncovered(self, part):
        assert tower.tail_measure(part, part.horizon) == pytest.approx(
            part.uncovered, abs=1e-15
        )

    def test_nonincreasing(self, part):
        vals = [tower.tail_measure(part, n) for n in range(part.horizon + 1)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))


class TestTowerStep:
    def test_climb(self, part):
        idx = next(i for i, e in enumerate(part.elements) if e.tau >= 3)
        e = part.elements[idx]
        state = tower.TowerState(idx, 0, 0.5 * (e.left + e.right))
        nxt = tower.tower_step(part, state)
        assert nxt == tower.TowerState(idx, 1, state.x, 0)

    def test_return_resets_level(self, part):
        idx = 0
        e = part.elements[idx]
        state = tower.TowerState(idx, e.tau - 1, 0.5 * (e.left + e.right))
        nxt = tower.tower_step(part, state)
        assert nxt.level == 0
        assert abs(nxt.x) <= part.base_radius + 1e-9
        assert nxt.base_time == e.tau

    def test_invalid_state(self, part):
        with pytest.raises(InvalidState):
            tower.tower_step(part, tower.TowerState(-1, 0, 0.0))
        e = part.elements[0]
        with pytest.raises(InvalidState):
            tower.tower_step(part, tower.TowerState(0, 0, e.right + 1e-3))


class TestTowerOrbit:
    def test_empty_time0_partition_raises(self, fam, noisy_stream, hyp_cfg):
        cache = tower.PartitionCache(fam, noisy_stream, hyp_cfg, 2, seed_grid=256)
        assert cache.get(0).elements == []
        with pytest.raises(InvalidState, match="no elements"):
            tower.sample_tower_orbits(cache, 3, 10)

    def test_sampled_orbits_helper(self, cache):
        orbits, attempts = tower.sample_tower_orbits(cache, 3, 25, seed=7)
        assert len(orbits) == 3
        assert attempts >= 3
        for states in orbits:
            assert len(states) == 26
            for s, t in zip(states, states[1:]):
                assert t.base_time + t.level == s.base_time + s.level + 1


def _recording(cache):
    """cache.get, recording the keys it is asked for."""
    keys = set()

    def get(k):
        keys.add(k)
        return cache.get(k)

    return get, keys


class TestBatchedWalk:
    """The batched return map against scalar one-at-a-time references."""

    @pytest.mark.parametrize("family", ["fam", "table_fam"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_sampling_matches_scalar_walks(self, family, seed, hyp_cfg, request):
        # 7 walks a batch, so the 7th success falls inside a batch whose
        # later attempts are walked but neither kept nor counted.
        fam = request.getfixturevalue(family)
        strm = noise.stream(seed, 0.01)
        cache = tower.PartitionCache(fam, strm, hyp_cfg, 12, seed_grid=256)
        orbits, attempts = tower.sample_tower_orbits(cache, 7, 20, seed=seed)
        get, keys = _recording(cache)
        ref, ref_attempts = reference_tower_orbits(fam, strm, get, 7, 20, seed)
        assert attempts == ref_attempts > 7
        assert set(cache._cache) == keys
        got = [[(s.element, s.level, s.x.hex(), s.base_time) for s in o] for o in orbits]
        assert got == [[(e, lv, x.hex(), b) for e, lv, x, b in o] for o in ref]
        assert all(type(s.element) is int and type(s.x) is float for o in orbits for s in o)

    def test_attempt_cap(self, fam, hyp_cfg, monkeypatch):
        # At horizon 6 no walk survives 60 steps. With 3 attempts a batch,
        # the 10,000-attempt cap leaves a last batch of one.
        strm = noise.stream(1, 0.01)
        cache = tower.PartitionCache(fam, strm, hyp_cfg, 6, seed_grid=256)
        walked = []
        walks = tower._walks
        monkeypatch.setattr(
            tower, "_walks", lambda c, x0, *a: walked.append(x0.size) or walks(c, x0, *a)
        )
        with pytest.raises(InvalidState, match="10000 attempts"):
            tower.sample_tower_orbits(cache, 3, 60, seed=5)
        assert sum(walked) == 10_000 and walked[-1] == 1
        get, keys = _recording(cache)
        with pytest.raises(InvalidState):
            reference_tower_orbits(fam, strm, get, 3, 60, 5)
        assert set(cache._cache) == keys

    @pytest.mark.parametrize("family", ["fam", "table_fam"])
    def test_certify_separations_match_scalar(self, family, hyp_cfg, request, monkeypatch):
        fam = request.getfixturevalue(family)
        strm = noise.stream(1, 0.01)
        part = tower.build_return_partition(fam, strm, hyp_cfg, 12, seed_grid=512)
        cache = tower.PartitionCache(fam, strm, hyp_cfg, 12, seed_grid=256)
        calls = []
        separations = tower._separation_times

        def spy(c, x, y, base_time, max_returns):
            out = separations(c, x, y, base_time, max_returns)
            calls.append((x, y, base_time, max_returns, *out))
            return out

        monkeypatch.setattr(tower, "_separation_times", spy)
        tower.certify_axioms(part, cache=cache)
        (x_img, *_, exact), base_call = calls
        assert x_img.size == 5 * min(40, len(part.elements))
        assert (~exact).sum() > 0  # censored pairs are compared too
        assert base_call[0].size == exact.sum()
        for x, y, base_time, max_returns, sep, ex in calls:
            ref = [
                reference_separation(fam, strm, cache.get, a, b, int(t), max_returns)
                for a, b, t in zip(x.tolist(), y.tolist(), base_time)
            ]
            assert list(zip(sep.tolist(), ex.tolist())) == ref

    def test_dead_row(self, fam, hyp_cfg):
        # A tau = 1 element ending at a point whose image rounds to 0: the
        # batched walk discards that row, its pair separation is censored,
        # and a single tower step raises.
        seed = next(s for s in range(1, 100) if zero_preimage(fam, noise.stream(s, 0.01).get(0)))
        strm = noise.stream(seed, 0.01)
        x_dead = zero_preimage(fam, strm.get(0))
        cache = tower.PartitionCache(fam, strm, hyp_cfg, 8, seed_grid=256)
        dead = tower.PartitionElement(x_dead - 1e-3, x_dead, 1, "dead", 0.0)
        pinned = tower.ReturnPartition(fam, strm, hyp_cfg, 8, [dead], seed_grid=1)
        assert pinned.base_radius == hyp_cfg.delta0 / 2.0
        assert pinned.uncovered == pytest.approx(pinned.base_measure - 1e-3, abs=1e-15)
        cache._cache[0] = pinned
        walks, used = tower._walks(cache, np.array([x_dead - 5e-4, x_dead]), 1, 2)
        assert used == 2 and all(w[0].x != x_dead for w in walks)
        sep, exact = tower._separation_times(
            cache, np.array([x_dead]), np.array([x_dead - 1e-6]), np.array([0]), 3
        )
        assert sep.tolist() == [1] and exact.tolist() == [False]
        assert reference_separation(fam, strm, cache.get, x_dead, x_dead - 1e-6, 0, 3) == (
            1, False
        )
        with pytest.raises(SingularHit):
            tower.tower_step(pinned, tower.TowerState(0, 0, x_dead))


class TestCertifyAxioms:
    def test_report(self, part, cache):
        rep = tower.certify_axioms(part, cache=cache)
        v = rep.verdicts()
        assert rep.min_return >= 1
        assert v["markov"]
        assert v["aperiodicity"]
        assert v["weak_forward_expansion"]
        assert rep.refinement_diameters[0] > rep.refinement_diameters[-1]
        assert v["return_time_asymptotics"]
        assert rep.tail_rate > 0
        assert math.isfinite(rep.distortion_constant)
        assert rep.separation_checked > 0

    def test_single_element_fails_aperiodicity(self, part):
        e = part.elements[0]
        assert e.tau > 1
        single = tower.ReturnPartition(
            family=part.family,
            stream=part.stream,
            cfg=part.cfg,
            horizon=part.horizon,
            elements=[e],
            seed_grid=1,
        )
        rep = tower.certify_axioms(single, cache=tower.PartitionCache(
            part.family, part.stream, part.cfg, part.horizon, seed_grid=256))
        assert rep.gcd_return_times == e.tau
        assert not rep.verdicts()["aperiodicity"]

    def test_seeded_coprime_case_passes(self, part):
        # The leftmost element of each seeded time.
        seeded = [
            next(e for e in part.elements if e.tau == tau)
            for tau in tower._seeded_times([e.tau for e in part.elements])
        ]
        sub = tower.ReturnPartition(
            family=part.family,
            stream=part.stream,
            cfg=part.cfg,
            horizon=part.horizon,
            elements=sorted(seeded, key=lambda e: e.left),
            seed_grid=1,
        )
        assert tower._gcd_all([e.tau for e in sub.elements]) == 1

    def test_distortion_constant_stable_across_seeds(self, fam, hyp_cfg):
        ds = []
        for seed in (1, 2):
            strm = noise.stream(seed, 0.01)
            p = tower.build_return_partition(
                fam, strm, hyp_cfg, 20, seed_grid=512,
                refine_passes=tower.CACHE_REFINE_PASSES, gap_resolution=tower.CACHE_GAP_RESOLUTION,
            )
            cache = tower.PartitionCache(fam, strm, hyp_cfg, 20, seed_grid=512)
            cache._cache[0] = p
            ds.append(tower.certify_axioms(p, cache=cache).distortion_constant)
        assert all(math.isfinite(d) for d in ds)
        assert abs(ds[0] - ds[1]) <= 0.2 * max(ds)
