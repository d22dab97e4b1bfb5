import dataclasses
import math

import numpy as np
import pytest

from conftest import zero_preimage
from rovella import hyperbolic as hyp
from rovella import map_core as mc
from rovella import noise, orbit, tower
from rovella.errors import CapExceeded, InvalidState


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
        seeded = [e.tau for e in part.elements if e.seeded]
        assert 1 <= len(seeded) <= 4
        assert tower._gcd_all(sorted(set(taus))[: len(seeded)]) == tower._gcd_all(seeded)

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

    def test_level_elements_reject_dead_endpoints(self, fam, noisy_stream, hyp_cfg, monkeypatch):
        radius = hyp_cfg.delta0 / 2.0
        t_path = noisy_stream.values(0, 8)
        seeds = np.linspace(-radius, radius, 2001)[1:-1]
        seeds = seeds[seeds != 0.0]
        signs, candidate = tower._candidate_scan(fam, hyp_cfg, radius, t_path, seeds, 8)
        k = int(np.flatnonzero(candidate.any(axis=0))[0]) + 1
        rows = np.flatnonzero(candidate[:, k - 1])
        sound, seen, _ = tower._level_elements(fam, hyp_cfg, radius, t_path, signs, rows, k, set())
        assert sound
        # Every forward image dies: each residual is NaN and must fail.
        monkeypatch.setattr(tower, "step_values", lambda f, t, x: np.full_like(x, np.nan))
        dead, seen_dead, rejects = tower._level_elements(
            fam, hyp_cfg, radius, t_path, signs, rows, k, set()
        )
        assert dead == [] and seen_dead == seen and rejects == seen

    def test_locate(self, part):
        e = part.elements[len(part.elements) // 2]
        mid = 0.5 * (e.left + e.right)
        assert part.elements[part.locate(mid)] is e
        assert part.locate(part.base_radius * 2) is None


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
    def test_projection_matches_direct_orbit(self, fam, noisy_stream, cache):
        # returns recompose the same map applications, so the projection
        # reproduces the direct orbit to roundoff
        part0 = cache.get(0)
        done = 0
        attempt = 0
        while done < 5 and attempt < 4000:
            attempt += 1
            rng = np.random.default_rng(attempt)
            idx = int(rng.integers(0, len(part0.elements)))
            e = part0.elements[idx]
            x0 = e.left + rng.uniform(0.2, 0.8) * e.width
            try:
                _, proj = tower.tower_orbit(cache, tower.TowerState(idx, 0, x0), 30)
            except InvalidState:
                continue
            direct = [x0]
            x = x0
            for k in range(30):
                x = mc.evaluate(fam, noisy_stream.get(k), x)
                direct.append(x)
            assert np.max(np.abs(np.array(proj) - np.array(direct))) <= 1e-8
            done += 1
        assert done == 5

    def test_sampled_orbits_helper(self, cache):
        orbits, attempts = tower.sample_tower_orbits(cache, 3, 25, seed=7)
        assert len(orbits) == 3
        assert attempts >= 3
        for states in orbits:
            assert len(states) == 26
            for s, t in zip(states, states[1:]):
                assert t.base_time + t.level == s.base_time + s.level + 1


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
            base_radius=part.base_radius,
            horizon=part.horizon,
            elements=[e],
            uncovered=part.base_measure - e.width,
            seed_grid=1,
        )
        rep = tower.certify_axioms(single, cache=tower.PartitionCache(
            part.family, part.stream, part.cfg, part.horizon, seed_grid=256))
        assert rep.gcd_return_times == e.tau
        assert not rep.verdicts()["aperiodicity"]

    def test_seeded_coprime_case_passes(self, part):
        seeded = [e for e in part.elements if e.seeded]
        sub = tower.ReturnPartition(
            family=part.family,
            stream=part.stream,
            cfg=part.cfg,
            base_radius=part.base_radius,
            horizon=part.horizon,
            elements=sorted(seeded, key=lambda e: e.left),
            uncovered=part.base_measure - sum(e.width for e in seeded),
            seed_grid=1,
        )
        assert tower._gcd_all([e.tau for e in sub.elements]) == 1

    def test_distortion_constant_stable_across_seeds(self, fam, hyp_cfg):
        ds = []
        for seed in (1, 2):
            strm = noise.stream(seed, 0.01)
            p = tower.build_return_partition(
                fam, strm, hyp_cfg, 20, seed_grid=512, refine_passes=2, gap_resolution=2e-5
            )
            cache = tower.PartitionCache(fam, strm, hyp_cfg, 20, seed_grid=512)
            cache._cache[0] = p
            ds.append(tower.certify_axioms(p, cache=cache).distortion_constant)
        assert all(math.isfinite(d) for d in ds)
        assert abs(ds[0] - ds[1]) <= 0.2 * max(ds)
