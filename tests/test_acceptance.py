"""Acceptance suite: one test per criterion, desk scale.

Baseline setup throughout: fixture family with s = 2, noise amplitude
eps = 0.01, master seed 1. The hyperbolic constants are delta = 0.01,
delta0 = 0.1 (base radius 0.05), c = 0.35, c_prime = 0.45: the depth-sum
threshold is chosen above the empirical mean depth so all three tail curves
decay visibly within n <= 60 (the library default c = kappa/4 leaves the
bad-set decay asymptotic only); the CLI exposes --c/--c-prime for exactly
this choice. Every tolerance below is the criterion's own.
"""

import json
import math
import time

import numpy as np
import pytest

from rovella import cli
from rovella import hyperbolic as hyp
from rovella import map_core as mc
from rovella import measures as ms
from rovella import orbit, tower
from rovella.numerics import linear_fit

RESULTS: list[str] = []


def record(name: str, passed: bool, detail: str) -> None:
    line = f"ACCEPTANCE {name}: {'PASS' if passed else 'FAIL'} ({detail})"
    RESULTS.append(line)
    print(line)
    assert passed, line


@pytest.fixture(scope="module", autouse=True)
def summary():
    yield
    print()
    for line in RESULTS:
        print(line)


@pytest.fixture(scope="module")
def acc_cfg(fam, kappa_fixture):
    return hyp.config_for_family(
        fam, 0.01, 0.01, 0.1, master_seed=1, kappa=kappa_fixture, c=0.35, c_prime=0.45
    )


def brute_flags_fast(depths: np.ndarray, c_prime: float, tri: np.ndarray) -> np.ndarray:
    """O(n^2) definition check with a preallocated lower-triangle mask."""
    n = depths.size
    prefix = np.concatenate([[0.0], np.cumsum(c_prime - depths.astype(float))])
    window = prefix[1:][None, :] - prefix[:-1][:, None]  # [k, m] = sum over [k, m]
    ok = np.where(tri[:n, :n], window > 0, True)
    return ok.all(axis=0)


def test_criterion_01_hyperbolic_time_oracle_equivalence():
    rng = np.random.default_rng(2024)
    tri = np.tril(np.ones((200, 200), dtype=bool)).T  # k <= m entries
    start = time.monotonic()
    mismatches = 0
    total = 10_000
    for _ in range(total):
        n = int(rng.integers(1, 201))
        depths = rng.integers(0, 9, size=n)
        c_prime = float(rng.uniform(0.05, 3.0))
        fast = hyp._hyperbolic_flags(depths, c_prime)
        brute = brute_flags_fast(depths, c_prime, tri)
        if not np.array_equal(fast, brute):
            mismatches += 1
    elapsed = time.monotonic() - start
    record(
        "01 oracle equivalence",
        mismatches == 0 and elapsed < 10.0,
        f"{total} sequences, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_02_pliss_count():
    rng = np.random.default_rng(7)
    violations = 0
    accepted = 0
    while accepted < 1000:
        n = int(rng.integers(5, 200))
        big_a = 1.0
        c1 = float(rng.uniform(-1.0, 0.4))
        c2 = float(rng.uniform(c1 + 0.05, min(big_a, c1 + 0.8)))
        a = rng.uniform(c1 - 0.5, big_a, size=n)
        if a.sum() <= c2 * n:
            continue
        accepted += 1
        times = hyp.pliss_times(a, c1, c2, big_a)
        theta = (c2 - c1) / (big_a - c1)
        if len(times) < theta * n:
            violations += 1
    record("02 pliss count", violations == 0, f"1000 sequences, {violations} violations")


def test_criterion_03_hyperbolic_time_density(fam, acc_cfg):
    n = 100
    need = 10_000
    ens = orbit.ensemble_orbits(
        fam, 1, 0.01, n, 12_000, acc_cfg.delta, keep_points=False
    )
    sums = ens.depths.sum(axis=1)
    good = np.flatnonzero(sums < acc_cfg.c * n)[:need]
    assert good.size == need, f"only {good.size} qualifying samples"
    prefix = np.concatenate(
        [np.zeros((good.size, 1)), np.cumsum(acc_cfg.c_prime - ens.depths[good].astype(float), axis=1)],
        axis=1,
    )
    run_max = np.maximum.accumulate(prefix[:, :-1], axis=1)
    counts = (prefix[:, 1:] > run_max).sum(axis=1)
    bound = (1.0 - acc_cfg.c / acc_cfg.c_prime) * n
    worst = int(counts.min())
    record(
        "03 hyperbolic-time density",
        bool(np.all(counts >= bound)),
        f"{need} samples, min count {worst} >= {bound:.2f}",
    )


def test_criterion_04_tail_fits(fam, acc_cfg):
    start = time.monotonic()
    table = hyp.tail_statistics(fam, 1, 0.01, acc_cfg, samples=100_000, n_max=60)
    elapsed = time.monotonic() - start

    def fit(counts):
        mask = counts >= 100
        _, slope, r2 = linear_fit(
            table.n[mask].astype(float), np.log(counts[mask] / table.total)
        )
        return slope, r2, int(mask.sum())

    results = {
        "E_n": fit(table.bad_members),
        "h": fit(table.h_survivors),
        "h*": fit(table.hstar_survivors),
    }
    ok = all(slope < 0 and r2 >= 0.9 for slope, r2, _ in results.values())
    detail = ", ".join(
        f"{k}: slope={s:.4f} R2={r:.3f} ({m} pts)" for k, (s, r, m) in results.items()
    )
    record("04 tail fits", ok and elapsed < 300.0, f"{detail}, {elapsed:.0f}s")


def test_criterion_05_partition_certification(fam, acc_cfg, noisy_stream):
    part = tower.build_return_partition(fam, noisy_stream, acc_cfg, 25, seed_grid=4096)
    n_el = len(part.elements)
    max_res = max(e.residual for e in part.elements)
    disjoint = all(a.right < b.left for a, b in zip(part.elements, part.elements[1:]))
    gcd = tower._gcd_all([e.tau for e in part.elements])
    ns = np.arange(1, 26).astype(float)
    tails = np.array([tower.tail_measure(part, int(n)) for n in ns])
    _, slope, r2 = linear_fit(ns, np.log(tails))
    ok = n_el >= 50 and max_res <= 1e-9 and disjoint and gcd == 1 and slope < 0 and r2 >= 0.85
    record(
        "05 partition certification",
        ok,
        f"{n_el} elements, residual {max_res:.1e}, disjoint={disjoint}, "
        f"gcd={gcd}, tail slope={slope:.4f} R2={r2:.3f}",
    )


def test_criterion_06_tower_semiconjugacy(fam, acc_cfg, noisy_stream):
    cache = tower.PartitionCache(fam, noisy_stream, acc_cfg, 25, seed_grid=1024)
    orbits, attempts = tower.sample_tower_orbits(cache, 1000, 50, seed=99)
    t_path = noisy_stream.values(0, 50)
    # Direct orbits of every starting point, and each state's projection
    # T^level(x) from its base_time, all states stepped together.
    direct = np.empty((len(orbits), 51))
    direct[:, 0] = [states[0].x for states in orbits]
    for k in range(50):
        direct[:, k + 1] = mc.evaluate(fam, t_path[k], direct[:, k])
    states = [s for states in orbits for s in states]
    proj = np.array([s.x for s in states])
    level = np.array([s.level for s in states])
    base_time = np.array([s.base_time for s in states])
    for j in range(int(level.max())):
        live = level > j
        proj[live] = mc.evaluate(fam, t_path[base_time[live] + j], proj[live])
    worst = float(np.max(np.abs(proj - direct.ravel())))
    record(
        "06 tower semiconjugacy",
        worst <= 1e-8,
        f"1000 orbits of length 50 ({attempts} attempts), max residual {worst:.1e}",
    )


def test_criterion_07_exact_cancellation(fam, noisy_stream):
    grid = ms.UniformGrid(2**9)
    worst = 0.0
    for direction in ("forward", "backward"):
        for phi, psi in (
            (lambda x: x, lambda x: np.ones_like(x)),
            (lambda x: np.ones_like(x), np.sign),
        ):
            series = ms.quenched_correlation(
                fam, noisy_stream, phi, psi, 40,
                method="ulam", grid=grid, m_past=60, direction=direction,
            )
            worst = max(worst, float(series.values.max()))
    record("07 exact cancellation", worst <= 1e-10, f"max |C_n| = {worst:.1e}")


def test_criterion_08_decay_fit(fam, noisy_stream):
    start = time.monotonic()
    grid = ms.UniformGrid(2**11)
    kw = dict(method="ulam", grid=grid, m_past=200, burn_in=5)
    fwd = ms.quenched_correlation(fam, noisy_stream, lambda x: x, np.sign, 40,
                                  direction="forward", **kw)
    bwd = ms.quenched_correlation(fam, noisy_stream, lambda x: x, np.sign, 40,
                                  direction="backward", **kw)
    elapsed = time.monotonic() - start
    _, bf, r2f = fwd.fitted()
    _, bb, r2b = bwd.fitted()
    agree = abs(bf - bb) <= 0.25 * max(bf, bb)
    ok = bf > 0 and bb > 0 and r2f >= 0.9 and r2b >= 0.9 and agree and elapsed < 600.0
    record(
        "08 decay fit",
        ok,
        f"forward b={bf:.3f} R2={r2f:.3f}, backward b={bb:.3f} R2={r2b:.3f}, "
        f"gap {abs(bf-bb)/max(bf,bb):.1%}, {elapsed:.0f}s",
    )


def test_criterion_09_numerics_hygiene(fam, noisy_stream):
    rng = np.random.default_rng(17)
    xs = np.concatenate([rng.uniform(1e-3, 1.0, 5000), -rng.uniform(1e-3, 1.0, 5000)])
    ts = rng.uniform(-0.1, 0.1, xs.size)

    # derivative vs central differences at step 1e-6
    h = 1e-6
    fd = (mc.evaluate(fam, ts, xs + h) - mc.evaluate(fam, ts, xs - h)) / (2 * h)
    dv = mc.derivative(fam, ts, xs)
    rel_d = float(np.max(np.abs(fd - dv) / np.abs(dv)))

    # schwarzian vs the finite-difference composition
    hh = 1e-5 * np.maximum(np.abs(xs), 1e-2)
    hh = np.minimum(hh, np.abs(xs) / 4)
    u = lambda y: mc.second_derivative(fam, ts, y) / mc.derivative(fam, ts, y)
    du = (u(xs + hh) - u(xs - hh)) / (2 * hh)
    sw_oracle = du - 0.5 * u(xs) ** 2
    sw = mc.schwarzian(fam, ts, xs)
    rel_s = float(np.max(np.abs(sw - sw_oracle) / np.abs(sw)))

    # cocycle additivity on random splits
    trace = orbit.iterate(fam, noisy_stream, 0.37, 400, 0.01)
    worst_split = 0.0
    for _ in range(1000):
        k, m = sorted(rng.integers(0, 401, size=2))
        if k == m:
            continue
        via = trace.log_der[m] - trace.log_der[k]
        direct = float(
            np.sum(
                np.log(
                    mc.derivative(fam, noisy_stream.values(k, m - k), trace.points[k:m])
                )
            )
        )
        denom = max(abs(direct), 1e-30)
        worst_split = max(worst_split, abs(via - direct) / denom)

    # Ulam rows stochastic
    grid = ms.UniformGrid(2**11)
    row_dev = 0.0
    for t in (0.0, 0.004, -0.009):
        mat = ms.ulam_row_operator(fam, t, grid)
        row_dev = max(row_dev, float(np.abs(np.asarray(mat.sum(axis=1)).ravel() - 1).max()))

    ok = rel_d <= 1e-6 and rel_s <= 1e-4 and worst_split <= 1e-9 and row_dev <= 1e-12
    record(
        "09 numerics hygiene",
        ok,
        f"fd rel {rel_d:.1e}, schwarzian rel {rel_s:.1e}, "
        f"cocycle rel {worst_split:.1e}, row dev {row_dev:.1e}",
    )


def test_criterion_10_reproducibility(tmp_path):
    specs = [
        (
            "simulate-orbit",
            ["simulate-orbit", "--x0", "0.4", "--n", "200"],
            ["orbit.csv"],
        ),
        (
            "hyperbolic-tails",
            [
                "hyperbolic-tails", "--samples", "20000", "--n-max", "40",
                "--c", "0.35", "--c-prime", "0.45",
            ],
            ["hyperbolic_tails.csv", "hyperbolic_return_tails.csv", "hyperbolic_tails_fits.json"],
        ),
    ]
    all_ok = True
    details = []
    for name, args, artifacts in specs:
        base = tmp_path / f"{name}-base"
        assert cli.main(args + ["--out", str(base), "--workers", "1"]) == 0
        manifest = base / f"manifest-{name}.json"
        for workers in (1, 8):
            redo = tmp_path / f"{name}-w{workers}"
            assert cli.main([
                "rerun", "--manifest", str(manifest), "--out", str(redo),
                "--workers", str(workers),
            ]) == 0
            same = all(
                (base / a).read_bytes() == (redo / a).read_bytes() for a in artifacts
            )
            all_ok &= same
            details.append(f"{name}@w{workers}:{'ok' if same else 'DIFF'}")
    record("10 reproducibility", all_ok, ", ".join(details))
