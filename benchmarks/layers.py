"""Spans, library-call replays and per-layer probes for the traced run.

Spans are recorded from the benchmark's own files around calls into the
public functions of each rovella module; the package itself is not
instrumented. A span named ``<module>.<function>`` belongs to that module's
layer, so per-module self times can be summed from the span tree.
"""

from __future__ import annotations

import csv
import time
import warnings
from contextlib import contextmanager
from statistics import median

import numpy as np

from rovella import hyperbolic, map_core, measures, noise, numerics, orbit, tower
from rovella.errors import InvalidState

MODULES = ("noise", "map_core", "numerics", "orbit", "hyperbolic", "tower", "measures", "cli")
SINGULAR_SHARE = 1e-3  # acceptance bound on the share of orbits hitting the singularity


def _dur(rec: dict) -> float:
    return rec["end"] - rec["start"]


class Tracer:
    """In-memory span recorder; spans are written out only when the run ends."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def self_times(self) -> list[float]:
        """Per-span self time: duration minus the time its children cover."""
        own = [_dur(s) for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= _dur(s)
        return own

    def module_self_times(self) -> dict[str, float]:
        own = self.self_times()
        out = dict.fromkeys(MODULES, 0.0)
        for s in self.spans:
            module = s["name"].split(".", 1)[0]
            if module in out:
                out[module] += own[s["id"]]
        return out


# -- replays of the library calls each CLI command makes -----------------------


def family_from_config(cfg: dict) -> map_core.MapFamily:
    fam = cfg["family"]
    if fam["kind"] == "fixture":
        return map_core.fixture_family(s=fam.get("s", 2.0), eps_max=fam.get("eps_max", 0.1))
    return map_core.table_family(
        fam["pos"]["x"], fam["pos"]["y"], fam["neg"]["x"], fam["neg"]["y"],
        s=fam["s"], k1=fam["K1"], k2=fam["K2"], eps_max=fam.get("eps_max", 0.1),
    )


def _hyperbolic_config(tr: Tracer, cfg: dict, family) -> hyperbolic.HyperbolicConfig:
    hy = cfg["hyperbolic"]
    delta0 = hy.get("delta0")
    if delta0 is None:
        delta0 = 2.0 * cfg["tower"]["delta_prime"]
    return tr.call(
        "hyperbolic.config_for_family", hyperbolic.config_for_family,
        family, cfg["noise"]["eps"], hy["delta"], delta0,
        master_seed=cfg["noise"]["seed"], kappa=hy.get("kappa"), c=hy.get("c"),
        c_prime=hy.get("c_prime"), prefactor=hy.get("prefactor", 1.0),
    )


def replay(tr: Tracer, manifest: dict) -> dict:
    """Repeat the library calls behind one CLI command, from its manifest.

    Returns counters the correctness gates use (such as singular hits).
    """
    command, cfg, args = manifest["command"], manifest["config"], manifest["command_args"]
    seed, eps = cfg["noise"]["seed"], cfg["noise"]["eps"]
    maker = "fixture_family" if cfg["family"]["kind"] == "fixture" else "table_family"
    family = tr.call(f"map_core.{maker}", family_from_config, cfg)
    if command in ("hyperbolic-tails", "bad-set-tails"):
        hcfg = _hyperbolic_config(tr, cfg, family)
        table = tr.call(
            "hyperbolic.tail_statistics", hyperbolic.tail_statistics,
            family, seed, eps, hcfg, samples=args["samples"], n_max=args["n_max"],
            workers=manifest["workers"],
        )
        return {"singular_hits": int(table.singular_hits), "total": int(table.total)}
    if command == "simulate-orbit":
        strm = tr.call("noise.stream", noise.stream, seed, eps)
        tr.call("orbit.iterate", orbit.iterate, family, strm, args["x0"], args["n"],
                cfg["hyperbolic"]["delta"])
        return {}
    if command == "verify-family":
        tr.call("map_core.verify_conditions", map_core.verify_conditions, family)
        return {}
    if command in ("build-partition", "certify-tower"):
        hcfg = _hyperbolic_config(tr, cfg, family)
        strm = tr.call("noise.stream", noise.stream, seed, eps)
        part = tr.call(
            "tower.build_return_partition", tower.build_return_partition,
            family, strm, hcfg, cfg["tower"]["n_max"], seed_grid=cfg["tower"]["seed_grid"],
        )
        if command == "certify-tower":
            tr.call("tower.certify_axioms", tower.certify_axioms, part)
        else:
            with tr.span("tower.tail_measure"):
                for n in range(part.horizon + 1):
                    tower.tail_measure(part, n)
        return {}
    mcfg = cfg["measures"]
    if command == "density":
        strm = tr.call("noise.stream", noise.stream, seed, eps)
        tr.call("measures.equivariant_density", measures.equivariant_density,
                family, strm, mcfg["m_past"], measures.UniformGrid(mcfg["grid_m"]))
        return {}
    if command == "correlation":
        strm = tr.call("noise.stream", noise.stream, seed, eps)
        phi, _ = measures.OBSERVABLES[mcfg["phi"]]
        psi, _ = measures.OBSERVABLES[mcfg["psi"]]
        directions = ["forward", "backward"] if mcfg["direction"] == "both" else [mcfg["direction"]]
        for direction in directions:
            tr.call(
                "measures.quenched_correlation", measures.quenched_correlation,
                family, strm, phi, psi, mcfg["n_max"], method=mcfg["method"],
                grid=measures.UniformGrid(mcfg["grid_m"]), m_past=mcfg["m_past"],
                direction=direction, burn_in=mcfg["burn_in"],
            )
        return {}
    if command == "fit":
        with open(args["input"]) as fh:
            values = np.array([float(row[args["column"]]) for row in csv.DictReader(fh)])
        tr.call("measures.fit_exponential", measures.fit_exponential, values,
                burn_in=args["burn_in"])
        return {}
    raise ValueError(f"no replay for command {command!r}")


# -- per-layer probes ----------------------------------------------------------

EPS, DELTA, DELTA0, C, C_PRIME = 0.01, 0.01, 0.1, 0.35, 0.45
VECTOR_POINTS = 100_000
PROBE_N_MAX = 10  # partition horizon of the tower probes
ULAM_GRID = 2048
ULAM_INDICES = 40
CORRELATION_N_MAX = 15
CORRELATION_M_PAST = 15


def _timed(tr: Tracer, name: str, repeat: int, fn, *args, **kwargs):
    """Median span duration over `repeat` calls, and the last result."""
    durations = []
    out = None
    for _ in range(repeat):
        with tr.span(name) as rec:
            out = fn(*args, **kwargs)
        durations.append(_dur(rec))
    return median(durations), out


def _points(seed: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, count)
    x[x == 0.0] = 0.5
    return rng.uniform(-EPS, EPS, count), x


def probe_layers(tr: Tracer, family, seed: int) -> tuple[dict[str, float], list[tuple]]:
    """Time the public functions of every module on `family`.

    Returns the per-layer metrics and the gates the probes check on the way.
    """
    m: dict[str, float] = {}
    gates: list[tuple] = []
    strm = noise.stream(seed, EPS)
    ts, xs = _points(seed, VECTOR_POINTS)

    with tr.span("probe.noise"):
        dt, _ = _timed(tr, "noise.ensemble_noise", 3, noise.ensemble_noise,
                       seed, EPS, VECTOR_POINTS, 61, start=-1)
        m["noise.ensemble_draws_per_s"] = VECTOR_POINTS * 61 / dt
        count = 20_000
        dt, _ = _timed(tr, "noise.NoiseStream.get", 3, lambda: [strm.get(i) for i in range(count)])
        m["noise.get_us"] = dt / count * 1e6

    with tr.span("probe.map_core"):
        count = 5_000
        pairs = list(zip(ts[:count].tolist(), xs[:count].tolist()))
        dt, _ = _timed(tr, "map_core.evaluate[scalar]", 3,
                       lambda: [map_core.evaluate(family, t, x) for t, x in pairs])
        m["map_core.scalar_eval_us"] = dt / count * 1e6
        reps = 2_000
        x64 = xs[:64]
        dt, _ = _timed(tr, "map_core.evaluate[64]", 3,
                       lambda: [map_core.evaluate(family, 0.005, x64) for _ in range(reps)])
        m["map_core.batch_eval_us"] = dt / reps * 1e6
        dt, _ = _timed(tr, "map_core.evaluate[vector]", 5, map_core.evaluate, family, ts, xs)
        m["map_core.vector_eval_ms"] = dt * 1e3

        def raw_fixture(t, x):
            # The fixture formula in plain numpy, the floor for any dispatch.
            return np.clip(np.sign(x) * ((2.0 - np.abs(t)) * np.abs(x) ** family.s - 1.0), -1, 1)

        raw, _ = _timed(tr, "probe.raw_fixture", 5, raw_fixture, ts, xs)
        m["map_core.vector_overhead_ratio"] = dt / raw

    def on_pos_branch(t):
        return lambda x: map_core.evaluate(family, t, x)

    with tr.span("probe.numerics"):
        dt, _ = _timed(tr, "numerics.bisect_increasing[64]", 5, numerics.bisect_increasing,
                       on_pos_branch(0.005), np.linspace(-0.05, 0.05, 64), 1e-300, 1.0,
                       xtol=0.0, ftol=1e-13, max_iter=110)
        m["numerics.bisect_narrow_ms"] = dt * 1e3
        hi = float(map_core.evaluate(family, 0.005, 1.0))
        edges = np.linspace(-1.0, 1.0, ULAM_GRID + 1)
        targets = edges[(edges > -1.0 + 1e-15) & (edges < hi - 1e-15)]
        dt, _ = _timed(tr, "numerics.bisect_increasing[2048]", 3, numerics.bisect_increasing,
                       on_pos_branch(0.005), targets, 1e-300, 1.0, xtol=0.0, ftol=1e-14)
        m["numerics.bisect_wide_ms"] = dt * 1e3

    with tr.span("probe.orbit"):
        steps = 2_000
        dt, _ = _timed(tr, "orbit.iterate", 3, orbit.iterate, family, strm, 0.4, steps, DELTA)
        m["orbit.iterate_steps_per_s"] = steps / dt
        samples, n = 10_000, 60
        dt, _ = _timed(tr, "orbit.ensemble_orbits", 3, orbit.ensemble_orbits,
                       family, seed, EPS, n, samples, DELTA, keep_points=False)
        m["orbit.ensemble_steps_per_s"] = samples * n / dt
        dt, _ = _timed(tr, "orbit.return_depths_array", 5, orbit.return_depths_array,
                       family, ts, xs, DELTA)
        m["orbit.return_depths_ms"] = dt * 1e3

    with tr.span("probe.hyperbolic"):
        dt, kappa = _timed(tr, "hyperbolic.fit_expansion_rate", 1,
                           hyperbolic.fit_expansion_rate, family, seed, EPS, DELTA)
        m["hyperbolic.kappa_fit_s"] = dt
        hcfg = hyperbolic.config_for_family(family, EPS, DELTA, DELTA0, master_seed=seed,
                                            kappa=kappa, c=C, c_prime=C_PRIME)
        samples = 20_000
        one, serial = _timed(tr, "hyperbolic.tail_statistics[1 chunk]", 1,
                             hyperbolic.tail_statistics, family, seed, EPS, hcfg, samples, 60)
        m["hyperbolic.tail_orbits_per_s"] = samples / one
        m["hyperbolic.singular_hits"] = serial.singular_hits
        gates.append(("probe_singular_hits", serial.singular_hits <= SINGULAR_SHARE * serial.total,
                      f"{serial.singular_hits} of {serial.total}"))
        # The same orbits in two chunks on a 2-worker spawn pool.
        two, pooled = _timed(tr, "hyperbolic.tail_statistics[2 chunks, 2 workers]", 1,
                             hyperbolic.tail_statistics, family, seed, EPS, hcfg, samples, 60,
                             workers=2, chunk=samples // 2)
        m["hyperbolic.pool_speedup"] = one / two
        same = all(np.array_equal(getattr(serial, k), getattr(pooled, k))
                   for k in ("h_survivors", "hstar_survivors", "bad_members"))
        gates.append(("probe_pool_identical", same, "2 chunks on 2 workers vs 1 chunk"))

    with tr.span("probe.tower"):
        dt, part = _timed(tr, "tower.build_return_partition", 1, tower.build_return_partition,
                          family, strm, hcfg, PROBE_N_MAX, seed_grid=4096)
        m["tower.build_s"] = dt
        m["tower.candidates_seen"] = part.candidates_seen
        m["tower.candidates_rejected"] = part.candidates_rejected
        m["tower.elements"] = len(part.elements)
        m["tower.admit_ratio"] = len(part.elements) / max(part.candidates_seen, 1)
        m["tower.base_coverage"] = 1.0 - part.uncovered / part.base_measure
        dt, _ = _timed(tr, "tower.verify_markov", 3, tower.verify_markov, part)
        m["tower.verify_markov_ms"] = dt * 1e3
        steps = 0

        def walk():
            nonlocal steps
            steps = 0
            for i, e in enumerate(part.elements):
                state = tower.TowerState(i, 0, e.left + 0.5 * e.width)
                for _ in range(e.tau):
                    try:
                        state = tower.tower_step(part, state)
                    except InvalidState:
                        break
                    steps += 1

        dt, _ = _timed(tr, "tower.tower_step", 3, walk)
        m["tower.step_us"] = dt / max(steps, 1) * 1e6
        cache = tower.PartitionCache(family, strm, hcfg, PROBE_N_MAX,
                                     seed_grid=max(512, part.seed_grid // 4))
        dt, _ = _timed(tr, "tower.PartitionCache.get[cold]", 1, cache.get, 1)
        m["tower.cache_get_s"] = dt
        tr.call("tower.certify_axioms[cold]", tower.certify_axioms, part, cache)
        dt, report = _timed(tr, "tower.certify_axioms[warm]", 1, tower.certify_axioms, part, cache)
        m["tower.certify_warm_s"] = dt
        m["tower.distortion_pairs"] = report.distortion_pairs

    with tr.span("probe.measures"):
        grid = measures.UniformGrid(ULAM_GRID)
        ops = measures.OperatorCache(family, strm, grid)
        builds = []
        worst = 0.0
        for i in range(1, ULAM_INDICES + 1):
            with tr.span("measures.OperatorCache.get") as rec:
                mat = ops.get(-i)
            builds.append(_dur(rec))
            worst = max(worst, float(np.max(np.abs(mat.sum(axis=1) - 1.0))))
        gates.append(("probe_rows_stochastic", worst <= 1e-12, f"max |row sum - 1| {worst:.1e}"))
        q50, q90 = np.percentile(builds, [50, 90])
        m["measures.ulam_build_ms.p50"] = q50 * 1e3
        m["measures.ulam_build_ms.p90"] = q90 * 1e3
        masses = np.full(grid.m, 1.0 / grid.m)
        reps = 10

        def pushes():
            for _ in range(reps):
                for i in range(1, ULAM_INDICES + 1):
                    ops.push(masses, -i)

        dt, _ = _timed(tr, "measures.OperatorCache.push", 3, pushes)
        m["measures.ulam_push_us"] = dt / (reps * ULAM_INDICES) * 1e6
        phi, _ = measures.OBSERVABLES["x"]
        psi, _ = measures.OBSERVABLES["sign"]
        for direction in ("forward", "backward"):
            dt, _ = _timed(tr, f"measures.quenched_correlation[{direction}]", 1,
                           measures.quenched_correlation, family, strm, phi, psi,
                           CORRELATION_N_MAX, method="ulam", grid=grid,
                           m_past=CORRELATION_M_PAST, direction=direction)
            m[f"measures.correlation_{direction}_s"] = dt
        dt, _ = _timed(tr, "measures.quenched_correlation[monte_carlo]", 1,
                       measures.quenched_correlation, family, strm, phi, psi,
                       CORRELATION_N_MAX, method="monte_carlo", m_past=CORRELATION_M_PAST)
        m["measures.mc_correlation_s"] = dt
    return m, gates


def run_probes(tr: Tracer, family, seed: int) -> tuple[dict[str, float], list[tuple], int]:
    """probe_layers with numpy RuntimeWarnings counted instead of printed."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        metrics, gates = probe_layers(tr, family, seed)
    return metrics, gates, sum(issubclass(w.category, RuntimeWarning) for w in caught)
