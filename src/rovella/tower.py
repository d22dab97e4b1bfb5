"""Random return partition over the base ball around the singularity, the
induced tower dynamics, and numeric certification of the tower axioms.

The base is B(0, delta') with delta' = delta0 / 2. A candidate element at
return time k is the pullback of the base along the branch of a seed orbit
whose time k is hyperbolic and whose image lies inside the base; each element
maps diffeomorphically onto the whole base after exactly k steps, which is
the Markov property the tower needs. Elements are admitted greedily by
increasing return time; the smallest distinct return times, from the first
four on up to the first coprime prefix, carry the aperiodicity certificate
(`_seeded_times`). Partial coverage is the expected outcome: the
uncovered remainder is reported, never hidden.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import CapExceeded, InvalidState, SingularHit
from .hyperbolic import HyperbolicConfig, _hyperbolic_flags
from .map_core import ArrayLike, MapFamily
from .noise import NoiseStream, shift as shift_stream
from .numerics import linear_fit
from .orbit import _depths, pull_back, step, step_values

BOUNDARY_MARGIN = 1e-9
MARKOV_TOL = 1e-10
HORIZON_CAP = 60  # largest horizon a partition is built to
CACHE_REFINE_PASSES = 2  # refinement rounds of each `PartitionCache` build
CACHE_GAP_RESOLUTION = 2e-5  # gap width per refinement seed of those builds
MARKOV_SAMPLES = 100  # interior points per element in `verify_markov`
DISTORTION_ELEMENTS = 40  # widest elements that seed the distortion pairs


@dataclass(frozen=True)
class PartitionElement:
    """One-sided subinterval of the base mapping onto the base in tau steps."""

    left: float
    right: float
    tau: int
    branch_id: str
    residual: float

    @property
    def width(self) -> float:
        return self.right - self.left


@dataclass
class ReturnPartition:
    """Disjoint Markov elements of the base with their return times.

    Built per noise realization; quenched experiments rebuild per omega. The
    partition keeps references to its inputs so elements can be re-verified
    and the induced dynamics replayed.
    """

    family: MapFamily
    stream: NoiseStream
    cfg: HyperbolicConfig
    horizon: int
    elements: list[PartitionElement]
    seed_grid: int
    candidates_seen: int = 0
    candidates_rejected: int = 0
    dead_seeds: int = 0  # seed orbits that died within the horizon, all passes
    time_origin: int = 0  # absolute time of this partition's noise origin
    base_radius: float = field(init=False)
    uncovered: float = field(init=False)

    def __post_init__(self) -> None:
        self.base_radius = self.cfg.delta0 / 2.0
        self.uncovered = self.base_measure - sum(e.width for e in self.elements)
        # A trailing sentinel answers index -1: no right end, return time 0.
        self._lefts = np.array([e.left for e in self.elements])
        self._rights = np.array([*(e.right for e in self.elements), -np.inf])
        self._taus = np.array([*(e.tau for e in self.elements), 0], dtype=np.int64)

    @property
    def base_measure(self) -> float:
        return 2.0 * self.base_radius

    def locate(self, x: ArrayLike) -> np.ndarray:
        """Index of the element holding each x; -1 in the uncovered part and at NaN."""
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self._lefts, x, side="right") - 1
        return np.where(x <= self._rights[idx], idx, -1)


def _gcd_all(values) -> int:
    return reduce(math.gcd, values) if values else 0


def _seeded_times(taus) -> list[int]:
    """The aperiodicity certificate: the smallest distinct return times, at
    least four, up to the first prefix whose gcd is 1; all of them when no
    prefix is coprime, as when fewer than four exist."""
    times = sorted(set(taus))
    for n in range(4, len(times) + 1):
        if _gcd_all(times[:n]) == 1:
            return times[:n]
    return times


def _images(
    family: MapFamily, t_path: np.ndarray, x: ArrayLike, tau: ArrayLike, start: ArrayLike = 0
) -> np.ndarray:
    """Each row x[i] after tau[i] steps of `step_values`, step j on noise
    t_path[start[i] + j]; tau and start are per row or shared. One call a
    step on the rows still going; a dead row stays NaN."""
    x = np.array(x, dtype=float)
    tau = np.broadcast_to(tau, x.shape)
    for j in range(int(tau.max(initial=0))):
        live = np.flatnonzero(tau > j)
        t = t_path[start + j] if np.ndim(start) == 0 else t_path[start[live] + j]
        x[live] = step_values(family, t, x[live])
    return x


def tail_measure(partition: ReturnPartition, n: int) -> float:
    """Base measure not covered by elements with return time <= n."""
    if n < 0 or n > partition.horizon:
        raise ValueError("n out of range for this partition")
    covered = sum(e.width for e in partition.elements if e.tau <= n)
    return partition.base_measure - covered


class _Admitted:
    """Admitted elements kept sorted by left endpoint for O(log n) queries."""

    def __init__(self) -> None:
        self.elements: list[PartitionElement] = []
        self._lefts: list[float] = []
        self._rights: list[float] = []

    def covered(self, x: np.ndarray) -> np.ndarray:
        # Position -1 reads the -inf sentinel, as in ReturnPartition.locate.
        rights = np.array([*self._rights, -np.inf])
        return x <= rights[np.searchsorted(self._lefts, x, side="right") - 1]

    def try_admit(self, e: PartitionElement) -> bool:
        pos = bisect.bisect_right(self._lefts, e.left)
        if (pos > 0 and self._rights[pos - 1] >= e.left) or (
            pos < len(self.elements) and self._lefts[pos] <= e.right
        ):
            return False
        self.elements.insert(pos, e)
        self._lefts.insert(pos, e.left)
        self._rights.insert(pos, e.right)
        return True

    def gaps(self, radius: float) -> np.ndarray:
        """(lo, hi) rows of the uncovered gaps wider than 16 BOUNDARY_MARGIN,
        kept BOUNDARY_MARGIN inside the base."""
        lo = np.array([-radius, *self._rights])
        hi = np.array([*self._lefts, radius])
        wide = hi - lo > 16 * BOUNDARY_MARGIN
        return np.stack(
            [
                np.maximum(lo[wide], -radius + BOUNDARY_MARGIN),
                np.minimum(hi[wide], radius - BOUNDARY_MARGIN),
            ]
        )


def _candidate_scan(
    family: MapFamily,
    cfg: HyperbolicConfig,
    radius: float,
    t_path: np.ndarray,
    seeds: np.ndarray,
    n_max: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Simulate seeds under the shared noise path.

    Returns (signs, candidate, dead), step-major: signs[j, i] is the side of
    seed i before step j + 1, and candidate[k-1, i] marks step k as a
    hyperbolic time of seed i with the image inside the base. A seed that
    dies within the horizon (see `orbit.step`) yields no candidate; `dead`
    counts those seeds.
    """
    count = seeds.size
    x = seeds
    signs = np.empty((n_max, count), dtype=np.int8)
    in_base = np.empty((n_max, count), dtype=bool)
    depths = np.empty((n_max, count), dtype=np.int64)
    for k in range(n_max):
        signs[k] = np.where(x > 0, 1, -1)
        x, _, prod = step(family, t_path[k], x)
        depths[k] = _depths(prod, cfg.delta)
        in_base[k] = np.abs(x) < radius
    alive = ~np.isnan(x)
    candidate = in_base & _hyperbolic_flags(depths.T, cfg.c_prime).T & alive
    return signs, candidate, int(count - alive.sum())


def _admissible(lo: np.ndarray, hi: np.ndarray, radius: float, cap: ArrayLike) -> np.ndarray:
    """Nonempty pullbacks [lo, hi] that clear the base boundary and 0 by
    BOUNDARY_MARGIN, so lie on one side of 0, and fit the cap (per row or
    shared); NaN fails."""
    return (
        (lo < hi)
        & (lo >= -radius + BOUNDARY_MARGIN)
        & (hi <= radius - BOUNDARY_MARGIN)
        & ((lo > BOUNDARY_MARGIN) | (hi < -BOUNDARY_MARGIN))
        & ((hi - lo) <= cap)
    )


def _levels(
    signs: np.ndarray, candidate: np.ndarray
) -> list[tuple[np.ndarray, list[bytes], np.ndarray, np.ndarray]]:
    """Per return time k = 1..n_max, the candidate rows and their distinct
    branches (sign itineraries up to step k): (rows, keys, label, reps). A
    key is k in two bytes and then the packed itinerary; label is each row's
    index into the keys, and reps holds each key's first row."""
    levels = []
    for k, marked in enumerate(candidate, start=1):
        rows = np.flatnonzero(marked)
        bits = np.ascontiguousarray(np.packbits(signs[:k, rows] > 0, axis=0).T)
        packed = bits.view(f"V{bits.shape[1]}").ravel()
        _, first, label = np.unique(packed, return_index=True, return_inverse=True)
        keys = [k.to_bytes(2, "big") + key for key in packed[first].tolist()]
        levels.append((rows, keys, label, rows[first]))
    return levels


def _pass_elements(
    family: MapFamily,
    cfg: HyperbolicConfig,
    radius: float,
    t_path: np.ndarray,
    signs: np.ndarray,
    levels: list,
    known: set[bytes],
) -> dict[bytes, PartitionElement | None]:
    """Pull back and verify every branch of a pass's `_levels` that is not in
    `known`, all return times at once: one `pull_back` on per-row itinerary
    lengths, one `_admissible` mask and one `_images` residual. Maps each
    branch key to its verified element, or None when rejected. A branch's
    pullback does not depend on which seed row stands for it."""
    keys: list[bytes] = []
    reps, taus = [], []
    for k, (_, level_keys, _, level_reps) in enumerate(levels, start=1):
        fresh = [i for i, key in enumerate(level_keys) if key not in known]
        keys += [level_keys[i] for i in fresh]
        reps.append(level_reps[fresh])
        taus += [k] * len(fresh)
    if not keys:
        return {}
    tau = np.array(taus, dtype=np.int64)
    sides = signs[:, np.concatenate(reps)].T
    lo, hi = pull_back(
        family,
        t_path,
        np.vstack([sides, sides]),
        np.repeat([-radius, radius], len(keys)),
        np.tile(tau, 2),
    ).reshape(2, -1)
    caps = np.array([cfg.radius_cap(k) for k in range(len(levels) + 1)])
    ok = np.flatnonzero(_admissible(lo, hi, radius, caps[tau]))
    # Forward residual of both endpoints.
    w = _images(family, t_path, np.concatenate([lo[ok], hi[ok]]), np.tile(tau[ok], 2))
    res = np.maximum(np.abs(w[: ok.size] + radius), np.abs(w[ok.size :] - radius))
    out: dict[bytes, PartitionElement | None] = dict.fromkeys(keys)
    for i, r in zip(ok.tolist(), res.tolist()):
        if r <= MARKOV_TOL:  # a NaN residual (dead endpoint) fails too
            k = taus[i]
            out[keys[i]] = PartitionElement(
                float(lo[i]), float(hi[i]), k, f"{k}:{keys[i][2:].hex()}", r
            )
    return out


def build_return_partition(
    family: MapFamily,
    stream: NoiseStream,
    cfg: HyperbolicConfig,
    n_max: int,
    seed_grid: int = 4096,
    refine_passes: int = 6,
    gap_resolution: float = 5e-6,
) -> ReturnPartition:
    """Greedy construction of the return partition up to horizon n_max.

    Seeds a log-spaced grid in each half of the base, simulates all seed
    orbits under the shared noise path, and visits return times in
    increasing order: at each k, seeds whose time k is hyperbolic and whose
    image lies inside the base contribute one candidate per distinct branch
    (identical sign itinerary up to k); the candidate interval is the branch
    pullback of the base, verified for the Markov property (endpoint images
    within MARKOV_TOL of the base endpoints), one-sidedness, interior
    clearance of the boundary set and the hyperbolic-time radius cap, then
    admitted if disjoint from everything admitted at earlier times (ties at
    equal k resolved left to right; same-k branches are disjoint by
    construction, so the smallest-time elements enter unconditionally). The
    aperiodicity certificate is read off the return times (`_seeded_times`):
    the smallest distinct ones, at least four, up to the first coprime
    prefix, or all of them when no prefix is coprime.

    Each pass verifies its branches in one sweep before the greedy visit
    (`_pass_elements`): every branch of its candidate seeds that is not yet
    a counted candidate is pulled back and checked at once, so a pass makes
    at most n_max `invert_branch` calls and n_max `step_values` calls,
    whatever the number of return times. The visit then only looks branches
    up: a seed already covered at an earlier time still contributes nothing,
    and a branch counts as a candidate once, when the visit first reaches it.

    A fixed grid misses branches thinner than its spacing, so up to
    `refine_passes` deterministic refinement rounds drop fresh seeds into
    every uncovered gap (about one per gap_resolution of width, between 3
    and 256 per gap) and repeat; the result is a pure function of the
    inputs, so rebuilds are byte-reproducible.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max > HORIZON_CAP:
        raise CapExceeded(f"n_max={n_max} exceeds the refinement cap {HORIZON_CAP}")
    radius = cfg.delta0 / 2.0
    half = np.geomspace(radius * 1e-6, radius * (1.0 - 1e-9), seed_grid)
    seeds = np.concatenate([-half[::-1], half])
    t_path = stream.values(0, n_max)

    known: set[bytes] = set()
    admitted = _Admitted()
    candidates_seen = 0
    rejected = 0
    dead_seeds = 0

    for pass_no in range(refine_passes + 1):
        if pass_no > 0:
            lo, hi = admitted.gaps(radius)
            m = np.clip((hi - lo) / gap_resolution, 3, 256).astype(np.int64)
            gap = np.repeat(np.arange(m.size), m)
            i = np.arange(1, m.sum() + 1) - np.repeat(np.cumsum(m) - m, m)  # 1..m in a gap
            seeds = lo[gap] + (hi - lo)[gap] * (i / (m[gap] + 1.0))
            seeds = seeds[seeds != 0.0]
            if seeds.size == 0:
                break
        signs, candidate, dead = _candidate_scan(family, cfg, radius, t_path, seeds, n_max)
        dead_seeds += dead
        levels = _levels(signs, candidate)
        verified = _pass_elements(family, cfg, radius, t_path, signs, levels, known)
        added = 0
        for rows, keys, label, _ in levels:
            # The branches of the seeds not covered at earlier return times.
            seen = np.unique(label[~admitted.covered(seeds[rows])])
            fresh = [keys[i] for i in seen.tolist() if keys[i] not in known]
            known.update(fresh)
            candidates_seen += len(fresh)
            found = [e for e in map(verified.get, fresh) if e is not None]
            rejected += len(fresh) - len(found)
            for e in sorted(found, key=lambda e: e.left):
                if admitted.try_admit(e):
                    added += 1
                else:
                    rejected += 1
        if pass_no > 0 and added == 0:
            break

    return ReturnPartition(
        family=family,
        stream=stream,
        cfg=cfg,
        horizon=n_max,
        elements=admitted.elements,
        seed_grid=seed_grid,
        candidates_seen=candidates_seen,
        candidates_rejected=rejected,
        dead_seeds=dead_seeds,
    )


def verify_markov(partition: ReturnPartition) -> dict:
    """Independent re-check of every element: monotone interior, image onto base.

    Returns the worst endpoint residual and the count of monotonicity
    violations across MARKOV_SAMPLES interior points per element. All samples
    are stepped together, one `step_values` call a step. A sample that dies
    on the way (see `orbit.step_values`) makes its element non-monotone, and
    a dead endpoint makes the residual NaN, so the check fails.

    `max_residual` is not independent of the build: `linspace` keeps the
    element ends exactly, and they are stepped with the same noise and the
    same float64 `step_values` as the admission residual, so it repeats
    `max(e.residual)` bit for bit. Only `non_monotone` is new evidence.
    """
    elements = partition.elements
    taus = np.array([e.tau for e in elements], dtype=np.int64)
    n = MARKOV_SAMPLES
    xs = np.linspace([e.left for e in elements], [e.right for e in elements], n, axis=1)
    t_path = partition.stream.values(0, int(taus.max(initial=0)))
    xs = _images(partition.family, t_path, xs.ravel(), np.repeat(taus, n)).reshape(xs.shape)
    # np.max keeps a NaN residual; a NaN difference is not > 0.
    r = partition.base_radius
    worst = float(np.max(np.maximum(np.abs(xs[:, 0] + r), np.abs(xs[:, -1] - r)), initial=0.0))
    non_monotone = int(np.sum(~np.all(np.diff(xs, axis=1) > 0, axis=1)))
    return {"max_residual": worst, "non_monotone": non_monotone, "elements": len(elements)}


# -- tower dynamics -----------------------------------------------------------


@dataclass(frozen=True)
class TowerState:
    """Position in the tower: base coordinate, level, and entry time.

    base_time is the absolute orbit time at which the point entered the base;
    level counts steps climbed since. The projection to the interval is the
    orbit of x under the stream shifted to base_time, run for `level` steps.
    """

    element: int
    level: int
    x: float
    base_time: int = 0


def tower_step(partition: ReturnPartition, state: TowerState) -> TowerState:
    """One step of the tower map: climb below the roof, else return to base.

    base_time is absolute, so the return applies the actual tau noise steps
    at indices base_time - time_origin of this partition's stream; projected
    tower orbits therefore reproduce direct orbits. The new element is looked
    up in this partition; a landing in the uncovered part yields element -1,
    from which further steps raise InvalidState (rebuild the partition for
    the shifted stream to continue honestly; see PartitionCache). A return
    image that dies (see `orbit.step_values`) raises SingularHit.
    """
    if state.element < 0 or state.element >= len(partition.elements):
        raise InvalidState(f"element index {state.element} not in partition")
    e = partition.elements[state.element]
    if not (e.left <= state.x <= e.right):
        raise InvalidState(f"x={state.x} outside element [{e.left}, {e.right}]")
    if state.level + 1 < e.tau:
        return TowerState(state.element, state.level + 1, state.x, state.base_time)
    start = state.base_time - partition.time_origin
    t_path = partition.stream.values(start, e.tau)
    x_new = float(_images(partition.family, t_path, [state.x], e.tau)[0])
    if math.isnan(x_new):
        raise SingularHit(f"the return image of x={state.x} hit the singularity")
    if abs(x_new) > partition.base_radius + 1e-9:
        raise InvalidState(f"return image {x_new} left the base")
    return TowerState(int(partition.locate(x_new)), 0, x_new, state.base_time + e.tau)


class PartitionCache:
    """Partitions for shifted noise streams, built lazily and memoized.

    The tower over a random map is omega-indexed: after a return at absolute
    time m the Markov structure is the one built for the stream shifted by m.
    """

    def __init__(
        self,
        family: MapFamily,
        stream: NoiseStream,
        cfg: HyperbolicConfig,
        n_max: int,
        seed_grid: int = 1024,
    ) -> None:
        self.family = family
        self.stream = stream
        self.cfg = cfg
        self.n_max = n_max
        self.seed_grid = seed_grid
        self._cache: dict[int, ReturnPartition] = {}

    def get(self, time_shift: int) -> ReturnPartition:
        if time_shift not in self._cache:
            part = build_return_partition(
                self.family,
                shift_stream(self.stream, time_shift),
                self.cfg,
                self.n_max,
                seed_grid=self.seed_grid,
                refine_passes=CACHE_REFINE_PASSES,
                gap_resolution=CACHE_GAP_RESOLUTION,
            )
            part.time_origin = time_shift
            self._cache[time_shift] = part
        return self._cache[time_shift]


def _return_map(
    cache: PartitionCache, x: np.ndarray, base_time: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One tower return for each row (x, base_time): (element, image,
    base_time + tau). Each row is located in `cache.get(base_time)` and
    stepped by `_images` on its own noise; a row in no element, a dead
    (NaN) row included, gets element -1 and return time 0."""
    element = np.empty(x.shape, dtype=np.int64)
    tau = np.empty(x.shape, dtype=np.int64)
    for b in np.unique(base_time):
        rows = base_time == b
        part = cache.get(int(b))
        element[rows] = part.locate(x[rows])
        tau[rows] = part._taus[element[rows]]
    t_path = cache.stream.values(0, int((base_time + tau).max(initial=0)))
    image = _images(cache.family, t_path, x, tau, base_time)
    outside = np.abs(image[element >= 0]) > cache.cfg.delta0 / 2.0 + 1e-9
    if outside.any():
        raise InvalidState(f"return image {image[element >= 0][outside][0]} left the base")
    return element, image, base_time + tau


def _walks(
    cache: PartitionCache, x0: np.ndarray, steps: int, needed: int
) -> tuple[list[list[TowerState]], int]:
    """The first `needed` complete `steps`-step tower walks from x0 at base
    time 0, and the number of rows up to the last of them (all rows if
    fewer complete). `_return_map` runs on all rows until each stalls (a
    return up to time `steps` lands in no element) or passes `steps`. An
    uncached partition is built only for the first row still walking, and
    only while fewer than `needed` rows before it are complete, so the
    cache gets the keys that walking the rows one at a time gives it."""
    x = np.array(x0, dtype=float)
    base_time = np.zeros(x.size, dtype=np.int64)
    complete, walking = np.zeros(x.size, dtype=bool), np.ones(x.size, dtype=bool)
    returns = []
    while walking.any():
        rows = np.flatnonzero(walking)
        ready = np.isin(base_time[rows], list(cache._cache))
        if not ready.any():
            if complete[: rows[0]].sum() >= needed:
                break
            ready = base_time[rows] == base_time[rows[0]]
        rows = rows[ready]
        element, image, next_time = _return_map(cache, x[rows], base_time[rows])
        hit = element >= 0
        returns.append((rows, element, x[rows], base_time[rows], next_time))
        x[rows], base_time[rows] = image, next_time
        complete[rows[hit & (next_time > steps)]] = True
        walking[rows[~hit | (next_time > steps)]] = False
    kept = np.flatnonzero(complete)[:needed]
    walks: dict[int, list[TowerState]] = {r: [] for r in kept.tolist()}
    for ret in returns:
        keep = np.isin(ret[0], kept)
        for r, el, xr, b, b_next in zip(*(a[keep].tolist() for a in ret)):
            walks[r] += [TowerState(el, t - b, xr, b) for t in range(b, min(b_next, steps + 1))]
    return list(walks.values()), int(kept[-1]) + 1 if kept.size == needed else x.size


def sample_tower_orbits(
    cache: PartitionCache, count: int, steps: int, seed: int = 0
) -> tuple[list[list[TowerState]], int]:
    """Rejection-sample complete `steps`-long tower orbits.

    Starting points are uniform over the covered part of the time-0
    partition (element chosen by width, position uniform inside). Walks that
    stall in an uncovered gap, or die, are discarded and resampled: the
    finite-horizon tower is only defined on the covered set, and coverage
    gaps are what the return-time tail quantifies, not a defect of the
    dynamics. Returns the orbits and the number of attempts consumed.
    Attempts are drawn and walked `count` at a time, each element drawn as
    `Generator.choice` with width weights draws it, so the result is that
    of one attempt at a time. A time-0 partition with no elements raises
    InvalidState.
    """
    part0 = cache.get(0)
    if not part0.elements:
        raise InvalidState("the time-0 partition has no elements to start from")
    widths = np.array([e.width for e in part0.elements])
    cdf = np.cumsum(widths / widths.sum())
    cdf /= cdf[-1]
    rng = np.random.default_rng(seed)
    orbits: list[list[TowerState]] = []
    attempts = 0
    cap = max(500 * count, 10_000)
    while len(orbits) < count:
        if attempts >= cap:
            raise InvalidState(
                f"could not sample {count} complete orbits in {cap} attempts; "
                "coverage too thin at this horizon"
            )
        u = rng.random((min(count, cap - attempts), 2))
        idx = np.searchsorted(cdf, u[:, 0], side="right")
        x0 = part0._lefts[idx] + u[:, 1] * widths[idx]
        walks, used = _walks(cache, x0, steps, count - len(orbits))
        orbits += walks
        attempts += used
    return orbits, attempts


# -- axiom certification ------------------------------------------------------


@dataclass
class AxiomReport:
    """Per-axiom numeric verdicts for the tower over this partition."""

    min_return: int
    separation_checked: int
    separation_consistent: bool
    markov_max_residual: float
    markov_non_monotone: int
    distortion_constant: float
    distortion_gamma: float
    distortion_pairs: int
    refinement_ratio: float
    refinement_diameters: list[float]
    tail_prefactor: float
    tail_rate: float
    tail_r_squared: float
    gcd_return_times: int
    seeded_times: list[int]

    def verdicts(self) -> dict[str, bool]:
        return {
            "return_and_separation": self.min_return >= 1 and self.separation_consistent,
            "markov": self.markov_max_residual <= 1e-9 and self.markov_non_monotone == 0,
            "bounded_distortion": math.isfinite(self.distortion_constant)
            and self.distortion_gamma < 1.0,
            "weak_forward_expansion": self.refinement_ratio < 1.0,
            "return_time_asymptotics": self.tail_rate > 0 and self.tail_r_squared > 0.5,
            "aperiodicity": self.gcd_return_times == 1,
        }

    def to_dict(self) -> dict:
        out = {k: getattr(self, k) for k in self.__dataclass_fields__}
        out["verdicts"] = self.verdicts()
        return out


def _separation_times(
    cache: PartitionCache, x: np.ndarray, y: np.ndarray, base_time: np.ndarray, max_returns: int
) -> tuple[np.ndarray, np.ndarray]:
    """(separation, exact): tower steps from base_time until each pair (x, y)
    lands in different elements, by up to `max_returns` calls of
    `_return_map`. exact is False for a pair censored by that cap or by a
    landing in no element, which a dead row makes too."""
    n = x.size
    points, times = np.concatenate([x, y]), np.concatenate([base_time, base_time])
    separation, exact = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=bool)
    pairs = np.arange(n)
    for _ in range(max_returns):
        rows = np.concatenate([pairs, pairs + n])
        element, points[rows], times[rows] = _return_map(cache, points[rows], times[rows])
        ex, ey = element[: pairs.size], element[pairs.size :]
        exact[pairs] = (ex >= 0) & (ey >= 0) & (ex != ey)
        pairs = pairs[(ex >= 0) & (ex == ey)]
        separation[pairs] = times[pairs] - base_time[pairs]
    return separation, exact


def certify_axioms(
    partition: ReturnPartition, cache: PartitionCache | None = None
) -> AxiomReport:
    """Numeric verdicts for the six tower axioms on this partition.

    Distortion pairs are drawn inside the DISTORTION_ELEMENTS widest
    elements; their separation times (in tower steps) bin the Jacobian
    ratios, and a least-squares line through the bin maxima yields the
    distortion constant and contraction factor. The refinement diameter
    uses the certified geometric bound d_n <= d_1 (e d_1 / |base|)^(n-1)
    from uniform expansion plus bounded distortion. Separation-time consistency re-checks the recursive identity
    on the sampled pairs. A supplied cache has its time-0 entry pinned to
    this partition.
    """
    fam, strm, cfg = partition.family, partition.stream, partition.cfg
    if cache is None:
        cache = PartitionCache(
            fam, strm, cfg, partition.horizon, seed_grid=max(512, partition.seed_grid // 4)
        )
    # Separation times at shift 0 must see the partition under certification.
    cache._cache[0] = partition

    mk = verify_markov(partition)
    taus = [e.tau for e in partition.elements]

    # C3: Jacobian ratio vs separation of the return images, with pairs at
    # dyadic in-element separations so the separation times spread across
    # bins. Pairs whose images stall in uncovered parts of the shifted
    # partitions are censored, which finite coverage makes unavoidable.
    elements = sorted(partition.elements, key=lambda e: -e.width)[:DISTORTION_ELEMENTS]
    half_fracs = 0.5 * np.array([0.8, 0.4, 0.2, 0.1, 0.05])
    widths = np.array([e.width for e in elements])[:, None]
    mid = np.array([e.left for e in elements])[:, None] + 0.5 * widths
    x, y = (mid - half_fracs * widths).ravel(), (mid + half_fracs * widths).ravel()
    tau = np.repeat(np.array([e.tau for e in elements], dtype=np.int64), half_fracs.size)
    n = x.size
    images = np.concatenate([x, y])
    logd = np.zeros(n)
    t_path = strm.values(0, int(tau.max(initial=0)))
    for k, t in enumerate(t_path):
        live = np.flatnonzero(tau > k)
        rows = np.concatenate([live, live + n])
        images[rows], dt, _ = step(fam, t, images[rows])
        log_dt = np.log(dt, out=dt)
        logd[live] += log_dt[: live.size] - log_dt[live.size :]
    # A dead pair is NaN, lands in no element and so is censored.
    sep_img, exact = _separation_times(cache, images[:n], images[n:], tau, max_returns=3)
    seps = sep_img[exact].tolist()
    ratios = [abs(math.exp(ld) - 1.0) for ld in logd[exact]]
    # C1 recursion: separation of the base pair equals tau plus the
    # separation of the images.
    sep_base, exact_base = _separation_times(
        cache, x[exact], y[exact], np.zeros(len(seps), dtype=np.int64), max_returns=4
    )
    consistent = not np.any(exact_base & (sep_base != tau[exact] + sep_img[exact]))

    if len(seps) >= 3 and len(set(seps)) >= 2:
        bins: dict[int, float] = {}
        for s_val, r in zip(seps, ratios):
            bins[s_val] = max(bins.get(s_val, 0.0), max(r, 1e-16))
        xs = np.array(sorted(bins))
        ys = np.log([bins[int(s_val)] for s_val in xs])
        intercept, slope, _ = linear_fit(xs.astype(float), ys)
        dist_d = float(np.exp(intercept))
        dist_gamma = float(np.exp(slope))
    elif ratios:
        dist_d = max(ratios)
        dist_gamma = 0.5
    else:
        dist_d = math.inf
        dist_gamma = 1.0

    # C4: certified geometric diameter bound for the n-fold refinement.
    d1 = max((e.width for e in partition.elements), default=math.inf)
    q = math.e * d1 / partition.base_measure
    diameters = [d1 * q ** (i - 1) for i in range(1, 11)]

    # C5: exponential fit of the return-time tail.
    ns = np.arange(0, partition.horizon + 1)
    tail = np.array([tail_measure(partition, int(n)) for n in ns])
    pos = tail > partition.uncovered + 1e-15
    if pos.sum() >= 3:
        intercept, slope, r2 = linear_fit(ns[pos].astype(float), np.log(tail[pos]))
        tail_b, tail_rate, tail_r2 = float(np.exp(intercept)), -float(slope), float(r2)
    else:
        tail_b, tail_rate, tail_r2 = math.nan, 0.0, 0.0

    return AxiomReport(
        min_return=min(taus) if taus else 0,
        separation_checked=len(seps),
        separation_consistent=consistent,
        markov_max_residual=mk["max_residual"],
        markov_non_monotone=mk["non_monotone"],
        distortion_constant=dist_d,
        distortion_gamma=dist_gamma,
        distortion_pairs=len(ratios),
        refinement_ratio=q,
        refinement_diameters=diameters,
        tail_prefactor=tail_b,
        tail_rate=tail_rate,
        tail_r_squared=tail_r2,
        gcd_return_times=_gcd_all(taus),
        seeded_times=_seeded_times(taus),
    )
