"""Random orbits with derivative bookkeeping, and exact branch structure.

Derivative cocycles are accumulated in the log domain: over 10^4-step orbits
near the expanding boundary DT^n grows geometrically and would overflow as a
raw product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CapExceeded, DomainError, EmptyIntersection, SingularHit
from .map_core import ArrayLike, MapFamily, critical_neighborhoods, invert_branch
from .noise import NoiseStream, ensemble_keys, keyed_draws


@dataclass
class OrbitTrace:
    """A random orbit with per-step derivative and return-depth bookkeeping.

    points[i] = T_omega^i(x0) for i = 0..n; log_der[i] is the cumulative sum
    of log DT over the first i steps, so exp(log_der[m] - log_der[k]) is the
    derivative of the (m - k)-step composition at points[k]. depths[i] and
    visits[i] use the map at step i (noise index i); depths has one entry per
    point so suffix sums over any window are available.
    """

    x0: float
    delta: float
    points: np.ndarray
    log_der: np.ndarray
    depths: np.ndarray
    visits: np.ndarray

    def __len__(self) -> int:
        return len(self.points) - 1


def return_depth(family: MapFamily, t: float, x: float, delta: float) -> int:
    """Least r >= 0 with DT_t(x) * |x| >= e^{-r} * delta.

    r = 0 is the common case away from the singularity. The scalar form of
    `return_depths_array`; raises DomainError where the depth is undefined.
    """
    if x == 0.0:
        raise DomainError("return depth undefined at the singularity")
    if delta <= 0:
        raise ValueError("delta must be positive")
    r = int(return_depths_array(family, t, np.array([x]), delta)[0])
    if r < 0:
        raise DomainError(f"DT * |x| is not a positive finite number at x={x}")
    return r


def _depths(prod: np.ndarray, delta: float) -> np.ndarray:
    """Return depths of DT * |x| values; -1 where prod is not in (0, inf)."""
    pos = prod > 0
    near = prod < delta
    near &= pos
    pos &= prod < np.inf
    r = pos.astype(np.int64)
    del pos  # freed before the near rows' temporaries
    r -= 1
    p = prod[near]
    tiny = p < delta / np.finfo(float).max
    if tiny.any():
        # delta / p overflows there, so those rows take the ceiling and its
        # nudges in logs (log p >= log delta - r); the others recurse.
        lp, ld = np.log(p[tiny]), np.log(delta)
        rt = np.ceil(ld - lp)
        rt[lp >= ld - (rt - 1.0)] -= 1.0
        rt[lp < ld - rt] += 1.0
        rn = np.empty(p.shape, np.int64)
        rn[tiny] = rt
        rn[~tiny] = _depths(p[~tiny], delta)
        r[near] = rn
        return r
    rn = np.maximum(np.ceil(np.log(delta / p)), 0.0).astype(np.int64)
    # The closed-form ceiling is nudged so exact-boundary cases follow the
    # definition rather than floating-point rounding.
    rn[(rn > 0) & (p >= np.exp(-(rn - 1.0)) * delta)] -= 1
    rn[p < np.exp(-rn.astype(float)) * delta] += 1
    r[near] = rn
    return r


def return_depths_array(
    family: MapFamily, t: np.ndarray, x: np.ndarray, delta: float
) -> np.ndarray:
    """Vectorized return depths; same convention as `return_depth`, with -1
    where DT_t(x) * |x| is not a positive finite number."""
    x = np.asarray(x, dtype=float)
    return _depths(family.deriv(t, x) * np.abs(x), delta)


def step_values(family: MapFamily, t: ArrayLike, x: np.ndarray) -> np.ndarray:
    """T_t applied to an array of rows. A row whose image rounds to 0 is
    dead: it becomes NaN and stays NaN from then on."""
    y = family.value(t, x)
    y[y == 0.0] = np.nan
    return y


def step(
    family: MapFamily, t: ArrayLike, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One orbit step for an array of rows: (x_next, dt, prod).

    x_next = T_t(x) and dt = DT_t(x) come from one `MapFamily.value_deriv`
    call, and prod = DT_t(x) * |x| is the product whose `_depths` is the
    return depth at x. A row is dead when its image is 0 or NaN, or when
    prod is not a positive finite number (depth -1); a dead row's x_next
    and dt are NaN, so `np.log(dt)` is its log DT with the mark that
    cocycle sums carry. prod is left as computed: a row whose image rounds
    to 0 keeps the finite depth of x. Callers take only what they read:
    `_depths(prod, delta)` for depths, `np.log(dt, out=dt)` for the
    cocycle (every array is fresh).
    """
    x_next, dt = family.value_deriv(t, x)
    prod = np.abs(x)
    prod *= dt
    live = prod > 0
    live &= prod < np.inf
    live &= (x_next > 0) | (x_next < 0)
    dead = np.logical_not(live, out=live)
    x_next[dead] = np.nan
    dt[dead] = np.nan
    return x_next, dt, prod


def iterate(
    family: MapFamily,
    stream: NoiseStream,
    x0: float,
    n: int,
    delta: float,
) -> OrbitTrace:
    """Generate T_omega^i(x0) for i = 0..n with all bookkeeping fields.

    The points come from scalar steps; depths and log_der from one pass of
    DT over all of them. Raises SingularHit at the first point whose depth
    is -1 (see `step`), a point that rounds to 0 included: orbits through
    the singular point are meaningless, so no truncated trace is returned.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if x0 == 0.0 or abs(x0) > 1.0:
        raise DomainError("x0 must lie in [-1, 1] minus the singularity")
    hood = critical_neighborhoods(family, 0.0, delta)
    ts = stream.values(0, n + 1)
    points = np.empty(n + 1)
    points[0] = x0
    for i in range(n):
        points[i + 1] = family.value(ts[i], points[i])
    dt = family.deriv(ts, points)
    depths = _depths(dt * np.abs(points), delta)
    dead = np.flatnonzero(depths < 0)
    if dead.size:
        raise SingularHit(f"orbit died at point {dead[0]}: image 0 or DT * |x| not positive")
    return OrbitTrace(
        x0=float(x0),
        delta=float(delta),
        points=points,
        log_der=np.concatenate([[0.0], np.cumsum(np.log(dt[:-1]))]),
        depths=depths,
        visits=hood.contains(points),
    )


def expansion_sum(trace: OrbitTrace, n: int) -> float:
    """Sum over i < n of DT^i(x0) / |x_i|, the derivative-to-distance sum.

    The i = 0 term is 1 / |x0| (empty derivative product), so the sum starts
    at the reciprocal distance to the singularity and is nondecreasing in n.
    """
    if n < 1 or n > len(trace):
        raise ValueError("n out of range for this trace")
    return float(
        np.sum(np.exp(trace.log_der[:n]) / np.abs(trace.points[:n]))
    )


def pull_back(
    family: MapFamily, t_path: np.ndarray, sides: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Preimage of each target y under T_{t_path[k-1]} o ... o T_{t_path[0]}
    along a branch itinerary: sides[..., j] is the sign (+1 or -1) of the
    branch at step j, per row (shape (rows, k)) or shared (shape (k,)).

    All rows share the noise path. Each step is one `map_core.invert_branch`
    call for all rows, both sides included, so a target past a branch image
    maps to that branch's domain endpoint. A row's result does not depend on
    the others.
    """
    sides = np.asarray(sides)
    x = np.asarray(y, dtype=float)
    for j in range(sides.shape[-1] - 1, -1, -1):
        x = invert_branch(family, float(t_path[j]), x, sides[..., j])
    return x


@dataclass(frozen=True)
class BranchInterval:
    """A maximal open interval on which the n-step composition is monotone.

    sides[j] is the sign (+1 or -1) of T_omega^j on the interval for j < n:
    the itinerary along which `pull_back` inverts the composition.
    """

    left: float
    right: float
    image_left: float
    image_right: float
    sides: tuple[int, ...]


@dataclass
class BranchPartition:
    """Exact branch (cylinder) structure of the n-step composition.

    cut_points holds +-1, 0 and every preimage of 0 under the first k < n
    steps; branches are the open intervals between consecutive cuts, each
    carrying its image interval and itinerary. Points within 1e-12 of a cut
    are rejected from queries: the discontinuity is honest, not interpolated.
    """

    family: MapFamily
    stream: NoiseStream
    n: int
    cut_points: np.ndarray
    branches: list[BranchInterval] = field(default_factory=list)

    CUT_MARGIN = 1e-12

    def locate(self, x: float) -> BranchInterval:
        idx = int(np.searchsorted(self.cut_points, x)) - 1
        if idx < 0 or idx >= len(self.branches):
            raise DomainError(f"{x} outside [-1, 1]")
        if (
            x - self.cut_points[idx] < self.CUT_MARGIN
            or self.cut_points[idx + 1] - x < self.CUT_MARGIN
        ):
            raise DomainError(f"{x} within {self.CUT_MARGIN} of a cut point")
        return self.branches[idx]


def branch_partition(
    family: MapFamily, stream: NoiseStream, n: int, cap: int = 40
) -> BranchPartition:
    """Branch structure of the n-step composition by iterated refinement.

    Each branch of the k-step composition is monotone increasing; if its
    image straddles 0 the branch splits at the preimage of 0 along its
    itinerary (one `pull_back` for all such branches of a level), and the
    two halves pick up image limits +-1 on the freshly cut side. Branch
    count is at most 2^n, so n is capped.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > cap:
        raise CapExceeded(f"n={n} exceeds branch refinement cap {cap}")

    t_path = stream.values(0, n)

    def image(k: int, y: float, limit: float) -> float:
        # T_k at an image end; the one-sided limit where that end is 0.
        return limit if y == 0.0 else float(family.value(t_path[k], y))

    # Level 0 is all of I, whose image straddles 0: its empty itinerary
    # pulls 0 back to the cut 0. Images are one-sided limits at the cuts.
    branches = [BranchInterval(-1.0, 1.0, -1.0, 1.0, ())]
    cuts = [-1.0, 1.0]
    for k in range(n):
        # T_omega^k crosses the singularity inside the straddling branches.
        straddle = [i for i, br in enumerate(branches) if br.image_left < 0.0 < br.image_right]
        sides = [branches[i].sides for i in straddle]
        zeros = pull_back(family, t_path, sides, np.zeros(len(sides)))
        cut_at = dict(zip(straddle, zeros.tolist()))
        cuts.extend(cut_at.values())
        new_branches: list[BranchInterval] = []
        for i, br in enumerate(branches):
            iu, iv = image(k, br.image_left, -1.0), image(k, br.image_right, 1.0)
            if i in cut_at:
                c = cut_at[i]
                new_branches.append(BranchInterval(br.left, c, iu, 1.0, br.sides + (-1,)))
                new_branches.append(BranchInterval(c, br.right, -1.0, iv, br.sides + (1,)))
            else:
                side = 1 if br.image_left >= 0.0 else -1
                new_branches.append(BranchInterval(br.left, br.right, iu, iv, br.sides + (side,)))
        branches = new_branches

    return BranchPartition(
        family=family, stream=stream, n=n, cut_points=np.array(sorted(cuts)), branches=branches
    )


def preimage_in_branch(
    partition: BranchPartition,
    branch: BranchInterval,
    target: tuple[float, float],
) -> tuple[float, float]:
    """Interval J inside the branch with T_omega^n(J) = target, by `pull_back`
    along the branch's itinerary.

    Raises EmptyIntersection when the target misses the branch image; targets
    reaching past the image are clipped to it, so the returned endpoints map
    onto target intersected with the image.
    """
    lo, hi = target
    if lo > hi:
        raise ValueError("target interval is reversed")
    u, v = branch.image_left, branch.image_right
    if hi < u or lo > v:
        raise EmptyIntersection(f"target {target} misses branch image ({u}, {v})")
    t_path = partition.stream.values(0, partition.n)
    a, b = pull_back(partition.family, t_path, branch.sides, np.array([lo, hi]))
    return (branch.left if lo <= u else float(a)), (branch.right if hi >= v else float(b))


@dataclass
class EnsembleOrbits:
    """Vectorized ensemble of random orbits sharing a master seed.

    Row i uses the stream seeded by derive_seed(master_seed, i); results are
    independent of any worker partitioning of the rows. A dead row (see
    `step`) is NaN in points and log_der from its death on, and counted in
    `singular_hits`; `alive` masks it out of every statistic.
    """

    master_seed: int
    eps: float
    delta: float
    x0: np.ndarray
    points: np.ndarray | None  # (samples, n+1) when kept
    log_der: np.ndarray  # (samples, n+1)
    depths: np.ndarray  # (samples, n)
    singular_hits: int = 0

    @property
    def alive(self) -> np.ndarray:
        return ~np.isnan(self.log_der[:, -1])


def start_points(keys: np.ndarray, eps: float) -> np.ndarray:
    """Starting points uniform on (-1, 1) for the streams with these keys
    (`noise.ensemble_keys`), drawn at noise index -1, which leaves indices
    >= 0 for the dynamics."""
    if eps > 0:
        return keyed_draws(keys, eps, -1) / eps
    # Degenerate noise still needs spread starting points.
    return keyed_draws(keys, 1.0, -1)


def ensemble_start(
    master_seed: int, eps: float, count: int, n: int, sample_offset: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Starting points (`start_points`) and n steps of noise for orbits
    sample_offset + 0..count-1: (x0 of shape (count,), noise of shape (count, n))."""
    keys = ensemble_keys(master_seed, count, sample_offset)
    return start_points(keys, eps), keyed_draws(keys[:, None], eps, np.arange(n))


def ensemble_orbits(
    family: MapFamily,
    master_seed: int,
    eps: float,
    n: int,
    samples: int,
    delta: float,
    x0: np.ndarray | None = None,
    keep_points: bool = True,
) -> EnsembleOrbits:
    """Simulate `samples` random orbits for n steps, fully vectorized.

    Starting points default to `ensemble_start`. Orbits that die (round onto
    the singularity, or reach a point where DT * |x| is not positive) are
    masked: NaN from their death on, and counted in `singular_hits`. Each
    step takes both the return depths and log DT.
    """
    x, ts = ensemble_start(master_seed, eps, samples, n)
    if x0 is not None:
        x = np.asarray(x0, dtype=float).copy()
        if x.shape != (samples,):
            raise ValueError("x0 must have shape (samples,)")
    x_start = x.copy()

    points = np.empty((samples, n + 1)) if keep_points else None
    log_der = np.empty((samples, n + 1))
    depths = np.empty((samples, n), dtype=np.int64)
    log_der[:, 0] = 0.0
    for k in range(n):
        if keep_points:
            points[:, k] = x
        x, dt, prod = step(family, ts[:, k], x)
        depths[:, k] = _depths(prod, delta)
        np.add(log_der[:, k], np.log(dt, out=dt), out=log_der[:, k + 1])
    if keep_points:
        points[:, n] = x
    return EnsembleOrbits(
        master_seed=master_seed,
        eps=eps,
        delta=delta,
        x0=x_start,
        points=points,
        log_der=log_der,
        depths=depths,
        singular_hits=int(np.isnan(x).sum()),
    )
