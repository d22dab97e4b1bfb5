"""Random orbits with derivative bookkeeping, and exact branch structure.

Derivative cocycles are accumulated in the log domain: over 10^4-step orbits
near the expanding boundary DT^n grows geometrically and would overflow as a
raw product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CapExceeded, DomainError, EmptyIntersection, SingularHit
from .map_core import ArrayLike, MapFamily, _unchecked, critical_neighborhoods
from .noise import NoiseStream, ensemble_noise
from .numerics import bisect_increasing_scalar


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
    truncated: bool = False

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
    r = np.where((prod > 0) & (prod < np.inf), 0, -1)
    near = (prod > 0) & (prod < delta)
    p = prod[near]
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
    return _depths(_unchecked(family, "deriv", t, x) * np.abs(x), delta)


def step_values(family: MapFamily, t: ArrayLike, x: np.ndarray) -> np.ndarray:
    """T_t applied to an array of rows. A row whose image rounds to 0 is
    dead: it becomes NaN and stays NaN from then on."""
    y = _unchecked(family, "value", t, x)
    y[y == 0.0] = np.nan
    return y


def step(
    family: MapFamily, t: ArrayLike, x: np.ndarray, delta: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One orbit step for an array of rows: (x_next, depth, log_dt).

    depth is the return depth at x and log_dt = log DT_t(x), both from one
    evaluation of DT. Besides the rows `step_values` kills, a row where
    DT_t(x) * |x| is not a positive finite number (depth -1) is dead too. A
    dead row's x_next and log_dt are NaN, so cocycle sums carry the mark.
    """
    dt = _unchecked(family, "deriv", t, x)
    depth = _depths(dt * np.abs(x), delta)
    x_next = step_values(family, t, x)
    x_next[depth < 0] = np.nan
    with np.errstate(divide="ignore", invalid="ignore"):
        log_dt = np.log(dt)
    log_dt[np.isnan(x_next)] = np.nan
    return x_next, depth, log_dt


def iterate(
    family: MapFamily,
    stream: NoiseStream,
    x0: float,
    n: int,
    delta: float,
) -> OrbitTrace:
    """Generate T_omega^i(x0) for i = 0..n with all bookkeeping fields.

    Raises SingularHit if the orbit dies (see `step`) before step n, or if
    the depth at the last point is undefined: orbits through the singular
    point are meaningless, so no truncated trace is returned.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if x0 == 0.0 or abs(x0) > 1.0:
        raise DomainError("x0 must lie in [-1, 1] minus the singularity")
    hood = critical_neighborhoods(family, 0.0, delta)
    ts = stream.values(0, n + 1)
    points = np.empty(n + 1)
    log_der = np.zeros(n + 1)
    depths = np.empty(n + 1, dtype=np.int64)
    x = np.array([float(x0)])
    for i in range(n + 1):
        points[i] = x[0]
        x_next, depth, log_dt = step(family, ts[i], x, delta)
        if depth[0] < 0 or (i < n and np.isnan(x_next[0])):
            raise SingularHit(f"orbit died at step {i + 1}: image 0 or DT * |x| not positive")
        depths[i] = depth[0]
        if i < n:
            log_der[i + 1] = log_der[i] + log_dt[0]
            x = x_next
    return OrbitTrace(
        x0=float(x0),
        delta=float(delta),
        points=points,
        log_der=log_der,
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


@dataclass(frozen=True)
class BranchInterval:
    """A maximal open interval on which the n-step composition is monotone."""

    left: float
    right: float
    image_left: float
    image_right: float


@dataclass
class BranchPartition:
    """Exact branch (cylinder) structure of the n-step composition.

    cut_points holds +-1, 0 and every preimage of 0 under the first k < n
    steps; branches are the open intervals between consecutive cuts, each
    carrying its image interval. Points within 1e-12 of a cut are rejected
    from queries: the discontinuity is honest, not interpolated.
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


def orbit_value(family: MapFamily, stream: NoiseStream, x: float, k: int) -> float:
    """T_omega^k(x), raising SingularHit if an iterate rounds to 0."""
    for i in range(k):
        x = float(_unchecked(family, "value", stream.get(i), np.float64(x)))
        if x == 0.0:
            raise SingularHit(f"orbit hit the singularity at step {i + 1}")
    return x


def _safe_orbit_value(family: MapFamily, stream: NoiseStream, x: float, k: int) -> float:
    try:
        return orbit_value(family, stream, x, k)
    except SingularHit:
        return orbit_value(family, stream, np.nextafter(x, 2.0), k)


def branch_partition(
    family: MapFamily, stream: NoiseStream, n: int, cap: int = 40
) -> BranchPartition:
    """Branch structure of the n-step composition by iterated refinement.

    Each branch of the k-step composition is monotone increasing; if its
    image straddles 0 the branch splits at the bisected preimage and the two
    halves pick up image limits +-1 on the freshly cut side. Branch count is
    at most 2^n, so n is capped.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > cap:
        raise CapExceeded(f"n={n} exceeds branch refinement cap {cap}")

    t0 = stream.get(0)
    # Level 1: cuts at {-1, 0, 1}; images are one-sided limits at the cuts.
    branches = [
        BranchInterval(-1.0, 0.0, float(_unchecked(family, "value", t0, np.float64(-1.0))), 1.0),
        BranchInterval(0.0, 1.0, -1.0, float(_unchecked(family, "value", t0, np.float64(1.0)))),
    ]
    cuts = [-1.0, 0.0, 1.0]

    for k in range(1, n):
        tk = stream.get(k)
        new_branches: list[BranchInterval] = []
        new_cuts: list[float] = []
        for br in branches:
            u, v = br.image_left, br.image_right
            if u < 0.0 < v:
                # T_omega^k crosses the singularity inside this branch.
                c = bisect_increasing_scalar(
                    lambda x: _safe_orbit_value(family, stream, x, k),
                    0.0,
                    br.left,
                    br.right,
                    xtol=1e-13,
                )
                new_cuts.append(c)
                new_branches.append(
                    BranchInterval(
                        br.left, c, float(_unchecked(family, "value", tk, np.float64(u))), 1.0
                    )
                )
                new_branches.append(
                    BranchInterval(
                        c, br.right, -1.0, float(_unchecked(family, "value", tk, np.float64(v)))
                    )
                )
            else:
                iu = (
                    -1.0
                    if u == 0.0
                    else float(_unchecked(family, "value", tk, np.float64(u)))
                )
                iv = (
                    1.0
                    if v == 0.0
                    else float(_unchecked(family, "value", tk, np.float64(v)))
                )
                new_branches.append(BranchInterval(br.left, br.right, iu, iv))
        branches = new_branches
        cuts.extend(new_cuts)

    cuts_arr = np.array(sorted(cuts))
    part = BranchPartition(
        family=family, stream=stream, n=n, cut_points=cuts_arr, branches=branches
    )
    return part


def preimage_in_branch(
    partition: BranchPartition,
    branch: BranchInterval,
    target: tuple[float, float],
) -> tuple[float, float]:
    """Interval J inside the branch with T_omega^n(J) = target, by bisection.

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
    lo_c, hi_c = max(lo, u), min(hi, v)
    fam, strm, n = partition.family, partition.stream, partition.n

    def f(x: float) -> float:
        return _safe_orbit_value(fam, strm, x, n)

    a = (
        branch.left
        if lo_c <= u
        else bisect_increasing_scalar(f, lo_c, branch.left, branch.right, xtol=1e-13)
    )
    b = (
        branch.right
        if hi_c >= v
        else bisect_increasing_scalar(f, hi_c, branch.left, branch.right, xtol=1e-13)
    )
    return a, b


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


def ensemble_start(
    master_seed: int, eps: float, count: int, n: int, sample_offset: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Starting points and n steps of noise for orbits sample_offset + 0..count-1.

    Starting points are uniform on (-1, 1), drawn from each orbit's own
    stream at noise index -1, which leaves indices >= 0 for the dynamics.
    Returns (x0 of shape (count,), noise of shape (count, n)).
    """
    ts = ensemble_noise(master_seed, eps, count, n + 1, start=-1, sample_offset=sample_offset)
    if eps > 0:
        x = ts[:, 0] / eps
    else:
        # Degenerate noise still needs spread starting points.
        x = ensemble_noise(master_seed, 1.0, count, 1, start=-1, sample_offset=sample_offset)[:, 0]
    return x, ts[:, 1:]


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
    masked: NaN from their death on, and counted in `singular_hits`.
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
        x, depths[:, k], log_dt = step(family, ts[:, k], x, delta)
        log_der[:, k + 1] = log_der[:, k] + log_dt
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
