"""Random orbits with derivative bookkeeping, the one-step kernel, and the
pullback of targets along a branch itinerary.

Derivative cocycles are accumulated in the log domain: over 10^4-step orbits
near the expanding boundary DT^n grows geometrically and would overflow as a
raw product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularHit
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

    points: np.ndarray
    log_der: np.ndarray
    depths: np.ndarray
    visits: np.ndarray

    def __len__(self) -> int:
        return len(self.points) - 1


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
    """Least r >= 0 with DT_t(x) * |x| >= e^{-r} * delta, per row (r = 0 is
    the common case away from the singularity); -1 where DT_t(x) * |x| is
    not a positive finite number."""
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
    if x0 == 0.0 or not abs(x0) <= 1.0:
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
        points=points,
        log_der=np.concatenate([[0.0], np.cumsum(np.log(dt[:-1]))]),
        depths=depths,
        visits=hood.contains(points),
    )


def pull_back(
    family: MapFamily,
    t_path: np.ndarray,
    sides: np.ndarray,
    y: np.ndarray,
    lengths: np.ndarray | None = None,
) -> np.ndarray:
    """Preimage of each target y under T_{t_path[k-1]} o ... o T_{t_path[0]}
    along a branch itinerary: sides[..., j] is the sign (+1 or -1) of the
    branch at step j, per row (shape (rows, k)) or shared (shape (k,)).

    `lengths`, when given, is each row's own k (per-row sides only): row i
    follows sides[i, :lengths[i]], and the columns past it are not read.

    All rows share the noise path. Step j is one `map_core.invert_branch`
    call for the rows whose itinerary reaches it, both sides included, so a
    target past a branch image maps to that branch's domain endpoint. A
    row's result does not depend on the others: it is the result of a call
    on its own itinerary.
    """
    sides = np.asarray(sides)
    x = np.array(y, dtype=float)
    k = sides.shape[-1] if lengths is None else int(np.max(lengths, initial=0))
    for j in range(k - 1, -1, -1):
        rows = ... if lengths is None else np.flatnonzero(lengths > j)
        x[rows] = invert_branch(family, float(t_path[j]), x[rows], sides[rows, j])
    return x


@dataclass
class EnsembleOrbits:
    """Vectorized ensemble of random orbits sharing a master seed.

    Row i uses the stream seeded by derive_seed(master_seed, i) and starts
    at x0[i]; results are independent of any worker partitioning of the
    rows. A dead row (see `step`) is NaN in points and log_der from its
    death on, and counted in `singular_hits`; `alive` masks it out of every
    statistic.
    """

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

    Starting points default to `start_points`; each step draws its noise
    from the orbits' keys. Orbits that die (round onto the singularity, or
    reach a point where DT * |x| is not positive) are masked: NaN from their
    death on, and counted in `singular_hits`. Each step takes both the
    return depths and log DT.
    """
    keys = ensemble_keys(master_seed, samples)
    if x0 is None:
        x = start_points(keys, eps)
    else:
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
        x, dt, prod = step(family, keyed_draws(keys, eps, k), x)
        depths[:, k] = _depths(prod, delta)
        np.add(log_der[:, k], np.log(dt, out=dt), out=log_der[:, k + 1])
    if keep_points:
        points[:, n] = x
    return EnsembleOrbits(
        x0=x_start,
        points=points,
        log_der=log_der,
        depths=depths,
        singular_hits=int(np.isnan(x).sum()),
    )
