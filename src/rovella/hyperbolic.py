"""Pliss-type hyperbolic times, the empirical expansion fit, the constants
the return-partition builder reads (`HyperbolicConfig`), and ensemble tail
statistics of hyperbolic times, returns and the bad set.

A time n is hyperbolic for an orbit when every suffix window [k, n) keeps its
return-depth sum below c' * (n - k); such windows carry uniform backward
expansion and bounded distortion, which is what makes the induced return maps
Markov.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ParamError
from .map_core import CriticalNeighborhoods, MapFamily, critical_neighborhoods
from .noise import ensemble_keys, keyed_draws
from .orbit import OrbitTrace, _depths, start_points, step

ESCAPE_N_MIN = 5  # earliest step whose escape event `fit_expansion_rate` counts


# -- combinatorics -----------------------------------------------------------


def pliss_times(a, c1: float, c2: float, big_a: float) -> list[int]:
    """Indices n with sum(a[k:n]) > c1 * (n - k) for every k < n.

    Equivalent to strict running maxima of the prefix sums of (a_j - c1),
    which gives the O(n) scan. When sum(a) > c2 * n, the count is at least
    theta * n with theta = (c2 - c1) / (A - c1).
    """
    if not (big_a >= c2 > c1):
        raise ParamError(f"need A >= c2 > c1, got A={big_a}, c2={c2}, c1={c1}")
    # sum(a[k:n]) > c1 (n - k) is the hyperbolic-time condition for the
    # depths -a under the threshold -c1.
    flags = _hyperbolic_flags(-np.asarray(a, dtype=float), -c1)
    return list(np.flatnonzero(flags) + 1)


# -- configuration -----------------------------------------------------------

@dataclass(frozen=True)
class HyperbolicConfig:
    """Constants for the hyperbolic-time machinery.

    kappa is the empirical expansion exponent; the defaults c = kappa / 4 and
    c_prime = kappa / 2 follow the chain 0 < c < c_prime, and lambda_prime =
    kappa - c_prime is the certified expansion rate at hyperbolic times.
    base is the critical-value preimage neighborhood at radius delta0 / 2,
    against which return times are tested (`base.contains`).
    """

    delta: float
    delta0: float
    c: float
    c_prime: float
    kappa: float
    lambda_prime: float
    base: CriticalNeighborhoods
    prefactor: float = 1.0

    def __post_init__(self) -> None:
        if not (0 < self.c < self.c_prime):
            raise ParamError(f"need 0 < c < c_prime, got c={self.c}, c_prime={self.c_prime}")
        if self.delta <= 0 or self.delta0 <= 0:
            raise ParamError("delta and delta0 must be positive")

    def radius_cap(self, n: int) -> float:
        """Largest radius of an expanding neighborhood at hyperbolic time n."""
        return self.delta0 * math.exp(-self.lambda_prime * n / 2.0) / self.prefactor


def fit_expansion_rate(
    family: MapFamily,
    master_seed: int,
    eps: float,
    delta: float,
    samples: int = 4000,
    n_cap: int = 400,
    percentile: float = 1.0,
) -> float:
    """Empirical expansion exponent from escape-orbit events.

    An event is an orbit's first entry, at a step n >= ESCAPE_N_MIN, into the
    critical preimage neighborhood at radius 2 * delta (the starting point is
    not tested), with the orbit alive through that entry (see `orbit.step`);
    its rate is log DT^n / n. The exponent is fitted as a low percentile so
    downstream constants hold for essentially all events. Each orbit is
    stepped, with its noise drawn per step, only until its first entry, its
    death or step n_cap, so the cost is the number of steps to those events
    rather than samples * n_cap. A step takes log DT and no return depths.
    """
    outer = critical_neighborhoods(family, 0.0, 2.0 * delta)
    keys = ensemble_keys(master_seed, samples)
    x = start_points(keys, eps)
    log_der = np.zeros(samples)
    rates = [np.empty(0)]
    for n in range(1, n_cap + 1):
        if keys.size == 0:
            break
        x, dt, _ = step(family, keyed_draws(keys, eps, n - 1), x)
        log_der += np.log(dt, out=dt)
        entered = outer.contains(x)
        if n >= ESCAPE_N_MIN:
            rates.append(log_der[entered] / n)
        searching = ~entered & ~np.isnan(x)
        keys, x, log_der = keys[searching], x[searching], log_der[searching]
    rates = np.concatenate(rates)
    if rates.size < 50:
        raise ParamError(
            f"only {rates.size} escape events at delta={delta}; "
            "increase samples or n_cap"
        )
    kappa = float(np.percentile(rates, percentile))
    if kappa <= 0:
        raise ParamError(
            f"fitted expansion exponent {kappa} is not positive; "
            "give kappa explicitly (config hyperbolic.kappa) to skip the fit"
        )
    return kappa


def config_for_family(
    family: MapFamily,
    eps: float,
    delta: float,
    delta0: float | None = None,
    *,
    master_seed: int = 1,
    kappa: float | None = None,
    c: float | None = None,
    c_prime: float | None = None,
    prefactor: float = 1.0,
) -> HyperbolicConfig:
    """Resolve a HyperbolicConfig, fitting kappa empirically when not given.

    Defaults: c = kappa / 4, c_prime = kappa / 2, delta0 = delta.
    """
    if kappa is None:
        kappa = fit_expansion_rate(family, master_seed, eps, delta)
    c = kappa / 4.0 if c is None else c
    c_prime = kappa / 2.0 if c_prime is None else c_prime
    lambda_prime = kappa - c_prime
    delta0 = delta if delta0 is None else delta0
    return HyperbolicConfig(
        delta=delta,
        delta0=delta0,
        c=c,
        c_prime=c_prime,
        kappa=kappa,
        lambda_prime=lambda_prime,
        base=critical_neighborhoods(family, 0.0, delta0 / 2.0),
        prefactor=prefactor,
    )


# -- hyperbolic times for a single trace -------------------------------------


@dataclass
class HyperbolicReport:
    """Hyperbolic times of one trace, with return times into the base."""

    times: list[int]
    first: int | None
    return_times: list[int]
    first_return: int | None
    bad: bool
    horizon: int


def _hyperbolic_flags(
    depths: np.ndarray,
    c_prime: float,
    state: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """flags[..., n-1] for n = 1..depths.shape[-1]: n is a hyperbolic time of
    the depth sequence along the last axis (strict running-max reduction).

    The reduction runs a prefix sum of (c_prime - depth) and flags a step
    whose sum beats every earlier one, the empty prefix 0 included. `state`
    is the carried (prefix sum, running max) per row, of shape
    depths.shape[:-1], both zero at the start of a sequence; it is updated in
    place, so feeding a sequence block by block gives the flags of one call.
    """
    increments = c_prime - np.asarray(depths).astype(float)
    if state is None:
        state = np.zeros(increments.shape[:-1]), np.zeros(increments.shape[:-1])
    gain, run_max = state
    flags = np.empty(increments.shape, dtype=bool)
    for j in range(increments.shape[-1]):
        gain += increments[..., j]
        np.greater(gain, run_max, out=flags[..., j])
        np.maximum(run_max, gain, out=run_max)
    return flags


def hyperbolic_times(trace: OrbitTrace, cfg: HyperbolicConfig) -> HyperbolicReport:
    """All hyperbolic times of the trace, in O(n), plus base-return subset.

    The defining suffix-sum condition reduces to strict running maxima of the
    prefix sums of (c_prime - depth), the same reduction that drives the
    first-hyperbolic-time tail bound. A time equal to the trace length is
    admitted; empty reports are valid outputs.
    """
    n = len(trace)
    depths = trace.depths[:n]
    flags = _hyperbolic_flags(depths, cfg.c_prime)
    times = list(np.flatnonzero(flags) + 1)
    in_base = cfg.base.contains(trace.points)
    return_times = [t for t in times if in_base[t]]
    return HyperbolicReport(
        times=times,
        first=times[0] if times else None,
        return_times=return_times,
        first_return=return_times[0] if return_times else None,
        bad=bool(depths.sum() >= cfg.c * n),
        horizon=n,
    )


# -- ensemble tail statistics -------------------------------------------------


@dataclass
class TailTable:
    """Survival counts over an ensemble, for exponential tail fits.

    Row n (1-based) counts orbits with first hyperbolic time > n, first
    hyperbolic return > n, and membership in the depth-sum bad set at n.
    Orbits that die within the horizon (see `orbit.step`) enter no count and
    not `total`; they are counted in `singular_hits`, so total +
    singular_hits is the number of orbits simulated.
    """

    n: np.ndarray
    h_survivors: np.ndarray
    hstar_survivors: np.ndarray
    bad_members: np.ndarray
    total: int
    singular_hits: int = 0


def _tail_chunk(
    family: MapFamily,
    master_seed: int,
    eps: float,
    cfg: HyperbolicConfig,
    n_max: int,
    index_lo: int,
    index_hi: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Survivor and bad-set counts of orbits index_lo..index_hi-1, then the
    number of live orbits and of dead ones.

    The orbits are streamed: noise is drawn one step at a time and each row
    keeps only its point, the carried hyperbolic-time reduction, its depth
    sum and its first hyperbolic time and return. A step takes return depths
    and no log DT, and tests base membership only on the rows that are
    hyperbolic at that step and have no first return yet. Bad-set flags are
    kept per step, because an orbit that dies later leaves every count.
    """
    keys = ensemble_keys(master_seed, index_hi - index_lo, index_lo)
    x = start_points(keys, eps)
    rows = x.size
    state = np.zeros(rows), np.zeros(rows)
    depth_sum = np.zeros(rows, dtype=np.int64)
    first_h = np.full(rows, n_max)  # step index of the first time; n_max: none yet
    first_ret = np.full(rows, n_max)
    bad = np.empty((n_max, rows), dtype=bool)  # one contiguous row a step
    for k in range(n_max):
        x, dt, prod = step(family, keyed_draws(keys, eps, k), x)
        depth = _depths(prod, cfg.delta)
        del dt, prod  # freed before the bookkeeping and the next step
        hyp = _hyperbolic_flags(depth[:, None], cfg.c_prime, state)[:, 0]  # time k + 1
        first_h[hyp & (first_h > k)] = k
        # Base membership only where it can set a first return.
        open_rows = np.flatnonzero(hyp & (first_ret > k))
        first_ret[open_rows[cfg.base.contains(x[open_rows])]] = k
        depth_sum += depth
        np.greater_equal(depth_sum, cfg.c * (k + 1), out=bad[k])
    alive = ~np.isnan(x)
    live = int(alive.sum())

    def survivors(first: np.ndarray) -> np.ndarray:
        # survivors[n-1] = # live rows with no flagged time <= n
        return live - np.cumsum(np.bincount(first[alive], minlength=n_max + 1)[:n_max])

    bad_members = bad.sum(axis=1, where=alive)
    return survivors(first_h), survivors(first_ret), bad_members, live, rows - live


def tail_statistics(
    family: MapFamily,
    master_seed: int,
    eps: float,
    cfg: HyperbolicConfig,
    samples: int,
    n_max: int,
    workers: int = 1,
    chunk: int = 20_000,
) -> TailTable:
    """Ensemble survival curves for h, h-star and bad-set membership.

    Work is split into fixed-size chunks whose results are summed in index
    order, so the table is independent of the worker count. With workers > 1
    the chunks run on a pool of threads (numpy releases the GIL in its array
    loops); each chunk streams its orbits in memory linear in its rows.
    Starting points are uniform on (-1, 1), one stream per orbit index
    (`orbit.start_points`).
    """
    bounds = [(lo, min(lo + chunk, samples)) for lo in range(0, samples, chunk)]

    def run(bound: tuple[int, int]):
        return _tail_chunk(family, master_seed, eps, cfg, n_max, *bound)

    if workers > 1 and len(bounds) > 1:
        with ThreadPoolExecutor(min(workers, len(bounds))) as pool:
            parts = list(pool.map(run, bounds))
    else:
        parts = [run(b) for b in bounds]
    h = np.sum([p[0] for p in parts], axis=0)
    hstar = np.sum([p[1] for p in parts], axis=0)
    bad = np.sum([p[2] for p in parts], axis=0)
    return TailTable(
        n=np.arange(1, n_max + 1),
        h_survivors=h,
        hstar_survivors=hstar,
        bad_members=bad,
        total=sum(p[3] for p in parts),
        singular_hits=sum(p[4] for p in parts),
    )
