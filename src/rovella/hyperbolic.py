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
    kappa is None when c and c_prime are given and nothing reads it (the
    tail tables); lambda_prime, and so `radius_cap`, then raise ParamError.
    base is the critical-value preimage neighborhood at radius delta0 / 2,
    against which return times are tested (`base.contains`).
    """

    delta: float
    delta0: float
    c: float
    c_prime: float
    kappa: float | None
    base: CriticalNeighborhoods
    prefactor: float = 1.0

    def __post_init__(self) -> None:
        if not (0 < self.c < self.c_prime):
            raise ParamError(f"need 0 < c < c_prime, got c={self.c}, c_prime={self.c_prime}")
        if not (self.delta > 0 and self.delta0 > 0):
            raise ParamError("delta and delta0 must be positive")

    @property
    def lambda_prime(self) -> float:
        if self.kappa is None:
            raise ParamError("lambda_prime needs kappa, which this config leaves unset")
        return self.kappa - self.c_prime

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
            "give kappa explicitly (config hyperbolic.kappa) to skip the fit"
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
    delta0: float,
    *,
    master_seed: int = 1,
    kappa: float | None = None,
    c: float | None = None,
    c_prime: float | None = None,
    prefactor: float = 1.0,
) -> HyperbolicConfig:
    """Resolve a HyperbolicConfig, fitting kappa empirically when not given.

    Defaults: c = kappa / 4, c_prime = kappa / 2.
    """
    if kappa is None:
        kappa = fit_expansion_rate(family, master_seed, eps, delta)
    c = kappa / 4.0 if c is None else c
    c_prime = kappa / 2.0 if c_prime is None else c_prime
    return HyperbolicConfig(
        delta=delta,
        delta0=delta0,
        c=c,
        c_prime=c_prime,
        kappa=kappa,
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


TAIL_TABLES = ("hyperbolic", "bad_set")  # the tables `tail_statistics` can compute


@dataclass
class TailTable:
    """Survival counts over an ensemble, for exponential tail fits.

    Row n (1-based) counts orbits with first hyperbolic time > n and first
    hyperbolic return > n (the "hyperbolic" table: `h_survivors`,
    `hstar_survivors`), and membership in the depth-sum bad set at n (the
    "bad_set" table: `bad_members`). A table that was not asked for is None.
    Orbits that die within the horizon (see `orbit.step`) enter no count and
    not `total`; they are counted in `singular_hits`, so total +
    singular_hits is the number of orbits simulated.
    """

    n: np.ndarray
    h_survivors: np.ndarray | None
    hstar_survivors: np.ndarray | None
    bad_members: np.ndarray | None
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
    tables: tuple[str, ...],
) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None, int, int]:
    """Survivor and bad-set counts of orbits index_lo..index_hi-1 (None for a
    table not in `tables`), then the number of live orbits and of dead ones.

    The orbits are streamed: noise is drawn one step at a time and each row
    keeps only its point and the bookkeeping of the tables asked for. A step
    takes no log DT, and return depths only where a table reads them and
    DT * |x| < delta; every other row has depth 0. The bad set takes the
    depths of all such rows into its depth sums (integers, held in float64,
    where they are exact) and keeps one flag row per step. The hyperbolic
    table takes them only on its open rows, those with no first hyperbolic
    return yet, and runs the carried hyperbolic-time reduction on those rows
    alone; base membership is tested only on the open rows that are
    hyperbolic at that step. A row leaves the open set, and its carried
    state, at its first return, when its first hyperbolic time is set too,
    or, once dead, at its next hyperbolic step; once no row is open the
    table does no work at all. Every row is still stepped to n_max, because
    an orbit that dies later leaves every count.
    """
    hyperbolic, bad_set = "hyperbolic" in tables, "bad_set" in tables
    keys = ensemble_keys(master_seed, index_hi - index_lo, index_lo)
    x = start_points(keys, eps)
    rows = x.size
    depth_sum = np.zeros(rows)
    bad = np.empty((n_max if bad_set else 0, rows), dtype=bool)  # one row a step
    open_rows = np.arange(rows if hyperbolic else 0)
    state = np.zeros(open_rows.size), np.zeros(open_rows.size)
    first_h = np.full(rows, n_max)  # step index of the first time; n_max: none yet
    first_ret = np.full(rows, n_max)
    for k in range(n_max):
        x, dt, prod = step(family, keyed_draws(keys, eps, k), x)
        del dt  # freed before the bookkeeping and the next step
        if bad_set:
            near = np.flatnonzero(prod < cfg.delta)
            depth_sum[near] += _depths(prod[near], cfg.delta)
            np.greater_equal(depth_sum, cfg.c * (k + 1), out=bad[k])
        if open_rows.size:
            prod = prod[open_rows]  # DT * |x| of the open rows
            near = prod < cfg.delta
            depth = np.zeros(prod.size)
            depth[near] = _depths(prod[near], cfg.delta)
            hyp = _hyperbolic_flags(depth[:, None], cfg.c_prime, state)[:, 0]
            now = open_rows[hyp]  # hyperbolic at time k + 1, no first return yet
            first_h[now[first_h[now] > k]] = k
            x_now = x[now]
            returned = cfg.base.contains(x_now)
            leave = returned | np.isnan(x_now)  # returned, or dead at this step or before
            if leave.any():
                first_ret[now[returned]] = k
                hyp[hyp] = leave  # now marks the rows that leave
                stay = np.logical_not(hyp, out=hyp)
                open_rows, state = open_rows[stay], (state[0][stay], state[1][stay])
    alive = ~np.isnan(x)
    live = int(alive.sum())

    def survivors(first: np.ndarray) -> np.ndarray:
        # survivors[n-1] = # live rows with no flagged time <= n
        return live - np.cumsum(np.bincount(first[alive], minlength=n_max + 1)[:n_max])

    h, hstar = (survivors(first_h), survivors(first_ret)) if hyperbolic else (None, None)
    bad_members = bad.sum(axis=1, where=alive) if bad_set else None
    return h, hstar, bad_members, live, rows - live


def tail_statistics(
    family: MapFamily,
    master_seed: int,
    eps: float,
    cfg: HyperbolicConfig,
    samples: int,
    n_max: int,
    workers: int = 1,
    chunk: int = 20_000,
    tables: tuple[str, ...] = TAIL_TABLES,
) -> TailTable:
    """Ensemble survival curves for h and h-star (the "hyperbolic" table) and
    bad-set membership (the "bad_set" table), each only when in `tables`.

    A caller computes only the tables it reads: the hyperbolic bookkeeping
    and the bad-set flags are each skipped when not asked for, and the
    table left out is None. The hyperbolic table takes return depths and
    runs its reduction only on the orbits with no first hyperbolic return
    yet, and stops once none is left; kappa is not read, so `cfg.kappa`
    may be None. Work is split into fixed-size chunks whose
    results are summed in index order, so the table is independent of the
    worker count. With workers > 1 the chunks run on a pool of threads
    (numpy releases the GIL in its array loops); each chunk streams its
    orbits in memory linear in its rows (`_tail_chunk`). Starting points
    are uniform on (-1, 1), one stream per orbit index
    (`orbit.start_points`).
    """
    tables = tuple(tables)
    if not tables or not set(tables) <= set(TAIL_TABLES):
        raise ValueError(f"tables must be a non-empty subset of {TAIL_TABLES}, got {tables!r}")
    bounds = [(lo, min(lo + chunk, samples)) for lo in range(0, samples, chunk)]

    def run(bound: tuple[int, int]):
        return _tail_chunk(family, master_seed, eps, cfg, n_max, *bound, tables)

    if workers > 1 and len(bounds) > 1:
        with ThreadPoolExecutor(min(workers, len(bounds))) as pool:
            parts = list(pool.map(run, bounds))
    else:
        parts = [run(b) for b in bounds]

    def summed(i: int, table: str) -> np.ndarray | None:
        return np.sum([p[i] for p in parts], axis=0) if table in tables else None

    return TailTable(
        n=np.arange(1, n_max + 1),
        h_survivors=summed(0, "hyperbolic"),
        hstar_survivors=summed(1, "hyperbolic"),
        bad_members=summed(2, "bad_set"),
        total=sum(p[3] for p in parts),
        singular_hits=sum(p[4] for p in parts),
    )
