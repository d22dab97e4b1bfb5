"""Pliss-type hyperbolic times, return-depth statistics, binding periods,
and the expanding neighborhoods used by the return-partition builder.

A time n is hyperbolic for an orbit when every suffix window [k, n) keeps its
return-depth sum below c' * (n - k); such windows carry uniform backward
expansion and bounded distortion, which is what makes the induced return maps
Markov.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import BranchStraddle, DeltaTooLarge, NotHyperbolic, ParamError, SingularHit
from .map_core import MapFamily, critical_neighborhoods, in_punctured_interval, unperturbed_orbit
from .noise import NoiseStream, ensemble_keys, ensemble_noise, keyed_draws
from .orbit import OrbitTrace, _depths, iterate, pull_back, start_points, step


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
    base_neg / base_pos bound the two components of the critical-value
    preimage neighborhood at radius delta0 / 2, against which return times
    are tested. delta0_margins records the two smallness constraints on
    delta0 behind the neighborhood proposition (positive margin = satisfied);
    they are existence-only in the theory, so violations are recorded, not
    fatal.
    """

    delta: float
    delta0: float
    c: float
    c_prime: float
    kappa: float
    lambda_prime: float
    base_neg: float
    base_pos: float
    prefactor: float = 1.0
    delta0_margins: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if not (0 < self.c < self.c_prime):
            raise ParamError(f"need 0 < c < c_prime, got c={self.c}, c_prime={self.c_prime}")
        if self.delta <= 0 or self.delta0 <= 0:
            raise ParamError("delta and delta0 must be positive")

    def in_base(self, x) -> np.ndarray:
        """Membership in the critical preimage neighborhood at delta0 / 2."""
        return in_punctured_interval(x, self.base_neg, self.base_pos)


def fit_expansion_rate(
    family: MapFamily,
    master_seed: int,
    eps: float,
    delta: float,
    samples: int = 4000,
    n_cap: int = 400,
    n_min: int = 5,
    percentile: float = 1.0,
) -> float:
    """Empirical expansion exponent from escape-orbit events.

    An event is an orbit's first entry, at a step n >= n_min, into the
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
        if n >= n_min:
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
    admissibility_c: float = 1.5,
) -> HyperbolicConfig:
    """Resolve a HyperbolicConfig, fitting kappa empirically when not given.

    Defaults: c = kappa / 4, c_prime = kappa / 2, delta0 = delta. The two
    delta0 smallness margins (the distortion-sum and step-gap constraints of
    the neighborhood construction) are recorded with the admissibility
    constant supplied or its fixture-scale default.
    """
    if kappa is None:
        kappa = fit_expansion_rate(family, master_seed, eps, delta)
    c = kappa / 4.0 if c is None else c
    c_prime = kappa / 2.0 if c_prime is None else c_prime
    lambda_prime = kappa - c_prime
    delta0 = delta if delta0 is None else delta0
    base = critical_neighborhoods(family, 0.0, delta0 / 2.0)
    gap_rate = lambda_prime / 2.0 - c_prime
    coeff = admissibility_c / prefactor * family.k2 * delta ** (-1.0 / family.s)
    margin_step = lambda_prime / 2.0 - coeff * delta0
    if gap_rate > 0:
        margin_sum = 1.0 / (coeff / (1.0 - math.exp(-gap_rate))) - delta0
    else:
        margin_sum = -math.inf  # geometric sum diverges at these constants
    return HyperbolicConfig(
        delta=delta,
        delta0=delta0,
        c=c,
        c_prime=c_prime,
        kappa=kappa,
        lambda_prime=lambda_prime,
        base_neg=base.neg_lo,
        base_pos=base.pos_hi,
        prefactor=prefactor,
        delta0_margins=(margin_step, margin_sum),
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
    in_base = cfg.in_base(trace.points)
    return_times = [t for t in times if in_base[t]]
    return HyperbolicReport(
        times=times,
        first=times[0] if times else None,
        return_times=return_times,
        first_return=return_times[0] if return_times else None,
        bad=bool(depths.sum() >= cfg.c * n),
        horizon=n,
    )


def verify_hyperbolic_report(
    depths: np.ndarray, cfg: HyperbolicConfig, report: HyperbolicReport
) -> bool:
    """Re-check every reported time against the suffix-sum definition."""
    depths = np.asarray(depths, dtype=float)
    suffix = np.concatenate([[0.0], np.cumsum(depths)])
    for t in report.times:
        windows = suffix[t] - suffix[:t]
        spans = t - np.arange(t)
        if not np.all(windows < cfg.c_prime * spans):
            return False
    return True


def bad_set_membership(trace: OrbitTrace, cfg: HyperbolicConfig, n: int) -> bool:
    """Depth sum over [0, n) at least c * n: expansion not certifiable."""
    if n < 1 or n > len(trace):
        raise ValueError("n out of range for this trace")
    return bool(trace.depths[:n].sum() >= cfg.c * n)


# -- binding periods ---------------------------------------------------------


@dataclass
class BindingReport:
    """Outcome of sampled binding-period verification."""

    passed: bool
    samples: int
    steps: int
    first_violation: tuple[int, int, str] | None = None
    worst_margin: float = math.inf


def binding_period_check(
    family: MapFamily,
    stream: NoiseStream,
    v: float,
    eps: float,
    n_steps: int,
    c_bind: float,
    sample: int = 64,
) -> BindingReport:
    """Verify the three binding displays on sampled perturbed shadows of v.

    For each sampled y with |v - y| <= eps and noise path omega with
    amplitude eps, and every 0 <= j < n_steps, checks
      (1) 2 |y_j - v_j| <= |v_j|,
      (2) e^{-1} Dv_{j+1} <= Dy_{j+1} <= e Dv_{j+1},
      (3) c_bind * eps * Dv_{j+1} >= |y_{j+1} - v_{j+1}|,
    where v_j is the unperturbed orbit. n_steps = 0 passes vacuously.
    """
    if v == 0.0:
        raise ParamError("binding periods are anchored off the singularity")
    if n_steps == 0:
        return BindingReport(passed=True, samples=sample, steps=0)
    v_pts, v_logd = unperturbed_orbit(family, v, n_steps)
    if len(v_pts) <= n_steps:
        raise SingularHit(f"the orbit of v={v} hits the singularity at step {len(v_pts) - 1}")
    offsets = np.linspace(-eps, eps, sample) if eps > 0 else np.zeros(sample)
    ts = ensemble_noise(stream.master_seed, eps, sample, n_steps, start=0)
    y = np.clip(v + offsets, -1.0, 1.0)
    y[y == 0.0] = v
    logd = np.zeros(sample)
    worst = math.inf
    for j in range(n_steps):
        # A dead shadow (NaN) fails the check it first reaches.
        m1 = np.abs(v_pts[j]) - 2.0 * np.abs(y - v_pts[j])
        if not m1.min() >= 0:
            return BindingReport(False, sample, n_steps, (int(m1.argmin()), j, "shadow"), float(m1.min()))
        y, dt, _ = step(family, ts[:, j], y)
        logd += np.log(dt, out=dt)
        ratio = logd - v_logd[j + 1]
        m2 = 1.0 - np.abs(ratio)
        if not m2.min() >= 0:
            return BindingReport(False, sample, n_steps, (int(m2.argmin()), j, "derivative"), float(m2.min()))
        m3 = c_bind * eps * math.exp(v_logd[j + 1]) - np.abs(y - v_pts[j + 1])
        if not m3.min() >= 0:
            return BindingReport(False, sample, n_steps, (int(m3.argmin()), j, "distance"), float(m3.min()))
        worst = min(worst, float(m1.min()), float(m2.min()), float(m3.min()))
    return BindingReport(passed=True, samples=sample, steps=n_steps, worst_margin=worst)


def binding_window(
    family: MapFamily,
    v: float,
    eps: float,
    theta1: float = 0.9 / (4.0 * math.e),
    cap: int = 200,
) -> tuple[int, float]:
    """Largest n with A(v, n) * W(n) <= theta1 / eps along the t = 0 orbit.

    A is the derivative-to-distance sum and W the reciprocal derivative sum
    1 + sum 1/DT^j(v); the guaranteed binding constant is then e * W. Returns
    (0, W) when even one step fails the budget.
    """
    if eps <= 0:
        return cap, float("inf")
    pts, logd = unperturbed_orbit(family, v, cap)
    a_terms = np.exp(logd[:-1]) / np.abs(pts[:-1])
    w_terms = np.exp(-logd)
    a_cum = np.cumsum(a_terms)
    w_cum = np.cumsum(w_terms)
    budget = theta1 / eps
    ok = a_cum * w_cum[1:] <= budget
    n_best = int(np.flatnonzero(ok).max() + 1) if ok.any() else 0
    return n_best, float(w_cum[min(n_best, cap)])


def critical_reciprocal_sum(family: MapFamily, cap: int = 2000, tol: float = 1e-14) -> tuple[float, bool]:
    """Sum over n >= 0 of 1 / DT^n at the critical values, with a convergence flag.

    Summed over both one-sided critical values and reported as the larger of
    the two partial sums; converged means the last term fell below tol.
    """
    worst = 0.0
    converged = True
    for v0 in (-1.0, 1.0):
        pts, logd = unperturbed_orbit(family, v0, cap)
        terms = np.exp(-logd)
        worst = max(worst, float(terms.sum()))
        converged &= bool(terms[-1] < tol)
    return worst, converged


@dataclass
class PreferredBinding:
    """Preferred binding period of the deterministic critical orbit."""

    found: bool
    period: int | None
    expansion: float | None  # DT^{M+1} along the critical orbit
    side: str | None
    theta: float
    detail: dict = field(default_factory=dict)


def preferred_binding_period(
    family: MapFamily,
    delta: float,
    theta: float | None = None,
    big_l: float | None = None,
    zeta: float | None = None,
    cap: int = 10_000,
) -> PreferredBinding:
    """Direct search for the preferred binding period at scale delta.

    Searches the smallest M such that, along each one-sided critical orbit,
    (a) the derivative-to-distance sum up to M stays below theta / delta,
    (b) the first M points avoid the critical preimage neighborhood at
    radius L * delta, and (c) DT^{M+1} beats (max(|v_M|, delta)/delta)^(1-zeta).
    These exist only for genuinely chaotic parameters; the search caps out and
    reports failure honestly (the fixture's critical orbits are fixed points,
    for which every M satisfies (b) and the search reduces to (a) and (c)).
    """
    if zeta is None:
        zeta = 1.0 / (2.0 * family.s)
    if big_l is None:
        big_l = 1.25 * 2.0 ** (family.s + 1.0)
    if theta is None:
        w0, _ = critical_reciprocal_sum(family)
        theta = (0.9 / (4.0 * math.e)) / (4.0 * w0)
    try:
        hood = critical_neighborhoods(family, 0.0, big_l * delta)
    except DeltaTooLarge:
        return PreferredBinding(False, None, None, None, theta, {"reason": "L*delta too large"})

    best: PreferredBinding | None = None
    for side, v0 in (("pos", -1.0), ("neg", 1.0)):
        pts, logd = unperturbed_orbit(family, v0, cap + 1)
        with np.errstate(over="ignore"):
            a_cum = np.cumsum(np.exp(logd[:-1]) / np.abs(pts[:-1]))
        outside = ~hood.contains(pts)
        all_outside = np.concatenate([[True], np.cumprod(outside[:-1]).astype(bool)])
        for m in range(1, min(cap, len(pts) - 1)):
            if a_cum[m - 1] > theta / delta:
                break
            if not all_outside[m]:
                continue
            target = (max(abs(pts[m]), delta) / delta) ** (1.0 - zeta)
            if math.exp(logd[m + 1]) >= target:
                cand = PreferredBinding(
                    True, m, math.exp(logd[m + 1]), side, theta,
                    {"a_sum": float(a_cum[m - 1]), "target": target},
                )
                if best is None or (best.period is not None and m > best.period):
                    best = cand
                break
        else:
            continue
    if best is None:
        return PreferredBinding(False, None, None, None, theta, {"reason": "cap exhausted"})
    return best


# -- expanding neighborhoods at hyperbolic times ------------------------------


@dataclass
class NeighborhoodCertificate:
    """Numeric evidence that the n-step composition is Markov on the interval."""

    interval: tuple[float, float]
    image_center: float
    image_radius: float
    radius_cap: float
    single_branch: bool
    monotone: bool
    expansion_ok: bool
    expansion_margin: float
    distortion_total: float
    distortion_ok: bool
    sample_count: int


def distortion_estimate(
    family: MapFamily, t: float, lo: float, hi: float, points: int = 200
) -> float:
    """sup D2T/DT over the interval times its length, the one-step distortion."""
    if hi <= lo:
        return 0.0
    xs = np.linspace(lo, hi, points)
    xs = xs[xs != 0.0]
    ratio = np.abs(family.second(t, xs)) / family.deriv(t, xs)
    return float(ratio.max() * (hi - lo))


def markov_neighborhood(
    family: MapFamily,
    stream: NoiseStream,
    x: float,
    n: int,
    cfg: HyperbolicConfig,
    sample_points: int = 32,
) -> tuple[tuple[float, float], NeighborhoodCertificate]:
    """Interval around x mapped diffeomorphically onto the delta0-ball at step n.

    The interval is the pullback of B(T^n(x), delta0) along the orbit's branch
    intersected with the ball of radius prefactor^{-1} delta0 e^{-lambda' n/2}
    around x. Requires n to be a hyperbolic time (NotHyperbolic otherwise);
    raises BranchStraddle when sampled forward orbits split across the
    singularity, which indicates the constants are too loose.
    """
    trace = iterate(family, stream, x, n, cfg.delta)
    flags = _hyperbolic_flags(trace.depths[:n], cfg.c_prime)
    if not flags[n - 1]:
        raise NotHyperbolic(f"{n} is not a hyperbolic time for this orbit")

    pts = trace.points
    radius = cfg.delta0 * math.exp(-cfg.lambda_prime * n / 2.0) / cfg.prefactor
    ball = np.array([pts[n] - cfg.delta0, pts[n] + cfg.delta0])
    t_path = stream.values(0, n)
    lo, hi = pull_back(family, t_path, np.sign(pts[:n]), ball).tolist()
    a = max(lo, x - radius)
    b = min(hi, x + radius)
    if not (a < x < b):
        raise BranchStraddle(f"pullback interval ({lo}, {hi}) does not surround x={x}")

    # Certificate by dense forward sampling of the interval: one pass records
    # per-step sample positions and cumulative log-derivatives, from which
    # branch consistency, monotonicity, suffix expansion and the additive
    # one-step distortion estimate all follow.
    span = b - a
    ys = np.linspace(a + 1e-3 * span, b - 1e-3 * span, sample_points)
    cum_logs = [np.zeros(sample_points)]
    single = True
    monotone = True
    dist_total = 0.0
    for k in range(n):
        if not (np.all(ys > 0) or np.all(ys < 0)):
            raise BranchStraddle(f"samples split across the singularity at step {k}")
        if np.sign(ys[0]) != math.copysign(1.0, pts[k]):
            single = False
        dist_total += distortion_estimate(family, t_path[k], float(ys.min()), float(ys.max()))
        ys, dt, _ = step(family, t_path[k], ys)
        cum_logs.append(cum_logs[-1] + np.log(dt, out=dt))
        if not np.all(np.diff(ys) > 0):
            monotone = False
    total = cum_logs[-1]
    margins = [
        float((total - cum_logs[k]).min())
        - (math.log(cfg.prefactor) + cfg.lambda_prime * (n - k) / 2.0)
        for k in range(n)
    ]
    exp_margin = float(np.min(margins))  # unlike min(), keeps a NaN (dead sample)

    cert = NeighborhoodCertificate(
        interval=(a, b),
        image_center=float(pts[n]),
        image_radius=cfg.delta0,
        radius_cap=radius,
        single_branch=single,
        monotone=monotone,
        expansion_ok=exp_margin >= 0.0,
        expansion_margin=exp_margin,
        distortion_total=dist_total,
        distortion_ok=dist_total < 1.0,
        sample_count=sample_points,
    )
    return (a, b), cert


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
        first_ret[open_rows[cfg.in_base(x[open_rows])]] = k
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
