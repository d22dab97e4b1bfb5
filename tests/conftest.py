import numpy as np
import pytest

from rovella import map_core, noise


@pytest.fixture(scope="session")
def fam():
    return map_core.fixture_family(s=2.0, eps_max=0.1)


@pytest.fixture(scope="session")
def fam3():
    return map_core.fixture_family(s=3.0, eps_max=0.1)


@pytest.fixture(scope="session")
def quiet_stream():
    """Degenerate noise: the deterministic system."""
    return noise.stream(1, 0.0)


@pytest.fixture(scope="session")
def noisy_stream():
    return noise.stream(1, 0.01)


@pytest.fixture(scope="session")
def kappa_fixture(fam):
    """Empirical expansion exponent for the fixture at eps=0.01, delta=0.01."""
    from rovella import hyperbolic

    return hyperbolic.fit_expansion_rate(fam, 1, 0.01, 0.01, samples=4000, n_cap=300)


@pytest.fixture(scope="session")
def hyp_cfg(fam, kappa_fixture):
    """Shared constants: delta=0.01, delta0=0.1, c=0.35, c_prime=0.45.

    The library default c = kappa/4 keeps the bad-set decay asymptotic only;
    these desk-scale constants make all three tail curves visibly
    exponential within n <= 60 while preserving 0 < c < c_prime < kappa.
    """
    from rovella import hyperbolic

    return hyperbolic.config_for_family(
        fam, 0.01, 0.01, 0.1, master_seed=1, kappa=kappa_fixture, c=0.35, c_prime=0.45
    )


def brute_force_hyperbolic_flags(depths: np.ndarray, c_prime: float) -> np.ndarray:
    """O(n^2) flags straight from the suffix-sum definition.

    Intentionally independent of the running-max implementation: builds the
    full matrix of window sums P[n] - P[k] and tests every k < n directly.
    """
    depths = np.asarray(depths, dtype=float)
    n = depths.size
    prefix = np.concatenate([[0.0], np.cumsum(c_prime - depths)])
    diff = prefix[1:][None, :] - prefix[:-1][:, None]  # diff[k, m] = P[m+1] - P[k]
    k_idx, m_idx = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    relevant = k_idx <= m_idx
    ok = np.where(relevant, diff > 0, True)
    return ok.all(axis=0)


@pytest.fixture(scope="session")
def table_fam():
    """PCHIP-tabulated copy of the s = 2 fixture on nodes in [1e-6, 1]."""
    xs = np.linspace(1e-6, 1.0, 200)
    return map_core.table_family(
        xs, 2 * xs**2 - 1, -xs[::-1], -(2 * xs[::-1] ** 2 - 1), s=2.0, k1=3.0, k2=4.5
    )


@pytest.fixture(scope="session")
def fam_lin():
    """Piecewise-linear doubling family T(x) = 2x -+ 1 built from
    hand-written callables, with the closed-form inverse x = (y +- 1) / 2
    clamped to the branch domain; it sends 0.75 -> 0.5 -> exactly 0."""

    def value(t, x):
        x = np.asarray(x, dtype=float)
        return 2.0 * x - np.where(x > 0, 1.0, -1.0)

    def inverse(sign):
        def inv(t, y):
            root = (np.asarray(y, dtype=float) + sign) / 2.0
            return np.clip(root, 1e-300, 1.0) if sign > 0 else np.clip(root, -1.0, -1e-300)

        return inv

    return map_core.MapFamily(
        s=1.5,
        eps_max=0.1,
        value=value,
        deriv=lambda t, x: np.full_like(np.asarray(x, dtype=float), 2.0),
        second=lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
        inverse_pos=inverse(1.0),
        inverse_neg=inverse(-1.0),
        k1=1.0,
        k2=4.0,
    )


def ppoly_family(fam):
    """The table family `fam` with value and derivative callables that
    evaluate T_0 on each side's rows by scipy's `PPoly` on that branch's
    knots and coefficients (kept on its inverse), and the power law
    sign (a |x|^s - 1) below the innermost node: the reference for the
    in-house evaluation."""
    import dataclasses

    from scipy.interpolate import PPoly

    def side_base(inv):
        spline = PPoly(np.array(inv.c), np.array(inv.knots))
        splines = (spline, spline.derivative(1), spline.derivative(2))

        def base(x, k):
            out = np.asarray(splines[k](x))
            inner = np.abs(x) < abs(inv.x1)
            if inner.any():
                sign = np.copysign(1.0, inv.x1)
                coef = inv.a * (1.0, inv.s, inv.s * (inv.s - 1.0))[k]
                vals = coef * np.abs(x[inner]) ** (inv.s - k)
                out[inner] = (vals if k == 1 else sign * vals) - (sign if k == 0 else 0.0)
            return out

        return base

    pos_base, neg_base = side_base(fam.inverse_pos), side_base(fam.inverse_neg)

    def base(x, k):
        x = np.asarray(x, dtype=float)
        pos = x > 0
        out = np.empty(x.shape)
        out[pos] = pos_base(x[pos], k)
        out[~pos] = neg_base(x[~pos], k)
        return out

    def value(t, x):
        b0 = base(x, 0)
        return np.clip(b0 + np.asarray(t) * (1.0 - b0**2), -1.0, 1.0)

    def deriv(t, x):
        return base(x, 1) * (1.0 - 2.0 * np.asarray(t) * base(x, 0))

    def second(t, x):
        t = np.asarray(t)
        return base(x, 2) * (1.0 - 2.0 * t * base(x, 0)) - 2.0 * t * base(x, 1) ** 2

    return dataclasses.replace(fam, value=value, deriv=deriv, second=second)


def zero_preimage(fam, t: float, span: int = 4000):
    """A float x > 0 whose fixture image T_t(x) rounds to exactly 0, or None.

    Searched ulp by ulp around the exact root (2 - |t|)^(-1/s). At t = 0 no
    double near 1/sqrt(2) qualifies for s = 2, but many noise values have one.
    """
    root = (2.0 - abs(t)) ** (-1.0 / fam.s)
    xs = root + np.arange(-span, span) * np.spacing(root)
    hits = xs[map_core.evaluate(fam, t, xs) == 0.0]
    return float(hits[0]) if hits.size else None


def dying_ensemble(fam, seed, eps, n):
    """(samples, x0) for a fixture ensemble whose last row's first image is
    exactly 0; the other rows keep their default starting points."""
    from rovella import orbit

    for samples in range(8, 200):
        x0, ts = orbit.ensemble_start(seed, eps, samples, n)
        x_dead = zero_preimage(fam, ts[-1, 0])
        if x_dead is not None:
            x0[-1] = x_dead
            return samples, x0
    raise AssertionError("no zero preimage found")


def plant_start_points(monkeypatch, seed, x0):
    """Patch `hyperbolic.start_points` so that orbit i of the ensemble with
    this master seed starts at x0[i], in whichever chunk it runs."""
    from rovella import hyperbolic

    keys = noise.ensemble_keys(seed, len(x0))
    row = {int(k): i for i, k in enumerate(keys)}
    x0 = np.asarray(x0, dtype=float)
    monkeypatch.setattr(
        hyperbolic, "start_points", lambda k, eps: x0[[row[int(v)] for v in k]]
    )


def reference_tail_table(fam, seed, eps, cfg, samples, n_max, x0=None):
    """(h_survivors, hstar_survivors, bad_members, total, singular_hits) by
    the whole-matrix rule, independent of the streamed chunks and of the
    running-max reduction: `ensemble_orbits` (from x0 when given), then
    `brute_force_hyperbolic_flags` row by row. Rows that die within the
    horizon leave every count."""
    from rovella import orbit

    ens = orbit.ensemble_orbits(fam, seed, eps, n_max, samples, cfg.delta, x0=x0)
    alive = ens.alive
    live = int(alive.sum())
    hyp = np.array([brute_force_hyperbolic_flags(d, cfg.c_prime) for d in ens.depths])
    hyp &= alive[:, None]
    ret = hyp & cfg.in_base(ens.points[:, 1:])
    bad = (np.cumsum(ens.depths, axis=1) >= cfg.c * np.arange(1, n_max + 1)) & alive[:, None]

    def survivors(flags):
        return live - (np.cumsum(flags, axis=1) > 0).sum(axis=0)

    return survivors(hyp), survivors(ret), bad.sum(axis=0), live, samples - live


def reference_orbits(fam, x0, ts, delta):
    """Per-row scalar loop of the stepping rule, independent of `orbit.step`.

    Depths come from the definition by a linear scan. A row dies where
    DT * |x| is not a positive finite number (depth -1 from there) or where
    its image is exactly 0; after death points and log_der are NaN.
    """
    rows, n = ts.shape
    points = np.full((rows, n + 1), np.nan)
    log_der = np.full((rows, n + 1), np.nan)
    depths = np.full((rows, n), -1, dtype=np.int64)
    for i in range(rows):
        x = float(x0[i])
        points[i, 0], log_der[i, 0] = x, 0.0
        for k in range(n):
            dt = map_core.derivative(fam, ts[i, k], x)
            prod = dt * abs(x)
            if not 0.0 < prod < np.inf:
                break
            r = 0
            while prod < np.exp(-r) * delta:  # np.exp, as the kernel compares
                r += 1
            depths[i, k] = r
            x = map_core.evaluate(fam, ts[i, k], x)
            if x == 0.0:
                break
            points[i, k + 1] = x
            log_der[i, k + 1] = log_der[i, k] + np.log(dt)
    return points, log_der, depths


def reference_escape_rates(fam, seed, eps, delta, samples, n_cap, x0=None):
    """Escape-event rates log DT^n / n by the whole-matrix rule on
    `reference_orbits`, independent of the fit's retirement loop.

    Every row runs all n_cap steps (from `x0` when given). A row's event is
    its first entry at a step n >= 5 (the fit's default n_min) into the
    critical preimage neighborhood at radius 2 * delta, the starting point
    not tested. A dead row is NaN from its death on, so it can enter only
    while alive; a later death does not remove its event.
    """
    from rovella import orbit

    x_start, ts = orbit.ensemble_start(seed, eps, samples, n_cap)
    if x0 is not None:
        x_start = x0
    points, log_der, _ = reference_orbits(fam, x_start, ts, delta)
    outer = map_core.critical_neighborhoods(fam, 0.0, 2.0 * delta)
    inside = outer.contains(points)
    inside[:, 0] = False
    first = np.argmax(inside, axis=1)
    rows = np.flatnonzero(inside.any(axis=1) & (first >= 5))
    return log_der[rows, first[rows]] / first[rows]


def bisection_family(fam):
    """The same family whose inverses bisect its value on the branch domain
    with `numerics.bisect_increasing` down to the floating-point floor (200
    halvings of the branch domain): the reference the inverses are checked
    against. A target outside the image stops within 2^-200 of a domain end.
    """
    import dataclasses

    from rovella.numerics import bisect_increasing

    def bisecting(lo, hi):
        def inverse(t, y):
            return bisect_increasing(lambda x: fam.value(t, x), y, lo, hi, xtol=0.0)

        return inverse

    return dataclasses.replace(
        fam, inverse_pos=bisecting(1e-300, 1.0), inverse_neg=bisecting(-1.0, -1e-300)
    )


def assert_same_bytes(a, b):
    """Equal shapes, NaN in the same positions and the other entries equal
    as bytes (so -0.0 differs from 0.0)."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    nan = np.isnan(a)
    assert np.array_equal(nan, np.isnan(b))
    assert a[~nan].tobytes() == b[~nan].tobytes()


def reference_locate(partition, x):
    """Index of the element holding x by a linear scan, or -1."""
    return next((i for i, e in enumerate(partition.elements) if e.left <= x <= e.right), -1)


def _reference_return(family, stream, x, base_time, tau):
    """x after tau steps from base_time by scalar `map_core.evaluate`; NaN
    once an image is exactly 0."""
    for k in range(tau):
        x = map_core.evaluate(family, stream.get(base_time + k), x)
        if x == 0.0:
            x = np.nan
    return x


def reference_tower_orbits(family, stream, get, count, steps, seed):
    """Scalar tower walks, one attempt at a time: (orbits, attempts).

    `get(k)` is the partition for the stream shifted by k. Each attempt
    draws its element by `Generator.choice` with width weights, then its
    position by `Generator.uniform`, and walks return by return: scalar
    `map_core.evaluate` steps and a linear-scan lookup. A return that lands
    in no element, or dies, discards the attempt. Orbit states are
    (element, level, x, base_time) tuples. Raises InvalidState past
    max(500 * count, 10000) attempts.
    """
    from rovella.errors import InvalidState

    part0 = get(0)
    widths = np.array([e.width for e in part0.elements])
    rng = np.random.default_rng(seed)
    orbits, attempts = [], 0
    while len(orbits) < count:
        attempts += 1
        if attempts > max(500 * count, 10_000):
            raise InvalidState("attempt cap")
        idx = int(rng.choice(widths.size, p=widths / widths.sum()))
        e = part0.elements[idx]
        x = float(e.left + rng.uniform(0.0, 1.0) * e.width)
        states, base_time = [], 0
        while idx >= 0:
            tau = get(base_time).elements[idx].tau
            states += [(idx, lv, x, base_time) for lv in range(min(tau, steps + 1 - base_time))]
            if base_time + tau > steps:
                orbits.append(states)
                break
            x = _reference_return(family, stream, x, base_time, tau)
            base_time += tau
            idx = reference_locate(get(base_time), x)
    return orbits, attempts


def reference_separation(family, stream, get, x, y, base_time, max_returns):
    """(separation, exact) of one pair by scalar returns: tower steps until
    x and y lie in different elements; censored (exact False) by the return
    cap or a landing in no element, a dead image included."""
    total = 0
    for _ in range(max_returns):
        part = get(base_time)
        ix, iy = reference_locate(part, x), reference_locate(part, y)
        if ix < 0 or iy < 0:
            return total, False
        if ix != iy:
            return total, True
        tau = part.elements[ix].tau
        x = _reference_return(family, stream, x, base_time, tau)
        y = _reference_return(family, stream, y, base_time, tau)
        total += tau
        base_time += tau
    return total, False


def reference_verify_markov(partition, samples=100):
    """`tower.verify_markov` one element at a time: each element's samples
    stepped on their own, one `orbit.step_values` call per element and step."""
    from rovella.orbit import step_values

    worst = 0.0
    non_monotone = 0
    for e in partition.elements:
        xs = np.linspace(e.left, e.right, samples)
        for k in range(e.tau):
            xs = step_values(partition.family, partition.stream.get(k), xs)
        if not np.all(np.diff(xs) > 0):
            non_monotone += 1
        worst = float(np.max([
            worst,
            abs(xs[0] - (-partition.base_radius)),
            abs(xs[-1] - partition.base_radius),
        ]))
    return {"max_residual": worst, "non_monotone": non_monotone, "elements": len(partition.elements)}
