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


def verify_hyperbolic_report(depths, cfg, report) -> bool:
    """Re-check every time of a `hyperbolic.HyperbolicReport` against the
    suffix-sum definition: each window [k, t) has depth sum below c' (t - k)."""
    depths = np.asarray(depths, dtype=float)
    suffix = np.concatenate([[0.0], np.cumsum(depths)])
    for t in report.times:
        windows = suffix[t] - suffix[:t]
        spans = t - np.arange(t)
        if not np.all(windows < cfg.c_prime * spans):
            return False
    return True


@pytest.fixture(scope="session")
def table_fam():
    """PCHIP-tabulated copy of the s = 2 fixture on nodes in [1e-6, 1]."""
    xs = np.linspace(1e-6, 1.0, 200)
    return map_core.table_family(
        xs, 2 * xs**2 - 1, -xs[::-1], -(2 * xs[::-1] ** 2 - 1), s=2.0, k1=3.0, k2=4.5
    )


def _lin_inverse(t, y, side):
    side = np.asarray(side)
    root = (np.asarray(y, dtype=float) + side) / 2.0
    return np.where(side > 0, np.clip(root, 1e-300, 1.0), np.clip(root, -1.0, -1e-300))


@pytest.fixture(scope="session")
def fam_lin():
    """Piecewise-linear doubling family T(x) = 2x -+ 1 built from
    hand-written callables, with the closed-form inverse x = (y +- 1) / 2
    clamped to the branch domain; it sends 0.75 -> 0.5 -> exactly 0."""

    def value(t, x):
        x = np.asarray(x, dtype=float)
        return 2.0 * x - np.where(x > 0, 1.0, -1.0)

    return map_core.MapFamily(
        s=1.5,
        eps_max=0.1,
        value=value,
        deriv=lambda t, x: np.full_like(np.asarray(x, dtype=float), 2.0),
        second=lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
        inverse=_lin_inverse,
        k1=1.0,
        k2=4.0,
    )


def _table(neg_x, pos_x):
    """Table family on the given nodes, y = sign(x) (|x| + x^2) -+ 1, which
    rises strictly however close the nodes sit to 0."""
    neg_x, pos_x = np.asarray(neg_x, dtype=float), np.asarray(pos_x, dtype=float)
    return map_core.table_family(
        pos_x, pos_x + pos_x**2 - 1.0, neg_x, neg_x - neg_x**2 + 1.0, s=2.0, k1=3.0, k2=4.5
    )


def _on_bucket_edges():
    """100 knots at -1 + 4j / 200, 0 left out: 400 buckets of width 1/200,
    so every knot is a bucket edge as `map_core._bucket_lookup` computes it."""
    knots = -1.0 + np.arange(0, 401, 4) / 200.0
    return _table(knots[knots < 0], knots[knots > 0])


TABLES = {
    # Dense geometric nodes at the singularity: many knots in one bucket.
    "geometric": lambda: _table(-np.geomspace(1e-8, 1.0, 120)[::-1], np.geomspace(1e-8, 1.0, 120)),
    "bucket_edges": _on_bucket_edges,
    # Different node counts, spacings and innermost nodes on the two sides.
    "asymmetric": lambda: _table(np.linspace(-1.0, -1e-3, 37), np.geomspace(1e-7, 1.0, 150)),
}


@pytest.fixture(params=["table_fam", *TABLES])
def any_table(request):
    """The table family of `table_fam` and each of `TABLES`."""
    if request.param == "table_fam":
        return request.getfixturevalue("table_fam")
    return TABLES[request.param]()


def table_sides(fam):
    """Each branch of the table family `fam`, negative first, as
    (knots, c, nodes, x1, a): its knots, `PPoly.c` and node values sliced from
    the inverse, its innermost node and its end-piece coefficient."""
    inv = fam.inverse
    f = inv.first
    return [
        (inv.knots[:f], inv.c[:, : f - 1], inv.nodes[:f], fam.value.ends[0], inv.a[0]),
        (inv.knots[f:], inv.c[:, f:], inv.nodes[f:], fam.value.ends[1], inv.a[1]),
    ]


def ppoly_family(fam):
    """The table family `fam` with value and derivative callables that
    evaluate T_0 on each side's rows by scipy's `PPoly` on that branch's
    knots and coefficients (`table_sides`), and the power law
    sign (a |x|^s - 1) below the innermost node: the reference for the
    in-house evaluation."""
    import dataclasses

    from scipy.interpolate import PPoly

    def side_base(knots, c, nodes, x1, a):
        spline = PPoly(np.array(c), np.array(knots))
        splines = (spline, spline.derivative(1), spline.derivative(2))

        def base(x, k):
            out = np.asarray(splines[k](x))
            inner = np.abs(x) < abs(x1)
            if inner.any():
                sign = np.copysign(1.0, x1)
                coef = a * (1.0, fam.s, fam.s * (fam.s - 1.0))[k]
                vals = coef * np.abs(x[inner]) ** (fam.s - k)
                out[inner] = (vals if k == 1 else sign * vals) - (sign if k == 0 else 0.0)
            return out

        return base

    neg_base, pos_base = (side_base(*side) for side in table_sides(fam))

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


def reference_pchip(xs, ys):
    """`PPoly.c` of scipy's `PchipInterpolator` through the nodes and of its
    first and second derivative: the reference for
    `map_core._pchip_coefficients`."""
    from scipy.interpolate import PchipInterpolator

    with np.errstate(over="ignore"):  # scipy divides by subnormal secants unguarded
        spline = PchipInterpolator(xs, ys)
    return spline.c, spline.derivative(1).c, spline.derivative(2).c


def reference_table_arrays(pos_x, pos_y, neg_x, neg_y):
    """(knots, table, c, nodes) of `map_core.table_family` on these nodes,
    built as they were when scipy's `PchipInterpolator` gave the spline."""
    knots, cols, cs, nodes = [], [], [], []
    for xs, ys in ((neg_x, neg_y), (pos_x, pos_y)):
        xs, ys = np.array(xs, dtype=float), np.array(ys, dtype=float)
        c, d1, d2 = reference_pchip(xs, ys)
        col = np.vstack([xs[:-1], c, d1, d2])
        col[(4, 7, 9), :] += 0.0
        h = xs[-1] - xs[-2]
        nodes.append(np.append(c[3], map_core._power_sum(col[1:5, -1], (h, h * h, h * h * h))))
        knots.append(xs)
        cols.append(col)
        cs.append(c)
    table = np.hstack([cols[0], cols[0][:, -1:], cols[1]])
    c = np.hstack([cs[0], np.zeros((4, 1)), cs[1]])
    return np.concatenate(knots), table, c, np.concatenate(nodes)


def zero_preimage(fam, t: float, span: int = 4000):
    """A float x > 0 whose fixture image T_t(x) rounds to exactly 0, or None.

    Searched ulp by ulp around the exact root (2 - |t|)^(-1/s). At t = 0 no
    double near 1/sqrt(2) qualifies for s = 2, but many noise values have one.
    """
    root = (2.0 - abs(t)) ** (-1.0 / fam.s)
    xs = root + np.arange(-span, span) * np.spacing(root)
    hits = xs[map_core.evaluate(fam, t, xs) == 0.0]
    return float(hits[0]) if hits.size else None


def dying_ensemble(fam, seed, eps):
    """(samples, x0) for a fixture ensemble whose last row's first image is
    exactly 0; the other rows keep their default starting points."""
    from rovella import orbit

    for samples in range(8, 200):
        x0 = orbit.start_points(noise.ensemble_keys(seed, samples), eps)
        x_dead = zero_preimage(fam, noise.ensemble_noise(seed, eps, samples, 1)[-1, 0])
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
    ret = hyp & cfg.base.contains(ens.points[:, 1:])
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
    its first entry at a step n >= 5 (`hyperbolic.ESCAPE_N_MIN`) into the
    critical preimage neighborhood at radius 2 * delta, the starting point
    not tested. A dead row is NaN from its death on, so it can enter only
    while alive; a later death does not remove its event.
    """
    from rovella import orbit

    if x0 is None:
        x0 = orbit.start_points(noise.ensemble_keys(seed, samples), eps)
    ts = noise.ensemble_noise(seed, eps, samples, n_cap)
    points, log_der, _ = reference_orbits(fam, x0, ts, delta)
    outer = map_core.critical_neighborhoods(fam, 0.0, 2.0 * delta)
    inside = outer.contains(points)
    inside[:, 0] = False
    first = np.argmax(inside, axis=1)
    rows = np.flatnonzero(inside.any(axis=1) & (first >= 5))
    return log_der[rows, first[rows]] / first[rows]


def bisection_family(fam):
    """The same family whose inverse bisects its value on the branch domain
    with `numerics.bisect_increasing` down to the floating-point floor (200
    halvings of the branch domain): the reference the inverses are checked
    against. A target outside the image stops within 2^-200 of a domain end.
    Each row halves its own bracket, so it does not depend on the others.
    """
    import dataclasses

    from rovella.numerics import bisect_increasing

    def inverse(t, y, side):
        pos = np.asarray(side) > 0
        y = np.asarray(y, dtype=float)
        y = np.broadcast_to(y, np.broadcast_shapes(y.shape, pos.shape))
        lo, hi = np.where(pos, 1e-300, -1.0), np.where(pos, 1.0, -1e-300)
        return bisect_increasing(lambda x: fam.value(t, x), y, lo, hi, xtol=0.0)

    return dataclasses.replace(fam, inverse=inverse)


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


def reference_admission(lo, hi, radius, cap):
    """The two admission masks of `tower._level_elements`, one-sidedness
    and clearance tested apart: `same_side & inside`."""
    from rovella.tower import BOUNDARY_MARGIN

    same_side = (np.sign(lo) == np.sign(hi)) & (lo != 0.0) & (hi != 0.0) & (lo < hi)
    inside = (
        (lo >= -radius + BOUNDARY_MARGIN)
        & (hi <= radius - BOUNDARY_MARGIN)
        & ((lo > BOUNDARY_MARGIN) | (hi < -BOUNDARY_MARGIN))
        & ((hi - lo) <= cap)
    )
    return same_side & inside


def reference_grid_checks(family):
    """The (t, x)-grid fields of `map_core.verify_conditions` by two loops:
    C2, envelope, C3 and range over the t slices, then the t-Lipschitz
    secants with both slices of every neighbouring pair evaluated afresh,
    and |x|^(s-1) recomputed per slice."""
    from rovella.map_core import CHECK_N_T, CHECK_N_X, CHECK_X_MIN, schwarzian

    half = np.geomspace(CHECK_X_MIN, 1.0, CHECK_N_X // 2)
    xs = np.concatenate([-half[::-1], half])
    ts = np.linspace(-family.eps_max, family.eps_max, CHECK_N_T)
    monotone_ok = True
    envelope_lo = np.inf
    envelope_hi = -np.inf
    c3_max = -np.inf
    range_ok = True
    for t in ts:
        d = family.deriv(t, xs)
        monotone_ok &= bool(np.all(d > 0))
        ratio = d / np.abs(xs) ** (family.s - 1.0)
        envelope_lo = min(envelope_lo, float(ratio.min()))
        envelope_hi = max(envelope_hi, float(ratio.max()))
        c3_max = max(c3_max, float(np.max(schwarzian(family, t, xs))))
        vals = family.value(t, xs)
        range_ok &= bool(np.all(np.abs(vals) <= 1.0 + 1e-15))
    t_lip_ok = True
    for i in range(len(ts) - 1):
        gap = np.abs(family.value(ts[i + 1], xs) - family.value(ts[i], xs)).max()
        t_lip_ok &= bool(gap <= abs(ts[i + 1] - ts[i]) + 1e-12)
    return {
        "c2_monotone_ok": monotone_ok,
        "k1_fit": float(envelope_lo),
        "k2_fit": float(envelope_hi),
        "envelope_ok": family.k1 <= envelope_lo + 1e-9 and envelope_hi <= family.k2 + 1e-9,
        "c3_ok": c3_max < 0.0,
        "c3_max": c3_max,
        "range_ok": range_ok,
        "t_lipschitz_ok": t_lip_ok,
    }
