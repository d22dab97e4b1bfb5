"""Contracting Lorenz (Rovella) map families on I = [-1, 1].

A family is a pair of monotone branches (t, x) -> T_t(x) on (0, 1] and
[-1, 0), with first and second x-derivatives, a singularity of order s - 1
at x = 0, and an envelope k1 |x|^(s-1) <= DT_t(x) <= k2 |x|^(s-1).

The built-in fixture family

    T_t(x) = sign(x) * ((2 - |t|) * |x|^s - 1)

has closed-form derivatives and Schwarzian, the boundary points +-1 fixed at
t = 0, and fails the critical-orbit density condition (the orbit of the
critical values is a fixed point); `verify_conditions` reports that honestly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DeltaTooLarge, DomainError
from .numerics import bisect_increasing, linear_fit

ArrayLike = float | np.ndarray
BranchFn = Callable[[ArrayLike, ArrayLike], ArrayLike]


@dataclass(frozen=True)
class Branch:
    """One monotone branch with value and two x-derivatives, numpy-vectorized."""

    value: BranchFn
    deriv: BranchFn
    second: BranchFn


@dataclass(frozen=True)
class MapFamily:
    """One-parameter admissible family of contracting Lorenz maps.

    Immutable after construction; all operations are pure functions of their
    arguments, so instances are safe to share across workers.
    """

    s: float
    eps_max: float
    branch_pos: Branch
    branch_neg: Branch
    k1: float
    k2: float
    label: str = "custom"

    def __post_init__(self) -> None:
        if self.s <= 1:
            raise ValueError("singularity order s must exceed 1")
        if self.eps_max <= 0:
            raise ValueError("eps_max must be positive")
        if not (0 < self.k1 <= self.k2):
            raise ValueError("need 0 < k1 <= k2")


@dataclass(frozen=True)
class _FixtureBranchFn:
    """Picklable branch callable for the power-law fixture.

    kind 0/1/2 selects value / first / second x-derivative; sign picks the
    branch side. Picklability matters: families ride along to worker
    processes in ensemble runs.
    """

    s: float
    sign: float
    kind: int

    def __call__(self, t: ArrayLike, x: ArrayLike) -> ArrayLike:
        amp = 2.0 - np.abs(t)
        ax = self.sign * np.asarray(x, dtype=float)
        if self.kind == 0:
            return np.clip(self.sign * (amp * np.power(ax, self.s) - 1.0), -1.0, 1.0)
        if self.kind == 1:
            return amp * self.s * np.power(ax, self.s - 1.0)
        return self.sign * amp * self.s * (self.s - 1.0) * np.power(ax, self.s - 2.0)


def fixture_family(s: float = 2.0, eps_max: float = 0.1) -> MapFamily:
    """Closed-form family T_t(x) = sign(x)((2-|t|)|x|^s - 1), clipped to I."""
    # Envelope constants for DT_t(x) = (2-|t|) s |x|^(s-1) over |t| <= eps_max.
    k1 = (2.0 - eps_max) * s
    k2 = 2.0 * s
    return MapFamily(
        s=s,
        eps_max=eps_max,
        branch_pos=Branch(
            _FixtureBranchFn(s, 1.0, 0), _FixtureBranchFn(s, 1.0, 1), _FixtureBranchFn(s, 1.0, 2)
        ),
        branch_neg=Branch(
            _FixtureBranchFn(s, -1.0, 0),
            _FixtureBranchFn(s, -1.0, 1),
            _FixtureBranchFn(s, -1.0, 2),
        ),
        k1=k1,
        k2=k2,
        label=f"fixture(s={s:g})",
    )


@dataclass(frozen=True)
class _ShearBranchFn:
    """Picklable branch callable for tabulated families under the shear
    perturbation T_t = T_0 + t (1 - T_0^2)."""

    spline: object
    d1: object
    d2: object
    kind: int

    def __call__(self, t: ArrayLike, x: ArrayLike) -> ArrayLike:
        base = self.spline(x)
        t_arr = np.asarray(t)
        if self.kind == 0:
            return np.clip(base + t_arr * (1.0 - base**2), -1.0, 1.0)
        if self.kind == 1:
            return self.d1(x) * (1.0 - 2.0 * t_arr * base)
        return self.d2(x) * (1.0 - 2.0 * t_arr * base) - 2.0 * t_arr * self.d1(x) ** 2


def table_family(
    pos_x,
    pos_y,
    neg_x,
    neg_y,
    s: float,
    k1: float,
    k2: float,
    eps_max: float = 0.1,
) -> MapFamily:
    """Family from tabulated branch values, one monotone spline per branch.

    The t = 0 map interpolates the nodes with a monotone PCHIP spline; the
    perturbation acts as the shear T_t = T_0 + t (1 - T_0^2), which keeps the
    one-sided limits at the singularity, satisfies |d/dt| <= 1, and preserves
    monotonicity for |t| < 1/2. The singularity order and envelope constants
    are declared, not inferred; `verify_conditions` checks them.
    """
    from scipy.interpolate import PchipInterpolator

    def make(xs, ys) -> Branch:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if np.any(np.diff(xs) <= 0) or np.any(np.diff(ys) <= 0):
            raise ValueError("branch nodes must be strictly increasing in x and y")
        spline = PchipInterpolator(xs, ys, extrapolate=True)
        d1 = spline.derivative(1)
        d2 = spline.derivative(2)
        return Branch(
            _ShearBranchFn(spline, d1, d2, 0),
            _ShearBranchFn(spline, d1, d2, 1),
            _ShearBranchFn(spline, d1, d2, 2),
        )

    if eps_max >= 0.5:
        raise ValueError("shear perturbations require eps_max < 1/2")
    return MapFamily(
        s=s,
        eps_max=eps_max,
        branch_pos=make(pos_x, pos_y),
        branch_neg=make(neg_x, neg_y),
        k1=k1,
        k2=k2,
        label="table",
    )


def _check_domain(family: MapFamily, t: ArrayLike, x: ArrayLike) -> None:
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(t) > family.eps_max):
        raise DomainError(f"|t| exceeds eps_max={family.eps_max}")
    if np.any(x == 0.0):
        raise DomainError("x = 0 is the singular point")
    if np.any(np.abs(x) > 1.0):
        raise DomainError("x outside [-1, 1]")


def _unchecked(family: MapFamily, part: str, t: ArrayLike, x: ArrayLike) -> np.ndarray:
    """Branch dispatch: `part` ("value", "deriv" or "second") of the branch
    holding each x, without domain checks. x <= 0 and NaN go to the negative
    branch, so NaN rows stay NaN for the built-in families."""
    x = np.asarray(x, dtype=float)
    pos = x > 0
    if x.ndim == 0:
        b = family.branch_pos if pos else family.branch_neg
        return np.asarray(getattr(b, part)(t, x), dtype=float)
    out = np.empty_like(x)
    t_arr = np.broadcast_to(np.asarray(t, dtype=float), x.shape)
    out[pos] = getattr(family.branch_pos, part)(t_arr[pos], x[pos])
    out[~pos] = getattr(family.branch_neg, part)(t_arr[~pos], x[~pos])
    return out


def evaluate(family: MapFamily, t: ArrayLike, x: ArrayLike) -> ArrayLike:
    """T_t(x). Raises DomainError at x = 0 or when |t| > eps_max."""
    _check_domain(family, t, x)
    out = _unchecked(family, "value", t, x)
    return float(out) if np.ndim(out) == 0 else out


def derivative(family: MapFamily, t: ArrayLike, x: ArrayLike) -> ArrayLike:
    """DT_t(x) > 0 away from the singularity."""
    _check_domain(family, t, x)
    out = _unchecked(family, "deriv", t, x)
    return float(out) if np.ndim(out) == 0 else out


def second_derivative(family: MapFamily, t: ArrayLike, x: ArrayLike) -> ArrayLike:
    _check_domain(family, t, x)
    out = _unchecked(family, "second", t, x)
    return float(out) if np.ndim(out) == 0 else out


def schwarzian(family: MapFamily, t: ArrayLike, x: ArrayLike) -> ArrayLike:
    """S(T_t)(x) = D(D2T/DT) - (D2T/DT)^2 / 2, negative for valid families.

    D(D2T/DT) is expanded as D3T/DT - (D2T/DT)^2; D3T is taken by a central
    difference of the second derivative, which the fixture supplies exactly
    enough for the 1e-4 relative contract.
    """
    _check_domain(family, t, x)
    x_arr = np.asarray(x, dtype=float)
    d1 = _unchecked(family, "deriv", t, x_arr)
    d2 = _unchecked(family, "second", t, x_arr)
    h = 1e-6 * np.maximum(np.abs(x_arr), 1e-3)
    h = np.minimum(h, np.abs(x_arr) / 4.0)  # stay on one side of the singularity
    d3 = (
        _unchecked(family, "second", t, x_arr + h) - _unchecked(family, "second", t, x_arr - h)
    ) / (2.0 * h)
    ratio = d2 / d1
    out = d3 / d1 - 1.5 * ratio**2
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class CriticalNeighborhoods:
    """Preimage of the delta-neighborhoods of the critical values +-1.

    Two components adjacent to the singularity: `neg` = [neg_lo, 0) and
    `pos` = (0, pos_hi]. d_ratio = |B_delta(0)| / (total width) > 0.
    """

    delta: float
    neg_lo: float
    pos_hi: float
    d_ratio: float

    @property
    def width(self) -> float:
        return self.pos_hi - self.neg_lo

    def contains(self, x: ArrayLike) -> ArrayLike:
        x = np.asarray(x)
        out = ((x > 0) & (x <= self.pos_hi)) | ((x < 0) & (x >= self.neg_lo))
        return bool(out) if np.ndim(out) == 0 else out


def critical_neighborhoods(
    family: MapFamily, t: float, delta: float
) -> CriticalNeighborhoods:
    """Solve for the preimages of [-1, -1+delta] and [1-delta, 1] near x = 0.

    The positive branch increases from -1 (at 0+) to T_t(1), the negative one
    from T_t(-1) to 1 (at 0-); bisection on each needs no derivative near the
    flat region. Raises DeltaTooLarge when the target value exits the branch
    image.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    t = float(t)
    _check_domain(family, t, 1.0)
    top_pos = float(_unchecked(family, "value", t, np.float64(1.0)))
    bot_neg = float(_unchecked(family, "value", t, np.float64(-1.0)))
    if -1.0 + delta > top_pos:
        raise DeltaTooLarge(f"B_delta(-1) with delta={delta} exits the positive branch image")
    if 1.0 - delta < bot_neg:
        raise DeltaTooLarge(f"B_delta(+1) with delta={delta} exits the negative branch image")

    tiny = np.finfo(float).tiny

    def f_pos(x: np.ndarray) -> np.ndarray:
        return _unchecked(family, "value", t, np.maximum(x, tiny))

    def f_neg(x: np.ndarray) -> np.ndarray:
        return _unchecked(family, "value", t, np.minimum(x, -tiny))

    pos_hi = float(
        bisect_increasing(f_pos, np.float64(-1.0 + delta), tiny, 1.0, xtol=1e-15, ftol=1e-12)
    )
    neg_lo = float(
        bisect_increasing(f_neg, np.float64(1.0 - delta), -1.0, -tiny, xtol=1e-15, ftol=1e-12)
    )
    res_pos = abs(float(_unchecked(family, "value", t, np.float64(pos_hi))) - (-1.0 + delta))
    res_neg = abs(float(_unchecked(family, "value", t, np.float64(neg_lo))) - (1.0 - delta))
    if max(res_pos, res_neg) > 1e-10:
        raise DeltaTooLarge(
            f"endpoint residual {max(res_pos, res_neg):.3e} after root-finding; "
            "branch too flat for this delta"
        )
    d_ratio = 2.0 * delta / (pos_hi - neg_lo)
    return CriticalNeighborhoods(delta=delta, neg_lo=neg_lo, pos_hi=pos_hi, d_ratio=d_ratio)


@dataclass(frozen=True)
class GridSpec:
    """Sampling plan for the numerical condition checks."""

    n_x: int = 10_000
    n_t: int = 41
    horizon: int = 30
    x_min: float = 1e-9
    limit_tol: float = 1e-3
    fd_rel_tol: float = 1e-6

    def x_points(self) -> np.ndarray:
        half = np.geomspace(self.x_min, 1.0, self.n_x // 2)
        return np.concatenate([-half[::-1], half])

    def t_points(self, eps_max: float) -> np.ndarray:
        return np.linspace(-eps_max, eps_max, self.n_t)


@dataclass
class ConditionReport:
    """Per-condition verdicts with the fitted constants behind them.

    `r3_ok` is reported but excluded from `required_ok`: a closed-form
    fixture cannot have dense critical orbits and the check records that
    honestly instead of failing the family.
    """

    c1_ok: bool
    c1_gap: float
    c2_monotone_ok: bool
    k1_fit: float
    k2_fit: float
    envelope_ok: bool
    c3_ok: bool
    c3_max: float
    range_ok: bool
    r1_ok: bool
    lambda_fit: float
    r2_ok: bool
    alpha_fit: float
    r3_ok: bool
    r3_max_gap: float
    admissibility_c: float
    t_lipschitz_ok: bool
    summability_partial: float
    summability_terms: int
    details: dict = field(default_factory=dict)

    @property
    def required_ok(self) -> bool:
        return (
            self.c1_ok
            and self.c2_monotone_ok
            and self.envelope_ok
            and self.c3_ok
            and self.range_ok
            and self.r1_ok
            and self.r2_ok
            and self.t_lipschitz_ok
        )


def unperturbed_orbit(family: MapFamily, v: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Orbit of v under T_0 with the derivative cocycle.

    Returns (points v_0..v_n, cumulative log DT^k at v_0 for k = 0..n). An
    orbit that rounds onto the singularity ends there: both arrays stop at
    the first point equal to 0. The critical orbits start at the one-sided
    critical values: -1 (the limit of T at 0+) and +1.
    """
    pts = np.empty(n + 1)
    logd = np.zeros(n + 1)
    pts[0] = v
    for k in range(n):
        logd[k + 1] = logd[k] + np.log(float(_unchecked(family, "deriv", 0.0, np.float64(v))))
        v = float(_unchecked(family, "value", 0.0, np.float64(v)))
        pts[k + 1] = v
        if v == 0.0:
            return pts[: k + 2], logd[: k + 2]
    return pts, logd


def verify_conditions(family: MapFamily, grid: GridSpec | None = None) -> ConditionReport:
    """Grid-sampled verification of the map conditions and the Rovella checks.

    Families are supplied as callables, so every check samples rather than
    reasons symbolically. R1/R2 run along the critical orbits of the t = 0
    map up to `grid.horizon`; the admissibility distortion constant is the
    empirical sup over sampled pairs with 2|x - y| < |x|.
    """
    grid = grid or GridSpec()
    xs = grid.x_points()
    ts = grid.t_points(family.eps_max)

    # C1: one-sided limits at the singularity on a shrinking grid.
    shrink = np.geomspace(grid.x_min, 1e-4, 32)
    gaps = []
    for t in (0.0, family.eps_max, -family.eps_max):
        gaps.append(np.abs(_unchecked(family, "value", t, shrink) - (-1.0)).max())
        gaps.append(np.abs(_unchecked(family, "value", t, -shrink) - 1.0).max())
    c1_gap = float(max(gaps))
    c1_ok = c1_gap <= grid.limit_tol

    # C2 + envelope + C3 + range over the (t, x) grid.
    monotone_ok = True
    envelope_lo = np.inf
    envelope_hi = -np.inf
    c3_max = -np.inf
    range_ok = True
    for t in ts:
        d = _unchecked(family, "deriv", t, xs)
        monotone_ok &= bool(np.all(d > 0))
        ratio = d / np.abs(xs) ** (family.s - 1.0)
        envelope_lo = min(envelope_lo, float(ratio.min()))
        envelope_hi = max(envelope_hi, float(ratio.max()))
        c3_max = max(c3_max, float(np.max(schwarzian(family, t, xs))))
        vals = _unchecked(family, "value", t, xs)
        range_ok &= bool(np.all(np.abs(vals) <= 1.0 + 1e-15))
    envelope_ok = (
        family.k1 <= envelope_lo + 1e-9 and envelope_hi <= family.k2 + 1e-9
    )

    # R1: DT^n at the critical values of T_0 beats lambda^n for some lambda > 1.
    n = grid.horizon
    lam_fit = np.inf
    r2_alpha = 0.0
    sum_partial = 0.0
    sum_terms = 0
    for v0 in (-1.0, 1.0):
        pts, logd = unperturbed_orbit(family, v0, n)
        m = len(pts) - 1
        if m >= 1:
            rates = logd[1:] / np.arange(1, m + 1)
            lam_fit = min(lam_fit, float(np.exp(rates.min())))
            # R2: |T^{n-1}(v)| > e^{-alpha n}; empirical alpha is the sup of
            # -log|T^{n-1}(v)| / n over the horizon.
            with np.errstate(divide="ignore"):
                alphas = -np.log(np.abs(pts[:-1])) / np.arange(1, m + 1)
            r2_alpha = max(r2_alpha, float(alphas.max()))
            # Summability partial sums (reported, no pass/fail claim).
            sum_partial += float(np.sum(np.exp(-logd[1:])))
            sum_terms = max(sum_terms, m)
    r1_ok = lam_fit > 1.0
    r2_ok = np.isfinite(r2_alpha)

    # R3: density of the critical orbits in I, reported via the largest gap
    # left by the union of both orbits.
    pts_all = np.concatenate([unperturbed_orbit(family, v0, max(n, 200))[0] for v0 in (-1.0, 1.0)])
    pts_sorted = np.sort(np.concatenate([pts_all, [-1.0, 1.0]]))
    r3_max_gap = float(np.max(np.diff(pts_sorted)))
    r3_ok = r3_max_gap < 0.05

    # Admissibility: |d/dt T_t(x)| <= 1 via sampled secants in t, and the
    # distortion modulus |log(DT(x)/DT(y))| * |x| / |x - y| on close pairs.
    t_lip_ok = True
    for i in range(len(ts) - 1):
        gap = np.abs(
            _unchecked(family, "value", ts[i + 1], xs) - _unchecked(family, "value", ts[i], xs)
        ).max()
        t_lip_ok &= bool(gap <= abs(ts[i + 1] - ts[i]) + 1e-12)
    rng = np.random.default_rng(0)
    xa = xs[np.abs(xs) > 1e-6]
    frac = rng.uniform(-0.49, 0.49, size=xa.size)
    ya = xa + frac * np.abs(xa)
    ya[ya == 0.0] = xa[ya == 0.0]
    adm_c = 0.0
    for t in (0.0, family.eps_max):
        da = _unchecked(family, "deriv", t, xa)
        db = _unchecked(family, "deriv", t, ya)
        mod = np.abs(np.log(da / db)) * np.abs(xa) / np.maximum(np.abs(xa - ya), 1e-300)
        adm_c = max(adm_c, float(mod.max()))

    return ConditionReport(
        c1_ok=c1_ok,
        c1_gap=c1_gap,
        c2_monotone_ok=monotone_ok,
        k1_fit=float(envelope_lo),
        k2_fit=float(envelope_hi),
        envelope_ok=envelope_ok,
        c3_ok=c3_max < 0.0,
        c3_max=c3_max,
        range_ok=range_ok,
        r1_ok=r1_ok,
        lambda_fit=lam_fit,
        r2_ok=r2_ok,
        alpha_fit=r2_alpha,
        r3_ok=r3_ok,
        r3_max_gap=r3_max_gap,
        admissibility_c=adm_c,
        t_lipschitz_ok=t_lip_ok,
        summability_partial=sum_partial,
        summability_terms=sum_terms,
    )
