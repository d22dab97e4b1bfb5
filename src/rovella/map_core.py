"""Contracting Lorenz (Rovella) map families on I = [-1, 1].

A family is a pair of monotone branches (t, x) -> T_t(x) on (0, 1] and
[-1, 0), with first and second x-derivatives, a singularity of order s - 1
at x = 0, and an envelope k1 |x|^(s-1) <= DT_t(x) <= k2 |x|^(s-1).

The built-in fixture family

    T_t(x) = sign(x) * ((2 - |t|) * |x|^s - 1)

has closed-form derivatives, Schwarzian and branch inverses, the boundary
points +-1 fixed at t = 0, and fails the critical-orbit density condition
(the orbit of the critical values is a fixed point); `verify_conditions`
reports that honestly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DeltaTooLarge, DomainError

ArrayLike = float | np.ndarray
BranchFn = Callable[[ArrayLike, ArrayLike], ArrayLike]

# Innermost point of each branch domain: [1e-300, 1] and [-1, -1e-300].
_BRANCH_EDGE = 1e-300


@dataclass(frozen=True)
class Branch:
    """One monotone branch with value, two x-derivatives and inverse,
    numpy-vectorized.

    `inverse` is the inverse (t, y) -> x of `value` on the branch domain
    [1e-300, 1] (positive branch) or [-1, -1e-300] (negative branch): a
    target outside the image maps to the nearest domain endpoint. It is
    exact for closed forms and exact up to 2 ulp for splines (where a
    branch is nearly flat, up to the rounding of the spline's cubic over
    its slope).

    Callables are elementwise: each output entry depends only on the (t, x)
    pair at its position, so a call on a whole array equals calls on its
    parts. A callable that both branches of a family share must take both
    signs of x (x > 0 on the positive side, x <= 0 and NaN on the negative
    one); `_unchecked` then calls it once on the whole array.
    """

    value: BranchFn
    deriv: BranchFn
    second: BranchFn
    inverse: BranchFn


@dataclass(frozen=True)
class MapFamily:
    """One-parameter admissible family of contracting Lorenz maps.

    Immutable after construction; all operations are pure functions of their
    arguments, so instances are safe to share across worker threads.
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
    """Picklable value / derivative callable of the power-law fixture,
    shared by both branches.

    kind 0/1/2 selects value / first / second x-derivative. The side comes
    from x by the dispatch convention of `_unchecked`: x > 0 is the positive
    branch, x <= 0 and NaN the negative one. The side enters only through
    exact multiplications by +-1, so one call on a whole array gives the
    same bytes as one call per branch on its rows (signed zeros included).
    Array calls work in place on arrays they allocate, which keeps the
    temporaries few and lets threads share one instance. Pickling keeps the
    one object shared by both branches.
    """

    s: float
    kind: int

    def __call__(self, t: ArrayLike, x: ArrayLike) -> ArrayLike:
        amp = 2.0 - np.abs(t)
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:
            sign = 1.0 if x > 0 else -1.0
            ax = sign * x
            if self.kind == 0:
                # Builtin clamp: np.clip costs microseconds on a scalar.
                return min(max(sign * (amp * np.power(ax, self.s) - 1.0), -1.0), 1.0)
            if self.kind == 1:
                return amp * self.s * np.power(ax, self.s - 1.0)
            return sign * amp * self.s * (self.s - 1.0) * np.power(ax, self.s - 2.0)
        # The 0-d formulas, reordered only where multiplication commutes.
        sign = np.where(x > 0, 1.0, -1.0)
        out = np.multiply(sign, x)
        np.power(out, self.s - self.kind, out=out)
        if self.kind == 0:
            out *= amp
            out -= 1.0
            out *= sign
            return np.clip(out, -1.0, 1.0, out=out)
        if self.kind == 1:
            out *= amp * self.s
            return out
        out *= amp * self.s * (self.s - 1.0)
        out *= sign
        return out


@dataclass(frozen=True)
class _FixtureInverse:
    """Picklable inverse x = sign ((1 + sign y) / (2 - |t|))^(1/s) of the
    fixture's branch on side `sign`, clamped to the branch domain."""

    s: float
    sign: float

    def __call__(self, t: ArrayLike, y: ArrayLike) -> ArrayLike:
        ay = self.sign * np.asarray(y, dtype=float)
        # 1 + sign y < 0 lies outside the image.
        root = np.power(np.maximum(1.0 + ay, 0.0) / (2.0 - np.abs(t)), 1.0 / self.s)
        return self.sign * np.clip(root, _BRANCH_EDGE, 1.0)


def fixture_family(s: float = 2.0, eps_max: float = 0.1) -> MapFamily:
    """Closed-form family T_t(x) = sign(x)((2-|t|)|x|^s - 1), clipped to I,
    with closed-form branch inverses.

    Both branches hold the same value and derivative callables, which
    `_unchecked` calls once on a whole array; each branch has its own
    inverse, since `invert_branch` picks the side itself.
    """
    # Envelope constants for DT_t(x) = (2-|t|) s |x|^(s-1) over |t| <= eps_max.
    k1 = (2.0 - eps_max) * s
    k2 = 2.0 * s
    shared = [_FixtureBranchFn(s, kind) for kind in range(3)]
    return MapFamily(
        s=s,
        eps_max=eps_max,
        branch_pos=Branch(*shared, inverse=_FixtureInverse(s, 1.0)),
        branch_neg=Branch(*shared, inverse=_FixtureInverse(s, -1.0)),
        k1=k1,
        k2=k2,
        label=f"fixture(s={s:g})",
    )


@dataclass(frozen=True)
class _ShearBranchFn:
    """Picklable branch callable for tabulated families under the shear
    perturbation T_t = T_0 + t (1 - T_0^2).

    T_0 is the PCHIP spline from the innermost node x1 outward and the
    power law sign (a |x|^s - 1) between the singularity and x1, with
    a = (1 + sign y1) / |x1|^s matched to the node value y1, so the spline
    never extrapolates. kind 0/1/2 selects value / first / second
    x-derivative and kind 3 the inverse `_shear_spline_inverse`.
    """

    spline: object
    d1: object
    d2: object
    x1: float
    a: float
    s: float
    kind: int

    def base(self, x: ArrayLike, k: int) -> np.ndarray:
        """The k-th x-derivative of T_0 (k = 0, 1, 2)."""
        x = np.asarray(x, dtype=float)
        out = np.asarray((self.spline, self.d1, self.d2)[k](x))
        inner = np.abs(x) < abs(self.x1)
        if inner.any():  # d^k/dx^k of sign (a |x|^s - 1)
            sign = np.copysign(1.0, self.x1)
            coef = self.a * (1.0, self.s, self.s * (self.s - 1.0))[k]
            vals = coef * np.abs(x[inner]) ** (self.s - k)
            out[inner] = (vals if k == 1 else sign * vals) - (sign if k == 0 else 0.0)
        return out

    def __call__(self, t: ArrayLike, x: ArrayLike) -> ArrayLike:
        if self.kind == 3:
            return _shear_spline_inverse(self, t, x)
        base = self.base(x, 0)
        t_arr = np.asarray(t)
        if self.kind == 0:
            return np.clip(base + t_arr * (1.0 - base**2), -1.0, 1.0)
        if self.kind == 1:
            return self.base(x, 1) * (1.0 - 2.0 * t_arr * base)
        return self.base(x, 2) * (1.0 - 2.0 * t_arr * base) - 2.0 * t_arr * self.base(x, 1) ** 2


# Safeguarded Newton needs about 5 steps; the cap only bounds rows that
# keep bisecting (each bisection halves the bracket).
_NEWTON_CAP = 100


def _shear_spline_inverse(fn: _ShearBranchFn, t: ArrayLike, y: ArrayLike) -> np.ndarray:
    """x with T_0(x) + t (1 - T_0(x)^2) = y on the branch of `fn`, clamped
    to the branch domain.

    The stable root p = 2 (y - t) / (1 + sqrt(1 - 4 t (y - t))), exact at
    t = 0, undoes the shear. Below the innermost node value the end piece
    inverts in closed form, x = sign ((1 + sign p) / a)^(1/s); past the
    outermost node value x is the outer domain end, and a target with no
    real p goes to the domain end on the side of sign(y). Otherwise the
    node values pick the spline piece, and a bracketed Newton iteration
    starts at the secant and bisects when a step leaves the bracket or the
    slope is not positive. Its residual is summed so that rounding falls on
    the small terms, not on terms of size 1: the result is within 2 ulp of
    the exact root of the cubic, plus a few roundings of the cubic's rise
    from its left knot over the slope, which only matter where the branch
    is nearly flat. A row stops once its step is at most 2 ulp or lands on
    its bracket end, so its result does not depend on the other rows.
    """
    y = np.asarray(y, dtype=float)
    t = np.asarray(t, dtype=float)
    u = y - t
    with np.errstate(invalid="ignore"):  # no real p: past the image
        p = 2.0 * u / (1.0 + np.sqrt(1.0 - 4.0 * t * u))
    p = np.where(np.isnan(p) & ~np.isnan(y), np.copysign(np.inf, y), p)
    knots, c = fn.spline.x, fn.spline.c
    nodes = np.append(c[3], fn.spline(knots[-1]))
    under, over = p < nodes[0], p > nodes[-1]
    active = np.array((p >= nodes[0]) & (p <= nodes[-1]))
    i = np.clip(np.searchsorted(nodes, p, side="right") - 1, 0, knots.size - 2)
    c0, c1, c2, c3 = c[0, i], c[1, i], c[2, i], c[3, i]
    left = knots[i]
    a, b = left, knots[i + 1]
    with np.errstate(invalid="ignore", divide="ignore"):
        x = np.where(active, a + (p - c3) / (nodes[i + 1] - c3) * (b - a), np.nan)
        for _ in range(_NEWTON_CAP):
            h = x - left
            d = h * (c2 + h * (c1 + h * c0))  # spline(x) - c3
            f = ((c3 - y) + d) + t * (((1.0 - c3) - d) * ((1.0 + c3) + d))
            slope = (c2 + h * (2.0 * c1 + 3.0 * c0 * h)) * (1.0 - 2.0 * t * (c3 + d))
            below = f < 0.0
            a = np.where(below, x, a)
            b = np.where(below, b, x)
            step = x - f / slope
            step = np.where((slope > 0.0) & (step >= a) & (step <= b), step, 0.5 * (a + b))
            # np.spacing is negative for x < 0. A step onto a bracket end
            # means the rounded residual changes sign there: nothing to gain.
            done = (np.abs(step - x) <= 2.0 * np.abs(np.spacing(x))) | (step == a) | (step == b)
            x = np.where(active, step, x)
            active &= ~done
            if not active.any():
                break
    sign = np.copysign(1.0, fn.x1)
    inner, outer = (under, over) if sign > 0 else (over, under)
    end = sign * np.power(np.maximum(1.0 + sign * p, 0.0) / fn.a, 1.0 / fn.s)
    x = np.where(inner, end, np.where(outer, sign, x))
    lo, hi = (_BRANCH_EDGE, 1.0) if sign > 0 else (-1.0, -_BRANCH_EDGE)
    return np.clip(x, lo, hi)


def check_table(pos_x, pos_y, neg_x, neg_y, s, k1, k2, eps_max) -> None:
    """Raise ValueError unless the arguments of `table_family` define a
    family: on each branch strictly increasing x and y, the outermost node
    at +-1 and the innermost on its own side of 0 with a value inside the
    one-sided limit (so the end piece rises from it); s > 1,
    0 < k1 <= k2 and eps_max < 1/2. Pure numpy, so configs validate
    without loading scipy."""
    if not s > 1:
        raise ValueError("s > 1 required")
    if not 0 < k1 <= k2:
        raise ValueError("0 < K1 <= K2 required")
    if not eps_max < 0.5:
        raise ValueError("shear perturbations require eps_max < 1/2")
    for name, xs, ys, sign in (("pos", pos_x, pos_y, 1.0), ("neg", neg_x, neg_y, -1.0)):
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
            raise ValueError(f"{name}: x and y need one value per node, at least two nodes")
        if not (np.all(np.diff(xs) > 0) and np.all(np.diff(ys) > 0)):
            raise ValueError(f"{name}: nodes must be strictly increasing in x and y")
        inner, outer = (0, -1) if sign > 0 else (-1, 0)
        if xs[outer] != sign or not sign * xs[inner] > 0:
            raise ValueError(
                f"{name}: the outermost node must be at x = {sign:+g} "
                "and the innermost on its side of 0"
            )
        if not sign * ys[inner] > -1.0:
            raise ValueError(f"{name}: the innermost value must lie inside (-1, 1)")


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

    The t = 0 map interpolates the nodes with a monotone PCHIP spline and
    continues each branch from its innermost node to the singularity by the
    declared power law (see `_ShearBranchFn`); the nodes must pass
    `check_table`. The perturbation acts as the shear
    T_t = T_0 + t (1 - T_0^2), which keeps the one-sided limits at the
    singularity, satisfies |d/dt| <= 1, and preserves monotonicity for
    |t| < 1/2. The singularity order and envelope constants are declared,
    not inferred; `verify_conditions` checks them. Each branch carries its
    inverse (`_shear_spline_inverse`).
    """
    from scipy.interpolate import PchipInterpolator

    check_table(pos_x, pos_y, neg_x, neg_y, s, k1, k2, eps_max)

    def make(xs, ys, inner: int) -> Branch:
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        spline = PchipInterpolator(xs, ys)
        x1 = float(xs[inner])
        a = float((1.0 + np.copysign(1.0, x1) * ys[inner]) / abs(x1) ** s)
        d1, d2 = spline.derivative(1), spline.derivative(2)
        return Branch(*(_ShearBranchFn(spline, d1, d2, x1, a, s, kind) for kind in range(4)))

    return MapFamily(
        s=s,
        eps_max=eps_max,
        branch_pos=make(pos_x, pos_y, 0),
        branch_neg=make(neg_x, neg_y, -1),
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
    branch, so NaN rows stay NaN for the built-in families.

    A 0-d x calls its branch's callable. For an array, a callable that both
    branches share is called once on the whole of x, since callables are
    elementwise; otherwise each branch gets its own rows, gathered by sign.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        b = family.branch_pos if x > 0 else family.branch_neg
        return np.asarray(getattr(b, part)(t, x), dtype=float)
    fn_pos, fn_neg = getattr(family.branch_pos, part), getattr(family.branch_neg, part)
    t = np.asarray(t, dtype=float)
    if fn_pos is fn_neg:
        return np.asarray(fn_pos(t, x), dtype=float)
    pos = x > 0
    out = np.empty_like(x)
    t_arr = np.broadcast_to(t, x.shape)
    out[pos] = fn_pos(t_arr[pos], x[pos])
    out[~pos] = fn_neg(t_arr[~pos], x[~pos])
    return out


def invert_branch(family: MapFamily, t: ArrayLike, y: ArrayLike, side: ArrayLike) -> np.ndarray:
    """x on the branch of `side` (+1 or -1, per row or shared) with T_t(x) = y,
    by that branch's `Branch.inverse`; a target outside the branch image
    maps to the nearest domain endpoint."""
    y = np.asarray(y, dtype=float)
    side = np.asarray(side, dtype=float)
    inv_pos, inv_neg = family.branch_pos.inverse, family.branch_neg.inverse
    if side.ndim == 0:
        return np.array((inv_pos if side > 0 else inv_neg)(t, y), dtype=float)
    pos = np.broadcast_to(side > 0, y.shape)
    t_arr = np.broadcast_to(np.asarray(t, dtype=float), y.shape)
    out = np.empty(y.shape)
    out[pos] = inv_pos(t_arr[pos], y[pos])
    out[~pos] = inv_neg(t_arr[~pos], y[~pos])
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
    from T_t(-1) to 1 (at 0-); each endpoint is one `invert_branch` call.
    Raises DeltaTooLarge when the target value exits the branch image or the
    endpoint residual exceeds 1e-10.
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

    pos_hi, neg_lo = invert_branch(
        family, t, np.array([-1.0 + delta, 1.0 - delta]), np.array([1.0, -1.0])
    ).tolist()
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
