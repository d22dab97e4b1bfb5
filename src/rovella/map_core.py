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

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DeltaTooLarge, DomainError

ArrayLike = float | np.ndarray
MapFn = Callable[[ArrayLike, ArrayLike], ArrayLike]

# Innermost point of each branch domain: [1e-300, 1] and [-1, -1e-300].
_BRANCH_EDGE = 1e-300


@dataclass(frozen=True)
class MapFamily:
    """One-parameter admissible family of contracting Lorenz maps.

    `value`, `deriv` and `second` give T_t(x) and its first and second
    x-derivatives on both sides of the singularity: x > 0 is the positive
    side, x <= 0 and NaN the negative one. They are numpy-vectorized and
    elementwise: each output entry depends only on the (t, x) pair at its
    position, so a call on a whole array equals calls on its parts.

    `inverse_pos` and `inverse_neg` invert `value` on the positive and the
    negative branch domain, [1e-300, 1] and [-1, -1e-300]: (t, y) -> x, with
    a target outside the branch image mapped to the nearest domain endpoint.
    They are exact for closed forms and exact up to 2 ulp for splines (where
    a branch is nearly flat, up to the rounding of the spline's cubic over
    its slope).

    Immutable after construction; all operations are pure functions of their
    arguments, so instances are safe to share across worker threads.
    """

    s: float
    eps_max: float
    value: MapFn
    deriv: MapFn
    second: MapFn
    inverse_pos: MapFn
    inverse_neg: MapFn
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
    """Picklable value / derivative callable of the power-law fixture.

    kind 0/1/2 selects value / first / second x-derivative. The side comes
    from x by the convention of `MapFamily`; it enters only through exact
    multiplications by +-1, so a call on a whole array gives the bytes of
    calls on its parts (signed zeros included). Array calls work in place on
    arrays they allocate, which keeps the temporaries few and lets threads
    share one instance.
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
    """
    # Envelope constants for DT_t(x) = (2-|t|) s |x|^(s-1) over |t| <= eps_max.
    k1 = (2.0 - eps_max) * s
    k2 = 2.0 * s
    value, deriv, second = (_FixtureBranchFn(s, kind) for kind in range(3))
    return MapFamily(
        s=s,
        eps_max=eps_max,
        value=value,
        deriv=deriv,
        second=second,
        inverse_pos=_FixtureInverse(s, 1.0),
        inverse_neg=_FixtureInverse(s, -1.0),
        k1=k1,
        k2=k2,
        label=f"fixture(s={s:g})",
    )


def _power_sum(c, hs):
    """c[-1] + c[-2] h + c[-3] (h h) + ... for hs = (h, h h, (h h) h), in
    the order and association of scipy's `PPoly` (coefficients highest power
    first), so arrays and floats get PPoly's bytes."""
    out = c[-1] + c[-2] * hs[0]
    for k in range(2, len(c)):
        out += c[-1 - k] * hs[k - 1]
    return out


@dataclass(frozen=True, eq=False)
class _TableFn:
    """Picklable value / derivative callable of a tabulated family under the
    shear perturbation T_t = T_0 + t (1 - T_0^2).

    T_0 is each branch's PCHIP spline from its innermost node x1 outward and
    the power law sign (a |x|^s - 1) between the singularity and x1, with
    a = (1 + sign y1) / |x1|^s matched to the node value y1, so the spline
    never extrapolates toward 0. kind 0/1/2 selects value / first / second
    x-derivative; the side comes from x as in `_FixtureBranchFn`.

    `knots` holds both branches' knots in order. Column j of `table` holds
    the left knot of piece j, then the coefficients of T_0, T_0' and T_0''
    on it as scipy's `PPoly.c` and `derivative()` give them; the piece
    between the branches repeats the negative branch's last piece, so that
    its last knot evaluates on that piece as `PPoly` does. `_pieces` finds
    the piece of each x through the buckets of `_bucket_lookup`, and
    `_power_sum` sums it, which gives `PPoly`'s bytes. A 0-d call runs the
    same sums on Python floats, with `bisect_right`, or the end piece on a
    one-element array.
    Immutable, so threads share one instance.
    """

    kind: int
    s: float
    widths: tuple[int, ...]
    knots: np.ndarray = field(repr=False)
    table: np.ndarray = field(repr=False)  # (10, pieces): left knot, T_0, T_0', T_0''
    nxt: np.ndarray = field(repr=False)  # knots[i + 1] at piece i; NaN past the last piece
    start: np.ndarray = field(repr=False)
    scale: float = field(repr=False)  # buckets per unit of x
    ends: tuple[float, float] = field(repr=False)  # innermost nodes, negative then positive
    coef: tuple[tuple[float, ...], ...] = field(repr=False)  # a (1, s, s (s-1)) per side, same
    points: tuple[float, ...] = field(repr=False)  # `knots` and the columns of `table`
    columns: tuple[tuple[float, ...], ...] = field(repr=False)  # as floats

    def _pieces(self, x: np.ndarray) -> np.ndarray:
        """np.searchsorted(knots, x, "right") - 1, clipped to the pieces,
        for 1-d x (NaN goes to any piece)."""
        bucket = np.fmin(np.fmax((x - self.knots[0]) * self.scale, 0.0), self.start.size - 1.0)
        i = self.start[bucket.astype(np.intp)]
        for w in self.widths:  # advance w pieces where knots[i + w] <= x
            i += (self.nxt[i + (w - 1)] <= x) * w
        return i

    def _bases(self, x: np.ndarray) -> list[np.ndarray]:
        """T_0 and its first `kind` x-derivatives at 1-d x."""
        col = np.take(self.table[: (5, 8, 10)[self.kind]], self._pieces(x), axis=1)
        h = x - col[0]
        h2 = h * h
        hs = (h, h2, h2 * h)
        bases = [_power_sum(c, hs) for c in (col[1:5], col[5:8], col[8:10])[: self.kind + 1]]
        inner = (x > self.ends[0]) & (x < self.ends[1])
        if inner.any():
            for out, end in zip(bases, self._end_piece(x[inner])):
                out[inner] = end
        return bases

    def _end_piece(self, x: np.ndarray) -> list[np.ndarray]:
        """d^k/dx^k of sign (a |x|^s - 1), k = 0..kind, at 1-d x strictly
        between the innermost nodes."""
        pos = x > 0
        sign = np.where(pos, 1.0, -1.0)
        out = []
        for k in range(self.kind + 1):
            vals = np.where(pos, self.coef[1][k], self.coef[0][k]) * np.abs(x) ** (self.s - k)
            out.append((vals if k == 1 else sign * vals) - (sign if k == 0 else 0.0))
        return out

    def _scalar(self, t: float, x: float) -> float:
        if self.ends[0] < x < self.ends[1]:
            # On a one-element array: numpy's array power rounds as for arrays.
            b = [float(v[0]) for v in self._end_piece(np.array([x]))]
        else:
            i = min(max(bisect_right(self.points, x) - 1, 0), len(self.points) - 2)
            col = self.columns[i]
            h = x - col[0]
            h2 = h * h
            hs = (h, h2, h2 * h)
            b = [_power_sum(c, hs) for c in (col[1:5], col[5:8], col[8:10])[: self.kind + 1]]
        if self.kind == 0:
            return min(max(b[0] + t * (1.0 - b[0] * b[0]), -1.0), 1.0)
        if self.kind == 1:
            return b[1] * (1.0 - 2.0 * t * b[0])
        return b[2] * (1.0 - 2.0 * t * b[0]) - 2.0 * t * (b[1] * b[1])

    def __call__(self, t: ArrayLike, x: ArrayLike) -> ArrayLike:
        if np.ndim(t) == 0 and np.ndim(x) == 0:
            return self._scalar(float(t), float(x))
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        b0, *more = (b.reshape(x.shape) for b in self._bases(x.ravel()))
        if self.kind == 0:
            return np.clip(b0 + t * (1.0 - b0**2), -1.0, 1.0)
        if self.kind == 1:
            return more[0] * (1.0 - 2.0 * t * b0)
        return more[1] * (1.0 - 2.0 * t * b0) - 2.0 * t * more[0] ** 2


@dataclass(frozen=True, eq=False)
class _TableInverse:
    """Picklable inverse of one table branch (`_shear_spline_inverse`): the
    branch's knots, `PPoly.c` and node values T_0(knots), its innermost
    node x1 and the end piece sign (a |x|^s - 1) below it."""

    knots: np.ndarray
    c: np.ndarray
    nodes: np.ndarray
    x1: float
    a: float
    s: float

    def __call__(self, t: ArrayLike, y: ArrayLike) -> np.ndarray:
        return _shear_spline_inverse(self, t, y)


def _bucket_lookup(knots: np.ndarray) -> tuple[np.ndarray, tuple[int, ...], np.ndarray, float]:
    """(start, widths, nxt, scale) of `_TableFn._pieces` on sorted knots.

    [knots[0], knots[-1]] is cut into four equal buckets per knot, `scale`
    buckets per unit of x. The bucket index computed for x is within one of
    the exact one, so bucket b starts at the piece of edge b - 1, and x lies
    at most J pieces further, J being the most pieces between edges b - 1
    and b + 2 over all b. Advancing by each power of two up to J, largest
    first, wherever the knot that far on is <= x, covers those J pieces in
    about log2 J steps; `nxt` is knots[i + 1] at piece i and NaN past the
    last piece, so no step leaves the pieces.
    """
    buckets = 4 * knots.size
    scale = buckets / (knots[-1] - knots[0])
    edges = knots[0] + np.arange(-1, buckets + 2) / scale
    piece = np.clip(np.searchsorted(knots, edges, side="right") - 1, 0, knots.size - 2)
    most = int((piece[3:] - piece[:-3]).max())
    widths = tuple(1 << k for k in reversed(range(most.bit_length())))
    nxt = np.concatenate([knots[1:-1], np.full(max(widths, default=1), np.nan)])
    return piece[:-3], widths, nxt, float(scale)


# Safeguarded Newton needs about 5 steps; the cap only bounds rows that
# keep bisecting (each bisection halves the bracket).
_NEWTON_CAP = 100


def _shear_spline_inverse(fn: _TableInverse, t: ArrayLike, y: ArrayLike) -> np.ndarray:
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
    knots, c, nodes = fn.knots, fn.c, fn.nodes
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
    declared power law (see `_TableFn`); the nodes must pass
    `check_table`. The perturbation acts as the shear
    T_t = T_0 + t (1 - T_0^2), which keeps the one-sided limits at the
    singularity, satisfies |d/dt| <= 1, and preserves monotonicity for
    |t| < 1/2. The singularity order and envelope constants are declared,
    not inferred; `verify_conditions` checks them. One callable per
    derivative order (`_TableFn`) evaluates the spline in-house, and each
    branch has its inverse (`_shear_spline_inverse`). scipy builds the
    spline coefficients and is not called after that.
    """
    from scipy.interpolate import PchipInterpolator

    check_table(pos_x, pos_y, neg_x, neg_y, s, k1, k2, eps_max)
    inverses, parts = [], []
    for xs, ys, inner in ((neg_x, neg_y, -1), (pos_x, pos_y, 0)):
        xs, ys = np.array(xs, dtype=float), np.array(ys, dtype=float)
        spline = PchipInterpolator(xs, ys)
        x1 = float(xs[inner])
        a = float((1.0 + np.copysign(1.0, x1) * ys[inner]) / abs(x1) ** s)
        cols = np.vstack([xs[:-1], spline.c, spline.derivative(1).c, spline.derivative(2).c])
        cols[(4, 7, 9), :] += 0.0  # PPoly sums from 0.0, so a -0.0 constant term gives 0.0
        h = xs[-1] - xs[-2]
        nodes = np.append(spline.c[3], _power_sum(cols[1:5, -1], (h, h * h, h * h * h)))
        inverses.append(_TableInverse(xs, spline.c, nodes, x1, a, s))
        parts.append((xs, cols, x1, tuple(a * f for f in (1.0, s, s * (s - 1.0)))))
    (neg_xs, neg_cols, neg_x1, neg_coef), (pos_xs, pos_cols, pos_x1, pos_coef) = parts
    knots = np.concatenate([neg_xs, pos_xs])
    table = np.hstack([neg_cols, neg_cols[:, -1:], pos_cols])
    start, widths, nxt, scale = _bucket_lookup(knots)
    for arr in (knots, table, nxt, start, *(v for i in inverses for v in (i.knots, i.c, i.nodes))):
        arr.setflags(write=False)
    points, columns = tuple(knots.tolist()), tuple(map(tuple, table.T.tolist()))
    value, deriv, second = (
        _TableFn(kind, s, widths, knots, table, nxt, start, scale, (neg_x1, pos_x1),
                 (neg_coef, pos_coef), points, columns)
        for kind in range(3)
    )
    return MapFamily(
        s=s,
        eps_max=eps_max,
        value=value,
        deriv=deriv,
        second=second,
        inverse_pos=inverses[1],
        inverse_neg=inverses[0],
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


def invert_branch(family: MapFamily, t: ArrayLike, y: ArrayLike, side: ArrayLike) -> np.ndarray:
    """x on the branch of `side` (+1 or -1, per row or shared) with T_t(x) = y,
    by the family's inverse of that side; a target outside the branch image
    maps to the nearest domain endpoint."""
    y = np.asarray(y, dtype=float)
    side = np.asarray(side, dtype=float)
    inv_pos, inv_neg = family.inverse_pos, family.inverse_neg
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
    out = family.value(t, x)
    return float(out) if np.ndim(out) == 0 else out


def derivative(family: MapFamily, t: ArrayLike, x: ArrayLike) -> ArrayLike:
    """DT_t(x) > 0 away from the singularity."""
    _check_domain(family, t, x)
    out = family.deriv(t, x)
    return float(out) if np.ndim(out) == 0 else out


def second_derivative(family: MapFamily, t: ArrayLike, x: ArrayLike) -> ArrayLike:
    _check_domain(family, t, x)
    out = family.second(t, x)
    return float(out) if np.ndim(out) == 0 else out


def schwarzian(family: MapFamily, t: ArrayLike, x: ArrayLike) -> ArrayLike:
    """S(T_t)(x) = D(D2T/DT) - (D2T/DT)^2 / 2, negative for valid families.

    D(D2T/DT) is expanded as D3T/DT - (D2T/DT)^2; D3T is taken by a central
    difference of the second derivative, which the fixture supplies exactly
    enough for the 1e-4 relative contract.
    """
    _check_domain(family, t, x)
    x_arr = np.asarray(x, dtype=float)
    d1 = family.deriv(t, x_arr)
    d2 = family.second(t, x_arr)
    h = 1e-6 * np.maximum(np.abs(x_arr), 1e-3)
    h = np.minimum(h, np.abs(x_arr) / 4.0)  # stay on one side of the singularity
    d3 = (family.second(t, x_arr + h) - family.second(t, x_arr - h)) / (2.0 * h)
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
    top_pos = float(family.value(t, 1.0))
    bot_neg = float(family.value(t, -1.0))
    if -1.0 + delta > top_pos:
        raise DeltaTooLarge(f"B_delta(-1) with delta={delta} exits the positive branch image")
    if 1.0 - delta < bot_neg:
        raise DeltaTooLarge(f"B_delta(+1) with delta={delta} exits the negative branch image")

    pos_hi, neg_lo = invert_branch(
        family, t, np.array([-1.0 + delta, 1.0 - delta]), np.array([1.0, -1.0])
    ).tolist()
    res_pos = abs(float(family.value(t, pos_hi)) - (-1.0 + delta))
    res_neg = abs(float(family.value(t, neg_lo)) - (1.0 - delta))
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
        logd[k + 1] = logd[k] + np.log(float(family.deriv(0.0, v)))
        v = float(family.value(0.0, v))
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
        gaps.append(np.abs(family.value(t, shrink) - (-1.0)).max())
        gaps.append(np.abs(family.value(t, -shrink) - 1.0).max())
    c1_gap = float(max(gaps))
    c1_ok = c1_gap <= grid.limit_tol

    # C2 + envelope + C3 + range over the (t, x) grid.
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
        gap = np.abs(family.value(ts[i + 1], xs) - family.value(ts[i], xs)).max()
        t_lip_ok &= bool(gap <= abs(ts[i + 1] - ts[i]) + 1e-12)
    rng = np.random.default_rng(0)
    xa = xs[np.abs(xs) > 1e-6]
    frac = rng.uniform(-0.49, 0.49, size=xa.size)
    ya = xa + frac * np.abs(xa)
    ya[ya == 0.0] = xa[ya == 0.0]
    adm_c = 0.0
    for t in (0.0, family.eps_max):
        da = family.deriv(t, xa)
        db = family.deriv(t, ya)
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
