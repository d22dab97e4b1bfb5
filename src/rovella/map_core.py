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
MapFn = Callable[[ArrayLike, ArrayLike], ArrayLike]
PairFn = Callable[[ArrayLike, ArrayLike], tuple[ArrayLike, ArrayLike]]
InverseFn = Callable[[ArrayLike, ArrayLike, ArrayLike], ArrayLike]

# Innermost point of each branch domain: [1e-300, 1] and [-1, -1e-300].
_BRANCH_EDGE = 1e-300


@dataclass(frozen=True)
class MapFamily:
    """One-parameter admissible family of contracting Lorenz maps.

    `value`, `deriv` and `second` give T_t(x) and its first and second
    x-derivatives on both sides of the singularity: x > 0 is the positive
    side, x <= 0 and NaN the negative one. They are numpy-vectorized and
    elementwise: each output entry depends only on the (t, x) pair at its
    position, so a call on a whole array equals calls on its parts. An array
    call returns a fresh float64 array, which the caller may overwrite.

    `inverse` inverts `value` on one branch: (t, y, side) -> x with
    T_t(x) = y on the positive branch domain [1e-300, 1] where side is +1 and
    on the negative one [-1, -1e-300] where it is -1, with a target outside
    the branch image mapped to the nearest domain endpoint. t, y and side
    broadcast, so the side is given per row or shared, and it is elementwise
    like `value`: a row of a batch holding both sides gets the bytes it gets
    alone. It is exact for closed forms and exact up to 2 ulp for splines
    (where a branch is nearly flat, up to the rounding of the spline's cubic
    over its slope).

    `value_deriv` (t, x) -> (value(t, x), deriv(t, x)) is set from `value`
    and `deriv`: a table family's own pair (`_TableFn`) looks up each piece
    once for both, the fixture's (`_FixtureBranchFn` of one s) forms the
    side, |x| and 2 - |t| once for both, and any other pair is called one
    after the other.

    Immutable after construction; all operations are pure functions of their
    arguments, so instances are safe to share across worker threads.
    """

    s: float
    eps_max: float
    value: MapFn
    deriv: MapFn
    second: MapFn
    inverse: InverseFn
    k1: float
    k2: float
    label: str = "custom"
    value_deriv: PairFn = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.s <= 1:
            raise ValueError("singularity order s must exceed 1")
        if self.eps_max <= 0:
            raise ValueError("eps_max must be positive")
        if not (0 < self.k1 <= self.k2):
            raise ValueError("need 0 < k1 <= k2")
        value, deriv = self.value, self.deriv
        table_pair = (
            isinstance(value, _TableFn) and isinstance(deriv, _TableFn)
            and value.table is deriv.table
        )
        fixture_pair = (
            isinstance(value, _FixtureBranchFn) and isinstance(deriv, _FixtureBranchFn)
            and value.s == deriv.s
        )
        fused = (table_pair or fixture_pair) and value.kind == 0 and deriv.kind == 1
        pair = deriv.value_deriv if fused else _TwoCalls(value, deriv)
        object.__setattr__(self, "value_deriv", pair)


@dataclass(frozen=True)
class _TwoCalls:
    """Picklable `MapFamily.value_deriv` of any value and derivative pair:
    one call of each."""

    value: MapFn
    deriv: MapFn

    def __call__(self, t: ArrayLike, x: ArrayLike) -> tuple[ArrayLike, ArrayLike]:
        return self.value(t, x), self.deriv(t, x)


@dataclass(frozen=True)
class _FixtureBranchFn:
    """Picklable value / derivative callable of the power-law fixture.

    kind 0/1/2 selects value / first / second x-derivative. The side comes
    from x by the convention of `MapFamily`; it enters only through exact
    multiplications by +-1, so a call on a whole array gives the bytes of
    calls on its parts (signed zeros included). An array call allocates its
    float64 output, holds the side as int8 and works in place on arrays it
    allocated, which keeps the temporaries few and lets threads share one
    instance.
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
        sign, out = _side_and_abs(x)
        np.power(out, self.s - self.kind, out=out)
        return self._scaled(self.kind, amp, sign, out)

    def value_deriv(self, t: ArrayLike, x: ArrayLike) -> tuple[ArrayLike, ArrayLike]:
        """(T_t(x), DT_t(x)) on a kind 1 callable: the bytes of the kind 0 and
        kind 1 calls, with the side, |x| and 2 - |t| formed once for both."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:
            return _FixtureBranchFn(self.s, 0)(t, x), self(t, x)
        amp = 2.0 - np.abs(t)
        sign, ax = _side_and_abs(x)
        value = self._scaled(0, amp, sign, np.power(ax, self.s))
        np.power(ax, self.s - 1.0, out=ax)
        return value, self._scaled(1, amp, sign, ax)

    def _scaled(self, kind: int, amp: ArrayLike, sign: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The kind's array output from out = |x|^(s - kind), in place (the
        0-d formulas, reordered only where multiplication commutes). amp =
        2 - |t| is fresh; kinds 1 and 2 scale it in place, so a caller that
        needs it unscaled takes kind 0 first."""
        if kind == 0:
            out *= amp
            out -= 1.0
            out *= sign
            return np.clip(out, -1.0, 1.0, out=out)
        amp *= self.s
        if kind == 1:
            out *= amp
            return out
        amp *= self.s - 1.0
        out *= amp
        out *= sign
        return out


def _side_and_abs(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The side of each x as int8 +-1 (x > 0 positive, as in `MapFamily`)
    and side * x, a fresh float64 array: |x| but for the sign of a zero."""
    sign = (x > 0).view(np.int8)
    sign *= 2
    sign -= 1
    return sign, np.multiply(sign, x)


@dataclass(frozen=True)
class _FixtureInverse:
    """Picklable inverse x = side ((1 + side y) / (2 - |t|))^(1/s) of the
    fixture's branch on `side` (+-1), clamped to the branch domain. The side
    enters through exact multiplications by +-1."""

    s: float

    def __call__(self, t: ArrayLike, y: ArrayLike, side: ArrayLike) -> ArrayLike:
        side = np.asarray(side)
        ay = side * np.asarray(y, dtype=float)
        # 1 + side y < 0 lies outside the image.
        root = np.power(np.maximum(1.0 + ay, 0.0) / (2.0 - np.abs(t)), 1.0 / self.s)
        return side * np.clip(root, _BRANCH_EDGE, 1.0)


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
        inverse=_FixtureInverse(s),
        k1=k1,
        k2=k2,
        label=f"fixture(s={s:g})",
    )


def _power_sum(c, hs):
    """c[-1] + c[-2] h + c[-3] (h h) + ... for hs = (h, h h, (h h) h), in
    the order and association of scipy's `PPoly` evaluation (coefficients
    highest power first), so arrays and floats get PPoly's bytes without
    calling it."""
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
    on it (`_pchip_coefficients`, with the bytes of scipy's `PPoly.c` and
    `derivative()`); the piece
    between the branches repeats the negative branch's last piece, so that
    its last knot evaluates on that piece as `PPoly` does. `_pieces` finds
    the piece of each x through the buckets of `_bucket_lookup`, and
    `_power_sum` sums it, which gives `PPoly`'s bytes. A 0-d call runs on a
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

    def _pieces(self, x: np.ndarray) -> np.ndarray:
        """np.searchsorted(knots, x, "right") - 1, clipped to the pieces,
        for 1-d x (NaN goes to any piece)."""
        bucket = np.fmin(np.fmax((x - self.knots[0]) * self.scale, 0.0), self.start.size - 1.0)
        i = self.start[bucket.astype(np.intp)]
        for w in self.widths:  # advance w pieces where knots[i + w] <= x
            i += (self.nxt[i + (w - 1)] <= x) * w
        return i

    def _bases(self, x: ArrayLike) -> list[np.ndarray]:
        """T_0 and its first `kind` x-derivatives at x, in x's shape."""
        shape = np.shape(x)
        x = np.asarray(x, dtype=float).ravel()
        col = np.take(self.table[: (5, 8, 10)[self.kind]], self._pieces(x), axis=1)
        h = x - col[0]
        h2 = h * h
        hs = (h, h2, h2 * h)
        bases = [_power_sum(c, hs) for c in (col[1:5], col[5:8], col[8:10])[: self.kind + 1]]
        inner = (x > self.ends[0]) & (x < self.ends[1])
        if inner.any():
            for out, end in zip(bases, self._end_piece(x[inner])):
                out[inner] = end
        return [b.reshape(shape) for b in bases]

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

    def __call__(self, t: ArrayLike, x: ArrayLike) -> ArrayLike:
        return _sheared(self.kind, np.asarray(t, dtype=float), self._bases(x))

    def value_deriv(self, t: ArrayLike, x: ArrayLike) -> tuple[ArrayLike, ArrayLike]:
        """(T_t(x), DT_t(x)) from one piece lookup, on a kind >= 1 callable:
        the bytes of the kind 0 and kind 1 calls."""
        t = np.asarray(t, dtype=float)
        bases = self._bases(x)
        return _sheared(0, t, bases), _sheared(1, t, bases)


def _sheared(kind: int, t: np.ndarray, bases: list[np.ndarray]) -> ArrayLike:
    """d^kind/dx^kind of the shear T_t = T_0 + t (1 - T_0^2), from T_0 and
    its x-derivatives `bases` (value clipped to I)."""
    b0 = bases[0]
    if kind == 0:
        return np.clip(b0 + t * (1.0 - b0**2), -1.0, 1.0)
    if kind == 1:
        return bases[1] * (1.0 - 2.0 * t * b0)
    return bases[2] * (1.0 - 2.0 * t * b0) - 2.0 * t * bases[1] ** 2


@dataclass(frozen=True, eq=False)
class _TableInverse:
    """Picklable inverse of both table branches (`_shear_spline_inverse`).

    `knots`, `c` and `nodes` hold the negative branch's knots, `PPoly.c` and
    node values T_0(knots), then the positive branch's from index `first`:
    piece j of a branch is column j of `c` on the negative side and column
    first + j on the positive one (column first - 1 is zero, never used).
    `a` is each branch's end-piece coefficient, negative first, of
    sign (a |x|^s - 1) below its innermost node. `lims` holds per side
    (columns negative, positive) its sign, the innermost and the outermost
    node value times the sign, and a.
    """

    knots: np.ndarray
    c: np.ndarray
    nodes: np.ndarray
    first: int
    a: tuple[float, float]
    s: float
    lims: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n, f = self.nodes, self.first
        lims = np.array([[-1.0, 1.0], [-n[f - 1], n[f]], [-n[0], n[-1]], list(self.a)])
        lims.setflags(write=False)
        object.__setattr__(self, "lims", lims)

    def __call__(self, t: ArrayLike, y: ArrayLike, side: ArrayLike) -> np.ndarray:
        return _shear_spline_inverse(self, t, y, side)


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


def _shear_spline_inverse(
    fn: _TableInverse, t: ArrayLike, y: ArrayLike, side: ArrayLike
) -> np.ndarray:
    """x with T_0(x) + t (1 - T_0(x)^2) = y on the branch of `side` (+-1),
    clamped to the branch domain; both sides' rows run in one loop.

    The stable root p = 2 (y - t) / (1 + sqrt(1 - 4 t (y - t))), exact at
    t = 0, undoes the shear. Below the innermost node value the end piece
    inverts in closed form, x = sign ((1 + sign p) / a)^(1/s); past the
    outermost node value x is the outer domain end, and a target with no
    real p goes to the domain end on the side of sign(y). Otherwise the
    node values pick the spline piece (one search per branch, as the two
    branches' node values overlap), and a bracketed Newton iteration starts
    at the secant and bisects when a step leaves the bracket or the slope is
    not positive. Its residual is summed so that rounding falls on the small
    terms, not on terms of size 1: the result is within 2 ulp of the exact
    root of the cubic, plus a few roundings of the cubic's rise from its
    left knot over the slope, which only matter where the branch is nearly
    flat. A row stops once its step is at most 2 ulp or lands on its
    bracket end, so its result does not depend on the other rows. The side
    enters through exact multiplications by +-1: the negative branch's end
    tests and clamp run on -p and -x.
    """
    y = np.asarray(y, dtype=float)
    t = np.asarray(t, dtype=float)
    p = y - t
    with np.errstate(invalid="ignore"):  # no real p: past the image
        p = 2.0 * p / (1.0 + np.sqrt(1.0 - 4.0 * t * p))
    p = np.where(np.isnan(p) & ~np.isnan(y), np.copysign(np.inf, y), p)
    pos = np.asarray(side) > 0
    if pos.shape != p.shape:
        p, pos = np.broadcast_arrays(p, pos)
    sign, inner_lim, outer_lim = np.take(fn.lims[:3], pos, axis=1)
    q = sign * p
    active = np.array((q >= inner_lim) & (q <= outer_lim))
    del sign, inner_lim, outer_lim  # taken again after the loop
    knots, nodes, first = fn.knots, fn.nodes, fn.first
    i = np.empty(p.shape, dtype=np.intp)
    for rows, lo, hi in ((~pos, 0, first), (pos, first, knots.size)):  # a branch's pieces
        if not rows.any():  # the other branch of a shared side
            continue
        found = np.searchsorted(nodes[lo:hi], p[rows], side="right")
        i[rows] = np.clip(found + (lo - 1), lo, hi - 2)
    c0, c1, c2, c3 = np.take(fn.c, i, axis=1)
    left = knots[i]
    i += 1  # the pieces' right ends
    a, b = left, knots[i]
    with np.errstate(invalid="ignore", divide="ignore"):
        x = np.where(active, a + (p - c3) / (nodes[i] - c3) * (b - a), np.nan)
        del i, p  # q stands for p from here on
        # Each temporary is dropped once dead, so that the loop, which sets
        # the call's peak memory, holds few rows' worth at a time.
        for _ in range(_NEWTON_CAP):
            h = x - left
            d = h * (c2 + h * (c1 + h * c0))  # spline(x) - c3
            f = ((c3 - y) + d) + t * (((1.0 - c3) - d) * ((1.0 + c3) + d))
            slope = (c2 + h * (2.0 * c1 + 3.0 * c0 * h)) * (1.0 - 2.0 * t * (c3 + d))
            del h, d
            below = f < 0.0
            a = np.where(below, x, a)
            b = np.where(below, b, x)
            step = x - f / slope
            del f
            step = np.where((slope > 0.0) & (step >= a) & (step <= b), step, 0.5 * (a + b))
            del slope
            # np.spacing is negative for x < 0. A step onto a bracket end
            # means the rounded residual changes sign there: nothing to gain.
            done = (np.abs(step - x) <= 2.0 * np.abs(np.spacing(x))) | (step == a) | (step == b)
            x = np.where(active, step, x)
            del step
            active &= ~done
            if not active.any():
                break
    sign, inner_lim, outer_lim, end_a = np.take(fn.lims, pos, axis=1)
    end = np.power(np.maximum(1.0 + q, 0.0) / end_a, 1.0 / fn.s)
    x = np.where(q < inner_lim, end, np.where(q > outer_lim, 1.0, sign * x))
    return sign * np.clip(x, _BRANCH_EDGE, 1.0)


# The rising factorials that scipy's `PPoly.derivative` multiplies the
# leading coefficient rows by, for the first and the second derivative.
_D1 = np.array([[3.0], [2.0], [1.0]])
_D2 = np.array([[6.0], [2.0]])


def _pchip_coefficients(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """(4, n - 1) coefficients, highest power first, of the monotone PCHIP
    spline through n >= 2 nodes with strictly increasing float64 xs.

    The node slopes are Fritsch & Butland's weighted harmonic means of the
    neighbouring secants, 0 where those differ in sign or one is 0 (SIAM J.
    Sci. Stat. Comput. 5, 1984), with Moler's one-sided three-point end
    slopes (Numerical Computing with MATLAB, 3.6), and two nodes give the
    secant at both. Each piece is the cubic Hermite form on its ends. The
    arithmetic is scipy 1.17's `PchipInterpolator` (`_find_derivatives`,
    `_edge_case`, `CubicHermiteSpline`) operation for operation, so the
    result has the bytes of its `PPoly.c`.
    """
    h = xs[1:] - xs[:-1]
    m = (ys[1:] - ys[:-1]) / h
    if m.size == 1:
        d = np.array([m[0], m[0]])
    else:
        d = np.zeros_like(ys)
        sm = np.sign(m)
        harmonic = (sm[1:] == sm[:-1]) & (m[1:] != 0) & (m[:-1] != 0)
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        # Rows with a 0 secant are kept at 0; a subnormal secant overflows
        # its term to inf, which gives the slope 0, as in scipy.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        d[1:-1][harmonic] = 1.0 / whmean[harmonic]
        # Both ends at once: the secants and widths counted from each end.
        h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
        end = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        flips = np.sign(end) != np.sign(m0)
        steep = (np.sign(m0) != np.sign(m1)) & (np.abs(end) > 3.0 * np.abs(m0))
        d[[0, -1]] = np.where(flips, 0.0, np.where(steep, 3.0 * m0, end))
    t = (d[:-1] + d[1:] - 2 * m) / h
    return np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], ys[:-1]))


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
    derivative order (`_TableFn`) evaluates the spline in-house (the first
    derivative's also gives `value_deriv`), and one inverse serves both
    branches (`_TableInverse`). The spline coefficients come from
    `_pchip_coefficients`; no scipy module is loaded.
    """
    check_table(pos_x, pos_y, neg_x, neg_y, s, k1, k2, eps_max)
    parts = []
    for xs, ys, inner in ((neg_x, neg_y, -1), (pos_x, pos_y, 0)):
        xs, ys = np.array(xs, dtype=float), np.array(ys, dtype=float)
        c = _pchip_coefficients(xs, ys)
        x1 = float(xs[inner])
        a = float((1.0 + np.copysign(1.0, x1) * ys[inner]) / abs(x1) ** s)
        cols = np.vstack([xs[:-1], c, c[:3] * _D1, c[:2] * _D2])
        cols[(4, 7, 9), :] += 0.0  # PPoly sums from 0.0, so a -0.0 constant term gives 0.0
        h = xs[-1] - xs[-2]
        nodes = np.append(c[3], _power_sum(cols[1:5, -1], (h, h * h, h * h * h)))
        parts.append((xs, cols, c, nodes, x1, a))
    side_knots, cols, cs, nodes, x1s, amps = zip(*parts)  # each a (negative, positive) pair
    knots = np.concatenate(side_knots)
    table = np.hstack([cols[0], cols[0][:, -1:], cols[1]])
    start, widths, nxt, scale = _bucket_lookup(knots)
    c = np.hstack([cs[0], np.zeros((4, 1)), cs[1]])
    nodes = np.concatenate(nodes)
    for arr in (knots, table, nxt, start, c, nodes):
        arr.setflags(write=False)
    inverse = _TableInverse(knots, c, nodes, side_knots[0].size, amps, s)
    coef = tuple(tuple(a * f for f in (1.0, s, s * (s - 1.0))) for a in amps)
    value, deriv, second = (
        _TableFn(kind, s, widths, knots, table, nxt, start, scale, x1s, coef)
        for kind in range(3)
    )
    return MapFamily(
        s=s,
        eps_max=eps_max,
        value=value,
        deriv=deriv,
        second=second,
        inverse=inverse,
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
    by one call of the family's inverse; a target outside the branch image
    maps to the nearest domain endpoint."""
    return np.asarray(family.inverse(t, y, side), dtype=float)


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
        """Membership of x in [neg_lo, 0) or (0, pos_hi]. 0, -0 and NaN are
        outside; a bool for 0-d x, a boolean array otherwise."""
        x = np.asarray(x)
        out = ((x > 0) & (x <= self.pos_hi)) | ((x < 0) & (x >= self.neg_lo))
        return bool(out) if np.ndim(out) == 0 else out


def critical_neighborhoods(
    family: MapFamily, t: float, delta: float
) -> CriticalNeighborhoods:
    """Solve for the preimages of [-1, -1+delta] and [1-delta, 1] near x = 0.

    The positive branch increases from -1 (at 0+) to T_t(1), the negative one
    from T_t(-1) to 1 (at 0-); one `invert_branch` call with a side per row
    gives both endpoints.
    Raises DeltaTooLarge when the target value exits the branch image or the
    endpoint residual exceeds 1e-10.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    t = float(t)
    _check_domain(family, t, 1.0)
    bot_neg, top_pos = family.value(t, np.array([-1.0, 1.0])).tolist()
    if -1.0 + delta > top_pos:
        raise DeltaTooLarge(f"B_delta(-1) with delta={delta} exits the positive branch image")
    if 1.0 - delta < bot_neg:
        raise DeltaTooLarge(f"B_delta(+1) with delta={delta} exits the negative branch image")

    targets = np.array([-1.0 + delta, 1.0 - delta])
    pos_hi, neg_lo = invert_branch(family, t, targets, np.array([1.0, -1.0])).tolist()
    res = float(np.abs(family.value(t, np.array([pos_hi, neg_lo])) - targets).max())
    if res > 1e-10:
        raise DeltaTooLarge(
            f"endpoint residual {res:.3e} after root-finding; "
            "branch too flat for this delta"
        )
    d_ratio = 2.0 * delta / (pos_hi - neg_lo)
    return CriticalNeighborhoods(delta=delta, neg_lo=neg_lo, pos_hi=pos_hi, d_ratio=d_ratio)


# Sampling plan of `verify_conditions`: CHECK_N_X points of x, log-spaced
# from CHECK_X_MIN to 1 on each side of 0, at CHECK_N_T values of t across
# [-eps_max, eps_max]; critical orbits to CHECK_HORIZON steps; and the
# tolerance of the one-sided limits at the singularity.
CHECK_N_X = 10_000
CHECK_N_T = 41
CHECK_HORIZON = 30
CHECK_X_MIN = 1e-9
CHECK_LIMIT_TOL = 1e-3


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
    pts[0] = v
    for k in range(n):
        v = float(family.value(0.0, v))
        pts[k + 1] = v
        if v == 0.0:
            pts = pts[: k + 2]
            break
    logd = np.concatenate([[0.0], np.cumsum(np.log(family.deriv(0.0, pts[:-1])))])
    return pts, logd


def verify_conditions(family: MapFamily) -> ConditionReport:
    """Grid-sampled verification of the map conditions and the Rovella checks.

    Families are supplied as callables, so every check samples rather than
    reasons symbolically. R1/R2 run along the critical orbits of the t = 0
    map up to CHECK_HORIZON; the admissibility distortion constant is the
    empirical sup over sampled pairs with 2|x - y| < |x|.
    """
    half = np.geomspace(CHECK_X_MIN, 1.0, CHECK_N_X // 2)
    xs = np.concatenate([-half[::-1], half])
    ts = np.linspace(-family.eps_max, family.eps_max, CHECK_N_T)

    # C1: one-sided limits at the singularity on a shrinking grid.
    shrink = np.geomspace(CHECK_X_MIN, 1e-4, 32)
    gaps = []
    for t in (0.0, family.eps_max, -family.eps_max):
        gaps.append(np.abs(family.value(t, shrink) - (-1.0)).max())
        gaps.append(np.abs(family.value(t, -shrink) - 1.0).max())
    c1_gap = float(max(gaps))
    c1_ok = c1_gap <= CHECK_LIMIT_TOL

    # C2 + envelope + C3 + range over the (t, x) grid, and admissibility
    # |d/dt T_t(x)| <= 1 via secants between neighbouring t slices.
    monotone_ok = True
    envelope_lo = np.inf
    envelope_hi = -np.inf
    c3_max = -np.inf
    range_ok = True
    t_lip_ok = True
    scale = np.abs(xs) ** (family.s - 1.0)
    prev = None
    for t in ts:
        d = family.deriv(t, xs)
        monotone_ok &= bool(np.all(d > 0))
        ratio = d / scale
        envelope_lo = min(envelope_lo, float(ratio.min()))
        envelope_hi = max(envelope_hi, float(ratio.max()))
        c3_max = max(c3_max, float(np.max(schwarzian(family, t, xs))))
        vals = family.value(t, xs)
        range_ok &= bool(np.all(np.abs(vals) <= 1.0 + 1e-15))
        if prev is not None:
            t_lip_ok &= bool(np.abs(vals - prev[1]).max() <= abs(t - prev[0]) + 1e-12)
        prev = t, vals
    envelope_ok = (
        family.k1 <= envelope_lo + 1e-9 and envelope_hi <= family.k2 + 1e-9
    )

    # R1: DT^n at the critical values of T_0 beats lambda^n for some lambda > 1.
    n = CHECK_HORIZON
    orbits = [unperturbed_orbit(family, v0, max(n, 200)) for v0 in (-1.0, 1.0)]
    lam_fit = np.inf
    r2_alpha = 0.0
    sum_partial = 0.0
    sum_terms = 0
    for pts, logd in orbits:
        pts, logd = pts[: n + 1], logd[: n + 1]
        m = len(pts) - 1
        if m >= 1:
            # An orbit that lands on the singularity fails both: DT is 0
            # there, and its R2 term is -log 0 = inf.
            hit = pts[-1] == 0.0
            rates = logd[1:] / np.arange(1, m + 1)
            lam_fit = min(lam_fit, 0.0 if hit else float(np.exp(rates.min())))
            # R2: |T^{n-1}(v)| > e^{-alpha n}; empirical alpha is the sup of
            # -log|T^{n-1}(v)| / n over the horizon.
            terms = pts if hit else pts[:-1]
            with np.errstate(divide="ignore"):
                alphas = -np.log(np.abs(terms)) / np.arange(1, terms.size + 1)
            r2_alpha = max(r2_alpha, float(alphas.max()))
            # Summability partial sums (reported, no pass/fail claim).
            sum_partial += float(np.sum(np.exp(-logd[1:])))
            sum_terms = max(sum_terms, m)
    r1_ok = lam_fit > 1.0
    r2_ok = np.isfinite(r2_alpha)

    # R3: density of the critical orbits in I, reported via the largest gap
    # left by the union of both orbits.
    pts_all = np.concatenate([pts for pts, _ in orbits])
    pts_sorted = np.sort(np.concatenate([pts_all, [-1.0, 1.0]]))
    r3_max_gap = float(np.max(np.diff(pts_sorted)))
    r3_ok = r3_max_gap < 0.05

    # Admissibility: the distortion modulus |log(DT(x)/DT(y))| * |x| / |x - y| on close pairs.
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
