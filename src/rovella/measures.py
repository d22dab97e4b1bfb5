"""Ulam-type approximation of the equivariant sample measures and empirical
quenched correlation decay.

The transfer operator of each fiber map is discretized as a row-stochastic
matrix of cell-to-cell transition fractions, computed exactly from monotone
branch preimages (no Monte Carlo in the matrix itself). Sample measures are
approximated by pushing the uniform density through the operators of the
maps from the past; correlations integrate pushforwards of signed measures,
which makes the constant-observable cancellation exact up to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import InsufficientData
from .map_core import MapFamily, invert_branch
from .noise import NoiseStream
from .numerics import linear_fit
from .orbit import step_values

if TYPE_CHECKING:
    import scipy.sparse as sp

FIT_FLOOR = 1e-14  # `fit_exponential` drops entries at or below this

_UlamArrays = tuple[np.ndarray, np.ndarray, np.ndarray]  # (data, indices, indptr): `_ulam_arrays`


@dataclass(frozen=True)
class UniformGrid:
    """m uniform cells over [-1, 1]. Its geometry (edges, centers, the cells
    on each side of 0) is computed once per grid, in read-only arrays."""

    m: int

    def __post_init__(self) -> None:
        if self.m < 16:
            raise ValueError("grid resolution m must be at least 16")

    @property
    def h(self) -> float:
        return 2.0 / self.m

    @cached_property
    def edges(self) -> np.ndarray:
        edges = np.linspace(-1.0, 1.0, self.m + 1)
        edges.flags.writeable = False
        return edges

    @cached_property
    def centers(self) -> np.ndarray:
        e = self.edges
        centers = 0.5 * (e[:-1] + e[1:])
        centers.flags.writeable = False
        return centers

    @cached_property
    def _branch_cells(self) -> tuple[tuple[int, np.ndarray], tuple[int, np.ndarray]]:
        """For [-1, 0] and then [0, 1]: the cell holding its left end, and
        the cell edges strictly inside it."""
        e = self.edges
        right = int(np.searchsorted(e, 0.0, side="right"))
        return (0, e[1:np.searchsorted(e, 0.0)]), (right - 1, e[right:self.m])


def ulam_row_operator(family: MapFamily, t: float, grid: UniformGrid) -> sp.csr_matrix:
    """Row-stochastic matrix: entry (i, j) is the fraction of cell i mapping
    into cell j under the fiber map at parameter t (see `_ulam_arrays`)."""
    return _row_operator(_ulam_arrays(family, t, grid))


def _ulam_arrays(family: MapFamily, t: float, grid: UniformGrid) -> _UlamArrays:
    """The canonical int32 CSR arrays (data, indices, indptr) of the Ulam
    row operator at parameter t. Read as CSC, the same arrays are its
    transpose, which pushes masses forward.

    Exact for monotone branches: the preimages (cuts) of the cell edges
    inside each branch's image come from one `map_core.invert_branch` call
    with a side per row, and one merge sweep per branch splits every cell at
    them. The sorted breaks [x_lo, cuts, x_hi] and the branch's cell edges
    merge by one searchsorted; a piece starts at the last of each run of
    equal values, and the running counts of edges and of breaks up to there
    give its cell (row) and its image cell (column). The negative branch
    comes first, so rows never decrease; a cell holding 0 lists its
    positive-branch pieces (the lower columns) first. Each row sums to 1 up
    to accumulation roundoff.
    """
    m = grid.m
    edges = grid.edges
    top, bottom = family.value(t, np.array([1.0, -1.0])).tolist()  # T_t(1), T_t(-1)
    # Cut at the interior edges (never at +-1) strictly inside each image,
    # [bottom, 1] and [-1, top]; one inversion serves both branches.
    neg_targets = edges[max(int(np.searchsorted(edges, bottom + 1e-15, side="right")), 1):m]
    pos_targets = edges[1:min(int(np.searchsorted(edges, top - 1e-15)), m)]
    count = neg_targets.size
    sides = np.ones(count + pos_targets.size, dtype=np.int8)
    sides[:count] = -1
    cuts = invert_branch(family, t, np.concatenate([neg_targets, pos_targets]), sides)
    # Image cell of each branch's first piece: that of bottom, and cell 0.
    j_starts = (min(max(int(np.searchsorted(edges, bottom, side="right")) - 1, 0), m - 1), 0)
    pieces = []
    for (i_start, cell_edges), (x_lo, x_hi), j_start, side_cuts in zip(
        grid._branch_cells, ((-1.0, 0.0), (0.0, 1.0)), j_starts, (cuts[:count], cuts[count:])
    ):
        breaks = np.concatenate([[x_lo], side_cuts, [x_hi]])
        at = np.searchsorted(breaks, cell_edges)
        at += np.arange(cell_edges.size)
        is_edge = np.zeros(breaks.size + cell_edges.size, dtype=bool)
        is_edge[at] = True
        merged = np.empty(is_edge.size)
        merged[at] = cell_edges
        merged[~is_edge] = breaks
        last = merged[:-1] != merged[1:]  # a piece starts at the last value of a run
        n_edges = np.cumsum(is_edge[:-1])[last]  # cell edges up to each piece's start
        cols = np.flatnonzero(last)  # less n_edges: the breaks there, x_lo not counted
        cols -= n_edges
        cols += j_start
        vals = merged[1:][last]
        vals -= merged[:-1][last]
        vals /= grid.h
        pieces.append((n_edges + i_start, cols, vals))
    del sides, cuts, side_cuts  # the breaks hold copies of the cuts

    (rows_n, cols_n, vals_n), (rows_p, cols_p, vals_p) = pieces
    a = np.searchsorted(rows_n, rows_p[0])  # negative pieces before a shared cell
    b = np.searchsorted(rows_p, rows_n[-1], side="right")  # positive pieces in it
    indptr = np.zeros(m + 1, dtype=np.int32)
    np.cumsum(np.bincount(np.concatenate([rows_n, rows_p]), minlength=m), out=indptr[1:])
    return (
        np.concatenate([vals_n[:a], vals_p[:b], vals_n[a:], vals_p[b:]]),
        np.concatenate([cols_n[:a], cols_p[:b], cols_n[a:], cols_p[b:]], dtype=np.int32),
        indptr,
    )


def _row_operator(op: _UlamArrays) -> sp.csr_matrix:
    """The scipy CSR matrix on the arrays `op` of `_ulam_arrays`."""
    import scipy.sparse as sp  # here, so that importing rovella does not load it

    m = op[2].size - 1
    return sp.csr_matrix(op, shape=(m, m))


def _push(op: _UlamArrays, masses: np.ndarray) -> np.ndarray:
    """Masses pushed forward through the operator whose arrays `op` are
    those of `_ulam_arrays`: one vector, or each column of an (m, k) block.

    A vector goes through numpy: each entry k of the arrays adds
    data[k] * masses[i] into cell indices[k] (i its row, the source cell),
    in k order from 0.0. That is the order of scipy's `csc_matvec` on the
    same arrays read as CSC, so the result has the bytes of the scipy
    product, and no scipy module is loaded. A block is scipy's product,
    which beat every numpy form measured (flattened or per-column
    `bincount`, `np.add.at`) at m = 2048 with 20 columns.
    """
    data, indices, indptr = op
    m = indptr.size - 1
    if masses.ndim == 2:
        import scipy.sparse as sp  # here, so that importing rovella does not load it

        return sp.csc_matrix(op, shape=(m, m)) @ masses
    return np.bincount(indices, weights=np.repeat(masses, np.diff(indptr)) * data, minlength=m)


class OperatorCache:
    """Ulam operators per noise index, built on demand and held once, as the
    arrays of `_ulam_arrays`. Densities and series need none: they build
    each operator for its index and drop it. The cache serves callers that
    push through an index again, such as the per-layer benchmark, which
    times its `get` and `push`."""

    def __init__(self, family: MapFamily, stream: NoiseStream, grid: UniformGrid) -> None:
        self.family = family
        self.stream = stream
        self.grid = grid
        self._ops: dict[int, _UlamArrays] = {}

    def _op(self, index: int) -> _UlamArrays:
        if index not in self._ops:
            self._ops[index] = _ulam_arrays(self.family, self.stream.get(index), self.grid)
        return self._ops[index]

    def get(self, index: int) -> sp.csr_matrix:
        """The row operator: a CSR matrix on the held arrays."""
        return _row_operator(self._op(index))

    def push(self, masses: np.ndarray, index: int) -> np.ndarray:
        """Masses pushed through the map at `index` (see `_push`)."""
        return _push(self._op(index), masses)


def equivariant_density(
    family: MapFamily, stream: NoiseStream, m_past: int, grid: UniformGrid
) -> np.ndarray:
    """Cell weights of the sample-measure density at the stream's origin:
    the uniform masses pushed through the operators at -m_past, ..., -1,
    each built for its push and dropped, normalized, over the cell width.
    The equivariant family is omega-dependent, so no fixed-point solve can
    replace the pullback."""
    masses = np.full(grid.m, 1.0 / grid.m)
    for index in range(-m_past, 0):
        masses = _push(_ulam_arrays(family, stream.get(index), grid), masses)
    return masses / masses.sum() / grid.h


@dataclass
class CorrelationSeries:
    """Absolute correlation values C_n with an exponential fit.

    direction "forward" pairs observables at times 0 and n over the measure
    at the origin; "backward" starts the composition n steps in the past and
    integrates against the measure there. The fit runs on n >= burn_in only.
    """

    direction: str
    values: np.ndarray
    burn_in: int
    prefactor: float | None = None
    rate: float | None = None
    r_squared: float | None = None

    @classmethod
    def from_values(cls, direction: str, values: np.ndarray, burn_in: int) -> CorrelationSeries:
        """`values` with their `fit_exponential`, if it has enough points."""
        try:
            c, b, r2 = fit_exponential(values, burn_in=burn_in)
        except InsufficientData:
            c = b = r2 = None
        return cls(direction, values, burn_in, c, b, r2)

    def fitted(self) -> tuple[float, float, float]:
        if self.rate is None:
            raise InsufficientData("no usable fit for this series")
        return self.prefactor, self.rate, self.r_squared


def fit_exponential(series: np.ndarray, burn_in: int = 0) -> tuple[float, float, float]:
    """Least squares on (n, log C_n): returns (C, b, r_squared) with rate b
    positive when the series decays.

    Entries are indexed by n starting at 0; points before burn_in or at or
    below FIT_FLOOR are dropped. A constant series fits with b = 0 and
    r_squared = 0 by convention. Raises InsufficientData below 5 points.
    """
    series = np.asarray(series, dtype=float)
    n = np.arange(series.size)
    mask = (n >= burn_in) & (series > FIT_FLOOR)
    if mask.sum() < 5:
        raise InsufficientData(f"only {int(mask.sum())} usable points after burn-in/floor")
    intercept, slope, r2 = linear_fit(n[mask].astype(float), np.log(series[mask]))
    return float(np.exp(intercept)), -float(slope), float(r2)


def quenched_correlation(
    family, stream, phi, psi, n_max: int, *, direction: str = "forward", **options
) -> CorrelationSeries:
    """`quenched_correlations` in one `direction`, with the same `options`."""
    return quenched_correlations(family, stream, phi, psi, n_max, directions=(direction,),
                                 **options)[direction]


def quenched_correlations(
    family: MapFamily, stream: NoiseStream, phi: Callable[[np.ndarray], np.ndarray],
    psi: Callable[[np.ndarray], np.ndarray], n_max: int, method: str = "ulam",
    grid: UniformGrid | None = None, m_past: int = 200,
    directions: tuple[str, ...] = ("forward", "backward"), burn_in: int = 5,
    mc_samples: int = 100_000,
) -> dict[str, CorrelationSeries]:
    """Quenched correlation series |cor(phi o T^n, psi)| for n = 0..n_max,
    one per direction asked, keyed in the order asked.

    Ulam method: integrals against pullback densities, with the time-n
    observable integrated via the pushforward of the signed measure psi d mu,
    so constant phi or psi cancels exactly. All directions come from one
    pass (`_ulam_series`) that builds each operator once and holds one at a
    time. Monte Carlo method: ensembles initialized in the far past of the
    same stream (antithetic uniform starts); same algebra.
    """
    if not directions or not set(directions) <= {"forward", "backward"}:
        raise ValueError("direction must be forward or backward")
    if method == "ulam":
        values = _ulam_series(family, stream, grid or UniformGrid(2**11), phi, psi, n_max, m_past,
                              directions)
    elif method == "monte_carlo":
        values = {d: _mc_correlation(family, stream, phi, psi, n_max, m_past, d, mc_samples)
                  for d in directions}
    else:
        raise ValueError(f"unknown method {method!r}")
    return {d: CorrelationSeries.from_values(d, values[d], burn_in) for d in directions}


def _ulam_series(
    family, stream, grid, phi, psi, n_max: int, m_past: int, directions
) -> dict[str, np.ndarray]:
    """The Ulam C_n of each direction asked, from one pass over the noise
    indices from -(m_past + n_max) (-m_past for forward alone) to n_max - 1
    (-1 for backward alone): each operator pushes every vector whose path
    crosses its index, then is dropped before the next is built.

    Forward pulls back from -m_past to mu at 0, then pushes psi mu
    (`signed`) and mu (`running`). Backward pulls back from -(m_past + n_max);
    from -n_max on `past` is mu_n at -n, and block column n, the chain psi
    mu_n, starts at operator -n. One product per operator pushes every
    started chain, adding into each column in a single push's order."""
    phi_c, psi_c = (np.asarray(f(grid.centers), dtype=float) for f in (phi, psi))
    forward, backward = "forward" in directions, "backward" in directions
    out = {d: np.empty(n_max + 1) for d in directions}
    pulled = past = np.full(grid.m, 1.0 / grid.m)
    block = np.empty((grid.m, n_max + 1) if backward else 0)
    psi_means = np.empty(n_max + 1)  # psi_c @ mu_n
    stop = n_max if forward else 0
    for index in range(-(m_past + n_max) if backward else -m_past, stop + 1):
        if forward and index == 0:
            # Via the density (/ h, then * h): where h is not a power of 2
            # that round trip rounds, and the series' bytes depend on it.
            running = pulled / pulled.sum() / grid.h * grid.h
            psi_mean = float(psi_c @ running)
            signed = psi_c * running
        if forward and index >= 0:
            out["forward"][index] = abs(float(phi_c @ signed) - float(phi_c @ running) * psi_mean)
        if backward and -n_max <= index <= 0:
            past = past / past.sum()
            psi_means[-index] = float(psi_c @ past)
            block[:, -index] = psi_c * past
        if index == stop:
            break
        op = _ulam_arrays(family, stream.get(index), grid)
        if forward and -m_past <= index < 0:
            pulled = _push(op, pulled)
        elif forward and index >= 0:
            signed, running = _push(op, signed), _push(op, running)
        if backward and -n_max <= index < 0:
            block[:, -index:] = _push(op, block[:, -index:])
        if backward and index < 0:
            past = _push(op, past)
        del op  # dropped before the next one is built
    if backward:
        phi_mean0 = float(phi_c @ past)
        for n in range(n_max + 1):
            chain = np.ascontiguousarray(block[:, n])  # a strided dot sums in another order
            out["backward"][n] = abs(float(phi_c @ chain) - phi_mean0 * psi_means[n])
    return out


def _mc_correlation(
    family: MapFamily,
    stream: NoiseStream,
    phi,
    psi,
    n_max: int,
    m_past: int,
    direction: str,
    samples: int,
) -> np.ndarray:
    """Monte Carlo correlation series.

    Antithetic uniform starts in the far past; every sample follows the
    same quenched noise path, so the ensemble approximates the sample
    measure of this omega, not an average over noise. A sample that dies
    (see `orbit.step_values`) leaves every mean: the estimator averages
    over the samples alive at the end of the run.

    The window's states are never stored: the estimator holds a constant
    number of ensemble arrays whatever n_max is (a traced peak of 5.7 of
    them forward and 5.8 backward at 100,000 samples, where stored
    snapshots took 44.6 at n_max 40). Forward accumulates C_n as it steps,
    in one pass over the window, plus a pass over the survivors only when
    a sample died. Backward steps the window once for phi at the end and
    the survivors, then re-steps the survivors. Both give the bytes of the
    stored-snapshot form because `step_values` is row-wise: a row's image
    does not depend on the other rows.
    """
    half = (np.arange(samples // 2) + 0.5) / (samples // 2)
    starts = np.concatenate([2.0 * half - 1.0, 1.0 - 2.0 * half])
    x = starts[starts != 0.0]
    origin = -m_past if direction == "forward" else -(m_past + n_max)
    t_path = stream.values(origin, m_past + n_max)
    for t in t_path[:m_past]:
        x = step_values(family, t, x)
    window = t_path[m_past:]

    out = np.empty(n_max + 1)
    if direction == "forward":
        alive = ~np.isnan(_mc_forward(family, window, x, phi, psi, out))
        if not alive.all():  # the survivors' pass rewrites every entry
            _mc_forward(family, window, x[alive], phi, psi, out)
        return out

    end = x
    for t in window:
        end = step_values(family, t, end)
    alive = ~np.isnan(end)
    if not alive.all():
        x, end = x[alive], end[alive]
    phi_end = np.asarray(phi(end), dtype=float)
    phi_mean = phi_end.mean()
    states = _window_states(family, window, x)
    del x, end  # the generator holds the start, and drops it after one step
    for k, x_k in enumerate(states):
        psi_n = np.asarray(psi(x_k), dtype=float)
        out[n_max - k] = abs(float((phi_end * psi_n).mean()) - phi_mean * float(psi_n.mean()))
    return out


def _window_states(family: MapFamily, window: np.ndarray, x: np.ndarray):
    """x, then its image after each step of the window, one at a time."""
    yield x
    for t in window:
        x = step_values(family, t, x)
        yield x


def _mc_forward(
    family: MapFamily, window: np.ndarray, x0: np.ndarray, phi, psi, out: np.ndarray
) -> np.ndarray:
    """Forward Monte Carlo C_n into `out`, from the ensemble x0 at time 0;
    returns the ensemble at the end of the window."""
    psi0 = np.asarray(psi(x0), dtype=float)
    psi_mean = psi0.mean()
    for n, x in enumerate(_window_states(family, window, x0)):
        phi_n = np.asarray(phi(x), dtype=float)
        out[n] = abs(float((phi_n * psi0).mean()) - float(phi_n.mean()) * psi_mean)
    return x


OBSERVABLES: dict[str, tuple[Callable[[np.ndarray], np.ndarray], float]] = {
    "x": (lambda x: x, 1.0),
    "sign": (np.sign, 1.0),  # bounded, not Holder; valid as the L-infinity factor
    "abs": (np.abs, 1.0),
    "cos_pi": (lambda x: np.cos(np.pi * x), 1.0),
    "one": (lambda x: np.ones_like(x), 1.0),
    "square": (lambda x: x * x, 1.0),
    "indicator_right": (lambda x: (x > 0).astype(float), 1.0),
}
