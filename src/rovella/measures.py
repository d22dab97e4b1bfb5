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
    import scipy.sparse as sp  # here, so that importing rovella does not load it

    return sp.csr_matrix(_ulam_arrays(family, t, grid), shape=(grid.m, grid.m))


def _ulam_arrays(
    family: MapFamily, t: float, grid: UniformGrid
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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


class OperatorCache:
    """Ulam operators per noise index, built on demand and held once, as the
    CSC push matrices (the transposes) that move masses forward."""

    def __init__(self, family: MapFamily, stream: NoiseStream, grid: UniformGrid) -> None:
        self.family = family
        self.stream = stream
        self.grid = grid
        self._pushes: dict[int, sp.csc_matrix] = {}

    def _push_matrix(self, index: int) -> sp.csc_matrix:
        if index not in self._pushes:
            import scipy.sparse as sp

            arrays = _ulam_arrays(self.family, self.stream.get(index), self.grid)
            self._pushes[index] = sp.csc_matrix(arrays, shape=(self.grid.m, self.grid.m))
        return self._pushes[index]

    def get(self, index: int) -> sp.csr_matrix:
        """The row operator: a CSR view of the push matrix's arrays."""
        return self._push_matrix(index).T

    def push(self, masses: np.ndarray, index: int) -> np.ndarray:
        """Masses pushed through the map at `index`: one vector, or each
        column of an (m, k) block."""
        return self._push_matrix(index) @ masses


def equivariant_density(
    family: MapFamily,
    stream: NoiseStream,
    m_past: int,
    grid: UniformGrid,
    cache: OperatorCache | None = None,
) -> np.ndarray:
    """Cell weights of the sample-measure density at the stream's origin:
    `_pullback` to index 0 over the cell width. The equivariant family is
    omega-dependent, so no fixed-point solve can replace the pullback."""
    return _pullback(cache or OperatorCache(family, stream, grid), m_past, 0) / grid.h


def _pullback(cache: OperatorCache, m_past: int, origin: int) -> np.ndarray:
    """Cell masses of the sample measure at noise index `origin`: the
    uniform masses pushed through the operators at origin - m_past, ...,
    origin - 1 in order, then normalized. m_past = 0 gives the uniform
    masses."""
    masses = np.full(cache.grid.m, 1.0 / cache.grid.m)
    for j in range(origin - m_past, origin):
        masses = cache.push(masses, j)
    return masses / masses.sum()


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


def _try_fit(values: np.ndarray, burn_in: int) -> tuple[float | None, float | None, float | None]:
    try:
        c, b, r2 = fit_exponential(values, burn_in=burn_in)
        return c, b, r2
    except InsufficientData:
        return None, None, None


def quenched_correlation(
    family: MapFamily,
    stream: NoiseStream,
    phi: Callable[[np.ndarray], np.ndarray],
    psi: Callable[[np.ndarray], np.ndarray],
    n_max: int,
    method: str = "ulam",
    grid: UniformGrid | None = None,
    m_past: int = 200,
    direction: str = "forward",
    burn_in: int = 5,
    mc_samples: int = 100_000,
    cache: OperatorCache | None = None,
) -> CorrelationSeries:
    """Quenched correlation series |cor(phi o T^n, psi)| for n = 0..n_max.

    Ulam method: integrals against pullback densities, with the time-n
    observable integrated via the pushforward of the signed measure psi d mu,
    so constant phi or psi cancels exactly. A supplied `cache` (same family,
    stream and grid) lends its operators, so several directions build each
    one once. Monte Carlo method: ensembles initialized in the far past of
    the same stream (antithetic uniform starts); same estimator algebra.
    """
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be forward or backward")
    if method == "ulam":
        if cache is None:
            cache = OperatorCache(family, stream, grid or UniformGrid(2**11))
        elif (cache.family, cache.stream, cache.grid) != (family, stream, grid or cache.grid):
            raise ValueError("operator cache was built for another family, stream or grid")
        values = _ulam_correlation(phi, psi, n_max, cache, m_past, direction)
    elif method == "monte_carlo":
        values = _mc_correlation(
            family, stream, phi, psi, n_max, m_past, direction, mc_samples
        )
    else:
        raise ValueError(f"unknown method {method!r}")
    c, b, r2 = _try_fit(values, burn_in)
    return CorrelationSeries(
        direction=direction,
        values=values,
        burn_in=burn_in,
        prefactor=c,
        rate=b,
        r_squared=r2,
    )


def _ulam_correlation(
    phi, psi, n_max: int, cache: OperatorCache, m_past: int, direction: str
) -> np.ndarray:
    family, stream, grid = cache.family, cache.stream, cache.grid
    centers = grid.centers
    phi_c = np.asarray(phi(centers), dtype=float)
    psi_c = np.asarray(psi(centers), dtype=float)
    out = np.empty(n_max + 1)

    if direction == "forward":
        # Via the density (/ h, then * h): where h is not a power of 2 that
        # round trip rounds, and the series' bytes depend on it.
        base = equivariant_density(family, stream, m_past, grid, cache) * grid.h
        psi_mean = float(psi_c @ base)
        signed = psi_c * base
        running = base.copy()
        out[0] = abs(float(phi_c @ signed) - float(phi_c @ running) * psi_mean)
        for n in range(1, n_max + 1):
            signed = cache.push(signed, n - 1)
            running = cache.push(running, n - 1)
            out[n] = abs(float(phi_c @ signed) - float(phi_c @ running) * psi_mean)
        return out

    # Backward: measures at sigma^{-n} omega, from one pullback to -n_max.
    past_masses = [_pullback(cache, m_past, -n_max)]
    for n in range(n_max, 0, -1):
        nxt = cache.push(past_masses[-1], -n)
        past_masses.append(nxt / nxt.sum())
    past_masses.reverse()  # past_masses[n] is the mass vector at sigma^{-n} omega
    # Column n of the block is the chain psi mu_n pushed from index -n to -1:
    # it starts at operator -n, and each operator pushes every started chain
    # in one product, which adds into each column in the order a single
    # push does.
    block = np.empty((grid.m, n_max + 1))
    block[:, 0] = psi_c * past_masses[0]
    for j in range(n_max, 0, -1):
        block[:, j] = psi_c * past_masses[j]
        block[:, j:] = cache.push(block[:, j:], -j)
    signed = np.ascontiguousarray(block.T)  # chain n; a strided dot sums in another order
    phi_mean0 = float(phi_c @ past_masses[0])
    for n in range(n_max + 1):
        out[n] = abs(float(phi_c @ signed[n]) - phi_mean0 * float(psi_c @ past_masses[n]))
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
