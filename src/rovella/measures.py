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
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import InsufficientData
from .map_core import MapFamily, invert_branch
from .noise import NoiseStream
from .numerics import linear_fit
from .orbit import step_values

if TYPE_CHECKING:
    import scipy.sparse as sp


@dataclass(frozen=True)
class UniformGrid:
    """m uniform cells over [-1, 1]."""

    m: int

    def __post_init__(self) -> None:
        if self.m < 16:
            raise ValueError("grid resolution m must be at least 16")

    @property
    def h(self) -> float:
        return 2.0 / self.m

    @property
    def edges(self) -> np.ndarray:
        return np.linspace(-1.0, 1.0, self.m + 1)

    @property
    def centers(self) -> np.ndarray:
        e = self.edges
        return 0.5 * (e[:-1] + e[1:])


@dataclass
class DensityVector:
    """Piecewise-constant density on a uniform grid; integrates to one."""

    grid: UniformGrid
    weights: np.ndarray

    def __post_init__(self) -> None:
        if self.weights.shape != (self.grid.m,):
            raise ValueError("weights shape does not match the grid")
        if np.any(self.weights < 0):
            raise ValueError("density weights must be nonnegative")
        total = float(self.weights.sum() * self.grid.h)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"density integrates to {total}, not 1")

    def masses(self) -> np.ndarray:
        return self.weights * self.grid.h


def ulam_row_operator(family: MapFamily, t: float, grid: UniformGrid) -> sp.csr_matrix:
    """Row-stochastic matrix: entry (i, j) is the fraction of cell i mapping
    into cell j under the fiber map at parameter t.

    Exact for monotone branches: the preimages of all cell boundaries are
    found on each branch by `map_core.invert_branch`, and an interval
    sweep splits every cell at those breakpoints. Each row sums to 1 up to
    accumulation roundoff.
    """
    import scipy.sparse as sp  # here, so that importing rovella does not load it

    m = grid.m
    edges = grid.edges
    h = grid.h
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []

    for side in (1.0, -1.0):
        if side > 0:
            x_lo, x_hi = 0.0, 1.0
            img_lo = -1.0
            img_hi = float(family.value(t, 1.0))
        else:
            x_lo, x_hi = -1.0, 0.0
            img_lo = float(family.value(t, -1.0))
            img_hi = 1.0

        interior = edges[(edges > img_lo + 1e-15) & (edges < img_hi - 1e-15)]
        cuts = invert_branch(family, t, interior, side)
        # Image cell of the first elementary interval on this side.
        j_start = min(int(np.searchsorted(edges, img_lo, side="right")) - 1, m - 1)
        j_start = max(j_start, 0)
        breaks = np.concatenate([[x_lo], cuts, [x_hi]])
        cell_edges = edges[(edges > x_lo) & (edges < x_hi)]
        merged = np.unique(np.concatenate([breaks, cell_edges]))
        u, v = merged[:-1], merged[1:]
        mid = 0.5 * (u + v)
        i_idx = np.clip(np.searchsorted(edges, mid, side="right") - 1, 0, m - 1)
        j_idx = np.clip(
            j_start + np.searchsorted(breaks, mid, side="right") - 1, 0, m - 1
        )
        rows.append(i_idx)
        cols.append(j_idx)
        vals.append((v - u) / h)

    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(m, m),
    ).tocsr()
    return mat


class OperatorCache:
    """Ulam matrices per noise index, built on demand."""

    def __init__(self, family: MapFamily, stream: NoiseStream, grid: UniformGrid) -> None:
        self.family = family
        self.stream = stream
        self.grid = grid
        self._ops: dict[int, sp.csr_matrix] = {}

    def get(self, index: int) -> sp.csr_matrix:
        if index not in self._ops:
            self._ops[index] = ulam_row_operator(self.family, self.stream.get(index), self.grid)
        return self._ops[index]

    def push(self, masses: np.ndarray, index: int) -> np.ndarray:
        return self.get(index).T @ masses


def equivariant_density(
    family: MapFamily,
    stream: NoiseStream,
    m_past: int,
    grid: UniformGrid,
    cache: OperatorCache | None = None,
) -> DensityVector:
    """Sample-measure density at the stream's origin by finite pullback.

    Pushes the uniform density through the operators of the maps at noise
    indices -m_past, ..., -1 in order and renormalizes. m_past = 0 returns
    the uniform density; the equivariant family is omega-dependent, so there
    is no fixed-point solve to replace this.
    """
    cache = cache or OperatorCache(family, stream, grid)
    masses = np.full(grid.m, 1.0 / grid.m)
    for j in range(m_past, 0, -1):
        masses = cache.push(masses, -j)
    masses = np.maximum(masses, 0.0)
    masses /= masses.sum()
    return DensityVector(grid=grid, weights=masses / grid.h)


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


def fit_exponential(
    series: np.ndarray, burn_in: int = 0, floor: float = 1e-14
) -> tuple[float, float, float]:
    """Least squares on (n, log C_n): returns (C, b, r_squared) with rate b
    positive when the series decays.

    Entries are indexed by n starting at 0; points before burn_in or at or
    below the floor are dropped. A constant series fits with b = 0 and
    r_squared = 0 by convention. Raises InsufficientData below 5 points.
    """
    series = np.asarray(series, dtype=float)
    n = np.arange(series.size)
    mask = (n >= burn_in) & (series > floor)
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
        base = equivariant_density(family, stream, m_past, grid, cache=cache).masses()
        psi_mean = float(psi_c @ base)
        signed = psi_c * base
        running = base.copy()
        out[0] = abs(float(phi_c @ signed) - float(phi_c @ running) * psi_mean)
        for n in range(1, n_max + 1):
            signed = cache.push(signed, n - 1)
            running = cache.push(running, n - 1)
            out[n] = abs(float(phi_c @ signed) - float(phi_c @ running) * psi_mean)
        return out

    # Backward: measures at sigma^{-n} omega, built from one deep pullback.
    deep = np.full(grid.m, 1.0 / grid.m)
    for j in range(n_max + m_past, n_max, -1):
        deep = cache.push(deep, -j)
    past_masses: list[np.ndarray] = [deep / deep.sum()]
    for n in range(n_max, 0, -1):
        nxt = cache.push(past_masses[-1], -n)
        past_masses.append(nxt / nxt.sum())
    past_masses.reverse()  # past_masses[n] is the mass vector at sigma^{-n} omega
    mu0 = past_masses[0]
    phi_mean0 = float(phi_c @ mu0)
    for n in range(n_max + 1):
        mu_n = past_masses[n]
        signed = psi_c * mu_n
        for j in range(n, 0, -1):
            signed = cache.push(signed, -j)
        out[n] = abs(float(phi_c @ signed) - phi_mean0 * float(psi_c @ mu_n))
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
    """
    half = (np.arange(samples // 2) + 0.5) / (samples // 2)
    starts = np.concatenate([2.0 * half - 1.0, 1.0 - 2.0 * half])
    x = starts[starts != 0.0]
    origin = -m_past if direction == "forward" else -(m_past + n_max)
    t_path = stream.values(origin, m_past + n_max)
    for t in t_path[:m_past]:
        x = step_values(family, t, x)

    snaps = [x]
    for t in t_path[m_past:]:
        x = step_values(family, t, x)
        snaps.append(x)
    alive = ~np.isnan(x)
    for i, snap in enumerate(snaps):
        snaps[i] = snap[alive]

    out = np.empty(n_max + 1)
    if direction == "forward":
        psi0 = np.asarray(psi(snaps[0]), dtype=float)
        psi_mean = psi0.mean()
        for n in range(n_max + 1):
            phi_n = np.asarray(phi(snaps[n]), dtype=float)
            out[n] = abs(float((phi_n * psi0).mean()) - float(phi_n.mean()) * psi_mean)
    else:
        phi_end = np.asarray(phi(snaps[n_max]), dtype=float)
        phi_mean = phi_end.mean()
        for n in range(n_max + 1):
            psi_n = np.asarray(psi(snaps[n_max - n]), dtype=float)
            out[n] = abs(float((phi_end * psi_n).mean()) - phi_mean * float(psi_n.mean()))
    return out


def holder_seminorm(f: Callable[[np.ndarray], np.ndarray], eta: float, m: int = 4096) -> float:
    """Grid proxy for the eta-Holder seminorm on [-1, 1] (reporting only)."""
    xs = np.linspace(-1.0, 1.0, m)
    vals = np.asarray(f(xs), dtype=float)
    d = np.abs(np.diff(vals)) / np.diff(xs) ** eta
    return float(d.max())


OBSERVABLES: dict[str, tuple[Callable[[np.ndarray], np.ndarray], float]] = {
    "x": (lambda x: x, 1.0),
    "sign": (np.sign, 1.0),  # bounded, not Holder; valid as the L-infinity factor
    "abs": (np.abs, 1.0),
    "cos_pi": (lambda x: np.cos(np.pi * x), 1.0),
    "one": (lambda x: np.ones_like(x), 1.0),
    "square": (lambda x: x * x, 1.0),
    "indicator_right": (lambda x: (x > 0).astype(float), 1.0),
}
