"""Workload definitions for the rovella benchmark: pure data, no rovella import.

Every workload is a fixed sequence of CLI commands run through
``rovella.cli.main`` with the acceptance constants ``--c 0.35 --c-prime 0.45``
and the run's seed as the noise ``--seed`` (``partition`` adds two more
realizations, see ``Workload.realizations``). Workloads differ in which layers
they load, so a change to one layer shows on one workload and not on another:

- ``ensemble``: vectorized stepping, noise matrices and the running-max
  reduction, plus the 2-worker spawn pool of ``rerun``. No pullback, partition
  or Ulam operator runs here.
- ``partition``: narrow-array bisection pullbacks and the shifted-stream
  ``PartitionCache`` rebuilds of ``certify-tower``.
- ``transfer``: Ulam operator builds on 2048-wide arrays, pushes, and the
  Monte Carlo correlation.
- ``table``: the same layers on a PCHIP-tabulated family with no closed form.

Sizes are cut from the acceptance scale so that one pass takes a few seconds
on a 2-core machine and a run can take the median of several passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

CONSTANTS = ("--c", "0.35", "--c-prime", "0.45")
# Realization j of a run uses noise seed (seed + j * REALIZATION_STRIDE).
REALIZATION_STRIDE = 10_000


@dataclass(frozen=True)
class Step:
    """One CLI command of a pass. ``argv`` may hold ``{<step>}`` placeholders
    that resolve to the output directory of an earlier step of the pass."""

    name: str
    argv: tuple[str, ...]
    parallel: bool = False  # runs worker processes on every CPU


@dataclass(frozen=True)
class Scale:
    tail_samples: int  # > 20,000, so tail_statistics splits into chunks and rerun uses its pool
    tail_n_max: int
    orbit_n: int
    partition_n_max: int
    certify_n_max: int
    m_past: int
    correlation_n_max: int
    table_n_max: int
    table_correlation_n_max: int
    table_tail_samples: int


FULL = Scale(
    tail_samples=50_000,
    tail_n_max=60,
    orbit_n=1000,
    partition_n_max=12,
    certify_n_max=8,
    m_past=60,
    correlation_n_max=40,
    table_n_max=12,
    table_correlation_n_max=30,
    table_tail_samples=20_000,
)

SMOKE = Scale(
    tail_samples=20_001,
    tail_n_max=20,
    orbit_n=200,
    partition_n_max=12,
    certify_n_max=6,
    m_past=20,
    correlation_n_max=20,
    table_n_max=12,
    table_correlation_n_max=10,
    table_tail_samples=5_000,
)


@dataclass(frozen=True)
class Workload:
    name: str
    steps: tuple[Step, ...]
    config: dict = field(default_factory=dict)  # written to a file and passed as --config
    # Noise realizations per run. Partition work depends on the realization,
    # so those workloads report medians over several to stay comparable
    # across seeds; ensemble and Ulam work does not.
    realizations: int = 1


def table_family_config() -> dict:
    """Tabulated copy of the fixture map: 200 nodes of 2x^2 - 1 on [1e-6, 1],
    mirrored for the negative branch (the nodes of the map_core tests)."""
    xs = np.linspace(1e-6, 1.0, 200)
    return {
        "kind": "table",
        "s": 2.0,
        "K1": 3.0,
        "K2": 4.5,
        "eps_max": 0.1,
        "pos": {"x": xs.tolist(), "y": (2 * xs**2 - 1).tolist()},
        "neg": {"x": (-xs[::-1]).tolist(), "y": (-(2 * xs[::-1] ** 2 - 1)).tolist()},
    }


def _tails(command: str, samples: int, n_max: int) -> Step:
    return Step(
        command,
        (command, "--samples", str(samples), "--n-max", str(n_max), "--workers", "1"),
    )


def build(scale: Scale = FULL) -> dict[str, Workload]:
    s = scale
    ensemble = Workload(
        "ensemble",
        steps=(
            _tails("hyperbolic-tails", s.tail_samples, s.tail_n_max),
            _tails("bad-set-tails", s.tail_samples, s.tail_n_max),
            Step(
                "rerun",
                ("rerun", "--manifest", "{hyperbolic-tails}/manifest-hyperbolic-tails.json",
                 "--workers", "2"),
                parallel=True,
            ),
            Step("simulate-orbit", ("simulate-orbit", "--x0", "0.4", "--n", str(s.orbit_n))),
            Step("verify-family", ("verify-family",)),
        ),
    )
    partition = Workload(
        "partition",
        steps=(
            Step("build-partition", ("build-partition", "--n-max", str(s.partition_n_max))),
            Step("certify-tower", ("certify-tower", "--n-max", str(s.certify_n_max))),
        ),
        realizations=3,
    )
    transfer = Workload(
        "transfer",
        steps=(
            Step("density", ("density", "--grid", "2048")),
            Step(
                "correlation",
                ("correlation", "--phi", "x", "--psi", "sign", "--n-max",
                 str(s.correlation_n_max), "--direction", "both"),
            ),
            Step(
                "correlation-mc",
                ("correlation", "--method", "monte_carlo", "--n-max", str(s.correlation_n_max)),
            ),
            Step("fit", ("fit", "--input", "{correlation}/correlation.csv")),
        ),
        config={"measures": {"m_past": s.m_past}},
    )
    table = Workload(
        "table",
        steps=(
            Step("build-partition", ("build-partition", "--n-max", str(s.table_n_max))),
            Step(
                "correlation",
                ("correlation", "--direction", "forward", "--n-max",
                 str(s.table_correlation_n_max)),
            ),
            _tails("hyperbolic-tails", s.table_tail_samples, s.tail_n_max),
        ),
        config={"family": table_family_config(), "measures": {"m_past": s.m_past}},
    )
    return {w.name: w for w in (ensemble, partition, transfer, table)}


NAMES = tuple(build())
