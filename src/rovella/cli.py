"""Experiment runner: one config file, flag overrides, deterministic seeding,
CSV/JSON artifacts plus a rerunnable manifest.

All randomness flows from the single master seed, and every reduction is
deterministic, so any subcommand rerun from its manifest reproduces its
artifacts byte for byte, a tail command's at any `--workers` count.
"""

from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, hyperbolic, map_core, measures, noise, orbit, tower
from .errors import RovellaError, ValidationError
from .numerics import linear_fit

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

SINGULAR_EPIDEMIC = 1e-3  # orbit fraction hitting the singularity -> exit 3
TAIL_COMMANDS = ("hyperbolic-tails", "bad-set-tails")  # the commands that take --workers

DEFAULT_CONFIG: dict = {
    "family": {"kind": "fixture", "s": 2.0, "eps_max": 0.1},
    "noise": {"seed": 1, "eps": 0.01},
    "hyperbolic": {
        "delta": 0.01,
        "delta0": 0.1,
        "c": None,
        "c_prime": None,
        "kappa": None,
        "prefactor": 1.0,
    },
    "tower": {"n_max": 25, "seed_grid": 4096},
    "measures": {
        "grid_m": 2048,
        "m_past": 200,
        "n_max": 40,
        "phi": "x",
        "psi": "sign",
        "method": "ulam",
        "direction": "forward",
        "burn_in": 5,
    },
    "output": {"directory": "out"},
}


def _merge(base: dict, extra: dict) -> dict:
    out = copy.deepcopy(base)
    for key, val in extra.items():
        if isinstance(out.get(key), dict):
            if not isinstance(val, dict):
                raise ValidationError(f"{key} must be a JSON object, got {json.dumps(val)}")
            out[key] = _merge(out[key], val)
        else:
            out[key] = val
    return out


def _read_json(path: str, what: str) -> dict:
    """The JSON object in the file at `path`, described as `what` in errors."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"{what} {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ValidationError(f"{what} {path} must hold a JSON object, got {json.dumps(data)}")
    return data


def load_config(path: str | None, overrides: dict | None = None) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path:
        cfg = _merge(cfg, _read_json(path, "config"))
    if overrides:
        cfg = _merge(cfg, overrides)
    validate_config(cfg)
    return cfg


def _number(chain: str, section: dict, key: str, integer=False, nullable=False, at_least=None):
    """section[key] if it is a finite JSON number (an integer where
    `integer`; null passes where `nullable`), at least `at_least` where given.
    A string, a boolean, NaN, an infinity or any other value violates `chain`."""
    value = section.get(key)
    if value is None and nullable:
        return None
    number = isinstance(value, int if integer else (int, float)) and not isinstance(value, bool)
    if not (number and abs(value) < math.inf):
        kind = "an integer" if integer else "a number"
        raise ValidationError(
            f"{chain} chain violated: {key} must be {kind}, got {json.dumps(value)}"
        )
    if at_least is not None and value < at_least:
        raise ValidationError(f"{chain} chain violated: {key} >= {at_least} required")
    return value


def validate_config(cfg: dict) -> None:
    """Re-validate every constraint chain; messages name the violated chain.

    A value of the wrong JSON type where a number belongs violates its
    chain too, so no comparison below meets a string, a null or a boolean.
    """
    fam = cfg["family"]
    if fam["kind"] not in ("fixture", "table"):
        raise ValidationError(f"family.kind must be fixture or table, got {fam['kind']}")
    eps_max = _number("family", fam, "eps_max")
    if fam["kind"] == "fixture" and not _number("family", fam, "s") > 1:
        raise ValidationError("family chain violated: s > 1 required")
    if not eps_max > 0:
        raise ValidationError("family chain violated: eps_max > 0 required")
    if fam["kind"] == "table":
        try:
            map_core.check_table(**_table_args(fam))
        except KeyError as exc:
            raise ValidationError(f"family chain violated: table key {exc} required") from None
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"family chain violated: {exc}") from None
    nz = cfg["noise"]
    _number("noise", nz, "seed", integer=True)
    eps = _number("noise", nz, "eps")
    if eps < 0:
        raise ValidationError("noise chain violated: eps >= 0 required")
    if eps > eps_max:
        raise ValidationError("noise chain violated: eps <= family.eps_max required")
    hy = cfg["hyperbolic"]
    for key in ("delta", "delta0", "prefactor"):
        if hy[key] is None or not _number("hyperbolic", hy, key) > 0:
            raise ValidationError(f"hyperbolic chain violated: {key} > 0 required")
    c, cp, kappa = (_number("hyperbolic", hy, k, nullable=True) for k in ("c", "c_prime", "kappa"))
    for key, value in (("c", c), ("c_prime", cp), ("kappa", kappa)):
        if value is not None and not value > 0:
            raise ValidationError(f"hyperbolic chain violated: {key} > 0 required")
    # A given kappa fixes the defaults c = kappa/4, c_prime = kappa/2 with no fit.
    if kappa is not None:
        c = kappa / 4.0 if c is None else c
        cp = kappa / 2.0 if cp is None else cp
    if c is not None and cp is not None and not c < cp:
        raise ValidationError("hyperbolic chain violated: 0 < c < c_prime required")
    tw = cfg["tower"]
    _number("tower", tw, "seed_grid", integer=True, at_least=1)
    if _number("tower", tw, "n_max", integer=True, at_least=1) > tower.HORIZON_CAP:
        raise ValidationError(f"tower chain violated: n_max <= {tower.HORIZON_CAP} required")
    ms = cfg["measures"]
    for key in ("m_past", "n_max", "burn_in"):
        _number("measures", ms, key, integer=True, at_least=0)
    _number("measures", ms, "grid_m", integer=True, at_least=16)
    observables = sorted(measures.OBSERVABLES)
    for key, choices in (
        ("phi", observables),
        ("psi", observables),
        ("method", ["ulam", "monte_carlo"]),
        ("direction", ["forward", "backward", "both"]),
    ):
        if ms[key] not in choices:
            raise ValidationError(
                f"measures chain violated: unknown {key} {ms[key]!r} (choose from {choices})"
            )
    directory = cfg["output"]["directory"]
    if not isinstance(directory, str):
        raise ValidationError(f"output.directory must be a string, got {json.dumps(directory)}")
    # The artifacts' `mkdir` makes the missing part, so the nearest existing
    # path must be a directory this process can write into.
    existing = Path(directory)
    while not os.path.exists(existing) and existing != existing.parent:
        existing = existing.parent
    if not (existing.is_dir() and os.access(existing, os.W_OK | os.X_OK)):
        raise ValidationError(
            f"output.directory {directory!r} cannot be made: "
            f"{existing} is not a writable directory"
        )


def _table_args(fam: dict) -> dict:
    """Keyword arguments of `map_core.table_family` from a table config."""
    pos, neg = fam["pos"], fam["neg"]
    return dict(
        pos_x=pos["x"], pos_y=pos["y"], neg_x=neg["x"], neg_y=neg["y"],
        s=fam["s"], k1=fam["K1"], k2=fam["K2"], eps_max=fam["eps_max"],
    )


def resolve_family(cfg: dict) -> map_core.MapFamily:
    fam = cfg["family"]
    if fam["kind"] == "fixture":
        return map_core.fixture_family(s=fam["s"], eps_max=fam["eps_max"])
    return map_core.table_family(**_table_args(fam))


def resolve_hyperbolic(
    cfg: dict, family: map_core.MapFamily, needs_kappa: bool
) -> hyperbolic.HyperbolicConfig:
    """The config's hyperbolic constants. A null kappa is fitted
    (`hyperbolic.fit_expansion_rate`) when the command needs it or c or
    c_prime defaults from it; otherwise it stays None and no fit runs."""
    hy = cfg["hyperbolic"]
    if not needs_kappa and hy["kappa"] is None and None not in (hy["c"], hy["c_prime"]):
        return hyperbolic.HyperbolicConfig(
            delta=hy["delta"],
            delta0=hy["delta0"],
            c=hy["c"],
            c_prime=hy["c_prime"],
            kappa=None,
            base=map_core.critical_neighborhoods(family, 0.0, hy["delta0"] / 2.0),
            prefactor=hy["prefactor"],
        )
    return hyperbolic.config_for_family(
        family,
        cfg["noise"]["eps"],
        hy["delta"],
        hy["delta0"],
        master_seed=cfg["noise"]["seed"],
        kappa=hy["kappa"],
        c=hy["c"],
        c_prime=hy["c_prime"],
        prefactor=hy["prefactor"],
    )


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_json(path: Path, payload: dict) -> None:
    """Strict JSON: a non-finite float (inf, NaN) is written as null."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(_plain(payload), fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


def _plain(obj):
    """`obj` with numpy arrays and scalars as Python lists and numbers, and
    each non-finite float as None."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# -- subcommands ---------------------------------------------------------------
# Each returns ({file name: content}, exit code) and writes nothing: a `.csv`
# name maps to a (header, rows) pair, a `.json` name to its payload, and
# `_run` writes them in order into output.directory.


def cmd_simulate_orbit(cfg: dict, args) -> tuple[dict, int]:
    n = _at_least(args, "n", 1)
    x0 = getattr(args, "x0", None)
    if isinstance(x0, bool) or not isinstance(x0, (int, float)) or not 0 < abs(x0) <= 1:
        raise ValidationError(f"simulate-orbit --x0 must be nonzero in [-1, 1], got {json.dumps(x0)}")
    family = resolve_family(cfg)
    strm = noise.stream(cfg["noise"]["seed"], cfg["noise"]["eps"])
    trace = orbit.iterate(family, strm, x0, n, cfg["hyperbolic"]["delta"])
    rows = [
        (i, trace.points[i], trace.log_der[i], int(trace.depths[i]), int(trace.visits[i]))
        for i in range(len(trace) + 1)
    ]
    return {"orbit.csv": (["i", "x_i", "log_der_i", "depth_i", "in_tilde_B"], rows)}, EXIT_OK


def cmd_verify_family(cfg: dict, args) -> tuple[dict, int]:
    family = resolve_family(cfg)
    report = map_core.verify_conditions(family)
    payload = {k: getattr(report, k) for k in report.__dataclass_fields__}
    payload["required_ok"] = report.required_ok
    return {"family_report.json": payload}, EXIT_OK


def _tail_fit(n: np.ndarray, counts: np.ndarray, total: int):
    # A count below 100 has a Poisson relative error above 10%, which the
    # log of a thin tail would turn into fit noise, so those points are dropped.
    mask = counts >= 100
    if mask.sum() < 3:
        return None
    intercept, slope, r2 = linear_fit(n[mask].astype(float), np.log(counts[mask] / total))
    return {"prefactor": float(np.exp(intercept)), "rate": -float(slope), "r_squared": r2,
            "points": int(mask.sum())}


def _tail_table(cfg: dict, args, tables: tuple[str, ...]):
    """Shared run of `hyperbolic-tails` and `bad-set-tails`, computing only
    the `tables` of `hyperbolic.tail_statistics` that the command writes.

    Returns (resolved constants, table, exit code); the code is
    EXIT_NUMERIC when more than SINGULAR_EPIDEMIC of the orbits died. Only
    `hyperbolic-tails` writes kappa, so `bad-set-tails` fits it only when c
    or c_prime defaults from it.
    """
    samples, n_max, workers = (_at_least(args, k, 1) for k in ("samples", "n_max", "workers"))
    family = resolve_family(cfg)
    hcfg = resolve_hyperbolic(cfg, family, needs_kappa="hyperbolic" in tables)
    table = hyperbolic.tail_statistics(
        family,
        cfg["noise"]["seed"],
        cfg["noise"]["eps"],
        hcfg,
        samples=samples,
        n_max=n_max,
        workers=workers,
        tables=tables,
    )
    simulated = table.total + table.singular_hits
    code = EXIT_NUMERIC if table.singular_hits > SINGULAR_EPIDEMIC * simulated else EXIT_OK
    return hcfg, table, code


def _survivors(table: hyperbolic.TailTable, counts: np.ndarray) -> tuple[list[str], list]:
    return ["n", "survivors", "total", "fraction"], [
        (int(n), int(c), table.total, c / table.total) for n, c in zip(table.n, counts)
    ]


def cmd_hyperbolic_tails(cfg: dict, args) -> tuple[dict, int]:
    hcfg, table, code = _tail_table(cfg, args, ("hyperbolic",))
    fits = {
        "first_hyperbolic": _tail_fit(table.n, table.h_survivors, table.total),
        "first_hyperbolic_return": _tail_fit(table.n, table.hstar_survivors, table.total),
        "constants": {"delta": hcfg.delta, "c": hcfg.c, "c_prime": hcfg.c_prime,
                      "kappa": hcfg.kappa},
    }
    return {
        "hyperbolic_tails.csv": _survivors(table, table.h_survivors),
        "hyperbolic_return_tails.csv": _survivors(table, table.hstar_survivors),
        "hyperbolic_tails_fits.json": fits,
    }, code


def cmd_bad_set_tails(cfg: dict, args) -> tuple[dict, int]:
    hcfg, table, code = _tail_table(cfg, args, ("bad_set",))
    fit = {
        "bad_set": _tail_fit(table.n, table.bad_members, table.total),
        "constants": {"delta": hcfg.delta, "c": hcfg.c, "c_prime": hcfg.c_prime},
    }
    return {
        "bad_set_tails.csv": _survivors(table, table.bad_members),
        "bad_set_tails_fit.json": fit,
    }, code


def _build_partition(cfg: dict) -> tower.ReturnPartition:
    family = resolve_family(cfg)
    strm = noise.stream(cfg["noise"]["seed"], cfg["noise"]["eps"])
    return tower.build_return_partition(
        family,
        strm,
        resolve_hyperbolic(cfg, family, needs_kappa=True),
        cfg["tower"]["n_max"],
        seed_grid=cfg["tower"]["seed_grid"],
    )


def cmd_build_partition(cfg: dict, args) -> tuple[dict, int]:
    part = _build_partition(cfg)
    hcfg = part.cfg
    rows = [(e.left, e.right, e.tau, e.branch_id) for e in part.elements]
    tails = [(n, tower.tail_measure(part, n)) for n in range(part.horizon + 1)]
    summary = {
        "elements": len(part.elements),
        "uncovered": part.uncovered,
        "base_measure": part.base_measure,
        "gcd_return_times": tower._gcd_all([e.tau for e in part.elements]),
        "max_markov_residual": max((e.residual for e in part.elements), default=0.0),
        "dead_seeds": part.dead_seeds,
        "tail_measure": {str(n): v for n, v in tails},
        "constants": {"delta": hcfg.delta, "delta0": hcfg.delta0, "c": hcfg.c,
                      "c_prime": hcfg.c_prime, "kappa": hcfg.kappa},
    }
    return {
        "partition.csv": (["left", "right", "tau", "branch_id"], rows),
        "partition_summary.json": summary,
    }, EXIT_OK


def cmd_certify_tower(cfg: dict, args) -> tuple[dict, int]:
    report = tower.certify_axioms(_build_partition(cfg))
    return {"axioms.json": report.to_dict()}, EXIT_OK


def cmd_density(cfg: dict, args) -> tuple[dict, int]:
    family = resolve_family(cfg)
    strm = noise.stream(cfg["noise"]["seed"], cfg["noise"]["eps"])
    grid = measures.UniformGrid(cfg["measures"]["grid_m"])
    dens = measures.equivariant_density(family, strm, cfg["measures"]["m_past"], grid)
    edges = grid.edges
    rows = zip(edges[:-1].tolist(), edges[1:].tolist(), dens.tolist())
    return {"density.csv": (["cell_left", "cell_right", "weight"], rows)}, EXIT_OK


def cmd_correlation(cfg: dict, args) -> tuple[dict, int]:
    family = resolve_family(cfg)
    strm = noise.stream(cfg["noise"]["seed"], cfg["noise"]["eps"])
    mcfg = cfg["measures"]
    phi, _ = measures.OBSERVABLES[mcfg["phi"]]
    psi, _ = measures.OBSERVABLES[mcfg["psi"]]
    all_series = measures.quenched_correlations(
        family, strm, phi, psi, mcfg["n_max"], method=mcfg["method"],
        grid=measures.UniformGrid(mcfg["grid_m"]), m_past=mcfg["m_past"], burn_in=mcfg["burn_in"],
        directions=("forward", "backward") if mcfg["direction"] == "both" else (mcfg["direction"],),
    )
    rows = [(n, c, d) for d, series in all_series.items() for n, c in enumerate(series.values)]
    fits = {d: _fit_entry(series) for d, series in all_series.items()}
    return {
        "correlation.csv": (["n", "C_n", "direction"], rows),
        "correlation_fit.json": {"fits": fits, "phi": mcfg["phi"], "psi": mcfg["psi"]},
    }, EXIT_OK


def _fit_entry(series: measures.CorrelationSeries) -> dict | None:
    fit = {"prefactor": series.prefactor, "rate": series.rate, "r_squared": series.r_squared}
    return None if series.rate is None else fit


def cmd_fit(cfg: dict, args) -> tuple[dict, int]:
    """An exponential fit of the column; where a `direction` column holds
    several directions, one fit per direction, as `correlation` writes it."""
    burn_in = _at_least(args, "burn_in", 0)
    path, column = _text(args, "input"), _text(args, "column")
    columns: dict[str, list[float]] = {}
    try:
        with open(path) as fh:
            for row in csv.DictReader(fh):
                columns.setdefault(row.get("direction") or "", []).append(float(row[column]))
    except OSError as exc:
        raise ValidationError(f"fit --input: {exc}") from None
    except (KeyError, TypeError, ValueError) as exc:  # no such column, or a non-number in it
        raise ValidationError(f"fit --column {column!r} of {path}: {exc!r}") from None
    if len(columns) > 1:
        series = (measures.CorrelationSeries.from_values(d, np.array(v), burn_in)
                  for d, v in columns.items())
        payload = {"fits": {s.direction: _fit_entry(s) for s in series}}
    else:
        values = np.array(next(iter(columns.values()), []))
        c, b, r2 = measures.fit_exponential(values, burn_in=burn_in)
        payload = {"prefactor": c, "rate": b, "r_squared": r2}
    return {"fit.json": {**payload, "column": column}}, EXIT_OK


COMMANDS = {
    "simulate-orbit": cmd_simulate_orbit,
    "verify-family": cmd_verify_family,
    "hyperbolic-tails": cmd_hyperbolic_tails,
    "bad-set-tails": cmd_bad_set_tails,
    "build-partition": cmd_build_partition,
    "certify-tower": cmd_certify_tower,
    "density": cmd_density,
    "correlation": cmd_correlation,
    "fit": cmd_fit,
}


def build_parser() -> argparse.ArgumentParser:
    """The command line. A flag that overrides a config key has the dotted key
    as its dest, shown as its metavar (`--grid MEASURES.GRID_M`)."""
    parser = argparse.ArgumentParser(
        prog="rovella",
        description="Random perturbations of contracting Lorenz maps: "
        "orbits, hyperbolic times, return partitions, quenched correlations.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # The flags every command but rerun takes, declared once.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--seed", dest="noise.seed", type=int)
    common.add_argument("--eps", dest="noise.eps", type=float)
    common.add_argument("--delta", dest="hyperbolic.delta", type=float)
    common.add_argument("--c", dest="hyperbolic.c", type=float)
    common.add_argument("--c-prime", dest="hyperbolic.c_prime", type=float)
    common.add_argument("--out", dest="output.directory")

    p = sub.add_parser("simulate-orbit", parents=[common],
                       help="one random orbit with bookkeeping")
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--n", type=int, required=True)

    for name, help_text in (
        ("verify-family", "numerical map-condition checks"),
        ("build-partition", "construct the return partition"),
        ("certify-tower", "build and certify the tower axioms"),
        ("density", "equivariant density by pullback"),
        ("correlation", "quenched correlation series"),
    ):
        p = sub.add_parser(name, parents=[common], help=help_text)
        if name == "correlation":
            for key in ("phi", "psi", "method", "direction"):
                p.add_argument(f"--{key}", dest=f"measures.{key}")
            p.add_argument("--n-max", dest="measures.n_max", type=int)
        if name == "density":
            p.add_argument("--m-past", dest="measures.m_past", type=int)
            p.add_argument("--grid", dest="measures.grid_m", type=int)
        if name in ("build-partition", "certify-tower"):
            p.add_argument("--n-max", dest="tower.n_max", type=int)

    for name in TAIL_COMMANDS:
        p = sub.add_parser(name, parents=[common], help="ensemble survival tables and fits")
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--samples", type=int, default=10_000)
        p.add_argument("--n-max", type=int, default=60)

    p = sub.add_parser("fit", parents=[common], help="exponential fit of a CSV column")
    p.add_argument("--input", required=True)
    p.add_argument("--column", default="C_n")
    p.add_argument("--burn-in", type=int, default=0)

    p = sub.add_parser("rerun", help="replay a subcommand from its manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", dest="output.directory")
    p.add_argument("--workers", type=int)
    return parser


def _overrides(args: argparse.Namespace) -> dict:
    """The config keys given as flags, as a nested dict."""
    out: dict = {}
    for dest, value in vars(args).items():
        if "." in dest and value is not None:
            section, key = dest.split(".")
            out.setdefault(section, {})[key] = value
    return out


def _at_least(args: argparse.Namespace, name: str, low: int) -> int:
    """Integer command argument `name`, at least `low`; a manifest's may be missing or mistyped."""
    value = getattr(args, name, None)
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        flag = "--" + name.replace("_", "-")
        raise ValidationError(
            f"{args.command} {flag} must be at least {low}, got {json.dumps(value)}"
        )
    return value


def _text(args: argparse.Namespace, name: str) -> str:
    """String command argument `name`; a manifest's may be missing or mistyped."""
    value = getattr(args, name, None)
    if not isinstance(value, str):
        raise ValidationError(f"{args.command} --{name} must be a string, got {json.dumps(value)}")
    return value


def _from_manifest(args: argparse.Namespace) -> tuple[dict, argparse.Namespace]:
    """Config and command arguments recorded in a manifest, under the rerun's
    flags; the config resolves like a config file, defaults included."""
    manifest = _read_json(args.manifest, "manifest")
    command, command_args = manifest.get("command"), manifest.get("command_args", {})
    if not (command in list(COMMANDS) and isinstance(manifest.get("config"), dict)
            and isinstance(command_args, dict)):
        raise ValidationError(f"manifest {args.manifest} needs a config object, command_args "
                              f"object and known command, got command {json.dumps(command)}")
    if args.workers is not None and command not in TAIL_COMMANDS:
        raise ValidationError(f"rerun --workers: {command} takes no worker count")
    cfg = load_config(None, _merge(manifest["config"], _overrides(args)))
    workers = manifest.get("workers", 1) if args.workers is None else args.workers
    return cfg, argparse.Namespace(**{**command_args, "command": command, "workers": workers})


def _run(cfg: dict, args: argparse.Namespace) -> int:
    import scipy  # for its version only, so that loading a config loads no scipy

    started = time.time()
    artifacts, code = COMMANDS[args.command](cfg, args)
    out_dir = Path(cfg["output"]["directory"])
    for name, content in artifacts.items():
        if name.endswith(".csv"):
            write_csv(out_dir / name, *content)
        else:
            write_json(out_dir / name, content)
    manifest = {
        "command": args.command,
        "config": cfg,
        "config_hash": config_hash(cfg),
        "versions": {
            "rovella": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": ".".join(map(str, sys.version_info[:3])),
        },
        "wall_time_s": time.time() - started,
        "artifacts": list(artifacts),
        "command_args": {
            k: v
            for k, v in vars(args).items()
            if "." not in k and k not in ("config", "command", "workers") and v is not None
        },
    }
    if args.command in TAIL_COMMANDS:
        manifest["workers"] = args.workers
    write_json(out_dir / f"manifest-{args.command}.json", manifest)
    return code


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "rerun":
            cfg, args = _from_manifest(args)
        else:
            cfg = load_config(args.config, _overrides(args))
        return _run(cfg, args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except RovellaError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
