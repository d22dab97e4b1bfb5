"""Experiment runner: one config file, flag overrides, deterministic seeding,
CSV/JSON artifacts plus a rerunnable manifest.

All randomness flows from the single master seed, and every reduction is
deterministic, so any subcommand rerun from its manifest reproduces its
artifacts byte for byte at any worker count.
"""

from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__, hyperbolic, map_core, measures, noise, orbit, tower
from .errors import RovellaError, ValidationError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

SINGULAR_EPIDEMIC = 1e-3  # orbit fraction hitting the singularity -> exit 3

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
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = val
    return out


def load_config(path: str | None, overrides: dict | None = None) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path:
        with open(path) as fh:
            cfg = _merge(cfg, json.load(fh))
    if overrides:
        cfg = _merge(cfg, overrides)
    validate_config(cfg)
    return cfg


def validate_config(cfg: dict) -> None:
    """Re-validate every constraint chain; messages name the violated chain."""
    fam = cfg["family"]
    if fam["kind"] not in ("fixture", "table"):
        raise ValidationError(f"family.kind must be fixture or table, got {fam['kind']}")
    if fam["kind"] == "fixture" and not fam.get("s", 2.0) > 1:
        raise ValidationError("family chain violated: s > 1 required")
    if not fam.get("eps_max", 0.1) > 0:
        raise ValidationError("family chain violated: eps_max > 0 required")
    if fam["kind"] == "table":
        try:
            map_core.check_table(**_table_args(fam))
        except KeyError as exc:
            raise ValidationError(f"family chain violated: table key {exc} required") from None
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"family chain violated: {exc}") from None
    nz = cfg["noise"]
    if nz["eps"] < 0:
        raise ValidationError("noise chain violated: eps >= 0 required")
    if nz["eps"] > fam.get("eps_max", 0.1):
        raise ValidationError("noise chain violated: eps <= family.eps_max required")
    hy = cfg["hyperbolic"]
    if not hy["delta"] > 0:
        raise ValidationError("hyperbolic chain violated: delta > 0 required")
    if hy.get("delta0") is None or not hy["delta0"] > 0:
        raise ValidationError("hyperbolic chain violated: delta0 > 0 required")
    c, cp = hy.get("c"), hy.get("c_prime")
    if c is not None and cp is not None and not (0 < c < cp):
        raise ValidationError("hyperbolic chain violated: 0 < c < c_prime required")
    if not cfg["tower"]["n_max"] >= 1:
        raise ValidationError("tower chain violated: n_max >= 1 required")
    if cfg["measures"]["grid_m"] < 16:
        raise ValidationError("measures chain violated: grid_m >= 16 required")
    for key in ("phi", "psi"):
        if cfg["measures"][key] not in measures.OBSERVABLES:
            raise ValidationError(
                f"measures chain violated: unknown observable {cfg['measures'][key]!r} "
                f"(choose from {sorted(measures.OBSERVABLES)})"
            )


def _table_args(fam: dict) -> dict:
    """Keyword arguments of `map_core.table_family` from a table config."""
    pos, neg = fam["pos"], fam["neg"]
    return dict(
        pos_x=pos["x"], pos_y=pos["y"], neg_x=neg["x"], neg_y=neg["y"],
        s=fam["s"], k1=fam["K1"], k2=fam["K2"], eps_max=fam.get("eps_max", 0.1),
    )


def resolve_family(cfg: dict) -> map_core.MapFamily:
    fam = cfg["family"]
    if fam["kind"] == "fixture":
        return map_core.fixture_family(s=fam.get("s", 2.0), eps_max=fam.get("eps_max", 0.1))
    return map_core.table_family(**_table_args(fam))


def resolve_hyperbolic(cfg: dict, family: map_core.MapFamily) -> hyperbolic.HyperbolicConfig:
    hy = cfg["hyperbolic"]
    return hyperbolic.config_for_family(
        family,
        cfg["noise"]["eps"],
        hy["delta"],
        hy["delta0"],
        master_seed=cfg["noise"]["seed"],
        kappa=hy.get("kappa"),
        c=hy.get("c"),
        c_prime=hy.get("c_prime"),
        prefactor=hy.get("prefactor", 1.0),
    )


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, default=_json_default)
        fh.write("\n")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# -- subcommands ---------------------------------------------------------------


def cmd_simulate_orbit(cfg: dict, args) -> tuple[list[str], int]:
    family = resolve_family(cfg)
    strm = noise.stream(cfg["noise"]["seed"], cfg["noise"]["eps"])
    trace = orbit.iterate(family, strm, args.x0, args.n, cfg["hyperbolic"]["delta"])
    rows = [
        (i, trace.points[i], trace.log_der[i], int(trace.depths[i]), int(trace.visits[i]))
        for i in range(len(trace) + 1)
    ]
    out = Path(cfg["output"]["directory"]) / "orbit.csv"
    write_csv(out, ["i", "x_i", "log_der_i", "depth_i", "in_tilde_B"], rows)
    return [out.name], EXIT_OK


def cmd_verify_family(cfg: dict, args) -> tuple[list[str], int]:
    family = resolve_family(cfg)
    report = map_core.verify_conditions(family)
    payload = {k: getattr(report, k) for k in report.__dataclass_fields__}
    payload["required_ok"] = report.required_ok
    out = Path(cfg["output"]["directory"]) / "family_report.json"
    write_json(out, payload)
    return [out.name], EXIT_OK


def _tail_fit(n: np.ndarray, counts: np.ndarray, total: int, min_survivors: int = 100):
    mask = counts >= min_survivors
    if mask.sum() < 3:
        return None
    from .numerics import linear_fit

    intercept, slope, r2 = linear_fit(n[mask].astype(float), np.log(counts[mask] / total))
    return {"prefactor": float(np.exp(intercept)), "rate": -float(slope), "r_squared": r2,
            "points": int(mask.sum())}


def _tail_table(cfg: dict, args):
    """Shared run of `hyperbolic-tails` and `bad-set-tails`.

    Returns (resolved constants, table, output directory, exit code); the
    code is EXIT_NUMERIC when more than SINGULAR_EPIDEMIC of the orbits died.
    """
    family = resolve_family(cfg)
    hcfg = resolve_hyperbolic(cfg, family)
    table = hyperbolic.tail_statistics(
        family,
        cfg["noise"]["seed"],
        cfg["noise"]["eps"],
        hcfg,
        samples=args.samples,
        n_max=args.n_max,
        workers=args.workers,
    )
    simulated = table.total + table.singular_hits
    code = EXIT_NUMERIC if table.singular_hits > SINGULAR_EPIDEMIC * simulated else EXIT_OK
    return hcfg, table, Path(cfg["output"]["directory"]), code


def _write_survivors(path: Path, table: hyperbolic.TailTable, counts: np.ndarray) -> None:
    write_csv(
        path,
        ["n", "survivors", "total", "fraction"],
        [(int(n), int(c), table.total, c / table.total) for n, c in zip(table.n, counts)],
    )


def cmd_hyperbolic_tails(cfg: dict, args) -> tuple[list[str], int]:
    hcfg, table, out_dir, code = _tail_table(cfg, args)
    names = []
    for stem, counts in (
        ("hyperbolic_tails", table.h_survivors),
        ("hyperbolic_return_tails", table.hstar_survivors),
    ):
        path = out_dir / f"{stem}.csv"
        _write_survivors(path, table, counts)
        names.append(path.name)
    fits = {
        "first_hyperbolic": _tail_fit(table.n, table.h_survivors, table.total),
        "first_hyperbolic_return": _tail_fit(table.n, table.hstar_survivors, table.total),
        "constants": {"delta": hcfg.delta, "c": hcfg.c, "c_prime": hcfg.c_prime,
                      "kappa": hcfg.kappa},
    }
    fit_path = out_dir / "hyperbolic_tails_fits.json"
    write_json(fit_path, fits)
    names.append(fit_path.name)
    return names, code


def cmd_bad_set_tails(cfg: dict, args) -> tuple[list[str], int]:
    hcfg, table, out_dir, code = _tail_table(cfg, args)
    path = out_dir / "bad_set_tails.csv"
    _write_survivors(path, table, table.bad_members)
    fit_path = out_dir / "bad_set_tails_fit.json"
    write_json(
        fit_path,
        {
            "bad_set": _tail_fit(table.n, table.bad_members, table.total),
            "constants": {"delta": hcfg.delta, "c": hcfg.c, "c_prime": hcfg.c_prime},
        },
    )
    return [path.name, fit_path.name], code


def _build_partition(cfg: dict):
    family = resolve_family(cfg)
    hcfg = resolve_hyperbolic(cfg, family)
    strm = noise.stream(cfg["noise"]["seed"], cfg["noise"]["eps"])
    part = tower.build_return_partition(
        family,
        strm,
        hcfg,
        cfg["tower"]["n_max"],
        seed_grid=cfg["tower"]["seed_grid"],
    )
    return family, hcfg, strm, part


def cmd_build_partition(cfg: dict, args) -> tuple[list[str], int]:
    _, hcfg, _, part = _build_partition(cfg)
    out_dir = Path(cfg["output"]["directory"])
    path = out_dir / "partition.csv"
    write_csv(
        path,
        ["left", "right", "tau", "branch_id"],
        [(e.left, e.right, e.tau, e.branch_id) for e in part.elements],
    )
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
    sum_path = out_dir / "partition_summary.json"
    write_json(sum_path, summary)
    return [path.name, sum_path.name], EXIT_OK


def cmd_certify_tower(cfg: dict, args) -> tuple[list[str], int]:
    _, _, _, part = _build_partition(cfg)
    report = tower.certify_axioms(part)
    out_dir = Path(cfg["output"]["directory"])
    path = out_dir / "axioms.json"
    write_json(path, report.to_dict())
    return [path.name], EXIT_OK


def cmd_density(cfg: dict, args) -> tuple[list[str], int]:
    family = resolve_family(cfg)
    strm = noise.stream(cfg["noise"]["seed"], cfg["noise"]["eps"])
    grid = measures.UniformGrid(cfg["measures"]["grid_m"])
    dens = measures.equivariant_density(family, strm, cfg["measures"]["m_past"], grid)
    edges = grid.edges
    out = Path(cfg["output"]["directory"]) / "density.csv"
    write_csv(
        out,
        ["cell_left", "cell_right", "weight"],
        [(edges[i], edges[i + 1], dens.weights[i]) for i in range(grid.m)],
    )
    return [out.name], EXIT_OK


def cmd_correlation(cfg: dict, args) -> tuple[list[str], int]:
    family = resolve_family(cfg)
    strm = noise.stream(cfg["noise"]["seed"], cfg["noise"]["eps"])
    mcfg = cfg["measures"]
    phi, _ = measures.OBSERVABLES[mcfg["phi"]]
    psi, _ = measures.OBSERVABLES[mcfg["psi"]]
    directions = (
        ["forward", "backward"] if mcfg["direction"] == "both" else [mcfg["direction"]]
    )
    out_dir = Path(cfg["output"]["directory"])
    grid = measures.UniformGrid(mcfg["grid_m"])
    # Both directions push through the same operators; build each once.
    cache = measures.OperatorCache(family, strm, grid) if mcfg["method"] == "ulam" else None
    rows = []
    fits = {}
    for direction in directions:
        series = measures.quenched_correlation(
            family,
            strm,
            phi,
            psi,
            mcfg["n_max"],
            method=mcfg["method"],
            grid=grid,
            m_past=mcfg["m_past"],
            direction=direction,
            burn_in=mcfg["burn_in"],
            cache=cache,
        )
        rows.extend((n, series.values[n], direction) for n in range(mcfg["n_max"] + 1))
        fits[direction] = (
            {"prefactor": series.prefactor, "rate": series.rate, "r_squared": series.r_squared}
            if series.rate is not None
            else None
        )
    path = out_dir / "correlation.csv"
    write_csv(path, ["n", "C_n", "direction"], rows)
    fit_path = out_dir / "correlation_fit.json"
    write_json(fit_path, {"fits": fits, "phi": mcfg["phi"], "psi": mcfg["psi"]})
    return [path.name, fit_path.name], EXIT_OK


def cmd_fit(cfg: dict, args) -> tuple[list[str], int]:
    with open(args.input) as fh:
        reader = csv.DictReader(fh)
        values = np.array([float(row[args.column]) for row in reader])
    c, b, r2 = measures.fit_exponential(values, burn_in=args.burn_in)
    out = Path(cfg["output"]["directory"]) / "fit.json"
    write_json(out, {"prefactor": c, "rate": b, "r_squared": r2, "column": args.column})
    return [out.name], EXIT_OK


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
    parser = argparse.ArgumentParser(
        prog="rovella",
        description="Random perturbations of contracting Lorenz maps: "
        "orbits, hyperbolic times, return partitions, quenched correlations.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override noise.seed")
        p.add_argument("--eps", type=float, default=None, help="override noise.eps")
        p.add_argument("--delta", type=float, default=None, help="override hyperbolic.delta")
        p.add_argument("--c", type=float, default=None, help="override hyperbolic.c")
        p.add_argument("--c-prime", type=float, default=None, help="override hyperbolic.c_prime")
        p.add_argument("--out", default=None, help="override output.directory")
        p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("simulate-orbit", help="one random orbit with bookkeeping")
    common(p)
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--n", type=int, required=True)

    for name, help_text in (
        ("verify-family", "numerical map-condition checks"),
        ("build-partition", "construct the return partition"),
        ("certify-tower", "build and certify the tower axioms"),
        ("density", "equivariant density by pullback"),
        ("correlation", "quenched correlation series"),
    ):
        p = sub.add_parser(name, help=help_text)
        common(p)
        if name == "correlation":
            p.add_argument("--phi", default=None)
            p.add_argument("--psi", default=None)
            p.add_argument("--n-max", type=int, default=None)
            p.add_argument("--method", default=None, choices=["ulam", "monte_carlo"])
            p.add_argument("--direction", default=None, choices=["forward", "backward", "both"])
        if name == "density":
            p.add_argument("--m-past", type=int, default=None)
            p.add_argument("--grid", type=int, default=None)
        if name in ("build-partition", "certify-tower"):
            p.add_argument("--n-max", type=int, default=None)

    for name in ("hyperbolic-tails", "bad-set-tails"):
        p = sub.add_parser(name, help="ensemble survival tables and fits")
        common(p)
        p.add_argument("--samples", type=int, default=10_000)
        p.add_argument("--n-max", type=int, default=60)

    p = sub.add_parser("fit", help="exponential fit of a CSV column")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--column", default="C_n")
    p.add_argument("--burn-in", type=int, default=0)

    p = sub.add_parser("rerun", help="replay a subcommand from its manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--workers", type=int, default=None)
    return parser


def _overrides_from_args(args) -> dict:
    out: dict = {}
    if getattr(args, "seed", None) is not None:
        out.setdefault("noise", {})["seed"] = args.seed
    if getattr(args, "eps", None) is not None:
        out.setdefault("noise", {})["eps"] = args.eps
    if getattr(args, "delta", None) is not None:
        out.setdefault("hyperbolic", {})["delta"] = args.delta
    if getattr(args, "c", None) is not None:
        out.setdefault("hyperbolic", {})["c"] = args.c
    if getattr(args, "c_prime", None) is not None:
        out.setdefault("hyperbolic", {})["c_prime"] = args.c_prime
    if getattr(args, "out", None) is not None:
        out.setdefault("output", {})["directory"] = args.out
    if getattr(args, "n_max", None) is not None:
        if args.command in ("build-partition", "certify-tower"):
            out.setdefault("tower", {})["n_max"] = args.n_max
        elif args.command == "correlation":
            out.setdefault("measures", {})["n_max"] = args.n_max
    for key in ("phi", "psi", "method", "direction"):
        if getattr(args, key, None) is not None:
            out.setdefault("measures", {})[key] = getattr(args, key)
    if getattr(args, "m_past", None) is not None:
        out.setdefault("measures", {})["m_past"] = args.m_past
    if getattr(args, "grid", None) is not None:
        out.setdefault("measures", {})["grid_m"] = args.grid
    return out


def _run(command: str, cfg: dict, args, workers: int) -> int:
    out_dir = Path(cfg["output"]["directory"])
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.time()
    artifacts, code = COMMANDS[command](cfg, args)
    manifest = {
        "command": command,
        "config": cfg,
        "config_hash": config_hash(cfg),
        "seed": cfg["noise"]["seed"],
        "workers": workers,
        "versions": {
            "rovella": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": ".".join(map(str, sys.version_info[:3])),
        },
        "wall_time_s": time.time() - started,
        "artifacts": artifacts,
        "command_args": {
            k: v
            for k, v in vars(args).items()
            if k not in ("config", "command", "func") and not k.startswith("_") and v is not None
        },
    }
    write_json(out_dir / f"manifest-{command}.json", manifest)
    return code


class _ArgsShim:
    """Arguments reconstructed from a manifest."""

    def __init__(self, command: str, payload: dict) -> None:
        self.command = command
        for k, v in payload.items():
            setattr(self, k.replace("-", "_"), v)

    def __getattr__(self, name):
        return None


def _workers_ok(workers: int) -> bool:
    if workers >= 1:
        return True
    print(f"error: workers must be at least 1, got {workers}", file=sys.stderr)
    return False


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "rerun":
        with open(args.manifest) as fh:
            manifest = json.load(fh)
        cfg = manifest["config"]
        if args.out is not None:
            cfg = _merge(cfg, {"output": {"directory": args.out}})
        workers = args.workers if args.workers is not None else manifest.get("workers", 1)
        try:
            validate_config(cfg)
        except ValidationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        if not _workers_ok(workers):
            return EXIT_VALIDATION
        args = _ArgsShim(manifest["command"], manifest.get("command_args", {}))
        args.workers = workers
    else:
        if not _workers_ok(args.workers):
            return EXIT_VALIDATION
        try:
            cfg = load_config(args.config, _overrides_from_args(args))
        except (ValidationError, FileNotFoundError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
    try:
        return _run(args.command, cfg, args, args.workers)
    except RovellaError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
