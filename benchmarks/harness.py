"""Worker process of the rovella benchmark: runs one workload, writes JSON.

    python3 benchmarks/harness.py --workload NAME --seed N --seconds S --trace 0|1
        --work DIR --result FILE [--config FILE]

run.py starts it in a fresh interpreter for every run, so peak RSS belongs to
the workload. Untraced (``--trace 0``) it repeats passes of the workload's
commands for about S seconds with the CPU-speed sampler of speed.py running;
``wall_s`` is the median pass time at the reference CPU speed for each noise
realization, averaged over realizations. The raw pass times and the raw
per-command medians are recorded beside it. Traced (``--trace 1``) it
runs one untraced pass, one pass with spans around every CLI command and a
replay of that command's library calls, and then the per-layer probes.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
import warnings
from contextlib import nullcontext
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import rovella  # noqa: E402
from rovella import cli, map_core, measures, noise  # noqa: E402

import workloads  # noqa: E402
from layers import SINGULAR_SHARE, Tracer, family_from_config, replay, run_probes  # noqa: E402
from speed import SpeedSampler, reference_seconds  # noqa: E402

MIN_ROUNDS = 2  # every realization runs twice, so its digests can be compared
MARKOV_BOUND = 1e-9  # acceptance criterion 05
MIN_ELEMENTS = 50
ROW_SUM_BOUND = 1e-12
RATE_AGREEMENT = 0.25  # acceptance criterion 08


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _manifest(out: Path) -> dict:
    (path,) = out.glob("manifest-*.json")
    return json.loads(path.read_text())


def run_step(argv: list[str], out: Path, tracer: Tracer | None,
             sampler: SpeedSampler | None = None) -> dict:
    """One CLI command; a nonzero exit or an exception is a failed op. With a
    sampler, calibration samples are taken in this process while it runs."""
    rec: dict = {"argv": argv, "exit": None, "error": None}
    # Start each command without the garbage of the last one, as in a fresh
    # process, so peak RSS does not depend on when the collector last ran.
    gc.collect()
    span = tracer.span("cli.main") if tracer else nullcontext()
    start = time.perf_counter()
    mark = sampler.start() if sampler else 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with span:
            try:
                rec["exit"] = cli.main(argv)
            except SystemExit as exc:  # argparse rejects bad arguments this way
                rec["exit"] = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # noqa: BLE001 - a crashing command is a counted failure
                rec["error"] = traceback.format_exc(limit=4)
            finally:
                if sampler:
                    sampler.stop()
    rec["seconds"] = time.perf_counter() - start
    rec["calibration_s"] = sampler.window(mark) if sampler else []
    rec["runtime_warnings"] = sum(issubclass(w.category, RuntimeWarning) for w in caught)
    rec["ok"] = rec["exit"] == 0 and rec["error"] is None
    rec["artifacts"] = {}
    if rec["ok"]:
        manifest = _manifest(out)
        for name in manifest["artifacts"]:
            path = out / name
            rec["artifacts"][name] = {"sha256": _sha256(path), "bytes": path.stat().st_size}
    return rec


# -- correctness gates ----------------------------------------------------------


def _family_and_stream(out: Path):
    cfg = _manifest(out)["config"]
    return family_from_config(cfg), noise.stream(cfg["noise"]["seed"], cfg["noise"]["eps"]), cfg


def _partition_gates(out: Path) -> list[tuple]:
    rows = np.loadtxt(out / "partition.csv", delimiter=",", skiprows=1, usecols=(0, 1, 2),
                      ndmin=2)
    left, right, tau = rows[:, 0], rows[:, 1], rows[:, 2].astype(int)
    order = np.argsort(left)
    summary = json.loads((out / "partition_summary.json").read_text())
    radius = summary["constants"]["delta0"] / 2.0
    # Independent re-check: every element's endpoints must land on the base
    # endpoints after tau steps of the public map.
    family, strm, _ = _family_and_stream(out)
    worst = 0.0
    for lo, hi, k in zip(left, right, tau):
        x = np.array([lo, hi])
        for i in range(k):
            x = map_core.evaluate(family, strm.get(i), x)
        worst = max(worst, abs(x[0] + radius), abs(x[1] - radius))
    return [
        ("elements", len(left) >= MIN_ELEMENTS, f"{len(left)} elements"),
        ("disjoint", bool(np.all(right[order][:-1] <= left[order][1:])), ""),
        ("gcd", math.gcd(*tau.tolist()) == 1, f"gcd {math.gcd(*tau.tolist())}"),
        ("markov_summary", summary["max_markov_residual"] <= MARKOV_BOUND,
         f"{summary['max_markov_residual']:.2e}"),
        ("markov_recheck", worst <= MARKOV_BOUND, f"{worst:.2e}"),
    ]


def _axioms_gates(out: Path) -> list[tuple]:
    axioms = json.loads((out / "axioms.json").read_text())
    return [("axioms_markov", axioms["verdicts"]["markov"] is True,
             f"residual {axioms['markov_max_residual']:.2e}")]


def _correlation_gates(out: Path) -> list[tuple]:
    fits = json.loads((out / "correlation_fit.json").read_text())["fits"]
    bf, bb = fits["forward"]["rate"], fits["backward"]["rate"]
    agree = bf > 0 and bb > 0 and abs(bf - bb) <= RATE_AGREEMENT * max(bf, bb)
    family, strm, cfg = _family_and_stream(out)
    grid = measures.UniformGrid(cfg["measures"]["grid_m"])
    worst = 0.0
    for index in (-1, 0, 1):
        mat = measures.ulam_row_operator(family, strm.get(index), grid)
        worst = max(worst, float(np.max(np.abs(mat.sum(axis=1) - 1.0))))
    return [
        ("rates_agree", agree, f"forward {bf:.4f}, backward {bb:.4f}"),
        ("rows_stochastic", worst <= ROW_SUM_BOUND, f"max |row sum - 1| {worst:.1e}"),
    ]


def _rerun_gate(steps: dict) -> list[tuple]:
    base = {k: v["sha256"] for k, v in steps["hyperbolic-tails"]["artifacts"].items()}
    redo = {k: v["sha256"] for k, v in steps["rerun"]["artifacts"].items()}
    return [("rerun_identical", bool(base) and base == redo, "workers 2 vs workers 1")]


def gates_for(wl: workloads.Workload, steps: dict, pass_dir: Path) -> list[tuple]:
    """The workload's acceptance gates on the artifacts of one pass."""
    if not all(s["ok"] for s in steps.values()):
        return []  # the failed commands are already counted
    if wl.name == "ensemble":
        return _rerun_gate(steps)
    if wl.name == "transfer":
        return _correlation_gates(pass_dir / "correlation")
    gates = _partition_gates(pass_dir / "build-partition")
    if wl.name == "partition":
        gates += _axioms_gates(pass_dir / "certify-tower")
    return gates


def _checked(fn, *args) -> list[dict]:
    """Gate results as records; a gate that raises counts as failed."""
    try:
        results = fn(*args)
    except Exception:  # noqa: BLE001 - a broken artifact is a failed gate
        return [{"gate": fn.__name__, "ok": False, "detail": traceback.format_exc(limit=3)}]
    return [{"gate": name, "ok": bool(ok), "detail": detail} for name, ok, detail in results]


def run_pass(wl, seed: int, config: Path | None, pass_dir: Path, tracer=None,
             sampler: SpeedSampler | None = None) -> dict:
    steps: dict[str, dict] = {}
    dirs: dict[str, Path] = {}
    replays: dict[str, dict] = {}
    for step in wl.steps:
        out = pass_dir / step.name
        dirs[step.name] = out
        argv = list(step.argv)
        for name, path in dirs.items():
            argv = [a.replace("{" + name + "}", str(path)) for a in argv]
        if argv[0] != "rerun":
            argv += [*workloads.CONSTANTS, "--seed", str(seed)]
            if config is not None:
                argv += ["--config", str(config)]
        argv += ["--out", str(out)]
        if tracer is None:
            # No calibration inside a parallel step: the kernel would compete
            # with its workers for the CPUs.
            steps[step.name] = run_step(argv, out, None, None if step.parallel else sampler)
            continue
        with tracer.span(f"command:{step.name}"):
            steps[step.name] = rec = run_step(argv, out, tracer)
            if rec["ok"]:
                with tracer.span("replay") as replay_span:
                    replays[step.name] = replay(tracer, _manifest(out))
                rec["overhead_s"] = rec["seconds"] - (replay_span["end"] - replay_span["start"])
    gates = _checked(gates_for, wl, steps, pass_dir)
    for name, info in replays.items():
        if "singular_hits" in info:
            ok = info["singular_hits"] <= SINGULAR_SHARE * info["total"]
            gates.append({"gate": f"singular_hits[{name}]", "ok": ok,
                          "detail": f"{info['singular_hits']} of {info['total']}"})
    wall = sum(s["seconds"] for s in steps.values())
    calibration = [r for s in steps.values() for r in s.pop("calibration_s")]
    return {
        "seed": seed,
        "steps": steps,
        "gates": gates,
        "wall_s": wall,
        "calibration_samples": len(calibration),
        "ref_wall_s": reference_seconds(wall, calibration) if calibration else None,
    }


def digests(p: dict) -> dict:
    return {f"{step}/{name}": a["sha256"]
            for step, rec in p["steps"].items() for name, a in rec["artifacts"].items()}


def count_ops(passes: list[dict], extra_gates: list[dict] = ()) -> tuple[int, int]:
    attempted = failed = 0
    for p in passes:
        for rec in p["steps"].values():
            attempted += 1
            failed += not rec["ok"]
        for g in p["gates"]:
            attempted += 1
            failed += not g["ok"]
    for g in extra_gates:
        attempted += 1
        failed += not g["ok"]
    return attempted, failed


def stability_gates(passes: list[dict]) -> list[dict]:
    """Every pass must write the artifacts of the first pass with its seed."""
    first: dict[int, dict] = {}
    out = []
    for i, p in enumerate(passes):
        if p["seed"] not in first:
            first[p["seed"]] = digests(p)
            continue
        same = bool(first[p["seed"]]) and digests(p) == first[p["seed"]]
        out.append({"gate": f"digests_stable[pass {i}]", "ok": same, "detail": f"seed {p['seed']}"})
    return out


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "rovella": rovella.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
    }


def load_family(config: Path | None) -> map_core.MapFamily:
    """The workload's family, evaluated once so that what the commands import
    lazily is loaded before the first timed pass."""
    family = family_from_config(cli.load_config(str(config) if config else None))
    map_core.evaluate(family, 0.0, np.linspace(-1.0, 1.0, 8)[1:-1])
    return family


def noise_seeds(wl: workloads.Workload, seed: int) -> list[int]:
    """The run's noise realizations; the first is the run's own seed."""
    return [seed + j * workloads.REALIZATION_STRIDE for j in range(wl.realizations)]


def untraced_run(wl, args, config) -> dict:
    load_family(config)
    seeds = noise_seeds(wl, args.seed)
    sampler = SpeedSampler()
    passes: list[dict] = []
    start = time.perf_counter()
    while True:
        # Whole rounds over the realizations keep every median balanced.
        for s in seeds:
            passes.append(run_pass(wl, s, config, args.work / f"pass{len(passes)}",
                                   sampler=sampler))
        elapsed = time.perf_counter() - start
        rounds = len(passes) // len(seeds)
        if rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > args.seconds:
            break
    extra = stability_gates(passes)
    attempted, failed = count_ops(passes, extra)
    # wall_s: each pass's wall time at the reference CPU speed (speed.py),
    # the median over the passes of each realization, averaged over the
    # realizations. raw_wall_s is the same without the rescaling.
    def per_realization(key: str) -> float:
        by_seed: dict[int, list[float]] = {}
        for p in passes:
            by_seed.setdefault(p["seed"], []).append(p[key])
        return sum(median(v) for v in by_seed.values()) / len(by_seed)

    metrics = {
        "wall_s": per_realization("ref_wall_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    per_command = {name: median(p["steps"][name]["seconds"] for p in passes)
                   for name in passes[0]["steps"]}
    return {"passes": passes, "stability": extra, "attempted": attempted, "failed": failed,
            "metrics": metrics, "raw_wall_s": per_realization("wall_s"),
            "per_command_s": per_command}


def traced_run(wl, args, config) -> dict:
    family = load_family(config)
    plain = run_pass(wl, args.seed, config, args.work / "untraced")
    tracer = Tracer()
    with tracer.span(f"workload:{wl.name}"):
        traced = run_pass(wl, args.seed, config, args.work / "traced", tracer)
        metrics, probe_gates, probe_warnings = run_probes(tracer, family, args.seed)
    passes = [plain, traced]
    extra = stability_gates(passes)
    extra += [{"gate": name, "ok": bool(ok), "detail": detail} for name, ok, detail in probe_gates]
    attempted, failed = count_ops(passes, extra)
    steps = traced["steps"].values()
    metrics["cli.runtime_warnings"] = sum(s["runtime_warnings"] for s in steps)
    metrics["cli.artifact_bytes"] = sum(a["bytes"] for s in steps for a in s["artifacts"].values())
    metrics["cli.overhead_s"] = sum(s.get("overhead_s", 0.0) for s in steps)
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    return {
        "passes": passes,
        "stability": extra,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "command_overhead_s": {n: s.get("overhead_s") for n, s in traced["steps"].items()},
        "module_self_s": tracer.module_self_times(),
        "probe_runtime_warnings": probe_warnings,
        "spans": tracer.spans,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--config", type=Path, default=None)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes for the smoke test")
    args = parser.parse_args(argv)
    if Path(rovella.__file__).resolve().parent != ROOT / "src" / "rovella":
        print(f"error: imported rovella from {rovella.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    wl = workloads.build(workloads.SMOKE if args.smoke else workloads.FULL)[args.workload]
    run = traced_run if args.trace else untraced_run
    result = run(wl, args, args.config)
    result["env"] = environment(args)
    args.result.write_text(json.dumps(result, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
