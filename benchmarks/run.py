"""rovella benchmark: one entry point for every workload.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports rovella from ``src/``
and exits with code 2 when that is missing. Workloads are defined in
workloads.py; BENCHMARK.json at the root lists the reported metrics and their
units. Load model: closed loop, one client in one process running one CLI
command after another through ``rovella.cli.main``; the only parallelism is
the 2-worker ``rerun`` of the ensemble workload.

``--trace 0`` measures ``setup_s`` (median over fresh interpreters that import
rovella and validate the workload's config), then runs the workload in a
fresh worker process (harness.py) for about S seconds and prints the
end-to-end metrics. ``setup_s`` and ``wall_s`` are seconds at a fixed
reference CPU speed: the measured wall time rescaled by the speed that
calibration kernels, sampled inside the measured process while it works,
show against their reference times (speed.py). The shared host's vCPUs
drift in speed by tens of percent within a run, so the raw times spread
more than a regression bound between runs of the same code; they are
printed as ``raw`` lines and kept in the record.

``--trace 1`` runs the workload once untraced and once with spans, plus the
per-layer probes of layers.py, and prints the per-layer metrics, per-module
self times and the tracing overhead.

Every CLI artifact goes to a scratch directory under ``.bench_work/`` that is
removed afterwards, and is checked against the acceptance tolerances; a
nonzero exit, an exception or a violated gate counts as a failed operation.
The full record (environment, per-pass timings, artifact digests, gates and,
when traced, the spans) is written to ``.bench_out/``. The last line of
standard output is the JSON summary.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7
DEADLINE_S = 170.0  # the whole run must end within 180 s

# A fresh interpreter imports rovella and validates the workload's config,
# with the CPU-speed sampler running, and prints the calibration samples.
SETUP_CODE = (
    "import json, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from speed import SpeedSampler\n"
    "sampler = SpeedSampler()\n"
    "sampler.start()\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from rovella import cli\n"
    "cli.load_config(sys.argv[3] or None, json.loads(sys.argv[4]))\n"
    "sampler.stop()\n"
    "print(json.dumps(sampler.samples), flush=True)\n"
)


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def setup_seconds(config: Path | None, seed: int, env: dict,
                  deadline: float) -> tuple[list[float], list[float]]:
    """Set-up times of fresh interpreters: (raw, at the reference CPU speed)."""
    overrides = json.dumps({"noise": {"seed": seed},
                            "hyperbolic": {"c": 0.35, "c_prime": 0.45}})
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", SETUP_CODE, str(HERE), str(ROOT / "src"), str(config or ""),
             overrides],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env, start_new_session=True,
        )
        try:
            line = proc.stdout.readline().strip()
            wall = time.perf_counter() - start
            proc.wait(timeout=max(deadline - time.perf_counter(), 1.0))
        except subprocess.TimeoutExpired:
            _kill_group(proc)
            raise RuntimeError("set-up interpreter timed out") from None
        finally:
            proc.stdout.close()
        if proc.returncode != 0 or not line.startswith("["):
            raise RuntimeError(f"set-up interpreter failed with code {proc.returncode}")
        raw.append(wall)
        scaled.append(speed.reference_seconds(wall, [tuple(s) for s in json.loads(line)]))
    return raw, scaled


def run_worker(cmd: list[str], env: dict, deadline: float) -> None:
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        proc.wait(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        _kill_group(proc)
        raise RuntimeError("workload exceeded the run deadline") from None
    if proc.returncode != 0:
        raise RuntimeError(f"workload process failed with code {proc.returncode}")


def contract_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="rovella benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes for the smoke test")
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    if not (ROOT / "src" / "rovella" / "__init__.py").is_file():
        print(f"error: no rovella sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = contract_metrics(args.trace)
    scale = workloads.SMOKE if args.smoke else workloads.FULL
    wl = workloads.build(scale)[args.workload]

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(work))
    try:
        config = None
        if wl.config:
            config = work / "config.json"
            config.write_text(json.dumps(wl.config))
        raw_setup, setup = ([], []) if args.trace else setup_seconds(config, args.seed, env,
                                                                     deadline)
        result_path = work / "result.json"
        cmd = [sys.executable, str(HERE / "harness.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work", str(work), "--result", str(result_path)]
        if config is not None:
            cmd += ["--config", str(config)]
        if args.smoke:
            cmd.append("--smoke")
        run_worker(cmd, env, deadline)
        result = json.loads(result_path.read_text())
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = dict(result["metrics"])
    if setup:
        measured["setup_s"] = median(setup)
        result["setup_samples_s"] = setup
        result["raw_setup_samples_s"] = raw_setup
    missing = sorted(set(units) - set(measured))
    if missing:
        print(f"error: workload did not measure {missing}", file=sys.stderr)
        return 1
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{tag}.json").write_text(json.dumps(result, indent=1, default=float))

    print("env " + json.dumps(result["env"], sort_keys=True))
    if args.trace:
        for module, seconds in result["module_self_s"].items():
            print(f"self_time {module} {seconds:.6f} s")
        for name, seconds in result["command_overhead_s"].items():
            print(f"cli_overhead {name} {seconds} s")
    else:
        for name, seconds in result["per_command_s"].items():
            print(f"command {name} {seconds:.6f} s")
        print(f"raw wall_s {result['raw_wall_s']:.6f} s")
        print(f"raw setup_s {median(raw_setup):.6f} s")
    for name, unit in units.items():
        print(f"metric {name} {measured[name]} {unit}")
    print(f"failed_ops {result['failed']}/{result['attempted']}")
    for gate in result["stability"] + [g for p in result["passes"] for g in p["gates"]]:
        if not gate["ok"]:
            print(f"FAILED gate {gate['gate']}: {gate['detail']}")
    for p in result["passes"]:
        for name, step in p["steps"].items():
            if not step["ok"]:
                print(f"FAILED command {name}: exit {step['exit']} {step['error'] or ''}")
    summary = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": measured[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
