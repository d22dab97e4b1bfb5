import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from rovella import cli, hyperbolic, measures


def run(args):
    return cli.main(args)


def table_config(**changes):
    """The table family of 200 nodes of 2x^2 - 1 on [1e-6, 1], mirrored,
    with `changes` applied to its keys (None deletes a key)."""
    xs = np.linspace(1e-6, 1.0, 200)
    fam = {
        "kind": "table", "s": 2.0, "K1": 3.0, "K2": 4.5, "eps_max": 0.1,
        "pos": {"x": xs.tolist(), "y": (2 * xs**2 - 1).tolist()},
        "neg": {"x": (-xs[::-1]).tolist(), "y": (-(2 * xs[::-1] ** 2 - 1)).tolist()},
    }
    for key, val in changes.items():
        if val is None:
            del fam[key]
        else:
            fam[key] = val
    return {"family": fam}


def _nodes(x, y):
    return {"x": list(x), "y": list(y)}


ORBIT = ["simulate-orbit", "--x0", "0.4", "--n", "5"]
TAILS = ["hyperbolic-tails", "--samples", "200", "--n-max", "10"]


def _in(tmp_path, text):
    """`text` with each @name replaced by the path of `name` in tmp_path."""
    return re.sub(r"@([\w.]+)", lambda m: str(tmp_path / m.group(1)), text)


class TestValidation:
    @pytest.mark.parametrize("changes, message", [
        ({"pos": _nodes([0.5, 0.2, 1.0], [-0.5, 0.0, 1.0])}, "strictly increasing"),
        ({"neg": _nodes([-1.0, -0.5, -0.1], [-1.0, 0.5, 0.4])}, "strictly increasing"),
        ({"pos": None}, "table key 'pos' required"),
        ({"pos": {"x": [0.5, 1.0]}}, "table key 'y' required"),
        ({"eps_max": 0.5}, "eps_max < 1/2"),
        ({"pos": _nodes([0.1, 0.9], [-0.9, 1.0])}, "outermost node must be at x = +1"),
        ({"neg": _nodes([-1.0, 0.1], [-1.0, 0.9])}, "innermost on its side of 0"),
        ({"pos": _nodes([0.1, 1.0], [-1.0, 1.0])}, "innermost value must lie inside"),
        ({"pos": _nodes([0.1, 0.5, 1.0], [-0.9, 0.0])}, "one value per node"),
        ({"s": 1.0}, "s > 1"),
        ({"K1": 5.0}, "0 < K1 <= K2"),
    ], ids=[
        "x-order", "y-order", "no-pos", "no-y", "eps-max", "outer-node", "inner-side",
        "inner-value", "lengths", "s", "k1-k2",
    ])
    def test_malformed_table_config(self, tmp_path, capsys, changes, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(table_config(**changes)))
        code = run(["verify-family", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "family chain violated" in err and message in err

    def test_bad_constant_chain(self, tmp_path, capsys):
        code = run([
            "simulate-orbit", "--x0", "0.5", "--n", "5",
            "--c", "0.5", "--c-prime", "0.3", "--out", str(tmp_path),
        ])
        assert code == cli.EXIT_VALIDATION
        assert "c < c_prime" in capsys.readouterr().err

    def test_eps_exceeds_eps_max(self, tmp_path, capsys):
        code = run([
            "simulate-orbit", "--x0", "0.5", "--n", "5",
            "--eps", "0.5", "--out", str(tmp_path),
        ])
        assert code == cli.EXIT_VALIDATION
        assert "eps_max" in capsys.readouterr().err

    @pytest.mark.parametrize("delta0", [None, 0.0, -0.1])
    def test_delta0_must_be_positive(self, tmp_path, capsys, delta0):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"hyperbolic": {"delta0": delta0}}))
        code = run([
            "simulate-orbit", "--x0", "0.5", "--n", "5",
            "--config", str(cfg), "--out", str(tmp_path / "o"),
        ])
        assert code == cli.EXIT_VALIDATION
        assert "delta0 > 0 required" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("config, message", [
        ({"hyperbolic": {"delta0": "0.1"}},
         'hyperbolic chain violated: delta0 must be a number, got "0.1"'),
        ({"noise": {"eps": "0.01"}}, 'noise chain violated: eps must be a number, got "0.01"'),
        ({"noise": {"eps": None}}, "noise chain violated: eps must be a number, got null"),
        ({"hyperbolic": {"c": False}}, "hyperbolic chain violated: c must be a number, got false"),
        ({"tower": {"n_max": True}}, "tower chain violated: n_max must be an integer, got true"),
        ({"noise": {"seed": 1.5}}, "noise chain violated: seed must be an integer, got 1.5"),
    ], ids=["delta0-string", "eps-string", "eps-null", "c-bool", "n-max-bool", "seed-float"])
    def test_wrong_json_type_names_chain(self, tmp_path, capsys, config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = run([
            "simulate-orbit", "--x0", "0.5", "--n", "5",
            "--config", str(cfg), "--out", str(tmp_path / "o"),
        ])
        assert code == cli.EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unknown_observable(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"measures": {"phi": "nope"}}))
        code = run([
            "correlation", "--config", str(cfg), "--out", str(tmp_path / "o"),
        ])
        assert code == cli.EXIT_VALIDATION

    def test_s3_kappa_fit_failure_names_override(self, tmp_path, capsys):
        # At the defaults the s = 3 fixture's 1st-percentile escape rate is
        # negative; an explicit kappa skips the fit.
        cfg = tmp_path / "cfg.json"
        args = ["hyperbolic-tails", "--samples", "200", "--n-max", "10", "--config", str(cfg)]
        cfg.write_text(json.dumps({"family": {"kind": "fixture", "s": 3.0}}))
        assert run([*args, "--out", str(tmp_path / "fit")]) == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "exponent -0.1396886" in err and "hyperbolic.kappa" in err
        cfg.write_text(json.dumps({"family": {"kind": "fixture", "s": 3.0},
                                   "hyperbolic": {"kappa": 0.7}}))
        assert run([*args, "--out", str(tmp_path / "given")]) == 0

    @pytest.mark.parametrize("command, code", [
        ("bad-set-tails", cli.EXIT_OK),
        ("hyperbolic-tails", cli.EXIT_NUMERIC),
    ])
    def test_s3_given_constants_fit_kappa_only_where_written(
        self, tmp_path, capsys, command, code
    ):
        # With c and c' given, `bad-set-tails` writes no kappa and fits none,
        # so the s = 3 fixture's negative escape rate does not stop it;
        # `hyperbolic-tails` writes kappa and still fails on the fit.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": {"kind": "fixture", "s": 3.0, "eps_max": 0.1}}))
        out = tmp_path / "o"
        assert run([
            command, "--samples", "2000", "--n-max", "20", "--c", "0.35", "--c-prime", "0.45",
            "--config", str(cfg), "--out", str(out),
        ]) == code
        err = capsys.readouterr().err
        if code == cli.EXIT_OK:
            assert len((out / "bad_set_tails.csv").read_text().splitlines()) == 21
            constants = json.loads((out / "bad_set_tails_fit.json").read_text())["constants"]
            assert constants == {"delta": 0.01, "c": 0.35, "c_prime": 0.45}
        else:
            assert "fitted expansion exponent -0.1396886" in err
            assert not out.exists()

    @pytest.mark.parametrize("constants, fits", [
        (("--c", "0.35", "--c-prime", "0.45"), 0),
        (("--c", "0.1"), 1),
        (("--c-prime", "0.45"), 1),
        ((), 1),
    ], ids=["both", "c-only", "c-prime-only", "neither"])
    def test_bad_set_tails_fits_kappa_only_for_a_default(
        self, tmp_path, monkeypatch, constants, fits
    ):
        calls = []
        real = hyperbolic.fit_expansion_rate

        def spy(*a, **kw):
            calls.append(a)
            return real(*a, **kw)

        monkeypatch.setattr(hyperbolic, "fit_expansion_rate", spy)
        assert run([
            "bad-set-tails", "--samples", "200", "--n-max", "10", *constants,
            "--out", str(tmp_path),
        ]) == 0
        assert len(calls) == fits

    def test_too_few_escape_events_names_override(self, tmp_path, capsys):
        # At delta 1e-9 the 2 delta neighbourhood is too thin for 50 escape
        # events; the message names the config key that skips the fit.
        args = ["hyperbolic-tails", "--samples", "200", "--n-max", "10", "--delta", "1e-9",
                "--out", str(tmp_path / "o")]
        assert run(args) == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "only 37 escape events at delta=1e-09" in err
        assert "give kappa explicitly (config hyperbolic.kappa) to skip the fit" in err

    def test_rerun_numeric_failure_exits_numeric(self, tmp_path, capsys):
        # A rerun goes through the same RovellaError handler as the
        # subcommand: the s = 3 kappa fit fails with exit 3, not a traceback.
        a = tmp_path / "a"
        args = ["hyperbolic-tails", "--samples", "200", "--n-max", "10", "--out", str(a)]
        assert run(args) == 0
        manifest = a / "manifest-hyperbolic-tails.json"
        payload = json.loads(manifest.read_text())
        payload["config"]["family"]["s"] = 3.0
        manifest.write_text(json.dumps(payload))
        capsys.readouterr()
        redo = ["rerun", "--manifest", str(manifest), "--out", str(tmp_path / "b")]
        assert run(redo) == cli.EXIT_NUMERIC
        assert "numeric failure" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one(self, tmp_path, capsys, workers):
        tails = ["hyperbolic-tails", "--samples", "200", "--n-max", "10", "--workers", workers]
        assert run([*tails, "--out", str(tmp_path / "tails")]) == cli.EXIT_VALIDATION
        assert f"workers must be at least 1, got {workers}" in capsys.readouterr().err
        assert not (tmp_path / "tails").exists()

        assert run([*TAILS, "--out", str(tmp_path / "a")]) == 0
        manifest = tmp_path / "a" / "manifest-hyperbolic-tails.json"
        redo = ["rerun", "--manifest", str(manifest), "--out", str(tmp_path / "b")]
        assert run([*redo, "--workers", workers]) == cli.EXIT_VALIDATION
        assert f"workers must be at least 1, got {workers}" in capsys.readouterr().err
        # A manifest that recorded such a count is refused too.
        payload = json.loads(manifest.read_text())
        manifest.write_text(json.dumps({**payload, "workers": int(workers)}))
        assert run(redo) == cli.EXIT_VALIDATION
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("files, argv, message", [
        ({}, ["rerun", "--manifest", "@absent.json"], "manifest @absent.json"),
        ({"m.json": "{not json"}, ["rerun", "--manifest", "@m.json"], "manifest @m.json"),
        ({"m.json": '{"command": "density"}'}, ["rerun", "--manifest", "@m.json"],
         "manifest @m.json needs a config object"),
        ({"m.json": '{"config": {}}'}, ["rerun", "--manifest", "@m.json"], "got command null"),
        ({"m.json": '{"command": "nope", "config": {}}'}, ["rerun", "--manifest", "@m.json"],
         'got command "nope"'),
        ({"c.json": "[1, 2]"}, [*ORBIT, "--config", "@c.json"], "config @c.json must hold a JSON"),
        ({"c.json": '{"noise": null}'}, [*ORBIT, "--config", "@c.json"],
         "noise must be a JSON object, got null"),
        ({}, [*ORBIT, "--eps", "nan"], "eps must be a number, got NaN"),
        ({}, [*ORBIT, "--delta", "inf"], "delta must be a number, got Infinity"),
        ({"c.json": '{"measures": {"n_max": -1}}'}, ["correlation", "--config", "@c.json"],
         "measures chain violated: n_max >= 0 required"),
        ({"c.json": '{"measures": {"m_past": -1}}'}, ["density", "--config", "@c.json"],
         "measures chain violated: m_past >= 0 required"),
        ({"c.json": '{"measures": {"burn_in": -1}}'}, ["correlation", "--config", "@c.json"],
         "measures chain violated: burn_in >= 0 required"),
        ({"c.json": '{"measures": {"method": "exact"}}'}, ["correlation", "--config", "@c.json"],
         "unknown method 'exact'"),
        ({}, ["correlation", "--direction", "sideways"], "unknown direction 'sideways'"),
        ({"c.json": '{"tower": {"seed_grid": -1}}'}, ["build-partition", "--config", "@c.json"],
         "tower chain violated: seed_grid >= 1 required"),
        ({}, ["certify-tower", "--n-max", "61"], "tower chain violated: n_max <= 60 required"),
        *(({"c.json": f'{{"output": {{"directory": {value}}}}}'}, [*ORBIT, "--config", "@c.json"],
           f"output.directory must be a string, got {value}") for value in ("5", "null", '["a"]')),
        ({"c.json": '{"hyperbolic": {"prefactor": 0}}'}, [*ORBIT, "--config", "@c.json"],
         "hyperbolic chain violated: prefactor > 0 required"),
        ({"c.json": '{"hyperbolic": {"c": 0}}'}, [*TAILS, "--config", "@c.json"],
         "hyperbolic chain violated: c > 0 required"),
        ({"c.json": '{"hyperbolic": {"kappa": -1}}'}, [*TAILS, "--config", "@c.json"],
         "hyperbolic chain violated: kappa > 0 required"),
        # kappa/2 = 0.5 is the default c_prime, which the given c exceeds.
        ({"c.json": '{"hyperbolic": {"kappa": 1.0, "c": 0.6}}'}, [*TAILS, "--config", "@c.json"],
         "hyperbolic chain violated: 0 < c < c_prime required"),
        ({}, [*TAILS, "--samples", "0"], "--samples must be at least 1, got 0"),
        ({}, [*TAILS, "--n-max", "0"], "--n-max must be at least 1, got 0"),
        ({}, [*ORBIT, "--n", "0"], "--n must be at least 1, got 0"),
        ({}, [*ORBIT, "--x0", "0"], "--x0 must be nonzero in [-1, 1], got 0.0"),
        ({}, [*ORBIT, "--x0", "nan"], "--x0 must be nonzero in [-1, 1], got NaN"),
        ({}, ["fit", "--input", "@absent.csv"], "fit --input: [Errno 2]"),
        ({"s.csv": "n,C_n\n0,1.0\n"}, ["fit", "--input", "@s.csv", "--column", "C"],
         "fit --column 'C' of @s.csv: KeyError"),
        ({"s.csv": "n,C_n\n0,one\n"}, ["fit", "--input", "@s.csv"],
         "fit --column 'C_n' of @s.csv: ValueError"),
        ({"s.csv": "n,C_n\n0,1.0\n"}, ["fit", "--input", "@s.csv", "--burn-in", "-1"],
         "--burn-in must be at least 0, got -1"),
    ], ids=[
        "manifest-missing", "manifest-not-json", "manifest-no-config", "manifest-no-command",
        "manifest-unknown-command", "config-list", "config-null-section", "eps-nan",
        "delta-inf", "measures-n-max", "m-past", "burn-in", "method", "direction", "seed-grid",
        "tower-n-max-cap", "directory-number", "directory-null", "directory-list",
        "prefactor", "c-zero", "kappa-negative", "c-above-kappa-default", "samples",
        "tails-n-max", "orbit-n", "x0-zero", "x0-nan", "fit-no-input", "fit-no-column",
        "fit-not-numeric", "fit-burn-in",
    ])
    def test_malformed_input_exits_validation(self, tmp_path, capsys, files, argv, message):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        out = tmp_path / "o"
        # `--out` would override a config's own output.directory.
        flags = [] if '"output"' in "".join(files.values()) else ["--out", str(out)]
        code = run([_in(tmp_path, a) for a in argv] + flags)
        assert code == cli.EXIT_VALIDATION
        assert _in(tmp_path, message) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command_args, message", [
        ({"column": "C_n"}, "fit --input must be a string, got null"),
        ({"input": 999, "column": "C_n"}, "fit --input must be a string, got 999"),
        ({"input": "@s.csv"}, "fit --column must be a string, got null"),
    ], ids=["no-input", "integer-input", "no-column"])
    def test_fit_manifest_arguments(self, tmp_path, capsys, command_args, message):
        # A manifest's `fit` arguments are checked as strings: a missing one
        # would be an AttributeError, and an integer `input` a file descriptor.
        (tmp_path / "s.csv").write_text("n,C_n\n0,1.0\n")
        command_args = {k: _in(tmp_path, v) if isinstance(v, str) else v
                        for k, v in command_args.items()}
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "command": "fit", "config": {}, "command_args": {**command_args, "burn_in": 0},
        }))
        out = tmp_path / "o"
        redo = ["rerun", "--manifest", str(manifest), "--out", str(out)]
        assert run(redo) == cli.EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file(self, tmp_path):
        code = run([
            "simulate-orbit", "--x0", "0.5", "--n", "5",
            "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path),
        ])
        assert code == cli.EXIT_VALIDATION

    @pytest.mark.parametrize("under", ["afile", "afile/sub"])
    def test_out_under_a_file_exits_before_work(self, tmp_path, capsys, monkeypatch, under):
        assert run(["verify-family", "--out", str(tmp_path / "a")]) == 0
        manifest = tmp_path / "a" / "manifest-verify-family.json"
        (tmp_path / "afile").write_text("not a directory")
        out = tmp_path / under

        def no_work(cfg, args):
            raise AssertionError("the command ran")

        monkeypatch.setitem(cli.COMMANDS, "verify-family", no_work)
        for argv in (["verify-family"], ["rerun", "--manifest", str(manifest)]):
            assert run([*argv, "--out", str(out)]) == cli.EXIT_VALIDATION
            err = capsys.readouterr().err
            assert err == (f"error: output.directory {str(out)!r} cannot be made: "
                           f"{tmp_path / 'afile'} is not a writable directory\n")
        assert (tmp_path / "afile").read_text() == "not a directory"


class TestDeterminism:
    def test_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run([
                "simulate-orbit", "--x0", "0.4", "--n", "50", "--out", str(out),
            ]) == 0
        assert (a / "orbit.csv").read_bytes() == (b / "orbit.csv").read_bytes()

    @staticmethod
    def _rerun_with_workers(tmp_path, monkeypatch, command, names):
        # 20,001 orbits are two 20,000-row chunks, so the 2-worker rerun
        # runs them on a pool of two threads and the serial run does not.
        pools, pool = [], hyperbolic.ThreadPoolExecutor

        def counted(workers):
            pools.append(workers)
            return pool(workers)

        monkeypatch.setattr(hyperbolic, "ThreadPoolExecutor", counted)
        a = tmp_path / "a"
        assert run([
            command, "--samples", "20001", "--n-max", "8",
            "--c", "0.35", "--c-prime", "0.45",
            "--out", str(a), "--workers", "1",
        ]) == 0
        b = tmp_path / "b"
        assert run([
            "rerun", "--manifest", str(a / f"manifest-{command}.json"),
            "--out", str(b), "--workers", "2",
        ]) == 0
        assert pools == [2]
        for out in (a, b):
            assert json.loads((out / f"manifest-{command}.json").read_text())["artifacts"] == names
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_manifest_rerun_and_workers(self, tmp_path, monkeypatch):
        self._rerun_with_workers(tmp_path, monkeypatch, "hyperbolic-tails", [
            "hyperbolic_tails.csv", "hyperbolic_return_tails.csv", "hyperbolic_tails_fits.json",
        ])

    def test_bad_set_manifest_rerun_and_workers(self, tmp_path, monkeypatch):
        self._rerun_with_workers(tmp_path, monkeypatch, "bad-set-tails", [
            "bad_set_tails.csv", "bad_set_tails_fit.json",
        ])

    def test_manifest_with_retired_keys_reruns(self, tmp_path):
        # `tower.delta_prime` and `output.formats` are no longer config keys;
        # a manifest that still carries them reruns to the same bytes.
        a = tmp_path / "a"
        assert run(["simulate-orbit", "--x0", "0.4", "--n", "30", "--out", str(a)]) == 0
        manifest = a / "manifest-simulate-orbit.json"
        payload = json.loads(manifest.read_text())
        payload["config"]["tower"]["delta_prime"] = 0.05
        payload["config"]["output"]["formats"] = ["csv", "json"]
        manifest.write_text(json.dumps(payload))
        b = tmp_path / "b"
        assert run(["rerun", "--manifest", str(manifest), "--out", str(b)]) == 0
        assert (a / "orbit.csv").read_bytes() == (b / "orbit.csv").read_bytes()

    def test_manifest_missing_defaulted_keys_reruns(self, tmp_path):
        # A manifest's config resolves like a config file: keys it lacks take
        # their defaults.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"measures": {"grid_m": 64, "m_past": 10, "n_max": 12}}))
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["correlation", "--config", str(cfg), "--out", str(a)]) == 0
        manifest = a / "manifest-correlation.json"
        payload = json.loads(manifest.read_text())
        del payload["config"]["measures"]["burn_in"]
        del payload["config"]["hyperbolic"]["prefactor"]
        manifest.write_text(json.dumps(payload))
        assert run(["rerun", "--manifest", str(manifest), "--out", str(b)]) == 0
        for name in ("correlation.csv", "correlation_fit.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["simulate-orbit", "--x0", "0.4", "--n", "30", "--seed", "1", "--out", str(a)])
        run(["simulate-orbit", "--x0", "0.4", "--n", "30", "--seed", "2", "--out", str(b)])
        assert (a / "orbit.csv").read_bytes() != (b / "orbit.csv").read_bytes()


class TestWorkerCount:
    """Only the tail commands take --workers, and only their manifests record it."""

    @pytest.mark.parametrize("command", [
        "simulate-orbit", "verify-family", "build-partition", "certify-tower", "density",
        "correlation", "fit",
    ])
    def test_other_commands_refuse_workers(self, tmp_path, capsys, command):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            run([command, *REQUIRED_ARGS.get(command, []), "--workers", "1", "--out", str(out)])
        assert exc.value.code == cli.EXIT_VALIDATION
        assert "unrecognized arguments: --workers 1" in capsys.readouterr().err
        assert not out.exists()

    def test_rerun_refuses_workers_for_other_commands(self, tmp_path, capsys):
        assert run([*ORBIT, "--out", str(tmp_path / "a")]) == 0
        manifest = tmp_path / "a" / "manifest-simulate-orbit.json"
        redo = ["rerun", "--manifest", str(manifest), "--out", str(tmp_path / "b")]
        assert run([*redo, "--workers", "2"]) == cli.EXIT_VALIDATION
        assert "simulate-orbit takes no worker count" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("argv, names", [
        (ORBIT, ["orbit.csv"]),
        ([*TAILS, "--c", "0.35", "--c-prime", "0.45"],
         ["hyperbolic_tails.csv", "hyperbolic_return_tails.csv", "hyperbolic_tails_fits.json"]),
    ])
    def test_older_manifest_reruns_identically(self, tmp_path, argv, names):
        # Manifests written while every command took --workers hold the count
        # at the top level and again in command_args.
        command, a, b = argv[0], tmp_path / "a", tmp_path / "b"
        recorded = 1 if command == "hyperbolic-tails" else None
        assert run([*argv, "--out", str(a)]) == 0
        manifest = a / f"manifest-{command}.json"
        payload = json.loads(manifest.read_text())
        assert payload.get("workers") == recorded and "workers" not in payload["command_args"]
        payload["workers"] = payload["command_args"]["workers"] = 1
        manifest.write_text(json.dumps(payload))
        assert run(["rerun", "--manifest", str(manifest), "--out", str(b)]) == 0
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes()
        again = json.loads((b / f"manifest-{command}.json").read_text())
        assert again.get("workers") == recorded and "workers" not in again["command_args"]


class TestArtifacts:
    def test_orbit_columns(self, tmp_path):
        run(["simulate-orbit", "--x0", "0.4", "--n", "10", "--out", str(tmp_path)])
        lines = (tmp_path / "orbit.csv").read_text().splitlines()
        assert lines[0] == "i,x_i,log_der_i,depth_i,in_tilde_B"
        assert len(lines) == 12

    def test_verify_family_report(self, tmp_path):
        assert run(["verify-family", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "family_report.json").read_text())
        assert payload["r1_ok"] is True
        assert payload["r3_ok"] is False  # fixture critical orbits not dense
        assert payload["required_ok"] is True
        assert payload["lambda_fit"] == pytest.approx(4.0)

    def test_verify_family_report_is_strict_json(self, tmp_path):
        """The critical orbit of -1 lands on the singularity (the family of
        test_map_core's test_critical_orbit_on_the_singularity_fails_r1_and_r2),
        so alpha_fit is inf; the report writes it as null, and a parser that
        rejects Infinity and NaN reads the whole file."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(table_config(
            K1=0.1, K2=10.0,
            pos=_nodes([1e-3, 0.5, 1.0], [-0.99, -0.5, 1.0]),
            neg=_nodes([-1.0, -0.5, -1e-3], [0.0, 0.5, 0.99]),
        )))
        assert run(["verify-family", "--config", str(cfg), "--out", str(tmp_path)]) == 0

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        json.loads((tmp_path / "manifest-verify-family.json").read_text(), parse_constant=reject)
        report = json.loads((tmp_path / "family_report.json").read_text(), parse_constant=reject)
        assert report["alpha_fit"] is None and report["r2_ok"] is False
        assert report["lambda_fit"] == 0.0 and report["required_ok"] is False

    def test_density_artifact(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"measures": {"grid_m": 64, "m_past": 10}}))
        assert run(["density", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "density.csv").read_text().splitlines()
        assert lines[0] == "cell_left,cell_right,weight"
        assert len(lines) == 65
        weights = np.array([float(l.split(",")[2]) for l in lines[1:]])
        assert abs(weights.sum() * (2 / 64) - 1) < 1e-9

    def test_correlation_and_fit_roundtrip(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "measures": {"grid_m": 128, "m_past": 30, "n_max": 20, "direction": "both"}
        }))
        assert run(["correlation", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        text = (tmp_path / "correlation.csv").read_text().splitlines()
        assert text[0] == "n,C_n,direction"
        assert len(text) == 1 + 2 * 21
        fits = json.loads((tmp_path / "correlation_fit.json").read_text())
        assert set(fits["fits"]) == {"forward", "backward"}
        # the standalone fit subcommand consumes the correlation table
        fwd = tmp_path / "fwd.csv"
        fwd.write_text("\n".join([text[0]] + [l for l in text[1:] if l.endswith("forward")]) + "\n")
        assert run([
            "fit", "--input", str(fwd), "--column", "C_n", "--burn-in", "2",
            "--out", str(tmp_path),
        ]) == 0
        fit = json.loads((tmp_path / "fit.json").read_text())
        assert fit["rate"] > 0
        assert set(fit) == {"prefactor", "rate", "r_squared", "column"}
        # The unfiltered table: one fit per direction, each with the bytes
        # of the fit `correlation` wrote at the same burn-in.
        assert run([
            "fit", "--input", str(tmp_path / "correlation.csv"), "--column", "C_n",
            "--burn-in", "5", "--out", str(tmp_path),
        ]) == 0
        fit = json.loads((tmp_path / "fit.json").read_text())
        assert set(fit) == {"fits", "column"}
        for direction in ("forward", "backward"):
            got, want = fit["fits"][direction], fits["fits"][direction]
            assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
            assert got["rate"] > 0

    def test_fit_direction_without_usable_points_is_null(self, tmp_path):
        # As in correlation_fit.json: n_max 3 leaves no direction 5 points.
        assert run(["correlation", "--n-max", "3", "--direction", "both",
                    "--out", str(tmp_path)]) == 0
        assert run(["fit", "--input", str(tmp_path / "correlation.csv"),
                    "--out", str(tmp_path)]) == 0
        fit = json.loads((tmp_path / "fit.json").read_text())
        assert fit["fits"] == {"forward": None, "backward": None}
        assert fit["fits"] == json.loads((tmp_path / "correlation_fit.json").read_text())["fits"]

    def test_fit_without_direction_column_is_one_series(self, tmp_path):
        values = 0.8 * np.exp(-0.5 * np.arange(12))
        rows = "".join(f"{n},{v!r}\n" for n, v in enumerate(values.tolist()))
        series = tmp_path / "s.csv"
        series.write_text("n,C_n\n" + rows)
        assert run(["fit", "--input", str(series), "--burn-in", "2", "--out", str(tmp_path)]) == 0
        c, b, r2 = measures.fit_exponential(values, burn_in=2)
        want = {"column": "C_n", "prefactor": c, "r_squared": r2, "rate": b}
        assert (tmp_path / "fit.json").read_text() == json.dumps(want, indent=2) + "\n"

    def test_tails_performance_budget(self, tmp_path):
        import time

        start = time.monotonic()
        assert run([
            "hyperbolic-tails", "--samples", "100000", "--n-max", "60",
            "--c", "0.35", "--c-prime", "0.45", "--out", str(tmp_path),
        ]) == 0
        assert time.monotonic() - start < 60.0

    def test_bad_set_tails(self, tmp_path):
        assert run([
            "bad-set-tails", "--samples", "3000", "--n-max", "20",
            "--c", "0.35", "--c-prime", "0.45", "--out", str(tmp_path),
        ]) == 0
        lines = (tmp_path / "bad_set_tails.csv").read_text().splitlines()
        assert lines[0] == "n,survivors,total,fraction"
        assert len(lines) == 21

    def test_build_partition_artifacts(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "hyperbolic": {"c": 0.35, "c_prime": 0.45},
            "tower": {"n_max": 12, "seed_grid": 512},
        }))
        assert run(["build-partition", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "partition.csv").read_text().splitlines()
        assert lines[0] == "left,right,tau,branch_id"
        summary = json.loads((tmp_path / "partition_summary.json").read_text())
        assert summary["elements"] == len(lines) - 1
        assert summary["max_markov_residual"] <= 1e-9
        assert summary["dead_seeds"] == 0

    @pytest.mark.parametrize(
        "family, digests",
        [
            ("fixture", (
                "9c5d7af75cae01489e6e2502693a504f62340b4c46d9c82ef92fb9fb965cfc63",
                "fd492b6e2f93e008b8e4b7d1445042ffa3fa1fb078c0f4314480015c7f44332e",
            )),
            ("table", (
                "bd49d2674369fafb61bb190c6afe3bfae32b0db9b9347b98083b7bc66603aca0",
                "3da9c1a33f8f49686ae7d286a21ce4c1d2f3339e1433c00130ab99a0a64f82a6",
            )),
        ],
    )
    def test_deep_partition_is_byte_identical(self, tmp_path, family, digests):
        """The golden runs of `test_artifacts` build to n_max 10; these pin
        partition.csv and partition_summary.json at n_max 20, where refinement
        passes and Markov-residual rejections are many."""
        from test_artifacts import FAMILIES, SETTINGS

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SETTINGS, **FAMILIES[family]}))
        argv = ["build-partition", "--n-max", "20", "--config", str(cfg), "--out", str(tmp_path)]
        assert run(argv) == 0
        got = tuple(
            hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("partition.csv", "partition_summary.json")
        )
        assert got == digests

    def test_certify_tower_artifacts(self, tmp_path):
        assert run([
            "certify-tower", "--n-max", "12",
            "--c", "0.35", "--c-prime", "0.45", "--out", str(tmp_path),
        ]) == 0
        report = json.loads((tmp_path / "axioms.json").read_text())
        assert set(report["verdicts"]) == {
            "return_and_separation", "markov", "bounded_distortion",
            "weak_forward_expansion", "return_time_asymptotics", "aperiodicity",
        }
        assert report["verdicts"]["markov"]
        assert report["verdicts"]["aperiodicity"]
        assert report["min_return"] >= 1

    def test_table_family_commands(self, tmp_path):
        # Every subcommand that builds a family, on a tabulated one.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            **table_config(),
            "hyperbolic": {"c": 0.35, "c_prime": 0.45},
            "tower": {"n_max": 10, "seed_grid": 512},
            "measures": {"grid_m": 64, "m_past": 10, "n_max": 10, "direction": "both"},
        }))
        commands = [
            ["simulate-orbit", "--x0", "0.4", "--n", "50"],
            ["verify-family"],
            ["build-partition"],
            ["certify-tower"],
            ["density"],
            ["correlation"],
            ["hyperbolic-tails", "--samples", "2000", "--n-max", "20"],
        ]
        for args in commands:
            out = tmp_path / args[0]
            assert run([*args, "--config", str(cfg), "--out", str(out)]) == 0, args[0]
        report = json.loads((tmp_path / "certify-tower" / "axioms.json").read_text())
        assert report["verdicts"]["markov"]

    def test_manifest_contents(self, tmp_path):
        run(["simulate-orbit", "--x0", "0.4", "--n", "10", "--out", str(tmp_path)])
        manifest = json.loads((tmp_path / "manifest-simulate-orbit.json").read_text())
        assert manifest["command"] == "simulate-orbit"
        assert manifest["artifacts"] == ["orbit.csv"]
        assert len(manifest["config_hash"]) == 64
        assert "numpy" in manifest["versions"]
        assert "scipy" in manifest["versions"]


# Each config-backed flag: (command, flag, config key, value in a config file,
# value on the command line). @name stands for a path in the test's tmp_path.
COMMON_FLAGS = {
    "--seed": ("noise.seed", 3, 7),
    "--eps": ("noise.eps", 0.02, 0.03),
    "--delta": ("hyperbolic.delta", 0.02, 0.03),
    "--c": ("hyperbolic.c", 0.2, 0.25),
    "--c-prime": ("hyperbolic.c_prime", 0.5, 0.6),
    "--out": ("output.directory", "@file-out", "@flag-out"),
}
COMMAND_FLAGS = {
    "correlation": {
        "--phi": ("measures.phi", "square", "cos_pi"),
        "--psi": ("measures.psi", "abs", "indicator_right"),
        "--method": ("measures.method", "monte_carlo", "ulam"),
        "--direction": ("measures.direction", "backward", "both"),
        "--n-max": ("measures.n_max", 30, 12),
    },
    "density": {
        "--m-past": ("measures.m_past", 50, 9),
        "--grid": ("measures.grid_m", 128, 64),
    },
    "build-partition": {"--n-max": ("tower.n_max", 8, 6)},
    "certify-tower": {"--n-max": ("tower.n_max", 8, 6)},
}
FLAG_KEYS = [
    (command, flag, *spec)
    for command in cli.COMMANDS
    for flag, spec in {**COMMON_FLAGS, **COMMAND_FLAGS.get(command, {})}.items()
] + [("rerun", "--out", "output.directory", "@first", "@again")]
REQUIRED_ARGS = {"simulate-orbit": ORBIT[1:], "fit": ["--input", "absent.csv"]}


class TestConfigMerge:
    def test_flag_overrides_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"noise": {"seed": 7}}))
        a, b = tmp_path / "a", tmp_path / "b"
        run(["simulate-orbit", "--x0", "0.4", "--n", "10",
             "--config", str(cfg), "--out", str(a)])
        run(["simulate-orbit", "--x0", "0.4", "--n", "10",
             "--config", str(cfg), "--seed", "7", "--out", str(b)])
        assert (a / "orbit.csv").read_bytes() == (b / "orbit.csv").read_bytes()
        manifest = json.loads((a / "manifest-simulate-orbit.json").read_text())
        assert manifest["config"]["noise"]["seed"] == 7


    def test_each_config_flag_is_pinned(self):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        flags = {
            (name, action.option_strings[0], action.dest)
            for name, parser in sub.choices.items()
            for action in parser._actions
            if "." in action.dest
        }
        assert flags == {(command, flag, key) for command, flag, key, _, _ in FLAG_KEYS}

    @pytest.mark.parametrize(
        "command, flag, key, in_file, given", FLAG_KEYS,
        ids=[f"{command}{flag}" for command, flag, *_ in FLAG_KEYS],
    )
    def test_flag_sets_its_key_over_the_file(
        self, tmp_path, monkeypatch, command, flag, key, in_file, given
    ):
        # The command itself is not run: only the manifest shows which
        # config the flags resolved to.
        section, name = key.split(".")
        if key == "output.directory":
            in_file, given = _in(tmp_path, in_file), _in(tmp_path, given)
        runs = "density" if command == "rerun" else command
        monkeypatch.setitem(cli.COMMANDS, runs, lambda cfg, args: ({}, cli.EXIT_OK))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({section: {name: in_file}}))
        argv = [runs, *REQUIRED_ARGS.get(runs, []), "--config", str(cfg)]
        if command == "rerun":  # the manifest of a run stands in for the config file
            assert run(argv) == 0
            argv = ["rerun", "--manifest", f"{in_file}/manifest-{runs}.json"]
        out = Path(given) if flag == "--out" else tmp_path / "o"
        if flag != "--out":
            argv += ["--out", str(out)]
        assert run([*argv, flag, str(given)]) == 0
        manifest = json.loads((out / f"manifest-{runs}.json").read_text())
        assert manifest["config"][section][name] == given

    # The top level's and every subcommand's --help at 80 columns, as
    # printed when each subparser declared the shared flags itself.
    HELP = json.loads((Path(__file__).parent / "data" / "cli_help.json").read_text())

    @pytest.mark.parametrize("command", list(HELP), ids=lambda c: c or "rovella")
    def test_help_text_is_pinned(self, monkeypatch, capsys, command):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([command, "--help"] if command else ["--help"])
        assert capsys.readouterr().out == self.HELP[command]


def _python_with_src(code, *args):
    """Run `code` in a fresh interpreter that imports rovella from this
    checkout; its standard output, stripped."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_cli_import_leaves_scipy_submodules_unloaded(tmp_path):
    # scipy.sparse serves only the backward Ulam block product and the
    # scipy views of Ulam operators, and the manifest imports scipy for its
    # version when a command has run: importing the CLI and validating a
    # table config load no scipy module at all.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(table_config()))
    code = (
        "import sys, rovella.cli; rovella.cli.load_config(sys.argv[1]); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert _python_with_src(code, cfg) == "[]"


def test_table_commands_load_scipy_sparse_for_backward_block_only(tmp_path):
    """A table family's spline is built without scipy, and Ulam vectors are
    pushed in numpy: `density` and forward `correlation`, like the commands
    with no Ulam step, load no scipy subpackage (scipy.interpolate and
    scipy.sparse included). Backward `correlation`, whose block of started
    chains is a scipy product, loads scipy.sparse only. `import scipy`
    itself, which the manifest does, loads private modules and
    scipy.version."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        **table_config(),
        "hyperbolic": {"c": 0.35, "c_prime": 0.45},
        "measures": {"grid_m": 64, "m_past": 5, "n_max": 5, "direction": "forward"},
    }))
    code = textwrap.dedent("""
        import json, sys, rovella.cli
        cfg, out = sys.argv[1:]
        def run(*argv):
            assert rovella.cli.main([*argv, "--config", cfg, "--out", out]) == 0, argv
            names = {m.split(".")[1] for m in sys.modules if m.startswith("scipy.")}
            print(json.dumps(sorted(n for n in names if n[0] != "_" and n != "version")))
        run("verify-family")
        run("build-partition", "--n-max", "6")
        run("hyperbolic-tails", "--samples", "500", "--n-max", "10")
        run("density")
        run("correlation", "--direction", "forward")
        run("correlation", "--direction", "backward")
    """)
    loaded = [json.loads(line) for line in _python_with_src(code, cfg, tmp_path).splitlines()]
    assert loaded == [[], [], [], [], [], ["sparse"]]
