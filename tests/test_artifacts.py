"""Golden artifacts: the SHA-256 of every non-manifest artifact of a small run
of each CLI command, on the fixture and on a tabulated family. A refactor
keeps these bytes; a change to them is a change of results."""

import hashlib
import json

import numpy as np
import pytest

from rovella import cli

RUNS = {  # output directory -> argv; `fit` reads `@correlation/`
    "simulate-orbit": ["simulate-orbit", "--x0", "0.4", "--n", "200"],
    "verify-family": ["verify-family"],
    "hyperbolic-tails": ["hyperbolic-tails", "--samples", "2000", "--n-max", "20"],
    "bad-set-tails": ["bad-set-tails", "--samples", "2000", "--n-max", "20"],
    # 20,001 rows exceed the 20,000-row chunk: two chunks, and a thread pool.
    "hyperbolic-tails-2chunks": [
        "hyperbolic-tails", "--samples", "20001", "--n-max", "20", "--workers", "2"
    ],
    "bad-set-tails-2chunks": ["bad-set-tails", "--samples", "20001", "--n-max", "20"],
    "build-partition": ["build-partition"],
    "certify-tower": ["certify-tower"],
    "density": ["density"],
    "correlation": ["correlation"],
    "correlation-mc": ["correlation", "--method", "monte_carlo", "--direction", "both"],
    "fit": ["fit", "--input", "@correlation/correlation.csv", "--burn-in", "5"],
}

SETTINGS = {
    "hyperbolic": {"c": 0.35, "c_prime": 0.45},
    "tower": {"n_max": 10, "seed_grid": 512},
    "measures": {"grid_m": 512, "m_past": 20, "n_max": 20, "direction": "both"},
}


def _table_family() -> dict:
    """200 nodes of 2x^2 - 1 on [1e-6, 1], mirrored for the negative branch."""
    xs = np.linspace(1e-6, 1.0, 200)
    return {
        "kind": "table", "s": 2.0, "K1": 3.0, "K2": 4.5, "eps_max": 0.1,
        "pos": {"x": xs.tolist(), "y": (2 * xs**2 - 1).tolist()},
        "neg": {"x": (-xs[::-1]).tolist(), "y": (-(2 * xs[::-1] ** 2 - 1)).tolist()},
    }


FAMILIES = {"fixture": {}, "table": {"family": _table_family()}}

GOLDEN = {
    "fixture": {
        "simulate-orbit/orbit.csv":
            "99a61c7f93620e3f6da7d533226d7282dc6fb6ec750134420816183667873fd2",
        "verify-family/family_report.json":
            "f3f1ecc7781866f1a4ac7c7eab001f889c6a95f24f54219c8945838b1f147029",
        "hyperbolic-tails/hyperbolic_return_tails.csv":
            "ec0896ac5cf9534f62dd92a3eaaffd7df3afe33ccd8a5a7b740fcf8e991a38eb",
        "hyperbolic-tails/hyperbolic_tails.csv":
            "51fcfb4f1ad1713233a8c7018a810199047b984ad4bd1306982d87f5ccfe0e1b",
        "hyperbolic-tails/hyperbolic_tails_fits.json":
            "17c660d8ac26b41ce910cd3428d0dc5b847997a2b41eb4aced999e55103a158f",
        "bad-set-tails/bad_set_tails.csv":
            "1e9120edf277d32ba61fdce09c39ab8b0a60b6ee8c79e7638de19d09a8e04d91",
        "bad-set-tails/bad_set_tails_fit.json":
            "c014a10b0fcf057ae5703b860811d6e1ab55367accbafc642c3311a97cd32c7a",
        "hyperbolic-tails-2chunks/hyperbolic_return_tails.csv":
            "bd9205516a14309487c71685e511a334c65dab03eea8ec8e5c411bb11a49221c",
        "hyperbolic-tails-2chunks/hyperbolic_tails.csv":
            "2dd6ae3fbe810f3244e251883d6e971faed058707a10b10571fcd60d93a1e2d7",
        "hyperbolic-tails-2chunks/hyperbolic_tails_fits.json":
            "989033b4f37f481c84cfee7fd2907e6ba6c4b4a7076d896ad08425347f2ae05b",
        "bad-set-tails-2chunks/bad_set_tails.csv":
            "b2dc1265b2204c856ebfbd41be84e28e59e9e192dd491fca2803b38f8231ee70",
        "bad-set-tails-2chunks/bad_set_tails_fit.json":
            "1e7117ab94addb4c9d8c2c0788ca959edc79925dfda4f19d37d4f4af374d8ff0",
        "build-partition/partition.csv":
            "74d3d381b12627395e7f774952328dc02728c7446a03a5e4cc646438a5c4e785",
        "build-partition/partition_summary.json":
            "edd509cbda707b23ee0e4a01e57e1da8a9b762025a10f870a71b3a1c326cd69c",
        "certify-tower/axioms.json":
            "3f3ecf6ba70c33ef5a25823bf0e8dea6f212f681a42c99a38b64963e1f177227",
        "density/density.csv":
            "88588754a7ac6418deaa337e57ecd05c26716d364a6cbb0ed314340a3ab9c052",
        "correlation/correlation.csv":
            "fd2bf2b44c1dbeaaa4c24de6e5f4ff26dcf821ebb4d84d628c22ae9ebb4dc804",
        "correlation/correlation_fit.json":
            "016c1595fdac4257d97d8a16bd860dddf7e1b63fa4e77b56f91f79c56f56facd",
        "correlation-mc/correlation.csv":
            "32347865b090b2da89500dbf25dc31fe1e480ca5404b249518139861cf6ceb26",
        "correlation-mc/correlation_fit.json":
            "0c9fb1eb9ae6e1921a3d2a3d9849a45beed63fdf615401976b4764dbf9daa961",
        "fit/fit.json":
            "e1b5be1c3107578f2642c49f4f6d8173b593f95d0935baa98d7a2ccb5feb5008",
    },
    "table": {
        "simulate-orbit/orbit.csv":
            "839902a8bb9a1e7a7958fddc57bbcc786aee0a4e805844f2daee3c2f4c92bd29",
        "verify-family/family_report.json":
            "435c918d2f7caac5bc5788217027c9613e22c98563400fdc2c8a99a91b4b6907",
        "hyperbolic-tails/hyperbolic_return_tails.csv":
            "035c42f2e7703116f47d8a544854a62f7ea2ea8271ba0cd047c7c004830af239",
        "hyperbolic-tails/hyperbolic_tails.csv":
            "79841dfabf07154dba047daa8d3cb69b0017602b865a3a397bca60ff633a603b",
        "hyperbolic-tails/hyperbolic_tails_fits.json":
            "611092a16628f7beb3f6e0edce950d5a9db06c794caeca21a05ce16fe19413c7",
        "bad-set-tails/bad_set_tails.csv":
            "1421d1b918b32a2f792f8c11c6e73dea9b052f65bb82927646b1829942c3758d",
        "bad-set-tails/bad_set_tails_fit.json":
            "7a77390257c744cd7029a19c1c7c074cae86363e4baead26cac39a005994e805",
        "hyperbolic-tails-2chunks/hyperbolic_return_tails.csv":
            "3a0eb3e2beb9947d9abfecfd17cef67e80074948a38f2bbdc50ec80b7dc356ac",
        "hyperbolic-tails-2chunks/hyperbolic_tails.csv":
            "b9393f4fbb80e4854ad17b7d1ced0769d0ee790ef2ec75d63378470195316cfe",
        "hyperbolic-tails-2chunks/hyperbolic_tails_fits.json":
            "676e16575854cf83ea68f7ed803a2261cbf9285d541aebae030a7099b846cafa",
        "bad-set-tails-2chunks/bad_set_tails.csv":
            "57a59d149b44557e68bde9745e0ed0b8e960af3d7525e06a1cae8e2bb5a4addf",
        "bad-set-tails-2chunks/bad_set_tails_fit.json":
            "9ef4fffe2ed0423898c83828b458f930a213baad50f4c9636bcbb31363cdfc89",
        "build-partition/partition.csv":
            "0828f5dde0098d84c4af02eb6a86da4c358925fa26a095e2ef8fd05b68f45bd4",
        "build-partition/partition_summary.json":
            "d0846b984f17d894c983b51efe38cce7045694845e8ea9bd160ab9feeb590e7e",
        "certify-tower/axioms.json":
            "3be70a0970225e4f461672e3d471c903858be4b39ab0f6cb45e7912ddc4ec445",
        "density/density.csv":
            "d53d625e608fbc37697d03e4498b9315b8bc543a3cdbfa409917888f9f87dfb8",
        "correlation/correlation.csv":
            "3083902d261faf81a048f7fed08cbd5c1a2d144f8dd6b13ecfb1151aabc3d1fb",
        "correlation/correlation_fit.json":
            "6931febefedc98f2e9e0b0358cb6cec868b88961fc519ddbcf9580f325946e84",
        "correlation-mc/correlation.csv":
            "b6f2937a25db9f5da0b9a96145a69928acfeb88a1a0a5b30007207fe2637df35",
        "correlation-mc/correlation_fit.json":
            "ea1cbbcb7854a66352f937514b36f60d185f47e4dd750a982ff32ae33ff2c79b",
        "fit/fit.json":
            "ceeb56b2f392b8b0a1f9fa1f3b6b9ccd1dc1be9c6209fd8a66badbfb91256121",
    },
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_artifacts_are_byte_identical(tmp_path, family):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**SETTINGS, **FAMILIES[family]}))
    digests = {}
    for name, argv in RUNS.items():
        out = tmp_path / name
        argv = [a.replace("@", f"{tmp_path}/") for a in argv]
        assert cli.main([*argv, "--config", str(config), "--out", str(out)]) == 0, name
        for path in sorted(out.iterdir()):
            if not path.name.startswith("manifest-"):
                digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    changed = sorted(k for k in digests.keys() | GOLDEN[family].keys()
                     if digests.get(k) != GOLDEN[family].get(k))
    assert not changed, (
        f"artifacts of the {family} runs changed: {changed}. A change of results must be "
        "a declared correctness fix: say what changed and why in CHANGES.md, then update "
        f"GOLDEN. New digests: { {k: digests.get(k) for k in changed} }"
    )


@pytest.mark.parametrize("name", list(RUNS))
def test_commands_return_their_artifacts(tmp_path, name):
    """Each command returns its artifacts, named as the files of its golden
    run, and writes nothing itself: its output directory is never made."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SETTINGS))
    if name == "fit":
        source = tmp_path / "correlation"
        assert cli.main(["correlation", "--config", str(config), "--out", str(source)]) == 0
    args = cli.build_parser().parse_args([a.replace("@", f"{tmp_path}/") for a in RUNS[name]])
    out = tmp_path / "unmade" / name
    cfg = cli.load_config(str(config), {**cli._overrides(args), "output": {"directory": str(out)}})
    artifacts, code = cli.COMMANDS[args.command](cfg, args)
    assert code == cli.EXIT_OK
    assert not (tmp_path / "unmade").exists()
    golden = sorted(k.split("/")[1] for k in GOLDEN["fixture"] if k.startswith(f"{name}/"))
    assert sorted(artifacts) == golden
    for file_name, content in artifacts.items():  # (header, rows) for a CSV, a payload for JSON
        assert isinstance(content, tuple if file_name.endswith(".csv") else dict), file_name
