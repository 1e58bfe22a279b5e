import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qstego import cli
from qstego.experiments import RUNNERS

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def run_cli(args, cwd):
    # the child runs in cwd, where a relative PYTHONPATH entry such as "src"
    # no longer points at this checkout; put its absolute src first
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "qstego.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


class TestCli:
    def test_simulate_exits_zero_on_pass(self, tmp_path):
        cp = run_cli(
            [
                "simulate",
                "cc-noiseless",
                "--config",
                str(CONFIGS / "stego_cc_noiseless_exact.json"),
                "--out",
                str(tmp_path),
            ],
            cwd=tmp_path,
        )
        assert cp.returncode == 0, cp.stderr
        assert (tmp_path / "stego_cc_noiseless_exact.csv").exists()
        assert (tmp_path / "stego_cc_noiseless_exact_summary.json").exists()
        assert "bound_ok: pass" in cp.stdout

    def test_csv_only_flag(self, tmp_path):
        cp = run_cli(
            [
                "verify",
                "sutherland",
                "--config",
                str(CONFIGS / "sutherland_demo.json"),
                "--out",
                str(tmp_path),
                "--csv",
            ],
            cwd=tmp_path,
        )
        assert cp.returncode == 0, cp.stderr
        assert (tmp_path / "sutherland_demo.csv").exists()
        assert not (tmp_path / "sutherland_demo_summary.json").exists()

    def test_malformed_config_line_anchored(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n  "kind": "simulate/qc-cc",\n  "params": {,}\n}\n')
        cp = run_cli(
            ["simulate", "qc-cc", "--config", str(bad), "--out", str(tmp_path)],
            cwd=tmp_path,
        )
        assert cp.returncode == 2
        assert "bad.json:3:" in cp.stderr

    @pytest.mark.parametrize("key", ["samples", "m_dim"])
    def test_empty_random_code_exits_two(self, tmp_path, key):
        config = json.loads((CONFIGS / "random_code_demo.json").read_text())
        config["params"][key] = 0
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(config))
        cp = run_cli(["verify", "random-code", "--config", str(path), "--out", str(tmp_path)], cwd=tmp_path)
        assert cp.returncode == 2
        assert f"{path}: invalid config: bad parameter: {key} must be at least 1" in cp.stderr
        assert "Traceback" not in cp.stderr

    @pytest.mark.parametrize(
        "name, key, value, message",
        [
            ("gaussian_fig2", "zeta", 0, "zeta must be positive"),
            ("gaussian_fig2", "zeta", -0.5, "zeta must be positive"),
            ("resolvability_demo", "zeta_ref", 0, "zeta and xi must be in (0, 1)"),
            ("resolvability_demo", "seeds", 0, "seeds must be at least 1"),
            ("resolvability_demo", "mk_grid", [0], "mk_grid entries must be at least 1"),
            ("resolvability_demo", "mk_grid", [4, -2], "mk_grid entries must be at least 1"),
            ("gentle_demo", "instances", 0, "instances must be at least 1"),
            ("gentle_demo", "instances", -3, "instances must be at least 1"),
            ("gentle_demo", "dim_max", 1, "dim_max must be at least 2"),
            ("gentle_demo", "x_max", 1, "x_max must be at least 2"),
            ("gaussian_fig2", "nu0_grid", {"start": 1.0, "stop": 3.0, "num": 0}, "nu0_grid must be non-empty"),
            ("gaussian_fig2", "nu0_grid", {"start": 1.0, "stop": 1.0, "num": 2}, "nu0_grid must be non-empty and increasing"),
            ("gaussian_fig2", "nu0_grid", {"start": 3.0, "stop": 1.0, "num": 9}, "nu0_grid must be non-empty"),
            ("gaussian_fig2", "nu1_grid", {"start": 2.0, "stop": 2.0, "num": 3}, "nu1_grid must be non-empty and increasing"),
            ("resolvability_demo", "mk_grid", [], "mk_grid must be non-empty"),
            ("pj_bound_family", "family", [], "family must be non-empty"),
            ("stego_cc_noiseless_demo", "codewords", [], "no codewords"),
            ("stego_cc_noisy_demo", "codewords", [], "no codewords"),
            ("stego_cc_noiseless_demo", "m", {"kind": "foo"}, "unknown channel kind 'foo'"),
            ("stego_cc_noiseless_demo", "m", {"kind": "tensor", "factors": []}, "unknown channel kind 'tensor'"),
            ("stego_cc_noisy_demo", "zeta", 0, "zeta and xi must be in (0, 1)"),
            ("stego_cc_noisy_demo", "zeta", 1.5, "zeta and xi must be in (0, 1)"),
            ("stego_cc_noisy_demo", "xi", 1.0, "zeta and xi must be in (0, 1)"),
        ],
    )
    def test_bad_numeric_parameter_exits_two(self, tmp_path, name, key, value, message):
        config = json.loads((CONFIGS / f"{name}.json").read_text())
        config["params"][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        group, kind = config["kind"].split("/")
        cp = run_cli([group, kind, "--config", str(path), "--out", str(tmp_path)], cwd=tmp_path)
        assert cp.returncode == 2
        assert f"{path}: invalid config: bad parameter: {message}" in cp.stderr
        assert "Traceback" not in cp.stderr

    def test_kind_mismatch_rejected(self, tmp_path):
        cp = run_cli(
            [
                "simulate",
                "es-rs",
                "--config",
                str(CONFIGS / "stego_qc_cc_demo.json"),
                "--out",
                str(tmp_path),
            ],
            cwd=tmp_path,
        )
        assert cp.returncode == 2
        assert "does not match" in cp.stderr

    def test_seed_flag_reaches_summary(self, tmp_path):
        cp = run_cli(
            [
                "simulate",
                "qc-cc",
                "--config",
                str(CONFIGS / "stego_qc_cc_demo.json"),
                "--out",
                str(tmp_path),
                "--seed",
                "42",
            ],
            cwd=tmp_path,
        )
        assert cp.returncode == 0, cp.stderr
        payload = json.loads((tmp_path / "stego_qc_cc_demo_summary.json").read_text())
        assert payload["seed"] == 42

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            cp = run_cli(
                [
                    "simulate",
                    "cc-noisy",
                    "--config",
                    str(CONFIGS / "stego_cc_noisy_demo.json"),
                    "--out",
                    str(out),
                ],
                cwd=tmp_path,
            )
            assert cp.returncode == 0, cp.stderr
        assert (a / "stego_cc_noisy_demo.csv").read_bytes() == (
            b / "stego_cc_noisy_demo.csv"
        ).read_bytes()


class TestExitCodes:
    def test_failing_flag_exits_one(self, tmp_path):
        config = {
            "kind": "simulate/resolvability",
            "seed": 0,
            "params": {
                "pmf": [0.5, 0.5],
                "outputs": ["zero", "plus"],
                "mk_grid": [32, 2],
                "seeds": 10,
                "zeta_ref": 0.3,
            },
        }
        path = tmp_path / "bad_trend.json"
        path.write_text(json.dumps(config))
        cp = run_cli(
            ["simulate", "resolvability", "--config", str(path), "--out", str(tmp_path)],
            cwd=tmp_path,
        )
        assert cp.returncode == 1
        assert "medians_strictly_decreasing: FAIL" in cp.stdout

    def test_wrong_typed_parameter_exits_two(self, tmp_path):
        config = json.loads((CONFIGS / "stego_qc_cc_demo.json").read_text())
        config["params"]["mbar"] = [2]
        path = tmp_path / "bad_type.json"
        path.write_text(json.dumps(config))
        cp = run_cli(
            ["simulate", "qc-cc", "--config", str(path), "--out", str(tmp_path)],
            cwd=tmp_path,
        )
        assert cp.returncode == 2
        assert f"{path}: invalid config:" in cp.stderr
        assert "Traceback" not in cp.stderr

    def test_config_not_an_object_exits_two(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        cp = run_cli(["verify", "sutherland", "--config", str(path), "--out", str(tmp_path)], cwd=tmp_path)
        assert cp.returncode == 2
        assert cp.stderr == f"{path}:1:1: config must be a JSON object\n"

    def test_params_not_an_object_exits_two(self, tmp_path):
        config = json.loads((CONFIGS / "sutherland_demo.json").read_text())
        config["params"] = [1, 2]
        path = tmp_path / "params_list.json"
        path.write_text(json.dumps(config))
        cp = run_cli(["verify", "sutherland", "--config", str(path), "--out", str(tmp_path)], cwd=tmp_path)
        assert cp.returncode == 2
        assert f"{path}: invalid config: verify/sutherland params: must be a JSON object" in cp.stderr
        assert "Traceback" not in cp.stderr

    @pytest.mark.parametrize(
        "config_name, key",
        [("stego_cc_noiseless_demo.json", "atempts"), ("stego_cc_noisy_demo.json", "trials")],
        ids=["atempts", "trials"],
    )
    def test_unknown_parameter_exits_two(self, tmp_path, config_name, key):
        config = json.loads((CONFIGS / config_name).read_text())
        config["params"][key] = 3
        path = tmp_path / "unknown_key.json"
        path.write_text(json.dumps(config))
        cp = run_cli([*config["kind"].split("/"), "--config", str(path), "--out", str(tmp_path)], cwd=tmp_path)
        assert cp.returncode == 2
        assert repr(key) in cp.stderr

    @pytest.mark.parametrize(
        "config_name, edit, key",
        [
            ("stego_qc_cc_demo.json", lambda c: c["params"].pop("mbar"), "mbar"),
            ("gentle_demo.json", lambda c: c.update(parmas=c.pop("params")), "parmas"),
            ("stego_qc_cc_demo.json", lambda c: c["params"].update(seed=3), "seed"),
            (
                "stego_cc_noiseless_demo.json",
                lambda c: c["params"].update(m={"kind": "dephasing", "p": 0.6, "pwr": 2}),
                "pwr",
            ),
            ("stego_cc_noiseless_demo.json", lambda c: c["params"]["codewords"][0].update(fators=[]), "fators"),
            ("gaussian_fig2.json", lambda c: c["params"]["nu0_grid"].update(step=0.25), "step"),
            ("stego_es_rs_demo.json", lambda c: c["params"]["cover"].update(q=0.5), "q"),
            ("pj_bound_family.json", lambda c: c["params"]["family"][2].update(eps=0.1), "eps"),
            ("resolvability_demo.json", lambda c: c["params"].pop("zeta_ref"), "zeta_ref"),
        ],
        ids=[
            "missing-param",
            "unknown-top-level",
            "seed-in-params",
            "channel-spec",
            "state-spec",
            "grid-spec",
            "es-rs-cover",
            "pj-bound-point",
            "min-reliability-without-zeta-ref",
        ],
    )
    def test_bad_key_named_and_exits_two(self, tmp_path, config_name, edit, key):
        config = json.loads((CONFIGS / config_name).read_text())
        edit(config)
        path = tmp_path / "bad_key.json"
        path.write_text(json.dumps(config))
        cp = run_cli([*config["kind"].split("/"), "--config", str(path), "--out", str(tmp_path)], cwd=tmp_path)
        assert cp.returncode == 2
        assert f"{path}: invalid config:" in cp.stderr
        assert repr(key) in cp.stderr
        assert "Traceback" not in cp.stderr

    @pytest.mark.parametrize(
        "config, key, value",
        [
            (
                {
                    "kind": "rates/cc-noisy",
                    "params": {
                        "n_true": {"kind": "dephasing", "p": 0.2},
                        "m": {"kind": "dephasing", "p": 0.1},
                        "codewords": ["plus", "minus"],
                        "zeta": 0.1,
                        "xi": 0.1,
                    },
                },
                "nu_tols",
                [1e-6, 1e-8],
            ),
            ("resolvability_demo.json", "k", 1),
            ("stego_cc_es_demo.json", "mbar", 2),
            ("stego_cc_es_demo.json", "mcc", 1),
        ],
        ids=["nu_tols", "k", "mbar", "mcc"],
    )
    def test_constant_key_exits_two(self, tmp_path, capsys, config, key, value):
        # these keys had one value in use and are constants now: a config that
        # sets one, even to that value, is a config error naming it
        if isinstance(config, str):
            config = json.loads((CONFIGS / config).read_text())
        config = {**config, "params": {**config["params"], key: value}}
        path = tmp_path / "constant_key.json"
        path.write_text(json.dumps(config))
        assert cli.main([*config["kind"].split("/"), "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: invalid config: {config['kind']} params: got an unexpected keyword argument {key!r}" in err

    @pytest.mark.parametrize("power", [0, -3])
    @pytest.mark.parametrize("kind", ["simulate/cc-noiseless", "rates/cc-noiseless"])
    def test_channel_power_below_one_exits_two(self, tmp_path, capsys, kind, power):
        config = {
            "kind": kind,
            "params": {"m": {"kind": "dephasing", "p": 0.2, "power": power}, "codewords": ["plus", "minus"], "zeta": 0.5},
        }
        if kind == "simulate/cc-noiseless":
            config["params"]["mbar"] = 2
        path = tmp_path / "power.json"
        path.write_text(json.dumps(config))
        assert cli.main([*kind.split("/"), "--config", str(path), "--out", str(tmp_path)]) == 2
        assert f"{path}: invalid config: bad parameter: n must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config_name, edit, message",
        [
            (
                "stego_cc_noiseless_exact",
                lambda p: p.update(codewords=[{"kind": "named", "name": "zero"}]),
                "unknown state kind 'named'",
            ),
            (
                "stego_cc_noiseless_exact",
                lambda p: p.update(codewords=[{"kind": "pure", "amps": [[1, 0]]}]),
                "unknown state kind 'pure'",
            ),
            (
                "stego_cc_noiseless_exact",
                lambda p: p.update(codewords=[{"kind": "maximally_mixed", "dim": 2}]),
                "unknown state kind 'maximally_mixed'",
            ),
            (
                "stego_cc_noiseless_exact",
                lambda p: p.update(m={"kind": "tensor", "factors": []}),
                "unknown channel kind 'tensor'",
            ),
            (
                "stego_cc_noiseless_exact",
                lambda p: p.update(m={"kind": "unitary", "matrix": []}),
                "unknown channel kind 'unitary'",
            ),
            ("stego_es_rs_demo", lambda p: p.update(cover={"kind": "trivial"}), "unknown ES cover kind 'trivial'"),
        ],
        ids=["named", "pure", "maximally_mixed", "tensor", "unitary", "trivial"],
    )
    def test_deleted_spelling_exits_two_naming_its_kind(self, tmp_path, capsys, config_name, edit, message):
        config = json.loads((CONFIGS / f"{config_name}.json").read_text())
        edit(config["params"])
        path = tmp_path / "deleted.json"
        path.write_text(json.dumps(config))
        assert cli.main([*config["kind"].split("/"), "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: invalid config: " in err
        assert message in err

    def test_deleted_runner_exits_two_naming_its_kind(self, tmp_path):
        cp = run_cli(["rates", "product-noiseless", "--config", "any.json"], cwd=tmp_path)
        assert cp.returncode == 2
        assert "invalid choice: 'product-noiseless'" in cp.stderr

    def test_numerical_failure_exits_three(self, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        path = CONFIGS / "stego_qc_cc_demo.json"
        code = cli.main(["simulate", "qc-cc", "--config", str(path), "--out", str(tmp_path)])
        assert code == 3
        assert f"{path}: numerical failure: Eigenvalues did not converge" in capsys.readouterr().err

    def test_trace_norm_failure_exits_three(self, tmp_path, monkeypatch, capsys):
        # an eigensolver failure inside trace_norm alone reaches the CLI as a
        # numerical failure, not a traceback
        eigvalsh = np.linalg.eigvalsh
        failed = []

        def fail_in_trace_norm(*args, **kwargs):
            if sys._getframe(1).f_code.co_name == "trace_norm":
                failed.append(True)
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigvalsh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", fail_in_trace_norm)
        path = CONFIGS / "stego_cc_noiseless_demo.json"
        code = cli.main(["simulate", "cc-noiseless", "--config", str(path), "--out", str(tmp_path)])
        assert failed
        assert code == 3
        assert f"{path}: numerical failure: Eigenvalues did not converge" in capsys.readouterr().err


class TestReadme:
    def test_cli_block_lists_registry_kinds(self):
        # README's CLI block is the one hand-written list of experiment kinds
        block = (ROOT / "README.md").read_text().split("## CLI", 1)[1].split("```")[1]
        listed = [
            f"{group}/{kind}"
            for group, kinds in re.findall(r"^qstego (\S+)\s+\{([^}]*)\}", block, re.M)
            for kind in kinds.split(",")
        ]
        assert listed == list(RUNNERS)
