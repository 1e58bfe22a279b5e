import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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

    @pytest.mark.xfail(strict=True, reason="ROADMAP Direction 4: parameter schema")
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
