import copy
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qstego import cli, experiments
from qstego.experiments import RUNNERS

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
#: a rates/cc-noisy config (no shipped config runs this kind)
RATES_CC_NOISY = {
    "kind": "rates/cc-noisy",
    "params": {
        "n_true": {"kind": "dephasing", "p": 0.2},
        "m": {"kind": "dephasing", "p": 0.1},
        "codewords": ["plus", "minus"],
        "n": 1,
        "zeta": 0.1,
        "xi": 0.1,
    },
}


#: a cc-noiseless config over the identity channel, whose spec holds the one
#: "dim" (no shipped config runs the identity channel)
IDENTITY = {
    "kind": "simulate/cc-noiseless",
    "params": {"m": {"kind": "identity", "dim": 2}, "codewords": ["zero"], "n": 1, "mbar": 2, "zeta": 0.1},
}


def number_leaves(node, path=()):
    """(path, value) of every number in ``node``, under a key of a JSON object
    or an entry of a list."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        if isinstance(value, (dict, list)):
            yield from number_leaves(value, (*path, key))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield (*path, key), value


def write_json(path, config):
    """``config`` written to ``path`` as JSON; returns ``path``."""
    path.write_text(json.dumps(config))
    return path


def forbidden(*args, **kwargs):
    """A stand-in for a function that must not run."""
    raise AssertionError("a forbidden function ran")


def run_cli(args, cwd, interpreter=()):
    # the child runs in cwd, where a relative PYTHONPATH entry such as "src"
    # no longer points at this checkout; put its absolute src first
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *interpreter, "-m", "qstego.cli", *args],
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

    def test_json_only_flag(self, tmp_path):
        cp = run_cli(
            [
                "verify",
                "sutherland",
                "--config",
                str(CONFIGS / "sutherland_demo.json"),
                "--out",
                str(tmp_path),
                "--json",
            ],
            cwd=tmp_path,
        )
        assert cp.returncode == 0, cp.stderr
        assert not (tmp_path / "sutherland_demo.csv").exists()
        payload = json.loads((tmp_path / "sutherland_demo_summary.json").read_text())
        assert sorted(payload) == ["flags", "kind", "seed", "summary", "versions", "wall_time_s"]
        assert payload["kind"] == "verify/sutherland" and payload["flags"] == {"holds": True}

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
        path = write_json(tmp_path / "empty.json", config)
        cp = run_cli(["verify", "random-code", "--config", str(path), "--out", str(tmp_path)], cwd=tmp_path)
        assert cp.returncode == 2
        assert f"{path}: invalid config: bad parameter: {key} must be at least 1" in cp.stderr
        assert "Traceback" not in cp.stderr

    @pytest.mark.parametrize(
        "name, key, value, message",
        [
            ("gaussian_fig2", "zeta", 0, "zeta must be in (0, 2]"),
            ("gaussian_fig2", "zeta", -0.5, "zeta must be in (0, 2]"),
            ("resolvability_demo", "zeta_ref", 0, "zeta_ref must be in (0, 1)"),
            ("resolvability_demo", "seeds", 0, "seeds must be at least 1"),
            ("resolvability_demo", "mk_grid", [0], "mk_grid entries must be integers of at least 1"),
            ("resolvability_demo", "mk_grid", [4, -2], "mk_grid entries must be integers of at least 1"),
            ("gentle_demo", "instances", 0, "instances must be at least 1"),
            ("gentle_demo", "instances", -3, "instances must be at least 1"),
            ("gentle_demo", "dim_max", 1, "dim_max must be at least 2"),
            ("gentle_demo", "x_max", 1, "x_max must be at least 2"),
            ("gaussian_fig2", "nu0_grid", {"start": 1.0, "stop": 3.0, "num": 0}, "grid must be non-empty and increasing"),
            ("gaussian_fig2", "nu0_grid", {"start": 1.0, "stop": 1.0, "num": 2}, "grid must be non-empty and increasing"),
            ("gaussian_fig2", "nu0_grid", {"start": 3.0, "stop": 1.0, "num": 9}, "grid must be non-empty and increasing"),
            ("gaussian_fig2", "nu1_grid", {"start": 2.0, "stop": 2.0, "num": 3}, "grid must be non-empty and increasing"),
            ("resolvability_demo", "mk_grid", [], "mk_grid must be non-empty"),
            ("pj_bound_family", "family", [], "family must be non-empty"),
            ("stego_cc_noiseless_demo", "codewords", [], "codewords must be non-empty"),
            ("stego_cc_noisy_demo", "codewords", [], "codewords must be non-empty"),
            ("stego_cc_noiseless_demo", "m", {"kind": "foo"}, "unknown channel kind 'foo'"),
            ("stego_cc_noiseless_demo", "m", {"kind": "tensor", "factors": []}, "unknown channel kind 'tensor'"),
            ("stego_cc_noisy_demo", "zeta", 0, "zeta and xi must be in (0, 1)"),
            ("stego_cc_noisy_demo", "zeta", 1.5, "zeta and xi must be in (0, 1)"),
            ("stego_cc_noisy_demo", "xi", 1.0, "zeta and xi must be in (0, 1)"),
            # a trace distance is at most 2: above it the rate penalty changes sign
            ("gaussian_fig2", "zeta", 3.0, "zeta must be in (0, 2]"),
            ("stego_cc_es_demo", "zeta", 3.0, "zeta must be in (0, 2]"),
            ("stego_cc_noiseless_demo", "zeta", 5.0, "zeta must be in [0, 2]"),
            ("stego_cc_noiseless_demo", "m", {"kind": "identity", "dim": 0}, "dim must be at least 1"),
            ("stego_cc_noiseless_demo", "m", {"kind": "identity", "dim": -2}, "dim must be at least 1"),
            ("stego_cc_noiseless_demo", "codewords", [{"kind": "kron", "factors": []}], "factors must be non-empty"),
            # n counts the qubits m acts on: the demo's m is dephasing^(x2), the noisy demo's and the rates one's a qubit channel
            ("stego_cc_noiseless_demo", "n", 5, "n must satisfy 2**n == the input dimension of m"),
            ("stego_cc_noisy_demo", "n", 2, "n must satisfy 2**n == the input dimension of m"),
            (RATES_CC_NOISY, "n", 3, "n must satisfy 2**n == the input dimension of m"),
            # dim_a is the input dimension of the demo's qubit channel m
            ("random_code_demo", "dim_a", 3, "dim_a must equal the input dimension of m"),
            ("random_code_demo", "dim_a", 1, "dim_a must equal the input dimension of m"),
            ("random_code_demo", "m", {"kind": "identity", "dim": 4}, "dim_a must equal the input dimension of m"),
            # every list of a shipped config is read as a non-empty list
            ("resolvability_demo", "pmf", [], "pmf must be non-empty"),
            ("resolvability_demo", "outputs", [], "outputs must be non-empty"),
        ],
    )
    def test_bad_numeric_parameter_exits_two(self, tmp_path, name, key, value, message):
        config = copy.deepcopy(name) if isinstance(name, dict) else json.loads((CONFIGS / f"{name}.json").read_text())
        config["params"][key] = value
        path = write_json(tmp_path / "bad.json", config)
        group, kind = config["kind"].split("/")
        cp = run_cli([group, kind, "--config", str(path), "--out", str(tmp_path)], cwd=tmp_path)
        assert cp.returncode == 2
        assert f"{path}: invalid config: bad parameter: {message}" in cp.stderr
        assert "Traceback" not in cp.stderr

    @pytest.mark.parametrize(
        "name, key, value, message",
        [
            ("resolvability_demo", "mk_grid", [2, 8.5], "simulate/resolvability params: 'mk_grid' entry 1 must be an integer, got 8.5"),
            ("resolvability_demo", "mk_grid", [True, 8], "simulate/resolvability params: 'mk_grid' entry 0 must be an integer, got True"),
            ("resolvability_demo", "pmf", ["0.5", "0.5"], "simulate/resolvability params: 'pmf' entry 0 must be a number, got '0.5'"),
            ("resolvability_demo", "pmf", 1.0, "simulate/resolvability params: 'pmf' must be a list, got 1.0"),
            (
                "stego_cc_noiseless_demo",
                "codewords",
                [{"kind": "diag", "probs": [True, False, False, False]}],
                "diag state: 'probs' entry 0 must be a number, got True",
            ),
        ],
        ids=["mk_grid-fraction", "mk_grid-bool", "pmf-string", "pmf-not-a-list", "probs-bool"],
    )
    def test_wrong_typed_list_entry_exits_two(self, tmp_path, name, key, value, message):
        # each entry of a list of numbers is read by the scalar rule
        config = json.loads((CONFIGS / f"{name}.json").read_text())
        config["params"][key] = value
        path = write_json(tmp_path / "bad.json", config)
        group, kind = config["kind"].split("/")
        cp = run_cli([group, kind, "--config", str(path), "--out", str(tmp_path)], cwd=tmp_path)
        assert cp.returncode == 2
        assert f"{path}: invalid config: {message}" in cp.stderr
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

    @pytest.mark.parametrize(
        "name, flag, config_seed",
        [
            ("gentle_demo", -3, None),
            ("stego_cc_noiseless_demo", -3, None),
            ("gaussian_fig2", -3, None),
            ("gaussian_fig2", None, -1),
        ],
        ids=["gentle-flag", "cc-noiseless-flag", "gaussian-flag", "gaussian-config"],
    )
    def test_negative_seed_exits_two(self, tmp_path, name, flag, config_seed):
        config = json.loads((CONFIGS / f"{name}.json").read_text())
        if config_seed is not None:
            config["seed"] = config_seed
        path = write_json(tmp_path / f"{name}.json", config)
        args = [*config["kind"].split("/"), "--config", str(path), "--out", str(tmp_path)]
        cp = run_cli(args if flag is None else [*args, "--seed", str(flag)], cwd=tmp_path)
        assert cp.returncode == 2
        seed = config_seed if flag is None else flag
        assert cp.stderr == f"{path}: invalid config: config: 'seed' must be a non-negative integer, got {seed}\n"
        assert list(tmp_path.iterdir()) == [path]

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
                "min_reliability": 0.9,
            },
        }
        path = write_json(tmp_path / "bad_trend.json", config)
        cp = run_cli(
            ["simulate", "resolvability", "--config", str(path), "--out", str(tmp_path)],
            cwd=tmp_path,
        )
        assert cp.returncode == 1
        assert "medians_strictly_decreasing: FAIL" in cp.stdout

    def test_wrong_typed_parameter_exits_two(self, tmp_path):
        config = json.loads((CONFIGS / "stego_qc_cc_demo.json").read_text())
        config["params"]["mbar"] = [2]
        path = write_json(tmp_path / "bad_type.json", config)
        cp = run_cli(
            ["simulate", "qc-cc", "--config", str(path), "--out", str(tmp_path)],
            cwd=tmp_path,
        )
        assert cp.returncode == 2
        assert f"{path}: invalid config:" in cp.stderr
        assert "Traceback" not in cp.stderr

    def test_qc_cc_without_kl_weight_exits_two(self, tmp_path):
        # at p = 1 every Knill-Laflamme weight is 0; the cause is named before
        # P_J would divide by their sum, so no RuntimeWarning is raised
        config = json.loads((CONFIGS / "stego_qc_cc_demo.json").read_text())
        config["params"]["p"] = 1.0
        path = write_json(tmp_path / "no_weight.json", config)
        cp = run_cli(
            ["simulate", "qc-cc", "--config", str(path), "--out", str(tmp_path)],
            cwd=tmp_path,
            interpreter=("-W", "error::RuntimeWarning"),
        )
        assert cp.returncode == 2
        assert f"{path}: invalid config: bad parameter: every Knill-Laflamme weight is zero" in cp.stderr
        assert "Traceback" not in cp.stderr

    def test_pj_bound_without_kl_weight_exits_two(self, tmp_path):
        # at p = 1 every Knill-Laflamme weight is 0, and delta = 2.5 is not
        # vacuous, so P_J is formed; the cause is named before the division
        config = json.loads((CONFIGS / "pj_bound_family.json").read_text())
        config["params"]["family"] = [{"p": 1.0, "delta": 2.5}]
        path = write_json(tmp_path / "no_weight.json", config)
        cp = run_cli(
            ["verify", "pj-bound", "--config", str(path), "--out", str(tmp_path)],
            cwd=tmp_path,
            interpreter=("-W", "error::RuntimeWarning"),
        )
        assert cp.returncode == 2
        assert "bad parameter: every Knill-Laflamme weight is zero" in cp.stderr
        assert "eps must be" not in cp.stderr
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
        path = write_json(tmp_path / "params_list.json", config)
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
        path = write_json(tmp_path / "unknown_key.json", config)
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
            ("stego_qc_cc_demo.json", lambda c: c["params"].update(mbr=c["params"].pop("mbar")), "mbr"),
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
            "misspelled-required-key",
        ],
    )
    def test_bad_key_named_and_exits_two(self, tmp_path, config_name, edit, key):
        config = json.loads((CONFIGS / config_name).read_text())
        edit(config)
        path = write_json(tmp_path / "bad_key.json", config)
        cp = run_cli([*config["kind"].split("/"), "--config", str(path), "--out", str(tmp_path)], cwd=tmp_path)
        assert cp.returncode == 2
        assert f"{path}: invalid config:" in cp.stderr
        assert repr(key) in cp.stderr
        assert "Traceback" not in cp.stderr

    @pytest.mark.parametrize(
        "config, key, value",
        [
            (RATES_CC_NOISY, "nu_tols", [1e-6, 1e-8]),
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
        path = write_json(tmp_path / "constant_key.json", config)
        assert cli.main([*config["kind"].split("/"), "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: invalid config: {config['kind']} params: got an unexpected keyword argument {key!r}" in err

    @pytest.mark.parametrize(
        "config, key",
        [
            (RATES_CC_NOISY, "n"),
            ("gaussian_fig2.json", "nu0_grid"),
            ("gaussian_fig2.json", "nu1_grid"),
            ("stego_cc_noiseless_demo.json", "n"),
            ("stego_cc_noisy_demo.json", "n"),
            ("stego_es_rs_demo.json", "cover"),
            ("stego_es_rs_demo.json", "p"),
            ("stego_qc_cc_demo.json", "zeta"),
            ("stego_cc_es_demo.json", "p_block1"),
            ("resolvability_demo.json", "seeds"),
            ("resolvability_demo.json", "min_reliability"),
            ("gentle_demo.json", "instances"),
            ("gentle_demo.json", "dim_max"),
            ("gentle_demo.json", "x_max"),
            ("sutherland_demo.json", "delta"),
            ("random_code_demo.json", "delta"),
            ("stego_cc_noiseless_exact.json", "dim"),
        ],
        ids=lambda v: v if isinstance(v, str) else "rates_cc_noisy",
    )
    def test_missing_key_exits_two_naming_it(self, tmp_path, capsys, config, key):
        # every key of params is required: leaving one out is a config error naming it
        config = json.loads((CONFIGS / config).read_text() if isinstance(config, str) else json.dumps(config))
        params = config["params"]
        if key == "p":
            del params["cover"]["p"]
        elif key == "dim":
            params["m"] = {"kind": "identity"}
        else:
            del params[key]
        path = write_json(tmp_path / "missing_key.json", config)
        assert cli.main([*config["kind"].split("/"), "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: invalid config: " in err
        assert f"missing a required argument: {key!r}" in err

    @pytest.mark.parametrize(
        "config_name, edit, what",
        [
            ("gaussian_fig2", lambda p: p.update(nu0_grid=[1.0, 2.0]), "grid"),
            ("stego_cc_noiseless_demo", lambda p: p.update(m=["dephasing", 0.1]), "channel"),
            ("stego_cc_noiseless_demo", lambda p: p["codewords"].append(["plus"]), "state"),
            ("stego_es_rs_demo", lambda p: p.update(cover=["dephasing_demo", 0.5]), "ES cover"),
            ("pj_bound_family", lambda p: p["family"].append([0.1, 0.2]), "family point"),
        ],
        ids=["grid", "channel", "state", "es-cover", "family-point"],
    )
    def test_spec_not_an_object_exits_two(self, tmp_path, capsys, monkeypatch, config_name, edit, what):
        # the whole config is read before any work: a bad last family point is named before any bound
        monkeypatch.setattr(experiments, "verify_pj_minentropy_bound", forbidden)
        config = json.loads((CONFIGS / f"{config_name}.json").read_text())
        edit(config["params"])
        path = write_json(tmp_path / "spec_list.json", config)
        assert cli.main([*config["kind"].split("/"), "--config", str(path), "--out", str(tmp_path)]) == 2
        assert f"{path}: invalid config: {what}: must be a JSON object" in capsys.readouterr().err

    def test_zeta_ref_checked_before_any_code_is_built(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(experiments, "build_resolvability_codes", forbidden)
        config = json.loads((CONFIGS / "resolvability_demo.json").read_text())
        config["params"]["zeta_ref"] = 0
        path = write_json(tmp_path / "zeta_ref.json", config)
        assert cli.main(["simulate", "resolvability", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert f"{path}: invalid config: bad parameter: zeta_ref must be in (0, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("power", [0, -3])
    @pytest.mark.parametrize("kind", ["simulate/cc-noiseless", "rates/cc-noiseless"])
    def test_channel_power_below_one_exits_two(self, tmp_path, capsys, kind, power):
        config = {
            "kind": kind,
            "params": {"m": {"kind": "dephasing", "p": 0.2, "power": power}, "codewords": ["plus", "minus"], "zeta": 0.5},
        }
        if kind == "simulate/cc-noiseless":
            config["params"] |= {"mbar": 2, "n": 1}
        path = write_json(tmp_path / "power.json", config)
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
        path = write_json(tmp_path / "deleted.json", config)
        assert cli.main([*config["kind"].split("/"), "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: invalid config: " in err
        assert message in err

    def test_deleted_runner_exits_two_naming_its_kind(self, tmp_path):
        cp = run_cli(["rates", "product-noiseless", "--config", "any.json"], cwd=tmp_path)
        assert cp.returncode == 2
        assert "invalid choice: 'product-noiseless'" in cp.stderr

    @pytest.mark.parametrize("error", [IndexError, KeyError])
    def test_bug_exits_four_with_its_traceback(self, tmp_path, monkeypatch, capsys, error):
        # neither a config error nor a numerical failure: a bug, which exit 1 would report as a failed flag
        def broken(seed, p: float, delta: float):
            raise error("a bug")

        monkeypatch.setitem(RUNNERS, "verify/sutherland", broken)
        path = CONFIGS / "sutherland_demo.json"
        assert cli.main(["verify", "sutherland", "--config", str(path), "--out", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert "Traceback" in err and f"{error.__name__}: " in err

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


class TestNumberKeys:
    @pytest.mark.parametrize(
        "config",
        [*sorted(p.stem for p in CONFIGS.glob("*.json")), IDENTITY, RATES_CC_NOISY],
        ids=lambda c: c if isinstance(c, str) else c["params"]["m"]["kind"] + "-" + c["kind"].replace("/", "-"),
    )
    def test_wrong_typed_number_exits_two_naming_its_key(self, tmp_path, capsys, monkeypatch, config):
        # every number is read by the annotation of the parameter it fills: a
        # bool or a string in place of a number, or a fraction in place of an
        # integer, is a config error naming its key, caught before any
        # eigendecomposition, since the whole config is read before any work
        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        if isinstance(config, str):
            config = json.loads((CONFIGS / f"{config}.json").read_text())
        path = tmp_path / "wrong_type.json"
        leaves = list(number_leaves(config))
        assert leaves
        for keys, value in leaves:
            for bad in [True, "x", *([2.5] if isinstance(value, int) else [])]:
                mutant = copy.deepcopy(config)
                node = mutant
                for key in keys[:-1]:
                    node = node[key]
                node[keys[-1]] = bad
                write_json(path, mutant)
                code = cli.main([*config["kind"].split("/"), "--config", str(path), "--out", str(tmp_path)])
                err = capsys.readouterr().err
                # a list entry is named by the key of its list
                named = next(key for key in reversed(keys) if isinstance(key, str))
                assert code == 2, (keys, bad)
                assert f"{path}: invalid config: " in err and repr(named) in err, (keys, bad, err)


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
