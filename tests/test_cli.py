import copy
import inspect
import json
import math
import os
import re
import subprocess
import sys
import warnings
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from qstego import cli, experiments
from qstego.experiments import RUNNERS
from qstego.fixtures import repetition_qc_cover
from qstego.protocols.verifiers import verify_pj_minentropy_bound
from tests.test_experiments import entries, number_annotation, specs

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
#: the configs every mutant of which ``TestNumberKeys`` runs
WALKED = [*sorted(p.stem for p in CONFIGS.glob("*.json")), IDENTITY, RATES_CC_NOISY]
WALKED_IDS = [c if isinstance(c, str) else c["params"]["m"]["kind"] + "-" + c["kind"].replace("/", "-") for c in WALKED]


#: id -> (config, params key, its bad value, the message naming it).  A row
#: that predates the explicit ids keeps the name pytest first collected it
#: under (with "value<i>" for its place then), so editing a row renames no test
BAD_VALUES = {
    "gaussian_fig2-zeta-0-zeta must be in (0, 2]": ("gaussian_fig2", "zeta", 0, "'zeta' must be a number in (0, 2], got 0"),
    "gaussian_fig2-zeta--0.5-zeta must be in (0, 2]": ("gaussian_fig2", "zeta", -0.5, "'zeta' must be a number in (0, 2], got -0.5"),
    "resolvability_demo-zeta_ref-0-zeta_ref must be in (0, 1)": ("resolvability_demo", "zeta_ref", 0, "'zeta_ref' must be a number in (0, 1), got 0"),
    "resolvability_demo-seeds-0-seeds must be at least 1": ("resolvability_demo", "seeds", 0, "'seeds' must be an integer >= 1, got 0"),
    "resolvability_demo-mk_grid-value4-mk_grid entries must be integers of at least 1": (
        "resolvability_demo", "mk_grid", [0], "'mk_grid' entry 0 must be an integer >= 1, got 0"
    ),
    "resolvability_demo-mk_grid-value5-mk_grid entries must be integers of at least 1": (
        "resolvability_demo", "mk_grid", [4, -2], "'mk_grid' entry 1 must be an integer >= 1, got -2"
    ),
    "gentle_demo-instances-0-instances must be at least 1": ("gentle_demo", "instances", 0, "'instances' must be an integer >= 1, got 0"),
    "gentle_demo-instances--3-instances must be at least 1": ("gentle_demo", "instances", -3, "'instances' must be an integer >= 1, got -3"),
    "gentle_demo-dim_max-1-dim_max must be at least 2": ("gentle_demo", "dim_max", 1, "'dim_max' must be an integer >= 2, got 1"),
    "gentle_demo-x_max-1-x_max must be at least 2": ("gentle_demo", "x_max", 1, "'x_max' must be an integer >= 2, got 1"),
    "gaussian_fig2-nu0_grid-value10-grid must be non-empty and increasing": (
        "gaussian_fig2", "nu0_grid", {"start": 1.0, "stop": 3.0, "num": 0}, "'nu0_grid': grid: 'num' must be an integer >= 1, got 0"
    ),
    # a grid's points must increase: a relation of start, stop and num
    "gaussian_fig2-nu0_grid-value11-grid must be non-empty and increasing": (
        "gaussian_fig2", "nu0_grid", {"start": 1.0, "stop": 1.0, "num": 2}, "'nu0_grid': bad parameter: grid must be increasing"
    ),
    "gaussian_fig2-nu0_grid-value12-grid must be non-empty and increasing": (
        "gaussian_fig2", "nu0_grid", {"start": 3.0, "stop": 1.0, "num": 9}, "'nu0_grid': bad parameter: grid must be increasing"
    ),
    "gaussian_fig2-nu1_grid-value13-grid must be non-empty and increasing": (
        "gaussian_fig2", "nu1_grid", {"start": 2.0, "stop": 2.0, "num": 3}, "'nu1_grid': bad parameter: grid must be increasing"
    ),
    "resolvability_demo-mk_grid-value14-mk_grid must be non-empty": ("resolvability_demo", "mk_grid", [], "'mk_grid' must be non-empty"),
    "pj_bound_family-family-value15-family must be non-empty": ("pj_bound_family", "family", [], "'family' must be non-empty"),
    "stego_cc_noiseless_demo-codewords-value16-codewords must be non-empty": (
        "stego_cc_noiseless_demo", "codewords", [], "'codewords' must be non-empty"
    ),
    "stego_cc_noisy_demo-codewords-value17-codewords must be non-empty": ("stego_cc_noisy_demo", "codewords", [], "'codewords' must be non-empty"),
    "stego_cc_noiseless_demo-m-value18-unknown channel kind 'foo'": (
        "stego_cc_noiseless_demo", "m", {"kind": "foo"}, "'m': bad parameter: unknown channel kind 'foo'"
    ),
    "stego_cc_noiseless_demo-m-value19-unknown channel kind 'tensor'": (
        "stego_cc_noiseless_demo", "m", {"kind": "tensor", "factors": []}, "'m': bad parameter: unknown channel kind 'tensor'"
    ),
    "stego_cc_noisy_demo-zeta-0-zeta and xi must be in (0, 1)": ("stego_cc_noisy_demo", "zeta", 0, "'zeta' must be a number in (0, 1), got 0"),
    "stego_cc_noisy_demo-zeta-1.5-zeta and xi must be in (0, 1)": ("stego_cc_noisy_demo", "zeta", 1.5, "'zeta' must be a number in (0, 1), got 1.5"),
    "stego_cc_noisy_demo-xi-1.0-zeta and xi must be in (0, 1)": ("stego_cc_noisy_demo", "xi", 1.0, "'xi' must be a number in (0, 1), got 1.0"),
    # a trace distance is at most 2: above it the rate penalty changes sign
    "gaussian_fig2-zeta-3.0-zeta must be in (0, 2]": ("gaussian_fig2", "zeta", 3.0, "'zeta' must be a number in (0, 2], got 3.0"),
    "stego_cc_es_demo-zeta-3.0-zeta must be in (0, 2]": ("stego_cc_es_demo", "zeta", 3.0, "'zeta' must be a number in (0, 2], got 3.0"),
    "stego_cc_noiseless_demo-zeta-5.0-zeta must be in [0, 2]": ("stego_cc_noiseless_demo", "zeta", 5.0, "'zeta' must be a number in [0, 2], got 5.0"),
    "stego_cc_noiseless_demo-m-value26-dim must be at least 1": (
        "stego_cc_noiseless_demo", "m", {"kind": "identity", "dim": 0}, "'m': identity channel: 'dim' must be an integer >= 1, got 0"
    ),
    "stego_cc_noiseless_demo-m-value27-dim must be at least 1": (
        "stego_cc_noiseless_demo", "m", {"kind": "identity", "dim": -2}, "'m': identity channel: 'dim' must be an integer >= 1, got -2"
    ),
    "stego_cc_noiseless_demo-codewords-value28-factors must be non-empty": (
        "stego_cc_noiseless_demo", "codewords", [{"kind": "kron", "factors": []}], "'codewords' entry 0: kron state: 'factors' must be non-empty"
    ),
    # n counts the qubits m acts on: the demo's m is dephasing^(x2), the noisy demo's and the rates one's a qubit channel
    "stego_cc_noiseless_demo-n-5-n must satisfy 2**n == the input dimension of m": (
        "stego_cc_noiseless_demo", "n", 5, "bad parameter: n must satisfy 2**n == the input dimension of m"
    ),
    "stego_cc_noisy_demo-n-2-n must satisfy 2**n == the input dimension of m": (
        "stego_cc_noisy_demo", "n", 2, "bad parameter: n must satisfy 2**n == the input dimension of m"
    ),
    "name31-n-3-n must satisfy 2**n == the input dimension of m": (
        RATES_CC_NOISY, "n", 3, "bad parameter: n must satisfy 2**n == the input dimension of m"
    ),
    # dim_a is the input dimension of the demo's qubit channel m
    "random_code_demo-dim_a-3-dim_a must equal the input dimension of m": (
        "random_code_demo", "dim_a", 3, "bad parameter: dim_a must equal the input dimension of m"
    ),
    "random_code_demo-dim_a-1-dim_a must equal the input dimension of m": (
        "random_code_demo", "dim_a", 1, "bad parameter: dim_a must equal the input dimension of m"
    ),
    "random_code_demo-m-value34-dim_a must equal the input dimension of m": (
        "random_code_demo", "m", {"kind": "identity", "dim": 4}, "bad parameter: dim_a must equal the input dimension of m"
    ),
    "resolvability_demo-pmf-value35-pmf must be non-empty": ("resolvability_demo", "pmf", [], "'pmf' must be non-empty"),
    "resolvability_demo-outputs-value36-outputs must be non-empty": ("resolvability_demo", "outputs", [], "'outputs' must be non-empty"),
    "gaussian_fig2-r": ("gaussian_fig2", "r", 1000001, "bad parameter: need 0 <= r <= n"),
    # a reader's own error names the path of the value it read
    "stego_cc_noiseless_exact-codewords": (
        "stego_cc_noiseless_exact", "codewords", [{"kind": "diag", "probs": [0.6, 0.5]}], "'codewords' entry 0: invalid state: trace not 1"
    ),
    "resolvability_demo-pmf": ("resolvability_demo", "pmf", [0.6, 0.5], "'pmf': invalid PMF"),
    "pj_bound_family-family": (
        "pj_bound_family", "family", [{"p": 0.1, "delta": 0.2}, {"p": 3.0, "delta": 0.2}],
        "'family' entry 1: family point: 'p' must be a number in [0, 1], got 3.0",
    ),
    # the smoothing of the min-entropy needs delta in [0, 1): the point names it, not the library's eps
    "pj_bound_family-family-delta": (
        "pj_bound_family", "family", [{"p": 0.1, "delta": 0.2}, {"p": 0.1, "delta": 1.0}],
        "'family' entry 1: family point: 'delta' must be a number in [0, 1), got 1.0",
    ),
    # JSON has no NaN or infinity, which json.loads takes unless told not to
    "sutherland_demo-delta-NaN": ("sutherland_demo", "delta", math.nan, "non-finite number NaN"),
    "sutherland_demo-delta-Infinity": ("sutherland_demo", "delta", math.inf, "non-finite number Infinity"),
    "random_code_demo-delta--Infinity": ("random_code_demo", "delta", -math.inf, "non-finite number -Infinity"),
    # a float cannot hold a 401-digit integer
    "sutherland_demo-delta-401-digit-integer": (
        "sutherland_demo", "delta", 10**400, "verify/sutherland params: 'delta' must be a number within the float range, got 1000"
    ),
}


#: the value a mutant at a key deletes it with
DELETE = object()


def shown(lo, lo_open, hi, hi_open):
    """A range as an error message names it: "in (0, 2]", or ">= 1" when unbounded above."""
    if hi == math.inf:
        return f"{'>' if lo_open else '>='} {lo}"
    return f"in {'(' if lo_open else '['}{lo}, {hi}{')' if hi_open else ']'}"


def outside(name, bounds):
    """A value just outside each finite bound of a number of type ``name``."""
    lo, lo_open, hi, hi_open = bounds
    for bound, is_open, away in [(lo, lo_open, -1), (hi, hi_open, 1)]:
        if math.isfinite(bound):
            yield bound if is_open else bound + away if name == "int" else math.nextafter(bound, away * math.inf)


def mutants(config):
    """(path, value, what the message holds, wrong-typed): ``config`` with
    the value at ``path`` set to ``value`` (deleted for DELETE) is a config
    error.  At every spec of the config: each required key deleted, an
    unknown key added, the spec a JSON list, every list emptied, every number
    wrong-typed and each finite bound of its range overstepped."""
    for path, reader, spec in specs(config):
        params = inspect.signature(reader).parameters
        if path:  # the CLI reads the top level first, and takes its kind from the command
            yield path, [1], (f"{path[-1]!r}: " if path[-1] != "params" else "params: ", "must be a JSON object"), False
        yield (*path, "bogus"), 1, ("got an unexpected keyword argument 'bogus'",), False
        for key, value in spec.items():
            param = params.get(key)
            if path and (param is None or param.default is param.empty):
                yield (*path, key), DELETE, (f"missing a required argument: {key!r}",), False
            if isinstance(value, list):
                yield (*path, key), [], (f"{key!r} must be non-empty",), False
            name, bounds = experiments._range(param.annotation.removeprefix("list[").removesuffix("]") if param else None)
            for at, number in entries(value):
                if isinstance(number, (int, float)) and not isinstance(number, bool):
                    for bad in [True, "x", *([2.5] if isinstance(number, int) else [])]:
                        yield (*path, key, *at), bad, (repr(key), f"got {bad!r}"), True
                    for bad in outside(name, bounds) if bounds else []:
                        range_error = f"must be {experiments.READERS[name][0]} {shown(*bounds)}, got {bad!r}"
                        yield (*path, key, *at), bad, (repr(key), range_error), False


def write_json(path, config):
    """``config`` written to ``path`` as JSON; returns ``path``."""
    path.write_text(json.dumps(config))
    return path


def load(config):
    """A fresh copy of a shipped config, by name, or of a config dict."""
    return json.loads((CONFIGS / f"{config}.json").read_text()) if isinstance(config, str) else copy.deepcopy(config)


def config_error(tmp_path, capsys, config):
    """The message with which ``cli.main`` rejects ``config``, written to a
    file: it must exit 2 with "<path>: invalid config: " and no traceback."""
    path = write_json(tmp_path / "bad.json", config)
    code = cli.main([*config["kind"].split("/"), "--config", str(path), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith(f"{path}: invalid config: ") and "Traceback" not in err, err
    return err.removeprefix(f"{path}: invalid config: ")


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

    @pytest.mark.parametrize("key", ["samples", "m_dim"], ids=["samples", "m_dim"])
    def test_empty_random_code_exits_two(self, tmp_path, capsys, key):
        config = load("random_code_demo")
        config["params"][key] = 0
        assert config_error(tmp_path, capsys, config) == f"verify/random-code params: {key!r} must be an integer >= 1, got 0\n"

    @pytest.mark.parametrize("name, key, value, message", BAD_VALUES.values(), ids=BAD_VALUES)
    def test_bad_numeric_parameter_exits_two(self, tmp_path, capsys, name, key, value, message):
        config = load(name)
        config["params"][key] = value
        assert message in config_error(tmp_path, capsys, config)

    @pytest.mark.parametrize("literal", ["1e400", "-1e400"])
    def test_number_beyond_the_largest_float_exits_two(self, tmp_path, capsys, literal):
        # json.loads reads 1e400 as an infinity; json.dumps would write Infinity, so the text is edited
        path = tmp_path / "big.json"
        path.write_text((CONFIGS / "sutherland_demo.json").read_text().replace('"delta": 0.5', f'"delta": {literal}'))
        assert cli.main(["verify", "sutherland", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"{path}: invalid config: non-finite number {literal}\n"
        assert list(tmp_path.iterdir()) == [path]

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
                "simulate/cc-noiseless params: 'codewords' entry 0: diag state: 'probs' entry 0 must be a number, got True",
            ),
        ],
        ids=["mk_grid-fraction", "mk_grid-bool", "pmf-string", "pmf-not-a-list", "probs-bool"],
    )
    def test_wrong_typed_list_entry_exits_two(self, tmp_path, capsys, name, key, value, message):
        # each entry of a list of numbers is read by the scalar rule
        config = load(name)
        config["params"][key] = value
        assert config_error(tmp_path, capsys, config) == f"{message}\n"

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
        assert cp.stderr == f"{path}: invalid config: config: 'seed' must be an integer >= 0, got {seed}\n"
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

    def test_wrong_typed_parameter_exits_two(self, tmp_path, capsys):
        config = load("stego_qc_cc_demo")
        config["params"]["mbar"] = [2]
        assert config_error(tmp_path, capsys, config) == "simulate/qc-cc params: 'mbar' must be an integer, got [2]\n"

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
        # at p = 1 every Knill-Laflamme weight is 0 and the cover's eps is 1,
        # so only a delta above 2 is not vacuous, but the smoothing takes delta
        # in [0, 1): the config names the point's key, and the library, given
        # delta = 2.5, forms P_J and names the cause before the division
        config = json.loads((CONFIGS / "pj_bound_family.json").read_text())
        config["params"]["family"] = [{"p": 1.0, "delta": 2.5}]
        path = write_json(tmp_path / "no_weight.json", config)
        cp = run_cli(
            ["verify", "pj-bound", "--config", str(path), "--out", str(tmp_path)],
            cwd=tmp_path,
            interpreter=("-W", "error::RuntimeWarning"),
        )
        assert cp.returncode == 2
        assert "'family' entry 0: family point: 'delta' must be a number in [0, 1), got 2.5" in cp.stderr
        assert "eps must be" not in cp.stderr
        assert "Traceback" not in cp.stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="bad parameter: every Knill-Laflamme weight is zero"):
                verify_pj_minentropy_bound(repetition_qc_cover(1.0), 2.5)

    def test_config_not_an_object_exits_two(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        cp = run_cli(["verify", "sutherland", "--config", str(path), "--out", str(tmp_path)], cwd=tmp_path)
        assert cp.returncode == 2
        assert cp.stderr == f"{path}:1:1: config must be a JSON object\n"

    def test_params_not_an_object_exits_two(self, tmp_path, capsys):
        config = load("sutherland_demo")
        config["params"] = [1, 2]
        assert config_error(tmp_path, capsys, config) == "verify/sutherland params: must be a JSON object\n"

    @pytest.mark.parametrize(
        "config_name, key",
        [("stego_cc_noiseless_demo.json", "atempts"), ("stego_cc_noisy_demo.json", "trials")],
        ids=["atempts", "trials"],
    )
    def test_unknown_parameter_exits_two(self, tmp_path, capsys, config_name, key):
        config = load(config_name.removesuffix(".json"))
        config["params"][key] = 3
        assert repr(key) in config_error(tmp_path, capsys, config)

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
    def test_bad_key_named_and_exits_two(self, tmp_path, capsys, config_name, edit, key):
        config = load(config_name.removesuffix(".json"))
        edit(config)
        assert repr(key) in config_error(tmp_path, capsys, config)

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
        config = load(config.removesuffix(".json") if isinstance(config, str) else config)
        config["params"][key] = value
        assert config_error(tmp_path, capsys, config) == f"{config['kind']} params: got an unexpected keyword argument {key!r}\n"

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
        config = load(config.removesuffix(".json") if isinstance(config, str) else config)
        params = config["params"]
        if key == "p":
            del params["cover"]["p"]
        elif key == "dim":
            params["m"] = {"kind": "identity"}
        else:
            del params[key]
        assert f"missing a required argument: {key!r}" in config_error(tmp_path, capsys, config)

    @pytest.mark.parametrize(
        "config_name, edit, what",
        [
            ("gaussian_fig2", lambda p: p.update(nu0_grid=[1.0, 2.0]), "'nu0_grid': grid"),
            ("stego_cc_noiseless_demo", lambda p: p.update(m=["dephasing", 0.1]), "'m': channel"),
            ("stego_cc_noiseless_demo", lambda p: p["codewords"].append(["plus"]), "'codewords' entry 2: state"),
            ("stego_es_rs_demo", lambda p: p.update(cover=["dephasing_demo", 0.5]), "'cover': ES cover"),
            ("pj_bound_family", lambda p: p["family"].append([0.1, 0.2]), "'family' entry 6: family point"),
        ],
        ids=["grid", "channel", "state", "es-cover", "family-point"],
    )
    def test_spec_not_an_object_exits_two(self, tmp_path, capsys, monkeypatch, config_name, edit, what):
        # the whole config is read before any work: a bad last family point is named before any bound
        monkeypatch.setattr(experiments, "verify_pj_minentropy_bound", forbidden)
        config = load(config_name)
        edit(config["params"])
        assert config_error(tmp_path, capsys, config) == f"{config['kind']} params: {what}: must be a JSON object\n"

    def test_zeta_ref_checked_before_any_code_is_built(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(experiments, "build_resolvability_codes", forbidden)
        config = load("resolvability_demo")
        config["params"]["zeta_ref"] = 0
        message = config_error(tmp_path, capsys, config)
        assert message == "simulate/resolvability params: 'zeta_ref' must be a number in (0, 1), got 0\n"

    @pytest.mark.parametrize("power", [0, -3], ids=["0", "-3"])
    @pytest.mark.parametrize("kind", ["simulate/cc-noiseless", "rates/cc-noiseless"], ids=["simulate/cc-noiseless", "rates/cc-noiseless"])
    def test_channel_power_below_one_exits_two(self, tmp_path, capsys, kind, power):
        config = {
            "kind": kind,
            "params": {"m": {"kind": "dephasing", "p": 0.2, "power": power}, "codewords": ["plus", "minus"], "zeta": 0.5},
        }
        if kind == "simulate/cc-noiseless":
            config["params"] |= {"mbar": 2, "n": 1}
        message = config_error(tmp_path, capsys, config)
        assert message == f"{kind} params: 'm': dephasing channel: 'power' must be an integer >= 1, got {power}\n"

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
        config = load(config_name)
        edit(config["params"])
        assert message in config_error(tmp_path, capsys, config)

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
    """Every mutant of every config (``mutants``) is a config error that
    names its key, caught before any eigendecomposition, since the whole
    config is read, by the annotation of the parameter each value fills,
    before any work."""

    def check(self, tmp_path, capsys, monkeypatch, config, wrong_typed):
        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        config = load(config)
        checked = [m for m in mutants(config) if m[3] == wrong_typed]
        assert checked
        for path, value, parts, _ in checked:
            mutant = copy.deepcopy(config)
            *parents, last = path
            node = reduce(lambda node, key: node[key], parents, mutant)
            if value is DELETE:
                del node[last]
            else:
                node[last] = value
            message = config_error(tmp_path, capsys, mutant)
            assert all(part in message for part in parts), (path, value, message)

    @pytest.mark.parametrize("config", WALKED, ids=WALKED_IDS)
    def test_wrong_typed_number_exits_two_naming_its_key(self, tmp_path, capsys, monkeypatch, config):
        self.check(tmp_path, capsys, monkeypatch, config, wrong_typed=True)

    @pytest.mark.parametrize("config", WALKED, ids=WALKED_IDS)
    def test_missing_unknown_empty_or_out_of_range_exits_two_naming_its_key(self, tmp_path, capsys, monkeypatch, config):
        self.check(tmp_path, capsys, monkeypatch, config, wrong_typed=False)


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

    def test_number_key_table_matches_the_annotations(self):
        # README's table is the one hand-written copy of each number key's
        # readers, type and range: every reader's annotations must agree with it
        types = {"int": "integer", "float": "number", "list[int]": "list of integers", "list[float]": "list of numbers"}
        readers = [("config", experiments._config), *RUNNERS.items()]
        for what, reader in experiments.READERS.values():
            if reader not in (int, float):
                readers += [(what, r) for r in (reader.values() if isinstance(reader, dict) else [reader])]
        declared = {}
        for label, reader in readers:
            for key, param in inspect.signature(reader).parameters.items():
                if isinstance(param.annotation, str) and param.kind is not param.POSITIONAL_ONLY:
                    annotation, bounds = number_annotation(param.annotation)
                    if annotation in types:
                        row = (key, types[annotation], shown(*bounds) if bounds else "any")
                        declared.setdefault(row, set()).add(label)
        text = (ROOT / "README.md").read_text().split("## Config format", 1)[1]
        listed = {
            (key, kind, shown): set(read_by.replace("`", "").split(", "))
            for key, read_by, kind, shown in re.findall(r"^\| `(\w+)` \| ([^|]+) \| ([^|]+) \| ([^|]+) \|$", text, re.M)
        }
        assert len(listed) > 20 and listed == declared
