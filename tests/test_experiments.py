import hashlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from qstego.experiments import RUNNERS, render_csv, run_experiment, run_and_write

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
#: the benchmark's correctness gate: CSV sha256 of every shipped config (read only)
BENCH_REFERENCE = CONFIGS.parent / "perfbench" / "reference.json"
#: the benchmark's instance generators' parameters (read only)
BENCH_WORKLOADS = CONFIGS.parent / "perfbench" / "workloads.json"

# the benchmark's instance generators, loaded from their file and only read;
# registered by name first, since a dataclass looks its module up there
spec = importlib.util.spec_from_file_location("bench_workloads", CONFIGS.parent / "perfbench" / "workloads.py")
workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)


def load(name):
    return json.loads((CONFIGS / name).read_text())


class TestRunners:
    def test_cc_noiseless_exact_demo(self):
        res = run_experiment(load("stego_cc_noiseless_exact.json"))
        assert res.all_ok
        row = res.rows[0]
        assert row["zeta_achieved"] == pytest.approx(0.0, abs=1e-12)
        assert row["p_decode"] == pytest.approx(1.0, abs=1e-12)

    def test_cc_noisy_demo(self):
        res = run_experiment(load("stego_cc_noisy_demo.json"))
        assert res.all_ok
        assert res.summary["key_bits"] == pytest.approx(2.0)

    def test_es_rs_demo(self):
        res = run_experiment(load("stego_es_rs_demo.json"))
        assert res.all_ok
        assert res.rows[0]["fidelity"] == pytest.approx(1.0, abs=1e-9)

    def test_qc_cc_demo(self):
        res = run_experiment(load("stego_qc_cc_demo.json"))
        assert res.all_ok
        assert res.rows[0]["cypher_decode_prob"] == pytest.approx(1.0, abs=1e-9)

    def test_cc_es_demo(self):
        res = run_experiment(load("stego_cc_es_demo.json"))
        assert res.all_ok
        assert res.rows[0]["mbar"] == 2

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown experiment kind"):
            run_experiment({"kind": "rates/nope"})

    @pytest.mark.parametrize("key, message", [("codewords", "no codewords")], ids=["codewords"])
    def test_empty_rates_cc_noisy_input_rejected(self, key, message):
        # an empty list leaves no row to check, so it is a config error
        # (rates/cc-noisy has no shipped config for the CLI tests to edit)
        params = {
            "n_true": {"kind": "dephasing", "p": 0.2},
            "m": {"kind": "dephasing", "p": 0.1},
            "codewords": ["plus", "minus"],
            "zeta": 0.1,
            "xi": 0.1,
        }
        params[key] = []
        with pytest.raises(ValueError, match=f"^bad parameter: {message}$"):
            run_experiment({"kind": "rates/cc-noisy", "params": params})


class TestRegistry:
    def test_every_kind_is_reached_by_a_config_or_workload(self):
        # a kind that no shipped config and no benchmark instance runs is code
        # that only its tests reach
        kinds = {load(p.name)["kind"] for p in CONFIGS.glob("*.json")}
        for workload in json.loads(BENCH_WORKLOADS.read_text()).values():
            gen = workload["generator"]
            kinds.update(item["kind"] for item in [gen, *gen.get("slots", [])] if "kind" in item)
        assert sorted(set(RUNNERS) - kinds) == []

    def test_every_runner_key_is_set_by_a_config_or_workload(self):
        # a keyword parameter that no shipped config and no benchmark instance
        # sets has one value in use, its default: it belongs in a constant
        used = {kind: set() for kind in RUNNERS}
        for name in workloads.NAMES:
            for instance in workloads.pool(name, CONFIGS.parent):
                used[instance.config["kind"]].update(instance.config.get("params", {}))
        unset = {
            kind: sorted(set(inspect.signature(runner).parameters) - {"seed"} - used[kind])
            for kind, runner in RUNNERS.items()
        }
        assert {kind: keys for kind, keys in unset.items() if keys} == {}


class TestConfigKeys:
    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("atempts", 3, "got an unexpected keyword argument 'atempts'"),
            ("zeta", None, "missing a required argument: 'zeta'"),
            ("seed", 3, "multiple values for argument 'seed'"),
        ],
        ids=["unknown", "missing", "seed"],
    )
    def test_params_checked_before_numerics(self, monkeypatch, key, value, message):
        def forbidden(*args, **kwargs):
            raise AssertionError("an eigendecomposition ran")

        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        config = load("stego_cc_noiseless_demo.json")
        if value is None:
            del config["params"][key]
        else:
            config["params"][key] = value
        with pytest.raises(TypeError, match=f"simulate/cc-noiseless params: {message}"):
            run_experiment(config)

    def test_defaults_come_from_the_signature(self):
        # keys left out take the runner's defaults, here dim_max=4 and x_max=3
        res = run_experiment({"kind": "verify/gentle", "params": {"instances": 2}})
        assert [r["instance"] for r in res.rows] == [0, 1]
        assert all(2 <= r["dim"] <= 4 and 2 <= r["x_size"] <= 3 for r in res.rows)


class TestOutputs:
    def test_csv_and_json_written(self, tmp_path):
        res, paths = run_and_write(load("stego_cc_noiseless_exact.json"), tmp_path, "demo")
        names = {p.name for p in paths}
        assert names == {"demo.csv", "demo_summary.json"}
        text = (tmp_path / "demo.csv").read_text()
        assert text.splitlines()[0] == "w,n,mbar,zeta_achieved,dist_trace,p_decode,bound_ok"
        payload = json.loads((tmp_path / "demo_summary.json").read_text())
        assert payload["kind"] == "simulate/cc-noiseless"
        assert payload["seed"] == 0
        assert "wall_time_s" in payload

    def test_csv_byte_identical_across_reruns(self, tmp_path):
        config = load("stego_cc_noiseless_demo.json")
        first, _ = run_and_write(config, tmp_path / "a", "run")
        second, _ = run_and_write(config, tmp_path / "b", "run")
        assert (tmp_path / "a" / "run.csv").read_bytes() == (tmp_path / "b" / "run.csv").read_bytes()

    def test_seed_override_changes_rows(self, tmp_path):
        config = load("stego_cc_noisy_demo.json")
        base = run_experiment(config)
        other = run_experiment(config, seed=123)
        assert base.seed == 5 and other.seed == 123
        assert render_csv(base) != render_csv(other)

    @pytest.mark.parametrize("name", ["stego_cc_noiseless_demo", "stego_cc_noisy_demo"])
    def test_golden_file(self, name):
        golden = Path(__file__).resolve().parent / "golden" / f"{name}.csv"
        assert render_csv(run_experiment(load(f"{name}.json"))) == golden.read_text()


def reference_key(config) -> str:
    """The key the benchmark stores a config's digest under (perfbench/workloads.py)."""
    text = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def hash_search_first_variants():
    """The first variant of each hash-search slot as pytest params
    (instance name, config), built from perfbench/workloads.json the way
    perfbench/workloads.py builds it."""
    gen = json.loads(BENCH_WORKLOADS.read_text())["hash-search"]["generator"]
    kind, p = gen["channel_kinds"][0], gen["p_grid"][0]
    out = []
    for slot in gen["slots"]:
        q = slot["qubits"]
        params = {
            "m": {"kind": kind, "p": p, "power": q},
            "codewords": [{"kind": "kron", "factors": list(c)} for c in slot["codewords"]],
            "n": q,
            "mbar": slot["mbar"],
            "zeta": slot["zeta"],
        }
        instance = f"{slot['name']}:{kind}-p{p}"
        config = {"kind": gen["kind"], "seed": slot["seed"], "params": params}
        out.append(pytest.param(instance, config, id=instance))
    return out


#: large-d slots whose instances build a CC cover and read its outputs
LARGE_D_COVER_SLOTS = ("cc-noiseless-d32", "cc-noiseless-d64", "rates-cc-noisy-n3")


def large_d_first_variants():
    """The first variant of each slot in LARGE_D_COVER_SLOTS as pytest params
    (instance name, config), built from perfbench/workloads.json the way
    perfbench/workloads.py builds it."""
    gen = json.loads(BENCH_WORKLOADS.read_text())["large-d"]["generator"]
    kind, p = gen["channel_kinds"][0], gen["p_grid"][0]
    out = []
    for slot in gen["slots"]:
        if slot["name"] not in LARGE_D_COVER_SLOTS:
            continue
        q = slot["qubits"]
        params = {
            "m": {"kind": kind, "p": p, "power": q},
            "codewords": [{"kind": "kron", "factors": list(c)} for c in slot["codewords"]],
            "n": q,
            "zeta": slot["zeta"],
        }
        if slot["kind"] == "simulate/cc-noiseless":
            params["mbar"] = slot["mbar"]
            config = {"kind": slot["kind"], "seed": slot["seed"], "params": params}
        else:
            n_true = slot["n_true"]
            params |= {"n_true": {"kind": n_true["kind"], "p": n_true["p"], "power": q}, "xi": slot["xi"]}
            config = {"kind": slot["kind"], "params": params}
        instance = f"{slot['name']}:{kind}-p{p}"
        out.append(pytest.param(instance, config, id=instance))
    return out


class TestBenchmarkReference:
    """Each shipped config, and the first variant of each hash-search slot and
    of the large-d slots that build a CC cover, renders the CSV bytes recorded
    for the benchmark."""

    def shipped(self):
        return json.loads(BENCH_REFERENCE.read_text())["shipped"]

    def test_reference_covers_the_shipped_configs(self):
        keys = {reference_key(json.loads(p.read_text())) for p in CONFIGS.glob("*.json")}
        assert keys == set(self.shipped())

    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.json")))
    def test_csv_sha256_matches(self, name):
        config = load(name)
        expected = self.shipped()[reference_key(config)]["csv_sha256"]
        assert hashlib.sha256(render_csv(run_experiment(config)).encode()).hexdigest() == expected

    @pytest.mark.parametrize("instance,config", hash_search_first_variants())
    def test_hash_search_csv_sha256_matches(self, instance, config):
        entry = json.loads(BENCH_REFERENCE.read_text())["hash-search"][reference_key(config)]
        assert entry["instance"] == instance
        assert hashlib.sha256(render_csv(run_experiment(config)).encode()).hexdigest() == entry["csv_sha256"]

    def test_large_d_slots_covered(self):
        assert len(large_d_first_variants()) == len(LARGE_D_COVER_SLOTS)

    @pytest.mark.parametrize("instance,config", large_d_first_variants())
    def test_large_d_csv_sha256_matches(self, instance, config):
        entry = json.loads(BENCH_REFERENCE.read_text())["large-d"][reference_key(config)]
        assert entry["instance"] == instance
        assert hashlib.sha256(render_csv(run_experiment(config)).encode()).hexdigest() == entry["csv_sha256"]
