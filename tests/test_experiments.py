import json
from pathlib import Path

import pytest

from qstego.experiments import render_csv, run_experiment, run_and_write
from qstego.info import shannon_entropy

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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

    def test_empty_sweep_header_only(self):
        config = {
            "kind": "rates/gaussian",
            "params": {
                "n": 10,
                "r": 5,
                "zeta": 0.5,
                "nu0_grid": [],
                "nu1_grid": [],
            },
        }
        res = run_experiment(config)
        assert res.rows == []
        assert res.all_ok
        assert render_csv(res) == "nu0,nu1,rate_bits,raw,a_star,boundary\n"


class TestRatesProduct:
    DEPHASING = {"kind": "dephasing", "p": 0.3}

    def test_noiseless_single_use(self):
        # the pure |0> output has zero entropy, so the rate is 4 * (0 - 0.1)
        config = {
            "kind": "rates/product",
            "params": {"states": ["plus", "zero"], "m": self.DEPHASING, "n": 4, "delta": 0.1},
        }
        res = run_experiment(config)
        assert res.rows[0]["raw"] == -0.4
        assert res.rows[0]["rate_bits"] == 0.0
        assert res.summary == {"n": 4, "k": 1}
        assert render_csv(res) == "mode,rate_bits,raw,inner\nnoiseless,0.0,-0.4,0.0\n"

    def test_noiseless_two_use_block(self):
        # dephased |+> has eigenvalues 0.7/0.3; the |0> factor adds nothing
        config = {
            "kind": "rates/product",
            "params": {
                "states": [{"kind": "kron", "factors": ["plus", "zero"]}],
                "m": self.DEPHASING,
                "n": 4,
                "k": 2,
                "delta": 0.1,
            },
        }
        row = run_experiment(config).rows[0]
        h = shannon_entropy([0.7, 0.3])
        assert row["inner"] == pytest.approx(h, abs=1e-12)
        assert row["raw"] == pytest.approx(2.0 * (h - 0.1), abs=1e-12)

    def test_noisy_single_candidate(self):
        # completely dephased |+> is I/2, the B-marginal of the {|0>, |1>} ensemble
        config = {
            "kind": "rates/product",
            "params": {
                "states": ["plus"],
                "m": {"kind": "dephasing", "p": 0.5},
                "n": 2,
                "mode": "noisy",
                "candidates": [[{"pmf": [0.5, 0.5], "states": ["zero", "one"]}]],
            },
        }
        row = run_experiment(config).rows[0]
        assert row["mode"] == "noisy"
        assert row["inner"] == pytest.approx(1.0, abs=1e-12)
        assert row["raw"] == pytest.approx(2.0, abs=1e-12)
        assert row["rate_bits"] == pytest.approx(2.0, abs=1e-12)


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

    def test_golden_file(self, tmp_path):
        golden = Path(__file__).resolve().parent / "golden" / "stego_cc_noiseless_demo.csv"
        res = run_experiment(load("stego_cc_noiseless_demo.json"))
        rendered = render_csv(res)
        if not golden.exists():  # pragma: no cover - first generation path
            golden.parent.mkdir(exist_ok=True)
            golden.write_text(rendered)
        assert rendered == golden.read_text()
