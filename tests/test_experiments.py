import importlib.util
import inspect
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from qstego import experiments
from qstego.experiments import RUNNERS, render_csv, run_experiment, run_and_write

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
#: the benchmark's correctness gate: CSV sha256 and flags of every pool instance (read only)
BENCH_REFERENCE = json.loads((ROOT / "perfbench" / "reference.json").read_text())


def bench_module(name):
    """``perfbench/<name>.py``, loaded from its file and only read; registered
    by name first, since a dataclass looks its module up there."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads, worker = bench_module("workloads"), bench_module("worker")
#: (workload, instance) for every instance any seed can generate, the shipped configs included
POOL = [(name, instance) for name in workloads.NAMES for instance in workloads.pool(name, ROOT)]


def load(name):
    return json.loads((CONFIGS / name).read_text())


#: every reader of a spec in ``experiments.READERS``, one per kind of a kinded spec
SPEC_READERS = [
    reader
    for _, readers in experiments.READERS.values()
    if readers not in (int, float)
    for reader in (readers.values() if isinstance(readers, dict) else [readers])
]


def entries(value):
    """(index path, item): the entries of a list, or the one value."""
    return [((i,), item) for i, item in enumerate(value)] if isinstance(value, list) else [((), value)]


def specs(config):
    """(path, reader, spec) for the top level of ``config``, its params and
    every spec nested in them, each read by the function that ``READERS``
    names for the annotation of its key (a kinded spec by its kind's)."""

    def walk(path, reader, spec):
        yield path, reader, spec
        params = inspect.signature(reader).parameters
        for key, value in spec.items():
            inner = params[key].annotation.removeprefix("list[").removesuffix("]") if key in params else None
            readers = experiments.READERS.get(experiments._range(inner)[0], (None, None))[1]
            for at, item in entries(value):
                if isinstance(item, dict):
                    yield from walk((*path, key, *at), readers[item["kind"]] if isinstance(readers, dict) else readers, item)

    yield (), experiments._config, config
    yield from walk(("params",), RUNNERS[config["kind"]], config["params"])


def spec_reads():
    """(reader, spec) for the params of every shipped config and benchmark
    instance and for every spec nested in them (``specs``)."""
    return [(reader, spec) for _, instance in POOL for path, reader, spec in specs(instance.config) if path]


def number_annotation(annotation):
    """(annotation, range) by which a value of a parameter annotated
    ``annotation`` is read: the range (``experiments._range``) cut out of it,
    and a reader whose one parameter is positional-only (a PMF's) taken as
    that parameter's annotation."""
    reader = experiments.READERS.get(annotation, (None, None))[1]
    if inspect.isfunction(reader):
        first = next(iter(inspect.signature(reader).parameters.values()))
        annotation = first.annotation if first.kind is first.POSITIONAL_ONLY else annotation
    inner = annotation.removeprefix("list[").removesuffix("]")
    name, bounds = experiments._range(inner)
    return annotation.replace(inner, name), bounds


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

    @pytest.mark.parametrize("key, message", [("codewords", "rates/cc-noisy params: 'codewords' must be non-empty")], ids=["codewords"])
    def test_empty_rates_cc_noisy_input_rejected(self, key, message):
        # an empty list leaves no row to check, so it is a config error
        # (rates/cc-noisy has no shipped config for the CLI tests to edit)
        params = {
            "n_true": {"kind": "dephasing", "p": 0.2},
            "m": {"kind": "dephasing", "p": 0.1},
            "codewords": ["plus", "minus"],
            "n": 1,
            "zeta": 0.1,
            "xi": 0.1,
        }
        params[key] = []
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_experiment({"kind": "rates/cc-noisy", "params": params})


class TestRegistry:
    def test_every_kind_is_reached_by_a_config_or_workload(self):
        # a kind that no shipped config and no benchmark instance runs is code
        # that only its tests reach
        kinds = {instance.config["kind"] for _, instance in POOL}
        assert sorted(set(RUNNERS) - kinds) == []

    def test_every_runner_key_is_set_by_a_config_or_workload(self):
        # a keyword parameter that no shipped config and no benchmark instance
        # sets has one value in use, its default: it belongs in a constant
        used = {kind: set() for kind in RUNNERS}
        for _, instance in POOL:
            used[instance.config["kind"]].update(instance.config.get("params", {}))
        unset = {
            kind: sorted(set(inspect.signature(runner).parameters) - {"seed"} - used[kind])
            for kind, runner in RUNNERS.items()
        }
        assert {kind: keys for kind, keys in unset.items() if keys} == {}

    def test_every_n_matches_its_channel(self):
        # the runners that take n reject one whose 2**n is not the input
        # dimension of m; no shipped config or benchmark instance has one
        # (channels parsed only, nothing run)
        kinds = {"simulate/cc-noiseless", "simulate/cc-noisy", "rates/cc-noisy"}
        checked = [i for _, i in POOL if i.config["kind"] in kinds]
        for instance in checked:
            params = instance.config["params"]
            assert 2 ** params["n"] == experiments._read("m", "QuantumChannel", params["m"]).dim_in, instance
        assert len(checked) > len(kinds)

    def test_no_default_that_every_config_and_workload_overrides(self):
        # a default that every shipped config and benchmark instance sets
        # anyway is an input path that no caller takes; the kinds that share a
        # function (the textbook channels) are calls of that function
        def function(reader):
            return getattr(reader, "func", reader)

        calls = [(function(reader), set(spec)) for reader, spec in spec_reads()]
        overridden = {
            f"{function(reader).__name__}: {key}"
            for reader in [*RUNNERS.values(), *SPEC_READERS]
            for key, param in inspect.signature(reader).parameters.items()
            if param.default is not param.empty and all(key in keys for f, keys in calls if f is function(reader))
        }
        assert sorted(overridden) == []

    def test_every_number_key_is_annotated_int_or_float(self):
        # a number is read by the annotation of the parameter it fills; a key
        # that a config or instance sets to a number (a list of numbers) but
        # no reader of its spec annotates int or float (list[int] or
        # list[float]) would let a wrong-typed value run
        def annotation(reader, key):
            param = inspect.signature(reader).parameters.get(key)
            return None if param is None else number_annotation(param.annotation)[0]

        def is_number(value):
            return isinstance(value, (int, float)) and not isinstance(value, bool)

        def readings(value):
            """The annotations that read ``value``, none when it holds no number."""
            if is_number(value):
                return ("int", "float")
            if isinstance(value, list) and value and all(map(is_number, value)):
                return ("list[int]", "list[float]")
            return ()

        unannotated = {
            f"{key!r} beside {sorted(spec)}"
            for reader, spec in spec_reads()
            for key, value in spec.items()
            if readings(value) and annotation(reader, key) not in readings(value)
        }
        assert sorted(unannotated) == []


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


class TestOutputs:
    def test_csv_and_json_written(self, tmp_path):
        res, paths = run_and_write(load("stego_cc_noiseless_exact.json"), tmp_path, "demo", seed=None, csv=True, summary_json=True)
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
        first, _ = run_and_write(config, tmp_path / "a", "run", seed=None, csv=True, summary_json=True)
        second, _ = run_and_write(config, tmp_path / "b", "run", seed=None, csv=True, summary_json=True)
        assert (tmp_path / "a" / "run.csv").read_bytes() == (tmp_path / "b" / "run.csv").read_bytes()

    def test_seed_override_changes_rows(self, tmp_path):
        config = load("stego_cc_noisy_demo.json")
        base = run_experiment(config)
        other = run_experiment(config, seed=123)
        assert base.seed == 5 and other.seed == 123
        assert render_csv(base) != render_csv(other)

    @pytest.mark.parametrize("seed", [2.7, True, "3"], ids=["float", "bool", "str"])
    def test_seed_argument_read_as_an_integer(self, seed):
        with pytest.raises(TypeError, match=f"^config: 'seed' must be an integer, got {re.escape(repr(seed))}$"):
            run_experiment(load("sutherland_demo.json"), seed=seed)


#: large-d slots whose instances build a CC cover and read its outputs
LARGE_D_COVER_SLOTS = ("cc-noiseless-d32", "cc-noiseless-d64", "rates-cc-noisy-n3")


def first_of_each_slot():
    """(workload, instance) pytest params: the first pool instance of each
    shipped config (named by its file), hash-search slot and LARGE_D_COVER_SLOTS slot."""
    first = {}
    for name, inst in POOL:
        if name != "large-d" or inst.slot in LARGE_D_COVER_SLOTS:
            first.setdefault((name, inst.slot), inst)
    return [
        pytest.param(name, inst, id=f"{inst.slot}.json" if name == "shipped" else f"{inst.slot}:{inst.label}")
        for (name, _), inst in first.items()
    ]


class TestBenchmarkReference:
    """Each shipped config, and the first variant of each hash-search slot and
    of the large-d slots that build a CC cover, renders the CSV bytes and
    flags recorded for the benchmark."""

    def test_reference_covers_the_shipped_configs(self):
        assert {inst.key for name, inst in POOL if name == "shipped"} == set(BENCH_REFERENCE["shipped"])

    def test_large_d_slots_covered(self):
        # a renamed slot would otherwise drop out of the digest checks unseen
        assert set(LARGE_D_COVER_SLOTS) <= {inst.slot for name, inst in POOL if name == "large-d"}

    @pytest.mark.parametrize("workload, instance", first_of_each_slot())
    def test_csv_sha256_matches(self, workload, instance):
        # the check perfbench/worker.py makes of every instance it runs
        result = run_experiment(instance.config)
        entry = BENCH_REFERENCE[workload][instance.key]
        assert worker.csv_sha256(render_csv(result)) == entry["csv_sha256"]
        assert worker.flags_of(result) == entry["flags"]
