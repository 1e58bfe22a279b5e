import importlib.util
import os
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_pairs.py"

spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

#: parent runs with median 1.0 and quartiles 0.95-1.05 (spread 0.1)
PARENT = [0.9, 0.95, 1.0, 1.05, 1.1]


class TestVerdict:
    @pytest.mark.parametrize(
        "change, bound, expected",
        [
            ([1.2, 1.25, 1.3, 1.35, 1.4], 0.25, "worse"),  # median 1.3 > 1.25
            ([1.15, 1.2, 1.25, 1.3, 1.35], 0.25, "within bound"),  # median 1.25, not above
            ([0.5, 0.5, 0.5, 0.5, 0.5], 0.25, "within bound"),
            ([1.0, 1.05, 1.1, 1.12, 1.3], 0.15, "within bound"),  # median 1.1, spread 0.1 within 0.15
            ([1.0, 1.0, 1.06, 1.08, 1.3], 0.05, "worse"),  # median 1.06: worse, whatever the spread
        ],
    )
    def test_worse_by_median(self, change, bound, expected):
        assert bench_pairs.verdict(PARENT, change, bound) == expected

    def test_unresolved_when_the_parent_spreads_wider_than_the_bound(self):
        # spread 0.1 / median 1.0 > 0.05; the change is no worse but overlaps the parent
        assert bench_pairs.verdict(PARENT, [0.85, 0.9, 0.95, 1.0, 1.05], 0.05) == "unresolved"

    def test_resolved_when_every_change_run_beats_every_parent_run(self):
        assert bench_pairs.verdict(PARENT, [0.5, 0.6, 0.7, 0.8, 0.85], 0.05) == "within bound"
        assert bench_pairs.verdict(PARENT, [0.5, 0.6, 0.7, 0.8, 0.9], 0.05) == "unresolved"  # a tie does not beat


class TestPairRatios:
    def test_ratio_within_each_pair(self):
        # a machine that drifts 2x slower over the pairs: every pair reads 0.5
        parent = [1.0, 1.5, 2.0, 2.5]
        change = [0.5, 0.75, 1.0, 1.25]
        assert bench_pairs.pair_ratios(parent, change) == [0.5, 0.5, 0.5, 0.5]
        assert bench_pairs.quartiles(bench_pairs.pair_ratios(parent, change)) == (0.5, 0.5, 0.5)

    def test_quartiles_of_the_ratios(self):
        ratios = bench_pairs.pair_ratios([2.0, 2.0, 2.0, 2.0, 2.0], [1.0, 1.2, 1.4, 1.6, 3.0])
        assert ratios == [0.5, 0.6, 0.7, 0.8, 1.5]
        assert bench_pairs.quartiles(ratios) == pytest.approx((0.6, 0.7, 0.8))

    def test_zero_parent_gives_nan(self):
        [ratio] = bench_pairs.pair_ratios([0.0], [1.0])
        assert ratio != ratio


def test_each_run_gets_a_fresh_empty_bytecode_cache(monkeypatch):
    # a checkout's own __pycache__ would make its imports cheaper than a clone's
    prefixes = []

    def fake_run(cmd, cwd, env, **kwargs):
        prefix = env["PYTHONPYCACHEPREFIX"]
        assert os.path.isdir(prefix) and not os.listdir(prefix)
        assert env["PYTHONDONTWRITEBYTECODE"] == "1"
        prefixes.append(prefix)
        return SimpleNamespace(stdout='{"correct": true}\n')

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    for _ in range(2):
        assert bench_pairs.run(ROOT, "shipped", 1, 1.0, 0) == {"correct": True}
    assert len(set(prefixes)) == 2
    assert not any(os.path.exists(p) for p in prefixes)
