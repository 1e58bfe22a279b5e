import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "reference_diff.py"

spec = importlib.util.spec_from_file_location("reference_diff", SCRIPT)
reference_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(reference_diff)


class TestColumnChanges:
    def test_largest_change_per_numeric_column(self):
        old = "kind,rate,hits\na,1.5,3\nb,2.0,4\n"
        new = "kind,rate,hits\na,1.25,3\nb,2.5,4\n"
        assert reference_diff.column_changes(old, new) == {"rate": 0.5, "hits": 0.0}

    def test_text_and_shape_changes(self):
        assert reference_diff.column_changes("kind,rate\na,1\n", "kind,rate\nb,1\n") == {"kind": "changed", "rate": 0.0}
        assert "shape" in reference_diff.column_changes("kind,rate\na,1\n", "kind,rate\na,1\nb,2\n")


class TestSummaryChanges:
    def test_changed_keys(self):
        old = {"rank": 2, "p_x": [0.5, 0.5], "warning": None}
        assert reference_diff.summary_changes(old, dict(old)) == []
        assert reference_diff.summary_changes(old, old | {"rank": 3, "p_x": [0.5, 0.25]}) == ["p_x", "rank"]

    def test_zero_sign_and_one_sided_keys(self):
        assert reference_diff.summary_changes({"value": 0.0}, {"value": -0.0}) == ["value"]
        assert reference_diff.summary_changes({"a": None}, {"b": None}) == ["a", "b"]


def test_checkout_against_itself_moves_nothing():
    cp = subprocess.run(
        [sys.executable, str(SCRIPT), str(ROOT), "--workload", "hash-search"],
        capture_output=True,
        text=True,
    )
    assert cp.returncode == 0, cp.stdout + cp.stderr
    threads = len(os.sched_getaffinity(0))
    assert cp.stdout.splitlines()[-3:] == [
        f"hash-search: 0 of 160 instances differ from reference.json at {threads} BLAS threads",
        "hash-search: 0 of 160 digests moved, 0 flags flipped",
        "hash-search: 0 of 160 summaries moved",
    ]
