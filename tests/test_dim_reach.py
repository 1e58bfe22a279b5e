import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "dim_reach.py"


def reach(*args):
    cp = subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stdout + cp.stderr
    lines = cp.stdout.splitlines()
    return [line.split() for line in lines[2:-1]], lines[-1]


def test_one_row_per_dimension_within_budget():
    rows, last = reach("--dims", "8", "16")
    assert [row[0] for row in rows] == ["8", "16"]
    assert all(row[-1] == "ok" and float(row[1]) > 0 and float(row[2]) > 0 for row in rows)
    assert last == "reach: d = 16"


def test_stops_at_the_first_dimension_over_budget():
    # every interpreter holds more than 1 MB, so the first child is killed
    rows, last = reach("--dims", "8", "16", "--mb", "1")
    assert [row[0] for row in rows] == ["8"]
    assert rows[0][-2:] == ["memory", "budget"]
    assert last == "reach: none of the dimensions"
