import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "peaks.py"


def test_one_line_per_instance_of_a_pass():
    cp = subprocess.run(
        [sys.executable, str(SCRIPT), "--workload", "hash-search", "--seed", "3"],
        capture_output=True,
        text=True,
    )
    assert cp.returncode == 0, cp.stdout + cp.stderr
    lines = cp.stdout.splitlines()
    rows = lines[2:-1]
    # the warm-up instance, then one instance of each of the 8 slots
    assert len(rows) == 9
    assert rows[0].startswith("d4-m8-a (warm-up)")
    assert sorted(row.split()[0] for row in rows[1:]) == sorted(
        f"d{d}-m{m}-{x}" for d, m in ((8, 3), (4, 8)) for x in "abcd"
    )
    peaks = [float(row.split()[-2]) for row in rows]
    rss = [float(row.split()[-1]) for row in rows]
    assert all(p > 0 for p in peaks)
    assert rss == sorted(rss)
    assert lines[-1].startswith("largest traced peak: ")
