"""Print every end-to-end and per-layer metric of every workload.

    python3 perfbench/report.py [--seed N]

Runs ``run.py`` for every workload in ``BENCHMARK.json`` for its
``run_seconds``, twice per workload, with tracing off (end-to-end
metrics) and on (per-layer metrics), and passes through its lines: each
metric by name with its unit and sample count, plus fail_ratio.  Exits 1 when
any run fails its correctness gate or does not finish, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    ok = True
    for name in names:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            try:
                correct = proc.returncode == 0 and json.loads(lines[-1])["correct"]
            except (IndexError, json.JSONDecodeError, KeyError):
                correct = False
            if not correct:
                print(f"CORRECTNESS GATE FAILED: {name} trace={trace} (exit {proc.returncode})", flush=True)
            ok = ok and correct
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
