"""Record the per-instance reference (CSV sha256 and flags) of every workload.

    python3 perfbench/record_reference.py [--src PATH]

Runs every instance any seed can generate (``workloads.pool``) through
``run_experiment`` + ``render_csv`` with the qstego sources under ``--src``
(default: this checkout's ``src``) and rewrites ``perfbench/reference.json``.
Point ``--src`` at a checkout of the parent commit to record the reference a
change must reproduce.  Instances whose flags do not all pass are reported;
a workload is meant to hold none.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from worker import csv_sha256, flags_of  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(ROOT / "src"), help="directory holding the qstego package")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    from qstego.experiments import render_csv, run_experiment

    reference = {}
    status = 0
    for name in workloads.NAMES:
        entries = {}
        for inst in workloads.pool(name, ROOT):
            t0 = time.perf_counter()
            result = run_experiment(inst.config)
            csv = render_csv(result)
            flags = flags_of(result)
            entries[inst.key] = {
                "instance": f"{inst.slot}:{inst.label}",
                "csv_sha256": csv_sha256(csv),
                "flags": flags,
            }
            bad = [k for k, v in flags.items() if not v]
            print(f"{name:12s} {inst.slot}:{inst.label:28s} {time.perf_counter() - t0:7.3f}s"
                  + (f"  FAILED FLAGS {bad}" if bad else ""), flush=True)
            status |= bool(bad)
        reference[name] = entries
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
