"""Memory peak of every instance of one benchmark run, to pin a
``peak_rss_mb`` change to the slot that sets it.

    python3 scripts/peaks.py [--workload W] [--seed N] [--root CHECKOUT]

Runs, in this one process, what a measuring ``perfbench`` process of the
workload runs for the seed: the warm-up instance, then the instances of one
pass in run order (``perfbench/workloads.generate``), each through
``run_experiment`` and ``render_csv`` as the CLI does.  ``--root`` names the
checkout whose ``src`` (qstego, imported by ``perfbench/worker.py``'s
``import_library``) and ``perfbench`` (workloads) are used;
default this one, so the script can also measure a parent checkout.  For each
instance it prints the ``tracemalloc`` peak during the instance and the
process ``ru_maxrss`` after it, both in MB (2^20 bytes), then the instance
that set each maximum.  ``tracemalloc`` stores a trace per live block, so the
``ru_maxrss`` read here runs above the untraced ``peak_rss_mb``; the order of
the slots is what it shows.
"""

from __future__ import annotations

import argparse
import resource
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MB = 2.0**20


def maxrss_mb() -> float:
    """ru_maxrss of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(experiments, instances) -> list:
    """(instance, tracemalloc peak MB, ru_maxrss MB after it) for each instance, run in order."""
    rows = []
    tracemalloc.start()
    try:
        for inst in instances:
            tracemalloc.reset_peak()
            experiments.render_csv(experiments.run_experiment(inst.config))
            rows.append((inst, tracemalloc.get_traced_memory()[1] / MB, maxrss_mb()))
    finally:
        tracemalloc.stop()
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="large-d")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--root", type=Path, default=ROOT, help="checkout to measure (default: this one)")
    args = ap.parse_args(argv)
    root = args.root.resolve()
    sys.path.insert(0, str(root / "perfbench"))
    import workloads
    from worker import import_library

    experiments = import_library(root)

    chosen, warmup = workloads.generate(args.workload, args.seed, root)
    print(f"{args.workload} seed {args.seed}, qstego from {root / 'src'}; start ru_maxrss {maxrss_mb():.1f} MB")
    print(f"{'slot':36s} {'variant':24s} {'traced_peak_mb':>14s} {'maxrss_mb':>10s}")
    rows = measure(experiments, [warmup, *chosen])
    for i, (inst, peak, rss) in enumerate(rows):
        slot = f"{inst.slot} (warm-up)" if i == 0 else inst.slot
        print(f"{slot:36s} {inst.label:24s} {peak:14.1f} {rss:10.1f}")
    top = max(rows, key=lambda row: row[1])
    rss_top = next(row for row in rows if row[2] == rows[-1][2])
    print(f"largest traced peak: {top[0].slot} ({top[1]:.1f} MB); "
          f"ru_maxrss {rss_top[2]:.1f} MB first reached after {rss_top[0].slot}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
