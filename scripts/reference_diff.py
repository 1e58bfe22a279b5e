"""Diff the CSV, flags and summary of every benchmark instance between two checkouts.

    python3 scripts/reference_diff.py PARENT_CHECKOUT [--workload W]

Runs every instance any seed can generate (``workloads.pool`` of this
checkout's ``perfbench/``) once with the qstego sources of the parent checkout
and once with those of this checkout, each side in its own child process with
the BLAS environment of ``perfbench/run.py`` (``len(os.sched_getaffinity(0))``
threads): the quantum hash's bits depend on the BLAS thread count, and at that
count the benchmark checks digests and flags against
``perfbench/reference.json``.  The CSVs, flags and summaries are kept in a
temporary directory.  For each instance it prints whether the CSV digest
moved, the largest absolute change in each numeric column of a moved CSV,
every flag that flipped, the keys of the summary whose value changed (values
the CSV does not hold, such as ranks and fitted parameters), and whether this
checkout's digest and flags differ from the reference; then, per workload, one
line that counts the reference mismatches, one that counts moved digests and
flipped flags, and one that counts moved summaries.  Exit code 0 when no
digest moved, no flag flipped, no summary moved and every instance matches the
reference, 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def record(pools, checkout: Path, out: Path, names: list) -> None:
    """Child side: write ``<workload>/<key>.csv``, ``<key>.json`` (the flags)
    and ``<key>.summary.json`` for every pool instance, run with the qstego
    sources of ``checkout``."""
    from worker import flags_of, import_library

    ex = import_library(checkout)
    for name in names:
        (out / name).mkdir(parents=True)
        for inst in pools.pool(name, ROOT):
            result = ex.run_experiment(inst.config)
            (out / name / f"{inst.key}.csv").write_text(ex.render_csv(result))
            (out / name / f"{inst.key}.json").write_text(json.dumps(flags_of(result), sort_keys=True))
            (out / name / f"{inst.key}.summary.json").write_text(json.dumps(ex._jsonable(result.summary), sort_keys=True))


def column_changes(old: str, new: str) -> dict:
    """Largest absolute change of each column whose cells all parse as
    numbers on both sides; a column with any other change maps to the text
    "changed".  A changed header or row count maps "shape" to the counts."""
    a, b = (list(csv.reader(io.StringIO(text))) for text in (old, new))
    if a[0] != b[0] or len(a) != len(b):
        return {"shape": f"{len(a) - 1} rows of {len(a[0])} columns -> {len(b) - 1} rows of {len(b[0])} columns"}
    changes = {}
    for j, column in enumerate(a[0]):
        cells = [(x[j], y[j]) for x, y in zip(a[1:], b[1:])]
        try:
            changes[column] = max((abs(float(y) - float(x)) for x, y in cells), default=0.0)
        except ValueError:
            if any(x != y for x, y in cells):
                changes[column] = "changed"
    return changes


def summary_changes(old: dict, new: dict) -> list:
    """The keys of two summaries whose values differ as JSON text (so -0.0
    differs from 0.0), a key on one side only included."""
    return sorted(
        key
        for key in old.keys() | new.keys()
        if key not in old or key not in new or json.dumps(old[key]) != json.dumps(new[key])
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("--workload", action="append", help="workload to diff (repeatable; default: all)")
    ap.add_argument("--child", nargs=2, metavar=("CHECKOUT", "OUT"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads as pools
    from worker import csv_sha256

    names = args.workload or list(pools.NAMES)
    if args.child:
        record(pools, Path(args.child[0]), Path(args.child[1]), names)
        return 0

    threads = str(len(os.sched_getaffinity(0)))
    bench_env = dict(
        os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads, PYTHONHASHSEED="0"
    )
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    moved_total = flipped_total = differ_total = summaries_total = 0
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"parent": Path(args.parent).resolve(), "change": ROOT}
        children = [
            subprocess.Popen(
                [sys.executable, __file__, str(sides["parent"]), *sum((["--workload", n] for n in names), []),
                 "--child", str(root), str(Path(tmp) / side)],
                env=bench_env,
            )
            for side, root in sides.items()
        ]
        if any(child.wait() for child in children):
            raise SystemExit("a child run failed")
        for name in names:
            moved = flipped = differ = summaries = 0
            pool = pools.pool(name, ROOT)
            for inst in pool:
                text = {s: (Path(tmp) / s / name / f"{inst.key}.csv").read_text() for s in sides}
                flags = {s: json.loads((Path(tmp) / s / name / f"{inst.key}.json").read_text()) for s in sides}
                summary = {s: json.loads((Path(tmp) / s / name / f"{inst.key}.summary.json").read_text()) for s in sides}
                digests = {s: csv_sha256(t) for s, t in text.items()}
                line = f"{name:12s} {inst.slot}:{inst.label:28s}"
                if digests["parent"] == digests["change"]:
                    line += " same"
                else:
                    moved += 1
                    changes = column_changes(text["parent"], text["change"])
                    line += " MOVED " + ", ".join(
                        f"{c} {v:.3g}" if isinstance(v, float) else f"{c} {v}" for c, v in changes.items()
                    )
                for flag in sorted(set(flags["parent"]) | set(flags["change"])):
                    old, new = flags["parent"].get(flag), flags["change"].get(flag)
                    if old != new:
                        flipped += 1
                        line += f"  FLIPPED {flag}: {old} -> {new}"
                keys = summary_changes(summary["parent"], summary["change"])
                if keys:
                    summaries += 1
                    line += "  SUMMARY " + ", ".join(keys)
                ref = reference.get(name, {}).get(inst.key)
                if ref is None or (ref["csv_sha256"], ref["flags"]) != (digests["change"], flags["change"]):
                    differ += 1
                    line += f"  DIFFERS from reference.json at {threads} BLAS threads"
                print(line)
            print(f"{name}: {differ} of {len(pool)} instances differ from reference.json at {threads} BLAS threads")
            print(f"{name}: {moved} of {len(pool)} digests moved, {flipped} flags flipped")
            print(f"{name}: {summaries} of {len(pool)} summaries moved")
            moved_total += moved
            flipped_total += flipped
            differ_total += differ
            summaries_total += summaries
    return int(bool(moved_total or flipped_total or differ_total or summaries_total))


if __name__ == "__main__":
    raise SystemExit(main())
