"""Record one BENCH_<n>.json: every benchmark workload, untraced and traced.

    python3 scripts/bench_record.py --seed N --out BENCH_<n>.json [--root CHECKOUT] [--label TEXT]

Runs ``perfbench/run.py --workload W --seed N --seconds S --trace T`` of the
checkout at ``--root`` (default: this one) by ``bench_pairs.run`` for every
workload of its ``BENCHMARK.json`` and T = 0, 1, one run after another, and
writes their JSON result lines, the environment of the first run and the
line counts of every module under ``src/qstego`` to one file.  The schema is
described in README.md ("Benchmark"); two files of it diff line by line.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from bench_pairs import run

SCHEMA = 1


def module_lines(root: Path) -> dict:
    pkg = root / "src" / "qstego"
    return {str(f.relative_to(pkg)): len(f.read_text().splitlines()) for f in sorted(pkg.rglob("*.py"))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--root", default=str(Path(__file__).resolve().parent.parent))
    ap.add_argument("--label", default="", help="what was measured, such as the commit")
    args = ap.parse_args(argv)
    root = Path(args.root).resolve()
    bench = json.loads((root / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    env, runs = None, {}
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            result = run(root, workload, args.seed, seconds, trace)
            # the environment is in the full result run.py writes under .bench_out/
            full = root / ".bench_out" / f"{workload}-seed{args.seed}-trace{trace}.json"
            env = env or json.loads(full.read_text())["env"]
            runs.setdefault(workload, {})[f"trace{trace}"] = result
    lines = module_lines(root)
    record = {
        "schema": SCHEMA,
        "label": args.label,
        "command": f"python3 perfbench/run.py --workload W --seed {args.seed} --seconds {seconds} --trace T",
        "seed": args.seed,
        "seconds": seconds,
        "env": env,
        "runs": runs,
        "src_lines": lines | {"total": sum(lines.values())},
    }
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0 if all(r["correct"] for w in runs.values() for r in w.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
