"""Alternated benchmark pairs: a parent checkout against this one.

    python3 scripts/bench_pairs.py --parent CHECKOUT --workload W --pairs N --seconds S
                                   [--seed SEED] [--change CHECKOUT]

Pair i runs ``perfbench/run.py --workload W --seed SEED+i --seconds S --trace 0``
once in each checkout, one run after the other; the parent runs first in the
first half of the pairs and second in the rest, so a drift of the machine
over the whole run does not favour one side.  For every end-to-end metric of
the change's ``BENCHMARK.json`` it prints each side's median and quartiles
(q1-q3), the median ratio change/parent, in how many of the pairs the
change read lower ("lower in k of n"; ties count for neither), the metric's
relative ``bound`` and a verdict (see :func:`verdict`).  It also prints the
median and quartiles of the per-pair ratios (change/parent within each pair,
:func:`pair_ratios`), which cancel a drift of the machine between pairs.  A run that is not
``correct`` stops the script with exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def run(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The result line of one perfbench/run.py run of the checkout at ``root``.

    The run gets a fresh, empty bytecode cache (``PYTHONPYCACHEPREFIX``) that
    it does not write to, so every process of it compiles what it imports and
    no run reads a checkout's ``__pycache__``: ``setup_s`` of two checkouts is
    then compared from equal caches.
    """
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    with tempfile.TemporaryDirectory() as cache:
        env = dict(os.environ, PYTHONPYCACHEPREFIX=cache, PYTHONDONTWRITEBYTECODE="1")
        out = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, check=True).stdout.splitlines()
    return json.loads(out[-1])


def quartiles(values: list) -> tuple:
    """(q1, median, q3), inclusive method: q1 and q3 stay within the samples."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def verdict(parent: list, change: list, bound: float) -> str:
    """"worse" when the change's median exceeds the parent's by more than
    ``bound`` times the parent's median; "unresolved" when the parent's spread
    (q3 - q1) exceeds ``bound`` times its median and not every change run is
    lower than every parent run; otherwise "within bound".  Lower is better,
    as for every end-to-end metric of ``BENCHMARK.json``."""
    (p1, pm, p3), (_, cm, _) = quartiles(parent), quartiles(change)
    if cm - pm > bound * pm:
        return "worse"
    if p3 - p1 > bound * pm and not max(change) < min(parent):
        return "unresolved"
    return "within bound"


def pair_ratios(parent: list, change: list) -> list:
    """change/parent of each pair, in pair order (NaN where parent is 0)."""
    return [c / p if p else float("nan") for p, c in zip(parent, change)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", default=str(Path(__file__).resolve().parent.parent))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair; pair i uses SEED+i")
    args = ap.parse_args(argv)
    roots = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    bench = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {side: {name: [] for name, _ in metrics} for side in roots}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i < (args.pairs + 1) // 2 else ("change", "parent")
        for side in order:
            result = run(roots[side], args.workload, seed, args.seconds, 0)
            if not result["correct"]:
                raise SystemExit(f"{roots[side]}: seed {seed}: run not correct "
                                 f"({result['failed']} of {result['attempted']} failed)")
            for name, _ in metrics:
                values[side][name].append(result["metrics"][name]["value"])
        print(f"pair {i + 1}/{args.pairs} seed {seed} ({order[0]} first): " + ", ".join(
            f"{name} {values['parent'][name][-1]:.4g} -> {values['change'][name][-1]:.4g}" for name, _ in metrics
        ), flush=True)

    print(f"workload={args.workload} pairs={args.pairs} seconds={args.seconds} seeds={args.seed}..{args.seed + args.pairs - 1}")
    for name, unit in metrics:
        parent, change = values["parent"][name], values["change"][name]
        (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
        lower = sum(c < p for p, c in zip(parent, change))
        ratio = cm / pm if pm else float("nan")
        r1, rm, r3 = quartiles(pair_ratios(parent, change))
        print(f"  {name:12s} parent {pm:.4g} {unit} (q1-q3 {p1:.4g}-{p3:.4g})  change {cm:.4g} {unit} "
              f"(q1-q3 {c1:.4g}-{c3:.4g})  ratio {ratio:.3f}  pair ratios {rm:.3f} (q1-q3 {r1:.3f}-{r3:.3f})  "
              f"lower in {lower} of {args.pairs}  bound {bounds[name]:g}: {verdict(parent, change, bounds[name])}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
