"""qstego benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports qstego from its ``src``;
it exits 2 without a result when that is missing.  Each workload runs in
processes of its own (``worker.py``), single-threaded closed loop, BLAS
threads capped at the number of usable cores.

--trace 0 prints the end-to-end metrics:
  setup_s         process start -> first timed instance (import qstego and
                  numpy, generate inputs, one untimed warm-up instance);
                  median over the measuring process and SETUP_PROBES
                  set-up-only processes, half started before it and half
                  after, so they sample the same stretch of time as pass_s
  pass_s          median wall time of one pass over the workload's instances
  instance_p90_s  per-instance wall time at the highest percentile with at
                  least 10 samples beyond it, pooled over the run's passes
                  (printed only, see PRINTED_ONLY)
  peak_rss_mb     ru_maxrss of the measuring process
--trace 1 prints the per-layer metrics of a separate run that alternates
untraced and traced passes (see tracer.py), after checking that traced CSV
digests equal untraced ones and that every count repeats exactly.

Every instance is checked against perfbench/reference.json (CSV sha256 and
flags); ``correct`` is false when any check fails.  Human-readable lines
(environment, every metric with unit and sample count, fail_ratio) come first;
the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 6
#: time limit of a run: this allowance for the set-up processes plus
#: (worker.BUDGET_FACTOR + 1) x --seconds for the measuring process
SETUP_ALLOWANCE_S = 50.0
TAIL_SAMPLES = 10
#: printed, with these units, but left out of the JSON result.  A
#: single-instance tail is not steady enough on a shared 2-vCPU machine to gate
#: at the largest allowed bound (its IQR/median over 10 seeds reached 0.26-0.32
#: on `shipped`); fail_ratio reads 0 and is carried by attempted/failed.
PRINTED_ONLY = {"instance_p90_s": "s", "fail_ratio": "ratio"}


class WorkerError(RuntimeError):
    pass


def units() -> dict:
    """Unit of every metric: BENCHMARK.json's, plus the printed-only ones."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]} | PRINTED_ONLY


def tail(samples: list) -> tuple:
    """(value, percentile) at the highest percentile with TAIL_SAMPLES samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_SAMPLES:
        return ordered[-1], 100.0
    return ordered[n - TAIL_SAMPLES - 1], 100.0 * (n - TAIL_SAMPLES) / n


def spawn(mode: str, args, env: dict, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--mode", mode, "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--root", str(ROOT),
        "--spawned", repr(time.monotonic()),
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"{mode} worker exceeded the time limit")
    lines = [l for l in out.splitlines() if l.startswith("RESULT ")]
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1][len("RESULT "):])


def end_to_end(args, env, deadline):
    def probe():
        return spawn("setup", args, env, deadline)["setup_s"]

    setup = [probe() for _ in range(SETUP_PROBES // 2)]
    main = spawn("measure", args, env, deadline)
    setup += [main["setup_s"]] + [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    p90, pct = tail(main["instance_s"])
    metrics = {
        "setup_s": (statistics.median(setup), len(setup), ""),
        "pass_s": (statistics.median(main["pass_s"]), len(main["pass_s"]), f"{len(main['instances'])} instances per pass"),
        "instance_p90_s": (p90, len(main["instance_s"]), f"percentile {pct:.1f}; printed only"),
        "peak_rss_mb": (main["peak_rss_mb"], 1, "measuring process"),
    }
    return main, metrics


def per_layer(args, env, deadline):
    main = spawn("trace", args, env, deadline)
    passes = len(main["traced_pass_s"])
    metrics = {name: (value, passes, "") for name, value in main["metrics"].items()}
    return main, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="qstego benchmark (one workload, one run)")
    sys.path.insert(0, str(HERE))
    import workloads
    from worker import BUDGET_FACTOR

    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for needed in (ROOT / "src" / "qstego" / "experiments.py", ROOT / "configs"):
        if not needed.exists():
            print(f"run.py: {needed} is missing; run from a qstego source checkout", file=sys.stderr)
            return 2

    unit_of = units()
    deadline = time.monotonic() + SETUP_ALLOWANCE_S + (BUDGET_FACTOR + 1) * args.seconds
    cap = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=cap, OMP_NUM_THREADS=cap, MKL_NUM_THREADS=cap, PYTHONHASHSEED="0")
    try:
        result, metrics = (per_layer if args.trace else end_to_end)(args, env, deadline)
    except WorkerError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result, indent=1))
    env_info = result["env"]
    print(f"env: nproc={env_info['nproc']} python={env_info['python']} numpy={env_info['numpy']} "
          f"blas={env_info['blas']} blas_threads={env_info['blas_threads']}")
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} instances={','.join(result['instances'])}")
    for name, (value, samples, note) in metrics.items():
        print(f"  {name:32s} {value:>16.6g} {unit_of[name]:12s} n={samples}" + (f"  ({note})" if note else ""))
    print(f"  {'fail_ratio':32s} {result['failed'] / result['attempted']:>16.6g} {unit_of['fail_ratio']:12s} n={result['attempted']}")
    for failure in result["failures"]:
        print(f"FAILED {failure['slot']}:{failure['label']}: {failure['reason']}")
    for check in result["check_failures"]:
        print(f"FAILED trace check: {check}")
    correct = result["failed"] == 0 and not result["check_failures"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit_of[name]}
            for name, (value, _, _) in metrics.items()
            if name not in PRINTED_ONLY
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
