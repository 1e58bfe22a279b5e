"""One benchmark process for one workload; started by ``run.py``.

Modes:
  setup    import, generate the inputs, run the warm-up instance, report the
           set-up time and exit (``run.py`` starts several to take a median)
  measure  set up, then run the timed passes with tracing off
  trace    set up, then alternate untraced and traced passes and report the
           per-layer metrics of the traced ones

Both measuring modes stop early once BUDGET_FACTOR x --seconds have passed
(after at least one pass, or two traced pairs), so a slowdown shows as a larger
pass time rather than as a run killed by ``run.py``'s time limit.

Every instance runs in a closed loop (the next starts when the previous has
finished) through ``experiments.run_experiment`` followed by ``render_csv``,
as the CLI does, and is checked against its recorded reference (CSV sha256
and flags).  The last stdout line is ``RESULT <json>``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
BUDGET_FACTOR = 3


def parse_args(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--spawned", type=float, required=True, help="time.monotonic() when the parent started this process")
    return ap.parse_args(argv)


def import_library(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import qstego.experiments as experiments

    if not Path(experiments.__file__).resolve().is_relative_to(src):
        raise ImportError(f"qstego imported from {experiments.__file__}, not from {src}")
    return experiments


def environment() -> dict:
    import numpy as np

    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def flags_of(result) -> dict:
    return {k: bool(v) for k, v in result.flags.items()}


def csv_sha256(csv: str) -> str:
    return hashlib.sha256(csv.encode()).hexdigest()


class Runner:
    """Runs instances and checks each one against its reference."""

    def __init__(self, experiments, reference: dict, tracer=None):
        self.ex = experiments
        self.reference = reference
        self.tracer = tracer
        self.attempted = 0
        self.failures = []

    def run(self, inst, traced: bool = False):
        """Run one instance; returns (seconds, csv sha256 or None)."""
        self.attempted += 1
        span = self.tracer.open(self.tracer.name_id(f"bench.{inst.slot}", "bench")) if traced else None
        error = None
        t0 = perf_counter()
        try:
            # looked up on the module at call time, so a traced pass runs the wrappers
            result = self.ex.run_experiment(inst.config)
            csv = self.ex.render_csv(result)
        except Exception as exc:  # one failing instance must not stop the run
            error = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - t0
        if span is not None:
            self.tracer.close(span)
        if error is not None:
            self.failures.append({"slot": inst.slot, "label": inst.label, "reason": error})
            return elapsed, None
        digest = csv_sha256(csv)
        ref = self.reference.get(inst.key)
        if ref is None:
            reason = "no recorded reference for this instance"
        elif digest != ref["csv_sha256"]:
            reason = f"csv sha256 {digest[:12]} != reference {ref['csv_sha256'][:12]}"
        elif flags_of(result) != ref["flags"]:
            reason = f"flags {flags_of(result)} != reference {ref['flags']}"
        else:
            reason = None
        if reason is not None:
            self.failures.append({"slot": inst.slot, "label": inst.label, "reason": reason})
        return elapsed, digest

    def run_pass(self, instances, traced: bool = False):
        t0 = perf_counter()
        per_instance = [self.run(inst, traced) for inst in instances]
        return perf_counter() - t0, per_instance


def loc_by_layer(root: Path, layers) -> dict:
    pkg = root / "src" / "qstego"
    out = {}
    for layer in layers:
        files = sorted((pkg / layer).glob("*.py")) if (pkg / layer).is_dir() else [pkg / f"{layer}.py"]
        out[f"{layer}.loc"] = sum(len(f.read_text().splitlines()) for f in files)
    return out


def traced_passes(runner, tracer, instances, pairs: int, budget_end: float, out_file: Path) -> dict:
    from tracer import COUNT_METRICS

    untraced_s, traced_s, layer_runs, digests = [], [], [], {}
    for i in range(pairs):
        if i >= 2 and time.monotonic() > budget_end:
            break
        seconds, per = runner.run_pass(instances)
        untraced_s.append(seconds)
        for inst, (_, digest) in zip(instances, per):
            digests.setdefault(("untraced", inst.slot), set()).add(digest)
        tracer.reset()
        tracer.install()
        try:
            seconds, per = runner.run_pass(instances, traced=True)
        finally:
            tracer.uninstall()
        traced_s.append(seconds)
        for inst, (_, digest) in zip(instances, per):
            digests.setdefault(("traced", inst.slot), set()).add(digest)
        layer_runs.append(tracer.metrics())
    spans = tracer.spans()
    out_file.parent.mkdir(parents=True, exist_ok=True)
    import numpy as np

    np.savez_compressed(out_file, **spans)

    checks = [
        f"{inst.slot}: traced CSV digest differs from untraced"
        for inst in instances
        if digests[("traced", inst.slot)] != digests[("untraced", inst.slot)]
    ]
    checks += [
        f"{name} differs between traced passes: {sorted(values)}"
        for name in COUNT_METRICS
        if len(values := {run[name] for run in layer_runs}) > 1
    ]
    metrics = {}
    for name in layer_runs[0]:
        if name in COUNT_METRICS:
            metrics[name] = layer_runs[0][name]
        else:
            metrics[name] = statistics.median(run[name] for run in layer_runs)
    metrics["trace.overhead"] = statistics.median(traced_s) / statistics.median(untraced_s)
    return {
        "metrics": metrics,
        "check_failures": checks,
        "untraced_pass_s": untraced_s,
        "traced_pass_s": traced_s,
        "spans_file": str(out_file.relative_to(out_file.parents[1])),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(args.root)
    experiments = import_library(root)
    sys.path.insert(0, str(HERE))
    import workloads

    instances, warmup = workloads.generate(args.workload, args.seed, root)
    reference = json.loads((HERE / "reference.json").read_text())[args.workload]
    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.prepare()
    runner = Runner(experiments, reference, tracer)
    runner.run(warmup)
    setup_s = time.monotonic() - args.spawned
    out = {"setup_s": setup_s, "check_failures": []}
    budget_end = time.monotonic() + BUDGET_FACTOR * args.seconds
    if args.mode == "measure":
        pass_s, instance_s = [], []
        for i in range(workloads.passes(args.workload, args.seconds)):
            if i >= 1 and time.monotonic() > budget_end:
                break
            seconds, per = runner.run_pass(instances)
            pass_s.append(seconds)
            instance_s.extend(t for t, _ in per)
        out.update(pass_s=pass_s, instance_s=instance_s)
    elif args.mode == "trace":
        from tracer import LAYERS

        pairs = max(2, workloads.passes(args.workload, args.seconds) // 2)
        out_file = root / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.npz"
        out.update(traced_passes(runner, tracer, instances, pairs, budget_end, out_file))
        out["metrics"].update(loc_by_layer(root, LAYERS))
    out.update(
        attempted=runner.attempted,
        failed=len(runner.failures),
        failures=runner.failures[:20],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env=environment(),
        instances=[f"{i.slot}:{i.label}" for i in instances],
    )
    print("RESULT " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
