"""Largest dimension at which ``simulate/cc-noiseless`` completes within a
time and a memory budget.

    python3 scripts/dim_reach.py [--seconds S] [--mb MB] [--dims D ...] [--root CHECKOUT]

For each d of ``--dims`` in order (default 256, 512, 1024, 2048) it runs the
CLI, ``python -m qstego.cli simulate cc-noiseless``, in its own child process
on the identity channel of dimension d with two random diagonal codewords
(the form of the ``large-d`` identity slot), M_bar = 4 and zeta = 0.05.  The
child inherits this process's environment, BLAS thread count included.  The
time budget is the child's timeout; the child is also killed as soon as its
resident set (``VmRSS`` of ``/proc/<pid>/status``) exceeds the memory budget,
so a d too large for the machine does not run it out of memory.  For each d
it prints the wall time and the child's ``ru_maxrss`` in MB (2^20 bytes),
stops at the first d over either budget, and prints the reach: the largest d
that completed within both.  ``--root`` names the checkout whose ``src`` is
run; default this one, so the script can also measure a parent checkout.
A run that completes with a failed flag (CLI exit code 1) counts as
completed.  Exit code 0 unless a child fails for another reason than a
budget.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
MB = 2.0**20
#: seconds between two looks at a running child
POLL_S = 0.05


def config(d: int) -> dict:
    """The cc-noiseless config of dimension d: identity channel, two random
    diagonal codewords, M_bar = 4, zeta = 0.05."""
    rng = np.random.default_rng(d)
    codewords = []
    for _ in range(2):
        weights = 0.05 + rng.random(d)
        codewords.append({"kind": "diag", "probs": (weights / weights.sum()).tolist()})
    params = {
        "m": {"kind": "identity", "dim": d},
        "codewords": codewords,
        "n": d.bit_length() - 1,
        "mbar": 4,
        "zeta": 0.05,
    }
    return {"kind": "simulate/cc-noiseless", "seed": 14, "params": params}


def rss_bytes(pid: int) -> int:
    """Current resident set of a running process, 0 when it cannot be read."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


def run(root: Path, d: int, seconds: float, mb: float, work: Path) -> tuple:
    """(wall s, ru_maxrss MB, verdict) of one child run at dimension d; the
    verdict is "ok", "time" or "memory" (the budget that stopped it)."""
    path = work / f"d{d}.json"
    path.write_text(json.dumps(config(d)))
    cmd = [sys.executable, "-m", "qstego.cli", "simulate", "cc-noiseless", "--config", str(path), "--out", str(work)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    # stderr goes to a file: a pipe nobody reads while polling could fill and stall the child
    err = work / f"d{d}.err"
    start = time.monotonic()
    with err.open("w") as stderr:
        child = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=stderr)
    verdict = "ok"
    # wait4 reaps the child and returns its own rusage; polling with WNOHANG
    # leaves it unreaped until then, so a kill never reaches a reused pid
    while True:
        pid, status, usage = os.wait4(child.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() - start > seconds:
            verdict = "time"
        elif rss_bytes(child.pid) > mb * MB:
            verdict = "memory"
        if verdict != "ok":
            child.kill()
            _, status, usage = os.wait4(child.pid, 0)
            break
        time.sleep(POLL_S)
    wall = time.monotonic() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    # the CLI exits 1 when a run completes with a failed flag
    if verdict == "ok" and child.returncode not in (0, 1):
        raise SystemExit(f"d = {d}: exit code {child.returncode}\n{err.read_text()}")
    return wall, usage.ru_maxrss * 1024 / MB, verdict


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=120.0, help="time budget per d (default 120)")
    ap.add_argument("--mb", type=float, default=1024.0, help="memory budget per d in MB (default 1024)")
    ap.add_argument("--dims", type=int, nargs="+", default=[256, 512, 1024, 2048])
    ap.add_argument("--root", type=Path, default=ROOT, help="checkout to measure (default: this one)")
    args = ap.parse_args(argv)
    root = args.root.resolve()
    print(f"qstego from {root / 'src'}; budget {args.seconds:g} s and {args.mb:g} MB per d")
    print(f"{'d':>6s} {'wall_s':>8s} {'maxrss_mb':>10s}  verdict")
    reach = None
    with tempfile.TemporaryDirectory() as tmp:
        for d in args.dims:
            wall, rss, verdict = run(root, d, args.seconds, args.mb, Path(tmp))
            if verdict == "ok" and rss > args.mb:
                verdict = "memory"
            shown = verdict if verdict == "ok" else f"over the {verdict} budget"
            print(f"{d:6d} {wall:8.1f} {rss:10.1f}  {shown}")
            if verdict != "ok":
                break
            reach = d
    print(f"reach: d = {reach}" if reach else "reach: none of the dimensions")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
