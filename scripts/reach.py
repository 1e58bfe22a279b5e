"""What of ``src/qstego`` a runner reaches.

    python3 scripts/reach.py

Runs every instance of every benchmark workload pool (``perfbench/workloads.py``)
through ``run_experiment`` + ``render_csv`` and every ``configs/*.json``
through ``cli.main`` (outputs go to a temporary directory), with a
``sys.settrace`` hook that records only frames of code under ``src/qstego``.
Tracing starts before ``qstego`` is imported (by ``perfbench/worker.py``'s
``import_library``), so module-level code counts.

Prints the functions (lambdas and nested functions included) that were never
called, then, for the code that was called, the lines that were never hit,
each as ``path:line``.  Exits 0; the output is a list to read, not a gate.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "src" / "qstego"
sys.path.insert(0, str(ROOT / "perfbench"))

called = set()  # code objects entered
hit = set()  # (filename, line)
PREFIX = str(PKG) + os.sep


def _local(frame, event, arg):
    if event == "line":
        hit.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    code = frame.f_code
    if not code.co_filename.startswith(PREFIX):
        return None
    called.add(code)
    hit.add((code.co_filename, frame.f_lineno))
    return _local


def code_objects(code):
    """``code`` and every code object nested in it."""
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            yield from code_objects(const)


def run_everything():
    import workloads
    from worker import import_library

    experiments = import_library(ROOT)
    from qstego import cli

    for name in workloads.NAMES:
        for inst in workloads.pool(name, ROOT):
            experiments.render_csv(experiments.run_experiment(inst.config))
    with tempfile.TemporaryDirectory() as out:
        for path in sorted((ROOT / "configs").glob("*.json")):
            group, kind = json.loads(path.read_text())["kind"].split("/")
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main([group, kind, "--config", str(path), "--out", out])


def main() -> int:
    sys.settrace(_global)
    try:
        run_everything()
    finally:
        sys.settrace(None)

    # match by (file, first line, name): the traced code objects are the ones
    # the import compiled, which are equal to but not the same as these
    reached = {(c.co_filename, c.co_firstlineno, c.co_name) for c in called}
    never_called, never_hit = [], []
    for path in sorted(PKG.rglob("*.py")):
        filename = str(path)
        rel = path.relative_to(ROOT)
        module = compile(path.read_text(), filename, "exec")
        for code in code_objects(module):
            if (code.co_filename, code.co_firstlineno, code.co_name) not in reached:
                if code is not module:
                    never_called.append(f"{rel}:{code.co_firstlineno} {code.co_qualname}")
                continue
            lines = {line for _, _, line in code.co_lines() if line is not None}
            never_hit += [(str(rel), line) for line in lines if (filename, line) not in hit]

    print(f"never called ({len(never_called)}):")
    for item in never_called:
        print(f"  {item}")
    print(f"never hit, in called code ({len(never_hit)}):")
    for rel, line in sorted(set(never_hit), key=lambda t: (t[0], t[1])):
        print(f"  {rel}:{line}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
