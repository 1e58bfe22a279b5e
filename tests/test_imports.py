import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Imports each module named on the command line as the first qstego module
# of the interpreter: every qstego entry of sys.modules is dropped before
# each import, so an import cycle shows whichever module starts it.
CHILD = """
import importlib, sys, traceback
failed = []
for name in sys.argv[1:]:
    for loaded in [m for m in sys.modules if m == "qstego" or m.startswith("qstego.")]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception:
        failed.append(name + ":\\n" + traceback.format_exc())
print("\\n".join(failed))
sys.exit(1 if failed else 0)
"""


def module_names():
    for path in sorted((SRC / "qstego").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        yield ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def test_each_module_imports_first():
    names = list(module_names())
    assert "qstego.rates" in names and "qstego.protocols.stego_cc_es" in names
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cp = subprocess.run([sys.executable, "-c", CHILD, *names], capture_output=True, text=True, env=env)
    assert cp.returncode == 0, cp.stdout + cp.stderr
