import ast
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


def unread_parameters(path: Path):
    """"file:line function(parameter)" for each parameter of a function or
    lambda in ``path`` that no name in its body loads; a runner's ``seed``
    (the dispatch passes it to every ``_run_*``) is exempt."""
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        for param in params:
            if param not in read and not (name.startswith("_run_") and param == "seed"):
                yield f"{path.relative_to(SRC)}:{node.lineno} {name}({param})"


def test_every_parameter_is_read():
    paths = sorted((SRC / "qstego").rglob("*.py"))
    assert SRC / "qstego" / "experiments.py" in paths
    assert [u for path in paths for u in unread_parameters(path)] == []


def test_no_function_is_named_like_a_test():
    # pytest collects a test_* function that a test module imports at top
    # level, so a library function must not be named that way
    paths = sorted((SRC / "qstego").rglob("*.py"))
    named = [
        f"{path.relative_to(SRC)}:{node.lineno} {node.name}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name.startswith("test")
    ]
    assert named == []


def test_every_qstego_import_is_relative():
    # the sources can then be loaded under another package name, for example
    # a parent checkout next to this one in the same interpreter
    absolute = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted((SRC / "qstego").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Import) and any(a.name.split(".")[0] == "qstego" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").split(".")[0] == "qstego")
    ]
    assert absolute == []


# Loads the tree under src/qstego as the package "qcopy" and imports each
# module named on the command line from it; fails when any "qstego" module
# was loaded on the way.
COPY = """
import importlib, importlib.util, sys
root = sys.argv[1]
spec = importlib.util.spec_from_file_location("qcopy", root + "/__init__.py", submodule_search_locations=[root])
sys.modules["qcopy"] = package = importlib.util.module_from_spec(spec)
spec.loader.exec_module(package)
for name in sys.argv[2:]:
    importlib.import_module("qcopy" + name[len("qstego"):])
shared = sorted(m for m in sys.modules if m == "qstego" or m.startswith("qstego."))
print(shared)
sys.exit(1 if shared else 0)
"""


def test_a_copy_under_another_name_shares_no_module():
    # the tree can be loaded a second time next to another checkout's, with
    # no module object of one side used by the other
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cp = subprocess.run(
        [sys.executable, "-c", COPY, str(SRC / "qstego"), *module_names()], capture_output=True, text=True, env=env
    )
    assert cp.returncode == 0, cp.stdout + cp.stderr
