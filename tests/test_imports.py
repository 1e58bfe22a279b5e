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


ROOT = SRC.parent

# Loads each script named on the command line from its file, under its stem
# (so its ``main`` does not run), with the scripts' directory first on
# sys.path, as when a script is run.
SCRIPTS = """
import importlib.util, sys, traceback
from pathlib import Path
sys.path.insert(0, str(Path(sys.argv[1]).parent))
failed = []
for path in map(Path, sys.argv[1:]):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    try:
        spec.loader.exec_module(importlib.util.module_from_spec(spec))
    except Exception:
        failed.append(f"{path}:\\n{traceback.format_exc()}")
print("\\n".join(failed))
sys.exit(1 if failed else 0)
"""


def test_each_script_imports():
    # in a child process, which keeps the scripts' sys.path edits out of this one
    scripts = sorted((ROOT / "scripts").glob("*.py"))
    assert ROOT / "scripts" / "bench_record.py" in scripts and ROOT / "scripts" / "reach.py" in scripts
    cp = subprocess.run([sys.executable, "-c", SCRIPTS, *map(str, scripts)], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stdout + cp.stderr


def defaulted_parameters():
    """(function, parameter, position) for each parameter with a default of
    a function in ``src/qstego``, the function named "module.name" and the
    position None for a keyword-only parameter; the functions
    ``experiments._call`` reads (whose defaults the registry tests check
    against the configs and workloads) and ``cli.main``, whose ``argv=None``
    is the console-script entry, are exempt."""
    from qstego import experiments

    readers = list(experiments.RUNNERS.values())
    for _, reader in experiments.READERS.values():  # a number's is its type, a kinded spec's a dict
        readers += reader.values() if isinstance(reader, dict) else [reader]
    exempt = {"experiments._config", "cli.main"}  # "_config": the reader of a config's top level
    for reader in readers:
        fn = getattr(reader, "func", reader)  # a textbook channel's reader is a partial
        exempt.add(f"{fn.__module__.removeprefix('qstego.')}.{fn.__name__}")
    for path in sorted((SRC / "qstego").rglob("*.py")):
        module = ".".join(path.relative_to(SRC / "qstego").with_suffix("").parts)
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or f"{module}.{node.name}" in exempt:
                continue
            a = node.args
            positional = [*a.posonlyargs, *a.args]
            for i, p in enumerate(positional[len(positional) - len(a.defaults) :], len(positional) - len(a.defaults)):
                yield f"{module}.{node.name}", p.arg, i
            for p, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None:
                    yield f"{module}.{node.name}", p.arg, None


def defaulted_fields():
    """(class, field, position) for each field with a default of a dataclass
    in ``src/qstego``, the class named "module.Name" and the position the
    field's place among the constructor's parameters; a field the
    constructor does not take (``field(init=False)``) is skipped."""

    def name(node):
        return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)

    def in_init(value):
        return not (
            isinstance(value, ast.Call)
            and name(value.func) == "field"
            and any(k.arg == "init" and getattr(k.value, "value", True) is False for k in value.keywords)
        )

    for path in sorted((SRC / "qstego").rglob("*.py")):
        module = ".".join(path.relative_to(SRC / "qstego").with_suffix("").parts)
        for node in ast.walk(ast.parse(path.read_text())):
            decorators = [d.func if isinstance(d, ast.Call) else d for d in getattr(node, "decorator_list", [])]
            if not isinstance(node, ast.ClassDef) or "dataclass" not in map(name, decorators):
                continue
            fields = [f for f in node.body if isinstance(f, ast.AnnAssign) and in_init(f.value)]
            for i, f in enumerate(fields):
                if f.value is not None:
                    yield f"{module}.{node.name}", f.target.id, i


def calls_by_name():
    """Function name -> every call of that name (``f(...)`` or ``x.f(...)``)
    in ``src/``, ``perfbench/`` and ``scripts/``."""
    calls = {}
    for top in ("src", "perfbench", "scripts"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                    name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                    calls.setdefault(name, []).append(node)
    return calls


def test_every_library_default_is_used_and_overridable():
    # a default that every caller overrides is one nobody uses, and one that
    # no caller overrides is a constant in disguise; a call passes a
    # parameter when its positional arguments reach it, it names it or it
    # has a ** argument.  A dataclass field's callers are the calls of its
    # class: a ``replace`` call that names the field copies an instance such
    # a call built, so a default no class call passes is still the value every
    # instance is built with; the message counts those ``replace`` calls
    calls = calls_by_name()
    defaults = [(*default, "") for default in defaulted_parameters()]
    for cls, field, position in defaulted_fields():
        named = sum(any(k.arg == field for k in c.keywords) for c in calls.get("replace", []))
        defaults.append((cls, field, position, f", named by {named} replace calls"))
    folded = []
    for function, param, position, note in defaults:
        found = calls.get(function.rsplit(".", 1)[1], [])
        passing = sum(
            (position is not None and len(c.args) > position)
            or any(k.arg == param or k.arg is None for k in c.keywords)
            for c in found
        )
        if passing in (0, len(found)):
            folded.append(f"{function}({param}): passed by {passing} of {len(found)} calls{note}")
    assert folded == []


def test_no_runner_body_raises():
    # a runner's keys are checked as they are read, against the ranges their
    # annotations declare, and a key that restates the input dimension of m by
    # ``experiments._check_input_dim``: a check in a runner body would be a
    # second copy.  The pj-bound runner re-raises a bound error that is not
    # "vacuous", which is no check of its own
    tree = ast.parse((SRC / "qstego" / "experiments.py").read_text())
    runners = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name.startswith("_run_")]
    raises = [
        f"experiments.py:{node.lineno} {runner.name}"
        for runner in runners
        for node in ast.walk(runner)
        if isinstance(node, ast.Raise) and not (node.exc is None and runner.name == "_run_verify_pj_bound")
    ]
    assert len(runners) > 10 and raises == []
