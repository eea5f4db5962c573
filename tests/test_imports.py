"""numpy and the layer modules load only in the commands that use them, and
mpmath, a test-only dependency, in none.

Every command is a fresh process, so a library imported at module level is
paid for by every command, and so is compiling a layer module it never
calls.  The checks run in a fresh interpreter: the pytest session has long
since imported both libraries and every layer.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
HARNESS = ROOT / "perfbench" / "traced_child.py"

NEITHER = [
    ["series", "delta", "--order", "60"],
    ["trace", "--weight", "24", "--n", "40"],
    ["classgroup", "-84"],
    ["ecc", "verify", "--q", "11"],
    ["bh", "classify", "-20"],
    ["bh", "tau", "1", "1", "6"],
    ["cft", "zk", "--k", "1"],
    # the Rademacher sums run in Python integers
    ["rademacher", "tau", "--n", "3", "--cmax", "20"],
    ["rademacher", "rd", "--d", "1", "--n", "2", "--cmax", "20"],
    ["rademacher", "invdelta", "--n", "2", "--cmax", "20"],
    ["cft", "zk", "--k", "1", "--cmax", "20"],
    # and so do the CM-point values
    ["singular-trace", "--n", "3"],
    ["bh", "hilbert", "-479"],
]
# one interpreter runs them in this order, so the libraries loaded after a
# command are those it loaded or an earlier command did
COMMANDS = NEITHER

CHILD = """
import contextlib, importlib.util, io, json, sys

def loaded(names=("numpy", "mpmath")):
    return sorted(m for m in names if m in sys.modules)

import classforms.cli
report = {"import": loaded(), "records": loaded(("dataclasses", "inspect")),
          "unresolved": [], "commands": []}

spec = importlib.util.spec_from_file_location("traced_child", sys.argv[1])
harness = importlib.util.module_from_spec(spec)
spec.loader.exec_module(harness)
for _, path, names, _, _ in harness.LAYER_ENTRIES:
    owner = sys.modules["classforms"]
    for part in path.split("."):
        owner = getattr(owner, part, None)
    for name in names:
        if not callable(getattr(owner, name, None)):
            report["unresolved"].append(path + "." + name)

for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = classforms.cli.main(argv)
    report["commands"].append([argv, code, loaded()])
print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def child_report():
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(HARNESS), json.dumps(COMMANDS)],
        capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    return json.loads(out.stdout)


def _libraries_after(report, argv):
    runs = [(code, libs) for run_argv, code, libs in report["commands"] if run_argv == argv]
    assert len(runs) == 1, argv
    code, libs = runs[0]
    assert code == 0, argv
    return libs


def test_import_cli_loads_neither_library(child_report):
    assert child_report["import"] == []


def test_import_cli_loads_neither_dataclasses_nor_inspect(child_report):
    # the records are NamedTuples; importing dataclasses (and with it
    # inspect) cost about 20 ms in every process
    assert child_report["records"] == []


def test_import_cli_binds_every_traced_layer_on_the_package(child_report):
    assert child_report["unresolved"] == []


def test_exact_commands_load_neither_library(child_report):
    for argv in NEITHER:
        assert _libraries_after(child_report, argv) == [], argv


def _imports_mpmath(node):
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "mpmath" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mpmath"


# rademacher's error-bounded balls: the format is known in that module alone
BALL_HELPERS = {"_add", "_mul", "_div", "_shift", "_cm_sums", "_cm_value"}


def _imports_ball_helper(node):
    return (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "rademacher"
            and any(alias.name in BALL_HELPERS for alias in node.names))


def _offenders(imports, exempt=()):
    """module:line of every import, at module level or inside a function, that
    `imports` flags in a package module outside `exempt`."""
    sources = sorted((ROOT / "src" / "classforms").glob("*.py"))
    assert len(sources) >= 12
    return [f"{path.name}:{node.lineno}" for path in sources if path.stem not in exempt
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if imports(node)]


def test_no_module_imports_mpmath():
    # mpmath is a test-only dependency: the oracles in tests/ use it, the
    # package does not
    assert _offenders(_imports_mpmath) == []


def test_no_module_but_rademacher_imports_a_ball_helper():
    assert _imports_ball_helper(ast.parse("from .rademacher import PrecisionError, _mul").body[0])
    assert not _imports_ball_helper(ast.parse("from .rademacher import _j_at").body[0])
    assert _offenders(_imports_ball_helper, exempt={"rademacher"}) == []


# The layers each command runs: its own module and those that module imports
# names from.  The rest stay registered but unexecuted on the package.
OWN_LAYERS = [
    (["trace", "--weight", "12", "--n", "30"], ["arith", "qseries", "quadforms"]),
    (["series", "delta", "--order", "60"], ["arith", "qseries"]),
    (["ecc", "verify", "--q", "11"], ["arith", "eccensus", "quadforms"]),
    (["classgroup", "-84"], ["arith", "classgroup", "quadforms"]),
    (["bh", "tau", "1", "1", "6"], ["arith", "attractor", "quadforms", "rademacher"]),
    (["bh", "hilbert", "-479"], ["arith", "attractor", "quadforms", "rademacher"]),
    (["singular-trace", "--n", "3"], ["arith", "qseries", "quadforms", "rademacher"]),
    (["rademacher", "tau", "--n", "3", "--cmax", "20"],
     ["arith", "qseries", "quadforms", "rademacher"]),
    (["stats", "ng", "--g", "3", "--x", "100"], ["arith", "classgroup", "quadforms", "tables"]),
    (["cft", "polar", "--mmax", "50"], ["arith", "cftx", "tables"]),
]

LAYERS_CHILD = """
import contextlib, io, json, sys, types

def executed():
    # a layer not yet run is still a LazyLoader module, of a ModuleType
    # subclass; reading its type does not run it
    return sorted(name.split(".", 1)[1] for name, module in list(sys.modules.items())
                  if name.startswith("classforms.") and name != "classforms.cli"
                  and type(module) is types.ModuleType)

import classforms.cli
report = {"import": executed()}
argv = json.loads(sys.argv[1])
if argv:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        report["code"] = classforms.cli.main(argv)
    report["command"] = executed()
print(json.dumps(report))
"""


def _layer_report(argv):
    out = subprocess.run(
        [sys.executable, "-c", LAYERS_CHILD, json.dumps(argv)],
        capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    return json.loads(out.stdout)


def test_import_cli_executes_no_layer_module():
    assert _layer_report(None)["import"] == []


@pytest.mark.parametrize("argv, layers", OWN_LAYERS,
                         ids=[" ".join(a[:2]) if a[1].isalpha() else a[0] for a, _ in OWN_LAYERS])
def test_each_command_executes_only_its_own_layers(argv, layers):
    report = _layer_report(argv)
    assert report["code"] == 0
    assert report["command"] == layers
