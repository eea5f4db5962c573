"""numpy and mpmath load only in the commands that use them.

Every command is a fresh process, so a library imported at module level is
paid for by every command.  The checks run in a fresh interpreter: the
pytest session has long since imported both libraries and every layer.
"""

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
]
MPMATH_ONLY = [
    ["rademacher", "tau", "--n", "3", "--cmax", "20"],
    ["singular-trace", "--n", "3"],
    ["bh", "hilbert", "-479"],
    ["cft", "zk", "--k", "1", "--cmax", "20"],
]
# one interpreter runs them in this order, so the libraries loaded after a
# command are those it loaded or an earlier command did
COMMANDS = NEITHER + MPMATH_ONLY

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


def test_rademacher_commands_load_mpmath_only(child_report):
    for argv in MPMATH_ONLY:
        assert _libraries_after(child_report, argv) == ["mpmath"], argv
