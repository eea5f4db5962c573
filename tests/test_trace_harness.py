"""The span harness in perfbench/ looks its targets up by name; keep them resolvable."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import classforms  # binds every layer module on the package, each run on first use

ROOT = Path(__file__).resolve().parent.parent
HARNESS = ROOT / "perfbench" / "traced_child.py"


def _load_harness():
    spec = importlib.util.spec_from_file_location("traced_child", HARNESS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_entry_resolves_to_a_callable():
    # resolution only: install() would rebind module globals for later tests.
    # An entry whose hook is a counter name counts lru_cache misses, and
    # install() reads cache_info() from it, so that must exist too
    harness = _load_harness()
    for _, path, names, _, after in harness.LAYER_ENTRIES:
        owner = classforms
        for part in path.split("."):
            owner = getattr(owner, part)
        for name in names:
            fn = getattr(owner, name, None)
            assert callable(fn), f"{path}.{name}"
            if isinstance(after, str):
                assert callable(getattr(fn, "cache_info", None)), f"{path}.{name} is not cached"


@pytest.mark.parametrize("argv, layer_calls", [
    (["classgroup", "-84"], ["classgroup.compose", "quadforms.enumerate"]),
    (["series", "j", "--order", "50"], ["qseries.mul"]),
], ids=["classgroup", "series j"])
def test_traced_run_counts_the_layer_calls(argv, layer_calls):
    # the layers run only on first use, after install() has listed sys.modules;
    # a layer missing from that list would keep its functions unwrapped and
    # report zero calls without any error
    out = subprocess.run(
        [sys.executable, str(HARNESS), *argv], capture_output=True, text=True, check=True,
        timeout=120, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    marker = _load_harness().MARKER
    (line,) = [ln for ln in out.stderr.splitlines() if ln.startswith(marker)]
    calls = json.loads(line[len(marker):])["calls"]
    for key in layer_calls:
        assert calls.get(key, 0) > 0, key
