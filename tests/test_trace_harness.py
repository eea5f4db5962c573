"""The span harness in perfbench/ looks its targets up by name; keep them resolvable."""

import importlib.util
from pathlib import Path

import classforms
import classforms.cli  # noqa: F401  (imports every layer module)

HARNESS = Path(__file__).resolve().parent.parent / "perfbench" / "traced_child.py"


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
