"""Exact computations around class groups of binary quadratic forms.

Layer modules cover form reduction and composition, exact q-series and the
trace formula, Kloosterman/Rademacher sums and singular-moduli traces,
attractor charge bookkeeping, elliptic-curve censuses over small prime
fields, and polar-term counting for weak Jacobi forms.  The `classforms`
command-line tool exposes all of it with reproducible JSON/CSV output.

Every layer module is bound on the package and in `sys.modules` when the
package is imported, but is compiled and run only on its first attribute
access (`importlib.util.LazyLoader`).  A command therefore pays start-up
only for the layers it calls, while `import classforms.<layer>`,
`from classforms import <layer>` and a walk over `sys.modules` still see
every layer.
"""

import importlib.util
import sys


# defined here, where every process runs it, so the CLI classifies an error
# without running a layer; rademacher and attractor raise it
class PrecisionError(ArithmeticError):
    """Requested tolerance cannot be met; carries the achieved residual."""


def _lazy(name):
    # Python 3.11's LazyLoader is not thread-safe: a thread that touches a layer
    # while another is still running it may read a half-run module.  The CLI
    # is single-threaded.
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


arith = _lazy("arith")
attractor = _lazy("attractor")
cftx = _lazy("cftx")
classgroup = _lazy("classgroup")
eccensus = _lazy("eccensus")
qseries = _lazy("qseries")
quadforms = _lazy("quadforms")
rademacher = _lazy("rademacher")
tables = _lazy("tables")


def __getattr__(name):
    # Form and as_form are read from quadforms on first use, which loads it
    if name in ("Form", "as_form"):
        return getattr(quadforms, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = ["Form", "PrecisionError", "as_form"]
__version__ = "0.1.0"
