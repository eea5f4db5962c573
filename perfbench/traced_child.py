"""Run one `classforms` command with spans around each layer's entry functions.

    python3 perfbench/traced_child.py <classforms arguments...>

The program is imported unchanged; its layer-entry functions are then
replaced by timing wrappers in every namespace that holds them (module
globals that imported them by name, lru_cache-wrapped builders, and QSeries
methods on the class), and the command runs as `classforms` would run it.
Standard output is untouched.  When the command returns, one line holding
the spans' totals as JSON, prefixed with MARKER, goes to standard error.

Spans sit only at layer entries: wrapping every public function (as_form
alone is called over a million times by `stats ng`) would cost more than the
work measured.
"""

import json
import sys
import time
from collections import defaultdict

MARKER = "perfbench-trace "
_clock = time.perf_counter


class Recorder:
    """Span totals for one process.  Keys name a function or a group of them."""

    def __init__(self):
        self.stack = []  # one [seconds covered by child spans] per open span
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)  # inclusive, outermost call of a key only
        self.self_s = defaultdict(float)  # span duration minus its child spans
        self.depth = defaultdict(int)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)

    def wrap(self, keys, fn, after=None):
        """`fn` inside a span; self time goes to keys[0], calls and time to every key."""
        stack, calls, seconds, self_s, depth = (
            self.stack, self.calls, self.seconds, self.self_s, self.depth)
        own = keys[0]

        def span(*args, **kwargs):
            covered = [0.0]
            stack.append(covered)
            for k in keys:
                depth[k] += 1
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                self_s[own] += dt - covered[0]
                for k in keys:
                    calls[k] += 1
                    depth[k] -= 1
                    if not depth[k]:
                        seconds[k] += dt
            if after is not None:
                after(self, args, kwargs, result)
            return result

        span.__wrapped__ = fn
        return span

    def report(self, main_s):
        return {"main_s": main_s, "calls": self.calls, "seconds": self.seconds,
                "self_s": self.self_s, "counts": self.counts, "maxima": self.maxima}


# --- counters taken at the span boundaries ---------------------------------------


def _nonzero_prefix(coeffs):
    """prefix[k] = number of nonzero entries among coeffs[:k]."""
    prefix, n = [0], 0
    for c in coeffs:
        n += c != 0
        prefix.append(n)
    return prefix


def _bits(c):
    return c.bit_length() if isinstance(c, int) else max(
        c.numerator.bit_length(), c.denominator.bit_length())


def _after_mul(rec, args, kwargs, result):
    a, b = args
    if not hasattr(b, "coeffs"):
        return  # scalar multiple
    # products the schoolbook loop computes: nonzero a_i times nonzero b_j, i + j < n
    n = result.truncation_order - result.valuation
    prefix = _nonzero_prefix(b.coeffs)
    last = len(prefix) - 1
    rec.counts["qseries.mul_terms"] += sum(
        prefix[min(n - i, last)] for i, c in enumerate(a.coeffs[:n]) if c)
    bits = max((_bits(c) for c in result.coeffs if c), default=0)
    rec.maxima["qseries.mul_max_bits"] = max(rec.maxima["qseries.mul_max_bits"], bits)


def _after_inverse(rec, args, kwargs, result):
    (s,) = args
    n = len(result.coeffs)
    prefix = _nonzero_prefix(s.coeffs[1:])
    last = len(prefix) - 1
    rec.counts["qseries.inverse_terms"] += sum(prefix[min(k, last)] for k in range(1, n))


def _after_enumerate(rec, args, kwargs, result):
    rec.counts["quadforms.enumerate_forms"] += len(result)


def _after_enumerate_qd(rec, args, kwargs, result):
    if rec.depth["rademacher.trace"]:
        rec.counts["rademacher.cm_points"] += len(result)


def _after_cm_eval(rec, args, kwargs, result):
    order = args[1] if len(args) > 1 else kwargs.get("order", 400)
    digits = args[2] if len(args) > 2 else kwargs.get("precision_digits", 40)
    rec.maxima["rademacher.cm_eval_order_max"] = max(rec.maxima["rademacher.cm_eval_order_max"], order)
    rec.maxima["rademacher.cm_eval_digits_max"] = max(rec.maxima["rademacher.cm_eval_digits_max"], digits)


def _after_csum(rec, args, kwargs, result):
    rec.counts["rademacher.csum_terms"] += len(result)  # one partial sum per c <= cmax


def _after_bruteforce(rec, args, kwargs, result):
    rec.counts["cftx.crosscheck_terms"] += args[0]  # one lattice column per l <= m


def _on_cache_miss(counter, fn):
    """An `after` hook adding the result's size to `counter` when lru_cache missed."""
    seen = [fn.cache_info().misses]

    def after(rec, args, kwargs, result):
        misses = fn.cache_info().misses
        if misses > seen[0]:
            rec.counts[counter] += len(result)
        seen[0] = misses

    return after


# (layer, module or class path, function names, extra group key, after hook or
# the name of a counter that adds the result's size on each lru_cache miss)
LAYER_ENTRIES = [
    ("quadforms", "quadforms", ["reduce"], None, None),
    ("quadforms", "quadforms", ["enumerate_reduced"], None, _after_enumerate),
    ("quadforms", "quadforms", ["class_number", "hurwitz", "kronecker_class_number",
                                "is_fundamental"], None, None),
    ("classgroup", "classgroup", ["compose", "power", "element_order", "group_structure",
                                  "two_torsion_order", "ggz_lower_bound", "ng_count",
                                  "cl_statistics", "cg_constant", "cohen_lenstra_prediction",
                                  "siegel_reference_curve"], None, None),
    ("qseries", "qseries.QSeries", ["__mul__"], None, _after_mul),
    ("qseries", "qseries.QSeries", ["inverse"], None, _after_inverse),
    ("qseries", "qseries.QSeries", ["__pow__"], None, None),
    ("qseries", "qseries", ["euler_product", "delta_series", "inverse_delta_series",
                            "eisenstein_E2", "eisenstein_E4", "j_series",
                            "partition_numbers", "hecke_trace"], None, None),
    ("rademacher", "rademacher", ["rademacher_inv_delta_partials", "rademacher_tau_partials",
                                  "rd_partials"], "csum", _after_csum),
    ("rademacher", "rademacher", ["calibrate_beta", "rademacher_inv_delta", "rademacher_tau",
                                  "rd_coefficient", "trace_singular_moduli"], None, None),
    ("rademacher", "rademacher", ["eval_P_complex"], None, _after_cm_eval),
    ("rademacher", "rademacher", ["enumerate_QD"], None, _after_enumerate_qd),
    ("attractor", "attractor", ["classify_black_holes", "attractor_tau", "entropy",
                                "hilbert_class_polynomial"], None, None),
    ("eccensus", "eccensus", ["enumerate_curves"], None, "curve_classes"),
    ("eccensus", "eccensus", ["verify_deuring", "torsion_class_count",
                              "expected_torsion_count", "full_torsion_rank_is_two"], None, None),
    ("cftx", "cftx", ["extremal_partition_function", "verify_zk_identity",
                      "polar_count_formula", "sawtooth", "figure_data",
                      "extremal_n2_report", "histogram", "empirical_cdf"], None, None),
    ("cftx", "cftx", ["polar_count_bruteforce"], None, _after_bruteforce),
    ("tables", "tables", ["reduced_form_counts", "_mobius_upto", "class_number_table",
                          "squarefree_mask", "fundamental_mask", "omega_table", "spf_table",
                          "ambiguous_class_counts"], "build", "cells"),
    ("tables", "tables", ["factorize", "divisors_from_factorization"], None, None),
]

# short key per function name, where the metric names differ from it
KEY_NAMES = {
    "enumerate_reduced": "enumerate", "group_structure": "structure", "ng_count": "ng",
    "__mul__": "mul", "__pow__": "pow", "calibrate_beta": "calibrate",
    "trace_singular_moduli": "trace", "eval_P_complex": "cm_eval",
    "classify_black_holes": "classify", "enumerate_curves": "census",
    "torsion_class_count": "torsion", "full_torsion_rank_is_two": "torsion_check",
    "extremal_partition_function": "zk", "verify_zk_identity": "zk_verify",
    "polar_count_formula": "polar_formula", "polar_count_bruteforce": "crosscheck",
    "divisors_from_factorization": "divisors",
}


def install(rec):
    """Replace every layer-entry function by its span, wherever it is bound."""
    import classforms

    modules = [m for name, m in sys.modules.items()
               if name == "classforms" or name.startswith("classforms.")]
    for layer, path, names, group, after in LAYER_ENTRIES:
        owner = classforms
        for part in path.split("."):
            owner = getattr(owner, part)
        for name in names:
            fn = getattr(owner, name)
            keys = [f"{layer}.{KEY_NAMES.get(name, name)}"]
            if group:
                keys.append(f"{layer}.{group}")
            hook = _on_cache_miss(f"{layer}.{after}", fn) if isinstance(after, str) else after
            span = rec.wrap(keys, fn, hook)
            for target in [owner] if isinstance(owner, type) else modules:
                for bound_name, value in list(vars(target).items()):
                    if value is fn:
                        setattr(target, bound_name, span)


def main(argv):
    from classforms import cli

    rec = Recorder()
    install(rec)
    run = rec.wrap(["cli.main"], cli.main)
    t0 = _clock()
    try:
        code = run(argv)
    finally:
        main_s = _clock() - t0
        sys.stdout.flush()
        sys.stderr.write(MARKER + json.dumps(rec.report(main_s)) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
