"""Command-line surface: a thin envelope layer with one emission path.

Each handler takes the parsed arguments alone and returns (parameters,
results, provenance), plus an exit code where it has a verdict of its own;
the CSV emitters write their rows and return None.  `main` names the command
by its subcommand path as invoked and writes the one JSON envelope to stdout;
progress goes to stderr.  Output is deterministic: floats are fixed at 12
significant digits, keys are sorted, and the wall-time field stays null
unless --timing is passed.  Exit codes: 0 on success, 1 when a verification
finds a failing comparison, 2 for usage errors, 3 when a computation exhausts
its precision or truncation budget (PrecisionError; stderr gives the residual).
"""

import argparse
import json
import sys
import time
from fractions import Fraction
from math import isqrt

# Every layer module is imported here, tables too though no handler names it:
# `import classforms.cli` then binds each one on the package, where
# perfbench/traced_child.py looks up the entry points it wraps.  The modules
# themselves load numpy and mpmath only inside the functions that use them.
from . import attractor, cftx, classgroup, eccensus, qseries, rademacher, tables  # noqa: F401
from .quadforms import is_fundamental


def _fmt(x):
    """Normalize a value for deterministic JSON emission."""
    if isinstance(x, bool) or x is None:
        return x
    if isinstance(x, float):
        return float(f"{x:.12g}")
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, complex):
        return {"re": _fmt(x.real), "im": _fmt(x.imag)}
    if isinstance(x, dict):
        return {str(k): _fmt(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_fmt(v) for v in x]
    if hasattr(x, "__int__") and not isinstance(x, int):
        return int(x)
    return x


def _emit(args, command, parameters, results, provenance, t0):
    envelope = {
        "command": command,
        "parameters": _fmt(parameters),
        "results": _fmt(results),
        "provenance": provenance,
        "wall_time_ms": _fmt((time.monotonic() - t0) * 1000.0) if args.timing else None,
    }
    # Infinity and NaN are not JSON: json.dumps raises ValueError, which exits 2
    text = json.dumps(envelope, sort_keys=True, separators=(",", ":"), allow_nan=False)
    sys.stdout.write(text + "\n")


def _emit_csv(header, rows, comment=None):
    """Write header and rows as CSV: floats (numpy's included) as %.12g, other cells by str."""
    if comment:
        sys.stdout.write(f"# {comment}\n")
    sys.stdout.write(header + "\n")
    sys.stdout.writelines(_csv_lines(rows))


def _csv_lines(rows):
    """One line per row, from one %-template per sequence of cell types."""
    templates = {}
    for row in rows:
        row = tuple(row)
        types = tuple(map(type, row))
        template = templates.get(types)
        if template is None:
            cells = ("%.12g" if issubclass(t, float) else "%s" for t in types)
            template = templates[types] = ",".join(cells) + "\n"
        yield template % row


def _disc(args) -> int:
    d = args.D
    if args.neg:
        d = -abs(d)
    if d >= 0:
        raise ValueError(f"discriminant must be negative (got {d}); "
                         "pass it as -84 or with --neg 84")
    return d


# --- subcommand implementations ----------------------------------------------
# Provenance is spelled out, not read from a function's __module__ or
# __qualname__: perfbench's traced runs replace the library functions with
# wrappers, and the envelope must not change under them.


def _coefficients(series):
    return {str(n): str(series.coefficient(n))
            for n in range(series.valuation, series.truncation_order)}


def _cmd_classgroup(args):
    D = _disc(args)
    desc = classgroup.group_structure(D)
    results = {
        "D": D,
        "representatives": [list(f) for f in desc.representatives],
        "class_number": len(desc.representatives),
        "elementary_divisors": list(desc.elementary_divisors),
    }
    if is_fundamental(D):
        # counted from the forms, not the walks, so it stays a check on the structure
        results["two_torsion_order"] = classgroup.ambiguous_count(desc.representatives)
        results["ggz_lower_bound"] = classgroup.ggz_lower_bound(D)
    return {"D": D}, results, "classforms.classgroup.group_structure"


def _cmd_bh_classify(args):
    D = _disc(args)
    charges = attractor.classify_black_holes(D)
    results = {
        "D": D,
        "entropy": attractor.entropy(D),
        "classes": [
            {"p2": c.p2, "pq": c.pq, "q2": c.q2, "form": list(attractor.form_from_charges(c))}
            for c in charges
        ],
    }
    return {"D": D}, results, "classforms.attractor.classify_black_holes"


def _cmd_bh_tau(args):
    tau = attractor.attractor_tau((args.a, args.b, args.c))
    results = {"form": [args.a, args.b, args.c], "tau": tau}
    return {"a": args.a, "b": args.b, "c": args.c}, results, "classforms.attractor.attractor_tau"


def _cmd_bh_hilbert(args):
    D = _disc(args)
    coeffs = attractor.hilbert_class_polynomial(D)
    results = {"D": D, "degree": len(coeffs) - 1,
               "coefficients_low_to_high": [str(c) for c in coeffs]}
    return {"D": D}, results, "classforms.attractor.hilbert_class_polynomial"


# kind -> qseries maker, looked up by name when called, so a wrapper put on
# the module is the one that runs
_SERIES = {"delta": "delta_series", "invdelta": "inverse_delta_series", "j": "j_series"}


def _cmd_series(args):
    name = _SERIES[args.kind]
    s = getattr(qseries, name)(args.order)
    results = {"kind": args.kind, "valuation": s.valuation,
               "truncation_order": s.truncation_order, "coefficients": _coefficients(s)}
    return {"order": args.order}, results, f"classforms.qseries.{name}"


def _cmd_trace(args):
    value = qseries.hecke_trace(args.weight, args.n)
    results = {"weight": args.weight, "n": args.n, "trace": value}
    return {"weight": args.weight, "n": args.n}, results, "classforms.qseries.hecke_trace"


def _cmd_rademacher(args):
    params = rademacher.RademacherParams(cmax=args.cmax, precision_digits=args.precision)
    if args.kind == "invdelta":
        value = rademacher.rademacher_inv_delta(args.n, params)
        exact = int(qseries.inverse_delta_series(args.n + 1).coefficient(args.n))
        results = {"n": args.n, "value": value, "exact": exact,
                   "relative_error": abs(value - exact) / abs(exact)}
        prov = "classforms.rademacher.rademacher_inv_delta"
    elif args.kind == "tau":
        value, beta = rademacher.rademacher_tau_with_beta(args.n, params)
        exact = int(qseries.delta_series(args.n + 1).coefficient(args.n))
        results = {"n": args.n, "value": value, "exact": exact, "beta": beta,
                   "relative_error": abs(value - exact) / abs(exact)}
        prov = "classforms.rademacher.rademacher_tau"
    else:
        value = rademacher.rd_coefficient(args.d, args.n, params)
        results = {"d": args.d, "n": args.n, "value": value}
        prov = "classforms.rademacher.rd_coefficient"
    parameters = {"n": args.n, "d": args.d, "cmax": args.cmax, "precision": args.precision}
    return parameters, results, prov


def _cmd_singular_trace(args):
    # the trace validates n, order and precision before p(n) is asked for
    trace = rademacher.trace_singular_moduli(args.n, args.order, args.precision)
    expected = (24 * args.n - 1) * qseries.partition_numbers(args.n)[args.n]
    results = {
        "n": args.n,
        "trace": trace.value,
        "expected": expected,
        "abs_residual": abs(trace.value - expected),
        "points": [list(f) for f in trace.points],
    }
    # held at the working precision: past n ~ 107 a double cannot resolve 1e-4
    code = 0 if abs(trace.working_sum - expected) < 1e-4 else 1
    return {"n": args.n}, results, "classforms.rademacher.trace_singular_moduli", code


def _cmd_ecc_verify(args):
    rows = eccensus.verify_deuring(args.q)
    for r in rows:
        print(f"q={r.q} t={r.t:+d} observed={r.observed} expected={r.expected} "
              f"{r.status}", file=sys.stderr)
    results = [
        {"q": r.q, "t": r.t, "observed": r.observed, "expected": r.expected,
         "weighted_expected": str(r.weighted_expected), "status": r.status}
        for r in rows
    ]
    return {"q": args.q}, results, "classforms.eccensus.verify_deuring"


def _cmd_ecc_torsion(args):
    q, n = args.q, args.n
    eccensus.check_torsion_modulus(q, n)
    rows = []
    tmax = isqrt(4 * q)
    for t in range(-tmax, tmax + 1):
        if (t - q - 1) % (n * n):
            continue
        count = eccensus.torsion_class_count(q, t, n)
        unweighted, weighted = eccensus.expected_torsion_count(q, t, n)
        rows.append({
            "q": q, "t": t, "n": n, "observed": count,
            "expected_unweighted": unweighted, "expected_weighted": str(weighted),
            "fractional": weighted.denominator != 1,
        })
    return {"q": q, "n": n}, rows, "classforms.eccensus.torsion_class_count"


def _cmd_cft_zk(args):
    z = cftx.extremal_partition_function(args.k, args.order)
    results = {"k": args.k, "coefficients": _coefficients(z)}
    if args.cmax:
        results["identity_check"] = cftx.verify_zk_identity(args.k, cmax=args.cmax,
                                                             order=args.order)
    return ({"k": args.k, "order": args.order, "cmax": args.cmax}, results,
            "classforms.cftx.extremal_partition_function")


def _cmd_cft_polar(args):
    mmax = args.mmax
    if args.emit == "table":
        rows = cftx.extremal_n2_report(mmax)
        results = {
            "rows": rows,
            "flagged": [r["m"] for r in rows if r["flagged"]],
            "documented_candidates": list(cftx.DOCUMENTED_EXTREMAL_CANDIDATES),
        }
        return {"mmax": mmax, "emit": args.emit}, results, "classforms.cftx.extremal_n2_report"
    values = cftx.figure_data(mmax)
    print(f"scanned {mmax} indices", file=sys.stderr)
    if args.emit == "figure-data":
        _emit_csv("m,normalized_excess", [(m + 1, values[m]) for m in range(mmax)])
    elif args.emit == "histogram":
        width, bins = cftx.histogram(values)
        _emit_csv("bin_left,bin_right,count", bins, comment=f"bin_width = {width:.12g}")
    else:
        _emit_csv("value,cumulative_fraction", cftx.empirical_cdf(values))
    return None


def _cmd_stats_cohen_lenstra(args):
    count, proportion = classgroup.cl_statistics(args.p, args.N)
    results = {"p": args.p, "N": args.N, "count_indivisible": count, "proportion": proportion,
               "predicted": classgroup.cohen_lenstra_prediction(args.p)}
    return {"p": args.p, "N": args.N}, results, "classforms.classgroup.cl_statistics"


def _cmd_stats_ng(args):
    results = {"g": args.g, "x": args.x, "count": classgroup.ng_count(args.g, args.x),
               "cg_constant": classgroup.cg_constant(args.g)}
    return {"g": args.g, "x": args.x}, results, "classforms.classgroup.ng_count"


def _cmd_stats_h_scan(args):
    rows = classgroup.h_scan(args.N, args.epsilon)
    if args.format == "csv":
        _emit_csv("D,h,siegel_curve", rows, comment=f"epsilon = {args.epsilon:.12g}")
        return None
    return ({"N": args.N, "epsilon": args.epsilon},
            [{"D": d, "h": hh, "siegel_curve": s} for d, hh, s in rows],
            "classforms.tables.class_number_table")


# --- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="classforms",
        description="class groups, trace formulas, Rademacher sums, charge classes",
    )
    top.add_argument("--format", choices=("json", "csv"), default="json",
                     help="output format where both make sense")
    top.add_argument("--neg", action="store_true",
                     help="negate the discriminant argument (lets you avoid a leading dash)")
    top.add_argument("--timing", action="store_true",
                     help="fill wall_time_ms (off by default to keep output byte-identical)")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classgroup", help="reduced forms, structure, bounds at D")
    p.add_argument("D", type=int)
    p.set_defaults(func=_cmd_classgroup)

    bh = sub.add_parser("bh", help="charge-class operations").add_subparsers(
        dest="subcommand", required=True)
    p = bh.add_parser("classify", help="inequivalent charge classes at D")
    p.add_argument("D", type=int)
    p.set_defaults(func=_cmd_bh_classify)
    p = bh.add_parser("tau", help="fixed-point modulus of a form")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("c", type=int)
    p.set_defaults(func=_cmd_bh_tau)
    p = bh.add_parser("hilbert", help="class polynomial of the modular invariant")
    p.add_argument("D", type=int)
    p.set_defaults(func=_cmd_bh_hilbert)

    p = sub.add_parser("series", help="exact q-expansions")
    p.add_argument("kind", choices=tuple(_SERIES))
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("trace", help="Hecke trace on weight-k cusp forms")
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("rademacher", help="truncated Kloosterman-Bessel sums")
    p.add_argument("kind", choices=("invdelta", "tau", "rd"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=1, help="principal-part depth for kind=rd")
    p.add_argument("--cmax", type=int, default=200)
    p.add_argument("--precision", type=int, default=30)
    p.set_defaults(func=_cmd_rademacher)

    p = sub.add_parser("singular-trace", help="trace of the completed level-6 form")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--precision", type=int, default=None)
    p.set_defaults(func=_cmd_singular_trace)

    ecc = sub.add_parser("ecc", help="curve censuses over prime fields").add_subparsers(
        dest="subcommand", required=True)
    p = ecc.add_parser("verify", help="per-trace counts against class numbers")
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=_cmd_ecc_verify)
    p = ecc.add_parser("torsion", help="full n-torsion counts within a trace class")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_ecc_torsion)

    cft = sub.add_parser("cft", help="extremal series and polar counting").add_subparsers(
        dest="subcommand", required=True)
    p = cft.add_parser("zk", help="extremal partition function")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--order", type=int, default=6)
    p.add_argument("--cmax", type=int, default=0,
                   help="when positive, also run the expansion identity check")
    p.set_defaults(func=_cmd_cft_zk)
    p = cft.add_parser("polar", help="polar-count scan and figure data")
    p.add_argument("--mmax", type=int, required=True)
    p.add_argument("--emit", choices=("table", "figure-data", "histogram", "cdf"),
                   default="table")
    p.set_defaults(func=_cmd_cft_polar)

    stats = sub.add_parser("stats", help="class-number statistics").add_subparsers(
        dest="subcommand", required=True)
    p = stats.add_parser("cohen-lenstra", help="indivisibility proportion vs prediction")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.set_defaults(func=_cmd_stats_cohen_lenstra)
    p = stats.add_parser("ng", help="square-free D with an order-g class")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--x", type=int, required=True)
    p.set_defaults(func=_cmd_stats_ng)
    p = stats.add_parser("h-scan", help="h(D) with the growth reference curve")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.set_defaults(func=_cmd_stats_h_scan)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        out = args.func(args)
        if out is None:  # a CSV emitter has written its rows
            return 0
        parameters, results, provenance, *verdict = out
        path = (getattr(args, key, None) for key in ("command", "subcommand", "kind"))
        _emit(args, " ".join(filter(None, path)), parameters, results, provenance, t0)
        return verdict[0] if verdict else 0
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except rademacher.PrecisionError as exc:
        print(f"precision exhausted: {exc}", file=sys.stderr)
        return 3
    except (ArithmeticError, AssertionError) as exc:
        print(f"identity failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
