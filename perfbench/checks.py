"""Output checks for benchmark invocations.

An invocation passes when it exits 0, its output satisfies the identities
listed for its command below, and the facts taken from it equal those
recorded for the same command line at the seed commit (reference.json).
JSON output is checked fact by fact inside `results`, never as whole-
envelope bytes, so a key added to the envelope later is not a failure.  CSV
output is compared by SHA-256, because the README promises byte-identical
CSV.  Every identity is computed here independently of the program.
"""

import hashlib
import json
import math

FLOAT_RTOL = 1e-9  # facts are printed at 12 significant digits


class CheckFailed(Exception):
    pass


def _require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def split_command(args):
    """(command name, option dict, positional list) of one command line."""
    args = list(args)
    if args[0] == "--format":  # the only global option the workloads use
        del args[:2]
    words = 2 if args[0] in ("bh", "ecc", "cft", "stats") else 1
    name, rest = " ".join(args[:words]), args[words:]
    opts, pos = {}, []
    i = 0
    while i < len(rest):
        if rest[i].startswith("--"):
            opts[rest[i][2:]] = rest[i + 1]
            i += 2
        else:
            pos.append(rest[i])
            i += 1
    return name, opts, pos


def digest(obj) -> str:
    if not isinstance(obj, bytes):
        obj = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(obj).hexdigest()


# --- independent arithmetic ----------------------------------------------------


def partition_numbers(nmax):
    p = [1] + [0] * nmax
    for part in range(1, nmax + 1):
        for n in range(part, nmax + 1):
            p[n] += p[n - part]
    return p


def euler_power(order, k):
    """Coefficients of prod_{n>=1} (1 - q^n)^k below q^order, k may be negative."""
    c = [1] + [0] * (order - 1)
    for n in range(1, order):
        for _ in range(abs(k)):
            if k > 0:  # multiply by (1 - q^n)
                for i in range(order - 1, n - 1, -1):
                    c[i] -= c[i - n]
            else:  # divide by (1 - q^n)
                for i in range(n, order):
                    c[i] += c[i - n]
    return c


def ramanujan_tau(nmax):
    """tau(0..nmax) with tau(0) = 0."""
    return [0] + euler_power(nmax, 24)


def prime_divisors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + ([n] if n > 1 else [])


# --- per-command checks: each returns the facts to compare ----------------------


def _envelope(out):
    try:
        env = json.loads(out)
    except ValueError as exc:
        raise CheckFailed(f"output is not one JSON envelope: {exc}") from None
    return env["results"]


def _classgroup(opts, pos, out):
    r = _envelope(out)
    D = int(pos[0])
    reps, h, divs = r["representatives"], r["class_number"], r["elementary_divisors"]
    _require(r["D"] == D, "D echoed wrongly")
    _require(len(reps) == h == math.prod(divs), "h, #representatives and prod(divisors) differ")
    _require(all(b % a == 0 for a, b in zip(divs, divs[1:])), "divisors do not form a chain")
    for a, b, c in reps:
        _require(b * b - 4 * a * c == D and math.gcd(math.gcd(a, b), c) == 1,
                 f"[{a},{b},{c}] is not a primitive form of discriminant {D}")
        _require(-a < b <= a < c or 0 <= b <= a == c, f"[{a},{b},{c}] is not reduced")
    _require(len({tuple(f) for f in reps}) == h, "repeated representative")
    two_rank = sum(1 for d in divs if d % 2 == 0)
    _require(r["two_torsion_order"] == 2 ** two_rank == 2 ** (len(prime_divisors(-D)) - 1),
             "2-torsion disagrees with the 2-rank or with genus theory")
    return {"class_number": h, "elementary_divisors": divs}


def _stats_ng(opts, pos, out):
    r = _envelope(out)
    _require(0 < r["count"] <= int(opts["x"]), "count out of range")
    return {"count": r["count"]}


def _singular_trace(opts, pos, out):
    r = _envelope(out)
    n = int(opts["n"])
    expected = (24 * n - 1) * partition_numbers(n)[n]
    _require(r["expected"] == expected, f"expected {r['expected']} != (24n-1)p(n) = {expected}")
    _require(abs(r["trace"] - expected) < 1e-4, f"trace {r['trace']} misses {expected}")
    return {"expected": expected, "points": digest(r["points"])}


def _series(opts, pos, out):
    r = _envelope(out)
    coeffs = {int(k): int(v) for k, v in r["coefficients"].items()}
    lead = {
        "j": {-1: 1, 0: 744, 1: 196884, 2: 21493760},
        "invdelta": {-1: 1, 0: 24, 1: 324, 2: 3200},
        "delta": dict(enumerate(ramanujan_tau(int(opts["order"]) - 1))),
    }[pos[0]]
    for k, v in lead.items():
        _require(coeffs.get(k, 0) == v, f"coefficient of q^{k} is {coeffs.get(k)}, not {v}")
    return {"valuation": r["valuation"], "truncation_order": r["truncation_order"],
            "coefficients": digest(r["coefficients"])}


def _rademacher(opts, pos, out):
    r = _envelope(out)
    n = int(opts["n"])
    if pos[0] == "rd":
        # r_{1,n} converges to the q^n coefficient of j
        exact = {1: 196884, 2: 21493760, 3: 864299970, 4: 20245856256}[n]
        _require(int(opts["d"]) == 1 and abs(r["value"] - exact) < 1e-6 * exact,
                 f"r_(1,{n}) = {r['value']} misses {exact}")
        return {"value": r["value"]}
    exact = ramanujan_tau(n)[n] if pos[0] == "tau" else euler_power(n + 2, -24)[n + 1]
    _require(r["exact"] == exact, f"exact coefficient {r['exact']} != {exact}")
    _require(r["relative_error"] < 1e-6, f"relative error {r['relative_error']} above 1e-6")
    return {"exact": exact, "value": r["value"]}


def _cft_zk(opts, pos, out):
    r = _envelope(out)
    k = int(opts["k"])
    coeffs = {int(e): int(v) for e, v in r["coefficients"].items()}
    p = partition_numbers(k)
    for m in range(k + 1):  # polar part: partitions of m into parts >= 2
        want = p[m] - (p[m - 1] if m else 0)
        _require(coeffs[m - k] == want, f"coefficient of q^{m - k} is {coeffs[m - k]}, not {want}")
    residual = r["identity_check"]["max_relative_residual"]
    _require(residual < 1e-6, f"expansion residual {residual} above 1e-6")
    return {"coefficients": digest(r["coefficients"])}


def _cft_polar(opts, pos, out):
    mmax = int(opts["mmax"])
    emit = opts.get("emit", "table")
    if emit == "table":
        rows = _envelope(out)["rows"]
        _require([row["m"] for row in rows] == list(range(1, mmax + 1)), "rows do not cover 1..mmax")
        for row in rows:
            m = row["m"]
            _require(row["J"] == (m * m + 6 * m + 12) // 12, f"J({m}) is wrong")
            if m <= 200 or m % 97 == 0:  # the direct lattice-point count
                direct = sum((l * l + 4 * m - 1) // (4 * m) for l in range(1, m + 1))
                _require(row["P"] == direct, f"P({m}) = {row['P']} != direct count {direct}")
        return {"rows": digest(rows)}
    header = {"figure-data": b"m,normalized_excess", "cdf": b"value,cumulative_fraction"}[emit]
    lines = out.split(b"\n")
    _require(lines[0] == header and len(lines) == mmax + 2 and lines[-1] == b"",
             f"{emit} CSV does not have a header and {mmax} rows")
    return {"sha256": digest(out), "bytes": len(out)}


def _stats_cohen_lenstra(opts, pos, out):
    r = _envelope(out)
    predicted = math.prod(1 - 3.0 ** -n for n in range(1, 60))
    _require(abs(r["predicted"] - predicted) < 1e-9, "Cohen-Lenstra prediction is wrong")
    _require(0 < r["proportion"] < 1, "proportion out of range")
    return {"count_indivisible": r["count_indivisible"], "proportion": r["proportion"]}


def _stats_h_scan(opts, pos, out):
    lines = out.split(b"\n")
    _require(lines[1] == b"D,h,siegel_curve" and lines[2].startswith(b"-3,1,"),
             "h-scan CSV does not start with its header and D = -3")
    return {"sha256": digest(out), "bytes": len(out)}


def _ecc_verify(opts, pos, out):
    rows = _envelope(out)
    q = int(opts["q"])
    tmax = math.isqrt(4 * q - 1)
    _require([row["t"] for row in rows] == list(range(-tmax, tmax + 1)), "traces missing")
    _require(all(row["status"] == "ok" and row["observed"] == row["expected"] for row in rows),
             "census row not ok")
    # number of F_q-isomorphism classes of elliptic curves, q > 3
    classes = 2 * q + {1: 6, 5: 2, 7: 4, 11: 0}[q % 12]
    _require(sum(row["observed"] for row in rows) == classes,
             f"census has {sum(row['observed'] for row in rows)} classes, not {classes}")
    return {"rows": digest(rows)}


def _ecc_torsion(opts, pos, out):
    rows = _envelope(out)
    _require(rows and all(row["observed"] == row["expected_unweighted"] for row in rows),
             "torsion count differs from the unweighted class-number sum")
    return {"rows": digest(rows)}


def _trace(opts, pos, out):
    r = _envelope(out)
    if opts["weight"] == "12":
        n = int(opts["n"])
        _require(r["trace"] == ramanujan_tau(n)[n], f"weight-12 trace {r['trace']} != tau({n})")
    return {"trace": r["trace"]}


def _bh_classify(opts, pos, out):
    r = _envelope(out)
    D = int(pos[0])
    _require(abs(r["entropy"] - math.pi * math.sqrt(-D)) < 1e-9 * r["entropy"], "entropy is wrong")
    for c in r["classes"]:
        a, b, cc = c["form"]
        _require(b * b - 4 * a * cc == D and (c["p2"], c["pq"], c["q2"]) == (a, -b // 2, cc),
                 f"class {c} does not match its form")
    return {"classes": digest(r["classes"])}


def _bh_tau(opts, pos, out):
    r = _envelope(out)
    a, b, c = map(int, pos)
    want = complex(-b, math.sqrt(4 * a * c - b * b)) / (2 * a)
    got = complex(r["tau"]["re"], r["tau"]["im"])
    _require(abs(got - want) < 1e-10 * abs(want), f"tau {got} != {want}")
    return {"tau": [got.real, got.imag]}


CHECKS = {
    "classgroup": _classgroup,
    "stats ng": _stats_ng,
    "singular-trace": _singular_trace,
    "series": _series,
    "rademacher": _rademacher,
    "cft zk": _cft_zk,
    "cft polar": _cft_polar,
    "stats cohen-lenstra": _stats_cohen_lenstra,
    "stats h-scan": _stats_h_scan,
    "ecc verify": _ecc_verify,
    "ecc torsion": _ecc_torsion,
    "trace": _trace,
    "bh classify": _bh_classify,
    "bh tau": _bh_tau,
}


def facts(args, out: bytes):
    """The facts of one successful invocation; raises CheckFailed on a broken identity."""
    name, opts, pos = split_command(args)
    try:
        return CHECKS[name](opts, pos, out)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise CheckFailed(f"malformed output: {type(exc).__name__}: {exc}") from None


def same(a, b):
    if isinstance(a, float) or isinstance(b, float):
        return isinstance(a, (int, float)) and isinstance(b, (int, float)) and \
            math.isclose(a, b, rel_tol=FLOAT_RTOL)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a == b


def check(args, returncode, out: bytes, reference) -> str | None:
    """None when the invocation is correct, otherwise the reason it is not."""
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        got = facts(args, out)
    except CheckFailed as exc:
        return str(exc)
    want = reference.get(" ".join(args))
    if want is None:
        return "no reference facts for this command line"
    if not same(got, want):
        return f"facts differ from the seed commit: {got} != {want}"
    return None
