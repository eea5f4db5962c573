"""The four benchmark workloads, each a list of `classforms` invocations.

A workload is a list of slots.  A slot is a pool of alternatives, and an
alternative is one or more command lines.  The seed picks one alternative
per slot.  Alternatives of one slot cost about the same (same class number
and group structure, same automatic truncation order, or a size within a
percent or two), so the run length barely changes between seeds while the
inputs do.  README.md in this directory says why each workload exists and
what it leaves out.
"""

import random


def _pool(template, values):
    """One single-command alternative per value; `{}` marks the varied argument."""
    return [(tuple(str(v) if a == "{}" else a for a in template),) for v in values]


def _near(centre, step):
    return [centre + step * k for k in range(-2, 3)]


def _args(*items):
    return tuple(str(x) for x in items)


# Fundamental discriminants with cyclic class groups of equal order, so every
# member of a pool makes the same number of compositions.
TABLE_SIDE_D = (-960447, -964543, -969295, -982327)  # h = 480: composition table
POWERING_SIDE_D = (-909011, -918919, -920487, -922687)  # h = 528 > 512: powering

SERIES_DEEP = [
    _pool(("series", "j", "--order", "{}"), _near(800, 4)),
    _pool(("series", "invdelta", "--order", "{}"), _near(800, 4)),
    # both need truncation order 3200 and have 13 CM points
    _pool(("singular-trace", "--n", "{}"), (8, 11)),
]

GROUP_SCAN = [
    _pool(("classgroup", "{}"), TABLE_SIDE_D),
    _pool(("classgroup", "{}"), POWERING_SIDE_D),
    _pool(("stats", "ng", "--g", "3", "--x", "{}"), _near(1000, 4)),
]

SIEVE_SCAN = [
    # both emitters scan the same range, so reuse across processes would show
    [(_args("cft", "polar", "--mmax", m, "--emit", "figure-data"),
      _args("cft", "polar", "--mmax", m, "--emit", "cdf")) for m in _near(30000, 100)],
    _pool(("stats", "cohen-lenstra", "--p", "3", "--N", "{}"), _near(1000000, 2000)),
    _pool(("--format", "csv", "stats", "h-scan", "--N", "{}"), _near(100000, 200)),
    _pool(("cft", "polar", "--mmax", "{}"), _near(2000, 10)),
]

SUMS_SHORT = [
    _pool(("rademacher", "tau", "--n", "{}", "--cmax", "200"), (3, 4, 5, 6)),
    _pool(("rademacher", "rd", "--d", "1", "--n", "{}", "--cmax", "400"), (1, 2, 3, 4)),
    _pool(("cft", "zk", "--k", "2", "--cmax", "{}"), (160,)),
    _pool(("ecc", "verify", "--q", "{}"), (101, 103, 107, 109, 113, 127)),
    # q = 1 mod 3, so the 3-torsion counts are not all empty
    _pool(("ecc", "torsion", "--n", "3", "--q", "{}"), (151, 157, 163, 181, 193, 199)),
    _pool(("trace", "--weight", "12", "--n", "{}"), range(20, 41)),
    _pool(("trace", "--weight", "24", "--n", "{}"), range(20, 41)),
    _pool(("bh", "classify", "{}"), (-20, -24, -36, -40, -52, -56, -84, -88)),
    [(_args("bh", "tau", *f),) for f in ((6, 1, 1), (5, 3, 2), (7, 5, 3), (4, 1, 3))],
    _pool(("series", "delta", "--order", "{}"), range(40, 61)),
    _pool(("rademacher", "invdelta", "--n", "{}", "--cmax", "30"), (1, 2, 3, 4, 5)),
]

WORKLOADS = {
    "series-deep": SERIES_DEEP,
    "group-scan": GROUP_SCAN,
    "sieve-scan": SIEVE_SCAN,
    "sums-short": SUMS_SHORT,
}


def invocations(workload: str, seed: int):
    """The command lines of one workload for one seed, as argument tuples."""
    rng = random.Random(f"{workload}:{seed}")
    return [args for slot in WORKLOADS[workload] for args in rng.choice(slot)]


def every_invocation():
    """Every command line any seed can produce, for the reference table."""
    seen = {}
    for slots in WORKLOADS.values():
        for slot in slots:
            for alternative in slot:
                for args in alternative:
                    seen[args] = None
    return list(seen)
