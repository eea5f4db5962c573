"""End-to-end benchmark of the `classforms` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout that holds `src/classforms`; the program
needs no build step.  Every invocation is a fresh single process, run one at
a time (a closed loop with one client), and every output is checked
(checks.py).  The last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`; the lines above it are
the human-readable report with the machine and provenance block.

--trace 0 repeats the workload's command list in passes, each pass in a
seeded shuffled order, until the next pass would end past --seconds (at
least two passes), and reports the end-to-end metrics:

  wall_s       sum over the command list of each command's median wall time
  cpu_s        the same for user+sys CPU time (os.wait4 of that child alone)
  setup_s      median wall time of fresh `import classforms.cli` processes,
               three before each pass
  peak_rss_mb  the largest peak RSS of any single process of the workload

--trace 1 runs each command once untraced and once traced (traced_child.py) and
reports the per-layer metrics, the layer shares of the traced wall time and
the tracing overhead, traced minus untraced wall time.
"""

import argparse
import json
import os
import random
import selectors
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import checks
import workloads
from traced_child import MARKER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3  # fresh imports before each pass
MIN_PASSES = 2
DEADLINE_S = 170  # the whole run, so a hung child cannot hold it past 180 s
LAYERS = ("import", "cli", "quadforms", "classgroup", "qseries", "rademacher",
          "attractor", "eccensus", "cftx", "tables")
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> (unit, how it is read from the summed span totals)
PER_LAYER = {
    "import.total_s": ("s", None), "import.numpy_s": ("s", None),
    "import.mpmath_s": ("s", None), "import.classforms_s": ("s", None),
    "cli.self_s": ("s", ("self", "cli.main")), "cli.stdout_bytes": ("B", None),
    "qseries.mul_calls": ("count", ("calls", "qseries.mul")),
    "qseries.mul_s": ("s", ("seconds", "qseries.mul")),
    "qseries.mul_terms": ("count", ("counts", "qseries.mul_terms")),
    "qseries.mul_max_bits": ("bits", ("maxima", "qseries.mul_max_bits")),
    "qseries.inverse_calls": ("count", ("calls", "qseries.inverse")),
    "qseries.inverse_s": ("s", ("seconds", "qseries.inverse")),
    "qseries.inverse_terms": ("count", ("counts", "qseries.inverse_terms")),
    "qseries.pow_calls": ("count", ("calls", "qseries.pow")),
    "rademacher.cm_eval_calls": ("count", ("calls", "rademacher.cm_eval")),
    "rademacher.cm_eval_s": ("s", ("seconds", "rademacher.cm_eval")),
    "rademacher.cm_eval_order_max": ("terms", ("maxima", "rademacher.cm_eval_order_max")),
    "rademacher.cm_eval_digits_max": ("digits", ("maxima", "rademacher.cm_eval_digits_max")),
    "rademacher.cm_points": ("count", ("counts", "rademacher.cm_points")),
    "rademacher.enumerate_QD_s": ("s", ("seconds", "rademacher.enumerate_QD")),
    "rademacher.trace_self_s": ("s", ("self", "rademacher.trace")),
    "rademacher.csum_calls": ("count", ("calls", "rademacher.csum")),
    "rademacher.csum_terms": ("count", ("counts", "rademacher.csum_terms")),
    "rademacher.csum_s": ("s", ("seconds", "rademacher.csum")),
    "rademacher.calibrate_s": ("s", ("seconds", "rademacher.calibrate")),
    "classgroup.compose_calls": ("count", ("calls", "classgroup.compose")),
    "classgroup.compose_s": ("s", ("seconds", "classgroup.compose")),
    "classgroup.structure_calls": ("count", ("calls", "classgroup.structure")),
    "classgroup.structure_s": ("s", ("seconds", "classgroup.structure")),
    "classgroup.element_order_calls": ("count", ("calls", "classgroup.element_order")),
    "classgroup.ng_self_s": ("s", ("self", "classgroup.ng")),
    "quadforms.reduce_calls": ("count", ("calls", "quadforms.reduce")),
    "quadforms.reduce_s": ("s", ("seconds", "quadforms.reduce")),
    "quadforms.enumerate_calls": ("count", ("calls", "quadforms.enumerate")),
    "quadforms.enumerate_forms": ("count", ("counts", "quadforms.enumerate_forms")),
    "quadforms.enumerate_s": ("s", ("seconds", "quadforms.enumerate")),
    "quadforms.class_number_calls": ("count", ("calls", "quadforms.class_number")),
    "quadforms.hurwitz_calls": ("count", ("calls", "quadforms.hurwitz")),
    "tables.build_s": ("s", ("seconds", "tables.build")),
    "tables.cells": ("count", ("counts", "tables.cells")),
    "tables.factorize_calls": ("count", ("calls", "tables.factorize")),
    "tables.factorize_s": ("s", ("seconds", "tables.factorize")),
    "tables.divisors_s": ("s", ("seconds", "tables.divisors")),
    "cftx.polar_formula_calls": ("count", ("calls", "cftx.polar_formula")),
    "cftx.polar_formula_s": ("s", ("seconds", "cftx.polar_formula")),
    "cftx.sawtooth_s": ("s", ("seconds", "cftx.sawtooth")),
    "cftx.crosscheck_calls": ("count", ("calls", "cftx.crosscheck")),
    "cftx.crosscheck_terms": ("count", ("counts", "cftx.crosscheck_terms")),
    "cftx.crosscheck_s": ("s", ("seconds", "cftx.crosscheck")),
    "cftx.zk_s": ("s", ("seconds", "cftx.zk")),
    "cftx.zk_verify_s": ("s", ("seconds", "cftx.zk_verify")),
    "eccensus.census_s": ("s", ("seconds", "eccensus.census")),
    "eccensus.curve_classes": ("count", ("counts", "eccensus.curve_classes")),
    "eccensus.torsion_checks": ("count", ("calls", "eccensus.torsion_check")),
    "eccensus.torsion_s": ("s", ("seconds", "eccensus.torsion")),
    "attractor.classify_calls": ("count", ("calls", "attractor.classify")),
    "attractor.classify_s": ("s", ("seconds", "attractor.classify")),
    **{f"share.{layer}": ("fraction", None) for layer in LAYERS},
    "trace.overhead_s": ("s", None),
}


class Child:
    """One finished child process: its resources (from os.wait4) and output."""

    def __init__(self, argv, env, deadline):
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        self.timed_out = False
        chunks = {proc.stdout: [], proc.stderr: []}
        with selectors.DefaultSelector() as sel:
            for pipe in chunks:
                sel.register(pipe, selectors.EVENT_READ)
            while sel.get_map():
                wait = None if self.timed_out else max(0.0, deadline - time.monotonic())
                ready = sel.select(timeout=wait)
                if not ready and not self.timed_out:
                    self.timed_out = True
                    proc.kill()
                for key, _ in ready:
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
        # reap it ourselves: RUSAGE_CHILDREN would be a running maximum over all children
        _, status, usage = os.wait4(proc.pid, 0)
        self.wall = time.perf_counter() - t0
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.out = b"".join(chunks[proc.stdout])
        self.err = b"".join(chunks[proc.stderr])


class Bench:
    def __init__(self, workload, seed, reference):
        self.workload = workload
        self.invocations = workloads.invocations(workload, seed)
        self.rng = random.Random(seed)
        self.reference = reference
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        self.env.pop("CLASSFORMS_PRECISION", None)  # the program sees only the generated inputs
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.attempted = 0
        self.failures = []

    def spawn(self, argv):
        return Child([sys.executable, *argv], self.env, self.deadline)

    def invoke(self, args, traced=False):
        runner = [str(HERE / "traced_child.py")] if traced else ["-m", "classforms"]
        child = self.spawn([*runner, *args])
        self.attempted += 1
        problem = "timed out" if child.timed_out else checks.check(
            args, child.returncode, child.out, self.reference)
        if problem:
            self.failures.append((" ".join(args), problem))
        return child

    def shuffled(self):
        order = list(self.invocations)
        self.rng.shuffle(order)
        return order

    def run_pass(self):
        return {args: self.invoke(args) for args in self.shuffled()}

    def expired(self):
        return time.monotonic() > self.deadline


def quartile_spread(values):
    """(p75 - p25) / median, or the range over the median below four samples."""
    med = statistics.median(values)
    if len(values) < 4:
        return (max(values) - min(values)) / med if med else 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def parse_importtime(err: bytes):
    """(total, numpy, mpmath, classforms) seconds from `python -X importtime` output."""
    total = own = 0
    cumulative = {}
    for line in err.decode(errors="replace").splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        total += int(self_us)
        name = name.strip()
        cumulative[name] = int(cum_us)
        if name == "classforms" or name.startswith("classforms."):
            own += int(self_us)
    return tuple(x / 1e6 for x in (total, cumulative.get("numpy", 0),
                                   cumulative.get("mpmath", 0), own))


def machine_block(bench, versions, seed):
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = got.stdout.strip() or None
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": sys.version.split()[0],
            **versions, "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
            "commit": commit, "workload": bench.workload, "seed": seed}


def end_to_end(bench, seconds):
    # set-up samples are spread over the run, so a slow spell of the machine
    # weighs on them no more than on the passes
    setup = []
    passes = []
    start = time.monotonic()
    while not bench.expired():
        setup += [bench.spawn(["-c", "import classforms.cli"]).wall for _ in range(SETUP_SAMPLES)]
        passes.append(bench.run_pass())
        elapsed = time.monotonic() - start
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    per_cmd = {args: [p[args] for p in passes if args in p] for args in bench.invocations}
    per_pass_wall = [sum(c.wall for c in p.values()) for p in passes]
    per_pass_cpu = [sum(c.cpu for c in p.values()) for p in passes]
    per_pass_rss = [max(c.rss_mb for c in p.values()) for p in passes]
    metrics = {
        "wall_s": (sum(statistics.median(c.wall for c in cs) for cs in per_cmd.values()),
                   quartile_spread(per_pass_wall), len(passes)),
        "cpu_s": (sum(statistics.median(c.cpu for c in cs) for cs in per_cmd.values()),
                  quartile_spread(per_pass_cpu), len(passes)),
        "setup_s": (statistics.median(setup), quartile_spread(setup), len(setup)),
        "peak_rss_mb": (max(per_pass_rss), quartile_spread(per_pass_rss), len(passes)),
    }
    lines = [f"{'command':<56} {'wall_s':>8} {'cpu_s':>8} {'rss_mb':>7}  (medians of {len(passes)})"]
    for args, cs in per_cmd.items():
        lines.append(f"{' '.join(args):<56} {statistics.median(c.wall for c in cs):8.3f} "
                     f"{statistics.median(c.cpu for c in cs):8.3f} "
                     f"{statistics.median(c.rss_mb for c in cs):7.1f}")
    return metrics, lines


def per_layer(bench):
    # each command runs untraced and traced back to back, in alternating order,
    # so drift in machine speed hits both alike
    imports, untraced, traced = [], {}, {}
    for i, args in enumerate(bench.shuffled()):
        child = bench.spawn(["-X", "importtime", "-c", "import classforms.cli"])
        imports.append(parse_importtime(child.err))
        for is_traced in (False, True) if i % 2 else (True, False):
            (traced if is_traced else untraced)[args] = bench.invoke(args, is_traced)
    totals = {kind: defaultdict(int) for kind in ("calls", "seconds", "self", "counts", "maxima")}
    outside_main = 0.0
    for child in traced.values():
        lines = [ln for ln in child.err.decode(errors="replace").splitlines()
                 if ln.startswith(MARKER)]
        if not lines:
            continue  # a failed invocation, already counted by its check
        rep = json.loads(lines[-1][len(MARKER):])
        outside_main += child.wall - rep["main_s"]
        for kind, src in (("calls", "calls"), ("seconds", "seconds"), ("self", "self_s"),
                          ("counts", "counts")):
            for key, value in rep[src].items():
                totals[kind][key] += value
        for key, value in rep["maxima"].items():
            totals["maxima"][key] = max(totals["maxima"][key], value)
    traced_wall = sum(c.wall for c in traced.values())
    layer_self = defaultdict(float)
    for key, value in totals["self"].items():
        layer_self[key.split(".")[0]] += value
    layer_self["import"] = outside_main
    values = {
        "import.total_s": statistics.median(i[0] for i in imports),
        "import.numpy_s": statistics.median(i[1] for i in imports),
        "import.mpmath_s": statistics.median(i[2] for i in imports),
        "import.classforms_s": statistics.median(i[3] for i in imports),
        "cli.stdout_bytes": sum(len(c.out) for c in untraced.values()),
        "trace.overhead_s": traced_wall - sum(c.wall for c in untraced.values()),
        **{f"share.{layer}": layer_self[layer] / traced_wall for layer in LAYERS},
    }
    for name, (_, source) in PER_LAYER.items():
        if source is not None:
            kind, key = source
            values[name] = totals[kind].get(key, 0)
    lines = [f"traced wall {traced_wall:.3f} s, untraced "
             f"{traced_wall - values['trace.overhead_s']:.3f} s"]
    return {name: (values[name], None, None) for name in PER_LAYER}, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "classforms" / "cli.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'classforms'}", file=sys.stderr)
        return 2
    with open(HERE / "reference.json") as f:
        reference = json.load(f)
    bench = Bench(args.workload, args.seed, reference)

    # first import compiles the bytecode cache; it also reports the library versions
    probe = bench.spawn(["-c", "import json, classforms.cli, numpy, mpmath.libmp; print(json.dumps("
                         "{'numpy': numpy.__version__, 'mpmath': mpmath.__version__, "
                         "'mpmath_backend': mpmath.libmp.BACKEND}))"])
    if probe.returncode != 0:
        print(f"error: cannot import classforms:\n{probe.err.decode(errors='replace')}",
              file=sys.stderr)
        return 2
    versions = json.loads(probe.out)

    if args.trace:
        metrics, lines = per_layer(bench)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        metrics, lines = end_to_end(bench, args.seconds)
        units = END_TO_END
    failed = len(bench.failures)

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
    print("machine " + json.dumps(machine_block(bench, versions, args.seed), sort_keys=True))
    print("\n".join(lines))
    for args_text, problem in bench.failures:
        print(f"FAILED {args_text}: {problem}")
    for name, (value, spread, n) in metrics.items():
        tail = f"  spread {spread:.4f}  n={n}" if n else ""
        print(f"{name:<32} {value:>16.6f} {units[name]}{tail}")
    print(f"{'fail_ratio':<32} {failed / bench.attempted:>16.6f} failed/attempted"
          f"  n={bench.attempted}")
    print(json.dumps({
        "correct": failed == 0 and not bench.expired(),
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
