"""Record the reference facts the benchmark checks outputs against.

    python3 perfbench/make_reference.py

Runs every command line that any seed of any workload can produce against
the program in ./src, checks each output's identities (checks.py) and writes
the facts to perfbench/reference.json.  The committed file was made at the
commit that introduced the benchmark; regenerate it only when a workload
pool changes, and from that same commit, so later outputs are compared with
the seed commit's.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("CLASSFORMS_PRECISION", None)
    reference = {}
    for args in workloads.every_invocation():
        done = subprocess.run([sys.executable, "-m", "classforms", *args], cwd=ROOT, env=env,
                              stdin=subprocess.DEVNULL, capture_output=True)
        if done.returncode != 0:
            sys.exit(f"{' '.join(args)}: exit code {done.returncode}\n{done.stderr.decode()}")
        reference[" ".join(args)] = checks.facts(args, done.stdout)
        print(" ".join(args), flush=True)
    with open(HERE / "reference.json", "w") as f:
        json.dump(reference, f, indent=0, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
