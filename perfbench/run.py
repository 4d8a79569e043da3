#!/usr/bin/env python3
"""Build the benchmark from this checkout's sources and run one workload.

usage: python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

W is one of fuzz-rio, table1, table2, verdict-matrix. The last line of
stdout is the result object; build output goes to stderr. See
perfbench/README.md for what each workload and metric means.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

# Claims are made on DEFAULT_SEED and must also hold on HELD_OUT_SEED,
# which is never used while a change is being written.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7


def find_dune():
    """The dune on PATH, else the active opam switch's."""
    found = shutil.which("dune")
    if found:
        return [found]
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    if prefix and os.access(os.path.join(prefix, "bin", "dune"), os.X_OK):
        return [os.path.join(prefix, "bin", "dune")]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def main():
    args = sys.argv[1:]
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        print("perfbench: no dune-project at %s; the benchmark builds the "
              "repository from source and needs a full checkout" % ROOT,
              file=sys.stderr)
        return 1
    dune = find_dune()
    if dune is None:
        print("perfbench: dune not found", file=sys.stderr)
        return 1
    # The build stays inside the checkout: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    if os.path.isabs(dune[0]):
        # ocamlfind and the compilers live next to dune.
        env["PATH"] = os.path.dirname(dune[0]) + os.pathsep + env.get("PATH", "")
    build = subprocess.run(
        dune + ["build", "--root", ROOT, "./perfbench/bench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stdin=subprocess.DEVNULL)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if "--seed" not in args:
        args += ["--seed", str(DEFAULT_SEED)]
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
    sys.stdout.flush()
    return subprocess.run([exe] + args + ["--out", OUT], cwd=ROOT, env=env,
                          stdin=subprocess.DEVNULL).returncode


if __name__ == "__main__":
    sys.exit(main())
