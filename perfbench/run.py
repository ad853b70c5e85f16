#!/usr/bin/env python3
"""Builds the perfbench program from this checkout's sources and runs it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first run configures and builds the PSketch libraries and the program
under .bench_build/perfbench (about a minute on 4 cores); later runs only
check that the build is up to date.  Build output goes to standard error;
the program's report goes to standard output, whose last line is the JSON
result.  The program prints each metric as a bare number; this script
adds the unit that BENCHMARK.json declares for it, so the units have one
source.  The exit code is the program's: 0 when every operation ran and
every output check held.
"""

import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
SOURCE_DIR = "perfbench"


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile("CMakeLists.txt") and
            os.path.isfile(os.path.join("src", "CMakeLists.txt"))):
        fail("run from the root of a PSketch checkout (no CMakeLists.txt "
             "and src/ here)")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", SOURCE_DIR, "-B", BUILD_DIR]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD_DIR, "perfbench")


def with_units(line, trace):
    """The program's result line with each metric as {"value", "unit"}."""
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    declared = bench["per_layer" if trace else "end_to_end"]
    names = sorted(m["name"] for m in declared)
    result = json.loads(line)
    values = result["metrics"]
    if sorted(values) != names:
        fail("the program's metrics %s are not BENCHMARK.json's %s" %
             (sorted(values), names))
    result["metrics"] = {m["name"]: {"value": values[m["name"]],
                                     "unit": m["unit"]} for m in declared}
    return json.dumps(result)


def main():
    binary = build()
    proc = subprocess.run([binary] + sys.argv[1:], stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.splitlines()
    if lines and lines[-1].startswith("{"):
        trace = sys.argv[sys.argv.index("--trace") + 1] == "1"
        lines[-1] = with_units(lines[-1], trace)
    print("\n".join(lines))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
