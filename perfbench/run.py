#!/usr/bin/env python3
"""Build swsd and the benchmark driver from source, then run one benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload cold_mix --seed 1 --seconds 15 --trace 0

Every argument is passed to perfbench.exe, which parses them strictly.
The build's output goes to stderr; standard output is the driver's, whose
last line is the JSON result.  The driver and every daemon it starts run
in their own process group, which is killed if the run overstays.
"""

import os
import signal
import subprocess
import sys
import time

RUN_LIMIT_S = 170
BUILD_LIMIT_S = 850
TARGETS = ["./bin/swsd.exe", "./perfbench/perfbench.exe"]
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isfile(os.path.join("bin", "swsd.ml"))):
        print("perfbench: run from the repository root (no dune-project or bin/swsd.ml here)",
              file=sys.stderr)
        return 2
    start = time.monotonic()
    try:
        build = subprocess.run(["dune", "build", "--root", ".", *TARGETS],
                               stdout=sys.stderr, timeout=BUILD_LIMIT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    # a run that had to build from scratch may use its remaining allowance
    limit = max(RUN_LIMIT_S - (time.monotonic() - start), 60)
    proc = subprocess.Popen([EXE, *sys.argv[1:]], start_new_session=True)
    try:
        return proc.wait(timeout=limit)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {limit:.0f} s; stopping it", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGTERM)
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()


if __name__ == "__main__":
    sys.exit(main())
