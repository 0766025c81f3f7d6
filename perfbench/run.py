#!/usr/bin/env python3
"""Build and run the repository benchmark from the repository root.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/main.exe with dune (into ./_build, with dune's shared
cache off so nothing is written outside the checkout), then replaces
itself with the benchmark process, which prints the result object as
its last stdout line.  Exits non-zero without a result when the sources
it measures are absent.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    missing = [p for p in ("dune-project", "lib", "results") if not os.path.exists(p)]
    if missing:
        sys.stderr.write(
            "perfbench: run from the repository root; missing: %s\n" % ", ".join(missing)
        )
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "perfbench/main.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode
    sys.stdout.flush()
    os.execv(EXE, [EXE] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
