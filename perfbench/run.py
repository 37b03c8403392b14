#!/usr/bin/env python3
"""Build the Impliance benchmark from source and run one workload.

    python3 perfbench/run.py --workload <analytics|lookup|ingest> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the repository. The build goes to
$CARGO_TARGET_DIR (default: perfbench/target); cargo's output goes to
standard error, so the last line of standard output is the benchmark's
JSON result. Exits non-zero, printing no result, when the build or the
run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# one run: three setups, the timed phase and the probes; well inside
# the three minutes a run may take
RUN_TIMEOUT_S = 170


def main() -> int:
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    try:
        run = subprocess.run([binary, *sys.argv[1:]], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
