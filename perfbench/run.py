#!/usr/bin/env python3
"""Build the maxrs benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark binary is built in release mode into ``$CARGO_TARGET_DIR``
(default ``.bench_build``) against the repository's crates.  The run's
scratch files (``FsDisk`` blocks, span logs) stay under ``.perfbench-out``.
Cargo's output goes to standard error, so the last line of standard output
is the benchmark's result object.  Exits non-zero, printing no result, when
the repository's sources are not there to build from.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run must end well within the three minutes a caller allows it.
RUN_TIMEOUT_S = 170


def command_output(args):
    try:
        out = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main():
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        print("run.py: the repository's sources are missing; nothing to build", file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return build.returncode

    out_dir = ROOT / ".perfbench-out"
    scratch = out_dir / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(scratch)
    env["PERFBENCH_GIT_REV"] = command_output(["git", "rev-parse", "--short=12", "HEAD"])
    env["PERFBENCH_RUSTC"] = command_output(["rustc", "--version"])
    binary = target / "release" / "maxrs-perfbench"
    try:
        run = subprocess.run(
            [str(binary), *sys.argv[1:], "--out", str(out_dir)],
            cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S,
        )
        code = run.returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: the run exceeded {RUN_TIMEOUT_S} s and was stopped", file=sys.stderr)
        code = 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
