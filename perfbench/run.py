#!/usr/bin/env python3
"""The repo benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the repository. Workloads (see perfbench/src/workloads.cc):

  small_sim   athlete (~200 rows) on all ten engines,
              full-pipeline mode, simulated execution, eval-host machine:
              fixed per-pipeline costs.
  inmem_real  loan, patrol and taxi on every engine that fits the eval-host
              budget (27 cells), full-pipeline mode, real threads: kernels,
              CSV parsing and the thread pool.
  ooc_real    patrol and taxi on spark_sql and polars (BCF) and vaex (CSV)
              under the scaled laptop budget, per-stage mode, real threads,
              one pipeline worker: spill, Grace join, external sort.

Every run generates the workload's data from --seed and checks each cell's
final table against pandas on an unbounded machine. With --trace 0 it sets up
three times and measures untraced runs for about --seconds in total, a third
after each set-up, and reports the end-to-end metrics; with --trace 1 it
reports the per-layer metrics of a traced run. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. The full self-describing result (seed, host, build flags, BENTO_*
settings, check details, per-cell samples) and the traced run's spans are
written under .bench_build/work/.

The build goes to $CARGO_TARGET_DIR (default .bench_build); all files the
benchmark writes, spill files included, stay under that directory.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

REQUIRED_KEYS = {"correct", "attempted", "failed", "metrics"}
# A run must finish within 180 s; the rest is left to the build check.
RUN_TIMEOUT_S = 170


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def build(source_dir, build_dir, jobs):
    """Configures (once) and builds the perfbench target; output to stderr."""
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(source_dir), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench",
         "-j", str(jobs)],
        check=True, stdout=sys.stderr)
    return build_dir / "perfbench"


def git_sha(repo_root):
    if not (repo_root / ".git").exists():
        return "unavailable (not a git checkout)"
    result = subprocess.run(["git", "-C", str(repo_root), "rev-parse", "HEAD"],
                            capture_output=True, text=True, check=False)
    return result.stdout.strip() or "unavailable"


def main():
    args = parse_args()
    source_dir = Path(__file__).resolve().parent
    repo_root = source_dir.parent
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = repo_root / build_root
    nproc = len(os.sched_getaffinity(0))

    try:
        binary = build(source_dir, build_root / "perfbench", min(nproc, 4))
    except subprocess.CalledProcessError as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    # The program sees only pinned settings: every caller BENTO_* variable is
    # dropped, the scale is the repo default, and spill/temp files stay in
    # the build directory.
    tmp_dir = build_root / "tmp"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("BENTO_")}
    env["BENTO_SCALE"] = "0.001"
    env["TMPDIR"] = str(tmp_dir)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(build_root / "work"), "--git-sha",
           git_sha(repo_root)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if set(result) != REQUIRED_KEYS:
        print(f"perfbench: malformed result {lines[-1]}", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
